//! # wbft-report — machine-readable reports for the sweep harness
//!
//! A minimal JSON value model with a non-panicking parser and
//! deterministic writers ([`json`]), the [`ToJson`]/[`FromJson`] traits
//! and the schema table that generates them ([`convert`]: one
//! [`json_record!`], [`json_tagged!`] or [`json_name!`] entry per format).
//! The consensus crate builds on these to serialize
//! `TestbedConfig`/`RunReport` into `target/reports/*.json`, which is what
//! makes figure regeneration scriptable and lets the determinism tests
//! compare runs byte-for-byte. The JSON schema documented in the README is
//! the stable interface.

pub mod convert;
pub mod json;

pub use convert::{FromJson, Members, ToJson};
pub use json::{parse, read_file, to_file_string, write_file, Json, JsonError, Number};
