//! # wbft — reproduction of *Asynchronous BFT Consensus Made Wireless*
//!
//! Facade crate re-exporting the workspace layers under one roof:
//!
//! * [`crypto`] — threshold signatures / coins / encryption, Schnorr,
//!   Merkle, and the paper's calibrated curve cost profiles;
//! * [`net`] — ConsensusBatcher packet layouts, NACK bitmaps,
//!   retransmission policy, Table I overhead closed forms;
//! * [`wireless`] — deterministic LoRa-style single-channel simulator
//!   (CSMA/CA, capture, loss models, adversaries);
//! * [`components`] — batched RBC / CBC / PRBC / ABA and their
//!   per-instance baselines;
//! * [`consensus`] — HoneyBadger / BEAT / Dumbo deployments, Byzantine
//!   behaviours, multi-hop clustering, the [`consensus::testbed`], the
//!   parallel scenario-sweep harness ([`consensus::sweep`]), and the
//!   client-facing service API ([`consensus::service`]: bounded mempool,
//!   consensus handles, streaming commits);
//! * [`transport`] — real UDP runtime for the same sans-io protocol code,
//!   plus the client-submission channel external processes use;
//! * [`report`] — minimal JSON codec behind the machine-readable
//!   `target/reports/*.json` sweep reports.
//!
//! The repository-level integration tests and examples are built against
//! this crate; see the individual crates for the real API surface.

pub use wbft_components as components;
pub use wbft_consensus as consensus;
pub use wbft_crypto as crypto;
pub use wbft_net as net;
pub use wbft_report as report;
pub use wbft_transport as transport;
pub use wbft_wireless as wireless;
