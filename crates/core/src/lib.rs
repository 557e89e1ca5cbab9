//! # wbft-consensus — wireless asynchronous BFT consensus
//!
//! The consensus layer and testbed of the ConsensusBatcher reproduction
//! (*"Asynchronous BFT Consensus Made Wireless"*, ICDCS 2025): wireless
//! HoneyBadgerBFT (LC/SC), BEAT and Dumbo (LC/SC) built from the batched
//! components of `wbft-components`, their three unbatched baselines,
//! single-hop and clustered multi-hop deployments, Byzantine node
//! behaviours, and a [`testbed`] that runs any of it on the deterministic
//! wireless simulator and reports latency / throughput / channel-access
//! statistics.
//!
//! ## Example
//!
//! ```rust,no_run
//! use wbft_consensus::protocol::Protocol;
//! use wbft_consensus::testbed::{run, TestbedConfig};
//!
//! let report = run(&TestbedConfig::single_hop(Protocol::Beat));
//! println!("latency {:.1}s, throughput {:.0} TPM",
//!     report.mean_latency_s, report.throughput_tpm);
//! ```

pub mod byzantine;
pub mod driver;
pub mod dumbo;
pub mod engine;
pub mod fuzz;
pub mod honeybadger;
pub mod membership;
pub mod multihop;
pub mod netrun;
pub mod protocol;
pub mod recovery;
pub mod report;
pub mod service;
pub mod sweep;
pub mod testbed;
pub mod workload;

pub use byzantine::{ByzantineEngine, ByzantineMode};
pub use driver::{Block, Engine, EngineOut, ProtocolNode, Tx};
pub use membership::{CeremonyKickoff, MembershipCtl};
pub use fuzz::{
    build_scheduler, campaign, replay_fixture, FuzzCase, FuzzConfig, FuzzOutcome, FuzzReport,
    FuzzVerdict,
};
pub use netrun::{run_udp_node, run_udp_service_node, ServiceNodeOpts, UdpNodeOutcome};
pub use protocol::Protocol;
pub use recovery::{chain_digests, BlockJournal};
pub use service::{
    AdmitOutcome, ArrivalSpec, ConsensusHandle, LatencySummary, Mempool, ServiceConfig,
    ServiceReport, ServiceStats, StopCondition,
};
pub use sweep::{
    parallel_map, resolve_threads, run_scenarios, run_sweep, sweep_threads, Scenario, SweepRun,
    SweepSpec,
};
pub use testbed::{run, CrashEvent, CrashPlan, RunReport, TestbedConfig};
pub use workload::{BatchSource, Workload};
