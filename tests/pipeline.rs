//! Epoch-pipelining properties at W ∈ {1, 2, 4}.
//!
//! The pipelined engines keep up to `W` epochs' dissemination in flight
//! while earlier epochs finish agreement, buffer decided blocks, and
//! finalize strictly in epoch order. These tests pin the end-to-end
//! contract over full testbed runs:
//!
//! * no transaction commits twice and none is lost across overlapping
//!   epochs (the chain carries exactly the admitted set);
//! * honest digest chains stay a common prefix — `testbed::run` asserts
//!   block-level prefix agreement (and, on completed runs, level chains)
//!   internally for every honest node, so any violation panics the run;
//! * pipelined service runs at matched arrival rates commit the same
//!   client transactions the sequential engine commits.

use proptest::prelude::*;
use wbft_consensus::sweep::{run_sweep, SweepSpec};
use wbft_consensus::testbed::{run, TestbedConfig};
use wbft_consensus::{ArrivalSpec, Protocol, ServiceConfig};

const DEPTHS: [u64; 3] = [1, 2, 4];

fn pipelined_service_cfg(protocol: Protocol, seed: u64, depth: u64) -> TestbedConfig {
    let mut cfg = TestbedConfig::single_hop(protocol);
    cfg.seed = seed;
    cfg.pipeline_depth = depth;
    cfg.workload.batch_size = 4;
    cfg.service = Some(ServiceConfig {
        // Arrivals faster than the epoch cadence, so several epochs' worth
        // of load is pending at once and depths > 1 genuinely overlap.
        arrivals: ArrivalSpec { per_node: 6, interval_us: 400_000, tx_bytes: 32, seed: 13 },
        mempool_capacity: 64,
        max_epochs: 64,
    });
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Across W ∈ {1, 2, 4}: every admitted client transaction commits
    /// exactly once (none lost across overlapping epochs, none duplicated
    /// on the chain), and all depths commit the same transaction count at
    /// the same offered load.
    #[test]
    fn pipelined_runs_commit_each_tx_exactly_once(
        seed in 1u64..1000,
        protocol_idx in 0usize..2,
    ) {
        let protocol = [Protocol::HoneyBadgerSc, Protocol::DumboSc][protocol_idx];
        let expected = 4 * 6; // n nodes × per_node arrivals, all unique
        for depth in DEPTHS {
            let cfg = pipelined_service_cfg(protocol, seed, depth);
            // `run` asserts honest prefix agreement internally; a
            // divergence panics here with the offending node named.
            let report = run(&cfg);
            prop_assert!(report.completed, "{protocol} W={depth} seed={seed}: must drain");
            let service = report.service.expect("service member present");
            prop_assert_eq!(service.admitted, expected, "{} W={}", protocol, depth);
            // None lost: every admitted tx reached a committed block.
            prop_assert_eq!(
                service.committed_client_txs, expected,
                "{} W={} seed={}: lost transactions", protocol, depth, seed
            );
            prop_assert_eq!(service.pending_at_stop, 0, "{} W={}", protocol, depth);
            // None duplicated: the chain carries exactly the admitted set
            // (all transactions are globally unique, so any double commit
            // inflates total_txs past the admitted count).
            prop_assert_eq!(
                report.total_txs, expected,
                "{} W={} seed={}: chain must carry each tx exactly once",
                protocol, depth, seed
            );
        }
    }
}

/// Fixed-epoch (pre-seeded workload) runs terminate with full agreement at
/// every depth, for an HB-family and a Dumbo-family engine.
#[test]
fn fixed_epoch_runs_agree_at_every_depth() {
    for protocol in [Protocol::Beat, Protocol::DumboSc] {
        for depth in DEPTHS {
            let mut cfg = TestbedConfig::single_hop(protocol);
            cfg.seed = 7;
            cfg.epochs = 3;
            cfg.workload.batch_size = 8;
            cfg.pipeline_depth = depth;
            // Internal assert: all honest nodes committed identical chains.
            let report = run(&cfg);
            assert!(report.completed, "{protocol} W={depth}: must complete");
            assert!(report.total_txs > 0, "{protocol} W={depth}: must commit");
        }
    }
}

/// A pipelined run under frame loss still terminates and keeps the
/// exactly-once property — re-queues from lost proposals interleave with
/// overlapping open epochs, which is precisely where the mempool's
/// admission-order requeue matters.
#[test]
fn pipelined_service_run_survives_loss() {
    let mut cfg = pipelined_service_cfg(Protocol::HoneyBadgerSc, 23, 2);
    cfg.loss = wbft_wireless::LossModel::Uniform { p: 0.05 };
    let report = run(&cfg);
    assert!(report.completed, "lossy pipelined run must still drain");
    let service = report.service.expect("service member present");
    assert_eq!(service.committed_client_txs, service.admitted);
    assert_eq!(report.total_txs, service.admitted);
    assert_eq!(service.pending_at_stop, 0);
}

/// The headline claim of pipelining, in simulated time (deterministic, so
/// a stable gate): at one saturating arrival schedule — arrivals land
/// faster than any epoch can drain them, so a backlog exists from the
/// start — some depth W ≥ 2 beats the sequential engine's mean commit
/// latency on at least one protocol.
#[test]
fn some_pipelined_depth_beats_sequential_at_matched_load() {
    let mut spec = SweepSpec::new("pipeline-latency");
    spec.protocols = vec![Protocol::HoneyBadgerSc, Protocol::DumboSc, Protocol::Beat];
    spec.pipeline_depths = DEPTHS.to_vec();
    spec.seeds = vec![7];
    spec.batch_size = 4;
    spec.services = vec![Some(ServiceConfig {
        arrivals: ArrivalSpec { per_node: 24, interval_us: 1_000, tx_bytes: 32, seed: 13 },
        mempool_capacity: 128,
        max_epochs: 64,
    })];
    let mut mean_us = std::collections::BTreeMap::new();
    for sweep_run in run_sweep(&spec, 1) {
        let label = &sweep_run.scenario.label;
        let cfg = &sweep_run.scenario.cfg;
        assert!(sweep_run.report.completed, "{label}: run must drain");
        let service = sweep_run.report.service.expect("service member present");
        assert_eq!(service.committed_client_txs, service.admitted, "{label}");
        mean_us.insert((cfg.protocol.slug(), cfg.pipeline_depth), service.latency.mean_us);
    }
    let wins = |protocol: &Protocol| {
        let mean = |w: u64| mean_us[&(protocol.slug(), w)];
        DEPTHS.iter().any(|&w| w > 1 && mean(w) < mean(1))
    };
    assert!(
        spec.protocols.iter().any(wins),
        "no protocol improved mean commit latency at any pipelined depth: {mean_us:?}"
    );
}

/// Depth 0 is rejected loudly rather than silently treated as sequential.
#[test]
#[should_panic(expected = "invalid pipeline depth")]
fn zero_depth_is_rejected() {
    let mut cfg = TestbedConfig::single_hop(Protocol::Beat);
    cfg.pipeline_depth = 0;
    run(&cfg);
}
