//! Smoke test: every `Protocol` variant runs one epoch end-to-end on the
//! wireless testbed and commits transactions.
//!
//! Before this existed, the three baseline deployments were exercised only
//! by the (slow, manually-run) fig13 bench, so a refactor could break one
//! without any test noticing. This keeps the config tiny — 1 epoch, small
//! batches — so the whole sweep stays CI-fast while still driving each
//! engine through dealing, broadcast, agreement, and commit.

use wbft_consensus::testbed::{run, TestbedConfig};
use wbft_consensus::Protocol;
use wbft_wireless::{LossModel, SimDuration};

#[test]
fn every_protocol_variant_completes_one_epoch() {
    for protocol in Protocol::ALL {
        let mut cfg = TestbedConfig::single_hop(protocol);
        cfg.epochs = 1;
        cfg.workload.batch_size = 4;
        // Aggressive simulated-time budget: generous enough for the
        // unbatched baselines on the shared channel, tight enough that a
        // refactor which stalls a deployment (livelock, lost quorum) fails
        // here instead of timing out CI.
        cfg.deadline = SimDuration::from_secs(if protocol.is_batched() {
            3_600
        } else {
            14_400
        });
        let report = run(&cfg);
        assert!(
            report.completed,
            "{protocol} did not complete 1 epoch within {:?} of simulated time",
            cfg.deadline
        );
        assert!(report.total_txs > 0, "{protocol} committed no transactions");
        assert_eq!(
            report.epoch_latencies.len(),
            1,
            "{protocol} reported {} epoch latencies for 1 epoch",
            report.epoch_latencies.len()
        );
        assert!(
            report.channel_accesses_per_node > 0.0,
            "{protocol} recorded no channel accesses — simulator not engaged?"
        );
    }
}

/// No deployment airs a frame longer than the radio's maximum at n = 4: the
/// simulator airs such a frame at the maximum's airtime, charging the run
/// less than its bytes.
#[test]
fn no_deployment_airs_an_over_size_frame_at_four_nodes() {
    let mut cfgs = Vec::new();
    for protocol in Protocol::ALL {
        for seed in 1..=4 {
            cfgs.push(TestbedConfig { seed, epochs: 4, ..TestbedConfig::single_hop(protocol) });
        }
    }
    for seed in 1..=3 {
        let mut cfg = TestbedConfig::multi_hop(Protocol::DumboSc);
        (cfg.seed, cfg.epochs, cfg.loss) = (seed, 4, LossModel::Uniform { p: 0.1 });
        cfgs.push(cfg);
    }
    for cfg in &cfgs {
        let report = run(cfg);
        let (protocol, seed, multi) = (cfg.protocol, cfg.seed, cfg.clusters.is_some());
        assert!(report.completed, "{protocol} seed {seed} (multi-hop: {multi}) did not complete");
        let oversize = report.metrics.oversize;
        assert_eq!(oversize, 0, "{protocol} seed {seed} (multi-hop: {multi}): {oversize} frames");
    }
}
