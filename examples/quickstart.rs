//! Quickstart: run wireless HoneyBadgerBFT-SC on a simulated 4-node
//! LoRa-class single-hop network and print the committed blocks.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rand::SeedableRng;
use wbft_components::deal_node_crypto;
use wbft_consensus::driver::ProtocolNode;
use wbft_consensus::{Protocol, Workload};
use wbft_crypto::CryptoSuite;
use wbft_wireless::{ChannelId, SimConfig, SimTime, Simulator, Topology};

fn main() {
    let n = 4;
    let epochs = 2;

    // Trusted-dealer setup: packet keys + threshold key sets for N nodes.
    let mut rng = rand::rngs::StdRng::seed_from_u64(2025);
    let crypto = deal_node_crypto(n, CryptoSuite::light(), &mut rng);

    // Each node proposes a batch of 32 × 16-byte transactions per epoch.
    let workload = Workload { batch_size: 32, tx_bytes: 16, seed: 7 };

    // One HoneyBadgerBFT-SC engine per node, bound to radio channel 0.
    let behaviors: Vec<_> = crypto
        .into_iter()
        .map(|c| {
            let engine =
                Protocol::HoneyBadgerSc.engine_at_depth(c.clone(), workload.clone(), epochs, 1);
            ProtocolNode::new(engine, c, ChannelId(0))
        })
        .collect();

    // A LoRa-class shared channel with CSMA/CA (SimConfig::default()).
    let cfg = SimConfig { seed: 42, ..SimConfig::default() };
    let mut sim = Simulator::new(cfg, Topology::single_hop(n), behaviors);

    let deadline = SimTime::from_micros(3_600_000_000); // one simulated hour
    let done = sim.run_until_pred(deadline, |s| s.behaviors().all(|(_, b)| b.is_done()));
    assert!(done, "consensus did not finish before the deadline");

    println!("== wireless HoneyBadgerBFT-SC, {n} nodes, {epochs} epochs ==");
    println!("simulated completion time: {}", sim.now());
    println!(
        "channel accesses/node: {:.1}   collisions: {}   bytes on air: {}",
        sim.metrics().mean_channel_accesses(),
        sim.metrics().collisions,
        sim.metrics().total_bytes_sent(),
    );
    for (id, node) in sim.behaviors() {
        let times: Vec<String> =
            node.clock().completed.iter().map(|t| format!("{t}")).collect();
        println!("{id}: epochs decided at {}", times.join(", "));
    }
    let reference = sim.behavior(wbft_wireless::NodeId(0)).blocks();
    for block in reference {
        println!("block {}: {} transactions", block.epoch, block.txs.len());
    }
    // Every node commits the identical chain.
    for (_, node) in sim.behaviors() {
        assert_eq!(node.blocks(), reference);
    }
    println!("all nodes committed identical blocks ✓");
}
