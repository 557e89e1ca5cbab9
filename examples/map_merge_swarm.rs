//! Collective map construction — robots agreeing on merged feature updates
//! (paper intro: "collective map construction").
//!
//! Seven ground robots (n = 3f+1 with f = 2) run wireless
//! HoneyBadgerBFT-SC for two epochs; each epoch every robot proposes the
//! map cells it newly observed, and the agreed blocks define the canonical
//! shared map that all robots apply in the same order.
//!
//! ```text
//! cargo run --release --example map_merge_swarm
//! ```

use rand::SeedableRng;
use std::collections::BTreeMap;
use wbft_components::deal_node_crypto;
use wbft_consensus::driver::ProtocolNode;
use wbft_consensus::{Protocol, Workload};
use wbft_crypto::CryptoSuite;
use wbft_wireless::{ChannelId, NodeId, RadioParams, SimConfig, SimTime, Simulator, Topology};

fn main() {
    let n = 7; // f = 2
    let epochs = 2;
    let mut rng = rand::rngs::StdRng::seed_from_u64(2030);
    let crypto = deal_node_crypto(n, CryptoSuite::light(), &mut rng);

    // Map updates ride as the synthetic workload: each "transaction" is one
    // observed cell update, deterministic per (robot, epoch).
    let workload = Workload { batch_size: 6, tx_bytes: 12, seed: 99 };

    let behaviors: Vec<_> = crypto
        .into_iter()
        .map(|c| {
            let engine =
                Protocol::HoneyBadgerSc.engine_at_depth(c.clone(), workload.clone(), epochs, 1);
            ProtocolNode::new(engine, c, ChannelId(0))
        })
        .collect();

    // A faster (BLE-class) radio: seven nodes on LoRa would crawl.
    let cfg = SimConfig { seed: 11, radio: RadioParams::ble_class(), ..SimConfig::default() };
    let mut sim = Simulator::new(cfg, Topology::single_hop(n), behaviors);
    let done = sim.run_until_pred(SimTime::from_micros(3_600_000_000), |s| {
        s.behaviors().all(|(_, b)| b.is_done())
    });
    assert!(done, "map merge did not finish");

    println!("== collective map construction: {n} robots, {epochs} epochs (HB-SC) ==");
    println!("completed at {}", sim.now());

    // Apply the agreed update stream into a shared map; every robot gets
    // the identical result because blocks are identical.
    let reference = sim.behavior(NodeId(0)).blocks().to_vec();
    for (_, node) in sim.behaviors() {
        assert_eq!(node.blocks(), &reference[..]);
    }
    let mut map: BTreeMap<(u8, u8), u8> = BTreeMap::new();
    let mut updates = 0;
    for block in &reference {
        for tx in &block.txs {
            // Interpret the first three bytes as (x, y, value).
            if tx.len() >= 3 {
                map.insert((tx[0] % 16, tx[1] % 16), tx[2]);
                updates += 1;
            }
        }
    }
    println!("applied {updates} cell updates -> {} distinct cells", map.len());
    println!("every robot holds the identical map ✓");
    for (id, node) in sim.behaviors().take(3) {
        let t = node.clock().completed.last().copied().unwrap_or(SimTime::ZERO);
        println!("  {id}: final epoch decided at {t}");
    }
}
