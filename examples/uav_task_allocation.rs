//! Dynamic task allocation in a UAV swarm — the paper's opening motivation:
//! "wireless applications that rely on reaching consensus as a prerequisite
//! for initiating follow-up tasks include dynamic task allocation …".
//!
//! Four UAVs each observe a set of tasks (search sectors) and propose their
//! claims; one round of wireless BEAT orders all claims so every UAV ends
//! up with the identical, conflict-free assignment before flying off.
//!
//! ```text
//! cargo run --release --example uav_task_allocation
//! ```

use bytes::Bytes;
use rand::SeedableRng;
use wbft_components::deal_node_crypto;
use wbft_consensus::driver::ProtocolNode;
use wbft_consensus::{BatchSource, Protocol, StopCondition};
use wbft_crypto::CryptoSuite;
use wbft_wireless::{ChannelId, LossModel, NodeId, SimConfig, SimTime, Simulator, Topology};

/// A task claim: `(uav, sector, priority)` packed into a small transaction.
fn claim(uav: usize, sector: u8, priority: u8) -> Bytes {
    Bytes::from(vec![b'T', uav as u8, sector, priority])
}

fn main() {
    let n = 4;
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let crypto = deal_node_crypto(n, CryptoSuite::light(), &mut rng);

    // Each UAV proposes claims for the sectors it can see.
    let claims_of = |uav: usize| -> Vec<Bytes> {
        (0..3u8).map(|k| claim(uav, (uav as u8 * 2 + k) % 8, k)).collect()
    };

    let behaviors: Vec<_> = crypto
        .into_iter()
        .map(|c| {
            // One proposal for epoch 0: the UAV's claims, encoded as one
            // bundle transaction (decoded on commit below).
            let bundle = wbft_consensus::workload::encode_batch(&claims_of(c.me));
            let source = BatchSource::Fixed(vec![Some(bundle)]);
            let engine = Protocol::Beat.build(c.clone(), source, StopCondition::Epochs(1), 1, None);
            ProtocolNode::new(engine, c, ChannelId(0))
        })
        .collect();

    // A lossy sky: 10 % of frames vanish; consensus still terminates.
    let cfg = SimConfig {
        seed: 3,
        loss: LossModel::Uniform { p: 0.10 },
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(cfg, Topology::single_hop(n), behaviors);
    let done = sim.run_until_pred(SimTime::from_micros(3_600_000_000), |s| {
        s.behaviors().all(|(_, b)| b.is_done())
    });
    assert!(done, "allocation round did not finish");

    println!("== UAV task allocation via wireless BEAT ({n} UAVs, 10% frame loss) ==");
    println!("agreed at {}", sim.now());

    // Decode the agreed claim set (identical on every UAV).
    let reference = sim.behavior(NodeId(0)).blocks().to_vec();
    for (_, node) in sim.behaviors() {
        assert_eq!(node.blocks(), &reference[..], "divergent assignment!");
    }
    let mut assignment: Vec<(u8, u8, u8)> = Vec::new();
    for bundle in &reference[0].txs {
        for c in wbft_consensus::workload::decode_batch(bundle).unwrap_or_default() {
            if c.len() == 4 && c[0] == b'T' {
                assignment.push((c[1], c[2], c[3]));
            }
        }
    }
    // First claim per sector wins (the agreed order is the tie-breaker).
    let mut taken = [false; 8];
    println!("sector assignments (agreed order, first claim wins):");
    for (uav, sector, prio) in assignment {
        if !taken[sector as usize] {
            taken[sector as usize] = true;
            println!("  sector {sector} -> UAV {uav} (priority {prio})");
        }
    }
    println!("all UAVs hold the identical assignment ✓");
}
