//! Property-based tests on component invariants: RBC, CBC and PRBC
//! delivery under both packings, CBC-small delivery, and agreement and
//! validity of ABA-SC (parallel under both packings, serial with BEAT's coin)
//! and ABA-LC, under randomized delivery orders and message drops (the
//! adversary's schedule).

use bytes::Bytes;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use wbft_components::aba_lc::AbaLcBatch;
use wbft_components::aba_sc::AbaScBatch;
use wbft_components::cbc::{CbcBatch, CbcSmallBatch};
use wbft_components::context::Packing;
use wbft_components::prbc::PrbcBatch;
use wbft_components::rbc::RbcBatch;
use wbft_components::{deal_node_crypto, Actions, BinaryAgreement, Broadcaster, Params};
use wbft_crypto::CryptoSuite;
use wbft_net::{Bitmap, Body, CoinFlavor};

/// Mesh steps a property may take to complete.
const STEPS: usize = 600;

/// Mesh steps parallel ABA-SC may take under the per-instance packing: its
/// four instances share each round's coin, but every vote and coin share
/// is a frame of its own, so drops stall instances apart and the slowest
/// one sets the pace. Above the 7 424 steps measured at the worst of the
/// first 20 000 cases (p99.9 4 454).
const PER_INSTANCE_ABA_SC_STEPS: usize = 12_000;

/// Drives nodes with a randomized delivery schedule: the pending-message
/// pool is shuffled each step and a fraction of messages is dropped. Timers
/// tick when the pool drains, modelling retransmission after loss. `false`
/// when the nodes are not all done within `steps` steps.
#[expect(clippy::too_many_arguments, reason = "one knob per axis of the schedule")]
fn chaos_mesh<C>(
    nodes: &mut [C],
    seed: u64,
    drop_percent: u8,
    steps: usize,
    mut handle: impl FnMut(&mut C, usize, &Body, &mut Actions),
    mut tick: impl FnMut(&mut C, &mut Actions),
    mut done: impl FnMut(&C) -> bool,
    initial: Vec<(usize, Body)>,
) -> bool {
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
    let mut pool = initial;
    let mut rounds = 0;
    loop {
        rounds += 1;
        if rounds > steps {
            return false;
        }
        if pool.is_empty() {
            // Quiescent: fire every node's retransmission tick.
            for (i, node) in nodes.iter_mut().enumerate() {
                let mut acts = Actions::new();
                tick(node, &mut acts);
                for b in acts.drain().0 {
                    pool.push((i, b));
                }
            }
            if pool.is_empty() {
                return nodes.iter().all(&mut done);
            }
        }
        pool.shuffle(&mut rng);
        let (src, body) = pool.pop().expect("non-empty");
        use rand::Rng as _;
        if rng.random_range(0..100) < i32::from(drop_percent) {
            continue; // adversary drops the broadcast entirely
        }
        for (i, node) in nodes.iter_mut().enumerate() {
            if i == src {
                continue;
            }
            let mut acts = Actions::new();
            handle(node, src, &body, &mut acts);
            for b in acts.drain().0 {
                pool.push((i, b));
            }
        }
        if nodes.iter().all(&mut done) {
            return true;
        }
    }
}

fn packing() -> impl Strategy<Value = Packing> {
    prop_oneof![Just(Packing::Combined), Just(Packing::PerInstance)]
}

/// Values of up to five INITIAL fragments, one per proposer.
fn proposals() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..750, 4)
}

/// Starts every node on its value and runs the chaos mesh, per-instance
/// frames joined as a node's engine does and both component timers (local
/// ids 0 and 1) ticking; then checks every node delivered every value.
fn broadcast_under_chaos<C: Broadcaster>(
    nodes: &mut [C],
    seed: u64,
    drop: u8,
    sizes: &[usize],
) -> Result<(), TestCaseError> {
    let n = nodes.len();
    let values: Vec<Bytes> =
        sizes.iter().enumerate().map(|(i, s)| Bytes::from(vec![i as u8 + 1; *s])).collect();
    let mut initial = Vec::new();
    for (i, node) in nodes.iter_mut().enumerate() {
        let mut acts = Actions::new();
        node.start(values[i].clone(), &mut acts);
        for b in acts.drain().0 {
            initial.push((i, b));
        }
    }
    let ok = chaos_mesh(
        nodes,
        seed,
        drop,
        STEPS,
        |c, from, body, acts| c.handle(from, &wbft_net::join(body, n), acts),
        |c, acts| {
            c.on_timer(0, acts);
            c.on_timer(1, acts);
        },
        |c| c.delivered_count() == n,
        initial,
    );
    prop_assert!(ok, "broadcast did not complete under chaos");
    for node in nodes.iter() {
        for (j, v) in values.iter().enumerate() {
            prop_assert_eq!(node.delivered(j), Some(v), "totality/agreement violated");
        }
    }
    Ok(())
}

/// Gives every node its input to each of `instances`, runs the chaos mesh
/// for up to `steps` steps, per-instance frames joined as a node's engine
/// does, and checks agreement and validity per instance.
fn agreement_under_chaos<A: BinaryAgreement>(
    nodes: &mut [A],
    seed: u64,
    drop: u8,
    steps: usize,
    inputs: &[Vec<bool>],
    instances: usize,
) -> Result<(), TestCaseError> {
    let n = nodes.len();
    let mut initial = Vec::new();
    for (i, node) in nodes.iter_mut().enumerate() {
        let mut acts = Actions::new();
        for (j, v) in inputs[i].iter().take(instances).enumerate() {
            node.set_input(j, *v, &mut acts);
        }
        for b in acts.drain().0 {
            initial.push((i, b));
        }
    }
    let ok = chaos_mesh(
        nodes,
        seed,
        drop,
        steps,
        |a, from, body, acts| a.handle(from, &wbft_net::join(body, n), acts),
        |a, acts| a.on_timer(0, acts),
        |a| (0..instances).all(|j| a.decided(j).is_some()),
        initial,
    );
    prop_assert!(ok, "ABA did not terminate under chaos");
    for j in 0..instances {
        // Agreement: all nodes decide the same value.
        let first = nodes[0].decided(j).expect("decided");
        for node in nodes.iter() {
            prop_assert_eq!(node.decided(j), Some(first), "agreement violated on {}", j);
        }
        // Validity: unanimous inputs force that output.
        let unanimous = inputs.iter().all(|v| v[j] == inputs[0][j]);
        prop_assert!(!unanimous || first == inputs[0][j], "validity violated on {}", j);
    }
    Ok(())
}

/// Four ABA-SC nodes over one dealing, parallel (one coin per round) or
/// serial (one coin per instance and round).
fn aba_sc_nodes(seed: u64, flavor: CoinFlavor, parallel: bool, packing: Packing) -> Vec<AbaScBatch> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabba);
    deal_node_crypto(4, CryptoSuite::light(), &mut rng)
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let p = Params::new(4, i, 2).packed(packing);
            if parallel {
                AbaScBatch::new_parallel(p, flavor, c.coin_pub, c.coin_sec)
            } else {
                AbaScBatch::new_serial(p, flavor, c.coin_pub, c.coin_sec)
            }
        })
        .collect()
}

/// Each node's input to each of four instances.
fn inputs() -> impl Strategy<Value = Vec<Vec<bool>>> {
    proptest::collection::vec(proptest::collection::vec(any::<bool>(), 4), 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rbc_agreement_and_totality_under_chaos(
        seed in any::<u64>(),
        drop in 0u8..30,
        sizes in proposals(),
        packing in packing(),
    ) {
        let mut nodes: Vec<RbcBatch> =
            (0..4).map(|i| RbcBatch::new(Params::new(4, i, 1).packed(packing))).collect();
        broadcast_under_chaos(&mut nodes, seed, drop, &sizes)?;
    }

    #[test]
    fn cbc_and_prbc_deliver_every_value_under_chaos(
        seed in any::<u64>(),
        drop in 0u8..30,
        sizes in proposals(),
        packing in packing(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xcbc);
        let crypto = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        let params = |i: usize| Params::new(4, i, 3).packed(packing);
        let mut cbc: Vec<CbcBatch> = crypto
            .iter()
            .enumerate()
            .map(|(i, c)| CbcBatch::new(params(i), c.cbc_pub.clone(), c.cbc_sec.clone()))
            .collect();
        broadcast_under_chaos(&mut cbc, seed, drop, &sizes)?;
        let mut prbc: Vec<PrbcBatch> = crypto
            .into_iter()
            .enumerate()
            .map(|(i, c)| PrbcBatch::new(params(i), c.prbc_pub, c.prbc_sec))
            .collect();
        broadcast_under_chaos(&mut prbc, seed, drop, &sizes)?;
    }

    #[test]
    fn aba_agreement_and_validity_under_chaos(
        seed in any::<u64>(),
        drop in 0u8..25,
        inputs in proptest::collection::vec(any::<bool>(), 4),
    ) {
        let mut nodes = aba_sc_nodes(seed, CoinFlavor::ThreshSig, true, Packing::Combined);
        let inputs: Vec<Vec<bool>> = inputs.into_iter().map(|v| vec![v]).collect();
        agreement_under_chaos(&mut nodes, seed, drop, STEPS, &inputs, 1)?;
    }

    #[test]
    fn parallel_aba_sc_agrees_on_four_instances_under_chaos(
        seed in any::<u64>(),
        drop in 0u8..25,
        inputs in inputs(),
        packing in packing(),
    ) {
        let mut nodes = aba_sc_nodes(seed, CoinFlavor::ThreshSig, true, packing);
        let steps = match packing {
            Packing::Combined => STEPS,
            Packing::PerInstance => PER_INSTANCE_ABA_SC_STEPS,
        };
        agreement_under_chaos(&mut nodes, seed, drop, steps, &inputs, 4)?;
    }

    #[test]
    fn serial_aba_sc_agrees_under_chaos(
        seed in any::<u64>(),
        drop in 0u8..25,
        inputs in inputs(),
        packing in packing(),
    ) {
        let mut nodes = aba_sc_nodes(seed, CoinFlavor::CoinFlip, false, packing);
        agreement_under_chaos(&mut nodes, seed, drop, STEPS, &inputs, 1)?;
    }

    #[test]
    fn aba_lc_agrees_on_four_instances_under_chaos(
        seed in any::<u64>(),
        drop in 0u8..25,
        inputs in inputs(),
    ) {
        let mut nodes: Vec<AbaLcBatch> =
            (0..4).map(|i| AbaLcBatch::new(Params::new(4, i, 2))).collect();
        agreement_under_chaos(&mut nodes, seed, drop, STEPS, &inputs, 4)?;
    }

    #[test]
    fn cbc_small_delivers_every_bitmap_under_chaos(
        seed in any::<u64>(),
        drop in 0u8..30,
        bits in proptest::collection::vec(0u64..16, 4),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5a11);
        let mut nodes: Vec<CbcSmallBatch> = deal_node_crypto(4, CryptoSuite::light(), &mut rng)
            .into_iter()
            .enumerate()
            .map(|(i, c)| CbcSmallBatch::new(Params::new(4, i, 4), c.cbc_pub, c.cbc_sec))
            .collect();
        let values: Vec<Bitmap> = bits.iter().map(|b| Bitmap::from_raw(*b, 4)).collect();
        let mut initial = Vec::new();
        for (i, node) in nodes.iter_mut().enumerate() {
            let mut acts = Actions::new();
            node.start(values[i], &mut acts);
            for b in acts.drain().0 {
                initial.push((i, b));
            }
        }
        let ok = chaos_mesh(
            &mut nodes,
            seed,
            drop,
            STEPS,
            |c, from, body, acts| c.handle(from, body, acts),
            |c, acts| c.on_timer(0, acts),
            |c| c.delivered_count() == 4,
            initial,
        );
        prop_assert!(ok, "CBC-small did not complete under chaos");
        for node in &nodes {
            for (j, v) in values.iter().enumerate() {
                prop_assert_eq!(node.delivered_value(j), Some(*v), "agreement violated on {}", j);
            }
        }
    }
}
