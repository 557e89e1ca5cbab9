//! Property-based tests on component invariants: RBC, CBC and PRBC
//! delivery under both packings, and ABA agreement/validity, under
//! randomized delivery orders and message drops (the adversary's schedule).

use bytes::Bytes;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use wbft_components::aba_sc::AbaScBatch;
use wbft_components::cbc::CbcBatch;
use wbft_components::context::Packing;
use wbft_components::prbc::PrbcBatch;
use wbft_components::rbc::RbcBatch;
use wbft_components::{deal_node_crypto, Actions, BinaryAgreement, Broadcaster, Params};
use wbft_crypto::CryptoSuite;
use wbft_net::{Body, CoinFlavor};

/// Drives nodes with a randomized delivery schedule: the pending-message
/// pool is shuffled each step and a fraction of messages is dropped. Timers
/// tick when the pool drains, modelling retransmission after loss.
fn chaos_mesh<C>(
    nodes: &mut [C],
    seed: u64,
    drop_percent: u8,
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
        if rounds > 600 {
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
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabba);
        let crypto = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        let mut nodes: Vec<AbaScBatch> = crypto
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                AbaScBatch::new_parallel(
                    Params::new(4, i, 2),
                    CoinFlavor::ThreshSig,
                    c.coin_pub,
                    c.coin_sec,
                )
            })
            .collect();
        let mut initial = Vec::new();
        for (i, node) in nodes.iter_mut().enumerate() {
            let mut acts = Actions::new();
            node.set_input(0, inputs[i], &mut acts);
            for b in acts.drain().0 {
                initial.push((i, b));
            }
        }
        let ok = chaos_mesh(
            &mut nodes,
            seed,
            drop,
            |n, from, body, acts| n.handle(from, body, acts),
            |n, acts| n.on_timer(0, acts),
            |n| n.decided(0).is_some(),
            initial,
        );
        prop_assert!(ok, "ABA did not terminate under chaos");
        // Agreement: all nodes decide the same value.
        let first = nodes[0].decided(0).expect("decided");
        for node in &nodes {
            prop_assert_eq!(node.decided(0), Some(first));
        }
        // Validity: unanimous inputs force that output.
        if inputs.iter().all(|v| *v) {
            prop_assert!(first, "validity: unanimous 1 must decide 1");
        }
        if inputs.iter().all(|v| !*v) {
            prop_assert!(!first, "validity: unanimous 0 must decide 0");
        }
    }
}
