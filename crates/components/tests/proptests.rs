//! Property-based tests on component invariants: RBC agreement/totality and
//! ABA agreement/validity under randomized delivery orders and message
//! drops (the adversary's schedule).

use bytes::Bytes;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use wbft_components::aba_sc::AbaScBatch;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rbc_agreement_and_totality_under_chaos(
        seed in any::<u64>(),
        drop in 0u8..30,
        sizes in proptest::collection::vec(1usize..400, 4),
    ) {
        let mut nodes: Vec<RbcBatch> =
            (0..4).map(|i| RbcBatch::new(Params::new(4, i, 1))).collect();
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
            &mut nodes,
            seed,
            drop,
            |n, from, body, acts| n.handle(from, body, acts),
            |n, acts| n.on_timer(0, acts),
            |n| n.delivered_count() == 4,
            initial,
        );
        prop_assert!(ok, "RBC did not complete under chaos");
        for node in &nodes {
            for (j, v) in values.iter().enumerate() {
                prop_assert_eq!(node.delivered(j), Some(v), "totality/agreement violated");
            }
        }
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
