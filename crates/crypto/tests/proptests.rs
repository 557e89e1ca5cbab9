//! Property-based tests for the algebraic core: field axioms, Shamir
//! reconstruction, signature soundness, encryption roundtrips.

use proptest::prelude::*;
use rand::SeedableRng;
use wbft_crypto::field::{Fe, Scalar};
use wbft_crypto::group::GroupElem;
use wbft_crypto::memo::{self, Predicate};
use wbft_crypto::merkle::MerkleTree;
use wbft_crypto::schnorr::KeyPair;
use wbft_crypto::shamir::{reconstruct_secret, Polynomial, ShareIndex};
use wbft_crypto::{reshare, thresh_coin, thresh_enc, thresh_sig, ThresholdCurve};

fn arb_fe() -> impl Strategy<Value = Fe> {
    any::<[u8; 32]>().prop_map(|b| Fe::from_bytes_reduced(&b))
}

fn arb_scalar() -> impl Strategy<Value = Scalar> {
    any::<[u8; 32]>().prop_map(|b| Scalar::from_bytes_reduced(&b))
}

/// A memoized predicate's uncached reference, the one way there is to get
/// it: forget every verdict, then ask — the answer is computed. Asking
/// again is answered from the table. Returns both, with the counters
/// checked so that each really took the path it is named after
/// (`consulted` is false where the predicate rejects before it gets to the
/// memo, e.g. an out-of-range index).
fn computed_then_repeated(p: Predicate, consulted: bool, check: impl Fn() -> bool) -> (bool, bool) {
    memo::clear();
    let computed = check();
    let repeated = check();
    let expect = u64::from(consulted);
    assert_eq!(memo::stats(p), memo::Stats { hits: expect, misses: expect, recorded: 0 });
    (computed, repeated)
}

/// The non-canonical encoding `x + p` of a group element `x < p` (it fits:
/// `p` has 255 bits).
fn plus_modulus(canonical: &[u8; 32]) -> [u8; 32] {
    let mut out = [0u8; 32];
    let mut carry = 0u16;
    for (i, byte) in out.iter_mut().enumerate() {
        let m = (Fe::MODULUS[i / 8] >> (8 * (i % 8))) as u8;
        let sum = canonical[i] as u16 + m as u16 + carry;
        *byte = sum as u8;
        carry = sum >> 8;
    }
    assert_eq!(carry, 0);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fe_addition_commutes(a in arb_fe(), b in arb_fe()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn fe_addition_associates(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn fe_multiplication_commutes(a in arb_fe(), b in arb_fe()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn fe_multiplication_associates(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn fe_distributive_law(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn fe_sub_is_add_inverse(a in arb_fe(), b in arb_fe()) {
        prop_assert_eq!((a - b) + b, a);
    }

    #[test]
    fn fe_inverse_roundtrip(a in arb_fe()) {
        if let Some(inv) = a.invert() {
            prop_assert_eq!(a * inv, Fe::ONE);
        } else {
            prop_assert!(a.is_zero());
        }
    }

    #[test]
    fn fe_bytes_roundtrip(a in arb_fe()) {
        prop_assert_eq!(Fe::from_bytes_reduced(&a.to_bytes()), a);
    }

    #[test]
    fn scalar_field_axioms(a in arb_scalar(), b in arb_scalar(), c in arb_scalar()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!((a - b) + b, a);
        if let Some(inv) = a.invert() {
            prop_assert_eq!(a * inv, Scalar::ONE);
        }
    }

    #[test]
    fn square_matches_mul(a in arb_fe()) {
        prop_assert_eq!(a.square(), a * a);
    }

    #[test]
    fn group_exponent_homomorphism(a in arb_scalar(), b in arb_scalar()) {
        let g = GroupElem::generator();
        prop_assert_eq!(g.pow(&a).mul(&g.pow(&b)), g.pow(&a.add(&b)));
    }

    #[test]
    fn shamir_reconstructs_from_any_quorum(
        secret_seed in any::<u64>(),
        degree in 1usize..4,
        seed in any::<u64>(),
        pick in any::<[u8; 8]>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 3 * degree + 1;
        let secret = Scalar::from_u64(secret_seed);
        let poly = Polynomial::random(secret, degree, &mut rng);
        let mut shares: Vec<_> = (0..n)
            .map(|i| {
                let idx = ShareIndex::for_node(i);
                (idx, poly.share(idx))
            })
            .collect();
        // Rotate deterministically from `pick` to choose an arbitrary quorum.
        let rot = (u64::from_le_bytes(pick) as usize) % n;
        shares.rotate_left(rot);
        let got = reconstruct_secret(&shares[..degree + 1], degree).unwrap();
        prop_assert_eq!(got, secret);
    }

    #[test]
    fn threshold_signature_quorum_independence(seed in any::<u64>(), msg in any::<Vec<u8>>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (public, secrets) = thresh_sig::deal(4, 1, ThresholdCurve::Bn158, &mut rng);
        let shares: Vec<_> = secrets.iter().map(|s| s.sign_share(&msg)).collect();
        let s1 = public.combine(&[shares[0], shares[1]]).unwrap();
        let s2 = public.combine(&[shares[2], shares[3]]).unwrap();
        prop_assert_eq!(s1, s2);
        prop_assert!(public.verify(&msg, &s1).is_ok());
    }

    #[test]
    fn coin_agreement_across_quorums(seed in any::<u64>(), round in any::<u32>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (public, secrets) = thresh_coin::deal_coin(4, 1, ThresholdCurve::Bn158, &mut rng);
        let name = thresh_coin::CoinName { session: seed, round, domain: 0 };
        let shares: Vec<_> = secrets.iter().map(|s| s.coin_share(name)).collect();
        let v1 = public.combine_value(name, &[shares[0], shares[3]]).unwrap();
        let v2 = public.combine_value(name, &[shares[1], shares[2]]).unwrap();
        prop_assert_eq!(v1, v2);
    }

    #[test]
    fn threshold_encryption_roundtrip(seed in any::<u64>(), pt in any::<Vec<u8>>(), label in any::<Vec<u8>>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (public, secrets) = thresh_enc::deal_enc(4, 1, ThresholdCurve::Bn158, &mut rng);
        let ct = public.encrypt(&label, &pt, &mut rng);
        let shares: Vec<_> = secrets[1..3].iter().map(|s| s.dec_share(&ct)).collect();
        prop_assert_eq!(public.decrypt(&label, &ct, &shares).unwrap(), pt);
    }

    #[test]
    fn merkle_proofs_verify(leaf_count in 1usize..12, data in any::<Vec<u8>>()) {
        let leaves: Vec<Vec<u8>> = (0..leaf_count)
            .map(|i| {
                let mut l = data.clone();
                l.push(i as u8);
                l
            })
            .collect();
        let tree = MerkleTree::build(&leaves);
        for (i, leaf) in leaves.iter().enumerate() {
            prop_assert!(tree.proof(i).verify(&tree.root(), leaf));
        }
    }

    #[test]
    fn schnorr_never_verifies_cross_message(seed in any::<u64>(), m1 in any::<Vec<u8>>(), m2 in any::<Vec<u8>>()) {
        prop_assume!(m1 != m2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let kp = wbft_crypto::schnorr::KeyPair::generate(wbft_crypto::EcdsaCurve::Secp160r1, &mut rng);
        let sig = kp.sign(&m1);
        prop_assert!(kp.public().verify(&m1, &sig).is_ok());
        prop_assert!(kp.public().verify(&m2, &sig).is_err());
    }

    // ---------------------------------------------------------- fast paths

    #[test]
    fn multi_pow_equals_naive_product(seed in any::<u64>(), k in 1usize..=32) {
        // Covers both the Straus (< 16 bases) and Pippenger (>= 16) paths.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pairs: Vec<(GroupElem, Scalar)> = (0..k)
            .map(|_| {
                (GroupElem::from_exponent(&Scalar::random(&mut rng)), Scalar::random(&mut rng))
            })
            .collect();
        let naive = pairs
            .iter()
            .fold(GroupElem::identity(), |acc, (b, e)| acc.mul(&b.pow(e)));
        prop_assert_eq!(GroupElem::multi_pow(&pairs), naive);
    }

    #[test]
    fn multi_pow_equals_naive_with_small_exponents(seed in any::<u64>(), k in 1usize..=20, exps in prop::collection::vec(any::<u64>(), 20)) {
        // Short exponents exercise the leading-zero-window skip.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pairs: Vec<(GroupElem, Scalar)> = exps[..k]
            .iter()
            .map(|e| {
                (GroupElem::from_exponent(&Scalar::random(&mut rng)), Scalar::from_u64(*e))
            })
            .collect();
        let naive = pairs
            .iter()
            .fold(GroupElem::identity(), |acc, (b, e)| acc.mul(&b.pow(e)));
        prop_assert_eq!(GroupElem::multi_pow(&pairs), naive);
    }

    #[test]
    fn batch_verify_accepts_iff_every_share_verifies(
        seed in any::<u64>(),
        // For each of the 7 dealt shares: keep / tamper / wrong message /
        // drop, plus optional duplication of the first kept share.
        ops in prop::collection::vec(0u8..4, 7),
        dup in any::<bool>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (pks, sks) = thresh_sig::deal(7, 2, ThresholdCurve::Bn158, &mut rng);
        let msg = b"prop-batch";
        let mut batch = Vec::new();
        for (sk, op) in sks.iter().zip(&ops) {
            let mut share = sk.sign_share(msg);
            match op {
                0 => {}
                1 => share.value = share.value.mul(&GroupElem::generator()),
                2 => share = sk.sign_share(b"prop-batch-other"),
                _ => continue, // dropped from the batch
            }
            batch.push(share);
        }
        if dup {
            if let Some(first) = batch.first().copied() {
                batch.push(first); // duplicate index, same value
            }
        }
        let per_share_ok = batch.iter().all(|s| pks.verify_share(msg, s).is_ok());
        prop_assert_eq!(pks.verify_shares(msg, &batch).is_ok(), per_share_ok);
        // The positions reported invalid are exactly the per-share failures.
        let pm = pks.prepare(msg);
        let expected: Vec<usize> = batch
            .iter()
            .enumerate()
            .filter(|(_, s)| pks.verify_share(msg, s).is_err())
            .map(|(p, _)| p)
            .collect();
        prop_assert_eq!(pks.invalid_share_positions(&pm, &batch), expected);
    }

    #[test]
    fn coin_batch_verify_matches_per_share(seed in any::<u64>(), tamper in prop::collection::vec(any::<bool>(), 4)) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (cpub, csec) = thresh_coin::deal_coin(4, 1, ThresholdCurve::Bn158, &mut rng);
        let name = thresh_coin::CoinName { session: seed, round: 1, domain: 0 };
        let batch: Vec<_> = csec
            .iter()
            .zip(&tamper)
            .map(|(s, t)| {
                let mut share = s.coin_share(name);
                if *t {
                    share.value = share.value.mul(&GroupElem::generator());
                }
                share
            })
            .collect();
        let per_share_ok = batch.iter().all(|s| cpub.verify_shares(name, &[*s]).is_ok());
        prop_assert_eq!(cpub.verify_shares(name, &batch).is_ok(), per_share_ok);
    }

    // --------------------------------------------- verdict memo ≡ reference

    #[test]
    fn subgroup_verdict_equals_euler_criterion(bytes in any::<[u8; 32]>(), e in arb_scalar()) {
        // Arbitrary bytes (mostly non-members and non-canonical), a member,
        // and the member's non-canonical twin.
        let member = GroupElem::from_exponent(&e).to_bytes();
        for b in [bytes, member, plus_modulus(&member)] {
            let fe = Fe::from_bytes_reduced(&b);
            let (computed, repeated) = computed_then_repeated(
                Predicate::Subgroup,
                !fe.is_zero(),
                || GroupElem::from_bytes(&b).is_ok(),
            );
            prop_assert_eq!(computed, fe.is_in_subgroup());
            prop_assert_eq!(repeated, computed);
        }
        prop_assert_eq!(GroupElem::from_bytes(&plus_modulus(&member)), GroupElem::from_bytes(&member));
    }

    #[test]
    fn schnorr_verdict_equals_reference(seed in any::<u64>(), msg in any::<Vec<u8>>(), tamper in 0u8..5) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(wbft_crypto::EcdsaCurve::Secp160r1, &mut rng);
        let other = KeyPair::generate(wbft_crypto::EcdsaCurve::Secp160r1, &mut rng);
        let mut sig = kp.sign(&msg);
        let mut signed = msg.clone();
        let mut pk = kp.public();
        match tamper {
            0 => {}
            1 => sig.r = sig.r.mul(&GroupElem::generator()),
            2 => sig.z = sig.z.add(&Scalar::ONE),
            3 => signed.push(0),
            _ => pk = other.public(),
        }
        let (computed, repeated) =
            computed_then_repeated(Predicate::Schnorr, true, || pk.verify(&signed, &sig).is_ok());
        prop_assert_eq!(computed, tamper == 0);
        prop_assert_eq!(repeated, computed);
    }

    #[test]
    fn dleq_verdict_equals_reference(seed in any::<u64>(), pt in any::<Vec<u8>>(), tamper in 0u8..8) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (public, secrets) = thresh_enc::deal_enc(4, 1, ThresholdCurve::Bn158, &mut rng);
        let (other_deal, _) = thresh_enc::deal_enc(4, 1, ThresholdCurve::Bn158, &mut rng);
        let ct = public.encrypt(b"A", &pt, &mut rng);
        let mut against = ct.clone();
        let mut keys = &public;
        let mut share = secrets[1].dec_share(&ct);
        match tamper {
            0 => {}
            1 => share.value = share.value.mul(&GroupElem::generator()),
            2 => share.proof.c = share.proof.c.add(&Scalar::ONE),
            3 => share.proof.z = share.proof.z.add(&Scalar::ONE),
            4 => share.index = ShareIndex::for_node(2),
            5 => share.index = ShareIndex::new(9).unwrap(),
            6 => against = public.encrypt(b"B", &pt, &mut rng),
            _ => keys = &other_deal,
        }
        let (computed, repeated) = computed_then_repeated(
            Predicate::Dleq,
            tamper != 5,
            || keys.verify_share(&against, &share).is_ok(),
        );
        prop_assert_eq!(computed, tamper == 0);
        prop_assert_eq!(repeated, computed);
    }

    #[test]
    fn threshold_signature_verdict_equals_reference(seed in any::<u64>(), msg in any::<Vec<u8>>(), tamper in 0u8..4) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (public, secrets) = thresh_sig::deal(4, 1, ThresholdCurve::Bn158, &mut rng);
        let (other_deal, _) = thresh_sig::deal(4, 1, ThresholdCurve::Bn158, &mut rng);
        let shares: Vec<_> = secrets[..2].iter().map(|s| s.sign_share(&msg)).collect();
        let mut sig = public.combine(&shares).unwrap();
        let mut signed = msg.clone();
        let mut keys = &public;
        match tamper {
            0 => {}
            1 => sig.value = sig.value.mul(&GroupElem::generator()),
            2 => signed.push(0),
            _ => keys = &other_deal,
        }
        let (computed, repeated) = computed_then_repeated(
            Predicate::ThreshSig,
            true,
            || keys.verify(&signed, &sig).is_ok(),
        );
        prop_assert_eq!(computed, tamper == 0);
        prop_assert_eq!(repeated, computed);
    }

    #[test]
    fn two_deals_on_one_thread_never_share_a_verdict(seed in any::<u64>(), msg in any::<Vec<u8>>()) {
        // Same messages, same thread, one warm table: what deal A's keys
        // accepted must not be answered "valid" under deal B's, in either
        // order of asking, and asking B must not disturb A's answer.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        memo::clear();

        let kp = [0, 1].map(|_| KeyPair::generate(wbft_crypto::EcdsaCurve::Secp160r1, &mut rng));
        let sigs = [kp[0].sign(&msg), kp[1].sign(&msg)];
        let ts = [0, 1].map(|_| thresh_sig::deal(4, 1, ThresholdCurve::Bn158, &mut rng));
        let tsigs = [0, 1].map(|d| {
            let shares: Vec<_> = ts[d].1[..2].iter().map(|s| s.sign_share(&msg)).collect();
            ts[d].0.combine(&shares).unwrap()
        });
        let enc = [0, 1].map(|_| thresh_enc::deal_enc(4, 1, ThresholdCurve::Bn158, &mut rng));
        // One ciphertext point for both deals: the statement differs only
        // in the verification key.
        let ct = enc[0].0.encrypt(b"l", &msg, &mut rng);
        let dshares = [enc[0].1[0].dec_share(&ct), enc[1].1[0].dec_share(&ct)];

        for _pass in 0..2 {
            for keys in [0usize, 1] {
                for proof in [0usize, 1] {
                    let own = keys == proof;
                    prop_assert_eq!(kp[keys].public().verify(&msg, &sigs[proof]).is_ok(), own);
                    prop_assert_eq!(ts[keys].0.verify(&msg, &tsigs[proof]).is_ok(), own);
                    prop_assert_eq!(enc[keys].0.verify_share(&ct, &dshares[proof]).is_ok(), own);
                }
            }
        }
        // 4 distinct questions per predicate, the second pass all hits. The
        // two signers and the two decryption-share producers recorded their
        // own proof's verdict, so only the cross-deal Schnorr and DLEQ
        // questions were ever computed.
        prop_assert_eq!(
            memo::stats(Predicate::ThreshSig),
            memo::Stats { hits: 4, misses: 4, recorded: 0 }
        );
        for p in [Predicate::Schnorr, Predicate::Dleq] {
            prop_assert_eq!(memo::stats(p), memo::Stats { hits: 6, misses: 2, recorded: 2 });
        }
    }

    #[test]
    fn a_recorded_verdict_equals_the_computed_one(seed in any::<u64>(), msg in any::<Vec<u8>>()) {
        // What a producer writes into the table is what a verifier would
        // have computed: ask with the record present (a hit), forget
        // everything, ask again (computed) — same answer. A proof altered
        // after it was made is not covered by its producer's record.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(wbft_crypto::EcdsaCurve::Secp160r1, &mut rng);
        let (_, sig_secrets) = thresh_sig::deal(4, 1, ThresholdCurve::Bn158, &mut rng);
        let (_, coin_secrets) = thresh_coin::deal_coin(4, 1, ThresholdCurve::Bn158, &mut rng);
        let (enc, enc_secrets) = thresh_enc::deal_enc(4, 1, ThresholdCurve::Bn158, &mut rng);
        let ct = enc.encrypt(b"l", &msg, &mut rng);
        let name = thresh_coin::CoinName { session: seed, round: 1, domain: 0 };

        memo::clear();
        let sig = kp.sign(&msg);
        let dshare = enc_secrets[2].dec_share(&ct);
        let members = [
            sig.r,
            sig_secrets[0].sign_share(&msg).value,
            coin_secrets[1].coin_share(name).value,
            dshare.value,
        ];
        let mut tampered = sig;
        tampered.z = tampered.z.add(&Scalar::ONE);
        let mut tampered_dshare = dshare;
        tampered_dshare.proof.z = tampered_dshare.proof.z.add(&Scalar::ONE);
        let ask = || {
            (
                [&sig, &tampered].map(|s| kp.public().verify(&msg, s).is_ok()),
                [&dshare, &tampered_dshare].map(|d| enc.verify_share(&ct, d).is_ok()),
                members.map(|m| GroupElem::from_bytes(&m.to_bytes()).is_ok()),
            )
        };
        let expected = ([true, false], [true, false], [true; 4]);

        prop_assert_eq!(ask(), expected);
        for p in [Predicate::Schnorr, Predicate::Dleq] {
            prop_assert_eq!(memo::stats(p), memo::Stats { hits: 1, misses: 1, recorded: 1 });
        }
        prop_assert_eq!(
            memo::stats(Predicate::Subgroup),
            memo::Stats { hits: 4, misses: 0, recorded: 4 }
        );

        memo::clear();
        prop_assert_eq!(ask(), expected);
        for p in [Predicate::Schnorr, Predicate::Dleq] {
            prop_assert_eq!(memo::stats(p), memo::Stats { hits: 0, misses: 2, recorded: 0 });
        }
        prop_assert_eq!(
            memo::stats(Predicate::Subgroup),
            memo::Stats { hits: 0, misses: 4, recorded: 0 }
        );
    }

    // ---------------------------------------------------------- resharing

    #[test]
    fn resharing_preserves_the_secret_for_random_shapes(
        seed in any::<u64>(),
        t_old in 1usize..4,
        t_new in 1usize..4,
        extra_dealers in 0usize..3,
        rot in any::<u8>(),
    ) {
        // Random old/new thresholds, a rotated dealer subset of size
        // t_old + 1 + extra, and a shifted new index set: the interpolated
        // shares must reconstruct the original secret.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n_old = 3 * t_old + 1;
        let secret = Scalar::random(&mut rng);
        let poly = Polynomial::random(secret, t_old, &mut rng);
        let mut old: Vec<(ShareIndex, Scalar)> = (0..n_old)
            .map(|i| {
                let idx = ShareIndex::for_node(i);
                (idx, poly.share(idx))
            })
            .collect();
        old.rotate_left((rot as usize) % n_old);
        let dealer_count = (t_old + 1 + extra_dealers).min(n_old);
        let n_new = 3 * t_new + 1;
        let new_indices: Vec<ShareIndex> = (0..n_new).map(ShareIndex::for_node).collect();
        let dealings: Vec<reshare::ReshareDealing> = old[..dealer_count]
            .iter()
            .map(|(idx, s)| {
                let d = reshare::ReshareDealing::deal(*s, *idx, &new_indices, t_new, &mut rng);
                d.verify(&GroupElem::from_exponent(s)).unwrap();
                d
            })
            .collect();
        let refs: Vec<&reshare::ReshareDealing> = dealings.iter().collect();
        prop_assert_eq!(
            reshare::derive_group_key(&refs).unwrap(),
            GroupElem::from_exponent(&secret)
        );
        let new_shares: Vec<(ShareIndex, Scalar)> = new_indices
            .iter()
            .map(|&j| (j, reshare::combine_subshares(&refs, j).unwrap()))
            .collect();
        let got = reconstruct_secret(&new_shares[..t_new + 1], t_new).unwrap();
        prop_assert_eq!(got, secret);
        // Publicly derived vk shares match the interpolated secrets.
        for (j, s) in &new_shares {
            prop_assert_eq!(
                reshare::derive_vk_share(&refs, *j).unwrap(),
                GroupElem::from_exponent(s)
            );
        }
    }

    #[test]
    fn post_reshare_signatures_verify_under_the_genesis_vk(seed in any::<u64>(), msg in any::<Vec<u8>>()) {
        // Roll a (f, n) signature key set to a fresh committee and combine
        // a signature from the *new* shares: the genesis PublicKeySet must
        // accept it unchanged.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (genesis, old_secrets) = thresh_sig::deal(4, 1, ThresholdCurve::Bn158, &mut rng);
        let new_indices: Vec<ShareIndex> = (0..4).map(ShareIndex::for_node).collect();
        let dealings: Vec<reshare::ReshareDealing> = old_secrets[1..4]
            .iter()
            .map(|sk| {
                reshare::ReshareDealing::deal(
                    sk.secret_scalar(),
                    sk.index(),
                    &new_indices,
                    1,
                    &mut rng,
                )
            })
            .collect();
        let refs: Vec<&reshare::ReshareDealing> = dealings.iter().collect();
        let new_sks: Vec<_> = new_indices
            .iter()
            .map(|&j| {
                thresh_sig::SecretKeyShare::from_parts(
                    j,
                    reshare::combine_subshares(&refs, j).unwrap(),
                    ThresholdCurve::Bn158,
                )
            })
            .collect();
        let new_vk_shares: Vec<GroupElem> = new_indices
            .iter()
            .map(|&j| reshare::derive_vk_share(&refs, j).unwrap())
            .collect();
        let rolled = thresh_sig::PublicKeySet::from_parts(
            ThresholdCurve::Bn158,
            1,
            genesis.group_key(),
            new_vk_shares,
        );
        let shares: Vec<_> = new_sks.iter().map(|sk| sk.sign_share(&msg)).collect();
        for s in &shares {
            prop_assert!(rolled.verify_share(&msg, s).is_ok());
        }
        let sig = rolled.combine(&shares[2..4]).unwrap();
        prop_assert!(genesis.verify(&msg, &sig).is_ok());
        // An old share combined under the rolled set is caught.
        let stale = old_secrets[0].sign_share(&msg);
        prop_assert!(rolled.verify_share(&msg, &stale).is_err());
    }

    #[test]
    fn post_reshare_coins_keep_their_values(seed in any::<u64>(), round in any::<u32>()) {
        // Coin values are a pure function of the shared secret, so a rolled
        // committee must flip exactly the same coins.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (genesis, old_secrets) = thresh_coin::deal_coin(4, 1, ThresholdCurve::Bn158, &mut rng);
        let name = thresh_coin::CoinName { session: seed, round, domain: 0 };
        let before = genesis
            .combine_value(name, &[old_secrets[0].coin_share(name), old_secrets[1].coin_share(name)])
            .unwrap();
        let new_indices: Vec<ShareIndex> = (0..4).map(ShareIndex::for_node).collect();
        let dealings: Vec<reshare::ReshareDealing> = old_secrets[..2]
            .iter()
            .map(|sk| {
                reshare::ReshareDealing::deal(
                    sk.secret_scalar(),
                    sk.index(),
                    &new_indices,
                    1,
                    &mut rng,
                )
            })
            .collect();
        let refs: Vec<&reshare::ReshareDealing> = dealings.iter().collect();
        let rolled_pub = thresh_coin::CoinPublicSet::from_parts(
            ThresholdCurve::Bn158,
            1,
            genesis.keys().group_key(),
            new_indices.iter().map(|&j| reshare::derive_vk_share(&refs, j).unwrap()).collect(),
        );
        let rolled_secs: Vec<_> = new_indices
            .iter()
            .map(|&j| {
                thresh_sig::SecretKeyShare::from_parts(
                    j,
                    reshare::combine_subshares(&refs, j).unwrap(),
                    ThresholdCurve::Bn158,
                )
            })
            .collect();
        let after = rolled_pub
            .combine_value(name, &[rolled_secs[2].coin_share(name), rolled_secs[3].coin_share(name)])
            .unwrap();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn dec_share_binds_to_its_ciphertext(seed in any::<u64>(), pt in any::<Vec<u8>>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (public, secrets) = thresh_enc::deal_enc(4, 1, ThresholdCurve::Bn158, &mut rng);
        let ct_a = public.encrypt(b"A", &pt, &mut rng);
        let ct_b = public.encrypt(b"B", &pt, &mut rng);
        let share = secrets[0].dec_share(&ct_a);
        prop_assert!(public.verify_share(&ct_a, &share).is_ok());
        prop_assert!(public.verify_share(&ct_b, &share).is_err());
    }
}

/// Every memoized predicate, on a valid and a tampered input, asked before
/// and after the table filled up and was cleared wholesale: the verdicts
/// are recomputed and come out the same.
#[test]
fn verdicts_are_the_same_across_a_clear_when_full() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let msg = b"clear-when-full".to_vec();
    let kp = KeyPair::generate(wbft_crypto::EcdsaCurve::Secp160r1, &mut rng);
    let sig = kp.sign(&msg);
    let mut bad_sig = sig;
    bad_sig.z = bad_sig.z.add(&Scalar::ONE);
    let (tpub, tsec) = thresh_sig::deal(4, 1, ThresholdCurve::Bn158, &mut rng);
    let tsig = tpub
        .combine(&tsec[..2].iter().map(|s| s.sign_share(&msg)).collect::<Vec<_>>())
        .unwrap();
    let (epub, esec) = thresh_enc::deal_enc(4, 1, ThresholdCurve::Bn158, &mut rng);
    let ct = epub.encrypt(b"l", &msg, &mut rng);
    let dshare = esec[2].dec_share(&ct);
    let mut bad_dshare = dshare;
    bad_dshare.value = bad_dshare.value.mul(&GroupElem::generator());
    let member = GroupElem::from_exponent(&Scalar::from_u64(77)).to_bytes();
    let non_member = {
        // The first small value that is not a quadratic residue.
        let fe = (2u64..).map(Fe::from_u64).find(|fe| !fe.is_in_subgroup()).unwrap();
        fe.to_bytes()
    };
    let ask = || {
        vec![
            kp.public().verify(&msg, &sig).is_ok(),
            kp.public().verify(&msg, &bad_sig).is_ok(),
            tpub.verify(&msg, &tsig).is_ok(),
            tpub.verify(b"other", &tsig).is_ok(),
            epub.verify_share(&ct, &dshare).is_ok(),
            epub.verify_share(&ct, &bad_dshare).is_ok(),
            GroupElem::from_bytes(&member).is_ok(),
            GroupElem::from_bytes(&non_member).is_ok(),
        ]
    };
    let expected = vec![true, false, true, false, true, false, true, false];

    memo::clear();
    assert_eq!(ask(), expected, "computed");
    assert_eq!(ask(), expected, "from the table");
    let schnorr_before = memo::stats(Predicate::Schnorr);
    assert_eq!(schnorr_before, memo::Stats { hits: 2, misses: 2, recorded: 0 });
    // CAP more distinct entries: the table fills, is cleared, and the
    // eight verdicts above go with it.
    for i in 0..memo::CAP as u64 {
        let x = GroupElem::from_exponent(&Scalar::from_u64(1_000 + i));
        assert!(GroupElem::from_bytes(&x.to_bytes()).is_ok());
    }
    assert_eq!(ask(), expected, "recomputed after the clear");
    assert_eq!(
        memo::stats(Predicate::Schnorr),
        memo::Stats { hits: 2, misses: 4, recorded: 0 }
    );
    assert_eq!(ask(), expected, "from the table again");
}
