//! Property-based tests for the wire layer: arbitrary packets roundtrip,
//! nominal sizes are consistent, bitmaps behave like sets of bits, and the
//! shared open path answers exactly as the table-free one.

use bytes::Bytes;
use proptest::prelude::*;
use rand::SeedableRng;
use wbft_crypto::hash::Digest32;
use wbft_crypto::schnorr::{KeyPair, PublicKey};
use wbft_crypto::EcdsaCurve;
use wbft_net::open::{self, Stats};
use wbft_net::packets::{AbaLcInst, AbaScInst};
use wbft_net::wire::{ByteSink, CountSink, Sizing, WireReader};
use wbft_net::{open_shared, BinValues, Bitmap, Body, CoinFlavor, Envelope, Opened, Vote};

fn arb_vote() -> impl Strategy<Value = Vote> {
    (0u8..4).prop_map(Vote::from_code)
}

fn arb_bitmap(len: usize) -> impl Strategy<Value = Bitmap> {
    any::<u64>().prop_map(move |raw| Bitmap::from_raw(raw, len))
}

fn arb_digest() -> impl Strategy<Value = Digest32> {
    any::<[u8; 32]>().prop_map(Digest32)
}

fn arb_body() -> impl Strategy<Value = Body> {
    let n = 4usize;
    prop_oneof![
        // RBC INIT with arbitrary fragment payloads.
        (any::<u8>(), 0u8..4, 1u8..5, arb_digest(), any::<Vec<u8>>(), arb_bitmap(n)).prop_map(
            |(instance, frag, frag_total, root, data, init_nack)| Body::RbcInit {
                instance,
                frag: frag % frag_total,
                frag_total,
                root,
                data: Bytes::from(data),
                init_nack,
            }
        ),
        // Batched ER packets.
        (
            proptest::collection::vec(arb_digest(), n),
            arb_bitmap(n),
            arb_bitmap(n),
            arb_bitmap(n),
            arb_bitmap(n),
            arb_bitmap(n)
        )
            .prop_map(|(roots, echo, ready, echo_nack, ready_nack, init_nack)| {
                Body::RbcEchoReady { roots, echo, ready, echo_nack, ready_nack, init_nack }
            }),
        // RBC-small vote packets.
        (
            proptest::collection::vec(arb_vote(), n),
            arb_bitmap(n),
            arb_bitmap(n),
            arb_bitmap(n),
            arb_bitmap(n),
            arb_bitmap(n)
        )
            .prop_map(|(values, echo, ready, init_nack, echo_nack, ready_nack)| {
                Body::RbcSmall { values, echo, ready, init_nack, echo_nack, ready_nack }
            }),
        // Bracha-ABA report lattices.
        (
            any::<u8>(),
            any::<u16>(),
            proptest::collection::vec(arb_vote(), n),
            proptest::collection::vec(arb_vote(), n),
            proptest::collection::vec(arb_vote(), n),
            arb_vote()
        )
            .prop_map(|(instance, round, p1, p2, p3, decided)| Body::AbaLc {
                insts: vec![AbaLcInst { instance, round, reports: [p1, p2, p3], decided }],
            }),
        // Shared-coin ABA vote packets (no coin shares — covered by unit
        // tests with real group elements).
        (any::<u8>(), any::<u16>(), 0u8..4, arb_vote(), arb_vote(), arb_bitmap(n)).prop_map(
            |(instance, round, bval, aux, decided, share_nack)| Body::AbaSc {
                flavor: CoinFlavor::ThreshSig,
                insts: vec![AbaScInst {
                    instance,
                    round,
                    bval: BinValues::from_code(bval),
                    aux,
                    decided,
                }],
                coin_shares: vec![],
                share_nack,
            }
        ),
        // Baseline votes.
        (any::<u8>(), any::<u16>(), any::<bool>()).prop_map(|(i, r, v)| Body::BaseAbaBval {
            instance: i,
            round: r,
            value: v
        }),
        (any::<u64>(), arb_digest(), any::<u32>()).prop_map(|(epoch, digest, tx_count)| {
            Body::GlobalDecision { epoch, digest, tx_count }
        }),
    ]
}

/// Four signing keys per deal; two deals so a frame can meet a wrong key.
fn deal(seed: u64) -> Vec<KeyPair> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..4).map(|_| KeyPair::generate(EcdsaCurve::Secp160r1, &mut rng)).collect()
}

fn publics(deal: &[KeyPair]) -> Vec<PublicKey> {
    deal.iter().map(KeyPair::public).collect()
}

/// Asks the shared path once and checks the answer against the table-free
/// reference and the counters against `expect` (the deltas of this ask).
fn ask(frame: &Bytes, keys: &[PublicKey], expect: Stats) -> Result<(), TestCaseError> {
    let pk_of = |src: u16| keys.get(src as usize).copied();
    let reference = Envelope::open_tagged(frame, pk_of)
        .map(|(env, key_epoch, sig_ok)| Opened { env, key_epoch, sig_ok });
    let before = open::stats();
    let shared = open_shared(frame, pk_of);
    let after = open::stats();
    prop_assert_eq!(shared.as_deref(), reference.as_ref());
    let moved = Stats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        recorded: after.recorded - before.recorded,
    };
    prop_assert_eq!(moved, expect);
    Ok(())
}

const COMPUTED: Stats = Stats { hits: 0, misses: 1, recorded: 0 };
const SERVED: Stats = Stats { hits: 1, misses: 0, recorded: 0 };

/// A frame new to the table, asked twice: computed, then served when it
/// opened at all (a malformed frame is never stored, so it is computed
/// again).
fn ask_twice(frame: &Bytes, keys: &[PublicKey]) -> Result<(), TestCaseError> {
    let opens = Envelope::open_tagged(frame, |_| None).is_ok();
    ask(frame, keys, COMPUTED)?;
    ask(frame, keys, if opens { SERVED } else { COMPUTED })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn open_shared_answers_as_open_tagged_and_counts_which_path_answered(
        body in arb_body(),
        src in 0u16..4,
        session in any::<u64>(),
        tag in prop_oneof![Just(0u64), any::<u64>()],
        flip in any::<usize>(),
        cut in any::<usize>(),
    ) {
        let (ours, theirs) = (deal(1), deal(2));
        let (keys, wrong_keys) = (publics(&ours), publics(&theirs));
        let sizing = Sizing::light(4);
        let seal = |src: u16, signer: &KeyPair| {
            Envelope { src, session, body: body.clone() }.seal_tagged(signer, &sizing, tag)
        };
        let Ok((sealed, _)) = seal(src, &ours[src as usize]) else {
            return Ok(()); // an arbitrary body may not fit the wire format
        };
        open::clear();

        // A sealed frame: accepted, the second receiver is served.
        ask_twice(&sealed, &keys)?;
        // The same bytes under another key table are computed (and refused),
        // not served; going back to the first table is a computation again.
        ask(&sealed, &wrong_keys, COMPUTED)?;
        ask(&sealed, &wrong_keys, SERVED)?;
        ask(&sealed, &keys, COMPUTED)?;

        // One flipped bit: a refusal or a decode error, shared like the rest.
        let mut flipped = sealed.to_vec();
        flipped[flip % sealed.len()] ^= 1 << (flip % 8);
        ask_twice(&Bytes::from(flipped), &keys)?;
        // Truncated anywhere, down to nothing.
        ask_twice(&sealed.slice(..cut % sealed.len()), &keys)?;
        // A `src` the receiver holds no key for.
        let (unknown, _) = seal(9, &ours[0]).expect("the same body fits");
        ask_twice(&unknown, &keys)?;
    }

    #[test]
    fn bodies_roundtrip(body in arb_body()) {
        let mut sink = ByteSink::new();
        body.encode_into(&mut sink).expect("encode");
        let bytes = sink.into_bytes();
        let mut reader = WireReader::new(&bytes);
        let decoded = Body::decode(&mut reader).expect("decode");
        prop_assert_eq!(decoded, body);
        prop_assert_eq!(reader.remaining(), 0);
    }

    #[test]
    fn nominal_length_is_positive_and_stable(body in arb_body()) {
        let sizing = Sizing::light(4);
        let mut a = CountSink::new(sizing);
        body.encode_into(&mut a).expect("count encode");
        let mut b = CountSink::new(sizing);
        body.encode_into(&mut b).expect("count encode");
        prop_assert_eq!(a.total(), b.total());
        prop_assert!(a.total() > 0);
    }

    #[test]
    fn slot_keys_are_stable_and_kind_distinct(body in arb_body()) {
        prop_assert_eq!(body.slot_key(), body.slot_key());
        // Slot keys embed the packet kind in the high bits, so two bodies of
        // different variants never collide.
        let other = Body::GlobalDecision {
            epoch: 0,
            digest: Digest32::zero(),
            tx_count: 0,
        };
        if std::mem::discriminant(&body) != std::mem::discriminant(&other) {
            prop_assert_ne!(body.slot_key() >> 48, other.slot_key() >> 48);
        }
    }

    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let mut reader = WireReader::new(&bytes);
        let _ = Body::decode(&mut reader); // must return Err, not panic
    }

    #[test]
    fn bitmap_set_get_consistency(raw in any::<u64>(), len in 1usize..=64) {
        let b = Bitmap::from_raw(raw, len);
        let count = (0..len).filter(|&i| b.get(i)).count();
        prop_assert_eq!(count, b.count());
        let mut rebuilt = Bitmap::new(len);
        for i in b.iter_set() {
            rebuilt.set(i, true);
        }
        prop_assert_eq!(rebuilt, b);
    }

    #[test]
    fn bitmap_union_is_commutative(a in any::<u64>(), b in any::<u64>(), len in 1usize..=64) {
        let x = Bitmap::from_raw(a, len);
        let y = Bitmap::from_raw(b, len);
        prop_assert_eq!(x.union(&y), y.union(&x));
        prop_assert!(x.union(&y).count() >= x.count().max(y.count()));
    }
}
