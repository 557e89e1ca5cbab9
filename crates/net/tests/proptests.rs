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
use std::collections::{BTreeMap, BTreeSet};
use wbft_crypto::thresh_enc::DecShare;
use wbft_crypto::thresh_sig::{SigShare, ThresholdSignature};
use wbft_net::{
    join, open_shared, split, BinValues, Bitmap, Body, CoinFlavor, Envelope, FrameNack, InitNack,
    Opened, Vote,
};

fn arb_vote() -> impl Strategy<Value = Vote> {
    (0u8..4).prop_map(Vote::from_code)
}

fn arb_bitmap(len: usize) -> impl Strategy<Value = Bitmap> {
    any::<u64>().prop_map(move |raw| Bitmap::from_raw(raw, len))
}

/// A fragment request: empty (all fragments) or up to eight fragments.
fn arb_request() -> impl Strategy<Value = Bitmap> {
    (0usize..=8, any::<u64>()).prop_map(|(len, raw)| Bitmap::from_raw(raw, len))
}

/// An INITIAL NACK over `n` instances, each NACKed one with a request.
fn arb_init_nack(n: usize) -> impl Strategy<Value = InitNack> {
    (arb_bitmap(n), proptest::collection::vec(arb_request(), n)).prop_map(move |(nacked, requests)| {
        let mut nack = InitNack::new(n);
        for j in nacked.iter_set() {
            nack.ask(j, requests[j]);
        }
        nack
    })
}

/// A per-instance frame's NACK bits, with a request when bit 2 is set.
fn arb_frame_nack() -> impl Strategy<Value = FrameNack> {
    (any::<u8>(), arb_request()).prop_map(|(bits, request)| FrameNack::new(bits, request))
}

fn arb_digest() -> impl Strategy<Value = Digest32> {
    any::<[u8; 32]>().prop_map(Digest32)
}

fn arb_body() -> impl Strategy<Value = Body> {
    let n = 4usize;
    prop_oneof![
        // RBC INIT with arbitrary fragment payloads.
        (any::<u8>(), 0u8..4, 1u8..5, arb_digest(), any::<Vec<u8>>(), arb_init_nack(n)).prop_map(
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
            arb_init_nack(n)
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
        // Per-instance frames.
        (any::<u8>(), any::<u16>(), 0u8..4, arb_vote(), arb_vote()).prop_map(
            |(instance, round, bval, aux, decided)| Body::BaseAbaVote {
                flavor: CoinFlavor::CoinFlip,
                inst: AbaScInst { instance, round, bval: BinValues::from_code(bval), aux, decided },
            }
        ),
        (any::<u8>(), arb_digest(), arb_frame_nack())
            .prop_map(|(instance, root, nack)| Body::BaseRbcReady { instance, root, nack }),
        (any::<u64>(), arb_digest(), any::<u32>()).prop_map(|(epoch, digest, tx_count)| {
            Body::GlobalDecision { epoch, digest, tx_count }
        }),
    ]
}

/// One real share, certificate, coin share and decryption share: which
/// instances carry one is what the split properties vary.
#[derive(Clone, Copy, Debug)]
struct Material {
    share: SigShare,
    sig: ThresholdSignature,
    coin: SigShare,
    dec: DecShare,
}

fn material() -> Material {
    use wbft_crypto::ThresholdCurve::Bn158;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let (pks, sks) = wbft_crypto::thresh_sig::deal(4, 1, Bn158, &mut rng);
    let share = sks[0].sign_share(b"m");
    let sig = pks.combine(&[share, sks[1].sign_share(b"m")]).expect("two shares combine");
    let (_, coins) = wbft_crypto::thresh_coin::deal_coin(4, 1, Bn158, &mut rng);
    let coin = coins[2].coin_share(wbft_crypto::thresh_coin::CoinName { session: 1, round: 0, domain: 0 });
    let (enc, decs) = wbft_crypto::thresh_enc::deal_enc(4, 1, Bn158, &mut rng);
    let dec = decs[3].dec_share(&enc.encrypt(b"l", b"pt", &mut rng));
    Material { share, sig, coin, dec }
}

/// Instances `0..4` picked by the low bits of `mask`, paired with `item`.
fn pick<T: Copy>(mask: u8, item: T) -> Vec<(u8, T)> {
    (0..4u8).filter(|j| mask >> j & 1 == 1).map(|j| (j, item)).collect()
}

/// A combined body of every kind the baseline packaging splits, at n = 4.
fn arb_combined() -> impl Strategy<Value = Body> {
    let n = 4usize;
    let m = material();
    let roots = || proptest::collection::vec(prop_oneof![Just(Digest32::zero()), arb_digest()], n);
    let bitmaps = || (arb_bitmap(n), arb_bitmap(n), arb_init_nack(n));
    prop_oneof![
        (roots(), arb_bitmap(n), arb_bitmap(n), bitmaps()).prop_map(
            |(roots, echo, ready, (echo_nack, ready_nack, init_nack))| Body::RbcEchoReady {
                roots, echo, ready, echo_nack, ready_nack, init_nack
            }
        ),
        (proptest::collection::vec(arb_digest(), n), any::<u8>(), any::<u8>(), bitmaps()).prop_map(
            move |(roots, shares, sigs, (echo_nack, finish_nack, init_nack))| Body::CbcEchoFinish {
                echo_shares: pick(shares, m.share),
                finish_sigs: pick(sigs, m.sig)
                    .into_iter()
                    .map(|(j, sig)| (j, roots[usize::from(j)], sig))
                    .collect(),
                echo_nack,
                finish_nack,
                init_nack,
            }
        ),
        (any::<u8>(), any::<u8>(), arb_bitmap(n)).prop_map(
            move |(shares, proofs, sig_nack)| Body::PrbcDone {
                shares: pick(shares, m.share),
                proofs: pick(proofs, m.sig),
                sig_nack,
            }
        ),
        (
            proptest::collection::vec(((0u8..4, 0u16..8), (0u8..4, arb_vote(), arb_vote())), 0..8),
            proptest::collection::vec((0u16..4, 0u16..256), 0..4),
            any::<bool>(),
            arb_bitmap(n)
        )
            .prop_map(move |(entries, coins, flip, share_nack)| Body::AbaSc {
                flavor: if flip { CoinFlavor::CoinFlip } else { CoinFlavor::ThreshSig },
                insts: BTreeMap::<_, _>::from_iter(entries)
                    .into_iter()
                    .map(|((instance, round), (bval, aux, decided))| AbaScInst {
                        instance,
                        round,
                        bval: BinValues::from_code(bval),
                        aux,
                        decided,
                    })
                    .collect(),
                coin_shares: BTreeSet::from_iter(coins.into_iter().map(|(d, r)| d << 8 | r))
                    .into_iter()
                    .map(|c| (c, m.coin))
                    .collect(),
                share_nack,
            }),
        (any::<u8>(), arb_bitmap(n))
            .prop_map(move |(shares, dec_nack)| Body::DecShareBatch { shares: pick(shares, m.dec), dec_nack }),
    ]
}

/// What a combined body says, one fact set per entry — `(j, 0)` for an
/// instance, `(instance, 1000 + round)` for an ABA vote entry, `(1000 +
/// domain, round)` for a coin, `(2000 + node, 0)` for `Share_nack` — so
/// that merging the bodies of several frames is a union.
type Facts = BTreeMap<(usize, u16), BTreeSet<String>>;

fn facts(body: &Body) -> Facts {
    let mut out = Facts::new();
    let mut fact = |j: usize, round: u16, what: String| {
        out.entry((j, round)).or_default().insert(what);
    };
    let bits = |b: &Bitmap, name: &str, fact: &mut dyn FnMut(usize, u16, String)| {
        for j in b.iter_set() {
            fact(j, 0, name.to_string());
        }
    };
    let requests = |nack: &InitNack, fact: &mut dyn FnMut(usize, u16, String)| {
        for (j, request) in nack.iter() {
            fact(j, 0, format!("init_nack {request:?}"));
        }
    };
    match body {
        Body::RbcEchoReady { roots, echo, ready, echo_nack, ready_nack, init_nack } => {
            for (j, root) in roots.iter().enumerate().filter(|(_, r)| !r.is_zero()) {
                fact(j, 0, format!("root {root:?}"));
            }
            bits(echo, "echo", &mut fact);
            bits(ready, "ready", &mut fact);
            bits(echo_nack, "echo_nack", &mut fact);
            bits(ready_nack, "ready_nack", &mut fact);
            requests(init_nack, &mut fact);
        }
        Body::CbcEchoFinish { echo_shares, finish_sigs, echo_nack, finish_nack, init_nack } => {
            echo_shares.iter().for_each(|(j, s)| fact(usize::from(*j), 0, format!("share {s:?}")));
            for (j, root, s) in finish_sigs {
                fact(usize::from(*j), 0, format!("sig {root:?} {s:?}"));
            }
            bits(echo_nack, "echo_nack", &mut fact);
            bits(finish_nack, "finish_nack", &mut fact);
            requests(init_nack, &mut fact);
        }
        Body::PrbcDone { shares, proofs, sig_nack } => {
            shares.iter().for_each(|(j, s)| fact(usize::from(*j), 0, format!("share {s:?}")));
            proofs.iter().for_each(|(j, s)| fact(usize::from(*j), 0, format!("proof {s:?}")));
            bits(sig_nack, "sig_nack", &mut fact);
        }
        Body::AbaSc { flavor, insts, coin_shares, share_nack } => {
            for i in insts {
                let entry = format!("{flavor:?} {:?} {:?} {:?}", i.bval, i.aux, i.decided);
                fact(usize::from(i.instance), i.round + 1000, entry);
            }
            for (coin, share) in coin_shares {
                let [domain, round] = coin.to_be_bytes();
                fact(1000 + usize::from(domain), u16::from(round), format!("{flavor:?} coin {share:?}"));
            }
            bits(share_nack, "share_nack", &mut |j, _, what| fact(2000 + j, 0, what));
        }
        Body::DecShareBatch { shares, dec_nack } => {
            shares.iter().for_each(|(j, s)| fact(usize::from(*j), 0, format!("dec {s:?}")));
            bits(dec_nack, "dec_nack", &mut fact);
        }
        other => panic!("not a combined body: {other:?}"),
    }
    out
}

/// The facts a split keeps: a PRBC or decryption entry with nothing but
/// NACK bits has no frame to ride, an RBC entry with nothing but a root
/// says nothing, and `Share_nack` needs a coin frame.
fn kept(body: &Body) -> Facts {
    let mut all = facts(body);
    let has = |f: &BTreeSet<String>, what: fn(&String) -> bool| f.iter().any(what);
    match body {
        Body::RbcEchoReady { .. } => all.retain(|_, f| has(f, |x| !x.starts_with("root"))),
        Body::PrbcDone { .. } | Body::DecShareBatch { .. } => {
            all.retain(|_, f| has(f, |x| ["share ", "proof ", "dec "].iter().any(|p| x.starts_with(p))))
        }
        Body::AbaSc { coin_shares, .. } if coin_shares.is_empty() => all.retain(|(j, _), _| *j < 2000),
        _ => {}
    }
    all
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
    fn joining_the_frames_of_a_split_reproduces_its_entries_in_distinct_slots(
        body in arb_combined(),
    ) {
        let frames = split(body.clone());
        let mut merged = Facts::new();
        for frame in &frames {
            let Some((instance, _)) = frame.place() else {
                return Err(TestCaseError::fail(format!("not a per-instance frame: {frame:?}")));
            };
            // A frame naming an instance outside the committee is no
            // component's: it is returned as it is.
            let outside = join(frame, usize::from(instance));
            prop_assert!(matches!(outside, std::borrow::Cow::Borrowed(_)));
            let joined = join(frame, 4);
            prop_assert!(&*joined != frame, "a per-instance frame joins to its combined body");
            for (entry, f) in facts(&joined) {
                merged.entry(entry).or_default().extend(f);
            }
        }
        prop_assert_eq!(merged, kept(&body));
        for (i, a) in frames.iter().enumerate() {
            for b in &frames[i + 1..] {
                let (ka, kb) = (std::mem::discriminant(a), std::mem::discriminant(b));
                if (ka, a.place()) != (kb, b.place()) {
                    prop_assert!(a.slot_key() != b.slot_key(), "{:?} and {:?} share a slot", a, b);
                }
            }
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
