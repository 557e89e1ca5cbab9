//! Property tests for the serialization layer: batch encoding and the JSON
//! report codec.
//!
//! * `encode_batch`/`decode_batch` round-trip on arbitrary transaction
//!   vectors (including empty and max-size transactions), and `decode_batch`
//!   returns `None` — never panics — on truncated or garbage input. The
//!   other proposal formats — Dumbo's W-vector and commit set, the
//!   multi-hop summary, the HB ciphertext — get the same battery.
//! * JSON: `encode → decode → encode` is a fixpoint for `RunReport` and
//!   `TestbedConfig`, and the parser never panics on arbitrary input.

use bytes::Bytes;
use proptest::prelude::*;
use rand::SeedableRng;
use wbft_consensus::dumbo::{decode_commit, decode_w, encode_commit, encode_w};
use wbft_consensus::honeybadger::{decode_ciphertext, encode_ciphertext, CIPHERTEXT_OVERHEAD};
use wbft_consensus::multihop::{decode_summary, encode_summary};
use wbft_consensus::testbed::{RunReport, TestbedConfig};
use wbft_consensus::workload::{decode_batch, encode_batch};
use wbft_consensus::{ByzantineMode, Protocol};
use wbft_crypto::hash::Digest32;
use wbft_crypto::{thresh_enc, thresh_sig, ThresholdCurve};
use wbft_net::Bitmap;
use wbft_report::{parse, FromJson, Json, ToJson};
use wbft_wireless::{LossModel, Metrics, NodeId, NodeMetrics, SimDuration};

fn arb_txs() -> impl Strategy<Value = Vec<Bytes>> {
    proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..200).prop_map(Bytes::from),
        0..20,
    )
}

fn arb_protocol() -> impl Strategy<Value = Protocol> {
    (0usize..Protocol::ALL.len()).prop_map(|i| Protocol::ALL[i])
}

fn arb_byzantine() -> impl Strategy<Value = Vec<(usize, ByzantineMode)>> {
    proptest::collection::vec(
        (0usize..4, 0usize..4, any::<u64>()).prop_map(|(node, mode, epoch)| {
            let mode = match mode {
                0 => ByzantineMode::Silent,
                1 => ByzantineMode::Crash { after_epoch: epoch % 8 },
                2 => ByzantineMode::FlipVotes,
                _ => ByzantineMode::CorruptProposals,
            };
            (node, mode)
        }),
        0..3,
    )
}

fn arb_config() -> impl Strategy<Value = TestbedConfig> {
    (arb_protocol(), any::<u64>(), 0u64..1_000, arb_byzantine(), any::<f64>(), any::<bool>())
        .prop_map(|(protocol, seed, epochs, byzantine, p, multihop)| {
            let mut cfg = if multihop {
                TestbedConfig::multi_hop(protocol)
            } else {
                TestbedConfig::single_hop(protocol)
            };
            cfg.seed = seed;
            cfg.epochs = epochs;
            cfg.byzantine = byzantine;
            cfg.loss = if p < 0.5 { LossModel::None } else { LossModel::Uniform { p } };
            cfg
        })
}

fn arb_metrics() -> impl Strategy<Value = Metrics> {
    proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..8).prop_map(|rows| {
        let n = rows.len();
        let mut m = Metrics::new(n);
        for (i, (accesses, bytes, airtime)) in rows.into_iter().enumerate() {
            let node = m.node_mut(NodeId(i as u16));
            *node = NodeMetrics {
                channel_accesses: accesses,
                bytes_sent: bytes,
                airtime: SimDuration::from_micros(airtime),
                frames_received: accesses ^ bytes,
                lost_collision: accesses % 7,
                lost_noise: bytes % 5,
                lost_half_duplex: airtime % 3,
                cpu_time: SimDuration::from_micros(bytes.wrapping_mul(3)),
            };
        }
        m.collisions = n as u64 * 2;
        m
    })
}

fn arb_report() -> impl Strategy<Value = RunReport> {
    (
        any::<bool>(),
        any::<u64>(),
        proptest::collection::vec(any::<u64>(), 0..6),
        any::<f64>(),
        any::<f64>(),
        any::<u64>(),
        arb_metrics(),
    )
        .prop_map(|(completed, elapsed, lats, mean, tpm, txs, metrics)| RunReport {
            completed,
            elapsed: SimDuration::from_micros(elapsed),
            epoch_latencies: lats.into_iter().map(SimDuration::from_micros).collect(),
            // Exercise the NaN-as-null path on a slice of cases.
            mean_latency_s: if mean < 0.1 { f64::NAN } else { mean },
            throughput_tpm: tpm,
            total_txs: txs,
            channel_accesses_per_node: tpm * 3.0,
            bytes_on_air: txs.wrapping_mul(17),
            collisions: txs % 11,
            metrics,
            service: None,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batch_roundtrip(txs in arb_txs()) {
        let enc = encode_batch(&txs);
        prop_assert_eq!(decode_batch(&enc), Some(txs));
    }

    #[test]
    fn batch_decode_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = decode_batch(&data); // must return, never panic
    }

    #[test]
    fn batch_decode_rejects_any_truncation(txs in arb_txs()) {
        prop_assume!(!txs.is_empty());
        let enc = encode_batch(&txs);
        // Every strict prefix is malformed: the count header promises more
        // bytes than remain, so decode must refuse (never panic).
        for cut in 0..enc.len() {
            prop_assert_eq!(decode_batch(&enc[..cut]), None, "prefix of {} bytes", cut);
        }
    }

    #[test]
    fn batch_decode_rejects_trailing_garbage(txs in arb_txs(), extra in 1usize..8) {
        let mut enc = encode_batch(&txs).to_vec();
        enc.extend(std::iter::repeat_n(0xAB, extra));
        prop_assert_eq!(decode_batch(&enc), None);
    }

    #[test]
    fn run_report_json_is_a_fixpoint(report in arb_report()) {
        let once = report.to_json().pretty();
        let decoded = RunReport::from_json(&parse(&once).unwrap()).unwrap();
        prop_assert_eq!(decoded.to_json().pretty(), once);
    }

    #[test]
    fn testbed_config_json_is_a_fixpoint(cfg in arb_config()) {
        let once = cfg.to_json().pretty();
        let decoded = TestbedConfig::from_json(&parse(&once).unwrap()).unwrap();
        prop_assert_eq!(decoded.to_json().pretty(), once);
    }

    #[test]
    fn json_parser_never_panics(text in any::<String>()) {
        let _ = parse(&text); // must return, never panic
    }

    #[test]
    fn json_parser_never_panics_on_bytes(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        if let Ok(text) = std::str::from_utf8(&data) {
            let _ = parse(text);
        }
    }

    #[test]
    fn json_scalars_round_trip(u in any::<u64>(), f in any::<f64>(), s in any::<String>()) {
        let doc = Json::obj([
            ("u", Json::u64(u)),
            ("f", Json::f64(f)),
            ("s", Json::str(s.clone())),
        ]);
        let back = parse(&doc.pretty()).unwrap();
        prop_assert_eq!(back.get("u").and_then(Json::as_u64), Some(u));
        prop_assert_eq!(back.get("f").and_then(Json::as_f64), Some(f));
        prop_assert_eq!(back.get("s").and_then(Json::as_str), Some(s.as_str()));
    }
}

/// The format's largest transaction: a u16 length prefix caps one tx at
/// 65535 bytes; such a batch must round-trip exactly.
#[test]
fn max_size_transaction_roundtrip() {
    let txs = vec![Bytes::from(vec![0x5A; u16::MAX as usize]), Bytes::new()];
    let enc = encode_batch(&txs);
    assert_eq!(decode_batch(&enc), Some(txs));
}

/// NaN means "no epochs decided"; it crosses JSON as null and comes back
/// as NaN, and the encoding stays a fixpoint.
#[test]
fn nan_mean_latency_crosses_json() {
    let report = RunReport {
        completed: false,
        elapsed: SimDuration::ZERO,
        epoch_latencies: vec![],
        mean_latency_s: f64::NAN,
        throughput_tpm: 0.0,
        total_txs: 0,
        channel_accesses_per_node: 0.0,
        bytes_on_air: 0,
        collisions: 0,
        metrics: Metrics::new(0),
        service: None,
    };
    let text = report.to_json().pretty();
    let decoded = RunReport::from_json(&parse(&text).unwrap()).unwrap();
    assert!(decoded.mean_latency_s.is_nan());
    assert_eq!(decoded.to_json().pretty(), text);
}

/// The hostile-input battery of a format that fills its payload exactly:
/// the encoding decodes back to the value, and every strict prefix and the
/// encoding plus one byte are refused.
fn exact_format<T: PartialEq + std::fmt::Debug>(
    value: &T,
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Option<T>,
    extra: u8,
) -> Result<(), TestCaseError> {
    let decoded = decode(bytes);
    prop_assert_eq!(decoded.as_ref(), Some(value));
    for cut in 0..bytes.len() {
        prop_assert!(decode(&bytes[..cut]).is_none(), "prefix of {} bytes", cut);
    }
    let mut longer = bytes.to_vec();
    longer.push(extra);
    prop_assert!(decode(&longer).is_none(), "trailing byte accepted");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn w_vector_codec_is_exact(
        picks in proptest::collection::vec((any::<u8>(), any::<[u8; 32]>(), any::<bool>()), 0..8),
        seed in any::<u64>(),
        extra in any::<u8>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (pks, sks) = thresh_sig::deal(4, 1, ThresholdCurve::Bn158, &mut rng);
        let sign = |m: &[u8]| pks.combine(&[sks[0].sign_share(m), sks[2].sign_share(m)]).unwrap();
        let proofs = [sign(b"a"), sign(b"b")];
        let entries: Vec<_> = picks
            .into_iter()
            .map(|(id, root, which)| (id, Digest32(root), proofs[usize::from(which)]))
            .collect();
        exact_format(&entries, &encode_w(&entries), decode_w, extra)?;
    }

    #[test]
    fn commit_set_codec_is_exact(len in 0usize..=64, raw in any::<u64>(), extra in any::<u8>()) {
        let set = Bitmap::from_raw(raw, len);
        exact_format(&set, &encode_commit(&set), decode_commit, extra)?;
    }

    #[test]
    fn summary_codec_is_exact(
        cluster in any::<u8>(),
        epoch in any::<u64>(),
        digest in any::<[u8; 32]>(),
        txs in any::<u32>(),
        extra in any::<u8>(),
    ) {
        let value = (usize::from(cluster), epoch, Digest32(digest), txs);
        let bytes = encode_summary(value.0, epoch, value.2, txs as usize);
        exact_format(&value, &bytes, decode_summary, extra)?;
    }

    /// A ciphertext's body runs to the end of the proposal, so a longer or
    /// shorter body is another (well-formed) ciphertext whose tag no longer
    /// matches; only prefixes shorter than `u` and the tag are malformed.
    #[test]
    fn ciphertext_codec_roundtrips_and_refuses_short_prefixes(
        plaintext in proptest::collection::vec(any::<u8>(), 0..300),
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (enc, _) = thresh_enc::deal_enc(4, 1, ThresholdCurve::Bn158, &mut rng);
        let ct = enc.encrypt(b"label", &plaintext, &mut rng);
        let bytes = encode_ciphertext(&ct);
        prop_assert_eq!(decode_ciphertext(&bytes), Some(ct.clone()));
        for cut in 0..bytes.len() {
            let decoded = decode_ciphertext(&bytes[..cut]);
            if cut < CIPHERTEXT_OVERHEAD {
                prop_assert!(decoded.is_none(), "prefix of {} bytes", cut);
            } else {
                prop_assert_ne!(decoded, Some(ct.clone()));
            }
        }
    }

    #[test]
    fn proposal_decoders_never_panic_on_garbage(
        data in proptest::collection::vec(any::<u8>(), 0..400)
    ) {
        let _ = decode_w(&data); // each must return, never panic
        let _ = decode_commit(&data);
        let _ = decode_summary(&data);
        let _ = decode_ciphertext(&data);
    }
}
