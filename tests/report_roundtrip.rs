//! Property tests for the serialization layer: batch encoding and the JSON
//! report codec.
//!
//! * `encode_batch`/`decode_batch` round-trip on arbitrary transaction
//!   vectors (including empty and max-size transactions), and `decode_batch`
//!   returns `None` — never panics — on truncated or garbage input. The
//!   other proposal formats — Dumbo's instance set (`W` and commit set), the
//!   multi-hop summary, the HB ciphertext — get the same battery, and so do
//!   the INITIAL NACK's fragment requests (`InitNack`, `FrameNack`).
//! * JSON: `encode → decode → encode` is a fixpoint for `RunReport` and
//!   `TestbedConfig`, and the parser never panics on arbitrary input.
//! * Committed JSON: every scenario document under `tests/fixtures/` and
//!   `tests/fixtures/scenarios/`, and every fuzz fixture under
//!   `tests/fixtures/fuzz/`, decodes and re-encodes to its exact bytes. `codec_every_member.json` carries every config and
//!   report member the run goldens leave out, so each one is pinned too.

use bytes::Bytes;
use proptest::prelude::*;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use wbft_consensus::dumbo::{decode_commit, encode_commit};
use wbft_consensus::fuzz::{decode_fixture, fixture_string};
use wbft_consensus::honeybadger::{decode_ciphertext, encode_ciphertext, CIPHERTEXT_OVERHEAD};
use wbft_consensus::multihop::{decode_summary, encode_summary};
use wbft_consensus::report::{decode_scenario, scenario_string};
use wbft_consensus::service::{LatencySummary, ServiceReport};
use wbft_consensus::testbed::{ChurnPlan, CrashEvent, CrashPlan, RunReport, TestbedConfig};
use wbft_consensus::workload::{decode_batch, encode_batch};
use wbft_consensus::{ArrivalSpec, ByzantineMode, Protocol, ServiceConfig};
use wbft_crypto::hash::Digest32;
use wbft_crypto::{thresh_enc, CryptoSuite, ThresholdCurve};
use wbft_membership::MembershipOp;
use wbft_net::wire::{ByteSink, Wire, WireReader};
use wbft_net::{Bitmap, FrameNack, InitNack};
use wbft_report::{parse, FromJson, Json, ToJson};
use wbft_wireless::{
    AdversaryConfig, LossModel, Metrics, NodeId, NodeMetrics, SchedConfig, SchedPolicy,
    SimDuration,
};

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

// ------------------------------------------------------------------
// Committed documents: decoding and re-encoding reproduces every byte.

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The `.json` files directly under `dir`, in name order.
fn json_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_committed_scenario_document_round_trips_to_its_bytes() {
    let mut files = json_files(&fixture_dir());
    files.extend(json_files(&fixture_dir().join("scenarios")));
    assert!(files.len() >= 24, "expected the golden set, found {}", files.len());
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let (label, cfg, report) = decode_scenario(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(scenario_string(&label, &cfg, &report), text, "{}", path.display());
    }
}

#[test]
fn every_committed_fuzz_fixture_round_trips_to_its_bytes() {
    let files = json_files(&fixture_dir().join("fuzz"));
    assert!(files.len() >= 12, "expected the seeded fixture set, found {}", files.len());
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let (case, expect) = decode_fixture(&parse(&text).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(fixture_string(&case, expect), text, "{}", path.display());
    }
}

/// A scenario that sets every member no run golden carries: a service
/// section in config and report, a victim schedule, depth 2, a crash plan,
/// a membership plan, a delay bound, per-receiver loss, targeted delays and
/// all four Byzantine modes. It is a codec document, not a runnable
/// composition.
fn every_member_scenario() -> (TestbedConfig, RunReport) {
    let mut cfg = TestbedConfig::single_hop(Protocol::DumboSc);
    cfg.suite = CryptoSuite::medium();
    cfg.loss = LossModel::PerReceiver { rates: vec![(NodeId(1), 0.25), (NodeId(3), 0.5)] };
    cfg.adversary = AdversaryConfig {
        jitter: Some(SimDuration::from_millis(2)),
        targeted: vec![(NodeId(2), SimDuration::from_secs(1))],
        bound: Some(SimDuration::from_secs(4)),
    };
    cfg.byzantine = vec![
        (0, ByzantineMode::Silent),
        (1, ByzantineMode::Crash { after_epoch: 2 }),
        (2, ByzantineMode::FlipVotes),
        (3, ByzantineMode::CorruptProposals),
    ];
    cfg.service = Some(ServiceConfig {
        arrivals: ArrivalSpec { per_node: 6, interval_us: 400_000, tx_bytes: 32, seed: 13 },
        mempool_capacity: 64,
        max_epochs: 9,
    });
    cfg.sched = Some(SchedConfig {
        seed: 11,
        budget: SimDuration::from_secs(3),
        policy: SchedPolicy::Victim { victims: vec![NodeId(1), NodeId(2)] },
    });
    cfg.pipeline_depth = 2;
    cfg.crash = Some(CrashPlan {
        crashes: vec![CrashEvent { node: 2, at_us: 5_000_000, restart_us: 30_000_000 }],
    });
    cfg.churn = Some(ChurnPlan {
        from_epoch: 1,
        ops: vec![MembershipOp::Join(4), MembershipOp::Leave(0)],
    });
    let mut metrics = Metrics::new(2);
    metrics.collisions = 3;
    *metrics.node_mut(NodeId(1)) = NodeMetrics {
        channel_accesses: 7,
        bytes_sent: 900,
        airtime: SimDuration::from_millis(42),
        frames_received: 12,
        lost_collision: 1,
        lost_noise: 2,
        lost_half_duplex: 3,
        cpu_time: SimDuration::from_micros(1_500),
    };
    let report = RunReport {
        completed: true,
        elapsed: SimDuration::from_secs(90),
        epoch_latencies: vec![SimDuration::from_secs(30), SimDuration::from_micros(31_250_001)],
        mean_latency_s: 30.625,
        throughput_tpm: 10.5,
        total_txs: 15,
        channel_accesses_per_node: 4.25,
        bytes_on_air: 900,
        collisions: 3,
        metrics,
        service: Some(ServiceReport {
            submitted: 20,
            admitted: 18,
            rejected_dup: 1,
            rejected_full: 1,
            requeued: 2,
            peak_occupancy: 7,
            pending_at_stop: 0,
            committed_client_txs: 18,
            latency: LatencySummary {
                count: 18,
                mean_us: 31_000_000.5,
                p50_us: 29_000_000,
                p90_us: 44_000_000,
                p99_us: 51_000_000,
                max_us: 52_000_000,
            },
        }),
    };
    (cfg, report)
}

#[test]
fn the_every_member_document_is_what_the_encoder_writes() {
    let (cfg, report) = every_member_scenario();
    let text = scenario_string("codec.every-member", &cfg, &report);
    let disk = std::fs::read_to_string(fixture_dir().join("codec_every_member.json")).unwrap();
    assert_eq!(text, disk);
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

/// A wire value's encoding.
fn wire_bytes(value: &impl Wire) -> Vec<u8> {
    let mut sink = ByteSink::new();
    value.put(&mut sink).unwrap();
    sink.into_bytes().to_vec()
}

/// A wire value read from exactly `bytes`.
fn wire_decode<T: Wire>(bytes: &[u8]) -> Option<T> {
    let mut r = WireReader::new(bytes);
    let value = T::get(&mut r).ok()?;
    (r.remaining() == 0).then_some(value)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fragment requests ride behind the instance bitmap (and behind a
    /// per-instance frame's NACK byte), one per NACKed instance.
    #[test]
    fn init_nack_codecs_are_exact(
        nacked in any::<u64>(),
        requests in proptest::collection::vec((0usize..=64, any::<u64>()), 4),
        bits in any::<u8>(),
        extra in any::<u8>(),
    ) {
        let request = |(len, raw): (usize, u64)| Bitmap::from_raw(raw, len);
        let mut nack = InitNack::new(4);
        for j in Bitmap::from_raw(nacked, 4).iter_set() {
            nack.ask(j, request(requests[j]));
        }
        exact_format(&nack, &wire_bytes(&nack), wire_decode::<InitNack>, extra)?;
        let frame = FrameNack::new(bits, request(requests[0]));
        exact_format(&frame, &wire_bytes(&frame), wire_decode::<FrameNack>, extra)?;
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
        let _ = decode_commit(&data);
        let _ = decode_summary(&data);
        let _ = decode_ciphertext(&data);
    }
}
