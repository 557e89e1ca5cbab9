//! The consensus-service API battery: mempool semantics, the fixed-epoch
//! byte-identity regression, live-submission scenarios on the simulator,
//! the sweep-axis determinism guarantee, and the full UDP path — external
//! client process semantics (submission over the client channel, streamed
//! commits, graceful stop) against in-process `UdpRuntime` nodes.

use bytes::Bytes;
use proptest::prelude::*;
use std::time::Duration;
use wbft_consensus::netrun::{run_udp_service_node, ServiceNodeOpts};
use wbft_consensus::report::scenario_string;
use wbft_consensus::service::{block_digests, tx_digest, LatencySummary, Mempool};
use wbft_consensus::sweep::{run_scenarios, SweepSpec};
use wbft_consensus::testbed::{run, ChurnPlan, CrashEvent, CrashPlan, TestbedConfig};
use wbft_consensus::{
    AdmitOutcome, ArrivalSpec, Block, ByzantineMode, Protocol, ServiceConfig, StopCondition,
};
use wbft_membership::MembershipOp;
use wbft_transport::{PeerTable, ServiceClient};
use wbft_wireless::{LossModel, SimTime};

// ------------------------------------------------------------------
// Byte-identity regression against pre-redesign fixtures.

/// The exact grid `examples/sweep.rs --protocols beat,dumbo-sc --seeds 7`
/// ran *before* the service redesign; the `pre_redesign_*` fixture files
/// under `tests/fixtures/` hold the reports that build produced. The
/// redesigned engines (StopCondition::Epochs compatibility mode) must
/// reproduce them byte for byte.
///
/// The `pre_skeleton_*` files widen the same pin to all eight deployments
/// at W = 1 and to `hb-sc` / `dumbo-sc` in service mode at W = 2 (the
/// head-parking gate, the early-decryption path and `on_work_available`).
/// They were written by the last build with two sibling engines, before
/// the epoch pipeline moved into one skeleton. Three more pin the runner
/// paths nothing else byte-pinned — crash/restart, a Byzantine wrap, a
/// Dumbo membership swap — written by the last build with one runner per
/// axis. The three `.mh4.` files pin the clustered multi-hop runner
/// (`run_multi_hop`, `ClusterNode`) — two lossy two-epoch points and a
/// lossless one — written before any of it was optimised or moved. Six
/// `*-baseline … loss-u0.1` files (honest and `byz-corrupt@1`) pin the
/// per-instance packing's retransmission — the batched components' NACK-
/// steered rule, one instance per frame — which the three lossless
/// baseline files never reach; all nine were rewritten when the baselines
/// moved onto the batched components.
/// `WBFT_BLESS=1` rewrites them after an *intentional* behaviour change.
#[test]
fn fixed_epoch_reports_match_pre_redesign_fixtures() {
    let mut spec = SweepSpec::new("regress");
    spec.protocols = Protocol::ALL.to_vec();
    let mut scenarios = spec.expand();
    let mut pipelined = SweepSpec::new("regress-w2");
    pipelined.protocols = vec![Protocol::HoneyBadgerSc, Protocol::DumboSc];
    pipelined.pipeline_depths = vec![2];
    pipelined.batch_size = 4;
    pipelined.services = vec![Some(ServiceConfig {
        arrivals: ArrivalSpec { per_node: 6, interval_us: 400_000, tx_bytes: 32, seed: 13 },
        mempool_capacity: 64,
        max_epochs: 64,
    })];
    scenarios.extend(pipelined.expand());
    // One point per remaining runner path: a crash/restart (journal + sync),
    // a Byzantine wrap, and a membership swap under a Dumbo lane.
    let mut crash = SweepSpec::new("regress-crash");
    crash.epochs = 2;
    crash.crashes = vec![Some(CrashPlan {
        crashes: vec![CrashEvent { node: 2, at_us: 5_000_000, restart_us: 30_000_000 }],
    })];
    scenarios.extend(crash.expand());
    let mut byzantine = SweepSpec::new("regress-byz");
    byzantine.protocols = vec![Protocol::HoneyBadgerSc];
    byzantine.placements = vec![vec![(1, ByzantineMode::Silent)]];
    scenarios.extend(byzantine.expand());
    let mut churn = SweepSpec::new("regress-churn");
    churn.protocols = vec![Protocol::DumboSc];
    churn.epochs = 5;
    churn.churns = vec![Some(ChurnPlan {
        from_epoch: 1,
        ops: vec![MembershipOp::Join(4), MembershipOp::Leave(0)],
    })];
    scenarios.extend(churn.expand());
    // The clustered multi-hop runner, through the sweep's topology axis.
    let mut clustered = SweepSpec::new("regress-mh-lossy");
    clustered.protocols = vec![Protocol::HoneyBadgerSc, Protocol::DumboSc];
    clustered.topologies = vec![TestbedConfig::multi_hop(Protocol::Beat).clusters];
    clustered.losses = vec![LossModel::Uniform { p: 0.1 }];
    clustered.epochs = 2;
    scenarios.extend(clustered.expand());
    let mut clustered_beat = SweepSpec::new("regress-mh");
    clustered_beat.topologies = clustered.topologies.clone();
    scenarios.extend(clustered_beat.expand());
    // The unbatched deployments under loss, honest and with a corrupting
    // proposer: the baseline retransmission tick and the corrupt-assembly
    // reset, which the lossless baseline goldens never reach.
    let mut lossy_baselines = SweepSpec::new("regress-baseline-lossy");
    lossy_baselines.protocols = vec![
        Protocol::HoneyBadgerScBaseline,
        Protocol::BeatBaseline,
        Protocol::DumboScBaseline,
    ];
    lossy_baselines.losses = vec![LossModel::Uniform { p: 0.1 }];
    lossy_baselines.placements = vec![vec![], vec![(1, ByzantineMode::CorruptProposals)]];
    lossy_baselines.epochs = 2;
    scenarios.extend(lossy_baselines.expand());
    assert_eq!(scenarios.len(), 22);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for scenario in &scenarios {
        let cfg = &scenario.cfg;
        let pre_redesign = cfg.service.is_none()
            && cfg.crash.is_none()
            && cfg.churn.is_none()
            && cfg.clusters.is_none()
            && matches!(cfg.protocol, Protocol::Beat | Protocol::DumboSc);
        let path = dir.join(if pre_redesign {
            format!("pre_redesign_{}_sh_seed7.json", cfg.protocol.slug())
        } else {
            format!("pre_skeleton_{}.json", scenario.label)
        });
        let report = run(cfg);
        let text = scenario_string(&scenario.label, cfg, &report);
        if !pre_redesign && std::env::var_os("WBFT_BLESS").is_some() {
            std::fs::write(&path, &text).unwrap();
        }
        let golden = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, golden, "{}: report diverged from the pinned bytes", scenario.label);
    }
}

// ------------------------------------------------------------------
// Mempool property tests.

fn tx_of(tag: u64) -> Bytes {
    Bytes::from(tag.to_le_bytes().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A transaction submitted any number of times is admitted exactly once
    /// and, after commit, rejected forever (committed-once semantics).
    #[test]
    fn dedup_admits_each_tx_once(tags in proptest::collection::vec(0u64..32, 1..40)) {
        let mut pool = Mempool::new(1024);
        let mut admitted = std::collections::BTreeSet::new();
        for &tag in &tags {
            let outcome = pool.admit(tx_of(tag), SimTime::ZERO);
            if admitted.insert(tag) {
                prop_assert_eq!(outcome, AdmitOutcome::Admitted);
            } else {
                prop_assert_eq!(outcome, AdmitOutcome::Duplicate);
            }
        }
        // Propose + commit everything, then resubmit: all duplicates.
        let batch = pool.next_batch(0, usize::MAX);
        prop_assert_eq!(batch.len(), admitted.len());
        pool.record_commit(&Block { epoch: 0, txs: batch }, SimTime::from_micros(1));
        for &tag in &tags {
            prop_assert_eq!(pool.admit(tx_of(tag), SimTime::ZERO), AdmitOutcome::Duplicate);
        }
        prop_assert_eq!(pool.stats().committed, admitted.len() as u64);
    }

    /// Batches preserve exact FIFO admission order across arbitrary
    /// batch-size splits.
    #[test]
    fn batches_preserve_fifo_order(
        count in 1usize..48,
        pulls in proptest::collection::vec(1usize..8, 1..24),
    ) {
        let mut pool = Mempool::new(1024);
        for tag in 0..count as u64 {
            pool.admit(tx_of(tag ^ 0x5a5a_0000), SimTime::ZERO);
        }
        let mut drained = Vec::new();
        for (epoch, max) in pulls.into_iter().enumerate() {
            drained.extend(pool.next_batch(epoch as u64, max));
        }
        let expected: Vec<Bytes> =
            (0..drained.len() as u64).map(|t| tx_of(t ^ 0x5a5a_0000)).collect();
        prop_assert_eq!(drained, expected);
    }

    /// Reject-at-capacity never panics, never exceeds the bound, and frees
    /// space once transactions move on.
    #[test]
    fn capacity_rejects_without_panicking(
        capacity in 0usize..6,
        offered in 0usize..24,
    ) {
        let mut pool = Mempool::new(capacity);
        let mut admitted = 0u64;
        for tag in 0..offered as u64 {
            match pool.admit(tx_of(tag), SimTime::ZERO) {
                AdmitOutcome::Admitted => admitted += 1,
                AdmitOutcome::Full => {}
                AdmitOutcome::Duplicate => prop_assert!(false, "all txs distinct"),
                AdmitOutcome::TooLarge => prop_assert!(false, "8-byte txs fit a batch"),
            }
            prop_assert!(pool.pending() <= capacity);
        }
        prop_assert_eq!(admitted as usize, offered.min(capacity));
        let stats = pool.stats();
        prop_assert_eq!(stats.rejected_full as usize, offered.saturating_sub(capacity));
        // Proposing frees pending space for a previously rejected tx.
        let batch = pool.next_batch(0, usize::MAX);
        prop_assert_eq!(batch.len(), admitted as usize);
        if offered > capacity && capacity > 0 {
            prop_assert_eq!(
                pool.admit(tx_of(capacity as u64), SimTime::ZERO),
                AdmitOutcome::Admitted
            );
        }
    }

    /// Latency summaries never panic — not on empty streams, not on a
    /// single sample, not on arbitrary ones — and the percentile chain
    /// stays ordered (these once carried `expect("non-empty")` panics).
    #[test]
    fn latency_summary_never_panics(
        samples in proptest::collection::vec(0u64..1_000_000, 0..24),
    ) {
        let s = LatencySummary::from_samples(&samples);
        prop_assert_eq!(s.count as usize, samples.len());
        if samples.is_empty() {
            prop_assert_eq!((s.p50_us, s.p90_us, s.p99_us, s.max_us), (0, 0, 0, 0));
            prop_assert_eq!(s.mean_us, 0.0);
        } else {
            prop_assert!(s.p50_us <= s.p90_us);
            prop_assert!(s.p90_us <= s.p99_us);
            prop_assert!(s.p99_us <= s.max_us);
            prop_assert_eq!(s.max_us, *samples.iter().max().unwrap());
        }
    }

    /// Arrival schedules never panic, including the degenerate zero
    /// interval (the jitter modulus guard) and zero-length transactions.
    #[test]
    fn arrival_schedule_never_panics(
        per_node in 0u64..6,
        interval_us in 0u64..3,
        tx_bytes in 0usize..40,
        seed in 0u64..64,
    ) {
        let spec = ArrivalSpec { per_node, interval_us, tx_bytes, seed };
        for node in 0..3 {
            let schedule = spec.schedule(node);
            prop_assert_eq!(schedule.len() as u64, per_node);
            prop_assert!(schedule.iter().all(|(_, tx)| tx.len() == tx_bytes));
            prop_assert!(schedule.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }
}

// ------------------------------------------------------------------
// Live-submission scenarios on the simulator.

fn service_cfg(protocol: Protocol, seed: u64) -> TestbedConfig {
    let mut cfg = TestbedConfig::single_hop(protocol);
    cfg.seed = seed;
    cfg.workload.batch_size = 16;
    cfg.service = Some(ServiceConfig {
        arrivals: ArrivalSpec { per_node: 5, interval_us: 3_000_000, tx_bytes: 32, seed: 11 },
        mempool_capacity: 64,
        max_epochs: 64,
    });
    cfg
}

/// A live-submission run commits every client transaction exactly once and
/// reports per-tx latency percentiles and backpressure counters.
#[test]
fn simulator_service_run_commits_all_client_txs() {
    for protocol in [Protocol::HoneyBadgerSc, Protocol::DumboSc] {
        let cfg = service_cfg(protocol, 9);
        let report = run(&cfg);
        assert!(report.completed, "{protocol}: service run must drain before the deadline");
        let service = report.service.expect("service member present");
        let expected = 4 * 5; // n nodes × per_node arrivals, all unique
        assert_eq!(service.submitted, expected, "{protocol}");
        assert_eq!(service.admitted, expected, "{protocol}");
        assert_eq!(service.committed_client_txs, expected, "{protocol}");
        assert_eq!(service.pending_at_stop, 0, "{protocol}");
        assert_eq!(report.total_txs, expected, "{protocol}: chain carries each tx once");
        assert_eq!(service.latency.count, expected, "{protocol}");
        assert!(service.latency.p50_us > 0, "{protocol}: latencies must be measured");
        assert!(service.latency.p50_us <= service.latency.p90_us);
        assert!(service.latency.p90_us <= service.latency.p99_us);
        assert!(service.latency.p99_us <= service.latency.max_us);
        assert!(service.peak_occupancy > 0, "{protocol}");
        assert_eq!(service.rejected_dup + service.rejected_full, 0, "{protocol}");
    }
}

/// A capacity-starved pool sheds load: rejections are counted, nothing
/// panics, and the admitted subset still commits.
#[test]
fn simulator_service_run_sheds_load_at_capacity() {
    let mut cfg = service_cfg(Protocol::HoneyBadgerSc, 21);
    let svc = cfg.service.as_mut().expect("service configured");
    // A burst far faster than the epoch cadence, into a 2-slot pool, with
    // one tx pulled per epoch so the queue stays saturated.
    svc.arrivals = ArrivalSpec { per_node: 12, interval_us: 200_000, tx_bytes: 32, seed: 5 };
    svc.mempool_capacity = 2;
    cfg.workload.batch_size = 1;
    let report = run(&cfg);
    assert!(report.completed, "admitted txs must still drain");
    let service = report.service.expect("service member present");
    assert!(service.rejected_full > 0, "a 2-slot pool under burst must shed load");
    assert_eq!(service.admitted, service.committed_client_txs, "admitted txs all commit");
    assert!(service.peak_occupancy >= 2, "the pool must have saturated: {service:?}");
    assert_eq!(service.admitted + service.rejected_full, service.submitted);
}

/// Service scenarios inherit the sweep harness's parallel == serial
/// byte-identity guarantee.
#[test]
fn service_sweep_is_parallel_deterministic() {
    let mut spec = SweepSpec::new("svc-det");
    spec.protocols = vec![Protocol::HoneyBadgerSc];
    spec.services = vec![
        None,
        Some(ServiceConfig {
            arrivals: ArrivalSpec { per_node: 4, interval_us: 2_500_000, tx_bytes: 24, seed: 3 },
            mempool_capacity: 32,
            max_epochs: 32,
        }),
    ];
    spec.seeds = vec![7, 8];
    let scenarios = spec.expand();
    assert_eq!(scenarios.len(), 4);
    // Fixed-epoch labels keep their pre-service shape; service points are
    // suffixed.
    assert!(scenarios.iter().any(|s| s.label.ends_with(".seed7")));
    assert!(scenarios.iter().any(|s| s.label.ends_with(".svc-ia2500x4c32")));
    let parallel = run_scenarios(&scenarios, 4);
    let serial = run_scenarios(&scenarios, 1);
    for (p, s) in parallel.iter().zip(&serial) {
        let pt = scenario_string(&p.scenario.label, &p.scenario.cfg, &p.report);
        let st = scenario_string(&s.scenario.label, &s.scenario.cfg, &s.report);
        assert_eq!(pt, st, "parallel and serial service reports must be byte-identical");
    }
}

/// The graceful stop: a stop requested before start yields an immediately
/// done engine that opens no epochs.
#[test]
fn service_stop_condition_halts_engine() {
    use rand::SeedableRng;
    use wbft_consensus::{ConsensusHandle, Engine, EngineOut};
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let crypto = wbft_components::deal_node_crypto(4, wbft_crypto::CryptoSuite::light(), &mut rng)
        .remove(0);
    let handle = ConsensusHandle::new(16);
    handle.stop();
    let mut engine =
        Protocol::HoneyBadgerSc.service_engine_at_depth(crypto, handle.clone(), 8, 64, 1);
    assert!(engine.is_done(), "stopped before start = nothing to do");
    let mut out = EngineOut::new();
    engine.start(&mut out);
    assert!(out.sends.is_empty(), "a stopped engine opens no epoch");
    assert!(engine.is_done());
}

// ------------------------------------------------------------------
// The UDP service path: external client, streamed commits, graceful stop.

/// Four in-process UDP service nodes; an external client socket submits
/// transactions mid-run, reads the commit stream, and stops the cluster.
/// Every node must commit the client's transactions with recorded latency,
/// and the digest chains must agree on a common prefix.
#[test]
fn udp_service_nodes_serve_live_submissions() {
    let n = 4;
    let sockets: Vec<std::net::UdpSocket> =
        (0..n).map(|_| std::net::UdpSocket::bind("127.0.0.1:0").unwrap()).collect();
    let ports: Vec<u16> = sockets.iter().map(|s| s.local_addr().unwrap().port()).collect();
    drop(sockets);
    let table = PeerTable::loopback(&ports);
    let addrs: Vec<std::net::SocketAddr> =
        (0..n as u16).map(|i| table.addr_of(i).unwrap()).collect();

    let mut cfg = TestbedConfig::single_hop(Protocol::HoneyBadgerSc);
    cfg.workload.batch_size = 8;
    let opts = ServiceNodeOpts {
        wall: Duration::from_secs(120),
        linger: Duration::from_secs(2),
        max_epochs: 100_000,
        mempool_capacity: 64,
        journal: None,
        late_peers: Vec::new(),
    };
    let handles: Vec<_> = (0..n)
        .map(|me| {
            let cfg = cfg.clone();
            let table = table.clone();
            let opts = opts.clone();
            std::thread::spawn(move || {
                run_udp_service_node(&cfg, table, me, &opts).unwrap()
            })
        })
        .collect();

    // The external client submits 3 txs to every node (exercising
    // cross-proposer dedup) mid-run — the nodes are already running empty
    // epochs by the time they arrive — and reads the streams.
    let mut client = ServiceClient::bind(&addrs).unwrap();
    client.nudge();
    std::thread::sleep(Duration::from_millis(400));
    for i in 0..3u64 {
        let tx = Bytes::from(format!("udp-service-tx-{i}-{:016x}", i.wrapping_mul(0x9e37)));
        let digest = tx_digest(&tx).0;
        client.submit(tx, digest).unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(90);
    while !client.all_seen() && std::time::Instant::now() < deadline {
        client.nudge();
        client.poll();
    }
    assert!(client.all_seen(), "every node streams every tx back; saw {:?}", client.seen());
    client.stop(5, Duration::from_millis(100));
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (me, out) in outcomes.iter().enumerate() {
        let service = out.report.service.as_ref().expect("service stats present");
        assert_eq!(
            service.committed_client_txs, 3,
            "node {me} must commit the client's txs exactly once"
        );
        assert_eq!(service.latency.count, 3, "node {me} latency samples");
        assert!(service.latency.p50_us > 0, "node {me} latency measured");
        assert!(out.stats.client_datagrams > 0, "node {me} saw client traffic");
    }
    // Content agreement on the common digest-chain prefix.
    let min_len = outcomes.iter().map(|o| o.block_digests.len()).min().unwrap();
    assert!(min_len > 0);
    for o in &outcomes[1..] {
        assert_eq!(
            &o.block_digests[..min_len],
            &outcomes[0].block_digests[..min_len],
            "digest chains diverged"
        );
    }
}

/// `block_digests` distinguishes same-count different-content chains — the
/// property the udp_cluster cross-check now relies on.
#[test]
fn block_digest_chains_detect_content_divergence() {
    let a = vec![Block { epoch: 0, txs: vec![Bytes::from_static(b"alpha")] }];
    let b = vec![Block { epoch: 0, txs: vec![Bytes::from_static(b"bravo")] }];
    assert_eq!(a[0].txs.len(), b[0].txs.len(), "equal tx counts...");
    assert_ne!(block_digests(&a), block_digests(&b), "...but different digests");
}

/// Fixed-epoch mode through the new explicit API equals the compatibility
/// path: `StopCondition::Epochs` is the old `target_epochs`.
#[test]
fn explicit_stop_condition_equals_compat_engine_path() {
    let cfg = TestbedConfig::single_hop(Protocol::Beat);
    let r1 = run(&cfg);
    let r2 = run(&cfg);
    // Determinism sanity of the refactored engines.
    assert_eq!(
        scenario_string("a", &cfg, &r1),
        scenario_string("a", &cfg, &r2),
        "fixed-epoch runs must stay deterministic"
    );
    let _ = StopCondition::Epochs(cfg.epochs); // the compat mode is public API
}

/// Transactions whose count fits a batch but whose bytes do not: 32 of
/// 400 B encode to 12.9 KB, over the 9 600 B one broadcast instance
/// carries. Proposals are cut at `BATCH_BUDGET` instead, so the cluster
/// keeps committing (before the cut, no INITIAL was aired and nothing
/// committed).
#[test]
fn service_batches_over_the_broadcast_limit_are_cut_not_stalled() {
    for protocol in [Protocol::HoneyBadgerSc, Protocol::DumboSc] {
        let mut cfg = TestbedConfig::single_hop(protocol);
        cfg.workload.batch_size = 32;
        cfg.deadline = wbft_wireless::SimDuration::from_secs(6_000);
        cfg.service = Some(ServiceConfig {
            arrivals: ArrivalSpec { per_node: 40, interval_us: 100_000, tx_bytes: 400, seed: 3 },
            mempool_capacity: 256,
            max_epochs: 20,
        });
        let service = run(&cfg).service.expect("service member present");
        assert_eq!(service.admitted, 160, "{protocol}: 400 B transactions fit a proposal");
        assert!(service.committed_client_txs > 0, "{protocol}: {service:?}");
    }
}
