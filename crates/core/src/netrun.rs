//! Running one testbed node over real UDP (`wbft-transport`).
//!
//! [`run_udp_node`] is the socket counterpart of
//! [`testbed::run`](crate::testbed::run)'s single-hop path: it deals the
//! same deterministic key material from the config seed (so `n` separate
//! processes sharing a [`TestbedConfig`] agree on every key without any
//! exchange), wraps the protocol engine in the *same unmodified*
//! [`ProtocolNode`](crate::driver::ProtocolNode) driver the simulator uses, and drives it with a
//! [`UdpRuntime`] until the engine decides all its epochs or the wall
//! deadline passes. The outcome is folded through the same aggregation as
//! simulator runs, so real-network results land in the identical
//! [`RunReport`] JSON schema — only this process's row of the per-node
//! metrics is populated (each process owns one node).
//!
//! Fidelity caveat: UDP (and especially loopback) has no CSMA contention,
//! collisions, airtime, or modelled loss, and wall-clock time replaces
//! virtual time, so latency numbers are *not* comparable with simulator
//! reports; channel accesses, bytes on air (nominal) and commit counts are.

use crate::service::{block_digests, AdmitOutcome, ConsensusHandle, ServiceReport};
use crate::testbed::{
    assemble, deal_single_hop, finish_report, Attach, RunReport, ServiceAttach, TestbedConfig,
};
use std::io;
use std::net::SocketAddr;
use std::time::Duration;
use wbft_crypto::hash::Digest32;
use wbft_journal::JournalStore;
use wbft_transport::{
    ClientGateway, ClientMsg, PeerTable, SubmitVerdict, TransportStats, UdpRuntime,
};
use wbft_wireless::SimTime;

/// Outcome of one UDP node run: the standard report plus transport counters.
#[derive(Clone, Debug)]
pub struct UdpNodeOutcome {
    /// The run report, in the same schema as simulator runs.
    pub report: RunReport,
    /// Datagram-level drop/send counters.
    pub stats: TransportStats,
    /// Per-block content digests of this node's committed chain, for
    /// cross-process agreement checks on block *contents* (equal tx counts
    /// alone would accept divergent commits).
    pub block_digests: Vec<Digest32>,
}

/// Runs node `me` of a single-hop `cfg` deployment over UDP.
///
/// `linger` keeps the node answering peers' NACK retransmissions after its
/// own epochs decide (exiting immediately would crash-fault the node for
/// its slower peers — tolerable for `f` nodes, fatal beyond).
///
/// # Errors
///
/// * `InvalidInput` — a config [`TestbedConfig::check`] refuses, an axis
///   the UDP runtime cannot honour (multi-hop, Byzantine placements, crash
///   and churn plans, delivery schedulers — all simulator-only), a peer
///   table whose size disagrees with `cfg.n`, or an invalid table;
/// * socket errors from bind/receive.
pub fn run_udp_node(
    cfg: &TestbedConfig,
    peers: PeerTable,
    me: usize,
    wall_deadline: Duration,
    linger: Duration,
) -> io::Result<UdpNodeOutcome> {
    run_node(cfg, peers, me, wall_deadline, linger, None)
}

/// The one body behind both entry points; `service` selects the
/// live-service node.
fn run_node(
    cfg: &TestbedConfig,
    peers: PeerTable,
    me: usize,
    wall: Duration,
    linger: Duration,
    service: Option<&ServiceNodeOpts>,
) -> io::Result<UdpNodeOutcome> {
    let invalid = |why: String| io::Error::new(io::ErrorKind::InvalidInput, why);
    cfg.check().map_err(invalid)?;
    // Axes the simulator models and this runtime would silently ignore.
    let simulator_only = [
        (cfg.clusters.is_some(), "multi-hop deployments"),
        (!cfg.byzantine.is_empty(), "Byzantine placements (UDP runs are honest-only)"),
        (cfg.crash.is_some(), "crash plans (kill and respawn the process instead)"),
        (cfg.churn.is_some(), "churn plans"),
        (cfg.sched.is_some(), "delivery schedulers"),
    ];
    if let Some((_, axis)) = simulator_only.iter().find(|(engaged, _)| *engaged) {
        return Err(invalid(format!("{axis} run on the simulator only")));
    }
    if peers.len() != cfg.n || me >= cfg.n {
        return Err(invalid(format!(
            "peer table has {} nodes, config wants n={}, me={me}",
            peers.len(),
            cfg.n
        )));
    }
    // Same seed derivation as the simulator's single-hop path: every
    // process deals the identical key vectors and takes its own slot.
    let crypto = deal_single_hop(cfg).swap_remove(me);
    // No local arrival schedule: submissions come over the client channel.
    // A service node always syncs — late joiners and journal restarts
    // catch up over the anti-entropy channel.
    let service = service.map(|opts| (opts, ConsensusHandle::new(opts.mempool_capacity)));
    let store = match service.as_ref().and_then(|(opts, _)| opts.journal.as_ref()) {
        Some(path) => {
            Some(Box::new(wbft_journal::FileStore::open(path)?) as Box<dyn JournalStore + Send>)
        }
        None => None,
    };
    let attach = Attach {
        service: service.as_ref().map(|(opts, handle)| ServiceAttach {
            handle: handle.clone(),
            arrivals: Vec::new(),
            max_epochs: opts.max_epochs,
        }),
        store,
        sync: service.is_some(),
    };
    let node = assemble(cfg, crypto, attach).map_err(|e| match e {
        wbft_journal::JournalError::Io(io) => io,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    })?;
    // Per-node rng stream: the ctx rng is not part of consensus state, but
    // distinct streams avoid accidental cross-node correlation.
    let rng_seed = cfg.seed ^ ((me as u64) << 32) ^ 0x11d9;
    let mut runtime = UdpRuntime::new(peers, me as u16, node, rng_seed)?;
    if let Some((opts, handle)) = &service {
        runtime.set_late_peers(opts.late_peers.iter().copied());
        runtime.set_client_gateway(Box::new(ServiceGateway::new(handle.clone())));
    }
    let completed = runtime.run_until(wall, linger, |node| node.is_done())?;
    if let Some((served, shipped, dropped)) = runtime.behavior().sync_counters() {
        let stats = runtime.stats_mut();
        stats.sync_requests_served = served;
        stats.sync_blocks_shipped = shipped;
        stats.sync_chunks_dropped = dropped;
    }
    // Elapsed measures up to the decision, not the post-completion linger
    // spent answering stragglers' NACKs (which would deflate throughput).
    let elapsed = runtime
        .completed_at()
        .unwrap_or_else(|| runtime.now())
        .saturating_since(SimTime::ZERO);
    let node = runtime.behavior();
    let decision_times = vec![node.clock().completed.clone()];
    let total_txs: u64 = node.blocks().iter().map(|b| b.txs.len() as u64).sum();
    // A service node runs however many epochs the load takes.
    let epochs = if service.is_some() { node.blocks().len() as u64 } else { cfg.epochs };
    let mut report = finish_report(
        completed,
        elapsed,
        decision_times,
        total_txs,
        runtime.metrics().clone(),
        epochs,
    );
    // Only this process's metrics row is populated, so the cluster mean
    // would understate by n×; "per node" in a UDP report means *this* node.
    report.channel_accesses_per_node =
        report.metrics.node(wbft_wireless::NodeId(me as u16)).channel_accesses as f64;
    report.service = service.map(|(_, handle)| ServiceReport::aggregate(&[handle.stats()]));
    let digests = block_digests(node.blocks());
    Ok(UdpNodeOutcome { report, stats: runtime.stats().clone(), block_digests: digests })
}

// ------------------------------------------------------------------
// Live-service node: client submissions over UDP, streaming commits.

/// The UDP gateway between external clients and one node's
/// [`ConsensusHandle`]: submissions are admitted into the mempool (with an
/// explicit verdict reply), subscribers receive every committed block as a
/// digest summary, and a `Stop` message requests the graceful shutdown.
///
/// Client traffic is unauthenticated UDP, so the gateway bounds what a
/// spoofed source can cost: the subscriber list is capped, and the
/// from-the-start catch-up replay runs only when an address is *newly*
/// subscribed — repeated `Subscribe` datagrams are acks, not replays.
///
/// Subscribers are *evicted*, not kept forever: an address whose sends
/// keep failing ([`SUBSCRIBER_FAILURE_LIMIT`] failures since its last
/// `Subscribe`) is dropped, and a `Subscribe` arriving at a full table displaces the
/// oldest subscriber instead of being refused — otherwise 64 stale
/// addresses would permanently block every new subscriber while the node
/// re-sends each block to dead peers forever. A repeated `Subscribe` from
/// a live subscriber resets its failure count (it is plainly reachable).
pub struct ServiceGateway {
    handle: ConsensusHandle,
    /// Subscribed addresses with their failed-send counts (reset by a
    /// repeated `Subscribe`), in subscription order (front = oldest =
    /// first LRU victim).
    subscribers: Vec<(SocketAddr, u32)>,
    /// How many committed blocks have been pushed to subscribers.
    cursor: usize,
    /// Addresses evicted so far (failure- or LRU-triggered), mirrored
    /// into [`TransportStats::client_evictions`].
    evicted: u64,
}

/// Most subscriber addresses one gateway serves. A `Subscribe` past the
/// cap evicts the oldest subscriber — an unauthenticated spoofing flood
/// still cannot grow node memory or turn the commit stream into an
/// amplification vector, but it can no longer pin the table full either.
pub const MAX_SUBSCRIBERS: usize = 64;

/// Failed sends (since the address's last `Subscribe`) after which a
/// subscriber is evicted.
pub const SUBSCRIBER_FAILURE_LIMIT: u32 = 3;

impl ServiceGateway {
    /// Wraps a handle.
    pub fn new(handle: ConsensusHandle) -> Self {
        ServiceGateway { handle, subscribers: Vec::new(), cursor: 0, evicted: 0 }
    }

    /// Current subscriber addresses, oldest first (test hook).
    pub fn subscriber_addrs(&self) -> Vec<SocketAddr> {
        self.subscribers.iter().map(|(addr, _)| *addr).collect()
    }

    /// Encodes one block summary as chunked `Block` messages (a block with
    /// more digests than one datagram carries is split, same epoch).
    fn block_msgs(summary: &crate::service::BlockSummary) -> Vec<bytes::Bytes> {
        let digests: Vec<[u8; 32]> = summary.digests.iter().map(|d| d.0).collect();
        let chunks: Vec<&[[u8; 32]]> = if digests.is_empty() {
            vec![&digests[..]]
        } else {
            digests.chunks(wbft_transport::client::MAX_BLOCK_DIGESTS).collect()
        };
        chunks
            .into_iter()
            .filter_map(|chunk| {
                ClientMsg::Block { epoch: summary.epoch, digests: chunk.to_vec() }
                    .encode()
                    .ok()
            })
            .collect()
    }
}

impl ClientGateway for ServiceGateway {
    fn on_datagram(
        &mut self,
        from: SocketAddr,
        payload: &bytes::Bytes,
        now: SimTime,
        out: &mut Vec<(SocketAddr, bytes::Bytes)>,
    ) {
        // Malformed client payloads are dropped silently — clients are
        // untrusted and UDP is lossy by contract.
        let Some(msg) = ClientMsg::decode(payload) else { return };
        match msg {
            ClientMsg::Submit { tx } => {
                let digest = crate::service::tx_digest(&tx);
                let verdict = match self.handle.submit(tx, now) {
                    AdmitOutcome::Admitted => SubmitVerdict::Admitted,
                    AdmitOutcome::Duplicate => SubmitVerdict::Duplicate,
                    AdmitOutcome::Full => SubmitVerdict::Full,
                    AdmitOutcome::TooLarge => SubmitVerdict::TooLarge,
                };
                let reply = ClientMsg::SubmitReply { verdict, digest: digest.0 };
                if let Ok(bytes) = reply.encode() {
                    out.push((from, bytes));
                }
            }
            ClientMsg::Subscribe => {
                if let Some(entry) =
                    self.subscribers.iter_mut().find(|(addr, _)| *addr == from)
                {
                    // Already subscribed: the stream is flowing; treating a
                    // repeat as a fresh catch-up would let one spoofed
                    // address request O(chain) datagrams per probe. It does
                    // prove the address alive, so forgive past failures.
                    entry.1 = 0;
                    return;
                }
                if self.subscribers.len() >= MAX_SUBSCRIBERS {
                    // Full table: displace the oldest subscriber rather
                    // than refusing — a cap of stale addresses must not
                    // lock new clients out forever.
                    self.subscribers.remove(0);
                    self.evicted += 1;
                }
                self.subscribers.push((from, 0));
                // A late subscriber catches up from the stream start.
                for summary in self.handle.block_summaries(0) {
                    for bytes in Self::block_msgs(&summary) {
                        out.push((from, bytes));
                    }
                }
            }
            ClientMsg::Stop => self.handle.stop(),
            // Node→client messages arriving here are client bugs; ignore.
            ClientMsg::SubmitReply { .. } | ClientMsg::Block { .. } => {}
        }
    }

    fn on_tick(&mut self, _now: SimTime, out: &mut Vec<(SocketAddr, bytes::Bytes)>) {
        let fresh = self.handle.block_summaries(self.cursor);
        self.cursor += fresh.len();
        for summary in fresh {
            for bytes in Self::block_msgs(&summary) {
                for &(addr, _) in &self.subscribers {
                    out.push((addr, bytes.clone()));
                }
            }
        }
    }

    fn on_send_failed(&mut self, addr: SocketAddr) {
        let Some(i) = self.subscribers.iter().position(|(a, _)| *a == addr) else {
            // Failures toward non-subscribers (submit replies) carry no
            // state to clean up.
            return;
        };
        self.subscribers[i].1 += 1;
        if self.subscribers[i].1 >= SUBSCRIBER_FAILURE_LIMIT {
            self.subscribers.remove(i);
            self.evicted += 1;
        }
    }

    fn evictions(&self) -> u64 {
        self.evicted
    }
}

/// Bounds and sizing of one UDP service node.
#[derive(Clone, Debug)]
pub struct ServiceNodeOpts {
    /// Wall-clock budget — the hard duration guard: the node exits when it
    /// passes even if the mempool never drains or the stop never arrives.
    pub wall: Duration,
    /// Post-completion linger serving peers' NACKs, anti-entropy digest
    /// requests, and late subscribers.
    pub linger: Duration,
    /// Hard epoch bound (the other half of the CI guard).
    pub max_epochs: u64,
    /// Mempool capacity.
    pub mempool_capacity: usize,
    /// Durable block journal path. When set, every committed block is
    /// appended before the run reports it, and a restart replays the
    /// journal: recovered blocks re-enter the block stream and the mempool
    /// dedup set, and the engine resumes from the recovered epoch.
    pub journal: Option<std::path::PathBuf>,
    /// Node ids the startup barrier must not wait for: designated late
    /// joiners whose processes start mid-run and catch up over the
    /// anti-entropy sync channel. Empty for an ordinary node.
    pub late_peers: Vec<u16>,
}

/// Runs node `me` of a single-hop `cfg` deployment as a live consensus
/// service over UDP: proposals pull from a client-fed mempool (submissions
/// arrive on the reserved client channel), committed blocks stream to
/// subscribers, and the run ends on a client `Stop`, `opts.max_epochs`, or
/// `opts.wall` — whichever comes first. The report carries a
/// [`ServiceReport`] with this node's commit-latency percentiles and
/// backpressure counters.
///
/// # Errors
///
/// As [`run_udp_node`], plus socket errors.
pub fn run_udp_service_node(
    cfg: &TestbedConfig,
    peers: PeerTable,
    me: usize,
    opts: &ServiceNodeOpts,
) -> io::Result<UdpNodeOutcome> {
    run_node(cfg, peers, me, opts.wall, opts.linger, Some(opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Protocol;

    fn small_cfg() -> TestbedConfig {
        let mut cfg = TestbedConfig::single_hop(Protocol::HoneyBadgerSc);
        cfg.epochs = 1;
        cfg.workload.batch_size = 4;
        cfg
    }

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    fn subscribe(gw: &mut ServiceGateway, port: u16) {
        let msg = ClientMsg::Subscribe.encode().unwrap();
        let mut out = Vec::new();
        gw.on_datagram(addr(port), &msg, SimTime::ZERO, &mut out);
    }

    #[test]
    fn full_subscriber_table_evicts_the_oldest_not_the_newcomer() {
        // The bug this guards against: the table silently dropped every
        // Subscribe past the cap, so 64 stale addresses blocked new
        // subscribers permanently.
        let mut gw = ServiceGateway::new(ConsensusHandle::new(8));
        for i in 0..MAX_SUBSCRIBERS as u16 {
            subscribe(&mut gw, 40_000 + i);
        }
        assert_eq!(gw.subscriber_addrs().len(), MAX_SUBSCRIBERS);
        assert_eq!(gw.evictions(), 0);
        subscribe(&mut gw, 41_000);
        let addrs = gw.subscriber_addrs();
        assert_eq!(addrs.len(), MAX_SUBSCRIBERS, "cap still holds");
        assert!(!addrs.contains(&addr(40_000)), "oldest subscriber displaced");
        assert!(addrs.contains(&addr(41_000)), "newcomer admitted");
        assert_eq!(gw.evictions(), 1);
    }

    #[test]
    fn repeated_send_failures_evict_a_subscriber() {
        // The bug this guards against: a dead subscriber was re-sent every
        // committed block forever — no failure count, no eviction.
        let handle = ConsensusHandle::new(8);
        let mut gw = ServiceGateway::new(handle.clone());
        subscribe(&mut gw, 42_000);
        subscribe(&mut gw, 42_001);
        for _ in 0..SUBSCRIBER_FAILURE_LIMIT - 1 {
            gw.on_send_failed(addr(42_000));
        }
        assert_eq!(gw.subscriber_addrs().len(), 2, "below the limit: kept");
        // A re-Subscribe proves the address alive and forgives failures.
        subscribe(&mut gw, 42_000);
        for _ in 0..SUBSCRIBER_FAILURE_LIMIT - 1 {
            gw.on_send_failed(addr(42_000));
        }
        assert_eq!(gw.subscriber_addrs().len(), 2, "count was reset");
        gw.on_send_failed(addr(42_000));
        assert_eq!(gw.subscriber_addrs(), vec![addr(42_001)], "limit reached: evicted");
        assert_eq!(gw.evictions(), 1);
        // Failures toward non-subscribers (submit replies) are no-ops.
        gw.on_send_failed(addr(49_999));
        assert_eq!(gw.evictions(), 1);
    }

    #[test]
    fn rejects_simulator_only_axes_and_size_mismatch() {
        use crate::testbed::{ChurnPlan, CrashEvent, CrashPlan};
        use wbft_membership::MembershipOp;
        let table = PeerTable::loopback(&[47101, 47102, 47103, 47104]);
        // Every axis the runtime would otherwise silently run without.
        type Mutation = fn(&mut TestbedConfig);
        let refused: [(Mutation, &str); 6] = [
            (|c| c.clusters = Some(4), "multi-hop"),
            (|c| c.byzantine = vec![(1, crate::ByzantineMode::Silent)], "Byzantine"),
            (
                |c| {
                    c.crash = Some(CrashPlan {
                        crashes: vec![CrashEvent { node: 1, at_us: 1, restart_us: 2 }],
                    })
                },
                "crash plans",
            ),
            (
                |c| {
                    c.epochs = 4;
                    c.churn = Some(ChurnPlan {
                        from_epoch: 0,
                        ops: vec![MembershipOp::Join(4), MembershipOp::Leave(0)],
                    })
                },
                "churn plans",
            ),
            (
                |c| {
                    c.sched = Some(wbft_wireless::SchedConfig {
                        seed: 1,
                        budget: wbft_wireless::SimDuration::from_secs(2),
                        policy: wbft_wireless::SchedPolicy::Reorder { p: 0.5 },
                    })
                },
                "delivery schedulers",
            ),
            // What `check` itself refuses surfaces the same way.
            (|c| c.pipeline_depth = 0, "invalid pipeline depth"),
        ];
        for (mutate, reason) in refused {
            let mut cfg = small_cfg();
            mutate(&mut cfg);
            let opts = ServiceNodeOpts {
                wall: Duration::ZERO,
                linger: Duration::ZERO,
                max_epochs: 1,
                mempool_capacity: 8,
                journal: None,
                late_peers: Vec::new(),
            };
            for outcome in [
                run_udp_node(&cfg, table.clone(), 0, Duration::ZERO, Duration::ZERO),
                run_udp_service_node(&cfg, table.clone(), 0, &opts),
            ] {
                let err = outcome.unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
                assert!(err.to_string().contains(reason), "{err} lacks {reason:?}");
            }
        }
        let cfg = small_cfg();
        assert!(run_udp_node(&cfg, PeerTable::loopback(&[1, 2]), 0, Duration::ZERO, Duration::ZERO)
            .is_err());
        assert!(run_udp_node(&cfg, table, 9, Duration::ZERO, Duration::ZERO).is_err());
    }

    /// Full in-process integration: four UDP runtimes on loopback threads
    /// commit a HoneyBadger epoch with unmodified protocol code.
    #[test]
    fn four_threads_commit_an_epoch_over_loopback() {
        let cfg = small_cfg();
        let sockets: Vec<std::net::UdpSocket> =
            (0..4).map(|_| std::net::UdpSocket::bind("127.0.0.1:0").unwrap()).collect();
        let ports: Vec<u16> =
            sockets.iter().map(|s| s.local_addr().unwrap().port()).collect();
        drop(sockets);
        let table = PeerTable::loopback(&ports);
        let handles: Vec<_> = (0..4)
            .map(|me| {
                let cfg = cfg.clone();
                let table = table.clone();
                std::thread::spawn(move || {
                    run_udp_node(
                        &cfg,
                        table,
                        me,
                        Duration::from_secs(120),
                        Duration::from_secs(3),
                    )
                    .unwrap()
                })
            })
            .collect();
        let outcomes: Vec<UdpNodeOutcome> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (me, out) in outcomes.iter().enumerate() {
            assert!(out.report.completed, "node {me} did not complete");
            assert!(out.report.total_txs > 0, "node {me} committed nothing");
        }
        // Agreement: every node committed the same transaction count.
        let txs: Vec<u64> = outcomes.iter().map(|o| o.report.total_txs).collect();
        assert!(txs.windows(2).all(|w| w[0] == w[1]), "disagreement: {txs:?}");
    }
}
