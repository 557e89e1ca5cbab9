//! `wbft service_cluster` — a live consensus service over loopback UDP.
//!
//! The end-to-end demonstration of the service API on real sockets: the
//! launcher spawns `n` node *processes* (each a `run_udp_service_node`
//! with an empty mempool), then acts as the **external client process**:
//! it subscribes to every node's commit stream, submits transactions over
//! UDP **mid-run** on the reserved client channel, matches the streamed
//! block digests against its submissions to measure end-to-end commit
//! latency, and finally sends a graceful `Stop`. Every node writes a
//! standard `RunReport` JSON whose `service` member carries its own
//! commit-latency percentiles and mempool backpressure counters.
//!
//! ```text
//! cargo run --release --example service_cluster -- --n 4 --protocol hb-sc \
//!     --txs 12 --interval-ms 150
//! ```
//!
//! Hard bounds (the CI guard): `--duration` caps each node's wall clock
//! and `--max-epochs` caps its epoch count, so the run terminates even if
//! the mempool never drains or the stop message is lost.
//!
//! Exit status is non-zero unless every node completes with ≥ 1 committed
//! client transaction, reports latency percentiles, and agrees with its
//! peers on the committed block *contents* (digest chains, not counts).

use std::net::SocketAddr;
use std::path::Path;
use std::process::Child;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[path = "support/mod.rs"]
mod support;
use support::{allocate_loopback_table, diverging, node_mode, read_reports, spawn_node, wait_all};
use wbft_consensus::netrun::{run_udp_service_node, ServiceNodeOpts};
use wbft_consensus::report::{report_root, Scenario};
use wbft_consensus::service::{tx_digest, LatencySummary};
use wbft_consensus::{Protocol, TestbedConfig};
use wbft_crypto::hash::Digest32;
use wbft_report::{FromJson, ToJson};
use wbft_transport::{ClientEvent, PeerTable, ServiceClient};

fn usage() -> ! {
    eprintln!(
        "usage: service_cluster [--n N] [--protocol SLUG] [--txs K] [--tx-bytes B]\n\
         \x20                      [--interval-ms MS] [--mempool-cap C] [--seed S]\n\
         \x20                      [--max-epochs E] [--duration SECS] [--out DIR]\n\
         \x20                      [--linger-ms MS] [--journal] [--crash-node I@T]\n\
         \x20                      [--join-node I@T]\n\
         \n\
         Spawns N node processes serving consensus over loopback UDP, then\n\
         submits K transactions per client wave from this (external) process,\n\
         reads the streamed commits, and stops the cluster. --duration and\n\
         --max-epochs are hard bounds so runs terminate even without a drain.\n\
         --journal gives each node a durable block journal in <out>/<slug>;\n\
         A drill acts on node I once the client has seen K of its\n\
         transactions commit.\n\
         --crash-node I@K (implies --journal) SIGKILLs node I's process and\n\
         respawns it — the restart must recover its journal, catch up over\n\
         anti-entropy, and end in agreement, or the launcher exits non-zero.\n\
         --join-node I@K spawns node I's process only then: the rest of\n\
         the committee starts (and commits) without it, the joiner\n\
         bootstraps the missed chain over the anti-entropy sync channel, and\n\
         its digest chain must converge with the original committee's.\n\
         Reports: <out>/<slug>/node<i>.json (RunReport + service stats)"
    );
    std::process::exit(2);
}

fn fatal(msg: &str) -> ! {
    eprintln!("service_cluster: {msg}");
    std::process::exit(1);
}

/// Everything a node process needs, in one JSON document.
struct ClusterDoc {
    cfg: TestbedConfig,
    peers: PeerTable,
    wall_secs: u64,
    linger_ms: u64,
    max_epochs: u64,
    mempool_cap: u64,
    /// Each node journals committed blocks to `<out>/node<i>.journal` and
    /// recovers from it on (re)start.
    journal: bool,
    /// Designated late joiner (the `--join-node` drill): every other node
    /// excludes this id from its startup barrier, and the joiner itself is
    /// judged on chain convergence rather than fresh client commits.
    late_node: Option<usize>,
}

wbft_report::json_record! {
    ClusterDoc {
        cfg as "config",
        peers,
        wall_secs,
        linger_ms,
        max_epochs,
        mempool_cap,
        journal,
        late_node = None,
    }
}

// ------------------------------------------------------------------
// Node (child) mode.

fn child_main(me: usize, cluster_path: &Path, out_dir: &Path) -> ! {
    let doc = wbft_report::read_file(cluster_path)
        .unwrap_or_else(|e| fatal(&format!("read {}: {e}", cluster_path.display())));
    let doc = ClusterDoc::from_json(&doc)
        .unwrap_or_else(|e| fatal(&format!("parse {}: {e}", cluster_path.display())));
    let opts = ServiceNodeOpts {
        wall: Duration::from_secs(doc.wall_secs),
        linger: Duration::from_millis(doc.linger_ms),
        max_epochs: doc.max_epochs,
        mempool_capacity: doc.mempool_cap as usize,
        journal: doc.journal.then(|| out_dir.join(format!("node{me}.journal"))),
        // The on-time committee must not wait at the startup barrier for a
        // joiner whose process does not exist yet.
        late_peers: match doc.late_node {
            Some(late) if late != me => vec![late as u16],
            _ => Vec::new(),
        },
    };
    let outcome = run_udp_service_node(&doc.cfg, doc.peers, me, &opts)
        .unwrap_or_else(|e| fatal(&format!("node {me}: {e}")));
    let service = outcome.report.service.clone().expect("service node reports service stats");
    let label = format!("service.{}.node{me}", doc.cfg.protocol.slug());
    // Embed the service parameters in the written config so the report
    // artifact self-describes the pool/epoch bounds it ran under (arrivals
    // came over UDP, not a schedule — hence per_node 0).
    let mut cfg = doc.cfg.clone();
    cfg.service = Some(wbft_consensus::ServiceConfig {
        arrivals: wbft_consensus::ArrivalSpec {
            per_node: 0,
            interval_us: 0,
            tx_bytes: 0,
            seed: doc.cfg.seed,
        },
        mempool_capacity: doc.mempool_cap as usize,
        max_epochs: doc.max_epochs,
    });
    // Per-block content digests ride along so the launcher can check the
    // nodes agree on what they committed, not merely on how much.
    let scenario = Scenario {
        label,
        config: cfg,
        report: outcome.report.clone(),
        block_digests: Some(outcome.block_digests.clone()),
    };
    let report_path = out_dir.join(format!("node{me}.json"));
    wbft_report::write_file(&report_path, &scenario.to_json())
        .unwrap_or_else(|e| fatal(&format!("write {}: {e}", report_path.display())));
    eprintln!(
        "node {me}: completed={} epochs={} client_txs={} p50={}us pending={} drops(full={})",
        outcome.report.completed,
        outcome.report.epoch_latencies.len(),
        service.committed_client_txs,
        service.latency.p50_us,
        service.pending_at_stop,
        service.rejected_full,
    );
    // The node is considered successful when it served at least one client
    // transaction to commit; the hard bounds may have cut the run short. A
    // journaled restart — or a late joiner whose whole chain arrived over
    // anti-entropy — may legitimately commit nothing new itself, so there a
    // non-empty chain counts; the launcher separately enforces that the
    // chain agrees with and keeps up with the peers'.
    let lenient = doc.journal || doc.late_node == Some(me);
    let ok = service.committed_client_txs >= 1
        || (lenient && !outcome.block_digests.is_empty());
    std::process::exit(if ok { 0 } else { 3 });
}

// ------------------------------------------------------------------
// Client side (runs in the launcher process — external to every node).

/// Submits `txs` transactions to every node (paced at `interval`), reading
/// the commit streams until every node has streamed back every submission
/// or `deadline` passes, then stops the cluster. `committed` counts the
/// transactions seen committed (the drills' trigger). Returns that count.
fn run_client(
    addrs: &[SocketAddr],
    txs: usize,
    tx_bytes: usize,
    seed: u64,
    interval: Duration,
    deadline: Duration,
    committed: &AtomicUsize,
) -> usize {
    let mut client = ServiceClient::bind(addrs).expect("bind client socket");
    let start = Instant::now();
    let mut next_submit = start;
    // Submit instant of each transaction not yet seen committed.
    let mut pending: Vec<Option<Instant>> = Vec::new();
    let mut latencies_us = Vec::new();
    let mut rejected = 0usize;
    loop {
        client.nudge();
        // Pace the open-loop submissions; each tx goes to *every* node, so
        // the run also exercises cross-proposer dedup.
        if pending.len() < txs && Instant::now() >= next_submit {
            let tag = Digest32::of_parts(
                "wbft/service-cluster/tx",
                &[&seed.to_le_bytes(), &(pending.len() as u64).to_le_bytes()],
            );
            let mut tx = Vec::with_capacity(tx_bytes);
            while tx.len() < tx_bytes {
                let take = (tx_bytes - tx.len()).min(32);
                tx.extend_from_slice(&tag.as_bytes()[..take]);
            }
            let tx = bytes::Bytes::from(tx);
            let digest = tx_digest(&tx).0;
            pending.push(Some(Instant::now()));
            client.submit(tx, digest).expect("a transaction fits one datagram");
            next_submit += interval;
        }
        for event in client.poll() {
            match event {
                ClientEvent::Committed { tx, .. } => {
                    if let Some(at) = pending[tx].take() {
                        latencies_us.push(at.elapsed().as_micros() as u64);
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Real backpressure (a duplicate verdict is expected: each
                // tx goes to every node, and again until one streams it back).
                ClientEvent::Full => rejected += 1,
            }
        }
        if (pending.len() == txs && client.all_seen()) || start.elapsed() >= deadline {
            break;
        }
    }
    // Graceful stop — best-effort (x3 against UDP loss); the nodes' own
    // --duration/--max-epochs guards bound the run if all three are lost.
    client.stop(3, Duration::from_millis(50));
    let lat = LatencySummary::from_samples(&latencies_us);
    println!(
        "client: {} submitted, {} committed (p50 {}ms, p90 {}ms, max {}ms), {} full-rejections",
        pending.len(),
        lat.count,
        lat.p50_us / 1_000,
        lat.p90_us / 1_000,
        lat.max_us / 1_000,
        rejected,
    );
    latencies_us.len()
}

// ------------------------------------------------------------------
// Launcher.

/// Parses `I@K`: node `I`, once the client has seen `K` transactions
/// commit (SIGKILL for `--crash-node`, first spawn for `--join-node`).
fn parse_node_at(spec: &str) -> Option<(usize, usize)> {
    let (node, at) = spec.split_once('@')?;
    Some((node.parse().ok()?, at.parse().ok()?))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some((me, cluster, out)) = node_mode(&args) {
        child_main(me, &cluster, &out);
    }

    let mut n = 4usize;
    let mut protocol = Protocol::HoneyBadgerSc;
    let mut txs = 12usize;
    let mut tx_bytes = 32usize;
    let mut interval_ms = 150u64;
    let mut mempool_cap = 256u64;
    let mut seed = 7u64;
    let mut max_epochs = 100_000u64;
    let mut duration_secs = 90u64;
    let mut linger_ms = 2_000u64;
    let mut journal = false;
    let mut crash: Option<(usize, usize)> = None;
    let mut join: Option<(usize, usize)> = None;
    let mut out = report_root().join("service");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match flag.as_str() {
            "--n" => n = value().parse().unwrap_or_else(|_| usage()),
            "--protocol" => {
                protocol = Protocol::from_slug(value()).unwrap_or_else(|| usage())
            }
            "--txs" => txs = value().parse().unwrap_or_else(|_| usage()),
            "--tx-bytes" => tx_bytes = value().parse().unwrap_or_else(|_| usage()),
            "--interval-ms" => interval_ms = value().parse().unwrap_or_else(|_| usage()),
            "--mempool-cap" => mempool_cap = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--max-epochs" => max_epochs = value().parse().unwrap_or_else(|_| usage()),
            "--duration" => duration_secs = value().parse().unwrap_or_else(|_| usage()),
            "--linger-ms" => linger_ms = value().parse().unwrap_or_else(|_| usage()),
            "--journal" => journal = true,
            "--crash-node" => crash = Some(parse_node_at(value()).unwrap_or_else(|| usage())),
            "--join-node" => join = Some(parse_node_at(value()).unwrap_or_else(|| usage())),
            "--out" => out = value().into(),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let mut cfg = TestbedConfig::single_hop(protocol);
    cfg.n = n;
    cfg.seed = seed;
    // batch_size is the per-epoch mempool pull cap in service mode.
    cfg.workload.batch_size = 16;
    if let Err(reason) = cfg.check() {
        eprintln!("service_cluster: {reason}");
        std::process::exit(2);
    }
    if crash.is_some() && join.is_some() {
        eprintln!("--join-node and --crash-node are separate drills; run them separately");
        std::process::exit(2);
    }
    let drill = crash.or(join);
    if let Some((idx, _)) = drill.filter(|&(idx, _)| idx >= n) {
        eprintln!("drill node index {idx} out of range for n={n}");
        std::process::exit(2);
    }
    // A crash-restart run without a journal would restart from genesis and
    // only converge by luck; durability is the point of the drill.
    journal |= crash.is_some();
    let late_node = join.map(|(idx, _)| idx);
    let peers = allocate_loopback_table(n);
    let addrs: Vec<SocketAddr> =
        (0..n as u16).map(|i| peers.addr_of(i).expect("dense table")).collect();

    let dir = out.join(protocol.slug());
    std::fs::create_dir_all(&dir).expect("create out dir");
    if journal {
        // A journal left over from a previous invocation would make the
        // fresh run recover a stale chain and immediately diverge.
        for me in 0..n {
            let _ = std::fs::remove_file(dir.join(format!("node{me}.journal")));
        }
    }
    let doc = ClusterDoc {
        cfg,
        peers,
        wall_secs: duration_secs,
        linger_ms,
        max_epochs,
        mempool_cap,
        journal,
        late_node,
    };
    let cluster_path = dir.join("cluster.json");
    wbft_report::write_file(&cluster_path, &doc.to_json()).expect("write cluster doc");

    // The late joiner (if any) is spawned by the drill below, not here —
    // the point is that its process does not exist at cluster start.
    let mut children: Vec<(usize, Child)> = (0..n)
        .filter(|&me| late_node != Some(me))
        .map(|me| (me, spawn_node(me, &cluster_path, &dir)))
        .collect();

    // Give the cluster a moment to pass its startup barrier, then drive
    // live traffic from a client thread while this thread runs the drill
    // (if any).
    std::thread::sleep(Duration::from_millis(300));
    let run_started = Instant::now();
    let client_deadline = Duration::from_secs(duration_secs.saturating_sub(5).max(5));
    let committed = Arc::new(AtomicUsize::new(0));
    let client = {
        let addrs = addrs.clone();
        let interval = Duration::from_millis(interval_ms);
        let committed = Arc::clone(&committed);
        std::thread::spawn(move || {
            run_client(&addrs, txs, tx_bytes, seed, interval, client_deadline, &committed)
        })
    };
    // A drill fires on the client's progress, not on the wall clock, so it
    // lands mid-load however fast the host is.
    if let Some((idx, at)) = drill {
        while committed.load(Ordering::Relaxed) < at && !client.is_finished() {
            std::thread::sleep(Duration::from_millis(10));
        }
        let when = format!(
            "after {} commits, {:?} into the run",
            committed.load(Ordering::Relaxed),
            run_started.elapsed()
        );
        if crash.is_some() {
            let child = &mut children[idx].1;
            // SIGKILL, not a graceful stop: the journal's torn-tail recovery
            // is exactly the artifact a hard kill leaves behind.
            let _ = child.kill();
            let _ = child.wait();
            eprintln!("launcher: killed node {idx} {when}; respawning");
            std::thread::sleep(Duration::from_millis(500));
            children[idx].1 = spawn_node(idx, &cluster_path, &dir);
        } else {
            eprintln!("launcher: spawning late joiner node {idx} {when}");
            children.push((idx, spawn_node(idx, &cluster_path, &dir)));
            // Restore position == node id for the per-node bookkeeping below.
            children.sort_by_key(|&(me, _)| me);
        }
    }
    let client_committed = client.join().expect("client thread");

    let ok = wait_all(&mut children, Duration::from_secs(duration_secs + 15));
    let mut success = true;
    for (me, child_ok) in ok.iter().enumerate() {
        if !child_ok {
            eprintln!("{}: node {me} failed or committed no client txs", protocol.slug());
            success = false;
        }
    }
    if client_committed < txs {
        eprintln!(
            "client saw only {client_committed}/{txs} transactions committed before the deadline"
        );
        success = false;
    }

    // Cross-check node reports: committed client txs, latency percentiles
    // present, and digest-chain prefix agreement.
    let mut chains: Vec<Vec<Digest32>> = vec![Vec::new(); n];
    for (me, (slot, read)) in chains.iter_mut().zip(read_reports(&dir, n)).enumerate() {
        let Some((doc, chain)) = read else {
            success = false;
            continue;
        };
        *slot = chain;
        let Some(service) = doc.report.service else {
            eprintln!("node {me}: report has no service member");
            success = false;
            continue;
        };
        println!(
            "node {me}: epochs={} client_txs={} latency p50/p90/p99 = {}/{}/{} ms, \
             peak_occupancy={} drops(full={}, dup={})",
            doc.report.epoch_latencies.len(),
            service.committed_client_txs,
            service.latency.p50_us / 1_000,
            service.latency.p90_us / 1_000,
            service.latency.p99_us / 1_000,
            service.peak_occupancy,
            service.rejected_full,
            service.rejected_dup,
        );
        // The late joiner's chain may be all anti-entropy catch-up (no fresh
        // commits of its own); the join drill judges it on chain
        // convergence below instead.
        if (service.committed_client_txs == 0 || service.latency.count == 0)
            && late_node != Some(me)
        {
            eprintln!("node {me}: no committed client transactions");
            success = false;
        }
    }
    // Digest-chain prefix agreement: nodes may stop one epoch apart (the
    // stop races the last commit), but the common prefix must be identical.
    if let Some((a, b)) = diverging(&chains) {
        let common = chains[a].len().min(chains[b].len()).min(4);
        eprintln!(
            "AGREEMENT VIOLATION — digest chains of nodes {a}/{b} diverge: {:?} vs {:?}",
            &chains[a][..common],
            &chains[b][..common]
        );
        success = false;
    }
    // Convergence after a drill: the restarted node must have recovered its
    // journal, and the late joiner bootstrapped the chain it missed, over
    // anti-entropy — its chain may not lag behind the shortest other one
    // (prefix agreement above already proved the contents identical).
    if let Some((idx, _)) = drill {
        let others_min = (0..n).filter(|&i| i != idx).map(|i| chains[i].len()).min().unwrap_or(0);
        let (drill, node) =
            if crash.is_some() { ("crash", "restarted node") } else { ("join", "late joiner") };
        if chains[idx].len() < others_min {
            eprintln!(
                "CATCH-UP FAILURE — {node} {idx} holds {} blocks, the shortest other \
                 chain {others_min}",
                chains[idx].len()
            );
            success = false;
        } else {
            println!(
                "{drill} drill: {node} {idx} holds {} blocks, the others >= {others_min}",
                chains[idx].len()
            );
        }
    }
    if success {
        println!(
            "{}: {} nodes served {} live client txs over loopback UDP and agreed on contents",
            protocol.slug(),
            n,
            txs
        );
    }
    std::process::exit(if success { 0 } else { 1 });
}
