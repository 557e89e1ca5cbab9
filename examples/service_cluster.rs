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

use std::net::{SocketAddr, UdpSocket};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

#[path = "support/mod.rs"]
mod support;
use support::{allocate_loopback_table, wait_all};
use wbft_consensus::netrun::{run_udp_service_node, ServiceNodeOpts};
use wbft_consensus::report::{read_report, report_root, Scenario};
use wbft_consensus::service::tx_digest;
use wbft_consensus::{Protocol, TestbedConfig};
use wbft_crypto::hash::Digest32;
use wbft_report::{FromJson, ToJson};
use wbft_transport::{ClientMsg, PeerTable, SubmitVerdict, CLIENT_CHANNEL, CLIENT_SRC};

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
         --crash-node I@T (implies --journal) SIGKILLs node I's process T ms\n\
         into the run and respawns it — the restart must recover its journal,\n\
         catch up over anti-entropy, and end in agreement, or the launcher\n\
         exits non-zero.\n\
         --join-node I@T spawns node I's process only T ms into the run: the\n\
         rest of the committee starts (and commits) without it, the joiner\n\
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

struct ClientOutcome {
    /// Digest → submit instant of every admitted transaction.
    submitted: Vec<(Digest32, Instant)>,
    /// Per-node count of our digests seen on that node's commit stream.
    seen_per_node: Vec<usize>,
    /// End-to-end latency samples (submit → first commit notification).
    latencies_ms: Vec<u64>,
    rejected: usize,
}

/// Submits `txs` transactions to every node (paced at `interval`), reading
/// the commit streams until every submission is acknowledged by every node
/// or `deadline` passes.
fn run_client(
    addrs: &[SocketAddr],
    txs: usize,
    tx_bytes: usize,
    seed: u64,
    interval: Duration,
    deadline: Duration,
) -> ClientOutcome {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind client socket");
    socket.set_read_timeout(Some(Duration::from_millis(20))).expect("set timeout");
    let send = |addr: SocketAddr, msg: &ClientMsg| {
        let datagram = wbft_net::datagram::Datagram {
            src: CLIENT_SRC,
            channel: CLIENT_CHANNEL,
            nominal_len: 0,
            payload: msg.encode().expect("client messages fit"),
        };
        let _ = socket.send_to(&datagram.encode().expect("client frames fit"), addr);
    };
    let mut out = ClientOutcome {
        submitted: Vec::new(),
        seen_per_node: vec![0; addrs.len()],
        latencies_ms: Vec::new(),
        rejected: 0,
    };
    let start = Instant::now();
    let mut next_submit = Instant::now();
    let mut submitted = 0usize;
    let mut first_commit: Vec<Option<Instant>> = Vec::new();
    let mut buf = [0u8; 65536];
    let mut tx_bodies: Vec<bytes::Bytes> = Vec::new();
    let mut last_nudge = Instant::now() - Duration::from_secs(10);
    loop {
        // Periodically (re-)subscribe and re-send unacknowledged
        // submissions: the first datagrams race the nodes' socket binds
        // and UDP is lossy. Both are idempotent — a repeat Subscribe to an
        // already-subscribed node is ignored, and resubmission is
        // deduplicated by the mempool.
        if last_nudge.elapsed() >= Duration::from_millis(500) {
            last_nudge = Instant::now();
            for &addr in addrs {
                send(addr, &ClientMsg::Subscribe);
            }
            for (i, (_, _)) in out.submitted.iter().enumerate() {
                if first_commit[i].is_none() {
                    for &addr in addrs {
                        send(addr, &ClientMsg::Submit { tx: tx_bodies[i].clone() });
                    }
                }
            }
        }
        // Pace the open-loop submissions; each tx goes to *every* node, so
        // the run also exercises cross-proposer dedup.
        if submitted < txs && Instant::now() >= next_submit {
            let tag = Digest32::of_parts(
                "wbft/service-cluster/tx",
                &[&seed.to_le_bytes(), &(submitted as u64).to_le_bytes()],
            );
            let mut tx = Vec::with_capacity(tx_bytes);
            while tx.len() < tx_bytes {
                let take = (tx_bytes - tx.len()).min(32);
                tx.extend_from_slice(&tag.as_bytes()[..take]);
            }
            let tx = bytes::Bytes::from(tx);
            out.submitted.push((tx_digest(&tx), Instant::now()));
            first_commit.push(None);
            for &addr in addrs {
                send(addr, &ClientMsg::Submit { tx: tx.clone() });
            }
            tx_bodies.push(tx);
            submitted += 1;
            next_submit += interval;
        }
        // Drain the streams.
        if let Ok((n, from)) = socket.recv_from(&mut buf) {
            if let Ok(datagram) = wbft_net::datagram::Datagram::decode(&buf[..n]) {
                if datagram.channel == CLIENT_CHANNEL {
                    match ClientMsg::decode(&datagram.payload) {
                        Some(ClientMsg::Block { digests, .. }) => {
                            let node = addrs.iter().position(|a| *a == from);
                            for d in digests {
                                if let Some(i) =
                                    out.submitted.iter().position(|(s, _)| s.0 == d)
                                {
                                    if let Some(node) = node {
                                        out.seen_per_node[node] += 1;
                                    }
                                    if first_commit[i].is_none() {
                                        first_commit[i] = Some(Instant::now());
                                        let lat = first_commit[i]
                                            .expect("just set")
                                            .duration_since(out.submitted[i].1);
                                        out.latencies_ms.push(lat.as_millis() as u64);
                                    }
                                }
                            }
                        }
                        // Duplicate replies are expected (same tx to n
                        // nodes is admitted once per node); Full means
                        // real backpressure.
                        Some(ClientMsg::SubmitReply {
                            verdict: SubmitVerdict::Full, ..
                        }) => out.rejected += 1,
                        _ => {}
                    }
                }
            }
        }
        let all_seen = submitted == txs
            && out.seen_per_node.iter().all(|&seen| seen >= txs);
        if all_seen || start.elapsed() >= deadline {
            break;
        }
    }
    // Graceful stop — best-effort (x3 against UDP loss); the nodes' own
    // --duration/--max-epochs guards bound the run if all three are lost.
    for _ in 0..3 {
        for &addr in addrs {
            send(addr, &ClientMsg::Stop);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    out
}

// ------------------------------------------------------------------
// Launcher.

/// Parses `I@T`: node `I` at `T` milliseconds into the run (SIGKILL for
/// `--crash-node`, first spawn for `--join-node`).
fn parse_node_at(spec: &str) -> Option<(usize, u64)> {
    let (node, at) = spec.split_once('@')?;
    Some((node.parse().ok()?, at.parse().ok()?))
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p * (sorted.len() - 1) as f64).round()) as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Node mode: --node I --cluster PATH --out DIR.
    if args.first().map(String::as_str) == Some("--node") {
        let mut me = None;
        let mut cluster = None;
        let mut out = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
            match flag.as_str() {
                "--node" => me = value().parse().ok(),
                "--cluster" => cluster = Some(PathBuf::from(value())),
                "--out" => out = Some(PathBuf::from(value())),
                _ => usage(),
            }
        }
        match (me, cluster, out) {
            (Some(me), Some(cluster), Some(out)) => child_main(me, &cluster, &out),
            _ => usage(),
        }
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
    let mut crash: Option<(usize, u64)> = None;
    let mut join: Option<(usize, u64)> = None;
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
    if n < 4 || !(n - 1).is_multiple_of(3) {
        eprintln!("--n must satisfy n = 3f+1 >= 4 (4, 7, 10, ...)");
        std::process::exit(2);
    }
    if let Some((idx, _)) = crash {
        if idx >= n {
            eprintln!("--crash-node index {idx} out of range for n={n}");
            std::process::exit(2);
        }
        // A crash-restart run without a journal would restart from genesis
        // and only converge by luck; durability is the point of the drill.
        journal = true;
    }
    if let Some((idx, _)) = join {
        if idx >= n {
            eprintln!("--join-node index {idx} out of range for n={n}");
            std::process::exit(2);
        }
        if crash.is_some() {
            eprintln!("--join-node and --crash-node are separate drills; run them separately");
            std::process::exit(2);
        }
    }

    let mut cfg = TestbedConfig::single_hop(protocol);
    cfg.n = n;
    cfg.seed = seed;
    // batch_size is the per-epoch mempool pull cap in service mode.
    cfg.workload.batch_size = 16;
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
        cfg: cfg.clone(),
        peers,
        wall_secs: duration_secs,
        linger_ms,
        max_epochs,
        mempool_cap,
        journal,
        late_node: join.map(|(idx, _)| idx),
    };
    let cluster_path = dir.join("cluster.json");
    wbft_report::write_file(&cluster_path, &doc.to_json()).expect("write cluster doc");

    let exe = std::env::current_exe().expect("current exe");
    let spawn_node = |me: usize| -> Child {
        Command::new(&exe)
            .arg("--node")
            .arg(me.to_string())
            .arg("--cluster")
            .arg(&cluster_path)
            .arg("--out")
            .arg(&dir)
            .spawn()
            .unwrap_or_else(|e| fatal(&format!("spawn node {me}: {e}")))
    };
    // The late joiner (if any) is spawned by the drill schedule below, not
    // here — the point is that its process does not exist at cluster start.
    let mut children: Vec<(usize, Child)> = (0..n)
        .filter(|&me| join.map(|(idx, _)| idx) != Some(me))
        .map(|me| (me, spawn_node(me)))
        .collect();

    // Give the cluster a moment to pass its startup barrier, then drive
    // live traffic from a client thread while this thread runs the crash
    // schedule (if any).
    std::thread::sleep(Duration::from_millis(300));
    let run_started = Instant::now();
    let client_deadline = Duration::from_secs(duration_secs.saturating_sub(5).max(5));
    let client = {
        let addrs = addrs.clone();
        let interval = Duration::from_millis(interval_ms);
        std::thread::spawn(move || {
            run_client(&addrs, txs, tx_bytes, seed, interval, client_deadline)
        })
    };
    if let Some((idx, at_ms)) = crash {
        let at = Duration::from_millis(at_ms);
        std::thread::sleep(at.saturating_sub(run_started.elapsed()));
        let child = &mut children[idx].1;
        // SIGKILL, not a graceful stop: the journal's torn-tail recovery is
        // exactly the artifact a hard kill leaves behind.
        let _ = child.kill();
        let _ = child.wait();
        eprintln!("launcher: killed node {idx} at {:?}; respawning", run_started.elapsed());
        std::thread::sleep(Duration::from_millis(500));
        children[idx].1 = spawn_node(idx);
    }
    if let Some((idx, at_ms)) = join {
        let at = Duration::from_millis(at_ms);
        std::thread::sleep(at.saturating_sub(run_started.elapsed()));
        eprintln!("launcher: spawning late joiner node {idx} at {:?}", run_started.elapsed());
        children.push((idx, spawn_node(idx)));
        // Restore position == node id for the per-node bookkeeping below.
        children.sort_by_key(|&(me, _)| me);
    }
    let client = client.join().expect("client thread");
    let mut lat = client.latencies_ms.clone();
    lat.sort_unstable();
    println!(
        "client: {} submitted, {} committed (p50 {}ms, p90 {}ms, max {}ms), {} full-rejections",
        client.submitted.len(),
        lat.len(),
        percentile(&lat, 0.50),
        percentile(&lat, 0.90),
        lat.last().copied().unwrap_or(0),
        client.rejected,
    );

    let ok = wait_all(&mut children, Duration::from_secs(duration_secs + 15));
    let mut success = true;
    for (me, child_ok) in ok.iter().enumerate() {
        if !child_ok {
            eprintln!("{}: node {me} failed or committed no client txs", protocol.slug());
            success = false;
        }
    }
    if lat.len() < txs {
        eprintln!(
            "client saw only {}/{} transactions committed before the deadline",
            lat.len(),
            txs
        );
        success = false;
    }

    // Cross-check node reports: committed client txs, latency percentiles
    // present, and digest-chain prefix agreement.
    let mut chains: Vec<Vec<Digest32>> = vec![Vec::new(); n];
    for (me, chain) in chains.iter_mut().enumerate() {
        let path = dir.join(format!("node{me}.json"));
        let doc = match read_report(&path) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("unreadable report {}: {e}", path.display());
                success = false;
                continue;
            }
        };
        let report = doc.report;
        let Some(service) = report.service else {
            eprintln!("node {me}: report has no service member");
            success = false;
            continue;
        };
        println!(
            "node {me}: epochs={} client_txs={} latency p50/p90/p99 = {}/{}/{} ms, \
             peak_occupancy={} drops(full={}, dup={})",
            report.epoch_latencies.len(),
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
        let is_joiner = join.map(|(idx, _)| idx) == Some(me);
        if (service.committed_client_txs == 0 || service.latency.count == 0) && !is_joiner {
            eprintln!("node {me}: no committed client transactions");
            success = false;
        }
        match doc.block_digests {
            Some(digests) => *chain = digests,
            None => {
                eprintln!("node {me}: report missing block_digests");
                success = false;
            }
        }
    }
    // Digest-chain prefix agreement: nodes may stop one epoch apart (the
    // stop races the last commit), but the common prefix must be identical.
    for a in 0..n {
        for b in a + 1..n {
            let common = chains[a].len().min(chains[b].len());
            if common == 0 || chains[a][..common] != chains[b][..common] {
                eprintln!(
                    "AGREEMENT VIOLATION — digest chains of nodes {a}/{b} diverge: \
                     {:?} vs {:?}",
                    &chains[a][..common.min(4)],
                    &chains[b][..common.min(4)]
                );
                success = false;
            }
        }
    }
    // Convergence after the crash drill: the restarted node must have
    // recovered its journal and caught up over anti-entropy — its chain may
    // not lag behind the shortest surviving peer's.
    if let Some((idx, _)) = crash {
        let others_min = chains
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != idx)
            .map(|(_, c)| c.len())
            .min()
            .unwrap_or(0);
        if chains[idx].len() < others_min {
            eprintln!(
                "CATCH-UP FAILURE — restarted node {idx} holds {} blocks, shortest \
                 surviving peer holds {others_min}",
                chains[idx].len()
            );
            success = false;
        } else {
            println!(
                "crash drill: node {idx} restarted with {} blocks, peers hold >= {others_min}",
                chains[idx].len()
            );
        }
    }
    // Convergence after the join drill: the late joiner must have
    // bootstrapped the chain it missed over anti-entropy — its digest chain
    // may not lag behind the shortest on-time peer's (prefix agreement
    // above already proved the contents identical).
    if let Some((idx, _)) = join {
        let others_min = chains
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != idx)
            .map(|(_, c)| c.len())
            .min()
            .unwrap_or(0);
        if chains[idx].len() < others_min {
            eprintln!(
                "JOIN CATCH-UP FAILURE — late joiner {idx} holds {} blocks, shortest \
                 on-time peer holds {others_min}",
                chains[idx].len()
            );
            success = false;
        } else {
            println!(
                "join drill: node {idx} joined late with {} blocks, peers hold >= {others_min}",
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
