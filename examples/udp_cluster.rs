//! `wbft udp_cluster` — multi-process consensus over loopback UDP.
//!
//! The launcher (default mode) allocates loopback ports, writes one
//! cluster document (testbed config + peer table) per protocol, spawns
//! `n` child *processes* of this same binary, and waits for them. Each
//! child binds its UDP socket, deals the shared deterministic key material
//! from the config seed, and runs the **unmodified** `NodeBehavior`
//! protocol code over real sockets via `wbft_consensus::netrun` /
//! `wbft-transport`, writing one `RunReport` JSON per node. The launcher
//! then cross-checks the reports: every node must complete and commit the
//! same transaction count.
//!
//! ```text
//! cargo run --release --example udp_cluster -- --n 4 --protocols hb-sc,dumbo-sc
//! cargo run --release --example udp_cluster -- --protocols beat --epochs 2 --batch 16
//! ```
//!
//! Reports land under `--out` (default `target/reports/udp/`), one
//! `<slug>/node<i>.json` per node, in the same schema sweep reports use.
//! Exit status is non-zero on any missing/empty report, child failure,
//! disagreement, or timeout — the CI loopback smoke step relies on that.

use std::path::Path;
use std::process::Child;
use std::time::Duration;

#[path = "support/mod.rs"]
mod support;
use support::{allocate_loopback_table, diverging, node_mode, read_reports, spawn_node, wait_all};
use wbft_consensus::netrun::run_udp_node;
use wbft_consensus::report::{report_root, Scenario};
use wbft_consensus::{Protocol, TestbedConfig};
use wbft_crypto::hash::Digest32;
use wbft_report::{FromJson, ToJson};
use wbft_transport::PeerTable;

fn usage() -> ! {
    eprintln!(
        "usage: udp_cluster [--n N] [--protocols LIST] [--epochs E] [--batch B]\n\
         \x20                  [--seed S] [--out DIR] [--wall-secs W]\n\
         \n\
         Spawns N local processes per protocol and runs consensus over\n\
         loopback UDP. N must satisfy n = 3f+1 (4, 7, 10, ...). Default\n\
         protocols: hb-sc,dumbo-sc. Reports: <out>/<slug>/node<i>.json"
    );
    std::process::exit(2);
}

/// Everything a child process needs, in one JSON document.
struct ClusterDoc {
    cfg: TestbedConfig,
    peers: PeerTable,
    wall_secs: u64,
    linger_ms: u64,
}

wbft_report::json_record! {
    ClusterDoc { cfg as "config", peers, wall_secs, linger_ms }
}

fn child_main(me: usize, cluster_path: &Path, out_dir: &Path) -> ! {
    let doc = wbft_report::read_file(cluster_path)
        .unwrap_or_else(|e| fatal(&format!("read {}: {e}", cluster_path.display())));
    let doc = ClusterDoc::from_json(&doc)
        .unwrap_or_else(|e| fatal(&format!("parse {}: {e}", cluster_path.display())));
    let outcome = run_udp_node(
        &doc.cfg,
        doc.peers,
        me,
        Duration::from_secs(doc.wall_secs),
        Duration::from_millis(doc.linger_ms),
    )
    .unwrap_or_else(|e| fatal(&format!("node {me}: {e}")));
    let label = format!("udp.{}.node{me}", doc.cfg.protocol.slug());
    let report_path = out_dir.join(format!("node{me}.json"));
    // Per-block content digests: the launcher compares these across nodes,
    // so divergent-but-equal-sized commits fail loudly.
    let scenario = Scenario {
        label,
        config: doc.cfg,
        report: outcome.report.clone(),
        block_digests: Some(outcome.block_digests),
    };
    wbft_report::write_file(&report_path, &scenario.to_json())
        .unwrap_or_else(|e| fatal(&format!("write {}: {e}", report_path.display())));
    eprintln!(
        "node {me}: completed={} txs={} accesses={} drops(malformed={}, foreign={})",
        outcome.report.completed,
        outcome.report.total_txs,
        outcome.report.metrics.total_channel_accesses(),
        outcome.stats.drops_malformed,
        outcome.stats.drops_foreign,
    );
    // Report written either way; the exit code tells the launcher whether
    // this node finished its epochs.
    std::process::exit(if outcome.report.completed { 0 } else { 3 });
}

fn fatal(msg: &str) -> ! {
    eprintln!("udp_cluster: {msg}");
    std::process::exit(1);
}

/// Runs one protocol's cluster; returns `true` on full success.
fn run_cluster(cfg: &TestbedConfig, out_dir: &Path, wall_secs: u64) -> bool {
    let slug = cfg.protocol.slug();
    let peers = allocate_loopback_table(cfg.n);
    let doc = ClusterDoc { cfg: cfg.clone(), peers, wall_secs, linger_ms: 3_000 };
    std::fs::create_dir_all(out_dir).expect("create out dir");
    let cluster_path = out_dir.join("cluster.json");
    wbft_report::write_file(&cluster_path, &doc.to_json()).expect("write cluster doc");

    let mut children: Vec<(usize, Child)> =
        (0..cfg.n).map(|me| (me, spawn_node(me, &cluster_path, out_dir))).collect();
    // Children stop on their own wall deadline; give them a little extra
    // before the launcher starts killing.
    let ok = wait_all(&mut children, Duration::from_secs(wall_secs + 15));

    let mut success = true;
    for (me, child_ok) in ok.iter().enumerate() {
        if !child_ok {
            eprintln!("{slug}: node {me} failed or timed out");
            success = false;
        }
    }
    // Cross-check the per-node reports even when some child failed — the
    // report files are the artifact CI asserts on.
    let reports = read_reports(out_dir, cfg.n);
    let mut chains: Vec<Vec<Digest32>> = vec![Vec::new(); cfg.n];
    for (slot, read) in chains.iter_mut().zip(&reports) {
        let Some((doc, chain)) = read else {
            success = false;
            continue;
        };
        let report = &doc.report;
        println!(
            "{}: completed={} elapsed={:.1}s txs={} accesses/node={:.1} bytes_on_air={}",
            doc.label,
            report.completed,
            report.elapsed.as_secs_f64(),
            report.total_txs,
            report.channel_accesses_per_node,
            report.bytes_on_air,
        );
        success &= report.completed && report.total_txs > 0;
        slot.clone_from(chain);
    }
    // Content agreement: the per-block digest chains, which cover every
    // committed transaction, must be identical (fixed-epoch runs end level,
    // so this is full equality, not merely a common prefix).
    if let Some((a, b)) = diverging(&chains) {
        eprintln!("{slug}: AGREEMENT VIOLATION — nodes {a}/{b}'s block contents diverge");
        success = false;
    } else if !chains.windows(2).all(|w| w[0].len() == w[1].len()) {
        let lens: Vec<usize> = chains.iter().map(Vec::len).collect();
        eprintln!("{slug}: AGREEMENT VIOLATION — digest chains end at {lens:?} blocks");
        success = false;
    }
    if let (true, Some((doc, chain))) = (success, &reports[0]) {
        println!(
            "{slug}: {} nodes agreed on {} txs ({} blocks, identical contents) over loopback UDP",
            cfg.n,
            doc.report.total_txs,
            chain.len()
        );
    }
    success
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if let Some((me, cluster, out)) = node_mode(&args) {
        child_main(me, &cluster, &out);
    }

    // Launcher mode.
    let mut n = 4usize;
    let mut protocols = vec![Protocol::HoneyBadgerSc, Protocol::DumboSc];
    let mut epochs = 1u64;
    let mut batch = 8usize;
    let mut seed = 7u64;
    let mut wall_secs = 120u64;
    let mut out = report_root().join("udp");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match flag.as_str() {
            "--n" => n = value().parse().unwrap_or_else(|_| usage()),
            "--protocols" => {
                protocols = value()
                    .split(',')
                    .map(|slug| Protocol::from_slug(slug).unwrap_or_else(|| usage()))
                    .collect()
            }
            "--epochs" => epochs = value().parse().unwrap_or_else(|_| usage()),
            "--batch" => batch = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--wall-secs" => wall_secs = value().parse().unwrap_or_else(|_| usage()),
            "--out" => out = value().into(),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let configs: Vec<TestbedConfig> = protocols
        .into_iter()
        .map(|protocol| {
            let mut cfg = TestbedConfig::single_hop(protocol);
            cfg.n = n;
            cfg.epochs = epochs;
            cfg.workload.batch_size = batch;
            cfg.seed = seed;
            if let Err(reason) = cfg.check() {
                eprintln!("udp_cluster: {reason}");
                std::process::exit(2);
            }
            cfg
        })
        .collect();
    let mut all_ok = true;
    for cfg in &configs {
        all_ok &= run_cluster(cfg, &out.join(cfg.protocol.slug()), wall_secs);
    }
    std::process::exit(if all_ok { 0 } else { 1 });
}
