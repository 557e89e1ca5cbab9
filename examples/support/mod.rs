//! Shared scaffolding for the multi-process cluster examples
//! (`udp_cluster`, `service_cluster`). Not an example itself — each
//! launcher pulls it in with `#[path = "support/mod.rs"] mod support;`.

use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};
use wbft_consensus::report::{read_report, Scenario};
use wbft_crypto::hash::Digest32;
use wbft_transport::PeerTable;

/// Binds `n` ephemeral loopback ports and releases them for the children.
/// (The small bind/re-bind race window is acceptable on a lab loopback.)
pub fn allocate_loopback_table(n: usize) -> PeerTable {
    let sockets: Vec<std::net::UdpSocket> = (0..n)
        .map(|_| std::net::UdpSocket::bind("127.0.0.1:0").expect("bind ephemeral port"))
        .collect();
    let ports: Vec<u16> =
        sockets.iter().map(|s| s.local_addr().expect("local addr").port()).collect();
    drop(sockets);
    PeerTable::loopback(&ports)
}

/// Node mode: `Some((node, cluster document, out dir))` when `args` are the
/// `--node I --cluster PATH --out DIR` that [`spawn_node`] passes.
pub fn node_mode(args: &[String]) -> Option<(usize, PathBuf, PathBuf)> {
    if args.first().map(String::as_str) != Some("--node") {
        return None;
    }
    if let [_, me, flag_c, cluster, flag_o, out] = args {
        if let (Ok(me), "--cluster", "--out") = (me.parse(), flag_c.as_str(), flag_o.as_str()) {
            return Some((me, cluster.into(), out.into()));
        }
    }
    eprintln!("node mode takes exactly --node I --cluster PATH --out DIR");
    std::process::exit(2);
}

/// Starts node `me` as a child process of this same binary in node mode.
pub fn spawn_node(me: usize, cluster: &Path, dir: &Path) -> Child {
    let exe = std::env::current_exe().expect("current exe");
    Command::new(exe)
        .arg("--node")
        .arg(me.to_string())
        .arg("--cluster")
        .arg(cluster)
        .arg("--out")
        .arg(dir)
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("spawn node {me}: {e}");
            std::process::exit(1);
        })
}

/// Waits for all children within `deadline`; kills stragglers. Returns the
/// per-child success flags.
pub fn wait_all(children: &mut [(usize, Child)], deadline: Duration) -> Vec<bool> {
    let start = Instant::now();
    let mut done = vec![None; children.len()];
    while done.iter().any(Option::is_none) && start.elapsed() < deadline {
        for (slot, (_, child)) in done.iter_mut().zip(children.iter_mut()) {
            if slot.is_none() {
                if let Ok(Some(status)) = child.try_wait() {
                    *slot = Some(status.success());
                }
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    for (slot, (me, child)) in done.iter_mut().zip(children.iter_mut()) {
        if slot.is_none() {
            eprintln!("node {me}: wall-clock timeout — killing");
            let _ = child.kill();
            let _ = child.wait();
            *slot = Some(false);
        }
    }
    done.into_iter().map(|s| s.unwrap_or(false)).collect()
}

/// Each node's report under `dir` (`node<i>.json`) and its digest chain.
/// A missing, empty or unreadable report, or one without a chain, is
/// reported on stderr and read as `None`: the caller counts it a failure.
pub fn read_reports(dir: &Path, n: usize) -> Vec<Option<(Scenario, Vec<Digest32>)>> {
    let read = |path: &Path| -> Result<(Scenario, Vec<Digest32>), String> {
        if std::fs::metadata(path).map_or(true, |m| m.len() == 0) {
            return Err("missing or empty".into());
        }
        let mut doc = read_report(path).map_err(|e| format!("unreadable: {e}"))?;
        let chain = doc.block_digests.take().ok_or("no block_digests")?;
        Ok((doc, chain))
    };
    (0..n)
        .map(|me| {
            let path = dir.join(format!("node{me}.json"));
            read(&path).map_err(|e| eprintln!("report {}: {e}", path.display())).ok()
        })
        .collect()
}

/// The first pair of nodes whose digest chains lack a common non-empty
/// prefix. Nodes may stop an epoch apart, so only the prefix must agree.
pub fn diverging(chains: &[Vec<Digest32>]) -> Option<(usize, usize)> {
    (0..chains.len()).flat_map(|a| (a + 1..chains.len()).map(move |b| (a, b))).find(|&(a, b)| {
        let common = chains[a].len().min(chains[b].len());
        common == 0 || chains[a][..common] != chains[b][..common]
    })
}
