//! Command-line front-end for the testbed: pick any of the eight protocol
//! deployments and network settings, get the paper's metrics.
//!
//! ```text
//! cargo run --release --example testbed_cli -- beat --epochs 2 --batch 32
//! cargo run --release --example testbed_cli -- dumbo-sc --multihop
//! cargo run --release --example testbed_cli -- hb-sc-baseline --loss 0.1
//! ```

use wbft_consensus::testbed::{run, TestbedConfig};
use wbft_consensus::Protocol;
use wbft_wireless::LossModel;

fn usage() -> ! {
    let protocols: Vec<&str> = Protocol::ALL.iter().map(Protocol::slug).collect();
    eprintln!(
        "usage: testbed_cli <protocol> [--epochs E] [--batch B] [--seed S] \
         [--loss P] [--multihop]\n\
         protocols: {}",
        protocols.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let protocol = Protocol::from_slug(&args[0]).unwrap_or_else(|| usage());
    let mut cfg = TestbedConfig::single_hop(protocol);
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--epochs" => cfg.epochs = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
            "--batch" => {
                cfg.workload.batch_size =
                    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--seed" => cfg.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
            "--loss" => {
                let p: f64 = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
                cfg.loss = LossModel::Uniform { p };
            }
            "--multihop" => cfg.clusters = Some(4),
            _ => usage(),
        }
    }
    if let Err(reason) = cfg.check() {
        eprintln!("testbed_cli: {reason}");
        std::process::exit(2);
    }

    println!("running {} ({} epochs, batch {}, seed {}{})…",
        protocol,
        cfg.epochs,
        cfg.workload.batch_size,
        cfg.seed,
        if cfg.clusters.is_some() { ", multi-hop 4x4" } else { ", single-hop n=4" },
    );
    let report = run(&cfg);
    println!("completed:            {}", report.completed);
    println!("elapsed (simulated):  {:.1}s", report.elapsed.as_secs_f64());
    println!("mean epoch latency:   {:.1}s", report.mean_latency_s);
    println!("throughput:           {:.1} TPM ({} txs)", report.throughput_tpm, report.total_txs);
    println!("channel accesses:     {:.1} per node", report.channel_accesses_per_node);
    println!("bytes on air:         {}", report.bytes_on_air);
    println!("collisions:           {}", report.collisions);
    println!("withdrawn:            {}", report.metrics.withdrawn);
    for (e, lat) in report.epoch_latencies.iter().enumerate() {
        println!("  epoch {e}: {:.1}s", lat.as_secs_f64());
    }
}
