//! Fig. 11 — broadcast-protocol latency vs. parallelism (a) and proposal
//! size (b), on a 4-node single-hop LoRa network.
//!
//! Each subfigure is a declarative grid of measurement points fanned across
//! worker threads with `parallel_map`; the measured curve is written to
//! `target/reports/fig11/fig11{a,b}.json` and the table below is rendered
//! from the decoded file.
//!
//! Expected shapes (paper): CBC and PRBC (threshold signatures) sit above
//! RBC; RBC-small and CBC-small are flatter across parallelism and win more
//! as parallelism grows (~35.5 % / 27.8 % at parallelism 4); latency grows
//! with proposal size, with the CBC–RBC gap widening and the CBC–PRBC gap
//! narrowing (crypto dominates message count).

use std::path::Path;
use wbft_bench::{
    banner, proposal_of_packets, read_json, report_dir, row, run_component, write_json, CompInput,
};
use wbft_components::cbc::{CbcBatch, CbcSmallBatch};
use wbft_components::prbc::PrbcBatch;
use wbft_components::rbc::RbcBatch;
use wbft_components::rbc_small::RbcSmallBatch;
use wbft_consensus::sweep::{parallel_map, sweep_threads};
use wbft_report::Json;

/// One measurement point of the grid.
#[derive(Clone, Copy)]
struct Point {
    proto: &'static str,
    parallelism: usize,
    packets: usize,
    seed: u64,
}

/// Latency of one protocol at one grid point, averaged over three seeds to
/// smooth CSMA/backoff luck.
fn measure(pt: &Point) -> f64 {
    (0..3).map(|k| measure_once(pt.proto, pt.parallelism, pt.packets, pt.seed + 100 * k)).sum::<f64>()
        / 3.0
}

fn measure_once(which: &str, parallelism: usize, packets: usize, seed: u64) -> f64 {
    let inputs = move |i: usize| {
        CompInput::Value((i < parallelism).then(|| proposal_of_packets(packets, i)))
    };
    let result = match which {
        "RBC" => run_component(4, seed, |_, _, p| RbcBatch::new(p).into(), inputs, parallelism),
        "RBC-small" => {
            run_component(4, seed, |_, _, p| RbcSmallBatch::new(p).into(), inputs, parallelism)
        }
        "CBC" => run_component(
            4,
            seed,
            |_, c, p| CbcBatch::new(p, c.cbc_pub.clone(), c.cbc_sec.clone()).into(),
            inputs,
            parallelism,
        ),
        "CBC-small" => run_component(
            4,
            seed,
            |_, c, p| CbcSmallBatch::new(p, c.cbc_pub.clone(), c.cbc_sec.clone()).into(),
            inputs,
            parallelism,
        ),
        "PRBC" => run_component(
            4,
            seed,
            |_, c, p| PrbcBatch::new(p, c.prbc_pub.clone(), c.prbc_sec.clone()).into(),
            inputs,
            parallelism,
        ),
        "CBC-baseline" => run_component(
            4,
            seed,
            |_, c, p| {
                let p = p.packed(wbft_components::Packing::PerInstance);
                CbcBatch::new(p, c.cbc_pub.clone(), c.cbc_sec.clone()).into()
            },
            inputs,
            parallelism,
        ),
        _ => unreachable!(),
    };
    assert!(result.completed, "{which} p={parallelism} did not complete");
    result.latency.as_secs_f64()
}

/// Measures a grid in parallel and writes `<file>` with one record per
/// point: `{"proto", "parallelism", "packets", "latency_s"}`.
fn sweep_grid(points: &[Point], file: &Path) {
    let latencies = parallel_map(points, sweep_threads(), |_, pt| measure(pt));
    let records: Vec<Json> = points
        .iter()
        .zip(&latencies)
        .map(|(pt, lat)| {
            Json::obj([
                ("proto", Json::str(pt.proto)),
                ("parallelism", Json::u64(pt.parallelism as u64)),
                ("packets", Json::u64(pt.packets as u64)),
                ("latency_s", Json::f64(*lat)),
            ])
        })
        .collect();
    write_json(file, &Json::obj([("points", Json::arr(records))]));
}

/// Reads a grid file back into `(proto, x-value, latency)` rows.
fn load_grid(file: &Path, x_key: &str) -> Vec<(String, usize, f64)> {
    read_json(file)
        .get("points")
        .and_then(Json::as_arr)
        .expect("grid file must contain points")
        .iter()
        .map(|p| {
            (
                p.get("proto").and_then(Json::as_str).expect("proto").to_string(),
                p.get(x_key).and_then(Json::as_u64).expect("x value") as usize,
                p.get("latency_s").and_then(Json::as_f64).expect("latency"),
            )
        })
        .collect()
}

fn print_curves(rows: &[(String, usize, f64)], protos: &[&str], x_label: &str) -> Vec<(String, Vec<f64>)> {
    let widths = [11usize, 8, 8, 8, 8];
    let mut header = vec!["protocol".to_string()];
    header.extend((1..=4).map(|x| format!("{x_label}{x}")));
    println!("{}", row(&header, &widths));
    let mut table = Vec::new();
    for proto in protos {
        let mut cells = vec![proto.to_string()];
        let mut lats = Vec::new();
        for x in 1..=4 {
            let lat = rows
                .iter()
                .find(|(p, px, _)| p == proto && *px == x)
                .unwrap_or_else(|| panic!("missing point {proto}/{x}"))
                .2;
            lats.push(lat);
            cells.push(format!("{lat:.1}"));
        }
        println!("{}", row(&cells, &widths));
        table.push((proto.to_string(), lats));
    }
    table
}

fn main() {
    let dir = report_dir("fig11");
    fig11a(&dir);
    fig11b(&dir);
    println!("\n[fig11_broadcast] OK");
}

fn fig11a(dir: &Path) {
    banner(
        "Fig. 11a — broadcast latency (s) vs number of parallel instances",
        "4 nodes; 1-packet proposals; LoRa airtime + calibrated crypto costs",
    );
    let protos = ["RBC", "RBC-small", "CBC", "CBC-small", "PRBC"];
    let points: Vec<Point> = protos
        .iter()
        .flat_map(|&proto| {
            (1..=4).map(move |parallelism| Point {
                proto,
                parallelism,
                packets: 1,
                seed: 21 + parallelism as u64,
            })
        })
        .collect();
    let file = dir.join("fig11a.json");
    sweep_grid(&points, &file);
    let table = print_curves(&load_grid(&file, "parallelism"), &protos, "p=");
    // Shape checks at parallelism 4.
    let get = |name: &str| table.iter().find(|(p, _)| p == name).unwrap().1[3];
    assert!(get("RBC-small") < get("RBC"), "RBC-small must beat RBC at p=4");
    assert!(get("CBC-small") < get("CBC"), "CBC-small must beat CBC at p=4");
    assert!(get("RBC") < get("PRBC"), "PRBC adds the DONE phase above RBC");
    println!(
        "shape: small variants win at p=4 (paper: 35.5% / 27.8%); measured {:.0}% / {:.0}%",
        (1.0 - get("RBC-small") / get("RBC")) * 100.0,
        (1.0 - get("CBC-small") / get("CBC")) * 100.0,
    );
}

fn fig11b(dir: &Path) {
    banner(
        "Fig. 11b — broadcast latency (s) vs proposal size (packets)",
        "4 nodes; parallelism 4",
    );
    let protos = ["RBC", "PRBC", "CBC"];
    let points: Vec<Point> = protos
        .iter()
        .flat_map(|&proto| {
            (1..=4).map(move |packets| Point {
                proto,
                parallelism: 4,
                packets,
                seed: 31 + packets as u64,
            })
        })
        .collect();
    let file = dir.join("fig11b.json");
    sweep_grid(&points, &file);
    let table = print_curves(&load_grid(&file, "packets"), &protos, "");
    for (proto, lats) in &table {
        assert!(
            lats[3] > lats[0],
            "{proto}: latency must grow with proposal size ({lats:?})"
        );
    }
}
