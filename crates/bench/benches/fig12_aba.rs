//! Fig. 12 — ABA latency vs number of parallel instances (a) and serial
//! instances (b), on a 4-node single-hop LoRa network.
//!
//! The measurement grids fan across worker threads with `parallel_map` and
//! land in `target/reports/fig12/fig12{a,b}.json`; tables render from the
//! decoded files.
//!
//! Expected shapes (paper): with growing parallelism the ABA-LC/ABA-SC gap
//! shrinks (ABA-LC's extra messages batch away while ABA-SC keeps paying
//! threshold crypto per round); ABA-CP sits below ABA-SC (cheaper coin);
//! serially, ABA-SC stays below ABA-LC.

use std::path::Path;
use wbft_bench::{banner, read_json, report_dir, row, run_component, write_json, Comp, CompInput};
use wbft_components::{Agreement, NodeCrypto};
use wbft_consensus::sweep::{parallel_map, sweep_threads};
use wbft_net::CoinFlavor;
use wbft_report::Json;

/// One grid point: an ABA deployment at one instance count.
#[derive(Clone, Copy)]
struct Point {
    which: &'static str,
    count: usize,
    serial: bool,
    seed: u64,
}

/// Averaged over five seeds: shared-coin rounds are coin-luck dependent.
fn measure(pt: &Point) -> f64 {
    (0..5).map(|k| measure_once(pt, pt.seed + 100 * k)).sum::<f64>() / 5.0
}

fn measure_once(pt: &Point, seed: u64) -> f64 {
    let (count, serial) = (pt.count, pt.serial);
    let inputs = move |_: usize| {
        if serial {
            CompInput::AbaSerial { count, value: true }
        } else {
            CompInput::AbaParallel { parallelism: count, value: true }
        }
    };
    // ABA-LC has no coin; ABA-SC and ABA-CP are one component by flavor.
    let agreement = match (pt.which, serial) {
        ("ABA-LC", _) => Agreement::LocalCoin,
        ("ABA-SC", _) => Agreement::SharedCoin { flavor: CoinFlavor::ThreshSig, serial },
        ("ABA-CP", false) => Agreement::SharedCoin { flavor: CoinFlavor::CoinFlip, serial },
        _ => unreachable!(),
    };
    let make = move |_, c: &NodeCrypto, p| Comp::Aba(agreement.build(p, c));
    let result = run_component(4, seed, make, inputs, 0);
    assert!(result.completed, "{} count={count} did not complete", pt.which);
    result.latency.as_secs_f64()
}

/// Runs a grid in parallel, writes its JSON file, and returns the decoded
/// per-deployment latency curves in `deployments` order.
fn sweep_grid(points: &[Point], file: &Path, deployments: &[&str]) -> Vec<(String, Vec<f64>)> {
    let latencies = parallel_map(points, sweep_threads(), |_, pt| measure(pt));
    let records: Vec<Json> = points
        .iter()
        .zip(&latencies)
        .map(|(pt, lat)| {
            Json::obj([
                ("aba", Json::str(pt.which)),
                ("count", Json::u64(pt.count as u64)),
                ("serial", Json::Bool(pt.serial)),
                ("latency_s", Json::f64(*lat)),
            ])
        })
        .collect();
    write_json(file, &Json::obj([("points", Json::arr(records))]));

    let decoded = read_json(file);
    let rows = decoded.get("points").and_then(Json::as_arr).expect("points");
    deployments
        .iter()
        .map(|&which| {
            let lats: Vec<f64> = (1..=4)
                .map(|count| {
                    rows.iter()
                        .find(|r| {
                            r.get("aba").and_then(Json::as_str) == Some(which)
                                && r.get("count").and_then(Json::as_u64) == Some(count)
                        })
                        .and_then(|r| r.get("latency_s").and_then(Json::as_f64))
                        .unwrap_or_else(|| panic!("missing point {which}/{count}"))
                })
                .collect();
            (which.to_string(), lats)
        })
        .collect()
}

fn print_curves(table: &[(String, Vec<f64>)], x_label: &str) {
    let widths = [8usize, 8, 8, 8, 8];
    let mut header = vec!["ABA".to_string()];
    header.extend((1..=4).map(|x| format!("{x_label}{x}")));
    println!("{}", row(&header, &widths));
    for (which, lats) in table {
        let mut cells = vec![which.clone()];
        cells.extend(lats.iter().map(|lat| format!("{lat:.1}")));
        println!("{}", row(&cells, &widths));
    }
}

fn main() {
    let dir = report_dir("fig12");
    fig12a(&dir);
    fig12b(&dir);
    println!("\n[fig12_aba] OK");
}

fn fig12a(dir: &Path) {
    banner(
        "Fig. 12a — ABA latency (s) vs number of parallel instances",
        "4 nodes; unanimous inputs; ABA-LC = Bracha, ABA-SC = Cachin, ABA-CP = BEAT coin",
    );
    let deployments = ["ABA-LC", "ABA-SC", "ABA-CP"];
    let points: Vec<Point> = deployments
        .iter()
        .flat_map(|&which| {
            (1..=4).map(move |count| Point { which, count, serial: false, seed: 41 + count as u64 })
        })
        .collect();
    let table = sweep_grid(&points, &dir.join("fig12a.json"), &deployments);
    print_curves(&table, "p=");
    let get = |name: &str, idx: usize| table.iter().find(|(w, _)| w == name).unwrap().1[idx];
    // Shapes: CP below SC everywhere (cheaper coin ops).
    for p in 0..4 {
        assert!(
            get("ABA-CP", p) <= get("ABA-SC", p) * 1.15,
            "ABA-CP should not exceed ABA-SC materially at p={}",
            p + 1
        );
    }
    // The LC/SC *ratio* moves with parallelism; report it (the paper's
    // crossing depends on absolute crypto costs, ours on the same profiles).
    let ratio1 = get("ABA-LC", 0) / get("ABA-SC", 0);
    let ratio4 = get("ABA-LC", 3) / get("ABA-SC", 3);
    println!(
        "LC/SC latency ratio: {:.2} at p=1 -> {:.2} at p=4 (paper: LC catches up / wins by p=4)",
        ratio1, ratio4
    );
}

fn fig12b(dir: &Path) {
    banner(
        "Fig. 12b — ABA latency (s) vs number of serial instances",
        "4 nodes; instances activated one after another (Dumbo's pattern)",
    );
    let deployments = ["ABA-SC", "ABA-LC"];
    let points: Vec<Point> = deployments
        .iter()
        .flat_map(|&which| {
            (1..=4).map(move |count| Point { which, count, serial: true, seed: 51 + count as u64 })
        })
        .collect();
    let table = sweep_grid(&points, &dir.join("fig12b.json"), &deployments);
    print_curves(&table, "s=");
    let sc = &table[0].1;
    let lc = &table[1].1;
    assert!(sc[3] > sc[0], "serial latency must grow with instance count");
    println!(
        "at s=4: ABA-SC {:.1}s vs ABA-LC {:.1}s (paper: serial ABA-SC below ABA-LC)",
        sc[3], lc[3]
    );
}
