//! The component rig, pinned: `run_component`'s latency, mean channel
//! accesses per node and completion flag on one run of every component
//! kind — Table I's four runs, PRBC, the two small broadcasts, CBC packed
//! per instance, parallel ABA-CP, and serial ABA-SC and ABA-LC (both
//! serial activation paths). A change to how the rig hosts a component
//! must leave every number exactly as it is.

use wbft_bench::{run_component, CompResult, Load, RigPoint};
use wbft_components::Packing::{Combined, PerInstance};

/// `(run, latency µs, accesses per node, completed)`.
const PINNED: [(&str, u64, f64, bool); 11] = [
    ("rbc-batched", 4679214, 3.75, true),
    ("rbc-baseline", 10679005, 19.5, true),
    ("aba-batched", 2073246, 3.0, true),
    ("aba-baseline", 24034266, 57.75, true),
    ("prbc", 6235930, 6.0, true),
    ("rbc-small", 909604, 2.0, true),
    ("cbc-small", 1694731, 2.0, true),
    ("cbc-per-instance", 4123339, 6.75, true),
    ("aba-cp-parallel", 3153904, 4.5, true),
    ("aba-sc-serial", 9675915, 13.0, true),
    ("aba-lc-serial", 7088845, 13.75, true),
];

/// Broadcast load: the first `proposers` nodes propose one packet.
fn values(proposers: usize) -> Load {
    Load::Broadcast { proposers, packets: 1 }
}

fn run(label: &str) -> CompResult {
    let (comp, packing, load, seed) = match label {
        "rbc-batched" => ("RBC", Combined, values(4), 11),
        "rbc-baseline" => ("RBC", PerInstance, values(4), 11),
        "aba-batched" => ("ABA-SC", Combined, Load::Parallel(4), 13),
        "aba-baseline" => ("ABA-SC", PerInstance, Load::Parallel(4), 13),
        "prbc" => ("PRBC", Combined, values(4), 25),
        "rbc-small" => ("RBC-small", Combined, values(4), 25),
        "cbc-small" => ("CBC-small", Combined, values(3), 24),
        "cbc-per-instance" => ("CBC", PerInstance, values(2), 23),
        "aba-cp-parallel" => ("ABA-CP", Combined, Load::Parallel(4), 45),
        "aba-sc-serial" => ("ABA-SC", Combined, Load::Serial(4), 55),
        "aba-lc-serial" => ("ABA-LC", Combined, Load::Serial(4), 55),
        _ => unreachable!("unknown run {label}"),
    };
    run_component(&RigPoint { comp, packing, load, seed })
}

#[test]
fn every_component_kind_keeps_its_pinned_latency_and_accesses() {
    let got: Vec<(&str, u64, f64, bool)> = PINNED
        .iter()
        .map(|&(label, ..)| {
            let r = run(label);
            (label, r.latency.as_micros(), r.accesses_per_node, r.completed)
        })
        .collect();
    // On a mismatch print the whole table, in `PINNED`'s own syntax.
    let table: String = got
        .iter()
        .map(|(label, us, acc, done)| format!("    ({label:?}, {us}, {acc:?}, {done}),\n"))
        .collect();
    assert!(got == PINNED, "the rig moved; actual runs:\n{table}");
}
