//! The component rig, pinned: `run_component`'s latency, mean channel
//! accesses per node and completion flag on one run of every component
//! kind — Table I's four runs, PRBC, the two small broadcasts, CBC packed
//! per instance, parallel ABA-CP, and serial ABA-SC and ABA-LC (both
//! serial activation paths). A change to how the rig hosts a component
//! must leave every number exactly as it is.

use wbft_bench::{proposal_of_packets, run_component, Comp, CompInput, CompResult};
use wbft_components::aba_lc::AbaLcBatch;
use wbft_components::aba_sc::AbaScBatch;
use wbft_components::cbc::{CbcBatch, CbcSmallBatch};
use wbft_components::prbc::PrbcBatch;
use wbft_components::rbc::RbcBatch;
use wbft_components::rbc_small::RbcSmallBatch;
use wbft_components::{NodeCrypto, Packing, Params};
use wbft_net::CoinFlavor;

/// `(run, latency µs, accesses per node, completed)`.
const PINNED: [(&str, u64, f64, bool); 11] = [
    ("rbc-batched", 4679214, 3.75, true),
    ("rbc-baseline", 10679005, 19.5, true),
    ("aba-batched", 2073246, 3.0, true),
    ("aba-baseline", 24034266, 57.75, true),
    ("prbc", 7009828, 6.25, true),
    ("rbc-small", 909604, 2.0, true),
    ("cbc-small", 2274651, 2.25, true),
    ("cbc-per-instance", 4559393, 7.5, true),
    ("aba-cp-parallel", 3153904, 4.5, true),
    ("aba-sc-serial", 9675915, 13.0, true),
    ("aba-lc-serial", 7088845, 13.75, true),
];

/// Broadcast inputs: the first `parallelism` nodes propose one packet.
fn values(parallelism: usize) -> impl Fn(usize) -> CompInput {
    move |i| CompInput::Value((i < parallelism).then(|| proposal_of_packets(1, i)))
}

fn parallel(parallelism: usize) -> impl Fn(usize) -> CompInput {
    move |_| CompInput::AbaParallel { parallelism, value: true }
}

fn serial(count: usize) -> impl Fn(usize) -> CompInput {
    move |_| CompInput::AbaSerial { count, value: true }
}

fn aba_sc(c: &NodeCrypto, p: Params, flavor: CoinFlavor, serial: bool) -> Comp {
    let (pk, sk) = (c.coin_pub.clone(), c.coin_sec.clone());
    if serial {
        AbaScBatch::new_serial(p, flavor, pk, sk).into()
    } else {
        AbaScBatch::new_parallel(p, flavor, pk, sk).into()
    }
}

fn run(label: &str) -> CompResult {
    let per_instance = |p: Params| p.packed(Packing::PerInstance);
    match label {
        "rbc-batched" => run_component(4, 11, |_, _, p| RbcBatch::new(p).into(), values(4), 4),
        "rbc-baseline" => {
            run_component(4, 11, |_, _, p| RbcBatch::new(per_instance(p)).into(), values(4), 4)
        }
        "aba-batched" => run_component(
            4,
            13,
            |_, c, p| aba_sc(c, p, CoinFlavor::ThreshSig, false),
            parallel(4),
            4,
        ),
        "aba-baseline" => run_component(
            4,
            13,
            |_, c, p| aba_sc(c, per_instance(p), CoinFlavor::ThreshSig, true),
            parallel(4),
            4,
        ),
        "prbc" => run_component(
            4,
            25,
            |_, c, p| PrbcBatch::new(p, c.prbc_pub.clone(), c.prbc_sec.clone()).into(),
            values(4),
            4,
        ),
        "rbc-small" => run_component(4, 25, |_, _, p| RbcSmallBatch::new(p).into(), values(4), 4),
        "cbc-small" => run_component(
            4,
            24,
            |_, c, p| CbcSmallBatch::new(p, c.cbc_pub.clone(), c.cbc_sec.clone()).into(),
            values(3),
            3,
        ),
        "cbc-per-instance" => run_component(
            4,
            23,
            |_, c, p| CbcBatch::new(per_instance(p), c.cbc_pub.clone(), c.cbc_sec.clone()).into(),
            values(2),
            2,
        ),
        "aba-cp-parallel" => run_component(
            4,
            45,
            |_, c, p| aba_sc(c, p, CoinFlavor::CoinFlip, false),
            parallel(4),
            0,
        ),
        "aba-sc-serial" => {
            run_component(4, 55, |_, c, p| aba_sc(c, p, CoinFlavor::ThreshSig, true), serial(4), 0)
        }
        "aba-lc-serial" => run_component(4, 55, |_, _, p| AbaLcBatch::new(p).into(), serial(4), 0),
        _ => unreachable!("unknown run {label}"),
    }
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
