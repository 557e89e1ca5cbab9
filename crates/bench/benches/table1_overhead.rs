//! Table I — message overhead per node in an N-component parallel protocol.
//!
//! Prints the paper's closed forms (wired / wireless baseline /
//! ConsensusBatcher) and then *measures* channel accesses per node in the
//! simulator for the components we can run end-to-end, checking that the
//! batched deployment's measured accesses sit far below the baseline's.
//! The four measurement runs fan across worker threads; closed forms and
//! measurements are written to `target/reports/table1/table1.json`.

use wbft_bench::{banner, read_json, report_dir, row, run_component, write_json, Comp, CompInput};
use wbft_components::rbc::RbcBatch;
use wbft_components::{Agreement, Packing};
use wbft_consensus::sweep::{parallel_map, sweep_threads};
use wbft_net::overhead::Component;
use wbft_net::CoinFlavor;
use wbft_report::{Json, ToJson};

/// The four end-to-end measurement runs, identified by label.
const RUNS: [&str; 4] = ["rbc-batched", "rbc-baseline", "aba-batched", "aba-baseline"];

fn run_labelled(label: &str) -> wbft_bench::CompResult {
    let value = |i: usize| CompInput::Value(Some(wbft_bench::proposal_of_packets(1, i)));
    let aba_in = |_: usize| CompInput::AbaParallel { parallelism: 4, value: true };
    // Cachin's ABA: one coin per round batched, one per instance in the baseline.
    let aba = |serial| Agreement::SharedCoin { flavor: CoinFlavor::ThreshSig, serial };
    match label {
        "rbc-batched" => run_component(4, 11, |_, _, p| RbcBatch::new(p).into(), value, 4),
        "rbc-baseline" => run_component(
            4,
            11,
            |_, _, p| RbcBatch::new(p.packed(Packing::PerInstance)).into(),
            value,
            4,
        ),
        "aba-batched" => {
            run_component(4, 13, |_, c, p| Comp::Aba(aba(false).build(p, c)), aba_in, 4)
        }
        "aba-baseline" => run_component(
            4,
            13,
            |_, c, p| Comp::Aba(aba(true).build(p.packed(Packing::PerInstance), c)),
            aba_in,
            4,
        ),
        _ => unreachable!(),
    }
}

fn main() {
    banner(
        "Table I — message overhead per node (N-component parallel)",
        "closed forms at N = 4, then measured channel accesses (lossless run)",
    );
    let widths = [14usize, 10, 18, 18];
    println!(
        "{}",
        row(
            &[
                "component".into(),
                "wired".into(),
                "wireless-baseline".into(),
                "ConsensusBatcher".into()
            ],
            &widths
        )
    );
    let mut closed_forms = Vec::new();
    for c in Component::ALL {
        println!(
            "{}",
            row(
                &[
                    c.name().into(),
                    c.wired(4).to_string(),
                    c.wireless_baseline(4).to_string(),
                    c.consensus_batcher(4).to_string(),
                ],
                &widths
            )
        );
        closed_forms.push(Json::obj([
            ("component", Json::str(c.name())),
            ("wired", Json::u64(c.wired(4))),
            ("wireless_baseline", Json::u64(c.wireless_baseline(4))),
            ("consensus_batcher", Json::u64(c.consensus_batcher(4))),
        ]));
    }

    // The four simulator runs, fanned across worker threads.
    let results = parallel_map(&RUNS, sweep_threads(), |_, label| run_labelled(label));
    let measured: Vec<Json> = RUNS
        .iter()
        .zip(&results)
        .map(|(label, r)| {
            let mut obj = vec![("run".to_string(), Json::str(*label))];
            if let Json::Obj(members) = r.to_json() {
                obj.extend(members);
            }
            Json::Obj(obj)
        })
        .collect();
    let file = report_dir("table1").join("table1.json");
    write_json(
        &file,
        &Json::obj([
            ("closed_forms_n4", Json::arr(closed_forms)),
            ("measured", Json::arr(measured)),
        ]),
    );

    // Render the measured table from the decoded report file.
    let decoded = read_json(&file);
    let get = |label: &str| -> (f64, bool) {
        let rec = decoded
            .get("measured")
            .and_then(Json::as_arr)
            .expect("measured array")
            .iter()
            .find(|r| r.get("run").and_then(Json::as_str) == Some(label))
            .unwrap_or_else(|| panic!("missing run {label}"));
        (
            rec.get("accesses_per_node").and_then(Json::as_f64).expect("accesses"),
            rec.get("completed").and_then(Json::as_bool).expect("completed"),
        )
    };
    println!("\nMeasured channel accesses per node (N = 4, includes NACK retransmissions):");
    let widths = [14usize, 20, 18, 8];
    println!(
        "{}",
        row(
            &[
                "component".into(),
                "baseline measured".into(),
                "batched measured".into(),
                "ratio".into()
            ],
            &widths
        )
    );
    for (name, baseline, batched) in
        [("RBC", "rbc-baseline", "rbc-batched"), ("Cachin's ABA", "aba-baseline", "aba-batched")]
    {
        let (base_acc, base_done) = get(baseline);
        let (batch_acc, batch_done) = get(batched);
        assert!(base_done && batch_done, "{name} runs must complete");
        println!(
            "{}",
            row(
                &[
                    name.into(),
                    format!("{base_acc:.1}"),
                    format!("{batch_acc:.1}"),
                    format!("{:.1}x", base_acc / batch_acc),
                ],
                &widths
            )
        );
        assert!(
            base_acc > batch_acc,
            "{name} batching must reduce channel accesses"
        );
    }

    println!("\npaper's claim: batching reduces per-node overhead of N parallel components");
    println!("from O(N)-O(N^3) to O(1); the measured ratios above demonstrate the gap.");
    println!("\n[table1_overhead] OK");
}
