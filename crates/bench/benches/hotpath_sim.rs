//! Simulator event-loop hotpath bench — the perf baseline for the
//! allocation-reuse refactor (command/wake scratch buffers, DMA buffer
//! recycling, persistent engine scratch in `ProtocolNode`).
//!
//! Times complete single-hop runs through the public fuzz runner (which
//! reports the event count), prints µs/run and events/s per protocol, and
//! writes a JSON report to `target/reports/hotpath/` so CI can track the
//! event-loop throughput across PRs. Also asserts that repeated runs are
//! byte-identical — the refactor's correctness bar. The `sealed/aired`
//! column is a count, not a timing: packet signatures made per frame that
//! won the channel (1.00 — a packet is signed when it is transmitted, so
//! the versions superseded in the transmit queue cost no signature).

use std::time::Instant;
use wbft_bench::{banner, report_dir, row, write_json};
use wbft_consensus::fuzz::{base_case, coin_starvation_case, run_case, DEFAULT_EVENT_BUDGET};
use wbft_consensus::Protocol;
use wbft_crypto::memo;
use wbft_report::{Json, ToJson};

/// Mean microseconds per call over `reps` calls (one warmup call first).
fn time_us<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() * 1e6 / reps as f64
}

fn main() {
    let reps: u32 = std::env::var("WBFT_HOTPATH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);

    banner(
        "Hotpath sim — event-loop throughput (full single-hop runs)",
        "one small epoch per run; events/s is the loop's aggregate rate",
    );
    let widths = [26usize, 9, 12, 12, 16];
    let header = ["scenario", "events", "us/run", "events/s", "sealed/aired"];
    println!("{}", row(&header.map(String::from), &widths));

    let cases = [
        base_case(Protocol::Beat, DEFAULT_EVENT_BUDGET),
        base_case(Protocol::HoneyBadgerSc, DEFAULT_EVENT_BUDGET),
        base_case(Protocol::DumboSc, DEFAULT_EVENT_BUDGET),
        // Scheduler interposition on the delivery path: the CoinStarve
        // policy decodes every frame, the worst per-delivery overhead.
        coin_starvation_case(Protocol::Beat, DEFAULT_EVENT_BUDGET),
    ];
    let mut rows = Vec::new();
    for case in &cases {
        let reference = run_case(case);
        assert_eq!(
            reference.to_json().pretty(),
            run_case(case).to_json().pretty(),
            "{}: repeated runs must be byte-identical",
            case.label
        );
        // The same scenario through the report-producing runner, for the
        // two counts the fuzz outcome does not carry.
        memo::clear();
        let aired = wbft_consensus::run(&case.cfg).metrics.total_channel_accesses();
        let sealed = memo::stats(memo::Predicate::Schnorr).recorded;
        let us_per_run = time_us(reps, || run_case(case));
        let events_per_sec = reference.events as f64 * 1e6 / us_per_run;
        println!(
            "{}",
            row(
                &[
                    case.label.clone(),
                    reference.events.to_string(),
                    format!("{us_per_run:.0}"),
                    format!("{events_per_sec:.0}"),
                    format!("{sealed}/{aired} = {:.2}", sealed as f64 / aired as f64),
                ],
                &widths
            )
        );
        rows.push(Json::obj([
            ("scenario", Json::str(case.label.clone())),
            ("events", Json::u64(reference.events)),
            ("us_per_run", Json::f64(us_per_run)),
            ("events_per_sec", Json::f64(events_per_sec)),
            ("sealed", Json::u64(sealed)),
            ("aired", Json::u64(aired)),
            ("sealed_per_aired", Json::f64(sealed as f64 / aired as f64)),
        ]));
    }

    let report = Json::obj([
        ("kind", Json::str("hotpath-sim")),
        ("reps", Json::u64(reps as u64)),
        ("runs", Json::arr(rows)),
    ]);
    let path = report_dir("hotpath").join("hotpath_sim.json");
    write_json(&path, &report);
    println!("\nreport: {}", path.display());
    println!("[hotpath_sim] OK (all runs deterministic)");
}
