//! `self-test` and `check`.
//!
//! Examples and out-of-workspace packages are not run by `cargo test`, so
//! the pure parts of the harness are pinned by a subcommand instead, which
//! `check` runs first. `check` then runs every workload twice on one seed
//! (same-seed repeatability: simulated-clock metrics identical, the rest
//! within their bounds), once on a held-out seed, and once traced.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::{self_times, Span, Trace};
use crate::stats::{self, Account};
use crate::{Workload, RUN_SECONDS, WORKLOADS};
use std::process::{Command, ExitCode};
use wbft_report::Json;

/// `(name, bound, higher is better)` — the regression bounds of
/// `BENCHMARK.json`, as shares of the reference value.
pub const BOUNDS: [(&str, f64, bool); 9] = [
    ("setup_s", 0.25, false),
    ("epoch_latency_s", 0.25, false),
    ("goodput_tps", 0.25, true),
    ("commit_p50_ms", 0.25, false),
    ("commit_tail_ms", 0.25, false),
    ("air_accesses_per_epoch", 0.10, false),
    ("air_bytes_per_tx", 0.25, false),
    ("host_epochs_per_s", 0.25, true),
    ("peak_rss_mb", 0.20, false),
];

/// End-to-end metrics on the simulated clock: on `sim-*` workloads the same
/// seed must reproduce them digit for digit.
const SIM_CLOCK: [&str; 6] = [
    "epoch_latency_s",
    "goodput_tps",
    "commit_p50_ms",
    "commit_tail_ms",
    "air_accesses_per_epoch",
    "air_bytes_per_tx",
];

const CHECK_SEED: u64 = 7;
const HELD_OUT_SEED: u64 = 11;
/// Largest gap allowed between a trace lane's duration and its summed
/// self times.
const MAX_SELF_SUM_ERROR_PCT: f64 = 2.0;

// ------------------------------------------------------------------
// self-test

fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        parent,
        name: "t",
        start_ns,
        end_ns,
        label: String::new(),
        node: None,
        kind: None,
        epoch: None,
    }
}

/// Runs the hand-made cases; prints each failure.
pub fn self_test() -> ExitCode {
    let mut failures = 0u32;
    let mut expect = |what: &str, ok: bool| {
        if !ok {
            println!("self-test FAILED: {what}");
            failures += 1;
        }
    };

    // Nearest-rank percentiles.
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    expect(
        "p50 of 1..=100 is 50",
        stats::percentile(&hundred, 0.50) == 50.0,
    );
    expect(
        "p99 of 1..=100 is 99",
        stats::percentile(&hundred, 0.99) == 99.0,
    );
    expect(
        "p100 of 1..=100 is 100",
        stats::percentile(&hundred, 1.0) == 100.0,
    );
    expect(
        "p50 of one sample is that sample",
        stats::percentile(&[7.0], 0.5) == 7.0,
    );
    expect(
        "percentile of nothing is 0",
        stats::percentile(&[], 0.5) == 0.0,
    );
    expect("rank of p0 clamps to 1", stats::nearest_rank(10, 0.0) == 1);
    expect(
        "median of an even count averages the middle",
        stats::median(&[4.0, 1.0, 3.0, 2.0]) == 2.5,
    );

    let with_outliers = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0];
    expect(
        "midmean drops a quarter at each end",
        stats::midmean(&with_outliers) == 3.5,
    );
    expect(
        "midmean of three values is their mean",
        stats::midmean(&[1.0, 2.0, 6.0]) == 3.0,
    );

    // Highest percentile with at least ten samples beyond it.
    expect(
        "1000 samples support p99",
        stats::supported_tail(1000) == 0.99,
    );
    expect(
        "999 samples do not (9 beyond rank 990)",
        stats::supported_tail(999) == 0.95,
    );
    expect(
        "240 samples support p95",
        stats::supported_tail(240) == 0.95,
    );
    expect("64 samples support p75", stats::supported_tail(64) == 0.75);
    expect(
        "20 samples support only the median",
        stats::supported_tail(20) == 0.50,
    );
    expect(
        "5 samples fall back to the median",
        stats::supported_tail(5) == 0.50,
    );
    let (p50, tail, pct) = stats::p50_and_tail(&hundred);
    expect(
        "p50/tail of 1..=100 are 50 and p90 = 90",
        (p50, tail, pct) == (50.0, 90.0, 0.90),
    );

    // The driver's spread: statistics.quantiles(range(1, 11), n=4) is
    // [2.75, 5.5, 8.25], so IQR / median = 1.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    expect(
        "IQR/median of 1..=10 is 1",
        (stats::iqr_over_median(&ten) - 1.0).abs() < 1e-12,
    );
    expect(
        "IQR of a constant is 0",
        stats::iqr_over_median(&[3.0; 10]) == 0.0,
    );

    // Span self time: children overlap (10..30, 20..50), one is disjoint
    // (60..70), one overruns the parent (90..120, clipped to 90..100):
    // covered 40 + 10 + 10, self 40.
    let spans = vec![
        span(None, 0, 100),
        span(Some(0), 10, 30),
        span(Some(0), 20, 50),
        span(Some(0), 60, 70),
        span(Some(0), 90, 120),
        span(Some(3), 62, 65),
    ];
    let selfs = self_times(&spans);
    expect(
        "parent self time subtracts the union of its children",
        selfs[0] == 40,
    );
    expect(
        "a leaf's self time is its duration",
        selfs[1] == 20 && selfs[5] == 3,
    );
    expect("a child's self time subtracts its own child", selfs[3] == 7);
    let mut clean = Trace::default();
    let root = clean.add(None, "run", String::new(), 0, 100);
    let lane = clean.add(Some(root), "loop", String::new(), 10, 90);
    clean.spans.push(span(Some(lane), 20, 40));
    clean.spans.push(span(Some(lane), 40, 60));
    expect(
        "cleanly nested lanes sum to their duration",
        clean.self_sum_error_pct(&[root]) == 0.0,
    );
    clean.spans.push(span(Some(lane), 50, 70));
    expect(
        "overlapping siblings show as a sum error",
        clean.self_sum_error_pct(&[root]) > 0.0,
    );

    // failed / attempted.
    let mut acc = Account::default();
    acc.record(true);
    acc.record(false);
    acc.record_many(8, 2);
    expect(
        "3 of 10 failed",
        acc == Account {
            attempted: 10,
            failed: 3,
        },
    );
    expect(
        "failed share is failed / attempted",
        acc.failed_share() == 0.3,
    );
    acc.record_many(2, 5);
    expect(
        "failures are clamped to attempts",
        acc == Account {
            attempted: 12,
            failed: 5,
        },
    );
    let mut merged = Account {
        attempted: 1,
        failed: 1,
    };
    merged.merge(acc);
    expect(
        "accounts add up",
        merged
            == Account {
                attempted: 13,
                failed: 6,
            },
    );
    expect(
        "nothing attempted, nothing failed",
        Account::default().failed_share() == 0.0,
    );

    // Simulated runs: an incomplete or panicked fixed-epoch run fails all
    // its epochs; a service run fails what it offered but did not commit.
    let mut cfg = wbft_consensus::TestbedConfig::single_hop(wbft_consensus::Protocol::Beat);
    cfg.epochs = 4;
    let mut outcome = crate::sim::SimOutcome {
        completed: true,
        elapsed_us: 1,
        epoch_latencies_us: vec![1; 4],
        total_txs: 10,
        channel_accesses: 1,
        bytes_on_air: 1,
        collisions: 0,
        service: None,
    };
    expect(
        "a completed run fails nothing",
        crate::sim::account(&cfg, Some(&outcome))
            == Account {
                attempted: 4,
                failed: 0,
            },
    );
    outcome.completed = false;
    expect(
        "a run cut off by its deadline fails every epoch",
        crate::sim::account(&cfg, Some(&outcome))
            == Account {
                attempted: 4,
                failed: 4,
            },
    );
    expect(
        "a panicked run fails every epoch",
        crate::sim::account(&cfg, None)
            == Account {
                attempted: 4,
                failed: 4,
            },
    );

    // Replacement seeds: multi-hop runs only, a new seed per draw, the same
    // one every time, and no more than `MAX_REDRAWS`.
    let multi = wbft_consensus::TestbedConfig::multi_hop(wbft_consensus::Protocol::HoneyBadgerSc);
    let draw = |n: u64| crate::sim::redraw(&multi, 7, 2, 12, n).map(|c| c.seed);
    expect(
        "a single-hop run is never replaced",
        crate::sim::redraw(&cfg, 7, 2, 12, 1).is_none(),
    );
    expect(
        "a replacement has the seed of slot index + draw * set",
        draw(1) == Some(crate::sim::derive_seed(7, 3 * 14)) && draw(1) != draw(2),
    );
    expect(
        "replacements run out",
        draw(crate::sim::MAX_REDRAWS).is_some() && draw(crate::sim::MAX_REDRAWS + 1).is_none(),
    );

    // The tables themselves: unique, contract-shaped names.
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|(n, _)| *n)
        .collect();
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    expect("metric names are unique", unique.len() == names.len());
    expect(
        "metric names fit the contract's alphabet",
        names.iter().all(|n| {
            n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        }),
    );
    expect(
        "every end-to-end metric has a bound",
        END_TO_END
            .iter()
            .all(|(n, _)| BOUNDS.iter().any(|(b, _, _)| b == n)),
    );

    if failures == 0 {
        println!("self-test: ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

// ------------------------------------------------------------------
// check

/// One child run's result line.
struct ChildRun {
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl ChildRun {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

fn run_child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = wbft_report::parse(last).map_err(|e| {
        format!(
            "no result line (exit {:?}): {e}\n{}",
            output.status.code(),
            stdout
        )
    })?;
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(members)) => members
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err("result line has no metrics object".to_string()),
    };
    let run = ChildRun {
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false),
        failed: doc.get("failed").and_then(Json::as_u64).unwrap_or(u64::MAX),
        metrics,
    };
    if !output.status.success() || !run.correct {
        return Err(format!(
            "run incorrect (exit {:?}):\n{stdout}",
            output.status.code()
        ));
    }
    Ok(run)
}

/// `BENCHMARK.json`, when the working directory has one, must list exactly
/// the tables' names, units and bounds.
fn check_benchmark_json() -> Result<(), String> {
    let path = std::path::Path::new("BENCHMARK.json");
    if !path.exists() {
        println!("check: no BENCHMARK.json in the working directory, tables not cross-checked");
        return Ok(());
    }
    let doc = wbft_report::read_file(path).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let listed = |key: &str| -> Vec<(String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    };
    let same = |table: &[(&str, &str)], key: &str| -> Result<(), String> {
        let listed = listed(key);
        let matches = listed.len() == table.len()
            && listed
                .iter()
                .zip(table)
                .all(|((n, u, _), (tn, tu))| n == tn && u == tu);
        if matches {
            Ok(())
        } else {
            Err(format!(
                "BENCHMARK.json `{key}` and the harness tables disagree"
            ))
        }
    };
    same(&END_TO_END, "end_to_end")?;
    same(&PER_LAYER, "per_layer")?;
    for (name, _, bound) in listed("end_to_end") {
        let ours = BOUNDS
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, b, _)| *b);
        if bound != ours {
            return Err(format!(
                "bound of {name}: BENCHMARK.json {bound:?}, harness {ours:?}"
            ));
        }
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    if workloads != WORKLOADS.map(|(n, _)| n) {
        return Err("BENCHMARK.json `workloads` and the harness disagree".to_string());
    }
    if doc.get("run_seconds").and_then(Json::as_u64) != Some(RUN_SECONDS) {
        return Err("BENCHMARK.json `run_seconds` differs from the harness default".to_string());
    }
    Ok(())
}

/// Runs the whole gate. Prints one row per workload and metric with the
/// two same-seed values and their relative gap.
pub fn check(args: &[String]) -> ExitCode {
    let seconds = match args {
        [] => RUN_SECONDS,
        [flag, value] if flag == "--seconds" => match value.parse() {
            Ok(s) => s,
            Err(_) => return ExitCode::from(2),
        },
        _ => return ExitCode::from(2),
    };
    if self_test() != ExitCode::SUCCESS {
        return ExitCode::from(1);
    }
    let mut problems: Vec<String> = Vec::new();
    if let Err(e) = check_benchmark_json() {
        problems.push(e);
    }
    for (name, workload) in WORKLOADS {
        println!("check: {name}");
        let runs: Result<Vec<ChildRun>, String> = [CHECK_SEED, CHECK_SEED, HELD_OUT_SEED]
            .into_iter()
            .map(|seed| run_child(name, seed, seconds, false))
            .collect();
        let runs = match runs {
            Ok(runs) => runs,
            Err(e) => {
                problems.push(format!("{name}: {e}"));
                continue;
            }
        };
        for (metric, bound, _) in BOUNDS {
            let (Some(a), Some(b)) = (runs[0].get(metric), runs[1].get(metric)) else {
                problems.push(format!("{name}: {metric} missing from a result line"));
                continue;
            };
            let gap = if a == 0.0 {
                0.0
            } else {
                (a - b).abs() / a.abs()
            };
            let exact = matches!(workload, Workload::Sim(_)) && SIM_CLOCK.contains(&metric);
            let verdict = match (exact, a == b, gap <= bound) {
                (true, true, _) => "identical",
                (true, false, _) => "NOT IDENTICAL",
                (false, _, true) => "within bound",
                (false, _, false) => "OUTSIDE BOUND",
            };
            println!(
                "  {metric:<24} {a:>14.6} {b:>14.6}  gap {:>6.2} %  bound {:>4.0} %  {verdict}",
                gap * 100.0,
                bound * 100.0
            );
            if verdict.chars().next().is_some_and(char::is_uppercase) {
                problems.push(format!("{name}: {metric} {verdict} ({a} vs {b})"));
            }
        }
        if runs[0].failed != runs[1].failed {
            problems.push(format!(
                "{name}: failed counts differ ({} vs {})",
                runs[0].failed, runs[1].failed
            ));
        }
        println!(
            "  failed: {} / {} (seed {CHECK_SEED}), {} (held-out seed {HELD_OUT_SEED})",
            runs[0].failed, runs[1].failed, runs[2].failed
        );
        match run_child(name, CHECK_SEED, seconds, true) {
            Ok(traced) => {
                let error = traced
                    .get("trace.self_sum_error_pct")
                    .unwrap_or(f64::INFINITY);
                println!(
                    "  traced: overhead {:.2} %, self-time sum error {error:.4} %, {} spans",
                    traced.get("trace.overhead_pct").unwrap_or(f64::NAN),
                    traced.get("trace.spans").unwrap_or(0.0),
                );
                if error > MAX_SELF_SUM_ERROR_PCT {
                    problems.push(format!(
                        "{name}: span self times miss the wall time by {error} %"
                    ));
                }
            }
            Err(e) => problems.push(format!("{name} traced: {e}")),
        }
    }
    if problems.is_empty() {
        println!("check: ok");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            println!("check FAILED: {p}");
        }
        ExitCode::from(1)
    }
}
