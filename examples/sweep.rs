//! `wbft sweep` — the user-facing scenario-sweep front-end.
//!
//! Expands a cartesian grid of testbed experiments, fans it across worker
//! threads, writes one JSON report per scenario, and prints a results
//! table. With `--verify-serial` it re-runs the whole grid on one thread
//! and byte-compares every report against the parallel run — the CI
//! `sweep-smoke` step drives exactly that.
//!
//! ```text
//! cargo run --release --example sweep -- --protocols beat,hb-sc --seeds 7,8
//! cargo run --release --example sweep -- --protocols all --both --threads 4
//! cargo run --release --example sweep -- --loss 0.0,0.1 --byz silent@1 --verify-serial
//! ```

use std::time::Instant;
use wbft_consensus::fuzz::{campaign, fixture_string, FuzzConfig};
use wbft_consensus::report::{report_root, scenario_string, write_reports};
use wbft_consensus::sweep::{resolve_threads, run_scenarios, SweepSpec};
use wbft_consensus::testbed::{ChurnPlan, CrashEvent, CrashPlan};
use wbft_consensus::{ArrivalSpec, ByzantineMode, Protocol, ServiceConfig};
use wbft_membership::MembershipOp;
use wbft_wireless::LossModel;

fn usage() -> ! {
    eprintln!(
        "usage: sweep [--protocols LIST|all|batched|baselines] [--multihop | --both]\n\
         \x20            [--seeds S1,S2,...] [--epochs E] [--batch B] [--n N]\n\
         \x20            [--loss P1,P2,...] [--byz MODE@NODE,...] [--suites light,medium]\n\
         \x20            [--service IAMSxCOUNT[@CAP]] [--depths W1,W2,...]\n\
         \x20            [--crash NODE@T1-T2,...] [--churn OPS@EPOCH] [--threads T]\n\
         \x20            [--out DIR] [--verify-serial]\n\
         \x20      sweep --fuzz SCENARIOS [--seeds CAMPAIGN_SEED] [--protocols LIST]\n\
         \x20            [--out DIR]\n\
         \n\
         fuzz:      coverage-guided scenario campaign hunting liveness stalls and\n\
         \x20          agreement violations; minimized failures land as replayable\n\
         \x20          fixtures under --out (default target/reports/fuzz) and the\n\
         \x20          exit code is non-zero when any scenario fails\n\
         protocols: hb-lc hb-sc beat dumbo-lc dumbo-sc hb-sc-baseline beat-baseline\n\
         \x20          dumbo-sc-baseline\n\
         byz modes: silent flip corrupt crashN (e.g. crash1@2 = node 2 crashes after\n\
         \x20          1 decided block); each --byz entry is a separate sweep axis value\n\
         service:   adds a live-submission axis next to the fixed-epoch run, e.g.\n\
         \x20          --service 2000x8@64 = one tx every 2000ms per node, 8 per node,\n\
         \x20          mempool capacity 64 (per-tx latency percentiles and mempool\n\
         \x20          drop counts land in the report's \"service\" member)\n\
         depths:    pipeline depths W as a sweep axis, e.g. --depths 1,2,4; W epochs\n\
         \x20          keep their dissemination in flight while earlier epochs finish\n\
         \x20          agreement (W=1 = sequential)\n\
         crash:     adds a crash/churn axis next to the churn-free run, e.g.\n\
         \x20          --crash 2@5-30 = node 2 dies 5s in and restarts at 30s,\n\
         \x20          recovering its journal and catching up via anti-entropy\n\
         \x20          (seconds of simulated time)\n\
         churn:     adds a dynamic-membership axis next to the static-committee\n\
         \x20          run, e.g. --churn join4+leave0@1 = from epoch 1 the genesis\n\
         \x20          members propose admitting node 4 and retiring node 0; the\n\
         \x20          ops commit on-chain, threshold keys are reshared dealerlessly,\n\
         \x20          and the new committee takes over two epochs after the commit\n\
         composing: a grid point whose axes cannot be combined (README, \"Scenario axes\n\
         \x20          and what composes\") refuses the sweep with the scenario label\n\
         \x20          and the reason, exit code 2\n\
         reports:   one <label>.json per scenario under --out\n\
         \x20          (default target/reports/sweep); WBFT_SWEEP_THREADS sets the\n\
         \x20          default worker count"
    );
    std::process::exit(2);
}

/// Parses `IAMSxCOUNT[@CAP]` into a service load on the spec's defaults.
fn parse_service(arg: &str) -> ServiceConfig {
    let (rate, cap) = match arg.split_once('@') {
        Some((rate, cap)) => (rate, cap.parse().unwrap_or_else(|_| usage())),
        None => (arg, 256),
    };
    let (interval_ms, count) = rate.split_once('x').unwrap_or_else(|| usage());
    let interval_ms: u64 = interval_ms.parse().unwrap_or_else(|_| usage());
    let per_node: u64 = count.parse().unwrap_or_else(|_| usage());
    ServiceConfig {
        arrivals: ArrivalSpec {
            per_node,
            interval_us: interval_ms * 1_000,
            tx_bytes: 32,
            seed: 1,
        },
        mempool_capacity: cap,
        max_epochs: 256,
    }
}

fn parse_protocols(arg: &str) -> Vec<Protocol> {
    match arg {
        "all" => Protocol::ALL.to_vec(),
        "batched" => Protocol::BATCHED.to_vec(),
        "baselines" => Protocol::BASELINES.to_vec(),
        list => list
            .split(',')
            .map(|slug| Protocol::from_slug(slug).unwrap_or_else(|| usage()))
            .collect(),
    }
}

fn parse_byz(entry: &str) -> (usize, ByzantineMode) {
    let (mode, node) = entry.split_once('@').unwrap_or_else(|| usage());
    let node: usize = node.parse().unwrap_or_else(|_| usage());
    let mode = match mode {
        "silent" => ByzantineMode::Silent,
        "flip" => ByzantineMode::FlipVotes,
        "corrupt" => ByzantineMode::CorruptProposals,
        m => match m.strip_prefix("crash").and_then(|e| e.parse().ok()) {
            Some(after_epoch) => ByzantineMode::Crash { after_epoch },
            None => usage(),
        },
    };
    (node, mode)
}

fn parse_list<T: std::str::FromStr>(arg: &str) -> Vec<T> {
    arg.split(',').map(|v| v.parse().unwrap_or_else(|_| usage())).collect()
}

/// Parses `OPS@EPOCH` (e.g. `join4+leave0@1`): the listed membership ops
/// enter proposals from the given epoch and commit as one change.
fn parse_churn(arg: &str) -> ChurnPlan {
    let (ops, epoch) = arg.rsplit_once('@').unwrap_or_else(|| usage());
    let from_epoch: u64 = epoch.parse().unwrap_or_else(|_| usage());
    let ops = ops
        .split('+')
        .map(|op| {
            if let Some(id) = op.strip_prefix("join") {
                MembershipOp::Join(id.parse().unwrap_or_else(|_| usage()))
            } else if let Some(id) = op.strip_prefix("leave") {
                MembershipOp::Leave(id.parse().unwrap_or_else(|_| usage()))
            } else {
                usage()
            }
        })
        .collect();
    ChurnPlan { from_epoch, ops }
}

/// Parses one `NODE@T1-T2` crash event (seconds of simulated time).
fn parse_crash(entry: &str) -> CrashEvent {
    let (node, window) = entry.split_once('@').unwrap_or_else(|| usage());
    let (at_s, restart_s) = window.split_once('-').unwrap_or_else(|| usage());
    let node: usize = node.parse().unwrap_or_else(|_| usage());
    let at_s: u64 = at_s.parse().unwrap_or_else(|_| usage());
    let restart_s: u64 = restart_s.parse().unwrap_or_else(|_| usage());
    CrashEvent { node, at_us: at_s * 1_000_000, restart_us: restart_s * 1_000_000 }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec = SweepSpec::new("sweep");
    spec.protocols = Protocol::ALL.to_vec();
    let mut threads: Option<usize> = None;
    let mut out: Option<std::path::PathBuf> = None;
    let mut verify_serial = false;
    let mut fuzz_scenarios: Option<u32> = None;
    let mut protocols_set = false;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match flag.as_str() {
            "--protocols" => {
                spec.protocols = parse_protocols(value());
                protocols_set = true;
            }
            "--fuzz" => fuzz_scenarios = Some(value().parse().unwrap_or_else(|_| usage())),
            "--multihop" => spec.topologies = vec![Some(4)],
            "--both" => spec.topologies = vec![None, Some(4)],
            "--seeds" => spec.seeds = parse_list(value()),
            "--epochs" => spec.epochs = value().parse().unwrap_or_else(|_| usage()),
            "--batch" => spec.batch_size = value().parse().unwrap_or_else(|_| usage()),
            "--n" => spec.n = value().parse().unwrap_or_else(|_| usage()),
            "--loss" => {
                spec.losses = parse_list::<f64>(value())
                    .into_iter()
                    .map(|p| if p == 0.0 { LossModel::None } else { LossModel::Uniform { p } })
                    .collect()
            }
            "--byz" => {
                // Each entry is one placement (one sweep-axis value), next
                // to the all-honest placement.
                let mut placements = vec![Vec::new()];
                placements.extend(value().split(',').map(|e| vec![parse_byz(e)]));
                spec.placements = placements;
            }
            "--suites" => {
                spec.suites = value()
                    .split(',')
                    .map(|s| match s {
                        "light" => wbft_crypto::CryptoSuite::light(),
                        "medium" => wbft_crypto::CryptoSuite::medium(),
                        _ => usage(),
                    })
                    .collect()
            }
            "--service" => {
                // The live-submission load runs next to the fixed-epoch
                // run (each --service value is one extra axis point).
                spec.services = vec![None, Some(parse_service(value()))];
            }
            "--depths" => spec.pipeline_depths = parse_list(value()),
            "--crash" => {
                // One plan with all listed events, next to the churn-free
                // run (the crash axis point mirrors --service's shape).
                let events: Vec<CrashEvent> = value().split(',').map(parse_crash).collect();
                spec.crashes = vec![None, Some(CrashPlan { crashes: events })];
            }
            "--churn" => {
                // The reconfiguring run sits next to the static-committee
                // run (mirrors --service's and --crash's axis shape).
                spec.churns = vec![None, Some(parse_churn(value()))];
            }
            "--threads" => threads = Some(value().parse().unwrap_or_else(|_| usage())),
            "--out" => out = Some(value().into()),
            "--verify-serial" => verify_serial = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    if let Some(scenarios) = fuzz_scenarios {
        let out = out.unwrap_or_else(|| report_root().join("fuzz"));
        let mut cfg = FuzzConfig::smoke(scenarios);
        if let Some(&seed) = spec.seeds.first() {
            cfg.seed = seed;
        }
        if protocols_set {
            cfg.protocols = spec.protocols.clone();
        }
        run_fuzz(&cfg, &out);
        return;
    }

    let out = out.unwrap_or_else(|| report_root().join("sweep"));
    if spec.is_empty() {
        usage();
    }

    // Precedence: --threads > WBFT_SWEEP_THREADS > available parallelism
    // (a zero at either level falls through to the next).
    let threads = resolve_threads(threads, |key| std::env::var(key).ok());
    // Contradictory axis values are configuration bugs, not scenarios:
    // refuse the grid with the offending scenario's label and the reason
    // before any worker starts.
    let scenarios = spec.try_expand().unwrap_or_else(|why| {
        eprintln!("{why}");
        std::process::exit(2);
    });
    println!(
        "sweep: {} scenarios ({} protocols x {} topologies x {} suites x {} loss x {} placements x {} depths x {} crash x {} churn x {} seeds), {} threads",
        scenarios.len(),
        spec.protocols.len(),
        spec.topologies.len(),
        spec.suites.len(),
        spec.losses.len(),
        spec.placements.len(),
        spec.pipeline_depths.len(),
        spec.crashes.len(),
        spec.churns.len(),
        spec.seeds.len(),
        threads,
    );

    let t0 = Instant::now();
    let runs = run_scenarios(&scenarios, threads);
    let parallel_wall = t0.elapsed();
    let paths = write_reports(&out, &runs).unwrap_or_else(|e| {
        eprintln!("cannot write reports to {}: {e}", out.display());
        std::process::exit(1);
    });

    let widths = [46usize, 6, 12, 10, 12];
    println!(
        "\n{}",
        fmt_row(
            &["scenario".into(), "done".into(), "latency (s)".into(), "TPM".into(), "txs".into()],
            &widths
        )
    );
    for run in &runs {
        println!(
            "{}",
            fmt_row(
                &[
                    run.scenario.label.clone(),
                    if run.report.completed { "yes".into() } else { "NO".into() },
                    format!("{:.1}", run.report.mean_latency_s),
                    format!("{:.1}", run.report.throughput_tpm),
                    run.report.total_txs.to_string(),
                ],
                &widths
            )
        );
    }
    println!(
        "\n{} reports written to {} in {:.2}s wall-clock",
        paths.len(),
        out.display(),
        parallel_wall.as_secs_f64()
    );

    if verify_serial {
        println!("verify-serial: re-running all {} scenarios on 1 thread…", scenarios.len());
        let t1 = Instant::now();
        let serial = run_scenarios(&scenarios, 1);
        let serial_wall = t1.elapsed();
        let mut mismatches = 0;
        for (p, s) in runs.iter().zip(&serial) {
            let parallel_text =
                scenario_string(&p.scenario.label, &p.scenario.cfg, &p.report);
            let serial_text = scenario_string(&s.scenario.label, &s.scenario.cfg, &s.report);
            // Also re-read the file: the on-disk bytes must match too.
            let disk = std::fs::read_to_string(out.join(format!("{}.json", p.scenario.label)))
                .unwrap_or_default();
            if parallel_text != serial_text || disk != serial_text {
                eprintln!("MISMATCH: {}", p.scenario.label);
                mismatches += 1;
            } else if wbft_consensus::report::decode_scenario(&disk).is_err() {
                eprintln!("UNPARSEABLE: {}", p.scenario.label);
                mismatches += 1;
            }
        }
        println!(
            "verify-serial: {}/{} reports byte-identical; serial {:.2}s vs parallel {:.2}s ({:.2}x)",
            runs.len() - mismatches,
            runs.len(),
            serial_wall.as_secs_f64(),
            parallel_wall.as_secs_f64(),
            serial_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9),
        );
        if mismatches > 0 {
            eprintln!("verify-serial FAILED: parallel and serial runs diverged");
            std::process::exit(1);
        }
    }
}

/// Runs a fuzz campaign, writes every minimized failure as a replayable
/// fixture under `out`, and exits non-zero when anything failed.
fn run_fuzz(cfg: &FuzzConfig, out: &std::path::Path) {
    let protocols: Vec<&str> = cfg.protocols.iter().map(|p| p.slug()).collect();
    println!(
        "fuzz: {} scenarios, campaign seed {}, protocols [{}]",
        cfg.scenarios,
        cfg.seed,
        protocols.join(", ")
    );
    let t0 = Instant::now();
    let report = campaign(cfg);
    println!(
        "fuzz: {} executed, {} coverage keys, corpus {}, {} failure(s) in {:.2}s",
        report.executed,
        report.coverage,
        report.corpus,
        report.failures.len(),
        t0.elapsed().as_secs_f64()
    );
    if report.failures.is_empty() {
        return;
    }
    std::fs::create_dir_all(out).unwrap_or_else(|e| {
        eprintln!("cannot create {}: {e}", out.display());
        std::process::exit(1);
    });
    for f in &report.failures {
        let path = out.join(format!("{}.json", f.case.label));
        let text = fixture_string(&f.case, f.outcome.verdict);
        std::fs::write(&path, text).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        });
        eprintln!(
            "FAILURE: {} -> {} (events {}, blocks {}) fixture {}",
            f.case.label,
            f.outcome.verdict.name(),
            f.outcome.events,
            f.outcome.blocks,
            path.display()
        );
    }
    eprintln!(
        "fuzz FAILED: {} scenario(s) stalled or diverged; fixtures in {}",
        report.failures.len(),
        out.display()
    );
    std::process::exit(1);
}

/// Left-align the first column, right-align the rest.
fn fmt_row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .enumerate()
        .map(|(i, (c, w))| {
            if i == 0 { format!("{c:<w$}", w = w) } else { format!("{c:>w$}", w = w) }
        })
        .collect::<Vec<_>>()
        .join("  ")
}
