//! `wbft-benchmark` — the repo benchmark.
//!
//! ```text
//! wbft-benchmark --workload W [--seed S] [--seconds T] [--trace 0|1]
//! wbft-benchmark check [--seconds T]      # self-test, then every workload twice + a held-out seed
//! wbft-benchmark self-test
//! ```
//!
//! One invocation runs one workload in one process, prints every metric by
//! name with its unit, checks the outputs, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics from an untraced pass; `--trace 1` adds a traced pass
//! and reports the per-layer metrics. See README.md.

mod check;
mod layers;
mod metrics;
mod sim;
mod spans;
mod stats;
mod sys;
mod timed;
mod udp;

use metrics::{MetricSet, END_TO_END, PER_LAYER};
use sim::{SimOutcome, SimWorkload};
use stats::Account;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use udp::UdpWorkload;

/// Default measurement window; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 15;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// An open-loop run whose generator ran later than this at p99 measured the
/// generator (or a stall of the whole box), not the system. It is flagged
/// on standard output, not failed: latency is timed from the due time, so
/// the lateness is inside the reported numbers rather than hidden by them,
/// and on the shared 2-core reference VM (five runnable threads; p99
/// lateness 8–10 ms on a quiet box, 90 ms in a bad minute) a hard rule
/// would fail correct runs. `transport.generator_lateness_p99_ms` tracks it.
const MAX_LATENESS_P99_MS: f64 = 5.0;

/// The five workloads, by the names `BENCHMARK.json` lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Sim(SimWorkload),
    Udp(UdpWorkload),
}

pub const WORKLOADS: [(&str, Workload); 5] = [
    ("sim-singlehop", Workload::Sim(SimWorkload::SingleHop)),
    (
        "sim-multihop-lossy",
        Workload::Sim(SimWorkload::MultiHopLossy),
    ),
    (
        "sim-service-pipelined",
        Workload::Sim(SimWorkload::ServicePipelined),
    ),
    ("udp-steady", Workload::Udp(UdpWorkload::Steady)),
    ("udp-saturated", Workload::Udp(UdpWorkload::Saturated)),
];

/// Parsed command line of a workload run.
pub struct Args {
    pub name: &'static str,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a workload run produced.
pub struct RunResult {
    pub metrics: MetricSet,
    pub account: Account,
    /// Correctness violations; empty means the outputs checked out.
    pub violations: Vec<String>,
}

/// Where the trace file and the journals go: inside the checkout, ignored
/// by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from("examples/benchmark/out")
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: wbft-benchmark --workload <name> [--seed S] [--seconds T] [--trace 0|1]\n\
         \x20      wbft-benchmark check [--seconds T]\n\
         \x20      wbft-benchmark self-test\n\
         workloads: {}",
        WORKLOADS.map(|(name, _)| name).join(", ")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<Args> {
    let mut parsed = Args {
        name: "",
        workload: WORKLOADS[0].1,
        seed: 7,
        seconds: RUN_SECONDS,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let wanted = it.next()?;
                let (name, workload) = WORKLOADS.into_iter().find(|(n, _)| n == wanted)?;
                parsed.name = name;
                parsed.workload = workload;
            }
            "--seed" => parsed.seed = it.next()?.parse().ok()?,
            "--seconds" => parsed.seconds = it.next()?.parse().ok().filter(|s| *s >= 1)?,
            // `--trace` alone means on; the driver passes 0 or 1.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    parsed.trace = true;
                }
                _ => parsed.trace = true,
            },
            _ => return None,
        }
    }
    (!parsed.name.is_empty()).then_some(parsed)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("self-test") => return check::self_test(),
        Some("check") => return check::check(&args[1..]),
        _ => {}
    }
    let Some(args) = parse(&args) else {
        return usage();
    };
    println!(
        "# wbft-benchmark workload={} seed={} seconds={} trace={} threads_available={}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let result = match args.workload {
        Workload::Sim(w) => run_sim(&args, w, process_start),
        Workload::Udp(w) => run_udp(&args, w, process_start),
    };
    report(&args, result)
}

/// Prints every metric with its unit, then the result line.
fn report(args: &Args, mut result: RunResult) -> ExitCode {
    result
        .metrics
        .set("peak_rss_mb", sys::peak_rss_mib().unwrap_or(0.0));
    for v in &result.violations {
        println!("VIOLATION {v}");
    }
    println!(
        "attempted {} failed {} failed_share {}",
        result.account.attempted,
        result.account.failed,
        result.account.failed_share()
    );
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let rows = match result.metrics.rows(table) {
        Ok(rows) => rows,
        Err(missing) => {
            eprintln!("harness bug: metrics never set: {missing:?}");
            return ExitCode::from(1);
        }
    };
    for (name, value, unit) in &rows {
        println!("{name} {value} {unit}");
    }
    let body: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = result.violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.account.attempted.max(1),
        result.account.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

// ------------------------------------------------------------------
// Simulated workloads.

fn protocol_rows(runs: &[(&wbft_consensus::TestbedConfig, &SimOutcome, f64)], out: &mut MetricSet) {
    for protocol in ["hb-sc", "beat", "dumbo-sc"] {
        let of: Vec<_> = runs
            .iter()
            .filter(|(c, _, _)| c.protocol.slug() == protocol)
            .collect();
        let pooled = sim::pool(&of.iter().map(|(c, o, _)| (*c, *o)).collect::<Vec<_>>());
        let host_s: f64 = of.iter().map(|(_, _, h)| h).sum();
        let epochs = pooled.epochs.max(1) as f64;
        let present = !of.is_empty();
        let value = |v: f64| if present { v } else { 0.0 };
        out.set(
            &format!("core.{protocol}.epoch_latency_s"),
            value(pooled.epoch_latency_s),
        );
        out.set(
            &format!("core.{protocol}.host_ms_per_epoch"),
            value(host_s * 1e3 / epochs),
        );
        out.set(
            &format!("core.{protocol}.accesses_per_epoch"),
            value(pooled.accesses_per_epoch),
        );
    }
}

fn run_sim(args: &Args, workload: SimWorkload, process_start: Instant) -> RunResult {
    let mut configs = sim::plan(workload, args.seed);
    let mut metrics = MetricSet::default();
    let mut violations = Vec::new();

    // Set-up: warm the process — allocator, the crypto crate's window tables
    // and memos — with a reduced pass over each distinct protocol. Keys are
    // dealt inside every `testbed::run`, so that cost stays in the runs.
    let warmup = sim::warmup_set(&configs);
    let mut setups = Vec::new();
    for rep in 0..if args.trace { 1 } else { SETUP_REPS } {
        let started = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        for cfg in &warmup {
            sim::run_untraced(cfg);
        }
        setups.push(started.elapsed().as_secs_f64());
    }
    metrics.set("setup_s", stats::median(&setups));

    // First pass: the fixed set, once. Its simulated-clock outcomes are the
    // workload's `sim`/`air` numbers.
    let window = Instant::now();
    let mut account = Account::default();
    let mut first: Vec<Option<SimOutcome>> = Vec::new();
    // Host seconds inside `testbed::run`, every time each config was run.
    let mut host_s: Vec<Vec<f64>> = Vec::new();
    // Multi-hop runs that stalled and were replaced by their slot's next seed.
    let mut redrawn = 0u64;
    for i in 0..configs.len() {
        let (mut run, mut secs) = sim::run_untraced(&configs[i]);
        for draw in 1.. {
            if !matches!(&run, Some((o, _)) if !o.completed) {
                break;
            }
            let Some(next) = sim::redraw(&configs[i], args.seed, i, configs.len(), draw) else {
                break;
            };
            println!(
                "# {} seed {}: stalled to its simulated deadline, replaced by seed {}",
                next.protocol.slug(),
                configs[i].seed,
                next.seed
            );
            configs[i] = next;
            redrawn += 1;
            (run, secs) = sim::run_untraced(&configs[i]);
        }
        let cfg = &configs[i];
        let outcome = run.map(|(o, _)| o);
        account.merge(sim::account(cfg, outcome.as_ref()));
        match &outcome {
            None => violations.push(format!(
                "{} seed {}: run panicked",
                cfg.protocol.slug(),
                cfg.seed
            )),
            Some(o) if !o.completed => println!(
                "# {} seed {}: not completed by its simulated deadline ({} of {} epochs)",
                cfg.protocol.slug(),
                cfg.seed,
                o.epochs(),
                cfg.epochs
            ),
            Some(_) => {}
        }
        host_s.push(vec![secs]);
        first.push(outcome);
    }
    metrics.set("core.stalled_runs_redrawn", redrawn as f64);
    // Speed is over the runs that completed: one that stalled to its
    // simulated deadline (and could not be replaced) is counted as failed,
    // not as slow.
    let finished = |i: usize| first[i].as_ref().is_some_and(|o| o.completed);
    let set_epochs: u64 = first
        .iter()
        .flatten()
        .filter(|o| o.completed)
        .map(SimOutcome::epochs)
        .sum();
    let completed: Vec<_> = configs
        .iter()
        .zip(&first)
        .zip(&host_s)
        .filter_map(|((c, o), h)| o.as_ref().filter(|o| o.completed).map(|o| (c, o, h[0])))
        .collect();
    let pooled = sim::pool(
        &completed
            .iter()
            .map(|(c, o, _)| (*c, *o))
            .collect::<Vec<_>>(),
    );
    println!(
        "# first pass: {} runs ({} completed), {} epochs, {} latency samples (tail = p{})",
        configs.len(),
        completed.len(),
        pooled.epochs,
        pooled.latency_samples,
        pooled.tail_percentile * 100.0
    );
    metrics.set("epoch_latency_s", pooled.epoch_latency_s);
    metrics.set("goodput_tps", pooled.goodput_tps);
    metrics.set("commit_p50_ms", pooled.commit_p50_ms);
    metrics.set("commit_tail_ms", pooled.commit_tail_ms);
    metrics.set("air_accesses_per_epoch", pooled.accesses_per_epoch);
    metrics.set("air_bytes_per_tx", pooled.bytes_per_tx);

    if !args.trace {
        // Rest of the window: re-run the set round-robin for host timing.
        // Each repeat must reproduce the first pass exactly — the
        // simulated clock may not depend on the host.
        let budget = Duration::from_secs(args.seconds);
        for (i, cfg) in configs.iter().enumerate().cycle() {
            if window.elapsed() + Duration::from_secs_f64(host_s[i][0]) > budget {
                break;
            }
            let (run, secs) = sim::run_untraced(cfg);
            let outcome = run.map(|(o, _)| o);
            if outcome != first[i] {
                violations.push(format!(
                    "{} seed {}: same inputs, different simulated outcome",
                    cfg.protocol.slug(),
                    cfg.seed
                ));
            }
            account.merge(sim::account(cfg, outcome.as_ref()));
            host_s[i].push(secs);
        }
        // One pass over the set at each config's median time: immune to
        // which configs the last, partial pass happened to cover, and to a
        // one-off hiccup of the host.
        let pass_s: f64 = (0..configs.len())
            .filter(|&i| finished(i))
            .map(|i| stats::median(&host_s[i]))
            .sum();
        println!(
            "# window: {} runs, {set_epochs} epochs per pass, {pass_s} host s per pass \
             inside testbed::run",
            host_s.iter().map(Vec::len).sum::<usize>()
        );
        metrics.set("host_epochs_per_s", set_epochs as f64 / pass_s);
        return RunResult {
            metrics,
            account,
            violations,
        };
    }

    // Traced pass over the same set.
    let untraced_rate = set_epochs as f64
        / (0..configs.len())
            .filter(|&i| finished(i))
            .map(|i| host_s[i][0])
            .sum::<f64>();
    let origin = Instant::now();
    let mut trace = spans::Trace::default();
    let run_entry = 0u64;
    let mut traced = Vec::new();
    let (mut traced_host_s, mut traced_epochs) = (0.0, 0u64);
    for (cfg, reference) in configs.iter().zip(&first) {
        // Timed like `testbed::run` is in the untraced pass: dealing and
        // building included, so the overhead compares like with like.
        let started = Instant::now();
        let run = sim::run_traced(cfg, origin);
        if run.outcome.completed {
            traced_host_s += started.elapsed().as_secs_f64();
            traced_epochs += run.outcome.epochs();
        }
        if Some(&run.outcome) != reference.as_ref() {
            violations.push(format!(
                "{} seed {}: traced harness diverged from testbed::run",
                cfg.protocol.slug(),
                cfg.seed
            ));
        }
        violations.extend(
            run.violations
                .iter()
                .map(|v| format!("{} seed {}: {v}", cfg.protocol.slug(), cfg.seed)),
        );
        traced.push(run);
    }
    let run_exit = origin.elapsed().as_nanos() as u64;
    let root = trace.add(None, "run", args.name.to_string(), run_entry, run_exit);
    for (cfg, run) in configs.iter().zip(&traced) {
        let label = format!("{} seed {}", cfg.protocol.slug(), cfg.seed);
        let lane = trace.add(Some(root), "sim.loop", label, run.loop_ns.0, run.loop_ns.1);
        for (node, recorder) in run.recorders.iter().enumerate() {
            trace.add_calls(lane, node as u16, &recorder.calls);
        }
    }

    let loop_s: f64 = traced
        .iter()
        .map(|r| (r.loop_ns.1 - r.loop_ns.0) as f64 / 1e9)
        .sum();
    let callback_s: f64 = traced
        .iter()
        .flat_map(|r| &r.recorders)
        .flat_map(|r| &r.calls)
        .map(|c| c.dur_ns as f64 / 1e9)
        .sum();
    let epochs: u64 = traced.iter().map(|r| r.outcome.epochs()).sum();
    let events: u64 = traced.iter().map(|r| r.events).sum();
    let per_epoch = |v: f64| v / epochs.max(1) as f64;
    let node_sum = |pick: fn(&wbft_wireless::NodeMetrics) -> f64| -> f64 {
        traced
            .iter()
            .flat_map(|r| r.metrics.iter())
            .map(|(_, m)| pick(m))
            .sum()
    };
    let delivered_or_lost = node_sum(|m| {
        (m.frames_received + m.lost_collision + m.lost_noise + m.lost_half_duplex) as f64
    });
    let virtual_cpu_s = node_sum(|m| m.cpu_time.as_secs_f64());
    let nodes: f64 = traced
        .iter()
        .map(|r| r.metrics.node_count() as f64)
        .sum::<f64>()
        / traced.len().max(1) as f64;
    // Channel-seconds available: every run's simulated span times the
    // channels it uses (one, or one per cluster plus the global overlay).
    let channel_s: f64 = configs
        .iter()
        .zip(&traced)
        .map(|(c, r)| r.outcome.elapsed_us as f64 / 1e6 * c.clusters.map_or(1, |m| m + 1) as f64)
        .sum();
    metrics.set("wireless.events_per_epoch", per_epoch(events as f64));
    metrics.set(
        "wireless.loop_self_us_per_event",
        (loop_s - callback_s) * 1e6 / events.max(1) as f64,
    );
    metrics.set("wireless.loop_share", (loop_s - callback_s) / loop_s);
    metrics.set(
        "wireless.collisions_per_epoch",
        per_epoch(traced.iter().map(|r| r.metrics.collisions as f64).sum()),
    );
    metrics.set(
        "wireless.lost_noise_share",
        node_sum(|m| m.lost_noise as f64) / delivered_or_lost,
    );
    metrics.set(
        "wireless.lost_half_duplex_share",
        node_sum(|m| m.lost_half_duplex as f64) / delivered_or_lost,
    );
    metrics.set(
        "wireless.airtime_share",
        node_sum(|m| m.airtime.as_secs_f64()) / channel_s,
    );
    metrics.set(
        "wireless.virtual_cpu_s_per_epoch",
        per_epoch(virtual_cpu_s) / nodes,
    );
    metrics.set(
        "wireless.virtual_vs_host_cpu_ratio",
        virtual_cpu_s / callback_s,
    );

    let groups: Vec<layers::FrameGroup> = configs
        .iter()
        .zip(&traced)
        .map(|(c, r)| layers::FrameGroup {
            recorders: r.recorders.iter().collect(),
            keys: &r.keys,
            opens_per_frame: c.n - 1,
        })
        .collect();
    layers::net_account(&groups, &mut metrics);
    let recorders: Vec<&timed::Recorder> = traced.iter().flat_map(|r| &r.recorders).collect();
    layers::callback_account(&recorders, epochs, &mut metrics);

    let traced_runs: Vec<_> = configs
        .iter()
        .zip(&traced)
        .map(|(c, r)| (c, &r.outcome, (r.loop_ns.1 - r.loop_ns.0) as f64 / 1e9))
        .collect();
    protocol_rows(&traced_runs, &mut metrics);
    let txs: u64 = traced.iter().map(|r| r.outcome.total_txs).sum();
    let blocks: u64 = traced.iter().map(|r| r.empty_blocks.1).sum();
    let service: Vec<_> = traced
        .iter()
        .filter_map(|r| r.service_stats.as_ref())
        .collect();
    let submitted: u64 = service.iter().map(|s| s.submitted).sum();
    metrics.set("core.txs_per_block_mean", txs as f64 / blocks.max(1) as f64);
    metrics.set(
        "core.peak_occupancy",
        service.iter().map(|s| s.peak_occupancy).max().unwrap_or(0) as f64,
    );
    metrics.set(
        "core.requeued",
        service.iter().map(|s| s.requeued).sum::<u64>() as f64,
    );
    metrics.set(
        "core.rejected_dup_share",
        service.iter().map(|s| s.rejected_dup).sum::<u64>() as f64 / submitted.max(1) as f64,
    );
    metrics.set(
        "core.empty_epoch_share",
        traced.iter().map(|r| r.empty_blocks.0).sum::<u64>() as f64 / blocks.max(1) as f64,
    );
    metrics.fill_missing(&PER_LAYER, "transport.");

    metrics.set(
        "trace.overhead_pct",
        (untraced_rate / (traced_epochs as f64 / traced_host_s) - 1.0) * 100.0,
    );
    metrics.set(
        "trace.self_sum_error_pct",
        trace.self_sum_error_pct(&[root]),
    );
    metrics.set("trace.spans", trace.spans.len() as f64);
    layers::unit_costs(args.seed, &out_dir(), &mut metrics);
    write_trace(&trace, args);
    RunResult {
        metrics,
        account,
        violations,
    }
}

fn write_trace(trace: &spans::Trace, args: &Args) {
    let path = out_dir().join(format!("trace-{}.json", args.name));
    match trace.write(&path, args.name, args.seed) {
        Ok(()) => println!(
            "# trace: {} spans written to {}",
            trace.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

// ------------------------------------------------------------------
// UDP workloads.

/// End-to-end values of a measured cluster. The wall-clock ones are
/// interquartile means over the window's one-second slices.
fn udp_end_to_end(cluster: &udp::ClusterResult, out: &mut MetricSet) {
    let slice_s = udp::SLICE.as_secs_f64();
    let per_slice = |f: &dyn Fn(&udp::Slice) -> f64| -> f64 {
        stats::midmean(&cluster.slices.iter().map(f).collect::<Vec<f64>>())
    };
    // One tail percentile for every slice, the one the thinnest supports.
    let samples = cluster
        .slices
        .iter()
        .map(|s| s.latencies_ms.len())
        .min()
        .unwrap_or(0);
    let tail = stats::supported_tail(samples);
    let sorted = |s: &udp::Slice| {
        let mut v = s.latencies_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    };
    println!(
        "# window {} s in {} slices: {} committed, {} epochs, {} latency samples \
         (>= {samples} per slice, tail = p{}), {} full-rejections, {} resubmissions",
        cluster.window_s,
        cluster.slices.len(),
        cluster.commits_in_window,
        cluster.epochs_in_window,
        cluster.latencies_ms.len(),
        tail * 100.0,
        cluster.full_rejections,
        cluster.resubmissions,
    );
    for (me, n) in cluster.nodes.iter().enumerate() {
        println!(
            "# node {me}: {} blocks, {} txs; submitted {} admitted {} dup {} full {} requeued {} \
             pending {}; datagrams {} dropped {} send-failed {} send-rejected {}; cpu {:.0} %",
            n.blocks,
            n.total_txs,
            n.service.submitted,
            n.service.admitted,
            n.service.rejected_dup,
            n.service.rejected_full,
            n.service.requeued,
            n.service.pending_at_stop,
            n.stats.datagrams_received,
            n.stats.drops_malformed + n.stats.drops_foreign + n.stats.drops_overflow,
            n.stats.sends_failed,
            n.stats.sends_rejected,
            n.cpu_ns as f64 / n.wall_ns.max(1) as f64 * 100.0,
        );
    }
    let epochs_per_s = per_slice(&|s| s.epochs as f64 / slice_s).max(f64::MIN_POSITIVE);
    out.set("epoch_latency_s", 1.0 / epochs_per_s);
    out.set("goodput_tps", per_slice(&|s| s.commits as f64 / slice_s));
    out.set(
        "commit_p50_ms",
        per_slice(&|s| stats::percentile(&sorted(s), 0.50)),
    );
    out.set(
        "commit_tail_ms",
        per_slice(&|s| stats::percentile(&sorted(s), tail)),
    );
    out.set("host_epochs_per_s", epochs_per_s);
    // Whole-life ratios from the nodes' own counters (nominal radio bytes
    // and channel accesses, as the simulator counts them).
    let blocks: u64 = cluster.nodes.iter().map(|n| n.blocks).sum();
    let accesses: u64 = cluster
        .nodes
        .iter()
        .map(|n| n.metrics.channel_accesses)
        .sum();
    let bytes: u64 = cluster.nodes.iter().map(|n| n.metrics.bytes_sent).sum();
    let txs = cluster.nodes.iter().map(|n| n.total_txs).max().unwrap_or(0);
    out.set(
        "air_accesses_per_epoch",
        accesses as f64 / blocks.max(1) as f64,
    );
    out.set("air_bytes_per_tx", bytes as f64 / txs.max(1) as f64);
}

fn udp_violations(cluster: &udp::ClusterResult, open_loop: bool) -> Vec<String> {
    let mut violations = cluster.violations.clone();
    if cluster.nodes.len() != udp::NODES {
        violations.push(format!(
            "only {} of {} nodes reported",
            cluster.nodes.len(),
            udp::NODES
        ));
    }
    let mut lateness = cluster.lateness_ms.clone();
    lateness.sort_by(f64::total_cmp);
    let p99 = stats::percentile(&lateness, 0.99);
    if open_loop && p99 > MAX_LATENESS_P99_MS {
        println!(
            "# WARNING generator-limited, not slow: the load generator ran {p99} ms late at \
             p99 (limit {MAX_LATENESS_P99_MS} ms)"
        );
    }
    violations
}

fn run_udp(args: &Args, workload: UdpWorkload, process_start: Instant) -> RunResult {
    let mut metrics = MetricSet::default();
    let dir = out_dir();
    let origin = Instant::now();
    let open_loop = workload == UdpWorkload::Steady;
    let window = Duration::from_secs(args.seconds);

    if !args.trace {
        // Set-up, several times over: clusters that are brought up, warmed
        // and torn down; the last one stays up and is measured.
        let mut setups = Vec::new();
        for rep in 0..SETUP_REPS - 1 {
            // The first set-up also pays for getting this far.
            let lead = if rep == 0 {
                process_start.elapsed().as_secs_f64()
            } else {
                0.0
            };
            let warm = udp::run_cluster(workload, args.seed, rep as u64, None, false, &dir, origin);
            setups.push(lead + warm.setup_s);
        }
        let cluster = udp::run_cluster(workload, args.seed, 9, Some(window), false, &dir, origin);
        setups.push(cluster.setup_s);
        metrics.set("setup_s", stats::median(&setups));
        udp_end_to_end(&cluster, &mut metrics);
        let violations = udp_violations(&cluster, open_loop);
        return RunResult {
            metrics,
            account: cluster.account,
            violations,
        };
    }

    // Traced: half the window untraced (the reference), half traced.
    let half = window / 2;
    let reference = udp::run_cluster(workload, args.seed, 9, Some(half), false, &dir, origin);
    udp_end_to_end(&reference, &mut metrics);
    let mut violations = udp_violations(&reference, open_loop);
    let cluster = udp::run_cluster(workload, args.seed, 10, Some(half), true, &dir, origin);
    violations.extend(udp_violations(&cluster, open_loop));
    let mut account = reference.account;
    account.merge(cluster.account);

    let mut trace = spans::Trace::default();
    let entry = cluster.nodes.iter().map(|n| n.span_ns.0).min().unwrap_or(0);
    let exit = cluster.nodes.iter().map(|n| n.span_ns.1).max().unwrap_or(0);
    let root = trace.add(None, "run", args.name.to_string(), entry, exit);
    let mut lanes = Vec::new();
    for (me, node) in cluster.nodes.iter().enumerate() {
        let lane = trace.add(
            Some(root),
            "udp.node",
            format!("node {me}"),
            node.span_ns.0,
            node.span_ns.1,
        );
        if let Some(rec) = &node.recorder {
            trace.add_calls(lane, me as u16, &rec.calls);
        }
        lanes.push(lane);
    }

    let recorders: Vec<&timed::Recorder> = cluster
        .nodes
        .iter()
        .filter_map(|n| n.recorder.as_ref())
        .collect();
    let keys: Vec<sim::ChannelKeys> = cluster
        .nodes
        .iter()
        .map(|n| n.keys.clone())
        .take(1)
        .collect();
    layers::net_account(
        &[layers::FrameGroup {
            recorders: recorders.clone(),
            keys: &keys,
            opens_per_frame: 1,
        }],
        &mut metrics,
    );
    let blocks: u64 = cluster.nodes.iter().map(|n| n.blocks).sum();
    layers::callback_account(&recorders, blocks / udp::NODES as u64, &mut metrics);

    // Callback wall time includes the time a callback sat preempted (five
    // runnable threads, two cores); the sampled CPU/wall ratio removes it.
    let sampled = |pick: fn(&timed::Recorder) -> u64| -> f64 {
        recorders.iter().map(|r| pick(r)).sum::<u64>() as f64
    };
    let on_cpu = sampled(|r| r.sampled_cpu_ns) / sampled(|r| r.sampled_wall_ns).max(1.0);
    let callback_s: f64 = recorders
        .iter()
        .flat_map(|r| &r.calls)
        .map(|c| c.dur_ns as f64 / 1e9)
        .sum::<f64>()
        * on_cpu.min(1.0);
    let wall_s: f64 = cluster.nodes.iter().map(|n| n.wall_ns as f64 / 1e9).sum();
    let cpu_s: f64 = cluster.nodes.iter().map(|n| n.cpu_ns as f64 / 1e9).sum();
    let virtual_cpu_s: f64 = cluster
        .nodes
        .iter()
        .map(|n| n.metrics.cpu_time.as_secs_f64())
        .sum();
    metrics.fill_missing(&PER_LAYER, "wireless.");
    metrics.set(
        "wireless.virtual_cpu_s_per_epoch",
        virtual_cpu_s / blocks.max(1) as f64,
    );
    metrics.set(
        "wireless.virtual_vs_host_cpu_ratio",
        virtual_cpu_s / callback_s.max(f64::MIN_POSITIVE),
    );

    let epochs_per_s = cluster.epochs_in_window as f64 / cluster.window_s;
    metrics.set(
        "core.hb-sc.epoch_latency_s",
        1.0 / epochs_per_s.max(f64::MIN_POSITIVE),
    );
    metrics.set(
        "core.hb-sc.host_ms_per_epoch",
        1e3 / epochs_per_s.max(f64::MIN_POSITIVE),
    );
    metrics.set(
        "core.hb-sc.accesses_per_epoch",
        cluster
            .nodes
            .iter()
            .map(|n| n.metrics.channel_accesses)
            .sum::<u64>() as f64
            / blocks.max(1) as f64,
    );
    metrics.fill_missing(&PER_LAYER, "core.beat.");
    metrics.fill_missing(&PER_LAYER, "core.dumbo-sc.");
    metrics.fill_missing(&PER_LAYER, "core.stalled_runs_redrawn");
    let txs = cluster.nodes.iter().map(|n| n.total_txs).max().unwrap_or(0);
    let submitted: u64 = cluster.nodes.iter().map(|n| n.service.submitted).sum();
    metrics.set(
        "core.txs_per_block_mean",
        txs as f64 * udp::NODES as f64 / blocks.max(1) as f64,
    );
    metrics.set(
        "core.peak_occupancy",
        cluster
            .nodes
            .iter()
            .map(|n| n.service.peak_occupancy)
            .max()
            .unwrap_or(0) as f64,
    );
    metrics.set(
        "core.requeued",
        cluster
            .nodes
            .iter()
            .map(|n| n.service.requeued)
            .sum::<u64>() as f64,
    );
    metrics.set(
        "core.rejected_dup_share",
        cluster
            .nodes
            .iter()
            .map(|n| n.service.rejected_dup)
            .sum::<u64>() as f64
            / submitted.max(1) as f64,
    );
    metrics.set(
        "core.empty_epoch_share",
        cluster.empty_epochs.0 as f64 / cluster.empty_epochs.1.max(1) as f64,
    );

    let stat_sum = |pick: fn(&wbft_transport::TransportStats) -> u64| -> f64 {
        cluster.nodes.iter().map(|n| pick(&n.stats)).sum::<u64>() as f64
    };
    let mut latencies = cluster.latencies_ms.clone();
    latencies.sort_by(f64::total_cmp);
    let mut lateness = cluster.lateness_ms.clone();
    lateness.sort_by(f64::total_cmp);
    metrics.set("transport.epochs_per_s", epochs_per_s);
    metrics.set(
        "transport.datagrams_per_epoch",
        stat_sum(|s| s.datagrams_received) / blocks.max(1) as f64,
    );
    metrics.set(
        "transport.client_sends_per_block",
        stat_sum(|s| s.client_sends) / blocks.max(1) as f64,
    );
    metrics.set(
        "transport.drops",
        stat_sum(|s| s.drops_malformed + s.drops_foreign + s.drops_overflow),
    );
    metrics.set("transport.sends_failed", stat_sum(|s| s.sends_failed));
    metrics.set("transport.cpu_share", cpu_s / wall_s.max(f64::MIN_POSITIVE));
    metrics.set(
        "transport.loop_cpu_share",
        (cpu_s - callback_s).max(0.0) / wall_s.max(f64::MIN_POSITIVE),
    );
    metrics.set(
        "transport.wall_commit_p99_ms",
        stats::percentile(&latencies, 0.99),
    );
    metrics.set(
        "transport.generator_lateness_p99_ms",
        stats::percentile(&lateness, 0.99),
    );
    metrics.set("transport.notify_lost", cluster.notify_lost as f64);

    let mut traced_e2e = MetricSet::default();
    udp_end_to_end(&cluster, &mut traced_e2e);
    let goodput = |m: &MetricSet| m.get("goodput_tps").unwrap_or(0.0).max(f64::MIN_POSITIVE);
    metrics.set(
        "trace.overhead_pct",
        (goodput(&metrics) / goodput(&traced_e2e) - 1.0) * 100.0,
    );
    metrics.set("trace.self_sum_error_pct", trace.self_sum_error_pct(&lanes));
    metrics.set("trace.spans", trace.spans.len() as f64);
    layers::unit_costs(args.seed, &dir, &mut metrics);
    write_trace(&trace, args);
    RunResult {
        metrics,
        account,
        violations,
    }
}
