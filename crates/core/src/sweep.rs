//! Scenario sweeps: declarative experiment grids and a parallel executor.
//!
//! The paper's evaluation (§V, Figs. 10–13) is a grid of scenarios — eight
//! protocol deployments × {single-hop, multi-hop} × loss/adversary settings
//! × seeds. A [`SweepSpec`] describes such a grid declaratively and
//! [`SweepSpec::expand`] turns it into concrete labelled [`Scenario`]s (one
//! [`TestbedConfig`] each, in a fixed deterministic order). Independent
//! scenarios then fan out across OS threads with [`run_scenarios`] /
//! [`parallel_map`] — a work-stealing executor on std threads only — while
//! each simulation stays single-threaded and seed-deterministic, so a
//! parallel sweep produces *byte-identical* reports to a serial one (the
//! `tests/sweep.rs` battery enforces this).
//!
//! Thread count resolution: explicit argument > `WBFT_SWEEP_THREADS` env
//! var > `std::thread::available_parallelism()`.

use crate::byzantine::ByzantineMode;
use crate::protocol::Protocol;
use crate::service::ServiceConfig;
use crate::testbed::{run, ChurnPlan, CrashPlan, RunReport, TestbedConfig};
use wbft_membership::MembershipOp;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use wbft_crypto::CryptoSuite;
use wbft_wireless::{LossModel, SimDuration};

/// A cartesian grid of testbed experiments.
///
/// Every axis is a list; [`SweepSpec::expand`] emits one scenario per
/// element of the cross product, ordered with `protocols` as the outermost
/// axis and `seeds` as the innermost. Scalar settings (`epochs`,
/// `batch_size`, …) apply to every scenario.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Sweep name; reports land in `target/reports/<name>/`.
    pub name: String,
    /// Protocol deployments to run.
    pub protocols: Vec<Protocol>,
    /// Topologies: `None` = single-hop, `Some(m)` = `m` clusters (multi-hop).
    pub topologies: Vec<Option<usize>>,
    /// Crypto suites.
    pub suites: Vec<CryptoSuite>,
    /// Frame-loss models.
    pub losses: Vec<LossModel>,
    /// Byzantine placements; the empty placement is an all-honest run.
    pub placements: Vec<Vec<(usize, ByzantineMode)>>,
    /// Service loads: `None` = the classic fixed-epoch pre-seeded run,
    /// `Some` = a live-submission run under that open-loop client-arrival
    /// schedule (latency percentiles and backpressure counters land in the
    /// report's `service` member).
    pub services: Vec<Option<ServiceConfig>>,
    /// Pipeline depths `W` (epochs whose dissemination may be in flight at
    /// once). `1` is the strictly sequential engine; depths `> 1` append a
    /// `.w{d}` label segment, so depth-1 labels keep their exact
    /// pre-pipelining form.
    pub pipeline_depths: Vec<u64>,
    /// Crash/churn schedules: `None` = no churn (the classic run), `Some` =
    /// the listed nodes are killed and restarted at the scheduled times
    /// (journal recovery + anti-entropy catch-up). Churn points append a
    /// `.crash…` label segment, so churn-free labels keep their exact
    /// pre-churn form.
    pub crashes: Vec<Option<CrashPlan>>,
    /// Dynamic-membership schedules: `None` = static committee, `Some` =
    /// the plan's join/leave ops ride the ordered transaction path and the
    /// committee reconfigures mid-run (threshold keys reshared before
    /// activation). Churn points append a `.churn…` label segment, so
    /// static labels keep their exact pre-membership form.
    pub churns: Vec<Option<ChurnPlan>>,
    /// Simulation seeds.
    pub seeds: Vec<u64>,
    /// Epochs per run.
    pub epochs: u64,
    /// Transactions per proposal batch.
    pub batch_size: usize,
    /// Nodes per hop / per cluster.
    pub n: usize,
    /// Simulated-time budget per run.
    pub deadline: SimDuration,
}

impl SweepSpec {
    /// A one-axis default: single-hop, light suite, lossless, honest,
    /// seed 7, 1 epoch × 8-tx batches of 4 nodes. Callers override axes.
    pub fn new(name: impl Into<String>) -> Self {
        SweepSpec {
            name: name.into(),
            protocols: vec![Protocol::Beat],
            topologies: vec![None],
            suites: vec![CryptoSuite::light()],
            losses: vec![LossModel::None],
            placements: vec![Vec::new()],
            services: vec![None],
            pipeline_depths: vec![1],
            crashes: vec![None],
            churns: vec![None],
            seeds: vec![7],
            epochs: 1,
            batch_size: 8,
            n: 4,
            deadline: SimDuration::from_secs(14_400),
        }
    }

    /// The paper's Fig. 13 grid: all eight deployments on one topology.
    pub fn fig13(name: impl Into<String>, multihop: bool, seed: u64) -> Self {
        SweepSpec {
            protocols: Protocol::ALL.to_vec(),
            topologies: vec![multihop.then_some(4)],
            seeds: vec![seed],
            // Multi-hop batch kept smaller: the *unbatched* baselines
            // collapse the shared channel at larger proposals (the paper's
            // congestion argument, but the baseline rows must finish).
            epochs: if multihop { 1 } else { 2 },
            batch_size: if multihop { 16 } else { 24 },
            ..SweepSpec::new(name)
        }
    }

    /// Number of scenarios the grid expands to.
    pub fn len(&self) -> usize {
        self.protocols.len()
            * self.topologies.len()
            * self.suites.len()
            * self.losses.len()
            * self.placements.len()
            * self.services.len()
            * self.pipeline_depths.len()
            * self.crashes.len()
            * self.churns.len()
            * self.seeds.len()
    }

    /// `true` when some axis is empty and the grid expands to nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into labelled scenarios, in deterministic order.
    ///
    /// Labels are unique, filesystem-safe and self-describing, e.g.
    /// `beat.mh4.secp160r1+bn158.loss-none.honest.seed7`.
    ///
    /// # Panics
    ///
    /// On whatever [`SweepSpec::try_expand`] refuses.
    pub fn expand(&self) -> Vec<Scenario> {
        self.try_expand().unwrap_or_else(|why| panic!("{why}"))
    }

    /// [`SweepSpec::expand`] for front-ends that report instead of panic.
    ///
    /// # Errors
    ///
    /// The first grid point [`TestbedConfig::check`] refuses — axis values
    /// that cannot be combined, a loss model or adversary that breaks eventual
    /// delivery, a fault plan beyond `f` — named by its scenario label,
    /// before any worker starts; and duplicate labels.
    pub fn try_expand(&self) -> Result<Vec<Scenario>, String> {
        let mut out = Vec::with_capacity(self.len());
        for &protocol in &self.protocols {
            for &topology in &self.topologies {
                for &suite in &self.suites {
                    for (li, loss) in self.losses.iter().enumerate() {
                        for placement in &self.placements {
                            for service in &self.services {
                                for &depth in &self.pipeline_depths {
                                    for crash in &self.crashes {
                                        for churn in &self.churns {
                                            for &seed in &self.seeds {
                                                let mut cfg =
                                                    TestbedConfig::single_hop(protocol);
                                                cfg.n = self.n;
                                                cfg.clusters = topology;
                                                cfg.suite = suite;
                                                cfg.loss = loss.clone();
                                                cfg.byzantine = placement.clone();
                                                cfg.service = service.clone();
                                                cfg.pipeline_depth = depth;
                                                cfg.crash = crash.clone();
                                                cfg.churn = churn.clone();
                                                cfg.seed = seed;
                                                cfg.epochs = self.epochs;
                                                cfg.workload.batch_size = self.batch_size;
                                                cfg.deadline = self.deadline;
                                                // Sequential labels stay
                                                // exactly as before; the
                                                // depth, service, crash and
                                                // churn segments appear only
                                                // on the points that use
                                                // those axes.
                                                let label = format!(
                                                    "{}.{}.{}.{}.{}{}.seed{}{}{}{}",
                                                    protocol.slug(),
                                                    topology.map_or("sh".into(), |m| {
                                                        format!("mh{m}")
                                                    }),
                                                    suite_label(&suite),
                                                    loss_label(loss, li),
                                                    placement_label(placement),
                                                    if depth == 1 {
                                                        String::new()
                                                    } else {
                                                        format!(".w{depth}")
                                                    },
                                                    seed,
                                                    service
                                                        .as_ref()
                                                        .map_or(String::new(), service_label),
                                                    crash
                                                        .as_ref()
                                                        .map_or(String::new(), crash_label),
                                                    churn
                                                        .as_ref()
                                                        .map_or(String::new(), churn_label),
                                                );
                                                cfg.check().map_err(|why| {
                                                    format!(
                                                        "sweep \"{}\": scenario {label}: {why}",
                                                        self.name
                                                    )
                                                })?;
                                                out.push(Scenario { label, cfg });
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        // Hard check, not a debug_assert: duplicate axis values (e.g.
        // `--seeds 7,7`) would otherwise silently overwrite each other's
        // report files in release builds.
        let unique: std::collections::BTreeSet<_> =
            out.iter().map(|s| s.label.as_str()).collect();
        if unique.len() != out.len() {
            return Err(format!(
                "sweep \"{}\" expands to duplicate scenario labels — remove repeated axis values",
                self.name
            ));
        }
        Ok(out)
    }
}

fn suite_label(suite: &CryptoSuite) -> String {
    format!("{}+{}", suite.ecdsa.name(), suite.threshold.name().to_lowercase())
}

fn loss_label(loss: &LossModel, index: usize) -> String {
    match loss {
        LossModel::None => "loss-none".into(),
        LossModel::Uniform { p } => format!("loss-u{p}"),
        LossModel::PerReceiver { .. } => format!("loss-pr{index}"),
    }
}

fn service_label(svc: &ServiceConfig) -> String {
    format!(
        ".svc-ia{}x{}c{}",
        svc.arrivals.interval_us / 1_000,
        svc.arrivals.per_node,
        svc.mempool_capacity,
    )
}

fn crash_label(plan: &CrashPlan) -> String {
    let events = plan
        .crashes
        .iter()
        .map(|e| format!("{}@{}-{}", e.node, e.at_us, e.restart_us))
        .collect::<Vec<_>>()
        .join("+");
    format!(".crash{events}")
}

fn churn_label(plan: &ChurnPlan) -> String {
    let ops = plan
        .ops
        .iter()
        .map(|op| match op {
            MembershipOp::Join(n) => format!("j{n}"),
            MembershipOp::Leave(n) => format!("l{n}"),
        })
        .collect::<Vec<_>>()
        .join("+");
    format!(".churn-{ops}@e{}", plan.from_epoch)
}

fn placement_label(placement: &[(usize, ByzantineMode)]) -> String {
    if placement.is_empty() {
        return "honest".into();
    }
    placement
        .iter()
        .map(|(node, mode)| format!("byz-{}@{node}", mode.slug()))
        .collect::<Vec<_>>()
        .join("+")
}

/// One expanded grid point: a label and the full experiment config.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Unique, filesystem-safe identifier within the sweep.
    pub label: String,
    /// The experiment.
    pub cfg: TestbedConfig,
}

/// Outcome of one scenario.
#[derive(Clone, Debug)]
pub struct SweepRun {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Its measured report.
    pub report: RunReport,
}

/// Resolves the sweep's worker-thread count from an explicit argument, an
/// injected environment lookup, and the machine's available parallelism —
/// in that precedence order. Zero or unparsable values at any level fall
/// through to the next.
///
/// The lookup is injected (rather than read from `std::env` here) so tests
/// can exercise every branch without mutating process-global environment
/// state, which is racy under the parallel test harness.
pub fn resolve_threads(
    explicit: Option<usize>,
    env: impl Fn(&str) -> Option<String>,
) -> usize {
    if let Some(n) = explicit {
        if n > 0 {
            return n;
        }
    }
    if let Some(v) = env("WBFT_SWEEP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resolves the sweep's worker-thread count: `WBFT_SWEEP_THREADS` if set
/// and positive, otherwise the machine's available parallelism.
pub fn sweep_threads() -> usize {
    resolve_threads(None, |key| std::env::var(key).ok())
}

/// Work-stealing parallel map: applies `f` to every item, fanning work
/// across `threads` OS threads, and returns results in item order.
///
/// Workers pull the next unclaimed index from a shared atomic counter, so
/// long and short jobs mix without static partitioning. With `threads <= 1`
/// (or one item) this degrades to a plain serial loop. The output is
/// independent of scheduling: slot `i` always holds `f(i, &items[i])`.
///
/// A panic inside `f` propagates to the caller once all workers stop.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(i, item);
                *slots[i].lock().unwrap() = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("worker filled every claimed slot"))
        .collect()
}

/// Runs pre-expanded scenarios on `threads` workers (see [`parallel_map`]).
pub fn run_scenarios(scenarios: &[Scenario], threads: usize) -> Vec<SweepRun> {
    parallel_map(scenarios, threads, |_, s| SweepRun {
        scenario: s.clone(),
        report: run(&s.cfg),
    })
}

/// Expands and runs a full sweep.
pub fn run_sweep(spec: &SweepSpec, threads: usize) -> Vec<SweepRun> {
    run_scenarios(&spec.expand(), threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_covers_the_cross_product() {
        let mut spec = SweepSpec::new("unit");
        spec.protocols = vec![Protocol::Beat, Protocol::HoneyBadgerSc];
        spec.topologies = vec![None, Some(4)];
        spec.losses = vec![LossModel::None, LossModel::Uniform { p: 0.1 }];
        spec.seeds = vec![1, 2, 3];
        assert_eq!(spec.len(), 2 * 2 * 2 * 3);
        assert_eq!(spec.expand().len(), spec.len());
        // Byzantine placements are a single-hop axis.
        spec.topologies = vec![None];
        spec.placements = vec![Vec::new(), vec![(1, ByzantineMode::Silent)]];
        assert_eq!(spec.len(), 2 * 2 * 2 * 3);
        let scenarios = spec.expand();
        assert_eq!(scenarios.len(), spec.len());
        let labels: std::collections::BTreeSet<_> =
            scenarios.iter().map(|s| s.label.clone()).collect();
        assert_eq!(labels.len(), scenarios.len(), "labels must be unique");
        // Innermost axis varies fastest.
        assert!(scenarios[0].label.ends_with("seed1"));
        assert!(scenarios[1].label.ends_with("seed2"));
        // Scenario configs carry the axis values.
        assert!(scenarios.iter().any(|s| matches!(s.cfg.loss, LossModel::Uniform { .. })));
        assert!(scenarios.iter().any(|s| !s.cfg.byzantine.is_empty()));
    }

    #[test]
    fn pipeline_depth_axis_expands_and_tags_labels() {
        let mut spec = SweepSpec::new("depths");
        spec.pipeline_depths = vec![1, 2, 4];
        spec.seeds = vec![7, 8];
        assert_eq!(spec.len(), 3 * 2);
        let scenarios = spec.expand();
        assert_eq!(scenarios.len(), 6);
        // Depth 1 keeps the exact pre-pipelining label shape.
        assert_eq!(scenarios[0].label, "beat.sh.secp160r1+bn158.loss-none.honest.seed7");
        assert_eq!(scenarios[0].cfg.pipeline_depth, 1);
        // Deeper points get a `.w{d}` segment and carry the depth.
        assert_eq!(scenarios[2].label, "beat.sh.secp160r1+bn158.loss-none.honest.w2.seed7");
        assert_eq!(scenarios[2].cfg.pipeline_depth, 2);
        assert!(scenarios[4].label.contains(".w4."));
    }

    #[test]
    fn crash_axis_expands_and_tags_labels() {
        use crate::testbed::{CrashEvent, CrashPlan};
        let mut spec = SweepSpec::new("churn");
        spec.crashes = vec![
            None,
            Some(CrashPlan {
                crashes: vec![CrashEvent { node: 2, at_us: 5_000_000, restart_us: 30_000_000 }],
            }),
        ];
        assert_eq!(spec.len(), 2);
        let scenarios = spec.expand();
        // The churn-free point keeps the exact pre-churn label shape.
        assert_eq!(scenarios[0].label, "beat.sh.secp160r1+bn158.loss-none.honest.seed7");
        assert!(scenarios[0].cfg.crash.is_none());
        assert_eq!(
            scenarios[1].label,
            "beat.sh.secp160r1+bn158.loss-none.honest.seed7.crash2@5000000-30000000"
        );
        assert!(scenarios[1].cfg.crash.is_some());
    }

    #[test]
    fn churn_axis_expands_and_tags_labels() {
        use crate::testbed::ChurnPlan;
        let mut spec = SweepSpec::new("membership");
        spec.epochs = 5;
        spec.churns = vec![
            None,
            Some(ChurnPlan {
                from_epoch: 1,
                ops: vec![MembershipOp::Join(4), MembershipOp::Leave(0)],
            }),
        ];
        assert_eq!(spec.len(), 2);
        let scenarios = spec.expand();
        // The static point keeps the exact pre-membership label shape.
        assert_eq!(scenarios[0].label, "beat.sh.secp160r1+bn158.loss-none.honest.seed7");
        assert!(scenarios[0].cfg.churn.is_none());
        assert_eq!(
            scenarios[1].label,
            "beat.sh.secp160r1+bn158.loss-none.honest.seed7.churn-j4+l0@e1"
        );
        assert!(scenarios[1].cfg.churn.is_some());
    }

    /// Which axis values compose is `TestbedConfig::check`'s rule (its
    /// table test pins every pair); expansion only has to surface the
    /// refusal, naming the offending grid point.
    #[test]
    fn expand_surfaces_the_refusal_with_the_scenario_label() {
        let mut spec = SweepSpec::new("bad");
        spec.topologies = vec![None, Some(4)];
        spec.placements = vec![Vec::new(), vec![(1, ByzantineMode::Silent)]];
        let why = spec.try_expand().unwrap_err();
        assert!(
            why.starts_with(
                "sweep \"bad\": scenario beat.mh4.secp160r1+bn158.loss-none.byz-silent@1.seed7: "
            ),
            "{why}"
        );
        assert!(why.contains("ClusterNode has no Byzantine wrap"), "{why}");
        // Single-axis violations surface the same way.
        let mut spec = SweepSpec::new("lossy");
        spec.losses = vec![LossModel::Uniform { p: 1.0 }];
        let why = spec.try_expand().unwrap_err();
        assert!(why.contains("scenario beat.sh.") && why.contains("invalid loss config"), "{why}");
    }

    #[test]
    fn fig13_spec_matches_the_paper_grid() {
        let spec = SweepSpec::fig13("fig13a", false, 61);
        assert_eq!(spec.len(), 8);
        assert!(spec.expand().iter().all(|s| s.cfg.clusters.is_none()));
        let multi = SweepSpec::fig13("fig13b", true, 62);
        assert!(multi.expand().iter().all(|s| s.cfg.clusters == Some(4)));
    }

    #[test]
    fn parallel_map_preserves_order_under_contention() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 7, 200] {
            let out = parallel_map(&items, threads, |i, &v| {
                assert_eq!(i, v);
                v * 2
            });
            assert_eq!(out, (0..100).map(|v| v * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_on_empty_input() {
        let out: Vec<u32> = parallel_map(&[] as &[u32], 4, |_, v| *v);
        assert!(out.is_empty());
    }

    #[test]
    fn thread_resolution_precedence() {
        // Injected lookup: no process-global env mutation (set_var under
        // the parallel test harness would race concurrent tests).
        let env3 = |key: &str| (key == "WBFT_SWEEP_THREADS").then(|| "3".to_string());
        let env0 = |key: &str| (key == "WBFT_SWEEP_THREADS").then(|| "0".to_string());
        let garbage = |key: &str| (key == "WBFT_SWEEP_THREADS").then(|| "lots".to_string());
        let unset = |_: &str| None;
        // Explicit argument wins over everything.
        assert_eq!(resolve_threads(Some(5), env3), 5);
        // Zero explicit falls through to the env var.
        assert_eq!(resolve_threads(Some(0), env3), 3);
        // Env var wins when no explicit argument is given.
        assert_eq!(resolve_threads(None, env3), 3);
        // Whitespace is tolerated.
        assert_eq!(resolve_threads(None, |_| Some(" 7 ".into())), 7);
        // Zero, garbage or unset env falls through to available parallelism.
        assert!(resolve_threads(None, env0) >= 1);
        assert!(resolve_threads(None, garbage) >= 1);
        assert!(resolve_threads(None, unset) >= 1);
        // The env-reading wrapper agrees with the injected form.
        assert_eq!(sweep_threads(), resolve_threads(None, |k| std::env::var(k).ok()));
    }
}
