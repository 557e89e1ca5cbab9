//! The three simulated workloads.
//!
//! End-to-end numbers come from `testbed::run`, untouched. The traced pass
//! rebuilds the same simulations from public API with every node wrapped in
//! [`Timed`], and must reproduce the untraced outcome exactly — otherwise
//! this harness has drifted from `testbed::run` and its layer numbers
//! describe some other program.

use crate::stats::Account;
use crate::timed::{EpochProbe, Recorder, Timed};
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::time::Instant;
use wbft_components::{deal_node_crypto, NodeCrypto};
use wbft_consensus::multihop::ClusterNode;
use wbft_consensus::service::{block_digests, tx_digest};
use wbft_consensus::{
    ArrivalSpec, Block, ConsensusHandle, Engine, Protocol, ProtocolNode, RunReport, ServiceConfig,
    ServiceReport, ServiceStats, TestbedConfig,
};
use wbft_crypto::schnorr::{KeyPair, PublicKey};
use wbft_crypto::Digest32;
use wbft_net::Sizing;
use wbft_wireless::{
    ChannelId, LossModel, Metrics, NodeBehavior, NodeId, SimConfig, SimDuration, SimTime,
    Simulator, Topology,
};

/// Which simulated workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimWorkload {
    SingleHop,
    MultiHopLossy,
    ServicePipelined,
}

// Calibrated on the 2-core reference box so one pass over a workload's set
// takes about a third to a half of the 15 s measurement window (the rest of
// the window re-runs the set for host timing). Recorded in BENCHMARK.json's
// workload notes and the README.
const SINGLEHOP_PROTOCOLS: [Protocol; 3] =
    [Protocol::HoneyBadgerSc, Protocol::Beat, Protocol::DumboSc];
const SINGLEHOP_SEEDS: u64 = 4;
const SINGLEHOP_EPOCHS: u64 = 20;
const MULTIHOP_PROTOCOLS: [Protocol; 2] = [Protocol::HoneyBadgerSc, Protocol::DumboSc];
const MULTIHOP_SEEDS: u64 = 6;
/// Multi-hop runs of six or more epochs often stall until the simulated
/// deadline (seen at seed 7); of four-epoch hb-sc runs about one in a
/// hundred does, see [`MAX_REDRAWS`].
const MULTIHOP_EPOCHS: u64 = 4;
const MULTIHOP_LOSS: f64 = 0.1;
/// Replacement seeds a stalled multi-hop run may draw. Under loss a node of
/// a finite run sometimes never finishes its last local epochs once its
/// peers have finished theirs and fallen silent (README, Known limits). The
/// benchmark contract wants workloads on which no operation fails, so such
/// a run is not part of the set: the next seed of its slot takes its place,
/// and the traced pass counts the replacements (`core.stalled_runs_redrawn`).
/// A run whose replacements all stall too stays in the set and fails.
pub const MAX_REDRAWS: u64 = 4;
/// Per-node inter-arrival gap giving ≈ 75 % of each protocol's measured
/// W = 1, batch-8 capacity (hb-sc 0.54 tx/s, dumbo-sc 0.39 tx/s cluster-wide).
const SERVICE_LOADS: [(Protocol, u64); 2] = [
    (Protocol::HoneyBadgerSc, 9_900_000),
    (Protocol::DumboSc, 13_600_000),
];
const SERVICE_SEEDS: u64 = 2;
const SERVICE_ARRIVALS_PER_NODE: u64 = 250;
const SERVICE_TX_BYTES: usize = 64;
const SERVICE_BATCH: usize = 8;
const SERVICE_DEPTH: u64 = 2;
const SERVICE_MEMPOOL: usize = 4096;

/// A seed for sub-stream `tag` of benchmark seed `seed`.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    Digest32::of_parts(
        "wbft/benchmark/seed",
        &[&seed.to_le_bytes(), &tag.to_le_bytes()],
    )
    .to_u64()
}

/// Gives `cfg` the seeds of `slot` under benchmark seed `seed`.
fn reseed(cfg: &mut TestbedConfig, seed: u64, slot: u64) {
    let tag = 3 * slot;
    cfg.seed = derive_seed(seed, tag);
    cfg.workload.seed = derive_seed(seed, tag + 1);
    if let Some(svc) = &mut cfg.service {
        svc.arrivals.seed = derive_seed(seed, tag + 2);
    }
}

/// The `draw`-th replacement (from 1) of the `index`-th config of a plan of
/// `set` configs, or `None` if that config is not one that may be replaced:
/// only multi-hop runs are, see [`MAX_REDRAWS`].
pub fn redraw(
    cfg: &TestbedConfig,
    seed: u64,
    index: usize,
    set: usize,
    draw: u64,
) -> Option<TestbedConfig> {
    (cfg.clusters.is_some() && draw <= MAX_REDRAWS).then(|| {
        let mut cfg = cfg.clone();
        reseed(&mut cfg, seed, index as u64 + draw * set as u64);
        cfg
    })
}

/// The fixed set of simulations a workload runs for `seed`.
pub fn plan(workload: SimWorkload, seed: u64) -> Vec<TestbedConfig> {
    let mut configs = Vec::new();
    let mut seeded = |mut cfg: TestbedConfig| {
        reseed(&mut cfg, seed, configs.len() as u64);
        configs.push(cfg);
    };
    match workload {
        SimWorkload::SingleHop => {
            for protocol in SINGLEHOP_PROTOCOLS {
                for _ in 0..SINGLEHOP_SEEDS {
                    let mut cfg = TestbedConfig::single_hop(protocol);
                    cfg.epochs = SINGLEHOP_EPOCHS;
                    seeded(cfg);
                }
            }
        }
        SimWorkload::MultiHopLossy => {
            for protocol in MULTIHOP_PROTOCOLS {
                for _ in 0..MULTIHOP_SEEDS {
                    let mut cfg = TestbedConfig::multi_hop(protocol);
                    cfg.epochs = MULTIHOP_EPOCHS;
                    cfg.loss = LossModel::Uniform { p: MULTIHOP_LOSS };
                    seeded(cfg);
                }
            }
        }
        SimWorkload::ServicePipelined => {
            for (protocol, interval_us) in SERVICE_LOADS {
                for _ in 0..SERVICE_SEEDS {
                    let mut cfg = TestbedConfig::single_hop(protocol);
                    cfg.workload.batch_size = SERVICE_BATCH;
                    cfg.pipeline_depth = SERVICE_DEPTH;
                    // Room for the whole schedule plus the drain.
                    cfg.deadline = SimDuration::from_secs(
                        2 * SERVICE_ARRIVALS_PER_NODE * interval_us / 1_000_000,
                    );
                    cfg.service = Some(ServiceConfig {
                        arrivals: ArrivalSpec {
                            per_node: SERVICE_ARRIVALS_PER_NODE,
                            interval_us,
                            tx_bytes: SERVICE_TX_BYTES,
                            seed: 0,
                        },
                        mempool_capacity: SERVICE_MEMPOOL,
                        max_epochs: u64::MAX,
                    });
                    seeded(cfg);
                }
            }
        }
    }
    configs
}

/// The distinct protocols of `configs`, in first-seen order.
fn protocols_of<'a>(configs: impl IntoIterator<Item = &'a TestbedConfig>) -> Vec<Protocol> {
    let mut protocols = Vec::new();
    for cfg in configs {
        if !protocols.contains(&cfg.protocol) {
            protocols.push(cfg.protocol);
        }
    }
    protocols
}

/// The warm-up pass: for each protocol of the set a reduced copy of its
/// first config — same code path, a fraction of the work.
pub fn warmup_set(configs: &[TestbedConfig]) -> Vec<TestbedConfig> {
    protocols_of(configs)
        .into_iter()
        .filter_map(|p| configs.iter().find(|c| c.protocol == p))
        .map(|cfg| {
            let mut cfg = cfg.clone();
            cfg.epochs = cfg.epochs.min(4);
            if let Some(svc) = &mut cfg.service {
                svc.arrivals.per_node = 16;
            }
            cfg
        })
        .collect()
}

/// The simulated-clock outcome of one run: everything the end-to-end
/// metrics read, in exact integer form so two runs compare with `==`.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOutcome {
    pub completed: bool,
    pub elapsed_us: u64,
    pub epoch_latencies_us: Vec<u64>,
    pub total_txs: u64,
    pub channel_accesses: u64,
    pub bytes_on_air: u64,
    pub collisions: u64,
    pub service: Option<ServiceReport>,
}

impl SimOutcome {
    pub fn of_report(report: &RunReport) -> Self {
        SimOutcome {
            completed: report.completed,
            elapsed_us: report.elapsed.as_micros(),
            epoch_latencies_us: report
                .epoch_latencies
                .iter()
                .map(|d| d.as_micros())
                .collect(),
            total_txs: report.total_txs,
            channel_accesses: report.metrics.total_channel_accesses(),
            bytes_on_air: report.bytes_on_air,
            collisions: report.collisions,
            service: report.service.clone(),
        }
    }

    pub fn epochs(&self) -> u64 {
        self.epoch_latencies_us.len() as u64
    }
}

/// Runs `cfg` through `testbed::run`, timing only that call. A panic inside
/// (the testbed asserts agreement on every run) is caught and reported as a
/// failed run, not a crashed benchmark.
pub fn run_untraced(cfg: &TestbedConfig) -> (Option<(SimOutcome, Metrics)>, f64) {
    let started = Instant::now();
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| wbft_consensus::run(cfg)));
    let host_s = started.elapsed().as_secs_f64();
    (
        result.ok().map(|r| (SimOutcome::of_report(&r), r.metrics)),
        host_s,
    )
}

/// Operations `cfg` attempts and how many of them `outcome` failed: epochs
/// on fixed-epoch runs, client transactions on service runs. A run that
/// panicked (`None`) fails all of them.
pub fn account(cfg: &TestbedConfig, outcome: Option<&SimOutcome>) -> Account {
    let mut acc = Account::default();
    match &cfg.service {
        None => {
            let done = outcome.map_or(0, |o| if o.completed { o.epochs() } else { 0 });
            acc.record_many(cfg.epochs, cfg.epochs - done.min(cfg.epochs));
        }
        Some(svc) => {
            let offered = svc.arrivals.per_node * cfg.n as u64;
            // A transaction counts only if it was admitted once, committed
            // once (chain total == per-node committed sum: no duplicates)
            // and the run drained.
            let committed = outcome
                .and_then(|o| o.service.as_ref().map(|s| (o, s)))
                .filter(|(o, s)| {
                    o.completed && s.pending_at_stop == 0 && o.total_txs == s.committed_client_txs
                })
                .map_or(0, |(_, s)| s.committed_client_txs);
            acc.record_many(offered, offered - committed.min(offered));
        }
    }
    acc
}

/// The end-to-end values of a set of runs, pooled.
#[derive(Clone, Debug, Default)]
pub struct Pooled {
    pub epochs: u64,
    pub epoch_latency_s: f64,
    pub goodput_tps: f64,
    pub commit_p50_ms: f64,
    pub commit_tail_ms: f64,
    pub tail_percentile: f64,
    pub latency_samples: u64,
    pub accesses_per_epoch: f64,
    pub bytes_per_tx: f64,
}

/// Pools outcomes: means are over all committed epochs / transactions of
/// the set, not means of per-run means.
pub fn pool(runs: &[(&TestbedConfig, &SimOutcome)]) -> Pooled {
    let epochs: u64 = runs.iter().map(|(_, o)| o.epochs()).sum();
    let txs: u64 = runs.iter().map(|(_, o)| o.total_txs).sum();
    let latency_us: u64 = runs.iter().flat_map(|(_, o)| &o.epoch_latencies_us).sum();
    let elapsed_s: f64 = runs.iter().map(|(_, o)| o.elapsed_us as f64 / 1e6).sum();
    // Channel accesses per node per committed epoch.
    let accesses: f64 = runs
        .iter()
        .map(|(cfg, o)| o.channel_accesses as f64 / (cfg.n * cfg.clusters.unwrap_or(1)) as f64)
        .sum();
    let bytes: u64 = runs.iter().map(|(_, o)| o.bytes_on_air).sum();
    let mut pooled = Pooled {
        epochs,
        epoch_latency_s: latency_us as f64 / 1e6 / epochs.max(1) as f64,
        goodput_tps: txs as f64 / elapsed_s.max(f64::MIN_POSITIVE),
        accesses_per_epoch: accesses / epochs.max(1) as f64,
        bytes_per_tx: bytes as f64 / txs.max(1) as f64,
        ..Pooled::default()
    };
    if runs.iter().all(|(_, o)| o.service.is_some()) {
        // Service runs: the testbed reports each run's own percentiles, not
        // the samples, so pool them weighted by sample count.
        let summaries: Vec<_> = runs
            .iter()
            .filter_map(|(_, o)| o.service.as_ref().map(|s| &s.latency))
            .collect();
        let count: u64 = summaries.iter().map(|l| l.count).sum();
        let weighted = |pick: fn(&wbft_consensus::LatencySummary) -> u64| -> f64 {
            summaries
                .iter()
                .map(|l| pick(l) as f64 * l.count as f64)
                .sum::<f64>()
                / count.max(1) as f64
                / 1e3
        };
        pooled.commit_p50_ms = weighted(|l| l.p50_us);
        pooled.commit_tail_ms = weighted(|l| l.p99_us);
        pooled.tail_percentile = 0.99;
        pooled.latency_samples = count;
    } else {
        // Fixed-epoch runs hand each batch to the engine when its epoch
        // opens, so a transaction's submit → commit time is its epoch's
        // latency: one sample per committed epoch. Not so on multi-hop,
        // where the cluster tiers run ahead of the global tier and the
        // gaps between global decisions (≈ 250 s, 40 s, 20 s, 20 s) say
        // nothing per epoch: there a run contributes its mean.
        let samples_of = |protocol: Option<Protocol>| -> Vec<f64> {
            runs.iter()
                .filter(|(cfg, _)| protocol.is_none_or(|p| cfg.protocol == p))
                .flat_map(|(cfg, o)| -> Vec<f64> {
                    if cfg.clusters.is_some() {
                        let total: u64 = o.epoch_latencies_us.iter().sum();
                        vec![total as f64 / 1e3 / o.epochs().max(1) as f64]
                    } else {
                        o.epoch_latencies_us
                            .iter()
                            .map(|&us| us as f64 / 1e3)
                            .collect()
                    }
                })
                .collect()
        };
        // The protocols' latencies form separate clusters, and the median
        // of the pooled samples falls in the gap between two of them, where
        // a handful of samples move it by a cluster's width. So: one median
        // per protocol, averaged by sample count (as the service branch
        // does with the testbed's per-run percentiles).
        let all = samples_of(None);
        pooled.commit_p50_ms = protocols_of(runs.iter().map(|(cfg, _)| *cfg))
            .into_iter()
            .map(|p| {
                let of = samples_of(Some(p));
                crate::stats::median(&of) * of.len() as f64
            })
            .sum::<f64>()
            / all.len().max(1) as f64;
        // The upper tail is the slowest protocol's either way: pooled, at
        // the highest percentile the pooled count supports — unless that
        // is the median again.
        let (_, tail, pct) = crate::stats::p50_and_tail(&all);
        pooled.commit_tail_ms = if pct > 0.50 {
            tail
        } else {
            pooled.commit_p50_ms
        };
        pooled.tail_percentile = pct;
        pooled.latency_samples = all.len() as u64;
    }
    pooled
}

// ------------------------------------------------------------------
// Traced pass.

/// Packet keys of the nodes speaking on one channel, for codec replay.
#[derive(Clone, Debug)]
pub struct ChannelKeys {
    pub channel: u8,
    pub peer_keys: Vec<PublicKey>,
    pub keypairs: Vec<KeyPair>,
    pub sizing: Sizing,
}

impl ChannelKeys {
    pub fn of(channel: u8, crypto: &[NodeCrypto]) -> Self {
        ChannelKeys {
            channel,
            peer_keys: crypto[0].peer_keys.clone(),
            keypairs: crypto.iter().map(|c| c.keypair.clone()).collect(),
            sizing: Sizing {
                n: crypto.len(),
                suite: crypto[0].suite,
            },
        }
    }
}

/// Frames each traced single-hop node keeps for codec replay (a multi-hop
/// node, one of four times as many, keeps a quarter): with a dozen runs per
/// workload and each frame heard by three nodes, some six thousand distinct
/// frames, half a second of replay.
const FRAME_CAP: usize = 384;

/// One traced simulation.
pub struct TracedSim {
    pub outcome: SimOutcome,
    pub metrics: Metrics,
    /// Simulator events dispatched.
    pub events: u64,
    /// `run_until_pred` entry and exit, ns from the trace origin.
    pub loop_ns: (u64, u64),
    /// Per node: the timed calls and sampled frames.
    pub recorders: Vec<Recorder>,
    pub keys: Vec<ChannelKeys>,
    /// Committed blocks with no transactions / all committed blocks.
    pub empty_blocks: (u64, u64),
    pub service_stats: Option<ServiceReport>,
    /// Correctness violations found by the block-level gate.
    pub violations: Vec<String>,
}

fn sim_config(cfg: &TestbedConfig) -> SimConfig {
    SimConfig {
        radio: cfg.radio,
        csma: cfg.csma,
        dma: cfg.dma,
        loss: cfg.loss.clone(),
        adversary: cfg.adversary.clone(),
        seed: cfg.seed,
    }
}

/// Same aggregation as the testbed's report step: per-epoch latency is the
/// slowest node's decision time, differenced between epochs.
fn epoch_latencies_us(decision_times: &[Vec<SimTime>], epochs: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut prev = SimTime::ZERO;
    for e in 0..epochs as usize {
        let Some(slowest) = decision_times
            .iter()
            .filter_map(|t| t.get(e))
            .max()
            .copied()
        else {
            break;
        };
        out.push(slowest.saturating_since(prev).as_micros());
        prev = slowest;
    }
    out
}

/// Drives `sim` to `pred` or the deadline and returns
/// `(completed, loop entry ns, loop exit ns)`.
fn drive<B: NodeBehavior>(
    sim: &mut Simulator<B>,
    cfg: &TestbedConfig,
    origin: Instant,
    pred: impl FnMut(&Simulator<B>) -> bool,
) -> (bool, (u64, u64)) {
    let entry = origin.elapsed().as_nanos() as u64;
    let completed = sim.run_until_pred(SimTime::ZERO + cfg.deadline, pred);
    (completed, (entry, origin.elapsed().as_nanos() as u64))
}

fn recorders_of<B: NodeBehavior + EpochProbe>(sim: &Simulator<Timed<B>>) -> Vec<Recorder> {
    sim.behaviors().map(|(_, b)| b.recorder().clone()).collect()
}

/// Block-level gate on one node set's chains: identical digest chains and
/// no transaction committed twice; with `submitted`, every committed
/// transaction must be one of them.
fn check_chains(chains: &[&[Block]], submitted: Option<&BTreeSet<Digest32>>) -> Vec<String> {
    let mut violations = Vec::new();
    let Some(reference) = chains.first() else {
        return violations;
    };
    let reference_digests = block_digests(reference);
    for (i, chain) in chains.iter().enumerate().skip(1) {
        if block_digests(chain) != reference_digests {
            violations.push(format!("node {i}: block-digest chain differs from node 0"));
        }
    }
    let mut seen = BTreeSet::new();
    for tx in reference.iter().flat_map(|b| &b.txs) {
        let d = tx_digest(tx);
        if !seen.insert(d) {
            violations.push("a transaction committed twice".to_string());
        }
        if submitted.is_some_and(|s| !s.contains(&d)) {
            violations.push("a committed transaction was never submitted".to_string());
        }
    }
    violations
}

/// Rebuilds `cfg` (any of the three workload shapes) from public API with
/// timed nodes and runs it.
pub fn run_traced(cfg: &TestbedConfig, origin: Instant) -> TracedSim {
    assert!(cfg.byzantine.is_empty() && cfg.sched.is_none() && cfg.crash.is_none());
    match (cfg.clusters, &cfg.service) {
        (Some(m), _) => traced_multi_hop(cfg, m, origin),
        (None, Some(svc)) => traced_service(cfg, svc, origin),
        (None, None) => traced_fixed(cfg, origin),
    }
}

type Node = ProtocolNode<Box<dyn Engine>>;

fn finish_single_hop(
    cfg: &TestbedConfig,
    sim: &Simulator<Timed<Node>>,
    completed: bool,
    loop_ns: (u64, u64),
    crypto: &[NodeCrypto],
    handles: Option<&[ConsensusHandle]>,
) -> TracedSim {
    let nodes: Vec<&Node> = sim.behaviors().map(|(_, b)| b.inner()).collect();
    let decision_times: Vec<Vec<SimTime>> =
        nodes.iter().map(|b| b.clock().completed.clone()).collect();
    let reference = nodes[0].blocks();
    let epochs = if cfg.service.is_some() {
        reference.len() as u64
    } else {
        cfg.epochs
    };
    let submitted: Option<BTreeSet<Digest32>> = cfg.service.as_ref().map(|svc| {
        (0..cfg.n)
            .flat_map(|i| svc.arrivals.schedule(i))
            .map(|(_, tx)| tx_digest(&tx))
            .collect()
    });
    let chains: Vec<&[Block]> = nodes.iter().map(|b| b.blocks()).collect();
    let mut violations = if completed {
        check_chains(&chains, submitted.as_ref())
    } else {
        Vec::new()
    };
    let service_stats = handles.map(|hs| {
        if completed && !hs.iter().all(ConsensusHandle::drained) {
            violations.push("service run completed without draining".to_string());
        }
        let stats: Vec<ServiceStats> = hs.iter().map(ConsensusHandle::stats).collect();
        ServiceReport::aggregate(&stats)
    });
    let metrics = sim.metrics().clone();
    TracedSim {
        outcome: SimOutcome {
            completed,
            elapsed_us: sim.now().saturating_since(SimTime::ZERO).as_micros(),
            epoch_latencies_us: epoch_latencies_us(&decision_times, epochs),
            total_txs: reference.iter().map(|b| b.txs.len() as u64).sum(),
            channel_accesses: metrics.total_channel_accesses(),
            bytes_on_air: metrics.total_bytes_sent(),
            collisions: metrics.collisions,
            service: service_stats.clone(),
        },
        metrics,
        events: sim.events_processed(),
        loop_ns,
        recorders: recorders_of(sim),
        keys: vec![ChannelKeys::of(0, crypto)],
        empty_blocks: (
            reference.iter().filter(|b| b.txs.is_empty()).count() as u64,
            reference.len() as u64,
        ),
        service_stats,
        violations,
    }
}

fn traced_fixed(cfg: &TestbedConfig, origin: Instant) -> TracedSim {
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xdea1);
    let crypto = deal_node_crypto(cfg.n, cfg.suite, &mut rng);
    let behaviors: Vec<_> = crypto
        .iter()
        .map(|c| {
            let engine = cfg.protocol.engine_at_depth(
                c.clone(),
                cfg.workload.clone(),
                cfg.epochs,
                cfg.pipeline_depth,
            );
            Timed::new(
                ProtocolNode::new(engine, c.clone(), ChannelId(0)),
                origin,
                FRAME_CAP,
            )
        })
        .collect();
    let mut sim = Simulator::new(sim_config(cfg), Topology::single_hop(cfg.n), behaviors);
    let (completed, loop_ns) = drive(&mut sim, cfg, origin, |s| {
        s.behaviors().all(|(_, b)| b.inner().is_done())
    });
    finish_single_hop(cfg, &sim, completed, loop_ns, &crypto, None)
}

fn traced_service(cfg: &TestbedConfig, svc: &ServiceConfig, origin: Instant) -> TracedSim {
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xdea1);
    let crypto = deal_node_crypto(cfg.n, cfg.suite, &mut rng);
    let handles: Vec<ConsensusHandle> = (0..cfg.n)
        .map(|_| ConsensusHandle::new(svc.mempool_capacity))
        .collect();
    let behaviors: Vec<_> = crypto
        .iter()
        .zip(&handles)
        .enumerate()
        .map(|(i, (c, handle))| {
            let engine = cfg.protocol.service_engine_at_depth(
                c.clone(),
                handle.clone(),
                cfg.workload.batch_size,
                svc.max_epochs,
                cfg.pipeline_depth,
            );
            let node = ProtocolNode::new(engine, c.clone(), ChannelId(0))
                .with_service(handle.clone(), svc.arrivals.schedule(i));
            Timed::new(node, origin, FRAME_CAP)
        })
        .collect();
    let mut sim = Simulator::new(sim_config(cfg), Topology::single_hop(cfg.n), behaviors);
    let expected = svc.arrivals.per_node;
    let (completed, loop_ns) = drive(&mut sim, cfg, origin, |s| {
        handles
            .iter()
            .all(|h| h.submissions() == expected && h.drained())
            && {
                let mut lens = s.behaviors().map(|(_, b)| b.inner().blocks().len());
                let first = lens.next().unwrap_or(0);
                lens.all(|l| l == first)
            }
    });
    finish_single_hop(cfg, &sim, completed, loop_ns, &crypto, Some(&handles))
}

fn traced_multi_hop(cfg: &TestbedConfig, m: usize, origin: Instant) -> TracedSim {
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xc1u64);
    let global_crypto = deal_node_crypto(m, cfg.suite, &mut rng);
    let mut keys = vec![ChannelKeys::of(0, &global_crypto)];
    let mut behaviors = Vec::with_capacity(m * cfg.n);
    for (cluster, global) in global_crypto.into_iter().enumerate() {
        let local_crypto = deal_node_crypto(cfg.n, cfg.suite, &mut rng);
        keys.push(ChannelKeys::of(cluster as u8 + 1, &local_crypto));
        for (member, c) in local_crypto.into_iter().enumerate() {
            let node = ClusterNode::new(
                cluster,
                member,
                cfg.n,
                cfg.protocol,
                cfg.workload.clone(),
                cfg.epochs,
                c,
                global.clone(),
            );
            behaviors.push(Timed::new(node, origin, FRAME_CAP / 4));
        }
    }
    let mut sim = Simulator::new(sim_config(cfg), Topology::clustered(m, cfg.n), behaviors);
    let (completed, loop_ns) = drive(&mut sim, cfg, origin, |s| {
        s.behaviors().all(|(_, b)| b.inner().is_done())
    });
    let decision_times: Vec<Vec<SimTime>> = sim
        .behaviors()
        .map(|(_, b)| b.inner().decided_at.clone())
        .collect();
    // The global tier's outcome is the multi-hop ledger: every node must
    // know the same `(epoch, block digest, tx count)` for every epoch
    // (nodes learn them in different orders, hence the sort).
    let ledger_of = |node: &ClusterNode| {
        let mut ledger = node.global_decisions.clone();
        ledger.sort_unstable_by_key(|(epoch, _, _)| *epoch);
        ledger
    };
    let mut violations = Vec::new();
    let reference = ledger_of(sim.behavior(NodeId(0)).inner());
    for (id, b) in sim.behaviors() {
        if completed && ledger_of(b.inner()) != reference {
            violations.push(format!("{id}: global decisions differ from node 0"));
        }
    }
    let metrics = sim.metrics().clone();
    TracedSim {
        outcome: SimOutcome {
            completed,
            elapsed_us: sim.now().saturating_since(SimTime::ZERO).as_micros(),
            epoch_latencies_us: epoch_latencies_us(&decision_times, cfg.epochs),
            total_txs: sim.behavior(NodeId(0)).inner().global_tx_total(),
            channel_accesses: metrics.total_channel_accesses(),
            bytes_on_air: metrics.total_bytes_sent(),
            collisions: metrics.collisions,
            service: None,
        },
        metrics,
        events: sim.events_processed(),
        loop_ns,
        recorders: recorders_of(&sim),
        keys,
        empty_blocks: (
            reference.iter().filter(|(_, _, txs)| *txs == 0).count() as u64,
            reference.len() as u64,
        ),
        service_stats: None,
        violations,
    }
}
