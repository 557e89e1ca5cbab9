//! The asynchronous wireless BFT consensus testbed (paper §V-C).
//!
//! One configuration struct describes an experiment — protocol, node count,
//! workload, radio/CSMA/DMA parameters, loss, adversary, crypto suite,
//! single-hop or clustered multi-hop — and [`run`] executes it on the
//! discrete-event simulator, returning the quantities the paper's figures
//! plot: per-epoch latency, throughput in transactions per minute (TPM),
//! channel accesses per node, bytes on air, collisions and CPU time.
//!
//! Every single-hop scenario — whatever mix of service load, pipelining,
//! Byzantine nodes, crash/restart and membership churn it engages — runs
//! on one rig: `assemble` builds each node from the config (the UDP
//! runners in [`crate::netrun`] call it too), the rig plays the scheduled
//! timeline, races one completion predicate and checks one set of oracles.
//! Which axes compose is one rule, [`TestbedConfig::check`], stated as the
//! [`EXCLUSIONS`] table.

use crate::byzantine::{ByzantineEngine, ByzantineMode};
use crate::driver::{Block, Engine, ProtocolNode, Tx};
use crate::membership::MembershipCtl;
use crate::multihop::ClusterNode;
use crate::protocol::Protocol;
use crate::recovery::BlockJournal;
use crate::service::{
    ConsensusHandle, ServiceConfig, ServiceReport, ServiceStats, StopCondition,
};
use crate::workload::{BatchSource, Workload};
use wbft_components::rbc::{FRAG_BUDGET, MAX_FRAGS, MAX_VALUE_BYTES};
use wbft_components::{deal_committee_crypto, deal_node_crypto, NodeCrypto};
use wbft_crypto::{CryptoSuite, Digest32};
use wbft_journal::{JournalError, JournalStore, SharedMem};
use wbft_membership::{MembershipOp, ACTIVATION_DELAY};
use wbft_net::Bitmap;
use wbft_transport::SYNC_CHANNEL;
use wbft_wireless::{
    AdversaryConfig, ChannelId, CsmaParams, DmaParams, LossModel, Metrics, NodeId, RadioParams,
    SchedConfig, SimConfig, SimDuration, SimTime, Simulator, Topology,
};

/// One crash-restart event on the churn timeline: the node's process dies
/// at `at_us` (losing all volatile state, cutting its in-flight frames)
/// and a fresh incarnation boots at `restart_us`, recovering its committed
/// prefix from the durable journal and catching the rest up through the
/// anti-entropy sync channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// Node to crash (must be honest).
    pub node: usize,
    /// Simulated microseconds from start at which the node dies.
    pub at_us: u64,
    /// Simulated microseconds at which it restarts (`> at_us`).
    pub restart_us: u64,
}

/// A seed-deterministic crash/churn schedule: crash/restart is a fault
/// axis like loss or Byzantine behaviour, not a separate harness. With a
/// plan installed every node journals its commits to an in-memory durable
/// store and listens on the reserved sync channel, so restarted nodes
/// recover their prefix and converge with the survivors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashPlan {
    /// Crash events; at most one per node, nodes disjoint from `byzantine`.
    pub crashes: Vec<CrashEvent>,
}

/// A consensus-ordered membership change: from `from_epoch` on, the
/// genesis members inject the listed join/leave ops into their proposals
/// as reserved-class transactions. Whatever epoch `e` the ops commit in,
/// the change activates at `e + ACTIVATION_DELAY`, after the old
/// committee's canonical dealers have reshared the threshold keys to the
/// new committee — so the simulated nodes cover the genesis committee
/// *and* every joiner, and the run only completes once all of them hold
/// the agreed chain.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Epoch from which the ops enter proposals. They commit together as
    /// one configuration change.
    pub from_epoch: u64,
    /// The membership operations of the change.
    pub ops: Vec<MembershipOp>,
}

/// Full description of one testbed experiment.
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// Protocol deployment under test.
    pub protocol: Protocol,
    /// Nodes in a single-hop run; nodes *per cluster* in multi-hop.
    pub n: usize,
    /// Epochs to run.
    pub epochs: u64,
    /// Transaction workload.
    pub workload: Workload,
    /// Curve deployments.
    pub suite: CryptoSuite,
    /// Simulation seed.
    pub seed: u64,
    /// Frame-loss model.
    pub loss: LossModel,
    /// Radio parameters.
    pub radio: RadioParams,
    /// Medium-access parameters.
    pub csma: CsmaParams,
    /// DMA delivery model.
    pub dma: DmaParams,
    /// Adversarial delivery scheduling.
    pub adversary: AdversaryConfig,
    /// `Some` = worst-case delivery scheduler: an active adversary that
    /// inspects each deliverable frame and holds it back within a hard
    /// per-delivery budget (see [`wbft_wireless::sched`]). Built by
    /// [`crate::fuzz::build_scheduler`], which also handles the
    /// protocol-aware policies the wireless layer cannot decode.
    pub sched: Option<SchedConfig>,
    /// Byzantine nodes: `(node id, behaviour)`, ids distinct and below `n`.
    pub byzantine: Vec<(usize, ByzantineMode)>,
    /// Simulated-time budget.
    pub deadline: SimDuration,
    /// `Some(m)` = multi-hop with `m` clusters of `n` nodes each.
    pub clusters: Option<usize>,
    /// `Some` = live-service run: epochs pull proposals from client-fed
    /// mempools under an open-loop arrival schedule instead of the
    /// pre-seeded workload, and the report gains a [`ServiceReport`]
    /// (`epochs` is ignored in favour of the service's `max_epochs`).
    pub service: Option<ServiceConfig>,
    /// Pipeline depth `W`: how many epochs keep their dissemination in
    /// flight while earlier epochs finish agreement. `1` (the default) is
    /// the strictly sequential engine; absent from the JSON encoding at 1
    /// so pre-pipelining configs keep their exact bytes.
    pub pipeline_depth: u64,
    /// `Some` = crash/churn schedule: nodes journal commits durably, the
    /// listed nodes are killed and restarted at the scheduled times, and
    /// the run only completes once the restarted nodes have recovered and
    /// caught up. Absent from the JSON encoding when `None` so pre-churn
    /// configs keep their exact bytes.
    pub crash: Option<CrashPlan>,
    /// `Some` = dynamic-membership schedule: join/leave ops ride the
    /// ordered transaction path, quorum math follows the chain-derived
    /// committee view, and threshold keys are reshared to the new
    /// committee before activation. Absent from the JSON encoding when
    /// `None` so pre-membership configs keep their exact bytes.
    pub churn: Option<ChurnPlan>,
}

impl TestbedConfig {
    /// The paper's single-hop setting: 4 nodes, LoRa radio, light suite.
    pub fn single_hop(protocol: Protocol) -> Self {
        TestbedConfig {
            protocol,
            n: 4,
            epochs: 2,
            workload: Workload { batch_size: 32, tx_bytes: 16, seed: 1 },
            suite: CryptoSuite::light(),
            seed: 7,
            loss: LossModel::None,
            radio: RadioParams::lora_sf7(),
            csma: CsmaParams::lora_class(),
            dma: DmaParams::aligned(),
            adversary: AdversaryConfig::benign(),
            sched: None,
            byzantine: Vec::new(),
            deadline: SimDuration::from_secs(3_600),
            clusters: None,
            service: None,
            pipeline_depth: 1,
            crash: None,
            churn: None,
        }
    }

    /// The paper's multi-hop setting: 16 nodes in 4 clusters of 4.
    pub fn multi_hop(protocol: Protocol) -> Self {
        TestbedConfig { clusters: Some(4), ..Self::single_hop(protocol) }
    }
}

/// Measured outcome of one run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// All honest nodes finished every epoch before the deadline.
    pub completed: bool,
    /// Simulated time at completion (or deadline).
    pub elapsed: SimDuration,
    /// Per-epoch latency: slowest honest node's decision time for the
    /// epoch, minus the previous epoch's.
    pub epoch_latencies: Vec<SimDuration>,
    /// Mean of `epoch_latencies` in seconds.
    pub mean_latency_s: f64,
    /// Committed transactions per minute of simulated time.
    pub throughput_tpm: f64,
    /// Total transactions committed (node 0's chain; multi-hop: global).
    pub total_txs: u64,
    /// Mean channel accesses per node — the Table I statistic.
    pub channel_accesses_per_node: f64,
    /// Nominal bytes transmitted.
    pub bytes_on_air: u64,
    /// Medium collision events.
    pub collisions: u64,
    /// Full per-node simulator counters (airtime, losses, CPU time) for
    /// scriptable figure regeneration from the JSON reports.
    pub metrics: Metrics,
    /// Service-mode statistics: submission/backpressure counters and
    /// per-transaction commit-latency percentiles. `None` on fixed-epoch
    /// runs (and absent from their JSON, keeping them byte-identical to
    /// pre-service reports).
    pub service: Option<ServiceReport>,
}

// Pure aggregation step shared by the single- and multi-hop simulator
// paths and the UDP runner (`netrun`).
pub(crate) fn finish_report(
    completed: bool,
    elapsed: SimDuration,
    decision_times: Vec<Vec<SimTime>>,
    total_txs: u64,
    metrics: Metrics,
    epochs: u64,
) -> RunReport {
    // Per-epoch latency: max over honest nodes, differenced between epochs.
    let mut epoch_latencies = Vec::new();
    let mut prev = SimTime::ZERO;
    for e in 0..epochs as usize {
        let slowest = decision_times
            .iter()
            .filter_map(|times| times.get(e))
            .max()
            .copied();
        match slowest {
            Some(t) => {
                epoch_latencies.push(t.saturating_since(prev));
                prev = t;
            }
            None => break,
        }
    }
    let mean_latency_s = if epoch_latencies.is_empty() {
        f64::NAN
    } else {
        epoch_latencies.iter().map(|d| d.as_secs_f64()).sum::<f64>()
            / epoch_latencies.len() as f64
    };
    let minutes = elapsed.as_secs_f64() / 60.0;
    let throughput_tpm = if minutes > 0.0 { total_txs as f64 / minutes } else { 0.0 };
    RunReport {
        completed,
        elapsed,
        epoch_latencies,
        mean_latency_s,
        throughput_tpm,
        total_txs,
        channel_accesses_per_node: metrics.mean_channel_accesses(),
        bytes_on_air: metrics.total_bytes_sent(),
        collisions: metrics.collisions,
        metrics,
        service: None,
    }
}

/// A scenario axis a config can engage beyond the plain single-hop,
/// sequential, honest, fixed-committee run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    /// `clusters: Some(_)`.
    MultiHop,
    /// `service: Some(_)`.
    Service,
    /// `pipeline_depth > 1`.
    Pipelined,
    /// `byzantine` non-empty.
    Byzantine,
    /// `crash: Some(_)`.
    Crash,
    /// `churn: Some(_)`.
    Churn,
}

impl Axis {
    /// Every axis, in the order the composition table lists them.
    pub const ALL: [Axis; 6] =
        [Axis::MultiHop, Axis::Service, Axis::Pipelined, Axis::Byzantine, Axis::Crash, Axis::Churn];

    /// Name used in refusals and the README's composition table.
    pub fn name(self) -> &'static str {
        match self {
            Axis::MultiHop => "multi-hop",
            Axis::Service => "service",
            Axis::Pipelined => "pipeline depth > 1",
            Axis::Byzantine => "Byzantine nodes",
            Axis::Crash => "crash plan",
            Axis::Churn => "churn plan",
        }
    }

    fn engaged(self, cfg: &TestbedConfig) -> bool {
        match self {
            Axis::MultiHop => cfg.clusters.is_some(),
            Axis::Service => cfg.service.is_some(),
            Axis::Pipelined => cfg.pipeline_depth > 1,
            Axis::Byzantine => !cfg.byzantine.is_empty(),
            Axis::Crash => cfg.crash.is_some(),
            Axis::Churn => cfg.churn.is_some(),
        }
    }
}

/// The pairs of axes that cannot be combined, each with the protocol reason.
/// Every other pair is a legal scenario. This table is the one statement of
/// the rule: [`TestbedConfig::check`] enforces it, the sweep and the UDP
/// runners call `check`, and the README's table is generated from it.
pub const EXCLUSIONS: [(Axis, Axis, &str); 9] = [
    (
        Axis::MultiHop,
        Axis::Service,
        "ClusterNode engines propose from the fixed workload; no client handle reaches a cluster tier",
    ),
    (
        Axis::MultiHop,
        Axis::Pipelined,
        "ClusterNode runs one single-epoch global instance at a time, seeded by the local decision: no window to deepen",
    ),
    (
        Axis::MultiHop,
        Axis::Byzantine,
        "ClusterNode has no Byzantine wrap; the placement would be dropped and the report mislabelled",
    ),
    (
        Axis::MultiHop,
        Axis::Crash,
        "ClusterNode has no journal and no sync channel to restart a member from",
    ),
    (
        Axis::MultiHop,
        Axis::Churn,
        "ClusterNode engines run fixed committees (no membership controller at either tier)",
    ),
    (
        Axis::Service,
        Axis::Crash,
        "a restarted node's mempool is gone: what it admitted but never committed has no drain semantics",
    ),
    (
        Axis::Service,
        Axis::Churn,
        "a leaver stops proposing at activation: what is left in its mempool has no drain semantics",
    ),
    (
        Axis::Byzantine,
        Axis::Churn,
        "the resharing ceremony waits for every canonical dealer; one that never deals has no fallback",
    ),
    (
        Axis::Crash,
        Axis::Churn,
        "reshared key shares are not journaled, and a crashed canonical dealer stalls the ceremony",
    ),
];

/// `true` for a committee size `n = 3f + 1 >= 4`.
fn is_bft_size(n: usize) -> bool {
    n >= 4 && (n - 1).is_multiple_of(3)
}

impl TestbedConfig {
    /// Checks the config describes a simulable scenario: the loss model
    /// must leave eventual delivery intact, the adversary must be honest
    /// about its delay bound, any scheduler config must be well-formed, the
    /// engaged axes must compose ([`EXCLUSIONS`]) and every fault plan must
    /// stay inside what the quorum sizes tolerate — a scenario that breaks
    /// the model's standing assumptions would produce a report whose
    /// correctness claims are vacuous.
    ///
    /// # Errors
    ///
    /// The first violated rule, as a one-line reason.
    pub fn check(&self) -> Result<(), String> {
        self.loss.validate().map_err(|e| format!("invalid loss config: {e}"))?;
        self.adversary.validate().map_err(|e| format!("invalid adversary config: {e}"))?;
        if let Some(sched) = &self.sched {
            sched.validate().map_err(|e| format!("invalid scheduler config: {e}"))?;
        }
        if self.pipeline_depth == 0 {
            return Err("invalid pipeline depth: 0 (W >= 1; W = 1 is sequential)".into());
        }
        // Every node set on the wire (NACKs, votes, commit sets) is a
        // `Bitmap`, and so is the global tier's set of cluster leaders.
        let nodes = self.n_total();
        if nodes > Bitmap::CAPACITY {
            return Err(format!(
                "{nodes} nodes (genesis plus joiners) exceed the {} a node bitmap holds",
                Bitmap::CAPACITY
            ));
        }
        if let Some(m) = self.clusters.filter(|&m| m > Bitmap::CAPACITY) {
            return Err(format!(
                "{m} clusters exceed the {} global-tier members a node bitmap holds",
                Bitmap::CAPACITY
            ));
        }
        // Every committee is dealt `(f, n)` threshold keys, so the genesis
        // committee and a multi-hop global tier both need `n = 3f + 1`.
        if !is_bft_size(self.n) {
            return Err(format!("invalid genesis committee size {} (need 3f+1 >= 4)", self.n));
        }
        if let Some(m) = self.clusters.filter(|&m| !is_bft_size(m)) {
            return Err(format!("invalid cluster count {m} (need 3f+1 >= 4)"));
        }
        // A proposal no receiver can reassemble is never aired, and the
        // run would sit to its deadline. (Service proposals are bounded by
        // what clients submit, not by the config.)
        let proposal = self.protocol.proposal_bytes(&self.workload);
        if self.service.is_none() && proposal > MAX_VALUE_BYTES {
            return Err(format!(
                "invalid workload: {} transactions of {} B make a {proposal} B proposal, over \
                 the {MAX_VALUE_BYTES} B a broadcast instance carries ({MAX_FRAGS} fragments \
                 of {FRAG_BUDGET} B)",
                self.workload.batch_size, self.workload.tx_bytes
            ));
        }
        for (a, b, why) in EXCLUSIONS {
            if a.engaged(self) && b.engaged(self) {
                return Err(format!("{} x {} is refused: {why}", a.name(), b.name()));
            }
        }
        for (k, (node, _)) in self.byzantine.iter().enumerate() {
            if *node >= self.n {
                return Err(format!("Byzantine placement names node {node} but n = {}", self.n));
            }
            if self.byzantine[..k].iter().any(|(b, _)| b == node) {
                return Err(format!("node {node} is listed as Byzantine more than once"));
            }
        }
        if let Some(plan) = &self.crash {
            self.check_crash(plan)?;
        }
        if let Some(plan) = &self.churn {
            self.check_churn(plan)?;
        }
        Ok(())
    }

    fn check_crash(&self, plan: &CrashPlan) -> Result<(), String> {
        if plan.crashes.is_empty() {
            return Err("crash plan has no events (use crash: None for no churn)".into());
        }
        let deadline_us = self.deadline.as_micros();
        for (k, ev) in plan.crashes.iter().enumerate() {
            if ev.node >= self.n {
                return Err(format!("crash event names node {} but n = {}", ev.node, self.n));
            }
            if ev.restart_us <= ev.at_us {
                return Err(format!(
                    "crash of node {} restarts at {}us, not after {}us",
                    ev.node, ev.restart_us, ev.at_us
                ));
            }
            if ev.restart_us >= deadline_us {
                return Err(format!(
                    "crash of node {} restarts after the {deadline_us}us deadline",
                    ev.node
                ));
            }
            if self.byzantine.iter().any(|(b, _)| *b == ev.node) {
                return Err(format!("node {} is both Byzantine and crash-scheduled", ev.node));
            }
            if plan.crashes[..k].iter().any(|e| e.node == ev.node) {
                return Err(format!(
                    "node {} crashes more than once (one event per node)",
                    ev.node
                ));
            }
        }
        // A down node is indistinguishable from a silent faulty one, so
        // crashed + Byzantine together must stay within the f the quorum
        // sizes tolerate or the liveness claim is vacuous.
        let f = self.n.saturating_sub(1) / 3;
        if plan.crashes.len() + self.byzantine.len() > f {
            return Err(format!(
                "{} crashed + {} Byzantine nodes exceed f = {f} for n = {}",
                plan.crashes.len(),
                self.byzantine.len(),
                self.n
            ));
        }
        Ok(())
    }

    fn check_churn(&self, plan: &ChurnPlan) -> Result<(), String> {
        if plan.ops.is_empty() {
            return Err("churn plan has no ops (use churn: None for a static committee)".into());
        }
        let mut join_ids: Vec<usize> = Vec::new();
        for (k, op) in plan.ops.iter().enumerate() {
            if plan.ops[..k].contains(op) {
                return Err(format!("churn plan repeats {op}"));
            }
            match op {
                MembershipOp::Join(id) if (*id as usize) < self.n => {
                    return Err(format!(
                        "churn {op} names a genesis member (ids below n = {})",
                        self.n
                    ));
                }
                MembershipOp::Join(id) => join_ids.push(*id as usize),
                MembershipOp::Leave(id) if (*id as usize) >= self.n => {
                    return Err(format!(
                        "churn {op} names a node outside the genesis committee (n = {})",
                        self.n
                    ));
                }
                MembershipOp::Leave(_) => {}
            }
        }
        // Joins must use contiguous fresh ids: every simulated node has to
        // end up a member eventually, or the run can never complete (a
        // dealt-but-never-joining node would idle at the stop forever).
        join_ids.sort_unstable();
        if let Some((_, id)) = join_ids.iter().enumerate().find(|(k, id)| **id != self.n + k) {
            return Err(format!(
                "churn joins must use contiguous fresh ids from n = {} (got join({id}))",
                self.n
            ));
        }
        let leaves = plan.ops.len() - join_ids.len();
        let new_n = self.n + join_ids.len() - leaves;
        if !is_bft_size(new_n) {
            return Err(format!(
                "churn plan leaves an invalid committee size {new_n} (need 3f+1 >= 4)"
            ));
        }
        // The change commits no earlier than `from_epoch` and activates
        // ACTIVATION_DELAY epochs later; at least one epoch must run under
        // the new committee or the plan is dead weight.
        if plan.from_epoch + ACTIVATION_DELAY >= self.epochs {
            return Err(format!(
                "churn from epoch {} cannot activate within {} epochs \
                 (activation = commit + {ACTIVATION_DELAY})",
                plan.from_epoch, self.epochs
            ));
        }
        Ok(())
    }

    /// Crash and churn runs put every node on the anti-entropy channel:
    /// restarted nodes, joiners and leavers catch up through it.
    fn syncs(&self) -> bool {
        self.crash.is_some() || self.churn.is_some()
    }

    /// Simulated nodes: the genesis committee plus every scheduled joiner
    /// (`check` makes their ids contiguous from `n`).
    fn n_total(&self) -> usize {
        let joins = self.churn.iter().flat_map(|p| &p.ops);
        self.n + joins.filter(|op| matches!(op, MembershipOp::Join(_))).count()
    }
}

/// The panicking front of [`TestbedConfig::check`].
pub fn validate(cfg: &TestbedConfig) {
    if let Err(why) = cfg.check() {
        panic!("{why}");
    }
}

/// Executes one experiment.
pub fn run(cfg: &TestbedConfig) -> RunReport {
    validate(cfg);
    match cfg.clusters {
        Some(m) => run_multi_hop(cfg, m),
        None => {
            let mut rig = Rig::build(cfg);
            let completed = rig.run(SimTime::ZERO + cfg.deadline, |_| false);
            rig.finish(completed).unwrap_or_else(|Divergence(why)| panic!("{why}"))
        }
    }
}

/// Installs the configured delivery scheduler, if any.
fn install_scheduler<B: wbft_wireless::NodeBehavior>(cfg: &TestbedConfig, sim: &mut Simulator<B>) {
    if let Some(sched) = &cfg.sched {
        sim.set_scheduler(crate::fuzz::build_scheduler(sched));
    }
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

/// Deals the single-hop identities of `cfg` from its seed — the simulator
/// and every UDP process derive the identical key vectors without any
/// exchange.
pub(crate) fn deal_single_hop(cfg: &TestbedConfig) -> Vec<NodeCrypto> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xdea1);
    deal_committee_crypto(cfg.n, cfg.n_total(), cfg.suite, &mut rng)
}

/// One single-hop node, on the simulator or a UDP runtime.
pub(crate) type Node = ProtocolNode<Box<dyn Engine>>;

/// The resources of one node that outlive (or sit outside) the node
/// itself. Each is bound only when present, so a run whose axes need none
/// of them gets the bare engine-on-a-radio every report was pinned with.
pub(crate) struct Attach {
    /// Live service binding.
    pub service: Option<ServiceAttach>,
    /// Durable block store — the node's disk. Whatever it already holds is
    /// replayed before the engine starts, so one assembly serves cold boot
    /// (empty store) and restart.
    pub store: Option<Box<dyn JournalStore + Send>>,
    /// Join the anti-entropy sync channel.
    pub sync: bool,
}

/// The live-service binding of one node.
pub(crate) struct ServiceAttach {
    /// The handle epochs pull proposals from and stream commits into.
    pub handle: ConsensusHandle,
    /// Local arrival schedule (empty when submissions arrive over a
    /// client gateway).
    pub arrivals: Vec<(SimDuration, Tx)>,
    /// Hard epoch bound.
    pub max_epochs: u64,
}

/// Assembles one node of `cfg`: the only place an engine is built, wrapped
/// and bound to its driver. The proposal source and stop follow the
/// service binding (else the fixed workload and epoch count), membership
/// follows `cfg.churn` (genesis members sponsor the plan's ops; joiners
/// cannot propose until they are members, so they schedule nothing) and
/// the Byzantine wrap follows `cfg.byzantine`.
///
/// # Errors
///
/// The durable store failed to replay.
pub(crate) fn assemble(
    cfg: &TestbedConfig,
    crypto: NodeCrypto,
    attach: Attach,
) -> Result<Node, JournalError> {
    let me = crypto.me;
    let (source, stop) = match &attach.service {
        Some(svc) => (
            BatchSource::Service { handle: svc.handle.clone(), max_batch: cfg.workload.batch_size },
            StopCondition::Service { handle: svc.handle.clone(), max_epochs: svc.max_epochs },
        ),
        None => (cfg.workload.clone().into(), StopCondition::Epochs(cfg.epochs)),
    };
    let membership = cfg.churn.as_ref().map(|plan| {
        let mut ctl = MembershipCtl::new(crypto.clone(), cfg.n);
        if me < cfg.n {
            for op in &plan.ops {
                ctl.schedule_op(plan.from_epoch, *op);
            }
        }
        ctl
    });
    let mut engine =
        cfg.protocol.build(crypto.clone(), source, stop, cfg.pipeline_depth, membership);
    let mut journal = None;
    let mut recovered = 0;
    if let Some(store) = attach.store {
        let (opened, blocks) = BlockJournal::open(store)?;
        // The recovered prefix re-enters the block stream and the mempool
        // dedup set; the engine resumes from the epoch past it.
        if let Some(svc) = &attach.service {
            svc.handle.recover_chain(&blocks);
        }
        recovered = blocks.len();
        engine.restore_chain(blocks);
        journal = Some(opened);
    }
    if let Some((_, mode)) = cfg.byzantine.iter().find(|(b, _)| *b == me) {
        engine = Box::new(ByzantineEngine::new(engine, *mode));
    }
    let mut node = ProtocolNode::new(engine, crypto, ChannelId(0)).with_recovered(recovered);
    if let Some(svc) = attach.service {
        node = node.with_service(svc.handle, svc.arrivals);
    }
    if let Some(journal) = journal {
        node = node.with_journal(journal);
    }
    if attach.sync {
        node = node.with_sync(ChannelId(SYNC_CHANNEL));
    }
    Ok(node)
}

/// An oracle of [`Rig::finish`] failed: the run's honest nodes (or their
/// journals) do not hold one agreed chain, or a node dropped a send the
/// wire format cannot carry.
pub(crate) struct Divergence(pub(crate) String);

/// One single-hop scenario on the simulator, whatever axes it engages:
/// the nodes, the scheduled crash/restart timeline, one completion
/// predicate and one set of oracles.
pub(crate) struct Rig<'a> {
    cfg: &'a TestbedConfig,
    pub(crate) sim: Simulator<Node>,
    /// Nodes whose completion and agreement count: the honest ones.
    gate: Vec<bool>,
    /// The node whose chain is the agreement reference: the first honest
    /// genesis member that neither crashes nor leaves — it follows the
    /// whole run natively. `None` only when no such node exists.
    reference: Option<usize>,
    crypto: Vec<NodeCrypto>,
    /// Per-node durable stores (crash runs; else empty). They outlive the
    /// crashed incarnations — the sim's stand-in for each node's disk.
    stores: Vec<SharedMem>,
    /// Per-node service handles (service runs; else empty).
    handles: Vec<ConsensusHandle>,
    /// `(simulated µs, node, is restart)`, time-sorted.
    timeline: Vec<(u64, usize, bool)>,
}

/// Node `i` of a simulated `cfg`, assembled with what the engaged axes
/// need: service runs bind a handle and the arrival schedule, crash runs
/// journal to a durable store (`stores` is empty otherwise).
fn boot(
    cfg: &TestbedConfig,
    i: usize,
    crypto: &[NodeCrypto],
    stores: &[SharedMem],
    handles: &[ConsensusHandle],
) -> Node {
    let attach = Attach {
        service: cfg.service.as_ref().map(|svc| ServiceAttach {
            handle: handles[i].clone(),
            arrivals: svc.arrivals.schedule(i),
            max_epochs: svc.max_epochs,
        }),
        store: stores.get(i).map(|s| Box::new(s.clone()) as Box<dyn JournalStore + Send>),
        sync: cfg.syncs(),
    };
    assemble(cfg, crypto[i].clone(), attach).expect("durable journal recovery failed")
}

/// The completion predicate, evaluated after every simulator event.
/// Service runs: every gated node saw its full arrival schedule and
/// resolved every admitted transaction into a block, and the gated chains
/// are level (no node still waiting on the final commit). Otherwise: every
/// gated node's engine is done.
fn complete(sim: &Simulator<Node>, gate: &[bool], handles: &[ConsensusHandle], expected: u64) -> bool {
    let mut gated = sim.behaviors().filter(|(id, _)| gate[id.index()]);
    if handles.is_empty() {
        return gated.all(|(_, b)| b.is_done());
    }
    let drained = handles
        .iter()
        .zip(gate)
        .filter(|(_, gated)| **gated)
        .all(|(h, _)| h.submissions() == expected && h.drained());
    drained && {
        let first = gated.next().map_or(0, |(_, b)| b.blocks().len());
        gated.all(|(_, b)| b.blocks().len() == first)
    }
}

impl<'a> Rig<'a> {
    /// Builds the scenario `cfg` describes (which [`validate`] accepted).
    pub(crate) fn build(cfg: &'a TestbedConfig) -> Self {
        let crypto = deal_single_hop(cfg);
        let n_total = crypto.len();
        let crashes = || cfg.crash.iter().flat_map(|plan| &plan.crashes);
        let leaves =
            |i| cfg.churn.iter().any(|plan| plan.ops.contains(&MembershipOp::Leave(i as u16)));
        let gate: Vec<bool> =
            (0..n_total).map(|i| !cfg.byzantine.iter().any(|(b, _)| *b == i)).collect();
        let reference =
            (0..cfg.n).find(|&i| gate[i] && !crashes().any(|ev| ev.node == i) && !leaves(i));
        let stores: Vec<SharedMem> =
            cfg.crash.iter().flat_map(|_| (0..n_total).map(|_| SharedMem::new())).collect();
        let handles: Vec<ConsensusHandle> = cfg
            .service
            .iter()
            .flat_map(|svc| (0..n_total).map(|_| ConsensusHandle::new(svc.mempool_capacity)))
            .collect();
        let mut timeline: Vec<(u64, usize, bool)> = crashes()
            .flat_map(|ev| [(ev.at_us, ev.node, false), (ev.restart_us, ev.node, true)])
            .collect();
        timeline.sort_by_key(|(t, ..)| *t);
        let behaviors: Vec<Node> =
            (0..n_total).map(|i| boot(cfg, i, &crypto, &stores, &handles)).collect();
        let mut topo = Topology::single_hop(n_total);
        if cfg.syncs() {
            for i in 0..n_total {
                topo.join_channel(NodeId(i as u16), ChannelId(SYNC_CHANNEL));
            }
        }
        let mut sim = Simulator::new(sim_config(cfg), topo, behaviors);
        install_scheduler(cfg, &mut sim);
        Rig { cfg, sim, gate, reference, crypto, stores, handles, timeline }
    }

    /// Plays the crash/restart timeline, then races the completion
    /// predicate against `deadline` — and against `extra_stop`, which is
    /// how the fuzzer adds its event budget. Returns whether the scenario
    /// completed.
    pub(crate) fn run(
        &mut self,
        deadline: SimTime,
        mut extra_stop: impl FnMut(&Simulator<Node>) -> bool,
    ) -> bool {
        for (t, i, restart) in std::mem::take(&mut self.timeline) {
            self.sim.run_until(SimTime::ZERO + SimDuration::from_micros(t));
            if restart {
                // Same identity, same disk: the journal replays whatever
                // the dead incarnation committed.
                let node = boot(self.cfg, i, &self.crypto, &self.stores, &self.handles);
                self.sim.restart_node(NodeId(i as u16), node);
            } else {
                self.sim.crash_node(NodeId(i as u16));
            }
        }
        let (gate, handles) = (&self.gate, &self.handles);
        let expected = self.cfg.service.as_ref().map_or(0, |svc| svc.arrivals.per_node);
        self.sim.run_until_pred(deadline, |s| extra_stop(s) || complete(s, gate, handles, expected));
        complete(&self.sim, gate, handles, expected)
    }

    /// The agreement reference chain.
    pub(crate) fn reference_chain(&self) -> &[Block] {
        match self.reference {
            Some(i) => self.sim.behavior(NodeId(i as u16)).blocks(),
            None => &[],
        }
    }

    /// The gated (honest) nodes that are up.
    pub(crate) fn gated(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.sim.behaviors().filter(|(id, _)| self.gate[id.index()])
    }

    /// Checks the oracles and aggregates the report. Prefix agreement with
    /// the reference is the BFT invariant and holds at any instant; a
    /// completed run must also have level chains (restarted nodes, leavers
    /// and joiners converged), journals that replay to the agreed chain —
    /// the journal is the recovery story, so check it, not just the
    /// engines — and every scheduled membership op committed. No node, of
    /// any run, may have dropped a send as unencodable: a packet the wire
    /// format cannot carry never reaches its peers.
    ///
    /// # Errors
    ///
    /// The first oracle that failed.
    pub(crate) fn finish(&self, completed: bool) -> Result<RunReport, Divergence> {
        if let Some((id, dropped)) = unencodable(self.sim.behaviors(), Node::unencodable_sends) {
            return Err(Divergence(format!("{id} dropped {dropped} unencodable sends")));
        }
        let reference = self.reference_chain();
        let agrees = |chain: &[Block]| {
            let common = chain.len().min(reference.len());
            chain[..common] == reference[..common]
        };
        for (id, b) in self.gated() {
            if !agrees(b.blocks()) {
                return Err(Divergence(format!("agreement violated at {id}")));
            }
            if completed && b.blocks().len() != reference.len() {
                return Err(Divergence(format!("chains not level at {id}")));
            }
        }
        for ev in self.cfg.crash.iter().flat_map(|plan| &plan.crashes) {
            let replayed = BlockJournal::open(Box::new(self.stores[ev.node].clone()));
            if !replayed.is_ok_and(|(_, blocks)| agrees(&blocks)) {
                return Err(Divergence(format!(
                    "journal of node {} diverged from the agreed chain",
                    ev.node
                )));
            }
        }
        if let Some(plan) = self.cfg.churn.as_ref().filter(|_| completed) {
            let committed = |op: &MembershipOp| {
                reference
                    .iter()
                    .flat_map(|b| &b.txs)
                    .any(|tx| wbft_membership::decode_op(tx.as_ref()) == Some(*op))
            };
            if let Some(op) = plan.ops.iter().find(|op| !committed(op)) {
                return Err(Divergence(format!("churn op {op} never committed")));
            }
        }
        let decision_times = self.gated().map(|(_, b)| b.clock().completed.clone()).collect();
        let total_txs = reference.iter().map(|b| b.txs.len() as u64).sum();
        // Service runs report however many epochs the load took.
        let epochs =
            if self.handles.is_empty() { self.cfg.epochs } else { reference.len() as u64 };
        let elapsed = self.sim.now().saturating_since(SimTime::ZERO);
        let metrics = self.sim.metrics().clone();
        let mut report =
            finish_report(completed, elapsed, decision_times, total_txs, metrics, epochs);
        if !self.handles.is_empty() {
            let stats: Vec<ServiceStats> = self
                .handles
                .iter()
                .zip(&self.gate)
                .filter(|(_, gated)| **gated)
                .map(|(h, _)| h.stats())
                .collect();
            report.service = Some(ServiceReport::aggregate(&stats));
        }
        Ok(report)
    }
}

/// The clustered counterpart of the rig. Each `ClusterNode` runs its two
/// tiers on the rig's node driver (`ProtocolNode`) but builds them itself:
/// per-cluster and global key sets, and no service, journal, sync or
/// Byzantine wrap (`EXCLUSIONS`), so this shares the simulator setup and
/// the aggregation with the rig, not `assemble`.
fn run_multi_hop(cfg: &TestbedConfig, m: usize) -> RunReport {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xc1u64);
    // Per-cluster key sets plus one global set among cluster slots.
    let global_crypto = deal_node_crypto(m, cfg.suite, &mut rng);
    let mut behaviors = Vec::with_capacity(m * cfg.n);
    for (cluster, global) in global_crypto.into_iter().enumerate() {
        let local_crypto = deal_node_crypto(cfg.n, cfg.suite, &mut rng);
        for (member, c) in local_crypto.into_iter().enumerate() {
            behaviors.push(ClusterNode::new(
                cluster,
                member,
                cfg.n,
                cfg.protocol,
                cfg.workload.clone(),
                cfg.epochs,
                c,
                global.clone(),
            ));
        }
    }
    let topo = Topology::clustered(m, cfg.n);
    let mut sim = Simulator::new(sim_config(cfg), topo, behaviors);
    install_scheduler(cfg, &mut sim);
    let deadline = SimTime::ZERO + cfg.deadline;
    let completed = sim.run_until_pred(deadline, |s| s.behaviors().all(|(_, b)| b.is_done()));
    let ledgers = sim.behaviors().map(|(id, b)| (id, &b.global_decisions[..]));
    if let Some(id) = ledger_divergence(ledgers).filter(|_| completed) {
        panic!("global agreement violated at {id}");
    }
    if let Some((id, dropped)) = unencodable(sim.behaviors(), ClusterNode::unencodable_sends) {
        panic!("{id} dropped {dropped} unencodable sends");
    }
    let elapsed = sim.now().saturating_since(SimTime::ZERO);
    let decision_times: Vec<Vec<SimTime>> =
        sim.behaviors().map(|(_, b)| b.decided_at.clone()).collect();
    let total_txs = sim.behavior(NodeId(0)).global_tx_total();
    finish_report(completed, elapsed, decision_times, total_txs, sim.metrics().clone(), cfg.epochs)
}

/// The first node that dropped a send as unencodable, with how many.
fn unencodable<'a, B: 'a>(
    mut nodes: impl Iterator<Item = (NodeId, &'a B)>,
    dropped: impl Fn(&B) -> u64,
) -> Option<(NodeId, u64)> {
    nodes.find_map(|(id, b)| Some((id, dropped(b))).filter(|(_, n)| *n > 0))
}

/// The first node whose global ledger, in epoch order, differs from the
/// first node's: the agreement oracle of a completed clustered run.
fn ledger_divergence<'a>(
    mut ledgers: impl Iterator<Item = (NodeId, &'a [(u64, Digest32, u32)])>,
) -> Option<NodeId> {
    let sorted = |ledger: &[(u64, Digest32, u32)]| {
        let mut ledger = ledger.to_vec();
        ledger.sort_by_key(|&(epoch, ..)| epoch);
        ledger
    };
    let reference = sorted(ledgers.next()?.1);
    ledgers.find(|(_, ledger)| sorted(ledger) != reference).map(|(id, _)| id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_ledgers_agree_in_epoch_order_or_name_the_first_divergent_node() {
        let (a, b) = (Digest32::of(b"a"), Digest32::of(b"b"));
        let named = |ledgers: [&[(u64, Digest32, u32)]; 3]| {
            ledger_divergence(ledgers.into_iter().zip(0..).map(|(l, i)| (NodeId(i), l)))
        };
        let (ledger, reordered) = ([(0, a, 3), (1, b, 2)], [(1, b, 2), (0, a, 3)]);
        assert_eq!(named([&ledger, &reordered, &ledger]), None, "arrival order does not matter");
        assert_eq!(named([&ledger, &reordered, &ledger[..1]]), Some(NodeId(2)), "a short ledger");
        assert_eq!(named([&ledger, &[(0, a, 3), (1, a, 2)], &ledger]), Some(NodeId(1)), "a fork");
    }

    #[test]
    fn the_unencodable_oracle_names_the_first_node_that_dropped_a_send() {
        let counts = [0u64, 0, 3, 1];
        let nodes = || counts.iter().enumerate().map(|(i, c)| (NodeId(i as u16), c));
        assert_eq!(unencodable(nodes(), |c| *c), Some((NodeId(2), 3)));
        assert_eq!(unencodable(nodes().take(2), |c| *c), None);
    }

    #[test]
    fn single_hop_beat_reports_sane_numbers() {
        let mut cfg = TestbedConfig::single_hop(Protocol::Beat);
        cfg.epochs = 1;
        cfg.workload.batch_size = 8;
        let report = run(&cfg);
        assert!(report.completed, "BEAT must finish");
        assert_eq!(report.epoch_latencies.len(), 1);
        assert!(report.mean_latency_s > 1.0, "LoRa consensus cannot be sub-second");
        assert!(report.mean_latency_s < 600.0);
        assert!(report.total_txs > 0);
        assert!(report.throughput_tpm > 0.0);
        assert!(report.channel_accesses_per_node > 0.0);
    }

    #[test]
    fn an_aired_frame_is_verified_once_and_a_released_coin_signed_once() {
        // A count guard, not a timer: all four nodes share this thread, so
        // the opened-frame table answers every receiver of a frame but the
        // first, and the signer's transcript answers that one. A table key
        // that includes the receiver, a packet signed per queued version, a
        // receiver that hashes a frame its signer's transcript holds, or a
        // component that re-signs its share per packet, fails here on any
        // host.
        use wbft_crypto::schnorr::{self, Role};
        use wbft_crypto::thresh_coin::tally;
        use wbft_net::open;
        let mut cfg = TestbedConfig::single_hop(Protocol::HoneyBadgerSc);
        cfg.epochs = 2;
        schnorr::clear();
        open::clear();
        let before = tally();
        let report = run(&cfg);
        assert!(report.completed);
        let aired = report.metrics.total_channel_accesses();
        // A packet is signed when it wins its slot, not when it is built:
        // versions superseded in the transmit queue are never signed, and a
        // byte-identical re-send reuses its signature.
        let signs = schnorr::stats(Role::Signer);
        assert_eq!(signs.hits + signs.misses, aired, "{signs:?} for {aired} frames aired");
        assert!(signs.hits > 0, "retransmission ticks re-send unchanged packets: {signs:?}");
        // The signer shares this thread and its transcript is still held
        // when the frame lands, so in an honest run no receiver hashes a
        // challenge.
        let verifies = schnorr::stats(Role::Verifier);
        assert_eq!(verifies.misses, 0, "Schnorr verifications computed");
        // A frame is decoded, and its signature asked about, by its first
        // receiver only; the other n − 2 = 2 are handed that answer.
        let opened = open::stats();
        assert!(opened.misses <= aired, "{opened:?} for {aired} frames aired");
        assert!(verifies.hits <= aired, "{verifies:?} for {aired} frames aired");
        assert!(opened.hits > opened.misses, "{opened:?}");
        // A node signs its share when it releases a coin and leaves the
        // round only once the coin is combined, so per node and epoch at
        // most one released coin is still waiting for its combination.
        let signed = tally().shares_signed - before.shares_signed;
        let combined = tally().coins_combined - before.coins_combined;
        let waiting = (cfg.n as u64) * cfg.epochs;
        assert!(
            signed <= combined + waiting,
            "{signed} coin shares signed for {combined} coins combined"
        );
    }

    #[test]
    fn a_lossless_run_computes_no_decryption_key_and_each_group_power_once() {
        // A count guard, not a timer: all nodes share this thread, so every
        // share a node checks was signed here, and its signer recorded the
        // power `vk_i^e`; every ciphertext was encrypted here, and its
        // encryptor recorded the decryption key and the membership of `u`.
        // What is left to compute is the group key's power `vk^e` of each
        // message, once: a message some quorum combines carries at least
        // f + 1 recorded shares, so the powers computed number at most
        // recorded / (f + 1). A key that picks up the asker, a signer that
        // records under another key than the checker asks, or a table that
        // thrashes, fails here on any host.
        use wbft_crypto::memo::{self, Predicate};
        use wbft_crypto::quorum::{self, Lane};
        for protocol in [Protocol::HoneyBadgerSc, Protocol::Beat, Protocol::DumboSc] {
            let mut cfg = TestbedConfig::single_hop(protocol);
            cfg.epochs = 2;
            memo::clear();
            quorum::clear();
            let report = run(&cfg);
            assert!(report.completed);
            let keys = quorum::stats(Lane::KeySet);
            let f = (cfg.n as u64 - 1) / 3;
            assert!(keys.misses * (f + 1) <= keys.recorded, "{protocol:?}: {keys:?}");
            assert!(keys.hits > keys.recorded, "{protocol:?}: {keys:?}");
            let decryption = quorum::stats(Lane::DecryptionKey);
            assert_eq!(decryption.misses, 0, "{protocol:?}: decryption keys interpolated");
            let encrypts = protocol != Protocol::DumboSc;
            assert_eq!(decryption.hits > 0, encrypts, "{protocol:?}: {decryption:?}");
            let subgroup = memo::stats(Predicate::Subgroup);
            assert_eq!(subgroup.misses, 0, "{protocol:?}: subgroup checks computed");
        }
    }

    #[test]
    fn crash_restart_converges() {
        let mut cfg = TestbedConfig::single_hop(Protocol::Beat);
        cfg.epochs = 2;
        cfg.workload.batch_size = 8;
        cfg.crash = Some(CrashPlan {
            crashes: vec![CrashEvent {
                node: 2,
                at_us: 5_000_000,
                restart_us: 30_000_000,
            }],
        });
        let report = run(&cfg);
        assert!(report.completed, "crash-restart run must converge");
        assert_eq!(report.epoch_latencies.len(), 2);
        assert!(report.total_txs > 0);
    }

    #[test]
    fn membership_swap_commits_under_new_committee() {
        // The issue's headline scenario: node n joins and node 0 leaves
        // mid-run; the run keeps committing epochs under the new
        // committee's quorum math and every node — the leaver and the
        // joiner included — converges on the same chain.
        let mut cfg = TestbedConfig::single_hop(Protocol::Beat);
        cfg.epochs = 5;
        cfg.workload.batch_size = 8;
        cfg.churn = Some(ChurnPlan {
            from_epoch: 1,
            ops: vec![MembershipOp::Join(4), MembershipOp::Leave(0)],
        });
        let report = run(&cfg);
        assert!(report.completed, "churn run must converge");
        assert_eq!(report.epoch_latencies.len(), 5);
        assert!(report.total_txs > 0);
    }

    fn crash_at(node: usize) -> Option<CrashPlan> {
        Some(CrashPlan { crashes: vec![CrashEvent { node, at_us: 1_000, restart_us: 2_000 }] })
    }

    fn swap() -> Option<ChurnPlan> {
        Some(ChurnPlan {
            from_epoch: 1,
            ops: vec![MembershipOp::Join(4), MembershipOp::Leave(0)],
        })
    }

    /// Every pair of axes is either pinned legal or pinned refused with
    /// its reason; the single-axis rows pin each plan's own bounds.
    #[test]
    fn check_accepts_what_composes_and_refuses_the_rest_with_a_reason() {
        type Mutation = fn(&mut TestbedConfig);
        let multihop: Mutation = |c| c.clusters = Some(4);
        let service: Mutation = |c| c.service = Some(ServiceConfig::small());
        let w2: Mutation = |c| c.pipeline_depth = 2;
        let w4: Mutation = |c| c.pipeline_depth = 4;
        let byz: Mutation = |c| c.byzantine = vec![(1, ByzantineMode::Silent)];
        let crash: Mutation = |c| c.crash = crash_at(2);
        let churn: Mutation = |c| {
            c.epochs = 8;
            c.churn = swap();
        };
        let n7: Mutation = |c| c.n = 7;
        let rows: &[(&[Mutation], Result<(), &str>)] = &[
            (&[], Ok(())),
            // Legal pairs.
            (&[service, w2], Ok(())),
            (&[service, byz], Ok(())),
            (&[w2, byz], Ok(())),
            (&[crash, w2], Ok(())),
            (&[churn, w4], Ok(())),
            (&[n7, crash, byz], Ok(())),
            // Refused pairs: one row per `EXCLUSIONS` entry.
            (&[multihop, service], Err("no client handle reaches a cluster tier")),
            (&[multihop, w2], Err("no window to deepen")),
            (&[multihop, byz], Err("ClusterNode has no Byzantine wrap")),
            (&[multihop, crash], Err("no journal and no sync channel")),
            (&[multihop, churn], Err("fixed committees")),
            (&[service, crash], Err("restarted node's mempool is gone")),
            (&[service, churn], Err("leaver stops proposing")),
            (&[byz, churn], Err("one that never deals has no fallback")),
            (&[crash, churn], Err("reshared key shares are not journaled")),
            // Each axis's own bounds.
            (&[|c| c.pipeline_depth = 0], Err("invalid pipeline depth")),
            // BEAT encrypts: 4 + 529 × 18 + 64 = 9 590 B fits, 530 txs do not.
            (&[|c| c.workload.batch_size = 529], Ok(())),
            (&[|c| c.workload.batch_size = 530], Err("9608 B proposal, over the 9600 B")),
            (&[service, |c| c.workload.batch_size = 530], Ok(())),
            (&[|c| c.byzantine = vec![(4, ByzantineMode::Silent)]], Err("names node 4 but n = 4")),
            (&[byz, byz, |c| c.byzantine.push((1, ByzantineMode::FlipVotes))], Err("more than once")),
            (&[crash, byz], Err("exceed f")),
            (&[|c| c.crash = crash_at(4)], Err("crash event names node 4")),
            (&[n7, byz, |c| c.crash = crash_at(1)], Err("both Byzantine and crash-scheduled")),
            (&[|c| c.churn = swap()], Err("cannot activate")),
            // Every committee fits a node bitmap, joiners included.
            (&[|c| c.n = 64], Ok(())),
            (&[|c| c.n = 67], Err("67 nodes (genesis plus joiners) exceed the 64")),
            (
                &[churn, |c| {
                    c.n = 64;
                    c.churn = Some(ChurnPlan {
                        from_epoch: 1,
                        ops: vec![MembershipOp::Join(64), MembershipOp::Leave(0)],
                    })
                }],
                Err("65 nodes (genesis plus joiners) exceed the 64"),
            ),
            (&[|c| c.clusters = Some(64)], Ok(())),
            (&[|c| c.clusters = Some(65)], Err("65 clusters exceed the 64")),
            // Both tiers of a clustered node name their sessions by epoch.
            (&[multihop, |c| c.epochs = 65_536], Ok(())),
            // Every committee `check` admits can be dealt: n = 3f + 1 >= 4.
            (&[|c| c.n = 5], Err("invalid genesis committee size 5 (need 3f+1 >= 4)")),
            (&[|c| c.clusters = Some(3)], Err("invalid cluster count 3 (need 3f+1 >= 4)")),
            (&[|c| c.clusters = Some(5)], Err("invalid cluster count 5 (need 3f+1 >= 4)")),
            (&[multihop], Ok(())),
            (&[|c| c.clusters = Some(7)], Ok(())),
            (
                &[churn, |c| c.churn = Some(ChurnPlan { from_epoch: 1, ops: vec![MembershipOp::Leave(0)] })],
                Err("invalid committee size"),
            ),
        ];
        for (i, (mutations, expected)) in rows.iter().enumerate() {
            let mut cfg = TestbedConfig::single_hop(Protocol::Beat);
            for mutate in *mutations {
                mutate(&mut cfg);
            }
            match (cfg.check(), expected) {
                (Ok(()), Ok(())) => {}
                (Err(why), Err(reason)) => {
                    assert!(why.contains(reason), "row {i}: refused with {why:?}, not {reason:?}")
                }
                (got, _) => panic!("row {i}: expected {expected:?}, got {got:?}"),
            }
        }
        // The rows above cover the whole matrix: every pair is in exactly
        // one of the two lists.
        let refused = |a: Axis, b: Axis| {
            EXCLUSIONS.iter().any(|(x, y, _)| (*x, *y) == (a, b) || (*x, *y) == (b, a))
        };
        let pairs = Axis::ALL.iter().flat_map(|a| Axis::ALL.iter().map(move |b| (*a, *b)));
        assert_eq!(pairs.filter(|(a, b)| a != b && refused(*a, *b)).count(), 2 * EXCLUSIONS.len());
    }

    /// The README's composition table is generated from `EXCLUSIONS`.
    #[test]
    fn readme_composition_table_matches_the_exclusions() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .unwrap();
        for (i, a) in Axis::ALL.iter().enumerate() {
            for b in &Axis::ALL[i + 1..] {
                let verdict = EXCLUSIONS
                    .iter()
                    .find(|(x, y, _)| (x, y) == (a, b))
                    .map_or("legal".to_string(), |(.., why)| format!("refused: {why}"));
                let row = format!("| {} × {} | {verdict} |", a.name(), b.name());
                assert!(readme.contains(&row), "README.md lacks the row:\n{row}");
            }
        }
    }

    #[test]
    fn multi_hop_hb_sc_completes() {
        let mut cfg = TestbedConfig::multi_hop(Protocol::HoneyBadgerSc);
        cfg.epochs = 1;
        cfg.workload.batch_size = 8;
        let report = run(&cfg);
        assert!(report.completed, "multi-hop HB-SC must finish");
        // Four clusters contribute: global tx count covers all clusters.
        assert!(report.total_txs >= 4 * 8, "got {}", report.total_txs);
    }
}
