//! The asynchronous wireless BFT consensus testbed (paper §V-C).
//!
//! One configuration struct describes an experiment — protocol, node count,
//! workload, radio/CSMA/DMA parameters, loss, adversary, crypto suite,
//! single-hop or clustered multi-hop — and [`run`] executes it on the
//! discrete-event simulator, returning the quantities the paper's figures
//! plot: per-epoch latency, throughput in transactions per minute (TPM),
//! channel accesses per node, bytes on air, collisions and CPU time.

use crate::byzantine::{ByzantineEngine, ByzantineMode};
use crate::driver::{Engine, ProtocolNode};
use crate::membership::MembershipCtl;
use crate::multihop::ClusterNode;
use crate::protocol::Protocol;
use crate::recovery::BlockJournal;
use crate::service::{
    ConsensusHandle, ServiceConfig, ServiceReport, ServiceStats, StopCondition,
};
use crate::workload::Workload;
use wbft_components::deal_node_crypto;
use wbft_crypto::CryptoSuite;
use wbft_membership::{MembershipOp, ACTIVATION_DELAY};
use wbft_journal::SharedMem;
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
    /// Byzantine nodes: `(node id, behaviour)`. Single-hop only.
    pub byzantine: Vec<(usize, ByzantineMode)>,
    /// Simulated-time budget.
    pub deadline: SimDuration,
    /// `Some(m)` = multi-hop with `m` clusters of `n` nodes each.
    pub clusters: Option<usize>,
    /// `Some` = live-service run: epochs pull proposals from client-fed
    /// mempools under an open-loop arrival schedule instead of the
    /// pre-seeded workload, and the report gains a [`ServiceReport`]
    /// (single-hop only; `epochs` is ignored in favour of the service's
    /// `max_epochs`).
    pub service: Option<ServiceConfig>,
    /// Pipeline depth `W`: how many epochs keep their dissemination in
    /// flight while earlier epochs finish agreement. `1` (the default) is
    /// the strictly sequential engine; absent from the JSON encoding at 1
    /// so pre-pipelining configs keep their exact bytes. Single-hop only.
    pub pipeline_depth: u64,
    /// `Some` = crash/churn schedule: nodes journal commits durably, the
    /// listed nodes are killed and restarted at the scheduled times, and
    /// the run only completes once the restarted nodes have recovered and
    /// caught up. Absent from the JSON encoding when `None` so pre-churn
    /// configs keep their exact bytes. Single-hop, non-service only.
    pub crash: Option<CrashPlan>,
    /// `Some` = dynamic-membership schedule: join/leave ops ride the
    /// ordered transaction path, quorum math follows the chain-derived
    /// committee view, and threshold keys are reshared to the new
    /// committee before activation. Absent from the JSON encoding when
    /// `None` so pre-membership configs keep their exact bytes.
    /// Single-hop, non-service, depth-1 only.
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

/// Checks a config describes a simulable scenario: the loss model must
/// leave eventual delivery intact, the adversary must be honest about its
/// delay bound, and any scheduler config must be well-formed. Panics
/// loudly — a scenario that breaks the model's standing assumptions would
/// produce a report whose correctness claims are vacuous.
pub fn validate(cfg: &TestbedConfig) {
    if let Err(e) = cfg.loss.validate() {
        panic!("invalid loss config: {e}");
    }
    if let Err(e) = cfg.adversary.validate() {
        panic!("invalid adversary config: {e}");
    }
    if let Some(sched) = &cfg.sched {
        if let Err(e) = sched.validate() {
            panic!("invalid scheduler config: {e}");
        }
    }
    if cfg.pipeline_depth == 0 {
        panic!("invalid pipeline depth: 0 (W >= 1; W = 1 is sequential)");
    }
    if cfg.clusters.is_some() && cfg.pipeline_depth != 1 {
        panic!("pipelined epochs are single-hop only (clustered pipelining is a follow-on)");
    }
    if let Some(plan) = &cfg.crash {
        if cfg.clusters.is_some() {
            panic!("crash plans are single-hop only");
        }
        if cfg.service.is_some() {
            panic!("crash plans do not compose with service mode (follow-on)");
        }
        if plan.crashes.is_empty() {
            panic!("crash plan has no events (use crash: None for no churn)");
        }
        let deadline_us = cfg.deadline.as_micros();
        let mut seen: Vec<usize> = Vec::new();
        for ev in &plan.crashes {
            if ev.node >= cfg.n {
                panic!("crash event names node {} but n = {}", ev.node, cfg.n);
            }
            if ev.restart_us <= ev.at_us {
                panic!("crash of node {} restarts at {}us, not after {}us", ev.node, ev.restart_us, ev.at_us);
            }
            if ev.restart_us >= deadline_us {
                panic!("crash of node {} restarts after the {}us deadline", ev.node, deadline_us);
            }
            if cfg.byzantine.iter().any(|(b, _)| *b == ev.node) {
                panic!("node {} is both Byzantine and crash-scheduled", ev.node);
            }
            if seen.contains(&ev.node) {
                panic!("node {} crashes more than once (one event per node)", ev.node);
            }
            seen.push(ev.node);
        }
        // A down node is indistinguishable from a silent faulty one, so
        // crashed + Byzantine together must stay within the f the quorum
        // sizes tolerate or the liveness claim is vacuous.
        let f = cfg.n.saturating_sub(1) / 3;
        if seen.len() + cfg.byzantine.len() > f {
            panic!(
                "{} crashed + {} Byzantine nodes exceed f = {} for n = {}",
                seen.len(),
                cfg.byzantine.len(),
                f,
                cfg.n
            );
        }
    }
    if let Some(plan) = &cfg.churn {
        if cfg.clusters.is_some() {
            panic!("churn plans are single-hop only (clustered churn is a follow-on)");
        }
        if cfg.service.is_some() {
            panic!("churn plans do not compose with service mode (follow-on)");
        }
        if cfg.pipeline_depth != 1 {
            panic!("churn plans require pipeline depth 1 (pipelined churn is a follow-on)");
        }
        if !cfg.byzantine.is_empty() {
            panic!("churn plans do not compose with Byzantine nodes (follow-on)");
        }
        if cfg.crash.is_some() {
            panic!("churn plans do not compose with crash plans (follow-on)");
        }
        if plan.ops.is_empty() {
            panic!("churn plan has no ops (use churn: None for a static committee)");
        }
        for (i, op) in plan.ops.iter().enumerate() {
            if plan.ops[..i].contains(op) {
                panic!("churn plan repeats {op}");
            }
        }
        let mut join_ids: Vec<usize> = Vec::new();
        let mut leaves = 0usize;
        for op in &plan.ops {
            match op {
                MembershipOp::Join(id) => {
                    if (*id as usize) < cfg.n {
                        panic!("churn {op} names a genesis member (ids below n = {})", cfg.n);
                    }
                    join_ids.push(*id as usize);
                }
                MembershipOp::Leave(id) => {
                    if (*id as usize) >= cfg.n {
                        panic!("churn {op} names a node outside the genesis committee (n = {})", cfg.n);
                    }
                    leaves += 1;
                }
            }
        }
        // Joins must use contiguous fresh ids: every simulated node has to
        // end up a member eventually, or the run can never complete (a
        // dealt-but-never-joining node would idle at the stop forever).
        join_ids.sort_unstable();
        for (k, id) in join_ids.iter().enumerate() {
            if *id != cfg.n + k {
                panic!(
                    "churn joins must use contiguous fresh ids from n = {} (got join({id}))",
                    cfg.n
                );
            }
        }
        let new_n = cfg.n + join_ids.len() - leaves;
        if new_n < 4 || !(new_n - 1).is_multiple_of(3) {
            panic!("churn plan leaves an invalid committee size {new_n} (need 3f+1 >= 4)");
        }
        // The change commits no earlier than `from_epoch` and activates
        // ACTIVATION_DELAY epochs later; at least one epoch must run under
        // the new committee or the plan is dead weight.
        if plan.from_epoch + ACTIVATION_DELAY >= cfg.epochs {
            panic!(
                "churn from epoch {} cannot activate within {} epochs \
                 (activation = commit + {ACTIVATION_DELAY})",
                plan.from_epoch, cfg.epochs
            );
        }
    }
}

/// Executes one experiment.
pub fn run(cfg: &TestbedConfig) -> RunReport {
    assert!(
        cfg.service.is_none() || cfg.clusters.is_none(),
        "service runs are single-hop only (clustered service is a follow-on)"
    );
    validate(cfg);
    match (cfg.clusters, &cfg.service) {
        (Some(m), _) => run_multi_hop(cfg, m),
        (None, Some(svc)) => run_service_single_hop(cfg, svc),
        (None, None) if cfg.churn.is_some() => run_single_hop_with_churn(cfg),
        (None, None) if cfg.crash.is_some() => run_single_hop_with_crashes(cfg),
        (None, None) => run_single_hop(cfg),
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

/// Deals the cryptographic identities of a churn run. Node *identity* is
/// static — all `n_total` nodes (genesis members and future joiners alike)
/// hold a packet keypair and everyone's verification keys from the start;
/// *committee membership* is what changes at runtime. The threshold deals
/// are sized to the `n_genesis`-node genesis committee: genesis members
/// get real secret shares, while joiners (ids `n_genesis..`) get the
/// genesis *public* sets — they need them to verify certificates on the
/// chain they bootstrap — plus placeholder zero secret shares at their own
/// index. A placeholder share used before the resharing ceremony hands the
/// joiner real shares produces shares that fail verification loudly
/// instead of silently combining into garbage.
pub fn deal_churn_crypto(
    n_genesis: usize,
    n_total: usize,
    suite: CryptoSuite,
    rng: &mut impl rand::RngCore,
) -> Vec<wbft_components::NodeCrypto> {
    use wbft_crypto::schnorr::{KeyPair, PublicKey};
    use wbft_crypto::{Scalar, ShareIndex};
    assert!(
        n_genesis >= 4 && (n_genesis - 1).is_multiple_of(3),
        "need genesis n = 3f+1 >= 4, got {n_genesis}"
    );
    assert!(n_total >= n_genesis, "total node count below the genesis committee");
    let f = (n_genesis - 1) / 3;
    let keypairs: Vec<KeyPair> =
        (0..n_total).map(|_| KeyPair::generate(suite.ecdsa, rng)).collect();
    let peer_keys: Vec<PublicKey> = keypairs.iter().map(|k| k.public()).collect();
    let (prbc_pub, prbc_secs) = wbft_crypto::thresh_sig::deal(n_genesis, f, suite.threshold, rng);
    let (cbc_pub, cbc_secs) =
        wbft_crypto::thresh_sig::deal(n_genesis, 2 * f, suite.threshold, rng);
    let (coin_pub, coin_secs) =
        wbft_crypto::thresh_coin::deal_coin(n_genesis, f, suite.threshold, rng);
    let (enc_pub, enc_secs) = wbft_crypto::thresh_enc::deal_enc(n_genesis, f, suite.threshold, rng);
    (0..n_total)
        .map(|me| {
            let idx = ShareIndex::for_node(me);
            let (prbc_sec, cbc_sec, coin_sec, enc_sec) = if me < n_genesis {
                (
                    prbc_secs[me].clone(),
                    cbc_secs[me].clone(),
                    coin_secs[me].clone(),
                    enc_secs[me].clone(),
                )
            } else {
                (
                    wbft_crypto::thresh_sig::SecretKeyShare::from_parts(
                        idx,
                        Scalar::ZERO,
                        suite.threshold,
                    ),
                    wbft_crypto::thresh_sig::SecretKeyShare::from_parts(
                        idx,
                        Scalar::ZERO,
                        suite.threshold,
                    ),
                    wbft_crypto::thresh_coin::CoinSecretShare::from_parts(idx, Scalar::ZERO),
                    wbft_crypto::thresh_enc::EncSecretShare::from_parts(idx, Scalar::ZERO),
                )
            };
            wbft_components::NodeCrypto {
                me,
                suite,
                keypair: keypairs[me].clone(),
                peer_keys: peer_keys.clone(),
                key_epoch: 0,
                prbc_pub: prbc_pub.clone(),
                prbc_sec,
                cbc_pub: cbc_pub.clone(),
                cbc_sec,
                coin_pub: coin_pub.clone(),
                coin_sec,
                enc_pub: enc_pub.clone(),
                enc_sec,
            }
        })
        .collect()
}

/// Builds the single-hop simulator and honesty mask shared by the standard
/// run path and the fuzz harness's observed runs.
pub(crate) fn build_single_hop(
    cfg: &TestbedConfig,
) -> (Simulator<ProtocolNode<Box<dyn Engine>>>, Vec<bool>) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xdea1);
    let crypto = deal_node_crypto(cfg.n, cfg.suite, &mut rng);
    let honest: Vec<bool> = (0..cfg.n)
        .map(|i| !cfg.byzantine.iter().any(|(b, _)| *b == i))
        .collect();
    let behaviors: Vec<_> = crypto
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let engine = cfg.protocol.engine_at_depth(
                c.clone(),
                cfg.workload.clone(),
                cfg.epochs,
                cfg.pipeline_depth,
            );
            let engine: Box<dyn Engine> =
                match cfg.byzantine.iter().find(|(b, _)| *b == i) {
                    Some((_, mode)) => Box::new(ByzantineEngine::new(engine, *mode)),
                    None => engine,
                };
            ProtocolNode::new(engine, c, ChannelId(0))
        })
        .collect();
    let mut sim = Simulator::new(sim_config(cfg), Topology::single_hop(cfg.n), behaviors);
    install_scheduler(cfg, &mut sim);
    (sim, honest)
}

fn run_single_hop(cfg: &TestbedConfig) -> RunReport {
    let (mut sim, honest) = build_single_hop(cfg);
    let deadline = SimTime::ZERO + cfg.deadline;
    let completed = sim.run_until_pred(deadline, |s| {
        s.behaviors().all(|(id, b)| !honest[id.index()] || b.is_done())
    });
    let elapsed = sim.now().saturating_since(SimTime::ZERO);
    let decision_times: Vec<Vec<SimTime>> = sim
        .behaviors()
        .filter(|(id, _)| honest[id.index()])
        .map(|(_, b)| b.clock().completed.clone())
        .collect();
    let reference = sim
        .behaviors()
        .find(|(id, _)| honest[id.index()])
        .map(|(_, b)| b.blocks().to_vec())
        .unwrap_or_default();
    let total_txs: u64 = reference.iter().map(|b| b.txs.len() as u64).sum();
    // Cross-node agreement is a hard invariant — check it on every run.
    for (id, b) in sim.behaviors() {
        if honest[id.index()] && completed {
            assert_eq!(b.blocks(), &reference[..], "agreement violated at {id}");
        }
    }
    finish_report(completed, elapsed, decision_times, total_txs, sim.metrics().clone(), cfg.epochs)
}

/// Builds one journaled, sync-capable node for a crash run. `recover`
/// replays whatever the durable store holds before the engine starts, so
/// the same constructor serves both cold boot (empty store) and restart.
fn build_crash_node(
    cfg: &TestbedConfig,
    i: usize,
    crypto: wbft_components::NodeCrypto,
    store: &SharedMem,
) -> ProtocolNode<Box<dyn Engine>> {
    let (journal, blocks) = BlockJournal::open(Box::new(store.clone()))
        .expect("durable journal recovery failed");
    let recovered = blocks.len();
    let mut engine = cfg.protocol.engine_at_depth(
        crypto.clone(),
        cfg.workload.clone(),
        cfg.epochs,
        cfg.pipeline_depth,
    );
    engine.restore_chain(blocks);
    let engine: Box<dyn Engine> = match cfg.byzantine.iter().find(|(b, _)| *b == i) {
        Some((_, mode)) => Box::new(ByzantineEngine::new(engine, *mode)),
        None => engine,
    };
    ProtocolNode::new(engine, crypto, ChannelId(0))
        .with_recovered(recovered)
        .with_journal(journal)
        .with_sync(ChannelId(SYNC_CHANNEL))
}

/// Everything a crash run's restart actions need beyond the simulator
/// itself: the honest mask, the durable per-node stores, and the dealt
/// crypto (restarts re-instantiate a node with its original identity).
pub(crate) type CrashSetup = (
    Simulator<ProtocolNode<Box<dyn Engine>>>,
    Vec<bool>,
    Vec<SharedMem>,
    Vec<wbft_components::NodeCrypto>,
);

/// Builds the journaled, sync-capable single-hop simulator for a crash
/// run, plus the durable stores and dealt crypto the restart actions need.
/// Shared by the standard crash path and the fuzz harness.
pub(crate) fn build_crash_single_hop(cfg: &TestbedConfig) -> CrashSetup {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xdea1);
    let crypto = deal_node_crypto(cfg.n, cfg.suite, &mut rng);
    let honest: Vec<bool> = (0..cfg.n)
        .map(|i| !cfg.byzantine.iter().any(|(b, _)| *b == i))
        .collect();
    // The durable stores outlive the crashed incarnations — they are the
    // sim's stand-in for each node's disk.
    let stores: Vec<SharedMem> = (0..cfg.n).map(|_| SharedMem::new()).collect();
    let behaviors: Vec<_> = crypto
        .iter()
        .enumerate()
        .map(|(i, c)| build_crash_node(cfg, i, c.clone(), &stores[i]))
        .collect();
    let mut topo = Topology::single_hop(cfg.n);
    for i in 0..cfg.n {
        topo.join_channel(NodeId(i as u16), ChannelId(SYNC_CHANNEL));
    }
    let mut sim = Simulator::new(sim_config(cfg), topo, behaviors);
    install_scheduler(cfg, &mut sim);
    (sim, honest, stores, crypto)
}

/// Phased execution of the crash plan: advances simulated time to each
/// crash/restart in order and performs the action. On return every node is
/// up again and the caller runs the sim to completion.
pub(crate) fn apply_crash_timeline(
    cfg: &TestbedConfig,
    sim: &mut Simulator<ProtocolNode<Box<dyn Engine>>>,
    crypto: &[wbft_components::NodeCrypto],
    stores: &[SharedMem],
) {
    enum Action {
        Crash(usize),
        Restart(usize),
    }
    let Some(plan) = &cfg.crash else { return };
    let mut actions: Vec<(u64, Action)> = Vec::new();
    for ev in &plan.crashes {
        actions.push((ev.at_us, Action::Crash(ev.node)));
        actions.push((ev.restart_us, Action::Restart(ev.node)));
    }
    actions.sort_by_key(|(t, _)| *t);
    for (t, action) in actions {
        sim.run_until(SimTime::ZERO + SimDuration::from_micros(t));
        match action {
            Action::Crash(i) => sim.crash_node(NodeId(i as u16)),
            Action::Restart(i) => {
                let node = build_crash_node(cfg, i, crypto[i].clone(), &stores[i]);
                sim.restart_node(NodeId(i as u16), node);
            }
        }
    }
}

/// [`run_single_hop`] with the crash/churn axis engaged: every node
/// journals commits to an in-memory durable store and listens on the
/// reserved sync channel; the plan's nodes are crashed (volatile state
/// dropped, in-flight frames cut) and restarted (journal replayed, chain
/// caught up via anti-entropy) at their scheduled times.
fn run_single_hop_with_crashes(cfg: &TestbedConfig) -> RunReport {
    let plan = cfg.crash.clone().expect("crash path requires a plan");
    let (mut sim, honest, stores, crypto) = build_crash_single_hop(cfg);
    let deadline = SimTime::ZERO + cfg.deadline;
    apply_crash_timeline(cfg, &mut sim, &crypto, &stores);
    // Completion demands the restarted nodes too: a node that recovered
    // its journal but never caught up keeps the run from completing.
    let completed = sim.run_until_pred(deadline, |s| {
        s.behaviors().all(|(id, b)| !honest[id.index()] || b.is_done())
    });
    let elapsed = sim.now().saturating_since(SimTime::ZERO);
    let decision_times: Vec<Vec<SimTime>> = sim
        .behaviors()
        .filter(|(id, _)| honest[id.index()])
        .map(|(_, b)| b.clock().completed.clone())
        .collect();
    let never_crashed_honest = |i: usize| -> bool {
        honest[i] && !plan.crashes.iter().any(|ev| ev.node == i)
    };
    let reference = sim
        .behaviors()
        .find(|(id, _)| never_crashed_honest(id.index()))
        .map(|(_, b)| b.blocks().to_vec())
        .unwrap_or_default();
    let total_txs: u64 = reference.iter().map(|b| b.txs.len() as u64).sum();
    for (id, b) in sim.behaviors() {
        if honest[id.index()] {
            // Prefix agreement always; level chains once completed — a
            // restarted node must have converged with the survivors.
            let common = b.blocks().len().min(reference.len());
            assert_eq!(&b.blocks()[..common], &reference[..common], "agreement violated at {id}");
            if completed {
                assert_eq!(b.blocks().len(), reference.len(), "chains not level at {id}");
            }
        }
    }
    // The durable stores must themselves replay to the agreed chain — the
    // journal is the recovery story, so check it, not just the engines.
    for ev in &plan.crashes {
        let (_, blocks) = BlockJournal::open(Box::new(stores[ev.node].clone()))
            .expect("post-run journal replay failed");
        let common = blocks.len().min(reference.len());
        assert_eq!(
            crate::recovery::chain_digests(&blocks[..common]),
            crate::recovery::chain_digests(&reference[..common]),
            "journal of node {} diverged from the agreed chain",
            ev.node
        );
    }
    finish_report(completed, elapsed, decision_times, total_txs, sim.metrics().clone(), cfg.epochs)
}

/// Builds the single-hop simulator for a dynamic-membership run: all
/// `n_total` nodes (genesis members plus scheduled joiners) from the
/// start, every one sync-capable and membership-aware. The honesty mask is
/// all-true (churn plans are honest-only). Shared by the standard churn
/// path and the fuzz harness.
pub(crate) fn build_churn_single_hop(
    cfg: &TestbedConfig,
) -> (Simulator<ProtocolNode<Box<dyn Engine>>>, Vec<bool>) {
    use rand::SeedableRng;
    let plan = cfg.churn.clone().expect("churn path requires a plan");
    let n_total = plan
        .ops
        .iter()
        .filter_map(|op| match op {
            MembershipOp::Join(id) => Some(*id as usize + 1),
            MembershipOp::Leave(_) => None,
        })
        .max()
        .unwrap_or(cfg.n)
        .max(cfg.n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xdea1);
    let crypto = deal_churn_crypto(cfg.n, n_total, cfg.suite, &mut rng);
    let behaviors: Vec<_> = crypto
        .into_iter()
        .map(|c| {
            let mut ctl = MembershipCtl::new(c.clone(), cfg.n);
            // Genesis members sponsor the change; joiners cannot propose
            // until they are members, so they schedule nothing.
            if c.me < cfg.n {
                for op in &plan.ops {
                    ctl.schedule_op(plan.from_epoch, *op);
                }
            }
            let engine = cfg.protocol.build(
                c.clone(),
                cfg.workload.clone().into(),
                StopCondition::Epochs(cfg.epochs),
                1,
                Some(ctl),
            );
            ProtocolNode::new(engine, c, ChannelId(0)).with_sync(ChannelId(SYNC_CHANNEL))
        })
        .collect();
    let mut topo = Topology::single_hop(n_total);
    for i in 0..n_total {
        topo.join_channel(NodeId(i as u16), ChannelId(SYNC_CHANNEL));
    }
    let mut sim = Simulator::new(sim_config(cfg), topo, behaviors);
    install_scheduler(cfg, &mut sim);
    let honest = vec![true; n_total];
    (sim, honest)
}

/// [`run_single_hop`] with the dynamic-membership axis engaged. All
/// `n_total` nodes (genesis members plus scheduled joiners) are simulated
/// from the start: joiners idle until they bootstrap the chain over the
/// anti-entropy sync channel, genesis members inject the plan's ops into
/// their proposals, and once the ops commit the old committee reshare's
/// canonical dealers hand the threshold keys to the new committee before
/// it activates. Completion requires every node — leavers and joiners
/// included — to hold the full agreed chain.
fn run_single_hop_with_churn(cfg: &TestbedConfig) -> RunReport {
    let plan = cfg.churn.clone().expect("churn path requires a plan");
    let (mut sim, _) = build_churn_single_hop(cfg);
    let deadline = SimTime::ZERO + cfg.deadline;
    // Every node gates completion: leavers and joiners finish by adopting
    // the agreed chain over the sync channel.
    let completed = sim.run_until_pred(deadline, |s| s.behaviors().all(|(_, b)| b.is_done()));
    let elapsed = sim.now().saturating_since(SimTime::ZERO);
    let decision_times: Vec<Vec<SimTime>> =
        sim.behaviors().map(|(_, b)| b.clock().completed.clone()).collect();
    // Reference chain: a genesis member that never leaves — it follows the
    // whole run natively, before and after activation.
    let survives = |i: usize| -> bool {
        i < cfg.n && !plan.ops.contains(&MembershipOp::Leave(i as u16))
    };
    let reference = sim
        .behaviors()
        .find(|(id, _)| survives(id.index()))
        .map(|(_, b)| b.blocks().to_vec())
        .unwrap_or_default();
    let total_txs: u64 = reference.iter().map(|b| b.txs.len() as u64).sum();
    for (id, b) in sim.behaviors() {
        // Prefix agreement always; level chains once completed — the
        // honest digest chains of old and new members alike must agree as
        // a common prefix of the same ledger.
        let common = b.blocks().len().min(reference.len());
        assert_eq!(&b.blocks()[..common], &reference[..common], "agreement violated at {id}");
        if completed {
            assert_eq!(b.blocks().len(), reference.len(), "chains not level at {id}");
        }
    }
    if completed {
        // The plan must actually have bitten inside the run: every
        // scheduled op sits committed in the agreed chain.
        let committed: Vec<MembershipOp> = reference
            .iter()
            .flat_map(|b| b.txs.iter().filter_map(|tx| wbft_membership::decode_op(tx.as_ref())))
            .collect();
        for op in &plan.ops {
            assert!(committed.contains(op), "churn op {op} never committed");
        }
    }
    finish_report(completed, elapsed, decision_times, total_txs, sim.metrics().clone(), cfg.epochs)
}

/// The live-service counterpart of [`run_single_hop`]: every node owns a
/// [`ConsensusHandle`] whose mempool is fed by the deterministic open-loop
/// arrival schedule (injected through driver timers), epochs pull
/// proposals from the pool, and the run completes when every honest node's
/// submissions are resolved and all honest chains are level. The report
/// carries the standard figures plus a [`ServiceReport`] with per-tx
/// commit-latency percentiles and backpressure counters.
fn run_service_single_hop(cfg: &TestbedConfig, svc: &ServiceConfig) -> RunReport {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xdea1);
    let crypto = deal_node_crypto(cfg.n, cfg.suite, &mut rng);
    let honest: Vec<bool> = (0..cfg.n)
        .map(|i| !cfg.byzantine.iter().any(|(b, _)| *b == i))
        .collect();
    let handles: Vec<ConsensusHandle> =
        (0..cfg.n).map(|_| ConsensusHandle::new(svc.mempool_capacity)).collect();
    let behaviors: Vec<_> = crypto
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let engine = cfg.protocol.service_engine_at_depth(
                c.clone(),
                handles[i].clone(),
                cfg.workload.batch_size,
                svc.max_epochs,
                cfg.pipeline_depth,
            );
            let engine: Box<dyn Engine> =
                match cfg.byzantine.iter().find(|(b, _)| *b == i) {
                    Some((_, mode)) => Box::new(ByzantineEngine::new(engine, *mode)),
                    None => engine,
                };
            ProtocolNode::new(engine, c, ChannelId(0))
                .with_service(handles[i].clone(), svc.arrivals.schedule(i))
        })
        .collect();
    let mut sim = Simulator::new(sim_config(cfg), Topology::single_hop(cfg.n), behaviors);
    install_scheduler(cfg, &mut sim);
    let deadline = SimTime::ZERO + cfg.deadline;
    let expected = svc.arrivals.per_node;
    let completed = sim.run_until_pred(deadline, |s| {
        // Every honest node saw its full arrival schedule and resolved
        // every admitted transaction into a block...
        let drained = handles
            .iter()
            .enumerate()
            .filter(|(i, _)| honest[*i])
            .all(|(_, h)| h.submissions() == expected && h.drained());
        // ...and the honest chains are level (no node still waiting on the
        // final commit), so the agreement check below sees whole chains.
        drained && {
            let mut lens =
                s.behaviors().filter(|(id, _)| honest[id.index()]).map(|(_, b)| b.blocks().len());
            let first = lens.next().unwrap_or(0);
            lens.all(|l| l == first)
        }
    });
    let elapsed = sim.now().saturating_since(SimTime::ZERO);
    let decision_times: Vec<Vec<SimTime>> = sim
        .behaviors()
        .filter(|(id, _)| honest[id.index()])
        .map(|(_, b)| b.clock().completed.clone())
        .collect();
    let reference = sim
        .behaviors()
        .find(|(id, _)| honest[id.index()])
        .map(|(_, b)| b.blocks().to_vec())
        .unwrap_or_default();
    let total_txs: u64 = reference.iter().map(|b| b.txs.len() as u64).sum();
    // Prefix agreement is the BFT invariant; when the run completed the
    // predicate already levelled the chains, so prefixes are whole chains.
    for (id, b) in sim.behaviors() {
        if honest[id.index()] {
            let common = b.blocks().len().min(reference.len());
            assert_eq!(
                &b.blocks()[..common],
                &reference[..common],
                "agreement violated at {id}"
            );
            if completed {
                assert_eq!(b.blocks().len(), reference.len(), "chains not level at {id}");
            }
        }
    }
    let stats: Vec<ServiceStats> = handles
        .iter()
        .enumerate()
        .filter(|(i, _)| honest[*i])
        .map(|(_, h)| h.stats())
        .collect();
    let mut report = finish_report(
        completed,
        elapsed,
        decision_times,
        total_txs,
        sim.metrics().clone(),
        reference.len() as u64,
    );
    report.service = Some(ServiceReport::aggregate(&stats));
    report
}

fn run_multi_hop(cfg: &TestbedConfig, m: usize) -> RunReport {
    use rand::SeedableRng;
    assert!(m >= 4, "global tier needs at least 4 clusters (3f+1)");
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
    let elapsed = sim.now().saturating_since(SimTime::ZERO);
    let decision_times: Vec<Vec<SimTime>> =
        sim.behaviors().map(|(_, b)| b.decided_at.clone()).collect();
    let total_txs = sim.behavior(NodeId(0)).global_tx_total();
    finish_report(completed, elapsed, decision_times, total_txs, sim.metrics().clone(), cfg.epochs)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    #[should_panic(expected = "exceed f")]
    fn crash_plan_beyond_f_is_rejected() {
        let mut cfg = TestbedConfig::single_hop(Protocol::Beat);
        cfg.crash = Some(CrashPlan {
            crashes: vec![
                CrashEvent { node: 0, at_us: 1, restart_us: 2 },
                CrashEvent { node: 1, at_us: 1, restart_us: 2 },
            ],
        });
        validate(&cfg);
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

    #[test]
    #[should_panic(expected = "cannot activate")]
    fn churn_without_activation_room_is_rejected() {
        let mut cfg = TestbedConfig::single_hop(Protocol::Beat);
        // Default epochs = 2: a change from epoch 0 activates at 2 at the
        // earliest, past the stop.
        cfg.churn = Some(ChurnPlan {
            from_epoch: 0,
            ops: vec![MembershipOp::Join(4), MembershipOp::Leave(0)],
        });
        validate(&cfg);
    }

    #[test]
    #[should_panic(expected = "invalid committee size")]
    fn churn_to_invalid_size_is_rejected() {
        let mut cfg = TestbedConfig::single_hop(Protocol::Beat);
        cfg.epochs = 8;
        cfg.churn = Some(ChurnPlan { from_epoch: 1, ops: vec![MembershipOp::Leave(0)] });
        validate(&cfg);
    }

    #[test]
    #[should_panic(expected = "do not compose with crash plans")]
    fn churn_and_crash_together_are_rejected() {
        let mut cfg = TestbedConfig::single_hop(Protocol::Beat);
        cfg.epochs = 8;
        cfg.churn = Some(ChurnPlan {
            from_epoch: 1,
            ops: vec![MembershipOp::Join(4), MembershipOp::Leave(0)],
        });
        cfg.crash = Some(CrashPlan {
            crashes: vec![CrashEvent { node: 1, at_us: 1_000, restart_us: 2_000 }],
        });
        validate(&cfg);
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
