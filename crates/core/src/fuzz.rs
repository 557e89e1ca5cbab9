//! Coverage-guided scenario fuzzing for liveness and agreement.
//!
//! The adversary of the paper may schedule deliveries arbitrarily within
//! eventual delivery; the sweeps exercise *stochastic* corners of that
//! power, this module hunts the *adversarial* corners. A [`FuzzCase`] is a
//! complete single-hop scenario (protocol, topology size, Byzantine
//! placement, loss, delivery scheduler) plus an event budget; running one
//! yields a [`FuzzVerdict`]:
//!
//! * **stall** — some honest node failed to finish its epochs within the
//!   event budget (a liveness failure under a bounded-delay schedule);
//! * **divergence** — two honest digest chains disagree on a common prefix
//!   (an agreement violation, the fatal kind);
//! * **ok** — every honest node finished and all chains agree.
//!
//! The campaign ([`campaign`]) mutates a corpus of cases with a seeded RNG,
//! keeps mutants that reach new [coverage](coverage_key), and greedily
//! [minimizes](minimize) every failure into a replayable fixture
//! (`tests/fixtures/fuzz/`). Everything is deterministic: same campaign
//! seed, same cases, same verdicts, byte-identical fixture and outcome
//! encodings.
//!
//! This module also owns the protocol-aware delivery schedulers that
//! [`wbft_wireless::sched`] cannot build (it sits below envelope
//! decoding): [`build_scheduler`] turns any
//! [`SchedPolicy`](wbft_wireless::SchedPolicy) — including
//! [`CoinStarve`](wbft_wireless::SchedPolicy::CoinStarve) — into an
//! installable scheduler.

use crate::byzantine::ByzantineMode;
use crate::protocol::Protocol;
use crate::service::block_digests;
use crate::testbed::{self, Rig, TestbedConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use wbft_crypto::hash::Digest32;
use wbft_net::packets::{Body, Envelope};
use wbft_report::{json_name, json_record, FromJson, Json, JsonError, ToJson};
use wbft_wireless::{
    Delivery, DeliveryScheduler, NodeId, SchedConfig, SchedPolicy, SimDuration, SimTime,
};

// ------------------------------------------------------------------
// Protocol-aware scheduling.

/// Builds the delivery scheduler for any policy: generic policies come
/// straight from the wireless layer, protocol-aware ones are constructed
/// here where envelopes can be decoded.
pub fn build_scheduler(cfg: &SchedConfig) -> Box<dyn DeliveryScheduler> {
    match cfg.build_generic() {
        Some(s) => s,
        None => match cfg.policy {
            SchedPolicy::CoinStarve { pass } => {
                Box::new(CoinStarveScheduler { pass, budget: cfg.budget, seen: BTreeMap::new() })
            }
            _ => unreachable!("build_generic covers every content-agnostic policy"),
        },
    }
}

/// See [`SchedPolicy::CoinStarve`]: per (receiver, session, round), the
/// first `pass` coin-share deliveries flow promptly and every later one is
/// held for the full budget — starving the quorum-completing (`f+1`-th)
/// share that unblocks the common coin.
pub struct CoinStarveScheduler {
    pass: u32,
    budget: SimDuration,
    seen: BTreeMap<(NodeId, u64, u16), u32>,
}

/// `Some((session, round))` when `payload` is a frame carrying common-coin
/// shares. The adversary reads traffic (it cannot forge), so decoding
/// without key lookup is exactly its power.
fn classify_coin(payload: &[u8]) -> Option<(u64, u16)> {
    let (env, _sig_ok) = Envelope::open(payload, |_| None).ok()?;
    match &env.body {
        Body::AbaSc { coin_shares, .. } if !coin_shares.is_empty() => {
            let round = coin_shares.iter().map(|(r, _)| *r).max().unwrap_or(0);
            Some((env.session, round))
        }
        Body::BaseAbaCoin { coin, .. } => Some((env.session, *coin)),
        _ => {
            let (_, role) = crate::driver::sessions::split(env.session);
            (role == crate::driver::sessions::PI_COIN).then_some((env.session, 0))
        }
    }
}

impl DeliveryScheduler for CoinStarveScheduler {
    fn delay(&mut self, d: &Delivery<'_>) -> SimDuration {
        let Some((session, round)) = classify_coin(d.payload) else {
            return SimDuration::ZERO;
        };
        let passed = self.seen.entry((d.dst, session, round)).or_insert(0);
        *passed += 1;
        if *passed > self.pass { self.budget } else { SimDuration::ZERO }
    }

    fn budget(&self) -> SimDuration {
        self.budget
    }
}

// ------------------------------------------------------------------
// Cases and verdicts.

/// One fuzz scenario: a complete testbed config plus the event budget the
/// liveness check is measured against.
#[derive(Clone, Debug)]
pub struct FuzzCase {
    /// Human-readable case name (fixture file stem).
    pub label: String,
    /// The scenario (single-hop).
    pub cfg: TestbedConfig,
    /// Simulator events after which an unfinished run counts as stalled.
    pub event_budget: u64,
}

/// What one case's run concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuzzVerdict {
    /// Finished within budget, chains agree.
    Ok,
    /// Some honest node did not finish within the event budget.
    Stall,
    /// Honest digest chains disagree on a common prefix.
    Divergence,
}

impl FuzzVerdict {
    /// Every verdict.
    pub const ALL: [FuzzVerdict; 3] =
        [FuzzVerdict::Ok, FuzzVerdict::Stall, FuzzVerdict::Divergence];

    /// Stable name used in fixture files and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FuzzVerdict::Ok => "ok",
            FuzzVerdict::Stall => "stall",
            FuzzVerdict::Divergence => "divergence",
        }
    }
}

/// Everything observed about one case's run (the replayable "report").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzOutcome {
    /// The conclusion.
    pub verdict: FuzzVerdict,
    /// Simulator events processed.
    pub events: u64,
    /// Longest honest chain (blocks).
    pub blocks: u64,
    /// Medium collisions.
    pub collisions: u64,
    /// Digest chain of the agreement reference: the first honest genesis
    /// member that neither crashes nor leaves.
    pub chain: Vec<Digest32>,
}

json_name! {
    FuzzVerdict: FuzzVerdict::ALL => name;
}

json_record! {
    FuzzOutcome { verdict, events, blocks, collisions, chain }
}

/// Runs one case without panicking on protocol failures: a failed oracle
/// of the scenario rig (agreement, level chains, journal replay, committed
/// membership ops) becomes a [`FuzzVerdict::Divergence`], an unfinished
/// run — including a restarted node, joiner or leaver that never catches
/// up — a [`FuzzVerdict::Stall`]. Single-hop only (divergence detection
/// needs the per-node chains the multi-hop tiers don't expose uniformly).
pub fn run_case(case: &FuzzCase) -> FuzzOutcome {
    assert!(case.cfg.clusters.is_none(), "fuzz cases are single-hop");
    testbed::validate(&case.cfg);
    let mut rig = Rig::build(&case.cfg);
    let budget = case.event_budget;
    let done =
        rig.run(SimTime::ZERO + case.cfg.deadline, |sim| sim.events_processed() >= budget);
    let verdict = match rig.finish(done) {
        Err(_) => FuzzVerdict::Divergence,
        Ok(_) if !done => FuzzVerdict::Stall,
        Ok(_) => FuzzVerdict::Ok,
    };
    FuzzOutcome {
        verdict,
        events: rig.sim.events_processed(),
        blocks: rig.gated().map(|(_, b)| b.blocks().len() as u64).max().unwrap_or(0),
        collisions: rig.sim.metrics().collisions,
        chain: block_digests(rig.reference_chain()),
    }
}

// ------------------------------------------------------------------
// Coverage.

fn fnv1a(hash: &mut u64, data: &[u8]) {
    for &b in data {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

fn bucket(x: u64) -> u64 {
    64 - x.leading_zeros() as u64
}

/// The coverage signature of one run: a deterministic FNV-1a hash over the
/// case's structural features and the run's coarse observables. A mutant
/// whose key is new exercised a combination the corpus hadn't.
pub fn coverage_key(case: &FuzzCase, out: &FuzzOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut h, case.cfg.protocol.slug().as_bytes());
    fnv1a(&mut h, &(case.cfg.n as u64).to_le_bytes());
    fnv1a(&mut h, &case.cfg.epochs.to_le_bytes());
    for (node, mode) in &case.cfg.byzantine {
        fnv1a(&mut h, &(*node as u64).to_le_bytes());
        fnv1a(&mut h, format!("{mode:?}").as_bytes());
    }
    fnv1a(&mut h, format!("{:?}", case.cfg.loss).as_bytes());
    // Fold only non-default depths so pre-pipelining keys are unchanged.
    if case.cfg.pipeline_depth != 1 {
        fnv1a(&mut h, &case.cfg.pipeline_depth.to_le_bytes());
    }
    if let Some(s) = &case.cfg.sched {
        fnv1a(&mut h, format!("{:?}", s.policy).as_bytes());
        fnv1a(&mut h, &bucket(s.budget.as_micros()).to_le_bytes());
    }
    // Fold only present plans so pre-churn keys are unchanged.
    if let Some(plan) = &case.cfg.crash {
        for ev in &plan.crashes {
            fnv1a(&mut h, &(ev.node as u64).to_le_bytes());
            fnv1a(&mut h, &bucket(ev.at_us).to_le_bytes());
            fnv1a(&mut h, &bucket(ev.restart_us).to_le_bytes());
        }
    }
    // Fold only present plans so pre-membership keys are unchanged.
    if let Some(plan) = &case.cfg.churn {
        fnv1a(&mut h, &plan.from_epoch.to_le_bytes());
        for op in &plan.ops {
            fnv1a(&mut h, format!("{op}").as_bytes());
        }
    }
    fnv1a(&mut h, out.verdict.name().as_bytes());
    fnv1a(&mut h, &bucket(out.events).to_le_bytes());
    fnv1a(&mut h, &out.blocks.to_le_bytes());
    fnv1a(&mut h, &bucket(out.collisions).to_le_bytes());
    h
}

// ------------------------------------------------------------------
// Mutation.

/// The protocols a campaign draws from.
fn mutate(case: &FuzzCase, protocols: &[Protocol], rng: &mut ChaCha12Rng) -> FuzzCase {
    let mut cfg = case.cfg.clone();
    // One structural mutation per generation keeps minimization short.
    match rng.random_range(0..12u32) {
        0 => cfg.seed = rng.random_range(1..1 << 16),
        1 => cfg.protocol = protocols[rng.random_range(0..protocols.len())],
        2 => {
            // Place (or clear) one Byzantine node; n=4 tolerates f=1, so a
            // placement also clears any crash plan (crashed + Byzantine
            // together would exceed f) and any membership plan (a
            // Byzantine dealer has no fallback).
            cfg.byzantine.clear();
            if rng.random_bool(0.75) {
                let node = rng.random_range(0..cfg.n);
                let mode = ByzantineMode::ALL[rng.random_range(0..ByzantineMode::ALL.len())];
                cfg.byzantine.push((node, mode));
                cfg.crash = None;
                cfg.churn = None;
            }
        }
        3 => {
            cfg.loss = if rng.random_bool(0.5) {
                wbft_wireless::LossModel::None
            } else {
                wbft_wireless::LossModel::Uniform { p: rng.random_range(1..=30u32) as f64 / 100.0 }
            };
        }
        4 => {
            let budget = SimDuration::from_secs(rng.random_range(2..30));
            let seed = rng.random_range(0..1 << 16);
            let policy = match rng.random_range(0..3u32) {
                0 => SchedPolicy::Reorder { p: rng.random_range(10..=99u32) as f64 / 100.0 },
                1 => SchedPolicy::Victim {
                    victims: vec![NodeId(rng.random_range(0..cfg.n as u16))],
                },
                _ => SchedPolicy::CoinStarve { pass: rng.random_range(0..3) },
            };
            cfg.sched = Some(SchedConfig { seed, budget, policy });
        }
        5 => cfg.sched = None,
        6 => {
            cfg.epochs = rng.random_range(1..=2);
            // Too few epochs for a membership change to activate.
            cfg.churn = None;
        }
        7 => cfg.workload.batch_size = [4usize, 8, 16][rng.random_range(0..3usize)],
        8 => cfg.pipeline_depth = [1u64, 2, 4][rng.random_range(0..3usize)],
        9 => {
            // Crash one node mid-run; the plan replaces any Byzantine
            // placement (crashed + Byzantine together would exceed f = 1)
            // and any membership plan (reshared shares are not durable).
            cfg.byzantine.clear();
            cfg.churn = None;
            let node = rng.random_range(0..cfg.n);
            let at_us = rng.random_range(1..=20u64) * 1_000_000;
            let down_us = rng.random_range(5..=40u64) * 1_000_000;
            cfg.crash = Some(crate::testbed::CrashPlan {
                crashes: vec![crate::testbed::CrashEvent {
                    node,
                    at_us,
                    restart_us: at_us + down_us,
                }],
            });
        }
        10 => cfg.crash = None,
        _ => {
            // Schedule (or clear) one membership swap: a fresh node joins,
            // a random genesis member leaves. Membership runs are honest
            // and crash-free, so the arm clears both.
            cfg.churn = None;
            if rng.random_bool(0.75) {
                cfg.byzantine.clear();
                cfg.crash = None;
                let from_epoch = rng.random_range(0..=1u64);
                cfg.epochs = cfg.epochs.max(from_epoch + wbft_membership::ACTIVATION_DELAY + 1);
                cfg.churn = Some(crate::testbed::ChurnPlan {
                    from_epoch,
                    ops: vec![
                        wbft_membership::MembershipOp::Join(cfg.n as u16),
                        wbft_membership::MembershipOp::Leave(rng.random_range(0..cfg.n as u16)),
                    ],
                });
            }
        }
    }
    FuzzCase { label: String::new(), cfg, event_budget: case.event_budget }
}

fn relabel(case: &mut FuzzCase, index: u32) {
    let sched = match &case.cfg.sched {
        None => "nosched".to_string(),
        Some(s) => match &s.policy {
            SchedPolicy::Reorder { .. } => "reorder".to_string(),
            SchedPolicy::Victim { .. } => "victim".to_string(),
            SchedPolicy::CoinStarve { pass } => format!("coinstarve{pass}"),
        },
    };
    let byz = if case.cfg.byzantine.is_empty() { "honest" } else { "byz" };
    let depth = if case.cfg.pipeline_depth == 1 {
        String::new()
    } else {
        format!(".w{}", case.cfg.pipeline_depth)
    };
    let churn = if case.cfg.crash.is_some() { ".churn" } else { "" };
    let member = if case.cfg.churn.is_some() { ".member" } else { "" };
    case.label = format!(
        "fuzz-{index:04}.{}.n{}.{sched}.{byz}{depth}{churn}{member}.seed{}",
        case.cfg.protocol.slug(),
        case.cfg.n,
        case.cfg.seed
    );
}

// ------------------------------------------------------------------
// Campaign.

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Scenarios to execute (including the seed corpus).
    pub scenarios: u32,
    /// Campaign RNG seed.
    pub seed: u64,
    /// Protocols to draw mutants from.
    pub protocols: Vec<Protocol>,
    /// Event budget per case.
    pub event_budget: u64,
}

impl FuzzConfig {
    /// The CI smoke shape: a bounded fixed-seed campaign over the two
    /// shared-coin single-hop protocols.
    pub fn smoke(scenarios: u32) -> Self {
        FuzzConfig {
            scenarios,
            seed: 0xF022,
            protocols: vec![Protocol::Beat, Protocol::HoneyBadgerSc],
            event_budget: DEFAULT_EVENT_BUDGET,
        }
    }
}

/// Default per-case event budget: comfortably above what a healthy
/// small-batch single-hop epoch needs (measured in the tens of thousands),
/// low enough that a stalled case aborts quickly. The unbatched
/// deployments fit it too: on the 150-case campaign `sweep --fuzz 150
/// --seeds 7 --protocols hb-sc-baseline,beat-baseline,dumbo-sc-baseline`,
/// run at 10× the budget, every case completed and the largest run took
/// 119 288 events (an hb-sc-baseline reordering case), 0.30× the budget.
pub const DEFAULT_EVENT_BUDGET: u64 = 400_000;


/// One failing case, minimized, with its outcome.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The minimized case.
    pub case: FuzzCase,
    /// Its (re-verified) outcome.
    pub outcome: FuzzOutcome,
}

/// Campaign result.
#[derive(Debug)]
pub struct FuzzReport {
    /// Cases executed.
    pub executed: u32,
    /// Distinct coverage keys observed.
    pub coverage: usize,
    /// Corpus size at the end (coverage-new cases).
    pub corpus: usize,
    /// Minimized failures, in discovery order.
    pub failures: Vec<FuzzFailure>,
}

/// The base scenario mutants grow from: the paper's 4-node single-hop
/// setting shrunk to one small epoch so a campaign of hundreds of cases
/// stays affordable.
pub fn base_case(protocol: Protocol, event_budget: u64) -> FuzzCase {
    let mut cfg = TestbedConfig::single_hop(protocol);
    cfg.epochs = 1;
    cfg.workload.batch_size = 8;
    FuzzCase { label: format!("base.{}", protocol.slug()), cfg, event_budget }
}

/// The base case at pipeline depth `W`: `depth` epochs keep their
/// dissemination in flight while earlier epochs finish agreement. Pinned
/// as fixtures so the pipelined epoch machinery (decided-block buffering,
/// in-order finalization, early decryption) stays deterministic and live
/// under the fuzzer's replay check.
pub fn pipelined_case(protocol: Protocol, depth: u64, event_budget: u64) -> FuzzCase {
    let mut case = base_case(protocol, event_budget);
    case.cfg.epochs = 2;
    case.cfg.pipeline_depth = depth;
    case.label = format!("pipelined-w{depth}.{}", protocol.slug());
    case
}

/// The canonical churn case: one node dies five seconds in (volatile state
/// gone, in-flight frames cut) and restarts after a 25-second outage,
/// replaying its durable journal and catching the missed commits up over
/// the anti-entropy sync channel. A restarted node that fails to converge
/// shows up as a stall; a bad recovery shows up as divergence.
pub fn crash_restart_case(protocol: Protocol, event_budget: u64) -> FuzzCase {
    let mut case = base_case(protocol, event_budget);
    case.cfg.epochs = 2;
    case.cfg.crash = Some(crate::testbed::CrashPlan {
        crashes: vec![crate::testbed::CrashEvent {
            node: 2,
            at_us: 5_000_000,
            restart_us: 30_000_000,
        }],
    });
    case.label = format!("crash-restart.{}", protocol.slug());
    case
}

/// The canonical dynamic-membership case: node `n` joins and node 0
/// leaves, committed from epoch 0 and activating two epochs later, so the
/// last epoch runs under the new committee's quorum math and reshared
/// keys. A joiner that never adopts the chain (or a leaver that never
/// learns the tail) shows up as a stall; a bad reshare or a quorum-math
/// split as divergence.
pub fn membership_churn_case(protocol: Protocol, event_budget: u64) -> FuzzCase {
    let mut case = base_case(protocol, event_budget);
    case.cfg.epochs = 3;
    case.cfg.churn = Some(crate::testbed::ChurnPlan {
        from_epoch: 0,
        ops: vec![
            wbft_membership::MembershipOp::Join(case.cfg.n as u16),
            wbft_membership::MembershipOp::Leave(0),
        ],
    });
    case.label = format!("membership-swap.{}", protocol.slug());
    case
}

/// The canonical protocol-aware attack: hold back every coin share after
/// the first, per receiver and round, for the full budget — the
/// quorum-completing `f+1`-th share arrives late everywhere, so every ABA
/// round's common coin is starved until the scheduler's budget forces
/// delivery. Shared-coin protocols must ride it out (liveness with bounded
/// delays); this case pins that down as a regression fixture.
pub fn coin_starvation_case(protocol: Protocol, event_budget: u64) -> FuzzCase {
    let mut case = base_case(protocol, event_budget);
    case.cfg.sched = Some(SchedConfig {
        seed: 0xC01,
        budget: SimDuration::from_secs(20),
        policy: SchedPolicy::CoinStarve { pass: 1 },
    });
    case.label = format!("coin-quorum-starvation.{}", protocol.slug());
    case
}

/// Runs a coverage-guided campaign. Deterministic for a fixed
/// [`FuzzConfig`]: the corpus, coverage count, and every failure (and its
/// minimized fixture bytes) depend only on the config.
pub fn campaign(cfg: &FuzzConfig) -> FuzzReport {
    let mut rng = ChaCha12Rng::seed_from_u64(cfg.seed);
    let mut corpus: Vec<FuzzCase> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let mut failures = Vec::new();
    let mut executed = 0u32;

    // Seed corpus: every protocol's base case, its coin-starvation schedule
    // (only meaningful for shared-coin deployments but harmless elsewhere —
    // the classifier just never fires), its crash-restart churn case and
    // its membership-swap case.
    let mut pending: Vec<FuzzCase> = cfg
        .protocols
        .iter()
        .flat_map(|p| {
            [
                base_case(*p, cfg.event_budget),
                coin_starvation_case(*p, cfg.event_budget),
                crash_restart_case(*p, cfg.event_budget),
            ]
        })
        .chain(cfg.protocols.iter().map(|p| membership_churn_case(*p, cfg.event_budget)))
        .collect();

    while executed < cfg.scenarios {
        let mut case = match pending.pop() {
            Some(c) => c,
            None => {
                let parent = &corpus[rng.random_range(0..corpus.len())];
                let mut m = mutate(parent, &cfg.protocols, &mut rng);
                relabel(&mut m, executed);
                m
            }
        };
        if case.label.is_empty() {
            relabel(&mut case, executed);
        }
        let outcome = run_case(&case);
        executed += 1;
        let key = coverage_key(&case, &outcome);
        if seen.insert(key) {
            corpus.push(case.clone());
        }
        if outcome.verdict != FuzzVerdict::Ok {
            let minimized = minimize(&case, outcome.verdict);
            let outcome = run_case(&minimized);
            failures.push(FuzzFailure { case: minimized, outcome });
        }
    }
    FuzzReport { executed, coverage: seen.len(), corpus: corpus.len(), failures }
}

// ------------------------------------------------------------------
// Minimization.

/// Greedily shrinks a failing case while preserving its verdict: each
/// simplification (drop Byzantine placement, drop loss, drop the
/// scheduler, shrink the workload) is kept only if the failure reproduces.
/// The result is the fixture a regression test replays.
pub fn minimize(case: &FuzzCase, verdict: FuzzVerdict) -> FuzzCase {
    let mut best = case.clone();
    let attempts: [fn(&mut TestbedConfig); 9] = [
        |c| c.byzantine.clear(),
        |c| c.loss = wbft_wireless::LossModel::None,
        |c| c.sched = None,
        |c| c.adversary = wbft_wireless::AdversaryConfig::benign(),
        // Epochs can only shrink where no membership change needs the room
        // to activate.
        |c| {
            if c.churn.is_none() {
                c.epochs = 1;
            }
        },
        |c| c.workload.batch_size = 4,
        |c| c.pipeline_depth = 1,
        |c| c.crash = None,
        |c| c.churn = None,
    ];
    for attempt in attempts {
        let mut candidate = best.clone();
        attempt(&mut candidate.cfg);
        if candidate.cfg.to_json().pretty() == best.cfg.to_json().pretty() {
            continue; // no-op simplification
        }
        if run_case(&candidate).verdict == verdict {
            best = candidate;
        }
    }
    best.label = format!("{}.min", case.label);
    best
}

// ------------------------------------------------------------------
// Fixtures.

/// A fixture document: a case and the verdict its replay must produce.
struct Fixture {
    label: String,
    config: TestbedConfig,
    event_budget: u64,
    expect: FuzzVerdict,
}

json_record! {
    Fixture { label, config, event_budget, expect }
}

/// Canonical fixture encoding of a case and its expected verdict.
pub fn fixture_string(case: &FuzzCase, expect: FuzzVerdict) -> String {
    let doc = Fixture {
        label: case.label.clone(),
        config: case.cfg.clone(),
        event_budget: case.event_budget,
        expect,
    };
    wbft_report::to_file_string(&doc.to_json())
}

/// Decodes a fixture produced by [`fixture_string`].
pub fn decode_fixture(j: &Json) -> Result<(FuzzCase, FuzzVerdict), JsonError> {
    let doc = Fixture::from_json(j)?;
    let case = FuzzCase { label: doc.label, cfg: doc.config, event_budget: doc.event_budget };
    Ok((case, doc.expect))
}

/// Replays a fixture file: runs the case twice and checks that (a) both
/// runs produce byte-identical outcome encodings (determinism) and (b) the
/// verdict matches the fixture's expectation. Returns the outcome.
pub fn replay_fixture(path: &Path) -> io::Result<FuzzOutcome> {
    let j = wbft_report::read_file(path)?;
    let (case, expect) = decode_fixture(&j)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", path.display())))?;
    let first = run_case(&case);
    let second = run_case(&case);
    if first.to_json().pretty() != second.to_json().pretty() {
        return Err(io::Error::other(format!(
            "{}: replay not deterministic",
            path.display()
        )));
    }
    if first.verdict != expect {
        return Err(io::Error::other(format!(
            "{}: expected {}, got {}",
            path.display(),
            expect.name(),
            first.verdict.name()
        )));
    }
    Ok(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use wbft_wireless::ChannelId;

    #[test]
    fn coin_classifier_ignores_non_coin_frames() {
        assert_eq!(classify_coin(b"not an envelope"), None);
        let mut sched = CoinStarveScheduler {
            pass: 1,
            budget: SimDuration::from_secs(5),
            seen: BTreeMap::new(),
        };
        let payload = Bytes::from_static(&[0u8; 80]);
        let d = Delivery {
            src: NodeId(0),
            dst: NodeId(1),
            channel: ChannelId(0),
            payload: &payload,
            nominal_len: 80,
            now: SimTime::ZERO,
        };
        assert_eq!(sched.delay(&d), SimDuration::ZERO, "garbage frames pass through");
    }

    /// The hand-clears in `mutate` are enforced by the one composition
    /// rule, not by their comments: no mutant is a config `check` refuses.
    #[test]
    fn mutants_always_pass_the_composition_check() {
        let protocols = [Protocol::Beat, Protocol::DumboSc, Protocol::HoneyBadgerLc];
        let b = DEFAULT_EVENT_BUDGET;
        let corpus = [
            base_case(Protocol::Beat, b),
            coin_starvation_case(Protocol::Beat, b),
            crash_restart_case(Protocol::Beat, b),
            membership_churn_case(Protocol::Beat, b),
            pipelined_case(Protocol::Beat, 4, b),
        ];
        for (i, seed_case) in corpus.iter().enumerate() {
            let mut rng = ChaCha12Rng::seed_from_u64(0x5eed + i as u64);
            let mut case = seed_case.clone();
            for step in 0..2_000 {
                case = mutate(&case, &protocols, &mut rng);
                if let Err(why) = case.cfg.check() {
                    panic!("{} step {step}: mutant refused: {why}", seed_case.label);
                }
            }
        }
    }

    #[test]
    fn base_case_runs_clean() {
        let out = run_case(&base_case(Protocol::Beat, DEFAULT_EVENT_BUDGET));
        assert_eq!(out.verdict, FuzzVerdict::Ok);
        assert!(out.events > 0 && out.events < DEFAULT_EVENT_BUDGET);
        assert_eq!(out.blocks, 1);
        assert!(!out.chain.is_empty());
    }

    #[test]
    fn coin_starvation_case_survives_or_is_caught() {
        // The canonical protocol-aware schedule. Shared-coin BEAT must ride
        // it out within the budget (bounded delays preserve liveness); any
        // other verdict is a real finding and belongs in a fixture.
        let out = run_case(&coin_starvation_case(Protocol::Beat, DEFAULT_EVENT_BUDGET));
        assert_eq!(out.verdict, FuzzVerdict::Ok, "events={} blocks={}", out.events, out.blocks);
    }

    #[test]
    fn crash_restart_case_converges() {
        let out = run_case(&crash_restart_case(Protocol::Beat, DEFAULT_EVENT_BUDGET));
        assert_eq!(out.verdict, FuzzVerdict::Ok, "events={} blocks={}", out.events, out.blocks);
        assert_eq!(out.blocks, 2);
    }

    #[test]
    fn membership_churn_case_converges() {
        let out = run_case(&membership_churn_case(Protocol::Beat, DEFAULT_EVENT_BUDGET));
        assert_eq!(out.verdict, FuzzVerdict::Ok, "events={} blocks={}", out.events, out.blocks);
        assert_eq!(out.blocks, 3);
    }

    #[test]
    fn membership_case_replay_is_deterministic() {
        let case = membership_churn_case(Protocol::HoneyBadgerSc, DEFAULT_EVENT_BUDGET);
        let a = run_case(&case);
        let b = run_case(&case);
        assert_eq!(a, b);
        assert_eq!(a.to_json().pretty(), b.to_json().pretty());
    }

    #[test]
    fn crash_case_replay_is_deterministic() {
        let case = crash_restart_case(Protocol::Beat, DEFAULT_EVENT_BUDGET);
        let a = run_case(&case);
        let b = run_case(&case);
        assert_eq!(a, b);
        assert_eq!(a.to_json().pretty(), b.to_json().pretty());
    }

    #[test]
    fn run_case_is_deterministic() {
        let case = coin_starvation_case(Protocol::Beat, DEFAULT_EVENT_BUDGET);
        let a = run_case(&case);
        let b = run_case(&case);
        assert_eq!(a, b);
        assert_eq!(a.to_json().pretty(), b.to_json().pretty());
    }

    #[test]
    fn fixtures_round_trip() {
        let case = coin_starvation_case(Protocol::Beat, DEFAULT_EVENT_BUDGET);
        let text = fixture_string(&case, FuzzVerdict::Ok);
        let (back, expect) = decode_fixture(&wbft_report::parse(&text).unwrap()).unwrap();
        assert_eq!(expect, FuzzVerdict::Ok);
        assert_eq!(back.label, case.label);
        assert_eq!(back.event_budget, case.event_budget);
        assert_eq!(fixture_string(&back, expect), text);
    }

    #[test]
    fn tiny_campaign_is_deterministic_and_counts_coverage() {
        let cfg = FuzzConfig {
            scenarios: 4,
            seed: 7,
            protocols: vec![Protocol::Beat],
            event_budget: DEFAULT_EVENT_BUDGET,
        };
        let a = campaign(&cfg);
        let b = campaign(&cfg);
        assert_eq!(a.executed, 4);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.failures.len(), b.failures.len());
        assert!(a.coverage >= 2, "base and starved cases must cover differently");
    }
}
