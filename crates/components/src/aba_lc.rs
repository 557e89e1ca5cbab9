//! Batched Bracha (local-coin) asynchronous binary agreement — paper
//! Fig. 6a.
//!
//! Each round has three phases; each phase is a set of N vote-broadcasts
//! with Bracha-RBC semantics (a voter's phase vote is *accepted* only after
//! `2f+1` distinct nodes relay the same value, with `f+1`-relay
//! amplification), which is what makes unbatched deployment O(N³).
//! ConsensusBatcher folds all three phase lattices of all k batched
//! instances into one packet: the node's current *report matrix* — for each
//! instance, round and phase, the value it relays for every voter.
//!
//! Round structure (Bracha '84):
//! 1. broadcast `est`; on `n−f` accepted votes, take the majority `m`;
//! 2. broadcast `m`; on `n−f` accepted *justified* votes, broadcast `v`
//!    if some value holds a strict majority, else `⊥`;
//! 3. on `n−f` accepted votes: `≥ 2f+1` for `v` → **decide v**; `≥ f+1` →
//!    `est = v`; otherwise `est =` local coin flip.
//!
//! Phases 2 and 3 apply Bracha's *message validation*: a phase-2 vote for
//! `v` counts only once `v` has `f+1` accepted phase-1 supporters (so `v`
//! is the majority of some legitimate `n−f` phase-1 sample), and a non-⊥
//! phase-3 vote counts only under a justified phase-2 strict majority for
//! its value. Without validation a single vote-flipping Byzantine node can
//! deny both values the phase-2 majority, drive every honest node to ⊥,
//! and let the local coin flip est away from an already-decided value —
//! an agreement violation the scenario fuzzer reproduces.
//!
//! The local coin needs no cryptography — the trade the paper studies
//! against the shared-coin variant (O(N³) messages vs. threshold-crypto
//! cost).

use crate::context::{Actions, Batcher, BinaryAgreement, Params};
use crate::instance::Decisions;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::collections::BTreeMap;
use wbft_net::packets::AbaLcInst;
use wbft_net::{Body, Vote};

const TIMER_RETX: u32 = 0;

/// Rounds of report state kept below this node's round even once no peer
/// needs them: packets carry from `Decisions::history_floor` on, which
/// never reaches below what is kept.
const HISTORY_WINDOW: u16 = 8;

/// Per-round vote-lattice state for one instance.
#[derive(Debug, Clone)]
struct RoundState {
    /// `my_reports[phase][voter]` — the value this node relays.
    my_reports: [Vec<Vote>; 3],
    /// `reporters[phase][voter][vote code − 1]` — bitmask of relaying nodes.
    reporters: [Vec<[u64; 3]>; 3],
    /// Accepted (2f+1-relayed) vote per phase and voter.
    accepted: [Vec<Vote>; 3],
    /// Round finished (est chosen / decided).
    finished: bool,
}

impl RoundState {
    fn new(n: usize) -> Self {
        RoundState {
            my_reports: [vec![Vote::Unknown; n], vec![Vote::Unknown; n], vec![Vote::Unknown; n]],
            reporters: [vec![[0; 3]; n], vec![[0; 3]; n], vec![[0; 3]; n]],
            accepted: [vec![Vote::Unknown; n], vec![Vote::Unknown; n], vec![Vote::Unknown; n]],
            finished: false,
        }
    }

    fn accepted_count(&self, phase: usize) -> usize {
        self.accepted[phase].iter().filter(|v| v.is_cast()).count()
    }

    /// Counts accepted votes equal to `v` in a phase.
    fn accepted_votes(&self, phase: usize, v: Vote) -> usize {
        self.accepted[phase].iter().filter(|x| **x == v).count()
    }

    /// Counts accepted phase-2 votes for `v` that are *justified* in the
    /// Bracha message-validation sense: a phase-2 vote for `v` is countable
    /// only once `v` has `f+1` accepted phase-1 supporters — i.e. `v` could
    /// be the majority of some honest node's `n−f` phase-1 sample. An
    /// honest phase-2 vote always becomes justified (its caster saw `v` win
    /// a majority of its `n−f` sample, so `v` has at least `f+1` phase-1
    /// votes that every node eventually accepts); a Byzantine phase-2 vote
    /// for a value no honest node estimated never does, so it can never
    /// poison a majority computation. Justification is monotone: waiting on
    /// it preserves liveness.
    fn justified_p2_votes(&self, v: Vote, f1: usize) -> usize {
        if self.accepted_votes(0, v) >= f1 {
            self.accepted_votes(1, v)
        } else {
            0
        }
    }
}

#[derive(Debug, Default)]
struct Inst {
    active: bool,
    est: bool,
    round: u16,
    rounds: BTreeMap<u16, RoundState>,
}

/// k parallel Bracha-ABA instances under ConsensusBatcher. Termination is
/// the decided-claim gossip of `instance::Decisions`.
#[derive(Debug)]
pub struct AbaLcBatch {
    p: Params,
    insts: Vec<Inst>,
    decisions: Decisions,
    rng: ChaCha12Rng,
    out: Batcher,
}

impl AbaLcBatch {
    /// Creates the batch; the local coin is an independent deterministic
    /// stream per node and session.
    pub fn new(p: Params) -> Self {
        let seed = 0x5_eeda_ba1c ^ ((p.me as u64) << 40) ^ p.session;
        AbaLcBatch {
            insts: (0..p.n).map(|_| Inst::default()).collect(),
            decisions: Decisions::new(&p),
            rng: ChaCha12Rng::seed_from_u64(seed),
            out: Batcher::new(&p, TIMER_RETX),
            p,
        }
    }

    fn round_state(&mut self, instance: usize, round: u16) -> &mut RoundState {
        let n = self.p.n;
        self.insts[instance].rounds.entry(round).or_insert_with(|| RoundState::new(n))
    }

    /// Records `from`'s relay of `voter`'s `phase` vote, applying the
    /// amplification and acceptance thresholds.
    fn record_report(
        &mut self,
        instance: usize,
        round: u16,
        phase: usize,
        voter: usize,
        vote: Vote,
        from: usize,
    ) {
        if !vote.is_cast() || voter >= self.p.n {
            return;
        }
        let quorum = self.p.quorum();
        let f1 = self.p.f + 1;
        let me = self.p.me;
        let rs = self.round_state(instance, round);
        let code = (vote.code() - 1) as usize;
        rs.reporters[phase][voter][code] |= 1 << from;
        let count = rs.reporters[phase][voter][code].count_ones() as usize;
        // Echo on direct receipt from the voter; f+1 relay amplification
        // otherwise (Bracha-RBC semantics per vote).
        if (from == voter || count >= f1) && rs.my_reports[phase][voter] == Vote::Unknown {
            rs.my_reports[phase][voter] = vote;
            rs.reporters[phase][voter][code] |= 1 << me;
            self.out.changed();
        }
        // 2f+1 acceptance.
        let rs = self.round_state(instance, round);
        let count = rs.reporters[phase][voter][code].count_ones() as usize;
        if count >= quorum && rs.accepted[phase][voter] == Vote::Unknown {
            rs.accepted[phase][voter] = vote;
        }
    }

    /// Casts this node's own `phase` vote in `(instance, round)`.
    fn cast(&mut self, instance: usize, round: u16, phase: usize, vote: Vote) {
        let me = self.p.me;
        let rs = self.round_state(instance, round);
        if rs.my_reports[phase][me].is_cast() {
            return;
        }
        rs.my_reports[phase][me] = vote;
        rs.reporters[phase][me][(vote.code() - 1) as usize] |= 1 << me;
        self.out.changed();
    }

    fn evaluate(&mut self, instance: usize) {
        loop {
            let (active, round) = {
                let i = &self.insts[instance];
                (i.active, i.round)
            };
            if !active {
                return;
            }
            let est = self.insts[instance].est;
            // Phase 1: vote est.
            self.cast(instance, round, 0, Vote::from_bool(est));
            let n_minus_f = self.p.n_minus_f();
            let quorum = self.p.quorum();
            let f1 = self.p.f + 1;
            let me = self.p.me;

            let mut progressed = false;
            // Phase 2 on n−f accepted phase-1 votes: majority.
            let phase2_vote = {
                let rs = self.round_state(instance, round);
                if rs.accepted_count(0) >= n_minus_f && !rs.my_reports[1][me].is_cast() {
                    let ones = rs.accepted_votes(0, Vote::One);
                    let zeros = rs.accepted_votes(0, Vote::Zero);
                    Some(Vote::from_bool(ones > zeros))
                } else {
                    None
                }
            };
            if let Some(maj) = phase2_vote {
                self.cast(instance, round, 1, maj);
                progressed = true;
            }
            // Phase 3 on n−f *justified* accepted phase-2 votes: strict
            // majority or ⊥. Counting unjustified votes here is unsound: a
            // Byzantine phase-2 vote for the minority value (which no
            // honest sample can justify) would land in the n−f sample,
            // deny both values the strict majority, and push every honest
            // node to ⊥ — and from all-⊥ the round falls through to the
            // local coin, which can flip est away from a value another
            // honest node has already decided on. Justified-only counting
            // restores the Bracha argument: after a decide, every later
            // round's justified phase-2 votes are unanimous.
            let phase3_vote = {
                let n = self.p.n;
                let rs = self.round_state(instance, round);
                let ones = rs.justified_p2_votes(Vote::One, f1);
                let zeros = rs.justified_p2_votes(Vote::Zero, f1);
                if ones + zeros >= n_minus_f && !rs.my_reports[2][me].is_cast() {
                    Some(if 2 * ones > n {
                        Vote::One
                    } else if 2 * zeros > n {
                        Vote::Zero
                    } else {
                        Vote::Bot
                    })
                } else {
                    None
                }
            };
            if let Some(v) = phase3_vote {
                self.cast(instance, round, 2, v);
                progressed = true;
            }
            // Round completion on n−f *valid* accepted phase-3 votes.
            // Bracha's validation rule: a non-⊥ phase-3 value is countable
            // only if it holds a strict majority among this node's accepted
            // phase-2 votes. Without the check, a Byzantine voter can
            // smuggle an unjustified value into the n−f sample and break
            // the f+1-overlap safety argument (honest nodes could then
            // decide differently).
            {
                let n = self.p.n;
                let rs = self.round_state(instance, round);
                let one_ok = 2 * rs.justified_p2_votes(Vote::One, f1) > n;
                let zero_ok = 2 * rs.justified_p2_votes(Vote::Zero, f1) > n;
                let ones = if one_ok { rs.accepted_votes(2, Vote::One) } else { 0 };
                let zeros = if zero_ok { rs.accepted_votes(2, Vote::Zero) } else { 0 };
                let valid_count = ones + zeros + rs.accepted_votes(2, Vote::Bot);
                if valid_count >= n_minus_f && !rs.finished {
                    let (v, c) =
                        if ones >= zeros { (true, ones) } else { (false, zeros) };
                    rs.finished = true;
                    let next_est = if c >= quorum {
                        self.decisions.decide(instance, v);
                        v
                    } else if c >= f1 {
                        v
                    } else {
                        self.rng.random_bool(0.5)
                    };
                    let inst = &mut self.insts[instance];
                    // decided nodes keep voting the decision
                    inst.est = self.decisions.get(instance).unwrap_or(next_est);
                    inst.round = round + 1;
                    self.out.changed();
                    // Prune rounds nobody can still need: below both the
                    // static window and the history floor.
                    let floor = self.decisions.history_floor(instance, inst.round);
                    let keep_from = inst.round.saturating_sub(HISTORY_WINDOW).min(floor);
                    inst.rounds.retain(|r, _| *r >= keep_from);
                    continue;
                }
            }
            if !progressed {
                return;
            }
        }
    }

    fn build_packet(&self) -> Body {
        let mut insts = Vec::new();
        for (j, inst) in self.insts.iter().enumerate() {
            if !inst.active {
                continue;
            }
            let lo = self.decisions.history_floor(j, inst.round);
            for r in lo..=inst.round {
                if let Some(rs) = inst.rounds.get(&r) {
                    insts.push(AbaLcInst {
                        instance: j as u8,
                        round: r,
                        reports: rs.my_reports.clone(),
                        decided: self.decisions.claim(j),
                    });
                }
            }
        }
        Body::AbaLc { insts }
    }

    fn flush(&mut self, acts: &mut Actions) {
        if self.out.flush() {
            let body = self.build_packet();
            self.out.send(body, acts);
        }
        self.out.arm(acts);
    }
}

impl BinaryAgreement for AbaLcBatch {
    fn set_input(&mut self, instance: usize, value: bool, acts: &mut Actions) {
        let inst = &mut self.insts[instance];
        if inst.active {
            return;
        }
        inst.active = true;
        inst.est = value;
        self.evaluate(instance);
        self.flush(acts);
    }

    fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions) {
        if from >= self.p.n {
            return;
        }
        let Body::AbaLc { insts } = body else { return };
        for wire in insts {
            let j = wire.instance as usize;
            if j >= self.p.n {
                continue;
            }
            for (phase, reports) in wire.reports.iter().enumerate() {
                if reports.len() != self.p.n {
                    continue;
                }
                for (voter, vote) in reports.iter().enumerate() {
                    self.record_report(j, wire.round, phase, voter, *vote, from);
                }
            }
            // Read before the claim is heard: a peer stuck behind an
            // undecided node needs old rounds it still holds.
            let undecided = self.decisions.get(j).is_none();
            self.out.changed_if(self.decisions.hear(j, from, wire.round, wire.decided));
            if undecided && self.decisions.peer_round(j, from) < self.insts[j].round {
                self.out.peer_behind();
            }
            if self.decisions.get(j).is_some() && wire.decided == Vote::Unknown {
                self.out.peer_behind();
            }
        }
        for j in 0..self.p.n {
            self.evaluate(j);
        }
        self.flush(acts);
    }

    fn on_timer(&mut self, local_id: u32, acts: &mut Actions) {
        let complete = self.decisions.complete(|j| self.insts[j].active);
        if let Some(behind) = self.out.tick(local_id, complete, acts) {
            let body = self.build_packet();
            self.out.resend(behind, body, acts);
        }
    }

    fn decided(&self, instance: usize) -> Option<bool> {
        self.decisions.get(instance)
    }

    fn decided_count(&self) -> usize {
        self.decisions.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make() -> Vec<AbaLcBatch> {
        (0..4).map(|i| AbaLcBatch::new(Params::new(4, i, 13))).collect()
    }

    fn run(nodes: &mut [AbaLcBatch], inputs: Vec<Vec<bool>>) -> Vec<Vec<bool>> {
        let n_inst = inputs[0].len();
        let mut inbox: Vec<(usize, Body)> = Vec::new();
        for (i, node) in nodes.iter_mut().enumerate() {
            let mut acts = Actions::new();
            for (j, v) in inputs[i].iter().enumerate() {
                node.set_input(j, *v, &mut acts);
            }
            for b in acts.drain().0 {
                inbox.push((i, b));
            }
        }
        let mut steps = 0;
        while let Some((src, body)) = inbox.pop() {
            steps += 1;
            assert!(steps < 400_000, "ABA-LC did not converge");
            for (i, node) in nodes.iter_mut().enumerate() {
                if i == src {
                    continue;
                }
                let mut acts = Actions::new();
                node.handle(src, &body, &mut acts);
                for b in acts.drain().0 {
                    inbox.push((i, b));
                }
            }
            if nodes.iter().all(|n| (0..n_inst).all(|j| n.decided(j).is_some())) {
                break;
            }
        }
        assert!(
            nodes.iter().all(|n| (0..n_inst).all(|j| n.decided(j).is_some())),
            "not all decided"
        );
        nodes
            .iter()
            .map(|n| (0..n_inst).map(|j| n.decided(j).unwrap()).collect())
            .collect()
    }

    #[test]
    fn a_packet_carries_only_the_rounds_a_peer_can_still_use() {
        let mut node = make().remove(0);
        let mut acts = Actions::new();
        node.set_input(0, true, &mut acts);
        for r in 0..=3 {
            node.cast(0, r, 0, Vote::One);
        }
        node.insts[0].round = 3;
        let rounds = |node: &AbaLcBatch| match node.build_packet() {
            Body::AbaLc { insts } => insts.iter().map(|e| e.round).collect::<Vec<_>>(),
            other => panic!("an ABA-LC packet, got {other:?}"),
        };
        assert_eq!(rounds(&node), [0, 1, 2, 3], "peers not heard: round 0");
        for peer in 1..4 {
            node.decisions.hear(0, peer, 3, Vote::Unknown);
        }
        assert_eq!(rounds(&node), [3], "every peer at round 3");
    }

    #[test]
    fn unanimous_inputs_decide_in_round_one() {
        let mut nodes = make();
        let decisions = run(&mut nodes, vec![vec![true]; 4]);
        assert!(decisions.iter().all(|d| d[0]));
        // Unanimous inputs must not need the coin: round stays small.
        assert!(nodes.iter().all(|n| n.insts[0].round <= 2));
    }

    #[test]
    fn unanimous_zero_decides_zero() {
        let mut nodes = make();
        let decisions = run(&mut nodes, vec![vec![false]; 4]);
        assert!(decisions.iter().all(|d| !d[0]));
    }

    #[test]
    fn split_inputs_agree() {
        let mut nodes = make();
        let decisions = run(&mut nodes, vec![vec![true], vec![true], vec![false], vec![false]]);
        let first = decisions[0][0];
        assert!(decisions.iter().all(|d| d[0] == first), "{decisions:?}");
    }

    #[test]
    fn majority_one_decides_one() {
        // 3-of-4 voting 1: phase-2 majority forces 1 regardless of the coin.
        let mut nodes = make();
        let decisions = run(&mut nodes, vec![vec![true], vec![true], vec![true], vec![false]]);
        assert!(decisions.iter().all(|d| d[0]), "{decisions:?}");
    }

    #[test]
    fn parallel_instances_decide_independently() {
        let mut nodes = make();
        let inputs: Vec<Vec<bool>> = (0..4).map(|_| vec![true, false, true, false]).collect();
        let decisions = run(&mut nodes, inputs);
        for d in &decisions {
            assert_eq!(*d, vec![true, false, true, false]);
        }
    }

    #[test]
    fn local_coins_differ_across_nodes() {
        let mut a = AbaLcBatch::new(Params::new(4, 0, 99));
        let mut b = AbaLcBatch::new(Params::new(4, 1, 99));
        let fa: Vec<bool> = (0..64).map(|_| a.rng.random_bool(0.5)).collect();
        let fb: Vec<bool> = (0..64).map(|_| b.rng.random_bool(0.5)).collect();
        assert_ne!(fa, fb, "node coins must be independent");
    }
}
