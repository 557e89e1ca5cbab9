//! Batched shared-coin asynchronous binary agreement (Cachin's ABA /
//! MMR-style BVAL–AUX–COIN rounds) — paper Fig. 6b.
//!
//! One combined packet per channel access carries the BVAL/AUX vote history
//! and coin shares of *all* batched instances (vertical batching), with the
//! three phases folded together (horizontal batching). Two deployments
//! share the code path:
//!
//! * **ABA-SC** — coin from threshold signatures ([`CoinFlavor::ThreshSig`]);
//! * **ABA-CP** — coin from threshold coin flipping (BEAT,
//!   [`CoinFlavor::CoinFlip`]): cheaper operations, larger shares.
//!
//! Per the paper's Technical Challenge III, *parallel* instances in the same
//! round share one common coin (`domain 0`): over a broadcast channel with
//! votes bound into one signed packet, a Byzantine node that learns the coin
//! early cannot reorder per-receiver vote delivery, so the wired-network
//! attack does not apply. *Serial* instances (Dumbo) use per-instance coin
//! domains and are activated one at a time, which also prevents premature
//! share release for later instances (§V-A).
//!
//! Packets carry each instance's per-round vote history back to the lowest
//! round a peer was heard at, until every peer claims a decision, so a node
//! that lost frames reconstructs everything it still needs from any single
//! later packet — this is what makes the NACK-driven reliability converge.
//! How far back a packet reaches, and termination, are the decided-claim
//! gossip of `instance::Decisions`, whose doc states both rules.

use crate::context::{Actions, Batcher, BinaryAgreement, Params};
use crate::instance::Decisions;
use crate::share_buf::{Collector, Quorum, Recorded};
use std::collections::BTreeMap;
use wbft_crypto::thresh_coin::{self, CoinName, CoinPublicSet};
use wbft_crypto::thresh_sig::{PublicKeySet, SecretKeyShare, SigShare};
use wbft_net::packets::AbaScInst;
use wbft_net::{BinValues, Bitmap, Body, CoinFlavor, Vote};

/// Local timer id of the retransmission tick.
const TIMER_RETX: u32 = 0;

/// Per-round votes this node has cast.
#[derive(Debug, Default, Clone)]
struct MyRound {
    bval: BinValues,
    aux: Option<bool>,
}

/// Per-round votes observed across nodes (bitmask per value).
#[derive(Debug, Default, Clone)]
struct SeenRound {
    bval0: u64,
    bval1: u64,
    aux0: u64,
    aux1: u64,
    bin: BinValues,
}

impl SeenRound {
    fn bval_count(&self, v: bool) -> usize {
        (if v { self.bval1 } else { self.bval0 }).count_ones() as usize
    }
    fn aux_senders_in_bin(&self) -> usize {
        let mut mask = 0u64;
        if self.bin.zero {
            mask |= self.aux0;
        }
        if self.bin.one {
            mask |= self.aux1;
        }
        mask.count_ones() as usize
    }
}

#[derive(Debug, Default)]
struct Inst {
    active: bool,
    est: bool,
    round: u16,
    my_rounds: Vec<MyRound>,
    seen: Vec<SeenRound>,
}

impl Inst {
    fn ensure_round(&mut self, r: u16) {
        while self.my_rounds.len() <= r as usize {
            self.my_rounds.push(MyRound::default());
        }
        while self.seen.len() <= r as usize {
            self.seen.push(SeenRound::default());
        }
    }
}

/// One common coin: this node's share (signed once when it releases the
/// coin), everyone's shares, and the coin, derived once from the combined
/// signature.
#[derive(Debug, Default)]
struct Coin {
    shares: Collector,
    value: Option<bool>,
}

/// The terms of a deployment's coins: `f + 1` shares under the coin key
/// set. ABA-SC prices them as *threshold signatures* (Fig. 10a costs),
/// ABA-CP as *threshold coin flipping* (Fig. 10b costs: cheaper operations,
/// bigger shares); the scheme underneath is the same.
pub fn coin_quorum(coin_pub: &CoinPublicSet, flavor: CoinFlavor, n: usize) -> Quorum<'_, PublicKeySet> {
    let keys = coin_pub.keys();
    let q = Quorum::new(keys, keys.threshold() + 1, n);
    match flavor {
        CoinFlavor::ThreshSig => q,
        CoinFlavor::CoinFlip => Quorum { price: coin_pub.profile(), ..q },
    }
}

/// Batched shared-coin ABA over up to N instances.
pub struct AbaScBatch {
    p: Params,
    flavor: CoinFlavor,
    /// Parallel deployment: all instances share the round coin (domain 0).
    /// Serial deployment: per-instance domains.
    shared_coin: bool,
    coin_pub: CoinPublicSet,
    coin_sec: SecretKeyShare,
    insts: Vec<Inst>,
    decisions: Decisions,
    /// One common coin per domain and round.
    coins: BTreeMap<(u8, u16), Coin>,
    out: Batcher,
}

impl std::fmt::Debug for AbaScBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AbaScBatch")
            .field("flavor", &self.flavor)
            .field("decided", &self.decided_count())
            .finish_non_exhaustive()
    }
}

impl AbaScBatch {
    /// Creates a parallel batch: instances share the per-round coin and are
    /// expected to be activated simultaneously (wireless HoneyBadgerBFT).
    pub fn new_parallel(
        p: Params,
        flavor: CoinFlavor,
        coin_pub: CoinPublicSet,
        coin_sec: SecretKeyShare,
    ) -> Self {
        Self::new(p, flavor, true, coin_pub, coin_sec)
    }

    /// Creates a serial batch: per-instance coin domains, instances
    /// activated one at a time (wireless Dumbo).
    pub fn new_serial(
        p: Params,
        flavor: CoinFlavor,
        coin_pub: CoinPublicSet,
        coin_sec: SecretKeyShare,
    ) -> Self {
        Self::new(p, flavor, false, coin_pub, coin_sec)
    }

    fn new(
        p: Params,
        flavor: CoinFlavor,
        shared_coin: bool,
        coin_pub: CoinPublicSet,
        coin_sec: SecretKeyShare,
    ) -> Self {
        AbaScBatch {
            p,
            flavor,
            shared_coin,
            coin_pub,
            coin_sec,
            insts: (0..p.n).map(|_| Inst::default()).collect(),
            decisions: Decisions::new(&p),
            coins: BTreeMap::new(),
            out: Batcher::new(&p, TIMER_RETX),
        }
    }

    /// Whether an instance has been activated with an input.
    pub fn is_active(&self, instance: usize) -> bool {
        self.insts[instance].active
    }

    fn domain(&self, instance: usize) -> u8 {
        if self.shared_coin {
            0
        } else {
            instance as u8
        }
    }

    fn coin_name(&self, domain: u8, round: u16) -> CoinName {
        CoinName { session: self.p.session, round: round as u32, domain: domain as u32 }
    }

    /// Buffers a coin share; the buffered quorum is verified and combined
    /// in one pass. `false` when the share was refused.
    fn record_coin_share(
        &mut self,
        domain: u8,
        round: u16,
        share: &SigShare,
        acts: &mut Actions,
    ) -> bool {
        let name = self.coin_name(domain, round);
        let q = coin_quorum(&self.coin_pub, self.flavor, self.p.n);
        let coin = self.coins.entry((domain, round)).or_default();
        match coin.shares.record(&q, name, *share, acts) {
            Recorded::Refused => false,
            Recorded::Buffered => true,
            Recorded::Combined(sig) => {
                coin.value = sig.map(|sig| thresh_coin::reveal(&sig) & 1 == 1);
                true
            }
        }
    }

    /// Releases this node's coin share for `(domain, round)` if not yet.
    fn release_share(&mut self, domain: u8, round: u16, acts: &mut Actions) {
        let name = self.coin_name(domain, round);
        let q = coin_quorum(&self.coin_pub, self.flavor, self.p.n);
        let own_check = q.price.verify_share_us;
        let coin = self.coins.entry((domain, round)).or_default();
        let Some(share) = coin.shares.sign_own(&q, || self.coin_sec.coin_share(name), acts) else {
            return;
        };
        if self.record_coin_share(domain, round, &share, acts) {
            // Unlike every other collector, it pays to check its own share
            // (ROADMAP item 5).
            acts.charge(own_check);
        }
        self.out.changed();
    }

    fn coin_value(&self, domain: u8, round: u16) -> Option<bool> {
        self.coins.get(&(domain, round)).and_then(|c| c.value)
    }

    /// Casts a BVAL vote for `(instance, round, v)` from this node.
    fn cast_bval(&mut self, instance: usize, round: u16, v: bool) {
        let me = self.p.me;
        let inst = &mut self.insts[instance];
        inst.ensure_round(round);
        let my = &mut inst.my_rounds[round as usize];
        if my.bval.contains(v) {
            return;
        }
        my.bval.insert(v);
        let seen = &mut inst.seen[round as usize];
        let mask = if v { &mut seen.bval1 } else { &mut seen.bval0 };
        *mask |= 1 << me;
        self.out.changed();
    }

    fn cast_aux(&mut self, instance: usize, round: u16, v: bool) {
        let me = self.p.me;
        let inst = &mut self.insts[instance];
        inst.ensure_round(round);
        let my = &mut inst.my_rounds[round as usize];
        if my.aux.is_some() {
            return;
        }
        my.aux = Some(v);
        let seen = &mut inst.seen[round as usize];
        let mask = if v { &mut seen.aux1 } else { &mut seen.aux0 };
        *mask |= 1 << me;
        self.out.changed();
    }

    /// Runs the round state machine for one instance to a fixpoint.
    fn evaluate(&mut self, instance: usize, acts: &mut Actions) {
        loop {
            let (round, active) = {
                let inst = &self.insts[instance];
                (inst.round, inst.active)
            };
            if !active {
                return;
            }
            self.insts[instance].ensure_round(round);
            let me_quorum = self.p.quorum();
            let f = self.p.f;
            let n_minus_f = self.p.n_minus_f();
            let mut progressed = false;

            // BVAL relay on f+1, bin_values on 2f+1.
            for v in [false, true] {
                let (count, has_cast) = {
                    let inst = &self.insts[instance];
                    let seen = &inst.seen[round as usize];
                    (seen.bval_count(v), inst.my_rounds[round as usize].bval.contains(v))
                };
                if count > f && !has_cast {
                    self.cast_bval(instance, round, v);
                    progressed = true;
                }
                let count = self.insts[instance].seen[round as usize].bval_count(v);
                if count >= me_quorum
                    && !self.insts[instance].seen[round as usize].bin.contains(v)
                {
                    self.insts[instance].seen[round as usize].bin.insert(v);
                    progressed = true;
                }
            }

            // AUX once bin_values is non-empty.
            {
                let inst = &self.insts[instance];
                let bin = inst.seen[round as usize].bin;
                let aux_cast = inst.my_rounds[round as usize].aux.is_some();
                if !bin.is_empty() && !aux_cast {
                    let v = bin.single().unwrap_or(inst.est);
                    self.cast_aux(instance, round, v);
                    progressed = true;
                }
            }

            // Coin phase: n−f AUX votes with values inside bin_values.
            let ready_for_coin = {
                let inst = &self.insts[instance];
                let seen = &inst.seen[round as usize];
                !seen.bin.is_empty() && seen.aux_senders_in_bin() >= n_minus_f
            };
            if ready_for_coin {
                let domain = self.domain(instance);
                self.release_share(domain, round, acts);
                if let Some(coin) = self.coin_value(domain, round) {
                    // vals = values in bin carried by aux votes.
                    let (vals0, vals1, bin) = {
                        let seen = &self.insts[instance].seen[round as usize];
                        (
                            seen.bin.zero && seen.aux0 != 0,
                            seen.bin.one && seen.aux1 != 0,
                            seen.bin,
                        )
                    };
                    let _ = bin;
                    let next_est = match (vals0, vals1) {
                        (true, false) => {
                            if !coin {
                                self.out.changed_if(self.decisions.decide(instance, false));
                            }
                            false
                        }
                        (false, true) => {
                            if coin {
                                self.out.changed_if(self.decisions.decide(instance, true));
                            }
                            true
                        }
                        _ => coin,
                    };
                    let inst = &mut self.insts[instance];
                    // decided nodes keep voting their decision
                    inst.est = self.decisions.get(instance).unwrap_or(next_est);
                    inst.round = round + 1;
                    let est = inst.est;
                    self.cast_bval(instance, round + 1, est);
                    progressed = true;
                }
            }

            if !progressed {
                return;
            }
        }
    }

    /// Builds the combined packet: every active instance's vote history
    /// from its history floor on, plus this node's released coin shares of
    /// the rounds carried.
    fn build_packet(&self) -> Body {
        let mut insts = Vec::new();
        let mut coin_rounds: Vec<(u8, u16)> = Vec::new();
        for (j, inst) in self.insts.iter().enumerate() {
            if !inst.active {
                continue;
            }
            let lo = self.decisions.history_floor(j, inst.round);
            for r in lo..=inst.round {
                if (r as usize) < inst.my_rounds.len() {
                    let my = &inst.my_rounds[r as usize];
                    insts.push(AbaScInst {
                        instance: j as u8,
                        round: r,
                        bval: my.bval,
                        aux: my.aux.map(Vote::from_bool).unwrap_or(Vote::Unknown),
                        decided: self.decisions.claim(j),
                    });
                }
                let d = self.domain(j);
                if !coin_rounds.contains(&(d, r)) {
                    coin_rounds.push((d, r));
                }
            }
        }
        let mut coin_shares = Vec::new();
        for (d, r) in coin_rounds {
            if let Some(share) = self.coins.get(&(d, r)).and_then(|c| c.shares.own()) {
                // Wire convention: round field packs (domain << 8) | round.
                coin_shares.push(((d as u16) << 8 | (r & 0xff), share));
            }
        }
        // share_nack: nodes whose coin share we lack for any needed coin.
        let mut share_nack = Bitmap::new(self.p.n);
        for coin in self.coins.values() {
            if coin.shares.own().is_some() && coin.value.is_none() {
                for node in 0..self.p.n {
                    if coin.shares.reporters() & (1 << node) == 0 {
                        share_nack.set(node, true);
                    }
                }
            }
        }
        Body::AbaSc { flavor: self.flavor, insts, coin_shares, share_nack }
    }

    fn flush(&mut self, acts: &mut Actions) {
        if self.out.flush() {
            let body = self.build_packet();
            self.out.send(body, acts);
        }
        self.out.arm(acts);
    }
}

impl BinaryAgreement for AbaScBatch {
    fn set_input(&mut self, instance: usize, value: bool, acts: &mut Actions) {
        let inst = &mut self.insts[instance];
        if inst.active {
            return;
        }
        inst.active = true;
        inst.est = value;
        self.cast_bval(instance, 0, value);
        self.evaluate(instance, acts);
        self.flush(acts);
    }

    fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions) {
        if from >= self.p.n {
            return;
        }
        let Body::AbaSc { flavor, insts, coin_shares, share_nack } = body else {
            return;
        };
        if *flavor != self.flavor {
            return;
        }
        let from_bit = 1u64 << from;
        for wire in insts {
            let j = wire.instance as usize;
            if j >= self.p.n {
                continue;
            }
            // Activation by observation: an instance a peer is voting on
            // exists; if our driver has not given us input yet we still
            // record votes (they are monotonic) but do not vote ourselves.
            let inst = &mut self.insts[j];
            inst.ensure_round(wire.round);
            let seen = &mut inst.seen[wire.round as usize];
            if wire.bval.zero {
                seen.bval0 |= from_bit;
            }
            if wire.bval.one {
                seen.bval1 |= from_bit;
            }
            match wire.aux {
                Vote::Zero => seen.aux0 |= from_bit,
                Vote::One => seen.aux1 |= from_bit,
                _ => {}
            }
            self.out.changed_if(self.decisions.hear(j, from, wire.round, wire.decided));
            // A peer still mid-protocol where we have decided → serve state.
            // Any peer's round is where a per-instance re-send reaches back
            // to: a peer that adopted a decision still needs its round's
            // votes to move on and vote in the rounds the others are in.
            let at = self.decisions.peer_round(j, from);
            if wire.decided == Vote::Unknown && self.decisions.get(j).is_some() {
                self.out.peer_lacks(j, at);
            }
            self.out.peer_at(j, at);
        }
        for (packed, share) in coin_shares {
            let domain = (packed >> 8) as u8;
            let round = packed & 0xff;
            self.record_coin_share(domain, round, share, acts);
        }
        // A peer lacks our share of some coin: of the coins it names, when
        // it names any.
        if share_nack.len() == self.p.n && share_nack.get(self.p.me) {
            if coin_shares.is_empty() {
                self.out.peer_behind();
            }
            for (packed, _) in coin_shares {
                self.out.peer_lacks(usize::from(packed >> 8), packed & 0xff);
            }
        }
        for j in 0..self.p.n {
            self.evaluate(j, acts);
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
    use crate::context::{deal_node_crypto, Packing};
    use rand::SeedableRng;
    use wbft_crypto::CryptoSuite;
    use wbft_net::join;

    fn make_nodes(flavor: CoinFlavor, shared: bool) -> Vec<AbaScBatch> {
        make_packed(flavor, shared, Packing::Combined)
    }

    fn make_packed(flavor: CoinFlavor, shared: bool, packing: Packing) -> Vec<AbaScBatch> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let crypto = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        crypto
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let p = Params::new(4, i, 11).packed(packing);
                if shared {
                    AbaScBatch::new_parallel(p, flavor, c.coin_pub, c.coin_sec)
                } else {
                    AbaScBatch::new_serial(p, flavor, c.coin_pub, c.coin_sec)
                }
            })
            .collect()
    }

    /// Synchronous mesh exchange until all nodes decide all instances,
    /// joining per-instance frames as a node's engine does.
    fn run_to_decision(nodes: &mut [AbaScBatch], inputs: Vec<Vec<bool>>) -> Vec<Vec<bool>> {
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
            assert!(steps < 200_000, "ABA did not converge");
            for (i, node) in nodes.iter_mut().enumerate() {
                if i == src {
                    continue;
                }
                let mut acts = Actions::new();
                node.handle(src, &join(&body, 4), &mut acts);
                for b in acts.drain().0 {
                    inbox.push((i, b));
                }
            }
            if nodes.iter().all(|n| (0..n_inst).all(|j| n.decided(j).is_some())) {
                break;
            }
        }
        // Timer ticks to shake loose anything pending (coin share resends).
        let mut extra = 0;
        while !nodes.iter().all(|n| (0..n_inst).all(|j| n.decided(j).is_some())) {
            extra += 1;
            assert!(extra < 200, "ABA stuck after ticks");
            let mut batch: Vec<(usize, Body)> = Vec::new();
            for (i, node) in nodes.iter_mut().enumerate() {
                let mut acts = Actions::new();
                node.on_timer(TIMER_RETX, &mut acts);
                for b in acts.drain().0 {
                    batch.push((i, b));
                }
            }
            for (src, body) in batch {
                for i in 0..nodes.len() {
                    if i == src {
                        continue;
                    }
                    let mut acts = Actions::new();
                    nodes[i].handle(src, &join(&body, 4), &mut acts);
                    for b in acts.drain().0 {
                        // deliver immediately
                        for (k, nk) in nodes.iter_mut().enumerate() {
                            if k != i {
                                let mut a2 = Actions::new();
                                nk.handle(i, &join(&b, 4), &mut a2);
                                // second-order sends dropped; ticks repeat
                            }
                        }
                    }
                }
            }
        }
        nodes
            .iter()
            .map(|n| (0..n_inst).map(|j| n.decided(j).unwrap()).collect())
            .collect()
    }

    #[test]
    fn unanimous_one_decides_one() {
        let mut nodes = make_nodes(CoinFlavor::ThreshSig, true);
        let decisions = run_to_decision(&mut nodes, vec![vec![true]; 4]);
        for d in &decisions {
            assert!(d[0], "validity: unanimous 1 must decide 1");
        }
    }

    #[test]
    fn unanimous_zero_decides_zero() {
        let mut nodes = make_nodes(CoinFlavor::ThreshSig, true);
        let decisions = run_to_decision(&mut nodes, vec![vec![false]; 4]);
        for d in &decisions {
            assert!(!d[0]);
        }
    }

    #[test]
    fn split_inputs_agree() {
        // The batched parallel deployment, and the baseline's: serial coin
        // domains, one instance per frame.
        for (shared, packing) in [(true, Packing::Combined), (false, Packing::PerInstance)] {
            let mut nodes = make_packed(CoinFlavor::ThreshSig, shared, packing);
            let decisions = run_to_decision(
                &mut nodes,
                vec![vec![true], vec![false], vec![true], vec![false]],
            );
            let first = decisions[0][0];
            for d in &decisions {
                assert_eq!(d[0], first, "agreement violated under {packing:?}: {decisions:?}");
            }
        }
    }

    #[test]
    fn the_baseline_emits_per_item_packets() {
        let mut node = make_packed(CoinFlavor::ThreshSig, false, Packing::PerInstance).remove(0);
        let mut acts = Actions::new();
        node.set_input(0, true, &mut acts);
        let (sends, _, _) = acts.drain();
        assert!(
            sends.iter().all(|b| matches!(b, Body::BaseAbaVote { .. } | Body::BaseAbaCoin { .. })),
            "baseline must emit per-item packets, got {sends:?}"
        );
        assert!(
            sends.iter().any(|b| matches!(b, Body::BaseAbaVote { inst, .. } if inst.bval.one)),
            "initial BVAL expected"
        );
    }

    #[test]
    fn parallel_instances_all_decide_and_agree() {
        let mut nodes = make_nodes(CoinFlavor::ThreshSig, true);
        // HB pattern: everyone votes 1 for instances {0,1,2}, 0 for {3}.
        let inputs: Vec<Vec<bool>> = (0..4).map(|_| vec![true, true, true, false]).collect();
        let decisions = run_to_decision(&mut nodes, inputs);
        for d in &decisions {
            assert_eq!(d[..3], [true, true, true]);
            assert!(!d[3]);
        }
    }

    #[test]
    fn each_released_coin_is_signed_exactly_once() {
        // Split inputs force coin rounds; every vote change rebuilds the
        // packet, which must re-send the kept share, not sign a new one.
        let before = wbft_crypto::thresh_coin::tally().shares_signed;
        let mut nodes = make_nodes(CoinFlavor::ThreshSig, true);
        run_to_decision(&mut nodes, vec![vec![true], vec![false], vec![true], vec![false]]);
        let released: usize = nodes
            .iter()
            .map(|n| n.coins.values().filter(|c| c.shares.own().is_some()).count())
            .sum();
        assert!(released >= 4, "every node releases at least one coin");
        let signed = wbft_crypto::thresh_coin::tally().shares_signed - before;
        assert_eq!(signed, released as u64);
    }

    #[test]
    fn coin_flip_flavor_also_terminates() {
        let mut nodes = make_nodes(CoinFlavor::CoinFlip, true);
        let decisions = run_to_decision(
            &mut nodes,
            vec![vec![false], vec![true], vec![false], vec![true]],
        );
        let first = decisions[0][0];
        assert!(decisions.iter().all(|d| d[0] == first));
    }

    #[test]
    fn serial_mode_uses_distinct_domains() {
        let nodes = make_nodes(CoinFlavor::ThreshSig, false);
        assert_eq!(nodes[0].domain(0), 0);
        assert_eq!(nodes[0].domain(2), 2);
        let shared = make_nodes(CoinFlavor::ThreshSig, true);
        assert_eq!(shared[0].domain(2), 0);
    }

    /// Node 0 of a parallel batch, instance 0 at `round` with a BVAL and a
    /// released coin share in every round up to it.
    fn node_at_round(round: u16) -> AbaScBatch {
        let mut node = make_nodes(CoinFlavor::ThreshSig, true).remove(0);
        let mut acts = Actions::new();
        node.set_input(0, true, &mut acts);
        for r in 0..=round {
            node.cast_bval(0, r, true);
            node.release_share(0, r, &mut acts);
        }
        node.insts[0].round = round;
        node
    }

    /// The rounds of a packet's vote entries and of its coin shares.
    fn carried(body: &Body) -> (Vec<u16>, Vec<u16>) {
        let Body::AbaSc { insts, coin_shares, .. } = body else { panic!("an ABA-SC packet") };
        (insts.iter().map(|e| e.round).collect(), coin_shares.iter().map(|c| c.0 & 0xff).collect())
    }

    #[test]
    fn a_packet_carries_only_the_rounds_a_peer_can_still_use() {
        let mut node = node_at_round(3);
        let all = vec![0, 1, 2, 3];
        assert_eq!(carried(&node.build_packet()), (all.clone(), all), "peers not heard: round 0");
        for peer in 1..4 {
            node.decisions.hear(0, peer, 3, Vote::Unknown);
        }
        assert_eq!(carried(&node.build_packet()), (vec![3], vec![3]), "every peer at round 3");
    }

    #[test]
    fn a_decided_laggard_is_served_its_rounds_while_some_peer_is_undecided() {
        let mut node = node_at_round(5);
        // Node 1 adopted a decision at round 2; nodes 2 and 3 are at 5.
        node.decisions.hear(0, 1, 2, Vote::One);
        node.decisions.hear(0, 2, 5, Vote::Unknown);
        node.decisions.hear(0, 3, 5, Vote::One);
        let from_2 = vec![2, 3, 4, 5];
        assert_eq!(carried(&node.build_packet()), (from_2.clone(), from_2), "node 2 is undecided");
        node.decisions.hear(0, 2, 5, Vote::One);
        assert_eq!(carried(&node.build_packet()), (vec![5], vec![5]), "every peer claimed");
    }

    #[test]
    fn mismatched_flavor_packets_ignored() {
        let mut nodes = make_nodes(CoinFlavor::ThreshSig, true);
        let mut acts = Actions::new();
        nodes[0].set_input(0, true, &mut acts);
        let pkt = Body::AbaSc {
            flavor: CoinFlavor::CoinFlip,
            insts: vec![AbaScInst {
                instance: 0,
                round: 0,
                bval: BinValues { zero: true, one: false },
                aux: Vote::Unknown,
                decided: Vote::Unknown,
            }],
            coin_shares: vec![],
            share_nack: Bitmap::new(4),
        };
        let mut acts = Actions::new();
        nodes[0].handle(1, &pkt, &mut acts);
        assert_eq!(nodes[0].insts[0].seen[0].bval0, 0, "wrong-flavor votes must not count");
    }
}
