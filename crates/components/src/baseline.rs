//! Baseline (unbatched) component deployments — the comparison points of
//! the paper's evaluation.
//!
//! Each component instance sends its own per-phase packets: an RBC echo is
//! one frame, a coin share is one frame, and N parallel instances contend
//! for the channel N separate times per phase. Protocol *logic* is the
//! batched components' (that is the paper's point — only the packaging
//! changes), and here it literally is: the broadcast sets drive the same
//! instance state machines (`instance::{BrachaInst, CbcInst, DoneStage}`)
//! as `rbc` / `cbc` / `prbc`, and the ABA set wraps the batched
//! `AbaScBatch`. What this file holds is the baseline's packaging — one
//! frame per transition instead of a flush of one combined packet, and
//! the shared `Batcher`'s tick re-sending per-instance state with no NACK
//! bits to steer it. The message overhead difference is what
//! Table I and the `*-baseline` rows of Fig. 13 measure.

use crate::aba_sc::AbaScBatch;
use crate::context::{
    Actions, Batcher, BinaryAgreement, Broadcaster, Params, ProvableBroadcaster,
};
use crate::instance::{Accepted, Assembler, BrachaInst, CbcInst, DoneStage, Signer};
use bytes::Bytes;
use std::collections::BTreeSet;
use wbft_crypto::hash::Digest32;
use wbft_crypto::thresh_coin::CoinPublicSet;
use wbft_crypto::thresh_sig::{PublicKeySet, SecretKeyShare, ThresholdSignature};
use wbft_net::packets::AbaScInst;
use wbft_net::{BinValues, Bitmap, Body, CoinFlavor, Vote};

const TIMER_RETX: u32 = 0;

/// One `BaseRbcInit` frame per fragment of a held value (the baseline RBC
/// and CBC share the INITIAL packet).
fn send_init(asm: &Assembler, instance: usize, acts: &mut Actions) {
    for f in asm.fragments() {
        acts.send(Body::BaseRbcInit {
            instance: instance as u8,
            frag: f.frag,
            frag_total: f.frag_total,
            root: f.root,
            data: f.data,
        });
    }
}

// --------------------------------------------------------------- RBC

/// N independent per-instance RBCs (unbatched baseline).
#[derive(Debug)]
pub struct BaselineRbcSet {
    p: Params,
    insts: Vec<BrachaInst>,
    out: Batcher,
}

impl BaselineRbcSet {
    /// Creates the set.
    pub fn new(p: Params) -> Self {
        BaselineRbcSet {
            insts: (0..p.n).map(|_| BrachaInst::new(p.n)).collect(),
            out: Batcher::new(&p, TIMER_RETX),
            p,
        }
    }

    /// Delivered root of an instance (baseline PRBC signs this).
    pub fn delivered_root(&self, instance: usize) -> Option<Digest32> {
        self.insts.get(instance).and_then(BrachaInst::delivered_root)
    }

    /// Re-evaluates instance `j`'s quorums; becoming ready is one frame.
    fn advance(&mut self, j: usize, acts: &mut Actions) {
        if let Some(root) = self.insts[j].step(&self.p).ready {
            acts.send(Body::BaseRbcReady { instance: j as u8, root });
        }
    }
}

impl Broadcaster for BaselineRbcSet {
    fn start(&mut self, my_value: Bytes, acts: &mut Actions) {
        let me = self.p.me;
        let root = self.insts[me].propose(me, my_value);
        send_init(&self.insts[me].asm, me, acts);
        acts.send(Body::BaseRbcEcho { instance: me as u8, root });
        self.out.arm(acts);
    }

    fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions) {
        let (Body::BaseRbcInit { instance, .. }
        | Body::BaseRbcEcho { instance, .. }
        | Body::BaseRbcReady { instance, .. }) = body
        else {
            return;
        };
        let j = *instance as usize;
        if from >= self.p.n || j >= self.p.n {
            return;
        }
        let inst = &mut self.insts[j];
        match body {
            Body::BaseRbcInit { frag, frag_total, root, data, .. } => {
                let (frag, frag_total) = (*frag as usize, *frag_total as usize);
                match inst.on_fragment(self.p.me, frag, frag_total, *root, data) {
                    Accepted::Refused => return,
                    Accepted::Buffered => {}
                    Accepted::Assembled(root) => {
                        acts.send(Body::BaseRbcEcho { instance: *instance, root })
                    }
                }
            }
            Body::BaseRbcEcho { root, .. } => {
                inst.votes.echo(from, *root);
                inst.asm.claim(*root);
                // A redundant echo for a delivered instance = the peer
                // is still working on it; our READY may be lost.
                if inst.votes.delivered() {
                    self.out.peer_behind();
                }
            }
            Body::BaseRbcReady { root, .. } => inst.votes.ready(from, *root),
            _ => {}
        }
        self.advance(j, acts);
    }

    fn on_timer(&mut self, local_id: u32, acts: &mut Actions) {
        let complete = self.delivered_count() == self.p.n;
        if let Some(peer_behind) = self.out.tick(local_id, complete, acts) {
            // Re-send per-instance state for everything not yet complete
            // (or for everything, when a peer is demonstrably behind).
            for (j, inst) in self.insts.iter().enumerate() {
                if inst.votes.delivered() && !peer_behind {
                    continue;
                }
                send_init(&inst.asm, j, acts);
                if let Some(root) = inst.votes.my_echo() {
                    acts.send(Body::BaseRbcEcho { instance: j as u8, root });
                }
                if let Some(root) = inst.votes.my_ready() {
                    acts.send(Body::BaseRbcReady { instance: j as u8, root });
                }
            }
        }
    }

    fn delivered(&self, instance: usize) -> Option<&Bytes> {
        self.insts.get(instance).and_then(BrachaInst::delivered)
    }

    fn delivered_count(&self) -> usize {
        self.insts.iter().filter(|i| i.votes.delivered()).count()
    }
}

// --------------------------------------------------------------- CBC

/// N independent per-instance CBCs (unbatched baseline).
#[derive(Debug)]
pub struct BaselineCbcSet {
    signer: Signer,
    insts: Vec<CbcInst>,
    out: Batcher,
}

impl BaselineCbcSet {
    /// Creates the set over the `(2f, n)` CBC key set.
    pub fn new(p: Params, keys: PublicKeySet, secret: SecretKeyShare) -> Self {
        BaselineCbcSet {
            insts: (0..p.n).map(|_| CbcInst::default()).collect(),
            out: Batcher::new(&p, TIMER_RETX),
            signer: Signer::cbc_echo(p, keys, secret),
        }
    }

    /// Quorum certificate of a delivered instance.
    pub fn proof(&self, instance: usize) -> Option<&ThresholdSignature> {
        self.insts.get(instance).and_then(CbcInst::proof)
    }

    /// Echoes instance `j` once its value is held: one ECHO frame, and —
    /// for the leader whose own share completes the quorum — one FINISH.
    fn send_echo(&mut self, j: usize, acts: &mut Actions) {
        let instance = j as u8;
        if let Some((share, root, finish)) = self.insts[j].echo(&self.signer, j, acts) {
            acts.send(Body::BaseCbcEcho { instance, root, share });
            if let Some(sig) = finish {
                acts.send(Body::BaseCbcFinish { instance, root, sig });
            }
        }
    }
}

impl Broadcaster for BaselineCbcSet {
    fn start(&mut self, my_value: Bytes, acts: &mut Actions) {
        let me = self.signer.p.me;
        self.insts[me].asm.hold(my_value);
        send_init(&self.insts[me].asm, me, acts);
        self.send_echo(me, acts);
        self.out.arm(acts);
    }

    fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions) {
        let (Body::BaseRbcInit { instance, .. }
        | Body::BaseCbcEcho { instance, .. }
        | Body::BaseCbcFinish { instance, .. }) = body
        else {
            return;
        };
        let j = *instance as usize;
        if from >= self.signer.p.n || j >= self.signer.p.n {
            return;
        }
        let inst = &mut self.insts[j];
        match body {
            Body::BaseRbcInit { frag, frag_total, root, data, .. } => {
                let (frag, frag_total) = (*frag as usize, *frag_total as usize);
                if let Accepted::Assembled(_) = inst.asm.accept(frag, frag_total, *root, data) {
                    self.send_echo(j, acts);
                }
            }
            Body::BaseCbcEcho { root, share, .. } => {
                inst.asm.claim(*root);
                if let Some((root, sig)) = inst.record_echo(&self.signer, j, *share, acts) {
                    acts.send(Body::BaseCbcFinish { instance: *instance, root, sig });
                }
            }
            // The certificate vouches for the root it arrives with: a node
            // that missed every INITIAL and ECHO adopts it from FINISH.
            Body::BaseCbcFinish { root, sig, .. } => {
                let verified = self.signer.accept_cert(&mut inst.cert, j, root, sig, acts);
                if verified {
                    inst.asm.claim(*root);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, local_id: u32, acts: &mut Actions) {
        let me = self.signer.p.me;
        if self.out.tick(local_id, self.delivered_count() == self.signer.p.n, acts).is_some() {
            for (j, inst) in self.insts.iter().enumerate() {
                if inst.delivered().is_some() {
                    continue;
                }
                if j == me {
                    send_init(&inst.asm, j, acts);
                }
                if let (Some(share), Some(root)) = (inst.cert.own(), inst.asm.claimed_root()) {
                    acts.send(Body::BaseCbcEcho { instance: j as u8, root, share });
                }
            }
            // Re-broadcast any FINISH we hold (peers may have lost it).
            for (j, inst) in self.insts.iter().enumerate() {
                if let (Some(sig), Some(root)) = (inst.cert.output(), inst.asm.claimed_root()) {
                    acts.send(Body::BaseCbcFinish { instance: j as u8, root, sig: *sig });
                }
            }
        }
    }

    fn delivered(&self, instance: usize) -> Option<&Bytes> {
        self.insts.get(instance).and_then(CbcInst::delivered)
    }

    fn delivered_count(&self) -> usize {
        self.insts.iter().filter(|i| i.delivered().is_some()).count()
    }
}

// --------------------------------------------------------------- PRBC

/// N independent per-instance PRBCs (baseline RBC + per-instance DONE).
#[derive(Debug)]
pub struct BaselinePrbcSet {
    rbc: BaselineRbcSet,
    done: DoneStage,
}

impl BaselinePrbcSet {
    /// Creates the set over the `(f, n)` proof key set.
    pub fn new(p: Params, keys: PublicKeySet, secret: SecretKeyShare) -> Self {
        BaselinePrbcSet { rbc: BaselineRbcSet::new(p), done: DoneStage::new(p, keys, secret) }
    }

    /// Delivery proof of an instance.
    pub fn proof(&self, instance: usize) -> Option<&ThresholdSignature> {
        self.done.proof(instance)
    }

    /// Instances with a completed proof.
    pub fn proven_count(&self) -> usize {
        self.done.proven_count()
    }

    /// One DONE frame per instance the inner RBC has newly delivered.
    fn sign_new_done(&mut self, acts: &mut Actions) {
        let rbc = &self.rbc;
        for (j, root, share) in self.done.sign_new(|j| rbc.delivered_root(j), acts) {
            acts.send(Body::BasePrbcDone { instance: j as u8, root, share });
        }
    }
}

impl ProvableBroadcaster for BaselinePrbcSet {
    fn proof(&self, instance: usize) -> Option<&ThresholdSignature> {
        BaselinePrbcSet::proof(self, instance)
    }

    fn proven_count(&self) -> usize {
        BaselinePrbcSet::proven_count(self)
    }
}

impl Broadcaster for BaselinePrbcSet {
    fn start(&mut self, my_value: Bytes, acts: &mut Actions) {
        self.rbc.start(my_value, acts);
        self.sign_new_done(acts);
    }

    fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions) {
        match body {
            Body::BasePrbcDone { instance, share, .. } => {
                let j = *instance as usize;
                self.done.record(j, self.rbc.delivered_root(j), *share, acts);
            }
            _ => self.rbc.handle(from, body, acts),
        }
        self.sign_new_done(acts);
    }

    fn on_timer(&mut self, local_id: u32, acts: &mut Actions) {
        self.rbc.on_timer(local_id, acts);
        // Piggyback DONE retransmission on the RBC tick.
        for j in 0..self.rbc.p.n {
            if let (Some(share), None, Some(root)) =
                (self.done.my_share(j), self.done.proof(j), self.rbc.delivered_root(j))
            {
                acts.send(Body::BasePrbcDone { instance: j as u8, root, share });
            }
        }
    }

    fn delivered(&self, instance: usize) -> Option<&Bytes> {
        self.rbc.delivered(instance)
    }

    fn delivered_count(&self) -> usize {
        self.rbc.delivered_count()
    }
}

// --------------------------------------------------------------- ABA

/// Baseline shared-coin ABA: the batched state machine behind a
/// packetization adapter that sends one frame per vote/share (the wired
/// deployment style, including per-instance coins — paper §IV-C2 notes
/// parallel instances cannot safely share coins without the batched vote
/// binding).
pub struct BaselineAbaSet {
    inner: AbaScBatch,
    flavor: CoinFlavor,
    n: usize,
    /// Items already emitted (dedup across flushes).
    emitted: BTreeSet<(u8, u16, u8)>,
}

impl std::fmt::Debug for BaselineAbaSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselineAbaSet").field("inner", &self.inner).finish()
    }
}

/// Emission item tags for the dedup set.
const TAG_BVAL0: u8 = 0;
const TAG_BVAL1: u8 = 1;
const TAG_AUX: u8 = 2;
const TAG_COIN: u8 = 3;
const TAG_DECIDED: u8 = 4;

impl BaselineAbaSet {
    /// Creates the baseline set (per-instance coin domains).
    pub fn new(
        p: Params,
        flavor: CoinFlavor,
        coin_pub: CoinPublicSet,
        coin_sec: SecretKeyShare,
    ) -> Self {
        BaselineAbaSet {
            n: p.n,
            inner: AbaScBatch::new_serial(p, flavor, coin_pub, coin_sec),
            flavor,
            emitted: BTreeSet::new(),
        }
    }

    /// Translates the inner combined packet into per-item baseline frames,
    /// deduplicating against what was already emitted.
    fn translate_out(&mut self, sends: Vec<Body>, acts: &mut Actions) {
        for body in sends {
            let Body::AbaSc { insts, coin_shares, .. } = body else {
                continue;
            };
            for AbaScInst { instance, round, bval, aux, decided } in insts {
                let mut emit = |fresh: bool, tag: u8, round: u16, frame: Body| {
                    if fresh && self.emitted.insert((instance, round, tag)) {
                        acts.send(frame);
                    }
                };
                emit(bval.zero, TAG_BVAL0, round, Body::BaseAbaBval { instance, round, value: false });
                emit(bval.one, TAG_BVAL1, round, Body::BaseAbaBval { instance, round, value: true });
                if let Some(value) = aux.as_bool() {
                    emit(true, TAG_AUX, round, Body::BaseAbaAux { instance, round, value });
                }
                if let Some(value) = decided.as_bool() {
                    emit(true, TAG_DECIDED, 0, Body::BaseAbaDecided { instance, value });
                }
            }
            for (packed, share) in coin_shares {
                let (instance, round) = ((packed >> 8) as u8, packed & 0xff);
                if self.emitted.insert((instance, round, TAG_COIN)) {
                    acts.send(Body::BaseAbaCoin { instance, round, flavor: self.flavor, share });
                }
            }
        }
    }

    /// Translates an incoming baseline frame into the combined form the
    /// inner state machine consumes: one instance entry with one field
    /// set, or one coin share.
    fn translate_in(&self, body: &Body) -> Option<Body> {
        let blank = |instance: u8, round: u16| AbaScInst {
            instance,
            round,
            bval: BinValues::empty(),
            aux: Vote::Unknown,
            decided: Vote::Unknown,
        };
        let (flavor, insts, coin_shares) = match body {
            Body::BaseAbaBval { instance, round, value } => {
                let bval = BinValues { zero: !*value, one: *value };
                (self.flavor, vec![AbaScInst { bval, ..blank(*instance, *round) }], vec![])
            }
            Body::BaseAbaAux { instance, round, value } => {
                let aux = Vote::from_bool(*value);
                (self.flavor, vec![AbaScInst { aux, ..blank(*instance, *round) }], vec![])
            }
            Body::BaseAbaDecided { instance, value } => {
                let decided = Vote::from_bool(*value);
                (self.flavor, vec![AbaScInst { decided, ..blank(*instance, 0) }], vec![])
            }
            Body::BaseAbaCoin { instance, round, flavor, share } => {
                (*flavor, vec![], vec![((*instance as u16) << 8 | (*round & 0xff), *share)])
            }
            _ => return None,
        };
        Some(Body::AbaSc { flavor, insts, coin_shares, share_nack: Bitmap::new(self.n) })
    }

    /// Runs one event on the inner state machine, forwarding its timers
    /// and charges; returns the combined packets it wants sent.
    fn drive(
        &mut self,
        acts: &mut Actions,
        event: impl FnOnce(&mut AbaScBatch, &mut Actions),
    ) -> Vec<Body> {
        let mut inner_acts = Actions::new();
        event(&mut self.inner, &mut inner_acts);
        let (sends, timers, charge) = inner_acts.drain();
        acts.charge_us += charge;
        acts.timers.extend(timers);
        sends
    }
}

impl BinaryAgreement for BaselineAbaSet {
    fn set_input(&mut self, instance: usize, value: bool, acts: &mut Actions) {
        let sends = self.drive(acts, |inner, a| inner.set_input(instance, value, a));
        self.translate_out(sends, acts);
    }

    fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions) {
        let Some(translated) = self.translate_in(body) else { return };
        let sends = self.drive(acts, |inner, a| inner.handle(from, &translated, a));
        self.translate_out(sends, acts);
    }

    fn on_timer(&mut self, local_id: u32, acts: &mut Actions) {
        let mut sends = self.drive(acts, |inner, a| inner.on_timer(local_id, a));
        // Periodic retransmission: re-emit each instance's current round
        // plus anything a lagging undecided peer still needs (the inner
        // machine's history floor) — enough for recovery, without
        // re-flooding the whole history window every tick (that would
        // saturate the channel; stale rounds are recovered through the
        // current ones).
        for body in &mut sends {
            let Body::AbaSc { insts, coin_shares, .. } = body else { continue };
            insts.retain(|i| {
                let j = i.instance as usize;
                let cur = self.inner.round_of(j);
                let floor = self.inner.history_floor_of(j).min(cur);
                i.round >= cur.saturating_sub(1).min(floor)
            });
            for inst in insts.iter() {
                for tag in [TAG_BVAL0, TAG_BVAL1, TAG_AUX] {
                    self.emitted.remove(&(inst.instance, inst.round, tag));
                }
                self.emitted.remove(&(inst.instance, 0, TAG_DECIDED));
            }
            for (packed, _) in coin_shares.iter() {
                self.emitted.remove(&((packed >> 8) as u8, packed & 0xff, TAG_COIN));
            }
        }
        self.translate_out(sends, acts);
    }

    fn decided(&self, instance: usize) -> Option<bool> {
        self.inner.decided(instance)
    }

    fn decided_count(&self) -> usize {
        self.inner.decided_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::deal_node_crypto;
    use crate::rbc::tests::run_mesh;
    use rand::SeedableRng;
    use wbft_crypto::CryptoSuite;

    #[test]
    fn baseline_rbc_delivers_with_per_instance_packets() {
        let mut nodes: Vec<BaselineRbcSet> =
            (0..4).map(|i| BaselineRbcSet::new(Params::new(4, i, 2))).collect();
        let vals: Vec<Bytes> = (0..4).map(|i| Bytes::from(format!("b-{i}"))).collect();
        let mut i = 0;
        let sends = run_mesh(
            &mut nodes,
            |n, acts| {
                n.start(vals[i].clone(), acts);
                i += 1;
            },
            |n, from, body, acts| n.handle(from, body, acts),
            |n| n.delivered_count() == 4,
        );
        for node in &nodes {
            for (j, val) in vals.iter().enumerate() {
                assert_eq!(node.delivered(j), Some(val));
            }
        }
        // Channel-access comparison against batched RBC lives at the
        // simulator level (slot coalescing applies there); here we only
        // sanity-check the baseline's per-phase packet count: at least one
        // INIT + echo + ready per node per instance.
        assert!(sends >= 4 * (1 + 4 + 4), "suspiciously few baseline sends: {sends}");
    }

    #[test]
    fn baseline_cbc_delivers_and_proves() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let mut nodes: Vec<BaselineCbcSet> = deal_node_crypto(4, CryptoSuite::light(), &mut rng)
            .into_iter()
            .enumerate()
            .map(|(i, c)| BaselineCbcSet::new(Params::new(4, i, 3), c.cbc_pub, c.cbc_sec))
            .collect();
        let vals: Vec<Bytes> = (0..4).map(|i| Bytes::from(format!("c-{i}"))).collect();
        let mut i = 0;
        run_mesh(
            &mut nodes,
            |n, acts| {
                n.start(vals[i].clone(), acts);
                i += 1;
            },
            |n, from, body, acts| n.handle(from, body, acts),
            |n| n.delivered_count() == 4,
        );
        for node in &nodes {
            for (j, val) in vals.iter().enumerate() {
                assert_eq!(node.delivered(j), Some(val));
                assert!(node.proof(j).is_some());
            }
        }
    }

    #[test]
    fn baseline_prbc_produces_proofs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let mut nodes: Vec<BaselinePrbcSet> = deal_node_crypto(4, CryptoSuite::light(), &mut rng)
            .into_iter()
            .enumerate()
            .map(|(i, c)| BaselinePrbcSet::new(Params::new(4, i, 4), c.prbc_pub, c.prbc_sec))
            .collect();
        let vals: Vec<Bytes> = (0..4).map(|i| Bytes::from(format!("p-{i}"))).collect();
        let mut i = 0;
        run_mesh(
            &mut nodes,
            |n, acts| {
                n.start(vals[i].clone(), acts);
                i += 1;
            },
            |n, from, body, acts| n.handle(from, body, acts),
            |n| n.delivered_count() == 4 && n.proven_count() == 4,
        );
        assert!(nodes[0].proof(2).is_some());
    }

    #[test]
    fn accessors_answer_none_out_of_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(59);
        let c = deal_node_crypto(4, CryptoSuite::light(), &mut rng).remove(0);
        let (p, n) = (Params::new(4, 0, 7), 4);
        assert_eq!(crate::rbc::RbcBatch::new(p).delivered_root(n), None);
        assert_eq!(BaselineRbcSet::new(p).delivered_root(n), None);
        let cbc = BaselineCbcSet::new(p, c.cbc_pub.clone(), c.cbc_sec.clone());
        assert!(cbc.proof(n).is_none() && cbc.delivered(n).is_none());
        let prbc = BaselinePrbcSet::new(p, c.prbc_pub.clone(), c.prbc_sec.clone());
        assert!(prbc.proof(n).is_none() && prbc.delivered(n).is_none());
        let small = crate::cbc::CbcSmallBatch::new(p, c.cbc_pub.clone(), c.cbc_sec.clone());
        assert!(small.proof(n).is_none() && small.delivered_value(n).is_none());
        let batched = crate::cbc::CbcBatch::new(p, c.cbc_pub, c.cbc_sec);
        assert!(batched.proof(n).is_none() && batched.delivered(n).is_none());
        let batched = crate::prbc::PrbcBatch::new(p, c.prbc_pub, c.prbc_sec);
        assert!(batched.proof(n).is_none() && batched.delivered(n).is_none());
    }

    #[test]
    fn baseline_aba_agrees_on_split_inputs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(47);
        let crypto = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        let mut nodes: Vec<BaselineAbaSet> = crypto
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                BaselineAbaSet::new(
                    Params::new(4, i, 5),
                    CoinFlavor::ThreshSig,
                    c.coin_pub,
                    c.coin_sec,
                )
            })
            .collect();
        let inputs = [true, false, true, false];
        let mut inbox: Vec<(usize, Body)> = Vec::new();
        for (i, node) in nodes.iter_mut().enumerate() {
            let mut acts = Actions::new();
            node.set_input(0, inputs[i], &mut acts);
            for b in acts.drain().0 {
                inbox.push((i, b));
            }
        }
        let mut steps = 0;
        while let Some((src, body)) = inbox.pop() {
            steps += 1;
            assert!(steps < 200_000, "baseline ABA did not converge");
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
            if nodes.iter().all(|n| n.decided(0).is_some()) {
                break;
            }
        }
        let first = nodes[0].decided(0);
        assert!(first.is_some());
        assert!(nodes.iter().all(|n| n.decided(0) == first));
    }

    #[test]
    fn baseline_aba_emits_per_item_packets() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(53);
        let crypto = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        let c = crypto.into_iter().next().unwrap();
        let mut node = BaselineAbaSet::new(
            Params::new(4, 0, 6),
            CoinFlavor::ThreshSig,
            c.coin_pub,
            c.coin_sec,
        );
        let mut acts = Actions::new();
        node.set_input(0, true, &mut acts);
        let (sends, _, _) = acts.drain();
        assert!(
            sends.iter().all(|b| matches!(
                b,
                Body::BaseAbaBval { .. }
                    | Body::BaseAbaAux { .. }
                    | Body::BaseAbaCoin { .. }
                    | Body::BaseAbaDecided { .. }
            )),
            "baseline must emit per-item packets, got {sends:?}"
        );
        assert!(
            sends.iter().any(|b| matches!(b, Body::BaseAbaBval { value: true, .. })),
            "initial BVAL expected"
        );
    }
}
