//! Baseline (unbatched) component deployments — the comparison points of
//! the paper's evaluation.
//!
//! Each component instance sends its own per-phase packets: an RBC echo is
//! one frame, a coin share is one frame, and N parallel instances contend
//! for the channel N separate times per phase. Protocol *logic* is
//! identical to the batched components (that is the paper's point — only
//! the packaging changes); the message overhead difference is what Table I
//! and the `*-baseline` rows of Fig. 13 measure.

use crate::aba_sc::AbaScBatch;
use crate::context::{
    Actions, BinaryAgreement, Broadcaster, Params, ProvableBroadcaster, RetxState,
};
use crate::rbc::held;
use crate::share_buf::SigShareBuf;
use bytes::Bytes;
use std::collections::BTreeSet;
use wbft_crypto::hash::Digest32;
use wbft_crypto::thresh_coin::{CoinPublicSet, CoinSecretShare};
use wbft_crypto::thresh_sig::{PublicKeySet, SecretKeyShare, SigShare, ThresholdSignature};
use wbft_net::packets::AbaScInst;
use wbft_net::{BinValues, Bitmap, Body, CoinFlavor, RetransmitPolicy, Vote};

const TIMER_RETX: u32 = 0;

/// Maximum proposal bytes per baseline INITIAL fragment.
const FRAG_BUDGET: usize = crate::rbc::FRAG_BUDGET;

// --------------------------------------------------------------- RBC

#[derive(Debug, Default)]
struct BInst {
    /// Once `value` is held, its digest (the invariant of `rbc::Inst`,
    /// read through [`held`]).
    claimed_root: Option<Digest32>,
    frags: Vec<Option<Bytes>>,
    value: Option<Bytes>,
    echo_roots: Vec<Option<Digest32>>,
    ready_roots: Vec<Option<Digest32>>,
    my_echo: Option<Digest32>,
    my_ready: Option<Digest32>,
    delivered: Option<Bytes>,
}

impl BInst {
    fn new(n: usize) -> Self {
        BInst { echo_roots: vec![None; n], ready_roots: vec![None; n], ..BInst::default() }
    }
}

fn count_root_votes(votes: &[Option<Digest32>]) -> Option<(Digest32, usize)> {
    let mut best: Option<(Digest32, usize)> = None;
    for v in votes.iter().flatten() {
        let c = votes.iter().flatten().filter(|x| *x == v).count();
        if best.map(|(_, bc)| c > bc).unwrap_or(true) {
            best = Some((*v, c));
        }
    }
    best
}

/// N independent per-instance RBCs (unbatched baseline).
#[derive(Debug)]
pub struct BaselineRbcSet {
    p: Params,
    insts: Vec<BInst>,
    retx: RetxState,
    timer_armed: bool,
}

impl BaselineRbcSet {
    /// Creates the set.
    pub fn new(p: Params) -> Self {
        BaselineRbcSet {
            insts: (0..p.n).map(|_| BInst::new(p.n)).collect(),
            retx: RetxState::new(RetransmitPolicy::lora_class(), &p),
            timer_armed: false,
            p,
        }
    }

    /// Delivered root of an instance (baseline PRBC signs this).
    pub fn delivered_root(&self, instance: usize) -> Option<Digest32> {
        let inst = &self.insts[instance];
        debug_assert!(inst.delivered.is_none() || inst.delivered == inst.value);
        inst.delivered.as_ref().and(held(&inst.value, inst.claimed_root)).map(|(_, root)| root)
    }

    fn send_init(&self, instance: usize, acts: &mut Actions) {
        let inst = &self.insts[instance];
        let Some((value, root)) = held(&inst.value, inst.claimed_root) else { return };
        let chunks: Vec<&[u8]> =
            if value.is_empty() { vec![&[][..]] } else { value.chunks(FRAG_BUDGET).collect() };
        let total = chunks.len() as u8;
        for (i, chunk) in chunks.iter().enumerate() {
            acts.send(Body::BaseRbcInit {
                instance: instance as u8,
                frag: i as u8,
                frag_total: total,
                root,
                data: Bytes::copy_from_slice(chunk),
            });
        }
    }

    /// Per-instance transitions; sends are per-instance packets.
    fn advance(&mut self, j: usize, acts: &mut Actions) {
        let quorum = self.p.quorum();
        let f1 = self.p.f + 1;
        let me = self.p.me;
        let inst = &mut self.insts[j];
        if inst.my_ready.is_none() {
            let from_echo = count_root_votes(&inst.echo_roots)
                .filter(|(_, c)| *c >= quorum)
                .map(|(r, _)| r);
            let from_ready = count_root_votes(&inst.ready_roots)
                .filter(|(_, c)| *c >= f1)
                .map(|(r, _)| r);
            if let Some(root) = from_echo.or(from_ready) {
                inst.my_ready = Some(root);
                inst.ready_roots[me] = Some(root);
                acts.send(Body::BaseRbcReady { instance: j as u8, root });
            }
        }
        let inst = &mut self.insts[j];
        if inst.delivered.is_none() {
            if let Some((root, c)) = count_root_votes(&inst.ready_roots) {
                if c >= quorum
                    && held(&inst.value, inst.claimed_root).is_some_and(|(_, r)| r == root)
                {
                    inst.delivered = inst.value.clone();
                }
            }
        }
    }

    fn handle_init(
        &mut self,
        instance: usize,
        frag: usize,
        frag_total: usize,
        root: Digest32,
        data: &Bytes,
        acts: &mut Actions,
    ) {
        if instance >= self.p.n || frag_total == 0 || frag >= frag_total || frag_total > 64 {
            return;
        }
        let me = self.p.me;
        let inst = &mut self.insts[instance];
        if inst.value.is_some() {
            return;
        }
        if inst.claimed_root.is_none() {
            inst.claimed_root = Some(root);
        }
        if inst.claimed_root != Some(root) {
            return;
        }
        if inst.frags.len() != frag_total {
            inst.frags = vec![None; frag_total];
        }
        inst.frags[frag] = Some(data.clone());
        if inst.frags.iter().all(Option::is_some) {
            let mut value = Vec::new();
            for f in inst.frags.iter().flatten() {
                value.extend_from_slice(f);
            }
            let value = Bytes::from(value);
            if Digest32::of(&value) == root {
                inst.value = Some(value);
                if inst.my_echo.is_none() {
                    inst.my_echo = Some(root);
                    inst.echo_roots[me] = Some(root);
                    acts.send(Body::BaseRbcEcho { instance: instance as u8, root });
                }
            } else {
                inst.frags.clear();
                inst.claimed_root = None;
            }
        }
        self.advance(instance, acts);
    }
}

impl Broadcaster for BaselineRbcSet {
    fn start(&mut self, my_value: Bytes, acts: &mut Actions) {
        let me = self.p.me;
        let root = Digest32::of(&my_value);
        {
            let inst = &mut self.insts[me];
            inst.claimed_root = Some(root);
            inst.value = Some(my_value);
            inst.my_echo = Some(root);
            inst.echo_roots[me] = Some(root);
        }
        self.send_init(me, acts);
        acts.send(Body::BaseRbcEcho { instance: me as u8, root });
        if !self.timer_armed {
            self.timer_armed = true;
            let d = self.retx.next_delay();
            acts.timer(d, TIMER_RETX);
        }
    }

    fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions) {
        if from >= self.p.n {
            return;
        }
        match body {
            Body::BaseRbcInit { instance, frag, frag_total, root, data } => {
                self.handle_init(
                    *instance as usize,
                    *frag as usize,
                    *frag_total as usize,
                    *root,
                    data,
                    acts,
                );
            }
            Body::BaseRbcEcho { instance, root } => {
                let j = *instance as usize;
                if j < self.p.n {
                    if self.insts[j].echo_roots[from].is_none() {
                        self.insts[j].echo_roots[from] = Some(*root);
                    }
                    if self.insts[j].claimed_root.is_none() {
                        self.insts[j].claimed_root = Some(*root);
                    }
                    // A redundant echo for a delivered instance = the peer
                    // is still working on it; our READY may be lost.
                    if self.insts[j].delivered.is_some() {
                        self.retx.peer_behind = true;
                    }
                    self.advance(j, acts);
                }
            }
            Body::BaseRbcReady { instance, root } => {
                let j = *instance as usize;
                if j < self.p.n {
                    if self.insts[j].ready_roots[from].is_none() {
                        self.insts[j].ready_roots[from] = Some(*root);
                    }
                    self.advance(j, acts);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, local_id: u32, acts: &mut Actions) {
        if local_id != TIMER_RETX {
            return;
        }
        let complete = self.delivered_count() == self.p.n;
        if self.retx.should_send(complete) {
            // Re-send per-instance state for everything not yet complete.
            for j in 0..self.p.n {
                let inst = &self.insts[j];
                if inst.delivered.is_some() && !self.retx.peer_behind {
                    continue;
                }
                if j == self.p.me || inst.value.is_some() {
                    self.send_init(j, acts);
                }
                if let Some(root) = inst.my_echo {
                    acts.send(Body::BaseRbcEcho { instance: j as u8, root });
                }
                if let Some(root) = inst.my_ready {
                    acts.send(Body::BaseRbcReady { instance: j as u8, root });
                }
            }
            self.retx.peer_behind = false;
        }
        let d = self.retx.next_delay();
        acts.timer(d, TIMER_RETX);
    }

    fn delivered(&self, instance: usize) -> Option<&Bytes> {
        self.insts.get(instance).and_then(|i| i.delivered.as_ref())
    }

    fn delivered_count(&self) -> usize {
        self.insts.iter().filter(|i| i.delivered.is_some()).count()
    }
}

// --------------------------------------------------------------- CBC

/// N independent per-instance CBCs (unbatched baseline).
#[derive(Debug)]
pub struct BaselineCbcSet {
    p: Params,
    keys: PublicKeySet,
    secret: SecretKeyShare,
    insts: Vec<BCbcInst>,
    retx: RetxState,
    timer_armed: bool,
}

#[derive(Debug, Default)]
struct BCbcInst {
    claimed_root: Option<Digest32>,
    frags: Vec<Option<Bytes>>,
    value: Option<Bytes>,
    /// This node's echo share over `claimed_root`, signed once when the
    /// value arrived and re-sent as is on every retransmission tick (the
    /// root cannot change once the value is held).
    my_share: Option<SigShare>,
    /// Buffered echo shares, batch-verified at quorum (see `share_buf`).
    shares: SigShareBuf,
    finish: Option<ThresholdSignature>,
    delivered: bool,
}

fn cbc_echo_msg(session: u64, instance: usize, root: &Digest32) -> Vec<u8> {
    let mut m = Vec::with_capacity(64);
    m.extend_from_slice(b"wbft/cbc/echo");
    m.extend_from_slice(&session.to_le_bytes());
    m.extend_from_slice(&(instance as u64).to_le_bytes());
    m.extend_from_slice(root.as_bytes());
    m
}

impl BaselineCbcSet {
    /// Creates the set over the `(2f, n)` CBC key set.
    pub fn new(p: Params, keys: PublicKeySet, secret: SecretKeyShare) -> Self {
        keys.precompute();
        BaselineCbcSet {
            insts: (0..p.n).map(|_| BCbcInst::default()).collect(),
            retx: RetxState::new(RetransmitPolicy::lora_class(), &p),
            timer_armed: false,
            p,
            keys,
            secret,
        }
    }

    /// Quorum certificate of a delivered instance.
    pub fn proof(&self, instance: usize) -> Option<&ThresholdSignature> {
        self.insts[instance].finish.as_ref().filter(|_| self.insts[instance].delivered)
    }

    fn send_init(&self, instance: usize, acts: &mut Actions) {
        let inst = &self.insts[instance];
        let Some((value, root)) = held(&inst.value, inst.claimed_root) else { return };
        let chunks: Vec<&[u8]> =
            if value.is_empty() { vec![&[][..]] } else { value.chunks(FRAG_BUDGET).collect() };
        let total = chunks.len() as u8;
        for (i, chunk) in chunks.iter().enumerate() {
            acts.send(Body::BaseRbcInit {
                instance: instance as u8,
                frag: i as u8,
                frag_total: total,
                root,
                data: Bytes::copy_from_slice(chunk),
            });
        }
    }

    fn send_echo(&mut self, instance: usize, acts: &mut Actions) {
        let session = self.p.session;
        let inst = &mut self.insts[instance];
        let Some(root) = inst.claimed_root else { return };
        if inst.my_share.is_some() || inst.value.is_none() {
            return;
        }
        acts.charge(self.keys.profile().sign_share_us);
        let share = self.secret.sign_share(&cbc_echo_msg(session, instance, &root));
        inst.my_share = Some(share);
        acts.send(Body::BaseCbcEcho { instance: instance as u8, root, share });
        if instance == self.p.me {
            self.record_share(instance, share, acts, true);
        }
    }

    fn record_share(&mut self, instance: usize, share: SigShare, acts: &mut Actions, own: bool) {
        if instance != self.p.me || self.insts[instance].finish.is_some() {
            return;
        }
        let Some(root) = self.insts[instance].claimed_root else { return };
        if !self.insts[instance].shares.insert(share, self.p.n) {
            return;
        }
        if !own {
            acts.charge(self.keys.profile().verify_share_us);
        }
        let quorum = self.p.quorum();
        let combine_cost = self.keys.profile().combine_us;
        let msg = cbc_echo_msg(self.p.session, instance, &root);
        if self.insts[instance].shares.settle(&self.keys, &msg, quorum) {
            acts.charge(combine_cost);
            if let Ok(sig) = self.keys.combine(self.insts[instance].shares.shares()) {
                let inst = &mut self.insts[instance];
                inst.finish = Some(sig);
                inst.delivered = true;
                acts.send(Body::BaseCbcFinish { instance: instance as u8, root, sig });
            }
        }
    }
}

impl Broadcaster for BaselineCbcSet {
    fn start(&mut self, my_value: Bytes, acts: &mut Actions) {
        let me = self.p.me;
        let root = Digest32::of(&my_value);
        {
            let inst = &mut self.insts[me];
            inst.claimed_root = Some(root);
            inst.value = Some(my_value);
        }
        self.send_init(me, acts);
        self.send_echo(me, acts);
        if !self.timer_armed {
            self.timer_armed = true;
            let d = self.retx.next_delay();
            acts.timer(d, TIMER_RETX);
        }
    }

    fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions) {
        if from >= self.p.n {
            return;
        }
        match body {
            Body::BaseRbcInit { instance, frag, frag_total, root, data } => {
                let j = *instance as usize;
                if j >= self.p.n
                    || *frag_total == 0
                    || frag >= frag_total
                    || *frag_total > 64
                {
                    return;
                }
                let inst = &mut self.insts[j];
                if inst.value.is_some() {
                    return;
                }
                if inst.claimed_root.is_none() {
                    inst.claimed_root = Some(*root);
                }
                if inst.claimed_root != Some(*root) {
                    return;
                }
                if inst.frags.len() != *frag_total as usize {
                    inst.frags = vec![None; *frag_total as usize];
                }
                inst.frags[*frag as usize] = Some(data.clone());
                if inst.frags.iter().all(Option::is_some) {
                    let mut value = Vec::new();
                    for f in inst.frags.iter().flatten() {
                        value.extend_from_slice(f);
                    }
                    let value = Bytes::from(value);
                    if Digest32::of(&value) == *root {
                        inst.value = Some(value);
                        self.send_echo(j, acts);
                    } else {
                        inst.frags.clear();
                        inst.claimed_root = None;
                    }
                }
            }
            Body::BaseCbcEcho { instance, root, share } => {
                let j = *instance as usize;
                if j < self.p.n {
                    if self.insts[j].claimed_root.is_none() {
                        self.insts[j].claimed_root = Some(*root);
                    }
                    self.record_share(j, *share, acts, false);
                }
            }
            Body::BaseCbcFinish { instance, root, sig } => {
                let j = *instance as usize;
                if j < self.p.n && self.insts[j].finish.is_none() {
                    acts.charge(self.keys.profile().verify_signature_us);
                    let msg = cbc_echo_msg(self.p.session, j, root);
                    if self.keys.verify(&msg, sig).is_ok() {
                        let inst = &mut self.insts[j];
                        if inst.claimed_root.is_none() {
                            inst.claimed_root = Some(*root);
                        }
                        inst.finish = Some(*sig);
                        if inst.value.is_some() {
                            inst.delivered = true;
                        }
                    }
                }
            }
            _ => {}
        }
        // Deferred delivery when FINISH preceded the value.
        for inst in &mut self.insts {
            if inst.finish.is_some() && inst.value.is_some() {
                inst.delivered = true;
            }
        }
    }

    fn on_timer(&mut self, local_id: u32, acts: &mut Actions) {
        if local_id != TIMER_RETX {
            return;
        }
        let complete = self.delivered_count() == self.p.n;
        if self.retx.should_send(complete) {
            for j in 0..self.p.n {
                let inst = &self.insts[j];
                if inst.delivered {
                    continue;
                }
                if j == self.p.me {
                    self.send_init(j, acts);
                }
                if let (Some(share), Some(root)) = (inst.my_share, inst.claimed_root) {
                    acts.send(Body::BaseCbcEcho { instance: j as u8, root, share });
                }
            }
            // Re-broadcast any FINISH we hold (peers may have lost it).
            for j in 0..self.p.n {
                if let (Some(sig), Some(root)) =
                    (&self.insts[j].finish, self.insts[j].claimed_root)
                {
                    acts.send(Body::BaseCbcFinish { instance: j as u8, root, sig: *sig });
                }
            }
            self.retx.peer_behind = false;
        }
        let d = self.retx.next_delay();
        acts.timer(d, TIMER_RETX);
    }

    fn delivered(&self, instance: usize) -> Option<&Bytes> {
        let inst = self.insts.get(instance)?;
        if inst.delivered {
            inst.value.as_ref()
        } else {
            None
        }
    }

    fn delivered_count(&self) -> usize {
        self.insts.iter().filter(|i| i.delivered).count()
    }
}

// --------------------------------------------------------------- PRBC

/// N independent per-instance PRBCs (baseline RBC + per-instance DONE).
#[derive(Debug)]
pub struct BaselinePrbcSet {
    rbc: BaselineRbcSet,
    keys: PublicKeySet,
    secret: SecretKeyShare,
    /// This node's DONE share per instance, signed once on delivery and
    /// re-sent as is on every retransmission tick.
    my_done: Vec<Option<SigShare>>,
    /// Buffered DONE shares per instance, batch-verified at quorum.
    shares: Vec<SigShareBuf>,
    proofs: Vec<Option<ThresholdSignature>>,
}

fn prbc_done_msg(session: u64, instance: usize, root: &Digest32) -> Vec<u8> {
    let mut m = Vec::with_capacity(64);
    m.extend_from_slice(b"wbft/prbc/done");
    m.extend_from_slice(&session.to_le_bytes());
    m.extend_from_slice(&(instance as u64).to_le_bytes());
    m.extend_from_slice(root.as_bytes());
    m
}

impl BaselinePrbcSet {
    /// Creates the set over the `(f, n)` proof key set.
    pub fn new(p: Params, keys: PublicKeySet, secret: SecretKeyShare) -> Self {
        keys.precompute();
        BaselinePrbcSet {
            rbc: BaselineRbcSet::new(p),
            my_done: vec![None; p.n],
            shares: vec![SigShareBuf::default(); p.n],
            proofs: vec![None; p.n],
            keys,
            secret,
        }
    }

    fn p(&self) -> &Params {
        &self.rbc.p
    }

    /// Delivery proof of an instance.
    pub fn proof(&self, instance: usize) -> Option<&ThresholdSignature> {
        self.proofs[instance].as_ref()
    }

    /// Instances with a completed proof.
    pub fn proven_count(&self) -> usize {
        self.proofs.iter().filter(|p| p.is_some()).count()
    }

    fn sign_new_done(&mut self, acts: &mut Actions) {
        for j in 0..self.p().n {
            if self.my_done[j].is_some() || self.rbc.delivered(j).is_none() {
                continue;
            }
            let Some(root) = self.rbc.delivered_root(j) else { continue };
            acts.charge(self.keys.profile().sign_share_us);
            let share = self.secret.sign_share(&prbc_done_msg(self.p().session, j, &root));
            self.my_done[j] = Some(share);
            acts.send(Body::BasePrbcDone { instance: j as u8, root, share });
            self.record_share(j, share, acts, true);
        }
    }

    fn record_share(&mut self, instance: usize, share: SigShare, acts: &mut Actions, own: bool) {
        if instance >= self.p().n || self.proofs[instance].is_some() {
            return;
        }
        let Some(root) = self.rbc.delivered_root(instance) else { return };
        let n = self.p().n;
        if !self.shares[instance].insert(share, n) {
            return;
        }
        if !own {
            acts.charge(self.keys.profile().verify_share_us);
        }
        let need = self.p().f + 1;
        let msg = prbc_done_msg(self.p().session, instance, &root);
        if self.shares[instance].settle(&self.keys, &msg, need) {
            acts.charge(self.keys.profile().combine_us);
            if let Ok(sig) = self.keys.combine(self.shares[instance].shares()) {
                self.proofs[instance] = Some(sig);
            }
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
                self.record_share(*instance as usize, *share, acts, false);
            }
            _ => self.rbc.handle(from, body, acts),
        }
        self.sign_new_done(acts);
    }

    fn on_timer(&mut self, local_id: u32, acts: &mut Actions) {
        self.rbc.on_timer(local_id, acts);
        // Piggyback DONE retransmission on the RBC tick.
        for j in 0..self.p().n {
            if let (Some(share), None) = (self.my_done[j], &self.proofs[j]) {
                if let Some(root) = self.rbc.delivered_root(j) {
                    acts.send(Body::BasePrbcDone { instance: j as u8, root, share });
                }
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
        coin_sec: CoinSecretShare,
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
            for inst in insts {
                let key = (inst.instance, inst.round, TAG_BVAL0);
                if inst.bval.zero && self.emitted.insert(key) {
                    acts.send(Body::BaseAbaBval {
                        instance: inst.instance,
                        round: inst.round,
                        value: false,
                    });
                }
                let key = (inst.instance, inst.round, TAG_BVAL1);
                if inst.bval.one && self.emitted.insert(key) {
                    acts.send(Body::BaseAbaBval {
                        instance: inst.instance,
                        round: inst.round,
                        value: true,
                    });
                }
                if let Some(v) = inst.aux.as_bool() {
                    let key = (inst.instance, inst.round, TAG_AUX);
                    if self.emitted.insert(key) {
                        acts.send(Body::BaseAbaAux {
                            instance: inst.instance,
                            round: inst.round,
                            value: v,
                        });
                    }
                }
                if let Some(v) = inst.decided.as_bool() {
                    let key = (inst.instance, 0, TAG_DECIDED);
                    if self.emitted.insert(key) {
                        acts.send(Body::BaseAbaDecided { instance: inst.instance, value: v });
                    }
                }
            }
            for (packed, share) in coin_shares {
                let domain = (packed >> 8) as u8;
                let round = packed & 0xff;
                let key = (domain, round, TAG_COIN);
                if self.emitted.insert(key) {
                    acts.send(Body::BaseAbaCoin {
                        instance: domain,
                        round,
                        flavor: self.flavor,
                        share,
                    });
                }
            }
        }
    }

    /// Translates an incoming baseline frame into the combined form the
    /// inner state machine consumes.
    fn translate_in(&self, body: &Body) -> Option<Body> {
        match body {
            Body::BaseAbaBval { instance, round, value } => Some(Body::AbaSc {
                flavor: self.flavor,
                insts: vec![AbaScInst {
                    instance: *instance,
                    round: *round,
                    bval: {
                        let mut b = BinValues::empty();
                        b.insert(*value);
                        b
                    },
                    aux: Vote::Unknown,
                    decided: Vote::Unknown,
                }],
                coin_shares: vec![],
                share_nack: Bitmap::new(self.n),
            }),
            Body::BaseAbaAux { instance, round, value } => Some(Body::AbaSc {
                flavor: self.flavor,
                insts: vec![AbaScInst {
                    instance: *instance,
                    round: *round,
                    bval: BinValues::empty(),
                    aux: Vote::from_bool(*value),
                    decided: Vote::Unknown,
                }],
                coin_shares: vec![],
                share_nack: Bitmap::new(self.n),
            }),
            Body::BaseAbaDecided { instance, value } => Some(Body::AbaSc {
                flavor: self.flavor,
                insts: vec![AbaScInst {
                    instance: *instance,
                    round: 0,
                    bval: BinValues::empty(),
                    aux: Vote::Unknown,
                    decided: Vote::from_bool(*value),
                }],
                coin_shares: vec![],
                share_nack: Bitmap::new(self.n),
            }),
            Body::BaseAbaCoin { instance, round, flavor, share } => Some(Body::AbaSc {
                flavor: *flavor,
                insts: vec![],
                coin_shares: vec![((*instance as u16) << 8 | (*round & 0xff), *share)],
                share_nack: Bitmap::new(self.n),
            }),
            _ => None,
        }
    }

    fn relay(&mut self, inner_acts: &mut Actions, acts: &mut Actions) {
        let (sends, timers, charge) = inner_acts.drain();
        acts.charge_us += charge;
        for t in timers {
            acts.timers.push(t);
        }
        self.translate_out(sends, acts);
    }
}

impl BinaryAgreement for BaselineAbaSet {
    fn set_input(&mut self, instance: usize, value: bool, acts: &mut Actions) {
        let mut inner_acts = Actions::new();
        self.inner.set_input(instance, value, &mut inner_acts);
        self.relay(&mut inner_acts, acts);
    }

    fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions) {
        let Some(translated) = self.translate_in(body) else { return };
        let mut inner_acts = Actions::new();
        self.inner.handle(from, &translated, &mut inner_acts);
        self.relay(&mut inner_acts, acts);
    }

    fn on_timer(&mut self, local_id: u32, acts: &mut Actions) {
        // Periodic retransmission: re-emit only each instance's *current*
        // round (re-flooding the whole history window would saturate the
        // channel — stale rounds are recovered through the current ones).
        let mut inner_acts = Actions::new();
        self.inner.on_timer(local_id, &mut inner_acts);
        let (sends, timers, charge) = inner_acts.drain();
        acts.charge_us += charge;
        for t in timers {
            acts.timers.push(t);
        }
        let mut current: Vec<Body> = Vec::new();
        for body in sends {
            let Body::AbaSc { flavor, insts, coin_shares, share_nack } = body else {
                continue;
            };
            // Re-emit each instance's current round plus anything a lagging
            // undecided peer still needs (the inner machine's history
            // floor) — enough for recovery, without re-flooding the whole
            // history window every tick.
            let filtered: Vec<_> = insts
                .into_iter()
                .filter(|i| {
                    let j = i.instance as usize;
                    let cur = self.inner.round_of(j);
                    let floor = self.inner.history_floor_of(j).min(cur);
                    i.round >= cur.saturating_sub(1).min(floor)
                })
                .collect();
            for inst in &filtered {
                self.emitted.remove(&(inst.instance, inst.round, TAG_BVAL0));
                self.emitted.remove(&(inst.instance, inst.round, TAG_BVAL1));
                self.emitted.remove(&(inst.instance, inst.round, TAG_AUX));
                self.emitted.remove(&(inst.instance, 0, TAG_DECIDED));
            }
            for (packed, _) in &coin_shares {
                self.emitted.remove(&((packed >> 8) as u8, packed & 0xff, TAG_COIN));
            }
            current.push(Body::AbaSc { flavor, insts: filtered, coin_shares, share_nack });
        }
        self.translate_out(current, acts);
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
