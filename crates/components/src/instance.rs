//! The per-instance logic of the components — once, for every deployment.
//!
//! ConsensusBatcher changes how N parallel component instances are
//! *packaged* into channel accesses, never what an instance does (paper
//! §IV, Fig. 4–6). So the instance state machines live here and know
//! nothing about packets: the INITIAL phase of N instances ([`Initial`],
//! over one proposal [`Assembler`] each), which RBC, PRBC and CBC share; a
//! Bracha [`VoteTally`]; the certificate phase ([`Certificates`], a
//! threshold-share [`Collector`] per instance), which CBC, CBC-small and
//! PRBC share; and the decided-claim gossip ([`Decisions`]), which ABA-SC
//! and ABA-LC share. The components drive them and add only the combined
//! packet a transition goes out in, the evidence of loss they report and
//! how they answer a peer's NACK; when and in how many frames a packet goes
//! out is the shared `Batcher`.

use crate::context::{Actions, Batcher, Packing, Params};
use crate::share_buf::{Collector, Quorum, Recorded};
use bytes::Bytes;
use std::ops::Index;
use wbft_crypto::hash::Digest32;
use wbft_crypto::thresh_sig::{PublicKeySet, SecretKeyShare, SigShare, ThresholdSignature};
use wbft_net::init_nack::asked;
use wbft_net::{Bitmap, Body, InitNack, Vote};

/// Maximum value bytes carried per INITIAL fragment (fits a LoRa frame
/// after header, root, NACK and signature).
pub const FRAG_BUDGET: usize = 150;

/// Most INITIAL fragments one value is split into — and reassembled from.
pub const MAX_FRAGS: usize = 64;

/// The largest value a broadcast instance can carry.
pub const MAX_VALUE_BYTES: usize = MAX_FRAGS * FRAG_BUDGET;

// --------------------------------------------------------- assembler

/// One INITIAL fragment of a held value, ready for whichever packet the
/// deployment ships it in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Fragment {
    pub frag: u8,
    pub frag_total: u8,
    pub root: Digest32,
    pub data: Bytes,
}

/// What [`Assembler::accept`] did with a fragment.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Accepted {
    /// Malformed, redundant (value already held) or for another root than
    /// the one claimed: nothing changed.
    Refused,
    /// Buffered — or it completed an assembly that did not hash to the
    /// claimed root, which dropped buffer and claim alike.
    Buffered,
    /// The value is now held, under this root.
    Assembled(Digest32),
}

/// Proposal side of one instance: the claimed root, the fragment buffer
/// and the digest-verified value.
#[derive(Debug, Default)]
pub(crate) struct Assembler {
    /// Root claimed by the first INITIAL fragment seen, or by evidence that
    /// honest nodes hold the value under it (`claim`) — never by a root a
    /// peer merely names, which could lock the honest fragments out. Once
    /// `value` is held this *is* its digest and no longer changes: a value
    /// is stored only after it hashed to this root (`accept`) or together
    /// with the root just computed from it (`hold`), and the root is reset
    /// only while no value is held.
    claimed_root: Option<Digest32>,
    /// Fragment buffer (sized on first fragment).
    frags: Vec<Option<Bytes>>,
    value: Option<Bytes>,
}

impl Assembler {
    /// Holds this node's own value; returns its root.
    pub(crate) fn hold(&mut self, value: Bytes) -> Digest32 {
        let root = Digest32::of(&value);
        self.claimed_root = Some(root);
        self.value = Some(value);
        root
    }

    /// Learns the instance's root from evidence that honest nodes hold the
    /// value under it — a CBC certificate that verified under it, or this
    /// node's READY on it: fragments buffered under another root (an
    /// equivocator's or a forger's) are dropped. Nothing changes once a
    /// value is held.
    pub(crate) fn claim(&mut self, root: Digest32) {
        if self.value.is_none() && self.claimed_root != Some(root) {
            self.claimed_root = Some(root);
            self.frags.clear();
        }
    }

    pub(crate) fn claimed_root(&self) -> Option<Digest32> {
        self.claimed_root
    }

    pub(crate) fn value(&self) -> Option<&Bytes> {
        self.value.as_ref()
    }

    /// The held value with its digest — read off `claimed_root`, which the
    /// value was checked against when it was stored, not hashed again.
    pub(crate) fn held(&self) -> Option<(&Bytes, Digest32)> {
        let held = self.value.as_ref().zip(self.claimed_root);
        debug_assert!(held.is_none_or(|(v, root)| Digest32::of(v) == root));
        held
    }

    /// Takes one INITIAL fragment.
    pub(crate) fn accept(
        &mut self,
        frag: usize,
        frag_total: usize,
        root: Digest32,
        data: &Bytes,
    ) -> Accepted {
        if frag_total == 0 || frag >= frag_total || frag_total > MAX_FRAGS || self.value.is_some() {
            return Accepted::Refused;
        }
        // An equivocating proposer: stick with the first claim.
        if *self.claimed_root.get_or_insert(root) != root {
            return Accepted::Refused;
        }
        if self.frags.len() != frag_total {
            self.frags = vec![None; frag_total];
        }
        self.frags[frag] = Some(data.clone());
        if !self.frags.iter().all(Option::is_some) {
            return Accepted::Buffered;
        }
        let mut value = Vec::new();
        for f in self.frags.iter().flatten() {
            value.extend_from_slice(f);
        }
        let value = Bytes::from(value);
        if Digest32::of(&value) == root {
            self.value = Some(value);
            Accepted::Assembled(root)
        } else {
            // Corrupt assembly (mismatched fragments from an equivocator):
            // reset, so the instance is NACKed and served afresh.
            self.frags.clear();
            self.claimed_root = None;
            Accepted::Buffered
        }
    }

    /// The INITIAL fragment request (`wbft_net::init_nack`) this node has
    /// evidence for, `None` when it holds the value or has none. A bit per
    /// fragment of the split it is assembling, set where one is asked for;
    /// the empty request asks for all of them.
    ///
    /// With `lost` — the caller saw the whole value aired — every missing
    /// fragment is asked for, all of them while none is held (nothing
    /// buffered yet, or a mismatched assembly just reset). Without it only
    /// the gaps below the highest fragment held are: fragments air in
    /// ascending order, so a missing one above it may still be on its way.
    pub(crate) fn request(&self, lost: bool) -> Option<Bitmap> {
        if self.value.is_some() {
            return None;
        }
        let end = if lost {
            self.frags.len()
        } else {
            self.frags.iter().rposition(Option::is_some)?
        };
        let mut request = Bitmap::new(self.frags.len());
        for (i, frag) in self.frags[..end].iter().enumerate() {
            request.set(i, frag.is_none());
        }
        (lost || request.count() > 0).then_some(request)
    }

    /// Whether an INITIAL fragment heard on the air is fragment `frag` of
    /// the value this node holds, as this node would air it.
    pub(crate) fn airs(&self, frag: usize, frag_total: usize, root: Digest32, data: &Bytes) -> bool {
        let (Some((value, held)), Some(total)) = (self.held(), self.frag_count()) else {
            return false;
        };
        held == root
            && total == frag_total
            && frag < total
            && value.get(frag * FRAG_BUDGET..value.len().min((frag + 1) * FRAG_BUDGET))
                == Some(&data[..])
    }

    /// How many INITIAL fragments the held value splits into; `None` when
    /// no value is held or it is too large for any receiver to reassemble.
    pub(crate) fn frag_count(&self) -> Option<usize> {
        let count = self.value.as_ref()?.len().div_ceil(FRAG_BUDGET).max(1);
        (count <= MAX_FRAGS).then_some(count)
    }

    /// The held value split for the INITIAL phase; nothing when no value
    /// is held or it is too large for any receiver to reassemble.
    pub(crate) fn fragments(&self) -> Vec<Fragment> {
        let (Some((value, root)), Some(frag_total)) = (self.held(), self.frag_count()) else {
            return Vec::new();
        };
        (0..frag_total)
            .map(|i| Fragment {
                frag: i as u8,
                frag_total: frag_total as u8,
                root,
                data: value.slice(i * FRAG_BUDGET..value.len().min((i + 1) * FRAG_BUDGET)),
            })
            .collect()
    }
}

// ----------------------------------------------------------- initial

/// Builds the packet an INITIAL fragment of an instance airs in, with the
/// sender's INITIAL NACK: `Body::RbcInit` or `Body::CbcInit`.
pub(crate) type InitBody = fn(u8, Fragment, InitNack) -> Body;

/// The INITIAL phase of N broadcast instances, shared by RBC, PRBC and CBC:
/// per instance the proposal [`Assembler`], whether the value was heard
/// aired whole, and the fragments peers asked this node to re-air.
///
/// A fragment is re-aired only on evidence it was lost:
/// - **Asking** ([`Initial::init_nack`]). Once the component reported the
///   value aired whole ([`Initial::aired`]: RBC on a peer's vote, CBC on
///   an echo share or a certificate), a node asks for
///   every fragment it lacks — all of them, the empty request, while it
///   holds none. Before that it asks only for gaps below the highest
///   fragment it holds, as fragments air in ascending order. A root some
///   packet names is no evidence.
/// - **Serving** ([`Initial::note`], [`Initial::air_due`]). The requests
///   for one instance are unioned, so one re-air at the next tick answers
///   every peer that lacks the fragment. A fragment heard from another node
///   — the one this node would air — is no longer due here
///   ([`Initial::heard`]); heard from the instance's proposer, this node's
///   copy still waiting in its transmit queue is withdrawn too
///   (`Actions::withdraw`), as that airing reached the receivers the copy
///   would reach. A relay's airing withdraws nothing. That is a choice of
///   timing, not of liveness: in a single-hop cluster any holder's airing
///   reaches the same receivers, and with the engine's epoch retirement
///   window unbounded the lossy multi-hop grid completes every run under
///   either rule. With the window as shipped, withdrawing on every
///   holder's airing was faster on the single-hop benchmark but completed
///   fewer runs of that grid than no withdrawal, and reversed
///   `tests/pipeline.rs`'s one-seed depth ranking; the proposer-only rule
///   keeps both. A requester that missed the airing asks again.
/// - **Taking.** Which fragments an instance takes is decided by its first
///   fragment, until the component claims a root it has evidence honest
///   nodes hold ([`Initial::claim`]); never by a root a peer merely names.
#[derive(Debug)]
pub(crate) struct Initial {
    insts: Vec<InitInst>,
    /// The packet a fragment airs in.
    body: InitBody,
}

/// One instance of [`Initial`].
#[derive(Debug, Default)]
struct InitInst {
    asm: Assembler,
    /// The value was heard aired whole: a missing fragment was lost.
    aired: bool,
    /// Bit `f`: some peer asked for fragment `f`, and it has not been
    /// heard on the air since.
    due: u64,
}

impl Initial {
    /// N instances whose fragments air in the packets `body` builds.
    pub(crate) fn new(n: usize, body: InitBody) -> Self {
        Initial { insts: (0..n).map(|_| InitInst::default()).collect(), body }
    }

    pub(crate) fn get(&self, instance: usize) -> Option<&Assembler> {
        self.insts.get(instance).map(|i| &i.asm)
    }

    /// Holds this node's own value of `instance`; returns its root.
    pub(crate) fn hold(&mut self, instance: usize, value: Bytes) -> Digest32 {
        self.insts[instance].asm.hold(value)
    }

    /// See [`Assembler::claim`].
    pub(crate) fn claim(&mut self, instance: usize, root: Digest32) {
        self.insts[instance].asm.claim(root);
    }

    /// The component heard evidence that `instance`'s value was aired whole.
    pub(crate) fn aired(&mut self, instance: usize) {
        if let Some(inst) = self.insts.get_mut(instance) {
            inst.aired = true;
        }
    }

    /// This node's INITIAL NACK: the fragments it has evidence were lost.
    pub(crate) fn init_nack(&self) -> InitNack {
        let mut nack = InitNack::new(self.insts.len());
        for (j, inst) in self.insts.iter().enumerate() {
            if let Some(request) = inst.asm.request(inst.aired) {
                nack.ask(j, request);
            }
        }
        nack
    }

    /// Notes a peer's INITIAL NACK against the values this node holds: the
    /// fragments asked for are due, and `out` learns the peer lacks them.
    pub(crate) fn note(&mut self, init_nack: &InitNack, out: &mut Batcher) {
        if init_nack.len() != self.insts.len() {
            return;
        }
        for (j, request) in init_nack.iter() {
            let Some(inst) = self.insts.get_mut(j) else { continue };
            let asked = inst.asm.frag_count().map_or(0, |total| asked(request, total).to_raw());
            if asked != 0 {
                inst.due |= asked;
                out.peer_lacks(j, 0);
            }
        }
    }

    /// Takes a fragment heard from `from` on the air. One this node would
    /// air itself is no longer due here, also when the assembler refuses
    /// it; heard from the instance's proposer, its queued copy is withdrawn.
    pub(crate) fn heard(
        &mut self,
        from: usize,
        instance: usize,
        fragment: Fragment,
        acts: &mut Actions,
    ) -> Accepted {
        let Some(inst) = self.insts.get_mut(instance) else { return Accepted::Refused };
        let (frag, total) = (usize::from(fragment.frag), usize::from(fragment.frag_total));
        let airs = inst.asm.airs(frag, total, fragment.root, &fragment.data);
        let accepted = inst.asm.accept(frag, total, fragment.root, &fragment.data);
        if airs {
            inst.due &= !1u64.checked_shl(frag as u32).unwrap_or(0);
        }
        if airs && from == instance {
            acts.withdraw((self.body)(instance as u8, fragment, InitNack::new(0)).slot_key());
        }
        accepted
    }

    /// Airs every fragment of `instance`'s held value.
    pub(crate) fn air(&self, instance: usize, acts: &mut Actions) {
        self.air_with(&self.init_nack(), instance, u64::MAX, acts);
    }

    /// Airs the fragments peers asked for since the last call.
    pub(crate) fn air_due(&mut self, acts: &mut Actions) {
        let init_nack = self.init_nack();
        for j in 0..self.insts.len() {
            let due = std::mem::take(&mut self.insts[j].due);
            self.air_with(&init_nack, j, due, acts);
        }
    }

    /// Airs the fragments of `instance` that `frags` names (bit `f` =
    /// fragment `f`).
    fn air_with(&self, init_nack: &InitNack, instance: usize, frags: u64, acts: &mut Actions) {
        if frags == 0 {
            return;
        }
        for f in self.insts[instance].asm.fragments() {
            if frags >> f.frag & 1 == 1 {
                acts.send((self.body)(instance as u8, f, init_nack.clone()));
            }
        }
    }
}

impl Index<usize> for Initial {
    type Output = Assembler;

    fn index(&self, instance: usize) -> &Assembler {
        &self.insts[instance].asm
    }
}

// -------------------------------------------------------- vote tally

/// What one [`VoteTally::step`] changed.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Step {
    /// This node just became ready, on this root.
    pub ready: Option<Digest32>,
    /// The instance just delivered.
    pub delivered: bool,
}

/// Bracha's ECHO / READY votes of one instance. Votes are cast on the
/// proposal digest, so an equivocating proposer splits the vote and the
/// instance never delivers.
#[derive(Debug)]
pub(crate) struct VoteTally {
    /// Per node: the root they echoed (index = node id, includes self).
    echo_roots: Vec<Option<Digest32>>,
    /// Per node: the root they declared ready.
    ready_roots: Vec<Option<Digest32>>,
    my_echo: Option<Digest32>,
    my_ready: Option<Digest32>,
    delivered: bool,
}

/// The root with the most votes and its count.
fn count_votes(votes: &[Option<Digest32>]) -> Option<(Digest32, usize)> {
    let mut best: Option<(Digest32, usize)> = None;
    for v in votes.iter().flatten() {
        let c = votes.iter().flatten().filter(|x| *x == v).count();
        if best.map(|(_, bc)| c > bc).unwrap_or(true) {
            best = Some((*v, c));
        }
    }
    best
}

fn record_vote(votes: &mut [Option<Digest32>], from: usize, root: Digest32) {
    if let Some(slot) = votes.get_mut(from) {
        slot.get_or_insert(root);
    }
}

impl VoteTally {
    pub(crate) fn new(n: usize) -> Self {
        VoteTally {
            echo_roots: vec![None; n],
            ready_roots: vec![None; n],
            my_echo: None,
            my_ready: None,
            delivered: false,
        }
    }

    /// Records `from`'s ECHO; a node's first vote sticks.
    pub(crate) fn echo(&mut self, from: usize, root: Digest32) {
        record_vote(&mut self.echo_roots, from, root);
    }

    /// Records `from`'s READY; a node's first vote sticks.
    pub(crate) fn ready(&mut self, from: usize, root: Digest32) {
        record_vote(&mut self.ready_roots, from, root);
    }

    /// Casts this node's ECHO (once); `true` when it was newly cast.
    pub(crate) fn cast_echo(&mut self, me: usize, root: Digest32) -> bool {
        if self.my_echo.is_some() {
            return false;
        }
        self.my_echo = Some(root);
        self.echo(me, root);
        true
    }

    pub(crate) fn my_echo(&self) -> Option<Digest32> {
        self.my_echo
    }

    pub(crate) fn my_ready(&self) -> Option<Digest32> {
        self.my_ready
    }

    pub(crate) fn delivered(&self) -> bool {
        self.delivered
    }

    /// Echoes behind the most-echoed root.
    pub(crate) fn echo_support(&self) -> usize {
        count_votes(&self.echo_roots).map_or(0, |(_, c)| c)
    }

    /// Readies behind the most-readied root.
    pub(crate) fn ready_support(&self) -> usize {
        count_votes(&self.ready_roots).map_or(0, |(_, c)| c)
    }

    /// Re-evaluates the quorums: READY on 2f + 1 echoes or f + 1 readies
    /// (Bracha amplification); DELIVER on 2f + 1 readies once the matching
    /// value is held (`held` is its root).
    pub(crate) fn step(&mut self, p: &Params, held: Option<Digest32>) -> Step {
        let mut step = Step::default();
        if self.my_ready.is_none() {
            let from_echo = count_votes(&self.echo_roots).filter(|(_, c)| *c >= p.quorum());
            let from_ready = || count_votes(&self.ready_roots).filter(|(_, c)| *c > p.f);
            if let Some((root, _)) = from_echo.or_else(from_ready) {
                self.my_ready = Some(root);
                self.ready(p.me, root);
                step.ready = Some(root);
            }
        }
        if !self.delivered {
            // Without the matching value the instance stays NACKed and
            // holders re-send.
            if let Some((root, c)) = count_votes(&self.ready_roots) {
                if c >= p.quorum() && held == Some(root) {
                    self.delivered = true;
                    step.delivered = true;
                }
            }
        }
        step
    }
}

// ------------------------------------------------------ certificates

/// The message a threshold share signs: binds the phase tag, session,
/// instance and value root.
fn signed_msg(tag: &[u8], session: u64, instance: usize, root: &Digest32) -> Vec<u8> {
    let mut m = Vec::with_capacity(64);
    m.extend_from_slice(tag);
    m.extend_from_slice(&session.to_le_bytes());
    m.extend_from_slice(&(instance as u64).to_le_bytes());
    m.extend_from_slice(root.as_bytes());
    m
}

/// The message a CBC echo share signs.
pub(crate) fn echo_msg(session: u64, instance: usize, root: &Digest32) -> Vec<u8> {
    signed_msg(b"wbft/cbc/echo", session, instance, root)
}

/// The message a PRBC DONE share signs.
pub(crate) fn done_msg(session: u64, instance: usize, root: &Digest32) -> Vec<u8> {
    signed_msg(b"wbft/prbc/done", session, instance, root)
}

/// The instances whose NACK bits a received packet states, given the
/// instances its entries and set NACK bits `named`. A combined packet states
/// every instance. A joined per-instance frame states only its own, the one
/// it names: `wbft_net::join` zero-fills every other bit, which says nothing.
pub(crate) fn stated(p: &Params, named: impl IntoIterator<Item = usize>) -> Bitmap {
    match p.packing {
        Packing::Combined => Bitmap::full(p.n),
        Packing::PerInstance => {
            let mut stated = Bitmap::new(p.n);
            for j in named.into_iter().filter(|&j| j < p.n) {
                stated.set(j, true);
            }
            stated
        }
    }
}

/// The certificate phase of N broadcast instances, shared by CBC, CBC-small
/// and PRBC: per instance a threshold-share [`Collector`] under one key
/// set, over the message its shares sign, and how many shares combine.
///
/// - **Signing** ([`Certificates::sign`]). This node signs its share over
///   an instance's root once; where it combines that instance, the share
///   is recorded as well.
/// - **Combining** ([`Certificates::record`]). Who combines is fixed by the
///   constructor. For a CBC echo, 2f + 1 shares under the `(2f, n)` set,
///   only instance `j`'s leader combines `j`. For a PRBC DONE, f + 1
///   shares under the `(f, n)` set, every node does. A peer's share is
///   refused where this node does not combine.
/// - **Adopting** ([`Certificates::adopt`]). A certificate combined
///   elsewhere is held once it verifies under the root the caller names;
///   which root that is stays the component's rule.
/// - **Airing** ([`Certificates::shares`], [`Certificates::certificates`]).
///   A packet carries only what some peer can still use. This node's share
///   of `j` rides until `j`'s certificate is held here: the certificate
///   serves every receiver the share could. `j`'s certificate rides while
///   some peer's latest packet has not shown that the peer holds it
///   ([`Certificates::heard`]). That knowledge is each peer's latest word,
///   never sticky: a peer that NACKs `j` again, a restarted node, gets the
///   certificate back. A peer never heard from holds nothing.
/// - **Asking.** [`Certificates::finish_nack`] names the instances without
///   a certificate here; [`Certificates::echo_nack`] those this node
///   combines and holds fewer than the needed shares of. How a component
///   answers a peer's NACK is its own. CBC and PRBC mark the instance the
///   peer lacks. CBC-small marks a peer behind on an init or finish NACK
///   and does not read the echo NACK at all: `Batcher::peer_behind` forces a
///   re-send even after this node completed, so answering the leader's
///   echo NACK would add re-sends once it had every certificate.
#[derive(Debug)]
pub(crate) struct Certificates {
    p: Params,
    pub keys: PublicKeySet,
    secret: SecretKeyShare,
    msg: fn(u64, usize, &Digest32) -> Vec<u8>,
    need: usize,
    /// Only instance `j`'s leader, node `j`, combines `j`'s shares.
    leader_combines: bool,
    insts: Vec<Collector>,
    /// Per peer, the instances whose certificate its latest packet showed
    /// it holds.
    held: Vec<Bitmap>,
}

impl Certificates {
    fn new(
        p: Params,
        keys: PublicKeySet,
        secret: SecretKeyShare,
        msg: fn(u64, usize, &Digest32) -> Vec<u8>,
        need: usize,
        leader_combines: bool,
    ) -> Self {
        let insts = vec![Collector::default(); p.n];
        let held = vec![Bitmap::new(p.n); p.n];
        Certificates { p, keys, secret, msg, need, leader_combines, insts, held }
    }

    /// CBC echo shares under the `(2f, n)` set: 2f + 1 make a certificate,
    /// and only the instance's leader combines them.
    pub(crate) fn cbc_echo(p: Params, keys: PublicKeySet, secret: SecretKeyShare) -> Self {
        Certificates::new(p, keys, secret, echo_msg, p.quorum(), true)
    }

    /// PRBC DONE shares under the `(f, n)` set: f + 1 make a proof, and
    /// every node combines them.
    pub(crate) fn prbc_done(p: Params, keys: PublicKeySet, secret: SecretKeyShare) -> Self {
        Certificates::new(p, keys, secret, done_msg, p.f + 1, false)
    }

    pub(crate) fn p(&self) -> &Params {
        &self.p
    }

    fn combines(&self, instance: usize) -> bool {
        !self.leader_combines || instance == self.p.me
    }

    fn msg(&self, instance: usize, root: &Digest32) -> Vec<u8> {
        (self.msg)(self.p.session, instance, root)
    }

    /// Signs this node's share over `(instance, root)`, once, and records
    /// it where this node combines; `true` when the share is new.
    pub(crate) fn sign(&mut self, instance: usize, root: &Digest32, acts: &mut Actions) -> bool {
        if self.own(instance).is_some() || instance >= self.insts.len() {
            return false;
        }
        let (msg, combines) = (self.msg(instance, root), self.combines(instance));
        let q = Quorum::new(&self.keys, self.need, self.p.n);
        let c = &mut self.insts[instance];
        let Some(share) = c.sign_own(&q, || self.secret.sign_share(&msg), acts) else {
            return false;
        };
        if combines {
            c.record(&q, &msg[..], share, acts);
        }
        true
    }

    /// A peer's share over `(instance, root)`; `true` when it completed the
    /// certificate.
    pub(crate) fn record(
        &mut self,
        instance: usize,
        root: &Digest32,
        share: SigShare,
        acts: &mut Actions,
    ) -> bool {
        if !self.combines(instance) || instance >= self.insts.len() {
            return false;
        }
        let msg = self.msg(instance, root);
        let q = Quorum::new(&self.keys, self.need, self.p.n);
        let recorded = self.insts[instance].record(&q, &msg[..], share, acts);
        matches!(recorded, Recorded::Combined(Some(_)))
    }

    /// A certificate combined elsewhere; `true` when it verified over
    /// `(instance, root)` and is now held.
    pub(crate) fn adopt(
        &mut self,
        instance: usize,
        root: &Digest32,
        sig: &ThresholdSignature,
        acts: &mut Actions,
    ) -> bool {
        if instance >= self.insts.len() {
            return false;
        }
        let msg = self.msg(instance, root);
        let q = Quorum::new(&self.keys, self.need, self.p.n);
        self.insts[instance].adopt(&q, &msg, *sig, acts)
    }

    /// This node's share of `instance`, once signed.
    pub(crate) fn own(&self, instance: usize) -> Option<SigShare> {
        self.insts.get(instance).and_then(Collector::own)
    }

    /// The certificate of `instance`, once combined or adopted.
    pub(crate) fn cert(&self, instance: usize) -> Option<&ThresholdSignature> {
        self.insts.get(instance).and_then(Collector::output)
    }

    /// Instances with a certificate.
    pub(crate) fn count(&self) -> usize {
        self.insts.iter().filter(|c| c.output().is_some()).count()
    }

    /// This node's shares of the instances without a certificate here, by
    /// instance, as a packet carries them.
    pub(crate) fn shares(&self) -> Vec<(u8, SigShare)> {
        let own = |(j, c): (usize, &Collector)| {
            c.output().is_none().then_some((j as u8, c.own()?))
        };
        self.insts.iter().enumerate().filter_map(own).collect()
    }

    /// The certificates some peer has not shown it holds, by instance, as a
    /// packet carries them.
    pub(crate) fn certificates(&self) -> Vec<(u8, ThresholdSignature)> {
        let cert = |(j, c): (usize, &Collector)| {
            self.wanted(j).then_some((j as u8, *c.output()?))
        };
        self.insts.iter().enumerate().filter_map(cert).collect()
    }

    /// `true` while some peer's latest packet has not shown it holds
    /// `instance`'s certificate.
    fn wanted(&self, instance: usize) -> bool {
        let me = self.p.me;
        self.held.iter().enumerate().any(|(peer, held)| peer != me && !held.get(instance))
    }

    /// `from`'s packet, whose finish NACK (PRBC's `sig_nack`) sets bit `j`
    /// where `from` lacks `j`'s certificate: for each instance the packet
    /// `stated` ([`stated`]), whether `from` holds that certificate
    /// replaces what was known. A NACK of another length teaches nothing.
    pub(crate) fn heard(&mut self, from: usize, finish_nack: &Bitmap, stated: &Bitmap) {
        let n = self.p.n;
        if from >= n || from == self.p.me || finish_nack.len() != n {
            return;
        }
        for j in stated.iter_set().filter(|&j| j < n) {
            self.held[from].set(j, !finish_nack.get(j));
        }
    }

    /// The instances without a certificate here.
    pub(crate) fn finish_nack(&self) -> Bitmap {
        let mut nack = Bitmap::new(self.insts.len());
        for (j, c) in self.insts.iter().enumerate() {
            nack.set(j, c.output().is_none());
        }
        nack
    }

    /// The instances this node combines and still lacks shares of.
    pub(crate) fn echo_nack(&self) -> Bitmap {
        let mut nack = Bitmap::new(self.insts.len());
        for (j, c) in self.insts.iter().enumerate() {
            let short = (c.reporters().count_ones() as usize) < self.need;
            nack.set(j, self.combines(j) && c.output().is_none() && short);
        }
        nack
    }
}

// --------------------------------------------------------- decisions

/// The decided-claim gossip of N binary agreement instances, shared by
/// ABA-SC and ABA-LC: per instance the decision, the nodes heard claiming
/// each value, and each peer's highest round and whether it claimed.
///
/// - **Deciding** ([`Decisions::decide`]). A decision is final; packets
///   carry it as this node's claim ([`Decisions::claim`]).
/// - **Adopting** ([`Decisions::hear`]). Each packet names its sender's
///   round and claim per instance. An undecided node adopts a value f + 1
///   nodes claim, at least one of them honest.
/// - **Reaching back** ([`Decisions::history_floor`]). The one rule for how
///   far back a packet reaches: to the lowest round any peer was heard at,
///   until every peer has claimed a decision; then only this node's own
///   round. A decided peer counts, because undecided peers may need its
///   votes when f nodes are silent; and a peer never heard from is at
///   round 0. A laggard never drifts past recovery, and nobody re-airs
///   rounds no peer is still at.
///
/// How a component answers a peer that is behind stays its own.
#[derive(Debug)]
pub(crate) struct Decisions {
    me: usize,
    f: usize,
    insts: Vec<Decision>,
}

/// One instance of [`Decisions`].
#[derive(Debug, Clone)]
struct Decision {
    value: Option<bool>,
    /// Bit `i` of `claims[v]`: peer `i` claims it decided `v`.
    claims: [u64; 2],
    /// Highest round heard per peer.
    peer_round: Vec<u16>,
    /// Peers heard claiming a decision.
    peer_decided: u64,
}

impl Decisions {
    pub(crate) fn new(p: &Params) -> Self {
        let peer_round = vec![0; p.n];
        let inst = Decision { value: None, claims: [0; 2], peer_round, peer_decided: 0 };
        Decisions { me: p.me, f: p.f, insts: vec![inst; p.n] }
    }

    /// The decision of `instance`, once made or adopted.
    pub(crate) fn get(&self, instance: usize) -> Option<bool> {
        self.insts.get(instance).and_then(|d| d.value)
    }

    /// Decided instances.
    pub(crate) fn count(&self) -> usize {
        self.insts.iter().filter(|d| d.value.is_some()).count()
    }

    /// Whether some instance is `active` and every active one decided.
    pub(crate) fn complete(&self, active: impl Fn(usize) -> bool) -> bool {
        let n = self.insts.len();
        (0..n).all(|j| !active(j) || self.get(j).is_some()) && (0..n).any(active)
    }

    /// This node's claim on `instance`, as its packets carry it.
    pub(crate) fn claim(&self, instance: usize) -> Vote {
        self.get(instance).map_or(Vote::Unknown, Vote::from_bool)
    }

    /// Decides `v` on `instance` unless decided already; `true` when newly
    /// decided.
    pub(crate) fn decide(&mut self, instance: usize, v: bool) -> bool {
        let d = &mut self.insts[instance];
        if d.value.is_some() {
            return false;
        }
        d.value = Some(v);
        true
    }

    /// Hears `from` at `round` of `instance`, with its `claim`; `true` when
    /// f + 1 matching claims just decided the instance here.
    pub(crate) fn hear(&mut self, instance: usize, from: usize, round: u16, claim: Vote) -> bool {
        let d = &mut self.insts[instance];
        match claim {
            Vote::Zero => d.claims[0] |= 1 << from,
            Vote::One => d.claims[1] |= 1 << from,
            _ => {}
        }
        d.peer_round[from] = d.peer_round[from].max(round);
        if claim != Vote::Unknown {
            d.peer_decided |= 1 << from;
        }
        if d.value.is_some() {
            return false;
        }
        let f1 = self.f as u32 + 1;
        d.value = [false, true].into_iter().find(|&v| d.claims[usize::from(v)].count_ones() >= f1);
        d.value.is_some()
    }

    /// The highest round `from` was heard at on `instance`.
    pub(crate) fn peer_round(&self, instance: usize, from: usize) -> u16 {
        self.insts[instance].peer_round[from]
    }

    /// The oldest round of `instance` a packet carries, this node being at
    /// `round`: the lowest round any peer was heard at, decided or not,
    /// until every peer has claimed a decision; then `round`.
    pub(crate) fn history_floor(&self, instance: usize, round: u16) -> u16 {
        let d = &self.insts[instance];
        let peers = || d.peer_round.iter().enumerate().filter(|&(i, _)| i != self.me);
        if peers().all(|(i, _)| d.peer_decided & (1 << i) != 0) {
            return round;
        }
        peers().map(|(_, &r)| r).fold(round, u16::min)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::context::{deal_node_crypto, NodeCrypto};
    use rand::SeedableRng;
    use wbft_crypto::{CryptoSuite, GroupElem, ShareIndex};

    fn value(len: usize) -> Bytes {
        Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    /// Feeds `frags` of `sender`'s split into `asm` in the given order.
    fn feed(asm: &mut Assembler, frags: &[Fragment], order: &[usize]) -> Vec<Accepted> {
        order
            .iter()
            .map(|&i| {
                let f = &frags[i];
                asm.accept(f.frag as usize, f.frag_total as usize, f.root, &f.data)
            })
            .collect()
    }

    #[test]
    fn assembler_takes_fragments_out_of_order_and_duplicated() {
        let v = value(FRAG_BUDGET * 2 + 30);
        let mut sender = Assembler::default();
        let root = sender.hold(v.clone());
        let frags = sender.fragments();
        assert_eq!(frags.len(), 3);
        for f in &frags {
            assert_eq!((f.frag_total, f.root), (3, root));
        }

        let mut asm = Assembler::default();
        let outcomes = feed(&mut asm, &frags, &[2, 2, 0, 1, 1]);
        assert_eq!(
            outcomes,
            [
                Accepted::Buffered,
                Accepted::Buffered,
                Accepted::Buffered,
                Accepted::Assembled(root),
                Accepted::Refused, // value already held
            ]
        );
        assert_eq!(asm.held(), Some((&v, root)));
        assert_eq!(asm.fragments(), frags);
        asm.claim(Digest32::of(b"certified elsewhere"));
        assert_eq!(asm.held(), Some((&v, root)), "a held value keeps its root");
        assert_eq!(asm.request(true), None, "and asks for nothing");
    }

    #[test]
    fn assembler_refuses_malformed_fragments_and_a_second_root() {
        let mut asm = Assembler::default();
        let (a, b) = (Digest32::of(b"a"), Digest32::of(b"b"));
        let data = Bytes::from_static(b"x");
        assert_eq!(asm.accept(0, 0, a, &data), Accepted::Refused);
        assert_eq!(asm.accept(2, 2, a, &data), Accepted::Refused);
        assert_eq!(asm.accept(0, MAX_FRAGS + 1, a, &data), Accepted::Refused);
        assert_eq!(asm.claimed_root(), None, "a refused fragment claims nothing");
        assert_eq!(asm.accept(0, 2, a, &data), Accepted::Buffered);
        assert_eq!(asm.accept(1, 2, b, &data), Accepted::Refused);
        assert_eq!(asm.claimed_root(), Some(a));
        // A certified root replaces a fragment's, and drops its buffer.
        asm.claim(b);
        assert_eq!(asm.claimed_root(), Some(b));
        assert_eq!(asm.accept(1, 2, a, &data), Accepted::Refused);
        assert_eq!(asm.request(true), Some(Bitmap::new(0)), "nothing buffered any more");
    }

    #[test]
    fn assembler_restarts_when_frag_total_changes_mid_assembly() {
        let v = value(FRAG_BUDGET + 1);
        let mut sender = Assembler::default();
        let root = sender.hold(v.clone());
        let frags = sender.fragments();
        let mut asm = Assembler::default();
        // A fragment claiming three parts, then the real two-part split:
        // the buffer is re-sized and the stale fragment is gone.
        assert_eq!(asm.accept(0, 3, root, &frags[0].data), Accepted::Buffered);
        assert_eq!(feed(&mut asm, &frags, &[1]), [Accepted::Buffered]);
        assert_eq!(feed(&mut asm, &frags, &[0]), [Accepted::Assembled(root)]);
        assert_eq!(asm.value(), Some(&v));
    }

    #[test]
    fn a_wrong_root_assembly_resets_and_re_accepts() {
        let v = value(FRAG_BUDGET + 10);
        let mut sender = Assembler::default();
        let root = sender.hold(v.clone());
        let frags = sender.fragments();
        let mut asm = Assembler::default();
        assert_eq!(feed(&mut asm, &frags, &[0]), [Accepted::Buffered]);
        let corrupt = Bytes::from_static(b"not the fragment");
        assert_eq!(asm.accept(1, 2, root, &corrupt), Accepted::Buffered);
        assert!(asm.value().is_none() && asm.claimed_root().is_none() && asm.held().is_none());
        assert!(asm.fragments().is_empty(), "nothing to serve after the reset");
        // Served afresh: the reset instance takes the real fragments.
        assert_eq!(feed(&mut asm, &frags, &[1, 0]), [Accepted::Buffered, Accepted::Assembled(root)]);
        assert_eq!(asm.held(), Some((&v, root)));
    }

    #[test]
    fn an_assembler_asks_for_gaps_alone_until_it_saw_the_value_aired() {
        let mut sender = Assembler::default();
        sender.hold(value(FRAG_BUDGET * 4 + 1));
        let frags = sender.fragments();
        assert_eq!(sender.frag_count(), Some(5));
        let mut asm = Assembler::default();
        assert_eq!(asm.request(false), None, "nothing heard: nothing to ask for");
        assert_eq!(asm.request(true), Some(Bitmap::new(0)), "aired, none held: the request for all");
        feed(&mut asm, &frags, &[0]);
        assert_eq!(asm.request(false), None, "a lone first fragment: the rest may be on its way");
        feed(&mut asm, &frags, &[3]);
        assert_eq!(asm.request(false), Some(Bitmap::from_raw(0b00110, 5)), "the gaps below 3");
        assert_eq!(asm.request(true), Some(Bitmap::from_raw(0b10110, 5)), "every missing one");
        assert_eq!(asm.frag_count(), None);
        feed(&mut asm, &frags, &[1, 2]);
        assert_eq!(asm.request(false), None, "no gap below the highest held");
    }

    /// The fragments, by `(instance, frag)`, `init`'s next tick re-airs.
    fn air_due(init: &mut Initial) -> Vec<(u8, u8)> {
        let mut acts = Actions::new();
        init.air_due(&mut acts);
        let frag = |b: &Body| initial::fragment_of(b).map(|(j, f, _)| (j, f.frag)).unwrap();
        acts.drain().0.iter().map(frag).collect()
    }

    #[test]
    fn a_holder_serves_the_union_of_requests_less_what_the_air_answered() {
        let ask = |j: usize, request: Bitmap| {
            let mut nack = InitNack::new(4);
            nack.ask(j, request);
            nack
        };
        let mut init = Initial::new(4, crate::rbc::rbc_init);
        init.hold(1, value(FRAG_BUDGET * 4 + 1));
        let frags = init[1].fragments();
        let mut out = Batcher::new(&tally_params(), 0);
        let mut note = |init: &mut Initial, nack: &InitNack| init.note(nack, &mut out);
        note(&mut init, &ask(1, Bitmap::from_raw(0b10110, 5)));
        note(&mut init, &ask(1, Bitmap::from_raw(0b00001, 5)));
        note(&mut init, &ask(2, Bitmap::new(0))); // not held here
        note(&mut init, &InitNack::new(3)); // another committee
        assert_eq!(air_due(&mut init), [(1, 0), (1, 1), (1, 2), (1, 4)], "the union, once");
        assert!(air_due(&mut init).is_empty());
        // A request of another length than the held split asks for all.
        note(&mut init, &ask(1, Bitmap::from_raw(0b1, 3)));
        assert_eq!(air_due(&mut init).len(), 5);
        // Fragments another node aired since are not due; asked again, they are.
        let heard = |init: &mut Initial, j: usize, frag: u8| {
            let none = || Fragment { frag, data: Bytes::new(), ..frags[0].clone() };
            let fragment = frags.get(usize::from(frag)).cloned().unwrap_or_else(none);
            init.heard(3, j, fragment, &mut Actions::new())
        };
        note(&mut init, &ask(1, Bitmap::from_raw(0b00110, 5)));
        assert_eq!(heard(&mut init, 1, 2), Accepted::Refused, "held already");
        heard(&mut init, 1, 64);
        assert_eq!(heard(&mut init, 9, 1), Accepted::Refused, "no such instance");
        assert_eq!(air_due(&mut init), [(1, 1)]);
        note(&mut init, &ask(1, Bitmap::from_raw(0b00100, 5)));
        heard(&mut init, 1, 2);
        assert!(air_due(&mut init).is_empty());
        note(&mut init, &ask(1, Bitmap::from_raw(0b00100, 5)));
        assert_eq!(air_due(&mut init), [(1, 2)]);
    }

    #[test]
    fn overhearing_the_proposer_air_a_held_fragment_withdraws_exactly_its_slot() {
        for body in [crate::rbc::rbc_init as InitBody, crate::cbc::cbc_init] {
            let mut init = Initial::new(4, body);
            init.hold(1, value(FRAG_BUDGET * 4 + 1));
            let frags = init[1].fragments();
            let slot = |j: u8, f: &Fragment| body(j, f.clone(), InitNack::new(4)).slot_key();
            let mut acts = Actions::new();
            // Another value's fragment, one of a value not held here, and a
            // relay's airing: nothing is withdrawn.
            let other = Fragment { data: Bytes::from_static(b"not it"), ..frags[2].clone() };
            init.heard(1, 1, other, &mut acts);
            init.heard(0, 0, frags[2].clone(), &mut acts);
            init.heard(3, 1, frags[2].clone(), &mut acts);
            assert!(acts.withdrawals.is_empty());
            // Fragment 2 of the held value, from its proposer: its slot alone.
            init.heard(1, 1, frags[2].clone(), &mut acts);
            assert_eq!(acts.withdrawals, [slot(1, &frags[2])]);
            let others = frags.iter().filter(|f| f.frag != 2).map(|f| slot(1, f));
            assert!(others.chain([slot(0, &frags[2])]).all(|s| s != acts.withdrawals[0]));
            // The slot the fragment airs under, whatever NACK rides with it.
            let mut aired = Actions::new();
            init.air(1, &mut aired);
            assert_eq!(aired.sends[2].slot_key(), acts.withdrawals[0]);
        }
    }

    #[test]
    fn a_holder_recognises_only_its_own_fragments_on_the_air() {
        let mut sender = Assembler::default();
        let root = sender.hold(value(FRAG_BUDGET * 2 + 7));
        let frags = sender.fragments();
        for f in &frags {
            assert!(sender.airs(f.frag as usize, 3, root, &f.data));
        }
        let f = &frags[1];
        assert!(!sender.airs(1, 4, root, &f.data), "another split");
        assert!(!sender.airs(1, 3, Digest32::of(b"other"), &f.data), "another root");
        assert!(!sender.airs(2, 3, root, &f.data), "another fragment's bytes");
        assert!(!sender.airs(7, 3, root, &Bytes::new()), "past the value");
        let mut exact = Assembler::default();
        let exact_root = exact.hold(value(FRAG_BUDGET * 2));
        assert!(!exact.airs(2, 2, exact_root, &Bytes::new()), "one past the last fragment");
        let mut partial = Assembler::default();
        feed(&mut partial, &frags, &[0, 1]);
        assert!(!partial.airs(1, 3, root, &f.data), "nothing held, nothing due");
    }

    #[test]
    fn an_empty_value_is_one_empty_fragment() {
        let mut sender = Assembler::default();
        let root = sender.hold(Bytes::new());
        let frags = sender.fragments();
        assert_eq!(frags, [Fragment { frag: 0, frag_total: 1, root, data: Bytes::new() }]);
        let mut asm = Assembler::default();
        assert_eq!(feed(&mut asm, &frags, &[0]), [Accepted::Assembled(root)]);
        assert_eq!(asm.value(), Some(&Bytes::new()));
    }

    #[test]
    fn splitting_and_acceptance_share_one_limit() {
        let mut sender = Assembler::default();
        let root = sender.hold(value(MAX_VALUE_BYTES));
        let frags = sender.fragments();
        assert_eq!(frags.len(), MAX_FRAGS);
        let mut asm = Assembler::default();
        let order: Vec<usize> = (0..MAX_FRAGS).collect();
        assert_eq!(feed(&mut asm, &frags, &order).last(), Some(&Accepted::Assembled(root)));
        // One byte more cannot be reassembled by anyone, so it is not aired.
        let mut oversize = Assembler::default();
        oversize.hold(value(MAX_VALUE_BYTES + 1));
        assert!(oversize.held().is_some() && oversize.fragments().is_empty());
    }

    fn tally_params() -> Params {
        Params::new(4, 0, 1)
    }

    #[test]
    fn tally_becomes_ready_on_a_quorum_of_echoes() {
        let (p, root) = (tally_params(), Digest32::of(b"v"));
        let mut t = VoteTally::new(4);
        assert!(t.cast_echo(p.me, root));
        assert!(!t.cast_echo(p.me, Digest32::of(b"w")), "this node echoes once");
        t.echo(1, root);
        assert_eq!(t.step(&p, Some(root)), Step::default());
        assert_eq!((t.echo_support(), t.ready_support()), (2, 0));
        t.echo(2, root);
        assert_eq!(t.step(&p, Some(root)), Step { ready: Some(root), delivered: false });
        assert_eq!((t.my_echo(), t.my_ready()), (Some(root), Some(root)));
        assert_eq!(t.step(&p, Some(root)), Step::default(), "a transition is reported once");
    }

    #[test]
    fn tally_amplifies_readies_and_delivers_only_with_the_matching_value() {
        let (p, root) = (tally_params(), Digest32::of(b"v"));
        let mut t = VoteTally::new(4);
        t.ready(1, root);
        assert_eq!(t.step(&p, None), Step::default());
        t.ready(2, root);
        // f + 1 readies: ready without a single echo; own READY is the third.
        assert_eq!(t.step(&p, None), Step { ready: Some(root), delivered: false });
        assert_eq!(t.ready_support(), 3);
        assert!(!t.delivered(), "2f + 1 readies, but the value is not held");
        assert_eq!(t.step(&p, Some(Digest32::of(b"other"))), Step::default());
        assert_eq!(t.step(&p, Some(root)), Step { ready: None, delivered: true });
        assert!(t.delivered());
        assert_eq!(t.step(&p, Some(root)), Step::default());
    }

    #[test]
    fn equivocating_roots_never_reach_a_quorum() {
        let p = tally_params();
        let (a, b) = (Digest32::of(b"a"), Digest32::of(b"b"));
        let mut t = VoteTally::new(4);
        t.cast_echo(p.me, a);
        t.echo(1, a);
        t.echo(2, b);
        t.echo(3, b);
        t.echo(3, a); // a node's first vote sticks
        t.echo(9, a); // out of range: ignored
        t.ready(1, a);
        t.ready(2, b);
        assert_eq!(t.step(&p, Some(a)), Step::default());
        assert_eq!((t.echo_support(), t.ready_support(), t.my_ready()), (2, 1, None));
    }

    /// Four nodes' CBC echo phases.
    fn cbc(tag: u64) -> Vec<Certificates> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(tag);
        let deal = deal_node_crypto(4, CryptoSuite::light(), &mut rng).into_iter().enumerate();
        let phase = |(i, c): (usize, NodeCrypto)| {
            Certificates::cbc_echo(Params::new(4, i, 9), c.cbc_pub, c.cbc_sec)
        };
        deal.map(phase).collect()
    }

    /// Four nodes' PRBC DONE phases.
    fn prbc(tag: u64) -> Vec<Certificates> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(tag);
        let deal = deal_node_crypto(4, CryptoSuite::light(), &mut rng).into_iter().enumerate();
        let phase = |(i, c): (usize, NodeCrypto)| {
            Certificates::prbc_done(Params::new(4, i, 9), c.prbc_pub, c.prbc_sec)
        };
        deal.map(phase).collect()
    }

    /// `node`'s share over `(instance, root)`.
    fn share(node: &mut Certificates, instance: usize, root: &Digest32) -> SigShare {
        node.sign(instance, root, &mut Actions::new());
        node.own(instance).unwrap()
    }

    #[test]
    fn need_shares_make_a_certificate_and_only_foreign_ones_are_charged() {
        let mut s = cbc(83);
        let root = Digest32::of(b"value");
        let profile = s[0].keys.profile();
        let mut acts = Actions::new();
        assert!(s[0].sign(0, &root, &mut acts));
        assert_eq!(acts.charge_us, profile.sign_share_us, "the own share is recorded uncharged");
        assert!(!s[0].sign(0, &root, &mut acts), "signed once");
        let own = s[0].own(0).unwrap();
        assert!(!s[0].record(0, &root, own, &mut acts), "duplicate index");
        let s1 = share(&mut s[1], 0, &root);
        let mut far = s1;
        far.index = ShareIndex::new(5).unwrap();
        assert!(!s[0].record(0, &root, far, &mut acts), "index out of range");
        assert_eq!(acts.charge_us, profile.sign_share_us);
        assert!(!s[0].record(0, &root, s1, &mut acts));
        assert_eq!(acts.charge_us, profile.sign_share_us + profile.verify_share_us);
        let s2 = share(&mut s[2], 0, &root);
        assert!(s[0].record(0, &root, s2, &mut acts), "2f + 1 shares combine");
        assert_eq!(
            acts.charge_us,
            profile.sign_share_us + 2 * profile.verify_share_us + profile.combine_us
        );
        let sig = *s[0].cert(0).unwrap();
        assert_eq!((s[0].count(), s[0].certificates()), (1, vec![(0, sig)]));
        s[0].keys.verify(&echo_msg(9, 0, &root), &sig).unwrap();
        assert!(s[0].keys.verify(&done_msg(9, 0, &root), &sig).is_err(), "phase tag is bound");
        // Certified: later shares are not even buffered.
        let s3 = share(&mut s[3], 0, &root);
        assert!(!s[0].record(0, &root, s3, &mut acts));
        // A PRBC proof takes f + 1: the own share alone is none.
        let mut d = prbc(85);
        assert!(d[0].sign(1, &root, &mut acts) && d[0].cert(1).is_none());
        let d2 = share(&mut d[2], 1, &root);
        assert!(d[0].record(1, &root, d2, &mut acts), "f + 1 shares prove");
    }

    #[test]
    fn only_a_cbc_instance_s_leader_combines_it() {
        let mut s = cbc(87);
        let root = Digest32::of(b"value");
        let shares: Vec<SigShare> = (0..4).map(|i| share(&mut s[i], 0, &root)).collect();
        let mut acts = Actions::new();
        for &other in &shares {
            assert!(!s[1].record(0, &root, other, &mut acts));
        }
        assert_eq!(acts.charge_us, 0, "a share this node does not combine is not even checked");
        assert_eq!(s[1].echo_nack(), Bitmap::from_raw(0b0010, 4), "it asks for its own instance's");
        assert_eq!(s[1].finish_nack(), Bitmap::from_raw(0b1111, 4));
        assert!(!s[0].record(0, &root, shares[1], &mut acts));
        assert!(s[0].record(0, &root, shares[2], &mut acts), "the leader combines");
        assert_eq!(s[0].finish_nack(), Bitmap::from_raw(0b1110, 4));
        // Every node combines a PRBC instance.
        let mut d = prbc(87);
        let d0 = share(&mut d[0], 0, &root);
        d[1].sign(0, &root, &mut acts);
        assert!(d[1].record(0, &root, d0, &mut acts));
    }

    #[test]
    fn a_bad_share_is_evicted_and_its_slot_reused() {
        let mut s = cbc(89);
        let root = Digest32::of(b"value");
        let shares: Vec<SigShare> = (0..3).map(|i| share(&mut s[i], 3, &root)).collect();
        let mut bad = shares[0];
        bad.value = bad.value.mul(&GroupElem::generator());
        let leader = &mut s[3];
        let mut acts = Actions::new();
        assert!(!leader.record(3, &root, bad, &mut acts));
        assert!(!leader.record(3, &root, shares[0], &mut acts), "slot taken");
        assert!(!leader.record(3, &root, shares[1], &mut acts));
        // The third share reaches the quorum; its check evicts the
        // bad one, so no certificate yet — and its slot is free again.
        assert!(!leader.record(3, &root, shares[2], &mut acts));
        assert!(leader.record(3, &root, shares[0], &mut acts), "corrected share");
        leader.keys.verify(&echo_msg(9, 3, &root), leader.cert(3).unwrap()).unwrap();
    }

    #[test]
    fn a_certificate_is_adopted_only_over_the_root_it_verifies() {
        let mut s = cbc(97);
        let (root, other) = (Digest32::of(b"value"), Digest32::of(b"other"));
        let shares: Vec<SigShare> = (0..3).map(|i| share(&mut s[i], 2, &root)).collect();
        for other in shares {
            s[2].record(2, &root, other, &mut Actions::new());
        }
        let sig = *s[2].cert(2).expect("three shares certify");
        let mut acts = Actions::new();
        assert!(!s[0].adopt(2, &other, &sig, &mut acts));
        assert!(!s[0].adopt(3, &root, &sig, &mut acts));
        assert!(s[0].cert(2).is_none());
        assert!(s[0].adopt(2, &root, &sig, &mut acts));
        let check = s[0].keys.profile().verify_signature_us;
        assert_eq!(acts.charge_us, 3 * check);
        assert!(!s[0].adopt(2, &root, &sig, &mut acts), "already held");
        assert_eq!(acts.charge_us, 3 * check);
    }

    /// The instances of a packet's entries, in order.
    fn ids<T>(entries: Vec<(u8, T)>) -> Vec<u8> {
        entries.into_iter().map(|(j, _)| j).collect()
    }

    /// Node 0's PRBC DONE phase holding every instance's proof.
    fn proven(tag: u64) -> Certificates {
        let (mut d, root) = (prbc(tag), Digest32::of(b"value"));
        for j in 0..4 {
            let other = share(&mut d[1], j, &root);
            d[0].sign(j, &root, &mut Actions::new());
            d[0].record(j, &root, other, &mut Actions::new());
        }
        d.swap_remove(0)
    }

    #[test]
    fn a_share_leaves_the_packet_once_its_certificate_is_held_here() {
        let root = Digest32::of(b"value");
        let mut acts = Actions::new();
        // PRBC: node 0's proof of instance 1 serves every receiver its
        // share could.
        let mut d = prbc(91);
        d[0].sign(1, &root, &mut acts);
        d[0].sign(2, &root, &mut acts);
        assert_eq!(ids(d[0].shares()), [1, 2]);
        let other = share(&mut d[2], 1, &root);
        assert!(d[0].record(1, &root, other, &mut acts));
        assert_eq!(ids(d[0].shares()), [2]);
        // CBC: the leader's share leaves once it combines; a non-leader's
        // once it adopts the leader's certificate.
        let mut s = cbc(91);
        let shares: Vec<SigShare> = (0..3).map(|i| share(&mut s[i], 0, &root)).collect();
        assert_eq!(ids(s[1].shares()), [0]);
        for other in &shares[1..] {
            s[0].record(0, &root, *other, &mut acts);
        }
        assert!(s[0].shares().is_empty());
        let sig = *s[0].cert(0).unwrap();
        assert!(s[1].adopt(0, &root, &sig, &mut acts));
        assert!(s[1].shares().is_empty());
    }

    #[test]
    fn a_certificate_rides_until_every_peer_s_latest_nack_shows_it_held() {
        let mut d = proven(93);
        let every = Bitmap::full(4);
        assert_eq!(ids(d.certificates()), [0, 1, 2, 3], "no peer heard from holds any");
        // Nodes 1 and 2 hold 0 and 1; node 3 holds 0 only.
        d.heard(1, &Bitmap::from_raw(0b1100, 4), &every);
        d.heard(2, &Bitmap::from_raw(0b1100, 4), &every);
        assert_eq!(ids(d.certificates()), [0, 1, 2, 3], "node 3 is not heard from");
        d.heard(3, &Bitmap::from_raw(0b1110, 4), &every);
        assert_eq!(ids(d.certificates()), [1, 2, 3]);
        d.heard(3, &Bitmap::from_raw(0b1100, 4), &every);
        assert_eq!(ids(d.certificates()), [2, 3]);
        // Its own NACK and a malformed one teach nothing.
        d.heard(0, &Bitmap::full(4), &every);
        d.heard(3, &Bitmap::full(5), &every);
        assert_eq!(ids(d.certificates()), [2, 3]);
        for peer in 1..4 {
            d.heard(peer, &Bitmap::new(4), &every);
        }
        assert!(d.certificates().is_empty(), "every peer holds every certificate");
        // A restarted node 2 NACKs instance 1 again: its certificate rides.
        d.heard(2, &Bitmap::from_raw(0b0010, 4), &every);
        assert_eq!(ids(d.certificates()), [1]);
    }

    #[test]
    fn a_joined_per_instance_frame_states_its_own_instance_only() {
        let mut d = proven(95);
        let p = Params::new(4, 0, 9).packed(Packing::PerInstance);
        let proof = *d.cert(1).unwrap();
        // Node 3's combined packet shows it holds nothing.
        d.heard(3, &Bitmap::full(4), &Bitmap::full(4));
        for peer in 1..3 {
            d.heard(peer, &Bitmap::new(4), &Bitmap::full(4));
        }
        assert_eq!(ids(d.certificates()), [0, 1, 2, 3]);
        // Its frame for instance 1 once it holds that proof, joined: the
        // proof and no NACK bit. The other bits are zero-filled and say
        // nothing.
        let frame = Body::BasePrbcProof { instance: 1, proof, nack: 0 };
        let joined = wbft_net::join(&frame, 4);
        let Body::PrbcDone { shares, proofs, sig_nack } = joined.as_ref() else { unreachable!() };
        assert_eq!(*sig_nack, Bitmap::new(4));
        let named = shares.iter().map(|e| e.0).chain(proofs.iter().map(|e| e.0));
        let named = named.map(usize::from).chain(sig_nack.iter_set());
        let said = stated(&p, named);
        assert_eq!(said, Bitmap::from_raw(0b0010, 4));
        d.heard(3, sig_nack, &said);
        assert_eq!(ids(d.certificates()), [0, 2, 3]);
        // Under the combined packing the same bits state every instance.
        assert_eq!(stated(&Params::new(4, 0, 9), [1]), Bitmap::full(4));
    }

    #[test]
    fn decided_claims_adoption_needs_f_plus_1() {
        let mut d = Decisions::new(&tally_params());
        // One Byzantine claim alone must not cause adoption (f = 1: two needed).
        assert!(!d.hear(0, 1, 0, Vote::Zero));
        assert!(!d.hear(0, 2, 0, Vote::One), "nor one for the other value");
        assert_eq!(d.get(0), None);
        assert!(d.hear(0, 3, 0, Vote::Zero), "f + 1 claims adopt");
        assert_eq!((d.get(0), d.claim(0), d.count()), (Some(false), Vote::Zero, 1));
        assert!(!d.hear(0, 2, 0, Vote::One) && !d.decide(0, true), "a decision is final");
        assert!(d.decide(1, true) && d.get(1) == Some(true));
    }

    #[test]
    fn packets_reach_back_to_the_lowest_round_a_peer_was_heard_at_until_every_peer_claims() {
        let mut d = Decisions::new(&tally_params());
        assert_eq!(d.history_floor(0, 5), 0, "a peer not heard yet is at round 0");
        d.hear(0, 1, 4, Vote::Unknown);
        d.hear(0, 1, 3, Vote::Unknown);
        d.hear(0, 2, 7, Vote::Unknown);
        d.hear(0, 3, 2, Vote::One);
        assert_eq!(d.peer_round(0, 1), 4, "a peer's highest round");
        assert_eq!(d.history_floor(0, 5), 2, "node 3 claimed a decision, and still counts");
        assert_eq!(d.history_floor(0, 1), 1, "never above this node's own round");
        d.hear(0, 1, 4, Vote::One);
        assert_eq!(d.history_floor(0, 5), 2, "node 2 has not claimed");
        d.hear(0, 2, 7, Vote::One);
        assert_eq!(d.history_floor(0, 5), 5, "every peer claimed: this node's round");
        // Complete once every active instance decided.
        assert!(!d.complete(|_| false), "nothing active");
        d.decide(2, false);
        assert!(d.complete(|j| j == 2) && !d.complete(|j| j >= 1));
    }

    /// The INITIAL phase through the components that run it: every check
    /// below runs once against `RbcBatch` and once against `CbcBatch`.
    pub(crate) mod initial {
        use super::super::*;
        use crate::cbc::CbcBatch;
        use crate::context::Broadcaster;
        use crate::rbc::tests::run_mesh;
        use crate::rbc::RbcBatch;

        /// A broadcast component, four nodes, as the checks drive it.
        pub(crate) trait Component: Broadcaster + Sized {
            /// Builds the component's INITIAL packets.
            const INIT: InitBody;

            /// Node `me` of four.
            fn node(me: usize) -> Self;

            fn initial(&self) -> &Initial;

            /// A combined packet that says nothing but `init_nack`.
            fn asking(init_nack: InitNack) -> Body;

            /// Packets a peer may send naming `root` for instance 0 without
            /// evidence that honest nodes hold it.
            fn naming(root: Digest32) -> Vec<Body>;
        }

        /// The INITIAL fragment `body` carries, with its instance and NACK.
        pub(crate) fn fragment_of(body: &Body) -> Option<(u8, Fragment, &InitNack)> {
            match body {
                Body::RbcInit { instance, frag, frag_total, root, data, init_nack }
                | Body::CbcInit { instance, frag, frag_total, root, data, init_nack } => {
                    let f = Fragment {
                        frag: *frag,
                        frag_total: *frag_total,
                        root: *root,
                        data: data.clone(),
                    };
                    Some((*instance, f, init_nack))
                }
                _ => None,
            }
        }

        /// The requests of `nack`, by instance.
        pub(crate) fn asks(nack: &InitNack) -> Vec<(usize, Bitmap)> {
            nack.iter().map(|(j, request)| (j, *request)).collect()
        }

        /// Node 0's opening sends for a five-fragment value: its INITIAL
        /// fragments and its combined packet.
        pub(crate) fn five_fragment_proposer<C: Component>() -> (C, Vec<Body>, Body) {
            let mut a = C::node(0);
            let mut acts = Actions::new();
            a.start(Bytes::from(vec![5u8; FRAG_BUDGET * 4 + 10]), &mut acts);
            let (inits, combined): (Vec<Body>, Vec<Body>) =
                acts.drain().0.into_iter().partition(|b| fragment_of(b).is_some());
            assert_eq!((inits.len(), combined.len()), (5, 1));
            (a, inits, combined.into_iter().next().unwrap())
        }

        /// What `node`'s next tick airs: the INITIAL NACK of its combined
        /// packet and the INITIAL fragments (by index) it re-airs.
        pub(crate) fn tick<C: Component>(node: &mut C) -> (InitNack, Vec<u8>) {
            let mut acts = Actions::new();
            node.on_timer(0, &mut acts);
            let (mut nacks, mut frags) = (Vec::new(), Vec::new());
            for body in acts.drain().0 {
                match body {
                    Body::RbcEchoReady { init_nack, .. }
                    | Body::CbcEchoFinish { init_nack, .. } => nacks.push(init_nack),
                    other => frags.push(fragment_of(&other).expect("an INITIAL fragment").1.frag),
                }
            }
            assert_eq!(nacks.len(), 1, "one combined packet per tick");
            (nacks.remove(0), frags)
        }

        /// `f` of instance `j` in `C`'s packet, with `data` in place of its own.
        fn forged<C: Component>(j: u8, f: Fragment, nack: &InitNack, data: &'static [u8]) -> Body {
            C::INIT(j, Fragment { data: Bytes::from_static(data), ..f }, nack.clone())
        }

        macro_rules! on_both {
            ($($check:ident),* $(,)?) => {$(
                #[test]
                fn $check() {
                    checks::$check::<RbcBatch>();
                    checks::$check::<CbcBatch>();
                }
            )*};
        }

        on_both!(
            a_nack_names_the_one_missing_fragment_and_the_holder_re_airs_only_it,
            a_node_asks_only_for_gaps_until_the_proposer_s_packet_shows_it_aired,
            a_due_fragment_another_node_airs_first_is_not_re_aired_unless_asked_again,
            a_node_holding_no_fragment_of_an_aired_value_asks_for_all_of_them,
            a_reset_assembly_asks_for_every_fragment_again,
            a_root_a_peer_names_does_not_lock_out_the_proposer_s_fragments,
            a_served_root_is_the_digest_of_the_value_it_is_served_for,
        );

        mod checks {
            use super::*;

            pub(super) fn a_nack_names_the_one_missing_fragment_and_the_holder_re_airs_only_it<
                C: Component,
            >() {
                let (mut a, inits, combined) = five_fragment_proposer::<C>();
                let mut b = C::node(1);
                let mut acts = Actions::new();
                for (i, body) in inits.iter().enumerate().filter(|(i, _)| *i != 2) {
                    b.handle(0, body, &mut acts);
                    assert!(b.delivered(0).is_none(), "fragment {i} alone completes nothing");
                }
                b.handle(0, &combined, &mut acts);
                let (nack, _) = tick(&mut b);
                let exactly_2 = [(0, Bitmap::from_raw(0b00100, 5))];
                assert_eq!(asks(&nack), exactly_2, "exactly fragment 2 of 5");
                // The holder's next tick re-airs that fragment alone, not all five.
                a.handle(1, &C::asking(nack.clone()), &mut acts);
                assert_eq!(tick(&mut a).1, [2]);
                assert!(tick(&mut a).1.is_empty(), "served once");
                // Two peers' requests are unioned and served on one tick.
                let mut other = InitNack::new(4);
                other.ask(0, Bitmap::from_raw(0b10001, 5));
                a.handle(1, &C::asking(nack), &mut acts);
                a.handle(2, &C::asking(other), &mut acts);
                assert_eq!(tick(&mut a).1, [0, 2, 4]);
            }

            pub(super) fn a_node_asks_only_for_gaps_until_the_proposer_s_packet_shows_it_aired<
                C: Component,
            >() {
                let (_, inits, combined) = five_fragment_proposer::<C>();
                let mut b = C::node(1);
                let mut acts = Actions::new();
                b.handle(0, &inits[0], &mut acts);
                assert!(asks(&tick(&mut b).0).is_empty(), "a lone first fragment asks nothing");
                b.handle(0, &inits[1], &mut acts);
                b.handle(0, &inits[3], &mut acts);
                let gap = [(0, Bitmap::from_raw(0b00100, 5))];
                assert_eq!(asks(&tick(&mut b).0), gap, "the gap");
                // The proposer queues its combined packet behind its fragments.
                b.handle(0, &combined, &mut acts);
                let all_missing = [(0, Bitmap::from_raw(0b10100, 5))];
                assert_eq!(asks(&tick(&mut b).0), all_missing, "then all missing");
            }

            pub(super) fn a_due_fragment_another_node_airs_first_is_not_re_aired_unless_asked_again<
                C: Component,
            >() {
                let (mut a, inits, _) = five_fragment_proposer::<C>();
                let mut nack = InitNack::new(4);
                nack.ask(0, Bitmap::from_raw(0b00110, 5));
                let mut acts = Actions::new();
                a.handle(2, &C::asking(nack.clone()), &mut acts);
                // Node 3 relays fragment 1 first; `a` holds the value, so
                // takes nothing from it, but no longer owes that fragment.
                a.handle(3, &inits[1], &mut acts);
                assert_eq!(tick(&mut a).1, [2]);
                // The requester missed the relay's airing and asks again: served.
                a.handle(2, &C::asking(nack), &mut acts);
                assert_eq!(tick(&mut a).1, [1, 2]);
            }

            pub(super) fn a_node_holding_no_fragment_of_an_aired_value_asks_for_all_of_them<
                C: Component,
            >() {
                let (mut a, _, combined) = five_fragment_proposer::<C>();
                let mut c = C::node(2);
                let mut acts = Actions::new();
                c.handle(0, &combined, &mut acts);
                let (nack, _) = tick(&mut c);
                assert_eq!(asks(&nack), [(0, Bitmap::new(0))], "the empty request: every fragment");
                a.handle(2, &C::asking(nack), &mut acts);
                assert_eq!(tick(&mut a).1, [0, 1, 2, 3, 4]);
            }

            pub(super) fn a_reset_assembly_asks_for_every_fragment_again<C: Component>() {
                let (_, inits, combined) = five_fragment_proposer::<C>();
                let mut b = C::node(1);
                let mut acts = Actions::new();
                b.handle(0, &combined, &mut acts);
                for body in inits.iter().take(4) {
                    b.handle(0, body, &mut acts);
                }
                assert_eq!(asks(&b.initial().init_nack()), [(0, Bitmap::from_raw(0b10000, 5))]);
                // An equivocating proposer's last fragment does not hash to
                // the root: the assembly resets, and every fragment is asked
                // for again.
                let (j, f, nack) = fragment_of(&inits[4]).unwrap();
                b.handle(0, &forged::<C>(j, f, nack, b"another value's tail"), &mut acts);
                assert!(b.initial()[0].claimed_root().is_none() && b.delivered(0).is_none());
                assert_eq!(asks(&tick(&mut b).0), [(0, Bitmap::new(0))]);
            }

            pub(super) fn a_root_a_peer_names_does_not_lock_out_the_proposer_s_fragments<
                C: Component,
            >() {
                let (_, inits, _) = five_fragment_proposer::<C>();
                for poison in C::naming(Digest32::of(b"not node 0's proposal")) {
                    let mut b = C::node(1);
                    let mut acts = Actions::new();
                    b.handle(2, &poison, &mut acts);
                    for body in &inits {
                        b.handle(0, body, &mut acts);
                    }
                    assert!(b.initial()[0].value().is_some(), "refused after {poison:?}");
                }
            }

            pub(super) fn a_served_root_is_the_digest_of_the_value_it_is_served_for<
                C: Component,
            >() {
                // Node 3's second INITIAL fragment is corrupted on the air:
                // nobody else can assemble its value, instances 0–2 deliver.
                let mut nodes: Vec<C> = (0..4).map(C::node).collect();
                let mut vals: Vec<Bytes> = (0..4).map(|i| Bytes::from(format!("v-{i}"))).collect();
                vals[3] = Bytes::from(vec![3u8; FRAG_BUDGET + 10]);
                let mut i = 0;
                run_mesh(
                    &mut nodes,
                    |n, acts| {
                        n.start(vals[i].clone(), acts);
                        i += 1;
                    },
                    |n, from, body, acts| match fragment_of(body) {
                        Some((3, f, nack)) if f.frag == 1 => {
                            n.handle(from, &forged::<C>(3, f, nack, b"not the fragment"), acts)
                        }
                        _ => n.handle(from, body, acts),
                    },
                    |n| n.delivered_count() == 3,
                );
                for node in &nodes {
                    for j in 0..4 {
                        let mut acts = Actions::new();
                        node.initial().air(j, &mut acts);
                        let served: Vec<Digest32> =
                            acts.drain().0.iter().map(|b| fragment_of(b).unwrap().1.root).collect();
                        match node.initial()[j].value() {
                            Some(v) => assert!(
                                !served.is_empty() && served.iter().all(|r| *r == Digest32::of(v))
                            ),
                            None => assert!(served.is_empty()),
                        }
                    }
                }
                // The failed assembly left nothing to serve (a root learnt
                // from votes since is a claim, not a digest).
                for node in nodes.iter().take(3) {
                    let asm = &node.initial()[3];
                    assert!(asm.value().is_none() && asm.held().is_none());
                    assert!(node.delivered(3).is_none());
                }
                // At the moment of the failed check the claim itself is dropped.
                let mut fresh = C::node(0);
                let root = Digest32::of(b"claimed");
                let f = Fragment { frag: 0, frag_total: 1, root, data: Bytes::new() };
                let claimed = forged::<C>(3, f, &InitNack::new(4), b"something else");
                fresh.handle(3, &claimed, &mut Actions::new());
                let asm = &fresh.initial()[3];
                assert!(asm.value().is_none() && asm.claimed_root().is_none());
            }
        }
    }
}
