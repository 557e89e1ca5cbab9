//! The per-instance logic of the broadcast primitives — once, for every
//! deployment.
//!
//! ConsensusBatcher changes how N parallel component instances are
//! *packaged* into channel accesses, never what an instance does (paper
//! §IV, Fig. 4–5). So the instance state machines live here and know
//! nothing about packets: a proposal [`Assembler`], a Bracha [`VoteTally`]
//! and a threshold-share [`Collector`] (under a [`Signer`]), composed into
//! the three instances the protocols run — [`BrachaInst`] (RBC),
//! [`CbcInst`] (CBC) and the PRBC [`DoneStage`]. The components (`rbc`,
//! `cbc`, `prbc`) drive them and add only the combined packet a transition
//! goes out in; when and in how many frames it goes out is the shared
//! `Batcher`; the INITIAL NACKs a holder owes an answer to are
//! [`InitNacks`].

use crate::context::{Actions, Params};
use crate::share_buf::{Collector, Quorum, Recorded};
use bytes::Bytes;
use wbft_crypto::hash::Digest32;
use wbft_crypto::thresh_sig::{PublicKeySet, SecretKeyShare, SigShare, ThresholdSignature};
use wbft_net::Bitmap;

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
#[derive(Debug, PartialEq, Eq)]
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
    /// the one first claimed: nothing changed.
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
    /// Root claimed by the first INITIAL fragment (or vote) seen. Once
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

    /// Learns the instance's root from a vote or a combined packet (lets
    /// the node NACK the value); the first claim sticks.
    pub(crate) fn claim(&mut self, root: Digest32) {
        self.claimed_root.get_or_insert(root);
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

    /// The held value split for the INITIAL phase; nothing when no value
    /// is held or it is too large for any receiver to reassemble.
    pub(crate) fn fragments(&self) -> Vec<Fragment> {
        let Some((value, root)) = self.held() else { return Vec::new() };
        let chunks: Vec<&[u8]> =
            if value.is_empty() { vec![&[][..]] } else { value.chunks(FRAG_BUDGET).collect() };
        if chunks.len() > MAX_FRAGS {
            return Vec::new();
        }
        let frag_total = chunks.len() as u8;
        chunks
            .iter()
            .enumerate()
            .map(|(i, chunk)| Fragment {
                frag: i as u8,
                frag_total,
                root,
                data: Bytes::copy_from_slice(chunk),
            })
            .collect()
    }
}

/// Holder side of the INITIAL NACKs of N instances: which values a peer has
/// asked for that this node holds, until the next tick serves them.
#[derive(Debug)]
pub(crate) struct InitNacks {
    peers_need_init: Vec<bool>,
}

impl InitNacks {
    pub(crate) fn new(n: usize) -> Self {
        InitNacks { peers_need_init: vec![false; n] }
    }

    /// Notes a peer's INITIAL-NACK bitmap against what this node `holds`;
    /// answers the NACKed instances it can serve (that peer lacks them).
    pub(crate) fn note(&mut self, init_nack: &Bitmap, holds: impl Fn(usize) -> bool) -> Vec<usize> {
        if init_nack.len() != self.peers_need_init.len() {
            return Vec::new();
        }
        let served: Vec<usize> = init_nack.iter_set().filter(|&j| holds(j)).collect();
        for &j in &served {
            self.peers_need_init[j] = true;
        }
        served
    }

    /// Takes the instances whose INITIAL is due a re-send.
    pub(crate) fn take_due(&mut self) -> Vec<usize> {
        let due = (0..self.peers_need_init.len()).filter(|&j| self.peers_need_init[j]).collect();
        self.peers_need_init.fill(false);
        due
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

    /// Whether any node's vote has been seen.
    pub(crate) fn any(&self) -> bool {
        self.echo_roots.iter().chain(&self.ready_roots).any(Option::is_some)
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

/// One Bracha RBC instance: a proposal and the votes on its root.
#[derive(Debug)]
pub(crate) struct BrachaInst {
    pub asm: Assembler,
    pub votes: VoteTally,
}

impl BrachaInst {
    pub(crate) fn new(n: usize) -> Self {
        BrachaInst { asm: Assembler::default(), votes: VoteTally::new(n) }
    }

    /// Holds this node's own proposal and echoes it; returns its root.
    pub(crate) fn propose(&mut self, me: usize, value: Bytes) -> Digest32 {
        let root = self.asm.hold(value);
        self.votes.cast_echo(me, root);
        root
    }

    /// Takes one INITIAL fragment; a completed proposal is echoed.
    pub(crate) fn on_fragment(
        &mut self,
        me: usize,
        frag: usize,
        frag_total: usize,
        root: Digest32,
        data: &Bytes,
    ) -> Accepted {
        let accepted = self.asm.accept(frag, frag_total, root, data);
        if accepted == Accepted::Assembled(root) {
            self.votes.cast_echo(me, root);
        }
        accepted
    }

    pub(crate) fn step(&mut self, p: &Params) -> Step {
        self.votes.step(p, self.asm.held().map(|(_, root)| root))
    }

    pub(crate) fn delivered(&self) -> Option<&Bytes> {
        self.asm.value().filter(|_| self.votes.delivered())
    }

    /// The delivered value's root (PRBC signs this): the held one.
    pub(crate) fn delivered_root(&self) -> Option<Digest32> {
        self.asm.held().filter(|_| self.votes.delivered()).map(|(_, root)| root)
    }
}

// --------------------------------------------------- share collector

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

/// What a component's collectors sign and verify under: one threshold key
/// set, the message its shares sign, and how many combine.
#[derive(Debug)]
pub(crate) struct Signer {
    pub p: Params,
    pub keys: PublicKeySet,
    secret: SecretKeyShare,
    msg: fn(u64, usize, &Digest32) -> Vec<u8>,
    need: usize,
}

impl Signer {
    fn new(
        p: Params,
        keys: PublicKeySet,
        secret: SecretKeyShare,
        msg: fn(u64, usize, &Digest32) -> Vec<u8>,
        need: usize,
    ) -> Self {
        Signer { p, keys, secret, msg, need }
    }

    /// CBC echo shares under the `(2f, n)` set: 2f + 1 make a certificate.
    pub(crate) fn cbc_echo(p: Params, keys: PublicKeySet, secret: SecretKeyShare) -> Self {
        Signer::new(p, keys, secret, echo_msg, p.quorum())
    }

    /// PRBC DONE shares under the `(f, n)` set: f + 1 make a proof.
    pub(crate) fn prbc_done(p: Params, keys: PublicKeySet, secret: SecretKeyShare) -> Self {
        Signer::new(p, keys, secret, done_msg, p.f + 1)
    }

    /// The message a share over `(instance, root)` signs.
    pub(crate) fn msg(&self, instance: usize, root: &Digest32) -> Vec<u8> {
        (self.msg)(self.p.session, instance, root)
    }

    /// The quorum of this signer's collectors, priced from its key set.
    pub(crate) fn quorum(&self) -> Quorum<'_, PublicKeySet> {
        Quorum::new(&self.keys, self.need, self.p.n)
    }

    /// Signs this node's share over `(instance, root)` — once; `None` when
    /// it already exists.
    pub(crate) fn sign_own(
        &self,
        c: &mut Collector,
        instance: usize,
        root: &Digest32,
        acts: &mut Actions,
    ) -> Option<SigShare> {
        c.sign_own(&self.quorum(), || self.secret.sign_share(&self.msg(instance, root)), acts)
    }

    /// Buffers a share over `(instance, root)`; returns the certificate
    /// when this share completed it.
    pub(crate) fn record(
        &self,
        c: &mut Collector,
        instance: usize,
        root: &Digest32,
        share: SigShare,
        acts: &mut Actions,
    ) -> Option<ThresholdSignature> {
        let msg = self.msg(instance, root);
        match c.record(&self.quorum(), &msg[..], share, acts) {
            Recorded::Combined(cert) => cert,
            _ => None,
        }
    }

    /// Takes a certificate combined elsewhere; `true` when it verified
    /// over `(instance, root)` and is now held.
    pub(crate) fn accept_cert(
        &self,
        c: &mut Collector,
        instance: usize,
        root: &Digest32,
        sig: &ThresholdSignature,
        acts: &mut Actions,
    ) -> bool {
        c.adopt(&self.quorum(), &self.msg(instance, root), *sig, acts)
    }
}

/// One CBC instance: the leader's value and the quorum certificate over
/// its root. Delivery = value + verified certificate, in either order.
#[derive(Debug, Default)]
pub(crate) struct CbcInst {
    pub asm: Assembler,
    pub cert: Collector,
}

impl CbcInst {
    pub(crate) fn delivered(&self) -> Option<&Bytes> {
        self.asm.value().filter(|_| self.cert.output().is_some())
    }

    /// The quorum certificate, once delivered.
    pub(crate) fn proof(&self) -> Option<&ThresholdSignature> {
        self.cert.output().filter(|_| self.asm.value().is_some())
    }

    /// ECHO: signs the held value's root, once. The leader's own share
    /// opens its collection. Returns the new share, its root, and the
    /// certificate if the share completed it.
    pub(crate) fn echo(
        &mut self,
        s: &Signer,
        instance: usize,
        acts: &mut Actions,
    ) -> Option<(SigShare, Digest32, Option<ThresholdSignature>)> {
        let (_, root) = self.asm.held()?;
        let share = s.sign_own(&mut self.cert, instance, &root, acts)?;
        let finish = self.record_echo(s, instance, share, acts).map(|(_, sig)| sig);
        Some((share, root, finish))
    }

    /// Leader-side collection of an echo share (only the leader combines);
    /// returns the root and certificate when this share completed it.
    pub(crate) fn record_echo(
        &mut self,
        s: &Signer,
        instance: usize,
        share: SigShare,
        acts: &mut Actions,
    ) -> Option<(Digest32, ThresholdSignature)> {
        if instance != s.p.me {
            return None;
        }
        let root = self.asm.claimed_root()?;
        s.record(&mut self.cert, instance, &root, share, acts).map(|sig| (root, sig))
    }
}

/// PRBC's DONE phase over N instances: after delivering instance `j` a
/// node signs a share over its root; f + 1 combine into the proof that an
/// honest node delivered `j`. Shares and proofs are checked against the
/// root this node delivered, so neither is taken before it has.
#[derive(Debug)]
pub(crate) struct DoneStage {
    pub signer: Signer,
    insts: Vec<Collector>,
}

impl DoneStage {
    pub(crate) fn new(p: Params, keys: PublicKeySet, secret: SecretKeyShare) -> Self {
        DoneStage {
            insts: vec![Collector::default(); p.n],
            signer: Signer::prbc_done(p, keys, secret),
        }
    }

    /// Signs — and collects — this node's DONE share for every instance
    /// `delivered_root` now answers for; returns the new shares.
    pub(crate) fn sign_new(
        &mut self,
        delivered_root: impl Fn(usize) -> Option<Digest32>,
        acts: &mut Actions,
    ) -> Vec<(usize, Digest32, SigShare)> {
        let mut signed = Vec::new();
        for (j, inst) in self.insts.iter_mut().enumerate() {
            if inst.own().is_some() {
                continue;
            }
            let Some(root) = delivered_root(j) else { continue };
            if let Some(share) = self.signer.sign_own(inst, j, &root, acts) {
                self.signer.record(inst, j, &root, share, acts);
                signed.push((j, root, share));
            }
        }
        signed
    }

    /// A peer's DONE share; `true` when it completed the proof.
    pub(crate) fn record(
        &mut self,
        instance: usize,
        delivered_root: Option<Digest32>,
        share: SigShare,
        acts: &mut Actions,
    ) -> bool {
        match (self.insts.get_mut(instance), delivered_root) {
            (Some(inst), Some(root)) => {
                self.signer.record(inst, instance, &root, share, acts).is_some()
            }
            _ => false,
        }
    }

    /// A proof combined elsewhere; `true` when it verified and is now held.
    pub(crate) fn accept_proof(
        &mut self,
        instance: usize,
        delivered_root: Option<Digest32>,
        sig: &ThresholdSignature,
        acts: &mut Actions,
    ) -> bool {
        match (self.insts.get_mut(instance), delivered_root) {
            (Some(inst), Some(root)) => self.signer.accept_cert(inst, instance, &root, sig, acts),
            _ => false,
        }
    }

    pub(crate) fn my_share(&self, instance: usize) -> Option<SigShare> {
        self.insts.get(instance).and_then(Collector::own)
    }

    pub(crate) fn proof(&self, instance: usize) -> Option<&ThresholdSignature> {
        self.insts.get(instance).and_then(Collector::output)
    }

    pub(crate) fn proven_count(&self) -> usize {
        self.insts.iter().filter(|d| d.output().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wbft_crypto::{thresh_sig, GroupElem, ShareIndex, ThresholdCurve};

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
        asm.claim(b);
        assert_eq!(asm.claimed_root(), Some(a), "the first claim sticks");
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
        assert!(!t.any());
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

    fn signers(tag: u64) -> Vec<Signer> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(tag);
        let (pks, sks) = thresh_sig::deal(4, 2, ThresholdCurve::Bn158, &mut rng);
        sks.into_iter()
            .enumerate()
            .map(|(i, sk)| Signer::cbc_echo(Params::new(4, i, 9), pks.clone(), sk))
            .collect()
    }

    #[test]
    fn collector_charges_foreign_shares_only_and_combines_at_quorum() {
        let s = signers(83);
        let root = Digest32::of(b"value");
        let profile = s[0].keys.profile();
        let mut c = Collector::default();
        let mut acts = Actions::new();
        let own = s[0].sign_own(&mut c, 0, &root, &mut acts).unwrap();
        assert_eq!(acts.charge_us, profile.sign_share_us);
        assert!(s[0].sign_own(&mut c, 0, &root, &mut acts).is_none(), "signed once");
        assert_eq!(c.own(), Some(own));
        assert!(s[0].record(&mut c, 0, &root, own, &mut acts).is_none());
        assert_eq!(acts.charge_us, profile.sign_share_us, "own share is not charged");
        assert!(s[0].record(&mut c, 0, &root, own, &mut acts).is_none(), "duplicate index");
        assert_eq!(c.reporters().count_ones(), 1);

        let mut theirs = Collector::default();
        let mut scratch = Actions::new();
        let s1 = s[1].sign_own(&mut theirs, 0, &root, &mut scratch).unwrap();
        let mut far = s1;
        far.index = ShareIndex::new(5).unwrap();
        assert!(s[0].record(&mut c, 0, &root, far, &mut acts).is_none(), "index out of range");
        assert_eq!((c.reporters().count_ones(), acts.charge_us), (1, profile.sign_share_us));
        assert!(s[0].record(&mut c, 0, &root, s1, &mut acts).is_none());
        assert_eq!(acts.charge_us, profile.sign_share_us + profile.verify_share_us);

        let s2 = s[2].sign_own(&mut Collector::default(), 0, &root, &mut scratch).unwrap();
        let sig = s[0].record(&mut c, 0, &root, s2, &mut acts).expect("2f + 1 shares combine");
        assert_eq!(
            acts.charge_us,
            profile.sign_share_us + 2 * profile.verify_share_us + profile.combine_us
        );
        assert_eq!(c.output(), Some(&sig));
        s[0].keys.verify(&echo_msg(9, 0, &root), &sig).unwrap();
        assert!(s[0].keys.verify(&done_msg(9, 0, &root), &sig).is_err(), "phase tag is bound");
        // Certified: later shares are not even buffered.
        let s3 = s[3].sign_own(&mut Collector::default(), 0, &root, &mut scratch).unwrap();
        assert!(s[0].record(&mut c, 0, &root, s3, &mut acts).is_none());
        assert_eq!(c.reporters().count_ones(), 3);
    }

    #[test]
    fn collector_evicts_a_bad_share_and_reuses_its_slot() {
        let s = signers(89);
        let root = Digest32::of(b"value");
        let mut scratch = Actions::new();
        let shares: Vec<SigShare> = (0..3)
            .map(|i| s[i].sign_own(&mut Collector::default(), 1, &root, &mut scratch).unwrap())
            .collect();
        let mut bad = shares[0];
        bad.value = bad.value.mul(&GroupElem::generator());
        let mut c = Collector::default();
        let mut acts = Actions::new();
        assert!(s[3].record(&mut c, 1, &root, bad, &mut acts).is_none());
        assert!(s[3].record(&mut c, 1, &root, shares[0], &mut acts).is_none(), "slot taken");
        assert!(s[3].record(&mut c, 1, &root, shares[1], &mut acts).is_none());
        // The third share reaches the quorum; its check evicts the
        // bad one, so no certificate yet — and its slot is free again.
        assert!(s[3].record(&mut c, 1, &root, shares[2], &mut acts).is_none());
        assert_eq!(c.reporters().count_ones(), 2);
        let sig = s[3].record(&mut c, 1, &root, shares[0], &mut acts).expect("corrected share");
        s[3].keys.verify(&echo_msg(9, 1, &root), &sig).unwrap();
    }

    #[test]
    fn collector_takes_a_certificate_only_over_the_root_it_verifies() {
        let s = signers(97);
        let (root, other) = (Digest32::of(b"value"), Digest32::of(b"other"));
        let mut scratch = Actions::new();
        let mut leader = Collector::default();
        let mut sig = None;
        for signer in &s[..3] {
            let share =
                signer.sign_own(&mut Collector::default(), 2, &root, &mut scratch).unwrap();
            sig = s[2].record(&mut leader, 2, &root, share, &mut scratch);
        }
        let sig = sig.expect("three shares certify");
        let mut c = Collector::default();
        let mut acts = Actions::new();
        assert!(!s[0].accept_cert(&mut c, 2, &other, &sig, &mut acts));
        assert!(!s[0].accept_cert(&mut c, 3, &root, &sig, &mut acts));
        assert!(c.output().is_none());
        assert!(s[0].accept_cert(&mut c, 2, &root, &sig, &mut acts));
        assert_eq!(acts.charge_us, 3 * s[0].keys.profile().verify_signature_us);
        assert!(!s[0].accept_cert(&mut c, 2, &root, &sig, &mut acts), "already held");
        assert_eq!(acts.charge_us, 3 * s[0].keys.profile().verify_signature_us);
    }
}
