//! Batched consistent broadcast (CBC) — N parallel instances sharing
//! packets (paper Fig. 4b) — and the CBC-small variant for node-id-list
//! values (Fig. 5b).
//!
//! CBC instance `j` (leader `j`): the leader broadcasts its value
//! (INITIAL); every node returns a `(2f, n)`-threshold signature share over
//! the value digest (ECHO — logically N-to-1); the leader combines `2f+1`
//! shares into a quorum certificate and broadcasts it (FINISH — 1-to-N).
//! Delivery = value + verified certificate. Unlike RBC there is no totality
//! guarantee — exactly why Dumbo can afford CBC's three message steps.
//!
//! Under ConsensusBatcher all N instances' ECHO shares and FINISH
//! certificates ride in one combined `CBC_EF` packet per channel access.

use crate::context::{Actions, Broadcaster, Params, RetxState};
use crate::rbc::held;
use crate::share_buf::SigShareBuf;
use bytes::Bytes;
use wbft_crypto::hash::Digest32;
use wbft_crypto::thresh_sig::{PublicKeySet, SecretKeyShare, SigShare, ThresholdSignature};
use wbft_net::{Bitmap, Body, RetransmitPolicy};

/// Maximum value bytes per INITIAL fragment.
pub const FRAG_BUDGET: usize = 150;

const TIMER_RETX: u32 = 0;

/// The message an echo share signs: binds session, instance and value root.
fn echo_msg(session: u64, instance: usize, root: &Digest32) -> Vec<u8> {
    let mut m = Vec::with_capacity(64);
    m.extend_from_slice(b"wbft/cbc/echo");
    m.extend_from_slice(&session.to_le_bytes());
    m.extend_from_slice(&(instance as u64).to_le_bytes());
    m.extend_from_slice(root.as_bytes());
    m
}

#[derive(Debug, Default)]
struct Inst {
    /// The root the instance's first fragment (or packet) claimed. Once
    /// `value` is held this *is* its digest and no longer changes (as in
    /// `rbc::Inst`, read through [`held`]): stored only after the value
    /// hashed to it, or together with it in `start`; reset only while no
    /// value is held.
    claimed_root: Option<Digest32>,
    frags: Vec<Option<Bytes>>,
    value: Option<Bytes>,
    /// This node's echo share over `claimed_root`, signed once the value
    /// checked out against it (the root cannot change after that).
    my_share: Option<SigShare>,
    /// Leader only: buffered echo shares, batch-verified at quorum.
    shares: SigShareBuf,
    finish: Option<ThresholdSignature>,
    delivered: bool,
    peers_need_init: bool,
}

/// N parallel CBC instances under ConsensusBatcher.
#[derive(Debug)]
pub struct CbcBatch {
    p: Params,
    keys: PublicKeySet,
    secret: SecretKeyShare,
    insts: Vec<Inst>,
    dirty: bool,
    started: bool,
    retx: RetxState,
}

impl CbcBatch {
    /// Creates the batch over the `(2f, n)` CBC key set.
    pub fn new(p: Params, keys: PublicKeySet, secret: SecretKeyShare) -> Self {
        keys.precompute();
        let insts = (0..p.n).map(|_| Inst::default()).collect();
        CbcBatch {
            p,
            keys,
            secret,
            insts,
            dirty: false,
            started: false,
            retx: RetxState::new(RetransmitPolicy::lora_class(), &p),
        }
    }

    /// The quorum certificate of a delivered instance.
    pub fn proof(&self, instance: usize) -> Option<&ThresholdSignature> {
        self.insts.get(instance).and_then(|i| i.finish.as_ref()).filter(|_| {
            self.insts[instance].delivered
        })
    }

    fn send_init_frags(&self, instance: usize, acts: &mut Actions) {
        let inst = &self.insts[instance];
        let Some((value, root)) = held(&inst.value, inst.claimed_root) else { return };
        let chunks: Vec<&[u8]> =
            if value.is_empty() { vec![&[][..]] } else { value.chunks(FRAG_BUDGET).collect() };
        let total = chunks.len() as u8;
        for (i, chunk) in chunks.iter().enumerate() {
            acts.send(Body::CbcInit {
                instance: instance as u8,
                frag: i as u8,
                frag_total: total,
                root,
                data: Bytes::copy_from_slice(chunk),
                init_nack: self.init_nack(),
            });
        }
    }

    fn init_nack(&self) -> Bitmap {
        let mut nack = Bitmap::new(self.p.n);
        for (j, inst) in self.insts.iter().enumerate() {
            if inst.value.is_none() && inst.claimed_root.is_some() {
                nack.set(j, true);
            }
        }
        nack
    }

    fn build_ef(&self) -> Body {
        let n = self.p.n;
        let mut roots = vec![Digest32::zero(); n];
        let mut echo_shares = Vec::new();
        let mut finish_sigs = Vec::new();
        let mut echo_nack = Bitmap::new(n);
        let mut finish_nack = Bitmap::new(n);
        for (j, inst) in self.insts.iter().enumerate() {
            if let Some(r) = inst.claimed_root {
                roots[j] = r;
            }
            if let Some(share) = inst.my_share {
                echo_shares.push((j as u8, share));
            }
            if let Some(sig) = &inst.finish {
                finish_sigs.push((j as u8, *sig));
            } else {
                finish_nack.set(j, true);
            }
            if self.p.me == j && inst.finish.is_none() {
                echo_nack
                    .set(j, (inst.shares.reporters().count_ones() as usize) < self.p.quorum());
            }
        }
        Body::CbcEchoFinish {
            roots,
            echo_shares,
            finish_sigs,
            echo_nack,
            finish_nack,
            init_nack: self.init_nack(),
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
                if inst.my_share.is_none() {
                    acts.charge(self.keys.profile().sign_share_us);
                    let share = self.secret.sign_share(&echo_msg(self.p.session, instance, &root));
                    inst.my_share = Some(share);
                    // Own share counts toward the leader's quorum when we
                    // are the leader.
                    if instance == self.p.me {
                        self.record_share(instance, share, acts);
                    }
                }
                self.dirty = true;
            } else {
                inst.frags.clear();
                inst.claimed_root = None;
            }
        }
    }

    /// Leader-side share collection: buffer now, batch-verify at quorum.
    fn record_share(&mut self, instance: usize, share: SigShare, acts: &mut Actions) {
        if instance != self.p.me {
            return; // only the leader combines
        }
        let root = match self.insts[instance].claimed_root {
            Some(r) => r,
            None => return,
        };
        if self.insts[instance].finish.is_some() {
            return;
        }
        let own = share.index.value() as usize == self.p.me + 1;
        if !self.insts[instance].shares.insert(share, self.p.n) {
            return;
        }
        if !own {
            acts.charge(self.keys.profile().verify_share_us);
        }
        let msg = echo_msg(self.p.session, instance, &root);
        if self.insts[instance].shares.settle(&self.keys, &msg, self.p.quorum()) {
            acts.charge(self.keys.profile().combine_us);
            if let Ok(sig) = self.keys.combine(self.insts[instance].shares.shares()) {
                let inst = &mut self.insts[instance];
                inst.finish = Some(sig);
                inst.delivered = true;
                self.dirty = true;
            }
        }
    }

    fn record_finish(&mut self, instance: usize, sig: ThresholdSignature, acts: &mut Actions) {
        if instance >= self.p.n {
            return;
        }
        let root = match self.insts[instance].claimed_root {
            Some(r) => r,
            None => return, // can't validate without the root; NACK the value
        };
        if self.insts[instance].finish.is_some() {
            return;
        }
        acts.charge(self.keys.profile().verify_signature_us);
        let msg = echo_msg(self.p.session, instance, &root);
        if self.keys.verify(&msg, &sig).is_ok() {
            let inst = &mut self.insts[instance];
            inst.finish = Some(sig);
            if inst.value.is_some() {
                inst.delivered = true;
            }
            self.dirty = true;
        }
    }

    fn flush(&mut self, acts: &mut Actions) {
        // Deferred delivery: FINISH may arrive before the value.
        for inst in &mut self.insts {
            if inst.finish.is_some() && inst.value.is_some() && !inst.delivered {
                inst.delivered = true;
                self.dirty = true;
            }
        }
        if self.dirty {
            acts.send(self.build_ef());
            self.dirty = false;
            self.retx.reset();
        }
    }

    fn is_complete(&self) -> bool {
        self.insts.iter().all(|i| i.delivered)
    }
}

impl Broadcaster for CbcBatch {
    fn start(&mut self, my_value: Bytes, acts: &mut Actions) {
        assert!(!self.started, "CbcBatch started twice");
        self.started = true;
        let me = self.p.me;
        let root = Digest32::of(&my_value);
        acts.charge(self.keys.profile().sign_share_us);
        let share = self.secret.sign_share(&echo_msg(self.p.session, me, &root));
        {
            let inst = &mut self.insts[me];
            inst.claimed_root = Some(root);
            inst.value = Some(my_value);
            inst.my_share = Some(share);
        }
        self.record_share(me, share, acts);
        self.send_init_frags(me, acts);
        self.dirty = true;
        self.flush(acts);
        let d = self.retx.next_delay();
        acts.timer(d, TIMER_RETX);
    }

    fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions) {
        if from >= self.p.n {
            return;
        }
        match body {
            Body::CbcInit { instance, frag, frag_total, root, data, init_nack } => {
                if init_nack.len() == self.p.n {
                    for j in init_nack.iter_set() {
                        if self.insts[j].value.is_some() {
                            self.insts[j].peers_need_init = true;
                            self.retx.peer_behind = true;
                        }
                    }
                }
                self.handle_init(
                    *instance as usize,
                    *frag as usize,
                    *frag_total as usize,
                    *root,
                    data,
                    acts,
                );
            }
            Body::CbcEchoFinish {
                roots,
                echo_shares,
                finish_sigs,
                echo_nack,
                finish_nack,
                init_nack,
            } => {
                if roots.len() != self.p.n {
                    return;
                }
                for (j, root) in roots.iter().enumerate() {
                    if !root.is_zero() && self.insts[j].claimed_root.is_none() {
                        self.insts[j].claimed_root = Some(*root);
                    }
                }
                for (j, share) in echo_shares {
                    self.record_share(*j as usize, *share, acts);
                }
                for (j, sig) in finish_sigs {
                    self.record_finish(*j as usize, *sig, acts);
                }
                // NACK evidence: peers missing what we have.
                if init_nack.len() == self.p.n {
                    for j in init_nack.iter_set() {
                        if self.insts[j].value.is_some() {
                            self.insts[j].peers_need_init = true;
                            self.retx.peer_behind = true;
                        }
                    }
                }
                if finish_nack.len() == self.p.n
                    && finish_nack.iter_set().any(|j| self.insts[j].finish.is_some())
                {
                    self.retx.peer_behind = true;
                }
                if echo_nack.len() == self.p.n
                    && echo_nack.iter_set().any(|j| self.insts[j].my_share.is_some())
                {
                    self.retx.peer_behind = true;
                }
            }
            _ => {}
        }
        self.flush(acts);
    }

    fn on_timer(&mut self, local_id: u32, acts: &mut Actions) {
        if local_id != TIMER_RETX {
            return;
        }
        if self.retx.should_send(self.is_complete()) {
            for j in 0..self.p.n {
                if self.insts[j].peers_need_init {
                    self.send_init_frags(j, acts);
                    self.insts[j].peers_need_init = false;
                }
            }
            acts.send(self.build_ef());
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

/// CBC over *small* values — node-id lists carried inline as N-bit sets
/// (paper Fig. 5b): the INITIAL phase is folded into the combined packet,
/// saving one phase of channel accesses. Dumbo's `CBC_commit` uses this.
#[derive(Debug)]
pub struct CbcSmallBatch {
    p: Params,
    keys: PublicKeySet,
    secret: SecretKeyShare,
    values: Vec<Option<Bitmap>>,
    /// This node's echo share per instance, signed once over the value.
    my_share: Vec<Option<SigShare>>,
    shares: Vec<SigShareBuf>,
    finish: Vec<Option<ThresholdSignature>>,
    dirty: bool,
    timer_armed: bool,
    retx: RetxState,
}

/// Digest a small value (bitmap) for signing.
fn small_root(v: &Bitmap) -> Digest32 {
    Digest32::of_parts("wbft/cbc-small/value", &[&v.to_raw().to_le_bytes(), &[v.len() as u8]])
}

impl CbcSmallBatch {
    /// Creates the batch over the `(2f, n)` CBC key set.
    pub fn new(p: Params, keys: PublicKeySet, secret: SecretKeyShare) -> Self {
        keys.precompute();
        CbcSmallBatch {
            keys,
            secret,
            values: vec![None; p.n],
            my_share: vec![None; p.n],
            shares: vec![SigShareBuf::default(); p.n],
            finish: vec![None; p.n],
            dirty: false,
            timer_armed: false,
            retx: RetxState::new(RetransmitPolicy::lora_class(), &p),
            p,
        }
    }

    /// Starts with this node's id-list value.
    pub fn start(&mut self, my_value: Bitmap, acts: &mut Actions) {
        let me = self.p.me;
        self.values[me] = Some(my_value);
        self.echo_if_needed(me, acts);
        self.dirty = true;
        self.flush(acts);
    }

    /// Delivered value of an instance.
    pub fn delivered_value(&self, instance: usize) -> Option<Bitmap> {
        if self.finish[instance].is_some() {
            self.values[instance]
        } else {
            None
        }
    }

    /// The quorum certificate of a delivered instance.
    pub fn proof(&self, instance: usize) -> Option<&ThresholdSignature> {
        self.finish[instance].as_ref()
    }

    /// Number of delivered instances.
    pub fn delivered_count(&self) -> usize {
        (0..self.p.n).filter(|&j| self.delivered_value(j).is_some()).count()
    }

    fn echo_if_needed(&mut self, instance: usize, acts: &mut Actions) {
        let Some(value) = self.values[instance] else { return };
        if self.my_share[instance].is_some() {
            return;
        }
        acts.charge(self.keys.profile().sign_share_us);
        let root = small_root(&value);
        let share = self.secret.sign_share(&echo_msg(self.p.session, instance, &root));
        self.my_share[instance] = Some(share);
        if instance == self.p.me {
            self.record_share(instance, share, acts);
        }
        self.dirty = true;
    }

    fn record_share(&mut self, instance: usize, share: SigShare, acts: &mut Actions) {
        if instance != self.p.me || self.finish[instance].is_some() {
            return;
        }
        let Some(value) = self.values[instance] else { return };
        let own = share.index.value() as usize == self.p.me + 1;
        if !self.shares[instance].insert(share, self.p.n) {
            return;
        }
        if !own {
            acts.charge(self.keys.profile().verify_share_us);
        }
        let msg = echo_msg(self.p.session, instance, &small_root(&value));
        if self.shares[instance].settle(&self.keys, &msg, self.p.quorum()) {
            acts.charge(self.keys.profile().combine_us);
            if let Ok(sig) = self.keys.combine(self.shares[instance].shares()) {
                self.finish[instance] = Some(sig);
                self.dirty = true;
            }
        }
    }

    fn record_finish(&mut self, instance: usize, sig: ThresholdSignature, acts: &mut Actions) {
        if self.finish[instance].is_some() {
            return;
        }
        let Some(value) = self.values[instance] else { return };
        acts.charge(self.keys.profile().verify_signature_us);
        let msg = echo_msg(self.p.session, instance, &small_root(&value));
        if self.keys.verify(&msg, &sig).is_ok() {
            self.finish[instance] = Some(sig);
            self.dirty = true;
        }
    }

    fn build(&self) -> Body {
        let n = self.p.n;
        let mut values = Vec::with_capacity(n);
        let mut init_nack = Bitmap::new(n);
        for j in 0..n {
            match self.values[j] {
                Some(v) => values.push(v),
                None => {
                    values.push(Bitmap::new(0));
                    init_nack.set(j, true);
                }
            }
        }
        let mut echo_shares = Vec::new();
        let mut finish_sigs = Vec::new();
        let mut finish_nack = Bitmap::new(n);
        let mut echo_nack = Bitmap::new(n);
        for j in 0..n {
            if let Some(share) = self.my_share[j] {
                echo_shares.push((j as u8, share));
            }
            match &self.finish[j] {
                Some(sig) => finish_sigs.push((j as u8, *sig)),
                None => finish_nack.set(j, true),
            }
            if j == self.p.me && self.finish[j].is_none() {
                echo_nack
                    .set(j, (self.shares[j].reporters().count_ones() as usize) < self.p.quorum());
            }
        }
        Body::CbcSmall { values, echo_shares, finish_sigs, init_nack, echo_nack, finish_nack }
    }

    fn flush(&mut self, acts: &mut Actions) {
        if self.dirty {
            acts.send(self.build());
            self.dirty = false;
            self.retx.reset();
        }
        if !self.timer_armed {
            self.timer_armed = true;
            let d = self.retx.next_delay();
            acts.timer(d, TIMER_RETX);
        }
    }

    /// Processes a packet for this session.
    pub fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions) {
        if from >= self.p.n {
            return;
        }
        let Body::CbcSmall { values, echo_shares, finish_sigs, init_nack, finish_nack, .. } = body
        else {
            return;
        };
        if values.len() == self.p.n {
            for (j, v) in values.iter().enumerate() {
                if !v.is_empty() && self.values[j].is_none() {
                    self.values[j] = Some(*v);
                    self.echo_if_needed(j, acts);
                }
            }
        }
        for (j, share) in echo_shares {
            if (*j as usize) < self.p.n {
                self.record_share(*j as usize, *share, acts);
            }
        }
        for (j, sig) in finish_sigs {
            if (*j as usize) < self.p.n {
                self.record_finish(*j as usize, *sig, acts);
            }
        }
        if init_nack.len() == self.p.n
            && init_nack.iter_set().any(|j| self.values[j].is_some())
        {
            self.retx.peer_behind = true;
        }
        if finish_nack.len() == self.p.n
            && finish_nack.iter_set().any(|j| self.finish[j].is_some())
        {
            self.retx.peer_behind = true;
        }
        self.flush(acts);
    }

    /// Handles the retransmission tick.
    pub fn on_timer(&mut self, local_id: u32, acts: &mut Actions) {
        if local_id != TIMER_RETX {
            return;
        }
        let complete = self.delivered_count() == self.p.n;
        if self.retx.should_send(complete) {
            acts.send(self.build());
            self.retx.peer_behind = false;
        }
        let d = self.retx.next_delay();
        acts.timer(d, TIMER_RETX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::deal_node_crypto;
    use crate::rbc::tests::run_mesh;
    use rand::SeedableRng;
    use wbft_crypto::CryptoSuite;

    fn make() -> Vec<CbcBatch> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        deal_node_crypto(4, CryptoSuite::light(), &mut rng)
            .into_iter()
            .enumerate()
            .map(|(i, c)| CbcBatch::new(Params::new(4, i, 5), c.cbc_pub, c.cbc_sec))
            .collect()
    }

    #[test]
    fn all_instances_deliver_with_proofs() {
        let mut nodes = make();
        let vals: Vec<Bytes> = (0..4).map(|i| Bytes::from(format!("w-{i}"))).collect();
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
                assert!(node.proof(j).is_some(), "missing certificate for {j}");
            }
        }
    }

    #[test]
    fn certificates_verify_against_the_value() {
        let mut nodes = make();
        let vals: Vec<Bytes> = (0..4).map(|i| Bytes::from(format!("w-{i}"))).collect();
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
        let sig = nodes[0].proof(2).unwrap();
        let root = Digest32::of(&vals[2]);
        nodes[0].keys.verify(&echo_msg(5, 2, &root), sig).unwrap();
        assert!(nodes[0].keys.verify(&echo_msg(5, 3, &root), sig).is_err());
    }

    #[test]
    fn a_served_root_is_the_digest_of_the_value_it_is_served_for() {
        // Node 3's second INITIAL fragment is corrupted on the air: nobody
        // else can assemble (or echo) its value, instances 0–2 deliver.
        let mut nodes = make();
        let mut vals: Vec<Bytes> = (0..4).map(|i| Bytes::from(format!("w-{i}"))).collect();
        vals[3] = Bytes::from(vec![3u8; FRAG_BUDGET + 10]);
        let mut i = 0;
        run_mesh(
            &mut nodes,
            |n, acts| {
                n.start(vals[i].clone(), acts);
                i += 1;
            },
            |n, from, body, acts| match body {
                Body::CbcInit { instance: 3, frag: 1, frag_total, root, init_nack, .. } => {
                    let corrupt = Body::CbcInit {
                        instance: 3,
                        frag: 1,
                        frag_total: *frag_total,
                        root: *root,
                        data: Bytes::from_static(b"not the fragment"),
                        init_nack: *init_nack,
                    };
                    n.handle(from, &corrupt, acts)
                }
                _ => n.handle(from, body, acts),
            },
            |n| n.delivered_count() == 3,
        );
        for node in &nodes {
            for j in 0..4 {
                let mut acts = Actions::new();
                node.send_init_frags(j, &mut acts);
                let served: Vec<Digest32> = acts
                    .drain()
                    .0
                    .iter()
                    .map(|body| match body {
                        Body::CbcInit { root, .. } => *root,
                        other => panic!("not an INITIAL fragment: {other:?}"),
                    })
                    .collect();
                match &node.insts[j].value {
                    Some(v) => assert!(!served.is_empty() && served.iter().all(|r| *r == Digest32::of(v))),
                    None => assert!(served.is_empty()),
                }
            }
        }
        // The failed assembly left nothing to serve; at the moment of the
        // failed check the claim itself is dropped.
        for node in nodes.iter().take(3) {
            assert!(node.insts[3].value.is_none() && node.delivered(3).is_none());
        }
        let mut fresh = make().remove(0);
        let root = Digest32::of(b"claimed");
        let mut acts = Actions::new();
        fresh.handle_init(3, 0, 1, root, &Bytes::from_static(b"something else"), &mut acts);
        assert!(fresh.insts[3].value.is_none() && fresh.insts[3].claimed_root.is_none());
    }

    #[test]
    fn silent_leader_instance_stays_undelivered() {
        let mut nodes = make();
        let vals: Vec<Bytes> = (0..4).map(|i| Bytes::from(format!("w-{i}"))).collect();
        // Node 3 never starts.
        let mut inbox: Vec<(usize, Body)> = Vec::new();
        for i in 0..3 {
            let mut acts = Actions::new();
            nodes[i].start(vals[i].clone(), &mut acts);
            for b in acts.drain().0 {
                inbox.push((i, b));
            }
        }
        let mut steps = 0;
        while let Some((src, body)) = inbox.pop() {
            steps += 1;
            if steps > 50_000 {
                break;
            }
            for (i, node) in nodes.iter_mut().enumerate() {
                if i != src {
                    let mut acts = Actions::new();
                    node.handle(src, &body, &mut acts);
                    for b in acts.drain().0 {
                        inbox.push((i, b));
                    }
                }
            }
        }
        for node in nodes.iter().take(3) {
            assert_eq!(node.delivered_count(), 3);
            assert!(node.delivered(3).is_none());
        }
    }

    #[test]
    fn small_variant_delivers_id_lists() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let mut nodes: Vec<CbcSmallBatch> = deal_node_crypto(4, CryptoSuite::light(), &mut rng)
            .into_iter()
            .enumerate()
            .map(|(i, c)| CbcSmallBatch::new(Params::new(4, i, 6), c.cbc_pub, c.cbc_sec))
            .collect();
        let vals: Vec<Bitmap> = (0..4u64).map(|i| Bitmap::from_raw(0b0111 << (i % 2), 4)).collect();
        let mut i = 0;
        run_mesh(
            &mut nodes,
            |n, acts| {
                n.start(vals[i], acts);
                i += 1;
            },
            |n, from, body, acts| n.handle(from, body, acts),
            |n| n.delivered_count() == 4,
        );
        for node in &nodes {
            for (j, &val) in vals.iter().enumerate() {
                assert_eq!(node.delivered_value(j), Some(val));
            }
        }
    }

    #[test]
    fn small_packets_are_smaller_than_full_cbc_packets() {
        use wbft_net::Sizing;
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let crypto = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        let mut small =
            CbcSmallBatch::new(Params::new(4, 0, 1), crypto[0].cbc_pub.clone(), crypto[0].cbc_sec.clone());
        let mut acts = Actions::new();
        small.start(Bitmap::from_raw(0b0111, 4), &mut acts);
        let small_body = small.build();
        let mut full = CbcBatch::new(Params::new(4, 0, 2), crypto[0].cbc_pub.clone(), crypto[0].cbc_sec.clone());
        let mut acts = Actions::new();
        full.start(Bytes::from_static(b"0123456789abcdef"), &mut acts);
        let full_body = full.build_ef();
        let kp = &crypto[0].keypair;
        let sizing = Sizing::light(4);
        let (_, small_len) =
            wbft_net::Envelope { src: 0, session: 1, body: small_body }.seal(kp, &sizing).unwrap();
        let (_, full_len) =
            wbft_net::Envelope { src: 0, session: 2, body: full_body }.seal(kp, &sizing).unwrap();
        assert!(
            small_len < full_len,
            "CBC-small packet ({small_len}) should undercut CBC ({full_len})"
        );
    }
}
