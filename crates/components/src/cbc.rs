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
//! certificates ride in one combined `CBC_EF` packet per channel access
//! (the baseline airs its entries one instance per frame), each only while
//! some peer can still use it.
//!
//! The INITIAL phase is `instance::Initial` and the ECHO / FINISH phase
//! `instance::Certificates`; each type's doc states its rule. CBC's
//! evidence that a value was aired whole is an echo share or a certificate
//! for the instance; a certificate that verifies under the root its packet
//! names decides which fragments the instance takes.
//!
//! A `gated` batch takes CBC's external-validity predicate as an echo gate:
//! a peer's value is echoed only once the caller's predicate admits it
//! (`admit`), so a certificate had f + 1 honest echoers that admitted it.

use crate::context::{Actions, Batcher, Broadcaster, Params};
use crate::instance::{stated, Accepted, Certificates, Fragment, Initial};
use bytes::Bytes;
use wbft_crypto::hash::Digest32;
use wbft_crypto::thresh_sig::{PublicKeySet, SecretKeyShare, ThresholdSignature};
use wbft_net::{Bitmap, Body, InitNack};

pub use crate::instance::FRAG_BUDGET;

const TIMER_RETX: u32 = 0;

/// N parallel CBC instances under ConsensusBatcher.
#[derive(Debug)]
pub struct CbcBatch {
    init: Initial,
    /// Echo shares over each instance's root and, once combined or adopted,
    /// its certificate. Delivery = value + certificate, in either order.
    certs: Certificates,
    /// A peer's value waits for [`CbcBatch::admit`] to be echoed.
    gated: bool,
    started: bool,
    out: Batcher,
}

/// The packet a CBC INITIAL fragment airs in.
pub(crate) fn cbc_init(instance: u8, f: Fragment, init_nack: InitNack) -> Body {
    Body::CbcInit {
        instance,
        frag: f.frag,
        frag_total: f.frag_total,
        root: f.root,
        data: f.data,
        init_nack,
    }
}

impl CbcBatch {
    /// Creates the batch over the `(2f, n)` CBC key set.
    pub fn new(p: Params, keys: PublicKeySet, secret: SecretKeyShare) -> Self {
        CbcBatch {
            init: Initial::new(p.n, cbc_init),
            certs: Certificates::cbc_echo(p, keys, secret),
            gated: false,
            started: false,
            out: Batcher::new(&p, TIMER_RETX),
        }
    }

    /// The same batch, echoing a peer's value only once [`CbcBatch::admit`]
    /// admits it (its own at `start`).
    pub fn gated(self) -> Self {
        CbcBatch { gated: true, ..self }
    }

    /// Echoes every held value `valid` admits; offered again as what
    /// `valid` reads grows.
    pub fn admit(&mut self, valid: impl Fn(&Bytes) -> bool, acts: &mut Actions) {
        for j in 0..self.p().n {
            if self.certs.own(j).is_none() && self.init[j].held().is_some_and(|(v, _)| valid(v)) {
                self.echo(j, acts);
            }
        }
        self.flush(acts);
    }

    fn p(&self) -> &Params {
        self.certs.p()
    }

    fn build_ef(&self) -> Body {
        // A certificate is held only over the claimed root: combined over
        // the held value's, or adopted, which claims the root it verified
        // under.
        let rooted = |(j, sig): (u8, ThresholdSignature)| {
            Some((j, self.init[usize::from(j)].claimed_root()?, sig))
        };
        Body::CbcEchoFinish {
            echo_shares: self.certs.shares(),
            finish_sigs: self.certs.certificates().into_iter().filter_map(rooted).collect(),
            echo_nack: self.certs.echo_nack(),
            finish_nack: self.certs.finish_nack(),
            init_nack: self.init.init_nack(),
        }
    }

    /// ECHO: signs `instance`'s held value's root, once; the share and
    /// whatever it completed ride in the next combined packet.
    fn echo(&mut self, instance: usize, acts: &mut Actions) {
        if let Some((_, root)) = self.init[instance].held() {
            self.out.changed_if(self.certs.sign(instance, &root, acts));
        }
    }

    /// A heard INITIAL fragment; a completed value is echoed unless gated.
    fn handle_init(&mut self, from: usize, instance: usize, f: Fragment, acts: &mut Actions) {
        if let Accepted::Assembled(_) = self.init.heard(from, instance, f, acts) {
            if !self.gated {
                self.echo(instance, acts);
            }
            self.out.changed();
        }
    }

    fn flush(&mut self, acts: &mut Actions) {
        if self.out.flush() {
            let body = self.build_ef();
            self.out.send(body, acts);
        }
    }
}

impl Broadcaster for CbcBatch {
    fn start(&mut self, my_value: Bytes, acts: &mut Actions) {
        assert!(!self.started, "CbcBatch started twice");
        self.started = true;
        let me = self.p().me;
        self.init.hold(me, my_value);
        self.echo(me, acts);
        self.init.air(me, acts);
        self.out.changed();
        self.flush(acts);
        self.out.arm(acts);
    }

    fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions) {
        if from >= self.p().n {
            return;
        }
        match body {
            Body::CbcInit { instance, frag, frag_total, root, data, init_nack } => {
                self.init.note(init_nack, &mut self.out);
                let (frag, frag_total, root) = (*frag, *frag_total, *root);
                let fragment = Fragment { frag, frag_total, root, data: data.clone() };
                self.handle_init(from, usize::from(*instance), fragment, acts);
            }
            Body::CbcEchoFinish { echo_shares, finish_sigs, echo_nack, finish_nack, init_nack } => {
                let n = self.p().n;
                // Evidence the value was aired whole: a share or a
                // certificate is over the value.
                for (j, share) in echo_shares {
                    let j = *j as usize;
                    self.init.aired(j);
                    if let Some(root) = self.init.get(j).and_then(|a| a.claimed_root()) {
                        self.out.changed_if(self.certs.record(j, &root, *share, acts));
                    }
                }
                for &(j, root, ref sig) in finish_sigs {
                    let j = j as usize;
                    if j >= n {
                        continue;
                    }
                    self.init.aired(j);
                    // Checked against the root beside it; one that verifies
                    // is the root whose fragments are taken.
                    if self.init[j].held().is_some_and(|(_, held)| held != root) {
                        continue;
                    }
                    let adopted = self.certs.adopt(j, &root, sig, acts);
                    if adopted {
                        self.init.claim(j, root);
                    }
                    self.out.changed_if(adopted);
                }
                // What the sender holds, then NACK evidence: peers missing
                // what we have.
                let named = echo_shares.iter().map(|e| e.0).chain(finish_sigs.iter().map(|e| e.0));
                let named = named.map(usize::from).chain(init_nack.iter().map(|(j, _)| j));
                let named = named.chain(echo_nack.iter_set()).chain(finish_nack.iter_set());
                self.certs.heard(from, finish_nack, &stated(self.p(), named));
                self.init.note(init_nack, &mut self.out);
                for j in 0..n {
                    let asks = |nack: &Bitmap| nack.len() == n && nack.get(j);
                    let lacks_finish = asks(finish_nack) && self.certs.cert(j).is_some();
                    let lacks_echo = asks(echo_nack) && self.certs.own(j).is_some();
                    if lacks_finish || lacks_echo {
                        self.out.peer_lacks(j, 0);
                    }
                }
            }
            _ => {}
        }
        self.flush(acts);
    }

    fn on_timer(&mut self, local_id: u32, acts: &mut Actions) {
        if let Some(behind) = self.out.tick(local_id, self.delivered_count() == self.p().n, acts) {
            self.init.air_due(acts);
            let body = self.build_ef();
            self.out.resend(behind, body, acts);
        }
    }

    fn delivered(&self, instance: usize) -> Option<&Bytes> {
        self.certs.cert(instance)?;
        self.init[instance].value()
    }

    fn delivered_count(&self) -> usize {
        (0..self.p().n).filter(|&j| self.delivered(j).is_some()).count()
    }
}

/// CBC over *small* values — node-id lists carried inline as N-bit sets
/// (paper Fig. 5b): the INITIAL phase is folded into the combined packet,
/// saving one phase of channel accesses. Dumbo's `CBC_value` and
/// `CBC_commit` use this.
#[derive(Debug)]
pub struct CbcSmallBatch {
    values: Vec<Option<Bitmap>>,
    /// Echo shares and certificate per instance, over [`small_root`].
    certs: Certificates,
    /// A peer's value waits for [`CbcSmallBatch::admit`] to be echoed.
    gated: bool,
    out: Batcher,
}

/// Digest a small value (bitmap) for signing.
fn small_root(v: &Bitmap) -> Digest32 {
    Digest32::of_parts("wbft/cbc-small/value", &[&v.to_raw().to_le_bytes(), &[v.len() as u8]])
}

impl CbcSmallBatch {
    /// Creates the batch over the `(2f, n)` CBC key set.
    pub fn new(p: Params, keys: PublicKeySet, secret: SecretKeyShare) -> Self {
        CbcSmallBatch {
            values: vec![None; p.n],
            certs: Certificates::cbc_echo(p, keys, secret),
            gated: false,
            out: Batcher::new(&p, TIMER_RETX),
        }
    }

    /// The same batch, echoing a peer's value only once
    /// [`CbcSmallBatch::admit`] admits it (its own at `start`).
    pub fn gated(self) -> Self {
        CbcSmallBatch { gated: true, ..self }
    }

    /// Echoes every held value `valid` admits; offered again as what
    /// `valid` reads grows. A batch that holds no value arms no tick here.
    pub fn admit(&mut self, valid: impl Fn(&Bitmap) -> bool, acts: &mut Actions) {
        let mut echoed = false;
        for j in 0..self.p().n {
            if self.certs.own(j).is_none() && self.values[j].is_some_and(|v| valid(&v)) {
                self.echo(j, acts);
                echoed = true;
            }
        }
        if echoed {
            self.flush(acts);
        }
    }

    fn p(&self) -> &Params {
        self.certs.p()
    }

    /// Starts with this node's id-list value.
    pub fn start(&mut self, my_value: Bitmap, acts: &mut Actions) {
        let me = self.p().me;
        self.values[me] = Some(my_value);
        self.echo(me, acts);
        self.out.changed();
        self.flush(acts);
    }

    /// Delivered value of an instance.
    pub fn delivered_value(&self, instance: usize) -> Option<Bitmap> {
        self.certs.cert(instance)?;
        self.values[instance]
    }

    /// Number of delivered instances.
    pub fn delivered_count(&self) -> usize {
        (0..self.p().n).filter(|&j| self.delivered_value(j).is_some()).count()
    }

    /// The root an instance's shares sign, once its value is known.
    fn root_of(&self, instance: usize) -> Option<Digest32> {
        self.values.get(instance)?.as_ref().map(small_root)
    }

    fn echo(&mut self, instance: usize, acts: &mut Actions) {
        if let Some(root) = self.root_of(instance) {
            self.out.changed_if(self.certs.sign(instance, &root, acts));
        }
    }

    fn build(&self) -> Body {
        let n = self.p().n;
        let mut init_nack = Bitmap::new(n);
        for (j, v) in self.values.iter().enumerate() {
            init_nack.set(j, v.is_none());
        }
        Body::CbcSmall {
            values: self.values.iter().map(|v| v.unwrap_or_else(|| Bitmap::new(0))).collect(),
            echo_shares: self.certs.shares(),
            finish_sigs: self.certs.certificates(),
            init_nack,
            echo_nack: self.certs.echo_nack(),
            finish_nack: self.certs.finish_nack(),
        }
    }

    fn flush(&mut self, acts: &mut Actions) {
        if self.out.flush() {
            let body = self.build();
            self.out.send(body, acts);
        }
        self.out.arm(acts);
    }

    /// Processes a packet for this session.
    pub fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions) {
        let n = self.p().n;
        if from >= n {
            return;
        }
        // The echo NACK goes unread: see `Certificates`.
        let Body::CbcSmall { values, echo_shares, finish_sigs, init_nack, finish_nack, .. } = body
        else {
            return;
        };
        if values.len() == n {
            for (j, v) in values.iter().enumerate() {
                if !v.is_empty() && self.values[j].is_none() {
                    self.values[j] = Some(*v);
                    if !self.gated {
                        self.echo(j, acts);
                    }
                }
            }
        }
        for (j, share) in echo_shares {
            let j = *j as usize;
            if let Some(root) = self.root_of(j) {
                self.out.changed_if(self.certs.record(j, &root, *share, acts));
            }
        }
        for (j, sig) in finish_sigs {
            let j = *j as usize;
            if let Some(root) = self.root_of(j) {
                self.out.changed_if(self.certs.adopt(j, &root, sig, acts));
            }
        }
        // A CBC-small packet is never split: it states every instance.
        self.certs.heard(from, finish_nack, &Bitmap::full(n));
        if (init_nack.len() == n && init_nack.iter_set().any(|j| self.values[j].is_some()))
            || (finish_nack.len() == n
                && finish_nack.iter_set().any(|j| self.certs.cert(j).is_some()))
        {
            self.out.peer_behind();
        }
        self.flush(acts);
    }

    /// Handles the retransmission tick.
    pub fn on_timer(&mut self, local_id: u32, acts: &mut Actions) {
        if let Some(behind) = self.out.tick(local_id, self.delivered_count() == self.p().n, acts) {
            let body = self.build();
            self.out.resend(behind, body, acts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::deal_node_crypto;
    use crate::instance::tests::initial::{asks, five_fragment_proposer, tick, Component};
    use crate::instance::{echo_msg, InitBody};
    use crate::rbc::tests::{run_mesh, Packing, PACKINGS};
    use rand::SeedableRng;
    use wbft_crypto::CryptoSuite;

    fn make() -> Vec<CbcBatch> {
        make_packed(Packing::Combined)
    }

    fn make_packed(packing: Packing) -> Vec<CbcBatch> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        deal_node_crypto(4, CryptoSuite::light(), &mut rng)
            .into_iter()
            .enumerate()
            .map(|(i, c)| CbcBatch::new(Params::new(4, i, 5).packed(packing), c.cbc_pub, c.cbc_sec))
            .collect()
    }

    #[test]
    fn all_instances_deliver_with_proofs() {
        for packing in PACKINGS {
            let mut nodes = make_packed(packing);
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
                    assert!(node.certs.cert(j).is_some(), "missing certificate for {j}");
                }
            }
        }
    }

    #[test]
    fn accessors_answer_none_out_of_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(59);
        let c = deal_node_crypto(4, CryptoSuite::light(), &mut rng).remove(0);
        let n = 4;
        for packing in PACKINGS {
            let p = Params::new(4, 0, 7).packed(packing);
            assert_eq!(crate::rbc::RbcBatch::new(p).delivered_root(n), None);
            let small = CbcSmallBatch::new(p, c.cbc_pub.clone(), c.cbc_sec.clone());
            assert!(small.delivered_value(n).is_none());
            let batched = CbcBatch::new(p, c.cbc_pub.clone(), c.cbc_sec.clone());
            assert!(batched.delivered(n).is_none());
            let batched = crate::prbc::PrbcBatch::new(p, c.prbc_pub.clone(), c.prbc_sec.clone());
            assert!(batched.proof(n).is_none() && batched.delivered(n).is_none());
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
        let sig = nodes[0].certs.cert(2).unwrap();
        let root = Digest32::of(&vals[2]);
        let keys = &nodes[0].certs.keys;
        keys.verify(&echo_msg(5, 2, &root), sig).unwrap();
        assert!(keys.verify(&echo_msg(5, 3, &root), sig).is_err());
    }

    impl Component for CbcBatch {
        const INIT: InitBody = cbc_init;

        fn node(me: usize) -> Self {
            make().swap_remove(me)
        }

        fn initial(&self) -> &Initial {
            &self.init
        }

        fn asking(init_nack: InitNack) -> Body {
            certified(Vec::new(), init_nack)
        }

        /// A CBC packet names a root only beside a certificate: here one
        /// over another value, which does not verify under `root`.
        fn naming(root: Digest32) -> Vec<Body> {
            let mut rng = rand::rngs::StdRng::seed_from_u64(23);
            let crypto = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
            let msg = echo_msg(5, 0, &Digest32::of(b"another value"));
            let shares: Vec<_> = crypto[..3].iter().map(|c| c.cbc_sec.sign_share(&msg)).collect();
            let sig = crypto[0].cbc_pub.combine(&shares).unwrap();
            vec![certified(vec![(0, root, sig)], InitNack::new(4))]
        }
    }

    /// A FINISH certificate beside the root it signs.
    type Certified = (u8, Digest32, ThresholdSignature);

    /// A combined packet that carries nothing but `finish_sigs` and
    /// `init_nack`.
    fn certified(finish_sigs: Vec<Certified>, init_nack: InitNack) -> Body {
        let (echo_nack, finish_nack) = (Bitmap::new(4), Bitmap::new(4));
        let echo_shares = Vec::new();
        Body::CbcEchoFinish { echo_shares, finish_sigs, echo_nack, finish_nack, init_nack }
    }

    #[test]
    fn an_echo_share_shows_the_value_was_aired() {
        let (_, inits, _) = five_fragment_proposer::<CbcBatch>();
        let mut nodes = make();
        let mut acts = Actions::new();
        for frag in [0, 1, 3] {
            nodes[1].handle(0, &inits[frag], &mut acts);
        }
        let gap = [(0, Bitmap::from_raw(0b00100, 5))];
        let all_missing = [(0, Bitmap::from_raw(0b10100, 5))];
        // Another node's echo share: it held the whole value.
        for body in &inits {
            nodes[2].handle(0, body, &mut acts);
        }
        let echoed = nodes[2].build_ef();
        assert_eq!(asks(&tick(&mut nodes[1]).0), gap);
        nodes[1].handle(2, &echoed, &mut acts);
        assert_eq!(asks(&tick(&mut nodes[1]).0), all_missing, "an echo share");
    }

    #[test]
    fn a_certificate_is_checked_under_the_root_beside_it_and_then_decides_the_root() {
        // Every node delivers node 0's five-fragment value. Once a restarted
        // node 1's packet NACKs every certificate, node 0's packet carries
        // them all again.
        let mut nodes = make();
        let val = Bytes::from(vec![5u8; FRAG_BUDGET * 4 + 10]);
        let vals = [val.clone(), Bytes::from_static(b"w-1"), Bytes::from_static(b"w-2"), Bytes::from_static(b"w-3")];
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
        let (_, inits, _) = five_fragment_proposer::<CbcBatch>();
        let restarted = make().remove(1).build_ef();
        nodes[0].handle(1, &restarted, &mut Actions::new());
        let Body::CbcEchoFinish { finish_sigs, .. } = nodes[0].build_ef() else { unreachable!() };
        // Every certificate travels beside the root it signs, and only there.
        let root = Digest32::of(&val);
        assert_eq!(finish_sigs.len(), 4);
        assert!(finish_sigs.iter().all(|&(j, r, _)| r == Digest32::of(&vals[usize::from(j)])));
        let (_, _, sig) = finish_sigs[0];
        let beside = |root| certified(vec![(0, root, sig)], InitNack::new(4));
        // A fresh node first takes an equivocator's fragment under another root.
        let mut b = make().remove(1);
        let mut acts = Actions::new();
        let forged = Digest32::of(b"an equivocator's root");
        let data = Bytes::from_static(b"x");
        b.handle_init(0, 0, Fragment { frag: 0, frag_total: 5, root: forged, data }, &mut acts);
        assert_eq!(b.init[0].claimed_root(), Some(forged));
        // The certificate beside a false root does not verify.
        b.handle(2, &beside(forged), &mut acts);
        assert!(b.certs.cert(0).is_none());
        // Beside the root it certifies it does, and that root now decides.
        b.handle(2, &beside(root), &mut acts);
        assert!(b.certs.cert(0).is_some());
        assert_eq!(b.init[0].claimed_root(), Some(root));
        for body in &inits {
            b.handle(0, body, &mut acts);
        }
        assert_eq!(b.delivered(0), Some(&val));
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
    fn a_gated_node_echoes_a_value_only_once_it_admits_it() {
        // Node 0's value names instances 1 and 2. Gated node 1 holds the
        // proof of instance 1 only, then of instance 2 as well.
        let (lacking, holding) = (Bitmap::from_raw(0b0011, 4), Bitmap::from_raw(0b0111, 4));
        for packing in PACKINGS {
            let mut nodes = make_packed(packing);
            let mut acts = Actions::new();
            nodes[0].start(Bytes::from_static(&[1, 2]), &mut acts);
            let mut node = nodes.swap_remove(1).gated();
            for body in acts.drain().0 {
                node.handle(0, &body, &mut acts);
            }
            assert!(node.init[0].value().is_some(), "{packing:?}: value held");
            for proven in [lacking, holding] {
                node.admit(|v| v.iter().all(|&j| proven.get(usize::from(j))), &mut acts);
                let signed = node.certs.own(0).is_some();
                assert_eq!(signed, proven == holding, "{packing:?}: echoed under {proven:?}");
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let crypto = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        let small = |i: usize| {
            let c = &crypto[i];
            CbcSmallBatch::new(Params::new(4, i, 6), c.cbc_pub.clone(), c.cbc_sec.clone())
        };
        let mut acts = Actions::new();
        let mut node = small(1).gated();
        // Holding no value, it neither sends nor arms its tick.
        node.admit(|_| true, &mut acts);
        let (sends, timers, _) = acts.drain();
        assert!(sends.is_empty() && timers.is_empty(), "small: idle admit aired or armed");
        small(0).start(Bitmap::from_raw(0b0110, 4), &mut acts);
        for body in acts.drain().0 {
            node.handle(0, &body, &mut acts);
        }
        let echoes = |sent: Vec<Body>| {
            let echoes = |b: &Body| matches!(b, Body::CbcSmall { echo_shares, .. } if echo_shares.iter().any(|e| e.0 == 0));
            sent.iter().any(echoes)
        };
        assert!(!echoes(acts.drain().0), "echoed on arrival");
        for proven in [lacking, holding] {
            node.admit(|v| v.iter_set().all(|j| proven.get(j)), &mut acts);
            assert_eq!(echoes(acts.drain().0), proven == holding, "small: echoed under {proven:?}");
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
}
