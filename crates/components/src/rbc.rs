//! Batched Bracha reliable broadcast — N parallel RBC instances sharing
//! packets (paper Fig. 4a).
//!
//! Instance `j`'s proposer is node `j`. The INITIAL phase ships the
//! proposal in fragments (`RBC_INIT` packets, one per fragment); the ECHO
//! and READY phases of *all N instances* ride in one combined `RBC_ER`
//! packet per channel access (vertical batching), with ECHO and READY
//! folded together (horizontal batching). NACK bits drive retransmission:
//! each node periodically rebroadcasts its combined packet while it is
//! behind or sees evidence a peer is, and proposal holders re-send INITIAL
//! fragments when `Initial_nack` bits implicate an instance they can serve.
//!
//! Votes are cast on the proposal digest, so equivocation by a Byzantine
//! proposer splits the vote and the instance simply never delivers (its ABA
//! then decides 0); if any honest node delivers a value, every honest node
//! eventually delivers the same value (Bracha's agreement + totality, which
//! the integration tests exercise under loss and Byzantine proposers).

use crate::context::{Actions, Broadcaster, Params, RetxState};
use bytes::Bytes;
use wbft_crypto::hash::Digest32;
use wbft_net::{Bitmap, Body, RetransmitPolicy};

/// Maximum proposal bytes carried per INITIAL fragment (fits a LoRa frame
/// after header, root, NACK and signature).
pub const FRAG_BUDGET: usize = 150;

/// Local timer id of the retransmission tick.
const TIMER_RETX: u32 = 0;

#[derive(Debug, Default)]
struct Inst {
    /// Proposal root claimed by the first INITIAL fragment (or vote) seen.
    /// Once `value` is held this *is* its digest and no longer changes: a
    /// value is stored only after it hashed to this root (`handle_init`) or
    /// together with the root just computed from it (`start`), and the root
    /// is reset only while no value is held.
    claimed_root: Option<Digest32>,
    /// Fragment buffer (sized on first fragment).
    frags: Vec<Option<Bytes>>,
    /// Assembled and digest-verified proposal.
    value: Option<Bytes>,
    /// Per node: the root they echoed (index = node id, includes self).
    echo_roots: Vec<Option<Digest32>>,
    /// Per node: the root they declared ready.
    ready_roots: Vec<Option<Digest32>>,
    /// Root this node echoes.
    my_echo: Option<Digest32>,
    /// Root this node is ready on.
    my_ready: Option<Digest32>,
    /// Delivered output.
    delivered: Option<Bytes>,
    /// A peer NACKed this instance's proposal and we can serve it.
    peers_need_init: bool,
}

impl Inst {
    fn new(n: usize) -> Self {
        Inst {
            echo_roots: vec![None; n],
            ready_roots: vec![None; n],
            ..Inst::default()
        }
    }

    /// Root with the most echoes and its count.
    fn echo_quorum(&self) -> Option<(Digest32, usize)> {
        count_votes(&self.echo_roots)
    }

    fn ready_quorum(&self) -> Option<(Digest32, usize)> {
        count_votes(&self.ready_roots)
    }

    /// The root this node's votes refer to in the combined packet.
    fn vote_root(&self) -> Option<Digest32> {
        self.my_ready.or(self.my_echo).or(self.claimed_root)
    }
}

/// A held value with its digest — read off the instance's `claimed_root`,
/// which the value was checked against when it was stored, not hashed
/// again. Shared by the RBC and CBC instances and their baseline mirrors,
/// which all keep the invariant documented on `Inst::claimed_root`.
pub(crate) fn held(
    value: &Option<Bytes>,
    claimed_root: Option<Digest32>,
) -> Option<(&Bytes, Digest32)> {
    let held = value.as_ref().zip(claimed_root);
    debug_assert!(held.is_none_or(|(v, root)| Digest32::of(v) == root));
    held
}

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

/// N parallel Bracha RBC instances under ConsensusBatcher.
#[derive(Debug)]
pub struct RbcBatch {
    p: Params,
    insts: Vec<Inst>,
    dirty: bool,
    started: bool,
    retx: RetxState,
}

impl RbcBatch {
    /// Creates the batch (call [`Broadcaster::start`] to begin).
    pub fn new(p: Params) -> Self {
        let insts = (0..p.n).map(|_| Inst::new(p.n)).collect();
        RbcBatch {
            p,
            insts,
            dirty: false,
            started: false,
            retx: RetxState::new(RetransmitPolicy::lora_class(), &p),
        }
    }

    /// The protocol parameters.
    pub fn params(&self) -> &Params {
        &self.p
    }

    /// The delivered root of an instance (PRBC signs this). The delivered
    /// value is the held one, so its digest is the held root.
    pub fn delivered_root(&self, instance: usize) -> Option<Digest32> {
        let inst = &self.insts[instance];
        debug_assert!(inst.delivered.is_none() || inst.delivered == inst.value);
        inst.delivered.as_ref().and(held(&inst.value, inst.claimed_root)).map(|(_, root)| root)
    }

    fn send_init_frags(&self, instance: usize, acts: &mut Actions) {
        let inst = &self.insts[instance];
        let Some((value, root)) = held(&inst.value, inst.claimed_root) else { return };
        let chunks: Vec<&[u8]> =
            if value.is_empty() { vec![&[][..]] } else { value.chunks(FRAG_BUDGET).collect() };
        let total = chunks.len() as u8;
        for (i, chunk) in chunks.iter().enumerate() {
            acts.send(Body::RbcInit {
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
            // Missing the proposal while votes (or a claimed root) prove the
            // instance exists.
            let interesting = inst.claimed_root.is_some()
                || inst.echo_roots.iter().any(Option::is_some)
                || inst.ready_roots.iter().any(Option::is_some);
            if inst.value.is_none() && interesting {
                nack.set(j, true);
            }
        }
        nack
    }

    fn build_er(&self) -> Body {
        let n = self.p.n;
        let mut roots = vec![Digest32::zero(); n];
        let mut echo = Bitmap::new(n);
        let mut ready = Bitmap::new(n);
        let mut echo_nack = Bitmap::new(n);
        let mut ready_nack = Bitmap::new(n);
        for (j, inst) in self.insts.iter().enumerate() {
            if let Some(r) = inst.vote_root() {
                roots[j] = r;
                echo.set(j, inst.my_echo == Some(r));
                ready.set(j, inst.my_ready == Some(r));
            }
            if inst.delivered.is_none() {
                let eq = inst.echo_quorum().map(|(_, c)| c).unwrap_or(0);
                let rq = inst.ready_quorum().map(|(_, c)| c).unwrap_or(0);
                echo_nack.set(j, eq < self.p.quorum());
                ready_nack.set(j, rq < self.p.quorum());
            }
        }
        Body::RbcEchoReady {
            roots,
            echo,
            ready,
            echo_nack,
            ready_nack,
            init_nack: self.init_nack(),
        }
    }

    /// Re-evaluates vote quorums for one instance, mutating local votes.
    fn advance(&mut self, j: usize) {
        let p = self.p;
        let inst = &mut self.insts[j];
        // READY on 2f+1 echoes or f+1 readies (Bracha amplification).
        if inst.my_ready.is_none() {
            if let Some((root, c)) = inst.echo_quorum() {
                if c >= p.quorum() {
                    inst.my_ready = Some(root);
                    inst.ready_roots[p.me] = Some(root);
                    self.dirty = true;
                }
            }
        }
        if inst.my_ready.is_none() {
            if let Some((root, c)) = inst.ready_quorum() {
                if c > p.f {
                    inst.my_ready = Some(root);
                    inst.ready_roots[p.me] = Some(root);
                    self.dirty = true;
                }
            }
        }
        // DELIVER on 2f+1 readies, once the matching value is held.
        if inst.delivered.is_none() {
            if let Some((root, c)) = inst.ready_quorum() {
                // Without the matching value our init_nack bit for j is set
                // and holders re-send.
                if c >= p.quorum()
                    && held(&inst.value, inst.claimed_root).is_some_and(|(_, r)| r == root)
                {
                    inst.delivered = inst.value.clone();
                    self.dirty = true;
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
    ) {
        if instance >= self.p.n || frag_total == 0 || frag >= frag_total || frag_total > 64 {
            return;
        }
        let me = self.p.me;
        let inst = &mut self.insts[instance];
        if inst.value.is_some() {
            return; // already assembled
        }
        if inst.claimed_root.is_none() {
            inst.claimed_root = Some(root);
        }
        if inst.claimed_root != Some(root) {
            return; // equivocating proposer; stick with the first claim
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
                }
                self.dirty = true;
            } else {
                // Corrupt assembly (mismatched fragments from an
                // equivocator): reset and re-NACK.
                inst.frags.clear();
                inst.claimed_root = None;
            }
        }
        self.advance(instance);
    }

    // One parameter per field of the combined ER packet; bundling them
    // into a struct would just duplicate `Body::RbcEchoReady`.
    #[allow(clippy::too_many_arguments)]
    fn handle_er(
        &mut self,
        from: usize,
        roots: &[Digest32],
        echo: &Bitmap,
        ready: &Bitmap,
        echo_nack: &Bitmap,
        ready_nack: &Bitmap,
        init_nack: &Bitmap,
    ) {
        if roots.len() != self.p.n || echo.len() != self.p.n {
            return;
        }
        for (j, &root) in roots.iter().enumerate() {
            if !root.is_zero() {
                if echo.get(j) && self.insts[j].echo_roots[from].is_none() {
                    self.insts[j].echo_roots[from] = Some(root);
                }
                if ready.get(j) && self.insts[j].ready_roots[from].is_none() {
                    self.insts[j].ready_roots[from] = Some(root);
                }
                // Learning a claimed root from votes lets us NACK the value.
                if self.insts[j].claimed_root.is_none() {
                    self.insts[j].claimed_root = Some(root);
                }
            }
            // Peer lacks the proposal we hold → schedule INITIAL re-send.
            if init_nack.len() == self.p.n
                && init_nack.get(j)
                && self.insts[j].value.is_some()
            {
                self.insts[j].peers_need_init = true;
                self.retx.peer_behind = true;
            }
            // Peer lacks quorums we already have votes for → our combined
            // packet helps them; mark for retransmission.
            if (echo_nack.len() == self.p.n && echo_nack.get(j) && self.insts[j].my_echo.is_some())
                || (ready_nack.len() == self.p.n
                    && ready_nack.get(j)
                    && self.insts[j].my_ready.is_some())
            {
                self.retx.peer_behind = true;
            }
            self.advance(j);
        }
    }

    fn flush(&mut self, acts: &mut Actions) {
        if self.dirty {
            acts.send(self.build_er());
            self.dirty = false;
            self.retx.reset();
        }
    }

    fn is_complete(&self) -> bool {
        self.insts.iter().all(|i| i.delivered.is_some())
    }
}

impl Broadcaster for RbcBatch {
    fn start(&mut self, my_value: Bytes, acts: &mut Actions) {
        assert!(!self.started, "RbcBatch started twice");
        self.started = true;
        let me = self.p.me;
        let root = Digest32::of(&my_value);
        {
            let inst = &mut self.insts[me];
            inst.claimed_root = Some(root);
            inst.value = Some(my_value);
            inst.my_echo = Some(root);
            inst.echo_roots[me] = Some(root);
        }
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
            Body::RbcInit { instance, frag, frag_total, root, data, init_nack } => {
                if init_nack.len() == self.p.n {
                    for j in init_nack.iter_set() {
                        if self.insts[j].value.is_some() {
                            self.insts[j].peers_need_init = true;
                            self.retx.peer_behind = true;
                        }
                    }
                }
                self.handle_init(*instance as usize, *frag as usize, *frag_total as usize, *root, data);
            }
            Body::RbcEchoReady { roots, echo, ready, echo_nack, ready_nack, init_nack } => {
                self.handle_er(from, roots, echo, ready, echo_nack, ready_nack, init_nack);
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
            // Serve NACKed proposals first, then the combined vote packet.
            for j in 0..self.p.n {
                if self.insts[j].peers_need_init {
                    self.send_init_frags(j, acts);
                    self.insts[j].peers_need_init = false;
                }
            }
            acts.send(self.build_er());
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Drives a set of in-memory nodes to completion by synchronously
    /// exchanging every send with every other node (no losses). Returns the
    /// number of "channel accesses" (sends) performed.
    pub(crate) fn run_mesh<C>(
        nodes: &mut [C],
        mut start: impl FnMut(&mut C, &mut Actions),
        mut handle: impl FnMut(&mut C, usize, &Body, &mut Actions),
        mut done: impl FnMut(&C) -> bool,
    ) -> usize {
        let mut inbox: Vec<(usize, Body)> = Vec::new();
        let mut sends = 0;
        for (i, node) in nodes.iter_mut().enumerate() {
            let mut acts = Actions::new();
            start(node, &mut acts);
            for body in acts.drain().0 {
                sends += 1;
                inbox.push((i, body));
            }
        }
        let mut steps = 0;
        while let Some((src, body)) = inbox.pop() {
            steps += 1;
            assert!(steps < 100_000, "mesh did not converge");
            for (i, node) in nodes.iter_mut().enumerate() {
                if i == src {
                    continue;
                }
                let mut acts = Actions::new();
                handle(node, src, &body, &mut acts);
                for b in acts.drain().0 {
                    sends += 1;
                    inbox.push((i, b));
                }
            }
            if nodes.iter().all(&mut done) {
                break;
            }
        }
        assert!(nodes.iter().all(done), "not all nodes completed");
        sends
    }

    fn params(me: usize) -> Params {
        Params::new(4, me, 7)
    }

    fn values() -> Vec<Bytes> {
        (0..4).map(|i| Bytes::from(format!("proposal-{i}"))).collect()
    }

    #[test]
    fn all_nodes_deliver_all_instances() {
        let mut nodes: Vec<RbcBatch> = (0..4).map(|i| RbcBatch::new(params(i))).collect();
        let vals = values();
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
            for (j, v) in vals.iter().enumerate() {
                assert_eq!(node.delivered(j), Some(v));
            }
        }
    }

    #[test]
    fn multi_fragment_proposals_assemble() {
        let mut nodes: Vec<RbcBatch> = (0..4).map(|i| RbcBatch::new(params(i))).collect();
        let big: Vec<Bytes> =
            (0..4).map(|i| Bytes::from(vec![i as u8; FRAG_BUDGET * 3 + 17])).collect();
        let mut i = 0;
        run_mesh(
            &mut nodes,
            |n, acts| {
                n.start(big[i].clone(), acts);
                i += 1;
            },
            |n, from, body, acts| n.handle(from, body, acts),
            |n| n.delivered_count() == 4,
        );
        assert_eq!(nodes[2].delivered(1), Some(&big[1]));
    }

    #[test]
    fn silent_proposer_instance_does_not_deliver_but_others_do() {
        // Node 3 never starts (crashed before proposing).
        let mut nodes: Vec<RbcBatch> = (0..4).map(|i| RbcBatch::new(params(i))).collect();
        let vals = values();
        let mut inbox: Vec<(usize, Body)> = Vec::new();
        for i in 0..3 {
            let mut acts = Actions::new();
            nodes[i].start(vals[i].clone(), acts.by_ref());
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
                if i == src {
                    continue;
                }
                let mut acts = Actions::new();
                node.handle(src, &body, &mut acts);
                for b in acts.drain().0 {
                    inbox.push((i, b));
                }
            }
        }
        for node in nodes.iter().take(3) {
            assert_eq!(node.delivered_count(), 3, "instances 0-2 deliver");
            assert!(node.delivered(3).is_none(), "crashed proposer never delivers");
        }
    }

    #[test]
    fn retransmission_serves_nacked_proposal() {
        // Node 1 misses node 0's INIT; its ER packet NACKs instance 0 and a
        // subsequent timer tick at node 0 re-serves the fragments.
        let mut a = RbcBatch::new(params(0));
        let mut b = RbcBatch::new(params(1));
        let mut acts = Actions::new();
        a.start(Bytes::from_static(b"va"), &mut acts);
        let (_a_sends, _, _) = acts.drain(); // drop: b never sees INIT

        let mut acts = Actions::new();
        b.start(Bytes::from_static(b"vb"), &mut acts);
        let (b_sends, _, _) = acts.drain();
        // Feed b's packets (including its votes) to a.
        let mut a_acts = Actions::new();
        for body in &b_sends {
            a.handle(1, body, &mut a_acts);
        }
        // b hasn't voted on instance 0 yet (it saw nothing); now deliver
        // a's ER (which b missed INIT for) so b learns instance 0 exists.
        let er = a.build_er();
        let mut b_acts = Actions::new();
        b.handle(0, &er, &mut b_acts);
        let _ = b_acts.drain();
        // NACKs ride on the periodic tick: b's next retransmission must
        // NACK instance 0's proposal.
        let mut b_tick = Actions::new();
        b.on_timer(TIMER_RETX, &mut b_tick);
        let (b2, _, _) = b_tick.drain();
        let nacked = b2.iter().any(|body| match body {
            Body::RbcEchoReady { init_nack, .. } => init_nack.get(0),
            _ => false,
        });
        assert!(nacked, "b should NACK the missing proposal");
        // Deliver b's NACK to a, then tick a's timer: INIT must be re-sent.
        let mut a_acts = Actions::new();
        for body in &b2 {
            a.handle(1, body, &mut a_acts);
        }
        let mut tick = Actions::new();
        a.on_timer(TIMER_RETX, &mut tick);
        let (resent, _, _) = tick.drain();
        assert!(
            resent.iter().any(|b| matches!(b, Body::RbcInit { instance: 0, .. })),
            "timer tick must re-serve the NACKed INIT, got {resent:?}"
        );
    }

    #[test]
    fn a_served_root_is_the_digest_of_the_value_it_is_served_for() {
        // Node 3's second INITIAL fragment is corrupted on the air: nobody
        // else can assemble its proposal, instances 0–2 deliver everywhere.
        let mut nodes: Vec<RbcBatch> = (0..4).map(|i| RbcBatch::new(params(i))).collect();
        let mut vals = values();
        vals[3] = Bytes::from(vec![3u8; FRAG_BUDGET + 10]);
        let mut i = 0;
        run_mesh(
            &mut nodes,
            |n, acts| {
                n.start(vals[i].clone(), acts);
                i += 1;
            },
            |n, from, body, acts| match body {
                Body::RbcInit { instance: 3, frag: 1, frag_total, root, init_nack, .. } => {
                    let corrupt = Body::RbcInit {
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
                assert_eq!(node.delivered_root(j), node.delivered(j).map(|v| Digest32::of(v)));
            }
        }
        // The failed assembly left neither a value nor a root to serve it
        // under (a root learnt from votes since is a claim, not a digest).
        for node in nodes.iter().take(3) {
            let inst = &node.insts[3];
            assert!(inst.value.is_none() && held(&inst.value, inst.claimed_root).is_none());
            assert!(node.delivered_root(3).is_none());
            let mut acts = Actions::new();
            node.send_init_frags(3, &mut acts);
            assert!(acts.drain().0.is_empty());
        }
        // At the moment of the failed check the claim itself is dropped.
        let mut fresh = RbcBatch::new(params(0));
        let root = Digest32::of(b"claimed");
        fresh.handle_init(3, 0, 1, root, &Bytes::from_static(b"something else"));
        assert!(fresh.insts[3].value.is_none() && fresh.insts[3].claimed_root.is_none());
    }

    #[test]
    fn delivered_count_starts_at_zero() {
        let rbc = RbcBatch::new(params(0));
        assert_eq!(rbc.delivered_count(), 0);
        assert!(rbc.delivered(0).is_none());
        assert!(rbc.delivered_root(0).is_none());
    }

    impl Actions {
        fn by_ref(&mut self) -> &mut Self {
            self
        }
    }
}
