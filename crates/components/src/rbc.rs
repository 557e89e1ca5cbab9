//! Batched Bracha reliable broadcast — N parallel RBC instances sharing
//! packets (paper Fig. 4a).
//!
//! Instance `j`'s proposer is node `j`. The INITIAL phase ships the
//! proposal in fragments (`RBC_INIT` packets, one per fragment); the ECHO
//! and READY phases of *all N instances* ride in one combined `RBC_ER`
//! packet per channel access (vertical batching), with ECHO and READY
//! folded together (horizontal batching). NACK bits drive retransmission:
//! each node periodically rebroadcasts its combined packet while it is
//! behind or sees evidence a peer is.
//!
//! INITIAL fragments are asked for only on evidence they were lost. Once a
//! vote for an instance is heard — its voter held the whole proposal, so
//! every fragment has been aired — a node asks for each fragment it lacks;
//! before that, only for a gap below a fragment it holds, as fragments air
//! in ascending order. Holders re-air the fragments asked for at their next
//! tick, less any another node aired first. Which fragments an instance
//! takes is decided by its first fragment until this node readies on a
//! root (f + 1 honest nodes hold that value), never by a root a peer's
//! packet names.
//!
//! Votes are cast on the proposal digest, so equivocation by a Byzantine
//! proposer splits the vote and the instance simply never delivers (its ABA
//! then decides 0); if any honest node delivers a value, every honest node
//! eventually delivers the same value (Bracha's agreement + totality, which
//! the integration tests exercise under loss and Byzantine proposers).
//!
//! That instance logic is `instance::BrachaInst`; this file gathers N of
//! them into the combined packet, which the `Batcher` airs whole or, for
//! the baseline, one instance per frame.

use crate::context::{Actions, Batcher, Broadcaster, Params};
use crate::instance::{Accepted, BrachaInst, InitNacks};
use bytes::Bytes;
use wbft_crypto::hash::Digest32;
use wbft_net::{Bitmap, Body, InitNack};

pub use crate::instance::{FRAG_BUDGET, MAX_FRAGS, MAX_VALUE_BYTES};

/// Local timer id of the retransmission tick.
const TIMER_RETX: u32 = 0;

/// N parallel Bracha RBC instances under ConsensusBatcher.
#[derive(Debug)]
pub struct RbcBatch {
    p: Params,
    insts: Vec<BrachaInst>,
    /// Peers' NACKs of proposals we can serve.
    init_nacks: InitNacks,
    started: bool,
    out: Batcher,
}

impl RbcBatch {
    /// Creates the batch (call [`Broadcaster::start`] to begin).
    pub fn new(p: Params) -> Self {
        RbcBatch {
            p,
            insts: (0..p.n).map(|_| BrachaInst::new(p.n)).collect(),
            init_nacks: InitNacks::new(p.n),
            started: false,
            out: Batcher::new(&p, TIMER_RETX),
        }
    }

    /// The protocol parameters.
    pub fn params(&self) -> &Params {
        &self.p
    }

    /// The delivered root of an instance (PRBC signs this).
    pub fn delivered_root(&self, instance: usize) -> Option<Digest32> {
        self.insts.get(instance).and_then(BrachaInst::delivered_root)
    }

    /// Airs the fragments of `instance`'s held value that `frags` names
    /// (bit `f` = fragment `f`).
    fn send_init_frags(&self, instance: usize, frags: u64, acts: &mut Actions) {
        let init_nack = self.init_nack();
        for f in self.insts[instance].asm.fragments() {
            if frags >> f.frag & 1 == 1 {
                acts.send(Body::RbcInit {
                    instance: instance as u8,
                    frag: f.frag,
                    frag_total: f.frag_total,
                    root: f.root,
                    data: f.data,
                    init_nack: init_nack.clone(),
                });
            }
        }
    }

    fn init_nack(&self) -> InitNack {
        let mut nack = InitNack::new(self.p.n);
        for (j, inst) in self.insts.iter().enumerate() {
            // A vote shows the whole proposal was aired (its voter held it):
            // ask for every fragment still lacking. Before one, only gaps.
            if let Some(request) = inst.asm.request(inst.votes.any()) {
                nack.ask(j, request);
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
            let (my_echo, my_ready) = (inst.votes.my_echo(), inst.votes.my_ready());
            // The root this node's votes refer to in the combined packet.
            if let Some(r) = my_ready.or(my_echo).or(inst.asm.claimed_root()) {
                roots[j] = r;
                echo.set(j, my_echo == Some(r));
                ready.set(j, my_ready == Some(r));
            }
            if !inst.votes.delivered() {
                echo_nack.set(j, inst.votes.echo_support() < self.p.quorum());
                ready_nack.set(j, inst.votes.ready_support() < self.p.quorum());
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

    /// Re-evaluates vote quorums for one instance; any transition rides in
    /// the next combined packet. The root this node readies on is held by
    /// f + 1 honest nodes, so it decides which fragments are taken.
    fn advance(&mut self, j: usize) {
        let step = self.insts[j].step(&self.p);
        if let Some(root) = step.ready {
            self.insts[j].asm.claim(root);
        }
        self.out.changed_if(step.ready.is_some() || step.delivered);
    }

    fn handle_init(
        &mut self,
        instance: usize,
        frag: usize,
        frag_total: usize,
        root: Digest32,
        data: &Bytes,
    ) {
        let Some(inst) = self.insts.get_mut(instance) else { return };
        if inst.asm.airs(frag, frag_total, root, data) {
            self.init_nacks.overheard(instance, frag);
        }
        match inst.on_fragment(self.p.me, frag, frag_total, root, data) {
            Accepted::Refused => return,
            Accepted::Buffered => {}
            Accepted::Assembled(_) => self.out.changed(),
        }
        self.advance(instance);
    }

    /// Peers lacking fragments of a proposal we hold → schedule their
    /// INITIAL re-send.
    fn note_init_nack(&mut self, init_nack: &InitNack) {
        for j in self.init_nacks.note(init_nack, |j| self.insts[j].asm.frag_count()) {
            self.out.peer_lacks(j, 0);
        }
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "one parameter per field of `Body::RbcEchoReady`; a struct would duplicate it"
    )]
    fn handle_er(
        &mut self,
        from: usize,
        roots: &[Digest32],
        echo: &Bitmap,
        ready: &Bitmap,
        echo_nack: &Bitmap,
        ready_nack: &Bitmap,
        init_nack: &InitNack,
    ) {
        if roots.len() != self.p.n || echo.len() != self.p.n {
            return;
        }
        self.note_init_nack(init_nack);
        for (j, &root) in roots.iter().enumerate() {
            let inst = &mut self.insts[j];
            if !root.is_zero() {
                if echo.get(j) {
                    inst.votes.echo(from, root);
                }
                if ready.get(j) {
                    inst.votes.ready(from, root);
                }
            }
            // Peer lacks quorums we already have votes for → our combined
            // packet helps them; mark for retransmission.
            if (echo_nack.len() == self.p.n && echo_nack.get(j) && inst.votes.my_echo().is_some())
                || (ready_nack.len() == self.p.n
                    && ready_nack.get(j)
                    && inst.votes.my_ready().is_some())
            {
                self.out.peer_lacks(j, 0);
            }
            self.advance(j);
        }
    }

    fn flush(&mut self, acts: &mut Actions) {
        if self.out.flush() {
            let body = self.build_er();
            self.out.send(body, acts);
        }
    }
}

impl Broadcaster for RbcBatch {
    fn start(&mut self, my_value: Bytes, acts: &mut Actions) {
        assert!(!self.started, "RbcBatch started twice");
        self.started = true;
        let me = self.p.me;
        self.insts[me].propose(me, my_value);
        self.send_init_frags(me, u64::MAX, acts);
        self.out.changed();
        self.flush(acts);
        self.out.arm(acts);
    }

    fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions) {
        if from >= self.p.n {
            return;
        }
        match body {
            Body::RbcInit { instance, frag, frag_total, root, data, init_nack } => {
                self.note_init_nack(init_nack);
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
        if let Some(behind) = self.out.tick(local_id, self.delivered_count() == self.p.n, acts) {
            // Serve the NACKed fragments first, then the combined vote packet.
            for (j, frags) in self.init_nacks.take_due() {
                self.send_init_frags(j, frags, acts);
            }
            let body = self.build_er();
            self.out.resend(behind, body, acts);
        }
    }

    fn delivered(&self, instance: usize) -> Option<&Bytes> {
        self.insts.get(instance).and_then(BrachaInst::delivered)
    }

    fn delivered_count(&self) -> usize {
        self.insts.iter().filter(|i| i.votes.delivered()).count()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    pub(crate) use crate::context::Packing;

    /// Drives a set of in-memory nodes to completion by synchronously
    /// exchanging every send with every other node (no losses), joining
    /// per-instance frames as a node's engine does. Returns the number of
    /// "channel accesses" (sends) performed.
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
            let n = nodes.len();
            for (i, node) in nodes.iter_mut().enumerate() {
                if i == src {
                    continue;
                }
                let mut acts = Actions::new();
                handle(node, src, &wbft_net::join(&body, n), &mut acts);
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

    /// Both packings of one component: the batched deployment and the
    /// baseline.
    pub(crate) const PACKINGS: [Packing; 2] = [Packing::Combined, Packing::PerInstance];

    fn values() -> Vec<Bytes> {
        (0..4).map(|i| Bytes::from(format!("proposal-{i}"))).collect()
    }

    #[test]
    fn all_nodes_deliver_all_instances() {
        for packing in PACKINGS {
            let mut nodes: Vec<RbcBatch> =
                (0..4).map(|i| RbcBatch::new(params(i).packed(packing))).collect();
            let vals = values();
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
                for (j, v) in vals.iter().enumerate() {
                    assert_eq!(node.delivered(j), Some(v));
                }
            }
            // Channel-access comparison against batched RBC lives at the
            // simulator level (slot coalescing applies there); here we only
            // sanity-check the baseline's per-phase packet count: at least
            // one INIT + echo + ready per node per instance.
            if packing == Packing::PerInstance {
                assert!(sends >= 4 * (1 + 4 + 4), "suspiciously few baseline sends: {sends}");
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
            Body::RbcEchoReady { init_nack, .. } => init_nack.request(0).is_some(),
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

    /// Node 0's opening sends for a five-fragment proposal: its INITIAL
    /// fragments and its vote packet.
    fn five_fragment_proposer() -> (RbcBatch, Vec<Body>, Body) {
        let mut a = RbcBatch::new(params(0));
        let mut acts = Actions::new();
        a.start(Bytes::from(vec![5u8; FRAG_BUDGET * 4 + 10]), &mut acts);
        let (sends, _, _) = acts.drain();
        let (inits, er): (Vec<Body>, Vec<Body>) =
            sends.into_iter().partition(|b| matches!(b, Body::RbcInit { .. }));
        assert_eq!((inits.len(), er.len()), (5, 1));
        (a, inits, er.into_iter().next().unwrap())
    }

    /// The INITIAL NACK `node`'s next tick airs.
    fn ticked_init_nack(node: &mut RbcBatch) -> InitNack {
        let mut acts = Actions::new();
        node.on_timer(TIMER_RETX, &mut acts);
        let nacks: Vec<InitNack> = acts
            .drain()
            .0
            .into_iter()
            .filter_map(|b| match b {
                Body::RbcEchoReady { init_nack, .. } => Some(init_nack),
                _ => None,
            })
            .collect();
        assert_eq!(nacks.len(), 1, "one vote packet per tick");
        nacks.into_iter().next().unwrap()
    }

    /// The requests of `nack`, by instance.
    pub(crate) fn asks(nack: &InitNack) -> Vec<(usize, Bitmap)> {
        nack.iter().map(|(j, request)| (j, *request)).collect()
    }

    /// A vote packet that says nothing but `init_nack`.
    fn asking(init_nack: InitNack) -> Body {
        Body::RbcEchoReady {
            roots: vec![Digest32::zero(); 4],
            echo: Bitmap::new(4),
            ready: Bitmap::new(4),
            echo_nack: Bitmap::new(4),
            ready_nack: Bitmap::new(4),
            init_nack,
        }
    }

    /// The INITIAL fragments (by index) `node`'s next tick re-airs.
    fn ticked_fragments(node: &mut RbcBatch) -> Vec<u8> {
        let mut acts = Actions::new();
        node.on_timer(TIMER_RETX, &mut acts);
        acts.drain()
            .0
            .iter()
            .filter_map(|b| match b {
                Body::RbcInit { frag, .. } => Some(*frag),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_nack_names_the_one_missing_fragment_and_the_holder_re_airs_only_it() {
        let (mut a, inits, er) = five_fragment_proposer();
        let mut b = RbcBatch::new(params(1));
        let mut acts = Actions::new();
        for (i, body) in inits.iter().enumerate().filter(|(i, _)| *i != 2) {
            b.handle(0, body, &mut acts);
            assert!(b.delivered(0).is_none(), "fragment {i} alone completes nothing");
        }
        b.handle(0, &er, &mut acts);
        let nack = ticked_init_nack(&mut b);
        assert_eq!(asks(&nack), [(0, Bitmap::from_raw(0b00100, 5))], "exactly fragment 2 of 5");
        // The holder's next tick re-airs that fragment alone, not all five.
        a.handle(1, &asking(nack.clone()), &mut acts);
        assert_eq!(ticked_fragments(&mut a), [2]);
        assert!(ticked_fragments(&mut a).is_empty(), "served once");
        // Two peers' requests are unioned and served on one tick.
        let mut other = InitNack::new(4);
        other.ask(0, Bitmap::from_raw(0b10001, 5));
        a.handle(1, &asking(nack), &mut acts);
        a.handle(2, &asking(other), &mut acts);
        assert_eq!(ticked_fragments(&mut a), [0, 2, 4]);
    }

    #[test]
    fn a_node_asks_only_for_gaps_until_a_vote_shows_the_proposal_was_aired() {
        let (_, inits, er) = five_fragment_proposer();
        let mut b = RbcBatch::new(params(1));
        let mut acts = Actions::new();
        b.handle(0, &inits[0], &mut acts);
        assert!(asks(&ticked_init_nack(&mut b)).is_empty(), "a lone first fragment asks nothing");
        b.handle(0, &inits[1], &mut acts);
        b.handle(0, &inits[3], &mut acts);
        assert_eq!(asks(&ticked_init_nack(&mut b)), [(0, Bitmap::from_raw(0b00100, 5))], "the gap");
        b.handle(0, &er, &mut acts);
        let all_missing = [(0, Bitmap::from_raw(0b10100, 5))];
        assert_eq!(asks(&ticked_init_nack(&mut b)), all_missing, "after a vote: all missing");
    }

    #[test]
    fn a_due_fragment_another_node_airs_first_is_not_re_aired_unless_asked_again() {
        let (mut a, inits, _) = five_fragment_proposer();
        let mut nack = InitNack::new(4);
        nack.ask(0, Bitmap::from_raw(0b00110, 5));
        let mut acts = Actions::new();
        a.handle(2, &asking(nack.clone()), &mut acts);
        // Node 3 relays fragment 1 first; a holds the value, so takes
        // nothing from it, but no longer owes that fragment.
        a.handle(3, &inits[1], &mut acts);
        assert_eq!(ticked_fragments(&mut a), [2]);
        // The requester missed the relay's airing and asks again: served.
        a.handle(2, &asking(nack), &mut acts);
        assert_eq!(ticked_fragments(&mut a), [1, 2]);
    }

    #[test]
    fn a_node_holding_no_fragment_of_a_voted_instance_asks_for_all_of_them() {
        let (mut a, _, er) = five_fragment_proposer();
        let mut c = RbcBatch::new(params(2));
        let mut acts = Actions::new();
        c.handle(0, &er, &mut acts);
        let nack = ticked_init_nack(&mut c);
        assert_eq!(asks(&nack), [(0, Bitmap::new(0))], "the empty request: every fragment");
        a.handle(2, &asking(nack), &mut acts);
        assert_eq!(ticked_fragments(&mut a), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_reset_assembly_asks_for_every_fragment_again() {
        let (_, inits, er) = five_fragment_proposer();
        let mut b = RbcBatch::new(params(1));
        let mut acts = Actions::new();
        b.handle(0, &er, &mut acts);
        for body in inits.iter().take(4) {
            b.handle(0, body, &mut acts);
        }
        assert_eq!(b.init_nack().request(0), Some(&Bitmap::from_raw(0b10000, 5)));
        // An equivocating proposer's last fragment does not hash to the
        // root: the assembly resets, and every fragment is asked for again.
        let Body::RbcInit { frag_total, root, init_nack, .. } = &inits[4] else { unreachable!() };
        let forged = Body::RbcInit {
            instance: 0,
            frag: 4,
            frag_total: *frag_total,
            root: *root,
            data: Bytes::from_static(b"another value's tail"),
            init_nack: init_nack.clone(),
        };
        b.handle(0, &forged, &mut acts);
        assert!(b.insts[0].asm.claimed_root().is_none() && b.delivered(0).is_none());
        assert_eq!(asks(&ticked_init_nack(&mut b)), [(0, Bitmap::new(0))]);
    }

    #[test]
    fn a_root_a_peer_names_does_not_lock_out_the_proposer_s_fragments() {
        let (_, inits, _) = five_fragment_proposer();
        let false_root = Digest32::of(b"not node 0's proposal");
        // One peer names a false root for instance 0 without a vote, another
        // echoes it: neither may decide which fragments are taken.
        for echo_bit in [false, true] {
            let mut b = RbcBatch::new(params(1));
            let mut roots = vec![Digest32::zero(); 4];
            roots[0] = false_root;
            let mut echo = Bitmap::new(4);
            echo.set(0, echo_bit);
            let poison = Body::RbcEchoReady {
                roots,
                echo,
                ready: Bitmap::new(4),
                echo_nack: Bitmap::new(4),
                ready_nack: Bitmap::new(4),
                init_nack: InitNack::new(4),
            };
            let mut acts = Actions::new();
            b.handle(2, &poison, &mut acts);
            for body in &inits {
                b.handle(0, body, &mut acts);
            }
            assert!(b.insts[0].asm.value().is_some(), "echo bit {echo_bit}: value refused");
        }
    }

    #[test]
    fn a_forged_first_fragment_gives_way_to_the_root_this_node_readies_on() {
        let (_, inits, er) = five_fragment_proposer();
        let mut b = RbcBatch::new(params(1));
        let mut acts = Actions::new();
        let forged = Body::RbcInit {
            instance: 0,
            frag: 0,
            frag_total: 5,
            root: Digest32::of(b"a forger's root"),
            data: Bytes::from_static(b"x"),
            init_nack: InitNack::new(4),
        };
        b.handle(2, &forged, &mut acts);
        for body in &inits {
            b.handle(0, body, &mut acts);
        }
        assert!(b.insts[0].asm.value().is_none(), "the forged root refuses the real fragments");
        // Echoes from 2f + 1 nodes: b readies on the real root and drops
        // the forged buffer, so the re-aired fragments assemble.
        for from in [0, 2, 3] {
            b.handle(from, &er, &mut acts);
        }
        assert_eq!(asks(&ticked_init_nack(&mut b)), [(0, Bitmap::new(0))], "every fragment");
        for body in &inits {
            b.handle(0, body, &mut acts);
        }
        assert!(b.insts[0].asm.value().is_some());
    }

    #[test]
    fn a_packet_before_start_is_answered_but_the_tick_is_armed_by_start() {
        let mut early = RbcBatch::new(params(0));
        let mut acts = Actions::new();
        RbcBatch::new(params(1)).start(Bytes::from_static(b"vb"), &mut acts);
        let (b_sends, _, _) = acts.drain();
        for body in &b_sends {
            early.handle(1, body, &mut acts);
        }
        let (sends, timers, _) = acts.drain();
        assert!(sends.iter().any(|b| matches!(b, Body::RbcEchoReady { .. })), "echo goes out");
        assert!(timers.is_empty(), "handling a packet does not arm the tick");
        early.start(Bytes::from_static(b"va"), &mut acts);
        assert_eq!(acts.drain().1.len(), 1, "start arms it, once");
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
                        init_nack: init_nack.clone(),
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
            let asm = &node.insts[3].asm;
            assert!(asm.value().is_none() && asm.held().is_none());
            assert!(node.delivered_root(3).is_none());
            let mut acts = Actions::new();
            node.send_init_frags(3, u64::MAX, &mut acts);
            assert!(acts.drain().0.is_empty());
        }
        // At the moment of the failed check the claim itself is dropped.
        let mut fresh = RbcBatch::new(params(0));
        let root = Digest32::of(b"claimed");
        fresh.handle_init(3, 0, 1, root, &Bytes::from_static(b"something else"));
        let asm = &fresh.insts[3].asm;
        assert!(asm.value().is_none() && asm.claimed_root().is_none());
    }

    #[test]
    fn an_oversize_proposal_airs_no_initial() {
        let sends_of = |len: usize| {
            let mut acts = Actions::new();
            RbcBatch::new(params(0)).start(Bytes::from(vec![7u8; len]), &mut acts);
            acts.drain().0
        };
        let fits = sends_of(MAX_VALUE_BYTES);
        assert_eq!(fits.iter().filter(|b| matches!(b, Body::RbcInit { .. })).count(), MAX_FRAGS);
        // No receiver reassembles more than MAX_FRAGS fragments, so airing
        // them would only burn the channel: the vote packet goes out alone.
        let oversize = sends_of(MAX_VALUE_BYTES + 1);
        assert!(matches!(oversize.as_slice(), [Body::RbcEchoReady { .. }]));
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
