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
//! The INITIAL phase is `instance::Initial`, whose doc states its rule.
//! RBC's evidence that a proposal was aired whole is a peer's ECHO or READY
//! for its instance (the voter held the whole proposal); the root this node
//! readies on (f + 1 honest nodes hold that value) decides which fragments
//! the instance takes.
//!
//! Votes are cast on the proposal digest, so equivocation by a Byzantine
//! proposer splits the vote and the instance simply never delivers (its ABA
//! then decides 0); if any honest node delivers a value, every honest node
//! eventually delivers the same value (Bracha's agreement + totality, which
//! the integration tests exercise under loss and Byzantine proposers).
//!
//! The votes of one instance are `instance::VoteTally`; this file gathers
//! N of them into the combined packet, which the `Batcher` airs whole or,
//! for the baseline, one instance per frame.

use crate::context::{Actions, Batcher, Broadcaster, Params};
use crate::instance::{Accepted, Fragment, Initial, VoteTally};
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
    init: Initial,
    votes: Vec<VoteTally>,
    started: bool,
    out: Batcher,
}

/// The packet an RBC INITIAL fragment airs in.
pub(crate) fn rbc_init(instance: u8, f: Fragment, init_nack: InitNack) -> Body {
    Body::RbcInit {
        instance,
        frag: f.frag,
        frag_total: f.frag_total,
        root: f.root,
        data: f.data,
        init_nack,
    }
}

impl RbcBatch {
    /// Creates the batch (call [`Broadcaster::start`] to begin).
    pub fn new(p: Params) -> Self {
        RbcBatch {
            p,
            init: Initial::new(p.n, rbc_init),
            votes: (0..p.n).map(|_| VoteTally::new(p.n)).collect(),
            started: false,
            out: Batcher::new(&p, TIMER_RETX),
        }
    }

    /// The protocol parameters.
    pub fn params(&self) -> &Params {
        &self.p
    }

    /// The delivered root of an instance (PRBC signs this): the held one.
    pub fn delivered_root(&self, instance: usize) -> Option<Digest32> {
        let (_, root) = self.init.get(instance)?.held()?;
        self.votes[instance].delivered().then_some(root)
    }

    fn build_er(&self) -> Body {
        let n = self.p.n;
        let mut roots = vec![Digest32::zero(); n];
        let mut echo = Bitmap::new(n);
        let mut ready = Bitmap::new(n);
        let mut echo_nack = Bitmap::new(n);
        let mut ready_nack = Bitmap::new(n);
        for (j, votes) in self.votes.iter().enumerate() {
            let (my_echo, my_ready) = (votes.my_echo(), votes.my_ready());
            // The root this node's votes refer to in the combined packet.
            if let Some(r) = my_ready.or(my_echo).or(self.init[j].claimed_root()) {
                roots[j] = r;
                echo.set(j, my_echo == Some(r));
                ready.set(j, my_ready == Some(r));
            }
            if !votes.delivered() {
                echo_nack.set(j, votes.echo_support() < self.p.quorum());
                ready_nack.set(j, votes.ready_support() < self.p.quorum());
            }
        }
        Body::RbcEchoReady {
            roots,
            echo,
            ready,
            echo_nack,
            ready_nack,
            init_nack: self.init.init_nack(),
        }
    }

    /// Re-evaluates vote quorums for one instance; any transition rides in
    /// the next combined packet. The root this node readies on is held by
    /// f + 1 honest nodes, so it decides which fragments are taken.
    fn advance(&mut self, j: usize) {
        let held = self.init[j].held().map(|(_, root)| root);
        let step = self.votes[j].step(&self.p, held);
        if let Some(root) = step.ready {
            self.init.claim(j, root);
        }
        self.out.changed_if(step.ready.is_some() || step.delivered);
    }

    /// A heard INITIAL fragment; a completed proposal is echoed.
    fn handle_init(&mut self, from: usize, instance: usize, f: Fragment, acts: &mut Actions) {
        match self.init.heard(from, instance, f, acts) {
            Accepted::Refused => return,
            Accepted::Buffered => {}
            Accepted::Assembled(root) => {
                self.votes[instance].cast_echo(self.p.me, root);
                self.out.changed();
            }
        }
        self.advance(instance);
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
        self.init.note(init_nack, &mut self.out);
        for (j, &root) in roots.iter().enumerate() {
            let votes = &mut self.votes[j];
            if !root.is_zero() {
                if echo.get(j) {
                    votes.echo(from, root);
                }
                if ready.get(j) {
                    votes.ready(from, root);
                }
                // The voter held the whole proposal: it was aired.
                if echo.get(j) || ready.get(j) {
                    self.init.aired(j);
                }
            }
            // Peer lacks quorums we already have votes for → our combined
            // packet helps them; mark for retransmission.
            if (echo_nack.len() == self.p.n && echo_nack.get(j) && votes.my_echo().is_some())
                || (ready_nack.len() == self.p.n && ready_nack.get(j) && votes.my_ready().is_some())
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
        let root = self.init.hold(me, my_value);
        self.votes[me].cast_echo(me, root);
        self.init.air(me, acts);
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
                self.init.note(init_nack, &mut self.out);
                let (frag, frag_total, root) = (*frag, *frag_total, *root);
                let fragment = Fragment { frag, frag_total, root, data: data.clone() };
                self.handle_init(from, usize::from(*instance), fragment, acts);
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
            self.init.air_due(acts);
            let body = self.build_er();
            self.out.resend(behind, body, acts);
        }
    }

    fn delivered(&self, instance: usize) -> Option<&Bytes> {
        self.init.get(instance)?.value().filter(|_| self.votes[instance].delivered())
    }

    fn delivered_count(&self) -> usize {
        self.votes.iter().filter(|v| v.delivered()).count()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    pub(crate) use crate::context::Packing;
    use crate::instance::tests::initial::{asks, five_fragment_proposer, tick, Component};
    use crate::instance::InitBody;

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
                    assert_eq!(node.delivered_root(j), Some(Digest32::of(v)));
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

    impl Component for RbcBatch {
        const INIT: InitBody = rbc_init;

        fn node(me: usize) -> Self {
            RbcBatch::new(params(me))
        }

        fn initial(&self) -> &Initial {
            &self.init
        }

        fn asking(init_nack: InitNack) -> Body {
            voting(Digest32::zero(), Bitmap::new(4), Bitmap::new(4), init_nack)
        }

        /// A packet naming `root` without a vote, and one echoing it.
        fn naming(root: Digest32) -> Vec<Body> {
            let echo = Bitmap::from_raw(0b0001, 4);
            [Bitmap::new(4), echo]
                .map(|echo| voting(root, echo, Bitmap::new(4), InitNack::new(4)))
                .to_vec()
        }
    }

    /// A vote packet naming `root` for instance 0, with these vote bits.
    fn voting(root: Digest32, echo: Bitmap, ready: Bitmap, init_nack: InitNack) -> Body {
        let mut roots = vec![Digest32::zero(); 4];
        roots[0] = root;
        let (echo_nack, ready_nack) = (Bitmap::new(4), Bitmap::new(4));
        Body::RbcEchoReady { roots, echo, ready, echo_nack, ready_nack, init_nack }
    }

    #[test]
    fn a_peer_s_echo_or_ready_shows_the_proposal_was_aired() {
        let (_, inits, _) = five_fragment_proposer::<RbcBatch>();
        let Body::RbcInit { root, .. } = inits[0] else { unreachable!() };
        let (vote, none) = (Bitmap::from_raw(0b0001, 4), Bitmap::new(4));
        for (echo, ready) in [(vote, none), (none, vote)] {
            let mut b = RbcBatch::new(params(1));
            let mut acts = Actions::new();
            b.handle(0, &inits[0], &mut acts);
            assert!(asks(&tick(&mut b).0).is_empty(), "a lone first fragment asks nothing");
            b.handle(2, &voting(root, echo, ready, InitNack::new(4)), &mut acts);
            let all_missing = [(0, Bitmap::from_raw(0b11110, 5))];
            assert_eq!(asks(&tick(&mut b).0), all_missing, "echo {echo:?}: all missing");
        }
    }

    #[test]
    fn a_forged_first_fragment_gives_way_to_the_root_this_node_readies_on() {
        let (_, inits, er) = five_fragment_proposer::<RbcBatch>();
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
        assert!(b.init[0].value().is_none(), "the forged root refuses the real fragments");
        // Echoes from 2f + 1 nodes: b readies on the real root and drops
        // the forged buffer, so the re-aired fragments assemble.
        for from in [0, 2, 3] {
            b.handle(from, &er, &mut acts);
        }
        assert_eq!(asks(&tick(&mut b).0), [(0, Bitmap::new(0))], "every fragment");
        for body in &inits {
            b.handle(0, body, &mut acts);
        }
        assert!(b.init[0].value().is_some());
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
