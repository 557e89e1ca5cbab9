//! Batched RBC over *small* (two-bit) proposals — paper Fig. 5a.
//!
//! When proposals are tiny (the 1/0/⊥ votes inside Bracha's ABA, flags,
//! single ids), carrying a 32-byte hash per instance wastes the frame, so
//! RBC-small folds the INITIAL phase into the combined vote packet: the
//! value itself (2 bits per instance) rides next to the ECHO/READY bits and
//! identification-by-hash disappears. The horizontal batching of all three
//! phases is what Fig. 11a measures against plain RBC.

use crate::context::{Actions, Batcher, Params};
use wbft_net::{Bitmap, Body, Vote};

const TIMER_RETX: u32 = 0;

#[derive(Debug, Default)]
struct Inst {
    /// The proposal as first heard (directly or via votes).
    value: Vote,
    /// Per node: the value they echoed (`Unknown` = no echo seen).
    echo_votes: Vec<Vote>,
    /// Per node: the value they declared ready.
    ready_votes: Vec<Vote>,
    my_echo: Vote,
    my_ready: Vote,
    delivered: Vote,
}

impl Inst {
    fn new(n: usize) -> Self {
        Inst {
            echo_votes: vec![Vote::Unknown; n],
            ready_votes: vec![Vote::Unknown; n],
            ..Inst::default()
        }
    }
}

fn quorum_vote(votes: &[Vote], need: usize) -> Option<Vote> {
    [Vote::Zero, Vote::One, Vote::Bot].into_iter().find(|&v| votes.iter().filter(|x| **x == v).count() >= need)
}

/// N parallel small-value RBC instances under ConsensusBatcher.
#[derive(Debug)]
pub struct RbcSmallBatch {
    p: Params,
    insts: Vec<Inst>,
    out: Batcher,
}

impl RbcSmallBatch {
    /// Creates the batch.
    pub fn new(p: Params) -> Self {
        RbcSmallBatch {
            insts: (0..p.n).map(|_| Inst::new(p.n)).collect(),
            out: Batcher::new(&p, TIMER_RETX),
            p,
        }
    }

    /// Starts with this node's small proposal.
    ///
    /// # Panics
    ///
    /// Panics if the vote is `Unknown` (absence is not a proposal).
    pub fn start(&mut self, my_value: Vote, acts: &mut Actions) {
        assert!(my_value.is_cast(), "cannot propose Unknown");
        let me = self.p.me;
        {
            let inst = &mut self.insts[me];
            inst.value = my_value;
            inst.my_echo = my_value;
            inst.echo_votes[me] = my_value;
        }
        self.out.changed();
        self.flush(acts);
    }

    /// The delivered small value of an instance.
    pub fn delivered_small(&self, instance: usize) -> Option<Vote> {
        let v = self.insts[instance].delivered;
        v.is_cast().then_some(v)
    }

    /// Number of delivered instances.
    pub fn delivered_count(&self) -> usize {
        self.insts.iter().filter(|i| i.delivered.is_cast()).count()
    }

    fn advance(&mut self, j: usize) {
        let quorum = self.p.quorum();
        let f1 = self.p.f + 1;
        let me = self.p.me;
        let inst = &mut self.insts[j];
        if inst.my_echo == Vote::Unknown && inst.value.is_cast() {
            inst.my_echo = inst.value;
            inst.echo_votes[me] = inst.value;
            self.out.changed();
        }
        let inst = &mut self.insts[j];
        if inst.my_ready == Vote::Unknown {
            if let Some(v) = quorum_vote(&inst.echo_votes, quorum) {
                inst.my_ready = v;
                inst.ready_votes[me] = v;
                self.out.changed();
            } else if let Some(v) = quorum_vote(&inst.ready_votes, f1) {
                inst.my_ready = v;
                inst.ready_votes[me] = v;
                self.out.changed();
            }
        }
        let inst = &mut self.insts[j];
        if inst.delivered == Vote::Unknown {
            if let Some(v) = quorum_vote(&inst.ready_votes, quorum) {
                inst.delivered = v;
                self.out.changed();
            }
        }
    }

    fn build(&self) -> Body {
        let n = self.p.n;
        let mut values = vec![Vote::Unknown; n];
        let mut echo = Bitmap::new(n);
        let mut ready = Bitmap::new(n);
        let mut init_nack = Bitmap::new(n);
        let mut echo_nack = Bitmap::new(n);
        let mut ready_nack = Bitmap::new(n);
        for (j, inst) in self.insts.iter().enumerate() {
            // The value field carries what we vote on (echo root analogue).
            let v = if inst.my_ready.is_cast() {
                inst.my_ready
            } else if inst.my_echo.is_cast() {
                inst.my_echo
            } else {
                inst.value
            };
            values[j] = v;
            echo.set(j, inst.my_echo.is_cast() && inst.my_echo == v);
            ready.set(j, inst.my_ready.is_cast() && inst.my_ready == v);
            init_nack.set(j, !inst.value.is_cast());
            if inst.delivered == Vote::Unknown {
                echo_nack.set(j, quorum_vote(&inst.echo_votes, self.p.quorum()).is_none());
                ready_nack.set(j, quorum_vote(&inst.ready_votes, self.p.quorum()).is_none());
            }
        }
        Body::RbcSmall { values, echo, ready, init_nack, echo_nack, ready_nack }
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
        if from >= self.p.n {
            return;
        }
        let Body::RbcSmall { values, echo, ready, init_nack, echo_nack, ready_nack } = body
        else {
            return;
        };
        if values.len() != self.p.n || echo.len() != self.p.n {
            return;
        }
        for (j, &v) in values.iter().enumerate() {
            if v.is_cast() {
                // Learn the proposal: directly from its proposer, or by
                // adoption from any vote (the value is self-identifying).
                if !self.insts[j].value.is_cast() && (from == j || echo.get(j) || ready.get(j)) {
                    self.insts[j].value = v;
                }
                if echo.get(j) && self.insts[j].echo_votes[from] == Vote::Unknown {
                    self.insts[j].echo_votes[from] = v;
                }
                if ready.get(j) && self.insts[j].ready_votes[from] == Vote::Unknown {
                    self.insts[j].ready_votes[from] = v;
                }
            }
            if (init_nack.get(j) && self.insts[j].value.is_cast())
                || (echo_nack.get(j) && self.insts[j].my_echo.is_cast())
                || (ready_nack.get(j) && self.insts[j].my_ready.is_cast())
            {
                self.out.peer_behind();
            }
            self.advance(j);
        }
        self.flush(acts);
    }

    /// Handles the retransmission tick.
    pub fn on_timer(&mut self, local_id: u32, acts: &mut Actions) {
        if let Some(behind) = self.out.tick(local_id, self.delivered_count() == self.p.n, acts) {
            let body = self.build();
            self.out.resend(behind, body, acts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rbc::tests::run_mesh;

    fn make() -> Vec<RbcSmallBatch> {
        (0..4).map(|i| RbcSmallBatch::new(Params::new(4, i, 3))).collect()
    }

    #[test]
    fn delivers_all_small_values() {
        let mut nodes = make();
        let vals = [Vote::One, Vote::Zero, Vote::Bot, Vote::One];
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
            for (j, v) in vals.iter().enumerate() {
                assert_eq!(node.delivered_small(j), Some(*v));
            }
        }
    }

    #[test]
    fn small_packets_beat_full_rbc_packets() {
        use wbft_net::Sizing;
        let mut small = RbcSmallBatch::new(Params::new(4, 0, 1));
        let mut acts = Actions::new();
        small.start(Vote::One, &mut acts);
        let small_body = small.build();
        // A full RBC ER packet for comparison.
        let full_body = Body::RbcEchoReady {
            roots: vec![wbft_crypto::Digest32::of(b"v"); 4],
            echo: Bitmap::full(4),
            ready: Bitmap::new(4),
            echo_nack: Bitmap::new(4),
            ready_nack: Bitmap::new(4),
            init_nack: wbft_net::InitNack::new(4),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let kp = wbft_crypto::schnorr::KeyPair::generate(
            wbft_crypto::EcdsaCurve::Secp160r1,
            &mut rng,
        );
        use rand::SeedableRng;
        let sizing = Sizing::light(4);
        let (_, small_len) =
            wbft_net::Envelope { src: 0, session: 1, body: small_body }.seal(&kp, &sizing).unwrap();
        let (_, full_len) =
            wbft_net::Envelope { src: 0, session: 2, body: full_body }.seal(&kp, &sizing).unwrap();
        assert!(small_len < full_len, "small {small_len} vs full {full_len}");
        // And a full RBC additionally needs INIT packets; RBC-small does not.
    }

    #[test]
    fn silent_proposer_does_not_block_others() {
        let mut nodes = make();
        let vals = [Vote::One, Vote::Zero, Vote::One];
        let mut inbox: Vec<(usize, Body)> = Vec::new();
        for i in 0..3 {
            let mut acts = Actions::new();
            nodes[i].start(vals[i], &mut acts);
            for b in acts.drain().0 {
                inbox.push((i, b));
            }
        }
        let mut steps = 0;
        while let Some((src, body)) = inbox.pop() {
            steps += 1;
            if steps > 20_000 {
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
            assert!(node.delivered_small(3).is_none());
        }
    }
}
