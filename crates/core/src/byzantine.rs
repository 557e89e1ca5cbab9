//! Byzantine node behaviours (adversary model §III-A2).
//!
//! A Byzantine node is an honest engine behind a corrupting wrapper: it can
//! fall silent, crash after some epoch, flip every binary vote it sends, or
//! equivocate on its proposals. Wrapping (rather than reimplementing)
//! matches the threat model — the adversary controls a *node*, and the
//! protocol must survive whatever that node transmits.

use crate::driver::{Block, Engine, EngineOut};
use wbft_net::packets::{AbaLcInst, AbaScInst};
use wbft_net::{BinValues, Body, Vote};

/// The corruption applied to a wrapped engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ByzantineMode {
    /// Sends nothing at all (fail-silent from the start).
    Silent,
    /// Behaves honestly until `after_epoch` blocks are decided, then stops
    /// transmitting (crash fault).
    Crash {
        /// Blocks decided before the crash.
        after_epoch: u64,
    },
    /// Flips every binary vote (ABA bval/aux/decided, RBC-small values) in
    /// outgoing packets.
    FlipVotes,
    /// Replaces every outgoing proposal payload with garbage of the same
    /// length (equivocation-style value corruption; votes stay honest).
    CorruptProposals,
}

impl ByzantineMode {
    /// One representative of every corruption mode, for test matrices.
    /// `Crash` crashes after the first decided block, so runs exercising it
    /// need at least two epochs for the crash to bite mid-run.
    pub const ALL: [ByzantineMode; 4] = [
        ByzantineMode::Silent,
        ByzantineMode::Crash { after_epoch: 1 },
        ByzantineMode::FlipVotes,
        ByzantineMode::CorruptProposals,
    ];

    /// Short identifier for labels and report file names.
    pub fn slug(&self) -> String {
        match self {
            ByzantineMode::Silent => "silent".into(),
            ByzantineMode::Crash { after_epoch } => format!("crash{after_epoch}"),
            ByzantineMode::FlipVotes => "flip".into(),
            ByzantineMode::CorruptProposals => "corrupt".into(),
        }
    }
}

/// An engine under Byzantine control.
pub struct ByzantineEngine<E> {
    inner: E,
    mode: ByzantineMode,
}

impl<E: Engine> ByzantineEngine<E> {
    /// Wraps an engine.
    pub fn new(inner: E, mode: ByzantineMode) -> Self {
        ByzantineEngine { inner, mode }
    }

    fn crashed(&self) -> bool {
        match self.mode {
            ByzantineMode::Silent => true,
            ByzantineMode::Crash { after_epoch } => {
                self.inner.blocks().len() as u64 >= after_epoch
            }
            _ => false,
        }
    }

    fn corrupt(&self, out: &mut EngineOut) {
        if self.crashed() {
            out.sends.clear();
            return;
        }
        match self.mode {
            ByzantineMode::FlipVotes => {
                for (_, body) in out.sends.iter_mut() {
                    flip_votes(body);
                }
            }
            ByzantineMode::CorruptProposals => {
                for (_, body) in out.sends.iter_mut() {
                    corrupt_proposal(body);
                }
            }
            _ => {}
        }
    }
}

fn flip_vote(v: &mut Vote) {
    *v = match *v {
        Vote::Zero => Vote::One,
        Vote::One => Vote::Zero,
        other => other,
    };
}

fn flip_aba_sc(AbaScInst { bval, aux, decided, .. }: &mut AbaScInst) {
    *bval = BinValues { zero: bval.one, one: bval.zero };
    flip_vote(aux);
    flip_vote(decided);
}

/// Inverts every binary vote a body carries, in combined bodies and the
/// baseline's per-instance frames alike.
fn flip_votes(body: &mut Body) {
    match body {
        Body::AbaSc { insts, .. } => insts.iter_mut().for_each(flip_aba_sc),
        Body::BaseAbaVote { inst, .. } => flip_aba_sc(inst),
        Body::AbaLc { insts } => {
            for AbaLcInst { reports, decided, .. } in insts {
                for phase in reports {
                    for v in phase {
                        flip_vote(v);
                    }
                }
                flip_vote(decided);
            }
        }
        Body::RbcSmall { values, .. } => {
            for v in values {
                flip_vote(v);
            }
        }
        _ => {}
    }
}

/// Garbles every INITIAL fragment; both packagings send the same ones.
fn corrupt_proposal(body: &mut Body) {
    if let Body::RbcInit { data, .. } | Body::CbcInit { data, .. } = body {
        let garbage: Vec<u8> = data.iter().map(|b| b ^ 0xA5).collect();
        *data = bytes::Bytes::from(garbage);
    }
}

impl<E: Engine> Engine for ByzantineEngine<E> {
    fn start(&mut self, out: &mut EngineOut) {
        self.inner.start(out);
        self.corrupt(out);
    }

    fn handle(&mut self, session: u64, from: usize, body: &Body, out: &mut EngineOut) {
        self.inner.handle(session, from, body, out);
        self.corrupt(out);
    }

    fn on_timer(&mut self, session: u64, local: u32, out: &mut EngineOut) {
        self.inner.on_timer(session, local, out);
        self.corrupt(out);
    }

    fn on_work_available(&mut self, out: &mut EngineOut) {
        self.inner.on_work_available(out);
        self.corrupt(out);
    }

    fn restore_chain(&mut self, blocks: Vec<Block>) {
        self.inner.restore_chain(blocks);
    }

    fn adopt_chain(&mut self, blocks: Vec<Block>, out: &mut EngineOut) {
        self.inner.adopt_chain(blocks, out);
        self.corrupt(out);
    }

    fn blocks(&self) -> &[Block] {
        self.inner.blocks()
    }

    fn key_epoch(&self, session: u64) -> u64 {
        // The wrapper corrupts payloads, not the node's signing identity;
        // the inner engine's key-epoch tag stays authoritative.
        self.inner.key_epoch(session)
    }

    fn is_done(&self) -> bool {
        // A Byzantine node never gates experiment completion.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy {
        blocks: Vec<Block>,
    }

    fn vote(bval: BinValues, aux: Vote) -> Body {
        let inst = AbaScInst { instance: 0, round: 0, bval, aux, decided: Vote::Unknown };
        Body::BaseAbaVote { flavor: wbft_net::CoinFlavor::ThreshSig, inst }
    }
    impl Engine for Dummy {
        fn start(&mut self, out: &mut EngineOut) {
            out.sends.push((1, vote(BinValues { zero: false, one: true }, Vote::Unknown)));
        }
        fn handle(&mut self, _s: u64, _f: usize, _b: &Body, out: &mut EngineOut) {
            out.sends.push((1, vote(BinValues::empty(), Vote::Zero)));
        }
        fn on_timer(&mut self, _s: u64, _l: u32, _o: &mut EngineOut) {}
        fn on_work_available(&mut self, _o: &mut EngineOut) {}
        fn restore_chain(&mut self, _b: Vec<Block>) {}
        fn adopt_chain(&mut self, _b: Vec<Block>, _o: &mut EngineOut) {}
        fn key_epoch(&self, _s: u64) -> u64 {
            0
        }
        fn blocks(&self) -> &[Block] {
            &self.blocks
        }
        fn is_done(&self) -> bool {
            !self.blocks.is_empty()
        }
    }

    #[test]
    fn silent_drops_everything() {
        let mut e = ByzantineEngine::new(Dummy { blocks: vec![] }, ByzantineMode::Silent);
        let mut out = EngineOut::new();
        e.start(&mut out);
        assert!(out.sends.is_empty());
    }

    #[test]
    fn flip_votes_inverts_binary_fields() {
        let mut e = ByzantineEngine::new(Dummy { blocks: vec![] }, ByzantineMode::FlipVotes);
        let mut out = EngineOut::new();
        e.start(&mut out);
        assert_eq!(out.sends[0].1, vote(BinValues { zero: true, one: false }, Vote::Unknown));
        let mut out = EngineOut::new();
        e.handle(1, 0, &vote(BinValues::empty(), Vote::One), &mut out);
        assert_eq!(out.sends[0].1, vote(BinValues::empty(), Vote::One));
    }

    /// What the baseline deployments air is what the wrapper must reach:
    /// every vote frame of a per-instance ABA and every INITIAL fragment of
    /// a per-instance RBC and CBC is mutated.
    #[test]
    fn byzantine_modes_reach_every_per_instance_vote_and_initial_frame() {
        use rand::SeedableRng;
        use wbft_components::aba_sc::AbaScBatch;
        use wbft_components::cbc::CbcBatch;
        use wbft_components::rbc::RbcBatch;
        use wbft_components::{Actions, BinaryAgreement, Broadcaster, Packing, Params};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let c = wbft_components::deal_node_crypto(4, wbft_crypto::CryptoSuite::light(), &mut rng)
            .remove(0);
        let p = Params::new(4, 0, 9).packed(Packing::PerInstance);
        let flavor = wbft_net::CoinFlavor::ThreshSig;
        let mut acts = Actions::new();
        let mut aba = AbaScBatch::new_serial(p, flavor, c.coin_pub.clone(), c.coin_sec.clone());
        for j in 0..4 {
            aba.set_input(j, j % 2 == 0, &mut acts);
        }
        let value = bytes::Bytes::from(vec![7u8; 300]);
        RbcBatch::new(p).start(value.clone(), &mut acts);
        CbcBatch::new(p, c.cbc_pub.clone(), c.cbc_sec.clone()).start(value, &mut acts);
        let (sends, _, _) = acts.drain();
        let (mut votes, mut inits) = (0, 0);
        for frame in sends {
            let (mut flipped, mut corrupted) = (frame.clone(), frame.clone());
            flip_votes(&mut flipped);
            corrupt_proposal(&mut corrupted);
            match frame {
                Body::BaseAbaVote { .. } => {
                    votes += 1;
                    assert_ne!(flipped, frame, "vote frame left intact");
                }
                Body::RbcInit { .. } | Body::CbcInit { .. } => {
                    inits += 1;
                    assert_ne!(corrupted, frame, "INITIAL fragment left intact");
                }
                _ => assert!(!matches!(frame, Body::AbaSc { .. }), "combined body under PerInstance"),
            }
        }
        assert!(votes >= 4 && inits >= 4, "{votes} vote frames, {inits} INITIAL fragments");
    }

    /// The wrapper's contract is "an honest engine behind a corrupting
    /// wrapper": a fresh local submission must fill the inner engine's
    /// pipeline window exactly as it would unwrapped.
    #[test]
    fn wrapped_pipelined_engine_opens_its_second_epoch_on_fresh_work() {
        use crate::driver::sessions;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let crypto =
            wbft_components::deal_node_crypto(4, wbft_crypto::CryptoSuite::light(), &mut rng)
                .remove(0);
        let handle = crate::service::ConsensusHandle::new(16);
        let inner = crate::protocol::Protocol::HoneyBadgerSc
            .service_engine_at_depth(crypto, handle.clone(), 8, 64, 2);
        let mut e = ByzantineEngine::new(inner, ByzantineMode::FlipVotes);
        let epochs_opened = |out: &EngineOut| -> Vec<u64> {
            let mut epochs: Vec<u64> =
                out.sends.iter().map(|(s, _)| sessions::split(*s).0).collect();
            epochs.dedup();
            epochs
        };
        let mut out = EngineOut::new();
        e.start(&mut out);
        assert_eq!(epochs_opened(&out), [0], "idle mempool: only the head epoch opens");
        handle.submit(bytes::Bytes::from_static(b"tx"), wbft_wireless::SimTime::ZERO);
        let mut out = EngineOut::new();
        e.on_work_available(&mut out);
        assert_eq!(epochs_opened(&out), [1], "W = 2 window slack fills on the submission");
    }

    #[test]
    fn crash_stops_after_threshold() {
        let block = Block { epoch: 0, txs: vec![] };
        let mut e = ByzantineEngine::new(
            Dummy { blocks: vec![block] },
            ByzantineMode::Crash { after_epoch: 1 },
        );
        let mut out = EngineOut::new();
        e.start(&mut out);
        assert!(out.sends.is_empty(), "already crashed: one block decided");
    }

    #[test]
    fn corrupt_proposals_keeps_length() {
        let mut body = Body::RbcInit {
            instance: 0,
            frag: 0,
            frag_total: 1,
            root: wbft_crypto::Digest32::of(b"x"),
            data: bytes::Bytes::from_static(b"hello"),
            init_nack: wbft_net::InitNack::new(4),
        };
        corrupt_proposal(&mut body);
        match body {
            Body::RbcInit { data, .. } => {
                assert_eq!(data.len(), 5);
                assert_ne!(&data[..], b"hello");
            }
            _ => unreachable!(),
        }
    }
}
