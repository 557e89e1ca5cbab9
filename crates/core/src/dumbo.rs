#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
//! Wireless Dumbo (Dumbo2) — paper §V-A, Fig. 7b.
//!
//! Per epoch: N batched PRBC instances spread proposals and produce
//! `(f,n)`-threshold *delivery proofs*; after `2f+1` proofs a node
//! CBC-broadcasts its proof vector `W_i` (`CBC_value`); after `2f+1`
//! `CBC_value` deliveries it CBC-broadcasts the id-set `S_i` of completed
//! `CBC_value` instances (`CBC_commit`, small values → CBC-small packets);
//! after `2f+1` commits, a common coin fixes a random permutation π and the
//! nodes run **serial** ABA over candidates in π order — input 1 iff the
//! candidate's commit was delivered — until one ABA outputs 1. The block is
//! the union of the PRBC proposals referenced by the elected candidate's
//! `W` vector. Serial activation also prevents premature coin-share release
//! for later instances (§V-A).
//!
//! This module is the protocol's [`Lane`]; the epoch pipeline around it is
//! the shared [`crate::engine::EpochEngine`].

use crate::driver::{sessions, Block, EngineOut, Tx};
use crate::engine::{union_block, EpochCtx, Lane};
use crate::workload::encode_batch;
use bytes::Bytes;
use rand::SeedableRng;
use wbft_components::aba_sc::coin_quorum;
use wbft_components::cbc::{CbcBatch, CbcSmallBatch};
use wbft_components::prbc::PrbcBatch;
use wbft_components::{
    Actions, Agreement, Batcher, BinaryAgreement, Broadcaster, Collector, NodeCrypto, Packing,
    Params, Quorum, Recorded,
};
use wbft_crypto::hash::Digest32;
use wbft_crypto::thresh_coin::{self, CoinName};
use wbft_crypto::thresh_sig::{PublicKeySet, SigShare, ThresholdSignature};
use wbft_net::wire::{checked_bitmap_len, ByteSink, Sink, Wire, WireReader};
use wbft_net::{Bitmap, Body, CoinFlavor, WireError};

const TIMER_PI_RETX: u32 = 0;

// ------------------------------------------------------------------
// W-vector and commit-set wire formats.

/// One `W` entry: a delivered PRBC instance, its value root and the
/// delivery proof.
type WEntry = (u8, Digest32, ThresholdSignature);

/// Encodes a proof vector `W` (the `CBC_value` proposal): a count byte,
/// then `(instance, root, proof)` per delivered PRBC instance. The count is
/// bounded by the committee size, which `TestbedConfig::check` caps at 64.
pub fn encode_w(entries: &[WEntry]) -> Bytes {
    ByteSink::bounded(|s| {
        s.count8(entries.len())?;
        entries.iter().try_for_each(|e| e.put(s))
    })
}

/// Inverse of [`encode_w`]; `None` on malformed input (a Byzantine
/// candidate's `W` is adversary-controlled bytes).
pub fn decode_w(data: &[u8]) -> Option<Vec<WEntry>> {
    WireReader::exact(data, Vec::get).ok()
}

/// Commit-set (bitmap) encoding for the baseline's CBC_commit: the bit length,
/// then the whole 64-bit word.
pub fn encode_commit(s: &Bitmap) -> Bytes {
    ByteSink::bounded(|w| {
        w.u8(checked_bitmap_len(s.len())?);
        w.u64(s.to_raw());
        Ok(())
    })
}

/// Inverse of [`encode_commit`]; `None` on malformed input.
pub fn decode_commit(data: &[u8]) -> Option<Bitmap> {
    WireReader::exact(data, |r| {
        let (len, raw) = (usize::from(r.u8()?), r.u64()?);
        if len > Bitmap::CAPACITY {
            return Err(WireError::Malformed("commit set length"));
        }
        Ok(Bitmap::from_raw(raw, len))
    })
    .ok()
}

// ------------------------------------------------------------------
// Deployment-style wrapper.

/// CBC for the (small) commit sets: the batched form broadcasts the bitmap
/// itself in CBC-small packets, whose INITIAL rides the vote packet; the
/// baseline, which has no such fold, an encoded copy through the ordinary
/// CBC.
enum CommitCbc {
    Small(CbcSmallBatch),
    Full(CbcBatch),
}

impl CommitCbc {
    fn start(&mut self, s: Bitmap, acts: &mut Actions) {
        match self {
            CommitCbc::Small(x) => x.start(s, acts),
            CommitCbc::Full(x) => x.start(encode_commit(&s), acts),
        }
    }
    fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions) {
        match self {
            CommitCbc::Small(x) => x.handle(from, body, acts),
            CommitCbc::Full(x) => x.handle(from, body, acts),
        }
    }
    fn on_timer(&mut self, local: u32, acts: &mut Actions) {
        match self {
            CommitCbc::Small(x) => x.on_timer(local, acts),
            CommitCbc::Full(x) => x.on_timer(local, acts),
        }
    }
    fn delivered_set(&self, j: usize) -> Option<Bitmap> {
        match self {
            CommitCbc::Small(x) => x.delivered_value(j),
            CommitCbc::Full(x) => x.delivered(j).and_then(|b| decode_commit(b)),
        }
    }
    fn delivered_count(&self) -> usize {
        match self {
            CommitCbc::Small(x) => x.delivered_count(),
            CommitCbc::Full(x) => x.delivered_count(),
        }
    }
}

// ------------------------------------------------------------------
// π coin: one common-coin round fixing the candidate permutation.

struct PiCoin {
    p: Params,
    /// This node's share (signed once, when it releases the coin) and
    /// everyone's shares.
    coin: Collector,
    /// The coin's value, derived once from the combined signature.
    value: Option<u64>,
    out: Batcher,
}

impl PiCoin {
    fn new(p: Params) -> Self {
        PiCoin { coin: Collector::default(), value: None, out: Batcher::new(&p, TIMER_PI_RETX), p }
    }

    fn name(&self) -> CoinName {
        CoinName { session: self.p.session, round: 0, domain: 0 }
    }

    /// `f + 1` shares under the coin key set.
    fn quorum<'k>(&self, crypto: &'k NodeCrypto) -> Quorum<'k, PublicKeySet> {
        // Aired as threshold-signature shares, priced as a coin flip (ROADMAP item 5).
        coin_quorum(&crypto.coin_pub, CoinFlavor::CoinFlip, self.p.n)
    }

    fn activate(&mut self, crypto: &NodeCrypto, acts: &mut Actions) {
        let name = self.name();
        let q = self.quorum(crypto);
        let Some(share) = self.coin.sign_own(&q, || crypto.coin_sec.coin_share(name), acts) else {
            return;
        };
        self.record(share, crypto, acts);
        if let Some(body) = self.packet() {
            self.out.send(body, acts);
        }
        self.out.arm(acts);
    }

    /// Buffers a coin share.
    fn record(&mut self, share: SigShare, crypto: &NodeCrypto, acts: &mut Actions) {
        let q = self.quorum(crypto);
        if let Recorded::Combined(sig) = self.coin.record(&q, self.name(), share, acts) {
            self.value = sig.map(|sig| thresh_coin::reveal(&sig));
        }
    }

    /// The coin packet, once this node released its share.
    fn packet(&self) -> Option<Body> {
        let share = self.coin.own()?;
        let mut share_nack = Bitmap::new(self.p.n);
        if self.value.is_none() {
            for node in 0..self.p.n {
                if self.coin.reporters() & (1 << node) == 0 {
                    share_nack.set(node, true);
                }
            }
        }
        Some(Body::AbaSc {
            flavor: CoinFlavor::ThreshSig,
            insts: vec![],
            coin_shares: vec![(0, share)],
            share_nack,
        })
    }

    fn handle(&mut self, body: &Body, crypto: &NodeCrypto, acts: &mut Actions) {
        let Body::AbaSc { coin_shares, share_nack, .. } = body else { return };
        for (_, share) in coin_shares {
            self.record(*share, crypto, acts);
        }
        if share_nack.len() == self.p.n && share_nack.get(self.p.me) && self.coin.own().is_some() {
            self.out.peer_behind();
        }
    }

    fn on_timer(&mut self, local: u32, acts: &mut Actions) {
        // The tick is armed by `activate`, so there is a share to emit.
        if let Some(behind) = self.out.tick(local, self.value.is_some(), acts) {
            if let Some(body) = self.packet() {
                self.out.resend(behind, body, acts);
            }
        }
    }
}

/// Fisher–Yates permutation of `0..n` from a coin value.
fn permutation(n: usize, coin: u64) -> Vec<usize> {
    use rand::Rng;
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(coin);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    order
}

// ------------------------------------------------------------------
// The lane.

/// One epoch's live components.
pub struct DumboEpoch {
    prbc: PrbcBatch,
    value_cbc: CbcBatch,
    commit_cbc: CommitCbc,
    pi: PiCoin,
    aba: Box<dyn BinaryAgreement + Send>,
    value_started: bool,
    commit_started: bool,
    order: Option<Vec<usize>>,
    /// Position in π currently being voted.
    cursor: usize,
    elected: Option<usize>,
    /// The elected candidate's W, once its proofs checked.
    w: Option<Vec<WEntry>>,
    /// The epoch's block was handed to the engine.
    done: bool,
}

/// The Dumbo lane — PRBC → CBC_value → CBC_commit → π → serial ABA → W
/// assembly — under one agreement and one packing. Pipelined depths
/// overlap only the PRBC dissemination; the serial election is inherently
/// per-epoch.
#[derive(Clone, Copy, Debug)]
pub struct DumboLane {
    /// The agreement each epoch's election runs.
    pub(crate) agreement: Agreement,
    /// How every component's packets are packaged.
    pub(crate) packing: Packing,
}

impl Lane for DumboLane {
    type Epoch = DumboEpoch;

    fn open(
        &self,
        ctx: &EpochCtx,
        txs: &[Tx],
        _: &mut rand_chacha::ChaCha12Rng,
        out: &mut EngineOut,
    ) -> DumboEpoch {
        let params = |role| ctx.params(role).packed(self.packing);
        let p_prbc = params(sessions::BROADCAST);
        let (p_val, p_com) = (params(sessions::CBC_VALUE), params(sessions::CBC_COMMIT));
        let c = ctx.crypto;
        let mut prbc = PrbcBatch::new(p_prbc, c.prbc_pub.clone(), c.prbc_sec.clone());
        let value_cbc = CbcBatch::new(p_val, c.cbc_pub.clone(), c.cbc_sec.clone());
        let commit_cbc = match self.packing {
            Packing::Combined => {
                CommitCbc::Small(CbcSmallBatch::new(p_com, c.cbc_pub.clone(), c.cbc_sec.clone()))
            }
            Packing::PerInstance => {
                CommitCbc::Full(CbcBatch::new(p_com, c.cbc_pub.clone(), c.cbc_sec.clone()))
            }
        };
        let mut acts = Actions::new();
        prbc.start(encode_batch(txs), &mut acts);
        out.absorb(p_prbc.session, &mut acts);
        DumboEpoch {
            prbc,
            value_cbc,
            commit_cbc,
            pi: PiCoin::new(params(sessions::PI_COIN)),
            aba: self.agreement.build(params(sessions::ABA), c),
            value_started: false,
            commit_started: false,
            order: None,
            cursor: 0,
            elected: None,
            w: None,
            done: false,
        }
    }

    fn handle(
        &self,
        st: &mut DumboEpoch,
        ctx: &EpochCtx,
        role: u64,
        from: usize,
        body: &Body,
        acts: &mut Actions,
    ) {
        match role {
            sessions::BROADCAST => st.prbc.handle(from, body, acts),
            sessions::CBC_VALUE => st.value_cbc.handle(from, body, acts),
            sessions::CBC_COMMIT => st.commit_cbc.handle(from, body, acts),
            sessions::PI_COIN => st.pi.handle(body, ctx.crypto, acts),
            sessions::ABA => st.aba.handle(from, body, acts),
            _ => {}
        }
    }

    fn on_timer(&self, st: &mut DumboEpoch, _: &EpochCtx, role: u64, local: u32, acts: &mut Actions) {
        match role {
            sessions::BROADCAST => st.prbc.on_timer(local, acts),
            sessions::CBC_VALUE => st.value_cbc.on_timer(local, acts),
            sessions::CBC_COMMIT => st.commit_cbc.on_timer(local, acts),
            sessions::PI_COIN => st.pi.on_timer(local, acts),
            sessions::ABA => st.aba.on_timer(local, acts),
            _ => {}
        }
    }

    fn poll(
        &self,
        st: &mut DumboEpoch,
        ctx: &EpochCtx,
        may_agree: bool,
        _pipelined: bool,
        out: &mut EngineOut,
    ) -> Option<Block> {
        let quorum = ctx.quorum();
        // Stage 2: CBC_value after 2f+1 PRBC proofs. The whole agreement
        // stage (CBC → coin → election) hangs off this gate: starting the
        // CBC of a parked epoch early would exclude proposals still in
        // flight behind pipelined traffic from the W vector.
        if !st.value_started && st.prbc.proven_count() >= quorum && may_agree {
            st.value_started = true;
            let mut entries = Vec::new();
            for j in 0..ctx.n {
                if let (Some(proof), Some(v)) = (st.prbc.proof(j), st.prbc.delivered(j)) {
                    entries.push((j as u8, Digest32::of(v), *proof));
                }
            }
            let mut acts = Actions::new();
            st.value_cbc.start(encode_w(&entries), &mut acts);
            out.absorb(ctx.session(sessions::CBC_VALUE), &mut acts);
        }
        // Stage 3: CBC_commit after 2f+1 CBC_value deliveries.
        if st.value_started && !st.commit_started && st.value_cbc.delivered_count() >= quorum {
            st.commit_started = true;
            let mut s = Bitmap::new(ctx.n);
            for j in 0..ctx.n {
                if st.value_cbc.delivered(j).is_some() {
                    s.set(j, true);
                }
            }
            let mut acts = Actions::new();
            st.commit_cbc.start(s, &mut acts);
            out.absorb(ctx.session(sessions::CBC_COMMIT), &mut acts);
        }
        // Stage 4: π coin after 2f+1 commits.
        if st.commit_started
            && st.order.is_none()
            && st.commit_cbc.delivered_count() >= quorum
            && st.pi.coin.own().is_none()
        {
            let mut acts = Actions::new();
            st.pi.activate(ctx.crypto, &mut acts);
            out.absorb(ctx.session(sessions::PI_COIN), &mut acts);
        }
        if st.order.is_none() {
            if let Some(coin) = st.pi.value {
                st.order = Some(permutation(ctx.n, coin));
            }
        }
        // Stage 5: serial ABA over π.
        if let Some(order) = &st.order {
            while st.elected.is_none() && st.cursor < order.len() {
                let candidate = order[st.cursor];
                match st.aba.decided(candidate) {
                    Some(true) => st.elected = Some(candidate),
                    Some(false) => st.cursor += 1,
                    None => {
                        // Activate (idempotent) and wait. Vote 1 only if
                        // we hold everything stage 6 needs from this
                        // candidate: its commit set AND its CBC_value. A
                        // Byzantine candidate can complete the commit CBC
                        // (a small bitmap) while its CBC_value is
                        // permanently unrecoverable (init data corrupted
                        // under an honest root, so no honest node ever
                        // echoes); voting on the commit CBC alone then
                        // elects a candidate whose W no one can fetch and
                        // the epoch deadlocks waiting on NACK
                        // retransmissions that cannot help. Requiring the
                        // value locally means a 1-decision implies some
                        // honest node holds the W and can serve NACKs.
                        let input = st.commit_cbc.delivered_set(candidate).is_some()
                            && st.value_cbc.delivered(candidate).is_some();
                        let mut acts = Actions::new();
                        st.aba.set_input(candidate, input, &mut acts);
                        out.absorb(ctx.session(sessions::ABA), &mut acts);
                        break;
                    }
                }
            }
        }
        // Stage 6: assemble the block from the elected candidate's W, its
        // proofs checked once. An absent W or PRBC value is on its way via
        // NACK retransmission.
        if st.done {
            return None;
        }
        if st.w.is_none() {
            let wbytes = st.value_cbc.delivered(st.elected?)?;
            let mut acts = Actions::new();
            let mut valid = |(id, root, proof): &WEntry| {
                st.prbc.check_proof(*id as usize, root, proof, &mut acts)
            };
            // Every proof is checked (and charged), a forged one or not.
            let w = decode_w(wbytes).filter(|w| w.iter().filter(|e| valid(e)).count() == w.len());
            out.absorb(ctx.session(sessions::BROADCAST), &mut acts);
            let Some(w) = w else {
                // A malformed or forged W cannot come from an elected
                // honest candidate; fall back to the next one.
                st.elected = None;
                st.cursor += 1;
                return None;
            };
            st.w = Some(w);
        }
        let entries = st.w.as_ref()?;
        if !entries.iter().all(|(id, _, _)| st.prbc.delivered(*id as usize).is_some()) {
            return None;
        }
        st.done = true;
        let batches = entries.iter().filter_map(|(id, root, _)| {
            let v = st.prbc.delivered(*id as usize)?;
            (Digest32::of(v) == *root).then_some(&v[..])
        });
        Some(union_block(ctx.epoch, batches))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ProtocolNode;
    use crate::workload::Workload;
    use crate::Protocol;
    use wbft_components::deal_node_crypto;
    use wbft_crypto::CryptoSuite;
    use wbft_wireless::{ChannelId, SimConfig, SimTime, Simulator, Topology};

    /// Dumbo-SC's lane.
    const SC: DumboLane = DumboLane {
        agreement: Agreement::SharedCoin { flavor: CoinFlavor::ThreshSig, serial: true },
        packing: Packing::Combined,
    };

    fn run_dumbo(variant: Protocol, seed: u64, epochs: u64) -> Vec<Vec<Block>> {
        run_dumbo_at_depth(variant, seed, epochs, 1)
    }

    fn run_dumbo_at_depth(
        variant: Protocol,
        seed: u64,
        epochs: u64,
        depth: u64,
    ) -> Vec<Vec<Block>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let crypto = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        let workload = Workload::small();
        let behaviors: Vec<_> = crypto
            .into_iter()
            .map(|c| {
                let engine = variant.engine_at_depth(c.clone(), workload.clone(), epochs, depth);
                ProtocolNode::new(engine, c, ChannelId(0))
            })
            .collect();
        let cfg = SimConfig { seed, ..SimConfig::default() };
        let mut sim = Simulator::new(cfg, Topology::single_hop(4), behaviors);
        let ok = sim.run_until_pred(SimTime::from_micros(3_600_000_000), |s| {
            s.behaviors().all(|(_, b)| b.is_done())
        });
        assert!(ok, "{variant} did not complete in a simulated hour");
        sim.behaviors().map(|(_, b)| b.blocks().to_vec()).collect()
    }

    #[test]
    fn dumbo_sc_agreement() {
        let blocks = run_dumbo(Protocol::DumboSc, 3, 1);
        let first = &blocks[0];
        assert_eq!(first.len(), 1);
        assert!(!first[0].txs.is_empty());
        for b in &blocks {
            assert_eq!(b, first);
        }
    }

    #[test]
    fn dumbo_lc_agreement() {
        let blocks = run_dumbo(Protocol::DumboLc, 4, 1);
        let first = &blocks[0];
        for b in &blocks {
            assert_eq!(b, first);
        }
    }

    #[test]
    fn dumbo_sc_pipelined_depths_agree_and_commit_in_order() {
        for depth in [2u64, 4] {
            let all_blocks = run_dumbo_at_depth(Protocol::DumboSc, 5, 3, depth);
            let first = &all_blocks[0];
            assert_eq!(first.len(), 3, "depth {depth}: all epochs commit");
            for (e, b) in first.iter().enumerate() {
                assert_eq!(b.epoch, e as u64, "depth {depth}: chain is in epoch order");
            }
            for blocks in &all_blocks {
                assert_eq!(blocks, first, "depth {depth}: all nodes agree");
            }
        }
    }

    /// One Dumbo-SC epoch on four lanes over a lossless in-memory mesh
    /// without timers, where node `victim` never receives an INITIAL
    /// fragment of PRBC instance `held`. Returns the crypto and each node's
    /// epoch.
    fn mesh_withholding(victim: usize, held: u8) -> (Vec<NodeCrypto>, Vec<DumboEpoch>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let crypto = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        fn ctx(c: &NodeCrypto) -> EpochCtx<'_> {
            EpochCtx { epoch: 0, n: 4, f: 1, me: c.me, crypto: c }
        }
        let workload = Workload::small();
        let mut chacha = rand_chacha::ChaCha12Rng::seed_from_u64(0);
        let mut queue = std::collections::VecDeque::new();
        let mut epochs: Vec<DumboEpoch> = crypto
            .iter()
            .map(|c| {
                let mut out = EngineOut::new();
                let txs = workload.batch(0, c.me);
                let st = SC.open(&ctx(c), &txs, &mut chacha, &mut out);
                queue.extend(out.sends.into_iter().map(|(session, body)| (c.me, session, body)));
                st
            })
            .collect();
        while let Some((from, session, body)) = queue.pop_front() {
            for (to, st) in epochs.iter_mut().enumerate().filter(|(to, _)| *to != from) {
                let init = matches!(body, Body::RbcInit { instance, .. } if instance == held);
                if to == victim && init {
                    continue;
                }
                let ctx = ctx(&crypto[to]);
                let mut acts = Actions::new();
                SC.handle(st, &ctx, sessions::split(session).1, from, &body, &mut acts);
                let mut out = EngineOut::new();
                out.absorb(session, &mut acts);
                SC.poll(st, &ctx, true, false, &mut out);
                queue.extend(out.sends.into_iter().map(|(session, body)| (to, session, body)));
            }
        }
        (crypto, epochs)
    }

    #[test]
    fn the_elected_w_is_checked_once_while_a_value_it_names_is_missing() {
        let cases = (1..4usize).flat_map(|victim| (0..4u8).map(move |held| (victim, held)));
        for (victim, held) in cases.filter(|&(victim, held)| victim != held as usize) {
            let (crypto, mut epochs) = mesh_withholding(victim, held);
            let st = &mut epochs[victim];
            let named = st.w.as_ref().is_some_and(|w| w.iter().any(|(id, ..)| *id == held));
            if !named {
                continue;
            }
            assert!(st.prbc.delivered(held as usize).is_none(), "instance {held} withheld");
            let ctx = EpochCtx { epoch: 0, n: 4, f: 1, me: victim, crypto: &crypto[victim] };
            assert!(st.w.is_some() && !st.done, "node {victim} elected and checked the W");
            for poll in 0..2 {
                let mut out = EngineOut::new();
                assert_eq!(SC.poll(st, &ctx, true, false, &mut out), None);
                assert_eq!(out.charge_us, 0, "poll {poll} re-checked the elected W");
            }
            return;
        }
        panic!("no elected W named a withheld instance");
    }

    #[test]
    fn w_vector_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let (pks, sks) =
            wbft_crypto::thresh_sig::deal(4, 1, wbft_crypto::ThresholdCurve::Bn158, &mut rng);
        let shares: Vec<_> = sks[..2].iter().map(|s| s.sign_share(b"m")).collect();
        let sig = pks.combine(&shares).unwrap();
        let entries =
            vec![(0u8, Digest32::of(b"a"), sig), (3u8, Digest32::of(b"b"), sig)];
        let enc = encode_w(&entries);
        assert_eq!(decode_w(&enc), Some(entries));
        assert_eq!(decode_w(&enc[..10]), None);
    }

    #[test]
    fn commit_set_roundtrip() {
        let s = Bitmap::from_raw(0b1011, 4);
        assert_eq!(decode_commit(&encode_commit(&s)), Some(s));
        assert_eq!(decode_commit(&[9]), None);
    }

    #[test]
    fn permutation_is_deterministic_and_complete() {
        let p1 = permutation(7, 42);
        let p2 = permutation(7, 42);
        assert_eq!(p1, p2);
        let mut sorted = p1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..7).collect::<Vec<_>>());
        assert_ne!(permutation(7, 42), permutation(7, 43));
    }
}
