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
//! CBC-broadcasts `W_i` (`CBC_value`), the set of PRBC instances whose proof
//! it holds; after `2f+1` `CBC_value` deliveries it CBC-broadcasts the
//! id-set `S_i` of completed `CBC_value` instances (`CBC_commit`); after
//! `2f+1` commits, a common coin fixes a random permutation π and the nodes
//! run **serial** ABA over candidates in π order — input 1 iff the
//! candidate's commit was delivered — until one ABA outputs 1. The block is
//! the union of the PRBC proposals the elected candidate's `W` names.
//! Serial activation also prevents premature coin-share release for later
//! instances (§V-A).
//!
//! Both CBCs carry an n-bit set of instances, so both are the same `SetCbc`:
//! CBC-small packets, whose INITIAL rides the vote packet, or under
//! [`Packing::PerInstance`] the ordinary CBC over [`encode_commit`]. `W`
//! carries no roots and no proofs: the PRBC DONE phase airs every proof to
//! every node already.
//!
//! **`W`'s external validity.** A node echoes `W_j` only once it admits it:
//! `W_j` names at least `n − f` instances, and this node holds the PRBC
//! proof of each, so it delivered each value. The lane offers every `W`
//! again on each poll as its proofs arrive. A certified `W` had at least
//! `f + 1` honest echoers, each of which delivered every value `W` names;
//! by RBC totality every honest node delivers them too. So the block waits
//! only for those values and checks no root or proof.
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
use wbft_crypto::thresh_coin::{self, CoinName};
use wbft_crypto::thresh_sig::{PublicKeySet, SigShare};
use wbft_net::wire::{checked_bitmap_len, ByteSink, Sink, WireReader};
use wbft_net::{Bitmap, Body, CoinFlavor, WireError};

const TIMER_PI_RETX: u32 = 0;

// ------------------------------------------------------------------
// The set wire format.

/// Instance-set (bitmap) encoding for the baseline's `CBC_value` and
/// `CBC_commit`: the bit length, then the whole 64-bit word.
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

/// CBC over an n-bit set of instances, `CBC_value`'s `W` and `CBC_commit`'s
/// `S`: the batched form broadcasts the bitmap itself in CBC-small packets,
/// whose INITIAL rides the vote packet; the baseline, which has no such
/// fold, an encoded copy through the ordinary CBC.
enum SetCbc {
    Small(CbcSmallBatch),
    Full(CbcBatch),
}

impl SetCbc {
    fn new(p: Params, c: &NodeCrypto) -> Self {
        let (keys, secret) = (c.cbc_pub.clone(), c.cbc_sec.clone());
        match p.packing {
            Packing::Combined => SetCbc::Small(CbcSmallBatch::new(p, keys, secret)),
            Packing::PerInstance => SetCbc::Full(CbcBatch::new(p, keys, secret)),
        }
    }
    /// Echoes a peer's set only once [`SetCbc::admit`] admits it.
    fn gated(self) -> Self {
        match self {
            SetCbc::Small(x) => SetCbc::Small(x.gated()),
            SetCbc::Full(x) => SetCbc::Full(x.gated()),
        }
    }
    fn admit(&mut self, valid: impl Fn(&Bitmap) -> bool, acts: &mut Actions) {
        match self {
            SetCbc::Small(x) => x.admit(valid, acts),
            SetCbc::Full(x) => x.admit(|b| decode_commit(b).is_some_and(|s| valid(&s)), acts),
        }
    }
    fn start(&mut self, s: Bitmap, acts: &mut Actions) {
        match self {
            SetCbc::Small(x) => x.start(s, acts),
            SetCbc::Full(x) => x.start(encode_commit(&s), acts),
        }
    }
    fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions) {
        match self {
            SetCbc::Small(x) => x.handle(from, body, acts),
            SetCbc::Full(x) => x.handle(from, body, acts),
        }
    }
    fn on_timer(&mut self, local: u32, acts: &mut Actions) {
        match self {
            SetCbc::Small(x) => x.on_timer(local, acts),
            SetCbc::Full(x) => x.on_timer(local, acts),
        }
    }
    fn delivered_set(&self, j: usize) -> Option<Bitmap> {
        match self {
            SetCbc::Small(x) => x.delivered_value(j),
            SetCbc::Full(x) => x.delivered(j).and_then(|b| decode_commit(b)),
        }
    }
    fn delivered_count(&self) -> usize {
        match self {
            SetCbc::Small(x) => x.delivered_count(),
            SetCbc::Full(x) => x.delivered_count(),
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
    value_cbc: SetCbc,
    commit_cbc: SetCbc,
    pi: PiCoin,
    aba: Box<dyn BinaryAgreement + Send>,
    value_started: bool,
    commit_started: bool,
    order: Option<Vec<usize>>,
    /// Position in π currently being voted.
    cursor: usize,
    elected: Option<usize>,
    /// The epoch's block was handed to the engine.
    done: bool,
}

/// The Dumbo lane — PRBC → CBC_value → CBC_commit → π → serial ABA → the
/// union of the elected `W` — under one agreement and one packing. Pipelined depths
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
        let mut acts = Actions::new();
        prbc.start(encode_batch(txs), &mut acts);
        out.absorb(p_prbc.session, &mut acts);
        DumboEpoch {
            prbc,
            value_cbc: SetCbc::new(p_val, c).gated(),
            commit_cbc: SetCbc::new(p_com, c),
            pi: PiCoin::new(params(sessions::PI_COIN)),
            aba: self.agreement.build(params(sessions::ABA), c),
            value_started: false,
            commit_started: false,
            order: None,
            cursor: 0,
            elected: None,
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
        // A peer's W is echoed once it is valid here: it names n − f
        // instances, and this node holds the proof of each.
        let (n, f, prbc) = (ctx.n, ctx.f, &st.prbc);
        let held = |w: &Bitmap| w.iter_set().all(|j| prbc.proof(j).is_some());
        let valid = |w: &Bitmap| w.len() == n && w.count() >= n - f && held(w);
        let mut acts = Actions::new();
        st.value_cbc.admit(valid, &mut acts);
        out.absorb(ctx.session(sessions::CBC_VALUE), &mut acts);
        // Stage 2: CBC_value after 2f+1 PRBC proofs. The whole agreement
        // stage (CBC → coin → election) hangs off this gate: starting the
        // CBC of a parked epoch early would exclude proposals still in
        // flight behind pipelined traffic from W.
        if !st.value_started && st.prbc.proven_count() >= quorum && may_agree {
            st.value_started = true;
            let mut w = Bitmap::new(ctx.n);
            for j in 0..ctx.n {
                w.set(j, st.prbc.proof(j).is_some());
            }
            st.value_cbc.start(w, &mut acts);
            out.absorb(ctx.session(sessions::CBC_VALUE), &mut acts);
        }
        // Stage 3: CBC_commit after 2f+1 CBC_value deliveries.
        if st.value_started && !st.commit_started && st.value_cbc.delivered_count() >= quorum {
            st.commit_started = true;
            let mut s = Bitmap::new(ctx.n);
            for j in 0..ctx.n {
                s.set(j, st.value_cbc.delivered_set(j).is_some());
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
                            && st.value_cbc.delivered_set(candidate).is_some();
                        let mut acts = Actions::new();
                        st.aba.set_input(candidate, input, &mut acts);
                        out.absorb(ctx.session(sessions::ABA), &mut acts);
                        break;
                    }
                }
            }
        }
        // Stage 6: the union of the values the elected W names, each
        // delivered here by RBC totality; one still absent is on its way via
        // NACK retransmission.
        if st.done {
            return None;
        }
        let w = st.value_cbc.delivered_set(st.elected?)?;
        if !w.iter_set().all(|j| st.prbc.delivered(j).is_some()) {
            return None;
        }
        st.done = true;
        let batches = w.iter_set().filter_map(|j| st.prbc.delivered(j)).map(|v| &v[..]);
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

    fn ctx(c: &NodeCrypto) -> EpochCtx<'_> {
        EpochCtx { epoch: 0, n: 4, f: 1, me: c.me, crypto: c }
    }

    /// What one epoch over [`mesh`] left behind.
    struct Mesh {
        crypto: Vec<NodeCrypto>,
        /// Each node's epoch; `None` at the Byzantine node.
        epochs: Vec<Option<DumboEpoch>>,
        /// Each node's block, once its lane handed it over.
        blocks: Vec<Option<Block>>,
        /// Every packet sent: sender, session, body.
        sent: Vec<(usize, u64, Body)>,
    }

    /// One Dumbo-SC epoch on four nodes over a lossless in-memory mesh
    /// without timers. `byzantine = Some((b, w))` puts node `b` in no lane:
    /// it leads a `CBC_value` instance proposing `w` and is silent
    /// otherwise. Node `to` never receives a packet `lost(to, body)`.
    fn mesh(byzantine: Option<(usize, Bitmap)>, lost: impl Fn(usize, &Body) -> bool) -> Mesh {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let crypto = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        let workload = Workload::small();
        let mut chacha = rand_chacha::ChaCha12Rng::seed_from_u64(0);
        let mut queue = std::collections::VecDeque::new();
        let mut liar = byzantine.map(|(b, w)| {
            let (p, c) = (ctx(&crypto[b]).params(sessions::CBC_VALUE), &crypto[b]);
            let mut cbc = CbcSmallBatch::new(p, c.cbc_pub.clone(), c.cbc_sec.clone());
            let mut acts = Actions::new();
            cbc.start(w, &mut acts);
            queue.extend(acts.drain().0.into_iter().map(|body| (b, p.session, body)));
            cbc
        });
        let mut epochs: Vec<Option<DumboEpoch>> = crypto
            .iter()
            .map(|c| {
                (byzantine.map(|(b, _)| b) != Some(c.me)).then(|| {
                    let mut out = EngineOut::new();
                    let txs = workload.batch(0, c.me);
                    let st = SC.open(&ctx(c), &txs, &mut chacha, &mut out);
                    let sends = out.sends.into_iter().map(|(session, body)| (c.me, session, body));
                    queue.extend(sends);
                    st
                })
            })
            .collect();
        let (mut blocks, mut sent) = (vec![None; 4], Vec::new());
        while let Some((from, session, body)) = queue.pop_front() {
            let role = sessions::split(session).1;
            for to in (0..4).filter(|&to| to != from && !lost(to, &body)) {
                let mut acts = Actions::new();
                let mut out = EngineOut::new();
                match (&mut epochs[to], &mut liar) {
                    (Some(st), _) => {
                        let ctx = ctx(&crypto[to]);
                        SC.handle(st, &ctx, role, from, &body, &mut acts);
                        out.absorb(session, &mut acts);
                        if let Some(block) = SC.poll(st, &ctx, true, false, &mut out) {
                            blocks[to] = Some(block);
                        }
                    }
                    (None, Some(cbc)) if role == sessions::CBC_VALUE => {
                        cbc.handle(from, &body, &mut acts);
                        out.absorb(session, &mut acts);
                    }
                    _ => {}
                }
                queue.extend(out.sends.into_iter().map(|(session, body)| (to, session, body)));
            }
            sent.push((from, session, body));
        }
        Mesh { crypto, epochs, blocks, sent }
    }

    #[test]
    fn the_elected_set_waits_for_a_withheld_value_and_charges_nothing_per_poll() {
        let cases = (1..4usize).flat_map(|victim| (0..4u8).map(move |held| (victim, held)));
        for (victim, held) in cases.filter(|&(victim, held)| victim != held as usize) {
            let init =
                |body: &Body| matches!(body, Body::RbcInit { instance, .. } if *instance == held);
            let mut m = mesh(None, |to, body| to == victim && init(body));
            let Some(st) = m.epochs[victim].as_mut() else { unreachable!("no Byzantine node") };
            let elected = st.elected.and_then(|j| st.value_cbc.delivered_set(j));
            if !elected.is_some_and(|w| w.get(usize::from(held))) {
                continue;
            }
            assert!(st.prbc.delivered(usize::from(held)).is_none(), "instance {held} withheld");
            assert!(!st.done && m.blocks[victim].is_none(), "node {victim} waits for it");
            let ctx = ctx(&m.crypto[victim]);
            for poll in 0..2 {
                let mut out = EngineOut::new();
                assert_eq!(SC.poll(st, &ctx, true, false, &mut out), None);
                assert_eq!(out.charge_us, 0, "poll {poll} charged for the elected set");
            }
            return;
        }
        panic!("no elected W named a withheld instance");
    }

    #[test]
    fn a_byzantine_leader_s_invalid_w_is_never_certified_and_the_epoch_commits() {
        // Node 3 runs no PRBC, so no one proves instance 3. Its W names one
        // instance, fewer than n − f, or three with instance 3 among them.
        for w in [Bitmap::from_raw(0b0001, 4), Bitmap::from_raw(0b1011, 4)] {
            let m = mesh(Some((3, w)), |_, _| false);
            for (from, session, body) in m.sent.iter().filter(|(from, ..)| *from != 3) {
                if let (sessions::CBC_VALUE, Body::CbcSmall { echo_shares, .. }) =
                    (sessions::split(*session).1, body)
                {
                    let echoed = echo_shares.iter().any(|&(j, _)| j == 3);
                    assert!(!echoed, "node {from} echoed W = {:#06b}", w.to_raw());
                }
            }
            for st in m.epochs.iter().flatten() {
                let certified = st.value_cbc.delivered_set(3).is_some();
                assert!(!certified, "W = {:#06b} certified", w.to_raw());
            }
            let honest = &m.blocks[..3];
            assert!(honest[0].is_some(), "W = {:#06b}: the epoch commits", w.to_raw());
            assert!(honest.iter().all(|b| b == &honest[0]), "honest blocks agree");
        }
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
