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
//! Wireless HoneyBadgerBFT (and BEAT) — paper §V-A, Fig. 7a.
//!
//! Per epoch: every node threshold-encrypts its transaction batch and
//! proposes it through one of N batched RBC instances; once `2f+1` RBC
//! instances deliver, the node inputs 1 to the ABAs of the delivered
//! instances and 0 to the rest, starting **all ABA instances
//! simultaneously** — the paper's liveness rule that stops Byzantine nodes
//! from learning the (shared) round coin before the votes are bound. The
//! union of proposals whose ABA decided 1 forms the epoch set; nodes then
//! exchange threshold-decryption shares (batched into one packet per
//! channel access) and commit the decrypted union as the block.
//!
//! This module is the protocol's [`Lane`]: the epoch pipeline around it
//! (opening epochs, in-order commit, recovery, membership) is the shared
//! [`EpochEngine`]. The lane is generic over the broadcast and agreement
//! deployments, so the same code yields HoneyBadgerBFT-LC / -SC, BEAT
//! (coin-flipping ABA), and the unbatched `*-baseline` variants.

use crate::driver::{sessions, Block, EngineOut, Tx};
use crate::engine::{union_block, EpochCtx, EpochEngine, Lane};
use crate::service::StopCondition;
#[cfg(test)]
use crate::workload::Workload;
use crate::workload::{encode_batch, BatchSource};
use bytes::Bytes;
use wbft_components::aba_lc::AbaLcBatch;
use wbft_components::aba_sc::AbaScBatch;
use wbft_components::baseline::{BaselineAbaSet, BaselineRbcSet};
use wbft_components::rbc::RbcBatch;
use wbft_components::{Actions, Batcher, BinaryAgreement, Broadcaster, NodeCrypto, Params};
use wbft_crypto::thresh_enc::{Ciphertext, DecShare};
use wbft_net::wire::{ByteSink, Sink, WireReader};
use wbft_net::{Bitmap, Body, CoinFlavor};

const TIMER_DEC_RETX: u32 = 0;

// ------------------------------------------------------------------
// Ciphertext wire format: `u`, the tag, then the body to the end.

/// Proposal bytes a ciphertext adds to its plaintext: `u` and the tag.
pub const CIPHERTEXT_OVERHEAD: usize = 64;

/// Encodes a threshold ciphertext into proposal bytes.
pub fn encode_ciphertext(ct: &Ciphertext) -> Bytes {
    let mut s = ByteSink::new();
    s.raw(&ct.u.to_bytes());
    s.digest(&ct.tag);
    s.raw(&ct.body);
    s.into_bytes()
}

/// Decodes proposal bytes back into a ciphertext (`None` = malformed).
pub fn decode_ciphertext(data: &[u8]) -> Option<Ciphertext> {
    let mut r = WireReader::new(data);
    let (u, tag) = (r.group_elem().ok()?, r.digest().ok()?);
    Some(Ciphertext { u, tag, body: r.rest().to_vec() })
}

/// The decryption-label of a proposer's epoch ciphertext.
fn ct_label(epoch: u64, proposer: usize) -> Vec<u8> {
    let mut l = Vec::with_capacity(24);
    l.extend_from_slice(b"wbft/hb/ct");
    l.extend_from_slice(&epoch.to_le_bytes());
    l.extend_from_slice(&(proposer as u64).to_le_bytes());
    l
}

// ------------------------------------------------------------------
// Decryption stage.

/// Collects and serves threshold-decryption shares for the epoch's accepted
/// ciphertexts. Batched mode ships one [`Body::DecShareBatch`] per channel
/// access; baseline mode one [`Body::BaseDecShare`] per proposer.
#[derive(Debug)]
struct DecStage {
    p: Params,
    epoch: u64,
    batched: bool,
    cts: Vec<Option<Ciphertext>>,
    active: Vec<bool>,
    my_sent: Vec<bool>,
    /// This node's own share per proposer, cached so retransmission-heavy
    /// flushes don't recompute the DLEQ proof every packet build.
    my_shares: Vec<Option<DecShare>>,
    shares: Vec<Vec<DecShare>>,
    reporters: Vec<u64>,
    plaintexts: Vec<Option<Vec<u8>>>,
    out: Batcher,
}

impl DecStage {
    fn new(p: Params, epoch: u64, batched: bool) -> Self {
        DecStage {
            epoch,
            batched,
            cts: vec![None; p.n],
            active: vec![false; p.n],
            my_sent: vec![false; p.n],
            my_shares: vec![None; p.n],
            shares: vec![Vec::new(); p.n],
            reporters: vec![0; p.n],
            plaintexts: vec![None; p.n],
            out: Batcher::new(&p, TIMER_DEC_RETX),
            p,
        }
    }

    /// Activates decryption of proposer `j`'s ciphertext.
    fn activate(&mut self, j: usize, ct: Ciphertext, crypto: &NodeCrypto, acts: &mut Actions) {
        if self.active[j] {
            return;
        }
        self.active[j] = true;
        let my_share = (!self.my_sent[j]).then(|| crypto.enc_sec.dec_share(&ct));
        self.cts[j] = Some(ct);
        if let Some(share) = my_share {
            self.my_sent[j] = true;
            // Producing a decryption share costs one share-signing op.
            acts.charge(crypto.suite.threshold.signature_profile().sign_share_us);
            self.my_shares[j] = Some(share);
            self.record(j, share, crypto, acts, true);
            self.out.changed();
        }
        self.flush(acts);
    }

    fn record(
        &mut self,
        j: usize,
        share: DecShare,
        crypto: &NodeCrypto,
        acts: &mut Actions,
        own: bool,
    ) {
        if j >= self.p.n || self.plaintexts[j].is_some() {
            return;
        }
        let Some(ct) = &self.cts[j] else {
            // Shares may arrive before our RBC delivered the ciphertext;
            // they are re-served by peers' retransmissions once it does.
            return;
        };
        // The index is off the wire, checked only for non-zero there: refuse
        // one outside the committee before it shifts the reporter mask.
        let i = share.index.value() as usize;
        if i == 0 || i > self.p.n {
            return;
        }
        let bit = 1u64 << (i - 1);
        if self.reporters[j] & bit != 0 {
            return;
        }
        if !own {
            acts.charge(crypto.suite.threshold.signature_profile().verify_share_us);
        }
        if crypto.enc_pub.verify_share(ct, &share).is_err() {
            return;
        }
        self.reporters[j] |= bit;
        self.shares[j].push(share);
        if self.shares[j].len() > self.p.f {
            acts.charge(crypto.suite.threshold.signature_profile().combine_us);
            let label = ct_label(self.epoch, j);
            // Every collected share passed `verify_share` above, from distinct
            // reporters: the decryption key may come from the power table.
            if let Ok(pt) = crypto.enc_pub.decrypt_verified(&label, ct, &self.shares[j]) {
                self.plaintexts[j] = Some(pt);
                self.out.changed();
            } else {
                // A corrupt share poisoned the combination; drop collected
                // shares and rebuild from retransmissions.
                self.shares[j].clear();
                self.reporters[j] = 0;
                if self.my_sent[j] {
                    if let Some(share) = self.my_shares[j] {
                        self.record(j, share, crypto, acts, true);
                    }
                }
            }
        }
    }

    fn build(&self) -> Vec<Body> {
        if self.batched {
            let mut shares = Vec::new();
            let mut dec_nack = Bitmap::new(self.p.n);
            for j in 0..self.p.n {
                if self.my_sent[j] {
                    if let Some(share) = self.my_shares[j] {
                        shares.push((j as u8, share));
                    }
                }
                if self.active[j] && self.plaintexts[j].is_none() {
                    dec_nack.set(j, true);
                }
            }
            vec![Body::DecShareBatch { shares, dec_nack }]
        } else {
            let mut out = Vec::new();
            for j in 0..self.p.n {
                if self.my_sent[j] {
                    if let Some(share) = self.my_shares[j] {
                        out.push(Body::BaseDecShare { proposer: j as u8, share });
                    }
                }
            }
            out
        }
    }

    fn flush(&mut self, acts: &mut Actions) {
        if self.out.flush() {
            for body in self.build() {
                acts.send(body);
            }
        }
        self.out.arm(acts);
    }

    fn complete_for(&self, accepted: &[usize]) -> bool {
        accepted.iter().all(|&j| self.plaintexts[j].is_some())
    }

    fn handle(&mut self, body: &Body, crypto: &NodeCrypto, acts: &mut Actions) {
        match body {
            Body::DecShareBatch { shares, dec_nack } => {
                for (j, share) in shares {
                    self.record(*j as usize, *share, crypto, acts, false);
                }
                if dec_nack.len() == self.p.n
                    && dec_nack.iter_set().any(|j| self.my_sent[j])
                {
                    self.out.peer_behind();
                }
            }
            Body::BaseDecShare { proposer, share } => {
                self.record(*proposer as usize, *share, crypto, acts, false);
            }
            _ => {}
        }
        self.flush(acts);
    }

    fn on_timer(&mut self, local: u32, accepted: Option<&[usize]>, acts: &mut Actions) {
        // Nothing to re-send until some proposer is active (and no NACK can
        // have named a share of ours before then).
        let complete =
            !self.active.contains(&true) || accepted.is_some_and(|a| self.complete_for(a));
        if self.out.tick(local, complete, acts).is_some() {
            for body in self.build() {
                acts.send(body);
            }
        }
    }
}

// ------------------------------------------------------------------
// The lane.

/// One epoch's live components.
pub struct HbEpoch<B, A> {
    rbc: B,
    aba: A,
    dec: DecStage,
    aba_inputs_sent: bool,
    accepted: Option<Vec<usize>>,
    /// The epoch's block was handed to the engine.
    done: bool,
}

/// The HoneyBadgerBFT/BEAT lane: RBC → parallel ABA → threshold
/// decryption, generic over deployment style.
pub struct HbLane<B, A> {
    make_rbc: fn(Params) -> B,
    /// Builds a fresh agreement instance from the epoch's committee
    /// parameters and the (key-epoch-aware) crypto.
    make_aba: fn(Params, &NodeCrypto) -> A,
    batched_dec: bool,
}

/// Starts decryption of proposer `j`'s delivered proposal; a malformed
/// ciphertext from a Byzantine proposer counts as an empty contribution.
fn activate_dec(
    dec: &mut DecStage,
    rbc: &impl Broadcaster,
    j: usize,
    ctx: &EpochCtx,
    out: &mut EngineOut,
) {
    if dec.active[j] {
        return;
    }
    let Some(bytes) = rbc.delivered(j) else { return };
    if let Some(ct) = decode_ciphertext(bytes) {
        let mut acts = Actions::new();
        dec.activate(j, ct, ctx.crypto, &mut acts);
        out.absorb(ctx.session(sessions::DEC), &mut acts);
    } else {
        dec.active[j] = true;
        dec.plaintexts[j] = Some(encode_batch(&[]).to_vec());
    }
}

impl<B: Broadcaster, A: BinaryAgreement> Lane for HbLane<B, A> {
    type Epoch = HbEpoch<B, A>;

    fn open(
        &self,
        ctx: &EpochCtx,
        txs: &[Tx],
        rng: &mut rand_chacha::ChaCha12Rng,
        out: &mut EngineOut,
    ) -> Self::Epoch {
        let p_rbc = ctx.params(sessions::BROADCAST);
        let mut rbc = (self.make_rbc)(p_rbc);
        let aba = (self.make_aba)(ctx.params(sessions::ABA), ctx.crypto);
        let dec = DecStage::new(ctx.params(sessions::DEC), ctx.epoch, self.batched_dec);
        // Threshold-encrypt the batch (censorship resilience), charged as
        // one share-signing-class operation.
        let mut acts = Actions::new();
        acts.charge(ctx.crypto.suite.threshold.signature_profile().sign_share_us);
        let ct = ctx.crypto.enc_pub.encrypt(&ct_label(ctx.epoch, ctx.me), &encode_batch(txs), rng);
        rbc.start(encode_ciphertext(&ct), &mut acts);
        out.absorb(p_rbc.session, &mut acts);
        HbEpoch { rbc, aba, dec, aba_inputs_sent: false, accepted: None, done: false }
    }

    fn handle(
        &self,
        st: &mut Self::Epoch,
        ctx: &EpochCtx,
        role: u64,
        from: usize,
        body: &Body,
        acts: &mut Actions,
    ) {
        match role {
            sessions::BROADCAST => st.rbc.handle(from, body, acts),
            sessions::ABA => st.aba.handle(from, body, acts),
            sessions::DEC => st.dec.handle(body, ctx.crypto, acts),
            _ => {}
        }
    }

    fn on_timer(&self, st: &mut Self::Epoch, _: &EpochCtx, role: u64, local: u32, acts: &mut Actions) {
        match role {
            sessions::BROADCAST => st.rbc.on_timer(local, acts),
            sessions::ABA => st.aba.on_timer(local, acts),
            sessions::DEC => st.dec.on_timer(local, st.accepted.as_deref(), acts),
            _ => {}
        }
    }

    fn poll(
        &self,
        st: &mut Self::Epoch,
        ctx: &EpochCtx,
        may_agree: bool,
        pipelined: bool,
        out: &mut EngineOut,
    ) -> Option<Block> {
        // 1. Feed ABA inputs when 2f+1 RBCs delivered — all at once.
        if !st.aba_inputs_sent && st.rbc.delivered_count() >= ctx.quorum() && may_agree {
            st.aba_inputs_sent = true;
            let mut acts = Actions::new();
            for j in 0..ctx.n {
                let input = st.rbc.delivered(j).is_some();
                st.aba.set_input(j, input, &mut acts);
            }
            out.absorb(ctx.session(sessions::ABA), &mut acts);
        }
        // 1b. Early-commit fast path (pipelined depths only): once our ABA
        //     inputs are bound, n−f of them are unanimously 1, so start
        //     exchanging decryption shares for every delivered instance the
        //     ABAs have not rejected instead of waiting for the full
        //     accepted set to freeze. Commit still waits for stage 2's
        //     frozen set; shares for instances that end up rejected are
        //     simply never combined.
        if pipelined && st.aba_inputs_sent && st.accepted.is_none() {
            for j in 0..ctx.n {
                if st.aba.decided(j) != Some(false) {
                    activate_dec(&mut st.dec, &st.rbc, j, ctx, out);
                }
            }
        }
        // 2. Freeze the accepted set when all ABAs decided.
        if st.accepted.is_none() && st.aba_inputs_sent && st.aba.decided_count() == ctx.n {
            st.accepted = Some((0..ctx.n).filter(|&j| st.aba.decided(j) == Some(true)).collect());
        }
        // 3. Activate decryption for accepted instances whose value we hold.
        let accepted = st.accepted.as_ref()?;
        for &j in accepted {
            activate_dec(&mut st.dec, &st.rbc, j, ctx, out);
        }
        // 4. Decide the epoch once every accepted proposal decrypted.
        if st.done || !st.dec.complete_for(accepted) {
            return None;
        }
        st.done = true;
        let plaintexts = accepted.iter().filter_map(|&j| st.dec.plaintexts[j].as_deref());
        Some(union_block(ctx.epoch, plaintexts))
    }
}

// ------------------------------------------------------------------
// Variant constructors.

fn hb_engine<B: Broadcaster, A: BinaryAgreement>(
    crypto: NodeCrypto,
    source: impl Into<BatchSource>,
    stop: StopCondition,
    batched: bool,
    make_rbc: fn(Params) -> B,
    make_aba: fn(Params, &NodeCrypto) -> A,
) -> EpochEngine<HbLane<B, A>> {
    EpochEngine::new(crypto, HbLane { make_rbc, make_aba, batched_dec: batched }, source, stop)
}

/// Wireless HoneyBadgerBFT-SC: batched RBC + batched shared-coin ABA
/// (threshold signatures).
pub fn hb_sc(
    crypto: NodeCrypto,
    source: impl Into<BatchSource>,
    stop: StopCondition,
) -> EpochEngine<HbLane<RbcBatch, AbaScBatch>> {
    hb_engine(crypto, source, stop, true, RbcBatch::new, |p, c| {
        AbaScBatch::new_parallel(p, CoinFlavor::ThreshSig, c.coin_pub.clone(), c.coin_sec.clone())
    })
}

/// Wireless HoneyBadgerBFT-LC: batched RBC + batched local-coin (Bracha)
/// ABA.
pub fn hb_lc(
    crypto: NodeCrypto,
    source: impl Into<BatchSource>,
    stop: StopCondition,
) -> EpochEngine<HbLane<RbcBatch, AbaLcBatch>> {
    hb_engine(crypto, source, stop, true, RbcBatch::new, |p, _| AbaLcBatch::new(p))
}

/// Wireless BEAT (BEAT0): HoneyBadger structure with threshold
/// coin-flipping ABA.
pub fn beat(
    crypto: NodeCrypto,
    source: impl Into<BatchSource>,
    stop: StopCondition,
) -> EpochEngine<HbLane<RbcBatch, AbaScBatch>> {
    hb_engine(crypto, source, stop, true, RbcBatch::new, |p, c| {
        AbaScBatch::new_parallel(p, CoinFlavor::CoinFlip, c.coin_pub.clone(), c.coin_sec.clone())
    })
}

/// Unbatched HoneyBadgerBFT-SC baseline.
pub fn hb_sc_baseline(
    crypto: NodeCrypto,
    source: impl Into<BatchSource>,
    stop: StopCondition,
) -> EpochEngine<HbLane<BaselineRbcSet, BaselineAbaSet>> {
    hb_engine(crypto, source, stop, false, BaselineRbcSet::new, |p, c| {
        BaselineAbaSet::new(p, CoinFlavor::ThreshSig, c.coin_pub.clone(), c.coin_sec.clone())
    })
}

/// Unbatched BEAT baseline.
pub fn beat_baseline(
    crypto: NodeCrypto,
    source: impl Into<BatchSource>,
    stop: StopCondition,
) -> EpochEngine<HbLane<BaselineRbcSet, BaselineAbaSet>> {
    hb_engine(crypto, source, stop, false, BaselineRbcSet::new, |p, c| {
        BaselineAbaSet::new(p, CoinFlavor::CoinFlip, c.coin_pub.clone(), c.coin_sec.clone())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ProtocolNode;
    use rand::SeedableRng;
    use wbft_components::deal_node_crypto;
    use wbft_crypto::CryptoSuite;
    use wbft_wireless::{ChannelId, SimConfig, SimTime, Simulator, Topology};

    fn run_hb_sc(seed: u64, epochs: u64) -> Vec<Vec<Block>> {
        run_hb_sc_at_depth(seed, epochs, 1)
    }

    fn run_hb_sc_at_depth(seed: u64, epochs: u64, depth: u64) -> Vec<Vec<Block>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let crypto = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        let workload = Workload::small();
        let behaviors: Vec<_> = crypto
            .into_iter()
            .map(|c| {
                let engine = hb_sc(c.clone(), workload.clone(), StopCondition::Epochs(epochs))
                    .with_depth(depth);
                ProtocolNode::new(engine, c, ChannelId(0))
            })
            .collect();
        let cfg = SimConfig { seed, ..SimConfig::default() };
        let mut sim = Simulator::new(cfg, Topology::single_hop(4), behaviors);
        let ok = sim.run_until_pred(SimTime::from_micros(3_600_000_000), |s| {
            s.behaviors().all(|(_, b)| b.is_done())
        });
        assert!(ok, "HB-SC did not complete {epochs} epochs in simulated hour");
        sim.behaviors().map(|(_, b)| b.blocks().to_vec()).collect()
    }

    #[test]
    fn hb_sc_single_epoch_agreement() {
        let all_blocks = run_hb_sc(5, 1);
        let first = &all_blocks[0];
        assert_eq!(first.len(), 1);
        assert!(!first[0].txs.is_empty(), "block should carry transactions");
        for blocks in &all_blocks {
            assert_eq!(blocks, first, "all nodes must commit identical blocks");
        }
    }

    #[test]
    fn hb_sc_multi_epoch_progress() {
        let all_blocks = run_hb_sc(6, 2);
        for blocks in &all_blocks {
            assert_eq!(blocks.len(), 2);
            assert_eq!(blocks[0].epoch, 0);
            assert_eq!(blocks[1].epoch, 1);
            assert_ne!(blocks[0].txs, blocks[1].txs, "epochs carry fresh batches");
        }
        assert_eq!(all_blocks[0], all_blocks[3]);
    }

    #[test]
    fn hb_sc_pipelined_depths_agree_and_commit_in_order() {
        for depth in [2u64, 4] {
            let all_blocks = run_hb_sc_at_depth(6, 4, depth);
            let first = &all_blocks[0];
            assert_eq!(first.len(), 4, "depth {depth}: all epochs commit");
            for (e, b) in first.iter().enumerate() {
                assert_eq!(b.epoch, e as u64, "depth {depth}: chain is in epoch order");
            }
            for blocks in &all_blocks {
                assert_eq!(blocks, first, "depth {depth}: all nodes agree");
            }
        }
    }

    #[test]
    fn a_dec_share_index_outside_the_committee_is_refused_uncharged() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let crypto = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        let mut dec = DecStage::new(Params::new(4, 0, 1), 0, true);
        let ct = crypto[0].enc_pub.encrypt(&ct_label(0, 1), b"payload", &mut rng);
        let mut acts = Actions::new();
        dec.activate(1, ct.clone(), &crypto[0], &mut acts);
        let charged = acts.charge_us;
        let mut share = crypto[1].enc_sec.dec_share(&ct);
        // n + 1, and a forged giant index that would overflow the shift.
        for index in [5, u16::MAX] {
            share.index = wbft_crypto::ShareIndex::new(index).unwrap();
            let batch = Body::DecShareBatch { shares: vec![(1, share)], dec_nack: Bitmap::new(4) };
            dec.handle(&batch, &crypto[0], &mut acts);
            dec.handle(&Body::BaseDecShare { proposer: 1, share }, &crypto[0], &mut acts);
        }
        assert_eq!(acts.charge_us, charged, "a refused share is not charged");
        assert_eq!((dec.reporters[1], dec.shares[1].len()), (1, 1), "only the own share is held");
    }

    #[test]
    fn ciphertext_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (enc, _) = wbft_crypto::thresh_enc::deal_enc(
            4,
            1,
            wbft_crypto::ThresholdCurve::Bn158,
            &mut rng,
        );
        let ct = enc.encrypt(b"label", b"some payload", &mut rng);
        let enc_bytes = encode_ciphertext(&ct);
        assert_eq!(enc_bytes.len(), b"some payload".len() + CIPHERTEXT_OVERHEAD);
        assert_eq!(decode_ciphertext(&enc_bytes), Some(ct));
        assert_eq!(decode_ciphertext(&[0u8; 10]), None);
    }
}
