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
//! [`crate::engine::EpochEngine`]. The lane takes an [`Agreement`] and a
//! packing, so the same code yields HoneyBadgerBFT-LC / -SC, BEAT
//! (coin-flipping ABA), and the unbatched `*-baseline` variants (the same
//! components, one instance per frame); [`crate::Protocol`] states which.

use crate::driver::{sessions, Block, EngineOut, Tx};
use crate::engine::{union_block, EpochCtx, Lane};
use crate::workload::encode_batch;
use bytes::Bytes;
use wbft_components::rbc::RbcBatch;
use wbft_components::{
    Actions, Agreement, Batcher, BinaryAgreement, Broadcaster, Collector, NodeCrypto, Packing,
    Params, Quorum, Recorded,
};
use wbft_crypto::thresh_enc::{Ciphertext, DecShare, EncPublicSet};
use wbft_net::wire::{ByteSink, Sink, WireReader};
use wbft_net::{Bitmap, Body};

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
fn ct_label(epoch: u64, proposer: usize) -> [u8; 26] {
    let mut l = [0u8; 26];
    l[..10].copy_from_slice(b"wbft/hb/ct");
    l[10..18].copy_from_slice(&epoch.to_le_bytes());
    l[18..].copy_from_slice(&(proposer as u64).to_le_bytes());
    l
}

// ------------------------------------------------------------------
// Decryption stage.

/// Collects and serves threshold-decryption shares for the epoch's accepted
/// ciphertexts in one [`Body::DecShareBatch`] per flush, packaged by its
/// [`Batcher`]. Each proposer's shares go through one [`Collector`], which
/// makes this node's share once and decrypts at `f + 1` checked shares.
#[derive(Debug)]
struct DecStage {
    p: Params,
    epoch: u64,
    cts: Vec<Option<Ciphertext>>,
    shares: Vec<Collector<EncPublicSet>>,
    plaintexts: Vec<Option<Vec<u8>>>,
    out: Batcher,
}

impl DecStage {
    fn new(p: Params, epoch: u64) -> Self {
        DecStage {
            epoch,
            cts: vec![None; p.n],
            shares: vec![Collector::default(); p.n],
            plaintexts: vec![None; p.n],
            out: Batcher::new(&p, TIMER_DEC_RETX),
            p,
        }
    }

    /// Whether decryption of proposer `j`'s proposal started: its
    /// ciphertext is held, or it was undecodable.
    fn active(&self, j: usize) -> bool {
        self.cts[j].is_some() || self.plaintexts[j].is_some()
    }

    /// Activates decryption of proposer `j`'s ciphertext; `j` is not
    /// [`active`](Self::active) yet.
    fn activate(&mut self, j: usize, ct: Ciphertext, crypto: &NodeCrypto, acts: &mut Actions) {
        let q = Quorum::new(&crypto.enc_pub, self.p.f + 1, self.p.n);
        let my_share = self.shares[j].sign_own(&q, || crypto.enc_sec.dec_share(&ct), acts);
        self.cts[j] = Some(ct);
        if let Some(share) = my_share {
            self.record(j, share, crypto, acts);
            self.out.changed();
        }
        self.flush(acts);
    }

    /// Buffers a decryption share of proposer `j`'s ciphertext.
    fn record(&mut self, j: usize, share: DecShare, crypto: &NodeCrypto, acts: &mut Actions) {
        // Shares may arrive before our RBC delivered the ciphertext; they
        // are re-served by peers' retransmissions once it does.
        let Some(Some(ct)) = self.cts.get(j) else { return };
        let q = Quorum::new(&crypto.enc_pub, self.p.f + 1, self.p.n);
        let label = ct_label(self.epoch, j);
        if let Recorded::Combined(pt) = self.shares[j].record(&q, (&label[..], ct), share, acts) {
            // A tag that fails under the combined key is the proposer's
            // fault, and every honest node finds it: an empty contribution.
            self.plaintexts[j] = Some(pt.unwrap_or_else(|| encode_batch(&[]).to_vec()));
            self.out.changed();
        }
    }

    fn build(&self) -> Body {
        let mut shares = Vec::new();
        let mut dec_nack = Bitmap::new(self.p.n);
        for j in 0..self.p.n {
            if let Some(share) = self.shares[j].own() {
                shares.push((j as u8, share));
            }
            if self.cts[j].is_some() && self.plaintexts[j].is_none() {
                dec_nack.set(j, true);
            }
        }
        Body::DecShareBatch { shares, dec_nack }
    }

    fn flush(&mut self, acts: &mut Actions) {
        if self.out.flush() {
            let body = self.build();
            self.out.send(body, acts);
        }
        self.out.arm(acts);
    }

    fn complete_for(&self, accepted: &[usize]) -> bool {
        accepted.iter().all(|&j| self.plaintexts[j].is_some())
    }

    fn handle(&mut self, body: &Body, crypto: &NodeCrypto, acts: &mut Actions) {
        if let Body::DecShareBatch { shares, dec_nack } = body {
            for (j, share) in shares {
                self.record(*j as usize, *share, crypto, acts);
            }
            if dec_nack.len() == self.p.n {
                for j in dec_nack.iter_set().filter(|&j| self.shares[j].own().is_some()) {
                    self.out.peer_lacks(j, 0);
                }
            }
        }
        self.flush(acts);
    }

    fn on_timer(&mut self, local: u32, accepted: Option<&[usize]>, acts: &mut Actions) {
        // Nothing to re-send until some proposer is active (and no NACK can
        // have named a share of ours before then).
        let idle = !(0..self.p.n).any(|j| self.active(j));
        let complete = idle || accepted.is_some_and(|a| self.complete_for(a));
        if let Some(behind) = self.out.tick(local, complete, acts) {
            let body = self.build();
            self.out.resend(behind, body, acts);
        }
    }
}

// ------------------------------------------------------------------
// The lane.

/// One epoch's live components.
pub struct HbEpoch {
    rbc: RbcBatch,
    aba: Box<dyn BinaryAgreement + Send>,
    dec: DecStage,
    aba_inputs_sent: bool,
    accepted: Option<Vec<usize>>,
    /// The epoch's block was handed to the engine.
    done: bool,
}

/// The HoneyBadgerBFT/BEAT lane: RBC → parallel ABA → threshold
/// decryption, under one agreement and one packing.
pub struct HbLane {
    /// The agreement each epoch builds, under the epoch's committee and
    /// (key-epoch-aware) crypto.
    pub(crate) agreement: Agreement,
    /// How every component's packets are packaged.
    pub(crate) packing: Packing,
}

/// Starts decryption of proposer `j`'s delivered proposal; a malformed
/// ciphertext from a Byzantine proposer counts as an empty contribution.
fn activate_dec(
    dec: &mut DecStage,
    rbc: &RbcBatch,
    j: usize,
    ctx: &EpochCtx,
    out: &mut EngineOut,
) {
    if dec.active(j) {
        return;
    }
    let Some(bytes) = rbc.delivered(j) else { return };
    if let Some(ct) = decode_ciphertext(bytes) {
        let mut acts = Actions::new();
        dec.activate(j, ct, ctx.crypto, &mut acts);
        out.absorb(ctx.session(sessions::DEC), &mut acts);
    } else {
        dec.plaintexts[j] = Some(encode_batch(&[]).to_vec());
    }
}

impl Lane for HbLane {
    type Epoch = HbEpoch;

    fn open(
        &self,
        ctx: &EpochCtx,
        txs: &[Tx],
        rng: &mut rand_chacha::ChaCha12Rng,
        out: &mut EngineOut,
    ) -> Self::Epoch {
        let params = |role| ctx.params(role).packed(self.packing);
        let p_rbc = params(sessions::BROADCAST);
        let mut rbc = RbcBatch::new(p_rbc);
        let aba = self.agreement.build(params(sessions::ABA), ctx.crypto);
        let dec = DecStage::new(params(sessions::DEC), ctx.epoch);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ProtocolNode;
    use crate::engine::EpochEngine;
    use crate::service::StopCondition;
    use crate::workload::Workload;
    use crate::Protocol;
    use rand::SeedableRng;
    use wbft_components::deal_node_crypto;
    use wbft_crypto::CryptoSuite;
    use wbft_net::CoinFlavor;
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
                let engine = Protocol::HoneyBadgerSc.engine_at_depth(
                    c.clone(),
                    workload.clone(),
                    epochs,
                    depth,
                );
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

    /// HoneyBadgerBFT-SC whose proposals are encrypted under the next
    /// epoch's label, as a proposer replaying another epoch's ciphertext:
    /// its decryption shares all check, and its tag fails.
    struct Replayer(HbLane);

    impl Lane for Replayer {
        type Epoch = HbEpoch;

        fn open(
            &self,
            ctx: &EpochCtx,
            txs: &[Tx],
            rng: &mut rand_chacha::ChaCha12Rng,
            out: &mut EngineOut,
        ) -> Self::Epoch {
            let mut st = self.0.open(ctx, txs, rng, &mut EngineOut::new());
            let p = ctx.params(sessions::BROADCAST).packed(self.0.packing);
            let label = ct_label(ctx.epoch + 1, ctx.me);
            let ct = ctx.crypto.enc_pub.encrypt(&label, &encode_batch(txs), rng);
            let mut acts = Actions::new();
            st.rbc = RbcBatch::new(p);
            st.rbc.start(encode_ciphertext(&ct), &mut acts);
            out.absorb(p.session, &mut acts);
            st
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
            self.0.handle(st, ctx, role, from, body, acts);
        }

        fn on_timer(
            &self,
            st: &mut Self::Epoch,
            ctx: &EpochCtx,
            role: u64,
            local: u32,
            acts: &mut Actions,
        ) {
            self.0.on_timer(st, ctx, role, local, acts);
        }

        fn poll(
            &self,
            st: &mut Self::Epoch,
            ctx: &EpochCtx,
            may_agree: bool,
            pipelined: bool,
            out: &mut EngineOut,
        ) -> Option<Block> {
            self.0.poll(st, ctx, may_agree, pipelined, out)
        }
    }

    #[test]
    fn a_ciphertext_under_another_epochs_label_is_an_empty_contribution_and_the_epoch_commits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let crypto = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        let workload = Workload::small();
        let behaviors: Vec<_> = crypto
            .into_iter()
            .map(|c| {
                let engine: Box<dyn crate::driver::Engine> = if c.me == 1 {
                    let flavor = CoinFlavor::ThreshSig;
                    let agreement = Agreement::SharedCoin { flavor, serial: false };
                    let lane = Replayer(HbLane { agreement, packing: Packing::Combined });
                    let stop = StopCondition::Epochs(2);
                    Box::new(EpochEngine::new(c.clone(), lane, workload.clone(), stop))
                } else {
                    Protocol::HoneyBadgerSc.engine_at_depth(c.clone(), workload.clone(), 2, 1)
                };
                ProtocolNode::new(engine, c, ChannelId(0))
            })
            .collect();
        let mut sim = Simulator::new(SimConfig::default(), Topology::single_hop(4), behaviors);
        let ok = sim.run_until_pred(SimTime::from_micros(3_600_000_000), |s| {
            s.behaviors().all(|(_, b)| b.is_done())
        });
        assert!(ok, "a replayed ciphertext must not stall the epoch");
        let chains: Vec<Vec<Block>> = sim.behaviors().map(|(_, b)| b.blocks().to_vec()).collect();
        for chain in &chains {
            assert_eq!(chain, &chains[0], "all nodes agree");
        }
        for block in &chains[0] {
            let replayed = workload.batch(block.epoch, 1);
            assert!(!block.txs.is_empty(), "the honest proposals commit");
            let contributed = block.txs.iter().any(|tx| replayed.contains(tx));
            assert!(!contributed, "node 1 contributes nothing");
        }
    }

    #[test]
    fn a_dec_share_index_outside_the_committee_is_refused_uncharged() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let crypto = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        let mut dec = DecStage::new(Params::new(4, 0, 1), 0);
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
        }
        assert_eq!(acts.charge_us, charged, "a refused share is not charged");
        let held = (dec.shares[1].reporters(), dec.shares[1].own().is_some());
        assert_eq!(held, (1, true), "only the own share is held");
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
