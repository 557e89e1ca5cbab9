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
//! The epoch pipeline every deployment shares — paper §V-A, Fig. 7.
//!
//! HoneyBadgerBFT, BEAT and Dumbo are the same loop over different
//! ConsensusBatcher components: open an epoch, disseminate this node's
//! batch, agree on which proposals count, commit the block, open the next
//! epoch. [`EpochEngine`] is that loop, once. It owns the chain, the
//! pipeline window (`W` epochs in flight past the chain head, committed
//! strictly in epoch order), the proposal source and stop condition, crash
//! recovery and anti-entropy adoption, and dynamic membership (per-epoch
//! committee and threshold keys, the resharing ceremony). A [`Lane`]
//! supplies only what differs between protocols: which components one
//! epoch runs and how their progress turns into a block — see
//! [`crate::honeybadger::HbLane`] and [`crate::dumbo::DumboLane`], each a
//! skeleton under an [`wbft_components::Agreement`] and a packing. Which
//! lane, agreement and packing make each deployment is one row per
//! [`crate::Protocol`], and outside tests an engine is built only there:
//! by `Protocol::build`, or for a multi-hop global duty by `Protocol::duty`.

use crate::driver::{sessions, Block, Engine, EngineOut, Tx};
use crate::membership::MembershipCtl;
use crate::service::StopCondition;
use crate::workload::{decode_batch, BatchSource};
use bytes::Bytes;
use rand_chacha::ChaCha12Rng;
use std::collections::{BTreeSet, VecDeque};
use wbft_components::{Actions, NodeCrypto, Params};
use wbft_membership::ACTIVATION_DELAY;
use wbft_net::Body;
use wbft_wireless::SimDuration;

/// Retransmission timer of this node's resharing deal (reshare sessions).
const TIMER_RESHARE_RETX: u32 = 0;

/// Cadence at which a canonical dealer re-serves its deal set. Deals are
/// idempotent (duplicates drop at the ceremony), so a fixed cadence is
/// enough; it keeps running until the dealer's engine is done because a
/// lagging receiver — a joiner still bootstrapping its chain — may need
/// the deal long after the chain passed the activation epoch.
const RESHARE_RETX_DELAY: SimDuration = SimDuration::from_millis(700);

/// What one epoch runs under: its committee (which a membership change can
/// resize between epochs), this node's slot in it, and the threshold keys
/// of its key epoch. Without membership these are the genesis constants.
pub struct EpochCtx<'a> {
    /// Epoch number.
    pub epoch: u64,
    /// Committee size.
    pub n: usize,
    /// Fault budget.
    pub f: usize,
    /// This node's committee slot.
    pub me: usize,
    /// The key bundle in effect.
    pub crypto: &'a NodeCrypto,
}

impl EpochCtx<'_> {
    /// The session id of `role` in this epoch.
    pub fn session(&self, role: u64) -> u64 {
        sessions::of(self.epoch, role)
    }

    /// Component parameters for `role` in this epoch.
    pub fn params(&self, role: u64) -> Params {
        Params::new(self.n, self.me, self.session(role))
    }

    /// The Byzantine quorum `2f + 1` of this epoch's committee.
    pub fn quorum(&self) -> usize {
        2 * self.f + 1
    }
}

/// The protocol-specific half of an engine: one epoch's components and the
/// state machine that turns their progress into a block.
pub trait Lane {
    /// One epoch's live components.
    type Epoch;

    /// Builds the epoch's components and starts disseminating `txs`. `rng`
    /// is the node's one engine stream (shared with resharing deals).
    fn open(
        &self,
        ctx: &EpochCtx,
        txs: &[Tx],
        rng: &mut ChaCha12Rng,
        out: &mut EngineOut,
    ) -> Self::Epoch;

    /// Routes a packet body from committee slot `from` to the component
    /// playing `role`.
    fn handle(
        &self,
        st: &mut Self::Epoch,
        ctx: &EpochCtx,
        role: u64,
        from: usize,
        body: &Body,
        acts: &mut Actions,
    );

    /// Routes a timer to the component playing `role`.
    fn on_timer(&self, st: &mut Self::Epoch, ctx: &EpochCtx, role: u64, local: u32, acts: &mut Actions);

    /// Advances the epoch after any component progress and returns its
    /// block once — the first time it is decided. The agreement stage must
    /// not start while `may_agree` is false (the epoch is parked behind the
    /// chain head); `pipelined` says the window is deeper than one epoch.
    fn poll(
        &self,
        st: &mut Self::Epoch,
        ctx: &EpochCtx,
        may_agree: bool,
        pipelined: bool,
        out: &mut EngineOut,
    ) -> Option<Block>;
}

/// The block of `epoch`: the union of the accepted proposals' batches in
/// the order given, every transaction once (a transaction two proposers
/// both carried commits with the first). Undecodable batches — a
/// Byzantine proposer's garbage — contribute nothing.
pub fn union_block<'a>(epoch: u64, batches: impl IntoIterator<Item = &'a [u8]>) -> Block {
    let mut seen = BTreeSet::new();
    let txs = batches
        .into_iter()
        .filter_map(decode_batch)
        .flatten()
        .filter(|tx| seen.insert(tx.clone()))
        .collect();
    Block { epoch, txs }
}

/// One open epoch.
struct Live<E> {
    epoch: u64,
    n: usize,
    f: usize,
    me: usize,
    state: E,
    /// Decided block awaiting in-order finalization (pipelined epochs may
    /// decide out of order; the chain commits strictly by epoch).
    decided: Option<Block>,
}

/// The epoch-pipeline engine, generic over the protocol lane.
pub struct EpochEngine<L: Lane> {
    lane: L,
    crypto: NodeCrypto,
    n: usize,
    f: usize,
    me: usize,
    source: BatchSource,
    stop: StopCondition,
    /// The epoch of `blocks[0]`: 0, or a global duty's own epoch.
    first: u64,
    /// Epochs opened so far (`is_done` compares against the chain head).
    started: u64,
    /// Pipeline depth `W`: epochs allowed in flight past the committed
    /// chain. `W = 1` is the strictly sequential behavior.
    depth: u64,
    epochs: VecDeque<Live<L::Epoch>>,
    blocks: Vec<Block>,
    /// One stream per node: proposal encryption and resharing deals draw
    /// from it in event order.
    rng: ChaCha12Rng,
    /// Dynamic membership (`None` = the fixed genesis committee forever).
    membership: Option<MembershipCtl>,
}

/// The crypto bundle in effect at `epoch`: the membership controller's
/// per-key-epoch bundle, falling back to the engine's fixed genesis bundle
/// (the only bundle there is without membership; with it, open epochs are
/// gated on the controller's bundle existing).
fn epoch_crypto<'a>(
    base: &'a NodeCrypto,
    membership: &'a Option<MembershipCtl>,
    epoch: u64,
) -> &'a NodeCrypto {
    match membership {
        Some(ctl) => ctl.crypto_at(epoch).unwrap_or(base),
        None => base,
    }
}

/// Broadcasts this node's deal set for `key_epoch` on a reshare session and
/// (re-)arms its retransmission timer.
fn send_deal(ctl: &MembershipCtl, session: u64, key_epoch: u64, deal: Bytes, out: &mut EngineOut) {
    out.sends.push((session, Body::Reshare { key_epoch, dealer: ctl.me_global(), deal }));
    out.timers.push((session, TIMER_RESHARE_RETX, RESHARE_RETX_DELAY));
}

/// The rng stream of node `me`'s engine whose first epoch is `first`; an
/// engine that starts at epoch 0 draws the stream it always drew.
fn rng_for(me: usize, first: u64) -> ChaCha12Rng {
    use rand::SeedableRng;
    ChaCha12Rng::seed_from_u64(0xb0b0 ^ ((me as u64) << 16) ^ (first << 32))
}

impl<L: Lane> EpochEngine<L> {
    /// Creates a sequential (`W = 1`), fixed-committee engine.
    pub fn new(
        crypto: NodeCrypto,
        lane: L,
        source: impl Into<BatchSource>,
        stop: StopCondition,
    ) -> Self {
        let n = crypto.peer_keys.len();
        let me = crypto.me;
        EpochEngine {
            lane,
            n,
            f: (n - 1) / 3,
            me,
            source: source.into(),
            stop,
            first: 0,
            started: 0,
            depth: 1,
            epochs: VecDeque::new(),
            blocks: Vec::new(),
            rng: rng_for(me, 0),
            membership: None,
            crypto,
        }
    }

    /// Sets the pipeline depth `W` (clamped to at least 1). Call before
    /// `start`. Dissemination of up to `W` epochs overlaps; agreement is
    /// per-epoch and runs at the chain head.
    pub fn with_depth(mut self, depth: u64) -> Self {
        self.depth = depth.max(1);
        self
    }

    /// Runs the engine from `epoch` on, as if the epochs before it were
    /// committed elsewhere: the multi-hop global duty of `epoch` names its
    /// sessions, coins and ciphertexts after that epoch, as a local tier
    /// does. Its rng stream is the first epoch's too, so no two duties of
    /// one leader encrypt with the same randomness. Call before `start`.
    pub(crate) fn starting_at(mut self, epoch: u64) -> Self {
        self.first = epoch;
        self.started = epoch;
        self.rng = rng_for(self.me, epoch);
        self
    }

    /// The chain head: the epoch the next committed block will have.
    fn head(&self) -> u64 {
        self.first + self.blocks.len() as u64
    }

    /// Enables dynamic membership: per-epoch committee parameters and
    /// threshold keys come from the chain-derived controller instead of
    /// the fixed genesis deal. Schedule the node's own join/leave ops on
    /// the controller before passing it in.
    pub fn with_membership(mut self, ctl: MembershipCtl) -> Self {
        self.membership = Some(ctl);
        self
    }

    fn begin_epoch(&mut self, epoch: u64, out: &mut EngineOut) {
        self.started = self.started.max(epoch + 1);
        let (n, f, me) = match &self.membership {
            Some(ctl) => match ctl.committee_at(epoch) {
                Some(t) => t,
                // `open_epochs` gates on `can_open`; reaching this means a
                // logic bug upstream — refuse to open rather than panic.
                None => return,
            },
            None => (self.n, self.f, self.me),
        };
        // Membership ops this node wants committed ride along as reserved
        // transactions (deduplicated by the union-commit, like any tx).
        let mut txs = self.source.batch(epoch, me);
        if let Some(ctl) = &self.membership {
            for tx in ctl.injectable(epoch) {
                if !txs.contains(&tx) {
                    txs.push(tx);
                }
            }
        }
        let crypto = epoch_crypto(&self.crypto, &self.membership, epoch);
        let ctx = EpochCtx { epoch, n, f, me, crypto };
        let state = self.lane.open(&ctx, &txs, &mut self.rng, out);
        self.epochs.push_back(Live { epoch, n, f, me, state, decided: None });
        // Keep one finalized epoch beyond the pipeline window alive as a
        // NACK responder for lagging peers.
        let keep = self.depth as usize + 1;
        while self.epochs.len() > keep {
            self.epochs.pop_front();
        }
    }

    /// Opens dissemination for new epochs until `depth` are in flight past
    /// the committed chain (or the stop condition refuses). The epoch
    /// right past the chain head always opens — that is the sequential
    /// cadence every depth shares — but *extra* pipelined epochs open only
    /// while the source has work for them: an eager open on an idle
    /// mempool would spend a full epoch of airtime on an empty proposal.
    fn open_epochs(&mut self, out: &mut EngineOut) {
        while self.started < self.head() + self.depth && self.stop.allows(self.started) {
            // Membership gate: only committee members open an epoch, and
            // only once its key epoch's threshold keys exist (a running
            // resharing ceremony holds the activation epoch back; a
            // leaver stops here for good and finishes by sync adoption).
            // The committee of epoch `e` is a function of the blocks up to
            // `e - ACTIVATION_DELAY`, so a deeper window must not run ahead
            // of that: an epoch opened earlier would run under a view a
            // still-uncommitted block can supersede.
            if let Some(ctl) = &self.membership {
                if !ctl.can_open(self.started)
                    || self.started >= self.head() + ACTIVATION_DELAY
                {
                    break;
                }
            }
            if self.started > self.head() && !self.source.has_work() {
                break;
            }
            let next = self.started;
            self.begin_epoch(next, out);
        }
    }

    /// The open epoch `epoch` and the context it runs under.
    fn live<'a>(
        epochs: &'a mut VecDeque<Live<L::Epoch>>,
        crypto: &'a NodeCrypto,
        membership: &'a Option<MembershipCtl>,
        epoch: u64,
    ) -> Option<(&'a mut Live<L::Epoch>, EpochCtx<'a>)> {
        let live = epochs.iter_mut().find(|e| e.epoch == epoch)?;
        let crypto = epoch_crypto(crypto, membership, epoch);
        let ctx = EpochCtx { epoch, n: live.n, f: live.f, me: live.me, crypto };
        Some((live, ctx))
    }

    /// Runs the epoch's state machine after any component progress. At
    /// pipelined depths the agreement stage of a *future* epoch stays
    /// parked until the epoch reaches the chain head: its dissemination
    /// overlaps the head's agreement, but binding agreement inputs while
    /// proposals are still in flight behind pipelined traffic would vote
    /// slow instances out and requeue whole batches.
    fn poll(&mut self, epoch: u64, out: &mut EngineOut) {
        let may_agree = self.depth == 1 || epoch == self.head();
        let Some((live, ctx)) =
            Self::live(&mut self.epochs, &self.crypto, &self.membership, epoch)
        else {
            return;
        };
        if let Some(block) = self.lane.poll(&mut live.state, &ctx, may_agree, self.depth > 1, out) {
            live.decided = Some(block);
        }
        self.finalize_in_order(out);
    }

    /// Appends a block to the chain. Service mode resolves the commit in
    /// the mempool *before* the next epoch pulls its batch, so a
    /// peer-committed transaction cannot ride again. With membership, the
    /// block's ops fold into the committee log and, when a change lands,
    /// this node (if it is a canonical dealer) broadcasts its resharing
    /// deal on the activation epoch's reshare session.
    fn commit(&mut self, block: Block, out: &mut EngineOut) {
        if let BatchSource::Service { handle, .. } = &self.source {
            handle.resolve_commit(&block);
        }
        if let Some(ctl) = &mut self.membership {
            if ctl.on_commit(block.epoch, &block.txs).is_some() {
                if let Some((activation, key_epoch, deal)) = ctl.make_my_deal(&mut self.rng) {
                    let session = sessions::of(activation, sessions::RESHARE);
                    send_deal(ctl, session, key_epoch, deal, out);
                }
            }
        }
        self.blocks.push(block);
    }

    /// Refills the dissemination pipeline past a chain head that just
    /// moved and releases the new head's parked agreement stage (a no-op
    /// when its dissemination quorum is not in yet, or at depth 1 where
    /// the head is the only open epoch).
    fn advance_head(&mut self, out: &mut EngineOut) {
        self.open_epochs(out);
        self.poll(self.head(), out);
    }

    /// Appends decided epochs to the chain strictly in epoch order — the
    /// committed digest chain stays a common prefix even when a later
    /// pipelined epoch decides before an earlier one.
    fn finalize_in_order(&mut self, out: &mut EngineOut) {
        let mut advanced = false;
        loop {
            let next = self.head();
            let Some(live) = self.epochs.iter_mut().find(|e| e.epoch == next) else { break };
            let Some(block) = live.decided.take() else { break };
            self.commit(block, out);
            advanced = true;
        }
        if advanced {
            self.advance_head(out);
        }
    }

    /// Absorbs a dealer's reshare deal set. When the deal completes the
    /// ceremony, the new key epoch's bundle just became available and the
    /// epochs blocked on it can open.
    fn on_reshare(&mut self, from: usize, body: &Body, out: &mut EngineOut) {
        let Some(ctl) = &mut self.membership else { return };
        let Body::Reshare { key_epoch, dealer, deal } = body else { return };
        // The envelope signature authenticated `from`; a deal claiming a
        // different dealer identity is forged (or corrupt) — drop it.
        if *dealer as usize != from {
            return;
        }
        let Some(deal) = wbft_membership::DealSet::decode(deal) else { return };
        if deal.dealer != *dealer {
            return;
        }
        if ctl.absorb_deal(*key_epoch, deal) {
            self.advance_head(out);
        }
    }

    fn on_reshare_timer(&self, session: u64, local: u32, out: &mut EngineOut) {
        if local != TIMER_RESHARE_RETX || self.is_done() {
            return;
        }
        let Some(ctl) = &self.membership else { return };
        let Some((_, key_epoch, deal)) = ctl.retx_deal() else { return };
        send_deal(ctl, session, key_epoch, deal, out);
    }
}

impl<L: Lane> Engine for EpochEngine<L> {
    fn start(&mut self, out: &mut EngineOut) {
        self.open_epochs(out);
    }

    fn on_work_available(&mut self, out: &mut EngineOut) {
        // A fresh local submission: fill the pipeline window now instead
        // of waiting for the next commit. Sequential depth (W = 1) never
        // has window slack here, so this is a no-op for it.
        self.open_epochs(out);
    }

    fn restore_chain(&mut self, blocks: Vec<Block>) {
        // Adopt the recovered prefix as already-committed history; `start`
        // then opens the first live epoch right past it (epochs are opened
        // relative to the chain head, so no per-epoch state is needed).
        self.blocks = blocks;
        self.started = self.started.max(self.head());
        // Membership runs: refold the committee log from the restored
        // prefix. No deals can be broadcast from here (pre-start, nothing
        // to send through); a restart landing mid-ceremony relies on the
        // other dealers' retransmissions or anti-entropy adoption.
        if let Some(ctl) = &mut self.membership {
            for block in &self.blocks {
                ctl.on_commit(block.epoch, &block.txs);
            }
        }
    }

    fn adopt_chain(&mut self, blocks: Vec<Block>, out: &mut EngineOut) {
        let mut advanced = false;
        for block in blocks {
            if block.epoch != self.head() {
                continue;
            }
            // Drop the live instance of the adopted epoch: its agreement
            // is moot and its components must not commit a second copy.
            self.epochs.retain(|e| e.epoch != block.epoch);
            self.commit(block, out);
            advanced = true;
        }
        if advanced {
            self.started = self.started.max(self.head());
            self.advance_head(out);
        }
    }

    fn handle(&mut self, session: u64, from: usize, body: &Body, out: &mut EngineOut) {
        let (epoch, role) = sessions::split(session);
        if role == sessions::RESHARE {
            self.on_reshare(from, body, out);
            return;
        }
        // Envelopes carry global node ids; components speak committee
        // slots. Without membership the two coincide.
        let from = match &self.membership {
            Some(ctl) => match ctl.slot_at(epoch, from as u16) {
                Some(slot) => slot,
                // Not a member of this epoch's committee (e.g. a leaver's
                // stale traffic): nothing a component could attribute.
                None => return,
            },
            None => from,
        };
        let Some((live, ctx)) =
            Self::live(&mut self.epochs, &self.crypto, &self.membership, epoch)
        else {
            return;
        };
        // A baseline's per-instance frame reaches its component as the
        // combined body holding its one entry.
        let body = wbft_net::join(body, ctx.n);
        let mut acts = Actions::new();
        self.lane.handle(&mut live.state, &ctx, role, from, &body, &mut acts);
        out.absorb(session, &mut acts);
        self.poll(epoch, out);
    }

    fn on_timer(&mut self, session: u64, local: u32, out: &mut EngineOut) {
        let (epoch, role) = sessions::split(session);
        if role == sessions::RESHARE {
            self.on_reshare_timer(session, local, out);
            return;
        }
        let Some((live, ctx)) =
            Self::live(&mut self.epochs, &self.crypto, &self.membership, epoch)
        else {
            return;
        };
        let mut acts = Actions::new();
        self.lane.on_timer(&mut live.state, &ctx, role, local, &mut acts);
        out.absorb(session, &mut acts);
        self.poll(epoch, out);
    }

    fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    fn key_epoch(&self, session: u64) -> u64 {
        match &self.membership {
            Some(ctl) => ctl.wire_key_epoch(session),
            None => 0,
        }
    }

    fn is_done(&self) -> bool {
        let committed = self.head();
        if self.stop.is_done(self.started, committed) {
            return true;
        }
        // Membership runs: a node outside the committee at its chain head
        // (a leaver past activation, a joiner before it) opens nothing
        // itself — it finishes by sync adoption once the chain it adopts
        // reaches the stop.
        self.membership
            .as_ref()
            .is_some_and(|ctl| !ctl.member_at(committed) && !self.stop.allows(committed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ConsensusHandle;
    use crate::workload::Workload;
    use rand::SeedableRng;
    use wbft_wireless::SimTime;

    /// A lane with no components: an epoch announces its opening with one
    /// packet and decides — carrying the batch it was opened with — as soon
    /// as any packet reaches it, parked or not.
    struct StubLane;

    struct StubEpoch {
        txs: Vec<Tx>,
        ready: bool,
        done: bool,
    }

    fn marker() -> Body {
        Body::GlobalDecision { epoch: 0, digest: wbft_crypto::hash::Digest32::zero(), tx_count: 0 }
    }

    impl Lane for StubLane {
        type Epoch = StubEpoch;

        fn open(
            &self,
            ctx: &EpochCtx,
            txs: &[Tx],
            _: &mut ChaCha12Rng,
            out: &mut EngineOut,
        ) -> StubEpoch {
            out.sends.push((ctx.session(sessions::BROADCAST), marker()));
            StubEpoch { txs: txs.to_vec(), ready: false, done: false }
        }

        fn handle(
            &self,
            st: &mut StubEpoch,
            _: &EpochCtx,
            _: u64,
            _: usize,
            _: &Body,
            _: &mut Actions,
        ) {
            st.ready = true;
        }

        fn on_timer(&self, _: &mut StubEpoch, _: &EpochCtx, _: u64, _: u32, _: &mut Actions) {}

        fn poll(
            &self,
            st: &mut StubEpoch,
            ctx: &EpochCtx,
            _: bool,
            _: bool,
            _: &mut EngineOut,
        ) -> Option<Block> {
            if !st.ready || st.done {
                return None;
            }
            st.done = true;
            Some(Block { epoch: ctx.epoch, txs: st.txs.clone() })
        }
    }

    fn engine(source: impl Into<BatchSource>, stop: StopCondition, depth: u64) -> EpochEngine<StubLane> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let crypto =
            wbft_components::deal_node_crypto(4, wbft_crypto::CryptoSuite::light(), &mut rng)
                .remove(0);
        EpochEngine::new(crypto, StubLane, source, stop).with_depth(depth)
    }

    /// The epochs `out` saw open, in order.
    fn opened(out: &EngineOut) -> Vec<u64> {
        out.sends
            .iter()
            .map(|(s, _)| sessions::split(*s))
            .filter(|(_, role)| *role == sessions::BROADCAST)
            .map(|(epoch, _)| epoch)
            .collect()
    }

    /// Lets `epoch` decide; returns what the engine did in response.
    fn decide(e: &mut EpochEngine<StubLane>, epoch: u64) -> EngineOut {
        let mut out = EngineOut::new();
        e.handle(sessions::of(epoch, sessions::BROADCAST), 1, &marker(), &mut out);
        out
    }

    fn chain(e: &EpochEngine<StubLane>) -> Vec<u64> {
        e.blocks().iter().map(|b| b.epoch).collect()
    }

    #[test]
    fn out_of_order_decisions_commit_strictly_in_order() {
        let mut e = engine(Workload::small(), StopCondition::Epochs(6), 3);
        let mut out = EngineOut::new();
        e.start(&mut out);
        assert_eq!(opened(&out), [0, 1, 2]);
        assert!(opened(&decide(&mut e, 2)).is_empty());
        assert!(opened(&decide(&mut e, 1)).is_empty());
        assert!(chain(&e).is_empty(), "nothing commits past an undecided head");
        let out = decide(&mut e, 0);
        assert_eq!(chain(&e), [0, 1, 2]);
        assert_eq!(opened(&out), [3, 4, 5], "the window refills past the new head");
        for epoch in 3..6 {
            decide(&mut e, epoch);
        }
        assert_eq!(chain(&e), [0, 1, 2, 3, 4, 5]);
        assert!(e.is_done());
    }

    #[test]
    fn extra_epochs_wait_for_work_but_the_head_always_opens() {
        let handle = ConsensusHandle::new(16);
        let source = BatchSource::Service { handle: handle.clone(), max_batch: 8 };
        let stop = StopCondition::Service { handle: handle.clone(), max_epochs: 64 };
        let mut e = engine(source, stop, 2);
        let mut out = EngineOut::new();
        e.start(&mut out);
        assert_eq!(opened(&out), [0], "idle mempool: the head opens, the extra slot does not");
        let mut out = EngineOut::new();
        e.on_work_available(&mut out);
        assert!(opened(&out).is_empty(), "still nothing queued");
        handle.submit(Bytes::from_static(b"tx"), SimTime::ZERO);
        let mut out = EngineOut::new();
        e.on_work_available(&mut out);
        assert_eq!(opened(&out), [1]);
        assert!(opened(&decide(&mut e, 0)).is_empty(), "epoch 1 is the head now, pool is empty");
        assert_eq!(opened(&decide(&mut e, 1)), [2], "the head opens on an empty pool");
        assert_eq!(e.blocks()[1].txs, [Bytes::from_static(b"tx")]);
    }

    #[test]
    fn adoption_drops_live_epochs_and_never_double_commits() {
        let mut e = engine(Workload::small(), StopCondition::Epochs(8), 2);
        e.start(&mut EngineOut::new());
        decide(&mut e, 1); // decided, buffered behind the undecided head
        let adopted = |epoch| Block { epoch, txs: vec![Bytes::from_static(b"adopted")] };
        let mut out = EngineOut::new();
        e.adopt_chain(vec![adopted(0), adopted(1), adopted(7)], &mut out);
        assert_eq!(e.blocks(), [adopted(0), adopted(1)], "contiguous blocks only");
        assert_eq!(opened(&out), [2, 3]);
        // Late traffic for the adopted epochs finds no instance to revive.
        decide(&mut e, 0);
        decide(&mut e, 1);
        assert_eq!(e.blocks(), [adopted(0), adopted(1)]);
        decide(&mut e, 2);
        assert_eq!(chain(&e), [0, 1, 2]);
    }

    #[test]
    fn restore_then_start_opens_the_epoch_past_the_prefix() {
        let mut e = engine(Workload::small(), StopCondition::Epochs(5), 1);
        e.restore_chain((0..3).map(|epoch| Block { epoch, txs: Vec::new() }).collect());
        assert!(!e.is_done());
        let mut out = EngineOut::new();
        e.start(&mut out);
        assert_eq!(opened(&out), [3]);
        assert_eq!(opened(&decide(&mut e, 3)), [4]);
        decide(&mut e, 4);
        assert_eq!(chain(&e), [0, 1, 2, 3, 4]);
        assert!(e.is_done());
    }

    #[test]
    fn membership_window_never_outruns_the_final_committee_view() {
        use wbft_membership::MembershipOp;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let crypto = wbft_components::deal_committee_crypto(
            4,
            5,
            wbft_crypto::CryptoSuite::light(),
            &mut rng,
        )
        .remove(0);
        let mut ctl = MembershipCtl::new(crypto.clone(), 4);
        ctl.schedule_op(1, MembershipOp::Join(4));
        ctl.schedule_op(1, MembershipOp::Leave(3));
        let mut e = EpochEngine::new(crypto, StubLane, Workload::small(), StopCondition::Epochs(8))
            .with_depth(4)
            .with_membership(ctl);
        let mut out = EngineOut::new();
        e.start(&mut out);
        assert_eq!(
            opened(&out),
            [0, 1],
            "W = 4, but epoch 2's committee is only final once block 0 is committed"
        );
        assert_eq!(opened(&decide(&mut e, 0)), [2]);
        // Block 1 carries the swap: it activates at epoch 3, whose view is
        // final now but whose reshared keys do not exist yet.
        let out = decide(&mut e, 1);
        assert_eq!(chain(&e), [0, 1]);
        assert!(opened(&out).is_empty(), "epoch 3 waits for the ceremony");
        assert!(
            out.sends.iter().any(|(s, _)| sessions::split(*s) == (3, sessions::RESHARE)),
            "a canonical dealer deals for the activation epoch"
        );
    }

    #[test]
    fn an_engine_started_at_an_epoch_runs_from_it() {
        let mut e = engine(Workload::small(), StopCondition::Epochs(8), 1).starting_at(6);
        let mut out = EngineOut::new();
        e.start(&mut out);
        assert_eq!(opened(&out), [6]);
        assert_eq!(opened(&decide(&mut e, 6)), [7]);
        decide(&mut e, 7);
        assert_eq!(chain(&e), [6, 7]);
        assert!(e.is_done());
    }

    #[test]
    fn sequential_depth_keeps_one_undecided_epoch_open() {
        let mut e = engine(Workload::small(), StopCondition::Epochs(4), 1);
        let mut out = EngineOut::new();
        e.start(&mut out);
        e.on_work_available(&mut out);
        assert_eq!(opened(&out), [0]);
        for epoch in 0..4u64 {
            let mut out = decide(&mut e, epoch);
            e.on_work_available(&mut out);
            let next: &[u64] = if epoch < 3 { &[epoch + 1] } else { &[] };
            assert_eq!(opened(&out), next, "exactly the next epoch opens, once {epoch} committed");
            assert_eq!(chain(&e).len() as u64, epoch + 1);
        }
    }
}
