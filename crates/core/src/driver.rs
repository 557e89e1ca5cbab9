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
//! Glue between protocol engines and the wireless simulator.
//!
//! An [`Engine`] is the protocol brain of one node: it owns the consensus
//! components of the current (and recent) epochs, routes packet bodies to
//! them by session id, and reports decided blocks. [`ProtocolNode`] adapts
//! an engine to [`wbft_wireless::NodeBehavior`]: it sends outgoing bodies
//! as envelopes signed at transmit ([`wbft_net::broadcast_signed`]: the
//! micro-ecc sign cost charged per queued send, the transmit-queue slot
//! that lets a newer combined packet supersede a stale one), verifies and
//! opens incoming frames ([`wbft_net::open_shared`]: once per transmission,
//! shared by its simulated receivers; charging the verify cost per
//! receiver, dropping bad signatures) and translates component timers.

use bytes::Bytes;
use wbft_components::NodeCrypto;
use wbft_net::{broadcast_signed, open_shared, Body, Envelope, Sizing};
use wbft_wireless::{ChannelId, Frame, NodeBehavior, NodeCtx, SimDuration, SimTime};

/// A transaction committed in a block.
pub type Tx = Bytes;

/// One decided consensus output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Epoch number.
    pub epoch: u64,
    /// Committed transactions, in canonical order.
    pub txs: Vec<Tx>,
}

/// Collected engine outputs for one event.
#[derive(Debug, Default)]
pub struct EngineOut {
    /// `(session, body)` broadcasts.
    pub sends: Vec<(u64, Body)>,
    /// `(session, local id, delay)` timer requests.
    pub timers: Vec<(u64, u32, SimDuration)>,
    /// Virtual CPU to charge (µs).
    pub charge_us: u64,
}

impl EngineOut {
    /// Fresh sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs a component's [`wbft_components::Actions`] under a session.
    pub fn absorb(&mut self, session: u64, acts: &mut wbft_components::Actions) {
        let (sends, timers, charge) = acts.drain();
        for body in sends {
            self.sends.push((session, body));
        }
        for (delay, local) in timers {
            self.timers.push((session, local, delay));
        }
        self.charge_us += charge;
    }
}

/// The protocol brain of one node. The one real implementation is the
/// epoch pipeline [`crate::engine::EpochEngine`] (HoneyBadger, BEAT, Dumbo
/// and their baselines are its lanes); the rest are wrappers around it.
/// Every method is required, so a wrapper that forgets to forward one does
/// not compile.
pub trait Engine {
    /// Called once at simulation start.
    fn start(&mut self, out: &mut EngineOut);

    /// Routes a verified packet body.
    fn handle(&mut self, session: u64, from: usize, body: &Body, out: &mut EngineOut);

    /// Handles a component timer.
    fn on_timer(&mut self, session: u64, local: u32, out: &mut EngineOut);

    /// Notifies the engine that new client work may be available (a local
    /// submission was just admitted to the mempool). Pipelined engines
    /// open an extra dissemination epoch mid-agreement here; a strictly
    /// sequential engine has no window slack to fill, so its event stream
    /// is untouched.
    fn on_work_available(&mut self, out: &mut EngineOut);

    /// Seeds the engine with a committed chain prefix recovered from the
    /// durable journal. Called *before* [`Engine::start`]: the engine
    /// adopts the blocks as already-committed history and `start` opens
    /// its first live epoch right past them. No sends, timers or service
    /// interaction happen here — pre-start output has nowhere to go.
    fn restore_chain(&mut self, blocks: Vec<Block>);

    /// Adopts verified peer blocks extending the local chain *mid-run*
    /// (the anti-entropy catch-up path). `blocks` must be contiguous from
    /// the current chain head and already digest-verified by the caller;
    /// non-contiguous entries are ignored. Engines drop any live instance
    /// of an adopted epoch and move their pipeline past the new head.
    fn adopt_chain(&mut self, blocks: Vec<Block>, out: &mut EngineOut);

    /// The key epoch whose threshold keys cover traffic of `session` —
    /// sealed into the session's outgoing envelopes as a wire tag and
    /// required of incoming ones (a mismatched frame carries shares the
    /// receiver could only mis-combine, so the driver drops it before the
    /// engine sees it). Engines without dynamic membership run at key
    /// epoch 0 forever; tag 0 encodes to nothing, keeping their wire
    /// format byte-identical to pre-membership builds.
    fn key_epoch(&self, session: u64) -> u64;

    /// Blocks decided so far, in epoch order.
    fn blocks(&self) -> &[Block];

    /// `true` once the engine's [`StopCondition`](crate::service::StopCondition)
    /// is satisfied: every opened epoch decided and no further epoch will
    /// open (all target epochs ran, or a requested service stop landed).
    fn is_done(&self) -> bool;
}

impl Engine for Box<dyn Engine> {
    fn start(&mut self, out: &mut EngineOut) {
        (**self).start(out)
    }
    fn handle(&mut self, session: u64, from: usize, body: &Body, out: &mut EngineOut) {
        (**self).handle(session, from, body, out)
    }
    fn on_timer(&mut self, session: u64, local: u32, out: &mut EngineOut) {
        (**self).on_timer(session, local, out)
    }
    fn on_work_available(&mut self, out: &mut EngineOut) {
        (**self).on_work_available(out)
    }
    fn restore_chain(&mut self, blocks: Vec<Block>) {
        (**self).restore_chain(blocks)
    }
    fn adopt_chain(&mut self, blocks: Vec<Block>, out: &mut EngineOut) {
        (**self).adopt_chain(blocks, out)
    }
    fn key_epoch(&self, session: u64) -> u64 {
        (**self).key_epoch(session)
    }
    fn blocks(&self) -> &[Block] {
        (**self).blocks()
    }
    fn is_done(&self) -> bool {
        (**self).is_done()
    }
}

/// Session-id arithmetic: each epoch owns a block of session ids, one per
/// component role.
pub mod sessions {
    /// Sessions per epoch.
    pub const PER_EPOCH: u64 = 16;
    /// RBC / PRBC batch.
    pub const BROADCAST: u64 = 1;
    /// ABA batch.
    pub const ABA: u64 = 2;
    /// Threshold-decryption stage.
    pub const DEC: u64 = 3;
    /// Dumbo CBC-value batch.
    pub const CBC_VALUE: u64 = 4;
    /// Dumbo CBC-commit batch.
    pub const CBC_COMMIT: u64 = 5;
    /// Dumbo π coin.
    pub const PI_COIN: u64 = 6;
    /// Membership resharing-ceremony deals (session epoch = the change's
    /// activation epoch; traffic is signed under the *old* key epoch).
    pub const RESHARE: u64 = 7;
    /// Multi-hop global-decision announcements inside a cluster.
    pub const GLOBAL_DECISION: u64 = 8;

    /// The session id of `role` in `epoch`.
    pub fn of(epoch: u64, role: u64) -> u64 {
        epoch * PER_EPOCH + role
    }

    /// Inverse of [`of`]: `(epoch, role)`.
    pub fn split(session: u64) -> (u64, u64) {
        (session / PER_EPOCH, session % PER_EPOCH)
    }
}

/// How a node records the completion time of each epoch (read by the
/// testbed for latency statistics).
#[derive(Clone, Debug, Default)]
pub struct EpochClock {
    /// `completed[e]` = simulated time epoch `e`'s block was decided here.
    pub completed: Vec<SimTime>,
}

/// The service-side attachments of one node: the shared handle that
/// receives committed blocks (with commit timestamps for latency
/// accounting) and the deterministic client-arrival schedule injected via
/// driver-level timers.
struct ServiceBinding {
    handle: crate::service::ConsensusHandle,
    /// `(delay from start, transaction)` in schedule order.
    arrivals: Vec<(SimDuration, Tx)>,
}

/// Anti-entropy state of one node: the reserved channel it announces on
/// and the cumulative journal chain digests it verifies chunks against
/// (see `wbft_transport::sync` for the wire protocol).
struct SyncState {
    channel: ChannelId,
    /// Chain digest after each committed block, grown lazily with the
    /// chain (index == epoch).
    digests: Vec<[u8; 32]>,
    /// Head announcements answered with a block chunk.
    served: u64,
    /// Blocks shipped inside chunks.
    shipped: u64,
    /// Blocks that did not fit a chunk's datagram budget (the peer's next
    /// announcement round pulls them).
    dropped: u64,
}

/// Adapts an [`Engine`] to the simulator's [`NodeBehavior`].
pub struct ProtocolNode<E: Engine> {
    engine: E,
    crypto: NodeCrypto,
    sizing: Sizing,
    channel: ChannelId,
    clock: EpochClock,
    service: Option<ServiceBinding>,
    /// Durable block journal: every commit is appended before the event
    /// that produced it returns, so a crash at any instant loses at most
    /// the in-flight epoch.
    journal: Option<crate::recovery::BlockJournal>,
    sync: Option<SyncState>,
    /// Reusable engine-output sink: `apply` drains it, so one allocation's
    /// capacity serves every event instead of fresh `Vec`s per frame/timer
    /// — the driver sits on the simulator's hot path.
    scratch: EngineOut,
}

/// Timer-id packing: 10 bits of component-local id.
const TIMER_LOCAL_BITS: u64 = 10;

/// Driver-level timer lane for client arrivals (sessions stay far below
/// bit 53, so `session << TIMER_LOCAL_BITS` never reaches this bit).
const ARRIVAL_TIMER_BIT: u64 = 1 << 63;

/// Driver-level timer lane for periodic anti-entropy head announcements.
const SYNC_TIMER_BIT: u64 = 1 << 62;

/// Cadence of head announcements on the sync channel.
const SYNC_ANNOUNCE_INTERVAL: SimDuration = SimDuration::from_millis(500);

/// Transmit-queue slot for head announcements: a newer height supersedes a
/// stale queued one instead of wasting airtime behind it.
const SYNC_ANNOUNCE_SLOT: u64 = u64::MAX;

/// Most block chunks one head announcement may trigger — bounds the
/// airtime burst while letting a far-behind peer pull several chunks per
/// announce interval instead of lock-stepping at one.
const SYNC_CHUNKS_PER_ANNOUNCE: usize = 4;

impl<E: Engine> ProtocolNode<E> {
    /// Binds an engine to a node's crypto identity and radio channel.
    pub fn new(engine: E, crypto: NodeCrypto, channel: ChannelId) -> Self {
        let sizing = Sizing { n: crypto.peer_keys.len(), suite: crypto.suite };
        ProtocolNode {
            engine,
            crypto,
            sizing,
            channel,
            clock: EpochClock::default(),
            service: None,
            journal: None,
            sync: None,
            scratch: EngineOut::new(),
        }
    }

    /// Attaches a durable block journal: every committed block is appended
    /// (payload = the proposal batch codec) in the same event that decided
    /// it. Open the journal first and feed its recovered prefix through
    /// [`Engine::restore_chain`] + [`ProtocolNode::with_recovered`].
    pub fn with_journal(mut self, journal: crate::recovery::BlockJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Marks the first `n` blocks of the engine's chain as recovered
    /// history rather than fresh commits: their completion clocks pre-fill
    /// with time zero, so the driver neither re-records them into the
    /// service stream (a restart seeds that via
    /// [`ConsensusHandle::recover_chain`](crate::service::ConsensusHandle::recover_chain))
    /// nor re-appends them to the journal.
    pub fn with_recovered(mut self, n: usize) -> Self {
        self.clock.completed = vec![SimTime::ZERO; n];
        self
    }

    /// Enables anti-entropy catch-up on `channel` (reserved for sync
    /// traffic): the node periodically announces its chain height, answers
    /// shorter peers with digest-chained block chunks, and adopts verified
    /// chunks that extend its own chain. Messages on this channel are
    /// unsigned — adoption is gated on the journal digest chain instead.
    pub fn with_sync(mut self, channel: ChannelId) -> Self {
        self.sync = Some(SyncState {
            channel,
            digests: Vec::new(),
            served: 0,
            shipped: 0,
            dropped: 0,
        });
        self
    }

    /// Anti-entropy counters `(requests served, blocks shipped, blocks
    /// dropped to chunk budgets)`, when sync is enabled.
    pub fn sync_counters(&self) -> Option<(u64, u64, u64)> {
        self.sync.as_ref().map(|s| (s.served, s.shipped, s.dropped))
    }

    /// Attaches a consensus service: committed blocks are recorded into
    /// `handle` (with commit times, feeding the block stream and latency
    /// percentiles) and `arrivals` are submitted at their scheduled delays
    /// from start. Pass an empty schedule when submissions arrive some
    /// other way (e.g. the UDP client gateway).
    pub fn with_service(
        mut self,
        handle: crate::service::ConsensusHandle,
        arrivals: Vec<(SimDuration, Tx)>,
    ) -> Self {
        self.service = Some(ServiceBinding { handle, arrivals });
        self
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Epoch completion times at this node.
    pub fn clock(&self) -> &EpochClock {
        &self.clock
    }

    /// Decided blocks (convenience passthrough).
    pub fn blocks(&self) -> &[Block] {
        self.engine.blocks()
    }

    /// `true` once the engine ran all its epochs.
    pub fn is_done(&self) -> bool {
        self.engine.is_done()
    }

    fn apply(&mut self, out: &mut EngineOut, ctx: &mut NodeCtx) {
        // Record newly completed epochs (and stream them to the service).
        while self.clock.completed.len() < self.engine.blocks().len() {
            let idx = self.clock.completed.len();
            if let Some(svc) = &self.service {
                svc.handle.record_commit(&self.engine.blocks()[idx], ctx.now());
            }
            // Journal the block in the same event that decided it: a crash
            // at any instant loses at most the epoch still in flight. An
            // append failure (store I/O) must not take down consensus — the
            // node keeps running unjournaled.
            let journal_failed = match self.journal.as_mut() {
                Some(j) => j.append(&self.engine.blocks()[idx]).is_err(),
                None => false,
            };
            if journal_failed {
                self.journal = None;
            }
            self.clock.completed.push(ctx.now());
        }
        if out.charge_us > 0 {
            ctx.charge_cpu(SimDuration::from_micros(out.charge_us));
        }
        for (session, body) in out.sends.drain(..) {
            let tag = self.engine.key_epoch(session);
            let env = Envelope { src: self.crypto.me as u16, session, body };
            // An unencodable (oversized) body is dropped, never a panic: a
            // hostile or runaway message must not abort the node.
            let _ = broadcast_signed(
                ctx,
                self.channel,
                &self.crypto.keypair,
                &self.sizing,
                &env,
                tag,
            );
        }
        for (session, local, delay) in out.timers.drain(..) {
            ctx.set_timer(delay, (session << TIMER_LOCAL_BITS) | local as u64);
        }
        out.charge_us = 0;
    }

    /// Extends the cached cumulative chain digests to cover every committed
    /// block (index == epoch).
    fn refresh_sync_digests(&mut self) {
        let Some(sync) = &mut self.sync else { return };
        let blocks = self.engine.blocks();
        while sync.digests.len() < blocks.len() {
            let b = &blocks[sync.digests.len()];
            let prev = sync
                .digests
                .last()
                .copied()
                .unwrap_or(wbft_journal::GENESIS_DIGEST);
            sync.digests.push(wbft_journal::chain_digest(
                &prev,
                b.epoch,
                &crate::workload::encode_batch(&b.txs),
            ));
        }
    }

    /// Broadcasts a periodic chain-height announcement on the sync channel.
    fn announce_head(&mut self, ctx: &mut NodeCtx) {
        let Some(sync) = &self.sync else { return };
        let msg = wbft_transport::SyncMsg::HeadAnnounce {
            height: self.engine.blocks().len() as u64,
        };
        if let Ok(bytes) = msg.encode() {
            let nominal = bytes.len();
            ctx.broadcast_slot(sync.channel, bytes, nominal, SYNC_ANNOUNCE_SLOT);
        }
        ctx.set_timer(SYNC_ANNOUNCE_INTERVAL, SYNC_TIMER_BIT);
    }

    /// Handles one unsigned datagram on the sync channel: answer a shorter
    /// peer's announcement with a budgeted chunk, or verify and adopt a
    /// chunk that extends the local chain.
    fn on_sync_frame(&mut self, payload: &[u8], ctx: &mut NodeCtx) {
        use wbft_transport::sync::{SyncBlock, SyncMsg, MAX_CHUNK_BLOCKS, SYNC_CHUNK_BUDGET};
        let Some(msg) = SyncMsg::decode(payload) else { return };
        self.refresh_sync_digests();
        match msg {
            SyncMsg::HeadAnnounce { height } => {
                let ours = self.engine.blocks().len() as u64;
                if height >= ours {
                    return;
                }
                let Some(sync) = &mut self.sync else { return };
                let blocks = self.engine.blocks();
                // Serve several budgeted chunks per announcement instead of
                // one: a single chunk per 500 ms announce interval caps
                // catch-up at MAX_CHUNK_BLOCKS per interval, which turns a
                // long-lagging peer (a fresh joiner bootstrapping from
                // epoch 0) into a lock-step crawl. A burst cap still bounds
                // the airtime one announcement can trigger.
                let mut served_any = false;
                let mut e = height as usize;
                for _ in 0..SYNC_CHUNKS_PER_ANNOUNCE {
                    let mut chunk = Vec::new();
                    let mut used = 0usize;
                    let start = e;
                    while e < blocks.len() {
                        let payload = crate::workload::encode_batch(&blocks[e].txs);
                        let sb = SyncBlock { payload, digest: sync.digests[e] };
                        if chunk.len() >= MAX_CHUNK_BLOCKS
                            || used + sb.wire_len() > SYNC_CHUNK_BUDGET
                        {
                            break;
                        }
                        used += sb.wire_len();
                        chunk.push(sb);
                        e += 1;
                    }
                    if chunk.is_empty() {
                        break;
                    }
                    sync.shipped += chunk.len() as u64;
                    let reply =
                        SyncMsg::BlockChunk { start_epoch: start as u64, blocks: chunk };
                    if let Ok(bytes) = reply.encode() {
                        let nominal = bytes.len();
                        ctx.broadcast(sync.channel, bytes, nominal);
                        served_any = true;
                    }
                }
                if e < blocks.len() {
                    sync.dropped += (blocks.len() - e) as u64;
                }
                if served_any {
                    sync.served += 1;
                }
            }
            SyncMsg::BlockChunk { start_epoch, blocks } => {
                if start_epoch != self.engine.blocks().len() as u64 {
                    return; // Stale (already have it) or gapped (can't verify).
                }
                let Some(sync) = &self.sync else { return };
                // Chunks are unsigned: adopt only the prefix whose digests
                // extend our own chain — a forged or corrupted block breaks
                // the chain right there and everything after it is refused.
                let mut prev = sync
                    .digests
                    .last()
                    .copied()
                    .unwrap_or(wbft_journal::GENESIS_DIGEST);
                let mut adopted = Vec::new();
                for (i, sb) in blocks.iter().enumerate() {
                    let epoch = start_epoch + i as u64;
                    if wbft_journal::chain_digest(&prev, epoch, &sb.payload) != sb.digest {
                        break;
                    }
                    let Some(txs) = crate::workload::decode_batch(&sb.payload) else {
                        break;
                    };
                    prev = sb.digest;
                    adopted.push(Block { epoch, txs });
                }
                if adopted.is_empty() {
                    return;
                }
                let mut out = std::mem::take(&mut self.scratch);
                self.engine.adopt_chain(adopted, &mut out);
                self.apply(&mut out, ctx);
                self.scratch = out;
            }
        }
    }
}

impl<E: Engine> NodeBehavior for ProtocolNode<E> {
    fn on_start(&mut self, ctx: &mut NodeCtx) {
        // Arm one timer per scheduled client arrival; delays are relative
        // to start, so the same schedule means the same thing under the
        // simulator's virtual clock and a transport's wall clock.
        if let Some(svc) = &self.service {
            for (i, (delay, _)) in svc.arrivals.iter().enumerate() {
                ctx.set_timer(*delay, ARRIVAL_TIMER_BIT | i as u64);
            }
        }
        if self.sync.is_some() {
            ctx.set_timer(SYNC_ANNOUNCE_INTERVAL, SYNC_TIMER_BIT);
        }
        let mut out = std::mem::take(&mut self.scratch);
        self.engine.start(&mut out);
        self.apply(&mut out, ctx);
        self.scratch = out;
    }

    fn on_frame(&mut self, frame: &Frame, ctx: &mut NodeCtx) {
        // Sync traffic is not enveloped: it rides its own reserved channel
        // unsigned (forged blocks die on the digest-chain check instead),
        // so it branches off before the signature-verify charge.
        if let Some(sync) = &self.sync {
            if frame.channel == sync.channel {
                let payload = frame.payload.clone();
                self.on_sync_frame(&payload, ctx);
                return;
            }
        }
        // Verify the packet signature (cost charged whether it passes or
        // not — the radio delivered it, the CPU must check it).
        ctx.charge_cpu(SimDuration::from_micros(self.crypto.suite.ecdsa.profile().verify_us));
        let peer_keys = &self.crypto.peer_keys;
        let Ok(opened) = open_shared(&frame.payload, |src| peer_keys.get(src as usize).copied())
        else {
            return;
        };
        if !opened.sig_ok {
            return;
        }
        let env = &opened.env;
        // Key-epoch fencing: a frame tagged for another threshold-key
        // generation carries shares this node could only mis-combine (or,
        // pre-roll, cannot verify at all) — drop it; the sender's
        // retransmission cadence re-serves it once the epochs line up.
        if opened.key_epoch != self.engine.key_epoch(env.session) {
            return;
        }
        let mut out = std::mem::take(&mut self.scratch);
        self.engine.handle(env.session, env.src as usize, &env.body, &mut out);
        self.apply(&mut out, ctx);
        self.scratch = out;
    }

    fn on_timer(&mut self, id: u64, ctx: &mut NodeCtx) {
        if id & ARRIVAL_TIMER_BIT != 0 {
            // A scheduled client arrival: submit into the mempool; the
            // engine pulls it when it opens its next epoch. Pipelined
            // engines may open that epoch right now, overlapping its
            // dissemination with the agreement already in flight.
            if let Some(svc) = &self.service {
                let idx = (id & !ARRIVAL_TIMER_BIT) as usize;
                if let Some((_, tx)) = svc.arrivals.get(idx) {
                    svc.handle.submit(tx.clone(), ctx.now());
                }
            }
            let mut out = std::mem::take(&mut self.scratch);
            self.engine.on_work_available(&mut out);
            self.apply(&mut out, ctx);
            self.scratch = out;
            return;
        }
        if id & SYNC_TIMER_BIT != 0 {
            self.announce_head(ctx);
            return;
        }
        let session = id >> TIMER_LOCAL_BITS;
        let local = (id & ((1 << TIMER_LOCAL_BITS) - 1)) as u32;
        let mut out = std::mem::take(&mut self.scratch);
        self.engine.on_timer(session, local, &mut out);
        self.apply(&mut out, ctx);
        self.scratch = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_arithmetic_roundtrips() {
        for epoch in [0u64, 1, 7, 1000] {
            for role in [sessions::BROADCAST, sessions::ABA, sessions::DEC] {
                let s = sessions::of(epoch, role);
                assert_eq!(sessions::split(s), (epoch, role));
            }
        }
    }

    #[test]
    fn engine_out_absorbs_actions() {
        let mut out = EngineOut::new();
        let mut acts = wbft_components::Actions::new();
        acts.charge(50);
        acts.timer(SimDuration::from_millis(5), 2);
        out.absorb(9, &mut acts);
        assert_eq!(out.charge_us, 50);
        assert_eq!(out.timers, vec![(9, 2, SimDuration::from_millis(5))]);
    }
}
