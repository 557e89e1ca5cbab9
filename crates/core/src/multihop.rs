//! Clustered multi-hop deployment (paper §V-B, Fig. 8).
//!
//! The network is divided into M single-hop clusters, each on its own radio
//! channel; consensus is two-phase, akin to blockchain sharding: *local*
//! consensus runs in parallel inside every cluster, then a rotating cluster
//! leader carries the cluster's decision onto a shared *global* channel — a
//! routed overlay among leaders — where a second consensus instance (among
//! M participants) orders all clusters' proposals. Leaders rotate every
//! epoch ("changeable cluster leader"), which bounds the damage of a
//! Byzantine leader; followers learn the global outcome from the leader's
//! announcement frame on the cluster channel.

use crate::driver::{sessions, timer_session, Block, Engine, EngineOut, ProtocolNode};
use crate::protocol::Protocol;
use crate::service::StopCondition;
use crate::workload::{BatchSource, Workload};
use bytes::Bytes;
use std::collections::BTreeSet;
use wbft_components::NodeCrypto;
use wbft_crypto::hash::Digest32;
use wbft_net::wire::{ByteSink, Sink, WireReader};
use wbft_net::{Body, WireError};
use wbft_wireless::{ChannelId, Frame, NodeBehavior, NodeCtx, SimDuration, SimTime};

/// Encodes a cluster's global proposal: `(cluster, epoch, digest, txs)`.
/// The cluster index fits its byte because `TestbedConfig::check` caps the
/// clusters at 64; the count is at most one block's transactions.
pub fn encode_summary(cluster: usize, epoch: u64, digest: Digest32, tx_count: usize) -> Bytes {
    ByteSink::bounded(|s| {
        s.u8(u8::try_from(cluster).map_err(|_| WireError::Oversize("cluster index"))?);
        s.u64(epoch);
        s.digest(&digest);
        s.u32(u32::try_from(tx_count).map_err(|_| WireError::Oversize("summary tx count"))?);
        Ok(())
    })
}

/// Decodes a global proposal summary.
pub fn decode_summary(data: &[u8]) -> Option<(usize, u64, Digest32, u32)> {
    WireReader::exact(data, |r| Ok((usize::from(r.u8()?), r.u64()?, r.digest()?, r.u32()?))).ok()
}

/// Digest of a block (for summaries and announcements).
fn block_digest(block: &Block) -> Digest32 {
    let mut parts: Vec<&[u8]> = Vec::with_capacity(block.txs.len());
    for tx in &block.txs {
        parts.push(tx);
    }
    Digest32::of_parts("wbft/multihop/block", &parts)
}

/// The channel of the global tier, shared by every cluster's leader.
const GLOBAL_CHANNEL: ChannelId = ChannelId(0);

/// The global tier's engine: the single-epoch hb-sc instance of the duty
/// this node last took as its cluster's leader. Every duty's instance
/// numbers its sessions from zero, so the slot shifts them by
/// `(epoch + 1) · 2^20` on sends, frames and timers; a frame or timer of a
/// superseded duty, or of none, matches nothing.
struct GlobalSlot {
    crypto: NodeCrypto,
    duty: Option<(u64, Box<dyn Engine>)>,
}

/// Wire sessions reserved per global duty: the duty of epoch `e` owns
/// `(e + 1) · DUTY_STRIDE` onwards. Local sessions stay below the first
/// (`TestbedConfig::check`), which is how a timer finds its tier.
pub(crate) const DUTY_STRIDE: u64 = 1 << 20;

impl GlobalSlot {
    /// The epoch of the current duty.
    fn epoch(&self) -> Option<u64> {
        self.duty.as_ref().map(|(epoch, _)| *epoch)
    }

    /// Takes the duty of `epoch`: a fresh hb-sc instance among the M
    /// cluster leaders, proposing `summary`.
    fn take(&mut self, epoch: u64, summary: Bytes, out: &mut EngineOut) {
        let source = BatchSource::Fixed(vec![Some(summary)]);
        let stop = StopCondition::Epochs(1);
        let engine = Protocol::HoneyBadgerSc.build(self.crypto.clone(), source, stop, 1, None);
        self.duty = Some((epoch, engine));
        self.start(out);
    }

    /// The current duty's own session for the wire session `session`, if
    /// the duty owns it.
    fn unshift(&self, session: u64) -> Option<u64> {
        let offset = (self.epoch()? + 1) * DUTY_STRIDE;
        session.checked_sub(offset).filter(|s| *s < DUTY_STRIDE)
    }

    /// Runs `step` on the current duty's instance and shifts the sessions
    /// it emits onto the wire.
    fn shifted(
        &mut self,
        out: &mut EngineOut,
        step: impl FnOnce(&mut dyn Engine, &mut EngineOut),
    ) {
        let Some((epoch, engine)) = &mut self.duty else { return };
        let offset = (*epoch + 1) * DUTY_STRIDE;
        let (sends, timers) = (out.sends.len(), out.timers.len());
        step(engine, out);
        out.sends[sends..].iter_mut().for_each(|(session, _)| *session += offset);
        out.timers[timers..].iter_mut().for_each(|(session, ..)| *session += offset);
    }
}

impl Engine for GlobalSlot {
    fn start(&mut self, out: &mut EngineOut) {
        self.shifted(out, |engine, out| engine.start(out));
    }
    fn handle(&mut self, session: u64, from: usize, body: &Body, out: &mut EngineOut) {
        if let Some(s) = self.unshift(session) {
            self.shifted(out, |engine, out| engine.handle(s, from, body, out));
        }
    }
    fn on_timer(&mut self, session: u64, local: u32, out: &mut EngineOut) {
        if let Some(s) = self.unshift(session) {
            self.shifted(out, |engine, out| engine.on_timer(s, local, out));
        }
    }
    fn on_work_available(&mut self, _out: &mut EngineOut) {}
    fn restore_chain(&mut self, _blocks: Vec<Block>) {}
    fn adopt_chain(&mut self, _blocks: Vec<Block>, _out: &mut EngineOut) {}
    /// The global tier runs one fixed committee.
    fn key_epoch(&self, _session: u64) -> u64 {
        0
    }
    fn blocks(&self) -> &[Block] {
        self.duty.as_ref().map_or(&[], |(_, engine)| engine.blocks())
    }
    fn is_done(&self) -> bool {
        self.duty.as_ref().is_none_or(|(_, engine)| engine.is_done())
    }
}

/// One node of a clustered deployment: local consensus member, sometimes
/// global-tier leader. Each tier is a [`ProtocolNode`]; this node adds the
/// cross-tier rule: take a duty, tally, announce, learn.
pub struct ClusterNode {
    /// This node's cluster index.
    cluster: usize,
    /// Index within the cluster (0-based).
    member: usize,
    /// Members per cluster.
    per_cluster: usize,
    /// Target epochs.
    target_epochs: u64,
    /// Local consensus, on the cluster's channel.
    local: ProtocolNode<Box<dyn Engine>>,
    /// Global consensus among cluster leaders, on [`GLOBAL_CHANNEL`].
    global: ProtocolNode<GlobalSlot>,
    /// Epochs whose global outcome this node knows, with tx counts.
    pub global_decisions: Vec<(u64, Digest32, u32)>,
    /// Completion times of global decisions (the multi-hop latency metric).
    pub decided_at: Vec<SimTime>,
    /// The epochs in `global_decisions`, for lookup (see `learn`).
    known: BTreeSet<u64>,
    /// Positions in `global_decisions` of the outcomes this node produced
    /// as leader and keeps re-announcing.
    announced: Vec<usize>,
    /// Local blocks [`ClusterNode::advance`] has looked at. Whether a block
    /// puts this node on global duty is settled the first time it is seen
    /// (leadership is fixed by the epoch, the duty's epoch only rises,
    /// `global_decisions` only grows) and the local chain only appends —
    /// a cluster node has no restore or adopt path — so one look is exact.
    local_seen: usize,
}

/// The blocks of `chain` past the cursor `seen`, which moves to the chain's
/// end: every block is handed out exactly once.
fn unseen<'a>(chain: &'a [Block], seen: &mut usize) -> &'a [Block] {
    let fresh = chain.get(*seen..).unwrap_or_default();
    *seen = chain.len();
    fresh
}

/// Dedicated timer re-announcing known global decisions on the cluster
/// channel (an announcement lost to a collision must not strand followers).
const TIMER_ANNOUNCE: u64 = 1 << 62;

impl ClusterNode {
    /// Builds one node.
    ///
    /// `local_crypto` is dealt among the cluster's members; `global_crypto`
    /// among the M clusters (every member holds its cluster's share and
    /// uses it only while leader — the key custody question is out of the
    /// paper's scope).
    #[expect(
        clippy::too_many_arguments,
        reason = "a node's place in two tiers, its workload and one key set per tier"
    )]
    pub fn new(
        cluster: usize,
        member: usize,
        per_cluster: usize,
        protocol: Protocol,
        workload: Workload,
        target_epochs: u64,
        local_crypto: NodeCrypto,
        global_crypto: NodeCrypto,
    ) -> Self {
        let local = protocol.engine_at_depth(local_crypto.clone(), workload, target_epochs, 1);
        let slot = GlobalSlot { crypto: global_crypto.clone(), duty: None };
        ClusterNode {
            cluster,
            member,
            per_cluster,
            target_epochs,
            local: ProtocolNode::new(local, local_crypto, ChannelId(cluster as u8 + 1)),
            global: ProtocolNode::new(slot, global_crypto, GLOBAL_CHANNEL),
            global_decisions: Vec::new(),
            decided_at: Vec::new(),
            known: BTreeSet::new(),
            announced: Vec::new(),
            local_seen: 0,
        }
    }

    /// The rotating leader of `epoch` within a cluster.
    pub fn leader_for(epoch: u64, per_cluster: usize) -> usize {
        (epoch % per_cluster as u64) as usize
    }

    fn is_leader(&self, epoch: u64) -> bool {
        Self::leader_for(epoch, self.per_cluster) == self.member
    }

    /// `true` once all epochs are locally decided *and* globally known.
    pub fn is_done(&self) -> bool {
        self.local.blocks().len() as u64 >= self.target_epochs
            && self.global_decisions.len() as u64 >= self.target_epochs
    }

    /// Records epoch `epoch`'s global outcome, learnt at `now`.
    fn learn(&mut self, epoch: u64, digest: Digest32, tx_count: u32, now: SimTime) {
        self.known.insert(epoch);
        self.global_decisions.push((epoch, digest, tx_count));
        self.decided_at.push(now);
    }

    /// Total transactions this node saw globally ordered.
    pub fn global_tx_total(&self) -> u64 {
        self.global_decisions.iter().map(|(_, _, c)| *c as u64).sum()
    }

    /// Drives cross-tier transitions after any progress.
    fn advance(&mut self, ctx: &mut NodeCtx) {
        // 1. Newly decided local blocks: if on duty, open the global tier.
        for block in unseen(self.local.blocks(), &mut self.local_seen) {
            let epoch = block.epoch;
            if self.is_leader(epoch)
                && self.global.engine().epoch().is_none_or(|e| e < epoch)
                && !self.known.contains(&epoch)
            {
                // Join the overlay (a no-op once joined) and start the
                // global instance for this epoch with our cluster's summary
                // as the fixed proposal.
                ctx.join_channel(GLOBAL_CHANNEL);
                let summary =
                    encode_summary(self.cluster, epoch, block_digest(block), block.txs.len());
                self.global.drive(ctx, |slot, out| slot.take(epoch, summary, out));
            }
        }
        // 2. Global decision reached while on duty: tally + announce.
        let slot = self.global.engine();
        if let (Some(block), Some(epoch)) = (slot.blocks().first(), slot.epoch()) {
            if !self.known.contains(&epoch) {
                let tx_count =
                    block.txs.iter().filter_map(|tx| decode_summary(tx)).map(|(.., c)| c).sum();
                self.announced.push(self.global_decisions.len());
                self.learn(epoch, block_digest(block), tx_count, ctx.now());
                self.announce(self.announced.len() - 1, ctx);
            }
        }
    }

    /// Airs, on the cluster channel, the outcomes this node announces from
    /// position `from` of `announced` on.
    fn announce(&mut self, from: usize, ctx: &mut NodeCtx) {
        let (announced, decisions) = (&self.announced[from..], &self.global_decisions);
        self.local.drive(ctx, |_, out| {
            for &at in announced {
                let (epoch, digest, tx_count) = decisions[at];
                let session = sessions::of(epoch, sessions::GLOBAL_DECISION);
                out.sends.push((session, Body::GlobalDecision { epoch, digest, tx_count }));
            }
        });
    }
}

impl NodeBehavior for ClusterNode {
    fn on_start(&mut self, ctx: &mut NodeCtx) {
        self.local.on_start(ctx);
        ctx.set_timer(SimDuration::from_millis(3_500), TIMER_ANNOUNCE);
        self.advance(ctx);
    }

    fn on_frame(&mut self, frame: &Frame, ctx: &mut NodeCtx) {
        if frame.channel == GLOBAL_CHANNEL {
            self.global.on_frame(frame, ctx);
        } else if let Some(opened) = self.local.open(frame, ctx) {
            let env = &opened.env;
            if let Body::GlobalDecision { epoch, digest, tx_count } = env.body {
                // Leader's announcement of the global outcome.
                let leader = Self::leader_for(epoch, self.per_cluster);
                if env.src as usize == leader && !self.known.contains(&epoch) {
                    self.learn(epoch, digest, tx_count, ctx.now());
                }
            } else {
                self.local.drive(ctx, |engine, out| {
                    engine.handle(env.session, env.src as usize, &env.body, out)
                });
            }
        }
        self.advance(ctx);
    }

    fn on_timer(&mut self, id: u64, ctx: &mut NodeCtx) {
        // The announce timer shares its bit with `ProtocolNode`'s sync
        // timer, so it is routed here, before either tier sees it. Every
        // other id is a component timer, whose session names its tier.
        if id == TIMER_ANNOUNCE {
            // Leaders re-broadcast every global decision they produced until
            // the deployment completes. Re-arm unconditionally: the leader
            // cannot know whether every follower has heard (announcements
            // are fire-and-forget), so it keeps serving them; slot
            // replacement keeps at most one announcement per epoch in the
            // radio queue.
            self.announce(0, ctx);
            ctx.set_timer(SimDuration::from_millis(3_500), TIMER_ANNOUNCE);
        } else if timer_session(id) >= DUTY_STRIDE {
            self.global.on_timer(id, ctx);
        } else {
            self.local.on_timer(id, ctx);
        }
        self.advance(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;
    use wbft_components::deal_node_crypto;
    use wbft_crypto::CryptoSuite;
    use wbft_net::{Envelope, Sizing};
    use wbft_wireless::{Command, NodeId};

    /// The first wire session of the duty of `epoch`.
    fn at(epoch: u64) -> u64 {
        (epoch + 1) * DUTY_STRIDE
    }

    /// Member 0 of cluster 0 in a 4 × 4 hb-sc deployment, with the global
    /// and the cluster key sets it was dealt from.
    fn member0() -> (ClusterNode, Vec<NodeCrypto>, Vec<NodeCrypto>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let global = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        let local = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        let node = ClusterNode::new(
            0,
            0,
            4,
            Protocol::HoneyBadgerSc,
            Workload::small(),
            4,
            local[0].clone(),
            global[0].clone(),
        );
        (node, global, local)
    }

    /// The commands one callback on a node issues.
    fn commands(rng: &mut ChaCha12Rng, callback: impl FnOnce(&mut NodeCtx)) -> Vec<Command> {
        let mut ctx = NodeCtx::external(SimTime::ZERO, NodeId(0), rng);
        callback(&mut ctx);
        ctx.finish().0
    }

    /// `body` at `session`, signed by `from` and heard on `channel`.
    fn frame(from: &NodeCrypto, channel: ChannelId, session: u64, body: Body) -> Frame {
        let sizing = Sizing { n: from.peer_keys.len(), suite: from.suite };
        let env = Envelope { src: from.me as u16, session, body };
        let (payload, nominal_len) = env.seal(&from.keypair, &sizing).unwrap();
        Frame { src: NodeId(from.me as u16), channel, payload, nominal_len }
    }

    #[test]
    fn a_duty_shifts_what_it_emits_into_its_own_session_range() {
        let (_, global, _) = member0();
        let mut slot = GlobalSlot { crypto: global[1].clone(), duty: None };
        let mut out = EngineOut::new();
        slot.start(&mut out);
        assert!(out.sends.is_empty() && out.timers.is_empty(), "no duty, nothing to start");
        slot.take(3, encode_summary(1, 3, Digest32::of(b"b"), 8), &mut out);
        let range = at(3)..at(4);
        assert!(!out.sends.is_empty() && !out.timers.is_empty());
        assert!(out.sends.iter().all(|(session, _)| range.contains(session)));
        assert!(out.timers.iter().all(|(session, ..)| range.contains(session)));
    }

    #[test]
    fn global_frames_and_timers_reach_only_the_current_duty() {
        let (mut node, global, _) = member0();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        // Leader 1's opening frames for the duty of epoch 3.
        let mut peer = GlobalSlot { crypto: global[1].clone(), duty: None };
        let mut out = EngineOut::new();
        peer.take(3, encode_summary(1, 3, Digest32::of(b"b"), 8), &mut out);
        let frames: Vec<Frame> = out
            .sends
            .into_iter()
            .map(|(session, body)| frame(&global[1], GLOBAL_CHANNEL, session, body))
            .collect();
        let hear = |node: &mut ClusterNode, rng: &mut ChaCha12Rng| {
            commands(rng, |ctx| frames.iter().for_each(|f| node.on_frame(f, ctx)))
        };
        assert!(hear(&mut node, &mut rng).is_empty(), "no duty: nothing reached, nothing aired");
        // On the duty of epoch 3 the frames round-trip through the shift.
        let summary = encode_summary(0, 3, Digest32::of(b"a"), 8);
        let armed: Vec<u64> = commands(&mut rng, |ctx| {
            node.global.drive(ctx, |slot, out| slot.take(3, summary, out))
        })
        .into_iter()
        .filter_map(|cmd| match cmd {
            Command::SetTimer { id, .. } => Some(id),
            _ => None,
        })
        .collect();
        assert!(!armed.is_empty());
        let aired = |cmds: &[Command]| cmds.iter().any(|c| matches!(c, Command::Broadcast { .. }));
        assert!(aired(&hear(&mut node, &mut rng)), "the current duty answers its peer");
        let fired: Vec<Vec<Command>> =
            armed.iter().map(|&id| commands(&mut rng, |ctx| node.on_timer(id, ctx))).collect();
        assert!(fired.iter().any(|cmds| !cmds.is_empty()), "its timers reach it");
        // The duty of epoch 7 supersedes it: epoch 3's frames and timers
        // match nothing.
        let summary = encode_summary(0, 7, Digest32::of(b"c"), 8);
        commands(&mut rng, |ctx| node.global.drive(ctx, |slot, out| slot.take(7, summary, out)));
        assert!(hear(&mut node, &mut rng).is_empty(), "superseded duty: nothing aired");
        for id in armed {
            assert!(commands(&mut rng, |ctx| node.on_timer(id, ctx)).is_empty());
        }
    }

    #[test]
    fn only_the_epoch_leaders_announcement_is_learnt_and_only_once() {
        let (mut node, _, local) = member0();
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let (epoch, digest, tx_count) = (2, Digest32::of(b"outcome"), 12);
        let announce = |from: &NodeCrypto| {
            let session = sessions::of(epoch, sessions::GLOBAL_DECISION);
            frame(from, ChannelId(1), session, Body::GlobalDecision { epoch, digest, tx_count })
        };
        assert_eq!(ClusterNode::leader_for(epoch, 4), 2);
        commands(&mut rng, |ctx| node.on_frame(&announce(&local[1]), ctx));
        assert!(node.global_decisions.is_empty(), "a follower's word is not taken");
        for _ in 0..2 {
            commands(&mut rng, |ctx| node.on_frame(&announce(&local[2]), ctx));
        }
        assert_eq!(node.global_decisions, [(epoch, digest, tx_count)]);
        assert_eq!(node.decided_at.len(), 1);
    }

    #[test]
    fn summary_roundtrip() {
        let d = Digest32::of(b"block");
        let enc = encode_summary(2, 9, d, 384);
        assert_eq!(decode_summary(&enc), Some((2, 9, d, 384)));
        assert_eq!(decode_summary(&enc[..10]), None);
    }

    #[test]
    fn leader_rotates() {
        assert_eq!(ClusterNode::leader_for(0, 4), 0);
        assert_eq!(ClusterNode::leader_for(1, 4), 1);
        assert_eq!(ClusterNode::leader_for(4, 4), 0);
    }

    #[test]
    fn every_local_block_is_handed_out_exactly_once() {
        let mut chain: Vec<Block> = Vec::new();
        let mut seen = 0;
        let mut handed_out = Vec::new();
        // The chain only appends; the cursor is asked after every kind of
        // step: nothing new, one block, several at once.
        for grow in [0, 1, 0, 3, 1, 0] {
            for _ in 0..grow {
                chain.push(Block { epoch: chain.len() as u64, txs: Vec::new() });
            }
            let fresh = unseen(&chain, &mut seen);
            assert_eq!(fresh.len(), grow);
            handed_out.extend(fresh.iter().map(|b| b.epoch));
            assert!(unseen(&chain, &mut seen).is_empty(), "a second look finds nothing");
        }
        assert_eq!(handed_out, (0..chain.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn block_digest_depends_on_content() {
        let a = Block { epoch: 0, txs: vec![Bytes::from_static(b"x")] };
        let b = Block { epoch: 0, txs: vec![Bytes::from_static(b"y")] };
        assert_ne!(block_digest(&a), block_digest(&b));
    }
}
