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

use crate::driver::{sessions, Block, Engine, EngineOut};
use crate::engine::EpochEngine;
use crate::honeybadger::{hb_sc, HbLane};
use crate::protocol::Protocol;
use crate::service::StopCondition;
use crate::workload::{BatchSource, Workload};
use bytes::Bytes;
use std::collections::BTreeSet;
use wbft_components::aba_sc::AbaScBatch;
use wbft_components::NodeCrypto;
use wbft_crypto::hash::Digest32;
use wbft_net::wire::{ByteSink, Sink, WireReader};
use wbft_net::{broadcast_signed, open_shared, Body, Envelope, Sizing, WireError};
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

/// One node of a clustered deployment: local consensus member, sometimes
/// global-tier leader.
pub struct ClusterNode {
    /// This node's cluster index.
    cluster: usize,
    /// Index within the cluster (0-based).
    member: usize,
    /// Members per cluster.
    per_cluster: usize,
    /// Target epochs.
    target_epochs: u64,
    /// Local consensus engine + identity.
    local: Box<dyn Engine>,
    local_crypto: NodeCrypto,
    local_sizing: Sizing,
    local_channel: ChannelId,
    /// Global tier (engine created lazily per epoch when on duty).
    global_crypto: NodeCrypto,
    global_sizing: Sizing,
    global_channel: ChannelId,
    global: Option<EpochEngine<HbLane<AbaScBatch>>>,
    global_epoch: Option<u64>,
    joined_global: bool,
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
    /// (leadership is fixed by the epoch, `global_epoch` only rises,
    /// `global_decisions` only grows) and the local chain only appends —
    /// a cluster node has no restore or adopt path — so one look is exact.
    local_seen: usize,
    /// Reusable engine-output sink, drained by `emit` (see
    /// `ProtocolNode::scratch`).
    scratch: EngineOut,
}

/// The blocks of `chain` past the cursor `seen`, which moves to the chain's
/// end: every block is handed out exactly once.
fn unseen<'a>(chain: &'a [Block], seen: &mut usize) -> &'a [Block] {
    let fresh = chain.get(*seen..).unwrap_or_default();
    *seen = chain.len();
    fresh
}

/// Bit 63 of a timer id marks the global lane.
const GLOBAL_TIMER_BIT: u64 = 1 << 63;
/// Dedicated timer re-announcing known global decisions on the cluster
/// channel (an announcement lost to a collision must not strand followers).
const TIMER_ANNOUNCE: u64 = 1 << 62;
const TIMER_LOCAL_BITS: u64 = 10;

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
        let local_sizing = Sizing { n: per_cluster, suite: local_crypto.suite };
        let global_sizing =
            Sizing { n: global_crypto.peer_keys.len(), suite: global_crypto.suite };
        ClusterNode {
            cluster,
            member,
            per_cluster,
            target_epochs,
            local,
            local_crypto,
            local_sizing,
            local_channel: ChannelId(cluster as u8 + 1),
            global_crypto,
            global_sizing,
            global_channel: ChannelId(0),
            global: None,
            global_epoch: None,
            joined_global: false,
            global_decisions: Vec::new(),
            decided_at: Vec::new(),
            known: BTreeSet::new(),
            announced: Vec::new(),
            local_seen: 0,
            scratch: EngineOut::new(),
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

    /// Session-id stride separating successive global instances: every
    /// per-epoch global engine numbers its sessions from zero, so the lane
    /// shifts them by `(epoch + 1) · STRIDE` on the wire. Stale frames and
    /// timers from a superseded instance then simply fail to match.
    const GLOBAL_STRIDE: u64 = 1 << 20;

    fn global_offset(&self) -> u64 {
        (self.global_epoch.map(|e| e + 1).unwrap_or(0)) * Self::GLOBAL_STRIDE
    }

    fn emit(
        &self,
        out: &mut EngineOut,
        global: bool,
        ctx: &mut NodeCtx,
    ) {
        let (crypto, sizing, channel, offset) = if global {
            (&self.global_crypto, &self.global_sizing, self.global_channel, self.global_offset())
        } else {
            (&self.local_crypto, &self.local_sizing, self.local_channel, 0)
        };
        if out.charge_us > 0 {
            ctx.charge_cpu(SimDuration::from_micros(out.charge_us));
        }
        for (session, body) in out.sends.drain(..) {
            let env = Envelope { src: crypto.me as u16, session: session + offset, body };
            let _ = broadcast_signed(ctx, channel, &crypto.keypair, sizing, &env, 0);
        }
        for (session, local, delay) in out.timers.drain(..) {
            let mut id = ((session + offset) << TIMER_LOCAL_BITS) | local as u64;
            if global {
                id |= GLOBAL_TIMER_BIT;
            }
            ctx.set_timer(delay, id);
        }
        out.charge_us = 0;
    }

    /// Drives cross-tier transitions after any progress.
    fn advance(&mut self, ctx: &mut NodeCtx) {
        // 1. Newly decided local blocks: if on duty, open the global tier.
        for block in unseen(self.local.blocks(), &mut self.local_seen) {
            let epoch = block.epoch;
            if self.is_leader(epoch)
                && self.global_epoch.map(|e| e < epoch).unwrap_or(true)
                && !self.known.contains(&epoch)
            {
                // Join the overlay and start the global instance for this
                // epoch with our cluster's summary as the fixed proposal.
                if !self.joined_global {
                    self.joined_global = true;
                    ctx.join_channel(self.global_channel);
                }
                let summary =
                    encode_summary(self.cluster, epoch, block_digest(block), block.txs.len());
                let mut source = BatchSource::Fixed(Vec::new());
                source.set_fixed(0, summary);
                let mut engine =
                    hb_sc(self.global_crypto.clone(), source, StopCondition::Epochs(1));
                let mut out = std::mem::take(&mut self.scratch);
                engine.start(&mut out);
                self.global = Some(engine);
                self.global_epoch = Some(epoch);
                self.emit(&mut out, true, ctx);
                self.scratch = out;
            }
        }
        // 2. Global decision reached while on duty: tally + announce.
        let mut announce: Option<(u64, Digest32, u32)> = None;
        if let (Some(engine), Some(epoch)) = (&self.global, self.global_epoch) {
            if let Some(block) = engine.blocks().first() {
                if !self.known.contains(&epoch) {
                    let digest = block_digest(block);
                    let tx_count: u32 = block
                        .txs
                        .iter()
                        .filter_map(|tx| decode_summary(tx))
                        .map(|(_, _, _, c)| c)
                        .sum();
                    announce = Some((epoch, digest, tx_count));
                }
            }
        }
        if let Some((epoch, digest, tx_count)) = announce {
            self.announced.push(self.global_decisions.len());
            self.learn(epoch, digest, tx_count, ctx.now());
            self.broadcast_announcement(epoch, digest, tx_count, ctx);
        }
    }

    fn broadcast_announcement(
        &self,
        epoch: u64,
        digest: Digest32,
        tx_count: u32,
        ctx: &mut NodeCtx,
    ) {
        let body = Body::GlobalDecision { epoch, digest, tx_count };
        let env = Envelope {
            src: self.local_crypto.me as u16,
            session: sessions::of(epoch, sessions::GLOBAL_DECISION),
            body,
        };
        let _ = broadcast_signed(
            ctx,
            self.local_channel,
            &self.local_crypto.keypair,
            &self.local_sizing,
            &env,
            0,
        );
    }
}

impl NodeBehavior for ClusterNode {
    fn on_start(&mut self, ctx: &mut NodeCtx) {
        let mut out = std::mem::take(&mut self.scratch);
        self.local.start(&mut out);
        self.emit(&mut out, false, ctx);
        self.scratch = out;
        ctx.set_timer(SimDuration::from_millis(3_500), TIMER_ANNOUNCE);
        self.advance(ctx);
    }

    fn on_frame(&mut self, frame: &Frame, ctx: &mut NodeCtx) {
        ctx.charge_cpu(SimDuration::from_micros(
            self.local_crypto.suite.ecdsa.profile().verify_us,
        ));
        let global = frame.channel == self.global_channel;
        let keys = if global {
            &self.global_crypto.peer_keys
        } else {
            &self.local_crypto.peer_keys
        };
        let Ok(opened) = open_shared(&frame.payload, |src| keys.get(src as usize).copied())
        else {
            return;
        };
        if !opened.sig_ok {
            return;
        }
        let env = &opened.env;
        let mut out = std::mem::take(&mut self.scratch);
        if global {
            let offset = self.global_offset();
            if env.session >= offset && env.session < offset + Self::GLOBAL_STRIDE {
                if let Some(engine) = &mut self.global {
                    engine.handle(env.session - offset, env.src as usize, &env.body, &mut out);
                    self.emit(&mut out, true, ctx);
                }
            } // else: stale instance — drop
        } else if let Body::GlobalDecision { epoch, digest, tx_count } = env.body {
            // Leader's announcement of the global outcome.
            let leader = Self::leader_for(epoch, self.per_cluster);
            if env.src as usize == leader && !self.known.contains(&epoch) {
                self.learn(epoch, digest, tx_count, ctx.now());
            }
        } else {
            self.local.handle(env.session, env.src as usize, &env.body, &mut out);
            self.emit(&mut out, false, ctx);
        }
        self.scratch = out;
        self.advance(ctx);
    }

    fn on_timer(&mut self, id: u64, ctx: &mut NodeCtx) {
        if id == TIMER_ANNOUNCE {
            // Leaders re-broadcast every global decision they produced until
            // the deployment completes; slot replacement keeps at most one
            // announcement per epoch in the radio queue.
            for &at in &self.announced {
                let (epoch, digest, tx_count) = self.global_decisions[at];
                self.broadcast_announcement(epoch, digest, tx_count, ctx);
            }
            // Re-arm unconditionally: the leader cannot know whether every
            // follower has heard (announcements are fire-and-forget), so it
            // keeps serving them; slot replacement bounds the cost to one
            // queued frame.
            ctx.set_timer(SimDuration::from_millis(3_500), TIMER_ANNOUNCE);
            self.advance(ctx);
            return;
        }
        let global = id & GLOBAL_TIMER_BIT != 0;
        let id = id & !GLOBAL_TIMER_BIT;
        let session = id >> TIMER_LOCAL_BITS;
        let local = (id & ((1 << TIMER_LOCAL_BITS) - 1)) as u32;
        let mut out = std::mem::take(&mut self.scratch);
        if global {
            let offset = self.global_offset();
            if session >= offset && session < offset + Self::GLOBAL_STRIDE {
                if let Some(engine) = &mut self.global {
                    engine.on_timer(session - offset, local, &mut out);
                }
            }
            self.emit(&mut out, true, ctx);
        } else {
            self.local.on_timer(session, local, &mut out);
            self.emit(&mut out, false, ctx);
        }
        self.scratch = out;
        self.advance(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
