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
//!
//! Both tiers name everything by epoch. The global duty of epoch `e` is an
//! hb-sc engine that runs epoch `e` itself (`Protocol::duty`), so its
//! sessions, common coins and ciphertext labels are that epoch's, as in a
//! local tier, and no two duties reveal the same coin. A node's two tiers
//! tell their timers apart by the channel packed into each timer id.

use crate::driver::{sessions, timer_channel, Block, Engine, ProtocolNode, TIMER_CHANNEL_SHIFT};
use crate::protocol::Protocol;
use crate::workload::Workload;
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
    /// Global consensus among cluster leaders, on [`GLOBAL_CHANNEL`]: the
    /// engine of the duty this node last took as its cluster's leader
    /// (`Protocol::duty`), replaced by the next; a frame or timer of a
    /// superseded duty names an epoch the new one does not run.
    global: ProtocolNode<Box<dyn Engine>>,
    /// The key share this node runs its global duties under.
    global_crypto: NodeCrypto,
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
    /// (leadership is fixed by the epoch, `global_decisions` only grows)
    /// and the local chain only appends, in epoch order —
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
/// A component-layout id on channel 0xff, which no tier runs on: it carries
/// neither driver lane bit, so no `ProtocolNode` arms it.
const TIMER_ANNOUNCE: u64 = 0xff << TIMER_CHANNEL_SHIFT;

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
        // Until its first duty the global tier runs an engine of no epochs.
        let idle =
            Protocol::HoneyBadgerSc.engine_at_depth(global_crypto.clone(), Workload::small(), 0, 1);
        ClusterNode {
            cluster,
            member,
            per_cluster,
            target_epochs,
            local: ProtocolNode::new(local, local_crypto, ChannelId(cluster as u8 + 1)),
            global: ProtocolNode::new(idle, global_crypto.clone(), GLOBAL_CHANNEL),
            global_crypto,
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

    /// Sends either tier dropped because the wire format cannot carry them
    /// ([`ProtocolNode::unencodable_sends`]).
    pub fn unencodable_sends(&self) -> u64 {
        self.local.unencodable_sends() + self.global.unencodable_sends()
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
            if self.is_leader(epoch) && !self.known.contains(&epoch) {
                // Join the overlay (a no-op once joined) and take the duty
                // of this epoch with our cluster's summary as its proposal.
                ctx.join_channel(GLOBAL_CHANNEL);
                let summary =
                    encode_summary(self.cluster, epoch, block_digest(block), block.txs.len());
                let duty = Protocol::duty(self.global_crypto.clone(), epoch, summary);
                self.global.drive(ctx, |engine, out| {
                    *engine = duty;
                    engine.start(out);
                });
            }
        }
        // 2. Global decision reached while on duty: tally + announce.
        if let Some(block) = self.global.blocks().first() {
            let epoch = block.epoch;
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
        // The announce timer is this node's own; every other id is a
        // component timer, armed on its tier's channel.
        if id == TIMER_ANNOUNCE {
            // Leaders re-broadcast every global decision they produced until
            // the deployment completes. Re-arm unconditionally: the leader
            // cannot know whether every follower has heard (announcements
            // are fire-and-forget), so it keeps serving them; slot
            // replacement keeps at most one announcement per epoch in the
            // radio queue.
            self.announce(0, ctx);
            ctx.set_timer(SimDuration::from_millis(3_500), TIMER_ANNOUNCE);
        } else if timer_channel(id) == GLOBAL_CHANNEL {
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
    use crate::driver::EngineOut;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;
    use std::collections::{BTreeMap, VecDeque};
    use wbft_components::deal_node_crypto;
    use wbft_crypto::thresh_enc::DecShare;
    use wbft_crypto::thresh_sig::SigShare;
    use wbft_crypto::CryptoSuite;
    use wbft_net::{Envelope, Sizing};
    use wbft_wireless::{Command, NodeId};

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

    /// Leader `me`'s duty of `epoch`, started: its engine and opening sends.
    fn duty(crypto: &NodeCrypto, epoch: u64) -> (Box<dyn Engine>, EngineOut) {
        let summary = encode_summary(crypto.me, epoch, Digest32::of(b"block"), 8);
        let mut engine = Protocol::duty(crypto.clone(), epoch, summary);
        let mut out = EngineOut::new();
        engine.start(&mut out);
        (engine, out)
    }

    /// `node` takes the duty of `epoch`, as [`ClusterNode::advance`] does.
    fn take(node: &mut ClusterNode, epoch: u64, summary: Bytes, ctx: &mut NodeCtx) {
        let duty = Protocol::duty(node.global_crypto.clone(), epoch, summary);
        node.global.drive(ctx, |engine, out| {
            *engine = duty;
            engine.start(out);
        });
    }

    #[test]
    fn the_announce_timer_is_an_id_no_tier_arms() {
        use crate::driver::{ARRIVAL_TIMER_BIT, SYNC_TIMER_BIT};
        assert_eq!(TIMER_ANNOUNCE & ARRIVAL_TIMER_BIT, 0, "a tier's client arrivals");
        assert_eq!(TIMER_ANNOUNCE & SYNC_TIMER_BIT, 0, "a tier's head announcements");
        let channel = timer_channel(TIMER_ANNOUNCE);
        assert!(channel != GLOBAL_CHANNEL && channel.0 > 64, "a tier's components");
    }

    #[test]
    fn a_duty_runs_in_its_own_epochs_sessions() {
        let (_, global, _) = member0();
        let (_, out) = duty(&global[1], 3);
        assert!(!out.sends.is_empty() && !out.timers.is_empty());
        let sessions = out.sends.iter().map(|(s, _)| s).chain(out.timers.iter().map(|(s, ..)| s));
        assert!(sessions.map(|s| sessions::split(*s).0).all(|epoch| epoch == 3));
    }

    #[test]
    fn global_frames_and_timers_reach_only_the_current_duty() {
        let (mut node, global, _) = member0();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        // Leader 1's opening frames for the duty of epoch 3.
        let (_, out) = duty(&global[1], 3);
        let frames: Vec<Frame> = out
            .sends
            .into_iter()
            .map(|(session, body)| frame(&global[1], GLOBAL_CHANNEL, session, body))
            .collect();
        let hear = |node: &mut ClusterNode, rng: &mut ChaCha12Rng| {
            commands(rng, |ctx| frames.iter().for_each(|f| node.on_frame(f, ctx)))
        };
        assert!(hear(&mut node, &mut rng).is_empty(), "no duty: nothing reached, nothing aired");
        // On the duty of epoch 3 they reach it.
        let summary = encode_summary(0, 3, Digest32::of(b"a"), 8);
        let armed: Vec<u64> = commands(&mut rng, |ctx| take(&mut node, 3, summary, ctx))
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
        commands(&mut rng, |ctx| take(&mut node, 7, summary, ctx));
        assert!(hear(&mut node, &mut rng).is_empty(), "superseded duty: nothing aired");
        for id in armed {
            assert!(commands(&mut rng, |ctx| node.on_timer(id, ctx)).is_empty());
        }
    }

    /// Runs the four leaders' duties of `epoch` to decision over a lossless
    /// in-memory mesh and returns every body aired, with its sender.
    fn aired_by_duty(global: &[NodeCrypto], epoch: u64) -> Vec<(usize, Body)> {
        let mut engines = Vec::new();
        let mut queue = VecDeque::new();
        for crypto in global {
            let (engine, out) = duty(crypto, epoch);
            engines.push(engine);
            queue.extend(out.sends.into_iter().map(|(session, body)| (crypto.me, session, body)));
        }
        let mut aired = Vec::new();
        while let Some((from, session, body)) = queue.pop_front() {
            for (to, engine) in engines.iter_mut().enumerate().filter(|(to, _)| *to != from) {
                let mut out = EngineOut::new();
                engine.handle(session, from, &body, &mut out);
                queue.extend(out.sends.into_iter().map(|(s, b)| (to, s, b)));
            }
            aired.push((from, body));
        }
        assert!(engines.iter().all(|e| e.blocks().len() == 1), "every duty of {epoch} decides");
        aired
    }

    /// Every ABA-SC coin share a duty of `epoch` airs, keyed by `(sender,
    /// (domain << 8) | round)`.
    fn coin_shares_of_duty(global: &[NodeCrypto], epoch: u64) -> BTreeMap<(usize, u16), SigShare> {
        let mut shares = BTreeMap::new();
        for (from, body) in aired_by_duty(global, epoch) {
            if let Body::AbaSc { coin_shares, .. } = body {
                shares.extend(coin_shares.into_iter().map(|(tag, share)| ((from, tag), share)));
            }
        }
        shares
    }

    /// Every decryption share a duty of `epoch` airs, keyed by `(sender,
    /// proposer)`.
    fn dec_shares_of_duty(global: &[NodeCrypto], epoch: u64) -> BTreeMap<(usize, u8), DecShare> {
        let mut shares = BTreeMap::new();
        for (from, body) in aired_by_duty(global, epoch) {
            if let Body::DecShareBatch { shares: batch, .. } = body {
                shares.extend(batch.into_iter().map(|(proposer, share)| ((from, proposer), share)));
            }
        }
        shares
    }

    /// A common coin is unpredictable only until it is first revealed: a
    /// later duty's coin shares must not be the earlier one's.
    #[test]
    fn no_global_duty_reveals_a_coin_share_an_earlier_duty_revealed() {
        let (_, global, _) = member0();
        let first = coin_shares_of_duty(&global, 3);
        let second = coin_shares_of_duty(&global, 7);
        let common: Vec<_> = second.keys().filter(|k| first.contains_key(k)).collect();
        assert!(!common.is_empty(), "both duties air coin shares of the same rounds");
        let reused = common.iter().filter(|k| first[**k] == second[**k]).count();
        assert_eq!(reused, 0, "{reused} of {} common coin shares revealed twice", common.len());
    }

    /// A proposal stays secret until agreement only if its encryption
    /// randomness is fresh: were a leader's `r` the same in two duties, the
    /// first duty's decryption shares (`vk_i^r`) would open the second's
    /// ciphertext before it is agreed.
    #[test]
    fn no_global_duty_encrypts_with_an_earlier_duty_s_randomness() {
        let (_, global, _) = member0();
        let first = dec_shares_of_duty(&global, 3);
        let second = dec_shares_of_duty(&global, 7);
        let common: Vec<_> = second.keys().filter(|k| first.contains_key(k)).collect();
        assert!(!common.is_empty(), "both duties air decryption shares for the same proposers");
        let reused = common.iter().filter(|k| first[**k] == second[**k]).count();
        assert_eq!(reused, 0, "{reused} of {} common decryption shares repeated", common.len());
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
