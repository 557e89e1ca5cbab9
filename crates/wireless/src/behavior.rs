//! The sans-io contract between protocol logic and the simulator.
//!
//! A [`NodeBehavior`] is a state machine driven by three callbacks
//! (`on_start`, `on_frame`, `on_timer`). It never touches the network
//! directly; it issues commands through [`NodeCtx`] (broadcast a frame, set
//! a timer, charge virtual CPU time for crypto work, join/leave a channel).
//! The same protocol code therefore runs identically under this simulator
//! and under any real transport that honours the contract.
//!
//! A broadcast's payload may be handed over *unfinished* ([`Payload`]): the
//! bytes a node can build the moment its state changes, plus a [`Finish`]
//! that completes them — in practice, signs them — when the frame actually
//! leaves the node. A runtime with a transmit queue finishes a frame at the
//! one point it leaves the queue, so a version superseded while waiting is
//! never finished at all; a runtime without a queue finishes it at once.

use crate::time::{SimDuration, SimTime};
use crate::topology::{ChannelId, NodeId};
use bytes::{Bytes, BytesMut};
use rand_chacha::ChaCha12Rng;
use std::sync::Arc;

/// A frame as seen by a receiving node.
#[derive(Clone, Debug)]
pub struct Frame {
    /// The transmitting node.
    pub src: NodeId,
    /// Channel it was heard on.
    pub channel: ChannelId,
    /// The payload bytes (already validated by the PHY; corruption is
    /// modelled as loss, not bit errors).
    pub payload: Bytes,
    /// The nominal wire length in bytes — what this packet would occupy
    /// with the paper's signature sizes (airtime and byte counters use
    /// this, not `payload.len()`; see `wbft-net`).
    pub nominal_len: usize,
}

/// Completes an unfinished frame at the moment it leaves the node; see
/// [`Payload::Deferred`]. Must not fail: everything that can go wrong with
/// a frame (an oversized body, say) is settled when it is queued.
pub trait Finish: std::fmt::Debug + Send + Sync {
    /// The frame's final bytes, given what was built when it was queued.
    fn finish(&self, unfinished: BytesMut) -> Bytes;
}

/// What a [`Command::Broadcast`] carries.
#[derive(Clone, Debug)]
pub enum Payload {
    /// Final bytes.
    Ready(Bytes),
    /// Bytes built at enqueue time and the step that completes them at
    /// transmit time.
    Deferred {
        /// Everything but the part `finisher` adds.
        unfinished: BytesMut,
        /// Completes `unfinished` when the frame leaves the node.
        finisher: Arc<dyn Finish>,
    },
}

impl Payload {
    /// The bytes that go on the air. A runtime calls this exactly once per
    /// frame it transmits and never for a frame it drops.
    pub fn finish(self) -> Bytes {
        match self {
            Payload::Ready(bytes) => bytes,
            Payload::Deferred { unfinished, finisher } => finisher.finish(unfinished),
        }
    }
}

/// Commands a behavior can issue during a callback; applied by the driving
/// runtime (the simulator, or a real transport) after the callback returns.
///
/// This enum is the full sans-io contract surface: any runtime that honours
/// these five commands plus the three [`NodeBehavior`] callbacks runs the
/// same protocol code the simulator does. External runtimes obtain them via
/// [`NodeCtx::external`] / [`NodeCtx::finish`].
#[derive(Clone, Debug)]
pub enum Command {
    /// Broadcast `payload` on `channel`; `nominal_len` is the paper-sized
    /// byte count for airtime/byte accounting, and frames sharing a `slot`
    /// may supersede queued older versions (transports without a transmit
    /// queue may ignore `slot`).
    Broadcast {
        /// Target channel.
        channel: ChannelId,
        /// Frame payload, finished by the runtime when the frame leaves
        /// the node.
        payload: Payload,
        /// Nominal wire length in bytes.
        nominal_len: usize,
        /// Transmit-queue coalescing slot, if any.
        slot: Option<u64>,
    },
    /// Drop the frame waiting in this node's transmit queue under `slot` on
    /// `channel`, if it has not started to air: a node that overhears
    /// another node air what it was about to air withdraws its own copy. A
    /// frame already on the air is untouched, and so is every other slot or
    /// channel. A runtime without a transmit queue (the UDP runtime, which
    /// sends at once) has nothing to withdraw and ignores this, as it
    /// ignores `slot` on a broadcast.
    Withdraw {
        /// The channel the frame was queued on.
        channel: ChannelId,
        /// Its transmit-queue slot.
        slot: u64,
    },
    /// Deliver `on_timer(id)` after `after`.
    SetTimer {
        /// Delay from now.
        after: SimDuration,
        /// Timer id handed back to the behavior.
        id: u64,
    },
    /// Start listening on a channel.
    JoinChannel(ChannelId),
    /// Stop listening on a channel.
    LeaveChannel(ChannelId),
}

/// The execution context handed to every behavior callback.
pub struct NodeCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) rng: &'a mut ChaCha12Rng,
    pub(crate) cmds: Vec<Command>,
    pub(crate) charged: SimDuration,
}

impl<'a> NodeCtx<'a> {
    /// Builds a context for an *external* runtime (a real transport driving
    /// a [`NodeBehavior`] outside the simulator).
    ///
    /// `now` is whatever clock the runtime maps onto [`SimTime`] — a real
    /// transport uses monotonic micros since process start. After the
    /// callback returns, the runtime applies the issued [`Command`]s from
    /// [`NodeCtx::finish`]. The simulator constructs its contexts
    /// internally; this constructor exists solely for other runtimes.
    pub fn external(now: SimTime, node: NodeId, rng: &'a mut ChaCha12Rng) -> NodeCtx<'a> {
        NodeCtx { now, node, rng, cmds: Vec::new(), charged: SimDuration::ZERO }
    }

    /// Consumes the context, returning the commands the callback issued (in
    /// issue order) and the virtual CPU time it charged.
    pub fn finish(self) -> (Vec<Command>, SimDuration) {
        (self.cmds, self.charged)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node this callback runs on.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Queues a broadcast frame on `channel`. The frame enters this node's
    /// transmit queue and contends for the channel via CSMA; `nominal_len`
    /// is the wire length used for airtime (callers take it from the packet
    /// codec).
    pub fn broadcast(&mut self, channel: ChannelId, payload: Bytes, nominal_len: usize) {
        self.transmit(channel, Payload::Ready(payload), nominal_len, None);
    }

    /// Queues a broadcast like [`NodeCtx::broadcast`], but if a frame with
    /// the same `slot` is still waiting in this node's transmit queue it is
    /// *replaced* instead of queued behind. This models updating a combined
    /// ConsensusBatcher packet in the radio buffer before it wins the
    /// channel: stale state never wastes airtime, and state changes that
    /// pile up behind a busy channel coalesce into one channel access.
    pub fn broadcast_slot(
        &mut self,
        channel: ChannelId,
        payload: Bytes,
        nominal_len: usize,
        slot: u64,
    ) {
        self.transmit(channel, Payload::Ready(payload), nominal_len, Some(slot));
    }

    /// The general form of [`NodeCtx::broadcast`] / [`NodeCtx::broadcast_slot`]:
    /// queues `payload`, finished or not, under an optional `slot`.
    pub fn transmit(
        &mut self,
        channel: ChannelId,
        payload: Payload,
        nominal_len: usize,
        slot: Option<u64>,
    ) {
        self.cmds.push(Command::Broadcast { channel, payload, nominal_len, slot });
    }

    /// Withdraws the frame queued under `slot` on `channel` that has not
    /// started to air; see [`Command::Withdraw`].
    pub fn withdraw(&mut self, channel: ChannelId, slot: u64) {
        self.cmds.push(Command::Withdraw { channel, slot });
    }

    /// Schedules `on_timer(id)` after `after` (subject to CPU availability).
    pub fn set_timer(&mut self, after: SimDuration, id: u64) {
        self.cmds.push(Command::SetTimer { after, id });
    }

    /// Charges virtual CPU time (crypto, parsing). Subsequent frame
    /// deliveries and timers on this node are delayed until the CPU frees
    /// up, and broadcasts issued by this callback enter the transmit queue
    /// only after the charged time has elapsed.
    pub fn charge_cpu(&mut self, cost: SimDuration) {
        self.charged += cost;
    }

    /// Starts listening on an additional channel (e.g. a cluster leader
    /// joining the global consensus overlay).
    pub fn join_channel(&mut self, channel: ChannelId) {
        self.cmds.push(Command::JoinChannel(channel));
    }

    /// Stops listening on a channel.
    pub fn leave_channel(&mut self, channel: ChannelId) {
        self.cmds.push(Command::LeaveChannel(channel));
    }

    /// Deterministic per-simulation randomness.
    pub fn rng(&mut self) -> &mut ChaCha12Rng {
        self.rng
    }
}

/// Protocol logic driven by the simulator. See the module docs.
pub trait NodeBehavior {
    /// Called once at simulation start.
    fn on_start(&mut self, ctx: &mut NodeCtx);

    /// Called for every frame that survives the channel, half-duplex, DMA
    /// and loss models.
    fn on_frame(&mut self, frame: &Frame, ctx: &mut NodeCtx);

    /// Called when a timer set via [`NodeCtx::set_timer`] fires.
    fn on_timer(&mut self, id: u64, ctx: &mut NodeCtx);
}

impl NodeBehavior for Box<dyn NodeBehavior> {
    fn on_start(&mut self, ctx: &mut NodeCtx) {
        (**self).on_start(ctx)
    }
    fn on_frame(&mut self, frame: &Frame, ctx: &mut NodeCtx) {
        (**self).on_frame(frame, ctx)
    }
    fn on_timer(&mut self, id: u64, ctx: &mut NodeCtx) {
        (**self).on_timer(id, ctx)
    }
}
