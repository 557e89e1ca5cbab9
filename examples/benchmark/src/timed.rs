//! `Timed<B>`: a `NodeBehavior` wrapper that times every callback into
//! the wrapped node and samples the frames it is handed.
//!
//! The wrapper forwards each callback unchanged, so a traced simulation
//! replays the untraced one event for event (the benchmark asserts that);
//! what it adds is one `Call` per callback, from which `spans` derives the
//! `node.callback` spans and the loop's self time, and a bounded sample of
//! received frames that `layers::net_account` replays through the codec.

use bytes::Bytes;
use std::time::Instant;
use wbft_consensus::multihop::ClusterNode;
use wbft_consensus::{Engine, ProtocolNode};
use wbft_wireless::{Frame, NodeBehavior, NodeCtx};

/// Which callback a [`Call`] timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    Start,
    Frame,
    Timer,
}

impl CallKind {
    pub fn label(self) -> &'static str {
        match self {
            CallKind::Start => "start",
            CallKind::Frame => "frame",
            CallKind::Timer => "timer",
        }
    }
}

/// One timed callback.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    /// Nanoseconds from the recorder's origin to callback entry.
    pub start_ns: u64,
    pub dur_ns: u64,
    pub kind: CallKind,
    /// Epoch the node was working on at entry (blocks decided so far).
    pub epoch: u32,
}

/// A received frame kept for codec replay.
#[derive(Clone, Debug)]
pub struct RecordedFrame {
    pub channel: u8,
    pub payload: Bytes,
    pub nominal_len: usize,
}

/// Received frames are kept in runs of `FRAME_BURST` consecutive ones, one
/// run in every `BURST_PERIOD`: consecutive, because a sender's combined
/// packets repeat the shares of its previous ones and the codec's decode
/// memo makes a repeat cheaper than a first sight — a replay of scattered
/// frames would price every element as new.
const FRAME_BURST: u64 = 128;
const BURST_PERIOD: u64 = 8;
/// Every this-many-th callback is also timed on the thread's CPU clock.
const CPU_SAMPLE_EVERY: usize = 64;

/// What one wrapped node recorded.
#[derive(Clone, Debug)]
pub struct Recorder {
    origin: Instant,
    pub calls: Vec<Call>,
    pub frames: Vec<RecordedFrame>,
    frame_cap: usize,
    frames_seen: u64,
    /// Wall and on-CPU nanoseconds of the sampled callbacks. On a box with
    /// more runnable threads than cores a callback's wall time includes
    /// the time it sat preempted; the ratio of these two corrects for it.
    pub sampled_wall_ns: u64,
    pub sampled_cpu_ns: u64,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin` (shared by every
    /// node of a run so their calls order on one axis), keeping at most
    /// `frame_cap` frames.
    pub fn new(origin: Instant, frame_cap: usize) -> Self {
        Recorder {
            origin,
            calls: Vec::new(),
            frames: Vec::new(),
            frame_cap,
            frames_seen: 0,
            sampled_wall_ns: 0,
            sampled_cpu_ns: 0,
        }
    }

    /// Frame callbacks seen (recorded or not).
    pub fn frames_seen(&self) -> u64 {
        self.frames_seen
    }
}

/// Nodes that can say which epoch they are on, for the span attribute.
pub trait EpochProbe {
    fn current_epoch(&self) -> u64;
}

impl<E: Engine> EpochProbe for ProtocolNode<E> {
    fn current_epoch(&self) -> u64 {
        self.blocks().len() as u64
    }
}

impl EpochProbe for ClusterNode {
    fn current_epoch(&self) -> u64 {
        self.decided_at.len() as u64
    }
}

/// The timing wrapper.
pub struct Timed<B> {
    inner: B,
    rec: Recorder,
}

impl<B> Timed<B> {
    pub fn new(inner: B, origin: Instant, frame_cap: usize) -> Self {
        Timed {
            inner,
            rec: Recorder::new(origin, frame_cap),
        }
    }

    pub fn inner(&self) -> &B {
        &self.inner
    }

    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }
}

impl<B: NodeBehavior + EpochProbe> Timed<B> {
    fn timed(&mut self, kind: CallKind, f: impl FnOnce(&mut B)) {
        let epoch = self.inner.current_epoch() as u32;
        let cpu_entry = self
            .rec
            .calls
            .len()
            .is_multiple_of(CPU_SAMPLE_EVERY)
            .then(crate::sys::thread_cpu_ns)
            .flatten();
        let entry = Instant::now();
        f(&mut self.inner);
        let dur_ns = entry.elapsed().as_nanos() as u64;
        if let Some(before) = cpu_entry {
            let after = crate::sys::thread_cpu_ns().unwrap_or(before);
            self.rec.sampled_wall_ns += dur_ns;
            self.rec.sampled_cpu_ns += after.saturating_sub(before);
        }
        let start_ns = entry.duration_since(self.rec.origin).as_nanos() as u64;
        self.rec.calls.push(Call {
            start_ns,
            dur_ns,
            kind,
            epoch,
        });
    }
}

impl<B: NodeBehavior + EpochProbe> NodeBehavior for Timed<B> {
    fn on_start(&mut self, ctx: &mut NodeCtx) {
        self.timed(CallKind::Start, |b| b.on_start(ctx));
    }

    fn on_frame(&mut self, frame: &Frame, ctx: &mut NodeCtx) {
        let in_burst = (self.rec.frames_seen / FRAME_BURST).is_multiple_of(BURST_PERIOD);
        if in_burst && self.rec.frames.len() < self.rec.frame_cap {
            self.rec.frames.push(RecordedFrame {
                channel: frame.channel.0,
                payload: frame.payload.clone(),
                nominal_len: frame.nominal_len,
            });
        }
        self.rec.frames_seen += 1;
        self.timed(CallKind::Frame, |b| b.on_frame(frame, ctx));
    }

    fn on_timer(&mut self, id: u64, ctx: &mut NodeCtx) {
        self.timed(CallKind::Timer, |b| b.on_timer(id, ctx));
    }
}
