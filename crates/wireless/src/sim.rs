//! The discrete-event simulator core.
//!
//! Executes [`NodeBehavior`]s over a shared-channel wireless medium with
//! CSMA/CA contention, half-duplex radios, collisions, stochastic loss,
//! adversarial delay, a DMA-buffer delivery model, and a serial CPU that
//! crypto operations charge virtual time to. Fully deterministic for a
//! given seed: the event queue is ordered by `(time, sequence)` and all
//! randomness flows from one ChaCha12 stream.

use crate::adversary::{AdversaryConfig, LossModel};
use crate::behavior::{Command, Frame, NodeBehavior, NodeCtx, Payload};
use crate::csma::CsmaParams;
use crate::dma::DmaParams;
use crate::metrics::Metrics;
use crate::radio::RadioParams;
use crate::sched::{Delivery, DeliveryScheduler, SchedStats};
use crate::time::{SimDuration, SimTime};
use crate::topology::{ChannelId, NodeId, Topology};
use bytes::Bytes;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Static configuration of a simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimConfig {
    /// Physical-layer parameters.
    pub radio: RadioParams,
    /// Medium-access parameters.
    pub csma: CsmaParams,
    /// DMA delivery model.
    pub dma: DmaParams,
    /// Stochastic loss model.
    pub loss: LossModel,
    /// Adversarial delivery scheduling.
    pub adversary: AdversaryConfig,
    /// RNG seed; identical seeds give identical runs.
    pub seed: u64,
}

#[derive(Debug)]
enum EventKind {
    Start(NodeId),
    Timer(NodeId, u64),
    TxAttempt(NodeId),
    TxStart(NodeId),
    TxEnd(u64),
    RxArrive(NodeId, Frame),
    RxFlush(NodeId),
    RxProcess(NodeId, Frame),
}

struct Event {
    at: SimTime,
    seq: u64,
    /// Incarnation of the event's node when it was scheduled; stale events
    /// from before a crash are dropped at dispatch. [`INC_ANY`] for events
    /// not bound to a node's lifetime (a transmission already in the air
    /// ends regardless of what its sender does next).
    inc: u32,
    kind: EventKind,
}

/// Incarnation wildcard: the event survives crashes of its node.
const INC_ANY: u32 = u32::MAX;

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TxState {
    Idle,
    Backoff,
    Deferring,
    Transmitting,
}

struct QueuedFrame {
    channel: ChannelId,
    /// Finished only when the frame leaves the queue ([`Simulator::tx_start`]):
    /// a version replaced or dropped while it waits is never finished.
    payload: Payload,
    nominal_len: usize,
    slot: Option<u64>,
}

struct NodeState {
    tx_state: TxState,
    tx_queue: std::collections::VecDeque<QueuedFrame>,
    /// End of this node's most recent (or current) transmission.
    last_tx_end: SimTime,
    /// Start of this node's current transmission, if transmitting.
    current_tx_start: Option<SimTime>,
    cpu_busy_until: SimTime,
    dma_buffered: Vec<Frame>,
    dma_buffered_bytes: usize,
}

impl NodeState {
    fn new() -> Self {
        NodeState {
            tx_state: TxState::Idle,
            tx_queue: std::collections::VecDeque::new(),
            last_tx_end: SimTime::ZERO,
            current_tx_start: None,
            cpu_busy_until: SimTime::ZERO,
            dma_buffered: Vec::new(),
            dma_buffered_bytes: 0,
        }
    }
}

#[derive(Clone, Debug)]
struct Transmission {
    seq: u64,
    sender: NodeId,
    channel: ChannelId,
    start: SimTime,
    end: SimTime,
    payload: Bytes,
    nominal_len: usize,
}

/// The simulator. Generic over the behavior type; heterogeneous deployments
/// (e.g. some nodes Byzantine) use an enum or `Box<dyn NodeBehavior>`.
pub struct Simulator<B: NodeBehavior> {
    cfg: SimConfig,
    topology: Topology,
    behaviors: Vec<Option<B>>,
    nodes: Vec<NodeState>,
    queue: BinaryHeap<Reverse<Event>>,
    /// All transmissions that may still overlap future receptions.
    recent_tx: Vec<Transmission>,
    /// Nodes deferring on each channel, waiting for it to go idle.
    waiting: Vec<(ChannelId, NodeId)>,
    rng: ChaCha12Rng,
    now: SimTime,
    seq: u64,
    metrics: Metrics,
    started: bool,
    /// Events dispatched so far (the fuzzer's liveness budget unit).
    events: u64,
    /// Per-node crash counter; bumped by [`Simulator::crash_node`] so every
    /// event scheduled for the previous incarnation dies on dispatch.
    incarnations: Vec<u32>,
    /// Nodes currently crashed (no behavior installed).
    down: Vec<bool>,
    /// Adversarial delivery scheduler, consulted per (tx, receiver) pair
    /// after the loss roll. Owns its RNG, so installing one leaves the
    /// simulation stream untouched.
    scheduler: Option<Box<dyn DeliveryScheduler>>,
    sched_stats: SchedStats,
    /// Scratch buffers recycled across events (hot-path: the event loop
    /// must not allocate per delivery).
    cmd_scratch: Vec<Command>,
    woken_scratch: Vec<NodeId>,
}

impl<B: NodeBehavior> Simulator<B> {
    /// Builds a simulator over `topology` with one behavior per node.
    ///
    /// # Panics
    ///
    /// Panics if `behaviors.len() != topology.len()`.
    pub fn new(cfg: SimConfig, topology: Topology, behaviors: Vec<B>) -> Self {
        assert_eq!(
            behaviors.len(),
            topology.len(),
            "one behavior per topology node required"
        );
        let n = behaviors.len();
        let rng = ChaCha12Rng::seed_from_u64(cfg.seed);
        Simulator {
            cfg,
            topology,
            behaviors: behaviors.into_iter().map(Some).collect(),
            nodes: (0..n).map(|_| NodeState::new()).collect(),
            queue: BinaryHeap::new(),
            recent_tx: Vec::new(),
            waiting: Vec::new(),
            rng,
            now: SimTime::ZERO,
            seq: 0,
            metrics: Metrics::new(n),
            started: false,
            events: 0,
            incarnations: vec![0; n],
            down: vec![false; n],
            scheduler: None,
            sched_stats: SchedStats::default(),
            cmd_scratch: Vec::new(),
            woken_scratch: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Measurement counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Events dispatched so far — the fuzzer's liveness-budget unit (a
    /// stalled run stops making progress in simulated time long before its
    /// deadline, but keeps dispatching retry events; counting events bounds
    /// both).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Installs an adversarial delivery scheduler (see [`crate::sched`]).
    /// Every delay it returns is clamped to its own
    /// [`DeliveryScheduler::budget`], so eventual delivery holds whatever
    /// the implementation does.
    pub fn set_scheduler(&mut self, scheduler: Box<dyn DeliveryScheduler>) {
        self.scheduler = Some(scheduler);
    }

    /// Counters about the installed scheduler's interventions (zeroes when
    /// no scheduler is installed).
    pub fn sched_stats(&self) -> SchedStats {
        self.sched_stats
    }

    /// The topology (channels may have changed at runtime).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Read access to a node's behavior (for extracting outputs).
    pub fn behavior(&self, node: NodeId) -> &B {
        self.behaviors[node.index()].as_ref().expect("behavior present between events")
    }

    /// Mutable access to a node's behavior.
    pub fn behavior_mut(&mut self, node: NodeId) -> &mut B {
        self.behaviors[node.index()].as_mut().expect("behavior present between events")
    }

    /// Iterates all *live* behaviors (crashed nodes are skipped until
    /// restarted).
    pub fn behaviors(&self) -> impl Iterator<Item = (NodeId, &B)> {
        self.behaviors
            .iter()
            .enumerate()
            .filter_map(|(i, b)| Some((NodeId(i as u16), b.as_ref()?)))
    }

    /// Read access to a node's behavior, or `None` while it is crashed.
    pub fn try_behavior(&self, node: NodeId) -> Option<&B> {
        self.behaviors[node.index()].as_ref()
    }

    /// `true` while `node` is crashed (between [`Simulator::crash_node`]
    /// and [`Simulator::restart_node`]).
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down[node.index()]
    }

    /// Crash-faults `node` right now: its behavior (all protocol state) is
    /// dropped, its radio goes dark mid-transmission (an in-flight frame is
    /// cut — receivers never see it), and every event scheduled for it —
    /// timers, queued deliveries, backoffs — dies with its incarnation. The
    /// durable state a real crash leaves behind lives *outside* the
    /// behavior (e.g. a shared-memory journal store).
    ///
    /// # Panics
    ///
    /// Panics if `node` is already down.
    pub fn crash_node(&mut self, node: NodeId) {
        let i = node.index();
        assert!(!self.down[i], "node {} is already down", node.index());
        self.down[i] = true;
        self.incarnations[i] += 1;
        self.behaviors[i] = None;
        self.nodes[i] = NodeState::new();
        self.waiting.retain(|&(_, n)| n != node);
        // The dying radio's carrier vanishes: in-flight transmissions are
        // cut and never delivered (their TxEnd finds nothing to deliver);
        // completed ones still matter for ongoing collision checks.
        let now = self.now;
        self.recent_tx.retain(|t| t.sender != node || t.end <= now);
    }

    /// Restarts a crashed `node` with a fresh behavior (typically rebuilt
    /// from recovered durable state): it gets a clean radio/CPU state and an
    /// `on_start` at the current simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not down.
    pub fn restart_node(&mut self, node: NodeId, behavior: B) {
        let i = node.index();
        assert!(self.down[i], "node {} is not down", node.index());
        self.down[i] = false;
        self.behaviors[i] = Some(behavior);
        self.push(self.now, EventKind::Start(node));
    }

    fn push(&mut self, at: SimTime, kind: EventKind) {
        let inc = match &kind {
            EventKind::Start(n)
            | EventKind::Timer(n, _)
            | EventKind::TxAttempt(n)
            | EventKind::TxStart(n)
            | EventKind::RxArrive(n, _)
            | EventKind::RxFlush(n)
            | EventKind::RxProcess(n, _) => self.incarnations[n.index()],
            // A transmission in the air outlives its sender's crash; the
            // delivery logic consults `recent_tx`, not the sender.
            EventKind::TxEnd(_) => INC_ANY,
        };
        self.seq += 1;
        self.queue.push(Reverse(Event { at, seq: self.seq, inc, kind }));
    }

    fn start_if_needed(&mut self) {
        if !self.started {
            self.started = true;
            for i in 0..self.behaviors.len() {
                self.push(SimTime::ZERO, EventKind::Start(NodeId(i as u16)));
            }
        }
    }

    /// Runs until the queue drains or `deadline` passes, whichever first.
    /// Returns the time reached.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.start_if_needed();
        while let Some(Reverse(ev)) = self.queue.peek() {
            if ev.at > deadline {
                self.now = deadline;
                return self.now;
            }
            let Reverse(ev) = self.queue.pop().expect("peeked");
            self.now = ev.at;
            self.dispatch(ev.kind, ev.inc);
        }
        self.now
    }

    /// Runs until `pred` holds over the behaviors (checked after every
    /// event) or `deadline` passes. Returns true iff the predicate held.
    pub fn run_until_pred(
        &mut self,
        deadline: SimTime,
        mut pred: impl FnMut(&Self) -> bool,
    ) -> bool {
        self.start_if_needed();
        if pred(self) {
            return true;
        }
        while let Some(Reverse(ev)) = self.queue.peek() {
            if ev.at > deadline {
                self.now = deadline;
                return false;
            }
            let Reverse(ev) = self.queue.pop().expect("peeked");
            self.now = ev.at;
            self.dispatch(ev.kind, ev.inc);
            if pred(self) {
                return true;
            }
        }
        false
    }

    fn dispatch(&mut self, kind: EventKind, inc: u32) {
        // Events addressed to a crashed node — or to a previous incarnation
        // of a restarted one — are dropped unprocessed: a dead node has no
        // timers, no CPU, and no radio.
        let node = match &kind {
            EventKind::Start(n)
            | EventKind::Timer(n, _)
            | EventKind::TxAttempt(n)
            | EventKind::TxStart(n)
            | EventKind::RxArrive(n, _)
            | EventKind::RxFlush(n)
            | EventKind::RxProcess(n, _) => Some(*n),
            EventKind::TxEnd(_) => None,
        };
        if let Some(n) = node {
            let i = n.index();
            if self.down[i] || (inc != INC_ANY && inc != self.incarnations[i]) {
                return;
            }
        }
        self.events += 1;
        match kind {
            EventKind::Start(node) => self.call_behavior(node, |b, ctx| b.on_start(ctx)),
            EventKind::Timer(node, id) => {
                // Timers respect CPU availability, like frame processing.
                let busy = self.nodes[node.index()].cpu_busy_until;
                if busy > self.now {
                    self.push(busy, EventKind::Timer(node, id));
                } else {
                    self.call_behavior(node, |b, ctx| b.on_timer(id, ctx));
                }
            }
            EventKind::TxAttempt(node) => self.tx_attempt(node),
            EventKind::TxStart(node) => self.tx_start(node),
            EventKind::TxEnd(seq) => self.tx_end(seq),
            EventKind::RxArrive(node, frame) => self.rx_arrive(node, frame),
            EventKind::RxFlush(node) => self.rx_flush(node),
            EventKind::RxProcess(node, frame) => {
                let busy = self.nodes[node.index()].cpu_busy_until;
                if busy > self.now {
                    self.push(busy, EventKind::RxProcess(node, frame));
                } else {
                    self.metrics.node_mut(node).frames_received += 1;
                    self.call_behavior(node, |b, ctx| b.on_frame(&frame, ctx));
                }
            }
        }
    }

    /// Runs one behavior callback and applies its commands.
    fn call_behavior(&mut self, node: NodeId, f: impl FnOnce(&mut B, &mut NodeCtx)) {
        let mut behavior = self.behaviors[node.index()].take().expect("behavior present");
        // Command sink recycled across calls: callbacks run strictly
        // sequentially (commands apply after the callback returns and never
        // re-enter one), so one scratch vector serves every event.
        let mut ctx = NodeCtx {
            now: self.now,
            node,
            rng: &mut self.rng,
            cmds: std::mem::take(&mut self.cmd_scratch),
            charged: SimDuration::ZERO,
        };
        f(&mut behavior, &mut ctx);
        let NodeCtx { cmds: mut cmd_sink, charged, .. } = ctx;
        self.behaviors[node.index()] = Some(behavior);

        // Charge CPU: the node is busy until `now + charged`.
        let ready_at = if charged > SimDuration::ZERO {
            self.metrics.node_mut(node).cpu_time += charged;
            let until = self.now + charged;
            self.nodes[node.index()].cpu_busy_until = until;
            until
        } else {
            self.now
        };

        for cmd in cmd_sink.drain(..) {
            match cmd {
                Command::Broadcast { channel, payload, nominal_len, slot } => {
                    let queue = &mut self.nodes[node.index()].tx_queue;
                    let queued = queue
                        .iter_mut()
                        .find(|q| slot.is_some() && q.slot == slot && q.channel == channel);
                    match queued {
                        Some(q) => {
                            q.payload = payload;
                            q.nominal_len = nominal_len;
                        }
                        None => {
                            queue.push_back(QueuedFrame { channel, payload, nominal_len, slot })
                        }
                    }
                    // Frames leave the CPU only after the charged crypto work.
                    self.push(ready_at, EventKind::TxAttempt(node));
                }
                Command::Withdraw { channel, slot } => {
                    // Frames leave the queue when they start to air, so
                    // whatever is still in it has not.
                    let queue = &mut self.nodes[node.index()].tx_queue;
                    let queued =
                        queue.iter().position(|q| q.slot == Some(slot) && q.channel == channel);
                    if let Some(i) = queued {
                        queue.remove(i);
                        self.metrics.withdrawn += 1;
                    }
                }
                Command::SetTimer { after, id } => {
                    self.push(self.now + after, EventKind::Timer(node, id));
                }
                Command::JoinChannel(ch) => self.topology.join_channel(node, ch),
                Command::LeaveChannel(ch) => self.topology.leave_channel(node, ch),
            }
        }
        self.cmd_scratch = cmd_sink;
    }

    /// `true` iff `listener` senses energy on `channel` right now. A
    /// transmission that began at this very instant is *not* sensed —
    /// carrier sense cannot see a signal with zero propagation time, which
    /// is exactly how two nodes drawing the same backoff slot collide.
    fn channel_busy_for(&self, listener: NodeId, channel: ChannelId) -> bool {
        self.recent_tx.iter().any(|t| {
            t.channel == channel
                && t.start < self.now
                && t.end > self.now
                && (t.sender == listener || self.topology.reaches(t.sender, listener, channel))
        })
    }

    fn tx_attempt(&mut self, node: NodeId) {
        let st = &self.nodes[node.index()];
        if st.tx_state != TxState::Idle || st.tx_queue.is_empty() {
            return;
        }
        let channel = st.tx_queue.front().expect("non-empty").channel;
        if self.channel_busy_for(node, channel) {
            self.nodes[node.index()].tx_state = TxState::Deferring;
            self.waiting.push((channel, node));
        } else {
            self.nodes[node.index()].tx_state = TxState::Backoff;
            let backoff = self.cfg.csma.draw_backoff(&mut self.rng);
            self.push(self.now + backoff, EventKind::TxStart(node));
        }
    }

    fn tx_start(&mut self, node: NodeId) {
        if self.nodes[node.index()].tx_state != TxState::Backoff {
            return;
        }
        let channel = match self.nodes[node.index()].tx_queue.front() {
            Some(f) => f.channel,
            None => {
                self.nodes[node.index()].tx_state = TxState::Idle;
                return;
            }
        };
        if self.channel_busy_for(node, channel) {
            self.nodes[node.index()].tx_state = TxState::Deferring;
            self.waiting.push((channel, node));
            return;
        }
        let frame = self.nodes[node.index()].tx_queue.pop_front().expect("non-empty");
        let stretch = self.topology.routing_for(frame.channel).airtime_stretch;
        let max = self.cfg.radio.max_frame_bytes;
        self.metrics.oversize += u64::from(frame.nominal_len > max);
        let base = self.cfg.radio.airtime(frame.nominal_len.min(max));
        let airtime = SimDuration::from_micros((base.as_micros() as f64 * stretch) as u64);
        let end = self.now + airtime;
        self.seq += 1;
        let tx_seq = self.seq;
        self.recent_tx.push(Transmission {
            seq: tx_seq,
            sender: node,
            channel: frame.channel,
            start: self.now,
            end,
            payload: frame.payload.finish(),
            nominal_len: frame.nominal_len,
        });
        let st = &mut self.nodes[node.index()];
        st.tx_state = TxState::Transmitting;
        st.current_tx_start = Some(self.now);
        st.last_tx_end = end;
        let m = self.metrics.node_mut(node);
        m.channel_accesses += 1;
        m.bytes_sent += frame.nominal_len as u64;
        m.airtime += airtime;
        self.push(end, EventKind::TxEnd(tx_seq));
    }

    fn tx_end(&mut self, tx_seq: u64) {
        let tx = match self.recent_tx.iter().find(|t| t.seq == tx_seq) {
            Some(t) => t.clone(),
            None => return,
        };
        // Sender becomes idle and re-contends for its next frame.
        {
            let st = &mut self.nodes[tx.sender.index()];
            st.tx_state = TxState::Idle;
            st.current_tx_start = None;
            if !st.tx_queue.is_empty() {
                self.push(self.now, EventKind::TxAttempt(tx.sender));
            }
        }

        // Receivers.
        let n = self.nodes.len();
        let mut collided_any = false;
        for r in 0..n {
            let r_id = NodeId(r as u16);
            if r_id == tx.sender || !self.topology.reaches(tx.sender, r_id, tx.channel) {
                continue;
            }
            // Half-duplex: receiver transmitted during our airtime?
            let rst = &self.nodes[r];
            let was_transmitting = match rst.current_tx_start {
                Some(start) => start < tx.end, // still transmitting now
                None => rst.last_tx_end > tx.start,
            };
            if was_transmitting {
                self.metrics.node_mut(r_id).lost_half_duplex += 1;
                continue;
            }
            // Collision: another audible transmission overlapped ours.
            let collided = self.recent_tx.iter().any(|t| {
                t.seq != tx.seq
                    && t.channel == tx.channel
                    && t.start < tx.end
                    && t.end > tx.start
                    && t.sender != r_id
                    && self.topology.reaches(t.sender, r_id, tx.channel)
            });
            if collided {
                collided_any = true;
                self.metrics.node_mut(r_id).lost_collision += 1;
                continue;
            }
            // Stochastic loss.
            if self.cfg.loss.is_lost(tx.sender, r_id, &mut self.rng) {
                self.metrics.node_mut(r_id).lost_noise += 1;
                continue;
            }
            // Adversarial + scheduled + routing latency, then DMA arrival.
            let extra = self.cfg.adversary.extra_delay(tx.sender, r_id, &mut self.rng);
            let sched = match self.scheduler.as_mut() {
                Some(s) => {
                    let d = s
                        .delay(&Delivery {
                            src: tx.sender,
                            dst: r_id,
                            channel: tx.channel,
                            payload: &tx.payload,
                            nominal_len: tx.nominal_len,
                            now: self.now,
                        })
                        .min(s.budget());
                    self.sched_stats.considered += 1;
                    if d > SimDuration::ZERO {
                        self.sched_stats.delayed += 1;
                        self.sched_stats.total_extra_us += d.as_micros();
                    }
                    d
                }
                None => SimDuration::ZERO,
            };
            let routed = self.topology.routing_for(tx.channel).extra_latency();
            let frame = Frame {
                src: tx.sender,
                channel: tx.channel,
                payload: tx.payload.clone(),
                nominal_len: tx.nominal_len,
            };
            self.push(self.now + extra + sched + routed, EventKind::RxArrive(r_id, frame));
        }
        if collided_any {
            self.metrics.collisions += 1;
        }

        // Wake deferring nodes on this channel (scratch vector recycled —
        // this runs once per transmission).
        let mut woken = std::mem::take(&mut self.woken_scratch);
        self.waiting.retain(|(ch, node)| {
            if *ch == tx.channel {
                woken.push(*node);
                false
            } else {
                true
            }
        });
        for node in woken.drain(..) {
            self.nodes[node.index()].tx_state = TxState::Idle;
            self.push(self.now, EventKind::TxAttempt(node));
        }
        self.woken_scratch = woken;

        // Prune history exactly: an ended transmission only matters for the
        // collision checks of transmissions still in the air, which all
        // started at or after the earliest in-flight start — so anything
        // ending at or before that start can never overlap a future check,
        // and with an idle medium the history empties outright. (Carrier
        // sense only looks at in-flight transmissions, and future
        // transmissions start after `now`.) The just-ended transmission is
        // always removed, matching the long-standing tie-break: of two
        // frames ending at the same instant, the second's collision check
        // no longer sees the first. This keeps the linear scans in
        // `channel_busy_for`/`tx_end` short on busy grids without changing
        // any delivery.
        let min_active_start = self.nodes.iter().filter_map(|st| st.current_tx_start).min();
        let now = self.now;
        self.recent_tx.retain(|t| {
            t.seq != tx_seq
                && (t.end > now || min_active_start.is_some_and(|s| t.end > s))
        });
    }

    fn rx_arrive(&mut self, node: NodeId, frame: Frame) {
        let (delay, flush) =
            self.cfg.dma.arrival(frame.nominal_len, self.nodes[node.index()].dma_buffered_bytes);
        if flush {
            let mut pending = std::mem::take(&mut self.nodes[node.index()].dma_buffered);
            self.nodes[node.index()].dma_buffered_bytes = 0;
            pending.push(frame);
            for f in pending.drain(..) {
                self.push(self.now + delay, EventKind::RxProcess(node, f));
            }
            self.nodes[node.index()].dma_buffered = pending;
        } else {
            self.nodes[node.index()].dma_buffered_bytes += frame.nominal_len;
            self.nodes[node.index()].dma_buffered.push(frame);
            self.push(self.now + delay, EventKind::RxFlush(node));
        }
    }

    fn rx_flush(&mut self, node: NodeId) {
        let mut pending = std::mem::take(&mut self.nodes[node.index()].dma_buffered);
        self.nodes[node.index()].dma_buffered_bytes = 0;
        let interrupt = SimDuration::from_micros(self.cfg.dma.interrupt_us);
        for f in pending.drain(..) {
            self.push(self.now + interrupt, EventKind::RxProcess(node, f));
        }
        self.nodes[node.index()].dma_buffered = pending;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{SchedConfig, SchedPolicy};
    use std::collections::VecDeque;

    /// Test behavior: sends `to_send` frames at start; records receptions.
    struct Chatter {
        to_send: usize,
        payload_len: usize,
        received: Vec<(NodeId, usize)>,
        timer_log: Vec<u64>,
    }

    impl Chatter {
        fn new(to_send: usize, payload_len: usize) -> Self {
            Chatter { to_send, payload_len, received: Vec::new(), timer_log: Vec::new() }
        }
    }

    impl NodeBehavior for Chatter {
        fn on_start(&mut self, ctx: &mut NodeCtx) {
            for _ in 0..self.to_send {
                ctx.broadcast(
                    ChannelId(0),
                    Bytes::from(vec![ctx.node_id().0 as u8; self.payload_len]),
                    self.payload_len,
                );
            }
        }
        fn on_frame(&mut self, frame: &Frame, _ctx: &mut NodeCtx) {
            self.received.push((frame.src, frame.payload.len()));
        }
        fn on_timer(&mut self, id: u64, _ctx: &mut NodeCtx) {
            self.timer_log.push(id);
        }
    }

    fn cfg(seed: u64) -> SimConfig {
        SimConfig { seed, ..SimConfig::default() }
    }

    #[test]
    fn single_frame_reaches_all_peers() {
        let topo = Topology::single_hop(4);
        let behaviors = vec![
            Chatter::new(1, 50),
            Chatter::new(0, 50),
            Chatter::new(0, 50),
            Chatter::new(0, 50),
        ];
        let mut sim = Simulator::new(cfg(1), topo, behaviors);
        sim.run_until(SimTime::from_micros(10_000_000));
        for r in 1..4u16 {
            assert_eq!(
                sim.behavior(NodeId(r)).received,
                vec![(NodeId(0), 50)],
                "receiver {r}"
            );
        }
        assert!(sim.behavior(NodeId(0)).received.is_empty(), "no self-reception");
        assert_eq!(sim.metrics().node(NodeId(0)).channel_accesses, 1);
    }

    #[test]
    fn all_nodes_sending_eventually_all_deliver() {
        let topo = Topology::single_hop(4);
        let behaviors: Vec<_> = (0..4).map(|_| Chatter::new(3, 100)).collect();
        let mut sim = Simulator::new(cfg(2), topo, behaviors);
        sim.run_until(SimTime::from_micros(60_000_000));
        // CSMA should avoid most collisions; each node receives most of the
        // 9 frames from its 3 peers (collisions may eat a few).
        for i in 0..4u16 {
            let got = sim.behavior(NodeId(i)).received.len();
            assert!(got >= 6, "node {i} received only {got}/9");
        }
    }

    #[test]
    fn identical_seeds_give_identical_traces() {
        let run = |seed| {
            let topo = Topology::single_hop(4);
            let behaviors: Vec<_> = (0..4).map(|_| Chatter::new(2, 80)).collect();
            let mut sim = Simulator::new(cfg(seed), topo, behaviors);
            sim.run_until(SimTime::from_micros(30_000_000));
            let mut log = Vec::new();
            for i in 0..4u16 {
                log.push(sim.behavior(NodeId(i)).received.clone());
            }
            (log, sim.metrics().collisions, sim.metrics().total_channel_accesses())
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let run = |seed| {
            let topo = Topology::single_hop(4);
            let behaviors: Vec<_> = (0..4).map(|_| Chatter::new(2, 80)).collect();
            let mut sim = Simulator::new(cfg(seed), topo, behaviors);
            sim.run_until(SimTime::from_micros(30_000_000));
            sim.metrics().iter().map(|(_, m)| m.airtime.as_micros()).sum::<u64>()
        };
        // Airtime totals are equal but schedules differ; compare finer: use
        // reception orders via metrics of node 0 frames_received over time is
        // not exposed — use collision counts as a weak proxy plus queue state.
        // At minimum the runs must not panic and must both complete.
        let _ = (run(1), run(2));
    }

    #[test]
    fn loss_model_drops_frames() {
        let topo = Topology::single_hop(2);
        let mut c = cfg(3);
        c.loss = LossModel::Uniform { p: 1.0 };
        let behaviors = vec![Chatter::new(5, 50), Chatter::new(0, 50)];
        let mut sim = Simulator::new(c, topo, behaviors);
        sim.run_until(SimTime::from_micros(30_000_000));
        assert!(sim.behavior(NodeId(1)).received.is_empty());
        assert_eq!(sim.metrics().node(NodeId(1)).lost_noise, 5);
    }

    #[test]
    fn scheduler_holds_back_victim_deliveries() {
        let budget = SimDuration::from_secs(5);
        let build = || {
            let topo = Topology::single_hop(2);
            let behaviors = vec![Chatter::new(1, 50), Chatter::new(0, 50)];
            Simulator::new(cfg(6), topo, behaviors)
        };
        let mut sim = build();
        sim.set_scheduler(
            SchedConfig {
                seed: 11,
                budget,
                policy: SchedPolicy::Victim { victims: vec![NodeId(1)] },
            }
            .build_generic()
            .expect("generic policy"),
        );
        // Airtime is well under a second; at 2 s an unscheduled run has
        // delivered (checked below), a starved victim has not.
        sim.run_until(SimTime::from_micros(2_000_000));
        assert!(sim.behavior(NodeId(1)).received.is_empty(), "victim starved early");
        sim.run_until(SimTime::from_micros(20_000_000));
        assert_eq!(sim.behavior(NodeId(1)).received, vec![(NodeId(0), 50)]);
        let stats = sim.sched_stats();
        assert_eq!(stats.considered, 1);
        assert_eq!(stats.delayed, 1);
        assert_eq!(stats.total_extra_us, budget.as_micros());

        let mut plain = build();
        plain.run_until(SimTime::from_micros(2_000_000));
        assert_eq!(plain.behavior(NodeId(1)).received, vec![(NodeId(0), 50)]);
    }

    #[test]
    fn inert_scheduler_leaves_the_run_untouched() {
        // The scheduler owns its RNG, so installing one that never delays
        // must reproduce the unscheduled run exactly.
        let run = |sched: bool| {
            let topo = Topology::single_hop(4);
            let behaviors: Vec<_> = (0..4).map(|_| Chatter::new(2, 80)).collect();
            let mut sim = Simulator::new(cfg(7), topo, behaviors);
            if sched {
                sim.set_scheduler(
                    SchedConfig {
                        seed: 99,
                        budget: SimDuration::from_secs(1),
                        policy: SchedPolicy::Reorder { p: 0.0 },
                    }
                    .build_generic()
                    .expect("generic policy"),
                );
            }
            sim.run_until(SimTime::from_micros(30_000_000));
            let log: Vec<_> =
                (0..4u16).map(|i| sim.behavior(NodeId(i)).received.clone()).collect();
            (log, sim.metrics().collisions)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl NodeBehavior for TimerNode {
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                ctx.set_timer(SimDuration::from_millis(30), 3);
                ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(20), 2);
            }
            fn on_frame(&mut self, _f: &Frame, _ctx: &mut NodeCtx) {}
            fn on_timer(&mut self, id: u64, _ctx: &mut NodeCtx) {
                self.fired.push(id);
            }
        }
        let topo = Topology::single_hop(1);
        let mut sim = Simulator::new(cfg(4), topo, vec![TimerNode { fired: Vec::new() }]);
        sim.run_until(SimTime::from_micros(1_000_000));
        assert_eq!(sim.behavior(NodeId(0)).fired, vec![1, 2, 3]);
    }

    #[test]
    fn cpu_charge_delays_subsequent_processing() {
        // Node 1 charges 1 s of CPU on its first frame; the second frame's
        // processing must be delayed past that.
        struct Sluggish {
            seen_at: Vec<SimTime>,
        }
        impl NodeBehavior for Sluggish {
            fn on_start(&mut self, _ctx: &mut NodeCtx) {}
            fn on_frame(&mut self, _f: &Frame, ctx: &mut NodeCtx) {
                self.seen_at.push(ctx.now());
                ctx.charge_cpu(SimDuration::from_secs(1));
            }
            fn on_timer(&mut self, _id: u64, _ctx: &mut NodeCtx) {}
        }
        struct Sender;
        impl NodeBehavior for Sender {
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                ctx.broadcast(ChannelId(0), Bytes::from_static(&[0; 20]), 20);
                ctx.broadcast(ChannelId(0), Bytes::from_static(&[1; 20]), 20);
            }
            fn on_frame(&mut self, _f: &Frame, _ctx: &mut NodeCtx) {}
            fn on_timer(&mut self, _id: u64, _ctx: &mut NodeCtx) {}
        }
        enum Either {
            S(Sender),
            R(Sluggish),
        }
        impl NodeBehavior for Either {
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                match self {
                    Either::S(s) => s.on_start(ctx),
                    Either::R(r) => r.on_start(ctx),
                }
            }
            fn on_frame(&mut self, f: &Frame, ctx: &mut NodeCtx) {
                match self {
                    Either::S(s) => s.on_frame(f, ctx),
                    Either::R(r) => r.on_frame(f, ctx),
                }
            }
            fn on_timer(&mut self, id: u64, ctx: &mut NodeCtx) {
                match self {
                    Either::S(s) => s.on_timer(id, ctx),
                    Either::R(r) => r.on_timer(id, ctx),
                }
            }
        }
        let topo = Topology::single_hop(2);
        let behaviors = vec![Either::S(Sender), Either::R(Sluggish { seen_at: Vec::new() })];
        let mut sim = Simulator::new(cfg(5), topo, behaviors);
        sim.run_until(SimTime::from_micros(20_000_000));
        let seen = match sim.behavior(NodeId(1)) {
            Either::R(r) => r.seen_at.clone(),
            _ => unreachable!(),
        };
        assert_eq!(seen.len(), 2);
        let gap = seen[1].saturating_since(seen[0]);
        assert!(gap >= SimDuration::from_secs(1), "second frame at {} after {}", seen[1], seen[0]);
        assert!(sim.metrics().node(NodeId(1)).cpu_time >= SimDuration::from_secs(2));
    }

    #[test]
    fn channel_isolation_between_clusters() {
        let topo = Topology::clustered(2, 2);
        struct ClusterChatter {
            received: Vec<NodeId>,
            channel: ChannelId,
        }
        impl NodeBehavior for ClusterChatter {
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                ctx.broadcast(self.channel, Bytes::from_static(&[9; 10]), 10);
            }
            fn on_frame(&mut self, f: &Frame, _ctx: &mut NodeCtx) {
                self.received.push(f.src);
            }
            fn on_timer(&mut self, _id: u64, _ctx: &mut NodeCtx) {}
        }
        let behaviors: Vec<_> = (0..4)
            .map(|i| ClusterChatter {
                received: Vec::new(),
                channel: ChannelId(if i < 2 { 1 } else { 2 }),
            })
            .collect();
        let mut sim = Simulator::new(cfg(6), topo, behaviors);
        sim.run_until(SimTime::from_micros(10_000_000));
        assert_eq!(sim.behavior(NodeId(0)).received, vec![NodeId(1)]);
        assert_eq!(sim.behavior(NodeId(1)).received, vec![NodeId(0)]);
        assert_eq!(sim.behavior(NodeId(2)).received, vec![NodeId(3)]);
        assert_eq!(sim.behavior(NodeId(3)).received, vec![NodeId(2)]);
    }

    #[test]
    fn slotted_broadcasts_supersede_queued_frames() {
        // Three slotted sends while the channel serializes: later versions
        // replace queued ones, so fewer frames hit the air than were sent.
        struct Slotter;
        impl NodeBehavior for Slotter {
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                // First frame transmits; v2 queues; v3 replaces v2.
                ctx.broadcast_slot(ChannelId(0), Bytes::from_static(&[1; 40]), 40, 9);
                ctx.broadcast_slot(ChannelId(0), Bytes::from_static(&[2; 40]), 40, 9);
                ctx.broadcast_slot(ChannelId(0), Bytes::from_static(&[3; 40]), 40, 9);
            }
            fn on_frame(&mut self, _f: &Frame, _ctx: &mut NodeCtx) {}
            fn on_timer(&mut self, _id: u64, _ctx: &mut NodeCtx) {}
        }
        struct Listener {
            got: Vec<u8>,
        }
        impl NodeBehavior for Listener {
            fn on_start(&mut self, _ctx: &mut NodeCtx) {}
            fn on_frame(&mut self, f: &Frame, _ctx: &mut NodeCtx) {
                self.got.push(f.payload[0]);
            }
            fn on_timer(&mut self, _id: u64, _ctx: &mut NodeCtx) {}
        }
        enum E {
            S(Slotter),
            L(Listener),
        }
        impl NodeBehavior for E {
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                match self {
                    E::S(s) => s.on_start(ctx),
                    E::L(l) => l.on_start(ctx),
                }
            }
            fn on_frame(&mut self, f: &Frame, ctx: &mut NodeCtx) {
                match self {
                    E::S(s) => s.on_frame(f, ctx),
                    E::L(l) => l.on_frame(f, ctx),
                }
            }
            fn on_timer(&mut self, id: u64, ctx: &mut NodeCtx) {
                match self {
                    E::S(s) => s.on_timer(id, ctx),
                    E::L(l) => l.on_timer(id, ctx),
                }
            }
        }
        let topo = Topology::single_hop(2);
        let behaviors = vec![E::S(Slotter), E::L(Listener { got: Vec::new() })];
        let mut sim = Simulator::new(cfg(11), topo, behaviors);
        sim.run_until(SimTime::from_micros(30_000_000));
        let got = match sim.behavior(NodeId(1)) {
            E::L(l) => l.got.clone(),
            _ => unreachable!(),
        };
        // Queue at enqueue time holds all three (node hasn't begun
        // transmitting yet), so v2 then v3 replace within the queue → only
        // the latest version airs once.
        assert_eq!(got, vec![3], "queued versions must coalesce, got {got:?}");
        assert_eq!(sim.metrics().node(NodeId(0)).channel_accesses, 1);
    }

    #[test]
    fn a_withdrawn_frame_never_airs_and_nothing_else_is_touched() {
        /// The sender queues frames 1 and 2 on channel 0 and frame 3 on
        /// channel 1, frames 2 and 3 in slot 2, then withdraws slot 2 on
        /// channel 0 and a slot it never used. Once frame 1 is on the air
        /// (backoff ≤ 26.5 ms, airtime ≈ 70 ms) it withdraws frame 1's slot.
        /// Both nodes are on both channels.
        struct Node {
            sender: bool,
            heard: Vec<(ChannelId, u8)>,
        }
        impl NodeBehavior for Node {
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                ctx.join_channel(ChannelId(1));
                if !self.sender {
                    return;
                }
                let (ch0, ch1) = (ChannelId(0), ChannelId(1));
                ctx.broadcast_slot(ch0, Bytes::from_static(&[1; 40]), 40, 1);
                ctx.broadcast_slot(ch0, Bytes::from_static(&[2; 40]), 40, 2);
                ctx.broadcast_slot(ch1, Bytes::from_static(&[3; 40]), 40, 2);
                ctx.withdraw(ch0, 2);
                ctx.withdraw(ch0, 7);
                ctx.set_timer(SimDuration::from_millis(30), 0);
            }
            fn on_frame(&mut self, f: &Frame, _ctx: &mut NodeCtx) {
                self.heard.push((f.channel, f.payload[0]));
            }
            fn on_timer(&mut self, _id: u64, ctx: &mut NodeCtx) {
                ctx.withdraw(ChannelId(0), 1);
            }
        }
        let nodes = vec![
            Node { sender: true, heard: Vec::new() },
            Node { sender: false, heard: Vec::new() },
        ];
        let mut sim = Simulator::new(cfg(11), Topology::single_hop(2), nodes);
        sim.run_until(SimTime::from_micros(30_000_000));
        let heard = &sim.behavior(NodeId(1)).heard;
        assert_eq!(heard, &[(ChannelId(0), 1), (ChannelId(1), 3)], "frame 2 must not air");
        assert_eq!(sim.metrics().node(NodeId(0)).channel_accesses, 2);
        assert_eq!(sim.metrics().withdrawn, 1, "only the queued frame counts");
    }

    #[test]
    fn a_deferred_payload_is_finished_once_when_it_leaves_the_queue() {
        use crate::behavior::Finish;
        use bytes::BytesMut;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        /// Counts its calls and marks the bytes it finished.
        #[derive(Debug, Default)]
        struct Stamp(AtomicUsize);
        impl Finish for Stamp {
            fn finish(&self, mut unfinished: BytesMut) -> Bytes {
                self.0.fetch_add(1, Ordering::Relaxed);
                unfinished.extend_from_slice(b"!");
                unfinished.freeze()
            }
        }
        /// The sender queues three versions of one slotted packet at start,
        /// as a node whose state changed three times before it won the
        /// channel; the listener keeps what it hears.
        struct Node {
            sends: Option<Arc<Stamp>>,
            heard: Vec<Bytes>,
        }
        impl NodeBehavior for Node {
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                let Some(stamp) = &self.sends else { return };
                for version in 1..=3u8 {
                    let mut unfinished = BytesMut::new();
                    unfinished.extend_from_slice(&[version; 40]);
                    let finisher: Arc<dyn Finish> = stamp.clone();
                    let payload = Payload::Deferred { unfinished, finisher };
                    ctx.transmit(ChannelId(0), payload, 41, Some(9));
                }
            }
            fn on_frame(&mut self, frame: &Frame, _ctx: &mut NodeCtx) {
                self.heard.push(frame.payload.clone());
            }
            fn on_timer(&mut self, _id: u64, _ctx: &mut NodeCtx) {}
        }
        let build = || {
            let stamp = Arc::new(Stamp::default());
            let behaviors = vec![
                Node { sends: Some(stamp.clone()), heard: Vec::new() },
                Node { sends: None, heard: Vec::new() },
            ];
            (Simulator::new(cfg(11), Topology::single_hop(2), behaviors), stamp)
        };
        let finished = |stamp: &Stamp| stamp.0.load(Ordering::Relaxed);

        // Queued but not yet on the air (the backoff has not elapsed):
        // nothing is finished. By the end of the run the one version that
        // aired was finished, once, and is what the listener heard.
        let (mut sim, stamp) = build();
        sim.run_until(SimTime::ZERO);
        assert_eq!(sim.metrics().node(NodeId(0)).channel_accesses, 0);
        assert_eq!(finished(&stamp), 0, "finished before leaving the queue");
        sim.run_until(SimTime::from_micros(30_000_000));
        assert_eq!(sim.metrics().node(NodeId(0)).channel_accesses, 1);
        assert_eq!(finished(&stamp), 1, "superseded versions must not be finished");
        let mut v3 = vec![3u8; 40];
        v3.push(b'!');
        assert_eq!(sim.behavior(NodeId(1)).heard, vec![Bytes::from(v3)]);

        // A crash empties the queue without finishing what was in it.
        let (mut sim, stamp) = build();
        sim.run_until(SimTime::ZERO);
        sim.crash_node(NodeId(0));
        sim.run_until(SimTime::from_micros(30_000_000));
        assert_eq!(finished(&stamp), 0, "a dropped frame was finished");
        assert!(sim.behavior(NodeId(1)).heard.is_empty());
    }

    #[test]
    fn crash_drops_state_and_restart_rejoins() {
        // Node 1 crashes with a timer pending and a frame in flight toward
        // it; neither must reach the restarted incarnation, but frames sent
        // after the restart must.
        let topo = Topology::single_hop(2);
        let behaviors = vec![Chatter::new(1, 50), Chatter::new(0, 50)];
        let mut sim = Simulator::new(cfg(21), topo, behaviors);
        sim.behavior_mut(NodeId(1)); // touch: both alive
        // Let node 0's frame get on the air, then kill 1 before delivery.
        sim.run_until(SimTime::from_micros(10));
        sim.crash_node(NodeId(1));
        assert!(sim.is_down(NodeId(1)));
        assert!(sim.try_behavior(NodeId(1)).is_none());
        assert_eq!(sim.behaviors().count(), 1, "only node 0 is live");
        sim.run_until(SimTime::from_micros(5_000_000));
        sim.restart_node(NodeId(1), Chatter::new(0, 50));
        assert!(!sim.is_down(NodeId(1)));
        assert!(
            sim.behavior(NodeId(1)).received.is_empty(),
            "pre-crash deliveries must not leak into the new incarnation"
        );
        // A fresh send from node 0 reaches the restarted node.
        sim.behavior_mut(NodeId(0)).to_send = 0;
        // Drive a new broadcast through the behavior API: reuse on_start by
        // restarting node 0 too (crash+restart is also how churn loops).
        sim.crash_node(NodeId(0));
        sim.restart_node(NodeId(0), Chatter::new(1, 50));
        sim.run_until(SimTime::from_micros(10_000_000));
        assert_eq!(sim.behavior(NodeId(1)).received, vec![(NodeId(0), 50)]);
    }

    #[test]
    fn crash_is_free_when_unused() {
        // The incarnation plumbing must not perturb crash-free runs: same
        // trace as `identical_seeds_give_identical_traces` guards, plus the
        // event counter still ticks for every dispatched event.
        let topo = Topology::single_hop(3);
        let behaviors: Vec<_> = (0..3).map(|_| Chatter::new(1, 60)).collect();
        let mut sim = Simulator::new(cfg(22), topo, behaviors);
        sim.run_until(SimTime::from_micros(30_000_000));
        assert!(sim.events_processed() > 0);
        for i in 0..3u16 {
            assert_eq!(sim.behavior(NodeId(i)).received.len(), 2);
        }
    }

    #[test]
    fn run_until_pred_stops_early() {
        let topo = Topology::single_hop(2);
        let behaviors = vec![Chatter::new(1, 10), Chatter::new(0, 10)];
        let mut sim = Simulator::new(cfg(8), topo, behaviors);
        let ok = sim.run_until_pred(SimTime::from_micros(60_000_000), |s| {
            !s.behavior(NodeId(1)).received.is_empty()
        });
        assert!(ok);
        assert!(sim.now() < SimTime::from_micros(2_000_000), "stopped at {}", sim.now());
    }

    #[test]
    fn an_over_size_frame_airs_at_the_maximum_and_is_counted() {
        let topo = Topology::single_hop(2);
        let behaviors = vec![Chatter::new(2, 300), Chatter::new(1, 255)];
        let mut sim = Simulator::new(cfg(9), topo, behaviors);
        let deadline = SimTime::from_micros(60_000_000);
        sim.run_until_pred(deadline, |s| s.behavior(NodeId(1)).received.len() == 2);
        let m = sim.metrics();
        assert_eq!(m.oversize, 2, "node 0's two frames, not node 1's");
        assert_eq!(m.node(NodeId(0)).airtime, RadioParams::default().airtime(255) * 2);
    }

    #[test]
    fn queued_frames_serialize_on_the_channel() {
        // One sender, many frames: each channel access happens after the
        // previous airtime, so total elapsed >= frames * airtime.
        let topo = Topology::single_hop(2);
        let behaviors = vec![Chatter::new(5, 255), Chatter::new(0, 255)];
        let mut sim = Simulator::new(cfg(9), topo, behaviors);
        let deadline = SimTime::from_micros(60_000_000);
        sim.run_until_pred(deadline, |s| s.behavior(NodeId(1)).received.len() == 5);
        let airtime = RadioParams::default().airtime(255);
        assert!(sim.now().saturating_since(SimTime::ZERO) >= airtime * 5);
        let _ = VecDeque::<u8>::new(); // keep import used in this cfg
    }
}
