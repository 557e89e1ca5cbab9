//! A single-threaded poll/timer runtime that drives one [`NodeBehavior`]
//! over a real `std::net::UdpSocket`.
//!
//! The runtime honours the full sans-io contract the simulator defines:
//!
//! * `on_start` / `on_frame` / `on_timer` callbacks run exactly as in the
//!   simulator, with a [`NodeCtx`] built via [`NodeCtx::external`];
//! * [`Command::Broadcast`] becomes one UDP datagram per member of the
//!   channel's multicast set (see [`PeerTable::multicast_set`]); `slot`
//!   coalescing is a transmit-queue concept and sends here are immediate,
//!   so slots are ignored — superseding a frame that already left the
//!   socket is impossible, exactly as on a real radio that already aired it;
//! * [`Command::Withdraw`] is ignored for the same reason: no frame waits
//!   in a queue to be withdrawn;
//! * [`Command::SetTimer`] feeds a monotonic binary-heap timer wheel,
//!   delivered in `(fire time, issue order)` order like the simulator's
//!   event queue;
//! * [`Command::JoinChannel`]/[`Command::LeaveChannel`] edit the local
//!   receive filter (the peer table's static channel sets define where
//!   broadcasts go);
//! * real monotonic time maps onto [`SimTime`] as microseconds since
//!   [`UdpRuntime::new`], so protocol timers mean the same thing they mean
//!   in simulation.
//!
//! Malformed, truncated, version-skewed or foreign datagrams are counted
//! and dropped — never a panic, mirroring how the simulator models
//! corruption as loss. Virtual CPU charges are recorded in [`Metrics`] but
//! not slept: a real run measures real elapsed time.

use crate::client::CLIENT_CHANNEL;
use crate::config::PeerTable;
use crate::TransportStats;
use bytes::Bytes;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};
use wbft_net::datagram::Datagram;
use wbft_wireless::{ChannelId, Command, Frame, Metrics, NodeBehavior, NodeCtx, NodeId, SimTime};

/// Largest UDP datagram the receive path accepts.
const RECV_BUF_BYTES: usize = 65_536;

/// Upper bound on one blocking poll, so wall deadlines and completion
/// predicates are re-checked even on an idle socket.
const POLL_QUANTUM: Duration = Duration::from_millis(20);

/// Reserved control channel for the startup barrier; peer tables must not
/// assign it to protocol traffic.
pub const CONTROL_CHANNEL: u8 = 0xff;

/// Barrier probe: "are you bound yet?". Answered with [`READY_PAYLOAD`].
const HELLO_PAYLOAD: &[u8] = b"HELLO";

/// Barrier answer: "I hear you". Never answered (no ping-pong loops).
const READY_PAYLOAD: &[u8] = b"READY";

/// How often the barrier re-probes unready peers.
const HELLO_INTERVAL: Duration = Duration::from_millis(100);

/// Protocol frames that arrive while this node is still in its barrier are
/// buffered (the sender has already started) and delivered right after
/// `on_start`; beyond this many, the oldest are dropped and NACK recovery
/// takes over.
const MAX_BARRIER_BUFFER: usize = 4_096;

/// Handles datagrams on the reserved client channel
/// ([`CLIENT_CHANNEL`]) — the runtime stays
/// generic over protocol behaviors while a service layer plugs in
/// submission handling and the committed-block stream.
///
/// `on_datagram` answers one client payload (replies go back to `from`);
/// `on_tick` runs once per event-loop iteration to emit unsolicited
/// messages (commit notifications to subscribers). Outgoing payloads are
/// wrapped in client-channel datagrams by the runtime.
pub trait ClientGateway: Send {
    /// One datagram arrived on the client channel.
    fn on_datagram(
        &mut self,
        from: SocketAddr,
        payload: &Bytes,
        now: SimTime,
        out: &mut Vec<(SocketAddr, Bytes)>,
    );

    /// Called every event-loop iteration; push `(addr, payload)` messages.
    fn on_tick(&mut self, now: SimTime, out: &mut Vec<(SocketAddr, Bytes)>);

    /// A client-channel send to `addr` failed at the socket. Gateways
    /// tracking per-address state (subscriber lists) use this to notice
    /// dead peers and evict them; the default ignores it.
    fn on_send_failed(&mut self, _addr: SocketAddr) {}

    /// How many client addresses this gateway has evicted so far — the
    /// runtime mirrors it into
    /// [`TransportStats::client_evictions`](crate::TransportStats).
    fn evictions(&self) -> u64 {
        0
    }
}

/// Drives one behavior over UDP.
pub struct UdpRuntime<B: NodeBehavior> {
    me: NodeId,
    behavior: B,
    socket: UdpSocket,
    peers: PeerTable,
    /// Channels this node currently listens on (receive filter).
    joined: BTreeSet<u8>,
    /// `(fire-at µs, issue seq, timer id)` min-heap.
    timers: BinaryHeap<Reverse<(u64, u64, u64)>>,
    timer_seq: u64,
    rng: ChaCha12Rng,
    start: Instant,
    started: bool,
    /// When the completion predicate first held, if it has.
    completed_at: Option<SimTime>,
    /// Peers confirmed reachable by the startup barrier.
    ready_peers: BTreeSet<u16>,
    /// Peers the barrier does not wait for (designated late joiners that
    /// bootstrap over anti-entropy once they appear).
    late_peers: BTreeSet<u16>,
    /// Protocol frames received during the barrier, delivered after start.
    pending_frames: Vec<Frame>,
    metrics: Metrics,
    stats: TransportStats,
    client: Option<Box<dyn ClientGateway>>,
    buf: Vec<u8>,
}

impl<B: NodeBehavior> UdpRuntime<B> {
    /// Binds `me`'s address from the peer table and wraps `behavior`.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for an invalid table or unknown id; socket errors
    /// from the bind.
    pub fn new(peers: PeerTable, me: u16, behavior: B, seed: u64) -> io::Result<Self> {
        let addr = peers
            .addr_of(me)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unknown node id"))?;
        let socket = UdpSocket::bind(addr)?;
        Self::from_socket(socket, peers, me, behavior, seed)
    }

    /// Wraps an already-bound socket (lets callers bind ephemeral ports
    /// first and build the peer table from the resulting addresses,
    /// avoiding the bind/re-bind race).
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the peer table fails validation or lacks `me`.
    pub fn from_socket(
        socket: UdpSocket,
        peers: PeerTable,
        me: u16,
        behavior: B,
        seed: u64,
    ) -> io::Result<Self> {
        peers.validate().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let joined: BTreeSet<u8> = peers
            .entry(me)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unknown node id"))?
            .channels
            .iter()
            .copied()
            .collect();
        let n = peers.len();
        Ok(UdpRuntime {
            me: NodeId(me),
            behavior,
            socket,
            peers,
            joined,
            timers: BinaryHeap::new(),
            timer_seq: 0,
            rng: ChaCha12Rng::seed_from_u64(seed),
            start: Instant::now(),
            started: false,
            completed_at: None,
            ready_peers: BTreeSet::new(),
            late_peers: BTreeSet::new(),
            pending_frames: Vec::new(),
            metrics: Metrics::new(n),
            stats: TransportStats::default(),
            client: None,
            buf: vec![0; RECV_BUF_BYTES],
        })
    }

    /// Declares peers the startup barrier must not wait for: designated
    /// late joiners whose processes start mid-run and bootstrap their
    /// chains over the anti-entropy sync channel. Waiting for an absent
    /// joiner would deadlock the whole cluster at the barrier, so the
    /// quorum of on-time peers starts without them — their datagrams are
    /// accepted whenever they do appear (the receive path never requires
    /// barrier readiness from a sender).
    pub fn set_late_peers(&mut self, peers: impl IntoIterator<Item = u16>) {
        self.late_peers = peers.into_iter().collect();
    }

    /// Installs the client-channel gateway: datagrams on
    /// [`CLIENT_CHANNEL`] are routed to it
    /// (they are counted foreign drops otherwise), and its tick hook runs
    /// every event-loop iteration.
    pub fn set_client_gateway(&mut self, gateway: Box<dyn ClientGateway>) {
        self.client = Some(gateway);
    }

    /// Monotonic time since construction, as [`SimTime`] microseconds.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX))
    }

    /// The driven behavior.
    pub fn behavior(&self) -> &B {
        &self.behavior
    }

    /// Per-node counters in the simulator's [`Metrics`] schema (only this
    /// node's row is populated — each process owns one node).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Transport-level datagram counters.
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// Mutable access to the counters, so a driver can fold in counts the
    /// behavior tracked itself (the anti-entropy sync counters live in the
    /// protocol node — the runtime only routes its datagrams).
    pub fn stats_mut(&mut self) -> &mut TransportStats {
        &mut self.stats
    }

    /// When the completion predicate first held, if it has — the moment to
    /// measure elapsed time against (the post-completion linger spent
    /// answering peers' NACKs is service, not latency).
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed_at
    }

    /// Runs until `pred` holds over the behavior, then keeps serving peers
    /// for `linger` more wall time (a finished node must keep answering
    /// NACK retransmissions so stragglers — up to `f` of which the protocol
    /// tolerates losing, but not more — can complete). Gives up after
    /// `wall_deadline`. Returns `true` iff the predicate held.
    ///
    /// # Errors
    ///
    /// Socket-level receive errors (timeouts and interrupts are handled
    /// internally).
    pub fn run_until(
        &mut self,
        wall_deadline: Duration,
        linger: Duration,
        mut pred: impl FnMut(&B) -> bool,
    ) -> io::Result<bool> {
        if !self.started {
            if !self.barrier(wall_deadline)? {
                return Ok(false);
            }
            self.started = true;
            self.callback(|b, ctx| b.on_start(ctx))?;
            // Frames buffered during the barrier, in arrival order.
            for frame in std::mem::take(&mut self.pending_frames) {
                self.metrics.node_mut(self.me).frames_received += 1;
                self.callback(|b, ctx| b.on_frame(&frame, ctx))?;
            }
        }
        let mut done_at: Option<Instant> = None;
        loop {
            if done_at.is_none() && pred(&self.behavior) {
                done_at = Some(Instant::now());
                if self.completed_at.is_none() {
                    self.completed_at = Some(self.now());
                }
            }
            if let Some(t) = done_at {
                if t.elapsed() >= linger {
                    return Ok(true);
                }
            }
            if self.start.elapsed() >= wall_deadline {
                return Ok(done_at.is_some());
            }
            self.fire_due_timers()?;
            self.client_tick();
            self.poll_socket_once()?;
        }
    }

    /// Lets the client gateway emit unsolicited messages (commit-stream
    /// notifications to subscribers).
    fn client_tick(&mut self) {
        let Some(mut gateway) = self.client.take() else { return };
        let mut out = Vec::new();
        gateway.on_tick(self.now(), &mut out);
        self.client = Some(gateway);
        self.send_client(out);
    }

    /// Sends gateway output as client-channel datagrams (best-effort —
    /// clients are external and lossy by contract). Failed destinations
    /// are reported back to the gateway so it can evict dead subscribers.
    fn send_client(&mut self, out: Vec<(SocketAddr, Bytes)>) {
        let mut failed: Vec<SocketAddr> = Vec::new();
        for (addr, payload) in out {
            let datagram = Datagram {
                src: self.me.0,
                channel: CLIENT_CHANNEL,
                nominal_len: 0,
                payload,
            };
            let Ok(bytes) = datagram.encode() else {
                self.stats.sends_rejected += 1;
                continue;
            };
            if self.socket.send_to(&bytes, addr).is_err() {
                self.stats.sends_failed += 1;
                failed.push(addr);
            } else {
                self.stats.client_sends += 1;
            }
        }
        if let Some(gateway) = self.client.as_mut() {
            for addr in failed {
                gateway.on_send_failed(addr);
            }
            self.stats.client_evictions = gateway.evictions();
        }
    }

    /// The startup barrier: `on_start` may send immediately, so a node must
    /// not start until every peer is bound and reachable — datagrams sent
    /// into an unbound port are gone, and NACK recovery of a lost *initial*
    /// burst costs seconds per round. Each node probes unready peers with
    /// HELLO every [`HELLO_INTERVAL`]; a HELLO is answered with READY (a
    /// READY is never answered, so there is no ping-pong). Both mark the
    /// sender reachable. A straggler that probes a peer which already left
    /// its barrier still gets its READY from the main receive path.
    ///
    /// Returns `false` if `wall_deadline` passed before all peers appeared.
    fn barrier(&mut self, wall_deadline: Duration) -> io::Result<bool> {
        let want: Vec<u16> = self
            .peers
            .peers
            .iter()
            .map(|p| p.node)
            .filter(|&id| id != self.me.0 && !self.late_peers.contains(&id))
            .collect();
        let mut last_hello = Instant::now() - HELLO_INTERVAL;
        while !want.iter().all(|id| self.ready_peers.contains(id)) {
            if self.start.elapsed() >= wall_deadline {
                return Ok(false);
            }
            if last_hello.elapsed() >= HELLO_INTERVAL {
                last_hello = Instant::now();
                for &id in &want {
                    if !self.ready_peers.contains(&id) {
                        self.send_control(id, HELLO_PAYLOAD);
                    }
                }
            }
            self.poll_socket_once()?;
        }
        Ok(true)
    }

    /// Sends one control datagram to `peer` (best-effort).
    fn send_control(&mut self, peer: u16, payload: &'static [u8]) {
        let Some(addr) = self.peers.addr_of(peer) else { return };
        let datagram = Datagram {
            src: self.me.0,
            channel: CONTROL_CHANNEL,
            nominal_len: 0,
            payload: Bytes::from_static(payload),
        };
        let Ok(bytes) = datagram.encode() else {
            self.stats.sends_failed += 1;
            return;
        };
        if self.socket.send_to(&bytes, addr).is_err() {
            self.stats.sends_failed += 1;
        }
    }

    /// Delivers every timer whose fire time has passed, in order.
    fn fire_due_timers(&mut self) -> io::Result<()> {
        let now_us = self.now().as_micros();
        while let Some(&Reverse((at, _, _))) = self.timers.peek() {
            if at > now_us {
                break;
            }
            let Some(Reverse((_, _, id))) = self.timers.pop() else { break };
            self.callback(|b, ctx| b.on_timer(id, ctx))?;
        }
        Ok(())
    }

    /// One bounded blocking receive; delivers at most one frame.
    fn poll_socket_once(&mut self) -> io::Result<()> {
        let now_us = self.now().as_micros();
        let until_timer = self
            .timers
            .peek()
            .map(|&Reverse((at, _, _))| Duration::from_micros(at.saturating_sub(now_us)))
            .unwrap_or(POLL_QUANTUM);
        let wait = until_timer.min(POLL_QUANTUM).max(Duration::from_millis(1));
        self.socket.set_read_timeout(Some(wait))?;
        let (n, from) = match self.socket.recv_from(&mut self.buf) {
            Ok(ok) => ok,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                        // A previous send_to an already-exited peer can
                        // surface here as a queued ICMP error on Linux.
                        | io::ErrorKind::ConnectionRefused
                ) =>
            {
                return Ok(())
            }
            Err(e) => return Err(e),
        };
        self.stats.datagrams_received += 1;
        let datagram = match Datagram::decode(&self.buf[..n]) {
            Ok(d) => d,
            Err(_) => {
                // Corruption is loss, as in the simulator's PHY model.
                self.stats.drops_malformed += 1;
                self.metrics.node_mut(self.me).lost_noise += 1;
                return Ok(());
            }
        };
        if datagram.channel == CLIENT_CHANNEL {
            // Client traffic is unauthenticated and source-anonymous; only
            // a configured gateway may consume it.
            let Some(mut gateway) = self.client.take() else {
                self.stats.drops_foreign += 1;
                return Ok(());
            };
            self.stats.client_datagrams += 1;
            let mut out = Vec::new();
            gateway.on_datagram(from, &datagram.payload, self.now(), &mut out);
            self.client = Some(gateway);
            self.send_client(out);
            return Ok(());
        }
        if datagram.channel == CONTROL_CHANNEL {
            let known = datagram.src != self.me.0 && self.peers.entry(datagram.src).is_some();
            if !known {
                self.stats.drops_foreign += 1;
            } else if datagram.payload.as_ref() == HELLO_PAYLOAD {
                self.ready_peers.insert(datagram.src);
                self.send_control(datagram.src, READY_PAYLOAD);
            } else if datagram.payload.as_ref() == READY_PAYLOAD {
                self.ready_peers.insert(datagram.src);
            } else {
                self.stats.drops_foreign += 1;
            }
            return Ok(());
        }
        // The reserved sync channel belongs to no peer-table entry: any
        // known peer may speak on it (the behavior verifies digest chains
        // itself, since sync traffic is unsigned). All other channels pass
        // the usual joined/claimed filter.
        let foreign = datagram.src == self.me.0
            || if datagram.channel == crate::sync::SYNC_CHANNEL {
                self.peers.entry(datagram.src).is_none()
            } else {
                !self.joined.contains(&datagram.channel)
                    || self
                        .peers
                        .entry(datagram.src)
                        .is_none_or(|p| !p.channels.contains(&datagram.channel))
            };
        if foreign {
            self.stats.drops_foreign += 1;
            return Ok(());
        }
        let frame = Frame {
            src: NodeId(datagram.src),
            channel: ChannelId(datagram.channel),
            payload: datagram.payload,
            nominal_len: datagram.nominal_len as usize,
        };
        if !self.started {
            // A peer that already left its barrier can legitimately send
            // protocol frames while we are still in ours; hold them for
            // delivery right after `on_start`.
            if self.pending_frames.len() < MAX_BARRIER_BUFFER {
                self.pending_frames.push(frame);
            } else {
                self.stats.drops_overflow += 1;
            }
            return Ok(());
        }
        self.metrics.node_mut(self.me).frames_received += 1;
        self.callback(|b, ctx| b.on_frame(&frame, ctx))
    }

    /// Runs one behavior callback and applies its commands.
    fn callback(&mut self, f: impl FnOnce(&mut B, &mut NodeCtx)) -> io::Result<()> {
        let now = self.now();
        let mut ctx = NodeCtx::external(now, self.me, &mut self.rng);
        f(&mut self.behavior, &mut ctx);
        let (cmds, charged) = ctx.finish();
        self.metrics.node_mut(self.me).cpu_time += charged;
        for cmd in cmds {
            match cmd {
                Command::Broadcast { channel, payload, nominal_len, slot: _ } => {
                    // No transmit queue here: every frame leaves at once,
                    // so its payload is finished at once.
                    self.broadcast(channel, payload.finish(), nominal_len);
                }
                // Every frame left at once: nothing waits to be withdrawn.
                Command::Withdraw { .. } => {}
                Command::SetTimer { after, id } => {
                    self.timer_seq += 1;
                    self.timers.push(Reverse((
                        (now + after).as_micros(),
                        self.timer_seq,
                        id,
                    )));
                }
                Command::JoinChannel(ch) => {
                    self.joined.insert(ch.0);
                }
                Command::LeaveChannel(ch) => {
                    self.joined.remove(&ch.0);
                }
            }
        }
        Ok(())
    }

    /// Sends one datagram to every member of the channel's multicast set.
    /// Send failures are counted, never fatal — UDP is lossy by contract.
    fn broadcast(&mut self, channel: ChannelId, payload: Bytes, nominal_len: usize) {
        let Ok(nominal) = u32::try_from(nominal_len) else {
            // Absurd claimed size: refuse like any other oversized send.
            self.stats.sends_rejected += 1;
            return;
        };
        let datagram = Datagram {
            src: self.me.0,
            channel: channel.0,
            nominal_len: nominal,
            payload,
        };
        let Ok(bytes) = datagram.encode() else {
            // Oversized for one UDP datagram: refuse, don't truncate.
            self.stats.sends_rejected += 1;
            return;
        };
        let m = self.metrics.node_mut(self.me);
        m.channel_accesses += 1;
        m.bytes_sent += nominal_len as u64;
        // The reserved sync channel has no claimants in the table; its
        // multicast set is every other peer.
        let targets = if channel.0 == crate::sync::SYNC_CHANNEL {
            self.peers
                .peers
                .iter()
                .filter(|p| p.node != self.me.0)
                .map(|p| p.addr)
                .collect()
        } else {
            self.peers.multicast_set(self.me.0, channel)
        };
        for addr in targets {
            if self.socket.send_to(&bytes, addr).is_err() {
                self.stats.sends_failed += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use wbft_wireless::SimDuration;

    /// Binds `n` loopback sockets and builds the matching peer table.
    fn loopback_cluster(n: usize) -> (Vec<UdpSocket>, PeerTable) {
        let sockets: Vec<UdpSocket> =
            (0..n).map(|_| UdpSocket::bind("127.0.0.1:0").unwrap()).collect();
        let ports: Vec<u16> = sockets.iter().map(|s| s.local_addr().unwrap().port()).collect();
        (sockets, PeerTable::loopback(&ports))
    }

    struct Chatter {
        to_send: usize,
        received: Vec<(NodeId, usize)>,
    }

    impl NodeBehavior for Chatter {
        fn on_start(&mut self, ctx: &mut NodeCtx) {
            for _ in 0..self.to_send {
                ctx.broadcast(ChannelId(0), Bytes::from_static(&[9; 40]), 120);
            }
        }
        fn on_frame(&mut self, frame: &Frame, _ctx: &mut NodeCtx) {
            self.received.push((frame.src, frame.nominal_len));
        }
        fn on_timer(&mut self, _id: u64, _ctx: &mut NodeCtx) {}
    }

    #[test]
    fn frames_cross_real_sockets() {
        let (mut sockets, table) = loopback_cluster(2);
        let receiver_socket = sockets.pop().unwrap();
        let sender_socket = sockets.pop().unwrap();
        let table2 = table.clone();
        let sender = std::thread::spawn(move || {
            let mut rt = UdpRuntime::from_socket(
                sender_socket,
                table2,
                0,
                Chatter { to_send: 3, received: Vec::new() },
                1,
            )
            .unwrap();
            rt.run_until(Duration::from_secs(10), Duration::from_millis(200), |_| true).unwrap();
        });
        let mut rt = UdpRuntime::from_socket(
            receiver_socket,
            table,
            1,
            Chatter { to_send: 0, received: Vec::new() },
            2,
        )
        .unwrap();
        let ok = rt
            .run_until(Duration::from_secs(10), Duration::ZERO, |b| b.received.len() == 3)
            .unwrap();
        sender.join().unwrap();
        assert!(ok, "receiver saw {:?}", rt.behavior().received);
        // The nominal length (120) survives the trip, not the payload size.
        assert!(rt.behavior().received.iter().all(|&(src, nom)| src == NodeId(0) && nom == 120));
        assert_eq!(rt.metrics().node(NodeId(1)).frames_received, 3);
    }

    #[test]
    fn a_deferred_payload_is_finished_before_it_leaves_the_socket() {
        // No transmit queue, so no later moment to finish a frame at: what
        // `broadcast_signed` hands over unsigned must arrive signed.
        use rand::SeedableRng;
        use wbft_crypto::schnorr::KeyPair;
        use wbft_net::{broadcast_signed, Body, Envelope, Sizing};

        struct Node {
            keypair: KeyPair,
            sends: bool,
            heard: Vec<Bytes>,
        }
        fn packet() -> Envelope {
            let digest = wbft_crypto::Digest32::of(b"block");
            let body = Body::GlobalDecision { epoch: 1, digest, tx_count: 2 };
            Envelope { src: 0, session: 7, body }
        }
        impl NodeBehavior for Node {
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                if self.sends {
                    let sizing = Sizing::light(2);
                    broadcast_signed(ctx, ChannelId(0), &self.keypair, &sizing, &packet(), 0)
                        .unwrap();
                }
            }
            fn on_frame(&mut self, frame: &Frame, _ctx: &mut NodeCtx) {
                self.heard.push(frame.payload.clone());
            }
            fn on_timer(&mut self, _id: u64, _ctx: &mut NodeCtx) {}
        }

        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let keypair = KeyPair::generate(wbft_crypto::EcdsaCurve::Secp160r1, &mut rng);
        let node = |sends| Node { keypair: keypair.clone(), sends, heard: Vec::new() };
        let (mut sockets, table) = loopback_cluster(2);
        let receiver_socket = sockets.pop().unwrap();
        let sender_socket = sockets.pop().unwrap();
        let (sender_table, sender_node) = (table.clone(), node(true));
        let sender = std::thread::spawn(move || {
            let mut rt =
                UdpRuntime::from_socket(sender_socket, sender_table, 0, sender_node, 1).unwrap();
            rt.run_until(Duration::from_secs(10), Duration::from_millis(200), |_| true).unwrap();
        });
        let mut rt = UdpRuntime::from_socket(receiver_socket, table, 1, node(false), 2).unwrap();
        let ok =
            rt.run_until(Duration::from_secs(10), Duration::ZERO, |b| !b.heard.is_empty()).unwrap();
        sender.join().unwrap();
        assert!(ok);
        let (env, sig_ok) =
            Envelope::open(&rt.behavior().heard[0], |_| Some(keypair.public())).unwrap();
        assert!(sig_ok, "the datagram left unsigned");
        assert_eq!(env, packet());
    }

    #[test]
    fn timers_fire_in_order_on_real_clock() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl NodeBehavior for TimerNode {
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                ctx.set_timer(SimDuration::from_millis(60), 3);
                ctx.set_timer(SimDuration::from_millis(20), 1);
                ctx.set_timer(SimDuration::from_millis(40), 2);
            }
            fn on_frame(&mut self, _f: &Frame, _ctx: &mut NodeCtx) {}
            fn on_timer(&mut self, id: u64, _ctx: &mut NodeCtx) {
                self.fired.push(id);
            }
        }
        let (mut sockets, table) = loopback_cluster(1);
        let mut rt = UdpRuntime::from_socket(
            sockets.pop().unwrap(),
            table,
            0,
            TimerNode { fired: Vec::new() },
            3,
        )
        .unwrap();
        let ok = rt
            .run_until(Duration::from_secs(5), Duration::ZERO, |b| b.fired.len() == 3)
            .unwrap();
        assert!(ok);
        assert_eq!(rt.behavior().fired, vec![1, 2, 3]);
    }

    #[test]
    fn a_designated_late_peer_does_not_block_the_barrier() {
        // Node 0's socket stays bound but silent (it never answers HELLO).
        // Marked late, it must not hold node 1 in the barrier; unmarked, it
        // must (the deadline elapses and run_until reports failure).
        let (mut sockets, table) = loopback_cluster(2);
        let receiver_socket = sockets.pop().unwrap();
        let _absent_joiner = sockets.pop().unwrap();
        let mut rt = UdpRuntime::from_socket(
            receiver_socket.try_clone().unwrap(),
            table.clone(),
            1,
            Chatter { to_send: 0, received: Vec::new() },
            8,
        )
        .unwrap();
        rt.set_late_peers([0]);
        let ok = rt.run_until(Duration::from_secs(5), Duration::ZERO, |_| true).unwrap();
        assert!(ok, "barrier must not wait for a designated late joiner");
        let mut strict = UdpRuntime::from_socket(
            receiver_socket,
            table,
            1,
            Chatter { to_send: 0, received: Vec::new() },
            9,
        )
        .unwrap();
        let ok = strict.run_until(Duration::from_millis(200), Duration::ZERO, |_| true).unwrap();
        assert!(!ok, "without the late marking the barrier must wait for node 0");
    }

    #[test]
    fn garbage_and_foreign_datagrams_are_counted_drops() {
        let (mut sockets, mut table) = loopback_cluster(2);
        // Node 1 listens on channel 0 only; node 0 claims channel 0.
        table.peers[0].channels = vec![0];
        let receiver_socket = sockets.pop().unwrap();
        let injector = sockets.pop().unwrap();
        let addr = receiver_socket.local_addr().unwrap();
        // Satisfy the receiver's startup barrier on node 0's behalf.
        let ready = Datagram {
            src: 0,
            channel: CONTROL_CHANNEL,
            nominal_len: 0,
            payload: Bytes::from_static(READY_PAYLOAD),
        };
        injector.send_to(&ready.encode().unwrap(), addr).unwrap();
        // Raw garbage, a wrong-channel frame, and a self-sourced frame.
        injector.send_to(b"not a wbft datagram", addr).unwrap();
        let wrong_channel = Datagram {
            src: 0,
            channel: 7,
            nominal_len: 10,
            payload: Bytes::from_static(b"x"),
        };
        injector.send_to(&wrong_channel.encode().unwrap(), addr).unwrap();
        let self_sourced =
            Datagram { src: 1, channel: 0, nominal_len: 10, payload: Bytes::from_static(b"x") };
        injector.send_to(&self_sourced.encode().unwrap(), addr).unwrap();
        let mut rt = UdpRuntime::from_socket(
            receiver_socket,
            table,
            1,
            Chatter { to_send: 0, received: Vec::new() },
            4,
        )
        .unwrap();
        let _ = rt
            .run_until(Duration::from_millis(500), Duration::ZERO, |_| false)
            .unwrap();
        assert!(rt.behavior().received.is_empty());
        assert_eq!(rt.stats().drops_malformed, 1);
        assert_eq!(rt.stats().drops_foreign, 2);
        assert_eq!(rt.metrics().node(NodeId(1)).frames_received, 0);
    }

    #[test]
    fn failed_client_sends_reach_the_gateway_and_evictions_hit_stats() {
        /// Pushes one message to an unsendable address (port 0 fails at
        /// `send_to` on every platform we run), then evicts it on the
        /// failure callback.
        struct OneShotGateway {
            pushed: bool,
            evicted: u64,
        }
        impl ClientGateway for OneShotGateway {
            fn on_datagram(
                &mut self,
                _from: SocketAddr,
                _payload: &Bytes,
                _now: SimTime,
                _out: &mut Vec<(SocketAddr, Bytes)>,
            ) {
            }
            fn on_tick(&mut self, _now: SimTime, out: &mut Vec<(SocketAddr, Bytes)>) {
                if !self.pushed {
                    self.pushed = true;
                    out.push(("127.0.0.1:0".parse().unwrap(), Bytes::from_static(b"z")));
                }
            }
            fn on_send_failed(&mut self, _addr: SocketAddr) {
                self.evicted += 1;
            }
            fn evictions(&self) -> u64 {
                self.evicted
            }
        }
        let (mut sockets, table) = loopback_cluster(1);
        let mut rt = UdpRuntime::from_socket(
            sockets.pop().unwrap(),
            table,
            0,
            Chatter { to_send: 0, received: Vec::new() },
            6,
        )
        .unwrap();
        rt.set_client_gateway(Box::new(OneShotGateway { pushed: false, evicted: 0 }));
        let _ = rt.run_until(Duration::from_millis(300), Duration::ZERO, |_| false).unwrap();
        assert_eq!(rt.stats().sends_failed, 1);
        assert_eq!(rt.stats().client_evictions, 1);
    }

    #[test]
    fn join_and_leave_edit_the_receive_filter() {
        struct Joiner {
            got: Vec<u8>,
        }
        impl NodeBehavior for Joiner {
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                ctx.join_channel(ChannelId(2));
                ctx.leave_channel(ChannelId(0));
            }
            fn on_frame(&mut self, f: &Frame, _ctx: &mut NodeCtx) {
                self.got.push(f.channel.0);
            }
            fn on_timer(&mut self, _id: u64, _ctx: &mut NodeCtx) {}
        }
        let (mut sockets, mut table) = loopback_cluster(2);
        table.peers[0].channels = vec![0, 2];
        let receiver_socket = sockets.pop().unwrap();
        let injector = sockets.pop().unwrap();
        let addr = receiver_socket.local_addr().unwrap();
        let mut rt =
            UdpRuntime::from_socket(receiver_socket, table, 1, Joiner { got: Vec::new() }, 5)
                .unwrap();
        // Deliver on the joined channel 2 (accepted) and the left channel 0
        // (dropped as foreign).
        let (tx, rx) = mpsc::channel();
        let sender = std::thread::spawn(move || {
            // Release the receiver's barrier, then give on_start a moment
            // to run inside run_until before delivering frames.
            let ready = Datagram {
                src: 0,
                channel: CONTROL_CHANNEL,
                nominal_len: 0,
                payload: Bytes::from_static(READY_PAYLOAD),
            };
            injector.send_to(&ready.encode().unwrap(), addr).unwrap();
            std::thread::sleep(Duration::from_millis(200));
            for ch in [2u8, 0] {
                let d = Datagram {
                    src: 0,
                    channel: ch,
                    nominal_len: 5,
                    payload: Bytes::from_static(b"y"),
                };
                injector.send_to(&d.encode().unwrap(), addr).unwrap();
            }
            tx.send(()).unwrap();
        });
        let ok = rt
            .run_until(Duration::from_secs(5), Duration::from_millis(300), |b| {
                !b.got.is_empty()
            })
            .unwrap();
        rx.recv().unwrap();
        sender.join().unwrap();
        assert!(ok);
        assert_eq!(rt.behavior().got, vec![2]);
        assert_eq!(rt.stats().drops_foreign, 1);
    }
}
