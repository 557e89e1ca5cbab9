// Totality and wire safety: a panic on a protocol path aborts the node
// mid-epoch, and a truncating cast silently corrupts a frame, so neither
// may appear outside test code. The codec modules also deny indexing.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::cast_possible_truncation
    )
)]
//! # wbft-transport — real-network transport for sans-io protocol code
//!
//! The paper's testbed runs consensus over real radios; this crate is the
//! reproduction's first real transport: a UDP datagram carrier plus a
//! single-threaded poll/timer runtime ([`UdpRuntime`]) that drives any
//! [`NodeBehavior`](wbft_wireless::NodeBehavior) — the *same unmodified
//! protocol state machines the simulator runs* — over a
//! `std::net::UdpSocket`.
//!
//! Pieces:
//!
//! * [`PeerTable`] — the deployment map (node id → socket address →
//!   channel set), JSON-serialized through `wbft-report` so one launcher
//!   can hand it to every process. Logical radio channels become
//!   peer-address multicast sets.
//! * [`UdpRuntime`] — the event loop: real monotonic clocks mapped onto
//!   `SimTime`, a timer wheel for `SetTimer`, datagram framing via
//!   [`wbft_net::datagram`], length-checked non-panicking decode, and
//!   counters in the simulator's `Metrics` schema so real runs feed the
//!   same `RunReport` JSON the figures read.
//!
//! What this transport deliberately does **not** model: CSMA contention,
//! collisions, half-duplex radios, airtime, or stochastic loss — loopback
//! and Ethernet links have none of those. The simulator remains the
//! deterministic CI path and the fidelity reference; this crate is the
//! deployment path (and the stepping stone to serial/LoRa bridges).

pub mod client;
pub mod config;
pub mod runtime;
pub mod sync;

pub use client::{
    ClientEvent, ClientMsg, ServiceClient, SubmitVerdict, CLIENT_CHANNEL, CLIENT_SRC,
};
pub use config::{PeerEntry, PeerTable};
pub use runtime::{ClientGateway, UdpRuntime};
pub use sync::{SyncBlock, SyncMsg, SYNC_CHANNEL, SYNC_CHUNK_BUDGET};

/// Datagram-level counters a transport keeps alongside the protocol
/// [`Metrics`](wbft_wireless::Metrics).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Datagrams received, before any validation.
    pub datagrams_received: u64,
    /// Datagrams dropped because they failed to decode (truncated, bad
    /// magic/version, garbage).
    pub drops_malformed: u64,
    /// Well-formed datagrams dropped by the receive filter (unknown or
    /// self source, channel not joined, sender not on the channel).
    pub drops_foreign: u64,
    /// Valid protocol frames dropped because the startup-barrier buffer
    /// was full (NACK retransmission recovers them).
    pub drops_overflow: u64,
    /// Broadcasts refused because the payload exceeds one UDP datagram.
    pub sends_rejected: u64,
    /// Individual `send_to` failures (UDP is lossy; never fatal).
    pub sends_failed: u64,
    /// Datagrams consumed from the client-submission channel.
    pub client_datagrams: u64,
    /// Client-channel datagrams sent (replies + commit notifications).
    pub client_sends: u64,
    /// Client subscribers evicted by the gateway (repeated send failures
    /// or LRU displacement past the subscriber cap).
    pub client_evictions: u64,
    /// Anti-entropy head announcements answered with a block chunk (this
    /// node had blocks the announcer was missing).
    pub sync_requests_served: u64,
    /// Committed blocks shipped inside anti-entropy chunks.
    pub sync_blocks_shipped: u64,
    /// Blocks that did not fit the current chunk's datagram budget and
    /// wait for the peer's next announcement round.
    pub sync_chunks_dropped: u64,
}
