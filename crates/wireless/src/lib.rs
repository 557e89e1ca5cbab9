//! # wbft-wireless — deterministic wireless-network simulator
//!
//! The testbed substrate of the ConsensusBatcher reproduction: a
//! discrete-event simulator of resource-constrained wireless networks in
//! the style of the paper's physical LoRa + STM32 deployment (§V-C),
//! modelling exactly the effects its evaluation measures:
//!
//! * **shared half-duplex channels** with CSMA/CA contention, random
//!   backoff, and emergent collisions ([`csma`], [`sim`]);
//! * **LoRa-calibrated airtime** — the hundreds-of-ms frame times that put
//!   consensus latencies in the tens of seconds ([`radio`]);
//! * **DMA buffer delivery** with the paper's packet-alignment strategy and
//!   its unaligned ablation ([`dma`]);
//! * **a serial CPU** that cryptographic operations charge virtual time to,
//!   so heavy threshold crypto delays packet processing exactly as on the
//!   paper's boards;
//! * **clusters and a routed leader overlay** for multi-hop deployments
//!   ([`topology`]);
//! * **asynchrony**: stochastic loss and adversarial (bounded) delivery
//!   delays — messages between honest nodes are eventually delivered,
//!   nothing more ([`adversary`]) — plus pluggable worst-case delivery
//!   schedulers that adaptively reorder and hold back frames within a hard
//!   per-delivery budget ([`sched`]).
//!
//! Protocol logic plugs in as sans-io [`NodeBehavior`] state machines; runs
//! are bit-for-bit deterministic for a fixed seed.
//!
//! A node's transmit queue keeps one frame per slot — a newer version of a
//! combined packet replaces the one still waiting for the channel — and a
//! broadcast may carry a [`Payload`] that is only *finished* (signed, in
//! practice) when its frame leaves that queue, so the versions that never
//! air cost nothing beyond building them ([`behavior`]).
//!
//! ## Example
//!
//! ```rust
//! use wbft_wireless::{
//!     NodeBehavior, NodeCtx, Frame, SimConfig, Simulator, SimTime, Topology, ChannelId,
//! };
//! use bytes::Bytes;
//!
//! struct Hello { sender: bool, got: usize }
//! impl NodeBehavior for Hello {
//!     fn on_start(&mut self, ctx: &mut NodeCtx) {
//!         if self.sender {
//!             ctx.broadcast(ChannelId(0), Bytes::from_static(b"hi"), 2);
//!         }
//!     }
//!     fn on_frame(&mut self, _f: &Frame, _ctx: &mut NodeCtx) { self.got += 1; }
//!     fn on_timer(&mut self, _id: u64, _ctx: &mut NodeCtx) {}
//! }
//!
//! let topo = Topology::single_hop(3);
//! let mut sim = Simulator::new(SimConfig::default(), topo,
//!     (0..3).map(|i| Hello { sender: i == 0, got: 0 }).collect());
//! sim.run_until(SimTime::from_micros(5_000_000));
//! assert!(sim.behaviors().all(|(id, b)| b.got == usize::from(id.0 != 0)));
//! ```

pub mod adversary;
pub mod behavior;
pub mod csma;
pub mod dma;
pub mod metrics;
pub mod radio;
pub mod sched;
pub mod sim;
pub mod time;
pub mod topology;

pub use adversary::{AdversaryConfig, LossModel};
pub use behavior::{Command, Finish, Frame, NodeBehavior, NodeCtx, Payload};
pub use csma::CsmaParams;
pub use dma::DmaParams;
pub use metrics::{Metrics, NodeMetrics};
pub use radio::RadioParams;
pub use sched::{Delivery, DeliveryScheduler, SchedConfig, SchedPolicy, SchedStats};
pub use sim::{SimConfig, Simulator};
pub use time::{SimDuration, SimTime};
pub use topology::{ChannelId, NodeId, Position, RoutingModel, Topology};
