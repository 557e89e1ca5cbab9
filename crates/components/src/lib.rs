// Totality: a panic on a protocol path aborts the node mid-epoch, so none
// of the panicking calls may appear outside test code.
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
//! # wbft-components — consensus components for wireless asynchronous BFT
//!
//! The component layer of the ConsensusBatcher reproduction (*"Asynchronous
//! BFT Consensus Made Wireless"*, ICDCS 2025): every broadcast and
//! agreement primitive the three consensus protocols are built from. Each
//! runs in two packagings, chosen by [`Params::packing`]:
//! **ConsensusBatcher** ([`Packing::Combined`]: one combined packet per
//! channel access for all N parallel instances) and the **baseline**
//! ([`Packing::PerInstance`]: one frame per instance and phase, the
//! unbatched deployment the paper compares against).
//!
//! | Component | Type |
//! |-----------|------|
//! | Bracha reliable broadcast | [`rbc::RbcBatch`] |
//! | RBC-small (2-bit values)  | [`rbc_small::RbcSmallBatch`] (batched only) |
//! | Consistent broadcast      | [`cbc::CbcBatch`] |
//! | CBC-small (id lists)      | [`cbc::CbcSmallBatch`] (batched only) |
//! | Provable RBC              | [`prbc::PrbcBatch`] |
//! | Shared-coin ABA (SC / CP) | [`aba_sc::AbaScBatch`] (the baseline's is serial: one coin per instance) |
//! | Local-coin ABA (Bracha)   | [`aba_lc::AbaLcBatch`] (batched only) |
//! | *either ABA, by deployment*  | [`Agreement`] |
//! | *send discipline, every row* | [`Batcher`] |
//! | *share quorum, every row*    | [`Collector`] |
//!
//! A deployment style is a *packaging*, not a second implementation. What
//! one instance does — reassembling the proposal (RBC, CBC, PRBC), tallying
//! Bracha's votes (RBC), collecting threshold shares into a certificate
//! (CBC, CBC-small, PRBC), gossiping decided claims (both ABAs) — lives
//! once, in the crate-private `instance` module, and each component builds
//! one combined packet with its NACK bits whatever the packing.
//!
//! *When* and *how* a packet goes out is one decision too, [`Batcher`]: a
//! state change rides the next flush, a jittered tick re-sends while the
//! component is incomplete or a NACK shows a peer behind. Components only
//! say "changed" / "a peer is behind" (or which instance a peer lacks) and
//! build the packet when asked; under the per-instance packing the batcher
//! splits it into frames ([`wbft_net::split()`]) and re-sends only the
//! instances a NACK asks for. And "own share once → buffer → verify at
//! quorum → combine" is one [`Collector`] over a threshold key set: under
//! the CBC certificates, the PRBC proofs, the ABA coins and Dumbo's π coin
//! (a coin is a threshold signature on its name) and HoneyBadger's
//! threshold decryption. The collector is also the one place a threshold
//! share is priced: it charges the virtual CPU of a share signature, each
//! foreign share's verification, the combination and an adopted
//! certificate's check at its [`Quorum`]'s price.
//!
//! All components are sans-io state machines: they consume packet bodies
//! and timer ticks and emit [`context::Actions`] (broadcasts, timers,
//! virtual CPU charges). The consensus layer in `wbft-consensus` seals
//! their packets, binds them to simulator nodes, and composes them into
//! HoneyBadgerBFT, BEAT and Dumbo.
//!
//! ## Example: four batched RBC nodes over an in-memory mesh
//!
//! ```rust
//! use wbft_components::{Actions, Broadcaster, Params};
//! use wbft_components::rbc::RbcBatch;
//! use bytes::Bytes;
//!
//! let mut nodes: Vec<RbcBatch> =
//!     (0..4).map(|i| RbcBatch::new(Params::new(4, i, 1))).collect();
//! let mut inbox = Vec::new();
//! for (i, node) in nodes.iter_mut().enumerate() {
//!     let mut acts = Actions::new();
//!     node.start(Bytes::from(format!("proposal-{i}")), &mut acts);
//!     inbox.extend(acts.drain().0.into_iter().map(|b| (i, b)));
//! }
//! while let Some((src, body)) = inbox.pop() {
//!     for i in 0..4 {
//!         if i == src { continue; }
//!         let mut acts = Actions::new();
//!         nodes[i].handle(src, &body, &mut acts);
//!         inbox.extend(acts.drain().0.into_iter().map(|b| (i, b)));
//!     }
//! }
//! assert!(nodes.iter().all(|n| n.delivered_count() == 4));
//! ```

pub mod aba_lc;
pub mod aba_sc;
pub mod cbc;
pub mod context;
mod instance;
pub mod prbc;
pub mod rbc;
pub mod rbc_small;
pub mod share_buf;

pub use context::{
    deal_committee_crypto, deal_node_crypto, Actions, Agreement, Batcher, BinaryAgreement,
    Broadcaster, NodeCrypto, Packing, Params,
};
pub use share_buf::{Collector, Quorum, Recorded, SigShareBuf};
