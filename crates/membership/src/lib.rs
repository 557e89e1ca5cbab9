//! # wbft-membership — consensus-ordered dynamic membership
//!
//! Dynamic committee membership for the wireless BFT stack: join/leave
//! operations ride the ordered transaction path as a reserved transaction
//! class, every honest node folds the committed chain prefix into the same
//! [`CommitteeLog`], and a committed change activates a fixed number of
//! epochs later — leaving a window for the old committee to rehand its
//! threshold keys to the new one with a dealerless resharing ceremony
//! ([`ReshareCeremony`]) that keeps the *group* keys (and therefore every
//! previously combined signature and coin) stable while rolling all
//! per-node shares to a fresh key epoch.
//!
//! The crate is engine-agnostic: it knows nothing about sessions, wires or
//! simulators. Engines feed it committed ops and verified deal sets; it
//! hands back deterministic [`CommitteeView`]s and rolled
//! [`NodeCrypto`](wbft_components::NodeCrypto) bundles.

pub mod ceremony;
pub mod op;
pub mod view;

pub use ceremony::{canonical_dealers, DealSet, ReshareCeremony};
pub use op::{decode_op, encode_op, MembershipOp, MEMBERSHIP_TX_MAGIC};
pub use view::{CommitteeConfig, CommitteeLog, CommitteeView, ACTIVATION_DELAY};
