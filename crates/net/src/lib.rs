// Totality and wire safety: a panic on a protocol path aborts the node
// mid-epoch, and this crate parses bytes an adversary controls, so outside
// test code nothing panics, indexes a slice directly or truncates a cast.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation
    )
)]
//! # wbft-net — the ConsensusBatcher packet module
//!
//! Wire-format layer of the reproduction of *"Asynchronous BFT Consensus
//! Made Wireless"* (ICDCS 2025): the batched packet structures of Figs. 4–6,
//! the baseline's per-instance frames and the split / join between the two
//! ([`split`](mod@split)), compressed O(N) NACK bitmaps, NACK-driven retransmission
//! policy, and the Table I message-overhead closed forms.
//!
//! The central idea of ConsensusBatcher lives in these packet layouts:
//! *vertical batching* merges the same phase of N parallel component
//! instances into one frame (one channel access instead of N), and
//! *horizontal batching* folds a component's phases — ECHO with READY,
//! INITIAL with the vote phases for small values — into that same frame.
//!
//! Every packet encodes twice: once into real bytes for the simulation, and
//! once through a counting sink that prices crypto fields at the paper's
//! curve sizes (a 21-byte BN158 threshold signature, a 40-byte secp160r1
//! packet signature). Airtime is charged on the latter, so packet-size
//! effects match the paper's testbed rather than this crate's substitute
//! crypto — see [`wire`].
//!
//! Both directions of a signed packet have one path each. Sending is
//! [`broadcast_signed`] ([`send`]): encoded in full when queued, signed
//! when the runtime transmits it (a byte-identical re-send reuses the
//! signature from the signer's transcript table, see
//! [`wbft_crypto::schnorr`]). Receiving is [`open_shared`] ([`open`]):
//! [`Envelope::open_tagged`] behind a small per-thread table of recently
//! opened frames, so the `n − 1` simulated receivers of one transmission
//! share one decode and one signature check — served only on byte-for-byte
//! and key equality, so it can never answer differently from the
//! table-free [`Envelope::open`] / [`Envelope::open_tagged`], which remain
//! the reference (and what codec benchmarks time).
//!
//! ## Example
//!
//! ```rust
//! use wbft_net::{Bitmap, Body, Envelope, Sizing};
//! use wbft_crypto::{schnorr::KeyPair, EcdsaCurve, Digest32};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let kp = KeyPair::generate(EcdsaCurve::Secp160r1, &mut rng);
//! let env = Envelope {
//!     src: 1,
//!     session: 7,
//!     body: Body::RbcEchoReady {
//!         roots: vec![Digest32::of(b"p0"); 4],
//!         echo: Bitmap::full(4),
//!         ready: Bitmap::new(4),
//!         echo_nack: Bitmap::new(4),
//!         ready_nack: Bitmap::new(4),
//!         init_nack: Bitmap::new(4),
//!     },
//! };
//! let (bytes, nominal) = env.seal(&kp, &Sizing::light(4))?;
//! let (opened, sig_ok) = Envelope::open(&bytes, |_| Some(kp.public()))?;
//! assert!(sig_ok && opened == env && nominal <= 255);
//! # Ok::<(), wbft_net::WireError>(())
//! ```

pub mod bitmap;
pub mod datagram;
pub mod open;
pub mod overhead;
pub mod packets;
pub mod reliability;
pub mod send;
pub mod split;
pub mod vote;
pub mod wire;

pub use bitmap::Bitmap;
pub use datagram::{Datagram, MAX_DATAGRAM_PAYLOAD};
pub use open::{open_shared, Opened};
pub use packets::{AbaLcInst, AbaScInst, Body, Envelope};
pub use reliability::RetransmitPolicy;
pub use send::broadcast_signed;
pub use split::{join, split};
pub use vote::{BinValues, Vote};
pub use wire::{CoinFlavor, Sizing, WireError};
