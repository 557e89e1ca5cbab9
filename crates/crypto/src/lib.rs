//! # wbft-crypto — lightweight cryptography for wireless asynchronous BFT
//!
//! The cryptographic substrate of the ConsensusBatcher reproduction
//! (*"Asynchronous BFT Consensus Made Wireless"*, ICDCS 2025): threshold
//! signatures, threshold common coins, threshold encryption, and per-packet
//! digital signatures, all over one pairing-free discrete-log group, plus
//! the calibrated cost/size profiles of the paper's eleven curve
//! deployments.
//!
//! ## Example
//!
//! Deal a `(f, n)` threshold-signature key set and assemble a signature from
//! any quorum of shares:
//!
//! ```rust
//! use wbft_crypto::{thresh_sig, ThresholdCurve};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let (public, secrets) = thresh_sig::deal(4, 1, ThresholdCurve::Bn158, &mut rng);
//! let msg = b"PRBC done: instance 2";
//! let shares: Vec<_> = secrets.iter().map(|s| s.sign_share(msg)).collect();
//! let sig = public.combine(&shares[0..2])?;
//! public.verify(msg, &sig)?;
//! # Ok::<(), wbft_crypto::thresh_sig::ThreshSigError>(())
//! ```
//!
//! ## Security status — read this
//!
//! This crate is a **simulation substrate**, not production cryptography:
//!
//! * The group is the quadratic-residue subgroup of `Z_p^*` for a 255-bit
//!   safe prime — far below production sizes, and the arithmetic is not
//!   constant-time.
//! * The BLS-style threshold *signatures* hash to the group with a known
//!   discrete log, which makes verification pairing-free but shares
//!   forgeable by anyone (documented in [`thresh_sig`]). Agreement,
//!   uniqueness and the message flow are faithful; unforgeability is not.
//! * The Schnorr packet signatures and the threshold encryption are real
//!   constructions at toy parameters.
//!
//! Computation *cost* is decoupled from this implementation: the simulator
//! charges the per-operation virtual CPU times of the MIRACL / micro-ecc
//! deployments measured in the paper (see [`profile`]).
//!
//! ## Fast paths
//!
//! Real wall-clock (as opposed to the charged virtual cost) is dominated by
//! group exponentiation, so the crate ships a fast-path engine — fixed-base
//! window tables ([`group::PrecomputedBase`], plus a process-wide generator
//! table behind [`GroupElem::from_exponent`]), simultaneous
//! multi-exponentiation ([`GroupElem::multi_pow`]), share quorums at table
//! cost ([`thresh_sig::PublicKeySet`], under certificates, proofs and the
//! common coin alike, checks each share with one window-table pow per share
//! key, and `combine_verified` reads a checked quorum's output off the
//! group key's table instead of interpolating), memoized batch-inverted
//! Lagrange coefficients ([`shamir::lagrange_coeffs_at_zero`]), and one
//! per-thread verdict memo ([`memo`]) for the verification predicates
//! every receiver of a broadcast repeats — which the producer of a
//! signature or share also writes its own verdict into, so a verifier on
//! the signer's thread (every simulated receiver) finds the answer waiting.
//! None of it perturbs determinism: every cache is keyed purely by its
//! inputs. See the workspace README
//! ("Crypto fast paths") for measured numbers.

pub mod field;
pub mod group;
pub mod hash;
mod limbs;
pub mod memo;
pub mod merkle;
pub mod profile;
mod quorum;
pub mod reshare;
pub mod schnorr;
pub mod shamir;
pub mod thresh_coin;
pub mod thresh_enc;
pub mod thresh_sig;

pub use field::{Fe, Scalar};
pub use group::{GroupElem, PrecomputedBase};
pub use hash::Digest32;
pub use profile::{
    CoinProfile, CryptoSuite, EcdsaCurve, EcdsaProfile, ThresholdCurve, ThresholdProfile,
};
pub use shamir::ShareIndex;
