//! Per-packet digital signatures (the `Signature` field every
//! ConsensusBatcher packet carries — paper §IV-B1).
//!
//! Deterministic Schnorr over the prime-order group: `R = g^k`,
//! `e = H(R ‖ pk ‖ m)`, `z = k + e·x`. Verification `g^z == R · pk^e` is the
//! genuine algebraic check — unlike the threshold module, this scheme is a
//! real signature (its security reduces to discrete log in the simulation
//! group; the group itself is undersized for production use, which is fine
//! for a testbed). The *charged* cost and wire size come from the selected
//! micro-ecc curve profile.
//!
//! ## The transcript table
//!
//! Signing is deterministic, so a signature is a pure function of the key
//! pair and the exact message bytes, and a verdict a pure function of the
//! verification key, the bytes and the signature. One per-thread
//! [`AnswerTable`] holds both, keyed by `(verification key, exact message
//! bytes)` and answering with the signature, its verdict and whether
//! [`KeyPair::sign`] wrote it:
//!
//! * **sign** reads it first: a byte-identical re-send (a retransmission
//!   tick re-airs unchanged packets) returns the stored signature. Only an
//!   entry `sign` wrote is reused. Builds with debug assertions recompute
//!   the signature and compare.
//! * **verify** reads it before hashing: when this thread signed exactly
//!   these bytes, or verified exactly this signature over them before, the
//!   stored verdict answers — a compare instead of a SHA-512 pass and two
//!   exponentiations. A verdict it computes is stored the same way.
//!
//! An entry answers a verifier only for the very signature it holds, and
//! the key is compared in full (the set is picked by a mix of the bytes),
//! so flipped bytes, another key or another signature over the same bytes
//! find no answer and are computed (another signature's verdict never
//! displaces a valid entry for the same bytes); a collision or an eviction
//! costs a recomputation, never an answer. On the simulator's thread every
//! receiver of a frame is answered by its signer's entry; on a UDP node
//! thread a duplicate receipt is.

use crate::field::Scalar;
use crate::group::GroupElem;
use crate::hash::hash_to_scalar;
use crate::profile::EcdsaCurve;
use crate::table::{self, AnswerTable, Stats};
use rand::RngCore;
use std::cell::RefCell;

/// A signing keypair for one node.
#[derive(Clone, Debug)]
pub struct KeyPair {
    sk: Scalar,
    pk: GroupElem,
    curve: EcdsaCurve,
}

/// A public verification key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PublicKey {
    point: GroupElem,
    curve: EcdsaCurve,
}

/// A Schnorr signature `(R, z)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Signature {
    /// Commitment `g^k`.
    pub r: GroupElem,
    /// Response `k + e·x`.
    pub z: Scalar,
}

/// Error returned when a signature fails verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidSignature;

impl core::fmt::Display for InvalidSignature {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid packet signature")
    }
}

impl std::error::Error for InvalidSignature {}

/// The two users of the transcript table, each with its own counters
/// ([`stats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// [`KeyPair::sign`]: a hit is a reused signature, a miss a fresh one.
    Signer,
    /// [`PublicKey::verify`]: a hit is a stored verdict, a miss a computed
    /// one (challenge hash and equation).
    Verifier,
}

/// Sets of the transcript table. With [`WAYS`] a constant sized to memory,
/// not a knob: each entry holds one copy of its message, and 256 entries
/// span the window in which a frame is received and re-sent. On the
/// benchmark's 16-node multi-hop set they reuse 16 221 of 60 905
/// signatures (128 entries: 12 274; 512: 18 574); on the 4-node
/// single-hop set 9 945 of 46 827, about what any larger table reuses.
pub const SETS: usize = 64;

/// Entries per set.
pub const WAYS: usize = 4;

/// A table key: the verification key and the exact signed bytes.
#[derive(PartialEq)]
struct Transcript {
    pk: GroupElem,
    msg: Box<[u8]>,
}

impl PartialEq<(&GroupElem, &[u8])> for Transcript {
    fn eq(&self, (pk, msg): &(&GroupElem, &[u8])) -> bool {
        self.pk == **pk && *self.msg == **msg
    }
}

/// What the table knows about a transcript.
#[derive(Clone, Copy)]
struct Answer {
    sig: Signature,
    valid: bool,
    /// Written by [`KeyPair::sign`]: the signature is this key's own.
    signed: bool,
}

thread_local! {
    /// Per thread, like the verdict memo.
    static TRANSCRIPTS: RefCell<AnswerTable<Transcript, Answer, 2>> =
        RefCell::new(AnswerTable::new(SETS, WAYS));
}

/// The set hint of a transcript: a mix of the bytes, and the key's first
/// word.
fn hint(pk: &GroupElem, msg: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&pk.to_bytes()[..8]);
    table::mix(msg) ^ u64::from_le_bytes(word)
}

/// Consults the transcript table for `(pk, msg)` on behalf of `role`.
fn lookup(
    role: Role,
    hint: u64,
    pk: &GroupElem,
    msg: &[u8],
    usable: impl FnOnce(&Answer) -> bool,
) -> Option<Answer> {
    TRANSCRIPTS.with(|t| t.borrow_mut().lookup(role as usize, hint, &(pk, msg), usable))
}

fn store(hint: u64, pk: &GroupElem, msg: &[u8], answer: Answer) {
    let key = Transcript { pk: *pk, msg: msg.into() };
    TRANSCRIPTS.with(|t| t.borrow_mut().insert(hint, key, answer));
}

/// This thread's transcript-table counters for `role`.
pub fn stats(role: Role) -> Stats {
    TRANSCRIPTS.with(|t| t.borrow().stats(role as usize))
}

/// Forgets every stored signature and verdict and zeroes the counters of
/// this thread (the counterpart of [`crate::memo::clear`]): the next sign
/// and the next verify compute.
pub fn clear() {
    TRANSCRIPTS.with(|t| t.borrow_mut().clear());
}

impl KeyPair {
    /// Generates a keypair; `curve` selects the cost/size profile charged
    /// for its operations.
    pub fn generate(curve: EcdsaCurve, rng: &mut impl RngCore) -> Self {
        let sk = Scalar::random(rng);
        let pk = GroupElem::from_exponent(&sk);
        KeyPair { sk, pk, curve }
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        PublicKey { point: self.pk, curve: self.curve }
    }

    /// Signs a message (deterministic nonce, RFC-6979 style).
    ///
    /// Through the transcript table (see the [module docs](self)): a
    /// message this key signed recently is answered with the stored
    /// signature, and a fresh signature is stored for the verifiers and
    /// re-sends that follow. Either way the signer also records that
    /// `R = g^k` is a group member in the verdict memo ([`crate::memo`]),
    /// under the key the decoder asks before `verify` runs.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let hint = hint(&self.pk, msg);
        let sig = match lookup(Role::Signer, hint, &self.pk, msg, |a| a.signed) {
            Some(stored) => {
                debug_assert_eq!(stored.sig, self.compute(msg), "a stored signature differs");
                stored.sig
            }
            None => {
                let sig = self.compute(msg);
                store(hint, &self.pk, msg, Answer { sig, valid: true, signed: true });
                sig
            }
        };
        sig.r.record_member();
        sig
    }

    /// The signature itself. Builds with debug assertions check it
    /// verifies, so a signer bug cannot hide behind its own table entry.
    fn compute(&self, msg: &[u8]) -> Signature {
        let k = hash_to_scalar("wbft/schnorr/nonce", &[&self.sk.to_bytes(), msg]);
        let r = GroupElem::from_exponent(&k);
        let e = challenge(&r, &self.pk, msg);
        let z = k.add(&e.mul(&self.sk));
        debug_assert!(schnorr_equation(&r, &self.pk, &e, &z), "a fresh signature does not verify");
        Signature { r, z }
    }

    /// The curve profile this keypair charges.
    pub fn curve(&self) -> EcdsaCurve {
        self.curve
    }
}

impl PublicKey {
    /// Verifies `sig` over `msg`.
    ///
    /// Through the transcript table (see the [module docs](self)): when
    /// this thread signed exactly `msg` under this key and produced exactly
    /// `sig`, or verified `sig` over `msg` before, the stored verdict
    /// answers. Otherwise the challenge `e = H(R ‖ pk ‖ m)` is hashed, the
    /// equation `g^z == R · pk^e` is checked and the verdict stored — unless
    /// the table holds a valid signature over these bytes: that entry keeps
    /// its place, so a tampered copy of an honest frame cannot displace the
    /// answer its honest receivers ask for.
    ///
    /// # Errors
    ///
    /// [`InvalidSignature`] on mismatch.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), InvalidSignature> {
        let hint = hint(&self.point, msg);
        let mut holds_valid = false;
        let stored = lookup(Role::Verifier, hint, &self.point, msg, |a| {
            holds_valid = a.valid;
            a.sig == *sig
        });
        let valid = match stored {
            Some(stored) => stored.valid,
            None => {
                let e = challenge(&sig.r, &self.point, msg);
                let valid = schnorr_equation(&sig.r, &self.point, &e, &sig.z);
                if !holds_valid {
                    store(hint, &self.point, msg, Answer { sig: *sig, valid, signed: false });
                }
                valid
            }
        };
        if valid {
            Ok(())
        } else {
            Err(InvalidSignature)
        }
    }

    /// The wire size charged for signatures under this key.
    pub fn signature_wire_bytes(&self) -> usize {
        self.curve.profile().signature_bytes
    }
}

/// The verification equation `g^z == R · pk^e`.
fn schnorr_equation(r: &GroupElem, pk: &GroupElem, e: &Scalar, z: &Scalar) -> bool {
    GroupElem::from_exponent(z) == r.mul(&pk.pow(e))
}

fn challenge(r: &GroupElem, pk: &GroupElem, msg: &[u8]) -> Scalar {
    hash_to_scalar("wbft/schnorr/e", &[&r.to_bytes(), &pk.to_bytes(), msg])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn keypair() -> KeyPair {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        KeyPair::generate(EcdsaCurve::Secp160r1, &mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair();
        let sig = kp.sign(b"packet bytes");
        kp.public().verify(b"packet bytes", &sig).unwrap();
    }

    #[test]
    fn wrong_message_rejected() {
        let kp = keypair();
        let sig = kp.sign(b"m1");
        assert_eq!(kp.public().verify(b"m2", &sig), Err(InvalidSignature));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let kp1 = KeyPair::generate(EcdsaCurve::Secp160r1, &mut rng);
        let kp2 = KeyPair::generate(EcdsaCurve::Secp160r1, &mut rng);
        let sig = kp1.sign(b"m");
        assert_eq!(kp2.public().verify(b"m", &sig), Err(InvalidSignature));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = keypair();
        let mut sig = kp.sign(b"m");
        sig.z = sig.z.add(&Scalar::ONE);
        assert_eq!(kp.public().verify(b"m", &sig), Err(InvalidSignature));
    }

    #[test]
    fn signing_is_deterministic() {
        let kp = keypair();
        assert_eq!(kp.sign(b"m"), kp.sign(b"m"));
        assert_ne!(kp.sign(b"m"), kp.sign(b"n"));
    }

    #[test]
    fn a_resend_reuses_and_the_signers_entry_answers_only_its_own_signature() {
        let kp = keypair();
        clear();
        let sig = kp.sign(b"frame");
        assert_eq!(kp.sign(b"frame"), sig);
        assert_eq!(stats(Role::Signer), Stats { hits: 1, misses: 1, recorded: 0 });
        kp.public().verify(b"frame", &sig).unwrap();
        assert_eq!(stats(Role::Verifier), Stats { hits: 1, misses: 0, recorded: 0 });
        let mut other = sig;
        other.z = other.z.add(&Scalar::ONE);
        assert_eq!(kp.public().verify(b"frame", &other), Err(InvalidSignature));
        assert_eq!(stats(Role::Verifier), Stats { hits: 1, misses: 1, recorded: 0 });
        // The refusal did not displace the signer's entry.
        kp.public().verify(b"frame", &sig).unwrap();
        assert_eq!(kp.public().verify(b"frame", &other), Err(InvalidSignature));
        assert_eq!(stats(Role::Verifier), Stats { hits: 2, misses: 2, recorded: 0 });
        assert_eq!(kp.sign(b"frame"), sig);
        assert_eq!(stats(Role::Signer), Stats { hits: 2, misses: 1, recorded: 0 });
    }

    #[test]
    fn a_verifiers_entry_is_never_reused_as_a_signature() {
        let kp = keypair();
        let sig = kp.sign(b"frame");
        clear();
        kp.public().verify(b"frame", &sig).unwrap();
        assert_eq!(kp.sign(b"frame"), sig);
        assert_eq!(stats(Role::Signer), Stats { hits: 0, misses: 1, recorded: 0 });
        assert_eq!(stats(Role::Verifier), Stats { hits: 0, misses: 1, recorded: 0 });
    }

    #[test]
    fn wire_bytes_follow_curve_profile() {
        let kp = keypair();
        assert_eq!(kp.public().signature_wire_bytes(), 40);
    }
}
