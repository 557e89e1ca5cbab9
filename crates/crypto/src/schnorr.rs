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

use crate::field::Scalar;
use crate::group::GroupElem;
use crate::hash::hash_to_scalar;
use crate::memo::{self, Predicate};
use crate::profile::EcdsaCurve;
use rand::RngCore;

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
    /// The signer knows its signature verifies and that `R = g^k` is a group
    /// member, so it records both verdicts in the memo ([`crate::memo`])
    /// under the keys a verifier would ask: receivers simulated on this
    /// thread are answered without redoing the check.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let k = hash_to_scalar("wbft/schnorr/nonce", &[&self.sk.to_bytes(), msg]);
        let r = GroupElem::from_exponent(&k);
        let e = challenge(&r, &self.pk, msg);
        let z = k.add(&e.mul(&self.sk));
        r.record_member();
        memo::record(Predicate::Schnorr, e.to_bytes(), z.to_bytes(), || {
            schnorr_equation(&r, &self.pk, &e, &z)
        });
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
    /// The algebraic check `g^z == R · pk^e` goes through the verdict memo
    /// ([`crate::memo`]) under `(e, z)`: `e = H(R ‖ pk ‖ m)` binds the
    /// commitment, the key and the message, so the `n − 1` receivers of one
    /// simulated broadcast (and every byte-identical retransmission) pay the
    /// two exponentiations once and the challenge hash each time.
    ///
    /// # Errors
    ///
    /// [`InvalidSignature`] on mismatch.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), InvalidSignature> {
        let e = challenge(&sig.r, &self.point, msg);
        let valid = memo::verdict(Predicate::Schnorr, e.to_bytes(), sig.z.to_bytes(), || {
            schnorr_equation(&sig.r, &self.point, &e, &sig.z)
        });
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
    fn wire_bytes_follow_curve_profile() {
        let kp = keypair();
        assert_eq!(kp.public().signature_wire_bytes(), 40);
    }
}
