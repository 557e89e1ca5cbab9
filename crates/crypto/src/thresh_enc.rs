//! `(f, n)` threshold encryption — HoneyBadgerBFT's censorship-resilience
//! layer (§II of the paper: "practical implementation using threshold
//! encryption and ACS").
//!
//! Hybrid threshold ElGamal in the prime-order group: a ciphertext is
//! `(u = g^r, ct = pt ⊕ KS(H(vk^r)), tag)`. Node `i`'s decryption share is
//! `u^{s_i}`; `f+1` shares Lagrange-combine to `u^s = vk^r`, recovering the
//! keystream. The adversary's `f` shares reveal nothing about `vk^r`
//! (information-theoretically short of the DDH break), so a Byzantine member
//! cannot selectively censor transactions it can read — the property
//! HoneyBadgerBFT actually needs.
//!
//! Unlike the signature module, nothing here needs pairings, so this scheme
//! is the real construction (a CPA-secure TDH0-style scheme with a
//! ciphertext-integrity tag; no CCA proof intended).
//!
//! The decryption key `u^s` is a power of the ciphertext's `u` by the
//! discrete log of `vk`, so it goes through the per-thread power table
//! ([`crate::quorum`]) under `(u, log vk)`. The encryptor knows it as
//! `vk^r` and records it; [`EncPublicSet::decrypt_verified`], given shares
//! that each passed their DLEQ check, reads it from there and interpolates
//! only when the table does not hold it. [`EncPublicSet::decrypt`] stays the
//! reference for shares nobody checked.

use crate::field::Scalar;
use crate::group::GroupElem;
use crate::hash::{hash_to_scalar, keystream, Digest32};
use crate::memo::{self, Predicate};
use crate::profile::ThresholdCurve;
use crate::quorum::{self, interpolate, Exponent, Item, Lane};
use crate::shamir::{Polynomial, ShamirError, ShareIndex};
use rand::RngCore;

/// Errors from threshold decryption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreshEncError {
    /// A decryption share failed verification.
    InvalidShare { index: u16 },
    /// The integrity tag did not match after combination.
    IntegrityFailure,
    /// Underlying share-set error.
    Shamir(ShamirError),
}

impl core::fmt::Display for ThreshEncError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ThreshEncError::InvalidShare { index } => {
                write!(f, "invalid decryption share from index {index}")
            }
            ThreshEncError::IntegrityFailure => write!(f, "ciphertext integrity check failed"),
            ThreshEncError::Shamir(e) => write!(f, "decryption share set error: {e}"),
        }
    }
}

impl std::error::Error for ThreshEncError {}

impl From<ShamirError> for ThreshEncError {
    fn from(e: ShamirError) -> Self {
        ThreshEncError::Shamir(e)
    }
}

/// Public encryption key material.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncPublicSet {
    curve: ThresholdCurve,
    threshold: usize,
    vk: GroupElem,
    vk_shares: Vec<GroupElem>,
}

/// One node's secret decryption key share, with its verification key
/// `vk_i = g^{s_i}`.
#[derive(Clone, Debug)]
pub struct EncSecretShare {
    index: ShareIndex,
    secret: Scalar,
    vk_share: GroupElem,
}

/// A hybrid threshold ciphertext.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ciphertext {
    /// `g^r`.
    pub u: GroupElem,
    /// `pt ⊕ keystream`.
    pub body: Vec<u8>,
    /// Integrity tag binding `(u, body, label)` to the shared key.
    pub tag: Digest32,
}

impl Ciphertext {
    /// Total wire size in bytes (32-byte `u` + body + 32-byte tag).
    pub fn wire_len(&self) -> usize {
        32 + self.body.len() + 32
    }
}

/// A Chaum–Pedersen DLEQ proof that a decryption share was computed with
/// the same secret exponent as the prover's verification key: knowledge of
/// `s` with `vk_i = g^s` **and** `d = u^s` for the *specific* ciphertext
/// point `u`. This is what binds a share to its ciphertext — a share for
/// ciphertext A replays a proof over A's `u`, which cannot verify against
/// ciphertext B's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DleqProof {
    /// Fiat–Shamir challenge `c = H(i, u, vk_i, d, g^k, u^k)`.
    pub c: Scalar,
    /// Response `z = k − c·s`.
    pub z: Scalar,
}

/// A decryption share `(i, u^{s_i}, π)` with its DLEQ proof.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecShare {
    /// Producing share index.
    pub index: ShareIndex,
    /// The group element `u^{s_i}`.
    pub value: GroupElem,
    /// Proof that `value` is `u^{s_i}` for this ciphertext's `u`.
    pub proof: DleqProof,
}

/// The DLEQ Fiat–Shamir challenge.
fn dleq_challenge(
    index: ShareIndex,
    u: &GroupElem,
    vk_i: &GroupElem,
    d: &GroupElem,
    a1: &GroupElem,
    a2: &GroupElem,
) -> Scalar {
    hash_to_scalar(
        "wbft/thresh-enc/dleq",
        &[
            &index.value().to_le_bytes(),
            &u.to_bytes(),
            &vk_i.to_bytes(),
            &d.to_bytes(),
            &a1.to_bytes(),
            &a2.to_bytes(),
        ],
    )
}

/// The verdict-memo key of a DLEQ proof with challenge `c` for the
/// statement `(i, u, vk_i, d)`; the response `z` completes it.
fn dleq_statement(
    index: ShareIndex,
    u: &GroupElem,
    vk_i: &GroupElem,
    d: &GroupElem,
    c: &Scalar,
) -> [u8; 32] {
    Digest32::of_parts(
        "wbft/memo/dleq",
        &[
            &index.value().to_le_bytes(),
            &u.to_bytes(),
            &vk_i.to_bytes(),
            &d.to_bytes(),
            &c.to_bytes(),
        ],
    )
    .0
}

/// The DLEQ check of [`EncPublicSet::verify_share`], uncached.
fn dleq_holds(
    index: ShareIndex,
    u: &GroupElem,
    vk_i: &GroupElem,
    d: &GroupElem,
    proof: &DleqProof,
) -> bool {
    let DleqProof { c, z } = *proof;
    let a1 = GroupElem::multi_pow(&[(GroupElem::generator(), z), (*vk_i, c)]);
    let a2 = GroupElem::multi_pow(&[(*u, z), (*d, c)]);
    dleq_challenge(index, u, vk_i, d, &a1, &a2) == c
}

/// Deals a `(threshold, n)` encryption key set; HoneyBadgerBFT uses
/// `threshold = f`.
pub fn deal_enc(
    n: usize,
    threshold: usize,
    curve: ThresholdCurve,
    rng: &mut impl RngCore,
) -> (EncPublicSet, Vec<EncSecretShare>) {
    assert!(threshold < n, "threshold {threshold} must be < n {n}");
    let poly = Polynomial::random(Scalar::random(rng), threshold, rng);
    let vk = GroupElem::from_exponent(&poly.secret());
    let mut vk_shares = Vec::with_capacity(n);
    let mut secrets = Vec::with_capacity(n);
    for i in 0..n {
        let index = ShareIndex::for_node(i);
        let s_i = poly.share(index);
        let vk_share = GroupElem::from_exponent(&s_i);
        vk_shares.push(vk_share);
        secrets.push(EncSecretShare { index, secret: s_i, vk_share });
    }
    (EncPublicSet { curve, threshold, vk, vk_shares }, secrets)
}

impl EncPublicSet {
    /// Assembles an encryption set from rolled parts (resharing ceremony);
    /// `vk` stays the genesis value, so ciphertexts encrypted before the
    /// roll remain decryptable by the new committee.
    pub fn from_parts(
        curve: ThresholdCurve,
        threshold: usize,
        vk: GroupElem,
        vk_shares: Vec<GroupElem>,
    ) -> Self {
        EncPublicSet { curve, threshold, vk, vk_shares }
    }

    /// The combined encryption key `g^s` — stable across resharing.
    pub fn group_key(&self) -> GroupElem {
        self.vk
    }

    /// Per-share verification keys, by zero-based node slot.
    pub fn share_keys(&self) -> &[GroupElem] {
        &self.vk_shares
    }

    /// Shares needed to decrypt.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Number of shares dealt.
    pub fn n(&self) -> usize {
        self.vk_shares.len()
    }

    /// The curve whose costs this key set charges.
    pub fn curve(&self) -> ThresholdCurve {
        self.curve
    }

    /// Encrypts `plaintext` under this key set, bound to `label`
    /// (HoneyBadgerBFT labels each ciphertext with `(epoch, proposer)`).
    ///
    /// The encryptor drew `r`, so it knows the decryption key `u^s = vk^r`
    /// and that `u = g^r` is a group member: it records the first in the
    /// power table ([`crate::quorum`]) under `(u, log vk)` and the second in
    /// the verdict memo ([`crate::memo`]).
    pub fn encrypt(&self, label: &[u8], plaintext: &[u8], rng: &mut impl RngCore) -> Ciphertext {
        let r = Scalar::random(rng);
        let u = GroupElem::from_exponent(&r);
        let shared = self.vk.pow(&r);
        u.record_member();
        quorum::record(Lane::DecryptionKey, u, Exponent::LogOf(self.vk), shared, || {
            GroupElem::from_exponent(&r) == u && self.vk.pow(&r) == shared
        });
        let key = shared.to_bytes();
        let ks = keystream(&key, label, plaintext.len());
        let body: Vec<u8> = plaintext.iter().zip(&ks).map(|(p, k)| p ^ k).collect();
        let tag = Digest32::of_parts("wbft/thresh-enc/tag", &[&key, &u.to_bytes(), &body, label]);
        Ciphertext { u, body, tag }
    }

    /// Verifies a peer's decryption share against a ciphertext by checking
    /// its Chaum–Pedersen DLEQ proof: recompute `A₁ = g^z·vk_i^c` and
    /// `A₂ = u^z·d^c` and require `c = H(i, u, vk_i, d, A₁, A₂)`. The
    /// ciphertext's `u` enters both the equation and the challenge hash, so
    /// a share produced for a different ciphertext cannot verify — and a
    /// bogus `d` is rejected *before* it can poison a combination. The two
    /// multi-exponentiations go through the verdict memo ([`crate::memo`])
    /// under `(H(i ‖ u ‖ vk_i ‖ d ‖ c), z)` — the whole statement and proof.
    ///
    /// # Errors
    ///
    /// [`ThreshEncError::InvalidShare`] on a bad proof or an out-of-range
    /// index.
    pub fn verify_share(&self, ct: &Ciphertext, share: &DecShare) -> Result<(), ThreshEncError> {
        let i = share.index.value() as usize;
        if i == 0 || i > self.vk_shares.len() {
            return Err(ThreshEncError::InvalidShare { index: share.index.value() });
        }
        let vk_i = self.vk_shares[i - 1];
        let statement = dleq_statement(share.index, &ct.u, &vk_i, &share.value, &share.proof.c);
        let valid = memo::verdict(Predicate::Dleq, statement, share.proof.z.to_bytes(), || {
            dleq_holds(share.index, &ct.u, &vk_i, &share.value, &share.proof)
        });
        if valid {
            Ok(())
        } else {
            Err(ThreshEncError::InvalidShare { index: share.index.value() })
        }
    }

    /// Combines `threshold + 1` decryption shares and decrypts.
    ///
    /// # Errors
    ///
    /// [`ThreshEncError::IntegrityFailure`] if any combined share was bogus
    /// (the recovered keystream then fails the tag check); share-set errors
    /// otherwise.
    pub fn decrypt(
        &self,
        label: &[u8],
        ct: &Ciphertext,
        shares: &[DecShare],
    ) -> Result<Vec<u8>, ThreshEncError> {
        let key = interpolate(self.threshold, &items(shares))?;
        open(label, ct, &key)
    }

    /// [`Self::decrypt`] for distinct shares that *each passed*
    /// [`Self::verify_share`] against `ct`: they combine to the decryption
    /// key `u^s`, so it is read from the power table ([`crate::quorum`]) —
    /// the encryptor's record, or an earlier decryption's — and interpolated
    /// only when the table does not hold it. The caller guarantees the
    /// precondition; builds with debug assertions interpolate every time
    /// and panic on a difference.
    ///
    /// # Errors
    ///
    /// As [`Self::decrypt`]: [`ThreshEncError::IntegrityFailure`] when the
    /// ciphertext's tag does not match (a Byzantine proposer's ciphertext),
    /// [`ThreshEncError::Shamir`] when fewer than `threshold + 1` shares are
    /// given or, on a table miss, their index set is unusable.
    pub fn decrypt_verified(
        &self,
        label: &[u8],
        ct: &Ciphertext,
        shares: &[DecShare],
    ) -> Result<Vec<u8>, ThreshEncError> {
        let need = self.threshold + 1;
        if shares.len() < need {
            return Err(ShamirError::NotEnoughShares { got: shares.len(), need }.into());
        }
        let log_vk = Exponent::LogOf(self.vk);
        let key = match quorum::lookup(Lane::DecryptionKey, &ct.u, log_vk) {
            Some(key) => {
                debug_assert_eq!(
                    interpolate(self.threshold, &items(shares)),
                    Ok(key),
                    "a decryption share of the quorum never passed its check"
                );
                key
            }
            None => {
                let key = interpolate(self.threshold, &items(shares))?;
                quorum::insert(&ct.u, log_vk, key);
                key
            }
        };
        open(label, ct, &key)
    }
}

fn items(shares: &[DecShare]) -> Vec<Item> {
    shares.iter().map(|s| (s.index, s.value)).collect()
}

/// Checks `ct`'s tag under the decryption key `key` and strips the
/// keystream.
fn open(label: &[u8], ct: &Ciphertext, key: &GroupElem) -> Result<Vec<u8>, ThreshEncError> {
    let key = key.to_bytes();
    let expect_tag =
        Digest32::of_parts("wbft/thresh-enc/tag", &[&key, &ct.u.to_bytes(), &ct.body, label]);
    if expect_tag != ct.tag {
        return Err(ThreshEncError::IntegrityFailure);
    }
    let ks = keystream(&key, label, ct.body.len());
    Ok(ct.body.iter().zip(&ks).map(|(c, k)| c ^ k).collect())
}

impl EncSecretShare {
    /// Assembles a share from rolled parts (resharing combination).
    pub fn from_parts(index: ShareIndex, secret: Scalar) -> Self {
        EncSecretShare { index, secret, vk_share: GroupElem::from_exponent(&secret) }
    }

    /// The raw secret scalar, for acting as a resharing dealer.
    pub fn secret_scalar(&self) -> Scalar {
        self.secret
    }

    /// This share's index.
    pub fn index(&self) -> ShareIndex {
        self.index
    }

    /// Produces this node's decryption share for a ciphertext, with its
    /// DLEQ proof. The proof nonce is derived deterministically from the
    /// secret and the statement (RFC 6979 style), so signing needs no RNG
    /// and re-producing the share for retransmission is reproducible. The
    /// producer knows its proof verifies, so it records the verdict in the
    /// memo ([`crate::memo`]) under the key a verifier would ask.
    pub fn dec_share(&self, ct: &Ciphertext) -> DecShare {
        let d = ct.u.pow(&self.secret);
        d.record_member();
        let vk_i = self.vk_share;
        let k = hash_to_scalar(
            "wbft/thresh-enc/dleq-nonce",
            &[&self.secret.to_bytes(), &ct.u.to_bytes(), &d.to_bytes()],
        );
        let a1 = GroupElem::from_exponent(&k);
        let a2 = ct.u.pow(&k);
        let c = dleq_challenge(self.index, &ct.u, &vk_i, &d, &a1, &a2);
        let proof = DleqProof { c, z: k.sub(&c.mul(&self.secret)) };
        memo::record(
            Predicate::Dleq,
            dleq_statement(self.index, &ct.u, &vk_i, &d, &c),
            proof.z.to_bytes(),
            || dleq_holds(self.index, &ct.u, &vk_i, &d, &proof),
        );
        DecShare { index: self.index, value: d, proof }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (EncPublicSet, Vec<EncSecretShare>, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let (p, s) = deal_enc(4, 1, ThresholdCurve::Bn158, &mut rng);
        (p, s, rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (pks, sks, mut rng) = setup();
        let pt = b"batch: tx1|tx2|tx3".to_vec();
        let ct = pks.encrypt(b"epoch-0:node-2", &pt, &mut rng);
        assert_ne!(ct.body, pt, "ciphertext must differ from plaintext");
        let shares: Vec<_> = sks.iter().map(|s| s.dec_share(&ct)).collect();
        let out = pks.decrypt(b"epoch-0:node-2", &ct, &shares[1..3]).unwrap();
        assert_eq!(out, pt);
    }

    #[test]
    fn any_quorum_decrypts() {
        let (pks, sks, mut rng) = setup();
        let pt = b"payload".to_vec();
        let ct = pks.encrypt(b"l", &pt, &mut rng);
        let shares: Vec<_> = sks.iter().map(|s| s.dec_share(&ct)).collect();
        for a in 0..4 {
            for b in (a + 1)..4 {
                let out = pks.decrypt(b"l", &ct, &[shares[a], shares[b]]).unwrap();
                assert_eq!(out, pt);
            }
        }
    }

    #[test]
    fn wrong_label_fails_integrity() {
        let (pks, sks, mut rng) = setup();
        let ct = pks.encrypt(b"label-A", b"pt", &mut rng);
        let shares: Vec<_> = sks[..2].iter().map(|s| s.dec_share(&ct)).collect();
        assert_eq!(
            pks.decrypt(b"label-B", &ct, &shares),
            Err(ThreshEncError::IntegrityFailure)
        );
    }

    #[test]
    fn corrupted_share_fails_integrity() {
        let (pks, sks, mut rng) = setup();
        let ct = pks.encrypt(b"l", b"pt", &mut rng);
        let mut bad = sks[0].dec_share(&ct);
        bad.value = bad.value.mul(&GroupElem::generator());
        let good = sks[1].dec_share(&ct);
        assert_eq!(pks.decrypt(b"l", &ct, &[bad, good]), Err(ThreshEncError::IntegrityFailure));
    }

    #[test]
    fn corrupted_body_fails_integrity() {
        let (pks, sks, mut rng) = setup();
        let mut ct = pks.encrypt(b"l", b"some plaintext", &mut rng);
        ct.body[0] ^= 1;
        let shares: Vec<_> = sks[..2].iter().map(|s| s.dec_share(&ct)).collect();
        assert_eq!(pks.decrypt(b"l", &ct, &shares), Err(ThreshEncError::IntegrityFailure));
    }

    #[test]
    fn honest_shares_carry_valid_dleq_proofs() {
        let (pks, sks, mut rng) = setup();
        let ct = pks.encrypt(b"l", b"pt", &mut rng);
        for sk in &sks {
            pks.verify_share(&ct, &sk.dec_share(&ct)).unwrap();
        }
    }

    #[test]
    fn share_for_other_ciphertext_is_rejected() {
        // Regression: verify_share used to ignore its ciphertext argument,
        // so a share for ciphertext A verified against ciphertext B.
        let (pks, sks, mut rng) = setup();
        let ct_a = pks.encrypt(b"label-A", b"plaintext A", &mut rng);
        let ct_b = pks.encrypt(b"label-B", b"plaintext B", &mut rng);
        let share_for_a = sks[0].dec_share(&ct_a);
        pks.verify_share(&ct_a, &share_for_a).unwrap();
        assert_eq!(
            pks.verify_share(&ct_b, &share_for_a),
            Err(ThreshEncError::InvalidShare { index: 1 })
        );
    }

    #[test]
    fn tampered_share_value_fails_dleq() {
        let (pks, sks, mut rng) = setup();
        let ct = pks.encrypt(b"l", b"pt", &mut rng);
        let mut bad = sks[2].dec_share(&ct);
        bad.value = bad.value.mul(&GroupElem::generator());
        assert_eq!(
            pks.verify_share(&ct, &bad),
            Err(ThreshEncError::InvalidShare { index: 3 })
        );
        // A proof transplanted onto another index fails too.
        let mut wrong_index = sks[0].dec_share(&ct);
        wrong_index.index = sks[1].index();
        assert!(pks.verify_share(&ct, &wrong_index).is_err());
    }

    #[test]
    fn too_few_shares_rejected() {
        let (pks, sks, mut rng) = setup();
        let ct = pks.encrypt(b"l", b"pt", &mut rng);
        let shares = [sks[0].dec_share(&ct)];
        assert!(matches!(pks.decrypt(b"l", &ct, &shares), Err(ThreshEncError::Shamir(_))));
    }

    #[test]
    fn empty_plaintext_roundtrips() {
        let (pks, sks, mut rng) = setup();
        let ct = pks.encrypt(b"l", b"", &mut rng);
        let shares: Vec<_> = sks[..2].iter().map(|s| s.dec_share(&ct)).collect();
        assert_eq!(pks.decrypt(b"l", &ct, &shares).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn wire_len_accounts_for_all_parts() {
        let (pks, _, mut rng) = setup();
        let ct = pks.encrypt(b"l", &[0u8; 100], &mut rng);
        assert_eq!(ct.wire_len(), 32 + 100 + 32);
    }
}
