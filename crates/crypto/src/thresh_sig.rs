//! `(t, n)` threshold signatures — the PRBC DONE phase, CBC echoes, and the
//! common coin (a threshold signature on the coin's name, see
//! [`crate::thresh_coin`]) all build on these.
//!
//! BLS-style construction in the pairing-free group of [`crate::group`]:
//! a trusted dealer shares a secret `s` with a degree-`t` Shamir polynomial;
//! node `i` signs message `m` as `σ_i = h^{s_i}` with `h = H(m)` hashed into
//! the group; any `t+1` shares combine by Lagrange interpolation in the
//! exponent to `σ = h^s`.
//!
//! Because [`GroupElem::hash_to_group`] produces `h = g^{e}` with known
//! exponent `e = H(m)`, share verification is the *real* algebraic check
//! `σ_i == vk_i^{e}` using only public data (`vk_i = g^{s_i}`), and combined
//! verification is `σ == vk^{e}` — no pairings needed. Both run through
//! window tables for `vk` and every `vk_i`, built on the first check. A
//! quorum of checked shares therefore combines to `vk^e` without
//! interpolating ([`PublicKeySet::combine_verified`]). The trade-off, stated
//! plainly: with a known-discrete-log `h`, anyone can *forge* shares by
//! computing `vk_i^{e}` themselves, so this scheme is **not secure against a
//! cryptographic adversary**. It is structurally faithful (same API, same
//! message flow, same combinatorics, agreement and uniqueness hold) and the
//! simulator charges the real pairing costs from
//! [`crate::profile::ThresholdProfile`]. See DESIGN.md §2.

use crate::field::Scalar;
use crate::group::{GroupElem, PrecompCache};
use crate::hash::{hash_to_scalar, Digest32};
use crate::memo::{self, Predicate};
use crate::profile::{ThresholdCurve, ThresholdProfile};
use crate::quorum::{interpolate, Item, KeyTables};
use crate::shamir::{Polynomial, ShamirError, ShareIndex};
use rand::RngCore;

/// Domain tag binding message hashes to this scheme.
const MSG_DOMAIN: &str = "wbft/thresh-sig/msg";

/// A message pre-hashed for share operations: caches the known discrete log
/// `e` of `H(msg) = g^e` (see [`GroupElem::hash_to_group`]), so verifying
/// `n` shares of one message hashes once instead of `n` times.
#[derive(Clone, Copy, Debug)]
pub struct PreparedMessage {
    e: Scalar,
}

impl PreparedMessage {
    /// Prepares a message for repeated share verification.
    pub fn new(msg: &[u8]) -> Self {
        Self::under(MSG_DOMAIN, msg)
    }

    /// A message hashed under its own domain tag (a coin name).
    pub(crate) fn under(domain: &str, msg: &[u8]) -> Self {
        PreparedMessage { e: hash_to_scalar(domain, &[msg]) }
    }
}

impl From<&[u8]> for PreparedMessage {
    fn from(msg: &[u8]) -> Self {
        PreparedMessage::new(msg)
    }
}

impl<const N: usize> From<&[u8; N]> for PreparedMessage {
    fn from(msg: &[u8; N]) -> Self {
        PreparedMessage::new(msg)
    }
}

fn items(shares: &[SigShare]) -> Vec<Item> {
    shares.iter().map(|s| (s.index, s.value)).collect()
}

/// Errors from threshold-signature operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreshSigError {
    /// A share failed its algebraic verification.
    InvalidShare { index: u16 },
    /// A combined signature failed verification.
    InvalidSignature,
    /// Underlying secret-sharing error (duplicates, too few shares).
    Shamir(ShamirError),
}

impl core::fmt::Display for ThreshSigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ThreshSigError::InvalidShare { index } => {
                write!(f, "invalid signature share from index {index}")
            }
            ThreshSigError::InvalidSignature => write!(f, "invalid combined threshold signature"),
            ThreshSigError::Shamir(e) => write!(f, "share set error: {e}"),
        }
    }
}

impl std::error::Error for ThreshSigError {}

impl From<ShamirError> for ThreshSigError {
    fn from(e: ShamirError) -> Self {
        ThreshSigError::Shamir(e)
    }
}

/// Public key material: the combined verification key plus one verification
/// key per share. Distributed to every node by the dealer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PublicKeySet {
    curve: ThresholdCurve,
    threshold: usize,
    vk: GroupElem,
    vk_shares: Vec<GroupElem>,
    precomp: PrecompCache<KeyTables>,
}

/// One node's secret key share.
#[derive(Clone, Debug)]
pub struct SecretKeyShare {
    index: ShareIndex,
    secret: Scalar,
    curve: ThresholdCurve,
}

/// A signature share: `(i, h^{s_i})`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SigShare {
    /// Which share produced this.
    pub index: ShareIndex,
    /// The group element `h^{s_i}`.
    pub value: GroupElem,
}

/// A combined threshold signature `h^s`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThresholdSignature {
    /// The group element `h^s`.
    pub value: GroupElem,
}

impl ThresholdSignature {
    /// Canonical encoding (32 bytes internally; packets charge the curve's
    /// nominal size instead — see `wbft-net`).
    pub fn to_bytes(&self) -> [u8; 32] {
        self.value.to_bytes()
    }

    /// Decode (validating subgroup membership).
    pub fn from_bytes(bytes: &[u8; 32]) -> Option<Self> {
        GroupElem::from_bytes(bytes).ok().map(|value| ThresholdSignature { value })
    }
}

/// Deals a fresh `(threshold, n)` key set: any `threshold + 1` shares can
/// sign. For BFT use with `n = 3f + 1`, PRBC uses `threshold = f` ("at least
/// one honest signer") and CBC uses `threshold = 2f` ("a Byzantine quorum
/// cannot sign alone").
pub fn deal(
    n: usize,
    threshold: usize,
    curve: ThresholdCurve,
    rng: &mut impl RngCore,
) -> (PublicKeySet, Vec<SecretKeyShare>) {
    assert!(threshold < n, "threshold {threshold} must be < n {n}");
    let poly = Polynomial::random(Scalar::random(rng), threshold, rng);
    let vk = GroupElem::from_exponent(&poly.secret());
    let mut vk_shares = Vec::with_capacity(n);
    let mut secrets = Vec::with_capacity(n);
    for i in 0..n {
        let index = ShareIndex::for_node(i);
        let s_i = poly.share(index);
        vk_shares.push(GroupElem::from_exponent(&s_i));
        secrets.push(SecretKeyShare { index, secret: s_i, curve });
    }
    (PublicKeySet { curve, threshold, vk, vk_shares, precomp: PrecompCache::default() }, secrets)
}

impl PublicKeySet {
    /// Assembles a key set from rolled parts — the resharing ceremony
    /// derives `vk_shares` publicly from the dealings' commitment vectors
    /// while `vk` stays the genesis value (see [`crate::reshare`]).
    pub fn from_parts(
        curve: ThresholdCurve,
        threshold: usize,
        vk: GroupElem,
        vk_shares: Vec<GroupElem>,
    ) -> Self {
        PublicKeySet { curve, threshold, vk, vk_shares, precomp: PrecompCache::default() }
    }

    /// The combined verification key `g^s` — stable across resharing.
    pub fn group_key(&self) -> GroupElem {
        self.vk
    }

    /// Per-share verification keys, by zero-based node slot.
    pub fn share_keys(&self) -> &[GroupElem] {
        &self.vk_shares
    }

    /// The curve deployment of this key set.
    pub fn curve(&self) -> ThresholdCurve {
        self.curve
    }

    /// The reconstruction threshold: `threshold + 1` shares combine.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Number of shares dealt.
    pub fn n(&self) -> usize {
        self.vk_shares.len()
    }

    /// The curve profile costs associated with this key set.
    pub fn profile(&self) -> ThresholdProfile {
        self.curve.signature_profile()
    }

    /// The window tables for `vk` and every `vk_shares[i]`, built on first
    /// use (~3 plain exponentiations per base) and shared by all clones of
    /// this key set, so every node of a deployment uses one build.
    fn tables(&self) -> &KeyTables {
        self.precomp.0.get_or_init(|| KeyTables::new(&self.vk, &self.vk_shares))
    }

    /// Pre-hashes a message for repeated share operations against this set.
    pub fn prepare(&self, msg: &[u8]) -> PreparedMessage {
        PreparedMessage::new(msg)
    }

    /// Verifies a single share against the message.
    ///
    /// # Errors
    ///
    /// [`ThreshSigError::InvalidShare`] if the algebraic check fails or the
    /// index is out of range.
    pub fn verify_share(&self, msg: &[u8], share: &SigShare) -> Result<(), ThreshSigError> {
        self.verify_share_prepared(&PreparedMessage::new(msg), share)
    }

    /// [`Self::verify_share`] against a pre-hashed message.
    ///
    /// # Errors
    ///
    /// [`ThreshSigError::InvalidShare`] as for `verify_share`.
    pub fn verify_share_prepared(
        &self,
        msg: &PreparedMessage,
        share: &SigShare,
    ) -> Result<(), ThreshSigError> {
        self.verify_shares_prepared(msg, std::slice::from_ref(share))
    }

    /// Verifies shares of the *same* message, each by one table
    /// exponentiation `σ_i == vk_i^e`. Accepts exactly the sets in which
    /// every share passes [`Self::verify_share`] (duplicates included).
    ///
    /// # Errors
    ///
    /// [`ThreshSigError::InvalidShare`] naming the first invalid share.
    pub fn verify_shares(&self, msg: &[u8], shares: &[SigShare]) -> Result<(), ThreshSigError> {
        self.verify_shares_prepared(&PreparedMessage::new(msg), shares)
    }

    /// [`Self::verify_shares`] against a pre-hashed message.
    ///
    /// # Errors
    ///
    /// [`ThreshSigError::InvalidShare`] naming the first invalid share.
    pub fn verify_shares_prepared(
        &self,
        msg: &PreparedMessage,
        shares: &[SigShare],
    ) -> Result<(), ThreshSigError> {
        match self.invalid_share_positions(msg, shares).first() {
            None => Ok(()),
            Some(&p) => {
                Err(ThreshSigError::InvalidShare { index: shares[p].index.value() })
            }
        }
    }

    /// The positions (into `shares`) of every share that fails
    /// verification — empty when all are valid. Components use this to
    /// evict exactly the Byzantine shares from a buffered quorum.
    pub fn invalid_share_positions(
        &self,
        msg: &PreparedMessage,
        shares: &[SigShare],
    ) -> Vec<usize> {
        self.tables().invalid_positions(&msg.e, &items(shares))
    }

    /// Combines `threshold + 1` shares into a signature: one simultaneous
    /// multi-exponentiation over the (memoized, batch-inverted) Lagrange
    /// coefficients of the quorum's index set.
    ///
    /// # Errors
    ///
    /// Propagates share-set errors; the result verifies iff all shares were
    /// genuine.
    pub fn combine(&self, shares: &[SigShare]) -> Result<ThresholdSignature, ThreshSigError> {
        Ok(ThresholdSignature { value: interpolate(self.threshold, &items(shares))? })
    }

    /// [`Self::combine`] for a quorum of distinct shares that *each passed*
    /// [`Self::invalid_share_positions`] over `msg`: their combination is
    /// `vk^e`, read off the group key's window table instead of
    /// interpolated. The caller guarantees the precondition; builds with
    /// debug assertions interpolate too and panic on a difference.
    ///
    /// # Errors
    ///
    /// [`ThreshSigError::Shamir`] when fewer than `threshold + 1` shares are
    /// given.
    pub fn combine_verified(
        &self,
        msg: &PreparedMessage,
        quorum: &[SigShare],
    ) -> Result<ThresholdSignature, ThreshSigError> {
        let value = self.tables().combine_verified(self.threshold, &msg.e, &items(quorum))?;
        Ok(ThresholdSignature { value })
    }

    /// Verifies a combined signature on `msg`. The exponentiation goes
    /// through the verdict memo ([`crate::memo`]) under `(H(vk ‖ e), σ)`: a
    /// proof or certificate relayed by several peers is checked once.
    ///
    /// # Errors
    ///
    /// [`ThreshSigError::InvalidSignature`] on mismatch.
    pub fn verify(&self, msg: &[u8], sig: &ThresholdSignature) -> Result<(), ThreshSigError> {
        let e = PreparedMessage::new(msg).e;
        let statement =
            Digest32::of_parts("wbft/memo/thresh-sig", &[&self.vk.to_bytes(), &e.to_bytes()]);
        let valid = memo::verdict(Predicate::ThreshSig, statement.0, sig.to_bytes(), || {
            self.tables().group_pow(&e) == sig.value
        });
        if valid {
            Ok(())
        } else {
            Err(ThreshSigError::InvalidSignature)
        }
    }
}

impl SecretKeyShare {
    /// Assembles a share from rolled parts (resharing combination).
    pub fn from_parts(index: ShareIndex, secret: Scalar, curve: ThresholdCurve) -> Self {
        SecretKeyShare { index, secret, curve }
    }

    /// The raw secret scalar — the resharing ceremony needs it to act as a
    /// dealer. Same security caveat as the whole crate: this is a
    /// simulation substrate, not production key management.
    pub fn secret_scalar(&self) -> Scalar {
        self.secret
    }

    /// This share's index.
    pub fn index(&self) -> ShareIndex {
        self.index
    }

    /// The curve deployment this share was dealt for (determines the
    /// virtual costs the simulator charges for its operations).
    pub fn curve(&self) -> ThresholdCurve {
        self.curve
    }

    /// Signs a message, producing this node's share.
    ///
    /// With `H(msg) = g^e`, the share `H(msg)^{s_i} = g^{e·s_i}` is one
    /// scalar multiplication plus a fixed-base table exponentiation —
    /// roughly 6× cheaper than exponentiating the fresh hash point.
    pub fn sign_share(&self, msg: &[u8]) -> SigShare {
        self.sign_prepared(&PreparedMessage::new(msg))
    }

    /// [`Self::sign_share`] over a pre-hashed message (a coin name).
    pub(crate) fn sign_prepared(&self, msg: &PreparedMessage) -> SigShare {
        let value = GroupElem::from_exponent(&msg.e.mul(&self.secret));
        value.record_member();
        SigShare { index: self.index, value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup(n: usize, t: usize) -> (PublicKeySet, Vec<SecretKeyShare>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        deal(n, t, ThresholdCurve::Bn158, &mut rng)
    }

    #[test]
    fn shares_verify_and_combine() {
        let (pks, sks) = setup(4, 1); // N=4, f=1, PRBC threshold f=1 → 2 shares
        let msg = b"proposal digest";
        let shares: Vec<_> = sks.iter().map(|sk| sk.sign_share(msg)).collect();
        for s in &shares {
            pks.verify_share(msg, s).unwrap();
        }
        let sig = pks.combine(&shares[1..3]).unwrap();
        pks.verify(msg, &sig).unwrap();
    }

    #[test]
    fn any_quorum_combines_to_the_same_signature() {
        // Uniqueness: the combined signature is h^s regardless of which
        // quorum produced it — this is what makes it usable as a common coin.
        let (pks, sks) = setup(4, 2);
        let msg = b"coin:epoch-3:round-1";
        let shares: Vec<_> = sks.iter().map(|sk| sk.sign_share(msg)).collect();
        let sig_a = pks.combine(&[shares[0], shares[1], shares[2]]).unwrap();
        let sig_b = pks.combine(&[shares[3], shares[1], shares[0]]).unwrap();
        let sig_c = pks.combine(&[shares[2], shares[3], shares[1]]).unwrap();
        assert_eq!(sig_a, sig_b);
        assert_eq!(sig_b, sig_c);
    }

    #[test]
    fn tampered_share_is_rejected() {
        let (pks, sks) = setup(4, 1);
        let msg = b"m";
        let mut share = sks[0].sign_share(msg);
        share.value = share.value.mul(&GroupElem::generator());
        assert_eq!(
            pks.verify_share(msg, &share),
            Err(ThreshSigError::InvalidShare { index: 1 })
        );
    }

    #[test]
    fn share_for_wrong_message_is_rejected() {
        let (pks, sks) = setup(4, 1);
        let share = sks[2].sign_share(b"message A");
        assert!(pks.verify_share(b"message B", &share).is_err());
    }

    #[test]
    fn combining_with_bad_share_fails_verification() {
        let (pks, sks) = setup(4, 1);
        let msg = b"m";
        let good = sks[0].sign_share(msg);
        let mut bad = sks[1].sign_share(msg);
        bad.value = bad.value.mul(&GroupElem::generator());
        let sig = pks.combine(&[good, bad]).unwrap();
        assert_eq!(pks.verify(msg, &sig), Err(ThreshSigError::InvalidSignature));
    }

    #[test]
    fn too_few_shares_cannot_combine() {
        let (pks, sks) = setup(7, 2); // need 3
        let msg = b"m";
        let shares: Vec<_> = sks[..2].iter().map(|sk| sk.sign_share(msg)).collect();
        assert!(matches!(
            pks.combine(&shares),
            Err(ThreshSigError::Shamir(ShamirError::NotEnoughShares { got: 2, need: 3 }))
        ));
    }

    #[test]
    fn batch_verification_accepts_iff_all_shares_valid() {
        let (pks, sks) = setup(7, 2);
        let msg = b"batched";
        let shares: Vec<_> = sks.iter().map(|sk| sk.sign_share(msg)).collect();
        pks.verify_shares(msg, &shares).unwrap();
        pks.verify_shares(msg, &[]).unwrap();
        // A single tampered share is localized by index.
        let mut mixed = shares.clone();
        mixed[3].value = mixed[3].value.mul(&GroupElem::generator());
        assert_eq!(
            pks.verify_shares(msg, &mixed),
            Err(ThreshSigError::InvalidShare { index: 4 })
        );
        // The good shares around it are still reported as valid.
        let pm = pks.prepare(msg);
        assert_eq!(pks.invalid_share_positions(&pm, &mixed), vec![3]);
        // Duplicate valid shares are accepted, matching per-share semantics.
        let dup = vec![shares[0], shares[0], shares[1]];
        pks.verify_shares(msg, &dup).unwrap();
        // Wrong-message shares fail.
        let wrong: Vec<_> = sks[..3].iter().map(|sk| sk.sign_share(b"other")).collect();
        assert!(pks.verify_shares(msg, &wrong).is_err());
        // Out-of-range index fails even alongside valid shares.
        let mut oor = shares.clone();
        oor[0].index = crate::shamir::ShareIndex::new(9).unwrap();
        assert_eq!(pks.invalid_share_positions(&pm, &oor), vec![0]);
    }

    #[test]
    fn a_verified_quorum_combines_to_the_interpolated_signature() {
        let (pks, sks) = setup(7, 2);
        let msg = b"verified";
        let pm = pks.prepare(msg);
        let shares: Vec<_> = sks.iter().map(|sk| sk.sign_share(msg)).collect();
        assert!(pks.invalid_share_positions(&pm, &shares).is_empty());
        for quorum in [&shares[..3], &shares[4..], &[shares[6], shares[0], shares[3]]] {
            let sig = pks.combine_verified(&pm, quorum).unwrap();
            assert_eq!(Ok(sig), pks.combine(quorum));
            pks.verify(msg, &sig).unwrap();
        }
        assert_eq!(
            pks.combine_verified(&pm, &shares[..2]),
            Err(ThreshSigError::Shamir(ShamirError::NotEnoughShares { got: 2, need: 3 }))
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never passed its check")]
    fn an_unchecked_quorum_is_refused_by_the_reference() {
        let (pks, sks) = setup(4, 1);
        let mut bad = sks[0].sign_share(b"m");
        bad.value = bad.value.mul(&GroupElem::generator());
        let _ = pks.combine_verified(&pks.prepare(b"m"), &[bad, sks[1].sign_share(b"m")]);
    }

    #[test]
    fn prepared_message_matches_direct_calls() {
        let (pks, sks) = setup(4, 1);
        let msg = b"prepared";
        let pm = pks.prepare(msg);
        for sk in &sks {
            let s = sk.sign_share(msg);
            assert_eq!(pks.verify_share_prepared(&pm, &s), pks.verify_share(msg, &s));
        }
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let (pks, sks) = setup(4, 1);
        let msg = b"roundtrip";
        let shares: Vec<_> = sks[..2].iter().map(|sk| sk.sign_share(msg)).collect();
        let sig = pks.combine(&shares).unwrap();
        let decoded = ThresholdSignature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(decoded, sig);
        pks.verify(msg, &decoded).unwrap();
    }

    #[test]
    fn different_messages_have_different_signatures() {
        let (pks, sks) = setup(4, 1);
        let sa: Vec<_> = sks[..2].iter().map(|sk| sk.sign_share(b"a")).collect();
        let sb: Vec<_> = sks[..2].iter().map(|sk| sk.sign_share(b"b")).collect();
        let siga = pks.combine(&sa).unwrap();
        let sigb = pks.combine(&sb).unwrap();
        assert_ne!(siga, sigb);
    }
}
