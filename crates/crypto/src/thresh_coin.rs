//! Threshold common coin — the randomness source of shared-coin ABA.
//!
//! Two deployments share this module, differing only in cost profile and
//! share size (paper §VI-A):
//!
//! * **Threshold-signature coin** (Cachin's ABA / ABA-SC): the coin for name
//!   `Γ` is the low bit(s) of `H(h_Γ^s)` where `h_Γ^s` is the unique
//!   threshold signature on `Γ` — produced here by the same construction as
//!   [`crate::thresh_sig`] over a coin-dedicated key set.
//! * **Threshold coin flipping** (BEAT / ABA-CP): identical combinatorics
//!   with the cheaper [`crate::profile::CoinProfile`] costs and shares that
//!   carry extra verification data.
//!
//! A coin's value is unpredictable (at protocol level) until `threshold + 1`
//! distinct shares are released, and all honest nodes that combine any
//! quorum obtain the *same* value — the two properties shared-coin ABA
//! needs for termination.

use crate::field::Scalar;
use crate::group::{GroupElem, PrecompCache};
use crate::hash::hash_to_scalar;
use crate::profile::{CoinProfile, ThresholdCurve};
use crate::quorum::{interpolate, Item, KeyTables};
use crate::shamir::{Polynomial, ShamirError, ShareIndex};
use rand::RngCore;

/// Errors from coin operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoinError {
    /// A coin share failed verification.
    InvalidShare { index: u16 },
    /// Underlying share-set error.
    Shamir(ShamirError),
}

impl core::fmt::Display for CoinError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoinError::InvalidShare { index } => write!(f, "invalid coin share from index {index}"),
            CoinError::Shamir(e) => write!(f, "coin share set error: {e}"),
        }
    }
}

impl std::error::Error for CoinError {}

impl From<ShamirError> for CoinError {
    fn from(e: ShamirError) -> Self {
        CoinError::Shamir(e)
    }
}

/// The name that identifies one coin toss. Under ConsensusBatcher, *all
/// parallel ABA instances in the same round share one coin* (paper §IV-C2,
/// Technical Challenge III): the instance id is deliberately absent.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CoinName {
    /// Consensus session (epoch) the coin belongs to.
    pub session: u64,
    /// ABA round number.
    pub round: u32,
    /// Distinguishes independent coin domains within a session (e.g. the
    /// serial-ABA sequence position in Dumbo). Parallel instances that are
    /// allowed to share a coin use the same domain.
    pub domain: u32,
}

impl CoinName {
    fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.session.to_le_bytes());
        out[8..12].copy_from_slice(&self.round.to_le_bytes());
        out[12..16].copy_from_slice(&self.domain.to_le_bytes());
        out
    }
}

/// A coin name pre-hashed for share operations: caches the exponent `e`
/// with `h_Γ = g^e`, so `n` shares of one coin hash once.
#[derive(Clone, Copy, Debug)]
pub struct PreparedCoin {
    e: Scalar,
}

impl PreparedCoin {
    /// Prepares a coin name for repeated share verification.
    pub fn new(name: CoinName) -> Self {
        PreparedCoin { e: coin_exponent(name) }
    }
}

/// Public coin-verification material.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoinPublicSet {
    curve: ThresholdCurve,
    threshold: usize,
    vk_shares: Vec<GroupElem>,
    precomp: PrecompCache<KeyTables>,
}

/// One node's secret coin key share.
#[derive(Clone, Debug)]
pub struct CoinSecretShare {
    index: ShareIndex,
    secret: Scalar,
}

/// A coin share: `(i, h_Γ^{s_i})`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoinShare {
    /// Producing share index.
    pub index: ShareIndex,
    /// The group element.
    pub value: GroupElem,
}

/// Deals a coin key set with reconstruction threshold `threshold + 1`
/// (ABA uses `threshold = f`: the adversary's `f` shares reveal nothing).
pub fn deal_coin(
    n: usize,
    threshold: usize,
    curve: ThresholdCurve,
    rng: &mut impl RngCore,
) -> (CoinPublicSet, Vec<CoinSecretShare>) {
    assert!(threshold < n, "threshold {threshold} must be < n {n}");
    let poly = Polynomial::random(Scalar::random(rng), threshold, rng);
    let mut vk_shares = Vec::with_capacity(n);
    let mut secrets = Vec::with_capacity(n);
    for i in 0..n {
        let index = ShareIndex::for_node(i);
        let s_i = poly.share(index);
        vk_shares.push(GroupElem::from_exponent(&s_i));
        secrets.push(CoinSecretShare { index, secret: s_i });
    }
    (CoinPublicSet { curve, threshold, vk_shares, precomp: PrecompCache::default() }, secrets)
}

/// What this thread has done with coins so far — counts for tests to hold a
/// run to "each node signs its share of a coin once": signings that
/// outnumber the coins revealed mean some component re-signs per packet.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoinTally {
    /// [`CoinSecretShare::coin_share`] calls.
    pub shares_signed: u64,
    /// Coin values revealed: [`CoinPublicSet::combine_value`] and
    /// [`CoinPublicSet::combine_verified`] calls that returned one.
    pub coins_combined: u64,
}

thread_local! {
    static TALLY: std::cell::Cell<CoinTally> = const {
        std::cell::Cell::new(CoinTally { shares_signed: 0, coins_combined: 0 })
    };
}

/// This thread's [`CoinTally`].
pub fn tally() -> CoinTally {
    TALLY.with(std::cell::Cell::get)
}

fn tally_update(update: impl FnOnce(&mut CoinTally)) {
    TALLY.with(|t| {
        let mut tally = t.get();
        update(&mut tally);
        t.set(tally);
    });
}

/// The known discrete log of the coin point `h_Γ = g^e`.
fn coin_exponent(name: CoinName) -> Scalar {
    hash_to_scalar("wbft/coin", &[&name.to_bytes()])
}

fn items(shares: &[CoinShare]) -> Vec<Item> {
    shares.iter().map(|s| (s.index, s.value)).collect()
}

/// The value of the coin whose combined point is `h_Γ^s`, counted in this
/// thread's [`tally`].
fn reveal(combined: GroupElem) -> u64 {
    tally_update(|t| t.coins_combined += 1);
    combined.digest("wbft/coin/value").to_u64()
}

impl CoinPublicSet {
    /// Assembles a coin set from rolled parts (resharing ceremony). Its
    /// group key is interpolated from the share keys; coin *values* are
    /// preserved across a roll because they are a function of the shared
    /// secret, which resharing keeps fixed.
    pub fn from_parts(
        curve: ThresholdCurve,
        threshold: usize,
        vk_shares: Vec<GroupElem>,
    ) -> Self {
        CoinPublicSet { curve, threshold, vk_shares, precomp: PrecompCache::default() }
    }

    /// Per-share verification keys, by zero-based node slot.
    pub fn share_keys(&self) -> &[GroupElem] {
        &self.vk_shares
    }

    /// The curve deployment of this key set.
    pub fn curve(&self) -> ThresholdCurve {
        self.curve
    }

    /// Shares needed to reveal a coin.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Number of shares dealt.
    pub fn n(&self) -> usize {
        self.vk_shares.len()
    }

    /// Cost profile for the coin-flipping deployment of this key set.
    pub fn profile(&self) -> CoinProfile {
        self.curve.coin_profile()
    }

    /// The window tables for the group key and every `vk_shares[i]`, built
    /// on first use and shared by all clones of this key set. A coin set is
    /// dealt without its group key, so the build interpolates it once from
    /// share keys `1..=threshold + 1`.
    fn tables(&self) -> &KeyTables {
        self.precomp.0.get_or_init(|| {
            let keys: Vec<Item> = self
                .vk_shares
                .iter()
                .enumerate()
                .map(|(i, vk)| (ShareIndex::for_node(i), *vk))
                .collect();
            let vk = interpolate(self.threshold, &keys)
                .expect("a coin set holds at least threshold + 1 share keys");
            KeyTables::new(&vk, &self.vk_shares)
        })
    }

    /// The group key `g^s` of the shared secret `s` — stable across
    /// resharing, like the coin values.
    pub fn group_key(&self) -> GroupElem {
        self.tables().group_key()
    }

    /// Pre-hashes a coin name for repeated share operations.
    pub fn prepare(&self, name: CoinName) -> PreparedCoin {
        PreparedCoin::new(name)
    }

    /// Verifies one coin share for `name`.
    ///
    /// # Errors
    ///
    /// [`CoinError::InvalidShare`] if the check fails.
    pub fn verify_share(&self, name: CoinName, share: &CoinShare) -> Result<(), CoinError> {
        self.verify_share_prepared(&PreparedCoin::new(name), share)
    }

    /// [`Self::verify_share`] against a pre-hashed coin name.
    ///
    /// # Errors
    ///
    /// [`CoinError::InvalidShare`] if the check fails.
    pub fn verify_share_prepared(
        &self,
        coin: &PreparedCoin,
        share: &CoinShare,
    ) -> Result<(), CoinError> {
        self.verify_shares_prepared(coin, std::slice::from_ref(share))
    }

    /// Verifies shares of the *same* coin, each by one table exponentiation
    /// — the coin mirror of
    /// [`crate::thresh_sig::PublicKeySet::verify_shares`].
    ///
    /// # Errors
    ///
    /// [`CoinError::InvalidShare`] naming the first invalid share.
    pub fn verify_shares(&self, name: CoinName, shares: &[CoinShare]) -> Result<(), CoinError> {
        self.verify_shares_prepared(&PreparedCoin::new(name), shares)
    }

    /// [`Self::verify_shares`] against a pre-hashed coin name.
    ///
    /// # Errors
    ///
    /// [`CoinError::InvalidShare`] naming the first invalid share.
    pub fn verify_shares_prepared(
        &self,
        coin: &PreparedCoin,
        shares: &[CoinShare],
    ) -> Result<(), CoinError> {
        match self.invalid_share_positions(coin, shares).first() {
            None => Ok(()),
            Some(&p) => Err(CoinError::InvalidShare { index: shares[p].index.value() }),
        }
    }

    /// The positions (into `shares`) of every share failing verification;
    /// empty when all are valid.
    pub fn invalid_share_positions(
        &self,
        coin: &PreparedCoin,
        shares: &[CoinShare],
    ) -> Vec<usize> {
        self.tables().invalid_positions(&coin.e, &items(shares))
    }

    /// Combines `threshold + 1` shares into the coin's boolean value.
    ///
    /// All quorums yield the same value (tested below); shared-coin ABA's
    /// agreement on the coin follows.
    ///
    /// # Errors
    ///
    /// Propagates share-set errors.
    pub fn combine(&self, name: CoinName, shares: &[CoinShare]) -> Result<bool, CoinError> {
        Ok(self.combine_value(name, shares)? & 1 == 1)
    }

    /// Combines into a 64-bit coin value (used to seed Dumbo's permutation
    /// π) by Lagrange interpolation of the first `threshold + 1` shares.
    ///
    /// # Errors
    ///
    /// Propagates share-set errors.
    pub fn combine_value(&self, name: CoinName, shares: &[CoinShare]) -> Result<u64, CoinError> {
        let _ = name; // the name is already bound through the share values
        Ok(reveal(interpolate(self.threshold, &items(shares))?))
    }

    /// [`Self::combine_value`] for a quorum of distinct shares that *each
    /// passed* [`Self::invalid_share_positions`] for `coin`: their
    /// combination is `vk^e`, read off the group key's window table instead
    /// of interpolated. The caller guarantees the precondition; builds with
    /// debug assertions interpolate too and panic on a difference.
    ///
    /// # Errors
    ///
    /// [`CoinError::Shamir`] when fewer than `threshold + 1` shares are
    /// given.
    pub fn combine_verified(
        &self,
        coin: &PreparedCoin,
        quorum: &[CoinShare],
    ) -> Result<u64, CoinError> {
        Ok(reveal(self.tables().combine_verified(self.threshold, &coin.e, &items(quorum))?))
    }
}

impl CoinSecretShare {
    /// Assembles a share from rolled parts (resharing combination).
    pub fn from_parts(index: ShareIndex, secret: Scalar) -> Self {
        CoinSecretShare { index, secret }
    }

    /// The raw secret scalar, for acting as a resharing dealer.
    pub fn secret_scalar(&self) -> Scalar {
        self.secret
    }

    /// This share's index.
    pub fn index(&self) -> ShareIndex {
        self.index
    }

    /// Produces this node's share of the coin `name` (`h_Γ^{s_i} =
    /// g^{e·s_i}`: one scalar multiply plus a fixed-base table pow). The
    /// share is a pure function of `(secret, name)`: sign it once when the
    /// coin is released and keep it, rather than re-signing per packet
    /// ([`tally`] lets a test hold callers to that).
    pub fn coin_share(&self, name: CoinName) -> CoinShare {
        tally_update(|t| t.shares_signed += 1);
        let e = coin_exponent(name);
        let value = GroupElem::from_exponent(&e.mul(&self.secret));
        value.record_member();
        CoinShare { index: self.index, value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (CoinPublicSet, Vec<CoinSecretShare>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        deal_coin(4, 1, ThresholdCurve::Bn158, &mut rng)
    }

    fn name(round: u32) -> CoinName {
        CoinName { session: 9, round, domain: 0 }
    }

    #[test]
    fn all_quorums_agree_on_coin_value() {
        let (pub_set, secrets) = setup();
        let n = name(1);
        let shares: Vec<_> = secrets.iter().map(|s| s.coin_share(n)).collect();
        let mut values = Vec::new();
        for a in 0..4 {
            for b in 0..4 {
                if a == b {
                    continue;
                }
                values.push(pub_set.combine(n, &[shares[a], shares[b]]).unwrap());
            }
        }
        assert!(values.windows(2).all(|w| w[0] == w[1]), "quorums disagreed: {values:?}");
    }

    #[test]
    fn coin_values_vary_across_rounds() {
        // With ~30 rounds the chance of all-equal coins is 2^-29; this also
        // catches accidentally-constant coins.
        let (pub_set, secrets) = setup();
        let mut seen_true = false;
        let mut seen_false = false;
        for round in 0..30 {
            let n = name(round);
            let shares: Vec<_> = secrets[..2].iter().map(|s| s.coin_share(n)).collect();
            if pub_set.combine(n, &shares).unwrap() {
                seen_true = true;
            } else {
                seen_false = true;
            }
        }
        assert!(seen_true && seen_false, "30 rounds of coins never flipped");
        // Stronger: at least two distinct u64 values across rounds.
        let v0 = {
            let n = name(100);
            let shares: Vec<_> = secrets[..2].iter().map(|s| s.coin_share(n)).collect();
            pub_set.combine_value(n, &shares).unwrap()
        };
        let v1 = {
            let n = name(101);
            let shares: Vec<_> = secrets[..2].iter().map(|s| s.coin_share(n)).collect();
            pub_set.combine_value(n, &shares).unwrap()
        };
        assert_ne!(v0, v1);
    }

    #[test]
    fn share_verification_rejects_wrong_name() {
        let (pub_set, secrets) = setup();
        let share = secrets[0].coin_share(name(1));
        assert!(pub_set.verify_share(name(2), &share).is_err());
        pub_set.verify_share(name(1), &share).unwrap();
    }

    #[test]
    fn tampered_share_rejected() {
        let (pub_set, secrets) = setup();
        let n = name(5);
        let mut share = secrets[1].coin_share(n);
        share.value = share.value.mul(&GroupElem::generator());
        assert_eq!(pub_set.verify_share(n, &share), Err(CoinError::InvalidShare { index: 2 }));
    }

    #[test]
    fn batch_share_verification_mirrors_per_share() {
        let (pub_set, secrets) = setup();
        let n = name(8);
        let shares: Vec<_> = secrets.iter().map(|s| s.coin_share(n)).collect();
        pub_set.verify_shares(n, &shares).unwrap();
        let mut mixed = shares.clone();
        mixed[1].value = mixed[1].value.mul(&GroupElem::generator());
        assert_eq!(
            pub_set.verify_shares(n, &mixed),
            Err(CoinError::InvalidShare { index: 2 })
        );
        let pc = pub_set.prepare(n);
        assert_eq!(pub_set.invalid_share_positions(&pc, &mixed), vec![1]);
        for s in &shares {
            pub_set.verify_share(n, s).unwrap();
        }
        // Wrong-name shares fail in batch as they do per-share.
        assert!(pub_set.verify_shares(name(9), &shares).is_err());
    }

    #[test]
    fn the_group_key_is_g_to_the_shared_secret() {
        // Any quorum of share keys interpolates to one key, and it is g^s
        // for the s a quorum of secret shares interpolates to.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let (pub_set, secrets) = deal_coin(7, 2, ThresholdCurve::Bn158, &mut rng);
        let keys =
            |slots: [usize; 3]| slots.map(|i| (ShareIndex::for_node(i), pub_set.share_keys()[i]));
        let a = interpolate(2, &keys([0, 1, 2])).unwrap();
        assert_eq!(interpolate(2, &keys([6, 4, 3])).unwrap(), a);
        let quorum: Vec<_> = secrets[4..].iter().map(|s| (s.index, s.secret)).collect();
        let s = crate::shamir::reconstruct_secret(&quorum, 2).unwrap();
        assert_eq!(GroupElem::from_exponent(&s), a);
        assert_eq!(pub_set.group_key(), a);
    }

    #[test]
    fn a_verified_quorum_reveals_the_interpolated_value() {
        let (pub_set, secrets) = setup();
        let n = name(4);
        let pc = pub_set.prepare(n);
        let shares: Vec<_> = secrets.iter().map(|s| s.coin_share(n)).collect();
        assert!(pub_set.invalid_share_positions(&pc, &shares).is_empty());
        let before = tally().coins_combined;
        for quorum in [[shares[0], shares[1]], [shares[3], shares[2]]] {
            assert_eq!(pub_set.combine_verified(&pc, &quorum), pub_set.combine_value(n, &quorum));
        }
        assert_eq!(tally().coins_combined - before, 4, "each call reveals once");
        assert!(matches!(pub_set.combine_verified(&pc, &shares[..1]), Err(CoinError::Shamir(_))));
    }

    #[test]
    fn single_share_insufficient() {
        let (pub_set, secrets) = setup();
        let n = name(7);
        let shares = [secrets[0].coin_share(n)];
        assert!(matches!(pub_set.combine(n, &shares), Err(CoinError::Shamir(_))));
    }

    #[test]
    fn domains_are_independent() {
        let (pub_set, secrets) = setup();
        let a = CoinName { session: 1, round: 0, domain: 0 };
        let b = CoinName { session: 1, round: 0, domain: 1 };
        let sa: Vec<_> = secrets[..2].iter().map(|s| s.coin_share(a)).collect();
        let sb: Vec<_> = secrets[..2].iter().map(|s| s.coin_share(b)).collect();
        let va = pub_set.combine_value(a, &sa).unwrap();
        let vb = pub_set.combine_value(b, &sb).unwrap();
        assert_ne!(va, vb);
    }
}
