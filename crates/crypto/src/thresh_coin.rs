//! Threshold common coin — the randomness source of shared-coin ABA.
//!
//! The coin is a threshold signature on its name. Two deployments share it,
//! differing only in cost profile and share size (paper §VI-A):
//!
//! * **Threshold-signature coin** (Cachin's ABA / ABA-SC): the coin for name
//!   `Γ` is the low bit(s) of `H(h_Γ^s)`, where `h_Γ^s` is the unique
//!   threshold signature on `Γ`.
//! * **Threshold coin flipping** (BEAT / ABA-CP): identical combinatorics
//!   with the cheaper costs of [`ThresholdCurve::coin_profile`] and shares
//!   that carry extra verification data.
//!
//! A deployment deals the coin as one more [`crate::thresh_sig`] key set. A
//! coin name is a message prepared under its own domain tag, `"wbft/coin"`,
//! and a coin's value is the combined signature digested under
//! `"wbft/coin/value"`. Share checks, combination and the window tables
//! under them are therefore `thresh_sig`'s; this module holds the name, the
//! value and the per-thread [`tally`].
//!
//! A coin's value is unpredictable (at protocol level) until `threshold + 1`
//! distinct shares are released, and all honest nodes that combine any
//! quorum obtain the *same* value — the two properties shared-coin ABA
//! needs for termination.

use crate::group::GroupElem;
use crate::profile::{ThresholdCurve, ThresholdProfile};
use crate::thresh_sig::{
    self, PreparedMessage, PublicKeySet, SecretKeyShare, SigShare, ThreshSigError,
    ThresholdSignature,
};
use rand::RngCore;

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

/// The message a coin's shares sign: its name under the coin's own domain.
impl From<CoinName> for PreparedMessage {
    fn from(name: CoinName) -> Self {
        PreparedMessage::under("wbft/coin", &name.to_bytes())
    }
}

/// Public coin-verification material: the coin's threshold-signature key
/// set, read by coin name. Every method delegates to [`PublicKeySet`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoinPublicSet(PublicKeySet);

/// Deals a coin key set with reconstruction threshold `threshold + 1`
/// (ABA uses `threshold = f`: the adversary's `f` shares reveal nothing).
pub fn deal_coin(
    n: usize,
    threshold: usize,
    curve: ThresholdCurve,
    rng: &mut impl RngCore,
) -> (CoinPublicSet, Vec<SecretKeyShare>) {
    let (keys, secrets) = thresh_sig::deal(n, threshold, curve, rng);
    (CoinPublicSet(keys), secrets)
}

/// What this thread has done with coins so far — counts for tests to hold a
/// run to "each node signs its share of a coin once": signings that
/// outnumber the coins revealed mean some component re-signs per packet.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoinTally {
    /// [`SecretKeyShare::coin_share`] calls.
    pub shares_signed: u64,
    /// Coin values revealed: [`reveal`] calls.
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

/// The 64-bit value of the coin whose combined signature is `sig` (its low
/// bit is the binary coin; Dumbo seeds its permutation π with all of it),
/// counted in this thread's [`tally`]. Derive it once, when the coin's
/// quorum combines.
pub fn reveal(sig: &ThresholdSignature) -> u64 {
    tally_update(|t| t.coins_combined += 1);
    sig.value.digest("wbft/coin/value").to_u64()
}

impl CoinPublicSet {
    /// Assembles a coin set from rolled parts (resharing ceremony), like
    /// [`PublicKeySet::from_parts`]: coin *values* survive a roll because
    /// they are a function of the shared secret, which resharing keeps
    /// fixed.
    pub fn from_parts(
        curve: ThresholdCurve,
        threshold: usize,
        vk: GroupElem,
        vk_shares: Vec<GroupElem>,
    ) -> Self {
        CoinPublicSet(PublicKeySet::from_parts(curve, threshold, vk, vk_shares))
    }

    /// The threshold-signature key set the coin's shares sign under.
    pub fn keys(&self) -> &PublicKeySet {
        &self.0
    }

    /// Cost profile for the coin-flipping deployment of this key set.
    pub fn profile(&self) -> ThresholdProfile {
        self.0.curve().coin_profile()
    }

    /// Verifies shares of the coin `name`, each by one table exponentiation.
    ///
    /// # Errors
    ///
    /// [`ThreshSigError::InvalidShare`] naming the first invalid share.
    pub fn verify_shares(
        &self,
        name: CoinName,
        shares: &[SigShare],
    ) -> Result<(), ThreshSigError> {
        self.0.verify_shares_prepared(&name.into(), shares)
    }

    /// Combines `threshold + 1` shares into the coin's boolean value.
    ///
    /// All quorums yield the same value (tested below); shared-coin ABA's
    /// agreement on the coin follows.
    ///
    /// # Errors
    ///
    /// Propagates share-set errors.
    pub fn combine(&self, name: CoinName, shares: &[SigShare]) -> Result<bool, ThreshSigError> {
        Ok(self.combine_value(name, shares)? & 1 == 1)
    }

    /// Combines into the 64-bit coin value ([`reveal`]) by Lagrange
    /// interpolation of the first `threshold + 1` shares.
    ///
    /// # Errors
    ///
    /// Propagates share-set errors.
    pub fn combine_value(
        &self,
        name: CoinName,
        shares: &[SigShare],
    ) -> Result<u64, ThreshSigError> {
        let _ = name; // the name is already bound through the share values
        Ok(reveal(&self.0.combine(shares)?))
    }
}

impl SecretKeyShare {
    /// Produces this node's share of the coin `name`: its signature share
    /// on the name. The share is a pure function of `(secret, name)`: sign
    /// it once when the coin is released and keep it, rather than
    /// re-signing per packet ([`tally`] lets a test hold callers to that).
    pub fn coin_share(&self, name: CoinName) -> SigShare {
        tally_update(|t| t.shares_signed += 1);
        self.sign_prepared(&name.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_to_scalar;
    use crate::shamir::ShamirError;
    use rand::SeedableRng;

    fn setup() -> (CoinPublicSet, Vec<SecretKeyShare>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        deal_coin(4, 1, ThresholdCurve::Bn158, &mut rng)
    }

    fn name(round: u32) -> CoinName {
        CoinName { session: 9, round, domain: 0 }
    }

    #[test]
    fn a_coin_is_a_threshold_signature_on_its_name() {
        // The same rng state deals the same key set either way, a coin
        // share is g^(e·s_i) for e = H("wbft/coin", name), and the value is
        // the combined signature's digest under "wbft/coin/value".
        for (n, t) in [(4, 1), (7, 2), (16, 5)] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
            let (coin, secrets) = deal_coin(n, t, ThresholdCurve::Bn158, &mut rng);
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
            let (keys, sig_secrets) = thresh_sig::deal(n, t, ThresholdCurve::Bn158, &mut rng);
            assert_eq!(coin.keys(), &keys);
            for round in 0..5 {
                let name = CoinName { session: 3, round, domain: round % 2 };
                let e = hash_to_scalar("wbft/coin", &[&name.to_bytes()]);
                let shares: Vec<_> = secrets.iter().map(|s| s.coin_share(name)).collect();
                for (share, sk) in shares.iter().zip(&sig_secrets) {
                    let expected = GroupElem::from_exponent(&e.mul(&sk.secret_scalar()));
                    assert_eq!(share.value, expected);
                }
                let sig = keys.combine(&shares[n - t - 1..]).unwrap();
                let value = sig.value.digest("wbft/coin/value").to_u64();
                assert_eq!(coin.combine_value(name, &shares[..=t]), Ok(value));
            }
        }
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
    fn shares_of_another_name_or_tampered_are_rejected() {
        let (pub_set, secrets) = setup();
        let share = secrets[0].coin_share(name(1));
        assert!(pub_set.verify_shares(name(2), &[share]).is_err());
        pub_set.verify_shares(name(1), &[share]).unwrap();
        // A message signed under the signature domain is not a coin share.
        let signed = secrets[0].sign_share(&name(1).to_bytes());
        assert!(pub_set.verify_shares(name(1), &[signed]).is_err());
        let mut shares: Vec<_> = secrets.iter().map(|s| s.coin_share(name(5))).collect();
        shares[1].value = shares[1].value.mul(&GroupElem::generator());
        assert_eq!(
            pub_set.verify_shares(name(5), &shares),
            Err(ThreshSigError::InvalidShare { index: 2 })
        );
    }

    #[test]
    fn a_checked_quorum_reveals_the_interpolated_value() {
        let (pub_set, secrets) = setup();
        let n = name(4);
        let msg = PreparedMessage::from(n);
        let shares: Vec<_> = secrets.iter().map(|s| s.coin_share(n)).collect();
        assert!(pub_set.keys().invalid_share_positions(&msg, &shares).is_empty());
        let before = tally().coins_combined;
        for quorum in [[shares[0], shares[1]], [shares[3], shares[2]]] {
            let sig = pub_set.keys().combine_verified(&msg, &quorum).unwrap();
            assert_eq!(Ok(reveal(&sig)), pub_set.combine_value(n, &quorum));
        }
        assert_eq!(tally().coins_combined - before, 4, "each reveal counts once");
    }

    #[test]
    fn single_share_insufficient() {
        let (pub_set, secrets) = setup();
        let n = name(7);
        let shares = [secrets[0].coin_share(n)];
        assert!(matches!(
            pub_set.combine(n, &shares),
            Err(ThreshSigError::Shamir(ShamirError::NotEnoughShares { got: 1, need: 2 }))
        ));
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
