//! Dealerless proactive resharing of Shamir-shared secrets.
//!
//! A committee holding a `(t_old, n_old)` sharing of a secret `s` hands the
//! *same* secret to a new committee under a fresh `(t_new, n_new)` sharing,
//! with no trusted dealer: each dealer `d` (an old-committee member)
//! reshares its own share `s_d` with a fresh degree-`t_new` polynomial
//! `P_d` (`P_d(0) = s_d`) and publishes Feldman commitments
//! `g^{coeff_k(P_d)}` plus the subshare `P_d(x_j)` for every new index
//! `x_j`. Any set of `t_old + 1` (or more) verified dealings then
//! interpolates to the new share of index `j`:
//!
//! ```text
//! s'_j = Σ_d λ_d · P_d(x_j)      (λ_d: Lagrange coeffs of the dealer
//!                                  index set at zero)
//! ```
//!
//! which is a degree-`t_new` sharing of `Σ_d λ_d·s_d = s`. The group key
//! `vk = g^s` is therefore *unchanged* across the roll — combined
//! signatures and coins from the new committee verify under the old `vk` —
//! while every per-node verification key moves: `vk'_j` is publicly
//! computable from the commitment vectors alone, so even a node that holds
//! no share can derive the new public set.
//!
//! Verification is pure Feldman: a subshare for index `x` is valid iff
//! `g^{P_d(x)} == Π_k C_{d,k}^{x^k}`, and a dealing is *bound to the
//! dealer's registered old share* by requiring `C_{d,0} == vk_d` (the
//! dealer's published old verification key share). A dealer cannot reshare
//! a different secret without being caught by every verifier.
//!
//! Same caveat as the rest of this crate (see the crate docs): subshares
//! here travel in the clear, which leaks shares to a passive observer.
//! The *structure* (commitments, binding, interpolation, key-epoch roll)
//! is faithful; confidentiality of dealings is out of scope for the
//! simulation substrate.

use crate::field::Scalar;
use crate::group::GroupElem;
use crate::shamir::{lagrange_coeffs_at_zero, Polynomial, ShamirError, ShareIndex};
use rand::RngCore;

/// Errors from resharing verification and combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReshareError {
    /// The dealing's zeroth commitment does not equal the dealer's
    /// registered old verification key share.
    WrongDealerCommitment {
        /// Old index of the offending dealer.
        dealer: u16,
    },
    /// A subshare failed its Feldman check.
    InvalidSubshare {
        /// Old index of the dealer.
        dealer: u16,
        /// New index the subshare was meant for.
        index: u16,
    },
    /// A dealing carries no subshare for the requested new index.
    MissingSubshare {
        /// Old index of the dealer.
        dealer: u16,
        /// New index that was requested.
        index: u16,
    },
    /// The dealing's commitment vector is empty.
    EmptyDealing {
        /// Old index of the dealer.
        dealer: u16,
    },
    /// Underlying share-set error (duplicate dealers, too few dealings).
    Shamir(ShamirError),
}

impl core::fmt::Display for ReshareError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReshareError::WrongDealerCommitment { dealer } => {
                write!(f, "dealer {dealer} committed to a value other than its old share")
            }
            ReshareError::InvalidSubshare { dealer, index } => {
                write!(f, "dealer {dealer} dealt an invalid subshare for new index {index}")
            }
            ReshareError::MissingSubshare { dealer, index } => {
                write!(f, "dealer {dealer} dealt no subshare for new index {index}")
            }
            ReshareError::EmptyDealing { dealer } => {
                write!(f, "dealer {dealer} published an empty commitment vector")
            }
            ReshareError::Shamir(e) => write!(f, "reshare dealer set error: {e}"),
        }
    }
}

impl std::error::Error for ReshareError {}

impl From<ShamirError> for ReshareError {
    fn from(e: ShamirError) -> Self {
        ReshareError::Shamir(e)
    }
}

/// One dealer's resharing of its own old share: Feldman commitments to the
/// fresh polynomial plus one subshare per new-committee index. Broadcast
/// in the clear (see the module docs for the confidentiality caveat).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReshareDealing {
    /// The dealer's index in the *old* sharing.
    pub dealer: ShareIndex,
    /// `g^{coeff_k}` for the fresh polynomial, low degree first;
    /// `commitments[0]` must equal the dealer's old `vk_share`.
    pub commitments: Vec<GroupElem>,
    /// `(new index, P_d(new index))`, one per new-committee member, in the
    /// order the dealer was given the new index set.
    pub subshares: Vec<(ShareIndex, Scalar)>,
}

/// `Π_k commitments[k]^{x^k}` — the public image `g^{P(x)}` of the dealt
/// polynomial at `x`, from commitments alone.
pub fn eval_commitments(commitments: &[GroupElem], at: ShareIndex) -> GroupElem {
    let x = at.to_scalar();
    let mut pow = Scalar::ONE;
    let mut pairs = Vec::with_capacity(commitments.len());
    for c in commitments {
        pairs.push((*c, pow));
        pow = pow.mul(&x);
    }
    GroupElem::multi_pow(&pairs)
}

impl ReshareDealing {
    /// Produces this dealer's dealing: a fresh degree-`new_threshold`
    /// polynomial with constant term `old_share`, evaluated at every new
    /// index, with Feldman commitments to all coefficients.
    pub fn deal(
        old_share: Scalar,
        dealer: ShareIndex,
        new_indices: &[ShareIndex],
        new_threshold: usize,
        rng: &mut impl RngCore,
    ) -> Self {
        let poly = Polynomial::random(old_share, new_threshold, rng);
        let commitments =
            poly.coefficients().iter().map(GroupElem::from_exponent).collect();
        let subshares = new_indices.iter().map(|&j| (j, poly.share(j))).collect();
        ReshareDealing { dealer, commitments, subshares }
    }

    /// Verifies the whole dealing against the dealer's registered old
    /// verification key share: commitment binding plus the Feldman check on
    /// every subshare.
    ///
    /// # Errors
    ///
    /// [`ReshareError::WrongDealerCommitment`] if `commitments[0] != vk_d`,
    /// [`ReshareError::InvalidSubshare`] naming the first bad subshare.
    pub fn verify(&self, dealer_old_vk_share: &GroupElem) -> Result<(), ReshareError> {
        let Some(head) = self.commitments.first() else {
            return Err(ReshareError::EmptyDealing { dealer: self.dealer.value() });
        };
        if head != dealer_old_vk_share {
            return Err(ReshareError::WrongDealerCommitment { dealer: self.dealer.value() });
        }
        for (index, sub) in &self.subshares {
            if GroupElem::from_exponent(sub) != eval_commitments(&self.commitments, *index) {
                return Err(ReshareError::InvalidSubshare {
                    dealer: self.dealer.value(),
                    index: index.value(),
                });
            }
        }
        Ok(())
    }

    /// The subshare this dealing carries for `index`, if any.
    pub fn subshare_for(&self, index: ShareIndex) -> Option<Scalar> {
        self.subshares.iter().find(|(i, _)| *i == index).map(|(_, s)| *s)
    }
}

/// Interpolates new index `target`'s share of the *original* secret from
/// one verified dealing per dealer. Works with any number of distinct
/// dealers `≥ t_old + 1` — interpolating a degree-`t_old` polynomial
/// through more than `t_old + 1` points is still exact, which is what lets
/// one canonical dealer set serve key sets of different thresholds.
///
/// # Errors
///
/// Share-set errors on duplicate dealers, [`ReshareError::MissingSubshare`]
/// if a dealing lacks `target`.
pub fn combine_subshares(
    dealings: &[&ReshareDealing],
    target: ShareIndex,
) -> Result<Scalar, ReshareError> {
    let indices: Vec<ShareIndex> = dealings.iter().map(|d| d.dealer).collect();
    let lambdas = lagrange_coeffs_at_zero(&indices)?;
    let mut acc = Scalar::ZERO;
    for (d, lambda) in dealings.iter().zip(&lambdas) {
        let sub = d.subshare_for(target).ok_or(ReshareError::MissingSubshare {
            dealer: d.dealer.value(),
            index: target.value(),
        })?;
        acc = acc.add(&lambda.mul(&sub));
    }
    Ok(acc)
}

/// Publicly derives the *new* verification key share of `target` from the
/// commitment vectors alone: `vk'_j = Π_d (g^{P_d(x_j)})^{λ_d}`. Every
/// node — including one that holds no share — computes the same value.
///
/// # Errors
///
/// Share-set errors on duplicate dealers,
/// [`ReshareError::EmptyDealing`] on an empty commitment vector.
pub fn derive_vk_share(
    dealings: &[&ReshareDealing],
    target: ShareIndex,
) -> Result<GroupElem, ReshareError> {
    let indices: Vec<ShareIndex> = dealings.iter().map(|d| d.dealer).collect();
    let lambdas = lagrange_coeffs_at_zero(&indices)?;
    let mut acc = GroupElem::identity();
    for (d, lambda) in dealings.iter().zip(&lambdas) {
        if d.commitments.is_empty() {
            return Err(ReshareError::EmptyDealing { dealer: d.dealer.value() });
        }
        acc = acc.mul(&eval_commitments(&d.commitments, target).pow(lambda));
    }
    Ok(acc)
}

/// Publicly derives the (unchanged) group key from the dealings:
/// `Π_d C_{d,0}^{λ_d} = g^{Σ λ_d s_d} = g^s`. Verifiers compare this
/// against the registered `vk` as a whole-ceremony sanity check.
///
/// # Errors
///
/// Share-set errors on duplicate dealers,
/// [`ReshareError::EmptyDealing`] on an empty commitment vector.
pub fn derive_group_key(dealings: &[&ReshareDealing]) -> Result<GroupElem, ReshareError> {
    let indices: Vec<ShareIndex> = dealings.iter().map(|d| d.dealer).collect();
    let lambdas = lagrange_coeffs_at_zero(&indices)?;
    let mut acc = GroupElem::identity();
    for (d, lambda) in dealings.iter().zip(&lambdas) {
        let Some(head) = d.commitments.first() else {
            return Err(ReshareError::EmptyDealing { dealer: d.dealer.value() });
        };
        acc = acc.mul(&head.pow(lambda));
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shamir::reconstruct_secret;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    /// Deals an old sharing, reshare it to a new index set, and returns
    /// (secret, new shares indexed by position in `new_indices`).
    fn roll(
        seed: u64,
        n_old: usize,
        t_old: usize,
        dealer_ids: &[usize],
        new_indices: &[ShareIndex],
        t_new: usize,
    ) -> (Scalar, Vec<Scalar>) {
        let mut r = rng(seed);
        let secret = Scalar::random(&mut r);
        let poly = Polynomial::random(secret, t_old, &mut r);
        let old: Vec<(ShareIndex, Scalar)> = (0..n_old)
            .map(|i| {
                let idx = ShareIndex::for_node(i);
                (idx, poly.share(idx))
            })
            .collect();
        let dealings: Vec<ReshareDealing> = dealer_ids
            .iter()
            .map(|&d| {
                ReshareDealing::deal(old[d].1, old[d].0, new_indices, t_new, &mut r)
            })
            .collect();
        // Every dealing verifies against the dealer's old vk share.
        for (k, &d) in dealer_ids.iter().enumerate() {
            dealings[k].verify(&GroupElem::from_exponent(&old[d].1)).unwrap();
        }
        let refs: Vec<&ReshareDealing> = dealings.iter().collect();
        let new_shares = new_indices
            .iter()
            .map(|&j| combine_subshares(&refs, j).unwrap())
            .collect();
        (secret, new_shares)
    }

    #[test]
    fn reshared_shares_reconstruct_the_same_secret() {
        let new_indices: Vec<ShareIndex> = (0..4).map(ShareIndex::for_node).collect();
        let (secret, shares) = roll(7, 4, 1, &[0, 2], &new_indices, 1);
        let pairs: Vec<(ShareIndex, Scalar)> =
            new_indices.iter().copied().zip(shares).collect();
        assert_eq!(reconstruct_secret(&pairs[1..3], 1).unwrap(), secret);
        assert_eq!(reconstruct_secret(&[pairs[0], pairs[3]], 1).unwrap(), secret);
    }

    #[test]
    fn oversized_dealer_set_is_still_exact() {
        // 2f+1 = 3 dealers resharing a threshold-f (=1) sharing: more
        // points than the degree needs, interpolation must stay exact.
        let new_indices: Vec<ShareIndex> = (0..4).map(ShareIndex::for_node).collect();
        let (secret, shares) = roll(11, 4, 1, &[0, 1, 3], &new_indices, 1);
        let pairs: Vec<(ShareIndex, Scalar)> =
            new_indices.iter().copied().zip(shares).collect();
        assert_eq!(reconstruct_secret(&pairs[..2], 1).unwrap(), secret);
    }

    #[test]
    fn group_key_is_preserved_and_vk_shares_derivable() {
        let mut r = rng(3);
        let secret = Scalar::random(&mut r);
        let poly = Polynomial::random(secret, 2, &mut r);
        let old: Vec<(ShareIndex, Scalar)> = (0..7)
            .map(|i| {
                let idx = ShareIndex::for_node(i);
                (idx, poly.share(idx))
            })
            .collect();
        let new_indices: Vec<ShareIndex> = (0..7).map(ShareIndex::for_node).collect();
        let dealings: Vec<ReshareDealing> = [1usize, 2, 4, 5, 6]
            .iter()
            .map(|&d| ReshareDealing::deal(old[d].1, old[d].0, &new_indices, 2, &mut r))
            .collect();
        let refs: Vec<&ReshareDealing> = dealings.iter().collect();
        assert_eq!(derive_group_key(&refs).unwrap(), GroupElem::from_exponent(&secret));
        for &j in &new_indices {
            let s = combine_subshares(&refs, j).unwrap();
            assert_eq!(derive_vk_share(&refs, j).unwrap(), GroupElem::from_exponent(&s));
        }
    }

    #[test]
    fn wrong_dealer_commitment_is_rejected() {
        let mut r = rng(5);
        let new_indices: Vec<ShareIndex> = (0..4).map(ShareIndex::for_node).collect();
        let share = Scalar::random(&mut r);
        let dealing =
            ReshareDealing::deal(share, ShareIndex::for_node(1), &new_indices, 1, &mut r);
        // Verifying against a different registered vk share fails.
        let other = GroupElem::from_exponent(&share.add(&Scalar::ONE));
        assert_eq!(
            dealing.verify(&other),
            Err(ReshareError::WrongDealerCommitment { dealer: 2 })
        );
    }

    #[test]
    fn tampered_subshare_is_localized() {
        let mut r = rng(9);
        let new_indices: Vec<ShareIndex> = (0..4).map(ShareIndex::for_node).collect();
        let share = Scalar::random(&mut r);
        let mut dealing =
            ReshareDealing::deal(share, ShareIndex::for_node(0), &new_indices, 1, &mut r);
        dealing.subshares[2].1 = dealing.subshares[2].1.add(&Scalar::ONE);
        assert_eq!(
            dealing.verify(&GroupElem::from_exponent(&share)),
            Err(ReshareError::InvalidSubshare { dealer: 1, index: 3 })
        );
    }

    #[test]
    fn missing_subshare_and_duplicate_dealer_are_rejected() {
        let mut r = rng(13);
        let new_indices = [ShareIndex::for_node(0)];
        let share = Scalar::random(&mut r);
        let dealing =
            ReshareDealing::deal(share, ShareIndex::for_node(0), &new_indices, 1, &mut r);
        let other =
            ReshareDealing::deal(share, ShareIndex::for_node(1), &new_indices, 1, &mut r);
        assert_eq!(
            combine_subshares(&[&dealing, &other], ShareIndex::for_node(3)),
            Err(ReshareError::MissingSubshare { dealer: 1, index: 4 })
        );
        assert!(matches!(
            combine_subshares(&[&dealing, &dealing], ShareIndex::for_node(0)),
            Err(ReshareError::Shamir(ShamirError::DuplicateIndex(1)))
        ));
    }

    #[test]
    fn empty_dealing_is_rejected() {
        let d = ReshareDealing {
            dealer: ShareIndex::for_node(0),
            commitments: vec![],
            subshares: vec![],
        };
        assert_eq!(
            d.verify(&GroupElem::generator()),
            Err(ReshareError::EmptyDealing { dealer: 1 })
        );
        assert_eq!(derive_group_key(&[&d]), Err(ReshareError::EmptyDealing { dealer: 1 }));
    }
}
