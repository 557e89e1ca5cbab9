//! The share-quorum algebra under [`crate::thresh_sig`], the one threshold
//! scheme: its key sets sign certificates and proofs, and the common coin
//! too (a coin name is one more message, see [`crate::thresh_coin`]).
//!
//! With `h = g^e` the point a message hashes to, the share `(i, σ_i)` is
//! valid iff `σ_i == vk_i^e`, and `t + 1` valid shares of distinct indices
//! combine by Lagrange interpolation in the exponent to
//! `Π σ_i^{λ_i} = g^{e·s} = vk^e`.

use crate::field::Scalar;
use crate::group::{GroupElem, PrecomputedBase};
use crate::shamir::{lagrange_coeffs_at_zero, ShamirError, ShareIndex};

/// One share as the quorum core sees it: `(index, value)`.
pub(crate) type Item = (ShareIndex, GroupElem);

/// Fixed-base window tables for a key set's group key and every share key.
/// A key set builds them on its first check (~3 plain exponentiations per
/// base) and shares them with all its clones through its
/// [`crate::group::PrecompCache`].
pub(crate) struct KeyTables {
    vk: PrecomputedBase,
    shares: Vec<PrecomputedBase>,
}

impl KeyTables {
    pub(crate) fn new(vk: &GroupElem, vk_shares: &[GroupElem]) -> Self {
        KeyTables {
            vk: PrecomputedBase::new(vk),
            shares: vk_shares.iter().map(PrecomputedBase::new).collect(),
        }
    }

    /// `vk^e`, by table lookups.
    pub(crate) fn group_pow(&self, e: &Scalar) -> GroupElem {
        self.vk.pow(e)
    }

    /// The positions (into `shares`) of every share failing `σ_i == vk_i^e`,
    /// one table exponentiation per share. An index outside the key set
    /// fails without one.
    pub(crate) fn invalid_positions(&self, e: &Scalar, shares: &[Item]) -> Vec<usize> {
        let valid = |(index, value): &Item| {
            let slot = (index.value() as usize).wrapping_sub(1);
            self.shares.get(slot).is_some_and(|table| table.pow(e) == *value)
        };
        (0..shares.len()).filter(|&p| !valid(&shares[p])).collect()
    }

    /// What a quorum of shares that each passed [`Self::invalid_positions`]
    /// combines into: `vk^e`, one table exponentiation in place of the
    /// Lagrange multi-exponentiation of [`interpolate`]. The caller
    /// guarantees the precondition; builds with debug assertions compute the
    /// interpolation too and refuse a quorum that does not give `vk^e`.
    pub(crate) fn combine_verified(
        &self,
        threshold: usize,
        e: &Scalar,
        quorum: &[Item],
    ) -> Result<GroupElem, ShamirError> {
        let need = threshold + 1;
        if quorum.len() < need {
            return Err(ShamirError::NotEnoughShares { got: quorum.len(), need });
        }
        let value = self.vk.pow(e);
        debug_assert_eq!(
            interpolate(threshold, quorum),
            Ok(value),
            "a share of the quorum never passed its check"
        );
        Ok(value)
    }
}

/// The Lagrange interpolation at zero, in the exponent, of the first
/// `threshold + 1` shares: `Π σ_i^{λ_i}`, one simultaneous
/// multi-exponentiation over the (memoized, batch-inverted) coefficients of
/// their index set.
pub(crate) fn interpolate(threshold: usize, shares: &[Item]) -> Result<GroupElem, ShamirError> {
    let need = threshold + 1;
    if shares.len() < need {
        return Err(ShamirError::NotEnoughShares { got: shares.len(), need });
    }
    let quorum = &shares[..need];
    let indices: Vec<ShareIndex> = quorum.iter().map(|(i, _)| *i).collect();
    let lambdas = lagrange_coeffs_at_zero(&indices)?;
    let pairs: Vec<(GroupElem, Scalar)> =
        quorum.iter().zip(&lambdas).map(|((_, value), l)| (*value, *l)).collect();
    Ok(GroupElem::multi_pow(&pairs))
}
