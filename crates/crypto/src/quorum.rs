//! The share-quorum algebra under [`crate::thresh_sig`], the one threshold
//! scheme: its key sets sign certificates and proofs, and the common coin
//! too (a coin name is one more message, see [`crate::thresh_coin`]).
//!
//! With `h = g^e` the point a message hashes to, the share `(i, σ_i)` is
//! valid iff `σ_i == vk_i^e`, and `t + 1` valid shares of distinct indices
//! combine by Lagrange interpolation in the exponent to
//! `Π σ_i^{λ_i} = g^{e·s} = vk^e`.
//!
//! ## The power table
//!
//! Every question a key set answers is a power of one of its keys: a share
//! check compares `σ_i` with `vk_i^e`, a combined signature (made or
//! checked) is `vk^e`, and a threshold-decryption key is `u^s = vk^r`. On
//! the simulator's one thread all `n` nodes ask the same powers, so one
//! per-thread [`AnswerTable`] holds them, keyed by `(base, exponent)`
//! compared in full and answering with the power itself. The exponent is a
//! known scalar (`Exponent::Known`) or the discrete log of a public key
//! (`Exponent::LogOf`): the decryption key `u^s` is keyed by
//! `(u, log vk)` while `s` stays secret.
//!
//! The table stores powers, never verdicts: the caller compares. A forged
//! share, another deal's share (another `vk_i`) or another message's share
//! (another `e`) still fails, whatever the table holds. Besides the
//! readers, whoever made a power writes it down: a share signer records
//! `(vk_i, e) → σ_i` (it holds `s_i`, so `σ_i = g^{e·s_i}` is `vk_i^e` by
//! construction), and an encryptor records `(u, log vk) → vk^r` (it drew
//! `r`). Builds with debug assertions recompute every record. On a UDP node
//! thread the table answers a node's own shares and ciphertexts and
//! repeated certificate checks; everything else is computed on first
//! sight. The table holds [`SETS`] × [`WAYS`] entries.

use crate::field::Scalar;
use crate::group::{GroupElem, PrecomputedBase};
use crate::shamir::{lagrange_coeffs_at_zero, ShamirError, ShareIndex};
use crate::table::{AnswerTable, Stats};
use std::cell::RefCell;

/// One share as the quorum core sees it: `(index, value)`.
pub(crate) type Item = (ShareIndex, GroupElem);

/// The exponent of a power-table key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exponent {
    /// A scalar the asker knows: the `e` of a message hashing to `g^e`.
    Known(Scalar),
    /// The discrete log of this element, which no asker knows: `s` of the
    /// encryption key `vk = g^s`.
    LogOf(GroupElem),
}

/// The two users of the power table, each with its own counters
/// ([`stats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// Key-set exponentiations: share checks (`vk_i^e`) and combined
    /// signatures, made or checked (`vk^e`). Share signers record here.
    KeySet,
    /// Threshold-decryption keys `u^s`. Encryptors record here.
    DecryptionKey,
}

/// Sets of the power table. With [`WAYS`] a constant sized to what one
/// epoch asks, not a knob: on one thread running hb-sc, beat and dumbo-sc
/// single-hop × seeds 1–4 × 20 epochs, 16 × 4 entries answer 27 588 of
/// 30 624 key-set questions and 1 897 of 2 028 decryption keys, 64 × 4
/// answer 27 855 and 2 025, 256 × 4 answer 27 869 and all 2 028.
pub const SETS: usize = 64;

/// Entries per set.
pub const WAYS: usize = 4;

type Key = (GroupElem, Exponent);

thread_local! {
    /// Per thread, like the verdict memo and the transcript table.
    static POWERS: RefCell<AnswerTable<Key, GroupElem, 2>> =
        RefCell::new(AnswerTable::new(SETS, WAYS));
}

/// The set hint of a key: the first words of the base and the exponent,
/// both uniform (a group element, a hash-derived scalar or a key).
fn hint(base: &GroupElem, exponent: &Exponent) -> u64 {
    let word = |bytes: [u8; 32]| {
        let mut w = [0u8; 8];
        w.copy_from_slice(&bytes[..8]);
        u64::from_le_bytes(w)
    };
    let exp = match exponent {
        Exponent::Known(e) => e.limbs()[0],
        Exponent::LogOf(vk) => word(vk.to_bytes()).rotate_left(1),
    };
    word(base.to_bytes()) ^ exp.rotate_left(32)
}

/// The power `base^exponent` if this thread's table holds it.
pub(crate) fn lookup(lane: Lane, base: &GroupElem, exponent: Exponent) -> Option<GroupElem> {
    let key = (*base, exponent);
    POWERS.with(|t| t.borrow_mut().lookup(lane as usize, hint(base, &exponent), &key, |_| true))
}

/// Stores `value` as `base^exponent`, after a [`lookup`] that missed: the
/// caller computed it.
pub(crate) fn insert(base: &GroupElem, exponent: Exponent, value: GroupElem) {
    POWERS.with(|t| t.borrow_mut().insert(hint(base, &exponent), (*base, exponent), value));
}

/// Writes down `base^exponent = value` without anyone having asked, for the
/// producer of the power, who knows it by construction (see the
/// [module docs](self)). `holds` recomputes it: builds with debug
/// assertions evaluate it and refuse a record it contradicts.
pub(crate) fn record(
    lane: Lane,
    base: GroupElem,
    exponent: Exponent,
    value: GroupElem,
    holds: impl FnOnce() -> bool,
) {
    debug_assert!(holds(), "{lane:?}: the producer recorded a power that does not hold");
    let hint = hint(&base, &exponent);
    POWERS.with(|t| t.borrow_mut().record(lane as usize, hint, (base, exponent), value));
}

/// This thread's power-table counters for `lane`.
pub fn stats(lane: Lane) -> Stats {
    POWERS.with(|t| t.borrow().stats(lane as usize))
}

/// Forgets every power and zeroes the counters of this thread (the
/// counterpart of [`crate::memo::clear`] and [`crate::schnorr::clear`]):
/// the next question of each key computes its answer.
pub fn clear() {
    POWERS.with(|t| t.borrow_mut().clear());
}

/// Fixed-base window tables for a key set's group key and every share key.
/// A key set builds them on its first check (~3 plain exponentiations per
/// base) and shares them with all its clones through its
/// [`crate::group::PrecompCache`]. Every power goes through the power table
/// first.
pub(crate) struct KeyTables {
    vk: PrecomputedBase,
    shares: Vec<PrecomputedBase>,
}

/// `table.base()^e`: from the power table, else by table lookups (and into
/// the power table).
fn key_pow(table: &PrecomputedBase, e: &Scalar) -> GroupElem {
    let (base, exponent) = (table.base(), Exponent::Known(*e));
    lookup(Lane::KeySet, &base, exponent).unwrap_or_else(|| {
        let value = table.pow(e);
        insert(&base, exponent, value);
        value
    })
}

impl KeyTables {
    pub(crate) fn new(vk: &GroupElem, vk_shares: &[GroupElem]) -> Self {
        KeyTables {
            vk: PrecomputedBase::new(vk),
            shares: vk_shares.iter().map(PrecomputedBase::new).collect(),
        }
    }

    /// `vk^e`.
    pub(crate) fn group_pow(&self, e: &Scalar) -> GroupElem {
        key_pow(&self.vk, e)
    }

    /// The positions (into `shares`) of every share failing `σ_i == vk_i^e`.
    /// An index outside the key set fails without a power.
    pub(crate) fn invalid_positions(&self, e: &Scalar, shares: &[Item]) -> Vec<usize> {
        let valid = |(index, value): &Item| {
            let slot = (index.value() as usize).wrapping_sub(1);
            self.shares.get(slot).is_some_and(|table| key_pow(table, e) == *value)
        };
        (0..shares.len()).filter(|&p| !valid(&shares[p])).collect()
    }

    /// What a quorum of shares that each passed [`Self::invalid_positions`]
    /// combines into: `vk^e`, one power in place of the Lagrange
    /// multi-exponentiation of [`interpolate`]. The caller guarantees the
    /// precondition; builds with debug assertions compute the interpolation
    /// too and refuse a quorum that does not give `vk^e`.
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
        let value = self.group_pow(e);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_power_is_computed_once_and_the_key_is_compared_in_full() {
        clear();
        let g = GroupElem::generator();
        let (two, three) = (Scalar::from_u64(2), Scalar::from_u64(3));
        let table = PrecomputedBase::new(&g);
        for _ in 0..3 {
            assert_eq!(key_pow(&table, &two), g.pow(&two));
        }
        // Another exponent, another base, the other exponent form: misses.
        assert_eq!(lookup(Lane::KeySet, &g, Exponent::Known(three)), None);
        assert_eq!(lookup(Lane::KeySet, &g.pow(&two), Exponent::Known(two)), None);
        assert_eq!(lookup(Lane::DecryptionKey, &g, Exponent::LogOf(g.pow(&two))), None);
        assert_eq!(stats(Lane::KeySet), Stats { hits: 2, misses: 3, recorded: 0 });
        assert_eq!(stats(Lane::DecryptionKey), Stats { hits: 0, misses: 1, recorded: 0 });
        record(Lane::DecryptionKey, g, Exponent::LogOf(g.pow(&two)), g.pow(&two), || true);
        let key = lookup(Lane::DecryptionKey, &g, Exponent::LogOf(g.pow(&two)));
        assert_eq!(key, Some(g.pow(&two)));
        assert_eq!(stats(Lane::DecryptionKey), Stats { hits: 1, misses: 1, recorded: 1 });
        clear();
        assert_eq!(stats(Lane::KeySet), Stats::default());
        assert_eq!(lookup(Lane::KeySet, &g, Exponent::Known(two)), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not hold")]
    fn a_record_that_does_not_hold_is_refused_in_debug_builds() {
        let g = GroupElem::generator();
        let two = Scalar::from_u64(2);
        record(Lane::KeySet, g, Exponent::Known(two), g, || g.pow(&two) == g);
    }
}
