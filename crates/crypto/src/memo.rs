//! The verdict memo: one bounded per-thread table from the transcript of a
//! pure verification predicate to its boolean result.
//!
//! A simulated broadcast is checked by every receiver on the simulator's
//! one thread, and a retransmitted frame is byte-identical to its first
//! transmission (signatures and proofs are deterministic), so the same
//! question is asked `n − 1` times or more. Two predicates route through
//! this table, each under its own [`Predicate`] tag:
//!
//! * subgroup membership of a decoded element
//!   ([`crate::GroupElem::from_bytes`]) — keyed by the canonical encoding;
//! * a decryption share's DLEQ proof
//!   ([`crate::thresh_enc::EncPublicSet::verify_share`]) — keyed by
//!   `(H(i ‖ u ‖ vk_i ‖ d ‖ c), z)`.
//!
//! Packet signatures have their own table, keyed by the exact signed bytes
//! ([`crate::schnorr`]), so a verifier needs no hash to find its answer.
//! Share checks, combined threshold signatures and decryption keys are
//! powers of public keys, held by the power table ([`crate::quorum`]),
//! which stores the power and leaves the comparison to its caller.
//!
//! The table has a second writer besides the verifiers: the *producer* of a
//! proof. `dec_share` records its DLEQ proof's verdict; `KeyPair::sign`,
//! `sign_share`, `coin_share`, `dec_share`, `combine_verified` and
//! `encrypt` record the membership of the element they return
//! (`record`, crate-private).
//! Only the holder of the secret (or of a checked quorum) can do that — it
//! alone knows the proof is good without checking it — and signatures are
//! deterministic, so the record is exactly what the verifier would have
//! computed. On the simulator's thread the producer's receivers then find
//! their answer waiting; on a UDP node thread nobody asks the producer's own
//! table, and bytes that were tampered with, forged or made elsewhere map to
//! a key no producer wrote. Builds with debug assertions evaluate every
//! recorded predicate.
//!
//! Every key binds the verification key it was checked under, so two deals
//! on one thread never share a verdict. A verdict is a pure function of its
//! key — the negative ones included: a transcript that failed once fails
//! forever — so a hit and a miss are indistinguishable to the caller,
//! per-thread tables never disagree, and nothing a simulation reports can
//! depend on what the table holds. The table is an [`AnswerTable`] of
//! [`SETS`] × [`WAYS`] entries: a new key evicts the least recently used
//! entry of its set, never the rest of the table.

use crate::table::{AnswerTable, Stats};
use std::cell::RefCell;

/// The memoized predicates; the tag domain-separates their keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Predicate {
    /// Subgroup membership of a decoded group element.
    Subgroup,
    /// DLEQ proof of a threshold-decryption share.
    Dleq,
}

/// Sets of the table. With [`WAYS`] a constant sized to memory, not a
/// knob: 4 096 entries of 66 bytes (~0.27 MiB, less than the full
/// `BTreeMap` it replaced), several hundred frames' worth — every receiver
/// of a broadcast and the retransmissions that follow it. A direct-mapped
/// table of 8 192 entries cost 11 % more resident memory on a four-thread
/// UDP cluster, one memo per node thread.
pub const SETS: usize = 1024;

/// Entries per set.
pub const WAYS: usize = 4;

type Key = (Predicate, [u8; 32], [u8; 32]);

thread_local! {
    /// Per thread: the parallel sweep executor's workers and the UDP node
    /// threads stay off a shared lock.
    static MEMO: RefCell<AnswerTable<Key, bool, 2>> = RefCell::new(AnswerTable::new(SETS, WAYS));
}

/// The set hint of a transcript: `a` is a hash output or a canonical
/// element encoding, uniform in its first word.
fn hint(predicate: Predicate, a: &[u8; 32]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&a[..8]);
    u64::from_le_bytes(word) ^ predicate as u64
}

/// The verdict of `predicate` on the transcript `(a, b)`: from the table
/// when it is there, from `compute` (and into the table) when it is not.
pub(crate) fn verdict(
    predicate: Predicate,
    a: [u8; 32],
    b: [u8; 32],
    compute: impl FnOnce() -> bool,
) -> bool {
    let key = (predicate, a, b);
    let hint = hint(predicate, &a);
    let known = MEMO.with(|memo| memo.borrow_mut().lookup(predicate as usize, hint, &key, |_| true));
    if let Some(v) = known {
        return v;
    }
    let v = compute();
    MEMO.with(|memo| memo.borrow_mut().insert(hint, key, v));
    v
}

/// Writes down that `predicate` holds on `(a, b)` without anyone having
/// asked: the producer of a signature or share has just established it by
/// construction. Only code holding the secret may call this — a record is
/// a verdict nobody computed, so it must come from the one party that
/// cannot be wrong about it. `holds` is the predicate itself; builds with
/// debug assertions (every `cargo test` simulation) evaluate it and refuse a
/// record it contradicts, so a signer bug cannot hide behind its own entry.
pub(crate) fn record(predicate: Predicate, a: [u8; 32], b: [u8; 32], holds: impl FnOnce() -> bool) {
    debug_assert!(holds(), "{predicate:?}: the producer recorded a verdict the predicate refutes");
    let hint = hint(predicate, &a);
    MEMO.with(|memo| memo.borrow_mut().record(predicate as usize, hint, (predicate, a, b), true));
}

/// This thread's counters for `predicate`.
pub fn stats(predicate: Predicate) -> Stats {
    MEMO.with(|memo| memo.borrow().stats(predicate as usize))
}

/// Forgets every verdict and zeroes the counters of this thread, so the
/// next call of each predicate computes its answer. This is the one way to
/// the uncached reference: tests compare it with the memoized answer, the
/// `hotpath_*` benches start their first-sight rows from it, and nothing
/// else needs it. Packet signatures and powers have their own
/// [`crate::schnorr::clear`] and [`crate::quorum::clear`].
pub fn clear() {
    MEMO.with(|memo| memo.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_verdict_is_computed_once_and_kept_negative_or_not() {
        clear();
        let mut calls = 0;
        for expect in [false, true] {
            let a = [expect as u8; 32];
            for _ in 0..3 {
                let v = verdict(Predicate::Dleq, a, [0; 32], || {
                    calls += 1;
                    expect
                });
                assert_eq!(v, expect);
            }
        }
        assert_eq!(calls, 2);
        assert_eq!(stats(Predicate::Dleq), Stats { hits: 4, misses: 2, recorded: 0 });
        assert_eq!(stats(Predicate::Subgroup), Stats::default());
    }

    #[test]
    fn the_tag_separates_equal_transcripts() {
        clear();
        assert!(verdict(Predicate::Subgroup, [7; 32], [0; 32], || true));
        assert!(!verdict(Predicate::Dleq, [7; 32], [0; 32], || false));
        assert!(verdict(Predicate::Subgroup, [7; 32], [0; 32], || unreachable!()));
    }

    #[test]
    fn a_new_key_evicts_its_sets_oldest_entry_and_nothing_else() {
        clear();
        let word = |i: u64| {
            let mut w = [0u8; 32];
            w[..8].copy_from_slice(&i.to_le_bytes());
            w
        };
        let set = |i: u64| MEMO.with(|memo| memo.borrow().set_of(hint(Predicate::Dleq, &word(i))));
        let neighbour = (1..).find(|&i| set(i) != set(0)).unwrap();
        let same_set: Vec<u64> = (1..).filter(|&i| set(i) == set(0)).take(WAYS).collect();
        verdict(Predicate::Dleq, word(0), [0; 32], || true);
        verdict(Predicate::Dleq, word(neighbour), [0; 32], || true);
        // WAYS newer keys in the same set: entry 0 goes, its neighbour stays.
        for &i in &same_set {
            verdict(Predicate::Dleq, word(i), [0; 32], || false);
        }
        assert!(verdict(Predicate::Dleq, word(neighbour), [0; 32], || unreachable!()));
        let mut recomputed = false;
        assert!(verdict(Predicate::Dleq, word(0), [0; 32], || {
            recomputed = true;
            true
        }));
        assert!(recomputed);
    }
}
