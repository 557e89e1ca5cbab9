//! The verdict memo: one bounded per-thread table from the transcript of a
//! pure verification predicate to its boolean result.
//!
//! A simulated broadcast is checked by every receiver on the simulator's
//! one thread, and a retransmitted frame is byte-identical to its first
//! transmission (signatures and proofs are deterministic), so the same
//! question is asked `n − 1` times or more. Four predicates route through
//! this table, each under its own [`Predicate`] tag:
//!
//! * subgroup membership of a decoded element
//!   ([`crate::GroupElem::from_bytes`]) — keyed by the canonical encoding;
//! * a Schnorr packet signature ([`crate::schnorr::PublicKey::verify`]) —
//!   keyed by `(e, z)` with `e = H(R ‖ pk ‖ m)`: the challenge already binds
//!   commitment, key and message, so a hit costs the hash a miss needs anyway;
//! * a decryption share's DLEQ proof
//!   ([`crate::thresh_enc::EncPublicSet::verify_share`]) — keyed by
//!   `(H(i ‖ u ‖ vk_i ‖ d ‖ c), z)`;
//! * a combined threshold signature
//!   ([`crate::thresh_sig::PublicKeySet::verify`]) — keyed by
//!   `(H(vk ‖ e), σ)`.
//!
//! The table has a second writer besides the verifiers: the *producer* of a
//! proof. `KeyPair::sign` records its own signature's Schnorr verdict and the
//! membership of its commitment `R`; `dec_share` records its DLEQ proof's
//! verdict; `sign_share`, `coin_share` and `dec_share` record the membership
//! of the element they return ([`record`], crate-private). Only the holder of
//! the secret can do that — it alone knows the proof is good without
//! checking it — and signatures are deterministic, so the record is exactly
//! what the verifier would have computed. On the simulator's thread the
//! signer's receivers then find their answer waiting; on a UDP node thread
//! nobody asks the signer's own table, and bytes that were tampered with,
//! forged or signed elsewhere hash to a key no producer wrote. Builds with
//! debug assertions evaluate every recorded predicate.
//!
//! Every key binds the verification key it was checked under, so two deals
//! on one thread never share a verdict. A verdict is a pure function of its
//! key — the negative ones included: a transcript that failed once fails
//! forever — so a hit and a miss are indistinguishable to the caller,
//! per-thread tables never disagree, and nothing a simulation reports can
//! depend on what the table holds. The table is cleared wholesale when it
//! reaches [`CAP`] entries.

use std::cell::RefCell;
use std::collections::BTreeMap;

/// The memoized predicates; the tag domain-separates their keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Predicate {
    /// Subgroup membership of a decoded group element.
    Subgroup,
    /// Schnorr packet-signature verification.
    Schnorr,
    /// DLEQ proof of a threshold-decryption share.
    Dleq,
    /// Combined threshold-signature verification.
    ThreshSig,
}

/// Entries held before the table is cleared. A constant, sized to memory:
/// a full table is ~0.4 MiB, what the subgroup-only memo it replaces held
/// (twice the entries at half the key width), and spans several hundred
/// frames — every receiver of a broadcast and the retransmissions that
/// follow it.
pub const CAP: usize = 4096;

/// This thread's verdict counters for one predicate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Verdicts answered from the table.
    pub hits: u64,
    /// Verdicts computed — the distinct checks actually performed.
    pub misses: u64,
    /// Verdicts written by their producer ([`record`]) — for
    /// [`Predicate::Schnorr`], the packet signatures made on this thread.
    pub recorded: u64,
}

type Key = (Predicate, [u8; 32], [u8; 32]);

#[derive(Default)]
struct Memo {
    verdicts: BTreeMap<Key, bool>,
    stats: [Stats; 4],
}

impl Memo {
    fn insert(&mut self, key: Key, v: bool) {
        if self.verdicts.len() >= CAP {
            self.verdicts.clear();
        }
        self.verdicts.insert(key, v);
    }
}

thread_local! {
    /// Per thread: the parallel sweep executor's workers and the UDP node
    /// threads stay off a shared lock.
    static MEMO: RefCell<Memo> = RefCell::new(Memo::default());
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
    let known = MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        let known = memo.verdicts.get(&key).copied();
        let stats = &mut memo.stats[predicate as usize];
        match known {
            Some(_) => stats.hits += 1,
            None => stats.misses += 1,
        }
        known
    });
    if let Some(v) = known {
        return v;
    }
    let v = compute();
    MEMO.with(|memo| memo.borrow_mut().insert(key, v));
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
    MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        memo.stats[predicate as usize].recorded += 1;
        memo.insert((predicate, a, b), true);
    });
}

/// This thread's counters for `predicate`.
pub fn stats(predicate: Predicate) -> Stats {
    MEMO.with(|memo| memo.borrow().stats[predicate as usize])
}

/// Forgets every verdict and zeroes the counters of this thread, so the
/// next call of each predicate computes its answer. This is the one way to
/// the uncached reference: tests compare it with the memoized answer, the
/// `hotpath_*` benches start their first-sight rows from it, and nothing
/// else needs it.
pub fn clear() {
    MEMO.with(|memo| *memo.borrow_mut() = Memo::default());
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
                let v = verdict(Predicate::Schnorr, a, [0; 32], || {
                    calls += 1;
                    expect
                });
                assert_eq!(v, expect);
            }
        }
        assert_eq!(calls, 2);
        assert_eq!(stats(Predicate::Schnorr), Stats { hits: 4, misses: 2, recorded: 0 });
        assert_eq!(stats(Predicate::Dleq), Stats::default());
    }

    #[test]
    fn the_tag_separates_equal_transcripts() {
        clear();
        assert!(verdict(Predicate::Subgroup, [7; 32], [0; 32], || true));
        assert!(!verdict(Predicate::ThreshSig, [7; 32], [0; 32], || false));
        assert!(verdict(Predicate::Subgroup, [7; 32], [0; 32], || unreachable!()));
    }

    #[test]
    fn a_full_table_is_cleared_and_recomputes() {
        clear();
        let word = |i: usize| {
            let mut w = [0u8; 32];
            w[..8].copy_from_slice(&(i as u64).to_le_bytes());
            w
        };
        for i in 0..CAP {
            verdict(Predicate::Dleq, word(i), [0; 32], || i % 2 == 0);
        }
        // Full: entry 0 is still a hit, the next new key clears the table.
        assert!(verdict(Predicate::Dleq, word(0), [0; 32], || unreachable!()));
        verdict(Predicate::Dleq, word(CAP), [0; 32], || true);
        let mut recomputed = false;
        assert!(verdict(Predicate::Dleq, word(0), [0; 32], || {
            recomputed = true;
            true
        }));
        assert!(recomputed);
    }
}
