//! The one answer-table type: a bounded, set-associative cache from an
//! exact key to the answer of a pure function of that key.
//!
//! Three per-thread tables are instances of it: the verdict memo
//! ([`crate::memo`]), the Schnorr transcript table ([`crate::schnorr`]) and
//! the opened-frame table of `wbft_net::open`. Each holds `SETS × WAYS`
//! slots. The caller picks a key's set by a cheap `hint` — a few bytes of
//! the key, or a mix of all of them — and within the set *full equality*
//! on the key decides, so two keys that share a hint only evict each other:
//! a collision, a stale entry or an eviction can cost a recomputation,
//! never change an answer. A set keeps its entries most recently used
//! first and drops the least recently used when a new key arrives.
//!
//! Counters come in `LANES` (the memo counts per predicate, the transcript
//! table per signer and verifier side, the open table in one lane), and
//! [`AnswerTable::clear`] forgets everything, counters included: the one
//! way back to the uncached reference that tests and first-sight bench rows
//! start from.

/// One lane's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Questions answered from the table.
    pub hits: u64,
    /// Questions computed — the distinct work actually done.
    pub misses: u64,
    /// Answers written by their producer without anyone having asked
    /// ([`AnswerTable::record`]).
    pub recorded: u64,
}

/// A set-associative table of `sets × ways` slots from `K` to `V`, with
/// `LANES` lanes of [`Stats`].
pub struct AnswerTable<K, V, const LANES: usize = 1> {
    /// Set-major; within a set the most recently used entry comes first.
    slots: Box<[Option<(K, V)>]>,
    ways: usize,
    stats: [Stats; LANES],
}

impl<K, V, const LANES: usize> AnswerTable<K, V, LANES> {
    /// An empty table of `sets × ways` slots. Sizes are constants of each
    /// use, chosen against memory.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "an answer table needs at least one slot");
        AnswerTable {
            slots: std::iter::repeat_with(|| None).take(sets * ways).collect(),
            ways,
            stats: [Stats::default(); LANES],
        }
    }

    /// Which set a hint selects (the hint is spread by a multiply first, so
    /// nearby hints land apart).
    pub fn set_of(&self, hint: u64) -> usize {
        let sets = self.slots.len() / self.ways;
        let spread = hint.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        usize::try_from(spread).unwrap_or(usize::MAX) % sets
    }

    fn set_mut(&mut self, hint: u64) -> &mut [Option<(K, V)>] {
        let start = self.set_of(hint) * self.ways;
        &mut self.slots[start..start + self.ways]
    }

    /// The answer held for `key`, if there is one and `usable` accepts it
    /// (a hit in `lane`, and the entry becomes its set's most recent);
    /// `None` otherwise (a miss: the caller computes the answer and
    /// [`insert`](Self::insert)s it).
    pub fn lookup<Q: ?Sized>(
        &mut self,
        lane: usize,
        hint: u64,
        key: &Q,
        usable: impl FnOnce(&V) -> bool,
    ) -> Option<V>
    where
        K: PartialEq<Q>,
        V: Clone,
    {
        let set = self.set_mut(hint);
        let found = set
            .iter()
            .position(|slot| slot.as_ref().is_some_and(|(k, _)| *k == *key))
            .filter(|&way| set[way].as_ref().is_some_and(|(_, v)| usable(v)));
        let answer = found.and_then(|way| {
            set[..=way].rotate_right(1);
            set[0].as_ref().map(|(_, v)| v.clone())
        });
        let stats = &mut self.stats[lane];
        match answer {
            Some(_) => stats.hits += 1,
            None => stats.misses += 1,
        }
        answer
    }

    /// Stores `value` as the answer for `key`, replacing what the table
    /// held for that key, else its set's least recently used entry.
    pub fn insert(&mut self, hint: u64, key: K, value: V)
    where
        K: PartialEq,
    {
        let set = self.set_mut(hint);
        let way = set
            .iter()
            .position(|slot| slot.as_ref().is_some_and(|(k, _)| *k == key))
            .unwrap_or(set.len() - 1);
        set[..=way].rotate_right(1);
        set[0] = Some((key, value));
    }

    /// [`insert`](Self::insert) by the producer of the answer, counted as
    /// recorded in `lane`.
    pub fn record(&mut self, lane: usize, hint: u64, key: K, value: V)
    where
        K: PartialEq,
    {
        self.stats[lane].recorded += 1;
        self.insert(hint, key, value);
    }

    /// The counters of `lane`.
    pub fn stats(&self, lane: usize) -> Stats {
        self.stats[lane]
    }

    /// Forgets every answer and zeroes every counter.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|slot| *slot = None);
        self.stats = [Stats::default(); LANES];
    }
}

/// A cheap, well-spread hint over arbitrary bytes (eight at a time), for
/// keys without a uniform word of their own.
pub(crate) fn mix(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut chunks = bytes.chunks_exact(8);
    let mut h = bytes.len() as u64;
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(K);
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    (h.rotate_left(5) ^ u64::from_le_bytes(tail)).wrapping_mul(K)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_set_keeps_its_most_recent_ways_and_answers_only_for_held_keys() {
        let mut table: AnswerTable<u64, u64> = AnswerTable::new(1, 2);
        for key in [1, 2] {
            table.insert(0, key, key * 10);
        }
        assert_eq!(table.lookup(0, 0, &1, |_| true), Some(10)); // 1 is now the most recent
        table.insert(0, 3, 30); // evicts 2, the least recently used
        assert_eq!(table.lookup(0, 0, &2, |_| true), None);
        assert_eq!(table.lookup(0, 0, &1, |_| true), Some(10));
        assert_eq!(table.lookup(0, 0, &3, |&v| v == 31), None, "held but refused by the caller");
        table.insert(0, 3, 31); // replaces its own entry, evicts nothing
        assert_eq!(table.lookup(0, 0, &3, |&v| v == 31), Some(31));
        assert_eq!(table.lookup(0, 0, &1, |_| true), Some(10));
        assert_eq!(table.stats(0), Stats { hits: 4, misses: 2, recorded: 0 });
        table.clear();
        assert_eq!(table.lookup(0, 0, &1, |_| true), None);
        assert_eq!(table.stats(0), Stats { hits: 0, misses: 1, recorded: 0 });
    }

    #[test]
    fn the_lanes_count_apart() {
        let mut table: AnswerTable<u8, bool, 2> = AnswerTable::new(4, 1);
        table.record(1, 7, 7, true);
        assert_eq!(table.lookup(1, 7, &7, |_| true), Some(true));
        assert_eq!(table.lookup(0, 8, &8, |_| true), None);
        assert_eq!(table.stats(0), Stats { hits: 0, misses: 1, recorded: 0 });
        assert_eq!(table.stats(1), Stats { hits: 1, misses: 0, recorded: 1 });
    }

    #[test]
    fn mix_sees_every_byte_and_the_length() {
        let base = [7u8; 21];
        for i in 0..base.len() {
            let mut flipped = base;
            flipped[i] ^= 1;
            assert_ne!(mix(&flipped), mix(&base), "byte {i}");
        }
        assert_ne!(mix(&base[..20]), mix(&[&base[..20], &[0u8][..]].concat()));
    }
}
