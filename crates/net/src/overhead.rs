//! Closed-form message-overhead-per-node expressions of Table I.
//!
//! The paper counts the exact number of messages ("message overhead", not
//! asymptotic complexity) one node sends in an N-component parallel
//! protocol, in three deployments: wired point-to-point, the wireless
//! broadcast baseline, and ConsensusBatcher. The Table I rows of the
//! `figures` bench print the *measured* channel accesses of the
//! implementation beside these forms.

/// The five component rows of Table I.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Component {
    /// Reliable broadcast (Bracha).
    Rbc,
    /// Consistent broadcast.
    Cbc,
    /// Provable reliable broadcast.
    Prbc,
    /// Bracha's ABA (local coin) — one round.
    AbaLc,
    /// Cachin's ABA (shared coin) — one round.
    AbaSc,
}

impl Component {
    /// All rows, in Table I order.
    pub const ALL: [Component; 5] =
        [Component::Rbc, Component::Cbc, Component::Prbc, Component::AbaLc, Component::AbaSc];

    /// Row label as printed in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Component::Rbc => "RBC",
            Component::Cbc => "CBC",
            Component::Prbc => "PRBC",
            Component::AbaLc => "Bracha's ABA",
            Component::AbaSc => "Cachin's ABA",
        }
    }

    /// Messages per node, N parallel components, wired network
    /// (each broadcast = N−1 unicasts).
    pub fn wired(&self, n: u64) -> u64 {
        match self {
            Component::Rbc => (n - 1) * (1 + 2 * n),
            Component::Cbc => 3 * (n - 1),
            Component::Prbc => (n - 1) * (1 + 3 * n),
            Component::AbaLc => 3 * n * (n - 1) * (1 + 2 * n),
            Component::AbaSc => 3 * n * (n - 1),
        }
    }

    /// Messages per node, N parallel components, wireless broadcast
    /// baseline (each broadcast = one transmission, but still one per
    /// instance and phase).
    pub fn wireless_baseline(&self, n: u64) -> u64 {
        match self {
            Component::Rbc => 1 + 2 * n,
            Component::Cbc => 1 + (n - 1) + 1,
            Component::Prbc => 1 + 3 * n,
            Component::AbaLc => 3 * n * (1 + 2 * n),
            Component::AbaSc => 3 * n,
        }
    }

    /// Messages per node with ConsensusBatcher (batched across the N
    /// instances).
    pub fn consensus_batcher(&self, _n: u64) -> u64 {
        match self {
            Component::Rbc => 1 + 2,
            Component::Cbc => 1 + 1 + 1,
            Component::Prbc => 1 + 3,
            Component::AbaLc => 3 * (1 + 2),
            Component::AbaSc => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_at_n4() {
        // Spot-check the table at the paper's single-hop N = 4.
        assert_eq!(Component::Rbc.wired(4), 3 * 9);
        assert_eq!(Component::Rbc.wireless_baseline(4), 9);
        assert_eq!(Component::Rbc.consensus_batcher(4), 3);
        assert_eq!(Component::Cbc.wired(4), 9);
        assert_eq!(Component::Cbc.wireless_baseline(4), 5);
        assert_eq!(Component::Cbc.consensus_batcher(4), 3);
        assert_eq!(Component::Prbc.wired(4), 3 * 13);
        assert_eq!(Component::Prbc.wireless_baseline(4), 13);
        assert_eq!(Component::Prbc.consensus_batcher(4), 4);
        assert_eq!(Component::AbaLc.wired(4), 12 * 9 * 3);
        assert_eq!(Component::AbaLc.wireless_baseline(4), 12 * 9);
        assert_eq!(Component::AbaLc.consensus_batcher(4), 9);
        assert_eq!(Component::AbaSc.wired(4), 36);
        assert_eq!(Component::AbaSc.wireless_baseline(4), 12);
        assert_eq!(Component::AbaSc.consensus_batcher(4), 3);
    }

    #[test]
    fn batcher_is_constant_in_n() {
        for c in Component::ALL {
            assert_eq!(c.consensus_batcher(4), c.consensus_batcher(16), "{}", c.name());
        }
    }

    #[test]
    fn orderings_hold_for_all_n() {
        for n in [4u64, 7, 10, 16, 31] {
            for c in Component::ALL {
                assert!(c.wired(n) > c.wireless_baseline(n), "{} n={n}", c.name());
                assert!(
                    c.wireless_baseline(n) > c.consensus_batcher(n),
                    "{} n={n}",
                    c.name()
                );
            }
        }
    }
}
