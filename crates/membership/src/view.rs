//! Chain-derived committee configurations.
//!
//! A [`CommitteeLog`] is a pure fold over the committed chain: feed it the
//! membership ops of every committed epoch, in epoch order, and it yields
//! the full schedule of committee configurations — each one activating a
//! fixed [`ACTIVATION_DELAY`] epochs after the commit that created it, so
//! the old committee has a deterministic window to run the resharing
//! ceremony before the new one takes over. Two honest nodes with the same
//! chain prefix hold byte-identical logs; there is no other input.
//!
//! Invalid change sets are *rejected deterministically*, never partially
//! applied: an op set that would produce an unsupported committee size
//! (`n < 4` or `n ≢ 1 (mod 3)`), a no-op set, or a set committed while an
//! earlier change has not yet activated (overlapping change windows would
//! force two concurrent ceremonies over different source committees) is
//! dropped by every node alike.

use crate::op::MembershipOp;

/// Epochs between an op's commit and its activation. Two epochs keep one
/// full epoch of slack for the resharing ceremony: deals broadcast when
/// epoch `e` commits can settle while epoch `e + 1` runs under the old
/// keys.
pub const ACTIVATION_DELAY: u64 = 2;

/// `true` iff the engine/Params layer supports a committee of `n` nodes
/// (`n = 3f + 1` for some `f ≥ 1`).
pub fn valid_committee_size(n: usize) -> bool {
    n >= 4 && (n - 1).is_multiple_of(3)
}

/// One scheduled committee configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitteeConfig {
    /// First epoch this configuration is in effect for.
    pub activation_epoch: u64,
    /// Monotone key-epoch counter: 0 for genesis, +1 per resharing roll.
    pub key_epoch: u64,
    /// Member *global* ids, sorted ascending. A member's committee slot is
    /// its position here — slots are derived, never carried on the wire.
    pub members: Vec<u16>,
}

impl CommitteeConfig {
    /// Committee size.
    pub fn n(&self) -> usize {
        self.members.len()
    }

    /// Fault budget `f = (n - 1) / 3`.
    pub fn f(&self) -> usize {
        (self.members.len() - 1) / 3
    }

    /// The committee slot of global id `node`, if it is a member.
    pub fn slot_of(&self, node: u16) -> Option<usize> {
        self.members.binary_search(&node).ok()
    }

    /// `true` iff `node` is a member.
    pub fn contains(&self, node: u16) -> bool {
        self.slot_of(node).is_some()
    }
}

/// The committee in effect at one epoch, as engines consume it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitteeView {
    /// Activation epoch of the configuration in effect.
    pub cfg_epoch: u64,
    /// Member global ids, sorted (slot = position).
    pub members: Vec<u16>,
    /// Fault budget of this configuration.
    pub f: usize,
    /// Key epoch whose threshold shares sign in this configuration.
    pub key_epoch: u64,
}

/// Deterministic fold of committed membership ops into a configuration
/// schedule.
#[derive(Clone, Debug)]
pub struct CommitteeLog {
    /// Scheduled configurations, ascending activation; `configs[0]` is
    /// genesis (activation 0, key epoch 0).
    configs: Vec<CommitteeConfig>,
    /// Highest epoch already folded (commits must arrive in epoch order;
    /// replays are ignored).
    scanned: Option<u64>,
}

impl CommitteeLog {
    /// A log rooted at the genesis committee of global ids `0..n`.
    pub fn new(genesis_n: usize) -> Self {
        assert!(valid_committee_size(genesis_n), "genesis committee size {genesis_n}");
        CommitteeLog {
            configs: vec![CommitteeConfig {
                activation_epoch: 0,
                key_epoch: 0,
                members: (0..genesis_n as u16).collect(),
            }],
            scanned: None,
        }
    }

    /// All scheduled configurations, ascending activation epoch.
    pub fn configs(&self) -> &[CommitteeConfig] {
        &self.configs
    }

    /// The configuration in effect at `epoch`.
    pub fn config_at(&self, epoch: u64) -> &CommitteeConfig {
        self.configs
            .iter()
            .rev()
            .find(|c| c.activation_epoch <= epoch)
            .expect("genesis config activates at epoch 0")
    }

    /// The engine-facing view of the committee at `epoch`.
    pub fn view_at(&self, epoch: u64) -> CommitteeView {
        let c = self.config_at(epoch);
        CommitteeView {
            cfg_epoch: c.activation_epoch,
            members: c.members.clone(),
            f: c.f(),
            key_epoch: c.key_epoch,
        }
    }

    /// The most recently scheduled configuration (may not be active yet).
    pub fn latest(&self) -> &CommitteeConfig {
        self.configs.last().expect("log always holds genesis")
    }

    /// Folds the membership ops committed in `epoch` into the schedule.
    /// Returns the newly scheduled configuration when the set is accepted.
    ///
    /// Epochs must be fed in order; an epoch at or below one already
    /// scanned is a replay (journal restore, anti-entropy adoption) and is
    /// ignored. An op set is rejected as a whole — deterministically, on
    /// every honest node — when a prior change has not yet activated, when
    /// applying it is a net no-op, or when the resulting size is
    /// unsupported.
    pub fn on_commit(&mut self, epoch: u64, ops: &[MembershipOp]) -> Option<&CommitteeConfig> {
        if self.scanned.is_some_and(|s| epoch <= s) {
            return None;
        }
        self.scanned = Some(epoch);
        if ops.is_empty() {
            return None;
        }
        // Non-overlapping change windows: while a scheduled change awaits
        // activation, further ops are dropped (clients resubmit later).
        if self.latest().activation_epoch > epoch {
            return None;
        }
        let current = self.config_at(epoch);
        let mut members = current.members.clone();
        for op in ops {
            match op {
                MembershipOp::Join(n) => {
                    if let Err(pos) = members.binary_search(n) {
                        members.insert(pos, *n);
                    }
                }
                MembershipOp::Leave(n) => {
                    if let Ok(pos) = members.binary_search(n) {
                        members.remove(pos);
                    }
                }
            }
        }
        if members == current.members || !valid_committee_size(members.len()) {
            return None;
        }
        let key_epoch = self.latest().key_epoch + 1;
        self.configs.push(CommitteeConfig {
            activation_epoch: epoch + ACTIVATION_DELAY,
            key_epoch,
            members,
        });
        self.configs.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn join(n: u16) -> MembershipOp {
        MembershipOp::Join(n)
    }
    fn leave(n: u16) -> MembershipOp {
        MembershipOp::Leave(n)
    }

    #[test]
    fn genesis_view_covers_all_epochs_until_a_change() {
        let log = CommitteeLog::new(4);
        for e in [0, 5, 1000] {
            let v = log.view_at(e);
            assert_eq!(v.members, vec![0, 1, 2, 3]);
            assert_eq!((v.cfg_epoch, v.f, v.key_epoch), (0, 1, 0));
        }
    }

    #[test]
    fn swap_activates_after_the_delay() {
        let mut log = CommitteeLog::new(4);
        let cfg = log.on_commit(3, &[join(4), leave(0)]).cloned().unwrap();
        assert_eq!(cfg.activation_epoch, 3 + ACTIVATION_DELAY);
        assert_eq!(cfg.members, vec![1, 2, 3, 4]);
        assert_eq!(cfg.key_epoch, 1);
        // Old config until activation, new from it.
        assert_eq!(log.view_at(cfg.activation_epoch - 1).members, vec![0, 1, 2, 3]);
        let v = log.view_at(cfg.activation_epoch);
        assert_eq!(v.members, vec![1, 2, 3, 4]);
        assert_eq!(v.key_epoch, 1);
        assert_eq!(log.config_at(cfg.activation_epoch).slot_of(4), Some(3));
        assert_eq!(log.config_at(cfg.activation_epoch).slot_of(0), None);
    }

    #[test]
    fn invalid_sizes_and_noops_are_rejected_whole() {
        let mut log = CommitteeLog::new(4);
        // n=5 is not 3f+1.
        assert!(log.on_commit(0, &[join(9)]).is_none());
        // Leaving below n=4.
        assert!(log.on_commit(1, &[leave(3)]).is_none());
        // Join of an existing member + leave of a stranger: net no-op.
        assert!(log.on_commit(2, &[join(2), leave(77)]).is_none());
        assert_eq!(log.configs().len(), 1);
        // A later valid swap still lands.
        assert!(log.on_commit(3, &[join(7), leave(1)]).is_some());
    }

    #[test]
    fn overlapping_change_windows_are_refused() {
        let mut log = CommitteeLog::new(4);
        assert!(log.on_commit(0, &[join(4), leave(0)]).is_some());
        // Second change commits before the first activates: dropped.
        assert!(log.on_commit(1, &[join(5), leave(1)]).is_none());
        // After activation the window reopens.
        assert!(log.on_commit(ACTIVATION_DELAY, &[join(5), leave(1)]).is_some());
        assert_eq!(log.latest().key_epoch, 2);
    }

    #[test]
    fn replayed_epochs_are_ignored() {
        let mut log = CommitteeLog::new(4);
        assert!(log.on_commit(2, &[join(4), leave(0)]).is_some());
        assert!(log.on_commit(2, &[join(4), leave(0)]).is_none());
        assert!(log.on_commit(1, &[join(5), leave(1)]).is_none());
        assert_eq!(log.configs().len(), 2);
    }

    #[test]
    fn grow_and_shrink_hit_the_next_valid_sizes() {
        let mut log = CommitteeLog::new(4);
        let cfg = log.on_commit(0, &[join(4), join(5), join(6)]).cloned().unwrap();
        assert_eq!(cfg.n(), 7);
        assert_eq!(cfg.f(), 2);
        let e = cfg.activation_epoch;
        let back = log.on_commit(e, &[leave(4), leave(5), leave(6)]).cloned().unwrap();
        assert_eq!(back.members, vec![0, 1, 2, 3]);
        assert_eq!(back.key_epoch, 2);
    }
}
