//! Engine-side dynamic-membership controller.
//!
//! [`MembershipCtl`] is the piece that connects the chain-pure
//! `wbft-membership` crate to a live engine: it holds the node's
//! [`CommitteeLog`] (folded from the committed chain), the membership ops
//! this node wants committed (injected into every proposal batch until
//! they land), the in-flight [`ReshareCeremony`] between a change's commit
//! and its activation, and one [`NodeCrypto`] bundle per key epoch. The
//! engine consults it at every epoch boundary for the quorum math
//! (`n`, `f`, this node's committee slot) and the threshold keys in
//! effect.
//!
//! Everything here is a deterministic function of the chain prefix plus
//! the verified deal sets — two honest nodes with the same inputs hold
//! byte-identical committee state, which is what keeps churn-free runs
//! byte-identical to builds without this module (the controller is simply
//! absent: `EpochEngine.membership = None`).

use crate::driver::{sessions, Tx};
use bytes::Bytes;
use rand::RngCore;
use wbft_components::NodeCrypto;
use wbft_membership::{
    decode_op, encode_op, CommitteeConfig, CommitteeLog, DealSet, MembershipOp, ReshareCeremony,
};

/// A change committed: what the engine must do next (broadcast its deal if
/// it is a canonical dealer, retransmit until the chain passes
/// activation).
#[derive(Clone, Debug)]
pub struct CeremonyKickoff {
    /// First epoch the new configuration runs.
    pub activation_epoch: u64,
    /// Key epoch the ceremony establishes.
    pub key_epoch: u64,
}

struct LiveCeremony {
    activation_epoch: u64,
    ceremony: ReshareCeremony,
}

/// Per-node membership state machine (see module docs).
pub struct MembershipCtl {
    log: CommitteeLog,
    me_global: u16,
    /// Ops this node proposes, with the epoch from which to inject them;
    /// removed when observed committed.
    pending_ops: Vec<(u64, MembershipOp)>,
    ceremony: Option<LiveCeremony>,
    /// `crypto[k]` = this node's bundle for key epoch `k`; `None` while
    /// the ceremony is incomplete or when the node is not a member of that
    /// key epoch's committee (a leaver keeps only its older bundles).
    crypto: Vec<Option<NodeCrypto>>,
    /// Deal sets that arrived before the commit that starts their
    /// ceremony (RESHARE traffic can outrun chain adoption on a lagging
    /// node): `(target key epoch, deal)`.
    early_deals: Vec<(u64, DealSet)>,
    /// This node's own deal, kept for retransmission:
    /// `(activation epoch, target key epoch, encoded deal)`.
    my_deal: Option<(u64, u64, Bytes)>,
}

impl MembershipCtl {
    /// A controller for a node with global id `genesis.me`, rooted at the
    /// genesis committee `0..genesis_n`. Joiners pass a bundle holding the
    /// genesis *public* sets (their secret shares are placeholders that
    /// are never used: a joiner is not a member of key epoch 0).
    pub fn new(genesis: NodeCrypto, genesis_n: usize) -> Self {
        let me_global = genesis.me as u16;
        MembershipCtl {
            log: CommitteeLog::new(genesis_n),
            me_global,
            pending_ops: Vec::new(),
            ceremony: None,
            crypto: vec![Some(genesis)],
            early_deals: Vec::new(),
            my_deal: None,
        }
    }

    /// This node's global id.
    pub fn me_global(&self) -> u16 {
        self.me_global
    }

    /// The chain-derived committee log.
    pub fn log(&self) -> &CommitteeLog {
        &self.log
    }

    /// Queues `op` for injection into every proposal batch from
    /// `from_epoch` on, until it is observed committed.
    pub fn schedule_op(&mut self, from_epoch: u64, op: MembershipOp) {
        self.pending_ops.push((from_epoch, op));
    }

    /// The encoded membership ops to append to the proposal batch of
    /// `epoch` (deterministic order: schedule order).
    pub fn injectable(&self, epoch: u64) -> Vec<Tx> {
        self.pending_ops
            .iter()
            .filter(|(from, _)| *from <= epoch)
            .map(|(_, op)| encode_op(*op))
            .collect()
    }

    /// `true` iff this node sits in the committee in effect at `epoch`.
    pub fn member_at(&self, epoch: u64) -> bool {
        self.log.config_at(epoch).contains(self.me_global)
    }

    /// The committee parameters of `epoch` for this node: `(n, f, slot)`,
    /// `None` when it is not a member.
    pub fn committee_at(&self, epoch: u64) -> Option<(usize, usize, usize)> {
        let cfg = self.log.config_at(epoch);
        let slot = cfg.slot_of(self.me_global)?;
        Some((cfg.n(), cfg.f(), slot))
    }

    /// The committee slot of global id `from` at `epoch` (packet envelopes
    /// carry global ids; components speak slots).
    pub fn slot_at(&self, epoch: u64, from: u16) -> Option<usize> {
        self.log.config_at(epoch).slot_of(from)
    }

    /// This node's threshold-key bundle for the key epoch in effect at
    /// `epoch`; `None` while the resharing ceremony is still running (the
    /// engine must not open the epoch yet) or when the node is no member.
    pub fn crypto_at(&self, epoch: u64) -> Option<&NodeCrypto> {
        let k = self.log.config_at(epoch).key_epoch as usize;
        self.crypto.get(k)?.as_ref()
    }

    /// May the engine open `epoch`? Requires membership *and* the epoch's
    /// threshold keys (a ceremony still collecting deals holds the epoch
    /// back — the pre-activation epochs under the old keys keep running).
    pub fn can_open(&self, epoch: u64) -> bool {
        self.committee_at(epoch).is_some() && self.crypto_at(epoch).is_some()
    }

    /// The key-epoch wire tag for `session`'s envelopes. Reshare sessions
    /// live at the *activation* epoch but are signed under the *old* keys
    /// (the new ones do not exist yet), so their tag is read one epoch
    /// earlier — which both sides can evaluate identically however far
    /// their chains lag, because activation − 1 is always inside the old
    /// configuration's window.
    pub fn wire_key_epoch(&self, session: u64) -> u64 {
        let (epoch, role) = sessions::split(session);
        let at = if role == sessions::RESHARE { epoch.saturating_sub(1) } else { epoch };
        self.log.view_at(at).key_epoch
    }

    /// Folds the membership ops committed in `epoch` into the log. When
    /// the commit schedules a configuration change, starts the resharing
    /// ceremony (absorbing any early-arrived deals) and returns the
    /// kickoff the engine acts on.
    pub fn on_commit(&mut self, epoch: u64, txs: &[Tx]) -> Option<CeremonyKickoff> {
        let ops: Vec<MembershipOp> = txs.iter().filter_map(|t| decode_op(t)).collect();
        if !ops.is_empty() {
            self.pending_ops.retain(|(_, op)| !ops.contains(op));
        }
        let old_cfg = self.log.config_at(epoch).clone();
        let new_cfg = self.log.on_commit(epoch, &ops)?.clone();
        let kickoff = CeremonyKickoff {
            activation_epoch: new_cfg.activation_epoch,
            key_epoch: new_cfg.key_epoch,
        };
        self.ceremony = Some(LiveCeremony {
            activation_epoch: new_cfg.activation_epoch,
            ceremony: ReshareCeremony::new(old_cfg, new_cfg),
        });
        let early = std::mem::take(&mut self.early_deals);
        for (k, deal) in early {
            self.absorb_deal(k, deal);
        }
        Some(kickoff)
    }

    /// The configuration the live ceremony produces keys for, if any.
    pub fn pending_config(&self) -> Option<&CommitteeConfig> {
        self.ceremony.as_ref().map(|l| l.ceremony.target())
    }

    /// Builds, stores (for retransmission) and self-absorbs this node's
    /// deal set for the live ceremony. `None` when there is no ceremony,
    /// the node is not a canonical dealer, or it already dealt.
    pub fn make_my_deal(&mut self, rng: &mut impl RngCore) -> Option<(u64, u64, Bytes)> {
        let live = self.ceremony.as_ref()?;
        if self.my_deal.is_some() || !live.ceremony.is_dealer(self.me_global) {
            return None;
        }
        let old_key = live.ceremony.target().key_epoch.checked_sub(1)?;
        let old_crypto = self.crypto.get(old_key as usize)?.as_ref()?;
        let deal = live.ceremony.make_deal(old_crypto, self.me_global, rng)?;
        let target = live.ceremony.target().key_epoch;
        let activation = live.activation_epoch;
        let encoded = deal.encode();
        self.my_deal = Some((activation, target, encoded.clone()));
        self.absorb_deal(target, deal);
        Some((activation, target, encoded))
    }

    /// This node's stored deal for retransmission:
    /// `(activation epoch, target key epoch, encoded deal)`.
    pub fn retx_deal(&self) -> Option<(u64, u64, Bytes)> {
        self.my_deal.clone()
    }

    /// Verifies and absorbs a dealer's deal set for target `key_epoch`.
    /// Returns `true` when this deal *completed* the ceremony (the crypto
    /// bundle for the new key epoch just became available — the engine
    /// should try opening epochs). Deals for a ceremony not yet started
    /// locally are buffered; invalid or duplicate deals are dropped.
    pub fn absorb_deal(&mut self, key_epoch: u64, deal: DealSet) -> bool {
        let Some(live) = self.ceremony.as_mut() else {
            // The commit that starts this ceremony has not reached us yet
            // (RESHARE traffic can outrun chain adoption); keep the deal if
            // it could still become relevant.
            if key_epoch > self.log.latest().key_epoch
                && !self
                    .early_deals
                    .iter()
                    .any(|(k, d)| *k == key_epoch && d.dealer == deal.dealer)
            {
                self.early_deals.push((key_epoch, deal));
            }
            return false;
        };
        let target = live.ceremony.target().key_epoch;
        if key_epoch != target {
            return false;
        }
        let Some(old_crypto) =
            self.crypto.get(target as usize - 1).and_then(|c| c.as_ref())
        else {
            return false;
        };
        if !live.ceremony.absorb(deal, old_crypto) || !live.ceremony.complete() {
            return false;
        }
        // All canonical deals verified: roll. A leaver rolls to `None` —
        // it keeps its old bundles and stops participating at activation.
        let rolled = live.ceremony.rolled_crypto(old_crypto, self.me_global);
        let k = target as usize;
        if self.crypto.len() <= k {
            self.crypto.resize_with(k + 1, || None);
        }
        self.crypto[k] = rolled;
        self.ceremony = None;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wbft_components::deal_node_crypto;
    use wbft_crypto::CryptoSuite;
    use wbft_membership::MEMBERSHIP_TX_MAGIC;

    fn ctls(n_genesis: usize, n_total: usize) -> Vec<MembershipCtl> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        wbft_components::deal_committee_crypto(n_genesis, n_total, CryptoSuite::light(), &mut rng)
            .into_iter()
            .map(|c| MembershipCtl::new(c, n_genesis))
            .collect()
    }

    #[test]
    fn ops_inject_until_committed() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let crypto = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        let mut ctl = MembershipCtl::new(crypto[0].clone(), 4);
        ctl.schedule_op(2, MembershipOp::Join(4));
        assert!(ctl.injectable(1).is_empty());
        let txs = ctl.injectable(2);
        assert_eq!(txs.len(), 1);
        assert!(txs[0].starts_with(MEMBERSHIP_TX_MAGIC));
        // A commit without the op keeps it pending; one with it clears it.
        assert!(ctl.on_commit(2, &[Bytes::from_static(b"plain")]).is_none());
        assert!(ctl.injectable(3).len() == 1);
        // Join(4) alone is n=5: rejected by the log, but the op still
        // clears from the pending set — it was committed and judged.
        assert!(ctl.on_commit(3, &txs).is_none());
        assert!(ctl.injectable(4).is_empty());
    }

    #[test]
    fn full_swap_ceremony_across_controllers() {
        // Genesis {0,1,2,3}; node 4 joins, node 0 leaves.
        let mut ctls = ctls(4, 5);
        let ops = [encode_op(MembershipOp::Join(4)), encode_op(MembershipOp::Leave(0))];
        let mut kicks = Vec::new();
        for ctl in ctls.iter_mut() {
            let kick = ctl.on_commit(3, &ops).expect("change must schedule");
            assert_eq!(kick.activation_epoch, 3 + wbft_membership::ACTIVATION_DELAY);
            assert_eq!(kick.key_epoch, 1);
            kicks.push(kick);
        }
        // Epochs before activation stay under the old committee.
        for ctl in &ctls {
            assert_eq!(ctl.committee_at(4).map(|(n, ..)| n), ctl.committee_at(0).map(|(n, ..)| n));
            assert!(!ctl.can_open(5), "new keys cannot exist before the ceremony");
        }
        // Dealers = {1, 2, 3}: the surviving old members cover 2f+1, so
        // the leaver is not needed as a dealer.
        let mut deals = Vec::new();
        for (i, ctl) in ctls.iter_mut().enumerate() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(100 + i as u64);
            if let Some((act, key, bytes)) = ctl.make_my_deal(&mut rng) {
                assert_eq!((act, key), (5, 1));
                deals.push(bytes);
            }
        }
        assert_eq!(deals.len(), 3, "2f+1 canonical dealers");
        // Everyone absorbs everyone's deals; ceremony completes everywhere.
        for ctl in ctls.iter_mut() {
            for bytes in &deals {
                let deal = DealSet::decode(bytes).unwrap();
                ctl.absorb_deal(1, deal);
            }
            assert!(ctl.crypto_at(5).is_some() || !ctl.member_at(5));
        }
        // Leaver 0: member before, not after, keeps no epoch-1 bundle.
        assert!(ctls[0].member_at(4) && !ctls[0].member_at(5));
        assert!(ctls[0].crypto_at(5).is_none() && !ctls[0].can_open(5));
        // Joiner 4: opposite.
        assert!(!ctls[4].member_at(4) && ctls[4].member_at(5));
        let joiner = ctls[4].crypto_at(5).unwrap();
        assert_eq!(ctls[4].committee_at(5), Some((4, 1, 3)));
        // The rolled shares still sign under the genesis group key.
        let survivor = ctls[1].crypto_at(5).unwrap();
        let msg = b"post-roll";
        let s_a = survivor.prbc_sec.sign_share(msg);
        let s_b = joiner.prbc_sec.sign_share(msg);
        let sig = survivor.prbc_pub.combine(&[s_a, s_b]).unwrap();
        ctls[0].crypto_at(0).unwrap().prbc_pub.verify(msg, &sig).unwrap();
        // Wire tags: old epochs tag 0, active epochs tag 1, the reshare
        // session of the activation epoch tags under the old key epoch.
        let ctl = &ctls[1];
        assert_eq!(ctl.wire_key_epoch(sessions::of(4, sessions::BROADCAST)), 0);
        assert_eq!(ctl.wire_key_epoch(sessions::of(5, sessions::BROADCAST)), 1);
        assert_eq!(ctl.wire_key_epoch(sessions::of(5, sessions::RESHARE)), 0);
    }

    #[test]
    fn early_deals_buffer_until_the_commit_lands() {
        let mut ctls = ctls(4, 5);
        let ops = [encode_op(MembershipOp::Join(4)), encode_op(MembershipOp::Leave(0))];
        // Dealers {1, 2, 3} (the survivors) commit and deal...
        let mut deals = Vec::new();
        for (i, ctl) in ctls.iter_mut().enumerate().skip(1).take(3) {
            ctl.on_commit(0, &ops).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(200 + i as u64);
            deals.push(ctl.make_my_deal(&mut rng).unwrap().2);
        }
        // ...while the joiner has not adopted the commit yet: deals buffer.
        for bytes in &deals {
            assert!(!ctls[4].absorb_deal(1, DealSet::decode(bytes).unwrap()));
        }
        // Its local view still has the genesis committee — it is no member
        // and cannot open anything.
        assert!(!ctls[4].member_at(2) && !ctls[4].can_open(2));
        // The commit arrives (chain adoption); buffered deals finish the
        // ceremony immediately.
        ctls[4].on_commit(0, &ops).unwrap();
        assert!(ctls[4].crypto_at(2).is_some());
        assert_eq!(ctls[4].committee_at(2), Some((4, 1, 3)));
    }
}
