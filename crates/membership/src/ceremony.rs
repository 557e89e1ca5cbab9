//! The dealerless resharing ceremony between commit and activation.
//!
//! When a membership change commits, the *old* committee re-hands all four
//! threshold key sets (PRBC signatures, CBC signatures, common coin,
//! threshold encryption) to the *new* committee without any trusted
//! dealer: every canonical dealer broadcasts one [`DealSet`] — a
//! [`ReshareDealing`] per scheme — and every node (old member, survivor,
//! or fresh joiner) verifies the dealings against the old published
//! verification key shares and interpolates its own new shares. The group
//! keys never move, so threshold signatures and coins combined by the new
//! committee keep verifying under the genesis keys.
//!
//! **Canonical dealer set.** Interpolating a degree-`t` polynomial through
//! more than `t + 1` points is exact, so one dealer set serves all four
//! schemes: the `2·f_old + 1` lowest-indexed old members that survive into
//! the new committee (topped up with the lowest leaving members when fewer
//! survive). `2·f_old + 1` is exactly what the highest-threshold scheme
//! (CBC, `t = 2f`) needs. The set is a pure function of the two
//! configurations, so every node waits for the *same* deals and derives
//! the *same* shares; a canonical dealer that never deals stalls the
//! ceremony. There is no fallback for a crashed or Byzantine dealer yet,
//! and reshared shares are not journaled, so a restarted node could not
//! recover its new-epoch shares either. The testbed therefore refuses a
//! churn plan together with *any* crash plan or Byzantine placement
//! outright (`TestbedConfig::check`), not only ones that hit a scheduled
//! dealer.
//!
//! Subshares travel in the clear — see `wbft_crypto::reshare` for why that
//! is acceptable in this simulation substrate.

use std::collections::BTreeMap;

use bytes::Bytes;
use rand::RngCore;
use wbft_components::NodeCrypto;
use wbft_crypto::reshare::{self, ReshareDealing};
use wbft_crypto::thresh_coin::CoinPublicSet;
use wbft_crypto::thresh_enc::{EncPublicSet, EncSecretShare};
use wbft_crypto::thresh_sig::{PublicKeySet, SecretKeyShare};
use wbft_crypto::{GroupElem, ShareIndex};
use wbft_net::wire::{ByteSink, Sink, WireReader};
use wbft_net::WireError;

use crate::view::CommitteeConfig;

/// The canonical dealer set for a configuration change: the lowest
/// `2·f_old + 1` old-committee global ids, preferring members that survive
/// into the new committee.
pub fn canonical_dealers(old: &CommitteeConfig, new: &CommitteeConfig) -> Vec<u16> {
    let need = 2 * old.f() + 1;
    let mut dealers: Vec<u16> =
        old.members.iter().copied().filter(|m| new.contains(*m)).take(need).collect();
    for m in &old.members {
        if dealers.len() >= need {
            break;
        }
        if !dealers.contains(m) {
            dealers.push(*m);
        }
    }
    dealers.sort_unstable();
    dealers
}

/// One dealer's resharing of all four threshold schemes, broadcast as a
/// single opaque payload on the reshare session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DealSet {
    /// The dealer's *global* id.
    pub dealer: u16,
    /// `(f, n)` PRBC-signature resharing.
    pub prbc: ReshareDealing,
    /// `(2f, n)` CBC-signature resharing.
    pub cbc: ReshareDealing,
    /// `(f, n)` common-coin resharing.
    pub coin: ReshareDealing,
    /// `(f, n)` threshold-encryption resharing.
    pub enc: ReshareDealing,
}

/// One dealing: dealer index, the u16-counted commitments, then the
/// u16-counted `(index, subshare)` pairs.
fn put_dealing(s: &mut ByteSink, d: &ReshareDealing) -> Result<(), WireError> {
    s.u16(d.dealer.value());
    s.count16(d.commitments.len())?;
    d.commitments.iter().for_each(|c| s.raw(&c.to_bytes()));
    s.count16(d.subshares.len())?;
    for (i, sub) in &d.subshares {
        s.u16(i.value());
        s.raw(&sub.to_bytes());
    }
    Ok(())
}

/// Reads one dealing. Both lists reserve at most 64 entries up front, the
/// committee ceiling, whatever count the bytes claim.
fn get_dealing(r: &mut WireReader<'_>) -> Result<ReshareDealing, WireError> {
    let dealer = r.share_index()?;
    let count = usize::from(r.u16()?);
    let commitments = r.list(count, 64, WireReader::group_elem)?;
    let count = usize::from(r.u16()?);
    let subshares = r.list(count, 64, |r| Ok((r.share_index()?, r.scalar()?)))?;
    Ok(ReshareDealing { dealer, commitments, subshares })
}

impl DealSet {
    /// Serializes for the wire (the net layer carries this as opaque bytes
    /// so it stays independent of membership types): the dealer's global
    /// id, then the PRBC, CBC, coin and encryption dealings.
    ///
    /// A dealing lists one commitment per threshold degree and one subshare
    /// per new member, so its u16 counts are bounded by the committee size,
    /// which `TestbedConfig::check` caps at 64 nodes.
    pub fn encode(&self) -> Bytes {
        ByteSink::bounded(|s| {
            s.u16(self.dealer);
            [&self.prbc, &self.cbc, &self.coin, &self.enc]
                .into_iter()
                .try_for_each(|d| put_dealing(s, d))
        })
    }

    /// Total inverse of [`DealSet::encode`]: `None` on any malformed input.
    pub fn decode(bytes: &[u8]) -> Option<DealSet> {
        WireReader::exact(bytes, |r| {
            Ok(DealSet {
                dealer: r.u16()?,
                prbc: get_dealing(r)?,
                cbc: get_dealing(r)?,
                coin: get_dealing(r)?,
                enc: get_dealing(r)?,
            })
        })
        .ok()
    }
}

/// State machine of one resharing ceremony: collects verified [`DealSet`]s
/// from the canonical dealers and, once all are in, rolls a node's
/// [`NodeCrypto`] to the new key epoch.
#[derive(Clone, Debug)]
pub struct ReshareCeremony {
    old: CommitteeConfig,
    new: CommitteeConfig,
    dealers: Vec<u16>,
    deals: BTreeMap<u16, DealSet>,
}

impl ReshareCeremony {
    /// Starts a ceremony for the change `old → new`.
    pub fn new(old: CommitteeConfig, new: CommitteeConfig) -> Self {
        let dealers = canonical_dealers(&old, &new);
        ReshareCeremony { old, new, dealers, deals: BTreeMap::new() }
    }

    /// The configuration this ceremony produces keys for.
    pub fn target(&self) -> &CommitteeConfig {
        &self.new
    }

    /// The canonical dealer set (sorted global ids).
    pub fn dealers(&self) -> &[u16] {
        &self.dealers
    }

    /// `true` iff `node` must publish a deal set.
    pub fn is_dealer(&self, node: u16) -> bool {
        self.dealers.binary_search(&node).is_ok()
    }

    /// Produces this node's deal set from its current shares, or `None`
    /// when it is not a canonical dealer.
    pub fn make_deal(&self, crypto: &NodeCrypto, me: u16, rng: &mut impl RngCore) -> Option<DealSet> {
        if !self.is_dealer(me) {
            return None;
        }
        let slot = self.old.slot_of(me)?;
        let dealer = ShareIndex::for_node(slot);
        let idx: Vec<ShareIndex> = (0..self.new.n()).map(ShareIndex::for_node).collect();
        let f = self.new.f();
        Some(DealSet {
            dealer: me,
            prbc: ReshareDealing::deal(crypto.prbc_sec.secret_scalar(), dealer, &idx, f, rng),
            cbc: ReshareDealing::deal(crypto.cbc_sec.secret_scalar(), dealer, &idx, 2 * f, rng),
            coin: ReshareDealing::deal(crypto.coin_sec.secret_scalar(), dealer, &idx, f, rng),
            enc: ReshareDealing::deal(crypto.enc_sec.secret_scalar(), dealer, &idx, f, rng),
        })
    }

    /// Verifies one dealing against the dealer's published old key share
    /// and the expected polynomial shape.
    fn dealing_ok(
        &self,
        d: &ReshareDealing,
        old_slot: usize,
        old_vk_share: &GroupElem,
        threshold: usize,
    ) -> bool {
        d.dealer == ShareIndex::for_node(old_slot)
            && d.commitments.len() == threshold + 1
            && d.subshares.len() == self.new.n()
            && (0..self.new.n()).all(|j| d.subshares[j].0 == ShareIndex::for_node(j))
            && d.verify(old_vk_share).is_ok()
    }

    /// Verifies and stores a deal set. Returns `true` when the set was
    /// newly accepted; duplicates, non-canonical dealers and any dealing
    /// that fails verification are dropped (`false`).
    pub fn absorb(&mut self, deal: DealSet, old_crypto: &NodeCrypto) -> bool {
        if !self.is_dealer(deal.dealer) || self.deals.contains_key(&deal.dealer) {
            return false;
        }
        let Some(slot) = self.old.slot_of(deal.dealer) else { return false };
        let f = self.new.f();
        let ok = self.dealing_ok(&deal.prbc, slot, &old_crypto.prbc_pub.share_keys()[slot], f)
            && self.dealing_ok(&deal.cbc, slot, &old_crypto.cbc_pub.share_keys()[slot], 2 * f)
            && self.dealing_ok(&deal.coin, slot, &old_crypto.coin_pub.keys().share_keys()[slot], f)
            && self.dealing_ok(&deal.enc, slot, &old_crypto.enc_pub.share_keys()[slot], f);
        if !ok {
            return false;
        }
        self.deals.insert(deal.dealer, deal);
        true
    }

    /// `true` once every canonical dealer's deal set is verified and
    /// stored — shares for *any* new index are now derivable.
    pub fn complete(&self) -> bool {
        self.deals.len() == self.dealers.len()
    }

    /// Dealings of one scheme in canonical dealer order.
    fn scheme<'a>(&'a self, pick: impl Fn(&'a DealSet) -> &'a ReshareDealing) -> Vec<&'a ReshareDealing> {
        self.dealers.iter().map(|d| pick(&self.deals[d])).collect()
    }

    /// Rolls `old_crypto` to the new key epoch for global id `me`. Returns
    /// `None` while incomplete or when `me` is not a new-committee member
    /// (a leaver keeps its old bundle and simply stops participating).
    ///
    /// The group keys of the rolled public sets are *copied from the old
    /// sets* — resharing preserves them by construction, and the per-node
    /// share keys are derived publicly from the commitment vectors, so
    /// every node (including a fresh joiner holding only public material)
    /// computes byte-identical public sets.
    pub fn rolled_crypto(&self, old_crypto: &NodeCrypto, me: u16) -> Option<NodeCrypto> {
        if !self.complete() {
            return None;
        }
        let my_slot = self.new.slot_of(me)?;
        let my_index = ShareIndex::for_node(my_slot);
        let curve = old_crypto.prbc_pub.curve();
        let f = self.new.f();
        let n = self.new.n();

        let share_keys = |deals: &[&ReshareDealing]| -> Option<Vec<GroupElem>> {
            (0..n)
                .map(|j| reshare::derive_vk_share(deals, ShareIndex::for_node(j)).ok())
                .collect()
        };

        let prbc = self.scheme(|d| &d.prbc);
        let cbc = self.scheme(|d| &d.cbc);
        let coin = self.scheme(|d| &d.coin);
        let enc = self.scheme(|d| &d.enc);

        // Whole-ceremony sanity: the dealings must re-encode the *same*
        // group secrets the old sets publish. Any mismatch means a bug or
        // an inconsistent deal collection — refuse to roll.
        if reshare::derive_group_key(&prbc).ok()? != old_crypto.prbc_pub.group_key()
            || reshare::derive_group_key(&cbc).ok()? != old_crypto.cbc_pub.group_key()
            || reshare::derive_group_key(&coin).ok()? != old_crypto.coin_pub.keys().group_key()
            || reshare::derive_group_key(&enc).ok()? != old_crypto.enc_pub.group_key()
        {
            return None;
        }

        let prbc_pub = PublicKeySet::from_parts(
            curve,
            f,
            old_crypto.prbc_pub.group_key(),
            share_keys(&prbc)?,
        );
        let cbc_pub = PublicKeySet::from_parts(
            curve,
            2 * f,
            old_crypto.cbc_pub.group_key(),
            share_keys(&cbc)?,
        );
        let coin_pub = CoinPublicSet::from_parts(
            curve,
            f,
            old_crypto.coin_pub.keys().group_key(),
            share_keys(&coin)?,
        );
        let enc_pub = EncPublicSet::from_parts(
            curve,
            f,
            old_crypto.enc_pub.group_key(),
            share_keys(&enc)?,
        );

        Some(NodeCrypto {
            me: my_slot,
            suite: old_crypto.suite,
            keypair: old_crypto.keypair.clone(),
            peer_keys: old_crypto.peer_keys.clone(),
            key_epoch: self.new.key_epoch,
            prbc_sec: SecretKeyShare::from_parts(
                my_index,
                reshare::combine_subshares(&prbc, my_index).ok()?,
                curve,
            ),
            prbc_pub,
            cbc_sec: SecretKeyShare::from_parts(
                my_index,
                reshare::combine_subshares(&cbc, my_index).ok()?,
                curve,
            ),
            cbc_pub,
            coin_sec: SecretKeyShare::from_parts(
                my_index,
                reshare::combine_subshares(&coin, my_index).ok()?,
                curve,
            ),
            coin_pub,
            enc_sec: EncSecretShare::from_parts(
                my_index,
                reshare::combine_subshares(&enc, my_index).ok()?,
            ),
            enc_pub,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::CommitteeLog;
    use crate::MembershipOp;
    use rand::SeedableRng;
    use wbft_components::{deal_node_crypto, Collector, Recorded};
    use wbft_crypto::profile::CryptoSuite;
    use wbft_crypto::thresh_coin::{self, CoinName};
    use wbft_crypto::thresh_sig::{PreparedMessage, SigShare, ThresholdSignature};
    use wbft_crypto::Scalar;

    fn swap_configs() -> (CommitteeConfig, CommitteeConfig) {
        let mut log = CommitteeLog::new(4);
        let new = log
            .on_commit(1, &[MembershipOp::Join(4), MembershipOp::Leave(0)])
            .cloned()
            .unwrap();
        (log.config_at(0).clone(), new)
    }

    fn run_ceremony() -> (Vec<NodeCrypto>, ReshareCeremony) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let genesis = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        let (old, new) = swap_configs();
        let mut ceremony = ReshareCeremony::new(old, new);
        let dealers = ceremony.dealers().to_vec();
        for d in dealers {
            let deal = ceremony.make_deal(&genesis[d as usize], d, &mut rng).unwrap();
            // Wire roundtrip on the way in, like the engine sees it.
            let deal = DealSet::decode(&deal.encode()).unwrap();
            assert!(ceremony.absorb(deal, &genesis[0]));
        }
        assert!(ceremony.complete());
        (genesis, ceremony)
    }

    #[test]
    fn canonical_dealers_prefer_survivors() {
        let (old, new) = swap_configs();
        // Old {0,1,2,3}, new {1,2,3,4}: survivors 1,2,3 cover 2f+1 = 3.
        assert_eq!(canonical_dealers(&old, &new), vec![1, 2, 3]);
    }

    #[test]
    fn leavers_top_up_a_short_survivor_set() {
        let mut old = CommitteeConfig {
            activation_epoch: 0,
            key_epoch: 0,
            members: vec![0, 1, 2, 3],
        };
        let new = CommitteeConfig {
            activation_epoch: 2,
            key_epoch: 1,
            members: vec![2, 3, 4, 5],
        };
        assert_eq!(canonical_dealers(&old, &new), vec![0, 2, 3]);
        old.members = vec![0, 1, 2, 3];
        let disjoint = CommitteeConfig {
            activation_epoch: 2,
            key_epoch: 1,
            members: vec![4, 5, 6, 7],
        };
        assert_eq!(canonical_dealers(&old, &disjoint), vec![0, 1, 2]);
    }

    #[test]
    fn deal_sets_roundtrip_and_reject_garbage() {
        let (_, ceremony) = run_ceremony();
        let deal = ceremony.deals.values().next().unwrap();
        let bytes = deal.encode();
        assert_eq!(DealSet::decode(&bytes), Some(deal.clone()));
        assert_eq!(DealSet::decode(&bytes[..bytes.len() - 1]), None);
        let mut extra = bytes.to_vec();
        extra.push(0);
        assert_eq!(DealSet::decode(&extra), None);
        assert_eq!(DealSet::decode(b""), None);
    }

    /// What a [`Collector`] over `keys` combines `shares` into, recorded in
    /// order.
    fn collected(
        keys: &PublicKeySet,
        msg: impl Into<PreparedMessage> + Copy,
        need: usize,
        shares: &[SigShare],
    ) -> Option<ThresholdSignature> {
        let mut c = Collector::default();
        shares.iter().find_map(|&share| match c.record(keys, msg, need, shares.len(), share) {
            Recorded::Combined(output) => output,
            _ => None,
        })
    }

    #[test]
    fn rolled_signatures_verify_under_the_genesis_group_key() {
        let (genesis, ceremony) = run_ceremony();
        let new_members = ceremony.target().members.clone();
        let rolled: Vec<NodeCrypto> = new_members
            .iter()
            .map(|&g| {
                // The joiner (global 4) holds only genesis *public* sets;
                // node 1's bundle stands in for "any old public material".
                let old = &genesis[(g as usize).min(3)];
                ceremony.rolled_crypto(old, g).unwrap()
            })
            .collect();
        // Every node derives identical public sets.
        for c in &rolled[1..] {
            assert_eq!(c.prbc_pub.share_keys(), rolled[0].prbc_pub.share_keys());
            assert_eq!(c.cbc_pub.share_keys(), rolled[0].cbc_pub.share_keys());
            assert_eq!(c.coin_pub.keys().share_keys(), rolled[0].coin_pub.keys().share_keys());
        }
        assert_eq!(rolled[0].key_epoch, 1);
        // New-committee shares combine into signatures the *genesis*
        // public set accepts.
        let msg = b"post-roll";
        let shares: Vec<_> = rolled.iter().map(|c| c.prbc_sec.sign_share(msg)).collect();
        let sig = rolled[0].prbc_pub.combine(&shares[..2]).unwrap();
        genesis[0].prbc_pub.verify(msg, &sig).unwrap();
        let cbc_shares: Vec<_> = rolled.iter().map(|c| c.cbc_sec.sign_share(msg)).collect();
        let cbc_sig = rolled[1].cbc_pub.combine(&cbc_shares[..3]).unwrap();
        genesis[2].cbc_pub.verify(msg, &cbc_sig).unwrap();
        // Coin values are a function of the fixed group secret: unchanged.
        let name = CoinName { session: 9, round: 3, domain: 1 };
        let old_shares: Vec<_> = genesis.iter().map(|c| c.coin_sec.coin_share(name)).collect();
        let new_shares: Vec<_> = rolled.iter().map(|c| c.coin_sec.coin_share(name)).collect();
        assert_eq!(
            genesis[0].coin_pub.combine(name, &old_shares[..2]).unwrap(),
            rolled[0].coin_pub.combine(name, &new_shares[..2]).unwrap(),
        );
        // The rolled coin set carries the genesis coin key, so its
        // Collector, which reads its output off that key, comes to the
        // genesis coin: the same signature, the same value.
        let (old_coin, new_coin) = (genesis[0].coin_pub.keys(), rolled[0].coin_pub.keys());
        assert_eq!(new_coin.group_key(), old_coin.group_key());
        let coin = collected(new_coin, name, 2, &new_shares).unwrap();
        assert_eq!(Some(coin), collected(old_coin, name, 2, &old_shares));
        assert_eq!(
            thresh_coin::reveal(&coin),
            genesis[0].coin_pub.combine_value(name, &old_shares[..2]).unwrap(),
        );
        assert_eq!(collected(&rolled[0].prbc_pub, &msg[..], 2, &shares), Some(sig));
        assert_eq!(collected(&rolled[1].cbc_pub, &msg[..], 3, &cbc_shares), Some(cbc_sig));
    }

    #[test]
    fn a_roll_against_another_coin_key_is_refused() {
        // The coin's dealings must re-encode the old coin set's group key,
        // like the other three schemes': an old bundle publishing another
        // coin key rolls to nothing.
        let (genesis, ceremony) = run_ceremony();
        let mut other = genesis[1].clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        other.coin_pub = deal_node_crypto(4, CryptoSuite::light(), &mut rng)[1].coin_pub.clone();
        assert!(ceremony.rolled_crypto(&genesis[1], 1).is_some());
        assert!(ceremony.rolled_crypto(&other, 1).is_none());
    }

    #[test]
    fn leaver_gets_no_rolled_bundle_and_old_shares_are_rejected() {
        let (genesis, ceremony) = run_ceremony();
        assert!(ceremony.rolled_crypto(&genesis[0], 0).is_none());
        let rolled = ceremony.rolled_crypto(&genesis[1], 1).unwrap();
        // A stale (key-epoch-0) share fails verification under the rolled
        // public set: same index, different share polynomial.
        let msg = b"stale";
        let stale = genesis[0].prbc_sec.sign_share(msg);
        assert!(rolled.prbc_pub.verify_share(msg, &stale).is_err());
    }

    #[test]
    fn tampered_and_duplicate_deals_are_dropped() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let genesis = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        let (old, new) = swap_configs();
        let mut ceremony = ReshareCeremony::new(old, new);
        let mut deal = ceremony.make_deal(&genesis[1], 1, &mut rng).unwrap();
        assert!(ceremony.absorb(deal.clone(), &genesis[0]));
        assert!(!ceremony.absorb(deal.clone(), &genesis[0]), "duplicate");
        deal.dealer = 2; // claims to be dealer 2 but carries 1's dealings
        assert!(!ceremony.absorb(deal, &genesis[0]));
        let mut forged = ceremony.make_deal(&genesis[2], 2, &mut rng).unwrap();
        forged.cbc.subshares[0].1 = forged.cbc.subshares[0].1.add(&Scalar::ONE);
        assert!(!ceremony.absorb(forged, &genesis[0]));
        // Non-dealer global id.
        assert!(ceremony.make_deal(&genesis[0], 0, &mut rng).is_none());
        assert!(!ceremony.complete());
    }
}
