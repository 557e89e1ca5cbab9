//! Property tests for the dealerless resharing ceremony and the key-epoch
//! hygiene of the share buffers.
//!
//! The ceremony's whole contract is "the group secret never moves": for
//! *any* supported committee change and *any* quorum-sized subset of the
//! rolled shares, signatures and coins combined by the new committee must
//! verify under the genesis public keys, while shares from the superseded
//! sharing must die at the door. Unit tests pin one swap; these tests walk
//! random committee sizes, random leave/join sets, random deal-absorption
//! orders and random combine subsets. The deal set and the membership op
//! are bytes from the network, so their codecs get the hostile-input
//! battery: exact round trip, every strict prefix and a trailing byte
//! refused, garbage never a panic.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use wbft_components::{deal_node_crypto, NodeCrypto};
use wbft_crypto::profile::CryptoSuite;
use wbft_crypto::thresh_coin::CoinName;
use wbft_membership::{decode_op, encode_op, CommitteeLog, DealSet, MembershipOp, ReshareCeremony};

/// Fisher–Yates over a copy; the shim's `StdRng` is deterministic per seed
/// so every failing case replays exactly.
fn shuffled<T: Copy>(items: &[T], rng: &mut impl RngCore) -> Vec<T> {
    let mut v = items.to_vec();
    for i in (1..v.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// A random supported change from a genesis committee of `n_old` to some
/// committee of `n_new`: a random leave set topped up with fresh joiner
/// ids. Guaranteed non-no-op, so `CommitteeLog::on_commit` accepts it.
fn random_ops(n_old: usize, n_new: usize, rng: &mut impl RngCore) -> Vec<MembershipOp> {
    let min_leaves = n_old.saturating_sub(n_new);
    let mut leaves = min_leaves + (rng.next_u64() as usize) % (n_old - min_leaves + 1);
    if n_old == n_new && leaves == 0 {
        leaves = 1; // pure no-op sets are rejected by the log
    }
    let old_ids: Vec<u16> = (0..n_old as u16).collect();
    let leaving = &shuffled(&old_ids, rng)[..leaves];
    let joins = n_new - (n_old - leaves);
    let mut ops: Vec<MembershipOp> = leaving.iter().map(|&l| MembershipOp::Leave(l)).collect();
    ops.extend((0..joins as u16).map(|j| MembershipOp::Join(n_old as u16 + j)));
    ops
}

/// Runs the full ceremony for the change and rolls every new member's
/// bundle. Deals are wire-roundtripped and absorbed in a random order.
fn roll_committee(
    genesis: &[NodeCrypto],
    ops: &[MembershipOp],
    rng: &mut impl RngCore,
) -> (ReshareCeremony, Vec<NodeCrypto>) {
    let mut log = CommitteeLog::new(genesis.len());
    let new = log.on_commit(1, ops).cloned().expect("random ops form a valid change");
    let mut ceremony = ReshareCeremony::new(log.config_at(0).clone(), new.clone());
    for d in shuffled(ceremony.dealers(), rng) {
        let deal = ceremony.make_deal(&genesis[d as usize], d, rng).expect("dealer has shares");
        let deal = DealSet::decode(&deal.encode()).expect("encode/decode is total");
        assert!(ceremony.absorb(deal, &genesis[0]));
    }
    assert!(ceremony.complete());
    let rolled = new
        .members
        .iter()
        .map(|&g| {
            // Joiners hold only genesis *public* material; any old bundle
            // stands in for that.
            let old = &genesis[(g as usize).min(genesis.len() - 1)];
            ceremony.rolled_crypto(old, g).expect("new member rolls")
        })
        .collect();
    (ceremony, rolled)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For random committee sizes, random leave/join sets, random deal
    /// order and random quorum subsets: the rolled shares combine into
    /// signatures and coins the *genesis* public sets accept, and every
    /// new member derives byte-identical public sets.
    #[test]
    fn rolled_quorums_verify_under_genesis_keys(
        seed in any::<u64>(),
        n_old_sel in 0usize..2,
        n_new_sel in 0usize..2,
    ) {
        let (n_old, n_new) = ([4, 7][n_old_sel], [4, 7][n_new_sel]);
        let mut rng = StdRng::seed_from_u64(seed);
        let genesis = deal_node_crypto(n_old, CryptoSuite::light(), &mut rng);
        let ops = random_ops(n_old, n_new, &mut rng);
        let (ceremony, rolled) = roll_committee(&genesis, &ops, &mut rng);
        let f_new = ceremony.target().f();
        prop_assert_eq!(ceremony.target().n(), n_new);

        for c in &rolled {
            prop_assert_eq!(c.key_epoch, 1);
            prop_assert_eq!(c.prbc_pub.share_keys(), rolled[0].prbc_pub.share_keys());
            prop_assert_eq!(c.cbc_pub.share_keys(), rolled[0].cbc_pub.share_keys());
            prop_assert_eq!(c.coin_pub.keys().share_keys(), rolled[0].coin_pub.keys().share_keys());
        }

        // A random (f+1)-subset of new-committee PRBC shares combines into
        // a signature the genesis set verifies; same for a (2f+1)-subset
        // of CBC shares.
        let msg = seed.to_le_bytes();
        let slots: Vec<usize> = (0..n_new).collect();
        let prbc_quorum = &shuffled(&slots, &mut rng)[..f_new + 1];
        let shares: Vec<_> =
            prbc_quorum.iter().map(|&s| rolled[s].prbc_sec.sign_share(&msg)).collect();
        let sig = rolled[0].prbc_pub.combine(&shares).unwrap();
        prop_assert!(genesis[0].prbc_pub.verify(&msg, &sig).is_ok());
        let cbc_quorum = &shuffled(&slots, &mut rng)[..2 * f_new + 1];
        let cbc_shares: Vec<_> =
            cbc_quorum.iter().map(|&s| rolled[s].cbc_sec.sign_share(&msg)).collect();
        let cbc_sig = rolled[0].cbc_pub.combine(&cbc_shares).unwrap();
        prop_assert!(genesis[0].cbc_pub.verify(&msg, &cbc_sig).is_ok());

        // The coin is a pure function of the fixed group secret: old and
        // new committees flip the same coin, from random quorum subsets.
        let name = CoinName {
            session: rng.next_u64() % 1024,
            round: (rng.next_u64() % 64) as u32,
            domain: (rng.next_u64() % 8) as u32,
        };
        let old_slots: Vec<usize> = (0..n_old).collect();
        let old_quorum = &shuffled(&old_slots, &mut rng)[..genesis.len() / 3 + 1];
        let old_shares: Vec<_> =
            old_quorum.iter().map(|&s| genesis[s].coin_sec.coin_share(name)).collect();
        let new_quorum = &shuffled(&slots, &mut rng)[..f_new + 1];
        let new_shares: Vec<_> =
            new_quorum.iter().map(|&s| rolled[s].coin_sec.coin_share(name)).collect();
        prop_assert_eq!(
            genesis[0].coin_pub.combine(name, &old_shares).unwrap(),
            rolled[0].coin_pub.combine(name, &new_shares).unwrap(),
        );
    }

    /// Across the key-epoch boundary the *old* shares are dead: a leaver
    /// gets no rolled bundle, and a genesis share fails verification under
    /// the rolled public set even though the group key is unchanged.
    #[test]
    fn stale_shares_die_at_the_boundary(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let genesis = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        // Force at least one leaver so the leaver property always fires.
        let leaver = (rng.next_u64() % 4) as u16;
        let ops = [MembershipOp::Leave(leaver), MembershipOp::Join(4)];
        let (ceremony, rolled) = roll_committee(&genesis, &ops, &mut rng);
        prop_assert!(ceremony.rolled_crypto(&genesis[leaver as usize], leaver).is_none());

        // Same group key before and after the roll...
        prop_assert_eq!(rolled[0].prbc_pub.group_key(), genesis[0].prbc_pub.group_key());
        // ...yet every genesis share is rejected by the rolled set: the
        // share polynomial moved even where a survivor kept its slot.
        let msg = b"stale";
        for g in &genesis {
            let stale = g.prbc_sec.sign_share(msg);
            prop_assert!(rolled[0].prbc_pub.verify_share(msg, &stale).is_err());
        }
    }
}

/// The hostile-input battery of a format that fills its payload exactly:
/// the encoding decodes back to the value, and every strict prefix and the
/// encoding plus one byte are refused.
fn exact_format<T: PartialEq + std::fmt::Debug>(
    value: &T,
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Option<T>,
    extra: u8,
) -> Result<(), TestCaseError> {
    let decoded = decode(bytes);
    prop_assert_eq!(decoded.as_ref(), Some(value));
    for cut in 0..bytes.len() {
        prop_assert!(decode(&bytes[..cut]).is_none(), "prefix of {} bytes", cut);
    }
    let mut longer = bytes.to_vec();
    longer.push(extra);
    prop_assert!(decode(&longer).is_none(), "trailing byte accepted");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn deal_set_codec_is_exact(seed in any::<u64>(), extra in any::<u8>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let genesis = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        let mut log = CommitteeLog::new(4);
        let ops = [MembershipOp::Join(4), MembershipOp::Leave((seed % 4) as u16)];
        let new = log.on_commit(1, &ops).cloned().expect("a swap is a valid change");
        let ceremony = ReshareCeremony::new(log.config_at(0).clone(), new);
        let dealer = ceremony.dealers()[0];
        let deal = ceremony.make_deal(&genesis[dealer as usize], dealer, &mut rng).unwrap();
        exact_format(&deal, &deal.encode(), DealSet::decode, extra)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn membership_op_codec_is_exact(join in any::<bool>(), node in any::<u16>(), extra in any::<u8>()) {
        let op = if join { MembershipOp::Join(node) } else { MembershipOp::Leave(node) };
        exact_format(&op, &encode_op(op), decode_op, extra)?;
    }

    #[test]
    fn deal_set_and_op_decoders_never_panic_on_garbage(
        data in proptest::collection::vec(any::<u8>(), 0..900)
    ) {
        let _ = DealSet::decode(&data); // each must return, never panic
        let _ = decode_op(&data);
    }
}
