//! Share quorums: the one place a threshold share is checked, combined and
//! priced.
//!
//! A [`Collector`] holds one instance's shares on their way to a combined
//! output: this node's own share (made once, re-sent as is), every node's
//! shares in a [`ShareBuf`] and the output, combined here or adopted from
//! elsewhere. The buffer deduplicates by reporter bit and refuses indices
//! outside the committee. It checks shares only once a quorum's worth has
//! arrived, and evicts an invalid share and frees its reporter bit, so a
//! corrected retransmission can take the slot. A buffer belongs to one key
//! epoch: [`ShareBuf::insert_tagged`] refuses a share tagged with another,
//! and [`ShareBuf::roll_key_epoch`] evicts everything it held.
//!
//! A collection runs over a [`KeySet`], the key set its shares are checked
//! against:
//!
//! - [`PublicKeySet`]: CBC certificates, PRBC proofs and every common coin
//!   (a coin is a threshold signature on its name,
//!   [`wbft_crypto::thresh_coin`]). A share is checked by one window-table
//!   exponentiation and a quorum combines to `vk^e` off the group key's
//!   table ([`PublicKeySet::combine_verified`]).
//! - [`EncPublicSet`]: HoneyBadger's decryption shares, each checked by its
//!   DLEQ proof. A quorum combines to the plaintext, or to nothing when the
//!   ciphertext's tag fails; any `f + 1` checked shares give the same key,
//!   so every honest node reaches the same verdict.
//!
//! The collector also charges the simulator's virtual CPU, at the price of
//! its [`Quorum`] (a [`ThresholdProfile`]): a share signature in
//! [`Collector::sign_own`], a share verification for each newly buffered
//! share other than its own, a combination when a quorum combines, and a
//! signature verification when [`Collector::adopt`] (or [`Quorum::check`])
//! checks a certificate. [`Quorum::new`] prices a quorum from its key set;
//! decryption shares cost what threshold-signature shares cost on the same
//! curve. A caller may price a quorum otherwise, as BEAT's coin does
//! (threshold coin flipping).

use crate::context::Actions;
use wbft_crypto::profile::ThresholdProfile;
use wbft_crypto::thresh_enc::{Ciphertext, DecShare, EncPublicSet};
use wbft_crypto::thresh_sig::{PreparedMessage, PublicKeySet, SigShare, ThresholdSignature};

/// A threshold key set that shares are checked against and combined under.
pub trait KeySet {
    /// One node's share.
    type Share: Copy + PartialEq + std::fmt::Debug;
    /// What the shares are over, ready to be checked.
    type Msg<'m>: Copy;
    /// What a checked quorum combines into.
    type Output: Clone + PartialEq + std::fmt::Debug;

    /// The share's 1-based committee index, as it came off the wire.
    fn index(share: &Self::Share) -> u16;

    /// What each step of a quorum under this key set costs.
    fn price(&self) -> ThresholdProfile;

    /// The positions (into `shares`) of every share that fails its check
    /// over `msg`.
    fn invalid_positions(&self, msg: Self::Msg<'_>, shares: &[Self::Share]) -> Vec<usize>;

    /// Combines distinct shares that each passed their check; `None` when
    /// they combine to nothing usable.
    fn combine(&self, msg: Self::Msg<'_>, shares: &[Self::Share]) -> Option<Self::Output>;
}

impl KeySet for PublicKeySet {
    type Share = SigShare;
    type Msg<'m> = PreparedMessage;
    type Output = ThresholdSignature;

    fn index(share: &SigShare) -> u16 {
        share.index.value()
    }

    fn price(&self) -> ThresholdProfile {
        self.profile()
    }

    fn invalid_positions(&self, msg: PreparedMessage, shares: &[SigShare]) -> Vec<usize> {
        self.invalid_share_positions(&msg, shares)
    }

    fn combine(&self, msg: PreparedMessage, shares: &[SigShare]) -> Option<ThresholdSignature> {
        self.combine_verified(&msg, shares).ok()
    }
}

/// Decryption shares are over a ciphertext and the label its tag binds.
impl KeySet for EncPublicSet {
    type Share = DecShare;
    type Msg<'m> = (&'m [u8], &'m Ciphertext);
    /// The plaintext.
    type Output = Vec<u8>;

    fn index(share: &DecShare) -> u16 {
        share.index.value()
    }

    /// A decryption share costs what a threshold-signature share costs on
    /// the same curve.
    fn price(&self) -> ThresholdProfile {
        self.curve().signature_profile()
    }

    fn invalid_positions(&self, (_, ct): Self::Msg<'_>, shares: &[DecShare]) -> Vec<usize> {
        let bad = |(p, share)| self.verify_share(ct, share).is_err().then_some(p);
        shares.iter().enumerate().filter_map(bad).collect()
    }

    /// `None` when the ciphertext's tag fails under the combined key.
    fn combine(&self, (label, ct): Self::Msg<'_>, shares: &[DecShare]) -> Option<Vec<u8>> {
        self.decrypt_verified(label, ct, shares).ok()
    }
}

/// The terms of one share quorum: the key set its shares are checked
/// against, how many checked shares combine, the committee size and the
/// price.
#[derive(Debug)]
pub struct Quorum<'k, K> {
    /// The key set shares are checked against.
    pub keys: &'k K,
    /// Checked shares that combine.
    pub need: usize,
    /// Committee size: the share indices in range are `1..=n`.
    pub n: usize,
    /// What each step costs.
    pub price: ThresholdProfile,
}

impl<'k, K: KeySet> Quorum<'k, K> {
    /// A quorum priced from its key set.
    pub fn new(keys: &'k K, need: usize, n: usize) -> Self {
        Quorum { keys, need, n, price: keys.price() }
    }
}

impl Quorum<'_, PublicKeySet> {
    /// Checks a signature combined elsewhere over `msg`, charged one
    /// signature verification.
    pub fn check(&self, msg: &[u8], sig: &ThresholdSignature, acts: &mut Actions) -> bool {
        acts.charge(self.price.verify_signature_us);
        self.keys.verify(msg, sig).is_ok()
    }
}

/// A buffer of unchecked threshold shares for one instance and message.
#[derive(Debug, Clone)]
pub struct ShareBuf<K: KeySet> {
    shares: Vec<K::Share>,
    /// `shares[..verified]` have passed their check.
    verified: usize,
    reporters: u64,
    /// Key epoch the buffered shares belong to. Shares from another
    /// threshold-key generation are structurally incompatible with this
    /// buffer's keys — see [`ShareBuf::insert_tagged`].
    key_epoch: u64,
}

/// A buffer of threshold-signature (and coin) shares.
pub type SigShareBuf = ShareBuf<PublicKeySet>;

impl<K: KeySet> Default for ShareBuf<K> {
    fn default() -> Self {
        ShareBuf { shares: Vec::new(), verified: 0, reporters: 0, key_epoch: 0 }
    }
}

impl<K: KeySet> ShareBuf<K> {
    /// The key epoch this buffer currently collects for.
    pub fn key_epoch(&self) -> u64 {
        self.key_epoch
    }

    /// Bitmask of indices currently buffered (verified or pending).
    pub fn reporters(&self) -> u64 {
        self.reporters
    }

    /// The buffered shares, verified prefix first.
    pub fn shares(&self) -> &[K::Share] {
        &self.shares
    }

    /// Drops every buffered share and moves the buffer to `key_epoch`; a
    /// no-op for the current epoch. Shares gathered under the old keys are
    /// useless under the new ones (same indices, different share
    /// polynomial), so a buffer that outlives a membership resharing roll
    /// must evict, not carry over.
    pub fn roll_key_epoch(&mut self, key_epoch: u64) {
        if key_epoch != self.key_epoch {
            *self = ShareBuf { key_epoch, ..ShareBuf::default() };
        }
    }

    /// [`ShareBuf::insert`] for a share tagged with the key epoch it was
    /// produced under: a stale (or future) tag is rejected at the door, so
    /// it never takes a reporter slot only to be evicted at the quorum.
    pub fn insert_tagged(&mut self, share: K::Share, n: usize, tag: u64) -> bool {
        tag == self.key_epoch && self.insert(share, n)
    }

    /// Accepts a share into the buffer unless its index is out of range for
    /// an `n`-node deployment or the index already reported. Returns `true`
    /// when the share was newly buffered.
    pub fn insert(&mut self, share: K::Share, n: usize) -> bool {
        // The reporter bitmask (like every bitmap in the wire layer) caps
        // deployments at 64 nodes; make an oversized deployment fail loudly
        // in debug builds instead of silently never settling a quorum.
        debug_assert!(n <= 64, "share buffers support at most 64 nodes, got n = {n}");
        let i = K::index(&share) as usize;
        if i == 0 || i > n || i > 64 {
            return false;
        }
        let bit = 1u64 << (i - 1);
        if self.reporters & bit != 0 {
            return false;
        }
        self.reporters |= bit;
        self.shares.push(share);
        true
    }

    /// Once at least `need` shares are buffered, checks the unverified
    /// suffix over `msg`, evicting invalid shares (freeing their reporter
    /// bits). Returns `true` when `need` *verified* shares are available.
    /// `msg` is converted only when there is a suffix to check.
    pub fn settle<'m>(&mut self, keys: &K, msg: impl Into<K::Msg<'m>>, need: usize) -> bool {
        if self.shares.len() < need {
            return false;
        }
        if self.verified < self.shares.len() {
            let bad = keys.invalid_positions(msg.into(), &self.shares[self.verified..]);
            for &p in bad.iter().rev() {
                let evicted = self.shares.remove(self.verified + p);
                self.reporters &= !(1u64 << (K::index(&evicted) - 1));
            }
            self.verified = self.shares.len();
        }
        self.shares.len() >= need
    }
}

/// What [`Collector::record`] did with a share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recorded<O> {
    /// Not buffered: the quorum combined already (or a signature was
    /// adopted), the index is out of range or that node already reported.
    Refused,
    /// Buffered; no verified quorum yet.
    Buffered,
    /// Buffered, and a verified quorum was combined (`None`: it combined to
    /// nothing usable).
    Combined(Option<O>),
}

/// Shares of one instance on their way to a combined output: this node's
/// own share (made once, re-sent as is), the buffered shares of every node
/// (verified at quorum, invalid ones evicted) and the output, combined here
/// or adopted from elsewhere. Every step is charged at its quorum's price.
#[derive(Debug, Clone)]
pub struct Collector<K: KeySet = PublicKeySet> {
    own: Option<K::Share>,
    shares: ShareBuf<K>,
    /// The quorum's combination, once made (`Some(None)`: it combined to
    /// nothing usable), or an adopted signature. A collector combines once.
    output: Option<Option<K::Output>>,
}

impl<K: KeySet> Default for Collector<K> {
    fn default() -> Self {
        Collector { own: None, shares: ShareBuf::default(), output: None }
    }
}

impl<K: KeySet> Collector<K> {
    /// This node's own share, once made.
    pub fn own(&self) -> Option<K::Share> {
        self.own
    }

    /// The combined (or adopted) output.
    pub fn output(&self) -> Option<&K::Output> {
        self.output.as_ref()?.as_ref()
    }

    /// Bitmask of the nodes whose shares are buffered.
    pub fn reporters(&self) -> u64 {
        self.shares.reporters()
    }

    /// Makes this node's own share with `sign`, charged one share
    /// signature — once; `None` when it already exists. The share is kept,
    /// not yet recorded.
    pub fn sign_own(
        &mut self,
        q: &Quorum<K>,
        sign: impl FnOnce() -> K::Share,
        acts: &mut Actions,
    ) -> Option<K::Share> {
        if self.own.is_some() {
            return None;
        }
        acts.charge(q.price.sign_share_us);
        self.own = Some(sign());
        self.own
    }

    /// Buffers one share over `msg`, charged one share verification unless
    /// it is this node's own; a quorum of verified shares combines, charged
    /// one combination. `msg` is converted once the buffer holds a quorum's
    /// worth, not before.
    pub fn record<'m>(
        &mut self,
        q: &Quorum<K>,
        msg: impl Into<K::Msg<'m>>,
        share: K::Share,
        acts: &mut Actions,
    ) -> Recorded<K::Output> {
        if self.output.is_some() || !self.shares.insert(share, q.n) {
            return Recorded::Refused;
        }
        if self.own != Some(share) {
            acts.charge(q.price.verify_share_us);
        }
        if self.shares.shares().len() < q.need {
            return Recorded::Buffered;
        }
        let msg = msg.into();
        if !self.shares.settle(q.keys, msg, q.need) {
            return Recorded::Buffered;
        }
        acts.charge(q.price.combine_us);
        let output = q.keys.combine(msg, self.shares.shares());
        self.output = Some(output.clone());
        Recorded::Combined(output)
    }
}

impl Collector<PublicKeySet> {
    /// Holds a signature combined elsewhere once it verifies over `msg`
    /// ([`Quorum::check`], charged); `false` when it does not, or when an
    /// output is held already (not charged).
    pub fn adopt(
        &mut self,
        q: &Quorum<PublicKeySet>,
        msg: &[u8],
        sig: ThresholdSignature,
        acts: &mut Actions,
    ) -> bool {
        if self.output.is_some() || !q.check(msg, &sig, acts) {
            return false;
        }
        self.output = Some(Some(sig));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wbft_crypto::thresh_coin::CoinName;
    use wbft_crypto::{thresh_coin, thresh_enc, thresh_sig, GroupElem, ShareIndex, ThresholdCurve};

    #[test]
    fn buffers_batch_and_evict_byzantine_shares() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let (pks, sks) = thresh_sig::deal(4, 1, ThresholdCurve::Bn158, &mut rng);
        let msg = b"buffered";
        let mut buf = SigShareBuf::default();
        let mut bad = sks[0].sign_share(msg);
        bad.value = bad.value.mul(&GroupElem::generator());
        assert!(buf.insert(bad, 4));
        // Duplicate index rejected while the bad share occupies the slot.
        assert!(!buf.insert(sks[0].sign_share(msg), 4));
        // Below quorum: nothing verified yet.
        assert!(!buf.settle(&pks, msg, 2));
        assert!(buf.insert(sks[1].sign_share(msg), 4));
        // Quorum reached, but the bad share is evicted → still short.
        assert!(!buf.settle(&pks, msg, 2));
        assert_eq!(buf.shares().len(), 1);
        // The freed slot admits the corrected share; quorum settles.
        assert!(buf.insert(sks[0].sign_share(msg), 4));
        assert!(buf.settle(&pks, msg, 2));
        let sig = pks.combine(buf.shares()).unwrap();
        pks.verify(msg, &sig).unwrap();
    }

    #[test]
    fn out_of_range_indices_never_buffer() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(67);
        let (_, sks) = thresh_sig::deal(4, 1, ThresholdCurve::Bn158, &mut rng);
        let mut share = sks[0].sign_share(b"m");
        share.index = ShareIndex::new(9).unwrap();
        let mut buf = SigShareBuf::default();
        assert!(!buf.insert(share, 4));
        // A forged giant index must not panic the reporter-bit shift.
        share.index = ShareIndex::new(u16::MAX).unwrap();
        assert!(!buf.insert(share, 4));
        assert_eq!(buf.reporters(), 0);
    }

    #[test]
    fn coin_buffer_settles_quorum() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        let (cpub, csec) = thresh_coin::deal_coin(4, 1, ThresholdCurve::Bn158, &mut rng);
        let name = CoinName { session: 1, round: 0, domain: 0 };
        let mut buf = SigShareBuf::default();
        assert!(buf.insert(csec[2].coin_share(name), 4));
        assert!(!buf.settle(cpub.keys(), name, 2));
        assert!(buf.insert(csec[0].coin_share(name), 4));
        assert!(buf.settle(cpub.keys(), name, 2));
        cpub.combine_value(name, buf.shares()).unwrap();
        // A share of another coin is evicted at the quorum.
        assert!(buf.insert(csec[1].coin_share(CoinName { round: 1, ..name }), 4));
        assert!(buf.settle(cpub.keys(), name, 2));
        assert_eq!(buf.shares().len(), 2);
    }

    /// One collection over a `(t, n)` deal, `n` the number of `shares`:
    /// `shares[0]` is this node's own, `bad` a corrupted copy of
    /// `shares[1]`, and `t + 1` verified shares must combine to what the
    /// uncached `reference` combination of the same quorum gives. Every
    /// step is charged at the quorum's price.
    fn collects<'m, K: KeySet>(
        keys: &K,
        msg: impl Into<K::Msg<'m>> + Copy,
        t: usize,
        shares: &[K::Share],
        bad: K::Share,
        reference: impl Fn(&[K::Share]) -> Option<K::Output>,
    ) -> Option<K::Output> {
        let (n, need) = (shares.len(), t + 1);
        let q = Quorum::new(keys, need, n);
        let price = q.price;
        let mut acts = Actions::new();
        let mut c = Collector::default();
        let mut signed = 0;
        let mut sign = || {
            signed += 1;
            shares[0]
        };
        assert_eq!(c.sign_own(&q, &mut sign, &mut acts), Some(shares[0]));
        assert_eq!(c.sign_own(&q, &mut sign, &mut acts), None, "the own share is made once");
        assert_eq!((signed, c.own(), c.reporters()), (1, Some(shares[0]), 0));
        assert_eq!(acts.charge_us, price.sign_share_us);
        assert_eq!(c.record(&q, msg, shares[0], &mut acts), Recorded::Buffered);
        assert_eq!(acts.charge_us, price.sign_share_us, "the own share is not verified");
        let again = c.record(&q, msg, shares[0], &mut acts);
        assert_eq!(again, Recorded::Refused, "never counted twice");
        for &share in &shares[2..need] {
            assert_eq!(c.record(&q, msg, share, &mut acts), Recorded::Buffered);
        }
        // The bad share reaches the quorum and has it checked: it is
        // evicted, so nothing combines — and its slot is free again.
        assert_eq!(c.record(&q, msg, bad, &mut acts), Recorded::Buffered);
        assert_eq!(c.reporters(), ((1 << need) - 1) & !0b10);
        let Recorded::Combined(output) = c.record(&q, msg, shares[1], &mut acts) else {
            panic!("{need} verified shares combine");
        };
        assert_eq!(c.output(), output.as_ref());
        let quorum = [&shares[..1], &shares[2..need], &shares[1..2]].concat();
        assert_eq!(output, reference(&quorum));
        // Each foreign share once (the bad one too), one combination.
        let verified = need as u64;
        assert_eq!(
            acts.charge_us,
            price.sign_share_us + verified * price.verify_share_us + price.combine_us
        );
        // Combined: later shares are not even buffered, nor charged.
        if need < n {
            assert_eq!(c.record(&q, msg, shares[need], &mut acts), Recorded::Refused);
        }
        assert_eq!(c.reporters(), (1 << need) - 1);
        assert_eq!(
            acts.charge_us,
            price.sign_share_us + verified * price.verify_share_us + price.combine_us
        );
        output
    }

    #[test]
    fn one_collector_serves_messages_and_coins_and_combines_what_lagrange_does() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(73);
        let name = CoinName { session: 1, round: 2, domain: 3 };
        for (n, t) in [(4, 1), (4, 2), (7, 2), (16, 5)] {
            let (pks, sks) = thresh_sig::deal(n, t, ThresholdCurve::Bn158, &mut rng);
            let shares: Vec<SigShare> = sks.iter().map(|sk| sk.sign_share(b"collected")).collect();
            let mut bad = shares[1];
            bad.value = bad.value.mul(&GroupElem::generator());
            let lagrange = |quorum: &[SigShare]| pks.combine(quorum).ok();
            let sig = collects(&pks, b"collected", t, &shares, bad, lagrange).unwrap();
            assert_eq!(Ok(sig), pks.combine(&shares[..=t]));
            let prepared = pks.prepare(b"collected");
            assert_eq!(collects(&pks, prepared, t, &shares, bad, lagrange), Some(sig));

            let (cpub, csec) = thresh_coin::deal_coin(n, t, ThresholdCurve::Bn158, &mut rng);
            let shares: Vec<SigShare> = csec.iter().map(|sk| sk.coin_share(name)).collect();
            let mut bad = shares[1];
            bad.value = bad.value.mul(&GroupElem::generator());
            let lagrange = |quorum: &[SigShare]| cpub.keys().combine(quorum).ok();
            let sig = collects(cpub.keys(), name, t, &shares, bad, lagrange).unwrap();
            assert_eq!(Ok(thresh_coin::reveal(&sig)), cpub.combine_value(name, &shares));
        }
    }

    #[test]
    fn one_collector_decrypts_and_gives_nothing_for_a_ciphertext_whose_tag_fails() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(79);
        for (n, t) in [(4, 1), (7, 2)] {
            let (enc, secs) = thresh_enc::deal_enc(n, t, ThresholdCurve::Bn158, &mut rng);
            let ct = enc.encrypt(b"label", b"plaintext", &mut rng);
            let shares: Vec<DecShare> = secs.iter().map(|s| s.dec_share(&ct)).collect();
            let mut bad = shares[1];
            bad.value = bad.value.mul(&GroupElem::generator());
            let sealed = (&b"label"[..], &ct);
            let lagrange = |quorum: &[DecShare]| enc.decrypt(b"label", &ct, quorum).ok();
            let plain = collects(&enc, sealed, t, &shares, bad, lagrange);
            assert_eq!(plain, Some(b"plaintext".to_vec()));
            // Encrypted under another label: every share checks, and the
            // quorum gives nothing.
            let replayed = (&b"other"[..], &ct);
            let lagrange = |quorum: &[DecShare]| enc.decrypt(b"other", &ct, quorum).ok();
            assert_eq!(collects(&enc, replayed, t, &shares, bad, lagrange), None);
        }
    }

    #[test]
    fn an_adopted_signature_is_charged_once_and_held() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(83);
        let (pks, sks) = thresh_sig::deal(4, 1, ThresholdCurve::Bn158, &mut rng);
        let sig = pks.combine(&[sks[0].sign_share(b"m"), sks[1].sign_share(b"m")]).unwrap();
        let q = Quorum::new(&pks, 2, 4);
        let check = pks.profile().verify_signature_us;
        let (mut c, mut acts) = (Collector::default(), Actions::new());
        assert!(!c.adopt(&q, b"other", sig, &mut acts));
        assert!(c.adopt(&q, b"m", sig, &mut acts));
        assert_eq!((c.output(), acts.charge_us), (Some(&sig), 2 * check));
        assert!(!c.adopt(&q, b"m", sig, &mut acts), "already held");
        assert_eq!(c.record(&q, b"m", sks[2].sign_share(b"m"), &mut acts), Recorded::Refused);
        assert_eq!(acts.charge_us, 2 * check);
    }
}
