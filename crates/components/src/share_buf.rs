//! Buffered verification of threshold shares — the component-side half of
//! the crypto fast path.
//!
//! The buffers here change the *real* work, not the protocol: shares are
//! accepted into a per-instance buffer (deduplicated by reporter bit,
//! index-range checked) and only verified once a quorum's worth has
//! accumulated, each by one window-table exponentiation
//! ([`wbft_crypto::thresh_sig::PublicKeySet::invalid_share_positions`]). A
//! share that fails is evicted and its reporter bit freed, so a corrected
//! retransmission can take the slot. A quorum of checked shares then
//! combines to `vk^e` off the group key's table
//! ([`wbft_crypto::thresh_sig::PublicKeySet::combine_verified`]) instead of
//! by Lagrange interpolation.
//!
//! There is one threshold scheme: the common coin is a threshold signature
//! on its name ([`wbft_crypto::thresh_coin`]). So one [`SigShareBuf`] and
//! one [`Collector`] on top of it are the whole "own share once → buffer →
//! settle at quorum → combine" sequence under every certificate, proof and
//! coin; what a quorum is over is anything that converts into a
//! [`PreparedMessage`] — message bytes, a coin name, or a message already
//! prepared.
//!
//! The simulator's *charged virtual costs* are unchanged: callers still
//! charge `verify_share_us` per accepted share at arrival and `combine_us`
//! per combination, exactly as before — only wall-clock CPU drops. The
//! collector reports what it did ([`Recorded`]) and charges nothing,
//! because who pays for an own share differs by caller.

use wbft_crypto::thresh_sig::{PreparedMessage, PublicKeySet, SigShare, ThresholdSignature};

/// A buffer of unverified signature shares for one instance/message.
#[derive(Debug, Clone, Default)]
pub struct SigShareBuf {
    shares: Vec<SigShare>,
    /// `shares[..verified]` have passed verification.
    verified: usize,
    reporters: u64,
    /// Key epoch the buffered shares belong to. Shares from another
    /// threshold-key generation are structurally incompatible with this
    /// buffer's verification keys — see [`SigShareBuf::insert_tagged`].
    key_epoch: u64,
}

impl SigShareBuf {
    /// The key epoch this buffer currently collects for.
    pub fn key_epoch(&self) -> u64 {
        self.key_epoch
    }

    /// Bitmask of indices currently buffered (verified or pending).
    pub fn reporters(&self) -> u64 {
        self.reporters
    }

    /// The buffered shares, verified prefix first.
    pub fn shares(&self) -> &[SigShare] {
        &self.shares
    }

    /// Drops every buffered share and moves the buffer to `key_epoch`; a
    /// no-op for the current epoch. Shares gathered under the old keys are
    /// useless under the new ones (same indices, different share
    /// polynomial), so a buffer that outlives a membership resharing roll
    /// must evict, not carry over.
    pub fn roll_key_epoch(&mut self, key_epoch: u64) {
        if key_epoch == self.key_epoch {
            return;
        }
        self.key_epoch = key_epoch;
        self.shares.clear();
        self.verified = 0;
        self.reporters = 0;
    }

    /// [`SigShareBuf::insert`] for a share tagged with the key epoch it was
    /// produced under: a stale (or future) tag is rejected at the door, so
    /// it never takes a reporter slot only to be evicted at the quorum.
    pub fn insert_tagged(&mut self, share: SigShare, n: usize, tag: u64) -> bool {
        tag == self.key_epoch && self.insert(share, n)
    }

    /// Accepts a share into the buffer unless its index is out of range for
    /// an `n`-node deployment or the index already reported. Returns `true`
    /// when the share was newly buffered (callers charge the virtual verify
    /// cost exactly then).
    pub fn insert(&mut self, share: SigShare, n: usize) -> bool {
        // The reporter bitmask (like every bitmap in the wire layer) caps
        // deployments at 64 nodes; make an oversized deployment fail loudly
        // in debug builds instead of silently never settling a quorum.
        debug_assert!(n <= 64, "share buffers support at most 64 nodes, got n = {n}");
        let i = share.index.value() as usize;
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

    /// Once at least `need` shares are buffered, verifies the unverified
    /// suffix over `msg`, evicting invalid shares (freeing their reporter
    /// bits). Returns `true` when `need` *verified* shares are available —
    /// the signal to charge the combine cost and combine. `msg` is hashed
    /// only when there is a suffix to verify.
    pub fn settle(
        &mut self,
        keys: &PublicKeySet,
        msg: impl Into<PreparedMessage>,
        need: usize,
    ) -> bool {
        if self.shares.len() < need {
            return false;
        }
        if self.verified < self.shares.len() {
            let bad = keys.invalid_share_positions(&msg.into(), &self.shares[self.verified..]);
            for &p in bad.iter().rev() {
                let evicted = self.shares.remove(self.verified + p);
                self.reporters &= !(1u64 << (evicted.index.value() - 1));
            }
            self.verified = self.shares.len();
        }
        self.shares.len() >= need
    }
}

/// What [`Collector::record`] did with a share. The collector only reports:
/// the virtual costs differ by caller and are charged there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recorded {
    /// Not buffered: the output exists already, the index is out of range
    /// or that node already reported.
    Refused,
    /// Buffered; no verified quorum yet.
    Buffered,
    /// Buffered, and a verified quorum was combined (`None`: it did not
    /// combine).
    Combined(Option<ThresholdSignature>),
}

/// Shares of one instance on their way to a combined signature: this
/// node's own share (made once, re-sent as is), the buffered shares of
/// every node (verified at quorum, invalid ones evicted) and the
/// signature, combined here or adopted from elsewhere.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    own: Option<SigShare>,
    shares: SigShareBuf,
    output: Option<ThresholdSignature>,
}

impl Collector {
    /// This node's own share, once made.
    pub fn own(&self) -> Option<SigShare> {
        self.own
    }

    /// The combined (or adopted) signature.
    pub fn output(&self) -> Option<&ThresholdSignature> {
        self.output.as_ref()
    }

    /// Bitmask of the nodes whose shares are buffered.
    pub fn reporters(&self) -> u64 {
        self.shares.reporters()
    }

    /// Makes this node's own share with `sign` — once; `None` when it
    /// already exists. The share is kept, not yet recorded.
    pub fn sign_own(&mut self, sign: impl FnOnce() -> SigShare) -> Option<SigShare> {
        if self.own.is_some() {
            return None;
        }
        self.own = Some(sign());
        self.own
    }

    /// Buffers one share over `msg`; `need` verified shares combine. `msg`
    /// is hashed once the buffer holds a quorum's worth, not before.
    pub fn record(
        &mut self,
        keys: &PublicKeySet,
        msg: impl Into<PreparedMessage>,
        need: usize,
        n: usize,
        share: SigShare,
    ) -> Recorded {
        if self.output.is_some() || !self.shares.insert(share, n) {
            return Recorded::Refused;
        }
        if self.shares.shares().len() < need {
            return Recorded::Buffered;
        }
        let msg = msg.into();
        if !self.shares.settle(keys, msg, need) {
            return Recorded::Buffered;
        }
        self.output = keys.combine_verified(&msg, self.shares.shares()).ok();
        Recorded::Combined(self.output)
    }

    /// Holds a signature combined elsewhere (the caller verified it).
    pub fn adopt(&mut self, output: ThresholdSignature) {
        self.output = Some(output);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wbft_crypto::thresh_coin::CoinName;
    use wbft_crypto::{thresh_coin, thresh_sig, GroupElem, ShareIndex, ThresholdCurve};

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
    /// public Lagrange combination gives.
    fn collects(
        keys: &PublicKeySet,
        msg: impl Into<PreparedMessage> + Copy,
        t: usize,
        shares: &[SigShare],
        bad: SigShare,
    ) -> ThresholdSignature {
        let (n, need) = (shares.len(), t + 1);
        let mut c = Collector::default();
        let mut signed = 0;
        let mut sign = || {
            signed += 1;
            shares[0]
        };
        assert_eq!(c.sign_own(&mut sign), Some(shares[0]));
        assert_eq!(c.sign_own(&mut sign), None, "the own share is made once");
        assert_eq!((signed, c.own(), c.reporters()), (1, Some(shares[0]), 0));
        assert_eq!(c.record(keys, msg, need, n, shares[0]), Recorded::Buffered);
        let again = c.record(keys, msg, need, n, shares[0]);
        assert_eq!(again, Recorded::Refused, "never counted twice");
        for &share in &shares[2..need] {
            assert_eq!(c.record(keys, msg, need, n, share), Recorded::Buffered);
        }
        // The bad share reaches the quorum and has it checked: it is
        // evicted, so nothing combines — and its slot is free again.
        assert_eq!(c.record(keys, msg, need, n, bad), Recorded::Buffered);
        assert_eq!(c.reporters(), ((1 << need) - 1) & !0b10);
        let Recorded::Combined(Some(output)) = c.record(keys, msg, need, n, shares[1]) else {
            panic!("{need} verified shares combine");
        };
        assert_eq!(c.output(), Some(&output));
        let quorum = [&shares[..1], &shares[2..need], &shares[1..2]].concat();
        assert_eq!(Ok(output), keys.combine(&quorum));
        // Combined: later shares are not even buffered.
        if need < n {
            assert_eq!(c.record(keys, msg, need, n, shares[need]), Recorded::Refused);
        }
        assert_eq!(c.reporters(), (1 << need) - 1);
        let mut adopter = Collector::default();
        adopter.adopt(output);
        assert_eq!(adopter.record(keys, msg, need, n, shares[0]), Recorded::Refused);
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
            collects(&pks, b"collected", t, &shares, bad);
            collects(&pks, pks.prepare(b"collected"), t, &shares, bad);

            let (cpub, csec) = thresh_coin::deal_coin(n, t, ThresholdCurve::Bn158, &mut rng);
            let shares: Vec<SigShare> = csec.iter().map(|sk| sk.coin_share(name)).collect();
            let mut bad = shares[1];
            bad.value = bad.value.mul(&GroupElem::generator());
            let sig = collects(cpub.keys(), name, t, &shares, bad);
            assert_eq!(Ok(thresh_coin::reveal(&sig)), cpub.combine_value(name, &shares));
        }
    }
}
