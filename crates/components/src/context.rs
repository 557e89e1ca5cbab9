//! Shared component infrastructure: protocol parameters, the action sink
//! components emit into, per-node cryptographic material, and the
//! component-facing traits the consensus layer composes.

use crate::aba_lc::AbaLcBatch;
use crate::aba_sc::AbaScBatch;
use bytes::Bytes;
use rand::RngCore;
use std::collections::BTreeMap;
use wbft_crypto::profile::CryptoSuite;
use wbft_crypto::schnorr::{KeyPair, PublicKey};
use wbft_crypto::thresh_coin::CoinPublicSet;
use wbft_crypto::thresh_enc::{EncPublicSet, EncSecretShare};
use wbft_crypto::thresh_sig::{PublicKeySet, SecretKeyShare};
use wbft_crypto::{Scalar, ShareIndex};
use wbft_net::{Body, CoinFlavor};
use wbft_wireless::SimDuration;

/// How a component's state reaches the air: the one thing that differs
/// between a ConsensusBatcher deployment and its unbatched baseline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Packing {
    /// One combined packet for all N instances per channel access.
    #[default]
    Combined,
    /// One frame per (instance, phase) entry of that packet
    /// ([`wbft_net::split()`]).
    PerInstance,
}

/// Core BFT parameters of one component batch.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Number of nodes (and of parallel instances), `n = 3f + 1`.
    pub n: usize,
    /// Fault tolerance.
    pub f: usize,
    /// This node's zero-based id.
    pub me: usize,
    /// Session id binding packets to this component batch.
    pub session: u64,
    /// How the component's packets are packaged.
    pub packing: Packing,
}

impl Params {
    /// Creates parameters, checking `n = 3f + 1` and `me < n`.
    ///
    /// # Panics
    ///
    /// Panics if the BFT bound or the id range is violated.
    pub fn new(n: usize, me: usize, session: u64) -> Self {
        assert!(n >= 4 && (n - 1).is_multiple_of(3), "need n = 3f+1 >= 4, got {n}");
        assert!(me < n, "node id {me} out of range for n = {n}");
        Params { n, f: (n - 1) / 3, me, session, packing: Packing::Combined }
    }

    /// The same parameters under another packing.
    pub fn packed(self, packing: Packing) -> Self {
        Params { packing, ..self }
    }

    /// The Byzantine quorum `2f + 1`.
    pub fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// `n − f`, the wait threshold of the ABA phases.
    pub fn n_minus_f(&self) -> usize {
        self.n - self.f
    }
}

/// Commands a component emits during an event; the node driver turns sends
/// into sealed packets and timers into simulator timers.
#[derive(Debug, Default)]
pub struct Actions {
    /// Packet bodies to broadcast (each becomes one channel access).
    pub sends: Vec<Body>,
    /// `(delay, local timer id)` requests.
    pub timers: Vec<(SimDuration, u32)>,
    /// Virtual CPU time to charge (µs) for crypto performed in this event.
    pub charge_us: u64,
}

impl Actions {
    /// Fresh empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a broadcast.
    pub fn send(&mut self, body: Body) {
        self.sends.push(body);
    }

    /// Requests a timer.
    pub fn timer(&mut self, after: SimDuration, local_id: u32) {
        self.timers.push((after, local_id));
    }

    /// Charges virtual CPU time.
    pub fn charge(&mut self, us: u64) {
        self.charge_us += us;
    }

    /// Moves everything out (driver side).
    pub fn drain(&mut self) -> (Vec<Body>, Vec<(SimDuration, u32)>, u64) {
        (
            std::mem::take(&mut self.sends),
            std::mem::take(&mut self.timers),
            std::mem::replace(&mut self.charge_us, 0),
        )
    }
}

/// A node's full cryptographic identity: packet-signature keypair, peers'
/// verification keys, and the four threshold key sets the protocols use.
#[derive(Clone, Debug)]
pub struct NodeCrypto {
    /// This node's id.
    pub me: usize,
    /// Curve deployments (cost profiles) in effect.
    pub suite: CryptoSuite,
    /// Packet-signing keypair.
    pub keypair: KeyPair,
    /// All nodes' packet verification keys.
    pub peer_keys: Vec<PublicKey>,
    /// Key epoch these threshold shares belong to: 0 for a dealt genesis
    /// bundle, incremented by each membership resharing roll. Share-
    /// carrying wire traffic is tagged with it so stale-epoch shares are
    /// rejected instead of combined.
    pub key_epoch: u64,
    /// `(f, n)` threshold signatures — PRBC delivery proofs.
    pub prbc_pub: PublicKeySet,
    /// Secret share for `prbc_pub`.
    pub prbc_sec: SecretKeyShare,
    /// `(2f, n)` threshold signatures — CBC quorum certificates.
    pub cbc_pub: PublicKeySet,
    /// Secret share for `cbc_pub`.
    pub cbc_sec: SecretKeyShare,
    /// `(f, n)` threshold signatures on coin names — the common coin.
    pub coin_pub: CoinPublicSet,
    /// Secret share for `coin_pub`.
    pub coin_sec: SecretKeyShare,
    /// `(f, n)` threshold encryption — censorship resilience.
    pub enc_pub: EncPublicSet,
    /// Secret share for `enc_pub`.
    pub enc_sec: EncSecretShare,
}

/// Deals a full set of [`NodeCrypto`] for an `n`-node deployment (the
/// trusted-dealer setup the paper also assumes).
pub fn deal_node_crypto(n: usize, suite: CryptoSuite, rng: &mut impl RngCore) -> Vec<NodeCrypto> {
    deal_committee_crypto(n, n, suite, rng)
}

/// Deals the identities of `n_total` nodes around an `n_genesis`-member
/// genesis committee. Node *identity* is static — every node, genesis
/// member or future joiner, holds a packet keypair and everyone's
/// verification keys from the start; *committee membership* is what a
/// dynamic-membership run changes. The threshold deals are sized to the
/// genesis committee: its members get real secret shares, while joiners
/// (ids `n_genesis..`) get the genesis *public* sets — they need them to
/// verify certificates on the chain they bootstrap — plus placeholder zero
/// secret shares at their own index. A placeholder used before a resharing
/// ceremony hands the joiner real shares produces shares that fail
/// verification loudly instead of silently combining into garbage.
pub fn deal_committee_crypto(
    n_genesis: usize,
    n_total: usize,
    suite: CryptoSuite,
    rng: &mut impl RngCore,
) -> Vec<NodeCrypto> {
    assert!(
        n_genesis >= 4 && (n_genesis - 1).is_multiple_of(3),
        "need n = 3f+1 >= 4, got {n_genesis}"
    );
    assert!(n_total >= n_genesis, "total node count below the genesis committee");
    let n = n_genesis;
    let f = (n - 1) / 3;
    let keypairs: Vec<KeyPair> =
        (0..n_total).map(|_| KeyPair::generate(suite.ecdsa, rng)).collect();
    let peer_keys: Vec<PublicKey> = keypairs.iter().map(|k| k.public()).collect();
    let (prbc_pub, prbc_secs) = wbft_crypto::thresh_sig::deal(n, f, suite.threshold, rng);
    let (cbc_pub, cbc_secs) = wbft_crypto::thresh_sig::deal(n, 2 * f, suite.threshold, rng);
    let (coin_pub, coin_secs) = wbft_crypto::thresh_coin::deal_coin(n, f, suite.threshold, rng);
    let (enc_pub, enc_secs) = wbft_crypto::thresh_enc::deal_enc(n, f, suite.threshold, rng);
    let sig_placeholder =
        |idx| SecretKeyShare::from_parts(idx, Scalar::ZERO, suite.threshold);
    keypairs
        .into_iter()
        .enumerate()
        .map(|(me, keypair)| {
            let idx = ShareIndex::for_node(me);
            NodeCrypto {
                me,
                suite,
                keypair,
                peer_keys: peer_keys.clone(),
                key_epoch: 0,
                prbc_pub: prbc_pub.clone(),
                prbc_sec: prbc_secs.get(me).cloned().unwrap_or_else(|| sig_placeholder(idx)),
                cbc_pub: cbc_pub.clone(),
                cbc_sec: cbc_secs.get(me).cloned().unwrap_or_else(|| sig_placeholder(idx)),
                coin_pub: coin_pub.clone(),
                coin_sec: coin_secs.get(me).cloned().unwrap_or_else(|| sig_placeholder(idx)),
                enc_pub: enc_pub.clone(),
                enc_sec: enc_secs
                    .get(me)
                    .cloned()
                    .unwrap_or_else(|| EncSecretShare::from_parts(idx, Scalar::ZERO)),
            }
        })
        .collect()
}

/// Broadcast components that deliver `(instance, value)` pairs — RBC, CBC
/// and PRBC implement this.
pub trait Broadcaster {
    /// Starts the component; `my_value` is this node's proposal (instance
    /// `me`).
    fn start(&mut self, my_value: Bytes, acts: &mut Actions);

    /// Processes a packet body addressed to this component's session.
    fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions);

    /// Handles one of this component's timers.
    fn on_timer(&mut self, local_id: u32, acts: &mut Actions);

    /// The delivered value of an instance, if any.
    fn delivered(&self, instance: usize) -> Option<&Bytes>;

    /// How many instances have delivered.
    fn delivered_count(&self) -> usize;
}

/// Binary-agreement components over `n` parallel (or serial) instances.
pub trait BinaryAgreement {
    /// Provides this node's input for an instance, activating it.
    fn set_input(&mut self, instance: usize, value: bool, acts: &mut Actions);

    /// Processes a packet body addressed to this component's session.
    fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions);

    /// Handles one of this component's timers.
    fn on_timer(&mut self, local_id: u32, acts: &mut Actions);

    /// The decision of an instance, if reached.
    fn decided(&self, instance: usize) -> Option<bool>;

    /// How many instances have decided.
    fn decided_count(&self) -> usize;
}

/// Which binary agreement a deployment runs under its broadcast phase: the
/// one choice besides the skeleton and the packing that tells the paper's
/// deployments apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Agreement {
    /// Cachin-style ABA over a threshold common coin of `flavor`
    /// ([`AbaScBatch`]). `serial` gives every instance a coin of its own,
    /// as Dumbo's one-at-a-time election and the baselines use; otherwise
    /// all instances share one coin per round.
    SharedCoin {
        /// How the coin is made: threshold signature or coin flipping.
        flavor: CoinFlavor,
        /// One coin per instance rather than one per round.
        serial: bool,
    },
    /// Bracha's ABA with local coins ([`AbaLcBatch`]).
    LocalCoin,
}

impl Agreement {
    /// A fresh agreement component under `p`, drawing its coin shares from
    /// `crypto`.
    pub fn build(self, p: Params, crypto: &NodeCrypto) -> Box<dyn BinaryAgreement + Send> {
        match self {
            Agreement::SharedCoin { flavor, serial } => {
                let (pk, sk) = (crypto.coin_pub.clone(), crypto.coin_sec.clone());
                Box::new(if serial {
                    AbaScBatch::new_serial(p, flavor, pk, sk)
                } else {
                    AbaScBatch::new_parallel(p, flavor, pk, sk)
                })
            }
            Agreement::LocalCoin => Box::new(AbaLcBatch::new(p)),
        }
    }
}

/// ConsensusBatcher's send discipline, once for every combined packet: a
/// state change goes out in the next flush, and a jittered tick re-sends
/// while the component is incomplete or a NACK shows a peer behind. Owns the
/// changed flag, the armed flag, the backoff with its jitter stream, the
/// peer-behind evidence and the packing; the component owns what the packet
/// says, and hands it to [`Batcher::send`] (a flush) or [`Batcher::resend`]
/// (a tick).
///
/// Under [`Packing::Combined`] both pass the packet through, and evidence
/// naming an instance ([`Batcher::peer_lacks`]) counts as a peer behind.
/// Under [`Packing::PerInstance`] the packet is split into its
/// per-instance frames, and
/// - a flush sends each frame that is news over the last frame sent in its
///   slot ([`Body::is_news_over`]: an ask it no longer makes — a cleared
///   NACK, a decision — is not news), but no NACK frame: a request rides
///   the ticks ([`Body::is_request`]);
/// - a tick re-sends the frames of every instance incomplete here (one of
///   its frames asks for something: a NACK bit, an undecided vote), of every
///   instance a peer's NACK named, and of all instances when the evidence
///   named none ([`Batcher::peer_behind`]) — of an instance's rounds only
///   its latest, and older ones down to the lowest round a peer was seen at
///   ([`Batcher::peer_at`]) or named.
#[derive(Debug)]
pub struct Batcher {
    rng: rand_chacha::ChaCha12Rng,
    /// Local id of the tick timer this batcher arms.
    timer: u32,
    attempt: u32,
    changed: bool,
    armed: bool,
    /// Evidence since the last tick's send that some peer is behind (their
    /// NACK bits, or votes they lack that we have).
    peer_behind: bool,
    /// The per-instance packing's state; `None` under the combined one.
    frames: Option<Box<Frames>>,
}

/// What the per-instance packing remembers between sends.
#[derive(Debug, Default)]
struct Frames {
    /// The last frame sent per transmit slot.
    sent: BTreeMap<u64, Body>,
    /// Since the last tick's send, per instance: the lowest round a peer was
    /// seen at or lacks from, and whether some peer lacks it.
    wanted: BTreeMap<u8, Want>,
}

/// What peers were seen to want of one instance.
#[derive(Clone, Copy, Debug)]
struct Want {
    from_round: u16,
    lacked: bool,
}

impl Frames {
    fn want(&mut self, instance: usize, round: u16, lacked: bool) {
        let Ok(instance) = u8::try_from(instance) else { return };
        let want = self.wanted.entry(instance).or_insert(Want { from_round: round, lacked });
        want.from_round = want.from_round.min(round);
        want.lacked |= lacked;
    }

    fn send(&mut self, body: Body, acts: &mut Actions) {
        for frame in wbft_net::split(body) {
            let slot = frame.slot_key();
            let news = self.sent.get(&slot).is_none_or(|last| frame.is_news_over(last));
            if news && !frame.is_request() {
                self.emit(slot, frame, acts);
            }
        }
    }

    fn resend(&mut self, peer_behind: bool, body: Body, acts: &mut Actions) {
        let frames = wbft_net::split(body);
        // Per instance: its latest round, and whether it is incomplete here.
        let mut latest: BTreeMap<u8, (u16, bool)> = BTreeMap::new();
        for frame in &frames {
            let Some((instance, round)) = frame.place() else { continue };
            let (top, asks) = latest.entry(instance).or_insert((round, false));
            *top = (*top).max(round);
            *asks |= frame.asks() != 0;
        }
        let wanted = std::mem::take(&mut self.wanted);
        for frame in frames {
            let due = frame.place().is_none_or(|(instance, round)| {
                let want = wanted.get(&instance);
                let (top, asks) = latest.get(&instance).copied().unwrap_or_default();
                round >= want.map_or(top, |w| w.from_round.min(top))
                    && (peer_behind || asks || want.is_some_and(|w| w.lacked))
            });
            if due {
                self.emit(frame.slot_key(), frame, acts);
            }
        }
    }

    fn emit(&mut self, slot: u64, frame: Body, acts: &mut Actions) {
        self.sent.insert(slot, frame.clone());
        acts.send(frame);
    }
}

impl Batcher {
    /// Creates the batcher of one component, ticking on local timer
    /// `timer`, with its own deterministic jitter stream (seeded from node
    /// id + session so nodes desynchronize), packaging as `params` says.
    pub fn new(params: &Params, timer: u32) -> Self {
        use rand::SeedableRng;
        let seed = (params.me as u64) << 32 | (params.session & 0xffff_ffff);
        Batcher {
            rng: rand_chacha::ChaCha12Rng::seed_from_u64(seed),
            timer,
            attempt: 0,
            changed: false,
            armed: false,
            peer_behind: false,
            frames: (params.packing == Packing::PerInstance).then(Box::default),
        }
    }

    /// The component's state changed: the next flush sends.
    pub fn changed(&mut self) {
        self.changed = true;
    }

    /// [`Batcher::changed`] when `yes`.
    pub fn changed_if(&mut self, yes: bool) {
        self.changed |= yes;
    }

    /// A peer demonstrably lacks state this node holds: the next tick
    /// sends even if this node is complete.
    pub fn peer_behind(&mut self) {
        self.peer_behind = true;
    }

    /// A peer's NACK shows it lacks this node's state of `instance` from
    /// `round` on: the next tick sends even if this node is complete.
    pub fn peer_lacks(&mut self, instance: usize, round: u16) {
        match &mut self.frames {
            None => self.peer_behind = true,
            Some(frames) => frames.want(instance, round, true),
        }
    }

    /// A peer is at `round` of `instance`: under per-instance packing the
    /// next tick's re-send reaches back to that round. Not evidence that
    /// the peer is behind by itself.
    pub fn peer_at(&mut self, instance: usize, round: u16) {
        if let Some(frames) = &mut self.frames {
            frames.want(instance, round, false);
        }
    }

    /// `true` exactly when the state changed since the last flush — the
    /// caller builds its packet and [`Batcher::send`]s it now. Fresh
    /// information is worth sending promptly, so this also resets the
    /// backoff.
    #[must_use]
    pub fn flush(&mut self) -> bool {
        if self.changed {
            self.attempt = 0;
        }
        std::mem::take(&mut self.changed)
    }

    /// Sends a flush's packet under this batcher's packing.
    pub fn send(&mut self, body: Body, acts: &mut Actions) {
        match &mut self.frames {
            None => acts.send(body),
            Some(frames) => frames.send(body, acts),
        }
    }

    /// Re-sends a tick's packet under this batcher's packing;
    /// `peer_behind` is what [`Batcher::tick`] answered.
    pub fn resend(&mut self, peer_behind: bool, body: Body, acts: &mut Actions) {
        match &mut self.frames {
            None => acts.send(body),
            Some(frames) => frames.resend(peer_behind, body, acts),
        }
    }

    /// Arms the tick timer on the first call.
    pub fn arm(&mut self, acts: &mut Actions) {
        if !std::mem::replace(&mut self.armed, true) {
            self.rearm(acts);
        }
    }

    /// The tick, when `local_id` is this batcher's timer: re-arms it, and
    /// answers `Some(peer_behind)` when the caller must re-send now — it is
    /// incomplete, or a peer is behind (evidence the send uses up); the
    /// caller passes the answer to [`Batcher::resend`]. A tick's send is a
    /// repeat, not news: it neither clears a pending change nor resets the
    /// backoff.
    #[must_use]
    pub fn tick(&mut self, local_id: u32, complete: bool, acts: &mut Actions) -> Option<bool> {
        if local_id != self.timer {
            return None;
        }
        self.rearm(acts);
        let peer_behind = std::mem::take(&mut self.peer_behind);
        let lacked = self.frames.as_ref().is_some_and(|f| f.wanted.values().any(|w| w.lacked));
        let due = (!complete || peer_behind || lacked).then_some(peer_behind);
        if let (None, Some(frames)) = (due, &mut self.frames) {
            frames.wanted.clear();
        }
        due
    }

    fn rearm(&mut self, acts: &mut Actions) {
        let policy = wbft_net::RetransmitPolicy::lora_class();
        acts.timer(policy.delay(self.attempt, &mut self.rng), self.timer);
        self.attempt = self.attempt.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn params_derive_f_and_quorum() {
        let p = Params::new(4, 2, 9);
        assert_eq!(p.f, 1);
        assert_eq!(p.quorum(), 3);
        assert_eq!(p.n_minus_f(), 3);
        let p = Params::new(7, 0, 1);
        assert_eq!(p.f, 2);
        assert_eq!(p.quorum(), 5);
    }

    #[test]
    #[should_panic(expected = "3f+1")]
    fn bad_n_rejected() {
        Params::new(5, 0, 0);
    }

    #[test]
    fn actions_collects_and_drains() {
        let mut a = Actions::new();
        a.charge(100);
        a.charge(50);
        a.timer(SimDuration::from_millis(5), 1);
        let (sends, timers, charge) = a.drain();
        assert!(sends.is_empty());
        assert_eq!(timers.len(), 1);
        assert_eq!(charge, 150);
        let (_, _, charge2) = a.drain();
        assert_eq!(charge2, 0);
    }

    #[test]
    fn dealt_crypto_is_consistent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let nodes = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        assert_eq!(nodes.len(), 4);
        // PRBC set: threshold f = 1 → 2 shares combine.
        let msg = b"done";
        let s0 = nodes[0].prbc_sec.sign_share(msg);
        let s1 = nodes[1].prbc_sec.sign_share(msg);
        let sig = nodes[2].prbc_pub.combine(&[s0, s1]).unwrap();
        nodes[3].prbc_pub.verify(msg, &sig).unwrap();
        // CBC set: threshold 2f = 2 → 3 shares.
        let shares: Vec<_> = nodes.iter().take(3).map(|n| n.cbc_sec.sign_share(msg)).collect();
        let sig = nodes[0].cbc_pub.combine(&shares).unwrap();
        nodes[1].cbc_pub.verify(msg, &sig).unwrap();
        // Packet keys cross-verify.
        let sig = nodes[2].keypair.sign(b"pkt");
        nodes[0].peer_keys[2].verify(b"pkt", &sig).unwrap();
        assert!(nodes[0].peer_keys[3].verify(b"pkt", &sig).is_err());
    }

    const TIMER: u32 = 3;

    /// The delays (µs) of the timers `acts` holds, which must all be the
    /// batcher's own; drains them.
    fn delays(acts: &mut Actions) -> Vec<u64> {
        let (_, timers, _) = acts.drain();
        timers
            .iter()
            .map(|&(d, id)| {
                assert_eq!(id, TIMER);
                d.as_micros()
            })
            .collect()
    }

    #[test]
    fn batcher_flushes_once_per_change_and_resets_the_backoff() {
        let mut b = Batcher::new(&Params::new(4, 2, 0x1_0000_0007), TIMER);
        let mut acts = Actions::new();
        assert!(!b.flush(), "nothing changed yet");
        b.changed();
        b.changed_if(false);
        b.changed();
        assert!(b.flush(), "any number of changes make one send");
        assert!(!b.flush());
        b.changed_if(true);
        assert!(b.flush());
        // Arming happens once; the backoff climbs tick by tick ...
        b.arm(&mut acts);
        b.arm(&mut acts);
        assert_eq!(delays(&mut acts).len(), 1);
        for _ in 0..5 {
            assert_eq!(b.tick(TIMER, false, &mut acts), Some(false));
        }
        let climbed = delays(&mut acts);
        assert!(climbed.windows(2).all(|w| w[0] < w[1]), "{climbed:?}");
        // ... an unchanged flush leaves it there, a changed one restarts it.
        assert!(!b.flush());
        assert_eq!(b.tick(TIMER, false, &mut acts), Some(false));
        assert!(delays(&mut acts)[0] > climbed[4]);
        b.changed();
        assert!(b.flush());
        assert_eq!(b.tick(TIMER, false, &mut acts), Some(false));
        assert!(delays(&mut acts)[0] < 900_000 + 400_000, "first-attempt delay again");
    }

    #[test]
    fn batcher_tick_sends_iff_incomplete_or_a_peer_is_behind_and_always_rearms() {
        let mut b = Batcher::new(&Params::new(4, 0, 1), TIMER);
        let mut acts = Actions::new();
        assert_eq!(b.tick(TIMER, false, &mut acts), Some(false), "incomplete");
        assert_eq!(b.tick(TIMER, true, &mut acts), None, "complete, nobody behind");
        b.peer_behind();
        assert_eq!(b.tick(TIMER, true, &mut acts), Some(true), "complete, a peer behind");
        assert_eq!(b.tick(TIMER, true, &mut acts), None, "the send used the evidence up");
        b.peer_behind();
        assert_eq!(b.tick(TIMER, false, &mut acts), Some(true));
        assert_eq!(delays(&mut acts).len(), 5, "every tick re-arms, sending or not");
        b.peer_behind();
        assert_eq!(b.tick(TIMER + 1, false, &mut acts), None, "not this batcher's timer");
        assert_eq!(b.tick(TIMER, true, &mut acts), Some(true), "which neither re-arms nor forgets");
        assert_eq!(delays(&mut acts).len(), 1);
        // A tick's send is a repeat: the pending change still flushes, once.
        b.changed();
        assert_eq!(b.tick(TIMER, false, &mut acts), Some(false));
        assert!(b.flush());
        assert!(!b.flush());
    }

    #[test]
    fn batcher_draws_the_delays_the_retransmission_driver_it_replaced_drew() {
        // Twelve delays, a backoff reset, two more — drawn at the parent of
        // this change by the per-component driver the batcher replaced, for
        // this `(me, session)`: the jitter stream every byte-pinned report
        // depends on. The session's high half is outside the seed.
        const PINNED: [u64; 14] = [
            975_840, 1_403_780, 2_382_515, 3_343_181, 4_618_777, 7_170_080, 10_303_889,
            15_632_302, 20_391_049, 20_072_657, 20_022_361, 20_051_158, 1_240_078, 1_712_838,
        ];
        for session in [0x1_0000_0007, 0x9_0000_0007] {
            let mut b = Batcher::new(&Params::new(4, 2, session), TIMER);
            let mut acts = Actions::new();
            b.arm(&mut acts);
            for _ in 0..11 {
                let _ = b.tick(TIMER, true, &mut acts);
            }
            b.changed();
            assert!(b.flush());
            for _ in 0..2 {
                let _ = b.tick(TIMER, true, &mut acts);
            }
            assert_eq!(delays(&mut acts), PINNED);
        }
        let mut other = Batcher::new(&Params::new(4, 3, 0x1_0000_0007), TIMER);
        let mut acts = Actions::new();
        other.arm(&mut acts);
        assert_ne!(delays(&mut acts)[0], PINNED[0], "nodes desynchronize");
    }

    /// An ABA-SC body: per instance, one vote entry per round `0..=round`,
    /// undecided ones asking.
    fn aba_body(rounds: &[(u8, u16, bool)]) -> Body {
        use wbft_net::packets::AbaScInst;
        use wbft_net::{BinValues, Bitmap, CoinFlavor, Vote};
        let insts = rounds
            .iter()
            .flat_map(|&(instance, top, decided)| {
                (0..=top).map(move |round| AbaScInst {
                    instance,
                    round,
                    bval: BinValues { zero: false, one: true },
                    aux: Vote::One,
                    decided: if decided { Vote::One } else { Vote::Unknown },
                })
            })
            .collect();
        Body::AbaSc { flavor: CoinFlavor::ThreshSig, insts, coin_shares: vec![], share_nack: Bitmap::new(4) }
    }

    /// `(instance, round)` of every frame `acts` holds; drains it.
    fn places(acts: &mut Actions) -> Vec<(u8, u16)> {
        acts.drain().0.iter().map(|f| f.place().expect("a per-instance frame")).collect()
    }

    #[test]
    fn a_combined_batcher_passes_bodies_through_and_counts_named_evidence_as_a_peer_behind() {
        let mut b = Batcher::new(&Params::new(4, 0, 1), TIMER);
        let mut acts = Actions::new();
        let body = aba_body(&[(0, 3, false)]);
        b.send(body.clone(), &mut acts);
        b.resend(false, body.clone(), &mut acts);
        assert_eq!(acts.drain().0, [body.clone(), body]);
        b.peer_at(0, 0);
        assert_eq!(b.tick(TIMER, true, &mut acts), None, "a peer's round is no evidence");
        b.peer_lacks(0, 0);
        assert_eq!(b.tick(TIMER, true, &mut acts), Some(true));
    }

    #[test]
    fn a_per_instance_flush_sends_news_only_and_no_request() {
        use wbft_net::Bitmap;
        let mut b = Batcher::new(&Params::new(4, 0, 1).packed(Packing::PerInstance), TIMER);
        let mut acts = Actions::new();
        b.send(aba_body(&[(0, 1, false)]), &mut acts);
        assert_eq!(places(&mut acts), [(0, 0), (0, 1)]);
        // Round 2 is news; a decision alone is not.
        b.send(aba_body(&[(0, 2, false)]), &mut acts);
        assert_eq!(places(&mut acts), [(0, 2)]);
        b.send(aba_body(&[(0, 2, true)]), &mut acts);
        assert!(acts.drain().0.is_empty());
        // An RBC entry with nothing but NACK bits is a request: ticks only.
        let d = wbft_crypto::hash::Digest32::of(b"v");
        let er = Body::RbcEchoReady {
            roots: vec![d, d, wbft_crypto::hash::Digest32::zero(), d],
            echo: Bitmap::from_raw(0b0001, 4),
            ready: Bitmap::new(4),
            echo_nack: Bitmap::from_raw(0b0111, 4),
            ready_nack: Bitmap::from_raw(0b0111, 4),
            init_nack: Bitmap::from_raw(0b0010, 4),
        };
        b.send(er.clone(), &mut acts);
        assert!(matches!(acts.drain().0.as_slice(), [Body::BaseRbcEcho { instance: 0, .. }]));
        b.resend(false, er, &mut acts);
        let resent: Vec<_> = acts.drain().0.iter().map(|f| (f.is_request(), f.place())).collect();
        assert_eq!(resent, [(false, Some((0, 0))), (true, Some((1, 0))), (true, Some((2, 0)))]);
    }

    #[test]
    fn a_per_instance_tick_resends_incomplete_and_named_instances_from_their_latest_round() {
        let mut b = Batcher::new(&Params::new(4, 0, 1).packed(Packing::PerInstance), TIMER);
        let mut acts = Actions::new();
        let body = aba_body(&[(0, 3, false), (1, 2, true), (2, 4, true)]);
        // Instance 0 is undecided here: its latest round goes out.
        assert_eq!(b.tick(TIMER, false, &mut acts), Some(false));
        b.resend(false, body.clone(), &mut acts);
        assert_eq!(places(&mut acts), [(0, 3)]);
        // A peer seen at round 1 of instance 0, and one lacking instance 2
        // from round 3: both reach back.
        b.peer_at(0, 1);
        b.peer_lacks(2, 3);
        assert_eq!(b.tick(TIMER, true, &mut acts), Some(false), "a named lack is evidence");
        b.resend(false, body.clone(), &mut acts);
        assert_eq!(places(&mut acts), [(0, 1), (0, 2), (0, 3), (2, 3), (2, 4)]);
        // The evidence was used up; an unnamed peer behind asks for all.
        assert_eq!(b.tick(TIMER, true, &mut acts), None);
        b.peer_behind();
        assert_eq!(b.tick(TIMER, true, &mut acts), Some(true));
        b.resend(true, body, &mut acts);
        assert_eq!(places(&mut acts), [(0, 3), (1, 2), (2, 4)]);
    }
}
