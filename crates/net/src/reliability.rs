//! NACK-driven reliability policy (paper §IV-B1).
//!
//! The paper chooses NACK over ACK because (1) quorum-driven consensus
//! advances on receiving enough votes, with no need for per-message sender
//! confirmation, and (2) a one-to-many broadcast under ACK would cost `N+1`
//! frames where NACK costs one. Concretely, every batched component
//! rebroadcasts its current combined packet on a jittered timer until the
//! component completes; peers whose packets carry set NACK bits trigger an
//! immediate (well, next-timer) refresh, because the combined packet
//! carries everything of the node's state some peer can still use. Votes
//! and fragments ride in full; a threshold share rides until this node holds
//! its instance's certificate, and a certificate while some peer's latest
//! NACK has not shown that the peer holds it — a peer that NACKs it again
//! gets it back.

use wbft_wireless::SimDuration;
use rand::Rng;

/// Retransmission timing for a component's combined packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetransmitPolicy {
    /// Base interval between rebroadcasts while incomplete.
    pub interval: SimDuration,
    /// Uniform jitter added on top (desynchronizes periodic senders).
    pub jitter: SimDuration,
    /// Multiplier applied after each idle rebroadcast (gentle backoff so a
    /// stalled component doesn't saturate the channel); 16ths, i.e. 16 = 1.0.
    pub backoff_16ths: u16,
    /// Upper bound on the interval after backoff.
    pub max_interval: SimDuration,
}

impl RetransmitPolicy {
    /// Defaults matched to LoRa frame times: first retransmit after roughly
    /// two frame airtimes, backing off 1.5× to a 20 s cap.
    pub fn lora_class() -> Self {
        RetransmitPolicy {
            interval: SimDuration::from_millis(900),
            jitter: SimDuration::from_millis(400),
            backoff_16ths: 24, // 1.5×
            max_interval: SimDuration::from_secs(20),
        }
    }

    /// The delay before retransmission attempt `attempt` (0-based).
    pub fn delay(&self, attempt: u32, rng: &mut impl Rng) -> SimDuration {
        let mut base = self.interval.as_micros() as f64;
        let factor = self.backoff_16ths as f64 / 16.0;
        for _ in 0..attempt.min(16) {
            base *= factor;
        }
        #[expect(clippy::cast_possible_truncation, reason = "a float-to-int `as` saturates")]
        let base = (base as u64).min(self.max_interval.as_micros());
        let jitter = if self.jitter.as_micros() > 0 {
            rng.random_range(0..self.jitter.as_micros())
        } else {
            0
        };
        SimDuration::from_micros(base + jitter)
    }
}

impl Default for RetransmitPolicy {
    fn default() -> Self {
        Self::lora_class()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn delays_grow_with_attempts() {
        let p = RetransmitPolicy::lora_class();
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
        let d0 = p.delay(0, &mut rng);
        let d5 = p.delay(5, &mut rng);
        assert!(d5 > d0, "{d0:?} vs {d5:?}");
    }

    #[test]
    fn delays_are_capped() {
        let p = RetransmitPolicy::lora_class();
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(2);
        let d = p.delay(100, &mut rng);
        assert!(d <= p.max_interval + p.jitter);
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let p = RetransmitPolicy {
            jitter: SimDuration::ZERO,
            ..RetransmitPolicy::lora_class()
        };
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(3);
        assert_eq!(p.delay(2, &mut rng), p.delay(2, &mut rng));
    }
}
