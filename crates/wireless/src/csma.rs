//! CSMA/CA medium-access parameters.
//!
//! TDMA needs a synchronized schedule and is therefore unusable under the
//! asynchronous model (paper §IV-A); carrier-sense multiple access is "the
//! only option". The simulator implements listen-before-talk with a random
//! backoff drawn uniformly from a fixed contention window: broadcast frames
//! carry no MAC-level acknowledgement, so there is no binary exponential
//! backoff — loss recovery belongs to the NACK layer above.

use crate::time::SimDuration;
use rand::Rng;

/// Medium-access parameters shared by all nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CsmaParams {
    /// Idle period sensed before the backoff countdown starts.
    pub difs_us: u64,
    /// Width of one backoff slot.
    pub slot_us: u64,
    /// Number of slots in the contention window; backoff is drawn uniformly
    /// from `0..cw_slots`.
    pub cw_slots: u32,
}

impl CsmaParams {
    /// Defaults tuned for the LoRa-class radio: slots comparable to a
    /// channel-activity-detection period.
    pub fn lora_class() -> Self {
        CsmaParams { difs_us: 4_000, slot_us: 1_500, cw_slots: 16 }
    }

    /// Draws a full contention delay (DIFS + random backoff).
    pub fn draw_backoff(&self, rng: &mut impl Rng) -> SimDuration {
        let slots = rng.random_range(0..self.cw_slots) as u64;
        SimDuration::from_micros(self.difs_us + slots * self.slot_us)
    }

    /// The largest possible contention delay.
    pub fn max_backoff(&self) -> SimDuration {
        SimDuration::from_micros(self.difs_us + (self.cw_slots as u64 - 1) * self.slot_us)
    }
}

impl Default for CsmaParams {
    fn default() -> Self {
        Self::lora_class()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn backoff_within_bounds() {
        let p = CsmaParams::lora_class();
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
        for _ in 0..200 {
            let b = p.draw_backoff(&mut rng);
            assert!(b.as_micros() >= p.difs_us);
            assert!(b <= p.max_backoff());
        }
    }

    #[test]
    fn backoff_varies() {
        let p = CsmaParams::lora_class();
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(2);
        let draws: Vec<_> = (0..32).map(|_| p.draw_backoff(&mut rng)).collect();
        assert!(draws.iter().any(|d| *d != draws[0]), "all backoffs equal: {draws:?}");
    }

    #[test]
    fn backoff_is_deterministic_under_seed() {
        let p = CsmaParams::lora_class();
        let mut a = rand_chacha::ChaCha12Rng::seed_from_u64(3);
        let mut b = rand_chacha::ChaCha12Rng::seed_from_u64(3);
        for _ in 0..50 {
            assert_eq!(p.draw_backoff(&mut a), p.draw_backoff(&mut b));
        }
    }
}
