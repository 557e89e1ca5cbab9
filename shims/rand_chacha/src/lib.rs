//! Offline stand-in for the `rand_chacha` crate: a ChaCha12 RNG over the
//! shared ChaCha core in the `rand` shim. Deterministic and self-consistent;
//! not bit-compatible with upstream `rand_chacha` (nothing in this workspace
//! relies on upstream streams).

use rand::chacha::ChaChaCore;
use rand::{RngCore, SeedableRng};

/// ChaCha with 12 rounds.
#[derive(Clone, Debug)]
pub struct ChaCha12Rng(ChaChaCore<12>);

impl RngCore for ChaCha12Rng {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }
}

impl SeedableRng for ChaCha12Rng {
    type Seed = [u8; 32];
    fn from_seed(seed: Self::Seed) -> Self {
        ChaCha12Rng(ChaChaCore::from_seed(seed))
    }
}

/// ChaCha with 8 rounds.
#[derive(Clone, Debug)]
pub struct ChaCha8Rng(ChaChaCore<8>);

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];
    fn from_seed(seed: Self::Seed) -> Self {
        ChaCha8Rng(ChaChaCore::from_seed(seed))
    }
}

/// ChaCha with 20 rounds.
#[derive(Clone, Debug)]
pub struct ChaCha20Rng(ChaChaCore<20>);

impl RngCore for ChaCha20Rng {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }
}

impl SeedableRng for ChaCha20Rng {
    type Seed = [u8; 32];
    fn from_seed(seed: Self::Seed) -> Self {
        ChaCha20Rng(ChaChaCore::from_seed(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_from_u64_is_deterministic() {
        let mut a = ChaCha12Rng::seed_from_u64(42);
        let mut b = ChaCha12Rng::seed_from_u64(42);
        for _ in 0..32 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn round_counts_give_distinct_streams() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha12Rng::seed_from_u64(1);
        let mut c = ChaCha20Rng::seed_from_u64(1);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert!(x != y && y != z && x != z);
    }
}
