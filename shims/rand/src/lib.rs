//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! this API-compatible subset of rand 0.9: the [`RngCore`] / [`Rng`] /
//! [`SeedableRng`] traits, a ChaCha-backed [`rngs::StdRng`], and
//! [`seq::SliceRandom`]. Streams are deterministic and self-consistent but
//! are **not** bit-compatible with upstream rand; all determinism tests in
//! this workspace compare runs against each other, never against external
//! vectors, so that is sufficient.

pub mod chacha;

/// Low-level uniform bit generator.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Types that can serve as the uniform-sampling output of [`Rng::random_range`].
pub trait SampleUniform: Sized {}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => { $(impl SampleUniform for $t {})* };
}
impl_sample_uniform!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

/// Ranges acceptable to [`Rng::random_range`].
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let v = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span;
                (start as i128 + v as i128) as $t
            }
        }
    )*};
}
impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    fn random_range<T, Rg>(&mut self, range: Rg) -> T
    where
        T: SampleUniform,
        Rg: SampleRange<T>,
    {
        range.sample_single(self)
    }

    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} out of range");
        // 53 uniform mantissa bits, the usual open-interval construction.
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    fn random<T: Random>(&mut self) -> T {
        T::random(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Helper for [`Rng::random`].
pub trait Random: Sized {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_random_int {
    ($($t:ty),*) => {$(
        impl Random for $t {
            fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_random_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Random for bool {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Deterministic construction from a seed.
pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = crate::chacha::SplitMix64::new(state);
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = sm.next().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Self::from_seed(seed)
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic RNG (ChaCha12-backed).
    #[derive(Clone, Debug)]
    pub struct StdRng(crate::chacha::ChaChaCore<12>);

    impl RngCore for StdRng {
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

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];
        fn from_seed(seed: Self::Seed) -> Self {
            StdRng(crate::chacha::ChaChaCore::from_seed(seed))
        }
    }
}

pub mod seq {
    use super::{Rng, RngCore};

    /// Slice shuffling / choosing, as in `rand::seq`.
    pub trait SliceRandom {
        type Item;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            // Fisher–Yates.
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                let i = (rng.next_u64() % self.len() as u64) as usize;
                self.get(i)
            }
        }
    }

    impl<T> SliceRandom for Vec<T> {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            self.as_mut_slice().shuffle(rng)
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            self.as_slice().choose(rng)
        }
    }

    // Silence "unused import" if only one of Rng/RngCore ends up used here.
    const _: fn(&mut dyn RngCore) = |_| {};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_across_constructions() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn range_sampling_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v: u64 = rng.random_range(10..20);
            assert!((10..20).contains(&v));
            let w: i32 = rng.random_range(-5..=5);
            assert!((-5..=5).contains(&w));
        }
    }

    #[test]
    fn bool_probability_extremes() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(!(0..100).any(|_| rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fill_bytes_streams_consistently() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let mut buf = [0u8; 37];
        a.fill_bytes(&mut buf);
        let mut expect = [0u8; 37];
        b.fill_bytes(&mut expect[..16]);
        b.fill_bytes(&mut expect[16..]);
        assert_eq!(buf, expect);
    }
}
