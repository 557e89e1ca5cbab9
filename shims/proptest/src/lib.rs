//! Offline stand-in for `proptest`.
//!
//! Implements the subset this workspace's property tests use: the
//! [`proptest!`] macro, [`Strategy`] with `prop_map`, `any::<T>()`,
//! integer-range and tuple strategies, [`collection::vec`],
//! [`prop_oneof!`], `prop_assert*` / `prop_assume!`, and
//! [`ProptestConfig::with_cases`] (overridable via the `PROPTEST_CASES`
//! environment variable).
//!
//! Differences from real proptest, deliberately accepted:
//! * no shrinking — a failing case reports its inputs and seed, unshrunk;
//! * case generation is a fixed deterministic schedule per test name, so
//!   failures always reproduce (print `PROPTEST_CASES`-independent seeds).

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// Error signalling inside a generated test case.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` failed — the case is discarded, not a failure.
    Reject,
    /// `prop_assert*` failed.
    Fail(String),
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
    pub fn reject() -> Self {
        TestCaseError::Reject
    }
}

/// Runner configuration (`#![proptest_config(...)]`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of values. Unlike real proptest there is no value tree:
/// `new_value` produces the final value directly.
pub trait Strategy {
    type Value;

    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    fn prop_filter<F>(self, _whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { inner: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(std::rc::Rc::new(move |rng: &mut TestRng| self.new_value(rng)))
    }
}

/// Boxed strategy (object-safe form).
#[derive(Clone)]
pub struct BoxedStrategy<T>(std::rc::Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn new_value(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.new_value(rng))
    }
}

/// Output of [`Strategy::prop_filter`]. Rejection loops (bounded) instead of
/// discarding the whole case.
pub struct Filter<S, F> {
    inner: S,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn new_value(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.new_value(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected 1000 consecutive samples");
    }
}

/// Always yields a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// An erased strategy arm inside a [`Union`].
type ArmFn<T> = Box<dyn Fn(&mut TestRng) -> T>;

/// Uniform choice between strategies of a common value type; built by
/// [`prop_oneof!`].
pub struct Union<T> {
    arms: Vec<ArmFn<T>>,
}

impl<T> Union<T> {
    #[expect(clippy::new_without_default, reason = "mirrors upstream proptest's API")]
    pub fn new() -> Self {
        Union { arms: Vec::new() }
    }

    pub fn arm(mut self, s: impl Strategy<Value = T> + 'static) -> Self {
        self.arms.push(Box::new(move |rng| s.new_value(rng)));
        self
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        assert!(!self.arms.is_empty(), "prop_oneof! needs at least one arm");
        let i = (rng.next_u64() % self.arms.len() as u64) as usize;
        (self.arms[i])(rng)
    }
}

/// Types with a canonical strategy, for `any::<T>()`.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.next_u64() as u128) << 64 | rng.next_u64() as u128
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Finite, roughly unit-interval values; enough for probabilities.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut TestRng) -> Self {
        core::array::from_fn(|_| T::arbitrary(rng))
    }
}

impl<T: Arbitrary> Arbitrary for Vec<T> {
    fn arbitrary(rng: &mut TestRng) -> Self {
        let len = (rng.next_u64() % 65) as usize;
        (0..len).map(|_| T::arbitrary(rng)).collect()
    }
}

impl Arbitrary for String {
    fn arbitrary(rng: &mut TestRng) -> Self {
        let len = (rng.next_u64() % 33) as usize;
        (0..len)
            .map(|_| char::from_u32(0x20 + (rng.next_u64() % 0x5f) as u32).unwrap())
            .collect()
    }
}

// Integer ranges are strategies.
macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (start as i128 + v as i128) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// Tuples of strategies are strategies over tuples of values.
macro_rules! impl_tuple_strategy {
    ($($S:ident),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            #[expect(
                non_snake_case,
                reason = "binds each strategy under its type parameter's name"
            )]
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let ($($S,)+) = self;
                ($($S.new_value(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(S1);
impl_tuple_strategy!(S1, S2);
impl_tuple_strategy!(S1, S2, S3);
impl_tuple_strategy!(S1, S2, S3, S4);
impl_tuple_strategy!(S1, S2, S3, S4, S5);
impl_tuple_strategy!(S1, S2, S3, S4, S5, S6);
impl_tuple_strategy!(S1, S2, S3, S4, S5, S6, S7);
impl_tuple_strategy!(S1, S2, S3, S4, S5, S6, S7, S8);

pub mod collection {
    use super::{Strategy, TestRng};
    use rand::RngCore;

    /// Length specification for [`vec`]: a fixed length or a range.
    pub trait IntoLen {
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoLen for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoLen for core::ops::Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty vec length range");
            self.start + (rng.next_u64() as usize % (self.end - self.start))
        }
    }

    impl IntoLen for core::ops::RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            self.start() + (rng.next_u64() as usize % (self.end() - self.start() + 1))
        }
    }

    impl<S: Strategy, L: IntoLen> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.len.sample_len(rng);
            (0..len).map(|_| self.elem.new_value(rng)).collect()
        }
    }

    /// Strategy for vectors of `elem`-generated values.
    pub struct VecStrategy<S, L> {
        elem: S,
        len: L,
    }

    /// `proptest::collection::vec(strategy, len_or_range)`.
    pub fn vec<S: Strategy, L: IntoLen>(elem: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { elem, len }
    }
}

/// Drives one generated test; used by the [`proptest!`] expansion.
pub fn run_cases<F>(test_name: &str, config: ProptestConfig, body: F)
where
    F: Fn(&mut TestRng) -> Result<(), TestCaseError>,
{
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(config.cases)
        .max(1);
    // Stable per-test seed: same schedule on every run and every machine.
    let mut name_hash = 0xcbf2_9ce4_8422_2325u64;
    for b in test_name.bytes() {
        name_hash ^= b as u64;
        name_hash = name_hash.wrapping_mul(0x1000_0000_01b3);
    }
    let mut passed = 0u32;
    let mut rejected = 0u32;
    let max_rejects = cases.saturating_mul(16).max(1024);
    let mut case_index = 0u64;
    while passed < cases {
        let seed = name_hash ^ case_index;
        case_index += 1;
        let mut rng = TestRng::seed_from_u64(seed);
        match body(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                if rejected > max_rejects {
                    panic!(
                        "{test_name}: too many prop_assume! rejections \
                         ({rejected} rejects for {passed}/{cases} accepted cases)"
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "{test_name}: property failed at case #{} (seed {seed:#x}):\n{msg}",
                    passed + 1
                );
            }
        }
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "{} at {}:{}",
                format!($($fmt)*),
                file!(),
                line!()
            )));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)*),
            l,
            r
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::reject());
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new()$(.arm($arm))+
    };
}

#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_items! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = ($cfg:expr);) => {};
    (
        config = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::run_cases(stringify!($name), $cfg, |__proptest_rng| {
                $(let $pat = $crate::Strategy::new_value(&($strat), __proptest_rng);)+
                $body
                ::core::result::Result::Ok(())
            });
        }
        $crate::__proptest_items! { config = ($cfg); $($rest)* }
    };
}

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
    /// `prop::collection::...` paths used in some idioms.
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn addition_commutes(a in any::<u32>(), b in any::<u32>()) {
            prop_assert_eq!(a as u64 + b as u64, b as u64 + a as u64);
        }

        #[test]
        fn ranges_in_bounds(x in 3u8..9, v in crate::collection::vec(0usize..5, 0..7)) {
            prop_assert!((3..9).contains(&x));
            prop_assert!(v.len() < 7);
            for e in v {
                prop_assert!(e < 5);
            }
        }

        #[test]
        fn oneof_and_map(y in prop_oneof![(0u8..1).prop_map(|_| 10u8), (0u8..1).prop_map(|_| 20u8)]) {
            prop_assert!(y == 10 || y == 20);
        }

        #[test]
        fn assume_discards(n in any::<u8>()) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failures_panic() {
        crate::run_cases("failures_panic", ProptestConfig::with_cases(4), |rng| {
            let v = crate::Strategy::new_value(&(0u8..3), rng);
            crate::prop_assert!(v > 200, "deliberately false, v={}", v);
            Ok(())
        });
    }
}
