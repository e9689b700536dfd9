//! Offline stand-in for `proptest`.
//!
//! Supports the subset this workspace's property tests use: the
//! [`proptest!`] macro with `arg in strategy` bindings, range strategies
//! over `f64`/integers, tuple strategies (2–4 components),
//! [`collection::vec`], [`prelude::Just`], [`prop_oneof!`],
//! `.prop_map(..)` and the `prop_assert*` macros.
//!
//! Unlike upstream there is no shrinking: a failing case panics with the
//! deterministic case seed in the standard assertion message, and cases are
//! reproducible because the per-case RNG is derived from the test name and
//! case index (no global entropy). Case count defaults to 96 and can be
//! raised via `PROPTEST_CASES`.

use std::ops::Range;

/// Per-case RNG handed to strategies: xoshiro256** seeded through
/// SplitMix64. It is a private copy of the generator in `faction-linalg`'s
/// `rng` module rather than a dependency on it, because linalg's own
/// property tests must not draw their inputs from the code they test.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Derives the deterministic RNG for `(test name, case index)`.
    pub fn for_case(test_name: &str, case: u32) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut state = h ^ (u64::from(case) << 32 | 0x5eed);
        let mut splitmix64 = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng { s: [splitmix64(), splitmix64(), splitmix64(), splitmix64()] }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw below `n`, unbiased by rejecting words in the
    /// incomplete top block of `u64`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }
}

/// Number of cases each `proptest!` test runs (default 96, override with
/// `PROPTEST_CASES`).
pub fn case_count() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(96)
}

/// Value-generation strategies.
pub mod strategy {
    use super::TestRng;
    use std::ops::Range;

    /// A source of random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Constant strategy: always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy produced by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Uniform choice among boxed strategies (backs [`crate::prop_oneof!`]).
    pub struct Union<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        /// Builds a union from at least one option.
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].sample(rng)
        }
    }

    /// Boxes a strategy for storage in a [`Union`].
    pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(s)
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty f64 range strategy");
            self.start + (self.end - self.start) * rng.unit_f64()
        }
    }

    macro_rules! impl_int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty integer range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
        )*};
    }

    impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    // Like upstream, a tuple of strategies is a strategy for tuples;
    // components are sampled left to right.
    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+)),*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy!(
        (A.0, B.1),
        (A.0, B.1, C.2),
        (A.0, B.1, C.2, D.3)
    );

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    /// Types with a canonical whole-domain strategy (see [`super::any`]).
    pub trait Arbitrary: Sized {
        /// The canonical strategy type.
        type Strategy: Strategy<Value = Self>;

        /// Builds the canonical strategy.
        fn arbitrary() -> Self::Strategy;
    }

    /// Fair coin strategy backing `any::<bool>()`.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.below(2) == 1
        }
    }

    impl Arbitrary for bool {
        type Strategy = AnyBool;
        fn arbitrary() -> AnyBool {
            AnyBool
        }
    }
}

/// Canonical whole-domain strategy for `T`, e.g. `any::<bool>()`.
pub fn any<T: strategy::Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::Range;

    /// Length specification for [`vec()`]: an exact length or a range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    /// Strategy for `Vec<T>` with element strategy `S`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy: `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.hi - self.size.lo <= 1 {
                self.size.lo
            } else {
                self.size.lo + rng.below((self.size.hi - self.size.lo) as u64) as usize
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// One-stop imports mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{boxed, Arbitrary, Just, Map, Strategy, Union};
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        TestRng,
    };
}

pub use strategy::Strategy;

/// Uniform strategy over a fixed default range, for API familiarity.
pub fn any_f64() -> Range<f64> {
    -1e6..1e6
}

/// Defines property tests: each `#[test] fn name(arg in strategy, ..) {..}`
/// becomes a standard test running [`case_count`] deterministic cases.
/// Bindings are irrefutable patterns, so tuple strategies can be
/// destructured in place: `fn t((a, b) in (0u8..4, 0u8..4)) {..}`.
#[macro_export]
macro_rules! proptest {
    ($( $(#[$meta:meta])+ fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block )*) => {
        $(
            $(#[$meta])+
            fn $name() {
                let cases = $crate::case_count();
                for case__ in 0..cases {
                    let mut rng__ = $crate::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        case__,
                    );
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng__);)+
                    $body
                }
            }
        )*
    };
}

/// Asserts a condition inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when its precondition does not hold. The stand-in
/// has no case regeneration, so a rejected case is simply not checked.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !($cond) {
            continue;
        }
    };
}

/// Uniformly picks among the listed strategies (all yielding one type).
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($s)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in -5.0..5.0f64, n in 3usize..10) {
            prop_assert!((-5.0..5.0).contains(&x));
            prop_assert!((3..10).contains(&n));
        }

        #[test]
        fn vec_strategy_len(xs in collection::vec(0.0..1.0f64, 2..6)) {
            prop_assert!(xs.len() >= 2 && xs.len() < 6);
            prop_assert!(xs.iter().all(|v| (0.0..1.0).contains(v)));
        }

        #[test]
        fn oneof_and_map(s in prop_oneof![Just(1i8), Just(-1i8)], y in (0u64..4).prop_map(|v| v * 2)) {
            prop_assert!(s == 1 || s == -1);
            prop_assert!(y % 2 == 0 && y < 8);
        }

        #[test]
        fn tuple_strategy((a, b, c) in (0u8..4, -1.0..1.0f64, collection::vec(0u32..7, 1..3))) {
            prop_assert!(a < 4);
            prop_assert!((-1.0..1.0).contains(&b));
            prop_assert!(!c.is_empty() && c.iter().all(|&v| v < 7));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = TestRng::for_case("t", 3);
        let mut b = TestRng::for_case("t", 3);
        assert_eq!(a.unit_f64().to_bits(), b.unit_f64().to_bits());
        let mut c = TestRng::for_case("t", 4);
        assert_ne!(a.unit_f64().to_bits(), c.unit_f64().to_bits());
    }

    /// Known answers: the first `below(10)` and `unit_f64` draws of case 3
    /// of test "t". Every property suite draws its cases from this
    /// generator, so a change here silently changes every suite's cases.
    #[test]
    fn known_answers_for_a_case() {
        let mut rng = TestRng::for_case("t", 3);
        assert_eq!(rng.below(10), 2);
        assert_eq!(rng.unit_f64().to_bits(), 0x3fc4618a0ea22e60);
        let mut rng = TestRng::for_case("t", 3);
        assert_eq!(rng.unit_f64().to_bits(), 0x3fc4a2e06468f89c);
    }
}
