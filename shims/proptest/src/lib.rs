//! Minimal, API-compatible stand-in for the `proptest` crate, vendored
//! because this build environment cannot reach crates.io.
//!
//! Supported surface (exactly what this workspace's tests use):
//!
//! * the [`proptest!`] macro with an optional `#![proptest_config(..)]`
//!   inner attribute;
//! * [`strategy::Strategy`] with `prop_map` / `prop_flat_map`, implemented
//!   for integer ranges (`a..b`, `a..=b`) and tuples of strategies;
//! * [`any::<T>()`](strategy::any) for the primitive integers and `bool`;
//! * [`collection::vec`], [`collection::hash_set`],
//!   [`collection::btree_set`] with `usize`/range size specifications;
//! * [`sample::subsequence`];
//! * [`prop_assert!`] / [`prop_assert_eq!`];
//! * [`test_runner::ProptestConfig`] (`with_cases`, `Default`).
//!
//! Semantics differ from real proptest in two deliberate ways: the RNG is
//! **deterministic** (seeded from the test's module path and case index,
//! so failures reproduce across runs), and there is **no shrinking** — a
//! failing case panics through the ordinary `assert!` machinery.

pub mod test_runner {
    /// Per-run configuration; only `cases` is honoured.
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
            // Real proptest defaults to 256; the shim trades depth for
            // tier-1 wall-clock. Tests that need more ask via with_cases.
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic splitmix64 RNG, seeded per (test, case).
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn for_case(test_path: &str, case: u32) -> Self {
            // FNV-1a over the test path, mixed with the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_path.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng {
                state: h ^ ((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, n)`; `n` must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// A generator of values of type `Self::Value`.
    pub trait Strategy {
        type Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { inner: self, f }
        }
    }

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

    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn sample(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    // All arithmetic goes through i128 so signed ranges wider than half
    // the type (e.g. `-100i8..100`) and the full 64-bit ranges are exact.
    macro_rules! int_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + draw_below(rng, span) as i128) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    (lo as i128 + draw_below(rng, span) as i128) as $t
                }
            }
        )*};
    }

    /// Uniform draw from `[0, span)` where `span` may be up to 2^64 (the
    /// full range of a 64-bit type).
    fn draw_below(rng: &mut TestRng, span: u128) -> u64 {
        if span > u64::MAX as u128 {
            rng.next_u64()
        } else {
            rng.below(span as u64)
        }
    }

    int_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategies {
        ($(($($s:ident.$idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    tuple_strategies! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// `any::<T>()` — every value of `T` is fair game.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    /// A strategy that always yields a clone of one value.
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::{BTreeSet, HashSet};
    use std::hash::Hash;

    /// Inclusive size bounds for a generated collection; built from a
    /// plain `usize`, `a..b` or `a..=b`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl SizeRange {
        fn draw(&self, rng: &mut TestRng) -> usize {
            self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.draw(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `Vec` of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct HashSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for HashSetStrategy<S>
    where
        S::Value: Eq + Hash,
    {
        type Value = HashSet<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let target = self.size.draw(rng);
            let mut out = HashSet::new();
            // Bounded retries: the element domain may be barely larger
            // than the target (or the caller may overshoot); mirroring
            // real proptest's behaviour of giving up quietly would mask
            // bugs, so keep trying hard before settling.
            let mut attempts = 0usize;
            while out.len() < target && attempts < 64 * (target + 1) {
                out.insert(self.element.sample(rng));
                attempts += 1;
            }
            out
        }
    }

    /// `HashSet` of `size` distinct elements drawn from `element`.
    pub fn hash_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S::Value: Eq + Hash,
    {
        HashSetStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.draw(rng);
            let mut out = BTreeSet::new();
            let mut attempts = 0usize;
            while out.len() < target && attempts < 64 * (target + 1) {
                out.insert(self.element.sample(rng));
                attempts += 1;
            }
            out
        }
    }

    /// `BTreeSet` of `size` distinct elements drawn from `element`.
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct Subsequence<T> {
        items: Vec<T>,
        size: usize,
    }

    impl<T: Clone> Strategy for Subsequence<T> {
        type Value = Vec<T>;
        fn sample(&self, rng: &mut TestRng) -> Vec<T> {
            // Partial Fisher–Yates over the index set, then restore
            // source order: a subsequence, not a permutation.
            let n = self.items.len();
            let mut idx: Vec<usize> = (0..n).collect();
            for i in 0..self.size {
                let j = i + rng.below((n - i) as u64) as usize;
                idx.swap(i, j);
            }
            let mut chosen = idx[..self.size].to_vec();
            chosen.sort_unstable();
            chosen.into_iter().map(|i| self.items[i].clone()).collect()
        }
    }

    /// A random subsequence of exactly `size` of `items`, in source order.
    pub fn subsequence<T: Clone>(items: Vec<T>, size: usize) -> Subsequence<T> {
        assert!(size <= items.len(), "subsequence longer than source");
        Subsequence { items, size }
    }
}

pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// The `proptest!` block macro: each contained `fn name(pat in strategy,
/// ...) { body }` becomes a `#[test]`-able function that samples its
/// strategies `cases` times and runs the body per sample.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident ( $($arg:pat in $strat:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::test_runner::ProptestConfig = $cfg;
                for __case in 0..__cfg.cases {
                    let mut __rng = $crate::test_runner::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                    );
                    $(
                        let $arg = $crate::strategy::Strategy::sample(
                            &($strat),
                            &mut __rng,
                        );
                    )*
                    $body
                }
            }
        )*
    };
}
