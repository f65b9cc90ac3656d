//! Vendored property-testing shim.
//!
//! The build environment for this workspace has no network access to
//! crates.io, so the real `proptest` crate cannot be resolved. This crate
//! provides the *subset* of proptest's API that the workspace's property
//! tests actually use, with identical spellings, so the test files compile
//! unchanged:
//!
//! * `proptest! { #[test] fn name(pat in strategy, ...) { body } }`
//! * `prop_assert!`, `prop_assert_eq!`, `prop_assume!`
//! * `any::<T>()` for primitive `T`
//! * numeric `Range` strategies (`0.0f64..1e6`, `1u64..20`, ...)
//! * tuple strategies up to arity 7
//! * `prop::collection::vec(strategy, sizes)`
//! * `prop::bool::ANY`
//! * `prop::sample::Index` (deferred collection indexing)
//! * `Strategy::prop_map`, `Just`, unweighted `prop_oneof!`
//!
//! Differences from real proptest: failing inputs are **not shrunk** (the
//! failing case index and seed are printed instead, and `PROPTEST_SEED`
//! replays a specific case), and the default case count is 64 (override
//! with `PROPTEST_CASES`). Generation is fully deterministic per test name,
//! so CI failures reproduce locally.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Deterministic generator handed to strategies (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

const GOLDEN: u64 = 0x9e3779b97f4a7c15;

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl TestRng {
    /// Creates a generator for one test case.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix64(self.state)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift; the tiny bias is irrelevant for test generation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// A value generator. The shim generates; it does not shrink.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Produces one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f` (as in proptest).
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, T, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + (self.end - self.start) * rng.next_f64()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty integer range strategy");
                let width = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(width) as i128) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[expect(non_snake_case, reason = "the type parameters name the bindings")]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// The strategy `any::<Self>()` returns.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}
impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}
impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}
impl Arbitrary for i32 {
    fn arbitrary(rng: &mut TestRng) -> i32 {
        rng.next_u64() as i32
    }
}
impl Arbitrary for i64 {
    fn arbitrary(rng: &mut TestRng) -> i64 {
        rng.next_u64() as i64
    }
}
impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> usize {
        rng.next_u64() as usize
    }
}
impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite values only: tests feeding `any::<f64>()` into simulators
        // do not want NaN/inf surprises (proptest's default is similar).
        rng.next_f64() * 2e6 - 1e6
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()`: the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: std::marker::PhantomData,
    }
}

/// A strategy that always produces a clone of one value (proptest's
/// `Just`).
#[derive(Debug, Clone, Copy)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// Uniform choice among same-valued strategies; the expansion of
/// [`prop_oneof!`].
pub struct Union<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// Creates a union over `options`, which must be non-empty.
    pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!options.is_empty(), "empty prop_oneof!");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

/// Uniform choice among strategies producing the same value type
/// (proptest's `prop_oneof!`, without the weighted form).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$(Box::new($strat) as Box<dyn $crate::Strategy<Value = _>>),+])
    };
}

/// Size specification for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    /// Exclusive upper bound (clamped to at least `min + 1`).
    max_excl: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        SizeRange {
            min: r.start,
            max_excl: r.end.max(r.start + 1),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            min: n,
            max_excl: n + 1,
        }
    }
}

/// Proptest-style namespace (`prop::collection::vec`, `prop::bool::ANY`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{SizeRange, Strategy, TestRng};

        /// Strategy for `Vec<S::Value>` with a size drawn from `sizes`.
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            sizes: SizeRange,
        }

        /// `prop::collection::vec(element, sizes)`.
        pub fn vec<S: Strategy>(element: S, sizes: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                sizes: sizes.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.sizes.max_excl - self.sizes.min) as u64;
                let len = self.sizes.min
                    + if span == 0 {
                        0
                    } else {
                        rng.below(span) as usize
                    };
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Sampling strategies (`prop::sample::Index`).
    pub mod sample {
        use super::super::{Arbitrary, TestRng};

        /// A deferred index into a collection whose length is unknown at
        /// generation time: `any::<Index>()` draws raw randomness, and
        /// [`Index::index`] projects it onto a concrete length later.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct Index(usize);

        impl Index {
            /// Maps this index onto a collection of length `len`
            /// (which must be positive).
            pub fn index(&self, len: usize) -> usize {
                assert!(len > 0, "cannot index an empty collection");
                self.0 % len
            }
        }

        impl Arbitrary for Index {
            fn arbitrary(rng: &mut TestRng) -> Index {
                Index(rng.next_u64() as usize)
            }
        }
    }

    /// Boolean strategies.
    pub mod bool {
        use super::super::{Strategy, TestRng};

        /// The strategy behind `prop::bool::ANY`.
        #[derive(Debug, Clone, Copy)]
        pub struct AnyBool;

        impl Strategy for AnyBool {
            type Value = bool;
            fn generate(&self, rng: &mut TestRng) -> bool {
                rng.next_u64() & 1 == 1
            }
        }

        /// Uniform `true`/`false`.
        pub const ANY: AnyBool = AnyBool;
    }
}

/// Per-block configuration, set via
/// `proptest! { #![proptest_config(ProptestConfig::with_cases(64))] … }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u64,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per test.
    pub fn with_cases(cases: u64) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Drives the generated test body over many generated cases.
///
/// Deterministic: the case seeds depend only on the test name (and
/// `PROPTEST_SEED`, if set, replays exactly one case with that seed).
pub fn run_cases<F: FnMut(&mut TestRng)>(name: &str, f: F) {
    run_cases_config(name, ProptestConfig::default(), f);
}

/// [`run_cases`] with an explicit configuration. The `PROPTEST_CASES`
/// environment variable still overrides the configured case count.
pub fn run_cases_config<F: FnMut(&mut TestRng)>(name: &str, config: ProptestConfig, mut f: F) {
    if let Some(seed) = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    {
        let mut rng = TestRng::new(seed);
        f(&mut rng);
        return;
    }
    let cases: u64 = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(config.cases);
    let base = name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    });
    for case in 0..cases {
        let seed = mix64(base.wrapping_add(case.wrapping_mul(GOLDEN)));
        let mut rng = TestRng::new(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(payload) = outcome {
            eprintln!(
                "proptest shim: `{name}` failed on case {case} \
                 (replay with PROPTEST_SEED={seed})"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Defines property tests: `proptest! { #[test] fn f(x in strat) { .. } }`.
///
/// An optional leading `#![proptest_config(expr)]` sets the
/// [`ProptestConfig`] for every test in the block.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_cases_config(stringify!($name), $cfg, |__shim_rng| {
                    $(let $pat = $crate::Strategy::generate(&($strat), __shim_rng);)*
                    $body
                });
            }
        )*
    };
    ($($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_cases(stringify!($name), |__shim_rng| {
                    $(let $pat = $crate::Strategy::generate(&($strat), __shim_rng);)*
                    $body
                });
            }
        )*
    };
}

/// Proptest-compatible assertion (panics; no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Proptest-compatible equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Skips the current case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, Union,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_per_name() {
        let mut a = super::TestRng::new(42);
        let mut b = super::TestRng::new(42);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = super::TestRng::new(7);
        for _ in 0..1000 {
            let x = (5u64..17).generate(&mut rng);
            assert!((5..17).contains(&x));
            let y = (-3i32..4).generate(&mut rng);
            assert!((-3..4).contains(&y));
            let z = (0.5f64..2.0).generate(&mut rng);
            assert!((0.5..2.0).contains(&z));
        }
    }

    #[test]
    fn full_u64_range_does_not_overflow() {
        let mut rng = super::TestRng::new(9);
        for _ in 0..100 {
            let x = (1u64..u64::MAX).generate(&mut rng);
            assert!((1..u64::MAX).contains(&x));
        }
    }

    #[test]
    fn vec_sizes_in_range() {
        let mut rng = super::TestRng::new(11);
        for _ in 0..200 {
            let v = prop::collection::vec(0.0f64..1.0, 2..9).generate(&mut rng);
            assert!((2..9).contains(&v.len()));
        }
        let exact = prop::collection::vec(any::<u64>(), 6).generate(&mut rng);
        assert_eq!(exact.len(), 6);
    }

    #[test]
    fn prop_map_applies() {
        let mut rng = super::TestRng::new(13);
        let s = (0u32..10).prop_map(|x| x * 2);
        for _ in 0..100 {
            assert_eq!(s.generate(&mut rng) % 2, 0);
        }
    }

    proptest! {
        /// The macro itself compiles and runs bodies with assumptions.
        #[test]
        fn macro_smoke(x in 0u64..100, mut v in prop::collection::vec(any::<bool>(), 0..5)) {
            prop_assume!(x != 99);
            v.push(true);
            prop_assert!(x < 99);
            prop_assert_eq!(v.last(), Some(&true));
        }

        /// `prop_oneof!` mixes its arms; `Just` is constant; `Index`
        /// projects into arbitrary lengths.
        #[test]
        fn oneof_just_index_smoke(
            ops in prop::collection::vec(
                prop_oneof![(1u8..4).prop_map(i32::from), Just(-1i32)],
                1..50,
            ),
            idx in any::<prop::sample::Index>(),
        ) {
            for &op in &ops {
                prop_assert!(op == -1 || (1..4).contains(&op));
            }
            prop_assert!(idx.index(ops.len()) < ops.len());
        }
    }
}
