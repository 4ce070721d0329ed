//! Std-only offline shim for the subset of `proptest` this workspace
//! uses: the `proptest!` macro, integer-range and tuple strategies,
//! `prop_map`, `collection::vec`, and the `prop_assert*` macros.
//!
//! Unlike upstream there is no shrinking — a failing case fails the test
//! with its seed-derived inputs printed by the assertion itself.  Cases
//! are generated from a fixed per-test seed, so failures reproduce
//! deterministically across runs.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "stands in for an upstream crate; the workspace determinism bans do not apply to it"
)]

/// Deterministic generator handed to strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// A value generator.
pub trait Strategy {
    /// Generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// `Just(v)`: always generates a clone of `v`.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + ((rng.next_u64() as u128) % span) as i128) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                (lo as i128 + ((rng.next_u64() as u128) % span) as i128) as $t
            }
        }
    )*};
}

impl_int_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy!(
    (S0.0)(S0.0, S1.1)(S0.0, S1.1, S2.2)(S0.0, S1.1, S2.2, S3.3)(S0.0, S1.1, S2.2, S3.3, S4.4)(
        S0.0, S1.1, S2.2, S3.3, S4.4, S5.5
    )
);

/// String strategies: upstream proptest treats `&str` as a regex to
/// generate matches of.  The shim supports the one shape the workspace
/// uses — a single character class with a bounded repetition,
/// `"[class]{lo,hi}"` — and rejects anything else loudly.
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let (chars, lo, hi) = parse_class_repeat(self)
            .unwrap_or_else(|| panic!("unsupported string strategy pattern {self:?}"));
        let len = lo + (rng.next_u64() as usize) % (hi - lo + 1);
        (0..len)
            .map(|_| chars[(rng.next_u64() as usize) % chars.len()])
            .collect()
    }
}

/// Parses `[class]{lo,hi}` into (member chars, lo, hi).
fn parse_class_repeat(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pattern.strip_prefix('[')?;
    let (class, rest) = rest.split_once(']')?;
    let bounds = rest.strip_prefix('{')?.strip_suffix('}')?;
    let (lo, hi) = bounds.split_once(',')?;
    let (lo, hi) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
    if lo > hi {
        return None;
    }
    let mut members = Vec::new();
    let mut chars = class.chars().peekable();
    while let Some(c) = chars.next() {
        let c = if c == '\\' {
            match chars.next()? {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                other => other,
            }
        } else {
            c
        };
        if chars.peek() == Some(&'-') && chars.clone().nth(1).is_some() {
            chars.next();
            let end = chars.next()?;
            for v in (c as u32)..=(end as u32) {
                members.push(char::from_u32(v)?);
            }
        } else {
            members.push(c);
        }
    }
    if members.is_empty() {
        return None;
    }
    Some((members, lo, hi))
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Vectors of `element` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// Output of [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.clone().generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// `use proptest::prelude::*` compatibility.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{Just, ProptestConfig, Strategy, TestRng};
}

/// Defines seeded random-case tests.
///
/// Supports the forms this workspace uses: an optional leading
/// `#![proptest_config(expr)]`, then test functions whose arguments are
/// `name in strategy` pairs.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::proptest!{ @expand ($cfg); $($rest)* }
    };
    ( @expand ($cfg:expr); $(
        $(#[$attr:meta])*
        fn $name:ident ( $($pn:ident in $st:expr),+ $(,)? ) $body:block
    )* ) => {$(
        $(#[$attr])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            // Seed derived from the test name: deterministic, distinct
            // per test, stable across runs.
            let mut __seed: u64 = 0xcbf29ce484222325;
            for __b in stringify!($name).bytes() {
                __seed = (__seed ^ __b as u64).wrapping_mul(0x100000001b3);
            }
            let mut __rng = $crate::TestRng::new(__seed);
            for __case in 0..__config.cases {
                $( let $pn = $crate::Strategy::generate(&($st), &mut __rng); )+
                $body
            }
        }
    )*};
    ( $($rest:tt)* ) => {
        $crate::proptest!{ @expand ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// `assert!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// `assert_eq!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

/// `assert_ne!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($arg:tt)*) => { assert_ne!($($arg)*) };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn small_even() -> impl Strategy<Value = u64> {
        (0u64..50).prop_map(|v| v * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn ranges_honor_bounds(a in 3u32..9, b in -5i64..=5, xs in crate::collection::vec(0usize..4, 1..6)) {
            prop_assert!((3..9).contains(&a));
            prop_assert!((-5..=5).contains(&b));
            prop_assert!(!xs.is_empty() && xs.len() < 6);
            prop_assert!(xs.iter().all(|&x| x < 4));
        }

        #[test]
        fn mapped_strategies_apply(v in small_even()) {
            prop_assert_eq!(v % 2, 0);
        }

        #[test]
        fn tuples_generate_componentwise(t in (0u64..10, 1u32..3)) {
            prop_assert!(t.0 < 10 && (1..3).contains(&t.1));
        }
    }

    #[test]
    fn streams_are_deterministic_per_name() {
        let mut a = TestRng::new(9);
        let mut b = TestRng::new(9);
        assert_eq!(
            (0..5).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..5).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }
}
