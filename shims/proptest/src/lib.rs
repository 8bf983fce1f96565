//! Workspace-local stand-in for the `proptest` crate.
//!
//! The build environment has no registry access (see EXPERIMENTS.md), so the
//! workspace replaces its external dev-dependencies with small path shims.
//! This shim implements the subset of proptest the repo's property tests
//! use: the [`Strategy`](strategy::Strategy) trait with `prop_map` /
//! `prop_flat_map`, `any::<T>()` for primitives, integer-range and tuple
//! strategies, [`Just`](strategy::Just), `prop::collection::vec`,
//! `prop::option::of`, `prop_oneof!`, and the `proptest!` test macro with
//! `ProptestConfig::with_cases`.
//!
//! Differences from the real crate, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports its case index and seed; the
//!   run is fully deterministic, so re-running reproduces it exactly.
//! * **Fixed seeding.** Each test's stream derives from the test name (FNV
//!   hash) and case index, or from `PROPTEST_SEED` if set — there is no
//!   persisted regression file (existing `*.proptest-regressions` files are
//!   ignored).
//! * **Uniform distributions only.** No bias toward edge values.

pub mod test_runner {
    //! Test-case driver: configuration, error type, deterministic runner.

    /// Mirrors `proptest::test_runner::Config` (re-exported from the prelude
    /// as `ProptestConfig`).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
        /// Maximum number of `prop_assume!` rejections before giving up.
        pub max_global_rejects: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            Config {
                cases: 256,
                max_global_rejects: 65_536,
            }
        }
    }

    impl Config {
        /// A config that runs `cases` successful cases.
        pub fn with_cases(cases: u32) -> Self {
            Config {
                cases,
                ..Config::default()
            }
        }
    }

    /// Why a single test case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// An assertion failed; the whole test fails.
        Fail(String),
        /// `prop_assume!` rejected the inputs; the case is retried.
        Reject(String),
    }

    /// Result type each generated case evaluates to.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Deterministic PRNG handed to strategies (splitmix64 core).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates an RNG from a 64-bit seed.
        pub fn from_seed(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// Next raw 64-bit word.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            self.next_u64() % bound
        }
    }

    fn fnv1a(s: &str) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Runs `case` until `config.cases` successes, panicking on the first
    /// failure with enough context to reproduce it (the stream is a pure
    /// function of the test name, the case index, and `PROPTEST_SEED`).
    pub fn run(
        config: &Config,
        test_name: &str,
        mut case: impl FnMut(&mut TestRng) -> TestCaseResult,
    ) {
        let env_seed = std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0);
        let base = fnv1a(test_name) ^ env_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);

        let mut passed = 0u32;
        let mut rejected = 0u32;
        let mut index = 0u64;
        while passed < config.cases {
            let mut rng =
                TestRng::from_seed(base.wrapping_add(index.wrapping_mul(0xA24B_AED4_963E_E407)));
            match case(&mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejected += 1;
                    if rejected > config.max_global_rejects {
                        panic!(
                            "proptest `{test_name}`: too many prop_assume! rejections \
                             ({rejected}) after {passed} passing cases"
                        );
                    }
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!(
                        "proptest `{test_name}` failed at case #{index} \
                         (PROPTEST_SEED={env_seed}): {msg}"
                    );
                }
            }
            index += 1;
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::marker::PhantomData;
    use std::ops::Range;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike the real crate there is no value-tree/shrinking layer:
    /// `generate` directly produces a value from the RNG.
    pub trait Strategy {
        /// The type of generated values.
        type Value: Debug;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, builds a second strategy from it, and draws
        /// from that.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// String literals are regex strategies, as in the real crate (subset:
    /// see [`crate::string`]).
    impl Strategy for str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            crate::string::generate(self, rng)
        }
    }

    /// A boxed strategy (the arms of `prop_oneof!`).
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    /// Boxes a strategy, unifying arm types for [`Union`].
    pub fn boxed<S: Strategy + 'static>(s: S) -> BoxedStrategy<S::Value> {
        Box::new(s)
    }

    /// Always produces a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Uniform choice between boxed strategies (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T: Debug> Union<T> {
        /// Builds a union; panics on an empty arm list.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T: Debug> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    /// Primitive types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized + Debug {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
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

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(PhantomData<T>);

    /// `any::<T>()` — uniform values of a primitive type.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($s:ident/$v:ident),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($s,)+) = self;
                    $(let $v = $s.generate(rng);)+
                    ($($v,)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A / a);
    impl_tuple_strategy!(A / a, B / b);
    impl_tuple_strategy!(A / a, B / b, C / c);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d, E / e);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f, G / g);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f, G / g, H / h);
    impl_tuple_strategy!(
        A / a,
        B / b,
        C / c,
        D / d,
        E / e,
        F / f,
        G / g,
        H / h,
        I / i
    );
    impl_tuple_strategy!(
        A / a,
        B / b,
        C / c,
        D / d,
        E / e,
        F / f,
        G / g,
        H / h,
        I / i,
        J / j
    );
    impl_tuple_strategy!(
        A / a,
        B / b,
        C / c,
        D / d,
        E / e,
        F / f,
        G / g,
        H / h,
        I / i,
        J / j,
        K / k
    );
    impl_tuple_strategy!(
        A / a,
        B / b,
        C / c,
        D / d,
        E / e,
        F / f,
        G / g,
        H / h,
        I / i,
        J / j,
        K / k,
        L / l
    );
}

pub mod collection {
    //! `prop::collection` — container strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Accepted size arguments for [`vec`](fn@vec).
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        /// Exclusive upper bound.
        max: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                min: r.start,
                max: r.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n + 1 }
        }
    }

    /// Strategy returned by [`vec`](fn@vec).
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// A `Vec` whose length is drawn from `size` and whose elements are
    /// drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.max - self.size.min) as u64;
            let len = self.size.min + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod string {
    //! String generation from a small regex subset.
    //!
    //! Supported: sequences of atoms — `.` (any printable char except
    //! newline), `[class]` with ranges and `\n`/`\t`/`\\`/`\]`/`\-` escapes,
    //! or a literal char — each optionally followed by `{n}`, `{m,n}`, `*`,
    //! `+`, or `?`. This covers the patterns the repo's tests use; anything
    //! else panics with the offending pattern.

    use crate::test_runner::TestRng;

    enum Atom {
        Any,
        Class(Vec<char>),
        Lit(char),
    }

    struct Piece {
        atom: Atom,
        min: u32,
        max: u32,
    }

    fn parse(pat: &str) -> Vec<Piece> {
        let chars: Vec<char> = pat.chars().collect();
        let mut i = 0;
        let mut out = Vec::new();
        while i < chars.len() {
            let atom = match chars[i] {
                '.' => {
                    i += 1;
                    Atom::Any
                }
                '[' => {
                    i += 1;
                    let mut set = Vec::new();
                    while i < chars.len() && chars[i] != ']' {
                        let c = if chars[i] == '\\' {
                            i += 1;
                            match chars.get(i) {
                                Some('n') => '\n',
                                Some('t') => '\t',
                                Some(&c) => c,
                                None => panic!("unterminated escape in pattern `{pat}`"),
                            }
                        } else {
                            chars[i]
                        };
                        i += 1;
                        // Range `a-z` (a `-` before `]` is a literal).
                        if chars.get(i) == Some(&'-') && chars.get(i + 1).is_some_and(|&c| c != ']')
                        {
                            let hi = chars[i + 1];
                            i += 2;
                            for v in (c as u32)..=(hi as u32) {
                                if let Some(c) = char::from_u32(v) {
                                    set.push(c);
                                }
                            }
                        } else {
                            set.push(c);
                        }
                    }
                    assert!(i < chars.len(), "unterminated class in pattern `{pat}`");
                    i += 1; // skip ']'
                    assert!(!set.is_empty(), "empty class in pattern `{pat}`");
                    Atom::Class(set)
                }
                '\\' => {
                    i += 1;
                    let c = match chars.get(i) {
                        Some('n') => '\n',
                        Some('t') => '\t',
                        Some(&c) => c,
                        None => panic!("unterminated escape in pattern `{pat}`"),
                    };
                    i += 1;
                    Atom::Lit(c)
                }
                c => {
                    i += 1;
                    Atom::Lit(c)
                }
            };
            let (min, max) = match chars.get(i) {
                Some('{') => {
                    i += 1;
                    let start = i;
                    while i < chars.len() && chars[i] != '}' {
                        i += 1;
                    }
                    let body: String = chars[start..i].iter().collect();
                    assert!(i < chars.len(), "unterminated `{{` in pattern `{pat}`");
                    i += 1;
                    match body.split_once(',') {
                        Some((lo, hi)) => (
                            lo.parse()
                                .unwrap_or_else(|_| panic!("bad bound in `{pat}`")),
                            hi.parse()
                                .unwrap_or_else(|_| panic!("bad bound in `{pat}`")),
                        ),
                        None => {
                            let n = body
                                .parse()
                                .unwrap_or_else(|_| panic!("bad bound in `{pat}`"));
                            (n, n)
                        }
                    }
                }
                Some('*') => {
                    i += 1;
                    (0, 16)
                }
                Some('+') => {
                    i += 1;
                    (1, 16)
                }
                Some('?') => {
                    i += 1;
                    (0, 1)
                }
                _ => (1, 1),
            };
            assert!(min <= max, "inverted repetition in pattern `{pat}`");
            out.push(Piece { atom, min, max });
        }
        out
    }

    /// Generates one string matching `pat`.
    pub fn generate(pat: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for piece in parse(pat) {
            let n = piece.min + rng.below(u64::from(piece.max - piece.min) + 1) as u32;
            for _ in 0..n {
                match &piece.atom {
                    // `.`: printable ASCII, never newline (regex semantics).
                    Atom::Any => out.push((0x20 + rng.below(0x5F) as u8) as char),
                    Atom::Class(set) => out.push(set[rng.below(set.len() as u64) as usize]),
                    Atom::Lit(c) => out.push(*c),
                }
            }
        }
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::test_runner::TestRng;

        #[test]
        fn generates_within_class_and_bounds() {
            let mut rng = TestRng::from_seed(11);
            for _ in 0..200 {
                let s = generate("[a-c]{2,5}", &mut rng);
                assert!((2..=5).contains(&s.chars().count()));
                assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
            }
        }

        #[test]
        fn dot_never_yields_newline() {
            let mut rng = TestRng::from_seed(3);
            for _ in 0..200 {
                let s = generate(".{0,40}", &mut rng);
                assert!(!s.contains('\n'));
                assert!(s.chars().count() <= 40);
            }
        }

        #[test]
        fn escapes_and_literals() {
            let mut rng = TestRng::from_seed(5);
            let s = generate("ab\\n[x\\]]{1}", &mut rng);
            assert!(s.starts_with("ab\n"));
            assert!(s.ends_with('x') || s.ends_with(']'));
        }
    }
}

pub mod array {
    //! `prop::array` — fixed-size array strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy returned by the `uniformN` constructors.
    #[derive(Debug, Clone)]
    pub struct UniformArrayStrategy<S, const N: usize> {
        elem: S,
    }

    impl<S: Strategy, const N: usize> Strategy for UniformArrayStrategy<S, N> {
        type Value = [S::Value; N];
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            std::array::from_fn(|_| self.elem.generate(rng))
        }
    }

    /// An `[T; N]` with every element drawn from `elem`.
    pub fn uniform<S: Strategy, const N: usize>(elem: S) -> UniformArrayStrategy<S, N> {
        UniformArrayStrategy { elem }
    }

    macro_rules! uniform_n {
        ($($name:ident => $n:literal),+ $(,)?) => {$(
            /// An array with every element drawn from `elem`.
            pub fn $name<S: Strategy>(elem: S) -> UniformArrayStrategy<S, $n> {
                UniformArrayStrategy { elem }
            }
        )+};
    }
    uniform_n!(uniform4 => 4, uniform8 => 8, uniform16 => 16, uniform32 => 32);
}

pub mod option {
    //! `prop::option` — `Option` strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy returned by [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `Some` three times out of four (both constructors get exercised).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// The customary glob import: strategies, config, macros, and the `prop`
/// module alias.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// Module alias matching `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::array;
        pub use crate::collection;
        pub use crate::option;
    }
}

/// Defines `#[test]` functions over generated inputs.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn addition_commutes(a in 0i64..100, b in 0i64..100) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($config); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::test_runner::Config::default()); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr); $(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $config;
            // One tuple strategy for all parameters: strategies are built
            // once, and macro hygiene cannot shadow the per-param bindings.
            let __strats = ($($strat,)+);
            $crate::test_runner::run(&__config, stringify!($name), |__rng| {
                let ($($pat,)+) = $crate::strategy::Strategy::generate(&__strats, __rng);
                $body
                Ok(())
            });
        }
        $crate::__proptest_fns!(($config); $($rest)*);
    };
    (($config:expr);) => {};
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "msg {}", args…)`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)*)),
            );
        }
    };
}

/// `prop_assert_eq!(a, b)` with an optional trailing format message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($lhs), stringify!($rhs), l, r
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n {}",
            stringify!($lhs), stringify!($rhs), l, r, format!($($fmt)*)
        );
    }};
}

/// `prop_assert_ne!(a, b)` with an optional trailing format message.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($lhs), stringify!($rhs), l
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}\n {}",
            stringify!($lhs), stringify!($rhs), l, format!($($fmt)*)
        );
    }};
}

/// Rejects the current case (retried with fresh inputs) when `cond` fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($arm)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let strat = prop::collection::vec(0u32..100, 1..10);
        let a: Vec<u32> = strat.generate(&mut TestRng::from_seed(9));
        let b: Vec<u32> = strat.generate(&mut TestRng::from_seed(9));
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn ranges_respect_bounds(x in -50i64..50, y in 3u8..9) {
            prop_assert!((-50..50).contains(&x));
            prop_assert!((3..9).contains(&y));
        }

        #[test]
        fn oneof_and_combinators_cover_arms(
            v in prop::collection::vec(
                prop_oneof![Just(0u8), 1u8..4, any::<u8>().prop_map(|b| b | 0x80)],
                0..12,
            ),
            opt in prop::option::of(0u16..3),
            (lo, hi) in (0u32..10, 10u32..20),
        ) {
            prop_assert!(v.len() < 12);
            if let Some(x) = opt {
                prop_assert!(x < 3);
            }
            prop_assert!(lo < hi);
            prop_assert_ne!(hi, 0);
        }

        #[test]
        fn assume_rejects_without_failing(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0, "n = {}", n);
        }
    }

    #[test]
    fn flat_map_dependent_generation() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let strat = (1usize..5).prop_flat_map(|n| prop::collection::vec(0u8..10, n..(n + 1)));
        for seed in 0..50 {
            let v = strat.generate(&mut TestRng::from_seed(seed));
            assert!((1..5).contains(&v.len()));
        }
    }
}
