//! Offline shim for the `proptest` crate.
//!
//! Provides the subset of proptest this workspace uses: the
//! [`proptest!`] macro, range / tuple / collection / mapped
//! strategies, `any::<T>()`, `prop_assert!` / `prop_assert_eq!` /
//! `prop_assume!`, and `ProptestConfig::with_cases`.
//!
//! Differences from the real proptest, by design:
//!
//! * **No shrinking.** A failing case is reported with the exact seed
//!   that produced it instead of a minimised value.
//! * **Regression persistence is seed-based.** Failing seeds are
//!   appended to `proptest-regressions/<source-file-stem>.txt` under
//!   the crate root (format: `cc <test-name> <seed-hex>`) and replayed
//!   first on every subsequent run, so a flaky failure stays
//!   reproducible even without shrinking. Delete a line once the bug
//!   it pinned is fixed.
//! * Case generation is deterministic: the base seed is derived from
//!   the test name (override with `PROPTEST_RNG_SEED=<u64>` to explore
//!   new territory in CI).

#![forbid(unsafe_code)]

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// The RNG handed to strategies while generating one test case:
/// xoshiro256++ seeded through SplitMix64, the generator
/// `rbsim::SimRng` uses. Its exact outputs are part of the contract —
/// the seeds persisted in `proptest-regressions/` replay only while
/// they generate the same cases.
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Creates the case RNG for `seed`.
    pub fn from_seed(seed: u64) -> Self {
        // SplitMix64 expansion. Its finaliser is a bijection and the
        // four inputs are distinct, so the state is never all zero.
        let mut z = seed;
        let s = std::array::from_fn(|_| {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        });
        TestRng { s }
    }

    /// Next 64 random bits: one xoshiro256++ step.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`: the top 53 bits of a draw.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index in `0..n` (modulo bias below n/2⁶⁴).
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// How a generated case ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; resample without counting.
    Reject(String),
    /// A `prop_assert!` failed.
    Fail(String),
}

impl TestCaseError {
    /// An assertion failure.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// An assumption rejection.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
    /// Maximum rejected (`prop_assume!`) cases before giving up.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 64,
            max_global_rejects: 4096,
        }
    }
}

impl ProptestConfig {
    /// A config running `cases` successful cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..ProptestConfig::default()
        }
    }
}

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// A generator of values of type `Self::Value`.
///
/// Unlike the real proptest there is no shrink tree: a strategy is just
/// a sampling function, and failures are reproduced by seed instead of
/// by minimised value.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// A strategy producing `f(x)` for `x` drawn from `self`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy yielding a fixed value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Mapped strategy (see [`Strategy::prop_map`]).
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! impl_strategy_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        }
    )*};
}

impl_strategy_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let v = self.start + rng.unit_f64() * (self.end - self.start);
        // Rounding can land exactly on `end` for narrow ranges; the
        // strategy is half-open, so step back inside.
        if v >= self.end {
            self.end.next_down().max(self.start)
        } else {
            v
        }
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
    }
}

macro_rules! impl_strategy_tuple {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_strategy_tuple! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Types with a canonical "anything" strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The "anything of type `T`" strategy.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Anything usable as the size argument of [`fn@vec`]: an exact
    /// `usize` or a `Range<usize>`.
    pub trait IntoSizeRange {
        /// Draws a length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty vec-size range");
            self.start + rng.index(self.end - self.start)
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S, L> {
        element: S,
        size: L,
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample_len(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `prop::collection::vec(element, size)`.
    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, size: L) -> VecStrategy<S, L> {
        VecStrategy { element, size }
    }
}

// ---------------------------------------------------------------------
// Runner + regression persistence
// ---------------------------------------------------------------------

/// FNV-1a — deterministic test-name → base-seed derivation.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn regression_file(source_file: &str) -> PathBuf {
    let stem = std::path::Path::new(source_file)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unknown".to_string());
    let root = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    root.join("proptest-regressions")
        .join(format!("{stem}.txt"))
}

fn load_regression_seeds(source_file: &str, test_name: &str) -> Vec<u64> {
    let Ok(body) = std::fs::read_to_string(regression_file(source_file)) else {
        return Vec::new();
    };
    body.lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some("cc"), Some(name), Some(seed)) if name == test_name => {
                    u64::from_str_radix(seed.trim_start_matches("0x"), 16).ok()
                }
                _ => None,
            }
        })
        .collect()
}

fn persist_regression_seed(source_file: &str, test_name: &str, seed: u64) {
    use std::io::Write as _;

    let path = regression_file(source_file);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let line = format!("cc {test_name} {seed:016x}\n");
    // Tests in one binary run on parallel threads and may fail (and
    // persist) concurrently; append-only writes never clobber another
    // test's seed. A duplicated line after a rare race is harmless —
    // replay is idempotent.
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    if existing.contains(line.trim_end()) {
        return;
    }
    let header = if existing.is_empty() {
        "# Proptest-shim regression seeds. Replayed before random cases;\n\
         # format: `cc <test-name> <seed-hex>`. Safe to delete once the\n\
         # pinned failure is fixed.\n"
    } else {
        ""
    };
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = f.write_all(format!("{header}{line}").as_bytes());
    }
}

/// Drives one property test: replays persisted regression seeds first,
/// then runs `cfg.cases` fresh cases. Called by the [`proptest!`]
/// macro's expansion, not directly.
pub fn run_proptest(
    cfg: &ProptestConfig,
    source_file: &str,
    test_name: &str,
    mut f: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
) {
    let base_seed = std::env::var("PROPTEST_RNG_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or_else(|| fnv1a(test_name));

    let mut run_one = |seed: u64, replay: bool| -> Result<bool, String> {
        // Ok(true) = pass, Ok(false) = rejected, Err = failure message.
        let mut rng = TestRng::from_seed(seed);
        let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut rng)));
        match outcome {
            Ok(Ok(())) => Ok(true),
            Ok(Err(TestCaseError::Reject(_))) => Ok(false),
            Ok(Err(TestCaseError::Fail(msg))) => Err(msg),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panicked".to_string());
                let _ = replay;
                Err(format!("panic: {msg}"))
            }
        }
    };

    for seed in load_regression_seeds(source_file, test_name) {
        if let Err(msg) = run_one(seed, true) {
            panic!(
                "{test_name}: persisted regression seed {seed:#018x} still fails: {msg} \
                 (file: proptest-regressions/…, delete the line once fixed)"
            );
        }
    }

    let mut passed = 0u32;
    let mut rejected = 0u32;
    let mut k = 0u64;
    while passed < cfg.cases {
        let seed = base_seed
            .wrapping_add(k)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        k += 1;
        match run_one(seed, false) {
            Ok(true) => passed += 1,
            Ok(false) => {
                rejected += 1;
                if rejected > cfg.max_global_rejects {
                    panic!(
                        "{test_name}: too many prop_assume! rejections \
                         ({rejected} vs {} cases)",
                        cfg.cases
                    );
                }
            }
            Err(msg) => {
                persist_regression_seed(source_file, test_name, seed);
                panic!(
                    "{test_name}: case {passed} failed with seed {seed:#018x} \
                     (persisted to proptest-regressions): {msg}"
                );
            }
        }
    }
}

/// The common imports: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Any, Arbitrary,
        Just, ProptestConfig, Strategy, TestCaseError, TestRng,
    };

    /// The `prop::` module alias used by `prop::collection::vec(...)`.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Defines property tests. See the crate docs for semantics; the
/// grammar matches the real proptest's common form:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(128))]
///     #[test]
///     fn my_prop(x in 0.0f64..1.0, ys in prop::collection::vec(0u32..10, 1..50)) {
///         prop_assert!(x < 1.0);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                $crate::run_proptest(&cfg, file!(), stringify!($name), |__rng| {
                    $(let $arg = $crate::Strategy::sample(&($strat), __rng);)*
                    $body
                    Ok(())
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts inside a [`proptest!`] body without aborting the process.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} ({}:{})", stringify!($cond), file!(), line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}: {} ({}:{})",
                stringify!($cond), format!($($fmt)*), file!(), line!()
            )));
        }
    };
}

/// Equality assertion inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}: {:?} vs {:?} ({}:{})",
                stringify!($left), stringify!($right), l, r, file!(), line!()
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}: {:?} vs {:?}: {} ({}:{})",
                stringify!($left), stringify!($right), l, r,
                format!($($fmt)*), file!(), line!()
            )));
        }
    }};
}

/// Inequality assertion inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {}: both {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                l,
                file!(),
                line!()
            )));
        }
    }};
}

/// Discards the current case (resampled without counting toward the
/// case budget).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 1.5f64..2.5, n in 3usize..10, b in any::<bool>()) {
            prop_assert!((1.5..2.5).contains(&x));
            prop_assert!((3..10).contains(&n));
            let _ = b;
        }

        #[test]
        fn vec_sizes_and_tuples(
            xs in collection::vec(0u32..5, 2..20),
            (a, b) in (0i32..10, -5i32..0),
        ) {
            prop_assert!(xs.len() >= 2 && xs.len() < 20);
            prop_assert!(xs.iter().all(|&x| x < 5));
            prop_assert!(a >= 0 && b < 0);
        }

        #[test]
        fn prop_map_and_assume(v in (0u32..100).prop_map(|x| x * 2), g in 0u32..50) {
            prop_assume!(g > 0);
            prop_assert_eq!(v % 2, 0);
            prop_assert_ne!(g, 0);
        }
    }

    /// The persisted regression seeds replay the same cases only while
    /// these outputs hold.
    #[test]
    fn test_rng_pins() {
        let mut rng = crate::TestRng::from_seed(0xc95e_028e_8c0a_0b20);
        let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            words,
            [
                0x153c_6cfe_4c25_8074,
                0x747d_2ca8_9ee7_ae0f,
                0x1bb6_5f10_0002_cddc,
                0xd437_9da1_cba3_6823
            ]
        );
        let mut rng = crate::TestRng::from_seed(1);
        assert_eq!(rng.unit_f64(), 0.8116121588818848);
        assert_eq!(rng.index(10), 5);
    }

    #[test]
    fn cases_are_deterministic_per_name() {
        let mut seen = Vec::new();
        let cfg = ProptestConfig::with_cases(5);
        crate::run_proptest(&cfg, file!(), "determinism_probe", |rng| {
            seen.push(rng.next_u64());
            Ok(())
        });
        let mut second = Vec::new();
        crate::run_proptest(&cfg, file!(), "determinism_probe", |rng| {
            second.push(rng.next_u64());
            Ok(())
        });
        assert_eq!(seen, second);
    }
}
