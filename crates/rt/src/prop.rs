//! A minimal, fully deterministic property-testing harness: seeded
//! generators, bounded value-based shrinking, and a plain-text regression
//! corpus that replays known-bad cases before any novel ones.
//!
//! # Shape
//!
//! ```
//! use soteria_rt::prop::{any, check, vec, Config};
//!
//! check(
//!     "sum_is_commutative",
//!     &Config::with_cases(32),
//!     &(any::<u8>(), any::<u8>()),
//!     |&(a, b)| {
//!         soteria_rt::prop_assert_eq!(
//!             a as u16 + b as u16,
//!             b as u16 + a as u16
//!         );
//!         Ok(())
//!     },
//! );
//! # let _ = vec(any::<u8>(), 3);
//! ```
//!
//! Each case is generated from a seed derived from the configured base
//! seed, the test name, and the case index — so one failing case can be
//! replayed forever by storing just its seed. On failure the harness
//! (1) shrinks the value greedily through [`Strategy::shrink`] candidates
//! under a bounded budget, (2) appends `name seed=0x…` to the configured
//! regression corpus, and (3) panics with the minimal value, the original
//! error, and the seed.
//!
//! # Regression corpus format
//!
//! ```text
//! # comments and blank lines are ignored
//! counter_block_roundtrips seed=0x4fe310945049bec9  # shrinks to …
//! ```
//!
//! Entries whose name matches the running test are replayed first.

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::io::Write as _;
use std::path::PathBuf;

use crate::rng::{stream_seed, StdRng};

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A seeded generator of values plus a shrinker toward "simpler" ones.
pub trait Strategy {
    /// The type of value generated.
    type Value: Clone + Debug;

    /// Generates one value from the RNG.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Candidate simplifications of `value`, simplest first. An empty
    /// vector means the value is fully shrunk.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

/// Shrink candidates for an integer-like value toward `low`: a halving
/// ladder `low, v − d/2, v − d/4, …, v − 1` (simplest first). Greedy
/// descent over this ladder behaves like binary search, reaching the
/// failure boundary in O(log²) test invocations.
fn shrink_toward_u64(low: u64, v: u64) -> Vec<u64> {
    let mut out = Vec::new();
    if v == low {
        return out;
    }
    let mut delta = v - low;
    while delta > 0 {
        let candidate = v - delta;
        if out.last() != Some(&candidate) {
            out.push(candidate);
        }
        delta /= 2;
    }
    out
}

// ---------------------------------------------------------------------------
// any::<T>() — full-domain primitives
// ---------------------------------------------------------------------------

/// Full-domain strategy for a primitive; see [`any`].
#[derive(Clone, Copy, Debug)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

/// The whole domain of a primitive type (`u8`–`u64`, `usize`, `i32`,
/// `i64`, `bool`, or `f64` in `[0, 1)`).
pub fn any<T>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

macro_rules! impl_any_uint {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random()
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_toward_u64(0, *value as u64)
                    .into_iter()
                    .map(|v| v as $t)
                    .collect()
            }
        }
    )*};
}

impl_any_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_any_int {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random()
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                let v = *value;
                let mut out = Vec::new();
                if v != 0 {
                    out.push(0);
                    if v < 0 && v.checked_neg().is_some() {
                        out.push(-v);
                    }
                    let half = v / 2;
                    if half != 0 && half != v {
                        out.push(half);
                    }
                }
                out
            }
        }
    )*};
}

impl_any_int!(i32, i64);

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut StdRng) -> bool {
        rng.random()
    }
    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl Strategy for Any<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut StdRng) -> f64 {
        rng.random()
    }
    fn shrink(&self, value: &f64) -> Vec<f64> {
        if *value == 0.0 {
            Vec::new()
        } else {
            vec![0.0, value / 2.0]
        }
    }
}

// ---------------------------------------------------------------------------
// Ranges as strategies
// ---------------------------------------------------------------------------

macro_rules! impl_range_strategy_uint {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_toward_u64(self.start as u64, *value as u64)
                    .into_iter()
                    .map(|v| v as $t)
                    .collect()
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_toward_u64(*self.start() as u64, *value as u64)
                    .into_iter()
                    .map(|v| v as $t)
                    .collect()
            }
        }
    )*};
}

impl_range_strategy_uint!(u8, u16, u32, u64, usize);

// ---------------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------------

/// An inclusive size window for generated collections.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    /// Smallest allowed size.
    pub min: usize,
    /// Largest allowed size.
    pub max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { min: n, max: n }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        Self {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        Self {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

impl SizeRange {
    fn sample(&self, rng: &mut StdRng) -> usize {
        rng.random_range(self.min..=self.max)
    }
}

/// Strategy for `Vec<T>`; see [`vec()`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

/// A vector whose length is drawn from `size` and whose elements come
/// from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        let len = self.size.sample(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        let len = value.len();
        // Structural shrinks first: halves, then single-element removals.
        if len / 2 >= self.size.min && len > self.size.min {
            out.push(value[..len / 2].to_vec());
            out.push(value[len - len / 2..].to_vec());
        }
        if len > self.size.min {
            for i in 0..len.min(16) {
                let mut smaller = value.clone();
                smaller.remove(i);
                out.push(smaller);
            }
        }
        // Element-wise shrinks on a bounded prefix.
        for i in 0..len.min(16) {
            for replacement in self.element.shrink(&value[i]).into_iter().take(3) {
                let mut simpler = value.clone();
                simpler[i] = replacement;
                out.push(simpler);
            }
        }
        out
    }
}

/// Strategy for `BTreeSet<T>`; see [`btree_set`].
#[derive(Clone, Debug)]
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

/// A `BTreeSet` holding between `size.min` and `size.max` distinct
/// elements from `element`. If the element domain is too small to reach
/// the sampled size, the set is returned at its achievable size (still
/// at least one element whenever `size.max > 0`).
pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S::Value: Ord,
{
    BTreeSetStrategy {
        element,
        size: size.into(),
    }
}

impl<S: Strategy> Strategy for BTreeSetStrategy<S>
where
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        let target = self.size.sample(rng);
        let mut set = BTreeSet::new();
        let mut attempts = 0usize;
        while set.len() < target && attempts < 100 * (target + 1) {
            set.insert(self.element.generate(rng));
            attempts += 1;
        }
        set
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        if value.len() > self.size.min {
            for drop in value.iter().take(16) {
                let mut smaller = value.clone();
                smaller.remove(drop);
                out.push(smaller);
            }
        }
        for elem in value.iter().take(16) {
            for replacement in self.element.shrink(elem).into_iter().take(3) {
                let mut simpler = value.clone();
                simpler.remove(elem);
                simpler.insert(replacement);
                if simpler.len() >= self.size.min {
                    out.push(simpler);
                }
            }
        }
        out
    }
}

/// Strategy for `[T; N]`; see [`array()`].
#[derive(Clone, Debug)]
pub struct ArrayStrategy<S, const N: usize> {
    element: S,
}

/// A fixed-size array of `N` elements drawn from `element`.
pub fn array<S: Strategy, const N: usize>(element: S) -> ArrayStrategy<S, N>
where
    S::Value: Copy,
{
    ArrayStrategy { element }
}

impl<S: Strategy, const N: usize> Strategy for ArrayStrategy<S, N>
where
    S::Value: Copy,
{
    type Value = [S::Value; N];

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        std::array::from_fn(|_| self.element.generate(rng))
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        for i in 0..N.min(16) {
            for replacement in self.element.shrink(&value[i]).into_iter().take(2) {
                let mut simpler = *value;
                simpler[i] = replacement;
                out.push(simpler);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Tuples
// ---------------------------------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink(&value.$idx) {
                        let mut simpler = value.clone();
                        simpler.$idx = candidate;
                        out.push(simpler);
                    }
                )+
                out
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// The result a property body returns per case.
pub type CaseResult = Result<(), String>;

/// Runner configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Novel cases to generate.
    pub cases: u32,
    /// Base seed; every case seed derives from it, the test name, and the
    /// case index.
    pub seed: u64,
    /// Total test invocations the shrinker may spend.
    pub max_shrink_iters: u32,
    /// Regression corpus path (replayed first; appended to on failure).
    pub regression_file: Option<PathBuf>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            cases: 64,
            seed: 0x5072_0b5e_5072_0b5e,
            max_shrink_iters: 1024,
            regression_file: None,
        }
    }
}

impl Config {
    /// A config generating `cases` novel cases.
    pub fn with_cases(cases: u32) -> Self {
        Self {
            cases,
            ..Self::default()
        }
    }

    /// Attaches a regression corpus file.
    pub fn regressions(mut self, path: impl Into<PathBuf>) -> Self {
        self.regression_file = Some(path.into());
        self
    }
}

/// FNV-1a over the test name, so each test gets its own seed stream.
fn name_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn load_regression_seeds(path: &PathBuf, name: &str) -> Vec<u64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut seeds = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(entry_name), Some(seed_part)) = (parts.next(), parts.next()) else {
            continue;
        };
        if entry_name != name {
            continue;
        }
        if let Some(hex) = seed_part.strip_prefix("seed=0x") {
            if let Ok(seed) = u64::from_str_radix(hex, 16) {
                seeds.push(seed);
            }
        }
    }
    seeds
}

fn record_regression(path: &PathBuf, name: &str, case_seed: u64, minimal: &impl Debug) {
    // Skip when the entry is already in the corpus.
    if load_regression_seeds(path, name).contains(&case_seed) {
        return;
    }
    let mut debug = format!("{minimal:?}");
    if debug.len() > 300 {
        debug.truncate(300);
        debug.push('…');
    }
    let debug = debug.replace('\n', " ");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        let _ = writeln!(f, "{name} seed=0x{case_seed:016x}  # shrinks to {debug}");
    }
}

/// Runs a property: replays the regression corpus for `name`, then
/// generates `config.cases` novel cases. On failure it shrinks the case,
/// records its seed in the corpus, and panics with the minimal
/// counterexample.
///
/// # Panics
///
/// Panics when the property fails for any case.
pub fn check<S, F>(name: &str, config: &Config, strategy: &S, test: F)
where
    S: Strategy,
    F: Fn(&S::Value) -> CaseResult,
{
    let base = config.seed ^ name_hash(name);

    // 1. Known-bad cases first.
    if let Some(path) = &config.regression_file {
        for seed in load_regression_seeds(path, name) {
            run_case(name, config, strategy, &test, seed, true);
        }
    }

    // 2. Novel cases.
    for case in 0..config.cases {
        let case_seed = stream_seed(base, u64::from(case));
        run_case(name, config, strategy, &test, case_seed, false);
    }
}

fn run_case<S, F>(
    name: &str,
    config: &Config,
    strategy: &S,
    test: &F,
    case_seed: u64,
    is_replay: bool,
) where
    S: Strategy,
    F: Fn(&S::Value) -> CaseResult,
{
    let mut rng = StdRng::seed_from_u64(case_seed);
    let value = strategy.generate(&mut rng);
    let Err(error) = run_test(test, &value) else {
        return;
    };

    // Shrink greedily under a global budget.
    let mut minimal = value;
    let mut minimal_error = error;
    let mut budget = config.max_shrink_iters;
    'shrinking: loop {
        for candidate in strategy.shrink(&minimal) {
            if budget == 0 {
                break 'shrinking;
            }
            budget -= 1;
            if let Err(e) = run_test(test, &candidate) {
                minimal = candidate;
                minimal_error = e;
                continue 'shrinking;
            }
        }
        break;
    }

    if !is_replay {
        if let Some(path) = &config.regression_file {
            record_regression(path, name, case_seed, &minimal);
        }
    }
    let origin = if is_replay {
        "regression corpus replay"
    } else {
        "novel case"
    };
    panic!(
        "property `{name}` failed ({origin}, seed=0x{case_seed:016x})\n\
         minimal counterexample: {minimal:#?}\n\
         error: {minimal_error}"
    );
}

/// Runs the property body on one value. A panic in the code under test
/// fails the case like an `Err` does, so it is shrunk and its seed is
/// recorded instead of ending the run.
fn run_test<V, F: Fn(&V) -> CaseResult>(test: &F, value: &V) -> CaseResult {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| test(value))).unwrap_or_else(
        |payload| {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            Err(format!("panicked: {message}"))
        },
    )
}

/// Asserts a condition inside a property body, failing the case (not the
/// process) so the harness can shrink.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a property body, failing the case so the
/// harness can shrink.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        if left != right {
            return Err(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                left,
                right,
                file!(),
                line!()
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if left != right {
            return Err(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                left,
                right
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let count = std::cell::Cell::new(0u32);
        check(
            "always_true",
            &Config::with_cases(50),
            &any::<u64>(),
            |_| {
                count.set(count.get() + 1);
                Ok(())
            },
        );
        assert_eq!(count.get(), 50);
    }

    #[test]
    #[should_panic(expected = "property `always_false` failed")]
    fn failing_property_panics() {
        check(
            "always_false",
            &Config::with_cases(10),
            &any::<u32>(),
            |_| Err("nope".to_string()),
        );
    }

    #[test]
    fn shrinking_finds_the_boundary() {
        // Property "v < 1000" fails for v >= 1000; the minimal
        // counterexample must shrink all the way down to exactly 1000.
        let minimal = std::cell::Cell::new(u64::MAX);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check("boundary", &Config::with_cases(20), &any::<u64>(), |&v| {
                if v >= 1000 {
                    minimal.set(minimal.get().min(v));
                    Err(format!("{v} too big"))
                } else {
                    Ok(())
                }
            });
        }));
        assert!(result.is_err(), "property must fail");
        assert_eq!(minimal.get(), 1000, "shrinker must reach the boundary");
    }

    #[test]
    fn vec_shrinking_reduces_length() {
        let min_len = std::cell::Cell::new(usize::MAX);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check(
                "vec_min",
                &Config::with_cases(5),
                &vec(any::<u8>(), 0..50usize),
                |v| {
                    if v.len() >= 3 {
                        min_len.set(min_len.get().min(v.len()));
                        Err("too long".into())
                    } else {
                        Ok(())
                    }
                },
            );
        }));
        assert!(result.is_err());
        assert_eq!(min_len.get(), 3, "minimal failing length is 3");
    }

    #[test]
    fn generation_is_deterministic_per_name_and_seed() {
        let collect = |name: &str| {
            let values = std::cell::RefCell::new(Vec::new());
            check(name, &Config::with_cases(10), &any::<u64>(), |&v| {
                values.borrow_mut().push(v);
                Ok(())
            });
            values.into_inner()
        };
        assert_eq!(collect("det_a"), collect("det_a"));
        assert_ne!(collect("det_a"), collect("det_b"));
    }

    #[test]
    fn btree_set_respects_size_window() {
        check(
            "btree_sizes",
            &Config::with_cases(64),
            &btree_set(0usize..100, 1..=4usize),
            |s| {
                crate::prop_assert!((1..=4).contains(&s.len()), "size {}", s.len());
                Ok(())
            },
        );
    }

    #[test]
    fn array_and_tuple_generate() {
        check(
            "arrays",
            &Config::with_cases(16),
            &(array::<_, 16>(any::<u8>()), any::<bool>(), 0u32..7),
            |&(bytes, _flag, small)| {
                crate::prop_assert_eq!(bytes.len(), 16);
                crate::prop_assert!(small < 7);
                Ok(())
            },
        );
    }

    #[test]
    fn regression_corpus_roundtrip() {
        let dir = std::env::temp_dir().join("soteria_rt_prop_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("corpus_{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let config = Config::with_cases(20).regressions(&path);

        // First run fails and records the seed.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check("corpus_rt", &config, &any::<u64>(), |&v| {
                if v >= 10 {
                    Err("big".into())
                } else {
                    Ok(())
                }
            });
        }));
        assert!(result.is_err());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("corpus_rt seed=0x"), "corpus: {text}");
        let recorded = load_regression_seeds(&path, "corpus_rt");
        assert_eq!(recorded.len(), 1);

        // Second run replays the recorded case first and fails on it even
        // with zero novel cases.
        let replay_only = Config {
            cases: 0,
            ..config.clone()
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check("corpus_rt", &replay_only, &any::<u64>(), |&v| {
                if v >= 10 {
                    Err("big".into())
                } else {
                    Ok(())
                }
            });
        }));
        let message = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(
            message.contains("regression corpus replay"),
            "panic must name the corpus: {message}"
        );

        // Failing again must not duplicate the entry.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check("corpus_rt", &config, &any::<u64>(), |&v| {
                if v >= 10 {
                    Err("big".into())
                } else {
                    Ok(())
                }
            });
        }));
        assert!(result.is_err());
        assert_eq!(load_regression_seeds(&path, "corpus_rt").len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn panicking_property_is_shrunk_and_recorded() {
        let dir = std::env::temp_dir().join("soteria_rt_prop_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("panic_corpus_{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let minimal = std::cell::Cell::new(u64::MAX);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check(
                "panics_rt",
                &Config::with_cases(20).regressions(&path),
                &any::<u64>(),
                |&v| {
                    if v >= 10 {
                        minimal.set(minimal.get().min(v));
                        panic!("{v} is too big");
                    }
                    Ok(())
                },
            );
        }));
        let message = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(
            message.contains("property `panics_rt` failed") && message.contains("panicked: 10 is"),
            "the harness must report the shrunk panic: {message}"
        );
        assert_eq!(minimal.get(), 10, "the panicking case must shrink");
        assert_eq!(load_regression_seeds(&path, "panics_rt").len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn name_hash_separates_names() {
        assert_ne!(name_hash("a"), name_hash("b"));
        assert_eq!(name_hash("same"), name_hash("same"));
    }
}
