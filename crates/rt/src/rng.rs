//! Deterministic, seedable pseudo-random number generation.
//!
//! Two generators:
//!
//! * [`SplitMix64`] — a 64-bit state mixer (Steele et al., OOPSLA 2014).
//!   Used directly for seed expansion and per-iteration stream derivation,
//!   because every output of a distinct input is a distinct, well-mixed
//!   word (it is a bijection on `u64`).
//! * [`Xoshiro256StarStar`] — the workhorse generator (Blackman & Vigna,
//!   2018): 256-bit state, period 2^256 − 1, passes BigCrush. Exported as
//!   [`StdRng`] so call sites read like the `rand` API they replaced.
//!
//! Everything here is pinned: the same seed produces the same stream on
//! every platform, forever. Monte Carlo regression tests depend on that.

/// SplitMix64: stateless-feeling mixer used for seed expansion.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

/// The golden-ratio increment of the SplitMix64 Weyl sequence.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

impl SplitMix64 {
    /// Seeds the mixer.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 mixed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Derives a well-mixed per-stream seed from a base seed and a stream
/// index — the scheme behind thread-count-invariant Monte Carlo: stream
/// `i` is the same whether one worker or sixteen process it.
pub fn stream_seed(base: u64, stream: u64) -> u64 {
    SplitMix64::new(base ^ stream.wrapping_mul(GOLDEN_GAMMA)).next_u64()
}

/// xoshiro256** generator. Alias: [`StdRng`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

/// The workspace's standard RNG (named for drop-in familiarity).
pub type StdRng = Xoshiro256StarStar;

/// The largest mean [`Xoshiro256StarStar::poisson`] accepts: 2^30. Its
/// sampler draws in chunks of 15, so a draw takes at most about 7·10^7
/// chunk steps. Far larger means would not end at all: past 2^57,
/// subtracting 15 no longer changes the remaining mean.
pub const POISSON_MAX_LAMBDA: f64 = (1u64 << 30) as f64;

impl Xoshiro256StarStar {
    /// Seeds the generator, expanding the 64-bit seed through
    /// [`SplitMix64`] as the xoshiro authors recommend (never all-zero
    /// state, decorrelated words).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut mixer = SplitMix64::new(seed);
        Self {
            s: [
                mixer.next_u64(),
                mixer.next_u64(),
                mixer.next_u64(),
                mixer.next_u64(),
            ],
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
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

    /// A uniformly distributed value of a primitive type (`u8`–`u64`,
    /// `usize`, `bool`, or `f64` in `[0, 1)`).
    pub fn random<T: Standard>(&mut self) -> T {
        T::standard(self)
    }

    /// A uniform value from a half-open or inclusive integer range.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample_from(self)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` in `[0, bound)` without modulo bias (Lemire's
    /// multiply-shift with rejection).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn bounded_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let m = u128::from(self.next_u64()) * u128::from(bound);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Poisson-distributed count with mean `lambda`.
    ///
    /// Knuth's product method for small means; larger means split
    /// recursively (a sum of independent Poissons is Poisson), keeping the
    /// sampler exact and fully deterministic at any `lambda` it accepts.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= lambda <= POISSON_MAX_LAMBDA`.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(
            (0.0..=POISSON_MAX_LAMBDA).contains(&lambda),
            "lambda must be in [0, {POISSON_MAX_LAMBDA}], got {lambda}"
        );
        if lambda == 0.0 {
            return 0;
        }
        let mut remaining = lambda;
        let mut total = 0u64;
        // exp(-30) ≈ 1e-13 still sits comfortably inside f64 range, so the
        // product method stays numerically sound per chunk.
        while remaining > 30.0 {
            total += self.poisson_knuth(15.0);
            remaining -= 15.0;
        }
        total + self.poisson_knuth(remaining)
    }

    fn poisson_knuth(&mut self, lambda: f64) -> u64 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.uniform_f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Exponentially distributed waiting time with the given `rate`
    /// (mean `1 / rate`), via inversion.
    ///
    /// # Panics
    ///
    /// Panics unless `rate > 0`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive, got {rate}");
        // uniform_f64 is in [0, 1), so 1 − u is in (0, 1] and ln is finite.
        -(1.0 - self.uniform_f64()).ln() / rate
    }
}

/// Types a [`StdRng`] can draw uniformly over their whole domain
/// (`f64` means `[0, 1)`).
pub trait Standard: Sized {
    /// Draws one value.
    fn standard(rng: &mut Xoshiro256StarStar) -> Self;
}

impl Standard for u64 {
    fn standard(rng: &mut Xoshiro256StarStar) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn standard(rng: &mut Xoshiro256StarStar) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for u16 {
    fn standard(rng: &mut Xoshiro256StarStar) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl Standard for u8 {
    fn standard(rng: &mut Xoshiro256StarStar) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Standard for usize {
    fn standard(rng: &mut Xoshiro256StarStar) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for i64 {
    fn standard(rng: &mut Xoshiro256StarStar) -> Self {
        rng.next_u64() as i64
    }
}

impl Standard for i32 {
    fn standard(rng: &mut Xoshiro256StarStar) -> Self {
        (rng.next_u64() >> 32) as i32
    }
}

impl Standard for bool {
    fn standard(rng: &mut Xoshiro256StarStar) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn standard(rng: &mut Xoshiro256StarStar) -> Self {
        rng.uniform_f64()
    }
}

/// Ranges a [`StdRng`] can sample uniformly.
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draws one value from the range.
    fn sample_from(self, rng: &mut Xoshiro256StarStar) -> Self::Output;
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample_from(self, rng: &mut Xoshiro256StarStar) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + rng.bounded_u64(span) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from(self, rng: &mut Xoshiro256StarStar) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let span = (end as u64) - (start as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start + rng.bounded_u64(span + 1) as $t
            }
        }
    )*};
}

impl_sample_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample_from(self, rng: &mut Xoshiro256StarStar) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                (self.start as i64).wrapping_add(rng.bounded_u64(span) as i64) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from(self, rng: &mut Xoshiro256StarStar) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let span = (end as i64).wrapping_sub(start as i64) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (start as i64).wrapping_add(rng.bounded_u64(span + 1) as i64) as $t
            }
        }
    )*};
}

impl_sample_range_int!(i32, i64);

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    fn sample_from(self, rng: &mut Xoshiro256StarStar) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.uniform_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vectors() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64.c (Vigna).
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn uniform_f64_is_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_f64_mean_is_half() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.uniform_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn ranges_stay_in_bounds_and_hit_everything() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.random_range(2u32..9);
            assert!((2..9).contains(&v));
            seen[(v - 2) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 7 values reachable: {seen:?}");
        for _ in 0..1000 {
            let v = rng.random_range(5u8..=5);
            assert_eq!(v, 5);
        }
        for _ in 0..1000 {
            let v = rng.random_range(-4i64..4);
            assert!((-4..4).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        StdRng::seed_from_u64(0).random_range(3u32..3);
    }

    #[test]
    fn bounded_u64_is_unbiased_enough() {
        // Chi-square-ish sanity check over a bound that exercises the
        // rejection path (not a power of two).
        let mut rng = StdRng::seed_from_u64(9);
        let bound = 6u64;
        let n = 60_000u64;
        let mut counts = [0u64; 6];
        for _ in 0..n {
            counts[rng.bounded_u64(bound) as usize] += 1;
        }
        let expected = n as f64 / bound as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bucket {i}: {c} vs {expected}");
        }
    }

    #[test]
    fn poisson_matches_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(5);
        for &lambda in &[0.1, 2.5, 45.0] {
            let n = 20_000;
            let draws: Vec<u64> = (0..n).map(|_| rng.poisson(lambda)).collect();
            let mean = draws.iter().sum::<u64>() as f64 / n as f64;
            let var = draws
                .iter()
                .map(|&k| (k as f64 - mean).powi(2))
                .sum::<f64>()
                / n as f64;
            let tol = 4.0 * (lambda / n as f64).sqrt().max(0.01);
            assert!((mean - lambda).abs() < tol, "λ={lambda}: mean {mean}");
            assert!((var - lambda).abs() < 10.0 * tol, "λ={lambda}: var {var}");
        }
    }

    #[test]
    #[should_panic(expected = "lambda must be in")]
    fn poisson_rejects_a_mean_past_its_limit() {
        // 2^57 once made the chunk loop spin for good: 15 no longer
        // changes the remaining mean.
        StdRng::seed_from_u64(1).poisson(2f64.powi(57));
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn exponential_matches_mean() {
        let mut rng = StdRng::seed_from_u64(21);
        let rate = 0.25;
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
        for _ in 0..1000 {
            assert!(rng.exponential(3.0) >= 0.0);
        }
    }

    #[test]
    fn stream_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(stream_seed(0xda7a, i)));
        }
    }

    #[test]
    fn standard_bool_is_balanced() {
        let mut rng = StdRng::seed_from_u64(2);
        let trues = (0..10_000).filter(|_| rng.random::<bool>()).count();
        assert!((4_500..5_500).contains(&trues), "{trues}");
    }
}
