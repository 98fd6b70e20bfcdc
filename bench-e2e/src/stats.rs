//! Order statistics, latency sampling and failure counting.

use std::time::Instant;

use soteria_workloads::Splitmix;

/// The benchmark's one wall-clock source: it measures host time by
/// design, so this is the single place that reads the clock.
pub fn now() -> Instant {
    Instant::now() // lint:allow(D1, the benchmark measures host wall time by design)
}

/// Nanoseconds elapsed since `start`.
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` (sorted in place),
/// interpolated linearly between the two nearest order statistics (the
/// convention of numpy's default and of Python's
/// `statistics.quantiles(method="inclusive")`). `NaN` for no values.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => f64::NAN,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of unsorted `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// A fixed-capacity uniform sample of call latencies (Vitter's
/// Algorithm R). The buffer is allocated once, before any timed call,
/// so the sampler neither grows the heap the benchmark reports nor
/// quantizes the latencies it keeps: every kept value is exact.
#[derive(Clone, Debug)]
pub struct Reservoir {
    samples: Vec<f64>,
    capacity: usize,
    seen: u64,
    rng: Splitmix,
}

impl Reservoir {
    /// A reservoir keeping at most `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        Self {
            samples: Vec::with_capacity(capacity),
            capacity,
            seen: 0,
            rng: Splitmix::new(RESERVOIR_SEED),
        }
    }

    /// Offers one observation.
    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(value);
        } else {
            let slot = self.rng.below(self.seen);
            if let Some(kept) = self.samples.get_mut(slot as usize) {
                *kept = value;
            }
        }
    }

    /// Observations offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Observations kept (the sample count behind every quantile).
    pub fn kept(&self) -> usize {
        self.samples.len()
    }

    /// The `q`-quantile of the kept sample.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.samples.clone();
        quantile(&mut sorted, q)
    }
}

/// The fixed seed of the reservoir's slot choice: which calls are kept
/// depends on the call sequence only, never on the workload seed.
const RESERVOIR_SEED: u64 = 0x5a3_91e;

/// Attempted and failed operations of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Records one operation's outcome.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts an operation that was attempted earlier as failed after
    /// all (a put acknowledged before a restart and lost by it).
    pub fn fail_acknowledged(&mut self) {
        self.failed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        let mut ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&mut ten, 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(median(&mut [7.0]), 7.0);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn reservoir_keeps_everything_below_capacity_and_bounds_above() {
        let mut r = Reservoir::new(100);
        for i in 0..50 {
            r.push(f64::from(i));
        }
        assert_eq!((r.seen(), r.kept()), (50, 50));
        assert_eq!(r.quantile(0.5), 24.5);
        for i in 50..10_000 {
            r.push(f64::from(i));
        }
        assert_eq!((r.seen(), r.kept()), (10_000, 100));
        // A uniform sample of 0..10000: its median sits near the middle.
        let m = r.quantile(0.5);
        assert!((2_000.0..8_000.0).contains(&m), "median {m}");
    }

    #[test]
    fn tally_counts_attempts_failures_and_late_losses() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.record(true);
        t.fail_acknowledged();
        assert_eq!(
            t,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
    }
}
