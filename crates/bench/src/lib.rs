#![warn(missing_docs)]

//! Shared helpers for the experiment harness that regenerates every table
//! and figure of the paper (see `DESIGN.md` for the index).
//!
//! Each `fig*` binary prints the same rows/series the paper reports.
//! Runs are sized by two environment variables so CI can use quick passes
//! while full reproductions crank them up:
//!
//! * `SOTERIA_OPS` — memory operations per workload for the performance
//!   figures (default 200 000),
//! * `SOTERIA_ITERS` — Monte Carlo iterations per FIT point for the
//!   resilience figures (default 100 000).

use soteria::clone::CloningPolicy;
use soteria_simcpu::{RunResult, System, SystemConfig};
use soteria_workloads::{standard_suite, SuiteConfig};

/// Reads a sizing knob from the environment.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Geometric mean of a nonempty slice.
///
/// # Panics
///
/// Panics on an empty slice or non-positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean needs positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// The three schemes of the evaluation, in figure order.
pub fn schemes() -> Vec<CloningPolicy> {
    vec![
        CloningPolicy::None,
        CloningPolicy::Relaxed,
        CloningPolicy::Aggressive,
    ]
}

/// Runs every workload of the suite under every scheme; rows come back
/// grouped per workload in scheme order. Runs in parallel across
/// (workload, scheme) pairs.
pub fn run_performance_suite(ops: u64, footprint: u64, capacity: u64) -> Vec<Vec<RunResult>> {
    let policies = schemes();
    let suite_config = SuiteConfig {
        footprint_bytes: footprint,
        seed: 0xda7a,
    };
    let names: Vec<String> = standard_suite(&suite_config)
        .iter()
        .map(|w| w.name().to_string())
        .collect();

    let mut jobs: Vec<(usize, usize)> = Vec::new();
    for w in 0..names.len() {
        for p in 0..policies.len() {
            jobs.push((w, p));
        }
    }
    let results: Vec<(usize, usize, RunResult)> = soteria_rt::thread::parallel_map(
        jobs,
        soteria_rt::thread::default_threads(),
        |(w, p)| {
            let mut workloads = standard_suite(&suite_config);
            let workload = &mut workloads[w];
            let mut system = System::new(SystemConfig::table3(policies[p].clone(), capacity));
            let result = system.run(workload.as_mut(), ops);
            (w, p, result)
        },
    );

    let mut grouped: Vec<Vec<Option<RunResult>>> = vec![vec![None, None, None]; names.len()];
    for (w, p, r) in results {
        grouped[w][p] = Some(r);
    }
    grouped
        .into_iter()
        .map(|row| row.into_iter().map(|r| r.expect("every job ran")).collect())
        .collect()
}

/// Prints a separator-framed section header.
pub fn header(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

/// Formats a ratio as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Opens a CSV sink for machine-readable figure data when `SOTERIA_CSV`
/// names a directory (created if missing). Each figure binary writes one
/// `<name>.csv` alongside its human-readable table.
pub fn csv_sink(name: &str) -> Option<std::fs::File> {
    let dir = std::env::var("SOTERIA_CSV").ok()?;
    std::fs::create_dir_all(&dir).ok()?;
    std::fs::File::create(std::path::Path::new(&dir).join(format!("{name}.csv"))).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_mixed() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[0.0, 1.0]);
    }

    #[test]
    fn env_default_applies() {
        assert_eq!(env_u64("SOTERIA_SURELY_UNSET_VAR", 7), 7);
    }

    /// Both states of `SOTERIA_CSV` in one test: the variable is
    /// process-wide, so two tests setting it race on parallel threads.
    #[test]
    fn csv_sink_follows_env() {
        use std::io::Write;
        std::env::remove_var("SOTERIA_CSV");
        assert!(csv_sink("nope").is_none());

        let dir = std::env::temp_dir().join("soteria_csv_test");
        std::env::set_var("SOTERIA_CSV", &dir);
        let mut f = csv_sink("probe").expect("sink");
        writeln!(f, "a,b").unwrap();
        std::env::remove_var("SOTERIA_CSV");
        let content = std::fs::read_to_string(dir.join("probe.csv")).unwrap();
        assert_eq!(content, "a,b\n");
    }

    #[test]
    fn schemes_are_three() {
        let s = schemes();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].name(), "Baseline");
        assert_eq!(s[1].name(), "SRC");
        assert_eq!(s[2].name(), "SAC");
    }
}
