#![warn(missing_docs)]

//! A FaultSim-style Monte Carlo memory-resilience simulator.
//!
//! Reproduces the evaluation flow of §4/Table 4: per-chip fault arrivals
//! drawn from a Poisson process at a configurable FIT rate, fault modes
//! split per the Hopper field study [Sridharan et al., ASPLOS 2015],
//! Chipkill-Correct as the repair mechanism, five simulated years, and up
//! to a million iterations. Each iteration's fault set is handed to
//! [`soteria::analysis::ResilienceModel`], which determines where
//! Chipkill is defeated and how much data becomes lost (`L_error`) or
//! unverifiable (`L_unverifiable`) under each cloning policy — the inputs
//! to Figs. 11 and 12.
//!
//! # Example
//!
//! ```
//! use soteria_faultsim::{CampaignConfig, run_campaign};
//! use soteria::CloningPolicy;
//!
//! let mut config = CampaignConfig::table4(20.0); // 20 FIT per chip
//! config.iterations = 200;
//! config.capacity_bytes = 1 << 26; // small memory for the doctest
//! let results = run_campaign(&config, &[CloningPolicy::None, CloningPolicy::Relaxed]);
//! assert_eq!(results.len(), 2);
//! assert!(results[0].mean_udr >= results[1].mean_udr);
//! ```

pub mod campaign;
pub mod compare;
pub mod crashck;
pub mod job;
pub mod rare;
pub mod rates;
pub mod shard;

pub use campaign::{
    run_campaign, run_campaign_traced, sample_fault_history, sample_fault_set, CampaignConfig,
    PolicyResult, TimedFault,
};
pub use compare::{compare_config_from_json, run_compare, CompareConfig, CompareOutput, SchemeRow};
pub use crashck::{
    crashck_config_from_json, run_crashck, sweep_cell, CellDivergence, CrashckConfig, CrashckOutput,
};
pub use job::{
    config_from_json, report_json, run_job, run_spec, JobOutput, JobSpec, STANDARD_POLICIES,
};
pub use rare::{estimate_clone_udr, RareEventResult};
pub use rates::{FaultMode, FitRates};
pub use shard::{blocks_spec_from_json, merge_partials, run_block_range, total_blocks};

/// Hours in the five-year simulated service life used by the paper.
pub const FIVE_YEARS_HOURS: f64 = 5.0 * 365.25 * 24.0;

/// Mean time between failures for a cluster, in hours — the §4 sanity
/// check against large-scale field studies (7–23 h for ~20k nodes).
///
/// `fit_per_chip` is the total FIT per DRAM device; the fleet is
/// `nodes × dimms_per_node × chips_per_dimm` devices.
pub fn cluster_mtbf_hours(
    fit_per_chip: f64,
    nodes: u64,
    dimms_per_node: u64,
    chips_per_dimm: u64,
) -> f64 {
    let devices = (nodes * dimms_per_node * chips_per_dimm) as f64;
    1e9 / (fit_per_chip * devices)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mtbf_matches_paper_range() {
        // §4: 1 FIT -> 694 h, 80 FIT -> 8.6 h for 20k nodes x 4 DIMMs x 18
        // chips.
        let low = cluster_mtbf_hours(1.0, 20_000, 4, 18);
        let high = cluster_mtbf_hours(80.0, 20_000, 4, 18);
        assert!((low - 694.4).abs() < 1.0, "1 FIT -> {low} h");
        assert!((high - 8.68).abs() < 0.1, "80 FIT -> {high} h");
    }

    #[test]
    fn mtbf_scales_inversely_with_fit() {
        let a = cluster_mtbf_hours(10.0, 1000, 4, 18);
        let b = cluster_mtbf_hours(20.0, 1000, 4, 18);
        assert!((a / b - 2.0).abs() < 1e-9);
    }
}
