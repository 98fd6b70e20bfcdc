//! `campaign`: many small single-thread `run_campaign` calls over the
//! Baseline/SRC/SAC roster on the Table 4 16 GiB DIMM at FIT 1500.
//!
//! Call `i` draws its fault histories from `stream_seed(seed, i)`, so a
//! run's inputs follow from the workload seed alone. The controller does
//! no work here: fault sampling and loss assessment do all of it.

use soteria_faultsim::{
    run_campaign, sample_fault_history, CampaignConfig, FitRates, PolicyResult, STANDARD_POLICIES,
};
use soteria_rt::json::Json;
use soteria_rt::rng::{stream_seed, StdRng};

use crate::stats::{self, Tally};
use crate::trace::Tracer;
use crate::{Metric, Outcome, Phase, Unit};

/// Total FIT per chip (compare's default): high enough that most
/// iterations see a fault and some defeat Chipkill.
pub const FIT_PER_CHIP: f64 = 1500.0;
/// Monte Carlo iterations per call: one 64-iteration accumulation block.
pub const ITERS_PER_CALL: u64 = 64;
/// Calls per round (runs attempt whole rounds).
pub const CALLS_PER_ROUND: u64 = 8;
/// Untimed calls in each set-up.
pub const WARMUP_CALLS: u64 = 32;
/// Seed of the set-up's inputs, the same in every run. A call's peak heap
/// is set by its heaviest iteration and rises in steps of about 15 MB;
/// these inputs reach the fourth step, which a 20-second run's own calls
/// reach only sometimes, so every run reports the same high-water mark
/// instead of whichever step its seed happens to draw. No run's timed
/// calls use this seed.
pub const WARMUP_SEED: u64 = 59;
/// Calls in a traced unit.
pub const TRACE_CALLS: u64 = 400;
/// Chips on the Table 4 DIMM and per rank.
const CHIPS: f64 = 18.0;
const CHIPS_PER_RANK: f64 = 9.0;
/// The 5-year service horizon, hours.
const HORIZON_HOURS: f64 = 5.0 * 365.25 * 24.0;

/// The configuration of call `call` of a run seeded with `seed`.
pub fn config(seed: u64, call: u64) -> CampaignConfig {
    let mut c = CampaignConfig::table4(FIT_PER_CHIP);
    c.iterations = ITERS_PER_CALL;
    c.seed = stream_seed(seed, call);
    c.threads = 1;
    c
}

/// Expected faults per iteration at `fit` per chip, computed from the
/// Hopper mode mix: every chip draws each mode except multi-rank, which
/// is drawn once per rank position.
pub fn expected_faults_per_iteration(fit: f64) -> f64 {
    let hopper = FitRates::hopper();
    let scale = fit / hopper.total();
    let per_mode = |i: usize| (hopper.permanent[i] + hopper.transient[i]) * scale;
    let rank_mode = per_mode(6);
    let chip_modes: f64 = (0..6).map(per_mode).sum();
    (chip_modes * CHIPS + rank_mode * CHIPS_PER_RANK) * HORIZON_HOURS / 1e9
}

/// Checks one call's results: UDR ordered Baseline ≥ SRC ≥ SAC and
/// `L_error` identical across policies.
pub fn check_call(results: &[PolicyResult]) -> Result<(), String> {
    let [base, src, sac] = results else {
        return Err(format!("{} policy results, expected 3", results.len()));
    };
    if !(base.mean_udr >= src.mean_udr && src.mean_udr >= sac.mean_udr) {
        return Err(format!(
            "UDR not ordered Baseline >= SRC >= SAC: {} {} {}",
            base.mean_udr, src.mean_udr, sac.mean_udr
        ));
    }
    if base.mean_error_ratio.to_bits() != src.mean_error_ratio.to_bits()
        || src.mean_error_ratio.to_bits() != sac.mean_error_ratio.to_bits()
    {
        return Err(format!(
            "L_error differs across policies: {} {} {}",
            base.mean_error_ratio, src.mean_error_ratio, sac.mean_error_ratio
        ));
    }
    Ok(())
}

/// Iterations that saw at least one fault, out of all simulated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultShare {
    /// Iterations simulated.
    pub iterations: u64,
    /// Iterations with at least one fault.
    pub faulted: u64,
}

impl FaultShare {
    /// Adds one call's (or job's) results.
    pub fn add(&mut self, results: &[PolicyResult]) {
        if let Some(r) = results.first() {
            self.iterations += r.iterations;
            self.faulted += r.iterations_with_faults;
        }
    }

    /// Checks the faulted share at `fit` per chip against `1 − e^(−λ)`
    /// within five binomial standard deviations (plus one iteration).
    pub fn check(&self, fit: f64) -> Result<(), String> {
        let n = self.iterations as f64;
        let p = 1.0 - (-expected_faults_per_iteration(fit)).exp();
        let tolerance = 5.0 * (n * p * (1.0 - p)).sqrt() + 1.0;
        if (self.faulted as f64 - n * p).abs() > tolerance {
            return Err(format!(
                "{} of {} iterations saw a fault; 1 - e^-lambda predicts {:.1} +- {:.1}",
                self.faulted,
                self.iterations,
                n * p,
                tolerance
            ));
        }
        Ok(())
    }
}

/// One call: runs and checks it.
fn call(seed: u64, i: u64, share: &mut FaultShare) -> Result<(), String> {
    let results = run_campaign(&config(seed, i), &STANDARD_POLICIES);
    check_call(&results)?;
    share.add(&results);
    Ok(())
}

/// The untraced measurement.
pub fn measure(seed: u64, seconds: f64) -> Outcome {
    let mut tally = Tally::default();
    // Set-up: untimed calls on fixed inputs (the same in every run, so
    // set-up time does not depend on the seed's heavy-tailed draws)
    // bring the code and the allocator to steady state.
    let warm = crate::timed_setups(|| {
        (0..WARMUP_CALLS).try_for_each(|i| call(WARMUP_SEED, i, &mut FaultShare::default()))
    });
    let setup_s = match warm {
        Ok(((), s)) => s,
        Err(e) => return Outcome::wrong(e, tally),
    };
    let mut share = FaultShare::default();
    let mut phase = Phase::start();
    let mut i = 0;
    while phase.elapsed_s() < seconds {
        for _ in 0..CALLS_PER_ROUND {
            let t0 = stats::now();
            let r = call(seed, i, &mut share);
            phase.calls.push(stats::ns_since(t0) as f64);
            tally.record(r.is_ok());
            if let Err(e) = r {
                return Outcome::wrong(e, tally);
            }
            phase.work += ITERS_PER_CALL;
            i += 1;
        }
    }
    let metrics = phase.end_to_end(setup_s);
    match share.check(FIT_PER_CHIP) {
        Ok(()) => Outcome::ok(tally, metrics),
        Err(e) => Outcome::wrong(e, tally),
    }
}

/// The traced unit: [`TRACE_CALLS`] calls untraced, the same calls
/// traced, then their fault sampling replayed alone on the same streams.
pub fn traced(seed: u64, tracer: &mut Tracer) -> Unit {
    let mut tally = Tally::default();
    let mut share = FaultShare::default();
    let t0 = stats::now();
    for i in 0..TRACE_CALLS {
        let r = call(seed, i, &mut FaultShare::default());
        tally.record(r.is_ok());
        if let Err(e) = r {
            return Unit::wrong(e, tally);
        }
    }
    let untraced_ns = stats::ns_since(t0);
    let t1 = stats::now();
    let mut faults = 0u64;
    for i in 0..TRACE_CALLS {
        let r = tracer.span("faultsim.run_campaign", i, || call(seed, i, &mut share));
        tally.record(r.is_ok());
        if let Err(e) = r {
            return Unit::wrong(e, tally);
        }
    }
    let traced_ns = stats::ns_since(t1);
    if let Err(e) = share.check(FIT_PER_CHIP) {
        return Unit::wrong(e, tally);
    }
    // Sampling replay: the exact per-iteration streams the calls drew.
    let t2 = stats::now();
    for i in 0..TRACE_CALLS {
        let c = config(seed, i);
        let layout = c.build_layout();
        let geometry = c.build_geometry(&layout);
        let rates = c.rates.scaled_to(c.fit_per_chip);
        let open = tracer.enter("faultsim.sample_fault_history", i);
        for iter in 0..c.iterations {
            let mut rng = StdRng::seed_from_u64(stream_seed(c.seed, iter));
            faults += sample_fault_history(&mut rng, &geometry, &rates, c.hours).len() as u64;
        }
        tracer.exit(open);
    }
    let sample_ns = stats::ns_since(t2);
    let iters = (TRACE_CALLS * ITERS_PER_CALL) as f64;
    let metrics = vec![
        Metric::new(
            "faultsim.campaign.sample_us_per_iter",
            sample_ns as f64 / iters / 1e3,
            "us",
        ),
        Metric::new(
            "core.analysis.assess_us_per_iter",
            (untraced_ns as f64 - sample_ns as f64) / iters / 1e3,
            "us",
        ),
    ];
    let counters = Json::Obj(vec![
        ("calls".into(), Json::Num(TRACE_CALLS as f64)),
        ("iterations".into(), Json::Num(iters)),
        (
            "iterations_with_faults".into(),
            Json::Num(share.faulted as f64),
        ),
        ("faults_sampled".into(), Json::Num(faults as f64)),
        (
            "expected_faults_per_iteration".into(),
            Json::Num(expected_faults_per_iteration(FIT_PER_CHIP)),
        ),
    ]);
    Unit {
        check: Ok(()),
        tally,
        metrics,
        counters,
        overhead: traced_ns as f64 / untraced_ns as f64 - 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_matches_the_hopper_table_at_fit_1500() {
        // 1500 FIT per chip over 18 chips for 5 years, less the
        // multi-rank share that is drawn per rank position only.
        let lambda = expected_faults_per_iteration(1500.0);
        let all_chips = 1500.0 * 18.0 * HORIZON_HOURS / 1e9;
        assert!(lambda < all_chips && lambda > 0.9 * all_chips, "{lambda}");
    }

    #[test]
    fn a_seeded_wrong_udr_order_fails_the_check() {
        let results = run_campaign(&config(3, 0), &STANDARD_POLICIES);
        check_call(&results).expect("real results pass");
        let mut wrong = results.clone();
        wrong[2].mean_udr = wrong[0].mean_udr + 1e-3;
        assert!(check_call(&wrong).is_err());
        let mut wrong = results;
        wrong[1].mean_error_ratio += 1e-9;
        assert!(check_call(&wrong).is_err());
    }

    #[test]
    fn fault_share_check_rejects_a_wrong_rate() {
        let n = 10_000;
        let p = 1.0 - (-expected_faults_per_iteration(1500.0)).exp();
        let right = FaultShare {
            iterations: n,
            faulted: (n as f64 * p) as u64,
        };
        right.check(1500.0).expect("expected share passes");
        let wrong = FaultShare {
            iterations: n,
            faulted: (n as f64 * p * 0.9) as u64,
        };
        assert!(wrong.check(1500.0).is_err());
        assert!(right.check(80.0).is_err());
    }
}
