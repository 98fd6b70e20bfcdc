//! Fault-mode rates from the Hopper field study.
//!
//! Sridharan et al. ("Memory Errors in Modern Systems: The Good, The Bad,
//! and The Ugly", ASPLOS 2015 — reference 39 of the paper) report
//! per-device failure rates for the Hopper supercomputer's DDR3 DRAM,
//! broken down by fault mode and permanence. The absolute values below
//! follow that study's published magnitudes; the paper sweeps the *total*
//! FIT anyway ("varied to get sensitivity analysis"), preserving this
//! relative mix via [`FitRates::scaled_to`].

/// The fault modes of the DRAM field-study taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultMode {
    /// One cell.
    SingleBit,
    /// One word (one beat of one line).
    SingleWord,
    /// One column of a bank.
    SingleColumn,
    /// One row of a bank.
    SingleRow,
    /// One whole bank.
    SingleBank,
    /// Several banks of a chip.
    MultiBank,
    /// Rank-level circuitry: every chip of the rank.
    MultiRank,
}

/// The highest FIT per chip that a campaign, a compare job or the
/// rare-event estimator accepts from its input. Field studies report
/// tens of FIT per device (Hopper totals 84.4), so the bound leaves room
/// for any sweep, while keeping every Poisson mean a campaign draws small
/// enough that a draw ends quickly.
pub const MAX_FIT_PER_CHIP: f64 = 10_000.0;

/// A FIT per chip outside `(0, MAX_FIT_PER_CHIP]`: not positive, not a
/// number, or too large.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FitOutOfRange(pub f64);

impl std::fmt::Display for FitOutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FIT per chip must be a positive number of at most {MAX_FIT_PER_CHIP}, got {:?}",
            self.0
        )
    }
}

impl std::error::Error for FitOutOfRange {}

/// `fit` if it is a FIT per chip that campaigns accept.
///
/// # Errors
///
/// [`FitOutOfRange`] unless `0 < fit <= MAX_FIT_PER_CHIP`.
pub fn checked_fit(fit: f64) -> Result<f64, FitOutOfRange> {
    if fit > 0.0 && fit <= MAX_FIT_PER_CHIP {
        Ok(fit)
    } else {
        Err(FitOutOfRange(fit))
    }
}

/// All modes, in a stable order.
pub const ALL_MODES: [FaultMode; 7] = [
    FaultMode::SingleBit,
    FaultMode::SingleWord,
    FaultMode::SingleColumn,
    FaultMode::SingleRow,
    FaultMode::SingleBank,
    FaultMode::MultiBank,
    FaultMode::MultiRank,
];

/// FIT (failures per 10^9 device-hours) per fault mode, split by
/// permanence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FitRates {
    /// Permanent (hard) FIT per mode, indexed like [`ALL_MODES`].
    pub permanent: [f64; 7],
    /// Transient (soft) FIT per mode.
    pub transient: [f64; 7],
}

impl FitRates {
    /// The Hopper DDR3 distribution (per-device FIT, ASPLOS 2015).
    pub fn hopper() -> Self {
        Self {
            //           bit   word   col   row   bank  mbank mrank
            permanent: [18.6, 0.3, 5.6, 8.2, 10.0, 1.4, 2.8],
            transient: [30.7, 1.0, 1.4, 0.9, 2.8, 0.2, 0.8],
        }
    }

    /// Total FIT per device.
    pub fn total(&self) -> f64 {
        self.permanent.iter().sum::<f64>() + self.transient.iter().sum::<f64>()
    }

    /// Returns the same mode mix rescaled so that [`Self::total`] equals
    /// `total_fit` — the paper's FIT sweep knob.
    ///
    /// # Panics
    ///
    /// Panics if `total_fit` is not positive.
    pub fn scaled_to(&self, total_fit: f64) -> Self {
        assert!(total_fit > 0.0, "total FIT must be positive");
        let k = total_fit / self.total();
        let mut out = *self;
        for v in out.permanent.iter_mut().chain(out.transient.iter_mut()) {
            *v *= k;
        }
        out
    }

    /// FIT of one (mode, permanence) bucket.
    pub fn rate(&self, mode: FaultMode, permanent: bool) -> f64 {
        let idx = ALL_MODES
            .iter()
            .position(|&m| m == mode)
            .expect("mode listed");
        if permanent {
            self.permanent[idx]
        } else {
            self.transient[idx]
        }
    }

    /// Enumerates (mode, permanent, fit) buckets with nonzero rates.
    pub fn buckets(&self) -> Vec<(FaultMode, bool, f64)> {
        let mut out = Vec::with_capacity(14);
        for (i, &mode) in ALL_MODES.iter().enumerate() {
            if self.permanent[i] > 0.0 {
                out.push((mode, true, self.permanent[i]));
            }
            if self.transient[i] > 0.0 {
                out.push((mode, false, self.transient[i]));
            }
        }
        out
    }
}

impl Default for FitRates {
    fn default() -> Self {
        Self::hopper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hopper_total_is_plausible() {
        // Published DDR3 totals are a few tens of FIT per device.
        let t = FitRates::hopper().total();
        assert!((50.0..120.0).contains(&t), "total {t}");
    }

    #[test]
    fn scaling_preserves_mix() {
        let h = FitRates::hopper();
        let s = h.scaled_to(80.0);
        assert!((s.total() - 80.0).abs() < 1e-9);
        let ratio = s.permanent[0] / h.permanent[0];
        for i in 0..7 {
            assert!((s.permanent[i] / h.permanent[i] - ratio).abs() < 1e-12);
            assert!((s.transient[i] / h.transient[i] - ratio).abs() < 1e-12);
        }
    }

    #[test]
    fn buckets_cover_all_nonzero() {
        let b = FitRates::hopper().buckets();
        assert_eq!(b.len(), 14);
        let sum: f64 = b.iter().map(|&(_, _, f)| f).sum();
        assert!((sum - FitRates::hopper().total()).abs() < 1e-9);
    }

    #[test]
    fn rate_lookup() {
        let h = FitRates::hopper();
        assert_eq!(h.rate(FaultMode::SingleBit, true), 18.6);
        assert_eq!(h.rate(FaultMode::MultiRank, false), 0.8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scaled_to_validates() {
        let _ = FitRates::hopper().scaled_to(0.0);
    }
}
