//! Distribution-shift scoring between a baseline and a degraded sample.
//!
//! Fault fingerprinting (`keddah-diagnose`) asks, per traffic component:
//! *did this dimension's distribution move, and by how much?* The answer
//! is an exact two-sample Kolmogorov–Smirnov comparison
//! ([`crate::ks::ks_two_sample`], at every sample size) plus the
//! first-moment ratio, wrapped in a serializable [`ShiftScore`].

use crate::ks::ks_two_sample_owned;
use crate::{Result, StatError};

/// The outcome of comparing one dimension across two runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftScore {
    /// Baseline sample size.
    pub n_baseline: u64,
    /// Degraded sample size.
    pub n_degraded: u64,
    /// Two-sample KS statistic `sup |F_base - F_degraded|`.
    pub ks: f64,
    /// Asymptotic p-value of the KS statistic.
    pub p_value: f64,
    /// Baseline sample mean.
    pub mean_baseline: f64,
    /// Degraded sample mean.
    pub mean_degraded: f64,
}

impl ShiftScore {
    /// Degraded-over-baseline mean ratio; 1.0 when the baseline mean is
    /// zero or non-finite (no inflation claim possible).
    #[must_use]
    pub fn mean_ratio(&self) -> f64 {
        if self.mean_baseline > 0.0 && self.mean_baseline.is_finite() {
            let r = self.mean_degraded / self.mean_baseline;
            if r.is_finite() {
                return r;
            }
        }
        1.0
    }

    /// True when the shift is statistically significant at `alpha` and
    /// the distance exceeds `min_ks` — the gate fingerprint rules use
    /// so run-to-run noise on small samples never reads as a fault.
    #[must_use]
    pub fn significant(&self, min_ks: f64, alpha: f64) -> bool {
        self.ks >= min_ks && self.p_value <= alpha
    }
}

/// The mean of a non-empty sample, summed in its order.
fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Scores the distribution shift from `baseline` to `degraded`.
///
/// Non-finite observations are dropped (a diagnosis input is historical
/// artefact data, not a place to panic). The KS statistic and p-value are
/// [`ks_two_sample`](crate::ks::ks_two_sample)'s on the finite values, bit
/// for bit, whatever the sample sizes.
///
/// # Errors
///
/// Returns [`StatError::EmptySample`] when either side has no finite
/// observation.
pub fn shift_between(baseline: &[f64], degraded: &[f64]) -> Result<ShiftScore> {
    let base: Vec<f64> = baseline.iter().copied().filter(|x| x.is_finite()).collect();
    let deg: Vec<f64> = degraded.iter().copied().filter(|x| x.is_finite()).collect();
    if base.is_empty() || deg.is_empty() {
        return Err(StatError::EmptySample);
    }
    // The means sum in arrival order, before the KS test sorts the copies.
    let (n_baseline, n_degraded) = (base.len() as u64, deg.len() as u64);
    let (mean_baseline, mean_degraded) = (mean(&base), mean(&deg));
    let ks = ks_two_sample_owned(base, deg)?;
    Ok(ShiftScore {
        n_baseline,
        n_degraded,
        ks: ks.statistic,
        p_value: ks.p_value,
        mean_baseline,
        mean_degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_score_zero_shift() {
        let xs: Vec<f64> = (0..500).map(f64::from).collect();
        let s = shift_between(&xs, &xs).unwrap();
        assert_eq!(s.ks, 0.0);
        assert!((s.mean_ratio() - 1.0).abs() < 1e-12);
        assert!(!s.significant(0.05, 0.05));
    }

    #[test]
    fn inflated_sample_scores_large_shift() {
        let base: Vec<f64> = (1..400).map(f64::from).collect();
        let deg: Vec<f64> = base.iter().map(|x| x * 2.0).collect();
        let s = shift_between(&base, &deg).unwrap();
        assert!(s.ks > 0.3, "ks = {}", s.ks);
        assert!(s.significant(0.1, 0.01));
        assert!((s.mean_ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn non_finite_observations_are_dropped_not_fatal() {
        let base = vec![1.0, f64::NAN, 2.0, 3.0];
        let deg = vec![1.0, 2.0, f64::INFINITY, 3.0];
        let s = shift_between(&base, &deg).unwrap();
        assert_eq!(s.n_baseline, 3);
        assert_eq!(s.n_degraded, 3);
        assert_eq!(s.ks, 0.0);
    }

    #[test]
    fn empty_sides_error_not_panic() {
        assert!(matches!(
            shift_between(&[], &[1.0]),
            Err(StatError::EmptySample)
        ));
        assert!(matches!(
            shift_between(&[f64::NAN], &[1.0]),
            Err(StatError::EmptySample)
        ));
    }

    #[test]
    fn mean_ratio_guards_zero_baseline() {
        let s = ShiftScore {
            n_baseline: 1,
            n_degraded: 1,
            ks: 0.0,
            p_value: 1.0,
            mean_baseline: 0.0,
            mean_degraded: 5.0,
        };
        assert_eq!(s.mean_ratio(), 1.0);
    }
}
