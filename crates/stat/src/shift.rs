//! Distribution-shift scoring between a baseline and a degraded sample.
//!
//! Fault fingerprinting (`keddah-diagnose`) asks, per traffic component:
//! *did this dimension's distribution move, and by how much?* The answer
//! is a two-sample Kolmogorov–Smirnov comparison plus the first-moment
//! ratio, wrapped in a serializable [`ShiftScore`]. Small samples go
//! through the exact [`crate::ks::ks_two_sample`]; past
//! [`EXACT_SHIFT_CAP`] observations per side the comparison switches to
//! Greenwald–Khanna sketches and a sketched two-sample KS, the
//! two-sample sibling of the streaming one-sample test from the serve
//! path — its statistic is within `2(ε_a + ε_b)` of the exact one, so a
//! diagnosis over a million-flow trace costs sketch memory, not a sort
//! of the world.

use crate::ks::{kolmogorov_sf, ks_two_sample, KsResult};
use crate::sketch::{GkSketch, StreamingQuantiles};
use crate::{Result, StatError};

/// Per-side sample size above which [`shift_between`] switches from the
/// exact two-sample KS to the sketched one.
pub const EXACT_SHIFT_CAP: usize = 4096;

/// Rank-error parameter used for the sketched comparison; the KS
/// statistic is then within `4ε = 0.02` of exact — far below any
/// decision threshold a fingerprint rule uses.
pub const SHIFT_SKETCH_EPS: f64 = 0.005;

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

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Two-sample KS between two GK sketches.
///
/// Both step CDFs are evaluated exactly at the union of the sketches'
/// supports (where any supremum over step functions is attained), so the
/// only error is each sketch's own CDF error: the returned statistic is
/// within `2(ε_a + ε_b)` of the exact two-sample statistic on the
/// underlying streams.
///
/// # Errors
///
/// Returns [`StatError::EmptySample`] when either sketch is empty.
fn ks_two_sample_sketch(a: &GkSketch, b: &GkSketch) -> Result<KsResult> {
    if a.count() == 0 || b.count() == 0 {
        return Err(StatError::EmptySample);
    }
    let mut support = a.support();
    support.extend(b.support());
    support.sort_by(f64::total_cmp);
    support.dedup();
    let mut d: f64 = 0.0;
    for &x in &support {
        d = d.max((a.cdf(x) - b.cdf(x)).abs());
    }
    let (na, nb) = (a.count() as f64, b.count() as f64);
    let ne = (na * nb) / (na + nb);
    let p_value = kolmogorov_sf(d * (ne.sqrt() + 0.12 + 0.11 / ne.sqrt()));
    Ok(KsResult {
        statistic: d,
        p_value,
    })
}

/// Scores the distribution shift from `baseline` to `degraded`.
///
/// Non-finite observations are dropped (a diagnosis input is historical
/// artefact data, not a place to panic). Samples up to
/// [`EXACT_SHIFT_CAP`] per side use the exact two-sample KS; larger ones
/// stream both sides through [`SHIFT_SKETCH_EPS`] GK sketches.
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
    let ks = if base.len() <= EXACT_SHIFT_CAP && deg.len() <= EXACT_SHIFT_CAP {
        ks_two_sample(&base, &deg)?
    } else {
        let mut sa = GkSketch::new(SHIFT_SKETCH_EPS)?;
        let mut sb = GkSketch::new(SHIFT_SKETCH_EPS)?;
        for &x in &base {
            sa.observe(x);
        }
        for &x in &deg {
            sb.observe(x);
        }
        ks_two_sample_sketch(&sa, &sb)?
    };
    Ok(ShiftScore {
        n_baseline: base.len() as u64,
        n_degraded: deg.len() as u64,
        ks: ks.statistic,
        p_value: ks.p_value,
        mean_baseline: mean(&base),
        mean_degraded: mean(&deg),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn sketched_path_tracks_exact_within_bound() {
        // Push both sides past EXACT_SHIFT_CAP so shift_between takes
        // the sketch path, and check it against the exact statistic.
        let mut rng = StdRng::seed_from_u64(77);
        let base: Vec<f64> = (0..6000).map(|_| rng.random_range(0.0..1.0)).collect();
        let deg: Vec<f64> = (0..6000)
            .map(|_| rng.random_range(0.0..1.0) + 0.2)
            .collect();
        let sketched = shift_between(&base, &deg).unwrap();
        let exact = ks_two_sample(&base, &deg).unwrap();
        let bound = 4.0 * SHIFT_SKETCH_EPS + 1e-9;
        assert!(
            (sketched.ks - exact.statistic).abs() <= bound,
            "sketched {} vs exact {}",
            sketched.ks,
            exact.statistic
        );
    }

    #[test]
    fn sketch_two_sample_rejects_empty() {
        let empty = GkSketch::new(0.01).unwrap();
        let mut full = GkSketch::new(0.01).unwrap();
        full.observe(1.0);
        assert!(ks_two_sample_sketch(&empty, &full).is_err());
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
