//! Time-series summaries: binned arrival counts and burstiness.
//!
//! Marginal distributions do not capture *when* flows arrive relative to
//! each other; these helpers quantify that second-order structure so the
//! toolchain can report how bursty captured traffic is and how much of
//! that burstiness generated traffic retains (the fig7 tail discussion
//! in EXPERIMENTS.md).

use crate::{Result, StatError};

/// Bins event timestamps into equal-width windows and returns per-bin
/// counts covering `[0, horizon)`.
///
/// # Errors
///
/// Returns [`StatError::InvalidParameter`] if `bin_width` or `horizon`
/// is not positive/finite, or a timestamp is not finite.
///
/// # Examples
///
/// ```
/// use keddah_stat::series::bin_counts;
///
/// let counts = bin_counts(&[0.1, 0.2, 1.5, 2.9], 1.0, 3.0).unwrap();
/// assert_eq!(counts, vec![2.0, 1.0, 1.0]);
/// ```
pub fn bin_counts(timestamps: &[f64], bin_width: f64, horizon: f64) -> Result<Vec<f64>> {
    if !(bin_width > 0.0 && bin_width.is_finite()) {
        return Err(StatError::InvalidParameter {
            name: "bin_width",
            value: bin_width,
        });
    }
    if !(horizon > 0.0 && horizon.is_finite()) {
        return Err(StatError::InvalidParameter {
            name: "horizon",
            value: horizon,
        });
    }
    let n_bins = (horizon / bin_width).ceil() as usize;
    let mut counts = vec![0.0; n_bins.max(1)];
    for &t in timestamps {
        if !t.is_finite() {
            return Err(StatError::InvalidParameter {
                name: "timestamp",
                value: t,
            });
        }
        if t < 0.0 || t >= horizon {
            continue;
        }
        counts[(t / bin_width) as usize] += 1.0;
    }
    Ok(counts)
}

/// Index of dispersion (variance-to-mean ratio) of a count series.
///
/// 1.0 for a Poisson process; > 1 indicates burstiness (clustered
/// arrivals), < 1 indicates regularity (e.g. heartbeats).
///
/// # Errors
///
/// Returns [`StatError::EmptySample`] for an empty series and
/// [`StatError::DegenerateSample`] if the mean is zero.
pub fn index_of_dispersion(counts: &[f64]) -> Result<f64> {
    if counts.is_empty() {
        return Err(StatError::EmptySample);
    }
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<f64>() / n;
    if mean <= 0.0 {
        return Err(StatError::DegenerateSample("count series sums to zero"));
    }
    let var = counts.iter().map(|&c| (c - mean) * (c - mean)).sum::<f64>() / n;
    Ok(var / mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn bin_counts_basics() {
        let c = bin_counts(&[0.0, 0.5, 2.0, 5.0, -1.0], 1.0, 3.0).unwrap();
        assert_eq!(c, vec![2.0, 0.0, 1.0]); // 5.0 beyond horizon, -1 dropped
        assert!(bin_counts(&[0.0], 0.0, 1.0).is_err());
        assert!(bin_counts(&[f64::NAN], 1.0, 1.0).is_err());
    }

    #[test]
    fn poisson_has_unit_dispersion() {
        // Uniform arrivals over [0, 1000) at rate 5/bin: counts are
        // ~Poisson(5).
        let mut rng = StdRng::seed_from_u64(4);
        let arrivals: Vec<f64> = (0..5_000).map(|_| rng.random::<f64>() * 1_000.0).collect();
        let counts = bin_counts(&arrivals, 1.0, 1_000.0).unwrap();
        let iod = index_of_dispersion(&counts).unwrap();
        assert!((0.8..1.25).contains(&iod), "IoD = {iod}");
    }

    #[test]
    fn bursty_arrivals_have_high_dispersion() {
        // All 500 arrivals packed into 10 of 1000 bins.
        let mut rng = StdRng::seed_from_u64(5);
        let arrivals: Vec<f64> = (0..500)
            .map(|_| {
                let burst = (rng.random::<f64>() * 10.0).floor() * 100.0;
                burst + rng.random::<f64>()
            })
            .collect();
        let counts = bin_counts(&arrivals, 1.0, 1_000.0).unwrap();
        let iod = index_of_dispersion(&counts).unwrap();
        assert!(iod > 10.0, "IoD = {iod}");
    }

    #[test]
    fn regular_arrivals_have_low_dispersion() {
        // One arrival per bin, exactly (heartbeats).
        let arrivals: Vec<f64> = (0..100).map(|i| i as f64 + 0.5).collect();
        let counts = bin_counts(&arrivals, 1.0, 100.0).unwrap();
        assert!(index_of_dispersion(&counts).unwrap() < 0.05);
    }

    #[test]
    fn error_paths() {
        assert!(index_of_dispersion(&[]).is_err());
        assert!(index_of_dispersion(&[0.0, 0.0]).is_err());
    }
}
