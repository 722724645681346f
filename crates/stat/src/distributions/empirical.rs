//! Empirical (quantile-table) distribution.

use serde::{Deserialize, Serialize};

use super::Distribution;
use crate::ks::sorted_sample;
use crate::Result;

/// The quantile knots an empirical table stores: fewer for a smaller
/// sample, one per value.
const DEFAULT_KNOTS: usize = 256;

/// A distribution defined directly by a sample's quantile table.
///
/// Parametric families cannot describe every Hadoop traffic component:
/// HDFS transfer sizes, for instance, are near-deterministic (a point
/// mass at the block size plus a small remainder mode) and defeat any
/// smooth two-parameter family. Keddah therefore falls back to the
/// *empirical* model the paper's title promises: a compressed quantile
/// table with linear interpolation, which is also a proper continuous
/// distribution (piecewise-uniform density between knots), so it plugs
/// into the same [`Distribution`] machinery as the parametric families.
///
/// # Examples
///
/// ```
/// use keddah_stat::distributions::{Distribution, Empirical};
///
/// let sample: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
/// let d = Empirical::fit(&sample).unwrap();
/// assert!((d.quantile(0.5) - 500.0).abs() < 5.0);
/// assert!((d.cdf(250.0) - 0.25).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Empirical {
    /// Quantile knots: `knots[i]` is the sample quantile at probability
    /// `i / (knots.len() - 1)`. Non-decreasing.
    knots: Vec<f64>,
    /// Size of the sample the table was built from.
    n: u64,
}

impl Empirical {
    /// Builds the empirical distribution of a sample: a table of 256
    /// quantile points.
    ///
    /// # Errors
    ///
    /// Returns an error for empty or non-finite samples.
    pub fn fit(samples: &[f64]) -> Result<Self> {
        Ok(Empirical::from_sorted(&sorted_sample(samples.to_vec())?))
    }

    /// The table of `DEFAULT_KNOTS` quantile points (at least 2) of a
    /// non-empty sample already sorted by `f64::total_cmp`.
    pub(crate) fn from_sorted(sorted: &[f64]) -> Self {
        let k = DEFAULT_KNOTS.min(sorted.len().max(2));
        let table: Vec<f64> = (0..k)
            .map(|i| {
                let pos = i as f64 / (k - 1) as f64 * (sorted.len() - 1) as f64;
                // Linear interpolation between order statistics.
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                let frac = pos - lo as f64;
                sorted[lo] * (1.0 - frac) + sorted[hi] * frac
            })
            .collect();
        Empirical {
            knots: table,
            n: sorted.len() as u64,
        }
    }

    /// The stored quantile knots.
    #[must_use]
    pub fn knots(&self) -> &[f64] {
        &self.knots
    }

    /// The size of the originating sample.
    #[must_use]
    pub fn sample_size(&self) -> u64 {
        self.n
    }

    /// Smallest representable value.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.knots[0]
    }

    /// Largest representable value.
    #[must_use]
    pub fn max(&self) -> f64 {
        *self.knots.last().expect("table has >= 2 knots")
    }

    /// Returns a copy with every knot multiplied by `factor` — the
    /// distribution of `factor * X`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `factor` is not finite and positive.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Empirical {
        debug_assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        Empirical {
            knots: self.knots.iter().map(|&k| k * factor).collect(),
            n: self.n,
        }
    }
}

impl Distribution for Empirical {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.min() || x > self.max() {
            return 0.0;
        }
        // Piecewise-uniform density: mass 1/(k-1) spread over each knot
        // interval. Degenerate (zero-width) intervals act as point
        // masses; report a large finite density there.
        let k = self.knots.len();
        let dp = 1.0 / (k - 1) as f64;
        // Find the interval containing x.
        let idx = match self
            .knots
            .binary_search_by(|v| v.partial_cmp(&x).expect("finite"))
        {
            Ok(i) => i.min(k - 2),
            Err(i) => i.saturating_sub(1).min(k - 2),
        };
        let width = self.knots[idx + 1] - self.knots[idx];
        if width <= 0.0 {
            1e12 // point mass
        } else {
            dp / width
        }
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        let p = self.pdf(x);
        if p <= 0.0 {
            f64::NEG_INFINITY
        } else {
            p.ln()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.min() {
            return 0.0;
        }
        if x >= self.max() {
            return 1.0;
        }
        let k = self.knots.len();
        let idx = match self
            .knots
            .binary_search_by(|v| v.partial_cmp(&x).expect("finite"))
        {
            Ok(i) => {
                // Step onto the last equal knot so ties report the full
                // accumulated probability.
                let mut j = i;
                while j + 1 < k && self.knots[j + 1] == x {
                    j += 1;
                }
                return j as f64 / (k - 1) as f64;
            }
            Err(i) => i - 1,
        };
        let width = self.knots[idx + 1] - self.knots[idx];
        let frac = if width <= 0.0 {
            0.0
        } else {
            (x - self.knots[idx]) / width
        };
        (idx as f64 + frac) / (k - 1) as f64
    }

    fn quantile(&self, p: f64) -> f64 {
        debug_assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
        let k = self.knots.len();
        let pos = p * (k - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(k - 1);
        let frac = pos - lo as f64;
        self.knots[lo] * (1.0 - frac) + self.knots[hi] * frac
    }

    fn mean(&self) -> f64 {
        // Mean of the piecewise-uniform density: average of interval
        // midpoints.
        let k = self.knots.len();
        self.knots
            .windows(2)
            .map(|w| 0.5 * (w[0] + w[1]))
            .sum::<f64>()
            / (k - 1) as f64
    }

    fn variance(&self) -> f64 {
        // E[X^2] for piecewise-uniform: (a^2 + ab + b^2)/3 per interval.
        let k = self.knots.len();
        let m = self.mean();
        let ex2 = self
            .knots
            .windows(2)
            .map(|w| (w[0] * w[0] + w[0] * w[1] + w[1] * w[1]) / 3.0)
            .sum::<f64>()
            / (k - 1) as f64;
        (ex2 - m * m).max(0.0)
    }
}

impl std::fmt::Display for Empirical {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Empirical(n={}, {} knots, [{:.3e}, {:.3e}])",
            self.n,
            self.knots.len(),
            self.min(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;

    #[test]
    fn rejects_bad_input() {
        assert!(Empirical::fit(&[]).is_err());
        assert!(Empirical::fit(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn reproduces_uniform_sample() {
        let sample: Vec<f64> = (0..10_000).map(|i| i as f64 / 10_000.0).collect();
        let d = Empirical::fit(&sample).unwrap();
        testutil::check_quantile_roundtrip(&d, 0.01);
        testutil::check_cdf_monotone(&d);
        assert!((d.mean() - 0.5).abs() < 0.01);
        assert!((d.variance() - 1.0 / 12.0).abs() < 0.01);
    }

    #[test]
    fn point_mass_sample() {
        // 90% of mass at exactly 128.0 (the "block size" case), 10%
        // spread below.
        let mut sample = vec![128.0; 900];
        sample.extend((0..100).map(|i| 1.0 + i as f64 / 100.0));
        let d = Empirical::fit(&sample).unwrap();
        // The quantile table must reproduce the point mass.
        assert_eq!(d.quantile(0.5), 128.0);
        assert_eq!(d.quantile(0.95), 128.0);
        assert!(d.cdf(127.9) <= 0.12);
        assert!(d.cdf(128.0) > 0.98);
    }

    #[test]
    fn sampling_matches_source() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let source: Vec<f64> = (0..5_000)
            .map(|i| (i as f64 * 0.7).sin() * 10.0 + 20.0)
            .collect();
        let d = Empirical::fit(&source).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let drawn: Vec<f64> = (0..5_000).map(|_| d.sample(&mut rng)).collect();
        let r = crate::ks::ks_two_sample(&source, &drawn).unwrap();
        assert!(r.statistic < 0.05, "KS = {}", r.statistic);
    }

    #[test]
    fn outside_support() {
        let d = Empirical::fit(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(d.pdf(0.0), 0.0);
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.cdf(10.0), 1.0);
        assert_eq!(d.ln_pdf(0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn knot_compression_bounds_size() {
        let sample: Vec<f64> = (0..100_000).map(|i| i as f64).collect();
        let d = Empirical::fit(&sample).unwrap();
        assert_eq!(d.knots().len(), DEFAULT_KNOTS);
        assert_eq!(d.sample_size(), 100_000);
        assert_eq!(d.min(), 0.0);
        assert_eq!(d.max(), 99_999.0);
    }

    #[test]
    fn tiny_samples_work() {
        let d = Empirical::fit(&[5.0, 7.0]).unwrap();
        assert_eq!(d.min(), 5.0);
        assert_eq!(d.max(), 7.0);
        assert!((d.quantile(0.5) - 6.0).abs() < 1e-12);
    }
}
