//! Empirical cumulative distribution functions.

use crate::ks::sorted_sample;
use crate::Result;

/// An empirical CDF built from a sample.
///
/// Stores the sorted sample and answers `F_n(x)` queries, empirical
/// quantiles, and produces plot-ready `(x, F(x))` step points — which is
/// exactly what the Keddah figures (flow-size CDFs, FCT CDFs) are drawn
/// from.
///
/// # Examples
///
/// ```
/// use keddah_stat::Ecdf;
///
/// let ecdf = Ecdf::new(vec![3.0, 1.0, 2.0, 2.0]).unwrap();
/// assert_eq!(ecdf.eval(0.5), 0.0);
/// assert_eq!(ecdf.eval(2.0), 0.75);
/// assert_eq!(ecdf.eval(10.0), 1.0);
/// assert_eq!(ecdf.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample, taking ownership and sorting it.
    ///
    /// # Errors
    ///
    /// Returns [`crate::StatError::EmptySample`] for an empty sample and
    /// [`crate::StatError::InvalidParameter`] if any value is non-finite.
    pub fn new(samples: Vec<f64>) -> Result<Self> {
        Ok(Ecdf {
            sorted: sorted_sample(samples)?,
        })
    }

    /// The number of underlying samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: construction rejects empty samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The sorted sample values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// Evaluates `F_n(x)`: the fraction of samples `<= x`.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point gives count of elements <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Empirical quantile: the smallest sample value `v` with
    /// `F_n(v) >= p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile requires p in [0,1]");
        if p <= 0.0 {
            return self.sorted[0];
        }
        let n = self.sorted.len();
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[idx - 1]
    }

    /// Minimum sample value.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum sample value.
    #[must_use]
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Sample mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Builds a histogram with `bins` equal-width bins over `[min, max]`,
    /// returning `(bin_left_edge, count)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    #[must_use]
    pub fn histogram(&self, bins: usize) -> Vec<(f64, usize)> {
        assert!(bins > 0, "histogram requires at least one bin");
        let lo = self.min();
        let hi = self.max();
        let width = ((hi - lo) / bins as f64).max(f64::MIN_POSITIVE);
        let mut counts = vec![0usize; bins];
        for &x in &self.sorted {
            let idx = (((x - lo) / width) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        counts
            .into_iter()
            .enumerate()
            .map(|(i, c)| (lo + i as f64 * width, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StatError;

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(Ecdf::new(vec![]), Err(StatError::EmptySample)));
        assert!(Ecdf::new(vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn eval_steps() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.eval(0.0), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn quantiles() {
        let e = Ecdf::new(vec![10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        assert_eq!(e.quantile(0.0), 10.0);
        assert_eq!(e.quantile(0.2), 10.0);
        assert_eq!(e.quantile(0.21), 20.0);
        assert_eq!(e.quantile(0.5), 30.0);
        assert_eq!(e.quantile(1.0), 50.0);
    }

    #[test]
    fn quantile_eval_consistency() {
        let e = Ecdf::new((1..=100).map(|i| i as f64).collect()).unwrap();
        for i in 1..=100 {
            let p = i as f64 / 100.0;
            assert!(e.eval(e.quantile(p)) >= p - 1e-12);
        }
    }

    #[test]
    fn histogram_counts_everything() {
        let e = Ecdf::new(vec![1.0, 1.5, 2.0, 2.5, 3.0]).unwrap();
        let h = e.histogram(2);
        let total: usize = h.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 5);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn min_max_mean() {
        let e = Ecdf::new(vec![4.0, 2.0, 6.0]).unwrap();
        assert_eq!(e.min(), 2.0);
        assert_eq!(e.max(), 6.0);
        assert_eq!(e.mean(), 4.0);
        assert_eq!(e.len(), 3);
    }
}
