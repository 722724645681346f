//! Anderson–Darling goodness-of-fit test.
//!
//! A tail-weighted alternative to Kolmogorov–Smirnov: AD up-weights
//! disagreement in the distribution tails, which matters for traffic
//! models where the elephants live. Offered alongside KS so the fitting
//! pipeline's selection criterion can be ablated.

use crate::ks::sorted_sample;
use crate::Result;

/// The Anderson–Darling statistic for a sample against a reference CDF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdResult {
    /// The A² statistic; larger means a worse fit. For a correct fully
    /// specified model, values above ~2.5 reject at the 5% level.
    pub statistic: f64,
}

/// One-sample Anderson–Darling test of `samples` against `cdf`.
///
/// `A² = -n - (1/n) Σ (2i-1) [ln F(x_i) + ln(1 - F(x_{n+1-i}))]`
/// over the sorted sample. CDF values are clamped away from {0, 1} so
/// reference distributions with bounded support (uniform, empirical)
/// yield finite statistics.
///
/// # Errors
///
/// Returns [`crate::StatError::EmptySample`] for an empty sample and
/// [`crate::StatError::InvalidParameter`] for non-finite values.
///
/// # Examples
///
/// ```
/// use keddah_stat::ad::ad_one_sample;
///
/// let xs: Vec<f64> = (1..200).map(|i| i as f64 / 200.0).collect();
/// let r = ad_one_sample(&xs, |x| x.clamp(0.0, 1.0)).unwrap();
/// assert!(r.statistic < 2.0, "A2 = {}", r.statistic);
/// ```
pub fn ad_one_sample<F: Fn(f64) -> f64>(samples: &[f64], cdf: F) -> Result<AdResult> {
    let sorted = sorted_sample(samples.to_vec())?;
    let n = sorted.len();
    let nf = n as f64;
    const CLAMP: f64 = 1e-12;
    let mut sum = 0.0;
    for i in 0..n {
        let f_lo = cdf(sorted[i]).clamp(CLAMP, 1.0 - CLAMP);
        let f_hi = cdf(sorted[n - 1 - i]).clamp(CLAMP, 1.0 - CLAMP);
        sum += (2.0 * i as f64 + 1.0) * (f_lo.ln() + (1.0 - f_hi).ln());
    }
    Ok(AdResult {
        statistic: -nf - sum / nf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{Distribution, Exponential, LogNormal, Normal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn accepts_true_model() {
        let d = Exponential::new(2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let xs: Vec<f64> = (0..2000).map(|_| d.sample(&mut rng)).collect();
        let r = ad_one_sample(&xs, |x| d.cdf(x)).unwrap();
        assert!(r.statistic < 2.5, "A2 = {}", r.statistic);
    }

    #[test]
    fn rejects_wrong_model() {
        let d = Exponential::new(2.0).unwrap();
        let wrong = Normal::new(3.0, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let xs: Vec<f64> = (0..2000).map(|_| d.sample(&mut rng)).collect();
        let r = ad_one_sample(&xs, |x| wrong.cdf(x)).unwrap();
        assert!(r.statistic > 100.0, "A2 = {}", r.statistic);
    }

    #[test]
    fn more_tail_sensitive_than_ks() {
        // Same body, perturbed tail: AD should blow up relatively more
        // than KS does.
        let truth = LogNormal::new(0.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut xs: Vec<f64> = (0..3000).map(|_| truth.sample(&mut rng)).collect();
        // Push the top 1% two orders of magnitude out.
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = xs.len();
        for x in xs[n - 30..].iter_mut() {
            *x *= 100.0;
        }
        let ad = ad_one_sample(&xs, |x| truth.cdf(x)).unwrap().statistic;
        let ks = crate::ks::ks_one_sample(&xs, |x| truth.cdf(x))
            .unwrap()
            .statistic;
        // KS barely moves (1% of mass), AD rejects decisively (the 5%
        // critical value is ~2.5).
        assert!(ks < 0.05, "KS = {ks}");
        assert!(ad > 5.0, "A2 = {ad}");
    }

    #[test]
    fn bounded_support_is_finite() {
        // Samples outside the reference support hit the CDF clamp rather
        // than producing ln(0).
        let xs = vec![-1.0, 0.5, 2.0];
        let r = ad_one_sample(&xs, |x| x.clamp(0.0, 1.0)).unwrap();
        assert!(r.statistic.is_finite());
    }

    #[test]
    fn error_paths() {
        assert!(ad_one_sample(&[], |x| x).is_err());
        assert!(ad_one_sample(&[f64::NAN], |x| x).is_err());
    }
}
