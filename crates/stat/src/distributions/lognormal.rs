//! Log-normal distribution.

use serde::{Deserialize, Serialize};

use super::{require_finite, require_positive, Distribution};
use crate::memo::{LogSample, TermMemo};
use crate::special::{std_normal_cdf, std_normal_quantile};
use crate::{Result, StatError};

/// Log-normal distribution: `ln X ~ Normal(mu, sigma)`.
///
/// Support: `x > 0`. One of the workhorse families for flow sizes in
/// traffic measurement studies; Keddah fits it to HDFS and shuffle flow
/// sizes, where multiplicative effects (records per block x record size x
/// compression) make log-normality natural.
///
/// # Examples
///
/// ```
/// use keddah_stat::distributions::{Distribution, LogNormal};
///
/// let d = LogNormal::new(0.0, 1.0).unwrap();
/// assert!((d.cdf(1.0) - 0.5).abs() < 1e-12); // median = exp(mu)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution with log-mean `mu` and log-sd
    /// `sigma`.
    ///
    /// # Errors
    ///
    /// Returns an error if `mu` is non-finite or `sigma` is not finite and
    /// positive.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        Ok(LogNormal {
            mu: require_finite("mu", mu)?,
            sigma: require_positive("sigma", sigma)?,
        })
    }

    /// The log-scale location parameter.
    #[must_use]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The log-scale spread parameter.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Maximum-likelihood fit: mean and sd of `ln x`.
    ///
    /// # Errors
    ///
    /// Returns an error if the sample is empty, contains non-positive
    /// values, or is degenerate in log-space.
    pub fn fit_mle(samples: &[f64]) -> Result<Self> {
        LogNormal::from_logs(&LogSample::new(samples, &mut TermMemo::new())?)
    }

    /// [`LogNormal::fit_mle`] from a sample's logs.
    pub(crate) fn from_logs(logs: &LogSample) -> Result<Self> {
        if logs.var <= 0.0 {
            return Err(StatError::DegenerateSample("zero variance in log-space"));
        }
        LogNormal::new(logs.mean, logs.var.sqrt())
    }
}

impl Distribution for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            self.ln_pdf(x).exp()
        }
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        -0.5 * z * z - x.ln() - self.sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            std_normal_cdf((x.ln() - self.mu) / self.sigma)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        debug_assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
        (self.mu + self.sigma * std_normal_quantile(p)).exp()
    }

    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }
}

impl std::fmt::Display for LogNormal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LogNormal(mu={}, sigma={})", self.mu, self.sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;

    #[test]
    fn rejects_bad_params() {
        assert!(LogNormal::new(f64::INFINITY, 1.0).is_err());
        assert!(LogNormal::new(0.0, 0.0).is_err());
    }

    #[test]
    fn consistency() {
        let d = LogNormal::new(1.0, 0.6).unwrap();
        testutil::check_quantile_roundtrip(&d, 1e-8);
        testutil::check_cdf_monotone(&d);
        testutil::check_ln_pdf(&d);
        testutil::check_sample_mean(&d, 50_000, 0.05);
    }

    #[test]
    fn median_is_exp_mu() {
        let d = LogNormal::new(2.3, 0.9).unwrap();
        assert!((d.quantile(0.5) - 2.3f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn mle_recovers_params() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let truth = LogNormal::new(1.5, 0.4).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let xs: Vec<f64> = (0..50_000).map(|_| truth.sample(&mut rng)).collect();
        let fit = LogNormal::fit_mle(&xs).unwrap();
        assert!((fit.mu() - 1.5).abs() < 0.02);
        assert!((fit.sigma() - 0.4).abs() < 0.02);
    }

    #[test]
    fn mle_rejects_nonpositive() {
        assert!(LogNormal::fit_mle(&[1.0, 0.0]).is_err());
    }

    #[test]
    fn outside_support() {
        let d = LogNormal::new(0.0, 1.0).unwrap();
        assert_eq!(d.pdf(0.0), 0.0);
        assert_eq!(d.cdf(-1.0), 0.0);
        assert_eq!(d.ln_pdf(-1.0), f64::NEG_INFINITY);
    }
}
