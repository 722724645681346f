//! Continuous distribution families used by the Keddah traffic models.
//!
//! Each family implements the [`Distribution`] trait (density, CDF,
//! quantile, moments, sampling) and provides a `fit_mle` constructor that
//! estimates parameters from data by maximum likelihood. The families were
//! chosen to match what flow-level traffic modelling literature (including
//! Keddah) fits against: heavy-tailed ([`Pareto`], [`LogNormal`],
//! [`Weibull`]), light-tailed ([`Exponential`], [`Gamma`], [`Normal`]) and
//! bounded ([`Uniform`]).

mod empirical;
mod exponential;
mod gamma;
mod loglogistic;
mod lognormal;
mod normal;
mod pareto;
mod uniform;
mod weibull;

pub use empirical::Empirical;
pub use exponential::Exponential;
pub use gamma::Gamma;
pub use loglogistic::LogLogistic;
pub use lognormal::LogNormal;
pub use normal::Normal;
pub use pareto::Pareto;
pub use uniform::Uniform;
pub use weibull::Weibull;

use rand::Rng;

/// The clamp applied to uniform variates before inverse-transform sampling,
/// keeping quantile arguments strictly inside (0, 1).
pub(crate) const UNIT_EPS: f64 = 1e-12;

/// A continuous probability distribution.
///
/// All seven Keddah families implement this trait. The default
/// [`sample`](Distribution::sample) uses inverse-transform sampling via
/// [`quantile`](Distribution::quantile); families with cheaper samplers
/// (e.g. [`Gamma`]) override it.
pub trait Distribution {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Natural log of the density at `x`; `-inf` outside the support.
    fn ln_pdf(&self, x: f64) -> f64;

    /// Cumulative distribution function `P(X <= x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile (inverse CDF) at probability `p`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `p` is outside `(0, 1)`.
    fn quantile(&self, p: f64) -> f64;

    /// Distribution mean. May be `+inf` (e.g. Pareto with `alpha <= 1`).
    fn mean(&self) -> f64;

    /// Distribution variance. May be `+inf`.
    fn variance(&self) -> f64;

    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64
    where
        Self: Sized,
    {
        let u: f64 = rng.random::<f64>().clamp(UNIT_EPS, 1.0 - UNIT_EPS);
        self.quantile(u)
    }

    /// Total log-likelihood of `samples` under this distribution.
    fn log_likelihood(&self, samples: &[f64]) -> f64 {
        samples.iter().map(|&x| self.ln_pdf(x)).sum()
    }
}

/// Validates that a parameter is finite and strictly positive.
pub(crate) fn require_positive(name: &'static str, value: f64) -> crate::Result<f64> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(crate::StatError::InvalidParameter { name, value })
    }
}

/// Validates that a parameter is finite.
pub(crate) fn require_finite(name: &'static str, value: f64) -> crate::Result<f64> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(crate::StatError::InvalidParameter { name, value })
    }
}

/// Checks a sample for MLE fitting: non-empty and all finite.
pub(crate) fn check_sample(samples: &[f64]) -> crate::Result<()> {
    if samples.is_empty() {
        return Err(crate::StatError::EmptySample);
    }
    for &x in samples {
        if !x.is_finite() {
            return Err(crate::StatError::InvalidParameter {
                name: "sample",
                value: x,
            });
        }
    }
    Ok(())
}

/// Checks a sample for positive-support MLE fitting.
pub(crate) fn check_positive_sample(samples: &[f64]) -> crate::Result<()> {
    check_sample(samples)?;
    for &x in samples {
        if x <= 0.0 {
            return Err(crate::StatError::NonPositiveSample(x));
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared checks applied to every distribution implementation.
    use super::Distribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Verifies pdf/cdf/quantile consistency on a grid of probabilities.
    pub fn check_quantile_roundtrip<D: Distribution>(d: &D, tol: f64) {
        for i in 1..100 {
            let p = i as f64 / 100.0;
            let x = d.quantile(p);
            let back = d.cdf(x);
            assert!(
                (back - p).abs() < tol,
                "quantile/cdf roundtrip failed: p={p} x={x} cdf={back}"
            );
        }
    }

    /// Verifies the CDF is monotone over sampled support points.
    pub fn check_cdf_monotone<D: Distribution>(d: &D) {
        let mut prev = -1.0;
        for i in 1..200 {
            let p = i as f64 / 200.0;
            let x = d.quantile(p);
            let c = d.cdf(x);
            assert!(c >= prev - 1e-12, "cdf not monotone at x={x}");
            assert!((0.0..=1.0).contains(&c));
            prev = c;
        }
    }

    /// Seed used by the shared sampling checks.
    const SEED: u64 = 0x6b65_6464_6168;

    /// Verifies the sample mean of many draws approaches the stated mean.
    pub fn check_sample_mean<D: Distribution>(d: &D, n: usize, rel_tol: f64) {
        let mut rng = StdRng::seed_from_u64(SEED);
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let mean = sum / n as f64;
        let expect = d.mean();
        assert!(
            (mean - expect).abs() <= rel_tol * (1.0 + expect.abs()),
            "sample mean {mean} far from {expect}"
        );
    }

    /// Verifies ln_pdf agrees with pdf where pdf > 0.
    pub fn check_ln_pdf<D: Distribution>(d: &D) {
        for i in 1..50 {
            let p = i as f64 / 50.0;
            let x = d.quantile(p);
            let pdf = d.pdf(x);
            if pdf > 0.0 {
                assert!(
                    (d.ln_pdf(x) - pdf.ln()).abs() < 1e-9,
                    "ln_pdf mismatch at x={x}"
                );
            }
        }
    }
}
