//! Gamma distribution.

use rand::Rng;
use serde::{Deserialize, Serialize};

use super::{require_positive, Distribution};
use crate::memo::{LogSample, TermMemo};
use crate::special::{digamma, gamma_p, ln_gamma};
use crate::{Result, StatError};

/// Gamma distribution with shape `k` and scale `theta` (mean `k * theta`).
///
/// Support: `x > 0`. A flexible light-tailed family; in Keddah it is a
/// candidate for per-wave shuffle volumes and task service times.
///
/// # Examples
///
/// ```
/// use keddah_stat::distributions::{Distribution, Gamma};
///
/// let d = Gamma::new(2.0, 3.0).unwrap();
/// assert!((d.mean() - 6.0).abs() < 1e-12);
/// assert!((d.cdf(d.quantile(0.8)) - 0.8).abs() < 1e-8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates a gamma distribution with the given shape and scale.
    ///
    /// # Errors
    ///
    /// Returns an error if either parameter is not finite and positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self> {
        Ok(Gamma {
            shape: require_positive("shape", shape)?,
            scale: require_positive("scale", scale)?,
        })
    }

    /// The shape parameter `k`.
    #[must_use]
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter `theta`.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Maximum-likelihood fit.
    ///
    /// Starts from the Minka closed-form approximation
    /// `k ≈ (3 - s + sqrt((s-3)^2 + 24 s)) / (12 s)` with
    /// `s = ln(mean) - mean(ln x)`, then refines with Newton steps on the
    /// profile log-likelihood `ln k - ψ(k) = s`.
    ///
    /// # Errors
    ///
    /// Returns an error for empty/non-positive or degenerate samples.
    pub fn fit_mle(samples: &[f64]) -> Result<Self> {
        Gamma::from_logs(samples, &LogSample::new(samples, &mut TermMemo::new())?)
    }

    /// [`Gamma::fit_mle`] from `samples` and their logs.
    pub(crate) fn from_logs(samples: &[f64], logs: &LogSample) -> Result<Self> {
        let mean = samples.iter().sum::<f64>() / logs.n;
        let s = mean.ln() - logs.mean;
        if s <= 0.0 {
            return Err(StatError::DegenerateSample(
                "ln(mean) <= mean(ln), sample has no spread",
            ));
        }
        let mut k = (3.0 - s + ((s - 3.0) * (s - 3.0) + 24.0 * s).sqrt()) / (12.0 * s);
        // Newton refinement of f(k) = ln k - psi(k) - s = 0.
        for _ in 0..50 {
            let f = k.ln() - digamma(k) - s;
            // f'(k) = 1/k - psi'(k); approximate psi' numerically.
            let h = (k * 1e-6).max(1e-9);
            let dpsi = (digamma(k + h) - digamma(k - h)) / (2.0 * h);
            let df = 1.0 / k - dpsi;
            if df == 0.0 {
                break;
            }
            let next = (k - f / df).max(1e-8);
            if (next - k).abs() < 1e-12 * k.max(1.0) {
                k = next;
                break;
            }
            k = next;
        }
        Gamma::new(k, mean / k)
    }
}

impl Distribution for Gamma {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            // Shape < 1 diverges at 0; treat x = 0 as outside support.
            0.0
        } else {
            self.ln_pdf(x).exp()
        }
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        (self.shape - 1.0) * x.ln()
            - x / self.scale
            - self.shape * self.scale.ln()
            - ln_gamma(self.shape)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            gamma_p(self.shape, x / self.scale)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        debug_assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
        // Wilson–Hilferty initial guess, then bisection-safeguarded Newton
        // on the CDF.
        let k = self.shape;
        let g = crate::special::std_normal_quantile(p);
        let c = 1.0 - 1.0 / (9.0 * k) + g / (3.0 * k.sqrt());
        let mut x = (k * c * c * c).max(1e-12);
        let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
        for _ in 0..100 {
            let f = gamma_p(k, x) - p;
            if f.abs() < 1e-12 {
                break;
            }
            if f > 0.0 {
                hi = hi.min(x);
            } else {
                lo = lo.max(x);
            }
            let pdf = ((k - 1.0) * x.ln() - x - ln_gamma(k)).exp();
            let mut next = if pdf > 0.0 { x - f / pdf } else { x };
            if !(next > lo && (hi.is_infinite() || next < hi)) {
                // Newton left the bracket: bisect.
                next = if hi.is_finite() {
                    0.5 * (lo + hi)
                } else {
                    lo * 2.0 + 1.0
                };
            }
            if (next - x).abs() < 1e-14 * x.max(1.0) {
                x = next;
                break;
            }
            x = next;
        }
        x * self.scale
    }

    fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }

    /// Marsaglia–Tsang squeeze sampler (much faster than inverting the CDF).
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        fn next_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.random::<f64>()
                .clamp(super::UNIT_EPS, 1.0 - super::UNIT_EPS)
        }
        fn std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            crate::special::std_normal_quantile(next_unit(rng))
        }
        let k = self.shape;
        if k < 1.0 {
            // Boost: X_k = X_{k+1} * U^(1/k).
            let boosted = Gamma {
                shape: k + 1.0,
                scale: 1.0,
            };
            let u = next_unit(rng);
            return boosted.sample(rng) * u.powf(1.0 / k) * self.scale;
        }
        let d = k - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = std_normal(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = next_unit(rng);
            if u < 1.0 - 0.0331 * x * x * x * x || u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
                return d * v3 * self.scale;
            }
        }
    }
}

impl std::fmt::Display for Gamma {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gamma(shape={}, scale={})", self.shape, self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;

    #[test]
    fn rejects_bad_params() {
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, f64::NAN).is_err());
    }

    #[test]
    fn shape_one_is_exponential() {
        use crate::distributions::Exponential;
        let g = Gamma::new(1.0, 2.0).unwrap();
        let e = Exponential::new(0.5).unwrap();
        for &x in &[0.1, 1.0, 4.0] {
            assert!((g.cdf(x) - e.cdf(x)).abs() < 1e-10);
        }
    }

    #[test]
    fn consistency() {
        for &(k, theta) in &[(0.5, 1.0), (2.0, 3.0), (9.0, 0.5)] {
            let d = Gamma::new(k, theta).unwrap();
            testutil::check_quantile_roundtrip(&d, 1e-7);
            testutil::check_cdf_monotone(&d);
            testutil::check_ln_pdf(&d);
        }
    }

    #[test]
    fn sampler_matches_moments() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for &(k, theta) in &[(0.5, 2.0), (3.0, 1.0)] {
            let d = Gamma::new(k, theta).unwrap();
            let mut rng = StdRng::seed_from_u64(5);
            let n = 50_000;
            let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            assert!(
                (mean - d.mean()).abs() / d.mean() < 0.05,
                "k={k} mean={mean} expect={}",
                d.mean()
            );
            assert!(xs.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn mle_recovers_params() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let truth = Gamma::new(2.5, 1.5).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let xs: Vec<f64> = (0..50_000).map(|_| truth.sample(&mut rng)).collect();
        let fit = Gamma::fit_mle(&xs).unwrap();
        assert!((fit.shape() - 2.5).abs() < 0.1, "shape={}", fit.shape());
        assert!((fit.scale() - 1.5).abs() < 0.1, "scale={}", fit.scale());
    }

    #[test]
    fn mle_rejects_degenerate() {
        assert!(Gamma::fit_mle(&[1.0; 8]).is_err());
    }
}
