//! Weibull distribution.

use serde::{Deserialize, Serialize};

use super::{require_positive, Distribution};
use crate::memo::{LogSample, TermMemo};
use crate::special::ln_gamma;
use crate::{Result, StatError};

/// Weibull distribution with shape `k` and scale `lambda`.
///
/// Support: `x >= 0`. With `k < 1` it is heavy-tailed-ish (stretched
/// exponential), with `k = 1` it degenerates to the exponential, and with
/// `k > 1` it is unimodal with light tails. Traffic studies (including
/// Keddah) commonly fit Weibulls to shuffle flow sizes and task durations.
///
/// # Examples
///
/// ```
/// use keddah_stat::distributions::{Distribution, Weibull};
///
/// let d = Weibull::new(2.0, 1.0).unwrap();
/// // Median of Weibull(k, lambda) is lambda * ln(2)^(1/k).
/// assert!((d.quantile(0.5) - 2f64.ln().sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates a Weibull distribution with the given shape `k` and scale
    /// `lambda`.
    ///
    /// # Errors
    ///
    /// Returns an error if either parameter is not finite and positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self> {
        Ok(Weibull {
            shape: require_positive("shape", shape)?,
            scale: require_positive("scale", scale)?,
        })
    }

    /// The shape parameter `k`.
    #[must_use]
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter `lambda`.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Maximum-likelihood fit via Newton iteration on the shape.
    ///
    /// Solves the profile-likelihood equation
    /// `sum(x^k ln x)/sum(x^k) - 1/k - mean(ln x) = 0`
    /// for `k`, then sets `lambda = (mean(x^k))^(1/k)`.
    ///
    /// # Errors
    ///
    /// Returns an error for empty/non-positive samples, degenerate samples,
    /// or if the iteration fails to converge (pathological inputs).
    pub fn fit_mle(samples: &[f64]) -> Result<Self> {
        let mut memo = TermMemo::new();
        let logs = LogSample::new(samples, &mut memo)?;
        Weibull::from_logs(samples, &logs, &mut memo)
    }

    /// [`Weibull::fit_mle`] from `samples` and their logs. Each Newton
    /// pass evaluates `exp` once per distinct log that `memo` holds, and
    /// the scale pass `powf` once per distinct sample; every sum still
    /// adds every term in sample order.
    pub(crate) fn from_logs(
        samples: &[f64],
        logs: &LogSample,
        memo: &mut TermMemo,
    ) -> Result<Self> {
        let (n, mean_ln, var_ln) = (logs.n, logs.mean, logs.var);
        if var_ln <= 0.0 {
            return Err(StatError::DegenerateSample("zero variance in log-space"));
        }
        // Moment-based initial guess: for Weibull, sd(ln X) = pi/(k sqrt(6)).
        let mut k = std::f64::consts::PI / (6.0f64.sqrt() * var_ln.sqrt());
        k = k.clamp(0.02, 500.0);

        const MAX_ITER: usize = 200;
        const TOL: f64 = 1e-10;
        for _ in 0..MAX_ITER {
            let mut s0 = 0.0; // sum x^k
            let mut s1 = 0.0; // sum x^k ln x
            let mut s2 = 0.0; // sum x^k (ln x)^2
            let terms = memo.pass(&logs.logs, |lx| {
                let xk = (k * lx).exp();
                [xk, xk * lx]
            });
            for (lx, [xk, xk_l]) in terms {
                s0 += xk;
                s1 += xk_l;
                s2 += xk_l * lx;
            }
            if !s0.is_finite() || s0 <= 0.0 {
                return Err(StatError::NoConvergence("weibull shape overflow"));
            }
            let g = s1 / s0 - 1.0 / k - mean_ln;
            let dg = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (k * k);
            if dg <= 0.0 {
                return Err(StatError::NoConvergence("weibull non-positive derivative"));
            }
            let step = g / dg;
            let next = (k - step).clamp(k * 0.2, k * 5.0).max(1e-6);
            if (next - k).abs() < TOL * k.max(1.0) {
                k = next;
                break;
            }
            k = next;
        }
        let sum_xk: f64 = (memo.pass(samples, |x| [x.powf(k), 0.0]))
            .map(|(_, [xk, _])| xk)
            .sum();
        Weibull::new(k, (sum_xk / n).powf(1.0 / k))
    }
}

impl Distribution for Weibull {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else if x == 0.0 {
            // k < 1: density diverges at 0; k = 1: lambda; k > 1: 0.
            match self.shape.partial_cmp(&1.0) {
                Some(std::cmp::Ordering::Less) => f64::INFINITY,
                Some(std::cmp::Ordering::Equal) => 1.0 / self.scale,
                _ => 0.0,
            }
        } else {
            self.ln_pdf(x).exp()
        }
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let z = x / self.scale;
        self.shape.ln() - self.scale.ln() + (self.shape - 1.0) * z.ln() - z.powf(self.shape)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-(x / self.scale).powf(self.shape)).exp()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        debug_assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
        self.scale * (-(1.0 - p).ln()).powf(1.0 / self.shape)
    }

    fn mean(&self) -> f64 {
        self.scale * (ln_gamma(1.0 + 1.0 / self.shape)).exp()
    }

    fn variance(&self) -> f64 {
        let g1 = ln_gamma(1.0 + 1.0 / self.shape).exp();
        let g2 = ln_gamma(1.0 + 2.0 / self.shape).exp();
        self.scale * self.scale * (g2 - g1 * g1)
    }
}

impl std::fmt::Display for Weibull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Weibull(shape={}, scale={})", self.shape, self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;

    #[test]
    fn rejects_bad_params() {
        assert!(Weibull::new(0.0, 1.0).is_err());
        assert!(Weibull::new(1.0, -1.0).is_err());
    }

    #[test]
    fn shape_one_is_exponential() {
        use crate::distributions::Exponential;
        let w = Weibull::new(1.0, 2.0).unwrap();
        let e = Exponential::new(0.5).unwrap();
        for &x in &[0.1, 0.5, 1.0, 3.0, 10.0] {
            assert!((w.cdf(x) - e.cdf(x)).abs() < 1e-12);
            assert!((w.pdf(x) - e.pdf(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn consistency() {
        for &(k, lambda) in &[(0.7, 2.0), (1.5, 1.0), (3.0, 5.0)] {
            let d = Weibull::new(k, lambda).unwrap();
            testutil::check_quantile_roundtrip(&d, 1e-10);
            testutil::check_cdf_monotone(&d);
            testutil::check_ln_pdf(&d);
        }
    }

    #[test]
    fn sampling_matches_mean() {
        let d = Weibull::new(2.0, 3.0).unwrap();
        testutil::check_sample_mean(&d, 30_000, 0.05);
    }

    #[test]
    fn mle_recovers_params() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for &(k, lambda) in &[(0.8, 1.0), (1.7, 4.0), (3.2, 0.5)] {
            let truth = Weibull::new(k, lambda).unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            let xs: Vec<f64> = (0..30_000).map(|_| truth.sample(&mut rng)).collect();
            let fit = Weibull::fit_mle(&xs).unwrap();
            assert!(
                (fit.shape() - k).abs() / k < 0.05,
                "shape: fit={} truth={k}",
                fit.shape()
            );
            assert!(
                (fit.scale() - lambda).abs() / lambda < 0.05,
                "scale: fit={} truth={lambda}",
                fit.scale()
            );
        }
    }

    #[test]
    fn mle_is_pinned_bit_for_bit() {
        // Tie-heavy: Newton stops on its tolerance after 6 iterations.
        let mut ties: Vec<f64> = (0..60)
            .map(|i| [512.0, 1024.0, 1024.0, 4096.0, 65536.0][i % 5])
            .collect();
        ties.extend((1..=20).map(|i| 300.0 * f64::from(i)));
        // Block-size-heavy: 95% at 128 MiB. The shape collapses toward 0
        // and Newton runs all 200 iterations.
        const BLOCK: f64 = 134_217_728.0;
        let mut blocks = vec![BLOCK; 190];
        blocks.extend((1..=10).map(|i| BLOCK * f64::from(i) / 11.0));
        for (xs, shape, scale) in [
            (&ties, 0x3fe2_262b_afbe_e598, 0x40b8_149e_768d_e3cd),
            (&blocks, 0x3f20_c6f7_a09d_b19d, 0x419e_9c79_fcbf_e3d1),
        ] {
            let fit = Weibull::fit_mle(xs).unwrap();
            assert_eq!(fit.shape().to_bits(), shape, "shape {}", fit.shape());
            assert_eq!(fit.scale().to_bits(), scale, "scale {}", fit.scale());
        }
    }

    #[test]
    fn pdf_boundary_behaviour() {
        assert_eq!(Weibull::new(0.5, 1.0).unwrap().pdf(0.0), f64::INFINITY);
        assert_eq!(Weibull::new(1.0, 2.0).unwrap().pdf(0.0), 0.5);
        assert_eq!(Weibull::new(2.0, 1.0).unwrap().pdf(0.0), 0.0);
        assert_eq!(Weibull::new(2.0, 1.0).unwrap().pdf(-1.0), 0.0);
    }
}
