//! Log-logistic (Fisk) distribution.

use serde::{Deserialize, Serialize};

use super::{require_positive, Distribution};
use crate::memo::{LogSample, TermMemo};
use crate::{Result, StatError};

/// Log-logistic distribution with scale `alpha` (the median) and shape
/// `beta`.
///
/// Support: `x > 0`. A heavy-tailed family with a closed-form CDF
/// `F(x) = 1 / (1 + (x/alpha)^-beta)`, popular in traffic modelling for
/// flow sizes and durations because its tail is Pareto-like while its
/// body stays unimodal. Completes the candidate set the measurement
/// literature typically sweeps.
///
/// # Examples
///
/// ```
/// use keddah_stat::distributions::{Distribution, LogLogistic};
///
/// let d = LogLogistic::new(10.0, 2.0).unwrap();
/// assert!((d.quantile(0.5) - 10.0).abs() < 1e-9); // alpha is the median
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogLogistic {
    alpha: f64,
    beta: f64,
}

impl LogLogistic {
    /// Creates a log-logistic distribution with median `alpha` and shape
    /// `beta`.
    ///
    /// # Errors
    ///
    /// Returns an error if either parameter is not finite and positive.
    pub fn new(alpha: f64, beta: f64) -> Result<Self> {
        Ok(LogLogistic {
            alpha: require_positive("alpha", alpha)?,
            beta: require_positive("beta", beta)?,
        })
    }

    /// The scale (median) parameter.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The shape (tail) parameter.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Maximum-likelihood fit.
    ///
    /// `ln X` follows a logistic distribution with location `ln alpha`
    /// and scale `1/beta`; the fit runs Newton iterations on the logistic
    /// log-likelihood in log-space, seeded by the method of moments
    /// (logistic sd = pi / (beta sqrt(3))).
    ///
    /// # Errors
    ///
    /// Returns an error for empty/non-positive/degenerate samples or if
    /// the iteration diverges.
    pub fn fit_mle(samples: &[f64]) -> Result<Self> {
        let mut memo = TermMemo::new();
        let logs = LogSample::new(samples, &mut memo)?;
        LogLogistic::from_logs(&logs, &mut memo)
    }

    /// [`LogLogistic::fit_mle`] from a sample's logs. Each Newton pass
    /// evaluates `tanh` once per distinct log that `memo` holds, and
    /// still adds every term in sample order.
    pub(crate) fn from_logs(logs: &LogSample, memo: &mut TermMemo) -> Result<Self> {
        let (n, mean, var) = (logs.n, logs.mean, logs.var);
        if var <= 0.0 {
            return Err(StatError::DegenerateSample("zero variance in log-space"));
        }
        // Moment start: logistic variance = (pi * s)^2 / 3.
        let mut mu = mean;
        let mut s = (3.0 * var).sqrt() / std::f64::consts::PI;
        // Newton on (mu, s) via the logistic score equations; a few fixed
        // steps converge fast because the start is close.
        for _ in 0..60 {
            let mut sum_tanh = 0.0; // d/dmu terms: sum tanh(z/2)
            let mut sum_zt = 0.0; // d/ds terms: sum z*tanh(z/2)
            let terms = memo.pass(&logs.logs, |l| {
                let z = (l - mu) / s;
                let t = (z / 2.0).tanh();
                [t, z * t]
            });
            for (_, [t, zt]) in terms {
                sum_tanh += t;
                sum_zt += zt;
            }
            // Score equations: sum tanh(z/2) = 0; sum z tanh(z/2) = n.
            let g1 = sum_tanh / n;
            let g2 = sum_zt / n - 1.0;
            // Quasi-Newton with fixed curvature (logistic Fisher info:
            // I_mu = 1/(3 s^2), I_s = (3 + pi^2)/(9 s^2)).
            let step_mu = 3.0 * s * g1;
            let step_s = s * g2 * 9.0 / (3.0 + std::f64::consts::PI.powi(2));
            mu += step_mu;
            s = (s + step_s).clamp(s * 0.5, s * 2.0).max(1e-12);
            if step_mu.abs() < 1e-12 * (1.0 + mu.abs()) && step_s.abs() < 1e-12 * s {
                break;
            }
        }
        if !(mu.is_finite() && s.is_finite() && s > 0.0) {
            return Err(StatError::NoConvergence("log-logistic fit diverged"));
        }
        LogLogistic::new(mu.exp(), 1.0 / s)
    }
}

impl Distribution for LogLogistic {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x / self.alpha).powf(self.beta);
        (self.beta / x) * z / ((1.0 + z) * (1.0 + z))
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let lr = self.beta * (x / self.alpha).ln();
        // ln f = ln(beta/x) + lr - 2 ln(1 + e^lr), computed stably.
        let log1p_exp = if lr > 0.0 {
            lr + (-lr).exp().ln_1p()
        } else {
            lr.exp().ln_1p()
        };
        (self.beta / x).ln() + lr - 2.0 * log1p_exp
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            let z = (x / self.alpha).powf(-self.beta);
            1.0 / (1.0 + z)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        debug_assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
        self.alpha * (p / (1.0 - p)).powf(1.0 / self.beta)
    }

    fn mean(&self) -> f64 {
        if self.beta <= 1.0 {
            return f64::INFINITY;
        }
        // alpha * (pi/beta) / sin(pi/beta)
        let b = std::f64::consts::PI / self.beta;
        self.alpha * b / b.sin()
    }

    fn variance(&self) -> f64 {
        if self.beta <= 2.0 {
            return f64::INFINITY;
        }
        let b = std::f64::consts::PI / self.beta;
        let m1 = b / b.sin();
        let m2 = 2.0 * b / (2.0 * b).sin();
        self.alpha * self.alpha * (m2 - m1 * m1)
    }
}

impl std::fmt::Display for LogLogistic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LogLogistic(alpha={}, beta={})", self.alpha, self.beta)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;

    #[test]
    fn rejects_bad_params() {
        assert!(LogLogistic::new(0.0, 1.0).is_err());
        assert!(LogLogistic::new(1.0, -1.0).is_err());
        assert!(LogLogistic::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn consistency() {
        for &(a, b) in &[(1.0, 1.5), (10.0, 3.0), (0.5, 0.8)] {
            let d = LogLogistic::new(a, b).unwrap();
            testutil::check_quantile_roundtrip(&d, 1e-10);
            testutil::check_cdf_monotone(&d);
            testutil::check_ln_pdf(&d);
        }
    }

    #[test]
    fn median_is_alpha() {
        let d = LogLogistic::new(42.0, 2.7).unwrap();
        assert!((d.quantile(0.5) - 42.0).abs() < 1e-9);
        assert!((d.cdf(42.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn moments() {
        // beta = 2: mean = alpha * (pi/2) / sin(pi/2) = alpha * pi/2.
        let d = LogLogistic::new(4.0, 2.0).unwrap();
        assert!((d.mean() - 4.0 * std::f64::consts::PI / 2.0).abs() < 1e-9);
        assert_eq!(d.variance(), f64::INFINITY);
        assert_eq!(LogLogistic::new(1.0, 0.9).unwrap().mean(), f64::INFINITY);
        assert!(LogLogistic::new(1.0, 3.0).unwrap().variance().is_finite());
    }

    #[test]
    fn sampling_matches_median() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let d = LogLogistic::new(7.0, 2.5).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let mut xs: Vec<f64> = (0..20_001).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[10_000];
        assert!((median - 7.0).abs() / 7.0 < 0.05, "median = {median}");
    }

    #[test]
    fn mle_recovers_params() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for &(a, b) in &[(5.0, 2.0), (100.0, 4.0), (1.0, 1.2)] {
            let truth = LogLogistic::new(a, b).unwrap();
            let mut rng = StdRng::seed_from_u64(13);
            let xs: Vec<f64> = (0..30_000).map(|_| truth.sample(&mut rng)).collect();
            let fit = LogLogistic::fit_mle(&xs).unwrap();
            assert!(
                (fit.alpha() - a).abs() / a < 0.05,
                "alpha {} vs {a}",
                fit.alpha()
            );
            assert!(
                (fit.beta() - b).abs() / b < 0.05,
                "beta {} vs {b}",
                fit.beta()
            );
        }
    }

    #[test]
    fn mle_is_pinned_bit_for_bit() {
        // Tie-heavy: five values repeat 12 times each, plus 20 spread ones.
        let mut ties: Vec<f64> = (0..60)
            .map(|i| [512.0, 1024.0, 1024.0, 4096.0, 65536.0][i % 5])
            .collect();
        ties.extend((1..=20).map(|i| 300.0 * f64::from(i)));
        // Block-size-heavy: 95% at 128 MiB.
        const BLOCK: f64 = 134_217_728.0;
        let mut blocks = vec![BLOCK; 190];
        blocks.extend((1..=10).map(|i| BLOCK * f64::from(i) / 11.0));
        // Continuous: no two values equal.
        let continuous: Vec<f64> = (1..=300)
            .map(|i| 1.0 + 1e5 * (f64::from(i) * 0.754_877_666_246_692_8).fract().powi(3))
            .collect();
        for (xs, alpha, beta) in [
            (&ties, 0x40a0_a8c6_9fef_1854, 0x3ff2_d448_33b5_4ccd),
            (&blocks, 0x419f_dade_a443_6e59, 0x4036_9ae8_0bed_62ef),
            (&continuous, 0x40bf_2e15_6e18_5f9c, 0x3fe6_27c1_05c8_7765),
        ] {
            let fit = LogLogistic::fit_mle(xs).unwrap();
            assert_eq!(fit.alpha().to_bits(), alpha, "alpha {}", fit.alpha());
            assert_eq!(fit.beta().to_bits(), beta, "beta {}", fit.beta());
        }
    }

    #[test]
    fn mle_rejects_bad_samples() {
        assert!(LogLogistic::fit_mle(&[]).is_err());
        assert!(LogLogistic::fit_mle(&[1.0, -1.0]).is_err());
        assert!(LogLogistic::fit_mle(&[2.0; 8]).is_err());
    }

    #[test]
    fn outside_support() {
        let d = LogLogistic::new(1.0, 2.0).unwrap();
        assert_eq!(d.pdf(0.0), 0.0);
        assert_eq!(d.cdf(-1.0), 0.0);
        assert_eq!(d.ln_pdf(0.0), f64::NEG_INFINITY);
    }
}
