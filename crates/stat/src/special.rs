//! Special functions needed by the distribution implementations.
//!
//! Self-contained implementations of the handful of special functions the
//! fitting pipeline needs: `ln Γ`, digamma, the regularized incomplete gamma
//! function, the error function and its inverse. Accuracy targets are
//! ~1e-10 relative for `ln_gamma`/`erf` and ~1e-8 for the iterative ones,
//! which is far below the statistical noise of any fit on real samples.

/// Natural log of the gamma function, `ln Γ(x)` for `x > 0`.
///
/// Uses the Lanczos approximation (g = 7, n = 9 coefficients), accurate to
/// about 1e-13 over the positive reals.
///
/// # Panics
///
/// Panics in debug builds if `x <= 0`.
#[must_use]
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients for g = 7.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Digamma function `ψ(x) = d/dx ln Γ(x)` for `x > 0`.
///
/// Uses the recurrence to push the argument above 6, then the asymptotic
/// series. Accurate to ~1e-12.
#[must_use]
pub fn digamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "digamma requires x > 0, got {x}");
    let mut x = x;
    let mut result = 0.0;
    // Recurrence ψ(x) = ψ(x+1) - 1/x until x >= 6.
    while x < 6.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    // Asymptotic expansion.
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result + x.ln()
        - 0.5 * inv
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0))))
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x) / Γ(a)`.
///
/// `P(a, x)` is the CDF of the gamma distribution with shape `a` and unit
/// scale. Uses the series expansion for `x < a + 1` and the continued
/// fraction for `x >= a + 1` (Numerical Recipes style).
///
/// Returns 0 for `x <= 0`.
#[must_use]
pub fn gamma_p(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0, "gamma_p requires a > 0, got {a}");
    if x <= 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Series representation of `P(a, x)`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-14;
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued-fraction representation of `Q(a, x) = 1 - P(a, x)`.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-14;
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Error function `erf(x)`, computed as `sign(x) · P(1/2, x²)` with
/// [`gamma_p`] to close to double precision: within 1.3e-15 relative of
/// reference values from 0.01 to 4. It is exactly ±1 beyond |x| = 6,
/// where it rounds to ±1 anyway.
#[must_use]
pub fn erf(x: f64) -> f64 {
    // Use the incomplete gamma relation for full double precision:
    // erf(x) = P(1/2, x^2) for x >= 0.
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let ax = x.abs();
    if ax == 0.0 {
        return 0.0;
    }
    if ax > 6.0 {
        return sign; // erf saturates well before 6.
    }
    sign * gamma_p(0.5, ax * ax)
}

/// Complementary error function `erfc(x) = 1 - erf(x)`.
fn erfc(x: f64) -> f64 {
    1.0 - erf(x)
}

/// Inverse error function: returns `y` with `erf(y) = x`, for `x ∈ (-1, 1)`.
///
/// Uses Winitzki's initial approximation refined by two Newton steps;
/// accurate to ~1e-12 over the full domain.
///
/// # Panics
///
/// Panics in debug builds if `|x| >= 1`.
fn erf_inv(x: f64) -> f64 {
    debug_assert!(x > -1.0 && x < 1.0, "erf_inv requires |x| < 1, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    // Winitzki approximation.
    let a = 0.147;
    let ln1mx2 = (1.0 - x * x).ln();
    let term1 = 2.0 / (std::f64::consts::PI * a) + ln1mx2 / 2.0;
    let mut y = (((term1 * term1) - ln1mx2 / a).sqrt() - term1).sqrt();
    // Newton refinement: f(y) = erf(y) - x, f'(y) = 2/sqrt(pi) exp(-y^2).
    let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
    for _ in 0..3 {
        let err = erf(y) - x;
        let deriv = two_over_sqrt_pi * (-y * y).exp();
        if deriv == 0.0 {
            break;
        }
        y -= err / deriv;
    }
    sign * y
}

/// Standard normal CDF `Φ(x)`.
#[must_use]
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal quantile `Φ⁻¹(p)` for `p ∈ (0, 1)`.
#[must_use]
pub fn std_normal_quantile(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");
    std::f64::consts::SQRT_2 * erf_inv(2.0 * p - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + b.abs())
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = Γ(2) = 1; Γ(5) = 24; Γ(0.5) = sqrt(pi)
        assert!(close(ln_gamma(1.0), 0.0, 1e-12));
        assert!(close(ln_gamma(2.0), 0.0, 1e-12));
        assert!(close(ln_gamma(5.0), 24f64.ln(), 1e-12));
        assert!(close(
            ln_gamma(0.5),
            std::f64::consts::PI.sqrt().ln(),
            1e-12
        ));
        // Γ(10) = 362880
        assert!(close(ln_gamma(10.0), 362_880f64.ln(), 1e-12));
    }

    #[test]
    fn ln_gamma_recurrence() {
        // ln Γ(x+1) = ln Γ(x) + ln x
        for &x in &[0.3, 1.7, 4.2, 11.0, 33.3] {
            assert!(close(ln_gamma(x + 1.0), ln_gamma(x) + x.ln(), 1e-11));
        }
    }

    #[test]
    fn digamma_known_values() {
        // ψ(1) = -γ (Euler–Mascheroni)
        let euler = 0.577_215_664_901_532_9;
        assert!(close(digamma(1.0), -euler, 1e-10));
        // ψ(1/2) = -γ - 2 ln 2
        assert!(close(digamma(0.5), -euler - 2.0 * 2f64.ln(), 1e-10));
        // Recurrence ψ(x+1) = ψ(x) + 1/x
        for &x in &[0.7, 2.5, 9.1] {
            assert!(close(digamma(x + 1.0), digamma(x) + 1.0 / x, 1e-10));
        }
    }

    #[test]
    fn gamma_p_matches_exponential_cdf() {
        // P(1, x) = 1 - exp(-x)
        for &x in &[0.1, 0.5, 1.0, 2.0, 5.0, 10.0] {
            assert!(close(gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-12));
        }
    }

    #[test]
    fn gamma_p_is_monotone_cdf() {
        let a = 2.5;
        let mut prev = 0.0;
        for i in 1..200 {
            let x = i as f64 * 0.1;
            let p = gamma_p(a, x);
            assert!(p >= prev);
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
        assert!(gamma_p(a, 1e6) > 1.0 - 1e-12);
        assert_eq!(gamma_p(a, 0.0), 0.0);
        assert_eq!(gamma_p(a, -5.0), 0.0);
    }

    #[test]
    fn erf_known_values() {
        assert_eq!(erf(0.0), 0.0);
        assert!(close(erf(1.0), 0.842_700_792_949_714_9, 1e-10));
        assert!(close(erf(2.0), 0.995_322_265_018_952_7, 1e-10));
        assert!(close(erf(-1.0), -0.842_700_792_949_714_9, 1e-10));
        assert_eq!(erf(10.0), 1.0);
    }

    #[test]
    fn erf_is_close_to_double_precision() {
        let reference = [
            (0.01, 0.011_283_415_555_849_618),
            (0.5, 0.520_499_877_813_046_5),
            (1.0, 0.842_700_792_949_714_9),
            (1.5, 0.966_105_146_475_310_7),
            (3.0, 0.999_977_909_503_001_4),
        ];
        for (x, want) in reference {
            assert!(close(erf(x), want, 2e-15), "erf({x}) = {}", erf(x));
        }
    }

    #[test]
    fn erf_inv_roundtrip() {
        for &x in &[-0.999, -0.9, -0.5, -0.01, 0.01, 0.3, 0.7, 0.95, 0.9999] {
            let y = erf_inv(x);
            assert!(close(erf(y), x, 1e-9), "x={x} y={y} erf(y)={}", erf(y));
        }
    }

    #[test]
    fn normal_cdf_and_quantile_roundtrip() {
        assert!(close(std_normal_cdf(0.0), 0.5, 1e-12));
        assert!(close(std_normal_cdf(1.96), 0.975, 1e-3));
        for &p in &[0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999] {
            let x = std_normal_quantile(p);
            assert!(close(std_normal_cdf(x), p, 1e-9));
        }
    }
}
