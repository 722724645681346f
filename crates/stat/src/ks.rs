//! Kolmogorov–Smirnov goodness-of-fit tests.
//!
//! Keddah judges candidate distribution families by the KS statistic
//! against the empirical sample (one-sample test) and validates generated
//! traffic against captured traffic with the two-sample test.

use crate::{Result, StatError};

/// The outcome of a KS test: the supremum distance and an asymptotic
/// p-value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// The KS statistic `D = sup |F1 - F2|`.
    pub statistic: f64,
    /// Asymptotic p-value from the Kolmogorov distribution; small values
    /// reject the hypothesis that the sample follows the reference.
    pub p_value: f64,
}

/// One-sample KS test of `samples` against a reference CDF.
///
/// `cdf` must be a valid CDF (monotone, into `[0, 1]`).
///
/// # Errors
///
/// Returns [`StatError::EmptySample`] if `samples` is empty or
/// [`StatError::InvalidParameter`] if a sample is non-finite.
///
/// # Examples
///
/// ```
/// use keddah_stat::ks::ks_one_sample;
///
/// // A uniform grid on (0,1) against the uniform CDF: tiny distance.
/// let xs: Vec<f64> = (1..100).map(|i| i as f64 / 100.0).collect();
/// let r = ks_one_sample(&xs, |x| x.clamp(0.0, 1.0)).unwrap();
/// assert!(r.statistic < 0.02);
/// ```
pub fn ks_one_sample<F: Fn(f64) -> f64>(samples: &[f64], cdf: F) -> Result<KsResult> {
    let sorted = sorted_sample(samples)?;
    Ok(ks_result(ks_sorted(&sorted, &cdf), sorted.len()))
}

/// A sorted copy of `samples`, the input every one-sample scan below
/// takes.
///
/// # Errors
///
/// Returns [`StatError::EmptySample`] if `samples` is empty or
/// [`StatError::InvalidParameter`] if a sample is non-finite.
pub(crate) fn sorted_sample(samples: &[f64]) -> Result<Vec<f64>> {
    if samples.is_empty() {
        return Err(StatError::EmptySample);
    }
    if let Some(&x) = samples.iter().find(|x| !x.is_finite()) {
        return Err(StatError::InvalidParameter {
            name: "sample",
            value: x,
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted)
}

/// The statistic `d` of a sample of `n` values with its asymptotic
/// p-value.
pub(crate) fn ks_result(d: f64, n: usize) -> KsResult {
    let n = n as f64;
    KsResult {
        statistic: d,
        p_value: kolmogorov_sf(d * (n.sqrt() + 0.12 + 0.11 / n.sqrt())),
    }
}

/// The tie groups of a sorted sample: maximal runs `[i, j)` of equal
/// values, in order.
fn tie_groups(sorted: &[f64]) -> impl Iterator<Item = (usize, usize)> + '_ {
    let mut i = 0;
    std::iter::from_fn(move || {
        let v = *sorted.get(i)?;
        let start = i;
        i += 1;
        while i < sorted.len() && sorted[i] == v {
            i += 1;
        }
        Some((start, i))
    })
}

/// The KS distance term of the tie group `[i, j)` of `sorted`.
///
/// Grouping tied values lets reference distributions with point masses
/// (e.g. the empirical quantile-table model on block-sized flows) be
/// compared correctly: at a distinct value v, the lower comparison uses
/// F(v^-), the upper uses F(v). The KS distance is the maximum of these
/// terms over all groups, so it does not depend on the order in which
/// the groups are visited.
#[inline]
fn group_term<F: Fn(f64) -> f64>(sorted: &[f64], i: usize, j: usize, cdf: &F) -> f64 {
    let n = sorted.len() as f64;
    let v = sorted[i];
    let lo = i as f64 / n;
    let hi = j as f64 / n;
    let f_at = cdf(v);
    let delta = (v.abs() * 1e-12).max(f64::MIN_POSITIVE);
    let f_before = cdf(v - delta);
    (f_before - lo).abs().max((hi - f_at).abs())
}

/// The one-sample KS distance of a sorted sample against `cdf`.
pub(crate) fn ks_sorted<F: Fn(f64) -> f64>(sorted: &[f64], cdf: &F) -> f64 {
    tie_groups(sorted)
        .map(|(i, j)| group_term(sorted, i, j, cdf))
        .fold(0.0, f64::max)
}

/// Sorted positions between the tie groups [`ks_lower_bound`] samples.
const BOUND_STRIDE: usize = 16;

/// A lower bound on [`ks_sorted`]: the largest term among the tie
/// groups that hold a sorted position divisible by 16, about one group
/// in 16 for a sample without ties and each group once however large.
pub(crate) fn ks_lower_bound<F: Fn(f64) -> f64>(sorted: &[f64], cdf: &F) -> f64 {
    let mut d: f64 = 0.0;
    let mut p = 0;
    while p < sorted.len() {
        let v = sorted[p];
        // The group began at or after the previous group's end, which is
        // fewer than BOUND_STRIDE positions back.
        let i = p - sorted[..p].iter().rev().take_while(|&&x| x == v).count();
        let j = p + sorted[p..].partition_point(|&x| x == v);
        d = d.max(group_term(sorted, i, j, cdf));
        p = j.next_multiple_of(BOUND_STRIDE);
    }
    d
}

/// Completes a scan that [`ks_lower_bound`] began with `bound`: scores
/// the groups the bound skipped and returns the full [`ks_sorted`]
/// distance, or `None` as soon as the running distance exceeds `limit`.
pub(crate) fn ks_finish<F: Fn(f64) -> f64>(
    sorted: &[f64],
    cdf: &F,
    bound: f64,
    limit: f64,
) -> Option<f64> {
    let mut d = bound;
    if d > limit {
        return None;
    }
    for (i, j) in tie_groups(sorted) {
        // A group holding a multiple of the stride was scored by the bound.
        if i.next_multiple_of(BOUND_STRIDE) < j {
            continue;
        }
        d = d.max(group_term(sorted, i, j, cdf));
        if d > limit {
            return None;
        }
    }
    Some(d)
}

/// Two-sample KS test.
///
/// # Errors
///
/// Returns [`StatError::EmptySample`] if either sample is empty, or
/// [`StatError::InvalidParameter`] on non-finite values.
///
/// # Examples
///
/// ```
/// use keddah_stat::ks::ks_two_sample;
///
/// let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
/// let b: Vec<f64> = (0..100).map(|i| i as f64 + 0.5).collect();
/// let r = ks_two_sample(&a, &b).unwrap();
/// assert!(r.statistic < 0.05);
/// ```
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> Result<KsResult> {
    if a.is_empty() || b.is_empty() {
        return Err(StatError::EmptySample);
    }
    for &x in a.iter().chain(b.iter()) {
        if !x.is_finite() {
            return Err(StatError::InvalidParameter {
                name: "sample",
                value: x,
            });
        }
    }
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(f64::total_cmp);
    sb.sort_by(f64::total_cmp);
    let (na, nb) = (sa.len(), sb.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < na && j < nb {
        let xa = sa[i];
        let xb = sb[j];
        let x = xa.min(xb);
        while i < na && sa[i] <= x {
            i += 1;
        }
        while j < nb && sb[j] <= x {
            j += 1;
        }
        let fa = i as f64 / na as f64;
        let fb = j as f64 / nb as f64;
        d = d.max((fa - fb).abs());
    }
    let ne = (na as f64 * nb as f64) / (na as f64 + nb as f64);
    let p_value = kolmogorov_sf(d * (ne.sqrt() + 0.12 + 0.11 / ne.sqrt()));
    Ok(KsResult {
        statistic: d,
        p_value,
    })
}

/// Kolmogorov distribution survival function
/// `Q(t) = 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 t^2)`.
#[must_use]
pub fn kolmogorov_sf(t: f64) -> f64 {
    if t <= 0.0 {
        return 1.0;
    }
    if t > 8.0 {
        return 0.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * t * t).exp();
        sum += sign * term;
        if term < 1e-16 {
            break;
        }
        sign = -sign;
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{Distribution, Exponential, Normal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn one_sample_accepts_true_model() {
        let d = Exponential::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let xs: Vec<f64> = (0..2000).map(|_| d.sample(&mut rng)).collect();
        let r = ks_one_sample(&xs, |x| d.cdf(x)).unwrap();
        assert!(r.statistic < 0.04, "D={}", r.statistic);
        assert!(r.p_value > 0.01, "p={}", r.p_value);
    }

    #[test]
    fn one_sample_rejects_wrong_model() {
        let d = Exponential::new(1.0).unwrap();
        let wrong = Normal::new(5.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let xs: Vec<f64> = (0..2000).map(|_| d.sample(&mut rng)).collect();
        let r = ks_one_sample(&xs, |x| wrong.cdf(x)).unwrap();
        assert!(r.statistic > 0.5, "D={}", r.statistic);
        assert!(r.p_value < 1e-6);
    }

    #[test]
    fn two_sample_same_distribution() {
        let d = Normal::new(0.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let a: Vec<f64> = (0..3000).map(|_| d.sample(&mut rng)).collect();
        let b: Vec<f64> = (0..3000).map(|_| d.sample(&mut rng)).collect();
        let r = ks_two_sample(&a, &b).unwrap();
        assert!(r.statistic < 0.05, "D={}", r.statistic);
        assert!(r.p_value > 0.01);
    }

    #[test]
    fn two_sample_shifted_distribution() {
        let d = Normal::new(0.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(14);
        let a: Vec<f64> = (0..2000).map(|_| d.sample(&mut rng)).collect();
        let b: Vec<f64> = a.iter().map(|&x| x + 1.0).collect();
        let r = ks_two_sample(&a, &b).unwrap();
        assert!(r.statistic > 0.3, "D={}", r.statistic);
        assert!(r.p_value < 1e-6);
    }

    #[test]
    fn two_sample_is_symmetric() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![1.5, 2.5, 3.5, 4.5];
        let r1 = ks_two_sample(&a, &b).unwrap();
        let r2 = ks_two_sample(&b, &a).unwrap();
        assert!((r1.statistic - r2.statistic).abs() < 1e-12);
    }

    #[test]
    fn non_finite_samples_error_not_panic() {
        assert!(matches!(
            ks_one_sample(&[1.0, f64::NAN], |x| x),
            Err(StatError::InvalidParameter { .. })
        ));
        assert!(ks_two_sample(&[1.0], &[f64::INFINITY]).is_err());
    }

    #[test]
    fn empty_inputs_error() {
        assert!(ks_one_sample(&[], |x| x).is_err());
        assert!(ks_two_sample(&[], &[1.0]).is_err());
        assert!(ks_two_sample(&[1.0], &[]).is_err());
    }

    #[test]
    fn one_sample_handles_atomic_reference() {
        use crate::distributions::Empirical;
        // 80% point mass at 128, 20% spread: the empirical model of its
        // own sample must score a near-zero KS distance.
        let mut xs = vec![128.0; 800];
        xs.extend((0..200).map(|i| 1.0 + i as f64 * 0.1));
        let d = Empirical::fit(&xs).unwrap();
        let r = ks_one_sample(&xs, |x| d.cdf(x)).unwrap();
        assert!(r.statistic < 0.05, "D = {}", r.statistic);
    }

    #[test]
    fn two_tiny_samples_stay_finite() {
        // Degenerate sample sizes (one or two points per side, the
        // smallest a user-supplied trace can produce) exercise the
        // effective-n correction where `ne < 1`; the statistic and
        // p-value must stay finite and in range, never NaN.
        let disjoint = ks_two_sample(&[1.0], &[2.0]).unwrap();
        assert_eq!(disjoint.statistic, 1.0);
        assert!((0.0..=1.0).contains(&disjoint.p_value), "{disjoint:?}");
        let identical = ks_two_sample(&[1.0, 1.0], &[1.0]).unwrap();
        assert_eq!(identical.statistic, 0.0);
        assert!((identical.p_value - 1.0).abs() < 1e-12);
        let two_each = ks_two_sample(&[1.0, 2.0], &[1.5, 2.5]).unwrap();
        assert!(two_each.statistic.is_finite() && two_each.p_value.is_finite());
    }

    #[test]
    fn bound_and_finish_agree_with_the_full_scan() {
        use crate::distributions::{Empirical, LogNormal};
        let d = LogNormal::new(4.0, 1.5).unwrap();
        let mut rng = StdRng::seed_from_u64(15);
        // Continuous draws, then the same with block-sized point masses
        // spanning many bound positions, then a sample too small to reach
        // the second bound position.
        let smooth: Vec<f64> = (0..500).map(|_| d.sample(&mut rng)).collect();
        let mut massed = smooth.clone();
        massed.extend([64.0; 70].iter().chain(&[128.0; 300]));
        let tiny = vec![3.0, 1.0, 2.0, 2.0];
        for xs in [smooth, massed, tiny] {
            let sorted = sorted_sample(&xs).unwrap();
            let emp = Empirical::fit(&xs[..xs.len() / 2]).unwrap();
            let cdfs: [&dyn Fn(f64) -> f64; 2] = [&|x| d.cdf(x), &|x| emp.cdf(x)];
            for cdf in cdfs {
                let full = ks_sorted(&sorted, &cdf);
                let bound = ks_lower_bound(&sorted, &cdf);
                assert!(bound <= full, "bound {bound} above distance {full}");
                let finished = ks_finish(&sorted, &cdf, bound, f64::INFINITY).unwrap();
                assert_eq!(finished.to_bits(), full.to_bits());
                assert_eq!(ks_finish(&sorted, &cdf, bound, full), Some(full));
                assert_eq!(ks_finish(&sorted, &cdf, bound, full.next_down()), None);
            }
        }
    }

    #[test]
    fn kolmogorov_sf_bounds() {
        assert_eq!(kolmogorov_sf(0.0), 1.0);
        assert_eq!(kolmogorov_sf(-1.0), 1.0);
        assert_eq!(kolmogorov_sf(100.0), 0.0);
        // Known value: Q(1.0) ~ 0.27.
        assert!((kolmogorov_sf(1.0) - 0.27).abs() < 0.01);
        // Monotone decreasing.
        let mut prev = 1.0;
        for i in 1..80 {
            let q = kolmogorov_sf(i as f64 * 0.1);
            assert!(q <= prev + 1e-15);
            prev = q;
        }
    }
}
