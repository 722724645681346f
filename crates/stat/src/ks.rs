//! Kolmogorov–Smirnov goodness-of-fit tests.
//!
//! Keddah judges candidate distribution families by the KS statistic
//! against the empirical sample (one-sample test) and validates generated
//! traffic against captured traffic with the two-sample test.

use crate::distributions::check_sample;
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
    let sorted = sorted_sample(samples.to_vec())?;
    Ok(ks_result(ks_sorted(&sorted, &cdf), sorted.len()))
}

/// `samples`, checked and sorted by `f64::total_cmp`: the crate's one
/// validate-and-sort, behind every ECDF, empirical table, KS and AD test.
///
/// # Errors
///
/// Returns [`StatError::EmptySample`] if `samples` is empty or
/// [`StatError::InvalidParameter`] naming the first non-finite sample.
pub(crate) fn sorted_sample(mut samples: Vec<f64>) -> Result<Vec<f64>> {
    check_sample(&samples)?;
    // Values equal under `total_cmp` have equal bits, so this is the order
    // a stable sort gives, without a stable sort's scratch buffer.
    samples.sort_unstable_by(f64::total_cmp);
    Ok(samples)
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
    let f_before = cdf(below(v));
    (f_before - lo).abs().max((hi - f_at).abs())
}

/// The point just below `v` at which [`group_term`] reads F(v⁻).
#[inline]
fn below(v: f64) -> f64 {
    v - (v.abs() * 1e-12).max(f64::MIN_POSITIVE)
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

/// Rank-spaced tie groups a [`KsProbe`] keeps.
const PROBE_RANKS: usize = 16;

/// The largest tie groups a [`KsProbe`] keeps besides.
const PROBE_HEAVY: usize = 4;

/// The most points a [`KsProbe`] keeps: two per group.
const PROBE_POINTS: usize = 2 * (PROBE_RANKS + PROBE_HEAVY);

/// What [`KsProbe::rules_out`] adds to the distance it is asked about:
/// far above the rounding of a CDF against the exact curve it computes.
const PROBE_MARGIN: f64 = 1e-6;

/// The relative slack of [`KsProbe::rules_out`]'s slope comparison, far
/// above the rounding of its own arithmetic.
const PROBE_SLACK: f64 = 1e-9;

/// Bisection steps of [`KsProbe::bound`]: a resolution of 2⁻¹⁰.
const PROBE_STEPS: u32 = 10;

/// A bound on the error of `ln x` plus its share of a difference of two
/// logs, relative to the computed log: two ulps.
const LN_ERROR: f64 = 2.0 * f64::EPSILON;

/// A few tie groups' KS terms: a parameter-free test of how close a
/// family whose CDF is a line in `ln x` can come to the sample.
///
/// At a tie group `[i, j)` of value v, [`group_term`] compares F(v⁻),
/// read at `v − δ`, with i/n and F(v) with j/n, so a CDF within KS
/// distance d of the sample keeps both within d. The probe keeps these
/// two points for the groups holding 16 evenly spaced sorted positions and
/// for the 4 largest groups: at most 40, whatever the sample's size.
#[derive(Debug)]
pub(crate) struct KsProbe {
    /// `(ln x, a bound on its rounding, p)` of each point at `x > 0`: the
    /// CDF at `x` must be within the distance of `p`.
    points: Vec<(f64, f64, f64)>,
    /// The largest `p` of a point at `x ≤ 0`, where the CDF is 0.
    at_zero: f64,
}

impl KsProbe {
    /// The probe of a sorted, non-empty sample.
    pub(crate) fn new(sorted: &[f64]) -> KsProbe {
        let n = sorted.len();
        let group_at = |p: usize| {
            let v = sorted[p];
            let i = sorted[..p].partition_point(|&x| x < v);
            (i, p + sorted[p..].partition_point(|&x| x == v))
        };
        let mut groups: Vec<(usize, usize)> = (0..PROBE_RANKS)
            .map(|k| group_at((2 * k + 1) * n / (2 * PROBE_RANKS)))
            .collect();
        // The largest groups, largest first, ties to the earlier one.
        let mut heavy = [(0, 0); PROBE_HEAVY];
        for (i, j) in tie_groups(sorted) {
            if let Some(at) = heavy.iter().position(|&(a, b)| j - i > b - a) {
                heavy[at..].rotate_right(1);
                heavy[at] = (i, j);
            }
        }
        groups.extend(heavy.iter().filter(|&&(i, j)| j - i > 1));
        groups.sort_unstable();
        groups.dedup();
        let n = n as f64;
        let mut probe = KsProbe {
            points: Vec::with_capacity(PROBE_POINTS),
            at_zero: 0.0,
        };
        for &(i, j) in &groups {
            let v = sorted[i];
            for (x, p) in [(below(v), i as f64 / n), (v, j as f64 / n)] {
                if x > 0.0 {
                    let u = x.ln();
                    probe.points.push((u, u.abs() * LN_ERROR, p));
                } else {
                    probe.at_zero = probe.at_zero.max(p);
                }
            }
        }
        probe
    }

    /// Whether every CDF F with `t(F(x)) = a + b ln x`, for some `a` and
    /// some `b > 0`, and `F(x) = 0` at `x ≤ 0`, is more than `d` from the
    /// sample at one of the probe's points, and so has a KS distance above
    /// `d`. `t` must increase on (0, 1); it is read only there.
    ///
    /// Each point bounds the line at `u = ln x` between `t(p − d)` and
    /// `t(p + d)`, unbounded where those leave (0, 1). Eliminating `a`
    /// leaves a test on every ordered pair of points `k`, `m`:
    /// `b (u_k − u_m) ≥ L_k − U_m`. Each pair bounds `b` from below or
    /// from above, and the family is ruled out when no `b > 0` meets every
    /// bound. The test is conservative throughout: `d` grows by
    /// [`PROBE_MARGIN`], which covers the CDF's rounding for shapes up to
    /// about 1e9; each log difference is widened by its rounding; and
    /// the bounds must cross by more than [`PROBE_SLACK`].
    pub(crate) fn rules_out(&self, t: fn(f64) -> f64, d: f64) -> bool {
        let d = d + PROBE_MARGIN;
        if !d.is_finite() {
            return false;
        }
        if self.at_zero > d {
            return true;
        }
        let line = |q: f64| match q {
            q if q <= 0.0 => f64::NEG_INFINITY,
            q if q >= 1.0 => f64::INFINITY,
            q => t(q),
        };
        // (u, its rounding bound, lowest line value, highest line value)
        let mut bands = [(0.0, 0.0, 0.0, 0.0); PROBE_POINTS];
        for (band, &(u, e, p)) in bands.iter_mut().zip(&self.points) {
            *band = (u, e, line(p - d), line(p + d));
        }
        let bands = &bands[..self.points.len()];
        let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
        for &(u_k, e_k, low_k, _) in bands {
            for &(u_m, e_m, _, high_m) in bands {
                // At least the exact u_k − u_m.
                let du = (u_k - u_m) + (e_k + e_m);
                let rise = low_k - high_m;
                if du > 0.0 {
                    lo = lo.max(rise / du);
                } else if du < 0.0 {
                    hi = hi.min(rise / du);
                } else if rise > 0.0 {
                    return true;
                }
            }
            if hi <= 0.0 || lo > hi * (1.0 + PROBE_SLACK) {
                return true;
            }
        }
        false
    }

    /// A lower bound on the KS distance of every CDF [`KsProbe::rules_out`]
    /// describes: the largest multiple of 2⁻¹⁰ below 1 at which it rules
    /// them out, found by bisection, or 0 if it does not at 0.
    pub(crate) fn bound(&self, t: fn(f64) -> f64) -> f64 {
        if !self.rules_out(t, 0.0) {
            return 0.0;
        }
        let (mut lo, mut hi) = (0.0, 1.0);
        for _ in 0..PROBE_STEPS {
            let mid = 0.5 * (lo + hi);
            if self.rules_out(t, mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
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
    ks_two_sample_owned(a.to_vec(), b.to_vec())
}

/// [`ks_two_sample`] on samples it may reorder: each is sorted in place,
/// so a caller that already holds its own copies makes no more.
pub(crate) fn ks_two_sample_owned(a: Vec<f64>, b: Vec<f64>) -> Result<KsResult> {
    if a.is_empty() || b.is_empty() {
        return Err(StatError::EmptySample);
    }
    let sa = sorted_sample(a)?;
    let sb = sorted_sample(b)?;
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
            let sorted = sorted_sample(xs.clone()).unwrap();
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

    /// Three points at which a log-logistic or Weibull member is exactly
    /// its own distance d away, above, below and above again, so that it
    /// is the one member within d of them. Its shape is so large that the
    /// CDF's rounding moves its slope by far more than the slope slack:
    /// the probe must still not rule its family out at d.
    #[test]
    fn a_member_at_its_own_distance_keeps_its_family() {
        use crate::distributions::{LogLogistic, Weibull};
        use crate::fit::Candidate;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(16);
        for _ in 0..100 {
            let scale = 1.0 + rng.random_range(1e-7..1e-6);
            let shape = rng.random_range(5e7..2e8);
            let d = rng.random_range(0.01..0.2);
            let xs = [1.0 - 1e-9, 1.0, 1.0 + 1e-9].map(|r| scale * r);
            let ll = LogLogistic::new(scale, shape).unwrap();
            let weibull = Weibull::new(shape, scale).unwrap();
            let members: [(&dyn Fn(f64) -> f64, Candidate); 2] = [
                (&|x| ll.cdf(x), Candidate::LogLogistic),
                (&|x| weibull.cdf(x), Candidate::Weibull),
            ];
            for (cdf, family) in members {
                let points: Vec<(f64, f64)> = (xs.iter().zip([-d, d, -d]))
                    .map(|(&x, off)| (x, cdf(x) + off))
                    .collect();
                let reached = (points.iter())
                    .map(|&(x, p)| (cdf(x) - p).abs())
                    .fold(0.0, f64::max);
                let probe = KsProbe {
                    points: (points.iter())
                        .map(|&(x, p)| (x.ln(), x.ln().abs() * LN_ERROR, p))
                        .collect(),
                    at_zero: 0.0,
                };
                assert!(
                    !probe.rules_out(family.line().unwrap(), reached),
                    "{family} ({scale}, {shape}) reaches {reached}"
                );
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
