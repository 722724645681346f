//! Candidate-sweep fitting with model selection.
//!
//! This is the core of Keddah's modelling step: given a sample of flow
//! sizes (or inter-arrivals, or counts), fit every candidate family by
//! maximum likelihood, score each fit by both the KS statistic and AIC,
//! and keep the best. The winner is wrapped in [`FittedDist`], a
//! serializable enum that the Keddah model format stores and that can
//! regenerate synthetic values.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::ad::ad_one_sample;
use crate::distributions::{
    Distribution, Empirical, Exponential, Gamma, LogLogistic, LogNormal, Normal, Pareto, Uniform,
    Weibull, DEFAULT_KNOTS,
};
use crate::ks::{ks_finish, ks_lower_bound, ks_result, ks_sorted, sorted_sample, KsResult};
use crate::memo::{LogSample, TermMemo};
use crate::{Result, StatError};

/// A distribution family that can be entered into a candidate sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Candidate {
    /// [`Exponential`]
    Exponential,
    /// [`Uniform`]
    Uniform,
    /// [`Normal`]
    Normal,
    /// [`LogLogistic`]
    LogLogistic,
    /// [`LogNormal`]
    LogNormal,
    /// [`Weibull`]
    Weibull,
    /// [`Pareto`]
    Pareto,
    /// [`Gamma`]
    Gamma,
}

impl Candidate {
    /// Every supported family.
    pub const ALL: &'static [Candidate] = &[
        Candidate::Exponential,
        Candidate::Uniform,
        Candidate::Normal,
        Candidate::LogLogistic,
        Candidate::LogNormal,
        Candidate::Weibull,
        Candidate::Pareto,
        Candidate::Gamma,
    ];

    /// Families with positive support, the usual set for flow sizes and
    /// durations.
    pub const POSITIVE: &'static [Candidate] = &[
        Candidate::Exponential,
        Candidate::LogLogistic,
        Candidate::LogNormal,
        Candidate::Weibull,
        Candidate::Pareto,
        Candidate::Gamma,
    ];

    /// The number of free parameters, used by the AIC penalty.
    fn param_count(self) -> usize {
        match self {
            Candidate::Exponential => 1,
            _ => 2,
        }
    }

    /// The family's short lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Candidate::Exponential => "exponential",
            Candidate::Uniform => "uniform",
            Candidate::Normal => "normal",
            Candidate::LogLogistic => "loglogistic",
            Candidate::LogNormal => "lognormal",
            Candidate::Weibull => "weibull",
            Candidate::Pareto => "pareto",
            Candidate::Gamma => "gamma",
        }
    }

    /// Fits this family to `samples` by maximum likelihood.
    ///
    /// # Errors
    ///
    /// Propagates the family's `fit_mle` error (empty sample, support
    /// violation, degenerate data, no convergence).
    pub fn fit(self, samples: &[f64]) -> Result<FittedDist> {
        self.fit_in_sweep(samples, &mut None, &mut TermMemo::new())
    }

    /// [`Candidate::fit`] as one candidate of a sweep: the log-space
    /// families fit from the sweep's one pass of logs, which the first
    /// of them takes into `logs`, and every pass shares `memo`.
    fn fit_in_sweep(
        self,
        samples: &[f64],
        logs: &mut Option<Result<LogSample>>,
        memo: &mut TermMemo,
    ) -> Result<FittedDist> {
        Ok(match self {
            Candidate::Exponential => FittedDist::Exponential(Exponential::fit_mle(samples)?),
            Candidate::Uniform => FittedDist::Uniform(Uniform::fit_mle(samples)?),
            Candidate::Normal => FittedDist::Normal(Normal::fit_mle(samples)?),
            Candidate::LogLogistic => FittedDist::LogLogistic(LogLogistic::from_logs(
                shared_logs(logs, samples, memo)?,
                memo,
            )?),
            Candidate::LogNormal => {
                FittedDist::LogNormal(LogNormal::from_logs(shared_logs(logs, samples, memo)?)?)
            }
            Candidate::Weibull => FittedDist::Weibull(Weibull::from_logs(
                samples,
                shared_logs(logs, samples, memo)?,
                memo,
            )?),
            Candidate::Pareto => FittedDist::Pareto(Pareto::fit_mle(samples)?),
            Candidate::Gamma => FittedDist::Gamma(Gamma::from_logs(
                samples,
                shared_logs(logs, samples, memo)?,
            )?),
        })
    }
}

/// A sweep's logs of `samples`, taken into `logs` on first use.
fn shared_logs<'a>(
    logs: &'a mut Option<Result<LogSample>>,
    samples: &[f64],
    memo: &mut TermMemo,
) -> Result<&'a LogSample> {
    (logs.get_or_insert_with(|| LogSample::new(samples, memo)))
        .as_ref()
        .map_err(StatError::clone)
}

impl std::fmt::Display for Candidate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fitted distribution of any supported family.
///
/// This enum is what Keddah models serialize: family tag plus parameters.
/// It implements [`Distribution`] by delegation so generated traffic can be
/// sampled from it directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "family", rename_all = "lowercase")]
pub enum FittedDist {
    /// An exponential fit.
    Exponential(Exponential),
    /// A uniform fit.
    Uniform(Uniform),
    /// A normal fit.
    Normal(Normal),
    /// A log-logistic fit.
    LogLogistic(LogLogistic),
    /// A log-normal fit.
    LogNormal(LogNormal),
    /// A Weibull fit.
    Weibull(Weibull),
    /// A Pareto fit.
    Pareto(Pareto),
    /// A gamma fit.
    Gamma(Gamma),
    /// An empirical quantile-table fallback (used when no parametric
    /// family fits acceptably).
    Empirical(Empirical),
}

macro_rules! delegate {
    ($self:ident, $d:ident => $body:expr) => {
        match $self {
            FittedDist::Exponential($d) => $body,
            FittedDist::Uniform($d) => $body,
            FittedDist::Normal($d) => $body,
            FittedDist::LogLogistic($d) => $body,
            FittedDist::LogNormal($d) => $body,
            FittedDist::Weibull($d) => $body,
            FittedDist::Pareto($d) => $body,
            FittedDist::Gamma($d) => $body,
            FittedDist::Empirical($d) => $body,
        }
    };
}

impl FittedDist {
    /// The parametric family this fit belongs to, or `None` for the
    /// empirical fallback (which is not a sweep candidate).
    #[must_use]
    fn candidate(&self) -> Option<Candidate> {
        match self {
            FittedDist::Exponential(_) => Some(Candidate::Exponential),
            FittedDist::Uniform(_) => Some(Candidate::Uniform),
            FittedDist::Normal(_) => Some(Candidate::Normal),
            FittedDist::LogLogistic(_) => Some(Candidate::LogLogistic),
            FittedDist::LogNormal(_) => Some(Candidate::LogNormal),
            FittedDist::Weibull(_) => Some(Candidate::Weibull),
            FittedDist::Pareto(_) => Some(Candidate::Pareto),
            FittedDist::Gamma(_) => Some(Candidate::Gamma),
            FittedDist::Empirical(_) => None,
        }
    }

    /// The family's short lowercase name (e.g. `"lognormal"`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self.candidate() {
            Some(c) => c.name(),
            None => "empirical",
        }
    }

    /// The distribution of `factor * X`: every family is closed under
    /// positive scaling, so this returns the same family with adjusted
    /// parameters. Used by model extrapolation to stretch arrival
    /// processes to a predicted makespan.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> FittedDist {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive, got {factor}"
        );
        match self {
            FittedDist::Exponential(d) => FittedDist::Exponential(
                Exponential::new(d.rate() / factor).expect("scaled rate is valid"),
            ),
            FittedDist::Uniform(d) => FittedDist::Uniform(
                Uniform::new(d.low() * factor, d.high() * factor).expect("scaled bounds are valid"),
            ),
            FittedDist::Normal(d) => FittedDist::Normal(
                Normal::new(d.mu() * factor, d.sigma() * factor)
                    .expect("scaled parameters are valid"),
            ),
            FittedDist::LogLogistic(d) => FittedDist::LogLogistic(
                LogLogistic::new(d.alpha() * factor, d.beta())
                    .expect("scaled parameters are valid"),
            ),
            FittedDist::LogNormal(d) => FittedDist::LogNormal(
                LogNormal::new(d.mu() + factor.ln(), d.sigma())
                    .expect("scaled parameters are valid"),
            ),
            FittedDist::Weibull(d) => FittedDist::Weibull(
                Weibull::new(d.shape(), d.scale() * factor).expect("scaled scale is valid"),
            ),
            FittedDist::Pareto(d) => FittedDist::Pareto(
                Pareto::new(d.xm() * factor, d.alpha()).expect("scaled xm is valid"),
            ),
            FittedDist::Gamma(d) => FittedDist::Gamma(
                Gamma::new(d.shape(), d.scale() * factor).expect("scaled scale is valid"),
            ),
            FittedDist::Empirical(d) => FittedDist::Empirical(d.scaled(factor)),
        }
    }

    /// Checks the stored parameters, for distributions read from outside
    /// rather than fitted: a parametric family must accept them through
    /// its own `new`, and an empirical table needs at least 2 finite,
    /// non-decreasing knots.
    ///
    /// # Errors
    ///
    /// Returns [`StatError::InvalidParameter`] naming the first rejected
    /// parameter.
    pub fn validate(&self) -> Result<()> {
        match self {
            FittedDist::Exponential(d) => Exponential::new(d.rate()).map(drop),
            FittedDist::Uniform(d) => Uniform::new(d.low(), d.high()).map(drop),
            FittedDist::Normal(d) => Normal::new(d.mu(), d.sigma()).map(drop),
            FittedDist::LogLogistic(d) => LogLogistic::new(d.alpha(), d.beta()).map(drop),
            FittedDist::LogNormal(d) => LogNormal::new(d.mu(), d.sigma()).map(drop),
            FittedDist::Weibull(d) => Weibull::new(d.shape(), d.scale()).map(drop),
            FittedDist::Pareto(d) => Pareto::new(d.xm(), d.alpha()).map(drop),
            FittedDist::Gamma(d) => Gamma::new(d.shape(), d.scale()).map(drop),
            FittedDist::Empirical(d) => {
                let knots = d.knots();
                let bad = if knots.len() < 2 {
                    Some(knots.len() as f64)
                } else if let Some(&k) = knots.iter().find(|k| !k.is_finite()) {
                    Some(k)
                } else {
                    knots.windows(2).find(|w| w[1] < w[0]).map(|w| w[1])
                };
                match bad {
                    Some(value) => Err(StatError::InvalidParameter {
                        name: "knots",
                        value,
                    }),
                    None => Ok(()),
                }
            }
        }
    }

    /// The fitted parameters as `(name, value)` pairs, for table output.
    #[must_use]
    pub fn params(&self) -> Vec<(&'static str, f64)> {
        match self {
            FittedDist::Exponential(d) => vec![("rate", d.rate())],
            FittedDist::Uniform(d) => vec![("low", d.low()), ("high", d.high())],
            FittedDist::Normal(d) => vec![("mu", d.mu()), ("sigma", d.sigma())],
            FittedDist::LogLogistic(d) => vec![("alpha", d.alpha()), ("beta", d.beta())],
            FittedDist::LogNormal(d) => vec![("mu", d.mu()), ("sigma", d.sigma())],
            FittedDist::Weibull(d) => vec![("shape", d.shape()), ("scale", d.scale())],
            FittedDist::Pareto(d) => vec![("xm", d.xm()), ("alpha", d.alpha())],
            FittedDist::Gamma(d) => vec![("shape", d.shape()), ("scale", d.scale())],
            FittedDist::Empirical(d) => vec![
                ("knots", d.knots().len() as f64),
                ("min", d.min()),
                ("max", d.max()),
            ],
        }
    }
}

impl Distribution for FittedDist {
    fn pdf(&self, x: f64) -> f64 {
        delegate!(self, d => d.pdf(x))
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        delegate!(self, d => d.ln_pdf(x))
    }
    fn cdf(&self, x: f64) -> f64 {
        delegate!(self, d => d.cdf(x))
    }
    fn quantile(&self, p: f64) -> f64 {
        delegate!(self, d => d.quantile(p))
    }
    fn mean(&self) -> f64 {
        delegate!(self, d => d.mean())
    }
    fn variance(&self) -> f64 {
        delegate!(self, d => d.variance())
    }
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        delegate!(self, d => d.sample(rng))
    }
}

impl std::fmt::Display for FittedDist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        delegate!(self, d => write!(f, "{d}"))
    }
}

/// The score card for one fitted candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitReport {
    /// The fitted distribution.
    pub dist: FittedDist,
    /// One-sample KS statistic against the data.
    pub ks_statistic: f64,
    /// Asymptotic KS p-value.
    pub ks_p_value: f64,
    /// Total log-likelihood of the data under the fit.
    pub log_likelihood: f64,
    /// Akaike information criterion: `2k - 2 ln L`.
    pub aic: f64,
}

/// How [`fit_best`]-style sweeps rank the surviving candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Selection {
    /// Smallest KS statistic wins (Keddah's headline criterion).
    #[default]
    KsStatistic,
    /// Smallest AIC wins.
    Aic,
    /// Smallest Anderson-Darling statistic wins (tail-weighted).
    AndersonDarling,
}

/// Runs every candidate's maximum-likelihood fit on `samples` in their
/// original order (likelihood sums depend on it), keeping each family
/// whose support admits the sample with its position in `candidates`.
/// The log-space families share one buffer of logs, freed on return.
fn fit_candidates(
    samples: &[f64],
    candidates: &[Candidate],
    memo: &mut TermMemo,
) -> Vec<(usize, FittedDist)> {
    let mut logs = None;
    (candidates.iter().enumerate())
        .filter_map(|(idx, cand)| Some((idx, cand.fit_in_sweep(samples, &mut logs, memo).ok()?)))
        .collect()
}

/// The score card of a fit whose KS distance `d` is already known, or
/// `None` if its log-likelihood over `samples` is not finite. The
/// log-likelihood is [`Distribution::log_likelihood`], bit for bit, with
/// each distinct sample's log-density looked up in `memo`.
fn score(dist: FittedDist, d: f64, samples: &[f64], memo: &mut TermMemo) -> Option<FitReport> {
    let log_likelihood: f64 = (memo.pass(samples, |x| [dist.ln_pdf(x), 0.0]))
        .map(|(_, [l, _])| l)
        .sum();
    if !log_likelihood.is_finite() {
        return None;
    }
    let KsResult { statistic, p_value } = ks_result(d, samples.len());
    let params = dist.candidate().map_or(0, Candidate::param_count);
    Some(FitReport {
        aic: 2.0 * params as f64 - 2.0 * log_likelihood,
        dist,
        ks_statistic: statistic,
        ks_p_value: p_value,
        log_likelihood,
    })
}

/// Fits every candidate in `candidates` and returns the score cards of all
/// that succeeded, sorted best-first by KS statistic (ties keep the order
/// of `candidates`).
///
/// Candidates whose support does not admit the sample (e.g. Pareto on
/// negative data) are silently skipped; they are not errors of the sweep.
///
/// # Errors
///
/// Returns [`StatError::EmptySample`] for an empty sample, or
/// [`StatError::NoConvergence`] if *no* candidate could be fitted.
pub fn fit_all(samples: &[f64], candidates: &[Candidate]) -> Result<Vec<FitReport>> {
    if samples.is_empty() {
        return Err(StatError::EmptySample);
    }
    let mut memo = TermMemo::new();
    let fitted = fit_candidates(samples, candidates, &mut memo);
    let mut reports = Vec::new();
    if !fitted.is_empty() {
        // A successful fit implies a finite sample, so this cannot fail.
        let sorted = sorted_sample(samples)?;
        for (_, dist) in fitted {
            let d = ks_sorted(&sorted, &|x| dist.cdf(x));
            if d.is_finite() {
                reports.extend(score(dist, d, samples, &mut memo));
            }
        }
    }
    if reports.is_empty() {
        return Err(StatError::NoConvergence("no candidate family fit"));
    }
    // total_cmp, not partial_cmp().expect(): a pathological fit must rank
    // last, never panic the sweep (non-finite statistics are filtered
    // above, but the ordering itself should be total regardless).
    reports.sort_by(|a, b| a.ks_statistic.total_cmp(&b.ks_statistic));
    Ok(reports)
}

/// Returns the candidate with the smallest KS statistic if that statistic
/// is at most `max_ks`, and `Ok(None)` otherwise: the first report of
/// [`fit_all`] within `max_ks`, bit for bit, at a fraction of the cost.
///
/// Every candidate's maximum-likelihood fit runs on `samples` as given.
/// The KS scans then share one sorted copy of the sample. Each candidate
/// first gets a cheap lower bound on its distance from a sixteenth of the
/// tie groups. Candidates are finished in ascending (bound, position in
/// `candidates`) order, and one is dropped as soon as its running distance
/// exceeds `max_ks` or the best finished distance. Ties go to the earlier
/// candidate, and only a candidate about to become the best has its
/// log-likelihood summed; a non-finite one disqualifies it.
///
/// # Errors
///
/// Returns [`StatError::EmptySample`] for an empty sample,
/// [`StatError::InvalidParameter`] if `max_ks` is NaN, or
/// [`StatError::NoConvergence`] if no candidate could be fitted.
pub fn fit_best(
    samples: &[f64],
    candidates: &[Candidate],
    max_ks: f64,
) -> Result<Option<FitReport>> {
    if samples.is_empty() {
        return Err(StatError::EmptySample);
    }
    if max_ks.is_nan() {
        return Err(StatError::InvalidParameter {
            name: "max_ks",
            value: max_ks,
        });
    }
    let mut memo = TermMemo::new();
    let fitted = fit_candidates(samples, candidates, &mut memo);
    if fitted.is_empty() {
        return Err(StatError::NoConvergence("no candidate family fit"));
    }
    best_within(samples, &fitted, max_ks, &mut memo)
}

/// The bounded sweep of [`fit_best`] over fits already made, each
/// tagged with its position in the candidate list.
fn best_within(
    samples: &[f64],
    fitted: &[(usize, FittedDist)],
    max_ks: f64,
    memo: &mut TermMemo,
) -> Result<Option<FitReport>> {
    let sorted = sorted_sample(samples)?;
    let mut order: Vec<(f64, usize)> = (fitted.iter().enumerate())
        .map(|(k, (_, dist))| (ks_lower_bound(&sorted, &|x| dist.cdf(x)), k))
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    // The best finished candidate: its position in the list and report.
    let mut best: Option<(usize, FitReport)> = None;
    for (bound, k) in order {
        let (idx, dist) = &fitted[k];
        let limit = best
            .as_ref()
            .map_or(max_ks, |(_, b)| b.ks_statistic.min(max_ks));
        let Some(d) = ks_finish(&sorted, &|x| dist.cdf(x), bound, limit) else {
            continue;
        };
        let loses_tie = best
            .as_ref()
            .is_some_and(|(b_idx, b)| d == b.ks_statistic && idx > b_idx);
        if !d.is_finite() || loses_tie {
            continue;
        }
        if let Some(report) = score(dist.clone(), d, samples, memo) {
            best = Some((*idx, report));
        }
    }
    Ok(best.map(|(_, report)| report))
}

/// The empirical quantile-table model of `samples` with its one-sample
/// KS test against the sample, both from one sorted copy: bit for bit
/// [`Empirical::fit`] and [`ks_one_sample`](crate::ks::ks_one_sample)
/// with the table's CDF, which sort a copy each.
///
/// # Errors
///
/// Returns [`StatError::EmptySample`] for an empty sample or
/// [`StatError::InvalidParameter`] for a non-finite value, as
/// [`Empirical::fit`] does.
pub fn fit_empirical(samples: &[f64]) -> Result<(Empirical, KsResult)> {
    let sorted = sorted_sample(samples)?;
    let table = Empirical::from_sorted(&sorted, DEFAULT_KNOTS);
    let ks = ks_result(ks_sorted(&sorted, &|x| table.cdf(x)), sorted.len());
    Ok((table, ks))
}

/// Fits every candidate and selects by the given criterion.
///
/// # Errors
///
/// Same as [`fit_all`].
pub fn fit_select(
    samples: &[f64],
    candidates: &[Candidate],
    selection: Selection,
) -> Result<FitReport> {
    let mut reports = fit_all(samples, candidates)?;
    match selection {
        Selection::KsStatistic => {} // already sorted
        Selection::Aic => reports.sort_by(|a, b| a.aic.total_cmp(&b.aic)),
        Selection::AndersonDarling => {
            let mut scored: Vec<(f64, FitReport)> = reports
                .into_iter()
                .map(|r| {
                    let a2 = ad_one_sample(samples, |x| r.dist.cdf(x))
                        .map(|a| a.statistic)
                        .unwrap_or(f64::INFINITY);
                    (a2, r)
                })
                .collect();
            scored.sort_by(|a, b| a.0.total_cmp(&b.0));
            return Ok(scored.remove(0).1);
        }
    }
    Ok(reports.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::{slot_of, SLOTS};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn draw<D: Distribution>(d: &D, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn recovers_each_family() {
        let cases: Vec<(FittedDist, &str)> = vec![
            (
                FittedDist::Exponential(Exponential::new(2.0).unwrap()),
                "exponential",
            ),
            (
                FittedDist::LogNormal(LogNormal::new(1.0, 0.7).unwrap()),
                "lognormal",
            ),
            (FittedDist::Pareto(Pareto::new(1.0, 1.8).unwrap()), "pareto"),
        ];
        for (truth, name) in cases {
            let xs = draw(&truth, 4000, 21);
            // The true family should rank near the top of the sweep.
            // (Exponential is a special case of Weibull and Gamma, so exact
            // first place is not guaranteed for it.)
            let all = fit_all(&xs, Candidate::ALL).unwrap();
            let truth_rank = all
                .iter()
                .position(|r| r.dist.name() == name)
                .expect("true family fitted");
            assert!(
                truth_rank <= 2,
                "{name} ranked {truth_rank} in {:?}",
                all.iter().map(|r| r.dist.name()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn sweep_skips_unsupported_candidates() {
        // Negative data: positive-support families must be skipped, normal
        // and uniform still fit.
        let xs: Vec<f64> = (-100..100).map(|i| i as f64 / 10.0).collect();
        let reports = fit_all(&xs, Candidate::ALL).unwrap();
        assert!(reports.iter().all(|r| {
            matches!(
                r.dist.candidate(),
                Some(Candidate::Normal | Candidate::Uniform)
            )
        }));
        assert!(!reports.is_empty());
    }

    #[test]
    fn empty_sample_errors() {
        assert!(matches!(
            fit_all(&[], Candidate::ALL),
            Err(StatError::EmptySample)
        ));
    }

    #[test]
    fn degenerate_constant_sample_never_panics() {
        // A constant sample defeats most parametric families; whatever
        // survives the sweep must come back as a finite-scored report or a
        // typed error — never a panic from comparing non-finite scores.
        let xs = vec![128.0; 64];
        match fit_all(&xs, Candidate::ALL) {
            Ok(reports) => {
                assert!(!reports.is_empty());
                assert!(reports.iter().all(|r| r.ks_statistic.is_finite()));
            }
            Err(e) => assert!(matches!(
                e,
                StatError::NoConvergence(_) | StatError::DegenerateSample(_)
            )),
        }
    }

    #[test]
    fn aic_selection_can_differ_from_ks() {
        let truth = LogNormal::new(0.0, 1.0).unwrap();
        let xs = draw(&truth, 3000, 22);
        let by_ks = fit_select(&xs, Candidate::ALL, Selection::KsStatistic).unwrap();
        let by_aic = fit_select(&xs, Candidate::ALL, Selection::Aic).unwrap();
        // Both should identify lognormal here (it's the truth).
        assert_eq!(by_ks.dist.name(), "lognormal");
        assert_eq!(by_aic.dist.name(), "lognormal");
    }

    #[test]
    fn fitted_dist_serde_roundtrip() {
        let d = FittedDist::Weibull(Weibull::new(1.5, 2.5).unwrap());
        let json = serde_json::to_string(&d).unwrap();
        assert!(json.contains("weibull"));
        let back: FittedDist = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn validate_rejects_what_new_would() {
        let ok = [
            r#"{"family":"loglogistic","alpha":3.0,"beta":2.0}"#,
            r#"{"family":"uniform","low":1.0,"high":2.0}"#,
            r#"{"family":"empirical","knots":[1.0,1.0,4.0],"n":3}"#,
        ];
        let bad = [
            (
                r#"{"family":"loglogistic","alpha":3.0,"beta":-2.0}"#,
                "beta",
            ),
            (r#"{"family":"uniform","low":2.0,"high":1.0}"#, "high"),
            (r#"{"family":"exponential","rate":0.0}"#, "rate"),
            (r#"{"family":"empirical","knots":[],"n":0}"#, "knots"),
            (r#"{"family":"empirical","knots":[5.0],"n":1}"#, "knots"),
            (
                r#"{"family":"empirical","knots":[1.0,3.0,2.0],"n":3}"#,
                "knots",
            ),
        ];
        for json in ok {
            let d: FittedDist = serde_json::from_str(json).unwrap();
            assert_eq!(d.validate(), Ok(()), "{json}");
        }
        for (json, field) in bad {
            let d: FittedDist = serde_json::from_str(json).unwrap();
            let err = d.validate().unwrap_err();
            assert!(
                matches!(err, StatError::InvalidParameter { name, .. } if name == field),
                "{json}: {err}"
            );
        }
    }

    #[test]
    fn params_report_is_complete() {
        let d = FittedDist::Normal(Normal::new(1.0, 2.0).unwrap());
        let params = d.params();
        assert_eq!(params, vec![("mu", 1.0), ("sigma", 2.0)]);
        assert_eq!(d.name(), "normal");
    }

    #[test]
    fn scaled_distributions_scale_quantiles() {
        use crate::distributions::Empirical;
        let dists = vec![
            FittedDist::Exponential(Exponential::new(2.0).unwrap()),
            FittedDist::Uniform(Uniform::new(1.0, 3.0).unwrap()),
            FittedDist::Normal(Normal::new(5.0, 1.0).unwrap()),
            FittedDist::LogLogistic(LogLogistic::new(3.0, 2.0).unwrap()),
            FittedDist::LogNormal(LogNormal::new(1.0, 0.5).unwrap()),
            FittedDist::Weibull(Weibull::new(1.5, 2.0).unwrap()),
            FittedDist::Pareto(Pareto::new(1.0, 2.5).unwrap()),
            FittedDist::Gamma(Gamma::new(2.0, 1.0).unwrap()),
            FittedDist::Empirical(Empirical::fit(&[1.0, 2.0, 3.0, 4.0]).unwrap()),
        ];
        for d in dists {
            let s = d.scaled(3.0);
            for &q in &[0.1, 0.5, 0.9] {
                let expect = d.quantile(q) * 3.0;
                let got = s.quantile(q);
                assert!(
                    (got - expect).abs() < 1e-9 * (1.0 + expect.abs()),
                    "{}: q{q}: {got} vs {expect}",
                    d.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scaled_rejects_nonpositive_factor() {
        let d = FittedDist::Exponential(Exponential::new(1.0).unwrap());
        let _ = d.scaled(0.0);
    }

    #[test]
    fn anderson_darling_selection_works() {
        let truth = LogNormal::new(0.5, 0.8).unwrap();
        let xs = draw(&truth, 3000, 77);
        let by_ad = fit_select(&xs, Candidate::POSITIVE, Selection::AndersonDarling).unwrap();
        assert_eq!(by_ad.dist.name(), "lognormal");
    }

    /// Bit patterns of everything a report carries.
    fn bits(r: &FitReport) -> (&'static str, Vec<u64>, [u64; 4]) {
        let params = r.dist.params().iter().map(|(_, v)| v.to_bits()).collect();
        let scores = [r.ks_statistic, r.ks_p_value, r.log_likelihood, r.aic];
        (r.dist.name(), params, scores.map(f64::to_bits))
    }

    /// Two uniform fits of `1..=32` whose KS distances tie at exactly 0.5
    /// (both reach it at the top sample, where the bound does not look),
    /// with the earlier one's bound above the later one's.
    fn tied_fits() -> (Vec<f64>, Vec<(usize, FittedDist)>) {
        let xs: Vec<f64> = (1..=32).map(f64::from).collect();
        let early = FittedDist::Uniform(Uniform::new(0.0, 64.0).unwrap());
        let late = FittedDist::Uniform(Uniform::new(-32.0, 96.0).unwrap());
        (xs, vec![(0, early), (1, late)])
    }

    #[test]
    fn ks_tie_goes_to_the_earlier_candidate_that_finishes_later() {
        use crate::ks::ks_one_sample;
        let (xs, fitted) = tied_fits();
        let sorted = sorted_sample(&xs).unwrap();
        let [(_, early), (_, late)] = &fitted[..] else {
            unreachable!()
        };
        for d in [early, late] {
            assert_eq!(ks_one_sample(&xs, |x| d.cdf(x)).unwrap().statistic, 0.5);
        }
        // The later candidate has the smaller bound, so it finishes first.
        assert!(
            ks_lower_bound(&sorted, &|x| late.cdf(x)) < ks_lower_bound(&sorted, &|x| early.cdf(x))
        );
        let best = best_within(&xs, &fitted, f64::INFINITY, &mut TermMemo::new())
            .unwrap()
            .unwrap();
        assert_eq!(&best.dist, early);
        assert_eq!(best.ks_statistic, 0.5);
        // The reference sweep agrees.
        let reference = score(early.clone(), 0.5, &xs, &mut TermMemo::new()).unwrap();
        assert_eq!(bits(&best), bits(&reference));
    }

    #[test]
    fn winner_exactly_at_max_ks_is_kept() {
        let (xs, fitted) = tied_fits();
        let best = best_within(&xs, &fitted, 0.5, &mut TermMemo::new())
            .unwrap()
            .unwrap();
        assert_eq!(best.dist, fitted[0].1);
        assert_eq!(best.ks_statistic, 0.5);

        let truth = LogNormal::new(3.0, 0.6).unwrap();
        let xs = draw(&truth, 500, 31);
        let all = fit_all(&xs, Candidate::POSITIVE).unwrap();
        let winner = fit_best(&xs, Candidate::POSITIVE, all[0].ks_statistic)
            .unwrap()
            .expect("the winner's own distance admits it");
        assert_eq!(bits(&winner), bits(&all[0]));
    }

    #[test]
    fn nothing_within_max_ks_is_none() {
        let (xs, fitted) = tied_fits();
        assert_eq!(
            best_within(&xs, &fitted, 0.5f64.next_down(), &mut TermMemo::new()).unwrap(),
            None
        );

        let truth = LogNormal::new(3.0, 0.6).unwrap();
        let xs = draw(&truth, 500, 31);
        let all = fit_all(&xs, Candidate::POSITIVE).unwrap();
        let below = all[0].ks_statistic.next_down();
        assert_eq!(fit_best(&xs, Candidate::POSITIVE, below).unwrap(), None);
        assert_eq!(fit_best(&xs, Candidate::POSITIVE, 0.0).unwrap(), None);
    }

    #[test]
    fn fit_best_rejects_bad_input() {
        assert!(matches!(
            fit_best(&[], Candidate::ALL, 0.1),
            Err(StatError::EmptySample)
        ));
        assert!(matches!(
            fit_best(&[1.0, 2.0], Candidate::ALL, f64::NAN),
            Err(StatError::InvalidParameter { name: "max_ks", .. })
        ));
        // No positive-support family admits a negative sample.
        assert!(matches!(
            fit_best(&[-1.0, 2.0], Candidate::POSITIVE, 0.1),
            Err(StatError::NoConvergence(_))
        ));
    }

    /// The one-sort empirical fit equals the table `Empirical::fit`
    /// builds and the KS test `ks_one_sample` runs against it, by bits:
    /// on block-sized sizes with ties, a constant sample, a two-value
    /// sample, a single value, and tied values in arrival order.
    #[test]
    fn empirical_fit_matches_the_two_sort_path() {
        let mut rng = StdRng::seed_from_u64(3);
        let block = 128.0 * 1024.0 * 1024.0;
        let samples: Vec<Vec<f64>> = vec![
            (0..3000)
                .map(|i| {
                    if i % 5 == 0 {
                        rng.random_range(1.0..block)
                    } else {
                        block
                    }
                })
                .collect(),
            vec![900.0; 40],
            (0..301).map(|i| [3.5, -2.0][i % 2]).collect(),
            vec![7.25],
            (0..1000).map(|i| f64::from((i * 37) % 11)).collect(),
        ];
        for xs in samples {
            let (table, ks) = fit_empirical(&xs).unwrap();
            let want = Empirical::fit(&xs).unwrap();
            let want_ks = crate::ks::ks_one_sample(&xs, |x| want.cdf(x)).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(table.knots()),
                bits(want.knots()),
                "{} values",
                xs.len()
            );
            assert_eq!(table.sample_size(), want.sample_size());
            assert_eq!(ks.statistic.to_bits(), want_ks.statistic.to_bits());
            assert_eq!(ks.p_value.to_bits(), want_ks.p_value.to_bits());
        }
        assert!(matches!(fit_empirical(&[]), Err(StatError::EmptySample)));
        assert!(matches!(
            fit_empirical(&[1.0, f64::NAN]),
            Err(StatError::InvalidParameter { name: "sample", .. })
        ));
    }

    #[test]
    fn reports_sorted_by_ks() {
        let truth = Exponential::new(1.0).unwrap();
        let xs = draw(&truth, 2000, 23);
        let reports = fit_all(&xs, Candidate::ALL).unwrap();
        for w in reports.windows(2) {
            assert!(w[0].ks_statistic <= w[1].ks_statistic);
        }
    }

    /// The log-space fits as they were before the term memo: every term
    /// evaluated for every sample, summed in sample order.
    mod pre_memo {
        use crate::distributions::{Gamma, LogLogistic, LogNormal, Weibull};
        use crate::special::digamma;
        use std::f64::consts::PI;

        /// The logs, their mean and their mean squared deviation.
        fn log_moments(xs: &[f64]) -> (Vec<f64>, f64, f64) {
            let logs: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
            let n = logs.len() as f64;
            let mean = logs.iter().sum::<f64>() / n;
            let var = logs.iter().map(|&l| (l - mean) * (l - mean)).sum::<f64>() / n;
            (logs, mean, var)
        }

        pub fn lognormal(xs: &[f64]) -> Option<LogNormal> {
            let (_, mean, var) = log_moments(xs);
            (var > 0.0).then(|| LogNormal::new(mean, var.sqrt()).ok())?
        }

        pub fn loglogistic(xs: &[f64]) -> Option<LogLogistic> {
            let (logs, mean, var) = log_moments(xs);
            if var <= 0.0 {
                return None;
            }
            let n = xs.len() as f64;
            let (mut mu, mut s) = (mean, (3.0 * var).sqrt() / PI);
            for _ in 0..60 {
                let (mut sum_tanh, mut sum_zt) = (0.0, 0.0);
                for &l in &logs {
                    let z = (l - mu) / s;
                    let t = (z / 2.0).tanh();
                    sum_tanh += t;
                    sum_zt += z * t;
                }
                let step_mu = 3.0 * s * (sum_tanh / n);
                let step_s = s * (sum_zt / n - 1.0) * 9.0 / (3.0 + PI.powi(2));
                mu += step_mu;
                s = (s + step_s).clamp(s * 0.5, s * 2.0).max(1e-12);
                if step_mu.abs() < 1e-12 * (1.0 + mu.abs()) && step_s.abs() < 1e-12 * s {
                    break;
                }
            }
            LogLogistic::new(mu.exp(), 1.0 / s).ok()
        }

        pub fn weibull(xs: &[f64]) -> Option<Weibull> {
            let (logs, mean_ln, var_ln) = log_moments(xs);
            if var_ln <= 0.0 {
                return None;
            }
            let n = xs.len() as f64;
            let mut k = (PI / (6.0f64.sqrt() * var_ln.sqrt())).clamp(0.02, 500.0);
            for _ in 0..200 {
                let (mut s0, mut s1, mut s2) = (0.0, 0.0, 0.0);
                for &lx in &logs {
                    let xk = (k * lx).exp();
                    s0 += xk;
                    s1 += xk * lx;
                    s2 += xk * lx * lx;
                }
                if !s0.is_finite() || s0 <= 0.0 {
                    return None;
                }
                let g = s1 / s0 - 1.0 / k - mean_ln;
                let dg = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (k * k);
                if dg <= 0.0 {
                    return None;
                }
                let next = (k - g / dg).clamp(k * 0.2, k * 5.0).max(1e-6);
                let done = (next - k).abs() < 1e-10 * k.max(1.0);
                k = next;
                if done {
                    break;
                }
            }
            let scale = (xs.iter().map(|&x| x.powf(k)).sum::<f64>() / n).powf(1.0 / k);
            Weibull::new(k, scale).ok()
        }

        pub fn gamma(xs: &[f64]) -> Option<Gamma> {
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let s = mean.ln() - xs.iter().map(|&x| x.ln()).sum::<f64>() / n;
            if s <= 0.0 {
                return None;
            }
            let mut k = (3.0 - s + ((s - 3.0) * (s - 3.0) + 24.0 * s).sqrt()) / (12.0 * s);
            for _ in 0..50 {
                let f = k.ln() - digamma(k) - s;
                let h = (k * 1e-6).max(1e-9);
                let df = 1.0 / k - (digamma(k + h) - digamma(k - h)) / (2.0 * h);
                if df == 0.0 {
                    break;
                }
                let next = (k - f / df).max(1e-8);
                let done = (next - k).abs() < 1e-12 * k.max(1.0);
                k = next;
                if done {
                    break;
                }
            }
            Gamma::new(k, mean / k).ok()
        }
    }

    /// Groups of two or more values whose `key`s share a memo home slot.
    fn colliding(key: impl Fn(f64) -> u64) -> Vec<Vec<f64>> {
        let mut groups = vec![Vec::new(); SLOTS];
        for i in 0..3 * SLOTS {
            let x = 1000.0 + 0.37 * i as f64;
            groups[slot_of(key(x))].push(x);
        }
        groups.retain(|g| g.len() >= 2);
        groups
    }

    /// A sample of one of four shapes, drawn from `seed`.
    fn sweep_sample(shape: u32, seed: u64, n: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let truth = LogNormal::new(8.0, 1.5).unwrap();
        let mut pool: Vec<f64> = (0..rng.random_range(2usize..300))
            .map(|_| truth.sample(&mut rng).round().max(1.0))
            .collect();
        match shape {
            // Interleaved repeats of a few hundred values, some colliding
            // in the memo by their bits and some by their logs; sorted,
            // the run-heavy pseudo-sample where the memo switches off.
            0 | 1 => {
                for groups in [colliding(f64::to_bits), colliding(|x| x.ln().to_bits())] {
                    for _ in 0..4 {
                        pool.extend(&groups[rng.random_range(0..groups.len())]);
                    }
                }
                let mut xs: Vec<f64> = (0..n)
                    .map(|_| pool[rng.random_range(0..pool.len())])
                    .collect();
                if shape == 1 {
                    xs.sort_by(f64::total_cmp);
                }
                xs
            }
            // More distinct values than memo slots, mostly rare, among
            // frequent ones: the memo stays on with a full pass.
            2 => {
                let rare: Vec<f64> = (0..SLOTS + 500).map(|_| truth.sample(&mut rng)).collect();
                let mut xs = rare.clone();
                xs.extend((0..8 * rare.len()).map(|_| pool[rng.random_range(0..pool.len())]));
                let len = xs.len();
                for i in (1..len).rev() {
                    xs.swap(i, rng.random_range(0..=i));
                }
                xs
            }
            // Continuous draws.
            _ => (0..n).map(|_| truth.sample(&mut rng)).collect(),
        }
    }

    /// Run breaks of `xs` by bits, the first value included.
    fn runs(xs: &[f64]) -> u64 {
        1 + xs
            .windows(2)
            .filter(|w| w[0].to_bits() != w[1].to_bits())
            .count() as u64
    }

    /// Runs `f` on `memo` and checks its work: every run break of its
    /// passes either found its term or evaluated it (`breaks` gives the
    /// run-break totals its passes may have), and either every break was
    /// a lookup or none was. Returns the lookups made.
    fn checked<T>(
        memo: &mut TermMemo,
        breaks: impl Fn(u64) -> [u64; 2],
        f: impl FnOnce(&mut TermMemo) -> T,
    ) -> (T, u64) {
        let before = memo.work;
        let out = f(memo);
        let (passes, probes) = (
            memo.work.passes - before.passes,
            memo.work.probes - before.probes,
        );
        let looked_up = memo.work.hits - before.hits + memo.work.evaluated - before.evaluated;
        assert!(
            breaks(passes).contains(&looked_up),
            "{looked_up} run breaks in {passes} passes: each hits or evaluates"
        );
        assert!(
            probes == 0 || probes == looked_up,
            "{probes} probes for {looked_up} breaks"
        );
        (out, probes)
    }

    fn param_bits(d: Option<FittedDist>) -> Option<Vec<u64>> {
        d.map(|d| d.params().iter().map(|(_, v)| v.to_bits()).collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The memoised log-space fits and log-likelihoods of one sweep
        /// equal the pre-memo loops bit for bit, on samples with and
        /// without repeats, and the memo probes whole passes only.
        #[test]
        fn memoised_sweep_is_bit_identical(shape in 0u32..4, seed in proptest::prelude::any::<u64>(), n in 50usize..2500) {
            let xs = sweep_sample(shape, seed, n);
            let logs: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
            let (x_runs, log_runs) = (runs(&xs), runs(&logs));
            let mut memo = TermMemo::new();

            let one_pass = |_| [x_runs; 2];
            let (sample, ln_probes) = checked(&mut memo, one_pass, |m| LogSample::new(&xs, m).unwrap());
            assert_eq!(ln_probes, x_runs, "the first pass probes every run break");
            let switched_off = memo.work.hits * 2 < ln_probes;
            let newton = |passes| [passes * log_runs; 2];
            let (ll, ll_probes) = checked(&mut memo, newton, |m| LogLogistic::from_logs(&sample, m).ok());
            // Weibull's scale pass follows only a Newton loop that ended.
            let newton_then_scale = |passes: u64| {
                [passes * log_runs, passes.saturating_sub(1) * log_runs + x_runs]
            };
            let (weibull, w_probes) = checked(&mut memo, newton_then_scale, |m| Weibull::from_logs(&xs, &sample, m).ok());
            let fits = [
                ll.map(FittedDist::LogLogistic),
                LogNormal::from_logs(&sample).ok().map(FittedDist::LogNormal),
                weibull.map(FittedDist::Weibull),
                Gamma::from_logs(&xs, &sample).ok().map(FittedDist::Gamma),
            ];
            let want = [
                pre_memo::loglogistic(&xs).map(FittedDist::LogLogistic),
                pre_memo::lognormal(&xs).map(FittedDist::LogNormal),
                pre_memo::weibull(&xs).map(FittedDist::Weibull),
                pre_memo::gamma(&xs).map(FittedDist::Gamma),
            ];
            for (got, want) in fits.iter().zip(want) {
                assert_eq!(param_bits(got.clone()), param_bits(want), "shape {shape}: {got:?}");
            }
            let mut later_probes = ll_probes + w_probes;
            for dist in fits.into_iter().flatten() {
                let want = dist.log_likelihood(&xs);
                let (report, probes) = checked(&mut memo, one_pass, |m| score(dist, 0.0, &xs, m));
                let got = report.map(|r| r.log_likelihood.to_bits());
                assert_eq!(got, want.is_finite().then_some(want.to_bits()), "log-likelihood");
                later_probes += probes;
            }
            if switched_off {
                assert_eq!(later_probes, 0, "no lookups after a pass with few repeats");
            }
        }
    }
}
