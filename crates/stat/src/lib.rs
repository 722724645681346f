//! Statistical substrate for the Keddah toolchain.
//!
//! Keddah builds *empirical traffic models*: it takes per-flow samples
//! captured from a Hadoop cluster and fits parametric distributions to them,
//! selecting the best-fitting family per traffic component. This crate
//! provides everything that pipeline needs, self-contained:
//!
//! * [`distributions`] — seven continuous families (exponential, uniform,
//!   normal, log-normal, Weibull, Pareto, gamma) with pdf/cdf/quantile,
//!   moments, maximum-likelihood fitting, and inverse-transform sampling;
//! * [`Ecdf`] — empirical CDFs and quantiles;
//! * [`Summary`] — running moment summaries;
//! * [`ks`] — one- and two-sample Kolmogorov–Smirnov tests;
//! * [`fit`] — candidate sweeps with KS/AIC model selection, producing a
//!   serializable [`fit::FittedDist`] that the Keddah model format embeds;
//! * [`shift`] — distribution-shift scores for fault diagnosis: the
//!   exact two-sample KS test and the mean ratio, at every sample size;
//! * [`sketch`] — the bounded-memory Greenwald–Khanna quantile sketch
//!   behind `keddah serve`'s streaming refits;
//! * [`regression`] — ordinary least squares and power-law scaling fits used
//!   for the traffic-vs-input-size scaling laws.
//!
//! # Examples
//!
//! Fit a distribution to samples and pick the best family:
//!
//! ```
//! use keddah_stat::fit::{fit_best, Candidate};
//! use rand::SeedableRng;
//! use rand::rngs::StdRng;
//! use keddah_stat::distributions::{Distribution, LogNormal};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let truth = LogNormal::new(2.0, 0.5).unwrap();
//! let samples: Vec<f64> = (0..2000).map(|_| truth.sample(&mut rng)).collect();
//! // The best family, if its KS distance is at most 0.05.
//! let report = fit_best(&samples, Candidate::ALL, 0.05).unwrap().unwrap();
//! assert_eq!(report.dist.name(), "lognormal");
//! ```

pub mod ad;
pub mod distributions;
mod ecdf;
pub mod fit;
pub mod ks;
mod memo;
pub mod regression;
pub mod series;
pub mod shift;
pub mod sketch;
pub mod special;
mod summary;

pub use ecdf::Ecdf;
pub use summary::Summary;

use std::fmt;

/// Errors produced by statistical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum StatError {
    /// The input sample was empty (or too small for the operation).
    EmptySample,
    /// The operation requires strictly positive samples but found one ≤ 0.
    NonPositiveSample(f64),
    /// A distribution parameter was out of its valid range.
    InvalidParameter {
        /// The parameter name, e.g. `"shape"`.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An iterative fit failed to converge.
    NoConvergence(&'static str),
    /// The sample was degenerate (e.g. zero variance where spread is needed).
    DegenerateSample(&'static str),
}

impl fmt::Display for StatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatError::EmptySample => write!(f, "sample is empty or too small"),
            StatError::NonPositiveSample(v) => {
                write!(f, "sample contains non-positive value {v}")
            }
            StatError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
            StatError::NoConvergence(what) => write!(f, "iteration did not converge: {what}"),
            StatError::DegenerateSample(what) => write!(f, "degenerate sample: {what}"),
        }
    }
}

impl std::error::Error for StatError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatError>;
