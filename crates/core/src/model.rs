//! The Keddah traffic model schema.
//!
//! A [`KeddahModel`] is the paper's central artefact: a compact,
//! serializable statistical description of the traffic one job
//! configuration produces, sufficient to *regenerate* statistically
//! equivalent traffic without re-running Hadoop. Per traffic component it
//! stores the fitted flow-size distribution, the flow start-time (arrival)
//! distribution, a per-job flow-count model and the communication pattern;
//! job-level it stores the covariates it was trained on and the makespan
//! statistics.

use std::collections::BTreeMap;

use keddah_flowcap::Component;
use keddah_stat::fit::FittedDist;
use serde::{Deserialize, Serialize};

/// Mean/standard-deviation pair for per-job scalar quantities (flow
/// counts, makespans) that are sampled per generated job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalarModel {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (0 for single-run datasets).
    pub std: f64,
}

impl ScalarModel {
    /// Estimates mean/std from samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> ScalarModel {
        assert!(!samples.is_empty(), "scalar model needs samples");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f64>()
            / n;
        ScalarModel {
            mean,
            std: var.sqrt(),
        }
    }
}

/// The who-talks-to-whom structure of a component's flows, used when
/// regenerating traffic onto a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum EndpointPattern {
    /// Uniformly random distinct worker pair (HDFS reads: client ↔ a
    /// replica holder).
    RandomPair,
    /// Many sources into a small set of `reducers` sinks (shuffle
    /// in-cast).
    ManyToFew,
    /// Chains between random workers (replication pipeline hops).
    PipelineHop,
    /// Worker to the master node (control RPCs and heartbeats).
    ToMaster,
}

impl EndpointPattern {
    /// The pattern Keddah assigns to each traffic component.
    #[must_use]
    pub fn for_component(component: Component) -> EndpointPattern {
        match component {
            Component::HdfsRead => EndpointPattern::RandomPair,
            Component::HdfsWrite => EndpointPattern::PipelineHop,
            Component::Shuffle => EndpointPattern::ManyToFew,
            Component::Control => EndpointPattern::ToMaster,
            Component::Other => EndpointPattern::RandomPair,
            // Broadcast fans a small payload into every consumer task —
            // the same few-sink in-cast shape as a shuffle.
            Component::Broadcast => EndpointPattern::ManyToFew,
        }
    }
}

/// Goodness-of-fit metadata kept alongside each fitted distribution
/// (what Table 2 of the evaluation reports).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitQuality {
    /// One-sample KS statistic of the chosen family against the data.
    pub ks_statistic: f64,
    /// Asymptotic KS p-value.
    pub ks_p_value: f64,
    /// Number of samples the fit saw.
    pub samples: u64,
}

/// The traffic model for one component of one job configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentModel {
    /// Fitted flow-size distribution (bytes).
    pub size_dist: FittedDist,
    /// Goodness of fit of `size_dist`.
    pub size_fit: FitQuality,
    /// Fitted flow start-time distribution (seconds from job start).
    pub start_dist: FittedDist,
    /// Goodness of fit of `start_dist`.
    pub start_fit: FitQuality,
    /// Flows per job.
    pub count: ScalarModel,
    /// Communication pattern for endpoint synthesis.
    pub pattern: EndpointPattern,
}

/// A complete Keddah traffic model for one `(workload, input size,
/// configuration)` point.
///
/// Serializes to JSON via [`KeddahModel::to_json`] — the on-disk model
/// format the toolchain exchanges with simulators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeddahModel {
    /// Model format version.
    pub version: u32,
    /// Workload name.
    pub workload: String,
    /// Input size the model was trained at, bytes.
    pub input_bytes: u64,
    /// Reducer count the model was trained at.
    pub reducers: u32,
    /// Replication factor the model was trained at.
    pub replication: u16,
    /// Block size the model was trained at, bytes.
    pub block_bytes: u64,
    /// Worker count of the training cluster.
    pub nodes: u32,
    /// Runs pooled into the model.
    pub runs: usize,
    /// Job makespan statistics, seconds.
    pub makespan: ScalarModel,
    /// Per-component traffic models.
    pub components: BTreeMap<Component, ComponentModel>,
}

/// Current model format version.
pub const MODEL_VERSION: u32 = 1;

impl KeddahModel {
    /// The model for one component, if the component produced enough
    /// traffic to model.
    #[must_use]
    pub fn component(&self, component: Component) -> Option<&ComponentModel> {
        self.components.get(&component)
    }

    /// Expected total bytes per job: `sum over components of
    /// mean_count * mean_size`.
    #[must_use]
    pub fn expected_job_bytes(&self) -> f64 {
        use keddah_stat::distributions::Distribution;
        self.components
            .values()
            .map(|c| {
                let mean = c.size_dist.mean();
                if mean.is_finite() {
                    c.count.mean * mean
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// Serializes the model to pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("model serializes")
    }

    /// Parses a model from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::Json`] on malformed input, a version
    /// mismatch, or a distribution whose parameters its family rejects.
    pub fn from_json(json: &str) -> crate::Result<KeddahModel> {
        let model: KeddahModel =
            serde_json::from_str(json).map_err(|e| crate::CoreError::Json(e.to_string()))?;
        if model.version != MODEL_VERSION {
            return Err(crate::CoreError::Json(format!(
                "unsupported model version {} (expected {MODEL_VERSION})",
                model.version
            )));
        }
        model
            .check_distributions()
            .map_err(crate::CoreError::Json)?;
        Ok(model)
    }

    /// Rejects a model read from outside whose distributions would fail
    /// when sampled or inspected (see [`FittedDist::validate`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the component and field.
    pub(crate) fn check_distributions(&self) -> std::result::Result<(), String> {
        for (component, cm) in &self.components {
            for (field, dist) in [("size_dist", &cm.size_dist), ("start_dist", &cm.start_dist)] {
                dist.validate()
                    .map_err(|e| format!("component {component}: {field}: {e}"))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keddah_stat::distributions::{Exponential, LogNormal};

    fn sample_model() -> KeddahModel {
        let size_dist = FittedDist::LogNormal(LogNormal::new(10.0, 1.0).unwrap());
        let start_dist = FittedDist::Exponential(Exponential::new(0.1).unwrap());
        let quality = FitQuality {
            ks_statistic: 0.05,
            ks_p_value: 0.4,
            samples: 100,
        };
        let mut components = BTreeMap::new();
        components.insert(
            Component::Shuffle,
            ComponentModel {
                size_dist,
                size_fit: quality,
                start_dist,
                start_fit: quality,
                count: ScalarModel {
                    mean: 64.0,
                    std: 4.0,
                },
                pattern: EndpointPattern::ManyToFew,
            },
        );
        KeddahModel {
            version: MODEL_VERSION,
            workload: "terasort".into(),
            input_bytes: 1 << 30,
            reducers: 8,
            replication: 3,
            block_bytes: 128 << 20,
            nodes: 16,
            runs: 10,
            makespan: ScalarModel {
                mean: 120.0,
                std: 8.0,
            },
            components,
        }
    }

    #[test]
    fn json_roundtrip() {
        let m = sample_model();
        let json = m.to_json();
        assert!(json.contains("lognormal"));
        assert!(json.contains("shuffle"));
        let back = KeddahModel::from_json(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut m = sample_model();
        m.version = 99;
        let err = KeddahModel::from_json(&m.to_json()).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn malformed_distributions_rejected() {
        let cases = [
            (
                "size_dist",
                r#"{"family":"empirical","knots":[],"n":0}"#,
                "component shuffle: size_dist: invalid parameter knots = 0",
            ),
            (
                "start_dist",
                r#"{"family":"loglogistic","alpha":3.0,"beta":-2.0}"#,
                "component shuffle: start_dist: invalid parameter beta = -2",
            ),
        ];
        for (field, dist, want) in cases {
            let dist: FittedDist = serde_json::from_str(dist).unwrap();
            let mut m = sample_model();
            let shuffle = m.components.get_mut(&Component::Shuffle).unwrap();
            match field {
                "size_dist" => shuffle.size_dist = dist,
                _ => shuffle.start_dist = dist,
            }
            let err = KeddahModel::from_json(&m.to_json()).unwrap_err();
            assert!(err.to_string().contains(want), "{err}");
        }
    }

    #[test]
    fn scalar_model_from_samples() {
        let s = ScalarModel::from_samples(&[2.0, 4.0, 6.0]);
        assert_eq!(s.mean, 4.0);
        assert!((s.std - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn expected_bytes_uses_count_times_mean() {
        let m = sample_model();
        use keddah_stat::distributions::Distribution;
        let mean_size = m.components[&Component::Shuffle].size_dist.mean();
        assert!((m.expected_job_bytes() - 64.0 * mean_size).abs() < 1e-6);
    }

    #[test]
    fn patterns_match_components() {
        assert_eq!(
            EndpointPattern::for_component(Component::Shuffle),
            EndpointPattern::ManyToFew
        );
        assert_eq!(
            EndpointPattern::for_component(Component::Control),
            EndpointPattern::ToMaster
        );
    }
}
