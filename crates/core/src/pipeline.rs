//! The end-to-end Keddah pipeline: capture → model → generate → validate.
//!
//! [`Keddah`] is a thin facade over the toolchain stages for the common
//! paths; each stage is also available directly ([`crate::dataset`],
//! [`crate::fitting`], [`crate::generate`], [`crate::validate`]) when an
//! experiment needs to customize one step. Replay has its own kernel,
//! [`crate::replay::replay_faulted`].

use keddah_flowcap::Trace;
use keddah_hadoop::{run_job, ClusterSpec, HadoopConfig, JobSpec};

use crate::dataset::Dataset;
use crate::fitting::fit_model;
use crate::model::KeddahModel;
use crate::{CoreError, Result};

/// The Keddah toolchain entry points.
///
/// # Examples
///
/// Full loop — capture a job on the simulated testbed, model it,
/// validate the model against the capture:
///
/// ```
/// use keddah_core::pipeline::Keddah;
/// use keddah_core::validate::validate_model;
/// use keddah_hadoop::{ClusterSpec, HadoopConfig, JobSpec, Workload};
///
/// let cluster = ClusterSpec::racks(2, 4);
/// let config = HadoopConfig::default();
/// let job = JobSpec::new(Workload::TeraSort, 1 << 30);
/// let traces = Keddah::capture(&cluster, &config, &job, 3, 42);
/// let model = Keddah::fit(&traces).unwrap();
/// let report = validate_model(&model, &traces, 3, 7).unwrap();
/// assert!(report.worst_ks() < 0.5);
/// ```
#[derive(Debug)]
pub struct Keddah;

impl Keddah {
    /// Stage 1 — capture: runs `repeats` executions of `job` on the
    /// simulated cluster, with seeds `seed_base..seed_base + repeats`,
    /// and returns their classified traces.
    #[must_use]
    pub fn capture(
        cluster: &ClusterSpec,
        config: &HadoopConfig,
        job: &JobSpec,
        repeats: u32,
        seed_base: u64,
    ) -> Vec<Trace> {
        (0..repeats)
            .map(|i| run_job(cluster, config, job, seed_base + u64::from(i)).trace)
            .collect()
    }

    /// Stage 2 — model: pools the traces into a dataset and fits a
    /// [`KeddahModel`]. Stage 3, generation, lives on
    /// [`KeddahModel::generate_job`], and stage 4, validation, is
    /// [`crate::validate::validate_model`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InsufficientData`] for an empty slice and
    /// [`CoreError::MixedWorkloads`] for traces of more than one
    /// workload, which would pool into a meaningless model. Propagates
    /// fitting errors (insufficient flows, degenerate samples).
    pub fn fit(traces: &[Trace]) -> Result<KeddahModel> {
        let first = traces.first().ok_or(CoreError::InsufficientData {
            what: "fitting needs at least one capture trace",
        })?;
        let workload = &first.meta().workload;
        if let Some(other) = traces.iter().find(|t| t.meta().workload != *workload) {
            return Err(CoreError::MixedWorkloads {
                first: workload.clone(),
                other: other.meta().workload.clone(),
            });
        }
        fit_model(&Dataset::from_traces(traces))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_model;
    use keddah_flowcap::Component;
    use keddah_hadoop::Workload;

    fn testbed() -> (ClusterSpec, HadoopConfig, JobSpec) {
        (
            ClusterSpec::racks(2, 4),
            HadoopConfig::default().with_reducers(4),
            JobSpec::new(Workload::TeraSort, 1 << 30),
        )
    }

    #[test]
    fn capture_fit_generate_validate() {
        let (cluster, config, job) = testbed();
        let traces = Keddah::capture(&cluster, &config, &job, 3, 1);
        assert_eq!(traces.len(), 3);

        let model = Keddah::fit(&traces).unwrap();
        assert_eq!(model.workload, "terasort");
        assert!(model.component(Component::Shuffle).is_some());
        assert!(model.component(Component::Control).is_some());

        let generated = model.generate_job(9);
        assert!(!generated.flows.is_empty());

        let report = validate_model(&model, &traces, 3, 11).unwrap();
        let shuffle = report.component(Component::Shuffle).unwrap();
        // Model trained on these traces: shapes should be close.
        assert!(shuffle.ks_statistic < 0.35, "KS = {}", shuffle.ks_statistic);
        assert!(
            shuffle.count_error < 0.3,
            "count err = {}",
            shuffle.count_error
        );
    }

    #[test]
    fn fit_rejects_no_traces() {
        assert!(matches!(
            Keddah::fit(&[]),
            Err(CoreError::InsufficientData { .. })
        ));
    }

    #[test]
    fn fit_rejects_mixed_workloads_naming_both() {
        let (cluster, config, job) = testbed();
        let mut traces = Keddah::capture(&cluster, &config, &job, 1, 5);
        let grep = JobSpec::new(Workload::Grep, 256 << 20);
        traces.extend(Keddah::capture(&cluster, &config, &grep, 1, 5));
        match Keddah::fit(&traces) {
            Err(CoreError::MixedWorkloads { first, other }) => {
                assert_eq!((first.as_str(), other.as_str()), ("terasort", "grep"));
            }
            other => panic!("expected MixedWorkloads, got {other:?}"),
        }
    }

    #[test]
    fn model_roundtrips_through_json() {
        let (cluster, config, job) = testbed();
        let traces = Keddah::capture(&cluster, &config, &job, 2, 3);
        let model = Keddah::fit(&traces).unwrap();
        let back = KeddahModel::from_json(&model.to_json()).unwrap();
        assert_eq!(model, back);
    }
}
