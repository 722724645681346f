//! The end-to-end Keddah pipeline: capture → model → generate → validate.
//!
//! [`Keddah`] is a thin facade over the toolchain stages for the common
//! paths; each stage is also available directly ([`crate::dataset`],
//! [`crate::fitting`], [`crate::generate`], [`crate::validate`]) when an
//! experiment needs to customize one step. Replay has its own kernel,
//! [`crate::replay::replay_faulted`].

use keddah_flowcap::Trace;
use keddah_hadoop::{
    run_repeats, run_repeats_seeded, ClusterSpec, HadoopConfig, JobSpec, Workload,
};

use crate::dataset::Dataset;
use crate::fitting::fit_model;
use crate::model::KeddahModel;
use crate::validate::{validate_model, ValidationReport};
use crate::Result;

/// The Keddah toolchain entry points.
///
/// # Examples
///
/// Full loop — capture a job on the simulated testbed, model it,
/// validate the model against the capture:
///
/// ```
/// use keddah_core::pipeline::Keddah;
/// use keddah_hadoop::{ClusterSpec, HadoopConfig, JobSpec, Workload};
///
/// let cluster = ClusterSpec::racks(2, 4);
/// let config = HadoopConfig::default();
/// let job = JobSpec::new(Workload::TeraSort, 1 << 30);
/// let traces = Keddah::capture(&cluster, &config, &job, 3, 42);
/// let model = Keddah::fit(&traces).unwrap();
/// let report = Keddah::validate(&model, &traces, 3, 7).unwrap();
/// assert!(report.worst_ks() < 0.5);
/// ```
#[derive(Debug)]
pub struct Keddah;

impl Keddah {
    /// Stage 1 — capture: runs `repeats` executions of `job` on the
    /// simulated cluster and returns their classified traces.
    #[must_use]
    pub fn capture(
        cluster: &ClusterSpec,
        config: &HadoopConfig,
        job: &JobSpec,
        repeats: u32,
        seed_base: u64,
    ) -> Vec<Trace> {
        run_repeats(cluster, config, job, seed_base, repeats)
            .into_iter()
            .map(|run| run.trace)
            .collect()
    }

    /// Stage 1 variant taking an explicit seed stream: one capture per
    /// seed, in order. This is how the experiment [`crate::runner`]
    /// drives captures — its per-cell splitmix64 derivation hands each
    /// cell a seed stream that is independent of matrix shape and worker
    /// scheduling.
    #[must_use]
    pub fn capture_seeded(
        cluster: &ClusterSpec,
        config: &HadoopConfig,
        job: &JobSpec,
        seeds: &[u64],
    ) -> Vec<Trace> {
        run_repeats_seeded(cluster, config, job, seeds)
            .into_iter()
            .map(|run| run.trace)
            .collect()
    }

    /// Stage 2 — model: pools the traces into a dataset and fits a
    /// [`KeddahModel`].
    ///
    /// # Errors
    ///
    /// Propagates fitting errors (insufficient flows, degenerate
    /// samples).
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty or mixes workloads (see
    /// [`Dataset::from_traces`]).
    pub fn fit(traces: &[Trace]) -> Result<KeddahModel> {
        fit_model(&Dataset::from_traces(traces))
    }

    /// Convenience for single-trace fitting, asserting the workload for
    /// the caller.
    ///
    /// # Errors
    ///
    /// As [`Keddah::fit`], plus an error if the trace's workload does not
    /// match `workload`.
    pub fn fit_single(trace: &Trace, workload: Workload) -> Result<KeddahModel> {
        if trace.meta().workload != workload.name() {
            return Err(crate::CoreError::Json(format!(
                "trace is {}, expected {}",
                trace.meta().workload,
                workload.name()
            )));
        }
        Keddah::fit(std::slice::from_ref(trace))
    }

    /// Stage 4 — validate: regenerates jobs from the model and compares
    /// against captures (stage 3, generation, lives on
    /// [`KeddahModel::generate_job`]).
    ///
    /// # Errors
    ///
    /// As [`validate_model`].
    pub fn validate(
        model: &KeddahModel,
        traces: &[Trace],
        generated_jobs: u32,
        seed: u64,
    ) -> Result<ValidationReport> {
        validate_model(model, traces, generated_jobs, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keddah_flowcap::Component;

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

        let report = Keddah::validate(&model, &traces, 3, 11).unwrap();
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
    fn fit_single_checks_workload() {
        let (cluster, config, job) = testbed();
        let traces = Keddah::capture(&cluster, &config, &job, 1, 5);
        assert!(Keddah::fit_single(&traces[0], Workload::TeraSort).is_ok());
        assert!(Keddah::fit_single(&traces[0], Workload::Grep).is_err());
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
