//! Fitting Keddah models from datasets.
//!
//! For each traffic component with enough flows, fit the positive-support
//! candidate families to the flow sizes and all families to the start
//! times, select by KS statistic, and record the goodness of fit.

use keddah_flowcap::Component;
use keddah_stat::fit::{fit_best_or_empirical, Candidate, FittedDist};

use crate::dataset::{ComponentSample, Dataset};
use crate::model::{
    ComponentModel, EndpointPattern, FitQuality, KeddahModel, ScalarModel, MODEL_VERSION,
};
use crate::{CoreError, Result};

/// Minimum pooled flows a component needs before Keddah will model it.
/// Below this, a parametric fit is noise.
pub const MIN_FLOWS: usize = 8;

/// KS distance above which the best parametric family is rejected in
/// favour of the empirical quantile-table model. Hadoop components with
/// near-deterministic sizes (block-sized HDFS transfers) routinely defeat
/// smooth families; the empirical fallback is what makes the models,
/// in the paper's words, *empirical* traffic models.
pub const EMPIRICAL_FALLBACK_KS: f64 = 0.12;

/// Fits a [`KeddahModel`] from a dataset.
///
/// Components with fewer than [`MIN_FLOWS`] pooled flows are skipped (a
/// model does not have to contain every component; Grep has essentially
/// no shuffle). At least one component must survive.
///
/// # Errors
///
/// Returns [`CoreError::InsufficientData`] if no component can be
/// modelled, or [`CoreError::Stat`] if fitting fails on a component that
/// had enough flows.
pub fn fit_model(dataset: &Dataset) -> Result<KeddahModel> {
    let mut components = std::collections::BTreeMap::new();
    for (&component, sample) in &dataset.components {
        if sample.sizes.len() < MIN_FLOWS {
            continue;
        }
        let model = fit_component(component, sample)?;
        components.insert(component, model);
    }
    if components.is_empty() {
        return Err(CoreError::InsufficientData {
            what: "no component had enough flows to model",
        });
    }
    Ok(KeddahModel {
        version: MODEL_VERSION,
        workload: dataset.workload.clone(),
        input_bytes: dataset.input_bytes,
        reducers: dataset.reducers,
        replication: dataset.replication,
        block_bytes: dataset.block_bytes,
        nodes: dataset.nodes,
        runs: dataset.runs,
        makespan: ScalarModel::from_samples(&dataset.makespans),
        components,
    })
}

/// Fits one component's size, arrival and count models.
fn fit_component(component: Component, sample: &ComponentSample) -> Result<ComponentModel> {
    let (size_dist, size_fit) = fit_with_fallback(&sample.sizes, Candidate::POSITIVE)?;

    // Start times include zeros (the first flow of each run), which
    // positive-support families reject; shift by a nanosecond-scale
    // epsilon and let every family compete.
    let starts: Vec<f64> = sample.starts.iter().map(|&s| s + 1e-9).collect();
    let (start_dist, start_fit) = fit_with_fallback(&starts, Candidate::ALL)?;

    Ok(ComponentModel {
        size_dist,
        size_fit,
        start_dist,
        start_fit,
        count: ScalarModel::from_samples(&sample.counts),
        pattern: EndpointPattern::for_component(component),
    })
}

/// Runs the parametric candidate sweep; if the winner's KS distance
/// exceeds [`EMPIRICAL_FALLBACK_KS`] — or no parametric family fits at
/// all (e.g. a constant-valued sample) — falls back to the empirical
/// quantile-table model ([`fit_best_or_empirical`]).
fn fit_with_fallback(
    samples: &[f64],
    candidates: &[Candidate],
) -> Result<(FittedDist, FitQuality)> {
    let (dist, ks) = fit_best_or_empirical(samples, candidates, EMPIRICAL_FALLBACK_KS)
        .map_err(CoreError::Stat)?;
    let fit = FitQuality {
        ks_statistic: ks.statistic,
        ks_p_value: ks.p_value,
        samples: samples.len() as u64,
    };
    Ok((dist, fit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::ComponentSample;
    use keddah_stat::distributions::{Distribution, LogNormal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    fn synthetic_dataset(n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(5);
        let size_truth = LogNormal::new(15.0, 0.8).unwrap();
        let mut components = BTreeMap::new();
        components.insert(
            Component::Shuffle,
            ComponentSample {
                sizes: (0..n).map(|_| size_truth.sample(&mut rng)).collect(),
                starts: (0..n).map(|i| i as f64 * 0.5).collect(),
                counts: vec![n as f64 / 2.0; 2],
            },
        );
        components.insert(
            Component::Control,
            ComponentSample {
                sizes: vec![900.0; 3], // below MIN_FLOWS: skipped
                starts: vec![0.0; 3],
                counts: vec![1.5; 2],
            },
        );
        Dataset {
            workload: "terasort".into(),
            input_bytes: 1 << 30,
            reducers: 8,
            replication: 3,
            block_bytes: 128 << 20,
            nodes: 16,
            runs: 2,
            makespans: vec![100.0, 110.0],
            components,
        }
    }

    #[test]
    fn fits_component_with_enough_flows() {
        let model = fit_model(&synthetic_dataset(500)).unwrap();
        let shuffle = model.component(Component::Shuffle).unwrap();
        assert_eq!(shuffle.size_dist.name(), "lognormal");
        assert!(shuffle.size_fit.ks_statistic < 0.1);
        assert_eq!(shuffle.size_fit.samples, 500);
        assert_eq!(shuffle.count.mean, 250.0);
        assert!(model.component(Component::Control).is_none(), "skipped");
        assert_eq!(model.makespan.mean, 105.0);
    }

    #[test]
    fn model_carries_covariates() {
        let model = fit_model(&synthetic_dataset(100)).unwrap();
        assert_eq!(model.workload, "terasort");
        assert_eq!(model.reducers, 8);
        assert_eq!(model.nodes, 16);
        assert_eq!(model.runs, 2);
    }

    #[test]
    fn all_components_too_small_is_an_error() {
        let mut ds = synthetic_dataset(500);
        for s in ds.components.values_mut() {
            s.sizes.truncate(2);
        }
        assert!(matches!(
            fit_model(&ds),
            Err(CoreError::InsufficientData { .. })
        ));
    }

    #[test]
    fn start_times_with_zeros_fit() {
        // Regression guard: start samples contain exact zeros; fitting
        // must not fail on positive-support families.
        let model = fit_model(&synthetic_dataset(50)).unwrap();
        assert!(model
            .component(Component::Shuffle)
            .unwrap()
            .start_fit
            .ks_statistic
            .is_finite());
    }
}
