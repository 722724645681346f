//! Model families: extrapolating Keddah models across input sizes.
//!
//! A single [`KeddahModel`] describes one `(workload, input size,
//! config)` point. The evaluation's scaling analysis (Figure 5) shows how
//! each component's traffic grows with input size; a [`ModelFamily`]
//! operationalizes that: it holds models fitted at several *anchor* input
//! sizes, fits per-component power laws to their flow counts and to the
//! job makespan, and can synthesize a model for *unseen* input sizes —
//! counts from the scaling laws, per-flow size distributions from the
//! nearest anchor (per-flow sizes in Hadoop are set by block size and
//! partition width, not total input), and arrival distributions from the
//! nearest anchor stretched to the predicted makespan.

use std::collections::BTreeMap;

use keddah_flowcap::Component;
use keddah_stat::regression::PowerLaw;
use serde::{Deserialize, Serialize};

use crate::model::{KeddahModel, ScalarModel};
use crate::{CoreError, Result};

/// A family of Keddah models over input size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelFamily {
    /// Workload all anchors share.
    pub workload: String,
    /// Anchor models, sorted by input size (ascending).
    pub anchors: Vec<KeddahModel>,
    /// Flows-per-job power laws (`count = a * GiB^b`) per component.
    pub count_laws: BTreeMap<Component, PowerLaw>,
    /// Makespan power law (`seconds = a * GiB^b`).
    pub makespan_law: PowerLaw,
}

impl ModelFamily {
    /// Fits a family from models of the same workload and configuration
    /// at different input sizes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InsufficientData`] with fewer than two
    /// distinct anchor sizes, or if the anchors mix workloads or
    /// configurations (reducers/replication/block size), which would
    /// conflate covariates.
    pub fn fit(models: &[KeddahModel]) -> Result<ModelFamily> {
        if models.len() < 2 {
            return Err(CoreError::InsufficientData {
                what: "model family needs at least two anchor input sizes",
            });
        }
        let first = &models[0];
        for m in models {
            if m.workload != first.workload
                || m.reducers != first.reducers
                || m.replication != first.replication
                || m.block_bytes != first.block_bytes
                || m.nodes != first.nodes
            {
                return Err(CoreError::InsufficientData {
                    what: "model family anchors must share workload and configuration",
                });
            }
        }
        let mut anchors = models.to_vec();
        anchors.sort_by_key(|m| m.input_bytes);
        anchors.dedup_by_key(|m| m.input_bytes);
        if anchors.len() < 2 {
            return Err(CoreError::InsufficientData {
                what: "model family needs at least two distinct anchor input sizes",
            });
        }

        let gib: Vec<f64> = anchors
            .iter()
            .map(|m| m.input_bytes as f64 / (1u64 << 30) as f64)
            .collect();

        // Per-component count laws over the anchors where the component
        // exists everywhere (a component absent at small inputs cannot be
        // extrapolated reliably and falls back to nearest-anchor counts).
        let mut count_laws = BTreeMap::new();
        for &component in Component::ALL {
            if !anchors.iter().all(|m| m.component(component).is_some()) {
                continue;
            }
            let counts: Vec<f64> = anchors
                .iter()
                .map(|m| {
                    m.component(component)
                        .expect("checked above")
                        .count
                        .mean
                        .max(0.5)
                })
                .collect();
            if let Ok(law) = PowerLaw::fit(&gib, &counts) {
                count_laws.insert(component, law);
            }
        }

        let makespans: Vec<f64> = anchors.iter().map(|m| m.makespan.mean.max(1.0)).collect();
        let makespan_law = PowerLaw::fit(&gib, &makespans).map_err(CoreError::Stat)?;

        Ok(ModelFamily {
            workload: first.workload.clone(),
            anchors,
            count_laws,
            makespan_law,
        })
    }

    /// The anchor whose input size is closest (in log-space) to
    /// `input_bytes`.
    #[must_use]
    fn nearest_anchor(&self, input_bytes: u64) -> &KeddahModel {
        let target = (input_bytes.max(1) as f64).ln();
        self.anchors
            .iter()
            .min_by(|a, b| {
                let da = ((a.input_bytes as f64).ln() - target).abs();
                let db = ((b.input_bytes as f64).ln() - target).abs();
                da.partial_cmp(&db).expect("finite distances")
            })
            .expect("families hold at least two anchors")
    }

    /// Synthesizes a model for an arbitrary input size.
    ///
    /// Counts and makespan come from the fitted power laws; per-flow size
    /// distributions are taken from the nearest anchor unchanged;
    /// arrival distributions are the nearest anchor's stretched by the
    /// ratio of predicted to anchor makespan.
    #[must_use]
    pub fn model_at(&self, input_bytes: u64) -> KeddahModel {
        let anchor = self.nearest_anchor(input_bytes);
        let gib = (input_bytes.max(1) as f64) / (1u64 << 30) as f64;
        let predicted_makespan = self.makespan_law.predict(gib).max(1.0);
        let stretch = (predicted_makespan / anchor.makespan.mean.max(1.0)).max(1e-6);

        let mut model = anchor.clone();
        model.input_bytes = input_bytes;
        model.makespan = ScalarModel {
            mean: predicted_makespan,
            // Keep the anchor's relative spread.
            std: anchor.makespan.std * stretch,
        };
        for (component, cm) in &mut model.components {
            if let Some(law) = self.count_laws.get(component) {
                let predicted = law.predict(gib).max(0.0);
                let rel_std = if cm.count.mean > 0.0 {
                    cm.count.std / cm.count.mean
                } else {
                    0.0
                };
                cm.count = ScalarModel {
                    mean: predicted,
                    std: predicted * rel_std,
                };
            }
            cm.start_dist = cm.start_dist.scaled(stretch);
        }
        model
    }

    /// Serializes the family to pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("family serializes")
    }

    /// Parses a family from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Json`] on malformed input or an anchor with a
    /// distribution whose parameters its family rejects.
    pub fn from_json(json: &str) -> Result<ModelFamily> {
        let family: ModelFamily =
            serde_json::from_str(json).map_err(|e| CoreError::Json(e.to_string()))?;
        for (i, anchor) in family.anchors.iter().enumerate() {
            anchor
                .check_distributions()
                .map_err(|msg| CoreError::Json(format!("anchor {i}: {msg}")))?;
        }
        Ok(family)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Keddah;
    use keddah_hadoop::{ClusterSpec, HadoopConfig, JobSpec, Workload};

    fn anchor(gib: u64, seed: u64) -> KeddahModel {
        let cluster = ClusterSpec::racks(2, 4);
        let config = HadoopConfig::default().with_reducers(4);
        let traces = Keddah::capture(
            &cluster,
            &config,
            &JobSpec::new(Workload::TeraSort, gib << 30),
            3,
            seed,
        );
        Keddah::fit(&traces).expect("anchor fits")
    }

    #[test]
    fn family_fits_and_counts_scale() {
        let anchors = vec![anchor(1, 10), anchor(2, 20), anchor(4, 30)];
        let family = ModelFamily::fit(&anchors).expect("family fits");
        let shuffle_law = family
            .count_laws
            .get(&Component::Shuffle)
            .expect("shuffle law exists");
        // Shuffle flow count ~ maps x reducers ~ linear in input.
        assert!(
            (0.6..1.4).contains(&shuffle_law.exponent),
            "exponent = {}",
            shuffle_law.exponent
        );
        assert!(
            shuffle_law.r_squared > 0.9,
            "R2 = {}",
            shuffle_law.r_squared
        );
    }

    #[test]
    fn extrapolated_model_predicts_unseen_size() {
        let anchors = vec![anchor(1, 10), anchor(2, 20), anchor(4, 30)];
        let family = ModelFamily::fit(&anchors).expect("family fits");
        // Predict at 8 GiB and compare against a real capture there.
        let predicted = family.model_at(8 << 30);
        let actual = anchor(8, 40);
        let p = predicted
            .component(Component::Shuffle)
            .expect("has shuffle");
        let a = actual.component(Component::Shuffle).expect("has shuffle");
        let count_err = (p.count.mean - a.count.mean).abs() / a.count.mean;
        assert!(
            count_err < 0.35,
            "count error {count_err}: {} vs {}",
            p.count.mean,
            a.count.mean
        );
        // Predicted makespan within 2x of the observed one.
        let mk_ratio = predicted.makespan.mean / actual.makespan.mean;
        assert!((0.5..2.0).contains(&mk_ratio), "makespan ratio {mk_ratio}");
        assert_eq!(predicted.input_bytes, 8 << 30);
    }

    #[test]
    fn generated_job_from_extrapolated_model_scales_volume() {
        let anchors = vec![anchor(1, 10), anchor(4, 30)];
        let family = ModelFamily::fit(&anchors).expect("family fits");
        let small = family.model_at(1 << 30).generate_job(1);
        let big = family.model_at(8 << 30).generate_job(1);
        let ratio = big.total_bytes() as f64 / small.total_bytes() as f64;
        assert!(
            ratio > 3.0,
            "8x input should yield much more traffic: {ratio}"
        );
    }

    #[test]
    fn family_rejects_bad_anchor_sets() {
        let a = anchor(1, 10);
        assert!(ModelFamily::fit(std::slice::from_ref(&a)).is_err());
        assert!(
            ModelFamily::fit(&[a.clone(), a.clone()]).is_err(),
            "duplicate sizes"
        );
        let mut b = anchor(2, 20);
        b.reducers += 1;
        assert!(ModelFamily::fit(&[a, b]).is_err(), "mixed configurations");
    }

    #[test]
    fn family_json_roundtrip() {
        let mut family = ModelFamily::fit(&[anchor(1, 10), anchor(2, 20)]).expect("fits");
        let back = ModelFamily::from_json(&family.to_json()).expect("parses");
        assert_eq!(family, back);

        // A malformed anchor distribution is rejected on load, naming
        // where it sits.
        let shuffle = family.anchors[1]
            .components
            .get_mut(&Component::Shuffle)
            .expect("has shuffle");
        shuffle.size_dist =
            serde_json::from_str(r#"{"family":"empirical","knots":[],"n":0}"#).unwrap();
        let err = ModelFamily::from_json(&family.to_json()).unwrap_err();
        assert!(
            err.to_string()
                .contains("anchor 1: component shuffle: size_dist: invalid parameter knots"),
            "{err}"
        );
    }

    #[test]
    fn nearest_anchor_log_space() {
        let family = ModelFamily::fit(&[anchor(1, 10), anchor(4, 30)]).expect("fits");
        assert_eq!(family.nearest_anchor(1 << 30).input_bytes, 1 << 30);
        assert_eq!(family.nearest_anchor(16 << 30).input_bytes, 4 << 30);
        // 2 GiB is the log-midpoint: either anchor is acceptable, but the
        // choice must be deterministic.
        let pick = family.nearest_anchor(2 << 30).input_bytes;
        assert_eq!(pick, family.nearest_anchor(2 << 30).input_bytes);
    }
}
