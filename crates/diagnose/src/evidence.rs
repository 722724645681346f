//! The observable inputs of one diagnosis case.
//!
//! [`Evidence`] is everything a diagnosis may look at, gathered from a
//! degraded run and (optionally) a healthy baseline: metrics snapshots,
//! per-component flow-completion samples, per-node last-activity
//! times, and the endpoints of aborted flows. It deliberately carries
//! *observations*, not labels — ground truth lives next to it in a
//! corpus cell's `label.json`, which only the eval harness reads.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use keddah_core::replay::{component_of, ReplayReport};
use keddah_flowcap::{Component, Trace};
use keddah_obs::MetricsSnapshot;
use serde::{Deserialize, Serialize};

use crate::{DiagnoseError, Result};

/// One flow a fault killed: who was talking to whom when the run went
/// wrong. The shape of this set (a star around one host, a clean
/// bipartition) is the main localisation signal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AbortedFlow {
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Payload bytes the flow carried.
    pub bytes: u64,
    /// Traffic component label.
    pub component: String,
}

/// The observable inputs for one case, serializable as a corpus cell's
/// `evidence.json`.
///
/// Any part may be empty: a trace-only diagnosis has no abort
/// endpoints, a metrics-only one has no FCT samples. The fingerprint
/// layer treats absence as "no signal", never as an error.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Evidence {
    /// Workload name, informational (carried into verdict output).
    pub workload: String,
    /// Metrics snapshot of the degraded run.
    pub metrics: MetricsSnapshot,
    /// Metrics snapshot of the baseline run (empty when absent).
    pub baseline_metrics: MetricsSnapshot,
    /// Per-component flow-completion samples of the degraded run, in
    /// seconds, aborted flows excluded.
    pub fct: BTreeMap<String, Vec<f64>>,
    /// Baseline per-component flow-completion samples.
    pub baseline_fct: BTreeMap<String, Vec<f64>>,
    /// Endpoints of the flows the degraded run aborted.
    pub aborted: Vec<AbortedFlow>,
    /// Per-node time of last completed traffic in the degraded run,
    /// seconds from run start.
    pub node_last_seen: BTreeMap<u32, f64>,
    /// Degraded-run makespan in seconds.
    pub makespan_secs: f64,
    /// Per-node time of last completed traffic in the baseline run.
    pub baseline_node_last_seen: BTreeMap<u32, f64>,
    /// Baseline makespan in seconds.
    pub baseline_makespan_secs: f64,
}

/// Per-component FCT samples, per-node last-seen times, and makespan of
/// one replay (aborted flows excluded from all three).
fn replay_side(report: &ReplayReport) -> (BTreeMap<String, Vec<f64>>, BTreeMap<u32, f64>, f64) {
    let fct = report
        .fct_by_component
        .iter()
        .filter(|(_, samples)| !samples.is_empty())
        .map(|(component, samples)| (component.name().to_string(), samples.clone()))
        .collect();
    let aborted: std::collections::HashSet<usize> =
        report.sim.faults.aborted.iter().copied().collect();
    let mut last_seen: BTreeMap<u32, f64> = BTreeMap::new();
    for (i, r) in report.sim.results.iter().enumerate() {
        if aborted.contains(&i) {
            continue;
        }
        let finish = r.finish.as_secs_f64();
        for node in [r.spec.src.0, r.spec.dst.0] {
            let slot = last_seen.entry(node).or_insert(0.0);
            if finish > *slot {
                *slot = finish;
            }
        }
    }
    (fct, last_seen, report.makespan_secs())
}

/// Per-component flow duration samples, per-node last-seen times, and
/// makespan read directly from a capture trace (the trace-only input
/// path, where no replay report exists).
fn trace_side(trace: &Trace) -> (BTreeMap<String, Vec<f64>>, BTreeMap<u32, f64>, f64) {
    let mut fct: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut last_seen: BTreeMap<u32, f64> = BTreeMap::new();
    for flow in trace.flows() {
        let duration = flow.end.saturating_since(flow.start).as_secs_f64();
        let name = flow.component.map_or("other", Component::name);
        fct.entry(name.to_string()).or_default().push(duration);
        let end = flow.end.as_secs_f64();
        for node in [flow.tuple.src.0, flow.tuple.dst.0] {
            let slot = last_seen.entry(node).or_insert(0.0);
            if end > *slot {
                *slot = end;
            }
        }
    }
    (fct, last_seen, trace.makespan().as_secs_f64())
}

impl Evidence {
    /// Builds evidence from a degraded replay and its baseline, plus the
    /// metrics snapshots recorded alongside them.
    #[must_use]
    pub fn from_replays(
        workload: &str,
        degraded: &ReplayReport,
        metrics: MetricsSnapshot,
        baseline: &ReplayReport,
        baseline_metrics: MetricsSnapshot,
    ) -> Evidence {
        let (fct, node_last_seen, makespan_secs) = replay_side(degraded);
        let (baseline_fct, baseline_node_last_seen, baseline_makespan_secs) = replay_side(baseline);
        let aborted = degraded
            .sim
            .faults
            .aborted
            .iter()
            .filter_map(|&i| degraded.sim.results.get(i))
            .map(|r| AbortedFlow {
                src: r.spec.src.0,
                dst: r.spec.dst.0,
                bytes: r.spec.bytes,
                component: component_of(r.spec.tag).name().to_string(),
            })
            .collect();
        Evidence {
            workload: workload.to_string(),
            metrics,
            baseline_metrics,
            fct,
            baseline_fct,
            aborted,
            node_last_seen,
            makespan_secs,
            baseline_node_last_seen,
            baseline_makespan_secs,
        }
    }

    /// Builds evidence from a degraded capture trace and an optional
    /// baseline trace — the artefact-only path, no re-simulation.
    ///
    /// Trace metadata counters land in the respective snapshot's
    /// `hadoop` subsystem; flow durations stand in for replay FCTs.
    #[must_use]
    pub fn from_traces(degraded: &Trace, baseline: Option<&Trace>) -> Evidence {
        let snapshot_of = |trace: &Trace| {
            let mut snap = MetricsSnapshot::default();
            if let Some(counters) = &trace.meta().counters {
                let sub = snap.subsystems.entry("hadoop".to_string()).or_default();
                for (name, value) in counters {
                    sub.counters.insert(name.clone(), *value);
                }
            }
            snap
        };
        let (fct, node_last_seen, makespan_secs) = trace_side(degraded);
        let (baseline_fct, baseline_node_last_seen, baseline_makespan_secs) = baseline
            .map(trace_side)
            .unwrap_or((BTreeMap::new(), BTreeMap::new(), 0.0));
        Evidence {
            workload: degraded.meta().workload.clone(),
            metrics: snapshot_of(degraded),
            baseline_metrics: baseline.map(snapshot_of).unwrap_or_default(),
            fct,
            baseline_fct,
            aborted: Vec::new(),
            node_last_seen,
            makespan_secs,
            baseline_node_last_seen,
            baseline_makespan_secs,
        }
    }

    /// Serializes to pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::json::write_pretty(&self.to_value())
    }

    /// Parses evidence from JSON; `origin` names the input in errors.
    ///
    /// # Errors
    ///
    /// Returns [`DiagnoseError::Parse`] on malformed input — truncated
    /// or corrupt artefacts are an expected outcome, never a panic.
    pub fn from_json(input: &str, origin: &str) -> Result<Evidence> {
        let value =
            serde::json::parse(input).map_err(|e| DiagnoseError::parse(origin, e.to_string()))?;
        Evidence::from_value(&value).map_err(|e| DiagnoseError::parse(origin, e.to_string()))
    }

    /// Reads evidence from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`DiagnoseError::Io`] on read failure and
    /// [`DiagnoseError::Parse`] on malformed content.
    pub fn load(path: &Path) -> Result<Evidence> {
        let shown = path.display().to_string();
        let input = fs::read_to_string(path).map_err(|e| DiagnoseError::io(&shown, e))?;
        Evidence::from_json(&input, &shown)
    }

    /// Writes the evidence to a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`DiagnoseError::Io`] on write failure.
    pub fn save(&self, path: &Path) -> Result<()> {
        fs::write(path, self.to_json())
            .map_err(|e| DiagnoseError::io(path.display().to_string(), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keddah_flowcap::TraceMeta;

    #[test]
    fn json_round_trip() {
        let mut ev = Evidence {
            workload: "terasort".into(),
            makespan_secs: 12.5,
            ..Evidence::default()
        };
        ev.fct.insert("shuffle".into(), vec![0.5, 1.25]);
        ev.aborted.push(AbortedFlow {
            src: 1,
            dst: 4,
            bytes: 1 << 20,
            component: "shuffle".into(),
        });
        ev.node_last_seen.insert(3, 4.75);
        let back = Evidence::from_json(&ev.to_json(), "test").unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn malformed_json_is_a_structured_error() {
        let err = Evidence::from_json("{ truncated", "bad.json").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("bad.json"), "{msg}");
        assert!(matches!(err, DiagnoseError::Parse { .. }));
        // Valid JSON of the wrong shape is equally structured.
        assert!(matches!(
            Evidence::from_json("[1, 2]", "wrong.json"),
            Err(DiagnoseError::Parse { .. })
        ));
    }

    #[test]
    fn missing_file_is_a_structured_error() {
        let err = Evidence::load(Path::new("/nonexistent/evidence.json")).unwrap_err();
        assert!(matches!(err, DiagnoseError::Io { .. }));
    }

    #[test]
    fn trace_evidence_carries_counters_and_durations() {
        let meta = TraceMeta {
            workload: "wordcount".into(),
            counters: Some([("node_crashes".to_string(), 1u64)].into_iter().collect()),
            ..TraceMeta::default()
        };
        let trace = Trace::new(meta, Vec::new());
        let ev = Evidence::from_traces(&trace, None);
        assert_eq!(ev.workload, "wordcount");
        assert_eq!(ev.metrics.counter("hadoop", "node_crashes"), 1);
        assert!(ev.fct.is_empty());
        assert!(ev.baseline_metrics.is_empty());
    }
}
