//! Snapshot diffing: what changed between a baseline run's metrics and a
//! degraded run's.
//!
//! [`MetricsSnapshot::diff`] produces a serializable [`MetricsDiff`] —
//! the raw material for both `keddah stats --diff` (human-readable
//! table) and `keddah diagnose` (counter-delta evidence). The diff keeps
//! every metric present on *either* side, so a counter that only exists
//! in the degraded run (e.g. `faults/lost_bytes`) shows up as a delta
//! from zero rather than silently vanishing.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::metrics::{MetricsSnapshot, SubsystemMetrics};

/// One scalar metric's values on both sides of a diff.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValueDelta {
    /// Baseline value (0 when the metric is absent there).
    pub baseline: u64,
    /// Degraded value (0 when the metric is absent there).
    pub degraded: u64,
}

impl ValueDelta {
    /// Signed degraded − baseline, saturating at the i64 range.
    #[must_use]
    pub fn delta(&self) -> i64 {
        if self.degraded >= self.baseline {
            i64::try_from(self.degraded - self.baseline).unwrap_or(i64::MAX)
        } else {
            i64::try_from(self.baseline - self.degraded)
                .map(i64::saturating_neg)
                .unwrap_or(i64::MIN)
        }
    }
}

/// One histogram's moment summary on both sides of a diff.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SummaryShift {
    /// Baseline observation count.
    pub n_baseline: u64,
    /// Degraded observation count.
    pub n_degraded: u64,
    /// Baseline mean (0 when empty).
    pub mean_baseline: f64,
    /// Degraded mean (0 when empty).
    pub mean_degraded: f64,
    /// Baseline maximum (0 when empty).
    pub max_baseline: f64,
    /// Degraded maximum (0 when empty).
    pub max_degraded: f64,
}

impl SummaryShift {
    /// Degraded-over-baseline mean ratio; 1.0 when the baseline mean is
    /// zero or either side is empty (no inflation claim possible).
    #[must_use]
    pub fn mean_ratio(&self) -> f64 {
        if self.n_baseline > 0 && self.n_degraded > 0 && self.mean_baseline > 0.0 {
            let r = self.mean_degraded / self.mean_baseline;
            if r.is_finite() {
                return r;
            }
        }
        1.0
    }
}

/// Diff of one subsystem's metrics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SubsystemDiff {
    /// Counter values on both sides, by name.
    pub counters: BTreeMap<String, ValueDelta>,
    /// Gauge values on both sides, by name.
    pub gauges: BTreeMap<String, ValueDelta>,
    /// Histogram summary shifts, by name.
    pub histograms: BTreeMap<String, SummaryShift>,
}

/// A serializable diff of two [`MetricsSnapshot`]s.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsDiff {
    /// Per-subsystem diffs, sorted by subsystem name.
    pub subsystems: BTreeMap<String, SubsystemDiff>,
}

impl MetricsDiff {
    /// Signed counter delta (degraded − baseline), 0 when absent on
    /// both sides.
    #[must_use]
    fn counter_delta(&self, subsystem: &str, name: &str) -> i64 {
        self.subsystems
            .get(subsystem)
            .and_then(|s| s.counters.get(name))
            .map_or(0, ValueDelta::delta)
    }

    /// How much a counter *increased* in the degraded run, clamped at 0
    /// — the shape fingerprint rules want (`failed_map_attempts` going
    /// down is not evidence of a fault).
    #[must_use]
    pub fn counter_increase(&self, subsystem: &str, name: &str) -> u64 {
        u64::try_from(self.counter_delta(subsystem, name)).unwrap_or(0)
    }

    /// True when no metric differs between the two sides.
    #[must_use]
    pub fn is_unchanged(&self) -> bool {
        self.subsystems.values().all(|s| {
            s.counters.values().all(|d| d.baseline == d.degraded)
                && s.gauges.values().all(|d| d.baseline == d.degraded)
                && s.histograms.values().all(|h| {
                    h.n_baseline == h.n_degraded
                        && h.mean_baseline == h.mean_degraded
                        && h.max_baseline == h.max_degraded
                })
        })
    }
}

fn union_keys<'a, T>(a: &'a BTreeMap<String, T>, b: &'a BTreeMap<String, T>) -> Vec<&'a String> {
    let mut keys: Vec<&String> = a.keys().chain(b.keys()).collect();
    keys.sort();
    keys.dedup();
    keys
}

fn diff_subsystem(base: &SubsystemMetrics, deg: &SubsystemMetrics) -> SubsystemDiff {
    let mut out = SubsystemDiff::default();
    for name in union_keys(&base.counters, &deg.counters) {
        out.counters.insert(
            name.clone(),
            ValueDelta {
                baseline: base.counters.get(name).copied().unwrap_or(0),
                degraded: deg.counters.get(name).copied().unwrap_or(0),
            },
        );
    }
    for name in union_keys(&base.gauges, &deg.gauges) {
        out.gauges.insert(
            name.clone(),
            ValueDelta {
                baseline: base.gauges.get(name).copied().unwrap_or(0),
                degraded: deg.gauges.get(name).copied().unwrap_or(0),
            },
        );
    }
    for name in union_keys(&base.histograms, &deg.histograms) {
        let hb = base.histograms.get(name);
        let hd = deg.histograms.get(name);
        let sb = hb.map(|h| h.summary).unwrap_or_default();
        let sd = hd.map(|h| h.summary).unwrap_or_default();
        out.histograms.insert(
            name.clone(),
            SummaryShift {
                n_baseline: sb.count(),
                n_degraded: sd.count(),
                mean_baseline: if sb.count() > 0 { sb.mean() } else { 0.0 },
                mean_degraded: if sd.count() > 0 { sd.mean() } else { 0.0 },
                max_baseline: sb.max().unwrap_or(0.0),
                max_degraded: sd.max().unwrap_or(0.0),
            },
        );
    }
    out
}

impl MetricsSnapshot {
    /// Diffs this (degraded) snapshot against a baseline.
    ///
    /// Every metric present on either side appears in the result; an
    /// absent side reads as 0 / an empty summary.
    #[must_use]
    pub fn diff(&self, baseline: &MetricsSnapshot) -> MetricsDiff {
        let empty = SubsystemMetrics::default();
        let mut out = MetricsDiff::default();
        for sub in union_keys(&baseline.subsystems, &self.subsystems) {
            let base = baseline.subsystems.get(sub).unwrap_or(&empty);
            let deg = self.subsystems.get(sub).unwrap_or(&empty);
            out.subsystems
                .insert(sub.clone(), diff_subsystem(base, deg));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    fn snap(counter: u64, hist: &[f64]) -> MetricsSnapshot {
        let obs = Obs::enabled();
        obs.add("netsim", "flows_aborted", counter);
        for &x in hist {
            obs.histogram("netsim", "fct_us").observe(x);
        }
        obs.metrics()
    }

    #[test]
    fn deltas_cover_both_directions_and_absence() {
        let base = snap(2, &[10.0, 20.0]);
        let deg = snap(7, &[30.0, 60.0]);
        let diff = deg.diff(&base);
        assert_eq!(diff.counter_delta("netsim", "flows_aborted"), 5);
        assert_eq!(diff.counter_increase("netsim", "flows_aborted"), 5);
        // The reverse diff is negative, and increase clamps it to 0.
        let rev = base.diff(&deg);
        assert_eq!(rev.counter_delta("netsim", "flows_aborted"), -5);
        assert_eq!(rev.counter_increase("netsim", "flows_aborted"), 0);
        // Absent on both sides reads as 0, not a panic.
        assert_eq!(diff.counter_delta("netsim", "no_such"), 0);
        let shift = &diff.subsystems["netsim"].histograms["fct_us"];
        assert!((shift.mean_ratio() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn one_sided_metrics_survive_the_diff() {
        let base = MetricsSnapshot::default();
        let deg = snap(4, &[]);
        let diff = deg.diff(&base);
        assert_eq!(diff.counter_delta("netsim", "flows_aborted"), 4);
        assert!(!diff.is_unchanged());
    }

    #[test]
    fn identical_snapshots_diff_unchanged() {
        let a = snap(3, &[1.0, 2.0]);
        let diff = a.diff(&a.clone());
        assert!(diff.is_unchanged());
        assert_eq!(diff.counter_delta("netsim", "flows_aborted"), 0);
    }

    #[test]
    fn mean_ratio_guards_empty_and_zero_baselines() {
        let s = SummaryShift {
            n_baseline: 0,
            n_degraded: 5,
            mean_baseline: 0.0,
            mean_degraded: 9.0,
            max_baseline: 0.0,
            max_degraded: 9.0,
        };
        assert_eq!(s.mean_ratio(), 1.0);
    }

    #[test]
    fn diff_roundtrips_through_json() {
        let base = snap(1, &[5.0]);
        let deg = snap(6, &[50.0]);
        let diff = deg.diff(&base);
        let json = serde::json::write_pretty(&diff.to_value());
        let value = serde::json::parse(&json).expect("parses");
        let back = MetricsDiff::from_value(&value).expect("roundtrips");
        assert_eq!(back, diff);
    }
}
