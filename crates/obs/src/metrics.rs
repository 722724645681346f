//! The metrics registry: counters, gauges, and log2-bucketed histograms,
//! keyed by `(subsystem, name)`.
//!
//! Recording is designed for simulation hot paths: counters and gauges
//! are plain atomics once registered (registration takes the registry
//! lock once per metric, not per increment), and histograms take one
//! uncontended mutex per observation. Snapshots are plain serializable
//! data with a [`merge`](MetricsSnapshot::merge) that the matrix runner
//! uses to aggregate per-cell registries deterministically.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use keddah_stat::Summary;
use serde::{Deserialize, Serialize};

/// A monotonically increasing counter handle.
///
/// Cloning shares the underlying cell. A handle from a disabled
/// registry is inert: every operation is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for an inert handle).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-write-wins gauge handle (u64-valued).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: u64) {
        if let Some(cell) = &self.0 {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `value` if larger (a high-water mark).
    #[inline]
    pub fn set_max(&self, value: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Current value (0 for an inert handle).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// The log2 bucket a non-negative value falls into: bucket `b` counts
/// observations in `(2^(b-1), 2^b]`, with bucket 0 holding everything
/// `<= 1` and the last bucket everything above `2^62`.
#[must_use]
pub fn log2_bucket(x: f64) -> u32 {
    if x.is_nan() || x <= 1.0 {
        // NaN and everything <= 1 land in bucket 0.
        return 0;
    }
    let b = x.log2().ceil();
    if b >= 63.0 {
        63
    } else {
        b as u32
    }
}

#[derive(Debug, Default)]
struct HistInner {
    buckets: BTreeMap<u32, u64>,
    summary: Summary,
}

/// A histogram handle: log2-spaced buckets plus a [`Summary`] mirror of
/// the exact moments (count, mean, variance, min, max, sum).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<Mutex<HistInner>>>);

impl Histogram {
    /// Records one observation. Non-finite values are counted in bucket
    /// 0 of the histogram but excluded from the summary moments, so a
    /// stray NaN can never poison the mean.
    #[inline]
    pub fn observe(&self, x: f64) {
        if let Some(cell) = &self.0 {
            if let Ok(mut inner) = cell.lock() {
                *inner.buckets.entry(log2_bucket(x)).or_insert(0) += 1;
                if x.is_finite() {
                    inner.summary.push(x);
                }
            }
        }
    }

    /// Snapshot of the current state (empty for an inert handle).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.0 {
            None => HistogramSnapshot::default(),
            Some(cell) => match cell.lock() {
                Ok(inner) => HistogramSnapshot {
                    buckets: inner
                        .buckets
                        .iter()
                        .map(|(&log2, &count)| Bucket { log2, count })
                        .collect(),
                    summary: inner.summary,
                },
                Err(_) => HistogramSnapshot::default(),
            },
        }
    }
}

/// One occupied log2 bucket of a histogram snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bucket {
    /// Bucket index: counts observations in `(2^(log2-1), 2^log2]`.
    pub log2: u32,
    /// Observations in the bucket.
    pub count: u64,
}

/// Serializable state of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Occupied buckets, ascending by index.
    pub buckets: Vec<Bucket>,
    /// Exact moments of the finite observations.
    pub summary: Summary,
}

impl HistogramSnapshot {
    /// Merges another snapshot into this one: buckets add, summaries
    /// merge via the parallel Welford rule.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged: BTreeMap<u32, u64> =
            self.buckets.iter().map(|b| (b.log2, b.count)).collect();
        for b in &other.buckets {
            *merged.entry(b.log2).or_insert(0) += b.count;
        }
        self.buckets = merged
            .into_iter()
            .map(|(log2, count)| Bucket { log2, count })
            .collect();
        self.summary.merge(&other.summary);
    }
}

/// Metrics of one subsystem in a snapshot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SubsystemMetrics {
    /// Monotonic counters, by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges, by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms, by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl SubsystemMetrics {
    fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// A serializable point-in-time view of a registry — the `metrics.json`
/// artefact `keddah stats` renders.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Per-subsystem metrics, sorted by subsystem name.
    pub subsystems: BTreeMap<String, SubsystemMetrics>,
}

impl MetricsSnapshot {
    /// Merges another snapshot into this one: counters add, gauges take
    /// the maximum (a high-water mark across runs), histograms merge.
    ///
    /// Merging is commutative and associative for counters and gauges;
    /// histogram summaries merge via Welford, so their moments agree
    /// with pooled observation to within float rounding regardless of
    /// merge order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, sub) in &other.subsystems {
            let mine = self.subsystems.entry(name.clone()).or_default();
            for (k, v) in &sub.counters {
                *mine.counters.entry(k.clone()).or_insert(0) += v;
            }
            for (k, v) in &sub.gauges {
                let slot = mine.gauges.entry(k.clone()).or_insert(0);
                *slot = (*slot).max(*v);
            }
            for (k, h) in &sub.histograms {
                mine.histograms.entry(k.clone()).or_default().merge(h);
            }
        }
    }

    /// A counter's value, 0 when absent.
    #[must_use]
    pub fn counter(&self, subsystem: &str, name: &str) -> u64 {
        self.subsystems
            .get(subsystem)
            .and_then(|s| s.counters.get(name).copied())
            .unwrap_or(0)
    }

    /// A gauge's value, 0 when absent.
    #[must_use]
    pub fn gauge(&self, subsystem: &str, name: &str) -> u64 {
        self.subsystems
            .get(subsystem)
            .and_then(|s| s.gauges.get(name).copied())
            .unwrap_or(0)
    }

    /// True when no subsystem recorded anything.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.subsystems.values().all(SubsystemMetrics::is_empty)
    }

    /// Serializes to pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::json::write_pretty(&self.to_value())
    }

    /// Parses a snapshot from JSON.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed input.
    pub fn from_json(input: &str) -> Result<MetricsSnapshot, String> {
        let value = serde::json::parse(input).map_err(|e| e.to_string())?;
        MetricsSnapshot::from_value(&value).map_err(|e| e.to_string())
    }
}

/// Metric cells keyed by `(subsystem, name)`.
type CellMap<T> = Mutex<BTreeMap<(String, String), Arc<T>>>;

/// The live registry: named metric cells handed out as cheap handles.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: CellMap<AtomicU64>,
    gauges: CellMap<AtomicU64>,
    histograms: CellMap<Mutex<HistInner>>,
}

impl MetricsRegistry {
    /// Registers (or re-fetches) a counter.
    pub fn counter(&self, subsystem: &str, name: &str) -> Counter {
        let key = (subsystem.to_string(), name.to_string());
        match self.counters.lock() {
            Ok(mut map) => Counter(Some(map.entry(key).or_default().clone())),
            Err(_) => Counter(None),
        }
    }

    /// Registers (or re-fetches) a gauge.
    pub fn gauge(&self, subsystem: &str, name: &str) -> Gauge {
        let key = (subsystem.to_string(), name.to_string());
        match self.gauges.lock() {
            Ok(mut map) => Gauge(Some(map.entry(key).or_default().clone())),
            Err(_) => Gauge(None),
        }
    }

    /// Registers (or re-fetches) a histogram.
    pub fn histogram(&self, subsystem: &str, name: &str) -> Histogram {
        let key = (subsystem.to_string(), name.to_string());
        match self.histograms.lock() {
            Ok(mut map) => Histogram(Some(map.entry(key).or_default().clone())),
            Err(_) => Histogram(None),
        }
    }

    /// Snapshots every registered metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        if let Ok(map) = self.counters.lock() {
            for ((sub, name), cell) in map.iter() {
                snap.subsystems
                    .entry(sub.clone())
                    .or_default()
                    .counters
                    .insert(name.clone(), cell.load(Ordering::Relaxed));
            }
        }
        if let Ok(map) = self.gauges.lock() {
            for ((sub, name), cell) in map.iter() {
                snap.subsystems
                    .entry(sub.clone())
                    .or_default()
                    .gauges
                    .insert(name.clone(), cell.load(Ordering::Relaxed));
            }
        }
        if let Ok(map) = self.histograms.lock() {
            for ((sub, name), cell) in map.iter() {
                let h = Histogram(Some(cell.clone())).snapshot();
                snap.subsystems
                    .entry(sub.clone())
                    .or_default()
                    .histograms
                    .insert(name.clone(), h);
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_through_handles() {
        let reg = MetricsRegistry::default();
        let a = reg.counter("netsim", "flows_started");
        let b = reg.counter("netsim", "flows_started");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("netsim", "flows_started"), 3);
        assert_eq!(snap.counter("netsim", "absent"), 0);
    }

    #[test]
    fn gauges_set_and_high_water() {
        let reg = MetricsRegistry::default();
        let g = reg.gauge("netsim", "peak_active");
        g.set(5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set_max(9);
        assert_eq!(reg.snapshot().gauge("netsim", "peak_active"), 9);
    }

    #[test]
    fn log2_buckets_cover_the_line() {
        assert_eq!(log2_bucket(f64::NAN), 0);
        assert_eq!(log2_bucket(-3.0), 0);
        assert_eq!(log2_bucket(0.0), 0);
        assert_eq!(log2_bucket(1.0), 0);
        assert_eq!(log2_bucket(1.5), 1);
        assert_eq!(log2_bucket(2.0), 1);
        assert_eq!(log2_bucket(3.0), 2);
        assert_eq!(log2_bucket(1024.0), 10);
        assert_eq!(log2_bucket(f64::INFINITY), 63);
    }

    #[test]
    fn histogram_mirrors_summary() {
        let reg = MetricsRegistry::default();
        let h = reg.histogram("netsim", "flow_bytes");
        for x in [1.0, 2.0, 3.0, 1024.0] {
            h.observe(x);
        }
        h.observe(f64::NAN); // counted in buckets, not in moments
        let snap = h.snapshot();
        assert_eq!(snap.summary.count(), 4);
        assert_eq!(snap.summary.sum(), 1030.0);
        let total: u64 = snap.buckets.iter().map(|b| b.count).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn snapshot_merge_matches_pooled_recording() {
        let a = MetricsRegistry::default();
        let b = MetricsRegistry::default();
        let pooled = MetricsRegistry::default();
        for (i, reg) in [&a, &b].into_iter().enumerate() {
            let c = reg.counter("s", "n");
            c.add(i as u64 + 1);
            // Gauges merge as a high-water mark: a's 8 over b's 4.
            reg.gauge("s", "g").set(8 - 4 * i as u64);
            let h = reg.histogram("s", "h");
            for x in 0..50 {
                let v = (x as f64) * (i as f64 + 1.0);
                h.observe(v);
                pooled.histogram("s", "h").observe(v);
            }
        }
        pooled.counter("s", "n").add(3);
        pooled.gauge("s", "g").set(8);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let direct = pooled.snapshot();
        assert_eq!(merged.counter("s", "n"), direct.counter("s", "n"));
        assert_eq!(merged.gauge("s", "g"), 8);
        assert_eq!(direct.gauge("s", "g"), 8);
        let hm = &merged.subsystems["s"].histograms["h"];
        let hd = &direct.subsystems["s"].histograms["h"];
        assert_eq!(hm.buckets, hd.buckets);
        assert_eq!(hm.summary.count(), hd.summary.count());
        assert!((hm.summary.mean() - hd.summary.mean()).abs() < 1e-9);
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let reg = MetricsRegistry::default();
        reg.counter("faults", "flows_aborted").add(7);
        reg.gauge("netsim", "peak_active").set(3);
        reg.histogram("netsim", "fct_us").observe(125.0);
        let snap = reg.snapshot();
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).expect("roundtrips");
        assert_eq!(back, snap);
        assert!(MetricsSnapshot::from_json("[oops").is_err());
    }

    #[test]
    fn inert_handles_are_noops() {
        let c = Counter::default();
        c.inc();
        assert_eq!(c.get(), 0);
        let g = Gauge::default();
        g.set(9);
        assert_eq!(g.get(), 0);
        let h = Histogram::default();
        h.observe(1.0);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }
}
