//! Observability for the Keddah toolchain: deterministic event tracing
//! plus a metrics registry, zero-cost when disabled.
//!
//! A replay or capture run is a black box between "CLI invoked" and
//! "report printed" — when a golden pin or a byte-conservation invariant
//! breaks, this crate is what localizes it. Two surfaces:
//!
//! * **Tracing** ([`trace`]) — a ring-buffered stream of structured
//!   [`TraceEvent`]s (`{t_nanos, subsystem, kind, flow_id, detail}`)
//!   hooked into the DES engine dispatch and the simulators' state
//!   transitions, written as JSONL;
//! * **Metrics** ([`metrics`]) — counters, gauges and log2-bucketed
//!   histograms keyed by `(subsystem, name)`, snapshotted to a
//!   serializable, mergeable [`MetricsSnapshot`] (the `metrics.json`
//!   artefact `keddah stats` renders).
//!
//! Both hang off one [`Obs`] handle that simulation entry points take by
//! reference. The handle has a hard contract:
//!
//! * **Determinism** — recording never influences simulation state.
//!   Observed entry points produce byte-identical reports whether `Obs`
//!   is enabled, disabled, or absent (pinned by the golden replay corpus
//!   and the `obs_determinism` tests), and trace/metric content derives
//!   only from seeded simulation state — never wall clocks, thread ids,
//!   or allocation addresses.
//! * **Zero cost when disabled** — [`Obs::disabled`] makes every record
//!   call a branch on a `bool` (plus, for deferred detail strings, a
//!   closure that is never invoked). Hot paths keep their pre-obs
//!   profile.
//!
//! # Examples
//!
//! ```
//! use keddah_obs::Obs;
//!
//! let obs = Obs::enabled();
//! let flows = obs.counter("netsim", "flows_started");
//! flows.inc();
//! obs.trace(1_000, "netsim", "flow_arrive", Some(0), || "src=1 dst=2".into());
//! let snap = obs.metrics();
//! assert_eq!(snap.counter("netsim", "flows_started"), 1);
//! assert_eq!(obs.trace_events().len(), 1);
//!
//! let off = Obs::disabled();
//! off.counter("netsim", "flows_started").inc(); // no-op
//! assert!(off.metrics().is_empty());
//! ```

pub mod diff;
pub mod metrics;
pub mod trace;

pub use diff::{MetricsDiff, SubsystemDiff, SummaryShift, ValueDelta};
pub use metrics::{
    log2_bucket, Bucket, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, SubsystemMetrics,
};
pub use trace::{read_jsonl, TraceEvent, Tracer};

use std::sync::Mutex;

/// Default trace ring capacity: enough for a full smoke-scale replay,
/// bounded for a 100k-flow one (drops are counted, never silent).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// The observability handle simulation entry points take.
///
/// See the [crate docs](self) for the determinism and zero-cost
/// contract.
#[derive(Debug)]
pub struct Obs {
    enabled: bool,
    tracer: Mutex<Tracer>,
    registry: MetricsRegistry,
}

impl Obs {
    /// An inert handle: every record call is a no-op behind one branch.
    #[must_use]
    pub fn disabled() -> Obs {
        Obs {
            enabled: false,
            tracer: Mutex::new(Tracer::new(1)),
            registry: MetricsRegistry::default(),
        }
    }

    /// A recording handle with the default trace ring capacity.
    #[must_use]
    pub fn enabled() -> Obs {
        Obs::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A recording handle whose trace ring holds `capacity` events.
    #[must_use]
    pub fn with_trace_capacity(capacity: usize) -> Obs {
        Obs {
            enabled: true,
            tracer: Mutex::new(Tracer::new(capacity)),
            registry: MetricsRegistry::default(),
        }
    }

    /// True when this handle records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a trace event. `detail` is built lazily, so a disabled
    /// handle never pays for string formatting.
    #[inline]
    pub fn trace(
        &self,
        t_nanos: u64,
        subsystem: &str,
        kind: &str,
        flow_id: Option<u64>,
        detail: impl FnOnce() -> String,
    ) {
        if !self.enabled {
            return;
        }
        if let Ok(mut tracer) = self.tracer.lock() {
            tracer.push(TraceEvent {
                t_nanos,
                subsystem: subsystem.to_string(),
                kind: kind.to_string(),
                flow_id,
                detail: detail(),
            });
        }
    }

    /// Registers (or re-fetches) a counter; inert when disabled.
    pub fn counter(&self, subsystem: &str, name: &str) -> Counter {
        if !self.enabled {
            return Counter::default();
        }
        self.registry.counter(subsystem, name)
    }

    /// Registers (or re-fetches) a gauge; inert when disabled.
    pub fn gauge(&self, subsystem: &str, name: &str) -> Gauge {
        if !self.enabled {
            return Gauge::default();
        }
        self.registry.gauge(subsystem, name)
    }

    /// Registers (or re-fetches) a histogram; inert when disabled.
    pub fn histogram(&self, subsystem: &str, name: &str) -> Histogram {
        if !self.enabled {
            return Histogram::default();
        }
        self.registry.histogram(subsystem, name)
    }

    /// One-shot counter add (registration + add; prefer holding a
    /// [`Counter`] handle on hot paths).
    pub fn add(&self, subsystem: &str, name: &str, delta: u64) {
        if self.enabled {
            self.registry.counter(subsystem, name).add(delta);
        }
    }

    /// Snapshot of every registered metric.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The buffered trace events, oldest first.
    #[must_use]
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        match self.tracer.lock() {
            Ok(tracer) => tracer.events().cloned().collect(),
            Err(_) => Vec::new(),
        }
    }

    /// Events evicted from the ring because it was full.
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.tracer.lock().map_or(0, |t| t.dropped())
    }

    /// Writes the buffered trace events as JSONL.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_trace_jsonl<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        match self.tracer.lock() {
            Ok(tracer) => tracer.write_jsonl(writer),
            Err(_) => Ok(()),
        }
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let obs = Obs::disabled();
        obs.trace(1, "netsim", "x", None, || unreachable!("lazy detail"));
        obs.counter("a", "b").inc();
        obs.gauge("a", "g").set(4);
        obs.histogram("a", "h").observe(2.0);
        obs.add("a", "c", 5);
        assert!(!obs.is_enabled());
        assert!(obs.metrics().is_empty());
        assert!(obs.trace_events().is_empty());
    }

    #[test]
    fn enabled_records_everything() {
        let obs = Obs::enabled();
        obs.trace(7, "netsim", "flow_arrive", Some(3), || "d".into());
        obs.add("netsim", "flows_started", 2);
        obs.gauge("netsim", "peak_active").set_max(5);
        obs.histogram("netsim", "fct_us").observe(10.0);
        let events = obs.trace_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].flow_id, Some(3));
        let snap = obs.metrics();
        assert_eq!(snap.counter("netsim", "flows_started"), 2);
        assert_eq!(snap.gauge("netsim", "peak_active"), 5);
        assert_eq!(
            snap.subsystems["netsim"].histograms["fct_us"]
                .summary
                .count(),
            1
        );
    }
}
