//! In-memory spans for the traced run.
//!
//! Every layer is timed from outside, around the benchmark's calls into
//! its public functions. A span records its name, start, end, parent and
//! item; spans nest on one thread, so a span's self time is its duration
//! minus its direct children's durations. A span with `calls > 1` is
//! merged: many short intervals (one per traffic-source callback) folded
//! into one record whose duration is their sum.
//!
//! Top-level spans are `setup` and `pass`. Per-layer numbers are given
//! per *cycle* — one set-up plus one timed pass — by dividing what was
//! recorded under each kind of top-level span by how many there were.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub item: Option<usize>,
    pub calls: u64,
}

impl Span {
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Span recorder; inert (no clock reads, no allocation) when disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    item: Option<usize>,
    /// Layer counters keyed by (top-level span name, counter name).
    counts: BTreeMap<(&'static str, &'static str), f64>,
    peaks: BTreeMap<&'static str, f64>,
}

/// Per-layer totals for one cycle (one set-up plus one timed pass).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cycle {
    /// Self time in seconds per span name.
    pub busy: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<&'static str, f64>,
    /// Wall time of the top-level spans, seconds.
    pub wall: f64,
}

impl Cycle {
    #[must_use]
    pub fn busy(&self, name: &str) -> f64 {
        self.busy.get(name).copied().unwrap_or(0.0)
    }

    #[must_use]
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            item: None,
            counts: BTreeMap::new(),
            peaks: BTreeMap::new(),
        }
    }

    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside a span");
        self.enabled = enabled;
    }

    /// Tags spans opened from now on with `item`.
    pub fn set_item(&mut self, item: Option<usize>) {
        self.item = item;
    }

    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = self.nanos(Instant::now());
        self.push(name, start, start, 1);
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.nanos(Instant::now());
        let idx = self.open.pop().expect("end without begin");
        self.spans[idx].end = end;
    }

    /// Records a merged child of the innermost open span: `calls`
    /// intervals totalling `busy`, the first starting at `first`.
    pub fn merged(&mut self, name: &'static str, first: Instant, busy: Duration, calls: u64) {
        if !self.enabled || calls == 0 {
            return;
        }
        let start = self.nanos(first);
        let busy = u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX);
        self.push(name, start, start + busy, calls);
    }

    fn push(&mut self, name: &'static str, start: u64, end: u64, calls: u64) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
            item: self.item,
            calls,
        });
    }

    /// Adds `x` to the layer counter `name`.
    pub fn count(&mut self, name: &'static str, x: f64) {
        if self.enabled {
            let root = self.open.first().map_or("", |&i| self.spans[i].name);
            *self.counts.entry((root, name)).or_default() += x;
        }
    }

    /// Raises the high-water mark `name` to at least `x`.
    pub fn peak(&mut self, name: &'static str, x: f64) {
        if self.enabled {
            let p = self.peaks.entry(name).or_default();
            *p = p.max(x);
        }
    }

    #[must_use]
    pub fn peak_of(&self, name: &str) -> f64 {
        self.peaks.get(name).copied().unwrap_or(0.0)
    }

    /// Self times and counters per cycle.
    #[must_use]
    pub fn cycle(&self) -> Cycle {
        let mut root = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            root.push(s.parent.map_or(i, |p| root[p]));
        }
        let mut roots: BTreeMap<&str, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent.is_none()) {
            *roots.entry(s.name).or_default() += 1.0;
        }
        let weight = |root_name: &str| 1.0 / roots.get(root_name).copied().unwrap_or(1.0);
        let mut cycle = Cycle::default();
        for ((s, own), &r) in self.spans.iter().zip(self_nanos(&self.spans)).zip(&root) {
            let w = weight(self.spans[r].name);
            *cycle.busy.entry(s.name).or_default() += own as f64 * 1e-9 * w;
            if s.parent.is_none() {
                cycle.wall += s.dur() as f64 * 1e-9 * w;
            }
        }
        for (&(root_name, name), &x) in &self.counts {
            *cycle.counts.entry(name).or_default() += x * weight(root_name);
        }
        cycle
    }

    /// Writes one JSON object per span; a span's `id` is its line number
    /// from zero, which `parent` refers to.
    ///
    /// # Errors
    ///
    /// Any I/O error from `out`.
    pub fn write_jsonl(&self, workload: &str, mut out: impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let item = s.item.map_or("null".to_string(), |i| i.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"parent\":{parent},\"item\":{item},\"calls\":{}}}",
                s.name, s.start, s.end, s.calls
            )?;
        }
        out.flush()
    }
}

/// Each span's self time in nanoseconds: its duration minus its direct
/// children's durations.
fn self_nanos(spans: &[Span]) -> Vec<i128> {
    let mut own: Vec<i128> = spans.iter().map(|s| i128::from(s.dur())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= i128::from(s.dur());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            item: None,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass", 0, 1_000, None),
            span("netsim.sim", 100, 900, Some(0)),
            span("core.source", 200, 300, Some(1)),
            span("core.source", 400, 450, Some(1)),
            span("core.replay.convert", 900, 950, Some(0)),
        ];
        let own = self_nanos(&spans);
        assert_eq!(own, vec![150, 650, 100, 50, 50]);
        // Self times partition the root: nothing double counted or lost.
        assert_eq!(own.iter().sum::<i128>(), 1_000);
    }

    #[test]
    fn cycle_normalises_each_kind_of_root() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("setup", 0, 400, None),
            span("hadoop.run_job", 0, 300, Some(0)),
            span("pass", 400, 1_400, None),
            span("netsim.sim", 400, 1_200, Some(2)),
            span("pass", 1_400, 2_400, None),
            span("netsim.sim", 1_400, 2_000, Some(4)),
        ];
        t.counts.insert(("pass", "netsim.sim.events"), 10.0);
        t.counts.insert(("setup", "hadoop.sim.packets"), 7.0);
        let c = t.cycle();
        // One set-up (400 ns) plus the mean pass (1000 ns).
        assert!((c.wall - 1.4e-6).abs() < 1e-15);
        assert!((c.busy("netsim.sim") - 0.7e-6).abs() < 1e-15);
        assert!((c.busy("pass") - 0.3e-6).abs() < 1e-15);
        assert!((c.busy("hadoop.run_job") - 0.3e-6).abs() < 1e-15);
        assert_eq!(c.count("netsim.sim.events"), 5.0);
        assert_eq!(c.count("hadoop.sim.packets"), 7.0);
    }

    #[test]
    fn tracer_nests_merges_and_counts_under_roots() {
        let mut t = Tracer::new(true);
        t.set_item(Some(3));
        t.begin("pass");
        t.begin("netsim.sim");
        t.merged("core.source", Instant::now(), Duration::from_micros(5), 7);
        t.count("core.source.callbacks", 7.0);
        t.peak("netsim.sim.peak_active", 4.0);
        t.peak("netsim.sim.peak_active", 2.0);
        t.end();
        t.end();
        let s = &t.spans;
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!((s[2].calls, s[2].dur(), s[2].item), (7, 5_000, Some(3)));
        assert!(s[0].end >= s[1].end);
        assert_eq!(t.counts[&("pass", "core.source.callbacks")], 7.0);
        assert_eq!(t.peak_of("netsim.sim.peak_active"), 4.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("pass");
        t.count("x", 1.0);
        t.peak("y", 1.0);
        t.end();
        assert!(t.spans.is_empty());
        assert_eq!(t.cycle(), Cycle::default());
        assert_eq!(t.peak_of("y"), 0.0);
    }
}
