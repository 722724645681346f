//! Closed-loop traffic sources: replaying Hadoop traffic with its causal
//! structure intact.
//!
//! Open-loop replay ([`crate::replay::replay`]) feeds the simulator a flat
//! flow list with pre-computed start times, so congestion stretches flow
//! completion times but can never *delay dependent traffic* — a shuffle
//! fetch starts at its captured time even if the map's input read is still
//! crawling through an oversubscribed fabric. That overstates pipelining
//! and understates how congestion compounds through a job.
//!
//! The sources here implement [`keddah_netsim::TrafficSource`], releasing
//! dependent flows only when their parents complete *in the simulation*:
//!
//! * [`TraceSource`] replays a captured [`Trace`], inferring per-flow
//!   dependency edges from Hadoop's data path: a shuffle fetch depends on
//!   the HDFS read that fed its map, and each HDFS-write pipeline hop
//!   depends on the upstream hop (or the shuffle into the writing
//!   reducer). The captured gap between parent end and child start is
//!   preserved as *lag*, so uncongested replays reproduce the capture and
//!   congested ones shift dependants later.
//! * [`ModelSource`] releases jobs drawn from a fitted [`KeddahModel`]
//!   stage by stage — reads/control up front, shuffles only when the
//!   job's reads complete, writes only when its shuffles complete —
//!   instead of at the start times [`KeddahModel::generate_job`] draws.
//!
//! Both only hold flows back: [`trace_to_flows`] converts the trace and
//! [`KeddahModel`]'s job sampler draws the model's flows.

use keddah_des::Duration;
use keddah_flowcap::{Component, FlowRecord, Trace};
use keddah_netsim::{FlowId, FlowResult, FlowSpec, Topology, TrafficSource};

use crate::generate::GenFlow;
use crate::model::KeddahModel;
use crate::replay::{check_host, gen_spec, trace_to_flows};
use crate::Result;

// ---------------------------------------------------------------------
// TraceSource
// ---------------------------------------------------------------------

/// One trace flow with its inferred dependency edge.
#[derive(Debug, Clone)]
struct TraceEntry {
    /// The open-loop spec (start shifted so the trace begins at zero).
    spec: FlowSpec,
    /// Captured gap between the parent's end and this flow's start.
    lag: Duration,
}

/// Closed-loop replay of a captured [`Trace`].
///
/// Dependency edges are inferred from the capture (see the module docs);
/// flows without a parent are injected at their captured (zero-shifted)
/// start times, and every dependent flow is released `lag` after its
/// parent finishes in the simulation. On an uncongested fabric the replay
/// therefore reproduces the captured schedule; under congestion dependent
/// flows start late, exactly as the real job would have.
#[derive(Debug, Clone)]
pub struct TraceSource {
    entries: Vec<TraceEntry>,
    /// entry index -> indices of entries that depend on it.
    children: Vec<Vec<usize>>,
    /// Entries with no parent, injected at start.
    roots: Vec<usize>,
    /// FlowId -> entry index, in injection order.
    injected: Vec<usize>,
}

impl TraceSource {
    /// Builds a closed-loop source from a capture trace, inferring
    /// dependency edges.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TopologyTooSmall`](crate::CoreError::TopologyTooSmall)
    /// if any flow endpoint exceeds the topology's host count.
    pub fn new(trace: &Trace, topo: &Topology) -> Result<Self> {
        let specs = trace_to_flows(trace, topo)?;
        let flows = trace.flows();
        // Scan in capture start order, ties in trace order, so the last
        // eligible flow scanned is the latest-started one.
        let mut order: Vec<usize> = (0..flows.len()).collect();
        order.sort_by_key(|&i| (flows[i].start, i));
        // Entries are built in `order`: trace index -> entry index.
        let mut entry_of = vec![0; flows.len()];
        for (entry, &idx) in order.iter().enumerate() {
            entry_of[idx] = entry;
        }

        let mut entries = Vec::with_capacity(flows.len());
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); flows.len()];
        let mut roots = Vec::new();
        for (entry, &idx) in order.iter().enumerate() {
            let f = &flows[idx];
            let scanned = &order[..entry];
            // Parent = the latest-started already-scanned flow upstream of
            // this one on Hadoop's data path.
            let parent = match f.component.unwrap_or(Component::Other) {
                // A shuffle fetch (reducer = tuple.src pulls from the map
                // node = tuple.dst) waits for the HDFS read that fed that
                // map (read client = map node = tuple.src of the read);
                // the map finished consuming its input before serving, so
                // the read must have ended first.
                Component::Shuffle => best_parent(flows, scanned, |p| {
                    p.component == Some(Component::HdfsRead)
                        && p.tuple.src == f.tuple.dst
                        && p.end <= f.start
                }),
                // A write-pipeline hop (upstream = tuple.src pushes to
                // tuple.dst) waits for the hop that delivered the data to
                // its upstream node — hops of one pipeline overlap in the
                // capture (data streams through), so only require the
                // parent to have started first — or, at the head of a
                // reducer's pipeline, for the shuffle into that reducer.
                Component::HdfsWrite => best_parent(flows, scanned, |p| {
                    p.component == Some(Component::HdfsWrite) && p.tuple.dst == f.tuple.src
                })
                .or_else(|| {
                    best_parent(flows, scanned, |p| {
                        p.component == Some(Component::Shuffle)
                            && p.tuple.src == f.tuple.src
                            && p.end <= f.start
                    })
                }),
                // A broadcast fetch (map node = tuple.src pulls the side
                // payload from a replica holder = tuple.dst) waits for the
                // write-pipeline hop that delivered the payload to that
                // holder.
                Component::Broadcast => best_parent(flows, scanned, |p| {
                    p.component == Some(Component::HdfsWrite)
                        && p.tuple.dst == f.tuple.dst
                        && p.end <= f.start
                }),
                // Reads, control and unclassified traffic drive the job;
                // they replay at their captured times.
                _ => None,
            };
            let lag = parent.map_or(Duration::ZERO, |p| f.start.saturating_since(flows[p].end));
            entries.push(TraceEntry {
                spec: specs[idx],
                lag,
            });
            match parent {
                Some(p) => children[entry_of[p]].push(entry),
                None => roots.push(entry),
            }
        }
        Ok(TraceSource {
            entries,
            children,
            roots,
            injected: Vec::new(),
        })
    }

    /// Number of flows that will be injected over the whole replay.
    #[must_use]
    pub fn flow_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of flows with an inferred dependency edge.
    #[must_use]
    pub fn dependent_count(&self) -> usize {
        self.entries.len() - self.roots.len()
    }

    /// The inferred dependency edges as `(parent, child)` entry indices
    /// (entries are numbered in capture start order).
    #[must_use]
    pub fn edges(&self) -> Vec<(usize, usize)> {
        self.children
            .iter()
            .enumerate()
            .flat_map(|(p, cs)| cs.iter().map(move |&c| (p, c)))
            .collect()
    }

    /// Entry index of each injected flow, in injection order — after a
    /// replay, element `k` is the entry that ran as `FlowId(k)`.
    #[must_use]
    pub fn injection_order(&self) -> &[usize] {
        &self.injected
    }
}

/// The latest-started flow among the already-scanned prefix that matches
/// `eligible`: the prefix is in start order, so that is its last match.
fn best_parent(
    flows: &[FlowRecord],
    scanned: &[usize],
    eligible: impl Fn(&FlowRecord) -> bool,
) -> Option<usize> {
    scanned.iter().rev().copied().find(|&j| eligible(&flows[j]))
}

impl TrafficSource for TraceSource {
    fn on_start(&mut self) -> Vec<FlowSpec> {
        self.injected.extend(self.roots.iter().copied());
        self.roots.iter().map(|&e| self.entries[e].spec).collect()
    }

    /// Releases the flow's dependents, each `lag` after `result.finish`.
    fn on_flow_complete(&mut self, id: FlowId, result: &FlowResult) -> Vec<FlowSpec> {
        let entry = self.injected[id.0];
        let mut released = Vec::new();
        for &c in &self.children[entry] {
            let mut spec = self.entries[c].spec;
            spec.start = result.finish + self.entries[c].lag;
            self.injected.push(c);
            released.push(spec);
        }
        released
    }

    /// Releases the dependents of a killed flow as a completion would,
    /// `lag` after the abort: the job carries on, so every captured flow
    /// is still injected once and ends delivered or lost.
    fn on_flow_aborted(&mut self, id: FlowId, result: &FlowResult, _lost: u64) -> Vec<FlowSpec> {
        self.on_flow_complete(id, result)
    }
}

// ---------------------------------------------------------------------
// ModelSource
// ---------------------------------------------------------------------

/// Whether a flow of `component` holds back its job's next stage: HDFS
/// reads gate the shuffle stage, shuffles and broadcasts the writes.
fn gates(component: Component) -> bool {
    matches!(
        component,
        Component::HdfsRead | Component::Shuffle | Component::Broadcast
    )
}

/// One job of a [`ModelSource`]: its flows, held back by stage.
#[derive(Debug, Clone)]
struct StagedJob {
    /// Submission offset, seconds.
    start: f64,
    /// Unreleased flows by stage, starts job-relative (see
    /// `KeddahModel::staged_job`); a released stage is left empty.
    stages: [Vec<GenFlow>; 3],
    /// The stage released next.
    next: usize,
    /// Released flows still gating the next stage.
    pending: usize,
}

/// Closed-loop job generation from a fitted [`KeddahModel`].
///
/// Where open-loop replay injects every generated flow at its sampled
/// start time, this source releases each *stage* only when the
/// simulation reaches it: shuffles once all the job's HDFS reads have
/// completed, HDFS writes once all its shuffles have. Start times still
/// follow the fitted arrival distributions, but are floored at the
/// stage's release time — so on a congested fabric the shuffle and write
/// waves slide later, as they would in a real job.
///
/// Deterministic in `seed`: job `i` is drawn with seed `seed + i`, all
/// up front, by the sampler behind [`KeddahModel::generate_job`].
#[derive(Debug, Clone)]
pub struct ModelSource {
    jobs: Vec<StagedJob>,
    /// FlowId -> the job whose next stage the flow gates, if it gates
    /// one, in injection order.
    injected: Vec<Option<usize>>,
}

impl ModelSource {
    /// Builds a source generating `n_jobs` jobs (consecutive seeds,
    /// starts staggered by `stagger_secs`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TopologyTooSmall`](crate::CoreError::TopologyTooSmall)
    /// if the model assumes more nodes than the topology has hosts.
    pub fn new(
        model: &KeddahModel,
        n_jobs: u32,
        seed: u64,
        stagger_secs: f64,
        topo: &Topology,
    ) -> Result<Self> {
        check_host(model.workers(), topo)?;
        let jobs = (0..n_jobs.max(1))
            .map(|i| StagedJob {
                start: stagger_secs * f64::from(i),
                stages: model.staged_job(seed + u64::from(i)),
                next: 0,
                pending: 0,
            })
            .collect();
        Ok(ModelSource {
            jobs,
            injected: Vec::new(),
        })
    }

    /// Releases job `j`'s next stage at absolute time `at` (seconds),
    /// flooring its starts there, and the stage after it at once while
    /// nothing released holds it back.
    fn release(&mut self, j: usize, at: f64, out: &mut Vec<FlowSpec>) {
        let job = &mut self.jobs[j];
        while job.pending == 0 && job.next < job.stages.len() {
            for f in std::mem::take(&mut job.stages[job.next]) {
                out.push(gen_spec(&f, (job.start + f.start).max(at)));
                let gating = gates(f.component);
                job.pending += usize::from(gating);
                self.injected.push(gating.then_some(j));
            }
            job.next += 1;
        }
    }
}

impl TrafficSource for ModelSource {
    fn on_start(&mut self) -> Vec<FlowSpec> {
        let mut specs = Vec::new();
        for j in 0..self.jobs.len() {
            self.release(j, self.jobs[j].start, &mut specs);
        }
        specs
    }

    fn on_flow_complete(&mut self, id: FlowId, result: &FlowResult) -> Vec<FlowSpec> {
        let mut out = Vec::new();
        if let Some(j) = self.injected[id.0] {
            self.jobs[j].pending -= 1;
            self.release(j, result.finish.as_secs_f64(), &mut out);
        }
        out
    }

    /// An aborted read or shuffle counts toward its stage barrier as a
    /// completion does, so the job's later stages are still released —
    /// at the abort time if it was the last one outstanding.
    fn on_flow_aborted(&mut self, id: FlowId, result: &FlowResult, _lost: u64) -> Vec<FlowSpec> {
        self.on_flow_complete(id, result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;
    use keddah_des::SimTime;
    use keddah_flowcap::{FiveTuple, FlowRecord, NodeId, TraceMeta};

    fn flow(
        src: u32,
        dst: u32,
        dst_port: u16,
        start_ms: u64,
        end_ms: u64,
        bytes: u64,
        component: Component,
    ) -> FlowRecord {
        FlowRecord {
            tuple: FiveTuple {
                src: NodeId(src),
                src_port: 40_000,
                dst: NodeId(dst),
                dst_port,
            },
            start: SimTime::from_millis(start_ms),
            end: SimTime::from_millis(end_ms),
            fwd_bytes: bytes,
            rev_bytes: 0,
            packets: 2,
            component: Some(component),
        }
    }

    /// read(map node 1 <- dn 2), then shuffle(reducer 3 <- map 1), then a
    /// write-pipeline hop chain 3 -> 4 -> 5.
    fn chain_trace() -> Trace {
        Trace::new(
            TraceMeta::default(),
            vec![
                flow(1, 2, 50_010, 0, 1_000, 1 << 20, Component::HdfsRead),
                flow(3, 1, 13_562, 1_200, 2_000, 1 << 20, Component::Shuffle),
                flow(3, 4, 50_010, 2_500, 3_000, 1 << 20, Component::HdfsWrite),
                flow(4, 5, 50_010, 2_600, 3_100, 1 << 20, Component::HdfsWrite),
            ],
        )
    }

    #[test]
    fn trace_dependencies_are_inferred() {
        let topo = Topology::star(6, 1e9);
        let source = TraceSource::new(&chain_trace(), &topo).unwrap();
        assert_eq!(source.flow_count(), 4);
        // read is the only root; shuffle hangs off it, hop1 off the
        // shuffle, hop2 off hop1.
        assert_eq!(source.dependent_count(), 3);
        assert_eq!(source.roots, vec![0]);
        assert_eq!(source.children[0], vec![1]);
        assert_eq!(source.children[1], vec![2]);
        assert_eq!(source.children[2], vec![3]);
        // Captured lags survive: shuffle started 200 ms after the read
        // ended.
        assert_eq!(source.entries[1].lag, Duration::from_millis(200));
    }

    #[test]
    fn trace_source_releases_children_on_completion() {
        let topo = Topology::star(6, 1e9);
        let mut source = TraceSource::new(&chain_trace(), &topo).unwrap();
        let first = source.on_start();
        assert_eq!(first.len(), 1, "only the root read starts");
        // Pretend the read completed late (congestion): the shuffle must
        // start 200 ms after the *simulated* finish, not at 1.2 s.
        let result = FlowResult {
            spec: first[0],
            finish: SimTime::from_secs(10),
        };
        let released = source.on_flow_complete(FlowId(0), &result);
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].start, SimTime::from_millis(10_200));
    }

    #[test]
    fn trace_source_rejects_small_topology() {
        let topo = Topology::star(3, 1e9);
        assert!(matches!(
            TraceSource::new(&chain_trace(), &topo),
            Err(CoreError::TopologyTooSmall { .. })
        ));
    }

    #[test]
    fn shuffle_without_prior_read_is_a_root() {
        // A shuffle whose map node never did a network read (data-local
        // map) has no parent and must replay at its captured time.
        let trace = Trace::new(
            TraceMeta::default(),
            vec![flow(3, 1, 13_562, 500, 900, 1 << 20, Component::Shuffle)],
        );
        let topo = Topology::star(4, 1e9);
        let mut source = TraceSource::new(&trace, &topo).unwrap();
        let first = source.on_start();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].start, SimTime::ZERO, "t0-shifted root");
    }
}
