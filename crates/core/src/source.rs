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
//! * [`ModelSource`] generates jobs from a fitted [`KeddahModel`] stage by
//!   stage — reads/control up front, shuffles sampled only when the job's
//!   reads complete, writes only when its shuffles complete — instead of
//!   sampling every start time up front as [`KeddahModel::generate_job`]
//!   does.

use keddah_des::{Duration, SimTime};
use keddah_flowcap::{Component, Trace};
use keddah_netsim::{FlowId, FlowResult, FlowSpec, HostId, Topology, TrafficSource};
use keddah_stat::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::generate::{endpoints, sample_scalar};
use crate::model::KeddahModel;
use crate::replay::tag_of;
use crate::{CoreError, Result};

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
    /// Returns [`CoreError::TopologyTooSmall`] if any flow endpoint
    /// exceeds the topology's host count.
    pub fn new(trace: &Trace, topo: &Topology) -> Result<Self> {
        let flows = trace.flows();
        let t0 = flows.iter().map(|f| f.start).min().unwrap_or(SimTime::ZERO);
        // Scan in capture start order so "latest eligible parent" is
        // well-defined; ties keep trace order.
        let mut order: Vec<usize> = (0..flows.len()).collect();
        order.sort_by_key(|&i| (flows[i].start, i));

        let mut entries = Vec::with_capacity(flows.len());
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); flows.len()];
        let mut roots = Vec::new();
        for (pos, &idx) in order.iter().enumerate() {
            let f = &flows[idx];
            let node = f.tuple.src.0.max(f.tuple.dst.0);
            if node >= topo.host_count() {
                return Err(CoreError::TopologyTooSmall {
                    needed: node + 1,
                    available: topo.host_count(),
                });
            }
            let component = f.component.unwrap_or(Component::Other);
            // Parent = the latest-ending already-finished flow upstream of
            // this one on Hadoop's data path.
            let parent = match component {
                // A shuffle fetch (reducer = tuple.src pulls from the map
                // node = tuple.dst) waits for the HDFS read that fed that
                // map (read client = map node = tuple.src of the read);
                // the map finished consuming its input before serving, so
                // the read must have ended first.
                Component::Shuffle => best_parent(flows, &order[..pos], |p| {
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
                Component::HdfsWrite => best_parent(flows, &order[..pos], |p| {
                    p.component == Some(Component::HdfsWrite) && p.tuple.dst == f.tuple.src
                })
                .or_else(|| {
                    best_parent(flows, &order[..pos], |p| {
                        p.component == Some(Component::Shuffle)
                            && p.tuple.src == f.tuple.src
                            && p.end <= f.start
                    })
                }),
                // A broadcast fetch (map node = tuple.src pulls the side
                // payload from a replica holder = tuple.dst) waits for the
                // write-pipeline hop that delivered the payload to that
                // holder.
                Component::Broadcast => best_parent(flows, &order[..pos], |p| {
                    p.component == Some(Component::HdfsWrite)
                        && p.tuple.dst == f.tuple.dst
                        && p.end <= f.start
                }),
                // Reads, control and unclassified traffic drive the job;
                // they replay at their captured times.
                _ => None,
            };
            let lag = match parent {
                Some(p) => f.start.saturating_since(flows[p].end),
                None => Duration::ZERO,
            };
            let entry = entries.len();
            entries.push(TraceEntry {
                spec: FlowSpec {
                    src: HostId(f.tuple.src.0),
                    dst: HostId(f.tuple.dst.0),
                    bytes: f.total_bytes(),
                    start: SimTime::from_nanos(f.start.as_nanos() - t0.as_nanos()),
                    tag: tag_of(component),
                },
                lag,
            });
            match parent {
                // `order` positions map 1:1 onto entry indices (entries are
                // built in `order`), so translate the trace index back.
                Some(p_idx) => {
                    let p_entry = order[..pos]
                        .iter()
                        .position(|&o| o == p_idx)
                        .expect("parent scanned earlier");
                    children[p_entry].push(entry);
                }
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
/// `eligible`.
fn best_parent(
    flows: &[keddah_flowcap::FlowRecord],
    scanned: &[usize],
    eligible: impl Fn(&keddah_flowcap::FlowRecord) -> bool,
) -> Option<usize> {
    scanned
        .iter()
        .copied()
        .filter(|&j| eligible(&flows[j]))
        .max_by_key(|&j| (flows[j].start, j))
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

/// Hadoop's stage structure, used to hold back dependent components.
fn stage_of(component: Component) -> u8 {
    match component {
        Component::Shuffle | Component::Broadcast => 2,
        Component::HdfsWrite => 3,
        _ => 1, // HdfsRead, Control, Other drive the job
    }
}

/// Per-job generation state for [`ModelSource`].
#[derive(Debug, Clone)]
struct JobState {
    rng: StdRng,
    /// Job submission offset, seconds.
    start: f64,
    /// Sampled makespan (bounds the arrival-time clamp window).
    makespan: f64,
    /// Reducer container placements (with replacement, like YARN).
    reducer_nodes: Vec<u32>,
    /// Outstanding stage-1 HDFS reads gating the shuffle stage.
    pending_reads: usize,
    /// Outstanding shuffles gating the write stage.
    pending_shuffles: usize,
    shuffle_released: bool,
    write_released: bool,
}

/// Closed-loop job generation from a fitted [`KeddahModel`].
///
/// Where [`KeddahModel::generate_job`] samples every flow's start time up
/// front (open loop), this source samples each *stage* only when the
/// simulation reaches it: shuffles are drawn once all the job's HDFS
/// reads have completed, HDFS writes once all its shuffles have. Sampled
/// start times still follow the fitted arrival distributions, but are
/// floored at the stage's release time — so on a congested fabric the
/// shuffle and write waves slide later, as they would in a real job.
///
/// Deterministic in `seed`: each job owns an independent RNG and its
/// stages are sampled in a fixed order.
#[derive(Debug, Clone)]
pub struct ModelSource {
    model: KeddahModel,
    jobs: Vec<JobState>,
    /// FlowId -> (job index, component), in injection order.
    injected: Vec<(usize, Component)>,
}

impl ModelSource {
    /// Builds a source generating `n_jobs` jobs (consecutive seeds,
    /// starts staggered by `stagger_secs`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TopologyTooSmall`] if the model assumes more
    /// nodes than the topology has hosts.
    pub fn new(
        model: &KeddahModel,
        n_jobs: u32,
        seed: u64,
        stagger_secs: f64,
        topo: &Topology,
    ) -> Result<Self> {
        let workers = model.nodes.max(2);
        if workers >= topo.host_count() {
            return Err(CoreError::TopologyTooSmall {
                needed: workers + 1,
                available: topo.host_count(),
            });
        }
        let jobs = (0..n_jobs.max(1))
            .map(|i| {
                // Mirror generate_job's per-job seeding and draw order so
                // the sampled populations stay comparable.
                let mut rng = StdRng::seed_from_u64(seed + u64::from(i));
                let makespan = sample_scalar(&model.makespan, &mut rng).max(1.0);
                let reducer_nodes = (0..model.reducers.max(1))
                    .map(|_| rng.random_range(1..=workers))
                    .collect();
                JobState {
                    rng,
                    start: stagger_secs * f64::from(i),
                    makespan,
                    reducer_nodes,
                    pending_reads: 0,
                    pending_shuffles: 0,
                    shuffle_released: false,
                    write_released: false,
                }
            })
            .collect();
        Ok(ModelSource {
            model: model.clone(),
            jobs,
            injected: Vec::new(),
        })
    }

    /// Samples one component's flows for job `j`, with start times floored
    /// at `release` (absolute seconds), and records their injection order.
    fn sample_component(
        &mut self,
        j: usize,
        component: Component,
        release: f64,
        out: &mut Vec<FlowSpec>,
    ) -> usize {
        let Some(cm) = self.model.component(component).cloned() else {
            return 0;
        };
        let workers = self.model.nodes.max(2);
        let job = &mut self.jobs[j];
        let count = sample_scalar(&cm.count, &mut job.rng).round().max(0.0) as u64;
        for _ in 0..count {
            let bytes = cm.size_dist.sample(&mut job.rng).max(1.0) as u64;
            let start = cm
                .start_dist
                .sample(&mut job.rng)
                .clamp(0.0, job.makespan * 1.25);
            let (src, dst) = endpoints(cm.pattern, workers, &job.reducer_nodes, &mut job.rng);
            out.push(FlowSpec {
                src: HostId(src),
                dst: HostId(dst),
                bytes,
                start: SimTime::from_secs_f64((job.start + start).max(release)),
                tag: tag_of(component),
            });
            self.injected.push((j, component));
        }
        count as usize
    }

    /// Releases job `j`'s shuffle stage — shuffles plus broadcast
    /// distribution, which ride the same map-output barrier — at absolute
    /// time `release` (seconds), cascading straight to the write stage if
    /// the model has neither.
    fn release_shuffles(&mut self, j: usize, release: f64, out: &mut Vec<FlowSpec>) {
        if self.jobs[j].shuffle_released {
            return;
        }
        self.jobs[j].shuffle_released = true;
        let n = self.sample_component(j, Component::Shuffle, release, out)
            + self.sample_component(j, Component::Broadcast, release, out);
        self.jobs[j].pending_shuffles = n;
        if n == 0 {
            self.release_writes(j, release, out);
        }
    }

    /// Releases job `j`'s HDFS-write stage at absolute time `release`.
    fn release_writes(&mut self, j: usize, release: f64, out: &mut Vec<FlowSpec>) {
        if self.jobs[j].write_released {
            return;
        }
        self.jobs[j].write_released = true;
        self.sample_component(j, Component::HdfsWrite, release, out);
    }
}

impl TrafficSource for ModelSource {
    fn on_start(&mut self) -> Vec<FlowSpec> {
        let mut specs = Vec::new();
        for j in 0..self.jobs.len() {
            let job_start = self.jobs[j].start;
            // Stage 1 in canonical component order.
            for &component in Component::ALL {
                if stage_of(component) != 1 {
                    continue;
                }
                let n = self.sample_component(j, component, job_start, &mut specs);
                if component == Component::HdfsRead {
                    self.jobs[j].pending_reads = n;
                }
            }
            // No reads to wait for: the shuffle wave is unconstrained.
            if self.jobs[j].pending_reads == 0 {
                self.release_shuffles(j, job_start, &mut specs);
            }
        }
        specs
    }

    fn on_flow_complete(&mut self, id: FlowId, result: &FlowResult) -> Vec<FlowSpec> {
        let (j, component) = self.injected[id.0];
        let mut out = Vec::new();
        match component {
            Component::HdfsRead => {
                self.jobs[j].pending_reads -= 1;
                if self.jobs[j].pending_reads == 0 {
                    self.release_shuffles(j, result.finish.as_secs_f64(), &mut out);
                }
            }
            Component::Shuffle | Component::Broadcast => {
                self.jobs[j].pending_shuffles -= 1;
                if self.jobs[j].pending_shuffles == 0 {
                    self.release_writes(j, result.finish.as_secs_f64(), &mut out);
                }
            }
            _ => {}
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
