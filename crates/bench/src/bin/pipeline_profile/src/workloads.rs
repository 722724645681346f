//! The four workloads. Each is a closed loop with one client: items run
//! back to back on this thread, so a pass measures capacity.
//!
//! A workload builds its inputs in [`Bench::setup`] and then exposes a
//! fixed, seed-derived list of items. Every call into a layer is wrapped
//! in a span so the traced run can attribute time per layer; the
//! untraced run makes the same calls with the tracer inert. Where the
//! traced run needs a probe (an `Obs` snapshot, a timed traffic source,
//! a separate refit) it calls the observed or split form of the same
//! public entry point.

use std::time::{Duration, Instant};

use keddah_core::dataset::Dataset;
use keddah_core::fitting::fit_model;
use keddah_core::replay::{
    replay, replay_model_closed, replay_observed, replay_source_observed, trace_to_flows,
    ReplayReport,
};
use keddah_core::stream::{StreamEngine, StreamOptions};
use keddah_core::validate::validate_model;
use keddah_core::{KeddahModel, ModelSource};
use keddah_flowcap::classify::classify_all;
use keddah_flowcap::{FlowAssembler, PacketRecord, Trace, TraceMeta};
use keddah_hadoop::{run_job_with_packets, ClusterSpec, HadoopConfig, JobSpec, Workload};
use keddah_netsim::{FlowId, FlowResult, FlowSpec, SimOptions, Topology, TrafficSource};
use keddah_obs::Obs;

use crate::spans::Tracer;
use crate::stats::{item_seed, shuffled, Fnv};

/// Largest per-component KS distance `validate_model` may report before
/// a `model_campaign` item counts as failed.
pub const MAX_VALIDATION_KS: f64 = 0.25;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ModelCampaign,
    ReplayOpen,
    ReplayClosed,
    ServeIngest,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ModelCampaign,
        Kind::ReplayOpen,
        Kind::ReplayClosed,
        Kind::ServeIngest,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::ModelCampaign => "model_campaign",
            Kind::ReplayOpen => "replay_open",
            Kind::ReplayClosed => "replay_closed",
            Kind::ServeIngest => "serve_ingest",
        }
    }

    #[must_use]
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Builds the workload at `scale`, its inputs derived from `seed`.
    #[must_use]
    pub fn build(self, seed: u64, scale: Scale) -> Box<dyn Bench> {
        let ctx = Ctx {
            seed,
            kind: self as u64,
            scale,
        };
        match self {
            Kind::ModelCampaign => Box::new(ModelCampaign::new(ctx)),
            Kind::ReplayOpen => Box::new(ReplayOpen::new(ctx)),
            Kind::ReplayClosed => Box::new(ReplayClosed::new(ctx)),
            Kind::ServeIngest => Box::new(ServeIngest::new(ctx)),
        }
    }
}

/// Input sizes. [`Scale::FULL`] is the benchmark; tests shrink it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Captures, replays or rotations per `Workload::PAPER` row.
    pub per_row: usize,
    /// Replaces every capture's input size when set.
    pub input_bytes: Option<u64>,
}

impl Scale {
    pub const FULL: Scale = Scale {
        per_row: 15,
        input_bytes: None,
    };

    fn bytes(self, gib: u64) -> u64 {
        self.input_bytes.unwrap_or(gib << 30)
    }
}

/// What one item did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Out {
    /// Flows captured, replayed or ingested.
    pub flows: u64,
    /// Digest of the item's outputs (models, FCTs, refit JSON).
    pub digest: u64,
}

/// A workload: set-up, then a fixed list of items.
pub trait Bench {
    /// Builds the inputs the items need, then runs an item once so lazy
    /// allocation settles before timing. Repeatable: each call rebuilds.
    ///
    /// # Errors
    ///
    /// A failed capture, fit or check while building inputs.
    fn setup(&mut self, t: &mut Tracer) -> Result<(), String>;

    /// Items per pass.
    fn items(&self) -> usize;

    /// Runs item `i`; items run in order, `0..items()`, every pass.
    ///
    /// # Errors
    ///
    /// Any `Err` from a layer, or a failed output check.
    fn run_item(&mut self, i: usize, t: &mut Tracer) -> Result<Out, String>;
}

#[derive(Debug, Clone, Copy)]
struct Ctx {
    seed: u64,
    kind: u64,
    scale: Scale,
}

impl Ctx {
    fn seed(&self, item: usize) -> u64 {
        item_seed(self.seed, self.kind, item as u64)
    }

    /// Seeds for the orders items run in, disjoint from item seeds.
    fn order_seed(&self, n: usize) -> u64 {
        item_seed(self.seed, self.kind, (1 << 32) + n as u64)
    }

    /// Seeds for set-up inputs that are fixtures: the same for every run
    /// seed.
    fn fixture_seed(&self, n: usize) -> u64 {
        item_seed(0, self.kind, (1 << 32) + n as u64)
    }

    /// Seeds for items that are fixtures, disjoint from set-up fixture
    /// seeds.
    fn fixture_item_seed(&self, item: usize) -> u64 {
        item_seed(0, self.kind, item as u64)
    }
}

fn cluster() -> ClusterSpec {
    ClusterSpec::racks(4, 5)
}

/// The replay fabric: 24 hosts (the capture cluster has 21) on a 4×
/// oversubscribed leaf-spine, so replays contend in the core.
fn fabric() -> Topology {
    Topology::leaf_spine(6, 4, 3, 1e9, 4.0)
}

/// Replay options: a 10 kB mice threshold, and fair-share solves on the
/// calling thread. With the default auto-sized solver, dense solves fork
/// onto the other core of a 2-core machine and join back, so a replay
/// waited on whatever else ran on that core: one busy process there
/// slowed `replay_open` by 15%, and runs at the same measured machine
/// speed differed by as much. On the calling thread the replays did not
/// slow, and were 7% faster. Rates, and so replay outputs, are identical
/// at any solver width.
fn sim_options() -> SimOptions {
    SimOptions {
        mouse_threshold: 10_000,
        solver_jobs: 1,
        ..SimOptions::default()
    }
}

/// Captures one job and checks it: the returned packets, re-assembled
/// and classified here, must give back the trace's flows exactly.
///
/// `hadoop.run_job` wraps `run_job_with_packets`, which assembles and classifies
/// internally; the re-assembly spans measure that same work, which is
/// how the traced run splits that call's time into layers.
fn capture(
    t: &mut Tracer,
    workload: Workload,
    input_bytes: u64,
    seed: u64,
) -> Result<(Trace, Vec<PacketRecord>), String> {
    let job = JobSpec::new(workload, input_bytes);
    t.begin("hadoop.run_job");
    let (run, packets) = run_job_with_packets(&cluster(), &HadoopConfig::default(), &job, seed);
    t.end();
    t.begin("flowcap.reassemble");
    let mut asm = FlowAssembler::new();
    asm.extend(packets.iter().copied());
    let mut flows = asm.finish();
    t.end();
    t.begin("flowcap.classify");
    classify_all(&mut flows);
    t.end();
    t.count("hadoop.sim.packets", packets.len() as f64);
    t.count("flowcap.classify.flows", flows.len() as f64);
    if flows != run.trace.flows() {
        return Err(format!(
            "{} seed {seed}: re-assembled {} flows, trace has {}",
            workload.name(),
            flows.len(),
            run.trace.len()
        ));
    }
    Ok((run.trace, packets))
}

/// Replay checks: every injected flow finished, nothing was aborted,
/// and every injected byte was delivered.
fn check_replay(report: &ReplayReport, injected: usize) -> Result<(), String> {
    let sim = &report.sim;
    let bytes: u64 = sim.results.iter().map(|r| r.spec.bytes).sum();
    if sim.results.len() != injected {
        return Err(format!(
            "{} results for {injected} flows",
            sim.results.len()
        ));
    }
    if sim.faults.diverged || !sim.faults.aborted.is_empty() {
        return Err(format!("{} flows aborted", sim.faults.aborted.len()));
    }
    if sim.faults.delivered_bytes != bytes {
        return Err(format!(
            "delivered {} of {bytes} bytes",
            sim.faults.delivered_bytes
        ));
    }
    if sim.results.iter().any(|r| r.finish < r.spec.start) {
        return Err("a flow finished before it started".into());
    }
    Ok(())
}

fn fct_digest(report: &ReplayReport) -> u64 {
    let mut h = Fnv::default();
    h.f64s(&report.all_fcts());
    h.0
}

/// Counts the netsim layer's work for the traced run: the report's own
/// counts plus the fair-share and bundle gauges `obs` recorded.
fn count_netsim(t: &mut Tracer, report: &ReplayReport, obs: &Obs) {
    let snap = obs.metrics();
    t.count("netsim.sim.events", report.sim.events as f64);
    t.peak("netsim.sim.peak_active", report.sim.peak_active as f64);
    t.count("netsim.sim.active_sum", report.sim.peak_active as f64);
    t.count(
        "netsim.sim.bundles_sum",
        snap.gauge("netsim", "peak_bundles") as f64,
    );
    t.count(
        "netsim.sim.mice",
        snap.counter("netsim", "mice_fastpath") as f64,
    );
    t.count(
        "netsim.sim.flows",
        snap.counter("netsim", "flows_started") as f64,
    );
    t.count(
        "netsim.fair.solves",
        snap.gauge("netsim", "fair_solves") as f64,
    );
    t.count(
        "netsim.fair.dense",
        snap.gauge("netsim", "fair_dense_solves") as f64,
    );
    t.count(
        "netsim.fair.solved_flows",
        snap.gauge("netsim", "fair_solved_flows") as f64,
    );
}

/// The traced run's recording handle: metrics on, and a one-event trace
/// ring so recording does not grow with the replay.
fn probe_obs() -> Obs {
    Obs::with_trace_capacity(1)
}

/// Counts a fitted model's distributions, and how many fell back to the
/// empirical quantile table, for the traced run.
fn count_fallbacks(t: &mut Tracer, model: &KeddahModel) {
    for cm in model.components.values() {
        let empirical = [&cm.size_dist, &cm.start_dist]
            .iter()
            .filter(|d| d.name() == "empirical")
            .count();
        t.count("core.fitting.dists", 2.0);
        t.count("core.fitting.fallbacks", empirical as f64);
    }
}

fn fit(t: &mut Tracer, traces: &[Trace]) -> Result<KeddahModel, String> {
    t.begin("core.dataset");
    let dataset = Dataset::from_traces(traces);
    t.end();
    t.count(
        "core.dataset.flows",
        traces.iter().map(Trace::len).sum::<usize>() as f64,
    );
    t.begin("core.fitting");
    let model = fit_model(&dataset);
    t.end();
    let model = model.map_err(|e| format!("{}: fit failed: {e}", dataset.workload))?;
    let samples: usize = (dataset.components.values())
        .map(|c| c.sizes.len() + c.starts.len())
        .sum();
    t.count("core.fitting.samples", samples as f64);
    count_fallbacks(t, &model);
    Ok(model)
}

// ---------------------------------------------------------------------
// model_campaign

/// The paper's own use (Tables 2 and 3): per `Workload::PAPER` row,
/// capture a campaign, then pool, fit, generate and validate.
struct ModelCampaign {
    ctx: Ctx,
    /// Captures of the current row, consumed by the row's model item.
    row: Vec<Trace>,
}

impl ModelCampaign {
    const GIB: u64 = 24;
    const GENERATED_JOBS: u32 = 8;

    fn new(ctx: Ctx) -> Self {
        ModelCampaign {
            ctx,
            row: Vec::new(),
        }
    }

    /// Items per row: its captures, then one model item.
    fn stride(&self) -> usize {
        self.ctx.scale.per_row + 1
    }
}

impl Bench for ModelCampaign {
    /// Nothing to build: the warm-up is the first row, so that both kinds
    /// of item (capture and model) have run once.
    fn setup(&mut self, t: &mut Tracer) -> Result<(), String> {
        self.row.clear();
        for i in 0..self.stride() {
            self.run_item(i, t)?;
        }
        Ok(())
    }

    fn items(&self) -> usize {
        Workload::PAPER.len() * self.stride()
    }

    fn run_item(&mut self, i: usize, t: &mut Tracer) -> Result<Out, String> {
        let workload = Workload::PAPER[i / self.stride()];
        let seed = self.ctx.seed(i);
        if i % self.stride() < self.ctx.scale.per_row {
            let (trace, _) = capture(t, workload, self.ctx.scale.bytes(Self::GIB), seed)?;
            let flows = trace.len() as u64;
            self.row.push(trace);
            return Ok(Out { flows, digest: 0 });
        }
        let traces = std::mem::take(&mut self.row);
        if traces.len() != self.ctx.scale.per_row {
            return Err(format!(
                "{}: {} of {} captures succeeded",
                workload.name(),
                traces.len(),
                self.ctx.scale.per_row
            ));
        }
        let model = fit(t, &traces)?;
        t.begin("core.generate");
        let jobs = model.generate_jobs(Self::GENERATED_JOBS, seed, 0.0);
        t.end();
        t.count(
            "core.generate.flows",
            jobs.iter().map(|j| j.flows.len()).sum::<usize>() as f64,
        );
        t.begin("core.validate");
        let report = validate_model(&model, &traces, Self::GENERATED_JOBS, seed);
        t.end();
        let report = report.map_err(|e| format!("{}: validate: {e}", workload.name()))?;
        if report.worst_ks() > MAX_VALIDATION_KS {
            return Err(format!(
                "{}: validation KS {:.3} above {MAX_VALIDATION_KS}",
                workload.name(),
                report.worst_ks()
            ));
        }
        let mut h = Fnv::default();
        h.bytes(model.to_json().as_bytes());
        for job in &jobs {
            for f in &job.flows {
                h.u64(f.bytes);
                h.u64(f.start.to_bits());
            }
        }
        h.u64(report.worst_ks().to_bits());
        Ok(Out {
            flows: 0,
            digest: h.0,
        })
    }
}

// ---------------------------------------------------------------------
// replay_open

/// Open-loop replay of captured traces: a static source, one job per
/// replay. Captures are set-up, outside the timed phase.
///
/// The traces are fixtures, captured the same whatever the run seed; the
/// seed picks the order they are replayed in. Traces captured from the
/// run seed made the item percentiles move by up to 9% from seed to
/// seed: the seven rows' replay costs form clusters, and the median and
/// 90th percentile fall near cluster edges.
struct ReplayOpen {
    ctx: Ctx,
    topo: Topology,
    traces: Vec<Trace>,
    /// Item `i` replays `traces[order[i]]`.
    order: Vec<usize>,
}

impl ReplayOpen {
    const GIB: u64 = 8;

    fn new(ctx: Ctx) -> Self {
        let items = Workload::PAPER.len() * ctx.scale.per_row;
        ReplayOpen {
            ctx,
            topo: fabric(),
            traces: Vec::new(),
            order: shuffled(items, ctx.order_seed(0)),
        }
    }

    /// Replays `traces[n]`.
    fn replay(&self, n: usize, t: &mut Tracer) -> Result<Out, String> {
        let trace = &self.traces[n];
        t.begin("core.replay.convert");
        let flows = trace_to_flows(trace, &self.topo);
        t.end();
        let flows = flows.map_err(|e| format!("{}: {e}", trace.meta().workload))?;
        let report = if t.enabled() {
            let obs = probe_obs();
            t.begin("netsim.sim");
            let report = replay_observed(&self.topo, &flows, sim_options(), &obs);
            t.end();
            count_netsim(t, &report, &obs);
            report
        } else {
            replay(&self.topo, &flows, sim_options())
        };
        check_replay(&report, flows.len())
            .map_err(|e| format!("{} replay {n}: {e}", trace.meta().workload))?;
        Ok(Out {
            flows: flows.len() as u64,
            digest: fct_digest(&report),
        })
    }
}

impl Bench for ReplayOpen {
    fn setup(&mut self, t: &mut Tracer) -> Result<(), String> {
        self.traces.clear();
        for (row, &workload) in Workload::PAPER.iter().enumerate() {
            for k in 0..self.ctx.scale.per_row {
                let n = row * self.ctx.scale.per_row + k;
                let bytes = self.ctx.scale.bytes(Self::GIB);
                let (trace, _) = capture(t, workload, bytes, self.ctx.fixture_seed(n))?;
                self.traces.push(trace);
            }
        }
        // The warm-up is replay 0, not the first item. The seed picks the
        // first item, and replays differ in cost so much that warming up
        // on it moved `replay_closed`'s set-up between 0.4 s and 0.75 s
        // from seed to seed.
        self.replay(0, t).map(|_| ())
    }

    fn items(&self) -> usize {
        Workload::PAPER.len() * self.ctx.scale.per_row
    }

    fn run_item(&mut self, i: usize, t: &mut Tracer) -> Result<Out, String> {
        self.replay(self.order[i], t)
    }
}

// ---------------------------------------------------------------------
// replay_closed

/// Closed-loop replay of fitted models: a reactive `ModelSource` with
/// four staggered jobs per replay, so sources call back on every
/// completion and fair-share components are large.
///
/// The seven models and the replay seeds are fixtures, the same whatever
/// the run seed; the seed picks the order the replays run in. A model
/// refitted from other captures can pick another distribution family for
/// a component, which changed the cost of that row's replays by up to
/// 1.5×. Replay seeds drawn from the run seed spread `item_p90_ms` over
/// runs with different seeds about four times as widely as over runs of
/// one seed: the 90th percentile falls among the 15 replays of the
/// costliest row, and the jobs those replays generate set it.
struct ReplayClosed {
    ctx: Ctx,
    topo: Topology,
    models: Vec<KeddahModel>,
    /// Item `i` is replay `order[i]`: of model `order[i] / per_row`,
    /// with fixture seed `order[i]`.
    order: Vec<usize>,
}

impl ReplayClosed {
    const GIB: u64 = 3;
    const FIT_CAPTURES: usize = 15;
    const JOBS: u32 = 4;
    const STAGGER_SECS: f64 = 10.0;

    fn new(ctx: Ctx) -> Self {
        let items = Workload::PAPER.len() * ctx.scale.per_row;
        ReplayClosed {
            ctx,
            topo: fabric(),
            models: Vec::new(),
            order: shuffled(items, ctx.order_seed(0)),
        }
    }

    /// Replay `n`: of model `n / per_row`, with fixture seed `n`.
    fn replay(&self, n: usize, t: &mut Tracer) -> Result<Out, String> {
        let model = &self.models[n / self.ctx.scale.per_row];
        let seed = self.ctx.fixture_item_seed(n);
        let report = if t.enabled() {
            t.begin("core.source");
            let source = ModelSource::new(model, Self::JOBS, seed, Self::STAGGER_SECS, &self.topo);
            t.end();
            let mut source = TimedSource::new(source.map_err(|e| e.to_string())?);
            let obs = probe_obs();
            t.begin("netsim.sim");
            let report = replay_source_observed(&self.topo, &mut source, sim_options(), &obs);
            if let Some(first) = source.first {
                t.merged("core.source", first, source.busy, source.calls);
            }
            t.end();
            t.count("core.source.callbacks", source.calls as f64);
            t.count("core.source.flows", source.flows as f64);
            count_netsim(t, &report, &obs);
            report
        } else {
            replay_model_closed(
                model,
                &self.topo,
                Self::JOBS,
                seed,
                Self::STAGGER_SECS,
                sim_options(),
            )
            .map_err(|e| e.to_string())?
        };
        let flows = report.sim.results.len();
        check_replay(&report, flows)
            .map_err(|e| format!("{} replay {n}: {e}", model.workload))?;
        Ok(Out {
            flows: flows as u64,
            digest: fct_digest(&report),
        })
    }
}

impl Bench for ReplayClosed {
    fn setup(&mut self, t: &mut Tracer) -> Result<(), String> {
        self.models.clear();
        for (row, &workload) in Workload::PAPER.iter().enumerate() {
            let mut traces = Vec::new();
            for k in 0..Self::FIT_CAPTURES {
                let seed = self.ctx.fixture_seed(row * Self::FIT_CAPTURES + k);
                let bytes = self.ctx.scale.bytes(Self::GIB);
                traces.push(capture(t, workload, bytes, seed)?.0);
            }
            self.models.push(fit(t, &traces)?);
        }
        // Replay 0, not the first item, as in `replay_open`.
        self.replay(0, t).map(|_| ())
    }

    fn items(&self) -> usize {
        Workload::PAPER.len() * self.ctx.scale.per_row
    }

    fn run_item(&mut self, i: usize, t: &mut Tracer) -> Result<Out, String> {
        self.replay(self.order[i], t)
    }
}

/// Times a source's callbacks from the outside (the traced run's
/// `core.source` layer).
struct TimedSource<S> {
    inner: S,
    first: Option<Instant>,
    busy: Duration,
    calls: u64,
    flows: u64,
}

impl<S: TrafficSource> TimedSource<S> {
    fn new(inner: S) -> Self {
        TimedSource {
            inner,
            first: None,
            busy: Duration::ZERO,
            calls: 0,
            flows: 0,
        }
    }

    fn timed(&mut self, call: impl FnOnce(&mut S) -> Vec<FlowSpec>) -> Vec<FlowSpec> {
        let start = Instant::now();
        let out = call(&mut self.inner);
        self.busy += start.elapsed();
        self.first.get_or_insert(start);
        self.calls += 1;
        self.flows += out.len() as u64;
        out
    }
}

impl<S: TrafficSource> TrafficSource for TimedSource<S> {
    fn on_start(&mut self) -> Vec<FlowSpec> {
        self.timed(S::on_start)
    }

    fn on_flow_complete(&mut self, id: FlowId, result: &FlowResult) -> Vec<FlowSpec> {
        self.timed(|s| s.on_flow_complete(id, result))
    }

    fn on_flow_aborted(&mut self, id: FlowId, result: &FlowResult, lost: u64) -> Vec<FlowSpec> {
        self.timed(|s| s.on_flow_aborted(id, result, lost))
    }
}

// ---------------------------------------------------------------------
// serve_ingest

/// One captured rotation: its packets and what the batch path made of
/// them.
struct Rotation {
    packets: Vec<PacketRecord>,
    meta: TraceMeta,
    /// Flows the batch assembler built from `packets`.
    flows: u64,
}

/// The `keddah serve` hot path in-process: per row, a fresh engine
/// (default GK sketches) is fed every rotation `FEEDS` times, packet by
/// packet, refitting at each rotation boundary.
///
/// The rotations are fixtures, as in `replay_open` and for the same
/// reason. Each row is fed in `FEEDS` rounds, each round every rotation
/// once, in an order the seed draws per round; the order changes what the
/// sketches hold and so the refitted models. One seed-drawn order over
/// all of a row's feeds, where a rotation's feeds can bunch together,
/// spread `item_p90_ms` over seeds half as widely again.
struct ServeIngest {
    ctx: Ctx,
    rotations: Vec<Rotation>,
    /// Item `i` feeds rotation `order[i]` of its row.
    order: Vec<usize>,
    engine: Option<(StreamEngine, Obs)>,
    /// Flows the engine should have folded in so far this row.
    expected: u64,
}

impl ServeIngest {
    const GIB: u64 = 32;
    const FEEDS: usize = 3;

    fn new(ctx: Ctx) -> Self {
        let order = (0..Workload::PAPER.len() * Self::FEEDS)
            .flat_map(|round| shuffled(ctx.scale.per_row, ctx.order_seed(round)))
            .collect();
        ServeIngest {
            ctx,
            rotations: Vec::new(),
            order,
            engine: None,
            expected: 0,
        }
    }

    fn per_row_items(&self) -> usize {
        self.ctx.scale.per_row * Self::FEEDS
    }
}

impl Bench for ServeIngest {
    fn setup(&mut self, t: &mut Tracer) -> Result<(), String> {
        self.rotations.clear();
        self.engine = None;
        for (row, &workload) in Workload::PAPER.iter().enumerate() {
            for k in 0..self.ctx.scale.per_row {
                let n = row * self.ctx.scale.per_row + k;
                let bytes = self.ctx.scale.bytes(Self::GIB);
                let (trace, packets) = capture(t, workload, bytes, self.ctx.fixture_seed(n))?;
                self.rotations.push(Rotation {
                    packets,
                    meta: trace.meta().clone(),
                    flows: trace.len() as u64,
                });
            }
        }
        self.run_item(0, t).map(|_| ())
    }

    fn items(&self) -> usize {
        Workload::PAPER.len() * self.per_row_items()
    }

    fn run_item(&mut self, i: usize, t: &mut Tracer) -> Result<Out, String> {
        let (row, k) = (i / self.per_row_items(), i % self.per_row_items());
        let row_end = k + 1 == self.per_row_items();
        let rotation = &self.rotations[row * self.ctx.scale.per_row + self.order[i]];
        let traced = t.enabled();
        if k == 0 {
            // The traced run refits by hand so end_run and refit time apart.
            let opts = StreamOptions {
                refit_runs: if traced { usize::MAX } else { 1 },
                ..StreamOptions::default()
            };
            let obs = if traced { probe_obs() } else { Obs::disabled() };
            let engine = StreamEngine::new(opts, &obs).map_err(|e| e.to_string())?;
            self.engine = Some((engine, obs));
            self.expected = 0;
        }
        let (engine, obs) = self.engine.as_mut().ok_or("no engine: row start failed")?;
        t.begin("core.stream.ingest");
        for &p in &rotation.packets {
            engine.ingest_packet(p);
        }
        t.end();
        t.begin("core.stream.end_run");
        let ended = engine.end_run(&rotation.meta);
        t.end();
        let refitted = if traced {
            t.begin("core.stream.refit");
            let refit = engine.refit();
            t.end();
            // With refit_runs = usize::MAX, end_run itself must not refit.
            ended.and_then(|early| if early { Ok(false) } else { refit })
        } else {
            ended
        };
        let workload = &rotation.meta.workload;
        match refitted {
            Ok(true) => {}
            Ok(false) => return Err(format!("{workload} rotation {i}: no refit")),
            Err(e) => return Err(format!("{workload} rotation {i}: {e}")),
        }
        self.expected += rotation.flows;
        if engine.flows_total() != self.expected {
            return Err(format!(
                "{workload} rotation {i}: engine holds {} flows, batch assembler made {}",
                engine.flows_total(),
                self.expected
            ));
        }
        t.count("core.stream.packets", rotation.packets.len() as f64);
        let mut digest = 0;
        if row_end {
            let json = engine.model_json().ok_or("refit left no model")?;
            let mut h = Fnv::default();
            h.bytes(json.as_bytes());
            digest = h.0;
            if traced {
                let snap = obs.metrics();
                let peak = snap.gauge("stream", "active_connections") as f64;
                t.peak("core.stream.peak_open_connections", peak);
                t.count(
                    "core.stream.evicted",
                    snap.counter("stream", "evicted_flows") as f64,
                );
                t.count(
                    "core.stream.flows",
                    snap.counter("stream", "flows_completed") as f64,
                );
                if let Some(model) = engine.model() {
                    count_fallbacks(t, model);
                }
            }
        }
        Ok(Out {
            flows: rotation.flows,
            digest,
        })
    }
}
