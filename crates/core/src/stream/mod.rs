//! Streaming capture ingestion with bounded memory and online refits.
//!
//! The offline pipeline is batch end to end: capture a set of runs, load
//! every trace, pool them into a [`Dataset`], sort the world, fit. This
//! module is the `keddah serve` engine — the same modelling pipeline
//! restructured around an unbounded stream of rotated capture files:
//!
//! * **Bounded connection state** — packet input is reassembled by
//!   [`keddah_flowcap::StreamAssembler`] (fixed-capacity table, eager
//!   timeout-driven LRU eviction, `stream/evicted_flows` counters);
//! * **Bounded model state** — per-component size/start samples feed a
//!   [`SampleStore`]: either the exact offline representation (for
//!   equivalence testing and small deployments) or a Greenwald–Khanna
//!   quantile sketch with rank error ε, making cross-run model state
//!   `O(1/ε)` per component no matter how many runs stream past.
//!   Per-*run* bookkeeping (one makespan and one count per component per
//!   run) stays exact: it grows with runs, not flows, which is where the
//!   memory actually goes;
//! * **Online refit** — at every `refit_runs`-th run boundary the engine
//!   materializes a dataset from the stores and re-runs the ordinary
//!   [`fit_model`] path, atomically swapping in the new model and
//!   bumping a generation counter.
//!
//! # Offline ≡ online
//!
//! With [`SketchMode::Exact`], ingesting rotated files `A, B, …` and
//! refitting produces **byte-identical** model JSON to `keddah fit A B …`:
//! each run boundary folds the run's flows, in capture order, through the
//! same per-run fold [`Dataset::from_traces`] uses per trace (same flow
//! order, same per-run `t0`, same zero-count entries, same float
//! summation order). With [`SketchMode::Gk`], fitted
//! percentiles differ from offline by at most the sketch's rank error ε
//! (see `keddah_stat::sketch` for the bound and `tests/stream_model.rs`
//! for the proptests that pin it).
//!
//! The working set per run is one rotation's flows — a run must end
//! before its samples are folded into the stores, because start times are
//! relative to the run's earliest flow, which is unknown until the run
//! completes.

mod http;
mod ingest;
mod tail;

pub use http::{bind, serve_http, HttpStats, SharedStatus};
pub use ingest::{ingest_path, IngestReport};
pub use tail::DirTailer;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use keddah_des::Duration;
use keddah_flowcap::stream::{StreamConfig, StreamStats};
use keddah_flowcap::{classify, Component, FlowRecord, PacketRecord, StreamAssembler, TraceMeta};
use keddah_obs::{Counter, Gauge, Obs};
use keddah_stat::sketch::SampleStore;

use crate::dataset::{ComponentSample, Dataset, RunPool};
use crate::fitting::fit_model;
use crate::model::KeddahModel;
use crate::{CoreError, Result};

/// How the engine stores per-component size/start samples across runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SketchMode {
    /// Keep every sample, exactly as the offline pipeline would. Memory
    /// grows with total flows; refits are byte-identical to `keddah fit`
    /// over the same files. This is the degenerate sketch configuration
    /// the equivalence tests use.
    Exact,
    /// Greenwald–Knanna quantile sketches with rank error `epsilon`.
    /// Memory is `O(1/epsilon · log(εn))` per sample set; fitted
    /// percentiles are within `epsilon` rank error of offline.
    Gk {
        /// Rank error bound, in `(0, 0.5)`.
        epsilon: f64,
    },
}

/// Configuration for [`StreamEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamOptions {
    /// Idle gap after which an open connection is evicted (packet input).
    pub idle_timeout: Duration,
    /// Connection-table capacity (packet input).
    pub max_active: usize,
    /// Sample storage mode for the cross-run model state.
    pub sketch: SketchMode,
    /// Refit after every this many completed runs.
    pub refit_runs: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            idle_timeout: keddah_flowcap::stream::StreamConfig::default().idle_timeout,
            max_active: keddah_flowcap::stream::DEFAULT_MAX_ACTIVE,
            sketch: SketchMode::Gk { epsilon: 0.01 },
            refit_runs: 1,
        }
    }
}

/// Per-component sample stores pooled across runs.
#[derive(Debug, Clone)]
struct ComponentStores {
    sizes: SampleStore,
    starts: SampleStore,
    /// Flows per run — one entry per run, kept exact (grows with runs).
    counts: Vec<f64>,
}

/// The `keddah serve` ingestion engine: incremental assembly,
/// per-component sample accumulation, and online model refits.
///
/// Feed it flows ([`ingest_flow`](Self::ingest_flow)) or packets
/// ([`ingest_packet`](Self::ingest_packet)), then call
/// [`end_run`](Self::end_run) at every rotated-file boundary. The engine
/// refits on its `refit_runs` cadence and exposes the current model.
pub struct StreamEngine {
    opts: StreamOptions,
    /// Prototype sample store, built (and therefore validated) once in
    /// [`StreamEngine::new`]; fresh component stores are clones. This is
    /// what lets the hot path stay panic-free: no re-validation of
    /// `epsilon` ever happens after startup.
    store_proto: SampleStore,
    assembler: StreamAssembler,
    last_asm_stats: StreamStats,
    /// Metadata of the first run; later runs must match its workload.
    meta: Option<TraceMeta>,
    /// Completed flows of the run currently being ingested.
    run_flows: Vec<FlowRecord>,
    components: BTreeMap<Component, ComponentStores>,
    makespans: Vec<f64>,
    runs: usize,
    runs_since_fit: usize,
    flows_total: u64,
    generation: u64,
    model: Option<KeddahModel>,
    c_records: Counter,
    c_flows: Counter,
    c_evicted: Counter,
    c_evicted_capacity: Counter,
    c_runs: Counter,
    c_runs_rejected: Counter,
    c_refits: Counter,
    c_fit_errors: Counter,
    g_generation: Gauge,
    g_active: Gauge,
}

impl StreamEngine {
    /// Creates an engine; obs counters register under the `stream`
    /// subsystem (inert if `obs` is disabled).
    ///
    /// # Errors
    ///
    /// Returns a stat error if the sketch epsilon is out of range.
    pub fn new(opts: StreamOptions, obs: &Obs) -> Result<StreamEngine> {
        // Validate epsilon eagerly so a bad flag fails at startup, not at
        // the first refit; the validated store becomes the prototype
        // every component store is cloned from.
        let store_proto = match opts.sketch {
            SketchMode::Exact => SampleStore::exact(),
            SketchMode::Gk { epsilon } => SampleStore::sketch(epsilon)?,
        };
        let opts = StreamOptions {
            refit_runs: opts.refit_runs.max(1),
            ..opts
        };
        Ok(StreamEngine {
            store_proto,
            assembler: StreamAssembler::with_config(StreamConfig {
                idle_timeout: opts.idle_timeout,
                max_active: opts.max_active,
            }),
            last_asm_stats: StreamStats::default(),
            meta: None,
            run_flows: Vec::new(),
            components: BTreeMap::new(),
            makespans: Vec::new(),
            runs: 0,
            runs_since_fit: 0,
            flows_total: 0,
            generation: 0,
            model: None,
            c_records: obs.counter("stream", "records_ingested"),
            c_flows: obs.counter("stream", "flows_completed"),
            c_evicted: obs.counter("stream", "evicted_flows"),
            c_evicted_capacity: obs.counter("stream", "evicted_capacity"),
            c_runs: obs.counter("stream", "runs_ingested"),
            c_runs_rejected: obs.counter("stream", "runs_rejected"),
            c_refits: obs.counter("stream", "refits"),
            c_fit_errors: obs.counter("stream", "fit_errors"),
            g_generation: obs.gauge("stream", "model_generation"),
            g_active: obs.gauge("stream", "active_connections"),
            opts,
        })
    }

    /// Ingests one already-assembled flow (rotated `.jsonl` trace input).
    pub fn ingest_flow(&mut self, flow: FlowRecord) {
        self.c_records.inc();
        self.run_flows.push(flow);
    }

    /// Ingests one packet (rotated packet-text input) through the
    /// bounded-memory assembler.
    pub fn ingest_packet(&mut self, packet: PacketRecord) {
        self.c_records.inc();
        self.assembler.push(packet);
        self.g_active.set_max(self.assembler.open() as u64);
        // Keep the completed-record buffer small between run boundaries.
        if self.assembler.ready() >= 1024 {
            let done = self.assembler.drain();
            self.absorb_assembled(done);
        }
    }

    /// Moves assembler output into the current run, folding eviction
    /// counter deltas into obs.
    fn absorb_assembled(&mut self, done: Vec<FlowRecord>) {
        let stats = self.assembler.stats();
        self.c_evicted
            .add(stats.evicted() - self.last_asm_stats.evicted());
        self.c_evicted_capacity
            .add(stats.evicted_capacity - self.last_asm_stats.evicted_capacity);
        self.last_asm_stats = stats;
        self.run_flows.extend(done);
    }

    /// Ends the current run (one rotated capture file) and refits on the
    /// configured cadence.
    ///
    /// Flows are sorted by the batch assembler's key and unlabelled ones
    /// classified; then the run goes through the same fold as a trace in
    /// [`Dataset::from_traces`], and each component's sizes and starts
    /// reach its sample stores as one slice each.
    ///
    /// Returns `Ok(true)` when a refit happened and produced a model.
    ///
    /// # Errors
    ///
    /// [`CoreError::Stream`] if `meta`'s workload differs from the
    /// stream's (the run's flows are discarded); fitting errors other
    /// than insufficient data propagate from the refit.
    pub fn end_run(&mut self, meta: &TraceMeta) -> Result<bool> {
        let flushed = self.assembler.flush();
        self.absorb_assembled(flushed);
        let mut flows = std::mem::take(&mut self.run_flows);

        match &self.meta {
            None => self.meta = Some(meta.clone()),
            Some(first) if first.workload != meta.workload => {
                self.c_runs_rejected.inc();
                return Err(CoreError::Stream(format!(
                    "run workload {:?} does not match stream workload {:?}",
                    meta.workload, first.workload
                )));
            }
            Some(_) => {}
        }

        flows.sort_by_key(FlowRecord::capture_order);
        for f in &mut flows {
            if f.component.is_none() {
                f.component = Some(classify::classify(f));
            }
        }
        self.c_flows.add(flows.len() as u64);
        self.flows_total += flows.len() as u64;

        let mut run = RunPool::default();
        self.makespans.push(run.fold(&flows));
        for (&component, run) in Component::ALL.iter().zip(&run.0) {
            let proto = &self.store_proto;
            let stores = self
                .components
                .entry(component)
                .or_insert_with(|| ComponentStores {
                    sizes: proto.clone(),
                    starts: proto.clone(),
                    counts: Vec::new(),
                });
            stores.sizes.extend_from_slice(&run.sizes);
            stores.starts.extend_from_slice(&run.starts);
            stores.counts.extend_from_slice(&run.counts);
        }

        self.runs += 1;
        self.runs_since_fit += 1;
        self.c_runs.inc();

        if self.runs_since_fit >= self.opts.refit_runs {
            self.runs_since_fit = 0;
            self.refit()
        } else {
            Ok(false)
        }
    }

    /// Materializes a [`Dataset`] from the stores and re-runs the offline
    /// fitting path, swapping the model in on success.
    ///
    /// Returns `Ok(false)` when no component has enough flows yet.
    ///
    /// # Errors
    ///
    /// Propagates fitting failures other than insufficient data.
    pub fn refit(&mut self) -> Result<bool> {
        let Some(dataset) = self.dataset() else {
            return Ok(false);
        };
        match fit_model(&dataset) {
            Ok(model) => {
                self.model = Some(model);
                self.generation += 1;
                self.c_refits.inc();
                self.g_generation.set(self.generation);
                Ok(true)
            }
            Err(CoreError::InsufficientData { .. }) => Ok(false),
            Err(e) => {
                self.c_fit_errors.inc();
                Err(e)
            }
        }
    }

    /// The current sample pool as an offline-shaped dataset, or `None`
    /// before the first completed run.
    #[must_use]
    pub fn dataset(&self) -> Option<Dataset> {
        let meta = self.meta.as_ref()?;
        if self.runs == 0 {
            return None;
        }
        let mut components = BTreeMap::new();
        for (&component, stores) in &self.components {
            if stores.sizes.count() == 0 {
                continue; // mirrors from_traces' retain on non-empty sizes
            }
            components.insert(
                component,
                ComponentSample {
                    sizes: stores.sizes.fit_samples(),
                    starts: stores.starts.fit_samples(),
                    counts: stores.counts.clone(),
                },
            );
        }
        Some(Dataset {
            workload: meta.workload.clone(),
            input_bytes: meta.input_bytes,
            reducers: meta.reducers,
            replication: meta.replication,
            block_bytes: meta.block_bytes,
            nodes: meta.nodes,
            runs: self.runs,
            makespans: self.makespans.clone(),
            components,
        })
    }

    /// The most recently fitted model, if any run has produced one.
    #[must_use]
    pub fn model(&self) -> Option<&KeddahModel> {
        self.model.as_ref()
    }

    /// Current model as JSON (byte-identical to what `keddah fit` writes
    /// in exact mode over the same files).
    #[must_use]
    pub fn model_json(&self) -> Option<String> {
        self.model.as_ref().map(KeddahModel::to_json)
    }

    /// Model generation: bumped once per successful refit.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Completed runs ingested.
    #[must_use]
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Completed flows folded into the model state.
    #[must_use]
    pub fn flows_total(&self) -> u64 {
        self.flows_total
    }

    /// The stream's metadata (from the first run), if any.
    #[must_use]
    pub fn meta(&self) -> Option<&TraceMeta> {
        self.meta.as_ref()
    }

    /// Connections currently open in the packet assembler.
    #[must_use]
    pub fn open_connections(&self) -> usize {
        self.assembler.open()
    }

    /// The effective options.
    #[must_use]
    pub fn options(&self) -> &StreamOptions {
        &self.opts
    }
}

/// Live status published by the serve loop and rendered by the HTTP
/// endpoint. Held behind [`SharedStatus`].
#[derive(Debug, Clone, Default)]
pub struct ServeStatus {
    /// Model generation (0 until the first successful refit).
    pub generation: u64,
    /// Completed runs ingested.
    pub runs: u64,
    /// Completed flows ingested.
    pub flows: u64,
    /// Rotated files consumed.
    pub files: u64,
    /// Current model JSON, once fitted.
    pub model_json: Option<String>,
    /// Current metrics snapshot JSON.
    pub metrics_json: String,
    /// Most recent ingest error, if any.
    pub last_error: Option<String>,
}

/// Creates the shared status cell the HTTP server reads.
#[must_use]
pub fn shared_status() -> SharedStatus {
    Arc::new(Mutex::new(ServeStatus::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use keddah_des::SimTime;
    use keddah_flowcap::{ports, FiveTuple, NodeId, Trace};

    fn meta(workload: &str) -> TraceMeta {
        TraceMeta {
            workload: workload.into(),
            input_bytes: 1 << 30,
            reducers: 4,
            replication: 3,
            block_bytes: 128 << 20,
            nodes: 8,
            seed: 7,
            counters: None,
        }
    }

    fn flow(i: u64, dst_port: u16, bytes: u64) -> FlowRecord {
        FlowRecord {
            tuple: FiveTuple {
                src: NodeId(1),
                src_port: 40_000 + (i % 1_000) as u16,
                dst: NodeId(2),
                dst_port,
            },
            start: SimTime::from_millis(10 * i),
            end: SimTime::from_millis(10 * i + 5),
            fwd_bytes: 100,
            rev_bytes: bytes,
            packets: 2,
            component: None,
        }
    }

    fn run_trace(workload: &str, n: u64, seed: u64) -> Trace {
        let mut flows: Vec<FlowRecord> = (0..n)
            .map(|i| flow(i, ports::SHUFFLE, 10_000 + 997 * ((i + seed) % 91)))
            .collect();
        classify::classify_all(&mut flows);
        Trace::new(meta(workload), flows)
    }

    #[test]
    fn exact_mode_matches_offline_fit_bytewise() {
        let traces = [run_trace("terasort", 40, 1), run_trace("terasort", 56, 2)];
        let obs = Obs::enabled();
        let mut engine = StreamEngine::new(
            StreamOptions {
                sketch: SketchMode::Exact,
                ..StreamOptions::default()
            },
            &obs,
        )
        .unwrap();
        for t in &traces {
            for f in t.flows() {
                engine.ingest_flow(*f);
            }
            assert!(engine.end_run(t.meta()).unwrap());
        }
        let offline = fit_model(&Dataset::from_traces(&traces)).unwrap();
        assert_eq!(engine.generation(), 2);
        assert_eq!(engine.model_json().unwrap(), offline.to_json());
        let snap = obs.metrics();
        assert_eq!(snap.counter("stream", "runs_ingested"), 2);
        assert_eq!(snap.counter("stream", "flows_completed"), 96);
        assert_eq!(snap.counter("stream", "refits"), 2);
    }

    #[test]
    fn sketch_mode_fits_with_bounded_state() {
        let obs = Obs::disabled();
        let mut engine = StreamEngine::new(
            StreamOptions {
                sketch: SketchMode::Gk { epsilon: 0.02 },
                ..StreamOptions::default()
            },
            &obs,
        )
        .unwrap();
        for seed in 0..4 {
            let t = run_trace("terasort", 500, seed);
            for f in t.flows() {
                engine.ingest_flow(*f);
            }
            engine.end_run(t.meta()).unwrap();
        }
        let model = engine.model().expect("model fitted");
        assert_eq!(model.workload, "terasort");
        let ds = engine.dataset().unwrap();
        let shuffle = ds.component(Component::Shuffle).unwrap();
        // The sketch caps materialized samples regardless of stream size.
        assert!(shuffle.sizes.len() <= keddah_stat::sketch::PSEUDO_SAMPLE_CAP);
        assert_eq!(shuffle.counts, vec![500.0; 4]);
    }

    #[test]
    fn mismatched_workload_is_rejected_and_counted() {
        let obs = Obs::enabled();
        let mut engine = StreamEngine::new(StreamOptions::default(), &obs).unwrap();
        let a = run_trace("terasort", 12, 0);
        for f in a.flows() {
            engine.ingest_flow(*f);
        }
        engine.end_run(a.meta()).unwrap();
        let b = run_trace("grep", 12, 0);
        for f in b.flows() {
            engine.ingest_flow(*f);
        }
        assert!(matches!(
            engine.end_run(b.meta()),
            Err(CoreError::Stream(_))
        ));
        assert_eq!(engine.runs(), 1);
        assert_eq!(obs.metrics().counter("stream", "runs_rejected"), 1);
        // The rejected run's flows must not leak into the next run.
        let c = run_trace("terasort", 12, 3);
        for f in c.flows() {
            engine.ingest_flow(*f);
        }
        engine.end_run(c.meta()).unwrap();
        assert_eq!(engine.flows_total(), 24);
    }

    #[test]
    fn packet_ingest_evicts_and_still_fits() {
        let obs = Obs::enabled();
        let mut engine = StreamEngine::new(
            StreamOptions {
                idle_timeout: Duration::from_secs(1),
                max_active: 8,
                sketch: SketchMode::Exact,
                refit_runs: 1,
            },
            &obs,
        )
        .unwrap();
        // 32 concurrent shuffle connections through an 8-slot table: the
        // overflow must surface as capacity evictions, not lost bytes.
        for i in 0..32u64 {
            engine.ingest_packet(PacketRecord::data(
                SimTime::from_millis(i),
                NodeId(1),
                40_000 + i as u16,
                NodeId(2),
                ports::SHUFFLE,
                5_000,
            ));
        }
        engine.end_run(&meta("terasort")).unwrap();
        assert_eq!(engine.flows_total(), 32);
        let snap = obs.metrics();
        assert_eq!(snap.counter("stream", "evicted_capacity"), 24);
        assert_eq!(snap.counter("stream", "evicted_flows"), 24);
        let ds = engine.dataset().unwrap();
        let shuffle = ds.component(Component::Shuffle).unwrap();
        assert_eq!(shuffle.sizes.len(), 32);
        assert_eq!(shuffle.total_bytes(), 32.0 * 5_000.0);
    }

    #[test]
    fn refit_cadence_is_respected() {
        let obs = Obs::disabled();
        let mut engine = StreamEngine::new(
            StreamOptions {
                refit_runs: 2,
                sketch: SketchMode::Exact,
                ..StreamOptions::default()
            },
            &obs,
        )
        .unwrap();
        for seed in 0..4 {
            let t = run_trace("terasort", 20, seed);
            for f in t.flows() {
                engine.ingest_flow(*f);
            }
            let refitted = engine.end_run(t.meta()).unwrap();
            assert_eq!(refitted, seed % 2 == 1, "refit only every second run");
        }
        assert_eq!(engine.generation(), 2);
    }

    #[test]
    fn no_model_before_enough_flows() {
        let obs = Obs::disabled();
        let mut engine = StreamEngine::new(StreamOptions::default(), &obs).unwrap();
        let t = run_trace("terasort", 3, 0); // below MIN_FLOWS
        for f in t.flows() {
            engine.ingest_flow(*f);
        }
        assert!(!engine.end_run(t.meta()).unwrap());
        assert!(engine.model().is_none());
        assert_eq!(engine.generation(), 0);
    }
}
