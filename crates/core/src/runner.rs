//! Multi-threaded experiment engine: fan a workload matrix across cores.
//!
//! The paper's evaluation is a *matrix* of capture campaigns — every
//! workload crossed with input sizes and configuration sweeps, each cell
//! repeated several times. Cells are independent, so the [`Runner`]
//! executes them on a pool of scoped worker threads pulling from a shared
//! queue, while keeping two guarantees the experiments depend on:
//!
//! * **Determinism** — each run's seed is derived with splitmix64 from
//!   the cell's identity `(workload, input_bytes, config_hash, repeat)`,
//!   never from queue order or thread id. `run_matrix` therefore returns
//!   byte-identical results whether it runs on 1 worker or 16, and a
//!   cell's seeds do not shift when the matrix around it changes.
//! * **Memoization** — fitted cells are cached by identity, so a cell
//!   appearing twice (e.g. a sweep sharing its baseline point with
//!   another figure) is simulated and fitted once.
//!
//! # Examples
//!
//! ```
//! use keddah_core::runner::{MatrixCell, Runner};
//! use keddah_hadoop::{ClusterSpec, HadoopConfig, Workload};
//!
//! let runner = Runner::new(ClusterSpec::racks(2, 4));
//! let cells = vec![
//!     MatrixCell::new(Workload::TeraSort, 1 << 30, HadoopConfig::default(), 2),
//!     MatrixCell::new(Workload::Grep, 1 << 30, HadoopConfig::default(), 2),
//! ];
//! let results = runner.run_matrix(&cells, 2);
//! assert_eq!(results.len(), 2);
//! assert!(results[0].model.is_some());
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use keddah_flowcap::{Component, FlowRecord};
use keddah_hadoop::{run_job, ClusterSpec, HadoopConfig, JobRun, JobSpec, Workload};
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::fitting::fit_model;
use crate::model::KeddahModel;

/// One cell of the experiment matrix: a workload at an input size under
/// a configuration, repeated `repeats` times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixCell {
    /// The job type to run.
    pub workload: Workload,
    /// Input size in bytes.
    pub input_bytes: u64,
    /// Hadoop configuration for every run of the cell.
    pub config: HadoopConfig,
    /// Number of repeated captures (the paper repeats each configuration
    /// to gather enough flows per component).
    pub repeats: u32,
    /// Cluster override: when set, the cell runs on this cluster instead
    /// of the runner's own. The provisioning search sweeps cluster shape
    /// alongside Hadoop knobs, so the cluster is part of the cell's
    /// identity — it participates in the memo key and seed derivation
    /// exactly like the config. `None` (the legacy shape) preserves
    /// existing seeds and cache keys bit-for-bit.
    pub cluster: Option<ClusterSpec>,
}

impl MatrixCell {
    /// Builds a cell on the runner's default cluster.
    #[must_use]
    pub fn new(workload: Workload, input_bytes: u64, config: HadoopConfig, repeats: u32) -> Self {
        MatrixCell {
            workload,
            input_bytes,
            config,
            repeats,
            cluster: None,
        }
    }

    /// Pins the cell to its own cluster (builder style).
    #[must_use]
    pub fn with_cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// The cell's configuration hash: FNV-1a over the canonical JSON
    /// serialization of `config`. Stable across runs and processes (the
    /// serializer emits fields in declaration order), so it can key
    /// caches and seed derivation.
    #[must_use]
    pub fn config_hash(&self) -> u64 {
        let json = serde_json::to_string(&self.config).expect("config serializes");
        fnv1a(json.as_bytes())
    }

    /// The cell's cluster-override hash: zero when the cell runs on the
    /// runner's cluster, FNV-1a over the override's canonical JSON
    /// otherwise. Folded into both the memo key and seed derivation so
    /// two cells differing only in cluster shape never share a cached
    /// result or a seed stream.
    #[must_use]
    pub fn cluster_hash(&self) -> u64 {
        self.cluster.as_ref().map_or(0, |c| {
            let json = serde_json::to_string(c).expect("cluster serializes");
            fnv1a(json.as_bytes())
        })
    }

    /// The derived seed for repeat `repeat` of this cell.
    ///
    /// Splitmix64 over `(workload, input_bytes, config_hash ^
    /// cluster_hash, repeat)`: every identity component is folded into
    /// the generator state before one final output draw. Two cells
    /// differing in any component get unrelated seeds, and the seeds
    /// never depend on where the cell sits in the matrix or which thread
    /// picks it up. Cells without a cluster override keep their
    /// historical seeds (`cluster_hash` is zero).
    #[must_use]
    fn seed_for(&self, repeat: u32) -> u64 {
        derive_seed(
            self.workload,
            self.input_bytes,
            self.config_hash() ^ self.cluster_hash(),
            repeat,
        )
    }

    /// The full seed stream for the cell, one seed per repeat.
    #[must_use]
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.repeats).map(|r| self.seed_for(r)).collect()
    }

    /// The memo key the runner caches results under. Every field that
    /// changes simulated behaviour is represented: workload, input
    /// size, configuration hash, cluster hash and repeat count —
    /// a collision here would silently serve one cell another's runs.
    #[must_use]
    pub fn key(&self) -> CellKey {
        (
            self.workload,
            self.input_bytes,
            self.config_hash(),
            self.cluster_hash(),
            self.repeats,
        )
    }
}

/// Derives a run seed from a cell identity via splitmix64.
///
/// Each identity component perturbs the generator state and advances it
/// one splitmix64 step, so the final draw depends on every component
/// non-linearly (flipping one input bit flips ~half the output bits).
#[must_use]
fn derive_seed(workload: Workload, input_bytes: u64, config_hash: u64, repeat: u32) -> u64 {
    let mut state = fnv1a(workload.name().as_bytes());
    let mut out = 0u64;
    for component in [input_bytes, config_hash, u64::from(repeat)] {
        state ^= component;
        out = rand::splitmix64(&mut state);
    }
    out
}

/// FNV-1a over a byte string: the stable 64-bit hash used for config
/// hashing and workload tags (std's `DefaultHasher` is explicitly not
/// stable across releases, which would silently re-seed every experiment
/// on a toolchain bump).
#[must_use]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Flow count and wire bytes of one traffic component in one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentTotals {
    /// Number of flows classified as this component.
    pub flows: u64,
    /// Total wire bytes (both directions) across those flows.
    pub bytes: u64,
}

/// The per-run measurement a cell produces: the capture reduced to the
/// numbers the figures and tables consume. Traces themselves are not
/// retained — a full matrix would hold gigabytes of flow records;
/// experiments that need raw flows capture them directly via
/// [`keddah_hadoop::run_job`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// The seed this run executed under.
    pub seed: u64,
    /// Job makespan in seconds.
    pub duration_secs: f64,
    /// Total flows in the capture.
    pub flows: u64,
    /// Total wire bytes in the capture.
    pub bytes: u64,
    /// Wire bytes of flows that traverse the switching core: endpoints
    /// in different racks, or either endpoint the master (which sits
    /// outside the worker racks). The provisioning search divides this
    /// by core capacity to estimate inter-rack utilisation.
    pub cross_rack_bytes: u64,
    /// HDFS read traffic (non-local map input fetches).
    pub hdfs_read: ComponentTotals,
    /// Shuffle traffic (map → reduce partition fetches).
    pub shuffle: ComponentTotals,
    /// HDFS write traffic (replication pipelines).
    pub hdfs_write: ComponentTotals,
    /// Control-plane traffic (RPCs, heartbeats, umbilicals).
    pub control: ComponentTotals,
    /// Map tasks launched.
    pub maps: u32,
    /// Reduce tasks launched.
    pub reducers: u32,
    /// Failed map attempts (failure injection).
    pub failed_map_attempts: u32,
    /// Speculative backup attempts.
    pub speculative_attempts: u32,
}

impl RunSummary {
    fn from_run(run: &JobRun, seed: u64, cluster: &ClusterSpec) -> RunSummary {
        let totals = |c: Component| {
            let mut t = ComponentTotals::default();
            for f in run.trace.component_flows(c) {
                t.flows += 1;
                t.bytes += f.total_bytes();
            }
            t
        };
        let cross_rack_bytes = run
            .trace
            .flows()
            .iter()
            .filter(|f| cluster.crosses_racks(f.tuple.src, f.tuple.dst))
            .map(FlowRecord::total_bytes)
            .sum();
        RunSummary {
            seed,
            duration_secs: run.duration.as_secs_f64(),
            flows: run.trace.len() as u64,
            bytes: run.trace.total_bytes(),
            cross_rack_bytes,
            hdfs_read: totals(Component::HdfsRead),
            shuffle: totals(Component::Shuffle),
            hdfs_write: totals(Component::HdfsWrite),
            control: totals(Component::Control),
            maps: run.counters.maps,
            reducers: run.counters.reducers,
            failed_map_attempts: run.counters.failed_map_attempts,
            speculative_attempts: run.counters.speculative_attempts,
        }
    }

    /// The totals for one traffic component.
    ///
    /// [`Component::Other`] (traffic the classifier could not attribute)
    /// returns zeros: the simulator only speaks Hadoop protocols, so
    /// nothing classifies as Other and the summary does not carry it.
    #[must_use]
    pub fn component(&self, c: Component) -> ComponentTotals {
        match c {
            Component::HdfsRead => self.hdfs_read,
            Component::Shuffle => self.shuffle,
            Component::HdfsWrite => self.hdfs_write,
            Component::Control => self.control,
            // Other and the DAG-only broadcast component are not
            // carried in matrix summaries (legacy cells never emit
            // them); they read back as zeros.
            Component::Other | Component::Broadcast => ComponentTotals::default(),
        }
    }
}

/// The outcome of one matrix cell: per-run summaries plus the model
/// fitted over the cell's pooled captures.
///
/// Serializable, and — because every field is a pure function of the
/// cell identity — byte-identical across runs, worker counts, and cell
/// orderings. Cache state is deliberately *not* recorded here: whether a
/// cell's model came from the cache depends on scheduling, and recording
/// it would break that guarantee (the [`Runner::cache_hits`] counter
/// reports it instead).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// Workload name.
    pub workload: String,
    /// Input size in bytes.
    pub input_bytes: u64,
    /// FNV-1a hash of the cell's configuration (see
    /// [`MatrixCell::config_hash`]).
    pub config_hash: u64,
    /// The derived seed of each run, in repeat order.
    pub seeds: Vec<u64>,
    /// One summary per run, in repeat order.
    pub runs: Vec<RunSummary>,
    /// The model fitted over the cell's pooled traces; `None` when the
    /// cell produced too little traffic to fit (e.g. tiny inputs).
    pub model: Option<KeddahModel>,
}

impl CellResult {
    /// Mean over runs of a per-run statistic.
    pub fn mean_over_runs(&self, f: impl Fn(&RunSummary) -> f64) -> f64 {
        if self.runs.is_empty() {
            return f64::NAN;
        }
        self.runs.iter().map(f).sum::<f64>() / self.runs.len() as f64
    }

    /// Mean wire bytes of one component across the cell's runs.
    #[must_use]
    pub fn mean_component_bytes(&self, c: Component) -> f64 {
        self.mean_over_runs(|r| r.component(c).bytes as f64)
    }

    /// Mean flow count of one component across the cell's runs.
    #[must_use]
    pub fn mean_component_flows(&self, c: Component) -> f64 {
        self.mean_over_runs(|r| r.component(c).flows as f64)
    }

    /// Mean makespan in seconds across the cell's runs.
    #[must_use]
    pub fn mean_duration_secs(&self) -> f64 {
        self.mean_over_runs(|r| r.duration_secs)
    }

    /// Registers the cell's aggregates under the `runner` subsystem of
    /// `obs`. Everything recorded is a pure function of the (already
    /// deterministic) result — cache hits and scheduling are deliberately
    /// excluded, so folding the same results yields the same metrics at
    /// any worker count. No-op when `obs` is disabled.
    pub fn record_obs(&self, obs: &keddah_obs::Obs) {
        if !obs.is_enabled() {
            return;
        }
        obs.add("runner", "cells", 1);
        obs.add("runner", "runs", self.runs.len() as u64);
        obs.add("runner", "models_fitted", u64::from(self.model.is_some()));
        let durations = obs.histogram("runner", "run_duration_secs");
        for run in &self.runs {
            obs.add("runner", "flows", run.flows);
            obs.add("runner", "bytes", run.bytes);
            obs.add("runner", "maps", u64::from(run.maps));
            obs.add("runner", "reducers", u64::from(run.reducers));
            obs.add(
                "runner",
                "failed_map_attempts",
                u64::from(run.failed_map_attempts),
            );
            obs.add(
                "runner",
                "speculative_attempts",
                u64::from(run.speculative_attempts),
            );
            durations.observe(run.duration_secs);
        }
    }
}

/// Memo-cache identity of a [`MatrixCell`]: `(workload, input_bytes,
/// config_hash, cluster_hash, repeats)`.
pub type CellKey = (Workload, u64, u64, u64, u32);

/// Budget knobs for [`Runner::run_budgeted`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepBudget {
    /// Maximum number of cell executions across the whole sweep. An
    /// execution at any fidelity counts once; a round is trimmed (in
    /// rank order) rather than started beyond this ceiling.
    pub max_cell_runs: usize,
    /// Repeats per cell in the first (probe) round. Doubles every round
    /// until reaching each cell's own `repeats`.
    pub probe_repeats: u32,
    /// Fraction of scored groups kept after each probe round, in
    /// `(0, 1]` (classic successive halving at `0.5`).
    pub keep_fraction: f64,
}

impl Default for SweepBudget {
    fn default() -> Self {
        SweepBudget {
            max_cell_runs: usize::MAX,
            probe_repeats: 1,
            keep_fraction: 0.5,
        }
    }
}

/// Per-group outcome of a budgeted sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetedGroup {
    /// Results for the group's cells at the highest fidelity reached,
    /// in the group's cell order. Empty if the budget ran out before
    /// the group's first probe.
    pub results: Vec<CellResult>,
    /// Repeats ceiling of the last round the group ran in (each cell
    /// ran `min(cell.repeats, fidelity)` repeats); zero if it never ran.
    pub fidelity: u32,
    /// True when every cell of the group ran at its full `repeats` —
    /// the group survived elimination to the final round, so its
    /// results are exactly what an unbudgeted sweep would produce.
    pub full_fidelity: bool,
    /// One-based round in which the group was eliminated by score;
    /// `None` for survivors and for groups dropped by the cell budget.
    pub eliminated_round: Option<usize>,
}

/// The outcome of [`Runner::run_budgeted`]: per-group results plus the
/// cost actually paid.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetedSweep {
    /// One entry per input group, in input order.
    pub groups: Vec<BudgetedGroup>,
    /// Cell executions paid (`<= budget.max_cell_runs`). Strictly less
    /// than `groups * cells` whenever elimination or the budget bit.
    pub cell_runs: usize,
    /// Probe rounds executed.
    pub rounds: usize,
}

/// Maps `f` over `items` on `jobs` scoped worker threads (clamped to at
/// least 1 and at most one per item) and returns the results in `items`
/// order. Workers pull the next unclaimed item from a shared cursor, so
/// unequal items load-balance without static partitioning, and the
/// output never depends on `jobs` or on scheduling.
///
/// # Panics
///
/// Re-raises a panic of `f` once every worker has stopped.
pub fn par_map<T: Sync, R: Send>(items: &[T], jobs: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.max(1).min(items.len()))
            .map(|_| scope.spawn(worker))
            .collect();
        for handle in workers {
            let done = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, result) in done {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item is mapped"))
        .collect()
}

/// The experiment engine: runs matrix cells across worker threads with
/// derived seeds and a per-cell result cache.
///
/// See the [module docs](self) for the determinism and memoization
/// contract.
#[derive(Debug)]
pub struct Runner {
    cluster: ClusterSpec,
    cache: Mutex<HashMap<CellKey, CellResult>>,
    cache_hits: AtomicU64,
}

impl Runner {
    /// Builds a runner executing on `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if the cluster spec is invalid.
    #[must_use]
    pub fn new(cluster: ClusterSpec) -> Self {
        cluster.validate().expect("invalid cluster spec");
        Runner {
            cluster,
            cache: Mutex::new(HashMap::new()),
            cache_hits: AtomicU64::new(0),
        }
    }

    /// The cluster cells run on.
    #[must_use]
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Number of cells served from the memoization cache so far.
    ///
    /// Observability only: the count depends on scheduling (two workers
    /// may race on the same duplicated cell and both miss), so it is not
    /// part of any [`CellResult`].
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Runs every cell, fanning them across `parallelism` worker threads
    /// (clamped to at least 1 and at most one per cell).
    ///
    /// Results are returned in `cells` order, and their contents are
    /// byte-identical for any `parallelism`: each cell's seeds come from
    /// its identity, not its schedule. Workers pull the next unclaimed
    /// cell ([`par_map`]), so a matrix of unequal cells (16 GiB TeraSort
    /// next to 1 GiB Grep) load-balances without static partitioning.
    ///
    /// # Panics
    ///
    /// Re-raises a cell's panic (its config failed validation, or
    /// fitting panicked).
    #[must_use]
    pub fn run_matrix(&self, cells: &[MatrixCell], parallelism: usize) -> Vec<CellResult> {
        par_map(cells, parallelism, |cell| self.run_cell(cell))
    }

    /// [`Runner::run_matrix`], folding every cell's aggregates into
    /// `obs` afterwards.
    ///
    /// Metrics are recorded from the *collected* results in `cells`
    /// order — never from inside the workers — so the resulting snapshot
    /// is byte-identical for any `parallelism`, exactly like the results
    /// themselves (the `obs_determinism` tests pin this across worker
    /// counts).
    ///
    /// # Panics
    ///
    /// As [`Runner::run_matrix`].
    #[must_use]
    pub fn run_matrix_observed(
        &self,
        cells: &[MatrixCell],
        parallelism: usize,
        obs: &keddah_obs::Obs,
    ) -> Vec<CellResult> {
        let results = self.run_matrix(cells, parallelism);
        for result in &results {
            result.record_obs(obs);
        }
        results
    }

    /// Runs one cell: simulate its repeats under derived seeds, summarize
    /// each capture, fit a model over the pooled traces.
    ///
    /// Memoized by cell identity — a cell already executed (by any
    /// thread) returns its cached result without re-simulating or
    /// re-fitting.
    ///
    /// # Panics
    ///
    /// Panics if the cell's config (or cluster override) fails
    /// validation.
    #[must_use]
    pub fn run_cell(&self, cell: &MatrixCell) -> CellResult {
        let key = cell.key();
        if let Some(cached) = self.cache.lock().expect("cache lock").get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return cached.clone();
        }

        let cluster = cell.cluster.as_ref().unwrap_or(&self.cluster);
        cluster.validate().expect("invalid cell cluster override");
        let seeds = cell.seeds();
        let job = JobSpec::new(cell.workload, cell.input_bytes);
        let runs: Vec<JobRun> = seeds
            .iter()
            .map(|&seed| run_job(cluster, &cell.config, &job, seed))
            .collect();
        let summaries: Vec<RunSummary> = runs
            .iter()
            .zip(&seeds)
            .map(|(run, &seed)| RunSummary::from_run(run, seed, cluster))
            .collect();
        let traces: Vec<keddah_flowcap::Trace> = runs.into_iter().map(|r| r.trace).collect();
        let model = fit_model(&Dataset::from_traces(&traces)).ok();

        let result = CellResult {
            workload: cell.workload.name().to_string(),
            input_bytes: cell.input_bytes,
            config_hash: cell.config_hash(),
            seeds,
            runs: summaries,
            model,
        };
        self.cache
            .lock()
            .expect("cache lock")
            .insert(key, result.clone());
        result
    }

    /// Runs a successive-halving sweep over `groups` of cells under a
    /// cell-execution budget, eliminating dominated groups at cheap
    /// fidelity before paying for full-fidelity runs.
    ///
    /// Each *group* is the unit of elimination (the provisioning search
    /// groups one candidate configuration's cells across the workload
    /// mix; a plain cell sweep uses singleton groups). Rounds run every
    /// surviving group at `min(cell.repeats, round_repeats)` repeats,
    /// starting from `budget.probe_repeats` and doubling; after each
    /// probe round, `score` folds a group's results — it receives the
    /// group's input index so group-specific context (e.g. a candidate's
    /// hardware cost) can weigh in — into a figure of merit (lower is
    /// better) and only the best `keep_fraction` of groups advance. The final round runs survivors at their cells'
    /// full `repeats`, and those results are bit-identical to an
    /// unbudgeted [`Runner::run_matrix`] over the same cells.
    ///
    /// **Determinism.** Results are byte-identical for any
    /// `parallelism`: cells keep identity-derived seeds, and every
    /// elimination decision folds scores in canonical group order
    /// (ties broken by input index), never in completion order. The
    /// cell budget trims a round by the same ranking before launch.
    ///
    /// # Panics
    ///
    /// Panics if `budget.keep_fraction` is outside `(0, 1]`,
    /// `budget.probe_repeats` is zero, or a cell's config/cluster
    /// fails validation.
    #[must_use]
    pub fn run_budgeted<F>(
        &self,
        groups: &[Vec<MatrixCell>],
        score: F,
        budget: &SweepBudget,
        parallelism: usize,
    ) -> BudgetedSweep
    where
        F: Fn(usize, &[CellResult]) -> f64,
    {
        assert!(
            budget.keep_fraction > 0.0 && budget.keep_fraction <= 1.0,
            "keep_fraction must be in (0, 1]"
        );
        assert!(budget.probe_repeats >= 1, "probe_repeats must be >= 1");
        let mut out: Vec<BudgetedGroup> = groups
            .iter()
            .map(|g| BudgetedGroup {
                results: Vec::new(),
                fidelity: 0,
                // An empty group has nothing left to simulate.
                full_fidelity: g.is_empty(),
                eliminated_round: None,
            })
            .collect();
        // Survivors in canonical (input) order throughout.
        let mut survivors: Vec<usize> = (0..groups.len())
            .filter(|&i| !groups[i].is_empty())
            .collect();
        let mut cell_runs = 0usize;
        let mut rounds = 0usize;
        let mut round_repeats = budget.probe_repeats;
        while !survivors.is_empty() {
            // Trim the round to the remaining cell budget: survivors are
            // already ranked (canonical order in round one, score order
            // after), so take the affordable prefix.
            let mut to_run: Vec<usize> = Vec::new();
            let mut round_cost = 0usize;
            for &g in &survivors {
                let cost = groups[g].len();
                if cell_runs + round_cost + cost > budget.max_cell_runs {
                    break;
                }
                round_cost += cost;
                to_run.push(g);
            }
            if to_run.is_empty() {
                break;
            }
            to_run.sort_unstable();
            rounds += 1;

            // One flat matrix for the whole round, in canonical order.
            let cells: Vec<MatrixCell> = to_run
                .iter()
                .flat_map(|&g| {
                    groups[g].iter().map(|cell| {
                        let mut probe = cell.clone();
                        probe.repeats = cell.repeats.min(round_repeats);
                        probe
                    })
                })
                .collect();
            let results = self.run_matrix(&cells, parallelism);
            cell_runs += cells.len();

            // Scatter results back to their groups.
            let mut cursor = 0usize;
            let mut final_round = true;
            for &g in &to_run {
                let n = groups[g].len();
                out[g].results = results[cursor..cursor + n].to_vec();
                out[g].fidelity = round_repeats;
                out[g].full_fidelity = groups[g].iter().all(|c| c.repeats <= round_repeats);
                final_round &= out[g].full_fidelity;
                cursor += n;
            }
            if final_round {
                break;
            }

            // Score in canonical order, keep the best fraction (ties
            // break toward the earlier group), and carry the ranking
            // into the next round's budget trim.
            let mut ranked: Vec<(usize, f64)> = to_run
                .iter()
                .map(|&g| (g, score(g, &out[g].results)))
                .collect();
            ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let keep = ((ranked.len() as f64 * budget.keep_fraction).ceil() as usize)
                .clamp(1, ranked.len());
            for &(g, _) in &ranked[keep..] {
                out[g].eliminated_round = Some(rounds);
            }
            survivors = ranked[..keep].iter().map(|&(g, _)| g).collect();
            round_repeats = round_repeats.saturating_mul(2);
        }
        BudgetedSweep {
            groups: out,
            cell_runs,
            rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_keeps_input_order_for_any_width() {
        let items: Vec<u64> = (0..37).collect();
        // Unequal work, so workers finish out of order.
        let slow_square = |&x: &u64| (0..x * 1000).fold(x * x, |acc, _| std::hint::black_box(acc));
        let want: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for jobs in [0, 1, 2, 5, 64] {
            assert_eq!(par_map(&items, jobs, slow_square), want, "jobs {jobs}");
        }
        assert!(par_map(&[] as &[u64], 4, slow_square).is_empty());
    }

    #[test]
    #[should_panic(expected = "item 3")]
    fn par_map_reraises_a_worker_panic() {
        let _ = par_map(&[1, 2, 3, 4], 2, |&x: &u32| {
            assert_ne!(x, 3, "item 3");
            x
        });
    }

    fn small_cell(workload: Workload) -> MatrixCell {
        MatrixCell::new(
            workload,
            512 << 20,
            HadoopConfig::default().with_reducers(4),
            2,
        )
    }

    #[test]
    fn seeds_depend_on_every_identity_component() {
        let base = small_cell(Workload::TeraSort);
        let other_workload = MatrixCell {
            workload: Workload::Grep,
            ..base.clone()
        };
        let other_size = MatrixCell {
            input_bytes: base.input_bytes * 2,
            ..base.clone()
        };
        let other_config = MatrixCell {
            config: base.config.clone().with_reducers(8),
            ..base.clone()
        };
        let other_cluster = base.clone().with_cluster(ClusterSpec::racks(4, 4));
        let s = base.seed_for(0);
        assert_ne!(s, other_workload.seed_for(0));
        assert_ne!(s, other_size.seed_for(0));
        assert_ne!(s, other_config.seed_for(0));
        assert_ne!(s, other_cluster.seed_for(0));
        assert_ne!(s, base.seed_for(1));
    }

    #[test]
    fn cluster_override_is_part_of_cell_identity() {
        let runner = Runner::new(ClusterSpec::racks(2, 2));
        let base = small_cell(Workload::TeraSort);
        let narrow = base.clone().with_cluster(ClusterSpec::racks(1, 4));
        let wide = base.clone().with_cluster(ClusterSpec::racks(4, 1));
        assert_eq!(base.cluster_hash(), 0, "legacy cells keep zero hash");
        assert_ne!(narrow.cluster_hash(), wide.cluster_hash());
        let r_narrow = runner.run_cell(&narrow);
        let r_wide = runner.run_cell(&wide);
        assert_eq!(
            runner.cache_hits(),
            0,
            "different clusters never share a memo entry"
        );
        // One rack cannot cross racks; four racks of one node must.
        assert!(r_narrow.runs.iter().all(|r| {
            // Master flows still count as crossing (management network).
            r.cross_rack_bytes <= r.bytes
        }));
        assert!(r_wide.runs.iter().any(|r| r.cross_rack_bytes > 0));
        assert_ne!(r_narrow, r_wide);
    }

    #[test]
    fn seeds_are_stable_values() {
        // Pin the derivation: changing it silently re-seeds every
        // experiment in the repo.
        let cell = small_cell(Workload::TeraSort);
        assert_eq!(cell.seeds(), vec![cell.seed_for(0), cell.seed_for(1)]);
        assert_eq!(
            derive_seed(Workload::TeraSort, 1, 2, 3),
            derive_seed(Workload::TeraSort, 1, 2, 3)
        );
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn config_hash_tracks_config_changes() {
        let cell = small_cell(Workload::WordCount);
        let mut tweaked = cell.clone();
        tweaked.config.slowstart = 0.5;
        assert_ne!(cell.config_hash(), tweaked.config_hash());
        assert_eq!(cell.config_hash(), cell.clone().config_hash());
    }

    #[test]
    fn cell_runs_summarize_the_capture() {
        let runner = Runner::new(ClusterSpec::racks(2, 2));
        let result = runner.run_cell(&small_cell(Workload::TeraSort));
        assert_eq!(result.workload, "terasort");
        assert_eq!(result.runs.len(), 2);
        assert_eq!(result.seeds.len(), 2);
        for run in &result.runs {
            assert!(run.flows > 0);
            assert!(run.shuffle.bytes > 0, "terasort shuffles");
            assert!(run.duration_secs > 0.0);
            assert_eq!(
                run.bytes,
                run.hdfs_read.bytes + run.shuffle.bytes + run.hdfs_write.bytes + run.control.bytes,
                "components partition the wire bytes"
            );
            assert!(
                run.cross_rack_bytes > 0 && run.cross_rack_bytes <= run.bytes,
                "two racks force some shuffle across the core"
            );
        }
        let model = result.model.expect("enough traffic to fit");
        assert_eq!(model.workload, "terasort");
    }

    #[test]
    fn duplicate_cells_hit_the_cache() {
        let runner = Runner::new(ClusterSpec::racks(2, 2));
        let cell = small_cell(Workload::Grep);
        let first = runner.run_cell(&cell);
        assert_eq!(runner.cache_hits(), 0);
        let second = runner.run_cell(&cell);
        assert_eq!(runner.cache_hits(), 1);
        assert_eq!(first, second);
    }

    #[test]
    fn matrix_results_keep_cell_order() {
        let runner = Runner::new(ClusterSpec::racks(2, 2));
        let cells = vec![
            small_cell(Workload::Grep),
            small_cell(Workload::WordCount),
            small_cell(Workload::TeraGen),
        ];
        let results = runner.run_matrix(&cells, 3);
        let names: Vec<&str> = results.iter().map(|r| r.workload.as_str()).collect();
        assert_eq!(names, ["grep", "wordcount", "teragen"]);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let runner = Runner::new(ClusterSpec::racks(1, 2));
        assert!(runner.run_matrix(&[], 4).is_empty());
    }

    /// Cells that differ only in `repeats` (the budgeted runner's probe
    /// fidelity) must never share a memo entry: a probe at 1 repeat
    /// followed by the full cell must re-simulate, not serve the stale
    /// one-run result.
    #[test]
    fn probe_fidelity_never_serves_stale_cache() {
        let runner = Runner::new(ClusterSpec::racks(2, 2));
        let full = small_cell(Workload::TeraSort);
        let mut probe = full.clone();
        probe.repeats = 1;
        let p = runner.run_cell(&probe);
        assert_eq!(p.runs.len(), 1);
        let f = runner.run_cell(&full);
        assert_eq!(runner.cache_hits(), 0, "fidelities must not collide");
        assert_eq!(f.runs.len(), 2);
        // The probe's single run is the full cell's first repeat: seeds
        // are per-repeat, independent of the repeat count.
        assert_eq!(f.runs[0], p.runs[0]);
    }

    fn reducer_sweep(reducer_counts: &[u32], repeats: u32) -> Vec<Vec<MatrixCell>> {
        reducer_counts
            .iter()
            .map(|&r| {
                vec![MatrixCell::new(
                    Workload::TeraSort,
                    256 << 20,
                    HadoopConfig::default().with_reducers(r),
                    repeats,
                )]
            })
            .collect()
    }

    fn mean_duration(results: &[CellResult]) -> f64 {
        results
            .iter()
            .map(CellResult::mean_duration_secs)
            .sum::<f64>()
            / results.len() as f64
    }

    #[test]
    fn budgeted_sweep_eliminates_and_survivors_match_full_runs() {
        let groups = reducer_sweep(&[1, 2, 4, 8], 2);
        let budget = SweepBudget {
            probe_repeats: 1,
            keep_fraction: 0.5,
            ..SweepBudget::default()
        };
        let runner = Runner::new(ClusterSpec::racks(2, 2));
        let sweep = runner.run_budgeted(&groups, |_, r| mean_duration(r), &budget, 2);
        let survivors: Vec<usize> = (0..sweep.groups.len())
            .filter(|&g| sweep.groups[g].full_fidelity)
            .collect();
        assert_eq!(survivors.len(), 2, "half eliminated after the probe");
        let eliminated = sweep
            .groups
            .iter()
            .filter(|g| g.eliminated_round == Some(1))
            .count();
        assert_eq!(eliminated, 2);
        // Survivor results are exactly the unbudgeted cell results.
        let fresh = Runner::new(ClusterSpec::racks(2, 2));
        for &g in &survivors {
            assert_eq!(sweep.groups[g].results, vec![fresh.run_cell(&groups[g][0])]);
        }
        // Eliminated groups still carry their probe-fidelity evidence.
        for g in &sweep.groups {
            assert_eq!(g.results.len(), 1);
            assert!(g.fidelity >= 1);
        }
    }

    #[test]
    fn budgeted_sweep_is_deterministic_across_parallelism() {
        let groups = reducer_sweep(&[1, 2, 4, 8, 16], 2);
        let budget = SweepBudget {
            probe_repeats: 1,
            keep_fraction: 0.5,
            ..SweepBudget::default()
        };
        let serial = Runner::new(ClusterSpec::racks(2, 2)).run_budgeted(
            &groups,
            |_, r| mean_duration(r),
            &budget,
            1,
        );
        let wide = Runner::new(ClusterSpec::racks(2, 2)).run_budgeted(
            &groups,
            |_, r| mean_duration(r),
            &budget,
            8,
        );
        assert_eq!(serial, wide, "elimination folds in canonical order");
    }

    #[test]
    fn budgeted_sweep_respects_the_cell_budget() {
        let groups = reducer_sweep(&[1, 2, 4, 8], 2);
        let budget = SweepBudget {
            max_cell_runs: 5,
            probe_repeats: 1,
            keep_fraction: 0.5,
        };
        let runner = Runner::new(ClusterSpec::racks(2, 2));
        let sweep = runner.run_budgeted(&groups, |_, r| mean_duration(r), &budget, 2);
        assert!(sweep.cell_runs <= 5, "budget is a hard ceiling");
        // Probe round costs 4; only one of the two survivors fits the
        // last execution slot, and the trim favours the better score.
        assert!(sweep.cell_runs == 5);
        assert_eq!(sweep.groups.iter().filter(|g| g.full_fidelity).count(), 1);
    }

    #[test]
    fn empty_groups_are_complete_without_running() {
        let runner = Runner::new(ClusterSpec::racks(1, 2));
        let sweep = runner.run_budgeted(&[Vec::new()], |_, _| 0.0, &SweepBudget::default(), 1);
        assert_eq!(sweep.cell_runs, 0);
        assert!(sweep.groups[0].full_fidelity);
    }
}
