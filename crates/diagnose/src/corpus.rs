//! Building labelled diagnosis corpora: seeded fault scenarios swept
//! across the paper workloads, each rendered into an on-disk cell of
//! ground-truth label plus observable evidence.
//!
//! One cell is one experiment: capture a clean baseline job, draw a
//! fault scenario of the cell's class, capture/replay the degraded run,
//! and keep only what a real operator would have — metrics snapshots,
//! flow-completion samples, abort endpoints ([`crate::Evidence`]) —
//! next to the injected spec (`label.json`, read only by the eval
//! harness). The whole sweep is deterministic and embarrassingly
//! parallel; artefacts are byte-identical for any worker count because
//! cells are computed independently and written in cell order.

use std::fs;
use std::path::Path;

use keddah_core::replay::{replay_faulted, replay_observed, trace_to_flows};
use keddah_core::runner::par_map;
use keddah_faults::{generate, FaultClass, FaultGen, FaultKind, FaultSpec};
use keddah_hadoop::{run_dag, run_job, ClusterSpec, HadoopConfig, JobSpec, Workload};
use keddah_netsim::{SimOptions, StaticSource, Topology};
use keddah_obs::Obs;
use serde::{Deserialize, Serialize};

use crate::{DiagnoseError, Evidence, Result};

/// Racks in the capture cluster.
const RACKS: u32 = 2;
/// Workers per rack; `RACKS * NODES_PER_RACK` workers plus master 0.
const NODES_PER_RACK: u32 = 3;
/// Job input size: 8 blocks at [`BLOCK_BYTES`].
const INPUT_BYTES: u64 = 256 << 20;
/// HDFS block size for corpus jobs.
const BLOCK_BYTES: u64 = 32 << 20;
/// Reduce tasks per job (one per worker).
const REDUCERS: u32 = 6;
/// Bounded rejection sampling: scenario draws per cell before giving up.
const MAX_DRAWS: u64 = 512;
/// Cap on impact-verifying trial replays per cell (each is a full
/// network simulation of the cell's flows).
const MAX_TRIAL_REPLAYS: u64 = 64;

/// Number of hosts the capture cluster exposes (master + workers).
const HOSTS: u32 = RACKS * NODES_PER_RACK + 1;

/// The replay fabric: 3 racks of 3 hosts behind 2 spines. Hosts 0–6
/// carry the capture cluster's nodes; directed link ids `2h`/`2h+1` are
/// host `h`'s uplink/downlink, ids 18.. are leaf–spine fabric links.
#[must_use]
pub fn fabric() -> Topology {
    Topology::leaf_spine(3, 3, 2, 1e9, 2.0)
}

fn corpus_cluster() -> ClusterSpec {
    ClusterSpec::racks(RACKS, NODES_PER_RACK)
}

fn corpus_config() -> HadoopConfig {
    HadoopConfig::default()
        .with_reducers(REDUCERS)
        .with_block_bytes(BLOCK_BYTES)
}

fn corpus_options() -> SimOptions {
    SimOptions {
        mouse_threshold: 10_000,
        ..SimOptions::default()
    }
}

/// One planned corpus cell: which workload, which fault class, which
/// seed lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// Workload under test.
    pub workload: Workload,
    /// Fault scenario class to inject ([`FaultClass::None`] = healthy).
    pub class: FaultClass,
    /// Seed lane; distinct lanes draw distinct runs and scenarios.
    pub seed: u64,
}

impl CellSpec {
    /// The cell's directory name, `<workload>_<class>_<seed>`.
    #[must_use]
    pub fn name(&self) -> String {
        format!(
            "{}_{}_{}",
            self.workload.name(),
            self.class.label(),
            self.seed
        )
    }
}

/// The full sweep plan: `workloads` × every [`FaultClass`] × `seeds`
/// lanes, in that nesting order (workload-major).
#[must_use]
pub fn plan(workloads: &[Workload], seeds: u64) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for &workload in workloads {
        for class in FaultClass::ALL {
            for seed in 0..seeds {
                cells.push(CellSpec {
                    workload,
                    class,
                    seed,
                });
            }
        }
    }
    cells
}

/// A cell's ground truth, written to `label.json`. Only the eval
/// harness reads this — the classifier sees `evidence.json` alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellLabel {
    /// Workload name.
    pub workload: String,
    /// The injected scenario class (the answer).
    pub class: FaultClass,
    /// Seed lane the cell was drawn from.
    pub seed: u64,
    /// The exact injected schedule, for forensics.
    pub spec: FaultSpec,
}

/// One materialised corpus cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Directory name within the corpus.
    pub name: String,
    /// Ground truth.
    pub label: CellLabel,
    /// Observable inputs.
    pub evidence: Evidence,
}

/// Minimum degraded/baseline makespan stretch for an accepted
/// link-degradation scenario: the slowdown must be observable, or the
/// cell would carry a `link_degraded` label over no-op evidence.
/// Matches the classifier's [`crate::verdict::MAKESPAN_TAU`] so every
/// accepted cell clears a detection threshold.
const DEGRADE_MIN_STRETCH: f64 = 1.15;

/// Alternative degrade-impact criterion: some traffic component's mean
/// FCT slowed by at least this factor (matches the classifier's
/// slowdown threshold [`crate::verdict::TAU`]). Compute-sparse
/// workloads can absorb a slow link without moving the makespan.
const DEGRADE_MIN_MEAN_RATIO: f64 = 1.2;

fn scenario_gen(class: FaultClass, horizon: u64) -> FaultGen {
    FaultGen {
        hosts: HOSTS,
        links: u32::try_from(fabric().link_count()).unwrap_or(u32::MAX),
        horizon_nanos: horizon,
        node_crashes: u32::from(class == FaultClass::NodeCrash),
        recover_after_nanos: None,
        link_downs: u32::from(class == FaultClass::LinkDown),
        link_degrades: u32::from(class == FaultClass::LinkDegraded),
        partitions: u32::from(class == FaultClass::Partition),
    }
}

/// Cheap structural screen on a drawn scenario, before any replay:
/// fault times that leave a pre-fault sample, link ids that carried
/// baseline traffic (`link_load` — which flow crosses which directed
/// link depends on capture-side connection orientation, so link ids
/// cannot be picked from the topology alone), deep-enough degrades.
fn plausible(spec: &FaultSpec, horizon: u64, link_load: &[u64]) -> bool {
    let max_load = link_load.iter().copied().max().unwrap_or(0);
    let Some(fault) = spec.faults.first() else {
        return false;
    };
    match &fault.kind {
        // Fire after some flows completed, so the pre-fault half of
        // the degraded run still yields samples.
        FaultKind::NodeCrash { .. } | FaultKind::Partition { .. } => fault.at_nanos >= horizon / 4,
        // A loaded leaf–spine link: the fabric has a second spine, so
        // the failure is routable-around (the reroute signature) yet
        // flows actually cross it.
        FaultKind::LinkDown { link } => {
            *link >= 18 && link_load.get(*link as usize).copied().unwrap_or(0) > 0
        }
        // A heavily loaded link, degraded deeply and early enough to
        // slow a visible share of the run.
        FaultKind::LinkDegraded { link, factor } => {
            link_load.get(*link as usize).copied().unwrap_or(0) * 4 >= max_load
                && *factor <= 0.3
                && fault.at_nanos <= horizon / 4
        }
        FaultKind::NodeRecover { .. } => false,
    }
}

/// Draws a capture-time node-crash scenario by bounded rejection
/// sampling (deterministic in its arguments).
fn draw_crash(span_nanos: u64, fault_seed: u64, link_load: &[u64]) -> Result<FaultSpec> {
    let horizon = (span_nanos / 2).max(1);
    for attempt in 0..MAX_DRAWS {
        let seed = fault_seed.wrapping_add(attempt.wrapping_mul(7919));
        let spec = generate(&scenario_gen(FaultClass::NodeCrash, horizon), seed);
        if plausible(&spec, horizon, link_load) {
            return Ok(spec);
        }
    }
    Err(DiagnoseError::Invalid(format!(
        "no acceptable node_crash scenario within {MAX_DRAWS} draws (seed {fault_seed})"
    )))
}

/// Draws a replay-time scenario (link down/degrade, partition) and
/// verifies its *impact* by trial-replaying the baseline flows under
/// it: a downed link only registers reroutes if flows are in flight
/// when it fires, and a degrade only matters if the link was a
/// bottleneck — scenarios without observable effect would be label
/// noise, so they are redrawn. Returns the accepted scenario with its
/// (already observed) degraded replay.
#[allow(clippy::too_many_arguments)]
fn draw_replay_scenario(
    class: FaultClass,
    span_nanos: u64,
    fault_seed: u64,
    topo: &Topology,
    flows: &[keddah_netsim::FlowSpec],
    options: SimOptions,
    baseline: &keddah_core::replay::ReplayReport,
) -> Result<(FaultSpec, keddah_core::replay::ReplayReport, Obs)> {
    // Degrades and partitions fire in the first half so the run has a
    // pre-fault phase; a downed link needs flows in flight, which may
    // only exist late (e.g. a shuffle burst near the end), so its draws
    // cover the full span and the window screen below places them.
    let horizon = if class == FaultClass::LinkDown {
        span_nanos.max(1)
    } else {
        (span_nanos / 2).max(1)
    };
    let link_load = &baseline.sim.link_bytes;
    // Per-link active windows: a downed link only forces reroutes while
    // a flow is in flight *on that link*, so firing times are screened
    // per link before paying for a trial replay. The simulator routes
    // flow `i` with ECMP hash `i`, and pre-fault dynamics match the
    // baseline exactly (paired replays), so each baseline flow's links
    // and (start, finish) window are exact. Mice are skipped — below
    // the fast-path threshold they are never in flight to reroute.
    let link_windows: Vec<(u32, u64, u64)> = baseline
        .sim
        .results
        .iter()
        .enumerate()
        .filter(|(_, r)| r.spec.bytes >= 64 << 10)
        .flat_map(|(i, r)| {
            topo.route(r.spec.src, r.spec.dst, i as u64)
                .into_iter()
                .map(move |l| (l.0, r.spec.start.as_nanos(), r.finish.as_nanos()))
        })
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let impact = |report: &keddah_core::replay::ReplayReport| -> bool {
        match class {
            FaultClass::LinkDown => report.sim.faults.rerouted_flows > 0,
            // A degrade is observable when the whole run stretched, or
            // when some traffic component slowed markedly on average
            // (compute-sparse workloads can absorb a slow link without
            // moving the makespan).
            FaultClass::LinkDegraded => {
                report.makespan_secs() >= DEGRADE_MIN_STRETCH * baseline.makespan_secs()
                    || report.fct_by_component.iter().any(|(component, degraded)| {
                        baseline.fct_by_component.get(component).is_some_and(|b| {
                            b.len() >= 8
                                && degraded.len() >= 8
                                && mean(b) > 0.0
                                && mean(degraded) >= DEGRADE_MIN_MEAN_RATIO * mean(b)
                        })
                    })
            }
            FaultClass::Partition => !report.sim.faults.aborted.is_empty(),
            _ => true,
        }
    };
    let mut trials = 0u64;
    for attempt in 0..MAX_DRAWS {
        let seed = fault_seed.wrapping_add(attempt.wrapping_mul(7919));
        let mut spec = generate(&scenario_gen(class, horizon), seed);
        if !plausible(&spec, horizon, link_load) {
            continue;
        }
        if class == FaultClass::LinkDown {
            let FaultKind::LinkDown { link } = spec.faults[0].kind else {
                continue;
            };
            // Snap the drawn firing time into one of the link's windows
            // (chosen by the draw, midpoint fired) — in-flight windows
            // cover a sliver of the span, so pure rejection on the time
            // axis would almost never hit one.
            let windows: Vec<(u64, u64)> = link_windows
                .iter()
                .filter(|&&(l, _, _)| l == link)
                .map(|&(_, start, finish)| (start, finish))
                .collect();
            if windows.is_empty() {
                continue;
            }
            let (start, finish) = windows[(seed % windows.len() as u64) as usize];
            spec.faults[0].at_nanos = start + (finish - start) / 2;
        }
        trials += 1;
        if trials > MAX_TRIAL_REPLAYS {
            break;
        }
        let obs = Obs::enabled();
        let report = replay_faulted(
            topo,
            &mut StaticSource::new(flows.to_vec()),
            &spec,
            options,
            &obs,
        )
        .map_err(|e| DiagnoseError::Invalid(e.to_string()))?;
        if impact(&report) {
            return Ok((spec, report, obs));
        }
    }
    Err(DiagnoseError::Invalid(format!(
        "no {class} scenario with observable impact within {MAX_DRAWS} draws (seed {fault_seed})"
    )))
}

/// Builds one cell end to end. Deterministic in `spec` alone.
///
/// # Errors
///
/// Returns [`DiagnoseError::Invalid`] when scenario sampling or the
/// replay rejects the cell — a corpus configuration bug, not bad input.
pub fn build_cell(spec: &CellSpec) -> Result<Cell> {
    let cluster = corpus_cluster();
    let config = corpus_config();
    let job = JobSpec::new(spec.workload, INPUT_BYTES);
    let topo = fabric();
    let options = corpus_options();
    let invalid = |e: &dyn std::fmt::Display| DiagnoseError::Invalid(e.to_string());

    // Paired design: baseline and degraded captures share a seed, so
    // the two sides differ *only* by the injected fault. An unpaired
    // baseline (different seed) carries enough natural placement
    // variance to mimic a degradation and drown the real signal.
    let capture_seed = 11 + 100 * spec.seed;
    let fault_seed = (spec.workload as u64)
        .wrapping_mul(1_000_003)
        .wrapping_add(spec.class as u64 * 10_007)
        .wrapping_add(spec.seed * 101 + 17);

    let baseline_run = run_job(&cluster, &config, &job, capture_seed);
    let span_nanos = baseline_run.trace.makespan().as_nanos();
    let baseline_flows = trace_to_flows(&baseline_run.trace, &topo).map_err(|e| invalid(&e))?;

    let baseline_obs = Obs::enabled();
    let baseline_replay = replay_observed(&topo, &baseline_flows, options, &baseline_obs);
    baseline_run.counters.record_obs(&baseline_obs);

    // Node faults act at capture time (the capture side has no network)
    // and again at replay time; link faults and partitions act at
    // replay time only, so their capture is the clean one and the
    // second job run is skipped.
    let (fault_spec, degraded_replay, degraded_obs) = match spec.class {
        FaultClass::None => {
            let obs = Obs::enabled();
            let replay = replay_observed(&topo, &baseline_flows, options, &obs);
            baseline_run.counters.record_obs(&obs);
            (FaultSpec::empty(), replay, obs)
        }
        FaultClass::NodeCrash => {
            let fault_spec = draw_crash(span_nanos, fault_seed, &baseline_replay.sim.link_bytes)?;
            let (degraded_run, _) = run_dag(
                &cluster,
                &config,
                &job.workload.dag(),
                job.input_bytes,
                capture_seed,
                &fault_spec,
            );
            let flows = trace_to_flows(&degraded_run.trace, &topo).map_err(|e| invalid(&e))?;
            let obs = Obs::enabled();
            let mut source = StaticSource::new(flows);
            let replay = replay_faulted(&topo, &mut source, &fault_spec, options, &obs)
                .map_err(|e| invalid(&e))?;
            degraded_run.counters.record_obs(&obs);
            (fault_spec, replay, obs)
        }
        FaultClass::LinkDown | FaultClass::LinkDegraded | FaultClass::Partition => {
            let (fault_spec, replay, obs) = draw_replay_scenario(
                spec.class,
                span_nanos,
                fault_seed,
                &topo,
                &baseline_flows,
                options,
                &baseline_replay,
            )?;
            baseline_run.counters.record_obs(&obs);
            (fault_spec, replay, obs)
        }
    };

    let evidence = Evidence::from_replays(
        spec.workload.name(),
        &degraded_replay,
        degraded_obs.metrics(),
        &baseline_replay,
        baseline_obs.metrics(),
    );
    Ok(Cell {
        name: spec.name(),
        label: CellLabel {
            workload: spec.workload.name().to_string(),
            class: spec.class,
            seed: spec.seed,
            spec: fault_spec,
        },
        evidence,
    })
}

/// The corpus index, written to `manifest.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Cell directory names, in build (= sorted sweep) order.
    pub cells: Vec<String>,
}

impl Manifest {
    /// Reads a corpus manifest.
    ///
    /// # Errors
    ///
    /// [`DiagnoseError::Io`] / [`DiagnoseError::Parse`] as usual.
    pub fn load(dir: &Path) -> Result<Manifest> {
        let path = dir.join("manifest.json");
        let shown = path.display().to_string();
        let input = fs::read_to_string(&path).map_err(|e| DiagnoseError::io(&shown, e))?;
        let value =
            serde::json::parse(&input).map_err(|e| DiagnoseError::parse(&shown, e.to_string()))?;
        Manifest::from_value(&value).map_err(|e| DiagnoseError::parse(&shown, e.to_string()))
    }
}

/// Builds every planned cell (in parallel across `jobs` workers) and
/// writes the corpus under `out`: one `<cell>/label.json` +
/// `<cell>/evidence.json` per cell plus a `manifest.json` index.
///
/// Workers only *compute*; all writes happen on the calling thread in
/// plan order, so the artefact bytes never depend on `jobs`.
///
/// # Errors
///
/// Fails on the first cell that cannot be built or written.
pub fn build(out: &Path, workloads: &[Workload], seeds: u64, jobs: usize) -> Result<Manifest> {
    let cells = plan(workloads, seeds);
    let built = par_map(&cells, jobs, build_cell);

    let io = |path: &Path, e: std::io::Error| DiagnoseError::io(path.display().to_string(), e);
    fs::create_dir_all(out).map_err(|e| io(out, e))?;
    let mut names = Vec::with_capacity(cells.len());
    for cell in built {
        let cell = cell?;
        let dir = out.join(&cell.name);
        fs::create_dir_all(&dir).map_err(|e| io(&dir, e))?;
        let label_path = dir.join("label.json");
        fs::write(
            &label_path,
            serde::json::write_pretty(&cell.label.to_value()),
        )
        .map_err(|e| io(&label_path, e))?;
        cell.evidence.save(&dir.join("evidence.json"))?;
        names.push(cell.name);
    }
    let manifest = Manifest { cells: names };
    let manifest_path = out.join("manifest.json");
    fs::write(
        &manifest_path,
        serde::json::write_pretty(&manifest.to_value()),
    )
    .map_err(|e| io(&manifest_path, e))?;
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_the_sweep_in_stable_order() {
        let cells = plan(Workload::PAPER, 2);
        assert_eq!(
            cells.len(),
            Workload::PAPER.len() * FaultClass::ALL.len() * 2
        );
        let names: Vec<String> = cells.iter().map(CellSpec::name).collect();
        assert_eq!(names[0], format!("{}_none_0", Workload::PAPER[0].name()));
        // No duplicates.
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    /// A synthetic baseline load profile: light host links, one busy
    /// fabric link per spine.
    fn load() -> Vec<u64> {
        let mut load = vec![1_000u64; 30];
        load[20] = 8_000_000;
        load[24] = 6_000_000;
        load[4] = 7_000_000; // a busy host link is degrade-eligible too
        load
    }

    #[test]
    fn crash_draws_target_workers_after_warmup() {
        let span = 40_000_000_000; // 40 s
        for seed in 0..4 {
            let spec = draw_crash(span, seed, &load()).unwrap();
            assert!(matches!(
                spec.faults[0].kind,
                FaultKind::NodeCrash { node } if (1..HOSTS).contains(&node)
            ));
            assert!(spec.faults[0].at_nanos >= span / 8);
        }
        assert_eq!(
            draw_crash(span, 7, &load()).unwrap(),
            draw_crash(span, 7, &load()).unwrap()
        );
    }

    #[test]
    fn plausibility_screen_rejects_unloaded_links() {
        let horizon = 20_000_000_000u64;
        let fault = |kind: FaultKind, at_nanos: u64| FaultSpec {
            faults: vec![keddah_faults::TimedFault { at_nanos, kind }],
        };
        // Host-side or idle fabric links are not link_down candidates.
        assert!(!plausible(
            &fault(FaultKind::LinkDown { link: 4 }, 0),
            horizon,
            &load()
        ));
        assert!(plausible(
            &fault(FaultKind::LinkDown { link: 20 }, 0),
            horizon,
            &load()
        ));
        // Degrades must hit a heavily loaded link, deeply and early.
        let degrade = |link, factor, at| fault(FaultKind::LinkDegraded { link, factor }, at);
        assert!(plausible(&degrade(20, 0.2, 0), horizon, &load()));
        assert!(!plausible(&degrade(21, 0.2, 0), horizon, &load()));
        assert!(!plausible(&degrade(20, 0.8, 0), horizon, &load()));
        assert!(!plausible(&degrade(20, 0.2, horizon), horizon, &load()));
        // Crashes and partitions must leave a pre-fault window.
        assert!(!plausible(
            &fault(FaultKind::NodeCrash { node: 3 }, 0),
            horizon,
            &load()
        ));
        assert!(plausible(
            &fault(FaultKind::Partition { cut: vec![1, 2] }, horizon / 2),
            horizon,
            &load()
        ));
    }
}
