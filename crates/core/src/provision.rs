//! Provisioning search: pick a cluster configuration for a workload mix.
//!
//! `keddah provision` answers the capacity-planning question the paper's
//! models exist to serve: *given this workload mix and this SLO, which
//! cluster shape and Hadoop configuration should I buy?* The search
//! space is the cross product of node count (racks × nodes per rack),
//! core oversubscription, reducer count, slowstart and map slots per
//! node; the inner loop is the deterministic matrix [`Runner`].
//!
//! The search is budgeted, in two layers:
//!
//! 1. **Surrogates prune.** A handful of *seed* configurations run real
//!    (probe-fidelity) simulations; cheap linear predictors fitted on
//!    them — p99 completion and mean makespan against work-per-slot,
//!    cross-rack byte share against rack spread — score every candidate
//!    and only the most promising fraction goes on to full DES runs.
//! 2. **Simulations decide.** Survivors run through
//!    [`Runner::run_budgeted`] (successive halving under a cell budget),
//!    and **only full-fidelity simulated candidates are ranked**.
//!    Surrogate predictions are never a ranking input; they are reported
//!    next to the simulated numbers with their relative error, so the
//!    pruning layer's honesty is measurable in every artefact.
//!
//! Determinism: candidates enumerate in canonical cross-product order,
//! every elimination folds in that order, and all scoring uses
//! `total_cmp` with key tiebreaks — the ranked table and the
//! `EVAL_provision.json` artefact are byte-identical across `--jobs`
//! values and repeats.

use keddah_hadoop::{ClusterSpec, HadoopConfig, Workload};
use keddah_netsim::Topology;
use keddah_obs::Obs;
use keddah_stat::regression::Linear;
use serde::{Deserialize, Serialize};

use crate::runner::{CellResult, MatrixCell, Runner, SweepBudget};
use crate::{CoreError, Result};

/// Spine switches assumed when estimating a candidate's switching core.
const SPINES: u32 = 2;

/// One job type of the workload mix to provision for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixJob {
    /// The job type.
    pub workload: Workload,
    /// Input size in bytes per job.
    pub input_bytes: u64,
    /// Relative share of this job type in the mix (need not sum to 1).
    pub weight: f64,
}

impl MixJob {
    /// Builds one mix entry.
    #[must_use]
    pub fn new(workload: Workload, input_bytes: u64, weight: f64) -> MixJob {
        MixJob {
            workload,
            input_bytes,
            weight,
        }
    }
}

/// The service-level objective candidates are held to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Slo {
    /// Cap on the p99 job completion time across the mix, seconds.
    pub p99_secs: Option<f64>,
    /// Cap on mean core (inter-rack) utilisation, as a fraction of core
    /// capacity.
    pub max_core_util: Option<f64>,
}

impl Slo {
    /// True when at least one objective is set; an unconstrained search
    /// simply ranks by p99.
    #[must_use]
    fn is_constrained(&self) -> bool {
        self.p99_secs.is_some() || self.max_core_util.is_some()
    }
}

/// The configuration space to search: the cross product of every axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigSpace {
    /// Cluster shapes as `(racks, nodes_per_rack)`.
    pub nodes: Vec<(u32, u32)>,
    /// Core oversubscription ratios (1.0 = non-blocking).
    pub oversubscription: Vec<f64>,
    /// Reducer counts.
    pub reducers: Vec<u32>,
    /// Slowstart thresholds.
    pub slowstart: Vec<f64>,
    /// Map slots per node.
    pub slots_per_node: Vec<u32>,
}

impl ConfigSpace {
    /// Number of points in the full grid.
    #[must_use]
    pub fn grid_len(&self) -> usize {
        self.nodes.len()
            * self.oversubscription.len()
            * self.reducers.len()
            * self.slowstart.len()
            * self.slots_per_node.len()
    }

    /// Enumerates every candidate in canonical cross-product order
    /// (nodes, then oversubscription, then reducers, then slowstart,
    /// then slots) — the order every downstream tiebreak refers to.
    #[must_use]
    pub fn candidates(&self, base: &HadoopConfig) -> Vec<Candidate> {
        let mut out = Vec::with_capacity(self.grid_len());
        for &(racks, nodes_per_rack) in &self.nodes {
            for &oversubscription in &self.oversubscription {
                for &reducers in &self.reducers {
                    for &slowstart in &self.slowstart {
                        for &slots_per_node in &self.slots_per_node {
                            let config = base
                                .clone()
                                .with_reducers(reducers)
                                .with_slowstart(slowstart)
                                .with_slots_per_node(slots_per_node);
                            out.push(Candidate {
                                racks,
                                nodes_per_rack,
                                oversubscription,
                                reducers,
                                slowstart,
                                slots_per_node,
                                config,
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// One point of the configuration space, ready to simulate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Racks of workers.
    pub racks: u32,
    /// Workers per rack.
    pub nodes_per_rack: u32,
    /// Core oversubscription ratio.
    pub oversubscription: f64,
    /// Reducer count.
    pub reducers: u32,
    /// Slowstart threshold.
    pub slowstart: f64,
    /// Map slots per node.
    pub slots_per_node: u32,
    /// The base configuration with this candidate's knobs applied.
    pub config: HadoopConfig,
}

impl Candidate {
    /// Human-readable identity, also the tiebreak key in every ranking.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "{}x{} ov{:.2} r{} ss{:.2} s{}",
            self.racks,
            self.nodes_per_rack,
            self.oversubscription,
            self.reducers,
            self.slowstart,
            self.slots_per_node
        )
    }

    /// The candidate's cluster shape.
    #[must_use]
    pub fn cluster(&self) -> ClusterSpec {
        ClusterSpec::racks(self.racks, self.nodes_per_rack)
    }

    /// Worker count.
    #[must_use]
    pub fn workers(&self) -> u32 {
        self.racks * self.nodes_per_rack
    }

    /// Switch-to-switch capacity of the candidate's assumed leaf-spine
    /// fabric, in bits per second.
    #[must_use]
    pub fn core_capacity_bps(&self) -> f64 {
        Topology::leaf_spine(
            self.racks,
            self.nodes_per_rack,
            SPINES,
            self.cluster().nic_bps,
            self.oversubscription,
        )
        .core_capacity_bps()
    }

    /// Relative hardware cost: one unit per worker, plus the core —
    /// a non-blocking fabric (oversubscription 1) costs as much again
    /// as the hosts it connects, and an oversubscribed one
    /// proportionally less.
    #[must_use]
    pub fn cost_units(&self) -> f64 {
        f64::from(self.workers()) * (1.0 + 1.0 / self.oversubscription)
    }

    /// Weighted mean input MiB per map slot — the work-pressure feature
    /// the surrogate predictors regress on.
    #[must_use]
    fn work_per_slot_mib(&self, mix: &[MixJob]) -> f64 {
        let weight: f64 = mix.iter().map(|m| m.weight).sum();
        let bytes: f64 = mix
            .iter()
            .map(|m| m.weight * m.input_bytes as f64)
            .sum::<f64>()
            / weight;
        let slots = f64::from(self.workers()) * f64::from(self.slots_per_node);
        bytes / (1u64 << 20) as f64 / slots
    }

    /// The candidate's matrix cells: one per mix job, in mix order,
    /// pinned to the candidate's cluster.
    #[must_use]
    pub fn cells(&self, mix: &[MixJob], repeats: u32) -> Vec<MatrixCell> {
        mix.iter()
            .map(|m| {
                MatrixCell::new(m.workload, m.input_bytes, self.config.clone(), repeats)
                    .with_cluster(self.cluster())
            })
            .collect()
    }

    /// Validates the candidate, returning the skip reason the report
    /// surfaces instead of letting the runner panic on a bad config.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the Hadoop configuration, cluster
    /// shape or oversubscription is unusable.
    fn check(&self) -> std::result::Result<(), String> {
        if !(self.oversubscription.is_finite() && self.oversubscription >= 1.0) {
            return Err(format!(
                "oversubscription must be >= 1, got {}",
                self.oversubscription
            ));
        }
        if self.racks == 0 || self.nodes_per_rack == 0 {
            return Err("cluster needs at least one rack and one node per rack".into());
        }
        let cluster = self.cluster();
        cluster.validate().map_err(|e| e.to_string())?;
        self.config
            .validate_for(&cluster)
            .map_err(|e| e.to_string())
    }
}

/// Weighted p-th percentile of `(value, weight)` samples: the smallest
/// value whose cumulative weight reaches `p` of the total. Deterministic
/// (ties sort by value via `total_cmp`; weights fold in sorted order).
#[must_use]
fn weighted_percentile(samples: &[(f64, f64)], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = sorted.iter().map(|s| s.1).sum();
    let target = p.clamp(0.0, 1.0) * total;
    let mut cum = 0.0;
    for &(value, weight) in &sorted {
        cum += weight;
        if cum >= target {
            return value;
        }
    }
    sorted[sorted.len() - 1].0
}

fn weighted_mean(samples: &[(f64, f64)]) -> f64 {
    let total: f64 = samples.iter().map(|s| s.1).sum();
    samples.iter().map(|(v, w)| v * w).sum::<f64>() / total
}

/// What simulation measured for one candidate across the mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// Weighted p99 job completion time, seconds.
    pub p99_secs: f64,
    /// Weighted mean job makespan, seconds.
    pub mean_duration_secs: f64,
    /// Weighted mean cross-rack offered load over core capacity.
    pub core_util: f64,
    /// Weighted mean cross-rack byte share of total wire bytes.
    pub cross_share: f64,
    /// Weighted mean wire bytes per job.
    pub wire_bytes: f64,
}

/// Folds a candidate's per-mix-job cell results into mix-level numbers.
/// Each run contributes its mix job's weight, so a 3:1 mix weighs the
/// heavy job's runs three times as much at every percentile.
#[must_use]
pub fn measure(candidate: &Candidate, mix: &[MixJob], results: &[CellResult]) -> Measured {
    let mut durations = Vec::new();
    let mut rates = Vec::new();
    let mut shares = Vec::new();
    let mut bytes = Vec::new();
    for (job, cell) in mix.iter().zip(results) {
        for run in &cell.runs {
            durations.push((run.duration_secs, job.weight));
            let secs = run.duration_secs.max(1e-9);
            rates.push((run.cross_rack_bytes as f64 * 8.0 / secs, job.weight));
            shares.push((
                run.cross_rack_bytes as f64 / (run.bytes.max(1)) as f64,
                job.weight,
            ));
            bytes.push((run.bytes as f64, job.weight));
        }
    }
    Measured {
        p99_secs: weighted_percentile(&durations, 0.99),
        mean_duration_secs: weighted_mean(&durations),
        core_util: weighted_mean(&rates) / candidate.core_capacity_bps(),
        cross_share: weighted_mean(&shares),
        wire_bytes: weighted_mean(&bytes),
    }
}

/// The figure of merit the search minimizes, shared by surrogate
/// pruning, successive-halving elimination and the final ranking.
///
/// SLO violations dominate everything (scaled by how badly they miss);
/// among feasible candidates a constrained search prefers the cheapest
/// hardware (p99 as a tiny tiebreak), and an unconstrained one simply
/// prefers the fastest.
#[must_use]
fn slo_score(slo: &Slo, p99_secs: f64, core_util: f64, cost_units: f64) -> f64 {
    let mut violation = 0.0;
    if let Some(cap) = slo.p99_secs {
        if p99_secs > cap {
            violation += p99_secs / cap - 1.0;
        }
    }
    if let Some(cap) = slo.max_core_util {
        if core_util > cap {
            violation += core_util / cap - 1.0;
        }
    }
    if violation > 0.0 {
        1e9 * (1.0 + violation) + cost_units
    } else if slo.is_constrained() {
        cost_units + p99_secs.min(1e5) * 1e-6
    } else {
        p99_secs
    }
}

/// The cheap per-component load predictors fitted on seed simulations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Surrogate {
    /// p99 completion time vs work-per-slot (MiB).
    pub p99: Linear,
    /// Mean makespan vs work-per-slot (MiB).
    pub duration: Linear,
    /// Cross-rack byte share vs rack spread `1 - 1/racks`.
    pub cross_share: Linear,
    /// Mean wire bytes per job observed across seeds (knob-insensitive
    /// to first order: volume is input + replication driven).
    pub wire_bytes: f64,
}

/// Surrogate predictions for one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Predicted {
    /// Predicted weighted p99 completion time, seconds.
    pub p99_secs: f64,
    /// Predicted core utilisation fraction.
    pub core_util: f64,
}

/// Least squares when the seed set spans the feature, a constant model
/// (the mean) when it does not — three seeds sharing a rack count must
/// not kill the search, just flatten that predictor.
fn fit_or_constant(x: &[f64], y: &[f64]) -> Linear {
    Linear::fit(x, y).unwrap_or_else(|_| Linear {
        slope: 0.0,
        intercept: y.iter().sum::<f64>() / y.len().max(1) as f64,
        r_squared: 0.0,
    })
}

impl Surrogate {
    /// Fits the predictors from seed candidates and their measurements.
    /// Returns `None` when no seed produced a measurement.
    #[must_use]
    pub fn fit(seeds: &[(&Candidate, Measured)], mix: &[MixJob]) -> Option<Surrogate> {
        if seeds.is_empty() {
            return None;
        }
        let work: Vec<f64> = seeds
            .iter()
            .map(|(c, _)| c.work_per_slot_mib(mix))
            .collect();
        let spread: Vec<f64> = seeds
            .iter()
            .map(|(c, _)| 1.0 - 1.0 / f64::from(c.racks))
            .collect();
        let p99: Vec<f64> = seeds.iter().map(|(_, m)| m.p99_secs).collect();
        let duration: Vec<f64> = seeds.iter().map(|(_, m)| m.mean_duration_secs).collect();
        let share: Vec<f64> = seeds.iter().map(|(_, m)| m.cross_share).collect();
        let bytes = seeds.iter().map(|(_, m)| m.wire_bytes).sum::<f64>() / seeds.len() as f64;
        Some(Surrogate {
            p99: fit_or_constant(&work, &p99),
            duration: fit_or_constant(&work, &duration),
            cross_share: fit_or_constant(&spread, &share),
            wire_bytes: bytes,
        })
    }

    /// Predicts a candidate's mix-level p99 and core utilisation.
    #[must_use]
    pub fn predict(&self, candidate: &Candidate, mix: &[MixJob]) -> Predicted {
        let work = candidate.work_per_slot_mib(mix);
        let spread = 1.0 - 1.0 / f64::from(candidate.racks);
        let p99 = self.p99.predict(work).max(1e-3);
        let duration = self.duration.predict(work).max(1e-3);
        let share = self.cross_share.predict(spread).clamp(0.0, 1.0);
        let rate = self.wire_bytes * share * 8.0 / duration;
        Predicted {
            p99_secs: p99,
            core_util: (rate / candidate.core_capacity_bps()).max(0.0),
        }
    }
}

/// Everything a provisioning search needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvisionRequest {
    /// The workload mix to provision for.
    pub mix: Vec<MixJob>,
    /// The configuration space to search.
    pub space: ConfigSpace,
    /// Base Hadoop configuration the space's knobs are applied to.
    pub base: HadoopConfig,
    /// The SLO candidates are held to.
    pub slo: Slo,
    /// Full-fidelity repeats per cell.
    pub repeats: u32,
    /// Budget for the successive-halving inner loop.
    pub budget: SweepBudget,
    /// How many candidates survive surrogate pruning into DES runs;
    /// `None` keeps the best third (at least one).
    pub surrogate_keep: Option<usize>,
}

/// One candidate's row of the ranked report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateReport {
    /// Candidate identity (see [`Candidate::key`]).
    pub key: String,
    /// Racks of workers.
    pub racks: u32,
    /// Workers per rack.
    pub nodes_per_rack: u32,
    /// Core oversubscription ratio.
    pub oversubscription: f64,
    /// Reducer count.
    pub reducers: u32,
    /// Slowstart threshold.
    pub slowstart: f64,
    /// Map slots per node.
    pub slots_per_node: u32,
    /// Relative hardware cost (see [`Candidate::cost_units`]).
    pub cost_units: f64,
    /// 1-based rank among fully simulated candidates; `None` otherwise.
    pub rank: Option<u32>,
    /// Search score (lower is better); only comparable within a report.
    pub score: Option<f64>,
    /// Surrogate-predicted p99 completion time, seconds.
    pub predicted_p99_secs: Option<f64>,
    /// Surrogate-predicted core utilisation.
    pub predicted_core_util: Option<f64>,
    /// Simulated weighted p99, at `fidelity` repeats.
    pub simulated_p99_secs: Option<f64>,
    /// Simulated core utilisation, at `fidelity` repeats.
    pub simulated_core_util: Option<f64>,
    /// Repeats the candidate's last simulated round ran at (0 = never).
    pub fidelity: u32,
    /// True when simulated at full repeats — the only rows ranked.
    pub full_fidelity: bool,
    /// Successive-halving round that eliminated the candidate, if any.
    pub eliminated_round: Option<u64>,
    /// True when the surrogate layer pruned the candidate before DES.
    pub pruned_by_surrogate: bool,
    /// Whether the simulated numbers meet the SLO (full fidelity only).
    pub slo_met: Option<bool>,
    /// `|predicted - simulated| / simulated` for p99 (full fidelity).
    pub rel_error_p99: Option<f64>,
    /// `|predicted - simulated| / simulated` for utilisation.
    pub rel_error_util: Option<f64>,
    /// Why the candidate was skipped without simulating, if it was.
    pub skip_reason: Option<String>,
}

/// Mix descriptor as committed in the artefact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixJobReport {
    /// Workload name.
    pub workload: String,
    /// Input bytes per job.
    pub input_bytes: u64,
    /// Mix weight.
    pub weight: f64,
}

/// The committed output of a provisioning search (`EVAL_provision.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProvisionReport {
    /// Artefact schema version.
    pub schema: u32,
    /// The workload mix searched for.
    pub mix: Vec<MixJobReport>,
    /// The SLO candidates were held to.
    pub slo: Slo,
    /// Full-fidelity repeats per cell.
    pub repeats: u32,
    /// Probe repeats of the first halving round.
    pub probe_repeats: u32,
    /// Keep fraction per halving round.
    pub keep_fraction: f64,
    /// Cell-execution budget; `None` means unlimited.
    pub budget_cells: Option<u64>,
    /// Cell executions a full-grid sweep would have paid.
    pub grid_cells: u64,
    /// Cell executions actually simulated (seeds + halving rounds, net
    /// of memoization).
    pub cells_simulated: u64,
    /// Halving rounds executed.
    pub rounds: u64,
    /// Seed candidate keys the surrogate was fitted on.
    pub seed_keys: Vec<String>,
    /// The fitted surrogate, when seeds produced one.
    pub surrogate: Option<Surrogate>,
    /// Mean `rel_error_p99` across ranked candidates.
    pub mean_rel_error_p99: Option<f64>,
    /// Mean `rel_error_util` across ranked candidates.
    pub mean_rel_error_util: Option<f64>,
    /// Every candidate: ranked rows first (by rank), then eliminated
    /// (by fidelity then key), then pruned, then skipped.
    pub candidates: Vec<CandidateReport>,
}

impl ProvisionReport {
    /// The top-ranked candidate, if any candidate reached full fidelity.
    #[must_use]
    pub fn top(&self) -> Option<&CandidateReport> {
        self.candidates.iter().find(|c| c.rank == Some(1))
    }

    /// Serializes to pretty JSON (the committed artefact format).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parses a committed report.
    ///
    /// # Errors
    ///
    /// [`CoreError::Provision`] on malformed input.
    pub fn from_json(input: &str, origin: &str) -> Result<ProvisionReport> {
        serde_json::from_str(input).map_err(|e| CoreError::Provision(format!("{origin}: {e}")))
    }

    /// Reads a committed report from disk.
    ///
    /// # Errors
    ///
    /// [`CoreError::Provision`] on unreadable or malformed input.
    pub fn load(path: &std::path::Path) -> Result<ProvisionReport> {
        let shown = path.display().to_string();
        let input = std::fs::read_to_string(path)
            .map_err(|e| CoreError::Provision(format!("{shown}: {e}")))?;
        ProvisionReport::from_json(&input, &shown)
    }

    /// The CI gate: this (fresh) report must still agree with the
    /// committed artefact on the winning configuration, must not explore
    /// more cells, and the surrogate's p99 error must not regress beyond
    /// slack.
    ///
    /// # Errors
    ///
    /// [`CoreError::Provision`] naming the first divergence.
    pub fn check_against(&self, committed: &ProvisionReport) -> Result<()> {
        const ERROR_SLACK: f64 = 0.25;
        match (self.top(), committed.top()) {
            (Some(fresh), Some(pinned)) if fresh.key != pinned.key => {
                return Err(CoreError::Provision(format!(
                    "top-ranked config changed: {} (committed: {})",
                    fresh.key, pinned.key
                )));
            }
            (None, Some(pinned)) => {
                return Err(CoreError::Provision(format!(
                    "no config reached full fidelity (committed top: {})",
                    pinned.key
                )));
            }
            _ => {}
        }
        if self.cells_simulated > committed.cells_simulated {
            return Err(CoreError::Provision(format!(
                "search explored more cells than committed: {} > {}",
                self.cells_simulated, committed.cells_simulated
            )));
        }
        if let (Some(fresh), Some(pinned)) = (self.mean_rel_error_p99, committed.mean_rel_error_p99)
        {
            if fresh > pinned + ERROR_SLACK {
                return Err(CoreError::Provision(format!(
                    "surrogate p99 error regressed: {fresh:.4} > committed {pinned:.4} + {ERROR_SLACK}"
                )));
            }
        }
        Ok(())
    }
}

fn mix_report(mix: &[MixJob]) -> Vec<MixJobReport> {
    mix.iter()
        .map(|m| MixJobReport {
            workload: m.workload.name().to_string(),
            input_bytes: m.input_bytes,
            weight: m.weight,
        })
        .collect()
}

/// Picks the seed candidates the surrogate is fitted on: the extremes
/// and the median of the valid set ordered by work-per-slot, so the
/// regressions span the feature range. Returned in candidate order.
fn seed_indices(valid: &[usize], candidates: &[Candidate], mix: &[MixJob]) -> Vec<usize> {
    if valid.is_empty() {
        return Vec::new();
    }
    let mut by_work: Vec<usize> = valid.to_vec();
    by_work.sort_by(|&a, &b| {
        candidates[a]
            .work_per_slot_mib(mix)
            .total_cmp(&candidates[b].work_per_slot_mib(mix))
            .then(a.cmp(&b))
    });
    let mut seeds = vec![
        by_work[0],
        by_work[by_work.len() / 2],
        by_work[by_work.len() - 1],
    ];
    seeds.sort_unstable();
    seeds.dedup();
    seeds
}

/// Runs the provisioning search. See the [module docs](self) for the
/// two-layer budget and the honesty rule.
///
/// # Errors
///
/// [`CoreError::Provision`] on an empty mix or space, non-positive
/// weights, or zero repeats. Per-candidate configuration problems are
/// *not* errors: they surface as `skip_reason` rows in the report.
pub fn provision(req: &ProvisionRequest, parallelism: usize, obs: &Obs) -> Result<ProvisionReport> {
    if req.mix.is_empty() {
        return Err(CoreError::Provision("workload mix is empty".into()));
    }
    for m in &req.mix {
        if !(m.weight.is_finite() && m.weight > 0.0) {
            return Err(CoreError::Provision(format!(
                "mix weight for {} must be positive and finite",
                m.workload.name()
            )));
        }
    }
    if req.space.grid_len() == 0 {
        return Err(CoreError::Provision("configuration space is empty".into()));
    }
    if req.repeats == 0 {
        return Err(CoreError::Provision("repeats must be >= 1".into()));
    }

    let candidates = req.space.candidates(&req.base);
    let mut skip_reasons: Vec<Option<String>> = vec![None; candidates.len()];
    let valid: Vec<usize> = (0..candidates.len())
        .filter(|&i| match candidates[i].check() {
            Ok(()) => true,
            Err(reason) => {
                skip_reasons[i] = Some(reason);
                false
            }
        })
        .collect();
    obs.add("provision", "candidates", candidates.len() as u64);
    obs.add(
        "provision",
        "skipped",
        (candidates.len() - valid.len()) as u64,
    );

    // Layer 1: seed simulations and the surrogate fitted on them.
    // Seeds run on any valid cluster, so the runner's own cluster is
    // irrelevant — every cell carries its candidate's override.
    let runner = Runner::new(ClusterSpec::racks(1, 1));
    let seeds = seed_indices(&valid, &candidates, &req.mix);
    let seed_cells: Vec<MatrixCell> = seeds
        .iter()
        .flat_map(|&i| candidates[i].cells(&req.mix, req.budget.probe_repeats))
        .collect();
    let seed_results = runner.run_matrix(&seed_cells, parallelism);
    let seed_measures: Vec<(&Candidate, Measured)> = seeds
        .iter()
        .enumerate()
        .map(|(k, &i)| {
            let slice = &seed_results[k * req.mix.len()..(k + 1) * req.mix.len()];
            (&candidates[i], measure(&candidates[i], &req.mix, slice))
        })
        .collect();
    let surrogate = Surrogate::fit(&seed_measures, &req.mix);
    obs.add("provision", "seed_cells", seed_cells.len() as u64);

    // Predict every valid candidate and prune to the most promising.
    let predictions: Vec<Option<Predicted>> = (0..candidates.len())
        .map(|i| {
            if skip_reasons[i].is_some() {
                return None;
            }
            surrogate
                .as_ref()
                .map(|s| s.predict(&candidates[i], &req.mix))
        })
        .collect();
    let keep = req
        .surrogate_keep
        .unwrap_or_else(|| valid.len().div_ceil(3))
        .clamp(1, valid.len().max(1));
    let mut by_predicted: Vec<usize> = valid.clone();
    by_predicted.sort_by(|&a, &b| {
        let score = |i: usize| {
            predictions[i].map_or(f64::INFINITY, |p| {
                slo_score(
                    &req.slo,
                    p.p99_secs,
                    p.core_util,
                    candidates[i].cost_units(),
                )
            })
        };
        score(a).total_cmp(&score(b)).then(a.cmp(&b))
    });
    let mut kept: Vec<usize> = by_predicted.iter().copied().take(keep).collect();
    kept.sort_unstable();
    obs.add("provision", "pruned", (valid.len() - kept.len()) as u64);

    // Layer 2: the budgeted successive-halving sweep decides.
    let groups: Vec<Vec<MatrixCell>> = kept
        .iter()
        .map(|&i| candidates[i].cells(&req.mix, req.repeats))
        .collect();
    let hits_before = runner.cache_hits();
    let sweep = runner.run_budgeted(
        &groups,
        |g, results| {
            let m = measure(&candidates[kept[g]], &req.mix, results);
            slo_score(
                &req.slo,
                m.p99_secs,
                m.core_util,
                candidates[kept[g]].cost_units(),
            )
        },
        &req.budget,
        parallelism,
    );
    let memo_hits = (runner.cache_hits() - hits_before) as usize;
    let cells_simulated = seed_cells.len() + sweep.cell_runs - memo_hits.min(sweep.cell_runs);
    obs.add("provision", "cells_simulated", cells_simulated as u64);

    // Assemble per-candidate rows.
    let mut rows: Vec<CandidateReport> = candidates
        .iter()
        .enumerate()
        .map(|(i, c)| CandidateReport {
            key: c.key(),
            racks: c.racks,
            nodes_per_rack: c.nodes_per_rack,
            oversubscription: c.oversubscription,
            reducers: c.reducers,
            slowstart: c.slowstart,
            slots_per_node: c.slots_per_node,
            cost_units: c.cost_units(),
            rank: None,
            score: None,
            predicted_p99_secs: predictions[i].map(|p| p.p99_secs),
            predicted_core_util: predictions[i].map(|p| p.core_util),
            simulated_p99_secs: None,
            simulated_core_util: None,
            fidelity: 0,
            full_fidelity: false,
            eliminated_round: None,
            pruned_by_surrogate: skip_reasons[i].is_none() && !kept.contains(&i),
            slo_met: None,
            rel_error_p99: None,
            rel_error_util: None,
            skip_reason: skip_reasons[i].clone(),
        })
        .collect();
    for (g, &i) in kept.iter().enumerate() {
        let group = &sweep.groups[g];
        if group.results.is_empty() {
            continue;
        }
        let m = measure(&candidates[i], &req.mix, &group.results);
        let row = &mut rows[i];
        row.simulated_p99_secs = Some(m.p99_secs);
        row.simulated_core_util = Some(m.core_util);
        row.fidelity = group.fidelity;
        row.full_fidelity = group.full_fidelity;
        row.eliminated_round = group.eliminated_round.map(|r| r as u64);
        row.score = Some(slo_score(
            &req.slo,
            m.p99_secs,
            m.core_util,
            candidates[i].cost_units(),
        ));
        if group.full_fidelity {
            row.slo_met = Some(row.score.unwrap_or(f64::INFINITY) < 1e9);
            if let Some(p) = predictions[i] {
                if m.p99_secs > 0.0 {
                    row.rel_error_p99 = Some((p.p99_secs - m.p99_secs).abs() / m.p99_secs);
                }
                if m.core_util > 0.0 {
                    row.rel_error_util = Some((p.core_util - m.core_util).abs() / m.core_util);
                }
            }
        }
    }

    // Rank full-fidelity rows; order the report ranked → eliminated →
    // pruned → skipped, deterministically.
    let mut order: Vec<usize> = (0..rows.len()).collect();
    let class = |r: &CandidateReport| {
        if r.full_fidelity {
            0u8
        } else if r.fidelity > 0 {
            1
        } else if r.skip_reason.is_none() {
            2
        } else {
            3
        }
    };
    order.sort_by(|&a, &b| {
        let (ra, rb) = (&rows[a], &rows[b]);
        class(ra)
            .cmp(&class(rb))
            .then_with(|| {
                ra.score
                    .unwrap_or(f64::INFINITY)
                    .total_cmp(&rb.score.unwrap_or(f64::INFINITY))
            })
            .then_with(|| ra.key.cmp(&rb.key))
    });
    let mut ranked = 0u32;
    let mut ordered: Vec<CandidateReport> = Vec::with_capacity(rows.len());
    for &i in &order {
        let mut row = rows[i].clone();
        if row.full_fidelity {
            ranked += 1;
            row.rank = Some(ranked);
        }
        ordered.push(row);
    }

    let errors = |f: fn(&CandidateReport) -> Option<f64>| {
        let es: Vec<f64> = ordered.iter().filter_map(f).collect();
        (!es.is_empty()).then(|| es.iter().sum::<f64>() / es.len() as f64)
    };
    Ok(ProvisionReport {
        schema: 1,
        mix: mix_report(&req.mix),
        slo: req.slo,
        repeats: req.repeats,
        probe_repeats: req.budget.probe_repeats,
        keep_fraction: req.budget.keep_fraction,
        budget_cells: (req.budget.max_cell_runs != usize::MAX)
            .then_some(req.budget.max_cell_runs as u64),
        grid_cells: (candidates.len() * req.mix.len()) as u64,
        cells_simulated: cells_simulated as u64,
        rounds: sweep.rounds as u64,
        seed_keys: seeds.iter().map(|&i| candidates[i].key()).collect(),
        surrogate,
        mean_rel_error_p99: errors(|r| r.rel_error_p99),
        mean_rel_error_util: errors(|r| r.rel_error_util),
        candidates: ordered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_space() -> ConfigSpace {
        ConfigSpace {
            nodes: vec![(1, 4), (2, 2), (2, 4)],
            oversubscription: vec![1.0, 4.0],
            reducers: vec![4],
            slowstart: vec![0.8],
            slots_per_node: vec![2],
        }
    }

    fn small_request() -> ProvisionRequest {
        ProvisionRequest {
            mix: vec![MixJob::new(Workload::TeraSort, 256 << 20, 3.0)],
            space: small_space(),
            base: HadoopConfig::default(),
            slo: Slo::default(),
            repeats: 2,
            budget: SweepBudget {
                probe_repeats: 1,
                keep_fraction: 0.5,
                ..SweepBudget::default()
            },
            surrogate_keep: None,
        }
    }

    #[test]
    fn candidates_enumerate_in_canonical_order() {
        let space = small_space();
        let candidates = space.candidates(&HadoopConfig::default());
        assert_eq!(candidates.len(), space.grid_len());
        assert_eq!(candidates.len(), 6);
        assert_eq!(candidates[0].key(), "1x4 ov1.00 r4 ss0.80 s2");
        assert_eq!(candidates[1].key(), "1x4 ov4.00 r4 ss0.80 s2");
        assert_eq!(candidates[5].key(), "2x4 ov4.00 r4 ss0.80 s2");
        // Knobs land in the cell's config, so they reach the simulator
        // and the memo key.
        assert_eq!(candidates[0].config.slots_per_node, 2);
        assert!((candidates[0].config.slowstart - 0.8).abs() < 1e-12);
    }

    #[test]
    fn cost_and_core_capacity_track_the_knobs() {
        let space = small_space();
        let c = &space.candidates(&HadoopConfig::default())[4]; // 2x4 ov1
        assert_eq!(c.workers(), 8);
        assert!((c.cost_units() - 16.0).abs() < 1e-9);
        // Non-blocking leaf-spine: core carries all 8 hosts' NICs.
        assert!((c.core_capacity_bps() - 8e9).abs() < 1e-3);
        let oversubbed = &space.candidates(&HadoopConfig::default())[5]; // 2x4 ov4
        assert!((oversubbed.core_capacity_bps() - 2e9).abs() < 1e-3);
        assert!(oversubbed.cost_units() < c.cost_units());
    }

    #[test]
    fn weighted_percentile_is_weight_aware() {
        let samples = [(1.0, 1.0), (2.0, 1.0), (10.0, 98.0)];
        assert_eq!(weighted_percentile(&samples, 0.99), 10.0);
        assert_eq!(weighted_percentile(&samples, 0.01), 1.0);
        let even = [(1.0, 1.0), (2.0, 1.0)];
        assert_eq!(weighted_percentile(&even, 0.5), 1.0);
        assert!(weighted_percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn slo_scoring_prefers_cheap_feasible_configs() {
        let slo = Slo {
            p99_secs: Some(100.0),
            max_core_util: Some(0.5),
        };
        let feasible_cheap = slo_score(&slo, 90.0, 0.3, 8.0);
        let feasible_pricey = slo_score(&slo, 50.0, 0.1, 16.0);
        let violator = slo_score(&slo, 150.0, 0.3, 4.0);
        assert!(
            feasible_cheap < feasible_pricey,
            "cost decides when feasible"
        );
        assert!(feasible_pricey < violator, "violations dominate cost");
        // Unconstrained search ranks by p99 alone.
        let open = Slo::default();
        assert!(slo_score(&open, 50.0, 0.9, 100.0) < slo_score(&open, 60.0, 0.1, 1.0));
    }

    #[test]
    fn invalid_candidates_are_skipped_with_reasons() {
        let mut req = small_request();
        req.space.slowstart = vec![0.8, 1.5]; // 1.5 is invalid
        let report = provision(&req, 2, &Obs::disabled()).unwrap();
        let skipped: Vec<_> = report
            .candidates
            .iter()
            .filter(|c| c.skip_reason.is_some())
            .collect();
        assert_eq!(skipped.len(), 6, "each node/oversub point at ss1.5");
        assert!(
            skipped[0]
                .skip_reason
                .as_deref()
                .unwrap()
                .contains("slowstart"),
            "reason names the knob: {:?}",
            skipped[0].skip_reason
        );
        assert!(report.top().is_some(), "valid half still ranked");
    }

    #[test]
    fn provision_prunes_simulates_and_ranks() {
        let req = small_request();
        let obs = Obs::enabled();
        let report = provision(&req, 2, &obs).unwrap();
        assert_eq!(report.grid_cells, 6);
        assert!(
            report.cells_simulated < report.grid_cells,
            "budgeted search must beat the grid: {} vs {}",
            report.cells_simulated,
            report.grid_cells
        );
        let top = report.top().expect("a winner");
        assert!(top.full_fidelity);
        assert_eq!(top.rank, Some(1));
        assert!(top.slo_met == Some(true), "unconstrained SLO is always met");
        assert!(
            top.rel_error_p99.is_some(),
            "ranked rows carry predicted-vs-simulated error"
        );
        assert!(report.mean_rel_error_p99.is_some());
        // Honesty rule: every ranked row was fully simulated; pruned
        // rows carry predictions only.
        for c in &report.candidates {
            if c.rank.is_some() {
                assert!(c.full_fidelity && c.simulated_p99_secs.is_some());
            }
            if c.pruned_by_surrogate {
                assert!(c.simulated_p99_secs.is_none() && c.predicted_p99_secs.is_some());
            }
        }
        assert_eq!(obs.metrics().counter("provision", "candidates"), 6);
        assert!(obs.metrics().counter("provision", "cells_simulated") > 0);
    }

    #[test]
    fn report_roundtrips_and_gates() {
        let req = small_request();
        let report = provision(&req, 2, &Obs::disabled()).unwrap();
        let json = report.to_json();
        let parsed = ProvisionReport::from_json(&json, "test").unwrap();
        assert_eq!(parsed, report);
        assert!(report.check_against(&parsed).is_ok());

        let mut moved_goalposts = report.clone();
        if let Some(top) = moved_goalposts
            .candidates
            .iter_mut()
            .find(|c| c.rank == Some(1))
        {
            top.key = "9x9 ov1.00 r1 ss0.10 s1".into();
        }
        assert!(report.check_against(&moved_goalposts).is_err());

        let mut cheaper = report.clone();
        cheaper.cells_simulated = report.cells_simulated.saturating_sub(1);
        assert!(
            report.check_against(&cheaper).is_err(),
            "exploring more cells than committed fails the gate"
        );
        let mut sloppier = report.clone();
        sloppier.mean_rel_error_p99 = report.mean_rel_error_p99.map(|e| e - 0.5);
        assert!(report.check_against(&sloppier).is_err());
    }

    #[test]
    fn empty_requests_are_rejected() {
        let mut req = small_request();
        req.mix.clear();
        assert!(provision(&req, 1, &Obs::disabled()).is_err());
        let mut req = small_request();
        req.space.nodes.clear();
        assert!(provision(&req, 1, &Obs::disabled()).is_err());
        let mut req = small_request();
        req.mix[0].weight = -1.0;
        assert!(provision(&req, 1, &Obs::disabled()).is_err());
        let mut req = small_request();
        req.repeats = 0;
        assert!(provision(&req, 1, &Obs::disabled()).is_err());
    }
}
