//! `keddah provision` — budgeted configuration search over cluster space.

use std::fs;
use std::path::{Path, PathBuf};

use keddah_core::provision::{
    provision, ConfigSpace, MixJob, ProvisionReport, ProvisionRequest, Slo,
};
use keddah_core::runner::SweepBudget;
use keddah_hadoop::{HadoopConfig, Workload};

use super::args::{gib_bytes, parse_list};
use super::matrix::default_jobs;
use super::{err, obs_out, Args, Result};

const HELP: &str = "\
keddah provision — search cluster/config space for a workload mix + SLO

Candidates are the cross product of --nodes x --oversub x --reducers x
--slowstart x --slots. A handful of seed simulations fit cheap surrogate
predictors that prune the space; survivors run through the budgeted
successive-halving matrix runner. Surrogates prune, simulations decide:
only fully simulated candidates are ranked, and every ranked row reports
the surrogate's predicted-vs-simulated error. Deterministic for any
--jobs value.

USAGE:
    keddah provision [FLAGS]

FLAGS:
    --workloads <LIST>      mix as name[:weight] entries
                            [default: terasort:3,grep:1]
    --input-gb <GB>         input GiB per job                [default: 0.5]
    --nodes <LIST>          cluster shapes as RxN (racks x nodes/rack)
                            [default: 1x4,2x2,2x4]
    --oversub <LIST>        core oversubscription ratios     [default: 1,4]
    --reducers <LIST>       reducer counts                   [default: 4,8]
    --slowstart <LIST>      slowstart thresholds             [default: 0.8]
    --slots <LIST>          map slots per node               [default: 2]
    --slo-p99 <SECS>        SLO: p99 completion time cap, seconds
    --slo-util <FRAC>       SLO: max core utilisation (0..1]
    --repeats <N>           full-fidelity runs per cell      [default: 2]
    --probe-repeats <N>     first-round probe runs per cell  [default: 1]
    --keep-fraction <F>     survivors kept per halving round [default: 0.5]
    --budget-cells <N>      cell-execution budget for the sweep
    --surrogate-keep <N>    candidates surviving surrogate pruning
                            [default: best third]
    --jobs <N>              worker threads            [default: CPU cores]
    --json                  print the full report JSON to stdout
    --out <FILE>            write the report JSON to FILE
    --check <FILE>          gate against a committed report: same winner,
                            no extra cells, surrogate error not regressed
    --metrics-out <FILE>    write the obs metrics snapshot";

const FLAGS: &[&str] = &[
    "workloads",
    "input-gb",
    "nodes",
    "oversub",
    "reducers",
    "slowstart",
    "slots",
    "slo-p99",
    "slo-util",
    "repeats",
    "probe-repeats",
    "keep-fraction",
    "budget-cells",
    "surrogate-keep",
    "jobs",
    "json",
    "out",
    "check",
    obs_out::METRICS_OUT,
];

/// Parses `name[:weight]` mix entries.
fn parse_mix(raw: &str, input_bytes: u64) -> Result<Vec<MixJob>> {
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|entry| {
            let (name, weight) = match entry.split_once(':') {
                Some((name, w)) => (
                    name,
                    w.parse::<f64>()
                        .map_err(|_| err(format!("--workloads: bad weight in `{entry}`")))?,
                ),
                None => (entry, 1.0),
            };
            let workload = Workload::from_name(name)
                .ok_or_else(|| err(format!("unknown workload `{name}`")))?;
            Ok(MixJob::new(workload, input_bytes, weight))
        })
        .collect()
}

/// Parses `RxN` cluster shapes.
fn parse_nodes(raw: &str) -> Result<Vec<(u32, u32)>> {
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|entry| {
            entry
                .split_once('x')
                .and_then(|(r, n)| Some((r.parse().ok()?, n.parse().ok()?)))
                .ok_or_else(|| err(format!("--nodes: expected RxN, got `{entry}`")))
        })
        .collect()
}

/// Runs the subcommand.
///
/// # Errors
///
/// Returns an error for bad flags, an empty search, I/O failure, or a
/// failing `--check` gate.
pub fn run(args: &Args) -> Result<()> {
    if args.wants_help() {
        println!("{HELP}");
        return Ok(());
    }
    args.check_known(FLAGS)?;

    let mix = parse_mix(
        args.get_or("workloads", "terasort:3,grep:1"),
        gib_bytes("input-gb", args.get_num("input-gb", 0.5f64)?)?,
    )?;
    let space = ConfigSpace {
        nodes: parse_nodes(args.get_or("nodes", "1x4,2x2,2x4"))?,
        oversubscription: parse_list(args.get_or("oversub", "1,4"), "oversub")?,
        reducers: parse_list(args.get_or("reducers", "4,8"), "reducers")?,
        slowstart: parse_list(args.get_or("slowstart", "0.8"), "slowstart")?,
        slots_per_node: parse_list(args.get_or("slots", "2"), "slots")?,
    };
    let slo = Slo {
        p99_secs: args
            .get("slo-p99")
            .map(|_| args.get_num("slo-p99", 0f64))
            .transpose()?,
        max_core_util: args
            .get("slo-util")
            .map(|_| args.get_num("slo-util", 0f64))
            .transpose()?,
    };
    let budget = SweepBudget {
        max_cell_runs: args.get_num("budget-cells", usize::MAX)?,
        probe_repeats: args.get_num("probe-repeats", 1u32)?,
        keep_fraction: args.get_num("keep-fraction", 0.5f64)?,
    };
    let req = ProvisionRequest {
        mix,
        space,
        base: HadoopConfig::default(),
        slo,
        repeats: args.get_num("repeats", 2u32)?,
        budget,
        surrogate_keep: args
            .get("surrogate-keep")
            .map(|_| args.get_num("surrogate-keep", 0usize))
            .transpose()?,
    };
    let jobs: usize = args.get_num("jobs", default_jobs())?.max(1);

    eprintln!(
        "provisioning over {} candidate(s) x {} mix job(s), --jobs {jobs}...",
        req.space.grid_len(),
        req.mix.len()
    );
    let obs = obs_out::obs_from_args(args);
    let report = provision(&req, jobs, &obs).map_err(|e| err(e.to_string()))?;
    print_report(&report);

    if args.get_bool("json") {
        println!("{}", report.to_json());
    }
    if let Some(out) = args.get("out") {
        let path = PathBuf::from(out);
        fs::write(&path, report.to_json() + "\n")?;
        eprintln!("wrote provisioning report to {}", path.display());
    }
    if let Some(committed) = args.get("check") {
        let pinned = ProvisionReport::load(Path::new(committed)).map_err(|e| err(e.to_string()))?;
        report
            .check_against(&pinned)
            .map_err(|e| err(format!("gate vs {committed}: {e}")))?;
        eprintln!("gate vs {committed}: ok");
    }
    obs_out::write_artifacts(&obs, args)
}

fn opt(value: Option<f64>, unit: &str) -> String {
    value.map_or_else(|| "-".to_string(), |v| format!("{v:.2}{unit}"))
}

fn print_report(report: &ProvisionReport) {
    println!(
        "explored {} of {} grid cell(s) in {} round(s); seeds: {}",
        report.cells_simulated,
        report.grid_cells,
        report.rounds,
        report.seed_keys.join(", ")
    );
    println!(
        "{:<28} {:>6} | {:>10} {:>10} | {:>10} {:>9} | {:>8}",
        "config", "cost", "pred p99", "sim p99", "core util", "p99 err", "status"
    );
    for c in &report.candidates {
        let status = if let Some(rank) = c.rank {
            format!("#{rank}")
        } else if c.skip_reason.is_some() {
            "skipped".to_string()
        } else if c.pruned_by_surrogate {
            "pruned".to_string()
        } else if let Some(round) = c.eliminated_round {
            format!("elim r{round}")
        } else {
            "probe".to_string()
        };
        println!(
            "{:<28} {:>6.1} | {:>10} {:>10} | {:>10} {:>9} | {:>8}",
            c.key,
            c.cost_units,
            opt(c.predicted_p99_secs, "s"),
            opt(c.simulated_p99_secs, "s"),
            opt(c.simulated_core_util, ""),
            opt(c.rel_error_p99.map(|e| e * 100.0), "%"),
            status
        );
    }
    for c in report.candidates.iter().filter(|c| c.skip_reason.is_some()) {
        if let Some(reason) = &c.skip_reason {
            eprintln!("skipped {}: {reason}", c.key);
        }
    }
    match report.top() {
        Some(top) => {
            let met = match top.slo_met {
                Some(true) => "meets SLO",
                Some(false) => "VIOLATES SLO",
                None => "no SLO",
            };
            println!("top: {} ({met})", top.key);
        }
        None => println!("top: none (no candidate reached full fidelity)"),
    }
    if let Some(e) = report.mean_rel_error_p99 {
        println!("surrogate p99 error (mean over ranked): {:.1}%", e * 100.0);
    }
}
