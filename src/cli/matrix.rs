//! `keddah matrix` — run a workload/configuration matrix in parallel.

use std::fs;
use std::path::PathBuf;

use keddah_core::runner::{MatrixCell, Runner};
use keddah_hadoop::{ClusterSpec, HadoopConfig, Workload};

use super::args::{gib_bytes, parse_list};
use super::{err, obs_out, Args, Result};

const HELP: &str = "\
keddah matrix — run a workload/configuration matrix across CPU cores

Cells are the cross product of --workloads x --sizes-gb x --reducers,
each repeated --repeats times. Seeds are derived from each cell's
identity, so results are identical for any --jobs value.

USAGE:
    keddah matrix [FLAGS]

FLAGS:
    --workloads <LIST>     comma-separated workload names   [default: all]
    --sizes-gb <LIST>      comma-separated input GiB        [default: 2]
    --reducers <LIST>      comma-separated reducer counts   [default: 8]
    --repeats <N>          runs per cell                    [default: 3]
    --jobs <N>             worker threads                   [default: CPU cores]
    --racks <N>            racks of workers                 [default: 4]
    --nodes-per-rack <N>   workers per rack                 [default: 5]
    --out <FILE>           write cell results as JSON
    --metrics-out <FILE>   write per-cell metrics folded into one JSON
                           snapshot (render with `keddah stats`); the
                           fold runs over collected results in cell
                           order, so it is identical for any --jobs";

const FLAGS: &[&str] = &[
    "workloads",
    "sizes-gb",
    "reducers",
    "repeats",
    "jobs",
    "racks",
    "nodes-per-rack",
    "out",
    obs_out::METRICS_OUT,
];

/// The default worker count: one per available core.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs the subcommand.
///
/// # Errors
///
/// Returns an error for bad flags, unknown workloads, or I/O failure.
pub fn run(args: &Args) -> Result<()> {
    if args.wants_help() {
        println!("{HELP}");
        return Ok(());
    }
    args.check_known(FLAGS)?;

    let workloads: Vec<Workload> = match args.get("workloads") {
        None => Workload::ALL.to_vec(),
        Some(raw) => raw
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|name| {
                Workload::from_name(name).ok_or_else(|| err(format!("unknown workload `{name}`")))
            })
            .collect::<Result<_>>()?,
    };
    let sizes = parse_list::<f64>(args.get_or("sizes-gb", "2"), "sizes-gb")?
        .into_iter()
        .map(|gb| gib_bytes("sizes-gb", gb))
        .collect::<Result<Vec<u64>>>()?;
    let reducers: Vec<u32> = parse_list(args.get_or("reducers", "8"), "reducers")?;
    let repeats: u32 = args.get_num("repeats", 3u32)?;
    let jobs: usize = args.get_num("jobs", default_jobs())?.max(1);
    if workloads.is_empty() || sizes.is_empty() || reducers.is_empty() || repeats == 0 {
        return Err(err(
            "matrix is empty: need workloads, sizes, reducers and repeats",
        ));
    }

    let cluster = ClusterSpec::racks(
        args.get_num("racks", 4u32)?.max(1),
        args.get_num("nodes-per-rack", 5u32)?.max(1),
    );
    let mut cells = Vec::new();
    for &workload in &workloads {
        for &input_bytes in &sizes {
            for &r in &reducers {
                let config = HadoopConfig::default().with_reducers(r);
                config
                    .validate_for(&cluster)
                    .map_err(|e| err(e.to_string()))?;
                cells.push(MatrixCell::new(workload, input_bytes, config, repeats));
            }
        }
    }

    eprintln!(
        "running {} cell(s) x {repeats} repeat(s) on {} workers, --jobs {jobs}...",
        cells.len(),
        cluster.worker_count()
    );
    let runner = Runner::new(cluster);
    let obs = obs_out::obs_from_args(args);
    let results = runner.run_matrix_observed(&cells, jobs, &obs);

    println!(
        "{:<10} {:>7} {:>9} | {:>8} {:>12} {:>10} {:>6}",
        "workload", "GiB", "reducers", "flows", "wire bytes", "makespan", "model"
    );
    for (cell, result) in cells.iter().zip(&results) {
        println!(
            "{:<10} {:>7.2} {:>9} | {:>8.0} {:>12.0} {:>9.1}s {:>6}",
            result.workload,
            cell.input_bytes as f64 / (1u64 << 30) as f64,
            cell.config.reducers,
            result.mean_over_runs(|r| r.flows as f64),
            result.mean_over_runs(|r| r.bytes as f64),
            result.mean_duration_secs(),
            if result.model.is_some() { "yes" } else { "no" }
        );
    }
    if runner.cache_hits() > 0 {
        eprintln!("{} cell(s) served from cache", runner.cache_hits());
    }

    if let Some(out) = args.get("out") {
        let path = PathBuf::from(out);
        let json = serde_json::to_string_pretty(&results)
            .map_err(|e| err(format!("serializing results: {e}")))?;
        fs::write(&path, json + "\n")?;
        eprintln!(
            "wrote {} cell result(s) to {}",
            results.len(),
            path.display()
        );
    }
    obs_out::write_artifacts(&obs, args)
}
