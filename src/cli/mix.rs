//! `keddah mix` — generate a multi-tenant cluster workload from models.

use std::fs;

use keddah_core::mix::{JobMix, MixEntry};
use keddah_core::replay::{jobs_to_flows, replay};
use keddah_netsim::SimOptions;

use super::topo_spec::parse_topology;
use super::{err, load, Args, Result};

const HELP: &str = "\
keddah mix — generate a cluster workload from a weighted model mix

USAGE:
    keddah mix [FLAGS] <MODEL.json[:WEIGHT]>...

FLAGS:
    --horizon-secs <S>   workload duration              [default: 600]
    --rate-per-min <R>   mean job arrivals per minute   [default: 2]
    --seed <N>           generation seed                [default: 1]
    --out <FILE>         write generated jobs JSON here
    --topology <SPEC>    additionally replay the mix on this fabric
    --mouse-bytes <N>    mice fast-path threshold       [default: 10000]

Each positional argument is a fitted model path with an optional
`:WEIGHT` suffix (default weight 1).";

const FLAGS: &[&str] = &[
    "horizon-secs",
    "rate-per-min",
    "seed",
    "out",
    "topology",
    "mouse-bytes",
];

/// Runs the subcommand.
///
/// # Errors
///
/// Returns an error for malformed weights, unreadable models, or replay
/// failures.
pub fn run(args: &Args) -> Result<()> {
    if args.wants_help() {
        println!("{HELP}");
        return Ok(());
    }
    args.check_known(FLAGS)?;
    if args.positional().is_empty() {
        return Err(err("no model files given; run `keddah mix --help`"));
    }
    let mut entries = Vec::new();
    for spec in args.positional() {
        let (path, weight) = match spec.rsplit_once(':') {
            Some((p, w)) if w.parse::<f64>().is_ok() => {
                (p, w.parse::<f64>().expect("checked above"))
            }
            _ => (spec.as_str(), 1.0),
        };
        entries.push(MixEntry {
            model: load::model(path)?,
            weight,
        });
    }
    let horizon: f64 = args.get_num("horizon-secs", 600.0)?;
    let rate_per_min: f64 = args.get_num("rate-per-min", 2.0)?;
    if horizon <= 0.0 || rate_per_min <= 0.0 {
        return Err(err("horizon and rate must be positive"));
    }
    let mix = JobMix::new(entries, rate_per_min / 60.0).map_err(|e| err(e.to_string()))?;
    let jobs = mix.generate(horizon, args.get_num("seed", 1u64)?);
    let offered: u64 = jobs.iter().map(|j| j.total_bytes()).sum();
    eprintln!(
        "generated {} jobs over {horizon} s ({:.2} GB offered)",
        jobs.len(),
        offered as f64 / 1e9
    );

    if let Some(out) = args.get("out") {
        let payload = serde_json::to_string_pretty(&jobs).expect("jobs serialize");
        fs::write(out, payload)?;
        eprintln!("jobs written to {out}");
    }

    if let Some(spec) = args.get("topology") {
        let topo = parse_topology(spec)?;
        let options = SimOptions {
            mouse_threshold: args.get_num("mouse-bytes", 10_000u64)?,
            ..SimOptions::default()
        };
        let flows = jobs_to_flows(&jobs, &topo).map_err(|e| err(e.to_string()))?;
        let report = replay(&topo, &flows, options);
        println!(
            "replayed {} flows on {} — makespan {:.0} s, peak link {:.1}%",
            report.sim.results.len(),
            topo.name(),
            report.makespan_secs(),
            report.sim.peak_link_utilisation(&topo) * 100.0
        );
        for (component, fcts) in &report.fct_by_component {
            let mean = fcts.iter().sum::<f64>() / fcts.len() as f64;
            println!(
                "  {:<11} {:>7} flows, mean FCT {:.3} s",
                component.name(),
                fcts.len(),
                mean
            );
        }
    }
    Ok(())
}
