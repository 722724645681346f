//! `keddah replay` — replay traffic on a simulated topology.

use keddah_core::replay::{jobs_to_flows, replay_faulted, trace_to_flows, ReplayReport};
use keddah_core::validate::compare_replays;
use keddah_core::{FaultSpec, KeddahModel, ModelSource, TraceSource};
use keddah_flowcap::Trace;
use keddah_netsim::{SimOptions, StaticSource, Topology, TrafficSource};
use keddah_obs::Obs;

use super::topo_spec::parse_topology;
use super::{err, load, obs_out, Args, Result};

const HELP: &str = "\
keddah replay — replay generated or captured traffic on a topology

USAGE:
    keddah replay --model <MODEL.json> --topology <SPEC> [FLAGS]
    keddah replay --trace <TRACE.jsonl> --topology <SPEC> [FLAGS]

FLAGS:
    --model <FILE>      generate jobs from this model and replay them
    --trace <FILE>      replay this capture trace instead
    --topology <SPEC>   star:<hosts>[:<rate>]
                        leaf-spine:<racks>x<hosts>x<spines>[:<rate>[:<oversub>]]
                        fat-tree:<k>[:<rate>]           (required)
    --jobs <N>          jobs to generate (model mode)   [default: 1]
    --seed <N>          generation seed                 [default: 1]
    --stagger-secs <S>  offset between jobs             [default: 10]
    --mouse-bytes <N>   mice fast-path threshold        [default: 10000]
    --closed-loop       release dependent flows when their parents
                        complete in the simulation, instead of at
                        pre-computed start times
    --faults <FILE>     inject this fault schedule (see `keddah faults`)
                        and also run the fault-free baseline, reporting
                        per-component deltas between the two
    --trace-out <FILE>    write ring-buffered trace events as JSONL
    --metrics-out <FILE>  write a metrics snapshot as JSON
                          (render either with `keddah stats`; with
                          --faults, the faulted run is the observed one)";

const FLAGS: &[&str] = &[
    "model",
    "trace",
    "topology",
    "jobs",
    "seed",
    "stagger-secs",
    "mouse-bytes",
    "closed-loop",
    "faults",
    obs_out::TRACE_OUT,
    obs_out::METRICS_OUT,
];

/// Runs the subcommand.
///
/// # Errors
///
/// Returns an error for conflicting inputs, bad topology specs, or
/// traffic that does not fit the topology.
pub fn run(args: &Args) -> Result<()> {
    if args.wants_help() {
        println!("{HELP}");
        return Ok(());
    }
    args.check_known(FLAGS)?;
    let topo = parse_topology(args.require("topology")?)?;
    let options = SimOptions {
        mouse_threshold: args.get_num("mouse-bytes", 10_000u64)?,
        ..SimOptions::default()
    };

    let closed_loop = args.get_bool("closed-loop");
    let spec = args.get("faults").map(load::fault_spec).transpose()?;

    let traffic = match (args.get("model"), args.get("trace")) {
        (Some(_), Some(_)) => {
            return Err(err("give either --model or --trace, not both"));
        }
        (Some(model_path), None) => {
            let jobs = args.get_num("jobs", 1u32)?;
            if jobs == 0 {
                return Err(err("--jobs must be at least 1"));
            }
            Traffic::Model {
                model: load::model(model_path)?,
                jobs,
                seed: args.get_num("seed", 1u64)?,
                stagger: args.get_secs("stagger-secs", 10.0)?,
            }
        }
        (None, Some(trace_path)) => Traffic::Trace(load::trace(trace_path)?),
        (None, None) => {
            return Err(err("need --model or --trace; run `keddah replay --help`"));
        }
    };

    let obs = obs_out::obs_from_args(args);
    // Capture traces carry the simulator's ground-truth job counters in
    // their metadata; surface them under the "hadoop" subsystem so
    // replay artefacts can be checked against the capture they replay.
    if let Traffic::Trace(trace) = &traffic {
        if let Some(counters) = &trace.meta().counters {
            for (name, value) in counters {
                obs.add("hadoop", name, *value);
            }
        }
    }
    // The obs handle records the run whose report gets printed: the
    // faulted run when --faults is given, otherwise the baseline. The
    // other run stays unobserved so artefacts describe one run, not a
    // mixture.
    let disabled = Obs::disabled();
    let (base_obs, fault_obs) = if spec.is_some() {
        (&disabled, &obs)
    } else {
        (&obs, &disabled)
    };

    // With --faults, the baseline (fault-free) replay runs alongside the
    // faulted one so per-component deltas can be reported; each replays
    // a fresh source.
    let replay = |spec: &FaultSpec, obs: &Obs| -> Result<ReplayReport> {
        let mut source = traffic
            .source(&topo, closed_loop)
            .map_err(|e| err(e.to_string()))?;
        replay_faulted(&topo, source.as_mut(), spec, options, obs).map_err(|e| err(e.to_string()))
    };
    let baseline = replay(&FaultSpec::empty(), base_obs)?;
    let faulted = spec.as_ref().map(|s| replay(s, fault_obs)).transpose()?;

    let report = faulted.as_ref().unwrap_or(&baseline);

    println!(
        "replayed {} flows on {} ({} loop, makespan {:.1} s, peak link {:.1}%)",
        report.sim.results.len(),
        topo.name(),
        if closed_loop { "closed" } else { "open" },
        report.makespan_secs(),
        report.sim.peak_link_utilisation(&topo) * 100.0
    );
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>10}",
        "component", "flows", "p50 (s)", "p95 (s)", "p99 (s)"
    );
    for (component, fcts) in &report.fct_by_component {
        let mut sorted = fcts.clone();
        sorted.sort_by(f64::total_cmp);
        let q = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
        println!(
            "{:<12} {:>8} {:>10.4} {:>10.4} {:>10.4}",
            component.name(),
            sorted.len(),
            q(0.5),
            q(0.95),
            q(0.99)
        );
    }

    if let Some(faulted) = &faulted {
        let stats = &faulted.sim.faults;
        println!(
            "faults: {} applied, {} flow(s) aborted, {} flow(s) rerouted, \
             {:.2} MB lost, {:.2} MB delivered",
            stats.faults_applied,
            stats.aborted.len(),
            stats.rerouted_flows,
            stats.lost_bytes as f64 / 1e6,
            stats.delivered_bytes as f64 / 1e6
        );
        println!(
            "{:<12} {:>12} {:>12} {:>8} {:>8}",
            "component", "base (s)", "faulted (s)", "delta", "KS"
        );
        match compare_replays(&baseline, faulted) {
            Ok(rows) => {
                for row in rows {
                    let delta = if row.mean_fct_a > 0.0 {
                        (row.mean_fct_b - row.mean_fct_a) / row.mean_fct_a * 100.0
                    } else {
                        0.0
                    };
                    println!(
                        "{:<12} {:>12.4} {:>12.4} {:>+7.1}% {:>8.3}",
                        row.component.name(),
                        row.mean_fct_a,
                        row.mean_fct_b,
                        delta,
                        row.ks_statistic
                    );
                }
            }
            Err(e) => println!("  (no comparable components: {e})"),
        }
    }
    obs_out::write_artifacts(&obs, args)
}

/// The traffic `keddah replay` reads: a model to generate jobs from, or
/// a capture trace.
enum Traffic {
    Model {
        model: KeddahModel,
        jobs: u32,
        seed: u64,
        stagger: f64,
    },
    Trace(Trace),
}

impl Traffic {
    /// A fresh source over the traffic: its flows at their pre-computed
    /// starts for open loop, a reactive source for closed loop.
    fn source(
        &self,
        topo: &Topology,
        closed_loop: bool,
    ) -> keddah_core::Result<Box<dyn TrafficSource>> {
        Ok(match self {
            Traffic::Model {
                model,
                jobs,
                seed,
                stagger,
            } if closed_loop => Box::new(ModelSource::new(model, *jobs, *seed, *stagger, topo)?),
            Traffic::Model {
                model,
                jobs,
                seed,
                stagger,
            } => {
                let generated = model.generate_jobs(*jobs, *seed, *stagger);
                Box::new(StaticSource::new(jobs_to_flows(&generated, topo)?))
            }
            Traffic::Trace(trace) if closed_loop => Box::new(TraceSource::new(trace, topo)?),
            Traffic::Trace(trace) => Box::new(StaticSource::new(trace_to_flows(trace, topo)?)),
        })
    }
}
