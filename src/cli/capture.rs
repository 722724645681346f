//! `keddah capture` — run simulated jobs and write capture traces.

use std::fs;
use std::path::PathBuf;

use keddah_core::runner::par_map;
use keddah_faults::FaultSpec;
use keddah_flowcap::classify::classify_all;
use keddah_flowcap::tcpdump::{self, read_text_lenient};
use keddah_flowcap::{sort_by_time, FlowAssembler};
use keddah_hadoop::{run_dag, ClusterSpec, HadoopConfig, JobSpec, Workload};

use super::args::gib_bytes;
use super::{err, load, obs_out, Args, Result};

const HELP: &str = "\
keddah capture — run simulated Hadoop jobs and write capture traces

USAGE:
    keddah capture --workload <NAME> [FLAGS]
    keddah capture --packets-in <FILE> [FLAGS]

FLAGS:
    --workload <NAME>      wordcount|terasort|pagerank|kmeans|bayes|grep|
                           teragen|pig_join|datagrid|tpcxhs (required)
    --input-gb <N>         input size in GiB            [default: 2]
    --racks <N>            racks of workers             [default: 4]
    --nodes-per-rack <N>   workers per rack             [default: 5]
    --reducers <N>         reduce tasks                 [default: 8]
    --replication <N>      HDFS replication factor      [default: 3]
    --block-mb <N>         HDFS block size in MiB       [default: 128]
    --repeats <N>          runs to capture              [default: 5]
    --seed <N>             base seed                    [default: 1]
    --jobs <N>             simulate repeats on N threads [default: 1]
    --out <DIR>            output directory             [default: .]
    --packets-out <DIR>    also write tcpdump-style packet text here
    --packets-in <FILE>    ingest tcpdump-style packet text instead of
                           simulating: assemble and classify flows,
                           counting (not dying on) malformed lines and
                           sorting packets listed out of time order
    --faults <FILE>        inject this fault schedule into every run
                           (node crashes/recoveries; see `keddah faults`);
                           failure counters land in the trace metadata
    --trace-out <FILE>     write ring-buffered trace events as JSONL
    --metrics-out <FILE>   write a metrics snapshot as JSON
                           (render either with `keddah stats`)

Each repeat runs under seed, seed+1, ... regardless of --jobs: the
parallelism changes wall-clock time, never the captures.";

const FLAGS: &[&str] = &[
    "workload",
    "input-gb",
    "racks",
    "nodes-per-rack",
    "reducers",
    "replication",
    "block-mb",
    "repeats",
    "seed",
    "jobs",
    "out",
    "packets-out",
    "packets-in",
    "faults",
    obs_out::TRACE_OUT,
    obs_out::METRICS_OUT,
];

/// `--packets-in` mode: parse external tcpdump-style text into
/// classified flows, tolerating (and metering) corrupt lines.
fn ingest(args: &Args, path: &str) -> Result<()> {
    let obs = obs_out::obs_from_args(args);
    let file = fs::File::open(path).map_err(|e| err(format!("cannot open {path}: {e}")))?;
    let mut parsed = read_text_lenient(std::io::BufReader::new(file))
        .map_err(|e| err(format!("reading {path}: {e}")))?;
    obs.add("flowcap", "packets_parsed", parsed.packets.len() as u64);
    obs.add("flowcap", "parse_errors", parsed.parse_errors());
    for (line, message) in parsed.errors.iter().take(5) {
        eprintln!("  {path}:{line}: {message}");
        obs.trace(0, "flowcap", "parse_error", None, || {
            format!("line {line}: {message}")
        });
    }
    if parsed.errors.len() > 5 {
        eprintln!(
            "  ... and {} more malformed line(s)",
            parsed.errors.len() - 5
        );
    }

    let mut packets = std::mem::take(&mut parsed.packets);
    let reordered = sort_by_time(&mut packets);
    obs.add("flowcap", "packets_reordered", reordered);
    if reordered > 0 {
        eprintln!("  {reordered} packet(s) out of time order; sorted before assembly");
    }

    let mut assembler = FlowAssembler::new();
    assembler.extend(packets.iter().copied());
    let mut flows = assembler.finish();
    classify_all(&mut flows);
    obs.add("flowcap", "flows_assembled", flows.len() as u64);
    let total_bytes: u64 = flows
        .iter()
        .map(keddah_flowcap::FlowRecord::total_bytes)
        .sum();
    obs.add("flowcap", "flow_bytes", total_bytes);

    println!(
        "ingested {} packet(s) from {path}: {} flow(s), {:.2} MB, {} malformed line(s)",
        packets.len(),
        flows.len(),
        total_bytes as f64 / 1e6,
        parsed.parse_errors()
    );
    let mut by_component: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for flow in &flows {
        let name = flow.component.map_or("unclassified", |c| c.name());
        let slot = by_component.entry(name).or_default();
        slot.0 += 1;
        slot.1 += flow.total_bytes();
    }
    for (name, (count, bytes)) in &by_component {
        println!(
            "  {name:<12} {count:>6} flow(s) {:>12.2} MB",
            *bytes as f64 / 1e6
        );
    }
    obs_out::write_artifacts(&obs, args)
}

/// Runs the subcommand.
///
/// # Errors
///
/// Returns an error for bad flags, invalid configuration, or I/O
/// failure.
pub fn run(args: &Args) -> Result<()> {
    if args.wants_help() {
        println!("{HELP}");
        return Ok(());
    }
    args.check_known(FLAGS)?;
    if let Some(path) = args.get("packets-in") {
        if args.get("workload").is_some() {
            return Err(err("--packets-in ingests a file; drop --workload"));
        }
        return ingest(args, path);
    }
    let workload_name = args.require("workload")?;
    let workload = Workload::from_name(workload_name).ok_or_else(|| {
        err(format!(
            "unknown workload `{workload_name}` (expected one of: {})",
            Workload::ALL
                .iter()
                .map(|w| w.name())
                .collect::<Vec<_>>()
                .join(", ")
        ))
    })?;
    let input_gb: f64 = args.get_num("input-gb", 2.0)?;
    let input_bytes = gib_bytes("input-gb", input_gb)?;
    let cluster = ClusterSpec::racks(
        args.get_num("racks", 4u32)?.max(1),
        args.get_num("nodes-per-rack", 5u32)?.max(1),
    );
    let config = HadoopConfig::default()
        .with_reducers(args.get_num("reducers", 8u32)?)
        .with_replication(args.get_num("replication", 3u16)?)
        .with_block_bytes(args.get_num("block-mb", 128u64)? << 20);
    config
        .validate_for(&cluster)
        .map_err(|e| err(e.to_string()))?;
    let repeats: u32 = args.get_num("repeats", 5u32)?;
    let seed: u64 = args.get_num("seed", 1u64)?;
    let out_dir = PathBuf::from(args.get_or("out", "."));
    fs::create_dir_all(&out_dir)?;

    let packets_dir = args.get("packets-out").map(PathBuf::from);
    if let Some(dir) = &packets_dir {
        fs::create_dir_all(dir)?;
    }

    let faults = match args.get("faults") {
        Some(path) => {
            let spec = load::fault_spec(path)?;
            // The capture layer consumes node faults only; link faults
            // are validated leniently (any index) and ignored by the
            // cluster simulator.
            spec.validate(cluster.worker_count() + 1, u32::MAX)
                .map_err(|e| err(e.to_string()))?;
            if spec
                .faults
                .iter()
                .any(|f| !matches!(f.kind.label(), "node_crash" | "node_recover"))
            {
                eprintln!("note: link/partition faults only affect replay, not capture");
            }
            spec
        }
        None => FaultSpec::empty(),
    };

    let jobs: usize = args.get_num("jobs", 1usize)?.max(1);

    let job = JobSpec::new(workload, input_bytes);
    eprintln!(
        "capturing {repeats} run(s) of {job} on {} workers (--jobs {jobs})...",
        cluster.worker_count()
    );
    let seeds: Vec<u64> = (0..repeats).map(|i| seed + u64::from(i)).collect();
    let dag = job.workload.dag();
    // Simulate in parallel, in seed order whatever the scheduling. A run
    // keeps its connection log only when its packets are to be written,
    // and renders them then.
    let keep_log = packets_dir.is_some();
    let runs = par_map(&seeds, jobs, |&run_seed| {
        let (run, log) = run_dag(&cluster, &config, &dag, job.input_bytes, run_seed, &faults);
        let packets = log.packet_count();
        (run, packets, keep_log.then_some(log))
    });
    // Record in seed order, from the deterministically collected runs,
    // so artefacts are identical for any --jobs value.
    let obs = obs_out::obs_from_args(args);
    for (&run_seed, (run, packets, log)) in seeds.iter().zip(runs) {
        run.counters.record_obs(&obs);
        obs.add("capture", "runs", 1);
        obs.add("capture", "flows", run.trace.len() as u64);
        obs.add("capture", "bytes", run.trace.total_bytes());
        // Flows the classifier couldn't attribute fold into `Other`
        // downstream; meter them so new stage kinds that emit unfamiliar
        // traffic show up in the snapshot instead of vanishing silently.
        let unclassified = run
            .trace
            .flows()
            .iter()
            .filter(|f| f.component.is_none())
            .count() as u64;
        obs.add("capture", "unclassified_flows", unclassified);
        if obs.is_enabled() {
            obs.histogram("capture", "run_duration_secs")
                .observe(run.duration.as_secs_f64());
        }
        obs.trace(
            run.duration.as_nanos(),
            "hadoop",
            "job_complete",
            None,
            || {
                format!(
                    "seed={run_seed} flows={} bytes={} makespan={:.3}s",
                    run.trace.len(),
                    run.trace.total_bytes(),
                    run.duration.as_secs_f64()
                )
            },
        );
        let stem = format!(
            "{}_{}gb_r{}_seed{}",
            workload.name(),
            input_gb,
            config.reducers,
            run_seed
        );
        let path = out_dir.join(format!("{stem}.jsonl"));
        let file = fs::File::create(&path)?;
        run.trace
            .write_jsonl(std::io::BufWriter::new(file))
            .map_err(|e| err(format!("writing {}: {e}", path.display())))?;
        if let (Some(dir), Some(log)) = (&packets_dir, log) {
            let ppath = dir.join(format!("{stem}.txt"));
            let pfile = fs::File::create(&ppath)?;
            tcpdump::write_text(&log.packets(), std::io::BufWriter::new(pfile))
                .map_err(|e| err(format!("writing {}: {e}", ppath.display())))?;
        }
        eprintln!(
            "  {} ({} flows, {} packets, {:.2} GB, makespan {:.1} s)",
            path.display(),
            run.trace.len(),
            packets,
            run.trace.total_bytes() as f64 / 1e9,
            run.duration.as_secs_f64()
        );
        if run.counters.node_crashes > 0 {
            eprintln!(
                "    faults: {} crash(es), {} attempt(s) killed, {} failed map(s), \
                 {} speculative, {} block(s) re-replicated ({:.2} GB, {} flows)",
                run.counters.node_crashes,
                run.counters.fault_killed_attempts,
                run.counters.failed_map_attempts,
                run.counters.speculative_attempts,
                run.counters.rereplicated_blocks,
                run.counters.rereplicated_bytes as f64 / 1e9,
                run.counters.rereplication_flows
            );
        }
    }
    obs_out::write_artifacts(&obs, args)
}
