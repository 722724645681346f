//! `pipeline_profile`: end-to-end and per-layer benchmark of the Keddah
//! capture → fit → replay → serve pipeline.
//!
//! ```text
//! pipeline_profile [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
//! ```
//!
//! With `--workload` it runs that workload in this process: a set-up,
//! timed passes over the workload's items until `--seconds` have passed
//! (at least `MIN_PASSES`), then the remaining `SETUPS` set-ups. Times
//! are scaled to a reference machine speed (see `speed.rs`). It
//! prints one `workload metric value unit` line per metric, then, as its
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Without `--workload` it runs every workload, each in a
//! child process of its own, one after another. `--trace 1` (or
//! `--trace-out`) makes the traced run, which reports per-layer metrics
//! instead. The exit code is non-zero if any output check failed.
//! README.md describes the workloads and metrics.

mod spans;
mod speed;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::process::{Command, ExitCode};
use std::time::Instant;

use spans::Tracer;
use speed::Reference;
use stats::{median, peak_rss_mib, percentile_hd, Fnv};
use workloads::{Bench, Kind, Scale};

const USAGE: &str = "usage: pipeline_profile [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--trace-out PATH]";

/// Environment variables `SimOptions::default()` reads to switch netsim
/// onto its test oracles. A run with any of them set would measure a
/// different program, so the benchmark refuses to start.
const ORACLE_KNOBS: [&str; 3] = [
    "KEDDAH_FULL_RECOMPUTE",
    "KEDDAH_NO_AGGREGATE",
    "KEDDAH_SEQ_SOLVE",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Reference-kernel timings on each side of a set-up, whose median
/// scales its time.
const SETUP_KERNEL_RUNS: usize = 5;
/// Fewest timed passes in an untraced run; each item's time is the
/// trimmed mean of its passes.
const MIN_PASSES: usize = 3;
const DEFAULT_SEED: u64 = 11;
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// What the untraced run reports. Failures are reported as the result's
/// `failed` count (and a `failed_ratio` line), not as a metric, because
/// a metric must never read 0.
pub const END_TO_END: [Metric; 5] = [
    metric("flows_per_s", "flows/s", "higher"),
    metric("item_p50_ms", "ms", "lower"),
    metric("item_p90_ms", "ms", "lower"),
    metric("setup_s", "s", "lower"),
    metric("peak_rss_mb", "MiB", "lower"),
];

/// What the traced run reports, per cycle (one set-up plus one timed
/// pass). A layer a workload does not use reads 0.
pub const PER_LAYER: [Metric; 36] = [
    metric("hadoop.sim.busy_s", "s", "lower"),
    metric("hadoop.sim.packets", "packets", "lower"),
    metric("hadoop.sim.packets_per_s", "packets/s", "higher"),
    metric("flowcap.assembler.busy_s", "s", "lower"),
    metric("flowcap.assembler.packets_per_s", "packets/s", "higher"),
    metric("flowcap.classify.busy_s", "s", "lower"),
    metric("flowcap.classify.flows_per_s", "flows/s", "higher"),
    metric("core.dataset.busy_s", "s", "lower"),
    metric("core.dataset.flows_per_s", "flows/s", "higher"),
    metric("core.fitting.busy_s", "s", "lower"),
    metric("core.fitting.samples_per_s", "samples/s", "higher"),
    metric("core.fitting.fallback_ratio", "ratio", "lower"),
    metric("core.generate.busy_s", "s", "lower"),
    metric("core.generate.flows_per_s", "flows/s", "higher"),
    metric("core.validate.busy_s", "s", "lower"),
    metric("core.replay.convert_s", "s", "lower"),
    metric("core.source.busy_s", "s", "lower"),
    metric("core.source.callbacks", "calls", "lower"),
    metric("core.source.flows_per_callback", "flows/call", "higher"),
    metric("netsim.sim.busy_s", "s", "lower"),
    metric("netsim.sim.events", "events", "lower"),
    metric("netsim.sim.events_per_s", "events/s", "higher"),
    metric("netsim.sim.peak_active", "flows", "lower"),
    metric("netsim.sim.bundle_ratio", "ratio", "higher"),
    metric("netsim.sim.mice_ratio", "ratio", "higher"),
    metric("netsim.fair.solves", "solves", "lower"),
    metric("netsim.fair.dense_ratio", "ratio", "lower"),
    metric("netsim.fair.flows_per_solve", "flows/solve", "lower"),
    metric("core.stream.ingest_s", "s", "lower"),
    metric("core.stream.packets_per_s", "packets/s", "higher"),
    metric("core.stream.end_run_s", "s", "lower"),
    metric("core.stream.refit_s", "s", "lower"),
    metric("core.stream.peak_open_connections", "connections", "lower"),
    metric("core.stream.evicted_ratio", "ratio", "lower"),
    metric("trace.overhead_ratio", "ratio", "lower"),
    metric("trace.coverage_ratio", "ratio", "higher"),
];

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Kind::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => {
                args.trace_out = Some(value()?);
                args.trace = true;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

struct Plan {
    setups: usize,
    min_passes: usize,
    seconds: f64,
    traced: bool,
}

/// Everything one run measured.
struct Measurement {
    /// Scaled time of each set-up.
    setup_s: Vec<f64>,
    /// Peak resident set after the first set-up and the timed passes.
    peak_rss_mib: f64,
    /// Wall time of each untraced pass, reference-kernel runs excluded.
    pass_s: Vec<f64>,
    traced_pass_s: Vec<f64>,
    /// Per item, its scaled time in each untraced pass.
    item_s: Vec<Vec<f64>>,
    /// The reference-kernel timing after each untraced item, in seconds.
    kernel_s: Vec<f64>,
    /// Flows one pass processed.
    flows: u64,
    attempted: u64,
    failed: u64,
    /// Output digest of each pass, traced or not.
    digests: Vec<u64>,
    tracer: Tracer,
}

impl Measurement {
    /// Every item succeeded and every pass produced identical outputs.
    fn correct(&self) -> bool {
        self.failed == 0 && self.flows > 0 && self.digests.windows(2).all(|w| w[0] == w[1])
    }
}

/// Sets the workload up and records the set-up's time, scaled by the
/// reference-kernel runs just before and just after it.
fn setup(
    bench: &mut dyn Bench,
    t: &mut Tracer,
    kernel: &mut Reference,
    setup_s: &mut Vec<f64>,
) -> Result<(), String> {
    let mut around: Vec<f64> = (0..SETUP_KERNEL_RUNS).map(|_| kernel.time()).collect();
    t.begin("setup");
    let start = Instant::now();
    let done = bench.setup(t);
    let wall = start.elapsed().as_secs_f64();
    t.end();
    around.extend((0..SETUP_KERNEL_RUNS).map(|_| kernel.time()));
    setup_s.push(speed::scale(wall, median(&around)));
    done.map_err(|e| format!("set-up failed: {e}"))
}

/// Sets the workload up, runs passes over its items, reads the peak
/// resident set, then sets the workload up again until it has been set
/// up `plan.setups` times. The repeat set-ups come last because each one
/// replaces the previous inputs, and the heap they leave behind would
/// make the peak depend on allocator history rather than on the
/// workload.
///
/// Every untraced item is followed by one reference-kernel timing, and
/// its time is scaled by the timings around it once the passes are done.
///
/// The traced run alternates untraced and traced passes, so both kinds
/// see the same machine state and their ratio is the tracing overhead.
fn measure(bench: &mut dyn Bench, plan: &Plan) -> Result<Measurement, String> {
    let mut t = Tracer::new(plan.traced);
    let mut kernel = Reference::new();
    let mut setup_s = Vec::with_capacity(plan.setups);
    setup(bench, &mut t, &mut kernel, &mut setup_s)?;
    let n = bench.items();
    // Untraced item runs in the order they ran.
    let mut runs: Vec<(usize, speed::Sample)> = Vec::new();
    let mut m = Measurement {
        setup_s,
        peak_rss_mib: f64::NAN,
        pass_s: Vec::new(),
        traced_pass_s: Vec::new(),
        item_s: vec![Vec::new(); n],
        kernel_s: Vec::new(),
        flows: 0,
        attempted: 0,
        failed: 0,
        digests: Vec::new(),
        tracer: t,
    };
    let started = Instant::now();
    loop {
        let traced = plan.traced && m.pass_s.len() > m.traced_pass_s.len();
        let t = &mut m.tracer;
        t.set_enabled(traced);
        t.begin("pass");
        let pass_start = Instant::now();
        let mut kernel_in_pass = 0.0;
        let (mut flows, mut digest) = (0, Fnv::default());
        for i in 0..n {
            t.set_item(Some(i));
            let item_start = Instant::now();
            let out = bench.run_item(i, t);
            let dt = item_start.elapsed().as_secs_f64();
            if !traced {
                let kernel_start = Instant::now();
                let sample = speed::Sample {
                    start: (item_start - started).as_secs_f64(),
                    seconds: dt,
                    kernel: kernel.time(),
                };
                kernel_in_pass += kernel_start.elapsed().as_secs_f64();
                runs.push((i, sample));
                m.kernel_s.push(sample.kernel);
            }
            m.attempted += 1;
            match out {
                Ok(out) => {
                    flows += out.flows;
                    digest.u64(out.flows);
                    digest.u64(out.digest);
                }
                Err(e) => {
                    m.failed += 1;
                    eprintln!("item {i} failed: {e}");
                }
            }
        }
        let wall = pass_start.elapsed().as_secs_f64();
        t.end();
        t.set_item(None);
        if traced {
            m.traced_pass_s.push(wall);
        } else {
            m.pass_s.push(wall - kernel_in_pass);
        }
        m.flows = flows;
        m.digests.push(digest.0);
        let enough = if plan.traced {
            !m.traced_pass_s.is_empty()
        } else {
            m.pass_s.len() >= plan.min_passes
        };
        if enough && started.elapsed().as_secs_f64() >= plan.seconds {
            break;
        }
    }
    m.peak_rss_mib = peak_rss_mib().unwrap_or(f64::NAN);
    let samples: Vec<speed::Sample> = runs.iter().map(|r| r.1).collect();
    for (&(i, _), scaled) in runs.iter().zip(speed::scale_all(&samples)) {
        m.item_s[i].push(scaled);
    }
    m.tracer.set_enabled(plan.traced);
    while m.setup_s.len() < plan.setups {
        setup(bench, &mut m.tracer, &mut kernel, &mut m.setup_s)?;
    }
    Ok(m)
}

/// Each item's time is the mean of its scaled untraced passes without
/// the fastest and the slowest (`speed::trimmed_mean`). Percentiles are
/// then taken over items (Harrell–Davis, see `stats::percentile_hd`),
/// and throughput is a pass's flows over the sum of those times.
fn end_to_end(m: &Measurement) -> BTreeMap<&'static str, f64> {
    let item_s: Vec<f64> = m.item_s.iter().map(|xs| speed::trimmed_mean(xs)).collect();
    let item_ms: Vec<f64> = item_s.iter().map(|s| s * 1e3).collect();
    BTreeMap::from([
        ("flows_per_s", m.flows as f64 / item_s.iter().sum::<f64>()),
        ("item_p50_ms", percentile_hd(&item_ms, 50.0)),
        ("item_p90_ms", percentile_hd(&item_ms, 90.0)),
        ("setup_s", median(&m.setup_s)),
        ("peak_rss_mb", m.peak_rss_mib),
    ])
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Derives the per-layer metrics from the traced run's spans.
///
/// `hadoop.run_job` times `run_job_with_packets`, which simulates, then
/// assembles and classifies the packets itself. The capture check
/// repeats that assembly and classification on the same packets under
/// spans of their own, so each of those layers is charged twice its
/// span and the simulator the `hadoop.run_job` span less one of each.
fn per_layer(m: &Measurement) -> BTreeMap<&'static str, f64> {
    let c = m.tracer.cycle();
    let reassemble = c.busy("flowcap.reassemble");
    let classify = c.busy("flowcap.classify");
    let sim = c.busy("hadoop.run_job") - reassemble - classify;
    let packets = c.count("hadoop.sim.packets");
    let fitting = c.busy("core.fitting");
    let netsim = c.busy("netsim.sim");
    let stream_ingest = c.busy("core.stream.ingest");
    let layers: f64 = (c.busy.iter())
        .filter(|(name, _)| !matches!(**name, "setup" | "pass"))
        .map(|(_, s)| s)
        .sum();
    let overhead = ratio(median(&m.traced_pass_s), median(&m.pass_s));
    let peak = |name| m.tracer.peak_of(name);
    BTreeMap::from([
        ("hadoop.sim.busy_s", sim),
        ("hadoop.sim.packets", packets),
        ("hadoop.sim.packets_per_s", ratio(packets, sim)),
        ("flowcap.assembler.busy_s", 2.0 * reassemble),
        (
            "flowcap.assembler.packets_per_s",
            ratio(packets, reassemble),
        ),
        ("flowcap.classify.busy_s", 2.0 * classify),
        (
            "flowcap.classify.flows_per_s",
            ratio(c.count("flowcap.classify.flows"), classify),
        ),
        ("core.dataset.busy_s", c.busy("core.dataset")),
        (
            "core.dataset.flows_per_s",
            ratio(c.count("core.dataset.flows"), c.busy("core.dataset")),
        ),
        ("core.fitting.busy_s", fitting),
        (
            "core.fitting.samples_per_s",
            ratio(c.count("core.fitting.samples"), fitting),
        ),
        (
            "core.fitting.fallback_ratio",
            ratio(
                c.count("core.fitting.fallbacks"),
                c.count("core.fitting.dists"),
            ),
        ),
        ("core.generate.busy_s", c.busy("core.generate")),
        (
            "core.generate.flows_per_s",
            ratio(c.count("core.generate.flows"), c.busy("core.generate")),
        ),
        ("core.validate.busy_s", c.busy("core.validate")),
        ("core.replay.convert_s", c.busy("core.replay.convert")),
        ("core.source.busy_s", c.busy("core.source")),
        ("core.source.callbacks", c.count("core.source.callbacks")),
        (
            "core.source.flows_per_callback",
            ratio(
                c.count("core.source.flows"),
                c.count("core.source.callbacks"),
            ),
        ),
        ("netsim.sim.busy_s", netsim),
        ("netsim.sim.events", c.count("netsim.sim.events")),
        (
            "netsim.sim.events_per_s",
            ratio(c.count("netsim.sim.events"), netsim),
        ),
        ("netsim.sim.peak_active", peak("netsim.sim.peak_active")),
        (
            "netsim.sim.bundle_ratio",
            ratio(
                c.count("netsim.sim.active_sum"),
                c.count("netsim.sim.bundles_sum"),
            ),
        ),
        (
            "netsim.sim.mice_ratio",
            ratio(c.count("netsim.sim.mice"), c.count("netsim.sim.flows")),
        ),
        ("netsim.fair.solves", c.count("netsim.fair.solves")),
        (
            "netsim.fair.dense_ratio",
            ratio(c.count("netsim.fair.dense"), c.count("netsim.fair.solves")),
        ),
        (
            "netsim.fair.flows_per_solve",
            ratio(
                c.count("netsim.fair.solved_flows"),
                c.count("netsim.fair.solves"),
            ),
        ),
        ("core.stream.ingest_s", stream_ingest),
        (
            "core.stream.packets_per_s",
            ratio(c.count("core.stream.packets"), stream_ingest),
        ),
        ("core.stream.end_run_s", c.busy("core.stream.end_run")),
        ("core.stream.refit_s", c.busy("core.stream.refit")),
        (
            "core.stream.peak_open_connections",
            peak("core.stream.peak_open_connections"),
        ),
        (
            "core.stream.evicted_ratio",
            ratio(c.count("core.stream.evicted"), c.count("core.stream.flows")),
        ),
        ("trace.overhead_ratio", overhead),
        ("trace.coverage_ratio", ratio(layers, c.wall)),
    ])
}

/// Prints the human-readable lines, then the result object as the last
/// line of standard output.
fn report(kind: Kind, m: &Measurement, table: &[Metric], values: &BTreeMap<&str, f64>) {
    let name = kind.name();
    let mut json = Vec::new();
    for metric in table {
        let v = values[metric.name];
        // A non-finite value cannot be written as JSON; 0 is never a
        // plausible reading of any end-to-end metric, so it stands out.
        let v = if v.is_finite() { v } else { 0.0 };
        println!("{name} {} {v} {}", metric.name, metric.unit);
        json.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    let failed_ratio = m.failed as f64 / m.attempted.max(1) as f64;
    println!("{name} failed_ratio {failed_ratio} ratio");
    let items = m.item_s.len();
    let tail = stats::tail_percentile(items).map_or("none".into(), |p| format!("p{p}"));
    println!(
        "# {name}: {items} items x {} untraced passes ({} traced), {} set-ups; \
         highest percentile with {} items beyond it: {tail}",
        m.pass_s.len(),
        m.traced_pass_s.len(),
        m.setup_s.len(),
        stats::MIN_BEYOND,
    );
    let walls = |xs: &[f64]| xs.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>();
    println!(
        "# {name}: {} flows per pass; pass walls (s): untraced {:?}, traced {:?}; set-ups {:?}",
        m.flows,
        walls(&m.pass_s),
        walls(&m.traced_pass_s),
        walls(&m.setup_s),
    );
    let kernel = median(&m.kernel_s);
    println!(
        "# {name}: reference kernel median {:.1} us over {} timings: the machine ran at {:.3}x reference speed",
        kernel * 1e6,
        m.kernel_s.len(),
        speed::REFERENCE_S / kernel,
    );
    println!("# {name}: output_digest {:016x}", m.digests[0]);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.correct(),
        m.attempted,
        m.failed,
        json.join(", ")
    );
}

fn run_one(kind: Kind, args: &Args) -> ExitCode {
    let mut bench = kind.build(args.seed, Scale::FULL);
    let plan = Plan {
        setups: SETUPS,
        min_passes: MIN_PASSES,
        seconds: args.seconds,
        traced: args.trace,
    };
    let m = match measure(bench.as_mut(), &plan) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("pipeline_profile: {}: {e}", kind.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.trace_out {
        let written = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|f| {
                m.tracer
                    .write_jsonl(kind.name(), std::io::BufWriter::new(f))
            });
        if let Err(e) = written {
            eprintln!("pipeline_profile: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if args.trace {
        report(kind, &m, &PER_LAYER, &per_layer(&m));
    } else {
        report(kind, &m, &END_TO_END, &end_to_end(&m));
    }
    if m.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("pipeline_profile: {}: output checks failed", kind.name());
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a child process of its own so that
/// `peak_rss_mb` is per workload, one after another.
fn run_all(args: &Args) -> ExitCode {
    if let Some(path) = &args.trace_out {
        if let Err(e) = File::create(path) {
            eprintln!("pipeline_profile: creating {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("pipeline_profile: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for kind in Kind::ALL {
        let mut child = Command::new(&exe);
        child.args(["--workload", kind.name()]);
        child.args(["--seed", &args.seed.to_string()]);
        child.args(["--seconds", &args.seconds.to_string()]);
        child.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(path) = &args.trace_out {
            child.args(["--trace-out", path]);
        }
        match child.status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("pipeline_profile: {}: {e}", kind.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipeline_profile: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(knob) = ORACLE_KNOBS.iter().find(|k| std::env::var_os(k).is_some()) {
        eprintln!(
            "pipeline_profile: {knob} is set; it switches netsim onto a test oracle, \
             so the run would not measure the shipped program. Unset it."
        );
        return ExitCode::from(2);
    }
    match args.workload {
        Some(kind) => run_one(kind, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn array(v: &Value) -> &[Value] {
        match v {
            Value::Array(xs) => xs,
            other => panic!("expected array, found {}", other.kind()),
        }
    }

    fn number(v: &Value) -> f64 {
        match v {
            Value::F64(x) => *x,
            Value::U64(x) => *x as f64,
            other => panic!("expected number, found {}", other.kind()),
        }
    }

    fn names_units(v: &Value) -> Vec<(String, String, String)> {
        array(v)
            .iter()
            .map(|m| {
                let s = |k| field(m, k).as_str().expect("string").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn table(ms: &[Metric]) -> Vec<(String, String, String)> {
        ms.iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_binary_prints() {
        let spec = serde::json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = array(field(&spec, "workloads"))
            .iter()
            .map(|w| field(w, "name").as_str().expect("name"))
            .collect();
        let ours: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(names_units(field(&spec, "end_to_end")), table(&END_TO_END));
        assert_eq!(names_units(field(&spec, "per_layer")), table(&PER_LAYER));
        let bounds: Vec<(String, f64)> = array(field(&spec, "end_to_end"))
            .iter()
            .map(|m| {
                let name = field(m, "name").as_str().expect("name").to_string();
                (name, number(field(m, "bound")))
            })
            .collect();
        let largest = bounds.iter().map(|b| b.1).fold(0.0, f64::max);
        for (name, bound) in &bounds {
            assert!(*bound > 0.0 && *bound <= 0.25, "{name} bound {bound}");
        }
        assert_eq!(bounds.iter().find(|b| b.0 == "setup_s").unwrap().1, largest);
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(&PER_LAYER).collect();
        let mut seen = std::collections::BTreeSet::new();
        for m in &all {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit {}",
                m.unit
            );
            assert!(matches!(m.better, "higher" | "lower"));
        }
        for k in Kind::ALL {
            assert!(valid_name(k.name()));
        }
    }

    #[test]
    fn every_workload_has_enough_items_for_p90() {
        for kind in Kind::ALL {
            let n = kind.build(DEFAULT_SEED, Scale::FULL).items();
            assert!(n >= 100, "{} has {n} items", kind.name());
            assert!(stats::tail_percentile(n) >= Some(90.0));
        }
    }

    #[test]
    fn arguments_parse() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload replay_open --seed 29 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Kind::ReplayOpen));
        assert_eq!((a.seed, a.seconds, a.trace), (29, 10.0, true));
        let b = parse("--trace-out spans.jsonl").unwrap();
        assert!(b.trace && b.workload.is_none());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--bogus").is_err());
    }

    /// Every workload at 256 MiB with one item per paper row, through one
    /// untraced and one traced pass: no item fails, both passes produce
    /// identical outputs, and the trace yields every layer metric.
    #[test]
    fn smoke_every_workload_passes() {
        let scale = Scale {
            per_row: 1,
            input_bytes: Some(256 << 20),
        };
        for kind in Kind::ALL {
            let mut bench = kind.build(DEFAULT_SEED, scale);
            let plan = Plan {
                setups: 1,
                min_passes: 1,
                seconds: 0.0,
                traced: true,
            };
            let m = measure(bench.as_mut(), &plan).expect("set-up succeeds");
            assert_eq!(m.failed, 0, "{}", kind.name());
            assert!(
                m.correct(),
                "{}: outputs differ between passes",
                kind.name()
            );
            let layers = per_layer(&m);
            let names: Vec<&str> = layers.keys().copied().collect();
            let mut want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            want.sort_unstable();
            assert_eq!(names, want);
            assert!(layers.values().all(|v| v.is_finite() && *v >= 0.0));
            assert!(end_to_end(&m).values().all(|v| v.is_finite() && *v > 0.0));
        }
    }
}
