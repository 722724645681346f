//! `keddah serve` — long-running streaming ingestion daemon.
//!
//! Tails a directory of rotating capture files (flow traces or packet
//! text), feeds them through the bounded-memory streaming engine
//! ([`keddah_core::stream`]), refits the model online, and publishes
//! model/metrics/health over a tiny HTTP endpoint. `--stdin` is the
//! one-shot variant: read packet text from stdin, fit once, print the
//! model.

use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use keddah_core::stream::{
    bind, ingest_path, serve_http, shared_status, DirTailer, HttpStats, StreamEngine, StreamOptions,
};
use keddah_core::SketchMode;
use keddah_des::Duration;
use keddah_flowcap::{tcpdump, TraceMeta};
use keddah_obs::Obs;

use super::{err, Args, Result};

const HELP: &str = "\
keddah serve — tail a capture directory and keep a fitted model fresh

USAGE:
    keddah serve --dir <DIR> [FLAGS]
    keddah serve --stdin [FLAGS]

FLAGS:
    --dir <DIR>               directory to tail for rotated capture files
                              (*.jsonl flow traces, *.txt packet text)
    --stdin                   one-shot mode: read packet text from stdin,
                              fit once, print the model JSON to stdout
    --http <ADDR>             HTTP bind address [default: 127.0.0.1:0]
    --http-addr-file <FILE>   write the bound address here after startup
    --idle-timeout-secs <N>   idle eviction timeout, seconds [default: 60]
    --max-active <N>          connection-table capacity [default: 65536]
    --epsilon <E>             GK sketch rank error bound [default: 0.01]
    --exact                   keep exact samples instead of sketches
                              (refits byte-identical to `keddah fit`)
    --refit-runs <N>          refit every N ingested files [default: 1]
    --poll-ms <N>             directory poll interval, ms [default: 50]
    --workload <NAME>         workload label for packet-text runs
                              [default: stream]
    --metrics-out <FILE>      write the final metrics snapshot on shutdown

ENDPOINT:
    GET /healthz   liveness probe (\"ok\")
    GET /model     current fitted model JSON (404 until the first refit)
    GET /metrics   obs metrics snapshot JSON
    GET /status    {generation, runs, flows, files, model_fitted, last_error}

The daemon runs until SIGTERM or ctrl-c, then shuts down cleanly:
stops accepting, joins the endpoint thread, and writes --metrics-out.";

const FLAGS: &[&str] = &[
    "dir",
    "stdin",
    "http",
    "http-addr-file",
    "idle-timeout-secs",
    "max-active",
    "epsilon",
    "exact",
    "refit-runs",
    "poll-ms",
    "workload",
    "metrics-out",
];

/// Signal plumbing: SIGINT/SIGTERM set a process-wide stop flag that the
/// serve loop polls. Raw `signal(2)` via the C ABI — the std library
/// offers nothing and the dependency allowlist is closed.
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static STOP: AtomicBool = AtomicBool::new(false);

    type Handler = extern "C" fn(i32);

    extern "C" {
        fn signal(signum: i32, handler: Handler) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn reset() {
        STOP.store(false, Ordering::SeqCst);
    }

    pub fn stopped() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

/// Runs the subcommand.
///
/// # Errors
///
/// Returns an error on bad flags, bind failures, or (in `--stdin` mode)
/// unfittable input. Per-file ingest errors in daemon mode are reported
/// on stderr and `/status` instead of killing the daemon.
pub fn run(args: &Args) -> Result<()> {
    if args.wants_help() {
        println!("{HELP}");
        return Ok(());
    }
    args.check_known(FLAGS)?;

    let opts = StreamOptions {
        idle_timeout: Duration::from_secs(args.get_num("idle-timeout-secs", 60u64)?),
        max_active: args.get_num("max-active", 65_536usize)?,
        sketch: if args.get_bool("exact") {
            SketchMode::Exact
        } else {
            SketchMode::Gk {
                epsilon: args.get_num("epsilon", 0.01f64)?,
            }
        },
        refit_runs: args.get_num("refit-runs", 1usize)?,
    };
    let obs = Obs::enabled();
    let mut engine = StreamEngine::new(opts, &obs).map_err(|e| err(e.to_string()))?;
    let workload = args.get_or("workload", "stream").to_string();

    if args.get_bool("stdin") {
        return run_stdin(&mut engine, &obs, &workload, args);
    }
    let dir = args
        .require("dir")
        .map_err(|_| err("missing --dir (or --stdin); run `keddah serve --help`"))?;
    run_daemon(&mut engine, &obs, &workload, dir, args)
}

/// One-shot mode: stdin packet text → one run → model on stdout.
fn run_stdin(engine: &mut StreamEngine, obs: &Obs, workload: &str, args: &Args) -> Result<()> {
    let mut parsed = tcpdump::read_text_lenient(std::io::stdin().lock())
        .map_err(|e| err(format!("reading stdin: {e}")))?;
    obs.add("stream", "parse_errors", parsed.errors.len() as u64);
    print_parse_errors("stdin", &parsed.errors);
    let reordered = tcpdump::sort_by_time(&mut parsed.packets);
    obs.add("stream", "packets_reordered", reordered);
    for packet in parsed.packets {
        engine.ingest_packet(packet);
    }
    engine
        .end_run(&packet_meta(workload))
        .map_err(|e| err(e.to_string()))?;
    match engine.model_json() {
        Some(json) => println!("{json}"),
        None => return Err(err("not enough flows on stdin to fit a model")),
    }
    write_metrics(obs, args)?;
    Ok(())
}

/// Daemon mode: tail the directory until SIGTERM/ctrl-c.
fn run_daemon(
    engine: &mut StreamEngine,
    obs: &Obs,
    workload: &str,
    dir: &str,
    args: &Args,
) -> Result<()> {
    let poll_ms = args.get_num("poll-ms", 50u64)?;
    let (listener, addr) = bind(args.get_or("http", "127.0.0.1:0"))
        .map_err(|e| err(format!("cannot bind http endpoint: {e}")))?;
    if let Some(path) = args.get("http-addr-file") {
        fs::write(path, format!("{addr}\n"))
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
    }

    sig::reset();
    sig::install();
    let status = shared_status();
    let shutdown = Arc::new(AtomicBool::new(false));
    let http_thread = {
        let (status, shutdown) = (Arc::clone(&status), Arc::clone(&shutdown));
        let stats = HttpStats::new(obs);
        std::thread::spawn(move || serve_http(listener, status, shutdown, stats))
    };
    eprintln!("keddah serve: endpoint http://{addr}, watching {dir}");

    let mut tailer = DirTailer::new(dir);
    let mut files = 0u64;
    while !sig::stopped() {
        let ready = match tailer.poll() {
            Ok(ready) => ready,
            Err(e) => {
                eprintln!("keddah serve: poll error: {e}");
                set_error(&status, format!("poll error: {e}"));
                Vec::new()
            }
        };
        for path in ready {
            match ingest_path(engine, obs, workload, &path) {
                Ok(report) => {
                    files += 1;
                    print_parse_errors(&path.display().to_string(), &report.parse_errors);
                    eprintln!(
                        "keddah serve: ingested {} (run {}, {} flows total, generation {})",
                        path.display(),
                        engine.runs(),
                        engine.flows_total(),
                        engine.generation()
                    );
                }
                Err(e) => {
                    eprintln!("keddah serve: {}: {e}", path.display());
                    set_error(&status, format!("{}: {e}", path.display()));
                }
            }
            publish(&status, engine, obs, files);
        }
        publish(&status, engine, obs, files);
        sleep_responsive(poll_ms);
    }

    shutdown.store(true, Ordering::SeqCst);
    let _ = http_thread.join();
    eprintln!(
        "keddah serve: shutdown after {files} file(s), {} run(s), {} flow(s), generation {}",
        engine.runs(),
        engine.flows_total(),
        engine.generation()
    );
    write_metrics(obs, args)?;
    Ok(())
}

/// Sleeps `ms` in short slices so a stop signal is honoured promptly
/// even under long poll intervals.
fn sleep_responsive(ms: u64) {
    let mut left = ms.max(1);
    while left > 0 && !sig::stopped() {
        let slice = left.min(50);
        std::thread::sleep(std::time::Duration::from_millis(slice));
        left -= slice;
    }
}

/// Builds run metadata for packet-text input, which carries no header.
fn packet_meta(workload: &str) -> TraceMeta {
    TraceMeta {
        workload: workload.to_string(),
        ..TraceMeta::default()
    }
}

/// Prints skipped-line diagnostics; counting happened where they were
/// detected ([`ingest_path`] or the stdin path).
fn print_parse_errors(source: &str, errors: &[(usize, String)]) {
    for (line, message) in errors.iter().take(5) {
        eprintln!("keddah serve: {source}:{line}: {message}");
    }
    if errors.len() > 5 {
        eprintln!(
            "keddah serve: {source}: …and {} more malformed line(s)",
            errors.len() - 5
        );
    }
}

fn publish(
    status: &keddah_core::stream::SharedStatus,
    engine: &StreamEngine,
    obs: &Obs,
    files: u64,
) {
    if let Ok(mut guard) = status.lock() {
        guard.generation = engine.generation();
        guard.runs = engine.runs() as u64;
        guard.flows = engine.flows_total();
        guard.files = files;
        guard.model_json = engine.model_json();
        guard.metrics_json = obs.metrics().to_json();
    }
}

fn set_error(status: &keddah_core::stream::SharedStatus, message: String) {
    if let Ok(mut guard) = status.lock() {
        guard.last_error = Some(message);
    }
}

fn write_metrics(obs: &Obs, args: &Args) -> Result<()> {
    if let Some(path) = args.get("metrics-out") {
        let snapshot = obs.metrics();
        fs::write(path, snapshot.to_json() + "\n")
            .map_err(|e| err(format!("writing {path}: {e}")))?;
        eprintln!(
            "wrote metrics for {} subsystem(s) to {path}",
            snapshot.subsystems.len()
        );
    }
    Ok(())
}
