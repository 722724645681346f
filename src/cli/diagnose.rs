//! `keddah diagnose` — fault fingerprinting: from observable artefacts
//! of a degraded run to a ranked root-cause verdict.

use std::path::{Path, PathBuf};

use keddah_diagnose::corpus;
use keddah_diagnose::eval::{evaluate, EvalReport};
use keddah_diagnose::{diagnose, Diagnosis, Evidence};
use keddah_hadoop::Workload;
use keddah_obs::Obs;

use super::obs_out::{self, METRICS_OUT};
use super::{err, load, Args, Result};

const HELP: &str = "\
keddah diagnose — infer the fault behind a degraded run

Classifies observable evidence — metrics snapshots, capture traces, or
a pre-built evidence file — into a ranked list of fault-class verdicts
(none, node_crash, link_down, link_degraded, partition), localising
the faulty node or cut where the abort pattern allows. The classifier
never reads injected fault specs: only their observable effects.

USAGE:
    keddah diagnose [FLAGS]                   classify one case
    keddah diagnose corpus --out <DIR>        build the labelled corpus
    keddah diagnose eval --corpus <DIR>       score against a corpus

classify FLAGS:
    --evidence <FILE>          pre-built evidence.json (corpus cell)
    --trace <TRACE>            degraded capture trace (JSONL)
    --baseline-trace <TRACE>   healthy capture trace to diff against
    --metrics <FILE>           degraded metrics snapshot (--metrics-out)
    --baseline-metrics <FILE>  healthy metrics snapshot
    --json                     print the ranked diagnosis as JSON
    --out <FILE>               also write the JSON diagnosis here
    --metrics-out <FILE>       write diagnose's own metrics (counts
                               rejected inputs as diagnose/parse_errors)

corpus FLAGS:
    --out <DIR>      corpus directory (required)
    --seeds <N>      seed lanes per workload x class    [default: 2]
    --jobs <N>       worker threads (0 = all cores)     [default: 0]

eval FLAGS:
    --corpus <DIR>   corpus directory (required)
    --out <FILE>     write the eval report JSON here
    --check <FILE>   fail unless macro precision/recall hold the floor
                     of this committed report

Artefact bytes and verdict text are independent of --jobs and of
repetition: the same inputs always produce the same output.";

const CLASSIFY_FLAGS: &[&str] = &[
    "evidence",
    "trace",
    "baseline-trace",
    "metrics",
    "baseline-metrics",
    "json",
    "out",
    METRICS_OUT,
];

const CORPUS_FLAGS: &[&str] = &["out", "seeds", "jobs"];

const EVAL_FLAGS: &[&str] = &["corpus", "out", "check"];

/// Runs the subcommand.
///
/// # Errors
///
/// Returns an error for bad flags, unreadable or malformed inputs
/// (counted under `diagnose/parse_errors` when metrics are recorded),
/// corpus build failures, or a tripped eval gate.
pub fn run(args: &Args) -> Result<()> {
    if args.wants_help() {
        println!("{HELP}");
        return Ok(());
    }
    match args.positional() {
        [] => classify(args),
        [sub] if sub == "corpus" => build_corpus(args),
        [sub] if sub == "eval" => run_eval(args),
        _ => Err(err(
            "expected `keddah diagnose [FLAGS]`, `keddah diagnose corpus --out <DIR>` \
             or `keddah diagnose eval --corpus <DIR>`",
        )),
    }
}

/// Loads evidence per the classify flags. Parse rejections bump
/// `diagnose/parse_errors` before surfacing, so a metrics snapshot of a
/// failed invocation still records *why* it failed.
fn gather_evidence(args: &Args, obs: &Obs) -> Result<Evidence> {
    let reject = |obs: &Obs, args: &Args, e: String| {
        obs.add("diagnose", "parse_errors", 1);
        // Best effort: the artefact write happens on the success path
        // too; a failing write here must not mask the parse error.
        let _ = obs_out::write_artifacts(obs, args);
        err(e)
    };
    if let Some(path) = args.get("evidence") {
        if args.get("trace").is_some() || args.get("metrics").is_some() {
            return Err(err("--evidence replaces --trace/--metrics inputs"));
        }
        return Evidence::load(Path::new(path)).map_err(|e| reject(obs, args, e.to_string()));
    }
    let mut evidence = match args.get("trace") {
        Some(trace_path) => {
            let mut paths = vec![trace_path.to_string()];
            if let Some(baseline) = args.get("baseline-trace") {
                paths.push(baseline.to_string());
            }
            let mut traces = load::traces(&paths).map_err(|e| reject(obs, args, e.0))?;
            let baseline = if traces.len() > 1 { traces.pop() } else { None };
            Evidence::from_traces(&traces[0], baseline.as_ref())
        }
        None => {
            if args.get("metrics").is_none() {
                return Err(err(
                    "nothing to diagnose: give --evidence, --trace or --metrics \
                     (run `keddah diagnose --help`)",
                ));
            }
            Evidence::default()
        }
    };
    for (flag, slot) in [
        ("metrics", &mut evidence.metrics),
        ("baseline-metrics", &mut evidence.baseline_metrics),
    ] {
        if let Some(path) = args.get(flag) {
            slot.merge(&load::snapshot(path).map_err(|e| reject(obs, args, e.0))?);
        }
    }
    Ok(evidence)
}

fn classify(args: &Args) -> Result<()> {
    args.check_known(CLASSIFY_FLAGS)?;
    let obs = obs_out::obs_from_args(args);
    let evidence = gather_evidence(args, &obs)?;
    let diagnosis = diagnose(&evidence);
    emit(&diagnosis, args)?;
    obs.add("diagnose", "cases_classified", 1);
    obs_out::write_artifacts(&obs, args)?;
    Ok(())
}

fn emit(diagnosis: &Diagnosis, args: &Args) -> Result<()> {
    if args.get_bool("json") {
        println!("{}", diagnosis.to_json());
    } else {
        print!("{}", diagnosis.render());
    }
    if let Some(path) = args.get("out") {
        std::fs::write(path, diagnosis.to_json())
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
        eprintln!("wrote diagnosis to {path}");
    }
    Ok(())
}

fn build_corpus(args: &Args) -> Result<()> {
    args.check_known(CORPUS_FLAGS)?;
    let out = PathBuf::from(args.require("out")?);
    let seeds: u64 = args.get_num("seeds", 2)?;
    if seeds == 0 {
        return Err(err("--seeds must be at least 1"));
    }
    let jobs = match args.get_num("jobs", 0usize)? {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        n => n,
    };
    let manifest = corpus::build(&out, Workload::PAPER, seeds, jobs)
        .map_err(|e| err(format!("corpus build failed: {e}")))?;
    eprintln!(
        "built {} corpus cell(s) under {}",
        manifest.cells.len(),
        out.display()
    );
    Ok(())
}

fn run_eval(args: &Args) -> Result<()> {
    args.check_known(EVAL_FLAGS)?;
    let dir = PathBuf::from(args.require("corpus")?);
    let report = evaluate(&dir).map_err(|e| err(format!("eval failed: {e}")))?;
    println!("{}", report.to_json());
    if let Some(path) = args.get("out") {
        std::fs::write(path, report.to_json())
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
        eprintln!("wrote eval report to {path}");
    }
    if let Some(path) = args.get("check") {
        let committed = EvalReport::load(Path::new(path))
            .map_err(|e| err(format!("cannot load committed report: {e}")))?;
        report
            .check_against(&committed)
            .map_err(|e| err(format!("eval gate: {e}")))?;
        eprintln!(
            "eval gate held: precision {} >= {}, recall {} >= {}",
            report.macro_precision,
            committed.macro_precision,
            report.macro_recall,
            committed.macro_recall
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_inputs_is_a_clean_error() {
        let e = run(&Args::parse(&[]).unwrap()).unwrap_err();
        assert!(e.to_string().contains("nothing to diagnose"), "{e}");
    }

    #[test]
    fn evidence_excludes_other_inputs() {
        let args = Args::parse(&v(&["--evidence", "a.json", "--trace", "b.jsonl"])).unwrap();
        let e = run(&args).unwrap_err();
        assert!(e.to_string().contains("replaces"), "{e}");
    }

    #[test]
    fn unknown_subcommand_is_rejected() {
        let e = run(&Args::parse(&v(&["frobnicate"])).unwrap()).unwrap_err();
        assert!(e.to_string().contains("expected"), "{e}");
    }

    #[test]
    fn corpus_requires_out() {
        let e = run(&Args::parse(&v(&["corpus"])).unwrap()).unwrap_err();
        assert!(e.to_string().contains("--out"), "{e}");
    }

    #[test]
    fn eval_requires_corpus() {
        let e = run(&Args::parse(&v(&["eval"])).unwrap()).unwrap_err();
        assert!(e.to_string().contains("--corpus"), "{e}");
    }

    #[test]
    fn malformed_evidence_counts_as_parse_error() {
        let dir = std::env::temp_dir().join("keddah_diag_cli_parse");
        std::fs::create_dir_all(&dir).unwrap();
        let evidence = dir.join("broken.json");
        std::fs::write(&evidence, "{ truncated").unwrap();
        let metrics_out = dir.join("metrics.json");
        let args = Args::parse(&v(&[
            "--evidence",
            evidence.to_str().unwrap(),
            "--metrics-out",
            metrics_out.to_str().unwrap(),
        ]))
        .unwrap();
        let e = run(&args).unwrap_err();
        assert!(e.to_string().contains("broken.json"), "{e}");
        let snapshot =
            keddah_obs::MetricsSnapshot::from_json(&std::fs::read_to_string(&metrics_out).unwrap())
                .unwrap();
        assert_eq!(snapshot.counter("diagnose", "parse_errors"), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
