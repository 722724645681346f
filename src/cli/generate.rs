//! `keddah generate` — sample synthetic jobs from a fitted model.

use std::fs;

use super::{err, load, Args, Result};

const HELP: &str = "\
keddah generate — generate synthetic jobs from a Keddah model

USAGE:
    keddah generate --model <MODEL.json> [FLAGS]

FLAGS:
    --model <FILE>      fitted model JSON (required)
    --jobs <N>          jobs to generate           [default: 1]
    --seed <N>          base seed                  [default: 1]
    --stagger-secs <S>  start offset between jobs  [default: 0]
    --out <FILE>        output JSON                [default: stdout]";

const FLAGS: &[&str] = &["model", "jobs", "seed", "stagger-secs", "out"];

/// Runs the subcommand.
///
/// # Errors
///
/// Returns an error if the model cannot be loaded or output written.
pub fn run(args: &Args) -> Result<()> {
    if args.wants_help() {
        println!("{HELP}");
        return Ok(());
    }
    args.check_known(FLAGS)?;
    let model_path = args.require("model")?;
    let model = load::model(model_path)?;
    let jobs: u32 = args.get_num("jobs", 1u32)?;
    let seed: u64 = args.get_num("seed", 1u64)?;
    let stagger = args.get_secs("stagger-secs", 0.0)?;
    if jobs == 0 {
        return Err(err("--jobs must be at least 1"));
    }

    let generated = model.generate_jobs(jobs, seed, stagger);
    let total_flows: usize = generated.iter().map(|j| j.flows.len()).sum();
    let total_bytes: u64 = generated.iter().map(|j| j.total_bytes()).sum();
    eprintln!(
        "generated {jobs} job(s): {total_flows} flows, {:.2} GB",
        total_bytes as f64 / 1e9
    );
    let payload = serde_json::to_string_pretty(&generated).expect("generated jobs serialize");
    match args.get("out") {
        Some(path) => fs::write(path, payload)?,
        None => println!("{payload}"),
    }
    Ok(())
}
