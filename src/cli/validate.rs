//! `keddah validate` — compare a model's generated traffic to captures.

use keddah_core::validate::validate_model;

use super::{err, load, Args, Result};

const HELP: &str = "\
keddah validate — compare generated traffic against capture traces

USAGE:
    keddah validate --model <MODEL.json> <TRACE.jsonl>...

FLAGS:
    --model <FILE>   fitted model JSON (required)
    --jobs <N>       synthetic jobs to generate   [default: 10]
    --seed <N>       generation seed              [default: 1]";

const FLAGS: &[&str] = &["model", "jobs", "seed"];

/// Runs the subcommand.
///
/// # Errors
///
/// Returns an error for missing inputs or validation failures.
pub fn run(args: &Args) -> Result<()> {
    if args.wants_help() {
        println!("{HELP}");
        return Ok(());
    }
    args.check_known(FLAGS)?;
    let model_path = args.require("model")?;
    let model = load::model(model_path)?;
    if args.positional().is_empty() {
        return Err(err("no trace files given; run `keddah validate --help`"));
    }
    let traces = load::traces(args.positional())?;
    let report = validate_model(
        &model,
        &traces,
        args.get_num("jobs", 10u32)?.max(1),
        args.get_num("seed", 1u64)?,
    )
    .map_err(|e| err(e.to_string()))?;

    println!(
        "{:<12} {:>8} {:>8} {:>10} {:>10}",
        "component", "KS", "p", "vol err", "count err"
    );
    for row in &report.components {
        println!(
            "{:<12} {:>8.3} {:>8.3} {:>9.1}% {:>9.1}%",
            row.component.name(),
            row.ks_statistic,
            row.ks_p_value,
            row.volume_error * 100.0,
            row.count_error * 100.0
        );
    }
    println!(
        "worst: KS {:.3}, volume error {:.1}%",
        report.worst_ks(),
        report.worst_volume_error() * 100.0
    );
    Ok(())
}
