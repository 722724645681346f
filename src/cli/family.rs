//! `keddah family` — fit scaling-law model families and extrapolate.

use std::fs;

use keddah_core::family::ModelFamily;
use keddah_core::KeddahModel;

use super::args::gib_bytes;
use super::{err, load, Args, Result};

const HELP: &str = "\
keddah family — fit a scaling-law model family and extrapolate models

USAGE:
    keddah family --out family.json <MODEL.json>...      fit from anchors
    keddah family --from family.json --input-gb <N> --out model.json
                                                          extrapolate

FLAGS:
    --out <FILE>       output path (family or extrapolated model)
    --from <FILE>      an existing family to extrapolate from
    --input-gb <N>     target input size for extrapolation";

const FLAGS: &[&str] = &["out", "from", "input-gb"];

/// Runs the subcommand.
///
/// # Errors
///
/// Returns an error for missing anchors, mixed configurations, or I/O
/// failures.
pub fn run(args: &Args) -> Result<()> {
    if args.wants_help() {
        println!("{HELP}");
        return Ok(());
    }
    args.check_known(FLAGS)?;
    match args.get("from") {
        Some(family_path) => {
            let input_gb: f64 = args.get_num("input-gb", 0.0)?;
            let input_bytes = gib_bytes("input-gb", input_gb)?;
            let model = load::family(family_path)?.model_at(input_bytes);
            let out = args.get_or("out", "model.json");
            fs::write(out, model.to_json())?;
            eprintln!(
                "extrapolated {} model to {input_gb} GiB (makespan ~{:.1} s) -> {out}",
                model.workload, model.makespan.mean
            );
            Ok(())
        }
        None => {
            if args.positional().len() < 2 {
                return Err(err(
                    "fitting a family needs at least two anchor model files",
                ));
            }
            let anchors: Vec<KeddahModel> = args
                .positional()
                .iter()
                .map(|path| load::model(path))
                .collect::<Result<_>>()?;
            let family = ModelFamily::fit(&anchors).map_err(|e| err(e.to_string()))?;
            let out = args.get_or("out", "family.json");
            fs::write(out, family.to_json())?;
            eprintln!(
                "fitted {} family from {} anchors ({} scaling laws) -> {out}",
                family.workload,
                family.anchors.len(),
                family.count_laws.len()
            );
            Ok(())
        }
    }
}
