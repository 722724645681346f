//! `keddah fit` — fit a Keddah model from capture traces.

use std::fs;

use keddah_core::pipeline::Keddah;
use keddah_flowcap::Trace;

use super::{err, Args, Result};

const HELP: &str = "\
keddah fit — fit a Keddah traffic model from capture traces

USAGE:
    keddah fit [--out model.json] <TRACE.jsonl>...

FLAGS:
    --out <FILE>   where to write the model JSON [default: model.json]

All positional arguments are trace files produced by `keddah capture`;
they must come from the same workload and configuration.";

/// Runs the subcommand.
///
/// # Errors
///
/// Returns an error for missing traces, mixed workloads, or fit
/// failures.
pub fn run(args: &Args) -> Result<()> {
    if args.wants_help() {
        println!("{HELP}");
        return Ok(());
    }
    args.check_known(&["out"])?;
    if args.positional().is_empty() {
        return Err(err("no trace files given; run `keddah fit --help`"));
    }
    let traces = load_traces(args.positional())?;
    let model = Keddah::fit(&traces).map_err(|e| err(format!("fit failed: {e}")))?;
    let out = args.get_or("out", "model.json");
    fs::write(out, model.to_json())?;
    eprintln!(
        "fitted {} model from {} trace(s) ({} components) -> {out}",
        model.workload,
        traces.len(),
        model.components.len()
    );
    Ok(())
}

/// Loads and lightly validates a list of trace files.
pub(crate) fn load_traces(paths: &[String]) -> Result<Vec<Trace>> {
    paths
        .iter()
        .map(|path| {
            let file = fs::File::open(path).map_err(|e| err(format!("cannot open {path}: {e}")))?;
            Trace::read_jsonl(std::io::BufReader::new(file))
                .map_err(|e| err(format!("cannot parse {path}: {e}")))
        })
        .collect()
}
