//! The artefacts subcommands read, one loader each. Every error names
//! the file: "cannot read" or "cannot open" when it cannot be read,
//! "cannot parse" when its contents are rejected.

use std::fs;

use keddah_core::family::ModelFamily;
use keddah_core::{FaultSpec, KeddahModel};
use keddah_flowcap::Trace;
use keddah_obs::MetricsSnapshot;

use super::{err, Result};

fn read(path: &str) -> Result<String> {
    fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))
}

fn parsed<T, E: std::fmt::Display>(path: &str, result: std::result::Result<T, E>) -> Result<T> {
    result.map_err(|e| err(format!("cannot parse {path}: {e}")))
}

/// A model file written by `keddah fit`.
pub(crate) fn model(path: &str) -> Result<KeddahModel> {
    parsed(path, KeddahModel::from_json(&read(path)?))
}

/// A model family file written by `keddah family`.
pub(crate) fn family(path: &str) -> Result<ModelFamily> {
    parsed(path, ModelFamily::from_json(&read(path)?))
}

/// A fault schedule.
pub(crate) fn fault_spec(path: &str) -> Result<FaultSpec> {
    parsed(path, FaultSpec::from_json(&read(path)?))
}

/// A metrics snapshot written by `--metrics-out`.
pub(crate) fn snapshot(path: &str) -> Result<MetricsSnapshot> {
    parsed(path, MetricsSnapshot::from_json(&read(path)?))
}

/// A capture trace (JSONL).
pub(crate) fn trace(path: &str) -> Result<Trace> {
    let file = fs::File::open(path).map_err(|e| err(format!("cannot open {path}: {e}")))?;
    parsed(path, Trace::read_jsonl(std::io::BufReader::new(file)))
}

/// Capture traces, in the order given.
pub(crate) fn traces(paths: &[String]) -> Result<Vec<Trace>> {
    paths.iter().map(|path| trace(path)).collect()
}
