//! CLI plumbing: dispatch, flag parsing, and shared error type.

mod args;
mod capture;
mod dag;
mod diagnose;
mod family;
mod faults;
mod fit;
mod generate;
mod inspect;
mod load;
mod matrix;
mod mix;
mod obs_out;
mod provision;
mod replay;
mod serve;
mod stats;
mod topo_spec;
mod validate;

pub use args::Args;

use std::fmt;

/// A CLI-level failure: message plus the exit-worthy context.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("i/o error: {e}"))
    }
}

/// Convenience constructor used across subcommands.
pub(crate) fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// CLI result alias.
pub type Result<T> = std::result::Result<T, CliError>;

const USAGE: &str = "\
keddah — capture, model and reproduce Hadoop network traffic

USAGE:
    keddah <COMMAND> [FLAGS] [ARGS]

COMMANDS:
    capture    run simulated Hadoop jobs and write capture traces
    dag        inspect the DAG-of-stages behind a workload
    matrix     run a workload/configuration matrix across CPU cores
    fit        fit a Keddah model from capture traces
    family     fit scaling-law model families and extrapolate
    inspect    print a model card for a fitted model
    generate   generate synthetic jobs from a model
    mix        generate a multi-tenant workload from a weighted model mix
    replay     replay generated or captured traffic on a topology
    provision  search cluster/config space for a workload mix + SLO
    serve      tail a capture directory, refit online, serve model over HTTP
    faults     generate and inspect fault schedules for degraded runs
    diagnose   infer the fault behind a degraded run from its artefacts
    validate   compare generated traffic against capture traces
    stats      render metrics snapshots written by --metrics-out
    help       show this message

Run `keddah <COMMAND> --help` for per-command flags.";

/// Dispatches a full argument vector (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message on unknown
/// commands, bad flags, or failing pipelines.
pub fn run(argv: &[String]) -> Result<()> {
    let Some((command, rest)) = argv.split_first() else {
        println!("{USAGE}");
        return Ok(());
    };
    match command.as_str() {
        "capture" => capture::run(&Args::parse(rest)?),
        "dag" => dag::run(&Args::parse(rest)?),
        "matrix" => matrix::run(&Args::parse(rest)?),
        "fit" => fit::run(&Args::parse(rest)?),
        "family" => family::run(&Args::parse(rest)?),
        "inspect" => inspect::run(&Args::parse(rest)?),
        "generate" => generate::run(&Args::parse(rest)?),
        "mix" => mix::run(&Args::parse(rest)?),
        "replay" => replay::run(&Args::parse(rest)?),
        "provision" => provision::run(&Args::parse(rest)?),
        "serve" => serve::run(&Args::parse(rest)?),
        "faults" => faults::run(&Args::parse(rest)?),
        "diagnose" => diagnose::run(&Args::parse(rest)?),
        "validate" => validate::run(&Args::parse(rest)?),
        "stats" => stats::run(&Args::parse(rest)?),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(err(format!(
            "unknown command `{other}`; run `keddah help` for the command list"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_prints_usage() {
        run(&[]).unwrap();
    }

    #[test]
    fn help_works() {
        run(&v(&["help"])).unwrap();
        run(&v(&["--help"])).unwrap();
    }

    #[test]
    fn unknown_command_errors() {
        let e = run(&v(&["frobnicate"])).unwrap_err();
        assert!(e.to_string().contains("unknown command"));
    }
}
