//! `keddah inspect` — print a human-readable model or trace card.

use super::{err, load, Args, Result};

const HELP: &str = "\
keddah inspect — print a card for a fitted model or a capture trace

USAGE:
    keddah inspect <MODEL.json>
    keddah inspect <TRACE.jsonl>

Trace cards include the simulator-side execution counters (failed and
speculative attempts, crash and re-replication totals) when the capture
ran under a fault schedule.";

/// Runs the subcommand.
///
/// # Errors
///
/// Returns an error if the file cannot be read or parsed.
pub fn run(args: &Args) -> Result<()> {
    if args.wants_help() {
        println!("{HELP}");
        return Ok(());
    }
    args.check_known(&[])?;
    let [path] = args.positional() else {
        return Err(err("expected exactly one model or trace file"));
    };
    if path.ends_with(".jsonl") {
        return inspect_trace(path);
    }
    let model = load::model(path)?;

    println!("Keddah model: {}", model.workload);
    println!(
        "  trained on : {} run(s), {:.2} GiB input, {} workers",
        model.runs,
        model.input_bytes as f64 / (1u64 << 30) as f64,
        model.nodes
    );
    println!(
        "  config     : {} reducers, replication {}, {} MiB blocks",
        model.reducers,
        model.replication,
        model.block_bytes >> 20
    );
    println!(
        "  makespan   : {:.1} s (sd {:.1} s)",
        model.makespan.mean, model.makespan.std
    );
    println!(
        "  expected   : {:.2} GB generated per job",
        model.expected_job_bytes() / 1e9
    );
    println!("  components :");
    for (component, cm) in &model.components {
        println!(
            "    {:<11} {:>8.1} flows/job  size ~ {}  [KS {:.3}]",
            component.name(),
            cm.count.mean,
            cm.size_dist,
            cm.size_fit.ks_statistic
        );
        println!(
            "    {:<11} {:>8} arrivals ~ {}  [KS {:.3}]",
            "", "", cm.start_dist, cm.start_fit.ks_statistic
        );
    }
    Ok(())
}

fn inspect_trace(path: &str) -> Result<()> {
    use keddah_flowcap::Component;
    let trace = load::trace(path)?;
    let meta = trace.meta();

    println!("Keddah trace: {}", meta.workload);
    println!(
        "  capture    : {:.2} GiB input, {} workers, seed {}",
        meta.input_bytes as f64 / (1u64 << 30) as f64,
        meta.nodes,
        meta.seed
    );
    println!(
        "  config     : {} reducers, replication {}, {} MiB blocks",
        meta.reducers,
        meta.replication,
        meta.block_bytes >> 20
    );
    println!(
        "  traffic    : {} flows, {:.2} GB, makespan {:.1} s",
        trace.len(),
        trace.total_bytes() as f64 / 1e9,
        trace.makespan().as_secs_f64()
    );
    println!("  components :");
    for &component in Component::ALL {
        let n = trace.component_flows(component).count();
        if n > 0 {
            let bytes: u64 = trace
                .component_flows(component)
                .map(|f| f.total_bytes())
                .sum();
            println!(
                "    {:<11} {:>8} flows  {:>10.3} GB",
                component.name(),
                n,
                bytes as f64 / 1e9
            );
        }
    }
    match &meta.counters {
        Some(counters) => {
            println!("  counters   :");
            for (name, value) in counters {
                println!("    {name:<22} {value}");
            }
        }
        None => println!("  counters   : (none embedded — fault-free capture)"),
    }
    Ok(())
}
