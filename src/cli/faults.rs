//! `keddah faults` — generate and inspect fault schedules.

use keddah_faults::{generate, FaultGen, FaultKind};

use super::topo_spec::parse_topology;
use super::{err, load, Args, Result};

const HELP: &str = "\
keddah faults — deterministic fault schedules for degraded-mode runs

USAGE:
    keddah faults gen [FLAGS]
    keddah faults show <SPEC.json>

gen FLAGS:
    --topology <SPEC>     derive host/link counts from a replay topology
                          (star:<hosts>[:<rate>] etc.; see `keddah replay`)
    --hosts <N>           host count when no --topology is given
    --links <N>           directed link count            [default: 0]
    --secs <S>            schedule horizon in seconds    [default: 60]
    --seed <N>            derivation seed                [default: 1]
    --node-crashes <N>    node crashes to schedule       [default: 0]
    --recover-secs <S>    recover each crashed node after S seconds
    --link-downs <N>      permanent link failures        [default: 0]
    --link-degrades <N>   link capacity degradations     [default: 0]
    --partitions <N>      reachability cuts              [default: 0]
    --out <FILE>          write the spec here (stdout if omitted)

The schedule is a pure function of the flags and --seed: the same
invocation always produces the same JSON. Host 0 is the Hadoop
master/NameNode by convention, so generated node faults target
hosts 1 and up.";

const GEN_FLAGS: &[&str] = &[
    "topology",
    "hosts",
    "links",
    "secs",
    "seed",
    "node-crashes",
    "recover-secs",
    "link-downs",
    "link-degrades",
    "partitions",
    "out",
];

/// Runs the subcommand.
///
/// # Errors
///
/// Returns an error for bad flags, impossible fault requests (e.g. node
/// crashes with zero hosts), or I/O failure.
pub fn run(args: &Args) -> Result<()> {
    if args.wants_help() {
        println!("{HELP}");
        return Ok(());
    }
    match args.positional() {
        [sub] if sub == "gen" => gen(args),
        [sub, path] if sub == "show" => show(path),
        _ => Err(err(
            "expected `keddah faults gen [FLAGS]` or `keddah faults show <SPEC.json>`",
        )),
    }
}

fn gen(args: &Args) -> Result<()> {
    args.check_known(GEN_FLAGS)?;
    let (hosts, links) = match args.get("topology") {
        Some(spec) => {
            let topo = parse_topology(spec)?;
            (topo.host_count(), topo.link_count() as u32)
        }
        None => (args.get_num("hosts", 0u32)?, args.get_num("links", 0u32)?),
    };
    let secs: f64 = args.get_num("secs", 60.0)?;
    if !(secs > 0.0 && secs.is_finite()) {
        return Err(err("--secs must be positive"));
    }
    let gen = FaultGen {
        hosts,
        links,
        horizon_nanos: (secs * 1e9) as u64,
        node_crashes: args.get_num("node-crashes", 0u32)?,
        recover_after_nanos: match args.get("recover-secs") {
            Some(_) => {
                let r: f64 = args.get_num("recover-secs", 0.0)?;
                if !(r > 0.0 && r.is_finite()) {
                    return Err(err("--recover-secs must be positive"));
                }
                Some((r * 1e9) as u64)
            }
            None => None,
        },
        link_downs: args.get_num("link-downs", 0u32)?,
        link_degrades: args.get_num("link-degrades", 0u32)?,
        partitions: args.get_num("partitions", 0u32)?,
    };
    if gen.node_crashes > 0 && gen.hosts == 0 {
        return Err(err("--node-crashes needs --hosts or --topology"));
    }
    if (gen.link_downs > 0 || gen.link_degrades > 0) && gen.links == 0 {
        return Err(err("link faults need --links or --topology"));
    }
    if gen.partitions > 0 && gen.hosts < 2 {
        return Err(err("--partitions needs at least two hosts"));
    }
    let spec = generate(&gen, args.get_num("seed", 1u64)?);
    match args.get("out") {
        Some(path) => {
            spec.save(path).map_err(|e| err(e.to_string()))?;
            eprintln!("wrote {} fault(s) to {path}", spec.faults.len());
        }
        None => println!("{}", spec.to_json()),
    }
    Ok(())
}

fn show(path: &str) -> Result<()> {
    let spec = load::fault_spec(path)?;
    println!("fault schedule: {} fault(s)", spec.faults.len());
    for fault in &spec.faults {
        println!(
            "  t={:>9.3}s  {}",
            fault.at_nanos as f64 / 1e9,
            describe(&fault.kind)
        );
    }
    Ok(())
}

fn describe(kind: &FaultKind) -> String {
    match kind {
        FaultKind::NodeCrash { node } => format!("node_crash      node {node}"),
        FaultKind::NodeRecover { node } => format!("node_recover    node {node}"),
        FaultKind::LinkDown { link } => format!("link_down       link {link}"),
        FaultKind::LinkDegraded { link, factor } => {
            format!("link_degraded   link {link} x{factor:.2}")
        }
        FaultKind::Partition { cut } => format!(
            "partition       cut {{{}}}",
            cut.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
        ),
    }
}
