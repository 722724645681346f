//! What-if topology study: Hadoop traffic on fabrics the testbed never
//! had.
//!
//! The point of reproducing Hadoop traffic "for use with network
//! simulators" is to ask questions a fixed physical cluster cannot
//! answer. This example fits a TeraSort model once, then replays
//! generated traffic on a single big switch, a non-blocking leaf–spine,
//! a 4:1 oversubscribed leaf–spine and a fat-tree, and compares shuffle
//! flow completion times.
//!
//! ```sh
//! cargo run --release --example whatif_topology
//! ```

use keddah::core::pipeline::Keddah;
use keddah::core::replay::{jobs_to_flows, replay};
use keddah::flowcap::Component;
use keddah::hadoop::{ClusterSpec, HadoopConfig, JobSpec, Workload};
use keddah::netsim::{SimOptions, Topology};

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn main() {
    // Model a 2 GiB TeraSort on a 16-worker testbed.
    let cluster = ClusterSpec::racks(4, 4);
    let traces = Keddah::capture(
        &cluster,
        &HadoopConfig::default(),
        &JobSpec::new(Workload::TeraSort, 2 << 30),
        5,
        7,
    );
    let model = Keddah::fit(&traces).expect("terasort models");
    let jobs = vec![model.generate_job(100)];

    // 17 hosts needed: node 0 is the master.
    let topologies: Vec<Topology> = vec![
        Topology::star(17, 1e9),
        Topology::leaf_spine(5, 4, 4, 1e9, 1.0),
        Topology::leaf_spine(5, 4, 4, 1e9, 4.0),
        Topology::fat_tree(4, 1e9), // 16 hosts -- too small, skipped below
        Topology::fat_tree(6, 1e9), // 54 hosts
    ];

    let opts = SimOptions {
        mouse_threshold: 10_000, // control mice bypass the fluid solver
        ..SimOptions::default()
    };

    println!(
        "{:<40} {:>10} {:>10} {:>10} {:>10}",
        "topology", "p50 FCT", "p95 FCT", "p99 FCT", "makespan"
    );
    for topo in &topologies {
        let report = match jobs_to_flows(&jobs, topo) {
            Ok(flows) => replay(topo, &flows, opts),
            Err(e) => {
                println!("{:<40} skipped: {e}", topo.name());
                continue;
            }
        };
        let mut shuffle = report
            .fct_by_component
            .get(&Component::Shuffle)
            .cloned()
            .unwrap_or_default();
        shuffle.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        println!(
            "{:<40} {:>9.3}s {:>9.3}s {:>9.3}s {:>9.1}s",
            topo.name(),
            percentile(&shuffle, 0.50),
            percentile(&shuffle, 0.95),
            percentile(&shuffle, 0.99),
            report.makespan_secs()
        );
    }

    println!(
        "\nExpected shape: the 4:1 oversubscribed fabric stretches the FCT tail\n\
         relative to the non-blocking fabrics; star and non-blocking leaf-spine\n\
         are close to each other."
    );
}
