//! Figure 8 \[R\]: Hadoop traffic beyond the testbed — topology study.
//!
//! The use-case the toolchain exists for: take the fitted TeraSort
//! model and study its traffic on fabrics the physical testbed never
//! had — a big switch, non-blocking and oversubscribed leaf–spine, and
//! a fat-tree — reporting shuffle FCT percentiles and peak link
//! utilisation per fabric.

use keddah_bench::{default_config, gib, heading, percentile, testbed};
use keddah_core::pipeline::Keddah;
use keddah_core::replay::{jobs_to_flows, replay};
use keddah_flowcap::Component;
use keddah_hadoop::{JobSpec, Workload};
use keddah_netsim::{SimOptions, Topology};

fn main() {
    heading("Figure 8: generated TeraSort on alternative fabrics");
    let cluster = testbed();
    let traces = Keddah::capture(
        &cluster,
        &default_config(),
        &JobSpec::new(Workload::TeraSort, gib(8)),
        5,
        600,
    );
    let model = Keddah::fit(&traces).expect("terasort models");
    let jobs = vec![model.generate_job(42)];

    let fabrics: Vec<Topology> = vec![
        Topology::star(24, 1e9),
        Topology::leaf_spine(6, 4, 4, 1e9, 1.0),
        Topology::leaf_spine(6, 4, 4, 1e9, 2.0),
        Topology::leaf_spine(6, 4, 4, 1e9, 4.0),
        Topology::fat_tree(6, 1e9),
    ];
    let opts = SimOptions {
        mouse_threshold: 10_000,
        ..SimOptions::default()
    };

    println!(
        "{:<42} {:>10} {:>10} {:>10} {:>10}",
        "fabric", "p50 (s)", "p95 (s)", "p99 (s)", "peak util"
    );
    for topo in &fabrics {
        let flows = jobs_to_flows(&jobs, topo).expect("model fits all fabrics");
        let report = replay(topo, &flows, opts);
        let shuffle = report
            .fct_by_component
            .get(&Component::Shuffle)
            .cloned()
            .unwrap_or_default();
        println!(
            "{:<42} {:>10.3} {:>10.3} {:>10.3} {:>9.1}%",
            topo.name(),
            percentile(&shuffle, 0.50),
            percentile(&shuffle, 0.95),
            percentile(&shuffle, 0.99),
            report.sim.peak_link_utilisation(topo) * 100.0
        );
    }
    println!(
        "\nPaper shape: non-blocking fabrics behave like the big switch;\n\
         oversubscription stretches the FCT tail roughly with its factor."
    );
}
