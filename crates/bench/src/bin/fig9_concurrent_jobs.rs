//! Figure 9 \[R\]: concurrent jobs from the model.
//!
//! Multi-tenancy study impossible on the single-tenant testbed: overlay
//! N model-generated TeraSort jobs on a shared fabric and measure how
//! aggregate offered load and shuffle FCTs scale with N.

use keddah_bench::{default_config, gib, heading, mean, percentile, testbed};
use keddah_core::pipeline::Keddah;
use keddah_core::replay::{jobs_to_flows, replay};
use keddah_flowcap::Component;
use keddah_hadoop::{JobSpec, Workload};
use keddah_netsim::{SimOptions, Topology};

fn main() {
    heading("Figure 9: N concurrent generated jobs on one fabric");
    let cluster = testbed();
    let traces = Keddah::capture(
        &cluster,
        &default_config(),
        &JobSpec::new(Workload::TeraSort, gib(4)),
        5,
        700,
    );
    let model = Keddah::fit(&traces).expect("terasort models");
    let topo = Topology::leaf_spine(6, 4, 3, 1e9, 2.0);
    let opts = SimOptions {
        mouse_threshold: 10_000,
        ..SimOptions::default()
    };

    println!(
        "{:>5} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "jobs", "flows", "offered GB", "mean FCT", "p95 FCT", "makespan"
    );
    for n in [1u32, 2, 4, 8] {
        let jobs = model.generate_jobs(n, 1000, 15.0);
        let offered: f64 = jobs.iter().map(|j| j.total_bytes() as f64).sum::<f64>() / 1e9;
        let flows = jobs_to_flows(&jobs, &topo).expect("jobs fit fabric");
        let report = replay(&topo, &flows, opts);
        let shuffle = report
            .fct_by_component
            .get(&Component::Shuffle)
            .cloned()
            .unwrap_or_default();
        println!(
            "{n:>5} {:>10} {offered:>12.2} {:>11.3}s {:>11.3}s {:>11.1}s",
            report.sim.results.len(),
            mean(&shuffle),
            percentile(&shuffle, 0.95),
            report.makespan_secs()
        );
    }
    println!(
        "\nPaper shape: offered load scales linearly with N while FCTs degrade\n\
         super-linearly once the shared core saturates."
    );
}
