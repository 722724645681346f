//! Multi-tenant what-if: concurrent Hadoop jobs sharing one fabric.
//!
//! The paper's testbed ran jobs in isolation; its models let you study
//! what isolation hides. This example generates N statistically
//! equivalent TeraSort jobs from one fitted model, overlays them with a
//! stagger on a shared leaf–spine fabric, and shows how shuffle flow
//! completion times degrade as tenancy grows.
//!
//! ```sh
//! cargo run --release --example concurrent_jobs
//! ```

use keddah::core::pipeline::Keddah;
use keddah::core::replay::{jobs_to_flows, replay};
use keddah::flowcap::Component;
use keddah::hadoop::{ClusterSpec, HadoopConfig, JobSpec, Workload};
use keddah::netsim::{SimOptions, Topology};

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn main() {
    // Train on an 8-worker testbed to keep flow counts moderate.
    let cluster = ClusterSpec::racks(2, 4);
    let traces = Keddah::capture(
        &cluster,
        &HadoopConfig::default(),
        &JobSpec::new(Workload::TeraSort, 1 << 30),
        5,
        11,
    );
    let model = Keddah::fit(&traces).expect("terasort models");

    // A 3-rack non-blocking leaf-spine shared by every tenant.
    let topo = Topology::leaf_spine(3, 3, 2, 1e9, 1.0);
    let opts = SimOptions {
        mouse_threshold: 10_000,
        ..SimOptions::default()
    };

    println!(
        "{:>5} {:>12} {:>14} {:>14} {:>12}",
        "jobs", "flows", "mean FCT", "shuffle GB", "makespan"
    );
    let mut baseline = f64::NAN;
    for n in [1u32, 2, 4, 8] {
        // 10 s stagger: jobs overlap heavily but not perfectly.
        let jobs = model.generate_jobs(n, 500, 10.0);
        let flows = jobs_to_flows(&jobs, &topo).expect("topology fits the model");
        let report = replay(&topo, &flows, opts);
        let shuffle_fcts = report
            .fct_by_component
            .get(&Component::Shuffle)
            .cloned()
            .unwrap_or_default();
        let shuffle_gb: f64 = jobs
            .iter()
            .flat_map(|j| j.flows.iter())
            .filter(|f| f.component == Component::Shuffle)
            .map(|f| f.bytes as f64)
            .sum::<f64>()
            / 1e9;
        let m = mean(&shuffle_fcts);
        if n == 1 {
            baseline = m;
        }
        println!(
            "{:>5} {:>12} {:>11.3} s {:>11.2} GB {:>9.1} s   ({:.2}x vs solo)",
            n,
            report.sim.results.len(),
            m,
            shuffle_gb,
            report.makespan_secs(),
            m / baseline
        );
    }

    println!(
        "\nExpected shape: mean shuffle FCT grows with tenancy as jobs compete\n\
         for host links and the fabric core."
    );
}
