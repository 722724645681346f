//! Figure 13 \[R, extension\]: a multi-tenant cluster hour from models
//! alone.
//!
//! Builds a weighted job mix (the HiBench-ish blend of the workload
//! matrix) with Poisson arrivals, generates a 10-minute cluster
//! workload purely from fitted models, and replays it on an
//! oversubscribed leaf–spine — the end state the toolchain is for:
//! cluster-scale Hadoop network studies without a Hadoop cluster.

use keddah_bench::{default_config, gib, heading, mean, percentile, testbed};
use keddah_core::mix::{JobMix, MixEntry};
use keddah_core::pipeline::Keddah;
use keddah_core::replay::{jobs_to_flows, replay};
use keddah_flowcap::Component;
use keddah_hadoop::{JobSpec, Workload};
use keddah_netsim::{SimOptions, Topology};

fn main() {
    heading("Figure 13 [extension]: 10-minute cluster mix from models");
    let cluster = testbed();
    let config = default_config();

    // Fit one model per workload (2 GiB reference point).
    let weights = [
        (Workload::TeraSort, 2.0),
        (Workload::WordCount, 3.0),
        (Workload::PageRank, 1.0),
        (Workload::Grep, 3.0),
        (Workload::KMeans, 1.0),
    ];
    let mut entries = Vec::new();
    for (i, &(workload, weight)) in weights.iter().enumerate() {
        let traces = Keddah::capture(
            &cluster,
            &config,
            &JobSpec::new(workload, gib(2)),
            4,
            2000 + 100 * i as u64,
        );
        entries.push(MixEntry {
            model: Keddah::fit(&traces).expect("workload models"),
            weight,
        });
        println!("model fitted: {} (weight {weight})", workload.name());
    }
    let mix = JobMix::new(entries, 1.0 / 45.0).expect("valid mix"); // a job every ~45 s

    let horizon = 600.0;
    let jobs = mix.generate(horizon, 31);
    let offered: f64 = jobs.iter().map(|j| j.total_bytes() as f64).sum::<f64>() / 1e9;
    println!(
        "\ngenerated {} jobs over {horizon} s ({:.1} GB offered, {:.1} GB/min)",
        jobs.len(),
        offered,
        offered / (horizon / 60.0)
    );

    let topo = Topology::leaf_spine(6, 4, 3, 1e9, 2.0);
    let opts = SimOptions {
        mouse_threshold: 10_000,
        ..SimOptions::default()
    };
    let flows = jobs_to_flows(&jobs, &topo).expect("mix fits fabric");
    let report = replay(&topo, &flows, opts);
    println!(
        "replayed {} flows on {} — makespan {:.0} s, peak link {:.1}%",
        report.sim.results.len(),
        topo.name(),
        report.makespan_secs(),
        report.sim.peak_link_utilisation(&topo) * 100.0
    );
    println!(
        "\n{:<11} {:>8} {:>10} {:>10} {:>10}",
        "component", "flows", "mean FCT", "p95 FCT", "p99 FCT"
    );
    for (component, fcts) in &report.fct_by_component {
        if *component == Component::Other {
            continue;
        }
        println!(
            "{:<11} {:>8} {:>9.3}s {:>9.3}s {:>9.3}s",
            component.name(),
            fcts.len(),
            mean(fcts),
            percentile(fcts, 0.95),
            percentile(fcts, 0.99)
        );
    }
    println!(
        "\nPaper shape: a continuous mixed workload keeps the fabric partially\n\
         loaded; heavy sort-like jobs set the FCT tail while scan-like jobs\n\
         ride along barely affected."
    );
}
