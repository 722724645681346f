//! Scaling study: predict traffic at cluster/input scales you never
//! measured.
//!
//! Fits a model family from small anchor captures (1–4 GiB), then uses
//! its scaling laws to generate and replay a 32 GiB TeraSort — a job
//! size never captured — on a large fat-tree, reporting predicted flow
//! counts and shuffle FCTs.
//!
//! ```sh
//! cargo run --release --example scaling_study
//! ```

use keddah::core::family::ModelFamily;
use keddah::core::pipeline::Keddah;
use keddah::core::replay::{jobs_to_flows, replay};
use keddah::flowcap::Component;
use keddah::hadoop::{ClusterSpec, HadoopConfig, JobSpec, Workload};
use keddah::netsim::{SimOptions, Topology};

fn main() {
    // Anchor captures at small sizes only.
    let cluster = ClusterSpec::racks(4, 4);
    let config = HadoopConfig::default();
    let mut anchors = Vec::new();
    for (gib, seed) in [(1u64, 10u64), (2, 20), (4, 30)] {
        let traces = Keddah::capture(
            &cluster,
            &config,
            &JobSpec::new(Workload::TeraSort, gib << 30),
            4,
            seed,
        );
        anchors.push(Keddah::fit(&traces).expect("anchor fits"));
        println!("anchor fitted at {gib} GiB");
    }
    let family = ModelFamily::fit(&anchors).expect("family fits");

    println!("\nscaling laws:");
    for (component, law) in &family.count_laws {
        println!(
            "  {:<11} flows/job = {:.1} x GiB^{:.2}  (R^2 {:.3})",
            component.name(),
            law.scale,
            law.exponent,
            law.r_squared
        );
    }

    // Extrapolate to a size never captured and replay it at scale.
    let big = family.model_at(32 << 30);
    let job = big.generate_job(77);
    println!(
        "\npredicted 32 GiB terasort: {} flows, {:.1} GB of traffic, makespan ~{:.0} s",
        job.flows.len(),
        job.total_bytes() as f64 / 1e9,
        big.makespan.mean
    );

    let topo = Topology::fat_tree(6, 1e9); // 54 hosts
    let opts = SimOptions {
        mouse_threshold: 10_000,
        ..SimOptions::default()
    };
    let flows = jobs_to_flows(&[job], &topo).expect("fits fat-tree");
    let report = replay(&topo, &flows, opts);
    let mut shuffle = report
        .fct_by_component
        .get(&Component::Shuffle)
        .cloned()
        .unwrap_or_default();
    shuffle.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let q = |p: f64| shuffle[((shuffle.len() - 1) as f64 * p).round() as usize];
    println!(
        "replayed on {}: shuffle FCT p50 {:.3} s, p99 {:.3} s, makespan {:.1} s",
        topo.name(),
        q(0.5),
        q(0.99),
        report.makespan_secs()
    );
}
