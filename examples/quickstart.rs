//! Quickstart: the full Keddah loop in one file.
//!
//! Capture Hadoop traffic on the simulated testbed, fit an empirical
//! traffic model, inspect it, generate a synthetic job from it, and
//! validate the model against the captures.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use keddah::core::pipeline::Keddah;
use keddah::core::validate::validate_model;
use keddah::flowcap::Component;
use keddah::hadoop::{ClusterSpec, HadoopConfig, JobSpec, Workload};

fn main() {
    // 1. The "testbed": 2 racks x 4 workers, stock Hadoop settings.
    let cluster = ClusterSpec::racks(2, 4);
    let config = HadoopConfig::default();
    let job = JobSpec::new(Workload::TeraSort, 2 << 30); // 2 GiB sort

    // 2. Capture: run the job 5 times, tcpdump-style, classified flows.
    println!("capturing 5 runs of {job}...");
    let traces = Keddah::capture(&cluster, &config, &job, 5, 42);
    for (i, t) in traces.iter().enumerate() {
        println!(
            "  run {i}: {} flows, {:.2} GB on the wire, makespan {:.1} s",
            t.len(),
            t.total_bytes() as f64 / 1e9,
            t.makespan().as_secs_f64()
        );
    }

    // 3. Model: pool the runs and fit per-component distributions.
    let model = Keddah::fit(&traces).expect("traces contain modellable traffic");
    println!("\nfitted model ({} runs pooled):", model.runs);
    for (&component, cm) in &model.components {
        println!(
            "  {component:<10} {:>8.1} flows/job   size ~ {}   (KS = {:.3})",
            cm.count.mean, cm.size_dist, cm.size_fit.ks_statistic
        );
    }

    // 4. Generate: a synthetic job, no Hadoop required.
    let synthetic = model.generate_job(7);
    println!(
        "\ngenerated job: {} flows, {:.2} GB total, makespan {:.1} s",
        synthetic.flows.len(),
        synthetic.total_bytes() as f64 / 1e9,
        synthetic.makespan
    );

    // 5. Validate: generated vs captured, per component.
    let report = validate_model(&model, &traces, 5, 1).expect("validation runs");
    println!("\nvalidation (generated vs captured):");
    println!(
        "  {:<10} {:>8} {:>10} {:>12}",
        "component", "KS", "vol err", "count err"
    );
    for row in &report.components {
        println!(
            "  {:<10} {:>8.3} {:>9.1}% {:>11.1}%",
            row.component.name(),
            row.ks_statistic,
            row.volume_error * 100.0,
            row.count_error * 100.0
        );
    }

    // The shuffle model should reproduce its training data closely.
    let shuffle = report
        .component(Component::Shuffle)
        .expect("terasort has shuffle traffic");
    assert!(
        shuffle.ks_statistic < 0.4,
        "shuffle model diverged from capture"
    );
    println!("\nquickstart OK");
}
