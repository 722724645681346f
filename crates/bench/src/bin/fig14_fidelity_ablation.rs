//! Figure 14 \[R, extension\]: network-model fidelity ablation.
//!
//! The same Keddah-generated TeraSort replayed under three network
//! models of increasing fidelity: the pure fluid max-min model, the
//! fluid model with the slow-start latency correction, and the
//! round-based TCP (AIMD) simulator. Shows where the cheap model is
//! trustworthy (elephant medians) and where dynamics matter (short-flow
//! and tail FCTs).

use keddah_bench::{default_config, gib, heading, mean, percentile, testbed};
use keddah_core::pipeline::Keddah;
use keddah_core::replay::jobs_to_flows;
use keddah_flowcap::Component;
use keddah_hadoop::{JobSpec, Workload};
use keddah_netsim::{simulate, simulate_tcp, SimOptions, Topology};

fn main() {
    heading("Figure 14 [extension]: fluid vs TCP fidelity (TeraSort 4 GiB)");
    let traces = Keddah::capture(
        &testbed(),
        &default_config(),
        &JobSpec::new(Workload::TeraSort, gib(4)),
        5,
        800,
    );
    let model = Keddah::fit(&traces).expect("terasort fits");
    let jobs = vec![model.generate_job(5)];
    let topo = Topology::leaf_spine(6, 4, 3, 1e9, 2.0);
    let flows = jobs_to_flows(&jobs, &topo).expect("fits fabric");
    // Drop control mice for a like-for-like comparison (the TCP model has
    // no mice fast-path).
    let data_flows: Vec<_> = flows.iter().copied().filter(|f| f.bytes > 10_000).collect();
    println!(
        "{} data flows ({:.2} GB)\n",
        data_flows.len(),
        data_flows.iter().map(|f| f.bytes as f64).sum::<f64>() / 1e9
    );

    let shuffle_tag = Component::ALL
        .iter()
        .position(|&c| c == Component::Shuffle)
        .expect("shuffle in ALL") as u32;
    let fcts = |report: &keddah_netsim::SimReport| -> (Vec<f64>, Vec<f64>) {
        let shuffle: Vec<f64> = report
            .results
            .iter()
            .filter(|r| r.spec.tag == shuffle_tag)
            .map(|r| r.fct().as_secs_f64())
            .collect();
        (report.fcts(), shuffle)
    };

    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>10}",
        "model", "mean", "p50", "p95", "p99"
    );
    let fluid = simulate(&topo, &data_flows, SimOptions::default());
    let fluid_ss = simulate(
        &topo,
        &data_flows,
        SimOptions {
            tcp_slow_start: true,
            ..SimOptions::default()
        },
    );
    let tcp = simulate_tcp(&topo, &data_flows);
    for (name, report) in [
        ("fluid max-min", &fluid),
        ("fluid + slow-start latency", &fluid_ss),
        ("round-based TCP (AIMD)", &tcp),
    ] {
        let (_, shuffle) = fcts(report);
        println!(
            "{:<28} {:>9.3}s {:>9.3}s {:>9.3}s {:>9.3}s",
            name,
            mean(&shuffle),
            percentile(&shuffle, 0.5),
            percentile(&shuffle, 0.95),
            percentile(&shuffle, 0.99)
        );
    }
    println!(
        "\nExpected shape: the three models agree on medians (elephants live at\n\
         their fair share); the TCP model shifts short flows and the tail up\n\
         as slow start and AIMD sawtooth bite."
    );
}
