//! Figure 7 \[R\]: replay fidelity in the network simulator.
//!
//! The end-to-end check of the toolchain: replay (a) the captured
//! testbed trace and (b) Keddah-model-generated traffic through the same
//! simulated fabric, and compare per-component flow completion time
//! CDFs. If the model is faithful, the two replays load the network the
//! same way.

use keddah_bench::{cdf_rows, default_config, gib, heading, testbed};
use keddah_core::pipeline::Keddah;
use keddah_core::replay::{jobs_to_flows, replay, trace_to_flows};
use keddah_flowcap::Component;
use keddah_hadoop::{JobSpec, Workload};
use keddah_netsim::{SimOptions, Topology};
use keddah_stat::ks::ks_two_sample;

const QUANTILES: &[f64] = &[0.1, 0.25, 0.5, 0.75, 0.9, 0.99];

fn main() {
    heading("Figure 7: trace replay vs model replay (TeraSort 8 GiB, leaf-spine)");
    let cluster = testbed();
    let config = default_config();
    let job = JobSpec::new(Workload::TeraSort, gib(8));
    let traces = Keddah::capture(&cluster, &config, &job, 5, 500);
    let model = Keddah::fit(&traces).expect("terasort models");

    // 21 hosts needed (20 workers + master): 6 racks x 4 hosts.
    let topo = Topology::leaf_spine(6, 4, 3, 1e9, 1.0);
    let opts = SimOptions {
        mouse_threshold: 10_000,
        ..SimOptions::default()
    };

    let trace_flows = trace_to_flows(&traces[0], &topo).expect("trace fits topology");
    let trace_replay = replay(&topo, &trace_flows, opts);
    let model_flows = jobs_to_flows(&[model.generate_job(1)], &topo).expect("job fits topology");
    let model_replay = replay(&topo, &model_flows, opts);

    for &component in Component::DATA {
        let empty = Vec::new();
        let a = trace_replay
            .fct_by_component
            .get(&component)
            .unwrap_or(&empty);
        let b = model_replay
            .fct_by_component
            .get(&component)
            .unwrap_or(&empty);
        if a.is_empty() || b.is_empty() {
            println!("\n{:<10} (absent in one replay)", component.name());
            continue;
        }
        let ks = ks_two_sample(a, b).expect("non-empty samples");
        println!(
            "\n{:<10} trace n={}  model n={}  2-sample KS = {:.3}",
            component.name(),
            a.len(),
            b.len(),
            ks.statistic
        );
        println!(
            "  {:>6} {:>14} {:>14}",
            "q", "trace FCT (s)", "model FCT (s)"
        );
        let ra = cdf_rows(a, QUANTILES);
        let rb = cdf_rows(b, QUANTILES);
        for (i, &q) in QUANTILES.iter().enumerate() {
            println!("  {:>6.2} {:>14.4} {:>14.4}", q, ra[i].1, rb[i].1);
        }
    }
    println!(
        "\nmakespans: trace replay {:.1} s, model replay {:.1} s",
        trace_replay.makespan_secs(),
        model_replay.makespan_secs()
    );

    // Burstiness: index of dispersion of shuffle flow starts (1 s bins).
    // The i.i.d. generator smooths real fetch storms — quantified here.
    let captured_starts = traces[0].component_starts(Component::Shuffle);
    let generated_starts: Vec<f64> = model
        .generate_job(1)
        .flows
        .iter()
        .filter(|f| f.component == Component::Shuffle)
        .map(|f| f.start)
        .collect();
    let iod = |starts: &[f64]| -> f64 {
        let horizon = starts.iter().cloned().fold(1.0, f64::max) + 1.0;
        keddah_stat::series::bin_counts(starts, 1.0, horizon)
            .and_then(|c| keddah_stat::series::index_of_dispersion(&c))
            .unwrap_or(f64::NAN)
    };
    println!(
        "shuffle arrival burstiness (index of dispersion, 1 s bins): captured {:.1}, generated {:.1}",
        iod(&captured_starts),
        iod(&generated_starts)
    );
    println!(
        "\nPaper shape: per-component FCT CDFs of model-generated traffic track\n\
         the replayed capture closely (small KS distances)."
    );
}
