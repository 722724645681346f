//! Figure 15 \[R\] *(extension)*: open- vs closed-loop replay.
//!
//! Open-loop replay starts every flow at its captured time, so when the
//! replay fabric is slower than the capture fabric the dependency
//! structure of the job is violated: shuffles begin before their map
//! inputs have been delivered, write pipelines race their own upstream
//! hops. Closed-loop replay ([`keddah_core::source::TraceSource`])
//! releases dependent flows only when their parents complete *in the
//! simulation*, so congestion propagates through the job's causal
//! structure — dependent flows start later, the fabric sees lower
//! instantaneous contention, and the makespan stretches the way a real
//! re-run would.
//!
//! This experiment replays the same capture under both disciplines on a
//! heavily oversubscribed fabric and compares per-component FCTs and
//! dependent-flow start shifts.

use keddah_bench::{cdf_rows, default_config, gib, heading, smoke, testbed};
use keddah_core::pipeline::Keddah;
use keddah_core::replay::{replay, replay_faulted, trace_to_flows};
use keddah_core::source::TraceSource;
use keddah_core::validate::compare_replays;
use keddah_core::FaultSpec;
use keddah_flowcap::Component;
use keddah_hadoop::{JobSpec, Workload};
use keddah_netsim::{SimOptions, Topology};
use keddah_obs::Obs;

const QUANTILES: &[f64] = &[0.1, 0.25, 0.5, 0.75, 0.9, 0.99];

fn main() {
    let input = if smoke() { gib(1) } else { gib(8) };
    heading(&format!(
        "Figure 15: open vs closed loop replay (TeraSort {} GiB, 4:1 leaf-spine)",
        input >> 30
    ));
    let cluster = testbed();
    let config = default_config();
    let job = JobSpec::new(Workload::TeraSort, input);
    let trace = &Keddah::capture(&cluster, &config, &job, 1, 1500)[0];

    // The capture testbed ran at 1 Gb/s non-blocking; replay on a 4x
    // oversubscribed fabric so the disciplines diverge.
    let topo = Topology::leaf_spine(6, 4, 3, 1e9, 4.0);
    let opts = SimOptions {
        mouse_threshold: 10_000,
        ..SimOptions::default()
    };

    let mut source = TraceSource::new(trace, &topo).expect("trace fits topology");
    println!(
        "{} flows, {} with inferred dependency edges",
        source.flow_count(),
        source.dependent_count()
    );

    let flows = trace_to_flows(trace, &topo).expect("trace fits topology");
    let open = replay(&topo, &flows, opts);
    let closed = replay_faulted(
        &topo,
        &mut source,
        &FaultSpec::empty(),
        opts,
        &Obs::disabled(),
    )
    .expect("closed-loop replay");

    for row in compare_replays(&open, &closed).expect("both replays have flows") {
        println!(
            "\n{:<10} 2-sample KS = {:.3}  mean FCT open {:.4} s, closed {:.4} s",
            row.component.name(),
            row.ks_statistic,
            row.mean_fct_a,
            row.mean_fct_b
        );
        let a = &open.fct_by_component[&row.component];
        let b = &closed.fct_by_component[&row.component];
        println!(
            "  {:>6} {:>14} {:>14}",
            "q", "open FCT (s)", "closed FCT (s)"
        );
        let ra = cdf_rows(a, QUANTILES);
        let rb = cdf_rows(b, QUANTILES);
        for (i, &q) in QUANTILES.iter().enumerate() {
            println!("  {:>6.2} {:>14.4} {:>14.4}", q, ra[i].1, rb[i].1);
        }
    }

    // How far congestion pushed dependent starts: per component, mean
    // start-time shift between the disciplines (flows match by injection
    // order within a component because TraceSource injects in capture
    // order).
    println!();
    for &component in Component::DATA {
        let tag_starts = |report: &keddah_core::replay::ReplayReport| -> Vec<f64> {
            let mut starts: Vec<f64> = report
                .sim
                .results
                .iter()
                .filter(|r| keddah_flowcap::Component::ALL[r.spec.tag as usize] == component)
                .map(|r| r.spec.start.as_secs_f64())
                .collect();
            starts.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
            starts
        };
        let so = tag_starts(&open);
        let sc = tag_starts(&closed);
        if so.is_empty() || so.len() != sc.len() {
            continue;
        }
        let shift: f64 = sc.iter().zip(&so).map(|(c, o)| c - o).sum::<f64>() / so.len() as f64;
        println!(
            "{:<10} mean dependent start shift: {:+.3} s over {} flows",
            component.name(),
            shift,
            so.len()
        );
    }
    println!(
        "\nmakespans: open {:.1} s, closed {:.1} s",
        open.makespan_secs(),
        closed.makespan_secs()
    );
    println!(
        "\nPaper shape: on a fabric slower than the capture testbed, closed-loop\n\
         replay delays dependent flows (shuffle, write pipeline) relative to the\n\
         open-loop schedule, stretching the makespan instead of overloading links."
    );
}
