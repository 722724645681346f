//! Closed-loop replay: congestion that propagates through the job.
//!
//! Open-loop replay starts every flow at its captured time, even when
//! the replay fabric is slower than the capture testbed — shuffles can
//! begin before their map inputs would have arrived. Closed-loop replay
//! infers the job's dependency edges (map read → shuffle fetch, write
//! pipeline hop → next hop) and releases each dependent flow only when
//! its parent completes *in the simulation*, so a congested fabric
//! stretches the job the way a real re-run would.
//!
//! This example captures one TeraSort, then replays the same trace both
//! ways on a 4:1 oversubscribed leaf–spine and compares dependent-flow
//! start times and makespans.
//!
//! ```sh
//! cargo run --release --example closed_loop_replay
//! ```

use keddah::core::pipeline::Keddah;
use keddah::core::replay::{replay, replay_faulted, trace_to_flows};
use keddah::core::source::TraceSource;
use keddah::core::validate::compare_replays;
use keddah::core::FaultSpec;
use keddah::hadoop::{ClusterSpec, HadoopConfig, JobSpec, Workload};
use keddah::netsim::{SimOptions, Topology};
use keddah::obs::Obs;

fn main() {
    // Capture one 2 GiB TeraSort on a 16-worker testbed.
    let cluster = ClusterSpec::racks(4, 4);
    let trace = &Keddah::capture(
        &cluster,
        &HadoopConfig::default(),
        &JobSpec::new(Workload::TeraSort, 2 << 30),
        1,
        7,
    )[0];

    // Replay on a fabric 4x more oversubscribed than the testbed.
    let topo = Topology::leaf_spine(5, 4, 4, 1e9, 4.0);
    let opts = SimOptions {
        mouse_threshold: 10_000,
        ..SimOptions::default()
    };

    let mut source = TraceSource::new(trace, &topo).expect("trace fits topology");
    println!(
        "capture: {} flows, {} gated behind an inferred dependency edge",
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

    println!(
        "\n{:<12} {:>8} {:>16} {:>16}",
        "component", "KS", "open mean FCT", "closed mean FCT"
    );
    for row in compare_replays(&open, &closed).expect("comparable replays") {
        println!(
            "{:<12} {:>8.3} {:>15.4}s {:>15.4}s",
            row.component.name(),
            row.ks_statistic,
            row.mean_fct_a,
            row.mean_fct_b
        );
    }
    println!(
        "\nmakespans: open {:.1} s, closed {:.1} s",
        open.makespan_secs(),
        closed.makespan_secs()
    );
    println!(
        "\nExpected shape: closed-loop replay pushes dependent flows later on the\n\
         congested fabric, so its makespan is at least the open-loop one, while\n\
         per-flow contention (and hence mean FCT) tends to drop."
    );
}
