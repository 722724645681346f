//! Observability must never change simulation results.
//!
//! The obs layer's contract is that enabling tracing and metrics is
//! invisible to the arithmetic: every observed entry point produces a
//! report byte-identical to its unobserved twin, on the golden corpus
//! fixtures, faulted and fault-free, open and closed loop — and the
//! matrix runner folds identical metrics for any worker count.

use keddah::core::replay::{
    replay_faulted, replay_observed, replay_source_observed, trace_to_flows, ReplayReport,
};
use keddah::core::runner::{MatrixCell, Runner};
use keddah::core::TraceSource;
use keddah::faults::{FaultKind, FaultSpec, TimedFault};
use keddah::flowcap::Trace;
use keddah::hadoop::{ClusterSpec, HadoopConfig, Workload};
use keddah::netsim::{SimOptions, StaticSource, Topology};
use keddah::obs::Obs;

fn fixture(name: &str) -> Trace {
    let path = format!("{}/tests/fixtures/{name}.jsonl", env!("CARGO_MANIFEST_DIR"));
    let data = std::fs::read(&path).expect("fixture exists");
    Trace::read_jsonl(&data[..]).expect("fixture parses")
}

/// Same fabric as the golden corpus: 9 hosts over 3 racks, 2:1
/// oversubscribed.
fn fabric() -> Topology {
    Topology::leaf_spine(3, 3, 2, 1e9, 2.0)
}

fn options() -> SimOptions {
    SimOptions {
        mouse_threshold: 10_000,
        ..SimOptions::default()
    }
}

/// A crash mid-replay plus a link loss: exercises abort, reroute and
/// re-replication paths while being observed.
fn crash_spec() -> FaultSpec {
    FaultSpec {
        faults: vec![
            TimedFault {
                at_nanos: 2_000_000_000,
                kind: FaultKind::NodeCrash { node: 2 },
            },
            TimedFault {
                at_nanos: 3_000_000_000,
                kind: FaultKind::LinkDown { link: 0 },
            },
        ],
    }
}

fn assert_reports_identical(plain: &ReplayReport, observed: &ReplayReport, what: &str) {
    assert_eq!(plain.sim.results, observed.sim.results, "{what}: results");
    assert_eq!(
        plain.sim.link_bytes, observed.sim.link_bytes,
        "{what}: link bytes"
    );
    assert_eq!(plain.sim.faults, observed.sim.faults, "{what}: fault stats");
    assert_eq!(
        plain.fct_by_component, observed.fct_by_component,
        "{what}: per-component FCTs"
    );
}

#[test]
fn observed_open_loop_is_byte_identical() {
    let trace = fixture("terasort_nodefail");
    let topo = fabric();
    let flows = trace_to_flows(&trace, &topo).expect("flows");
    let obs = Obs::enabled();
    let plain = replay_observed(&topo, &flows, options(), &Obs::disabled());
    let observed = replay_observed(&topo, &flows, options(), &obs);
    assert_reports_identical(&plain, &observed, "open loop");
    // The recording itself is real: flow lifecycle counters agree with
    // the report they were recorded alongside.
    let snap = obs.metrics();
    assert_eq!(
        snap.counter("netsim", "flows_started") as usize,
        flows.len()
    );
    assert!(!obs.trace_events().is_empty());
}

#[test]
fn observed_faulted_open_loop_is_byte_identical() {
    let trace = fixture("terasort_nodefail");
    let topo = fabric();
    let flows = trace_to_flows(&trace, &topo).expect("flows");
    let spec = crash_spec();
    let obs = Obs::enabled();
    let plain = replay_faulted(
        &topo,
        &mut StaticSource::new(flows.clone()),
        &spec,
        options(),
        &Obs::disabled(),
    )
    .expect("plain");
    let observed =
        replay_faulted(&topo, &mut StaticSource::new(flows), &spec, options(), &obs).expect("obs");
    assert_reports_identical(&plain, &observed, "faulted open loop");
    // Acceptance pin: the "faults" counters mirror FaultStats exactly.
    let snap = obs.metrics();
    let fstats = &observed.sim.faults;
    assert_eq!(
        snap.counter("faults", "faults_applied"),
        fstats.faults_applied
    );
    assert_eq!(
        snap.counter("faults", "flows_aborted"),
        fstats.aborted.len() as u64
    );
    assert_eq!(snap.counter("faults", "lost_bytes"), fstats.lost_bytes);
    assert_eq!(
        snap.counter("faults", "delivered_bytes"),
        fstats.delivered_bytes
    );
    assert_eq!(
        snap.counter("faults", "rerouted_flows"),
        fstats.rerouted_flows
    );
}

#[test]
fn observed_faulted_closed_loop_is_byte_identical() {
    let trace = fixture("terasort_nodefail");
    let topo = fabric();
    let spec = crash_spec();
    let obs = Obs::enabled();
    let plain = {
        let mut src = TraceSource::new(&trace, &topo).expect("source");
        replay_faulted(&topo, &mut src, &spec, options(), &Obs::disabled()).expect("plain")
    };
    let observed = {
        let mut src = TraceSource::new(&trace, &topo).expect("source");
        replay_faulted(&topo, &mut src, &spec, options(), &obs).expect("obs")
    };
    assert_reports_identical(&plain, &observed, "faulted closed loop");
    // Closed loop with no faults, same contract.
    let plain_free = {
        let mut src = TraceSource::new(&trace, &topo).expect("source");
        replay_source_observed(&topo, &mut src, options(), &Obs::disabled())
    };
    let observed_free = {
        let mut src = TraceSource::new(&trace, &topo).expect("source");
        replay_source_observed(&topo, &mut src, options(), &Obs::enabled())
    };
    assert_reports_identical(&plain_free, &observed_free, "fault-free closed loop");
}

#[test]
fn trace_ring_overflow_does_not_perturb_results() {
    // A tiny ring drops most events; dropping must be invisible to the
    // simulation and accounted for in the drop counter.
    let trace = fixture("terasort");
    let topo = fabric();
    let flows = trace_to_flows(&trace, &topo).expect("flows");
    let obs = Obs::with_trace_capacity(8);
    let plain = replay_observed(&topo, &flows, options(), &Obs::disabled());
    let observed = replay_observed(&topo, &flows, options(), &obs);
    assert_reports_identical(&plain, &observed, "tiny ring");
    assert_eq!(obs.trace_events().len(), 8);
    assert!(obs.trace_dropped() > 0);
}

#[test]
fn runner_metrics_identical_across_worker_counts() {
    let cluster = ClusterSpec::racks(1, 4);
    let config = HadoopConfig::default().with_reducers(2);
    let cells: Vec<MatrixCell> = [Workload::Grep, Workload::WordCount]
        .into_iter()
        .map(|w| MatrixCell::new(w, 64 << 20, config.clone(), 2))
        .collect();

    let serial_obs = Obs::enabled();
    let serial = Runner::new(cluster.clone()).run_matrix_observed(&cells, 1, &serial_obs);
    let wide_obs = Obs::enabled();
    let wide = Runner::new(cluster).run_matrix_observed(&cells, 8, &wide_obs);

    assert_eq!(serial.len(), wide.len());
    for (a, b) in serial.iter().zip(&wide) {
        assert_eq!(a.workload, b.workload, "cell results differ");
    }
    assert_eq!(
        serial_obs.metrics(),
        wide_obs.metrics(),
        "metrics must not depend on scheduling"
    );
    assert!(serial_obs.metrics().counter("runner", "cells") >= 2);
}
