//! Replaying traffic — captured or generated — in the network simulator.
//!
//! The "for use with network simulators" half of the toolchain: adapters
//! that turn a capture [`Trace`] or a [`GeneratedJob`] into
//! [`keddah_netsim`] flow specs, run the fluid simulation on a chosen
//! topology, and split the resulting flow completion times back out by
//! traffic component.
//!
//! Every replay runs through one kernel, [`replay_faulted`], which takes
//! the traffic as a [`TrafficSource`]. The source picks the discipline:
//!
//! * **open loop** — a [`StaticSource`] over [`trace_to_flows`] or
//!   [`jobs_to_flows`]: every flow starts at its pre-computed time
//!   regardless of what the network did to its predecessors;
//! * **closed loop** — a [`TraceSource`](crate::source::TraceSource) or
//!   [`ModelSource`]: dependent flows (shuffle after map input,
//!   write-pipeline hops after their upstream hop) are released only when
//!   their parents complete *in the simulation*, so congestion propagates
//!   through the job's causal structure. See [`crate::source`].
//!
//! The kernel also takes a [`FaultSpec`], validated against the topology
//! and injected as DES events (crashes abort flows, link faults re-route
//! or degrade them — see [`keddah_netsim::simulate_faulted`]), and an
//! [`Obs`] handle. Aborted flows are excluded from the per-component FCT
//! samples; [`FaultSpec::empty`] and [`Obs::disabled`] give the clean,
//! unobserved run. [`replay`], [`replay_observed`],
//! [`replay_source_observed`] and [`replay_model_closed`] are one-line
//! conveniences over it.
//!
//! [`SimOptions::aggregate`] (flow bundles) trades wall-clock only:
//! replay reports are byte-identical either way, which is what lets
//! DC-scale replays default to the fast path while the golden corpus
//! pins correctness against the singleton-bundle oracle.
//! [`SimOptions::solver_jobs`] has no effect.

use std::collections::{BTreeMap, HashSet};

use keddah_des::SimTime;
use keddah_faults::FaultSpec;
use keddah_flowcap::{Component, Trace};
use keddah_netsim::{
    simulate_faulted, FlowSpec, HostId, SimOptions, SimReport, StaticSource, Topology,
    TrafficSource,
};
use keddah_obs::Obs;

use crate::generate::{GenFlow, GeneratedJob};
use crate::model::KeddahModel;
use crate::source::ModelSource;
use crate::{CoreError, Result};

/// Completion statistics of one replay, split by component.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Flow completion times in seconds, per component.
    pub fct_by_component: BTreeMap<Component, Vec<f64>>,
    /// The raw simulator report.
    pub sim: SimReport,
}

impl ReplayReport {
    /// All flow completion times, in flow order.
    #[must_use]
    pub fn all_fcts(&self) -> Vec<f64> {
        self.sim.fcts()
    }

    /// Replay makespan in seconds.
    #[must_use]
    pub fn makespan_secs(&self) -> f64 {
        self.sim.makespan().as_secs_f64()
    }
}

/// Encodes a component into the netsim `tag` field and back.
fn tag_of(component: Component) -> u32 {
    Component::ALL
        .iter()
        .position(|&c| c == component)
        .expect("component in ALL") as u32
}

/// Decodes a netsim `tag`. Sources outside this crate may tag flows
/// freely, so tags that name no component count as [`Component::Other`].
fn component_of(tag: u32) -> Component {
    Component::ALL
        .get(tag as usize)
        .copied()
        .unwrap_or(Component::Other)
}

/// Converts a capture trace into flow specs (node *n* maps to host *n*;
/// node 0, the master, must exist in the topology too).
///
/// # Errors
///
/// Returns [`CoreError::TopologyTooSmall`] if any flow endpoint exceeds
/// the topology's host count.
pub fn trace_to_flows(trace: &Trace, topo: &Topology) -> Result<Vec<FlowSpec>> {
    let t0 = trace
        .flows()
        .iter()
        .map(|f| f.start)
        .min()
        .unwrap_or(SimTime::ZERO);
    trace
        .flows()
        .iter()
        .map(|f| {
            let (src, dst) = (f.tuple.src.0, f.tuple.dst.0);
            check_host(src.max(dst), topo)?;
            Ok(FlowSpec {
                src: HostId(src),
                dst: HostId(dst),
                bytes: f.total_bytes(),
                start: SimTime::from_nanos(f.start.as_nanos() - t0.as_nanos()),
                tag: tag_of(f.component.unwrap_or(Component::Other)),
            })
        })
        .collect()
}

/// Converts generated jobs into flow specs (flows of all jobs merged).
///
/// # Errors
///
/// Returns [`CoreError::TopologyTooSmall`] if the jobs assume more nodes
/// than the topology has hosts.
pub fn jobs_to_flows(jobs: &[GeneratedJob], topo: &Topology) -> Result<Vec<FlowSpec>> {
    let mut specs = Vec::new();
    for job in jobs {
        check_host(job.nodes, topo)?;
        specs.extend(job.flows.iter().map(|f| gen_spec(f, f.start)));
    }
    specs.sort_by_key(|s| s.start);
    Ok(specs)
}

/// The flow spec of a generated flow, starting at `start_secs`.
pub(crate) fn gen_spec(flow: &GenFlow, start_secs: f64) -> FlowSpec {
    FlowSpec {
        src: HostId(flow.src),
        dst: HostId(flow.dst),
        bytes: flow.bytes,
        start: SimTime::from_secs_f64(start_secs),
        tag: tag_of(flow.component),
    }
}

/// Rejects a node id the topology has no host for.
pub(crate) fn check_host(node: u32, topo: &Topology) -> Result<()> {
    if node >= topo.host_count() {
        return Err(CoreError::TopologyTooSmall {
            needed: node + 1,
            available: topo.host_count(),
        });
    }
    Ok(())
}

/// Splits a finished simulation's completions by component. Flows the
/// fault layer aborted never completed — their recorded "finish" is the
/// abort time — so they are excluded from the FCT samples (with no
/// faults the aborted set is empty and every flow contributes).
fn split_report(sim: SimReport) -> ReplayReport {
    let aborted: HashSet<usize> = sim.faults.aborted.iter().copied().collect();
    let mut fct_by_component: BTreeMap<Component, Vec<f64>> = BTreeMap::new();
    for (id, r) in sim.results.iter().enumerate() {
        if aborted.contains(&id) {
            continue;
        }
        fct_by_component
            .entry(component_of(r.spec.tag))
            .or_default()
            .push(r.fct().as_secs_f64());
    }
    ReplayReport {
        fct_by_component,
        sim,
    }
}

/// Replays a traffic source on a topology under a fault spec, recording
/// into `obs`, and splits completions by component — the one replay
/// kernel.
///
/// The source is asked for its initial flows and called back on every
/// completion, so a reactive source releases dependent flows at
/// simulated — not captured — times; it also hears
/// [`TrafficSource::on_flow_aborted`] for every flow a fault kills. The
/// spec is validated against the topology and its faults fire as DES
/// events that abort or re-route flows. [`FaultSpec::empty`] takes the
/// fault-free arithmetic path, and the report is byte-identical whether
/// `obs` records or not (see [`simulate_faulted`] for what gets
/// recorded).
///
/// # Errors
///
/// Returns [`CoreError::Fault`] if the spec references hosts or links
/// outside the topology.
pub fn replay_faulted(
    topo: &Topology,
    source: &mut dyn TrafficSource,
    spec: &FaultSpec,
    options: SimOptions,
    obs: &Obs,
) -> Result<ReplayReport> {
    spec.validate(topo.host_count(), topo.link_count() as u32)
        .map_err(|e| CoreError::Fault(e.to_string()))?;
    let sim = simulate_faulted(topo, source, &spec.schedule(), options, obs);
    Ok(split_report(sim))
}

/// Replays flow specs on a topology and splits completions by component
/// (open loop, no faults).
#[must_use]
pub fn replay(topo: &Topology, flows: &[FlowSpec], options: SimOptions) -> ReplayReport {
    replay_observed(topo, flows, options, &Obs::disabled())
}

/// [`replay`] with an observability handle.
#[must_use]
pub fn replay_observed(
    topo: &Topology,
    flows: &[FlowSpec],
    options: SimOptions,
    obs: &Obs,
) -> ReplayReport {
    replay_source_observed(topo, &mut StaticSource::new(flows.to_vec()), options, obs)
}

/// Replays a reactive traffic source with no faults (see
/// [`replay_faulted`]).
pub fn replay_source_observed(
    topo: &Topology,
    source: &mut dyn TrafficSource,
    options: SimOptions,
    obs: &Obs,
) -> ReplayReport {
    replay_faulted(topo, source, &FaultSpec::empty(), options, obs)
        .expect("an empty fault spec fits every topology")
}

/// Closed-loop replay of jobs generated from a model, with dependent
/// stages held back by [`ModelSource`] until their parents complete.
///
/// # Errors
///
/// As [`ModelSource::new`].
pub fn replay_model_closed(
    model: &KeddahModel,
    topo: &Topology,
    n_jobs: u32,
    seed: u64,
    stagger_secs: f64,
    options: SimOptions,
) -> Result<ReplayReport> {
    let mut source = ModelSource::new(model, n_jobs, seed, stagger_secs, topo)?;
    replay_faulted(
        topo,
        &mut source,
        &FaultSpec::empty(),
        options,
        &Obs::disabled(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> GeneratedJob {
        GeneratedJob {
            nodes: 4,
            makespan: 10.0,
            flows: vec![
                GenFlow {
                    src: 1,
                    dst: 2,
                    bytes: 1 << 20,
                    start: 0.0,
                    component: Component::Shuffle,
                },
                GenFlow {
                    src: 3,
                    dst: 0,
                    bytes: 500,
                    start: 1.0,
                    component: Component::Control,
                },
            ],
        }
    }

    /// Clean, unobserved kernel run of a static flow list.
    fn replay_static(
        topo: &Topology,
        flows: &[FlowSpec],
        spec: &FaultSpec,
    ) -> Result<ReplayReport> {
        let mut source = StaticSource::new(flows.to_vec());
        replay_faulted(
            topo,
            &mut source,
            spec,
            SimOptions::default(),
            &Obs::disabled(),
        )
    }

    #[test]
    fn generated_jobs_replay() {
        let topo = Topology::star(5, 1e9);
        let flows = jobs_to_flows(&[job()], &topo).unwrap();
        let report = replay(&topo, &flows, SimOptions::default());
        assert_eq!(report.sim.results.len(), 2);
        assert_eq!(report.fct_by_component[&Component::Shuffle].len(), 1);
        assert_eq!(report.fct_by_component[&Component::Control].len(), 1);
        assert!(report.makespan_secs() > 0.0);
    }

    #[test]
    fn small_topology_rejected() {
        let topo = Topology::star(2, 1e9);
        let err = jobs_to_flows(&[job()], &topo).unwrap_err();
        assert!(matches!(err, CoreError::TopologyTooSmall { .. }));
        assert!(err.to_string().contains("host"));
    }

    #[test]
    fn tags_roundtrip_components() {
        for &c in Component::ALL {
            assert_eq!(component_of(tag_of(c)), c);
        }
    }

    #[test]
    fn foreign_tags_replay_as_other() {
        // A caller-built source may tag flows with any u32.
        let topo = Topology::star(3, 1e9);
        let flow = FlowSpec {
            src: HostId(1),
            dst: HostId(2),
            bytes: 1 << 20,
            start: SimTime::ZERO,
            tag: 7,
        };
        let report = replay_static(&topo, &[flow], &FaultSpec::empty()).unwrap();
        assert_eq!(report.fct_by_component[&Component::Other].len(), 1);
        assert_eq!(report.fct_by_component.len(), 1);
    }

    #[test]
    fn empty_fault_spec_matches_plain_replay() {
        let topo = Topology::star(5, 1e9);
        let flows = jobs_to_flows(&[job()], &topo).unwrap();
        let plain = replay(&topo, &flows, SimOptions::default());
        let faulted =
            replay_static(&topo, &flows, &FaultSpec::empty()).expect("empty spec is always valid");
        assert_eq!(plain.fct_by_component, faulted.fct_by_component);
        assert_eq!(plain.sim.makespan(), faulted.sim.makespan());
        assert!(faulted.sim.faults.aborted.is_empty());
    }

    #[test]
    fn aborted_flows_are_excluded_from_fct_samples() {
        use keddah_faults::{FaultKind, TimedFault};
        let topo = Topology::star(5, 1e9);
        let flows = jobs_to_flows(&[job()], &topo).unwrap();
        // Crash host 2 mid-shuffle: the 1 MiB shuffle flow (host 1 → 2,
        // ~8.4 ms alone) dies; the control flow is untouched.
        let spec = FaultSpec {
            faults: vec![TimedFault {
                at_nanos: 1_000_000,
                kind: FaultKind::NodeCrash { node: 2 },
            }],
        };
        let report = replay_static(&topo, &flows, &spec).unwrap();
        assert_eq!(report.sim.faults.aborted.len(), 1);
        assert!(!report.fct_by_component.contains_key(&Component::Shuffle));
        assert_eq!(report.fct_by_component[&Component::Control].len(), 1);
    }

    #[test]
    fn out_of_range_fault_rejected() {
        use keddah_faults::{FaultKind, TimedFault};
        let topo = Topology::star(3, 1e9);
        let spec = FaultSpec {
            faults: vec![TimedFault {
                at_nanos: 0,
                kind: FaultKind::NodeCrash { node: 99 },
            }],
        };
        let err = replay_static(&topo, &[], &spec).unwrap_err();
        assert!(matches!(err, CoreError::Fault(_)));
        assert!(err.to_string().contains("fault schedule"));
    }

    #[test]
    fn trace_replay_shifts_to_zero() {
        use keddah_des::SimTime;
        use keddah_flowcap::{FiveTuple, FlowRecord, NodeId, TraceMeta};
        let flows = vec![FlowRecord {
            tuple: FiveTuple {
                src: NodeId(1),
                src_port: 40_000,
                dst: NodeId(2),
                dst_port: 13_562,
            },
            start: SimTime::from_secs(100),
            end: SimTime::from_secs(101),
            fwd_bytes: 1 << 20,
            rev_bytes: 0,
            packets: 1,
            component: Some(Component::Shuffle),
        }];
        let trace = Trace::new(TraceMeta::default(), flows);
        let topo = Topology::star(3, 1e9);
        let specs = trace_to_flows(&trace, &topo).unwrap();
        assert_eq!(specs[0].start, SimTime::ZERO);
        let report = replay(&topo, &specs, SimOptions::default());
        assert_eq!(report.fct_by_component[&Component::Shuffle].len(), 1);
    }
}
