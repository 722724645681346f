//! Traffic sources — who decides which flows enter the simulation, and
//! when.
//!
//! The fluid simulator used to take a flat, pre-computed `Vec<FlowSpec>`:
//! an *open-loop* replay in which congestion can never delay a dependent
//! flow. [`TrafficSource`] inverts that: the simulator asks the source for
//! its initial flows ([`TrafficSource::on_start`]) and then calls back on
//! every completion ([`TrafficSource::on_flow_complete`]), so a source can
//! release dependent flows — a shuffle fetch after the map's input read, a
//! replication-pipeline hop after the upstream hop — only once their
//! parents actually finished under the simulated network conditions
//! (*closed-loop* replay).
//!
//! [`StaticSource`] recovers the old behaviour exactly: it hands over every
//! flow up front and never reacts.

use crate::sim::{FlowResult, FlowSpec};

/// Identifier the simulator assigns to each injected flow.
///
/// Ids are consecutive in injection order: the flows returned by
/// [`TrafficSource::on_start`] get `0..n` in order, and each batch returned
/// by [`TrafficSource::on_flow_complete`] continues the sequence. The
/// result vector of a [`crate::SimReport`] is indexed by `FlowId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub usize);

/// A reactive producer of simulation traffic.
///
/// Implementations own whatever state they need to decide dependent
/// releases (a captured trace with inferred dependency edges, a fitted
/// model sampled stage by stage, or just a flat list).
///
/// Flows whose `start` lies in the simulated past when they are returned
/// are injected immediately (their start is clamped to the current
/// simulation time).
pub trait TrafficSource {
    /// Flows known at simulation start. Called exactly once.
    fn on_start(&mut self) -> Vec<FlowSpec>;

    /// Called when flow `id` has fully completed (its last byte arrived,
    /// at `result.finish`). Returns dependent flows to inject now.
    fn on_flow_complete(&mut self, id: FlowId, result: &FlowResult) -> Vec<FlowSpec>;

    /// Called when a fault killed flow `id` before it could complete
    /// (`result.finish` is the abort time, `lost_bytes` the payload that
    /// never arrived). The source may re-issue the transfer — a retried
    /// shuffle fetch, a re-replication from a surviving replica — by
    /// returning replacement flows, or accept the loss (the default).
    ///
    /// Never called in fault-free runs, so sources that ignore faults
    /// need no changes.
    fn on_flow_aborted(
        &mut self,
        _id: FlowId,
        _result: &FlowResult,
        _lost_bytes: u64,
    ) -> Vec<FlowSpec> {
        Vec::new()
    }
}

/// The open-loop source: every flow is known up front, nothing reacts.
///
/// [`crate::simulate`] is [`crate::simulate_faulted`] over a
/// `StaticSource`; the `replay_consistency` tests pin it byte for byte
/// to the pre-trait event loop.
#[derive(Debug, Clone)]
pub struct StaticSource {
    flows: Vec<FlowSpec>,
}

impl StaticSource {
    /// Wraps a flat flow list.
    #[must_use]
    pub fn new(flows: Vec<FlowSpec>) -> Self {
        StaticSource { flows }
    }
}

impl TrafficSource for StaticSource {
    fn on_start(&mut self) -> Vec<FlowSpec> {
        std::mem::take(&mut self.flows)
    }

    fn on_flow_complete(&mut self, _id: FlowId, _result: &FlowResult) -> Vec<FlowSpec> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::HostId;
    use keddah_des::SimTime;

    #[test]
    fn static_source_drains_once() {
        let spec = FlowSpec {
            src: HostId(0),
            dst: HostId(1),
            bytes: 100,
            start: SimTime::ZERO,
            tag: 0,
        };
        let mut s = StaticSource::new(vec![spec]);
        assert_eq!(s.on_start(), vec![spec]);
        assert!(s.on_start().is_empty(), "flows are handed over once");
        let result = FlowResult {
            spec,
            finish: SimTime::from_secs(1),
        };
        assert!(s.on_flow_complete(FlowId(0), &result).is_empty());
    }
}
