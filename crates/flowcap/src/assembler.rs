//! Packet-to-flow reassembly.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use keddah_des::{Duration, SimTime};

use crate::flow::{FiveTuple, FlowRecord, TupleKeys};
use crate::packet::PacketRecord;

/// Default idle gap after which a connection with no FIN is considered
/// closed (matches the common 60 s tcpdump post-processing convention).
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Reassembles a packet stream into [`FlowRecord`]s.
///
/// Packets are grouped by canonical 5-tuple. A flow ends when a FIN-marked
/// packet arrives or when the gap to the next packet of the same tuple
/// exceeds the idle timeout (in which case a new flow on the same tuple
/// begins). Packets must be pushed in non-decreasing timestamp order —
/// the capture produces them that way.
///
/// The originator of a flow is the source of its first observed packet,
/// which for complete captures is the SYN sender.
///
/// # Examples
///
/// ```
/// use keddah_des::SimTime;
/// use keddah_flowcap::{FlowAssembler, NodeId, PacketRecord};
///
/// let mut asm = FlowAssembler::new();
/// asm.push(PacketRecord::syn(SimTime::ZERO, NodeId(0), 1111, NodeId(1), 2222, 10));
/// asm.push(PacketRecord::data(SimTime::from_millis(1), NodeId(1), 2222, NodeId(0), 1111, 990));
/// asm.push(PacketRecord::fin(SimTime::from_millis(2), NodeId(0), 1111, NodeId(1), 2222, 0));
/// let flows = asm.finish();
/// assert_eq!(flows.len(), 1);
/// assert_eq!(flows[0].fwd_bytes, 10);
/// assert_eq!(flows[0].rev_bytes, 990);
/// ```
#[derive(Debug, Clone)]
pub struct FlowAssembler {
    idle_timeout: Duration,
    active: HashMap<FiveTuple, PendingFlow, TupleKeys>,
    finished: Vec<FlowRecord>,
    last_ts: SimTime,
}

#[derive(Debug, Clone)]
struct PendingFlow {
    tuple: FiveTuple, // oriented from the originator
    start: SimTime,
    end: SimTime,
    fwd_bytes: u64,
    rev_bytes: u64,
    packets: u64,
}

impl PendingFlow {
    /// A flow whose first packet, at `ts`, went the `tuple` way.
    fn open(tuple: FiveTuple, ts: SimTime) -> Self {
        PendingFlow {
            tuple,
            start: ts,
            end: ts,
            fwd_bytes: 0,
            rev_bytes: 0,
            packets: 0,
        }
    }

    /// Counts `packet`, which went the `oriented` way.
    fn add(&mut self, packet: &PacketRecord, oriented: FiveTuple) {
        self.end = packet.ts;
        self.packets += 1;
        if oriented == self.tuple {
            self.fwd_bytes += packet.bytes;
        } else {
            self.rev_bytes += packet.bytes;
        }
    }

    fn into_record(self) -> FlowRecord {
        FlowRecord {
            tuple: self.tuple,
            start: self.start,
            end: self.end,
            fwd_bytes: self.fwd_bytes,
            rev_bytes: self.rev_bytes,
            packets: self.packets,
            component: None,
        }
    }
}

impl FlowAssembler {
    /// Creates an assembler with the default 60 s idle timeout.
    #[must_use]
    pub fn new() -> Self {
        FlowAssembler::with_idle_timeout(DEFAULT_IDLE_TIMEOUT)
    }

    /// Creates an assembler with a custom idle timeout.
    #[must_use]
    pub fn with_idle_timeout(idle_timeout: Duration) -> Self {
        FlowAssembler {
            idle_timeout,
            active: HashMap::with_hasher(TupleKeys::new()),
            finished: Vec::new(),
            last_ts: SimTime::ZERO,
        }
    }

    /// The configured idle timeout.
    #[must_use]
    pub fn idle_timeout(&self) -> Duration {
        self.idle_timeout
    }

    /// Ingests one packet.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if packets arrive out of timestamp order.
    pub fn push(&mut self, packet: PacketRecord) {
        debug_assert!(
            packet.ts >= self.last_ts,
            "packets must arrive in timestamp order"
        );
        self.last_ts = packet.ts;
        let oriented = FiveTuple {
            src: packet.src,
            src_port: packet.src_port,
            dst: packet.dst,
            dst_port: packet.dst_port,
        };
        // One table lookup per packet: the entry handle serves the idle
        // check, the update and the FIN removal.
        match self.active.entry(oriented.canonical()) {
            Entry::Occupied(mut slot) => {
                let pending = slot.get_mut();
                // An idle predecessor on the same tuple ends; this packet
                // opens the next flow.
                if packet.ts.saturating_since(pending.end) > self.idle_timeout {
                    let done = std::mem::replace(pending, PendingFlow::open(oriented, packet.ts));
                    self.finished.push(done.into_record());
                }
                pending.add(&packet, oriented);
                if packet.fin {
                    self.finished.push(slot.remove().into_record());
                }
            }
            Entry::Vacant(slot) => {
                let mut pending = PendingFlow::open(oriented, packet.ts);
                pending.add(&packet, oriented);
                if packet.fin {
                    self.finished.push(pending.into_record());
                } else {
                    slot.insert(pending);
                }
            }
        }
    }

    /// Number of connections still open.
    #[must_use]
    pub fn open(&self) -> usize {
        self.active.len()
    }

    /// Flushes all still-open connections and returns every flow, sorted
    /// by start time (ties broken by tuple for determinism).
    #[must_use]
    pub fn finish(mut self) -> Vec<FlowRecord> {
        let mut rest: Vec<FlowRecord> = self.active.drain().map(|(_, p)| p.into_record()).collect();
        self.finished.append(&mut rest);
        self.finished.sort_by_key(FlowRecord::capture_order);
        self.finished
    }
}

impl Default for FlowAssembler {
    fn default() -> Self {
        FlowAssembler::new()
    }
}

impl Extend<PacketRecord> for FlowAssembler {
    fn extend<I: IntoIterator<Item = PacketRecord>>(&mut self, iter: I) {
        for p in iter {
            self.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::NodeId;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn single_flow_bidirectional() {
        let mut asm = FlowAssembler::new();
        asm.push(PacketRecord::syn(t(0), NodeId(0), 100, NodeId(1), 200, 10));
        asm.push(PacketRecord::data(
            t(1),
            NodeId(1),
            200,
            NodeId(0),
            100,
            500,
        ));
        asm.push(PacketRecord::data(t(2), NodeId(0), 100, NodeId(1), 200, 20));
        asm.push(PacketRecord::fin(t(3), NodeId(0), 100, NodeId(1), 200, 0));
        let flows = asm.finish();
        assert_eq!(flows.len(), 1);
        let f = &flows[0];
        assert_eq!(f.tuple.src, NodeId(0));
        assert_eq!(f.fwd_bytes, 30);
        assert_eq!(f.rev_bytes, 500);
        assert_eq!(f.packets, 4);
        assert_eq!(f.start, t(0));
        assert_eq!(f.end, t(3));
    }

    #[test]
    fn concurrent_flows_are_kept_apart() {
        let mut asm = FlowAssembler::new();
        for i in 0..10u16 {
            asm.push(PacketRecord::syn(
                t(i as u64),
                NodeId(0),
                1000 + i,
                NodeId(1),
                200,
                100,
            ));
        }
        for i in 0..10u16 {
            asm.push(PacketRecord::fin(
                t(100 + i as u64),
                NodeId(0),
                1000 + i,
                NodeId(1),
                200,
                50,
            ));
        }
        let flows = asm.finish();
        assert_eq!(flows.len(), 10);
        assert!(flows.iter().all(|f| f.fwd_bytes == 150));
    }

    #[test]
    fn idle_timeout_splits_flows() {
        let mut asm = FlowAssembler::with_idle_timeout(Duration::from_secs(1));
        asm.push(PacketRecord::data(t(0), NodeId(0), 100, NodeId(1), 200, 10));
        asm.push(PacketRecord::data(
            t(500),
            NodeId(0),
            100,
            NodeId(1),
            200,
            10,
        ));
        // 2 s gap > 1 s timeout: this starts a new flow.
        asm.push(PacketRecord::data(
            t(2_500),
            NodeId(0),
            100,
            NodeId(1),
            200,
            10,
        ));
        let flows = asm.finish();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].packets, 2);
        assert_eq!(flows[1].packets, 1);
    }

    #[test]
    fn unfinished_flows_flushed_on_finish() {
        let mut asm = FlowAssembler::new();
        asm.push(PacketRecord::syn(t(0), NodeId(3), 1, NodeId(4), 2, 7));
        assert_eq!(asm.open(), 1);
        let flows = asm.finish();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].fwd_bytes, 7);
    }

    #[test]
    fn orientation_follows_first_packet() {
        // First observed packet is from the "server" side (partial capture):
        // the assembler orients the flow from that side.
        let mut asm = FlowAssembler::new();
        asm.push(PacketRecord::data(
            t(0),
            NodeId(9),
            200,
            NodeId(8),
            100,
            1000,
        ));
        asm.push(PacketRecord::data(t(1), NodeId(8), 100, NodeId(9), 200, 10));
        let flows = asm.finish();
        assert_eq!(flows[0].tuple.src, NodeId(9));
        assert_eq!(flows[0].fwd_bytes, 1000);
        assert_eq!(flows[0].rev_bytes, 10);
    }

    #[test]
    fn results_sorted_by_start() {
        let mut asm = FlowAssembler::new();
        asm.push(PacketRecord::syn(t(5), NodeId(0), 1, NodeId(1), 2, 1));
        asm.push(PacketRecord::syn(t(6), NodeId(2), 3, NodeId(3), 4, 1));
        asm.push(PacketRecord::fin(t(7), NodeId(2), 3, NodeId(3), 4, 1));
        asm.push(PacketRecord::fin(t(8), NodeId(0), 1, NodeId(1), 2, 1));
        let flows = asm.finish();
        assert!(flows[0].start <= flows[1].start);
        assert_eq!(flows[0].tuple.src, NodeId(0));
    }

    #[test]
    fn extend_ingests_packets() {
        let mut asm = FlowAssembler::new();
        asm.extend(vec![
            PacketRecord::syn(t(0), NodeId(0), 1, NodeId(1), 2, 5),
            PacketRecord::fin(t(1), NodeId(0), 1, NodeId(1), 2, 5),
        ]);
        assert_eq!(asm.open(), 0, "the FIN closed the flow");
        let flows = asm.finish();
        assert_eq!(flows.len(), 1);
        assert_eq!((flows[0].packets, flows[0].fwd_bytes), (2, 10));
    }
}
