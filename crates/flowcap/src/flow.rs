//! Flow-level capture records.

use keddah_des::{Duration, SimTime};
use serde::{Deserialize, Serialize};

use crate::classify::Component;
use crate::packet::NodeId;

/// A transport 5-tuple identifying a connection (protocol is implicitly
/// TCP: all Hadoop data-plane traffic is TCP).
///
/// The *originator* of the connection is `(src, src_port)` — the side that
/// sent the SYN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FiveTuple {
    /// Connection originator host.
    pub src: NodeId,
    /// Originator port.
    pub src_port: u16,
    /// Responder host.
    pub dst: NodeId,
    /// Responder port (the service port for Hadoop traffic).
    pub dst_port: u16,
}

impl FiveTuple {
    /// The tuple with source and destination swapped — the reverse
    /// direction of the same connection.
    #[must_use]
    pub fn reversed(self) -> FiveTuple {
        FiveTuple {
            src: self.dst,
            src_port: self.dst_port,
            dst: self.src,
            dst_port: self.src_port,
        }
    }

    /// A canonical key identifying the connection regardless of direction:
    /// the lexicographically smaller orientation.
    #[must_use]
    pub fn canonical(self) -> FiveTuple {
        let rev = self.reversed();
        if (self.src, self.src_port, self.dst, self.dst_port)
            <= (rev.src, rev.src_port, rev.dst, rev.dst_port)
        {
            self
        } else {
            rev
        }
    }
}

impl std::fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{}",
            self.src, self.src_port, self.dst, self.dst_port
        )
    }
}

/// One reassembled flow: a connection observed from first to last packet.
///
/// Byte counts are kept per direction. `fwd_bytes` flows from the
/// originator to the responder; `rev_bytes` the other way. The split is
/// what lets the classifier tell an HDFS *read* (bulk bytes from the
/// DataNode back to the client) from an HDFS *write* (bulk bytes toward
/// the DataNode) on the same service port.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// The connection 5-tuple, oriented from the originator.
    pub tuple: FiveTuple,
    /// Timestamp of the first packet.
    pub start: SimTime,
    /// Timestamp of the last packet.
    pub end: SimTime,
    /// Payload bytes originator → responder.
    pub fwd_bytes: u64,
    /// Payload bytes responder → originator.
    pub rev_bytes: u64,
    /// Packets in both directions.
    pub packets: u64,
    /// Component label assigned by the classifier, if any.
    pub component: Option<Component>,
}

impl FlowRecord {
    /// Total payload bytes in both directions.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.fwd_bytes + self.rev_bytes
    }

    /// Flow duration (zero for single-packet flows).
    #[must_use]
    pub fn duration(&self) -> Duration {
        self.end.saturating_since(self.start)
    }

    /// The direction carrying the majority of the bytes: `true` if the
    /// originator sent more than it received.
    #[must_use]
    pub fn forward_dominant(&self) -> bool {
        self.fwd_bytes >= self.rev_bytes
    }

    /// The key a capture lists its flows by: start time, ties broken by
    /// tuple. [`FlowAssembler::finish`](crate::FlowAssembler::finish)
    /// sorts by it.
    #[must_use]
    pub fn capture_order(&self) -> (SimTime, NodeId, u16, NodeId, u16) {
        (
            self.start,
            self.tuple.src,
            self.tuple.src_port,
            self.tuple.dst,
            self.tuple.dst_port,
        )
    }

    /// Returns a copy labelled with `component`.
    #[must_use]
    pub fn with_component(mut self, component: Component) -> FlowRecord {
        self.component = Some(component);
        self
    }
}

impl std::fmt::Display for FlowRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{} .. {}] fwd={}B rev={}B {}",
            self.tuple,
            self.start,
            self.end,
            self.fwd_bytes,
            self.rev_bytes,
            self.component
                .map_or("unlabelled".to_string(), |c| c.to_string()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple() -> FiveTuple {
        FiveTuple {
            src: NodeId(1),
            src_port: 40_000,
            dst: NodeId(2),
            dst_port: 50_010,
        }
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let t = tuple();
        let r = t.reversed();
        assert_eq!(r.src, NodeId(2));
        assert_eq!(r.dst_port, 40_000);
        assert_eq!(r.reversed(), t);
    }

    #[test]
    fn canonical_is_direction_independent() {
        let t = tuple();
        assert_eq!(t.canonical(), t.reversed().canonical());
    }

    #[test]
    fn flow_accessors() {
        let f = FlowRecord {
            tuple: tuple(),
            start: SimTime::from_secs(1),
            end: SimTime::from_secs(3),
            fwd_bytes: 100,
            rev_bytes: 900,
            packets: 4,
            component: None,
        };
        assert_eq!(f.total_bytes(), 1000);
        assert_eq!(f.duration(), Duration::from_secs(2));
        assert!(!f.forward_dominant());
        let labelled = f.with_component(Component::HdfsRead);
        assert_eq!(labelled.component, Some(Component::HdfsRead));
        assert!(labelled.to_string().contains("hdfs_read"));
    }
}
