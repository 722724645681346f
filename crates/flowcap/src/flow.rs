//! Flow-level capture records.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

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

/// Builds the hasher both assemblers key their connection tables with.
///
/// A [`FiveTuple`] is 12 bytes. [`TupleHasher`] packs them into one
/// 96-bit word, XORs its two halves with two secret keys and folds one
/// 64×64→128-bit product of them into 64 bits. The keys are drawn once
/// per table from the standard library's randomly seeded SipHash
/// ([`RandomState`]), so which tuples collide differs from table to table
/// and from run to run, and cannot be chosen without the keys. Hashing
/// costs one multiply instead of SipHash's rounds. See DESIGN.md,
/// "Streaming ingestion", for the trade-off.
#[derive(Clone, Copy)]
pub(crate) struct TupleKeys {
    k0: u64,
    k1: u64,
}

impl TupleKeys {
    /// Draws fresh keys.
    pub(crate) fn new() -> Self {
        let seed = RandomState::new();
        TupleKeys {
            k0: seed.hash_one(0u8),
            k1: seed.hash_one(1u8),
        }
    }
}

impl std::fmt::Debug for TupleKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The keys are secret; keep them out of debug dumps.
        f.debug_struct("TupleKeys").finish_non_exhaustive()
    }
}

impl BuildHasher for TupleKeys {
    type Hasher = TupleHasher;

    fn build_hasher(&self) -> TupleHasher {
        TupleHasher {
            keys: *self,
            packed: 0,
        }
    }
}

/// The hasher [`TupleKeys`] builds: a `FiveTuple` writes its four fields,
/// which shift into `packed` whole, so distinct tuples pack distinctly.
pub(crate) struct TupleHasher {
    keys: TupleKeys,
    packed: u128,
}

impl Hasher for TupleHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.packed = self.packed << 8 | u128::from(b);
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.packed = self.packed << 16 | u128::from(n);
    }

    fn write_u32(&mut self, n: u32) {
        self.packed = self.packed << 32 | u128::from(n);
    }

    fn finish(&self) -> u64 {
        let lo = self.packed as u64 ^ self.keys.k0;
        let hi = (self.packed >> 64) as u64 ^ self.keys.k1;
        let product = u128::from(lo) * u128::from(hi);
        product as u64 ^ (product >> 64) as u64
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
    use std::hash::Hash;

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
    fn tuple_hash_packs_every_field_and_is_keyed() {
        let keys = TupleKeys {
            k0: 0x1234_5678_9abc_def0,
            k1: 0x0fed_cba9_8765_4321,
        };
        let t = tuple();
        let mut hasher = keys.build_hasher();
        t.hash(&mut hasher);
        let packed = (1u128 << 64) | (40_000u128 << 48) | (2u128 << 16) | 50_010;
        assert_eq!(hasher.packed, packed);
        assert_eq!(keys.hash_one(t), keys.hash_one(t));
        for other in [
            FiveTuple {
                src: NodeId(3),
                ..t
            },
            FiveTuple {
                src_port: 40_001,
                ..t
            },
            FiveTuple {
                dst: NodeId(3),
                ..t
            },
            FiveTuple {
                dst_port: 50_011,
                ..t
            },
            t.reversed(),
        ] {
            assert_ne!(keys.hash_one(other), keys.hash_one(t), "{other}");
        }
        // Every table draws its own keys.
        let (a, b) = (TupleKeys::new(), TupleKeys::new());
        assert_ne!((a.k0, a.k1), (b.k0, b.k1));
        assert_eq!(format!("{a:?}"), "TupleKeys { .. }");
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
        let labelled = FlowRecord {
            component: Some(Component::HdfsRead),
            ..f
        };
        assert_eq!(labelled.component, Some(Component::HdfsRead));
        assert!(labelled.to_string().contains("hdfs_read"));
    }
}
