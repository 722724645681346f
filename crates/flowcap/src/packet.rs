//! Packet-level capture records.

use keddah_des::SimTime;
use serde::{Deserialize, Serialize};

/// Identifies a host in the captured cluster.
///
/// A stand-in for an IP address: the simulated testbed numbers its nodes
/// densely from zero. The field is public because `NodeId` is a plain
/// identifier with no invariant.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// One captured packet (or packet aggregate).
///
/// The simulated capture emits one record per transport segment group
/// rather than per MTU-sized frame; `bytes` carries the payload size. The
/// SYN/FIN flags delimit connections exactly as a tcpdump-based flow
/// reassembler would use them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacketRecord {
    /// Capture timestamp.
    pub ts: SimTime,
    /// Sending host.
    pub src: NodeId,
    /// Source transport port.
    pub src_port: u16,
    /// Receiving host.
    pub dst: NodeId,
    /// Destination transport port.
    pub dst_port: u16,
    /// Payload bytes carried.
    pub bytes: u64,
    /// Connection-open marker.
    pub syn: bool,
    /// Connection-close marker.
    pub fin: bool,
}

impl PacketRecord {
    /// Creates a mid-connection data packet.
    #[must_use]
    pub fn data(
        ts: SimTime,
        src: NodeId,
        src_port: u16,
        dst: NodeId,
        dst_port: u16,
        bytes: u64,
    ) -> Self {
        PacketRecord {
            ts,
            src,
            src_port,
            dst,
            dst_port,
            bytes,
            syn: false,
            fin: false,
        }
    }

    /// Creates a connection-opening packet.
    #[must_use]
    pub fn syn(
        ts: SimTime,
        src: NodeId,
        src_port: u16,
        dst: NodeId,
        dst_port: u16,
        bytes: u64,
    ) -> Self {
        PacketRecord {
            syn: true,
            ..PacketRecord::data(ts, src, src_port, dst, dst_port, bytes)
        }
    }

    /// Creates a connection-closing packet.
    #[must_use]
    pub fn fin(
        ts: SimTime,
        src: NodeId,
        src_port: u16,
        dst: NodeId,
        dst_port: u16,
        bytes: u64,
    ) -> Self {
        PacketRecord {
            fin: true,
            ..PacketRecord::data(ts, src, src_port, dst, dst_port, bytes)
        }
    }
}

/// Bits per digit of [`sort_by_time`]'s radix passes.
const DIGIT_BITS: u32 = 8;

/// Puts packets into time order and returns how many were stamped before
/// a packet listed earlier. Every packet list the toolchain orders goes
/// through here: rendered captures and parsed packet text alike.
///
/// The order is exactly the one `sort_by_key(|p| p.ts)` leaves: by
/// timestamp, and equal timestamps in their listed order. The pass that
/// finds the largest timestamp also counts the late packets, and when
/// none is late the packets are left as they are. Otherwise a stable LSD
/// radix sort runs over the timestamp's nanoseconds, one pass per 8-bit
/// digit, least significant first, and only as many digits as the
/// largest timestamp needs. Every digit's counts are taken
/// in one read of the input.
///
/// # Examples
///
/// ```
/// use keddah_des::SimTime;
/// use keddah_flowcap::{sort_by_time, NodeId, PacketRecord};
///
/// let at = |micros| PacketRecord::data(SimTime::from_micros(micros), NodeId(0), 1, NodeId(1), 2, 0);
/// let mut packets = vec![at(9), at(3), at(5)];
/// assert_eq!(sort_by_time(&mut packets), 2);
/// assert_eq!(packets, [at(3), at(5), at(9)]);
/// ```
pub fn sort_by_time(packets: &mut Vec<PacketRecord>) -> u64 {
    const BUCKETS: usize = 1 << DIGIT_BITS;
    let digit =
        |p: &PacketRecord, d: u32| (p.ts.as_nanos() >> (d * DIGIT_BITS)) as usize & (BUCKETS - 1);
    let (mut max, mut late) = (0, 0);
    for p in packets.iter() {
        let ts = p.ts.as_nanos();
        late += u64::from(ts < max);
        max = max.max(ts);
    }
    if late == 0 {
        return 0;
    }
    let digits = (u64::BITS - max.leading_zeros()).div_ceil(DIGIT_BITS);
    let mut counts = vec![[0usize; BUCKETS]; digits as usize];
    for p in packets.iter() {
        for (d, count) in (0..digits).zip(&mut counts) {
            count[digit(p, d)] += 1;
        }
    }
    let mut from = std::mem::take(packets);
    let mut to = from.clone();
    for (d, count) in (0..digits).zip(&counts) {
        let mut next = [0usize; BUCKETS];
        let mut at = 0;
        for (n, c) in next.iter_mut().zip(count) {
            *n = at;
            at += c;
        }
        for p in &from {
            let b = digit(p, d);
            to[next[b]] = *p;
            next[b] += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    *packets = from;
    late
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports;

    #[test]
    fn constructors_set_flags() {
        let t = SimTime::from_millis(1);
        let d = PacketRecord::data(t, NodeId(0), 1, NodeId(1), 2, 100);
        assert!(!d.syn && !d.fin);
        let s = PacketRecord::syn(t, NodeId(0), 1, NodeId(1), 2, 100);
        assert!(s.syn && !s.fin);
        let f = PacketRecord::fin(t, NodeId(0), 1, NodeId(1), 2, 100);
        assert!(!f.syn && f.fin);
        assert_eq!(f.bytes, 100);
    }

    #[test]
    fn node_id_display_and_from() {
        assert_eq!(NodeId::from(3u32).to_string(), "node3");
        assert_eq!(NodeId(3), NodeId::from(3u32));
    }

    #[test]
    fn serde_roundtrip() {
        let p = PacketRecord::syn(SimTime::from_secs(1), NodeId(5), 1024, NodeId(9), 50010, 64);
        let json = serde_json::to_string(&p).unwrap();
        let back: PacketRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn sort_by_time_counts_late_packets_and_keeps_ties_in_order() {
        let at = |micros, port| {
            PacketRecord::data(
                SimTime::from_micros(micros),
                NodeId(0),
                port,
                NodeId(1),
                2,
                1,
            )
        };
        let mut packets = vec![at(9, 1), at(3, 2), at(9, 3), at(5, 4), at(3, 5)];
        assert_eq!(sort_by_time(&mut packets), 3);
        let ports: Vec<u16> = packets.iter().map(|p| p.src_port).collect();
        assert_eq!(ports, [2, 5, 4, 1, 3]);
        assert_eq!(sort_by_time(&mut packets), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The radix order is the order `sort_by_key(|p| p.ts)` gives,
        /// element for element, and the late count is the number of
        /// packets some earlier-listed packet is stamped after. Timestamps
        /// take 1 to 8 digits: each is 0, within 3 of the largest the digit
        /// count allows (`u64::MAX` at 8), one of three values many
        /// connections share, or anything in range. Every packet carries
        /// its input position, so moving one of a group of equal
        /// timestamps shows.
        #[test]
        fn radix_order_is_the_stable_sort(
            digits in 1u32..9,
            draws in proptest::prelude::prop::collection::vec(
                (0u32..4, proptest::prelude::any::<u64>()),
                0..600,
            ),
        ) {
            let top = u64::MAX >> (64 - DIGIT_BITS * digits);
            let shared = [top / 3, top / 2, top - 1];
            let packets: Vec<PacketRecord> = (draws.iter().enumerate())
                .map(|(i, &(kind, x))| {
                    let ts = match kind {
                        0 => 0,
                        1 => top - x % 4,
                        2 => shared[(x % 3) as usize],
                        _ => x & top,
                    };
                    // Three packets per connection, on five clients.
                    let connection = (i / 3) as u16;
                    PacketRecord::data(
                        SimTime::from_nanos(ts),
                        NodeId(u32::from(connection % 5)),
                        connection,
                        NodeId(0),
                        ports::DATANODE_XFER,
                        i as u64,
                    )
                })
                .collect();
            let late = (0..packets.len())
                .filter(|&i| packets[..i].iter().any(|q| q.ts > packets[i].ts))
                .count() as u64;
            let mut want = packets.clone();
            want.sort_by_key(|p| p.ts);
            let mut got = packets;
            proptest::prop_assert_eq!(sort_by_time(&mut got), late);
            proptest::prop_assert_eq!(got, want);
        }
    }
}
