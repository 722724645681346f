//! Bounded-memory incremental flow reassembly.
//!
//! [`FlowAssembler`](crate::FlowAssembler) is a batch device: it holds every
//! open connection in an unbounded map and only resolves idle expiry when
//! the *next* packet of the same tuple arrives (or at [`finish`]). That is
//! fine for a finished capture file but not for a long-running daemon
//! tailing rotating captures, where the connection table must stay bounded
//! no matter what the stream does.
//!
//! [`StreamAssembler`] is the streaming counterpart:
//!
//! * connection state lives in a **fixed-capacity slot slab** threaded
//!   onto an intrusive least-recently-touched ring, so memory is
//!   `O(max_active)` regardless of stream length;
//! * a **stream clock** (the maximum timestamp observed so far) drives
//!   eager idle eviction: on every push, flows whose last activity is
//!   older than `clock − idle_timeout` are emitted from the cold end of
//!   the ring. This is exact — no flow is evicted early and none linger —
//!   because the ring is ordered by last-touch time;
//! * when the slab is full, the **least recently touched** flow is
//!   evicted to make room (the explicit eviction policy: LRU-by-activity,
//!   counted separately from idle expiry so operators can tell table
//!   pressure from natural connection churn).
//!
//! # Equivalence with the batch assembler
//!
//! For an in-timestamp-order packet stream that never hits the capacity
//! limit, the multiset of records emitted by [`StreamAssembler`] (drained
//! plus flushed) is **identical** to [`FlowAssembler::finish`](crate::FlowAssembler::finish) modulo
//! ordering: both split a tuple when the packet gap exceeds the idle
//! timeout, both complete on FIN, and the eager idle sweep only fires at
//! stream-clock instants where the batch assembler would have split (a
//! later same-tuple packet necessarily arrives at `ts ≥ clock`, so its gap
//! also exceeds the timeout) or would have flushed the identical record at
//! `finish`. Out-of-order input is additionally tolerated (no panic):
//! flow `start`/`end` are tracked as min/max timestamps and byte totals
//! are conserved exactly, though record *boundaries* may differ from a
//! batch pass over the sorted stream.
//!
//! [`finish`]: crate::FlowAssembler::finish

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use keddah_des::{Duration, SimTime};

use crate::assembler::DEFAULT_IDLE_TIMEOUT;
use crate::flow::{FiveTuple, FlowRecord, TupleKeys};
use crate::packet::PacketRecord;

/// Sentinel index terminating the intrusive LRU ring.
const NIL: usize = usize::MAX;

/// Default connection-table capacity for the streaming assembler.
pub const DEFAULT_MAX_ACTIVE: usize = 65_536;

/// Configuration for [`StreamAssembler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Idle gap after which a connection with no FIN is considered closed.
    pub idle_timeout: Duration,
    /// Maximum simultaneously open connections. When full, the least
    /// recently touched connection is evicted to make room. Values below
    /// one are treated as one.
    pub max_active: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            max_active: DEFAULT_MAX_ACTIVE,
        }
    }
}

/// Counters describing what the streaming assembler has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Packets ingested.
    pub packets: u64,
    /// Flows completed by an explicit FIN.
    pub completed_fin: u64,
    /// Flows evicted because they idled past the timeout (includes
    /// same-tuple idle splits, which the batch assembler also performs).
    pub evicted_idle: u64,
    /// Flows evicted to make room when the connection table was full.
    pub evicted_capacity: u64,
    /// Flows force-emitted by [`StreamAssembler::flush`].
    pub flushed: u64,
}

impl StreamStats {
    /// Total flows emitted for any reason.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.completed_fin + self.evicted_idle + self.evicted_capacity + self.flushed
    }

    /// Flows evicted rather than naturally completed (idle + capacity).
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted_idle + self.evicted_capacity
    }
}

#[derive(Debug, Clone)]
struct PendingFlow {
    tuple: FiveTuple, // oriented from the originator
    start: SimTime,
    end: SimTime,
    /// Stream-clock instant of the last packet (≥ `end` under reordering).
    touched: SimTime,
    fwd_bytes: u64,
    rev_bytes: u64,
    packets: u64,
}

impl PendingFlow {
    /// A flow opened by `packet`, which went the `oriented` way, at
    /// stream-clock instant `clock`.
    fn open(packet: &PacketRecord, oriented: FiveTuple, clock: SimTime) -> Self {
        PendingFlow {
            tuple: oriented,
            start: packet.ts,
            end: packet.ts,
            touched: clock,
            fwd_bytes: packet.bytes,
            rev_bytes: 0,
            packets: 1,
        }
    }

    /// Counts `packet`, which went the `oriented` way, at `clock`.
    fn add(&mut self, packet: &PacketRecord, oriented: FiveTuple, clock: SimTime) {
        self.start = self.start.min(packet.ts);
        self.end = self.end.max(packet.ts);
        self.packets += 1;
        if oriented == self.tuple {
            self.fwd_bytes += packet.bytes;
        } else {
            self.rev_bytes += packet.bytes;
        }
        self.touched = clock;
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

/// Why a flow is being emitted; selects the stats counter.
#[derive(Clone, Copy)]
enum Emit {
    Fin,
    Idle,
    Capacity,
    Flush,
}

/// The open flows: a slot slab threaded onto an intrusive
/// least-recently-touched ring. Kept apart from the tuple table so a
/// table entry can stay live while its slot changes.
#[derive(Debug, Clone)]
struct Ring {
    /// `None` entries are free and listed in `free`.
    slots: Vec<Option<PendingFlow>>,
    /// Intrusive LRU links (`NIL`-terminated, parallel to `slots`).
    prev: Vec<usize>,
    next: Vec<usize>,
    free: Vec<usize>,
    /// Cold end of the ring (least recently touched).
    head: usize,
    /// Hot end of the ring (most recently touched).
    tail: usize,
}

impl Ring {
    fn new() -> Self {
        Ring {
            slots: Vec::new(),
            prev: Vec::new(),
            next: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of open flows.
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// The least recently touched flow's slot, if any flow is open.
    fn coldest(&self) -> Option<usize> {
        (self.head != NIL).then_some(self.head)
    }

    fn get(&self, slot: usize) -> &PendingFlow {
        self.slots[slot].as_ref().expect("ring slot occupied")
    }

    fn get_mut(&mut self, slot: usize) -> &mut PendingFlow {
        self.slots[slot].as_mut().expect("ring slot occupied")
    }

    /// Stores `flow` at the hot end; returns its slot.
    fn insert(&mut self, flow: PendingFlow) -> usize {
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(flow);
                i
            }
            None => {
                self.slots.push(Some(flow));
                self.prev.push(NIL);
                self.next.push(NIL);
                self.slots.len() - 1
            }
        };
        self.attach_tail(slot);
        slot
    }

    /// Takes the flow out of `slot`, freeing it.
    fn remove(&mut self, slot: usize) -> PendingFlow {
        self.detach(slot);
        self.free.push(slot);
        self.slots[slot].take().expect("ring slot occupied")
    }

    /// Moves a slot to the hot end.
    fn touch(&mut self, slot: usize) {
        if self.tail != slot {
            self.detach(slot);
            self.attach_tail(slot);
        }
    }

    fn detach(&mut self, slot: usize) {
        let (p, n) = (self.prev[slot], self.next[slot]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n] = p;
        }
        self.prev[slot] = NIL;
        self.next[slot] = NIL;
    }

    fn attach_tail(&mut self, slot: usize) {
        self.prev[slot] = self.tail;
        self.next[slot] = NIL;
        if self.tail == NIL {
            self.head = slot;
        } else {
            self.next[self.tail] = slot;
        }
        self.tail = slot;
    }
}

/// Incremental 5-tuple flow reassembly with bounded memory.
///
/// See the [module docs](self) for the eviction policy and the equivalence
/// argument against [`FlowAssembler`](crate::FlowAssembler).
///
/// # Examples
///
/// ```
/// use keddah_des::SimTime;
/// use keddah_flowcap::{NodeId, PacketRecord, StreamAssembler};
///
/// let mut asm = StreamAssembler::new();
/// asm.push(PacketRecord::syn(SimTime::ZERO, NodeId(0), 1111, NodeId(1), 2222, 10));
/// asm.push(PacketRecord::fin(SimTime::from_millis(2), NodeId(0), 1111, NodeId(1), 2222, 990));
/// let done = asm.drain();
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].fwd_bytes, 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct StreamAssembler {
    config: StreamConfig,
    /// Maximum timestamp observed so far; drives idle eviction.
    clock: SimTime,
    ring: Ring,
    /// Canonical tuple → slot of every open flow.
    index: HashMap<FiveTuple, usize, TupleKeys>,
    done: Vec<FlowRecord>,
    stats: StreamStats,
}

impl StreamAssembler {
    /// Creates a streaming assembler with the default configuration
    /// (60 s idle timeout, 65 536-connection table).
    #[must_use]
    pub fn new() -> Self {
        StreamAssembler::with_config(StreamConfig::default())
    }

    /// Creates a streaming assembler with an explicit configuration.
    #[must_use]
    pub fn with_config(config: StreamConfig) -> Self {
        let config = StreamConfig {
            max_active: config.max_active.max(1),
            ..config
        };
        StreamAssembler {
            config,
            clock: SimTime::ZERO,
            ring: Ring::new(),
            index: HashMap::with_hasher(TupleKeys::new()),
            done: Vec::new(),
            stats: StreamStats::default(),
        }
    }

    /// The effective configuration.
    #[must_use]
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// The stream clock: the maximum packet timestamp observed so far.
    #[must_use]
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Number of connections currently open.
    #[must_use]
    pub fn open(&self) -> usize {
        self.index.len()
    }

    /// Number of completed records waiting in [`drain`](Self::drain).
    #[must_use]
    pub fn ready(&self) -> usize {
        self.done.len()
    }

    /// Counters accumulated since construction.
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Ingests one packet. Out-of-order timestamps are tolerated.
    pub fn push(&mut self, packet: PacketRecord) {
        self.stats.packets += 1;
        if packet.ts > self.clock {
            self.clock = packet.ts;
        }
        self.sweep_idle();

        let oriented = FiveTuple {
            src: packet.src,
            src_port: packet.src_port,
            dst: packet.dst,
            dst_port: packet.dst_port,
        };
        // One table lookup per packet: the entry serves the idle check,
        // the update and the FIN removal. Only a full table looks up
        // again, to evict its coldest flow.
        let vacant = match self.index.entry(oriented.canonical()) {
            Entry::Occupied(entry) => {
                let slot = *entry.get();
                if packet.fin {
                    entry.remove();
                }
                let pending = self.ring.get_mut(slot);
                // An idle predecessor on the same tuple ends, exactly as
                // in the batch assembler; this packet opens the next flow
                // in its slot.
                if packet.ts.saturating_since(pending.end) > self.config.idle_timeout {
                    let idle = std::mem::replace(
                        pending,
                        PendingFlow::open(&packet, oriented, self.clock),
                    );
                    self.record(idle, Emit::Idle);
                } else {
                    pending.add(&packet, oriented, self.clock);
                }
                if packet.fin {
                    let flow = self.ring.remove(slot);
                    self.record(flow, Emit::Fin);
                } else {
                    self.ring.touch(slot);
                }
                return;
            }
            Entry::Vacant(entry) => entry,
        };

        // New flow: make room first so the table never exceeds capacity.
        let flow = PendingFlow::open(&packet, oriented, self.clock);
        if self.ring.len() >= self.config.max_active {
            let key = *vacant.key();
            let coldest = self
                .ring
                .coldest()
                .expect("full table implies non-empty ring");
            self.emit(coldest, Emit::Capacity);
            if packet.fin {
                self.record(flow, Emit::Fin);
            } else {
                let slot = self.ring.insert(flow);
                self.index.insert(key, slot);
            }
        } else if packet.fin {
            // A connection that ends on its first packet never enters
            // the table.
            self.record(flow, Emit::Fin);
        } else {
            vacant.insert(self.ring.insert(flow));
        }
    }

    /// Takes every record completed since the last drain, in completion
    /// order (deterministic for a given packet sequence).
    #[must_use]
    pub fn drain(&mut self) -> Vec<FlowRecord> {
        std::mem::take(&mut self.done)
    }

    /// Force-emits every still-open connection (coldest first) and returns
    /// all pending records. The assembler stays usable afterwards.
    #[must_use]
    pub fn flush(&mut self) -> Vec<FlowRecord> {
        while let Some(coldest) = self.ring.coldest() {
            self.emit(coldest, Emit::Flush);
        }
        self.drain()
    }

    /// Evicts from the cold end while the last-touch gap exceeds the idle
    /// timeout. The ring is ordered by `touched`, so stopping at the first
    /// warm entry is exact.
    fn sweep_idle(&mut self) {
        while let Some(coldest) = self.ring.coldest() {
            let touched = self.ring.get(coldest).touched;
            if self.clock.saturating_since(touched) > self.config.idle_timeout {
                self.emit(coldest, Emit::Idle);
            } else {
                break;
            }
        }
    }

    /// Emits the open flow in `slot` and drops its table entry.
    fn emit(&mut self, slot: usize, why: Emit) {
        let flow = self.ring.remove(slot);
        self.index.remove(&flow.tuple.canonical());
        self.record(flow, why);
    }

    /// Queues a finished flow for [`drain`](Self::drain) and counts it.
    fn record(&mut self, flow: PendingFlow, why: Emit) {
        self.done.push(flow.into_record());
        match why {
            Emit::Fin => self.stats.completed_fin += 1,
            Emit::Idle => self.stats.evicted_idle += 1,
            Emit::Capacity => self.stats.evicted_capacity += 1,
            Emit::Flush => self.stats.flushed += 1,
        }
    }
}

impl Default for StreamAssembler {
    fn default() -> Self {
        StreamAssembler::new()
    }
}

impl Extend<PacketRecord> for StreamAssembler {
    fn extend<I: IntoIterator<Item = PacketRecord>>(&mut self, iter: I) {
        for p in iter {
            self.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembler::FlowAssembler;
    use crate::packet::NodeId;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn sort_key(f: &FlowRecord) -> (SimTime, u32, u16, u32, u16, SimTime, u64, u64) {
        (
            f.start,
            f.tuple.src.0,
            f.tuple.src_port,
            f.tuple.dst.0,
            f.tuple.dst_port,
            f.end,
            f.fwd_bytes,
            f.rev_bytes,
        )
    }

    /// Tiny deterministic generator (splitmix64) so these tests need no
    /// external RNG dependency.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn single_flow_bidirectional() {
        let mut asm = StreamAssembler::new();
        asm.push(PacketRecord::syn(t(0), NodeId(0), 100, NodeId(1), 200, 10));
        asm.push(PacketRecord::data(
            t(1),
            NodeId(1),
            200,
            NodeId(0),
            100,
            500,
        ));
        asm.push(PacketRecord::fin(t(3), NodeId(0), 100, NodeId(1), 200, 20));
        let flows = asm.drain();
        assert_eq!(flows.len(), 1);
        let f = &flows[0];
        assert_eq!(f.tuple.src, NodeId(0));
        assert_eq!(f.fwd_bytes, 30);
        assert_eq!(f.rev_bytes, 500);
        assert_eq!(f.packets, 3);
        assert_eq!((f.start, f.end), (t(0), t(3)));
        assert_eq!(asm.stats().completed_fin, 1);
        assert_eq!(asm.open(), 0);
    }

    #[test]
    fn idle_sweep_evicts_without_same_tuple_traffic() {
        let cfg = StreamConfig {
            idle_timeout: Duration::from_secs(1),
            max_active: 16,
        };
        let mut asm = StreamAssembler::with_config(cfg);
        asm.push(PacketRecord::data(t(0), NodeId(0), 100, NodeId(1), 200, 10));
        asm.push(PacketRecord::data(
            t(500),
            NodeId(0),
            100,
            NodeId(1),
            200,
            10,
        ));
        // A packet on a *different* tuple advances the clock past the
        // timeout: the batch assembler would keep the idle flow open until
        // finish(); the stream assembler emits the identical record now.
        asm.push(PacketRecord::data(
            t(2_000),
            NodeId(2),
            300,
            NodeId(3),
            400,
            7,
        ));
        let flows = asm.drain();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].fwd_bytes, 20);
        assert_eq!((flows[0].start, flows[0].end), (t(0), t(500)));
        assert_eq!(asm.stats().evicted_idle, 1);
        assert_eq!(asm.open(), 1);
    }

    #[test]
    fn idle_timeout_splits_same_tuple() {
        let cfg = StreamConfig {
            idle_timeout: Duration::from_secs(1),
            max_active: 16,
        };
        let mut asm = StreamAssembler::with_config(cfg);
        asm.push(PacketRecord::data(t(0), NodeId(0), 100, NodeId(1), 200, 10));
        // 2.5 s gap > 1 s timeout: the idle sweep fires first (same clock
        // advance), so this must still produce exactly two flows.
        asm.push(PacketRecord::data(
            t(2_500),
            NodeId(0),
            100,
            NodeId(1),
            200,
            10,
        ));
        let mut flows = asm.flush();
        flows.sort_by_key(sort_key);
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].packets, 1);
        assert_eq!(flows[1].packets, 1);
        assert_eq!(flows[0].fwd_bytes + flows[1].fwd_bytes, 20);
    }

    #[test]
    fn straddling_flow_emitted_once_with_exact_bytes() {
        // Packets on one tuple straddle the eviction instant: the flow is
        // split into two records whose byte totals sum exactly — nothing
        // double-counted, nothing lost.
        let cfg = StreamConfig {
            idle_timeout: Duration::from_secs(1),
            max_active: 4,
        };
        let mut asm = StreamAssembler::with_config(cfg);
        for (ms, bytes) in [(0u64, 100u64), (400, 200), (900, 300)] {
            asm.push(PacketRecord::data(
                t(ms),
                NodeId(0),
                100,
                NodeId(1),
                200,
                bytes,
            ));
        }
        // Clock jumps far past the timeout, evicting the first segment...
        asm.push(PacketRecord::data(
            t(10_000),
            NodeId(0),
            100,
            NodeId(1),
            200,
            1_000,
        ));
        // ...and the tuple continues as a fresh flow.
        asm.push(PacketRecord::fin(
            t(10_050),
            NodeId(0),
            100,
            NodeId(1),
            200,
            2_000,
        ));
        let flows = asm.drain();
        assert_eq!(flows.len(), 2);
        let total: u64 = flows.iter().map(|f| f.fwd_bytes + f.rev_bytes).sum();
        assert_eq!(total, 3_600);
        assert_eq!(flows[0].fwd_bytes, 600);
        assert_eq!(flows[1].fwd_bytes, 3_000);
        assert_eq!(asm.stats().evicted_idle, 1);
        assert_eq!(asm.stats().completed_fin, 1);
        assert_eq!(asm.open(), 0);
    }

    #[test]
    fn capacity_eviction_is_lru_and_conserves_bytes() {
        let cfg = StreamConfig {
            idle_timeout: Duration::from_secs(3_600),
            max_active: 2,
        };
        let mut asm = StreamAssembler::with_config(cfg);
        asm.push(PacketRecord::data(t(0), NodeId(0), 1, NodeId(9), 2, 11));
        asm.push(PacketRecord::data(t(1), NodeId(1), 1, NodeId(9), 2, 22));
        // Touch the first flow so the second becomes the LRU victim.
        asm.push(PacketRecord::data(t(2), NodeId(0), 1, NodeId(9), 2, 11));
        asm.push(PacketRecord::data(t(3), NodeId(2), 1, NodeId(9), 2, 33));
        assert_eq!(asm.open(), 2);
        assert_eq!(asm.stats().evicted_capacity, 1);
        let evicted = asm.drain();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].tuple.src, NodeId(1));
        assert_eq!(evicted[0].fwd_bytes, 22);
        let mut rest = asm.flush();
        rest.sort_by_key(sort_key);
        let total: u64 = rest.iter().chain(evicted.iter()).map(|f| f.fwd_bytes).sum();
        assert_eq!(total, 11 + 22 + 11 + 33);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let cfg = StreamConfig {
            idle_timeout: Duration::from_secs(60),
            max_active: 0,
        };
        let mut asm = StreamAssembler::with_config(cfg);
        assert_eq!(asm.config().max_active, 1);
        asm.push(PacketRecord::data(t(0), NodeId(0), 1, NodeId(1), 2, 5));
        asm.push(PacketRecord::data(t(1), NodeId(2), 1, NodeId(3), 2, 6));
        assert_eq!(asm.open(), 1);
        assert_eq!(asm.stats().evicted_capacity, 1);
    }

    #[test]
    fn out_of_order_packets_conserve_bytes_and_span() {
        let mut asm = StreamAssembler::new();
        asm.push(PacketRecord::data(t(10), NodeId(0), 1, NodeId(1), 2, 100));
        asm.push(PacketRecord::data(t(4), NodeId(0), 1, NodeId(1), 2, 50));
        asm.push(PacketRecord::data(t(7), NodeId(1), 2, NodeId(0), 1, 25));
        let flows = asm.flush();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].fwd_bytes, 150);
        assert_eq!(flows[0].rev_bytes, 25);
        assert_eq!((flows[0].start, flows[0].end), (t(4), t(10)));
    }

    #[test]
    fn matches_batch_assembler_on_in_order_stream() {
        // Pseudo-random in-order stream over a small tuple space with
        // idle gaps and FINs: the streaming assembler must emit exactly
        // the records the batch assembler produces.
        let mut mix = Mix(42);
        let mut packets = Vec::new();
        let mut now = 0u64;
        for _ in 0..4_000 {
            now += mix.next() % 400; // 0–0.4 s steps; some gaps beat 1 s cumulatively
            let a = (mix.next() % 4) as u32;
            let b = 4 + (mix.next() % 4) as u32;
            let port = 1_000 + (mix.next() % 8) as u16;
            let bytes = 1 + mix.next() % 10_000;
            let fin = mix.next().is_multiple_of(23);
            let (src, dst) = if mix.next().is_multiple_of(2) {
                (NodeId(a), NodeId(b))
            } else {
                (NodeId(b), NodeId(a))
            };
            let p = if fin {
                PacketRecord::fin(t(now), src, port, dst, 7_000, bytes)
            } else {
                PacketRecord::data(t(now), src, port, dst, 7_000, bytes)
            };
            packets.push(p);
        }

        let idle = Duration::from_secs(1);
        let mut batch = FlowAssembler::with_idle_timeout(idle);
        let mut stream = StreamAssembler::with_config(StreamConfig {
            idle_timeout: idle,
            max_active: 1_024,
        });
        for p in &packets {
            batch.push(*p);
            stream.push(*p);
        }
        let mut expect = batch.finish();
        let mut got = stream.flush();
        expect.sort_by_key(sort_key);
        got.sort_by_key(sort_key);
        assert_eq!(expect.len(), got.len());
        assert_eq!(expect, got);
        assert!(got.len() > 50, "stream too degenerate to be meaningful");
    }

    #[test]
    fn stats_counters_add_up() {
        let cfg = StreamConfig {
            idle_timeout: Duration::from_secs(1),
            max_active: 2,
        };
        let mut asm = StreamAssembler::with_config(cfg);
        asm.push(PacketRecord::fin(t(0), NodeId(0), 1, NodeId(1), 2, 1));
        asm.push(PacketRecord::data(t(1), NodeId(2), 1, NodeId(3), 2, 1));
        asm.push(PacketRecord::data(t(2), NodeId(4), 1, NodeId(5), 2, 1));
        asm.push(PacketRecord::data(t(3), NodeId(6), 1, NodeId(7), 2, 1)); // capacity evicts
        asm.push(PacketRecord::data(t(5_000), NodeId(8), 1, NodeId(9), 2, 1)); // idles out the rest
        let _ = asm.flush();
        let s = asm.stats();
        assert_eq!(s.packets, 5);
        assert_eq!(s.completed_fin, 1);
        assert_eq!(s.evicted_capacity, 1);
        assert_eq!(s.evicted_idle, 2);
        assert_eq!(s.flushed, 1);
        assert_eq!(s.emitted(), 5);
        assert_eq!(s.evicted(), 3);
    }
}
