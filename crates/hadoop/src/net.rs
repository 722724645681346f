//! The testbed's transfer-time model and capture tap.
//!
//! Every network transfer the simulated cluster performs goes through
//! [`NetModel::transfer`] (or [`NetModel::exchange`] for a small
//! request/response), which plays two roles:
//!
//! 1. **Timing** — computes when the transfer finishes under a simple
//!    NIC-sharing contention model: a flow's rate is the line rate divided
//!    by the number of flows concurrently active at its busier endpoint,
//!    fixed at flow start. This is the coarse-grained stand-in for TCP
//!    sharing that shapes task timings (and hence flow start-time
//!    distributions) without simulating packets.
//! 2. **Capture** — logs one compact entry per connection: endpoints,
//!    ports, start, finish, and either the bulk bytes and their direction
//!    or an exchange's request and response sizes. The
//!    [`ConnectionLog`] is what the paper's per-node tcpdump saw, kept at
//!    connection granularity.
//!
//! The driver builds the capture's flow records straight from the log.
//! [`ConnectionLog::packets`] renders the packet trail (SYN, chunked
//! data, FIN) only for callers that ask for it, such as tcpdump export.
//! Data packets are aggregates of up to [`CHUNK_BYTES`]; the flow
//! assembler only needs timestamps, directions and byte counts, so
//! MTU-level framing is not modelled.
//!
//! The flows are exactly what [`FlowAssembler`] makes of the rendered
//! packets. Each connection is one flow, unless the assembler would split
//! it or merge it with another:
//!
//! * **split** — a gap between two of its packets exceeds the assembler's
//!   idle timeout;
//! * **merge** — two connections share a canonical tuple. Ephemeral ports
//!   are unique per node until a counter wraps, so this needs a port that
//!   wrapped, or that reached a port some server listens on (the first in
//!   the ephemeral range is `NM_CONTAINER`, 45454).
//!
//! A log where either can happen is assembled from its rendered packets
//! instead, so traces never depend on which path built them.

use keddah_des::{Duration, EventQueue, SimTime};
use keddah_flowcap::{
    ports, sort_by_time, FiveTuple, FlowAssembler, FlowRecord, NodeId, PacketRecord,
};

use crate::ports_alloc::PortAllocator;

/// Maximum payload bytes represented by one captured data packet record.
pub const CHUNK_BYTES: u64 = 4 << 20;

/// Maximum data packet records emitted per flow (long flows are chunked
/// coarser rather than flooding the capture).
pub const MAX_CHUNKS: u64 = 16;

/// Connection setup latency charged to every transfer.
pub const SETUP_LATENCY: Duration = Duration::from_millis(1);

/// Request bytes a transfer's SYN carries.
const SYN_BYTES: u64 = 128;

/// Which way the bulk payload moves relative to the connection
/// originator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// Originator pushes data to the service (HDFS write, pipeline hop).
    ToServer,
    /// Service streams data back to the originator (HDFS read, shuffle
    /// fetch).
    ToClient,
}

/// What a connection carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Carried {
    /// Bulk bytes moving the [`Payload`] way, after a SYN carrying a
    /// [`SYN_BYTES`] request.
    Transfer(u64, Payload),
    /// A request riding the SYN, and one response packet at the finish.
    Exchange { request: u64, response: u64 },
}

/// One logged connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Connection {
    start: SimTime,
    finish: SimTime,
    client: NodeId,
    server: NodeId,
    client_port: u16,
    server_port: u16,
    carried: Carried,
}

/// Data packets a transfer of `bytes > 0` is chunked into.
fn chunks(bytes: u64) -> u64 {
    bytes.div_ceil(CHUNK_BYTES).clamp(1, MAX_CHUNKS)
}

impl Connection {
    /// Packets [`Connection::render`] emits, counted without emitting them.
    fn packet_count(&self) -> u64 {
        match self.carried {
            Carried::Transfer(0, _) => 2,
            Carried::Transfer(bytes, _) => 2 + chunks(bytes),
            Carried::Exchange { .. } => 3,
        }
    }

    /// Appends the connection's packets in emission order: the SYN, the
    /// data, then the FIN. This is the only place packets are built.
    fn render(&self, out: &mut Vec<PacketRecord>) {
        let (client, cport) = (self.client, self.client_port);
        let (server, sport) = (self.server, self.server_port);
        let packet = |ts, to_server: bool, bytes| {
            if to_server {
                PacketRecord::data(ts, client, cport, server, sport, bytes)
            } else {
                PacketRecord::data(ts, server, sport, client, cport, bytes)
            }
        };
        let request = match self.carried {
            Carried::Transfer(..) => SYN_BYTES,
            Carried::Exchange { request, .. } => request,
        };
        out.push(PacketRecord {
            syn: true,
            ..packet(self.start, true, request)
        });
        match self.carried {
            Carried::Transfer(0, _) => {}
            Carried::Transfer(bytes, payload) => {
                let chunks = chunks(bytes);
                let span = self.finish.saturating_since(self.start);
                for i in 0..chunks {
                    // Chunk i completes at the proportional point of the
                    // transfer window; the first `bytes % chunks` chunks
                    // carry one byte more.
                    let ts = self.start + span.mul_f64((i + 1) as f64 / chunks as f64);
                    let chunk_bytes = bytes / chunks + u64::from(i < bytes % chunks);
                    out.push(packet(ts, payload == Payload::ToServer, chunk_bytes));
                }
            }
            Carried::Exchange { response, .. } => out.push(packet(self.finish, false, response)),
        }
        out.push(PacketRecord {
            fin: true,
            ..packet(self.finish, true, 0)
        });
    }

    /// The flow [`FlowAssembler`] makes of this connection's packets when
    /// no other connection shares its tuple and no gap splits it: the
    /// SYN orients it, and the FIN, the last packet, ends it.
    fn flow(&self) -> FlowRecord {
        let (fwd_bytes, rev_bytes) = match self.carried {
            Carried::Transfer(bytes, Payload::ToServer) => (SYN_BYTES + bytes, 0),
            Carried::Transfer(bytes, Payload::ToClient) => (SYN_BYTES, bytes),
            Carried::Exchange { request, response } => (request, response),
        };
        FlowRecord {
            tuple: FiveTuple {
                src: self.client,
                src_port: self.client_port,
                dst: self.server,
                dst_port: self.server_port,
            },
            start: self.start,
            end: self.finish,
            fwd_bytes,
            rev_bytes,
            packets: self.packet_count(),
            component: None,
        }
    }

    /// Whether a gap between two consecutive packets of the connection
    /// exceeds `idle`, so that the assembler would split it.
    fn splits(&self, idle: Duration) -> bool {
        if self.finish.saturating_since(self.start) <= idle {
            return false;
        }
        let mut packets = Vec::new();
        self.render(&mut packets);
        packets
            .windows(2)
            .any(|w| w[1].ts.saturating_since(w[0].ts) > idle)
    }
}

/// A capture's connections, in the order the simulator opened them.
///
/// Holds one entry per connection rather than its packets; the packets
/// are rendered from it on demand, in the order a packet tap would have
/// recorded them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConnectionLog {
    connections: Vec<Connection>,
}

impl ConnectionLog {
    /// Number of connections logged.
    pub(crate) fn len(&self) -> usize {
        self.connections.len()
    }

    /// Number of packets [`ConnectionLog::packets`] renders, counted
    /// without rendering them.
    #[must_use]
    pub fn packet_count(&self) -> usize {
        self.connections
            .iter()
            .map(|c| c.packet_count() as usize)
            .sum()
    }

    /// Renders the packet capture: every connection's packets, sorted by
    /// timestamp with [`sort_by_time`]. The sort is stable, so
    /// same-instant packets keep the order the connections were opened in.
    #[must_use]
    pub fn packets(&self) -> Vec<PacketRecord> {
        let mut packets = Vec::with_capacity(self.packet_count());
        for c in &self.connections {
            c.render(&mut packets);
        }
        sort_by_time(&mut packets);
        packets
    }

    /// The capture's flows, unlabelled and sorted by
    /// [`FlowRecord::capture_order`]: exactly what [`FlowAssembler::new`]
    /// makes of [`ConnectionLog::packets`].
    ///
    /// Each connection maps to its flow directly unless the assembler
    /// would split or merge one (see the module docs); then the rendered
    /// packets go through the assembler instead.
    pub(crate) fn flows(&self) -> Vec<FlowRecord> {
        let mut assembler = FlowAssembler::new();
        if let Some(flows) = self.direct_flows(assembler.idle_timeout()) {
            return flows;
        }
        assembler.extend(self.packets());
        assembler.finish()
    }

    /// Each connection's own flow, in capture order, or `None` when the
    /// assembler, with idle timeout `idle`, would split or merge one.
    fn direct_flows(&self, idle: Duration) -> Option<Vec<FlowRecord>> {
        // A tuple can repeat only once some client port reaches a port a
        // server listens on, or wraps. Client ports start at the base of
        // the ephemeral range, so only listeners in that range count, and
        // a counter at `u16::MAX` wraps next, so that counts too.
        let mut highest_client_port = 0;
        let mut lowest_listener = u16::MAX;
        let mut flows = Vec::with_capacity(self.connections.len());
        for c in &self.connections {
            if c.splits(idle) {
                return None;
            }
            highest_client_port = highest_client_port.max(c.client_port);
            if c.server_port >= ports::EPHEMERAL_BASE {
                lowest_listener = lowest_listener.min(c.server_port);
            }
            flows.push(c.flow());
        }
        if highest_client_port >= lowest_listener {
            return None;
        }
        // Tuples are unique here, so no two keys tie.
        flows.sort_unstable_by_key(FlowRecord::capture_order);
        Some(flows)
    }
}

/// The cluster network: transfer timing plus capture tap.
///
/// Per-node state is kept in tables indexed by node id, so a node's
/// entry costs memory up to the highest id the model has seen.
#[derive(Debug)]
pub struct NetModel {
    nic_bps: f64,
    /// Transfers each node takes part in, indexed by node id.
    active: Vec<u32>,
    /// Pending contention releases, on the shared DES queue: each entry
    /// fires when a transfer's endpoints stop counting as active.
    releases: EventQueue<(NodeId, NodeId)>,
    log: ConnectionLog,
    ports: PortAllocator,
}

impl NetModel {
    /// Creates a network model where every node has a `nic_bps` bit/s NIC.
    ///
    /// # Panics
    ///
    /// Panics if `nic_bps` is not positive.
    #[must_use]
    pub fn new(nic_bps: f64) -> Self {
        assert!(nic_bps > 0.0, "NIC rate must be positive");
        NetModel {
            nic_bps,
            active: Vec::new(),
            releases: EventQueue::new(),
            log: ConnectionLog::default(),
            ports: PortAllocator::new(),
        }
    }

    /// Retires transfers that finished at or before `now` from the
    /// contention counters.
    fn expire(&mut self, now: SimTime) {
        while self.releases.peek_time().is_some_and(|t| t <= now) {
            let (a, b) = self.releases.pop().expect("peeked release").event;
            for node in [a, b] {
                if let Some(c) = self.active.get_mut(node.0 as usize) {
                    *c = c.saturating_sub(1);
                }
            }
        }
    }

    /// Logs a connection from `client`, on its next ephemeral port.
    fn open(
        &mut self,
        start: SimTime,
        finish: SimTime,
        client: NodeId,
        server: NodeId,
        server_port: u16,
        carried: Carried,
    ) {
        let client_port = self.ports.next(client);
        self.log.connections.push(Connection {
            start,
            finish,
            client,
            server,
            client_port,
            server_port,
            carried,
        });
    }

    /// Runs one transfer of `bytes` between `client` and the service at
    /// `server:server_port`, starting at `now`. Returns the completion
    /// time and logs the connection in the capture tap.
    ///
    /// Zero-byte transfers still cost the setup latency and render as a
    /// SYN/FIN pair (RPC null calls look like this on the wire).
    pub fn transfer(
        &mut self,
        now: SimTime,
        client: NodeId,
        server: NodeId,
        server_port: u16,
        bytes: u64,
        payload: Payload,
    ) -> SimTime {
        self.expire(now);
        let (c, s) = (client.0 as usize, server.0 as usize);
        if self.active.len() <= c.max(s) {
            self.active.resize(c.max(s) + 1, 0);
        }
        let share_src = (self.active[c] + 1) as f64;
        let share_dst = (self.active[s] + 1) as f64;
        let byte_rate = (self.nic_bps / 8.0) / share_src.max(share_dst);
        let xfer = Duration::from_secs_f64(bytes as f64 / byte_rate);
        let finish = now + SETUP_LATENCY + xfer;

        self.active[c] += 1;
        self.active[s] += 1;
        self.releases.push(finish, (client, server));

        let carried = Carried::Transfer(bytes, payload);
        self.open(now, finish, client, server, server_port, carried);
        finish
    }

    /// Logs a small request/response exchange (RPC call, heartbeat) and
    /// returns its completion time. Both directions carry bytes; the flow
    /// classifies as control via the service port.
    pub fn exchange(
        &mut self,
        now: SimTime,
        client: NodeId,
        server: NodeId,
        server_port: u16,
        request_bytes: u64,
        response_bytes: u64,
    ) -> SimTime {
        self.expire(now);
        let finish = now + SETUP_LATENCY;
        let carried = Carried::Exchange {
            request: request_bytes,
            response: response_bytes,
        };
        self.open(now, finish, client, server, server_port, carried);
        finish
    }

    /// Number of connections logged so far.
    #[must_use]
    pub fn captured(&self) -> usize {
        self.log.len()
    }

    /// Drains the capture tap, returning its connection log.
    #[must_use]
    pub fn take_log(&mut self) -> ConnectionLog {
        std::mem::take(&mut self.log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keddah_flowcap::{classify, Component};

    #[test]
    fn uncontended_transfer_time() {
        let mut net = NetModel::new(1e9); // 1 Gb/s = 125 MB/s
        let finish = net.transfer(
            SimTime::ZERO,
            NodeId(1),
            NodeId(2),
            ports::DATANODE_XFER,
            125_000_000,
            Payload::ToServer,
        );
        // 1 second of transfer + 1 ms setup.
        assert!((finish.as_secs_f64() - 1.001).abs() < 1e-9, "{finish}");
    }

    #[test]
    fn contention_halves_rate() {
        let mut net = NetModel::new(1e9);
        let _first = net.transfer(
            SimTime::ZERO,
            NodeId(1),
            NodeId(2),
            ports::DATANODE_XFER,
            125_000_000,
            Payload::ToServer,
        );
        // Second flow into the same destination while the first is active:
        // sees 2 active flows at node 2.
        let second = net.transfer(
            SimTime::ZERO,
            NodeId(3),
            NodeId(2),
            ports::DATANODE_XFER,
            125_000_000,
            Payload::ToServer,
        );
        assert!((second.as_secs_f64() - 2.001).abs() < 1e-9, "{second}");
    }

    #[test]
    fn contention_expires() {
        let mut net = NetModel::new(1e9);
        net.transfer(
            SimTime::ZERO,
            NodeId(1),
            NodeId(2),
            ports::DATANODE_XFER,
            125_000_000,
            Payload::ToServer,
        );
        // Starting after the first finished: full rate again.
        let later = net.transfer(
            SimTime::from_secs(5),
            NodeId(3),
            NodeId(2),
            ports::DATANODE_XFER,
            125_000_000,
            Payload::ToServer,
        );
        assert!((later.as_secs_f64() - 6.001).abs() < 1e-9);
    }

    #[test]
    fn packets_assemble_into_classified_flows() {
        let mut net = NetModel::new(1e9);
        // A read: data flows back to the client.
        net.transfer(
            SimTime::ZERO,
            NodeId(1),
            NodeId(2),
            ports::DATANODE_XFER,
            64 << 20,
            Payload::ToClient,
        );
        // A write.
        net.transfer(
            SimTime::from_secs(10),
            NodeId(3),
            NodeId(2),
            ports::DATANODE_XFER,
            64 << 20,
            Payload::ToServer,
        );
        // A shuffle fetch.
        net.transfer(
            SimTime::from_secs(20),
            NodeId(4),
            NodeId(1),
            ports::SHUFFLE,
            1 << 20,
            Payload::ToClient,
        );
        // A heartbeat.
        net.exchange(
            SimTime::from_secs(21),
            NodeId(4),
            NodeId(0),
            ports::RM_TRACKER,
            700,
            300,
        );
        let log = net.take_log();
        let mut flows = log.flows();
        assert_eq!(flows, assembled(&log));
        classify::classify_all(&mut flows);
        // Unknown-component flows fold into `Other` rather than panicking:
        // new stage kinds may emit traffic the classifier hasn't met yet.
        let kinds: Vec<Component> = flows
            .iter()
            .map(|f| f.component.unwrap_or(Component::Other))
            .collect();
        assert_eq!(
            kinds,
            vec![
                Component::HdfsRead,
                Component::HdfsWrite,
                Component::Shuffle,
                Component::Control
            ]
        );
        // Byte conservation: read flow carries the block + SYN request.
        assert_eq!(flows[0].rev_bytes, 64 << 20);
        assert_eq!(flows[1].fwd_bytes, (64 << 20) + 128);
        let hb = &flows[3];
        assert_eq!(hb.fwd_bytes, 700 + 128 - 128); // request (SYN carries it)
        assert_eq!(hb.rev_bytes, 300);
    }

    #[test]
    fn zero_byte_transfer_still_captured() {
        let mut net = NetModel::new(1e9);
        net.transfer(
            SimTime::ZERO,
            NodeId(1),
            NodeId(0),
            ports::NAMENODE_RPC,
            0,
            Payload::ToServer,
        );
        let packets = net.take_log().packets();
        assert_eq!(packets.len(), 2); // SYN + FIN
        assert!(packets[0].syn && packets[1].fin);
    }

    #[test]
    fn rendered_packets_sorted() {
        let mut net = NetModel::new(1e9);
        net.transfer(
            SimTime::from_secs(5),
            NodeId(1),
            NodeId(2),
            50010,
            1000,
            Payload::ToServer,
        );
        net.transfer(
            SimTime::ZERO,
            NodeId(3),
            NodeId(4),
            50010,
            1000,
            Payload::ToServer,
        );
        let log = net.take_log();
        let packets = log.packets();
        assert_eq!(packets.len(), log.packet_count());
        for w in packets.windows(2) {
            assert!(w[0].ts <= w[1].ts);
        }
        assert_eq!(net.captured(), 0, "tap drained");
    }

    /// What the assembler makes of the log's rendered packets: the
    /// oracle every path to a capture's flows must match.
    fn assembled(log: &ConnectionLog) -> Vec<FlowRecord> {
        let mut asm = FlowAssembler::new();
        asm.extend(log.packets());
        asm.finish()
    }

    /// One flow per connection, as the direct path would build them.
    fn one_per_connection(log: &ConnectionLog) -> Vec<FlowRecord> {
        let mut flows: Vec<FlowRecord> = log.connections.iter().map(Connection::flow).collect();
        flows.sort_by_key(FlowRecord::capture_order);
        flows
    }

    fn idle() -> Duration {
        FlowAssembler::new().idle_timeout()
    }

    #[test]
    fn direct_flows_match_the_assembler() {
        let mut net = NetModel::new(1e9);
        let t = SimTime::from_secs;
        // Reads, writes, a zero-byte call, a chunked transfer sharing
        // its start with an exchange, and a self-connection.
        net.transfer(
            t(0),
            NodeId(1),
            NodeId(2),
            ports::DATANODE_XFER,
            200 << 20,
            Payload::ToClient,
        );
        net.transfer(
            t(0),
            NodeId(3),
            NodeId(2),
            ports::DATANODE_XFER,
            5,
            Payload::ToServer,
        );
        net.transfer(
            t(1),
            NodeId(1),
            NodeId(0),
            ports::NAMENODE_RPC,
            0,
            Payload::ToServer,
        );
        net.exchange(t(1), NodeId(4), NodeId(0), ports::RM_TRACKER, 700, 300);
        net.transfer(
            t(1),
            NodeId(4),
            NodeId(1),
            ports::SHUFFLE,
            3 << 20,
            Payload::ToClient,
        );
        net.exchange(t(2), NodeId(0), NodeId(0), ports::RM_CLIENT, 2_000, 500);
        let log = net.take_log();
        let direct = log.direct_flows(idle()).expect("no split or merge");
        assert_eq!(direct.len(), log.len());
        assert_eq!(direct, assembled(&log));
        assert_eq!(log.flows(), direct);
        assert_eq!(log.packets().len(), log.packet_count());
    }

    #[test]
    fn paper_captures_take_the_direct_path() {
        use crate::{run_dag, ClusterSpec, HadoopConfig, Workload};
        for &workload in Workload::PAPER {
            let (run, log) = run_dag(
                &ClusterSpec::racks(4, 5),
                &HadoopConfig::default(),
                &workload.dag(),
                4 << 30,
                3,
                &keddah_faults::FaultSpec::empty(),
            );
            let direct = log.direct_flows(idle());
            assert!(direct.is_some(), "{} fell back", workload.name());
            assert_eq!(run.trace.len(), log.len(), "{}", workload.name());
        }
    }

    #[test]
    fn chunk_gap_above_the_idle_timeout_falls_back() {
        // At 500 kb/s one 4 MiB chunk takes 67 s, so the data packet
        // lands more than a minute after the SYN.
        let mut net = NetModel::new(5e5);
        net.transfer(
            SimTime::ZERO,
            NodeId(1),
            NodeId(2),
            ports::DATANODE_XFER,
            CHUNK_BYTES,
            Payload::ToServer,
        );
        net.exchange(
            SimTime::ZERO,
            NodeId(3),
            NodeId(0),
            ports::RM_TRACKER,
            10,
            10,
        );
        let log = net.take_log();
        assert!(log.direct_flows(idle()).is_none());
        let flows = log.flows();
        assert_eq!(flows.len(), 3, "the assembler splits the transfer in two");
        assert_eq!(flows, assembled(&log));
    }

    #[test]
    fn port_reaching_a_service_port_falls_back() {
        let mut net = NetModel::new(1e9);
        // Heartbeats drive nodes 1 and 2 up to port NM_CONTAINER...
        for node in [NodeId(1), NodeId(2)] {
            for _ in ports::EPHEMERAL_BASE..ports::NM_CONTAINER {
                net.exchange(SimTime::ZERO, node, NodeId(0), ports::RM_TRACKER, 10, 10);
            }
        }
        // ...so node 1 contacts node 2's container manager from that
        // port while node 2 contacts node 1's from it: one connection's
        // tuple is the other's reversed.
        let at = SimTime::from_secs(1);
        net.transfer(
            at,
            NodeId(1),
            NodeId(2),
            ports::NM_CONTAINER,
            1 << 20,
            Payload::ToServer,
        );
        net.transfer(
            at,
            NodeId(2),
            NodeId(1),
            ports::NM_CONTAINER,
            1 << 20,
            Payload::ToClient,
        );
        let log = net.take_log();
        assert!(log.direct_flows(idle()).is_none());
        let flows = log.flows();
        assert_ne!(flows, one_per_connection(&log), "the assembler merges them");
        assert_eq!(flows, assembled(&log));
    }

    #[test]
    fn wrapped_port_falls_back() {
        let mut net = NetModel::new(1e9);
        // A long write from node 1's first port...
        net.transfer(
            SimTime::ZERO,
            NodeId(1),
            NodeId(2),
            ports::DATANODE_XFER,
            1 << 30,
            Payload::ToServer,
        );
        // ...then heartbeats until node 1's counter wraps back to it...
        for i in ports::EPHEMERAL_BASE..u16::MAX {
            let at = SimTime::from_micros(u64::from(i - ports::EPHEMERAL_BASE));
            net.exchange(at, NodeId(1), NodeId(0), ports::RM_TRACKER, 10, 10);
        }
        // ...and a second write on the same tuple while the first is open.
        net.transfer(
            SimTime::from_secs(1),
            NodeId(1),
            NodeId(2),
            ports::DATANODE_XFER,
            1 << 20,
            Payload::ToServer,
        );
        let log = net.take_log();
        assert!(log.direct_flows(idle()).is_none());
        let flows = log.flows();
        assert_ne!(flows, one_per_connection(&log), "the assembler merges them");
        assert_eq!(flows, assembled(&log));
    }
}
