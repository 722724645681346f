//! Capture substrate for the Keddah toolchain.
//!
//! The original Keddah captured traffic with `tcpdump` on every node of a
//! Hadoop testbed, reassembled packets into flows, and labelled each flow
//! with the Hadoop subsystem that produced it. This crate is that
//! pipeline's software equivalent, fed by the simulated cluster in
//! `keddah-hadoop` instead of a NIC:
//!
//! * [`PacketRecord`] / [`FlowRecord`] — the capture artefacts;
//! * [`FlowAssembler`] — 5-tuple flow reassembly with FIN/idle-timeout
//!   termination, mirroring what a tcpdump post-processor does;
//! * [`StreamAssembler`] — its bounded-memory streaming counterpart
//!   (fixed-capacity connection table, eager timeout-driven LRU
//!   eviction) for long-running ingestion daemons;
//! * [`classify`] — port/role-based classification into the traffic
//!   [`Component`]s the paper models (HDFS read, HDFS write, shuffle,
//!   control);
//! * [`Trace`] — a labelled flow trace with JSONL persistence, filtering,
//!   and the per-component samples the modelling step consumes;
//! * [`sort_by_time`] — the one packet order: captures and parsed packet
//!   text alike are put in stable time order before assembly.
//!
//! # Examples
//!
//! Assemble two packets into a flow and classify it:
//!
//! ```
//! use keddah_des::SimTime;
//! use keddah_flowcap::{classify, FlowAssembler, NodeId, PacketRecord, ports};
//!
//! let mut asm = FlowAssembler::new();
//! let a = NodeId(1);
//! let b = NodeId(2);
//! asm.push(PacketRecord::syn(SimTime::ZERO, a, 40_000, b, ports::DATANODE_XFER, 1_000));
//! asm.push(PacketRecord::fin(SimTime::from_millis(5), a, 40_000, b, ports::DATANODE_XFER, 64_000));
//! let flows = asm.finish();
//! assert_eq!(flows.len(), 1);
//! assert_eq!(classify::classify(&flows[0]), keddah_flowcap::Component::HdfsWrite);
//! ```

mod assembler;
pub mod classify;
mod flow;
mod matrix;
mod packet;
pub mod ports;
mod stats;
pub mod stream;
pub mod tcpdump;
mod trace;

pub use assembler::FlowAssembler;
pub use classify::Component;
pub use flow::{FiveTuple, FlowRecord};
pub use matrix::TrafficMatrix;
pub use packet::{sort_by_time, NodeId, PacketRecord};
pub use stats::{Timeline, TimelineBin};
pub use stream::{StreamAssembler, StreamConfig, StreamStats};
pub use trace::{Trace, TraceError, TraceMeta};
