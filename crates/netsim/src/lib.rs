//! Flow-level network simulator — the ns-3 substitute Keddah replays
//! traffic into.
//!
//! Keddah's final stage feeds generated Hadoop traffic to a network
//! simulator to study it under topologies and conditions the physical
//! testbed cannot provide. This crate is a deterministic flow-level
//! (fluid) simulator in that role:
//!
//! * [`Topology`] — star, leaf–spine (with oversubscription) and k-ary
//!   fat-tree fabrics, with ECMP shortest-path routing;
//! * [`fair`] — max-min fair bandwidth sharing by progressive filling,
//!   the standard fluid abstraction of long-lived TCP;
//! * [`simulate_faulted`] — the event loop (over a
//!   [`keddah_des::EventQueue`]): flows from a [`TrafficSource`] arrive,
//!   share links and complete, under a `keddah-faults` schedule whose
//!   node crashes, link failures/degradations and partitions fire as DES
//!   events that abort or re-route flows ([`FaultStats`] accounts for
//!   every lost byte); completions and per-link byte counts come back in
//!   a [`SimReport`];
//! * [`simulate`] — its open-loop convenience: a fixed flow list, no
//!   faults, no observability;
//! * [`TrafficSource`] — reactive traffic: sources are told when each
//!   flow completes and may inject dependent flows, enabling closed-loop
//!   replay where congestion delays dependent traffic.
//!
//! # Examples
//!
//! ```
//! use keddah_des::SimTime;
//! use keddah_netsim::{simulate, FlowSpec, HostId, SimOptions, Topology};
//!
//! let topo = Topology::leaf_spine(2, 4, 2, 1e9, 1.0);
//! let flows: Vec<FlowSpec> = (0..4)
//!     .map(|i| FlowSpec {
//!         src: HostId(i),
//!         dst: HostId(7 - i),
//!         bytes: 10 << 20,
//!         start: SimTime::ZERO,
//!         tag: i,
//!     })
//!     .collect();
//! let report = simulate(&topo, &flows, SimOptions::default());
//! assert_eq!(report.results.len(), 4);
//! ```

// Run state lives in structs, not argument lists: a helper that needs
// more than clippy's seven arguments, or a local `allow`, is an error.
#![forbid(clippy::too_many_arguments)]

pub mod fair;
mod routing;
mod sim;
pub mod source;
mod tcp;
mod topology;

pub use fair::{max_min_rates, FairFlowId, FairShareState};
pub use routing::RouteCache;
pub use sim::{
    simulate, simulate_faulted, FaultStats, FlowResult, FlowSpec, SimOptions, SimReport,
};
pub use source::{FlowId, StaticSource, TrafficSource};
pub use tcp::simulate_tcp;
pub use topology::{HostId, LinkId, Topology};
