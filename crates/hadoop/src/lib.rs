//! Discrete-event Hadoop cluster simulator — Keddah's testbed substitute.
//!
//! The Keddah paper captured traffic from MapReduce jobs running on a
//! physical Hadoop cluster. This crate reproduces that *traffic source*
//! in simulation: HDFS block placement and replication pipelines, YARN
//! slot scheduling with data locality, a DAG-of-stages data flow (each
//! stage a map wave with optional shuffle into reducers) with
//! slow-start, straggler noise, iterative and multi-stage jobs, and
//! the control plane (heartbeats, NameNode RPCs, AM umbilicals). Every
//! network transfer is logged as one connection, and the log becomes the
//! labelled flow traces (`keddah-flowcap`) that the modelling pipeline
//! consumes. The packets a tcpdump would have seen are rendered from the
//! log only on request, and assemble into exactly the same flows.
//!
//! See `DESIGN.md` ("Substitutions") for why this preserves the
//! behaviours the Keddah models capture.
//!
//! # Examples
//!
//! ```
//! use keddah_hadoop::driver::run_job;
//! use keddah_hadoop::{ClusterSpec, HadoopConfig, JobSpec, Workload};
//! use keddah_flowcap::Component;
//!
//! let run = run_job(
//!     &ClusterSpec::racks(2, 4),
//!     &HadoopConfig::default().with_reducers(8),
//!     &JobSpec::new(Workload::TeraSort, 1 << 30),
//!     7,
//! );
//! let shuffle_flows = run.trace.component_flows(Component::Shuffle).count();
//! assert!(shuffle_flows > 0);
//! ```

// Run state lives in structs, not argument lists: a helper that needs
// more than clippy's seven arguments, or a local `allow`, is an error.
#![forbid(clippy::too_many_arguments)]

mod cluster;
mod config;
pub mod dag;
pub mod driver;
pub mod hdfs;
pub mod net;
mod ports_alloc;
mod sim;
mod workload;

pub use cluster::ClusterSpec;
pub use config::HadoopConfig;
pub use dag::{DagEdge, EdgeSource, JobDag, StageSpec, TransferKind};
pub use driver::{run_dag, run_job, run_job_with_packets, run_session, JobRun, SessionRun};
pub use net::ConnectionLog;
pub use sim::{JobCounters, StageStats};
pub use workload::{JobSpec, Workload};

use std::fmt;

/// Errors produced when configuring the simulated cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HadoopError {
    /// A configuration field was out of range; the message names it.
    InvalidConfig(&'static str),
    /// The replication factor exceeds the cluster's worker count, so
    /// HDFS cannot place that many distinct replicas of a block.
    ReplicationExceedsWorkers {
        /// The configured replication factor.
        replication: u16,
        /// Workers in the cluster.
        workers: u32,
    },
}

impl fmt::Display for HadoopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HadoopError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            HadoopError::ReplicationExceedsWorkers {
                replication,
                workers,
            } => write!(
                f,
                "invalid configuration: replication {replication} exceeds worker count {workers}"
            ),
        }
    }
}

impl std::error::Error for HadoopError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, HadoopError>;
