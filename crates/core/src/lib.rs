//! Keddah: capture, model, and reproduce Hadoop network traffic.
//!
//! This crate is the paper's contribution — the toolchain that turns
//! captured Hadoop traffic into empirical models and regenerates
//! statistically equivalent traffic for network-simulator studies:
//!
//! 1. **Capture** ([`pipeline::Keddah::capture`]) — run jobs on the
//!    simulated testbed (`keddah-hadoop`) and collect classified flow
//!    traces;
//! 2. **Model** ([`fitting`]) — pool repeated runs into a [`dataset`],
//!    fit per-component flow-size / arrival / count models with KS-based
//!    family selection, producing a serializable [`model::KeddahModel`];
//! 3. **Generate** ([`generate`]) — sample synthetic jobs from the model;
//! 4. **Replay** ([`replay`]) — drive captured or generated traffic
//!    through the flow-level network simulator (`keddah-netsim`) with one
//!    kernel, [`replay::replay_faulted`], either open loop (pre-computed
//!    start times) or closed loop ([`source`]: dependent flows released
//!    only when their parents complete under the simulated network);
//! 5. **Validate** ([`validate`]) — compare generated traffic to
//!    held-out captures (two-sample KS, volume and count errors).
//!
//! # Examples
//!
//! ```
//! use keddah_core::pipeline::Keddah;
//! use keddah_core::replay::{jobs_to_flows, replay};
//! use keddah_hadoop::{ClusterSpec, HadoopConfig, JobSpec, Workload};
//! use keddah_netsim::{SimOptions, Topology};
//!
//! // Capture and model a TeraSort.
//! let cluster = ClusterSpec::racks(2, 4);
//! let traces = Keddah::capture(
//!     &cluster,
//!     &HadoopConfig::default(),
//!     &JobSpec::new(Workload::TeraSort, 1 << 30),
//!     2,
//!     1,
//! );
//! let model = Keddah::fit(&traces).unwrap();
//!
//! // Generate a synthetic job and replay it on a 4x-oversubscribed
//! // leaf-spine fabric the physical testbed never had.
//! let job = model.generate_job(7);
//! let topo = Topology::leaf_spine(3, 3, 2, 1e9, 4.0);
//! let flows = jobs_to_flows(&[job], &topo).unwrap();
//! let report = replay(&topo, &flows, SimOptions::default());
//! assert!(report.makespan_secs() > 0.0);
//! ```

pub mod dataset;
pub mod family;
pub mod fitting;
pub mod generate;
pub mod mix;
pub mod model;
pub mod pipeline;
pub mod provision;
pub mod replay;
pub mod runner;
pub mod source;
pub mod stream;
pub mod validate;

pub use dataset::Dataset;
pub use family::ModelFamily;
pub use generate::{GenFlow, GeneratedJob};
pub use keddah_faults::{FaultGen, FaultKind, FaultSpec, TimedFault};
pub use mix::{JobMix, MixEntry};
pub use model::KeddahModel;
pub use pipeline::Keddah;
pub use provision::{
    provision, ConfigSpace, MixJob, ProvisionReport, ProvisionRequest, Slo, Surrogate,
};
pub use runner::{CellResult, MatrixCell, RunSummary, Runner, SweepBudget};
pub use source::{ModelSource, TraceSource};
pub use stream::{SketchMode, StreamEngine, StreamOptions};
pub use validate::ValidationReport;

use std::fmt;

/// Errors produced by the Keddah toolchain.
#[derive(Debug)]
pub enum CoreError {
    /// A statistical routine failed (empty/degenerate samples, fit
    /// divergence).
    Stat(keddah_stat::StatError),
    /// Not enough data to perform the requested step; the message names
    /// what was missing.
    InsufficientData {
        /// What was missing.
        what: &'static str,
    },
    /// Traces of different workloads were pooled into one model.
    MixedWorkloads {
        /// The first trace's workload.
        first: String,
        /// The first workload that differs from it.
        other: String,
    },
    /// Replay target has fewer hosts than the traffic references.
    TopologyTooSmall {
        /// Hosts the traffic needs.
        needed: u32,
        /// Hosts the topology provides.
        available: u32,
    },
    /// Model (de)serialization failed.
    Json(String),
    /// A fault schedule failed validation against the replay target.
    Fault(String),
    /// Streaming ingestion rejected input (e.g. a rotated capture file
    /// whose workload differs from the stream's).
    Stream(String),
    /// A provisioning search request or artefact was unusable, or the
    /// committed-artefact gate failed.
    Provision(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Stat(e) => write!(f, "statistics error: {e}"),
            CoreError::InsufficientData { what } => write!(f, "insufficient data: {what}"),
            CoreError::MixedWorkloads { first, other } => write!(
                f,
                "traces mix workloads {first} and {other}; fit one workload at a time"
            ),
            CoreError::TopologyTooSmall { needed, available } => write!(
                f,
                "topology too small: traffic references host {needed} but only {available} hosts exist"
            ),
            CoreError::Json(msg) => write!(f, "model serialization error: {msg}"),
            CoreError::Fault(msg) => write!(f, "fault schedule error: {msg}"),
            CoreError::Stream(msg) => write!(f, "stream ingestion error: {msg}"),
            CoreError::Provision(msg) => write!(f, "provisioning error: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Stat(e) => Some(e),
            _ => None,
        }
    }
}

impl From<keddah_stat::StatError> for CoreError {
    fn from(e: keddah_stat::StatError) -> Self {
        CoreError::Stat(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
