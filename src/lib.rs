//! # Keddah
//!
//! A Rust reproduction of **"Keddah: Capturing Hadoop Network Behaviour"**
//! (Deng, Tyson, Cuadrado, Uhlig — ICDCS 2017): a toolchain for
//! *capturing*, *modelling* and *reproducing* Hadoop network traffic for
//! use with network simulators.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Purpose |
//! |---|---|---|
//! | [`des`] | `keddah-des` | Discrete-event simulation kernel |
//! | [`stat`] | `keddah-stat` | Distributions, fitting, KS tests, regression |
//! | [`flowcap`] | `keddah-flowcap` | Packet/flow capture and Hadoop traffic classification |
//! | [`hadoop`] | `keddah-hadoop` | Hadoop cluster simulator (HDFS + YARN + MapReduce) |
//! | [`netsim`] | `keddah-netsim` | Flow-level network simulator with DC topologies |
//! | [`faults`] | `keddah-faults` | Deterministic fault schedules for degraded-mode runs |
//! | [`obs`] | `keddah-obs` | Event tracing + metrics registry, zero-cost when disabled |
//! | [`diagnose`] | `keddah-diagnose` | Fault fingerprinting: degraded-run artefacts → root cause |
//! | [`core`] | `keddah-core` | The Keddah pipeline: capture → model → generate → replay |
//!
//! # Quickstart
//!
//! Run a Hadoop job on the simulated cluster, capture its traffic, fit a
//! Keddah model, and generate synthetic traffic from it:
//!
//! ```
//! use keddah::hadoop::{ClusterSpec, HadoopConfig, JobSpec, Workload};
//! use keddah::hadoop::driver::run_job;
//! use keddah::core::pipeline::Keddah;
//!
//! // 1. "Testbed": an 8-node cluster running a 1 GB TeraSort.
//! let cluster = ClusterSpec::racks(2, 4);
//! let config = HadoopConfig::default();
//! let job = JobSpec::new(Workload::TeraSort, 1 << 30);
//! let run = run_job(&cluster, &config, &job, 1);
//!
//! // 2. Model the captured traffic.
//! let model = Keddah::fit(std::slice::from_ref(&run.trace)).unwrap();
//!
//! // 3. Generate synthetic traffic from the model.
//! let synthetic = model.generate_job(7);
//! assert!(!synthetic.flows.is_empty());
//! ```

pub mod cli;

pub use keddah_core as core;
pub use keddah_des as des;
pub use keddah_diagnose as diagnose;
pub use keddah_faults as faults;
pub use keddah_flowcap as flowcap;
pub use keddah_hadoop as hadoop;
pub use keddah_netsim as netsim;
pub use keddah_obs as obs;
pub use keddah_stat as stat;
