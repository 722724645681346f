//! Top-level driver: run jobs and produce capture traces.
//!
//! This is the crate's main entry point: it wires the job simulator to
//! the capture pipeline (connection log → flows → classification) and
//! returns a [`JobRun`] holding the labelled [`Trace`] — the artefact the
//! Keddah modelling step consumes. Packets are rendered from the log only
//! for callers that ask for them ([`run_job_with_packets`], or
//! [`ConnectionLog::packets`] on what [`run_dag`] returns).

use keddah_des::{Duration, SimTime};
use keddah_faults::FaultSpec;
use keddah_flowcap::{PacketRecord, Trace};

use crate::cluster::ClusterSpec;
use crate::config::HadoopConfig;
use crate::dag::JobDag;
use crate::net::ConnectionLog;
pub use crate::sim::StageStats;
use crate::sim::{JobCounters, JobSim};
use crate::workload::JobSpec;

/// The result of one simulated job execution.
#[derive(Debug, Clone)]
pub struct JobRun {
    /// The classified flow trace captured during the run.
    pub trace: Trace,
    /// Job makespan (submission to the last stage's completion).
    pub duration: Duration,
    /// Simulator-side execution counters (ground truth for tests).
    pub counters: JobCounters,
    /// Per-stage execution summaries, in stage order.
    pub stages: Vec<StageStats>,
}

/// Runs one job on the cluster and captures its traffic: [`run_dag`] on
/// the workload's own DAG, with no faults.
///
/// Deterministic: the same `(cluster, config, job, seed)` always produces
/// an identical run and trace.
///
/// # Panics
///
/// Panics if `cluster` or `config` fail validation — catching
/// mis-configured sweeps early is preferable to silently strange traffic.
///
/// # Examples
///
/// ```
/// use keddah_hadoop::driver::run_job;
/// use keddah_hadoop::{ClusterSpec, HadoopConfig, JobSpec, Workload};
///
/// let run = run_job(
///     &ClusterSpec::racks(2, 4),
///     &HadoopConfig::default(),
///     &JobSpec::new(Workload::WordCount, 512 << 20),
///     42,
/// );
/// assert!(!run.trace.is_empty());
/// ```
#[must_use]
pub fn run_job(cluster: &ClusterSpec, config: &HadoopConfig, job: &JobSpec, seed: u64) -> JobRun {
    let dag = job.workload.dag();
    run_dag(
        cluster,
        config,
        &dag,
        job.input_bytes,
        seed,
        &FaultSpec::empty(),
    )
    .0
}

/// Like [`run_job`], but also renders the raw packet capture (time
/// ordered) the trace's flows assemble from — for exporting
/// tcpdump-style text or driving custom assemblers.
///
/// # Panics
///
/// As [`run_job`].
#[must_use]
pub fn run_job_with_packets(
    cluster: &ClusterSpec,
    config: &HadoopConfig,
    job: &JobSpec,
    seed: u64,
) -> (JobRun, Vec<PacketRecord>) {
    let dag = job.workload.dag();
    let (run, log) = run_dag(
        cluster,
        config,
        &dag,
        job.input_bytes,
        seed,
        &FaultSpec::empty(),
    );
    (run, log.packets())
}

/// Runs an arbitrary [`JobDag`] on the cluster under a fault schedule
/// and captures its traffic — the one capture kernel. Returns the run
/// and the connection log its trace was built from, which renders the
/// packet capture on demand ([`ConnectionLog::packets`]).
///
/// Worker crashes and recoveries in `faults` degrade the job (killed
/// attempts, shuffle re-fetch, reducer restarts) and trigger HDFS
/// re-replication traffic; the faulted trace's metadata embeds the
/// job's counters. An empty spec draws the same RNG sequence as a clean
/// run and captures an identical trace. Link-level faults are ignored
/// here: the capture side has no network topology. They apply when the
/// trace is replayed through `keddah-netsim`.
///
/// A [`crate::Workload`]'s own DAG (`workload.dag()`, named after the
/// workload) is exactly what [`run_job`] runs.
///
/// # Panics
///
/// Panics if the cluster, config, or DAG fail validation, including a
/// replication factor above the worker count
/// ([`HadoopConfig::validate_for`]).
#[must_use]
pub fn run_dag(
    cluster: &ClusterSpec,
    config: &HadoopConfig,
    dag: &JobDag,
    input_bytes: u64,
    seed: u64,
    faults: &FaultSpec,
) -> (JobRun, ConnectionLog) {
    let mut sim = JobSim::new(cluster, config, seed, faults);
    dag.validate().expect("invalid job dag");
    let outcome = sim.run(dag, input_bytes, SimTime::ZERO, None);
    // Faulted captures embed their ground-truth counters; clean captures
    // keep the historical (counter-free) byte layout.
    let counters = outcome.counters;
    let meta_counters = (!faults.is_empty()).then(|| counters.to_map());
    let (trace, log) = sim.into_capture(dag.name.clone(), input_bytes, meta_counters);
    let run = JobRun {
        trace,
        duration: outcome.end.saturating_since(SimTime::ZERO),
        counters,
        stages: outcome.stages,
    };
    (run, log)
}

/// The result of a chained benchmark session.
#[derive(Debug, Clone)]
pub struct SessionRun {
    /// One classified trace covering the whole session.
    pub trace: Trace,
    /// Per-job completion times (from session start).
    pub job_ends: Vec<Duration>,
    /// Per-job execution counters.
    pub counters: Vec<JobCounters>,
}

/// Runs a *session*: jobs executed back to back on the same cluster,
/// each consuming the previous job's HDFS output when it produced one —
/// the classic `teragen → terasort` benchmark flow. The first job (and
/// any job following one with no output) gets freshly placed input of
/// its own `input_bytes`.
///
/// The whole session is captured as one trace: heartbeats and control
/// traffic span it contiguously. Returns the session and the connection
/// log its trace was built from, as [`run_dag`] does.
///
/// # Panics
///
/// Panics if `jobs` is empty or the cluster/config are invalid (as
/// [`run_dag`]).
///
/// # Examples
///
/// ```
/// use keddah_hadoop::driver::run_session;
/// use keddah_hadoop::{ClusterSpec, HadoopConfig, JobSpec, Workload};
///
/// let (session, _) = run_session(
///     &ClusterSpec::racks(2, 3),
///     &HadoopConfig::default().with_reducers(4),
///     &[
///         JobSpec::new(Workload::TeraGen, 512 << 20),
///         JobSpec::new(Workload::TeraSort, 512 << 20), // reads teragen's output
///     ],
///     11,
/// );
/// assert_eq!(session.job_ends.len(), 2);
/// ```
#[must_use]
pub fn run_session(
    cluster: &ClusterSpec,
    config: &HadoopConfig,
    jobs: &[JobSpec],
    seed: u64,
) -> (SessionRun, ConnectionLog) {
    assert!(!jobs.is_empty(), "session needs at least one job");
    let mut sim = JobSim::new(cluster, config, seed, &FaultSpec::empty());
    let mut job_ends = Vec::with_capacity(jobs.len());
    let mut all_counters = Vec::with_capacity(jobs.len());
    let mut start = SimTime::ZERO;
    let mut chained = None;
    for job in jobs {
        let outcome = sim.run(&job.workload.dag(), job.input_bytes, start, chained.take());
        job_ends.push(outcome.end.saturating_since(SimTime::ZERO));
        all_counters.push(outcome.counters);
        chained = (!outcome.last_output.is_empty()).then_some(outcome.last_output);
        start = outcome.end + Duration::from_secs(2);
    }

    let workload = jobs
        .iter()
        .map(|j| j.workload.name())
        .collect::<Vec<_>>()
        .join("+");
    let (trace, log) = sim.into_capture(workload, jobs[0].input_bytes, None);
    let session = SessionRun {
        trace,
        job_ends,
        counters: all_counters,
    };
    (session, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use keddah_flowcap::Component;

    #[test]
    fn trace_contains_all_components() {
        let run = run_job(
            &ClusterSpec::racks(2, 4),
            &HadoopConfig::default(),
            &JobSpec::new(Workload::TeraSort, 4 << 30),
            1,
        );
        for &c in &[
            Component::HdfsRead,
            Component::HdfsWrite,
            Component::Shuffle,
            Component::Control,
        ] {
            assert!(
                run.trace.component_flows(c).count() > 0,
                "missing {c} flows"
            );
        }
        // Nothing should classify as Other: the simulator only speaks
        // Hadoop protocols.
        assert_eq!(run.trace.component_flows(Component::Other).count(), 0);
    }

    #[test]
    fn capture_agrees_with_simulator_counters() {
        let run = run_job(
            &ClusterSpec::racks(2, 4),
            &HadoopConfig::default(),
            &JobSpec::new(Workload::TeraSort, 1 << 30),
            2,
        );
        let shuffle_captured: u64 = run
            .trace
            .component_flows(Component::Shuffle)
            .map(|f| f.rev_bytes)
            .sum();
        assert_eq!(shuffle_captured, run.counters.shuffle_bytes);
        let read_captured: u64 = run
            .trace
            .component_flows(Component::HdfsRead)
            .map(|f| f.rev_bytes)
            .sum();
        assert_eq!(read_captured, run.counters.hdfs_read_bytes);
    }

    #[test]
    fn packets_match_assembled_trace() {
        let (run, packets) = run_job_with_packets(
            &ClusterSpec::racks(2, 2),
            &HadoopConfig::default().with_reducers(2),
            &JobSpec::new(Workload::Grep, 256 << 20),
            8,
        );
        assert!(!packets.is_empty());
        // Reassembling the returned packets reproduces the trace's flows.
        let mut asm = keddah_flowcap::FlowAssembler::new();
        asm.extend(packets.iter().copied());
        let mut flows = asm.finish();
        keddah_flowcap::classify::classify_all(&mut flows);
        assert_eq!(flows, run.trace.flows());
        // Packets are time ordered (tcpdump export depends on this).
        for w in packets.windows(2) {
            assert!(w[0].ts <= w[1].ts);
        }
    }

    #[test]
    fn fault_listing_order_does_not_change_the_capture() {
        use keddah_faults::{FaultKind, TimedFault};
        let at = |secs: u64, kind| TimedFault {
            at_nanos: secs * 1_000_000_000,
            kind,
        };
        // Worker 4 crashes and recovers at one instant, listed in that
        // order; the link fault is ignored at this layer.
        let listed = vec![
            at(30, FaultKind::NodeRecover { node: 2 }),
            at(20, FaultKind::NodeCrash { node: 4 }),
            at(5, FaultKind::LinkDown { link: 0 }),
            at(20, FaultKind::NodeRecover { node: 4 }),
            at(10, FaultKind::NodeCrash { node: 2 }),
        ];
        let mut sorted = listed.clone();
        sorted.sort_by_key(|f| f.at_nanos);
        let capture = |faults: Vec<TimedFault>| {
            let (run, log) = run_dag(
                &ClusterSpec::racks(2, 3),
                &HadoopConfig::default(),
                &Workload::TeraSort.dag(),
                1 << 30,
                7,
                &FaultSpec { faults },
            );
            (run.trace, run.duration, run.counters, log)
        };
        let want = capture(sorted);
        assert!(want.2.node_crashes > 0, "{:?}", want.2);
        assert_eq!(capture(listed), want);
    }

    #[test]
    fn session_chains_teragen_into_terasort() {
        let (session, _) = run_session(
            &ClusterSpec::racks(2, 4),
            &HadoopConfig::default().with_reducers(4),
            &[
                JobSpec::new(Workload::TeraGen, 1 << 30),
                JobSpec::new(Workload::TeraSort, 1 << 30),
            ],
            4,
        );
        assert_eq!(session.job_ends.len(), 2);
        assert!(session.job_ends[1] > session.job_ends[0]);
        // TeraGen writes, TeraSort shuffles the generated data.
        assert_eq!(session.counters[0].shuffle_bytes, 0);
        assert!(session.counters[1].shuffle_bytes > 1 << 29);
        // The sort consumed the generated blocks: ~8 full blocks
        // (1 GiB / 128 MiB) plus a small spill block per map whose noisy
        // output slightly exceeded the block size.
        assert!(
            (8..=16).contains(&session.counters[1].maps),
            "maps = {}",
            session.counters[1].maps
        );
        // One contiguous trace covers both jobs.
        assert_eq!(session.trace.meta().workload, "teragen+terasort");
        assert!(session.trace.makespan().as_secs_f64() >= session.job_ends[1].as_secs_f64() * 0.9);
        // Heartbeats span the whole session (control flows near the end).
        let last_control = session
            .trace
            .component_flows(Component::Control)
            .map(|f| f.start)
            .max()
            .expect("has control traffic");
        assert!(
            last_control.as_secs_f64() > session.job_ends[1].as_secs_f64() * 0.8,
            "control stops early: {last_control}"
        );
    }

    #[test]
    fn session_is_deterministic() {
        let jobs = [
            JobSpec::new(Workload::TeraGen, 512 << 20),
            JobSpec::new(Workload::WordCount, 512 << 20),
        ];
        let cluster = ClusterSpec::racks(2, 2);
        let config = HadoopConfig::default().with_reducers(2);
        let (a, a_log) = run_session(&cluster, &config, &jobs, 6);
        let (b, b_log) = run_session(&cluster, &config, &jobs, 6);
        assert_eq!(a_log, b_log);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.job_ends, b.job_ends);
    }

    #[test]
    fn meta_reflects_configuration() {
        let config = HadoopConfig::default()
            .with_reducers(16)
            .with_replication(2)
            .with_block_bytes(64 << 20);
        let run = run_job(
            &ClusterSpec::racks(3, 2),
            &config,
            &JobSpec::new(Workload::Bayes, 512 << 20),
            3,
        );
        let meta = run.trace.meta();
        assert_eq!(meta.workload, "bayes");
        assert_eq!(meta.reducers, 16);
        assert_eq!(meta.replication, 2);
        assert_eq!(meta.block_bytes, 64 << 20);
        assert_eq!(meta.nodes, 6);
    }
}
