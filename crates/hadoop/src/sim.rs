//! Discrete-event simulation of a DAG-of-stages job on the cluster.
//!
//! The simulator executes the mechanisms that *generate* Hadoop traffic,
//! at flow granularity. A job is a [`JobDag`]; each stage runs as a map
//! wave (optionally followed by a shuffle into reducers) over the bytes
//! its in-edges deliver:
//!
//! * maps are scheduled onto container slots with the node-local →
//!   rack-local → remote locality ladder; how a map ingests its input
//!   block depends on the feeding edge's [`TransferKind`] — an HDFS
//!   read with replica locality (**HDFS read** traffic), a data-grid
//!   remote read from a uniformly random replica, a stage-to-stage
//!   shuffle pull, an in-place pipe, while broadcast edges replicate a
//!   small side payload to every map (**broadcast** traffic);
//! * reducers launch after the slow-start fraction of maps completes
//!   (bounded by a ramp-up cap so maps keep priority) and fetch each
//!   map's partition as it becomes available (**shuffle** traffic);
//! * stage output is written through rack-aware replication pipelines
//!   (**HDFS write** traffic);
//! * every block operation performs a NameNode RPC, the job is submitted
//!   through the ResourceManager, NodeManagers heartbeat, and tasks ping
//!   their ApplicationMaster (**control** traffic).
//!
//! Task compute times follow configured processing rates with log-normal
//! straggler noise. The legacy workloads' iterative rounds are unrolled
//! chains of identical stages (see [`crate::dag`]) and replay
//! byte-identically to the pre-DAG engine.
//!
//! One [`JobSim`] is the run state: it holds what a job's stages share
//! (cluster, configuration, HDFS placement, the capture tap, the RNG,
//! counters, task intervals, the AM node, the node-fault timeline and
//! the down set, the stored-block inventory). Each stage is a
//! [`StageSim`] that borrows it for the stage's span and adds only the
//! stage's own task state.

use std::collections::{BTreeMap, HashSet};

use keddah_des::{Duration, EventQueue, ScheduledEvent, SimTime};
use keddah_faults::{FaultKind, FaultSpec};
use keddah_flowcap::{ports, NodeId, Trace, TraceMeta};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};

use crate::cluster::ClusterSpec;
use crate::config::HadoopConfig;
use crate::dag::{EdgeSource, JobDag, StageSpec, TransferKind};
use crate::hdfs::{Block, Hdfs};
use crate::net::{ConnectionLog, NetModel, Payload};

/// Delay between job submission and the ApplicationMaster becoming ready.
const AM_STARTUP: Duration = Duration::from_secs(2);

/// Gap between consecutive stages of a job (AM tear-down/spin-up of the
/// next wave; historically the gap between chained rounds).
const ROUND_GAP: Duration = Duration::from_secs(2);

/// Smallest map output modelled (headers/metadata floor), bytes.
const MIN_MAP_OUTPUT: u64 = 1024;

/// Lag between a DataNode death and the NameNode commanding
/// re-replication of its blocks (heartbeat expiry; real HDFS waits
/// ~10.5 minutes by default, shortened here so the recovery traffic
/// lands inside typical capture windows).
const REREPLICATION_DELAY: Duration = Duration::from_secs(10);

/// Execution counters for one simulated job (the simulator's ground
/// truth, used to cross-check the capture pipeline in tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobCounters {
    /// Map tasks launched across all rounds.
    pub maps: u32,
    /// Maps that read their block from the local DataNode (no traffic).
    pub local_maps: u32,
    /// Maps that read from a rack-local replica.
    pub rack_local_maps: u32,
    /// Maps that read across racks.
    pub remote_maps: u32,
    /// Reduce tasks launched across all rounds.
    pub reducers: u32,
    /// DAG stages executed (legacy name: every stage was a MapReduce
    /// round before the DAG model).
    pub rounds: u32,
    /// Bytes of HDFS read traffic put on the network.
    pub hdfs_read_bytes: u64,
    /// Bytes of shuffle traffic put on the network.
    pub shuffle_bytes: u64,
    /// Bytes of HDFS write (pipeline) traffic put on the network.
    pub hdfs_write_bytes: u64,
    /// Bytes of broadcast side-input traffic put on the network (DAG
    /// broadcast edges only; always zero for the legacy workloads).
    pub broadcast_bytes: u64,
    /// Shuffle fetches satisfied locally (reducer co-located with map).
    pub local_fetches: u32,
    /// Map attempts that failed and were re-executed (failure injection).
    pub failed_map_attempts: u32,
    /// Speculative (backup) map attempts launched for stragglers.
    pub speculative_attempts: u32,
    /// Worker crashes applied from a fault schedule during the job.
    pub node_crashes: u32,
    /// Task attempts (map or reduce) killed because their node crashed.
    pub fault_killed_attempts: u32,
    /// HDFS blocks re-replicated after losing a replica to a crash.
    pub rereplicated_blocks: u32,
    /// Bytes of re-replication (recovery pipeline) traffic.
    pub rereplicated_bytes: u64,
    /// Network flows carrying re-replication traffic.
    pub rereplication_flows: u32,
}

impl JobCounters {
    /// All counters as a name → value map (stable, sorted keys) — the
    /// form embedded in trace metadata so captures carry their ground
    /// truth along.
    #[must_use]
    pub fn to_map(&self) -> BTreeMap<String, u64> {
        let mut m: BTreeMap<String, u64> = [
            ("maps", u64::from(self.maps)),
            ("local_maps", u64::from(self.local_maps)),
            ("rack_local_maps", u64::from(self.rack_local_maps)),
            ("remote_maps", u64::from(self.remote_maps)),
            ("reducers", u64::from(self.reducers)),
            ("rounds", u64::from(self.rounds)),
            ("hdfs_read_bytes", self.hdfs_read_bytes),
            ("shuffle_bytes", self.shuffle_bytes),
            ("hdfs_write_bytes", self.hdfs_write_bytes),
            ("local_fetches", u64::from(self.local_fetches)),
            ("failed_map_attempts", u64::from(self.failed_map_attempts)),
            ("speculative_attempts", u64::from(self.speculative_attempts)),
            ("node_crashes", u64::from(self.node_crashes)),
            (
                "fault_killed_attempts",
                u64::from(self.fault_killed_attempts),
            ),
            ("rereplicated_blocks", u64::from(self.rereplicated_blocks)),
            ("rereplicated_bytes", self.rereplicated_bytes),
            ("rereplication_flows", u64::from(self.rereplication_flows)),
        ]
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect();
        // Only present when a broadcast edge actually moved bytes:
        // committed pre-DAG fixtures embed this map in their metadata
        // and must keep parsing (and re-capturing) byte-identically.
        if self.broadcast_bytes > 0 {
            m.insert("broadcast_bytes".to_string(), self.broadcast_bytes);
        }
        m
    }

    /// Registers every counter under the `hadoop` subsystem of `obs`,
    /// using the same names as [`JobCounters::to_map`] — so a run's
    /// `metrics.json` carries exactly the counters the capture embeds in
    /// its trace metadata. No-op when `obs` is disabled.
    pub fn record_obs(&self, obs: &keddah_obs::Obs) {
        if !obs.is_enabled() {
            return;
        }
        for (name, value) in self.to_map() {
            obs.add("hadoop", &name, value);
        }
    }
}

/// A node-level fault as the Hadoop layer sees it: a worker leaving
/// (`down`) or rejoining the cluster at a fixed simulation time.
///
/// Link-level faults in a [`FaultSpec`] have no meaning at this layer
/// (the capture side has no network topology) and are ignored here;
/// they apply when the captured trace is replayed through `keddah-netsim`.
#[derive(Debug, Clone, Copy)]
struct NodeFault {
    at: SimTime,
    node: NodeId,
    down: bool,
}

/// Extracts the worker crash/recover events a fault spec holds for a
/// cluster of `worker_count` workers, in stable time order: events at
/// one instant keep the order the spec lists them in. Events naming the
/// master (node 0) or out-of-range nodes are dropped: losing the
/// NameNode/ResourceManager kills the job rather than degrading it, and
/// that failure mode is out of scope (see `DESIGN.md`).
fn node_faults(spec: &FaultSpec, worker_count: u32) -> Vec<NodeFault> {
    let mut faults: Vec<NodeFault> = (spec.faults.iter())
        .filter_map(|ev| {
            let (node, down) = match ev.kind {
                FaultKind::NodeCrash { node } => (node, true),
                FaultKind::NodeRecover { node } => (node, false),
                _ => return None,
            };
            (1..=worker_count).contains(&node).then_some(NodeFault {
                at: ev.at(),
                node: NodeId(node),
                down,
            })
        })
        .collect();
    faults.sort_by_key(|f| f.at);
    faults
}

/// A task's lifetime on a node, recorded for umbilical control traffic.
#[derive(Debug, Clone, Copy)]
struct TaskInterval {
    node: NodeId,
    start: SimTime,
    end: SimTime,
}

/// Result of one DAG stage.
struct StageResult {
    end: SimTime,
    output_blocks: Vec<Block>,
}

/// How a map attempt ingests its input block — decided per block by the
/// [`TransferKind`] of the DAG edge that delivered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MapInput {
    /// Synthesized in place (pipe edges, generator stages): no lookup,
    /// no traffic.
    Generate,
    /// HDFS block read: NameNode lookup, then a locality-preferring
    /// replica (local → rack → remote ladder).
    Hdfs,
    /// Data-grid remote read: catalogue lookup, then a *uniformly
    /// random* live replica — no locality preference.
    Remote,
    /// Stage-to-stage repartition: the slice is pulled from a replica
    /// of the producer's output over the shuffle port.
    ShuffleFetch,
}

/// One in-flight map attempt.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    id: u32,
    node: NodeId,
    /// Launch time: the start of the attempt's task interval.
    start: SimTime,
}

#[derive(Debug)]
struct MapState {
    block: Block,
    /// How this map reads `block` (from the feeding edge's kind).
    input: MapInput,
    running: Vec<Attempt>,
    done: bool,
    /// Node of the attempt that won (shuffle fetch source).
    winner: Option<NodeId>,
    output_bytes: u64,
    attempts: u32,
    speculated: bool,
    /// Nodes where an attempt of this task failed; the AM avoids
    /// rescheduling there (Hadoop's per-task node blacklist).
    blacklist: Vec<NodeId>,
}

#[derive(Debug)]
struct ReduceState {
    node: Option<NodeId>,
    /// Launch time of the current attempt.
    start: SimTime,
    /// Which maps' partitions this attempt has fetched. A crash of a
    /// serving node resets the task (fresh attempt, all-false again).
    fetched_from: Vec<bool>,
    input_bytes: u64,
    compute_scheduled: bool,
    done: bool,
    /// Attempt epoch: bumped when a node crash kills the task, so events
    /// queued for the dead attempt are recognised as stale.
    attempt: u32,
    /// Index range of this attempt's uncommitted blocks in the round's
    /// `output_blocks` (written at compute-done, committed at task end;
    /// a crash in between discards them — Hadoop's output commit).
    written: Option<(usize, usize)>,
}

/// A shuffle fetch in flight: reducer `reduce`, in its attempt
/// `attempt`, pulls `bytes` of map `map`'s output from `from`.
#[derive(Debug, Clone, Copy)]
struct Fetch {
    reduce: usize,
    map: usize,
    from: NodeId,
    attempt: u32,
    bytes: u64,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Fires once at round start to run the initial scheduling pass; all
    /// later events descend from it, so the whole round lives on the
    /// stage's event queue.
    Kick,
    MapDone {
        map: usize,
        attempt: u32,
    },
    MapComputeDone {
        map: usize,
        attempt: u32,
    },
    MapFailed {
        map: usize,
        attempt: u32,
    },
    FetchDone(Fetch),
    ReduceComputeDone {
        reduce: usize,
        attempt: u32,
    },
    ReduceDone {
        reduce: usize,
        attempt: u32,
    },
    /// A scheduled node crash/recover (index into the job's fault
    /// timeline) reaching its firing time.
    NodeFault {
        idx: usize,
    },
}

/// The run state of a job: what all its stages share. [`JobSim::new`]
/// is the one place a run is validated and its capture tap and RNG are
/// set up; [`JobSim::run`] executes a [`JobDag`], lending the state to
/// each stage's [`StageSim`] in turn; [`JobSim::into_capture`] builds
/// the trace. A session runs several jobs on one `JobSim`, so they
/// share the tap, the RNG and the fault timeline, while counters, task
/// intervals, the AM node, the fault cursor, the down set and the block
/// inventory start afresh with each job.
pub(crate) struct JobSim<'a> {
    cluster: &'a ClusterSpec,
    config: &'a HadoopConfig,
    hdfs: Hdfs,
    /// The capture tap: every connection the job opens is logged here.
    net: NetModel,
    rng: StdRng,
    /// The RNG's seed, recorded in the capture's metadata.
    seed: u64,
    /// The node-fault timeline, in time order.
    faults: Vec<NodeFault>,
    counters: JobCounters,
    tasks: Vec<TaskInterval>,
    /// The job's ApplicationMaster, drawn when the job starts.
    am_node: NodeId,
    /// Index of the first timeline event not yet applied.
    fault_cursor: usize,
    /// Workers currently dead.
    down: HashSet<NodeId>,
    /// All blocks the job ever stored (input plus every stage's output):
    /// the inventory the re-replication pass scans for lost replicas.
    stored_blocks: Vec<Block>,
}

impl<'a> JobSim<'a> {
    /// The run state for jobs on `cluster` under `config`, drawing from
    /// `seed`, with the worker crashes and recoveries in `faults`.
    ///
    /// # Panics
    ///
    /// Panics if the cluster or config fail validation, including a
    /// replication factor above the worker count.
    pub(crate) fn new(
        cluster: &'a ClusterSpec,
        config: &'a HadoopConfig,
        seed: u64,
        faults: &FaultSpec,
    ) -> Self {
        cluster.validate().expect("invalid cluster spec");
        config.validate_for(cluster).expect("invalid hadoop config");
        JobSim {
            cluster,
            config,
            hdfs: Hdfs::new(cluster.clone()),
            net: NetModel::new(cluster.nic_bps),
            rng: StdRng::seed_from_u64(seed),
            seed,
            faults: node_faults(faults, cluster.worker_count()),
            counters: JobCounters::default(),
            tasks: Vec::new(),
            am_node: cluster.master(),
            fault_cursor: 0,
            down: HashSet::new(),
            stored_blocks: Vec::new(),
        }
    }

    /// The capture of everything run so far: the connection log, and
    /// the labelled trace its flows make under metadata describing the
    /// run (`counters` is the ground truth to embed, if any).
    pub(crate) fn into_capture(
        mut self,
        workload: String,
        input_bytes: u64,
        counters: Option<BTreeMap<String, u64>>,
    ) -> (Trace, ConnectionLog) {
        let log = self.net.take_log();
        let meta = TraceMeta {
            workload,
            input_bytes,
            reducers: self.config.reducers,
            replication: self.config.replication,
            block_bytes: self.config.block_bytes,
            nodes: self.cluster.worker_count(),
            seed: self.seed,
            counters,
        };
        let mut trace = Trace::new(meta, log.flows());
        trace.classify();
        (trace, log)
    }

    /// Multiplicative log-normal noise with the configured sigma scaled by
    /// `scale` (approximate standard normal from an Irwin–Hall sum; the
    /// simulator needs jitter, not exact normality).
    fn noise(&mut self, scale: f64) -> f64 {
        let z: f64 = (0..12).map(|_| self.rng.random::<f64>()).sum::<f64>() - 6.0;
        (self.config.task_noise_sigma * scale * z).exp()
    }

    /// Simulates `dag`: submission, AM startup, every stage in
    /// topological order over the bytes its in-edges deliver, then the
    /// re-replication and control planes over the whole span.
    ///
    /// The job starts at `start` and consumes `input_blocks` (a previous
    /// job's output, for chained sessions) or, when `None`, freshly
    /// placed input. Node crashes and recoveries fire as DES events
    /// inside the stages (killing attempts, invalidating map output,
    /// restarting reducers), and every crash that costs a stored block a
    /// replica triggers NameNode-commanded re-replication traffic after
    /// the heartbeat-expiry delay. An empty fault timeline takes exactly
    /// the clean path — same RNG draws, same events, byte-identical
    /// capture.
    pub(crate) fn run(
        &mut self,
        dag: &JobDag,
        input_bytes: u64,
        start: SimTime,
        input_blocks: Option<Vec<Block>>,
    ) -> DagOutcome {
        self.counters = JobCounters::default();
        self.tasks.clear();
        self.fault_cursor = 0;
        self.down.clear();
        let master = self.cluster.master();
        self.am_node = NodeId(1 + (self.rng.random::<u32>() % self.cluster.worker_count()));

        // Job submission and AM launch.
        self.net
            .exchange(start, master, master, ports::RM_CLIENT, 2_000, 500);
        self.net.exchange(
            start + Duration::from_millis(100),
            master,
            self.am_node,
            ports::NM_CONTAINER,
            1_500,
            300,
        );

        let original_blocks = input_blocks.unwrap_or_else(|| {
            self.hdfs.place_file(
                input_bytes,
                self.config.block_bytes,
                self.config.replication,
                &mut self.rng,
            )
        });
        self.stored_blocks = original_blocks.clone();
        let mut t = start + AM_STARTUP;
        let mut job_end = t;
        let mut stage_outputs: Vec<Vec<Block>> = Vec::with_capacity(dag.stages.len());
        let mut stage_stats: Vec<StageStats> = Vec::with_capacity(dag.stages.len());
        for (i, stage) in dag.stages.iter().enumerate() {
            // Faults landing before the stage starts (or between stages)
            // apply directly: the node is simply absent (or back) when
            // scheduling begins.
            while let Some(fault) = self.faults.get(self.fault_cursor).filter(|f| f.at <= t) {
                if fault.down {
                    self.down.insert(fault.node);
                } else {
                    self.down.remove(&fault.node);
                }
                self.fault_cursor += 1;
            }
            self.counters.rounds += 1;
            let (inputs, broadcast) = stage_inputs(dag, i, &original_blocks, &stage_outputs);
            let before = self.counters;
            let stage_input_bytes: u64 = inputs.iter().map(|(b, _)| b.bytes).sum();
            let result = StageSim::new(self, stage, inputs, broadcast).run(t);
            job_end = result.end;
            self.stored_blocks
                .extend(result.output_blocks.iter().cloned());
            stage_stats.push(StageStats {
                name: stage.name.clone(),
                maps: self.counters.maps - before.maps,
                reducers: self.counters.reducers - before.reducers,
                input_bytes: stage_input_bytes,
                output_bytes: result.output_blocks.iter().map(|b| b.bytes).sum(),
                broadcast_bytes: self.counters.broadcast_bytes - before.broadcast_bytes,
            });
            stage_outputs.push(result.output_blocks);
            t = result.end + ROUND_GAP;
        }
        self.rereplicate(job_end);
        self.control_plane(start, job_end);
        DagOutcome {
            end: job_end,
            last_output: stage_outputs.pop().unwrap_or_default(),
            stages: stage_stats,
            counters: self.counters,
        }
    }

    /// HDFS re-replication: each worker crash up to `end` costs every
    /// stored block it held a replica; once the NameNode notices
    /// (heartbeat expiry), a surviving replica holder streams a copy to
    /// a fresh live node.
    fn rereplicate(&mut self, end: SimTime) {
        let master = self.cluster.master();
        let mut down: HashSet<NodeId> = HashSet::new();
        for fault in &self.faults {
            if fault.at > end {
                break;
            }
            if !fault.down {
                down.remove(&fault.node);
                continue;
            }
            if !down.insert(fault.node) {
                continue;
            }
            self.counters.node_crashes += 1;
            let at = fault.at + REREPLICATION_DELAY;
            for block in &mut self.stored_blocks {
                if !block.replicas.contains(&fault.node) {
                    continue;
                }
                // All replicas dead: the block is lost; nothing to copy.
                let Some(&source) = block.replicas.iter().find(|n| !down.contains(n)) else {
                    continue;
                };
                let candidates: Vec<NodeId> = self
                    .cluster
                    .workers()
                    .filter(|w| !down.contains(w) && !block.replicas.contains(w))
                    .collect();
                let Some(&target) = candidates.choose(&mut self.rng) else {
                    continue; // no spare node to hold a new replica
                };
                self.net
                    .exchange(at, source, master, ports::NAMENODE_RPC, 300, 500);
                self.net.transfer(
                    at,
                    source,
                    target,
                    ports::DATANODE_XFER,
                    block.bytes,
                    Payload::ToServer,
                );
                self.counters.rereplicated_blocks += 1;
                self.counters.rereplicated_bytes += block.bytes;
                self.counters.rereplication_flows += 1;
                for replica in &mut block.replicas {
                    if *replica == fault.node {
                        *replica = target;
                    }
                }
            }
        }
    }

    /// The control plane over the job span `start..end`: periodic
    /// heartbeats with per-client phase jitter (every NodeManager to the
    /// RM tracker, then the AM to the RM scheduler), task umbilicals to
    /// the AM, and the job-completion notification.
    fn control_plane(&mut self, start: SimTime, end: SimTime) {
        let master = self.cluster.master();
        let period = self.config.nm_heartbeat_secs;
        let heartbeats = self
            .cluster
            .workers()
            .map(|w| (w, ports::RM_TRACKER, (600, 900), (200, 400)))
            .chain([(self.am_node, ports::RM_SCHEDULER, (400, 800), (200, 600))]);
        for (client, port, (req_lo, req_hi), (resp_lo, resp_hi)) in heartbeats {
            let mut at = start + Duration::from_secs_f64(period * self.rng.random::<f64>());
            while at < end {
                let req = self.rng.random_range(req_lo..=req_hi);
                let resp = self.rng.random_range(resp_lo..=resp_hi);
                self.net.exchange(at, client, master, port, req, resp);
                at += Duration::from_secs_f64(period * (0.95 + 0.1 * self.rng.random::<f64>()));
            }
        }
        for task in &self.tasks {
            if task.node == self.am_node {
                continue;
            }
            let mut at = task.start;
            while at < task.end {
                self.net
                    .exchange(at, task.node, self.am_node, ports::AM_UMBILICAL, 300, 150);
                at += Duration::from_secs_f64(
                    self.config.umbilical_secs * (0.9 + 0.2 * self.rng.random::<f64>()),
                );
            }
        }
        self.net
            .exchange(end, self.am_node, master, ports::RM_SCHEDULER, 800, 300);
    }
}

/// Resolves stage `i`'s in-edges to concrete input blocks, each tagged
/// with the read mode its edge implies, plus the broadcast side-input
/// payloads every map pulls.
fn stage_inputs(
    dag: &JobDag,
    i: usize,
    job_input: &[Block],
    stage_outputs: &[Vec<Block>],
) -> (Vec<(Block, MapInput)>, Vec<Block>) {
    let mut inputs: Vec<(Block, MapInput)> = Vec::new();
    let mut broadcast: Vec<Block> = Vec::new();
    for edge in dag.in_edges(i) {
        let source_blocks: &[Block] = match edge.from {
            EdgeSource::JobInput => job_input,
            // An upstream stage stranded by faults may have produced
            // nothing; fall back to the job input (the legacy engine's
            // empty-round fallback, kept for byte-identity of faulted
            // captures).
            EdgeSource::Stage(p) if stage_outputs[p].is_empty() => job_input,
            EdgeSource::Stage(p) => &stage_outputs[p],
        };
        let mode = match edge.kind {
            TransferKind::Broadcast => {
                broadcast.extend(
                    source_blocks
                        .iter()
                        .map(|b| scale_block(b, edge.selectivity)),
                );
                continue;
            }
            TransferKind::HdfsRead => MapInput::Hdfs,
            TransferKind::RemoteRead => MapInput::Remote,
            TransferKind::Shuffle => MapInput::ShuffleFetch,
            TransferKind::Pipe => MapInput::Generate,
        };
        inputs.extend(
            source_blocks
                .iter()
                .map(|b| (scale_block(b, edge.selectivity), mode)),
        );
    }
    (inputs, broadcast)
}

/// One DAG stage (a map wave, optionally shuffling into reducers): the
/// stage's own task state over the job's run state it borrows.
struct StageSim<'j, 'a> {
    job: &'j mut JobSim<'a>,
    stage: &'j StageSpec,
    /// Latest time real (non-fault) work happened; the stage's end.
    /// The last popped time would count ignored fault events queued past
    /// it.
    round_end: SimTime,
    /// Broadcast side-input blocks every map attempt pulls a copy of.
    broadcast: Vec<Block>,

    maps: Vec<MapState>,
    pending_maps: Vec<usize>,
    reducers: Vec<ReduceState>,
    pending_reducers: Vec<usize>,
    reducers_released: bool,
    running_reducers: u32,
    /// Free container slots, indexed by node id: 0 for the master and
    /// for a dead worker, whose slots come back when it recovers.
    free_slots: Vec<u32>,
    completed_maps: usize,
    completed_reducers: usize,
    output_blocks: Vec<Block>,
}

impl<'j, 'a> StageSim<'j, 'a> {
    fn new(
        job: &'j mut JobSim<'a>,
        stage: &'j StageSpec,
        input_blocks: Vec<(Block, MapInput)>,
        broadcast: Vec<Block>,
    ) -> Self {
        let maps: Vec<MapState> = input_blocks
            .into_iter()
            .map(|(block, input)| MapState {
                block,
                input,
                running: Vec::new(),
                done: false,
                winner: None,
                output_bytes: 0,
                attempts: 0,
                speculated: false,
                blacklist: Vec::new(),
            })
            .collect();
        let pending_maps: Vec<usize> = (0..maps.len()).collect();
        let reducer_count = if stage.map_only {
            0
        } else {
            job.config.reducers as usize
        };
        let reducers: Vec<ReduceState> = (0..reducer_count)
            .map(|_| ReduceState {
                node: None,
                start: SimTime::ZERO,
                fetched_from: vec![false; maps.len()],
                input_bytes: 0,
                compute_scheduled: false,
                done: false,
                attempt: 0,
                written: None,
            })
            .collect();
        let pending_reducers: Vec<usize> = (0..reducers.len()).collect();
        // With no maps to wait for, slow-start has nothing to count.
        let reducers_released = maps.is_empty();
        let mut free_slots = vec![0; job.cluster.node_count() as usize];
        for w in job.cluster.workers().filter(|w| !job.down.contains(w)) {
            free_slots[w.0 as usize] = job.config.slots_per_node;
        }
        StageSim {
            job,
            stage,
            round_end: SimTime::ZERO,
            broadcast,
            maps,
            pending_maps,
            reducers,
            pending_reducers,
            reducers_released,
            running_reducers: 0,
            free_slots,
            completed_maps: 0,
            completed_reducers: 0,
            output_blocks: Vec::new(),
        }
    }

    /// Runs the stage to completion: pops its [`EventQueue`] until it
    /// drains, starting task scheduling at `start` with an
    /// [`Event::Kick`].
    fn run(mut self, start: SimTime) -> StageResult {
        let mut queue = EventQueue::new();
        self.round_end = start;
        queue.push(start, Event::Kick);
        let mut last = start;
        while let Some(ScheduledEvent { at: now, event, .. }) = queue.pop() {
            debug_assert!(now >= last, "event at {now:?} popped after {last:?}");
            last = now;
            if !matches!(event, Event::NodeFault { .. }) {
                self.round_end = self.round_end.max(now);
            }
            let queue = &mut queue;
            match event {
                Event::Kick => {
                    // Queue the not-yet-applied fault timeline; events
                    // landing after the round's work finishes are ignored
                    // (and re-queued by the next round, which reads the
                    // shared cursor).
                    for idx in self.job.fault_cursor..self.job.faults.len() {
                        queue.push(self.job.faults[idx].at.max(now), Event::NodeFault { idx });
                    }
                    self.schedule_tasks(now, queue);
                }
                Event::MapDone { map, attempt } => self.on_map_done(map, attempt, now, queue),
                Event::MapComputeDone { map, attempt } => {
                    self.on_map_compute_done(map, attempt, now, queue)
                }
                Event::MapFailed { map, attempt } => self.on_map_failed(map, attempt, now, queue),
                Event::FetchDone(fetch) => self.on_fetch_done(fetch, now, queue),
                Event::ReduceComputeDone { reduce, attempt } => {
                    self.on_reduce_compute_done(reduce, attempt, now, queue)
                }
                Event::ReduceDone { reduce, attempt } => {
                    self.on_reduce_done(reduce, attempt, now, queue)
                }
                Event::NodeFault { idx } => self.on_node_fault(idx, now, queue),
            }
        }
        let end = self.round_end.max(start);
        if self.job.faults.is_empty() {
            assert_eq!(
                self.completed_maps,
                self.maps.len(),
                "stage ended with unfinished maps"
            );
            assert_eq!(
                self.completed_reducers,
                self.reducers.len(),
                "stage ended with unfinished reducers"
            );
        }
        // With faults, a stage can strand work: if every surviving node
        // is dead and no recovery is scheduled, the job hangs in reality
        // too — the traffic captured up to the stall is the result.
        StageResult {
            end,
            output_blocks: self.output_blocks,
        }
    }

    /// True once every map and reducer of the stage has completed.
    fn round_complete(&self) -> bool {
        self.completed_maps == self.maps.len() && self.completed_reducers == self.reducers.len()
    }

    /// A scheduled crash/recover fires. Events are applied in timeline
    /// order exactly once (the cursor is shared with the job level); an
    /// event reaching a round whose work already finished is left for
    /// the inter-round application pass.
    fn on_node_fault(&mut self, idx: usize, now: SimTime, queue: &mut EventQueue<Event>) {
        if idx != self.job.fault_cursor || self.round_complete() {
            return;
        }
        self.job.fault_cursor += 1;
        let fault = self.job.faults[idx];
        if fault.down {
            self.on_node_crash(fault.node, now, queue);
        } else {
            self.on_node_recover(fault.node, now, queue);
        }
    }

    /// A worker dies mid-round: its slots vanish, running attempts are
    /// killed, completed map output it was serving is invalidated for
    /// reducers that had not fetched it yet, and its reducers restart
    /// from scratch elsewhere.
    fn on_node_crash(&mut self, n: NodeId, now: SimTime, queue: &mut EventQueue<Event>) {
        if !self.job.down.insert(n) {
            return;
        }
        self.free_slots[n.0 as usize] = 0;
        // Kill running map attempts on the dead node. No blacklist and
        // no slot release: the node is gone, and losing a node is not
        // the task's fault.
        let job = &mut *self.job;
        for (m, map) in self.maps.iter_mut().enumerate() {
            map.running.retain(|a| {
                if a.node != n {
                    return true;
                }
                job.tasks.push(TaskInterval {
                    node: n,
                    start: a.start,
                    end: now,
                });
                job.counters.fault_killed_attempts += 1;
                false
            });
            if !map.done && map.running.is_empty() && !self.pending_maps.contains(&m) {
                self.pending_maps.push(m);
            }
        }
        // Invalidate completed maps whose output lived on the dead node
        // and is still needed by some reducer: the task re-executes and
        // re-serves, exactly the recovery traffic Hadoop generates.
        for m in 0..self.maps.len() {
            if self.maps[m].done && self.maps[m].winner == Some(n) {
                let needed = self.reducers.iter().any(|r| !r.done && !r.fetched_from[m]);
                if needed {
                    self.maps[m].done = false;
                    self.maps[m].winner = None;
                    self.maps[m].output_bytes = 0;
                    self.maps[m].speculated = false;
                    self.completed_maps -= 1;
                    if self.maps[m].running.is_empty() && !self.pending_maps.contains(&m) {
                        self.pending_maps.push(m);
                    }
                }
            }
        }
        // Restart reducers that were running on the dead node: a fresh
        // attempt re-fetches everything (shuffle re-fetch traffic).
        for r in 0..self.reducers.len() {
            if self.reducers[r].node == Some(n) && !self.reducers[r].done {
                self.job.tasks.push(TaskInterval {
                    node: n,
                    start: self.reducers[r].start,
                    end: now,
                });
                self.job.counters.fault_killed_attempts += 1;
                // Discard blocks the dead attempt wrote but never
                // committed, shifting later attempts' recorded ranges.
                if let Some((w_start, w_count)) = self.reducers[r].written.take() {
                    self.output_blocks.drain(w_start..w_start + w_count);
                    for other in &mut self.reducers {
                        if let Some((s, _)) = &mut other.written {
                            if *s > w_start {
                                *s -= w_count;
                            }
                        }
                    }
                }
                let map_count = self.maps.len();
                let state = &mut self.reducers[r];
                state.node = None;
                state.fetched_from = vec![false; map_count];
                state.input_bytes = 0;
                state.compute_scheduled = false;
                state.attempt += 1;
                self.running_reducers -= 1;
                self.pending_reducers.push(r);
            }
        }
        self.schedule_tasks(now, queue);
    }

    /// A worker rejoins: its slots come back and pending work may land
    /// on it again.
    fn on_node_recover(&mut self, n: NodeId, now: SimTime, queue: &mut EventQueue<Event>) {
        if !self.job.down.remove(&n) {
            return;
        }
        self.free_slots[n.0 as usize] = self.job.config.slots_per_node;
        self.schedule_tasks(now, queue);
    }

    /// Greedy slot filler mirroring a capacity scheduler with delay
    /// scheduling: node-local maps first (each local match can be missed
    /// with probability `locality_miss`, modelling expired scheduling
    /// opportunities), then strict FIFO placement of whatever remains,
    /// then reducers up to the ramp-up cap.
    fn schedule_tasks(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        let cluster = self.job.cluster;
        // Pass 1: node-local maps. Each local candidate gets exactly one
        // scheduling opportunity per invocation; a missed roll defers it
        // to the FIFO pass (delay-scheduling expiry).
        for node in cluster.workers() {
            self.launch_pending_maps(node, now, queue, |sim, m| {
                let map = &sim.maps[m];
                map.block.replicas.contains(&node)
                    && !map.blacklist.contains(&node)
                    && sim.job.rng.random::<f64>() >= sim.job.config.locality_miss
            });
        }
        // Pass 2: FIFO — pending maps not blacklisted on the node go to
        // the first node with a free slot, locality or not (replica
        // selection at read time still prefers a rack-local source).
        for node in cluster.workers() {
            self.launch_pending_maps(node, now, queue, |sim, m| {
                !sim.maps[m].blacklist.contains(&node)
            });
        }
        // Pass 3: reducers (after slow-start), capped at half the cluster
        // slots while maps are still pending so maps keep priority.
        if self.reducers_released {
            let total_slots = cluster.worker_count() * self.job.config.slots_per_node;
            for node in cluster.workers() {
                while self.slot_free(node) && !self.pending_reducers.is_empty() {
                    let maps_outstanding =
                        !self.pending_maps.is_empty() || self.completed_maps < self.maps.len();
                    if maps_outstanding && self.running_reducers >= total_slots / 2 {
                        return;
                    }
                    let r = self.pending_reducers.remove(0);
                    self.launch_reducer(r, node, now, queue);
                }
            }
        }
    }

    /// Walks the pending maps once, in FIFO order, launching on `node`
    /// each map `accept` takes while the node has a free slot; the rest
    /// stay pending, in order. `accept` is not called once the node is
    /// full, so a full node draws no locality roll.
    fn launch_pending_maps(
        &mut self,
        node: NodeId,
        now: SimTime,
        queue: &mut EventQueue<Event>,
        mut accept: impl FnMut(&mut Self, usize) -> bool,
    ) {
        // In place: the maps kept so far sit in `pending_maps[..kept]`,
        // the unvisited ones from `next` on.
        let (mut kept, mut next) = (0, 0);
        while next < self.pending_maps.len() && self.slot_free(node) {
            let m = self.pending_maps[next];
            next += 1;
            if accept(self, m) {
                self.launch_map(m, node, now, queue);
            } else {
                self.pending_maps[kept] = m;
                kept += 1;
            }
        }
        self.pending_maps.drain(kept..next);
    }

    fn slot_free(&self, node: NodeId) -> bool {
        self.free_slots[node.0 as usize] > 0
    }

    fn take_slot(&mut self, node: NodeId) {
        let slots = &mut self.free_slots[node.0 as usize];
        assert!(*slots > 0, "launching on a full node");
        *slots -= 1;
    }

    fn release_slot(&mut self, node: NodeId) {
        self.free_slots[node.0 as usize] += 1;
    }

    fn launch_map(&mut self, m: usize, node: NodeId, now: SimTime, queue: &mut EventQueue<Event>) {
        self.take_slot(node);
        let attempt = self.maps[m].attempts;
        self.maps[m].attempts += 1;
        self.maps[m].running.push(Attempt {
            id: attempt,
            node,
            start: now,
        });
        if attempt == 0 {
            self.job.counters.maps += 1;
        }

        let job = &mut *self.job;
        let block = &self.maps[m].block;
        let mut read_done = match self.maps[m].input {
            MapInput::Generate => {
                // In-place ingest (pipe edges, TeraGen-style generators):
                // input is synthesized locally, no read and no
                // block-location lookup.
                job.counters.local_maps += 1;
                now
            }
            input @ (MapInput::Hdfs | MapInput::Remote) => {
                // NameNode RPC: getBlockLocations (a data-grid catalogue
                // lookup for remote reads).
                let master = job.cluster.master();
                job.net
                    .exchange(now, node, master, ports::NAMENODE_RPC, 300, 600);
                // Input: local disk or a read over the network, from the
                // locality ladder's replica or, for a data-grid read, a
                // uniformly random one (the job landed wherever a slot
                // was free and pulls its dataset across the fabric).
                // With nodes down only live replicas serve; a block with
                // no live replica at all reads as a local re-ingest (the
                // data is gone — a real job would fail here, which is
                // out of scope; see `DESIGN.md`).
                let uniform = input == MapInput::Remote;
                match job
                    .hdfs
                    .select_live_replica(block, node, uniform, &job.down, &mut job.rng)
                {
                    None => {
                        job.counters.local_maps += 1;
                        now
                    }
                    Some(source) => {
                        if job.cluster.same_rack(source, node) {
                            job.counters.rack_local_maps += 1;
                        } else {
                            job.counters.remote_maps += 1;
                        }
                        job.counters.hdfs_read_bytes += block.bytes;
                        job.net.transfer(
                            now,
                            node,
                            source,
                            ports::DATANODE_XFER,
                            block.bytes,
                            Payload::ToClient,
                        )
                    }
                }
            }
            MapInput::ShuffleFetch => {
                // Stage-to-stage repartition: the map pulls its slice of
                // the producer's materialised output over the shuffle
                // port (no NameNode involvement — the AM knows where the
                // producer wrote).
                match job
                    .hdfs
                    .select_live_replica(block, node, false, &job.down, &mut job.rng)
                {
                    None => {
                        job.counters.local_fetches += 1;
                        now
                    }
                    Some(source) => {
                        job.counters.shuffle_bytes += block.bytes;
                        job.net.transfer(
                            now,
                            node,
                            source,
                            ports::SHUFFLE,
                            block.bytes,
                            Payload::ToClient,
                        )
                    }
                }
            }
        };

        // Broadcast side inputs: every map attempt pulls a copy of each
        // broadcast block from a replica before compute starts (local
        // copies are free). Empty for every non-broadcast DAG — no RNG
        // draws, no traffic.
        for side in &self.broadcast {
            let replica = job
                .hdfs
                .select_live_replica(side, node, false, &job.down, &mut job.rng);
            if let Some(source) = replica {
                job.counters.broadcast_bytes += side.bytes;
                let f = job.net.transfer(
                    now,
                    node,
                    source,
                    ports::BROADCAST,
                    side.bytes,
                    Payload::ToClient,
                );
                read_done = read_done.max(f);
            }
        }

        let compute_secs = job.config.task_overhead_secs
            + block.bytes as f64 * self.stage.cpu_factor / job.config.map_rate_bps;
        let compute = Duration::from_secs_f64(compute_secs * job.noise(1.0));
        // Failure injection: an attempt may die partway and be
        // re-executed, unless it is the task's last permitted attempt.
        let fails = self.maps[m].attempts < job.config.max_task_attempts
            && job.rng.random::<f64>() < job.config.task_failure_prob;
        if fails {
            let frac = 0.2 + 0.7 * job.rng.random::<f64>();
            queue.push(
                read_done + compute.mul_f64(frac),
                Event::MapFailed { map: m, attempt },
            );
        } else if self.stage.map_only {
            queue.push(
                read_done + compute,
                Event::MapComputeDone { map: m, attempt },
            );
        } else {
            queue.push(read_done + compute, Event::MapDone { map: m, attempt });
        }
    }

    /// Map `m`'s output size for one finished attempt: its input through
    /// the stage's selectivity, with `noise_scale` noise, floored at the
    /// smallest output modelled.
    fn map_output(&mut self, m: usize, noise_scale: f64) -> u64 {
        let noise = self.job.noise(noise_scale);
        ((self.maps[m].block.bytes as f64 * self.stage.map_selectivity * noise) as u64)
            .max(MIN_MAP_OUTPUT)
    }

    /// A map-only attempt finished generating its data: write it to HDFS
    /// through replication pipelines while holding the container, then
    /// complete. Losing backup attempts are killed before they write
    /// (Hadoop's output-commit coordination).
    fn on_map_compute_done(
        &mut self,
        m: usize,
        attempt: u32,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) {
        if self.maps[m].done {
            self.try_retire_attempt(m, attempt, now);
            self.schedule_tasks(now, queue);
            return;
        }
        let Some(node) = self.maps[m]
            .running
            .iter()
            .find(|a| a.id == attempt)
            .map(|a| a.node)
        else {
            // The attempt was killed by a node crash after its compute
            // event was queued; nothing to commit.
            return;
        };
        let output = self.map_output(m, 0.2);
        let finish = self.write_output(node, output, now);
        queue.push(
            finish.max(now + Duration::from_millis(10)),
            Event::MapDone { map: m, attempt },
        );
    }

    /// Removes a finished/failed attempt from a map's running set,
    /// freeing its slot and logging its task interval. Returns the node
    /// it ran on, or `None` for a stale event whose attempt was already
    /// killed (its node crashed): the event is simply ignored. An
    /// attempt missing *without* faults in play would be a bookkeeping
    /// bug, which the debug assertion catches.
    fn try_retire_attempt(&mut self, m: usize, attempt: u32, now: SimTime) -> Option<NodeId> {
        let pos = self.maps[m].running.iter().position(|a| a.id == attempt);
        debug_assert!(
            pos.is_some() || !self.job.faults.is_empty(),
            "map {m} attempt {attempt} vanished without a fault schedule"
        );
        let Attempt { node, start, .. } = self.maps[m].running.remove(pos?);
        self.release_slot(node);
        self.job.tasks.push(TaskInterval {
            node,
            start,
            end: now,
        });
        Some(node)
    }

    /// A map attempt died: free its slot and, unless the task already
    /// finished (a backup won) or another attempt is still running, put
    /// the task back in the pending queue for a fresh attempt — which
    /// re-reads its input, generating the recovery traffic failures
    /// cause in practice.
    fn on_map_failed(
        &mut self,
        m: usize,
        attempt: u32,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) {
        let Some(node) = self.try_retire_attempt(m, attempt, now) else {
            return;
        };
        self.job.counters.failed_map_attempts += 1;
        if !self.maps[m].blacklist.contains(&node) {
            self.maps[m].blacklist.push(node);
        }
        if !self.maps[m].done && self.maps[m].running.is_empty() {
            self.pending_maps.push(m);
        }
        self.schedule_tasks(now, queue);
    }

    fn on_map_done(&mut self, m: usize, attempt: u32, now: SimTime, queue: &mut EventQueue<Event>) {
        let Some(node) = self.try_retire_attempt(m, attempt, now) else {
            return;
        };
        if self.maps[m].done {
            // A backup attempt finishing after the winner: the AM kills
            // it in real Hadoop; here it simply releases its slot.
            self.schedule_tasks(now, queue);
            return;
        }
        let output = self.map_output(m, 0.5);
        self.maps[m].done = true;
        self.maps[m].winner = Some(node);
        self.maps[m].output_bytes = output;
        self.completed_maps += 1;

        // Slow-start: release reducers once enough maps completed.
        let threshold = (self.job.config.slowstart * self.maps.len() as f64)
            .ceil()
            .max(1.0) as usize;
        if !self.reducers_released && self.completed_maps >= threshold {
            self.reducers_released = true;
        }

        // Running reducers fetch this map's output. A re-executed map
        // only re-serves reducers that had not fetched it before the
        // original winner crashed; already-fetched copies survive.
        for r in 0..self.reducers.len() {
            if self.reducers[r].node.is_some()
                && !self.reducers[r].done
                && !self.reducers[r].fetched_from[m]
            {
                self.start_fetch(r, m, now, queue);
            }
        }
        self.maybe_speculate(now, queue);
        self.schedule_tasks(now, queue);
    }

    /// Speculative execution: once most maps have finished, launch one
    /// backup attempt for each straggler that is still running, on any
    /// node with a free slot. The first attempt to finish wins; the
    /// loser's work (including any HDFS re-read) stays on the wire —
    /// exactly the duplicate traffic speculation costs a real cluster.
    fn maybe_speculate(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        let config = self.job.config;
        if !config.speculative_execution {
            return;
        }
        let threshold = (config.speculation_threshold * self.maps.len() as f64).ceil() as usize;
        if self.completed_maps < threshold.max(1) {
            return;
        }
        let stragglers: Vec<usize> = (0..self.maps.len())
            .filter(|&m| {
                !self.maps[m].done && !self.maps[m].speculated && self.maps[m].running.len() == 1
            })
            .collect();
        let cluster = self.job.cluster;
        for m in stragglers {
            let busy = self.maps[m].running[0].node;
            let Some(node) = cluster.workers().find(|&w| w != busy && self.slot_free(w)) else {
                return; // cluster is full; try again on the next completion
            };
            self.maps[m].speculated = true;
            self.job.counters.speculative_attempts += 1;
            self.launch_map(m, node, now, queue);
        }
    }

    fn launch_reducer(
        &mut self,
        r: usize,
        node: NodeId,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) {
        self.take_slot(node);
        self.reducers[r].node = Some(node);
        self.reducers[r].start = now;
        self.running_reducers += 1;
        self.job.counters.reducers += 1;
        // Fetch everything already finished.
        let done_maps: Vec<usize> = (0..self.maps.len())
            .filter(|&m| self.maps[m].done)
            .collect();
        for m in done_maps {
            self.start_fetch(r, m, now, queue);
        }
        self.check_reduce_ready(r, now, queue);
    }

    /// One shuffle fetch: reducer `r` pulls its partition of map `m`'s
    /// output. Partition sizes split the map output across reducers with
    /// mild key-skew noise.
    fn start_fetch(&mut self, r: usize, m: usize, now: SimTime, queue: &mut EventQueue<Event>) {
        if self.reducers[r].fetched_from[m] {
            return;
        }
        let base = self.maps[m].output_bytes / self.reducers.len() as u64;
        let skew = self.job.noise(0.8);
        let bytes = ((base as f64 * skew) as u64).max(64);
        let map_node = self.maps[m].winner.expect("finished map has a winner");
        let reduce_node = self.reducers[r].node.expect("running reducer has a node");
        if map_node == reduce_node {
            // Local fetch: served from disk, invisible on the wire.
            self.job.counters.local_fetches += 1;
            self.reducers[r].fetched_from[m] = true;
            self.reducers[r].input_bytes += bytes;
            self.check_reduce_ready(r, now, queue);
        } else {
            self.job.counters.shuffle_bytes += bytes;
            let finish = self.job.net.transfer(
                now,
                reduce_node,
                map_node,
                ports::SHUFFLE,
                bytes,
                Payload::ToClient,
            );
            queue.push(
                finish,
                Event::FetchDone(Fetch {
                    reduce: r,
                    map: m,
                    from: map_node,
                    attempt: self.reducers[r].attempt,
                    bytes,
                }),
            );
        }
    }

    /// A shuffle fetch drains. Stale completions are dropped: the
    /// reducer restarted on another node (attempt mismatch), the serving
    /// map was invalidated or re-won elsewhere (its source died
    /// mid-shuffle), or this partition was already re-fetched.
    fn on_fetch_done(&mut self, fetch: Fetch, now: SimTime, queue: &mut EventQueue<Event>) {
        let Fetch {
            reduce: r,
            map: m,
            from,
            attempt,
            bytes,
        } = fetch;
        let stale = self.reducers[r].attempt != attempt
            || self.reducers[r].done
            || self.reducers[r].fetched_from[m]
            || !self.maps[m].done
            || self.maps[m].winner != Some(from);
        if stale {
            return;
        }
        self.reducers[r].fetched_from[m] = true;
        self.reducers[r].input_bytes += bytes;
        self.check_reduce_ready(r, now, queue);
    }

    fn check_reduce_ready(&mut self, r: usize, now: SimTime, queue: &mut EventQueue<Event>) {
        let state = &self.reducers[r];
        if state.compute_scheduled
            || state.done
            || state.node.is_none()
            || state.fetched_from.iter().any(|&f| !f)
            || self.completed_maps < self.maps.len()
        {
            return;
        }
        let compute_secs = self.job.config.task_overhead_secs
            + state.input_bytes as f64 * self.stage.cpu_factor / self.job.config.reduce_rate_bps;
        let noise = self.job.noise(1.0);
        self.reducers[r].compute_scheduled = true;
        queue.push(
            now + Duration::from_secs_f64(compute_secs * noise),
            Event::ReduceComputeDone {
                reduce: r,
                attempt: self.reducers[r].attempt,
            },
        );
    }

    /// Writes `output` bytes from `node` into HDFS as blocks through
    /// replication pipelines over live workers, recording the resulting
    /// blocks for the next round. Returns when the last pipeline drains.
    fn write_output(&mut self, node: NodeId, output: u64, start: SimTime) -> SimTime {
        let mut finish = start;
        if output == 0 {
            return finish;
        }
        let job = &mut *self.job;
        let block_bytes = job.config.block_bytes;
        let n_blocks = output.div_ceil(block_bytes);
        let mut write_at = start;
        for b in 0..n_blocks {
            let bytes = if b == n_blocks - 1 {
                output - block_bytes * (n_blocks - 1)
            } else {
                block_bytes
            };
            // NameNode RPC: addBlock.
            let master = job.cluster.master();
            job.net
                .exchange(write_at, node, master, ports::NAMENODE_RPC, 400, 700);
            let targets =
                job.hdfs
                    .pipeline_targets(node, job.config.replication, &job.down, &mut job.rng);
            // Pipeline hops: writer -> t0 is local when t0 == writer;
            // each subsequent hop is a network flow.
            let mut hop_finish = write_at;
            let mut upstream = node;
            for &target in &targets {
                if target != upstream {
                    job.counters.hdfs_write_bytes += bytes;
                    let f = job.net.transfer(
                        write_at,
                        upstream,
                        target,
                        ports::DATANODE_XFER,
                        bytes,
                        Payload::ToServer,
                    );
                    hop_finish = hop_finish.max(f);
                }
                upstream = target;
            }
            // A whole-cluster outage yields no targets: the block simply
            // isn't stored (never pushed), rather than recorded with no
            // replicas.
            if !targets.is_empty() {
                self.output_blocks.push(Block {
                    bytes,
                    replicas: targets,
                });
            }
            // Blocks of one task are written back-to-back.
            write_at = hop_finish.max(write_at);
            finish = finish.max(hop_finish);
        }
        finish
    }

    /// Sort/reduce finished: write the reducer's output through HDFS
    /// replication pipelines, then finish the task when the last pipeline
    /// drains.
    fn on_reduce_compute_done(
        &mut self,
        r: usize,
        attempt: u32,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) {
        if self.reducers[r].attempt != attempt || self.reducers[r].done {
            return; // the attempt died with its node; a fresh one re-runs
        }
        let node = self.reducers[r].node.expect("running reducer");
        let output = (self.reducers[r].input_bytes as f64 * self.stage.reduce_selectivity) as u64;
        let block_start = self.output_blocks.len();
        let finish = self.write_output(node, output, now);
        self.reducers[r].written = Some((block_start, self.output_blocks.len() - block_start));
        queue.push(
            finish.max(now + Duration::from_millis(10)),
            Event::ReduceDone { reduce: r, attempt },
        );
    }

    fn on_reduce_done(
        &mut self,
        r: usize,
        attempt: u32,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) {
        if self.reducers[r].attempt != attempt || self.reducers[r].done {
            return;
        }
        let node = self.reducers[r].node.expect("running reducer");
        self.reducers[r].done = true;
        self.reducers[r].written = None; // output committed
        self.completed_reducers += 1;
        self.running_reducers -= 1;
        self.release_slot(node);
        self.job.tasks.push(TaskInterval {
            node,
            start: self.reducers[r].start,
            end: now,
        });
        // Task completion report to the AM.
        let am_node = self.job.am_node;
        self.job
            .net
            .exchange(now, node, am_node, ports::AM_UMBILICAL, 500, 200);
        self.schedule_tasks(now, queue);
    }
}

/// Per-stage execution summary, derived from counter deltas around each
/// stage's run — the DAG-level ground truth `keddah dag show` and the
/// driver expose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStats {
    /// Stage name from the [`JobDag`].
    pub name: String,
    /// Map tasks the stage launched.
    pub maps: u32,
    /// Reduce tasks the stage launched.
    pub reducers: u32,
    /// Bytes the stage's non-broadcast in-edges delivered
    /// (post-selectivity).
    pub input_bytes: u64,
    /// Bytes the stage materialised to HDFS.
    pub output_bytes: u64,
    /// Broadcast side-input bytes the stage's maps pulled.
    pub broadcast_bytes: u64,
}

/// Outcome of a full DAG simulation.
pub(crate) struct DagOutcome {
    pub end: SimTime,
    pub last_output: Vec<Block>,
    pub stages: Vec<StageStats>,
    pub counters: JobCounters,
}

/// Scales a producer block through an edge's selectivity. Unity
/// selectivity is the identity (bit-for-bit: no float round-trip), so
/// legacy degenerate DAGs hand stages exactly the blocks the old round
/// chain did.
fn scale_block(block: &Block, selectivity: f64) -> Block {
    if selectivity == 1.0 {
        block.clone()
    } else {
        Block {
            bytes: ((block.bytes as f64 * selectivity) as u64).max(1),
            replicas: block.replicas.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{JobSpec, Workload};

    /// Simulates `job`'s DAG from t = 0 on freshly placed input under
    /// `faults`: the end time, the counters and the capture tap.
    fn simulate(
        cluster: &ClusterSpec,
        config: &HadoopConfig,
        job: &JobSpec,
        seed: u64,
        faults: &FaultSpec,
    ) -> (SimTime, JobCounters, NetModel) {
        let mut sim = JobSim::new(cluster, config, seed, faults);
        let outcome = sim.run(&job.workload.dag(), job.input_bytes, SimTime::ZERO, None);
        (outcome.end, outcome.counters, sim.net)
    }

    fn run(job: JobSpec, seed: u64) -> (SimTime, JobCounters, NetModel) {
        let config = HadoopConfig::default();
        simulate(
            &ClusterSpec::racks(2, 4),
            &config,
            &job,
            seed,
            &FaultSpec::empty(),
        )
    }

    #[test]
    fn terasort_runs_to_completion() {
        let (end, counters, net) = run(JobSpec::new(Workload::TeraSort, 1 << 30), 1);
        // 1 GiB / 128 MiB = 8 maps.
        assert_eq!(counters.maps, 8);
        assert_eq!(counters.reducers, 8);
        assert_eq!(counters.rounds, 1);
        assert!(end > SimTime::from_secs(5));
        assert!(net.captured() > 100, "captured {}", net.captured());
        // TeraSort shuffles roughly its input size.
        let shuffled = counters.shuffle_bytes as f64;
        assert!(
            shuffled > 0.3 * (1u64 << 30) as f64,
            "shuffle {shuffled} too small"
        );
    }

    #[test]
    fn grep_shuffles_almost_nothing() {
        let (_, ts, _) = run(JobSpec::new(Workload::TeraSort, 1 << 30), 2);
        let (_, gr, _) = run(JobSpec::new(Workload::Grep, 1 << 30), 2);
        assert!(
            gr.shuffle_bytes * 10 < ts.shuffle_bytes,
            "grep {} vs terasort {}",
            gr.shuffle_bytes,
            ts.shuffle_bytes
        );
    }

    #[test]
    fn iterative_jobs_run_multiple_rounds() {
        let (_, counters, _) = run(JobSpec::new(Workload::KMeans, 512 << 20), 3);
        assert_eq!(counters.rounds, 3);
        // KMeans re-reads: 4 blocks x 3 rounds of maps.
        assert_eq!(counters.maps, 12);
    }

    #[test]
    fn replication_one_writes_less() {
        let cluster = ClusterSpec::racks(2, 4);
        let job = JobSpec::new(Workload::TeraSort, 1 << 30);
        let mut totals = Vec::new();
        for repl in [1u16, 3] {
            let config = HadoopConfig::default().with_replication(repl);
            let (_, counters, _) = simulate(&cluster, &config, &job, 4, &FaultSpec::empty());
            totals.push(counters.hdfs_write_bytes);
        }
        // Replication 3 writes ~(r-1)+1 = about 2-3x the pipeline bytes of
        // replication 1 (which only has the off-node hops of non-local
        // first replicas: zero, since writers are DataNodes).
        assert_eq!(totals[0], 0, "replication 1 from a DataNode is all-local");
        assert!(
            totals[1] > (1u64 << 29),
            "replication 3 moved {}",
            totals[1]
        );
    }

    #[test]
    fn locality_counters_cover_all_maps() {
        let (_, c, _) = run(JobSpec::new(Workload::WordCount, 2 << 30), 5);
        assert_eq!(c.local_maps + c.rack_local_maps + c.remote_maps, c.maps);
        // Replication 3 on 8 nodes: most maps should be data-local.
        assert!(c.local_maps * 2 > c.maps, "{c:?}");
    }

    #[test]
    fn failure_injection_reexecutes_maps() {
        let cluster = ClusterSpec::racks(2, 4);
        let job = JobSpec::new(Workload::TeraSort, 2 << 30);
        let run = |prob: f64| {
            let config = HadoopConfig {
                task_failure_prob: prob,
                ..HadoopConfig::default()
            };
            let (end, counters, _) = simulate(&cluster, &config, &job, 17, &FaultSpec::empty());
            (end, counters)
        };
        let (end_clean, clean) = run(0.0);
        let (end_faulty, faulty) = run(0.3);
        assert_eq!(clean.failed_map_attempts, 0);
        assert!(faulty.failed_map_attempts > 0, "{faulty:?}");
        // Tasks (not attempts) are conserved.
        assert_eq!(clean.maps, faulty.maps);
        // Recovery work stretches the job.
        assert!(end_faulty > end_clean, "{end_faulty} vs {end_clean}");
    }

    #[test]
    fn teragen_is_write_only() {
        let (end, c, mut net) = run(JobSpec::new(Workload::TeraGen, 2 << 30), 21);
        assert_eq!(c.maps, 16);
        assert_eq!(c.reducers, 0);
        assert_eq!(c.hdfs_read_bytes, 0, "teragen reads nothing");
        assert_eq!(c.shuffle_bytes, 0, "teragen shuffles nothing");
        // Replication 3 puts ~2x the dataset on the wire.
        assert!(
            c.hdfs_write_bytes > 3 << 30,
            "write bytes {}",
            c.hdfs_write_bytes
        );
        assert!(end > SimTime::from_secs(5));
        // The capture classifies everything as write or control.
        use keddah_flowcap::{classify, Component};
        let mut flows = net.take_log().flows();
        classify::classify_all(&mut flows);
        assert!(flows
            .iter()
            .all(|f| matches!(f.component, Some(Component::HdfsWrite | Component::Control))));
    }

    #[test]
    fn teragen_with_failures_completes() {
        let cluster = ClusterSpec::racks(2, 3);
        let config = HadoopConfig {
            task_failure_prob: 0.25,
            ..HadoopConfig::default()
        };
        let job = JobSpec::new(Workload::TeraGen, 1 << 30);
        let (end, counters, _) = simulate(&cluster, &config, &job, 5, &FaultSpec::empty());
        assert!(counters.failed_map_attempts > 0);
        assert_eq!(counters.maps, 8);
        assert!(end > SimTime::from_secs(2));
    }

    #[test]
    fn speculation_launches_backups_for_stragglers() {
        let cluster = ClusterSpec::racks(2, 4);
        let job = JobSpec::new(Workload::TeraSort, 4 << 30);
        let run = |speculate: bool| {
            let config = HadoopConfig {
                speculative_execution: speculate,
                // Strong straggler noise so backups have something to chase.
                task_noise_sigma: 0.6,
                ..HadoopConfig::default()
            };
            let (end, counters, _) = simulate(&cluster, &config, &job, 31, &FaultSpec::empty());
            (end, counters)
        };
        let (_, base) = run(false);
        let (_, spec) = run(true);
        assert_eq!(base.speculative_attempts, 0);
        assert!(spec.speculative_attempts > 0, "{spec:?}");
        // Tasks (not attempts) are conserved either way.
        assert_eq!(base.maps, spec.maps);
    }

    #[test]
    fn speculation_with_failures_still_completes() {
        let cluster = ClusterSpec::racks(2, 3);
        let config = HadoopConfig {
            speculative_execution: true,
            task_failure_prob: 0.2,
            task_noise_sigma: 0.5,
            ..HadoopConfig::default()
        };
        let job = JobSpec::new(Workload::PageRank, 1 << 30);
        let (end, counters, _) = simulate(&cluster, &config, &job, 13, &FaultSpec::empty());
        assert!(end > SimTime::from_secs(5));
        assert_eq!(counters.rounds, 3);
    }

    #[test]
    fn failure_injection_is_deterministic() {
        let cluster = ClusterSpec::racks(2, 2);
        let config = HadoopConfig {
            task_failure_prob: 0.25,
            ..HadoopConfig::default()
        };
        let job = JobSpec::new(Workload::WordCount, 1 << 30);
        let go = || {
            let (end, counters, mut net) =
                simulate(&cluster, &config, &job, 77, &FaultSpec::empty());
            (end, counters, net.take_log())
        };
        let (e1, c1, p1) = go();
        let (e2, c2, p2) = go();
        assert_eq!(e1, e2);
        assert_eq!(c1, c2);
        assert_eq!(p1, p2);
    }

    fn fault_spec(events: Vec<(u64, FaultKind)>) -> FaultSpec {
        FaultSpec {
            faults: events
                .into_iter()
                .map(|(secs, kind)| keddah_faults::TimedFault {
                    at_nanos: secs * 1_000_000_000,
                    kind,
                })
                .collect(),
        }
    }

    fn run_faulted(job: JobSpec, seed: u64, spec: &FaultSpec) -> (SimTime, JobCounters, NetModel) {
        let cluster = ClusterSpec::racks(2, 3);
        let config = HadoopConfig::default();
        let (end, counters, net) = simulate(&cluster, &config, &job, seed, spec);
        (end, counters, net)
    }

    #[test]
    fn node_crash_triggers_rereplication_and_stretches_the_job() {
        let job = JobSpec::new(Workload::TeraSort, 1 << 30);
        let (end_clean, clean, _) = run_faulted(job.clone(), 7, &FaultSpec::empty());
        // Crash early enough to land mid-job (AM startup is 2 s).
        let spec = fault_spec(vec![(10, FaultKind::NodeCrash { node: 2 })]);
        let (end_faulty, faulty, _) = run_faulted(job, 7, &spec);
        assert_eq!(clean.node_crashes, 0);
        assert_eq!(clean.rereplicated_blocks, 0);
        assert_eq!(faulty.node_crashes, 1);
        // 8 input blocks x 3 replicas over 6 workers: the dead node held
        // some replicas, and each costs a recovery copy.
        assert!(faulty.rereplicated_blocks > 0, "{faulty:?}");
        assert_eq!(
            u64::from(faulty.rereplication_flows),
            u64::from(faulty.rereplicated_blocks)
        );
        assert!(faulty.rereplicated_bytes > 0);
        // Tasks (not attempts) are conserved; recovery stretches the job.
        assert_eq!(clean.maps, faulty.maps);
        assert!(end_faulty > end_clean, "{end_faulty} vs {end_clean}");
    }

    #[test]
    fn crash_and_recover_completes_all_work() {
        let job = JobSpec::new(Workload::TeraSort, 1 << 30);
        let spec = fault_spec(vec![
            (5, FaultKind::NodeCrash { node: 1 }),
            (40, FaultKind::NodeRecover { node: 1 }),
        ]);
        let (end, counters, net) = run_faulted(job.clone(), 3, &spec);
        let (_, clean, _) = run_faulted(job, 3, &FaultSpec::empty());
        assert_eq!(counters.maps, clean.maps, "every map task still runs");
        assert_eq!(counters.rounds, clean.rounds);
        assert!(end > SimTime::from_secs(5));
        assert!(net.captured() > 100);
    }

    #[test]
    fn link_faults_are_ignored_by_the_capture_layer() {
        let job = JobSpec::new(Workload::WordCount, 512 << 20);
        let spec = fault_spec(vec![
            (5, FaultKind::LinkDown { link: 0 }),
            (
                8,
                FaultKind::LinkDegraded {
                    link: 1,
                    factor: 0.5,
                },
            ),
        ]);
        let (e1, c1, mut n1) = run_faulted(job.clone(), 9, &spec);
        let (e2, c2, mut n2) = run_faulted(job, 9, &FaultSpec::empty());
        assert_eq!(e1, e2);
        assert_eq!(c1, c2);
        assert_eq!(n1.take_log(), n2.take_log());
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let job = JobSpec::new(Workload::PageRank, 256 << 20);
        let spec = fault_spec(vec![
            (8, FaultKind::NodeCrash { node: 3 }),
            (60, FaultKind::NodeRecover { node: 3 }),
        ]);
        let (e1, c1, mut n1) = run_faulted(job.clone(), 11, &spec);
        let (e2, c2, mut n2) = run_faulted(job, 11, &spec);
        assert_eq!(e1, e2);
        assert_eq!(c1, c2);
        assert_eq!(n1.take_log(), n2.take_log());
    }

    #[test]
    fn determinism_same_seed() {
        let (e1, c1, mut n1) = run(JobSpec::new(Workload::PageRank, 256 << 20), 7);
        let (e2, c2, mut n2) = run(JobSpec::new(Workload::PageRank, 256 << 20), 7);
        assert_eq!(e1, e2);
        assert_eq!(c1, c2);
        assert_eq!(n1.take_log(), n2.take_log());
    }

    #[test]
    fn different_seeds_differ() {
        let (e1, _, _) = run(JobSpec::new(Workload::TeraSort, 1 << 30), 10);
        let (e2, _, _) = run(JobSpec::new(Workload::TeraSort, 1 << 30), 11);
        assert_ne!(e1, e2);
    }
}
