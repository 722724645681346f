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

use std::collections::{HashMap, HashSet};

use keddah_des::{Duration, Engine, EventQueue, SimTime};
use keddah_faults::{FaultKind, FaultSpec};
use keddah_flowcap::{ports, NodeId};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::Rng;

use crate::cluster::ClusterSpec;
use crate::config::HadoopConfig;
use crate::dag::{EdgeSource, JobDag, StageSpec, TransferKind};
use crate::hdfs::{Block, Hdfs};
use crate::net::{NetModel, Payload};

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
    pub fn to_map(&self) -> std::collections::BTreeMap<String, u64> {
        let mut m = std::collections::BTreeMap::new();
        m.insert("maps".to_string(), u64::from(self.maps));
        m.insert("local_maps".to_string(), u64::from(self.local_maps));
        m.insert(
            "rack_local_maps".to_string(),
            u64::from(self.rack_local_maps),
        );
        m.insert("remote_maps".to_string(), u64::from(self.remote_maps));
        m.insert("reducers".to_string(), u64::from(self.reducers));
        m.insert("rounds".to_string(), u64::from(self.rounds));
        m.insert("hdfs_read_bytes".to_string(), self.hdfs_read_bytes);
        m.insert("shuffle_bytes".to_string(), self.shuffle_bytes);
        m.insert("hdfs_write_bytes".to_string(), self.hdfs_write_bytes);
        // Only present when a broadcast edge actually moved bytes:
        // committed pre-DAG fixtures embed this map in their metadata
        // and must keep parsing (and re-capturing) byte-identically.
        if self.broadcast_bytes > 0 {
            m.insert("broadcast_bytes".to_string(), self.broadcast_bytes);
        }
        m.insert("local_fetches".to_string(), u64::from(self.local_fetches));
        m.insert(
            "failed_map_attempts".to_string(),
            u64::from(self.failed_map_attempts),
        );
        m.insert(
            "speculative_attempts".to_string(),
            u64::from(self.speculative_attempts),
        );
        m.insert("node_crashes".to_string(), u64::from(self.node_crashes));
        m.insert(
            "fault_killed_attempts".to_string(),
            u64::from(self.fault_killed_attempts),
        );
        m.insert(
            "rereplicated_blocks".to_string(),
            u64::from(self.rereplicated_blocks),
        );
        m.insert("rereplicated_bytes".to_string(), self.rereplicated_bytes);
        m.insert(
            "rereplication_flows".to_string(),
            u64::from(self.rereplication_flows),
        );
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
pub(crate) struct NodeFault {
    pub at: SimTime,
    pub node: NodeId,
    pub down: bool,
}

/// Extracts the time-ordered worker crash/recover events a fault spec
/// holds for a cluster of `worker_count` workers. Events naming the
/// master (node 0) or out-of-range nodes are dropped: losing the
/// NameNode/ResourceManager kills the job rather than degrading it, and
/// that failure mode is out of scope (see `DESIGN.md`).
pub(crate) fn node_faults(spec: &FaultSpec, worker_count: u32) -> Vec<NodeFault> {
    spec.schedule()
        .events()
        .iter()
        .filter_map(|ev| match ev.kind {
            FaultKind::NodeCrash { node } if (1..=worker_count).contains(&node) => {
                Some(NodeFault {
                    at: ev.at(),
                    node: NodeId(node),
                    down: true,
                })
            }
            FaultKind::NodeRecover { node } if (1..=worker_count).contains(&node) => {
                Some(NodeFault {
                    at: ev.at(),
                    node: NodeId(node),
                    down: false,
                })
            }
            _ => None,
        })
        .collect()
}

/// A task's lifetime on a node, recorded for umbilical control traffic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TaskInterval {
    pub node: NodeId,
    pub start: SimTime,
    pub end: SimTime,
}

/// Result of one DAG stage.
pub(crate) struct StageResult {
    pub end: SimTime,
    pub output_blocks: Vec<Block>,
}

/// How a map attempt ingests its input block — decided per block by the
/// [`TransferKind`] of the DAG edge that delivered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MapInput {
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

#[derive(Debug)]
struct MapState {
    block: Block,
    /// How this map reads `block` (from the feeding edge's kind).
    input: MapInput,
    /// In-flight attempts: (attempt id, node).
    running: Vec<(u32, NodeId)>,
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

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Fires once at round start to run the initial scheduling pass; all
    /// later events descend from it, so the whole round lives on the
    /// engine's clock.
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
    FetchDone {
        reduce: usize,
        map: usize,
        from: NodeId,
        attempt: u32,
        bytes: u64,
    },
    ReduceComputeDone {
        reduce: usize,
        attempt: u32,
    },
    ReduceDone {
        reduce: usize,
        attempt: u32,
    },
    /// A scheduled node crash/recover (index into the round's fault
    /// slice) reaching its firing time.
    NodeFault {
        idx: usize,
    },
}

/// One DAG stage (a map wave, optionally shuffling into reducers).
pub(crate) struct StageSim<'a> {
    cluster: &'a ClusterSpec,
    config: &'a HadoopConfig,
    stage: &'a StageSpec,
    hdfs: &'a Hdfs,
    net: &'a mut NetModel,
    rng: &'a mut StdRng,
    counters: &'a mut JobCounters,
    tasks: &'a mut Vec<TaskInterval>,
    am_node: NodeId,
    /// The job's full node-fault timeline; this stage schedules the
    /// not-yet-applied tail (`fault_cursor..`) as DES events.
    faults: &'a [NodeFault],
    fault_cursor: &'a mut usize,
    /// Workers currently dead, shared across stages.
    down: &'a mut HashSet<NodeId>,
    /// Latest time real (non-fault) work happened; the stage's end.
    /// `engine.now()` would count ignored fault events queued past it.
    round_end: SimTime,
    /// Broadcast side-input blocks every map attempt pulls a copy of.
    broadcast: Vec<Block>,

    maps: Vec<MapState>,
    pending_maps: Vec<usize>,
    reducers: Vec<ReduceState>,
    pending_reducers: Vec<usize>,
    reducers_released: bool,
    running_reducers: u32,
    free_slots: HashMap<NodeId, u32>,
    completed_maps: usize,
    completed_reducers: usize,
    output_blocks: Vec<Block>,
    map_starts: HashMap<(usize, u32), SimTime>,
    reduce_starts: HashMap<usize, SimTime>,
}

impl<'a> StageSim<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cluster: &'a ClusterSpec,
        config: &'a HadoopConfig,
        stage: &'a StageSpec,
        hdfs: &'a Hdfs,
        net: &'a mut NetModel,
        rng: &'a mut StdRng,
        counters: &'a mut JobCounters,
        tasks: &'a mut Vec<TaskInterval>,
        am_node: NodeId,
        input_blocks: Vec<(Block, MapInput)>,
        broadcast: Vec<Block>,
        faults: &'a [NodeFault],
        fault_cursor: &'a mut usize,
        down: &'a mut HashSet<NodeId>,
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
            config.reducers as usize
        };
        let map_count = maps.len();
        let reducers: Vec<ReduceState> = (0..reducer_count)
            .map(|_| ReduceState {
                node: None,
                fetched_from: vec![false; map_count],
                input_bytes: 0,
                compute_scheduled: false,
                done: false,
                attempt: 0,
                written: None,
            })
            .collect();
        let pending_reducers: Vec<usize> = (0..reducers.len()).collect();
        let free_slots = cluster
            .workers()
            .filter(|w| !down.contains(w))
            .map(|w| (w, config.slots_per_node))
            .collect();
        StageSim {
            cluster,
            config,
            stage,
            hdfs,
            net,
            rng,
            counters,
            tasks,
            am_node,
            faults,
            fault_cursor,
            down,
            round_end: SimTime::ZERO,
            broadcast,
            maps,
            pending_maps,
            reducers,
            pending_reducers,
            reducers_released: false,
            running_reducers: 0,
            free_slots,
            completed_maps: 0,
            completed_reducers: 0,
            output_blocks: Vec::new(),
            map_starts: HashMap::new(),
            reduce_starts: HashMap::new(),
        }
    }

    /// Multiplicative log-normal noise with the configured sigma scaled by
    /// `scale` (approximate standard normal from an Irwin–Hall sum; the
    /// simulator needs jitter, not exact normality).
    fn noise(&mut self, scale: f64) -> f64 {
        let z: f64 = (0..12).map(|_| self.rng.random::<f64>()).sum::<f64>() - 6.0;
        (self.config.task_noise_sigma * scale * z).exp()
    }

    /// Runs the stage to completion on a [`keddah_des::Engine`], starting
    /// task scheduling at `start` (via a [`Event::Kick`] event — the same
    /// engine-driven loop the replay simulator uses).
    pub(crate) fn run(mut self, start: SimTime) -> StageResult {
        let mut engine: Engine<Event> = Engine::new();
        self.round_end = start;
        engine.schedule(start, Event::Kick);
        engine.run(|now, ev, queue| {
            if !matches!(ev, Event::NodeFault { .. }) {
                self.round_end = self.round_end.max(now);
            }
            match ev {
                Event::Kick => {
                    // Queue the not-yet-applied fault timeline; events
                    // landing after the round's work finishes are ignored
                    // (and re-queued by the next round, which reads the
                    // shared cursor).
                    for idx in *self.fault_cursor..self.faults.len() {
                        queue.push(self.faults[idx].at.max(now), Event::NodeFault { idx });
                    }
                    self.schedule_tasks(now, queue);
                }
                Event::MapDone { map, attempt } => self.on_map_done(map, attempt, now, queue),
                Event::MapComputeDone { map, attempt } => {
                    self.on_map_compute_done(map, attempt, now, queue)
                }
                Event::MapFailed { map, attempt } => self.on_map_failed(map, attempt, now, queue),
                Event::FetchDone {
                    reduce,
                    map,
                    from,
                    attempt,
                    bytes,
                } => self.on_fetch_done(reduce, map, from, attempt, bytes, now, queue),
                Event::ReduceComputeDone { reduce, attempt } => {
                    self.on_reduce_compute_done(reduce, attempt, now, queue)
                }
                Event::ReduceDone { reduce, attempt } => {
                    self.on_reduce_done(reduce, attempt, now, queue)
                }
                Event::NodeFault { idx } => self.on_node_fault(idx, now, queue),
            }
        });
        let end = self.round_end.max(start);
        if self.faults.is_empty() {
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
        if idx != *self.fault_cursor || self.round_complete() {
            return;
        }
        *self.fault_cursor += 1;
        let fault = self.faults[idx];
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
        if !self.down.insert(n) {
            return;
        }
        self.free_slots.remove(&n);
        // Kill running map attempts on the dead node. No blacklist and
        // no slot release: the node is gone, and losing a node is not
        // the task's fault.
        for m in 0..self.maps.len() {
            let victims: Vec<u32> = self.maps[m]
                .running
                .iter()
                .filter(|&&(_, node)| node == n)
                .map(|&(a, _)| a)
                .collect();
            for a in victims {
                let pos = self.maps[m]
                    .running
                    .iter()
                    .position(|&(x, _)| x == a)
                    .expect("victim is running");
                self.maps[m].running.remove(pos);
                let task_start = self.map_starts[&(m, a)];
                self.tasks.push(TaskInterval {
                    node: n,
                    start: task_start,
                    end: now,
                });
                self.counters.fault_killed_attempts += 1;
            }
            if !self.maps[m].done
                && self.maps[m].running.is_empty()
                && !self.pending_maps.contains(&m)
            {
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
                let task_start = self.reduce_starts[&r];
                self.tasks.push(TaskInterval {
                    node: n,
                    start: task_start,
                    end: now,
                });
                self.counters.fault_killed_attempts += 1;
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
        if !self.down.remove(&n) {
            return;
        }
        self.free_slots.insert(n, self.config.slots_per_node);
        self.schedule_tasks(now, queue);
    }

    /// Greedy slot filler mirroring a capacity scheduler with delay
    /// scheduling: node-local maps first (each local match can be missed
    /// with probability `locality_miss`, modelling expired scheduling
    /// opportunities), then strict FIFO placement of whatever remains,
    /// then reducers up to the ramp-up cap.
    fn schedule_tasks(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        // Pass 1: node-local maps. Each local candidate gets exactly one
        // scheduling opportunity per invocation; a missed roll defers it
        // to the FIFO pass (delay-scheduling expiry).
        let workers: Vec<NodeId> = self.cluster.workers().collect();
        for &node in &workers {
            let local: Vec<usize> = self
                .pending_maps
                .iter()
                .copied()
                .filter(|&m| {
                    self.maps[m].block.replicas.contains(&node)
                        && !self.maps[m].blacklist.contains(&node)
                })
                .collect();
            for m in local {
                if !self.slot_free(node) {
                    break;
                }
                if self.rng.random::<f64>() < self.config.locality_miss {
                    continue; // opportunity missed; falls to pass 2
                }
                let pos = self
                    .pending_maps
                    .iter()
                    .position(|&x| x == m)
                    .expect("candidate is pending");
                self.pending_maps.remove(pos);
                self.launch_map(m, node, now, queue);
            }
        }
        // Pass 2: FIFO — the first pending map not blacklisted on the
        // node goes to the first node with a free slot, locality or not
        // (replica selection at read time still prefers a rack-local
        // source).
        for &node in &workers {
            while self.slot_free(node) {
                let Some(pos) = self
                    .pending_maps
                    .iter()
                    .position(|&m| !self.maps[m].blacklist.contains(&node))
                else {
                    break;
                };
                let m = self.pending_maps.remove(pos);
                self.launch_map(m, node, now, queue);
            }
        }
        // Pass 3: reducers (after slow-start), capped at half the cluster
        // slots while maps are still pending so maps keep priority.
        if self.reducers_released {
            let total_slots = self.cluster.worker_count() * self.config.slots_per_node;
            for &node in &workers {
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

    fn slot_free(&self, node: NodeId) -> bool {
        self.free_slots.get(&node).copied().unwrap_or(0) > 0
    }

    fn take_slot(&mut self, node: NodeId) {
        let slots = self.free_slots.get_mut(&node).expect("known worker");
        assert!(*slots > 0, "launching on a full node");
        *slots -= 1;
    }

    fn release_slot(&mut self, node: NodeId) {
        *self.free_slots.get_mut(&node).expect("known worker") += 1;
    }

    /// Selects the serving replica for map `m`'s input block on `node`.
    fn pick_replica(&mut self, m: usize, node: NodeId, uniform: bool) -> Option<NodeId> {
        let block = self.maps[m].block.clone();
        self.select_live_replica(&block, node, uniform)
    }

    /// Selects a replica of `block` to serve a read on `node`, skipping
    /// dead nodes: locality-preferring (`uniform == false`, the HDFS
    /// ladder — no RNG draw when the block is node-local) or uniformly
    /// random among live replicas (`uniform == true`, the data-grid
    /// access pattern, which may still land on `node` and read locally).
    /// `None` means the read is local (or the data is gone).
    fn select_live_replica(
        &mut self,
        block: &Block,
        node: NodeId,
        uniform: bool,
    ) -> Option<NodeId> {
        let filtered;
        let block = if self.down.is_empty() {
            block
        } else {
            filtered = Block {
                bytes: block.bytes,
                replicas: block
                    .replicas
                    .iter()
                    .copied()
                    .filter(|r| !self.down.contains(r))
                    .collect(),
            };
            if filtered.replicas.is_empty() {
                return None;
            }
            &filtered
        };
        if uniform {
            let &choice = block.replicas.as_slice().choose(self.rng)?;
            if choice == node {
                None
            } else {
                Some(choice)
            }
        } else {
            self.hdfs.select_read_replica(block, node, self.rng)
        }
    }

    fn launch_map(&mut self, m: usize, node: NodeId, now: SimTime, queue: &mut EventQueue<Event>) {
        self.take_slot(node);
        let attempt = self.maps[m].attempts;
        self.maps[m].attempts += 1;
        self.maps[m].running.push((attempt, node));
        self.map_starts.insert((m, attempt), now);
        if attempt == 0 {
            self.counters.maps += 1;
        }

        let block_bytes = self.maps[m].block.bytes;
        let mut read_done = match self.maps[m].input {
            MapInput::Generate => {
                // In-place ingest (pipe edges, TeraGen-style generators):
                // input is synthesized locally, no read and no
                // block-location lookup.
                self.counters.local_maps += 1;
                now
            }
            MapInput::Hdfs => {
                // NameNode RPC: getBlockLocations.
                self.net.exchange(
                    now,
                    node,
                    self.cluster.master(),
                    ports::NAMENODE_RPC,
                    300,
                    600,
                );
                // Input: local disk or an HDFS read over the network. With
                // nodes down, only live replicas can serve; a block with no
                // live replica at all reads as a local re-ingest (the data
                // is gone — a real job would fail here, which is out of
                // scope; see `DESIGN.md`).
                match self.pick_replica(m, node, false) {
                    None => {
                        self.counters.local_maps += 1;
                        now
                    }
                    Some(source) => {
                        if self.cluster.same_rack(source, node) {
                            self.counters.rack_local_maps += 1;
                        } else {
                            self.counters.remote_maps += 1;
                        }
                        self.counters.hdfs_read_bytes += block_bytes;
                        self.net.transfer(
                            now,
                            node,
                            source,
                            ports::DATANODE_XFER,
                            block_bytes,
                            Payload::ToClient,
                        )
                    }
                }
            }
            MapInput::Remote => {
                // Data-grid access: catalogue lookup, then a uniformly
                // random live replica — the job landed wherever a slot
                // was free and pulls its dataset across the fabric.
                self.net.exchange(
                    now,
                    node,
                    self.cluster.master(),
                    ports::NAMENODE_RPC,
                    300,
                    600,
                );
                match self.pick_replica(m, node, true) {
                    None => {
                        self.counters.local_maps += 1;
                        now
                    }
                    Some(source) => {
                        if self.cluster.same_rack(source, node) {
                            self.counters.rack_local_maps += 1;
                        } else {
                            self.counters.remote_maps += 1;
                        }
                        self.counters.hdfs_read_bytes += block_bytes;
                        self.net.transfer(
                            now,
                            node,
                            source,
                            ports::DATANODE_XFER,
                            block_bytes,
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
                match self.pick_replica(m, node, false) {
                    None => {
                        self.counters.local_fetches += 1;
                        now
                    }
                    Some(source) => {
                        self.counters.shuffle_bytes += block_bytes;
                        self.net.transfer(
                            now,
                            node,
                            source,
                            ports::SHUFFLE,
                            block_bytes,
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
        for i in 0..self.broadcast.len() {
            let block = self.broadcast[i].clone();
            let replica = self.select_live_replica(&block, node, false);
            if let Some(source) = replica {
                self.counters.broadcast_bytes += block.bytes;
                let f = self.net.transfer(
                    now,
                    node,
                    source,
                    ports::BROADCAST,
                    block.bytes,
                    Payload::ToClient,
                );
                read_done = read_done.max(f);
            }
        }

        let compute_secs = self.config.task_overhead_secs
            + block_bytes as f64 * self.stage.cpu_factor / self.config.map_rate_bps;
        let noise = self.noise(1.0);
        let compute = Duration::from_secs_f64(compute_secs * noise);
        // Failure injection: an attempt may die partway and be
        // re-executed, unless it is the task's last permitted attempt.
        let fails = self.maps[m].attempts < self.config.max_task_attempts
            && self.rng.random::<f64>() < self.config.task_failure_prob;
        if fails {
            let frac = 0.2 + 0.7 * self.rng.random::<f64>();
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
            .find(|&&(a, _)| a == attempt)
            .map(|&(_, n)| n)
        else {
            // The attempt was killed by a node crash after its compute
            // event was queued; nothing to commit.
            return;
        };
        let out_noise = self.noise(0.2);
        let output = ((self.maps[m].block.bytes as f64 * self.stage.map_selectivity * out_noise)
            as u64)
            .max(MIN_MAP_OUTPUT);
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
        let pos = self.maps[m].running.iter().position(|&(a, _)| a == attempt);
        debug_assert!(
            pos.is_some() || !self.faults.is_empty(),
            "map {m} attempt {attempt} vanished without a fault schedule"
        );
        let (_, node) = self.maps[m].running.remove(pos?);
        self.release_slot(node);
        let start = self.map_starts[&(m, attempt)];
        self.tasks.push(TaskInterval {
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
        self.counters.failed_map_attempts += 1;
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
        let out_noise = self.noise(0.5);
        let output = ((self.maps[m].block.bytes as f64 * self.stage.map_selectivity * out_noise)
            as u64)
            .max(MIN_MAP_OUTPUT);
        self.maps[m].done = true;
        self.maps[m].winner = Some(node);
        self.maps[m].output_bytes = output;
        self.completed_maps += 1;

        // Slow-start: release reducers once enough maps completed.
        let threshold = (self.config.slowstart * self.maps.len() as f64)
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
        if !self.config.speculative_execution {
            return;
        }
        let threshold =
            (self.config.speculation_threshold * self.maps.len() as f64).ceil() as usize;
        if self.completed_maps < threshold.max(1) {
            return;
        }
        let stragglers: Vec<usize> = (0..self.maps.len())
            .filter(|&m| {
                !self.maps[m].done && !self.maps[m].speculated && self.maps[m].running.len() == 1
            })
            .collect();
        let workers: Vec<NodeId> = self.cluster.workers().collect();
        for m in stragglers {
            let busy = self.maps[m].running[0].1;
            let Some(&node) = workers.iter().find(|&&w| w != busy && self.slot_free(w)) else {
                return; // cluster is full; try again on the next completion
            };
            self.maps[m].speculated = true;
            self.counters.speculative_attempts += 1;
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
        self.reduce_starts.insert(r, now);
        self.running_reducers += 1;
        self.counters.reducers += 1;
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
        let skew = self.noise(0.8);
        let bytes = ((base as f64 * skew) as u64).max(64);
        let map_node = self.maps[m].winner.expect("finished map has a winner");
        let reduce_node = self.reducers[r].node.expect("running reducer has a node");
        if map_node == reduce_node {
            // Local fetch: served from disk, invisible on the wire.
            self.counters.local_fetches += 1;
            self.reducers[r].fetched_from[m] = true;
            self.reducers[r].input_bytes += bytes;
            self.check_reduce_ready(r, now, queue);
        } else {
            self.counters.shuffle_bytes += bytes;
            let finish = self.net.transfer(
                now,
                reduce_node,
                map_node,
                ports::SHUFFLE,
                bytes,
                Payload::ToClient,
            );
            queue.push(
                finish,
                Event::FetchDone {
                    reduce: r,
                    map: m,
                    from: map_node,
                    attempt: self.reducers[r].attempt,
                    bytes,
                },
            );
        }
    }

    /// A shuffle fetch drains. Stale completions are dropped: the
    /// reducer restarted on another node (attempt mismatch), the serving
    /// map was invalidated or re-won elsewhere (its source died
    /// mid-shuffle), or this partition was already re-fetched.
    #[allow(clippy::too_many_arguments)]
    fn on_fetch_done(
        &mut self,
        r: usize,
        m: usize,
        from: NodeId,
        attempt: u32,
        bytes: u64,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) {
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
        let compute_secs = self.config.task_overhead_secs
            + state.input_bytes as f64 * self.stage.cpu_factor / self.config.reduce_rate_bps;
        let noise = self.noise(1.0);
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
    /// replication pipelines, recording the resulting blocks for the
    /// next round. Returns when the last pipeline drains.
    fn write_output(&mut self, node: NodeId, output: u64, start: SimTime) -> SimTime {
        let mut finish = start;
        if output == 0 {
            return finish;
        }
        let n_blocks = output.div_ceil(self.config.block_bytes);
        let mut write_at = start;
        for b in 0..n_blocks {
            let bytes = if b == n_blocks - 1 {
                output - self.config.block_bytes * (n_blocks - 1)
            } else {
                self.config.block_bytes
            };
            // NameNode RPC: addBlock.
            self.net.exchange(
                write_at,
                node,
                self.cluster.master(),
                ports::NAMENODE_RPC,
                400,
                700,
            );
            let targets = if self.down.is_empty() {
                self.hdfs
                    .pipeline_targets(node, self.config.replication, self.rng)
            } else {
                self.hdfs.pipeline_targets_avoiding(
                    node,
                    self.config.replication,
                    self.rng,
                    self.down,
                )
            };
            // Pipeline hops: writer -> t0 is local when t0 == writer;
            // each subsequent hop is a network flow.
            let mut hop_finish = write_at;
            let mut upstream = node;
            for &target in &targets {
                if target != upstream {
                    self.counters.hdfs_write_bytes += bytes;
                    let f = self.net.transfer(
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
        let start = self.reduce_starts[&r];
        self.tasks.push(TaskInterval {
            node,
            start,
            end: now,
        });
        // Task completion report to the AM.
        self.net
            .exchange(now, node, self.am_node, ports::AM_UMBILICAL, 500, 200);
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

/// Simulates a [`JobDag`]: submission, AM startup, every stage in
/// topological order over the bytes its in-edges deliver, then the
/// re-replication and control planes over the whole span.
///
/// The job starts at `start` and consumes `input_blocks` (a previous
/// job's output, for chained sessions) or, when `None`, freshly placed
/// input. Node crashes and recoveries in `faults` fire as DES events
/// inside the stages (killing attempts, invalidating map output,
/// restarting reducers), and every crash that costs a stored block a
/// replica triggers NameNode-commanded re-replication traffic after the
/// heartbeat-expiry delay. An empty `faults` slice takes exactly the
/// clean path — same RNG draws, same events, byte-identical capture.
///
/// The caller provides the shared [`NetModel`] tap; the connections it
/// logs are the capture.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_dag_at_faulted(
    cluster: &ClusterSpec,
    config: &HadoopConfig,
    dag: &JobDag,
    input_bytes: u64,
    net: &mut NetModel,
    rng: &mut StdRng,
    counters: &mut JobCounters,
    start: SimTime,
    input_blocks: Option<Vec<Block>>,
    faults: &[NodeFault],
) -> DagOutcome {
    let hdfs = Hdfs::new(cluster.clone());
    let master = cluster.master();
    let am_node = NodeId(1 + (rng.random::<u32>() % cluster.worker_count()));

    // Job submission and AM launch.
    net.exchange(start, master, master, ports::RM_CLIENT, 2_000, 500);
    net.exchange(
        start + Duration::from_millis(100),
        master,
        am_node,
        ports::NM_CONTAINER,
        1_500,
        300,
    );
    let mut tasks: Vec<TaskInterval> = Vec::new();

    let original_blocks = input_blocks.unwrap_or_else(|| {
        hdfs.place_file(input_bytes, config.block_bytes, config.replication, rng)
    });
    let mut t = start + AM_STARTUP;
    let mut job_end = t;
    let mut last_output: Vec<Block> = Vec::new();
    // All blocks the job ever stored (input plus every stage's output):
    // the inventory the re-replication pass scans for lost replicas.
    let mut stored_blocks = original_blocks.clone();
    let mut stage_outputs: Vec<Vec<Block>> = Vec::with_capacity(dag.stages.len());
    let mut stage_stats: Vec<StageStats> = Vec::with_capacity(dag.stages.len());
    let mut fault_cursor = 0usize;
    let mut down: HashSet<NodeId> = HashSet::new();
    for (i, stage) in dag.stages.iter().enumerate() {
        // Faults landing before the stage starts (or between stages)
        // apply directly: the node is simply absent (or back) when
        // scheduling begins.
        while fault_cursor < faults.len() && faults[fault_cursor].at <= t {
            let fault = faults[fault_cursor];
            if fault.down {
                down.insert(fault.node);
            } else {
                down.remove(&fault.node);
            }
            fault_cursor += 1;
        }
        counters.rounds += 1;
        // Resolve the stage's in-edges to concrete input blocks, each
        // tagged with the read mode its edge implies; broadcast edges
        // become side-input payloads every map pulls.
        let mut inputs: Vec<(Block, MapInput)> = Vec::new();
        let mut broadcast: Vec<Block> = Vec::new();
        for edge in dag.in_edges(i) {
            let source_blocks: &[Block] = match edge.from {
                EdgeSource::JobInput => &original_blocks,
                // An upstream stage stranded by faults may have produced
                // nothing; fall back to the job input (the legacy
                // engine's empty-round fallback, kept for byte-identity
                // of faulted captures).
                EdgeSource::Stage(p) if stage_outputs[p].is_empty() => &original_blocks,
                EdgeSource::Stage(p) => &stage_outputs[p],
            };
            if edge.kind == TransferKind::Broadcast {
                broadcast.extend(
                    source_blocks
                        .iter()
                        .map(|b| scale_block(b, edge.selectivity)),
                );
            } else {
                let mode = match edge.kind {
                    TransferKind::HdfsRead => MapInput::Hdfs,
                    TransferKind::RemoteRead => MapInput::Remote,
                    TransferKind::Shuffle => MapInput::ShuffleFetch,
                    TransferKind::Pipe | TransferKind::Broadcast => MapInput::Generate,
                };
                inputs.extend(
                    source_blocks
                        .iter()
                        .map(|b| (scale_block(b, edge.selectivity), mode)),
                );
            }
        }
        let before = *counters;
        let stage_input_bytes: u64 = inputs.iter().map(|(b, _)| b.bytes).sum();
        let sim = StageSim::new(
            cluster,
            config,
            stage,
            &hdfs,
            net,
            rng,
            counters,
            &mut tasks,
            am_node,
            inputs,
            broadcast,
            faults,
            &mut fault_cursor,
            &mut down,
        );
        let result = sim.run(t);
        job_end = result.end;
        last_output = result.output_blocks.clone();
        stored_blocks.extend(result.output_blocks.iter().cloned());
        stage_stats.push(StageStats {
            name: stage.name.clone(),
            maps: counters.maps - before.maps,
            reducers: counters.reducers - before.reducers,
            input_bytes: stage_input_bytes,
            output_bytes: result.output_blocks.iter().map(|b| b.bytes).sum(),
            broadcast_bytes: counters.broadcast_bytes - before.broadcast_bytes,
        });
        stage_outputs.push(result.output_blocks);
        t = result.end + ROUND_GAP;
    }

    // HDFS re-replication: each worker crash inside the job's span costs
    // every block it held a replica; once the NameNode notices (heartbeat
    // expiry), a surviving replica holder streams a copy to a fresh node.
    if !faults.is_empty() {
        let master = cluster.master();
        let mut down_now: HashSet<NodeId> = HashSet::new();
        for fault in faults {
            if fault.at > job_end {
                break;
            }
            if !fault.down {
                down_now.remove(&fault.node);
                continue;
            }
            if !down_now.insert(fault.node) {
                continue;
            }
            counters.node_crashes += 1;
            let at = fault.at + REREPLICATION_DELAY;
            for block in &mut stored_blocks {
                if !block.replicas.contains(&fault.node) {
                    continue;
                }
                let live: Vec<NodeId> = block
                    .replicas
                    .iter()
                    .copied()
                    .filter(|n| !down_now.contains(n))
                    .collect();
                // All replicas dead: the block is lost; nothing to copy.
                let Some(&source) = live.first() else {
                    continue;
                };
                let candidates: Vec<NodeId> = cluster
                    .workers()
                    .filter(|w| !down_now.contains(w) && !block.replicas.contains(w))
                    .collect();
                let Some(&target) = candidates.as_slice().choose(rng) else {
                    continue; // no spare node to hold a new replica
                };
                net.exchange(at, source, master, ports::NAMENODE_RPC, 300, 500);
                net.transfer(
                    at,
                    source,
                    target,
                    ports::DATANODE_XFER,
                    block.bytes,
                    Payload::ToServer,
                );
                counters.rereplicated_blocks += 1;
                counters.rereplicated_bytes += block.bytes;
                counters.rereplication_flows += 1;
                for replica in &mut block.replicas {
                    if *replica == fault.node {
                        *replica = target;
                    }
                }
            }
        }
    }

    // Control plane, generated over the measured job span:
    // NodeManager heartbeats to the RM.
    emit_periodic(
        net,
        rng,
        cluster.workers(),
        master,
        ports::RM_TRACKER,
        config.nm_heartbeat_secs,
        start,
        job_end,
        (600, 900),
        (200, 400),
    );
    // AM <-> RM scheduler heartbeats.
    emit_periodic(
        net,
        rng,
        std::iter::once(am_node),
        master,
        ports::RM_SCHEDULER,
        config.nm_heartbeat_secs,
        start,
        job_end,
        (400, 800),
        (200, 600),
    );
    // Task umbilicals to the AM.
    for interval in &tasks {
        if interval.node == am_node {
            continue;
        }
        let mut at = interval.start;
        while at < interval.end {
            net.exchange(at, interval.node, am_node, ports::AM_UMBILICAL, 300, 150);
            at +=
                Duration::from_secs_f64(config.umbilical_secs * (0.9 + 0.2 * rng.random::<f64>()));
        }
    }
    // Job completion notification.
    net.exchange(job_end, am_node, master, ports::RM_SCHEDULER, 800, 300);
    DagOutcome {
        end: job_end,
        last_output,
        stages: stage_stats,
    }
}

/// Emits periodic request/response control exchanges from each client to
/// `server:port` until `until`, with per-client phase jitter.
#[allow(clippy::too_many_arguments)]
fn emit_periodic(
    net: &mut NetModel,
    rng: &mut StdRng,
    clients: impl Iterator<Item = NodeId>,
    server: NodeId,
    port: u16,
    interval_secs: f64,
    from: SimTime,
    until: SimTime,
    req_range: (u64, u64),
    resp_range: (u64, u64),
) {
    for client in clients {
        let mut at = from + Duration::from_secs_f64(interval_secs * rng.random::<f64>());
        while at < until {
            let req = rng.random_range(req_range.0..=req_range.1);
            let resp = rng.random_range(resp_range.0..=resp_range.1);
            net.exchange(at, client, server, port, req, resp);
            at += Duration::from_secs_f64(interval_secs * (0.95 + 0.1 * rng.random::<f64>()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{JobSpec, Workload};
    use rand::SeedableRng;

    /// Simulates `job`'s DAG from t = 0 on freshly placed input.
    fn job_end(
        cluster: &ClusterSpec,
        config: &HadoopConfig,
        job: &JobSpec,
        net: &mut NetModel,
        rng: &mut StdRng,
        counters: &mut JobCounters,
        faults: &[NodeFault],
    ) -> SimTime {
        let dag = job.workload.dag();
        let outcome = simulate_dag_at_faulted(
            cluster,
            config,
            &dag,
            job.input_bytes,
            net,
            rng,
            counters,
            SimTime::ZERO,
            None,
            faults,
        );
        outcome.end
    }

    fn run(job: JobSpec, seed: u64) -> (SimTime, JobCounters, NetModel) {
        let cluster = ClusterSpec::racks(2, 4);
        let config = HadoopConfig::default();
        let mut net = NetModel::new(cluster.nic_bps);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counters = JobCounters::default();
        let end = job_end(
            &cluster,
            &config,
            &job,
            &mut net,
            &mut rng,
            &mut counters,
            &[],
        );
        (end, counters, net)
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
            let mut net = NetModel::new(cluster.nic_bps);
            let mut rng = StdRng::seed_from_u64(4);
            let mut counters = JobCounters::default();
            job_end(
                &cluster,
                &config,
                &job,
                &mut net,
                &mut rng,
                &mut counters,
                &[],
            );
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
            let mut net = NetModel::new(cluster.nic_bps);
            let mut rng = StdRng::seed_from_u64(17);
            let mut counters = JobCounters::default();
            let end = job_end(
                &cluster,
                &config,
                &job,
                &mut net,
                &mut rng,
                &mut counters,
                &[],
            );
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
        let mut net = NetModel::new(cluster.nic_bps);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counters = JobCounters::default();
        let end = job_end(
            &cluster,
            &config,
            &job,
            &mut net,
            &mut rng,
            &mut counters,
            &[],
        );
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
            let mut net = NetModel::new(cluster.nic_bps);
            let mut rng = StdRng::seed_from_u64(31);
            let mut counters = JobCounters::default();
            let end = job_end(
                &cluster,
                &config,
                &job,
                &mut net,
                &mut rng,
                &mut counters,
                &[],
            );
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
        let mut net = NetModel::new(cluster.nic_bps);
        let mut rng = StdRng::seed_from_u64(13);
        let mut counters = JobCounters::default();
        let end = job_end(
            &cluster,
            &config,
            &job,
            &mut net,
            &mut rng,
            &mut counters,
            &[],
        );
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
            let mut net = NetModel::new(cluster.nic_bps);
            let mut rng = StdRng::seed_from_u64(77);
            let mut counters = JobCounters::default();
            let end = job_end(
                &cluster,
                &config,
                &job,
                &mut net,
                &mut rng,
                &mut counters,
                &[],
            );
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
        let timeline = node_faults(spec, cluster.worker_count());
        let mut net = NetModel::new(cluster.nic_bps);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counters = JobCounters::default();
        let end = job_end(
            &cluster,
            &config,
            &job,
            &mut net,
            &mut rng,
            &mut counters,
            &timeline,
        );
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
