//! DAG-of-stages job model.
//!
//! The original Keddah job shape is a single map→shuffle→reduce round,
//! optionally chained (iterative workloads re-run the round on either
//! the previous round's output or the original input). That shape can't
//! express Pig/Tez pipelines (several shuffle stages back to back),
//! fragment-replicate joins (a broadcast side input), or data-grid
//! analysis jobs (remote reads with no shuffle at all).
//!
//! [`JobDag`] generalises the round into a DAG of [`StageSpec`]s wired
//! by [`DagEdge`]s. Each stage is still executed by the same task-level
//! machinery (maps read input, optionally shuffle into reducers, write
//! HDFS output), so per-stage traffic keeps the paper's component
//! structure; what the DAG adds is *which bytes feed which stage and
//! over which transfer kind*. The legacy workloads are degenerate DAGs
//! — a chain of identical stages — and produce byte-identical traces
//! (see `tests/dag_model.rs`).
//!
//! Stages are stored in topological order by construction: every edge
//! points from [`EdgeSource::JobInput`] or an earlier stage to a later
//! one, which [`JobDag::validate`] enforces. Iterative supersteps are
//! expressed by unrolling: a 3-iteration PageRank is three chained
//! stages.

use serde::{Deserialize, Serialize};

use crate::{HadoopError, Result};

/// How bytes move across a DAG edge into the consuming stage's maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum TransferKind {
    /// Maps read the producer's materialised HDFS blocks: NameNode
    /// lookup per block, replica selection with rack locality, bulk
    /// bytes over the DataNode transfer port when non-local.
    HdfsRead,
    /// Data-grid style remote read: NameNode-equivalent catalogue
    /// lookup, then a *uniformly random* live replica — no locality
    /// preference, the CERN access pattern where the job lands wherever
    /// a slot is free and pulls its dataset across the fabric.
    RemoteRead,
    /// All-to-all repartition: each consumer map fetches its slice of
    /// every producer block over the shuffle port (stage-to-stage
    /// shuffle, the Pig/Tez intermediate edge).
    Shuffle,
    /// One-to-one pipe: the consumer map processes the producer block
    /// in place, no network bytes (same-wave pipelining, and the
    /// generate edge of synthetic sources like teragen).
    Pipe,
    /// Small-side payload replicated to every consumer map over the
    /// broadcast port (fragment-replicate join side input).
    Broadcast,
}

impl TransferKind {
    /// Short snake_case name used by `keddah dag show`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TransferKind::HdfsRead => "hdfs_read",
            TransferKind::RemoteRead => "remote_read",
            TransferKind::Shuffle => "shuffle",
            TransferKind::Pipe => "pipe",
            TransferKind::Broadcast => "broadcast",
        }
    }
}

/// Where a [`DagEdge`] draws its bytes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum EdgeSource {
    /// The job's input file (placed on HDFS before the job starts).
    JobInput,
    /// The materialised output of an earlier stage, by index.
    Stage(usize),
}

/// One dependency edge: `from`'s bytes, scaled by `selectivity`, feed
/// stage `to` over transfer kind `kind`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagEdge {
    /// Byte producer.
    pub from: EdgeSource,
    /// Consuming stage index.
    pub to: usize,
    /// Transfer kind the consumer's maps use to ingest the bytes.
    pub kind: TransferKind,
    /// Fraction of the producer's bytes this edge carries (a projection
    /// or filter applied before the transfer; 1.0 = everything).
    pub selectivity: f64,
}

/// One stage of the DAG: a map wave over the stage's input, optionally
/// followed by a shuffle into reducers, ending in an HDFS output write.
///
/// A paper workload's MapReduce round *is* a stage; an iterative one
/// chains several ([`JobDag::chain`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSpec {
    /// Stage name, shown by `keddah dag show` (e.g. `"join"`).
    pub name: String,
    /// Map output bytes per input byte.
    pub map_selectivity: f64,
    /// Reduce output bytes per shuffled input byte.
    pub reduce_selectivity: f64,
    /// CPU cost multiplier relative to the baseline processing rates.
    pub cpu_factor: f64,
    /// Map-only stage: no shuffle, maps write output directly.
    pub map_only: bool,
}

impl StageSpec {
    /// A shorthand constructor for a full map+reduce stage.
    #[must_use]
    pub fn map_reduce(name: &str, map_sel: f64, reduce_sel: f64, cpu: f64) -> StageSpec {
        StageSpec {
            name: name.to_string(),
            map_selectivity: map_sel,
            reduce_selectivity: reduce_sel,
            cpu_factor: cpu,
            map_only: false,
        }
    }

    /// A shorthand constructor for a map-only stage.
    #[must_use]
    pub fn map_only(name: &str, map_sel: f64, cpu: f64) -> StageSpec {
        StageSpec {
            name: name.to_string(),
            map_selectivity: map_sel,
            reduce_selectivity: 1.0,
            cpu_factor: cpu,
            map_only: true,
        }
    }
}

/// A job expressed as a DAG of stages.
///
/// # Examples
///
/// ```
/// use keddah_hadoop::dag::{DagEdge, EdgeSource, JobDag, StageSpec, TransferKind};
///
/// let dag = JobDag {
///     name: "two_pass".to_string(),
///     stages: vec![
///         StageSpec::map_reduce("pass1", 0.5, 0.5, 1.0),
///         StageSpec::map_reduce("pass2", 1.0, 1.0, 1.0),
///     ],
///     edges: vec![
///         DagEdge {
///             from: EdgeSource::JobInput,
///             to: 0,
///             kind: TransferKind::HdfsRead,
///             selectivity: 1.0,
///         },
///         DagEdge {
///             from: EdgeSource::Stage(0),
///             to: 1,
///             kind: TransferKind::HdfsRead,
///             selectivity: 1.0,
///         },
///     ],
/// };
/// dag.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobDag {
    /// Job name; lands in trace metadata as the workload name.
    pub name: String,
    /// Stages in topological (execution) order.
    pub stages: Vec<StageSpec>,
    /// Dependency edges; every edge points forward.
    pub edges: Vec<DagEdge>,
}

impl JobDag {
    /// Checks the DAG for structural validity: at least one stage, all
    /// edges forward (producer index < consumer index), finite positive
    /// selectivities, and every stage fed by at least one non-broadcast
    /// edge (a stage can't run on side input alone).
    ///
    /// # Errors
    ///
    /// Returns [`HadoopError::InvalidConfig`] naming the violated rule.
    pub fn validate(&self) -> Result<()> {
        if self.stages.is_empty() {
            return Err(HadoopError::InvalidConfig("dag has no stages"));
        }
        for edge in &self.edges {
            if edge.to >= self.stages.len() {
                return Err(HadoopError::InvalidConfig("edge targets missing stage"));
            }
            if let EdgeSource::Stage(from) = edge.from {
                if from >= edge.to {
                    return Err(HadoopError::InvalidConfig(
                        "edge must point forward (producer before consumer)",
                    ));
                }
            }
            if !(edge.selectivity.is_finite() && edge.selectivity > 0.0) {
                return Err(HadoopError::InvalidConfig(
                    "edge selectivity must be finite and positive",
                ));
            }
        }
        for (i, stage) in self.stages.iter().enumerate() {
            let fed = self
                .edges
                .iter()
                .any(|e| e.to == i && e.kind != TransferKind::Broadcast);
            if !fed {
                return Err(HadoopError::InvalidConfig(
                    "every stage needs a non-broadcast input edge",
                ));
            }
            if !(stage.map_selectivity.is_finite()
                && stage.map_selectivity > 0.0
                && stage.reduce_selectivity.is_finite()
                && stage.reduce_selectivity > 0.0)
            {
                return Err(HadoopError::InvalidConfig(
                    "stage selectivities must be finite and positive",
                ));
            }
            if !(stage.cpu_factor.is_finite() && stage.cpu_factor > 0.0) {
                return Err(HadoopError::InvalidConfig(
                    "stage cpu_factor must be finite and positive",
                ));
            }
        }
        Ok(())
    }

    /// The edges feeding stage `stage`, in declaration order.
    pub fn in_edges(&self, stage: usize) -> impl Iterator<Item = &DagEdge> {
        self.edges.iter().filter(move |e| e.to == stage)
    }

    /// A single-stage DAG (one classic MapReduce round over the job
    /// input, read via `kind`).
    #[must_use]
    pub fn single(name: &str, stage: StageSpec, kind: TransferKind) -> JobDag {
        JobDag {
            name: name.to_string(),
            stages: vec![stage],
            edges: vec![DagEdge {
                from: EdgeSource::JobInput,
                to: 0,
                kind,
                selectivity: 1.0,
            }],
        }
    }

    /// A linear chain of `iterations` identical stages — the legacy
    /// chained-round shape. When `reread_input` is set every stage reads
    /// the original job input (KMeans-style: the model, not the data,
    /// iterates); otherwise stage *i* reads stage *i−1*'s output.
    #[must_use]
    pub fn chain(name: &str, stage: &StageSpec, iterations: u32, reread_input: bool) -> JobDag {
        let n = iterations.max(1) as usize;
        let mut stages = Vec::with_capacity(n);
        let mut edges = Vec::with_capacity(n);
        let kind = if stage.map_only {
            // The legacy map-only round generates its input in place.
            TransferKind::Pipe
        } else {
            TransferKind::HdfsRead
        };
        for i in 0..n {
            let mut s = stage.clone();
            if n > 1 {
                s.name = format!("{}_{}", stage.name, i + 1);
            }
            stages.push(s);
            let from = if i == 0 || reread_input {
                EdgeSource::JobInput
            } else {
                EdgeSource::Stage(i - 1)
            };
            edges.push(DagEdge {
                from,
                to: i,
                kind,
                selectivity: 1.0,
            });
        }
        JobDag {
            name: name.to_string(),
            stages,
            edges,
        }
    }

    /// Renders the stage graph as indented text (the `keddah dag show`
    /// output).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "dag {} ({} stages)", self.name, self.stages.len());
        for (i, stage) in self.stages.iter().enumerate() {
            let kind = if stage.map_only {
                "map-only"
            } else {
                "map+reduce"
            };
            let _ = writeln!(
                out,
                "  stage {i} {:<12} {kind:<10} msel={:.3} rsel={:.3} cpu={:.2}",
                stage.name, stage.map_selectivity, stage.reduce_selectivity, stage.cpu_factor
            );
            for edge in self.in_edges(i) {
                let from = match edge.from {
                    EdgeSource::JobInput => "input".to_string(),
                    EdgeSource::Stage(s) => format!("stage {s} ({})", self.stages[s].name),
                };
                let _ = writeln!(
                    out,
                    "    <- {from} via {} x{:.3}",
                    edge.kind.name(),
                    edge.selectivity
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_and_chain_validate() {
        let stage = StageSpec::map_reduce("sort", 1.0, 1.0, 1.0);
        JobDag::single("terasort", stage.clone(), TransferKind::HdfsRead)
            .validate()
            .unwrap();
        let chain = JobDag::chain("pagerank", &stage, 3, false);
        chain.validate().unwrap();
        assert_eq!(chain.stages.len(), 3);
        assert_eq!(chain.edges[0].from, EdgeSource::JobInput);
        assert_eq!(chain.edges[2].from, EdgeSource::Stage(1));
    }

    #[test]
    fn reread_chain_feeds_every_stage_from_input() {
        let stage = StageSpec::map_reduce("kmeans", 0.02, 0.5, 2.5);
        let chain = JobDag::chain("kmeans", &stage, 3, true);
        assert!(chain.edges.iter().all(|e| e.from == EdgeSource::JobInput));
    }

    #[test]
    fn map_only_chain_pipes_its_input() {
        let stage = StageSpec::map_only("gen", 1.0, 0.4);
        let dag = JobDag::chain("teragen", &stage, 1, false);
        assert_eq!(dag.edges[0].kind, TransferKind::Pipe);
    }

    #[test]
    fn backward_edge_is_rejected() {
        let mut dag = JobDag::chain("x", &StageSpec::map_reduce("s", 1.0, 1.0, 1.0), 2, false);
        dag.edges[1].from = EdgeSource::Stage(1);
        assert!(dag.validate().is_err());
    }

    #[test]
    fn unfed_stage_is_rejected() {
        let mut dag = JobDag::chain("x", &StageSpec::map_reduce("s", 1.0, 1.0, 1.0), 2, false);
        dag.edges[1].kind = TransferKind::Broadcast;
        assert!(dag.validate().is_err());
    }

    #[test]
    fn bad_selectivity_is_rejected() {
        let mut dag = JobDag::single(
            "x",
            StageSpec::map_reduce("s", 1.0, 1.0, 1.0),
            TransferKind::HdfsRead,
        );
        dag.edges[0].selectivity = 0.0;
        assert!(dag.validate().is_err());
        dag.edges[0].selectivity = f64::NAN;
        assert!(dag.validate().is_err());
    }

    #[test]
    fn render_names_stages_and_edges() {
        let dag = JobDag::chain(
            "pagerank",
            &StageSpec::map_reduce("rank", 0.9, 0.95, 1.2),
            3,
            false,
        );
        let text = dag.render();
        assert!(text.contains("dag pagerank (3 stages)"));
        assert!(text.contains("rank_2"));
        assert!(text.contains("<- stage 0 (rank_1) via hdfs_read"));
    }

    #[test]
    fn dag_round_trips_through_serde() {
        let dag = JobDag::chain(
            "kmeans",
            &StageSpec::map_reduce("cluster", 0.02, 0.5, 2.5),
            3,
            true,
        );
        let json = serde_json::to_string(&dag).unwrap();
        let back: JobDag = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dag);
    }
}
