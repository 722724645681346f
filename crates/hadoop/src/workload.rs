//! MapReduce workloads.
//!
//! Keddah characterizes traffic per *job type* because the data-flow
//! selectivities differ by orders of magnitude between, say, a TeraSort
//! (shuffles its whole input) and a Grep (shuffles almost nothing). Each
//! workload's [`JobDag`] encodes its map/reduce selectivities, round
//! count and relative CPU intensity; the DAGs are the simulator's
//! substitute for running the real programs on real inputs (see
//! DESIGN.md, "Substitutions").

use serde::{Deserialize, Serialize};

use crate::dag::{DagEdge, EdgeSource, JobDag, StageSpec, TransferKind};

/// The job types in the evaluation workload mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Workload {
    /// Word frequency count with a combiner (shuffle ≪ input).
    WordCount,
    /// Distributed sort (shuffle ≈ input ≈ output): the network-heaviest
    /// classic benchmark.
    TeraSort,
    /// Iterative link-analysis; each iteration re-shuffles the rank table.
    PageRank,
    /// Iterative clustering; maps emit only per-centroid partial sums.
    KMeans,
    /// Naive Bayes model training over documents.
    Bayes,
    /// Regex filter with tiny match rate (nearly no shuffle or output).
    Grep,
    /// Map-only data generator (the ingest phase that loads HDFS before
    /// the other jobs run): no shuffle, no reducers, pure replicated
    /// writes.
    TeraGen,
    /// Pig-style multi-stage pipeline: load→filter both join sides,
    /// fragment-replicate join (shuffle + broadcast), group, store —
    /// five stages, two shuffles, one broadcast edge.
    PigJoin,
    /// Data-grid analysis job (CERN-style): map-only pass over a
    /// dataset pulled by *remote read* from a uniformly random replica
    /// — no rack locality, no shuffle, tiny derived output.
    DataGrid,
    /// TPCx-HS benchmark preset: teragen→terasort→teravalidate as one
    /// DAG, the full benchmark run as a single job.
    TpcxHs,
}

impl Workload {
    /// The seven workloads of the paper's evaluation, in the canonical
    /// row order of its tables and figures. **This slice is the single
    /// source of that ordering**: every table/figure emitter iterates
    /// `PAPER`, so growing the workload zoo (appending to [`ALL`](Self::ALL))
    /// can never reorder committed artefacts.
    pub const PAPER: &'static [Workload] = &[
        Workload::WordCount,
        Workload::TeraSort,
        Workload::PageRank,
        Workload::KMeans,
        Workload::Bayes,
        Workload::Grep,
        Workload::TeraGen,
    ];

    /// All workloads: the paper's seven first (in [`PAPER`](Self::PAPER)
    /// order), then the DAG-native families. Append-only — new
    /// workloads go at the end.
    pub const ALL: &'static [Workload] = &[
        Workload::WordCount,
        Workload::TeraSort,
        Workload::PageRank,
        Workload::KMeans,
        Workload::Bayes,
        Workload::Grep,
        Workload::TeraGen,
        Workload::PigJoin,
        Workload::DataGrid,
        Workload::TpcxHs,
    ];

    /// Short snake_case name used in trace metadata and table rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::WordCount => "wordcount",
            Workload::TeraSort => "terasort",
            Workload::PageRank => "pagerank",
            Workload::KMeans => "kmeans",
            Workload::Bayes => "bayes",
            Workload::Grep => "grep",
            Workload::TeraGen => "teragen",
            Workload::PigJoin => "pig_join",
            Workload::DataGrid => "datagrid",
            Workload::TpcxHs => "tpcxhs",
        }
    }

    /// Parses a workload from its [`name`](Self::name).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.iter().copied().find(|w| w.name() == name)
    }

    /// The workload's execution plan as a [`JobDag`].
    ///
    /// The paper's seven workloads are degenerate DAGs: a
    /// [`JobDag::chain`] of identical rounds, one [`StageSpec`] each.
    /// Their selectivities follow the qualitative behaviour reported for
    /// the HiBench implementations of these jobs: TeraSort moves ~all
    /// input through the shuffle; WordCount's combiner collapses it to
    /// ~20%; Grep emits almost nothing; the iterative jobs repeat
    /// per-round traffic on a near-constant working set, KMeans
    /// re-reading its dataset every round while PageRank chains rank
    /// tables. TeraGen is map-only: its maps synthesize their output and
    /// write it through replication pipelines. The DAG-native families
    /// have bespoke stage graphs.
    #[must_use]
    pub fn dag(self) -> JobDag {
        let name = self.name();
        let map_reduce = |map_sel, reduce_sel, cpu, rounds, reread_input| {
            let stage = StageSpec::map_reduce(name, map_sel, reduce_sel, cpu);
            JobDag::chain(name, &stage, rounds, reread_input)
        };
        match self {
            Workload::WordCount => map_reduce(0.20, 0.45, 1.4, 1, false),
            Workload::TeraSort => map_reduce(1.0, 1.0, 1.0, 1, false),
            Workload::PageRank => map_reduce(0.9, 0.95, 1.2, 3, false),
            Workload::KMeans => map_reduce(0.02, 0.5, 2.5, 3, true),
            Workload::Bayes => map_reduce(0.35, 0.3, 1.8, 1, false),
            Workload::Grep => map_reduce(0.01, 1.0, 0.8, 1, false),
            Workload::TeraGen => {
                JobDag::chain(name, &StageSpec::map_only(name, 1.0, 0.4), 1, false)
            }
            Workload::PigJoin => JobDag {
                name: name.to_string(),
                stages: vec![
                    StageSpec::map_only("load_left", 0.35, 1.0),
                    StageSpec::map_only("load_right", 1.0, 0.6),
                    StageSpec::map_reduce("join", 1.0, 0.7, 1.3),
                    StageSpec::map_reduce("group", 1.0, 0.5, 1.1),
                    StageSpec::map_only("store", 1.0, 0.5),
                ],
                edges: vec![
                    // Both join sides load (and filter) from HDFS; the
                    // right side is the small table at a tenth of the
                    // input.
                    DagEdge {
                        from: EdgeSource::JobInput,
                        to: 0,
                        kind: TransferKind::HdfsRead,
                        selectivity: 1.0,
                    },
                    DagEdge {
                        from: EdgeSource::JobInput,
                        to: 1,
                        kind: TransferKind::HdfsRead,
                        selectivity: 0.1,
                    },
                    // Fragment-replicate join: big side repartitions,
                    // small side is broadcast to every join task.
                    DagEdge {
                        from: EdgeSource::Stage(0),
                        to: 2,
                        kind: TransferKind::Shuffle,
                        selectivity: 1.0,
                    },
                    DagEdge {
                        from: EdgeSource::Stage(1),
                        to: 2,
                        kind: TransferKind::Broadcast,
                        selectivity: 1.0,
                    },
                    DagEdge {
                        from: EdgeSource::Stage(2),
                        to: 3,
                        kind: TransferKind::Shuffle,
                        selectivity: 1.0,
                    },
                    DagEdge {
                        from: EdgeSource::Stage(3),
                        to: 4,
                        kind: TransferKind::Pipe,
                        selectivity: 1.0,
                    },
                ],
            },
            Workload::DataGrid => JobDag::single(
                name,
                StageSpec::map_only("analysis", 0.05, 2.0),
                TransferKind::RemoteRead,
            ),
            Workload::TpcxHs => JobDag {
                name: name.to_string(),
                stages: vec![
                    StageSpec::map_only("teragen", 1.0, 0.4),
                    StageSpec::map_reduce("terasort", 1.0, 1.0, 1.0),
                    // Validate reads everything, emits a few checksums.
                    StageSpec::map_only("teravalidate", 1e-6, 0.6),
                ],
                edges: vec![
                    DagEdge {
                        from: EdgeSource::JobInput,
                        to: 0,
                        kind: TransferKind::Pipe,
                        selectivity: 1.0,
                    },
                    DagEdge {
                        from: EdgeSource::Stage(0),
                        to: 1,
                        kind: TransferKind::HdfsRead,
                        selectivity: 1.0,
                    },
                    DagEdge {
                        from: EdgeSource::Stage(1),
                        to: 2,
                        kind: TransferKind::HdfsRead,
                        selectivity: 1.0,
                    },
                ],
            },
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A job to run: workload plus input size, with optional per-job
/// overrides of the cluster-wide Hadoop configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The workload to run.
    pub workload: Workload,
    /// Input size in bytes.
    pub input_bytes: u64,
}

impl JobSpec {
    /// Creates a job spec.
    #[must_use]
    pub fn new(workload: Workload, input_bytes: u64) -> Self {
        JobSpec {
            workload,
            input_bytes,
        }
    }
}

impl std::fmt::Display for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}({:.2} GB)",
            self.workload,
            self.input_bytes as f64 / (1u64 << 30) as f64
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for &w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nosuch"), None);
    }

    #[test]
    fn stages_are_sane() {
        for &w in Workload::ALL {
            let dag = w.dag();
            assert!(!dag.stages.is_empty(), "{w}");
            for s in &dag.stages {
                assert!(s.map_selectivity > 0.0 && s.map_selectivity <= 2.0, "{w}");
                assert!(
                    s.reduce_selectivity > 0.0 && s.reduce_selectivity <= 2.0,
                    "{w}"
                );
                assert!(s.cpu_factor > 0.0, "{w}");
            }
        }
    }

    #[test]
    fn terasort_is_shuffle_heaviest() {
        let ts = Workload::TeraSort.dag().stages[0].map_selectivity;
        for &w in Workload::ALL {
            for s in &w.dag().stages {
                assert!(s.map_selectivity <= ts, "{w}");
            }
        }
    }

    #[test]
    fn iterative_jobs_iterate() {
        assert_eq!(Workload::PageRank.dag().stages.len(), 3);
        assert_eq!(Workload::KMeans.dag().stages.len(), 3);
        assert_eq!(Workload::TeraSort.dag().stages.len(), 1);
        // KMeans rescans its dataset; PageRank chains outputs.
        let from =
            |w: Workload| -> Vec<EdgeSource> { w.dag().edges.iter().map(|e| e.from).collect() };
        assert_eq!(from(Workload::KMeans), vec![EdgeSource::JobInput; 3]);
        assert_eq!(
            from(Workload::PageRank),
            vec![
                EdgeSource::JobInput,
                EdgeSource::Stage(0),
                EdgeSource::Stage(1)
            ]
        );
    }

    #[test]
    fn paper_order_is_a_prefix_of_all() {
        assert_eq!(&Workload::ALL[..Workload::PAPER.len()], Workload::PAPER);
    }

    #[test]
    fn every_workload_has_a_valid_dag() {
        for &w in Workload::ALL {
            let dag = w.dag();
            dag.validate().unwrap();
            assert_eq!(dag.name, w.name(), "{w}");
        }
    }

    #[test]
    fn paper_dags_are_chains_of_one_round() {
        for &w in Workload::PAPER {
            let dag = w.dag();
            let round = &dag.stages[0];
            for s in &dag.stages {
                assert_eq!(
                    (
                        s.map_selectivity,
                        s.reduce_selectivity,
                        s.cpu_factor,
                        s.map_only
                    ),
                    (
                        round.map_selectivity,
                        round.reduce_selectivity,
                        round.cpu_factor,
                        round.map_only
                    ),
                    "{w}: every round is the same stage"
                );
            }
            assert_eq!(dag.edges.len(), dag.stages.len(), "{w}: one feed per round");
            assert!(
                dag.edges.iter().all(|e| e.selectivity == 1.0),
                "{w}: paper edges never scale bytes"
            );
        }
    }

    #[test]
    fn pig_join_has_shuffle_and_broadcast_edges() {
        let dag = Workload::PigJoin.dag();
        assert_eq!(dag.stages.len(), 5);
        let kinds: Vec<TransferKind> = dag.edges.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&TransferKind::Shuffle));
        assert!(kinds.contains(&TransferKind::Broadcast));
        assert!(kinds.contains(&TransferKind::Pipe));
    }

    #[test]
    fn datagrid_is_a_remote_read_scan() {
        let dag = Workload::DataGrid.dag();
        assert_eq!(dag.stages.len(), 1);
        assert_eq!(dag.edges[0].kind, TransferKind::RemoteRead);
        assert!(dag.stages[0].map_only);
    }

    #[test]
    fn tpcxhs_chains_the_benchmark_phases() {
        let dag = Workload::TpcxHs.dag();
        let names: Vec<&str> = dag.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["teragen", "terasort", "teravalidate"]);
    }

    #[test]
    fn jobspec_display() {
        let j = JobSpec::new(Workload::TeraSort, 1 << 30);
        assert_eq!(j.to_string(), "terasort(1.00 GB)");
    }
}
