//! DAG job-model invariants.
//!
//! Two pillars hold the DAG refactor together:
//!
//! 1. **Legacy equivalence** — every paper workload, expressed as its
//!    degenerate DAG, reproduces the exact trace and counters the
//!    workload-level entry point produces. This is what let the legacy
//!    round-chaining engine be deleted without re-pinning the golden
//!    corpus.
//! 2. **Byte conservation** — for arbitrary random DAGs with noise
//!    disabled, every stage's reported input/output bytes match a
//!    straight arithmetic mirror of the task model: stages cannot leak
//!    or invent bytes regardless of topology, transfer kind, or
//!    selectivity.

use keddah::faults::FaultSpec;
use keddah::hadoop::{
    run_dag, run_job, ClusterSpec, DagEdge, EdgeSource, HadoopConfig, JobDag, JobRun, JobSpec,
    StageSpec, TransferKind, Workload,
};
use proptest::prelude::*;

/// A clean capture of `dag`.
fn run_clean(
    cluster: &ClusterSpec,
    config: &HadoopConfig,
    dag: &JobDag,
    input_bytes: u64,
    seed: u64,
) -> JobRun {
    run_dag(cluster, config, dag, input_bytes, seed, &FaultSpec::empty()).0
}

// ---------------------------------------------------------------------
// Legacy equivalence
// ---------------------------------------------------------------------

#[test]
fn every_paper_workload_is_byte_identical_through_its_dag() {
    let cluster = ClusterSpec::racks(2, 3);
    let config = HadoopConfig::default()
        .with_reducers(3)
        .with_block_bytes(32 << 20);
    for (i, &workload) in Workload::PAPER.iter().enumerate() {
        let seed = 100 + i as u64;
        let job = run_job(&cluster, &config, &JobSpec::new(workload, 256 << 20), seed);
        let dag = run_clean(&cluster, &config, &workload.dag(), 256 << 20, seed);
        assert_eq!(
            job.trace,
            dag.trace,
            "{}: degenerate DAG produced a different trace",
            workload.name()
        );
        assert_eq!(job.counters, dag.counters, "{}", workload.name());
        assert_eq!(job.duration, dag.duration, "{}", workload.name());
        assert_eq!(
            dag.stages.len(),
            workload.dag().stages.len(),
            "{}: one summary per stage",
            workload.name()
        );
    }
}

#[test]
fn new_workload_dags_run_end_to_end() {
    let cluster = ClusterSpec::racks(2, 3);
    let config = HadoopConfig::default()
        .with_reducers(3)
        .with_block_bytes(32 << 20);
    for workload in [Workload::PigJoin, Workload::DataGrid, Workload::TpcxHs] {
        let run = run_clean(&cluster, &config, &workload.dag(), 256 << 20, 5);
        assert!(!run.trace.is_empty(), "{}", workload.name());
        assert_eq!(run.stages.len(), workload.dag().stages.len());
        assert!(run.stages.iter().all(|s| s.maps > 0));
    }
    // The fragment-replicate join actually broadcasts.
    let pig = run_clean(&cluster, &config, &Workload::PigJoin.dag(), 256 << 20, 5);
    assert!(pig.counters.broadcast_bytes > 0);
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every workload's DAG, pinned by FNV-1a digests of its JSON and of its
/// `keddah dag show` rendering: a stage name, selectivity, CPU factor,
/// round count, edge kind or re-read flag that moves fails here, before
/// any capture is compared. Re-pin only when a workload changes on
/// purpose.
#[test]
fn every_workload_dag_is_pinned() {
    let pins: [(Workload, u64, u64); 10] = [
        (Workload::WordCount, 0xe22937ac978d87a5, 0xf9536a6b127faae5),
        (Workload::TeraSort, 0x225fd0f34c83e684, 0xfc349b0a8f32a5fc),
        (Workload::PageRank, 0x4625c33a63894b92, 0x684f7cf40c3091b3),
        (Workload::KMeans, 0x55fc19a4fa5cd791, 0x4be4b31e3fb08e93),
        (Workload::Bayes, 0x744ea669f969b1f5, 0x6855669e7d2cdec5),
        (Workload::Grep, 0x0aa75da8e577b083, 0x5f8629dae3b6bced),
        (Workload::TeraGen, 0x0b7f49c793933484, 0x20bc159bc03a8c8f),
        (Workload::PigJoin, 0x656d9b80e02fc00d, 0x950da68b19639657),
        (Workload::DataGrid, 0x21fffdb14b162b9b, 0x466a2efe54b0a6f0),
        (Workload::TpcxHs, 0x5c7f030b3bd2f8da, 0xcedee81da80889fb),
    ];
    assert_eq!(
        pins.iter().map(|p| p.0).collect::<Vec<_>>(),
        Workload::ALL,
        "one pin per workload, in ALL order"
    );
    for (w, json, render) in pins {
        let dag = w.dag();
        let got_json = fnv1a(
            serde_json::to_string(&dag)
                .expect("dag serializes")
                .as_bytes(),
        );
        let got_render = fnv1a(dag.render().as_bytes());
        assert_eq!((got_json, got_render), (json, render), "{w}");
    }
}

// ---------------------------------------------------------------------
// Byte conservation on random DAGs
// ---------------------------------------------------------------------

/// Splits `total` bytes into HDFS blocks exactly as `place_file` and
/// `write_output` do: full blocks, remainder last.
fn split_blocks(total: u64, block_bytes: u64) -> Vec<u64> {
    if total == 0 {
        return Vec::new();
    }
    let n = total.div_ceil(block_bytes);
    (0..n)
        .map(|i| {
            if i == n - 1 {
                total - block_bytes * (n - 1)
            } else {
                block_bytes
            }
        })
        .collect()
}

/// Mirrors `scale_block`: unity selectivity is the identity.
fn scale(bytes: u64, selectivity: f64) -> u64 {
    if selectivity == 1.0 {
        bytes
    } else {
        ((bytes as f64 * selectivity) as u64).max(1)
    }
}

const EDGE_KINDS: [TransferKind; 4] = [
    TransferKind::HdfsRead,
    TransferKind::RemoteRead,
    TransferKind::Shuffle,
    TransferKind::Pipe,
];
const SELECTIVITIES: [f64; 5] = [1.0, 0.5, 0.25, 0.8, 1.25];

/// Per-stage proptest draw: (map_only, map sel ×10, reduce sel ×10)
/// plus (in-edge source, transfer kind, selectivity, broadcast?).
type StageDraw = ((bool, u32, u32), (usize, usize, usize, bool));

/// Builds a valid random DAG from proptest-drawn per-stage tuples.
fn build_dag(specs: &[StageDraw]) -> JobDag {
    let stages = specs
        .iter()
        .enumerate()
        .map(|(i, &((map_only, msel10, rsel10), _))| {
            let msel = f64::from(msel10).max(1.0) / 10.0;
            let rsel = f64::from(rsel10).max(1.0) / 10.0;
            if map_only {
                StageSpec::map_only(&format!("s{i}"), msel, 1.0)
            } else {
                StageSpec::map_reduce(&format!("s{i}"), msel, rsel, 1.0)
            }
        })
        .collect();
    let mut edges = Vec::new();
    for (i, &(_, (src, kind, sel, bcast))) in specs.iter().enumerate() {
        // One non-broadcast feed per stage: the job input or any earlier
        // stage (choice folded modulo the candidates).
        let from = match src % (i + 1) {
            0 => EdgeSource::JobInput,
            p => EdgeSource::Stage(p - 1),
        };
        edges.push(DagEdge {
            from,
            to: i,
            kind: EDGE_KINDS[kind % EDGE_KINDS.len()],
            selectivity: SELECTIVITIES[sel % SELECTIVITIES.len()],
        });
        if bcast {
            edges.push(DagEdge {
                from: EdgeSource::JobInput,
                to: i,
                kind: TransferKind::Broadcast,
                selectivity: 0.25,
            });
        }
    }
    JobDag {
        name: "random".to_string(),
        stages,
        edges,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With straggler noise and failures off, every stage's reported
    /// input/output bytes equal the arithmetic mirror of the task model,
    /// for arbitrary DAG shapes, transfer kinds and selectivities.
    #[test]
    fn random_dags_conserve_bytes(
        specs in prop::collection::vec(
            (
                (any::<bool>(), 1u32..21, 1u32..16),
                (0usize..8, 0usize..8, 0usize..8, any::<bool>()),
            ),
            1..5
        ),
        input_mb in 4u64..48,
    ) {
        let cluster = ClusterSpec::racks(2, 2);
        let mut config = HadoopConfig::default()
            .with_reducers(3)
            .with_replication(2)
            .with_block_bytes(8 << 20);
        config.task_noise_sigma = 0.0; // noise() == 1.0 exactly
        config.task_failure_prob = 0.0;
        config.speculative_execution = false;

        let dag = build_dag(&specs);
        dag.validate().expect("generated DAGs are valid");
        let input_bytes = input_mb << 20;
        let run = run_clean(&cluster, &config, &dag, input_bytes, 17);

        // Mirror the engine stage by stage.
        let job_input = split_blocks(input_bytes, config.block_bytes);
        let mut outputs: Vec<Vec<u64>> = Vec::new();
        for (i, stage) in dag.stages.iter().enumerate() {
            let mut inputs: Vec<u64> = Vec::new();
            let mut bcast_total = 0u64;
            for edge in dag.in_edges(i) {
                let source: &[u64] = match edge.from {
                    EdgeSource::JobInput => &job_input,
                    EdgeSource::Stage(p) if outputs[p].is_empty() => &job_input,
                    EdgeSource::Stage(p) => &outputs[p],
                };
                if edge.kind == TransferKind::Broadcast {
                    bcast_total += source
                        .iter()
                        .map(|&b| scale(b, edge.selectivity))
                        .sum::<u64>();
                } else {
                    inputs.extend(source.iter().map(|&b| scale(b, edge.selectivity)));
                }
            }
            let map_outs: Vec<u64> = inputs
                .iter()
                .map(|&b| ((b as f64 * stage.map_selectivity) as u64).max(1024))
                .collect();
            let (out_blocks, reducers) = if stage.map_only {
                let blocks: Vec<u64> = map_outs
                    .iter()
                    .flat_map(|&o| split_blocks(o, config.block_bytes))
                    .collect();
                (blocks, 0u32)
            } else {
                let r = u64::from(config.reducers);
                // Each reducer pulls its (noise-free, thus equal)
                // partition of every map's output.
                let r_in: u64 = map_outs.iter().map(|&o| (o / r).max(64)).sum();
                let r_out = (r_in as f64 * stage.reduce_selectivity) as u64;
                let blocks: Vec<u64> = (0..r)
                    .flat_map(|_| split_blocks(r_out, config.block_bytes))
                    .collect();
                (blocks, config.reducers)
            };

            let stats = &run.stages[i];
            prop_assert_eq!(stats.maps, inputs.len() as u32, "stage {} maps", i);
            prop_assert_eq!(stats.reducers, reducers, "stage {} reducers", i);
            prop_assert_eq!(
                stats.input_bytes,
                inputs.iter().sum::<u64>(),
                "stage {} input bytes",
                i
            );
            prop_assert_eq!(
                stats.output_bytes,
                out_blocks.iter().sum::<u64>(),
                "stage {} output bytes",
                i
            );
            // Broadcast fetches skip maps co-located with a replica, so
            // the exact volume is placement-dependent; it is bounded by
            // every map pulling every payload, and zero without edges.
            prop_assert!(
                stats.broadcast_bytes <= u64::from(stats.maps) * bcast_total,
                "stage {} broadcast bound",
                i
            );
            if bcast_total == 0 {
                prop_assert_eq!(stats.broadcast_bytes, 0, "stage {} broadcast", i);
            }
            outputs.push(out_blocks);
        }
        prop_assert_eq!(
            run.counters.broadcast_bytes,
            run.stages.iter().map(|s| s.broadcast_bytes).sum::<u64>()
        );
    }
}
