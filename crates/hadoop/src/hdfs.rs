//! HDFS block placement and replica selection.
//!
//! Implements the behaviour that shapes HDFS traffic:
//!
//! * **Placement** of input data blocks across DataNodes (balanced
//!   round-robin over a seeded random permutation, replicas following the
//!   default rack-aware policy);
//! * **Replica selection** for reads (node-local replica preferred, then
//!   rack-local, then any — the locality ladder that decides whether a map
//!   task produces network traffic at all);
//! * **Write pipelines** (first replica on the writer's node, second on a
//!   different rack, third on the second replica's rack), which generate
//!   the inter-DataNode replication flows Keddah labels HDFS write.
//!
//! Placement and reads both take the set of dead workers: a dead
//! DataNode neither receives nor serves a replica. With no worker down
//! they draw exactly what a fault-free cluster draws, so clean captures
//! do not depend on the fault machinery being present.

use std::collections::HashSet;

use keddah_flowcap::NodeId;
use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};

use crate::cluster::ClusterSpec;

/// A stored HDFS block: its size and the DataNodes holding replicas.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Block payload size in bytes (the final block of a file may be
    /// short).
    pub bytes: u64,
    /// Replica locations; `replicas[0]` is the primary (first-written).
    pub replicas: Vec<NodeId>,
}

/// The NameNode's view of stored files, plus the placement policies.
#[derive(Debug, Clone)]
pub struct Hdfs {
    cluster: ClusterSpec,
}

impl Hdfs {
    /// Creates an HDFS instance over a cluster.
    #[must_use]
    pub fn new(cluster: ClusterSpec) -> Self {
        Hdfs { cluster }
    }

    /// The cluster this HDFS spans.
    #[must_use]
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Splits a file of `file_bytes` into blocks of at most `block_bytes`
    /// and places `replication` replicas of each using the rack-aware
    /// policy. Primaries are spread by a seeded shuffle of the workers so
    /// input data is balanced, as a real ingest (or balancer pass) leaves
    /// it. An empty file has no blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is zero, or replication exceeds the worker
    /// count.
    #[must_use]
    pub fn place_file(
        &self,
        file_bytes: u64,
        block_bytes: u64,
        replication: u16,
        rng: &mut StdRng,
    ) -> Vec<Block> {
        assert!(block_bytes > 0, "block size must be positive");
        assert!(
            (replication as u32) <= self.cluster.worker_count(),
            "replication {replication} exceeds worker count {}",
            self.cluster.worker_count()
        );
        let mut workers: Vec<NodeId> = self.cluster.workers().collect();
        workers.shuffle(rng);
        let n_blocks = file_bytes.div_ceil(block_bytes);
        let mut blocks = Vec::with_capacity(n_blocks as usize);
        for i in 0..n_blocks {
            let bytes = if i == n_blocks - 1 {
                file_bytes - block_bytes * (n_blocks - 1)
            } else {
                block_bytes
            };
            let primary = workers[(i as usize) % workers.len()];
            let replicas = self.pipeline_targets(primary, replication, &HashSet::new(), rng);
            blocks.push(Block { bytes, replicas });
        }
        blocks
    }

    /// Chooses the replica a reader on `client` should fetch from:
    /// node-local if available, else rack-local, else a seeded-random
    /// replica. Returns `None` when the read is local (no network
    /// traffic).
    fn select_read_replica(
        &self,
        block: &Block,
        client: NodeId,
        rng: &mut StdRng,
    ) -> Option<NodeId> {
        if block.replicas.contains(&client) {
            return None;
        }
        let client_is_worker = client.0 >= 1 && client.0 <= self.cluster.worker_count();
        if client_is_worker {
            let rack_local: Vec<NodeId> = block
                .replicas
                .iter()
                .copied()
                .filter(|&r| self.cluster.same_rack(r, client))
                .collect();
            if let Some(&pick) = rack_local.as_slice().choose(rng) {
                return Some(pick);
            }
        }
        Some(
            *block
                .replicas
                .as_slice()
                .choose(rng)
                .expect("blocks always have at least one replica"),
        )
    }

    /// Chooses the replica of `block` that serves a read on `reader`,
    /// skipping replicas on `down` workers: the locality ladder
    /// (node-local with no draw, else rack-local, else a seeded-random
    /// replica), or with `uniform` a uniformly random live replica (the
    /// data-grid access pattern, which may still land on `reader` and
    /// read locally). `None` means the read is local, or that no live
    /// replica is left.
    #[must_use]
    pub fn select_live_replica(
        &self,
        block: &Block,
        reader: NodeId,
        uniform: bool,
        down: &HashSet<NodeId>,
        rng: &mut StdRng,
    ) -> Option<NodeId> {
        let live;
        let block = if down.is_empty() {
            block
        } else {
            live = Block {
                bytes: block.bytes,
                replicas: block
                    .replicas
                    .iter()
                    .copied()
                    .filter(|r| !down.contains(r))
                    .collect(),
            };
            if live.replicas.is_empty() {
                return None;
            }
            &live
        };
        if uniform {
            let &choice = block.replicas.as_slice().choose(rng)?;
            (choice != reader).then_some(choice)
        } else {
            self.select_read_replica(block, reader, rng)
        }
    }

    /// Chooses the write pipeline for a block whose writer runs on
    /// `writer`: `[writer, off-rack node, node on that second rack, ...]`,
    /// the default `BlockPlacementPolicyDefault`, over live workers only
    /// (a dead DataNode cannot receive a replica). If the writer is not
    /// a live worker (a dead node, or the master acting as an ingest
    /// client), the first target is a seeded-random live worker.
    ///
    /// The pipeline holds `min(replication, live workers)` distinct
    /// nodes: with fewer live workers than `replication` it is silently
    /// shorter, as HDFS under-replicates until nodes return, and a
    /// whole-cluster outage gives an empty pipeline. Every choice is one
    /// `choose` over the candidates, so with nothing `down` the draws
    /// are those of a cluster that never had a fault.
    #[must_use]
    pub fn pipeline_targets(
        &self,
        writer: NodeId,
        replication: u16,
        down: &HashSet<NodeId>,
        rng: &mut StdRng,
    ) -> Vec<NodeId> {
        let live: Vec<NodeId> = self
            .cluster
            .workers()
            .filter(|w| !down.contains(w))
            .collect();
        let pick = |candidates: &[NodeId], rng: &mut StdRng| candidates.choose(rng).copied();
        let others = |targets: &[NodeId]| -> Vec<NodeId> {
            live.iter()
                .copied()
                .filter(|w| !targets.contains(w))
                .collect()
        };
        let first = if live.contains(&writer) {
            writer
        } else {
            match pick(&live, rng) {
                Some(n) => n,
                None => return Vec::new(),
            }
        };
        let replication = usize::from(replication).min(live.len());
        let mut targets = vec![first];
        if replication <= 1 {
            return targets;
        }
        // Second replica: a live node on a different rack if one exists,
        // else any other live node.
        let first_rack = self.cluster.rack_of(first);
        let off_rack: Vec<NodeId> = live
            .iter()
            .copied()
            .filter(|&w| self.cluster.rack_of(w) != first_rack)
            .collect();
        let Some(second) = pick(&off_rack, rng).or_else(|| pick(&others(&targets), rng)) else {
            return targets;
        };
        targets.push(second);
        // Third and later replicas: the second's rack, else any live
        // node, never repeating one.
        let second_rack = self.cluster.rack_of(second);
        while targets.len() < replication {
            let rack_mates: Vec<NodeId> = self
                .cluster
                .rack_members(second_rack)
                .filter(|w| !down.contains(w) && !targets.contains(w))
                .collect();
            let Some(next) = pick(&rack_mates, rng).or_else(|| pick(&others(&targets), rng)) else {
                break;
            };
            targets.push(next);
        }
        targets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn place_file_splits_into_blocks() {
        let hdfs = Hdfs::new(ClusterSpec::racks(2, 4));
        let blocks = hdfs.place_file(300 << 20, 128 << 20, 3, &mut rng());
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].bytes, 128 << 20);
        assert_eq!(blocks[2].bytes, (300 - 256) << 20);
        for b in &blocks {
            assert_eq!(b.replicas.len(), 3);
            // No duplicate replicas.
            let mut uniq = b.replicas.clone();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), 3);
        }
    }

    #[test]
    fn placement_is_balanced() {
        let cluster = ClusterSpec::racks(2, 4);
        let hdfs = Hdfs::new(cluster.clone());
        let blocks = hdfs.place_file(64 * (128 << 20), 128 << 20, 1, &mut rng());
        let mut counts = std::collections::HashMap::new();
        for b in &blocks {
            *counts.entry(b.replicas[0]).or_insert(0u32) += 1;
        }
        // 64 blocks over 8 workers: exactly 8 primaries each.
        assert!(counts.values().all(|&c| c == 8), "{counts:?}");
    }

    #[test]
    fn rack_aware_pipeline() {
        let cluster = ClusterSpec::racks(3, 3);
        let hdfs = Hdfs::new(cluster.clone());
        let mut r = rng();
        for _ in 0..50 {
            let targets = hdfs.pipeline_targets(NodeId(1), 3, &HashSet::new(), &mut r);
            assert_eq!(targets[0], NodeId(1));
            // Second replica off-rack.
            assert!(!cluster.same_rack(targets[0], targets[1]));
            // Third replica on the second's rack (3-node racks always have
            // room).
            assert!(cluster.same_rack(targets[1], targets[2]));
            assert_ne!(targets[1], targets[2]);
        }
    }

    #[test]
    fn single_rack_pipeline_still_distinct() {
        let hdfs = Hdfs::new(ClusterSpec::racks(1, 5));
        let targets = hdfs.pipeline_targets(NodeId(2), 3, &HashSet::new(), &mut rng());
        let mut uniq = targets.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 3);
        assert_eq!(targets[0], NodeId(2));
    }

    #[test]
    fn read_prefers_local_then_rack() {
        let cluster = ClusterSpec::racks(2, 3);
        let hdfs = Hdfs::new(cluster.clone());
        let block = Block {
            bytes: 1,
            replicas: vec![NodeId(1), NodeId(4)],
        };
        // Local replica: no network read.
        assert_eq!(
            hdfs.select_read_replica(&block, NodeId(1), &mut rng()),
            None
        );
        // Rack-local preferred: node 2 shares rack 0 with node 1.
        for _ in 0..20 {
            assert_eq!(
                hdfs.select_read_replica(&block, NodeId(2), &mut rng()),
                Some(NodeId(1))
            );
        }
        // Master (not a worker) gets some replica.
        let pick = hdfs.select_read_replica(&block, NodeId(0), &mut rng());
        assert!(matches!(pick, Some(n) if block.replicas.contains(&n)));
    }

    #[test]
    fn pipeline_from_master_starts_on_worker() {
        let cluster = ClusterSpec::racks(2, 2);
        let hdfs = Hdfs::new(cluster.clone());
        let targets = hdfs.pipeline_targets(NodeId(0), 2, &HashSet::new(), &mut rng());
        assert!(targets[0].0 >= 1);
        assert_eq!(targets.len(), 2);
    }

    /// Workers `nodes` as a down set.
    fn down(nodes: &[u32]) -> HashSet<NodeId> {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    #[test]
    fn down_aware_pipeline_keeps_the_placement_rules() {
        // Random down sets, writers (the master, dead and live workers)
        // and replication factors over clusters of one to four racks.
        let mut r = rng();
        for cluster in [
            ClusterSpec::racks(1, 5),
            ClusterSpec::racks(2, 3),
            ClusterSpec::racks(3, 3),
            ClusterSpec::racks(4, 1),
        ] {
            let hdfs = Hdfs::new(cluster.clone());
            for _ in 0..300 {
                let dead: HashSet<NodeId> = cluster
                    .workers()
                    .filter(|_| r.random::<f64>() < 0.4)
                    .collect();
                let live: Vec<NodeId> = cluster.workers().filter(|w| !dead.contains(w)).collect();
                let writer = NodeId(r.random_range(0..=cluster.worker_count()));
                let replication = r.random_range(1..=4u16);
                let targets = hdfs.pipeline_targets(writer, replication, &dead, &mut r);
                assert!(targets.iter().all(|t| !dead.contains(t)), "{targets:?}");
                let mut uniq = targets.clone();
                uniq.sort();
                uniq.dedup();
                assert_eq!(uniq.len(), targets.len(), "{targets:?} repeats a node");
                assert_eq!(targets.len(), usize::from(replication).min(live.len()));
                if live.contains(&writer) {
                    assert_eq!(targets[0], writer);
                }
                let off_rack_live =
                    |first: NodeId| live.iter().any(|&w| !cluster.same_rack(w, first));
                if targets.len() >= 2 && off_rack_live(targets[0]) {
                    assert!(!cluster.same_rack(targets[0], targets[1]), "{targets:?}");
                }
            }
        }
    }

    #[test]
    fn dead_writer_or_master_gets_a_live_first_target() {
        let hdfs = Hdfs::new(ClusterSpec::racks(2, 3));
        let dead = down(&[1, 2, 4]);
        let mut r = rng();
        for writer in [NodeId(0), NodeId(1), NodeId(4)] {
            for _ in 0..20 {
                let targets = hdfs.pipeline_targets(writer, 3, &dead, &mut r);
                assert_eq!(targets.len(), 3);
                assert!(!dead.contains(&targets[0]), "{targets:?}");
                assert!(targets[0].0 >= 1, "{targets:?}");
            }
        }
    }

    #[test]
    fn too_few_live_workers_shorten_the_pipeline() {
        let hdfs = Hdfs::new(ClusterSpec::racks(2, 3));
        let targets = hdfs.pipeline_targets(NodeId(3), 3, &down(&[1, 2, 4, 5]), &mut rng());
        assert_eq!(targets, [NodeId(3), NodeId(6)]);
        // A single live worker: the writer's own copy only.
        let lone = down(&[1, 2, 3, 4, 5]);
        assert_eq!(
            hdfs.pipeline_targets(NodeId(0), 3, &lone, &mut rng()),
            [NodeId(6)]
        );
    }

    #[test]
    fn whole_cluster_outage_gives_an_empty_pipeline() {
        let hdfs = Hdfs::new(ClusterSpec::racks(2, 2));
        let all = down(&[1, 2, 3, 4]);
        for writer in [NodeId(0), NodeId(2)] {
            assert!(hdfs
                .pipeline_targets(writer, 3, &all, &mut rng())
                .is_empty());
        }
    }

    #[test]
    fn second_replica_leaves_the_rack_while_a_live_worker_is_off_rack() {
        let cluster = ClusterSpec::racks(3, 3);
        let hdfs = Hdfs::new(cluster.clone());
        let mut r = rng();
        // Rack 1 is gone and rack 2 has one survivor: the second replica
        // must land on it.
        let dead = down(&[4, 5, 6, 7, 8]);
        for _ in 0..20 {
            let targets = hdfs.pipeline_targets(NodeId(2), 3, &dead, &mut r);
            assert_eq!(targets[..2], [NodeId(2), NodeId(9)]);
            // No live rack-mate of the second: the third falls back to
            // any live node.
            assert!(cluster.same_rack(targets[0], targets[2]));
        }
    }

    #[test]
    fn live_replica_reads_skip_dead_nodes() {
        let hdfs = Hdfs::new(ClusterSpec::racks(2, 3));
        let block = Block {
            bytes: 1,
            replicas: vec![NodeId(1), NodeId(4), NodeId(5)],
        };
        let mut r = rng();
        // The local replica's node is dead: read remotely from a live one.
        for uniform in [false, true] {
            let pick = hdfs.select_live_replica(&block, NodeId(1), uniform, &down(&[1]), &mut r);
            assert!(matches!(pick, Some(NodeId(4 | 5))), "{pick:?}");
        }
        // Every replica dead: nothing to read.
        let gone = down(&[1, 4, 5]);
        assert_eq!(
            hdfs.select_live_replica(&block, NodeId(2), false, &gone, &mut r),
            None
        );
    }

    #[test]
    #[should_panic(expected = "replication")]
    fn replication_cannot_exceed_workers() {
        let hdfs = Hdfs::new(ClusterSpec::racks(1, 2));
        let _ = hdfs.place_file(1 << 20, 1 << 20, 3, &mut rng());
    }
}
