//! Hadoop cluster configuration.

use serde::{Deserialize, Serialize};

use crate::cluster::ClusterSpec;
use crate::{HadoopError, Result};

/// Tunable Hadoop parameters — the configuration covariates whose effect
/// on traffic the Keddah paper sweeps (block size, replication factor,
/// reducer count, slow-start), plus the execution-model constants the
/// simulator needs (processing rates, heartbeat intervals).
///
/// Defaults match a stock Hadoop 2.x deployment.
///
/// # Examples
///
/// ```
/// use keddah_hadoop::HadoopConfig;
///
/// let config = HadoopConfig::default()
///     .with_reducers(16)
///     .with_replication(2);
/// assert_eq!(config.reducers, 16);
/// config.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HadoopConfig {
    /// HDFS block size in bytes (`dfs.blocksize`, default 128 MiB).
    pub block_bytes: u64,
    /// HDFS replication factor (`dfs.replication`, default 3).
    pub replication: u16,
    /// Number of reduce tasks (`mapreduce.job.reduces`).
    pub reducers: u32,
    /// Fraction of maps that must complete before reducers launch
    /// (`mapreduce.job.reduce.slowstart.completedmaps`, default 0.05).
    pub slowstart: f64,
    /// YARN containers (task slots) per worker node.
    pub slots_per_node: u32,
    /// Map task processing rate in bytes/second (CPU side).
    pub map_rate_bps: f64,
    /// Reduce task processing rate in bytes/second (sort + reduce).
    pub reduce_rate_bps: f64,
    /// Fixed per-task startup overhead in seconds (JVM launch etc.).
    pub task_overhead_secs: f64,
    /// NodeManager → ResourceManager heartbeat interval in seconds.
    pub nm_heartbeat_secs: f64,
    /// Task → ApplicationMaster umbilical ping interval in seconds.
    pub umbilical_secs: f64,
    /// Log-scale sigma of the multiplicative noise applied to task
    /// compute times (captures stragglers and OS jitter).
    pub task_noise_sigma: f64,
    /// Probability that a node-local scheduling opportunity is missed and
    /// the map falls back to FIFO placement (models delay-scheduling
    /// expiry and slot contention on a busy cluster; the source of HDFS
    /// read traffic).
    pub locality_miss: f64,
    /// Probability that a task attempt fails partway and is re-executed
    /// (container loss, disk error). Failed attempts re-read their input
    /// and redo their work — the failure-recovery traffic Hadoop
    /// operators actually see. Zero disables failure injection.
    pub task_failure_prob: f64,
    /// Maximum attempts per task before the simulator gives up retrying
    /// and lets the last attempt succeed
    /// (`mapreduce.map.maxattempts`-style bound, default 4).
    pub max_task_attempts: u32,
    /// Launch backup attempts for straggling maps once most maps have
    /// completed (`mapreduce.map.speculative`). Default off so baseline
    /// traffic is easy to reason about; enable to study the duplicate
    /// traffic speculation causes.
    pub speculative_execution: bool,
    /// Fraction of maps that must complete before speculation kicks in.
    pub speculation_threshold: f64,
}

impl Default for HadoopConfig {
    fn default() -> Self {
        HadoopConfig {
            block_bytes: 128 << 20,
            replication: 3,
            reducers: 8,
            slowstart: 0.05,
            slots_per_node: 4,
            map_rate_bps: 100e6,
            reduce_rate_bps: 80e6,
            task_overhead_secs: 1.0,
            nm_heartbeat_secs: 1.0,
            umbilical_secs: 3.0,
            task_noise_sigma: 0.15,
            locality_miss: 0.15,
            task_failure_prob: 0.0,
            max_task_attempts: 4,
            speculative_execution: false,
            speculation_threshold: 0.75,
        }
    }
}

impl HadoopConfig {
    /// Sets the reducer count (builder style).
    #[must_use]
    pub fn with_reducers(mut self, reducers: u32) -> Self {
        self.reducers = reducers;
        self
    }

    /// Sets the replication factor (builder style).
    #[must_use]
    pub fn with_replication(mut self, replication: u16) -> Self {
        self.replication = replication;
        self
    }

    /// Sets the HDFS block size (builder style).
    #[must_use]
    pub fn with_block_bytes(mut self, block_bytes: u64) -> Self {
        self.block_bytes = block_bytes;
        self
    }

    /// Sets the reducer slow-start fraction (builder style).
    #[must_use]
    pub fn with_slowstart(mut self, slowstart: f64) -> Self {
        self.slowstart = slowstart;
        self
    }

    /// Sets the task slots per worker node (builder style).
    #[must_use]
    pub fn with_slots_per_node(mut self, slots_per_node: u32) -> Self {
        self.slots_per_node = slots_per_node;
        self
    }

    /// Checks the configuration for validity.
    ///
    /// # Errors
    ///
    /// Returns [`HadoopError::InvalidConfig`] naming the offending field
    /// if any value is out of range.
    pub fn validate(&self) -> Result<()> {
        if self.block_bytes < 1 << 20 {
            return Err(HadoopError::InvalidConfig("block_bytes below 1 MiB"));
        }
        if self.replication == 0 {
            return Err(HadoopError::InvalidConfig("replication must be >= 1"));
        }
        if self.reducers == 0 {
            return Err(HadoopError::InvalidConfig("reducers must be >= 1"));
        }
        if !(0.0..=1.0).contains(&self.slowstart) {
            return Err(HadoopError::InvalidConfig("slowstart must be in [0, 1]"));
        }
        if self.slots_per_node == 0 {
            return Err(HadoopError::InvalidConfig("slots_per_node must be >= 1"));
        }
        if !self.map_rate_bps.is_finite()
            || self.map_rate_bps <= 0.0
            || !self.reduce_rate_bps.is_finite()
            || self.reduce_rate_bps <= 0.0
        {
            return Err(HadoopError::InvalidConfig(
                "processing rates must be positive and finite",
            ));
        }
        if !self.task_overhead_secs.is_finite() || self.task_overhead_secs < 0.0 {
            return Err(HadoopError::InvalidConfig(
                "task_overhead_secs must be finite and >= 0",
            ));
        }
        if !self.nm_heartbeat_secs.is_finite()
            || self.nm_heartbeat_secs <= 0.0
            || !self.umbilical_secs.is_finite()
            || self.umbilical_secs <= 0.0
        {
            return Err(HadoopError::InvalidConfig(
                "heartbeat intervals must be positive and finite",
            ));
        }
        if !self.task_noise_sigma.is_finite() || self.task_noise_sigma < 0.0 {
            return Err(HadoopError::InvalidConfig(
                "task_noise_sigma must be finite and >= 0",
            ));
        }
        if !(0.0..=1.0).contains(&self.locality_miss) {
            return Err(HadoopError::InvalidConfig(
                "locality_miss must be in [0, 1]",
            ));
        }
        if !(0.0..=1.0).contains(&self.task_failure_prob) {
            return Err(HadoopError::InvalidConfig(
                "task_failure_prob must be in [0, 1]",
            ));
        }
        if self.max_task_attempts == 0 {
            return Err(HadoopError::InvalidConfig("max_task_attempts must be >= 1"));
        }
        if !(0.0..=1.0).contains(&self.speculation_threshold) {
            return Err(HadoopError::InvalidConfig(
                "speculation_threshold must be in [0, 1]",
            ));
        }
        Ok(())
    }

    /// [`validate`](Self::validate), plus the checks that need the
    /// cluster the configuration runs on: HDFS cannot place more
    /// distinct replicas of a block than there are workers.
    ///
    /// # Errors
    ///
    /// As [`validate`](Self::validate), or
    /// [`HadoopError::ReplicationExceedsWorkers`].
    pub fn validate_for(&self, cluster: &ClusterSpec) -> Result<()> {
        self.validate()?;
        let workers = cluster.worker_count();
        if u32::from(self.replication) > workers {
            return Err(HadoopError::ReplicationExceedsWorkers {
                replication: self.replication,
                workers,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        HadoopConfig::default().validate().unwrap();
    }

    #[test]
    fn replication_must_fit_the_cluster() {
        let config = HadoopConfig::default().with_replication(3);
        config.validate_for(&ClusterSpec::racks(1, 3)).unwrap();
        let err = config.validate_for(&ClusterSpec::racks(1, 2)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid configuration: replication 3 exceeds worker count 2"
        );
        // Cluster-free problems still come first.
        let bad = config.with_reducers(0);
        assert_eq!(
            bad.validate_for(&ClusterSpec::racks(1, 2)),
            Err(HadoopError::InvalidConfig("reducers must be >= 1"))
        );
    }

    #[test]
    fn builders_set_fields() {
        let c = HadoopConfig::default()
            .with_reducers(32)
            .with_replication(1)
            .with_block_bytes(64 << 20)
            .with_slowstart(0.8);
        assert_eq!(c.reducers, 32);
        assert_eq!(c.replication, 1);
        assert_eq!(c.block_bytes, 64 << 20);
        assert_eq!(c.slowstart, 0.8);
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_values() {
        assert!(HadoopConfig {
            block_bytes: 10,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(HadoopConfig {
            replication: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(HadoopConfig {
            reducers: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(HadoopConfig {
            slowstart: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(HadoopConfig {
            slots_per_node: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(HadoopConfig {
            map_rate_bps: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(HadoopConfig {
            task_noise_sigma: -0.1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(HadoopConfig {
            locality_miss: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(HadoopConfig {
            task_failure_prob: -0.1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(HadoopConfig {
            max_task_attempts: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(HadoopConfig {
            speculation_threshold: 2.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn slots_builder_sets_field() {
        let c = HadoopConfig::default().with_slots_per_node(8);
        assert_eq!(c.slots_per_node, 8);
        c.validate().unwrap();
    }

    /// The provision search sweeps knobs through arithmetic that can
    /// produce NaN or infinity; those must be rejected, not simulated.
    /// (Each of these used to pass: `NaN < 0.0` is false, and the rate
    /// checks only looked for NaN, letting `inf` through.)
    #[test]
    fn validation_rejects_non_finite_values() {
        assert!(HadoopConfig {
            map_rate_bps: f64::INFINITY,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(HadoopConfig {
            reduce_rate_bps: f64::INFINITY,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(HadoopConfig {
            task_overhead_secs: f64::NAN,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(HadoopConfig {
            task_overhead_secs: f64::INFINITY,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(HadoopConfig {
            nm_heartbeat_secs: f64::INFINITY,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(HadoopConfig {
            umbilical_secs: f64::INFINITY,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(HadoopConfig {
            task_noise_sigma: f64::NAN,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(HadoopConfig {
            task_noise_sigma: f64::INFINITY,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(HadoopConfig {
            slowstart: f64::NAN,
            ..Default::default()
        }
        .validate()
        .is_err());
    }
}
