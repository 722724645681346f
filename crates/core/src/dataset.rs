//! Extraction of model-ready samples from capture traces.
//!
//! The fitting step does not consume raw traces: it consumes, per traffic
//! component, the three sample sets Keddah models — flow sizes, flow
//! start times (relative to job start), and per-job flow counts — pooled
//! over repeated runs of the same job configuration.

use std::collections::BTreeMap;

use keddah_des::SimTime;
use keddah_flowcap::{Component, FlowRecord, Trace};

/// Samples for one traffic component, pooled over runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ComponentSample {
    /// Flow sizes in bytes (both directions summed), one per flow.
    pub sizes: Vec<f64>,
    /// Flow start times in seconds from each run's first flow.
    pub starts: Vec<f64>,
    /// Flows per job, one entry per run.
    pub counts: Vec<f64>,
}

impl ComponentSample {
    /// Total bytes across all pooled flows.
    #[must_use]
    pub fn total_bytes(&self) -> f64 {
        self.sizes.iter().sum()
    }
}

/// Per-component samples pooled over runs, one [`ComponentSample`] per
/// [`Component::ALL`] entry, in that order.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunPool(pub(crate) [ComponentSample; Component::ALL.len()]);

impl RunPool {
    /// Folds one run into the pool and returns its makespan in seconds.
    ///
    /// The run's flows go in capture order, and one pass appends each
    /// flow's size and start, relative to the run's earliest start, to its
    /// component's sample, in flow order; every component then gets the
    /// run's count, zeros included. Unlabelled flows count as
    /// [`Component::Other`]. In capture order the earliest start is the
    /// first flow's; taking the minimum keeps a trace listed in another
    /// order exact too. [`Dataset::from_traces`] and the streaming engine
    /// both fold runs through here, which is what keeps an exact stream's
    /// refit byte-identical to the offline fit.
    pub(crate) fn fold(&mut self, flows: &[FlowRecord]) -> f64 {
        let before = self.0.each_ref().map(|s| s.sizes.len());
        let t0 = flows.iter().map(|f| f.start).min().unwrap_or(SimTime::ZERO);
        let mut end = t0;
        for f in flows {
            // `Component::ALL` lists the variants in declaration order.
            let sample = &mut self.0[f.component.unwrap_or(Component::Other) as usize];
            sample.sizes.push(f.total_bytes() as f64);
            sample
                .starts
                .push(f.start.saturating_since(t0).as_secs_f64());
            end = end.max(f.end);
        }
        for (sample, before) in self.0.iter_mut().zip(before) {
            sample.counts.push((sample.sizes.len() - before) as f64);
        }
        end.saturating_since(t0).as_secs_f64()
    }
}

/// The model-ready view of one job configuration: per-component samples
/// plus job-level covariates.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Workload name from the trace metadata.
    pub workload: String,
    /// Input size in bytes.
    pub input_bytes: u64,
    /// Configured reducer count.
    pub reducers: u32,
    /// HDFS replication factor.
    pub replication: u16,
    /// HDFS block size.
    pub block_bytes: u64,
    /// Worker node count.
    pub nodes: u32,
    /// Number of pooled runs.
    pub runs: usize,
    /// Job makespans in seconds, one per run.
    pub makespans: Vec<f64>,
    /// Per-component pooled samples.
    pub components: BTreeMap<Component, ComponentSample>,
}

impl Dataset {
    /// Builds a dataset from repeated captures of the same configuration.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty or the traces disagree on workload —
    /// pooling across different jobs would produce a meaningless model.
    #[must_use]
    pub fn from_traces(traces: &[Trace]) -> Dataset {
        assert!(!traces.is_empty(), "dataset needs at least one trace");
        let meta = traces[0].meta().clone();
        for t in traces {
            assert_eq!(
                t.meta().workload,
                meta.workload,
                "cannot pool traces of different workloads"
            );
        }
        let mut pool = RunPool::default();
        let makespans = traces.iter().map(|t| pool.fold(t.flows())).collect();
        // Drop components that never appeared.
        let components = (Component::ALL.iter().copied())
            .zip(pool.0)
            .filter(|(_, s)| !s.sizes.is_empty())
            .collect();
        Dataset {
            workload: meta.workload,
            input_bytes: meta.input_bytes,
            reducers: meta.reducers,
            replication: meta.replication,
            block_bytes: meta.block_bytes,
            nodes: meta.nodes,
            runs: traces.len(),
            makespans,
            components,
        }
    }

    /// The pooled sample for one component, if it appeared in the traces.
    #[must_use]
    pub fn component(&self, component: Component) -> Option<&ComponentSample> {
        self.components.get(&component)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keddah_des::SimTime;
    use keddah_flowcap::{FiveTuple, FlowRecord, NodeId, TraceMeta};

    fn trace(workload: &str, n_shuffle: usize) -> Trace {
        let flows: Vec<FlowRecord> = (0..n_shuffle)
            .map(|i| FlowRecord {
                tuple: FiveTuple {
                    src: NodeId(1),
                    src_port: 40_000 + i as u16,
                    dst: NodeId(2),
                    dst_port: 13_562,
                },
                start: SimTime::from_secs(i as u64),
                end: SimTime::from_secs(i as u64 + 1),
                fwd_bytes: 100,
                rev_bytes: 1000 * (i as u64 + 1),
                packets: 2,
                component: Some(Component::Shuffle),
            })
            .collect();
        Trace::new(
            TraceMeta {
                workload: workload.into(),
                input_bytes: 1 << 30,
                reducers: 4,
                replication: 3,
                block_bytes: 128 << 20,
                nodes: 8,
                seed: 0,
                counters: None,
            },
            flows,
        )
    }

    #[test]
    fn pools_across_runs() {
        let ds = Dataset::from_traces(&[trace("terasort", 3), trace("terasort", 5)]);
        assert_eq!(ds.runs, 2);
        let shuffle = ds.component(Component::Shuffle).unwrap();
        assert_eq!(shuffle.sizes.len(), 8);
        assert_eq!(shuffle.counts, vec![3.0, 5.0]);
        assert_eq!(ds.makespans.len(), 2);
        assert!(ds.component(Component::HdfsRead).is_none());
    }

    #[test]
    fn starts_are_run_relative() {
        let ds = Dataset::from_traces(&[trace("terasort", 3)]);
        let shuffle = ds.component(Component::Shuffle).unwrap();
        assert_eq!(shuffle.starts, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn covariates_come_from_meta() {
        let ds = Dataset::from_traces(&[trace("wordcount", 1)]);
        assert_eq!(ds.workload, "wordcount");
        assert_eq!(ds.reducers, 4);
        assert_eq!(ds.nodes, 8);
    }

    /// The fold gives what a filtered pass per component gave: sizes and
    /// run-relative starts in flow order, a count per component, and the
    /// trace's makespan, for mixed, unlabelled and out-of-order flows.
    #[test]
    fn fold_matches_per_component_passes() {
        let mut flows = trace("terasort", 7).into_flows();
        let labels = [
            Some(Component::HdfsRead),
            None,
            Some(Component::Broadcast),
            Some(Component::Shuffle),
            Some(Component::Other),
            Some(Component::HdfsRead),
            Some(Component::Control),
        ];
        for (f, label) in flows.iter_mut().zip(labels) {
            f.component = label;
        }
        flows.swap(0, 4);
        flows[2].end = SimTime::from_secs(30);
        let t = Trace::new(trace("terasort", 0).meta().clone(), flows);
        let mut pool = RunPool::default();
        assert_eq!(pool.fold(t.flows()), t.makespan().as_secs_f64());
        for (&c, sample) in Component::ALL.iter().zip(&pool.0) {
            assert_eq!(sample.sizes, t.component_sizes(c), "{c}");
            assert_eq!(sample.starts, t.component_starts(c), "{c}");
            assert_eq!(sample.counts, vec![t.component_sizes(c).len() as f64]);
        }
    }

    #[test]
    #[should_panic(expected = "different workloads")]
    fn rejects_mixed_workloads() {
        let _ = Dataset::from_traces(&[trace("terasort", 1), trace("grep", 1)]);
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn rejects_empty() {
        let _ = Dataset::from_traces(&[]);
    }
}
