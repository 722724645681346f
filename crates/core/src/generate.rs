//! Synthetic traffic generation from fitted models.
//!
//! The payoff of the toolchain: given a [`KeddahModel`], produce the flow
//! population of a statistically equivalent job — sizes from the fitted
//! size distributions, start times from the fitted arrival distributions,
//! per-job counts from the count models, endpoints from the component's
//! communication pattern — without running Hadoop.

use keddah_flowcap::Component;
use keddah_stat::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::model::{ComponentModel, EndpointPattern, KeddahModel, ScalarModel};

/// One generated flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenFlow {
    /// Source node (0 = master, 1..=nodes = workers).
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Flow size in bytes.
    pub bytes: u64,
    /// Start time in seconds from job start.
    pub start: f64,
    /// The traffic component this flow belongs to.
    pub component: Component,
}

/// A generated job: its flows plus the cluster size they assume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratedJob {
    /// Worker count (node ids run 0..=nodes, 0 being the master).
    pub nodes: u32,
    /// Sampled job makespan, seconds.
    pub makespan: f64,
    /// The flows, sorted by start time.
    pub flows: Vec<GenFlow>,
}

impl GeneratedJob {
    /// Total bytes across all flows.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.flows.iter().map(|f| f.bytes).sum()
    }

    /// Flow sizes (bytes as f64) of one component, for validation.
    #[must_use]
    pub fn component_sizes(&self, component: Component) -> Vec<f64> {
        self.flows
            .iter()
            .filter(|f| f.component == component)
            .map(|f| f.bytes as f64)
            .collect()
    }
}

impl KeddahModel {
    /// Generates the flows of one synthetic job. Deterministic in
    /// `seed`.
    ///
    /// # Examples
    ///
    /// See the crate-level example in [`keddah-core`](crate).
    #[must_use]
    pub fn generate_job(&self, seed: u64) -> GeneratedJob {
        let mut job = JobSampler::new(self, seed);
        let mut flows = Vec::new();
        for (&component, cm) in &self.components {
            let count = job.count(cm);
            job.place_reducers();
            job.flows(component, cm, count, &mut flows);
        }
        flows.sort_by(|a, b| a.start.partial_cmp(&b.start).expect("finite starts"));
        GeneratedJob {
            nodes: job.workers,
            makespan: job.makespan,
            flows,
        }
    }

    /// Generates `n` jobs with consecutive seeds, start times offset by
    /// `stagger_secs` each — the multi-job scenario generator.
    #[must_use]
    pub fn generate_jobs(&self, n: u32, seed: u64, stagger_secs: f64) -> Vec<GeneratedJob> {
        (0..n)
            .map(|i| {
                let mut job = self.generate_job(seed + u64::from(i));
                let offset = stagger_secs * f64::from(i);
                for f in &mut job.flows {
                    f.start += offset;
                }
                job
            })
            .collect()
    }

    /// The worker count generated flows assume (node ids 1..=workers).
    pub(crate) fn workers(&self) -> u32 {
        self.nodes.max(2)
    }

    /// Draws one job's flows stage by stage, in Hadoop's order: reads,
    /// control and other traffic; then shuffles and broadcasts; then
    /// HDFS writes. Deterministic in `seed`; starts are job-relative.
    pub(crate) fn staged_job(&self, seed: u64) -> [Vec<GenFlow>; 3] {
        let mut job = JobSampler::new(self, seed);
        job.place_reducers();
        STAGES.map(|stage| {
            let mut flows = Vec::new();
            for &component in stage {
                if let Some(cm) = self.component(component) {
                    let count = job.count(cm);
                    job.flows(component, cm, count, &mut flows);
                }
            }
            flows
        })
    }
}

/// Hadoop's stages: what drives a job, what waits for its map input,
/// and what waits for its shuffles.
const STAGES: [&[Component]; 3] = [
    &[Component::HdfsRead, Component::Control, Component::Other],
    &[Component::Shuffle, Component::Broadcast],
    &[Component::HdfsWrite],
];

/// One job's draws from a model: its seeded RNG, sampled makespan,
/// worker count and reducer placement.
///
/// [`KeddahModel::generate_job`] and [`KeddahModel::staged_job`] draw
/// the same quantities through it and differ in order only:
/// `generate_job` walks the components in model order and places the
/// reducers anew for each one, after its count; `staged_job` places them
/// once per job and walks the components stage by stage. One order for
/// both would move every flow one of them draws, and with them the
/// benchmark's pinned digests, so it waits for the change that fits
/// starts relative to the makespan, which moves them on purpose.
struct JobSampler {
    rng: StdRng,
    /// Sampled makespan, seconds; bounds every start.
    makespan: f64,
    /// Worker count (node ids 1..=workers).
    workers: u32,
    /// Shuffle sinks, one per configured reducer.
    reducer_nodes: Vec<u32>,
}

impl JobSampler {
    fn new(model: &KeddahModel, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let makespan = sample_scalar(&model.makespan, &mut rng).max(1.0);
        JobSampler {
            rng,
            makespan,
            workers: model.workers(),
            reducer_nodes: vec![0; model.reducers.max(1) as usize],
        }
    }

    /// Places the shuffle sinks on workers *with replacement* — a node
    /// hosting two reducers receives twice the in-cast, matching how
    /// YARN actually packs containers.
    fn place_reducers(&mut self) {
        for node in &mut self.reducer_nodes {
            *node = self.rng.random_range(1..=self.workers);
        }
    }

    /// Draws a component's flow count.
    fn count(&mut self, cm: &ComponentModel) -> u64 {
        sample_scalar(&cm.count, &mut self.rng).round().max(0.0) as u64
    }

    /// Draws `count` flows of `component`, each its size, start and
    /// endpoints, onto `out`.
    fn flows(
        &mut self,
        component: Component,
        cm: &ComponentModel,
        count: u64,
        out: &mut Vec<GenFlow>,
    ) {
        for _ in 0..count {
            let bytes = cm.size_dist.sample(&mut self.rng).max(1.0) as u64;
            // Arrival times are clamped into the job window; the fitted
            // family occasionally produces negative or far-tail values.
            let start = cm
                .start_dist
                .sample(&mut self.rng)
                .clamp(0.0, self.makespan * 1.25);
            let (src, dst) =
                endpoints(cm.pattern, self.workers, &self.reducer_nodes, &mut self.rng);
            out.push(GenFlow {
                src,
                dst,
                bytes,
                start,
                component,
            });
        }
    }
}

/// Samples a normal-ish scalar (mean/std), truncated at zero.
fn sample_scalar(model: &ScalarModel, rng: &mut StdRng) -> f64 {
    if model.std <= 0.0 {
        return model.mean;
    }
    // Irwin–Hall approximate standard normal: adequate for per-job
    // scalar jitter.
    let z: f64 = (0..12).map(|_| rng.random::<f64>()).sum::<f64>() - 6.0;
    (model.mean + model.std * z).max(0.0)
}

/// Synthesizes flow endpoints for a component's pattern.
fn endpoints(
    pattern: EndpointPattern,
    workers: u32,
    reducer_nodes: &[u32],
    rng: &mut StdRng,
) -> (u32, u32) {
    let worker = |rng: &mut StdRng| rng.random_range(1..=workers);
    match pattern {
        EndpointPattern::RandomPair | EndpointPattern::PipelineHop => {
            let src = worker(rng);
            let mut dst = worker(rng);
            while dst == src {
                dst = worker(rng);
            }
            (src, dst)
        }
        EndpointPattern::ManyToFew => {
            let dst = reducer_nodes[rng.random_range(0..reducer_nodes.len())];
            let mut src = worker(rng);
            while src == dst {
                src = worker(rng);
            }
            (src, dst)
        }
        EndpointPattern::ToMaster => (worker(rng), 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ComponentModel, FitQuality, MODEL_VERSION};
    use keddah_stat::distributions::{Exponential, LogNormal, Uniform};
    use keddah_stat::fit::FittedDist;
    use std::collections::BTreeMap;

    fn model() -> KeddahModel {
        let quality = FitQuality {
            ks_statistic: 0.03,
            ks_p_value: 0.5,
            samples: 200,
        };
        let mut components = BTreeMap::new();
        components.insert(
            Component::Shuffle,
            ComponentModel {
                size_dist: FittedDist::LogNormal(LogNormal::new(13.0, 0.5).unwrap()),
                size_fit: quality,
                start_dist: FittedDist::Uniform(Uniform::new(0.0, 90.0).unwrap()),
                start_fit: quality,
                count: ScalarModel {
                    mean: 100.0,
                    std: 5.0,
                },
                pattern: EndpointPattern::ManyToFew,
            },
        );
        components.insert(
            Component::Control,
            ComponentModel {
                size_dist: FittedDist::Exponential(Exponential::new(0.001).unwrap()),
                size_fit: quality,
                start_dist: FittedDist::Uniform(Uniform::new(0.0, 100.0).unwrap()),
                start_fit: quality,
                count: ScalarModel {
                    mean: 50.0,
                    std: 0.0,
                },
                pattern: EndpointPattern::ToMaster,
            },
        );
        KeddahModel {
            version: MODEL_VERSION,
            workload: "terasort".into(),
            input_bytes: 1 << 30,
            reducers: 4,
            replication: 3,
            block_bytes: 128 << 20,
            nodes: 8,
            runs: 5,
            makespan: ScalarModel {
                mean: 100.0,
                std: 5.0,
            },
            components,
        }
    }

    #[test]
    fn generates_roughly_the_modelled_count() {
        let job = model().generate_job(1);
        let shuffle = job
            .flows
            .iter()
            .filter(|f| f.component == Component::Shuffle)
            .count();
        assert!((80..=120).contains(&shuffle), "count = {shuffle}");
        let control = job
            .flows
            .iter()
            .filter(|f| f.component == Component::Control)
            .count();
        assert_eq!(control, 50, "std 0 count is exact");
    }

    #[test]
    fn deterministic_in_seed() {
        let m = model();
        assert_eq!(m.generate_job(7), m.generate_job(7));
        assert_ne!(m.generate_job(7), m.generate_job(8));
    }

    #[test]
    fn flows_sorted_and_in_window() {
        let job = model().generate_job(2);
        for w in job.flows.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        for f in &job.flows {
            assert!(f.start >= 0.0 && f.start <= job.makespan * 1.25);
            assert!(f.bytes >= 1);
        }
    }

    #[test]
    fn endpoints_respect_patterns() {
        let job = model().generate_job(3);
        for f in &job.flows {
            match f.component {
                Component::Control => assert_eq!(f.dst, 0),
                Component::Shuffle => {
                    assert_ne!(f.src, f.dst);
                    assert!(f.src >= 1 && f.dst >= 1);
                }
                _ => {}
            }
        }
        // Shuffle sinks are few: at most `reducers` distinct.
        let sinks: std::collections::HashSet<u32> = job
            .flows
            .iter()
            .filter(|f| f.component == Component::Shuffle)
            .map(|f| f.dst)
            .collect();
        assert!(sinks.len() <= 4, "sinks = {sinks:?}");
    }

    #[test]
    fn multi_job_stagger() {
        let jobs = model().generate_jobs(3, 10, 30.0);
        assert_eq!(jobs.len(), 3);
        let first_start = |j: &GeneratedJob| j.flows.first().map(|f| f.start).unwrap_or(0.0);
        assert!(first_start(&jobs[1]) >= 30.0);
        assert!(first_start(&jobs[2]) >= 60.0);
    }

    /// Both replay loops draw nothing for no jobs: the open loop gets no
    /// jobs, and a closed-loop replay of none is an empty report.
    #[test]
    fn zero_jobs_replay_nothing_in_either_loop() {
        use keddah_netsim::{SimOptions, Topology};
        let m = model();
        assert!(m.generate_jobs(0, 11, 5.0).is_empty());
        let topo = Topology::star(21, 1e9);
        let report =
            crate::replay::replay_model_closed(&m, &topo, 0, 11, 5.0, SimOptions::default())
                .unwrap();
        assert!(report.sim.results.is_empty());
        assert!(report.fct_by_component.is_empty());
    }

    #[test]
    fn component_sizes_filter() {
        let job = model().generate_job(4);
        let sizes = job.component_sizes(Component::Shuffle);
        assert!(!sizes.is_empty());
        assert!(job.component_sizes(Component::HdfsRead).is_empty());
        assert!(job.total_bytes() > 0);
    }
}
