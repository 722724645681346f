//! Cluster-scale workload generation: mixes of jobs over time.
//!
//! Real Hadoop clusters do not run one job at a time; they run a mix of
//! job types arriving continuously. A [`JobMix`] combines fitted
//! [`KeddahModel`]s with selection weights and a Poisson job-arrival
//! process, generating the aggregate traffic of a busy cluster over a
//! time horizon — the workload a network-simulator study actually wants
//! to inject.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::generate::GeneratedJob;
use crate::model::KeddahModel;
use crate::{CoreError, Result};

/// One entry of a job mix: a model and its relative arrival weight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixEntry {
    /// The traffic model jobs of this type are generated from.
    pub model: KeddahModel,
    /// Relative likelihood of this type per arrival (weights need not
    /// sum to 1).
    pub weight: f64,
}

/// A weighted mix of job models with a Poisson arrival process.
///
/// # Examples
///
/// See `examples/concurrent_jobs.rs` for single-model overlays and
/// [`JobMix::generate`] for mixed-type cluster workloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobMix {
    entries: Vec<MixEntry>,
    /// Mean job arrivals per second.
    arrival_rate: f64,
}

impl JobMix {
    /// Creates a mix from `(model, weight)` pairs and a mean arrival
    /// rate in jobs/second.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InsufficientData`] if `entries` is empty, a
    /// weight is not finite and positive, or the rate is not positive.
    pub fn new(entries: Vec<MixEntry>, arrival_rate: f64) -> Result<JobMix> {
        if entries.is_empty() {
            return Err(CoreError::InsufficientData {
                what: "job mix needs at least one model",
            });
        }
        for e in &entries {
            if !(e.weight.is_finite() && e.weight > 0.0) {
                return Err(CoreError::InsufficientData {
                    what: "job mix weights must be positive",
                });
            }
        }
        if !(arrival_rate.is_finite() && arrival_rate > 0.0) {
            return Err(CoreError::InsufficientData {
                what: "job arrival rate must be positive",
            });
        }
        Ok(JobMix {
            entries,
            arrival_rate,
        })
    }

    /// The mix entries.
    #[must_use]
    pub fn entries(&self) -> &[MixEntry] {
        &self.entries
    }

    /// Generates the jobs arriving in `[0, horizon_secs)`: exponential
    /// inter-arrival gaps at the configured rate, job type drawn by
    /// weight, each job's flows offset to its arrival time.
    /// Deterministic in `seed`.
    #[must_use]
    pub fn generate(&self, horizon_secs: f64, seed: u64) -> Vec<GeneratedJob> {
        let mut rng = StdRng::seed_from_u64(seed);
        let total_weight: f64 = self.entries.iter().map(|e| e.weight).sum();
        let mut jobs = Vec::new();
        let mut t = 0.0;
        let mut job_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        loop {
            // Exponential gap via inverse transform.
            let u: f64 = rng.random::<f64>().clamp(1e-12, 1.0 - 1e-12);
            t += -u.ln() / self.arrival_rate;
            if t >= horizon_secs {
                break;
            }
            // Weighted type selection.
            let mut pick = rng.random::<f64>() * total_weight;
            let entry = self
                .entries
                .iter()
                .find(|e| {
                    pick -= e.weight;
                    pick <= 0.0
                })
                .unwrap_or_else(|| self.entries.last().expect("mix is non-empty"));
            job_seed = job_seed.wrapping_add(0x0100_0000_01b3);
            let mut job = entry.model.generate_job(job_seed);
            for f in &mut job.flows {
                f.start += t;
            }
            jobs.push(job);
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Keddah;
    use keddah_hadoop::{ClusterSpec, HadoopConfig, JobSpec, Workload};

    fn model(workload: Workload) -> KeddahModel {
        let traces = Keddah::capture(
            &ClusterSpec::racks(2, 3),
            &HadoopConfig::default().with_reducers(4),
            &JobSpec::new(workload, 512 << 20),
            2,
            5,
        );
        Keddah::fit(&traces).expect("model fits")
    }

    fn mix() -> JobMix {
        JobMix::new(
            vec![
                MixEntry {
                    model: model(Workload::TeraSort),
                    weight: 3.0,
                },
                MixEntry {
                    model: model(Workload::Grep),
                    weight: 1.0,
                },
            ],
            0.05, // one job every ~20 s
        )
        .expect("valid mix")
    }

    #[test]
    fn generates_poisson_stream() {
        let jobs = mix().generate(2_000.0, 1);
        // ~100 expected arrivals; accept a wide band.
        assert!(
            (50..=160).contains(&jobs.len()),
            "unexpected arrival count {}",
            jobs.len()
        );
        // Flows are offset to arrival times: later jobs start later.
        let first_flow_start = |j: &GeneratedJob| j.flows.first().map(|f| f.start).unwrap_or(0.0);
        assert!(first_flow_start(&jobs[0]) < first_flow_start(jobs.last().unwrap()));
    }

    #[test]
    fn respects_weights_roughly() {
        let m = mix();
        let jobs = m.generate(10_000.0, 2);
        let terasort = jobs.iter().filter(|j| {
            // TeraSort jobs carry far more bytes than Grep jobs.
            j.total_bytes() > 200 << 20
        });
        let heavy = terasort.count() as f64 / jobs.len() as f64;
        assert!(
            (0.55..0.95).contains(&heavy),
            "expected ~75% terasort, got {heavy}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let m = mix();
        assert_eq!(m.generate(500.0, 9), m.generate(500.0, 9));
        assert_ne!(m.generate(500.0, 9), m.generate(500.0, 10));
    }

    #[test]
    fn rejects_bad_mixes() {
        assert!(JobMix::new(vec![], 1.0).is_err());
        let e = MixEntry {
            model: model(Workload::Grep),
            weight: 0.0,
        };
        assert!(JobMix::new(vec![e.clone()], 1.0).is_err());
        let mut ok = e;
        ok.weight = 1.0;
        assert!(JobMix::new(vec![ok.clone()], 0.0).is_err());
        assert!(JobMix::new(vec![ok], 1.0).is_ok());
    }

    #[test]
    fn horizon_bounds_arrivals() {
        let jobs = mix().generate(1.0, 3);
        // Rate 0.05/s over 1 s: almost always zero arrivals.
        assert!(jobs.len() <= 2);
    }
}
