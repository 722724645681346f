//! Generation pins: the flows a fitted model draws, open and closed loop.
//!
//! The golden corpus pins captures and trace replays, not generated
//! traffic, so nothing else in `cargo test` notices when a generator
//! draws one value in another order. This suite fits one model per
//! golden fixture and one from both TeraSort fixtures, adds one written
//! out here, and pins, at two seeds:
//!
//! * every flow `KeddahModel::generate_jobs` draws (3 jobs, 5 s apart),
//!   field by field;
//! * a closed-loop `ModelSource` replay (2 jobs, 5 s apart) on the
//!   corpus fabric: every injected spec, in injection order, with its
//!   finish time in nanoseconds.
//!
//! A model fitted from one capture has no spread in its counts or
//! makespan, so drawing them takes nothing from the job's RNG, and no
//! fixture reads over the network. The pooled TeraSort model draws every
//! count; the written model has every component, so its shuffles wait on
//! a read barrier.
//!
//! Each is a flow count and an FNV-1a digest. Moving one draw, one
//! reducer placement or one stage release fails here. Re-pin only when
//! generation changes on purpose.

use std::sync::OnceLock;

use keddah::core::replay::replay_source_observed;
use keddah::core::{Keddah, KeddahModel, ModelSource};
use keddah::flowcap::{Component, Trace};
use keddah::netsim::{SimOptions, Topology};
use keddah::obs::Obs;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const FIXTURES: [&str; 6] = [
    "terasort",
    "terasort_nodefail",
    "wordcount",
    "pagerank",
    "pig_join",
    "datagrid",
];

/// Model names, in pin order: the fixtures, then the two below.
const MODELS: [&str; 8] = [
    FIXTURES[0],
    FIXTURES[1],
    FIXTURES[2],
    FIXTURES[3],
    FIXTURES[4],
    FIXTURES[5],
    "terasort_pooled",
    "every_stage",
];

const SEEDS: [u64; 2] = [11, 29];

/// A model with every component, and spread counts and makespan.
fn every_stage() -> KeddahModel {
    let fit = r#"{"ks_statistic": 0.05, "ks_p_value": 0.4, "samples": 100}"#;
    let component = |name: &str, size: &str, start: &str, count: &str, pattern: &str| {
        format!(
            r#""{name}": {{"size_dist": {size}, "size_fit": {fit}, "start_dist": {start},
              "start_fit": {fit}, "count": {count}, "pattern": "{pattern}"}}"#
        )
    };
    let components = [
        component(
            "hdfs_read",
            r#"{"family": "lognormal", "mu": 16.5, "sigma": 0.3}"#,
            r#"{"family": "uniform", "low": 0.0, "high": 8.0}"#,
            r#"{"mean": 12.0, "std": 3.0}"#,
            "random_pair",
        ),
        component(
            "hdfs_write",
            r#"{"family": "lognormal", "mu": 16.0, "sigma": 0.3}"#,
            r#"{"family": "gamma", "shape": 4.0, "scale": 4.0}"#,
            r#"{"mean": 12.0, "std": 2.0}"#,
            "pipeline_hop",
        ),
        component(
            "shuffle",
            r#"{"family": "lognormal", "mu": 15.0, "sigma": 0.4}"#,
            r#"{"family": "uniform", "low": 2.0, "high": 12.0}"#,
            r#"{"mean": 16.0, "std": 2.0}"#,
            "many_to_few",
        ),
        component(
            "control",
            r#"{"family": "exponential", "rate": 0.002}"#,
            r#"{"family": "uniform", "low": 0.0, "high": 30.0}"#,
            r#"{"mean": 60.0, "std": 5.0}"#,
            "to_master",
        ),
        component(
            "other",
            r#"{"family": "lognormal", "mu": 10.0, "sigma": 1.0}"#,
            r#"{"family": "exponential", "rate": 0.1}"#,
            r#"{"mean": 5.0, "std": 2.0}"#,
            "random_pair",
        ),
        component(
            "broadcast",
            r#"{"family": "lognormal", "mu": 12.0, "sigma": 0.3}"#,
            r#"{"family": "uniform", "low": 4.0, "high": 8.0}"#,
            r#"{"mean": 6.0, "std": 1.0}"#,
            "many_to_few",
        ),
    ];
    let json = format!(
        r#"{{"version": 1, "workload": "pig_join", "input_bytes": 1073741824,
          "reducers": 3, "replication": 3, "block_bytes": 134217728, "nodes": 6,
          "runs": 3, "makespan": {{"mean": 25.0, "std": 3.0}},
          "components": {{{}}}}}"#,
        components.join(", ")
    );
    KeddahModel::from_json(&json).expect("model parses")
}

fn fixture(name: &str) -> Trace {
    let path = format!("{}/tests/fixtures/{name}.jsonl", env!("CARGO_MANIFEST_DIR"));
    let data = std::fs::read(&path).expect("fixture exists");
    Trace::read_jsonl(&data[..]).expect("fixture parses")
}

/// The models of [`MODELS`], fitted once for both tests.
fn models() -> &'static [KeddahModel] {
    static FITTED: OnceLock<Vec<KeddahModel>> = OnceLock::new();
    FITTED.get_or_init(|| {
        let mut models: Vec<KeddahModel> = FIXTURES
            .iter()
            .map(|name| Keddah::fit(&[fixture(name)]).expect("fixture fits"))
            .collect();
        let pooled = Keddah::fit(&[fixture("terasort"), fixture("terasort_nodefail")])
            .expect("both terasort fixtures fit");
        assert!(pooled.makespan.std > 0.0);
        assert!(pooled.components.values().all(|c| c.count.std > 0.0));
        models.push(pooled);
        models.push(every_stage());
        models
    })
}

fn tag(component: Component) -> u64 {
    Component::ALL
        .iter()
        .position(|&c| c == component)
        .expect("component in ALL") as u64
}

/// Flow count and digest of what `model` generates open loop.
fn open_pin(model: &KeddahModel, seed: u64) -> (usize, u64) {
    let jobs = model.generate_jobs(3, seed, 5.0);
    let mut h = Fnv::new();
    for job in &jobs {
        h.u64(u64::from(job.nodes));
        h.u64(job.makespan.to_bits());
        h.u64(job.flows.len() as u64);
        for f in &job.flows {
            h.u64(u64::from(f.src));
            h.u64(u64::from(f.dst));
            h.u64(f.bytes);
            h.u64(f.start.to_bits());
            h.u64(tag(f.component));
        }
    }
    (jobs.iter().map(|j| j.flows.len()).sum(), h.0)
}

/// Flow count and digest of a closed-loop replay of `model`.
fn closed_pin(model: &KeddahModel, seed: u64) -> (usize, u64) {
    // The golden corpus fabric: 9 hosts, 2:1 oversubscribed.
    let topo = Topology::leaf_spine(3, 3, 2, 1e9, 2.0);
    let mut source = ModelSource::new(model, 2, seed, 5.0, &topo).expect("model fits");
    let options = SimOptions {
        mouse_threshold: 10_000,
        ..SimOptions::default()
    };
    let report = replay_source_observed(&topo, &mut source, options, &Obs::disabled());
    let mut h = Fnv::new();
    for r in &report.sim.results {
        h.u64(u64::from(r.spec.src.0));
        h.u64(u64::from(r.spec.dst.0));
        h.u64(r.spec.bytes);
        h.u64(r.spec.start.as_nanos());
        h.u64(u64::from(r.spec.tag));
        h.u64(r.finish.as_nanos());
    }
    (report.sim.results.len(), h.0)
}

/// Checks every (model, seed) against `pins`, naming each mismatch.
fn check(pins: &[(&str, u64, usize, u64)], pin: fn(&KeddahModel, u64) -> (usize, u64)) {
    let mut got = Vec::new();
    for (name, model) in MODELS.iter().zip(models()) {
        for seed in SEEDS {
            let (flows, digest) = pin(model, seed);
            got.push((*name, seed, flows, digest));
        }
    }
    let wrong: Vec<String> = got
        .iter()
        .enumerate()
        .filter(|&(i, g)| pins.get(i) != Some(g))
        .map(|(_, (name, seed, flows, digest))| {
            format!("(\"{name}\", {seed}, {flows}, {digest:#018x})")
        })
        .collect();
    assert!(wrong.is_empty(), "moved: {}", wrong.join(", "));
    assert_eq!(got.len(), pins.len(), "one pin per fixture and seed");
}

#[test]
fn generated_jobs_are_pinned() {
    check(OPEN_PINS, open_pin);
}

#[test]
fn closed_loop_model_replays_are_pinned() {
    check(CLOSED_PINS, closed_pin);
}

/// (model, seed, flows, digest) of `generate_jobs(3, seed, 5.0)`.
const OPEN_PINS: &[(&str, u64, usize, u64)] = &[
    ("terasort", 11, 768, 0xd3be7bdf6acabe8a),
    ("terasort", 29, 768, 0xdf9896fe46cc5ce7),
    ("terasort_nodefail", 11, 894, 0x6ad658c7d80dd98f),
    ("terasort_nodefail", 29, 894, 0x7e3473d1149ba16d),
    ("wordcount", 11, 333, 0x856a3c99caeda15c),
    ("wordcount", 29, 333, 0xa96af362489490a4),
    ("pagerank", 11, 2175, 0xef803c346187fdf9),
    ("pagerank", 29, 2175, 0xb2cfcc258e759941),
    ("pig_join", 11, 1554, 0x52da215150b02eff),
    ("pig_join", 29, 1554, 0xdaa1d498dd816d86),
    ("datagrid", 11, 348, 0xd5b775b9e2d4df4a),
    ("datagrid", 29, 348, 0x3d597c11ce731f30),
    ("terasort_pooled", 11, 807, 0xe92b9ca422c20f12),
    ("terasort_pooled", 29, 820, 0x18d1c318641a155c),
    ("every_stage", 11, 344, 0x6313d8503358ee2a),
    ("every_stage", 29, 352, 0xd7397d8ca7ede987),
];

/// (model, seed, flows, digest) of a 2-job closed-loop replay.
const CLOSED_PINS: &[(&str, u64, usize, u64)] = &[
    ("terasort", 11, 512, 0x545d23bdabad2c66),
    ("terasort", 29, 512, 0xf48248509e4bd34e),
    ("terasort_nodefail", 11, 596, 0x08b2d67ec4fc1b6b),
    ("terasort_nodefail", 29, 596, 0x99714fafec4443cd),
    ("wordcount", 11, 222, 0xa284dab87d45fcfa),
    ("wordcount", 29, 222, 0x0785f608cc85c361),
    ("pagerank", 11, 1450, 0x02b7875dc16a4361),
    ("pagerank", 29, 1450, 0x2dd6294b6edb091c),
    ("pig_join", 11, 1036, 0xb6e7b4dd3abef343),
    ("pig_join", 29, 1036, 0xd08e9618b45d2f21),
    ("datagrid", 11, 232, 0xf13a743d7a117ab5),
    ("datagrid", 29, 232, 0xd48563a78cc90bfe),
    ("terasort_pooled", 11, 526, 0x3443513a75fc65f7),
    ("terasort_pooled", 29, 550, 0x222f45e6135d7324),
    ("every_stage", 11, 206, 0x64544736a0d1177b),
    ("every_stage", 29, 225, 0x612aaf3e28a4d295),
];
