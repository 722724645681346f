//! Reproducibility guarantees: every stage of the toolchain is a pure
//! function of its inputs and seed. This is load-bearing for the paper's
//! goal ("enabling reproducible Hadoop research").

use keddah::core::pipeline::Keddah;
use keddah::core::replay::{jobs_to_flows, replay, replay_faulted, replay_model_closed};
use keddah::core::{FaultSpec, ModelSource, TraceSource};
use keddah::hadoop::{run_job, ClusterSpec, HadoopConfig, JobSpec, Workload};
use keddah::netsim::{SimOptions, Topology};
use keddah::obs::Obs;

#[test]
fn capture_is_deterministic() {
    let cluster = ClusterSpec::racks(2, 3);
    let config = HadoopConfig::default();
    let job = JobSpec::new(Workload::PageRank, 512 << 20);
    let a = run_job(&cluster, &config, &job, 123);
    let b = run_job(&cluster, &config, &job, 123);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.duration, b.duration);
    assert_eq!(a.counters, b.counters);
}

#[test]
fn capture_varies_with_seed() {
    let cluster = ClusterSpec::racks(2, 3);
    let config = HadoopConfig::default();
    let job = JobSpec::new(Workload::WordCount, 512 << 20);
    let a = run_job(&cluster, &config, &job, 1);
    let b = run_job(&cluster, &config, &job, 2);
    assert_ne!(a.trace, b.trace);
}

#[test]
fn full_pipeline_is_deterministic() {
    let cluster = ClusterSpec::racks(2, 3);
    let config = HadoopConfig::default();
    let job = JobSpec::new(Workload::TeraSort, 512 << 20);

    let run = |seed: u64| {
        let traces = Keddah::capture(&cluster, &config, &job, 2, seed);
        let model = Keddah::fit(&traces).expect("fits");
        let generated = model.generate_job(7);
        let topo = Topology::star(8, 1e9);
        let flows = jobs_to_flows(std::slice::from_ref(&generated), &topo).expect("replays");
        let replay = replay(&topo, &flows, SimOptions::default());
        (model, generated, replay.sim.fcts())
    };
    let (m1, g1, f1) = run(5);
    let (m2, g2, f2) = run(5);
    assert_eq!(m1, m2, "models identical");
    assert_eq!(g1, g2, "generated jobs identical");
    assert_eq!(f1, f2, "replay FCTs identical");
}

#[test]
fn closed_loop_replay_is_deterministic() {
    let cluster = ClusterSpec::racks(2, 3);
    let config = HadoopConfig::default().with_reducers(3);
    let job = JobSpec::new(Workload::TeraSort, 512 << 20);
    let traces = Keddah::capture(&cluster, &config, &job, 2, 17);
    let topo = Topology::leaf_spine(3, 3, 2, 1e9, 4.0);
    let opts = SimOptions {
        mouse_threshold: 10_000,
        ..SimOptions::default()
    };

    // Trace replay: same capture, byte-identical finishes.
    let nanos = |r: &keddah::core::replay::ReplayReport| -> Vec<u64> {
        r.sim.results.iter().map(|f| f.finish.as_nanos()).collect()
    };
    let replay_trace = || {
        let mut source = TraceSource::new(&traces[0], &topo).expect("trace fits");
        replay_faulted(
            &topo,
            &mut source,
            &FaultSpec::empty(),
            opts,
            &Obs::disabled(),
        )
        .expect("replays")
    };
    let a = replay_trace();
    let b = replay_trace();
    assert_eq!(nanos(&a), nanos(&b), "closed-loop trace replay identical");

    // Model replay: same seed, byte-identical; different seed, different.
    let model = Keddah::fit(&traces).expect("fits");
    let m1 = replay_model_closed(&model, &topo, 2, 11, 5.0, opts).expect("replays");
    let m2 = replay_model_closed(&model, &topo, 2, 11, 5.0, opts).expect("replays");
    assert_eq!(nanos(&m1), nanos(&m2), "closed-loop model replay identical");
    let m3 = replay_model_closed(&model, &topo, 2, 12, 5.0, opts).expect("replays");
    assert_ne!(nanos(&m1), nanos(&m3), "seed changes the replay");
}

#[test]
fn closed_loop_replay_is_parallelism_invariant_through_the_runner() {
    use keddah::core::{MatrixCell, Runner};

    // The runner's derived seeds make captures (and hence fitted models)
    // independent of worker count; closed-loop replay on top must stay
    // byte-identical at any parallelism.
    let cells = vec![
        MatrixCell::new(
            Workload::TeraSort,
            512 << 20,
            HadoopConfig::default().with_reducers(4),
            2,
        ),
        MatrixCell::new(
            Workload::WordCount,
            512 << 20,
            HadoopConfig::default().with_reducers(2),
            2,
        ),
    ];
    let replay_at_width = |parallelism: usize| -> Vec<Vec<u64>> {
        // Fresh runner per width: no cross-width cache short-circuit.
        let runner = Runner::new(ClusterSpec::racks(2, 3));
        runner
            .run_matrix(&cells, parallelism)
            .iter()
            .map(|cell| {
                let model = cell.model.as_ref().expect("cell fits a model");
                let report = replay_model_closed(
                    model,
                    &Topology::star(8, 1e9),
                    2,
                    11,
                    5.0,
                    SimOptions::default(),
                )
                .expect("replays");
                report
                    .sim
                    .results
                    .iter()
                    .map(|r| r.finish.as_nanos())
                    .collect()
            })
            .collect()
    };
    let serial = replay_at_width(1);
    let wide = replay_at_width(4);
    assert_eq!(serial, wide, "replay identical across --jobs widths");
}

#[test]
fn jobs_width_never_changes_comparisons() {
    use keddah::core::validate::compare_replays;
    use keddah::core::{MatrixCell, Runner};

    // Open-vs-closed replay comparisons of the same fitted model
    // serialize byte-identically at any runner width.
    let cells = vec![MatrixCell::new(
        Workload::TeraSort,
        512 << 20,
        HadoopConfig::default().with_reducers(3),
        2,
    )];
    let topo = Topology::star(8, 1e9);
    let comparison_json = |parallelism: usize| -> String {
        let runner = Runner::new(ClusterSpec::racks(2, 3));
        let results = runner.run_matrix(&cells, parallelism);
        let model = results[0].model.as_ref().expect("cell fits a model");
        let opts = SimOptions::default();
        let jobs = model.generate_jobs(2, 11, 5.0);
        let flows = jobs_to_flows(&jobs, &topo).expect("open replay");
        let open = replay(&topo, &flows, opts);
        let closed = replay_model_closed(model, &topo, 2, 11, 5.0, opts).expect("closed replay");
        let rows = compare_replays(&open, &closed).expect("comparable components");
        serde_json::to_string(&rows).expect("comparison serializes")
    };
    let base = comparison_json(1);
    assert!(base.contains("ks_statistic"), "comparison is non-trivial");
    assert_eq!(base, comparison_json(4), "width changes nothing");
}

/// Closed-loop replay of `model` (2 jobs, seed 11) under `spec`.
fn model_replay(
    model: &keddah::core::KeddahModel,
    topo: &Topology,
    spec: &FaultSpec,
    opts: SimOptions,
) -> keddah::core::replay::ReplayReport {
    let mut source = ModelSource::new(model, 2, 11, 5.0, topo).expect("model fits");
    replay_faulted(topo, &mut source, spec, opts, &Obs::disabled()).expect("replays")
}

#[test]
fn fault_schedules_never_change_comparisons_across_widths() {
    use keddah::core::validate::compare_replays;
    use keddah::core::{MatrixCell, Runner};
    use keddah::faults::{generate, FaultGen};

    // Degraded-mode replay must be as reproducible as the clean path:
    // the baseline-vs-faulted comparison of the same fitted model and
    // the same seed-derived fault schedule serializes byte-identically
    // at any runner width.
    let cells = vec![MatrixCell::new(
        Workload::TeraSort,
        512 << 20,
        HadoopConfig::default().with_reducers(3),
        2,
    )];
    let topo = Topology::leaf_spine(3, 3, 2, 1e9, 2.0);
    let gen = FaultGen {
        hosts: topo.host_count(),
        links: topo.link_count() as u32,
        horizon_nanos: 30_000_000_000,
        node_crashes: 1,
        recover_after_nanos: Some(10_000_000_000),
        link_downs: 1,
        link_degrades: 1,
        partitions: 0,
    };
    let spec = generate(&gen, 41);
    assert_eq!(spec, generate(&gen, 41), "spec derivation is pure");

    let comparison_json = |parallelism: usize| -> String {
        let runner = Runner::new(ClusterSpec::racks(2, 3));
        let results = runner.run_matrix(&cells, parallelism);
        let model = results[0].model.as_ref().expect("cell fits a model");
        let opts = SimOptions {
            mouse_threshold: 10_000,
            ..SimOptions::default()
        };
        let baseline = model_replay(model, &topo, &FaultSpec::empty(), opts);
        let faulted = model_replay(model, &topo, &spec, opts);
        assert!(
            faulted.sim.faults.faults_applied > 0,
            "the schedule actually fired"
        );
        let rows = compare_replays(&baseline, &faulted).expect("comparable components");
        serde_json::to_string(&rows).expect("comparison serializes")
    };
    let base = comparison_json(1);
    assert!(base.contains("ks_statistic"), "comparison is non-trivial");
    assert_eq!(base, comparison_json(4), "width changes nothing");
}

#[test]
fn aggregation_knob_never_changes_replays() {
    use keddah::faults::{generate, FaultGen};

    // Flow bundles (`aggregate`) are a pure performance knob: the
    // pre-bundle singleton shape must reproduce finish times, link bytes
    // and fault accounting bit for bit, on both the clean and the
    // faulted path.
    let cluster = ClusterSpec::racks(2, 3);
    let config = HadoopConfig::default().with_reducers(3);
    let job = JobSpec::new(Workload::TeraSort, 512 << 20);
    let traces = Keddah::capture(&cluster, &config, &job, 2, 17);
    let model = Keddah::fit(&traces).expect("fits");
    let topo = Topology::leaf_spine(3, 3, 2, 1e9, 2.0);
    let gen = FaultGen {
        hosts: topo.host_count(),
        links: topo.link_count() as u32,
        horizon_nanos: 30_000_000_000,
        node_crashes: 1,
        recover_after_nanos: Some(10_000_000_000),
        link_downs: 1,
        link_degrades: 1,
        partitions: 0,
    };
    let spec = generate(&gen, 41);

    let fingerprint = |aggregate: bool| {
        let opts = SimOptions {
            aggregate,
            mouse_threshold: 10_000,
            ..SimOptions::default()
        };
        let clean = model_replay(&model, &topo, &FaultSpec::empty(), opts);
        let faulted = model_replay(&model, &topo, &spec, opts);
        assert!(faulted.sim.faults.faults_applied > 0, "schedule fired");
        let nanos = |r: &keddah::core::replay::ReplayReport| -> Vec<u64> {
            r.sim.results.iter().map(|f| f.finish.as_nanos()).collect()
        };
        (
            nanos(&clean),
            clean.sim.link_bytes.clone(),
            nanos(&faulted),
            faulted.sim.link_bytes.clone(),
            faulted.sim.faults.clone(),
        )
    };
    assert_eq!(
        fingerprint(true),
        fingerprint(false),
        "singleton-bundle oracle is byte-identical to aggregation"
    );
}

#[test]
fn trace_serialization_is_stable() {
    let cluster = ClusterSpec::racks(1, 4);
    let config = HadoopConfig::default().with_reducers(2);
    let job = JobSpec::new(Workload::Grep, 256 << 20);
    let trace = run_job(&cluster, &config, &job, 9).trace;

    let mut buf1 = Vec::new();
    trace.write_jsonl(&mut buf1).expect("writes");
    let reread = keddah::flowcap::Trace::read_jsonl(&buf1[..]).expect("reads");
    assert_eq!(trace, reread);
    let mut buf2 = Vec::new();
    reread.write_jsonl(&mut buf2).expect("writes again");
    assert_eq!(buf1, buf2, "byte-identical re-serialization");
}
