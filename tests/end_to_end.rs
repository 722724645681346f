//! Cross-crate integration tests: the full Keddah pipeline from
//! simulated capture to network-simulator replay.

use keddah::core::pipeline::Keddah;
use keddah::core::replay::{jobs_to_flows, replay, trace_to_flows};
use keddah::core::validate::validate_model;
use keddah::core::KeddahModel;
use keddah::flowcap::Component;
use keddah::hadoop::{run_job, run_session, ClusterSpec, HadoopConfig, JobSpec, Workload};
use keddah::netsim::{SimOptions, Topology};

fn testbed() -> (ClusterSpec, HadoopConfig) {
    (ClusterSpec::racks(2, 4), HadoopConfig::default())
}

#[test]
fn capture_model_generate_replay_validate() {
    let (cluster, config) = testbed();
    let job = JobSpec::new(Workload::TeraSort, 1 << 30);

    // Capture.
    let traces = Keddah::capture(&cluster, &config, &job, 4, 10);
    assert_eq!(traces.len(), 4);
    for t in &traces {
        assert!(t.len() > 50, "trace too small: {}", t.len());
        assert!(
            t.total_bytes() > 1 << 30,
            "terasort moves more than its input"
        );
    }

    // Model.
    let model = Keddah::fit(&traces).expect("terasort fits");
    assert!(model.component(Component::Shuffle).is_some());
    assert!(model.component(Component::HdfsWrite).is_some());
    assert!(model.component(Component::Control).is_some());

    // Generate.
    let generated = model.generate_job(99);
    assert!(!generated.flows.is_empty());
    let gen_shuffle: f64 = generated.component_sizes(Component::Shuffle).iter().sum();
    let cap_shuffle: f64 = traces[0].component_sizes(Component::Shuffle).iter().sum();
    let ratio = gen_shuffle / cap_shuffle;
    assert!(
        (0.5..2.0).contains(&ratio),
        "generated shuffle volume off by {ratio}x"
    );

    // Replay both captured and generated traffic on the same fabric.
    let topo = Topology::leaf_spine(3, 3, 2, 1e9, 1.0);
    let opts = SimOptions {
        mouse_threshold: 10_000,
        ..SimOptions::default()
    };
    let trace_flows = trace_to_flows(&traces[0], &topo).expect("trace replays");
    let trace_replay = replay(&topo, &trace_flows, opts);
    let model_flows = jobs_to_flows(&[generated], &topo).expect("generated replays");
    let model_replay = replay(&topo, &model_flows, opts);
    assert!(trace_replay.makespan_secs() > 1.0);
    assert!(model_replay.makespan_secs() > 1.0);
    assert!(trace_replay
        .fct_by_component
        .contains_key(&Component::Shuffle));
    assert!(model_replay
        .fct_by_component
        .contains_key(&Component::Shuffle));

    // Validate.
    let report = validate_model(&model, &traces, 4, 1).expect("validates");
    let shuffle = report.component(Component::Shuffle).expect("has shuffle");
    assert!(shuffle.ks_statistic < 0.3, "KS = {}", shuffle.ks_statistic);
    assert!(shuffle.volume_error < 0.5, "vol = {}", shuffle.volume_error);
}

#[test]
fn workload_orderings_match_the_paper() {
    let (cluster, config) = testbed();
    let shuffle_bytes = |w: Workload| -> u64 {
        let traces = Keddah::capture(&cluster, &config, &JobSpec::new(w, 1 << 30), 2, 33);
        traces
            .iter()
            .map(|t| t.component_sizes(Component::Shuffle).iter().sum::<f64>() as u64)
            .sum::<u64>()
            / 2
    };
    let terasort = shuffle_bytes(Workload::TeraSort);
    let wordcount = shuffle_bytes(Workload::WordCount);
    let grep = shuffle_bytes(Workload::Grep);
    // The headline qualitative result: terasort >> wordcount >> grep.
    assert!(terasort > 2 * wordcount, "{terasort} vs {wordcount}");
    assert!(wordcount > 2 * grep, "{wordcount} vs {grep}");
}

#[test]
fn replication_sweep_shifts_write_traffic_only() {
    let cluster = ClusterSpec::racks(2, 4);
    let job = JobSpec::new(Workload::TeraSort, 1 << 30);
    let volumes = |replication: u16| -> (f64, f64) {
        let config = HadoopConfig::default().with_replication(replication);
        let traces = Keddah::capture(&cluster, &config, &job, 2, 55);
        let write: f64 = traces
            .iter()
            .map(|t| t.component_sizes(Component::HdfsWrite).iter().sum::<f64>())
            .sum();
        let shuffle: f64 = traces
            .iter()
            .map(|t| t.component_sizes(Component::Shuffle).iter().sum::<f64>())
            .sum();
        (write / 2.0, shuffle / 2.0)
    };
    let (w1, s1) = volumes(1);
    let (w3, s3) = volumes(3);
    assert!(w3 > w1 + (1 << 29) as f64, "write: {w1} -> {w3}");
    // Shuffle volume is insensitive to replication (within noise).
    let shuffle_ratio = s3 / s1;
    assert!(
        (0.8..1.2).contains(&shuffle_ratio),
        "shuffle moved with replication: {shuffle_ratio}"
    );
}

#[test]
fn reducer_sweep_reshapes_shuffle() {
    let cluster = ClusterSpec::racks(2, 4);
    let job = JobSpec::new(Workload::TeraSort, 2 << 30);
    let shuffle_shape = |reducers: u32| -> (usize, f64) {
        let config = HadoopConfig::default().with_reducers(reducers);
        let traces = Keddah::capture(&cluster, &config, &job, 1, 77);
        let sizes = traces[0].component_sizes(Component::Shuffle);
        let total: f64 = sizes.iter().sum();
        (sizes.len(), total / sizes.len() as f64)
    };
    let (n4, mean4) = shuffle_shape(4);
    let (n16, mean16) = shuffle_shape(16);
    assert!(
        n16 > 2 * n4,
        "flow count should grow with reducers: {n4} -> {n16}"
    );
    assert!(
        mean16 < mean4 / 2.0,
        "per-flow size should shrink with reducers: {mean4} -> {mean16}"
    );
}

#[test]
fn model_json_is_a_usable_interchange_format() {
    let (cluster, config) = testbed();
    let traces = Keddah::capture(
        &cluster,
        &config,
        &JobSpec::new(Workload::WordCount, 1 << 30),
        3,
        20,
    );
    let model = Keddah::fit(&traces).expect("wordcount fits");
    let json = model.to_json();
    // A consumer that only has the JSON can regenerate traffic.
    let loaded = KeddahModel::from_json(&json).expect("parses");
    let job_a = model.generate_job(5);
    let job_b = loaded.generate_job(5);
    assert_eq!(job_a, job_b, "serialized model generates identical traffic");
}

#[test]
fn oversubscription_hurts_generated_shuffle() {
    let (cluster, config) = testbed();
    let traces = Keddah::capture(
        &cluster,
        &config,
        &JobSpec::new(Workload::TeraSort, 1 << 30),
        3,
        44,
    );
    let model = Keddah::fit(&traces).expect("fits");
    let jobs = vec![model.generate_job(3)];
    let opts = SimOptions {
        mouse_threshold: 10_000,
        ..SimOptions::default()
    };
    let mean_fct = |oversub: f64| -> f64 {
        let topo = Topology::leaf_spine(3, 3, 2, 1e9, oversub);
        let report = replay(&topo, &jobs_to_flows(&jobs, &topo).expect("replays"), opts);
        let fcts = &report.fct_by_component[&Component::Shuffle];
        fcts.iter().sum::<f64>() / fcts.len() as f64
    };
    let fast = mean_fct(1.0);
    let slow = mean_fct(8.0);
    assert!(
        slow > 1.5 * fast,
        "8x oversubscription should slow shuffle: {fast} vs {slow}"
    );
}

/// An empty input is a job with no maps, not a panic: each paper workload
/// still submits its job, starts its application master and runs its
/// reducers, so the capture holds control traffic, and a session chains
/// two empty jobs.
#[test]
fn empty_inputs_capture_a_job_with_no_maps() {
    let (cluster, config) = testbed();
    for &w in Workload::PAPER {
        let run = run_job(&cluster, &config, &JobSpec::new(w, 0), 5);
        assert_eq!(run.counters.maps, 0, "{w}");
        assert!(
            run.trace.component_flows(Component::Control).count() > 0,
            "{w}: no control flow"
        );
    }
    let jobs = [
        JobSpec::new(Workload::TeraGen, 0),
        JobSpec::new(Workload::TeraSort, 0),
    ];
    let (session, _) = run_session(&cluster, &config, &jobs, 5);
    assert_eq!(session.job_ends.len(), 2);
    assert!(session.counters.iter().all(|c| c.maps == 0));
}
