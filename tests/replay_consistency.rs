//! Cross-model consistency: conclusions drawn from a replay must not
//! depend on which network model ran it. The fluid and TCP simulators
//! may disagree on absolute FCTs, but they must rank fabrics the same
//! way — otherwise the "what-if" studies would be artefacts of the
//! substituted simulator.

use keddah::core::pipeline::Keddah;
use keddah::core::replay::jobs_to_flows;
use keddah::des::SimTime;
use keddah::hadoop::{ClusterSpec, HadoopConfig, JobSpec, Workload};
use keddah::netsim::{simulate, simulate_tcp, FlowSpec, HostId, SimOptions, Topology};

fn generated_flows(topo: &Topology) -> Vec<FlowSpec> {
    let traces = Keddah::capture(
        &ClusterSpec::racks(2, 4),
        &HadoopConfig::default().with_reducers(4),
        &JobSpec::new(Workload::TeraSort, 1 << 30),
        3,
        21,
    );
    let model = Keddah::fit(&traces).expect("terasort fits");
    let jobs = vec![model.generate_job(9)];
    jobs_to_flows(&jobs, topo)
        .expect("fits topology")
        .into_iter()
        .filter(|f| f.bytes > 10_000) // data plane only
        .collect()
}

fn mean_fct_fluid(topo: &Topology, flows: &[FlowSpec]) -> f64 {
    let fcts = simulate(topo, flows, SimOptions::default()).fcts();
    fcts.iter().sum::<f64>() / fcts.len() as f64
}

fn mean_fct_tcp(topo: &Topology, flows: &[FlowSpec]) -> f64 {
    let fcts = simulate_tcp(topo, flows).fcts();
    fcts.iter().sum::<f64>() / fcts.len() as f64
}

#[test]
fn fluid_and_tcp_rank_fabrics_identically() {
    // Three fabrics with a strict expected ordering: non-blocking beats
    // 2:1 beats 4:1 oversubscription.
    let fabrics = [
        Topology::leaf_spine(3, 3, 2, 1e9, 1.0),
        Topology::leaf_spine(3, 3, 2, 1e9, 2.0),
        Topology::leaf_spine(3, 3, 2, 1e9, 4.0),
    ];
    let flows = generated_flows(&fabrics[0]);
    let fluid: Vec<f64> = fabrics.iter().map(|t| mean_fct_fluid(t, &flows)).collect();
    let tcp: Vec<f64> = fabrics.iter().map(|t| mean_fct_tcp(t, &flows)).collect();
    // Both models order the fabrics the same way.
    assert!(
        fluid[0] <= fluid[1] && fluid[1] <= fluid[2],
        "fluid: {fluid:?}"
    );
    assert!(tcp[0] <= tcp[1] && tcp[1] <= tcp[2], "tcp: {tcp:?}");
    // And they agree on the magnitude of the 4:1 penalty within 2x.
    let fluid_penalty = fluid[2] / fluid[0];
    let tcp_penalty = tcp[2] / tcp[0];
    let ratio = fluid_penalty / tcp_penalty;
    assert!(
        (0.5..2.0).contains(&ratio),
        "penalty disagreement: fluid {fluid_penalty:.2}x vs tcp {tcp_penalty:.2}x"
    );
}

// ---------------------------------------------------------------------
// Pre-refactor regression fixture: the fluid loop was rebuilt on the
// keddah-des engine behind a TrafficSource; the StaticSource (open-loop)
// path must stay byte-identical. The expected finish times below were
// produced by the pre-engine time-stepping loop on the exact seeded flow
// sets `fixture_flows` regenerates, then re-derived once when flow
// bundles moved service accounting from f64 bits to Q64 fixed point
// (one leaf-spine entry shifted by a single nanosecond). The pins are
// knob-invariant: aggregation and solver parallelism must both
// reproduce them bit for bit.
// ---------------------------------------------------------------------

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fixture_flows(hosts: u32, n: usize, seed: u64) -> Vec<FlowSpec> {
    let mut s = seed;
    (0..n)
        .map(|i| {
            let src = (splitmix(&mut s) % u64::from(hosts)) as u32;
            let mut dst = (splitmix(&mut s) % u64::from(hosts)) as u32;
            if dst == src {
                dst = (dst + 1) % hosts;
            }
            let bytes = 1_000 + splitmix(&mut s) % 200_000_000;
            let start = SimTime::from_nanos(splitmix(&mut s) % 2_000_000_000);
            FlowSpec {
                src: HostId(src),
                dst: HostId(dst),
                bytes,
                start,
                tag: (i % 5) as u32,
            }
        })
        .collect()
}

#[test]
fn static_source_is_byte_identical_to_pre_refactor_loop() {
    // Star fabric, pure fluid options.
    const STAR_FINISH_NANOS: [u64; 24] = [
        2_568_497_608,
        6_450_343_826,
        2_933_771_238,
        1_722_913_224,
        4_694_462_566,
        2_390_114_870,
        3_948_401_057,
        4_118_496_825,
        5_700_208_911,
        4_310_802_405,
        3_387_742_726,
        3_757_539_259,
        3_908_071_426,
        4_128_805_278,
        2_818_990_149,
        2_847_867_270,
        2_455_515_400,
        3_052_839_621,
        3_460_985_766,
        6_198_392_892,
        5_424_377_175,
        2_509_549_012,
        2_509_716_474,
        1_187_459_859,
    ];
    let topo = Topology::star(8, 1e9);
    let flows = fixture_flows(8, 24, 42);
    let report = simulate(&topo, &flows, SimOptions::default());
    let got: Vec<u64> = report.results.iter().map(|r| r.finish.as_nanos()).collect();
    assert_eq!(got, STAR_FINISH_NANOS.to_vec());

    // Oversubscribed leaf-spine with the mice fast-path and slow start on.
    const LEAF_SPINE_FINISH_NANOS: [u64; 30] = [
        759_083_686,
        4_614_007_326,
        12_986_978_125,
        2_288_392_200,
        6_212_087_512,
        1_026_758_836,
        1_260_161_481,
        3_804_651_146,
        3_002_138_000,
        4_883_467_571,
        4_197_358_083,
        5_210_442_263,
        10_769_021_213,
        2_069_361_046,
        6_276_740_774,
        3_225_987_960,
        5_704_943_418,
        4_193_392_251,
        5_162_274_530,
        7_405_082_364,
        2_845_588_449,
        1_983_614_386,
        3_163_095_337,
        3_753_869_489,
        12_369_745_485,
        10_435_463_952,
        1_154_583_557,
        6_325_698_722,
        3_380_492_228,
        3_672_888_385,
    ];
    let topo = Topology::leaf_spine(3, 3, 2, 1e9, 4.0);
    let flows = fixture_flows(9, 30, 7);
    let opts = SimOptions {
        mouse_threshold: 10_000,
        tcp_slow_start: true,
        ..SimOptions::default()
    };
    let report = simulate(&topo, &flows, opts);
    let got: Vec<u64> = report.results.iter().map(|r| r.finish.as_nanos()).collect();
    assert_eq!(got, LEAF_SPINE_FINISH_NANOS.to_vec());
}

#[test]
fn closed_loop_shifts_dependent_starts_under_congestion() {
    use keddah::core::replay::replay_faulted;
    use keddah::core::source::TraceSource;
    use keddah::faults::FaultSpec;
    use keddah::obs::Obs;

    // Capture on a non-blocking testbed, replay on a heavily
    // oversubscribed fabric: parents slow down, so closed-loop replay
    // must push dependent flows past their captured start times.
    let trace = &Keddah::capture(
        &ClusterSpec::racks(2, 4),
        &HadoopConfig::default().with_reducers(4),
        &JobSpec::new(Workload::TeraSort, 1 << 30),
        1,
        21,
    )[0];
    let topo = Topology::leaf_spine(3, 3, 2, 1e9, 8.0);
    let opts = SimOptions {
        mouse_threshold: 10_000,
        ..SimOptions::default()
    };

    let mut source = TraceSource::new(trace, &topo).expect("trace fits");
    assert!(source.dependent_count() > 0, "trace has dependency edges");
    let open = simulate(
        &topo,
        &keddah::core::replay::trace_to_flows(trace, &topo).expect("trace fits"),
        opts,
    );
    let closed = replay_faulted(
        &topo,
        &mut source,
        &FaultSpec::empty(),
        opts,
        &Obs::disabled(),
    )
    .expect("empty spec");

    // Map each dependent entry to its closed-loop start and compare with
    // its captured (zero-shifted) start, which is what open loop used.
    let order = source.injection_order();
    let children: Vec<usize> = source.edges().iter().map(|&(_, c)| c).collect();
    let mut shifted_later = 0usize;
    let mut total_shift = 0.0f64;
    for &entry in &children {
        let flow = order.iter().position(|&e| e == entry).expect("injected");
        let closed_start = closed.sim.results[flow].spec.start;
        // Entries are numbered in capture start order; open-loop results
        // are in trace order, so recover the captured start via the spec
        // the closed run carried (bytes/src/dst identify it).
        let captured_start = open
            .results
            .iter()
            .find(|r| {
                r.spec.src == closed.sim.results[flow].spec.src
                    && r.spec.dst == closed.sim.results[flow].spec.dst
                    && r.spec.bytes == closed.sim.results[flow].spec.bytes
            })
            .expect("same flow replayed open loop")
            .spec
            .start;
        let shift = closed_start.as_secs_f64() - captured_start.as_secs_f64();
        total_shift += shift;
        if shift > 0.0 {
            shifted_later += 1;
        }
    }
    assert!(
        shifted_later > 0,
        "congestion must delay at least one dependent flow ({} candidates)",
        children.len()
    );
    assert!(
        total_shift > 0.0,
        "net dependent start shift must be positive, got {total_shift:.3} s"
    );
    // Delayed dependants stretch the job, they never shrink it.
    assert!(
        closed.makespan_secs() >= open.makespan().as_secs_f64() - 1e-9,
        "closed {:.3} s vs open {:.3} s",
        closed.makespan_secs(),
        open.makespan().as_secs_f64()
    );
}

#[test]
fn models_agree_on_aggregate_throughput() {
    // Total bytes / makespan should be simulator-independent when the
    // network is the bottleneck.
    let topo = Topology::star(10, 1e9);
    let flows = generated_flows(&topo);
    let bytes: f64 = flows.iter().map(|f| f.bytes as f64).sum();
    let fluid = simulate(&topo, &flows, SimOptions::default());
    let tcp = simulate_tcp(&topo, &flows);
    let tput_fluid = bytes / fluid.makespan().as_secs_f64();
    let tput_tcp = bytes / tcp.makespan().as_secs_f64();
    let ratio = tput_fluid / tput_tcp;
    assert!(
        (0.6..1.7).contains(&ratio),
        "throughput disagreement: {tput_fluid:.2e} vs {tput_tcp:.2e}"
    );
}
