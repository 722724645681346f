//! Golden-trace regression corpus: three small capture fixtures (one
//! per workload family) replayed open- and closed-loop, with
//! per-component FCT summaries pinned to exact nanosecond values.
//!
//! The pins freeze the replay engine's externally visible arithmetic:
//! any change to routing, fair sharing (incremental or not), flow
//! bundling, drain order or completion prediction that shifts a single
//! flow's finish time by one nanosecond fails here — and replays with
//! aggregation on and off must produce the same pins. Regenerate the
//! fixtures with `keddah capture` (workload/seed in each fixture's
//! name) and re-pin only when the engine's semantics intentionally
//! change. One faulted replay is pinned the same way, and faulted
//! closed-loop replays must still inject every flow.

use keddah::core::replay::{replay, replay_faulted, trace_to_flows, ReplayReport};
use keddah::core::{Keddah, ModelSource, TraceSource};
use keddah::faults::{FaultKind, FaultSpec, TimedFault};
use keddah::flowcap::Trace;
use keddah::netsim::{FaultStats, SimOptions, StaticSource, Topology};
use keddah::obs::Obs;

fn fixture(name: &str) -> Trace {
    let path = format!("{}/tests/fixtures/{name}.jsonl", env!("CARGO_MANIFEST_DIR"));
    let data = std::fs::read(&path).expect("fixture exists");
    Trace::read_jsonl(&data[..]).expect("fixture parses")
}

/// The corpus fabric: 9 hosts over 3 racks, 2:1 oversubscribed — big
/// enough for the 7-node captures, small enough that replays contend.
fn fabric() -> Topology {
    Topology::leaf_spine(3, 3, 2, 1e9, 2.0)
}

fn options() -> SimOptions {
    SimOptions {
        mouse_threshold: 10_000,
        ..SimOptions::default()
    }
}

/// Per-component FCT summary rows: (component tag, flow count, summed
/// FCT nanos, max FCT nanos), sorted by tag.
fn summarize(report: &ReplayReport) -> Vec<(u32, u64, u64, u64)> {
    use std::collections::BTreeMap;
    let mut by_tag: BTreeMap<u32, (u64, u64, u64)> = BTreeMap::new();
    for r in &report.sim.results {
        let fct = r.fct().as_nanos();
        let e = by_tag.entry(r.spec.tag).or_default();
        e.0 += 1;
        e.1 += fct;
        e.2 = e.2.max(fct);
    }
    by_tag
        .into_iter()
        .map(|(tag, (count, sum, max))| (tag, count, sum, max))
        .collect()
}

/// Replays `name` both ways and checks the pinned summaries with flow
/// bundles and with singleton entries (the oracle shape). Both must
/// reproduce the pins bit-for-bit — the knob trades wall-clock, never
/// results.
fn check(name: &str, open_pins: &[(u32, u64, u64, u64)], closed_pins: &[(u32, u64, u64, u64)]) {
    let trace = fixture(name);
    let topo = fabric();
    let flows = trace_to_flows(&trace, &topo).expect("trace fits the fabric");
    for aggregate in [true, false] {
        let opts = SimOptions {
            aggregate,
            ..options()
        };
        let knobs = format!("aggregate={aggregate}");
        let open = replay(&topo, &flows, opts);
        assert_eq!(summarize(&open), open_pins, "{name} open loop ({knobs})");
        let mut source = TraceSource::new(&trace, &topo).expect("trace fits the fabric");
        let closed = replay_faulted(
            &topo,
            &mut source,
            &FaultSpec::empty(),
            opts,
            &Obs::disabled(),
        )
        .expect("closed replay");
        assert_eq!(
            summarize(&closed),
            closed_pins,
            "{name} closed loop ({knobs})"
        );
    }
}

// Pins: (component tag, flows, summed FCT nanos, max FCT nanos). Tags
// are positions in `Component::ALL`: 0 = hdfs_read, 1 = hdfs_write,
// 2 = shuffle, 3 = control, 4 = other, 5 = broadcast.

const TERASORT_OPEN: &[(u32, u64, u64, u64)] = &[
    (1, 18, 41_072_804_258, 3_560_876_638),
    (2, 17, 44_071_726_817, 3_774_969_558),
    (3, 221, 24_191_957, 119_200),
];
const TERASORT_CLOSED: &[(u32, u64, u64, u64)] = &[
    (1, 18, 42_391_865_317, 5_118_895_787),
    (2, 17, 44_071_726_817, 3_774_969_558),
    (3, 221, 24_191_957, 119_200),
];

const WORDCOUNT_OPEN: &[(u32, u64, u64, u64)] = &[
    (1, 6, 2_778_650_774, 636_939_755),
    (2, 15, 2_676_047_661, 289_064_939),
    (3, 96, 10_427_798, 114_400),
];
const WORDCOUNT_CLOSED: &[(u32, u64, u64, u64)] = &[
    (1, 6, 3_073_585_870, 754_514_472),
    (2, 15, 2_676_047_661, 289_064_939),
    (3, 96, 10_427_798, 114_400),
];

// Captured with `keddah capture --faults` under a single node_crash of
// worker 2 at t=10 s: the trace carries the degraded-mode traffic (4
// re-replicated blocks, 2 killed attempts, 2 restarted reducers) and
// its metadata embeds the simulator counters that prove it.

const TERASORT_NODEFAIL_OPEN: &[(u32, u64, u64, u64)] = &[
    (1, 22, 69_510_044_356, 6_097_129_954),
    (2, 25, 65_552_643_549, 3_745_099_313),
    (3, 251, 27_491_692, 119_200),
];
const TERASORT_NODEFAIL_CLOSED: &[(u32, u64, u64, u64)] = &[
    (1, 22, 47_669_774_246, 3_221_328_544),
    (2, 25, 65_552_643_549, 3_745_099_313),
    (3, 251, 27_491_692, 119_200),
];

const PAGERANK_OPEN: &[(u32, u64, u64, u64)] = &[
    (0, 1, 1_073_842_848, 1_073_842_848),
    (1, 46, 89_823_944_154, 4_995_344_557),
    (2, 64, 175_682_665_499, 5_756_558_498),
    (3, 615, 67_287_595, 119_200),
];
const PAGERANK_CLOSED: &[(u32, u64, u64, u64)] = &[
    (0, 1, 1_073_842_848, 1_073_842_848),
    (1, 46, 98_754_582_245, 5_157_766_452),
    (2, 64, 176_287_325_182, 5_756_558_498),
    (3, 615, 67_287_595, 119_200),
];

// Captured from the DAG engine's new workload families: the Pig-style
// five-stage pipeline (whose fragment-replicate join broadcasts its
// small side, tag 5) and the data-grid remote-read scan (whose reads
// cross the fabric uniformly, tag 0).

const PIG_JOIN_OPEN: &[(u32, u64, u64, u64)] = &[
    (1, 50, 50_307_921_864, 1_865_395_507),
    (2, 22, 9_101_236_053, 969_805_718),
    (3, 407, 44_482_811, 119_200),
    (5, 39, 69_613_204_616, 2_114_024_768),
];
const PIG_JOIN_CLOSED: &[(u32, u64, u64, u64)] = &[
    (1, 50, 43_632_479_855, 2_250_687_094),
    (2, 22, 9_295_782_808, 986_222_109),
    (3, 407, 44_482_811, 119_200),
    (5, 39, 69_613_204_616, 2_114_024_768),
];

const DATAGRID_OPEN: &[(u32, u64, u64, u64)] = &[
    (0, 6, 29_769_101_674, 6_010_568_288),
    (1, 16, 2_570_710_025, 384_628_103),
    (3, 100, 10_893_154, 114_400),
];
const DATAGRID_CLOSED: &[(u32, u64, u64, u64)] = &[
    (0, 6, 28_911_330_838, 5_796_125_579),
    (1, 16, 1_601_670_201, 347_085_280),
    (3, 100, 10_893_154, 114_400),
];

#[test]
fn terasort_replay_matches_golden() {
    check("terasort", TERASORT_OPEN, TERASORT_CLOSED);
}

#[test]
fn wordcount_replay_matches_golden() {
    check("wordcount", WORDCOUNT_OPEN, WORDCOUNT_CLOSED);
}

#[test]
fn pagerank_replay_matches_golden() {
    check("pagerank", PAGERANK_OPEN, PAGERANK_CLOSED);
}

#[test]
fn terasort_nodefail_replay_matches_golden() {
    check(
        "terasort_nodefail",
        TERASORT_NODEFAIL_OPEN,
        TERASORT_NODEFAIL_CLOSED,
    );
}

#[test]
fn pig_join_replay_matches_golden() {
    check("pig_join", PIG_JOIN_OPEN, PIG_JOIN_CLOSED);
}

#[test]
fn datagrid_replay_matches_golden() {
    check("datagrid", DATAGRID_OPEN, DATAGRID_CLOSED);
}

#[test]
fn pig_join_fixture_carries_broadcast_traffic() {
    // The committed pipeline capture really exercises the broadcast
    // component end to end: flows on the broadcast port classify as
    // such and carry the replicated side input.
    use keddah::flowcap::Component;
    let trace = fixture("pig_join");
    let flows = trace.component_flows(Component::Broadcast).count();
    assert_eq!(flows, 39, "one fetch per (map, payload block) off-node");
    assert!(fixture("datagrid")
        .component_flows(Component::Broadcast)
        .next()
        .is_none());
}

#[test]
fn nodefail_fixture_embeds_fault_counters() {
    let meta_counters = fixture("terasort_nodefail")
        .meta()
        .counters
        .clone()
        .expect("faulted capture embeds counters");
    assert_eq!(meta_counters["node_crashes"], 1);
    assert_eq!(meta_counters["fault_killed_attempts"], 2);
    assert_eq!(meta_counters["rereplicated_blocks"], 4);
    assert_eq!(meta_counters["rereplication_flows"], 4);
    assert_eq!(meta_counters["rereplicated_bytes"], 4 * (128 << 20));
    // The fault-free fixture of the same configuration embeds none.
    assert!(fixture("terasort").meta().counters.is_none());
}

/// A hand-written schedule covering all five fault kinds on the corpus
/// fabric. Host `h` owns links `2h` (uplink) and `2h + 1` (downlink);
/// leaf `l`'s uplink to spine `s` is link `18 + 4l + 2s`.
fn every_fault_kind() -> FaultSpec {
    let at = |millis: u64, kind| TimedFault {
        at_nanos: millis * 1_000_000,
        kind,
    };
    FaultSpec {
        faults: vec![
            // Leaf 1's uplink to spine 1 runs at half speed.
            at(
                1_000,
                FaultKind::LinkDegraded {
                    link: 24,
                    factor: 0.5,
                },
            ),
            // Leaf 1 loses spine 0 mid-shuffle: its cross-rack flows
            // reroute over spine 1.
            at(4_500, FaultKind::LinkDown { link: 22 }),
            // Host 2 serves several shuffle fetches at once, some of
            // them sharing a path.
            at(5_000, FaultKind::NodeCrash { node: 2 }),
            at(9_000, FaultKind::NodeRecover { node: 2 }),
            // Host 4's only uplink: nothing leaves host 4 any more.
            at(19_000, FaultKind::LinkDown { link: 8 }),
            at(21_000, FaultKind::Partition { cut: vec![6, 7, 8] }),
        ],
    }
}

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

// Pins for terasort, open loop, under `every_fault_kind`. Aborted flows
// count in the summary rows with their abort time as finish.

const TERASORT_FAULTED: &[(u32, u64, u64, u64)] = &[
    (1, 18, 33_888_576_572, 5_371_181_255),
    (2, 17, 17_960_961_258, 3_056_431_467),
    (3, 221, 22_514_596, 126_091),
];

/// Flow ids in abort order.
const TERASORT_FAULTED_ABORTED: &[usize] = &[
    47, 51, 52, 55, 56, 61, 62, 63, 66, 67, 70, 71, 73, 80, 87, 89, 90, 97, 104, 164, 201, 205,
    214, 217, 167, 178, 223, 224, 227, 228, 231, 232, 235, 236, 238, 240, 244, 247, 248, 249, 254,
    255,
];

/// (aggregate, FNV of the metrics JSON, FNV of the trace JSONL). The
/// metrics differ across the knob only in its bundle and solver gauges.
const TERASORT_FAULTED_DIGESTS: &[(bool, u64, u64)] = &[
    (true, 0x5e1c_35f5_887e_32b7, 0xd510_1981_43f8_2b45),
    (false, 0x0707_1312_2330_ff2e, 0xd510_1981_43f8_2b45),
];

/// Open-loop terasort under [`every_fault_kind`], observed, with
/// aggregation on and off: the summary rows, the fault stats and
/// digests of the metrics JSON and the trace JSONL. Per-link byte
/// tallies are not pinned.
#[test]
fn terasort_faulted_replay_matches_golden() {
    let trace = fixture("terasort");
    let topo = fabric();
    let flows = trace_to_flows(&trace, &topo).expect("trace fits the fabric");
    let expected = FaultStats {
        faults_applied: 6,
        aborted: TERASORT_FAULTED_ABORTED.to_vec(),
        lost_bytes: 1_093_958_525,
        delivered_bytes: 1_907_149_748,
        rerouted_flows: 2,
        diverged: false,
    };
    for &(aggregate, metrics_fnv, trace_fnv) in TERASORT_FAULTED_DIGESTS {
        let opts = SimOptions {
            aggregate,
            ..options()
        };
        let obs = Obs::enabled();
        let mut source = StaticSource::new(flows.clone());
        let report = replay_faulted(&topo, &mut source, &every_fault_kind(), opts, &obs)
            .expect("schedule fits the fabric");
        let knobs = format!("aggregate={aggregate}");
        assert_eq!(summarize(&report), TERASORT_FAULTED, "rows ({knobs})");
        assert_eq!(report.sim.faults, expected, "fault stats ({knobs})");
        let mut jsonl = Vec::new();
        obs.write_trace_jsonl(&mut jsonl).expect("in-memory write");
        assert_eq!(
            fnv(obs.metrics().to_json().as_bytes()),
            metrics_fnv,
            "metrics ({knobs})"
        );
        assert_eq!(fnv(&jsonl), trace_fnv, "trace ({knobs})");
    }
}

/// Flows per component tag.
fn flows_by_tag(report: &ReplayReport) -> Vec<(u32, u64)> {
    summarize(report)
        .into_iter()
        .map(|(tag, count, _, _)| (tag, count))
        .collect()
}

#[test]
fn faulted_trace_source_injects_every_captured_flow() {
    // An abort releases a flow's dependents as a completion does, so a
    // faulted closed-loop replay still injects every captured flow once
    // and accounts for every captured byte as delivered or lost.
    for name in ["terasort", "pagerank"] {
        let trace = fixture(name);
        let topo = fabric();
        let mut source = TraceSource::new(&trace, &topo).expect("trace fits the fabric");
        let report = replay_faulted(
            &topo,
            &mut source,
            &every_fault_kind(),
            options(),
            &Obs::disabled(),
        )
        .expect("schedule fits the fabric");
        let faults = &report.sim.faults;
        assert!(!faults.aborted.is_empty(), "{name}: the faults bite");
        assert_eq!(report.sim.results.len(), trace.flows().len(), "{name}");
        let captured: u64 = trace.flows().iter().map(|f| f.total_bytes()).sum();
        assert_eq!(
            faults.delivered_bytes + faults.lost_bytes,
            captured,
            "{name}: delivered + lost"
        );
    }
}

#[test]
fn faulted_model_source_injects_every_stage() {
    // Stage barriers count aborts: a job whose read or shuffle dies
    // still releases its later stages, so the faulted replay samples
    // the same flows per component as the fault-free one.
    let model = Keddah::fit(&[fixture("terasort")]).expect("terasort fits");
    let topo = fabric();
    let crashes = FaultSpec {
        faults: [(2, 3), (5, 8)]
            .into_iter()
            .map(|(node, secs)| TimedFault {
                at_nanos: secs * 1_000_000_000,
                kind: FaultKind::NodeCrash { node },
            })
            .collect(),
    };
    let replay_under = |spec: &FaultSpec| {
        let mut source = ModelSource::new(&model, 2, 42, 5.0, &topo).expect("model fits");
        replay_faulted(&topo, &mut source, spec, options(), &Obs::disabled())
            .expect("schedule fits the fabric")
    };
    let clean = replay_under(&FaultSpec::empty());
    let faulted = replay_under(&crashes);
    assert!(!faulted.sim.faults.aborted.is_empty(), "the crashes bite");
    assert_eq!(flows_by_tag(&faulted), flows_by_tag(&clean));
}

#[test]
fn closed_loop_defers_dependent_components() {
    // Sanity on the corpus itself: closed-loop shuffle FCTs must be no
    // smaller in aggregate than open-loop (dependents wait for their
    // parents), and non-dependent components identical — the structural
    // reason the open/closed pins differ only where they do. The
    // nodefail fixture is deliberately absent: its captured start times
    // embed crash-induced stalls (reducer restarts waiting out the
    // fault) that the closed-loop discipline re-derives away, so there
    // closed loop legitimately beats open loop.
    for (open, closed) in [
        (TERASORT_OPEN, TERASORT_CLOSED),
        (WORDCOUNT_OPEN, WORDCOUNT_CLOSED),
        (PAGERANK_OPEN, PAGERANK_CLOSED),
    ] {
        assert_eq!(open.len(), closed.len());
        for (o, c) in open.iter().zip(closed) {
            assert_eq!(o.0, c.0, "same components");
            assert_eq!(o.1, c.1, "same flow counts");
            assert!(c.2 >= o.2, "closed loop never speeds up component {}", o.0);
        }
    }
}
