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
//! change.

use keddah::core::replay::{replay, replay_faulted, trace_to_flows, ReplayReport};
use keddah::core::TraceSource;
use keddah::faults::FaultSpec;
use keddah::flowcap::Trace;
use keddah::netsim::{SimOptions, Topology};
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
