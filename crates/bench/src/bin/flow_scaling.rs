//! Flow-count scaling bench: bundled vs per-flow allocation.
//!
//! Sweeps 1k/10k/100k/1M concurrent flows through the fluid engine in
//! open loop (static arrivals) and closed loop (completion-chained
//! arrivals), under two allocator shapes:
//!
//! * `incremental` — flow bundles + incremental [`FairShareState`]
//!   (the default engine);
//! * `no_aggregate` — singleton bundles (`SimOptions::aggregate =
//!   false`, the oracle shape): the pre-bundle engine, i.e. the
//!   100k-flow cliff this bench exists to pin.
//!
//! Results are identical across both by construction. Each timed cell
//! records events/second and the run's deterministic work counters
//! (events, peak active flows, peak live bundles, fair-share solves and
//! the entry rates they wrote), and lands in `BENCH_netsim.json` next to
//! the committed baseline. Cells too slow to time (the per-flow
//! allocator at 1M, and in closed loop past 10k) are emitted as
//! explicit `"skipped": true` entries with a reason, which the
//! regression gate treats as non-regressions rather than missing keys.
//!
//! The traffic is rack-local adjacent-pair flows on a 16x16 leaf-spine:
//! every (src, src+1) pair forms its own two-link component, so arrivals
//! and departures touch small disjoint components — the regime the
//! incremental allocator exists for, and the shape of Keddah's
//! rack-affine shuffle placement under many concurrent jobs. Any flow
//! count collapses onto a few hundred distinct paths, which is what
//! bundling exploits.
//!
//! Modes:
//! * default — full sweep including 100k and 1M flows;
//! * `KEDDAH_SMOKE=1` — 1k/10k only, for CI;
//! * `KEDDAH_BENCH_CHECK=1` — before overwriting `BENCH_netsim.json`,
//!   compare against it and exit non-zero if any timed cell's work
//!   counter exceeds its committed value, or its `events_per_sec` fell
//!   more than `KEDDAH_BENCH_TOLERANCE` (default 0.25, i.e. 25%) below
//!   the committed one. The open-loop 10k speedup (bundled ÷ per-flow)
//!   is reported, not gated: it also fell whenever the per-flow oracle
//!   got faster.

use std::time::Instant;

use criterion::{black_box, BenchmarkId, Criterion};
use keddah_bench::{heading, smoke};
use keddah_des::SimTime;
use keddah_faults::FaultSpec;
use keddah_netsim::{
    simulate, simulate_faulted, FairShareState, FlowId, FlowResult, FlowSpec, HostId, SimOptions,
    SimReport, Topology, TrafficSource,
};
use keddah_obs::Obs;
use serde::{Deserialize, Serialize};

/// Racks and hosts per rack of the bench fabric.
const RACKS: u32 = 16;
const PER_RACK: u32 = 16;

/// Default fraction of a baseline cell's events/sec a fresh run may lose
/// before the `KEDDAH_BENCH_CHECK` gate fails (a >25% regression);
/// override with `KEDDAH_BENCH_TOLERANCE`.
const DEFAULT_TOLERANCE: f64 = 0.25;

/// The allocator shapes swept: (name, aggregate).
const ALLOCATORS: &[(&str, bool)] = &[("incremental", true), ("no_aggregate", false)];

fn fabric() -> Topology {
    Topology::leaf_spine(RACKS, PER_RACK, 4, 1e9, 2.0)
}

/// Deterministic rack-local traffic: flow `i` runs between adjacent
/// hosts of rack `i % RACKS`, so concurrent flows split into one
/// two-link component per (src, dst) pair.
fn pair_local_flows(n: usize, bytes: u64) -> Vec<FlowSpec> {
    (0..n)
        .map(|i| {
            let rack = i as u32 % RACKS;
            let slot = (i as u32 / RACKS) % PER_RACK;
            let src = rack * PER_RACK + slot;
            let dst = rack * PER_RACK + (slot + 1) % PER_RACK;
            FlowSpec {
                src: HostId(src),
                dst: HostId(dst),
                // Spread sizes a little so completions don't all tie.
                bytes: bytes + (i as u64 % 7) * 65_536,
                start: SimTime::from_nanos(i as u64 * 1_000),
                tag: rack,
            }
        })
        .collect()
}

/// Closed-loop traffic: `n` chains run concurrently; each completion
/// releases the next hop of its chain (direction reversed, staying
/// rack-local) until `depth` flows have run.
struct ChainSource {
    heads: Vec<FlowSpec>,
    /// Hops left per injected flow, indexed by injection order.
    hops_left: Vec<u32>,
    depth: u32,
}

impl ChainSource {
    fn new(n: usize, depth: u32, bytes: u64) -> ChainSource {
        ChainSource {
            heads: pair_local_flows(n, bytes),
            hops_left: Vec::new(),
            depth,
        }
    }
}

impl TrafficSource for ChainSource {
    fn on_start(&mut self) -> Vec<FlowSpec> {
        let heads = std::mem::take(&mut self.heads);
        self.hops_left = vec![self.depth - 1; heads.len()];
        heads
    }

    fn on_flow_complete(&mut self, id: FlowId, result: &FlowResult) -> Vec<FlowSpec> {
        let left = self.hops_left[id.0];
        if left == 0 {
            return Vec::new();
        }
        let parent = result.spec;
        self.hops_left.push(left - 1);
        vec![FlowSpec {
            src: parent.dst,
            dst: parent.src,
            bytes: parent.bytes,
            start: result.finish,
            tag: parent.tag,
        }]
    }
}

/// One sweep cell of `BENCH_netsim.json`: either a timed measurement or
/// an explicitly skipped cell carrying a reason. The regression gate
/// treats skipped cells as non-regressions, never as missing keys.
/// Every field is always serialized (the vendored serde derive has no
/// `skip_serializing_if`): timed cells carry `"skipped": false` and a
/// `null` reason, skipped cells carry `null` timing fields.
#[derive(Debug, Serialize, Deserialize)]
struct Case {
    /// `open` or `closed`.
    workload: String,
    /// `incremental` or `no_aggregate`.
    allocator: String,
    /// Target concurrent flow count.
    flows: usize,
    /// True for cells deliberately left untimed.
    skipped: bool,
    /// Why a skipped cell was skipped.
    reason: Option<String>,
    /// Flows actually simulated (closed loop runs `depth` per chain).
    total_flows: Option<usize>,
    events: Option<u64>,
    peak_active: Option<usize>,
    /// Most live bundles (fair-share entries) at once.
    peak_bundles: Option<usize>,
    /// Fair-share fills run.
    fair_solves: Option<u64>,
    /// Entry rates those fills wrote.
    fair_solved_flows: Option<u64>,
    elapsed_secs: Option<f64>,
    events_per_sec: Option<f64>,
}

#[derive(Debug, Serialize, Deserialize)]
struct BenchReport {
    bench: String,
    mode: String,
    topology: String,
    /// Open-loop 10k-flow events/sec, incremental over no_aggregate.
    /// Reported only: the gate holds each cell's work counters instead.
    speedup_open_10k: f64,
    cases: Vec<Case>,
}

fn options(aggregate: bool) -> SimOptions {
    SimOptions {
        aggregate,
        ..SimOptions::default()
    }
}

/// The reason a (allocator, workload, size) cell is not timed, if any.
/// These are the cells the bench used to omit silently; they now land
/// in the JSON as explicit skips.
fn cap_reason(allocator: &str, workload: &str, n: usize) -> Option<String> {
    match allocator {
        "no_aggregate" if n > 100_000 => Some(
            "per-flow allocation at 1M flows needs hours — the cliff the bundled rows remove"
                .to_string(),
        ),
        "no_aggregate" if workload == "closed" && n > 10_000 => Some(
            "per-flow closed loop at 100k flows takes ~6 minutes; the open-loop row covers \
             the scale point"
                .to_string(),
        ),
        _ => None,
    }
}

fn timed(label: &str, flows: usize, allocator: &str, run: impl FnOnce() -> SimReport) -> Case {
    let start = Instant::now();
    let report = run();
    let elapsed = start.elapsed().as_secs_f64();
    let events_per_sec = report.events as f64 / elapsed.max(1e-9);
    println!(
        "{label:>6} {allocator:>12} {flows:>8} flows: {:>9} events in {elapsed:>8.3}s \
         ({:>12.0} events/s, peak {}, {} bundles, {} solves, {} solved)",
        report.events,
        events_per_sec,
        report.peak_active,
        report.peak_bundles,
        report.fair_solves,
        report.fair_solved_flows
    );
    Case {
        workload: label.to_string(),
        allocator: allocator.to_string(),
        flows,
        skipped: false,
        reason: None,
        total_flows: Some(report.results.len()),
        events: Some(report.events),
        peak_active: Some(report.peak_active),
        peak_bundles: Some(report.peak_bundles),
        fair_solves: Some(report.fair_solves),
        fair_solved_flows: Some(report.fair_solved_flows),
        elapsed_secs: Some(elapsed),
        events_per_sec: Some(events_per_sec),
    }
}

fn skipped_case(label: &str, flows: usize, allocator: &str, reason: String) -> Case {
    println!("{label:>6} {allocator:>12} {flows:>8} flows: skipped ({reason})");
    Case {
        workload: label.to_string(),
        allocator: allocator.to_string(),
        flows,
        skipped: true,
        reason: Some(reason),
        total_flows: None,
        events: None,
        peak_active: None,
        peak_bundles: None,
        fair_solves: None,
        fair_solved_flows: None,
        elapsed_secs: None,
        events_per_sec: None,
    }
}

/// Criterion micro-group: allocator churn on a small fabric, insert and
/// retire every flow once.
fn bench_allocator_churn(c: &mut Criterion) {
    let topo = Topology::leaf_spine(4, 8, 2, 1e9, 2.0);
    let caps = topo.capacities();
    let flows = pair_local_flows_on(256, &topo);
    let mut group = c.benchmark_group("fair_share_churn");
    group.sample_size(if smoke() { 2 } else { 10 });
    group.bench_with_input(
        BenchmarkId::new("incremental", flows.len()),
        &flows,
        |b, flows| {
            b.iter(|| {
                let mut state = FairShareState::new(caps.clone(), 10e9);
                let ids: Vec<_> = flows.iter().map(|f| state.insert_flow(f)).collect();
                for id in ids {
                    state.remove_flow(id);
                }
                black_box(state.solves())
            });
        },
    );
    group.finish();
}

/// Routed link lists for `n` adjacent-pair flows on `topo` (4 racks x 8
/// hosts in the churn group).
fn pair_local_flows_on(n: usize, topo: &Topology) -> Vec<Vec<u32>> {
    let mut router = keddah_netsim::RouteCache::warmed(topo);
    (0..n)
        .map(|i| {
            let rack = i as u32 % 4;
            let slot = (i as u32 / 4) % 8;
            let src = rack * 8 + slot;
            let dst = rack * 8 + (slot + 1) % 8;
            router
                .route(HostId(src), HostId(dst), i as u64)
                .expect("no link is down")
                .into_iter()
                .map(|l| l.0)
                .collect()
        })
        .collect()
}

/// A timed cell's deterministic work counters, by name.
fn counters(c: &Case) -> [(&'static str, Option<u64>); 5] {
    [
        ("events", c.events),
        ("peak_active", c.peak_active.map(|n| n as u64)),
        ("peak_bundles", c.peak_bundles.map(|n| n as u64)),
        ("fair_solves", c.fair_solves),
        ("fair_solved_flows", c.fair_solved_flows),
    ]
}

/// Per-cell regression diff: every timed cell in `current` whose key
/// exists timed in `baseline` must do no more work by any counter the
/// baseline records, and hold at least `1 - tolerance` of the baseline
/// events/sec. Skipped cells on either side are non-regressions.
/// Returns the failing cell descriptions.
fn diff_cells(current: &BenchReport, baseline: &BenchReport, tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for c in &current.cases {
        let Some(cur_rate) = c.events_per_sec else {
            continue; // skipped now: nothing to hold
        };
        let Some(b) = baseline
            .cases
            .iter()
            .find(|b| b.workload == c.workload && b.allocator == c.allocator && b.flows == c.flows)
        else {
            continue; // new scale point: no baseline yet
        };
        let Some(base_rate) = b.events_per_sec else {
            println!(
                "  gate: {} {} {} was skipped in baseline ({}); timing it now is an \
                 improvement, not a regression",
                c.workload,
                c.allocator,
                c.flows,
                b.reason.as_deref().unwrap_or("no reason recorded")
            );
            continue;
        };
        for ((name, now), (_, base)) in counters(c).into_iter().zip(counters(b)) {
            let (Some(now), Some(base)) = (now, base) else {
                continue; // not recorded in the baseline: nothing to hold
            };
            if now > base {
                println!(
                    "  gate: {:>6} {:>12} {:>8}: {name} {now} > baseline {base} FAIL",
                    c.workload, c.allocator, c.flows
                );
                failures.push(format!(
                    "{} {} {} flows: {name} {now} > baseline {base}",
                    c.workload, c.allocator, c.flows
                ));
            }
        }
        let floor = (1.0 - tolerance) * base_rate;
        let verdict = if cur_rate < floor { "FAIL" } else { "ok" };
        println!(
            "  gate: {:>6} {:>12} {:>8}: {:>12.0} ev/s vs baseline {:>12.0} (floor {:>12.0}) {}",
            c.workload, c.allocator, c.flows, cur_rate, base_rate, floor, verdict
        );
        if cur_rate < floor {
            failures.push(format!(
                "{} {} {} flows: {:.0} ev/s < floor {:.0} (baseline {:.0})",
                c.workload, c.allocator, c.flows, cur_rate, floor, base_rate
            ));
        }
    }
    failures
}

fn main() {
    let smoke = smoke();
    let mode = if smoke { "smoke" } else { "full" };
    heading(&format!("flow_scaling: allocator scaling sweep ({mode})"));

    let mut criterion = Criterion::default().configure_from_args();
    bench_allocator_churn(&mut criterion);
    criterion.final_summary();

    let topo = fabric();
    let sizes: &[usize] = if smoke {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };

    println!();
    let mut cases = Vec::new();
    for &n in sizes {
        // Bigger sweeps shrink per-flow payload so simulated time — and
        // event count — stays proportional to the flow count.
        let bytes = (4 << 20) / (n / 1_000).max(1) as u64 + (1 << 20);
        for &(allocator, aggregate) in ALLOCATORS {
            for workload in ["open", "closed"] {
                if let Some(reason) = cap_reason(allocator, workload, n) {
                    cases.push(skipped_case(workload, n, allocator, reason));
                    continue;
                }
                cases.push(match workload {
                    "open" => {
                        let flows = pair_local_flows(n, bytes);
                        timed("open", n, allocator, || {
                            simulate(&topo, &flows, options(aggregate))
                        })
                    }
                    _ => timed("closed", n, allocator, || {
                        let mut source = ChainSource::new(n, 2, bytes / 2);
                        simulate_faulted(
                            &topo,
                            &mut source,
                            &FaultSpec::empty(),
                            options(aggregate),
                            &Obs::disabled(),
                        )
                    }),
                });
            }
        }
    }

    let rate = |workload: &str, allocator: &str, flows: usize| {
        cases
            .iter()
            .find(|c| c.workload == workload && c.allocator == allocator && c.flows == flows)
            .and_then(|c| c.events_per_sec)
    };
    let speedup = match (
        rate("open", "incremental", 10_000),
        rate("open", "no_aggregate", 10_000),
    ) {
        (Some(inc), Some(per_flow)) => inc / per_flow,
        _ => 0.0,
    };
    println!("\nopen-loop 10k speedup (incremental / no_aggregate): {speedup:.2}x");

    let report = BenchReport {
        bench: "flow_scaling".to_string(),
        mode: mode.to_string(),
        topology: format!("leaf_spine({RACKS}x{PER_RACK}, 4 spines, 2:1)"),
        speedup_open_10k: speedup,
        cases,
    };

    let path = "BENCH_netsim.json";
    let check = std::env::var("KEDDAH_BENCH_CHECK").is_ok_and(|v| v != "0");
    let tolerance = std::env::var("KEDDAH_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|t| (0.0..1.0).contains(t))
        .unwrap_or(DEFAULT_TOLERANCE);
    let mut failures = Vec::new();
    if check {
        match std::fs::read_to_string(path)
            .ok()
            .and_then(|s| serde_json::from_str::<BenchReport>(&s).ok())
        {
            Some(baseline) => {
                println!(
                    "\nregression gate (work counters exact, events/s tolerance {:.0}%):",
                    tolerance * 100.0
                );
                println!(
                    "  open-loop 10k speedup {speedup:.2}x vs baseline {:.2}x (reported, not gated)",
                    baseline.speedup_open_10k
                );
                failures.extend(diff_cells(&report, &baseline, tolerance));
            }
            None => println!("regression gate: no parseable committed baseline; skipping"),
        }
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(path, json + "\n").expect("write BENCH_netsim.json");
    println!("wrote {path}");

    if !failures.is_empty() {
        eprintln!(
            "FAIL: {} regression(s) vs committed baseline (work above it, or events/s \
             more than {:.0}% below it):",
            failures.len(),
            tolerance * 100.0
        );
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
