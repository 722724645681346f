//! Streaming-ingestion throughput bench: the `keddah serve` hot path.
//!
//! Times the three ingest paths the daemon runs, in records/second:
//!
//! * `flow_exact` — [`StreamEngine`] in the degenerate exact-store
//!   config (raw samples, offline-identical refits): the upper bound on
//!   memory, the baseline for fidelity;
//! * `flow_gk` — the same engine on GK sketches (ε = 0.01): the
//!   bounded-memory config the daemon defaults to;
//! * `packet` — the bounded-memory [`StreamAssembler`] on a raw packet
//!   stream with a deliberately small connection table, so the
//!   LRU/idle eviction machinery is on the timed path.
//!
//! Results land in `BENCH_stream.json` next to the committed baseline.
//! `KEDDAH_SMOKE=1` shrinks the sweep for CI; `KEDDAH_BENCH_CHECK=1`
//! compares against the committed baseline first and exits non-zero if
//! any cell fell more than `KEDDAH_BENCH_TOLERANCE` (default 25%) below
//! it, or if a flow-ingest cell fails the absolute floor of 100k
//! records/sec the serve design point requires.

use std::time::Instant;

use criterion::{black_box, BenchmarkId, Criterion};
use keddah_bench::{heading, smoke};
use keddah_core::stream::{StreamEngine, StreamOptions};
use keddah_core::SketchMode;
use keddah_des::{Duration, SimTime};
use keddah_flowcap::{
    ports, FiveTuple, FlowRecord, NodeId, PacketRecord, StreamAssembler, StreamConfig, TraceMeta,
};
use keddah_obs::Obs;
use keddah_stat::sketch::GkSketch;
use serde::{Deserialize, Serialize};

/// Flows per synthetic rotation (one `end_run` per this many records).
const RUN_FLOWS: usize = 20_000;

/// Absolute flows/sec floor the serve design point requires of the
/// flow-ingest paths (checked in `KEDDAH_BENCH_CHECK` mode).
const FLOOR_RECORDS_PER_SEC: f64 = 100_000.0;

/// Baseline fraction a cell may lose before the gate fails; override
/// with `KEDDAH_BENCH_TOLERANCE`.
const DEFAULT_TOLERANCE: f64 = 0.25;

/// splitmix64: cheap deterministic mixing, no RNG state to thread.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Synthetic classified flow record `i` of rotation `run`: shuffle-
/// and HDFS-shaped flows across a 64-node cluster, sizes spread over
/// three decades so the fitter has real distributions to chew on.
fn flow_record(run: usize, i: usize) -> FlowRecord {
    let h = mix(((run as u64) << 32) | i as u64);
    let src = NodeId((h % 64) as u32);
    let dst = NodeId(((1 + (h >> 8) % 63 + src.0 as u64) % 64) as u32);
    let dst_port = if h & 1 == 0 {
        ports::SHUFFLE
    } else {
        ports::DATANODE_XFER
    };
    let start = SimTime::from_millis((i as u64 / 4) % 60_000);
    FlowRecord {
        tuple: FiveTuple {
            src,
            src_port: 40_000 + ((h >> 16) % 8_192) as u16,
            dst,
            dst_port,
        },
        start,
        end: start + Duration::from_millis(1 + (h >> 24) % 500),
        fwd_bytes: 128 + (h >> 32) % 1_024,
        rev_bytes: 1 << (10 + (h >> 40) % 11),
        packets: 2 + (h >> 48) % 64,
        component: None,
    }
}

fn run_meta(seed: u64) -> TraceMeta {
    TraceMeta {
        workload: "terasort".to_string(),
        input_bytes: 1 << 30,
        reducers: 8,
        replication: 3,
        block_bytes: 128 << 20,
        nodes: 64,
        seed,
        counters: None,
    }
}

/// Synthetic packet `i`: adjacent-node data packets with occasional
/// FINs, timestamps loosely increasing with jitter so the idle sweeps
/// and out-of-order tolerance both run.
fn packet(i: usize) -> PacketRecord {
    let h = mix(0x5eed ^ i as u64);
    let src = NodeId((h % 48) as u32);
    let dst = NodeId(((1 + (h >> 8) % 47 + src.0 as u64) % 48) as u32);
    let ts = SimTime::from_micros((i as u64 * 25).saturating_sub(h % 50));
    let src_port = 40_000 + ((h >> 16) % 2_048) as u16;
    let bytes = 256 + (h >> 32) % 65_536;
    if h & 0xff == 0 {
        PacketRecord::fin(ts, src, src_port, dst, ports::SHUFFLE, bytes)
    } else {
        PacketRecord::data(ts, src, src_port, dst, ports::SHUFFLE, bytes)
    }
}

/// One cell of `BENCH_stream.json`. All fields always serialize; the
/// gate keys cells on `(path, records)`.
#[derive(Debug, Serialize, Deserialize)]
struct Case {
    /// `flow_exact`, `flow_gk` or `packet`.
    path: String,
    /// Records pushed through the timed section.
    records: usize,
    /// Rotations ingested (flow paths; 0 for the packet path).
    runs: usize,
    /// Model generations reached (flow paths; 0 for the packet path).
    generation: u64,
    /// Flow records emitted by the assembler (packet path only).
    emitted: u64,
    elapsed_secs: f64,
    records_per_sec: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct BenchReport {
    bench: String,
    mode: String,
    /// The absolute flows/sec floor the check mode enforces.
    floor_records_per_sec: f64,
    cases: Vec<Case>,
}

/// Times flow-record ingestion through the full engine (assemble-free
/// path: records arrive pre-assembled, as from rotated `.jsonl`), with
/// one refit folded in at the end — the serve steady state.
fn flow_case(label: &str, sketch: SketchMode, total: usize) -> Case {
    let runs = (total / RUN_FLOWS).max(1);
    let obs = Obs::enabled();
    let mut engine = StreamEngine::new(
        StreamOptions {
            sketch,
            refit_runs: runs,
            ..StreamOptions::default()
        },
        &obs,
    )
    .expect("engine options valid");
    let start = Instant::now();
    for run in 0..runs {
        for i in 0..RUN_FLOWS {
            engine.ingest_flow(flow_record(run, i));
        }
        engine.end_run(&run_meta(run as u64)).expect("run ingests");
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert!(engine.generation() >= 1, "the bench must reach a fit");
    let records = runs * RUN_FLOWS;
    let rate = records as f64 / elapsed.max(1e-9);
    println!(
        "{label:>10} {records:>9} records, {runs:>3} runs: {elapsed:>8.3}s \
         ({rate:>12.0} records/s, generation {})",
        engine.generation()
    );
    Case {
        path: label.to_string(),
        records,
        runs,
        generation: engine.generation(),
        emitted: 0,
        elapsed_secs: elapsed,
        records_per_sec: rate,
    }
}

/// Times raw packet ingestion through the bounded connection table;
/// capacity is far below the live tuple population so LRU eviction
/// stays hot.
fn packet_case(total: usize) -> Case {
    let packets: Vec<PacketRecord> = (0..total).map(packet).collect();
    let mut asm = StreamAssembler::with_config(StreamConfig {
        idle_timeout: Duration::from_secs(5),
        max_active: 4_096,
    });
    let start = Instant::now();
    let mut emitted = 0u64;
    for p in &packets {
        asm.push(*p);
        if asm.ready() >= 8_192 {
            emitted += asm.drain().len() as u64;
        }
    }
    emitted += asm.flush().len() as u64;
    let elapsed = start.elapsed().as_secs_f64();
    let rate = total as f64 / elapsed.max(1e-9);
    println!(
        "{:>10} {total:>9} records:           {elapsed:>8.3}s \
         ({rate:>12.0} records/s, {emitted} flows out)",
        "packet"
    );
    Case {
        path: "packet".to_string(),
        records: total,
        runs: 0,
        generation: 0,
        emitted,
        elapsed_secs: elapsed,
        records_per_sec: rate,
    }
}

/// Criterion micro-group: per-sample cost of the two sample stores the
/// engine chooses between — raw vector vs GK sketch — each fed one
/// slice, as `SampleStore::extend_from_slice` feeds a rotation.
fn bench_sketch_push(c: &mut Criterion) {
    let samples: Vec<f64> = (0..65_536u64)
        .map(|i| (mix(i) % 1_000_000) as f64)
        .collect();
    let mut group = c.benchmark_group("sketch_push");
    group.sample_size(if smoke() { 10 } else { 30 });
    group.bench_with_input(
        BenchmarkId::new("exact_vec", samples.len()),
        &samples,
        |b, samples| {
            b.iter(|| {
                let mut store = Vec::with_capacity(samples.len());
                store.extend_from_slice(black_box(samples));
                black_box(store)
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("gk_eps_0.01", samples.len()),
        &samples,
        |b, samples| {
            b.iter(|| {
                let mut sketch = GkSketch::new(0.01).expect("valid eps");
                sketch.extend_from_slice(black_box(samples));
                black_box(sketch.tuple_count())
            });
        },
    );
    group.finish();
}

/// Per-cell regression diff against the committed baseline, keyed on
/// `(path, records)`; a current cell with no baseline key is new, not a
/// regression.
fn diff_cells(current: &BenchReport, baseline: &BenchReport, tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for c in &current.cases {
        let Some(b) = baseline
            .cases
            .iter()
            .find(|b| b.path == c.path && b.records == c.records)
        else {
            continue;
        };
        let floor = (1.0 - tolerance) * b.records_per_sec;
        let verdict = if c.records_per_sec < floor {
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "  gate: {:>10} {:>9}: {:>12.0} rec/s vs baseline {:>12.0} (floor {:>12.0}) {}",
            c.path, c.records, c.records_per_sec, b.records_per_sec, floor, verdict
        );
        if c.records_per_sec < floor {
            failures.push(format!(
                "{} {} records: {:.0} rec/s < floor {:.0} (baseline {:.0})",
                c.path, c.records, c.records_per_sec, floor, b.records_per_sec
            ));
        }
    }
    failures
}

fn main() {
    let smoke = smoke();
    let mode = if smoke { "smoke" } else { "full" };
    heading(&format!(
        "stream_ingest: serve ingestion throughput ({mode})"
    ));

    let mut criterion = Criterion::default().configure_from_args();
    bench_sketch_push(&mut criterion);
    criterion.final_summary();

    // Full mode sweeps a superset of the smoke sizes, so the committed
    // full-mode baseline always carries the cells the CI smoke gate
    // needs to key against.
    let flow_totals: &[usize] = if smoke {
        &[100_000]
    } else {
        &[100_000, 1_000_000]
    };
    let packet_totals: &[usize] = if smoke {
        &[200_000]
    } else {
        &[200_000, 1_000_000]
    };

    println!();
    let mut cases = Vec::new();
    for &total in flow_totals {
        cases.push(flow_case("flow_exact", SketchMode::Exact, total));
        cases.push(flow_case(
            "flow_gk",
            SketchMode::Gk { epsilon: 0.01 },
            total,
        ));
    }
    for &total in packet_totals {
        cases.push(packet_case(total));
    }

    let report = BenchReport {
        bench: "stream_ingest".to_string(),
        mode: mode.to_string(),
        floor_records_per_sec: FLOOR_RECORDS_PER_SEC,
        cases,
    };

    let path = "BENCH_stream.json";
    let check = std::env::var("KEDDAH_BENCH_CHECK").is_ok_and(|v| v != "0");
    let tolerance = std::env::var("KEDDAH_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|t| (0.0..1.0).contains(t))
        .unwrap_or(DEFAULT_TOLERANCE);
    let mut failures = Vec::new();
    if check {
        println!("\nregression gate (tolerance {:.0}%):", tolerance * 100.0);
        for c in &report.cases {
            if c.path.starts_with("flow") && c.records_per_sec < FLOOR_RECORDS_PER_SEC {
                println!(
                    "  gate: {:>10} {:>9}: {:.0} rec/s below absolute floor {:.0} FAIL",
                    c.path, c.records, c.records_per_sec, FLOOR_RECORDS_PER_SEC
                );
                failures.push(format!(
                    "{} {} records: {:.0} rec/s under the {:.0} rec/s serve floor",
                    c.path, c.records, c.records_per_sec, FLOOR_RECORDS_PER_SEC
                ));
            }
        }
        match std::fs::read_to_string(path)
            .ok()
            .and_then(|s| serde_json::from_str::<BenchReport>(&s).ok())
        {
            Some(baseline) => failures.extend(diff_cells(&report, &baseline, tolerance)),
            None => println!("  gate: no parseable committed baseline; floor check only"),
        }
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(path, json + "\n").expect("write BENCH_stream.json");
    println!("wrote {path}");

    if !failures.is_empty() {
        eprintln!(
            "FAIL: {} cell(s) regressed vs committed baseline / absolute floor:",
            failures.len()
        );
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
