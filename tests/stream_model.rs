//! Sketch-equivalence and streaming-eviction property tests.
//!
//! Pins the two contracts `keddah serve` rests on:
//!
//! * **Sketch error bound** — Greenwald–Khanna quantiles land within the
//!   sketch's rank error ε of the exact sorted percentiles (the bound
//!   derived in `keddah_stat::sketch`; asserted exactly, any violation
//!   fails);
//! * **Eviction correctness** — the bounded-memory assembler emits a flow
//!   straddling the eviction timeout exactly once with exact byte totals,
//!   conserves bytes and packet counts under arbitrary out-of-order
//!   interleavings and table capacities (exact `u64` arithmetic, in the
//!   style of `tests/dag_model.rs`), matches the batch assembler on
//!   in-order streams, and — in the degenerate exact-sketch config — the
//!   streaming engine's refit is byte-identical to the offline fit.

use keddah::core::fitting::fit_model;
use keddah::core::stream::{StreamEngine, StreamOptions};
use keddah::core::{Dataset, SketchMode};
use keddah::des::{Duration, SimTime};
use keddah::flowcap::{
    ports, FiveTuple, FlowAssembler, FlowRecord, NodeId, PacketRecord, StreamAssembler,
    StreamConfig, StreamStats, Trace, TraceMeta,
};
use keddah::obs::Obs;
use keddah::stat::sketch::GkSketch;
use proptest::prelude::*;

const EPSILONS: [f64; 3] = [0.01, 0.02, 0.05];

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// Exact rank interval of `v` in `sorted`: 1-based ranks `[lo, hi]` such
/// that `v` occupies positions `lo..=hi` in sorted order.
fn rank_interval(sorted: &[f64], v: f64) -> (f64, f64) {
    let lo = sorted.partition_point(|&x| x < v) + 1;
    let hi = sorted.partition_point(|&x| x <= v);
    (lo as f64, hi as f64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// GK percentiles: for any sample population and queried quantile,
    /// the returned value's exact rank interval overlaps `[r − εn, r + εn]`
    /// where `r = ⌈qn⌉` is the rank the exact sorted percentile would use.
    #[test]
    fn sketch_percentiles_within_eps_of_exact(
        raw in prop::collection::vec(1u64..1_000_000_000, 100..600),
        eps_idx in 0usize..3,
    ) {
        let eps = EPSILONS[eps_idx];
        let samples: Vec<f64> = raw.iter().map(|&v| v as f64).collect();
        let mut sketch = GkSketch::new(eps).unwrap();
        for &x in &samples {
            sketch.observe(x);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as f64;
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let v = sketch.quantile(q).unwrap();
            let (lo, hi) = rank_interval(&sorted, v);
            let r = (q * n).ceil().max(1.0);
            prop_assert!(
                lo <= r + eps * n + 1e-9 && hi >= r - eps * n - 1e-9,
                "q={q}: rank interval [{lo}, {hi}] misses [{} , {}] (n={n}, eps={eps})",
                r - eps * n,
                r + eps * n,
            );
        }
        // The extremes are stored exactly, so q=0 / q=1 have zero error.
        prop_assert_eq!(sketch.quantile(0.0).unwrap(), sorted[0]);
        prop_assert_eq!(sketch.quantile(1.0).unwrap(), sorted[sorted.len() - 1]);
    }
}

/// Packet spec drawn by the conservation/equivalence proptests:
/// `(src, dst offset, port, ts ms, bytes, fin)`.
type PacketDraw = (u32, u32, u16, u64, u64, bool);

fn build_packet(&(a, boff, port, ts, bytes, fin): &PacketDraw) -> PacketRecord {
    let src = NodeId(a % 6);
    let dst = NodeId((a % 6 + 1 + boff % 5) % 6); // always distinct from src
    if fin {
        PacketRecord::fin(t(ts), src, port, dst, ports::SHUFFLE, bytes)
    } else {
        PacketRecord::data(t(ts), src, port, dst, ports::SHUFFLE, bytes)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Byte conservation: however the stream is interleaved or reordered,
    /// and however small the connection table, every ingested byte and
    /// packet appears in exactly one emitted record. Exact arithmetic —
    /// no tolerance.
    #[test]
    fn eviction_conserves_bytes_under_any_interleaving(
        specs in prop::collection::vec(
            (0u32..6, 0u32..5, 1_000u16..1_016, 0u64..120_000, 1u64..50_000, any::<bool>()),
            1..250,
        ),
        max_active in 1usize..24,
    ) {
        let mut asm = StreamAssembler::with_config(StreamConfig {
            idle_timeout: Duration::from_secs(10),
            max_active,
        });
        let mut bytes_in = 0u64;
        for spec in &specs {
            let p = build_packet(spec);
            bytes_in += p.bytes;
            asm.push(p);
        }
        let records = asm.flush();
        let bytes_out: u64 = records.iter().map(|f| f.fwd_bytes + f.rev_bytes).sum();
        let packets_out: u64 = records.iter().map(|f| f.packets).sum();
        prop_assert_eq!(bytes_out, bytes_in);
        prop_assert_eq!(packets_out, specs.len() as u64);
        prop_assert_eq!(asm.open(), 0);
        prop_assert_eq!(asm.stats().emitted(), records.len() as u64);
    }

    /// On in-order streams with a roomy table, the bounded-memory
    /// assembler's records are exactly the batch assembler's.
    #[test]
    fn in_order_stream_matches_batch_assembler(
        specs in prop::collection::vec(
            (0u32..6, 0u32..5, 1_000u16..1_008, 0u64..60_000, 1u64..10_000, any::<bool>()),
            1..200,
        ),
    ) {
        let mut packets: Vec<PacketRecord> = specs.iter().map(build_packet).collect();
        packets.sort_by_key(|p| p.ts);
        let idle = Duration::from_secs(5);
        let mut batch = FlowAssembler::with_idle_timeout(idle);
        let mut stream = StreamAssembler::with_config(StreamConfig {
            idle_timeout: idle,
            max_active: 4_096,
        });
        for p in &packets {
            batch.push(*p);
            stream.push(*p);
        }
        let expect = batch.finish();
        let mut got = stream.flush();
        got.sort_by_key(|f| {
            (
                f.start,
                f.tuple.src.0,
                f.tuple.src_port,
                f.tuple.dst.0,
                f.tuple.dst_port,
            )
        });
        prop_assert_eq!(got, expect);
    }
}

/// `StreamAssembler`'s contract spelled out naively: the open flows in a
/// Vec, coldest (least recently touched) first, found by linear search.
struct NaiveAssembler {
    idle: Duration,
    capacity: usize,
    clock: SimTime,
    /// `(canonical tuple, flow so far, stream clock at its last packet)`.
    open: Vec<(FiveTuple, FlowRecord, SimTime)>,
    done: Vec<FlowRecord>,
    stats: StreamStats,
}

impl NaiveAssembler {
    fn new(idle: Duration, capacity: usize) -> Self {
        NaiveAssembler {
            idle,
            capacity,
            clock: SimTime::ZERO,
            open: Vec::new(),
            done: Vec::new(),
            stats: StreamStats::default(),
        }
    }

    fn push(&mut self, p: PacketRecord) {
        self.stats.packets += 1;
        self.clock = self.clock.max(p.ts);
        // Every flow idle at the new clock ends, coldest first.
        let (idle, warm): (Vec<_>, Vec<_>) = std::mem::take(&mut self.open)
            .into_iter()
            .partition(|(_, _, touched)| self.clock.saturating_since(*touched) > self.idle);
        self.open = warm;
        for (_, flow, _) in idle {
            self.done.push(flow);
            self.stats.evicted_idle += 1;
        }
        let oriented = FiveTuple {
            src: p.src,
            src_port: p.src_port,
            dst: p.dst,
            dst_port: p.dst_port,
        };
        let key = oriented.canonical();
        if let Some(i) = self.open.iter().position(|(k, _, _)| *k == key) {
            let (_, mut flow, _) = self.open.remove(i);
            if p.ts.saturating_since(flow.end) > self.idle {
                // Idle on its own tuple: it ends, and this packet opens
                // the next flow below.
                self.done.push(flow);
                self.stats.evicted_idle += 1;
            } else {
                flow.start = flow.start.min(p.ts);
                flow.end = flow.end.max(p.ts);
                flow.packets += 1;
                if oriented == flow.tuple {
                    flow.fwd_bytes += p.bytes;
                } else {
                    flow.rev_bytes += p.bytes;
                }
                if p.fin {
                    self.done.push(flow);
                    self.stats.completed_fin += 1;
                } else {
                    self.open.push((key, flow, self.clock));
                }
                return;
            }
        }
        if self.open.len() >= self.capacity {
            let (_, coldest, _) = self.open.remove(0);
            self.done.push(coldest);
            self.stats.evicted_capacity += 1;
        }
        let flow = FlowRecord {
            tuple: oriented,
            start: p.ts,
            end: p.ts,
            fwd_bytes: p.bytes,
            rev_bytes: 0,
            packets: 1,
            component: None,
        };
        if p.fin {
            self.done.push(flow);
            self.stats.completed_fin += 1;
        } else {
            self.open.push((key, flow, self.clock));
        }
    }

    fn flush(&mut self) -> Vec<FlowRecord> {
        for (_, flow, _) in std::mem::take(&mut self.open) {
            self.done.push(flow);
            self.stats.flushed += 1;
        }
        std::mem::take(&mut self.done)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The assembler emits the naive reference's records, in the same
    /// order at every drain, with the same counters. Few tuples, tables
    /// of 1–8 slots, idle timeouts of 0.2–2 s, FINs on a quarter of the
    /// packets (so on first packets too), and late packets up to 4 s
    /// behind the clock: a late packet can open a flow whose next packet
    /// then splits it on its own tuple before the sweep sees it idle.
    #[test]
    fn stream_assembler_matches_naive_reference(
        draws in prop::collection::vec(
            (0u32..3, 0u32..2, 1_000u16..1_003, (0u64..1_500, 0u64..4, 0u64..4_000), 1u64..5_000, 0u32..4),
            1..300,
        ),
        capacity in 1usize..9,
        idle_ms in 200u64..2_000,
        drain_every in 1usize..40,
    ) {
        let idle = Duration::from_millis(idle_ms);
        let mut asm = StreamAssembler::with_config(StreamConfig { idle_timeout: idle, max_active: capacity });
        let mut naive = NaiveAssembler::new(idle, capacity);
        let mut now = 0u64;
        for (i, &(a, b, port, (step, late, lag), bytes, fin)) in draws.iter().enumerate() {
            now += step;
            let ts = if late == 0 { now.saturating_sub(lag) } else { now };
            let p = build_packet(&(a, b, port, ts, bytes, fin == 0));
            asm.push(p);
            naive.push(p);
            prop_assert_eq!(asm.open(), naive.open.len());
            if i % drain_every == 0 {
                prop_assert_eq!(asm.drain(), std::mem::take(&mut naive.done));
            }
        }
        prop_assert_eq!(asm.flush(), naive.flush());
        prop_assert_eq!(asm.stats(), naive.stats);
    }
}

/// A flow whose packets straddle the eviction timeout is emitted exactly
/// once per idle segment, with exact byte totals: no double-count, no
/// loss, and `gap == timeout` does *not* split (strictly-greater
/// semantics, matching the batch assembler).
#[test]
fn straddling_flow_boundary_semantics() {
    let idle = Duration::from_secs(1);
    let mut asm = StreamAssembler::with_config(StreamConfig {
        idle_timeout: idle,
        max_active: 8,
    });
    let push = |asm: &mut StreamAssembler, ms: u64, bytes: u64| {
        asm.push(PacketRecord::data(
            t(ms),
            NodeId(0),
            100,
            NodeId(1),
            ports::SHUFFLE,
            bytes,
        ));
    };
    push(&mut asm, 0, 100);
    push(&mut asm, 1_000, 200); // gap == timeout exactly: same flow
    assert_eq!(asm.drain().len(), 0, "boundary gap must not split");
    push(&mut asm, 2_001, 400); // gap 1001 ms > timeout: splits
    let first = asm.drain();
    assert_eq!(first.len(), 1, "straddling flow emitted exactly once");
    assert_eq!(first[0].fwd_bytes, 300);
    assert_eq!(first[0].packets, 2);
    assert_eq!((first[0].start, first[0].end), (t(0), t(1_000)));
    let rest = asm.flush();
    assert_eq!(rest.len(), 1);
    assert_eq!(rest[0].fwd_bytes, 400);
    assert_eq!(
        first[0].fwd_bytes + rest[0].fwd_bytes,
        700,
        "bytes conserved across the split"
    );
    assert_eq!(asm.stats().evicted_idle, 1);
}

fn meta(seed: u64) -> TraceMeta {
    TraceMeta {
        workload: "terasort".into(),
        input_bytes: 1 << 30,
        reducers: 4,
        replication: 3,
        block_bytes: 128 << 20,
        nodes: 8,
        seed,
        counters: None,
    }
}

/// Builds one classified run trace from `(bytes, start ms)` draws, flows
/// sorted the way `keddah capture` writes them.
fn run_trace(flows: &[(u64, u64)], seed: u64) -> Trace {
    let mut records: Vec<FlowRecord> = flows
        .iter()
        .enumerate()
        .map(|(i, &(bytes, start_ms))| FlowRecord {
            tuple: FiveTuple {
                src: NodeId(1),
                src_port: 40_000 + (i % 1_000) as u16,
                dst: NodeId(2),
                dst_port: ports::SHUFFLE,
            },
            start: t(start_ms),
            end: t(start_ms + 50),
            fwd_bytes: 100,
            rev_bytes: bytes,
            packets: 2,
            component: None,
        })
        .collect();
    records.sort_by_key(|f| {
        (
            f.start,
            f.tuple.src.0,
            f.tuple.src_port,
            f.tuple.dst.0,
            f.tuple.dst_port,
        )
    });
    let mut trace = Trace::new(meta(seed), records);
    trace.classify();
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Degenerate sketch config (exact stores): streaming ingestion of
    /// rotated runs followed by a refit produces **byte-identical** model
    /// JSON to the offline `fit_model` over the pooled traces.
    #[test]
    fn exact_mode_refit_is_byte_identical_to_offline_fit(
        runs in prop::collection::vec(
            prop::collection::vec((1u64..1_000_000, 0u64..30_000), 10..40),
            1..4,
        ),
    ) {
        let traces: Vec<Trace> = runs
            .iter()
            .enumerate()
            .map(|(i, flows)| run_trace(flows, i as u64))
            .collect();
        let obs = Obs::disabled();
        let mut engine = StreamEngine::new(
            StreamOptions {
                sketch: SketchMode::Exact,
                ..StreamOptions::default()
            },
            &obs,
        )
        .unwrap();
        let mut last = Ok(false);
        for trace in &traces {
            for f in trace.flows() {
                engine.ingest_flow(*f);
            }
            last = engine.end_run(trace.meta());
        }
        if let Ok(offline) = fit_model(&Dataset::from_traces(&traces)) {
            prop_assert!(matches!(last, Ok(true)), "final refit must succeed");
            prop_assert_eq!(engine.model_json().unwrap(), offline.to_json());
        }
    }
}
