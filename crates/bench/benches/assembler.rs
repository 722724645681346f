//! Criterion benches for the capture substrate: flow assembly
//! throughput and the idle-timeout ablation from DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use keddah_des::{Duration, SimTime};
use keddah_flowcap::{sort_by_time, FlowAssembler, NodeId, PacketRecord};
use std::hint::black_box;

/// A synthetic packet stream: `flows` concurrent connections, 10
/// packets each, interleaved in time.
fn packet_stream(flows: u32) -> Vec<PacketRecord> {
    let mut packets = Vec::with_capacity(flows as usize * 10);
    for round in 0..10u64 {
        for f in 0..flows {
            let ts = SimTime::from_millis(round * 100 + (f as u64 % 97));
            let src = NodeId(f % 20);
            let dst = NodeId(20 + f % 10);
            let sp = 30_000 + (f % 30_000) as u16;
            let p = match round {
                0 => PacketRecord::syn(ts, src, sp, dst, 50_010, 128),
                9 => PacketRecord::fin(ts, src, sp, dst, 50_010, 0),
                _ => PacketRecord::data(ts, src, sp, dst, 50_010, 64_000),
            };
            packets.push(p);
        }
    }
    sort_by_time(&mut packets);
    packets
}

fn bench_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_assembly");
    for &flows in &[100u32, 1_000, 10_000] {
        let packets = packet_stream(flows);
        group.bench_with_input(
            BenchmarkId::from_parameter(flows),
            &packets,
            |b, packets| {
                b.iter(|| {
                    let mut asm = FlowAssembler::new();
                    asm.extend(black_box(packets.iter().copied()));
                    asm.finish().len()
                })
            },
        );
    }
    group.finish();
}

/// Ablation: idle-timeout sensitivity. A stream with 2 s gaps between
/// packet bursts of the same 5-tuple: short timeouts split flows, long
/// ones merge them. Reports flow counts once, benches the extremes.
fn bench_timeout_ablation(c: &mut Criterion) {
    let mut packets = Vec::new();
    for burst in 0..50u64 {
        for f in 0..20u32 {
            let ts = SimTime::from_millis(burst * 2_000 + f as u64);
            packets.push(PacketRecord::data(
                ts,
                NodeId(f),
                40_000,
                NodeId(100),
                13_562,
                10_000,
            ));
        }
    }
    sort_by_time(&mut packets);
    for timeout_s in [1u64, 5, 60] {
        let mut asm = FlowAssembler::with_idle_timeout(Duration::from_secs(timeout_s));
        asm.extend(packets.iter().copied());
        println!(
            "[ablation] idle timeout {timeout_s:>2}s -> {} flows",
            asm.finish().len()
        );
    }
    let mut group = c.benchmark_group("timeout_ablation");
    for &timeout_s in &[1u64, 60] {
        group.bench_with_input(
            BenchmarkId::from_parameter(timeout_s),
            &packets,
            |b, packets| {
                b.iter(|| {
                    let mut asm = FlowAssembler::with_idle_timeout(Duration::from_secs(timeout_s));
                    asm.extend(black_box(packets.iter().copied()));
                    asm.finish().len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_assembly, bench_timeout_ablation);
criterion_main!(benches);
