//! Criterion benches for the Hadoop cluster simulator: capture
//! throughput vs cluster size and input size (the events/sec ablation
//! from DESIGN.md), and captures that also render their packets at the
//! sizes where maps outnumber slots.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use keddah_hadoop::{run_job, run_job_with_packets, ClusterSpec, HadoopConfig, JobSpec, Workload};
use std::hint::black_box;

fn bench_cluster_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("hadoop_sim/cluster_size");
    group.sample_size(10);
    for &(racks, per_rack) in &[(2u32, 4u32), (4, 5), (8, 8)] {
        let cluster = ClusterSpec::racks(racks, per_rack);
        let config = HadoopConfig::default();
        let job = JobSpec::new(Workload::TeraSort, 2 << 30);
        group.bench_with_input(
            BenchmarkId::from_parameter(racks * per_rack),
            &cluster,
            |b, cluster| b.iter(|| run_job(black_box(cluster), &config, &job, 1).trace.len()),
        );
    }
    group.finish();
}

fn bench_input_size(c: &mut Criterion) {
    let cluster = ClusterSpec::racks(4, 5);
    let config = HadoopConfig::default();
    let mut group = c.benchmark_group("hadoop_sim/input_gib");
    group.sample_size(10);
    for &gib in &[1u64, 4, 16] {
        let job = JobSpec::new(Workload::TeraSort, gib << 30);
        group.bench_with_input(BenchmarkId::from_parameter(gib), &job, |b, job| {
            b.iter(|| run_job(&cluster, &config, black_box(job), 1).trace.len())
        });
    }
    group.finish();
}

/// `run_job_with_packets`, the call the benchmark's `model_campaign`
/// times, at its 24 GiB on the paper's 4x5 cluster (192 maps for 80
/// slots), at 96 GiB there, and at 24 GiB on 8x8 (256 slots).
fn bench_with_packets(c: &mut Criterion) {
    let config = HadoopConfig::default();
    let mut group = c.benchmark_group("hadoop_sim/with_packets");
    group.sample_size(10);
    for &(racks, per_rack, gib) in &[(4u32, 5u32, 24u64), (4, 5, 96), (8, 8, 24)] {
        let cluster = ClusterSpec::racks(racks, per_rack);
        let job = JobSpec::new(Workload::TeraSort, gib << 30);
        group.bench_with_input(
            BenchmarkId::new(format!("{racks}x{per_rack}"), format!("{gib}gib")),
            &job,
            |b, job| {
                b.iter(|| {
                    run_job_with_packets(&cluster, &config, black_box(job), 1)
                        .1
                        .len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cluster_size,
    bench_input_size,
    bench_with_packets
);
criterion_main!(benches);
