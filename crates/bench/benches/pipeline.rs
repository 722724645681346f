//! Criterion benches for the end-to-end Keddah pipeline stages:
//! capture → fit → generate.

use criterion::{criterion_group, criterion_main, Criterion};
use keddah_core::pipeline::Keddah;
use keddah_core::validate::validate_model;
use keddah_hadoop::{ClusterSpec, HadoopConfig, JobSpec, Workload};
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    let cluster = ClusterSpec::racks(2, 4);
    let config = HadoopConfig::default();
    let job = JobSpec::new(Workload::TeraSort, 1 << 30);

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("capture_1gib", |b| {
        b.iter(|| Keddah::capture(&cluster, &config, black_box(&job), 1, 1))
    });

    let traces = Keddah::capture(&cluster, &config, &job, 5, 1);
    group.bench_function("fit_5_runs", |b| {
        b.iter(|| Keddah::fit(black_box(&traces)).expect("fits"))
    });

    let model = Keddah::fit(&traces).expect("fits");
    group.bench_function("generate_job", |b| {
        b.iter(|| black_box(&model).generate_job(7).flows.len())
    });

    group.bench_function("validate", |b| {
        b.iter(|| validate_model(black_box(&model), &traces, 2, 3).expect("validates"))
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
