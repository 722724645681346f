//! Benchmark session: the classic `teragen → terasort` flow as one
//! capture.
//!
//! Real benchmarking sessions first *load* HDFS (TeraGen: pure replicated
//! writes) and then *sort* the generated data (TeraSort reads exactly the
//! blocks TeraGen placed). This example runs the chained session, shows
//! how the traffic mix flips between the phases, and then models both
//! phases through the experiment runner — the two cells fill in parallel
//! (set `KEDDAH_JOBS` to control the worker count).
//!
//! ```sh
//! cargo run --release --example benchmark_session
//! ```

use keddah::core::runner::{MatrixCell, Runner};
use keddah::des::Duration;
use keddah::flowcap::Component;
use keddah::hadoop::{run_session, ClusterSpec, HadoopConfig, JobSpec, Workload};

fn main() {
    let cluster = ClusterSpec::racks(4, 4);
    let config = HadoopConfig::default();
    let (session, _) = run_session(
        &cluster,
        &config,
        &[
            JobSpec::new(Workload::TeraGen, 4 << 30),
            JobSpec::new(Workload::TeraSort, 4 << 30),
        ],
        7,
    );

    println!(
        "session `{}`: {} flows, {:.2} GB on the wire",
        session.trace.meta().workload,
        session.trace.len(),
        session.trace.total_bytes() as f64 / 1e9
    );
    for (i, (end, counters)) in session.job_ends.iter().zip(&session.counters).enumerate() {
        println!(
            "  job {i}: done at {:.1} s — {} maps, {} reducers, {:.2} GB written, {:.2} GB shuffled",
            end.as_secs_f64(),
            counters.maps,
            counters.reducers,
            counters.hdfs_write_bytes as f64 / 1e9,
            counters.shuffle_bytes as f64 / 1e9
        );
    }

    // The phase flip: write-dominated first half, shuffle-heavy second.
    let timeline = session.trace.timeline(Duration::from_secs(10));
    println!(
        "\n{:>7} {:>12} {:>12} {:>12}",
        "t (s)", "write MB", "shuffle MB", "read MB"
    );
    let writes = timeline.series(Component::HdfsWrite);
    let shuffles = timeline.series(Component::Shuffle);
    let reads = timeline.series(Component::HdfsRead);
    for (i, bin) in timeline.bins.iter().enumerate() {
        println!(
            "{:>7.0} {:>12.1} {:>12.1} {:>12.1}",
            bin.start.as_secs_f64(),
            writes[i] as f64 / 1e6,
            shuffles[i] as f64 / 1e6,
            reads[i] as f64 / 1e6
        );
    }
    println!(
        "\nExpected shape: pure writes while TeraGen loads HDFS, then the\n\
         familiar shuffle plateau and output-write burst as TeraSort runs\n\
         over the freshly generated blocks."
    );

    // Model each phase in isolation via the experiment runner: the two
    // cells are independent, so they execute on parallel workers with
    // seeds derived from their identity (results are the same at any
    // worker count).
    let jobs = std::env::var("KEDDAH_JOBS")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(2);
    let runner = Runner::new(cluster);
    let cells = vec![
        MatrixCell::new(Workload::TeraGen, 4 << 30, config.clone(), 3),
        MatrixCell::new(Workload::TeraSort, 4 << 30, config, 3),
    ];
    let results = runner.run_matrix(&cells, jobs);
    println!("\nper-phase models (3 isolated captures each, {jobs} workers):");
    for result in &results {
        match &result.model {
            Some(model) => println!(
                "  {:<9} {} component model(s), trained on {} flows",
                result.workload,
                model.components.len(),
                result.runs.iter().map(|r| r.flows).sum::<u64>()
            ),
            None => println!("  {:<9} too little traffic to fit", result.workload),
        }
    }
}
