//! Table 1 \[R\]: the evaluation's workload matrix.
//!
//! Lists every job type with its DAG's data-flow columns and the sweep
//! dimensions of the capture campaign, plus one measured capture per
//! workload at the reference point (2 GiB, 8 reducers, replication 3) to
//! ground the matrix in observed traffic. The per-workload captures run
//! through the experiment runner.

use keddah_bench::{default_config, fmt_bytes, gib, heading, jobs_from_env, runner};
use keddah_core::runner::MatrixCell;
use keddah_hadoop::Workload;

fn main() {
    heading("Table 1: workload matrix");
    println!(
        "sweeps: input {{1, 2, 4, 8, 16}} GiB x reducers {{4, 8, 16}} x replication {{1, 2, 3}}"
    );
    println!("testbed: 20 workers in 4 racks + master, 1 Gb/s NICs\n");
    println!(
        "{:<10} {:>8} {:>8} {:>6} {:>6} | {:>8} {:>12} {:>10}",
        "workload", "map sel", "red sel", "iters", "maps", "flows", "wire bytes", "makespan"
    );

    let config = default_config();
    // Paper tables pin the original seven rows in canonical order;
    // post-paper workloads (pig_join, datagrid, tpcxhs) stay out.
    let cells: Vec<MatrixCell> = Workload::PAPER
        .iter()
        .map(|&w| MatrixCell::new(w, gib(2), config.clone(), 1))
        .collect();
    let results = runner().run_matrix(&cells, jobs_from_env());
    for (cell, result) in cells.iter().zip(&results) {
        // A paper workload's DAG is a chain of identical rounds.
        let dag = cell.workload.dag();
        let round = &dag.stages[0];
        let run = &result.runs[0];
        let maps_per_round = gib(2).div_ceil(config.block_bytes);
        println!(
            "{:<10} {:>8.2} {:>8.2} {:>6} {:>6} | {:>8} {:>12} {:>9.1}s",
            result.workload,
            round.map_selectivity,
            round.reduce_selectivity,
            dag.stages.len(),
            maps_per_round,
            run.flows,
            fmt_bytes(run.bytes as f64),
            run.duration_secs
        );
    }
    println!(
        "\nPaper shape: TeraSort/PageRank are network-heavy; Grep/KMeans move\n\
         little data; iterative jobs repeat per-round traffic."
    );
}
