//! `keddah stats` — render a metrics snapshot as a per-subsystem table.

use keddah_obs::{MetricsDiff, MetricsSnapshot};

use super::{err, load, Args, Result};

const HELP: &str = "\
keddah stats — render metrics snapshots written by --metrics-out

Counters and gauges print as plain values; histograms print their
moment summary (the log2 buckets stay in the JSON). Several files
merge before rendering — counters add, gauges keep the maximum,
histogram summaries combine — so per-run artefacts can be folded
into one view.

With --diff, exactly two files compare as baseline vs degraded:
counters and gauges print their signed deltas, histograms print the
shift of their moment summaries (mean ratio). Metrics present on only
one side diff against zero rather than disappearing.

USAGE:
    keddah stats <METRICS.json> [MORE.json ...]
    keddah stats --diff <BASELINE.json> <DEGRADED.json>";

const FLAGS: &[&str] = &["diff"];

/// Runs the subcommand.
///
/// # Errors
///
/// Returns an error when no file is given or a file cannot be read or
/// parsed.
pub fn run(args: &Args) -> Result<()> {
    if args.wants_help() {
        println!("{HELP}");
        return Ok(());
    }
    args.check_known(FLAGS)?;
    let files = args.positional();
    if let Some(diff_value) = args.get("diff") {
        // `--diff A B` parses as flag value A + positional B; a bare
        // `--diff` after both paths leaves two positionals instead.
        let (baseline, degraded) = match (diff_value, files) {
            ("true", [b, d]) => (b.as_str(), d.as_str()),
            (b, [d]) if b != "true" => (b, d.as_str()),
            _ => {
                return Err(err(
                    "--diff needs exactly two files: baseline then degraded",
                ))
            }
        };
        let diff = load::snapshot(degraded)?.diff(&load::snapshot(baseline)?);
        print!("{}", render_diff(&diff));
        return Ok(());
    }
    if files.is_empty() {
        return Err(err(
            "need at least one metrics file; run `keddah stats --help`",
        ));
    }
    let mut merged = MetricsSnapshot::default();
    for path in files {
        merged.merge(&load::snapshot(path)?);
    }
    print!("{}", render(&merged));
    Ok(())
}

/// Renders a baseline-vs-degraded diff, changed metrics only; split
/// from [`run`] so tests can assert on it.
fn render_diff(diff: &MetricsDiff) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<24} {:>12} {:>12} {:>8}",
        "subsystem", "metric", "baseline", "degraded", "delta"
    );
    if diff.is_unchanged() {
        let _ = writeln!(out, "{:<10} {:<24} (no differences)", "-", "-");
        return out;
    }
    for (subsystem, sub) in &diff.subsystems {
        for (name, d) in &sub.counters {
            if d.baseline != d.degraded {
                let _ = writeln!(
                    out,
                    "{subsystem:<10} {name:<24} {:>12} {:>12} {:>+8}",
                    d.baseline,
                    d.degraded,
                    d.delta()
                );
            }
        }
        for (name, d) in &sub.gauges {
            if d.baseline != d.degraded {
                let label = format!("{name} (gauge)");
                let _ = writeln!(
                    out,
                    "{subsystem:<10} {label:<24} {:>12} {:>12} {:>+8}",
                    d.baseline,
                    d.degraded,
                    d.delta()
                );
            }
        }
        for (name, shift) in &sub.histograms {
            if shift.n_baseline == shift.n_degraded
                && shift.mean_baseline == shift.mean_degraded
                && shift.max_baseline == shift.max_degraded
            {
                continue;
            }
            let label = format!("{name} (hist)");
            let _ = writeln!(
                out,
                "{subsystem:<10} {label:<24} n={}→{} mean={:.4}→{:.4} (x{:.2})",
                shift.n_baseline,
                shift.n_degraded,
                shift.mean_baseline,
                shift.mean_degraded,
                shift.mean_ratio()
            );
        }
    }
    out
}

/// Renders the table; split from [`run`] so tests can assert on it.
fn render(snapshot: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{:<10} {:<24} {:>14}", "subsystem", "metric", "value");
    // A fresh snapshot (e.g. a daemon polled before its first run) must
    // say so explicitly rather than render an empty table.
    if snapshot.subsystems.is_empty() {
        let _ = writeln!(out, "{:<10} {:<24} {:>14}", "-", "(no samples yet)", "-");
        return out;
    }
    for (subsystem, metrics) in &snapshot.subsystems {
        let before = out.len();
        for (name, value) in &metrics.counters {
            let _ = writeln!(out, "{subsystem:<10} {name:<24} {value:>14}");
        }
        for (name, value) in &metrics.gauges {
            let label = format!("{name} (gauge)");
            let _ = writeln!(out, "{subsystem:<10} {label:<24} {value:>14}");
        }
        for (name, hist) in &metrics.histograms {
            let label = format!("{name} (hist)");
            let _ = writeln!(out, "{subsystem:<10} {label:<24} {}", hist.summary);
        }
        if out.len() == before {
            // Registered subsystem with no recorded metrics yet.
            let _ = writeln!(
                out,
                "{subsystem:<10} {:<24} {:>14}",
                "(no samples yet)", "-"
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use keddah_obs::Obs;

    #[test]
    fn renders_all_metric_kinds() {
        let obs = Obs::enabled();
        obs.add("netsim", "flows_started", 3);
        obs.gauge("netsim", "peak_active").set(2);
        obs.histogram("netsim", "fct_us").observe(10.0);
        let table = render(&obs.metrics());
        assert!(table.contains("flows_started"), "{table}");
        assert!(table.contains("peak_active (gauge)"), "{table}");
        assert!(table.contains("fct_us (hist)"), "{table}");
        assert!(table.contains("n=1"), "{table}");
    }

    #[test]
    fn empty_snapshot_renders_explicit_no_samples_row() {
        let table = render(&MetricsSnapshot::default());
        let mut lines = table.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("subsystem"), "{table}");
        assert!(header.contains("metric"), "{table}");
        let row = lines.next().unwrap();
        assert!(row.contains("(no samples yet)"), "{table}");
        assert_eq!(lines.next(), None, "exactly header + placeholder row");
    }

    #[test]
    fn registered_but_unsampled_subsystem_gets_a_row() {
        // A subsystem key can exist with no recorded metrics (a daemon's
        // snapshot polled before any samples): it must still print a row.
        let mut snapshot = MetricsSnapshot::default();
        snapshot
            .subsystems
            .insert("stream".into(), Default::default());
        let table = render(&snapshot);
        assert!(table.contains("stream"), "{table}");
        assert!(table.contains("(no samples yet)"), "{table}");
    }

    #[test]
    fn no_files_is_an_error() {
        let e = run(&Args::parse(&[]).unwrap()).unwrap_err();
        assert!(e.to_string().contains("at least one metrics file"));
    }

    fn sample(counter: u64, gauge: u64, hist: &[f64]) -> MetricsSnapshot {
        let obs = Obs::enabled();
        obs.add("netsim", "flows_aborted", counter);
        obs.gauge("netsim", "peak_active").set(gauge);
        for &x in hist {
            obs.histogram("netsim", "fct_us").observe(x);
        }
        obs.metrics()
    }

    #[test]
    fn diff_renders_changed_metrics_with_signed_deltas() {
        let diff = sample(7, 2, &[30.0, 60.0]).diff(&sample(2, 5, &[10.0, 20.0]));
        let table = render_diff(&diff);
        let aborted = table.lines().find(|l| l.contains("flows_aborted")).unwrap();
        assert!(aborted.contains("+5"), "{table}");
        let gauge = table.lines().find(|l| l.contains("peak_active")).unwrap();
        assert!(gauge.contains("-3"), "{table}");
        let hist = table.lines().find(|l| l.contains("fct_us")).unwrap();
        assert!(hist.contains("(x3.00)"), "{table}");
    }

    #[test]
    fn diff_of_identical_snapshots_says_so() {
        let snap = sample(3, 1, &[5.0]);
        let table = render_diff(&snap.diff(&snap.clone()));
        assert!(table.contains("(no differences)"), "{table}");
        assert_eq!(table.lines().count(), 2, "{table}");
    }

    #[test]
    fn diff_flag_requires_two_files() {
        let args = Args::parse(&["--diff".into(), "only.json".into()]).unwrap();
        let e = run(&args).unwrap_err();
        assert!(e.to_string().contains("exactly two files"), "{e}");
    }

    #[test]
    fn diff_against_missing_file_is_a_clean_error() {
        let args = Args::parse(&[
            "--diff".into(),
            "/nonexistent/a.json".into(),
            "/nonexistent/b.json".into(),
        ])
        .unwrap();
        let e = run(&args).unwrap_err();
        assert!(e.to_string().contains("cannot read"), "{e}");
    }
}
