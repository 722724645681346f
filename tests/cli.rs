//! End-to-end tests of the `keddah` command-line interface, driving the
//! same `cli::run` entry point the binary uses, against a temp
//! directory.

use std::path::PathBuf;

use keddah::cli;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("keddah-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run(parts: &[&str]) -> Result<(), String> {
    let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
    cli::run(&argv).map_err(|e| e.to_string())
}

#[test]
fn capture_fit_inspect_generate_replay_validate() {
    let dir = tmp_dir("full");
    let traces = dir.join("traces");
    let packets = dir.join("packets");
    let model = dir.join("model.json");
    let jobs = dir.join("jobs.json");

    run(&[
        "capture",
        "--workload",
        "terasort",
        "--input-gb",
        "1",
        "--racks",
        "2",
        "--nodes-per-rack",
        "3",
        "--reducers",
        "4",
        "--repeats",
        "2",
        "--seed",
        "5",
        "--out",
        traces.to_str().unwrap(),
        "--packets-out",
        packets.to_str().unwrap(),
    ])
    .expect("capture succeeds");
    let trace_files: Vec<PathBuf> = std::fs::read_dir(&traces)
        .expect("traces dir exists")
        .map(|e| e.expect("entry").path())
        .collect();
    assert_eq!(trace_files.len(), 2);
    let packet_files: Vec<PathBuf> = std::fs::read_dir(&packets)
        .expect("packets dir exists")
        .map(|e| e.expect("entry").path())
        .collect();
    assert_eq!(packet_files.len(), 2);
    // The packet files are parseable tcpdump text.
    let text = std::fs::read_to_string(&packet_files[0]).expect("readable");
    assert!(text.lines().next().expect("non-empty").contains("IP node"));

    let mut fit_args = vec![
        "fit".to_string(),
        "--out".to_string(),
        model.to_str().unwrap().to_string(),
    ];
    fit_args.extend(trace_files.iter().map(|p| p.to_str().unwrap().to_string()));
    cli::run(&fit_args).expect("fit succeeds");
    assert!(model.exists());

    run(&["inspect", model.to_str().unwrap()]).expect("inspect succeeds");

    run(&[
        "generate",
        "--model",
        model.to_str().unwrap(),
        "--jobs",
        "2",
        "--seed",
        "3",
        "--out",
        jobs.to_str().unwrap(),
    ])
    .expect("generate succeeds");
    let payload = std::fs::read_to_string(&jobs).expect("jobs written");
    let parsed: Vec<keddah::core::GeneratedJob> =
        serde_json::from_str(&payload).expect("jobs parse");
    assert_eq!(parsed.len(), 2);

    run(&[
        "replay",
        "--model",
        model.to_str().unwrap(),
        "--topology",
        "leaf-spine:3x3x2:1gbps:2.0",
        "--jobs",
        "1",
    ])
    .expect("replay succeeds");

    let mut validate_args = vec![
        "validate".to_string(),
        "--model".to_string(),
        model.to_str().unwrap().to_string(),
        "--jobs".to_string(),
        "3".to_string(),
    ];
    validate_args.extend(trace_files.iter().map(|p| p.to_str().unwrap().to_string()));
    cli::run(&validate_args).expect("validate succeeds");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_trace_mode() {
    let dir = tmp_dir("replaytrace");
    run(&[
        "capture",
        "--workload",
        "grep",
        "--input-gb",
        "0.25",
        "--racks",
        "1",
        "--nodes-per-rack",
        "4",
        "--reducers",
        "2",
        "--repeats",
        "1",
        "--out",
        dir.to_str().unwrap(),
    ])
    .expect("capture succeeds");
    let trace = std::fs::read_dir(&dir)
        .expect("dir")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .expect("trace exists");
    run(&[
        "replay",
        "--trace",
        trace.to_str().unwrap(),
        "--topology",
        "star:8",
    ])
    .expect("trace replay succeeds");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_output_ignores_the_process_environment() {
    // `SimOptions::default()` reads no process state: these variables
    // name oracle modes, and must change neither the printed report nor
    // the metrics artefact.
    const ORACLE_VARS: [&str; 3] = [
        "KEDDAH_NO_AGGREGATE",
        "KEDDAH_FULL_RECOMPUTE",
        "KEDDAH_SEQ_SOLVE",
    ];
    let dir = tmp_dir("pure-default");
    let fixture = format!(
        "{}/tests/fixtures/terasort.jsonl",
        env!("CARGO_MANIFEST_DIR")
    );
    let replay = |name: &str, oracle_env: bool| -> (Vec<u8>, String) {
        let metrics = dir.join(name);
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_keddah"));
        cmd.args([
            "replay",
            "--trace",
            &fixture,
            "--topology",
            "leaf-spine:3x3x2:1gbps:2.0",
            "--closed-loop",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        for var in ORACLE_VARS {
            if oracle_env {
                cmd.env(var, "1");
            } else {
                cmd.env_remove(var);
            }
        }
        let out = cmd.output().expect("keddah runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let snapshot = std::fs::read_to_string(&metrics).expect("metrics written");
        (out.stdout, snapshot)
    };
    let (plain_out, plain_metrics) = replay("plain.json", false);
    let (env_out, env_metrics) = replay("env.json", true);
    assert!(!plain_out.is_empty());
    assert_eq!(plain_out, env_out, "stdout");
    assert_eq!(plain_metrics, env_metrics, "metrics");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn error_paths_are_reported() {
    assert!(run(&["nope"]).unwrap_err().contains("unknown command"));
    assert!(run(&["capture"]).unwrap_err().contains("--workload"));
    assert!(run(&["capture", "--workload", "sortbench"])
        .unwrap_err()
        .contains("unknown workload"));
    assert!(run(&["fit"]).unwrap_err().contains("no trace files"));
    assert!(run(&["inspect", "/nonexistent/model.json"])
        .unwrap_err()
        .contains("cannot read"));
    assert!(run(&["replay", "--topology", "star:4"])
        .unwrap_err()
        .contains("--model or --trace"));
    assert!(run(&[
        "replay",
        "--model",
        "x",
        "--trace",
        "y",
        "--topology",
        "star:4"
    ])
    .unwrap_err()
    .contains("not both"));
    assert!(run(&["generate", "--model", "/nonexistent.json"])
        .unwrap_err()
        .contains("cannot read"));
    assert!(run(&["capture", "--workload", "grep", "--typo", "1"])
        .unwrap_err()
        .contains("unknown flag"));
}

/// Fitting traces of two workloads is an error the fit reports, naming
/// both, not a panic.
#[test]
fn fit_of_mixed_workloads_fails_naming_both() {
    let dir = tmp_dir("mixed-fit");
    let mut paths = Vec::new();
    for workload in ["grep", "terasort"] {
        let out = dir.join(workload);
        run(&[
            "capture",
            "--workload",
            workload,
            "--input-gb",
            "0.25",
            "--racks",
            "2",
            "--nodes-per-rack",
            "2",
            "--reducers",
            "2",
            "--repeats",
            "1",
            "--seed",
            "3",
            "--out",
            out.to_str().unwrap(),
        ])
        .expect("capture succeeds");
        let entry = std::fs::read_dir(&out)
            .expect("capture dir exists")
            .next()
            .expect("one trace")
            .expect("entry");
        paths.push(entry.path().to_str().unwrap().to_string());
    }
    let model = dir.join("model.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_keddah"))
        .args(["fit", "--out", model.to_str().unwrap()])
        .args(&paths)
        .output()
        .expect("keddah runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("keddah: ") && l.contains("grep") && l.contains("terasort")),
        "{stderr}"
    );
    assert!(!model.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cluster with fewer workers than the replication factor is a
/// one-line configuration error in `capture` and `matrix`, and a
/// skipped candidate in `provision`, never a panic; configuration
/// errors carry their prefix once.
#[test]
fn replication_above_the_worker_count_is_reported_not_panicked_on() {
    let dir = tmp_dir("replication");
    let out = dir.to_str().unwrap();
    assert_eq!(
        run(&[
            "capture",
            "--workload",
            "grep",
            "--replication",
            "30",
            "--out",
            out
        ])
        .unwrap_err(),
        "invalid configuration: replication 30 exceeds worker count 20"
    );
    assert_eq!(
        run(&[
            "capture",
            "--workload",
            "grep",
            "--reducers",
            "0",
            "--out",
            out
        ])
        .unwrap_err(),
        "invalid configuration: reducers must be >= 1"
    );
    assert_eq!(
        run(&[
            "matrix",
            "--workloads",
            "grep",
            "--racks",
            "1",
            "--nodes-per-rack",
            "2"
        ])
        .unwrap_err(),
        "invalid configuration: replication 3 exceeds worker count 2"
    );
    assert_eq!(
        run(&["matrix", "--workloads", "grep", "--reducers", "0"]).unwrap_err(),
        "invalid configuration: reducers must be >= 1"
    );

    let report_path = dir.join("provision.json");
    run(&[
        "provision",
        "--workloads",
        "grep",
        "--input-gb",
        "0.1",
        "--nodes",
        "1x2,2x2",
        "--oversub",
        "1",
        "--reducers",
        "4",
        "--jobs",
        "1",
        "--out",
        report_path.to_str().unwrap(),
    ])
    .expect("provision skips the small shape and ranks the rest");
    let report =
        keddah::core::provision::ProvisionReport::load(&report_path).expect("report parses");
    let reasons: Vec<(u32, Option<&str>)> = report
        .candidates
        .iter()
        .map(|c| (c.racks * c.nodes_per_rack, c.skip_reason.as_deref()))
        .collect();
    // Ranked rows come first, skipped ones after.
    assert_eq!(
        reasons,
        [
            (4, None),
            (
                2,
                Some("invalid configuration: replication 3 exceeds worker count 2")
            )
        ]
    );
    let top = report.top().expect("the valid shape is ranked");
    assert_eq!((top.racks, top.nodes_per_rack), (2, 2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the `keddah` binary and asserts it fails with exit 1 and a
/// `keddah: ` line naming `flag`, without panicking.
fn assert_rejects_naming(args: &[&str], flag: &str) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_keddah"))
        .args(args)
        .output()
        .expect("keddah runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("keddah: ") && l.contains(flag)),
        "{args:?}: {stderr}"
    );
}

/// An input size that is not finite, or rounds to no bytes, is an error
/// naming its flag in every subcommand that takes one.
#[test]
fn input_sizes_below_one_byte_or_not_finite_are_reported() {
    let dir = tmp_dir("input-sizes");
    let out = dir.to_str().unwrap();
    for gb in ["nan", "1e-12", "inf", "0"] {
        assert_rejects_naming(
            &[
                "capture",
                "--workload",
                "grep",
                "--input-gb",
                gb,
                "--out",
                out,
            ],
            "--input-gb",
        );
    }
    assert_rejects_naming(
        &["matrix", "--workloads", "grep", "--sizes-gb", "0"],
        "--sizes-gb",
    );
    assert_rejects_naming(
        &["provision", "--workloads", "grep", "--input-gb", "0"],
        "--input-gb",
    );
    assert!(std::fs::read_dir(&dir).expect("dir").next().is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Jobs cannot be staggered by a negative or non-finite time.
#[test]
fn stagger_must_be_finite_and_non_negative() {
    let dir = tmp_dir("stagger");
    let model = dir.join("model.json");
    std::fs::write(
        &model,
        model_with_size_dist(r#"{"family": "lognormal", "mu": 13.0, "sigma": 0.5}"#),
    )
    .expect("model written");
    let model = model.to_str().unwrap();
    for stagger in ["-5", "nan", "inf"] {
        assert_rejects_naming(
            &[
                "generate",
                "--model",
                model,
                "--jobs",
                "2",
                "--stagger-secs",
                stagger,
            ],
            "--stagger-secs",
        );
        assert_rejects_naming(
            &[
                "replay",
                "--model",
                model,
                "--topology",
                "star:8",
                "--jobs",
                "2",
                "--closed-loop",
                "--stagger-secs",
                stagger,
            ],
            "--stagger-secs",
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-component model file whose shuffle sizes follow `size_dist`.
fn model_with_size_dist(size_dist: &str) -> String {
    format!(
        r#"{{"version": 1, "workload": "terasort", "input_bytes": 1073741824,
  "reducers": 4, "replication": 3, "block_bytes": 134217728, "nodes": 6,
  "runs": 2, "makespan": {{"mean": 60.0, "std": 1.0}},
  "components": {{"shuffle": {{
    "size_dist": {size_dist},
    "size_fit": {{"ks_statistic": 0.05, "ks_p_value": 0.4, "samples": 100}},
    "start_dist": {{"family": "exponential", "rate": 0.1}},
    "start_fit": {{"ks_statistic": 0.05, "ks_p_value": 0.4, "samples": 100}},
    "count": {{"mean": 16.0, "std": 1.0}},
    "pattern": "many_to_few"}}}}}}"#
    )
}

#[test]
fn malformed_model_distributions_are_errors_not_panics() {
    let dir = tmp_dir("malformed-model");
    let cases = [
        (
            "empty-knots.json",
            r#"{"family": "empirical", "knots": [], "n": 0}"#,
            "component shuffle: size_dist: invalid parameter knots = 0",
        ),
        (
            "negative-beta.json",
            r#"{"family": "loglogistic", "alpha": 3.0, "beta": -2.0}"#,
            "component shuffle: size_dist: invalid parameter beta = -2",
        ),
    ];
    for (name, size_dist, want) in cases {
        let path = dir.join(name);
        std::fs::write(&path, model_with_size_dist(size_dist)).expect("model written");
        let path = path.to_str().unwrap();
        for args in [vec!["generate", "--model", path], vec!["inspect", path]] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_keddah"))
                .args(&args)
                .output()
                .expect("keddah runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            assert!(
                stderr
                    .lines()
                    .any(|l| l.starts_with("keddah: ") && l.contains(want)),
                "{args:?}: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faults_gen_show_and_degraded_replay() {
    let dir = tmp_dir("faults");
    let spec = dir.join("crash.json");
    let gen = |out: &str| {
        run(&[
            "faults",
            "gen",
            "--hosts",
            "5",
            "--node-crashes",
            "1",
            "--recover-secs",
            "10",
            "--secs",
            "30",
            "--seed",
            "9",
            "--out",
            out,
        ])
    };
    gen(spec.to_str().unwrap()).expect("faults gen succeeds");
    // Same flags, same seed: byte-identical schedule.
    let again = dir.join("crash2.json");
    gen(again.to_str().unwrap()).expect("faults gen again");
    assert_eq!(
        std::fs::read_to_string(&spec).expect("spec written"),
        std::fs::read_to_string(&again).expect("second spec written")
    );
    run(&["faults", "show", spec.to_str().unwrap()]).expect("faults show succeeds");

    // Capture under the crash, then replay the degraded trace with the
    // same schedule and inspect its embedded counters.
    run(&[
        "capture",
        "--workload",
        "grep",
        "--input-gb",
        "0.25",
        "--racks",
        "1",
        "--nodes-per-rack",
        "4",
        "--reducers",
        "2",
        "--repeats",
        "1",
        "--seed",
        "5",
        "--faults",
        spec.to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
    ])
    .expect("faulted capture succeeds");
    let trace = std::fs::read_dir(&dir)
        .expect("dir")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .expect("trace exists");
    run(&[
        "replay",
        "--trace",
        trace.to_str().unwrap(),
        "--topology",
        "star:8",
        "--faults",
        spec.to_str().unwrap(),
    ])
    .expect("degraded replay succeeds");
    run(&["inspect", trace.to_str().unwrap()]).expect("trace card succeeds");

    // Error paths.
    assert!(run(&["faults"]).unwrap_err().contains("faults gen"));
    assert!(run(&["faults", "gen", "--node-crashes", "1"])
        .unwrap_err()
        .contains("--hosts or --topology"));
    assert!(run(&["faults", "show", "/nonexistent/spec.json"])
        .unwrap_err()
        .contains("cannot read"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// One HTTP/1.1 GET against the serve endpoint; returns (status line, body).
fn http_get(addr: &str, path: &str) -> (String, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to serve endpoint");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("set read timeout");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: keddah\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .expect("response has header break");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// Polls `f` until it yields, panicking after a generous deadline.
fn wait_until<T>(what: &str, mut f: impl FnMut() -> Option<T>) -> T {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        if let Some(v) = f() {
            return v;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "timeout waiting for {what}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// Pulls `"generation":N` out of the `/status` JSON without a parser.
fn status_generation(addr: &str) -> u64 {
    let (_, body) = http_get(addr, "/status");
    let tail = body
        .split("\"generation\":")
        .nth(1)
        .expect("generation key");
    tail.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("generation number")
}

/// Atomically lands `src` in the watch directory under `name` — write
/// outside, rename in — the way a real rotation hand-off does.
fn rotate_in(src: &std::path::Path, watch: &std::path::Path, name: &str) {
    let staging = watch.parent().expect("watch has parent").join(name);
    std::fs::copy(src, &staging).expect("stage rotation");
    std::fs::rename(&staging, watch.join(name)).expect("rename into watch dir");
}

/// The daemon loop end to end: two rotated capture files appended to a
/// watched directory advance the model generation, the served model is
/// byte-identical to `keddah fit` over the concatenated captures (exact
/// sample stores: the degenerate sketch config), and SIGTERM shuts the
/// daemon down cleanly.
///
/// The stop flag is process-global, so this is the one test that drives
/// `serve`; a second would race it.
#[test]
fn serve_daemon_end_to_end() {
    let dir = tmp_dir("serve");
    let traces = dir.join("traces");
    run(&[
        "capture",
        "--workload",
        "terasort",
        "--input-gb",
        "0.5",
        "--racks",
        "2",
        "--nodes-per-rack",
        "3",
        "--reducers",
        "4",
        "--repeats",
        "2",
        "--seed",
        "7",
        "--out",
        traces.to_str().unwrap(),
    ])
    .expect("capture source traces");
    let mut trace_files: Vec<PathBuf> = std::fs::read_dir(&traces)
        .expect("traces dir")
        .map(|e| e.expect("entry").path())
        .collect();
    trace_files.sort();
    assert_eq!(trace_files.len(), 2);

    // Offline reference: fit the concatenated captures in the same order
    // the daemon will ingest them.
    let expected_model = dir.join("expected.json");
    let mut fit_args = vec![
        "fit".to_string(),
        "--out".to_string(),
        expected_model.to_str().unwrap().to_string(),
    ];
    fit_args.extend(trace_files.iter().map(|p| p.to_str().unwrap().to_string()));
    cli::run(&fit_args).expect("offline fit");
    let expected = std::fs::read_to_string(&expected_model).expect("expected model");

    let watch = dir.join("watch");
    std::fs::create_dir_all(&watch).expect("watch dir");
    let addr_file = dir.join("http.addr");
    let metrics_file = dir.join("serve-metrics.json");
    let daemon = {
        let argv: Vec<String> = [
            "serve",
            "--dir",
            watch.to_str().unwrap(),
            "--exact",
            "--poll-ms",
            "10",
            "--http-addr-file",
            addr_file.to_str().unwrap(),
            "--metrics-out",
            metrics_file.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        std::thread::spawn(move || cli::run(&argv).map_err(|e| e.to_string()))
    };

    let addr = wait_until("bound address file", || {
        std::fs::read_to_string(&addr_file)
            .ok()
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
    });

    // Fresh daemon: healthy, but no model yet.
    let (status, body) = http_get(&addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ok\n");
    let (status, _) = http_get(&addr, "/model");
    assert!(
        status.contains("404"),
        "no model before first run: {status}"
    );

    // First rotation: generation reaches 1.
    rotate_in(&trace_files[0], &watch, "cap.0.jsonl");
    wait_until("generation 1", || {
        (status_generation(&addr) >= 1).then_some(())
    });

    // Second rotation: generation advances and the served model equals
    // the offline fit of both captures, byte for byte.
    rotate_in(&trace_files[1], &watch, "cap.1.jsonl");
    wait_until("generation 2", || {
        (status_generation(&addr) >= 2).then_some(())
    });
    let (status, served) = http_get(&addr, "/model");
    assert!(status.contains("200"), "{status}");
    assert_eq!(served, expected, "served model == offline fit");

    // Crash regression: a garbage request line on the endpoint gets a
    // 400 and the daemon keeps serving.
    {
        use std::io::{Read, Write};
        let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
        conn.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .expect("timeout");
        conn.write_all(b"\x00\x01\x02 not http at all\r\n\r\n")
            .expect("write garbage");
        let mut raw = String::new();
        conn.read_to_string(&mut raw).expect("read response");
        assert!(raw.starts_with("HTTP/1.1 400"), "got: {raw}");
    }
    let (status, _) = http_get(&addr, "/healthz");
    assert!(status.contains("200"), "alive after garbage: {status}");

    // Crash regression: a half-written rotation (torn final record) is
    // ingested up to the tear — the run completes, the damage is counted,
    // and the daemon stays up.
    let torn = std::fs::read(&trace_files[0]).expect("read trace");
    let staged = dir.join("cap.2.jsonl");
    std::fs::write(&staged, &torn[..torn.len() - 25]).expect("write torn rotation");
    std::fs::rename(&staged, watch.join("cap.2.jsonl")).expect("rotate torn file in");
    wait_until("generation 3", || {
        (status_generation(&addr) >= 3).then_some(())
    });
    let (status, _) = http_get(&addr, "/healthz");
    assert!(
        status.contains("200"),
        "alive after torn rotation: {status}"
    );

    // Metrics endpoint serves a parseable snapshot with stream counters.
    let (_, metrics_body) = http_get(&addr, "/metrics");
    let snap = keddah::obs::MetricsSnapshot::from_json(&metrics_body).expect("metrics parse");
    assert_eq!(snap.counter("stream", "runs_ingested"), 3);
    assert_eq!(snap.counter("stream", "parse_errors"), 1, "the torn record");
    assert_eq!(snap.counter("stream", "http_malformed"), 1);
    assert!(snap.counter("stream", "flows_completed") > 0);

    // SIGTERM: clean shutdown, thread joins Ok, final metrics written.
    extern "C" {
        fn raise(signum: i32) -> i32;
    }
    unsafe {
        raise(15);
    }
    daemon
        .join()
        .expect("daemon thread joins")
        .expect("daemon exits cleanly on SIGTERM");
    let final_snap = keddah::obs::MetricsSnapshot::from_json(
        &std::fs::read_to_string(&metrics_file).expect("metrics written on shutdown"),
    )
    .expect("final metrics parse");
    assert_eq!(final_snap.counter("stream", "runs_ingested"), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A rotation the daemon cannot ingest is reported under its path,
/// named once, on stderr and in `/status`'s `last_error`. The daemon runs
/// as a child process, so its stop flag is its own.
#[test]
fn serve_names_a_failed_rotation_once() {
    use std::process::{Command, Stdio};

    let dir = tmp_dir("serve-bad");
    let watch = dir.join("watch");
    std::fs::create_dir_all(&watch).expect("watch dir");
    let addr_file = dir.join("http.addr");
    let mut child = Command::new(env!("CARGO_BIN_EXE_keddah"))
        .args(["serve", "--poll-ms", "10", "--dir"])
        .arg(&watch)
        .arg("--http-addr-file")
        .arg(&addr_file)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn keddah serve");
    let addr = wait_until("bound address file", || {
        std::fs::read_to_string(&addr_file)
            .ok()
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
    });

    let staged = dir.join("bad.jsonl");
    std::fs::write(&staged, "not a header\n").expect("write bad rotation");
    let bad = watch.join("bad.jsonl");
    std::fs::rename(&staged, &bad).expect("rotate bad file in");
    let last_error = wait_until("last_error", || {
        let (_, body) = http_get(&addr, "/status");
        (!body.contains("\"last_error\":null")).then_some(body)
    });
    child.kill().expect("stop serve");
    let out = child.wait_with_output().expect("serve exits");
    let stderr = String::from_utf8_lossy(&out.stderr);

    let path = bad.display().to_string();
    assert_eq!(last_error.matches(&path).count(), 1, "{last_error}");
    assert_eq!(stderr.matches(&path).count(), 1, "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_stdin_one_shot() {
    // --stdin and --dir are mutually arranged: missing both is an error,
    // and bad flags are caught before any I/O.
    assert!(run(&["serve"]).unwrap_err().contains("--dir"));
    assert!(run(&["serve", "--typo", "1"])
        .unwrap_err()
        .contains("unknown flag"));
    assert!(run(&["serve", "--dir", "/tmp", "--epsilon", "0.9"])
        .unwrap_err()
        .contains("eps"));
}

#[test]
fn serve_stdin_fits_what_a_packet_text_rotation_fits() {
    use std::io::Write;
    use std::process::{Command, Stdio};

    use keddah::core::stream::{ingest_path, StreamEngine, StreamOptions};
    use keddah::core::SketchMode;
    use keddah::obs::Obs;

    let dir = tmp_dir("serve-stdin");
    let packets = dir.join("packets");
    run(&[
        "capture",
        "--workload",
        "grep",
        "--input-gb",
        "1",
        "--racks",
        "2",
        "--nodes-per-rack",
        "3",
        "--reducers",
        "3",
        "--repeats",
        "1",
        "--seed",
        "5",
        "--out",
        dir.join("traces").to_str().unwrap(),
        "--packets-out",
        packets.to_str().unwrap(),
    ])
    .expect("capture with packet text");
    let text_file = packets.join("grep_1gb_r3_seed5.txt");
    let text = std::fs::read(&text_file).expect("packet text written");

    let mut child = Command::new(env!("CARGO_BIN_EXE_keddah"))
        .args(["serve", "--stdin", "--exact", "--workload", "grep"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn keddah serve --stdin");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(&text)
        .expect("feed packet text");
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "serve --stdin failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let printed = String::from_utf8(out.stdout).expect("utf-8 model");

    // The same text as a `.txt` rotation through the daemon's ingest.
    let obs = Obs::enabled();
    let opts = StreamOptions {
        sketch: SketchMode::Exact,
        ..StreamOptions::default()
    };
    let mut engine = StreamEngine::new(opts, &obs).expect("engine");
    ingest_path(&mut engine, &obs, "grep", &text_file).expect("ingest rotation");
    let rotated = engine.model_json().expect("rotation fits a model");
    assert_eq!(printed, rotated + "\n");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_everywhere() {
    for cmd in [
        "capture",
        "fit",
        "inspect",
        "generate",
        "replay",
        "validate",
        "faults",
        "stats",
        "matrix",
        "serve",
        "mix",
        "family",
        "dag",
        "provision",
    ] {
        run(&[cmd, "--help"]).expect("help succeeds");
    }
    run(&["help"]).expect("top-level help");
}

#[test]
fn replay_writes_obs_artifacts() {
    let dir = tmp_dir("obs-replay");
    let fixture = format!(
        "{}/tests/fixtures/terasort_nodefail.jsonl",
        env!("CARGO_MANIFEST_DIR")
    );
    let spec = dir.join("crash.json");
    let crash = keddah::faults::FaultSpec {
        faults: vec![keddah::faults::TimedFault {
            at_nanos: 2_000_000_000,
            kind: keddah::faults::FaultKind::NodeCrash { node: 2 },
        }],
    };
    std::fs::write(&spec, crash.to_json()).expect("write spec");
    let events = dir.join("events.jsonl");
    let metrics = dir.join("metrics.json");
    run(&[
        "replay",
        "--trace",
        &fixture,
        "--topology",
        "leaf-spine:3x3x2:1gbps:2",
        "--faults",
        spec.to_str().unwrap(),
        "--trace-out",
        events.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ])
    .expect("observed faulted replay succeeds");

    // The trace artefact is parseable JSONL and records fault firings.
    let raw = std::fs::read_to_string(&events).expect("trace written");
    let parsed = keddah::obs::read_jsonl(&raw).expect("trace parses");
    assert!(!parsed.is_empty());
    assert!(
        parsed.iter().any(|e| e.kind == "fault_fire"),
        "fault traced"
    );
    assert!(
        parsed.iter().any(|e| e.kind == "dispatch"),
        "dispatch traced"
    );

    // The metrics artefact parses, carries netsim/faults counters, and
    // surfaces the capture's embedded hadoop job counters.
    let snap = keddah::obs::MetricsSnapshot::from_json(
        &std::fs::read_to_string(&metrics).expect("metrics written"),
    )
    .expect("metrics parse");
    assert!(snap.counter("netsim", "flows_started") > 0);
    assert_eq!(snap.counter("faults", "faults_applied"), 1);
    assert_eq!(snap.counter("hadoop", "node_crashes"), 1);
    assert_eq!(snap.counter("hadoop", "rereplicated_blocks"), 4);

    // `keddah stats` renders both artefact kinds without error.
    run(&["stats", metrics.to_str().unwrap()]).expect("stats renders");
    run(&[
        "stats",
        metrics.to_str().unwrap(),
        metrics.to_str().unwrap(),
    ])
    .expect("stats merges multiple files");
    assert!(run(&["stats"]).unwrap_err().contains("metrics file"));
    assert!(run(&["stats", "/nonexistent.json"])
        .unwrap_err()
        .contains("cannot read"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn capture_ingests_corrupt_packet_text_without_dying() {
    let dir = tmp_dir("obs-ingest");
    let packets = dir.join("mixed.txt");
    std::fs::write(
        &packets,
        "1.000000 IP node0.40000 > node1.50010: Flags [S], length 128\n\
         this line is kernel noise, not a packet\n\
         1.000500 IP node1.50010 > node0.40000: Flags [.], length 65536\n\
         1.000900 IP node0.40000 > nod",
    )
    .expect("write packets");
    let metrics = dir.join("metrics.json");
    run(&[
        "capture",
        "--packets-in",
        packets.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ])
    .expect("corrupt input ingests cleanly");
    let snap = keddah::obs::MetricsSnapshot::from_json(
        &std::fs::read_to_string(&metrics).expect("metrics written"),
    )
    .expect("metrics parse");
    assert_eq!(snap.counter("flowcap", "parse_errors"), 2);
    assert_eq!(snap.counter("flowcap", "packets_parsed"), 2);
    assert_eq!(snap.counter("flowcap", "flows_assembled"), 1);

    // Mode conflicts and missing files are real errors.
    assert!(run(&[
        "capture",
        "--packets-in",
        packets.to_str().unwrap(),
        "--workload",
        "grep"
    ])
    .unwrap_err()
    .contains("drop --workload"));
    assert!(run(&["capture", "--packets-in", "/nonexistent.txt"])
        .unwrap_err()
        .contains("cannot open"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn capture_sorts_packet_text_listed_out_of_time_order() {
    // One connection listed FIN first, as concatenating per-node captures
    // can leave it.
    let dir = tmp_dir("reordered");
    let packets = dir.join("reordered.txt");
    std::fs::write(
        &packets,
        "1.000900 IP node0.40000 > node1.50010: Flags [F], length 0\n\
         1.000000 IP node0.40000 > node1.50010: Flags [S], length 128\n\
         1.000500 IP node1.50010 > node0.40000: Flags [.], length 65536\n",
    )
    .expect("write packets");
    let metrics = dir.join("metrics.json");
    run(&[
        "capture",
        "--packets-in",
        packets.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ])
    .expect("out-of-order input ingests");
    let snap = keddah::obs::MetricsSnapshot::from_json(
        &std::fs::read_to_string(&metrics).expect("metrics written"),
    )
    .expect("metrics parse");
    assert_eq!(snap.counter("flowcap", "packets_parsed"), 3);
    assert_eq!(snap.counter("flowcap", "packets_reordered"), 2);
    assert_eq!(snap.counter("flowcap", "flows_assembled"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn capture_and_matrix_write_metrics() {
    let dir = tmp_dir("obs-capture");
    let metrics = dir.join("capture-metrics.json");
    run(&[
        "capture",
        "--workload",
        "grep",
        "--input-gb",
        "0.1",
        "--racks",
        "1",
        "--nodes-per-rack",
        "3",
        "--reducers",
        "2",
        "--repeats",
        "2",
        "--out",
        dir.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ])
    .expect("observed capture succeeds");
    let snap = keddah::obs::MetricsSnapshot::from_json(
        &std::fs::read_to_string(&metrics).expect("metrics written"),
    )
    .expect("metrics parse");
    assert_eq!(snap.counter("capture", "runs"), 2);
    assert!(snap.counter("hadoop", "maps") > 0);

    let m1 = dir.join("matrix-1.json");
    let m8 = dir.join("matrix-8.json");
    for (jobs, out) in [("1", &m1), ("8", &m8)] {
        run(&[
            "matrix",
            "--workloads",
            "grep",
            "--sizes-gb",
            "0.1",
            "--reducers",
            "2",
            "--repeats",
            "1",
            "--racks",
            "1",
            "--nodes-per-rack",
            "3",
            "--jobs",
            jobs,
            "--metrics-out",
            out.to_str().unwrap(),
        ])
        .expect("observed matrix succeeds");
    }
    // Same cells, different worker counts: byte-identical artefacts.
    assert_eq!(
        std::fs::read_to_string(&m1).expect("jobs=1 metrics"),
        std::fs::read_to_string(&m8).expect("jobs=8 metrics")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn family_fit_and_extrapolate() {
    let dir = tmp_dir("family");
    // Two anchor models at different sizes.
    for (gb, seed) in [("0.5", "11"), ("1", "22")] {
        run(&[
            "capture",
            "--workload",
            "terasort",
            "--input-gb",
            gb,
            "--racks",
            "2",
            "--nodes-per-rack",
            "3",
            "--reducers",
            "4",
            "--repeats",
            "2",
            "--seed",
            seed,
            "--out",
            dir.join(format!("t{gb}")).to_str().unwrap(),
        ])
        .expect("capture anchors");
        let traces: Vec<String> = std::fs::read_dir(dir.join(format!("t{gb}")))
            .expect("dir")
            .map(|e| e.expect("entry").path().to_str().unwrap().to_string())
            .collect();
        let mut fit_args = vec![
            "fit".to_string(),
            "--out".to_string(),
            dir.join(format!("model{gb}.json"))
                .to_str()
                .unwrap()
                .to_string(),
        ];
        fit_args.extend(traces);
        keddah::cli::run(&fit_args).expect("fit anchor");
    }
    let family = dir.join("family.json");
    run(&[
        "family",
        "--out",
        family.to_str().unwrap(),
        dir.join("model0.5.json").to_str().unwrap(),
        dir.join("model1.json").to_str().unwrap(),
    ])
    .expect("family fit");
    let extrapolated = dir.join("model4.json");
    run(&[
        "family",
        "--from",
        family.to_str().unwrap(),
        "--input-gb",
        "4",
        "--out",
        extrapolated.to_str().unwrap(),
    ])
    .expect("extrapolate");
    let model = keddah::core::KeddahModel::from_json(
        &std::fs::read_to_string(&extrapolated).expect("written"),
    )
    .expect("parses");
    assert_eq!(model.input_bytes, 4 << 30);
    // Errors: too few anchors, missing input-gb.
    assert!(run(&["family", dir.join("model1.json").to_str().unwrap()])
        .unwrap_err()
        .contains("two anchor"));
    assert!(run(&["family", "--from", family.to_str().unwrap()])
        .unwrap_err()
        .contains("--input-gb"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mix_generates_and_replays() {
    let dir = tmp_dir("mix");
    run(&[
        "capture",
        "--workload",
        "grep",
        "--input-gb",
        "0.5",
        "--racks",
        "2",
        "--nodes-per-rack",
        "3",
        "--reducers",
        "2",
        "--repeats",
        "2",
        "--seed",
        "9",
        "--out",
        dir.to_str().unwrap(),
    ])
    .expect("capture");
    let traces: Vec<String> = std::fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| {
            let p = e.expect("entry").path();
            (p.extension()? == "jsonl").then(|| p.to_str().unwrap().to_string())
        })
        .collect();
    let model = dir.join("model.json");
    let mut fit_args = vec![
        "fit".to_string(),
        "--out".to_string(),
        model.to_str().unwrap().to_string(),
    ];
    fit_args.extend(traces);
    keddah::cli::run(&fit_args).expect("fit");

    let jobs_out = dir.join("mixjobs.json");
    run(&[
        "mix",
        "--horizon-secs",
        "300",
        "--rate-per-min",
        "4",
        "--seed",
        "2",
        "--out",
        jobs_out.to_str().unwrap(),
        "--topology",
        "star:8",
        &format!("{}:2.5", model.to_str().unwrap()),
    ])
    .expect("mix generates and replays");
    let jobs: Vec<keddah::core::GeneratedJob> =
        serde_json::from_str(&std::fs::read_to_string(&jobs_out).expect("jobs written"))
            .expect("jobs parse");
    assert!(!jobs.is_empty());

    // Error paths.
    assert!(run(&["mix"]).unwrap_err().contains("no model files"));
    assert!(
        run(&["mix", "--horizon-secs", "0", model.to_str().unwrap()])
            .unwrap_err()
            .contains("positive")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diagnose_blames_a_node_crash_from_capture_traces() {
    let dir = tmp_dir("diagnose");
    let spec = dir.join("crash.json");
    run(&[
        "faults",
        "gen",
        "--hosts",
        "7",
        "--node-crashes",
        "1",
        // The capture job runs ~12 s; a 10 s horizon keeps the crash
        // inside it.
        "--secs",
        "10",
        "--seed",
        "3",
        "--out",
        spec.to_str().unwrap(),
    ])
    .expect("faults gen succeeds");

    // Paired captures: same seed, with and without the crash schedule.
    let capture = |out: &std::path::Path, faults: Option<&std::path::Path>| {
        let mut argv = vec![
            "capture".to_string(),
            "--workload".to_string(),
            "terasort".to_string(),
            "--input-gb".to_string(),
            "0.25".to_string(),
            "--racks".to_string(),
            "2".to_string(),
            "--nodes-per-rack".to_string(),
            "3".to_string(),
            "--reducers".to_string(),
            "4".to_string(),
            "--repeats".to_string(),
            "1".to_string(),
            "--seed".to_string(),
            "11".to_string(),
            "--out".to_string(),
            out.to_str().unwrap().to_string(),
        ];
        if let Some(spec) = faults {
            argv.push("--faults".to_string());
            argv.push(spec.to_str().unwrap().to_string());
        }
        keddah::cli::run(&argv).expect("capture succeeds");
        std::fs::read_dir(out)
            .expect("capture dir")
            .map(|e| e.expect("entry").path())
            .find(|p| p.extension().is_some_and(|e| e == "jsonl"))
            .expect("trace written")
    };
    let baseline = capture(&dir.join("baseline"), None);
    let degraded = capture(&dir.join("degraded"), Some(&spec));

    let out = dir.join("diagnosis.json");
    let metrics = dir.join("metrics.json");
    run(&[
        "diagnose",
        "--trace",
        degraded.to_str().unwrap(),
        "--baseline-trace",
        baseline.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ])
    .expect("diagnose succeeds");

    let diagnosis = keddah::diagnose::Diagnosis::from_json(
        &std::fs::read_to_string(&out).expect("diagnosis written"),
        "diagnosis.json",
    )
    .expect("diagnosis parses");
    assert_eq!(
        diagnosis.top().class,
        keddah::faults::FaultClass::NodeCrash,
        "{}",
        diagnosis.render()
    );
    assert_eq!(diagnosis.workload, "terasort");
    // The run's own metrics recorded a clean classification.
    let snap = keddah::obs::MetricsSnapshot::from_json(
        &std::fs::read_to_string(&metrics).expect("metrics written"),
    )
    .expect("metrics parse");
    assert_eq!(snap.counter("diagnose", "cases_classified"), 1);
    assert_eq!(snap.counter("diagnose", "parse_errors"), 0);

    // Error paths.
    assert!(run(&["diagnose"])
        .unwrap_err()
        .contains("nothing to diagnose"));
    assert!(run(&["diagnose", "eval"]).unwrap_err().contains("--corpus"));
    assert!(run(&["diagnose", "--trace", "/nonexistent/t.jsonl"])
        .unwrap_err()
        .contains("cannot open"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_diff_prints_counter_deltas() {
    let dir = tmp_dir("stats-diff");
    let write = |name: &str, aborted: u64| {
        let obs = keddah::obs::Obs::enabled();
        obs.add("netsim", "flows_aborted", aborted);
        let path = dir.join(name);
        std::fs::write(&path, obs.metrics().to_json()).expect("snapshot written");
        path
    };
    let baseline = write("baseline.json", 0);
    let degraded = write("degraded.json", 6);
    run(&[
        "stats",
        "--diff",
        baseline.to_str().unwrap(),
        degraded.to_str().unwrap(),
    ])
    .expect("stats --diff succeeds");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `keddah provision` end to end: the search runs, writes its report,
/// and the report passes its own `--check` gate — the same invariant CI
/// enforces against the committed `EVAL_provision.json`.
#[test]
fn provision_searches_and_gates_against_its_own_report() {
    let dir = tmp_dir("provision");
    let report_path = dir.join("provision.json");
    run(&[
        "provision",
        "--workloads",
        "terasort:3,grep:1",
        "--input-gb",
        "0.25",
        "--nodes",
        "1x4,2x2,2x4",
        "--oversub",
        "1,4",
        "--reducers",
        "4,8",
        "--slo-p99",
        "120",
        "--jobs",
        "2",
        "--out",
        report_path.to_str().unwrap(),
    ])
    .expect("provision search");
    let report: keddah::core::provision::ProvisionReport =
        keddah::core::provision::ProvisionReport::load(&report_path).expect("report parses");
    assert!(
        report.cells_simulated < report.grid_cells,
        "budget must bite"
    );
    assert!(report.top().is_some(), "a ranked winner");

    run(&[
        "provision",
        "--workloads",
        "terasort:3,grep:1",
        "--input-gb",
        "0.25",
        "--nodes",
        "1x4,2x2,2x4",
        "--oversub",
        "1,4",
        "--reducers",
        "4,8",
        "--slo-p99",
        "120",
        "--jobs",
        "1",
        "--check",
        report_path.to_str().unwrap(),
    ])
    .expect("gate passes against its own committed report");

    // Flag hygiene: bad inputs are reported, not panicked on.
    assert!(run(&["provision", "--typo", "1"])
        .unwrap_err()
        .contains("unknown flag"));
    assert!(run(&["provision", "--workloads", "nosuch"])
        .unwrap_err()
        .contains("unknown workload"));
    assert!(run(&["provision", "--nodes", "banana"])
        .unwrap_err()
        .contains("RxN"));
    let _ = std::fs::remove_dir_all(&dir);
}
