//! Panic-free ingestion of one rotated capture file.
//!
//! The daemon loop hands every ready rotation to [`ingest_path`], which
//! turns the two hostile failure modes of live capture directories into
//! structured errors plus `stream/` counters instead of panics or lost
//! prefixes:
//!
//! * **Rotated-away files** — the file vanished between the tailer's
//!   readiness check and the open (cleanup raced us): counted under
//!   `stream/vanished_files`, reported, engine state untouched;
//! * **Half-written rotations** — a `.jsonl` rotation whose tail is a
//!   truncated record: the intact prefix is ingested, damaged lines are
//!   counted under `stream/parse_errors`, and the run still completes.
//!
//! Unreadable streams and malformed headers (nothing salvageable) count
//! under `stream/io_errors` / `stream/malformed_runs` respectively.

use std::io::ErrorKind;
use std::path::Path;

use keddah_flowcap::{tcpdump, Trace, TraceError, TraceMeta};
use keddah_obs::Obs;

use super::StreamEngine;
use crate::{CoreError, Result};

/// What one rotated file contributed to the stream.
#[derive(Debug, Clone, Default)]
pub struct IngestReport {
    /// True when this run triggered a refit that produced a model.
    pub refit: bool,
    /// Malformed lines that were skipped: `(1-based line, message)`.
    pub parse_errors: Vec<(usize, String)>,
}

/// Ingests one rotated capture file (`.jsonl` flow trace or `.txt`
/// packet text) as one run, ending the run at EOF. Packet text is put
/// into time order first, as `keddah capture --packets-in` does; late
/// packets count under `stream/packets_reordered`.
///
/// `workload` labels packet-text runs, which carry no header. All
/// failure modes return [`CoreError::Stream`] after bumping the matching
/// `stream/` counter — the caller (the serve loop) logs and keeps going;
/// nothing on this path panics.
///
/// # Errors
///
/// [`CoreError::Stream`] when the file vanished, cannot be read, has an
/// unusable header, carries an unsupported extension, or its run is
/// rejected by the engine (workload mismatch). Refit failures propagate
/// from [`StreamEngine::end_run`].
pub fn ingest_path(
    engine: &mut StreamEngine,
    obs: &Obs,
    workload: &str,
    path: &Path,
) -> Result<IngestReport> {
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let file = match std::fs::File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == ErrorKind::NotFound => {
            obs.add("stream", "vanished_files", 1);
            return Err(CoreError::Stream(format!(
                "{}: rotated away before ingest",
                path.display()
            )));
        }
        Err(e) => {
            obs.add("stream", "io_errors", 1);
            return Err(CoreError::Stream(format!(
                "{}: open failed: {e}",
                path.display()
            )));
        }
    };
    let reader = std::io::BufReader::new(file);
    match ext {
        "jsonl" => {
            let (trace, rejects) = match Trace::read_jsonl_lenient(reader) {
                Ok(parsed) => parsed,
                Err(e) => {
                    // Without a header nothing can be attributed; an I/O
                    // failure mid-read may have lost arbitrary records.
                    let counter = match &e {
                        TraceError::Io(_) => "io_errors",
                        _ => "malformed_runs",
                    };
                    obs.add("stream", counter, 1);
                    return Err(CoreError::Stream(format!("{}: {e}", path.display())));
                }
            };
            obs.add("stream", "parse_errors", rejects.len() as u64);
            let meta = trace.meta().clone();
            for flow in trace.into_flows() {
                engine.ingest_flow(flow);
            }
            let refit = engine.end_run(&meta)?;
            Ok(IngestReport {
                refit,
                parse_errors: rejects,
            })
        }
        "txt" => {
            let mut parsed = match tcpdump::read_text_lenient(reader) {
                Ok(parsed) => parsed,
                Err(e) => {
                    obs.add("stream", "io_errors", 1);
                    return Err(CoreError::Stream(format!("{}: {e}", path.display())));
                }
            };
            obs.add("stream", "parse_errors", parsed.errors.len() as u64);
            let reordered = tcpdump::sort_by_time(&mut parsed.packets);
            obs.add("stream", "packets_reordered", reordered);
            for packet in parsed.packets {
                engine.ingest_packet(packet);
            }
            let refit = engine.end_run(&TraceMeta {
                workload: workload.to_string(),
                ..TraceMeta::default()
            })?;
            Ok(IngestReport {
                refit,
                parse_errors: parsed.errors,
            })
        }
        other => Err(CoreError::Stream(format!(
            "{}: unsupported capture extension `{other}`",
            path.display()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamOptions;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("keddah-ingest-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn engine(obs: &Obs) -> StreamEngine {
        StreamEngine::new(StreamOptions::default(), obs).unwrap()
    }

    /// Failure mode 1: the rotation was cleaned up between the tailer's
    /// readiness decision and the open. Structured error, counter, no
    /// engine damage.
    #[test]
    fn rotated_away_file_is_counted_not_fatal() {
        let obs = Obs::enabled();
        let mut engine = engine(&obs);
        let err = ingest_path(
            &mut engine,
            &obs,
            "stream",
            Path::new("/nonexistent/keddah/cap.0.jsonl"),
        )
        .unwrap_err();
        assert!(err.to_string().contains("rotated away"), "{err}");
        assert_eq!(obs.metrics().counter("stream", "vanished_files"), 1);
        assert_eq!(engine.runs(), 0, "engine state untouched");
    }

    /// A two-flow rotation JSONL, as the capture pipeline would write it.
    fn sample_jsonl() -> Vec<u8> {
        use keddah_des::SimTime;
        use keddah_flowcap::{ports, FiveTuple, FlowRecord, NodeId};
        let flows = (0..2u64)
            .map(|i| FlowRecord {
                tuple: FiveTuple {
                    src: NodeId(1),
                    src_port: 40_000 + i as u16,
                    dst: NodeId(2),
                    dst_port: ports::SHUFFLE,
                },
                start: SimTime::from_millis(10 * i),
                end: SimTime::from_millis(10 * i + 5),
                fwd_bytes: 100,
                rev_bytes: 20_000,
                packets: 2,
                component: None,
            })
            .collect();
        let trace = Trace::new(
            TraceMeta {
                workload: "terasort".into(),
                input_bytes: 1 << 30,
                reducers: 4,
                replication: 3,
                block_bytes: 128 << 20,
                nodes: 8,
                seed: 7,
                counters: None,
            },
            flows,
        );
        let mut buf = Vec::new();
        trace.write_jsonl(&mut buf).unwrap();
        buf
    }

    /// Failure mode 2: a half-written rotation. The intact prefix is
    /// ingested as a run; the damage is counted, not fatal.
    #[test]
    fn half_written_rotation_ingests_the_good_prefix() {
        let dir = tmp_dir("half");
        let path = dir.join("cap.0.jsonl");
        let buf = sample_jsonl();
        // Chop the writer mid-record: the last line becomes torn JSON.
        std::fs::write(&path, &buf[..buf.len() - 25]).unwrap();
        let obs = Obs::enabled();
        let mut engine = engine(&obs);
        let report = ingest_path(&mut engine, &obs, "stream", &path).unwrap();
        assert_eq!(report.parse_errors.len(), 1, "the torn tail is reported");
        assert_eq!(engine.runs(), 1, "the run still completed");
        assert_eq!(engine.flows_total(), 1, "the intact flow survived");
        assert_eq!(obs.metrics().counter("stream", "parse_errors"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A rotation whose *header* is garbage has nothing to salvage.
    #[test]
    fn garbage_header_is_a_malformed_run() {
        let dir = tmp_dir("garbage-header");
        let path = dir.join("cap.0.jsonl");
        std::fs::write(&path, "not a header\n").unwrap();
        let obs = Obs::enabled();
        let mut engine = engine(&obs);
        assert!(ingest_path(&mut engine, &obs, "stream", &path).is_err());
        assert_eq!(obs.metrics().counter("stream", "malformed_runs"), 1);
        assert_eq!(engine.runs(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsupported_extension_is_rejected_cleanly() {
        let dir = tmp_dir("ext");
        let path = dir.join("cap.0.pcap");
        std::fs::write(&path, "binary\n").unwrap();
        let obs = Obs::enabled();
        let mut engine = engine(&obs);
        let err = ingest_path(&mut engine, &obs, "stream", &path).unwrap_err();
        assert!(err.to_string().contains("unsupported"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Packet text listed out of time order, here a connection's FIN
    /// first, assembles as the sorted text would: one flow, not two.
    #[test]
    fn packet_text_is_put_in_time_order_before_assembly() {
        let dir = tmp_dir("reordered");
        let path = dir.join("cap.0.txt");
        std::fs::write(
            &path,
            "1.000900 IP node0.40000 > node1.50010: Flags [F], length 0\n\
             1.000000 IP node0.40000 > node1.50010: Flags [S], length 128\n\
             1.000500 IP node1.50010 > node0.40000: Flags [.], length 65536\n",
        )
        .unwrap();
        let obs = Obs::enabled();
        let mut engine = engine(&obs);
        ingest_path(&mut engine, &obs, "grep", &path).unwrap();
        assert_eq!(engine.flows_total(), 1);
        let snap = obs.metrics();
        assert_eq!(snap.counter("stream", "packets_reordered"), 2);
        assert_eq!(snap.counter("stream", "flows_completed"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn packet_text_runs_are_labelled_with_the_workload() {
        let dir = tmp_dir("txt");
        let path = dir.join("cap.0.txt");
        let mut body = String::from("garbage line that is not a packet\n");
        for i in 0..24 {
            body.push_str(&format!(
                "{i}.000000 IP node1.{} > node2.13562: Flags [.], length 5000\n",
                40_000 + i,
            ));
        }
        std::fs::write(&path, body).unwrap();
        let obs = Obs::enabled();
        let mut engine = engine(&obs);
        let report = ingest_path(&mut engine, &obs, "wordcount", &path).unwrap();
        assert_eq!(report.parse_errors.len(), 1);
        assert_eq!(engine.meta().unwrap().workload, "wordcount");
        assert_eq!(engine.flows_total(), 24);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
