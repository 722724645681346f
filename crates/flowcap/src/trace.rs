//! Labelled flow traces with JSONL persistence.

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

use serde::{Deserialize, Serialize};

use crate::classify::{self, Component};
use crate::flow::FlowRecord;
use crate::stats::{component_stats, ComponentStats, Timeline};
use keddah_des::{Duration, SimTime};

/// Metadata describing how a trace was captured: the covariates Keddah's
/// models condition on.
#[derive(Debug, Clone, PartialEq, Default, Deserialize)]
pub struct TraceMeta {
    /// Workload name (e.g. `"terasort"`).
    pub workload: String,
    /// Job input size in bytes.
    pub input_bytes: u64,
    /// Number of reduce tasks configured.
    pub reducers: u32,
    /// HDFS replication factor.
    pub replication: u16,
    /// HDFS block size in bytes.
    pub block_bytes: u64,
    /// Number of worker nodes in the capturing cluster.
    pub nodes: u32,
    /// Seed the capture run used (for reproducibility bookkeeping).
    pub seed: u64,
    /// Simulator ground-truth counters for the run (name → value), when
    /// the capturing driver recorded them — faulted captures carry their
    /// failure/re-replication counters here. Absent in older traces and
    /// fault-free captures; the field serializes only when present, so
    /// clean traces keep their historical byte layout.
    pub counters: Option<std::collections::BTreeMap<String, u64>>,
}

// Manual impl rather than derive: `counters` must vanish from the JSON
// when `None` (the vendored serde derive has no `skip_serializing_if`),
// keeping fault-free captures byte-identical to pre-fault-subsystem
// traces.
impl Serialize for TraceMeta {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("workload".to_string(), self.workload.to_value()),
            ("input_bytes".to_string(), self.input_bytes.to_value()),
            ("reducers".to_string(), self.reducers.to_value()),
            ("replication".to_string(), self.replication.to_value()),
            ("block_bytes".to_string(), self.block_bytes.to_value()),
            ("nodes".to_string(), self.nodes.to_value()),
            ("seed".to_string(), self.seed.to_value()),
        ];
        if let Some(counters) = &self.counters {
            entries.push(("counters".to_string(), counters.to_value()));
        }
        serde::Value::Object(entries)
    }
}

/// A capture artefact: labelled flows plus capture metadata.
///
/// Persisted as JSONL — the first line is the [`TraceMeta`], each further
/// line one [`FlowRecord`] — so traces stream, diff, and `grep` well.
///
/// # Examples
///
/// ```
/// use keddah_flowcap::{Trace, TraceMeta};
///
/// let trace = Trace::new(TraceMeta { workload: "wordcount".into(), ..Default::default() }, vec![]);
/// let mut buf = Vec::new();
/// trace.write_jsonl(&mut buf).unwrap();
/// let back = Trace::read_jsonl(&buf[..]).unwrap();
/// assert_eq!(back.meta().workload, "wordcount");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    meta: TraceMeta,
    flows: Vec<FlowRecord>,
}

/// Errors from trace I/O.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The parser's message.
        message: String,
    },
    /// The stream had no metadata header line.
    MissingHeader,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
            TraceError::MissingHeader => write!(f, "trace has no metadata header line"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl Trace {
    /// Creates a trace from metadata and flows.
    #[must_use]
    pub fn new(meta: TraceMeta, flows: Vec<FlowRecord>) -> Self {
        Trace { meta, flows }
    }

    /// The capture metadata.
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The flows, in start-time order as produced by the assembler.
    #[must_use]
    pub fn flows(&self) -> &[FlowRecord] {
        &self.flows
    }

    /// Consumes the trace, returning its flows.
    #[must_use]
    pub fn into_flows(self) -> Vec<FlowRecord> {
        self.flows
    }

    /// Number of flows in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True if the trace has no flows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Runs the port classifier over every flow, labelling in place.
    pub fn classify(&mut self) {
        classify::classify_all(&mut self.flows);
    }

    /// Flows belonging to `component` (unlabelled flows match `Other`).
    pub fn component_flows(&self, component: Component) -> impl Iterator<Item = &FlowRecord> {
        self.flows
            .iter()
            .filter(move |f| f.component.unwrap_or(Component::Other) == component)
    }

    /// Flow sizes (total bytes, as f64) for one component — the sample the
    /// model-fitting step consumes.
    #[must_use]
    pub fn component_sizes(&self, component: Component) -> Vec<f64> {
        self.component_flows(component)
            .map(|f| f.total_bytes() as f64)
            .collect()
    }

    /// Flow start times (seconds from trace start) for one component.
    #[must_use]
    pub fn component_starts(&self, component: Component) -> Vec<f64> {
        let t0 = self
            .flows
            .iter()
            .map(|f| f.start)
            .min()
            .unwrap_or(SimTime::ZERO);
        self.component_flows(component)
            .map(|f| f.start.saturating_since(t0).as_secs_f64())
            .collect()
    }

    /// Per-component aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> Vec<ComponentStats> {
        component_stats(&self.flows)
    }

    /// Binned traffic timeline.
    #[must_use]
    pub fn timeline(&self, bin_width: Duration) -> Timeline {
        Timeline::build(&self.flows, bin_width)
    }

    /// Total bytes across all flows.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.flows.iter().map(|f| f.total_bytes()).sum()
    }

    /// Job makespan: the span from first flow start to last flow end.
    #[must_use]
    pub fn makespan(&self) -> Duration {
        let start = self.flows.iter().map(|f| f.start).min();
        let end = self.flows.iter().map(|f| f.end).max();
        match (start, end) {
            (Some(s), Some(e)) => e.saturating_since(s),
            _ => Duration::ZERO,
        }
    }

    /// Writes the trace as JSONL: one metadata header line, then one line
    /// per flow.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_jsonl<W: Write>(&self, mut writer: W) -> Result<(), TraceError> {
        let meta = serde_json::to_string(&self.meta).expect("meta serializes");
        writeln!(writer, "{meta}")?;
        for flow in &self.flows {
            let line = serde_json::to_string(flow).expect("flow serializes");
            writeln!(writer, "{line}")?;
        }
        Ok(())
    }

    /// Reads a trace written by [`write_jsonl`](Self::write_jsonl).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::MissingHeader`] on an empty stream and
    /// [`TraceError::Parse`] on malformed lines.
    pub fn read_jsonl<R: Read>(reader: R) -> Result<Trace, TraceError> {
        let mut lines = BufReader::new(reader).lines();
        let header = lines.next().ok_or(TraceError::MissingHeader)??;
        let meta: TraceMeta = serde_json::from_str(&header).map_err(|e| TraceError::Parse {
            line: 1,
            message: e.to_string(),
        })?;
        let mut flows = Vec::new();
        for (i, line) in lines.enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let flow: FlowRecord = serde_json::from_str(&line).map_err(|e| TraceError::Parse {
                line: i + 2,
                message: e.to_string(),
            })?;
            flows.push(flow);
        }
        Ok(Trace { meta, flows })
    }

    /// Reads a JSONL trace, tolerating malformed flow lines: good lines
    /// are kept, bad ones are returned as `(line, message)` rejects
    /// alongside the trace. This is the reader for live-rotated capture
    /// files, where the tail of the file may be a half-written record —
    /// the daemon must ingest the intact prefix and count the damage,
    /// not die.
    ///
    /// # Errors
    ///
    /// Returns an error only when the stream is unreadable or the
    /// *header* is missing or malformed: without valid metadata none of
    /// the flows can be attributed, so there is nothing to salvage.
    pub fn read_jsonl_lenient<R: Read>(
        reader: R,
    ) -> Result<(Trace, Vec<(usize, String)>), TraceError> {
        let mut lines = BufReader::new(reader).lines();
        let header = lines.next().ok_or(TraceError::MissingHeader)??;
        let meta: TraceMeta = serde_json::from_str(&header).map_err(|e| TraceError::Parse {
            line: 1,
            message: e.to_string(),
        })?;
        let mut flows = Vec::new();
        let mut rejects = Vec::new();
        for (i, line) in lines.enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<FlowRecord>(&line) {
                Ok(flow) => flows.push(flow),
                Err(e) => rejects.push((i + 2, e.to_string())),
            }
        }
        Ok((Trace { meta, flows }, rejects))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FiveTuple;
    use crate::packet::NodeId;
    use crate::ports;

    fn flow(start_s: u64, dst_port: u16, fwd: u64, rev: u64) -> FlowRecord {
        FlowRecord {
            tuple: FiveTuple {
                src: NodeId(0),
                src_port: 40_000,
                dst: NodeId(1),
                dst_port,
            },
            start: SimTime::from_secs(start_s),
            end: SimTime::from_secs(start_s + 1),
            fwd_bytes: fwd,
            rev_bytes: rev,
            packets: 2,
            component: None,
        }
    }

    fn sample_trace() -> Trace {
        let mut t = Trace::new(
            TraceMeta {
                workload: "terasort".into(),
                input_bytes: 1 << 30,
                reducers: 8,
                replication: 3,
                block_bytes: 128 << 20,
                nodes: 16,
                seed: 1,
                counters: None,
            },
            vec![
                flow(0, ports::DATANODE_XFER, 100, 1 << 20), // read
                flow(1, ports::DATANODE_XFER, 1 << 20, 100), // write
                flow(2, ports::SHUFFLE, 50, 1 << 19),
                flow(3, ports::NAMENODE_RPC, 10, 10),
            ],
        );
        t.classify();
        t
    }

    #[test]
    fn classify_then_filter() {
        let t = sample_trace();
        assert_eq!(t.component_flows(Component::HdfsRead).count(), 1);
        assert_eq!(t.component_flows(Component::HdfsWrite).count(), 1);
        assert_eq!(t.component_flows(Component::Shuffle).count(), 1);
        assert_eq!(t.component_flows(Component::Control).count(), 1);
        assert_eq!(t.component_flows(Component::Other).count(), 0);
    }

    #[test]
    fn component_sizes_extract_bytes() {
        let t = sample_trace();
        let sizes = t.component_sizes(Component::Shuffle);
        assert_eq!(sizes, vec![(50u64 + (1 << 19)) as f64]);
    }

    #[test]
    fn component_starts_relative_to_trace_start() {
        let t = sample_trace();
        assert_eq!(t.component_starts(Component::HdfsWrite), vec![1.0]);
    }

    #[test]
    fn jsonl_roundtrip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let back = Trace::read_jsonl(&buf[..]).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn read_rejects_empty_and_garbage() {
        assert!(matches!(
            Trace::read_jsonl(&b""[..]),
            Err(TraceError::MissingHeader)
        ));
        let bad = b"{\"workload\":\"x\",\"input_bytes\":0,\"reducers\":0,\"replication\":0,\"block_bytes\":0,\"nodes\":0,\"seed\":0}\nnot json\n";
        match Trace::read_jsonl(&bad[..]) {
            Err(TraceError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    /// Half-written rotations: a truncated trailing record must not cost
    /// the intact prefix.
    #[test]
    fn lenient_read_salvages_good_prefix() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        // Simulate a writer caught mid-record: chop the last line.
        let cut = buf.len() - 20;
        let (back, rejects) = Trace::read_jsonl_lenient(&buf[..cut]).unwrap();
        assert_eq!(back.len(), t.len() - 1, "intact flows survive");
        assert_eq!(rejects.len(), 1);
        assert_eq!(rejects[0].0, 5, "the chopped line is reported");
        // A clean trace round-trips with no rejects.
        let (clean, none) = Trace::read_jsonl_lenient(&buf[..]).unwrap();
        assert_eq!(clean, t);
        assert!(none.is_empty());
    }

    /// Without a parseable header nothing can be attributed; lenient
    /// reading still refuses.
    #[test]
    fn lenient_read_requires_a_header() {
        assert!(matches!(
            Trace::read_jsonl_lenient(&b""[..]),
            Err(TraceError::MissingHeader)
        ));
        assert!(matches!(
            Trace::read_jsonl_lenient(&b"not json\n"[..]),
            Err(TraceError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn makespan_spans_flows() {
        let t = sample_trace();
        assert_eq!(t.makespan(), Duration::from_secs(4));
        let empty = Trace::new(TraceMeta::default(), vec![]);
        assert_eq!(empty.makespan(), Duration::ZERO);
        assert!(empty.is_empty());
    }
}
