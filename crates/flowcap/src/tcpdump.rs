//! tcpdump-style text packet format.
//!
//! The paper's capture pipeline post-processed `tcpdump` output; this
//! module speaks a compatible one-line-per-packet text dialect so the
//! toolchain can exchange packet traces with text tooling (and so
//! external captures can be massaged into the simulated format):
//!
//! ```text
//! 1.002345 IP node1.40000 > node2.50010: Flags [S], length 128
//! 1.004012 IP node2.50010 > node1.40000: Flags [.], length 65536
//! 1.009871 IP node1.40000 > node2.50010: Flags [F], length 0
//! ```
//!
//! Timestamps are seconds with microsecond precision (tcpdump's default
//! clock display); `node<N>` hostnames carry the simulator's node ids.

use std::io::{BufRead, BufReader, Read, Write};

use keddah_des::SimTime;

use crate::packet::{NodeId, PacketRecord};
use crate::trace::TraceError;

/// Writes packets as tcpdump-style text lines.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_text<W: Write>(packets: &[PacketRecord], mut writer: W) -> Result<(), TraceError> {
    for p in packets {
        let flag = if p.syn {
            'S'
        } else if p.fin {
            'F'
        } else {
            '.'
        };
        let micros = p.ts.as_nanos() / 1_000;
        writeln!(
            writer,
            "{}.{:06} IP node{}.{} > node{}.{}: Flags [{flag}], length {}",
            micros / 1_000_000,
            micros % 1_000_000,
            p.src.0,
            p.src_port,
            p.dst.0,
            p.dst_port,
            p.bytes
        )?;
    }
    Ok(())
}

/// Parses tcpdump-style text lines back into packets. Blank lines are
/// skipped; anything else malformed is an error naming the line: the
/// first error [`read_text_lenient`] collects.
///
/// # Errors
///
/// Returns [`TraceError::Parse`] with a 1-based line number on malformed
/// input.
pub fn read_text<R: Read>(reader: R) -> Result<Vec<PacketRecord>, TraceError> {
    let parsed = read_text_lenient(reader)?;
    match parsed.errors.into_iter().next() {
        Some((line, message)) => Err(TraceError::Parse { line, message }),
        None => Ok(parsed.packets),
    }
}

/// The outcome of a lenient parse: every line that parsed, plus every
/// line that did not.
#[derive(Debug, Clone, Default)]
pub struct LenientParse {
    /// Packets from the lines that parsed, in input order.
    pub packets: Vec<PacketRecord>,
    /// `(1-based line number, message)` for each malformed line, in
    /// input order.
    pub errors: Vec<(usize, String)>,
}

impl LenientParse {
    /// Number of lines that failed to parse.
    #[must_use]
    pub fn parse_errors(&self) -> u64 {
        self.errors.len() as u64
    }
}

/// Parses tcpdump-style text, keeping every line that parses and
/// collecting — instead of aborting on — the ones that do not.
///
/// Real captures get truncated mid-line by rotation and interleaved with
/// kernel warnings; a single bad line must not discard the other
/// millions. Use [`read_text`] when the input is trusted to be clean
/// (e.g. this module's own output) and any damage should be loud.
///
/// # Errors
///
/// Returns only underlying I/O errors — malformed *content* lands in
/// [`LenientParse::errors`].
pub fn read_text_lenient<R: Read>(reader: R) -> Result<LenientParse, TraceError> {
    let mut out = LenientParse::default();
    for (i, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match parse_line(trimmed) {
            Ok(packet) => out.packets.push(packet),
            Err(message) => out.errors.push((i + 1, message)),
        }
    }
    Ok(out)
}

/// Parses one `ts IP a.p > b.q: Flags [X], length N` line.
fn parse_line(line: &str) -> Result<PacketRecord, String> {
    let mut parts = line.split_whitespace();
    let ts_raw = parts.next().ok_or("missing timestamp")?;
    let ts = parse_ts(ts_raw)?;
    let proto = parts.next().ok_or("missing protocol")?;
    if proto != "IP" {
        return Err(format!("expected IP, found {proto}"));
    }
    let src_raw = parts.next().ok_or("missing source endpoint")?;
    let arrow = parts.next().ok_or("missing direction arrow")?;
    if arrow != ">" {
        return Err(format!("expected >, found {arrow}"));
    }
    let dst_raw = parts.next().ok_or("missing destination endpoint")?;
    let dst_raw = dst_raw.strip_suffix(':').unwrap_or(dst_raw);
    let (src, src_port) = parse_endpoint(src_raw)?;
    let (dst, dst_port) = parse_endpoint(dst_raw)?;

    let flags_kw = parts.next().ok_or("missing Flags keyword")?;
    if flags_kw != "Flags" {
        return Err(format!("expected Flags, found {flags_kw}"));
    }
    let flags_raw = parts.next().ok_or("missing flag set")?;
    let flags = flags_raw
        .trim_start_matches('[')
        .trim_end_matches(',')
        .trim_end_matches(']');
    let (syn, fin) = match flags {
        "S" => (true, false),
        "F" => (false, true),
        "." => (false, false),
        other => return Err(format!("unsupported flag set [{other}]")),
    };
    let length_kw = parts.next().ok_or("missing length keyword")?;
    if length_kw != "length" {
        return Err(format!("expected length, found {length_kw}"));
    }
    let bytes: u64 = parts
        .next()
        .ok_or("missing length value")?
        .parse()
        .map_err(|_| "bad length value".to_string())?;
    Ok(PacketRecord {
        ts,
        src,
        src_port,
        dst,
        dst_port,
        bytes,
        syn,
        fin,
    })
}

/// Parses `S.UUUUUU` seconds.microseconds.
fn parse_ts(raw: &str) -> Result<SimTime, String> {
    let (secs, micros) = raw
        .split_once('.')
        .ok_or_else(|| format!("bad timestamp {raw}"))?;
    let secs: u64 = secs.parse().map_err(|_| format!("bad timestamp {raw}"))?;
    if micros.len() != 6 {
        return Err(format!("timestamp needs 6 fractional digits: {raw}"));
    }
    let micros_val: u64 = micros.parse().map_err(|_| format!("bad timestamp {raw}"))?;
    Ok(SimTime::from_micros(secs * 1_000_000 + micros_val))
}

/// Parses `node<N>.<port>`.
fn parse_endpoint(raw: &str) -> Result<(NodeId, u16), String> {
    let (host, port) = raw
        .rsplit_once('.')
        .ok_or_else(|| format!("bad endpoint {raw}"))?;
    let node = host
        .strip_prefix("node")
        .ok_or_else(|| format!("expected node<N> hostname, found {host}"))?;
    let node: u32 = node.parse().map_err(|_| format!("bad node id in {raw}"))?;
    let port: u16 = port.parse().map_err(|_| format!("bad port in {raw}"))?;
    Ok((NodeId(node), port))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembler::FlowAssembler;
    use crate::ports;

    fn sample_packets() -> Vec<PacketRecord> {
        vec![
            PacketRecord::syn(
                SimTime::from_micros(1_002_345),
                NodeId(1),
                40_000,
                NodeId(2),
                ports::DATANODE_XFER,
                128,
            ),
            PacketRecord::data(
                SimTime::from_micros(1_004_012),
                NodeId(2),
                ports::DATANODE_XFER,
                NodeId(1),
                40_000,
                65_536,
            ),
            PacketRecord::fin(
                SimTime::from_micros(1_009_871),
                NodeId(1),
                40_000,
                NodeId(2),
                ports::DATANODE_XFER,
                0,
            ),
        ]
    }

    #[test]
    fn roundtrip() {
        let packets = sample_packets();
        let mut buf = Vec::new();
        write_text(&packets, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("1.002345 IP node1.40000 > node2.50010: Flags [S], length 128"));
        let back = read_text(&buf[..]).unwrap();
        assert_eq!(packets, back);
    }

    #[test]
    fn parsed_packets_assemble() {
        let mut buf = Vec::new();
        write_text(&sample_packets(), &mut buf).unwrap();
        let mut asm = FlowAssembler::new();
        asm.extend(read_text(&buf[..]).unwrap());
        let flows = asm.finish();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].rev_bytes, 65_536);
    }

    #[test]
    fn blank_lines_skipped() {
        let text = "\n1.000000 IP node0.1 > node1.2: Flags [S], length 5\n\n";
        let packets = read_text(text.as_bytes()).unwrap();
        assert_eq!(packets.len(), 1);
        assert!(packets[0].syn);
    }

    #[test]
    fn malformed_lines_report_position() {
        let text = "1.000000 IP node0.1 > node1.2: Flags [S], length 5\nnot a packet\n";
        match read_text(text.as_bytes()) {
            Err(TraceError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_foreign_dialects() {
        for bad in [
            "1.0 IP node0.1 > node1.2: Flags [S], length 5", // short fraction
            "1.000000 TCP node0.1 > node1.2: Flags [S], length 5",
            "1.000000 IP host0.1 > node1.2: Flags [S], length 5",
            "1.000000 IP node0.1 < node1.2: Flags [S], length 5",
            "1.000000 IP node0.1 > node1.2: Flags [SEW], length 5",
            "1.000000 IP node0.1 > node1.2: Flags [S], size 5",
        ] {
            assert!(read_text(bad.as_bytes()).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn lenient_parse_survives_garbage() {
        let text = "garbage\n\
                    1.000000 IP node0.1 > node1.2: Flags [S], length 5\n\
                    \u{0}\u{1}\u{2} binary junk \u{ff}\n\
                    1.000010 IP node1.2 > node0.1: Flags [.], length 9\n";
        let parsed = read_text_lenient(text.as_bytes()).unwrap();
        assert_eq!(parsed.packets.len(), 2);
        assert_eq!(parsed.parse_errors(), 2);
        assert_eq!(parsed.errors[0].0, 1);
        assert_eq!(parsed.errors[1].0, 3);
    }

    #[test]
    fn lenient_parse_of_empty_input_is_empty() {
        let parsed = read_text_lenient("".as_bytes()).unwrap();
        assert!(parsed.packets.is_empty());
        assert_eq!(parsed.parse_errors(), 0);
        let blank = read_text_lenient("\n\n  \n".as_bytes()).unwrap();
        assert!(blank.packets.is_empty());
        assert_eq!(blank.parse_errors(), 0);
    }

    #[test]
    fn lenient_parse_counts_mid_line_truncation() {
        // A capture rotated mid-write: the final line stops inside the
        // destination endpoint.
        let text = "1.000000 IP node0.1 > node1.2: Flags [S], length 5\n\
                    1.000010 IP node0.1 > nod";
        let parsed = read_text_lenient(text.as_bytes()).unwrap();
        assert_eq!(parsed.packets.len(), 1);
        assert_eq!(parsed.parse_errors(), 1);
        assert_eq!(parsed.errors[0].0, 2);
        // The strict reader refuses the same input outright.
        assert!(read_text(text.as_bytes()).is_err());
    }

    #[test]
    fn microsecond_precision_preserved() {
        let p = PacketRecord::data(
            SimTime::from_micros(987_654_321),
            NodeId(3),
            1,
            NodeId(4),
            2,
            9,
        );
        let mut buf = Vec::new();
        write_text(&[p], &mut buf).unwrap();
        let back = read_text(&buf[..]).unwrap();
        assert_eq!(back[0].ts, p.ts);
    }
}
