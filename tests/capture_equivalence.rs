//! The capture equivalence oracle.
//!
//! The Hadoop driver builds a trace's flows straight from its connection
//! log, and renders packets only on request. This suite holds it to the
//! packet path it replaced: for every capture shape the simulator makes,
//! the trace must equal [`FlowAssembler`] plus classification over the
//! log's rendered packets, and the rendered packets must come out in the
//! order the packet tap used to record them.

use keddah::faults::{FaultKind, FaultSpec, TimedFault};
use keddah::flowcap::classify::classify_all;
use keddah::flowcap::{FlowAssembler, FlowRecord, PacketRecord};
use keddah::hadoop::{
    run_dag, run_job, run_job_with_packets, run_session, ClusterSpec, ConnectionLog, HadoopConfig,
    JobSpec, Workload,
};

/// The paper's cluster shape: 20 workers in 4 racks.
fn cluster() -> ClusterSpec {
    ClusterSpec::racks(4, 5)
}

fn config() -> HadoopConfig {
    HadoopConfig::default().with_block_bytes(64 << 20)
}

/// What the packet path makes of `packets`: assembled, then classified.
fn reassembled(packets: &[PacketRecord]) -> Vec<FlowRecord> {
    let mut asm = FlowAssembler::new();
    asm.extend(packets.iter().copied());
    let mut flows = asm.finish();
    classify_all(&mut flows);
    flows
}

/// Checks one capture: `flows` (its trace) against the packet path over
/// `log`'s rendered packets.
fn assert_equivalent(what: &str, flows: &[FlowRecord], log: &ConnectionLog) {
    let packets = log.packets();
    assert_eq!(packets.len(), log.packet_count(), "{what}: packet count");
    assert!(
        packets.windows(2).all(|w| w[0].ts <= w[1].ts),
        "{what}: rendered packets out of time order"
    );
    let expected = reassembled(&packets);
    assert_eq!(flows.len(), expected.len(), "{what}: flow count");
    for (i, (got, want)) in flows.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "{what}: flow {i}");
    }
}

/// Runs `workload` on its own DAG and checks the capture.
fn check_workload(workload: Workload, input_bytes: u64, seed: u64) {
    let (run, log) = run_dag(
        &cluster(),
        &config(),
        &workload.dag(),
        input_bytes,
        seed,
        &FaultSpec::empty(),
    );
    assert!(!run.trace.is_empty(), "{}: empty capture", workload.name());
    assert_equivalent(workload.name(), run.trace.flows(), &log);
}

#[test]
fn every_paper_workload_matches_the_packet_path() {
    for (i, &workload) in Workload::PAPER.iter().enumerate() {
        check_workload(workload, 4 << 30, 40 + i as u64);
    }
}

#[test]
fn dag_native_families_match_the_packet_path() {
    for (i, workload) in [Workload::PigJoin, Workload::DataGrid, Workload::TpcxHs]
        .into_iter()
        .enumerate()
    {
        check_workload(workload, 4 << 30, 60 + i as u64);
    }
}

#[test]
fn crash_and_recover_capture_matches_the_packet_path() {
    let at = |secs: u64, kind| TimedFault {
        at_nanos: secs * 1_000_000_000,
        kind,
    };
    let spec = FaultSpec {
        faults: vec![
            at(4, FaultKind::NodeCrash { node: 2 }),
            at(30, FaultKind::NodeRecover { node: 2 }),
        ],
    };
    let dag = Workload::TeraSort.dag();
    let (run, log) = run_dag(&cluster(), &config(), &dag, 1 << 30, 9, &spec);
    assert_eq!(run.counters.node_crashes, 1);
    assert!(run.counters.rereplicated_blocks > 0, "no re-replication");
    assert_equivalent("faulted terasort", run.trace.flows(), &log);
}

#[test]
fn session_chain_matches_the_packet_path() {
    let (session, log) = run_session(
        &cluster(),
        &config(),
        &[
            JobSpec::new(Workload::TeraGen, 512 << 20),
            JobSpec::new(Workload::TeraSort, 512 << 20),
        ],
        13,
    );
    assert_eq!(session.job_ends.len(), 2);
    assert_equivalent("teragen+terasort", session.trace.flows(), &log);
}

#[test]
fn packet_capture_is_the_rendered_log() {
    let job = JobSpec::new(Workload::WordCount, 512 << 20);
    let (run, packets) = run_job_with_packets(&cluster(), &config(), &job, 21);
    let (dag_run, log) = run_dag(
        &cluster(),
        &config(),
        &job.workload.dag(),
        job.input_bytes,
        21,
        &FaultSpec::empty(),
    );
    assert_eq!(packets, log.packets());
    assert_eq!(run.trace, dag_run.trace);
    assert_eq!(run.trace, run_job(&cluster(), &config(), &job, 21).trace);
    assert_eq!(run.trace.flows(), &reassembled(&packets)[..]);
}

/// FNV-1a over every field of every packet, in order.
fn packet_digest(packets: &[PacketRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in packets {
        eat(&p.ts.as_nanos().to_le_bytes());
        eat(&p.src.0.to_le_bytes());
        eat(&p.src_port.to_le_bytes());
        eat(&p.dst.0.to_le_bytes());
        eat(&p.dst_port.to_le_bytes());
        eat(&p.bytes.to_le_bytes());
        eat(&[u8::from(p.syn) | u8::from(p.fin) << 1]);
    }
    h
}

/// The packets of one capture, pinned as the packet tap recorded them
/// before packets were rendered on demand: same packets, same order,
/// including the emission order of same-instant packets.
#[test]
fn rendered_packets_keep_the_tap_order() {
    let (_, packets) = run_job_with_packets(
        &ClusterSpec::racks(2, 3),
        &HadoopConfig::default().with_reducers(4),
        &JobSpec::new(Workload::TeraSort, 1 << 30),
        5,
    );
    assert_eq!(packets.len(), PINNED_PACKETS);
    assert_eq!(packet_digest(&packets), PINNED_DIGEST);
}

const PINNED_PACKETS: usize = 1243;
const PINNED_DIGEST: u64 = 0xc7f6_cc87_d0be_7733;
