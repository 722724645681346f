//! Capture pins where workers fill up.
//!
//! The golden fixtures are 1 GiB captures on 2 racks x 3 workers: 8 maps
//! for 24 slots, so the scheduler almost never meets a full worker. This
//! suite pins captures where maps queue for slots, through every
//! scheduling path that reaches a full worker (locality passes, failures
//! with speculative backups, a crash mid-map-wave and the recovery after
//! it, a chained session). Each runs for 85 to 237 s, so its packet
//! timestamps take five of the radix sort's 8-bit digits. Pinned:
//!
//! * the trace JSONL, byte for byte;
//! * the job counters;
//! * the job duration, in nanoseconds;
//! * every rendered packet, field by field, in order.
//!
//! Each is an FNV-1a digest, recorded before the scheduler skipped full
//! workers and before the packet order became a radix sort, so a change
//! to either that moves one RNG draw, one timestamp or one same-instant
//! tie fails here. Re-pin only when capture semantics change on purpose.

use keddah::faults::{FaultKind, FaultSpec, TimedFault};
use keddah::flowcap::{PacketRecord, Trace};
use keddah::hadoop::{
    run_dag, run_session, ClusterSpec, HadoopConfig, JobCounters, JobSpec, Workload,
};

const GIB: u64 = 1 << 30;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What one capture is pinned by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    flows: usize,
    packets: usize,
    /// The job's duration (the last job's end, for a session), ns.
    duration: u64,
    trace: u64,
    counters: u64,
    packet_digest: u64,
}

fn trace_digest(trace: &Trace) -> u64 {
    let mut bytes = Vec::new();
    trace.write_jsonl(&mut bytes).expect("in-memory write");
    let mut h = Fnv::new();
    h.eat(&bytes);
    h.0
}

fn counters_digest(counters: &[JobCounters]) -> u64 {
    let mut h = Fnv::new();
    for c in counters {
        for (name, value) in c.to_map() {
            h.eat(name.as_bytes());
            h.eat(&value.to_le_bytes());
        }
    }
    h.0
}

/// Every field of every packet, in order.
fn packet_digest(packets: &[PacketRecord]) -> u64 {
    let mut h = Fnv::new();
    for p in packets {
        h.eat(&p.ts.as_nanos().to_le_bytes());
        h.eat(&p.src.0.to_le_bytes());
        h.eat(&p.src_port.to_le_bytes());
        h.eat(&p.dst.0.to_le_bytes());
        h.eat(&p.dst_port.to_le_bytes());
        h.eat(&p.bytes.to_le_bytes());
        h.eat(&[u8::from(p.syn) | u8::from(p.fin) << 1]);
    }
    h.0
}

fn pin(trace: &Trace, duration: u64, counters: &[JobCounters], packets: &[PacketRecord]) -> Pin {
    Pin {
        flows: trace.len(),
        packets: packets.len(),
        duration,
        trace: trace_digest(trace),
        counters: counters_digest(counters),
        packet_digest: packet_digest(packets),
    }
}

/// Captures `workload` at `gib` GiB on `racks` x `per_rack` workers.
fn capture(
    racks: u32,
    per_rack: u32,
    config: &HadoopConfig,
    workload: Workload,
    gib: u64,
    seed: u64,
    faults: &FaultSpec,
) -> (Pin, JobCounters) {
    let (run, log) = run_dag(
        &ClusterSpec::racks(racks, per_rack),
        config,
        &workload.dag(),
        gib * GIB,
        seed,
        faults,
    );
    let packets = log.packets();
    let pin = pin(
        &run.trace,
        run.duration.as_nanos(),
        &[run.counters],
        &packets,
    );
    (pin, run.counters)
}

/// Asserts `got` against `want`, printing the whole pin on a mismatch.
fn check(name: &str, got: Pin, want: Pin) {
    assert!(got == want, "{name}: capture moved; got {got:#x?}");
}

/// Maps outnumber the cluster's `slots`.
fn assert_overcommitted(name: &str, counters: &JobCounters, slots: u32) {
    assert!(
        counters.maps > slots,
        "{name}: {} maps for {slots} slots",
        counters.maps
    );
}

/// TeraSort at the paper's cluster shape, at the size of a benchmark
/// campaign's captures: 192 maps for 80 slots.
#[test]
fn terasort_24gib_on_4x5() {
    let (got, counters) = capture(
        4,
        5,
        &HadoopConfig::default(),
        Workload::TeraSort,
        24,
        621,
        &FaultSpec::empty(),
    );
    assert_overcommitted("terasort 24 GiB 4x5", &counters, 80);
    check(
        "terasort 24 GiB 4x5",
        got,
        Pin {
            flows: 6452,
            packets: 30419,
            duration: 171_434_613_549,
            trace: 0x3c04_3c4c_cf89_fcba,
            counters: 0x8ce_05c2_23ca_0fa6,
            packet_digest: 0x4e89_bf83_91bc_26bf,
        },
    );
}

/// A wide cluster, with fewer maps than slots (128 for 256): workers
/// holding replicas of more blocks than they have slots still fill up
/// with node-local maps.
#[test]
fn terasort_16gib_on_8x8() {
    let (got, _) = capture(
        8,
        8,
        &HadoopConfig::default(),
        Workload::TeraSort,
        16,
        622,
        &FaultSpec::empty(),
    );
    check(
        "terasort 16 GiB 8x8",
        got,
        Pin {
            flows: 10622,
            packets: 39482,
            duration: 132_847_738_396,
            trace: 0x4cf1_bf6e_335a_fef0,
            counters: 0xaaf2_f81a_da58_2a76,
            packet_digest: 0xc5fb_9a92_aeea_4023,
        },
    );
}

/// One slot per worker and two replicas: 64 maps for 4 slots, and
/// reducers held to half the slots while maps are pending.
#[test]
fn one_slot_per_worker_replication_two() {
    let config = HadoopConfig::default()
        .with_slots_per_node(1)
        .with_replication(2);
    let (got, counters) = capture(
        2,
        2,
        &config,
        Workload::TeraSort,
        8,
        623,
        &FaultSpec::empty(),
    );
    assert_overcommitted("1 slot, replication 2", &counters, 4);
    check(
        "1 slot, replication 2",
        got,
        Pin {
            flows: 1321,
            packets: 6345,
            duration: 119_061_422_140,
            trace: 0x6e2f_36ed_760f_c3cd,
            counters: 0x80e0_8f40_90eb_4b6c,
            packet_digest: 0xbbe8_cdab_b243_8299,
        },
    );
}

/// Failed attempts re-queue, blacklist their node and re-read their
/// input; speculative backups take free slots anywhere.
#[test]
fn failures_with_speculative_execution() {
    let config = HadoopConfig {
        task_failure_prob: 0.1,
        speculative_execution: true,
        ..HadoopConfig::default()
    };
    let (got, counters) = capture(
        2,
        3,
        &config,
        Workload::TeraSort,
        8,
        624,
        &FaultSpec::empty(),
    );
    assert_overcommitted("failures + speculation", &counters, 24);
    assert!(counters.failed_map_attempts > 0, "{counters:?}");
    assert!(counters.speculative_attempts > 0, "{counters:?}");
    check(
        "failures + speculation",
        got,
        Pin {
            flows: 3180,
            packets: 13181,
            duration: 236_463_110_436,
            trace: 0x1a35_e828_a113_7e73,
            counters: 0xe149_6d14_d785_271c,
            packet_digest: 0x9563_c456_07fb_aff7,
        },
    );
}

/// Worker 2 dies at 5 s, with 16 of the 64 maps pending, and rejoins at
/// 7 s, with 6 still pending: its slots vanish, its attempts are killed,
/// and the recovery gives its slots back to the pending maps.
#[test]
fn crash_mid_map_wave_then_recovery() {
    let at = |secs: u64, kind| TimedFault {
        at_nanos: secs * 1_000_000_000,
        kind,
    };
    let faults = FaultSpec {
        faults: vec![
            at(5, FaultKind::NodeCrash { node: 2 }),
            at(7, FaultKind::NodeRecover { node: 2 }),
        ],
    };
    let (got, counters) = capture(
        2,
        3,
        &HadoopConfig::default(),
        Workload::TeraSort,
        8,
        625,
        &faults,
    );
    assert_overcommitted("crash and recovery", &counters, 24);
    assert_eq!(counters.node_crashes, 1);
    assert!(counters.fault_killed_attempts > 0, "{counters:?}");
    check(
        "crash and recovery",
        got,
        Pin {
            flows: 1643,
            packets: 9130,
            duration: 86_782_562_243,
            trace: 0x83be_13d9_da35_6e4c,
            counters: 0xacbb_581f_8222_21bf,
            packet_digest: 0x53f2_1d71_d234_ff5c,
        },
    );
}

/// TeraGen then TeraSort on its output, in one session: a map-only
/// stage and a shuffle stage, each with maps queueing for slots.
#[test]
fn teragen_then_terasort_session() {
    let (session, log) = run_session(
        &ClusterSpec::racks(2, 3),
        &HadoopConfig::default().with_reducers(4),
        &[
            JobSpec::new(Workload::TeraGen, 8 * GIB),
            JobSpec::new(Workload::TeraSort, 8 * GIB),
        ],
        626,
    );
    for counters in &session.counters {
        assert_overcommitted("teragen + terasort", counters, 24);
    }
    let ends: Vec<u64> = session.job_ends.iter().map(|d| d.as_nanos()).collect();
    assert_eq!(ends[0], 22_518_631_241, "teragen's end");
    let got = pin(&session.trace, ends[1], &session.counters, &log.packets());
    check(
        "teragen + terasort",
        got,
        Pin {
            flows: 2467,
            packets: 13057,
            duration: 169_503_787_783,
            trace: 0xec19_2bc6_adc7_7d7e,
            counters: 0x2d13_a044_0208_767a,
            packet_digest: 0xfab7_64f0_a29b_9610,
        },
    );
}
