//! Round-based TCP window simulation — a second fidelity level.
//!
//! The fluid max-min model ([`crate::simulate`]) assumes every flow is
//! instantly at its fair share; real TCP ramps through slow start and
//! oscillates under AIMD. This module simulates that dynamics at
//! RTT-round granularity: each round, every active flow offers one
//! congestion window of data; links deliver proportionally when
//! oversubscribed; flows that crossed a congested link halve their
//! window, the rest grow (doubling in slow start, +1 MSS in avoidance).
//!
//! It costs one pass per RTT, so it suits medium-horizon studies and
//! fidelity ablations against the fluid model rather than hour-long
//! replays.

use keddah_des::{Duration, SimTime};

use crate::routing::RouteCache;
use crate::sim::{FlowResult, FlowSpec, SimReport};
use crate::topology::Topology;

/// Round-trip time; also the simulation step.
const RTT: Duration = Duration::from_micros(250);
/// Maximum segment size in bytes.
const MSS: u64 = 1448;
/// Initial congestion window, in segments (RFC 6928 default of 10).
const INIT_CWND: f64 = 10.0;
/// Initial slow-start threshold, in segments.
const INIT_SSTHRESH: f64 = 512.0;
/// Switch buffering, as a multiple of the per-round link budget: loss
/// (window halving) only triggers once offered load exceeds `capacity *
/// RTT * (1 + BUFFER_FACTOR)`. Zero would model bufferless links, with
/// the classic 75%-utilisation sawtooth even for a lone flow.
const BUFFER_FACTOR: f64 = 1.0;

struct TcpFlow {
    idx: usize,
    remaining: f64, // bytes
    links: Vec<u32>,
    cwnd: f64,     // segments
    ssthresh: f64, // segments
}

/// Simulates `flows` with round-based TCP dynamics over `topo`.
///
/// Results preserve input order; completion times have RTT granularity.
///
/// # Panics
///
/// Panics if a flow references a host outside the topology.
///
/// # Examples
///
/// ```
/// use keddah_des::SimTime;
/// use keddah_netsim::{simulate_tcp, FlowSpec, HostId, Topology};
///
/// let topo = Topology::star(2, 1e9);
/// let flows = vec![FlowSpec {
///     src: HostId(0),
///     dst: HostId(1),
///     bytes: 10 << 20,
///     start: SimTime::ZERO,
///     tag: 0,
/// }];
/// let report = simulate_tcp(&topo, &flows);
/// // 10 MiB at ~1 Gb/s plus the slow-start ramp: well under a second.
/// assert!(report.results[0].fct().as_secs_f64() < 0.5);
/// ```
#[must_use]
pub fn simulate_tcp(topo: &Topology, flows: &[FlowSpec]) -> SimReport {
    let rtt = RTT.as_secs_f64();
    let mss = MSS as f64;
    // Link budget per round, in bytes.
    let budgets: Vec<f64> = topo
        .links()
        .iter()
        .map(|l| l.capacity_bps / 8.0 * rtt)
        .collect();

    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_by_key(|&i| flows[i].start);

    let mut router = RouteCache::new(topo);
    let mut results: Vec<Option<FlowResult>> = vec![None; flows.len()];
    let mut link_bytes = vec![0u64; budgets.len()];
    let mut active: Vec<TcpFlow> = Vec::new();
    let mut next = 0usize;
    let mut peak_active = 0usize;
    let mut round: u64 = 0;

    // Start at the first arrival's round (rounded up so the round's
    // start time is not before the arrival).
    if let Some(&first) = order.first() {
        round = (flows[first].start.as_secs_f64() / rtt).ceil() as u64;
    }

    let mut demand = vec![0.0f64; budgets.len()];
    loop {
        let t = round as f64 * rtt;
        // Admit arrivals that have started by the beginning of the round.
        while next < order.len() && flows[order[next]].start.as_secs_f64() <= t {
            let idx = order[next];
            next += 1;
            let spec = flows[idx];
            let links: Vec<u32> = router
                .route(spec.src, spec.dst, idx as u64)
                .expect("no link is down")
                .into_iter()
                .map(|l| l.0)
                .collect();
            active.push(TcpFlow {
                idx,
                remaining: spec.bytes as f64,
                links,
                cwnd: INIT_CWND,
                ssthresh: INIT_SSTHRESH,
            });
        }
        peak_active = peak_active.max(active.len());

        if active.is_empty() {
            match order.get(next) {
                // Jump the clock to the next arrival, always making
                // progress (a floor here would revisit the same round
                // forever when the arrival is mid-round).
                Some(&i) => {
                    let target = (flows[i].start.as_secs_f64() / rtt).ceil() as u64;
                    round = target.max(round + 1).max(round);
                    continue;
                }
                None => break,
            }
        }

        // Offered load per link this round.
        demand.fill(0.0);
        let offers: Vec<f64> = active
            .iter()
            .map(|f| (f.cwnd * mss).min(f.remaining).max(mss.min(f.remaining)))
            .collect();
        for (f, &offer) in active.iter().zip(&offers) {
            for &l in &f.links {
                demand[l as usize] += offer;
            }
        }
        // Per-link delivery scale (capacity cap) and loss indicator
        // (buffer overflow).
        let scale: Vec<f64> = demand
            .iter()
            .zip(&budgets)
            .map(|(&d, &b)| if d <= b { 1.0 } else { b / d })
            .collect();
        let lossy: Vec<bool> = demand
            .iter()
            .zip(&budgets)
            .map(|(&d, &b)| d > b * (1.0 + BUFFER_FACTOR))
            .collect();

        // Deliver, adjust windows, retire completions.
        let finish_time = SimTime::from_secs_f64((round + 1) as f64 * rtt);
        let mut i = 0;
        while i < active.len() {
            let offer = offers[i];
            let f = &mut active[i];
            let mut flow_scale = 1.0f64;
            let mut saw_loss = false;
            for &l in &f.links {
                flow_scale = flow_scale.min(scale[l as usize]);
                saw_loss |= lossy[l as usize];
            }
            let delivered = offer * flow_scale;
            for &l in &f.links {
                link_bytes[l as usize] += delivered as u64;
            }
            f.remaining -= delivered;
            if f.remaining <= 0.5 {
                results[f.idx] = Some(FlowResult {
                    spec: flows[f.idx],
                    finish: finish_time,
                });
                active.swap_remove(i);
                continue;
            }
            if saw_loss {
                // Congestion: multiplicative decrease.
                f.ssthresh = (f.cwnd / 2.0).max(2.0);
                f.cwnd = f.ssthresh;
            } else if f.cwnd < f.ssthresh {
                f.cwnd *= 2.0; // slow start
            } else {
                f.cwnd += 1.0; // congestion avoidance
            }
            i += 1;
        }
        round += 1;
    }

    SimReport {
        results: results
            .into_iter()
            .map(|r| r.expect("every flow completes"))
            .collect(),
        link_bytes,
        peak_active,
        // Each simulated RTT round is one event of this stepped model,
        // which keeps no bundles and runs no fair-share solver.
        events: round,
        peak_bundles: 0,
        fair_solves: 0,
        fair_solved_flows: 0,
        faults: crate::sim::FaultStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate, SimOptions};
    use crate::topology::HostId;

    fn flow(src: u32, dst: u32, bytes: u64, start_ms: u64) -> FlowSpec {
        FlowSpec {
            src: HostId(src),
            dst: HostId(dst),
            bytes,
            start: SimTime::from_millis(start_ms),
            tag: 0,
        }
    }

    #[test]
    fn lone_elephant_approaches_line_rate() {
        let topo = Topology::star(2, 1e9);
        let report = simulate_tcp(&topo, &[flow(0, 1, 125_000_000, 0)]);
        let fct = report.results[0].fct().as_secs_f64();
        // Ideal is 1.0 s; slow-start ramp costs a little.
        assert!((1.0..1.2).contains(&fct), "fct = {fct}");
    }

    #[test]
    fn mouse_pays_the_slow_start_ramp() {
        let topo = Topology::star(2, 1e9);
        let bytes = 100 * MSS; // 100 segments
        let report = simulate_tcp(&topo, &[flow(0, 1, bytes, 0)]);
        let rounds = report.results[0].fct().as_secs_f64() / RTT.as_secs_f64();
        // cwnd 10 -> 20 -> 40 -> 80 -> done: ~4 rounds, far more than the
        // sub-round a fluid model would charge.
        assert!((3.0..=6.0).contains(&rounds), "rounds = {rounds}");
    }

    #[test]
    fn sharing_flows_converge_to_fair_shares() {
        let topo = Topology::star(3, 1e9);
        let flows = [flow(0, 2, 62_500_000, 0), flow(1, 2, 62_500_000, 0)];
        let report = simulate_tcp(&topo, &flows);
        // 125 MB total through a 1 Gb/s downlink: ideal 1.0 s.
        for r in &report.results {
            let fct = r.fct().as_secs_f64();
            assert!((0.8..1.6).contains(&fct), "fct = {fct}");
        }
    }

    #[test]
    fn tcp_is_slower_than_fluid_for_short_flows() {
        // The fidelity gap the module exists to expose.
        let topo = Topology::star(3, 1e9);
        let flows: Vec<FlowSpec> = (0..8).map(|i| flow(i % 2, 2, 200_000, 0)).collect();
        let tcp = simulate_tcp(&topo, &flows);
        let fluid = simulate(&topo, &flows, SimOptions::default());
        let mean = |r: &SimReport| r.fcts().iter().sum::<f64>() / r.results.len() as f64;
        assert!(
            mean(&tcp) > mean(&fluid),
            "tcp {} vs fluid {}",
            mean(&tcp),
            mean(&fluid)
        );
    }

    #[test]
    fn elephants_agree_with_fluid_within_tolerance() {
        let topo = Topology::star(4, 1e9);
        let flows = [
            flow(0, 3, 250_000_000, 0),
            flow(1, 3, 250_000_000, 0),
            flow(2, 3, 250_000_000, 0),
        ];
        let tcp = simulate_tcp(&topo, &flows);
        let fluid = simulate(&topo, &flows, SimOptions::default());
        for (a, b) in tcp.results.iter().zip(&fluid.results) {
            let ta = a.fct().as_secs_f64();
            let tb = b.fct().as_secs_f64();
            assert!(
                (ta - tb).abs() / tb < 0.35,
                "tcp {ta} vs fluid {tb} diverged"
            );
        }
    }

    #[test]
    fn mid_round_first_arrival_does_not_hang() {
        // Regression: an arrival not aligned to an RTT boundary used to
        // pin the idle-jump to the same round forever.
        let topo = Topology::star(2, 1e9);
        let f = FlowSpec {
            src: HostId(0),
            dst: HostId(1),
            bytes: 5_000,
            start: SimTime::from_micros(333), // not a multiple of 250us
            tag: 0,
        };
        let report = simulate_tcp(&topo, &[f]);
        assert!(report.results[0].finish > f.start);
    }

    #[test]
    fn idle_gaps_are_skipped() {
        let topo = Topology::star(2, 1e9);
        let flows = [flow(0, 1, 10_000, 0), flow(0, 1, 10_000, 60_000)];
        let report = simulate_tcp(&topo, &flows);
        assert_eq!(report.results.len(), 2);
        assert!(report.results[1].finish > SimTime::from_secs(60));
    }

    #[test]
    fn deterministic() {
        let topo = Topology::leaf_spine(2, 2, 2, 1e9, 2.0);
        let flows: Vec<FlowSpec> = (0..20)
            .map(|i| flow(i % 4, (i + 1) % 4, 1 << 20, i as u64 * 3))
            .collect();
        let a = simulate_tcp(&topo, &flows);
        let b = simulate_tcp(&topo, &flows);
        assert_eq!(a.results, b.results);
    }
}
