//! Property-based tests over the toolchain's core invariants.

use keddah::core::fitting::EMPIRICAL_FALLBACK_KS;
use keddah::des::{Duration, SimTime};
use keddah::flowcap::{FlowAssembler, NodeId, PacketRecord, Timeline};
use keddah::netsim::fair::max_min_rates;
use keddah::stat::distributions::{
    Distribution, Empirical, Exponential, Gamma, LogLogistic, LogNormal, Pareto, Weibull,
};
use keddah::stat::fit::{fit_all, fit_best, Candidate, FitReport, FittedDist};
use keddah::stat::ks::ks_two_sample;
use keddah::stat::shift::shift_between;
use keddah::stat::Ecdf;
use proptest::prelude::*;

#[path = "../crates/netsim/src/fair/ops.rs"]
mod fair_ops;

/// Family, parameters, statistic, p-value, log-likelihood and AIC of a
/// fit report, as bit patterns.
fn report_bits(r: &FitReport) -> (&'static str, Vec<u64>, [u64; 4]) {
    let params = r.dist.params().iter().map(|(_, v)| v.to_bits()).collect();
    let scores = [r.ks_statistic, r.ks_p_value, r.log_likelihood, r.aic];
    (r.dist.name(), params, scores.map(f64::to_bits))
}

proptest! {
    /// Quantile/CDF consistency holds for every valid parameterization
    /// of the positive-support families.
    #[test]
    fn quantile_cdf_roundtrip(
        family in 0..4usize,
        p1 in 0.05f64..20.0,
        p2 in 0.05f64..20.0,
        q in 0.001f64..0.999,
    ) {
        let dist: Box<dyn Fn(f64) -> (f64, f64)> = match family {
            0 => {
                let d = Exponential::new(p1).unwrap();
                Box::new(move |q| (d.quantile(q), d.cdf(d.quantile(q))))
            }
            1 => {
                let d = LogNormal::new(p1.ln(), p2.max(0.05)).unwrap();
                Box::new(move |q| (d.quantile(q), d.cdf(d.quantile(q))))
            }
            2 => {
                let d = Weibull::new(p1.clamp(0.2, 10.0), p2).unwrap();
                Box::new(move |q| (d.quantile(q), d.cdf(d.quantile(q))))
            }
            _ => {
                let d = Pareto::new(p1, p2.max(0.2)).unwrap();
                Box::new(move |q| (d.quantile(q), d.cdf(d.quantile(q))))
            }
        };
        let (x, back) = dist(q);
        prop_assert!(x.is_finite());
        prop_assert!((back - q).abs() < 1e-6, "x={x} q={q} cdf={back}");
    }

    /// MLE fitting never panics on arbitrary positive samples, and the
    /// sweep result (when it succeeds) reproduces a valid distribution.
    #[test]
    fn fit_never_panics(samples in prop::collection::vec(0.001f64..1e9, 1..200)) {
        if let Ok(reports) = fit_all(&samples, Candidate::POSITIVE) {
            for r in reports {
                prop_assert!(r.ks_statistic >= 0.0 && r.ks_statistic <= 1.0);
                let q = r.dist.quantile(0.5);
                prop_assert!(q.is_finite() && q >= 0.0);
            }
        }
    }

    /// The bounded sweep returns exactly the first report of the full
    /// sweep within `max_ks`, bit for bit, on samples that mix
    /// block-sized point masses with continuous draws. Shifted copies,
    /// some values negative, exercise every family.
    #[test]
    fn bounded_sweep_matches_full_sweep(
        draws in prop::collection::vec(0.001f64..0.999, 1..160),
        masses in prop::collection::vec((0usize..4, 1usize..80, 0usize..1000), 0..4),
        sigma in 0.1f64..2.5,
        shift in 0.0f64..2.0,
    ) {
        const BLOCKS: [f64; 4] = [1024.0, 65_536.0, 67_108_864.0, 134_217_728.0];
        let continuous = LogNormal::new(13.8, sigma).unwrap();
        let mut xs: Vec<f64> = draws.iter().map(|&u| continuous.quantile(u)).collect();
        for &(block, count, at) in &masses {
            for c in 0..count {
                xs.insert((at + 7 * c) % (xs.len() + 1), BLOCKS[block]);
            }
        }
        let shifted: Vec<f64> = xs.iter().map(|&x| x - shift * 1e6).collect();
        for (sample, candidates) in [(&xs, Candidate::POSITIVE), (&shifted, Candidate::ALL)] {
            let all = fit_all(sample, candidates);
            for max_ks in [0.0, 0.05, EMPIRICAL_FALLBACK_KS, f64::INFINITY] {
                let best = fit_best(sample, candidates, max_ks);
                prop_assert!(best.is_ok() || all.is_err(), "{best:?} with max_ks {max_ks}");
                let want = all
                    .as_ref()
                    .ok()
                    .and_then(|reports| reports.iter().find(|r| r.ks_statistic <= max_ks));
                let got = best.ok().flatten();
                prop_assert_eq!(
                    got.as_ref().map(report_bits),
                    want.map(report_bits),
                    "max_ks {}",
                    max_ks
                );
            }
        }
    }

    /// The empirical distribution reproduces any sample's quantiles to
    /// within the table resolution.
    #[test]
    fn empirical_brackets_sample(samples in prop::collection::vec(-1e6f64..1e6, 2..500)) {
        let d = Empirical::fit(&samples).unwrap();
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(d.min(), lo);
        prop_assert_eq!(d.max(), hi);
        for &q in &[0.01, 0.5, 0.99] {
            let v = d.quantile(q);
            prop_assert!(v >= lo && v <= hi);
        }
        // CDF is monotone over the support.
        let step = (hi - lo) / 37.0;
        if step > 0.0 {
            let mut prev = 0.0;
            for i in 0..=37 {
                let c = d.cdf(lo + step * i as f64);
                prop_assert!(c >= prev - 1e-12);
                prev = c;
            }
        }
    }

    /// ECDF quantiles are monotone and bracket the sample.
    #[test]
    fn ecdf_quantiles_monotone(samples in prop::collection::vec(-1e9f64..1e9, 1..300)) {
        let ecdf = Ecdf::new(samples.clone()).unwrap();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = ecdf.quantile(i as f64 / 20.0);
            prop_assert!(q >= prev);
            prev = q;
        }
        prop_assert_eq!(ecdf.quantile(0.0), ecdf.min());
        prop_assert_eq!(ecdf.quantile(1.0), ecdf.max());
    }

    /// Flow assembly conserves bytes and packets regardless of the
    /// packet mix.
    #[test]
    fn assembler_conserves_bytes(
        packets in prop::collection::vec(
            (0u32..6, 0u32..6, 1u16..4, 0u64..10_000, 0u64..100, any::<bool>()),
            1..200
        )
    ) {
        // Build a time-ordered packet stream from the tuples.
        let mut ts = 0u64;
        let mut stream = Vec::new();
        let mut total_bytes = 0u64;
        for (src, dst, port, bytes, dt, fin) in packets {
            ts += dt;
            total_bytes += bytes;
            let p = if fin {
                PacketRecord::fin(
                    SimTime::from_millis(ts), NodeId(src), 1000 + port, NodeId(dst), 2000, bytes,
                )
            } else {
                PacketRecord::data(
                    SimTime::from_millis(ts), NodeId(src), 1000 + port, NodeId(dst), 2000, bytes,
                )
            };
            stream.push(p);
        }
        let n_packets = stream.len() as u64;
        let mut asm = FlowAssembler::new();
        asm.extend(stream);
        let flows = asm.finish();
        let flow_bytes: u64 = flows.iter().map(|f| f.total_bytes()).sum();
        let flow_packets: u64 = flows.iter().map(|f| f.packets).sum();
        prop_assert_eq!(flow_bytes, total_bytes);
        prop_assert_eq!(flow_packets, n_packets);
        // Flows are start-ordered.
        for w in flows.windows(2) {
            prop_assert!(w[0].start <= w[1].start);
        }
    }

    /// Max-min fair allocation never violates a link capacity and never
    /// starves a flow.
    #[test]
    fn max_min_is_feasible(
        flows in prop::collection::vec(prop::collection::vec(0u32..8, 1..4), 1..40),
        caps in prop::collection::vec(1.0f64..1e9, 8),
    ) {
        let rates = max_min_rates(&flows, &caps, 1e10);
        let mut used = vec![0.0f64; caps.len()];
        for (i, links) in flows.iter().enumerate() {
            prop_assert!(rates[i] > 0.0, "flow {i} starved");
            // Dedup links: a flow crossing the same link twice still
            // charges it twice, which is conservative.
            for &l in links {
                used[l as usize] += rates[i];
            }
        }
        for (l, &u) in used.iter().enumerate() {
            // Flows listing the same link twice can overshoot the naive
            // sum; allow a factor for that duplication.
            prop_assert!(u <= caps[l] * 3.0 + 1e-6, "link {l}: {u} > {}", caps[l]);
        }
    }

    /// The incremental allocator is bitwise-equivalent to from-scratch
    /// progressive filling after every insert/remove, on arbitrary
    /// topologies and mutation orders — including local flows (empty
    /// link lists), flows crossing the same link twice, and scripts long
    /// enough to grow a component past the 64 entries at which it becomes
    /// the giant and re-solves take the whole-set path.
    #[test]
    fn incremental_fair_share_matches_full(
        caps in fair_ops::caps(),
        ops in fair_ops::ops(),
    ) {
        use keddah::netsim::fair::{max_min_rates, FairShareState};

        let mut state = FairShareState::new(caps.clone(), 1e10);
        // Live flows in handle order, mirroring the state's bookkeeping.
        let mut live: Vec<(keddah::netsim::fair::FairFlowId, Vec<u32>)> = Vec::new();
        for (action, raw_links, pick) in ops {
            let mut links: Vec<u32> =
                raw_links.iter().map(|&l| l % caps.len() as u32).collect();
            if action == 3 {
                // Force a double crossing of one link.
                if let Some(&first) = links.first() {
                    links = vec![first, first];
                }
            }
            if action == 0 && !live.is_empty() {
                let (id, _) = live.remove(pick % live.len());
                state.remove_flow(id);
            } else {
                let id = state.insert_flow(&links);
                live.push((id, links));
            }

            // Shadow solve from scratch over the surviving flows.
            live.sort_by_key(|&(id, _)| id);
            let flow_links: Vec<Vec<u32>> =
                live.iter().map(|(_, l)| l.clone()).collect();
            let want = max_min_rates(&flow_links, &caps, 1e10);
            let got = state.rates();
            prop_assert_eq!(got.len(), want.len());
            for (k, (&(id, _), &w)) in live.iter().zip(&want).enumerate() {
                let (gid, g) = got[k];
                prop_assert_eq!(gid, id);
                prop_assert_eq!(
                    g.to_bits(), w.to_bits(),
                    "flow {:?}: incremental {} != full {}", id, g, w
                );
            }
        }
    }

    /// Per-flow rates recovered from weighted flow bundles are
    /// bit-identical to the unaggregated per-flow solve, on arbitrary
    /// topologies, path mixes and churn orders — the equivalence the
    /// netsim bundle engine rests on. Three ops in four insert, so the
    /// per-flow state grows past the 64 entries at which its component
    /// becomes the giant and its re-solves take the whole-set path, while
    /// the bundled state (one entry per path) re-solves by component.
    #[test]
    fn aggregated_rates_match_per_flow(
        caps in prop::collection::vec(1.0f64..1e9, 1..10),
        paths in prop::collection::vec(prop::collection::vec(0u32..10, 0..4), 1..8),
        ops in prop::collection::vec((0u32..4, 0usize..64), 1..200),
    ) {
        use keddah::netsim::fair::{FairFlowId, FairShareState};
        use std::collections::HashMap;

        let paths: Vec<Vec<u32>> = paths
            .into_iter()
            .map(|p| p.into_iter().map(|l| l % caps.len() as u32).collect())
            .collect();

        let mut bundled = FairShareState::new(caps.clone(), 1e10);
        let mut perflow = FairShareState::new(caps.clone(), 1e10);
        // Live flows as (path index, per-flow handle); one weighted
        // bundle entry per distinct path index.
        let mut live: Vec<(usize, FairFlowId)> = Vec::new();
        let mut bundles: HashMap<usize, (FairFlowId, u32)> = HashMap::new();

        for (op, pick) in ops {
            if op > 0 || live.is_empty() {
                let pi = pick % paths.len();
                let fid = perflow.insert_flow(&paths[pi]);
                match bundles.get_mut(&pi) {
                    Some(entry) => {
                        bundled.add_weight(entry.0, 1);
                        entry.1 += 1;
                    }
                    None => {
                        let bid = bundled.insert_weighted(&paths[pi], 1);
                        bundles.insert(pi, (bid, 1));
                    }
                }
                live.push((pi, fid));
            } else {
                let (pi, fid) = live.remove(pick % live.len());
                perflow.remove_flow(fid);
                let &(bid, w) = bundles.get(&pi).expect("member has a bundle");
                if w == 1 {
                    bundled.remove_flow(bid);
                    bundles.remove(&pi);
                } else {
                    bundled.sub_weight(bid, 1);
                    bundles.get_mut(&pi).expect("bundle lives").1 = w - 1;
                }
            }
            // Every member's recovered rate equals its singleton rate.
            for &(pi, fid) in &live {
                let (bid, _) = bundles[&pi];
                prop_assert_eq!(
                    bundled.rate(bid).to_bits(),
                    perflow.rate(fid).to_bits(),
                    "path {:?}: bundled {} != per-flow {}",
                    &paths[pi], bundled.rate(bid), perflow.rate(fid)
                );
            }
        }
    }

    /// Timeline binning conserves every byte it is given.
    #[test]
    fn timeline_conserves_bytes(
        flows in prop::collection::vec((0u64..100, 0u64..50, 1u64..1_000_000), 1..50)
    ) {
        use keddah::flowcap::{FiveTuple, FlowRecord};
        let records: Vec<FlowRecord> = flows
            .iter()
            .map(|&(start, len, bytes)| FlowRecord {
                tuple: FiveTuple {
                    src: NodeId(0),
                    src_port: 1,
                    dst: NodeId(1),
                    dst_port: 13_562,
                },
                start: SimTime::from_secs(start),
                end: SimTime::from_secs(start + len),
                fwd_bytes: bytes,
                rev_bytes: 0,
                packets: 1,
                component: None,
            })
            .collect();
        let expected: u64 = flows.iter().map(|&(_, _, b)| b).sum();
        let tl = Timeline::build(&records, Duration::from_secs(3));
        prop_assert_eq!(tl.total_bytes(), expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The Hadoop simulator finishes and conserves its own accounting on
    /// arbitrary small configurations (slower: fewer cases).
    #[test]
    fn hadoop_sim_accounting(
        racks in 1u32..3,
        per_rack in 2u32..4,
        reducers in 1u32..6,
        gib_quarters in 1u64..6,
        seed in 0u64..50,
    ) {
        use keddah::hadoop::{run_job, ClusterSpec, HadoopConfig, JobSpec, Workload};
        let cluster = ClusterSpec::racks(racks, per_rack);
        let config = HadoopConfig {
            reducers,
            replication: 1 + (seed % 2) as u16,
            ..HadoopConfig::default()
        };
        let job = JobSpec::new(Workload::WordCount, gib_quarters * (256 << 20));
        let run = run_job(&cluster, &config, &job, seed);
        let c = run.counters;
        prop_assert_eq!(c.local_maps + c.rack_local_maps + c.remote_maps, c.maps);
        prop_assert_eq!(c.reducers, reducers);
        let expected_maps = job.input_bytes.div_ceil(config.block_bytes) as u32;
        prop_assert_eq!(c.maps, expected_maps);
        // Capture-side shuffle bytes equal simulator-side accounting.
        let captured: u64 = run
            .trace
            .component_flows(keddah::flowcap::Component::Shuffle)
            .map(|f| f.rev_bytes)
            .sum();
        prop_assert_eq!(captured, c.shuffle_bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Replaying any flow set through a [`StaticSource`] on the shared
    /// DES engine is byte-identical to the flat open-loop simulation.
    #[test]
    fn static_source_matches_open_loop(
        flows in prop::collection::vec(
            (0u32..8, 1u32..8, 1u64..10_000_000, 0u64..10_000),
            1..40
        )
    ) {
        use keddah::faults::FaultSpec;
        use keddah::netsim::{
            simulate, simulate_faulted, FlowSpec, HostId, SimOptions, StaticSource, Topology,
        };
        use keddah::obs::Obs;
        let specs: Vec<FlowSpec> = flows
            .iter()
            .map(|&(src, hop, bytes, start_ms)| FlowSpec {
                src: HostId(src),
                dst: HostId((src + hop) % 8),
                bytes,
                start: SimTime::from_millis(start_ms),
                tag: 0,
            })
            .collect();
        let topo = Topology::star(8, 1e9);
        let opts = SimOptions::default();
        let open = simulate(&topo, &specs, opts);
        let closed = simulate_faulted(
            &topo,
            &mut StaticSource::new(specs),
            &FaultSpec::empty(),
            opts,
            &Obs::disabled(),
        );
        prop_assert_eq!(open.results.len(), closed.results.len());
        for (a, b) in open.results.iter().zip(&closed.results) {
            prop_assert_eq!(a.spec, b.spec);
            prop_assert_eq!(a.finish.as_nanos(), b.finish.as_nanos());
        }
    }

    /// Closed-loop trace replay injects every captured flow exactly once
    /// (bytes are conserved per component) and never lets a dependent
    /// flow finish before its parent.
    #[test]
    fn closed_loop_conserves_flows_and_ordering(
        flows in prop::collection::vec(
            (1u32..6, 1u32..5, 0u64..8_000, 1u64..4_000, 1u64..5_000_000, 0usize..6),
            1..30
        )
    ) {
        use keddah::core::replay::replay_source_observed;
        use keddah::core::source::TraceSource;
        use keddah::flowcap::{Component, FiveTuple, FlowRecord, NodeId, Trace, TraceMeta};
        use keddah::netsim::{SimOptions, Topology};
        use keddah::obs::Obs;
        use std::collections::BTreeMap;

        let records: Vec<FlowRecord> = flows
            .iter()
            .map(|&(src, hop, start_ms, len_ms, bytes, comp)| FlowRecord {
                tuple: FiveTuple {
                    src: NodeId(src),
                    src_port: 40_000,
                    dst: NodeId(1 + (src - 1 + hop) % 5),
                    dst_port: 50_010,
                },
                start: SimTime::from_millis(start_ms),
                end: SimTime::from_millis(start_ms + len_ms),
                fwd_bytes: bytes,
                rev_bytes: 0,
                packets: 2,
                component: Some(Component::ALL[comp]),
            })
            .collect();
        let trace = Trace::new(TraceMeta::default(), records.clone());
        let topo = Topology::star(6, 1e9);
        let mut source = TraceSource::new(&trace, &topo).unwrap();
        let report =
            replay_source_observed(&topo, &mut source, SimOptions::default(), &Obs::disabled());

        // Every flow ran exactly once; per-component bytes survive.
        prop_assert_eq!(report.sim.results.len(), records.len());
        let mut captured: BTreeMap<u32, u64> = BTreeMap::new();
        for f in &records {
            *captured
                .entry(f.component.unwrap_or(Component::Other) as u32)
                .or_default() += f.total_bytes();
        }
        let mut replayed: BTreeMap<u32, u64> = BTreeMap::new();
        for r in &report.sim.results {
            *replayed.entry(r.spec.tag).or_default() += r.spec.bytes;
        }
        let captured: Vec<u64> = captured.into_values().collect();
        let mut replayed: Vec<u64> = replayed.into_values().collect();
        replayed.sort_unstable();
        let mut sorted_captured = captured;
        sorted_captured.sort_unstable();
        prop_assert_eq!(replayed, sorted_captured);

        // Dependents finish no earlier than their parents.
        let order = source.injection_order();
        for (parent, child) in source.edges() {
            let pf = order.iter().position(|&e| e == parent).unwrap();
            let cf = order.iter().position(|&e| e == child).unwrap();
            prop_assert!(
                report.sim.results[cf].finish >= report.sim.results[pf].finish,
                "child entry {child} finished at {:?}, before parent {parent} at {:?}",
                report.sim.results[cf].finish,
                report.sim.results[pf].finish
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Degraded-mode closed-loop runs conserve bytes: over everything a
    /// reactive source injects — initial flows, dependents released on
    /// completion, and replacements re-issued after aborts — delivered
    /// plus lost equals the injected total, and the source hears exactly
    /// one abort callback per aborted flow. With no faults in the
    /// schedule, nothing is lost or aborted.
    #[test]
    fn faulted_closed_loop_conserves_bytes(
        flows in prop::collection::vec(
            (0u32..6, 1u32..6, 1u64..5_000_000, 0u64..6_000),
            1..30
        ),
        faults in prop::collection::vec((0u64..8_000, 0u32..5, 1u32..6), 0..6),
        reissue in any::<bool>(),
    ) {
        use keddah::faults::{FaultKind, FaultSpec, TimedFault};
        use keddah::netsim::{
            simulate_faulted, FlowId, FlowResult, FlowSpec, HostId, SimOptions, Topology,
            TrafficSource,
        };

        /// Chains a dependent flow onto each completion (bounded) and
        /// optionally re-issues aborted transfers once, tracking its own
        /// injected-byte total as the conservation oracle.
        struct ChainSource {
            initial: Vec<FlowSpec>,
            children_left: u32,
            reissues_left: u32,
            injected_bytes: u64,
            aborts_heard: usize,
        }
        impl TrafficSource for ChainSource {
            fn on_start(&mut self) -> Vec<FlowSpec> {
                let f = std::mem::take(&mut self.initial);
                self.injected_bytes += f.iter().map(|s| s.bytes).sum::<u64>();
                f
            }
            fn on_flow_complete(&mut self, _id: FlowId, result: &FlowResult) -> Vec<FlowSpec> {
                if self.children_left == 0 {
                    return Vec::new();
                }
                self.children_left -= 1;
                let child = FlowSpec {
                    src: result.spec.dst,
                    dst: result.spec.src,
                    bytes: result.spec.bytes / 2 + 1,
                    start: result.finish,
                    tag: result.spec.tag,
                };
                self.injected_bytes += child.bytes;
                vec![child]
            }
            fn on_flow_aborted(
                &mut self,
                _id: FlowId,
                result: &FlowResult,
                _lost_bytes: u64,
            ) -> Vec<FlowSpec> {
                self.aborts_heard += 1;
                if self.reissues_left == 0 {
                    return Vec::new();
                }
                self.reissues_left -= 1;
                let re = FlowSpec {
                    start: result.finish,
                    ..result.spec
                };
                self.injected_bytes += re.bytes;
                vec![re]
            }
        }

        let initial: Vec<FlowSpec> = flows
            .iter()
            .map(|&(src, hop, bytes, start_ms)| FlowSpec {
                src: HostId(src),
                dst: HostId((src + hop) % 6),
                bytes,
                start: SimTime::from_millis(start_ms),
                tag: 0,
            })
            .collect();
        let spec = FaultSpec {
            faults: faults
                .iter()
                .map(|&(ms, kind, node)| TimedFault {
                    at_nanos: ms * 1_000_000,
                    kind: match kind {
                        0 => FaultKind::NodeCrash { node },
                        1 => FaultKind::NodeRecover { node },
                        2 => FaultKind::LinkDown { link: node - 1 },
                        3 => FaultKind::LinkDegraded { link: node - 1, factor: 0.5 },
                        _ => FaultKind::Partition { cut: vec![node] },
                    },
                })
                .collect(),
        };

        let topo = Topology::star(6, 1e9);
        let mut source = ChainSource {
            initial,
            children_left: 10,
            reissues_left: if reissue { 5 } else { 0 },
            injected_bytes: 0,
            aborts_heard: 0,
        };
        let report = simulate_faulted(
            &topo,
            &mut source,
            &spec,
            SimOptions::default(),
            &keddah::obs::Obs::disabled(),
        );
        let stats = &report.faults;

        prop_assert!(!stats.diverged, "solver made progress");
        let injected: u64 = report.results.iter().map(|r| r.spec.bytes).sum();
        prop_assert_eq!(injected, source.injected_bytes, "results cover every injection");
        prop_assert_eq!(
            stats.delivered_bytes + stats.lost_bytes,
            source.injected_bytes,
            "delivered {} + lost {} != injected {}",
            stats.delivered_bytes,
            stats.lost_bytes,
            source.injected_bytes
        );
        prop_assert_eq!(
            source.aborts_heard,
            stats.aborted.len(),
            "one abort callback per aborted flow"
        );
        if spec.is_empty() {
            prop_assert_eq!(stats.lost_bytes, 0);
            prop_assert!(stats.aborted.is_empty());
            prop_assert_eq!(stats.faults_applied, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Generated jobs respect the model's structural invariants for any
    /// seed: positive sizes, starts within the padded makespan window,
    /// valid endpoints, sorted arrival order.
    #[test]
    fn generated_jobs_are_well_formed(seed in 0u64..1_000) {
        use keddah::core::pipeline::Keddah;
        use keddah::hadoop::{ClusterSpec, HadoopConfig, JobSpec, Workload};
        // One shared capture (deterministic), many generation seeds.
        let traces = Keddah::capture(
            &ClusterSpec::racks(2, 3),
            &HadoopConfig::default().with_reducers(3),
            &JobSpec::new(Workload::TeraSort, 512 << 20),
            2,
            42,
        );
        let model = Keddah::fit(&traces).expect("model fits");
        let job = model.generate_job(seed);
        prop_assert_eq!(job.nodes, 6);
        prop_assert!(job.makespan >= 1.0);
        let mut prev = 0.0f64;
        for f in &job.flows {
            prop_assert!(f.bytes >= 1);
            prop_assert!(f.start >= prev, "flows sorted by start");
            prev = f.start;
            prop_assert!(f.start <= job.makespan * 1.25 + 1e-9);
            prop_assert!(f.src <= job.nodes && f.dst <= job.nodes);
            prop_assert!(
                f.src != f.dst,
                "no self-flows: {} -> {}",
                f.src,
                f.dst
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The matrix runner's memo key must separate configurations that
    /// differ in any single tunable: a collision would silently serve
    /// one provisioning candidate the cached results of another.
    #[test]
    fn single_field_config_changes_never_collide_in_the_memo_key(
        reducers in 1u32..64,
        slowstart in 0.05f64..1.0,
        slots in 1u32..16,
        replication in 1u16..6,
        block_mib in 16u64..512,
        racks in 1u32..8,
        nodes_per_rack in 1u32..8,
    ) {
        use keddah::core::runner::MatrixCell;
        use keddah::hadoop::{ClusterSpec, HadoopConfig, Workload};

        let base_config = HadoopConfig::default()
            .with_reducers(reducers)
            .with_slowstart(slowstart)
            .with_slots_per_node(slots)
            .with_replication(replication)
            .with_block_bytes(block_mib << 20);
        let base = MatrixCell::new(Workload::TeraSort, 1 << 30, base_config.clone(), 2)
            .with_cluster(ClusterSpec::racks(racks, nodes_per_rack));
        let variants = [
            base_config.clone().with_reducers(reducers + 1),
            base_config.clone().with_slowstart((slowstart * 0.5).max(0.01)),
            base_config.clone().with_slots_per_node(slots + 1),
            base_config.clone().with_replication(replication + 1),
            base_config.clone().with_block_bytes((block_mib + 1) << 20),
        ];
        for variant in variants {
            let cell = MatrixCell::new(Workload::TeraSort, 1 << 30, variant, 2)
                .with_cluster(ClusterSpec::racks(racks, nodes_per_rack));
            prop_assert!(
                cell.config_hash() != base.config_hash(),
                "one-field config change collided"
            );
            prop_assert!(cell.key() != base.key(), "memo keys collided");
        }
        // The cluster is hashed separately and must separate too.
        let other_cluster = base
            .clone()
            .with_cluster(ClusterSpec::racks(racks, nodes_per_rack + 1));
        prop_assert!(other_cluster.cluster_hash() != base.cluster_hash());
        prop_assert!(other_cluster.key() != base.key());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `bounded_sweep_matches_full_sweep` on draws from the families the
    /// bounded sweep may skip (log-logistic and Weibull) and from gamma,
    /// which races them, mixed with block-sized point masses, so that a
    /// family the sweep may skip is often the winner or a near tie. The
    /// samples are large enough for the sweep to bound those families.
    #[test]
    fn bounded_sweep_matches_full_sweep_on_skippable_families(
        family in 0usize..3,
        shape in 0.4f64..12.0,
        scale in 1e2f64..1e8,
        draws in prop::collection::vec(0.001f64..0.999, 2048..3000),
        masses in prop::collection::vec((0usize..4, 1usize..120, 0usize..1000), 0..3),
    ) {
        const BLOCKS: [f64; 4] = [1024.0, 65_536.0, 67_108_864.0, 134_217_728.0];
        let truth = match family {
            0 => FittedDist::LogLogistic(LogLogistic::new(scale, shape).unwrap()),
            1 => FittedDist::Weibull(Weibull::new(shape, scale).unwrap()),
            _ => FittedDist::Gamma(Gamma::new(shape, scale).unwrap()),
        };
        let mut xs: Vec<f64> = draws.iter().map(|&u| truth.quantile(u)).collect();
        for &(block, count, at) in &masses {
            for c in 0..count {
                xs.insert((at + 7 * c) % (xs.len() + 1), BLOCKS[block]);
            }
        }
        let newton_last = [Candidate::Weibull, Candidate::Gamma, Candidate::LogLogistic];
        for candidates in [Candidate::POSITIVE, Candidate::ALL, &newton_last] {
            let all = fit_all(&xs, candidates);
            for max_ks in [0.0, 0.05, EMPIRICAL_FALLBACK_KS, f64::INFINITY] {
                let best = fit_best(&xs, candidates, max_ks);
                prop_assert!(best.is_ok() || all.is_err(), "{best:?} with max_ks {max_ks}");
                let want = all
                    .as_ref()
                    .ok()
                    .and_then(|reports| reports.iter().find(|r| r.ks_statistic <= max_ks));
                let got = best.ok().flatten();
                prop_assert_eq!(
                    got.as_ref().map(report_bits),
                    want.map(report_bits),
                    "{} max_ks {}",
                    truth,
                    max_ks
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `shift_between` scores two samples with `ks_two_sample` on their
    /// finite values, statistic and p-value bit for bit, at any size. Each
    /// side holds 3,500 to 5,000 values, either side of the 4,096 per side
    /// above which a sketched comparison once took over; values tie within
    /// and across the sides on a grid, and non-finite values are mixed in.
    #[test]
    fn shift_between_is_the_exact_two_sample_ks(
        base in prop::collection::vec(0.0f64..10.0, 3_500..5_000),
        degraded in prop::collection::vec(0.0f64..10.0, 3_500..5_000),
        offset in -2.0f64..2.0,
        grid in 0usize..3,
        junk in prop::collection::vec((0usize..10_000, 0usize..3), 0..40),
    ) {
        // No grid, or one of 1 or 1/4.
        let snap = |x: f64| match grid {
            0 => x,
            1 => x.round(),
            _ => (x * 4.0).round() / 4.0,
        };
        let mut base: Vec<f64> = base.into_iter().map(snap).collect();
        let mut degraded: Vec<f64> = degraded.into_iter().map(|x| snap(x + offset)).collect();
        for &(at, kind) in &junk {
            let side = if at % 2 == 0 { &mut base } else { &mut degraded };
            let x = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][kind];
            side.insert(at / 2 % (side.len() + 1), x);
        }
        let finite = |xs: &[f64]| -> Vec<f64> {
            xs.iter().copied().filter(|x| x.is_finite()).collect()
        };
        let (fb, fd) = (finite(&base), finite(&degraded));
        let score = shift_between(&base, &degraded).unwrap();
        let exact = ks_two_sample(&fb, &fd).unwrap();
        prop_assert_eq!(
            (score.n_baseline, score.n_degraded),
            (fb.len() as u64, fd.len() as u64)
        );
        prop_assert_eq!(
            score.ks.to_bits(),
            exact.statistic.to_bits(),
            "KS {} against {} ({} and {} values)",
            score.ks,
            exact.statistic,
            fb.len(),
            fd.len()
        );
        prop_assert_eq!(score.p_value.to_bits(), exact.p_value.to_bits());
    }
}
