//! Fluid flow-level simulation loop, driven by the shared
//! [`keddah_des::Engine`].
//!
//! Flow arrivals, predicted completions and faults are engine events;
//! a [`TrafficSource`] decides which flows exist and may inject dependent
//! flows reactively on every completion (closed-loop replay). Event
//! timestamps quantize to nanoseconds for ordering, but every event
//! carries its precise `f64` time, so the fluid arithmetic never
//! quantizes. Fair-share rates are solved, and the next completion
//! predicted, once per simulated instant (nanosecond), after the
//! instant's last arrival or fault (see "One solve per instant").
//!
//! # Flow bundles
//!
//! Active flows sharing one exact path collapse into a [`Bundle`]: a
//! single weighted fair-share entry plus a cumulative *service curve*
//! counting the bits each member slot has been served. Per-flow state
//! reduces to one number — the absolute service target at which the
//! flow's payload is done — so the per-event work (draining, completion
//! prediction, retirement scan) is O(live bundles), not O(active flows).
//! DC-scale replays have hundreds of distinct paths carrying hundreds of
//! thousands of flows, which is what removes the 100k-flow cliff.
//!
//! Service accounting is integer (Q64 fixed point, see [`Q_SCALE`]), so
//! grouping flows into bundles — or not, via the singleton-bundle oracle
//! [`SimOptions::aggregate`] — never changes any flow's completion time:
//! the golden-replay corpus and the determinism suite pin byte-identical
//! reports across the aggregation knob.
//!
//! # One solve per instant
//!
//! Each fluid event records its fair-share mutations and bumps the
//! prediction generation. Rates are settled only where they are read:
//! before the service curves advance (when time moves) and before a
//! prediction. A prediction is skipped when the next queued event is an
//! `Arrive` or `Fault` at the same nanosecond: that event pops before
//! any completion predicted now, and its own generation would make the
//! prediction stale. A queued `Notify` or stale `Complete` does not
//! predict, so it never lets an event skip. Rates, service curves and
//! predictions are the ones a per-event solve gives, bit for bit; only
//! the solve count and the stale completions in the queue drop.
//!
//! # A flow's life
//!
//! Each step has exactly one implementation: `inject` appends released
//! flows to the arena and schedules their arrivals; `arrive` routes a
//! flow through the fault-aware [`RouteCache`]; `join` and `leave` move
//! a fluid flow in and out of its path's bundle; `complete` records a
//! delivery (mice and bundle members alike); `abort` records a loss
//! (doomed at injection, killed by a fault, or drained after the solver
//! diverged). A flow a fault takes off its path gives its undrained
//! bytes back from that path's [`SimReport::link_bytes`].

use std::collections::{BTreeSet, HashMap};

use keddah_des::{Duration, Engine, EventQueue, SimTime};
use keddah_faults::{FaultKind, FaultSchedule};
use keddah_obs::{Counter, Histogram, Obs};
use serde::{Deserialize, Serialize};

use crate::fair::{FairFlowId, FairShareState};
use crate::routing::RouteCache;
use crate::source::{FlowId, StaticSource, TrafficSource};
use crate::topology::{HostId, LinkId, Topology};

/// A flow to inject: who talks to whom, how much, starting when.
///
/// `tag` is an opaque label carried through to the result (the Keddah
/// replay uses it for the traffic component) and also seeds ECMP path
/// selection together with the flow's position.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Injection time.
    pub start: SimTime,
    /// Opaque label carried into the result.
    pub tag: u32,
}

/// The outcome of one simulated flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowResult {
    /// The injected spec.
    pub spec: FlowSpec,
    /// When the last byte arrived.
    pub finish: SimTime,
}

impl FlowResult {
    /// Flow completion time.
    #[must_use]
    pub fn fct(&self) -> Duration {
        self.finish.saturating_since(self.spec.start)
    }
}

/// Simulation knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Fixed propagation/startup latency added to every flow.
    pub propagation: Duration,
    /// Flows strictly smaller than this bypass the fluid solver and
    /// complete at line rate — the standard "mice fast-path" that keeps
    /// huge control-plane flow counts tractable. Zero disables it.
    pub mouse_threshold: u64,
    /// Rate allotted to host-local flows (loopback), bits/s.
    pub local_bps: f64,
    /// Model TCP slow-start ramp-up: charges each flow
    /// `RTT * log2(segments it must ramp through)` of extra latency, with
    /// RTT = 2 x propagation. Short flows pay proportionally more — the
    /// qualitative FCT effect slow start has in packet simulators. Off
    /// by default (pure fluid model).
    pub tcp_slow_start: bool,
    /// Collapse same-path flows into weighted fluid bundles (`true`, the
    /// default). `false` gives every flow its own singleton bundle and
    /// fair-share entry — the pre-bundle engine's shape, kept as a
    /// correctness oracle and as the `flow_scaling` ablation baseline.
    /// Completion times are identical either way (integer service
    /// accounting; see the module docs).
    pub aggregate: bool,
    /// Has no effect: fair-share solves always run on the calling
    /// thread. Kept so that code setting it still compiles.
    pub solver_jobs: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            propagation: Duration::from_micros(100),
            mouse_threshold: 0,
            local_bps: 10e9,
            tcp_slow_start: false,
            aggregate: true,
            solver_jobs: 0,
        }
    }
}

/// Extra completion latency charged for TCP slow start: one RTT per
/// congestion-window doubling until the flow's data fits the window,
/// capped at the rounds needed for `bytes`.
fn slow_start_delay(bytes: u64, options: &SimOptions) -> f64 {
    if !options.tcp_slow_start || bytes == 0 {
        return 0.0;
    }
    const MSS: f64 = 1448.0;
    let segments = (bytes as f64 / MSS).max(1.0);
    let rounds = segments.log2().ceil().clamp(0.0, 16.0);
    let rtt = 2.0 * options.propagation.as_secs_f64();
    rounds * rtt
}

/// What the fault layer did to a run. All-zero (the `Default`) for
/// fault-free simulations — the clean path never touches it beyond the
/// delivered-byte tally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultStats {
    /// Fault events applied (every scheduled fault fires exactly once).
    pub faults_applied: u64,
    /// Arena indices (= [`FlowId`]) of flows a fault killed, in abort
    /// order. Their [`FlowResult::finish`] is the abort time, so their
    /// FCTs are *not* completion times — consumers filter on this list.
    pub aborted: Vec<usize>,
    /// Payload bytes that never reached their destination (the undrained
    /// remainder of aborted flows, whole payloads for flows killed at
    /// injection).
    pub lost_bytes: u64,
    /// Payload bytes that did arrive, completed flows included. For any
    /// run, `delivered_bytes + lost_bytes` equals the total bytes of all
    /// injected flows — the conservation invariant the fault proptests
    /// pin.
    pub delivered_bytes: u64,
    /// Flows moved onto a surviving path after a `LinkDown`.
    pub rerouted_flows: u64,
    /// The fluid solver hit its iteration guard and drained the run by
    /// aborting everything still active (see the guard in
    /// [`simulate_faulted`]) instead of panicking.
    pub diverged: bool,
}

/// The output of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-flow outcomes, in the same order as the input specs.
    pub results: Vec<FlowResult>,
    /// Payload bytes carried per directed link (by link id). A flow a
    /// fault killed or rerouted counts on each path only the bytes it
    /// moved there.
    pub link_bytes: Vec<u64>,
    /// Largest number of concurrently active fluid flows.
    pub peak_active: usize,
    /// Simulation events processed (arrivals, completions and completion
    /// notifications; stale rate predictions excluded). The throughput
    /// denominator of the `flow_scaling` bench.
    pub events: u64,
    /// Fault accounting; all-zero when no faults were scheduled.
    pub faults: FaultStats,
}

impl SimReport {
    /// Flow completion times in seconds, in input order.
    #[must_use]
    pub fn fcts(&self) -> Vec<f64> {
        self.results.iter().map(|r| r.fct().as_secs_f64()).collect()
    }

    /// The overall makespan: time from the earliest start to the last
    /// finish.
    #[must_use]
    pub fn makespan(&self) -> Duration {
        let start = self.results.iter().map(|r| r.spec.start).min();
        let end = self.results.iter().map(|r| r.finish).max();
        match (start, end) {
            (Some(s), Some(e)) => e.saturating_since(s),
            _ => Duration::ZERO,
        }
    }

    /// Utilisation of the busiest link, as bytes carried divided by
    /// `capacity * makespan`. Returns 0 for an empty run.
    #[must_use]
    pub fn peak_link_utilisation(&self, topo: &Topology) -> f64 {
        let span = self.makespan().as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.link_bytes
            .iter()
            .enumerate()
            .map(|(l, &b)| {
                b as f64 * 8.0 / (topo.link_capacity(crate::topology::LinkId(l as u32)) * span)
            })
            .fold(0.0, f64::max)
    }
}

/// A fluid bundle: the active flows sharing one exact path. The fair
/// allocator sees a single weighted entry per bundle; members drain
/// together along the bundle's cumulative service curve.
struct Bundle {
    /// The shared path (directed link ids); empty for host-local flows.
    links: Vec<u32>,
    /// Weighted fair-share entry, `None` while the bundle is empty.
    fair: Option<FairFlowId>,
    /// Cumulative per-member service in Q64 bits (see [`Q_SCALE`]):
    /// every live member slot has been served exactly this much since
    /// the bundle's creation.
    service: u128,
    /// Members as (absolute service target, flow idx): a member is done
    /// when `service` reaches its target, so the head is always the next
    /// member to finish. Ordering inside a bundle is time-invariant —
    /// members share one rate.
    members: BTreeSet<(u128, u32)>,
    /// Position in the live-bundle list while `fair` is `Some`.
    live_pos: usize,
}

/// Fixed-point scale for bundle service accounting: Q64, i.e. bits
/// × 2^64. Multiplying an `f64` by 2^64 only shifts the exponent
/// (exact), and the `f64 → u128` cast truncates deterministically, so a
/// per-event service increment `((rate * dt) * Q_SCALE) as u128` is the
/// same integer however flows are grouped; integer addition then makes
/// the cumulative curve associative. That grouping-invariance is what
/// lets the singleton-bundle oracle (`aggregate: false`) reproduce
/// bundled runs bit for bit.
const Q_SCALE: f64 = 18_446_744_073_709_551_616.0; // 2^64

/// Sub-byte residues count as drained (8 bits, in Q64): they are
/// numerical dust, and waiting for them can stall the clock entirely
/// once `now + residue/rate` rounds back to `now`.
const RETIRE_EPS_Q: u128 = 8u128 << 64;

/// A payload as a Q64 service amount: `bytes × 8` bits, floored at one
/// bit (a zero-byte flow still occupies its path for one epsilon) and
/// saturated far below the u128 range for pathological sizes.
fn payload_q(bytes: u64) -> u128 {
    (u128::from(bytes) * 8).clamp(1, 1 << 62) << 64
}

/// Back to fractional bits, for predictions and lost-byte accounting.
fn q_to_bits(q: u128) -> f64 {
    (q as f64) / Q_SCALE
}

/// Engine events of the fluid loop. Nanosecond timestamps order events;
/// the precise `f64` times ride in the payloads so drain arithmetic never
/// quantizes.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Flow `id` (arena index) enters the network at its spec's start.
    Arrive { id: usize },
    /// Predicted earliest completion among the active flows, computed at
    /// the previous instant. `gen` invalidates predictions made before
    /// the last fluid event; `at` is the precise predicted time.
    Complete { gen: u64, at: f64 },
    /// Flow `id`'s last byte has arrived: tell the source, which may
    /// inject dependent flows. Never touches fluid state.
    Notify { id: usize },
    /// Scheduled fault `idx` (index into the fault schedule) fires.
    Fault { idx: usize },
}

/// Runs the fluid simulation of `flows` over `topo`: the open-loop,
/// fault-free, unobserved convenience over [`simulate_faulted`].
///
/// Flows are processed in start order; active flows share links by
/// max-min fairness, recomputed once per instant with arrivals or
/// departures. The result vector preserves input order.
///
/// # Panics
///
/// Panics if a flow references a host outside the topology.
///
/// # Examples
///
/// ```
/// use keddah_des::SimTime;
/// use keddah_netsim::{simulate, FlowSpec, HostId, SimOptions, Topology};
///
/// let topo = Topology::star(4, 1e9);
/// let flows = vec![FlowSpec {
///     src: HostId(0),
///     dst: HostId(1),
///     bytes: 125_000_000, // 1 Gb
///     start: SimTime::ZERO,
///     tag: 0,
/// }];
/// let report = simulate(&topo, &flows, SimOptions::default());
/// // Alone on a 1 Gb/s path: ~1 s.
/// assert!((report.results[0].fct().as_secs_f64() - 1.0).abs() < 0.01);
/// ```
#[must_use]
pub fn simulate(topo: &Topology, flows: &[FlowSpec], options: SimOptions) -> SimReport {
    let mut source = StaticSource::new(flows.to_vec());
    simulate_faulted(
        topo,
        &mut source,
        &FaultSchedule::empty(),
        options,
        &Obs::disabled(),
    )
}

/// Runs the fluid simulation of a [`TrafficSource`] under a fault
/// schedule, recording into `obs` — the one event loop every entry point
/// funnels through.
///
/// The source's initial flows are injected at their start times; on
/// every completion the source may return dependent flows, which are
/// injected in turn (starts in the simulated past are clamped to "now").
/// Results are indexed by injection order ([`FlowId`]); a
/// [`StaticSource`] gives open-loop replay.
///
/// Each scheduled fault fires as a DES event at its exact timestamp:
///
/// - `NodeCrash` kills every flow to/from the host (hosts are leaf
///   nodes, so no transit traffic exists) and dooms later arrivals that
///   touch it until a `NodeRecover`;
/// - `LinkDown` marks the link down in the [`RouteCache`], moves each
///   flow crossing it onto a surviving shortest path (keeping its
///   undrained bits) or aborts it when none exists, and zeroes the
///   link's capacity;
/// - `LinkDegraded { factor }` rescales the link's capacity; the link's
///   flows seed the incremental fair-share dirty set, so only their
///   component re-solves;
/// - `Partition { cut }` kills and then dooms flows whose endpoints
///   straddle the cut (a reachability cut — links stay up).
///
/// Aborted flows get a [`FlowResult`] whose `finish` is the abort time,
/// are listed in [`FaultStats::aborted`], and are reported to the source
/// via [`TrafficSource::on_flow_aborted`], which may re-issue them or
/// release their dependents. An empty schedule takes exactly the
/// fault-free arithmetic path; the golden replay corpus pins the
/// byte-identity, and one faulted replay.
///
/// When `obs` is enabled the run emits trace events for engine
/// dispatches (`des`/`dispatch`), flow lifecycle transitions
/// (`netsim`/`flow_arrive`, `flow_complete`, `flow_abort`,
/// `flow_reroute`) and fault firings (`faults`/`fault_fire`), and
/// registers counters/gauges/histograms under the `des`, `netsim` and
/// `faults` subsystems. The `faults` counters mirror the returned
/// [`FaultStats`] exactly. Recording never feeds back into simulation
/// state — the `obs_determinism` integration tests pin byte-identical
/// reports with observability on and off.
///
/// # Panics
///
/// Panics if a flow references a host outside the topology, or (debug
/// builds only) if the fluid solver fails to make progress; release
/// builds recover by draining the run and setting
/// [`FaultStats::diverged`].
#[must_use]
pub fn simulate_faulted(
    topo: &Topology,
    source: &mut dyn TrafficSource,
    schedule: &FaultSchedule,
    options: SimOptions,
    obs: &Obs,
) -> SimReport {
    let c_dispatch = obs.counter("des", "events_dispatched");
    let mut run = Run::new(topo, source, schedule, options, obs);
    let mut engine: Engine<Ev> = Engine::new();
    // Initial arrivals are scheduled in start order (stable), so
    // same-nanosecond arrivals pop in the order the pre-engine loop
    // processed them; one batched heapify seeds even million-flow runs
    // in linear time.
    let flows = &run.flows;
    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_by_key(|&i| flows[i].start);
    engine.schedule_batch(
        order
            .iter()
            .map(|&i| (flows[i].start, Ev::Arrive { id: i })),
    );
    // Fault events after same-time arrivals (FIFO ties), so a crash at a
    // flow's exact start still sees the flow on the wire.
    engine.schedule_batch(
        schedule
            .events()
            .iter()
            .enumerate()
            .map(|(i, fault)| (fault.at(), Ev::Fault { idx: i })),
    );
    // The engine-level tap: every delivered event is visible to the
    // tracer before its handler runs. Read-only, so it cannot perturb
    // the simulation.
    let tap = |t: SimTime, ev: &Ev| {
        c_dispatch.inc();
        let flow_id = match ev {
            Ev::Arrive { id } | Ev::Notify { id } => Some(*id as u64),
            Ev::Complete { .. } | Ev::Fault { .. } => None,
        };
        obs.trace(t.as_nanos(), "des", "dispatch", flow_id, || {
            format!("{ev:?}")
        });
    };
    engine.run_with_tap(tap, |t, ev, queue| run.step(t, ev, queue));
    run.report()
}

/// The fluid loop's state, with one method per step of a flow's life
/// (see the module docs).
struct Run<'a> {
    topo: &'a Topology,
    source: &'a mut dyn TrafficSource,
    schedule: &'a FaultSchedule,
    options: SimOptions,
    obs: &'a Obs,
    router: RouteCache<'a>,
    /// Incremental max-min state, one weighted entry per bundle:
    /// arrivals, retirements and faults record their mutations, and a
    /// settle re-solves only the affected components, so settled rates
    /// are bit-identical to full per-flow progressive filling (see
    /// `fair`). Its capacities are the faulted ones.
    fair: FairShareState,
    /// The flow arena: grows as the source injects. Results and bundle
    /// membership share its indexing (= FlowId = injection order).
    flows: Vec<FlowSpec>,
    results: Vec<Option<FlowResult>>,
    /// A fluid flow's bundle and absolute service target.
    member_of: Vec<Option<(u32, u128)>>,
    /// Same-path flows share one bundle (or each flow its own, under the
    /// no-aggregate oracle); `live` lists the bundles with members.
    bundles: Vec<Bundle>,
    by_path: HashMap<Vec<u32>, u32>,
    live: Vec<u32>,
    active_members: usize,
    peak_active: usize,
    peak_bundles: usize,
    link_bytes: Vec<u64>,
    fstats: FaultStats,
    host_down: Vec<bool>,
    /// Active partition cuts, as host membership masks.
    partitions: Vec<Vec<bool>>,
    now: f64,
    /// Completion predictions older than the last fluid event are stale;
    /// the generation counter, bumped by every fluid event, skips them.
    gen: u64,
    iterations: u64,
    events: u64,
    // Metric handles, registered once; inert when `obs` is disabled.
    c_started: Counter,
    c_completed: Counter,
    c_aborted: Counter,
    c_rerouted: Counter,
    c_mice: Counter,
    h_bytes: Histogram,
    h_fct: Histogram,
}

impl<'a> Run<'a> {
    fn new(
        topo: &'a Topology,
        source: &'a mut dyn TrafficSource,
        schedule: &'a FaultSchedule,
        options: SimOptions,
        obs: &'a Obs,
    ) -> Self {
        let flows = source.on_start();
        let n = flows.len();
        Run {
            topo,
            source,
            schedule,
            options,
            obs,
            router: RouteCache::new(topo),
            fair: FairShareState::new(topo.capacities(), options.local_bps),
            flows,
            results: vec![None; n],
            member_of: vec![None; n],
            bundles: Vec::new(),
            by_path: HashMap::new(),
            live: Vec::new(),
            active_members: 0,
            peak_active: 0,
            peak_bundles: 0,
            link_bytes: vec![0; topo.link_count()],
            fstats: FaultStats::default(),
            host_down: vec![false; topo.host_count() as usize],
            partitions: Vec::new(),
            now: 0.0,
            gen: 0,
            iterations: 0,
            events: 0,
            c_started: obs.counter("netsim", "flows_started"),
            c_completed: obs.counter("netsim", "flows_completed"),
            c_aborted: obs.counter("netsim", "flows_aborted"),
            c_rerouted: obs.counter("netsim", "flows_rerouted"),
            c_mice: obs.counter("netsim", "mice_fastpath"),
            h_bytes: obs.histogram("netsim", "flow_bytes"),
            h_fct: obs.histogram("netsim", "fct_us"),
        }
    }

    /// Handles one engine event at `t`.
    fn step(&mut self, t: SimTime, ev: Ev, queue: &mut EventQueue<Ev>) {
        // The event's precise time: arrivals carry exact nanoseconds,
        // completions their predicted f64.
        let tf = match ev {
            Ev::Arrive { id } => self.flows[id].start.as_secs_f64(),
            Ev::Complete { gen, at } => {
                if gen != self.gen {
                    return; // stale prediction: rates changed since
                }
                at
            }
            Ev::Notify { id } => {
                // Completion callback: the source may release dependents.
                // Fluid state is untouched.
                self.events += 1;
                let result = self.results[id].expect("notified flow has a result");
                let released = self.source.on_flow_complete(FlowId(id), &result);
                self.inject(t, released, queue);
                return;
            }
            Ev::Fault { idx } => self.schedule.events()[idx].at().as_secs_f64(),
        };

        self.iterations += 1;
        self.events += 1;
        if !self.fstats.diverged && self.iterations > 20 * self.flows.len() as u64 + 10_000 {
            // The solver stopped making progress — an internal invariant
            // violation, never expected. Loud in debug builds; release
            // builds must not abort the process mid-fault-scenario, so
            // they recover: drain the run by aborting everything still
            // active (accounted as lost) and doom later arrivals.
            debug_assert!(
                false,
                "fluid simulation failed to converge: {} active flows in {} bundles at t={}",
                self.active_members,
                self.live.len(),
                self.now
            );
            self.fstats.diverged = true;
            for id in self.active(|_, _| true) {
                let finish = SimTime::from_secs_f64(self.now).max(t);
                let (_, lost) = self.evict(id);
                self.abort(t, id, lost, finish, "divergence drain", queue);
            }
        }

        // Advance every live bundle's service curve to the event's
        // precise time — O(bundles), the loop that used to be O(flows).
        // Settle first: an event that skipped its prediction may precede
        // this one by a fraction of the same nanosecond.
        let dt = (tf - self.now).max(0.0);
        if dt > 0.0 {
            self.fair.settle();
            for &bi in &self.live {
                let b = &mut self.bundles[bi as usize];
                let rate = self.fair.live_rate(b.fair.expect("live bundle"));
                b.service = b.service.saturating_add(((rate * dt) * Q_SCALE) as u128);
            }
        }
        self.now = tf;

        match ev {
            Ev::Arrive { id } => self.arrive(t, id, queue),
            Ev::Complete { .. } => self.retire(t, queue),
            Ev::Fault { idx } => self.fault(t, idx, queue),
            Ev::Notify { .. } => unreachable!("handled above"),
        }

        // Re-predict the earliest completion with the post-event rates and
        // remainders, unless an arrival or fault queued for this
        // nanosecond would make the prediction stale (see the module's
        // "One solve per instant"). Only each bundle's head member
        // (minimum target) can finish first — members share one rate — so
        // the fold is O(bundles), not O(flows).
        self.gen += 1;
        let instant_continues = queue.peek().is_some_and(|(at, next)| {
            at == t && matches!(next, Ev::Arrive { .. } | Ev::Fault { .. })
        });
        if instant_continues {
            return;
        }
        self.fair.settle();
        let mut next_completion = f64::INFINITY;
        for &bi in &self.live {
            let b = &self.bundles[bi as usize];
            let &(target, _) = b.members.first().expect("live bundle has members");
            let rem_bits = q_to_bits(target.saturating_sub(b.service));
            let rate = self.fair.live_rate(b.fair.expect("live bundle"));
            next_completion = next_completion.min(self.now + rem_bits / rate.max(1e-9));
        }
        if next_completion.is_finite() {
            queue.push(
                SimTime::from_secs_f64(next_completion).max(t),
                Ev::Complete {
                    gen: self.gen,
                    at: next_completion,
                },
            );
        }
    }

    /// Appends flows the source released at `t` to the arena and
    /// schedules their arrivals. A released flow cannot start before its
    /// trigger: earlier starts clamp to `t`.
    fn inject(&mut self, t: SimTime, specs: Vec<FlowSpec>, queue: &mut EventQueue<Ev>) {
        for mut spec in specs {
            spec.start = spec.start.max(t);
            let id = self.flows.len();
            self.flows.push(spec);
            self.results.push(None);
            self.member_of.push(None);
            queue.push(spec.start, Ev::Arrive { id });
        }
    }

    /// Flow `id` reaches the network: it is lost at once if a fault cut
    /// it off, completes on the mice fast path if small, and otherwise
    /// joins its path's bundle.
    fn arrive(&mut self, t: SimTime, id: usize, queue: &mut EventQueue<Ev>) {
        let spec = self.flows[id];
        self.c_started.inc();
        self.h_bytes.observe(spec.bytes as f64);
        self.obs.trace(
            t.as_nanos(),
            "netsim",
            "flow_arrive",
            Some(id as u64),
            || {
                format!(
                    "src={} dst={} bytes={} tag={}",
                    spec.src.0, spec.dst.0, spec.bytes, spec.tag
                )
            },
        );
        // Flows touching a dead host, straddling a partition or with no
        // surviving path never reach the wire; neither does any arrival
        // after a divergence drain.
        let (src, dst) = (spec.src.0 as usize, spec.dst.0 as usize);
        let cut_off = self.fstats.diverged
            || self.host_down[src]
            || self.host_down[dst]
            || self.partitions.iter().any(|mask| mask[src] != mask[dst]);
        let path = if cut_off {
            None
        } else {
            self.router.route(spec.src, spec.dst, id as u64)
        };
        let Some(path) = path else {
            self.abort(t, id, spec.bytes, t, "doomed at injection", queue);
            return;
        };
        let links: Vec<u32> = path.into_iter().map(|l| l.0).collect();
        for &l in &links {
            self.link_bytes[l as usize] += spec.bytes;
        }
        if spec.bytes < self.options.mouse_threshold {
            // Mice fast-path: uncontended line-rate completion.
            let bottleneck = links
                .iter()
                .map(|&l| self.fair.capacity(l))
                .fold(self.options.local_bps, f64::min);
            let fct = self.options.propagation.as_secs_f64()
                + slow_start_delay(spec.bytes, &self.options)
                + spec.bytes as f64 * 8.0 / bottleneck;
            self.c_mice.inc();
            let finish = SimTime::from_secs_f64(self.now + fct);
            self.complete(t, id, finish, fct * 1e6, "mice fast-path, ", queue);
        } else {
            // Propagation charged up front as extra "bits" at the eventual
            // rate would distort sharing; instead it is added to the
            // finish time on completion.
            self.join(id, links, payload_q(spec.bytes));
        }
    }

    /// Attaches flow `id` to the bundle for `links` with `amount_q` of
    /// service to drain. Under aggregation the bundle is memoized per
    /// path; without it every join creates a fresh singleton bundle — the
    /// oracle shape.
    fn join(&mut self, id: usize, links: Vec<u32>, amount_q: u128) {
        let aggregate = self.options.aggregate;
        let found = if aggregate {
            self.by_path.get(&links).copied()
        } else {
            None
        };
        let bi = found.unwrap_or_else(|| {
            let bi = u32::try_from(self.bundles.len()).expect("bundle count fits u32");
            if aggregate {
                self.by_path.insert(links.clone(), bi);
            }
            self.bundles.push(Bundle {
                links,
                fair: None,
                service: 0,
                members: BTreeSet::new(),
                live_pos: 0,
            });
            bi
        });
        let b = &mut self.bundles[bi as usize];
        match b.fair {
            Some(fid) => self.fair.record_add_weight(fid, 1),
            None => {
                b.fair = Some(self.fair.record_insert(&b.links, 1));
                b.live_pos = self.live.len();
                self.live.push(bi);
            }
        }
        let target = b.service.saturating_add(amount_q);
        b.members.insert((target, id as u32));
        self.member_of[id] = Some((bi, target));
        self.active_members += 1;
        self.peak_active = self.peak_active.max(self.active_members);
        self.peak_bundles = self.peak_bundles.max(self.live.len());
    }

    /// Detaches flow `id` from its bundle, returning its undrained Q64
    /// remainder and the bundle; the last member out retires the
    /// bundle's fair entry.
    fn leave(&mut self, id: usize) -> (u128, u32) {
        let (bi, target) = self.member_of[id].take().expect("flow is an active member");
        let b = &mut self.bundles[bi as usize];
        let removed = b.members.remove(&(target, id as u32));
        debug_assert!(removed, "member set out of sync");
        let fid = b.fair.expect("member bundle is live");
        let rem_q = target.saturating_sub(b.service);
        if b.members.is_empty() {
            b.fair = None;
            let pos = b.live_pos;
            self.live.swap_remove(pos);
            if let Some(&moved) = self.live.get(pos) {
                self.bundles[moved as usize].live_pos = pos;
            }
            self.fair.record_remove(fid);
        } else {
            self.fair.record_sub_weight(fid, 1);
        }
        self.active_members -= 1;
        (rem_q, bi)
    }

    /// Takes a fluid flow off its path before it finished: returns its
    /// undrained remainder, in Q64 bits and in whole bytes, and takes
    /// those bytes back from the path's link tallies.
    fn evict(&mut self, id: usize) -> (u128, u64) {
        let (rem_q, bi) = self.leave(id);
        let undrained = self.flows[id]
            .bytes
            .min((q_to_bits(rem_q) / 8.0).round() as u64);
        for &l in &self.bundles[bi as usize].links {
            self.link_bytes[l as usize] -= undrained;
        }
        (rem_q, undrained)
    }

    /// Active fluid flows matching `hit`, sorted by flow index — one
    /// canonical order whatever the bundling, so the aggregation knob
    /// never reorders aborts or reroutes.
    fn active(&self, hit: impl Fn(&Bundle, &FlowSpec) -> bool) -> Vec<usize> {
        let hit = &hit;
        let mut ids: Vec<usize> = self
            .live
            .iter()
            .flat_map(|&bi| {
                let b = &self.bundles[bi as usize];
                b.members
                    .iter()
                    .map(|&(_, idx)| idx as usize)
                    .filter(move |&idx| hit(b, &self.flows[idx]))
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Retires every member whose target the service curve has reached
    /// (ties complete together). Each bundle's member set is
    /// target-ordered, so the scan is O(bundles + retiring); the
    /// cross-bundle flow-idx sort fixes one canonical processing order
    /// whatever the bundling — the aggregation knob must not reorder
    /// Notify delivery.
    fn retire(&mut self, t: SimTime, queue: &mut EventQueue<Ev>) {
        let mut finished: Vec<u32> = Vec::new();
        for &bi in &self.live {
            let b = &self.bundles[bi as usize];
            let cut = b.service.saturating_add(RETIRE_EPS_Q);
            finished.extend(
                b.members
                    .iter()
                    .take_while(|&&(target, _)| target <= cut)
                    .map(|&(_, idx)| idx),
            );
        }
        if finished.is_empty() && self.active_members > 0 {
            // Guaranteed progress: float rounding left every member just
            // above the epsilon; retire the globally closest (smallest
            // remainder, then smallest idx).
            let closest = self.live.iter().map(|&bi| {
                let b = &self.bundles[bi as usize];
                let &(target, idx) = b.members.first().expect("live bundle has members");
                (target.saturating_sub(b.service), idx)
            });
            finished.extend(closest.min().map(|(_, idx)| idx));
        }
        finished.sort_unstable();
        for idx in finished {
            let id = idx as usize;
            self.leave(id);
            let spec = self.flows[id];
            let extra = self.options.propagation.as_secs_f64()
                + slow_start_delay(spec.bytes, &self.options);
            let finish = SimTime::from_secs_f64(self.now + extra);
            let fct_us = finish.saturating_since(spec.start).as_secs_f64() * 1e6;
            self.complete(t, id, finish, fct_us, "", queue);
        }
    }

    /// Records flow `id`'s last byte arriving at `finish` and schedules
    /// the source's completion callback.
    fn complete(
        &mut self,
        t: SimTime,
        id: usize,
        finish: SimTime,
        fct_us: f64,
        how: &str,
        queue: &mut EventQueue<Ev>,
    ) {
        let spec = self.flows[id];
        self.c_completed.inc();
        self.h_fct.observe(fct_us);
        self.obs.trace(
            finish.as_nanos(),
            "netsim",
            "flow_complete",
            Some(id as u64),
            || format!("{how}fct_us={fct_us:.3}"),
        );
        self.fstats.delivered_bytes += spec.bytes;
        self.results[id] = Some(FlowResult { spec, finish });
        queue.push(finish.max(t), Ev::Notify { id });
    }

    /// Records flow `id` as killed at `finish` with `lost` of its bytes
    /// undelivered, and (unless the run is draining after divergence)
    /// injects whatever the source releases in response.
    fn abort(
        &mut self,
        t: SimTime,
        id: usize,
        lost: u64,
        finish: SimTime,
        why: &str,
        queue: &mut EventQueue<Ev>,
    ) {
        let spec = self.flows[id];
        self.c_aborted.inc();
        self.obs.trace(
            t.as_nanos(),
            "netsim",
            "flow_abort",
            Some(id as u64),
            || format!("{why}, lost_bytes={lost}"),
        );
        self.fstats.lost_bytes += lost;
        self.fstats.delivered_bytes += spec.bytes - lost;
        self.fstats.aborted.push(id);
        let result = FlowResult { spec, finish };
        self.results[id] = Some(result);
        if !self.fstats.diverged {
            let released = self.source.on_flow_aborted(FlowId(id), &result, lost);
            self.inject(t, released, queue);
        }
    }

    /// Applies scheduled fault `idx`: updates the fault state, then
    /// reroutes or aborts the active flows it displaces.
    fn fault(&mut self, t: SimTime, idx: usize, queue: &mut EventQueue<Ev>) {
        let fault = &self.schedule.events()[idx];
        self.fstats.faults_applied += 1;
        self.obs
            .trace(t.as_nanos(), "faults", "fault_fire", None, || {
                fault.describe()
            });
        // A downed link's flows may move to a surviving path; every other
        // victim aborts.
        let mut downed: Option<u32> = None;
        let victims = match &fault.kind {
            FaultKind::NodeCrash { node } if (*node as usize) < self.host_down.len() => {
                let n = *node;
                self.host_down[n as usize] = true;
                self.active(|_, s| s.src.0 == n || s.dst.0 == n)
            }
            FaultKind::NodeRecover { node } if (*node as usize) < self.host_down.len() => {
                self.host_down[*node as usize] = false;
                Vec::new()
            }
            FaultKind::LinkDown { link } if (*link as usize) < self.link_bytes.len() => {
                let l = *link;
                if self.router.set_down(LinkId(l)) {
                    downed = Some(l);
                    self.active(|b, _| b.links.contains(&l))
                } else {
                    Vec::new()
                }
            }
            FaultKind::LinkDegraded { link, factor }
                if (*link as usize) < self.link_bytes.len()
                    && !self.router.is_down(LinkId(*link)) =>
            {
                // The link's bundles seed the incremental dirty set; only
                // their component re-solves.
                let bps = self.topo.link_capacity(LinkId(*link)) * factor.clamp(0.0, 1.0);
                self.fair.record_capacity(*link, bps);
                Vec::new()
            }
            FaultKind::Partition { cut } => {
                let hosts = self.host_down.len() as u32;
                let mask: Vec<bool> = (0..hosts).map(|h| cut.contains(&h)).collect();
                let victims = self.active(|_, s| mask[s.src.0 as usize] != mask[s.dst.0 as usize]);
                self.partitions.push(mask);
                victims
            }
            _ => Vec::new(), // out of range
        };
        for id in victims {
            let (rem_q, undrained) = self.evict(id);
            let spec = self.flows[id];
            let detour = downed.and_then(|_| self.router.route(spec.src, spec.dst, id as u64));
            if let Some(path) = detour {
                // The flow keeps its undrained bits on the surviving path.
                let links: Vec<u32> = path.into_iter().map(|l| l.0).collect();
                for &l in &links {
                    self.link_bytes[l as usize] += undrained;
                }
                let n_links = links.len();
                self.join(id, links, rem_q);
                self.fstats.rerouted_flows += 1;
                self.c_rerouted.inc();
                self.obs.trace(
                    t.as_nanos(),
                    "netsim",
                    "flow_reroute",
                    Some(id as u64),
                    || format!("carried={undrained} onto {n_links} links"),
                );
            } else {
                let finish = SimTime::from_secs_f64(self.now).max(t);
                self.abort(t, id, undrained, finish, "killed by fault", queue);
            }
        }
        if let Some(l) = downed {
            // Zero the dead link's share only after its bundles have left
            // it (no entry may hold a 0-capacity link).
            self.fair.record_capacity(l, 0.0);
        }
    }

    /// The report, plus the end-of-run metrics when `obs` records.
    fn report(self) -> SimReport {
        let obs = self.obs;
        if obs.is_enabled() {
            obs.add("netsim", "events", self.events);
            obs.gauge("netsim", "peak_active")
                .set_max(self.peak_active as u64);
            obs.gauge("netsim", "peak_bundles")
                .set_max(self.peak_bundles as u64);
            obs.gauge("netsim", "fair_solves")
                .set_max(self.fair.solves());
            obs.gauge("netsim", "fair_solved_flows")
                .set_max(self.fair.solved_flows());
            obs.gauge("netsim", "fair_dense_solves")
                .set_max(self.fair.dense_solves());
            // The `faults` counters mirror the returned FaultStats exactly —
            // consumers can cross-check metrics.json against the report.
            let f = &self.fstats;
            obs.add("faults", "faults_applied", f.faults_applied);
            obs.add("faults", "flows_aborted", f.aborted.len() as u64);
            obs.add("faults", "lost_bytes", f.lost_bytes);
            obs.add("faults", "delivered_bytes", f.delivered_bytes);
            obs.add("faults", "rerouted_flows", f.rerouted_flows);
            obs.add("faults", "diverged_runs", u64::from(f.diverged));
        }
        SimReport {
            results: self
                .results
                .into_iter()
                .map(|r| r.expect("every flow completes or aborts"))
                .collect(),
            link_bytes: self.link_bytes,
            peak_active: self.peak_active,
            events: self.events,
            faults: self.fstats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn lone_flow_runs_at_line_rate() {
        let topo = Topology::star(2, 1e9);
        let report = simulate(&topo, &[flow(0, 1, 125_000_000, 0)], SimOptions::default());
        assert!((report.results[0].fct().as_secs_f64() - 1.0).abs() < 0.001);
        assert_eq!(report.peak_active, 1);
    }

    #[test]
    fn two_flows_into_one_host_share() {
        let topo = Topology::star(3, 1e9);
        let flows = [flow(0, 2, 125_000_000, 0), flow(1, 2, 125_000_000, 0)];
        let report = simulate(&topo, &flows, SimOptions::default());
        // Both share host 2's 1 Gb/s downlink: ~2 s each.
        for r in &report.results {
            assert!((r.fct().as_secs_f64() - 2.0).abs() < 0.01, "{:?}", r.fct());
        }
    }

    #[test]
    fn disjoint_flows_do_not_interact() {
        let topo = Topology::star(4, 1e9);
        let flows = [flow(0, 1, 125_000_000, 0), flow(2, 3, 125_000_000, 0)];
        let report = simulate(&topo, &flows, SimOptions::default());
        for r in &report.results {
            assert!((r.fct().as_secs_f64() - 1.0).abs() < 0.01);
        }
    }

    #[test]
    fn late_arrival_slows_first_flow() {
        let topo = Topology::star(3, 1e9);
        // Flow A alone for 0.5 s, then shares with B.
        let flows = [flow(0, 2, 125_000_000, 0), flow(1, 2, 125_000_000, 500)];
        let report = simulate(&topo, &flows, SimOptions::default());
        let a = report.results[0].fct().as_secs_f64();
        // A: 0.5 s alone (half done) + 1 s shared = 1.5 s.
        assert!((a - 1.5).abs() < 0.02, "a = {a}");
    }

    #[test]
    fn one_fair_solve_per_instant() {
        // Four flows into host 4 and a host-local flow, all at t = 0: one
        // instant, so one solve. The four finish together, which empties
        // every link; that instant's settle has nothing left to fill.
        let topo = Topology::star(5, 1e9);
        let mut flows: Vec<FlowSpec> = (0..4).map(|h| flow(h, 4, 125_000_000, 0)).collect();
        flows.insert(2, flow(1, 1, 125_000_000, 0));
        let obs = Obs::enabled();
        let mut source = StaticSource::new(flows);
        let report = simulate_faulted(
            &topo,
            &mut source,
            &FaultSchedule::empty(),
            SimOptions::default(),
            &obs,
        );
        // A quarter of 1 Gb/s for 1 Gb, plus 100 µs propagation; the
        // local flow runs at 10 Gb/s.
        for (i, r) in report.results.iter().enumerate() {
            let want = if i == 2 { 100_100_000 } else { 4_000_100_000 };
            assert_eq!(r.finish, SimTime::from_nanos(want), "flow {i}");
        }
        assert_eq!(obs.metrics().gauge("netsim", "fair_solves"), 1);
    }

    #[test]
    fn prediction_waits_only_for_fluid_events() {
        // The second elephant arrives at the nanosecond the mouse's
        // Notify fires, and pops first. The Notify next in the queue
        // neither changes rates nor predicts, so the arrival must.
        let topo = Topology::star(3, 1e9);
        let opts = SimOptions {
            mouse_threshold: 10_000,
            ..SimOptions::default()
        };
        let mut flows = vec![flow(0, 2, 125_000_000, 0), flow(1, 2, 1_000, 500)];
        flows.push(FlowSpec {
            start: SimTime::from_nanos(500_108_000),
            ..flow(1, 2, 125_000_000, 0)
        });
        let report = simulate(&topo, &flows, opts);
        // The mouse: 100 µs propagation and 8 µs on the wire. The first
        // elephant: 500.108 Mb alone, 499.892 Mb at half rate. The second:
        // 499.892 Mb at half rate, then the rest alone.
        let finish: Vec<u64> = report.results.iter().map(|r| r.finish.as_nanos()).collect();
        assert_eq!(finish, [1_499_992_000, 500_108_000, 2_000_100_000]);

        // An arrival at the nanosecond of the lone elephant's predicted
        // completion pops first; the prediction behind it is stale, so
        // the arrival must predict again.
        let flows = [flow(0, 2, 125_000_000, 0), flow(1, 2, 125_000_000, 1_000)];
        let report = simulate(&topo, &flows, opts);
        let finish: Vec<u64> = report.results.iter().map(|r| r.finish.as_nanos()).collect();
        assert_eq!(finish, [1_000_100_000, 2_000_100_000]);
    }

    #[test]
    fn results_preserve_input_order() {
        let topo = Topology::star(4, 1e9);
        let flows = [flow(2, 3, 1000, 100), flow(0, 1, 1000, 0)];
        let report = simulate(&topo, &flows, SimOptions::default());
        assert_eq!(report.results[0].spec.start, SimTime::from_millis(100));
        assert_eq!(report.results[1].spec.start, SimTime::ZERO);
    }

    #[test]
    fn mice_fast_path() {
        let topo = Topology::star(3, 1e9);
        let opts = SimOptions {
            mouse_threshold: 10_000,
            ..SimOptions::default()
        };
        // One elephant and many mice: mice finish in ~latency regardless.
        let mut flows = vec![flow(0, 2, 1 << 30, 0)];
        for i in 0..100 {
            flows.push(flow(1, 2, 500, i * 10));
        }
        let report = simulate(&topo, &flows, opts);
        assert_eq!(report.peak_active, 1, "mice never enter the fluid set");
        for r in &report.results[1..] {
            assert!(r.fct().as_secs_f64() < 0.001);
        }
    }

    #[test]
    fn local_flows_complete_fast() {
        let topo = Topology::star(2, 1e9);
        let report = simulate(&topo, &[flow(0, 0, 125_000_000, 0)], SimOptions::default());
        // Loopback at 10 Gb/s: 0.1 s.
        assert!((report.results[0].fct().as_secs_f64() - 0.1).abs() < 0.01);
    }

    #[test]
    fn zero_byte_flow_costs_propagation() {
        let topo = Topology::star(2, 1e9);
        let report = simulate(&topo, &[flow(0, 1, 0, 0)], SimOptions::default());
        let fct = report.results[0].fct().as_secs_f64();
        assert!((0.0001..0.001).contains(&fct), "fct = {fct}");
    }

    #[test]
    fn link_bytes_accumulate() {
        let topo = Topology::star(3, 1e9);
        let report = simulate(&topo, &[flow(0, 1, 1000, 0)], SimOptions::default());
        let carried: u64 = report.link_bytes.iter().sum();
        assert_eq!(carried, 2000, "two hops, 1000 bytes each");
    }

    #[test]
    fn oversubscribed_core_slows_cross_rack_traffic() {
        // 4:1 oversubscription: cross-rack flows see a quarter of the
        // rate once enough of them compete for the uplink.
        let nb = Topology::leaf_spine(2, 4, 1, 1e9, 1.0);
        let os = Topology::leaf_spine(2, 4, 1, 1e9, 4.0);
        let flows: Vec<FlowSpec> = (0..4).map(|i| flow(i, 4 + i, 125_000_000, 0)).collect();
        let fast = simulate(&nb, &flows, SimOptions::default());
        let slow = simulate(&os, &flows, SimOptions::default());
        let fast_mean: f64 = fast.fcts().iter().sum::<f64>() / 4.0;
        let slow_mean: f64 = slow.fcts().iter().sum::<f64>() / 4.0;
        assert!(
            slow_mean > 3.0 * fast_mean,
            "oversubscription had no effect: {fast_mean} vs {slow_mean}"
        );
    }

    #[test]
    fn float_residue_does_not_stall_the_clock() {
        // Regression: a completing flow can leave a sub-epsilon residue
        // whose drain time rounds to zero at large `now`, stalling the
        // simulation forever. Many unequal flows sharing links at t≈16 s
        // reproduce the pathology.
        let topo = Topology::star(10, 1e9);
        let mut flows = Vec::new();
        for i in 0..120u64 {
            flows.push(FlowSpec {
                src: HostId((i % 9) as u32),
                dst: HostId(((i + 1) % 9) as u32),
                bytes: 100_000_000 + i * 7_919 + i * i * 13,
                start: SimTime::from_nanos(16_000_000_000 + i * 41_000_000),
                tag: 0,
            });
        }
        let report = simulate(&topo, &flows, SimOptions::default());
        assert_eq!(report.results.len(), 120);
        assert!(report.makespan().as_secs_f64() > 1.0);
    }

    #[test]
    fn slow_start_penalizes_short_flows_relatively_more() {
        let topo = Topology::star(3, 1e9);
        let opts_ss = SimOptions {
            tcp_slow_start: true,
            propagation: Duration::from_millis(1), // RTT = 2 ms
            ..SimOptions::default()
        };
        let opts_fluid = SimOptions {
            propagation: Duration::from_millis(1),
            ..SimOptions::default()
        };
        let short = [flow(0, 1, 100_000, 0)];
        let long = [flow(0, 1, 100_000_000, 0)];
        let rel = |flows: &[FlowSpec]| {
            let with = simulate(&topo, flows, opts_ss).results[0]
                .fct()
                .as_secs_f64();
            let without = simulate(&topo, flows, opts_fluid).results[0]
                .fct()
                .as_secs_f64();
            (with - without) / without
        };
        let short_penalty = rel(&short);
        let long_penalty = rel(&long);
        assert!(
            short_penalty > 5.0 * long_penalty,
            "{short_penalty} vs {long_penalty}"
        );
        assert!(long_penalty >= 0.0);
    }

    /// A clean, unobserved run of a reactive source.
    fn run_source(topo: &Topology, source: &mut dyn TrafficSource) -> SimReport {
        simulate_faulted(
            topo,
            source,
            &FaultSchedule::empty(),
            SimOptions::default(),
            &Obs::disabled(),
        )
    }

    /// A source that releases one dependent flow when its parent (flow 0)
    /// completes.
    struct ChainSource {
        first: Option<FlowSpec>,
        child: Option<FlowSpec>,
        releases: Vec<(usize, SimTime)>,
    }

    impl TrafficSource for ChainSource {
        fn on_start(&mut self) -> Vec<FlowSpec> {
            self.first.take().into_iter().collect()
        }
        fn on_flow_complete(&mut self, id: FlowId, result: &FlowResult) -> Vec<FlowSpec> {
            self.releases.push((id.0, result.finish));
            if id.0 == 0 {
                self.child.take().into_iter().collect()
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn source_injects_dependent_flow_after_parent() {
        let topo = Topology::star(3, 1e9);
        let mut source = ChainSource {
            first: Some(flow(0, 2, 125_000_000, 0)),
            child: Some(flow(1, 2, 125_000_000, 0)),
            releases: Vec::new(),
        };
        let report = run_source(&topo, &mut source);
        assert_eq!(report.results.len(), 2);
        // Parent runs alone (~1 s), child starts only after it finishes.
        let parent = report.results[0];
        let child = report.results[1];
        assert!((parent.fct().as_secs_f64() - 1.0).abs() < 0.01);
        assert!(child.spec.start >= parent.finish, "child waits for parent");
        assert!((child.fct().as_secs_f64() - 1.0).abs() < 0.01);
        // The source heard about both completions, parent first.
        assert_eq!(source.releases.len(), 2);
        assert_eq!(source.releases[0].0, 0);
    }

    #[test]
    fn static_source_matches_simulate() {
        let topo = Topology::star(6, 1e9);
        let flows: Vec<FlowSpec> = (0..20)
            .map(|i| {
                flow(
                    i % 5,
                    (i + 1) % 5,
                    1_000_000 + u64::from(i) * 77_777,
                    u64::from(i) * 13,
                )
            })
            .collect();
        let direct = simulate(&topo, &flows, SimOptions::default());
        let mut source = StaticSource::new(flows.clone());
        let via_source = run_source(&topo, &mut source);
        assert_eq!(direct.results, via_source.results);
        assert_eq!(direct.link_bytes, via_source.link_bytes);
        assert_eq!(direct.peak_active, via_source.peak_active);
    }

    #[test]
    fn past_start_times_clamp_to_release() {
        // A child spec claiming to start at t=0 is injected when its
        // parent completes (~1 s): the start clamps forward, never back.
        let topo = Topology::star(3, 1e9);
        let mut source = ChainSource {
            first: Some(flow(0, 1, 125_000_000, 500)),
            child: Some(flow(1, 2, 1_000, 0)),
            releases: Vec::new(),
        };
        let report = run_source(&topo, &mut source);
        assert_eq!(report.results[1].spec.start, report.results[0].finish);
    }

    #[test]
    fn makespan_and_utilisation() {
        let topo = Topology::star(2, 1e9);
        let report = simulate(&topo, &[flow(0, 1, 125_000_000, 0)], SimOptions::default());
        assert!((report.makespan().as_secs_f64() - 1.0).abs() < 0.01);
        let util = report.peak_link_utilisation(&topo);
        assert!(util > 0.9 && util <= 1.01, "util = {util}");
    }

    // ---- fault layer ----

    use keddah_faults::{FaultSpec, TimedFault};

    fn schedule(faults: Vec<TimedFault>) -> FaultSchedule {
        FaultSpec { faults }.schedule()
    }

    fn fault(at_nanos: u64, kind: FaultKind) -> TimedFault {
        TimedFault { at_nanos, kind }
    }

    fn run_static(topo: &Topology, flows: &[FlowSpec], sched: &FaultSchedule) -> SimReport {
        let mut source = StaticSource::new(flows.to_vec());
        simulate_faulted(
            topo,
            &mut source,
            sched,
            SimOptions::default(),
            &Obs::disabled(),
        )
    }

    fn conserved(report: &SimReport) {
        let offered: u64 = report.results.iter().map(|r| r.spec.bytes).sum();
        assert_eq!(
            report.faults.delivered_bytes + report.faults.lost_bytes,
            offered,
            "byte conservation"
        );
    }

    #[test]
    fn empty_schedule_is_bit_identical_to_simulate() {
        let topo = Topology::leaf_spine(2, 3, 2, 1e9, 2.0);
        let flows: Vec<FlowSpec> = (0..12)
            .map(|i| {
                flow(
                    i % 6,
                    (i + 2) % 6,
                    5_000_000 + u64::from(i) * 997,
                    u64::from(i) * 17,
                )
            })
            .collect();
        let clean = simulate(&topo, &flows, SimOptions::default());
        let faulted = run_static(&topo, &flows, &FaultSchedule::empty());
        assert_eq!(clean.results, faulted.results);
        assert_eq!(clean.link_bytes, faulted.link_bytes);
        assert_eq!(clean.events, faulted.events);
        assert_eq!(faulted.faults.faults_applied, 0);
        assert!(faulted.faults.aborted.is_empty());
        conserved(&faulted);
    }

    #[test]
    fn node_crash_aborts_active_and_dooms_later_flows() {
        let topo = Topology::star(3, 1e9);
        // Flow 0 is mid-transfer at the crash; flow 1 arrives after it.
        let flows = [flow(0, 2, 125_000_000, 0), flow(1, 2, 1_000_000, 800)];
        let sched = schedule(vec![fault(500_000_000, FaultKind::NodeCrash { node: 2 })]);
        let report = run_static(&topo, &flows, &sched);
        assert_eq!(report.faults.aborted, vec![0, 1]);
        // Flow 0 aborts at the crash instant, half delivered.
        let abort_at = report.results[0].finish.as_secs_f64();
        assert!((abort_at - 0.5).abs() < 0.01, "aborted at {abort_at}");
        assert!(report.faults.lost_bytes > 60_000_000);
        // Flow 1 never reaches the wire: lost in full, fct 0.
        assert_eq!(report.results[1].finish, report.results[1].spec.start);
        conserved(&report);
        // Flow 0's path (host 0 up, host 2 down) carried only what it
        // delivered; nothing else crossed any link.
        let delivered = 125_000_000 - (report.faults.lost_bytes - 1_000_000);
        assert_eq!(report.faults.delivered_bytes, delivered);
        for (l, &bytes) in report.link_bytes.iter().enumerate() {
            let want = if l == 0 || l == 5 { delivered } else { 0 };
            assert_eq!(bytes, want, "link {l}");
        }
    }

    #[test]
    fn node_recover_reopens_the_host() {
        let topo = Topology::star(3, 1e9);
        let flows = [flow(0, 1, 1_000_000, 200), flow(0, 1, 1_000_000, 900)];
        let sched = schedule(vec![
            fault(100_000_000, FaultKind::NodeCrash { node: 1 }),
            fault(600_000_000, FaultKind::NodeRecover { node: 1 }),
        ]);
        let report = run_static(&topo, &flows, &sched);
        assert_eq!(
            report.faults.aborted,
            vec![0],
            "only the pre-recovery flow dies"
        );
        assert!(report.results[1].fct().as_secs_f64() < 0.1);
        conserved(&report);
    }

    #[test]
    fn link_down_reroutes_over_surviving_spine() {
        // Two spines: the victim flow's uplink dies mid-transfer and the
        // flow continues over the other spine with its remaining bits.
        let topo = Topology::leaf_spine(2, 2, 2, 1e9, 1.0);
        let flows = [flow(0, 3, 125_000_000, 0)];
        let clean = run_static(&topo, &flows, &FaultSchedule::empty());
        // The first fabric link the flow used (host links carry bytes
        // too; any non-host link on its path works — pick the first link
        // with traffic that is not the host access link pair).
        let used: Vec<usize> = clean
            .link_bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0)
            .map(|(l, _)| l)
            .collect();
        // Down a used leaf->spine link: in this fabric hosts 0..4 own
        // links 0..8 (two per cable); fabric links follow.
        let fabric_link = *used.iter().find(|&&l| l >= 8).expect("fabric link used") as u32;
        let sched = schedule(vec![fault(
            400_000_000,
            FaultKind::LinkDown { link: fabric_link },
        )]);
        let report = run_static(&topo, &flows, &sched);
        assert_eq!(report.faults.rerouted_flows, 1);
        assert!(report.faults.aborted.is_empty());
        // Completes (a touch later than clean is fine; equal-capacity
        // alternative exists).
        let fct = report.results[0].fct().as_secs_f64();
        assert!((0.9..2.0).contains(&fct), "fct = {fct}");
        conserved(&report);
        // The host links carried the whole payload. The fabric hops of
        // the old path carried the 0.4 s at 1 Gb/s before the failure,
        // those of the detour the rest, and no byte counts twice.
        let detour: Vec<usize> = (0..report.link_bytes.len())
            .filter(|&l| report.link_bytes[l] > 0 && clean.link_bytes[l] == 0)
            .collect();
        assert_eq!(detour.len(), 2, "leaf -> other spine -> leaf");
        for l in 0..report.link_bytes.len() {
            let (before, after) = (clean.link_bytes[l], report.link_bytes[l]);
            if l < 8 {
                assert_eq!(after, before, "host link {l}");
            } else if before > 0 {
                assert_eq!(after, 50_000_000, "old fabric hop {l}");
            } else if detour.contains(&l) {
                assert_eq!(after, 75_000_000, "detour hop {l}");
            }
        }
    }

    #[test]
    fn link_down_without_alternative_aborts() {
        // A star host has exactly one downlink: kill it and the flow has
        // nowhere to go.
        let topo = Topology::star(3, 1e9);
        let clean = run_static(
            &topo,
            &[flow(0, 1, 125_000_000, 0)],
            &FaultSchedule::empty(),
        );
        let used: Vec<u32> = clean
            .link_bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0)
            .map(|(l, _)| l as u32)
            .collect();
        assert_eq!(used.len(), 2, "host uplink + host downlink");
        for &link in &used {
            let sched = schedule(vec![fault(300_000_000, FaultKind::LinkDown { link })]);
            let report = run_static(&topo, &[flow(0, 1, 125_000_000, 0)], &sched);
            assert_eq!(report.faults.aborted, vec![0], "link {link}");
            assert_eq!(report.faults.rerouted_flows, 0);
            conserved(&report);
        }
    }

    #[test]
    fn link_degraded_stretches_completion() {
        let topo = Topology::star(2, 1e9);
        let flows = [flow(0, 1, 125_000_000, 0)];
        // Find the loaded links, then halve both from t=0 (the fault
        // event schedules after the same-instant arrival).
        let clean = run_static(&topo, &flows, &FaultSchedule::empty());
        let faults: Vec<TimedFault> = clean
            .link_bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0)
            .map(|(l, _)| {
                fault(
                    0,
                    FaultKind::LinkDegraded {
                        link: l as u32,
                        factor: 0.5,
                    },
                )
            })
            .collect();
        let report = run_static(&topo, &flows, &schedule(faults));
        let fct = report.results[0].fct().as_secs_f64();
        assert!(
            (fct - 2.0).abs() < 0.05,
            "halved capacity => doubled fct, got {fct}"
        );
        assert!(report.faults.aborted.is_empty());
        conserved(&report);
    }

    #[test]
    fn partition_kills_only_crossing_flows() {
        let topo = Topology::star(4, 1e9);
        let flows = [
            flow(0, 1, 125_000_000, 0), // inside the cut
            flow(1, 2, 125_000_000, 0), // crosses
            flow(2, 3, 125_000_000, 0), // outside
        ];
        let sched = schedule(vec![fault(
            200_000_000,
            FaultKind::Partition { cut: vec![0, 1] },
        )]);
        let report = run_static(&topo, &flows, &sched);
        assert_eq!(report.faults.aborted, vec![1]);
        assert!(report.results[0].fct().as_secs_f64() > 0.5);
        assert!(report.results[2].fct().as_secs_f64() > 0.5);
        conserved(&report);
    }

    /// A source that re-issues every aborted flow once, from a surviving
    /// host.
    struct RetrySource {
        initial: Vec<FlowSpec>,
        retries: usize,
    }

    impl TrafficSource for RetrySource {
        fn on_start(&mut self) -> Vec<FlowSpec> {
            std::mem::take(&mut self.initial)
        }
        fn on_flow_complete(&mut self, _id: FlowId, _result: &FlowResult) -> Vec<FlowSpec> {
            Vec::new()
        }
        fn on_flow_aborted(
            &mut self,
            _id: FlowId,
            result: &FlowResult,
            lost_bytes: u64,
        ) -> Vec<FlowSpec> {
            self.retries += 1;
            if self.retries > 1 {
                return Vec::new(); // retry once, then accept the loss
            }
            vec![FlowSpec {
                src: HostId(0),
                dst: HostId(1),
                bytes: lost_bytes,
                start: result.finish,
                tag: 99,
            }]
        }
    }

    #[test]
    fn observed_run_matches_plain_and_mirrors_fault_stats() {
        let topo = Topology::star(3, 1e9);
        let flows = [flow(0, 2, 125_000_000, 0), flow(1, 2, 1_000_000, 800)];
        let sched = schedule(vec![fault(500_000_000, FaultKind::NodeCrash { node: 2 })]);
        let plain = run_static(&topo, &flows, &sched);
        let obs = Obs::enabled();
        let mut source = StaticSource::new(flows.to_vec());
        let observed = simulate_faulted(&topo, &mut source, &sched, SimOptions::default(), &obs);
        assert_eq!(plain.results, observed.results);
        assert_eq!(plain.link_bytes, observed.link_bytes);
        assert_eq!(plain.faults, observed.faults);
        let snap = obs.metrics();
        assert_eq!(
            snap.counter("faults", "flows_aborted"),
            observed.faults.aborted.len() as u64
        );
        assert_eq!(
            snap.counter("faults", "lost_bytes"),
            observed.faults.lost_bytes
        );
        assert_eq!(snap.counter("netsim", "flows_started"), 2);
        assert!(snap.counter("des", "events_dispatched") >= observed.events);
        let events = obs.trace_events();
        assert!(events.iter().any(|e| e.kind == "fault_fire"));
        assert!(events.iter().any(|e| e.kind == "flow_abort"));
    }

    #[test]
    fn aborted_flows_can_be_reissued_by_the_source() {
        let topo = Topology::star(4, 1e9);
        let mut source = RetrySource {
            initial: vec![flow(2, 3, 125_000_000, 0)],
            retries: 0,
        };
        let sched = schedule(vec![fault(500_000_000, FaultKind::NodeCrash { node: 3 })]);
        let report = simulate_faulted(
            &topo,
            &mut source,
            &sched,
            SimOptions::default(),
            &Obs::disabled(),
        );
        assert_eq!(source.retries, 1);
        assert_eq!(report.results.len(), 2, "retry was injected");
        let retry = report.results[1];
        assert_eq!(retry.spec.tag, 99);
        assert!(retry.spec.start >= report.results[0].finish);
        assert!(retry.finish > retry.spec.start, "retry completed");
        // Conservation holds across the original + reissued flows.
        conserved(&report);
    }
}
