//! Max-min fair bandwidth allocation.
//!
//! The fluid abstraction of TCP used by flow-level simulators: at any
//! instant, active flows receive the max-min fair allocation over the
//! links they traverse, computed by progressive filling. This is the
//! bandwidth-sharing model under which the replay experiments run.
//!
//! Two entry points share the arithmetic:
//!
//! * [`max_min_rates`] — the pure from-scratch solver over one flow set;
//! * [`FairShareState`] — an incremental allocator that keeps per-link
//!   flow adjacency between events and, on each [`insert_flow`] /
//!   [`remove_flow`], re-solves only the *affected component*: the flows
//!   transitively connected to the mutated flow through shared links.
//!   Its rates are **bit-for-bit identical** to [`max_min_rates`] over
//!   the full active set after every mutation (see the module's
//!   equivalence argument below), which is what keeps same-seed replays
//!   byte-identical whichever path runs.
//!
//! # Why component-scoped re-solving is exact
//!
//! Progressive filling over a union of link-disjoint flow components
//! performs, per component, the same floating-point operations as
//! filling each component alone:
//!
//! * a link's `remaining` capacity is only ever decremented by flows
//!   crossing that link, i.e. flows of its own component;
//! * the bottleneck selection order *within* a component depends only on
//!   that component's shares plus the global link index used to break
//!   ties, never on other components' links;
//! * within one freeze round every frozen flow subtracts the *same*
//!   share value, so the order of subtractions (and `.max(0.0)` clamps)
//!   on any given link cannot change the result.
//!
//! Hence a flow's rate is a function of its component only, and cached
//! rates of untouched components remain exactly what a from-scratch
//! solve would produce. The property test
//! `incremental_fair_share_matches_full` pins this with exact
//! (bitwise) equality, well inside the 1e-9 budget.
//!
//! # Weighted entries (flow bundles)
//!
//! [`insert_weighted`] registers one entry standing for `w` identical
//! flows — same links, same (per-member) rate. The weighted solve is
//! bit-identical to inserting the `w` members individually:
//!
//! * members of a bundle share one link set, so in the per-flow solve
//!   they are symmetric: all freeze in the same round at the same share;
//! * a link's unfrozen count under weights is the sum of member counts —
//!   the same integer the per-flow solve divides by;
//! * freezing a weight-`w` entry performs `w` literal
//!   `(remaining - share).max(0.0)` subtractions per crossed link — the
//!   member-wise rounding sequence — and within one freeze round every
//!   subtraction uses the *same* share value, so interleaving members of
//!   different bundles (as the per-flow solve may) cannot change any
//!   intermediate, let alone the result.
//!
//! The only shortcut taken: when a freeze drops a link's unfrozen count
//! to zero, its `remaining` is never read again this solve, so the
//! member-wise drain is skipped. That makes single-bundle components
//! O(links) instead of O(members), which is what keeps million-flow
//! bundles solvable per event. The `aggregated_rates_match_per_flow`
//! proptest pins the bitwise equivalence.
//!
//! # Parallel component solves
//!
//! [`with_parallel`](FairShareState::with_parallel) lets the dense
//! (full-refill) path solve independent components on scoped threads.
//! Components are link-disjoint, so their solves share no state; results
//! are merged in ascending component index. By the equivalence argument
//! above the rates are bit-identical at any thread count — the
//! determinism suite pins solver width as a no-op on replay output.
//!
//! [`insert_flow`]: FairShareState::insert_flow
//! [`insert_weighted`]: FairShareState::insert_weighted
//! [`remove_flow`]: FairShareState::remove_flow

/// Computes max-min fair rates (bits/s) for a set of flows.
///
/// `flow_links[i]` lists the directed link indices flow `i` traverses
/// (an empty list means the flow never leaves its host and is allocated
/// `local_bps`). `capacities[l]` is link `l`'s capacity in bits/s.
///
/// Runs progressive filling: repeatedly find the most-constrained link
/// (smallest capacity share per unfrozen flow), freeze its flows at that
/// share, remove the consumed capacity, and continue until every flow is
/// frozen.
///
/// # Panics
///
/// Panics in debug builds if a flow references an out-of-range link.
///
/// # Examples
///
/// ```
/// use keddah_netsim::fair::max_min_rates;
///
/// // Two flows share link 0 (10 bps); flow 1 also crosses link 1 (2 bps).
/// let rates = max_min_rates(&[vec![0], vec![0, 1]], &[10.0, 2.0], 100.0);
/// assert!((rates[1] - 2.0).abs() < 1e-9); // bottlenecked on link 1
/// assert!((rates[0] - 8.0).abs() < 1e-9); // picks up the slack
/// ```
#[must_use]
pub fn max_min_rates(flow_links: &[Vec<u32>], capacities: &[f64], local_bps: f64) -> Vec<f64> {
    let n = flow_links.len();
    let mut rates = vec![0.0f64; n];
    if n == 0 {
        return rates;
    }
    let mut frozen = vec![false; n];
    let mut remaining: Vec<f64> = capacities.to_vec();
    // Flows on each link, and per-link unfrozen counts.
    let mut link_flows: Vec<Vec<u32>> = vec![Vec::new(); capacities.len()];
    for (i, links) in flow_links.iter().enumerate() {
        for &l in links {
            debug_assert!((l as usize) < capacities.len(), "link out of range");
            link_flows[l as usize].push(i as u32);
        }
        if links.is_empty() {
            rates[i] = local_bps;
            frozen[i] = true;
        }
    }
    let mut unfrozen_on: Vec<u32> = link_flows
        .iter()
        .enumerate()
        .map(|(l, flows)| {
            let _ = l;
            flows.iter().filter(|&&f| !frozen[f as usize]).count() as u32
        })
        .collect();

    loop {
        // Find the bottleneck link: smallest fair share among links with
        // unfrozen flows.
        let mut best: Option<(usize, f64)> = None;
        for (l, &count) in unfrozen_on.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let share = (remaining[l] / count as f64).max(0.0);
            match best {
                Some((_, s)) if s <= share => {}
                _ => best = Some((l, share)),
            }
        }
        let Some((bottleneck, share)) = best else {
            break; // all flows frozen
        };
        // Freeze every unfrozen flow crossing the bottleneck at `share`,
        // and charge that rate to every link each flow crosses.
        let flows_here: Vec<u32> = link_flows[bottleneck]
            .iter()
            .copied()
            .filter(|&f| !frozen[f as usize])
            .collect();
        for f in flows_here {
            if frozen[f as usize] {
                // A flow that crosses the bottleneck twice appears twice
                // in the collected list; freeze it only once.
                continue;
            }
            frozen[f as usize] = true;
            rates[f as usize] = share;
            for &l in &flow_links[f as usize] {
                remaining[l as usize] = (remaining[l as usize] - share).max(0.0);
                unfrozen_on[l as usize] -= 1;
            }
        }
    }
    rates
}

/// Handle to a flow registered with a [`FairShareState`].
///
/// Handles are arena slots: stable while the flow is active, recycled
/// after [`FairShareState::remove_flow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FairFlowId(pub u32);

#[derive(Debug, Clone, Default)]
struct FlowSlot {
    links: Vec<u32>,
    /// Member flows this entry stands for (1 = a plain flow; >1 = a
    /// bundle of identical flows sharing the link set and the rate).
    weight: u32,
    alive: bool,
}

/// Incremental max-min fair allocator.
///
/// Maintains the active flow set, per-link flow adjacency and per-flow
/// rates across mutations. Inserting or removing a flow re-solves only
/// the affected component (flows transitively sharing links with the
/// mutated flow); when that dirty set reaches 64 entries and more than
/// 75% of the entries on links, the whole set is refilled with dense
/// per-link arrays instead, which produces the same rates at a lower
/// constant factor.
///
/// # Examples
///
/// ```
/// use keddah_netsim::fair::{max_min_rates, FairShareState};
///
/// let mut state = FairShareState::new(vec![10.0, 2.0], 100.0);
/// let a = state.insert_flow(&[0]);
/// let b = state.insert_flow(&[0, 1]);
/// assert!((state.rate(b) - 2.0).abs() < 1e-12); // bottlenecked on link 1
/// assert!((state.rate(a) - 8.0).abs() < 1e-12); // picks up the slack
/// // Exactly the from-scratch allocation:
/// let full = max_min_rates(&[vec![0], vec![0, 1]], &[10.0, 2.0], 100.0);
/// assert_eq!(vec![state.rate(a), state.rate(b)], full);
/// state.remove_flow(b);
/// assert_eq!(state.rate(a), 10.0);
/// ```
#[derive(Debug)]
pub struct FairShareState {
    capacities: Vec<f64>,
    local_bps: f64,
    slots: Vec<FlowSlot>,
    rates: Vec<f64>,
    free: Vec<u32>,
    /// link -> active entries crossing it, one entry per crossing (an
    /// entry listing a link twice appears twice).
    link_flows: Vec<Vec<u32>>,
    /// Active member flows (weights summed), local (link-less) included.
    active: usize,
    /// Active *entries* (not members) that traverse at least one link —
    /// the dense-fallback heuristic's denominator.
    active_on_links: usize,
    /// Scoped threads the dense path may fan components out over
    /// (1 = sequential). Rates are identical at any width.
    parallel: usize,

    // Stamped scratch maps: an entry is valid iff its stamp equals
    // `stamp`, so per-solve clearing is O(touched), not O(total).
    stamp: u64,
    flow_mark: Vec<u64>,
    flow_local: Vec<u32>,
    link_mark: Vec<u64>,
    link_local: Vec<u32>,

    // Instrumentation for benches and the DESIGN ablation.
    solves: u64,
    solved_flows: u64,
    dense_solves: u64,
}

impl FairShareState {
    /// Creates an empty allocator over links with the given capacities;
    /// flows with no links are allocated `local_bps`.
    #[must_use]
    pub fn new(capacities: Vec<f64>, local_bps: f64) -> Self {
        let n_links = capacities.len();
        FairShareState {
            capacities,
            local_bps,
            slots: Vec::new(),
            rates: Vec::new(),
            free: Vec::new(),
            link_flows: vec![Vec::new(); n_links],
            active: 0,
            active_on_links: 0,
            parallel: 1,
            stamp: 0,
            flow_mark: Vec::new(),
            flow_local: Vec::new(),
            link_mark: vec![0; n_links],
            link_local: vec![0; n_links],
            solves: 0,
            solved_flows: 0,
            dense_solves: 0,
        }
    }

    /// Lets dense refills solve independent components on up to `jobs`
    /// scoped threads (see the module's parallel-solve section). Rates
    /// are bit-identical at any width; 1 (the default) is sequential.
    #[must_use]
    pub fn with_parallel(mut self, jobs: usize) -> Self {
        self.parallel = jobs.max(1);
        self
    }

    /// Registers a flow crossing `links` and re-solves the affected
    /// component. An empty link list is a host-local flow, allocated the
    /// local rate immediately.
    ///
    /// # Panics
    ///
    /// Panics if a link index is out of range.
    pub fn insert_flow(&mut self, links: &[u32]) -> FairFlowId {
        self.insert_weighted(links, 1)
    }

    /// Registers a *bundle*: one entry standing for `weight` identical
    /// flows crossing `links`. The entry's rate is the **per-member**
    /// rate, bit-identical to inserting the members individually (see
    /// the module's weighted-entries section).
    ///
    /// # Panics
    ///
    /// Panics if a link index is out of range or `weight` is zero.
    pub fn insert_weighted(&mut self, links: &[u32], weight: u32) -> FairFlowId {
        assert!(weight > 0, "a fair-share entry needs at least one member");
        for &l in links {
            assert!(
                (l as usize) < self.capacities.len(),
                "link {l} out of range"
            );
        }
        let id = if let Some(slot) = self.free.pop() {
            self.slots[slot as usize].links.clear();
            self.slots[slot as usize].links.extend_from_slice(links);
            self.slots[slot as usize].weight = weight;
            self.slots[slot as usize].alive = true;
            slot
        } else {
            self.slots.push(FlowSlot {
                links: links.to_vec(),
                weight,
                alive: true,
            });
            self.rates.push(0.0);
            self.flow_mark.push(0);
            self.flow_local.push(0);
            (self.slots.len() - 1) as u32
        };
        self.active += weight as usize;
        if links.is_empty() {
            self.rates[id as usize] = self.local_bps;
            return FairFlowId(id);
        }
        self.active_on_links += 1;
        for &l in links {
            self.link_flows[l as usize].push(id);
        }
        self.resolve_around(&[id]);
        FairFlowId(id)
    }

    /// Adds `dw` members to a bundle and re-solves its component —
    /// equivalent to `dw` individual [`insert_flow`](Self::insert_flow)
    /// calls with the bundle's link set.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale or `dw` is zero.
    pub fn add_weight(&mut self, id: FairFlowId, dw: u32) {
        let slot = id.0 as usize;
        assert!(
            self.slots.get(slot).is_some_and(|s| s.alive),
            "add_weight on stale handle {id:?}"
        );
        assert!(dw > 0, "weight delta must be positive");
        self.slots[slot].weight += dw;
        self.active += dw as usize;
        if !self.slots[slot].links.is_empty() {
            self.resolve_around(&[id.0]);
        }
    }

    /// Removes `dw` members from a bundle and re-solves its component.
    /// The last member must leave via [`remove_flow`](Self::remove_flow)
    /// instead, which retires the entry.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale, `dw` is zero, or `dw` is not
    /// strictly less than the current weight.
    pub fn sub_weight(&mut self, id: FairFlowId, dw: u32) {
        let slot = id.0 as usize;
        assert!(
            self.slots.get(slot).is_some_and(|s| s.alive),
            "sub_weight on stale handle {id:?}"
        );
        let w = self.slots[slot].weight;
        assert!(
            dw > 0 && dw < w,
            "sub_weight({dw}) must leave at least one of {w} members"
        );
        self.slots[slot].weight = w - dw;
        self.active -= dw as usize;
        if !self.slots[slot].links.is_empty() {
            self.resolve_around(&[id.0]);
        }
    }

    /// Member count of an active entry (1 for plain flows).
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    #[must_use]
    pub fn weight(&self, id: FairFlowId) -> u32 {
        let slot = id.0 as usize;
        assert!(
            self.slots.get(slot).is_some_and(|s| s.alive),
            "weight of stale handle {id:?}"
        );
        self.slots[slot].weight
    }

    /// Unregisters a flow and re-solves the component it left behind
    /// (which may have split into several; solving their union is
    /// equivalent).
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (already removed).
    pub fn remove_flow(&mut self, id: FairFlowId) {
        let slot = id.0 as usize;
        assert!(
            self.slots.get(slot).is_some_and(|s| s.alive),
            "remove_flow on stale handle {id:?}"
        );
        self.slots[slot].alive = false;
        self.rates[slot] = 0.0;
        self.active -= self.slots[slot].weight as usize;
        self.slots[slot].weight = 0;
        let links = std::mem::take(&mut self.slots[slot].links);
        self.free.push(id.0);
        if links.is_empty() {
            return;
        }
        self.active_on_links -= 1;
        // Collect the orphaned neighbours before dropping the adjacency.
        self.stamp += 1;
        let mut seeds: Vec<u32> = Vec::new();
        for &l in &links {
            self.link_flows[l as usize].retain(|&f| f != id.0);
            for &f in &self.link_flows[l as usize] {
                if self.flow_mark[f as usize] != self.stamp {
                    self.flow_mark[f as usize] = self.stamp;
                    seeds.push(f);
                }
            }
        }
        if !seeds.is_empty() {
            self.resolve_around(&seeds);
        }
    }

    /// Changes one link's capacity (a degraded or repaired optic, a
    /// downed link at 0) and re-solves only the component sharing it:
    /// the link's flows seed the dirty set exactly like an arrival on
    /// that link would, so the incremental allocator absorbs fault
    /// events without a dense refill. With no flows on the link this is
    /// a pure bookkeeping update.
    ///
    /// # Panics
    ///
    /// Panics if the link id is out of range or the capacity is not a
    /// finite non-negative number.
    pub fn set_capacity(&mut self, link: u32, bps: f64) {
        assert!(
            (link as usize) < self.capacities.len(),
            "link {link} out of range"
        );
        assert!(
            bps.is_finite() && bps >= 0.0,
            "capacity must be finite and non-negative, got {bps}"
        );
        self.capacities[link as usize] = bps;
        let seeds = self.link_flows[link as usize].clone();
        if !seeds.is_empty() {
            self.resolve_around(&seeds);
        }
    }

    /// The current **per-member** rate of an active entry, bits/s (for
    /// weight-1 entries this is simply the flow's rate).
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    #[must_use]
    pub fn rate(&self, id: FairFlowId) -> f64 {
        let slot = id.0 as usize;
        assert!(
            self.slots.get(slot).is_some_and(|s| s.alive),
            "rate of stale handle {id:?}"
        );
        self.rates[slot]
    }

    /// Rates of every active flow, sorted by handle.
    #[must_use]
    pub fn rates(&self) -> Vec<(FairFlowId, f64)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, _)| (FairFlowId(i as u32), self.rates[i]))
            .collect()
    }

    /// Number of active member flows (weights summed, local included).
    #[must_use]
    pub fn active_flows(&self) -> usize {
        self.active
    }

    /// Total component solves performed, dense fallbacks included.
    #[must_use]
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Total flow rates written across all solves — the incremental
    /// path's work metric (a dense refill re-writes every active entry).
    #[must_use]
    pub fn solved_flows(&self) -> u64 {
        self.solved_flows
    }

    /// How many solves fell back to dense full filling.
    #[must_use]
    pub fn dense_solves(&self) -> u64 {
        self.dense_solves
    }

    /// Re-solves the component reachable from `seeds` (flows), or
    /// everything via the dense path when the dirty set is large enough
    /// that component bookkeeping stops paying for itself.
    fn resolve_around(&mut self, seeds: &[u32]) {
        // BFS over the flow/link sharing graph. `flow_local` doubles as
        // the local index map for the fill; `link_local` likewise.
        self.stamp += 1;
        let stamp = self.stamp;
        let mut members: Vec<u32> = Vec::with_capacity(seeds.len());
        let mut comp_links: Vec<u32> = Vec::new();
        for &f in seeds {
            if self.flow_mark[f as usize] != stamp {
                self.flow_mark[f as usize] = stamp;
                self.flow_local[f as usize] = members.len() as u32;
                members.push(f);
            }
        }
        let mut head = 0usize;
        while head < members.len() {
            let f = members[head] as usize;
            head += 1;
            for li in 0..self.slots[f].links.len() {
                let l = self.slots[f].links[li] as usize;
                if self.link_mark[l] != stamp {
                    self.link_mark[l] = stamp;
                    self.link_local[l] = comp_links.len() as u32;
                    comp_links.push(l as u32);
                    for gi in 0..self.link_flows[l].len() {
                        let g = self.link_flows[l][gi] as usize;
                        if self.flow_mark[g] != stamp {
                            self.flow_mark[g] = stamp;
                            self.flow_local[g] = members.len() as u32;
                            members.push(g as u32);
                        }
                    }
                }
            }
        }
        // Dense fallback: once the dirty set is most of the active flows
        // (and big enough for the local index maps to cost more than
        // they save), plain full filling has the lower constant factor.
        const DENSE_MIN_ENTRIES: usize = 64;
        const DENSE_FRACTION: f64 = 0.75;
        let dirty_frac = members.len() as f64 / self.active_on_links.max(1) as f64;
        if members.len() >= DENSE_MIN_ENTRIES && dirty_frac > DENSE_FRACTION {
            self.fill_dense();
        } else {
            self.fill_local(&members, &comp_links);
        }
    }

    /// Progressive filling restricted to one component, with the
    /// component's links remapped to dense local indices. Reproduces
    /// [`max_min_rates`]'s arithmetic exactly: identical share
    /// divisions, identical subtraction-and-clamp updates, and the same
    /// bottleneck tie-break (lowest *global* link index).
    fn fill_local(&mut self, members: &[u32], comp_links: &[u32]) {
        self.solves += 1;
        self.solved_flows += members.len() as u64;
        let out = solve_component(
            &self.slots,
            &self.link_flows,
            &self.capacities,
            &self.flow_local,
            &self.link_local,
            members,
            comp_links,
        );
        for (&f, &r) in members.iter().zip(&out) {
            self.rates[f as usize] = r;
        }
    }

    /// Dense full refill: decomposes the active graph into
    /// link-connected components and fills each independently (on scoped
    /// threads when [`with_parallel`](Self::with_parallel) allows),
    /// merging rates in ascending component index. Per the module's
    /// equivalence argument this is bit-identical to one global
    /// progressive fill, and to [`max_min_rates`] over the active set.
    fn fill_dense(&mut self) {
        self.solves += 1;
        self.dense_solves += 1;
        // Decomposition: BFS from each unvisited linked entry, in slot
        // order, writing component-relative local indices into the
        // stamped maps. Flattened storage, one (member, link) range per
        // component.
        self.stamp += 1;
        let stamp = self.stamp;
        let mut members: Vec<u32> = Vec::new();
        let mut links: Vec<u32> = Vec::new();
        let mut comps: Vec<(usize, usize, usize, usize)> = Vec::new();
        for start in 0..self.slots.len() {
            if !self.slots[start].alive
                || self.slots[start].links.is_empty()
                || self.flow_mark[start] == stamp
            {
                continue;
            }
            let (ms, ls) = (members.len(), links.len());
            self.flow_mark[start] = stamp;
            self.flow_local[start] = 0;
            members.push(start as u32);
            let mut head = ms;
            while head < members.len() {
                let f = members[head] as usize;
                head += 1;
                for li in 0..self.slots[f].links.len() {
                    let l = self.slots[f].links[li] as usize;
                    if self.link_mark[l] != stamp {
                        self.link_mark[l] = stamp;
                        self.link_local[l] = (links.len() - ls) as u32;
                        links.push(l as u32);
                        for gi in 0..self.link_flows[l].len() {
                            let g = self.link_flows[l][gi] as usize;
                            if self.flow_mark[g] != stamp {
                                self.flow_mark[g] = stamp;
                                self.flow_local[g] = (members.len() - ms) as u32;
                                members.push(g as u32);
                            }
                        }
                    }
                }
            }
            comps.push((ms, members.len(), ls, links.len()));
        }
        self.solved_flows += members.len() as u64;

        // Components are link-disjoint, so solving them in parallel
        // shares no state; the spawn gate only avoids thread overhead on
        // small refills (rates are identical either way).
        let jobs = self.parallel.min(comps.len()).max(1);
        if jobs > 1 && members.len() >= 64 {
            let (slots, link_flows, capacities) = (&self.slots, &self.link_flows, &self.capacities);
            let (flow_local, link_local) = (&self.flow_local, &self.link_local);
            let (members_ref, links_ref, comps_ref) = (&members, &links, &comps);
            let solved: Vec<Vec<(usize, Vec<f64>)>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..jobs)
                    .map(|tid| {
                        s.spawn(move || {
                            comps_ref
                                .iter()
                                .enumerate()
                                .filter(|(ci, _)| ci % jobs == tid)
                                .map(|(ci, &(ms, me, ls, le))| {
                                    (
                                        ci,
                                        solve_component(
                                            slots,
                                            link_flows,
                                            capacities,
                                            flow_local,
                                            link_local,
                                            &members_ref[ms..me],
                                            &links_ref[ls..le],
                                        ),
                                    )
                                })
                                .collect()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("component solver thread"))
                    .collect()
            });
            // Deterministic merge: ascending component index. The slots
            // are disjoint, so this fixes presentation order only.
            let mut per_comp: Vec<Option<Vec<f64>>> = vec![None; comps.len()];
            for (ci, out) in solved.into_iter().flatten() {
                per_comp[ci] = Some(out);
            }
            for (ci, &(ms, me, _, _)) in comps.iter().enumerate() {
                let out = per_comp[ci].take().expect("every component solved");
                for (&f, r) in members[ms..me].iter().zip(out) {
                    self.rates[f as usize] = r;
                }
            }
        } else {
            for &(ms, me, ls, le) in &comps {
                let out = solve_component(
                    &self.slots,
                    &self.link_flows,
                    &self.capacities,
                    &self.flow_local,
                    &self.link_local,
                    &members[ms..me],
                    &links[ls..le],
                );
                for (&f, &r) in members[ms..me].iter().zip(&out) {
                    self.rates[f as usize] = r;
                }
            }
        }
    }
}

/// Weighted progressive filling over one link-connected component.
/// `flow_local` / `link_local` map global ids to component-relative
/// indices (valid for every member/link of this component); returns the
/// per-member rate of each entry, indexed like `members`.
///
/// The arithmetic is [`max_min_rates`]'s exactly, with each weight-`w`
/// entry standing for `w` interleaved member freezes (see the module's
/// weighted-entries section for why that is bit-identical).
fn solve_component(
    slots: &[FlowSlot],
    link_flows: &[Vec<u32>],
    capacities: &[f64],
    flow_local: &[u32],
    link_local: &[u32],
    members: &[u32],
    comp_links: &[u32],
) -> Vec<f64> {
    let mut remaining: Vec<f64> = comp_links.iter().map(|&l| capacities[l as usize]).collect();
    // All entries crossing a component link are members by closure, so
    // the unfrozen count starts at the full member (weight) total.
    let mut unfrozen: Vec<u32> = comp_links
        .iter()
        .map(|&l| {
            link_flows[l as usize]
                .iter()
                .map(|&f| slots[f as usize].weight)
                .sum()
        })
        .collect();
    let mut frozen: Vec<bool> = vec![false; members.len()];
    let mut out: Vec<f64> = vec![0.0; members.len()];

    loop {
        // Bottleneck: smallest share; ties break on the smallest global
        // link id, exactly like the full solver's ascending link scan.
        let mut best: Option<(f64, u32, usize)> = None;
        for (j, (&count, &global)) in unfrozen.iter().zip(comp_links).enumerate() {
            if count == 0 {
                continue;
            }
            let share = (remaining[j] / f64::from(count)).max(0.0);
            match best {
                Some((s, g, _)) if s < share || (s == share && g < global) => {}
                _ => best = Some((share, global, j)),
            }
        }
        let Some((share, _, bottleneck)) = best else {
            break;
        };
        for &f in &link_flows[comp_links[bottleneck] as usize] {
            let local = flow_local[f as usize] as usize;
            if frozen[local] {
                continue;
            }
            frozen[local] = true;
            out[local] = share;
            let w = slots[f as usize].weight;
            for &l in &slots[f as usize].links {
                let lj = link_local[l as usize] as usize;
                unfrozen[lj] -= w;
                if unfrozen[lj] == 0 {
                    // This freeze emptied the link: its `remaining` is
                    // never read again, so the member-wise drain below
                    // would be dead work — O(links), not O(members).
                    continue;
                }
                // The member-wise rounding sequence, one literal
                // subtract-and-clamp per member crossing.
                let mut rem = remaining[lj];
                for _ in 0..w {
                    rem = (rem - share).max(0.0);
                }
                remaining[lj] = rem;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + b.abs())
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let rates = max_min_rates(&[vec![0, 1]], &[5.0, 3.0], 100.0);
        assert!(close(rates[0], 3.0));
    }

    #[test]
    fn equal_flows_split_evenly() {
        let rates = max_min_rates(&[vec![0], vec![0], vec![0], vec![0]], &[8.0], 100.0);
        assert!(rates.iter().all(|&r| close(r, 2.0)));
    }

    #[test]
    fn classic_three_flow_example() {
        // Links: A (cap 10), B (cap 10).
        // f0: A; f1: A,B; f2: B.
        // Max-min: f1 = 5 (both links), f0 = 5, f2 = 5.
        let rates = max_min_rates(&[vec![0], vec![0, 1], vec![1]], &[10.0, 10.0], 100.0);
        assert!(rates.iter().all(|&r| close(r, 5.0)), "{rates:?}");
    }

    #[test]
    fn slack_reallocation() {
        // f0 bottlenecked at 1 on link 1; f1 then gets 9 on link 0.
        let rates = max_min_rates(&[vec![0, 1], vec![0]], &[10.0, 1.0], 100.0);
        assert!(close(rates[0], 1.0));
        assert!(close(rates[1], 9.0));
    }

    #[test]
    fn local_flows_bypass_links() {
        let rates = max_min_rates(&[vec![], vec![0]], &[4.0], 77.0);
        assert!(close(rates[0], 77.0));
        assert!(close(rates[1], 4.0));
    }

    #[test]
    fn empty_input() {
        assert!(max_min_rates(&[], &[1.0], 1.0).is_empty());
    }

    /// Capacities and weighted entries whose mutations take the
    /// production dense fallback: `spokes` single-entry components (one
    /// on each of links `1..=spokes`) come first, then a hub of `hub`
    /// entries that all cross link 0 — one component, past both dense
    /// gates once it has 64 entries and more than three times as many
    /// as there are spokes. Most hub entries also cross one of three
    /// narrow links, so hub rates differ. Weights cycle through
    /// `1..=max_weight`.
    fn hub_and_spokes(hub: u32, spokes: u32, max_weight: u32) -> (Vec<f64>, Vec<(Vec<u32>, u32)>) {
        let narrow = spokes + 1;
        let mut caps: Vec<f64> = (0..narrow).map(|l| 1e9 + f64::from(l) * 3.7e7).collect();
        caps.extend([1e8, 2e8, 3e8]);
        let mut entries: Vec<(Vec<u32>, u32)> = (1..=spokes)
            .map(|l| (vec![l], 1 + l % max_weight))
            .collect();
        entries.extend((0..hub).map(|i| {
            let links = if i % 4 == 0 {
                vec![0]
            } else {
                vec![0, narrow + i % 3]
            };
            (links, 1 + i % max_weight)
        }));
        (caps, entries)
    }

    /// Per-member rates of weighted entries from [`max_min_rates`] over
    /// the members spelled out one by one; every member of an entry must
    /// get the same rate.
    fn reference_rates(caps: &[f64], entries: &[(Vec<u32>, u32)]) -> Vec<f64> {
        let members: Vec<Vec<u32>> = entries
            .iter()
            .flat_map(|(links, w)| std::iter::repeat_n(links.clone(), *w as usize))
            .collect();
        let rates = max_min_rates(&members, caps, 1e10);
        let mut out = Vec::with_capacity(entries.len());
        let mut k = 0;
        for (_, w) in entries {
            let member_rates = &rates[k..k + *w as usize];
            assert!(member_rates
                .iter()
                .all(|r| r.to_bits() == member_rates[0].to_bits()));
            out.push(member_rates[0]);
            k += *w as usize;
        }
        out
    }

    /// Asserts each entry's rate is bitwise the reference rate.
    fn assert_bitwise(state: &FairShareState, ids: &[FairFlowId], want: &[f64], what: &str) {
        for (i, (&id, &w)) in ids.iter().zip(want).enumerate() {
            let got = state.rate(id);
            assert!(
                got.to_bits() == w.to_bits(),
                "{what}: entry {i} rate {got} != reference {w}"
            );
        }
    }

    #[test]
    fn set_capacity_rescales_only_the_affected_component() {
        let (mut caps, entries) = hub_and_spokes(70, 6, 1);
        let mut state = FairShareState::new(caps.clone(), 1e10);
        let ids: Vec<FairFlowId> = entries.iter().map(|(l, _)| state.insert_flow(l)).collect();
        assert!(
            state.dense_solves() > 0,
            "the hub grew past the dense gates"
        );
        assert_bitwise(&state, &ids, &reference_rates(&caps, &entries), "built");

        // Degrading the hub's trunk re-solves the hub densely.
        let dense = state.dense_solves();
        caps[0] = 2.5e8;
        state.set_capacity(0, caps[0]);
        assert!(state.dense_solves() > dense, "hub re-solved densely");
        assert_bitwise(
            &state,
            &ids,
            &reference_rates(&caps, &entries),
            "hub degraded",
        );

        // Degrading a spoke's link re-solves that spoke alone.
        let (dense, solved) = (state.dense_solves(), state.solved_flows());
        caps[1] = 5e7;
        state.set_capacity(1, caps[1]);
        assert_eq!(state.dense_solves(), dense, "a spoke re-solves locally");
        assert_eq!(state.solved_flows() - solved, 1, "only the spoke re-solved");
        assert_bitwise(
            &state,
            &ids,
            &reference_rates(&caps, &entries),
            "spoke degraded",
        );

        // Repair restores the original allocation.
        caps[0] = 1e9;
        caps[1] = 1e9 + 3.7e7;
        state.set_capacity(0, caps[0]);
        state.set_capacity(1, caps[1]);
        let (original_caps, _) = hub_and_spokes(70, 6, 1);
        assert_eq!(caps, original_caps);
        assert_bitwise(&state, &ids, &reference_rates(&caps, &entries), "repaired");
    }

    #[test]
    fn set_capacity_on_an_empty_link_is_pure_bookkeeping() {
        let mut state = FairShareState::new(vec![10.0, 6.0], 100.0);
        let f0 = state.insert_flow(&[0]);
        let solves_before = state.solves();
        state.set_capacity(1, 1.0);
        assert_eq!(state.solves(), solves_before, "no flows, no re-solve");
        // The new capacity still takes effect for later arrivals.
        let f1 = state.insert_flow(&[1]);
        assert!(close(state.rate(f1), 1.0));
        assert!(close(state.rate(f0), 10.0));
    }

    #[test]
    fn flow_crossing_a_link_twice_charged_twice() {
        // A degenerate path listing link 0 twice consumes double capacity
        // but must not be frozen twice (regression caught by proptest).
        let rates = max_min_rates(&[vec![0, 0], vec![0]], &[9.0], 100.0);
        // Bottleneck share: 9 / 3 slots = 3; flow 0 holds two slots.
        assert!(close(rates[0], 3.0), "{rates:?}");
        assert!(close(rates[1], 3.0) || rates[1] > 3.0, "{rates:?}");
        let used = 2.0 * rates[0] + rates[1];
        assert!(used <= 9.0 + 1e-9, "over capacity: {used}");
    }

    #[test]
    fn allocation_respects_capacities() {
        // Random-ish mesh: verify sum of rates on every link <= capacity.
        let flows = vec![
            vec![0, 2],
            vec![0, 3],
            vec![1, 2],
            vec![1, 3],
            vec![0],
            vec![3],
        ];
        let caps = [10.0, 7.0, 4.0, 6.0];
        let rates = max_min_rates(&flows, &caps, 100.0);
        let mut used = [0.0f64; 4];
        for (i, links) in flows.iter().enumerate() {
            assert!(rates[i] > 0.0, "flow {i} starved");
            for &l in links {
                used[l as usize] += rates[i];
            }
        }
        for (l, &u) in used.iter().enumerate() {
            assert!(u <= caps[l] + 1e-9, "link {l} over capacity: {u}");
        }
    }

    /// Drives a state and a from-scratch shadow in lockstep, asserting
    /// bitwise-equal rates after every mutation.
    fn assert_state_tracks_full(caps: &[f64], script: &[(bool, Vec<u32>)]) -> FairShareState {
        let mut state = FairShareState::new(caps.to_vec(), 1e10);
        let mut alive: Vec<(FairFlowId, Vec<u32>)> = Vec::new();
        for (step, (remove, links)) in script.iter().enumerate() {
            if *remove && !alive.is_empty() {
                let (id, _) =
                    alive.remove(links.first().copied().unwrap_or(0) as usize % alive.len());
                state.remove_flow(id);
            } else {
                let id = state.insert_flow(links);
                alive.push((id, links.clone()));
            }
            let shadow: Vec<Vec<u32>> = alive.iter().map(|(_, l)| l.clone()).collect();
            let expect = max_min_rates(&shadow, caps, 1e10);
            for ((id, _), want) in alive.iter().zip(&expect) {
                let got = state.rate(*id);
                assert!(
                    got == *want,
                    "step {step}: flow {id:?} rate {got} != full recompute {want}"
                );
            }
        }
        state
    }

    #[test]
    fn state_matches_full_on_mixed_script() {
        let caps = [10.0, 7.0, 4.0, 6.0, 9.0, 2.0];
        let script = vec![
            (false, vec![0, 2]),
            (false, vec![0, 3]),
            (false, vec![]), // local flow
            (false, vec![1, 4]),
            (false, vec![5, 5]),    // crosses link 5 twice
            (false, vec![1, 2, 3]), // merges two components
            (true, vec![1]),
            (false, vec![4]),
            (true, vec![0]),
            (true, vec![2]),
            (false, vec![0, 1, 2, 3, 4, 5]),
            (true, vec![0]),
            (true, vec![0]),
            (true, vec![0]),
        ];
        assert_state_tracks_full(&caps, &script);
    }

    #[test]
    fn state_matches_full_through_the_dense_fallback() {
        // Grow the hub past the dense gates, churn it and the spokes,
        // then regrow it: every step is checked against the reference.
        let (caps, entries) = hub_and_spokes(70, 6, 1);
        let mut script: Vec<(bool, Vec<u32>)> =
            entries.iter().map(|(l, _)| (false, l.clone())).collect();
        script.extend((0..12u32).map(|k| (true, vec![k * 5])));
        script.extend(entries[6..16].iter().map(|(l, _)| (false, l.clone())));
        let state = assert_state_tracks_full(&caps, &script);
        assert!(state.dense_solves() > 0, "the dense fallback ran");
    }

    #[test]
    fn state_reuses_slots_and_tracks_active() {
        let mut state = FairShareState::new(vec![5.0], 1.0);
        let a = state.insert_flow(&[0]);
        assert_eq!(state.active_flows(), 1);
        state.remove_flow(a);
        assert_eq!(state.active_flows(), 0);
        let b = state.insert_flow(&[0]);
        assert_eq!(b, a, "freed slot is recycled");
        assert_eq!(state.rates(), vec![(b, 5.0)]);
    }

    #[test]
    #[should_panic(expected = "stale handle")]
    fn state_rejects_stale_handles() {
        let mut state = FairShareState::new(vec![5.0], 1.0);
        let a = state.insert_flow(&[0]);
        state.remove_flow(a);
        state.remove_flow(a);
    }

    #[test]
    fn local_flows_are_singleton_components() {
        let mut state = FairShareState::new(vec![4.0], 77.0);
        let a = state.insert_flow(&[]);
        let b = state.insert_flow(&[0]);
        assert_eq!(state.rate(a), 77.0);
        assert_eq!(state.rate(b), 4.0);
        let solves = state.solves();
        state.remove_flow(a); // no links: nothing to re-solve
        assert_eq!(state.solves(), solves);
        assert_eq!(state.rate(b), 4.0);
    }

    #[test]
    fn disjoint_components_do_not_resolve_each_other() {
        // Two independent links: mutating one side must not re-solve the
        // other (solved_flows counts rate writes).
        let mut state = FairShareState::new(vec![10.0, 10.0], 1e10);
        let _left = state.insert_flow(&[0]);
        let before = state.solved_flows();
        let right = state.insert_flow(&[1]);
        assert_eq!(
            state.solved_flows() - before,
            1,
            "inserting into an empty link touches one flow"
        );
        state.remove_flow(right);
        assert_eq!(
            state.solved_flows() - before,
            1,
            "removal left no neighbours"
        );
    }

    #[test]
    fn is_max_min_fair_no_flow_can_grow() {
        // A flow could only grow by taking from an equal-or-smaller flow
        // on some saturated link. Verify each flow has a saturated link
        // where it is among the largest.
        let flows = vec![vec![0, 1], vec![1], vec![0], vec![1, 2]];
        let caps = [6.0, 9.0, 2.0];
        let rates = max_min_rates(&flows, &caps, 100.0);
        let mut used = [0.0f64; 3];
        for (i, links) in flows.iter().enumerate() {
            for &l in links {
                used[l as usize] += rates[i];
            }
        }
        for (i, links) in flows.iter().enumerate() {
            let has_tight_link = links.iter().any(|&l| {
                let saturated = used[l as usize] >= caps[l as usize] - 1e-9;
                let is_max = flows
                    .iter()
                    .enumerate()
                    .filter(|(_, ls)| ls.contains(&l))
                    .all(|(j, _)| rates[j] <= rates[i] + 1e-9);
                saturated && is_max
            });
            assert!(has_tight_link, "flow {i} could grow: {rates:?}");
        }
    }

    /// Builds one state from weighted bundles and one from the same
    /// members inserted individually, asserting bitwise-equal per-member
    /// rates for every bundle, equal to the reference. Returns both
    /// states' dense solve counts.
    fn assert_weighted_matches_singletons(caps: &[f64], bundles: &[(Vec<u32>, u32)]) -> (u64, u64) {
        let mut grouped = FairShareState::new(caps.to_vec(), 1e10);
        let mut single = FairShareState::new(caps.to_vec(), 1e10);
        let mut gids = Vec::new();
        let mut sids = Vec::new();
        for (links, w) in bundles {
            gids.push(grouped.insert_weighted(links, *w));
            sids.push(
                (0..*w)
                    .map(|_| single.insert_flow(links))
                    .collect::<Vec<_>>(),
            );
        }
        let want = reference_rates(caps, bundles);
        assert_bitwise(&grouped, &gids, &want, "grouped");
        for (bi, members) in sids.iter().enumerate() {
            let first = std::slice::from_ref(&members[0]);
            assert_bitwise(&single, first, &want[bi..=bi], "singleton");
            for &m in members {
                assert!(single.rate(m) == want[bi], "bundle {bi} members diverge");
            }
        }
        (grouped.dense_solves(), single.dense_solves())
    }

    #[test]
    fn weighted_entries_match_singleton_members() {
        assert_weighted_matches_singletons(
            &[10.0, 7.0, 4.0, 6.0],
            &[
                (vec![0, 2], 3),
                (vec![0, 3], 1),
                (vec![1, 2], 5),
                (vec![3], 2),
                (vec![0, 0], 2), // crosses link 0 twice
                (vec![], 4),     // local bundle
            ],
        );
        let (caps, bundles) = hub_and_spokes(70, 6, 4);
        let (grouped, single) = assert_weighted_matches_singletons(&caps, &bundles);
        assert!(
            grouped > 0 && single > 0,
            "both shapes ran the dense fallback"
        );
    }

    #[test]
    fn weight_mutation_matches_member_churn() {
        // add_weight / sub_weight track individual insert/remove exactly.
        let caps = [9.0, 5.0];
        let mut grouped = FairShareState::new(caps.to_vec(), 1e10);
        let mut single = FairShareState::new(caps.to_vec(), 1e10);
        let b = grouped.insert_weighted(&[0, 1], 2);
        let mut members = vec![single.insert_flow(&[0, 1]), single.insert_flow(&[0, 1])];
        let lone_g = grouped.insert_flow(&[0]);
        let lone_s = single.insert_flow(&[0]);
        assert_eq!(grouped.rate(b), single.rate(members[0]));
        assert_eq!(grouped.rate(lone_g), single.rate(lone_s));

        grouped.add_weight(b, 3);
        for _ in 0..3 {
            members.push(single.insert_flow(&[0, 1]));
        }
        assert_eq!(grouped.weight(b), 5);
        assert_eq!(grouped.active_flows(), 6);
        assert_eq!(grouped.rate(b), single.rate(members[0]));
        assert_eq!(grouped.rate(lone_g), single.rate(lone_s));

        grouped.sub_weight(b, 4);
        for m in members.drain(1..) {
            single.remove_flow(m);
        }
        assert_eq!(grouped.rate(b), single.rate(members[0]));
        assert_eq!(grouped.rate(lone_g), single.rate(lone_s));

        // The last member retires the entry.
        grouped.remove_flow(b);
        single.remove_flow(members[0]);
        assert_eq!(grouped.rate(lone_g), single.rate(lone_s));
        assert_eq!(grouped.active_flows(), 1);
    }

    #[test]
    #[should_panic(expected = "must leave at least one")]
    fn sub_weight_rejects_emptying_the_entry() {
        let mut state = FairShareState::new(vec![5.0], 1.0);
        let b = state.insert_weighted(&[0], 2);
        state.sub_weight(b, 2);
    }

    #[test]
    fn parallel_dense_solve_is_bit_identical() {
        // The hub's dense refills also cover 20 disjoint spokes, so width
        // 8 splits the components over threads: identical rates, bit for
        // bit, and equal to the reference.
        let (caps, entries) = hub_and_spokes(70, 20, 4);
        let build = |jobs: usize| {
            let mut state = FairShareState::new(caps.clone(), 1e10).with_parallel(jobs);
            let ids: Vec<FairFlowId> = entries
                .iter()
                .map(|(links, w)| state.insert_weighted(links, *w))
                .collect();
            assert!(state.dense_solves() > 0, "width {jobs}: dense fallback ran");
            ids.iter().map(|&id| state.rate(id)).collect::<Vec<f64>>()
        };
        let seq = build(1);
        let par = build(8);
        assert!(
            seq.iter()
                .zip(&par)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "parallel dense solve diverged"
        );
        let want = reference_rates(&caps, &entries);
        assert!(
            seq.iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "dense solve diverged from the reference"
        );
    }
}
