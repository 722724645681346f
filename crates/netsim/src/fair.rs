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
//!   flow adjacency between events and re-solves only the *affected
//!   components*: the flows transitively connected to a mutated flow
//!   through shared links. Each public mutator ([`insert_flow`],
//!   [`remove_flow`], …) re-solves at once. The simulator instead
//!   records every mutation of one simulated instant and settles them
//!   in a single fill (see "Recorded mutations" below). Either way the
//!   rates are **bit-for-bit identical** to [`max_min_rates`] over the
//!   full active set whenever they are read (see the module's
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
//! # Recorded mutations
//!
//! A mutation only updates the adjacency and appends its entry's links
//! to a pending list; `settle` re-solves. Rates are read only after a
//! settle, so the mutations between two settles may merge, split,
//! empty or re-create components in any order. `settle` fills every
//! component that holds a recorded link, once: one BFS seeded from all
//! recorded links, or the whole busy set when one of them lies in the
//! giant. That is exact by the same argument: the union of the touched
//! components is link-disjoint from every other component, so filling
//! it performs each touched component's own operations, and a component
//! no recorded link reaches had no entry, weight or capacity change
//! since its rates were last solved. The public mutators record and
//! settle at once; `netsim::sim` settles once per simulated instant.
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
//! # Cached link shares
//!
//! Every re-solve is one progressive fill over a list of links — a BFS
//! component, or the whole set of busy links (see [`FairShareState`]).
//! The fill keeps each link's share `(remaining / unfrozen).max(0.0)`
//! and recomputes it only when a freeze changes that link's remaining
//! capacity or unfrozen count. Both operands are then the values a
//! fresh division at the next round's bottleneck scan would read, so the
//! cached share is that division's result bit for bit; the scan breaks
//! ties on the same global link id, and so picks the same bottleneck as
//! [`max_min_rates`] in every round.
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

/// A BFS component is the *giant* when it holds at least this many
/// entries and more than `GIANT_FRACTION` of the entries on links.
const GIANT_MIN_ENTRIES: usize = 64;
const GIANT_FRACTION: f64 = 0.75;
/// Whole-set solves after which a mutation in the giant measures it
/// again with a BFS.
const REMEASURE_EVERY: u32 = 32;

/// Incremental max-min fair allocator.
///
/// Maintains the active flow set, per-link flow adjacency and per-flow
/// rates across mutations. Each public mutation re-solves at once, over
/// one of two link lists chosen from what the allocator has observed:
///
/// * the *components* holding the mutated entry's links (for a capacity
///   change, those of an entry on the changed link), found by a BFS over
///   the flow/link sharing graph;
/// * every busy link (one with at least one entry), with no BFS, when
///   one of those links lies in the *giant*: the component the latest
///   BFS to reach it found to hold at least 64 entries and more than 75%
///   of the entries on links. The whole set then costs little more to
///   fill than the component, and the BFS is skipped. After 32
///   whole-set solves the next such re-solve takes the BFS instead,
///   which measures the giant again, so a network that has since
///   fragmented returns to component solves.
///
/// Inside the crate, the simulator uses the recording forms of the
/// mutators and one `settle` per simulated instant, which makes the same
/// choice over the links of every mutation it recorded (see the module's
/// "Recorded mutations").
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
    /// link -> members crossing it (weights summed, one term per
    /// crossing): the unfrozen count a fill starts the link at.
    load: Vec<u32>,
    /// The busy links, unordered: the whole-set path's link list.
    /// `busy_pos[l]` is busy link `l`'s index in it.
    busy: Vec<u32>,
    busy_pos: Vec<u32>,
    /// Active *entries* (not members) that traverse at least one link —
    /// the giant's fraction denominator.
    active_on_links: usize,
    /// The stamp the giant's links carry in `link_mark`, if a giant is
    /// known; links that go idle lose it.
    giant: Option<u64>,
    /// Whole-set solves since the giant was last measured.
    unmeasured: u32,
    /// Links of the entries mutated since the last settle, repeats
    /// included: the seeds of the next re-solve.
    pending: Vec<u32>,

    // Stamped marks: each BFS and each fill takes a fresh `stamp`, so
    // clearing is O(1). A BFS marks the entries and links it visits (the
    // giant's links keep the stamp of the BFS that measured it); a fill
    // marks the entries it freezes.
    stamp: u64,
    flow_mark: Vec<u64>,
    link_mark: Vec<u64>,

    // Fill scratch, indexed by global link id; valid during a fill for
    // the links in `scan`, the list being filled (the BFS queue before).
    remaining: Vec<f64>,
    unfrozen: Vec<u32>,
    share: Vec<f64>,
    scan: Vec<u32>,

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
            load: vec![0; n_links],
            busy: Vec::new(),
            busy_pos: vec![0; n_links],
            active_on_links: 0,
            giant: None,
            unmeasured: 0,
            pending: Vec::new(),
            stamp: 0,
            flow_mark: Vec::new(),
            link_mark: vec![0; n_links],
            remaining: vec![0.0; n_links],
            unfrozen: vec![0; n_links],
            share: vec![0.0; n_links],
            scan: Vec::new(),
            solves: 0,
            solved_flows: 0,
            dense_solves: 0,
        }
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
        let id = self.record_insert(links, weight);
        self.settle();
        id
    }

    /// [`insert_weighted`](Self::insert_weighted) without the re-solve:
    /// the entry's links wait for the next [`settle`](Self::settle).
    pub(crate) fn record_insert(&mut self, links: &[u32], weight: u32) -> FairFlowId {
        assert!(weight > 0, "a fair-share entry needs at least one member");
        for &l in links {
            assert!(
                (l as usize) < self.capacities.len(),
                "link {l} out of range"
            );
        }
        let id = if let Some(slot) = self.free.pop() {
            // `remove_flow` left the recycled slot's link list empty.
            let s = &mut self.slots[slot as usize];
            s.links.extend_from_slice(links);
            s.weight = weight;
            s.alive = true;
            slot
        } else {
            self.slots.push(FlowSlot {
                links: links.to_vec(),
                weight,
                alive: true,
            });
            self.rates.push(0.0);
            self.flow_mark.push(0);
            (self.slots.len() - 1) as u32
        };
        if links.is_empty() {
            self.rates[id as usize] = self.local_bps;
            return FairFlowId(id);
        }
        self.active_on_links += 1;
        for &l in links {
            let l = l as usize;
            if self.load[l] == 0 {
                self.busy_pos[l] = self.busy.len() as u32;
                self.busy.push(l as u32);
            }
            self.link_flows[l].push(id);
            self.load[l] += weight;
        }
        self.pending.extend_from_slice(links);
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
        self.record_add_weight(id, dw);
        self.settle();
    }

    /// [`add_weight`](Self::add_weight) without the re-solve.
    pub(crate) fn record_add_weight(&mut self, id: FairFlowId, dw: u32) {
        let slot = id.0 as usize;
        assert!(
            self.slots.get(slot).is_some_and(|s| s.alive),
            "add_weight on stale handle {id:?}"
        );
        assert!(dw > 0, "weight delta must be positive");
        self.slots[slot].weight += dw;
        for &l in &self.slots[slot].links {
            self.load[l as usize] += dw;
        }
        self.pending.extend_from_slice(&self.slots[slot].links);
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
        self.record_sub_weight(id, dw);
        self.settle();
    }

    /// [`sub_weight`](Self::sub_weight) without the re-solve.
    pub(crate) fn record_sub_weight(&mut self, id: FairFlowId, dw: u32) {
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
        for &l in &self.slots[slot].links {
            self.load[l as usize] -= dw;
        }
        self.pending.extend_from_slice(&self.slots[slot].links);
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
        self.record_remove(id);
        self.settle();
    }

    /// [`remove_flow`](Self::remove_flow) without the re-solve. The slot
    /// is free at once: a later insert may reuse it before the settle.
    pub(crate) fn record_remove(&mut self, id: FairFlowId) {
        let slot = id.0 as usize;
        assert!(
            self.slots.get(slot).is_some_and(|s| s.alive),
            "remove_flow on stale handle {id:?}"
        );
        let w = self.slots[slot].weight;
        self.slots[slot].alive = false;
        self.slots[slot].weight = 0;
        self.rates[slot] = 0.0;
        self.free.push(id.0);
        if self.slots[slot].links.is_empty() {
            return;
        }
        self.active_on_links -= 1;
        for li in 0..self.slots[slot].links.len() {
            let l = self.slots[slot].links[li] as usize;
            self.link_flows[l].retain(|&f| f != id.0);
            self.load[l] -= w;
            if self.load[l] == 0 {
                // Idle: off the whole-set list, and out of the giant, so
                // a later entry alone on it re-solves locally.
                let pos = self.busy_pos[l] as usize;
                self.busy.swap_remove(pos);
                if let Some(&moved) = self.busy.get(pos) {
                    self.busy_pos[moved as usize] = pos as u32;
                }
                self.link_mark[l] = 0;
            }
        }
        // The dead entry's links seed the re-solve; it is on no link's
        // list, so no fill reaches it. Freed rather than cleared for the
        // slot's next tenant: kept capacity fragmented the heap, and peak
        // RSS grew pass after pass over repeated replays.
        let links = std::mem::take(&mut self.slots[slot].links);
        self.pending.extend_from_slice(&links);
    }

    /// Changes one link's capacity (a degraded or repaired optic, a
    /// downed link at 0). The new capacity is
    /// [`capacity`](Self::capacity) at once; the next
    /// [`settle`](Self::settle) re-solves only the component sharing the
    /// link: an entry on the link seeds the re-solve exactly like an
    /// arrival on that link would, so the incremental allocator absorbs
    /// fault events without refilling unrelated components. With no flows
    /// on the link this is a pure bookkeeping update.
    ///
    /// # Panics
    ///
    /// Panics if the link id is out of range or the capacity is not a
    /// finite non-negative number.
    pub(crate) fn record_capacity(&mut self, link: u32, bps: f64) {
        assert!(
            (link as usize) < self.capacities.len(),
            "link {link} out of range"
        );
        assert!(
            bps.is_finite() && bps >= 0.0,
            "capacity must be finite and non-negative, got {bps}"
        );
        self.capacities[link as usize] = bps;
        if let Some(&f) = self.link_flows[link as usize].first() {
            self.pending
                .extend_from_slice(&self.slots[f as usize].links);
        }
    }

    /// A link's current capacity, bits/s.
    pub(crate) fn capacity(&self, link: u32) -> f64 {
        self.capacities[link as usize]
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

    /// [`rate`](Self::rate) without its stale-handle check, for callers
    /// that hold `id` live by construction: the simulator reads every
    /// live bundle's rate twice per event.
    pub(crate) fn live_rate(&self, id: FairFlowId) -> f64 {
        debug_assert!(self.slots[id.0 as usize].alive, "stale handle {id:?}");
        debug_assert!(self.pending.is_empty(), "rate read before a settle");
        self.rates[id.0 as usize]
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

    /// Total solves performed, whole-set solves included.
    #[must_use]
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Total entry rates written across all solves — the incremental
    /// path's work metric (a whole-set solve re-writes every entry on a
    /// link).
    #[must_use]
    pub fn solved_flows(&self) -> u64 {
        self.solved_flows
    }

    /// How many solves filled every busy link (the whole-set path)
    /// rather than one BFS component.
    #[must_use]
    pub fn dense_solves(&self) -> u64 {
        self.dense_solves
    }

    /// Re-solves every component holding a link recorded since the last
    /// settle, in one fill: over every busy link when a recorded link
    /// lies in the giant, else over those components, found by one BFS
    /// seeded from all recorded links that also measures whether they
    /// form the giant. Nothing recorded, or only links that went idle,
    /// costs no fill.
    pub(crate) fn settle(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let in_giant = self.giant.is_some_and(|g| {
            self.pending
                .iter()
                .any(|&l| self.link_mark[l as usize] == g)
        });
        if in_giant && self.unmeasured < REMEASURE_EVERY {
            self.pending.clear();
            self.unmeasured += 1;
            self.dense_solves += 1;
            self.scan.clear();
            self.scan.extend_from_slice(&self.busy);
            self.fill();
            return;
        }
        // BFS over the flow/link sharing graph, with `scan` as its queue:
        // it ends holding the components' links, plus any recorded link
        // that went idle, which the fill drops unread.
        self.stamp += 1;
        let stamp = self.stamp;
        self.scan.clear();
        let mut reached_giant = queue_links(
            &self.pending,
            &mut self.link_mark,
            &mut self.scan,
            self.giant,
            stamp,
        );
        self.pending.clear();
        let mut entries = 0usize;
        let mut head = 0;
        while head < self.scan.len() {
            let l = self.scan[head] as usize;
            head += 1;
            for &g in &self.link_flows[l] {
                let g = g as usize;
                if self.flow_mark[g] != stamp {
                    self.flow_mark[g] = stamp;
                    entries += 1;
                    reached_giant |= queue_links(
                        &self.slots[g].links,
                        &mut self.link_mark,
                        &mut self.scan,
                        self.giant,
                        stamp,
                    );
                }
            }
        }
        if entries == 0 {
            return; // removals left the recorded links idle
        }
        if entries >= GIANT_MIN_ENTRIES
            && entries as f64 / self.active_on_links as f64 > GIANT_FRACTION
        {
            self.giant = Some(stamp);
            self.unmeasured = 0;
        } else if reached_giant {
            self.giant = None;
        }
        self.fill();
    }

    /// Weighted progressive filling over the links in `scan`, which holds
    /// every link of every entry crossing one of them (one component, or
    /// the busy set). Reproduces [`max_min_rates`]'s arithmetic exactly:
    /// identical share divisions (cached, see the module docs), identical
    /// subtraction-and-clamp updates with each weight-`w` entry standing
    /// for `w` member freezes, and the same bottleneck tie-break (lowest
    /// *global* link index).
    fn fill(&mut self) {
        self.solves += 1;
        self.stamp += 1;
        let frozen = self.stamp;
        let Self {
            capacities,
            slots,
            rates,
            link_flows,
            load,
            flow_mark,
            remaining,
            unfrozen,
            share,
            scan,
            solved_flows,
            ..
        } = self;
        for &l in scan.iter() {
            let l = l as usize;
            remaining[l] = capacities[l];
            unfrozen[l] = load[l];
            share[l] = (remaining[l] / f64::from(unfrozen[l])).max(0.0);
        }
        loop {
            // Bottleneck: smallest share; ties break on the smallest
            // global link id, exactly like the full solver's ascending
            // link scan. Drained links leave the list as it is scanned.
            let mut best: Option<(f64, u32)> = None;
            let mut kept = 0;
            for i in 0..scan.len() {
                let l = scan[i];
                if unfrozen[l as usize] == 0 {
                    continue;
                }
                scan[kept] = l;
                kept += 1;
                let s = share[l as usize];
                match best {
                    Some((bs, bl)) if bs < s || (bs == s && bl < l) => {}
                    _ => best = Some((s, l)),
                }
            }
            scan.truncate(kept);
            let Some((s, bottleneck)) = best else {
                break;
            };
            for &f in &link_flows[bottleneck as usize] {
                let f = f as usize;
                if flow_mark[f] == frozen {
                    continue;
                }
                flow_mark[f] = frozen;
                rates[f] = s;
                *solved_flows += 1;
                let w = slots[f].weight;
                for &l in &slots[f].links {
                    let l = l as usize;
                    unfrozen[l] -= w;
                    if unfrozen[l] == 0 {
                        // This freeze emptied the link: its `remaining` is
                        // never read again, so the member-wise drain below
                        // would be dead work — O(links), not O(members).
                        continue;
                    }
                    // The member-wise rounding sequence, one literal
                    // subtract-and-clamp per member crossing.
                    let mut rem = remaining[l];
                    for _ in 0..w {
                        rem = (rem - s).max(0.0);
                    }
                    remaining[l] = rem;
                    share[l] = (rem / f64::from(unfrozen[l])).max(0.0);
                }
            }
        }
    }
}

/// Queues the `links` that BFS `stamp` has not visited, marking them;
/// returns whether one of them carried the mark of the `giant`.
fn queue_links(
    links: &[u32],
    link_mark: &mut [u64],
    scan: &mut Vec<u32>,
    giant: Option<u64>,
    stamp: u64,
) -> bool {
    let mut reached_giant = false;
    for &l in links {
        let mark = &mut link_mark[l as usize];
        if *mark != stamp {
            reached_giant |= giant == Some(*mark);
            *mark = stamp;
            scan.push(l);
        }
    }
    reached_giant
}

#[cfg(test)]
mod ops;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// Capacities and weighted entries whose mutations take both solve
    /// paths: `spokes` single-entry components (one on each of links
    /// `1..=spokes`) come first, then a hub of `hub` entries that all
    /// cross link 0 — one component, the giant once it has 64 entries
    /// and more than three times as many as there are spokes, after
    /// which its mutations fill the whole set. Most hub entries also cross one of three
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
    fn capacity_change_rescales_only_the_affected_component() {
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
        state.record_capacity(0, caps[0]);
        state.settle();
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
        state.record_capacity(1, caps[1]);
        state.settle();
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
        state.record_capacity(0, caps[0]);
        state.record_capacity(1, caps[1]);
        state.settle();
        let (original_caps, _) = hub_and_spokes(70, 6, 1);
        assert_eq!(caps, original_caps);
        assert_bitwise(&state, &ids, &reference_rates(&caps, &entries), "repaired");
    }

    #[test]
    fn capacity_change_on_an_empty_link_is_pure_bookkeeping() {
        let mut state = FairShareState::new(vec![10.0, 6.0], 100.0);
        let f0 = state.insert_flow(&[0]);
        let solves_before = state.solves();
        state.record_capacity(1, 1.0);
        state.settle();
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
    fn share_ties_break_on_the_lowest_link_id() {
        // Both links open at share 0.2. Filling link 0 first leaves link
        // 1's lone flow 0.20000000000000007; filling link 1 first would
        // hand that last bit to link 0's lone flow instead.
        let caps = [1.0, 1.0];
        let links = [
            vec![1],
            vec![0],
            vec![0, 1],
            vec![0, 1],
            vec![0, 1],
            vec![0, 1],
        ];
        let want = max_min_rates(&links, &caps, 1e10);
        assert!(want[0] > want[1], "the tie order shows: {want:?}");
        let script: Vec<(bool, Vec<u32>)> = links.into_iter().map(|l| (false, l)).collect();
        assert_state_tracks_full(&caps, &script);
    }

    #[test]
    fn state_matches_full_through_the_whole_set_path() {
        // Grow the hub into the giant, churn it and the spokes,
        // then regrow it: every step is checked against the reference.
        let (caps, entries) = hub_and_spokes(70, 6, 1);
        let mut script: Vec<(bool, Vec<u32>)> =
            entries.iter().map(|(l, _)| (false, l.clone())).collect();
        script.extend((0..12u32).map(|k| (true, vec![k * 5])));
        script.extend(entries[6..16].iter().map(|(l, _)| (false, l.clone())));
        let state = assert_state_tracks_full(&caps, &script);
        assert!(state.dense_solves() > 0, "the whole-set path ran");
    }

    #[test]
    fn state_reuses_slots() {
        let mut state = FairShareState::new(vec![5.0], 1.0);
        let a = state.insert_flow(&[0]);
        state.remove_flow(a);
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
    /// states' whole-set solve counts.
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
            "both shapes ran the whole-set path"
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
    }

    #[test]
    #[should_panic(expected = "must leave at least one")]
    fn sub_weight_rejects_emptying_the_entry() {
        let mut state = FairShareState::new(vec![5.0], 1.0);
        let b = state.insert_weighted(&[0], 2);
        state.sub_weight(b, 2);
    }

    #[test]
    fn both_solve_paths_match_the_reference_at_every_step() {
        // One weighted script: the spokes and the young hub re-solve by
        // component, the grown hub over the whole set, and removals then
        // shrink the hub until a re-measure finds it is no longer the
        // giant. Every step equals the reference bit for bit.
        let (caps, entries) = hub_and_spokes(70, 20, 4);
        let mut state = FairShareState::new(caps.clone(), 1e10);
        let mut live: Vec<(FairFlowId, (Vec<u32>, u32))> = Vec::new();
        let script = entries
            .into_iter()
            .map(Some)
            .chain(std::iter::repeat_n(None, 40));
        let mut steps = [0u32; 2]; // checked steps: [component, whole set]
        let mut whole_set = false;
        for op in script {
            let before = state.dense_solves();
            match op {
                Some((links, w)) => live.push((state.insert_weighted(&links, w), (links, w))),
                None => state.remove_flow(live.pop().expect("a live hub entry").0),
            }
            let (ids, now): (Vec<FairFlowId>, Vec<(Vec<u32>, u32)>) = live.iter().cloned().unzip();
            assert_bitwise(&state, &ids, &reference_rates(&caps, &now), "step");
            whole_set = state.dense_solves() > before;
            steps[usize::from(whole_set)] += 1;
        }
        assert!(steps[0] > 0 && steps[1] > 0, "both paths ran: {steps:?}");
        assert!(!whole_set, "the shrunken hub re-solves by component");
    }

    #[test]
    fn spoke_mutations_stay_local_beside_a_whole_set_hub() {
        let (caps, mut entries) = hub_and_spokes(70, 6, 1);
        let mut state = FairShareState::new(caps.clone(), 1e10);
        let mut ids: Vec<FairFlowId> = entries.iter().map(|(l, _)| state.insert_flow(l)).collect();
        let whole_sets = state.dense_solves();
        assert!(whole_sets > 0, "the hub took the whole-set path");

        // A second entry on spoke link 1 re-solves that spoke alone.
        let solved = state.solved_flows();
        ids.push(state.insert_flow(&[1]));
        entries.push((vec![1], 1));
        assert_eq!(state.solved_flows() - solved, 2, "the spoke's two entries");
        assert_eq!(state.dense_solves(), whole_sets, "the insert stayed local");
        assert_bitwise(&state, &ids, &reference_rates(&caps, &entries), "insert");

        // Removing it re-solves the spoke's remaining entry alone.
        let solved = state.solved_flows();
        state.remove_flow(ids.pop().expect("the spoke entry"));
        entries.pop();
        assert_eq!(state.solved_flows() - solved, 1, "the spoke's one entry");
        assert_eq!(state.dense_solves(), whole_sets, "the removal stayed local");
        assert_bitwise(&state, &ids, &reference_rates(&caps, &entries), "remove");

        // Draining narrow link 7 takes it out of the hub (which stays the
        // giant): an entry alone on it then re-solves by itself.
        for k in (0..entries.len()).rev() {
            if entries[k].0.contains(&7) {
                state.remove_flow(ids.remove(k));
                entries.remove(k);
            }
        }
        let (whole_sets, solved) = (state.dense_solves(), state.solved_flows());
        ids.push(state.insert_flow(&[7]));
        entries.push((vec![7], 1));
        assert_eq!(state.solved_flows() - solved, 1, "the drained link's entry");
        assert_eq!(
            state.dense_solves(),
            whole_sets,
            "the drained link left the giant"
        );
        assert_bitwise(&state, &ids, &reference_rates(&caps, &entries), "drained");
    }

    /// Settles `state`, asserting it ran one fill if one of the live
    /// `entries` crosses a link in `touched` and none otherwise.
    fn settle_counted(state: &mut FairShareState, touched: &[u32], entries: &[(Vec<u32>, u32)]) {
        let busy = entries
            .iter()
            .any(|(links, _)| links.iter().any(|l| touched.contains(l)));
        let before = state.solves();
        state.settle();
        assert_eq!(state.solves() - before, u64::from(busy), "fills per settle");
    }

    #[test]
    fn one_settle_covers_an_instant_of_mixed_mutations() {
        // Six recorded inserts per instant: the hub grows into the giant,
        // whose instants then fill the whole set.
        let (mut caps, mut entries) = hub_and_spokes(70, 6, 3);
        let mut state = FairShareState::new(caps.clone(), 1e10);
        let mut ids = Vec::new();
        for chunk in entries.chunks(6) {
            for (links, w) in chunk {
                ids.push(state.record_insert(links, *w));
            }
            settle_counted(&mut state, &chunk[0].0, &entries[..ids.len()]);
            let want = reference_rates(&caps, &entries[..ids.len()]);
            assert_bitwise(&state, &ids, &want, "grown");
        }
        assert!(state.dense_solves() > 0, "the giant filled the whole set");

        // One instant: spoke 1's entry leaves and a hub entry takes its
        // slot; idle link 1 and busy spoke link 2 go down to 0; spokes 3
        // and 4 merge under a bridging entry; a hub entry gains members.
        state.record_remove(ids[0]);
        let reused = state.record_insert(&[0, 8], 2);
        assert_eq!(reused, ids[0], "the freed slot is reused");
        (ids[0], entries[0]) = (reused, (vec![0, 8], 2));
        for link in [1, 2] {
            caps[link as usize] = 0.0;
            state.record_capacity(link, 0.0);
        }
        ids.push(state.record_insert(&[3, 4], 1));
        entries.push((vec![3, 4], 1));
        state.record_add_weight(ids[10], 4);
        entries[10].1 += 4;
        settle_counted(&mut state, &[0, 1, 2, 3, 4], &entries);
        assert_bitwise(&state, &ids, &reference_rates(&caps, &entries), "mixed");
        assert_eq!(state.rate(ids[1]), 0.0, "spoke 2 sits on a dead link");

        // The bridge leaves (a split) and link 2 comes back.
        state.record_remove(ids.pop().expect("the bridge"));
        entries.pop();
        caps[2] = 1e9;
        state.record_capacity(2, 1e9);
        settle_counted(&mut state, &[2, 3, 4], &entries);
        assert_bitwise(&state, &ids, &reference_rates(&caps, &entries), "split");

        // An instant that only empties a spoke costs no fill.
        state.record_remove(ids.remove(5));
        entries.remove(5);
        settle_counted(&mut state, &[6], &entries);
        assert_bitwise(&state, &ids, &reference_rates(&caps, &entries), "emptied");
    }

    proptest! {
        /// Recorded mutations in instants of one to six, one settle per
        /// instant: after every settle each live entry has its reference
        /// rate, by bits, and the settle ran one fill if a link it had
        /// recorded is busy, else none. Ops: `(0, _, pick)` removes a
        /// live entry (merges and splits come from removals and inserts
        /// of bridging entries), `(1, links, pick)` inserts a bundle of
        /// up to three members, `(2, _, pick)` adds or takes members (a
        /// plain insert when it cannot), `(3, links, pick)` sets a
        /// link's capacity (0, another link's, or half) for `pick` below
        /// 3 and inserts a flow crossing its first link twice otherwise.
        #[test]
        fn recorded_mutations_settle_exactly(
            caps in ops::caps(),
            ops in ops::ops(),
            instants in prop::collection::vec(1usize..7, 1..400),
        ) {
            let mut caps = caps;
            let n = caps.len() as u32;
            let mut state = FairShareState::new(caps.clone(), 1e10);
            // Live entries in insertion order: (handle, links, weight).
            let mut live: Vec<(FairFlowId, Vec<u32>, u32)> = Vec::new();
            let mut ops = ops.into_iter().peekable();
            for &size in instants.iter().cycle() {
                if ops.peek().is_none() {
                    break;
                }
                let mut touched: Vec<u32> = Vec::new();
                for (action, raw, pick) in ops.by_ref().take(size) {
                    let mut links: Vec<u32> = raw.iter().map(|&l| l % n).collect();
                    let target = (!live.is_empty()).then(|| pick % live.len());
                    match (action, target) {
                        (0, Some(k)) => {
                            let (id, links, _) = live.remove(k);
                            state.record_remove(id);
                            touched.extend(links);
                            continue;
                        }
                        (2, Some(k)) if pick < 2 => {
                            state.record_add_weight(live[k].0, 1 + pick as u32);
                            live[k].2 += 1 + pick as u32;
                            touched.extend_from_slice(&live[k].1);
                            continue;
                        }
                        (2, Some(k)) if pick < 4 && live[k].2 > 1 => {
                            let dw = pick as u32 % (live[k].2 - 1) + 1;
                            state.record_sub_weight(live[k].0, dw);
                            live[k].2 -= dw;
                            touched.extend_from_slice(&live[k].1);
                            continue;
                        }
                        (3, _) if pick < 3 => {
                            let l = links.first().copied().unwrap_or(pick as u32 % n);
                            let i = l as usize;
                            caps[i] = [0.0, caps[(i + 1) % caps.len()], caps[i] * 0.5][pick];
                            state.record_capacity(l, caps[i]);
                            touched.push(l);
                            continue;
                        }
                        (3, _) => {
                            if let Some(&first) = links.first() {
                                links = vec![first, first];
                            }
                        }
                        _ => {}
                    }
                    let weight = if action == 1 { 1 + pick as u32 % 3 } else { 1 };
                    let id = state.record_insert(&links, weight);
                    touched.extend_from_slice(&links);
                    live.push((id, links, weight));
                }
                let (ids, entries): (Vec<FairFlowId>, Vec<(Vec<u32>, u32)>) =
                    live.iter().map(|(id, l, w)| (*id, (l.clone(), *w))).unzip();
                settle_counted(&mut state, &touched, &entries);
                assert_bitwise(&state, &ids, &reference_rates(&caps, &entries), "settled");
            }
        }
    }
}
