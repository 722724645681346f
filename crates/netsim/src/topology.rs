//! Data-centre network topologies.
//!
//! The replay side of Keddah feeds generated Hadoop traffic into a
//! network simulator. This module provides the three topology families
//! the experiments use, as graphs of hosts and switches joined by
//! *directed* links (full-duplex cables become two directed links):
//!
//! * [`Topology::star`] — every host on one big switch (the paper's
//!   testbed was a single switch);
//! * [`Topology::leaf_spine`] — racks of hosts on leaf switches, leaves
//!   connected to every spine, with configurable oversubscription;
//! * [`Topology::fat_tree`] — the classic k-ary 3-tier Clos.

use serde::{Deserialize, Serialize};

/// Identifies a host (traffic endpoint) in a topology.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct HostId(pub u32);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// Identifies a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// A directed link with a capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Link {
    pub from: u32,
    pub to: u32,
    pub capacity_bps: f64,
}

/// A network of hosts and switches.
///
/// Nodes `0..host_count` are hosts; higher ids are switches. Use the
/// constructors — hand-building is not supported, which lets the router
/// assume connectivity.
#[derive(Debug, Clone)]
pub struct Topology {
    host_count: u32,
    node_count: u32,
    links: Vec<Link>,
    /// Outgoing link ids per node.
    out_links: Vec<Vec<u32>>,
    name: String,
}

impl Topology {
    fn new(host_count: u32, node_count: u32, name: String) -> Self {
        Topology {
            host_count,
            node_count,
            links: Vec::new(),
            out_links: vec![Vec::new(); node_count as usize],
            name,
        }
    }

    /// Adds a full-duplex cable: two directed links of `capacity_bps`.
    fn cable(&mut self, a: u32, b: u32, capacity_bps: f64) {
        for (from, to) in [(a, b), (b, a)] {
            let id = self.links.len() as u32;
            self.links.push(Link {
                from,
                to,
                capacity_bps,
            });
            self.out_links[from as usize].push(id);
        }
    }

    /// A single switch with `hosts` hosts attached at `host_bps` each.
    ///
    /// # Panics
    ///
    /// Panics if `hosts == 0` or the rate is not positive.
    #[must_use]
    pub fn star(hosts: u32, host_bps: f64) -> Topology {
        assert!(hosts > 0, "star needs at least one host");
        assert!(host_bps > 0.0, "link rate must be positive");
        let switch = hosts;
        let mut t = Topology::new(hosts, hosts + 1, format!("star({hosts})"));
        for h in 0..hosts {
            t.cable(h, switch, host_bps);
        }
        t
    }

    /// A two-tier leaf–spine fabric: `racks` leaves with
    /// `hosts_per_rack` hosts each at `host_bps`, every leaf wired to
    /// every one of `spines` spines. Each leaf uplink carries
    /// `hosts_per_rack * host_bps / (spines * oversubscription)` so that
    /// `oversubscription = 1.0` is non-blocking and larger values starve
    /// the core proportionally.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions or non-positive rates.
    #[must_use]
    pub fn leaf_spine(
        racks: u32,
        hosts_per_rack: u32,
        spines: u32,
        host_bps: f64,
        oversubscription: f64,
    ) -> Topology {
        assert!(
            racks > 0 && hosts_per_rack > 0 && spines > 0,
            "empty fabric"
        );
        assert!(
            host_bps > 0.0 && oversubscription > 0.0,
            "rates must be positive"
        );
        let hosts = racks * hosts_per_rack;
        let leaf_base = hosts;
        let spine_base = hosts + racks;
        let mut t = Topology::new(
            hosts,
            hosts + racks + spines,
            format!("leaf_spine({racks}x{hosts_per_rack}, {spines} spines, {oversubscription}x)"),
        );
        for h in 0..hosts {
            let leaf = leaf_base + h / hosts_per_rack;
            t.cable(h, leaf, host_bps);
        }
        let uplink_bps = hosts_per_rack as f64 * host_bps / (spines as f64 * oversubscription);
        for leaf in 0..racks {
            for spine in 0..spines {
                t.cable(leaf_base + leaf, spine_base + spine, uplink_bps);
            }
        }
        t
    }

    /// A k-ary fat-tree: `k` pods of `k/2` edge and `k/2` aggregation
    /// switches, `(k/2)^2` cores, `k^3/4` hosts, every link at
    /// `link_bps`.
    ///
    /// # Panics
    ///
    /// Panics unless `k` is even and at least 2.
    #[must_use]
    pub fn fat_tree(k: u32, link_bps: f64) -> Topology {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree requires even k >= 2"
        );
        assert!(link_bps > 0.0, "link rate must be positive");
        let half = k / 2;
        let hosts = k * k * k / 4;
        let edge_base = hosts;
        let agg_base = edge_base + k * half;
        let core_base = agg_base + k * half;
        let cores = half * half;
        let mut t = Topology::new(hosts, core_base + cores, format!("fat_tree(k={k})"));
        for pod in 0..k {
            for e in 0..half {
                let edge = edge_base + pod * half + e;
                // Hosts under this edge switch.
                for h in 0..half {
                    let host = pod * half * half + e * half + h;
                    t.cable(host, edge, link_bps);
                }
                // Edge to every aggregation switch in the pod.
                for a in 0..half {
                    let agg = agg_base + pod * half + a;
                    t.cable(edge, agg, link_bps);
                }
            }
            // Aggregation to core: agg j connects to cores [j*half, (j+1)*half).
            for a in 0..half {
                let agg = agg_base + pod * half + a;
                for c in 0..half {
                    let core = core_base + a * half + c;
                    t.cable(agg, core, link_bps);
                }
            }
        }
        t
    }

    /// The number of traffic endpoints.
    #[must_use]
    pub fn host_count(&self) -> u32 {
        self.host_count
    }

    /// Total nodes (hosts + switches).
    #[must_use]
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    /// Number of directed links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// A human-readable topology name (e.g. `"fat_tree(k=4)"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The capacity of a directed link.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn link_capacity(&self, link: LinkId) -> f64 {
        self.links[link.0 as usize].capacity_bps
    }

    /// Total one-direction capacity of the switching core: the sum over
    /// switch-to-switch cables of their capacity, each full-duplex cable
    /// counted once. For a leaf–spine fabric this is the aggregate leaf
    /// uplink capacity `racks * spines * uplink_bps` — the denominator
    /// the provisioning search divides predicted cross-rack load by to
    /// estimate core utilisation. Zero for a star (hosts share one
    /// switch, there is no core to saturate).
    #[must_use]
    pub fn core_capacity_bps(&self) -> f64 {
        self.links
            .iter()
            .filter(|l| l.from >= self.host_count && l.to >= self.host_count)
            .map(|l| l.capacity_bps)
            .sum::<f64>()
            / 2.0
    }

    /// Capacities of every directed link, indexed by link id — the
    /// dense table the fair-share allocator
    /// ([`crate::fair::FairShareState`]) is seeded with.
    #[must_use]
    pub fn capacities(&self) -> Vec<f64> {
        self.links.iter().map(|l| l.capacity_bps).collect()
    }

    pub(crate) fn links(&self) -> &[Link] {
        &self.links
    }

    /// Computes the directed links on a shortest path from `src` to
    /// `dst`, breaking ECMP ties with `flow_hash` (the same hash always
    /// takes the same path, distinct hashes spread across equal-cost
    /// paths). Runs a BFS per call; [`crate::RouteCache`] is the
    /// memoized, fault-aware router.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a host.
    #[must_use]
    pub fn route(&self, src: HostId, dst: HostId, flow_hash: u64) -> Vec<LinkId> {
        assert!(src.0 < self.host_count, "{src} is not a host");
        assert!(dst.0 < self.host_count, "{dst} is not a host");
        let dist = self.distances_to(dst.0, &[]);
        self.walk_route(src.0, dst.0, &dist, flow_hash, &[])
            .expect("topology is connected")
    }

    /// Walks the ECMP shortest path given the distance table
    /// [`Self::distances_to`] computed for `dst` under the same `down`
    /// set. Returns `None` when `dst` is unreachable from `src`.
    pub(crate) fn walk_route(
        &self,
        src: u32,
        dst: u32,
        dist: &[u32],
        flow_hash: u64,
        down: &[bool],
    ) -> Option<Vec<LinkId>> {
        if dist[src as usize] == u32::MAX {
            return None;
        }
        let mut path = Vec::new();
        let mut at = src;
        let mut hop = 0u64;
        while at != dst {
            let d_here = dist[at as usize];
            let candidates: Vec<u32> = self.out_links[at as usize]
                .iter()
                .copied()
                .filter(|&l| {
                    let to = self.links[l as usize].to;
                    !is_down(down, l) && dist[to as usize].checked_add(1) == Some(d_here)
                })
                .collect();
            // Every node at finite distance has a next hop one closer.
            let pick = candidates[(mix(flow_hash, hop) as usize) % candidates.len()];
            path.push(LinkId(pick));
            at = self.links[pick as usize].to;
            hop += 1;
        }
        Some(path)
    }

    /// BFS hop distances from every node to `dst` (following links
    /// forward, computed over the reverse graph), with the links marked
    /// in `down` removed; an empty slice means every link is up.
    /// Unreachable nodes keep `u32::MAX`.
    pub(crate) fn distances_to(&self, dst: u32, down: &[bool]) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.node_count as usize];
        dist[dst as usize] = 0;
        let mut frontier = std::collections::VecDeque::new();
        frontier.push_back(dst);
        let mut incoming: Vec<Vec<u32>> = vec![Vec::new(); self.node_count as usize];
        for (i, l) in self.links.iter().enumerate() {
            if !is_down(down, i as u32) {
                incoming[l.to as usize].push(l.from);
            }
        }
        while let Some(v) = frontier.pop_front() {
            let d = dist[v as usize];
            for &u in &incoming[v as usize] {
                if dist[u as usize] == u32::MAX {
                    dist[u as usize] = d + 1;
                    frontier.push_back(u);
                }
            }
        }
        dist
    }
}

/// True when `down` marks `link`; links past its end are up.
fn is_down(down: &[bool], link: u32) -> bool {
    down.get(link as usize).copied().unwrap_or(false)
}

/// Cheap deterministic 64-bit mix for ECMP tie-breaking.
fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_geometry() {
        let t = Topology::star(8, 1e9);
        assert_eq!(t.host_count(), 8);
        assert_eq!(t.node_count(), 9);
        assert_eq!(t.link_count(), 16); // 8 duplex cables
        let path = t.route(HostId(0), HostId(5), 1);
        assert_eq!(path.len(), 2); // host -> switch -> host
    }

    #[test]
    fn self_route_is_empty() {
        let t = Topology::star(4, 1e9);
        assert!(t.route(HostId(2), HostId(2), 0).is_empty());
    }

    #[test]
    fn leaf_spine_geometry_and_paths() {
        let t = Topology::leaf_spine(4, 4, 2, 1e9, 1.0);
        assert_eq!(t.host_count(), 16);
        assert_eq!(t.node_count(), 16 + 4 + 2);
        // Intra-rack: host -> leaf -> host (2 hops).
        let intra = t.route(HostId(0), HostId(1), 0);
        assert_eq!(intra.len(), 2);
        // Inter-rack: host -> leaf -> spine -> leaf -> host (4 hops).
        let inter = t.route(HostId(0), HostId(15), 0);
        assert_eq!(inter.len(), 4);
    }

    #[test]
    fn leaf_spine_oversubscription_scales_uplinks() {
        let non_blocking = Topology::leaf_spine(2, 4, 2, 1e9, 1.0);
        let oversub = Topology::leaf_spine(2, 4, 2, 1e9, 4.0);
        // Uplinks are the links whose capacity differs from the host
        // rate; their capacity ratio must be exactly the
        // oversubscription factor.
        let uplink = |t: &Topology| -> f64 {
            t.links()
                .iter()
                .map(|l| l.capacity_bps)
                .find(|&c| (c - 1e9).abs() > 1.0)
                .expect("fabric has uplinks")
        };
        // Non-blocking: 4 hosts x 1 Gb/s over 2 spines = 2 Gb/s uplinks.
        assert!((uplink(&non_blocking) - 2e9).abs() < 1.0);
        assert!((uplink(&non_blocking) / uplink(&oversub) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn core_capacity_counts_switch_cables_once() {
        // 4 racks x 2 spines, non-blocking: uplinks carry 4x1 Gb/s / 2
        // spines = 2 Gb/s, so the core is 4 * 2 * 2 Gb/s = 16 Gb/s.
        let t = Topology::leaf_spine(4, 4, 2, 1e9, 1.0);
        assert!((t.core_capacity_bps() - 16e9).abs() < 1.0);
        // Oversubscribing 4x starves the core by exactly 4x.
        let o = Topology::leaf_spine(4, 4, 2, 1e9, 4.0);
        assert!((t.core_capacity_bps() / o.core_capacity_bps() - 4.0).abs() < 1e-9);
        // A star has no switch-to-switch cables.
        assert_eq!(Topology::star(8, 1e9).core_capacity_bps(), 0.0);
    }

    #[test]
    fn fat_tree_geometry() {
        let t = Topology::fat_tree(4, 1e9);
        assert_eq!(t.host_count(), 16);
        // 16 hosts + 8 edge + 8 agg + 4 core.
        assert_eq!(t.node_count(), 36);
        // Same-pod same-edge: 2 hops; cross-pod: 6 hops.
        assert_eq!(t.route(HostId(0), HostId(1), 0).len(), 2);
        assert_eq!(t.route(HostId(0), HostId(15), 0).len(), 6);
    }

    #[test]
    fn ecmp_spreads_but_is_deterministic() {
        let t = Topology::fat_tree(4, 1e9);
        let p1 = t.route(HostId(0), HostId(12), 42);
        let p2 = t.route(HostId(0), HostId(12), 42);
        assert_eq!(p1, p2, "same hash, same path");
        // Across many hashes, at least two distinct paths are used.
        let distinct: std::collections::HashSet<Vec<LinkId>> =
            (0..32).map(|h| t.route(HostId(0), HostId(12), h)).collect();
        assert!(distinct.len() > 1, "ECMP never spread");
        // All are valid shortest paths.
        for p in distinct {
            assert_eq!(p.len(), 6);
        }
    }

    #[test]
    #[should_panic(expected = "not a host")]
    fn routing_rejects_switch_endpoints() {
        let t = Topology::star(2, 1e9);
        let _ = t.route(HostId(2), HostId(0), 0); // node 2 is the switch
    }

    #[test]
    #[should_panic(expected = "even k")]
    fn fat_tree_rejects_odd_k() {
        let _ = Topology::fat_tree(3, 1e9);
    }
}
