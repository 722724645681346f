//! Destination-indexed, fault-aware route caching.
//!
//! [`Topology::route`] runs a BFS per call; a replay injecting tens of
//! thousands of flows toward a handful of reducer hosts repeats the same
//! BFS endlessly. [`RouteCache`] memoizes the per-destination distance
//! tables so each destination's BFS runs once, while ECMP selection
//! stays per-flow. It also owns the set of downed links: marking one
//! drops the tables, which are rebuilt lazily over the surviving graph.

use std::collections::HashMap;

use crate::topology::{HostId, LinkId, Topology};

/// A per-destination route cache over one topology.
///
/// # Examples
///
/// ```
/// use keddah_netsim::{RouteCache, HostId, LinkId, Topology};
///
/// let topo = Topology::fat_tree(4, 1e9);
/// let mut cache = RouteCache::new(&topo);
/// let path = cache.route(HostId(0), HostId(12), 7);
/// assert_eq!(path, Some(topo.route(HostId(0), HostId(12), 7)));
/// // Host 0's only uplink fails: host 0 can reach nobody.
/// assert!(cache.set_down(LinkId(0)));
/// assert_eq!(cache.route(HostId(0), HostId(12), 7), None);
/// ```
#[derive(Debug)]
pub struct RouteCache<'a> {
    topo: &'a Topology,
    distances: HashMap<u32, Vec<u32>>,
    /// `down[link]` is true once the link has failed.
    down: Vec<bool>,
}

impl<'a> RouteCache<'a> {
    /// Creates an empty cache over `topo`, every link up.
    #[must_use]
    pub fn new(topo: &'a Topology) -> Self {
        RouteCache {
            topo,
            distances: HashMap::new(),
            down: vec![false; topo.link_count()],
        }
    }

    /// Creates a cache with every host's distance table precomputed.
    ///
    /// Routing then never pays a BFS at simulation time — the
    /// `flow_scaling` bench uses this to keep route construction out of
    /// the allocator measurements, and large replays (every host a
    /// destination sooner or later) skip the first-touch latency.
    #[must_use]
    pub fn warmed(topo: &'a Topology) -> Self {
        let mut cache = RouteCache::new(topo);
        cache.warm();
        cache
    }

    /// Precomputes the distance tables of all hosts not yet cached.
    pub fn warm(&mut self) {
        for dst in 0..self.topo.host_count() {
            let (topo, down) = (self.topo, &self.down);
            self.distances
                .entry(dst)
                .or_insert_with(|| topo.distances_to(dst, down));
        }
    }

    /// Number of destinations whose distance table is cached.
    #[cfg(test)]
    fn cached_destinations(&self) -> usize {
        self.distances.len()
    }

    /// Marks `link` as failed, dropping every cached table (any of them
    /// may cross it). Returns false, and changes nothing, when the link
    /// was already down.
    ///
    /// # Panics
    ///
    /// Panics if the link id is out of range.
    pub fn set_down(&mut self, link: LinkId) -> bool {
        let was_down = std::mem::replace(&mut self.down[link.0 as usize], true);
        if !was_down {
            self.distances.clear();
        }
        !was_down
    }

    /// True once `link` has been marked down.
    ///
    /// # Panics
    ///
    /// Panics if the link id is out of range.
    #[must_use]
    pub fn is_down(&self, link: LinkId) -> bool {
        self.down[link.0 as usize]
    }

    /// Shortest ECMP path from `src` to `dst` over the links still up,
    /// identical to [`Topology::route`] while none is down, with the
    /// destination's BFS memoized. Returns `None` when the downed links
    /// disconnect the pair.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a host.
    pub fn route(&mut self, src: HostId, dst: HostId, flow_hash: u64) -> Option<Vec<LinkId>> {
        assert!(src.0 < self.topo.host_count(), "{src} is not a host");
        assert!(dst.0 < self.topo.host_count(), "{dst} is not a host");
        if src == dst {
            return Some(Vec::new());
        }
        let (topo, down) = (self.topo, &self.down);
        let dist = self
            .distances
            .entry(dst.0)
            .or_insert_with(|| topo.distances_to(dst.0, down));
        topo.walk_route(src.0, dst.0, dist, flow_hash, down)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_agrees_with_direct_routing() {
        for topo in [
            Topology::fat_tree(4, 1e9),
            Topology::star(5, 1e9),
            Topology::leaf_spine(3, 2, 2, 1e9, 2.0),
        ] {
            let mut cache = RouteCache::new(&topo);
            for src in 0..topo.host_count() {
                for dst in 0..topo.host_count() {
                    for hash in [0u64, 7, 42] {
                        assert_eq!(
                            cache.route(HostId(src), HostId(dst), hash),
                            Some(topo.route(HostId(src), HostId(dst), hash)),
                            "{}: mismatch {src}->{dst} hash {hash}",
                            topo.name()
                        );
                    }
                }
            }
            // One BFS per destination, not per call.
            assert_eq!(cache.cached_destinations() as u32, topo.host_count());
        }
    }

    #[test]
    fn warmed_cache_needs_no_lazy_bfs() {
        let topo = Topology::leaf_spine(2, 3, 2, 1e9, 1.0);
        let mut cache = RouteCache::warmed(&topo);
        assert_eq!(cache.cached_destinations() as u32, topo.host_count());
        let path = cache.route(HostId(0), HostId(5), 3);
        assert_eq!(path, Some(topo.route(HostId(0), HostId(5), 3)));
        assert_eq!(cache.cached_destinations() as u32, topo.host_count());
    }

    /// Hops from `src` to `dst` over the links not in `down`: a BFS over
    /// the raw link list, independent of the topology's own.
    fn hops_avoiding(topo: &Topology, down: &[u32], src: u32, dst: u32) -> Option<usize> {
        let mut dist = vec![usize::MAX; topo.node_count() as usize];
        dist[src as usize] = 0;
        let mut frontier = std::collections::VecDeque::from([src]);
        while let Some(u) = frontier.pop_front() {
            for (i, link) in topo.links().iter().enumerate() {
                if link.from == u
                    && !down.contains(&(i as u32))
                    && dist[link.to as usize] == usize::MAX
                {
                    dist[link.to as usize] = dist[u as usize] + 1;
                    frontier.push_back(link.to);
                }
            }
        }
        (dist[dst as usize] != usize::MAX).then_some(dist[dst as usize])
    }

    #[test]
    fn routes_over_every_one_and_two_link_down_set() {
        let topo = Topology::leaf_spine(2, 2, 2, 1e9, 1.0);
        let n = topo.link_count() as u32;
        let mut sets: Vec<Vec<u32>> = (0..n).map(|a| vec![a]).collect();
        sets.extend((0..n).flat_map(|a| (a + 1..n).map(move |b| vec![a, b])));
        for down in &sets {
            let mut cache = RouteCache::new(&topo);
            for &l in down {
                assert!(cache.set_down(LinkId(l)));
            }
            for src in 0..topo.host_count() {
                for dst in 0..topo.host_count() {
                    for hash in [0u64, 3, 11] {
                        let what = format!("down {down:?}, {src}->{dst} hash {hash}");
                        let route = cache.route(HostId(src), HostId(dst), hash);
                        match (route, hops_avoiding(&topo, down, src, dst)) {
                            (Some(path), Some(hops)) => {
                                assert_eq!(path.len(), hops, "{what}: not shortest");
                                let mut at = src;
                                for l in &path {
                                    let link = topo.links()[l.0 as usize];
                                    assert_eq!(link.from, at, "{what}: not contiguous");
                                    assert!(!down.contains(&l.0), "{what}: crosses a downed link");
                                    at = link.to;
                                }
                                assert_eq!(at, dst, "{what}: ends elsewhere");
                            }
                            (None, None) => {}
                            (route, hops) => {
                                panic!("{what}: routed {route:?}, reachable in {hops:?}")
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn masked_routing_avoids_downed_links_or_reports_disconnection() {
        let topo = Topology::leaf_spine(2, 2, 2, 1e9, 1.0);
        let clean = topo.route(HostId(0), HostId(3), 5);
        // Down a fabric link the clean path uses (index 0 is the host
        // uplink): two spines, so the route goes around it.
        let mut cache = RouteCache::new(&topo);
        assert!(cache.set_down(clean[1]));
        let masked = cache
            .route(HostId(0), HostId(3), 5)
            .expect("alternative spine exists");
        assert!(!masked.contains(&clean[1]));
        // Down the host's only uplink: disconnected.
        assert!(cache.set_down(clean[0]));
        assert_eq!(cache.route(HostId(0), HostId(3), 5), None);
        // Self-routes survive any down set.
        assert_eq!(cache.route(HostId(1), HostId(1), 0), Some(Vec::new()));
    }

    #[test]
    fn set_down_clears_cached_tables_once() {
        let topo = Topology::star(4, 1e9);
        let mut cache = RouteCache::warmed(&topo);
        assert!(!cache.is_down(LinkId(3)));
        assert!(cache.set_down(LinkId(3)));
        assert!(cache.is_down(LinkId(3)));
        assert_eq!(cache.cached_destinations(), 0);
        cache.warm();
        assert!(!cache.set_down(LinkId(3)), "already down");
        assert_eq!(cache.cached_destinations() as u32, topo.host_count());
    }

    #[test]
    fn self_routes_are_empty_and_uncached() {
        let topo = Topology::star(4, 1e9);
        let mut cache = RouteCache::new(&topo);
        assert_eq!(cache.route(HostId(2), HostId(2), 0), Some(Vec::new()));
        assert_eq!(cache.cached_destinations(), 0);
    }
}
