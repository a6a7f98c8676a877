//! Network topologies for the simulated wide area.
//!
//! A topology is an undirected weighted graph: vertices are physical
//! servers, edge weights are one-way link latencies. Messages between
//! non-adjacent nodes travel at the shortest-path latency — this models the
//! paper's assumption that OceanStore "does not supplant IP routing, but
//! rather provides additional functionality on top of IP" (§4.3.1):
//! any-to-any unicast exists, while *overlay* protocols (attenuated Bloom
//! filters, the Plaxton mesh) make hop-by-hop decisions using
//! [`Topology::neighbors`].
//!
//! Shortest-path latencies and hop counts are computed lazily per source
//! and cached behind a lock, so large meshes only pay for the sources they
//! actually use.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rand::Rng;

use crate::time::SimDuration;

/// Identifies a node (server or client host) in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An undirected latency-weighted graph of nodes.
pub struct Topology {
    /// adjacency[u] = (v, one-way latency)
    adj: Vec<Vec<(NodeId, SimDuration)>>,
    /// Set for [`Topology::uniform_mesh`]: every distinct pair is linked at
    /// this latency, but no adjacency/cache memory is materialized —
    /// `dist`/`hops` answer in O(1). A 10k-node full mesh would otherwise
    /// cost ~10⁸ adjacency entries plus an O(n) Dijkstra row per warmed
    /// source, which is what caps deployment size.
    uniform: Option<SimDuration>,
    /// Optional 2-D embedding (geometric topologies keep it for debugging
    /// and for latency-proportional placement experiments).
    positions: Option<Vec<(f64, f64)>>,
    /// Per-source shortest-path latency cache (µs); `u64::MAX` = unreachable.
    dist_cache: Mutex<Vec<Option<Vec<u64>>>>,
    /// Per-source hop-count cache; `u32::MAX` = unreachable.
    hop_cache: Mutex<Vec<Option<Vec<u32>>>>,
    /// How many Dijkstra sweeps [`Topology::dist`] has run. The cache
    /// guarantees at most one per source; this counter lets tests prove it
    /// (see `tests/one_dijkstra_per_source.rs` in this crate).
    dijkstra_runs: AtomicU64,
    /// How many BFS sweeps have run ([`Topology::hops`] plus one per
    /// [`Topology::is_connected`] call, which bypasses the cache).
    bfs_runs: AtomicU64,
}

/// Deep copy, *including* the warmed shortest-path and hop caches.
/// Benchmarks and replay harnesses build one topology, warm its caches,
/// and clone it per run so repeated runs never re-pay Dijkstra sweeps.
impl Clone for Topology {
    fn clone(&self) -> Self {
        Topology {
            adj: self.adj.clone(),
            uniform: self.uniform,
            positions: self.positions.clone(),
            dist_cache: Mutex::new(self.dist_cache.lock().expect("cache lock poisoned").clone()),
            hop_cache: Mutex::new(self.hop_cache.lock().expect("cache lock poisoned").clone()),
            dijkstra_runs: AtomicU64::new(self.dijkstra_runs.load(Ordering::Relaxed)),
            bfs_runs: AtomicU64::new(self.bfs_runs.load(Ordering::Relaxed)),
        }
    }
}

impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topology")
            .field("nodes", &self.len())
            .field("edges", &self.edge_count())
            .finish()
    }
}

impl Topology {
    fn with_adj(adj: Vec<Vec<(NodeId, SimDuration)>>, positions: Option<Vec<(f64, f64)>>) -> Self {
        let n = adj.len();
        Topology {
            adj,
            uniform: None,
            positions,
            dist_cache: Mutex::new(vec![None; n]),
            hop_cache: Mutex::new(vec![None; n]),
            dijkstra_runs: AtomicU64::new(0),
            bfs_runs: AtomicU64::new(0),
        }
    }

    /// Builds an empty-edged topology of `n` isolated nodes; add edges with
    /// [`TopologyBuilder`].
    pub fn builder(n: usize) -> TopologyBuilder {
        TopologyBuilder { adj: vec![Vec::new(); n], positions: None }
    }

    /// Complete graph on `n` nodes with uniform one-way `latency`.
    ///
    /// This is the wide-area model of §4.4.5 ("each message takes 100 ms").
    pub fn full_mesh(n: usize, latency: SimDuration) -> Self {
        let mut b = Self::builder(n);
        for u in 0..n {
            for v in (u + 1)..n {
                b.edge(NodeId(u), NodeId(v), latency);
            }
        }
        b.build()
    }

    /// Ring of `n` nodes with uniform edge `latency`.
    pub fn ring(n: usize, latency: SimDuration) -> Self {
        let mut b = Self::builder(n);
        for u in 0..n {
            b.edge(NodeId(u), NodeId((u + 1) % n), latency);
        }
        b.build()
    }

    /// Complete graph on `n` nodes with uniform one-way `latency`, stored
    /// implicitly: `dist`/`hops` answer in O(1) with no adjacency lists or
    /// per-source caches, so meshes of 10k+ nodes cost O(n) memory instead
    /// of O(n²). Latency-identical to [`Topology::full_mesh`] for every
    /// pair, hence schedule-identical for any protocol that routes by
    /// [`Topology::dist`]; [`Topology::neighbors`] reports no overlay
    /// edges, so hop-by-hop overlay protocols should keep `full_mesh`.
    pub fn uniform_mesh(n: usize, latency: SimDuration) -> Self {
        let mut t = Self::with_adj(vec![Vec::new(); n], None);
        t.uniform = Some(latency);
        t
    }

    /// `w × h` grid with uniform edge `latency`.
    pub fn grid(w: usize, h: usize, latency: SimDuration) -> Self {
        let mut b = Self::builder(w * h);
        for y in 0..h {
            for x in 0..w {
                let u = NodeId(y * w + x);
                if x + 1 < w {
                    b.edge(u, NodeId(y * w + x + 1), latency);
                }
                if y + 1 < h {
                    b.edge(u, NodeId((y + 1) * w + x), latency);
                }
            }
        }
        b.build()
    }

    /// Random geometric graph: `n` nodes placed uniformly in the unit
    /// square; nodes within `radius` are linked, with latency proportional
    /// to Euclidean distance scaled so that a full unit of distance costs
    /// `unit_latency`. Connectivity is guaranteed by afterwards linking each
    /// connected component to its nearest neighbour component.
    pub fn random_geometric<R: Rng>(
        n: usize,
        radius: f64,
        unit_latency: SimDuration,
        rng: &mut R,
    ) -> Self {
        assert!(n > 0, "topology needs at least one node");
        let pts: Vec<(f64, f64)> =
            (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
        let lat = |a: (f64, f64), b: (f64, f64)| {
            let d = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
            // Minimum 1µs so no edge is free.
            SimDuration::from_micros((d * unit_latency.as_micros() as f64).round().max(1.0) as u64)
        };
        let mut b = Self::builder(n);
        b.positions = Some(pts.clone());
        for u in 0..n {
            for v in (u + 1)..n {
                let d = ((pts[u].0 - pts[v].0).powi(2) + (pts[u].1 - pts[v].1).powi(2)).sqrt();
                if d <= radius {
                    b.edge(NodeId(u), NodeId(v), lat(pts[u], pts[v]));
                }
            }
        }
        // Stitch components together (union-find).
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        for (u, nbrs) in b.adj.iter().enumerate() {
            for (v, _) in nbrs {
                let (ru, rv) = (find(&mut parent, u), find(&mut parent, v.0));
                if ru != rv {
                    parent[ru] = rv;
                }
            }
        }
        loop {
            let roots: Vec<usize> =
                (0..n).filter(|&x| find(&mut parent, x) == x).collect();
            if roots.len() <= 1 {
                break;
            }
            // Link the two closest nodes in different components.
            let mut best: Option<(usize, usize, f64)> = None;
            for u in 0..n {
                for v in (u + 1)..n {
                    if find(&mut parent, u) != find(&mut parent, v) {
                        let d = ((pts[u].0 - pts[v].0).powi(2) + (pts[u].1 - pts[v].1).powi(2))
                            .sqrt();
                        if best.is_none_or(|(_, _, bd)| d < bd) {
                            best = Some((u, v, d));
                        }
                    }
                }
            }
            let (u, v, _) = best.expect("more than one component implies a crossing pair");
            b.edge(NodeId(u), NodeId(v), lat(pts[u], pts[v]));
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            parent[ru] = rv;
        }
        b.build()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        if self.uniform.is_some() {
            return self.adj.len() * self.adj.len().saturating_sub(1) / 2;
        }
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Direct neighbours of `u` with link latencies.
    pub fn neighbors(&self, u: NodeId) -> &[(NodeId, SimDuration)] {
        &self.adj[u.0]
    }

    /// 2-D position of `u`, when the topology has an embedding.
    pub fn position(&self, u: NodeId) -> Option<(f64, f64)> {
        self.positions.as_ref().map(|p| p[u.0])
    }

    /// One-way shortest-path latency from `u` to `v` (the "IP distance" the
    /// paper's locality arguments use). `None` if unreachable.
    pub fn dist(&self, u: NodeId, v: NodeId) -> Option<SimDuration> {
        if u == v {
            return Some(SimDuration::ZERO);
        }
        if let Some(lat) = self.uniform {
            return (u.0 < self.adj.len() && v.0 < self.adj.len()).then_some(lat);
        }
        let mut cache = self.dist_cache.lock().expect("cache lock poisoned");
        if cache[u.0].is_none() {
            cache[u.0] = Some(self.dijkstra(u));
        }
        let d = cache[u.0].as_ref().expect("just filled")[v.0];
        (d != u64::MAX).then(|| SimDuration::from_micros(d))
    }

    /// Hop count of the shortest unweighted path from `u` to `v` (the
    /// attenuated-Bloom-filter distance metric, §4.3.2). `None` if
    /// unreachable.
    pub fn hops(&self, u: NodeId, v: NodeId) -> Option<u32> {
        if u == v {
            return Some(0);
        }
        if self.uniform.is_some() {
            return (u.0 < self.adj.len() && v.0 < self.adj.len()).then_some(1);
        }
        let mut cache = self.hop_cache.lock().expect("cache lock poisoned");
        if cache[u.0].is_none() {
            cache[u.0] = Some(self.bfs(u));
        }
        let h = cache[u.0].as_ref().expect("just filled")[v.0];
        (h != u32::MAX).then_some(h)
    }

    /// Minimum one-way latency over links that cross `groups` boundaries —
    /// the conservative PDES lookahead bound: any message between nodes in
    /// different groups travels a shortest path containing at least one
    /// crossing edge, so its latency is at least this value. `None` when no
    /// link crosses (the groups are network-isolated, i.e. unbounded
    /// lookahead). For a [`Topology::uniform_mesh`] every distinct pair is
    /// a crossing link, so the answer is the uniform latency in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `groups.len()` differs from the node count.
    pub fn min_cross_group_latency(&self, groups: &[u32]) -> Option<SimDuration> {
        assert_eq!(groups.len(), self.adj.len(), "one group per node");
        if let Some(lat) = self.uniform {
            let first = groups.first().copied().unwrap_or(0);
            return groups.iter().any(|&g| g != first).then_some(lat);
        }
        let mut best: Option<SimDuration> = None;
        for (u, nbrs) in self.adj.iter().enumerate() {
            for &(v, lat) in nbrs {
                if groups[u] != groups[v.0] && best.is_none_or(|b| lat < b) {
                    best = Some(lat);
                }
            }
        }
        best
    }

    /// Whether every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() || self.uniform.is_some() {
            return true;
        }
        let reach = self.bfs(NodeId(0));
        reach.iter().all(|&h| h != u32::MAX)
    }

    /// Total Dijkstra sweeps run so far. The per-source cache bounds this by
    /// the number of distinct sources ever passed to [`Topology::dist`].
    pub fn dijkstra_runs(&self) -> u64 {
        self.dijkstra_runs.load(Ordering::Relaxed)
    }

    /// Total BFS sweeps run so far ([`Topology::hops`] cache fills plus
    /// [`Topology::is_connected`] calls).
    pub fn bfs_runs(&self) -> u64 {
        self.bfs_runs.load(Ordering::Relaxed)
    }

    fn dijkstra(&self, src: NodeId) -> Vec<u64> {
        self.dijkstra_runs.fetch_add(1, Ordering::Relaxed);
        let mut dist = vec![u64::MAX; self.adj.len()];
        dist[src.0] = 0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u64, src.0)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for &(v, w) in &self.adj[u] {
                let nd = d.saturating_add(w.as_micros());
                if nd < dist[v.0] {
                    dist[v.0] = nd;
                    heap.push(Reverse((nd, v.0)));
                }
            }
        }
        dist
    }

    fn bfs(&self, src: NodeId) -> Vec<u32> {
        self.bfs_runs.fetch_add(1, Ordering::Relaxed);
        let mut hops = vec![u32::MAX; self.adj.len()];
        hops[src.0] = 0;
        let mut queue = std::collections::VecDeque::from([src.0]);
        while let Some(u) = queue.pop_front() {
            for &(v, _) in &self.adj[u] {
                if hops[v.0] == u32::MAX {
                    hops[v.0] = hops[u] + 1;
                    queue.push_back(v.0);
                }
            }
        }
        hops
    }
}

/// Incremental topology construction.
#[derive(Debug)]
pub struct TopologyBuilder {
    adj: Vec<Vec<(NodeId, SimDuration)>>,
    positions: Option<Vec<(f64, f64)>>,
}

impl TopologyBuilder {
    /// Adds an undirected edge (replacing any existing edge between the
    /// pair).
    ///
    /// # Panics
    ///
    /// Panics on a self-loop or an out-of-range endpoint.
    pub fn edge(&mut self, u: NodeId, v: NodeId, latency: SimDuration) -> &mut Self {
        assert_ne!(u, v, "self-loops are not allowed");
        assert!(u.0 < self.adj.len() && v.0 < self.adj.len(), "node out of range");
        self.adj[u.0].retain(|(x, _)| *x != v);
        self.adj[v.0].retain(|(x, _)| *x != u);
        self.adj[u.0].push((v, latency));
        self.adj[v.0].push((u, latency));
        self
    }

    /// Finishes construction.
    pub fn build(self) -> Topology {
        Topology::with_adj(self.adj, self.positions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const MS: fn(u64) -> SimDuration = SimDuration::from_millis;

    #[test]
    fn full_mesh_shape() {
        let t = Topology::full_mesh(5, MS(100));
        assert_eq!(t.len(), 5);
        assert_eq!(t.edge_count(), 10);
        assert_eq!(t.dist(NodeId(0), NodeId(4)), Some(MS(100)));
        assert_eq!(t.hops(NodeId(0), NodeId(4)), Some(1));
        assert!(t.is_connected());
    }

    #[test]
    fn ring_distances() {
        let t = Topology::ring(6, MS(10));
        // Opposite side of the ring: 3 hops either way.
        assert_eq!(t.hops(NodeId(0), NodeId(3)), Some(3));
        assert_eq!(t.dist(NodeId(0), NodeId(3)), Some(MS(30)));
        assert_eq!(t.dist(NodeId(0), NodeId(5)), Some(MS(10)));
    }

    #[test]
    fn grid_distances() {
        let t = Topology::grid(4, 4, MS(5));
        // Manhattan distance from corner to corner is 6 hops.
        assert_eq!(t.hops(NodeId(0), NodeId(15)), Some(6));
        assert_eq!(t.dist(NodeId(0), NodeId(15)), Some(MS(30)));
    }

    #[test]
    fn dist_to_self_is_zero() {
        let t = Topology::ring(4, MS(10));
        assert_eq!(t.dist(NodeId(2), NodeId(2)), Some(SimDuration::ZERO));
        assert_eq!(t.hops(NodeId(2), NodeId(2)), Some(0));
    }

    #[test]
    fn disconnected_pair() {
        let t = Topology::builder(3).build();
        assert_eq!(t.dist(NodeId(0), NodeId(1)), None);
        assert_eq!(t.hops(NodeId(0), NodeId(1)), None);
        assert!(!t.is_connected());
    }

    #[test]
    fn dijkstra_prefers_cheap_multihop() {
        // 0-1-2 cheap path vs 0-2 expensive direct edge.
        let mut b = Topology::builder(3);
        b.edge(NodeId(0), NodeId(1), MS(1));
        b.edge(NodeId(1), NodeId(2), MS(1));
        b.edge(NodeId(0), NodeId(2), MS(10));
        let t = b.build();
        assert_eq!(t.dist(NodeId(0), NodeId(2)), Some(MS(2)));
        // Hops still counts the direct edge as 1.
        assert_eq!(t.hops(NodeId(0), NodeId(2)), Some(1));
    }

    #[test]
    fn random_geometric_connected() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        // Small radius: forces the component-stitching path.
        let t = Topology::random_geometric(50, 0.08, MS(100), &mut rng);
        assert_eq!(t.len(), 50);
        assert!(t.is_connected());
        // Determinism under the same seed.
        let mut rng2 = ChaCha8Rng::seed_from_u64(7);
        let t2 = Topology::random_geometric(50, 0.08, MS(100), &mut rng2);
        assert_eq!(t.edge_count(), t2.edge_count());
    }

    #[test]
    fn geometric_latency_tracks_distance() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let t = Topology::random_geometric(30, 0.5, MS(100), &mut rng);
        for u in 0..t.len() {
            for &(v, lat) in t.neighbors(NodeId(u)) {
                let (a, b) = (t.position(NodeId(u)).unwrap(), t.position(v).unwrap());
                let d = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
                let expect = (d * MS(100).as_micros() as f64).round().max(1.0) as u64;
                assert_eq!(lat.as_micros(), expect);
            }
        }
    }

    #[test]
    fn edge_replacement() {
        let mut b = Topology::builder(2);
        b.edge(NodeId(0), NodeId(1), MS(10));
        b.edge(NodeId(0), NodeId(1), MS(5));
        let t = b.build();
        assert_eq!(t.edge_count(), 1);
        assert_eq!(t.dist(NodeId(0), NodeId(1)), Some(MS(5)));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        Topology::builder(2).edge(NodeId(0), NodeId(0), MS(1));
    }

    #[test]
    fn min_cross_group_latency_is_the_lookahead_bound() {
        // Ring 0-1-2-3-0 with one cheap edge inside group 0 and crossing
        // edges of 10 ms and 7 ms: the lookahead is the cheapest *crossing*
        // edge, not the cheapest edge overall.
        let mut b = Topology::builder(4);
        b.edge(NodeId(0), NodeId(1), MS(1));
        b.edge(NodeId(1), NodeId(2), MS(10));
        b.edge(NodeId(2), NodeId(3), MS(2));
        b.edge(NodeId(3), NodeId(0), MS(7));
        let t = b.build();
        let groups = [0, 0, 1, 1];
        assert_eq!(t.min_cross_group_latency(&groups), Some(MS(7)));
        // Every cross-group shortest path respects the bound.
        for u in 0..4 {
            for v in 0..4 {
                if groups[u] != groups[v] {
                    assert!(t.dist(NodeId(u), NodeId(v)).unwrap() >= MS(7));
                }
            }
        }
        // One group: no crossing links.
        assert_eq!(t.min_cross_group_latency(&[0; 4]), None);
        // Isolated groups: unbounded lookahead.
        let iso = Topology::builder(2).build();
        assert_eq!(iso.min_cross_group_latency(&[0, 1]), None);
        // Uniform meshes answer in O(1).
        let u = Topology::uniform_mesh(100, MS(25));
        let mut g = vec![0u32; 100];
        g[50..].iter_mut().for_each(|x| *x = 1);
        assert_eq!(u.min_cross_group_latency(&g), Some(MS(25)));
        assert_eq!(u.min_cross_group_latency(&vec![0u32; 100]), None);
    }
}
