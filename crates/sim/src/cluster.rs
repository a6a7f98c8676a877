//! Shared deployment geometry: node-id block allocation and
//! dissemination-tree indexing for two-tier clusters.
//!
//! Every harness in the workspace lays out the same shape — one or more
//! consensus rings of equal size, then a block of tree-organized
//! secondaries, then clients — and each used to recompute the id ranges
//! and binary-heap tree arithmetic by hand. [`ClusterSpec`] is the single
//! source of that geometry, so the replica harness, the consensus tier
//! harness, the chaos runner and the benches all drive one deployment
//! code path.
//!
//! The layout is purely positional: ring `r` occupies ids
//! `[r·ring_size, (r+1)·ring_size)`, secondaries follow all rings, clients
//! come last. With `rings = 1` this is exactly the historical single-ring
//! layout, which the pinned golden traces and chaos fingerprints depend
//! on.

use crate::time::SimDuration;
use crate::topology::{NodeId, Topology};

/// Node-count shape of a cluster: `rings` consensus rings of `ring_size`
/// members each, `secondaries` tree replicas, `clients` submitters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Number of independent consensus rings.
    pub rings: usize,
    /// Members per ring (`3m + 1` for a PBFT tier).
    pub ring_size: usize,
    /// Secondary replicas, organized as one binary dissemination tree.
    pub secondaries: usize,
    /// Update-submitting clients.
    pub clients: usize,
}

impl ClusterSpec {
    /// Total node count.
    pub fn total(&self) -> usize {
        self.rings * self.ring_size + self.secondaries + self.clients
    }

    /// The contiguous domain assignment the parallel scheduler uses for
    /// this deployment at `threads` workers (`domains[i]` = the domain of
    /// node `i`). Node ids are laid out positionally — ring replicas
    /// first, then tree-ordered secondaries, then clients — so contiguous
    /// blocks keep ring peers and tree neighbours, the heaviest-traffic
    /// pairs, inside one domain wherever the block boundaries allow.
    pub fn domains(&self, threads: usize) -> Vec<u32> {
        crate::engine::contiguous_domains(self.total(), threads)
    }

    /// Members of ring `r` (tier order).
    pub fn ring(&self, r: usize) -> Vec<NodeId> {
        assert!(r < self.rings, "ring {r} out of range ({} rings)", self.rings);
        (r * self.ring_size..(r + 1) * self.ring_size).map(NodeId).collect()
    }

    /// All ring members, ring-major.
    pub fn all_ring_members(&self) -> Vec<NodeId> {
        (0..self.rings * self.ring_size).map(NodeId).collect()
    }

    /// The secondary block (tree order: index 0 is the root).
    pub fn secondaries(&self) -> Vec<NodeId> {
        let base = self.rings * self.ring_size;
        (base..base + self.secondaries).map(NodeId).collect()
    }

    /// The client block.
    pub fn clients(&self) -> Vec<NodeId> {
        let base = self.rings * self.ring_size + self.secondaries;
        (base..self.total()).map(NodeId).collect()
    }

    /// Uniform-latency any-to-any topology over the whole cluster: the
    /// implicit [`Topology::uniform_mesh`] at every size. A deployment
    /// routes by [`Topology::dist`] only, for which it is latency- and so
    /// schedule-identical to [`Topology::full_mesh`] without the O(n²)
    /// edges to build or the cache-row lookup per routed message.
    pub fn mesh(&self, latency: SimDuration) -> Topology {
        Topology::uniform_mesh(self.total(), latency)
    }
}

/// Parent of tree slot `j` in the binary-heap dissemination tree; `None`
/// for the root (whose parent is outside the secondary block).
pub fn tree_parent(j: usize) -> Option<usize> {
    (j > 0).then(|| (j - 1) / 2)
}

/// Grandparent of tree slot `j`; `None` when the parent is the root or
/// `j` is the root.
pub fn tree_grandparent(j: usize) -> Option<usize> {
    tree_parent(j).and_then(tree_parent)
}

/// The other child of `j`'s parent, when it exists within a tree of `s`
/// slots.
pub fn tree_sibling(j: usize, s: usize) -> Option<usize> {
    if j == 0 {
        return None;
    }
    let sib = if j % 2 == 1 { j + 1 } else { j - 1 };
    (sib < s).then_some(sib)
}

/// Children of tree slot `j` within a tree of `s` slots.
pub fn tree_children(j: usize, s: usize) -> impl Iterator<Item = usize> {
    [2 * j + 1, 2 * j + 2].into_iter().filter(move |&c| c < s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_ring_layout_matches_historical_ranges() {
        let spec = ClusterSpec { rings: 1, ring_size: 4, secondaries: 6, clients: 1 };
        assert_eq!(spec.total(), 11);
        assert_eq!(spec.ring(0), (0..4).map(NodeId).collect::<Vec<_>>());
        assert_eq!(spec.secondaries(), (4..10).map(NodeId).collect::<Vec<_>>());
        assert_eq!(spec.clients(), vec![NodeId(10)]);
    }

    #[test]
    fn rings_are_disjoint_and_contiguous() {
        let spec = ClusterSpec { rings: 4, ring_size: 4, secondaries: 3, clients: 2 };
        let all = spec.all_ring_members();
        assert_eq!(all.len(), 16);
        for r in 0..4 {
            assert_eq!(spec.ring(r), all[r * 4..(r + 1) * 4]);
        }
        assert_eq!(spec.secondaries()[0], NodeId(16));
        assert_eq!(spec.clients()[0], NodeId(19));
    }

    #[test]
    fn tree_geometry_is_a_binary_heap() {
        assert_eq!(tree_parent(0), None);
        assert_eq!(tree_parent(1), Some(0));
        assert_eq!(tree_parent(2), Some(0));
        assert_eq!(tree_parent(5), Some(2));
        assert_eq!(tree_grandparent(0), None);
        assert_eq!(tree_grandparent(1), None);
        assert_eq!(tree_grandparent(5), Some(0));
        assert_eq!(tree_sibling(0, 6), None);
        assert_eq!(tree_sibling(1, 6), Some(2));
        assert_eq!(tree_sibling(2, 6), Some(1));
        assert_eq!(tree_sibling(5, 6), None, "right sibling out of range");
        assert_eq!(tree_children(0, 6).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(tree_children(2, 6).collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn big_cluster_mesh_is_implicit_but_latency_identical() {
        let lat = SimDuration::from_millis(20);
        let big = ClusterSpec { rings: 16, ring_size: 4, secondaries: 5000, clients: 8 };
        let t = big.mesh(lat);
        assert_eq!(t.len(), big.total());
        assert_eq!(t.dist(NodeId(0), NodeId(5000)), Some(lat));
        assert_eq!(t.hops(NodeId(1), NodeId(2)), Some(1));
        assert!(t.is_connected());
        let small = ClusterSpec { rings: 1, ring_size: 4, secondaries: 6, clients: 1 };
        let (ts, explicit) = (small.mesh(lat), Topology::full_mesh(small.total(), lat));
        assert!(ts.neighbors(NodeId(0)).is_empty(), "small clusters are implicit too");
        assert_eq!(ts.edge_count(), explicit.edge_count());
        for u in (0..small.total()).map(NodeId) {
            for v in (0..small.total()).map(NodeId) {
                assert_eq!(ts.dist(u, v), explicit.dist(u, v));
                assert_eq!(ts.hops(u, v), explicit.hops(u, v));
            }
        }
    }

    #[test]
    fn domain_assignment_is_contiguous_and_covers_every_node() {
        let spec = ClusterSpec { rings: 4, ring_size: 4, secondaries: 100, clients: 4 };
        let domains = spec.domains(8);
        assert_eq!(domains.len(), spec.total());
        // Contiguous blocks: domain ids are non-decreasing along the
        // positional layout, and all 8 domains are populated.
        assert!(domains.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(domains.last(), Some(&7));
        // A whole ring (4 consecutive nodes in a ~15-node block) stays in
        // one domain here: ring 0 occupies nodes 0..4.
        let ring0: Vec<u32> = spec.ring(0).iter().map(|n| domains[n.0]).collect();
        assert!(ring0.windows(2).all(|w| w[0] == w[1]), "ring 0 split: {ring0:?}");
        // One worker degenerates to a single domain.
        assert!(spec.domains(1).iter().all(|&d| d == 0));
    }
}
