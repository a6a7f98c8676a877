//! Bootstrap construction of the global mesh.
//!
//! The paper's scheme assigns every server a random node-ID and builds
//! neighbor links "by taking each node-ID and dividing it into chunks of
//! four bits"; the level-N links point at the 16 *closest* neighbors (with
//! respect to the underlying IP routing) matching in the lowest N-1 nibbles
//! (§4.3.3, Figure 3). This module performs that construction omnisciently
//! for the founding membership — the equivalent of a coordinated initial
//! deployment — after which all maintenance (joins, failures, repair) runs
//! through the protocol messages in [`crate::protocol`].

use std::collections::HashMap;
use std::sync::Arc;

use oceanstore_naming::guid::Guid;
use oceanstore_sim::{NodeId, Topology};

use crate::protocol::{PlaxtonConfig, PlaxtonNode};
use crate::table::{Entry, RouteStep, RoutingTable};

/// Deterministic server GUIDs for `n` founding nodes.
pub fn server_guids(n: usize, seed: u64) -> Vec<Guid> {
    (0..n).map(|i| Guid::from_label(&format!("server-{seed}-{i}"))).collect()
}

/// Deepest level at which two of the `guids` still share all lower
/// nibbles (tables must reach one past it for surrogate roots to be
/// unique).
pub fn levels_needed(guids: &[Guid]) -> usize {
    let mut level = 0usize;
    loop {
        assert!(level < 16, "GUID collision depth exceeds 16 nibbles");
        let mut buckets: HashMap<u64, usize> = HashMap::new();
        for g in guids {
            let key = low_nibble_key(g, level + 1);
            *buckets.entry(key).or_default() += 1;
        }
        if buckets.values().all(|&c| c <= 1) {
            return level + 1;
        }
        level += 1;
    }
}

fn low_nibble_key(g: &Guid, nibbles: usize) -> u64 {
    let mut key = 0u64;
    for i in 0..nibbles {
        key |= (g.nibble(i) as u64) << (4 * i);
    }
    key
}

/// Builds a fully-populated founding network: one [`PlaxtonNode`] per
/// topology node with complete routing tables ("closest" resolved by
/// shortest-path latency). Returns the nodes and their GUIDs.
///
/// # Panics
///
/// Panics if the topology is empty.
pub fn build_network(
    topo: &Arc<Topology>,
    cfg: &PlaxtonConfig,
    seed: u64,
) -> (Vec<PlaxtonNode>, Vec<Guid>) {
    let n = topo.len();
    assert!(n > 0, "need at least one node");
    let guids = server_guids(n, seed);
    let levels = levels_needed(&guids).max(cfg.levels);
    let cfg = PlaxtonConfig { levels, ..cfg.clone() };

    let mut tables: Vec<RoutingTable> =
        guids.iter().map(|g| RoutingTable::new(*g, levels)).collect();

    // Level by level, group nodes into equivalence classes by their low-l
    // nibbles; within a class, every member is a candidate for every other
    // member's level-l row.
    for level in 0..levels {
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, g) in guids.iter().enumerate() {
            buckets.entry(low_nibble_key(g, level)).or_default().push(i);
        }
        for members in buckets.values() {
            for &u in members {
                for &v in members {
                    let entry = Entry { node: NodeId(v), guid: guids[v] };
                    tables[u].consider(level, entry, |a, b| {
                        match (topo.dist(NodeId(u), a), topo.dist(NodeId(u), b)) {
                            (Some(da), Some(db)) => da < db,
                            (Some(_), None) => true,
                            _ => false,
                        }
                    });
                }
            }
        }
    }

    let nodes = tables
        .into_iter()
        .enumerate()
        .map(|(i, table)| {
            let mut node = PlaxtonNode::new(guids[i], cfg.clone(), Arc::clone(topo), None);
            *node.table_mut() = table;
            node.set_node_id(NodeId(i));
            node
        })
        .collect();
    (nodes, guids)
}

/// Offline root computation: repeatedly applies [`RoutingTable::route_step`]
/// starting from `start` until a node declares itself root. Used by tests
/// to check that roots are unique and by benches to measure root distance.
///
/// # Panics
///
/// Panics if routing loops longer than the node count (cannot happen with
/// consistent tables).
pub fn find_root(nodes: &[PlaxtonNode], target: &Guid, start: NodeId) -> NodeId {
    let mut at = start;
    let mut level = 0usize;
    for _ in 0..=nodes.len() {
        match nodes[at.0].table().route_step(at, target, level, None) {
            RouteStep::Forward { next, level: l } => {
                at = next;
                level = l;
            }
            RouteStep::Root => return at,
        }
    }
    panic!("routing did not terminate; tables are inconsistent");
}

#[cfg(test)]
mod tests {
    use super::*;
    use oceanstore_sim::SimDuration;

    fn topo(n: usize) -> Arc<Topology> {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        Arc::new(Topology::random_geometric(n, 0.25, SimDuration::from_millis(50), &mut rng))
    }

    #[test]
    fn guids_are_distinct() {
        let g = server_guids(256, 1);
        let mut set = std::collections::HashSet::new();
        assert!(g.iter().all(|x| set.insert(*x)));
    }

    #[test]
    fn levels_needed_grows_with_n() {
        let small = levels_needed(&server_guids(4, 1));
        let large = levels_needed(&server_guids(512, 1));
        assert!(large >= small);
        assert!(large >= 2);
    }

    #[test]
    fn tables_are_complete() {
        // Completeness: if any node exists matching prefix p + digit d,
        // then every node with prefix p has a level-|p| entry for d.
        let t = topo(64);
        let (nodes, guids) = build_network(&t, &PlaxtonConfig::default(), 3);
        for (u, node) in nodes.iter().enumerate() {
            for level in 0..node.table().levels() {
                for (v, gv) in guids.iter().enumerate() {
                    if guids[u].low_nibble_match_len(gv) >= level {
                        let d = gv.nibble(level);
                        assert!(
                            node.table().entry(level, d).is_some(),
                            "node {u} level {level} digit {d:x} empty but node {v} fits"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn loopback_links_exist() {
        let t = topo(32);
        let (nodes, guids) = build_network(&t, &PlaxtonConfig::default(), 3);
        for (u, node) in nodes.iter().enumerate() {
            // At every level, the digit of our own GUID must at least
            // contain ourselves (we always match our own prefix).
            for level in 0..node.table().levels() {
                let d = guids[u].nibble(level);
                let e = node.table().entry(level, d).expect("loopback candidate");
                // The entry might be an even-closer node with the same
                // digit, but we are always a candidate; if it's us it must
                // carry our GUID.
                if e.node == NodeId(u) {
                    assert_eq!(e.guid, guids[u]);
                }
            }
        }
    }

    #[test]
    fn root_is_unique_across_sources() {
        let t = topo(64);
        let (nodes, _) = build_network(&t, &PlaxtonConfig::default(), 3);
        for label in ["obj-a", "obj-b", "obj-c"] {
            let target = Guid::from_label(label);
            let root0 = find_root(&nodes, &target, NodeId(0));
            for s in [1usize, 7, 31, 63] {
                assert_eq!(
                    find_root(&nodes, &target, NodeId(s)),
                    root0,
                    "object {label} from start {s}"
                );
            }
        }
    }

    #[test]
    fn root_maximizes_low_nibble_match() {
        // The root must be (one of) the nodes with maximal low-nibble match
        // with the target: surrogate routing's whole point.
        let t = topo(64);
        let (nodes, guids) = build_network(&t, &PlaxtonConfig::default(), 9);
        let target = Guid::from_label("some-object");
        let root = find_root(&nodes, &target, NodeId(5));
        let best = guids.iter().map(|g| g.low_nibble_match_len(&target)).max().unwrap();
        assert_eq!(guids[root.0].low_nibble_match_len(&target), best);
    }
}
