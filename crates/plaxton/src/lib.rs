//! The global data-location mesh of OceanStore (§4.3.3): a
//! Plaxton/Tapestry-style randomized hierarchical distributed data
//! structure.
//!
//! This is the *slower, deterministic* half of the two-tier location
//! mechanism — the backstop behind the probabilistic attenuated-Bloom layer
//! (`oceanstore-bloom`). Every server gets a random GUID; neighbor tables
//! resolve GUIDs one hex digit per hop; each object maps to a unique root
//! node per salt value. Publishing deposits location pointers along the
//! path to each root; locating climbs toward a root until it hits a
//! pointer, giving the locality property the paper highlights: queries for
//! nearby replicas resolve without ever reaching the root.
//!
//! * [`table`] — per-node routing tables with surrogate routing.
//! * [`build`] — omniscient bootstrap of a founding mesh.
//! * [`protocol`] — publish/unpublish/locate, salted replicated roots,
//!   soft-state beacons, answered by a peer that does not beacon the
//!   sender itself (a silent peer is evicted),
//!   republish repair, and dynamic node insertion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod protocol;
pub mod table;

pub use build::{build_network, find_root, server_guids};
pub use protocol::{LocateOutcome, PlaxtonConfig, PlaxtonMsg, PlaxtonNode, PlaxtonTimer};
pub use table::{Entry, RouteStep, RoutingTable};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use oceanstore_naming::guid::Guid;
    use oceanstore_sim::{NodeId, SimDuration, Simulator, Topology};
    use rand::SeedableRng;

    use crate::build::{build_network, find_root};
    use crate::protocol::{PlaxtonConfig, PlaxtonNode};

    fn topo(n: usize, seed: u64) -> Arc<Topology> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        Arc::new(Topology::random_geometric(n, 0.25, SimDuration::from_millis(40), &mut rng))
    }

    fn sim(n: usize, seed: u64) -> (Simulator<PlaxtonNode>, Vec<Guid>) {
        let t = topo(n, seed);
        let (nodes, guids) = build_network(&t, &PlaxtonConfig::default(), seed);
        let topo_owned = Arc::try_unwrap(t).ok();
        // Simulator owns its own Topology; rebuild one with the same seed.
        let t2 = match topo_owned {
            Some(t) => t,
            None => {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                Topology::random_geometric(n, 0.25, SimDuration::from_millis(40), &mut rng)
            }
        };
        (Simulator::new(t2, nodes, seed), guids)
    }

    #[test]
    fn publish_then_locate_from_anywhere() {
        let (mut sim, _) = sim(48, 2);
        sim.start();
        let obj = Guid::from_label("shared-doc");
        sim.with_node_ctx(NodeId(7), |n, ctx| n.publish(ctx, obj));
        sim.run_for(SimDuration::from_secs(2));
        for (qid, src) in [(1u64, 0usize), (2, 23), (3, 47)] {
            sim.with_node_ctx(NodeId(src), |n, ctx| n.locate(ctx, qid, obj));
        }
        sim.run_for(SimDuration::from_secs(2));
        for (qid, src) in [(1u64, 0usize), (2, 23), (3, 47)] {
            let out = sim.node(NodeId(src)).outcome(qid).copied().expect("locate completed");
            assert_eq!(out.holder, Some(NodeId(7)), "query {qid} from {src}");
        }
    }

    #[test]
    fn locate_unpublished_object_fails_cleanly() {
        let (mut sim, _) = sim(32, 3);
        sim.start();
        let ghost = Guid::from_label("never-published");
        sim.with_node_ctx(NodeId(4), |n, ctx| n.locate(ctx, 9, ghost));
        sim.run_for(SimDuration::from_secs(3));
        let out = sim.node(NodeId(4)).outcome(9).copied().expect("completed");
        assert_eq!(out.holder, None);
        assert!(out.answered_by_root, "failure must come from exhausting all roots");
    }

    #[test]
    fn unpublish_removes_locatability() {
        let (mut sim, _) = sim(32, 4);
        sim.start();
        let obj = Guid::from_label("temp-object");
        sim.with_node_ctx(NodeId(3), |n, ctx| n.publish(ctx, obj));
        sim.run_for(SimDuration::from_secs(1));
        sim.with_node_ctx(NodeId(3), |n, ctx| n.unpublish(ctx, obj));
        sim.run_for(SimDuration::from_secs(1));
        sim.with_node_ctx(NodeId(20), |n, ctx| n.locate(ctx, 5, obj));
        sim.run_for(SimDuration::from_secs(3));
        let out = sim.node(NodeId(20)).outcome(5).copied().expect("completed");
        assert_eq!(out.holder, None);
    }

    #[test]
    fn closest_of_two_replicas_is_returned() {
        let (mut sim, _) = sim(64, 5);
        sim.start();
        let obj = Guid::from_label("popular");
        sim.with_node_ctx(NodeId(10), |n, ctx| n.publish(ctx, obj));
        sim.with_node_ctx(NodeId(50), |n, ctx| n.publish(ctx, obj));
        sim.run_for(SimDuration::from_secs(2));
        // Query from right next to node 10's position in the id space: the
        // pointer lookup picks the holder closest to the origin.
        sim.with_node_ctx(NodeId(10), |n, ctx| n.locate(ctx, 1, obj));
        sim.run_for(SimDuration::from_secs(2));
        let out = sim.node(NodeId(10)).outcome(1).copied().unwrap();
        assert_eq!(out.holder, Some(NodeId(10)), "self-held replica wins");
    }

    #[test]
    fn locality_queries_near_replica_resolve_quickly() {
        // The §4.3.3 property: a query issued close to a replica should
        // rarely climb all the way to the root.
        let (mut sim, _) = sim(64, 6);
        sim.start();
        let obj = Guid::from_label("local-data");
        sim.with_node_ctx(NodeId(12), |n, ctx| n.publish(ctx, obj));
        sim.run_for(SimDuration::from_secs(2));
        sim.with_node_ctx(NodeId(12), |n, ctx| n.locate(ctx, 1, obj));
        sim.run_for(SimDuration::from_secs(1));
        let out = sim.node(NodeId(12)).outcome(1).copied().unwrap();
        assert_eq!(out.hops, 0, "publisher answers its own query from its pointer");
    }

    #[test]
    fn survives_root_failure_via_salted_roots() {
        let (mut sim, _) = sim(48, 7);
        let obj = Guid::from_label("resilient");
        // Determine the primary root offline and kill it before starting.
        let root0 = {
            let nodes: Vec<&PlaxtonNode> = sim.nodes().collect();
            let t = obj.salted(0);
            find_root_ref(&nodes, &t)
        };
        sim.start();
        let holder = if root0 == NodeId(9) { NodeId(10) } else { NodeId(9) };
        sim.with_node_ctx(holder, |n, ctx| n.publish(ctx, obj));
        sim.run_for(SimDuration::from_secs(2));
        sim.set_down(root0, true);
        // Give beacons time to detect the failure (2 intervals + slack).
        sim.run_for(SimDuration::from_secs(16));
        let src = NodeId(if root0 == NodeId(0) { 1 } else { 0 });
        sim.with_node_ctx(src, |n, ctx| n.locate(ctx, 3, obj));
        sim.run_for(SimDuration::from_secs(6));
        let out = sim.node(src).outcome(3).copied().expect("locate completed");
        assert_eq!(out.holder, Some(holder), "salted roots route around the dead primary");
    }

    fn find_root_ref(nodes: &[&PlaxtonNode], target: &Guid) -> NodeId {
        let mut at = NodeId(0);
        let mut level = 0;
        loop {
            match nodes[at.0].table().route_step(at, target, level, None) {
                crate::table::RouteStep::Forward { next, level: l } => {
                    at = next;
                    level = l;
                }
                crate::table::RouteStep::Root => return at,
            }
        }
    }

    #[test]
    fn dynamic_join_becomes_routable() {
        // Build a founding mesh of n-1 nodes; node n-1 joins dynamically
        // through a gateway and must end up locatable/locating.
        let n = 33;
        let seed = 8;
        let t = topo(n, seed);
        let (mut nodes, guids) = build_network(&t, &PlaxtonConfig::default(), seed);
        // Strip the last node's table: it joins via node 0.
        let joiner_guid = guids[n - 1];
        let levels = nodes[0].table().levels();
        let cfg = PlaxtonConfig { levels, ..PlaxtonConfig::default() };
        nodes[n - 1] = PlaxtonNode::new(joiner_guid, cfg, Arc::clone(&t), Some(NodeId(0)));
        nodes[n - 1].set_node_id(NodeId(n - 1));
        // Founding members must not have the joiner pre-installed: rebuild
        // their tables without it.
        let founding: Arc<Topology> = Arc::clone(&t);
        let _ = founding;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let t2 = Topology::random_geometric(n, 0.25, SimDuration::from_millis(40), &mut rng);
        let mut sim = Simulator::new(t2, nodes, seed);
        sim.start();
        // Let the join protocol + a few beacon rounds run.
        sim.run_for(SimDuration::from_secs(12));
        // The joiner publishes an object; an old member can find it.
        let obj = Guid::from_label("from-the-newcomer");
        sim.with_node_ctx(NodeId(n - 1), |node, ctx| node.publish(ctx, obj));
        sim.run_for(SimDuration::from_secs(2));
        sim.with_node_ctx(NodeId(2), |node, ctx| node.locate(ctx, 11, obj));
        sim.run_for(SimDuration::from_secs(4));
        let out = sim.node(NodeId(2)).outcome(11).copied().expect("locate completed");
        assert_eq!(out.holder, Some(NodeId(n - 1)));
        // And the joiner's table is populated.
        assert!(sim.node(NodeId(n - 1)).table().entries().count() > 0);
    }

    #[test]
    fn republish_refreshes_expired_pointers() {
        let cfg = PlaxtonConfig {
            pointer_ttl: SimDuration::from_secs(2),
            republish_interval: SimDuration::from_secs(1),
            ..PlaxtonConfig::default()
        };
        let t = topo(32, 9);
        let (mut nodes, _) = build_network(&t, &cfg, 9);
        for n in &mut nodes {
            // build_network already set ids/tables; nothing else needed.
            let _ = n;
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let t2 = Topology::random_geometric(32, 0.25, SimDuration::from_millis(40), &mut rng);
        let mut sim = Simulator::new(t2, nodes, 9);
        sim.start();
        let obj = Guid::from_label("long-lived");
        sim.with_node_ctx(NodeId(5), |n, ctx| n.publish(ctx, obj));
        // Far past several TTLs: republish must keep it locatable.
        sim.run_for(SimDuration::from_secs(30));
        sim.with_node_ctx(NodeId(29), |n, ctx| n.locate(ctx, 2, obj));
        sim.run_for(SimDuration::from_secs(3));
        let out = sim.node(NodeId(29)).outcome(2).copied().expect("completed");
        assert_eq!(out.holder, Some(NodeId(5)));
    }

    #[test]
    fn offline_find_root_matches_protocol() {
        let t = topo(48, 10);
        let (nodes, _) = build_network(&t, &PlaxtonConfig::default(), 10);
        let obj = Guid::from_label("check");
        let r1 = find_root(&nodes, &obj.salted(0), NodeId(0));
        let r2 = find_root(&nodes, &obj.salted(0), NodeId(30));
        assert_eq!(r1, r2);
    }
}
