//! Regression guard: `Topology::dist` (the latency lookup behind every
//! `Context::send`) runs **exactly one** Dijkstra sweep per distinct source
//! node, no matter how many lookups hit it. A refactor that reintroduces
//! per-send recomputation turns every simulated message into an O(E log V)
//! graph walk — this test makes that impossible to miss.

use oceanstore_sim::{
    Context, Message, NodeId, Protocol, SimDuration, Simulator, Topology,
};

#[test]
fn repeated_dist_lookups_run_one_dijkstra_per_source() {
    let topo = Topology::grid(8, 8, SimDuration::from_millis(5));
    assert_eq!(topo.dijkstra_runs(), 0, "construction must not precompute");

    // Hammer a single source: thousands of lookups, one sweep.
    for round in 0..1_000 {
        for v in 0..topo.len() {
            let _ = topo.dist(NodeId(0), NodeId(v));
        }
        assert_eq!(topo.dijkstra_runs(), 1, "round {round}");
    }

    // Each new source costs exactly one more sweep; revisiting costs zero.
    for (i, src) in [7usize, 21, 63].into_iter().enumerate() {
        for v in 0..topo.len() {
            let _ = topo.dist(NodeId(src), NodeId(v));
            let _ = topo.dist(NodeId(0), NodeId(v));
        }
        assert_eq!(topo.dijkstra_runs(), 2 + i as u64);
    }

    // Self-distance short-circuits before the cache entirely.
    let fresh = Topology::ring(4, SimDuration::from_millis(1));
    assert_eq!(fresh.dist(NodeId(2), NodeId(2)), Some(SimDuration::ZERO));
    assert_eq!(fresh.dijkstra_runs(), 0);
}

#[test]
fn hops_lookups_run_one_bfs_per_source() {
    let topo = Topology::grid(6, 6, SimDuration::from_millis(5));
    for _ in 0..100 {
        for v in 0..topo.len() {
            let _ = topo.hops(NodeId(3), NodeId(v));
        }
    }
    assert_eq!(topo.bfs_runs(), 1);
}

/// End-to-end version: a full simulation where every node floods every
/// other node still triggers at most one Dijkstra per node that sent.
#[test]
fn simulation_routing_stays_within_one_dijkstra_per_source() {
    #[derive(Debug)]
    struct Gossip {
        id: usize,
        n: usize,
        rounds: u32,
    }
    #[derive(Debug, Clone)]
    struct G(u32);
    impl Message for G {
        type Timer = u64;

        fn wire_size(&self) -> usize {
            24
        }
    }
    impl Protocol for Gossip {
        type Msg = G;
        fn on_start(&mut self, ctx: &mut Context<'_, G>) {
            let peers = (0..self.n).filter(|&p| p != self.id).map(NodeId);
            ctx.broadcast(peers, G(self.rounds));
        }
        fn on_message(&mut self, ctx: &mut Context<'_, G>, _from: NodeId, msg: G) {
            if msg.0 > 0 {
                let peers = (0..self.n).filter(|&p| p != self.id).map(NodeId);
                ctx.broadcast(peers, G(msg.0 - 1));
            }
        }
    }
    let n = 16;
    let topo = Topology::grid(4, 4, SimDuration::from_millis(2));
    let nodes = (0..n).map(|id| Gossip { id, n, rounds: 2 }).collect();
    let mut sim = Simulator::new(topo, nodes, 11);
    sim.start();
    sim.run_to_quiescence(2_000_000);
    assert!(sim.stats().total_messages() > 1_000, "workload actually routed");
    assert_eq!(
        sim.topology().dijkstra_runs(),
        n as u64,
        "every node sent; each must have cost exactly one Dijkstra"
    );
}
