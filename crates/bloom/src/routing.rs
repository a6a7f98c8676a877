//! The probabilistic query-routing protocol (§4.3.2, Figure 2).
//!
//! "The probabilistic algorithm is fully distributed and uses a constant
//! amount of storage per server. It is based on the idea of hill-climbing;
//! if a query cannot be satisfied by a server, local information is used to
//! route the query to a likely neighbor. ... An attenuated Bloom filter is
//! stored for each directed edge in the network. A query is routed along
//! the edge whose filter indicates the presence of the object at the
//! smallest distance."
//!
//! Nodes periodically advertise their attenuated filters to neighbours
//! (soft state, so the structure self-repairs); a query hill-climbs until
//! it reaches a holder, runs out of plausible edges (→ miss, handing over
//! to the global Plaxton algorithm), or exhausts its TTL. Per-neighbour
//! *reliability penalties* route around nodes "that have abused the
//! protocol in the past".

use std::collections::HashMap;

use oceanstore_naming::guid::Guid;
use oceanstore_sim::{Context, Message, NodeId, Protocol, SimDuration, SimTime, Simulator, Topology};

use crate::filter::AttenuatedBloom;

/// The probabilistic layer's one deadline, handed back when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BloomTimer {
    /// Rebuild and advertise this node's filter to its neighbors.
    Advertise,
}

/// Geometry and timing of the probabilistic location layer.
#[derive(Debug, Clone)]
pub struct BloomConfig {
    /// Attenuated filter depth `D` (how many hops the filters can see).
    pub depth: usize,
    /// Bits per level.
    pub bits: usize,
    /// Hash probes per item.
    pub hashes: usize,
    /// Period of the soft-state filter advertisement.
    pub advertise_interval: SimDuration,
    /// Hop budget for a query before it gives up.
    pub query_ttl: u32,
}

impl Default for BloomConfig {
    fn default() -> Self {
        BloomConfig {
            depth: 4,
            bits: 4096,
            hashes: 4,
            advertise_interval: SimDuration::from_millis(500),
            query_ttl: 32,
        }
    }
}

/// Result of a completed query, recorded at the origin node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Node that held the object, or `None` for a miss (fall back to the
    /// global algorithm).
    pub found_at: Option<NodeId>,
    /// Overlay hops the query traveled before resolution.
    pub hops: u32,
    /// Completion time.
    pub completed_at: SimTime,
}

/// Messages of the probabilistic location protocol.
#[derive(Debug, Clone)]
pub enum BloomMsg {
    /// Soft-state advertisement of the sender's attenuated filter, already
    /// shifted one level (the receiver stores it as the edge filter).
    Advertise(AttenuatedBloom),
    /// A query hill-climbing toward `target`.
    Query {
        /// Origin-unique query id.
        id: u64,
        /// Object being located.
        target: Guid,
        /// Node that issued the query (gets the Found/Miss).
        origin: NodeId,
        /// Overlay hops taken so far.
        hops: u32,
        /// Remaining hop budget.
        ttl: u32,
        /// Nodes already tried (loop prevention).
        visited: Vec<NodeId>,
        /// The current route from the origin (for backtracking out of
        /// dead ends).
        path: Vec<NodeId>,
    },
    /// The object was found at `holder`.
    Found {
        /// Query id this answers.
        id: u64,
        /// Node holding a replica.
        holder: NodeId,
        /// Overlay hops the query took.
        hops: u32,
    },
    /// The query failed; the caller should fall back to the global
    /// (Plaxton) algorithm.
    Miss {
        /// Query id this answers.
        id: u64,
        /// Overlay hops the query took before giving up.
        hops: u32,
    },
}

impl Message for BloomMsg {
    type Timer = BloomTimer;

    fn wire_size(&self) -> usize {
        match self {
            BloomMsg::Advertise(f) => 16 + f.wire_size(),
            BloomMsg::Query { visited, path, .. } => {
                16 + Guid::WIRE_SIZE + 12 + (visited.len() + path.len()) * 4
            }
            BloomMsg::Found { .. } => 24,
            BloomMsg::Miss { .. } => 16,
        }
    }

    fn class(&self) -> &'static str {
        match self {
            BloomMsg::Advertise(_) => "bloom/advertise",
            BloomMsg::Query { .. } => "bloom/query",
            BloomMsg::Found { .. } => "bloom/found",
            BloomMsg::Miss { .. } => "bloom/miss",
        }
    }
}

/// Per-node state of the probabilistic location layer.
#[derive(Debug)]
pub struct BloomNode {
    cfg: BloomConfig,
    neighbors: Vec<NodeId>,
    /// Objects replicated locally.
    local: Vec<Guid>,
    /// This node's own attenuated filter (level 0 = local objects).
    own: AttenuatedBloom,
    /// One attenuated filter per outgoing edge, from neighbour adverts.
    edges: HashMap<NodeId, AttenuatedBloom>,
    /// Reliability penalties: added hops for neighbours that have
    /// misbehaved.
    penalties: HashMap<NodeId, usize>,
    /// Outcomes of queries issued from this node.
    outcomes: HashMap<u64, QueryOutcome>,
}

impl BloomNode {
    /// Creates a node with the given direct neighbours.
    pub fn new(cfg: BloomConfig, neighbors: Vec<NodeId>) -> Self {
        let own = AttenuatedBloom::new(cfg.depth, cfg.bits, cfg.hashes);
        BloomNode {
            cfg,
            neighbors,
            local: Vec::new(),
            own,
            edges: HashMap::new(),
            penalties: HashMap::new(),
            outcomes: HashMap::new(),
        }
    }

    /// Stores a replica of `guid` locally (enters the level-0 filter on the
    /// next advertisement round).
    pub fn insert_object(&mut self, guid: Guid) {
        if !self.local.contains(&guid) {
            self.local.push(guid);
        }
        self.rebuild_own();
    }

    /// Drops the local replica. The stale filter bits persist until enough
    /// advertisement rounds pass — the soft-state behaviour the paper
    /// intends (Bloom filters cannot delete).
    pub fn remove_object(&mut self, guid: &Guid) {
        self.local.retain(|g| g != guid);
        self.rebuild_own();
    }

    /// Whether a replica of `guid` is stored here.
    pub fn has_object(&self, guid: &Guid) -> bool {
        self.local.contains(guid)
    }

    /// Applies a reliability penalty to a neighbour: its advertised
    /// distances are treated as `penalty` hops longer.
    pub fn set_penalty(&mut self, neighbor: NodeId, penalty: usize) {
        self.penalties.insert(neighbor, penalty);
    }

    /// Outcome of query `id`, if it has completed.
    pub fn outcome(&self, id: u64) -> Option<&QueryOutcome> {
        self.outcomes.get(&id)
    }

    /// This node's current attenuated filter.
    pub fn own_filter(&self) -> &AttenuatedBloom {
        &self.own
    }

    /// Issues a query for `target`; the outcome lands in [`Self::outcome`]
    /// under `id` once Found/Miss returns. Must be called through
    /// [`Simulator::with_node_ctx`] so messages actually travel.
    pub fn start_query(&mut self, ctx: &mut Context<'_, BloomMsg>, id: u64, target: Guid) {
        let me = ctx.node();
        if self.local.contains(&target) {
            self.outcomes.insert(
                id,
                QueryOutcome { found_at: Some(me), hops: 0, completed_at: ctx.now() },
            );
            return;
        }
        self.route_query(ctx, id, target, me, 0, self.cfg.query_ttl, vec![me], vec![me]);
    }

    /// Rebuilds `own` from local objects and current edge filters.
    fn rebuild_own(&mut self) {
        self.own.clear();
        for g in &self.local {
            self.own.level_mut(0).insert(g);
        }
        for f in self.edges.values() {
            self.own.union_with(f);
        }
    }

    /// Hill-climbing step with backtracking: pick the untried edge
    /// claiming `target` at the smallest (penalty-adjusted) distance; on a
    /// dead end, hand the query back to the previous hop so it can try its
    /// next-best edge. A miss is reported only when the whole explored
    /// frontier is exhausted (or the TTL runs out).
    #[allow(clippy::too_many_arguments)]
    fn route_query(
        &mut self,
        ctx: &mut Context<'_, BloomMsg>,
        id: u64,
        target: Guid,
        origin: NodeId,
        hops: u32,
        ttl: u32,
        visited: Vec<NodeId>,
        path: Vec<NodeId>,
    ) {
        if ttl == 0 {
            self.answer(ctx, origin, BloomMsg::Miss { id, hops });
            return;
        }
        let mut best: Option<(usize, NodeId)> = None;
        for (&nbr, filter) in &self.edges {
            if visited.contains(&nbr) {
                continue;
            }
            if let Some(d) = filter.min_distance(&target) {
                let d = d + self.penalties.get(&nbr).copied().unwrap_or(0);
                if best.is_none_or(|(bd, bn)| d < bd || (d == bd && nbr < bn)) {
                    best = Some((d, nbr));
                }
            }
        }
        match best {
            Some((_, next)) => {
                let mut visited = visited;
                visited.push(next);
                let mut path = path;
                if path.last() != Some(&ctx.node()) {
                    path.push(ctx.node());
                }
                ctx.send(
                    next,
                    BloomMsg::Query {
                        id,
                        target,
                        origin,
                        hops: hops + 1,
                        ttl: ttl - 1,
                        visited,
                        path,
                    },
                );
            }
            None => {
                // Dead end: backtrack if there is anywhere to go back to.
                let mut path = path;
                if path.last() == Some(&ctx.node()) {
                    path.pop();
                }
                match path.last().copied() {
                    Some(prev) if prev != ctx.node() => {
                        ctx.send(
                            prev,
                            BloomMsg::Query {
                                id,
                                target,
                                origin,
                                hops: hops + 1,
                                ttl: ttl - 1,
                                visited,
                                path,
                            },
                        );
                    }
                    _ => self.answer(ctx, origin, BloomMsg::Miss { id, hops }),
                }
            }
        }
    }

    fn answer(&mut self, ctx: &mut Context<'_, BloomMsg>, origin: NodeId, msg: BloomMsg) {
        if origin == ctx.node() {
            // Local answer: record directly.
            self.record_answer(ctx.now(), msg);
        } else {
            ctx.send(origin, msg);
        }
    }

    fn record_answer(&mut self, now: SimTime, msg: BloomMsg) {
        match msg {
            BloomMsg::Found { id, holder, hops } => {
                self.outcomes
                    .entry(id)
                    .or_insert(QueryOutcome { found_at: Some(holder), hops, completed_at: now });
            }
            BloomMsg::Miss { id, hops } => {
                // A Found beats a Miss; only record if nothing better.
                self.outcomes
                    .entry(id)
                    .or_insert(QueryOutcome { found_at: None, hops, completed_at: now });
            }
            _ => unreachable!("only answers are recorded"),
        }
    }
}

impl Protocol for BloomNode {
    type Msg = BloomMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, BloomMsg>) {
        self.rebuild_own();
        ctx.set_timer(SimDuration::ZERO, BloomTimer::Advertise);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, BloomMsg>, BloomTimer::Advertise: BloomTimer) {
        self.rebuild_own();
        let advert = self.own.attenuated();
        ctx.broadcast(self.neighbors.iter().copied(), BloomMsg::Advertise(advert));
        ctx.set_timer(self.cfg.advertise_interval, BloomTimer::Advertise);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, BloomMsg>, from: NodeId, msg: BloomMsg) {
        match msg {
            BloomMsg::Advertise(filter) => {
                self.edges.insert(from, filter);
                self.rebuild_own();
            }
            BloomMsg::Query { id, target, origin, hops, ttl, visited, path } => {
                if self.local.contains(&target) {
                    self.answer(ctx, origin, BloomMsg::Found { id, holder: ctx.node(), hops });
                } else {
                    self.route_query(ctx, id, target, origin, hops, ttl, visited, path);
                }
            }
            answer @ (BloomMsg::Found { .. } | BloomMsg::Miss { .. }) => {
                self.record_answer(ctx.now(), answer);
            }
        }
    }
}

/// Builds one [`BloomNode`] per topology node, neighbours wired from the
/// topology's edges.
pub fn make_network(topo: &Topology, cfg: &BloomConfig) -> Vec<BloomNode> {
    (0..topo.len())
        .map(|i| {
            let neighbors = topo.neighbors(NodeId(i)).iter().map(|&(n, _)| n).collect();
            BloomNode::new(cfg.clone(), neighbors)
        })
        .collect()
}

/// Runs enough advertisement rounds for filters to converge to depth `D`
/// everywhere (D + 1 periods).
pub fn converge_filters(sim: &mut Simulator<BloomNode>, cfg: &BloomConfig) {
    let rounds = cfg.depth as u64 + 1;
    sim.run_for(SimDuration::from_micros(cfg.advertise_interval.as_micros() * rounds + 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use oceanstore_sim::Topology;

    fn cfg() -> BloomConfig {
        BloomConfig { advertise_interval: SimDuration::from_millis(100), ..Default::default() }
    }

    fn g(label: &str) -> Guid {
        Guid::from_label(label)
    }

    fn line(n: usize) -> Simulator<BloomNode> {
        let mut b = Topology::builder(n);
        for i in 0..n - 1 {
            b.edge(NodeId(i), NodeId(i + 1), SimDuration::from_millis(10));
        }
        let topo = b.build();
        let nodes = make_network(&topo, &cfg());
        Simulator::new(topo, nodes, 7)
    }

    #[test]
    fn finds_object_along_a_line() {
        let mut sim = line(4);
        sim.node_mut(NodeId(3)).insert_object(g("obj"));
        sim.start();
        converge_filters(&mut sim, &cfg());
        sim.with_node_ctx(NodeId(0), |n, ctx| n.start_query(ctx, 1, g("obj")));
        sim.run_for(SimDuration::from_millis(200));
        let out = sim.node(NodeId(0)).outcome(1).copied().expect("query completed");
        assert_eq!(out.found_at, Some(NodeId(3)));
        assert_eq!(out.hops, 3);
    }

    #[test]
    fn local_hit_is_instant() {
        let mut sim = line(3);
        sim.node_mut(NodeId(0)).insert_object(g("obj"));
        sim.start();
        sim.with_node_ctx(NodeId(0), |n, ctx| n.start_query(ctx, 1, g("obj")));
        let out = sim.node(NodeId(0)).outcome(1).copied().unwrap();
        assert_eq!(out.found_at, Some(NodeId(0)));
        assert_eq!(out.hops, 0);
    }

    #[test]
    fn object_beyond_depth_misses() {
        // Depth 4 filters cannot see distance 5.
        let mut sim = line(7);
        sim.node_mut(NodeId(6)).insert_object(g("obj"));
        sim.start();
        converge_filters(&mut sim, &cfg());
        sim.with_node_ctx(NodeId(0), |n, ctx| n.start_query(ctx, 1, g("obj")));
        sim.run_for(SimDuration::from_millis(500));
        let out = sim.node(NodeId(0)).outcome(1).copied().expect("completed");
        assert_eq!(out.found_at, None, "should miss and defer to global algorithm");
    }

    #[test]
    fn unknown_object_misses_immediately() {
        let mut sim = line(3);
        sim.start();
        converge_filters(&mut sim, &cfg());
        sim.with_node_ctx(NodeId(0), |n, ctx| n.start_query(ctx, 9, g("ghost")));
        sim.run_for(SimDuration::from_millis(100));
        let out = sim.node(NodeId(0)).outcome(9).copied().expect("completed");
        assert_eq!(out.found_at, None);
        assert_eq!(out.hops, 0, "no plausible edge, no hops");
    }

    #[test]
    fn picks_the_closer_replica() {
        // 0 - 1 - 2(obj)  and 0 - 3 - 4 - 5(obj): must go via 1.
        let mut b = Topology::builder(6);
        let ms = SimDuration::from_millis(10);
        b.edge(NodeId(0), NodeId(1), ms);
        b.edge(NodeId(1), NodeId(2), ms);
        b.edge(NodeId(0), NodeId(3), ms);
        b.edge(NodeId(3), NodeId(4), ms);
        b.edge(NodeId(4), NodeId(5), ms);
        let topo = b.build();
        let nodes = make_network(&topo, &cfg());
        let mut sim = Simulator::new(topo, nodes, 3);
        sim.node_mut(NodeId(2)).insert_object(g("obj"));
        sim.node_mut(NodeId(5)).insert_object(g("obj"));
        sim.start();
        converge_filters(&mut sim, &cfg());
        sim.with_node_ctx(NodeId(0), |n, ctx| n.start_query(ctx, 1, g("obj")));
        sim.run_for(SimDuration::from_millis(300));
        let out = sim.node(NodeId(0)).outcome(1).copied().unwrap();
        assert_eq!(out.found_at, Some(NodeId(2)));
        assert_eq!(out.hops, 2);
    }

    #[test]
    fn reliability_penalty_routes_around() {
        // Diamond: 0-1-3 and 0-2-3, object at 3. Penalizing 1 forces the
        // 0→2 path.
        let mut b = Topology::builder(4);
        let ms = SimDuration::from_millis(10);
        b.edge(NodeId(0), NodeId(1), ms);
        b.edge(NodeId(0), NodeId(2), ms);
        b.edge(NodeId(1), NodeId(3), ms);
        b.edge(NodeId(2), NodeId(3), ms);
        let topo = b.build();
        let nodes = make_network(&topo, &cfg());
        let mut sim = Simulator::new(topo, nodes, 11);
        sim.node_mut(NodeId(3)).insert_object(g("obj"));
        sim.start();
        converge_filters(&mut sim, &cfg());
        sim.node_mut(NodeId(0)).set_penalty(NodeId(1), 10);
        sim.reset_stats();
        sim.with_node_ctx(NodeId(0), |n, ctx| n.start_query(ctx, 1, g("obj")));
        sim.run_for(SimDuration::from_millis(100));
        let out = sim.node(NodeId(0)).outcome(1).copied().unwrap();
        assert_eq!(out.found_at, Some(NodeId(3)));
        // The query must have passed through node 2, not node 1: node 1
        // received zero query bytes since stats reset.
        assert_eq!(
            sim.stats().class("bloom/query").messages,
            2,
            "exactly two query hops"
        );
    }

    #[test]
    fn removal_eventually_ages_out() {
        let mut sim = line(3);
        sim.node_mut(NodeId(2)).insert_object(g("obj"));
        sim.start();
        converge_filters(&mut sim, &cfg());
        // Remove the object; after fresh advertisement rounds the filters
        // no longer claim it (levels are rebuilt each round).
        sim.node_mut(NodeId(2)).remove_object(&g("obj"));
        converge_filters(&mut sim, &cfg());
        sim.with_node_ctx(NodeId(0), |n, ctx| n.start_query(ctx, 4, g("obj")));
        sim.run_for(SimDuration::from_millis(300));
        let out = sim.node(NodeId(0)).outcome(4).copied().expect("completed");
        assert_eq!(out.found_at, None);
    }
}
