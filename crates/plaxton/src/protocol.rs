//! The wide-scale distributed data location protocol (§4.3.3).
//!
//! Objects map to a *root* node (the node whose GUID matches the object's
//! in the most low-order nibbles, reached by surrogate routing). Publishing
//! a replica routes a message from the holder toward the root, depositing a
//! location pointer at every hop; locating routes toward the root until a
//! pointer is found, then answers the origin directly. Salted GUIDs give
//! every object several independent roots ("hashes each GUID with a small
//! number of different salt values"), removing the single point of failure.
//!
//! Maintenance is soft-state, per the paper's "maintenance-free operation":
//! * replicas republish periodically; pointers expire;
//! * nodes beacon to the peers in their routing tables and evict silent
//!   ones after a *second chance*;
//! * slow background gossip trades table rows to repair holes;
//! * new nodes join by routing toward their own GUID, harvesting one table
//!   row per hop, then announcing themselves to everyone they learned of.

use std::collections::HashMap;
use std::sync::Arc;

use oceanstore_naming::guid::Guid;
use oceanstore_sim::{
    Context, Message, NodeId, Protocol, SimDuration, SimTime, Topology,
};
use rand::Rng;

use crate::table::{Entry, RouteStep, RoutingTable};

/// A deadline of the location layer, handed back when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaxtonTimer {
    /// Periodic liveness beacons, eviction and repair gossip.
    Beacon,
    /// Periodic re-publication of the objects this node holds.
    Republish,
    /// A forwarded query's per-hop ack deadline, carrying its in-flight token.
    Ack(u64),
    /// Origin-side retry of the query with this id: answers carry no
    /// per-hop ack, so a lost `Found`/`NotFound` would strand the query.
    LocateRetry(u64),
}

/// Configuration of the global location layer.
#[derive(Debug, Clone)]
pub struct PlaxtonConfig {
    /// Digit levels in each routing table.
    pub levels: usize,
    /// Number of salted roots per object GUID.
    pub salts: u32,
    /// Lifetime of a deposited location pointer.
    pub pointer_ttl: SimDuration,
    /// How often holders republish their replicas.
    pub republish_interval: SimDuration,
    /// Heartbeat period for table neighbours.
    pub beacon_interval: SimDuration,
    /// Per-hop acknowledgment timeout for locate messages; on expiry the
    /// hop marks its next-hop suspect and re-routes ("bad links can be
    /// immediately detected, and routing can be continued", §4.3.3).
    pub ack_timeout: SimDuration,
    /// Origin-side locate retry period: a query still unanswered after
    /// this long restarts from salt 0 (doubling up to 4x).
    pub locate_retry_interval: SimDuration,
    /// Give up and record a `None` outcome after this many end-to-end
    /// retries.
    pub max_locate_retries: u32,
    /// Declare an object absent only after this many *complete* sweeps of
    /// every salted root came back empty. Under churn a single sweep can
    /// fail spuriously (a falsely-suspected hop turns the live root into
    /// an empty surrogate), so chaos experiments raise this.
    pub min_notfound_sweeps: u32,
}

impl Default for PlaxtonConfig {
    fn default() -> Self {
        PlaxtonConfig {
            levels: 8,
            salts: 3,
            pointer_ttl: SimDuration::from_secs(60),
            republish_interval: SimDuration::from_secs(20),
            beacon_interval: SimDuration::from_secs(5),
            ack_timeout: SimDuration::from_millis(500),
            locate_retry_interval: SimDuration::from_secs(3),
            max_locate_retries: 8,
            min_notfound_sweeps: 2,
        }
    }
}

/// Outcome of a locate operation, recorded at the origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocateOutcome {
    /// The replica holder found, or `None` after all salted roots failed.
    pub holder: Option<NodeId>,
    /// Total overlay hops across all attempts.
    pub hops: u32,
    /// Whether the answer came from the root itself rather than an
    /// intermediate pointer (the paper claims most searches do *not* reach
    /// the root).
    pub answered_by_root: bool,
    /// Completion time.
    pub completed_at: SimTime,
}

/// Messages of the global location protocol.
#[derive(Debug, Clone)]
pub enum PlaxtonMsg {
    /// Deposit pointers toward the root of `target` for a replica of
    /// `object` held at `holder`.
    Publish {
        /// The object GUID (pointer key).
        object: Guid,
        /// The routing target: `object.salted(s)`.
        target: Guid,
        /// Where the replica lives.
        holder: NodeId,
        /// Current digit level.
        level: usize,
    },
    /// Remove pointers for `(object, holder)` along the path to `target`.
    Unpublish {
        /// The object GUID.
        object: Guid,
        /// The routing target: `object.salted(s)`.
        target: Guid,
        /// The holder being withdrawn.
        holder: NodeId,
        /// Current digit level.
        level: usize,
    },
    /// Climb toward the root of `target` looking for a pointer to
    /// `object`.
    Locate {
        /// Origin-unique query id.
        id: u64,
        /// The object GUID.
        object: Guid,
        /// The routing target: `object.salted(s)`.
        target: Guid,
        /// Node that issued the query.
        origin: NodeId,
        /// Current digit level.
        level: usize,
        /// Hops taken in this attempt.
        hops: u32,
        /// Per-hop reliability token, acknowledged by the receiver.
        token: u64,
    },
    /// Hop-level acknowledgment of a Locate.
    Ack {
        /// Token being acknowledged.
        token: u64,
    },
    /// Locate answer: a replica of `object` lives at `holder`.
    Found {
        /// Query id.
        id: u64,
        /// Hops the winning attempt took.
        hops: u32,
        /// Replica holder.
        holder: NodeId,
        /// True if the answering node was the (surrogate) root.
        answered_by_root: bool,
    },
    /// Locate attempt reached the root without finding a pointer.
    NotFound {
        /// Query id.
        id: u64,
        /// Hops this attempt took.
        hops: u32,
    },
    /// Soft-state heartbeat carrying the sender's GUID.
    Beacon {
        /// Sender GUID.
        guid: Guid,
    },
    /// A joining node routing toward its own GUID.
    JoinRequest {
        /// The joining node.
        joiner: NodeId,
        /// Its GUID.
        guid: Guid,
        /// Current digit level.
        level: usize,
    },
    /// A routing-table row shared with a joiner (or gossip partner).
    TableRow {
        /// The level the entries belong to *in the sender's table*.
        level: usize,
        /// The row's populated entries.
        entries: Vec<Entry>,
    },
    /// "I exist, consider me for your table" — also the joiner's
    /// announcement.
    Hello {
        /// Sender GUID.
        guid: Guid,
    },
    /// Ask a peer for a random table row (slow background repair).
    GossipRequest,
}

impl Message for PlaxtonMsg {
    type Timer = PlaxtonTimer;

    fn wire_size(&self) -> usize {
        const G: usize = Guid::WIRE_SIZE;
        match self {
            PlaxtonMsg::Publish { .. } | PlaxtonMsg::Unpublish { .. } => 2 * G + 16,
            PlaxtonMsg::Locate { .. } => 2 * G + 28,
            PlaxtonMsg::Found { .. } => 32,
            PlaxtonMsg::NotFound { .. } => 16,
            PlaxtonMsg::Ack { .. } => 12,
            PlaxtonMsg::Beacon { .. } | PlaxtonMsg::Hello { .. } => G + 8,
            PlaxtonMsg::JoinRequest { .. } => G + 16,
            PlaxtonMsg::TableRow { entries, .. } => 12 + entries.len() * (G + 4),
            PlaxtonMsg::GossipRequest => 8,
        }
    }

    fn class(&self) -> &'static str {
        match self {
            PlaxtonMsg::Publish { .. } => "plaxton/publish",
            PlaxtonMsg::Unpublish { .. } => "plaxton/unpublish",
            PlaxtonMsg::Locate { .. } => "plaxton/locate",
            PlaxtonMsg::Found { .. } => "plaxton/found",
            PlaxtonMsg::NotFound { .. } => "plaxton/notfound",
            PlaxtonMsg::Ack { .. } => "plaxton/ack",
            PlaxtonMsg::Beacon { .. } => "plaxton/beacon",
            PlaxtonMsg::JoinRequest { .. } => "plaxton/join",
            PlaxtonMsg::TableRow { .. } => "plaxton/tablerow",
            PlaxtonMsg::Hello { .. } => "plaxton/hello",
            PlaxtonMsg::GossipRequest => "plaxton/gossip",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PointerRec {
    holder: NodeId,
    expires: SimTime,
}

#[derive(Debug, Clone)]
struct PendingLocate {
    object: Guid,
    next_salt: u32,
    hops_so_far: u32,
    /// End-to-end restarts so far (origin-side churn recovery).
    attempts: u32,
}

/// Liveness bookkeeping for one table neighbour (the "second-chance
/// algorithm": one missed beacon marks a suspect, the second evicts).
#[derive(Debug, Clone, Copy)]
struct Liveness {
    last_heard: SimTime,
    suspect: bool,
}

/// A server participating in the global location mesh.
pub struct PlaxtonNode {
    guid: Guid,
    cfg: PlaxtonConfig,
    topo: Arc<Topology>,
    table: RoutingTable,
    /// Location pointers deposited here: object → holders.
    pointers: HashMap<Guid, Vec<PointerRec>>,
    /// Objects whose replicas this node holds (and must republish).
    replicas: Vec<Guid>,
    /// Liveness of nodes appearing in our table.
    liveness: HashMap<NodeId, Liveness>,
    /// Locate queries in flight from this node.
    pending: HashMap<u64, PendingLocate>,
    /// Completed locate queries.
    outcomes: HashMap<u64, LocateOutcome>,
    /// Gateway for joining (None = founding member with prebuilt table).
    gateway: Option<NodeId>,
    /// Unacknowledged locate forwards: token → (next hop, message).
    in_flight: HashMap<u64, (NodeId, PlaxtonMsg)>,
    /// Next reliability token.
    next_token: u64,
    /// This node's own transport id (set by builders / `on_start`).
    my_node_id: NodeId,
}

impl std::fmt::Debug for PlaxtonNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlaxtonNode")
            .field("guid", &self.guid)
            .field("replicas", &self.replicas.len())
            .field("pointers", &self.pointers.len())
            .finish()
    }
}

impl PlaxtonNode {
    /// Creates a node. `gateway` triggers the join protocol on start;
    /// founding members (prebuilt tables via [`crate::build`]) pass `None`.
    pub fn new(
        guid: Guid,
        cfg: PlaxtonConfig,
        topo: Arc<Topology>,
        gateway: Option<NodeId>,
    ) -> Self {
        let table = RoutingTable::new(guid, cfg.levels);
        PlaxtonNode {
            guid,
            cfg,
            topo,
            table,
            pointers: HashMap::new(),
            replicas: Vec::new(),
            liveness: HashMap::new(),
            pending: HashMap::new(),
            outcomes: HashMap::new(),
            gateway,
            in_flight: HashMap::new(),
            next_token: 0,
            my_node_id: NodeId(usize::MAX),
        }
    }

    /// This server's GUID.
    pub fn guid(&self) -> &Guid {
        &self.guid
    }

    /// Direct access to the routing table (tests, benches, builders).
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// Mutable table access for the omniscient bootstrap builder.
    pub fn table_mut(&mut self) -> &mut RoutingTable {
        &mut self.table
    }

    /// The completed outcome of locate query `id`.
    pub fn outcome(&self, id: u64) -> Option<&LocateOutcome> {
        self.outcomes.get(&id)
    }

    /// Objects whose replicas live here.
    pub fn replicas(&self) -> &[Guid] {
        &self.replicas
    }

    /// Number of distinct objects this node holds pointers for.
    pub fn pointer_count(&self) -> usize {
        self.pointers.len()
    }

    /// Whether this node holds a (non-expired, conservatively any) pointer
    /// for `object`.
    pub fn has_pointer(&self, object: &Guid) -> bool {
        self.pointers.get(object).is_some_and(|v| !v.is_empty())
    }

    /// Stores a replica locally and publishes it to all salted roots.
    /// Drive through [`oceanstore_sim::Simulator::with_node_ctx`].
    pub fn publish(&mut self, ctx: &mut Context<'_, PlaxtonMsg>, object: Guid) {
        if !self.replicas.contains(&object) {
            self.replicas.push(object);
        }
        self.send_publishes(ctx, object);
    }

    /// Withdraws a replica: removes it locally and sends unpublish along
    /// every salted path.
    pub fn unpublish(&mut self, ctx: &mut Context<'_, PlaxtonMsg>, object: Guid) {
        self.replicas.retain(|g| *g != object);
        let me = ctx.node();
        for salt in 0..self.cfg.salts {
            let target = object.salted(salt);
            self.remove_pointer(&object, me);
            self.forward_or_stop(ctx, PlaxtonMsg::Unpublish { object, target, holder: me, level: 0 });
        }
    }

    /// Starts a locate for `object`; result lands in [`Self::outcome`].
    pub fn locate(&mut self, ctx: &mut Context<'_, PlaxtonMsg>, id: u64, object: Guid) {
        // Check our own pointer cache first.
        self.sweep_pointers(ctx.now());
        if let Some(rec) = self.best_pointer(&object, ctx.node()) {
            self.outcomes.insert(
                id,
                LocateOutcome {
                    holder: Some(rec),
                    hops: 0,
                    answered_by_root: false,
                    completed_at: ctx.now(),
                },
            );
            return;
        }
        self.pending
            .insert(id, PendingLocate { object, next_salt: 1, hops_so_far: 0, attempts: 0 });
        let target = object.salted(0);
        self.step_locate(ctx, id, object, target, ctx.node(), 0, 0);
        ctx.set_timer(self.cfg.locate_retry_interval, PlaxtonTimer::LocateRetry(id));
    }

    fn send_publishes(&mut self, ctx: &mut Context<'_, PlaxtonMsg>, object: Guid) {
        let me = ctx.node();
        for salt in 0..self.cfg.salts {
            let target = object.salted(salt);
            self.deposit_pointer(object, me, ctx.now());
            self.forward_or_stop(ctx, PlaxtonMsg::Publish { object, target, holder: me, level: 0 });
        }
    }

    /// Routes a Publish/Unpublish one step (or stops at the root).
    fn forward_or_stop(&mut self, ctx: &mut Context<'_, PlaxtonMsg>, msg: PlaxtonMsg) {
        let me = ctx.node();
        let (target, level) = match &msg {
            PlaxtonMsg::Publish { target, level, .. }
            | PlaxtonMsg::Unpublish { target, level, .. } => (*target, *level),
            _ => unreachable!("only publish-family messages are forwarded here"),
        };
        let liveness = &self.liveness;
        let step = self.table.route_step(me, &target, level, |n| {
            liveness.get(&n).is_none_or(|l| !l.suspect)
        });
        if let RouteStep::Forward { next, level: new_level } = step {
            let fwd = match msg {
                PlaxtonMsg::Publish { object, target, holder, .. } => {
                    PlaxtonMsg::Publish { object, target, holder, level: new_level }
                }
                PlaxtonMsg::Unpublish { object, target, holder, .. } => {
                    PlaxtonMsg::Unpublish { object, target, holder, level: new_level }
                }
                _ => unreachable!(),
            };
            ctx.send(next, fwd);
        }
        // RouteStep::Root: we are the root; the pointer is already
        // deposited/removed locally.
    }

    #[allow(clippy::too_many_arguments)]
    fn step_locate(
        &mut self,
        ctx: &mut Context<'_, PlaxtonMsg>,
        id: u64,
        object: Guid,
        target: Guid,
        origin: NodeId,
        level: usize,
        hops: u32,
    ) {
        let me = ctx.node();
        let liveness = &self.liveness;
        let step = self.table.route_step(me, &target, level, |n| {
            liveness.get(&n).is_none_or(|l| !l.suspect)
        });
        match step {
            RouteStep::Forward { next, level: new_level } => {
                let token = self.next_token;
                self.next_token += 1;
                let msg = PlaxtonMsg::Locate {
                    id,
                    object,
                    target,
                    origin,
                    level: new_level,
                    hops: hops + 1,
                    token,
                };
                self.in_flight.insert(token, (next, msg.clone()));
                ctx.send(next, msg);
                ctx.set_timer(self.cfg.ack_timeout, PlaxtonTimer::Ack(token));
            }
            RouteStep::Root => {
                // We are the root and hold no pointer.
                self.deliver(ctx, origin, PlaxtonMsg::NotFound { id, hops });
            }
        }
    }

    fn deliver(&mut self, ctx: &mut Context<'_, PlaxtonMsg>, origin: NodeId, msg: PlaxtonMsg) {
        if origin == ctx.node() {
            self.handle_answer(ctx, msg);
        } else {
            ctx.send(origin, msg);
        }
    }

    fn handle_answer(&mut self, ctx: &mut Context<'_, PlaxtonMsg>, msg: PlaxtonMsg) {
        match msg {
            PlaxtonMsg::Found { id, hops, holder, answered_by_root } => {
                if let Some(p) = self.pending.remove(&id) {
                    self.outcomes.entry(id).or_insert(LocateOutcome {
                        holder: Some(holder),
                        hops: p.hops_so_far + hops,
                        answered_by_root,
                        completed_at: ctx.now(),
                    });
                }
            }
            PlaxtonMsg::NotFound { id, hops } => {
                let Some(mut p) = self.pending.remove(&id) else { return };
                p.hops_so_far += hops;
                if p.next_salt < self.cfg.salts {
                    // Retry through the next replicated root.
                    let salt = p.next_salt;
                    p.next_salt += 1;
                    let object = p.object;
                    let target = object.salted(salt);
                    self.pending.insert(id, p);
                    let origin = ctx.node();
                    self.step_locate(ctx, id, object, target, origin, 0, 0);
                } else {
                    // One complete sweep of all salted roots came back
                    // empty.
                    p.attempts += 1;
                    if p.attempts >= self.cfg.min_notfound_sweeps {
                        self.outcomes.entry(id).or_insert(LocateOutcome {
                            holder: None,
                            hops: p.hops_so_far,
                            answered_by_root: true,
                            completed_at: ctx.now(),
                        });
                    } else if p.attempts == 1 {
                        // Sweep again right away; further sweeps ride the
                        // origin retry timer.
                        p.next_salt = 1;
                        let object = p.object;
                        self.pending.insert(id, p);
                        let origin = ctx.node();
                        let target = object.salted(0);
                        self.step_locate(ctx, id, object, target, origin, 0, 0);
                    } else {
                        self.pending.insert(id, p);
                    }
                }
            }
            _ => unreachable!("only answers are handled here"),
        }
    }

    fn deposit_pointer(&mut self, object: Guid, holder: NodeId, now: SimTime) {
        let expires = now + self.cfg.pointer_ttl;
        let recs = self.pointers.entry(object).or_default();
        match recs.iter_mut().find(|r| r.holder == holder) {
            Some(r) => r.expires = expires,
            None => recs.push(PointerRec { holder, expires }),
        }
    }

    fn remove_pointer(&mut self, object: &Guid, holder: NodeId) {
        if let Some(recs) = self.pointers.get_mut(object) {
            recs.retain(|r| r.holder != holder);
            if recs.is_empty() {
                self.pointers.remove(object);
            }
        }
    }

    fn sweep_pointers(&mut self, now: SimTime) {
        self.pointers.retain(|_, recs| {
            recs.retain(|r| r.expires > now);
            !recs.is_empty()
        });
    }

    /// The pointer holder closest (by IP distance) to `origin`.
    fn best_pointer(&self, object: &Guid, origin: NodeId) -> Option<NodeId> {
        let recs = self.pointers.get(object)?;
        recs.iter()
            .min_by_key(|r| {
                self.topo
                    .dist(origin, r.holder)
                    .map_or(u64::MAX, |d| d.as_micros())
            })
            .map(|r| r.holder)
    }

    /// All unique peers appearing in the routing table.
    fn table_peers(&self) -> Vec<NodeId> {
        let mut peers: Vec<NodeId> = self.table.entries().map(|(_, _, e)| e.node).collect();
        peers.sort_unstable();
        peers.dedup();
        peers
    }

    /// Record that we heard from `node` (beacon or any message).
    fn note_alive(&mut self, node: NodeId, now: SimTime) {
        self.liveness.insert(node, Liveness { last_heard: now, suspect: false });
    }

    /// Considers `(node, guid)` for every eligible level of our table.
    fn consider_peer(&mut self, node: NodeId, guid: Guid) {
        if node == NodeId(usize::MAX) || guid == self.guid {
            return;
        }
        let me_guid = self.guid;
        let match_len = me_guid.low_nibble_match_len(&guid);
        let topo = Arc::clone(&self.topo);
        let my_id = self.my_node_id;
        for level in 0..=match_len.min(self.table.levels() - 1) {
            self.table.consider(level, Entry { node, guid }, |a, b| {
                match (topo.dist(my_id, a), topo.dist(my_id, b)) {
                    (Some(da), Some(db)) => da < db,
                    (Some(_), None) => true,
                    _ => false,
                }
            });
        }
    }

    /// Sets the node's own transport id (done by builders; `on_start` also
    /// sets it defensively). Distance comparisons in `consider_peer` need
    /// it before the first event fires.
    pub fn set_node_id(&mut self, id: NodeId) {
        self.my_node_id = id;
    }
}

impl Protocol for PlaxtonNode {
    type Msg = PlaxtonMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, PlaxtonMsg>) {
        self.my_node_id = ctx.node();
        ctx.set_timer(self.cfg.beacon_interval, PlaxtonTimer::Beacon);
        ctx.set_timer(self.cfg.republish_interval, PlaxtonTimer::Republish);
        if let Some(gw) = self.gateway {
            ctx.send(gw, PlaxtonMsg::JoinRequest { joiner: ctx.node(), guid: self.guid, level: 0 });
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, PlaxtonMsg>, timer: PlaxtonTimer) {
        match timer {
            PlaxtonTimer::Beacon => {
                let now = ctx.now();
                // Second-chance eviction: no word for 2 intervals → suspect;
                // suspect and still silent → evict and let gossip repair.
                let stale = self.cfg.beacon_interval.as_micros() * 2;
                let mut evict = Vec::new();
                for (&peer, l) in &mut self.liveness {
                    if now.saturating_since(l.last_heard).as_micros() > stale {
                        if l.suspect {
                            evict.push(peer);
                        } else {
                            l.suspect = true;
                        }
                    }
                }
                for peer in evict {
                    self.table.evict(peer);
                    // Keep the suspect mark so gossip rows cannot silently
                    // resurrect a dead hop; any real message clears it.
                }
                for peer in self.table_peers() {
                    ctx.send(peer, PlaxtonMsg::Beacon { guid: self.guid });
                }
                // Slow repair gossip: ask one random peer for a random row.
                let peers = self.table_peers();
                if !peers.is_empty() {
                    let target = peers[ctx.rng().gen_range(0..peers.len())];
                    ctx.send(target, PlaxtonMsg::GossipRequest);
                }
                ctx.set_timer(self.cfg.beacon_interval, PlaxtonTimer::Beacon);
            }
            PlaxtonTimer::Republish => {
                self.sweep_pointers(ctx.now());
                let replicas = self.replicas.clone();
                for object in replicas {
                    self.send_publishes(ctx, object);
                }
                ctx.set_timer(self.cfg.republish_interval, PlaxtonTimer::Republish);
            }
            PlaxtonTimer::LocateRetry(id) => {
                let Some(p) = self.pending.get_mut(&id) else { return };
                if p.attempts >= self.cfg.max_locate_retries {
                    // Out of patience: declare the object unlocatable.
                    let p = self.pending.remove(&id).expect("just present");
                    self.outcomes.entry(id).or_insert(LocateOutcome {
                        holder: None,
                        hops: p.hops_so_far,
                        answered_by_root: false,
                        completed_at: ctx.now(),
                    });
                    return;
                }
                p.attempts += 1;
                p.next_salt = 1;
                let backoff = 1u64 << p.attempts.min(2);
                let object = p.object;
                let target = object.salted(0);
                let origin = ctx.node();
                self.step_locate(ctx, id, object, target, origin, 0, 0);
                ctx.set_timer(
                    self.cfg.locate_retry_interval.mul_f64(backoff as f64),
                    PlaxtonTimer::LocateRetry(id),
                );
            }
            PlaxtonTimer::Ack(token) => {
                if let Some((next, msg)) = self.in_flight.remove(&token) {
                    // The hop never acknowledged: suspect it and re-route.
                    self.liveness
                        .insert(next, Liveness { last_heard: SimTime::ZERO, suspect: true });
                    if let PlaxtonMsg::Locate { id, object, target, origin, level, hops, .. } = msg
                    {
                        // Re-route from the previous level (the failed hop
                        // consumed one).
                        self.step_locate(ctx, id, object, target, origin, level.saturating_sub(1), hops);
                    }
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, PlaxtonMsg>, from: NodeId, msg: PlaxtonMsg) {
        self.note_alive(from, ctx.now());
        match msg {
            PlaxtonMsg::Publish { object, target, holder, level } => {
                self.deposit_pointer(object, holder, ctx.now());
                self.forward_or_stop(ctx, PlaxtonMsg::Publish { object, target, holder, level });
            }
            PlaxtonMsg::Unpublish { object, target, holder, level } => {
                self.remove_pointer(&object, holder);
                self.forward_or_stop(ctx, PlaxtonMsg::Unpublish { object, target, holder, level });
            }
            PlaxtonMsg::Ack { token } => {
                self.in_flight.remove(&token);
            }
            PlaxtonMsg::Locate { id, object, target, origin, level, hops, token } => {
                ctx.send(from, PlaxtonMsg::Ack { token });
                self.sweep_pointers(ctx.now());
                if let Some(holder) = self.best_pointer(&object, origin) {
                    let me = ctx.node();
                    let liveness = &self.liveness;
                    let is_root = matches!(
                        self.table.route_step(me, &target, level, |n| {
                            liveness.get(&n).is_none_or(|l| !l.suspect)
                        }),
                        RouteStep::Root
                    );
                    self.deliver(
                        ctx,
                        origin,
                        PlaxtonMsg::Found { id, hops, holder, answered_by_root: is_root },
                    );
                } else {
                    self.step_locate(ctx, id, object, target, origin, level, hops);
                }
            }
            answer @ (PlaxtonMsg::Found { .. } | PlaxtonMsg::NotFound { .. }) => {
                self.handle_answer(ctx, answer);
            }
            PlaxtonMsg::Beacon { guid } | PlaxtonMsg::Hello { guid } => {
                self.consider_peer(from, guid);
            }
            PlaxtonMsg::JoinRequest { joiner, guid, level } => {
                // Offer the joiner our row at the current level, consider it
                // for our own table, and route the request onward.
                let entries: Vec<Entry> = if level < self.table.levels() {
                    self.table.row(level).iter().flatten().copied().collect()
                } else {
                    Vec::new()
                };
                ctx.send(joiner, PlaxtonMsg::TableRow { level, entries });
                self.consider_peer(joiner, guid);
                let me = ctx.node();
                let liveness = &self.liveness;
                let step = self.table.route_step(me, &guid, level, |n| {
                    n != joiner && liveness.get(&n).is_none_or(|l| !l.suspect)
                });
                match step {
                    RouteStep::Forward { next, level: new_level } => {
                        ctx.send(next, PlaxtonMsg::JoinRequest { joiner, guid, level: new_level });
                    }
                    RouteStep::Root => {
                        // We are the joiner's surrogate root: hand over all
                        // remaining rows.
                        for l in level..self.table.levels() {
                            let entries: Vec<Entry> =
                                self.table.row(l).iter().flatten().copied().collect();
                            if !entries.is_empty() {
                                ctx.send(joiner, PlaxtonMsg::TableRow { level: l, entries });
                            }
                        }
                    }
                }
            }
            PlaxtonMsg::TableRow { entries, .. } => {
                // Harvest candidates (level in the sender's table need not
                // equal the level in ours; consider_peer re-derives it) and
                // introduce ourselves so they can add us.
                for e in entries {
                    self.consider_peer(e.node, e.guid);
                    if e.node != ctx.node() {
                        ctx.send(e.node, PlaxtonMsg::Hello { guid: self.guid });
                    }
                }
            }
            PlaxtonMsg::GossipRequest => {
                let levels = self.table.levels();
                let l = ctx.rng().gen_range(0..levels);
                let entries: Vec<Entry> = self.table.row(l).iter().flatten().copied().collect();
                if !entries.is_empty() {
                    ctx.send(from, PlaxtonMsg::TableRow { level: l, entries });
                }
            }
        }
    }
}
