//! The discrete-event simulation engine.
//!
//! Protocols are written sans-io: a [`Protocol`] is a state machine that
//! reacts to message deliveries and timer expirations by emitting new sends
//! and timers through a [`Context`]. The engine owns the event queues, the
//! clock, the [`crate::topology::Topology`], failure injection,
//! and byte accounting. Everything is deterministic for a given seed:
//! events at equal times fire in insertion order, and all randomness flows
//! from per-node ChaCha streams derived from the master seed — except drop
//! and link-flap coins, which are counter-mode hashes of the master seed
//! and each routing attempt's identity (see `counter_drop`), so they too
//! are pure functions of the seed.
//!
//! # One execution path
//!
//! Every handler runs inside a *window* on a *domain* (a contiguous block
//! of nodes with its own delivery queue and timer heap): the domain
//! executes its events in `(at, seq)` order up to the window's end key,
//! logs what they emit, and a commit replays the logs in global dispatch
//! order to hand out the real seqs. With one domain — the default —
//! nothing bounds a window and `run_until` cuts its span into fixed-length
//! ones; with `set_threads(n)` the same loop runs several domains per
//! thread (`DOMAINS_PER_THREAD`) in each window under a conservative
//! lookahead, and the `n` threads pull them from one queue.
//! [`Simulator::step`] is a window that ends right after one key, and
//! external stimulus ([`Simulator::start`], [`Simulator::with_node_ctx`],
//! [`Simulator::inject`]) is a dispatch whose window executes nothing, so
//! everything it emits parks for the commit. There is no second loop: the
//! schedule is the same at every thread count by construction.
//!
//! # Hot-path structure
//!
//! Three things keep the event loop cheap without changing its observable
//! order (a single global `(at, seq)` sequence, `seq` assigned in emission
//! order):
//!
//! * **Arc multicast** — [`Context::broadcast`] queues one allocation for n
//!   recipients; each delivery borrows the shared payload through
//!   [`Protocol::on_message_ref`] (the last one gets it by value for free),
//!   and its byte accounting is folded into one [`NetStats`] batch instead
//!   of n counter updates.
//! * **Key-slab queues** — the heaps sift compact 24-byte
//!   `(at, seq, slot)` keys while the fat bodies (a delivery's sender,
//!   destination and payload; a timer's node and value) sit still in a
//!   slab with a free list, so every sift-up/sift-down moves three words
//!   whatever a protocol's messages and timers weigh.
//! * **Pooled action buffers** — every callback writes into one reusable
//!   `Vec<Action>` owned by its domain rather than a fresh allocation per
//!   dispatch.
//!
//! Timers get no structure of their own kind: a domain's armed timers are a
//! second key heap over a second slab, and the domain pops the `(at, seq)`
//! minimum of the two heads, which is exactly the order a single heap would
//! produce. A timer's value never takes part in an ordering decision.

mod commit;
#[cfg(test)]
mod tests;
mod window;

use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::Arc;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::stats::NetStats;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, Topology};

use commit::MergeScratch;
use window::{
    dispatch_window, mix64, run_domain_window, run_jobs_scoped, Domain, Emission, RunJobs,
};

/// A protocol message that can travel over the simulated network.
pub trait Message: Clone {
    /// What a protocol speaking this message arms a timer with, and gets
    /// back when it fires: usually an enum of the layer's deadlines, each
    /// carrying what it guards. The engine never looks inside it. A
    /// protocol without timers uses `()` or [`std::convert::Infallible`].
    type Timer: Send + Debug + 'static;

    /// Bytes this message occupies on the wire (used for Figure-6-style
    /// accounting). Include headers/signatures as the real system would.
    fn wire_size(&self) -> usize;

    /// Accounting class (e.g. `"prepare"`, `"gossip"`). Defaults to `"msg"`.
    fn class(&self) -> &'static str {
        "msg"
    }
}

/// A node-local protocol state machine.
pub trait Protocol {
    /// Message type exchanged between nodes.
    type Msg: Message;

    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Context<'_, Self::Msg>) {}

    /// Called when a message addressed to this node arrives.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Borrowing variant of [`Protocol::on_message`], used when the payload
    /// is shared with other still-pending deliveries of the same
    /// [`Context::broadcast`]. The default clones and delegates; protocols
    /// that never need ownership may override it to skip the clone. An
    /// override must be observably equivalent to `on_message` — the engine
    /// is free to call either.
    fn on_message_ref(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: &Self::Msg) {
        self.on_message(ctx, from, msg.clone());
    }

    /// Called when a timer set through [`Context::set_timer`] fires, with
    /// the value it was armed with. Timers cannot be cancelled, so a
    /// deadline whose work is done still fires: each protocol decides from
    /// its own state, and from what the timer carries, whether it is stale.
    fn on_timer(&mut self, _: &mut Context<'_, Self::Msg>, _: <Self::Msg as Message>::Timer) {}
}

/// What a protocol may do in reaction to an event.
#[derive(Debug)]
enum Action<M: Message> {
    Send { to: NodeId, msg: M },
    Multicast { to: Vec<NodeId>, msg: Arc<M> },
    Timer { delay: SimDuration, timer: M::Timer },
    Count { name: &'static str, n: u64 },
}

/// Handle given to protocol callbacks for interacting with the simulated
/// world.
#[derive(Debug)]
pub struct Context<'a, M: Message> {
    now: SimTime,
    node: NodeId,
    actions: &'a mut Vec<Action<M>>,
    rng: &'a mut ChaCha8Rng,
}

impl<M: Message> Context<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this callback runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Sends `msg` to `to`; it arrives after the topology's shortest-path
    /// latency (or never, if `to` is unreachable, partitioned away, down at
    /// delivery time, or the message is randomly dropped).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Sends one message to every recipient in `to`, in order — observably
    /// identical to calling [`Context::send`] in a loop (same per-link
    /// accounting, drops, and delivery order), but the payload is allocated
    /// once and shared by reference until delivery.
    pub fn broadcast(&mut self, to: impl IntoIterator<Item = NodeId>, msg: M) {
        let to: Vec<NodeId> = to.into_iter().collect();
        match to.len() {
            0 => {}
            1 => self.actions.push(Action::Send { to: to[0], msg }),
            _ => self.actions.push(Action::Multicast { to, msg: Arc::new(msg) }),
        }
    }

    /// Schedules [`Protocol::on_timer`] with `timer` after `delay`.
    ///
    /// Timers cannot be cancelled. The engine hands `timer` back unread
    /// when it fires; whether the deadline still matters is the
    /// protocol's call, made from its own state at fire time.
    pub fn set_timer(&mut self, delay: SimDuration, timer: M::Timer) {
        self.actions.push(Action::Timer { delay, timer });
    }

    /// This node's deterministic random stream.
    pub fn rng(&mut self) -> &mut impl Rng {
        self.rng
    }

    /// Bumps the named protocol-event counter in [`NetStats`] by one.
    ///
    /// Events are for costs that are invisible in pure message counts —
    /// e.g. how many `Commit` re-pushes were retries vs the retry budget
    /// being exhausted. They appear in [`NetStats::event`] and the chaos
    /// fingerprint, so determinism checks cover them too.
    pub fn count(&mut self, name: &'static str) {
        self.actions.push(Action::Count { name, n: 1 });
    }

    /// Runs an *embedded* protocol that speaks message type `N`, wrapping
    /// every send with `wrap` so it travels as this protocol's `M`, and
    /// every timer it arms with `wrap_timer` so it fires as this
    /// protocol's `M::Timer`. The composite's `on_timer` unwraps it and
    /// hands the embedded protocol back its own value.
    ///
    /// This is how a composite node (e.g. an OceanStore server) hosts a
    /// self-contained state machine (e.g. a PBFT replica) without the inner
    /// machine knowing about the envelope types.
    pub fn with_inner<N: Message, R>(
        &mut self,
        wrap: impl Fn(N) -> M,
        wrap_timer: impl Fn(N::Timer) -> M::Timer,
        f: impl FnOnce(&mut Context<'_, N>) -> R,
    ) -> R {
        let mut inner_actions: Vec<Action<N>> = Vec::new();
        let (now, node) = (self.now, self.node);
        let r = f(&mut Context { now, node, actions: &mut inner_actions, rng: self.rng });
        self.actions.extend(inner_actions.into_iter().map(|action| match action {
            Action::Send { to, msg } => Action::Send { to, msg: wrap(msg) },
            Action::Multicast { to, msg } => {
                Action::Multicast { to, msg: Arc::new(wrap(Arc::unwrap_or_clone(msg))) }
            }
            Action::Timer { delay, timer } => Action::Timer { delay, timer: wrap_timer(timer) },
            Action::Count { name, n } => Action::Count { name, n },
        }));
        r
    }
}

/// A delivery payload: owned for unicast, `Arc`-shared for multicast so one
/// allocation serves every recipient.
#[derive(Debug)]
enum Payload<M> {
    One(M),
    Shared(Arc<M>),
}

/// Sizes of the `count` contiguous blocks `n` nodes are partitioned into
/// (at least one block, at most one per node).
fn domain_sizes(n: usize, count: usize) -> impl Iterator<Item = usize> {
    let count = count.clamp(1, n.max(1));
    (0..count).map(move |d| n / count + usize::from(d < n % count))
}

/// Deterministic contiguous block partition of `n` nodes into `count`
/// domains: node `i`'s domain depends only on `(n, count)`, never on thread
/// scheduling. Contiguity matters twice over — it matches the positional
/// rack/ring layout [`crate::cluster::ClusterSpec`] assigns (so domains
/// align with cluster structure), and it lets the window runner hand each
/// job a disjoint `&mut` slice of the node and RNG vectors.
pub(crate) fn contiguous_domains(n: usize, count: usize) -> Vec<u32> {
    domain_sizes(n, count)
        .enumerate()
        .flat_map(|(d, size)| std::iter::repeat_n(d as u32, size))
        .collect()
}

/// The live partition of the node set into domains. One domain unless
/// [`Simulator::set_threads`] asked for more.
struct Partition<M: Message> {
    domains: Vec<Domain<M>>,
    /// Domain index per node (contiguous blocks).
    of_node: Vec<u32>,
    /// Stats accumulators of domains `1..`: a multi-domain window's jobs
    /// cannot share the global [`NetStats`], so domain 0 writes it directly
    /// and every other domain records here, folded in (every counter is a
    /// sum) when the `run_until` that ran the windows ends. Sized for the
    /// full node count, since recipients can live in other domains.
    accumulators: Vec<NetStats>,
    /// Commit scratch, reused across windows (cleared each commit,
    /// capacity kept) so the serial section allocates nothing steady-state.
    merge: MergeScratch,
}

impl<M: Message> Partition<M> {
    /// An empty `count`-way partition of `n` nodes whose domain clocks
    /// start at `now` µs.
    fn new(n: usize, count: usize, now: u64) -> Self {
        let mut domains = Vec::new();
        let mut base = 0;
        for size in domain_sizes(n, count) {
            domains.push(Domain::new(base, base + size, now));
            base += size;
        }
        Partition {
            accumulators: (1..domains.len()).map(|_| NetStats::accumulator(n)).collect(),
            domains,
            of_node: contiguous_domains(n, count),
            merge: MergeScratch::default(),
        }
    }

    /// The globally next event: minimum `(at, seq)` over every domain's
    /// head, with the domain that holds it.
    fn earliest(&self) -> Option<(u64, u64, usize)> {
        self.domains
            .iter()
            .enumerate()
            .filter_map(|(d, dom)| dom.peek_next().map(|(at, seq, _)| (at, seq, d)))
            .min()
    }
}

/// Coverage counters for the multi-domain scheduler: how much of the run
/// executed under multi-domain windows, and what fraction of wall time the
/// single-threaded commit consumed. All zeros while one thread is
/// configured.
///
/// Deliberately *not* part of [`NetStats`]: stats are asserted bit-identical
/// across thread counts, while coverage varies with the thread count and
/// the wall clock by design.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ParCoverage {
    /// Multi-domain windows fanned out across worker threads.
    pub windows_parallel: u64,
    /// Multi-domain windows run inline on the driver thread (below the
    /// spawn threshold). Identical schedule, no thread wake-ups.
    pub windows_inline: u64,
    /// Times a `run_until` collapsed to one domain although several threads
    /// are configured, because a zero-latency link crosses the partition
    /// and leaves no lookahead.
    pub fallback_entries: u64,
    /// Events processed inside those collapsed runs.
    pub fallback_events: u64,
    /// Wall-clock nanoseconds inside the single-threaded commit.
    pub serial_nanos: u64,
    /// Wall-clock nanoseconds across entire `run_until` calls (windows,
    /// commits, and scheduling glue).
    pub epoch_nanos: u64,
    /// Wall-clock nanoseconds summed over every job of the windows fanned
    /// out across threads: the time threads spent running domains.
    pub busy_nanos: u64,
    /// Wall-clock nanoseconds of those windows, from fan-out to join.
    pub window_nanos: u64,
}

impl ParCoverage {
    /// Fraction of epoch wall time spent in the serial commit.
    pub fn serial_fraction(&self) -> f64 {
        if self.epoch_nanos == 0 {
            0.0
        } else {
            self.serial_nanos as f64 / self.epoch_nanos as f64
        }
    }

    /// Share of the fanned-out windows' thread time spent running domains,
    /// `busy_nanos / (threads × window_nanos)`: 1.0 when no thread ever
    /// waits at a window's join. Pass [`Simulator::threads`].
    pub fn parallel_efficiency(&self, threads: usize) -> f64 {
        if self.window_nanos == 0 {
            0.0
        } else {
            self.busy_nanos as f64 / (threads as f64 * self.window_nanos as f64)
        }
    }
}

/// The simulated network and its fault state: everything a routing
/// decision reads. Changed only between windows, shared read-only by every
/// job inside one.
struct Network {
    topo: Topology,
    down: Vec<bool>,
    /// Partition group per node; messages cross groups only if `None`.
    partitions: Option<Vec<u32>>,
    drop_prob: f64,
    /// Per-link drop probabilities (flapping links), keyed by the
    /// direction-normalized endpoint pair.
    link_drops: HashMap<(usize, usize), f64>,
    /// Multiplier applied to every link latency (link degradation).
    latency_factor: f64,
    /// Seed of the counter-mode drop coins: every drop verdict is a pure
    /// hash of `(drop_seed, directed link, attempt counter)`, never a draw
    /// from a shared RNG stream — so drop decisions commute with evaluation
    /// order and thread count.
    drop_seed: u64,
}

impl Network {
    /// `latency` under the current link-degradation factor.
    fn scaled(&self, latency: SimDuration) -> SimDuration {
        if self.latency_factor == 1.0 {
            latency
        } else {
            latency.mul_f64(self.latency_factor)
        }
    }
}

/// Span (µs of simulated time) of a window nothing bounds — one domain, or
/// domains no link crosses. Any span is safe there; this one keeps a
/// window's emission log cache-sized instead of letting a long `run_until`
/// log every event it executes before the first commit (measured on the
/// 256-node grid micro-bench: 5.0–6.0 M events/s unbounded, 6.5–6.9 M at
/// 10 ms, against ~50 ns of glue per window).
const UNBOUNDED_WINDOW_SPAN: u64 = 10_000;

/// Domains per thread of a multi-threaded partition. Finer blocks let a
/// thread that drew light domains take more, so a block holding the busy
/// end of the dissemination tree no longer keeps the other core waiting.
/// Measured on `scaleout_t2` at two threads on a 2-vCPU host (ops per
/// wall-second, seeds 31/32, mean of two runs each): 1 → 175/173,
/// 2 → 190/188, 4 → 207/213, 8 → 202/205, 16 → 201/195, 32 → 179/182.
/// The threads' busy share of the fanned-out windows climbs 0.73 → 0.95
/// across the sweep, but past 4 the serial commit (5 → 10 % of the run)
/// merges more runs and parks more sends than balance wins back.
const DOMAINS_PER_THREAD: usize = 4;

/// The discrete-event simulator driving one [`Protocol`] instance per node.
pub struct Simulator<P: Protocol> {
    nodes: Vec<P>,
    node_rngs: Vec<ChaCha8Rng>,
    net: Network,
    clock: SimTime,
    /// Next seq to hand out. Deliveries and timers share the counter, so
    /// the merged `(at, seq)` order is a single global sequence.
    seq: u64,
    stats: NetStats,
    events_processed: u64,
    /// Multi-domain scheduler coverage counters; see [`ParCoverage`].
    coverage: ParCoverage,
    /// Configured thread count: the driver plus `threads - 1` workers.
    threads: usize,
    /// Domain count of the configured partition, which the live one has
    /// except while a run is collapsed to one domain for lack of lookahead.
    domains: usize,
    /// Unscaled lookahead of the `domains`-way partition in µs: the minimum
    /// latency of a link that crosses it. `u64::MAX` when none does.
    base_lookahead: u64,
    part: Partition<P::Msg>,
    /// The threaded job runner, installed by `set_threads`.
    run_jobs: Option<RunJobs<P>>,
}

impl<P: Protocol> std::fmt::Debug for Simulator<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("nodes", &self.nodes.len())
            .field("clock", &self.clock)
            .field("pending_events", &self.pending_events())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl<P: Protocol> Simulator<P> {
    /// Creates a simulator over `topology` with one protocol instance per
    /// node.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != topology.len()`.
    pub fn new(topology: Topology, nodes: Vec<P>, seed: u64) -> Self {
        assert_eq!(nodes.len(), topology.len(), "one protocol instance per topology node");
        let n = nodes.len();
        let node_rngs = (0..n)
            .map(|i| ChaCha8Rng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1))))
            .collect();
        Simulator {
            nodes,
            node_rngs,
            net: Network {
                topo: topology,
                down: vec![false; n],
                partitions: None,
                drop_prob: 0.0,
                link_drops: HashMap::new(),
                latency_factor: 1.0,
                drop_seed: mix64(seed ^ 0xD1B5_4A32_D192_ED03),
            },
            clock: SimTime::ZERO,
            seq: 0,
            stats: NetStats::new(n),
            events_processed: 0,
            coverage: ParCoverage::default(),
            threads: 1,
            domains: 1,
            base_lookahead: u64::MAX,
            part: Partition::new(n, 1, 0),
            run_jobs: None,
        }
    }

    /// Calls [`Protocol::on_start`] on every live node.
    pub fn start(&mut self) {
        for i in 0..self.nodes.len() {
            if !self.net.down[i] {
                self.with_node_ctx(NodeId(i), |p, ctx| p.on_start(ctx));
            }
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Network accounting so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Resets the byte counters (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Multi-domain scheduler coverage counters accumulated since
    /// construction: how many multi-domain windows ran (parallel vs
    /// inline), how often a run collapsed to one domain for lack of
    /// lookahead, and the wall-clock split between the serial commit and
    /// whole runs. All zeros while one thread is configured.
    pub fn par_coverage(&self) -> ParCoverage {
        self.coverage
    }

    /// The topology the simulation runs over.
    pub fn topology(&self) -> &Topology {
        &self.net.topo
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the simulation has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Shared access to the protocol instance at `node`.
    pub fn node(&self, node: NodeId) -> &P {
        &self.nodes[node.0]
    }

    /// Exclusive access to the protocol instance at `node` (for test
    /// inspection and external stimulus outside the event loop).
    pub fn node_mut(&mut self, node: NodeId) -> &mut P {
        &mut self.nodes[node.0]
    }

    /// Iterates over all protocol instances.
    pub fn nodes(&self) -> impl Iterator<Item = &P> {
        self.nodes.iter()
    }

    /// Marks a node crashed (true) or recovered (false). A crashed node
    /// receives no messages or timers; pending events addressed to it are
    /// dropped at delivery time.
    ///
    /// Note that flipping a node back up this way does **not** re-run
    /// [`Protocol::on_start`], so periodic timers stay dead — use
    /// [`Simulator::recover_node`] for a crash-recovery that re-arms them.
    pub fn set_down(&mut self, node: NodeId, down: bool) {
        self.net.down[node.0] = down;
    }

    /// Whether `node` is currently crashed.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.net.down[node.0]
    }

    /// Crashes `node`: from now until recovery it receives no messages and
    /// none of its timers fire (they are silently discarded when they come
    /// due). Protocol state is preserved in place. No-op if already down.
    pub fn crash_node(&mut self, node: NodeId) {
        self.net.down[node.0] = true;
    }

    /// Recovers a crashed node with its protocol state intact (a process
    /// restart on a machine whose disk survived). [`Protocol::on_start`]
    /// runs again so periodic timers — all lost while down — are re-armed.
    /// No-op if the node is not down.
    pub fn recover_node(&mut self, node: NodeId) {
        if !self.net.down[node.0] {
            return;
        }
        self.net.down[node.0] = false;
        self.with_node_ctx(node, |p, ctx| p.on_start(ctx));
    }

    /// Recovers a crashed node with its state wiped: `fresh` replaces the
    /// old protocol instance (a machine rebuilt from nothing) and
    /// [`Protocol::on_start`] runs on it. Works whether or not the node is
    /// currently down.
    pub fn recover_node_wiped(&mut self, node: NodeId, fresh: P) {
        self.nodes[node.0] = fresh;
        self.net.down[node.0] = false;
        self.with_node_ctx(node, |p, ctx| p.on_start(ctx));
    }

    /// Sets the independent per-message drop probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn set_drop_prob(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.net.drop_prob = p;
    }

    /// The current independent per-message drop probability.
    pub fn drop_prob(&self) -> f64 {
        self.net.drop_prob
    }

    /// Sets the drop probability of the single (bidirectional) link between
    /// `a` and `b`, independent of the global [`Simulator::set_drop_prob`]
    /// coin. `p = 0.0` restores the link. Models a flapping or lossy link
    /// without disturbing the rest of the mesh.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn set_link_drop(&mut self, a: NodeId, b: NodeId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let key = (a.0.min(b.0), a.0.max(b.0));
        if p == 0.0 {
            self.net.link_drops.remove(&key);
        } else {
            self.net.link_drops.insert(key, p);
        }
    }

    /// The drop probability of the link between `a` and `b` (0.0 unless
    /// overridden via [`Simulator::set_link_drop`]).
    pub fn link_drop(&self, a: NodeId, b: NodeId) -> f64 {
        let key = (a.0.min(b.0), a.0.max(b.0));
        self.net.link_drops.get(&key).copied().unwrap_or(0.0)
    }

    /// Degrades (factor > 1) or restores (factor = 1) every link: message
    /// latencies are multiplied by `factor` at send time.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and positive.
    pub fn set_latency_factor(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "latency factor must be positive");
        self.net.latency_factor = factor;
    }

    /// The current link-latency multiplier.
    pub fn latency_factor(&self) -> f64 {
        self.net.latency_factor
    }

    /// Installs a network partition: messages are delivered only within a
    /// group. `None` heals all partitions.
    ///
    /// # Panics
    ///
    /// Panics if the group vector length differs from the node count.
    pub fn set_partitions(&mut self, groups: Option<Vec<u32>>) {
        if let Some(g) = &groups {
            assert_eq!(g.len(), self.nodes.len(), "one group per node");
        }
        self.net.partitions = groups;
    }

    /// Injects a message from the outside world (e.g. a test driver acting
    /// as a client) for delivery to `to` at the current time, attributed to
    /// `from`. It bypasses routing: no accounting, no drop verdict.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        let at = self.clock.as_micros();
        let dom = &mut self.part.domains[self.part.of_node[from.0] as usize];
        dom.emissions.push(Emission::Park { to, at, body: Payload::One(msg) });
        dom.close_record((at, 0), from, 0);
        self.commit_window();
    }

    /// Lets external code act *as* `node`: the closure receives the
    /// protocol and a live [`Context`], so stimulus goes through the same
    /// send/timer path as real events.
    pub fn with_node_ctx<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>) -> R,
    ) -> R {
        // A dispatch in a window that executes nothing: every emission
        // parks and takes its real seq in the commit. The record is the
        // commit's only one, so its key's seq orders against nothing.
        let key = (self.clock.as_micros(), 0);
        let d = self.part.of_node[node.0] as usize;
        self.on_domain(d, (0, 0), |job, env| dispatch_window(job, env, key, node, f))
    }

    /// Runs a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, seq, d)) = self.part.earliest() else {
            return false;
        };
        // A window that ends right after that one key: whatever the event
        // emits is keyed later and parks.
        self.on_domain(d, (at, seq + 1), |job, env| run_domain_window(job, env));
        true
    }

    /// Runs until the event queue drains. Returns the number of events
    /// processed by this call.
    ///
    /// # Panics
    ///
    /// Panics after `max_events` events as a runaway-protocol guard.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        let start = self.events_processed;
        while self.step() {
            assert!(
                self.events_processed - start <= max_events,
                "simulation exceeded {max_events} events without quiescing"
            );
        }
        self.events_processed - start
    }

    /// Runs events with timestamps `<= until`, leaving later events queued.
    /// The clock is advanced to `until` even if the queue drains early.
    ///
    /// Repeatedly picks the global minimum next-event time `t`, lets every
    /// domain run independently inside `[t, t + lookahead)`, then commits
    /// the window. One domain has no crossing link, hence no lookahead
    /// to respect: its windows are `UNBOUNDED_WINDOW_SPAN` long. The
    /// observable schedule is bit-identical at any thread count.
    pub fn run_until(&mut self, until: SimTime) {
        let bound = until.as_micros();
        let timed = self.threads > 1;
        let epoch_start = timed.then(Instant::now);
        let events_before = self.events_processed;
        // Scale the lookahead exactly like message routing scales latency:
        // rounding is monotone, so the scaled bound is still a valid lower
        // bound on cross-domain delivery delay.
        let lookahead = match self.base_lookahead {
            u64::MAX => UNBOUNDED_WINDOW_SPAN,
            base => self.net.scaled(SimDuration::from_micros(base)).as_micros(),
        };
        // A zero-latency crossing link means no safe window: this run
        // collapses to one domain, which needs no lookahead.
        let fallback = lookahead == 0;
        let (count, span) =
            if fallback { (1, UNBOUNDED_WINDOW_SPAN) } else { (self.domains, lookahead) };
        self.repartition(count);
        while let Some((t, _, _)) = self.part.earliest() {
            if t > bound {
                break;
            }
            // `bound + 1` because the window is half-open while `bound` is
            // inclusive (run events with `at <= bound`).
            let window_end = t.saturating_add(span).min(bound.saturating_add(1));
            self.run_window((window_end, 0));
            let serial_start = timed.then(Instant::now);
            self.commit_window();
            if let Some(s) = serial_start {
                self.coverage.serial_nanos += s.elapsed().as_nanos() as u64;
            }
        }
        for acc in &mut self.part.accumulators {
            if !acc.is_untouched() {
                self.stats.merge(acc);
                acc.clear_for_reuse();
            }
        }
        if fallback {
            self.coverage.fallback_entries += 1;
            self.coverage.fallback_events += self.events_processed - events_before;
        }
        if let Some(s) = epoch_start {
            self.coverage.epoch_nanos += s.elapsed().as_nanos() as u64;
        }
        self.clock = self.clock.max(until);
    }

    /// Runs for a span of simulated time from the current clock.
    pub fn run_for(&mut self, d: SimDuration) {
        let until = self.clock + d;
        self.run_until(until);
    }

    /// Total events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of events currently queued (deliveries and timers).
    pub fn pending_events(&self) -> usize {
        self.part.domains.iter().map(Domain::pending).sum()
    }

    /// The configured thread count (1 = one domain, no worker threads).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The domain `node` currently lives in (contiguous blocks; see
    /// `contiguous_domains`). Exposed for tests and diagnostics.
    pub fn domain_of(&self, node: NodeId) -> u32 {
        self.part.of_node[node.0]
    }

    /// Re-partitions into `count` domains, moving every pending delivery,
    /// timer and link counter to its new home. Seqs travel with their keys,
    /// so the merged `(at, seq)` order is untouched. No-op when the
    /// partition already has `count` domains.
    fn repartition(&mut self, count: usize) {
        if count == self.part.domains.len() {
            return;
        }
        let mut next = Partition::new(self.nodes.len(), count, self.clock.as_micros());
        for mut dom in std::mem::take(&mut self.part.domains) {
            debug_assert!(dom.records.is_empty(), "re-partition only between windows");
            for (at, seq, body) in dom.queue.drain() {
                next.domains[next.of_node[body.to.0] as usize].queue.push(at, seq, body);
            }
            for (at, seq, (node, timer)) in dom.timers.drain() {
                next.domains[next.of_node[node.0] as usize].timers.push(at, seq, (node, timer));
            }
            // Drop counters live with the *sender*: every attempt on a
            // directed link happens while its source node dispatches.
            for ((from, to), c) in dom.link_ctrs.drain() {
                next.domains[next.of_node[from as usize] as usize].link_ctrs.insert((from, to), c);
            }
        }
        self.part = next;
    }
}

/// Worker threads move protocol state and messages across threads, hence
/// the bounds. A `Simulator` whose protocol is not `Send` simply never
/// gains `set_threads` and keeps its one domain on the driver thread.
impl<P> Simulator<P>
where
    P: Protocol + Send,
    P::Msg: Send + Sync,
{
    /// Sets the thread count for [`Simulator::run_until`] /
    /// [`Simulator::run_for`]. Above one thread the node set is
    /// re-partitioned into `DOMAINS_PER_THREAD` domains per thread (at most
    /// one per node), one window job each, which the threads pull from a
    /// shared queue; one thread keeps one domain.
    ///
    /// The observable schedule — traces, stats, fingerprints, RNG streams —
    /// is bit-identical at every thread count; threads only change
    /// wall-clock time. Counts above the node count are capped.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn set_threads(&mut self, threads: usize) {
        assert!(threads >= 1, "thread count must be at least 1");
        // A fn pointer, so the unbounded `run_window` can spawn without
        // carrying these bounds itself.
        self.run_jobs = Some(run_jobs_scoped::<P>);
        let n = self.nodes.len();
        let threads = threads.min(n.max(1));
        if threads == self.threads {
            return;
        }
        let lookahead = |count| {
            self.net
                .topo
                .min_cross_group_latency(&contiguous_domains(n, count))
                .map_or(u64::MAX, |l| l.as_micros())
        };
        let finer = if threads > 1 { (threads * DOMAINS_PER_THREAD).min(n) } else { 1 };
        let (coarse_lookahead, finer_lookahead) = (lookahead(threads), lookahead(finer));
        // A finer cut crosses more links. If one of them is faster, it
        // would shorten every window: keep one domain per thread instead.
        (self.domains, self.base_lookahead) = if finer_lookahead < coarse_lookahead {
            (threads, coarse_lookahead)
        } else {
            (finer, finer_lookahead)
        };
        self.threads = threads;
        self.repartition(self.domains);
    }
}
