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
//! of nodes with its own delivery queue and timer wheel): the domain
//! executes its events in `(at, seq)` order up to the window's end key,
//! logs what they emit, and a commit replays the logs in global dispatch
//! order to hand out the real seqs. With one domain — the default —
//! nothing bounds a window and `run_until` cuts its span into fixed-length
//! ones; with `set_threads(n)` the same loop runs `n` domains per window
//! under a conservative lookahead.
//! [`Simulator::step`] is a window that ends right after one key, and
//! external stimulus ([`Simulator::start`], [`Simulator::with_node_ctx`],
//! [`Simulator::inject`]) is a dispatch whose window executes nothing, so
//! everything it emits parks for the commit. There is no second loop: the
//! schedule is the same at every thread count by construction.
//!
//! # Hot-path structure
//!
//! Four things keep the event loop cheap without changing its observable
//! order (a single global `(at, seq)` sequence, `seq` assigned in emission
//! order):
//!
//! * **Arc multicast** — [`Context::broadcast`] queues one allocation for n
//!   recipients; each delivery borrows the shared payload through
//!   [`Protocol::on_message_ref`] (the last one gets it by value for free),
//!   and its byte accounting is folded into one
//!   [`NetStats::record_multicast`] batch instead of n counter updates.
//! * **Timer wheel** — timers live in a hierarchical wheel
//!   ([`crate::wheel`]) instead of the delivery heap; a domain pops the
//!   `(at, seq)` minimum across both structures, which is exactly the order
//!   a single heap would produce.
//! * **Key-slab delivery queue** — the heap sifts compact 24-byte
//!   `(at, seq, slab)` keys while the fat delivery bodies (sender,
//!   destination, payload) sit still in a slab with a free list, so every
//!   sift-up/sift-down moves three words instead of a whole `Event`.
//! * **Pooled action buffers** — every callback writes into one reusable
//!   `Vec<Action>` owned by its domain rather than a fresh allocation per
//!   dispatch.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::stats::{DropCause, NetStats};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, Topology};
use crate::wheel::{TimerEntry, TimerWheel};

/// A protocol message that can travel over the simulated network.
pub trait Message: Clone {
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

    /// Called when a timer set through [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_, Self::Msg>, _tag: u64) {}
}

/// What a protocol may do in reaction to an event.
#[derive(Debug)]
enum Action<M> {
    Send { to: NodeId, msg: M },
    Multicast { to: Vec<NodeId>, msg: Arc<M> },
    Timer { delay: SimDuration, tag: u64 },
    Count { name: &'static str, n: u64 },
}

/// Handle given to protocol callbacks for interacting with the simulated
/// world.
#[derive(Debug)]
pub struct Context<'a, M> {
    now: SimTime,
    node: NodeId,
    actions: &'a mut Vec<Action<M>>,
    rng: &'a mut ChaCha8Rng,
}

impl<M> Context<'_, M> {
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

    /// Schedules [`Protocol::on_timer`] with `tag` after `delay`.
    ///
    /// Timers cannot be cancelled; protocols should treat stale timers as
    /// no-ops based on their own state.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.actions.push(Action::Timer { delay, tag });
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
    /// every send with `wrap` so it travels as this protocol's `M`. Timers
    /// pass through unchanged — composite protocols must partition the tag
    /// space between layers.
    ///
    /// This is how a composite node (e.g. an OceanStore server) hosts a
    /// self-contained state machine (e.g. a PBFT replica) without the inner
    /// machine knowing about the envelope type.
    pub fn with_inner<N: Clone, R>(
        &mut self,
        wrap: impl Fn(N) -> M,
        f: impl FnOnce(&mut Context<'_, N>) -> R,
    ) -> R {
        self.with_inner_mapped(wrap, |t| t, f)
    }

    /// Like [`Context::with_inner`], additionally rewriting timer tags the
    /// embedded protocol sets through `tag_map`. A composite node hosting
    /// several timer-using subsystems namespaces their tags this way (and
    /// inverts the map in its own `on_timer`).
    pub fn with_inner_mapped<N: Clone, R>(
        &mut self,
        wrap: impl Fn(N) -> M,
        tag_map: impl Fn(u64) -> u64,
        f: impl FnOnce(&mut Context<'_, N>) -> R,
    ) -> R {
        let mut inner_actions: Vec<Action<N>> = Vec::new();
        let r = {
            let mut inner = Context {
                now: self.now,
                node: self.node,
                actions: &mut inner_actions,
                rng: self.rng,
            };
            f(&mut inner)
        };
        for action in inner_actions {
            match action {
                Action::Send { to, msg } => self.actions.push(Action::Send { to, msg: wrap(msg) }),
                Action::Multicast { to, msg } => {
                    let inner_msg = Arc::unwrap_or_clone(msg);
                    self.actions.push(Action::Multicast { to, msg: Arc::new(wrap(inner_msg)) });
                }
                Action::Timer { delay, tag } => {
                    self.actions.push(Action::Timer { delay, tag: tag_map(tag) })
                }
                Action::Count { name, n } => self.actions.push(Action::Count { name, n }),
            }
        }
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

/// Heap key of one pending delivery: `(at µs, seq, slab index)`. Wrapped in
/// [`Reverse`] so the `BinaryHeap` max-heap pops the earliest `(at, seq)`
/// first, ties broken by insertion order for determinism. Seqs are unique,
/// so the slab index never participates in an ordering decision.
type DeliveryKey = Reverse<(u64, u64, u32)>;

/// The fat part of a pending delivery, parked in the delivery slab while
/// its compact [`DeliveryKey`] sifts through the heap.
#[derive(Debug)]
struct DeliveryBody<M> {
    from: NodeId,
    to: NodeId,
    msg: Payload<M>,
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
/// worker a disjoint `&mut` slice of the node and RNG vectors.
pub(crate) fn contiguous_domains(n: usize, count: usize) -> Vec<u32> {
    domain_sizes(n, count)
        .enumerate()
        .flat_map(|(d, size)| std::iter::repeat_n(d as u32, size))
        .collect()
}

/// SplitMix64 finalizer: a cheap, statistically strong 64-bit mixer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain-separation salts so the global-probability coin and the per-link
/// flap coin of the same routing attempt are independent draws.
const DROP_SALT_RANDOM: u64 = 0x9E6C_63D0_985E_E21B;
const DROP_SALT_FLAP: u64 = 0x517C_C1B7_2722_0A95;

/// One counter-mode drop coin in `[0, 1)`: a splitmix-style hash of
/// `(drop seed, directed link, attempt counter, salt)` widened to the same
/// 53-bit-mantissa uniform float `rand` produces. A pure function of the
/// routing attempt's identity — no shared RNG stream, so the verdict is
/// independent of evaluation order and thread count.
fn drop_coin(drop_seed: u64, link: (u32, u32), ctr: u64, salt: u64) -> f64 {
    let mut h = mix64(drop_seed ^ salt ^ ((u64::from(link.0) << 32) | u64::from(link.1)));
    h = mix64(h ^ ctr);
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The counter-mode drop decision for one routing attempt from `from` to
/// `to`. Bumps the directed-link attempt counter once iff any coin is live
/// (global `drop_prob` or a per-link override), so drop-free runs never
/// touch `ctrs` and their schedules stay byte-identical to a build without
/// this machinery. Counters are keyed by the *directed* link: every attempt
/// on `from → to` happens while dispatching `from`, i.e. inside `from`'s
/// domain, so a directed counter advances in domain-local order — which for
/// a single sender is exactly the global dispatch order restricted to its
/// dispatches. (An undirected key would be shared by two domains and race.)
fn counter_drop(
    ctrs: &mut HashMap<(u32, u32), u64>,
    net: &Network,
    from: NodeId,
    to: NodeId,
) -> Option<DropCause> {
    let link_p = if net.link_drops.is_empty() {
        None
    } else {
        net.link_drops.get(&(from.0.min(to.0), from.0.max(to.0))).copied()
    };
    if net.drop_prob == 0.0 && link_p.is_none() {
        return None;
    }
    let link = (from.0 as u32, to.0 as u32);
    let ctr = ctrs.entry(link).or_insert(0);
    let attempt = *ctr;
    *ctr += 1;
    if net.drop_prob > 0.0
        && drop_coin(net.drop_seed, link, attempt, DROP_SALT_RANDOM) < net.drop_prob
    {
        return Some(DropCause::Random);
    }
    if let Some(p) = link_p {
        if drop_coin(net.drop_seed, link, attempt, DROP_SALT_FLAP) < p {
            return Some(DropCause::LinkFlap);
        }
    }
    None
}

/// Marks a *provisional* seq: the key of an event that was emitted and
/// executed inside one window, numbered `PROVISIONAL | k` in its domain's
/// emission order until the commit assigns the real seq. Real seqs never
/// reach this bit, so a provisional key sorts after every real key of the
/// same instant — exactly where a freshly assigned seq would.
const PROVISIONAL: u64 = 1 << 63;

/// One *seq-consuming* emission logged by a window dispatch, in action
/// order, replayed at the commit to assign real seqs in global dispatch
/// order. Dropped sends consume no seq and are tallied in the job's stats,
/// so they produce no entry; multicasts are flattened to one entry per
/// surviving recipient (byte accounting for the whole fan-out also happens
/// at dispatch).
#[derive(Debug)]
enum Emission<M> {
    /// Executed inside this window under a provisional key: consumes one
    /// real seq at commit.
    Exec,
    /// A delivery that survives the window (cross-domain, or keyed past the
    /// window end): enqueued into the target domain at commit with its real
    /// seq.
    Park { to: NodeId, at: u64, body: Payload<M> },
    /// A timer keyed past the window end: inserted into this domain's wheel
    /// at commit with its real seq.
    ArmTimer { at: u64, tag: u64 },
}

/// One window dispatch that emitted something: the dispatched event's key
/// (provisional iff the [`PROVISIONAL`] bit is set) plus its slice of the
/// domain's emission log. Zero-emission dispatches need no record — they
/// consume no seqs and nothing downstream orders against them.
#[derive(Debug, Clone, Copy)]
struct DispatchRecord {
    at: u64,
    seq: u64,
    node: u32,
    emi: u32,
    emi_len: u32,
}

/// One spatial domain of the scheduler: a contiguous node block with its
/// own delivery queue, slab, and timer wheel, plus the per-window logs the
/// commit consumes.
struct Domain<M> {
    /// First node id in this domain's contiguous block.
    base: usize,
    /// One-past-last node id.
    end: usize,
    queue: BinaryHeap<DeliveryKey>,
    /// Delivery bodies indexed by the key's slab slot; `None` marks a free
    /// slot awaiting reuse through `free`.
    slab: Vec<Option<DeliveryBody<M>>>,
    /// Free slots in `slab`, reused LIFO for cache locality.
    free: Vec<u32>,
    wheel: TimerWheel,
    /// Dispatches with emissions, in domain execution order.
    records: Vec<DispatchRecord>,
    /// Flat emission log; records hold ranges into it.
    emissions: Vec<Emission<M>>,
    /// Attempt counters of the directed links whose source node lives in
    /// this domain, backing [`counter_drop`] without locks.
    link_ctrs: HashMap<(u32, u32), u64>,
    /// Events executed since the last commit.
    events_processed: u64,
    /// Count of in-window executed emissions since the last commit: the
    /// k-th one runs under key `PROVISIONAL | k`.
    provisional: u64,
    /// Time (µs) of the last event this domain executed.
    now: u64,
    /// Reusable action buffer for this domain's dispatches.
    actions: Vec<Action<M>>,
}

impl<M> Domain<M> {
    fn new(base: usize, end: usize, now: u64) -> Self {
        let mut wheel = TimerWheel::new();
        wheel.advance(now);
        Domain {
            base,
            end,
            queue: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            wheel,
            records: Vec::new(),
            emissions: Vec::new(),
            link_ctrs: HashMap::new(),
            events_processed: 0,
            provisional: 0,
            now,
            actions: Vec::new(),
        }
    }

    /// Parks `body` in the slab (reusing a free slot LIFO) and queues its
    /// compact key.
    fn push_with_seq(&mut self, at: u64, seq: u64, body: DeliveryBody<M>) {
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slab[slot as usize].is_none());
                self.slab[slot as usize] = Some(body);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len())
                    .expect("more than u32::MAX simultaneous in-flight deliveries");
                self.slab.push(Some(body));
                slot
            }
        };
        self.queue.push(Reverse((at, seq, slot)));
    }

    fn pending(&self) -> usize {
        self.queue.len() + self.wheel.len()
    }

    /// The next-event decision: the `(at, seq)` minimum across the delivery
    /// queue and the timer wheel. Seqs are unique across both sources, so
    /// the two never tie. Returns `(at, seq, take_timer)`.
    fn peek_next(&mut self) -> Option<(u64, u64, bool)> {
        let msg = self.queue.peek().map(|&Reverse((at, seq, _))| (at, seq));
        match (msg, self.wheel.peek()) {
            (None, None) => None,
            (Some((at, seq)), None) => Some((at, seq, false)),
            (Some(m), Some(t)) if m < t => Some((m.0, m.1, false)),
            (_, Some((at, seq))) => Some((at, seq, true)),
        }
    }

    /// Claims the next provisional seq for an own emission landing at `at`
    /// if that key still falls inside the window (and so executes before
    /// the commit); `None` means the emission must park.
    fn claim_in_window(&mut self, env: &WindowEnv<'_>, at: u64) -> Option<u64> {
        let seq = PROVISIONAL | self.provisional;
        ((at, seq) < env.end).then(|| {
            self.provisional += 1;
            self.emissions.push(Emission::Exec);
            seq
        })
    }

    /// Closes the dispatch record of the event keyed `key` on `node`, whose
    /// emissions start at log index `emi`.
    fn close_record(&mut self, key: (u64, u64), node: NodeId, emi: u32) {
        let emi_len = self.emissions.len() as u32 - emi;
        if emi_len > 0 {
            self.records.push(DispatchRecord {
                at: key.0,
                seq: key.1,
                node: node.0 as u32,
                emi,
                emi_len,
            });
        }
    }
}

/// The live partition of the node set into domains. One domain unless
/// [`Simulator::set_threads`] asked for more.
struct Partition<M> {
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

impl<M> Partition<M> {
    /// An empty `count`-way partition of `n` nodes whose wheels start at
    /// `now` µs.
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
    fn earliest(&mut self) -> Option<(u64, u64, usize)> {
        self.domains
            .iter_mut()
            .enumerate()
            .filter_map(|(d, dom)| dom.peek_next().map(|(at, seq, _)| (at, seq, d)))
            .min()
    }
}

/// Reusable state of one commit: per-domain record cursors, the loser tree
/// and its external keys, and the provisional→real seq tables.
#[derive(Default)]
struct MergeScratch {
    /// Next unmerged record index per domain.
    heads: Vec<usize>,
    /// Resolved `(at, seq)` merge key of each domain's head record;
    /// `None` = run exhausted.
    keys: Vec<Option<(u64, u64)>>,
    tree: LoserTree,
    /// `real_of[d][k]` = real seq of domain d's k-th executed emission.
    real_of: Vec<Vec<u64>>,
}

/// Tournament loser tree over `k` sorted runs, keyed externally through a
/// `keys` slice (`None` = exhausted = +infinity; live keys never tie, since
/// seqs are unique — the leaf index breaks `None` ties determinstically).
/// Slot 0 holds the overall winner and internal slots `1..k` hold match
/// losers, with leaf `d` conceptually at heap slot `k + d`. After the
/// winner's run advances, only its leaf-to-root path replays: `O(log k)`
/// comparisons per pop instead of an `O(k)` head scan per record.
#[derive(Default)]
struct LoserTree {
    node: Vec<u32>,
    k: usize,
}

/// Whether leaf `a`'s key beats (merges before) leaf `b`'s.
fn leaf_beats(keys: &[Option<(u64, u64)>], a: usize, b: usize) -> bool {
    match (&keys[a], &keys[b]) {
        (Some(x), Some(y)) => (x, a) < (y, b),
        (Some(_), None) => true,
        (None, Some(_)) => false,
        (None, None) => a < b,
    }
}

impl LoserTree {
    /// Rebuilds the tournament bottom-up for `k` runs. Heap-shaped with
    /// leaves at slots `k..2k`, which is well-formed for any `k`, not just
    /// powers of two.
    fn rebuild(&mut self, k: usize, keys: &[Option<(u64, u64)>]) {
        self.k = k;
        self.node.clear();
        if k == 1 {
            self.node.push(0);
            return;
        }
        let mut winner = vec![0u32; 2 * k];
        for d in 0..k {
            winner[k + d] = d as u32;
        }
        self.node.resize(k, 0);
        for i in (1..k).rev() {
            let (a, b) = (winner[2 * i], winner[2 * i + 1]);
            let (w, l) =
                if leaf_beats(keys, a as usize, b as usize) { (a, b) } else { (b, a) };
            winner[i] = w;
            self.node[i] = l;
        }
        self.node[0] = winner[1];
    }

    /// The leaf holding the smallest key.
    fn winner(&self) -> usize {
        self.node[0] as usize
    }

    /// Replays the matches along leaf `d`'s path after its key changed.
    fn replay(&mut self, d: usize, keys: &[Option<(u64, u64)>]) {
        if self.k == 1 {
            return;
        }
        let mut w = d as u32;
        let mut i = (self.k + d) / 2;
        while i >= 1 {
            let l = self.node[i];
            if leaf_beats(keys, l as usize, w as usize) {
                self.node[i] = w;
                w = l;
            }
            i /= 2;
        }
        self.node[0] = w;
    }
}

/// The resolved `(at, seq)` merge key of `records[head]`, `None` when the
/// run is exhausted. A provisional seq resolves through `real_of`: its
/// emitter's record sits strictly earlier in the same run (the emitter
/// dispatched first and logged at least that emission), so by the time a
/// record becomes its run's head, its entry exists.
fn head_key(records: &[DispatchRecord], head: usize, real_of: &[u64]) -> Option<(u64, u64)> {
    let r = records.get(head)?;
    let seq =
        if r.seq & PROVISIONAL != 0 { real_of[(r.seq ^ PROVISIONAL) as usize] } else { r.seq };
    Some((r.at, seq))
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

/// What every job of one window shares.
struct WindowEnv<'a> {
    net: &'a Network,
    /// Exclusive end key of the window: events keyed `(at, seq) < end`
    /// execute, and so do own emissions whose provisional key is.
    /// `(t, 0)` runs everything before time `t`; `(at, seq + 1)` runs the
    /// one event `(at, seq)`; `(0, 0)` runs nothing.
    end: (u64, u64),
}

/// One domain's share of a window: its shard, where its accounting goes,
/// and its disjoint slices of protocol state and per-node RNGs.
struct Job<'a, P: Protocol> {
    dom: &'a mut Domain<P::Msg>,
    stats: &'a mut NetStats,
    nodes: &'a mut [P],
    rngs: &'a mut [ChaCha8Rng],
}

/// How a multi-domain window's jobs are executed: inline by default,
/// on scoped threads once [`Simulator::set_threads`] has supplied the
/// `Send` bounds that needs.
type RunJobs<P> = fn(Vec<Job<'_, P>>, &WindowEnv<'_>);

/// Below this many pending events across all domains, a window runs inline
/// on the driver thread: results are identical either way (domains are
/// independent within a window), so threads are only worth their spawn cost
/// when the window carries real work.
const PARALLEL_SPAWN_THRESHOLD: usize = 64;

/// Span (µs of simulated time) of a window nothing bounds — one domain, or
/// domains no link crosses. Any span is safe there; this one keeps a
/// window's emission log cache-sized instead of letting a long `run_until`
/// log every event it executes before the first commit (measured on the
/// 256-node grid micro-bench: 5.0–6.0 M events/s unbounded, 6.5–6.9 M at
/// 10 ms, against ~50 ns of glue per window).
const UNBOUNDED_WINDOW_SPAN: u64 = 10_000;

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
    /// Configured worker count = domain count of the partition, except
    /// while a run is collapsed to one domain for lack of lookahead.
    threads: usize,
    /// Unscaled lookahead of the `threads`-way partition in µs: the minimum
    /// latency of a link that crosses it. `u64::MAX` when none does.
    base_lookahead: u64,
    part: Partition<P::Msg>,
    run_jobs: RunJobs<P>,
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
            base_lookahead: u64::MAX,
            part: Partition::new(n, 1, 0),
            run_jobs: run_jobs_inline::<P>,
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
    /// [`Simulator::recover_node`] for a crash-recovery that restarts the
    /// protocol's timer wheels.
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

    /// Runs `f` as the only job of a window ending at `end` — domain `d` on
    /// the driver thread, accounting straight into the global stats — and
    /// commits it.
    fn on_domain<R>(
        &mut self,
        d: usize,
        end: (u64, u64),
        f: impl FnOnce(&mut Job<'_, P>, &WindowEnv<'_>) -> R,
    ) -> R {
        let dom = &mut self.part.domains[d];
        let block = dom.base..dom.end;
        let mut job = Job {
            dom,
            stats: &mut self.stats,
            nodes: &mut self.nodes[block.clone()],
            rngs: &mut self.node_rngs[block],
        };
        let r = f(&mut job, &WindowEnv { net: &self.net, end });
        self.commit_window();
        r
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
            if fallback { (1, UNBOUNDED_WINDOW_SPAN) } else { (self.threads, lookahead) };
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
        if self.clock < until {
            self.clock = until;
            for dom in &mut self.part.domains {
                dom.wheel.advance(bound);
            }
        }
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

    /// The configured worker count (1 = one domain, no worker threads).
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
            for Reverse((at, seq, slot)) in dom.queue.drain() {
                let body =
                    dom.slab[slot as usize].take().expect("queued key points at a parked body");
                next.domains[next.of_node[body.to.0] as usize].push_with_seq(at, seq, body);
            }
            for e in dom.wheel.drain_sorted() {
                next.domains[next.of_node[e.node] as usize].wheel.insert(e);
            }
            // Drop counters live with the *sender*: every attempt on a
            // directed link happens while its source node dispatches.
            for ((from, to), c) in dom.link_ctrs.drain() {
                next.domains[next.of_node[from as usize] as usize].link_ctrs.insert((from, to), c);
            }
        }
        self.part = next;
    }

    /// Executes one window across all domains, on worker threads when
    /// there are several domains and enough work is pending. Domains are
    /// contiguous node blocks, so `split_at_mut` hands each job disjoint
    /// `&mut` slices of protocol state and per-node RNGs without any
    /// locking.
    fn run_window(&mut self, end: (u64, u64)) {
        let env = WindowEnv { net: &self.net, end };
        let part = &mut self.part;
        let spawn = part.domains.len() > 1
            && part.domains.iter().map(Domain::pending).sum::<usize>() >= PARALLEL_SPAWN_THRESHOLD;
        if spawn {
            self.coverage.windows_parallel += 1;
        } else if part.domains.len() > 1 {
            self.coverage.windows_inline += 1;
        }
        let mut jobs: Vec<Job<'_, P>> = Vec::with_capacity(part.domains.len());
        let mut nodes_rest: &mut [P] = &mut self.nodes;
        let mut rngs_rest: &mut [ChaCha8Rng] = &mut self.node_rngs;
        let stats = std::iter::once(&mut self.stats).chain(&mut part.accumulators);
        for (dom, stats) in part.domains.iter_mut().zip(stats) {
            let (nodes, nr) = nodes_rest.split_at_mut(dom.end - dom.base);
            let (rngs, rr) = rngs_rest.split_at_mut(dom.end - dom.base);
            nodes_rest = nr;
            rngs_rest = rr;
            jobs.push(Job { dom, stats, nodes, rngs });
        }
        // Tiny windows aren't worth thread wake-ups. Domains are
        // independent within a window, so inline execution produces
        // byte-identical results.
        if spawn {
            (self.run_jobs)(jobs, &env);
        } else {
            run_jobs_inline(jobs, &env);
        }
    }

    /// The window commit: replays every domain's emission log in exact
    /// global dispatch order, assigning real seqs and enqueueing surviving
    /// (cross-domain or post-window) events into their target domains. All
    /// commutative accounting — bytes, classes, drop tallies, counter
    /// events — already happened at dispatch, so the serial section here
    /// replays only the ordering-sensitive emissions.
    ///
    /// Dispatch records merge by the dispatched event's real `(at, seq)`
    /// key. A record whose key is provisional was emitted *this* window by
    /// its own domain, and its emitter's record sits earlier in the same
    /// domain's list — so by the time it reaches the merge head, its real
    /// seq is already known. Each domain's record list is already sorted
    /// (domains execute in local `(at, seq)` order), so the merge is a
    /// loser-tree tournament over the per-domain runs: `O(log D)` per
    /// record, with all scratch reused window to window. This reconstructs
    /// the one global emission order, which is what makes every thread
    /// count bit-identical.
    fn commit_window(&mut self) {
        let part = &mut self.part;
        let count = part.domains.len();
        let scratch = &mut part.merge;
        scratch.heads.clear();
        scratch.heads.resize(count, 0);
        scratch.real_of.resize_with(count, Vec::new);
        for (d, v) in scratch.real_of.iter_mut().enumerate() {
            v.clear();
            v.reserve(part.domains[d].provisional as usize);
        }
        scratch.keys.clear();
        for d in 0..count {
            scratch.keys.push(head_key(&part.domains[d].records, 0, &scratch.real_of[d]));
        }
        scratch.tree.rebuild(count, &scratch.keys);
        loop {
            let d = scratch.tree.winner();
            if scratch.keys[d].is_none() {
                break;
            }
            let r = part.domains[d].records[scratch.heads[d]];
            scratch.heads[d] += 1;
            let from = NodeId(r.node as usize);
            for i in r.emi as usize..(r.emi + r.emi_len) as usize {
                let seq = self.seq;
                self.seq += 1;
                // Taken by value, so the borrow of this domain's log ends
                // before a cross-domain park.
                match std::mem::replace(&mut part.domains[d].emissions[i], Emission::Exec) {
                    Emission::Exec => scratch.real_of[d].push(seq),
                    Emission::Park { to, at, body } => {
                        let td = part.of_node[to.0] as usize;
                        part.domains[td].push_with_seq(at, seq, DeliveryBody { from, to, msg: body });
                    }
                    Emission::ArmTimer { at, tag } => {
                        part.domains[d].wheel.insert(TimerEntry {
                            at,
                            seq,
                            node: r.node as usize,
                            tag,
                        });
                    }
                }
            }
            // Only this leaf's key can have changed: `real_of` entries for
            // other domains are appended exclusively by their own records.
            scratch.keys[d] =
                head_key(&part.domains[d].records, scratch.heads[d], &scratch.real_of[d]);
            scratch.tree.replay(d, &scratch.keys);
        }
        debug_assert!(self.seq < PROVISIONAL);
        for (d, dom) in part.domains.iter_mut().enumerate() {
            debug_assert_eq!(scratch.heads[d], dom.records.len(), "every record merged");
            debug_assert_eq!(
                dom.records.iter().map(|r| r.emi_len as usize).sum::<usize>(),
                dom.emissions.len(),
                "every emission replayed"
            );
            dom.records.clear();
            dom.emissions.clear();
            self.events_processed += dom.events_processed;
            dom.events_processed = 0;
            dom.provisional = 0;
            self.clock = self.clock.max(SimTime::ZERO + SimDuration::from_micros(dom.now));
        }
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
    /// Sets the worker-thread count for [`Simulator::run_until`] /
    /// [`Simulator::run_for`]: the node set is re-partitioned into that
    /// many domains, one window job each.
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
        self.threads = threads.min(self.nodes.len().max(1));
        self.repartition(self.threads);
        self.base_lookahead = self
            .net
            .topo
            .min_cross_group_latency(&self.part.of_node)
            .map_or(u64::MAX, |l| l.as_micros());
        // A fn pointer, so the unbounded `run_window` can spawn without
        // carrying these bounds itself.
        self.run_jobs = run_jobs_scoped::<P>;
    }
}

fn run_jobs_inline<P: Protocol>(jobs: Vec<Job<'_, P>>, env: &WindowEnv<'_>) {
    for mut job in jobs {
        run_domain_window(&mut job, env);
    }
}

fn run_jobs_scoped<P>(jobs: Vec<Job<'_, P>>, env: &WindowEnv<'_>)
where
    P: Protocol + Send,
    P::Msg: Send + Sync,
{
    std::thread::scope(|s| {
        let mut jobs = jobs.into_iter();
        let first = jobs.next();
        for mut job in jobs {
            s.spawn(move || run_domain_window(&mut job, env));
        }
        // The driver thread works the first domain instead of idling at
        // the join.
        if let Some(mut job) = first {
            run_domain_window(&mut job, env);
        }
    });
}

/// One domain's event loop for one window: run every local event keyed
/// before `env.end` in `(at, seq)` order, logging emissions for the commit
/// instead of touching global state.
fn run_domain_window<P: Protocol>(job: &mut Job<'_, P>, env: &WindowEnv<'_>) {
    while let Some((at, seq, take_timer)) = job.dom.peek_next() {
        if (at, seq) >= env.end {
            return;
        }
        debug_assert!(at >= job.dom.now, "time must be monotonic");
        job.dom.now = at;
        job.dom.events_processed += 1;
        if take_timer {
            let entry = job.dom.wheel.pop_earliest().expect("peeked");
            if !env.net.down[entry.node] {
                dispatch_window(job, env, (at, seq), NodeId(entry.node), |p, ctx| {
                    p.on_timer(ctx, entry.tag)
                });
            }
        } else {
            let Reverse((_, _, slot)) = job.dom.queue.pop().expect("peeked");
            let DeliveryBody { from, to, msg } =
                job.dom.slab[slot as usize].take().expect("queued key points at a parked body");
            job.dom.free.push(slot);
            // Timers armed by this delivery's handler must be placeable
            // relative to the new local time.
            job.dom.wheel.advance(at);
            if env.net.down[to.0] {
                job.stats.record_drop(DropCause::NodeDown);
                continue;
            }
            // The last recipient of a multicast owns the payload outright;
            // earlier ones borrow it.
            let msg = match msg {
                Payload::One(msg) => Ok(msg),
                Payload::Shared(arc) => Arc::try_unwrap(arc),
            };
            dispatch_window(job, env, (at, seq), to, |p, ctx| match msg {
                Ok(msg) => p.on_message(ctx, from, msg),
                Err(arc) => p.on_message_ref(ctx, from, &arc),
            });
        }
    }
}

/// Runs one handler — the event keyed `key`, on `node` — and routes what it
/// emits. Own emissions keyed inside the window execute in it under
/// provisional seqs (`PROVISIONAL | k`, `k` counting only executed
/// emissions in this domain); everything else parks for the commit. The
/// provisional numbering preserves the domain-local relative order of the
/// global sequence, and the commit replay rewrites it into that sequence.
fn dispatch_window<P: Protocol, R>(
    job: &mut Job<'_, P>,
    env: &WindowEnv<'_>,
    key: (u64, u64),
    node: NodeId,
    f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>) -> R,
) -> R {
    let (dom, stats) = (&mut *job.dom, &mut *job.stats);
    let now = SimTime::ZERO + SimDuration::from_micros(key.0);
    let mut actions = std::mem::take(&mut dom.actions);
    debug_assert!(actions.is_empty());
    let r = {
        let local = node.0 - dom.base;
        let mut ctx = Context { now, node, actions: &mut actions, rng: &mut job.rngs[local] };
        f(&mut job.nodes[local], &mut ctx)
    };
    let emi = dom.emissions.len() as u32;
    for action in actions.drain(..) {
        match action {
            // Accounting happens at send time: bytes hit the wire even when
            // the message is then dropped or the destination proves dead.
            Action::Send { to, msg } => {
                stats.record_send(node, to, msg.wire_size(), msg.class());
                window_route(dom, stats, env, node, to, now, Payload::One(msg));
            }
            Action::Multicast { to, msg } => {
                // One aggregated accounting entry for the whole fan-out;
                // the per-recipient loop then only decides delivery. The
                // counter totals are identical to per-recipient
                // `record_send` calls, so stats fingerprints don't move.
                stats.record_multicast(node, &to, msg.wire_size(), msg.class());
                for &t in &to {
                    window_route(dom, stats, env, node, t, now, Payload::Shared(Arc::clone(&msg)));
                }
            }
            Action::Timer { delay, tag } => {
                let at = (now + delay).as_micros();
                match dom.claim_in_window(env, at) {
                    Some(seq) => dom.wheel.insert(TimerEntry { at, seq, node: node.0, tag }),
                    None => dom.emissions.push(Emission::ArmTimer { at, tag }),
                }
            }
            Action::Count { name, n } => stats.record_event(name, n),
        }
    }
    dom.actions = actions;
    dom.close_record(key, node, emi);
    r
}

/// The delivery decision for one recipient — byte accounting already
/// happened: partition check, counter-mode drop coins (against this
/// domain's link counters — the sender always lives here), reachability,
/// then latency. Which attempts bump a link's drop counter, and in what
/// per-link order, is part of the determinism contract. Drops tally into
/// `stats` and log nothing; a surviving recipient logs exactly one
/// seq-consuming [`Emission`].
fn window_route<M>(
    dom: &mut Domain<M>,
    stats: &mut NetStats,
    env: &WindowEnv<'_>,
    from: NodeId,
    to: NodeId,
    now: SimTime,
    msg: Payload<M>,
) {
    if let Some(groups) = &env.net.partitions {
        if groups[from.0] != groups[to.0] {
            stats.record_drop(DropCause::Partition);
            return;
        }
    }
    if let Some(cause) = counter_drop(&mut dom.link_ctrs, env.net, from, to) {
        stats.record_drop(cause);
        return;
    }
    let Some(latency) = env.net.topo.dist(from, to) else {
        stats.record_drop(DropCause::Unreachable);
        return;
    };
    let at = (now + env.net.scaled(latency)).as_micros();
    let intra = dom.base <= to.0 && to.0 < dom.end;
    // The lookahead guarantee: a cross-domain delivery can never land
    // inside the window that produced it.
    debug_assert!(intra || at >= env.end.0, "cross-domain send violates lookahead");
    let claimed = if intra { dom.claim_in_window(env, at) } else { None };
    match claimed {
        Some(seq) => dom.push_with_seq(at, seq, DeliveryBody { from, to, msg }),
        None => dom.emissions.push(Emission::Park { to, at, body: msg }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Toy protocol: floods a counter token around the ring `rounds` times.
    #[derive(Debug)]
    struct RingToken {
        id: usize,
        n: usize,
        rounds_left: u32,
        seen: u32,
    }

    #[derive(Debug, Clone)]
    struct Token(u32);

    impl Message for Token {
        fn wire_size(&self) -> usize {
            16
        }
        fn class(&self) -> &'static str {
            "token"
        }
    }

    impl Protocol for RingToken {
        type Msg = Token;

        fn on_start(&mut self, ctx: &mut Context<'_, Token>) {
            if self.id == 0 {
                ctx.send(NodeId(1 % self.n), Token(self.rounds_left));
            }
        }

        fn on_message(&mut self, ctx: &mut Context<'_, Token>, _from: NodeId, msg: Token) {
            self.seen += 1;
            let next = NodeId((self.id + 1) % self.n);
            if self.id == 0 {
                if msg.0 > 1 {
                    ctx.send(next, Token(msg.0 - 1));
                }
            } else {
                ctx.send(next, msg);
            }
        }
    }

    fn ring_sim(n: usize, rounds: u32, seed: u64) -> Simulator<RingToken> {
        let topo = crate::topology::Topology::ring(n, SimDuration::from_millis(10));
        let nodes = (0..n)
            .map(|id| RingToken { id, n, rounds_left: rounds, seen: 0 })
            .collect();
        Simulator::new(topo, nodes, seed)
    }

    #[test]
    fn token_circulates_and_time_advances() {
        let mut sim = ring_sim(5, 3, 1);
        sim.start();
        sim.run_to_quiescence(10_000);
        // 3 full rounds of 5 hops = 15 deliveries, 10 ms each.
        assert_eq!(sim.now().as_millis(), 150);
        for i in 0..5 {
            assert_eq!(sim.node(NodeId(i)).seen, 3, "node {i}");
        }
        assert_eq!(sim.stats().class("token").messages, 15);
        assert_eq!(sim.stats().total_bytes(), 15 * 16);
    }

    #[test]
    fn determinism_across_runs() {
        let run = |seed| {
            let mut sim = ring_sim(7, 4, seed);
            sim.start();
            sim.run_to_quiescence(10_000);
            (sim.now(), sim.stats().total_messages(), sim.events_processed())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn down_node_breaks_the_ring() {
        let mut sim = ring_sim(5, 3, 1);
        sim.set_down(NodeId(3), true);
        sim.start();
        sim.run_to_quiescence(10_000);
        // Token dies at node 3: nodes 1..=2 saw it once, 4 never.
        assert_eq!(sim.node(NodeId(1)).seen, 1);
        assert_eq!(sim.node(NodeId(2)).seen, 1);
        assert_eq!(sim.node(NodeId(4)).seen, 0);
        assert_eq!(sim.stats().dropped_messages(), 1);
        assert_eq!(sim.stats().dropped_by_cause(DropCause::NodeDown), 1);
        assert_eq!(sim.stats().dropped_by_cause(DropCause::Random), 0);
    }

    #[test]
    fn drops_are_attributed_to_their_cause() {
        let mut sim = ring_sim(4, 1, 1);
        sim.set_partitions(Some(vec![0, 1, 1, 1]));
        sim.start();
        sim.run_to_quiescence(10_000);
        assert_eq!(sim.stats().dropped_by_cause(DropCause::Partition), 1);

        let mut sim = ring_sim(4, 1, 1);
        sim.set_drop_prob(1.0);
        sim.start();
        sim.run_to_quiescence(10_000);
        assert_eq!(sim.stats().dropped_by_cause(DropCause::Random), 1);
    }

    #[test]
    fn crash_preserves_state_and_recover_restarts() {
        let mut sim = ring_sim(5, 3, 1);
        sim.start();
        // Let the token pass node 2 once, then crash it.
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(25));
        assert_eq!(sim.node(NodeId(2)).seen, 1);
        sim.crash_node(NodeId(2));
        assert!(sim.is_down(NodeId(2)));
        sim.run_for(SimDuration::from_millis(50));
        // The ring is severed at node 2; its state survived the crash.
        assert_eq!(sim.node(NodeId(2)).seen, 1);
        assert_eq!(sim.stats().dropped_by_cause(DropCause::NodeDown), 1);
        sim.recover_node(NodeId(2));
        assert!(!sim.is_down(NodeId(2)));
        assert_eq!(sim.node(NodeId(2)).seen, 1, "state preserved across recovery");
    }

    #[test]
    fn recover_node_reruns_on_start() {
        // RingToken's node 0 emits the token from on_start, so recovering
        // node 0 restarts the whole circulation.
        let mut sim = ring_sim(3, 1, 1);
        sim.start();
        sim.run_to_quiescence(10_000);
        let seen_before = sim.node(NodeId(1)).seen;
        sim.crash_node(NodeId(0));
        sim.recover_node(NodeId(0));
        sim.run_to_quiescence(10_000);
        assert_eq!(sim.node(NodeId(1)).seen, seen_before + 1);
    }

    #[test]
    fn recover_node_wiped_replaces_state() {
        let mut sim = ring_sim(5, 3, 1);
        sim.start();
        sim.run_to_quiescence(10_000);
        assert_eq!(sim.node(NodeId(2)).seen, 3);
        sim.crash_node(NodeId(2));
        sim.recover_node_wiped(NodeId(2), RingToken { id: 2, n: 5, rounds_left: 0, seen: 0 });
        assert_eq!(sim.node(NodeId(2)).seen, 0, "wiped recovery loses state");
        assert!(!sim.is_down(NodeId(2)));
    }

    #[test]
    fn latency_factor_stretches_links() {
        let mut sim = ring_sim(5, 1, 1);
        sim.set_latency_factor(3.0);
        sim.start();
        sim.run_to_quiescence(10_000);
        // One round of 5 hops at 10 ms × 3.
        assert_eq!(sim.now().as_millis(), 150);
        sim.set_latency_factor(1.0);
        assert!((sim.latency_factor() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn partitions_block_delivery() {
        let mut sim = ring_sim(4, 1, 1);
        // Node 0,1 in group 0; nodes 2,3 in group 1.
        sim.set_partitions(Some(vec![0, 0, 1, 1]));
        sim.start();
        sim.run_to_quiescence(10_000);
        assert_eq!(sim.node(NodeId(1)).seen, 1);
        assert_eq!(sim.node(NodeId(2)).seen, 0);
    }

    #[test]
    fn link_drop_kills_one_link_only() {
        // Flap the 1→2 link closed; the token dies there and the drop is
        // attributed to LinkFlap, not Random.
        let mut sim = ring_sim(4, 1, 1);
        sim.set_link_drop(NodeId(1), NodeId(2), 1.0);
        sim.start();
        sim.run_to_quiescence(10_000);
        assert_eq!(sim.node(NodeId(1)).seen, 1);
        assert_eq!(sim.node(NodeId(2)).seen, 0);
        assert_eq!(sim.stats().dropped_by_cause(DropCause::LinkFlap), 1);
        assert_eq!(sim.stats().dropped_by_cause(DropCause::Random), 0);
        // Restoring the link clears the override in both directions.
        sim.set_link_drop(NodeId(2), NodeId(1), 0.0);
        assert_eq!(sim.link_drop(NodeId(1), NodeId(2)), 0.0);
    }

    #[test]
    fn full_drop_probability_kills_everything() {
        let mut sim = ring_sim(4, 2, 9);
        sim.set_drop_prob(1.0);
        sim.start();
        sim.run_to_quiescence(10_000);
        for i in 1..4 {
            assert_eq!(sim.node(NodeId(i)).seen, 0);
        }
    }

    #[test]
    fn run_until_respects_bound() {
        let mut sim = ring_sim(5, 3, 1);
        sim.start();
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(35));
        // 10ms per hop: 3 deliveries fit in 35 ms.
        let total: u32 = (0..5).map(|i| sim.node(NodeId(i)).seen).sum();
        assert_eq!(total, 3);
        assert_eq!(sim.now().as_millis(), 35);
        assert!(sim.pending_events() > 0);
    }

    #[test]
    fn timers_fire_in_order() {
        #[derive(Debug, Default)]
        struct T {
            fired: Vec<u64>,
        }
        #[derive(Debug, Clone)]
        struct Never;
        impl Message for Never {
            fn wire_size(&self) -> usize {
                0
            }
        }
        impl Protocol for T {
            type Msg = Never;
            fn on_start(&mut self, ctx: &mut Context<'_, Never>) {
                ctx.set_timer(SimDuration::from_millis(30), 3);
                ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(20), 2);
            }
            fn on_message(&mut self, _: &mut Context<'_, Never>, _: NodeId, _: Never) {}
            fn on_timer(&mut self, _: &mut Context<'_, Never>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let topo = crate::topology::Topology::builder(1).build();
        let mut sim = Simulator::new(topo, vec![T::default()], 0);
        sim.start();
        sim.run_to_quiescence(100);
        assert_eq!(sim.node(NodeId(0)).fired, vec![1, 2, 3]);
        assert_eq!(sim.now().as_millis(), 30);
    }

    #[test]
    fn far_future_timers_survive_the_wheel_horizon() {
        // A timer past the wheel's in-range horizon (~16.7 s) lands in the
        // overflow heap and still fires in order with near-term timers.
        #[derive(Debug, Default)]
        struct T {
            fired: Vec<(u64, u64)>,
        }
        #[derive(Debug, Clone)]
        struct Never;
        impl Message for Never {
            fn wire_size(&self) -> usize {
                0
            }
        }
        impl Protocol for T {
            type Msg = Never;
            fn on_start(&mut self, ctx: &mut Context<'_, Never>) {
                ctx.set_timer(SimDuration::from_secs(60), 60);
                ctx.set_timer(SimDuration::from_millis(1), 1);
                ctx.set_timer(SimDuration::from_secs(20), 20);
            }
            fn on_message(&mut self, _: &mut Context<'_, Never>, _: NodeId, _: Never) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Never>, tag: u64) {
                self.fired.push((ctx.now().as_micros(), tag));
            }
        }
        let topo = crate::topology::Topology::builder(1).build();
        let mut sim = Simulator::new(topo, vec![T::default()], 0);
        sim.start();
        sim.run_to_quiescence(100);
        assert_eq!(
            sim.node(NodeId(0)).fired,
            vec![(1_000, 1), (20_000_000, 20), (60_000_000, 60)]
        );
    }

    #[test]
    fn with_node_ctx_sends_through_network() {
        let mut sim = ring_sim(3, 1, 5);
        // Drive node 2 externally instead of via on_start.
        sim.with_node_ctx(NodeId(2), |_, ctx| ctx.send(NodeId(0), Token(1)));
        sim.run_to_quiescence(100);
        assert_eq!(sim.node(NodeId(0)).seen, 1);
    }

    #[test]
    fn broadcast_matches_send_loop_exactly() {
        // Two identical sims, one protocol using a send loop, the other
        // ctx.broadcast: stats, drop attribution, drop-coin consumption,
        // and delivery order must be indistinguishable.
        #[derive(Debug)]
        struct Fan {
            id: usize,
            use_broadcast: bool,
            got: Vec<(u64, usize, u32)>,
        }
        #[derive(Debug, Clone)]
        struct Blob(u32, Vec<u8>);
        impl Message for Blob {
            fn wire_size(&self) -> usize {
                32 + self.1.len()
            }
        }
        impl Protocol for Fan {
            type Msg = Blob;
            fn on_start(&mut self, ctx: &mut Context<'_, Blob>) {
                if self.id == 0 {
                    let msg = Blob(7, vec![0xAB; 256]);
                    if self.use_broadcast {
                        ctx.broadcast((1..5).map(NodeId), msg);
                    } else {
                        for i in 1..5 {
                            ctx.send(NodeId(i), msg.clone());
                        }
                    }
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Blob>, from: NodeId, msg: Blob) {
                self.got.push((ctx.now().as_micros(), from.0, msg.0));
                if self.id == 2 {
                    // Reply so the broadcast run also exercises unicast after
                    // shared deliveries.
                    ctx.send(NodeId(0), Blob(msg.0 + 1, Vec::new()));
                }
            }
        }
        let run = |use_broadcast: bool| {
            let topo = crate::topology::Topology::full_mesh(5, SimDuration::from_millis(10));
            let nodes =
                (0..5).map(|id| Fan { id, use_broadcast, got: Vec::new() }).collect();
            let mut sim = Simulator::new(topo, nodes, 77);
            sim.set_drop_prob(0.3);
            sim.start();
            sim.run_to_quiescence(1_000);
            let got: Vec<_> = (0..5).map(|i| sim.node(NodeId(i)).got.clone()).collect();
            (
                got,
                sim.stats().total_messages(),
                sim.stats().total_bytes(),
                sim.stats().dropped_by_cause(DropCause::Random),
                sim.events_processed(),
                sim.now(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn shared_payload_dispatches_via_on_message_ref() {
        // A protocol overriding on_message_ref sees borrowed deliveries for
        // all but the last recipient of a broadcast (which owns the Arc).
        #[derive(Debug, Default)]
        struct RefCounter {
            owned: u32,
            borrowed: u32,
        }
        #[derive(Debug, Clone)]
        struct Big(#[allow(dead_code)] Vec<u8>);
        impl Message for Big {
            fn wire_size(&self) -> usize {
                self.0.len()
            }
        }
        impl Protocol for RefCounter {
            type Msg = Big;
            fn on_start(&mut self, ctx: &mut Context<'_, Big>) {
                if ctx.node() == NodeId(0) {
                    ctx.broadcast((1..4).map(NodeId), Big(vec![1; 1024]));
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Big>, _: NodeId, _: Big) {
                self.owned += 1;
            }
            fn on_message_ref(&mut self, _: &mut Context<'_, Big>, _: NodeId, _: &Big) {
                self.borrowed += 1;
            }
        }
        let topo = crate::topology::Topology::full_mesh(4, SimDuration::from_millis(10));
        let mut sim = Simulator::new(topo, (0..4).map(|_| RefCounter::default()).collect(), 0);
        sim.start();
        sim.run_to_quiescence(100);
        let (owned, borrowed) = sim
            .nodes()
            .fold((0, 0), |(o, b), n| (o + n.owned, b + n.borrowed));
        assert_eq!(owned + borrowed, 3);
        assert_eq!(owned, 1, "exactly the final delivery owns the payload");
        assert_eq!(borrowed, 2);
    }

    #[test]
    fn broadcast_through_with_inner_wraps_once() {
        // An embedded protocol broadcasting through with_inner keeps the
        // multicast shape (one wrapped Arc payload, n recipients).
        #[derive(Debug, Default)]
        struct Outer {
            inner_got: u32,
        }
        #[derive(Debug, Clone)]
        struct Inner(u32);
        #[derive(Debug, Clone)]
        struct Env(Inner);
        impl Message for Env {
            fn wire_size(&self) -> usize {
                8
            }
        }
        impl Protocol for Outer {
            type Msg = Env;
            fn on_start(&mut self, ctx: &mut Context<'_, Env>) {
                if ctx.node() == NodeId(0) {
                    ctx.with_inner(Env, |inner: &mut Context<'_, Inner>| {
                        inner.broadcast((1..3).map(NodeId), Inner(41));
                    });
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Env>, _: NodeId, msg: Env) {
                assert_eq!(msg.0 .0, 41);
                self.inner_got += 1;
            }
        }
        let topo = crate::topology::Topology::full_mesh(3, SimDuration::from_millis(5));
        let mut sim = Simulator::new(topo, vec![Outer::default(), Outer::default(), Outer::default()], 3);
        sim.start();
        sim.run_to_quiescence(100);
        let total: u32 = sim.nodes().map(|n| n.inner_got).sum();
        assert_eq!(total, 2);
    }

    #[test]
    #[should_panic(expected = "without quiescing")]
    fn runaway_guard_trips() {
        // Protocol that ping-pongs forever.
        #[derive(Debug)]
        struct Pong;
        #[derive(Debug, Clone)]
        struct Ping;
        impl Message for Ping {
            fn wire_size(&self) -> usize {
                1
            }
        }
        impl Protocol for Pong {
            type Msg = Ping;
            fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
                if ctx.node() == NodeId(0) {
                    ctx.send(NodeId(1), Ping);
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, _: Ping) {
                ctx.send(from, Ping);
            }
        }
        let topo = crate::topology::Topology::full_mesh(2, SimDuration::from_millis(1));
        let mut sim = Simulator::new(topo, vec![Pong, Pong], 0);
        sim.start();
        sim.run_to_quiescence(50);
    }

    /// Not a correctness test: times the engine on the perf-report grid
    /// workload shape (timer-heavy, lockstep cohorts) for hot-path tuning.
    /// Run with `cargo test -p oceanstore-sim --release
    /// engine_grid_throughput -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn engine_grid_throughput() {
        const PERIODS_MS: [u64; 4] = [5, 11, 17, 29];
        #[derive(Debug)]
        struct Ticker {
            id: usize,
            fires: u64,
            horizon: SimTime,
        }
        #[derive(Debug, Clone)]
        struct Blob(Vec<u8>);
        impl Message for Blob {
            fn wire_size(&self) -> usize {
                self.0.len()
            }
            fn class(&self) -> &'static str {
                "tick"
            }
        }
        impl Protocol for Ticker {
            type Msg = Blob;
            fn on_start(&mut self, ctx: &mut Context<'_, Blob>) {
                for p in PERIODS_MS {
                    ctx.set_timer(SimDuration::from_millis(p), p);
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Blob>, _: NodeId, _: Blob) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Blob>, tag: u64) {
                self.fires += 1;
                let to = NodeId((self.id + 1 + (self.fires % 3) as usize) % 256);
                ctx.send(to, Blob(vec![0x5A; 16]));
                if ctx.now() + SimDuration::from_millis(tag) <= self.horizon {
                    ctx.set_timer(SimDuration::from_millis(tag), tag);
                }
            }
        }
        let horizon = SimTime::ZERO + SimDuration::from_millis(400);
        for round in 0..3 {
            let nodes: Vec<Ticker> =
                (0..256).map(|id| Ticker { id, fires: 0, horizon }).collect();
            let topo = crate::topology::Topology::grid(16, 16, SimDuration::from_millis(1));
            let mut sim = Simulator::new(topo, nodes, 7);
            sim.start();
            let t = std::time::Instant::now();
            sim.run_until(horizon);
            let dt = t.elapsed().as_secs_f64();
            println!(
                "round {round}: {} events in {:.1} ms = {:.2} M events/s",
                sim.events_processed(),
                dt * 1e3,
                sim.events_processed() as f64 / dt / 1e6
            );
        }
    }

    /// Gossip workload for the parallel-scheduler tests: timers, unicast,
    /// multicast, per-node RNG draws, and counters, with fan-out that
    /// straddles domain boundaries on a ring.
    #[derive(Debug)]
    struct Gossip {
        id: usize,
        n: usize,
        rounds_left: u32,
        heard: u64,
        rng_sum: u64,
    }

    #[derive(Debug, Clone)]
    struct Rumor(u32);

    impl Message for Rumor {
        fn wire_size(&self) -> usize {
            24
        }
        fn class(&self) -> &'static str {
            "rumor"
        }
    }

    impl Protocol for Gossip {
        type Msg = Rumor;

        fn on_start(&mut self, ctx: &mut Context<'_, Rumor>) {
            ctx.set_timer(SimDuration::from_millis(1 + (self.id % 7) as u64), 0);
        }

        fn on_message(&mut self, ctx: &mut Context<'_, Rumor>, _from: NodeId, msg: Rumor) {
            self.heard += 1;
            self.rng_sum = self.rng_sum.wrapping_add(ctx.rng().gen::<u64>());
            if msg.0 > 0 && self.heard.is_multiple_of(3) {
                ctx.send(NodeId((self.id + 1) % self.n), Rumor(msg.0 - 1));
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, Rumor>, _tag: u64) {
            if self.rounds_left == 0 {
                return;
            }
            self.rounds_left -= 1;
            ctx.count("gossip_round");
            let targets: Vec<NodeId> = (1..=3).map(|k| NodeId((self.id + k) % self.n)).collect();
            ctx.broadcast(targets, Rumor(2));
            ctx.set_timer(SimDuration::from_millis(5 + (self.id % 3) as u64), 0);
        }
    }

    fn gossip_sim(n: usize, seed: u64) -> Simulator<Gossip> {
        let topo = crate::topology::Topology::ring(n, SimDuration::from_millis(10));
        let nodes = (0..n)
            .map(|id| Gossip { id, n, rounds_left: 8, heard: 0, rng_sum: 0 })
            .collect();
        Simulator::new(topo, nodes, seed)
    }

    /// Everything observable: clock, event count, network totals, drops,
    /// classes, counters, per-node traffic, and per-node protocol state.
    fn gossip_fingerprint(sim: &Simulator<Gossip>) -> String {
        use std::fmt::Write as _;
        let s = sim.stats();
        let mut out = format!(
            "now={} ev={} msgs={} bytes={} dropped={}",
            sim.now().as_micros(),
            sim.events_processed(),
            s.total_messages(),
            s.total_bytes(),
            s.dropped_messages(),
        );
        for (cause, n) in s.drops_by_cause() {
            let _ = write!(out, " drop[{cause:?}]={n}");
        }
        for (class, c) in s.classes() {
            let _ = write!(out, " {class}={}/{}", c.messages, c.bytes);
        }
        for (event, n) in s.events() {
            let _ = write!(out, " ev[{event}]={n}");
        }
        for (i, g) in sim.nodes().enumerate() {
            let _ = write!(
                out,
                " n{i}=[{}/{}/{}/{}/{}]",
                g.heard,
                g.rng_sum,
                g.rounds_left,
                s.sent_by(NodeId(i)),
                s.received_by(NodeId(i)),
            );
        }
        out
    }

    #[test]
    fn parallel_gossip_is_bit_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut sim = gossip_sim(24, 42);
            sim.set_threads(threads);
            sim.start();
            sim.run_for(SimDuration::from_millis(500));
            gossip_fingerprint(&sim)
        };
        let sequential = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), sequential, "threads={threads} diverged");
        }
    }

    #[test]
    fn parallel_ring_token_matches_sequential() {
        let run = |threads: usize| {
            let mut sim = ring_sim(10, 5, 7);
            sim.set_threads(threads);
            sim.start();
            sim.run_for(SimDuration::from_secs(10));
            let seen: Vec<u32> = sim.nodes().map(|n| n.seen).collect();
            (sim.now(), sim.events_processed(), sim.stats().total_messages(), seen)
        };
        assert_eq!(run(8), run(1));
        assert_eq!(run(2), run(1));
    }

    #[test]
    fn parallel_random_drops_stay_parallel_and_match_sequential() {
        // Drop coins are counter-mode hashes of (seed, link, attempt), so
        // a drop phase forces no fallback: the run stays multi-domain
        // straight through it, with the exact same schedule as one domain.
        let run = |threads: usize| {
            let mut sim = gossip_sim(20, 99);
            sim.set_threads(threads);
            sim.start();
            sim.run_for(SimDuration::from_millis(100));
            sim.set_drop_prob(0.25);
            sim.run_for(SimDuration::from_millis(100));
            sim.set_drop_prob(0.0);
            sim.run_for(SimDuration::from_millis(300));
            (gossip_fingerprint(&sim), sim.par_coverage())
        };
        let (seq_fp, seq_cov) = run(1);
        let (par_fp, par_cov) = run(8);
        assert_eq!(par_fp, seq_fp);
        // One configured thread leaves the coverage counters alone.
        assert_eq!(seq_cov, ParCoverage::default());
        // The threaded run stayed parallel through the drop phase: windows
        // were scheduled (parallel or inline) and nothing fell back.
        assert!(par_cov.windows_parallel + par_cov.windows_inline > 0);
        assert_eq!(par_cov.fallback_entries, 0);
        assert_eq!(par_cov.fallback_events, 0);
        assert!(par_cov.epoch_nanos > 0);
        assert!(par_cov.serial_nanos <= par_cov.epoch_nanos);
    }

    #[test]
    fn parallel_coverage_counts_fallback_on_zero_lookahead() {
        // A topology whose minimum cross-domain latency is zero leaves no
        // lookahead window, so every run collapses to one domain — same
        // trace as one configured thread — and says so in the coverage
        // counters.
        let run = |threads: usize| {
            let mut b = crate::topology::Topology::builder(4);
            for i in 0..4usize {
                for j in (i + 1)..4 {
                    b.edge(NodeId(i), NodeId(j), SimDuration::ZERO);
                }
            }
            let nodes = (0..4)
                .map(|id| Gossip { id, n: 4, rounds_left: 4, heard: 0, rng_sum: 0 })
                .collect();
            let mut sim: Simulator<Gossip> = Simulator::new(b.build(), nodes, 5);
            sim.set_threads(threads);
            sim.start();
            sim.run_for(SimDuration::from_millis(50));
            let domains: Vec<u32> = (0..4).map(|i| sim.domain_of(NodeId(i))).collect();
            (gossip_fingerprint(&sim), sim.par_coverage(), domains)
        };
        let (one_fp, one_cov, _) = run(1);
        let (fp, cov, domains) = run(2);
        assert_eq!(fp, one_fp);
        assert_eq!(one_cov, ParCoverage::default());
        assert_eq!(domains, [0; 4], "the run collapsed to one domain");
        assert!(cov.fallback_entries > 0);
        assert!(cov.fallback_events > 0);
        assert_eq!(cov.windows_parallel + cov.windows_inline, 0);
        assert!(cov.serial_fraction() <= 1.0);
    }

    #[test]
    fn chaos_controls_between_windows_match_sequential() {
        // Crashes, partitions, latency changes, injections, and direct
        // node access interleaved with multi-domain runs must all replay the
        // one-domain schedule exactly.
        let run = |threads: usize| {
            let mut sim = gossip_sim(20, 123);
            sim.set_threads(threads);
            sim.start();
            sim.run_for(SimDuration::from_millis(60));
            sim.crash_node(NodeId(3));
            sim.set_latency_factor(1.5);
            sim.run_for(SimDuration::from_millis(60));
            sim.inject(NodeId(0), NodeId(11), Rumor(4));
            sim.with_node_ctx(NodeId(5), |g, ctx| {
                g.heard += 100;
                ctx.send(NodeId(6), Rumor(1));
            });
            sim.recover_node(NodeId(3));
            sim.set_partitions(Some(
                (0..20).map(|i| u32::from(i >= 10)).collect::<Vec<_>>(),
            ));
            sim.run_for(SimDuration::from_millis(120));
            sim.set_partitions(None);
            sim.set_latency_factor(1.0);
            // A single step mid-flight: a one-event window on whichever
            // domain holds the globally next key.
            sim.step();
            sim.run_for(SimDuration::from_millis(260));
            gossip_fingerprint(&sim)
        };
        let sequential = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), sequential, "threads={threads} diverged");
        }
    }

    #[test]
    fn contiguous_domains_partitions_evenly() {
        let of_node = contiguous_domains(10, 3);
        assert_eq!(of_node, [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
        assert_eq!(contiguous_domains(3, 8), [0, 1, 2]);
        assert_eq!(contiguous_domains(4, 1), [0, 0, 0, 0]);
        assert!(contiguous_domains(0, 4).is_empty());
    }

    #[test]
    fn set_threads_caps_and_reports() {
        let mut sim = gossip_sim(4, 1);
        sim.set_threads(16);
        assert_eq!(sim.threads(), 4);
        assert_eq!(sim.domain_of(NodeId(0)), 0);
        assert_eq!(sim.domain_of(NodeId(3)), 3);
        sim.set_threads(1);
        assert_eq!(sim.threads(), 1);
    }
}
