//! One domain's side of a window: the event loop, handler dispatch, and the
//! routing decision for everything a handler emits.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use rand_chacha::ChaCha8Rng;

use super::{Action, Context, Message, Network, Payload, Protocol, Simulator};
use crate::stats::{DropCause, NetStats};
use crate::time::{SimDuration, SimTime};
use crate::topology::NodeId;

/// Heap key of one pending delivery: `(at µs, seq, slab index)`. Wrapped in
/// [`Reverse`] so the `BinaryHeap` max-heap pops the earliest `(at, seq)`
/// first, ties broken by insertion order for determinism. Seqs are unique,
/// so the slab index never participates in an ordering decision.
type DeliveryKey = Reverse<(u64, u64, u32)>;

/// One armed timer: `(at µs, seq, node, tag)`, ordered like a
/// [`DeliveryKey`]. Timers share the engine's seq counter with deliveries,
/// so `node` and `tag` never participate in an ordering decision either.
type TimerKey = Reverse<(u64, u64, usize, u64)>;

/// The fat part of a pending delivery, parked in the delivery slab while
/// its compact [`DeliveryKey`] sifts through the heap.
#[derive(Debug)]
pub(super) struct DeliveryBody<M> {
    pub(super) from: NodeId,
    pub(super) to: NodeId,
    pub(super) msg: Payload<M>,
}

/// SplitMix64 finalizer: a cheap, statistically strong 64-bit mixer.
pub(super) fn mix64(mut z: u64) -> u64 {
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
pub(super) const PROVISIONAL: u64 = 1 << 63;

/// One *seq-consuming* emission logged by a window dispatch, in action
/// order, replayed at the commit to assign real seqs in global dispatch
/// order. Dropped sends consume no seq and are tallied in the job's stats,
/// so they produce no entry; multicasts are flattened to one entry per
/// surviving recipient (byte accounting for the whole fan-out also happens
/// at dispatch).
#[derive(Debug)]
pub(super) enum Emission<M> {
    /// Executed inside this window under a provisional key: consumes one
    /// real seq at commit.
    Exec,
    /// A delivery that survives the window (cross-domain, or keyed past the
    /// window end): enqueued into the target domain at commit with its real
    /// seq.
    Park { to: NodeId, at: u64, body: Payload<M> },
    /// A timer keyed past the window end: armed in this domain at commit
    /// with its real seq.
    ArmTimer { at: u64, tag: u64 },
}

/// One window dispatch that emitted something: the dispatched event's key
/// (provisional iff the [`PROVISIONAL`] bit is set) plus its slice of the
/// domain's emission log. Zero-emission dispatches need no record — they
/// consume no seqs and nothing downstream orders against them.
#[derive(Debug, Clone, Copy)]
pub(super) struct DispatchRecord {
    pub(super) at: u64,
    pub(super) seq: u64,
    pub(super) node: u32,
    pub(super) emi: u32,
    pub(super) emi_len: u32,
}

/// One spatial domain of the scheduler: a contiguous node block with its
/// own delivery queue, slab, and timer heap, plus the per-window logs the
/// commit consumes.
pub(super) struct Domain<M> {
    /// First node id in this domain's contiguous block.
    pub(super) base: usize,
    /// One-past-last node id.
    pub(super) end: usize,
    pub(super) queue: BinaryHeap<DeliveryKey>,
    /// Delivery bodies indexed by the key's slab slot; `None` marks a free
    /// slot awaiting reuse through `free`.
    pub(super) slab: Vec<Option<DeliveryBody<M>>>,
    /// Free slots in `slab`, reused LIFO for cache locality.
    pub(super) free: Vec<u32>,
    /// Armed timers of this domain's nodes.
    pub(super) timers: BinaryHeap<TimerKey>,
    /// Dispatches with emissions, in domain execution order.
    pub(super) records: Vec<DispatchRecord>,
    /// Flat emission log; records hold ranges into it.
    pub(super) emissions: Vec<Emission<M>>,
    /// Attempt counters of the directed links whose source node lives in
    /// this domain, backing [`counter_drop`] without locks.
    pub(super) link_ctrs: HashMap<(u32, u32), u64>,
    /// Events executed since the last commit.
    pub(super) events_processed: u64,
    /// Count of in-window executed emissions since the last commit: the
    /// k-th one runs under key `PROVISIONAL | k`.
    pub(super) provisional: u64,
    /// Time (µs) of the last event this domain executed.
    pub(super) now: u64,
    /// Reusable action buffer for this domain's dispatches.
    pub(super) actions: Vec<Action<M>>,
}

impl<M> Domain<M> {
    pub(super) fn new(base: usize, end: usize, now: u64) -> Self {
        Domain {
            base,
            end,
            queue: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            timers: BinaryHeap::new(),
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
    pub(super) fn push_with_seq(&mut self, at: u64, seq: u64, body: DeliveryBody<M>) {
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

    pub(super) fn pending(&self) -> usize {
        self.queue.len() + self.timers.len()
    }

    /// The next-event decision: the `(at, seq)` minimum across the delivery
    /// queue and the timer heap. Seqs are unique across both sources, so
    /// the two never tie. Returns `(at, seq, take_timer)`.
    pub(super) fn peek_next(&self) -> Option<(u64, u64, bool)> {
        let msg = self.queue.peek().map(|&Reverse((at, seq, _))| (at, seq));
        let timer = self.timers.peek().map(|&Reverse((at, seq, ..))| (at, seq));
        match (msg, timer) {
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
    pub(super) fn close_record(&mut self, key: (u64, u64), node: NodeId, emi: u32) {
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

/// What every job of one window shares.
pub(super) struct WindowEnv<'a> {
    pub(super) net: &'a Network,
    /// Exclusive end key of the window: events keyed `(at, seq) < end`
    /// execute, and so do own emissions whose provisional key is.
    /// `(t, 0)` runs everything before time `t`; `(at, seq + 1)` runs the
    /// one event `(at, seq)`; `(0, 0)` runs nothing.
    pub(super) end: (u64, u64),
}

/// One domain's share of a window: its shard, where its accounting goes,
/// and its disjoint slices of protocol state and per-node RNGs.
pub(super) struct Job<'a, P: Protocol> {
    pub(super) dom: &'a mut Domain<P::Msg>,
    pub(super) stats: &'a mut NetStats,
    pub(super) nodes: &'a mut [P],
    pub(super) rngs: &'a mut [ChaCha8Rng],
}

/// How a multi-domain window's jobs are executed: inline by default,
/// on scoped threads once [`Simulator::set_threads`] has supplied the
/// `Send` bounds that needs.
pub(super) type RunJobs<P> = fn(Vec<Job<'_, P>>, &WindowEnv<'_>);

/// Below this many pending events across all domains, a window runs inline
/// on the driver thread: results are identical either way (domains are
/// independent within a window), so threads are only worth their spawn cost
/// when the window carries real work.
const PARALLEL_SPAWN_THRESHOLD: usize = 64;

impl<P: Protocol> Simulator<P> {
    /// Runs `f` as the only job of a window ending at `end` — domain `d` on
    /// the driver thread, accounting straight into the global stats — and
    /// commits it.
    pub(super) fn on_domain<R>(
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

    /// Executes one window across all domains, on worker threads when
    /// there are several domains and enough work is pending. Domains are
    /// contiguous node blocks, so `split_at_mut` hands each job disjoint
    /// `&mut` slices of protocol state and per-node RNGs without any
    /// locking.
    pub(super) fn run_window(&mut self, end: (u64, u64)) {
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
}

pub(super) fn run_jobs_inline<P: Protocol>(jobs: Vec<Job<'_, P>>, env: &WindowEnv<'_>) {
    for mut job in jobs {
        run_domain_window(&mut job, env);
    }
}

pub(super) fn run_jobs_scoped<P>(jobs: Vec<Job<'_, P>>, env: &WindowEnv<'_>)
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
pub(super) fn run_domain_window<P: Protocol>(job: &mut Job<'_, P>, env: &WindowEnv<'_>) {
    while let Some((at, seq, take_timer)) = job.dom.peek_next() {
        if (at, seq) >= env.end {
            return;
        }
        debug_assert!(at >= job.dom.now, "time must be monotonic");
        job.dom.now = at;
        job.dom.events_processed += 1;
        if take_timer {
            let Reverse((_, _, node, tag)) = job.dom.timers.pop().expect("peeked");
            if !env.net.down[node] {
                dispatch_window(job, env, (at, seq), NodeId(node), |p, ctx| p.on_timer(ctx, tag));
            }
        } else {
            let Reverse((_, _, slot)) = job.dom.queue.pop().expect("peeked");
            let DeliveryBody { from, to, msg } =
                job.dom.slab[slot as usize].take().expect("queued key points at a parked body");
            job.dom.free.push(slot);
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
pub(super) fn dispatch_window<P: Protocol, R>(
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
                    Some(seq) => dom.timers.push(Reverse((at, seq, node.0, tag))),
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
