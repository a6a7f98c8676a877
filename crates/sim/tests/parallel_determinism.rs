//! Golden traces and property tests for the conservative parallel
//! scheduler: the observable event schedule must be byte-for-byte
//! identical at every worker-thread count.
//!
//! The protocol here logs every handler invocation into per-node trace
//! buffers (timestamp, peer, payload, RNG draws), so any reordering of
//! cross-domain deliveries, timer fires, or per-node RNG consumption
//! shows up as a trace diff — not just as a counter mismatch.

use oceanstore_sim::{
    Context, Message, NodeId, ParCoverage, Protocol, SimDuration, Simulator, Topology,
};
use proptest::prelude::*;
use rand::Rng as _;

#[derive(Debug, Clone)]
struct Ping {
    hops: u32,
}

impl Message for Ping {
    fn wire_size(&self) -> usize {
        12
    }
    fn class(&self) -> &'static str {
        "ping"
    }
}

/// Floods pings around a ring with staggered timers, occasional
/// RNG-directed detours, and multicast fan-out — enough churn that
/// every scheduler path (intra-window execution, cross-domain parking,
/// in-window timer arming) is exercised.
#[derive(Debug)]
struct Logger {
    id: usize,
    n: usize,
    budget: u32,
    log: Vec<String>,
}

impl Protocol for Logger {
    type Msg = Ping;

    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        ctx.set_timer(SimDuration::from_millis(1 + (self.id % 5) as u64), 7);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, msg: Ping) {
        let draw = ctx.rng().gen_range(0..self.n);
        self.log.push(format!(
            "{}:recv:{}:{}:{}",
            ctx.now().as_micros(),
            from.0,
            msg.hops,
            draw
        ));
        if msg.hops > 0 {
            ctx.send(NodeId((self.id + 1) % self.n), Ping { hops: msg.hops - 1 });
            if msg.hops.is_multiple_of(2) {
                ctx.send(NodeId(draw), Ping { hops: msg.hops / 2 });
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Ping>, tag: u64) {
        self.log.push(format!("{}:timer:{tag}", ctx.now().as_micros()));
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        ctx.count("timer_fired");
        let targets = (1..=2).map(|k| NodeId((self.id + k) % self.n));
        ctx.broadcast(targets, Ping { hops: 3 });
        ctx.set_timer(SimDuration::from_millis(4 + (self.id % 3) as u64), tag);
    }
}

fn logger_sim(n: usize, seed: u64, threads: usize) -> Simulator<Logger> {
    let topo = Topology::ring(n, SimDuration::from_millis(10));
    let nodes = (0..n).map(|id| Logger { id, n, budget: 6, log: Vec::new() }).collect();
    let mut sim = Simulator::new(topo, nodes, seed);
    sim.set_threads(threads);
    sim
}

/// Runs the workload and returns the concatenated per-node trace plus
/// the engine's own counters — the full observable surface.
fn run_trace(n: usize, seed: u64, threads: usize, horizon_ms: u64) -> String {
    let mut sim = logger_sim(n, seed, threads);
    sim.start();
    sim.run_for(SimDuration::from_millis(horizon_ms));
    observe(&sim)
}

/// Every way into the engine in one run: timed runs, stimulus through a
/// live context, a raw injection, single steps (with the clock after
/// each), a crash and a wiped recovery, a change of thread count from
/// `threads.0` to `threads.1` with events in flight, and a drain to
/// quiescence.
fn run_mixed(n: usize, seed: u64, threads: (usize, usize), horizon_ms: u64) -> String {
    let third = SimDuration::from_millis(horizon_ms / 3);
    let victim = NodeId(seed as usize % n);
    let mut sim = logger_sim(n, seed, threads.0);
    sim.start();
    sim.run_for(third);
    sim.with_node_ctx(NodeId((victim.0 + 1) % n), |node, ctx| {
        node.log.push(format!("{}:stimulus", ctx.now().as_micros()));
        ctx.broadcast([victim, NodeId((victim.0 + 2) % n)], Ping { hops: 4 });
        ctx.set_timer(SimDuration::from_millis(3), 9);
    });
    sim.inject(NodeId(0), NodeId(n - 1), Ping { hops: 2 });
    let mut out = String::new();
    for _ in 0..5 {
        sim.step();
        out.push_str(&format!("step -> {}\n", sim.now().as_micros()));
    }
    sim.crash_node(victim);
    sim.run_for(third);
    sim.recover_node_wiped(victim, Logger { id: victim.0, n, budget: 2, log: Vec::new() });
    sim.set_threads(threads.1);
    sim.run_for(third);
    let drained = sim.run_to_quiescence(1_000_000);
    if threads == (1, 1) {
        assert_eq!(sim.par_coverage(), ParCoverage::default());
    }
    out.push_str(&format!("drained={drained} now={}\n", sim.now().as_micros()));
    out + &observe(&sim)
}

fn observe(sim: &Simulator<Logger>) -> String {
    let mut out = String::new();
    for (i, node) in sim.nodes().enumerate() {
        out.push_str(&format!("== node {i} ==\n"));
        for line in &node.log {
            out.push_str(line);
            out.push('\n');
        }
    }
    out.push_str(&format!(
        "events={} msgs={} bytes={} ev[timer_fired]={}\n",
        sim.events_processed(),
        sim.stats().total_messages(),
        sim.stats().total_bytes(),
        sim.stats().event("timer_fired"),
    ));
    out
}

/// FNV-1a over the golden trace, pinned below so an accidental schedule
/// change in *any* future engine work fails loudly. Re-capture by
/// running with `GOLDEN_CAPTURE=1`.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Captured via `GOLDEN_CAPTURE=1` on the sequential schedule.
const GOLDEN_HASH: u64 = 0xe0c2_bf60_c3cc_62d3;

#[test]
fn golden_trace_is_bit_identical_at_1_2_8_threads() {
    let sequential = run_trace(24, 0xC0FFEE, 1, 200);
    for threads in [2usize, 8] {
        let parallel = run_trace(24, 0xC0FFEE, threads, 200);
        assert_eq!(parallel, sequential, "threads={threads} changed the golden trace");
    }
    let hash = fnv1a(&sequential);
    if std::env::var_os("GOLDEN_CAPTURE").is_some() {
        println!("golden hash: {hash:#018x}");
        return;
    }
    assert_eq!(
        hash, GOLDEN_HASH,
        "golden trace drifted from the pinned schedule; \
         rerun with GOLDEN_CAPTURE=1 and update the pin if intentional"
    );
}

#[test]
fn repeated_parallel_runs_are_identical() {
    let a = run_trace(17, 42, 8, 150);
    let b = run_trace(17, 42, 8, 150);
    assert_eq!(a, b, "same seed + same threads must reproduce exactly");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cross-domain message ordering is a function of (topology, seed,
    /// horizon) only — never of the thread count or the OS interleaving
    /// behind it.
    #[test]
    fn ordering_is_independent_of_thread_interleaving(
        n in 4usize..32,
        seed in any::<u64>(),
        threads_pick in 0usize..4,
        horizon_ms in 50u64..250,
    ) {
        let threads = [2usize, 3, 4, 8][threads_pick];
        let sequential = run_trace(n, seed, 1, horizon_ms);
        let parallel = run_trace(n, seed, threads, horizon_ms);
        prop_assert_eq!(parallel, sequential);
        let one_domain = run_mixed(n, seed, (1, 1), horizon_ms);
        for plan in [(1, threads), (2, 8), (8, 2), (threads, 1)] {
            prop_assert_eq!(run_mixed(n, seed, plan, horizon_ms), one_domain.clone(), "plan {:?}", plan);
        }
    }
}
