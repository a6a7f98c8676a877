use super::*;
use crate::stats::DropCause;

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
fn far_future_timers_fire_in_order_with_near_ones() {
    // Timers 20 and 60 simulated seconds out fire, in order, after a
    // near-term one armed between them.
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
fn same_instant_timers_and_deliveries_fire_in_arming_order() {
    // Four handlers each put one event on node 0 at t = 30 ms: two timers,
    // a delivery, a third timer. They fire in the order they were armed or
    // sent (one seq counter for both kinds) — also when `set_threads(2)`
    // moves the parked timers to new domains at t = 15 ms.
    #[derive(Debug, Default)]
    struct T {
        log: Vec<(u64, &'static str, u64)>,
    }
    #[derive(Debug, Clone)]
    struct Note(u64);
    impl Message for Note {
        fn wire_size(&self) -> usize {
            8
        }
    }
    impl Protocol for T {
        type Msg = Note;
        fn on_start(&mut self, ctx: &mut Context<'_, Note>) {
            if ctx.node() == NodeId(0) {
                ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(25), 4);
            } else {
                ctx.send(NodeId(0), Note(2));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Note>, _: NodeId, msg: Note) {
            self.log.push((ctx.now().as_millis(), "msg", msg.0));
            match msg.0 {
                2 => ctx.set_timer(SimDuration::from_millis(20), 12),
                3 => ctx.send(NodeId(0), Note(13)),
                _ => {}
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Note>, tag: u64) {
            self.log.push((ctx.now().as_millis(), "timer", tag));
            match tag {
                1 => {
                    ctx.set_timer(SimDuration::from_millis(20), 11);
                    ctx.send(NodeId(1), Note(3));
                }
                4 => ctx.set_timer(SimDuration::from_millis(5), 14),
                _ => {}
            }
        }
    }
    let run = |threads_at_15ms: usize| {
        let topo = crate::topology::Topology::full_mesh(2, SimDuration::from_millis(10));
        let mut sim = Simulator::new(topo, vec![T::default(), T::default()], 0);
        sim.start();
        sim.run_for(SimDuration::from_millis(15));
        assert_eq!(sim.pending_events(), 4, "timers 11, 12 and 4 parked, Note(3) in flight");
        sim.set_threads(threads_at_15ms);
        sim.run_for(SimDuration::from_millis(15));
        assert_eq!(sim.pending_events(), 0);
        sim.node(NodeId(0)).log.clone()
    };
    let expected = vec![
        (10, "timer", 1),
        (10, "msg", 2),
        (25, "timer", 4),
        (30, "timer", 11),
        (30, "timer", 12),
        (30, "msg", 13),
        (30, "timer", 14),
    ];
    assert_eq!(run(1), expected);
    assert_eq!(run(2), expected);
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
    // Re-partitioning mid-run carries every parked timer and delivery to
    // its new domain under its old key.
    let mut sim = gossip_sim(24, 42);
    sim.start();
    for threads in [2, 8, 3, 1] {
        sim.run_for(SimDuration::from_millis(12));
        assert!(sim.pending_events() > 24, "timers and deliveries are parked");
        sim.set_threads(threads);
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_millis(500));
    assert_eq!(gossip_fingerprint(&sim), sequential);
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
