//! Properties of the counter-mode drop RNG (DESIGN.md §11).
//!
//! Drop and link-flap verdicts are splitmix64-style hashes of
//! `(sim_seed, src, dst, attempt)` — pure functions of a routing
//! attempt's identity. Three consequences are pinned here:
//!
//! 1. **Thread invariance** — the delivered set, the per-cause drop
//!    tallies, and every per-link delivery sequence are identical at
//!    threads {1, 2, 8}, with drops active the whole run (the old
//!    engine-RNG scheme forced a sequential fallback here).
//! 2. **Evaluation-order invariance** — reordering sends *across*
//!    links (without changing any single link's attempt sequence)
//!    leaves every per-link verdict sequence untouched. A shared RNG
//!    stream could not satisfy this: interleaving would shift which
//!    draw each attempt consumed.
//! 3. **Rate preservation** — the coins are still fair: observed drop
//!    rates match the configured probabilities, and `DropCause`
//!    attribution (Random is rolled before LinkFlap) is preserved
//!    across the RNG switch.

use oceanstore_sim::{
    Context, DropCause, Message, NodeId, Protocol, SimDuration, Simulator, Topology,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Tag(u32);

impl Message for Tag {
    type Timer = u64;

    fn wire_size(&self) -> usize {
        16
    }
    fn class(&self) -> &'static str {
        "tag"
    }
}

/// Each node fires a periodic timer and sends a numbered `Tag` to its
/// next two ring neighbours. `swap` flips the order of the two sends
/// within a tick — changing the global evaluation order while leaving
/// every directed link's attempt sequence (tag 0, 1, 2, …) unchanged.
#[derive(Debug)]
struct Blaster {
    id: usize,
    n: usize,
    ticks_left: u32,
    tick: u32,
    swap: bool,
    /// Delivered messages as (time µs, sender, tag).
    seen: Vec<(u64, usize, u32)>,
}

impl Protocol for Blaster {
    type Msg = Tag;

    fn on_start(&mut self, ctx: &mut Context<'_, Tag>) {
        ctx.set_timer(SimDuration::from_millis(1 + (self.id % 3) as u64), 0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Tag>, from: NodeId, msg: Tag) {
        self.seen.push((ctx.now().as_micros(), from.0, msg.0));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Tag>, _tag: u64) {
        if self.ticks_left == 0 {
            return;
        }
        self.ticks_left -= 1;
        let t = self.tick;
        self.tick += 1;
        let a = NodeId((self.id + 1) % self.n);
        let b = NodeId((self.id + 2) % self.n);
        if self.swap {
            ctx.send(b, Tag(t));
            ctx.send(a, Tag(t));
        } else {
            ctx.send(a, Tag(t));
            ctx.send(b, Tag(t));
        }
        ctx.set_timer(SimDuration::from_millis(5), 0);
    }
}

fn blaster_sim(n: usize, seed: u64, ticks: u32, swap: bool) -> Simulator<Blaster> {
    let topo = Topology::ring(n, SimDuration::from_millis(10));
    let nodes = (0..n)
        .map(|id| Blaster { id, n, ticks_left: ticks, tick: 0, swap, seen: Vec::new() })
        .collect();
    Simulator::new(topo, nodes, seed)
}

/// Full observable surface relevant to drops: the clock, every per-node
/// delivery log, and the per-cause drop tallies.
fn fingerprint(sim: &Simulator<Blaster>) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "now={} msgs={} random={} flap={} partition={}\n",
        sim.now().as_micros(),
        sim.stats().total_messages(),
        sim.stats().dropped_by_cause(DropCause::Random),
        sim.stats().dropped_by_cause(DropCause::LinkFlap),
        sim.stats().dropped_by_cause(DropCause::Partition),
    );
    for (i, node) in sim.nodes().enumerate() {
        let _ = writeln!(out, "node {i}: {:?}", node.seen);
    }
    out
}

/// The per-(receiver, sender) sequence of delivered tags — the verdict
/// history of each directed link, stripped of global interleaving.
fn per_link_tags(sim: &Simulator<Blaster>) -> Vec<((usize, usize), Vec<u32>)> {
    let n = sim.nodes().count();
    let mut links: Vec<((usize, usize), Vec<u32>)> = Vec::new();
    for (to, node) in sim.nodes().enumerate() {
        for from in 0..n {
            let tags: Vec<u32> =
                node.seen.iter().filter(|(_, f, _)| *f == from).map(|(_, _, t)| *t).collect();
            if !tags.is_empty() {
                links.push(((from, to), tags));
            }
        }
    }
    links
}

fn run_with_drops(
    n: usize,
    seed: u64,
    threads: usize,
    drop_prob: f64,
    flap: Option<(usize, usize, f64)>,
    swap: bool,
) -> Simulator<Blaster> {
    let mut sim = blaster_sim(n, seed, 12, swap);
    sim.set_threads(threads);
    sim.set_drop_prob(drop_prob);
    if let Some((u, v, p)) = flap {
        sim.set_link_drop(NodeId(u), NodeId(v), p);
    }
    sim.start();
    sim.run_for(SimDuration::from_millis(200));
    sim
}

#[test]
fn drop_verdicts_survive_cross_link_reordering() {
    // Swapping the two sends inside each tick permutes the global
    // evaluation order but not any single link's attempt sequence, so
    // every link must see the exact same tags delivered.
    for seed in [1u64, 0xC0FFEE, 0xDEAD_BEEF] {
        let a = run_with_drops(8, seed, 1, 0.3, Some((0, 1, 0.4)), false);
        let b = run_with_drops(8, seed, 1, 0.3, Some((0, 1, 0.4)), true);
        assert_eq!(per_link_tags(&a), per_link_tags(&b), "seed {seed:#x}");
        // Aggregate attribution is order-blind too.
        assert_eq!(
            a.stats().dropped_by_cause(DropCause::Random),
            b.stats().dropped_by_cause(DropCause::Random)
        );
        assert_eq!(
            a.stats().dropped_by_cause(DropCause::LinkFlap),
            b.stats().dropped_by_cause(DropCause::LinkFlap)
        );
    }
}

#[test]
fn attribution_order_rolls_random_before_flap() {
    // drop_prob = 1.0 drowns everything as Random even on a link with
    // a configured flap rate — the Random coin is rolled first, exactly
    // as the sequential pre-counter-mode engine did.
    let sim = run_with_drops(6, 7, 1, 1.0, Some((0, 1, 1.0)), false);
    assert_eq!(sim.stats().dropped_by_cause(DropCause::LinkFlap), 0);
    assert!(sim.stats().dropped_by_cause(DropCause::Random) > 0);
    assert!(sim.nodes().all(|n| n.seen.is_empty()));

    // And with the Random coin disabled, a certain flap kills exactly
    // the flapping link's traffic, attributed to LinkFlap.
    let sim = run_with_drops(6, 7, 1, 0.0, Some((0, 1, 1.0)), false);
    assert_eq!(sim.stats().dropped_by_cause(DropCause::Random), 0);
    assert!(sim.stats().dropped_by_cause(DropCause::LinkFlap) > 0);
    let links: Vec<(usize, usize)> = per_link_tags(&sim).into_iter().map(|(l, _)| l).collect();
    assert!(!links.contains(&(0, 1)) && !links.contains(&(1, 0)));
}

#[test]
fn drop_rates_match_configured_probabilities() {
    // The counter-mode coins must be statistically indistinguishable
    // from the engine-RNG draws they replaced: a long run's observed
    // drop fraction lands within ±0.05 of the configured rate (≥ 4.5σ
    // for ~2000 attempts — deterministic given the seed, so not flaky).
    let mut sim = blaster_sim(4, 0xFEED, 1_000, false);
    sim.set_drop_prob(0.3);
    sim.start();
    sim.run_for(SimDuration::from_secs(20));
    // Byte accounting happens at send time, so total_messages counts
    // every routing attempt, dropped or not.
    let attempts = sim.stats().total_messages() as f64;
    let dropped = sim.stats().dropped_by_cause(DropCause::Random) as f64;
    assert!(attempts >= 2_000.0, "attempts={attempts}");
    let rate = dropped / attempts;
    assert!((rate - 0.3).abs() < 0.05, "Random rate {rate} vs configured 0.3");

    // In a 4-ring only node 0's first send per tick crosses link 0→1,
    // so that link sees exactly one attempt per tick: delivered tags
    // plus LinkFlap drops must sum to the tick count.
    let mut sim = blaster_sim(4, 0xFEED, 1_000, false);
    sim.set_link_drop(NodeId(0), NodeId(1), 0.4);
    sim.start();
    sim.run_for(SimDuration::from_secs(20));
    let delivered = per_link_tags(&sim)
        .into_iter()
        .find(|(l, _)| *l == (0, 1))
        .map_or(0, |(_, tags)| tags.len());
    let flapped = sim.stats().dropped_by_cause(DropCause::LinkFlap) as usize;
    assert_eq!(delivered + flapped, 1_000, "link 0→1 attempt accounting");
    let rate = flapped as f64 / 1_000.0;
    assert!((rate - 0.4).abs() < 0.05, "LinkFlap rate {rate} vs configured 0.4");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same (seed, src, dst, attempt) ⇒ same verdict at threads
    /// {1, 2, 8}: the full delivery fingerprint — per-link tag
    /// sequences and per-cause tallies — is thread-count invariant
    /// with drops and flaps active throughout.
    #[test]
    fn drop_verdicts_are_thread_count_invariant(
        n in 4usize..16,
        seed in any::<u64>(),
        drop_pct in 5u32..45,
        flap_pct in 5u32..60,
    ) {
        let drop_prob = f64::from(drop_pct) / 100.0;
        let flap = Some((0, 1, f64::from(flap_pct) / 100.0));
        let sequential = run_with_drops(n, seed, 1, drop_prob, flap, false);
        let seq_fp = fingerprint(&sequential);
        for threads in [2usize, 8] {
            let parallel = run_with_drops(n, seed, threads, drop_prob, flap, false);
            prop_assert_eq!(&fingerprint(&parallel), &seq_fp, "threads={}", threads);
            // And the drop phase genuinely ran parallel, not via fallback.
            let cov = parallel.par_coverage();
            prop_assert!(cov.windows_parallel + cov.windows_inline > 0);
            prop_assert_eq!(cov.fallback_entries, 0);
        }
    }
}
