//! Seeded schedule fuzzing: random fault schedules, invariant oracles.
//!
//! The canned [`crate::scenarios`] each probe one failure mode; the
//! fuzzer probes their *combinations*. From a seed it draws a random —
//! but constrained — fault schedule (crashes, rack outages, partitions,
//! drop and latency bursts, link flaps), replays it against a deployment
//! with update traffic interleaved, and asks the invariant checkers for
//! a verdict. Constraints keep every schedule survivable, so any failed
//! invariant is a protocol bug and the seed is its reproduction recipe:
//!
//! * at most `m` primaries are ever unavailable (crashed or islanded)
//!   *concurrently* — windows may overlap, but the agreement quorum and
//!   certificate threshold stay reachable at every instant;
//! * the one exception is an optional *quorum-cut* window that islands
//!   `m + 1` primaries on purpose: no side holds a `2m + 1` quorum, so
//!   the committed frontier must freeze until the heal (sampled inside
//!   the window and checked by the quorum-loss oracle);
//! * every fault heals before [`FuzzOpts::turbulence_ms`], leaving a
//!   clean settle window;
//! * the last update is submitted at [`FuzzOpts::final_submit_ms`],
//!   *inside* the turbulence window — faults race the final update and
//!   end-of-run delivery is stressed (the first fault group is always
//!   drawn after the final submit to guarantee it).

use oceanstore_naming::guid::Guid;
use oceanstore_replica::{build_deployment, Deployment, DeploymentOpts, RoleHost};
use oceanstore_sim::{NodeId, SimDuration};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::invariants::{
    check_clients_settled, check_convergence, check_every_commit_certifies,
    check_frontier_stalled, check_no_committed_loss, check_no_uncertified_records,
    InvariantReport,
};
use crate::runner::{stats_fingerprint, ScheduleCursor, TraceEntry};
use crate::scenarios::{append, t};
use crate::schedule::{FaultAction, Schedule};

/// Knobs of one fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzOpts {
    /// Random fault groups drawn per schedule (each group is a
    /// self-healing pair or burst of [`FaultAction`]s).
    pub faults: usize,
    /// Updates submitted while the schedule plays out (at least 1; the
    /// last one always goes out at [`FuzzOpts::final_submit_ms`]).
    pub updates: usize,
    /// When the final update is submitted. Must leave room before
    /// [`FuzzOpts::turbulence_ms`] so at least one fault window can start
    /// after it.
    pub final_submit_ms: u64,
    /// Deadline by which every drawn fault has healed.
    pub turbulence_ms: u64,
    /// Total simulated run time; the span after `turbulence_ms` is the
    /// clean settle window the oracles judge.
    pub horizon_ms: u64,
    /// The fuzzed deployment; its `seed` is replaced by the run's seed.
    /// With `m >= 2` the schedule generator can (and does) overlap
    /// primary outage windows. Every fault comes from the drawn schedule;
    /// the deployment itself runs the shipped protocol. `rings` must
    /// stay 1: outages and quorum cuts are booked against ring 0
    /// only, so on a second ring "survivable by construction" does not
    /// hold and [`fuzz_deployment`] refuses the deployment.
    pub deployment: DeploymentOpts,
    /// Whether quorum-cut windows (islanding `m + 1` primaries) may be
    /// drawn.
    pub quorum_cuts: bool,
    /// Bytes each update appends: its label, padded with zeros to this
    /// length when shorter. 0 sends the label alone (under 30 bytes, an
    /// update every path carries whole); 1 KiB sends one secondaries
    /// offer by name ([`oceanstore_replica::CommitRecord::by_name`]).
    pub payload_len: usize,
}

impl Default for FuzzOpts {
    fn default() -> Self {
        FuzzOpts {
            faults: 5,
            updates: 3,
            final_submit_ms: 12_000,
            turbulence_ms: 16_000,
            horizon_ms: 30_000,
            deployment: DeploymentOpts::default(),
            quorum_cuts: true,
            payload_len: 0,
        }
    }
}

/// Everything one fuzzing run produces.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// The seed that generated (and reproduces) this run.
    pub seed: u64,
    /// The generated schedule, for shrinking a failure by hand.
    pub schedule: Schedule,
    /// Quorum-cut windows `(start_ms, end_ms)` the schedule contains
    /// (frontier-stall sampled inside each).
    pub quorum_cuts: Vec<(u64, u64)>,
    /// Fault events actually applied, in order.
    pub trace: Vec<TraceEntry>,
    /// Stable network-counter fingerprint (determinism checks).
    pub fingerprint: String,
    /// The oracle verdict.
    pub report: InvariantReport,
}

fn overlaps(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

/// Bookkeeping that keeps a randomly drawn schedule survivable by
/// construction even with overlapping windows.
#[derive(Debug, Default)]
struct OutageBook {
    /// `(start, end, tier_slot)`: windows in which one primary is
    /// unavailable (crashed or islanded).
    primary_windows: Vec<(u64, u64, usize)>,
    /// Windows owning the *global* partition state (`set_partitions` is
    /// one world-wide grouping, so two partition-type faults must never
    /// overlap — the first heal would tear the second down early).
    partition_windows: Vec<(u64, u64)>,
    /// Quorum-cut windows (also recorded in `partition_windows`).
    quorum_cuts: Vec<(u64, u64)>,
}

impl OutageBook {
    /// Distinct primaries unavailable at some instant of `w`.
    fn primaries_down_during(&self, w: (u64, u64)) -> std::collections::HashSet<usize> {
        self.primary_windows
            .iter()
            .filter(|&&(s, e, _)| overlaps((s, e), w))
            .map(|&(_, _, i)| i)
            .collect()
    }

    /// Whether primary `slot` is already in an outage window overlapping
    /// `w` (a second crash of the same node would unbalance the
    /// crash/recover pairing).
    fn primary_down_in(&self, slot: usize, w: (u64, u64)) -> bool {
        self.primary_windows.iter().any(|&(s, e, i)| i == slot && overlaps((s, e), w))
    }

    fn clear_of_partitions(&self, w: (u64, u64)) -> bool {
        !self.partition_windows.iter().any(|&p| overlaps(p, w))
    }

    fn clear_of_quorum_cuts(&self, w: (u64, u64)) -> bool {
        !self.quorum_cuts.iter().any(|&c| overlaps(c, w))
    }
}

/// Margin after a quorum cut starts before the frontier is sampled:
/// agreement rounds already in flight when the cut lands may still
/// execute for a few message hops (pre-cut sends deliver after the cut
/// is installed — drops are decided at *send* time), so the stall oracle
/// waits out the straddle cascade (≤ ~4 hops × ≤ 60 ms stretched
/// latency) before taking its "before" sample.
const CUT_SAMPLE_MARGIN_MS: u64 = 500;
/// Minimum quorum-cut window length (room for both samples).
const CUT_MIN_LEN_MS: u64 = 2_000;

/// Draws a random self-healing schedule plus the quorum-cut windows it
/// contains. All fault times land in `[1s, turbulence)` and every
/// matching repair lands at or before `turbulence`; the first fault
/// group starts after [`FuzzOpts::final_submit_ms`].
fn random_schedule<N: RoleHost>(
    rng: &mut ChaCha8Rng,
    opts: &FuzzOpts,
    dep: &Deployment<N>,
) -> (Schedule, Vec<(u64, u64)>) {
    let turbulence = opts.turbulence_ms;
    let total = dep.sim.len();
    let m = dep.cfg().m;
    let mut sched = Schedule::new();
    let mut book = OutageBook::default();
    for fault_i in 0..opts.faults {
        // Fault 0 is forced past the final submit so turbulence always
        // continues into the delivery of the last update.
        let start_lo = if fault_i == 0 { opts.final_submit_ms.max(1_000) } else { 1_000 };
        let draw_window = |rng: &mut ChaCha8Rng, min_len: u64| {
            let start = rng.gen_range(start_lo..turbulence.saturating_sub(1_000));
            let end = rng.gen_range((start + min_len).min(turbulence)..=turbulence);
            (start, end)
        };
        match rng.gen_range(0..9u32) {
            0 => {
                // Single secondary crash + recover.
                let (start, end) = draw_window(rng, 500);
                let s = dep.secondaries[rng.gen_range(0..dep.secondaries.len())];
                sched = sched
                    .at(t(start), FaultAction::Crash(s))
                    .at(t(end), FaultAction::Recover(s));
            }
            1 => {
                // Primary crash + recover. Windows may overlap earlier
                // primary outages as long as at most m primaries are down
                // at every instant (and never during a quorum cut, whose
                // recovery math assumes every primary is reachable after
                // the heal).
                for _ in 0..8 {
                    let w = draw_window(rng, 500);
                    let slot = rng.gen_range(0..dep.primaries().len());
                    let mut down = book.primaries_down_during(w);
                    down.insert(slot);
                    if down.len() <= m
                        && !book.primary_down_in(slot, w)
                        && book.clear_of_quorum_cuts(w)
                    {
                        book.primary_windows.push((w.0, w.1, slot));
                        sched = sched
                            .at(t(w.0), FaultAction::Crash(dep.primaries()[slot]))
                            .at(t(w.1), FaultAction::Recover(dep.primaries()[slot]));
                        break;
                    }
                }
            }
            2 => {
                let (start, end) = draw_window(rng, 500);
                let p = rng.gen_range(0.05..0.25);
                sched = sched
                    .at(t(start), FaultAction::DropProb(p))
                    .at(t(end), FaultAction::DropProb(0.0));
            }
            3 => {
                let (start, end) = draw_window(rng, 500);
                let f = rng.gen_range(1.5..3.0);
                sched = sched
                    .at(t(start), FaultAction::LatencyFactor(f))
                    .at(t(end), FaultAction::LatencyFactor(1.0));
            }
            4 => {
                // Partition a random non-empty subset of secondaries off;
                // primaries, root, and clients stay on the majority side
                // so agreement keeps running.
                for _ in 0..8 {
                    let w = draw_window(rng, 500);
                    if !book.clear_of_partitions(w) {
                        continue;
                    }
                    let mut groups = vec![0u32; total];
                    for &s in &dep.secondaries[1..] {
                        if rng.gen_bool(0.4) {
                            groups[s.0] = 1;
                        }
                    }
                    book.partition_windows.push(w);
                    sched = sched
                        .at(t(w.0), FaultAction::Partition(groups))
                        .at(t(w.1), FaultAction::Heal);
                    break;
                }
            }
            5 => {
                // Flap the link between a random primary and the root.
                let (start, end) = draw_window(rng, 500);
                let p = dep.primaries()[rng.gen_range(0..dep.primaries().len())];
                let period = SimDuration::from_millis(rng.gen_range(300..700));
                sched = sched.flapping_link(p, dep.secondaries[0], 1.0, period, t(start), t(end));
            }
            6 => {
                // Correlated rack outage: an interior secondary and its
                // heap children go dark together.
                let (start, end) = draw_window(rng, 500);
                let rack = [dep.secondaries[1], dep.secondaries[3], dep.secondaries[4]];
                sched = sched.crash_rack(t(start), &rack).recover_rack(t(end), &rack);
            }
            7 => {
                // Island 1..=m primaries (plus a few unlucky secondaries)
                // behind a partition: agreement survives on the majority
                // side, but certificate traffic and tree pushes from the
                // islanded members go nowhere.
                for _ in 0..8 {
                    let w = draw_window(rng, 500);
                    let k = rng.gen_range(1..=m);
                    let mut slots: Vec<usize> = (0..dep.primaries().len()).collect();
                    slots.shuffle(rng);
                    slots.truncate(k);
                    let mut down = book.primaries_down_during(w);
                    down.extend(slots.iter().copied());
                    if down.len() > m || !book.clear_of_partitions(w) {
                        continue;
                    }
                    let mut islanded: Vec<NodeId> =
                        slots.iter().map(|&i| dep.primaries()[i]).collect();
                    for &s in &dep.secondaries[1..] {
                        if rng.gen_bool(0.2) {
                            islanded.push(s);
                        }
                    }
                    for &slot in &slots {
                        book.primary_windows.push((w.0, w.1, slot));
                    }
                    book.partition_windows.push(w);
                    sched = sched.island(total, &islanded, t(w.0), t(w.1));
                    break;
                }
            }
            _ => {
                // Quorum cut: island m + 1 primaries together, so *no*
                // side holds a 2m + 1 agreement quorum. At most one per
                // schedule, never overlapping any other primary outage or
                // partition — the stall oracle samples the frontier
                // inside this window and it must not move.
                if !opts.quorum_cuts || !book.quorum_cuts.is_empty() {
                    continue;
                }
                for _ in 0..8 {
                    let w = draw_window(rng, CUT_MIN_LEN_MS);
                    if w.1 - w.0 < CUT_MIN_LEN_MS
                        || !book.clear_of_partitions(w)
                        || !book.primaries_down_during(w).is_empty()
                    {
                        continue;
                    }
                    let mut slots: Vec<usize> = (0..dep.primaries().len()).collect();
                    slots.shuffle(rng);
                    slots.truncate(m + 1);
                    let islanded: Vec<NodeId> = slots.iter().map(|&i| dep.primaries()[i]).collect();
                    book.partition_windows.push(w);
                    book.quorum_cuts.push(w);
                    sched = sched.island(total, &islanded, t(w.0), t(w.1));
                    break;
                }
            }
        }
    }
    (sched, book.quorum_cuts)
}

/// One checkpoint of the interleaved replay.
enum Op {
    /// Submit update number `i`.
    Submit(usize),
    /// Sample the committed frontier inside quorum cut `j` (start side).
    CutBefore(usize),
    /// Re-sample inside quorum cut `j` just before its heal and assert
    /// the frontier did not move.
    CutAfter(usize),
}

/// Runs one seeded fuzz iteration and returns its outcome. Same seed and
/// opts, same outcome — a failing seed is a bug report.
pub fn run_fuzz(seed: u64, opts: &FuzzOpts) -> FuzzOutcome {
    run_fuzz_with_deployment(seed, opts).0
}

/// [`run_fuzz`], but also hands back the final deployment so a failing
/// seed can be dissected (views, stores, pending queues) instead of just
/// reported.
pub fn run_fuzz_with_deployment(seed: u64, opts: &FuzzOpts) -> (FuzzOutcome, Deployment) {
    let dep = build_deployment(&DeploymentOpts { seed, ..opts.deployment.clone() });
    fuzz_deployment(seed, opts, dep)
}

/// One seeded fuzz iteration against a deployment the caller built from
/// `opts.deployment` with `seed` — the bare roles or whatever was
/// wrapped around them; schedule and oracle are the same for every node
/// type. Panics on more than one ring (see [`FuzzOpts::deployment`]).
pub fn fuzz_deployment<N: RoleHost>(
    seed: u64,
    opts: &FuzzOpts,
    mut dep: Deployment<N>,
) -> (FuzzOutcome, Deployment<N>) {
    assert!(dep.rings.len() == 1, "the generator books outages against ring 0 only");
    assert!(opts.updates >= 1, "need at least the final update");
    assert!(
        opts.final_submit_ms + 1_000 < opts.turbulence_ms,
        "no room for post-submit turbulence"
    );
    assert!(opts.horizon_ms > opts.turbulence_ms + 2_000, "settle window too small");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0F0A_A5EE_D0DD_BA11);
    let (schedule, quorum_cuts) = random_schedule(&mut rng, opts, &dep);
    let object = Guid::from_label(&format!("fuzz-{seed}"));

    // The cursor applies each fault exactly once while we interleave
    // update submissions and in-cut frontier samples at their instants.
    let mut cursor = ScheduleCursor::new(schedule.clone());
    let mut trace = Vec::new();
    let mut ops: Vec<(u64, Op)> = (1..opts.updates)
        .map(|i| (rng.gen_range(500..opts.final_submit_ms), Op::Submit(i)))
        .collect();
    ops.push((opts.final_submit_ms, Op::Submit(0)));
    for (j, &(start, end)) in quorum_cuts.iter().enumerate() {
        ops.push((start + CUT_SAMPLE_MARGIN_MS, Op::CutBefore(j)));
        ops.push((end - 1, Op::CutAfter(j)));
    }
    ops.sort_by_key(|(at, _)| *at);

    let mut cut_frontiers: Vec<Option<u64>> = vec![None; quorum_cuts.len()];
    let mut stall_report = InvariantReport::default();
    for (at, op) in ops {
        trace.extend(cursor.run_to(&mut dep.sim, t(at)));
        match op {
            Op::Submit(i) => {
                let mut payload = format!("fuzz-{seed}-update-{i}").into_bytes();
                payload.resize(payload.len().max(opts.payload_len), 0);
                let update = append(&payload);
                dep.submit(dep.clients[0], object, &update);
            }
            Op::CutBefore(j) => cut_frontiers[j] = Some(dep.frontier(&object)),
            Op::CutAfter(j) => {
                let before = cut_frontiers[j].expect("before-sample precedes after-sample");
                let after = dep.frontier(&object);
                let (s, e) = quorum_cuts[j];
                stall_report = stall_report.merge(check_frontier_stalled(
                    &format!("quorum cut [{s}ms, {e}ms)"),
                    before,
                    after,
                ));
            }
        }
    }
    // Everything heals by the deadline; the settle window lets gap pulls
    // and anti-entropy flush every stale node.
    trace.extend(cursor.run_to(&mut dep.sim, t(opts.turbulence_ms)));
    trace.extend(cursor.run_to(&mut dep.sim, t(opts.horizon_ms)));

    let report = check_convergence(&dep, &[object])
        .merge(check_no_committed_loss(&dep, &object, opts.updates as u64))
        .merge(check_clients_settled(&dep))
        .merge(check_every_commit_certifies(&dep, &[object]))
        .merge(check_no_uncertified_records(&dep))
        .merge(stall_report);
    let outcome = FuzzOutcome {
        seed,
        schedule,
        quorum_cuts,
        trace,
        fingerprint: stats_fingerprint(&dep.sim),
        report,
    };
    (outcome, dep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn dep_for(seed: u64, opts: &FuzzOpts) -> Deployment {
        build_deployment(&DeploymentOpts { seed, ..opts.deployment.clone() })
    }

    #[test]
    #[should_panic(expected = "ring 0 only")]
    fn multi_ring_deployments_are_refused() {
        let opts = FuzzOpts {
            deployment: DeploymentOpts { rings: 2, ..DeploymentOpts::default() },
            ..FuzzOpts::default()
        };
        run_fuzz(0, &opts);
    }

    #[test]
    fn generated_schedules_heal_by_the_deadline() {
        let opts = FuzzOpts::default();
        for seed in 0..20 {
            let dep = dep_for(seed, &opts);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (sched, _) = random_schedule(&mut rng, &opts, &dep);
            // Every event sits inside the turbulence window.
            for (at, _) in sched.events() {
                assert!(*at <= t(opts.turbulence_ms), "event past deadline in seed {seed}");
            }
            // Crash/recover counts balance per node.
            let mut balance: HashMap<usize, i64> = HashMap::new();
            for (_, a) in sched.events() {
                match a {
                    FaultAction::Crash(n) => *balance.entry(n.0).or_default() += 1,
                    FaultAction::Recover(n) => *balance.entry(n.0).or_default() -= 1,
                    _ => {}
                }
            }
            assert!(balance.values().all(|&v| v == 0), "unbalanced crash in seed {seed}");
        }
    }

    #[test]
    fn schedule_generation_is_deterministic() {
        let opts = FuzzOpts::default();
        let dep = build_deployment(&DeploymentOpts::default());
        let a = random_schedule(&mut ChaCha8Rng::seed_from_u64(7), &opts, &dep);
        let b = random_schedule(&mut ChaCha8Rng::seed_from_u64(7), &opts, &dep);
        assert_eq!(a, b);
    }

    /// The first fault group is drawn past the final submit, so every
    /// schedule stresses end-of-run delivery.
    #[test]
    fn turbulence_extends_past_the_final_submit() {
        let opts = FuzzOpts::default();
        for seed in 0..20 {
            let dep = dep_for(seed, &opts);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (sched, _) = random_schedule(&mut rng, &opts, &dep);
            assert!(
                sched.events().iter().any(|(at, _)| *at >= t(opts.final_submit_ms)),
                "seed {seed}: no fault event at or after the final submit"
            );
        }
    }

    /// With m >= 2 the generator produces genuinely *overlapping* primary
    /// outage windows (the old rule capped total crash groups at m, so
    /// two could never overlap).
    #[test]
    fn overlapping_primary_outages_are_generated_at_m2() {
        let opts = FuzzOpts {
            deployment: DeploymentOpts { m: 2, ..DeploymentOpts::default() },
            faults: 8,
            ..FuzzOpts::default()
        };
        let mut saw_overlap = false;
        for seed in 0..40 {
            let dep = dep_for(seed, &opts);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (sched, _) = random_schedule(&mut rng, &opts, &dep);
            // Reconstruct per-primary outage windows from the schedule.
            let mut open: HashMap<usize, u64> = HashMap::new();
            let mut windows: Vec<(u64, u64)> = Vec::new();
            let primary_set: std::collections::HashSet<usize> =
                dep.primaries().iter().map(|p| p.0).collect();
            for (at, a) in sched.events() {
                match a {
                    FaultAction::Crash(n) if primary_set.contains(&n.0) => {
                        open.insert(n.0, at.as_micros());
                    }
                    FaultAction::Recover(n) if primary_set.contains(&n.0) => {
                        if let Some(s) = open.remove(&n.0) {
                            windows.push((s, at.as_micros()));
                        }
                    }
                    _ => {}
                }
            }
            for i in 0..windows.len() {
                for j in i + 1..windows.len() {
                    if overlaps(windows[i], windows[j]) {
                        saw_overlap = true;
                    }
                }
            }
        }
        assert!(saw_overlap, "40 m=2 seeds never overlapped two primary outages");
    }

    /// Quorum cuts are drawn, island exactly m + 1 primaries, and never
    /// collide with other primary outages or partitions.
    #[test]
    fn quorum_cuts_are_generated_and_isolated() {
        let opts = FuzzOpts::default();
        let mut saw_cut = false;
        for seed in 0..40 {
            let dep = dep_for(seed, &opts);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (sched, cuts) = random_schedule(&mut rng, &opts, &dep);
            for &(start, end) in &cuts {
                saw_cut = true;
                assert!(end - start >= CUT_MIN_LEN_MS, "seed {seed}: cut too short to sample");
                // The partition event at the cut start islands m + 1
                // primaries.
                let group = sched
                    .events()
                    .iter()
                    .find_map(|(at, a)| match a {
                        FaultAction::Partition(g) if *at == t(start) => Some(g.clone()),
                        _ => None,
                    })
                    .expect("cut start has a partition event");
                let islanded = dep.primaries().iter().filter(|p| group[p.0] == 1).count();
                assert_eq!(islanded, dep.cfg().m + 1, "seed {seed}: cut islands wrong count");
                // No primary crash window may overlap the cut.
                for (at, a) in sched.events() {
                    if let FaultAction::Crash(n) = a {
                        if dep.primaries().contains(n) {
                            let at = at.as_micros() / 1_000;
                            assert!(
                                !(start..end).contains(&at),
                                "seed {seed}: primary crash inside quorum cut"
                            );
                        }
                    }
                }
            }
        }
        assert!(saw_cut, "40 seeds never drew a quorum cut");
    }
}
