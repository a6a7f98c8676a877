//! Parallel-scheduler determinism matrix — CI runs this as the
//! `sim-parallel` job.
//!
//! Every test drives a full OceanStore deployment (consensus ring,
//! dissemination tree, clients) through a fault schedule at several
//! worker-thread counts and asserts the chaos fingerprint is
//! byte-for-byte identical. The seed sweep width is tunable: CI sets
//! `CHAOS_PAR_SEEDS` (the issue bar is 120) without a code change.

use oceanstore_chaos::scenarios::append;
use oceanstore_chaos::{run_schedule, stats_fingerprint, FaultAction, Schedule};
use oceanstore_naming::guid::Guid;
use oceanstore_replica::{build_deployment, DeploymentOpts};
use oceanstore_sim::{ParCoverage, SimDuration, SimTime};

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// Seeds per sweep (env `CHAOS_PAR_SEEDS`, default 12; CI sets 120).
fn sweep_seeds() -> u64 {
    std::env::var("CHAOS_PAR_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(12)
}

/// One full chaos run at a given worker count: commit traffic, a crash,
/// a partition + heal, a latency stretch, and a random-drop burst plus a
/// link flap. Drop decisions are counter-mode hashes of each routing
/// attempt (DESIGN.md §11), so the scheduler stays sharded straight
/// through the drop phases — the coverage counters returned alongside
/// the trace prove it. Returns the replayable trace, the stats
/// fingerprint, and the epoch coverage.
fn run_matrix_case(seed: u64, threads: usize) -> (String, String, ParCoverage) {
    let mut dep = build_deployment(&DeploymentOpts {
        latency: SimDuration::from_millis(20),
        seed,
        ..DeploymentOpts::default()
    });
    dep.sim.set_threads(threads);
    let object = Guid::from_label("chaos-parallel");
    let total = dep.sim.len();
    let mut groups = vec![0u32; total];
    groups[dep.secondaries[2].0] = 1;
    groups[dep.secondaries[5].0] = 1;

    dep.submit(dep.clients[0], object, &append(b"pre-fault"));
    let sched = Schedule::new()
        .at(t(1_000), FaultAction::Crash(dep.secondaries[1]))
        .at(t(2_000), FaultAction::Partition(groups))
        .at(t(2_500), FaultAction::LatencyFactor(2.0))
        .at(t(4_000), FaultAction::Heal)
        .at(t(4_500), FaultAction::Recover(dep.secondaries[1]))
        .at(t(5_000), FaultAction::DropProb(0.15))
        .at(t(5_000), FaultAction::LinkDrop(dep.secondaries[0], dep.secondaries[3], 0.5))
        .at(t(6_000), FaultAction::DropProb(0.0))
        .at(t(6_000), FaultAction::LinkDrop(dep.secondaries[0], dep.secondaries[3], 0.0))
        .at(t(6_000), FaultAction::LatencyFactor(1.0));
    let mut trace = run_schedule(&mut dep.sim, &sched, t(3_000));
    dep.submit(dep.clients[0], object, &append(b"mid-fault"));
    // Pause exactly around the drop burst so the coverage delta below
    // measures the drops-active phase in isolation.
    trace.extend(run_schedule(&mut dep.sim, &sched, t(5_500)));
    let before = dep.sim.par_coverage();
    trace.extend(run_schedule(&mut dep.sim, &sched, t(6_000)));
    let during = dep.sim.par_coverage();
    trace.extend(run_schedule(&mut dep.sim, &sched, t(12_000)));
    let drop_phase = ParCoverage {
        windows_parallel: during.windows_parallel - before.windows_parallel,
        windows_inline: during.windows_inline - before.windows_inline,
        fallback_entries: during.fallback_entries - before.fallback_entries,
        fallback_events: during.fallback_events - before.fallback_events,
        serial_nanos: during.serial_nanos - before.serial_nanos,
        epoch_nanos: during.epoch_nanos - before.epoch_nanos,
    };
    (format!("{trace:?}"), stats_fingerprint(&dep.sim), drop_phase)
}

/// The headline matrix: threads ∈ {1, 2, 8} over the seed sweep, every
/// trace and fingerprint byte-identical to the sequential run — and the
/// drops-active window (5s–6s, `drop_prob` 0.15 + a 0.5 link flap) runs
/// with parallel coverage, never the sequential fallback.
#[test]
fn fingerprints_are_identical_across_thread_counts() {
    for seed in 0..sweep_seeds() {
        let (seq_trace, seq_fp, seq_cov) = run_matrix_case(seed, 1);
        assert_eq!(seq_cov, ParCoverage::default(), "seed {seed}: sequential run used ParState");
        for threads in [2usize, 8] {
            let (trace, fp, cov) = run_matrix_case(seed, threads);
            assert_eq!(trace, seq_trace, "seed {seed} threads {threads}: trace diverged");
            assert_eq!(fp, seq_fp, "seed {seed} threads {threads}: fingerprint diverged");
            assert!(
                cov.windows_parallel + cov.windows_inline > 0,
                "seed {seed} threads {threads}: drop phase scheduled no parallel windows"
            );
            assert_eq!(
                cov.fallback_entries, 0,
                "seed {seed} threads {threads}: drop phase fell back to sequential"
            );
        }
    }
}

/// Same seed, same thread count, run twice: the parallel scheduler must
/// also be self-deterministic (no dependence on OS scheduling).
#[test]
fn parallel_runs_are_self_deterministic() {
    for seed in [5u64, 23] {
        // Coverage wall-clock nanos legitimately vary run to run; the
        // trace and fingerprint must not.
        let (trace_a, fp_a, _) = run_matrix_case(seed, 8);
        let (trace_b, fp_b, _) = run_matrix_case(seed, 8);
        assert_eq!(trace_a, trace_b, "seed {seed}: parallel trace not reproducible");
        assert_eq!(fp_a, fp_b, "seed {seed}: parallel stats not reproducible");
    }
}
