//! Consensus-level rejoin chaos — CI runs the seed sweep as part of the
//! `chaos-fuzz` job.
//!
//! A victim that missed hundreds of slots catches up through the stable
//! checkpoints and state transfer every tier runs, and every replica's
//! retained log stays within its checkpoint bound.

use oceanstore_chaos::rejoin::{late_rejoin, run_rejoin_fuzz, RejoinFuzzOpts};

/// Number of seeds the rejoin sweep covers: a slice of the env-tunable
/// chaos-fuzz width (`CHAOS_FUZZ_SEEDS`, default 50) — each rejoin run
/// commits hundreds of slots, so the sweep stays a fraction of the
/// deployment fuzzer's.
fn sweep_seeds() -> u64 {
    let base: u64 =
        std::env::var("CHAOS_FUZZ_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(50);
    (base / 6).max(4)
}

/// Crash–run–rejoin schedules across the seed sweep: every victim must
/// catch up through state transfer and every replica must stay within
/// the retained-slot bound.
#[test]
fn rejoin_sweep_catches_up_and_stays_bounded() {
    let opts = RejoinFuzzOpts::default();
    let mut wiped = 0u64;
    for seed in 0..sweep_seeds() {
        let out = run_rejoin_fuzz(seed, &opts);
        assert!(
            out.report.passed(),
            "rejoin seed {seed} (victim {:?}, wiped {}, outage {}) broke invariants: {:#?}\n\
             trace: {:#?}",
            out.victim,
            out.wiped,
            out.outage_updates,
            out.report.failures,
            out.trace,
        );
        assert!(
            out.peak_log <= opts.window + opts.interval,
            "rejoin seed {seed}: peak retained log {} above the bound",
            out.peak_log
        );
        wiped += u64::from(out.wiped);
    }
    // The coin must land both ways across the sweep, or half the
    // recovery matrix silently went untested.
    assert!(wiped > 0, "sweep never drew a wiped recovery");
    assert!(wiped < sweep_seeds(), "sweep never drew an intact recovery");
}

/// The canned long-horizon scenario: one replica misses five thousand
/// slots and still rejoins.
#[test]
fn late_rejoin_scenario_passes() {
    let out = late_rejoin(7);
    assert!(out.report.passed(), "late_rejoin broke invariants: {:#?}", out.report.failures);
}

/// Same seed, same run: trace, fingerprint, and verdict.
#[test]
fn rejoin_runs_are_deterministic() {
    let opts = RejoinFuzzOpts::default();
    for seed in [2u64, 9, 23] {
        let a = run_rejoin_fuzz(seed, &opts);
        let b = run_rejoin_fuzz(seed, &opts);
        assert_eq!(a.trace, b.trace, "trace diverged for seed {seed}");
        assert_eq!(a.fingerprint, b.fingerprint, "stats diverged for seed {seed}");
        assert_eq!(a.report.failures, b.report.failures, "verdict diverged for seed {seed}");
    }
}
