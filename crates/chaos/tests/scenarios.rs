//! The chaos scenario suite — CI runs this as its own named job.
//!
//! Acceptance criteria from the robustness milestone:
//! * crashing an interior dissemination-tree node mid-stream passes the
//!   invariant checks (surviving secondaries converge, zero
//!   committed-update loss) and every orphan re-parents off the dead
//!   node;
//! * every scenario is deterministic: the same seed and schedule produce
//!   an identical event trace and identical network statistics.

use oceanstore_chaos::scenarios;

#[test]
fn interior_crash_with_reparenting_converges() {
    let out = scenarios::interior_crash(42);
    assert!(out.report.passed(), "invariants failed: {:#?}", out.report.failures);
    assert!(!out.trace.is_empty(), "the crash must appear in the trace");
}

#[test]
fn interior_crash_is_deterministic() {
    let a = scenarios::interior_crash(7);
    let b = scenarios::interior_crash(7);
    assert_eq!(a.trace, b.trace, "event traces diverged between replays");
    assert_eq!(a.fingerprint, b.fingerprint, "network stats diverged between replays");
}

#[test]
fn different_seeds_change_the_stats_but_not_the_verdict() {
    let a = scenarios::interior_crash(1);
    let b = scenarios::interior_crash(2);
    assert!(a.report.passed(), "{:#?}", a.report.failures);
    assert!(b.report.passed(), "{:#?}", b.report.failures);
    assert_ne!(a.fingerprint, b.fingerprint, "different seeds should shuffle the run");
}

#[test]
fn partitioned_subtree_catches_up_after_heal() {
    let out = scenarios::partition_and_heal(11);
    assert!(out.report.passed(), "invariants failed: {:#?}", out.report.failures);
}

#[test]
fn drop_burst_with_slow_links_converges() {
    let out = scenarios::drop_burst(5);
    assert!(out.report.passed(), "invariants failed: {:#?}", out.report.failures);
}

/// Link loss and re-parenting in one window: before the re-attach pull
/// was ordered, one seed gave a different network fingerprint from run
/// to run inside one process (hash-map iteration order).
#[test]
fn lossy_tree_with_interior_down_converges_and_is_deterministic() {
    let a = scenarios::lossy_tree_interior_down(3);
    let b = scenarios::lossy_tree_interior_down(3);
    assert!(a.report.passed(), "invariants failed: {:#?}", a.report.failures);
    assert_eq!(a.trace, b.trace, "event traces diverged between replays");
    assert_eq!(a.fingerprint, b.fingerprint, "network stats diverged between replays");
}

#[test]
fn leader_crash_view_changes_and_tree_rewires() {
    let out = scenarios::leader_crash_view_change(3);
    assert!(out.report.passed(), "invariants failed: {:#?}", out.report.failures);
}

#[test]
fn disseminator_crash_passes_with_failover() {
    let out = scenarios::disseminator_crash(7);
    assert!(out.report.passed(), "invariants failed: {:#?}", out.report.failures);
}

#[test]
fn disseminator_crash_is_deterministic() {
    let a = scenarios::disseminator_crash(21);
    let b = scenarios::disseminator_crash(21);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.fingerprint, b.fingerprint);
}

#[test]
fn byzantine_secondary_never_pollutes_honest_stores() {
    let out = scenarios::byzantine_secondary(9);
    assert!(out.report.passed(), "invariants failed: {:#?}", out.report.failures);
}

#[test]
fn byzantine_secondary_with_large_updates_never_pollutes_honest_stores() {
    let out = scenarios::byzantine_secondary_with(9, 1024);
    assert!(out.report.passed(), "invariants failed: {:#?}", out.report.failures);
}

#[test]
fn rack_failure_recovers_and_catches_up() {
    let out = scenarios::rack_failure(17);
    assert!(out.report.passed(), "invariants failed: {:#?}", out.report.failures);
    assert!(out.trace.len() >= 6, "three crashes and three recoveries must trace");
}

#[test]
fn flapping_root_link_still_converges() {
    let out = scenarios::link_flap(19);
    assert!(out.report.passed(), "invariants failed: {:#?}", out.report.failures);
}

#[test]
fn locate_survives_root_crash_and_drop_burst() {
    let out = scenarios::locate_under_churn(13);
    assert!(out.report.passed(), "invariants failed: {:#?}", out.report.failures);
}

#[test]
fn locate_scenario_is_deterministic() {
    let a = scenarios::locate_under_churn(13);
    let b = scenarios::locate_under_churn(13);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.fingerprint, b.fingerprint);
}

#[test]
fn provider_loss_keeps_every_committed_byte_readable() {
    let out = scenarios::provider_loss(29);
    assert!(out.report.passed(), "invariants failed: {:#?}", out.report.failures);
}

#[test]
fn provider_loss_is_deterministic() {
    let a = scenarios::provider_loss(29);
    let b = scenarios::provider_loss(29);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.fingerprint, b.fingerprint);
}

#[test]
fn quorum_loss_stalls_then_recovers() {
    let out = scenarios::quorum_loss(23);
    assert!(out.report.passed(), "invariants failed: {:#?}", out.report.failures);
}

#[test]
fn quorum_loss_is_deterministic() {
    let a = scenarios::quorum_loss(23);
    let b = scenarios::quorum_loss(23);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.fingerprint, b.fingerprint);
}
