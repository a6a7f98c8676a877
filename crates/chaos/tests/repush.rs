//! Tier→tree push-loss recovery.
//!
//! The tier→tree edge used to be fire-and-forget: the disseminator
//! pushed each certified record to its tree children exactly once, and a
//! dropped push waited for the next epidemic anti-entropy period
//! (hundreds of milliseconds) to repair. With acked re-push the
//! disseminator — and, on watchdog expiry, any primary observing an
//! unacked record — retries on an exponential backoff until the child
//! acks, recovering in about one RTT plus a backoff step.
//!
//! These tests pin both sides of that claim: with re-push enabled a
//! fully dropped (disseminator, root) link recovers within a few retry
//! deadlines; with re-push disabled the same drop takes an anti-entropy
//! period (the regression guard that keeps the epidemic fallback alive).
//! Both set [`DeploymentOpts::repush`] explicitly.

use oceanstore_chaos::scenarios::append;
use oceanstore_naming::guid::Guid;
use oceanstore_replica::{build_deployment, disseminator_for, Deployment, DeploymentOpts};
use oceanstore_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// An object whose record-0 disseminator is not primary 0 (the tree
/// root's anti-entropy parent): the dead link must isolate the *push*
/// path without also cutting the root's anti-entropy path.
fn object_off_parent(n: usize, tag: &str) -> Guid {
    (0..)
        .map(|k| Guid::from_label(&format!("{tag}-{k}")))
        .find(|g| disseminator_for(n, g, 0, 0) != 0)
        .expect("some label dodges primary 0")
}

/// Steps the simulation until the tree root holds committed record 0 of
/// `object`; returns the time in ms, or `None` if `deadline_ms` passes
/// first.
fn recovery_ms(dep: &mut Deployment, object: &Guid, deadline_ms: u64) -> Option<u64> {
    let root = dep.secondaries[0];
    let mut now = 0;
    while now < deadline_ms {
        now += 10;
        dep.sim.run_until(SimTime::ZERO + SimDuration::from_millis(now));
        if dep.secondary(root).store.get(object).is_some_and(|st| st.next_index >= 1) {
            return Some(now);
        }
    }
    None
}

/// Re-push enabled, anti-entropy pushed out to 60 s so it cannot help:
/// a fully dropped (disseminator, root) link must recover via the acked
/// re-push path — here the observer watchdogs on the other primaries,
/// since the disseminator's own retries die on the same dead link —
/// within a few retry deadlines, not an anti-entropy period.
#[test]
fn dropped_push_recovers_via_repush_within_retry_deadlines() {
    let mut dep = build_deployment(&DeploymentOpts {
        latency: SimDuration::from_millis(20),
        anti_entropy: Some(SimDuration::from_secs(60)),
        repush: true,
        seed: 5,
        ..DeploymentOpts::default()
    });
    let n = dep.primaries().len();
    let object = object_off_parent(n, "repush-on");
    let dissem = dep.primaries()[disseminator_for(n, &object, 0, 0)];
    let root = dep.secondaries[0];
    dep.sim.set_link_drop(dissem, root, 1.0);

    dep.submit(dep.clients[0], object, &append(b"pushed-into-a-dead-link"));
    let rec = recovery_ms(&mut dep, &object, 5_000)
        .expect("re-push never delivered the record to the tree root");
    // Commit + cert ≈ 8 latencies (~160 ms); the observer watchdog adds
    // its 2×ack_timeout grace (120 ms) plus one delivery. Anything past
    // 600 ms means the re-push path did not engage.
    assert!(rec <= 600, "recovery took {rec} ms — not the re-push path");
    let resends = dep.sim.stats().event("repush/resend");
    assert!(resends > 0, "recovery without a single re-push resend");
}

/// Regression guard for the epidemic fallback: with re-push disabled the
/// same dead link must still recover — via the root's anti-entropy
/// exchange with its tier parent — within about one anti-entropy period,
/// and without a single re-push resend.
#[test]
fn dropped_push_recovers_via_anti_entropy_with_repush_disabled() {
    let mut dep = build_deployment(&DeploymentOpts {
        latency: SimDuration::from_millis(20),
        repush: false,
        seed: 5,
        ..DeploymentOpts::default()
    });
    let n = dep.primaries().len();
    let object = object_off_parent(n, "repush-disabled");
    let dissem = dep.primaries()[disseminator_for(n, &object, 0, 0)];
    let root = dep.secondaries[0];
    let clients = dep.clients.clone();
    let fanout = dep.secondaries.len();
    // Seed every secondary with the tentative copy (Figure 5a's epidemic
    // side channel), as a wide-area client would. (Per-object summaries
    // needed it: the root could only mention an object it knew of.)
    for c in clients {
        dep.sim.node_mut(c).as_client_mut().expect("client").set_tentative_fanout(fanout);
    }
    dep.sim.set_link_drop(dissem, root, 1.0);

    dep.submit(dep.clients[0], object, &append(b"left-for-anti-entropy"));
    let rec = recovery_ms(&mut dep, &object, 5_000)
        .expect("anti-entropy never repaired the dropped push");
    // The default anti-entropy period is 500 ms; the first tick after the
    // commit carries the root's digest to its parent, whose summary tells
    // the root what to fetch. Two periods is the tolerance.
    assert!(rec > 200, "recovery at {rec} ms is too fast for the anti-entropy path");
    assert!(rec <= 1_200, "recovery took {rec} ms — more than ~two anti-entropy periods");
    assert_eq!(
        dep.sim.stats().event("repush/resend"),
        0,
        "re-push disabled but resends happened"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property form over seeds and link latencies: the re-push bound
    /// scales with latency (commit + cert ≈ 8 hops, observer grace
    /// 6 hops, delivery 1 hop — 25 hops is generous slack), never with
    /// the anti-entropy period.
    #[test]
    fn dropped_push_recovery_scales_with_latency_not_anti_entropy(
        seed in 0u64..10_000,
        latency_ms in 10u64..40,
    ) {
        let mut dep = build_deployment(&DeploymentOpts {
            latency: SimDuration::from_millis(latency_ms),
            anti_entropy: Some(SimDuration::from_secs(60)),
            repush: true,
            seed,
            ..DeploymentOpts::default()
        });
        let n = dep.primaries().len();
        let object = object_off_parent(n, "repush-prop");
        let dissem = dep.primaries()[disseminator_for(n, &object, 0, 0)];
        let root = dep.secondaries[0];
        dep.sim.set_link_drop(dissem, root, 1.0);

        dep.submit(dep.clients[0], object, &append(b"property-push"));
        let rec = recovery_ms(&mut dep, &object, 60_000);
        let bound = 25 * latency_ms + 100;
        prop_assert!(
            rec.is_some_and(|ms| ms <= bound),
            "seed {} latency {} ms: recovery {:?} exceeds {} ms",
            seed, latency_ms, rec, bound
        );
        prop_assert!(dep.sim.stats().event("repush/resend") > 0, "no resend recorded");
    }
}
