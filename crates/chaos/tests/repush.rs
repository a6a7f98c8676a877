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
//! These tests pin both sides of that claim: a fully dropped
//! (disseminator, root) link recovers within a few retry deadlines; and
//! once every primary's link to the root stays cut past the last retry,
//! the heal is repaired by anti-entropy within two of its periods (the
//! regression guard that keeps the epidemic fallback alive).

use oceanstore_chaos::scenarios::append;
use oceanstore_naming::guid::Guid;
use oceanstore_replica::{
    build_deployment, disseminator_for, Deployment, DeploymentOpts, SecondaryConfig,
};
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

/// Anti-entropy pushed out to 60 s so it cannot help:
/// a fully dropped (disseminator, root) link must recover via the acked
/// re-push path — here the observer watchdogs on the other primaries,
/// since the disseminator's own retries die on the same dead link —
/// within a few retry deadlines, not an anti-entropy period.
#[test]
fn dropped_push_recovers_via_repush_within_retry_deadlines() {
    let mut dep = build_deployment(&DeploymentOpts {
        latency: SimDuration::from_millis(20),
        anti_entropy: Some(SimDuration::from_secs(60)),
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

/// Regression guard for the epidemic fallback: every primary's link to
/// the tree root stays cut until the last primary's re-push budget has
/// run out, so re-push gives up with the record still missing at the
/// root. After the heal, the root's anti-entropy exchange with its tier
/// parent must repair the push within two anti-entropy periods, without
/// another re-push.
#[test]
fn dropped_push_recovers_via_anti_entropy_once_repush_gives_up() {
    let latency = SimDuration::from_millis(20);
    let mut dep = build_deployment(&DeploymentOpts { latency, seed: 5, ..DeploymentOpts::default() });
    let primaries = dep.primaries().to_vec();
    let object = object_off_parent(primaries.len(), "repush-exhausted");
    let root = dep.secondaries[0];
    for &p in &primaries {
        dep.sim.set_link_drop(p, root, 1.0);
    }

    dep.submit(dep.clients[0], object, &append(b"left-for-anti-entropy"));
    while !primaries.iter().any(|&p| dep.primary(p).has_cert(&object, 0)) {
        dep.sim.run_for(SimDuration::from_millis(10));
    }
    // Observers arm their schedule one delivery after the disseminator;
    // the second latency is slack for the last deadline to fire.
    let span = dep.primary(primaries[0]).repush_span();
    dep.sim.run_for(span + latency + latency);
    assert!(dep.sim.stats().event("repush/exhausted") >= 1, "the re-push budget never ran out");
    assert!(
        dep.secondary(root).store.get(&object).is_none_or(|st| st.next_index == 0),
        "the record reached the root through a cut link"
    );

    for &p in &primaries {
        dep.sim.set_link_drop(p, root, 0.0);
    }
    let healed = dep.sim.now();
    let resends = dep.sim.stats().event("repush/resend");
    let period = SecondaryConfig::default().anti_entropy_interval;
    while dep.secondary(root).store.get(&object).is_none_or(|st| st.next_index == 0) {
        assert!(
            dep.sim.now().saturating_since(healed) <= period + period,
            "anti-entropy did not repair the push within two periods of the heal"
        );
        dep.sim.run_for(SimDuration::from_millis(10));
    }
    assert_eq!(dep.sim.stats().event("repush/resend"), resends, "a re-push ran after the heal");
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
