//! Properties of the object → consensus-ring assignment.
//!
//! The router is the only thing standing between "N independent rings"
//! and split-brain: clients, primaries, and secondaries each compute ring
//! ownership locally, so the mapping must be *total* (every AGUID routes
//! somewhere in range), *stable* (any two parties that agree on the ring
//! count agree on every assignment — a reconfiguration that preserves the
//! ring count moves no objects), and *balanced* (no ring becomes a
//! hotspot by construction). The secondaries route by it too: the last
//! two tests check that they ack a push to the ring that owns the object
//! and ask that ring to repair one that was lost.

use oceanstore_naming::guid::Guid;
use oceanstore_replica::{build_deployment, DeploymentOpts, SecondaryConfig, ShardRouter};
use oceanstore_sim::SimDuration;
use oceanstore_update::update::Action;
use oceanstore_update::Update;
use proptest::prelude::*;
use rand::RngCore;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Total: every GUID routes, and always to a ring that exists.
    #[test]
    fn routing_is_total_and_in_range(bytes in any::<[u8; 20]>(), rings in 1usize..=64) {
        let g = Guid::from_bytes(bytes);
        prop_assert!(ShardRouter::new(rings).ring_of(&g) < rings);
    }

    /// Stable under ring-count-preserving reconfiguration: a rebuilt
    /// router with the same ring count (new tier keys, new membership —
    /// none of which the router sees) assigns every object identically,
    /// and repeated queries of one router never disagree.
    #[test]
    fn routing_is_stable_across_reconfiguration(
        seeds in proptest::collection::vec(any::<[u8; 20]>(), 1..64),
        rings in 1usize..=64,
    ) {
        let before = ShardRouter::new(rings);
        let after = ShardRouter::new(rings); // the "reconfigured" deployment
        for bytes in seeds {
            let g = Guid::from_bytes(bytes);
            let owner = before.ring_of(&g);
            prop_assert_eq!(owner, before.ring_of(&g), "self-agreement");
            prop_assert_eq!(owner, after.ring_of(&g), "cross-reconfiguration agreement");
        }
    }

    /// The single-ring degenerate case routes everything to ring 0 — the
    /// compatibility guarantee every pre-sharding test relies on.
    #[test]
    fn single_ring_is_identity(bytes in any::<[u8; 20]>()) {
        prop_assert_eq!(ShardRouter::new(1).ring_of(&Guid::from_bytes(bytes)), 0);
    }
}

/// Balanced: over 100k random AGUIDs at 16 rings the most-loaded ring
/// carries at most 1.5× the least-loaded one. The expected load is 6250
/// per ring with a binomial standard deviation of ~76, so a correct
/// uniform hash sits near 1.05 — 1.5 only fails if the mix is broken.
#[test]
fn sixteen_rings_balance_within_ratio() {
    const GUIDS: usize = 100_000;
    const RINGS: usize = 16;
    let router = ShardRouter::new(RINGS);
    let mut rng = ChaCha8Rng::seed_from_u64(0x5ead);
    let mut counts = [0u64; RINGS];
    for _ in 0..GUIDS {
        let mut bytes = [0u8; 20];
        rng.fill_bytes(&mut bytes);
        counts[router.ring_of(&Guid::from_bytes(bytes))] += 1;
    }
    let max = *counts.iter().max().unwrap();
    let min = *counts.iter().min().unwrap();
    assert!(min > 0, "an empty ring at 100k draws means the hash is broken");
    let ratio = max as f64 / min as f64;
    assert!(ratio <= 1.5, "load imbalance {ratio:.3} (counts {counts:?})");
}

/// Balance also holds for structured (labeled) GUIDs, not just uniformly
/// random ones — real AGUIDs are SHA-1 of meaningful names.
#[test]
fn labeled_guids_balance_within_ratio() {
    const GUIDS: usize = 100_000;
    const RINGS: usize = 16;
    let router = ShardRouter::new(RINGS);
    let mut counts = [0u64; RINGS];
    for i in 0..GUIDS {
        counts[router.ring_of(&Guid::from_label(&format!("tenant-{}/obj-{i}", i % 7)))] += 1;
    }
    let max = *counts.iter().max().unwrap();
    let min = *counts.iter().min().unwrap();
    let ratio = max as f64 / min.max(1) as f64;
    assert!(ratio <= 1.5, "load imbalance {ratio:.3} (counts {counts:?})");
}

/// The shared tree root acks a push to the ring that sent it. With every
/// secondary acking ring 0 only, a healthy ring 1 re-pushed each of its
/// records to the retry cap from all four members (128 resends here).
#[test]
fn every_ring_gets_its_pushes_acked() {
    const RINGS: usize = 2;
    const PER_RING: usize = 8;
    let mut dep = build_deployment(&DeploymentOpts {
        rings: RINGS,
        secondaries: 14,
        seed: 17,
        ..DeploymentOpts::default()
    });
    let mut objects: Vec<Vec<Guid>> = vec![Vec::new(); RINGS];
    for g in (0..).map(|i| Guid::from_label(&format!("acked-{i}"))) {
        let owned = &mut objects[dep.ring_of(&g)];
        if owned.len() < PER_RING {
            owned.push(g);
        }
        if objects.iter().all(|o| o.len() == PER_RING) {
            break;
        }
    }
    for &g in objects.iter().flatten() {
        let append = Update::unconditional(vec![Action::Append { ciphertext: vec![7; 8] }]);
        dep.submit(dep.clients[0], g, &append);
    }
    dep.sim.run_for(SimDuration::from_secs(30));
    for (r, ring) in dep.rings.iter().enumerate() {
        for g in &objects[r] {
            assert_eq!(dep.frontier(g), 1, "ring {r} committed its append");
        }
        let resends: u64 = ring.primaries.iter().map(|&p| dep.primary(p).repush_resend_count()).sum();
        assert_eq!(resends, 0, "ring {r} re-pushed records the root already held");
    }
}

/// A push lost on the tier→tree edge is repaired whichever ring it came
/// from. With the root's anti-entropy going to its parent only — a ring-0
/// primary, which answers for ring 0's objects alone — a ring-1 record
/// that missed the root was never repaired: nobody below the root holds
/// it either. The ring's links to the root stay cut until its re-push
/// budget has run out, so the repair after the heal is anti-entropy's.
#[test]
fn lost_push_is_repaired_for_every_ring() {
    const RINGS: usize = 2;
    for lossy in 0..RINGS {
        let opts = DeploymentOpts { rings: RINGS, seed: 23, ..DeploymentOpts::default() };
        let mut dep = build_deployment(&opts);
        let object = (0..)
            .map(|i| Guid::from_label(&format!("lost-push-{i}")))
            .find(|g| dep.ring_of(g) == lossy)
            .expect("some label routes to each ring");
        let root = dep.secondaries[0];
        let links = dep.rings[lossy].primaries.clone();
        for &p in &links {
            dep.sim.set_link_drop(p, root, 1.0);
        }
        let append = Update::unconditional(vec![Action::Append { ciphertext: vec![7; 8] }]);
        dep.submit(dep.clients[0], object, &append);
        while !links.iter().any(|&p| dep.primary(p).has_cert(&object, 0)) {
            dep.sim.run_for(SimDuration::from_millis(10));
        }
        assert_eq!(dep.frontier(&object), 1, "ring {lossy} committed its append");
        // Observers arm one delivery after the disseminator; the second
        // latency is slack for the last deadline to fire.
        dep.sim.run_for(dep.primary(links[0]).repush_span() + opts.latency + opts.latency);
        assert!(dep.sim.stats().event("repush/exhausted") >= 1, "ring {lossy} never gave up");
        for &p in &links {
            dep.sim.set_link_drop(p, root, 0.0);
        }
        let healed = dep.sim.now();
        let period = SecondaryConfig::default().anti_entropy_interval;
        while dep.secondary(root).store.get(&object).is_none_or(|st| st.next_index == 0) {
            assert!(
                dep.sim.now().saturating_since(healed) <= period + period,
                "ring {lossy}'s record missed the root two anti-entropy periods after the heal"
            );
            dep.sim.run_for(SimDuration::from_millis(10));
        }
        dep.sim.run_for(SimDuration::from_secs(20));
        for &s in &dep.secondaries {
            let held = dep.secondary(s).store.get(&object).map_or(0, |st| st.next_index);
            assert_eq!(held, 1, "ring {lossy}'s record never reached secondary {s:?}");
        }
    }
}

/// A request lost on its way to the ring that owns its object commits
/// through the client's retransmission, and the other ring never hears
/// of it: the client offers each deadline to every ring, and only the
/// ring that holds the request pending sends it again.
#[test]
fn a_lost_request_is_retransmitted_to_its_own_ring_only() {
    const RINGS: usize = 2;
    for owner in 0..RINGS {
        let opts = DeploymentOpts { rings: RINGS, seed: 29, ..DeploymentOpts::default() };
        let mut dep = build_deployment(&opts);
        let object = (0..)
            .map(|i| Guid::from_label(&format!("retransmit-{i}")))
            .find(|g| dep.ring_of(g) == owner)
            .expect("some label routes to each ring");
        let client = dep.clients[0];
        let links = dep.rings[owner].primaries.clone();
        for &p in &links {
            dep.sim.set_link_drop(client, p, 1.0);
        }
        let append = Update::unconditional(vec![Action::Append { ciphertext: vec![7; 8] }]);
        let id = dep.submit(client, object, &append);
        // Shorter than the retransmission period (60 × latency).
        dep.sim.run_for(SimDuration::from_secs(1));
        assert!(dep.outcome(id).is_none(), "ring {owner} heard the request through the cut");
        for &p in &links {
            dep.sim.set_link_drop(client, p, 0.0);
        }
        dep.sim.run_for(SimDuration::from_secs(5));
        assert!(dep.outcome(id).is_some(), "ring {owner} never committed the retransmission");
        assert_eq!(dep.frontier(&object), 1);
        let sent = dep.sim.stats().class_sent_by(client, "pbft/request").messages;
        assert_eq!(sent, 2 * links.len() as u64, "one send and one retransmission, to {owner}");
        for &p in &dep.rings[1 - owner].primaries {
            assert_eq!(dep.primary(p).pbft().executed_seen(), 0, "ring {} executed it", 1 - owner);
        }
    }
}
