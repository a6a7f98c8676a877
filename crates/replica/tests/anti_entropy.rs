//! The anti-entropy exchange: one digest per target per tick, a summary
//! only where two digests differ.
//!
//! The digest's contract is the proptest below: it depends on *what* a
//! node holds and never on the order it is walked in, and any single
//! change to the holdings changes it; a second one holds the store's
//! running half to that definition. The deployments after them check what
//! it buys (an idle, converged tier's background traffic does not depend
//! on how many objects it holds, and is nil before the first write) and
//! what it must not cost (an object a replica never heard of still
//! reaches it).

use std::collections::{BTreeMap, BTreeSet};

use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::Guid;
use oceanstore_replica::{
    build_deployment, frontier_digest, Deployment, DeploymentOpts, ObjectStore, ReplicaMsg,
    SummaryEntry, TentativeId,
};
use oceanstore_sim::{NodeId, SimDuration};
use oceanstore_update::update::Action;
use oceanstore_update::{decode_view, encode_update, update_digest, Update};
use proptest::prelude::*;

/// One node's holdings: committed frontier and tentative ids per object.
type Holdings = (BTreeMap<Guid, u64>, BTreeSet<(Guid, TentativeId)>);

fn digest_of(h: &Holdings, reversed: bool) -> u64 {
    let mut committed: Vec<(&Guid, u64)> = h.0.iter().map(|(g, i)| (g, *i)).collect();
    let mut tentative: Vec<(&Guid, &TentativeId)> = h.1.iter().map(|(g, id)| (g, id)).collect();
    if reversed {
        committed.reverse();
        tentative.reverse();
    }
    frontier_digest(committed.into_iter(), tentative.into_iter())
}

fn holdings() -> impl Strategy<Value = Holdings> {
    let committed = proptest::collection::vec((any::<[u8; 20]>(), 0u64..1_000), 0..24);
    let tentative = proptest::collection::vec((any::<[u8; 20]>(), 0usize..64, any::<u64>()), 0..24);
    (committed, tentative).prop_map(|(c, t)| {
        let committed = c.into_iter().map(|(b, i)| (Guid::from_bytes(b), i)).collect();
        let tentative = t
            .into_iter()
            .map(|(b, client, counter)| {
                (Guid::from_bytes(b), TentativeId { client: NodeId(client), counter })
            })
            .collect();
        (committed, tentative)
    })
}

proptest! {
    #[test]
    fn digest_ignores_order_and_sees_every_single_change(
        held in holdings(),
        fresh in any::<[u8; 20]>(),
        index in 1u64..1_000,
        counter in any::<u64>(),
    ) {
        let base = digest_of(&held, false);
        prop_assert_eq!(base, digest_of(&held, true), "walk order");

        // One index advances.
        if let Some(object) = held.0.keys().next().copied() {
            let mut h = held.clone();
            *h.0.get_mut(&object).expect("just listed") += 1;
            prop_assert_ne!(base, digest_of(&h, false), "one index advanced");
        }
        let fresh = Guid::from_bytes(fresh);
        if !held.0.contains_key(&fresh) {
            // An object that exists but has no commit is as good as absent …
            let mut h = held.clone();
            h.0.insert(fresh, 0);
            prop_assert_eq!(base, digest_of(&h, false), "entry at index 0");
            // … one with a commit is not.
            h.0.insert(fresh, index);
            prop_assert_ne!(base, digest_of(&h, false), "one object appeared");
        }
        // One tentative id added, and taken away again.
        let id = (fresh, TentativeId { client: NodeId(7), counter });
        if !held.1.contains(&id) {
            let mut h = held.clone();
            h.1.insert(id);
            prop_assert_ne!(base, digest_of(&h, false), "one tentative id added");
            h.1.remove(&id);
            prop_assert_eq!(base, digest_of(&h, false), "and removed");
        }
    }
}

/// The digest of a store's objects, recomputed from scratch.
fn recomputed(store: &ObjectStore) -> u64 {
    frontier_digest(store.iter().map(|(g, st)| (g, st.next_index)), std::iter::empty())
}

proptest! {
    /// A store keeps the committed half of its digest as indices advance
    /// instead of walking its objects per tick. Whatever order records
    /// are serialized and replayed in — gaps, duplicates and objects only
    /// touched included — it equals the digest recomputed from scratch.
    #[test]
    fn running_digest_equals_the_recomputed_one(
        steps in proptest::collection::vec((0usize..6, 0usize..4, any::<bool>()), 1..60),
    ) {
        let objects: Vec<Guid> =
            (0..6).map(|i| Guid::from_label(&format!("running-{i}"))).collect();
        let (mut primary, mut replica) = (ObjectStore::new(), ObjectStore::new());
        let mut log: Vec<Vec<_>> = vec![Vec::new(); objects.len()];
        for (counter, (o, back, touch_only)) in steps.into_iter().enumerate() {
            let object = objects[o];
            if touch_only {
                replica.entry(object);
            } else {
                let id = TentativeId { client: NodeId(9), counter: counter as u64 };
                let encoded = Bytes::from(encode_update(&append()));
                let update = decode_view(&encoded).expect("decodes");
                let name = update_digest(&update);
                log[o].push(primary.serialize_update(object, update, name, encoded, 0, id));
            }
            // Replay some record of this object — the next one, an old
            // one again, or one past a gap.
            if let Some(record) = log[o].len().checked_sub(1 + back).map(|at| &log[o][at]) {
                let update = decode_view(&record.update).expect("decodes");
                let name = update_digest(&update);
                replica.apply_record(record.clone(), update, name, |_| {});
            }
            prop_assert_eq!(primary.committed_digest(), recomputed(&primary));
            prop_assert_eq!(replica.committed_digest(), recomputed(&replica));
        }
    }
}

fn append() -> Update {
    Update::unconditional(vec![Action::Append { ciphertext: vec![7; 8] }])
}

/// `(messages, bytes)` of class `replica/antientropy` over ten idle
/// seconds of a converged single-ring deployment holding `objects`
/// objects.
fn idle_anti_entropy(objects: usize) -> (u64, u64) {
    let opts = DeploymentOpts { secondaries: 14, seed: 3, ..Default::default() };
    let mut dep = build_deployment(&opts);
    let guids: Vec<Guid> = (0..objects).map(|i| Guid::from_label(&format!("idle-{i}"))).collect();
    for g in &guids {
        dep.submit(dep.clients[0], *g, &append());
    }
    dep.sim.run_for(SimDuration::from_secs(20));
    for &s in &dep.secondaries {
        for g in &guids {
            assert_eq!(held(&dep, s, g), 1, "not converged before the idle window");
        }
    }
    let before = dep.sim.stats().class("replica/antientropy");
    dep.sim.run_for(SimDuration::from_secs(10));
    let after = dep.sim.stats().class("replica/antientropy");
    (after.messages - before.messages, after.bytes - before.bytes)
}

fn held(dep: &Deployment, secondary: NodeId, object: &Guid) -> u64 {
    dep.secondary(secondary).store.get(object).map_or(0, |st| st.next_index)
}

/// A converged tier's background traffic is per peer, not per object:
/// sixteen times the objects, the same messages and the same bytes — and
/// every one of them a 16-byte digest, so nobody sent a summary.
#[test]
fn idle_traffic_does_not_depend_on_the_object_count() {
    let (few_msgs, few_bytes) = idle_anti_entropy(4);
    let (many_msgs, many_bytes) = idle_anti_entropy(64);
    assert!(few_msgs > 0, "anti-entropy never ran");
    assert_eq!((few_msgs, few_bytes), (many_msgs, many_bytes), "4 objects against 64");
    assert_eq!(many_bytes, 16 * many_msgs, "something other than a digest was sent");
}

/// Before the first write no secondary has anything to compare, so the
/// secondary tier of a fresh deployment sends no anti-entropy message
/// (as before: what a benchmark's warm-up costs does not grow with the
/// tier). The primaries — a handful — keep asking each other: a primary
/// that comes back empty has no tree above it to be pushed by.
#[test]
fn an_unwritten_secondary_tier_is_silent() {
    let mut dep = build_deployment(&DeploymentOpts { secondaries: 14, ..Default::default() });
    dep.sim.run_for(SimDuration::from_secs(10));
    let stats = dep.sim.stats();
    for &s in &dep.secondaries {
        assert_eq!(stats.class_sent_by(s, "replica/antientropy").messages, 0, "{s:?}");
    }
    let sent_by = |p: &NodeId| stats.class_sent_by(*p, "replica/antientropy").messages;
    let by_primaries: u64 = dep.primaries().iter().map(sent_by).sum();
    assert_eq!(by_primaries, 4 * 20, "one digest per primary per tick, never answered");
}

/// A secondary cut off through an object's only commits never saw a
/// record or a rumor of it. It still holds the object within two periods
/// of the partition healing.
#[test]
fn unheard_of_object_arrives_within_two_periods() {
    let (mut dep, victim, object) = partitioned_through_the_only_commit();
    dep.sim.run_for(SimDuration::from_secs(1));
    assert_eq!(held(&dep, victim, &object), 1);
}

/// The same, with the victim's own ticks out of the picture: a peer that
/// is handed the victim's summary between two ticks pushes what the
/// summary does not list.
#[test]
fn an_object_the_summary_does_not_list_counts_as_index_zero() {
    let (mut dep, victim, object) = partitioned_through_the_only_commit();
    let peer = dep.secondaries[1];
    let entries = vec![SummaryEntry {
        object: Guid::from_label(HEARD_OF),
        committed_index: 1,
        tentative_ids: Vec::new(),
    }];
    dep.sim.with_node_ctx(victim, |_, ctx| {
        ctx.send(peer, ReplicaMsg::AntiEntropySummary { entries });
    });
    // There and back is 40 ms; the next tick is 400 ms away.
    dep.sim.run_for(SimDuration::from_millis(50));
    assert_eq!(held(&dep, victim, &object), 1);
}

/// The object every secondary of the deployment below holds.
const HEARD_OF: &str = "heard-of";

/// A default deployment at 5.1 s — a tenth of a second after a tick —
/// whose secondary 4 holds one object like everybody else and sat out the
/// one commit of another, `object`, in a partition of its own that has
/// just healed.
fn partitioned_through_the_only_commit() -> (Deployment, NodeId, Guid) {
    let mut dep = build_deployment(&DeploymentOpts::default());
    let victim = dep.secondaries[4];
    dep.submit(dep.clients[0], Guid::from_label(HEARD_OF), &append());
    dep.sim.run_for(SimDuration::from_secs(2));
    assert_eq!(held(&dep, victim, &Guid::from_label(HEARD_OF)), 1);

    let object = Guid::from_label("unheard-of");
    let groups: Vec<u32> = (0..dep.sim.len()).map(|i| u32::from(i == victim.0)).collect();
    dep.sim.set_partitions(Some(groups));
    dep.submit(dep.clients[0], object, &append());
    dep.sim.run_for(SimDuration::from_millis(3_100));
    assert!(dep.secondary(victim).store.get(&object).is_none(), "the partition leaked");
    assert_eq!(held(&dep, dep.secondaries[1], &object), 1, "the rest of the tier has it");
    dep.sim.set_partitions(None);
    (dep, victim, object)
}
