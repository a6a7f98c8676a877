//! The stale-rumor rule of the optimistic path. A secondary matches a
//! tentative update against the committed records it still retains. A
//! rumor of a record that has already left the retained log would match
//! nothing, stay tentative for good, and be applied a second time by the
//! tentative view. So a tentative whose timestamp is at or below the newest
//! timestamp truncated from its object's log is refused: neither stored
//! nor forwarded. A rumor of a record still retained is matched by id.

use oceanstore_naming::guid::Guid;
use oceanstore_replica::{build_deployment, Deployment, DeploymentOpts};
use oceanstore_sim::{NodeId, SimDuration};
use oceanstore_update::update::Action;
use oceanstore_update::Update;

/// A default deployment whose secondary 4, retaining four records, sat out
/// eight commits of `object` and every rumor of them in a partition of its
/// own, then caught up on the records alone.
fn caught_up_without_rumors(object: Guid) -> (Deployment, NodeId) {
    let mut dep = build_deployment(&DeploymentOpts::default());
    let victim = dep.secondaries[4];
    let role = dep.sim.node_mut(victim).as_secondary_mut().expect("node is a secondary");
    role.store.set_record_retention(4);
    let groups = (0..dep.sim.len()).map(|i| u32::from(i == victim.0)).collect();
    dep.sim.set_partitions(Some(groups));
    for i in 0..8u8 {
        let append = Update::unconditional(vec![Action::Append { ciphertext: vec![i; 8] }]);
        dep.submit(dep.clients[0], object, &append);
        dep.sim.run_for(SimDuration::from_millis(500));
    }
    dep.sim.set_partitions(None);
    dep.sim.run_for(SimDuration::from_secs(3));
    let st = dep.secondary(victim).store.get(&object).expect("caught up");
    assert_eq!((st.next_index, st.first_index), (8, 4), "eight records applied, four retained");
    (dep, victim)
}

/// Hands `victim` the rumor of `object`'s record `index`, as a peer that
/// retained the record would send it, and reports how many tentative
/// updates `victim` then holds; its tentative view must equal its
/// committed one.
fn rumor_of(dep: &mut Deployment, victim: NodeId, object: Guid, index: u64) -> usize {
    let peer = dep.secondary(dep.secondaries[0]);
    let record = peer.store.record(&object, index).expect("retained").clone();
    dep.sim.with_node_ctx(victim, |node, ctx| {
        let role = node.as_secondary_mut().expect("node is a secondary");
        role.on_tentative(ctx, object, record.update.clone(), record.timestamp, record.id);
    });
    let role = dep.secondary(victim);
    let committed = role.committed_view(&object).expect("held").current();
    let tentative = role.tentative_view_or_empty(&object);
    assert_eq!(tentative.current().blocks, committed.blocks, "applied twice");
    assert_eq!(tentative.version_number(), committed.number);
    role.tentative_count(&object)
}

/// Records 0–3 left the log: the oldest, and the newest truncated, whose
/// timestamp is the floor itself.
#[test]
fn a_rumor_of_a_truncated_record_is_refused() {
    let object = Guid::from_label("truncated");
    let (mut dep, victim) = caught_up_without_rumors(object);
    for index in [0, 3] {
        assert_eq!(rumor_of(&mut dep, victim, object, index), 0, "record {index} parked as tentative");
    }
}

/// The rumor of a record still in the log is matched by its id — the
/// newest record's too, whose timestamp is the newest this node applied.
#[test]
fn a_rumor_of_a_retained_record_is_matched() {
    let object = Guid::from_label("retained");
    let (mut dep, victim) = caught_up_without_rumors(object);
    for index in [4, 7] {
        assert_eq!(rumor_of(&mut dep, victim, object, index), 0, "record {index} parked as tentative");
    }
}
