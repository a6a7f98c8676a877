//! A certified record that arrives above a secondary's frontier is held,
//! not dropped, and applies once the gap below it fills. The hold-back
//! keeps only indices below `next_index + RECORD_RETENTION`.

use oceanstore_naming::guid::Guid;
use oceanstore_replica::{build_deployment, DeploymentOpts, ReplicaMsg, RECORD_RETENTION};
use oceanstore_sim::SimDuration;
use oceanstore_update::object::Block;
use oceanstore_update::update::Action;
use oceanstore_update::Update;

#[test]
fn records_far_above_the_frontier_are_held_within_the_bound_and_applied_in_order() {
    // Secondary 4 sits out 160 commits of one object in a partition of its
    // own. A peer then offers it every certified record from index 40 up:
    // it applies none, and holds only those below its frontier (0) plus
    // the bound. The first 40 records then fill the gap, and the held run
    // applies behind them, in index order.
    let mut dep = build_deployment(&DeploymentOpts::default());
    let (peer, victim) = (dep.secondaries[2], dep.secondaries[4]);
    let groups: Vec<u32> = (0..dep.sim.len()).map(|i| u32::from(i == victim.0)).collect();
    dep.sim.set_partitions(Some(groups));
    let object = Guid::from_label("far-ahead");
    let (gap, total) = (40, RECORD_RETENTION + 32);
    // The peer's log keeps 128 records, so the first 40 are read early.
    let mut logged = Vec::new();
    for (from, to) in [(0, gap), (gap, total)] {
        for i in from..to {
            let append = Action::Append { ciphertext: (i as u32).to_le_bytes().to_vec() };
            dep.submit(dep.clients[0], object, &Update::unconditional(vec![append]));
        }
        dep.sim.run_for(SimDuration::from_secs(20));
        logged.push(dep.secondary(peer).store.records_from(&object, from));
    }
    let [prefix, far] = <[_; 2]>::try_from(logged).expect("two reads");
    assert_eq!(prefix.len() as u64, gap, "the peer lacks commits");
    assert_eq!(far.len() as u64, total - gap, "the peer lacks commits");
    assert!(prefix.iter().chain(&far).all(|r| !r.cert.is_empty()), "an uncertified record");
    assert!(dep.secondary(victim).store.get(&object).is_none(), "the victim heard a commit");

    dep.sim.inject(peer, victim, ReplicaMsg::Commits { records: far });
    dep.sim.run_for(SimDuration::from_millis(1));
    let held = dep.secondary(victim).held_count(&object);
    assert_eq!(held as u64, RECORD_RETENTION - gap, "held beyond the bound");
    let st = dep.secondary(victim).store.get(&object).expect("an entry");
    assert_eq!((st.next_index, st.data.version_number()), (0, 0), "applied above a gap");
    assert!(dep.secondary(victim).is_stale(&object));

    dep.sim.inject(peer, victim, ReplicaMsg::Commits { records: prefix });
    dep.sim.run_for(SimDuration::from_millis(1));
    let sec = dep.secondary(victim);
    assert_eq!(sec.held_count(&object), 0, "the run did not drain");
    let version = sec.committed_view(&object).expect("replicated").current();
    assert_eq!(version.number, RECORD_RETENTION, "the held run did not apply");
    for (slot, block) in version.blocks.iter().enumerate() {
        let Block::Data(bytes) = block else { panic!("an append stores data") };
        assert_eq!(bytes.as_slice(), (slot as u32).to_le_bytes(), "slot {slot} out of order");
    }
    assert_eq!(sec.rejected_count(), 0);
}
