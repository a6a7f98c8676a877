//! Cross-crate system tests: failure injection against the assembled
//! OceanStore — Byzantine primaries, partitions, invalidation leaves, and
//! archival recovery, all in one deployment.

use oceanstore::core::system::{OceanStore, UpdateOutcome};
use oceanstore::sim::SimDuration;
use oceanstore::update::ops;
use oceanstore::update::session::{GuaranteeSet, SessionState};
use oceanstore::update::update::{Action, Predicate};
use oceanstore::update::Update;

#[test]
fn survives_a_crashed_primary() {
    // m = 1 tier: one crashed primary must not stop commitment.
    let mut ocean = OceanStore::builder().seed(91).build();
    let victim = ocean.primaries()[2];
    ocean.sim().set_down(victim, true);
    let obj = ocean.create_object(0, "resilient");
    let update = ops::initial_write(&obj.keys, b"resilient", &[b"still here"], &[]);
    let outcome = ocean.update(0, &obj, &update).expect("commits despite the crash");
    assert_eq!(outcome, UpdateOutcome::Committed { version: 1 });
    ocean.settle(SimDuration::from_secs(5));
    let mut s = SessionState::new();
    let content = ocean.read(1, &obj, &mut s, &GuaranteeSet::all()).unwrap();
    assert_eq!(content, vec![b"still here".to_vec()]);
}

#[test]
fn invalidation_leaf_pulls_on_demand() {
    let mut ocean = OceanStore::builder()
        .secondaries(6)
        .invalidate_leaves(vec![5])
        .seed(92)
        .build();
    let obj = ocean.create_object(0, "thin-pipe");
    let update = ops::initial_write(&obj.keys, b"thin-pipe", &[vec![7u8; 2000].as_slice()], &[]);
    ocean.update(0, &obj, &update).unwrap();
    ocean.settle(SimDuration::from_secs(5));
    // The leaf eventually catches up through its anti-entropy pull.
    let leaf = ocean.secondaries()[5];
    let leaf = ocean.deployment().secondary(leaf);
    let version = leaf.committed_view(&obj.guid).map(|d| d.version_number());
    assert_eq!(version, Some(1), "invalidation-fed leaf repaired itself");
}

#[test]
fn concurrent_clients_converge_identically() {
    let mut ocean = OceanStore::builder().clients(2).seed(93).build();
    let obj = ocean.create_object(0, "battleground");
    ocean
        .update(0, &obj, &ops::initial_write(&obj.keys, b"battleground", &[], &[]))
        .unwrap();
    // Interleave a burst of appends from both clients.
    let mut ids = Vec::new();
    for round in 0..4 {
        for c in 0..2 {
            let u = Update::unconditional(vec![Action::Append {
                ciphertext: vec![round as u8, c as u8, 0xEE],
            }]);
            ids.push(ocean.submit(c, &obj, &u));
        }
    }
    for id in ids {
        let out = ocean.wait_for(id, &obj).unwrap();
        assert!(matches!(out, UpdateOutcome::Committed { .. }));
    }
    ocean.settle(SimDuration::from_secs(8));
    // All secondaries agree on the exact block sequence.
    let dep = ocean.deployment();
    let blocks_at = |s| &dep.secondary(s).committed_view(&obj.guid).unwrap().current().blocks;
    let reference = blocks_at(dep.secondaries[0]);
    assert_eq!(reference.len(), 8);
    for &s in &dep.secondaries[1..] {
        assert_eq!(blocks_at(s), reference, "secondary {s} diverged");
    }
}

#[test]
fn optimistic_concurrency_rejects_stale_writers_cleanly() {
    let mut ocean = OceanStore::builder().clients(2).seed(94).build();
    let obj = ocean.create_object(0, "checked");
    ocean
        .update(0, &obj, &ops::initial_write(&obj.keys, b"checked", &[b"v1"], &[]))
        .unwrap();
    // Both clients race version-guarded writes; the loser must abort and
    // the abort must be visible in the logs everywhere.
    let w = |tag: u8| {
        Update::default().with_clause(
            Predicate::CompareVersion(1),
            vec![Action::Append { ciphertext: vec![tag] }],
        )
    };
    let id_a = ocean.submit(0, &obj, &w(1));
    let id_b = ocean.submit(1, &obj, &w(2));
    let a = ocean.wait_for(id_a, &obj).unwrap();
    let b = ocean.wait_for(id_b, &obj).unwrap();
    assert_ne!(
        matches!(a, UpdateOutcome::Committed { .. }),
        matches!(b, UpdateOutcome::Committed { .. }),
        "exactly one winner: {a:?} vs {b:?}"
    );
    ocean.settle(SimDuration::from_secs(5));
    // The update log records both, in the same order, at every primary.
    let dep = ocean.deployment();
    let orders: Vec<Vec<Option<u64>>> = dep
        .primaries()
        .iter()
        .map(|&p| {
            let st = dep.primary(p).store.get(&obj.guid).unwrap();
            st.records.iter().map(|r| r.version).collect()
        })
        .collect();
    for o in &orders[1..] {
        assert_eq!(o, &orders[0]);
    }
    assert_eq!(orders[0].len(), 3, "init + two serialized updates");
}

#[test]
fn archive_then_rolling_disaster() {
    let mut ocean = OceanStore::builder().secondaries(12).seed(95).build();
    let obj = ocean.create_object(0, "deep-time");
    ocean
        .update(
            0,
            &obj,
            &ops::initial_write(&obj.keys, b"deep-time", &[b"for the ages"], &[]),
        )
        .unwrap();
    ocean.settle(SimDuration::from_secs(2));
    let archive = ocean.archive(&obj).unwrap();
    // Roll a disaster: kill holders one at a time down to exactly k
    // distinct survivors; recovery must work at each step.
    let mut holders = archive.holders.clone();
    holders.sort_unstable();
    holders.dedup();
    let k = archive.codec.data_shards();
    let mut alive = holders.len();
    for &h in holders.iter() {
        if alive == k {
            break;
        }
        ocean.sim().set_down(h, true);
        alive -= 1;
        // Request every fragment: with holders dying, the extra requests
        // are exactly what keeps reconstruction alive (§4.5).
        let extra = archive.codec.total_shards() - archive.codec.data_shards();
        let out = ocean
            .recover_from_archive(ocean.clients()[0], &archive, &obj.keys, extra)
            .expect("still recoverable");
        assert_eq!(out, vec![b"for the ages".to_vec()]);
    }
}
