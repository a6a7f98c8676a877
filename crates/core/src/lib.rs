//! The OceanStore core: the paper's primary contribution, assembled from
//! every substrate in this workspace.
//!
//! An [`OceanStore`] is a deterministic simulation of a full deployment
//! (Figure 1): a Byzantine primary tier, an epidemic secondary tier with a
//! dissemination tree, a Plaxton location mesh, and deep archival storage
//! — all exchanging one wire protocol ([`messages::OceanMsg`]) over a
//! simulated wide-area network.
//!
//! * [`system`] — deployment builder and the native API: objects, updates,
//!   session-guaranteed reads, location, archival, recovery.
//! * [`server`] — the composite per-node protocol.
//! * [`facade`] — the legacy interfaces of §4.6: a Unix-like file system,
//!   optimistic transactions, and a read-only web gateway.
//! * [`version_codec`] — the archival (immutable) form of object versions.
//!
//! # Examples
//!
//! ```
//! use oceanstore_core::system::{OceanStore, UpdateOutcome};
//! use oceanstore_update::ops;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ocean = OceanStore::builder().build();
//! let obj = ocean.create_object(0, "notes");
//! let update = ops::initial_write(&obj.keys, b"notes", &[b"first note"], &[]);
//! let outcome = ocean.update(0, &obj, &update)?;
//! assert_eq!(outcome, UpdateOutcome::Committed { version: 1 });
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod facade;
pub mod messages;
pub mod server;
pub mod system;
pub mod version_codec;

pub use messages::{OceanMsg, OceanTimer};
pub use server::OceanServer;
pub use system::{ArchiveRef, CoreError, ObjectRef, OceanStore, OceanStoreBuilder, UpdateOutcome};

#[cfg(test)]
mod tests {
    use oceanstore_sim::SimDuration;
    use oceanstore_update::ops;
    use oceanstore_update::session::{GuaranteeSet, SessionState};
    use oceanstore_update::update::{Action, Predicate};
    use oceanstore_update::Update;

    use crate::facade::fs::FsFacade;
    use crate::facade::txn::{Transaction, TxnOutcome};
    use crate::facade::web::WebGateway;
    use crate::system::{ArchiveRef, OceanStore, UpdateOutcome};

    #[test]
    fn end_to_end_write_read() {
        let mut ocean = OceanStore::builder().seed(10).build();
        let obj = ocean.create_object(0, "calendar");
        let update = ops::initial_write(&obj.keys, b"calendar", &[b"meeting at 10"], &[]);
        let out = ocean.update(0, &obj, &update).unwrap();
        assert_eq!(out, UpdateOutcome::Committed { version: 1 });
        ocean.settle(SimDuration::from_secs(3));
        let mut session = SessionState::new();
        let content = ocean
            .read(0, &obj, &mut session, &GuaranteeSet::all())
            .unwrap();
        assert_eq!(content, vec![b"meeting at 10".to_vec()]);
    }

    #[test]
    fn location_mesh_finds_replicas() {
        let mut ocean = OceanStore::builder().seed(11).build();
        let obj = ocean.create_object(0, "located");
        let update = ops::initial_write(&obj.keys, b"located", &[b"data"], &[]);
        ocean.update(0, &obj, &update).unwrap();
        ocean.settle(SimDuration::from_secs(2));
        let holders = ocean.secondaries().to_vec();
        ocean.publish_location(&obj, &holders[..2]);
        let from = ocean.clients()[1];
        let found = ocean.locate(from, &obj).unwrap();
        assert!(found.is_some_and(|h| holders[..2].contains(&h)), "found {found:?}");
    }

    #[test]
    fn archive_survives_total_replica_loss() {
        // The deep-archival promise: "nothing short of a global disaster
        // could ever destroy information". Kill every primary and every
        // secondary; the data comes back from fragments.
        let mut ocean = OceanStore::builder().seed(12).build();
        let obj = ocean.create_object(0, "precious");
        let update =
            ops::initial_write(&obj.keys, b"precious", &[b"irreplaceable data"], &[]);
        ocean.update(0, &obj, &update).unwrap();
        ocean.settle(SimDuration::from_secs(2));
        let archive = ocean.archive(&obj).unwrap();
        // Global disaster — except n-k fragment holders stay up.
        let keep: Vec<_> = archive.holders[..archive.codec.data_shards()].to_vec();
        let all: Vec<_> =
            ocean.primaries().iter().chain(ocean.secondaries().iter()).copied().collect();
        for node in all {
            if !keep.contains(&node) {
                ocean.sim().set_down(node, true);
            }
        }
        let requester = ocean.clients()[0];
        let blocks = ocean
            .recover_from_archive(requester, &archive, &obj.keys, 0)
            .unwrap();
        assert_eq!(blocks, vec![b"irreplaceable data".to_vec()]);
    }

    #[test]
    fn session_guarantees_gate_reads() {
        let mut ocean = OceanStore::builder().seed(13).build();
        let obj = ocean.create_object(0, "gated");
        let update = ops::initial_write(&obj.keys, b"gated", &[b"v1"], &[]);
        let UpdateOutcome::Committed { version } = ocean.update(0, &obj, &update).unwrap()
        else {
            panic!("must commit")
        };
        let mut session = SessionState::new();
        session.note_write(obj.guid, version);
        // Immediately after commit the dissemination may not have reached
        // all secondaries; read-your-writes must never return stale data.
        ocean.settle(SimDuration::from_secs(3));
        let content = ocean
            .read(0, &obj, &mut session, &GuaranteeSet::all())
            .unwrap();
        assert_eq!(content, vec![b"v1".to_vec()]);
        // A session that has "read" version 99 can never be satisfied.
        let mut impossible = SessionState::new();
        impossible.note_read(obj.guid, 99);
        assert!(ocean.read(0, &obj, &mut impossible, &GuaranteeSet::all()).is_err());
    }

    #[test]
    fn conflict_detection_via_predicates() {
        let mut ocean = OceanStore::builder().seed(14).build();
        let obj = ocean.create_object(0, "contested");
        ocean
            .update(0, &obj, &ops::initial_write(&obj.keys, b"contested", &[b"base"], &[]))
            .unwrap();
        // Two guarded updates race; exactly one commits.
        let guard = Predicate::CompareVersion(1);
        let u1 = Update::default()
            .with_clause(guard.clone(), vec![Action::Append { ciphertext: vec![1] }]);
        let u2 = Update::default()
            .with_clause(guard, vec![Action::Append { ciphertext: vec![2] }]);
        let id1 = ocean.submit(0, &obj, &u1);
        let id2 = ocean.submit(1, &obj, &u2);
        let o1 = ocean.wait_for(id1, &obj).unwrap();
        let o2 = ocean.wait_for(id2, &obj).unwrap();
        let commits = [o1, o2]
            .iter()
            .filter(|o| matches!(o, UpdateOutcome::Committed { .. }))
            .count();
        assert_eq!(commits, 1, "o1={o1:?} o2={o2:?}");
    }

    #[test]
    fn notifications_report_commits_and_aborts() {
        let mut ocean = OceanStore::builder().seed(15).build();
        let obj = ocean.create_object(0, "notify");
        ocean
            .update(0, &obj, &ops::initial_write(&obj.keys, b"notify", &[b"x"], &[]))
            .unwrap();
        let aborting = Update::default().with_clause(Predicate::CompareVersion(77), vec![]);
        ocean.update(0, &obj, &aborting).unwrap();
        ocean.settle(SimDuration::from_secs(3));
        let events = ocean.poll_commits(&obj);
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0].1, UpdateOutcome::Committed { version: 1 }));
        assert!(matches!(events[1].1, UpdateOutcome::Aborted));
        // Drained: nothing new.
        assert!(ocean.poll_commits(&obj).is_empty());
        // A second object has its own cursor: draining the first (two
        // records) hides nothing of this one.
        let other = ocean.create_object(0, "notify-too");
        ocean
            .update(0, &other, &ops::initial_write(&other.keys, b"notify-too", &[b"y"], &[]))
            .unwrap();
        ocean.settle(SimDuration::from_secs(3));
        let events = ocean.poll_commits(&other);
        assert_eq!(events.len(), 1, "the first object's cursor swallowed the second's commit");
        assert!(matches!(events[0].1, UpdateOutcome::Committed { version: 1 }));
        assert!(ocean.poll_commits(&other).is_empty());
        assert!(ocean.poll_commits(&obj).is_empty());
    }

    #[test]
    fn archive_sweeper_restores_redundancy() {
        // `archival`'s repair-sweep scenario through the assembled system:
        // 16 servers hold one fragment each of an (8, 16) archive.
        let mut ocean = OceanStore::builder().seed(22).secondaries(12).build();
        let obj = ocean.create_object(0, "swept");
        ocean
            .update(0, &obj, &ops::initial_write(&obj.keys, b"swept", &[b"kept whole"], &[]))
            .unwrap();
        ocean.settle(SimDuration::from_secs(2));
        let archive = ocean.archive(&obj).unwrap();
        let sweeper = ocean.clients()[1];
        let threshold = 14;
        ocean.enable_archive_sweeper(sweeper, &archive, SimDuration::from_secs(2), threshold);
        // Four holders die: live (12) < threshold (14), so a sweep repairs.
        for &h in &archive.holders[12..] {
            ocean.sim().set_down(h, true);
        }
        ocean.settle(SimDuration::from_secs(12));
        let sim = ocean.sim();
        let tracked = sim.node(sweeper).arch.tracked_holders(&archive.guid).expect("tracked");
        let live: Vec<_> = tracked.iter().copied().filter(|&h| !sim.is_down(h)).collect();
        assert!(live.len() >= threshold, "only {} live holders after the sweeps", live.len());
        // And the version comes back from the repaired placement alone.
        let repaired = ArchiveRef { holders: live, ..archive };
        let blocks = ocean.recover_from_archive(sweeper, &repaired, &obj.keys, 4).unwrap();
        assert_eq!(blocks, vec![b"kept whole".to_vec()]);
    }

    #[test]
    fn healthy_deployment_acks_its_pushes() {
        // Children confirm every certified record, so no primary ever
        // falls back on its re-push schedule — at the default latency and
        // at one where a fixed ack deadline would be under a round trip.
        for latency_ms in [20, 100] {
            let mut ocean = OceanStore::builder()
                .seed(20)
                .latency(SimDuration::from_millis(latency_ms))
                .build();
            let obj = ocean.create_object(0, "acked");
            ocean
                .update(0, &obj, &ops::initial_write(&obj.keys, b"acked", &[b"v1"], &[]))
                .unwrap();
            for v in 2..=8u8 {
                let append = Update::unconditional(vec![Action::Append { ciphertext: vec![v] }]);
                let out = ocean.update(0, &obj, &append).unwrap();
                assert_eq!(out, UpdateOutcome::Committed { version: u64::from(v) });
            }
            ocean.settle(SimDuration::from_secs(3));
            let dep = ocean.deployment();
            let resends: u64 =
                dep.primaries().iter().map(|&p| dep.primary(p).repush_resend_count()).sum();
            assert_eq!(resends, 0, "acked pushes were re-sent at {latency_ms} ms");
            for &s in &dep.secondaries {
                let view = dep.secondary(s).committed_view(&obj.guid);
                let version = view.map(|d| d.version_number());
                assert_eq!(version, Some(8), "secondary {s:?} at {latency_ms} ms");
            }
        }
    }

    #[test]
    fn orphaned_subtree_reattaches() {
        let mut ocean = OceanStore::builder().seed(21).secondaries(6).build();
        let obj = ocean.create_object(0, "orphans");
        // Secondary 1 is interior: 3 and 4 hang below it.
        let secondaries = ocean.secondaries().to_vec();
        ocean.sim().set_down(secondaries[1], true);
        let out = ocean
            .update(0, &obj, &ops::initial_write(&obj.keys, b"orphans", &[b"still here"], &[]))
            .unwrap();
        assert_eq!(out, UpdateOutcome::Committed { version: 1 });
        ocean.settle(SimDuration::from_secs(3));
        for orphan in [secondaries[3], secondaries[4]] {
            let sec = ocean.deployment().secondary(orphan);
            assert!(sec.reparent_count() >= 1, "{orphan:?} never re-attached");
            assert_eq!(sec.committed_view(&obj.guid).map(|d| d.version_number()), Some(1));
        }
        let mut session = SessionState::new();
        session.note_write(obj.guid, 1);
        let content = ocean.read(0, &obj, &mut session, &GuaranteeSet::all()).unwrap();
        assert_eq!(content, vec![b"still here".to_vec()]);
    }

    #[test]
    fn fs_facade_mkdir_write_read_ls() {
        let mut ocean = OceanStore::builder().seed(16).build();
        let mut fs = FsFacade::mount(&mut ocean, 0, "root").unwrap();
        fs.mkdir(&mut ocean, "/docs").unwrap();
        fs.write_file(&mut ocean, "/docs/readme.txt", b"hello ocean").unwrap();
        assert_eq!(fs.read_file(&mut ocean, "/docs/readme.txt").unwrap(), b"hello ocean");
        assert_eq!(fs.ls(&mut ocean, "/").unwrap(), vec!["docs".to_string()]);
        assert_eq!(fs.ls(&mut ocean, "/docs").unwrap(), vec!["readme.txt".to_string()]);
        // Overwrite and large (multi-block) content.
        let big = vec![0x42u8; 3000];
        fs.write_file(&mut ocean, "/docs/readme.txt", &big).unwrap();
        assert_eq!(fs.read_file(&mut ocean, "/docs/readme.txt").unwrap(), big);
        fs.unlink(&mut ocean, "/docs/readme.txt").unwrap();
        assert!(fs.read_file(&mut ocean, "/docs/readme.txt").is_err());
    }

    #[test]
    fn transaction_facade_detects_stale_read_set() {
        let mut ocean = OceanStore::builder().seed(17).build();
        let obj = ocean.create_object(0, "account");
        ocean
            .update(0, &obj, &ops::initial_write(&obj.keys, b"account", &[b"100"], &[]))
            .unwrap();
        ocean.settle(SimDuration::from_secs(3));
        // Transaction reads, then someone else writes, then commit: abort.
        let mut txn = Transaction::begin(0);
        let balance = txn.read(&mut ocean, &obj).unwrap();
        assert_eq!(balance, vec![b"100".to_vec()]);
        txn.write(&obj, ops::replace_op_at_slot(&obj.keys, 0, 0, b"90"));
        // Interloper writes first.
        let interloper = Update::unconditional(vec![Action::Append { ciphertext: vec![9] }]);
        ocean.update(1, &obj, &interloper).unwrap();
        ocean.settle(SimDuration::from_secs(2));
        let out = txn.commit(&mut ocean).unwrap();
        assert!(matches!(out, TxnOutcome::Conflict { .. }), "got {out:?}");
    }

    #[test]
    fn transaction_facade_commits_cleanly() {
        let mut ocean = OceanStore::builder().seed(18).build();
        let obj = ocean.create_object(0, "ledger");
        ocean
            .update(0, &obj, &ops::initial_write(&obj.keys, b"ledger", &[b"10"], &[]))
            .unwrap();
        ocean.settle(SimDuration::from_secs(3));
        let mut txn = Transaction::begin(0);
        let v = txn.read(&mut ocean, &obj).unwrap();
        assert_eq!(v, vec![b"10".to_vec()]);
        txn.write(&obj, ops::replace_op_at_slot(&obj.keys, 0, 0, b"20"));
        assert_eq!(txn.commit(&mut ocean).unwrap(), TxnOutcome::Committed);
        ocean.settle(SimDuration::from_secs(3));
        let mut s = SessionState::new();
        let content = ocean.read(0, &obj, &mut s, &GuaranteeSet::none()).unwrap();
        assert_eq!(content, vec![b"20".to_vec()]);
    }

    #[test]
    fn web_gateway_caches() {
        let mut ocean = OceanStore::builder().seed(19).build();
        let mut fs = FsFacade::mount(&mut ocean, 0, "www").unwrap();
        fs.write_file(&mut ocean, "/index.html", b"<h1>ocean</h1>").unwrap();
        let mut gw = WebGateway::new(SimDuration::from_secs(60));
        let a = gw.get(&mut ocean, &mut fs, "/index.html").unwrap();
        let b = gw.get(&mut ocean, &mut fs, "/index.html").unwrap();
        assert_eq!(a, b);
        assert_eq!(gw.misses(), 1);
        assert_eq!(gw.hits(), 1);
        // After TTL expiry the gateway re-fetches.
        ocean.settle(SimDuration::from_secs(120));
        let _ = gw.get(&mut ocean, &mut fs, "/index.html").unwrap();
        assert_eq!(gw.misses(), 2);
    }
}
