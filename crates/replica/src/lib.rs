//! Two-tier replication for OceanStore (§4.4.3, §4.4.4, Figure 5).
//!
//! * [`primary`] — primary-tier servers: embedded Byzantine agreement,
//!   deterministic update execution, k-of-n serialization certificates,
//!   dissemination.
//! * [`secondary`] — secondary-tier servers: epidemic tentative
//!   propagation with timestamp ordering, the committed stream down the
//!   dissemination tree (with the leaf invalidation transformation), pull
//!   repair and anti-entropy.
//! * [`client`] — the Figure 5a client: updates flow to the primary tier
//!   *and* to several random secondaries simultaneously.
//! * [`shard`] — the deterministic object → consensus-ring router that
//!   partitions the AGUID space over independent primary tiers.
//! * [`store`] — versioned object stores replaying certified records.
//! * [`harness`] — deployment builder for tests/benches/examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod harness;
pub mod messages;
pub mod node;
pub mod primary;
pub mod secondary;
pub mod shard;
pub mod store;

pub use client::UpdateClient;
pub use config::{ChildMode, SecondaryConfig, SecondaryFault};
pub use harness::{
    build_deployment, build_deployment_with, Deployment, DeploymentOpts, Ring, RoleHost,
};
pub use messages::{frontier_digest, CommitRecord, ReplicaMsg, SummaryEntry, TentativeId};
pub use node::OceanNode;
pub use primary::{disseminator_for, Primary, UpdateNamer};
pub use secondary::{RingView, Secondary};
pub use shard::ShardRouter;
pub use store::{ObjectState, ObjectStore, StoreHealth, RECORD_RETENTION};

#[cfg(test)]
mod tests {
    use oceanstore_naming::guid::Guid;
    use oceanstore_sim::SimDuration;
    use oceanstore_update::ops::{initial_write, read_object, ObjectKeys};
    use oceanstore_update::update::{Action, Predicate};
    use oceanstore_update::Update;

    use crate::harness::{build_deployment, Deployment, DeploymentOpts};

    fn settle(dep: &mut Deployment, secs: u64) {
        dep.sim.run_for(SimDuration::from_secs(secs));
    }

    #[test]
    fn figure5_full_update_path() {
        let mut dep = build_deployment(&DeploymentOpts::default());
        let keys = ObjectKeys::from_seed(b"obj");
        let object = Guid::from_label("shared");
        let update = initial_write(&keys, b"shared", &[b"hello world"], &[]);
        let id = dep.submit(dep.clients[0], object, &update);
        settle(&mut dep, 5);
        // Client saw the commit.
        let outcome = dep.outcome(id);
        assert!(outcome.is_some(), "client never saw m+1 replies");
        // Every primary executed it.
        for &p in dep.primaries() {
            let prim = dep.primary(p);
            assert_eq!(prim.store.get(&object).unwrap().data.version_number(), 1);
        }
        // Every secondary converged through the dissemination tree.
        for &s in &dep.secondaries {
            let sec = dep.secondary(s);
            let data = sec.committed_view(&object).expect("replicated");
            assert_eq!(data.version_number(), 1, "secondary {s}");
            let content = read_object(&keys, data.current()).unwrap();
            assert_eq!(content, vec![b"hello world".to_vec()]);
            assert_eq!(sec.tentative_count(&object), 0, "tentative reconciled");
        }
    }

    #[test]
    fn tentative_data_visible_before_commit() {
        let mut dep = build_deployment(&DeploymentOpts {
            latency: SimDuration::from_millis(50),
            ..DeploymentOpts::default()
        });
        let object = Guid::from_label("quick");
        let update =
            Update::unconditional(vec![Action::Append { ciphertext: vec![1, 2, 3] }]);
        dep.submit(dep.clients[0], object, &update);
        // One hop (50 ms) delivers tentatives; the commit needs ~5 phases.
        dep.sim.run_for(SimDuration::from_millis(120));
        let tentative_somewhere = dep
            .secondaries
            .iter()
            .any(|&s| dep.secondary(s).tentative_count(&object) > 0);
        assert!(tentative_somewhere, "epidemic path should be ahead of the committed path");
        let committed_anywhere = dep.secondaries.iter().any(|&s| {
            dep.secondary(s).committed_view(&object).is_some_and(|d| d.version_number() > 0)
        });
        assert!(!committed_anywhere, "commit cannot have finished yet");
        // Tentative view already shows the data.
        let sec_with_tentative = dep
            .secondaries
            .iter()
            .find(|&&s| dep.secondary(s).tentative_count(&object) > 0)
            .copied()
            .unwrap();
        let view = dep.secondary(sec_with_tentative).tentative_view_or_empty(&object);
        assert_eq!(view.version_number(), 1);
        // Eventually everything converges and tentative state drains.
        settle(&mut dep, 10);
        for &s in &dep.secondaries {
            let sec = dep.secondary(s);
            assert_eq!(sec.committed_view(&object).unwrap().version_number(), 1);
            assert_eq!(sec.tentative_count(&object), 0);
        }
    }

    #[test]
    fn epidemic_gossip_spreads_tentatives_everywhere() {
        let mut dep = build_deployment(&DeploymentOpts {
            secondaries: 10,
            latency: SimDuration::from_millis(200),
            ..DeploymentOpts::default()
        });
        let object = Guid::from_label("gossip");
        let update = Update::unconditional(vec![Action::Append { ciphertext: vec![7] }]);
        dep.submit(dep.clients[0], object, &update);
        // Give the rumor mill a few rounds, well before commits land
        // (commit takes ~1s at 200 ms per phase; gossip+anti-entropy lap it).
        dep.sim.run_for(SimDuration::from_millis(900));
        let holding = dep
            .secondaries
            .iter()
            .filter(|&&s| dep.secondary(s).tentative_count(&object) > 0)
            .count();
        assert!(
            holding >= dep.secondaries.len() / 2,
            "only {holding}/{} secondaries saw the rumor",
            dep.secondaries.len()
        );
    }

    #[test]
    fn conflicting_updates_serialize_one_winner() {
        let mut dep = build_deployment(&DeploymentOpts {
            clients: 2,
            ..DeploymentOpts::default()
        });
        let object = Guid::from_label("contested");
        // Both clients race a compare-version(0)-guarded write.
        let u1 = Update::default().with_clause(
            Predicate::CompareVersion(0),
            vec![Action::Append { ciphertext: vec![1] }],
        );
        let u2 = Update::default().with_clause(
            Predicate::CompareVersion(0),
            vec![Action::Append { ciphertext: vec![2] }],
        );
        dep.submit(dep.clients[0], object, &u1);
        dep.submit(dep.clients[1], object, &u2);
        settle(&mut dep, 10);
        // Exactly one commit bumped the version; the loser aborted but was
        // still serialized (two records).
        for &p in dep.primaries() {
            let st = dep.primary(p).store.get(&object).unwrap();
            assert_eq!(st.next_index, 2, "both updates serialized");
            assert_eq!(st.data.version_number(), 1, "only one committed");
        }
        // Secondaries agree bit-for-bit.
        let root = dep.secondary(dep.secondaries[0]);
        let reference = root.committed_view(&object).unwrap().current().blocks.clone();
        for &s in &dep.secondaries[1..] {
            let sec = dep.secondary(s);
            assert_eq!(sec.committed_view(&object).unwrap().current().blocks, reference);
        }
    }

    #[test]
    fn invalidation_leaves_go_stale_then_pull() {
        // Secondary 5 (a leaf) is bandwidth-limited: it receives
        // invalidations only.
        let mut dep = build_deployment(&DeploymentOpts {
            secondaries: 6,
            invalidate_leaves: vec![5],
            ..DeploymentOpts::default()
        });
        let object = Guid::from_label("thin-leaf");
        let update = Update::unconditional(vec![Action::Append { ciphertext: vec![9; 1000] }]);
        dep.submit(dep.clients[0], object, &update);
        // Let the commit land but beat the anti-entropy pull (500 ms tick).
        dep.sim.run_for(SimDuration::from_millis(420));
        let leaf = dep.secondaries[5];
        {
            let sec = dep.secondary(leaf);
            assert!(sec.is_stale(&object), "leaf must know it is behind");
            assert!(
                sec.committed_view(&object).is_none_or(|d| d.version_number() == 0),
                "leaf must not have the data yet"
            );
        }
        // The periodic anti-entropy pull repairs it.
        settle(&mut dep, 5);
        let sec = dep.secondary(leaf);
        assert_eq!(sec.committed_view(&object).unwrap().version_number(), 1);
        assert!(!sec.is_stale(&object));
    }

    #[test]
    fn partitioned_secondary_catches_up_by_anti_entropy() {
        let mut dep = build_deployment(&DeploymentOpts::default());
        let object = Guid::from_label("partitioned");
        // Cut secondary[4] off from everyone.
        let victim = dep.secondaries[4];
        let total = dep.sim.len();
        let groups: Vec<u32> = (0..total).map(|i| u32::from(i == victim.0)).collect();
        dep.sim.set_partitions(Some(groups));
        let update = Update::unconditional(vec![Action::Append { ciphertext: vec![3] }]);
        dep.submit(dep.clients[0], object, &update);
        settle(&mut dep, 5);
        assert!(
            dep.secondary(victim).committed_view(&object).is_none_or(|d| d.version_number() == 0),
            "partitioned replica cannot have the update"
        );
        // Heal; anti-entropy with peers brings it up to date.
        dep.sim.set_partitions(None);
        settle(&mut dep, 5);
        let sec = dep.secondary(victim);
        assert_eq!(sec.committed_view(&object).unwrap().version_number(), 1);
    }

    #[test]
    fn orphaned_subtree_reparents_and_keeps_receiving_commits() {
        // Stretch anti-entropy past the horizon so the dissemination tree
        // is the only timely delivery path, then kill an interior node.
        let mut dep = build_deployment(&DeploymentOpts {
            secondaries: 6,
            anti_entropy: Some(SimDuration::from_secs(120)),
            ..DeploymentOpts::default()
        });
        let object = Guid::from_label("orphans");
        let victim = dep.secondaries[1];
        let orphans = [dep.secondaries[3], dep.secondaries[4]];
        let update = Update::unconditional(vec![Action::Append { ciphertext: vec![7] }]);
        dep.submit(dep.clients[0], object, &update);
        settle(&mut dep, 3);
        dep.sim.crash_node(victim);
        // Heartbeats time out; the orphans re-attach somewhere alive.
        settle(&mut dep, 6);
        let update2 = Update::unconditional(vec![Action::Append { ciphertext: vec![8] }]);
        dep.submit(dep.clients[0], object, &update2);
        settle(&mut dep, 6);
        for &o in &orphans {
            let sec = dep.secondary(o);
            assert!(sec.reparent_count() > 0, "orphan {o} never re-parented");
            assert_ne!(sec.parent(), Some(victim), "orphan {o} still on the dead parent");
            assert_eq!(
                sec.committed_view(&object).unwrap().version_number(),
                2,
                "orphan {o} missed the post-crash commit"
            );
        }
    }

    #[test]
    fn orphan_catches_up_on_what_it_missed_through_its_new_parent() {
        // Anti-entropy stretched past the horizon again, but this time the
        // update commits while the subtree is orphaned: its push dies with
        // the interior node, and nothing pushes it again. Only the
        // exchange an orphan opens with its new parent can deliver it.
        let mut dep = build_deployment(&DeploymentOpts {
            secondaries: 6,
            anti_entropy: Some(SimDuration::from_secs(120)),
            ..DeploymentOpts::default()
        });
        let object = Guid::from_label("missed-while-orphaned");
        let victim = dep.secondaries[1];
        let orphans = [dep.secondaries[3], dep.secondaries[4]];
        let update = Update::unconditional(vec![Action::Append { ciphertext: vec![7] }]);
        dep.submit(dep.clients[0], object, &update);
        settle(&mut dep, 3);
        dep.sim.crash_node(victim);
        let update2 = Update::unconditional(vec![Action::Append { ciphertext: vec![8] }]);
        dep.submit(dep.clients[0], object, &update2);
        settle(&mut dep, 6);
        for &o in &orphans {
            let sec = dep.secondary(o);
            assert!(sec.reparent_count() > 0, "orphan {o} never re-parented");
            assert_eq!(
                sec.committed_view(&object).unwrap().version_number(),
                2,
                "orphan {o} never caught up on the commit it missed"
            );
        }
    }

    #[test]
    fn disconnected_client_commits_on_reconnection() {
        // The §3 email story: the client is cut off from the primary tier
        // but reaches one secondary; its update lives tentatively until
        // reconnection, then commits.
        let mut dep = build_deployment(&DeploymentOpts::default());
        let object = Guid::from_label("offline-mail");
        let client = dep.clients[0];
        let reachable = dep.secondaries[1];
        // Partition: client + one secondary on one side, world on the other.
        let total = dep.sim.len();
        let groups: Vec<u32> = (0..total)
            .map(|i| u32::from(!(i == client.0 || i == reachable.0)))
            .collect();
        dep.sim.set_partitions(Some(groups));
        // Fan the tentative copy out to every secondary so the one
        // reachable peer is seeded no matter which random subset the
        // client would have picked.
        let n_secondaries = dep.secondaries.len();
        dep.sim.node_mut(client).as_client_mut().unwrap().set_tentative_fanout(n_secondaries);
        let update = Update::unconditional(vec![Action::Append { ciphertext: vec![5] }]);
        let id = dep.submit(dep.clients[0], object, &update);
        settle(&mut dep, 3);
        {
            let sec = dep.secondary(reachable);
            assert!(sec.tentative_count(&object) > 0, "tentative data on the near secondary");
            let view = sec.tentative_view_or_empty(&object);
            assert_eq!(view.version_number(), 1, "disconnected reads see the write");
            assert!(dep.outcome(id).is_none(), "no commit while disconnected");
        }
        // Reconnect: client retransmission pushes the update through.
        dep.sim.set_partitions(None);
        settle(&mut dep, 10);
        assert!(dep.outcome(id).is_some(), "update commits after reconnection");
        for &s in &dep.secondaries {
            let sec = dep.secondary(s);
            assert_eq!(sec.committed_view(&object).unwrap().version_number(), 1);
            assert_eq!(sec.tentative_count(&object), 0);
        }
    }

    #[test]
    fn tentative_order_follows_timestamps() {
        let mut dep = build_deployment(&DeploymentOpts {
            clients: 2,
            // Slow network so commits don't race the check.
            latency: SimDuration::from_millis(300),
            ..DeploymentOpts::default()
        });
        let object = Guid::from_label("ordered");
        let u_first = Update::unconditional(vec![Action::Append { ciphertext: vec![1] }]);
        let u_second = Update::unconditional(vec![Action::Append { ciphertext: vec![2] }]);
        // Client 0 writes at t=0; client 1 writes 50 ms later.
        dep.submit(dep.clients[0], object, &u_first);
        dep.sim.run_for(SimDuration::from_millis(50));
        dep.submit(dep.clients[1], object, &u_second);
        // Give the epidemic time to reach everyone, commits still pending.
        dep.sim.run_for(SimDuration::from_millis(1200));
        let mut checked = 0;
        for &s in &dep.secondaries {
            let sec = dep.secondary(s);
            if sec.tentative_count(&object) == 2 {
                let view = sec.tentative_view_or_empty(&object);
                let v = view.current();
                let order = v.logical_order();
                let bytes: Vec<u8> = order
                    .iter()
                    .map(|&slot| match &v.blocks[slot] {
                        oceanstore_update::Block::Data(d) => d[0],
                        _ => 0,
                    })
                    .collect();
                assert_eq!(bytes, vec![1, 2], "timestamp order on secondary {s}");
                checked += 1;
            }
        }
        assert!(checked > 0, "no secondary held both tentatives");
    }
}

#[cfg(test)]
mod security_tests {
    use oceanstore_crypto::schnorr::KeyPair;
    use oceanstore_crypto::threshold::SerializationCert;
    use oceanstore_naming::bytes::Bytes;
    use oceanstore_naming::guid::Guid;
    use oceanstore_sim::{NodeId, SimDuration};
    use oceanstore_update::update::Action;
    use oceanstore_update::{decode_view, encode_update, update_digest, Update};

    use crate::harness::{build_deployment, DeploymentOpts};
    use crate::messages::{CommitRecord, ReplicaMsg, TentativeId};

    /// A compromised server forging a commit record (no valid tier
    /// certificate) must be ignored by secondaries: the untrusted
    /// infrastructure cannot fabricate committed state.
    #[test]
    fn forged_commit_record_rejected() {
        let mut dep = build_deployment(&DeploymentOpts::default());
        let object = Guid::from_label("forged");
        let evil_update =
            Update::unconditional(vec![Action::Append { ciphertext: vec![0xEE; 4] }]);
        let attacker_keys: Vec<KeyPair> =
            (0..4).map(|i| KeyPair::from_seed(format!("attacker-{i}").as_bytes())).collect();
        let encoded = Bytes::from(encode_update(&evil_update));
        let evil_update = decode_view(&encoded).expect("decodes");
        let mut record = CommitRecord {
            object,
            index: 0,
            update: encoded,
            version: Some(1),
            timestamp: 0,
            id: TentativeId { client: NodeId(99), counter: 0 },
            cert: SerializationCert::new(),
        };
        // The attacker signs with keys that are NOT the tier's.
        let msg = record.signing_bytes(&update_digest(&evil_update).digest);
        for kp in &attacker_keys {
            record.cert.add(kp.public(), kp.sign(&msg));
        }
        let victim = dep.secondaries[1];
        let source = dep.secondaries[2];
        dep.sim.inject(source, victim, ReplicaMsg::Commit(record));
        dep.sim.run_for(SimDuration::from_secs(2));
        let sec = dep.secondary(victim);
        assert!(
            sec.committed_view(&object).is_none()
                || sec.committed_view(&object).unwrap().version_number() == 0,
            "forged record must not apply"
        );
    }

    /// A record with a *valid* certificate but tampered update bytes must
    /// also be rejected (the cert binds the update digest).
    #[test]
    fn tampered_certified_record_rejected() {
        let mut dep = build_deployment(&DeploymentOpts::default());
        let object = Guid::from_label("tampered");
        let update = Update::unconditional(vec![Action::Append { ciphertext: vec![1, 2, 3] }]);
        dep.submit(dep.clients[0], object, &update);
        dep.sim.run_for(SimDuration::from_secs(5));
        // Steal the genuine certified record from a secondary's log...
        let root = dep.secondary(dep.secondaries[0]);
        let genuine = root.store.records_from(&object, 0).into_iter().next().expect("committed");
        // ...and tamper with the update bytes while keeping the cert.
        let other = Update::unconditional(vec![Action::Append { ciphertext: vec![9, 9, 9] }]);
        let mut forged = genuine.clone();
        forged.update = encode_update(&other).into();
        forged.index = 1; // next slot, so the gap check doesn't mask the cert check
        let victim = dep.secondaries[3];
        dep.sim.inject(dep.secondaries[2], victim, ReplicaMsg::Commit(forged));
        dep.sim.run_for(SimDuration::from_secs(2));
        let sec = dep.secondary(victim);
        assert_eq!(
            sec.committed_view(&object).unwrap().version_number(),
            1,
            "only the genuine update applied"
        );
    }
}
