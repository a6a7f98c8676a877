//! What a serialization certificate binds, and what it names.
//!
//! A relay between the tier and a replica holds a genuinely certified
//! record. Whatever it rewrites — the tentative identity, the timestamp,
//! one block — the record must stop verifying, both on a secondary
//! (`Secondary::on_commit`) and on a primary adopting it through tier
//! anti-entropy (`Primary::on_commits`). Then the chain the other way:
//! every block a replica holds is in its blob store, or kept in its
//! version if tiny, under a CID that a certified update digest covered,
//! on either store backend.

use std::collections::HashSet;
use std::sync::Arc;

use oceanstore_naming::guid::Guid;
use oceanstore_replica::{
    build_deployment, disseminator_for, CommitRecord, Deployment, DeploymentOpts, TINY_BLOCK,
};
use oceanstore_sim::{NodeId, SimDuration};
use oceanstore_store::{cid_of, BlobStore, DirStore, MemoryStore};
use oceanstore_update::object::{Block, DataObject};
use oceanstore_update::ops::{append_op, initial_write, insert_after_op, replace_op, ObjectKeys};
use oceanstore_update::update::{apply, Action};
use oceanstore_update::{decode_update, encode_update, Update};

/// A deployment in which one primary and one secondary, each partitioned
/// off alone, missed the only commit of `object`; and the certified record
/// of that commit as the rest of the tier holds it.
struct Relay {
    dep: Deployment,
    object: Guid,
    genuine: CommitRecord,
    primary: NodeId,
    secondary: NodeId,
}

fn relay(update: &Update) -> Relay {
    let mut dep = build_deployment(&DeploymentOpts::default());
    let object = Guid::from_label("relayed");
    // Neither the leader nor the record's disseminator: the rest of the
    // tier commits and certifies without the victim.
    let n = dep.primaries().len();
    let seat = (1..n).find(|&i| i != disseminator_for(n, &object, 0, 0)).expect("n >= 3");
    let (primary, secondary) = (dep.primaries()[seat], dep.secondaries[4]);
    let groups = (0..dep.sim.len())
        .map(|i| u32::from(i == primary.0) + 2 * u32::from(i == secondary.0))
        .collect();
    dep.sim.set_partitions(Some(groups));
    dep.submit(dep.clients[0], object, update);
    dep.sim.run_for(SimDuration::from_secs(3));
    let held = dep.secondary(dep.secondaries[0]).store.records_from(&object, 0);
    let genuine = CommitRecord::clone(&held[0]);
    assert!(!genuine.cert.is_empty(), "certified");
    // The cut-off secondary holds the update tentatively, as a client's
    // rumor would have left it.
    let (update, timestamp, id) = (genuine.update.clone(), genuine.timestamp, genuine.id);
    dep.sim.with_node_ctx(secondary, |node, ctx| {
        node.as_secondary_mut().expect("secondary").on_tentative(ctx, object, update, timestamp, id)
    });
    Relay { dep, object, genuine, primary, secondary }
}

impl Relay {
    /// Hands `record` to the cut-off secondary as a tree push and to the
    /// cut-off primary as a tier anti-entropy answer: whether each took it.
    fn offer(&mut self, record: &CommitRecord) -> (bool, bool) {
        let from = self.dep.secondaries[0];
        let pushed = Arc::new(record.clone());
        let applied = self.dep.sim.with_node_ctx(self.secondary, |node, ctx| {
            node.as_secondary_mut().expect("secondary").on_commit(ctx, from, pushed, None)
        });
        let fetched = vec![Arc::new(record.clone())];
        self.dep.sim.with_node_ctx(self.primary, |node, ctx| {
            node.as_primary_mut().expect("primary").on_commits(ctx, fetched)
        });
        let primary = self.dep.primary(self.primary).store.get(&self.object);
        (applied, primary.is_some_and(|st| st.next_index > 0))
    }

    /// Offers `forged`, which must be refused on both paths, then the
    /// genuine record, which must be taken on both — and reconcile the
    /// secondary's tentative copy.
    fn refuses(mut self, forged: CommitRecord, what: &str) {
        assert_eq!(self.offer(&forged), (false, false), "{what}: (secondary, primary) took it");
        assert_eq!(self.dep.secondary(self.secondary).tentative_count(&self.object), 1);
        let genuine = self.genuine.clone();
        assert_eq!(self.offer(&genuine), (true, true), "the genuine record is taken");
        assert_eq!(self.dep.secondary(self.secondary).tentative_count(&self.object), 0);
    }
}

fn append(bytes: &[&[u8]]) -> Update {
    Update::unconditional(bytes.iter().map(|b| Action::Append { ciphertext: b.to_vec() }).collect())
}

/// Rewriting the tentative identity would make a secondary reconcile the
/// wrong tentative, and a primary that adopted the record miss it in its
/// execution dedup and serialize the update a second time.
#[test]
fn a_rewritten_id_is_refused_on_both_paths() {
    let r = relay(&append(&[b"id"]));
    let mut forged = r.genuine.clone();
    forged.id.counter += 1;
    r.refuses(forged, "rewritten id");
}

#[test]
fn a_rewritten_timestamp_is_refused_on_both_paths() {
    let r = relay(&append(&[b"timestamp"]));
    let mut forged = r.genuine.clone();
    forged.timestamp += 1;
    r.refuses(forged, "rewritten timestamp");
}

#[test]
fn a_swapped_block_is_refused_on_both_paths() {
    let r = relay(&append(&[&[1; 16], &[2; 16]]));
    let mut update = decode_update(&r.genuine.update).expect("decodes");
    let Action::Append { ciphertext } = &mut update.clauses[0].actions[0] else {
        panic!("an append")
    };
    *ciphertext = vec![3; 16].into();
    let mut forged = r.genuine.clone();
    forged.update = encode_update(&update).into();
    r.refuses(forged, "swapped block");
}

/// Update `step` of the chain test: every shape an update can take. The
/// append and the replace write blocks above the cut; the insert's new
/// block and the last append are tiny ([`TINY_BLOCK`]).
fn shape(keys: &ObjectKeys, o: &DataObject, step: usize) -> Update {
    let actions = match step {
        0 => {
            let blocks: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 512]).collect();
            let blocks: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
            return initial_write(keys, b"chain", &blocks, &[b"first"]);
        }
        1 => append_op(keys, o, &[b'a'; 2 * TINY_BLOCK]),
        2 => replace_op(keys, o, 1, &[b'r'; 2 * TINY_BLOCK]),
        3 => insert_after_op(keys, o, 2, b"inserted"),
        4 => vec![Action::DeleteBlock { position: 0 }],
        _ => {
            let mut actions = append_op(keys, o, b"indexed");
            let index = keys.search.build_index(b"chain", vec![b"second".as_slice()]);
            actions.push(Action::SetSearchIndex(index));
            actions
        }
    };
    Update::unconditional(actions)
}

/// Every data block a replica holds is in its blob store under its own
/// CID, or kept in its version if tiny, and that CID is one a certified
/// update digest of the object's log covered. Appends, a replace, a
/// Figure 4 insert through an index block, a delete and search indexes,
/// on both backends: the `dir` backend re-hashes on read, so a blob filed
/// under the wrong name would read back as a fallback.
#[test]
fn every_held_block_is_named_by_a_certified_digest() {
    let memory = || -> Box<dyn BlobStore> { Box::new(MemoryStore::new()) };
    let dir = || -> Box<dyn BlobStore> { Box::new(DirStore::new_ephemeral()) };
    // Each backend, and whether a read of it hands out the filed view.
    for (backend, views) in [(memory as fn() -> Box<dyn BlobStore>, true), (dir, false)] {
        let mut dep = build_deployment(&DeploymentOpts::default());
        let holders: Vec<NodeId> = dep.primaries().iter().chain(&dep.secondaries).copied().collect();
        for &node in &holders {
            let role = dep.sim.node_mut(node);
            match role.as_primary_mut() {
                Some(p) => p.store.set_blob_store(backend()),
                None => role.as_secondary_mut().expect("a role").store.set_blob_store(backend()),
            }
        }
        let object = Guid::from_label("chain");
        let keys = ObjectKeys::from_seed(b"chain");
        let mut mirror = DataObject::new();
        for step in 0..6 {
            let update = shape(&keys, &mirror, step);
            assert!(apply(&mut mirror, &update).is_committed());
            dep.submit(dep.clients[0], object, &update);
            dep.sim.run_for(SimDuration::from_secs(2));
        }
        let ring = dep.ring_for(&object);
        let (keys, threshold) = (ring.cfg.replica_keys.clone(), ring.cfg.m + 1);
        let (mut kept, mut filed) = (0, 0);
        for &node in &holders {
            let role = dep.sim.node_mut(node);
            let store = match role.as_primary_mut() {
                Some(p) => &mut p.store,
                None => &mut role.as_secondary_mut().expect("a role").store,
            };
            let mut covered = HashSet::new();
            for record in store.records_from(&object, 0) {
                let (_, name) = record.verified(&keys, threshold).expect("a certified record");
                covered.extend(name.cids);
            }
            let version = store.get(&object).expect("replicated").data.current().clone();
            assert_eq!(version.blocks, mirror.current().blocks, "{node:?} converged");
            for (slot, block) in version.blocks.iter().enumerate() {
                let Block::Data(bytes) = block else { continue };
                let cid = cid_of(bytes);
                let tiny = bytes.len() <= TINY_BLOCK;
                *if tiny { &mut kept } else { &mut filed } += 1;
                let refs = store.blob_store().refcount(&cid);
                if tiny {
                    assert_eq!(refs, 0, "{node:?} slot {slot}: a tiny block filed");
                    assert_eq!(store.slot_cid(&object, slot), Some(cid), "{node:?} slot {slot}");
                } else {
                    assert!(refs > 0, "{node:?} slot {slot}: not filed under its own CID");
                }
                assert!(covered.contains(&cid), "{node:?} slot {slot}: named by a certified digest");
                let read = store.read_block(&object, slot).expect("a data block");
                assert_eq!(read, *bytes, "{node:?} slot {slot}: the blob layer holds other bytes");
                assert!(
                    !(views || tiny) || Arc::ptr_eq(read.buffer(), bytes.buffer()),
                    "{node:?} slot {slot}: the blob layer holds a copy"
                );
            }
            assert_eq!(store.health().fallback_reads, 0, "{node:?}: every read came from the blob");
        }
        assert!(kept > 0 && filed > 0, "{kept} blocks kept, {filed} filed: both kinds");
    }
}
