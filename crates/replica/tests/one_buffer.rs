//! One buffer per update. A client encodes an update once, into the
//! agreement payload: the object GUID, then the update's encoding. The
//! simulator hands that payload to every primary as is, and from then on
//! no node copies it: each primary's commit record is a view of the
//! payload's update bytes, and every block a primary or secondary stores
//! is a view of the same buffer. Each node still decodes, names and
//! verifies the bytes itself; only the allocation is shared. A primary
//! hashes those bytes once: the update digest its agreement replica's
//! namer derived when it admitted the request is kept with the request,
//! and names the blocks the primary files at execution. On the
//! deployment's own store backend (`OCEANSTORE_STORE_BACKEND`), then on
//! each by name: the `dir` one writes its own files beside the views.
//!
//! One record per commit, likewise: the record the disseminating primary
//! certifies is one allocation, which every secondary that takes it whole
//! logs and pushes on. Only a node that fills in the bytes of a record
//! pushed to it by name builds, and logs, a record of its own.
//!
//! Also here: the sizes of the types every message and slot is made of.

use std::collections::HashSet;
use std::sync::Arc;

use oceanstore_naming::guid::Guid;
use oceanstore_replica::primary::PAYLOAD_UPDATE_AT;
use oceanstore_replica::{
    build_deployment, disseminator_for, CommitRecord, Deployment, DeploymentOpts, ReplicaMsg,
};
use oceanstore_sim::{NodeId, SimDuration};
use oceanstore_store::{cid_of, BackendKind, BlobStore, DirStore, MemoryStore};
use oceanstore_update::object::Block;
use oceanstore_update::update::Action;
use oceanstore_update::Update;

/// An unconditional update appending `blocks` blocks of `len` bytes.
fn appends(tag: u8, blocks: u8, len: usize) -> Update {
    Update::unconditional(
        (0..blocks).map(|i| Action::Append { ciphertext: vec![tag ^ i; len] }).collect(),
    )
}

#[test]
fn every_node_holds_views_of_the_clients_payload() {
    let memory = || -> Box<dyn BlobStore> { Box::new(MemoryStore::new()) };
    let dir = || -> Box<dyn BlobStore> { Box::new(DirStore::new_ephemeral()) };
    // Each backend, and whether a read of it hands out the filed view.
    let deployed = BackendKind::from_env() == BackendKind::Memory;
    let memory = Some(memory as fn() -> Box<dyn BlobStore>);
    let backends = [(None, deployed), (memory, true), (Some(dir), false)];
    for (backend, views) in backends {
        let mut dep = build_deployment(&DeploymentOpts::default());
        let holders: Vec<NodeId> =
            dep.primaries().iter().chain(&dep.secondaries).copied().collect();
        if let Some(backend) = backend {
            for &node in &holders {
                let role = dep.sim.node_mut(node);
                match role.as_primary_mut() {
                    Some(p) => p.store.set_blob_store(backend()),
                    None => {
                        role.as_secondary_mut().expect("a role").store.set_blob_store(backend())
                    }
                }
            }
        }
        let object = Guid::from_label("one-buffer");
        let updates = [appends(0x10, 4, 3000), appends(0x20, 3, 700)];
        for update in &updates {
            dep.submit(dep.clients[0], object, update);
            dep.sim.run_for(SimDuration::from_secs(2));
        }
        // Each committed update's buffer, as the tier's records hold it.
        let first = dep.primary(dep.primaries()[0]);
        let records: Vec<Arc<CommitRecord>> = first.store.records_from(&object, 0);
        assert_eq!(records.len(), updates.len(), "every update committed");

        for &p in dep.primaries() {
            let primary = dep.primary(p);
            let pbft = primary.pbft();
            for (record, ours) in records.iter().zip(primary.store.records_from(&object, 0)) {
                // The payload the agreement layer executed, which is the
                // client's own buffer.
                let payload = (0..pbft.executed_seen())
                    .filter_map(|i| pbft.executed_entry(i))
                    .map(|entry| &entry.payload.bytes)
                    .find(|bytes| Arc::ptr_eq(bytes.buffer(), ours.update.buffer()));
                let payload =
                    payload.unwrap_or_else(|| panic!("{p:?}: a record copied its payload"));
                assert_eq!(
                    ours.update.as_slice(),
                    &payload[PAYLOAD_UPDATE_AT..],
                    "{p:?}: not the update bytes"
                );
                assert!(
                    Arc::ptr_eq(ours.update.buffer(), record.update.buffer()),
                    "{p:?}: a buffer of its own"
                );
            }
        }

        // Every block anywhere is a view of its update's buffer, filed
        // under its own CID: the blob layer holds a reference to that CID
        // and serves the slot from there, as that very view on a backend
        // that keeps views.
        let mut buffers = HashSet::new();
        for &node in &holders {
            let role = dep.sim.node_mut(node);
            let store = match role.as_primary_mut() {
                Some(p) => &mut p.store,
                None => &mut role.as_secondary_mut().expect("a role").store,
            };
            let version = Arc::clone(store.get(&object).expect("replicated").data.current());
            assert_eq!(version.blocks.len(), 7, "{node:?} holds both updates");
            for (slot, block) in version.blocks.iter().enumerate() {
                let Block::Data(bytes) = block else { panic!("appends store data blocks") };
                let refs = store.blob_store().refcount(&cid_of(bytes));
                assert!(refs > 0, "{node:?} slot {slot}: not filed under its CID");
                let read = store.read_block(&object, slot).expect("a data block");
                assert_eq!(read, *bytes, "{node:?} slot {slot}: the blob layer holds other bytes");
                assert!(
                    !views || Arc::ptr_eq(read.buffer(), bytes.buffer()),
                    "{node:?} slot {slot}: the blob layer holds a copy"
                );
                let update = usize::from(slot >= 4);
                let record = &records[update];
                assert!(
                    Arc::ptr_eq(bytes.buffer(), record.update.buffer()),
                    "{node:?} slot {slot}: a copy of update {update}'s bytes"
                );
                buffers.insert(Arc::as_ptr(bytes.buffer()));
            }
            assert_eq!(store.health().fallback_reads, 0, "{node:?}: a read missed the blob layer");
        }
        assert_eq!(buffers.len(), updates.len(), "one block buffer per committed update");
    }
}

/// An 8-byte append goes down the tree whole: every live secondary logs
/// the very record the root logged, which is the one the disseminating
/// primary certified and pushed. A 1 KiB append goes by name below the
/// root: a secondary that fills in its bytes from the rumor logs a record
/// of its own, equal to the root's.
#[test]
fn every_secondary_logs_the_record_the_root_logged() {
    let mut dep = build_deployment(&DeploymentOpts::default());
    let (small, large) = (Guid::from_label("one-record"), Guid::from_label("own-record"));
    let (root, leaf) = (dep.secondaries[0], *dep.secondaries.last().expect("a secondary"));
    dep.submit(dep.clients[0], small, &appends(0x30, 1, 8));
    dep.sim.run_for(SimDuration::from_secs(2));
    // The leaf is cut off while the large update commits.
    dep.sim.set_partitions(Some((0..dep.sim.len()).map(|i| u32::from(i == leaf.0)).collect()));
    dep.submit(dep.clients[0], large, &appends(0x40, 1, 1024));
    dep.sim.run_for(SimDuration::from_secs(2));
    dep.sim.set_partitions(None);
    let logged = |dep: &Deployment, node: NodeId, object: &Guid| -> Option<Arc<CommitRecord>> {
        let store = match dep.sim.node(node).as_primary() {
            Some(p) => &p.store,
            None => &dep.secondary(node).store,
        };
        store.record(object, 0).cloned()
    };

    let record = logged(&dep, root, &small).expect("committed");
    assert!(!record.is_large() && !record.cert.is_empty());
    let n = dep.primaries().len();
    let disseminator = dep.primaries()[disseminator_for(n, &small, 0, 0)];
    let certified = logged(&dep, disseminator, &small).expect("certified");
    assert!(Arc::ptr_eq(&certified, &record), "the root logged a copy of the certified push");
    let live = dep.secondaries.iter().filter(|&&s| !dep.sim.is_down(s));
    for &s in live {
        let held = logged(&dep, s, &small).expect("committed");
        assert!(Arc::ptr_eq(&held, &record), "{s:?} logged a copy of the record");
    }

    // The leaf holds the large update from its rumor; its parent pushes
    // the record by name.
    let record = logged(&dep, root, &large).expect("committed");
    assert!(logged(&dep, leaf, &large).is_none(), "the leaf was cut off");
    let named = Arc::clone(&record).by_name();
    assert!(named.update.is_empty());
    let parent = dep.secondary(leaf).parent().expect("a leaf has a parent");
    let (update, timestamp, id) = (record.update.clone(), record.timestamp, record.id);
    let pushed = Arc::clone(&named);
    let applied = dep.sim.with_node_ctx(leaf, |node, ctx| {
        let sec = node.as_secondary_mut().expect("secondary");
        sec.on_tentative(ctx, large, update, timestamp, id);
        sec.on_commit(ctx, parent, pushed, None)
    });
    assert!(applied, "the bytes from the rumor pass the check");
    let own = logged(&dep, leaf, &large).expect("logged");
    assert!(!Arc::ptr_eq(&own, &record) && !Arc::ptr_eq(&own, &named), "not a record of its own");
    assert_eq!(own.update, record.update, "other bytes filled in");
    assert_eq!((own.index, own.id, &own.cert), (record.index, record.id, &record.cert));
}

/// The view keeps a block slot, a record and a message at the sizes at
/// which the open loops held their speed: a wider view grew `Block` to 32
/// bytes and `CommitRecord` to 104.
#[test]
fn hot_types_keep_their_size() {
    use std::mem::size_of;
    assert_eq!(size_of::<Block>(), 24);
    assert!(size_of::<CommitRecord>() <= 96, "CommitRecord is {} bytes", size_of::<CommitRecord>());
    assert_eq!(size_of::<ReplicaMsg>(), 120);
}
