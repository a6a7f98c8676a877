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
//! Also here: the sizes of the types every message and slot is made of.

use std::collections::HashSet;
use std::sync::Arc;

use oceanstore_naming::guid::Guid;
use oceanstore_replica::primary::PAYLOAD_UPDATE_AT;
use oceanstore_replica::{build_deployment, CommitRecord, DeploymentOpts, ReplicaMsg};
use oceanstore_sim::{NodeId, SimDuration};
use oceanstore_store::{cid_of, BlobStore, DirStore, MemoryStore};
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
    for backend in [None, Some(memory as fn() -> Box<dyn BlobStore>), Some(dir)] {
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
        let records: Vec<CommitRecord> = first.store.records_from(&object, 0);
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
        // under its own CID.
        let mut buffers = HashSet::new();
        for &node in &holders {
            let role = dep.sim.node(node);
            let store = match role.as_primary() {
                Some(p) => &p.store,
                None => &role.as_secondary().expect("a role").store,
            };
            let version = store.get(&object).expect("replicated").data.current();
            assert_eq!(version.blocks.len(), 7, "{node:?} holds both updates");
            for (slot, block) in version.blocks.iter().enumerate() {
                let Block::Data(bytes) = block else { panic!("appends store data blocks") };
                let cid = store.slot_cid(&object, slot).expect("every data block is filed");
                assert_eq!(cid, cid_of(bytes), "{node:?} slot {slot}: filed under another CID");
                let update = usize::from(slot >= 4);
                let record = &records[update];
                assert!(
                    Arc::ptr_eq(bytes.buffer(), record.update.buffer()),
                    "{node:?} slot {slot}: a copy of update {update}'s bytes"
                );
                buffers.insert(Arc::as_ptr(bytes.buffer()));
            }
        }
        assert_eq!(buffers.len(), updates.len(), "one block buffer per committed update");
    }
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
