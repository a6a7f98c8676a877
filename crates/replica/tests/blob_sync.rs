//! The blob-sync contract. A commit mirrors into the blob store only the
//! slots it wrote, plus any slot whose put the backend refused before, and
//! that is enough: after every commit the blob store holds what a walk of
//! the whole current version would put there. Run over random update
//! sequences on a backend that refuses some puts, and with a count of the
//! calls one append makes to a large object.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use oceanstore_crypto::swp::SearchKey;
use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::Guid;
use oceanstore_replica::{ObjectStore, TentativeId};
use oceanstore_sim::NodeId;
use oceanstore_store::{cid_of, BlobStore, MemoryStore, SimRemoteStore, StoreError, StoreStats};
use oceanstore_update::object::Block;
use oceanstore_update::update::{Action, Predicate};
use oceanstore_update::{decode_view, encode_update, update_digest, Update};
use proptest::prelude::*;

/// Serializes `update` into `object`'s log as commit `n`.
fn commit(store: &mut ObjectStore, object: Guid, update: Update, n: u64) {
    let encoded = Bytes::from(encode_update(&update));
    let update = decode_view(&encoded).expect("decodes");
    let name = update_digest(&update);
    let id = TentativeId { client: NodeId(1), counter: n };
    store.serialize_update(object, update, name, encoded, n, id);
}

/// A 16-byte ciphertext; few distinct tags, so blocks dedup across slots.
fn block(tag: u8) -> Vec<u8> {
    vec![tag % 12; 16]
}

/// One random update against an object of `slots` slots, `logical` of
/// them in the logical sequence. `kind` picks the shape: an append, a
/// replace, an insert (two appends spliced in by an index block), a
/// delete, a search index, or a clause whose predicate fails — ahead of a
/// clause that holds, or alone.
fn update(kind: u8, tag: u8, at: usize, slots: usize, logical: usize) -> Update {
    // Out of range when the object is empty: the update aborts.
    let position = if logical == 0 { at } else { at % logical };
    let write = |tag| match tag % 2 {
        0 => Action::Append { ciphertext: block(tag) },
        _ => Action::ReplaceBlock { position, ciphertext: block(tag) },
    };
    match kind % 7 {
        0 => Update::unconditional(vec![Action::Append { ciphertext: block(tag) }]),
        1 => Update::unconditional(vec![Action::ReplaceBlock { position, ciphertext: block(tag) }]),
        2 => Update::unconditional(vec![
            Action::Append { ciphertext: block(tag) },
            Action::Append { ciphertext: block(tag.wrapping_add(1)) },
            Action::ReplaceWithIndex { position, pointers: vec![slots + 1, slots] },
        ]),
        3 => Update::unconditional(vec![Action::DeleteBlock { position }]),
        4 => {
            let word = [tag];
            let index = SearchKey::from_seed(b"sync").build_index(b"o", vec![word.as_slice()]);
            Update::unconditional(vec![Action::SetSearchIndex(index), write(tag)])
        }
        5 => Update::default()
            .with_clause(Predicate::CompareVersion(u64::MAX), vec![write(tag), write(tag ^ 1)])
            .with_clause(Predicate::True, vec![write(tag.wrapping_add(3)), write(tag)]),
        _ => Update::default()
            .with_clause(Predicate::CompareVersion(u64::MAX), vec![write(tag)]),
    }
}

/// Data slots not filed in the blob store (their put was refused).
fn unfiled(store: &ObjectStore, objects: &[Guid]) -> usize {
    let mut count = 0;
    for object in objects {
        let Some(st) = store.get(object) else { continue };
        for (slot, block) in st.data.current().blocks.iter().enumerate() {
            let filed = store.slot_cid(object, slot).is_some();
            count += usize::from(matches!(block, Block::Data(_)) && !filed);
        }
    }
    count
}

/// Every filed data slot is filed under the CID of its bytes, no index
/// slot is filed, and the blob store's refcounts are exactly one per
/// filed slot — what a rescan of every object's whole version counts.
fn check(store: &ObjectStore, objects: &[Guid]) {
    let mut rescan: BTreeMap<Guid, u64> = BTreeMap::new();
    for object in objects {
        let Some(st) = store.get(object) else { continue };
        for (slot, block) in st.data.current().blocks.iter().enumerate() {
            match (block, store.slot_cid(object, slot)) {
                (Block::Data(bytes), Some(cid)) => {
                    assert_eq!(cid, cid_of(bytes), "slot {slot} filed under another name");
                    *rescan.entry(cid).or_default() += 1;
                }
                (Block::Data(_), None) => {} // refused; retried on the next commit
                (Block::Index(_), cid) => assert_eq!(cid, None, "index slot {slot} filed"),
            }
        }
    }
    let blobs = store.blob_store();
    for (cid, refs) in &rescan {
        assert_eq!(blobs.refcount(cid), *refs, "refcount of {cid}");
    }
    assert_eq!(blobs.dedup_stats().live_cids, rescan.len() as u64, "a reference nothing holds");
}

proptest! {
    #[test]
    fn the_blob_store_holds_what_a_rescan_would(
        seed in any::<u64>(),
        steps in proptest::collection::vec((0..2usize, any::<u8>(), any::<u8>(), 0..64usize), 1..48),
    ) {
        let objects = [Guid::from_label("sync-a"), Guid::from_label("sync-b")];
        // A provider that refuses about a quarter of its operations.
        let mut store = ObjectStore::with_backend(Box::new(SimRemoteStore::new(seed, 0, 0.25)));
        let mut n = 0;
        for (which, kind, tag, at) in steps {
            let object = objects[which];
            let (slots, logical) = store.get(&object).map_or((0, 0), |st| {
                let v = st.data.current();
                (v.blocks.len(), v.logical_order().len())
            });
            commit(&mut store, object, update(kind, tag, at, slots, logical), n);
            n += 1;
            check(&store, &objects);
        }
        // A refused put is retried on every later commit to its object,
        // an aborted one included, until the provider takes it.
        for object in objects {
            while unfiled(&store, &[object]) > 0 {
                prop_assert!(n < 10_000, "refused puts never retried");
                commit(&mut store, object, update(6, 0, 0, 0, 0), n);
                n += 1;
                check(&store, &objects);
            }
        }
    }
}

/// A [`MemoryStore`] that counts every call made to it.
#[derive(Debug, Default)]
struct Counted {
    inner: MemoryStore,
    calls: Arc<AtomicU64>,
}

impl Counted {
    fn call(&mut self) -> &mut MemoryStore {
        self.calls.fetch_add(1, Ordering::Relaxed);
        &mut self.inner
    }
}

impl BlobStore for Counted {
    fn put(&mut self, data: &[u8]) -> Result<Guid, StoreError> {
        self.call().put(data)
    }

    fn put_shared(&mut self, cid: Guid, data: &Bytes) -> Result<Guid, StoreError> {
        self.call().put_shared(cid, data)
    }

    fn get(&mut self, cid: &Guid) -> Result<Option<Vec<u8>>, StoreError> {
        self.call().get(cid)
    }

    fn has(&mut self, cid: &Guid) -> bool {
        self.call().has(cid)
    }

    fn delete(&mut self, cid: &Guid) -> Result<bool, StoreError> {
        self.call().delete(cid)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

/// Growth guard, as a count: one append to a 1 000-slot object is one put;
/// one replace is one delete and one put.
#[test]
fn a_commit_costs_the_blob_store_what_it_wrote() {
    let backend = Counted::default();
    let calls = Arc::clone(&backend.calls);
    let mut store = ObjectStore::with_backend(Box::new(backend));
    let object = Guid::from_label("large");
    let appends = (0..1_000u32).map(|i| Action::Append { ciphertext: i.to_le_bytes().to_vec() });
    commit(&mut store, object, Update::unconditional(appends.collect()), 0);
    assert_eq!(calls.load(Ordering::Relaxed), 1_000);

    calls.store(0, Ordering::Relaxed);
    let append = Action::Append { ciphertext: block(1) };
    commit(&mut store, object, Update::unconditional(vec![append]), 1);
    assert_eq!(calls.load(Ordering::Relaxed), 1, "an append to 1 000 slots");

    calls.store(0, Ordering::Relaxed);
    let replace = Action::ReplaceBlock { position: 500, ciphertext: block(2) };
    commit(&mut store, object, Update::unconditional(vec![replace]), 2);
    assert_eq!(calls.load(Ordering::Relaxed), 2, "a replace in 1 001 slots");
}
