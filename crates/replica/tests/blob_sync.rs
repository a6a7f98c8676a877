//! The blob-sync contract. A commit mirrors into the blob store only the
//! slots it wrote, plus any slot whose put the backend refused before, and
//! that is enough: after every commit the blob store holds what a walk of
//! the whole current version would put there, and the store counts each
//! tiny block ([`TINY_BLOCK`]) kept in its version once. Run over random
//! update sequences with blocks on both sides of the cut on a backend that
//! refuses some puts, and with a count of the calls one append makes to a
//! large object.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use oceanstore_crypto::swp::SearchKey;
use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::Guid;
use oceanstore_replica::{ObjectStore, TentativeId, TINY_BLOCK};
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

/// Block lengths on both sides of the cut: two kept in their version,
/// two filed.
const LENGTHS: [usize; 4] = [16, TINY_BLOCK, TINY_BLOCK + 1, 64];

/// A ciphertext of `tag` whose length `size` picks from [`LENGTHS`]; few
/// distinct tags, so filed blocks dedup across slots.
fn block(tag: u8, size: u8) -> Vec<u8> {
    vec![tag % 12; LENGTHS[usize::from(size) % LENGTHS.len()]]
}

/// One random update against an object of `slots` slots, `logical` of
/// them in the logical sequence. `kind` picks the shape: an append, a
/// replace, an insert (two appends spliced in by an index block), a
/// delete, a search index, or a clause whose predicate fails — ahead of a
/// clause that holds, or alone. `size` picks the length of its first
/// block; a second one is the next length up, so one update can write
/// blocks on both sides of the cut.
fn update(kind: u8, tag: u8, size: u8, at: usize, slots: usize, logical: usize) -> Update {
    // Out of range when the object is empty: the update aborts.
    let position = if logical == 0 { at } else { at % logical };
    let write = |tag, size| match tag % 2 {
        0 => Action::Append { ciphertext: block(tag, size) },
        _ => Action::ReplaceBlock { position, ciphertext: block(tag, size) },
    };
    let next = size.wrapping_add(1);
    match kind % 7 {
        0 => Update::unconditional(vec![Action::Append { ciphertext: block(tag, size) }]),
        1 => {
            let ciphertext = block(tag, size);
            Update::unconditional(vec![Action::ReplaceBlock { position, ciphertext }])
        }
        2 => Update::unconditional(vec![
            Action::Append { ciphertext: block(tag, size) },
            Action::Append { ciphertext: block(tag.wrapping_add(1), next) },
            Action::ReplaceWithIndex { position, pointers: vec![slots + 1, slots] },
        ]),
        3 => Update::unconditional(vec![Action::DeleteBlock { position }]),
        4 => {
            let word = [tag];
            let index = SearchKey::from_seed(b"sync").build_index(b"o", vec![word.as_slice()]);
            Update::unconditional(vec![Action::SetSearchIndex(index), write(tag, size)])
        }
        5 => Update::default()
            .with_clause(
                Predicate::CompareVersion(u64::MAX),
                vec![write(tag, size), write(tag ^ 1, next)],
            )
            .with_clause(Predicate::True, vec![write(tag.wrapping_add(3), next), write(tag, size)]),
        _ => Update::default()
            .with_clause(Predicate::CompareVersion(u64::MAX), vec![write(tag, size)]),
    }
}

/// Data slots of `objects` (every object the store holds) above the cut
/// and not filed in the blob store, as its refcounts count them: every
/// such block's CID, each once, against one reference per filed slot.
fn unfiled(store: &ObjectStore, objects: &[Guid]) -> u64 {
    let mut cids: BTreeMap<Guid, u64> = BTreeMap::new();
    for object in objects {
        let Some(st) = store.get(object) else { continue };
        for block in &st.data.current().blocks {
            match block {
                Block::Data(bytes) if bytes.len() > TINY_BLOCK => {
                    *cids.entry(cid_of(bytes)).or_default() += 1;
                }
                _ => {}
            }
        }
    }
    let blobs = store.blob_store();
    cids.iter().map(|(cid, slots)| slots - blobs.refcount(cid)).sum()
}

/// Every data slot the store reports held is named by the CID of its
/// bytes, no index slot is, and no tiny block is refused; the blob
/// store's refcounts are exactly one per filed slot above the cut, and
/// the store counts one block per tiny slot with its bytes — what a
/// rescan of every object's whole version counts.
fn check(store: &ObjectStore, objects: &[Guid]) {
    let mut rescan: BTreeMap<Guid, u64> = BTreeMap::new();
    let (mut kept, mut kept_bytes) = (0, 0);
    for object in objects {
        let Some(st) = store.get(object) else { continue };
        for (slot, block) in st.data.current().blocks.iter().enumerate() {
            match (block, store.slot_cid(object, slot)) {
                (Block::Data(bytes), Some(cid)) => {
                    assert_eq!(cid, cid_of(bytes), "slot {slot} held under another name");
                    if bytes.len() <= TINY_BLOCK {
                        kept += 1;
                        kept_bytes += bytes.len() as u64;
                    } else {
                        *rescan.entry(cid).or_default() += 1;
                    }
                }
                // Refused; retried on the next commit.
                (Block::Data(bytes), None) => {
                    assert!(bytes.len() > TINY_BLOCK, "tiny slot {slot} refused")
                }
                (Block::Index(_), cid) => assert_eq!(cid, None, "index slot {slot} filed"),
            }
        }
    }
    let blobs = store.blob_store();
    for (cid, refs) in &rescan {
        assert_eq!(blobs.refcount(cid), *refs, "refcount of {cid}");
    }
    assert_eq!(blobs.dedup_stats().live_cids, rescan.len() as u64, "a reference nothing holds");
    let (health, filed) = (store.health(), blobs.stats());
    assert_eq!(health.blob_count - filed.blobs, kept, "kept blocks counted");
    assert_eq!(health.blob_bytes - filed.bytes, kept_bytes, "kept bytes counted");
}

proptest! {
    #[test]
    fn the_blob_store_holds_what_a_rescan_would(
        seed in any::<u64>(),
        steps in proptest::collection::vec(
            (0..2usize, any::<u8>(), any::<u8>(), any::<u8>(), 0..64usize),
            1..48,
        ),
    ) {
        let objects = [Guid::from_label("sync-a"), Guid::from_label("sync-b")];
        // A provider that refuses about a quarter of its operations.
        let mut store = ObjectStore::with_backend(Box::new(SimRemoteStore::new(seed, 0, 0.25)));
        let mut n = 0;
        for (which, kind, tag, size, at) in steps {
            let object = objects[which];
            let (slots, logical) = store.get(&object).map_or((0, 0), |st| {
                let v = st.data.current();
                (v.blocks.len(), v.logical_order().len())
            });
            commit(&mut store, object, update(kind, tag, size, at, slots, logical), n);
            n += 1;
            check(&store, &objects);
        }
        // A refused put is retried on every later commit to its object,
        // an aborted one included, until the provider takes it.
        while unfiled(&store, &objects) > 0 {
            prop_assert!(n < 10_000, "refused puts never retried");
            for object in objects {
                commit(&mut store, object, update(6, 0, 0, 0, 0, 0), n);
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

    fn get(&mut self, cid: &Guid) -> Result<Option<Bytes>, StoreError> {
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

/// Growth guard, as a count: 1 000 tiny appends call the backend never
/// and 1 000 larger ones once each; one append to a 2 000-slot object is
/// one put; one replace of a filed block is one delete and one put.
#[test]
fn a_commit_costs_the_blob_store_what_it_wrote() {
    let backend = Counted::default();
    let calls = Arc::clone(&backend.calls);
    let taken = || calls.swap(0, Ordering::Relaxed);
    let mut store = ObjectStore::with_backend(Box::new(backend));
    let object = Guid::from_label("large");
    let appends = |len: usize| {
        let block = |i: u32| [i.to_le_bytes().as_slice(), &vec![0; len - 4]].concat();
        Update::unconditional((0..1_000).map(|i| Action::Append { ciphertext: block(i) }).collect())
    };
    commit(&mut store, object, appends(8), 0);
    assert_eq!(taken(), 0, "1 000 tiny appends");
    commit(&mut store, object, appends(TINY_BLOCK + 1), 1);
    assert_eq!(taken(), 1_000, "1 000 filed appends");

    let append = Action::Append { ciphertext: block(1, 3) };
    commit(&mut store, object, Update::unconditional(vec![append]), 2);
    assert_eq!(taken(), 1, "an append to 2 000 slots");

    let replace = Action::ReplaceBlock { position: 1_500, ciphertext: block(2, 3) };
    commit(&mut store, object, Update::unconditional(vec![replace]), 3);
    assert_eq!(taken(), 2, "a replace of a filed block in 2 001 slots");

    let replace = Action::ReplaceBlock { position: 500, ciphertext: block(2, 0) };
    commit(&mut store, object, Update::unconditional(vec![replace]), 4);
    assert_eq!(taken(), 0, "a replace of a tiny block by a tiny one");
}

/// One slot replaced across the cut both ways: a filed block that
/// displaces a tiny one is put and nothing released; a tiny block that
/// displaces a filed one releases it and puts nothing; the store counts
/// the slot's one block throughout.
#[test]
fn a_slot_replaced_across_the_cut_moves_between_version_and_blob_store() {
    let backend = Counted::default();
    let calls = Arc::clone(&backend.calls);
    let taken = || calls.swap(0, Ordering::Relaxed);
    let mut store = ObjectStore::with_backend(Box::new(backend));
    let object = Guid::from_label("across");
    let held = |store: &ObjectStore| {
        let h = store.health();
        (h.blob_count, h.blob_bytes, store.blob_store().dedup_stats().live_cids)
    };
    let append = Action::Append { ciphertext: block(1, 1) };
    commit(&mut store, object, Update::unconditional(vec![append]), 0);
    assert_eq!((taken(), held(&store)), (0, (1, TINY_BLOCK as u64, 0)), "kept");

    let replace = |ciphertext| {
        Update::unconditional(vec![Action::ReplaceBlock { position: 0, ciphertext }])
    };
    commit(&mut store, object, replace(block(2, 3)), 1);
    assert_eq!((taken(), held(&store)), (1, (1, 64, 1)), "tiny → filed: one put");
    assert_eq!(store.blob_store().refcount(&cid_of(&block(2, 3))), 1);

    commit(&mut store, object, replace(block(3, 0)), 2);
    assert_eq!((taken(), held(&store)), (1, (1, 16, 0)), "filed → tiny: one delete");
    assert_eq!(store.blob_store().refcount(&cid_of(&block(2, 3))), 0);
    assert_eq!(store.slot_cid(&object, 0), Some(cid_of(&block(3, 0))));
    assert_eq!(store.read_block(&object, 0).as_deref(), Some(&block(3, 0)[..]));
    assert_eq!((taken(), store.health().fallback_reads), (0, 0), "read from the version");
}
