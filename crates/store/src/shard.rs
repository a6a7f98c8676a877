//! Hash-range sharding across independent stores, and the shared-handle
//! wrapper that lets several simulated nodes address one provider.
//!
//! [`ShardedStore`] is the storage-layer sibling of the replica tier's
//! `ShardRouter`: a pure function of the CID decides the owning shard,
//! so every node computes the same placement with no coordination. Where
//! the ring router mixes the GUID through splitmix64 (object GUIDs are
//! owner-key hashes whose distribution shouldn't be trusted), CIDs are
//! already uniform secure hashes, so the range split reads directly off
//! the first byte: with two shards, `00-7f → A` and `80-ff → B`.

use std::sync::{Arc, Mutex, MutexGuard};

use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::Guid;

use crate::{cid_of, BlobStore, StoreError, StoreStats};

/// The owning shard of `cid` among `n`: the first byte of the CID scaled
/// into `0..n`. Total (every CID maps somewhere), stable (pure function
/// of the bytes), and contiguous in hash ranges — with `n = 2` this is
/// exactly `00-7f → 0`, `80-ff → 1`.
pub fn shard_of(cid: &Guid, n: usize) -> usize {
    debug_assert!(n > 0, "a sharded store needs at least one shard");
    (cid.as_bytes()[0] as usize * n) >> 8
}

/// A composite store routing each CID to one of several shards.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Box<dyn BlobStore>>,
}

impl ShardedStore {
    /// A sharded store over the given backends (hash ranges split evenly
    /// in shard order).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn new(shards: Vec<Box<dyn BlobStore>>) -> Self {
        assert!(!shards.is_empty(), "a sharded store needs at least one shard");
        ShardedStore { shards }
    }

    fn shard_for(&mut self, cid: &Guid) -> &mut dyn BlobStore {
        let i = shard_of(cid, self.shards.len());
        self.shards[i].as_mut()
    }
}

impl BlobStore for ShardedStore {
    fn put(&mut self, data: &[u8]) -> Result<Guid, StoreError> {
        let cid = cid_of(data);
        self.shard_for(&cid).put(data)
    }

    fn get(&mut self, cid: &Guid) -> Result<Option<Bytes>, StoreError> {
        self.shard_for(cid).get(cid)
    }

    fn has(&mut self, cid: &Guid) -> bool {
        self.shard_for(cid).has(cid)
    }

    fn delete(&mut self, cid: &Guid) -> Result<bool, StoreError> {
        self.shard_for(cid).delete(cid)
    }

    fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for s in &self.shards {
            let st = s.stats();
            total.blobs += st.blobs;
            total.bytes += st.bytes;
            total.puts += st.puts;
            total.gets += st.gets;
            total.denied += st.denied;
            total.injected_latency_us += st.injected_latency_us;
        }
        total
    }
}

/// A cloneable handle to a store shared by several owners — in the sim,
/// many nodes writing to one provider while the chaos harness keeps a
/// handle with which to kill it.
#[derive(Debug)]
pub struct SharedStore<S: BlobStore>(Arc<Mutex<S>>);

impl<S: BlobStore> Clone for SharedStore<S> {
    fn clone(&self) -> Self {
        SharedStore(Arc::clone(&self.0))
    }
}

impl<S: BlobStore> SharedStore<S> {
    /// Wraps `store` for sharing.
    pub fn new(store: S) -> Self {
        SharedStore(Arc::new(Mutex::new(store)))
    }

    /// Runs `f` with exclusive access to the wrapped store (e.g. to flip
    /// a provider's failure switch).
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.lock())
    }

    fn lock(&self) -> MutexGuard<'_, S> {
        self.0.lock().expect("an owner panicked inside the shared store")
    }
}

impl<S: BlobStore> BlobStore for SharedStore<S> {
    fn put(&mut self, data: &[u8]) -> Result<Guid, StoreError> {
        self.lock().put(data)
    }

    fn get(&mut self, cid: &Guid) -> Result<Option<Bytes>, StoreError> {
        self.lock().get(cid)
    }

    fn has(&mut self, cid: &Guid) -> bool {
        self.lock().has(cid)
    }

    fn delete(&mut self, cid: &Guid) -> Result<bool, StoreError> {
        self.lock().delete(cid)
    }

    fn stats(&self) -> StoreStats {
        self.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryStore, SimRemoteStore};

    #[test]
    fn two_shard_ranges_are_pinned() {
        // 0x00..=0x7f → shard 0 (A); 0x80..=0xff → shard 1 (B).
        for b0 in 0u16..=255 {
            let mut bytes = [0u8; 20];
            bytes[0] = b0 as u8;
            let cid = Guid::from_bytes(bytes);
            let want = usize::from(b0 >= 0x80);
            assert_eq!(shard_of(&cid, 2), want, "first byte {b0:#04x}");
        }
    }

    #[test]
    fn routing_places_each_blob_in_exactly_one_shard() {
        let mut s = ShardedStore::new(vec![
            Box::new(MemoryStore::new()),
            Box::new(MemoryStore::new()),
        ]);
        let mut cids = Vec::new();
        for i in 0..64u32 {
            cids.push(s.put(format!("blob-{i}").as_bytes()).unwrap());
        }
        let total = s.stats();
        assert_eq!(total.blobs, 64);
        for cid in &cids {
            assert!(s.has(cid));
            assert!(s.get(cid).unwrap().is_some());
        }
        // Both ranges must actually be populated at this sample size.
        assert!(s.shards[0].stats().blobs > 0, "range 00-7f empty");
        assert!(s.shards[1].stats().blobs > 0, "range 80-ff empty");
    }

    #[test]
    fn dead_shard_fails_only_its_own_range() {
        let a = SharedStore::new(SimRemoteStore::new(1, 0, 0.0));
        let b = SharedStore::new(SimRemoteStore::new(2, 0, 0.0));
        let mut s = ShardedStore::new(vec![Box::new(a.clone()), Box::new(b.clone())]);
        let mut cids = Vec::new();
        for i in 0..64u32 {
            cids.push(s.put(format!("ranged-{i}").as_bytes()).unwrap());
        }
        a.with(|p| p.set_down(true));
        let (mut lost, mut served) = (0, 0);
        for cid in &cids {
            match s.get(cid) {
                Ok(Some(_)) => served += 1,
                Err(StoreError::Unavailable) => {
                    assert_eq!(shard_of(cid, 2), 0, "only range A may fail");
                    lost += 1;
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(lost + served, 64);
        assert!(lost > 0 && served > 0);
    }

    #[test]
    fn shared_handle_sees_one_store() {
        let shared = SharedStore::new(MemoryStore::new());
        let mut h1 = shared.clone();
        let mut h2 = shared.clone();
        let cid = h1.put(b"one copy").unwrap();
        assert!(h2.has(&cid));
        assert_eq!(shared.with(|s| s.stats().blobs), 1);
    }
}
