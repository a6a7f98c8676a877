//! The in-memory backend: a plain map of views by CID behind the
//! [`BlobStore`] trait. It never fails, and it performs no verification on
//! read because the bytes never left RAM. The replica and archival tiers'
//! default keeps the same map inside their dedup layer
//! ([`crate::DedupStore::in_memory`]), each view beside its refcount, and
//! counts exactly as this backend does.

use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::{Guid, IdMap};

use crate::{cid_of, BlobStore, StoreError, StoreStats};

/// An in-RAM content-addressed store.
#[derive(Debug, Default)]
pub struct MemoryStore {
    blobs: IdMap<Guid, Bytes>,
    stats: StoreStats,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> Self {
        MemoryStore::default()
    }

    fn file(&mut self, cid: Guid, blob: Bytes) -> Guid {
        let len = blob.len() as u64;
        if self.blobs.insert(cid, blob).is_none() {
            self.stats.blobs += 1;
            self.stats.bytes += len;
            self.stats.puts += 1;
        }
        cid
    }
}

impl BlobStore for MemoryStore {
    fn put(&mut self, data: &[u8]) -> Result<Guid, StoreError> {
        Ok(self.file(cid_of(data), Bytes::copy_from_slice(data)))
    }

    /// Files the caller's view under the caller's name: no hash, no copy.
    /// The bytes never leave RAM, so the name is checked where the rest of
    /// this backend's invariants are — in debug builds.
    fn put_shared(&mut self, cid: Guid, data: &Bytes) -> Result<Guid, StoreError> {
        debug_assert_eq!(cid, cid_of(data), "a passed-down CID must name the bytes it comes with");
        Ok(self.file(cid, data.clone()))
    }

    /// A clone of the view filed under `cid`: no byte is copied.
    fn get(&mut self, cid: &Guid) -> Result<Option<Bytes>, StoreError> {
        match self.blobs.get(cid) {
            Some(b) => {
                self.stats.gets += 1;
                Ok(Some(b.clone()))
            }
            None => Ok(None),
        }
    }

    fn has(&mut self, cid: &Guid) -> bool {
        self.blobs.contains_key(cid)
    }

    fn delete(&mut self, cid: &Guid) -> Result<bool, StoreError> {
        match self.blobs.remove(cid) {
            Some(b) => {
                self.stats.blobs -= 1;
                self.stats.bytes -= b.len() as u64;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn stats(&self) -> StoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_contents() {
        let mut s = MemoryStore::new();
        s.put(b"aaaa").unwrap();
        s.put(b"bbbbbb").unwrap();
        s.put(b"aaaa").unwrap(); // idempotent: no double count
        assert_eq!(s.stats().blobs, 2);
        assert_eq!(s.stats().bytes, 10);
        s.delete(&cid_of(b"aaaa")).unwrap();
        assert_eq!(s.stats().blobs, 1);
        assert_eq!(s.stats().bytes, 6);
    }

    #[test]
    fn put_shared_keeps_the_callers_allocation() {
        use std::sync::Arc;
        let mut s = MemoryStore::new();
        let whole = Bytes::from(b"[one allocation, two owners]".to_vec());
        let blob = whole.slice(1..whole.len() - 1);
        let cid = s.put_shared(cid_of(&blob), &blob).unwrap();
        assert_eq!(Arc::strong_count(blob.buffer()), 3, "the whole, the view and the store's");
        // Counted exactly as `put` counts it: the view's bytes, not its buffer's.
        assert_eq!((s.stats().blobs, s.stats().bytes, s.stats().puts), (1, blob.len() as u64, 1));
        let got = s.get(&cid).unwrap().unwrap();
        assert!(Arc::ptr_eq(got.buffer(), blob.buffer()), "a read hands out the filed view");
        assert_eq!(got, blob);
        drop(got);
        s.delete(&cid).unwrap();
        assert_eq!(Arc::strong_count(blob.buffer()), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a passed-down CID must name the bytes")]
    fn put_shared_refuses_a_wrong_name_in_debug_builds() {
        let blob = Bytes::copy_from_slice(b"these bytes");
        let _ = MemoryStore::new().put_shared(cid_of(b"other bytes"), &blob);
    }
}
