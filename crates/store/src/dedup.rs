//! Block-level dedup: refcounted CIDs over any inner backend.
//!
//! Content addressing makes dedup structural — two owners storing the
//! same bytes name the same blob — but deletion then needs reference
//! counting: an object dropping its copy must not destroy another
//! object's. [`DedupStore`] keeps the refcounts (always in RAM: they are
//! index state, not blob state) and forwards to the inner store only on
//! the first put and the last delete, counting every elided write as a
//! dedup hit with its bytes saved.

use std::collections::hash_map::Entry;

use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::{Guid, IdMap};

use crate::{cid_of, BlobStore, StoreError, StoreStats};

/// Dedup counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Puts elided because the blob was already referenced.
    pub hits: u64,
    /// Bytes those elided puts would have written.
    pub bytes_saved: u64,
    /// Total logical bytes put (including elided puts).
    pub logical_bytes: u64,
    /// Live CIDs (refcount > 0).
    pub live_cids: u64,
}

impl DedupStats {
    /// Logical-to-stored ratio; 1.0 when nothing deduplicated.
    pub fn ratio(&self) -> f64 {
        let stored = self.logical_bytes.saturating_sub(self.bytes_saved);
        if stored == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / stored as f64
        }
    }
}

/// A refcounting dedup layer over an inner [`BlobStore`].
#[derive(Debug)]
pub struct DedupStore {
    inner: Box<dyn BlobStore>,
    refs: IdMap<Guid, u64>,
    dedup: DedupStats,
}

impl DedupStore {
    /// Wraps `inner` with refcounted dedup.
    pub fn new(inner: Box<dyn BlobStore>) -> Self {
        DedupStore { inner, refs: IdMap::default(), dedup: DedupStats::default() }
    }

    /// Dedup counters.
    pub fn dedup_stats(&self) -> DedupStats {
        self.dedup
    }

    /// Current reference count of `cid`.
    pub fn refcount(&self, cid: &Guid) -> u64 {
        self.refs.get(cid).copied().unwrap_or(0)
    }

    /// Takes one more reference to the `len`-byte blob `cid`, running
    /// `store` against the inner backend only when it is the first.
    fn reference(
        &mut self,
        cid: Guid,
        len: usize,
        store: impl FnOnce(&mut dyn BlobStore) -> Result<Guid, StoreError>,
    ) -> Result<Guid, StoreError> {
        self.dedup.logical_bytes += len as u64;
        match self.refs.entry(cid) {
            Entry::Occupied(mut rc) => {
                *rc.get_mut() += 1;
                self.dedup.hits += 1;
                self.dedup.bytes_saved += len as u64;
            }
            Entry::Vacant(slot) => {
                // First reference: the inner put must succeed before the
                // reference exists, else a failed provider write would
                // strand a refcount with no blob behind it.
                store(self.inner.as_mut())?;
                slot.insert(1);
                self.dedup.live_cids += 1;
            }
        }
        Ok(cid)
    }
}

impl BlobStore for DedupStore {
    fn put(&mut self, data: &[u8]) -> Result<Guid, StoreError> {
        self.reference(cid_of(data), data.len(), |inner| inner.put(data))
    }

    /// Refcounts under the caller's name, then hands name and view on.
    fn put_shared(&mut self, cid: Guid, data: &Bytes) -> Result<Guid, StoreError> {
        self.reference(cid, data.len(), |inner| inner.put_shared(cid, data))
    }

    fn get(&mut self, cid: &Guid) -> Result<Option<Bytes>, StoreError> {
        self.inner.get(cid)
    }

    fn has(&mut self, cid: &Guid) -> bool {
        self.inner.has(cid)
    }

    fn delete(&mut self, cid: &Guid) -> Result<bool, StoreError> {
        match self.refs.get_mut(cid) {
            None => Ok(false),
            Some(rc) if *rc > 1 => {
                *rc -= 1;
                Ok(true)
            }
            Some(_) => {
                // Last reference: drop the blob itself. Remove the
                // refcount even if the provider refuses the delete — the
                // logical reference is gone either way.
                self.refs.remove(cid);
                self.dedup.live_cids -= 1;
                self.inner.delete(cid)
            }
        }
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryStore;

    fn store() -> DedupStore {
        DedupStore::new(Box::new(MemoryStore::new()))
    }

    #[test]
    fn put_put_delete_keeps_blob_until_last_ref_drops() {
        let mut s = store();
        let cid = s.put(b"shared block").unwrap();
        assert_eq!(s.put(b"shared block").unwrap(), cid);
        assert_eq!(s.refcount(&cid), 2);
        assert!(s.delete(&cid).unwrap());
        assert!(s.has(&cid), "one reference remains; blob must survive");
        assert_eq!(s.get(&cid).unwrap().as_deref(), Some(b"shared block".as_ref()));
        assert!(s.delete(&cid).unwrap());
        assert!(!s.has(&cid), "last reference dropped; blob gone");
        assert!(!s.delete(&cid).unwrap());
    }

    #[test]
    fn put_shared_refcounts_like_put_and_forwards_the_view() {
        use std::sync::Arc;
        let mut s = store();
        let blob = Bytes::copy_from_slice(b"shared block");
        let cid = cid_of(&blob);
        assert_eq!(s.put_shared(cid, &blob).unwrap(), cid);
        assert_eq!(s.put_shared(cid, &blob).unwrap(), cid);
        assert_eq!(s.refcount(&cid), 2);
        assert_eq!(s.put(b"shared block").unwrap(), cid);
        assert_eq!(s.refcount(&cid), 3);
        assert_eq!(Arc::strong_count(blob.buffer()), 2, "the inner store holds the caller's view");
        let d = s.dedup_stats();
        assert_eq!((d.hits, d.bytes_saved, d.logical_bytes, d.live_cids), (2, 24, 36, 1));
        for _ in 0..3 {
            assert!(s.delete(&cid).unwrap());
        }
        assert!(!s.has(&cid));
        assert_eq!(Arc::strong_count(blob.buffer()), 1);
    }

    #[test]
    fn hit_and_savings_counters() {
        let mut s = store();
        s.put(b"0123456789").unwrap();
        s.put(b"0123456789").unwrap();
        s.put(b"0123456789").unwrap();
        s.put(b"unique").unwrap();
        let d = s.dedup_stats();
        assert_eq!(d.hits, 2);
        assert_eq!(d.bytes_saved, 20);
        assert_eq!(d.logical_bytes, 36);
        assert_eq!(d.live_cids, 2);
        assert!((d.ratio() - 36.0 / 16.0).abs() < 1e-9);
        assert_eq!(s.stats().bytes, 16, "inner store holds each blob once");
    }
}
