//! Block-level dedup: refcounted CIDs over the bytes they name.
//!
//! Content addressing makes dedup structural — two owners storing the
//! same bytes name the same blob — but deletion then needs reference
//! counting: an object dropping its copy must not destroy another
//! object's. [`DedupStore`] keeps the refcounts (always in RAM: they are
//! index state, not blob state) and counts every elided write as a dedup
//! hit with its bytes saved.
//!
//! Where the bytes live decides how many tables a block costs. In RAM
//! ([`DedupStore::in_memory`], the default backend) one entry per CID
//! holds the count and the view together: one hash entry and one probe a
//! block, and the layer keeps the [`StoreStats`] a [`MemoryStore`] would.
//! Over a backend whose bytes live elsewhere ([`DedupStore::new`]: a
//! directory, a provider) the entry holds the count alone, and the
//! backend is called on the first put and the last delete.
//!
//! [`MemoryStore`]: crate::MemoryStore

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
    /// Total logical bytes of the references taken (including elided
    /// puts; a put the backend refused takes none).
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

/// Where a [`DedupStore`]'s bytes live.
#[derive(Debug)]
enum Backing {
    /// In its own table, beside each count; with the counters a
    /// [`crate::MemoryStore`] keeps.
    Table(StoreStats),
    /// In a backend it calls on the first put and the last delete.
    Inner(Box<dyn BlobStore>),
}

/// One live CID: its reference count, and its view when the table holds
/// the bytes.
#[derive(Debug)]
struct Held {
    refs: u64,
    view: Option<Bytes>,
}

/// A refcounting dedup layer over the bytes it names.
#[derive(Debug)]
pub struct DedupStore {
    held: IdMap<Guid, Held>,
    backing: Backing,
    dedup: DedupStats,
}

impl DedupStore {
    /// Wraps `inner` with refcounted dedup: the counts here, the bytes
    /// there.
    pub fn new(inner: Box<dyn BlobStore>) -> Self {
        Self::over(Backing::Inner(inner))
    }

    /// An in-RAM store with refcounted dedup: each block's count and view
    /// in one table entry. It stores, serves and counts exactly as
    /// [`DedupStore::new`] over a [`crate::MemoryStore`].
    pub fn in_memory() -> Self {
        Self::over(Backing::Table(StoreStats::default()))
    }

    fn over(backing: Backing) -> Self {
        DedupStore { held: IdMap::default(), backing, dedup: DedupStats::default() }
    }

    /// Dedup counters.
    pub fn dedup_stats(&self) -> DedupStats {
        self.dedup
    }

    /// Current reference count of `cid`.
    pub fn refcount(&self, cid: &Guid) -> u64 {
        self.held.get(cid).map_or(0, |h| h.refs)
    }

    /// Takes one more reference to `cid`, naming `data`. On the first, the
    /// table files `view()` and an inner backend runs `store`; the
    /// reference exists only once that succeeds, else a failed provider
    /// write would strand a refcount with no blob behind it.
    fn reference(
        &mut self,
        cid: Guid,
        data: &[u8],
        view: impl FnOnce() -> Bytes,
        store: impl FnOnce(&mut dyn BlobStore) -> Result<Guid, StoreError>,
    ) -> Result<Guid, StoreError> {
        let len = data.len() as u64;
        match self.held.entry(cid) {
            Entry::Occupied(mut held) => {
                held.get_mut().refs += 1;
                self.dedup.hits += 1;
                self.dedup.bytes_saved += len;
            }
            Entry::Vacant(slot) => {
                let view = match &mut self.backing {
                    Backing::Table(stats) => {
                        stats.blobs += 1;
                        stats.bytes += len;
                        stats.puts += 1;
                        Some(view())
                    }
                    Backing::Inner(inner) => {
                        store(inner.as_mut())?;
                        None
                    }
                };
                slot.insert(Held { refs: 1, view });
                self.dedup.live_cids += 1;
            }
        }
        self.dedup.logical_bytes += len;
        Ok(cid)
    }
}

impl BlobStore for DedupStore {
    fn put(&mut self, data: &[u8]) -> Result<Guid, StoreError> {
        let view = || Bytes::copy_from_slice(data);
        self.reference(cid_of(data), data, view, |inner| inner.put(data))
    }

    /// Refcounts under the caller's name; the first reference files the
    /// caller's view (in the table: no hash, no copy) or hands name and
    /// view on. In the table the name is checked in debug builds, as
    /// [`crate::MemoryStore`] checks it.
    fn put_shared(&mut self, cid: Guid, data: &Bytes) -> Result<Guid, StoreError> {
        if matches!(self.backing, Backing::Table(_)) {
            debug_assert_eq!(
                cid,
                cid_of(data),
                "a passed-down CID must name the bytes it comes with"
            );
        }
        self.reference(cid, data, || data.clone(), |inner| inner.put_shared(cid, data))
    }

    fn get(&mut self, cid: &Guid) -> Result<Option<Bytes>, StoreError> {
        match &mut self.backing {
            Backing::Table(stats) => {
                let view = self.held.get(cid).and_then(|h| h.view.clone());
                stats.gets += u64::from(view.is_some());
                Ok(view)
            }
            Backing::Inner(inner) => inner.get(cid),
        }
    }

    fn has(&mut self, cid: &Guid) -> bool {
        match &mut self.backing {
            Backing::Table(_) => self.held.contains_key(cid),
            Backing::Inner(inner) => inner.has(cid),
        }
    }

    fn delete(&mut self, cid: &Guid) -> Result<bool, StoreError> {
        let Some(held) = self.held.get_mut(cid) else { return Ok(false) };
        if held.refs > 1 {
            held.refs -= 1;
            return Ok(true);
        }
        // Last reference: drop the blob itself. Remove the refcount even
        // if the provider refuses the delete — the logical reference is
        // gone either way.
        let Held { view, .. } = self.held.remove(cid).expect("found above");
        self.dedup.live_cids -= 1;
        match &mut self.backing {
            Backing::Table(stats) => {
                stats.blobs -= 1;
                stats.bytes -= view.map_or(0, |v| v.len() as u64);
                Ok(true)
            }
            Backing::Inner(inner) => inner.delete(cid),
        }
    }

    fn stats(&self) -> StoreStats {
        match &self.backing {
            Backing::Table(stats) => *stats,
            Backing::Inner(inner) => inner.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryStore, SimRemoteStore};

    /// The one-table layer and the layer over an in-RAM backend: every
    /// test here runs on both.
    fn stores() -> [DedupStore; 2] {
        [DedupStore::in_memory(), DedupStore::new(Box::new(MemoryStore::new()))]
    }

    #[test]
    fn put_put_delete_keeps_blob_until_last_ref_drops() {
        for mut s in stores() {
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
    }

    #[test]
    fn put_shared_refcounts_like_put_and_forwards_the_view() {
        use std::sync::Arc;
        for mut s in stores() {
            let blob = Bytes::copy_from_slice(b"shared block");
            let cid = cid_of(&blob);
            assert_eq!(s.put_shared(cid, &blob).unwrap(), cid);
            assert_eq!(s.put_shared(cid, &blob).unwrap(), cid);
            assert_eq!(s.refcount(&cid), 2);
            assert_eq!(s.put(b"shared block").unwrap(), cid);
            assert_eq!(s.refcount(&cid), 3);
            assert_eq!(Arc::strong_count(blob.buffer()), 2, "the store holds the caller's view");
            let got = s.get(&cid).unwrap().unwrap();
            assert!(Arc::ptr_eq(got.buffer(), blob.buffer()), "a read hands out the filed view");
            drop(got);
            let d = s.dedup_stats();
            assert_eq!((d.hits, d.bytes_saved, d.logical_bytes, d.live_cids), (2, 24, 36, 1));
            for _ in 0..3 {
                assert!(s.delete(&cid).unwrap());
            }
            assert!(!s.has(&cid));
            assert_eq!(Arc::strong_count(blob.buffer()), 1);
        }
    }

    #[test]
    fn hit_and_savings_counters() {
        for mut s in stores() {
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
            assert_eq!(s.stats().bytes, 16, "the bytes are held once each");
        }
    }

    #[test]
    fn one_table_counts_as_a_memory_backend_does() {
        let [mut table, mut layered] = stores();
        for s in [&mut table, &mut layered] {
            let a = s.put(b"aaaa").unwrap();
            s.put(b"aaaa").unwrap();
            s.put(b"bbbbbb").unwrap();
            s.get(&a).unwrap();
            s.get(&cid_of(b"absent")).unwrap();
            s.delete(&a).unwrap();
            s.delete(&a).unwrap();
        }
        assert_eq!(table.stats(), layered.stats());
        let st = table.stats();
        assert_eq!((st.blobs, st.bytes, st.puts, st.gets), (1, 6, 2, 1));
        assert_eq!(table.dedup_stats(), layered.dedup_stats());
    }

    /// A put the backend refuses takes no reference, so it adds nothing to
    /// the logical bytes: neither when refused nor when retried.
    #[test]
    fn a_refused_put_is_not_counted() {
        let provider = crate::SharedStore::new(SimRemoteStore::new(4, 0, 0.0));
        let mut s = DedupStore::new(Box::new(provider.clone()));
        provider.with(|p| p.set_down(true));
        let blob = Bytes::copy_from_slice(b"refused twice");
        let cid = cid_of(&blob);
        for _ in 0..2 {
            assert_eq!(s.put_shared(cid, &blob), Err(StoreError::Unavailable));
            assert_eq!(s.put(b"refused twice"), Err(StoreError::Unavailable));
        }
        assert_eq!(s.refcount(&cid), 0);
        assert_eq!(s.dedup_stats(), DedupStats::default());
        provider.with(|p| p.set_down(false));
        s.put_shared(cid, &blob).unwrap();
        s.put(b"refused twice").unwrap();
        let d = s.dedup_stats();
        assert_eq!((d.hits, d.bytes_saved, d.logical_bytes, d.live_cids), (1, 13, 26, 1));
        assert!((d.ratio() - 2.0).abs() < 1e-9);
    }
}
