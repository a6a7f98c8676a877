//! Fragment holdings routed through the content-addressed blob layer.
//!
//! An archival server used to keep whole [`Fragment`]s in a plain map.
//! [`FragStore`] splits that into the two things a fragment actually is:
//! the erasure-coded *payload* (a blob, stored under its CID in a
//! pluggable [`BlobStore`] with refcounted dedup — re-disseminated
//! fragments land on the same bytes and are stored once) and the
//! *metadata* that names it (index key, Merkle proof, root), which stays
//! in RAM. Reads rebuild the `Fragment` from both halves; a payload the
//! backend lost or corrupted is simply not served — the self-verifying
//! erasure property means the reader reconstructs from other holders,
//! which is the paper's durability argument working as designed.

use std::collections::HashMap;

use oceanstore_crypto::merkle::MerkleProof;
use oceanstore_naming::guid::Guid;
use oceanstore_store::{BlobStore, DedupStore};

use crate::fragment::Fragment;

/// The in-RAM half of a stored fragment: everything but the payload.
#[derive(Debug, Clone)]
struct FragMeta {
    /// CID of the payload blob.
    cid: Guid,
    /// Sibling hashes up to the root.
    proof: MerkleProof,
    /// The Merkle root.
    root: [u8; 32],
}

/// Store-health counters for one archival node, exported field-by-field
/// to the introspection gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FragStoreHealth {
    /// Fragment entries indexed.
    pub fragments: u64,
    /// Blobs held by the backend.
    pub blob_count: u64,
    /// Logical bytes held by the backend.
    pub blob_bytes: u64,
    /// Dedup hits (re-disseminated fragments already held).
    pub dedup_hits: u64,
    /// Bytes those elided writes saved.
    pub dedup_bytes_saved: u64,
    /// Reads the backend could not serve (missing or corrupt payload);
    /// the fragment was skipped, not served wrong.
    pub missed_reads: u64,
    /// Fragment stores the backend refused (the fragment is not held).
    pub put_failures: u64,
}

/// Fragment holdings of one archival node, payloads in a [`BlobStore`].
#[derive(Debug)]
pub struct FragStore {
    blobs: DedupStore,
    index: HashMap<(Guid, usize), FragMeta>,
    missed_reads: u64,
    put_failures: u64,
}

impl Default for FragStore {
    fn default() -> Self {
        FragStore::new()
    }
}

impl FragStore {
    /// An empty store over the environment-selected blob backend: in RAM,
    /// one table entry per payload holds its view and its refcount.
    pub fn new() -> Self {
        Self::with_blobs(oceanstore_store::default_store())
    }

    /// An empty store over a specific blob backend.
    pub fn with_backend(backend: Box<dyn BlobStore>) -> Self {
        Self::with_blobs(DedupStore::new(backend))
    }

    fn with_blobs(blobs: DedupStore) -> Self {
        FragStore { blobs, index: HashMap::new(), missed_reads: 0, put_failures: 0 }
    }

    /// Swaps the blob backend, re-homing every held payload into it.
    /// Payloads the old backend cannot produce are dropped from the
    /// index (they were already unservable).
    pub fn set_blob_store(&mut self, backend: Box<dyn BlobStore>) {
        let mut fresh = DedupStore::new(backend);
        let mut keep = HashMap::new();
        for (key, meta) in std::mem::take(&mut self.index) {
            match self.blobs.get(&meta.cid) {
                Ok(Some(data)) => {
                    if fresh.put_shared(meta.cid, &data).is_ok() {
                        keep.insert(key, meta);
                    } else {
                        self.put_failures += 1;
                    }
                }
                _ => self.missed_reads += 1,
            }
        }
        self.blobs = fresh;
        self.index = keep;
    }

    /// Stores `fragment`: payload into the blob store, metadata into the
    /// index. Returns whether the fragment is held afterwards (a backend
    /// that refuses the payload leaves the fragment un-held — a reader
    /// recovers from other holders).
    pub fn insert(&mut self, fragment: Fragment) -> bool {
        let key = (fragment.archive, fragment.index);
        let cid = Guid::for_view(&fragment.data);
        if let Some(existing) = self.index.get(&key) {
            if existing.cid == cid {
                return true; // identical re-store: already one reference
            }
            // Same slot, different bytes: replace (drop the old reference).
            let old = self.index.remove(&key).expect("present");
            let _ = self.blobs.delete(&old.cid);
        }
        // The payload is named above, through its buffer's memo; the blob
        // layer files the caller's view under that name.
        match self.blobs.put_shared(cid, &fragment.data) {
            Ok(_) => {
                self.index.insert(
                    key,
                    FragMeta { cid, proof: fragment.proof, root: fragment.root },
                );
                true
            }
            Err(_) => {
                self.put_failures += 1;
                false
            }
        }
    }

    /// Rebuilds one fragment from its halves. `None` when not indexed or
    /// the backend cannot produce the payload (missing/corrupt).
    pub fn get(&mut self, archive: &Guid, index: usize) -> Option<Fragment> {
        let meta = self.index.get(&(*archive, index))?.clone();
        match self.blobs.get(&meta.cid) {
            Ok(Some(data)) => Some(Fragment {
                archive: *archive,
                index,
                data,
                proof: meta.proof,
                root: meta.root,
            }),
            _ => {
                self.missed_reads += 1;
                None
            }
        }
    }

    /// Every servable fragment of `archive` held here.
    pub fn of_archive(&mut self, archive: &Guid) -> Vec<Fragment> {
        let mut indices: Vec<usize> = self
            .index
            .keys()
            .filter(|(a, _)| a == archive)
            .map(|(_, i)| *i)
            .collect();
        indices.sort_unstable(); // deterministic serve order
        indices.into_iter().filter_map(|i| self.get(archive, i)).collect()
    }

    /// Number of fragment entries indexed.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no fragments are indexed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether any fragment of `archive` is indexed here.
    pub fn holds(&self, archive: &Guid) -> bool {
        self.index.keys().any(|(a, _)| a == archive)
    }

    /// Point-in-time store-health counters.
    pub fn health(&self) -> FragStoreHealth {
        let blob = self.blobs.stats();
        let dedup = self.blobs.dedup_stats();
        FragStoreHealth {
            fragments: self.index.len() as u64,
            blob_count: blob.blobs,
            blob_bytes: blob.bytes,
            dedup_hits: dedup.hits,
            dedup_bytes_saved: dedup.bytes_saved,
            missed_reads: self.missed_reads,
            put_failures: self.put_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::archive_object;
    use oceanstore_erasure::object::{CodeKind, ObjectCodec};
    use oceanstore_store::{SharedStore, SimRemoteStore};

    fn codec() -> ObjectCodec {
        ObjectCodec::new(CodeKind::ReedSolomon, 4, 8, 0).unwrap()
    }

    fn payload() -> Vec<u8> {
        (0..1200u32).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn fragments_round_trip_through_the_blob_layer() {
        let arch = archive_object(&codec(), &payload()).unwrap();
        let mut store = FragStore::new();
        for f in &arch.fragments {
            assert!(store.insert(f.clone()));
        }
        assert_eq!(store.len(), 8);
        assert!(store.holds(&arch.guid));
        for f in &arch.fragments {
            let got = store.get(&arch.guid, f.index).unwrap();
            assert_eq!(&got, f, "rebuilt fragment is byte-identical");
            assert!(got.verify());
        }
        assert_eq!(store.of_archive(&arch.guid).len(), 8);
        assert_eq!(store.health().blob_count, 8);
    }

    /// `archive_object` names each fragment once. A holder that files the
    /// views and a reader that verifies what the holder serves read those
    /// names from the buffers' memos: neither hashes a byte. Served from
    /// disk, the bytes are a fresh buffer and the reader hashes each once.
    #[test]
    fn filing_and_verifying_a_fragment_view_hashes_no_byte() {
        use crate::fragment::reconstruct_object;
        use oceanstore_naming::guid::content_bytes_hashed;
        use oceanstore_store::{DirStore, MemoryStore};
        let hashed = |f: &mut dyn FnMut()| {
            let before = content_bytes_hashed();
            f();
            content_bytes_hashed() - before
        };
        let arch = archive_object(&codec(), &payload()).unwrap();
        let fragment_bytes: u64 = arch.fragments.iter().map(|f| f.data.len() as u64).sum();
        for (backend, cost) in [
            (Box::new(MemoryStore::new()) as Box<dyn BlobStore>, 0),
            (Box::new(DirStore::new_ephemeral()), fragment_bytes),
        ] {
            let mut store = FragStore::with_backend(backend);
            let filed = hashed(&mut || {
                for f in &arch.fragments {
                    assert!(f.verify(), "the holder's check");
                    assert!(store.insert(f.clone()));
                }
            });
            assert_eq!(filed, 0, "a holder names the views through the memo");
            let served = store.of_archive(&arch.guid);
            let read = hashed(&mut || {
                assert!(served.iter().all(Fragment::verify), "the reader's check");
                assert_eq!(reconstruct_object(&codec(), &served).unwrap(), payload());
            });
            assert_eq!(read, cost);
        }
    }

    #[test]
    fn identical_restores_dedup_to_one_blob() {
        let arch = archive_object(&codec(), &payload()).unwrap();
        let mut store = FragStore::new();
        // Dissemination followed by a repair re-store of the same set.
        for _ in 0..3 {
            for f in &arch.fragments {
                assert!(store.insert(f.clone()));
            }
        }
        let health = store.health();
        assert_eq!(health.fragments, 8, "index holds one entry per slot");
        assert_eq!(health.blob_count, 8, "payloads stored once");
        assert_eq!(health.dedup_hits, 0, "identical re-store takes no extra reference");
    }

    #[test]
    fn lost_payload_is_skipped_not_served_wrong() {
        let provider = SharedStore::new(SimRemoteStore::new(5, 0, 0.0));
        let arch = archive_object(&codec(), &payload()).unwrap();
        let mut store = FragStore::with_backend(Box::new(provider.clone()));
        for f in &arch.fragments {
            assert!(store.insert(f.clone()));
        }
        provider.with(|p| p.set_down(true));
        assert_eq!(store.get(&arch.guid, 0), None, "dead provider serves nothing");
        assert!(store.of_archive(&arch.guid).is_empty());
        assert!(store.health().missed_reads > 0);
        // Revive: everything serves again — the index never lied.
        provider.with(|p| p.set_down(false));
        assert_eq!(store.of_archive(&arch.guid).len(), 8);
    }

    #[test]
    fn refused_stores_leave_the_fragment_unheld() {
        let provider = SharedStore::new(SimRemoteStore::new(6, 0, 0.0));
        provider.with(|p| p.set_down(true));
        let arch = archive_object(&codec(), &payload()).unwrap();
        let mut store = FragStore::with_backend(Box::new(provider.clone()));
        assert!(!store.insert(arch.fragments[0].clone()));
        assert!(!store.holds(&arch.guid));
        assert_eq!(store.health().put_failures, 1);
    }
}
