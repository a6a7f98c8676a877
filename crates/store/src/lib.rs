//! Pluggable content-addressed blob stores (§4.5's "promiscuous caching"
//! made concrete).
//!
//! The paper stores objects as content-addressed, erasure-coded data
//! spread over "untrusted infrastructure" — any server may hold any block,
//! and blocks name themselves: a GUID for immutable data "is a secure hash
//! over the data it holds". This crate is that storage layer. A CID is
//! exactly [`Guid::for_content`] of the blob, so every backend can verify
//! what it serves and a reader can never be handed the wrong bytes
//! silently.
//!
//! * [`BlobStore`] — the four-verb trait (`put`/`get`/`has`/`delete`)
//!   every backend implements, plus `put_shared` for a caller that
//!   already holds the blob as a [`Bytes`] view under a name it computed.
//! * [`MemoryStore`] — a plain in-RAM map of views by CID. It can keep a
//!   caller's view instead of copying the bytes.
//! * [`DirStore`] — an on-disk directory store: two-hex-digit fan-out
//!   subdirectories, write-temp-then-rename atomicity (a crash between
//!   the two steps leaves no torn blob visible), CID verification on
//!   every read.
//! * [`SimRemoteStore`] — a simulated remote provider with seeded,
//!   deterministic failure injection and accounted service latency, so
//!   chaos schedules can kill a provider mid-run and assert reads
//!   survive via replicas.
//! * [`DedupStore`] — block-level dedup: refcounted CIDs, counters for
//!   dedup hits and bytes saved; a blob survives until its last
//!   reference drops. Every archival node files its fragments, and
//!   every replica each data block larger than 48 B, through one
//!   ([`default_store`]); a replica keeps a smaller block in its version
//!   alone, since its table entry would cost more than the block. In
//!   RAM, the default, it is the store itself: one table entry per block
//!   holds the count and the view. Over a backend whose bytes live
//!   elsewhere it keeps the counts and calls the backend on the first
//!   put and the last delete.
//! * [`ShardedStore`] — a composite routing each CID by hash range
//!   (`00-7f → shard A, 80-ff → shard B`), the multi-provider layout of
//!   the "provider independence" story.
//! * [`SharedStore`] — an `Arc<Mutex<_>>` handle so several simulated
//!   nodes can address one provider while the chaos harness keeps a
//!   handle with which to fail it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dedup;
pub mod dir;
pub mod memory;
pub mod remote;
pub mod shard;

use std::fmt;

use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::Guid;

pub use dedup::DedupStore;
pub use dir::DirStore;
pub use memory::MemoryStore;
pub use remote::SimRemoteStore;
pub use shard::{shard_of, ShardedStore, SharedStore};

/// Computes the content identifier of a blob: the secure-hash GUID of its
/// bytes. Every backend stores and serves blobs under this name and
/// nothing else.
pub fn cid_of(data: &[u8]) -> Guid {
    Guid::for_content(data)
}

/// Why a blob-store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The stored bytes do not hash to the requested CID: disk
    /// corruption, a torn write that escaped the rename barrier, or a
    /// malicious provider. The blob is treated as absent.
    Corrupt {
        /// The CID the caller asked for.
        want: Guid,
        /// The CID the stored bytes actually hash to.
        got: Guid,
    },
    /// The provider refused or dropped the operation (simulated remote
    /// failure, or the provider is down entirely).
    Unavailable,
    /// An underlying filesystem operation failed.
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Corrupt { want, got } => {
                write!(f, "blob corrupt: want {want}, stored bytes hash to {got}")
            }
            StoreError::Unavailable => write!(f, "store unavailable"),
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
        }
    }
}

/// Running operation counters every backend keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Blobs currently stored.
    pub blobs: u64,
    /// Bytes currently stored (logical, pre-compression).
    pub bytes: u64,
    /// Completed `put` operations that wrote a new blob.
    pub puts: u64,
    /// Completed `get` operations that returned bytes.
    pub gets: u64,
    /// Operations refused by failure injection or a dead provider.
    pub denied: u64,
    /// Total injected service latency, microseconds (simulated remote
    /// stores account latency deterministically rather than scheduling
    /// it; see [`SimRemoteStore`]).
    pub injected_latency_us: u64,
}

/// A content-addressed blob store.
///
/// All methods take `&mut self`: disk-backed stores update counters and
/// simulated remotes draw from a seeded RNG on every operation, and the
/// uniform signature keeps composite stores ([`DedupStore`],
/// [`ShardedStore`]) trivial.
pub trait BlobStore: fmt::Debug + Send {
    /// Stores `data` under its CID and returns that CID. Storing bytes
    /// that are already present is a cheap no-op (content-addressing
    /// makes it idempotent by construction).
    fn put(&mut self, data: &[u8]) -> Result<Guid, StoreError>;

    /// [`BlobStore::put`] for a caller that already holds the blob as a
    /// view and has already computed its name: `cid` must be
    /// [`cid_of`]`(data)`. A backend that keeps blobs in RAM may file a
    /// clone of the caller's view under the caller's name instead of
    /// hashing and copying again ([`MemoryStore`] does, checking the name
    /// in debug builds). A backend whose bytes leave the process keeps
    /// this default, which ignores the hint and names the blob itself.
    fn put_shared(&mut self, cid: Guid, data: &Bytes) -> Result<Guid, StoreError> {
        let _ = cid;
        self.put(data)
    }

    /// Fetches the blob named `cid` as a view. `Ok(None)` means provably
    /// absent; [`StoreError::Corrupt`] means bytes were found but fail
    /// verification. A backend that keeps blobs in RAM hands out a clone
    /// of the view it filed, so a reader that names it finds the name in
    /// the buffer's memo; a backend that reads the bytes back from
    /// elsewhere wraps them in a fresh buffer, which a reader hashes anew.
    fn get(&mut self, cid: &Guid) -> Result<Option<Bytes>, StoreError>;

    /// Whether a blob named `cid` is present (no verification).
    fn has(&mut self, cid: &Guid) -> bool;

    /// Removes the blob named `cid`; returns whether it was present.
    fn delete(&mut self, cid: &Guid) -> Result<bool, StoreError>;

    /// Point-in-time operation counters.
    fn stats(&self) -> StoreStats;
}

/// Which backend [`default_store`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// In-memory map (the default).
    Memory,
    /// On-disk directory store in a fresh per-store directory under
    /// `$OCEANSTORE_STORE_DIR` (or the system temp dir), removed when the
    /// store is dropped.
    Dir,
}

impl BackendKind {
    /// Reads the backend selection from `OCEANSTORE_STORE_BACKEND`
    /// (`memory` | `dir`; anything else, including unset, means memory).
    /// This is how the CI store-backend matrix re-runs the replica and
    /// archival suites against the disk backend without touching any
    /// call site.
    pub fn from_env() -> Self {
        match std::env::var("OCEANSTORE_STORE_BACKEND") {
            Ok(v) if v.eq_ignore_ascii_case("dir") => BackendKind::Dir,
            _ => BackendKind::Memory,
        }
    }

    /// Opens a fresh store of this kind under a dedup layer: in memory,
    /// the one table of counts and views ([`DedupStore::in_memory`]); on
    /// disk, a [`DedupStore`] over a fresh [`DirStore`].
    pub fn open(self) -> DedupStore {
        match self {
            BackendKind::Memory => DedupStore::in_memory(),
            BackendKind::Dir => DedupStore::new(Box::new(DirStore::new_ephemeral())),
        }
    }
}

/// Opens the environment-selected backend (see [`BackendKind::from_env`])
/// under a dedup layer ([`BackendKind::open`]). Every node-local store in
/// the replica and archival tiers goes through this, so one environment
/// variable swaps the whole deployment's storage layer.
pub fn default_store() -> DedupStore {
    BackendKind::from_env().open()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exercises the trait contract shared by every backend.
    pub(crate) fn contract(store: &mut dyn BlobStore) {
        let a = store.put(b"alpha").unwrap();
        assert_eq!(a, cid_of(b"alpha"));
        assert!(store.has(&a));
        assert_eq!(store.get(&a).unwrap().as_deref(), Some(b"alpha".as_ref()));
        // Idempotent re-put.
        assert_eq!(store.put(b"alpha").unwrap(), a);
        // The same blob from a caller that holds it as a view under a name
        // it computed: same CID as `put`, idempotent, served alike.
        let shared = Bytes::from(b"xbetax".to_vec()).slice(1..5);
        let b = cid_of(&shared);
        assert_eq!(store.put_shared(b, &shared).unwrap(), b);
        assert_eq!(store.put_shared(b, &shared).unwrap(), b);
        assert_eq!(store.put(b"beta").unwrap(), b);
        assert_eq!(store.get(&b).unwrap().as_deref(), Some(b"beta".as_ref()));
        while store.has(&b) {
            assert!(store.delete(&b).unwrap());
        }
        assert_eq!(store.get(&b).unwrap(), None);
        // Absent CID.
        let ghost = cid_of(b"ghost");
        assert!(!store.has(&ghost));
        assert_eq!(store.get(&ghost).unwrap(), None);
        assert!(!store.delete(&ghost).unwrap());
        // Delete round-trip. A dedup layer counts the re-put above as a
        // second reference, so drain references until the blob is gone.
        assert!(store.delete(&a).unwrap());
        while store.has(&a) {
            assert!(store.delete(&a).unwrap());
        }
        assert_eq!(store.get(&a).unwrap(), None);
        assert!(!store.delete(&a).unwrap());
    }

    #[test]
    fn memory_contract() {
        contract(&mut MemoryStore::new());
    }

    #[test]
    fn dir_contract() {
        contract(&mut DirStore::new_ephemeral());
    }

    #[test]
    fn remote_contract() {
        contract(&mut SimRemoteStore::new(7, 150, 0.0));
    }

    #[test]
    fn dedup_contract() {
        contract(&mut DedupStore::new(Box::new(MemoryStore::new())));
        contract(&mut DedupStore::new(Box::new(SimRemoteStore::new(8, 150, 0.0))));
        contract(&mut DedupStore::in_memory());
    }

    #[test]
    fn sharded_contract() {
        contract(&mut ShardedStore::new(vec![
            Box::new(MemoryStore::new()),
            Box::new(MemoryStore::new()),
        ]));
    }

    #[test]
    fn shared_contract() {
        contract(&mut SharedStore::new(MemoryStore::new()));
    }

    #[test]
    fn backend_kind_defaults_to_memory() {
        // The env var is absent in the test harness unless a CI matrix
        // leg sets it; either way `open` must produce a working store.
        let mut store = BackendKind::from_env().open();
        let cid = store.put(b"env-selected").unwrap();
        assert_eq!(store.get(&cid).unwrap().as_deref(), Some(b"env-selected".as_ref()));
    }
}
