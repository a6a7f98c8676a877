//! The on-disk directory backend.
//!
//! Layout mirrors classic content-addressed stores (git's object
//! database, Venti's arenas): a blob named by 40-hex-digit CID lives at
//! `<root>/<first two hex digits>/<full hex>`, so no single directory
//! grows past 1/256 of the blob population. Writes go to a private file
//! under `<root>/tmp/` first and are moved into place with `rename`, the
//! one primitive POSIX makes atomic — a crash between the two steps
//! leaves garbage in `tmp/` (swept on the next open) but never a torn
//! blob at a CID path. Reads re-hash the bytes and refuse to return
//! anything that does not match its name: on an untrusted disk, "the
//! data is retrieved correctly and completely, or not at all".

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::Guid;

use crate::{cid_of, BlobStore, StoreError, StoreStats};

/// Distinguishes concurrently open stores (and their temp files) within
/// one process.
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

fn io_err(e: std::io::Error) -> StoreError {
    StoreError::Io(e.to_string())
}

/// An on-disk content-addressed store rooted at a directory.
#[derive(Debug)]
pub struct DirStore {
    root: PathBuf,
    /// Remove the whole tree on drop (ephemeral per-run stores).
    ephemeral: bool,
    /// Monotonic temp-file sequence (uniqueness within this store).
    tmp_seq: u64,
    stats: StoreStats,
}

impl DirStore {
    /// Opens (creating if needed) a persistent store at `root`. Existing
    /// blobs are counted into the stats; leftover temp files from a
    /// previous crash are swept.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating or scanning the tree.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        fs::create_dir_all(root.join("tmp")).map_err(io_err)?;
        let mut stats = StoreStats::default();
        for sub in fs::read_dir(&root).map_err(io_err)? {
            let sub = sub.map_err(io_err)?;
            if !sub.file_type().map_err(io_err)?.is_dir()
                || sub.file_name().to_string_lossy() == "tmp"
            {
                continue;
            }
            for f in fs::read_dir(sub.path()).map_err(io_err)? {
                let meta = f.map_err(io_err)?.metadata().map_err(io_err)?;
                stats.blobs += 1;
                stats.bytes += meta.len();
            }
        }
        // A torn write from a crashed predecessor is invisible (it never
        // reached a CID path); reclaim the space.
        for f in fs::read_dir(root.join("tmp")).map_err(io_err)? {
            let _ = fs::remove_file(f.map_err(io_err)?.path());
        }
        Ok(DirStore { root, ephemeral: false, tmp_seq: 0, stats })
    }

    /// Creates a store in a fresh uniquely named directory under
    /// `$OCEANSTORE_STORE_DIR` (or the system temp dir), removed when the
    /// store is dropped. This is what the `dir` backend of
    /// [`crate::default_store`] hands to every node.
    pub fn new_ephemeral() -> Self {
        let base = std::env::var_os("OCEANSTORE_STORE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let unique = format!(
            "oceanstore-store-{}-{}",
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let mut store = DirStore::open(base.join(unique)).expect("create ephemeral store dir");
        store.ephemeral = true;
        store
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn blob_path(&self, cid: &Guid) -> PathBuf {
        let hex = cid.to_hex();
        self.root.join(&hex[..2]).join(hex)
    }

    /// First phase of a put: the temp-file write, without the rename that
    /// publishes it. Exposed so the crash-atomicity tests can model a
    /// kill between the two steps; production code always goes through
    /// [`BlobStore::put`].
    #[doc(hidden)]
    pub fn put_torn(&mut self, data: &[u8]) -> Result<(Guid, PathBuf), StoreError> {
        let cid = cid_of(data);
        self.tmp_seq += 1;
        let tmp = self.root.join("tmp").join(format!("{}-{}.tmp", cid.to_hex(), self.tmp_seq));
        let mut f = fs::File::create(&tmp).map_err(io_err)?;
        f.write_all(data).map_err(io_err)?;
        Ok((cid, tmp))
    }
}

impl Drop for DirStore {
    fn drop(&mut self) {
        if self.ephemeral {
            let _ = fs::remove_dir_all(&self.root);
        }
    }
}

impl BlobStore for DirStore {
    fn put(&mut self, data: &[u8]) -> Result<Guid, StoreError> {
        let cid = cid_of(data);
        let path = self.blob_path(&cid);
        if path.exists() {
            return Ok(cid); // content-addressed: already durable
        }
        let (_, tmp) = self.put_torn(data)?;
        fs::create_dir_all(path.parent().expect("fan-out parent")).map_err(io_err)?;
        fs::rename(&tmp, &path).map_err(io_err)?;
        self.stats.blobs += 1;
        self.stats.bytes += data.len() as u64;
        self.stats.puts += 1;
        Ok(cid)
    }

    /// The bytes read back and checked, in a fresh buffer: a reader that
    /// names them hashes them again.
    fn get(&mut self, cid: &Guid) -> Result<Option<Bytes>, StoreError> {
        let data = match fs::read(self.blob_path(cid)) {
            Ok(data) => data,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(e)),
        };
        let got = cid_of(&data);
        if got != *cid {
            return Err(StoreError::Corrupt { want: *cid, got });
        }
        self.stats.gets += 1;
        Ok(Some(Bytes::from(data)))
    }

    fn has(&mut self, cid: &Guid) -> bool {
        self.blob_path(cid).exists()
    }

    fn delete(&mut self, cid: &Guid) -> Result<bool, StoreError> {
        let path = self.blob_path(cid);
        match fs::metadata(&path) {
            Ok(meta) => {
                fs::remove_file(&path).map_err(io_err)?;
                self.stats.blobs = self.stats.blobs.saturating_sub(1);
                self.stats.bytes = self.stats.bytes.saturating_sub(meta.len());
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(io_err(e)),
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
    fn survives_reopen() {
        let store = DirStore::new_ephemeral();
        let root = store.root().to_path_buf();
        // Keep the tree alive past the first handle: open persistently.
        let mut s1 = DirStore::open(&root).unwrap();
        let cid = s1.put(b"durable bytes").unwrap();
        drop(s1);
        let mut s2 = DirStore::open(&root).unwrap();
        assert_eq!(s2.stats().blobs, 1);
        assert_eq!(s2.get(&cid).unwrap().as_deref(), Some(b"durable bytes".as_ref()));
        drop(store); // ephemeral cleanup
    }

    #[test]
    fn crash_between_temp_write_and_rename_leaves_no_torn_blob() {
        let store = DirStore::new_ephemeral();
        let root = store.root().to_path_buf();
        let mut s1 = DirStore::open(&root).unwrap();
        // The "crash": the temp file is written, the rename never runs.
        let (cid, tmp) = s1.put_torn(b"half-written").unwrap();
        assert!(tmp.exists());
        drop(s1);
        // Recovery: the blob is simply absent — no CID path exists, `has`
        // and `get` agree, and the orphaned temp file is swept on open.
        let mut s2 = DirStore::open(&root).unwrap();
        assert!(!s2.has(&cid));
        assert_eq!(s2.get(&cid).unwrap(), None);
        assert_eq!(s2.stats().blobs, 0);
        assert!(!tmp.exists(), "orphaned temp file swept on open");
        // And the same bytes can be stored cleanly afterwards.
        assert_eq!(s2.put(b"half-written").unwrap(), cid);
        assert_eq!(s2.get(&cid).unwrap().as_deref(), Some(b"half-written".as_ref()));
    }

    #[test]
    fn cid_mismatch_on_read_is_rejected() {
        let mut store = DirStore::new_ephemeral();
        let cid = store.put(b"honest bytes").unwrap();
        // Corrupt the stored file in place (bit rot / malicious disk).
        let path = store.blob_path(&cid);
        fs::write(&path, b"evil bytes!!").unwrap();
        match store.get(&cid) {
            Err(StoreError::Corrupt { want, got }) => {
                assert_eq!(want, cid);
                assert_eq!(got, cid_of(b"evil bytes!!"));
            }
            other => panic!("corruption must be detected, got {other:?}"),
        }
    }

    #[test]
    fn fan_out_uses_first_two_hex_digits() {
        let mut store = DirStore::new_ephemeral();
        let cid = store.put(b"where am i").unwrap();
        let hex = cid.to_hex();
        let path = store.blob_path(&cid);
        assert!(path.ends_with(Path::new(&hex[..2]).join(&hex)));
        assert!(path.exists());
    }

    #[test]
    fn ephemeral_store_cleans_up_after_itself() {
        let mut store = DirStore::new_ephemeral();
        store.put(b"transient").unwrap();
        let root = store.root().to_path_buf();
        assert!(root.exists());
        drop(store);
        assert!(!root.exists());
    }
}
