//! Immutable, shared byte views for server-held ciphertext.
//!
//! A committed block is immutable and named by its hash (§4.1, §4.5), so a
//! process needs one copy of it however many simulated nodes hold it. A
//! [`Bytes`] is a window onto one shared, never-mutated buffer: the client's
//! encoded update, the agreement payload it travels in, or a buffer a
//! decoder was handed. Cloning and slicing it copy no byte; equality and
//! hashing go by the bytes it shows, never by where they live.
//!
//! # Where a content id comes from
//!
//! A buffer also keeps a memo of the content ids ([`Guid::for_content`]) of
//! the views of it named so far, keyed by where each view starts and how
//! long it is. [`Guid::for_contents`] reads it and hashes only the views it
//! misses, and only this module writes it, with the digest of the bytes it
//! hashed. Nothing else can set an entry: no message, constructor or public
//! method takes a content id. The bytes never change after the buffer is
//! made, so a view's id is a pure function of its buffer and place, and a
//! memo hit is the same check as hashing again: the nodes of one process
//! that hold views of one buffer share its SHA-1 work, and the memo goes
//! when the buffer does. Bytes that came any other way — a forged reply, a
//! fetched payload, a blob read back from disk — are another buffer with a
//! memo of its own, and are hashed for real.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, Range};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::guid::Guid;

/// The allocation behind views: the bytes, and the memo of content ids of
/// views of them. Views reach it only through [`Bytes`]; its fields are
/// private to this module, so nothing outside can read or set the memo.
#[derive(Default)]
pub struct Buffer {
    bytes: Vec<u8>,
    /// `(start, len, Guid::for_content(bytes[start..start + len]))`,
    /// sorted by `(start, len)`: 28 bytes per named view.
    cids: Mutex<Vec<(u32, u32, Guid)>>,
}

impl Buffer {
    /// The memo, whole: an entry is written in one step, so a panic on
    /// another thread cannot leave one half written.
    fn cids(&self) -> MutexGuard<'_, Vec<(u32, u32, Guid)>> {
        self.cids.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A view of `len` bytes at `start` in a shared buffer: 16 bytes in all.
///
/// The offsets are `u32` so that a view fits beside a `Vec` in an enum of
/// 24 bytes (the update crate's `Block`), and an update's encoding frames
/// each ciphertext with a `u32` length anyway. A view keeps its whole
/// buffer alive.
#[derive(Clone, Default)]
pub struct Bytes {
    buf: Arc<Buffer>,
    start: u32,
    len: u32,
}

/// `n` as a view offset.
///
/// # Panics
///
/// Panics if `n` does not fit in 32 bits.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("a shared buffer holds at most 4 GiB")
}

impl Bytes {
    /// A view of a copy of `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is 4 GiB or longer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// The bytes this view shows.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        let start = self.start as usize;
        &self.buf.bytes[start..start + self.len as usize]
    }

    /// The sub-view `range` of this view, sharing its buffer.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not inside `0..self.len()`.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len as usize,
            "slice {range:?} out of a {}-byte view",
            self.len
        );
        Bytes {
            buf: Arc::clone(&self.buf),
            start: self.start + offset(range.start),
            len: offset(range.end - range.start),
        }
    }

    /// The whole buffer this view keeps alive.
    pub fn buffer(&self) -> &Arc<Buffer> {
        &self.buf
    }

    /// Where this view's entry sits, or would sit, in its buffer's memo.
    fn find(&self, cids: &[(u32, u32, Guid)]) -> Result<usize, usize> {
        cids.binary_search_by_key(&(self.start, self.len), |&(start, len, _)| (start, len))
    }

    /// This view's content id, if a view at its place was named before.
    pub(crate) fn memoized(&self) -> Option<Guid> {
        let cids = self.buf.cids();
        self.find(&cids).ok().map(|at| cids[at].2)
    }

    /// Keeps `cid`, which the caller derived by hashing this view's bytes,
    /// as this view's content id.
    pub(crate) fn memoize(&self, cid: Guid) {
        let mut cids = self.buf.cids();
        if let Err(at) = self.find(&cids) {
            cids.insert(at, (self.start, self.len, cid));
        }
    }
}

impl From<Vec<u8>> for Bytes {
    /// Wraps `bytes` without copying them.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is 4 GiB or longer.
    fn from(bytes: Vec<u8>) -> Self {
        let len = offset(bytes.len());
        Bytes { buf: Arc::new(Buffer { bytes, cids: Mutex::default() }), start: 0, len }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::RandomState;
    use std::hash::BuildHasher;

    #[test]
    fn a_view_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Bytes>(), 16);
    }

    #[test]
    fn from_vec_keeps_the_allocation() {
        let data = vec![7u8; 100];
        let at = data.as_ptr();
        let view = Bytes::from(data);
        assert_eq!(view.as_ptr(), at, "wrapped, not copied");
        assert_eq!(Arc::strong_count(view.buffer()), 1);
        assert_eq!(view.len(), 100);
    }

    #[test]
    fn slices_share_the_buffer_and_nest() {
        let view = Bytes::from((0..=9u8).collect::<Vec<_>>());
        let mid = view.slice(2..8);
        let inner = mid.slice(1..3);
        assert_eq!(mid.as_slice(), &[2, 3, 4, 5, 6, 7]);
        assert_eq!(&*inner, &[3, 4]);
        assert!(Arc::ptr_eq(inner.buffer(), view.buffer()));
        assert_eq!(Arc::strong_count(view.buffer()), 3);
        assert!(view.slice(10..10).is_empty(), "an empty view at the end");
    }

    #[test]
    #[should_panic(expected = "out of a 6-byte view")]
    fn a_slice_past_the_end_panics() {
        Bytes::from(vec![0u8; 10]).slice(2..8).slice(3..7);
    }

    #[test]
    #[should_panic(expected = "out of a 4-byte view")]
    #[allow(clippy::reversed_empty_ranges)]
    fn a_reversed_slice_panics() {
        Bytes::from(vec![0u8; 4]).slice(3..1);
    }

    #[test]
    fn equality_and_hash_go_by_content() {
        let state = RandomState::new();
        let whole = Bytes::from(b"xxabcxx".to_vec());
        let view = whole.slice(2..5);
        let other = Bytes::copy_from_slice(b"abc");
        assert!(!Arc::ptr_eq(view.buffer(), other.buffer()));
        assert_eq!(view, other);
        assert_eq!(state.hash_one(&view), state.hash_one(&other));
        assert_eq!(state.hash_one(&view), state.hash_one(b"abc".as_slice()));
        assert_ne!(view, whole.slice(1..4));
        assert_eq!(format!("{view:?}"), format!("{:?}", b"abc".as_slice()));
    }
}
