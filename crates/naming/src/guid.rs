//! Globally unique identifiers (§4.1).
//!
//! "At the lowest level, OceanStore objects are identified by a globally
//! unique identifier (GUID), which can be thought of as a pseudo-random,
//! fixed-length bit string." GUIDs are SHA-1 digests (the paper's footnote
//! 3) and name *every* addressable entity:
//!
//! * objects — `hash(owner key ‖ human-readable name)`, making names
//!   self-certifying in the style of Mazières;
//! * servers — `hash(server public key)`;
//! * archival fragments / immutable versions — `hash(content)`.
//!
//! The digit-extraction helpers ([`Guid::nibble`], [`Guid::low_nibble_match_len`])
//! serve the Plaxton mesh, which routes by resolving a GUID one digit at a
//! time starting from the *least* significant (§4.3.3); [`Guid::salted`]
//! produces the replicated roots that remove the single point of failure.
//!
//! [`IdMap`] and [`IdSet`] are the hash tables for keys built from such
//! identifiers: a key that is already SHA-1 output needs no second
//! cryptographic-strength hash to spread over buckets (DESIGN.md §7).

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use oceanstore_crypto::schnorr::PublicKey;
use oceanstore_crypto::sha1::{sha1_concat, sha1_concat_run, Digest, DIGEST_LEN};

use crate::bytes::Bytes;

/// Number of hex digits (nibbles) in a GUID.
pub const NIBBLES: usize = DIGEST_LEN * 2;

/// Domain tag of content GUIDs.
const CONTENT: &[u8] = b"content";

thread_local! {
    /// Bytes [`Guid::for_contents`] hashed on this thread.
    static HASHED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Bytes [`Guid::for_contents`] has hashed on the calling thread so far,
/// memo hits not counted. Tests read it before and after a path to check
/// that the path names bytes through the memo instead of hashing them
/// again; nothing else reads it.
#[doc(hidden)]
pub fn content_bytes_hashed() -> u64 {
    HASHED.with(std::cell::Cell::get)
}

/// A 160-bit globally unique identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Guid(Digest);

impl Hash for Guid {
    /// The 20 bytes as three words and nothing else: the length is fixed,
    /// so unlike the array's own impl no length prefix is needed to keep
    /// keys apart, and a word at a time is what [`IdHasher`] folds.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let word = |at: usize| u64::from_le_bytes(self.0[at..at + 8].try_into().expect("8 bytes"));
        state.write_u64(word(0));
        state.write_u64(word(8));
        state.write_u32(u32::from_le_bytes(self.0[16..].try_into().expect("4 bytes")));
    }
}

impl fmt::Debug for Guid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Guid({self})")
    }
}

impl fmt::Display for Guid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print the first 8 hex digits; enough to tell GUIDs apart in logs.
        for b in &self.0[..4] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…")
    }
}

impl Guid {
    /// Wire size of a GUID (160 bits).
    pub const WIRE_SIZE: usize = DIGEST_LEN;

    /// Constructs a GUID from a raw digest.
    pub fn from_bytes(bytes: Digest) -> Self {
        Guid(bytes)
    }

    /// The raw digest.
    pub fn as_bytes(&self) -> &Digest {
        &self.0
    }

    /// Self-certifying object GUID: the secure hash of the owner's key and
    /// a human-readable name (§4.1).
    pub fn for_object(owner: PublicKey, name: &str) -> Self {
        Guid(sha1_concat(&[b"object", &owner.to_bytes(), name.as_bytes()]))
    }

    /// Server GUID: the secure hash of the server's public key (§4.1).
    pub fn for_server(key: PublicKey) -> Self {
        Guid(sha1_concat(&[b"server", &key.to_bytes()]))
    }

    /// Content GUID for an archival fragment or immutable version: the
    /// secure hash over the data it holds (§4.1, §4.5).
    pub fn for_content(data: &[u8]) -> Self {
        Guid(sha1_concat(&[CONTENT, data]))
    }

    /// [`Guid::for_content`] of each view, in order. A view named before
    /// — this one, or another at the same place in the same buffer — is
    /// read from its buffer's memo ([`crate::bytes`]); the rest are hashed,
    /// and each maximal run of them of one length goes through
    /// [`sha1_concat_run`], which names eight at once in AVX2 lanes where
    /// the CPU has them and the rest one at a time. Their ids then join
    /// the memo.
    pub fn for_contents<'a>(views: impl IntoIterator<Item = &'a Bytes>) -> Vec<Guid> {
        let views = views.into_iter();
        let mut out = Vec::with_capacity(views.size_hint().0);
        // (where in `out`, the view) of each view the memo lacks
        let mut misses = Vec::new();
        for view in views {
            let cid = view.memoized();
            if cid.is_none() {
                misses.push((out.len(), view));
            }
            out.push(cid.unwrap_or(Guid([0; DIGEST_LEN])));
        }
        let blocks: Vec<&[u8]> = misses.iter().map(|(_, view)| view.as_slice()).collect();
        HASHED.with(|n| n.set(n.get() + blocks.iter().map(|b| b.len() as u64).sum::<u64>()));
        let mut next = misses.iter();
        for run in blocks.chunk_by(|a, b| a.len() == b.len()) {
            sha1_concat_run(CONTENT, run, |d| {
                let (at, view) = next.next().expect("one digest per view");
                out[*at] = Guid(d);
                view.memoize(Guid(d));
            });
        }
        out
    }

    /// [`Guid::for_contents`] of one view; a memo hit allocates nothing.
    pub fn for_view(view: &Bytes) -> Self {
        view.memoized().unwrap_or_else(|| Guid::for_contents([view])[0])
    }

    /// Deterministic GUID from an arbitrary label (used by tests and
    /// workload generators).
    pub fn from_label(label: &str) -> Self {
        Guid(sha1_concat(&[b"label", label.as_bytes()]))
    }

    /// Verifies the self-certifying property: does this GUID belong to
    /// `(owner, name)`? This is how "servers verify an object's owner
    /// efficiently" for access checks and resource accounting.
    pub fn certifies(&self, owner: PublicKey, name: &str) -> bool {
        *self == Guid::for_object(owner, name)
    }

    /// Hashes this GUID with a salt value, yielding the root GUID replica
    /// mapping of §4.3.3 ("hashes each GUID with a small number of
    /// different salt values").
    pub fn salted(&self, salt: u32) -> Self {
        Guid(sha1_concat(&[b"salt", &salt.to_be_bytes(), &self.0]))
    }

    /// The `i`-th nibble counted from the **least significant** end, the
    /// digit order in which the Plaxton mesh resolves GUIDs.
    ///
    /// # Panics
    ///
    /// Panics if `i >= NIBBLES`.
    pub fn nibble(&self, i: usize) -> u8 {
        assert!(i < NIBBLES, "nibble index out of range");
        // Least-significant nibble = low half of the last byte.
        let byte = self.0[DIGEST_LEN - 1 - i / 2];
        if i.is_multiple_of(2) {
            byte & 0x0f
        } else {
            byte >> 4
        }
    }

    /// Number of consecutive matching nibbles between two GUIDs, starting
    /// from the least significant — the "matches the object's GUID in the
    /// most bits (starting from the least significant)" measure used to
    /// choose an object's root node.
    pub fn low_nibble_match_len(&self, other: &Guid) -> usize {
        (0..NIBBLES).take_while(|&i| self.nibble(i) == other.nibble(i)).count()
    }

    /// The `i`-th bit counted from the least significant end.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 160`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < DIGEST_LEN * 8, "bit index out of range");
        let byte = self.0[DIGEST_LEN - 1 - i / 8];
        byte >> (i % 8) & 1 == 1
    }

    /// Interprets the low 8 bytes as an integer (handy for deterministic
    /// hashing into buckets).
    pub fn low_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[DIGEST_LEN - 8..].try_into().expect("8 bytes"))
    }

    /// Full lowercase hex rendering.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// A hash map keyed by identifiers: GUIDs, `(GUID, index)` pairs, tentative
/// ids, counters. Hashes with [`IdState`].
pub type IdMap<K, V> = HashMap<K, V, IdState>;

/// A hash set of identifiers; see [`IdMap`].
pub type IdSet<K> = HashSet<K, IdState>;

/// Odd multiplier of the fold: the first 64 fractional bits of π.
const FOLD: u64 = 0x243f_6a88_85a3_08d3;

/// The 128-bit product of `x` and `y`, its two halves xor-ed together.
#[inline]
fn fold(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

/// Builds an [`IdHasher`] under a key of its own: every `IdState` draws a
/// fresh one from a per-process random seed, as std's `RandomState` does,
/// so two tables — and two runs — iterate the same keys in different
/// orders.
#[derive(Debug, Clone, Copy)]
pub struct IdState {
    key: u64,
}

impl Default for IdState {
    /// A state under the next key of this process.
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        static DRAWN: AtomicU64 = AtomicU64::new(0);
        let seed = *SEED.get_or_init(|| RandomState::new().hash_one(0u64));
        IdState { key: fold(seed ^ DRAWN.fetch_add(1, Ordering::Relaxed), FOLD) }
    }
}

impl BuildHasher for IdState {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher(self.key)
    }
}

/// One keyed multiply-fold per 64-bit word of the key. It spreads keys
/// that are uniformly random already; it is not a general-purpose hash.
#[derive(Debug, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = fold(self.0 ^ i, FOLD);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oceanstore_crypto::schnorr::KeyPair;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn key(seed: &[u8]) -> PublicKey {
        KeyPair::from_seed(seed).public()
    }

    #[test]
    fn self_certifying_names() {
        let owner = key(b"alice");
        let g = Guid::for_object(owner, "calendar");
        assert!(g.certifies(owner, "calendar"));
        assert!(!g.certifies(owner, "mail"));
        assert!(!g.certifies(key(b"mallory"), "calendar"));
    }

    #[test]
    fn entity_kinds_are_domain_separated() {
        // A server key and an object owned by that key with an empty name
        // must not collide (tags differ).
        let k = key(b"s");
        assert_ne!(Guid::for_server(k), Guid::for_object(k, ""));
    }

    #[test]
    fn content_guids_track_content() {
        assert_eq!(Guid::for_content(b"abc"), Guid::for_content(b"abc"));
        assert_ne!(Guid::for_content(b"abc"), Guid::for_content(b"abd"));
    }

    /// Bytes [`Guid::for_contents`] hashes on this thread while `f` runs.
    fn hashed<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = content_bytes_hashed();
        let out = f();
        (out, (content_bytes_hashed() - before) as usize)
    }

    /// Runs of 8 to 40, cut where they are: each block's GUID is its
    /// [`Guid::for_content`] whichever way it was hashed. Cut at every
    /// block and started at each of the first seventeen, the runs split
    /// into eights, at every offset, and the singles after them. Odd
    /// lengths sit between runs, seven of one length fall short of a run,
    /// a ninth follows a run, and a run starts right after a block of
    /// another length. Every pass names fresh buffers, so none is
    /// answered from a memo.
    #[test]
    fn for_contents_names_each_block_as_for_content_does() {
        let block = |len: usize, salt: usize| -> Vec<u8> {
            (0..len).map(|j| (j * 13 + salt * 71) as u8).collect()
        };
        let lens = [4096; 9]
            .into_iter()
            .chain([33, 4096, 4096])
            .chain([100; 7])
            .chain([4097])
            .chain([0; 8])
            .chain([1, 63, 64, 65])
            .chain([4096; 16])
            .chain([200; 40])
            .chain([64; 24])
            .chain([7; 17])
            .chain([300; 31]);
        let owned: Vec<Vec<u8>> = lens.enumerate().map(|(i, len)| block(len, i)).collect();
        let fresh = |blocks: &[Vec<u8>]| -> Vec<Bytes> {
            blocks.iter().map(|b| Bytes::copy_from_slice(b)).collect()
        };
        let each = |blocks: &[Vec<u8>]| -> Vec<Guid> {
            blocks.iter().map(|b| Guid::for_content(b)).collect()
        };
        for n in 0..=owned.len() {
            let (cids, bytes) = hashed(|| Guid::for_contents(&fresh(&owned[..n])));
            assert_eq!(cids, each(&owned[..n]), "first {n} blocks");
            assert_eq!(bytes, owned[..n].iter().map(Vec::len).sum::<usize>(), "first {n} blocks");
        }
        for start in 0..=16 {
            let views = fresh(&owned[start..]);
            assert_eq!(Guid::for_contents(&views), each(&owned[start..]), "from block {start}");
        }
    }

    /// `(start, len)` of the views [`memo_names_what_for_content_names`]
    /// takes of a buffer of `size` bytes: the whole, `picks` anywhere
    /// (empty, overlapping, repeated), and a run of `run` views of
    /// `run_len` bytes every `stride` bytes, overlapping when the stride is
    /// shorter, so a run spans more than one width of lanes and leaves
    /// singles after its eights.
    fn places(
        size: usize,
        picks: &[(usize, usize)],
        run: usize,
        run_len: usize,
        stride: usize,
    ) -> Vec<(usize, usize)> {
        let mut places = vec![(0, size)];
        for &(a, b) in picks {
            let (a, b) = (a % (size + 1), b % (size + 1));
            places.push((a.min(b), a.abs_diff(b)));
        }
        let run_len = run_len.min(size);
        places.extend((0..run).map(|i| ((i * stride) % (size - run_len + 1), run_len)));
        places
    }

    proptest! {
        /// Views of random buffers, by the memo or by hashing: whole, at
        /// random places (empty, nested, overlapping, repeated) and in
        /// runs of one length up to five lane widths long, most with a
        /// tail of singles. Every id
        /// is the view's [`Guid::for_content`], on the first naming and
        /// on the next, of the same views and of a sub-view's sub-view.
        #[test]
        fn memo_names_what_for_content_names(
            data in proptest::collection::vec(any::<u8>(), 0..6000),
            picks in proptest::collection::vec((0usize..6001, 0usize..6001), 0..12),
            run in 0usize..41,
            run_len in prop_oneof![0usize..200, Just(4096usize)],
            stride in 1usize..300,
        ) {
            let whole = Bytes::from(data.clone());
            let places = places(data.len(), &picks, run, run_len, stride);
            let views: Vec<Bytes> = places.iter().map(|&(at, len)| whole.slice(at..at + len)).collect();
            let each: Vec<Guid> = places.iter().map(|&(at, len)| Guid::for_content(&data[at..at + len])).collect();
            prop_assert_eq!(&Guid::for_contents(&views), &each);
            prop_assert_eq!(&Guid::for_contents(&views), &each);
            // The same places reached another way: a view of a view.
            let half = data.len() / 2;
            let outer = whole.slice(half..data.len());
            let nested: Vec<Bytes> = places
                .iter()
                .filter(|&&(at, _)| at >= half)
                .map(|&(at, len)| outer.slice(at - half..at - half + len))
                .collect();
            let expect: Vec<Guid> = nested.iter().map(|v| Guid::for_content(v)).collect();
            prop_assert_eq!(Guid::for_contents(&nested), expect);
        }
    }

    /// Naming views a second time hashes nothing, nor does naming fresh
    /// views at the same places of the buffer; a copy of the same bytes is
    /// another buffer and is hashed in full.
    #[test]
    fn naming_again_hashes_no_byte() {
        let whole = Bytes::from((0..=255u8).cycle().take(64 * 1024).collect::<Vec<u8>>());
        let blocks = |whole: &Bytes| -> Vec<Bytes> {
            (0..16).map(|i| whole.slice(i * 4096..(i + 1) * 4096)).collect()
        };
        let odd = whole.slice(1..4000);
        let (first, n) = hashed(|| Guid::for_contents(blocks(&whole).iter().chain([&odd])));
        assert_eq!(n, 64 * 1024 + 3999, "the first naming hashes every byte once");
        let (again, n) = hashed(|| Guid::for_contents(blocks(&whole).iter().chain([&odd])));
        assert_eq!((again, n), (first.clone(), 0), "fresh views of the same places");
        let (one, n) = hashed(|| Guid::for_view(&whole.slice(4096..8192)));
        assert_eq!((one, n), (first[1], 0));
        let copy = Bytes::copy_from_slice(&whole);
        let (copied, n) = hashed(|| Guid::for_contents(&blocks(&copy)));
        assert_eq!((copied.as_slice(), n), (&first[..16], 64 * 1024), "another buffer");
        let (whole_id, n) = hashed(|| Guid::for_view(&whole));
        assert_eq!((whole_id, n), (Guid::for_content(&whole), 64 * 1024), "a new place");
    }

    /// Two threads naming views of one buffer at once get the same ids,
    /// each the view's [`Guid::for_content`].
    #[test]
    fn two_threads_name_one_buffer_alike() {
        let data: Vec<u8> = (0..96 * 1024u32).map(|i| (i * 31 % 251) as u8).collect();
        let each: Vec<Guid> = data.chunks(1024).map(Guid::for_content).collect();
        for round in 0..8 {
            // A fresh buffer each round: both threads find its memo empty.
            let whole = Bytes::copy_from_slice(&data);
            let views: Vec<Bytes> =
                (0..96).map(|i| whole.slice(i * 1024..(i + 1) * 1024)).collect();
            let start = std::sync::Barrier::new(2);
            let (a, b) = std::thread::scope(|s| {
                let name = || {
                    start.wait();
                    Guid::for_contents(&views)
                };
                let a = s.spawn(name);
                let b = s.spawn(name);
                (a.join().expect("thread a"), b.join().expect("thread b"))
            });
            assert_eq!(a, b, "round {round}");
            assert_eq!(a, each, "round {round}");
        }
    }

    #[test]
    fn salting_disperses_roots() {
        let g = Guid::from_label("object");
        let salts: Vec<Guid> = (0..4).map(|s| g.salted(s)).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(salts[i], salts[j]);
            }
        }
        // And is deterministic.
        assert_eq!(g.salted(2), g.salted(2));
    }

    #[test]
    fn nibble_extraction() {
        let mut bytes = [0u8; DIGEST_LEN];
        bytes[DIGEST_LEN - 1] = 0xAB; // low byte
        bytes[DIGEST_LEN - 2] = 0xCD;
        let g = Guid::from_bytes(bytes);
        assert_eq!(g.nibble(0), 0xB);
        assert_eq!(g.nibble(1), 0xA);
        assert_eq!(g.nibble(2), 0xD);
        assert_eq!(g.nibble(3), 0xC);
    }

    #[test]
    fn low_match_len() {
        let mut a = [0u8; DIGEST_LEN];
        let mut b = [0u8; DIGEST_LEN];
        a[DIGEST_LEN - 1] = 0x34;
        b[DIGEST_LEN - 1] = 0x34;
        a[DIGEST_LEN - 2] = 0x12;
        b[DIGEST_LEN - 2] = 0x52; // differ at nibble 3
        let (ga, gb) = (Guid::from_bytes(a), Guid::from_bytes(b));
        assert_eq!(ga.low_nibble_match_len(&gb), 3);
        assert_eq!(ga.low_nibble_match_len(&ga), NIBBLES);
    }

    #[test]
    fn bit_extraction() {
        let mut bytes = [0u8; DIGEST_LEN];
        bytes[DIGEST_LEN - 1] = 0b0000_0101;
        let g = Guid::from_bytes(bytes);
        assert!(g.bit(0));
        assert!(!g.bit(1));
        assert!(g.bit(2));
        assert!(!g.bit(3));
    }

    #[test]
    fn display_is_short_hex() {
        let g = Guid::from_label("x");
        let s = format!("{g}");
        assert_eq!(s.chars().count(), 9); // 8 hex + ellipsis
        assert!(g.to_hex().starts_with(&s[..8]));
        assert_eq!(g.to_hex().len(), 40);
    }

    #[test]
    fn equal_keys_hash_equal() {
        let state = IdState::default();
        let g = Guid::from_label("key");
        let same = Guid::from_bytes(*g.as_bytes());
        assert_eq!(state.hash_one(g), state.hash_one(same));
        assert_eq!(state.hash_one((g, 7u64)), state.hash_one((same, 7u64)));
        assert_ne!(state.hash_one(g), state.hash_one(Guid::from_label("other")));
        assert_ne!(state.hash_one((g, 7u64)), state.hash_one((g, 8u64)));
    }

    #[test]
    fn two_tables_hash_under_different_keys() {
        let guids: Vec<Guid> = (0..64).map(|i| Guid::from_label(&format!("order-{i}"))).collect();
        let walk = || guids.iter().collect::<IdSet<_>>().into_iter().copied().collect::<Vec<_>>();
        assert_ne!(walk(), walk(), "the same 64 GUIDs, inserted alike, walked alike");
    }

    proptest! {
        #[test]
        fn id_map_behaves_like_a_btree_map(
            ops in proptest::collection::vec((0u8..4, 0u8..24, 0u64..3, any::<u32>()), 0..200),
        ) {
            let mut map: IdMap<(Guid, u64), u32> = IdMap::default();
            let mut model = BTreeMap::new();
            for (op, byte, index, value) in ops {
                let key = (Guid::from_bytes([byte; DIGEST_LEN]), index);
                match op {
                    0 | 1 => prop_assert_eq!(map.insert(key, value), model.insert(key, value)),
                    2 => prop_assert_eq!(map.remove(&key), model.remove(&key)),
                    _ => prop_assert_eq!(map.get(&key), model.get(&key)),
                }
                prop_assert_eq!(map.len(), model.len());
            }
            let mut held: Vec<_> = map.into_iter().collect();
            held.sort_unstable();
            prop_assert_eq!(held, model.into_iter().collect::<Vec<_>>());
        }
    }
}
