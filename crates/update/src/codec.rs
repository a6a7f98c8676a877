//! Canonical binary encoding of updates, and the digest a serialization
//! certificate names an update by.
//!
//! Updates travel through Byzantine agreement as opaque payload bytes; the
//! digest that replicas agree on is a hash of this encoding, so it must be
//! canonical (identical updates encode identically) and self-delimiting.
//!
//! A server decodes the buffer an update arrived in, [`decode_view`]: every
//! ciphertext of the result is a view of that buffer, not a copy of it.

use oceanstore_crypto::sha1::{Digest, Sha1};
use oceanstore_crypto::swp::{EncryptedIndex, Trapdoor};
use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::{has_run, Guid};

use crate::update::{Action, Clause, Predicate, Update};

/// Errors decoding an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError;

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed update encoding")
    }
}

impl std::error::Error for DecodeError {}

/// Where an encoding goes: the wire buffer, or the hasher of
/// [`update_digest`], which takes each ciphertext by its content id.
trait Sink {
    /// Structure: tags, counts, positions, predicate operands.
    fn put(&mut self, bytes: &[u8]);
    /// One block's ciphertext.
    fn ciphertext(&mut self, ct: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn ciphertext(&mut self, ct: &[u8]) {
        self.extend_from_slice(ct);
    }
}

/// Counts an encoding's length, so its buffer is allocated once, exactly.
impl Sink for usize {
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }

    fn ciphertext(&mut self, ct: &[u8]) {
        *self += ct.len();
    }
}

/// An update's name: SHA-1 over its canonical encoding with each
/// ciphertext replaced by its content id, and those content ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateDigest {
    /// The digest a serialization certificate signs.
    pub digest: Digest,
    /// [`Guid::for_content`] of every ciphertext, in encoding order: the
    /// names the blob store files the update's blocks under.
    pub cids: Vec<Guid>,
}

/// The sink of [`update_digest`]: hashes the encoding into the digest,
/// each ciphertext as the next of the CIDs named beforehand.
struct Namer<'a> {
    sha: Sha1,
    cids: std::slice::Iter<'a, Guid>,
}

impl Sink for Namer<'_> {
    fn put(&mut self, bytes: &[u8]) {
        self.sha.update(bytes);
    }

    fn ciphertext(&mut self, _ct: &[u8]) {
        let cid = self.cids.next().expect("one CID per ciphertext");
        self.sha.update(cid.as_bytes());
    }
}

/// Encodes an update canonically.
pub fn encode_update<C: AsRef<[u8]>>(u: &Update<C>) -> Vec<u8> {
    encode_after(&[], u)
}

/// `prefix`, then the canonical encoding of `u`, in one buffer allocated
/// once at its exact length: how a client lays out an agreement payload.
pub fn encode_after<C: AsRef<[u8]>>(prefix: &[u8], u: &Update<C>) -> Vec<u8> {
    let mut len = prefix.len();
    encode(&mut len, u);
    let mut b = Vec::with_capacity(len);
    b.extend_from_slice(prefix);
    encode(&mut b, u);
    debug_assert_eq!(b.len(), len);
    b
}

/// Names `u`: each ciphertext is hashed once, into its content id, and
/// then one streaming pass over the encoding hashes the content ids with
/// the rest of it into the digest. A Merkle DAG of depth one — the digest
/// covers every byte, and every block is already named by the CID the
/// blob store keeps it under.
///
/// The ciphertexts are named through [`Guid::for_contents`], which hashes
/// runs of eight or more of one length many at once. An update without such a run (an
/// 8-byte append, say) is named one ciphertext at a time, without
/// collecting its ciphertexts first.
pub fn update_digest<C: AsRef<[u8]>>(u: &Update<C>) -> UpdateDigest {
    let ciphertexts = || u.clauses.iter().flat_map(|c| &c.actions).filter_map(Action::ciphertext);
    let cids = if has_run(ciphertexts().map(<[u8]>::len)) {
        Guid::for_contents(&ciphertexts().collect::<Vec<_>>())
    } else {
        ciphertexts().map(Guid::for_content).collect()
    };
    let mut namer = Namer { sha: Sha1::new(), cids: cids.iter() };
    encode(&mut namer, u);
    UpdateDigest { digest: namer.sha.finalize(), cids }
}

fn encode<C: AsRef<[u8]>>(b: &mut impl Sink, u: &Update<C>) {
    put_u32(b, u.clauses.len() as u32);
    for c in &u.clauses {
        encode_predicate(b, &c.predicate);
        put_u32(b, c.actions.len() as u32);
        for a in &c.actions {
            encode_action(b, a);
        }
    }
}

/// Decodes an update previously produced by [`encode_update`] from a
/// borrowed buffer: copies it once into a buffer of its own and decodes a
/// view of that ([`decode_view`]).
///
/// # Errors
///
/// [`DecodeError`] on truncation or invalid tags.
pub fn decode_update(bytes: &[u8]) -> Result<Update<Bytes>, DecodeError> {
    decode_view(&Bytes::copy_from_slice(bytes))
}

/// Decodes the update `bytes` encodes. Every ciphertext of the result is
/// a view of `bytes`' buffer: no byte is copied, and each block the update
/// stores keeps that buffer alive.
///
/// # Errors
///
/// [`DecodeError`] on truncation or invalid tags.
pub fn decode_view(bytes: &Bytes) -> Result<Update<Bytes>, DecodeError> {
    // A cursor over the view: every field is read in place, and a
    // ciphertext is the view of where the cursor stood.
    let mut b = bytes.as_slice();
    let n = get_u32(&mut b)? as usize;
    if n > 10_000 {
        return Err(DecodeError);
    }
    let mut clauses = Vec::with_capacity(n);
    for _ in 0..n {
        let predicate = decode_predicate(&mut b)?;
        let an = get_u32(&mut b)? as usize;
        if an > 100_000 {
            return Err(DecodeError);
        }
        let mut actions = Vec::with_capacity(an);
        for _ in 0..an {
            actions.push(decode_action(bytes, &mut b)?);
        }
        clauses.push(Clause { predicate, actions });
    }
    if !b.is_empty() {
        return Err(DecodeError);
    }
    Ok(Update { clauses })
}

fn encode_predicate(b: &mut impl Sink, p: &Predicate) {
    match p {
        Predicate::True => b.put(&[0]),
        Predicate::CompareVersion(v) => {
            b.put(&[1]);
            put_u64(b, *v);
        }
        Predicate::CompareSize(s) => {
            b.put(&[2]);
            put_u64(b, *s as u64);
        }
        Predicate::CompareBlock { position, hash } => {
            b.put(&[3]);
            put_u64(b, *position as u64);
            b.put(hash);
        }
        Predicate::Search(t) => {
            b.put(&[4]);
            b.put(&t.to_bytes());
        }
        Predicate::SearchAbsent(t) => {
            b.put(&[5]);
            b.put(&t.to_bytes());
        }
    }
}

fn decode_predicate(b: &mut &[u8]) -> Result<Predicate, DecodeError> {
    Ok(match get_u8(b)? {
        0 => Predicate::True,
        1 => Predicate::CompareVersion(get_u64(b)?),
        2 => Predicate::CompareSize(get_u64(b)? as usize),
        3 => {
            let position = get_u64(b)? as usize;
            let hash = get_array::<32>(b)?;
            Predicate::CompareBlock { position, hash }
        }
        4 => Predicate::Search(Trapdoor::from_bytes(get_array::<32>(b)?)),
        5 => Predicate::SearchAbsent(Trapdoor::from_bytes(get_array::<32>(b)?)),
        _ => return Err(DecodeError),
    })
}

fn encode_action<C: AsRef<[u8]>>(b: &mut impl Sink, a: &Action<C>) {
    match a {
        Action::ReplaceBlock { position, ciphertext } => {
            let ciphertext = ciphertext.as_ref();
            b.put(&[0]);
            put_u64(b, *position as u64);
            put_u32(b, ciphertext.len() as u32);
            b.ciphertext(ciphertext);
        }
        Action::Append { ciphertext } => {
            let ciphertext = ciphertext.as_ref();
            b.put(&[1]);
            put_u32(b, ciphertext.len() as u32);
            b.ciphertext(ciphertext);
        }
        Action::ReplaceWithIndex { position, pointers } => {
            b.put(&[2]);
            put_u64(b, *position as u64);
            put_u32(b, pointers.len() as u32);
            for p in pointers {
                put_u64(b, *p as u64);
            }
        }
        Action::DeleteBlock { position } => {
            b.put(&[3]);
            put_u64(b, *position as u64);
        }
        Action::SetSearchIndex(ix) => {
            b.put(&[4]);
            let raw = ix.to_bytes();
            put_u32(b, raw.len() as u32);
            b.put(&raw);
        }
    }
}

/// One action at the cursor `b`, which stands inside `whole`.
fn decode_action(whole: &Bytes, b: &mut &[u8]) -> Result<Action<Bytes>, DecodeError> {
    Ok(match get_u8(b)? {
        0 => {
            let position = get_u64(b)? as usize;
            let len = get_u32(b)? as usize;
            Action::ReplaceBlock { position, ciphertext: get_view(whole, b, len)? }
        }
        1 => {
            let len = get_u32(b)? as usize;
            Action::Append { ciphertext: get_view(whole, b, len)? }
        }
        2 => {
            let position = get_u64(b)? as usize;
            let n = get_u32(b)? as usize;
            if n > 100_000 {
                return Err(DecodeError);
            }
            let mut pointers = Vec::with_capacity(n);
            for _ in 0..n {
                pointers.push(get_u64(b)? as usize);
            }
            Action::ReplaceWithIndex { position, pointers }
        }
        3 => Action::DeleteBlock { position: get_u64(b)? as usize },
        4 => {
            let len = get_u32(b)? as usize;
            let raw = take(b, len)?;
            Action::SetSearchIndex(EncryptedIndex::from_bytes(raw).ok_or(DecodeError)?)
        }
        _ => return Err(DecodeError),
    })
}

fn put_u32(b: &mut impl Sink, v: u32) {
    b.put(&v.to_be_bytes());
}

fn put_u64(b: &mut impl Sink, v: u64) {
    b.put(&v.to_be_bytes());
}

/// Splits the next `n` bytes off the front of the cursor.
fn take<'a>(b: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if b.len() < n {
        return Err(DecodeError);
    }
    let (head, rest) = b.split_at(n);
    *b = rest;
    Ok(head)
}

fn get_u8(b: &mut &[u8]) -> Result<u8, DecodeError> {
    Ok(take(b, 1)?[0])
}

fn get_u32(b: &mut &[u8]) -> Result<u32, DecodeError> {
    Ok(u32::from_be_bytes(get_array(b)?))
}

fn get_u64(b: &mut &[u8]) -> Result<u64, DecodeError> {
    Ok(u64::from_be_bytes(get_array(b)?))
}

/// The next `len` bytes of the cursor `b`, which stands inside `whole`, as
/// a view of `whole`'s buffer.
fn get_view(whole: &Bytes, b: &mut &[u8], len: usize) -> Result<Bytes, DecodeError> {
    let at = whole.len() - b.len();
    take(b, len)?;
    Ok(whole.slice(at..at + len))
}

fn get_array<const N: usize>(b: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    Ok(take(b, N)?.try_into().expect("take(N) yields N bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oceanstore_crypto::swp::SearchKey;
    use proptest::prelude::*;

    fn sample_updates() -> Vec<Update> {
        let key = SearchKey::from_seed(b"k");
        vec![
            Update::default(),
            Update::unconditional(vec![Action::Append { ciphertext: vec![1, 2, 3] }]),
            Update::default()
                .with_clause(
                    Predicate::CompareVersion(7),
                    vec![
                        Action::ReplaceBlock { position: 2, ciphertext: vec![9; 100] },
                        Action::DeleteBlock { position: 0 },
                    ],
                )
                .with_clause(
                    Predicate::CompareBlock { position: 1, hash: [0xAB; 32] },
                    vec![Action::ReplaceWithIndex { position: 1, pointers: vec![4, 5, 6] }],
                ),
            Update::default().with_clause(
                Predicate::Search(key.trapdoor(b"word")),
                vec![Action::SetSearchIndex(
                    key.build_index(b"doc", vec![b"a".as_slice(), b"b".as_slice()]),
                )],
            ),
            Update::default().with_clause(Predicate::SearchAbsent(key.trapdoor(b"x")), vec![]),
            Update::default().with_clause(Predicate::CompareSize(123), vec![]),
        ]
    }

    #[test]
    fn roundtrip_all_shapes() {
        for (i, u) in sample_updates().iter().enumerate() {
            let enc = encode_update(u);
            let dec = decode_update(&enc).unwrap_or_else(|_| panic!("decode sample {i}"));
            // Re-encoding must be canonical.
            assert_eq!(encode_update(&dec), enc, "sample {i}");
        }
    }

    #[test]
    fn truncation_detected() {
        let enc = encode_update(&sample_updates()[2]);
        for cut in [0, 1, enc.len() / 2, enc.len() - 1] {
            assert!(decode_update(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut enc = encode_update(&sample_updates()[1]);
        enc.push(0);
        assert!(decode_update(&enc).is_err());
    }

    #[test]
    fn bad_tag_detected() {
        let mut enc = encode_update(&sample_updates()[1]);
        // First clause's predicate tag lives at offset 4.
        enc[4] = 0xEE;
        assert!(decode_update(&enc).is_err());
    }

    #[test]
    fn absurd_counts_rejected() {
        assert!(decode_update(&u32::MAX.to_be_bytes()).is_err());
    }

    /// The reference for [`update_digest`]: one streaming pass that hashes
    /// each ciphertext into its CID where the encoding reaches it, one
    /// ciphertext at a time.
    struct StreamingNamer {
        sha: Sha1,
        cids: Vec<Guid>,
    }

    impl Sink for StreamingNamer {
        fn put(&mut self, bytes: &[u8]) {
            self.sha.update(bytes);
        }

        fn ciphertext(&mut self, ct: &[u8]) {
            let cid = Guid::for_content(ct);
            self.sha.update(cid.as_bytes());
            self.cids.push(cid);
        }
    }

    fn streaming_digest(u: &Update) -> UpdateDigest {
        let mut namer = StreamingNamer { sha: Sha1::new(), cids: Vec::new() };
        encode(&mut namer, u);
        UpdateDigest { digest: namer.sha.finalize(), cids: namer.cids }
    }

    /// A ciphertext of `len` bytes drawn from `seed`.
    fn ciphertext(len: usize, seed: u64) -> Vec<u8> {
        let spread = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (0..len as u64).map(|j| (spread >> (j % 57)) as u8 ^ j as u8).collect()
    }

    proptest! {
        /// Updates that hold a run of at least eight ciphertexts of one
        /// length, with ciphertexts of other lengths and actions without
        /// one mixed in and the actions cut into clauses: the batched
        /// naming gives the digest and the CIDs of the streaming reference.
        #[test]
        fn batched_naming_matches_one_cid_at_a_time(
            run_len in prop_oneof![0usize..300, Just(4096usize)],
            run in 8usize..=40,
            others in proptest::collection::vec((0usize..44, 0usize..300, 0u8..4), 0..5),
            cuts in proptest::collection::vec(0usize..44, 0..3),
            seed in any::<u64>(),
        ) {
            let mut actions: Vec<Action> = (0..run as u64)
                .map(|i| match i % 3 {
                    0 => Action::ReplaceBlock { position: i as usize, ciphertext: ciphertext(run_len, seed ^ i) },
                    _ => Action::Append { ciphertext: ciphertext(run_len, seed ^ i) },
                })
                .collect();
            for (k, &(at, len, kind)) in others.iter().enumerate() {
                let ciphertext = ciphertext(len, seed.rotate_left(k as u32 + 1));
                let action = match kind {
                    0 => Action::Append { ciphertext },
                    1 => Action::ReplaceBlock { position: len, ciphertext },
                    2 => Action::DeleteBlock { position: len },
                    _ => Action::ReplaceWithIndex { position: at, pointers: vec![len, at] },
                };
                actions.insert(at.min(actions.len()), action);
            }
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(actions.len())).collect();
            cuts.sort_unstable();
            let mut u = Update::default();
            for &cut in cuts.iter().rev() {
                let tail = actions.split_off(cut);
                u.clauses.insert(0, Clause { predicate: Predicate::CompareVersion(cut as u64), actions: tail });
            }
            u.clauses.insert(0, Clause { predicate: Predicate::True, actions });
            prop_assert_eq!(update_digest(&u), streaming_digest(&u));
        }
    }
}
