//! Client-side ciphertext operations (§4.4.2).
//!
//! Clients hold the read key; servers never do. This module is the
//! client's toolbox: encrypt cleartext into position-dependent ciphertext
//! blocks, build the update actions of Figure 4 (insert/delete without
//! revealing content), construct compare-block predicates, and read an
//! object back by resolving index blocks and decrypting.

use oceanstore_crypto::cipher::BlockCipherKey;
use oceanstore_crypto::swp::SearchKey;
use oceanstore_naming::guid::Guid;

use crate::object::{Block, DataObject, Version};
use crate::update::{Action, Predicate, Update};

/// Client-held key material for one object.
#[derive(Debug, Clone)]
pub struct ObjectKeys {
    /// Position-dependent block cipher key (the read key).
    pub cipher: BlockCipherKey,
    /// Searchable-encryption key.
    pub search: SearchKey,
}

impl ObjectKeys {
    /// Derives both keys from a master secret (distributed to readers per
    /// §4.2).
    pub fn from_seed(seed: &[u8]) -> Self {
        ObjectKeys {
            cipher: BlockCipherKey::from_seed(seed),
            search: SearchKey::from_seed(seed),
        }
    }
}

/// Errors a reading client can hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// A logical position was out of range.
    BadPosition,
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::BadPosition => write!(f, "block position out of range"),
        }
    }
}

impl std::error::Error for ReadError {}

/// Encrypts a cleartext block destined for physical slot `slot`.
///
/// Slot-based tweaking keeps the position-dependent property the
/// compare-block predicate needs: re-encrypting unchanged cleartext for
/// the same slot yields identical ciphertext.
pub fn encrypt_block(keys: &ObjectKeys, slot: usize, cleartext: &[u8]) -> Vec<u8> {
    keys.cipher.encrypt_block(slot as u64, cleartext)
}

/// Reads and decrypts the whole logical content of `version`.
///
/// # Errors
///
/// Currently infallible in practice (index resolution skips bad pointers);
/// returns `Result` for future-proofing of facade code.
pub fn read_object(keys: &ObjectKeys, version: &Version) -> Result<Vec<Vec<u8>>, ReadError> {
    let mut out = Vec::new();
    for slot in version.logical_order() {
        match &version.blocks[slot] {
            Block::Data(ct) => out.push(keys.cipher.decrypt_block(slot as u64, ct)),
            Block::Index(_) => {}
        }
    }
    Ok(out)
}

/// Builds the actions that append `cleartext` as a fresh block.
pub fn append_op(keys: &ObjectKeys, object: &DataObject, cleartext: &[u8]) -> Vec<Action> {
    let slot = object.current().slot_count();
    vec![Action::Append { ciphertext: encrypt_block(keys, slot, cleartext) }]
}

/// Builds the actions that replace the block at logical `position` with
/// new cleartext (re-encrypted at the same physical slot).
///
/// # Panics
///
/// Panics if `position` is out of range of the current version.
pub fn replace_op(
    keys: &ObjectKeys,
    object: &DataObject,
    position: usize,
    cleartext: &[u8],
) -> Vec<Action> {
    let v = object.current();
    let order = v.logical_order();
    let slot = order[position];
    vec![Action::ReplaceBlock { position, ciphertext: encrypt_block(keys, slot, cleartext) }]
}

/// Like [`replace_op`] when the caller knows the physical slot directly
/// (facades that track slot == position for simple flat objects).
pub fn replace_op_at_slot(
    keys: &ObjectKeys,
    position: usize,
    slot: usize,
    cleartext: &[u8],
) -> Vec<Action> {
    vec![Action::ReplaceBlock { position, ciphertext: encrypt_block(keys, slot, cleartext) }]
}

/// Builds the Figure 4 insert: appends the displaced block and the new
/// block, then replaces `position` with an index pointing at
/// `[new, displaced]`. The server "learns nothing about the contents of
/// any of the blocks".
///
/// # Panics
///
/// Panics if `position` is out of range.
pub fn insert_after_op(
    keys: &ObjectKeys,
    object: &DataObject,
    position: usize,
    new_cleartext: &[u8],
) -> Vec<Action> {
    let v = object.current();
    let order = v.logical_order();
    let displaced_slot = order[position + 1];
    let displaced_ct = match &v.blocks[displaced_slot] {
        Block::Data(ct) => ct,
        Block::Index(_) => panic!("cannot displace an index block"),
    };
    // Decrypt at the old slot, re-encrypt at the new physical slot.
    let displaced_clear = keys.cipher.decrypt_block(displaced_slot as u64, displaced_ct);
    let n = v.slot_count();
    let displaced_new_slot = n;
    let inserted_slot = n + 1;
    vec![
        Action::Append {
            ciphertext: encrypt_block(keys, displaced_new_slot, &displaced_clear),
        },
        Action::Append { ciphertext: encrypt_block(keys, inserted_slot, new_cleartext) },
        Action::ReplaceWithIndex {
            position: position + 1,
            pointers: vec![inserted_slot, displaced_new_slot],
        },
    ]
}

/// The optimistic-concurrency predicate: true iff the ciphertext at
/// `position` is unchanged from what this client last saw.
///
/// # Panics
///
/// Panics if `position` is out of range or names an index block.
pub fn block_unchanged_predicate(object: &DataObject, position: usize) -> Predicate {
    let v = object.current();
    let slot = v.logical_order()[position];
    match &v.blocks[slot] {
        Block::Data(ct) => Predicate::CompareBlock { position, cid: Guid::for_view(ct) },
        Block::Index(_) => panic!("compare-block needs a data block"),
    }
}

/// Builds a whole-object write: encrypt `blocks` of cleartext into a fresh
/// object body plus a search index over `words`, as an unconditional
/// update against an empty object.
pub fn initial_write(
    keys: &ObjectKeys,
    doc_id: &[u8],
    blocks: &[&[u8]],
    words: &[&[u8]],
) -> Update {
    let mut actions: Vec<Action> = blocks
        .iter()
        .enumerate()
        .map(|(slot, clear)| Action::Append { ciphertext: encrypt_block(keys, slot, clear) })
        .collect();
    actions.push(Action::SetSearchIndex(
        keys.search.build_index(doc_id, words.iter().copied()),
    ));
    Update::unconditional(actions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::apply;

    fn keys() -> ObjectKeys {
        ObjectKeys::from_seed(b"object-master-secret")
    }

    #[test]
    fn write_then_read_roundtrip() {
        let keys = keys();
        let mut o = DataObject::new();
        let u = initial_write(&keys, b"doc", &[b"alpha", b"beta"], &[b"alpha", b"beta"]);
        assert!(apply(&mut o, &u).is_committed());
        let content = read_object(&keys, o.current()).unwrap();
        assert_eq!(content, vec![b"alpha".to_vec(), b"beta".to_vec()]);
    }

    #[test]
    fn server_sees_only_ciphertext() {
        let keys = keys();
        let mut o = DataObject::new();
        apply(&mut o, &initial_write(&keys, b"doc", &[b"secret text"], &[]));
        match &o.current().blocks[0] {
            Block::Data(ct) => {
                assert_ne!(&ct[..], b"secret text");
                // And no substring leaks.
                assert!(!ct.windows(6).any(|w| w == b"secret"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn insert_after_reads_back_in_order() {
        let keys = keys();
        let mut o = DataObject::new();
        apply(&mut o, &initial_write(&keys, b"doc", &[b"41", b"42", b"43"], &[]));
        let actions = insert_after_op(&keys, &o, 0, b"41.5");
        assert!(apply(&mut o, &Update::unconditional(actions)).is_committed());
        let content = read_object(&keys, o.current()).unwrap();
        assert_eq!(
            content,
            vec![b"41".to_vec(), b"41.5".to_vec(), b"42".to_vec(), b"43".to_vec()]
        );
    }

    #[test]
    fn nested_inserts() {
        let keys = keys();
        let mut o = DataObject::new();
        apply(&mut o, &initial_write(&keys, b"doc", &[b"a", b"d"], &[]));
        let u = Update::unconditional(insert_after_op(&keys, &o, 0, b"b"));
        apply(&mut o, &u);
        // Insert again between b and d.
        let u2 = Update::unconditional(insert_after_op(&keys, &o, 1, b"c"));
        apply(&mut o, &u2);
        let content = read_object(&keys, o.current()).unwrap();
        assert_eq!(content, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]);
    }

    #[test]
    fn replace_preserves_positions() {
        let keys = keys();
        let mut o = DataObject::new();
        apply(&mut o, &initial_write(&keys, b"doc", &[b"one", b"two"], &[]));
        let u = Update::unconditional(replace_op(&keys, &o, 1, b"TWO"));
        apply(&mut o, &u);
        let content = read_object(&keys, o.current()).unwrap();
        assert_eq!(content, vec![b"one".to_vec(), b"TWO".to_vec()]);
    }

    #[test]
    fn unchanged_predicate_detects_conflicts() {
        let keys = keys();
        let mut o = DataObject::new();
        apply(&mut o, &initial_write(&keys, b"doc", &[b"base"], &[]));
        let guard = block_unchanged_predicate(&o, 0);
        // Concurrent writer replaces block 0.
        let conflict = Update::unconditional(replace_op(&keys, &o, 0, b"newer"));
        apply(&mut o, &conflict);
        let stale = Update::default().with_clause(guard, replace_op(&keys, &o, 0, b"mine"));
        assert!(!apply(&mut o, &stale).is_committed());
    }

    #[test]
    fn old_versions_still_readable() {
        let keys = keys();
        let mut o = DataObject::new();
        apply(&mut o, &initial_write(&keys, b"doc", &[b"v1 content"], &[]));
        let rewrite = Update::unconditional(replace_op(&keys, &o, 0, b"v2 content"));
        apply(&mut o, &rewrite);
        let v1 = o.version(1).unwrap();
        assert_eq!(read_object(&keys, &v1).unwrap(), vec![b"v1 content".to_vec()]);
        assert_eq!(
            read_object(&keys, o.current()).unwrap(),
            vec![b"v2 content".to_vec()]
        );
    }

    #[test]
    fn wrong_key_reads_garbage() {
        let keys = keys();
        let other = ObjectKeys::from_seed(b"attacker");
        let mut o = DataObject::new();
        apply(&mut o, &initial_write(&keys, b"doc", &[b"plaintext!"], &[]));
        let read = read_object(&other, o.current()).unwrap();
        assert_ne!(read, vec![b"plaintext!".to_vec()]);
    }
}
