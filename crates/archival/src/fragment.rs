//! Self-verifying archival fragments (§4.5).
//!
//! "To preserve the erasure nature of the fragments ... we use a
//! hierarchical hashing method to verify each fragment. We generate a hash
//! over each fragment, and recursively hash over the concatenation of
//! pairs of hashes to form a binary tree. Each fragment is stored along
//! with the hashes neighboring its path to the root. ... We can use the
//! top-most hash as the GUID to the immutable archival object, making
//! every fragment in the archive completely self-verifying."
//!
//! The "hash over each fragment" is the fragment's CID, the name the blob
//! layer files it under: a leaf is the Merkle leaf hash of those 20 bytes.
//! A fragment travels as a [`Bytes`] view, so a holder or a reader in this
//! process that names it reads the CID from its buffer's memo, filled when
//! the bytes were first hashed (DESIGN.md "One name per fragment").

use std::ops::Range;

use oceanstore_crypto::merkle::{MerkleProof, MerkleTree};
use oceanstore_erasure::object::{self, ObjectCodec};
use oceanstore_erasure::rs::CodeError;
use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::Guid;

/// One archival fragment, carrying everything needed to verify itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// GUID of the immutable archival object (derived from the tree root).
    pub archive: Guid,
    /// Fragment index within the encoding.
    pub index: usize,
    /// The erasure-coded payload.
    pub data: Bytes,
    /// Sibling hashes up to the root.
    pub proof: MerkleProof,
    /// The Merkle root itself (the "top-most hash").
    pub root: [u8; 32],
}

impl Fragment {
    /// Verifies the fragment against its own embedded root and the archive
    /// GUID: either it is retrieved "correctly and completely, or not at
    /// all". The proof must be for the slot the fragment claims, since a
    /// reader places its bytes at `index`.
    pub fn verify(&self) -> bool {
        self.index == self.proof.leaf_index
            && self.archive == archive_guid(&self.root)
            && self.proof.verify(Guid::for_view(&self.data).as_bytes(), &self.root)
    }

    /// Wire size when a fragment travels.
    pub fn wire_size(&self) -> usize {
        Guid::WIRE_SIZE + 8 + self.data.len() + self.proof.wire_size() + 32
    }
}

/// Derives the archival object's GUID from the Merkle root.
pub fn archive_guid(root: &[u8; 32]) -> Guid {
    Guid::for_content(root)
}

/// An archived version: the full fragment set plus its identity.
#[derive(Debug, Clone)]
pub struct Archive {
    /// GUID of the immutable archival object.
    pub guid: Guid,
    /// The Merkle root over the fragments' CIDs.
    pub root: [u8; 32],
    /// All `n` fragments.
    pub fragments: Vec<Fragment>,
}

/// Erasure-codes `data` and wraps every fragment with its verification
/// path: [`archive_framed`] of `data` framed for `codec`.
///
/// # Errors
///
/// Propagates encoding errors from the codec.
pub fn archive_object(codec: &ObjectCodec, data: &[u8]) -> Result<Archive, CodeError> {
    archive_framed(codec, object::frame(data, codec.data_shards()))
}

/// Erasure-codes an object framed for `codec` ([`object::framed`]) and
/// wraps every fragment with its verification path. The `k` data
/// fragments are views of `framed` and the parity fragments views of one
/// parity buffer, so no fragment is copied; all `n` are named once here:
/// the CIDs are the tree's leaves and stay in the two buffers' memos.
///
/// # Errors
///
/// Propagates encoding errors from the codec.
pub fn archive_framed(codec: &ObjectCodec, framed: Vec<u8>) -> Result<Archive, CodeError> {
    let parity = Bytes::from(codec.encode_framed(&framed)?);
    let framed = Bytes::from(framed);
    let k = codec.data_shards();
    let shard_len = framed.len() / k;
    let shards: Vec<Bytes> = (0..codec.total_shards())
        .map(|i| {
            let (rows, row) = if i < k { (&framed, i) } else { (&parity, i - k) };
            rows.slice(row * shard_len..(row + 1) * shard_len)
        })
        .collect();
    let cids = Guid::for_contents(&shards);
    let tree = MerkleTree::build(&cids.iter().map(Guid::as_bytes).collect::<Vec<_>>());
    let root = tree.root();
    let guid = archive_guid(&root);
    let fragments = shards
        .into_iter()
        .enumerate()
        .map(|(index, data)| Fragment {
            archive: guid,
            index,
            data,
            proof: tree.proof(index),
            root,
        })
        .collect();
    Ok(Archive { guid, root, fragments })
}

/// Reconstructs the original bytes from any sufficient set of *verified*
/// fragments. Unverifiable fragments are discarded first (self-verifying
/// erasure property).
///
/// # Errors
///
/// [`CodeError::NotEnoughShards`] (or `DecodingStalled` for Tornado) when
/// the verified survivors don't suffice.
pub fn reconstruct_object(
    codec: &ObjectCodec,
    fragments: &[Fragment],
) -> Result<Vec<u8>, CodeError> {
    let verified = fragments.iter().filter(|f| f.verify());
    let (mut framed, object) = reconstruct_verified(codec, verified)?;
    framed.truncate(object.end);
    framed.drain(..object.start);
    Ok(framed)
}

/// The framed object ([`object::framed`]) back from fragments the caller
/// has verified already (the fetch protocol checks each on arrival), and
/// where the object sits in it: none is named again, and each is read
/// through its view ([`ObjectCodec::decode_framed`]).
pub(crate) fn reconstruct_verified<'a>(
    codec: &ObjectCodec,
    fragments: impl IntoIterator<Item = &'a Fragment>,
) -> Result<(Vec<u8>, Range<usize>), CodeError> {
    let n = codec.total_shards();
    let mut shards: Vec<Option<Bytes>> = vec![None; n];
    let mut have = 0usize;
    for f in fragments {
        if f.index < n && shards[f.index].is_none() {
            shards[f.index] = Some(f.data.clone());
            have += 1;
        }
    }
    if have < codec.data_shards() {
        return Err(CodeError::NotEnoughShards { have, need: codec.data_shards() });
    }
    codec.decode_framed(&shards)
}

/// `fragment` with byte `at` of its payload xor-ed with `mask`, in a
/// buffer of its own: the same archive, index, proof and length.
#[cfg(test)]
pub(crate) fn flipped(fragment: &Fragment, at: usize, mask: u8) -> Fragment {
    let mut data = fragment.data.to_vec();
    data[at] ^= mask;
    Fragment { data: Bytes::from(data), ..fragment.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oceanstore_erasure::object::{frame, CodeKind};
    use std::sync::Arc;

    fn codec() -> ObjectCodec {
        ObjectCodec::new(CodeKind::ReedSolomon, 8, 16, 0).unwrap()
    }

    fn payload() -> Vec<u8> {
        (0..3000u32).map(|i| (i * 17 % 251) as u8).collect()
    }

    #[test]
    fn archive_and_reconstruct() {
        let arch = archive_object(&codec(), &payload()).unwrap();
        assert_eq!(arch.fragments.len(), 16);
        assert!(arch.fragments.iter().all(Fragment::verify));
        // Any 8 fragments suffice.
        let out = reconstruct_object(&codec(), &arch.fragments[4..12]).unwrap();
        assert_eq!(out, payload());
    }

    #[test]
    fn corrupted_fragment_is_discarded_not_used() {
        let arch = archive_object(&codec(), &payload()).unwrap();
        let mut frags: Vec<Fragment> = arch.fragments[..9].to_vec();
        frags[0] = flipped(&frags[0], 0, 0xff); // silent corruption
        // 8 verified fragments remain: reconstruction must still succeed
        // and must not be polluted by the bad one.
        let out = reconstruct_object(&codec(), &frags).unwrap();
        assert_eq!(out, payload());
    }

    #[test]
    fn too_much_corruption_detected() {
        let arch = archive_object(&codec(), &payload()).unwrap();
        let mut frags: Vec<Fragment> = arch.fragments[..8].to_vec();
        frags[3] = flipped(&frags[3], 0, 1);
        let err = reconstruct_object(&codec(), &frags).unwrap_err();
        assert_eq!(err, CodeError::NotEnoughShards { have: 7, need: 8 });
    }

    /// A fragment is placed at the index it claims, so its proof must be
    /// for that index: fragment 9's bytes and proof under index 1 would
    /// otherwise decode to other bytes.
    #[test]
    fn a_relabeled_fragment_does_not_verify() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i * 7 % 253) as u8).collect();
        let arch = archive_object(&codec(), &data).unwrap();
        let relabeled = Fragment { index: 1, ..arch.fragments[9].clone() };
        assert!(!relabeled.verify());
        let mut frags = vec![arch.fragments[0].clone(), relabeled];
        frags.extend_from_slice(&arch.fragments[2..8]);
        let err = reconstruct_object(&codec(), &frags).unwrap_err();
        assert_eq!(err, CodeError::NotEnoughShards { have: 7, need: 8 });
        frags.push(arch.fragments[12].clone());
        assert_eq!(reconstruct_object(&codec(), &frags).unwrap(), data);
    }

    /// The leaves are the fragments' CIDs: the tree over them is the one
    /// `archive_object` built.
    #[test]
    fn the_leaves_are_the_fragment_cids() {
        let arch = archive_object(&codec(), &payload()).unwrap();
        let cids: Vec<Guid> =
            arch.fragments.iter().map(|f| Guid::for_content(&f.data)).collect();
        let tree = MerkleTree::build(&cids.iter().map(Guid::as_bytes).collect::<Vec<_>>());
        assert_eq!(tree.root(), arch.root);
        for f in &arch.fragments {
            assert_eq!(tree.proof(f.index), f.proof);
        }
    }

    #[test]
    fn fragment_from_wrong_archive_rejected() {
        let a = archive_object(&codec(), &payload()).unwrap();
        let b = archive_object(&codec(), b"other data entirely").unwrap();
        let mut frankenstein = a.fragments[0].clone();
        frankenstein.archive = b.guid;
        assert!(!frankenstein.verify());
    }

    #[test]
    fn archive_guid_is_content_addressed() {
        let a1 = archive_object(&codec(), &payload()).unwrap();
        let a2 = archive_object(&codec(), &payload()).unwrap();
        assert_eq!(a1.guid, a2.guid, "same content, same archival GUID");
        let b = archive_object(&codec(), b"different").unwrap();
        assert_ne!(a1.guid, b.guid);
    }

    #[test]
    fn duplicate_fragments_counted_once() {
        let arch = archive_object(&codec(), &payload()).unwrap();
        let frags: Vec<Fragment> =
            std::iter::repeat_n(arch.fragments[0].clone(), 10).collect();
        let err = reconstruct_object(&codec(), &frags).unwrap_err();
        assert_eq!(err, CodeError::NotEnoughShards { have: 1, need: 8 });
    }

    #[test]
    fn works_with_tornado_codec() {
        let codec = ObjectCodec::new(CodeKind::Tornado, 8, 24, 5).unwrap();
        let arch = archive_object(&codec, &payload()).unwrap();
        // Generous survivor set for the peeling decoder.
        let out = reconstruct_object(&codec, &arch.fragments[..20]).unwrap();
        assert_eq!(out, payload());
    }

    fn hex(guid: &Guid) -> String {
        guid.as_bytes().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The archive GUID is a pure function of the object's bytes and the
    /// code: pinned for a 1 MiB object at RS(16, 32), the `bulk_archive`
    /// shape, and a 64 KiB one at RS(8, 16).
    #[test]
    fn archive_guids_are_pinned() {
        let object = |len: u32| -> Vec<u8> {
            (0..len).map(|i| (i * 31 + (i >> 9)) as u8).collect()
        };
        let big = ObjectCodec::new(CodeKind::ReedSolomon, 16, 32, 0).unwrap();
        let arch = archive_object(&big, &object(1 << 20)).unwrap();
        assert_eq!(hex(&arch.guid), "a311e091c61f43328ef380e13c2140b1ed8c8002");
        let small = archive_object(&codec(), &object(64 << 10)).unwrap();
        assert_eq!(hex(&small.guid), "6766963a67b6ad627a2c6c20d4fb3d1f35170e4b");
    }

    /// An archive is built from views: the data fragments are `k` slices
    /// of one buffer, the framed object, and the parity fragments `n − k`
    /// slices of another.
    #[test]
    fn fragments_are_views_of_two_buffers() {
        let data = payload();
        let arch = archive_object(&codec(), &data).unwrap();
        let (data_fragments, parity) = arch.fragments.split_at(8);
        let one_buffer = |frags: &[Fragment]| {
            frags.iter().all(|f| Arc::ptr_eq(f.data.buffer(), frags[0].data.buffer()))
        };
        assert!(one_buffer(data_fragments), "the data fragments share the framed object");
        assert!(one_buffer(parity), "the parity fragments share one buffer");
        assert!(!Arc::ptr_eq(data_fragments[0].data.buffer(), parity[0].data.buffer()));
        let framed: Vec<u8> = data_fragments.iter().flat_map(|f| f.data.to_vec()).collect();
        assert_eq!(framed, frame(&data, 8));
    }
}
