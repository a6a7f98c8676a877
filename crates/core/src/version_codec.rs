//! Serialization of object versions for deep archival storage.
//!
//! "An archival form represents a permanent, read-only version of the
//! object" (§2). Archiving flattens a [`Version`] — its ciphertext blocks
//! and index blocks — into bytes that the erasure coder fragments; the
//! version number rides along so recovered archives are self-describing.

use std::sync::Arc;

use oceanstore_crypto::swp::EncryptedIndex;
use oceanstore_naming::bytes::Bytes;
use oceanstore_update::object::{Block, Version};

/// The length of [`write_version`]'s encoding of `v`, without encoding.
pub fn encoded_len(v: &Version) -> usize {
    let blocks: usize = v
        .blocks
        .iter()
        .map(|b| match b {
            Block::Data(d) => 1 + 4 + d.len(),
            Block::Index(ptrs) => 1 + 4 + 8 * ptrs.len(),
        })
        .sum();
    8 + 4 + blocks + 4 + v.search_index.wire_size()
}

/// Appends the canonical encoding of `v` to `out`: [`encoded_len`] bytes.
pub fn write_version(v: &Version, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.number.to_be_bytes());
    out.extend_from_slice(&(v.blocks.len() as u32).to_be_bytes());
    for b in &v.blocks {
        match b {
            Block::Data(d) => {
                out.push(0);
                out.extend_from_slice(&(d.len() as u32).to_be_bytes());
                out.extend_from_slice(d);
            }
            Block::Index(ptrs) => {
                out.push(1);
                out.extend_from_slice(&(ptrs.len() as u32).to_be_bytes());
                for p in ptrs {
                    out.extend_from_slice(&(*p as u64).to_be_bytes());
                }
            }
        }
    }
    let idx = v.search_index.to_bytes();
    out.extend_from_slice(&(idx.len() as u32).to_be_bytes());
    out.extend_from_slice(&idx);
}

/// Decodes bytes produced by [`write_version`]; `None` on corruption.
/// Each data block of the result is a view of `bytes`' buffer.
pub fn decode_version(bytes: &Bytes) -> Option<Version> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
        let s = bytes.get(*pos..pos.checked_add(n)?)?;
        *pos += n;
        Some(s)
    };
    let number = u64::from_be_bytes(take(&mut pos, 8)?.try_into().ok()?);
    let nblocks = u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
    if nblocks > 1_000_000 {
        return None;
    }
    let mut blocks = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        match take(&mut pos, 1)?[0] {
            0 => {
                let len = u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
                take(&mut pos, len)?;
                blocks.push(Block::Data(bytes.slice(pos - len..pos)));
            }
            1 => {
                let n = u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
                if n > 1_000_000 {
                    return None;
                }
                let mut ptrs = Vec::with_capacity(n);
                for _ in 0..n {
                    ptrs.push(u64::from_be_bytes(take(&mut pos, 8)?.try_into().ok()?) as usize);
                }
                blocks.push(Block::Index(ptrs));
            }
            _ => return None,
        }
    }
    let idx_len = u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
    let idx = EncryptedIndex::from_bytes(take(&mut pos, idx_len)?)?;
    if pos != bytes.len() {
        return None;
    }
    Some(Version { number, blocks, search_index: Arc::new(idx) })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_version(v: &Version) -> Vec<u8> {
        let mut out = Vec::new();
        write_version(v, &mut out);
        out
    }
    use oceanstore_crypto::swp::SearchKey;

    fn sample() -> Version {
        let key = SearchKey::from_seed(b"k");
        Version {
            number: 7,
            blocks: vec![
                Block::Data(vec![1, 2, 3].into()),
                Block::Index(vec![4, 5]),
                Block::Data(Bytes::default()),
                Block::Index(Vec::new()),
            ],
            search_index: Arc::new(
                key.build_index(b"doc", vec![b"alpha".as_slice(), b"beta".as_slice()]),
            ),
        }
    }

    #[test]
    fn roundtrip() {
        let v = sample();
        let enc = Bytes::from(encode_version(&v));
        let dec = decode_version(&enc).expect("decodes");
        assert_eq!(dec.number, v.number);
        assert_eq!(dec.blocks, v.blocks);
        assert_eq!(*dec.search_index, *v.search_index);
        for block in &dec.blocks {
            if let Block::Data(d) = block {
                assert!(Arc::ptr_eq(d.buffer(), enc.buffer()), "a block copied out of the archive");
            }
        }
    }

    #[test]
    fn encoded_len_is_the_encoding_length() {
        let empty = Version { number: 0, blocks: Vec::new(), search_index: Arc::default() };
        for v in [sample(), empty] {
            assert_eq!(encoded_len(&v), encode_version(&v).len());
        }
    }

    #[test]
    fn truncation_rejected() {
        let enc = Bytes::from(encode_version(&sample()));
        for cut in [0, 5, enc.len() / 2, enc.len() - 1] {
            assert!(decode_version(&enc.slice(0..cut)).is_none(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut enc = encode_version(&sample());
        enc.push(0xFF);
        assert!(decode_version(&enc.into()).is_none());
    }

    #[test]
    fn bad_tag_rejected() {
        let mut enc = encode_version(&sample());
        enc[12] = 9; // first block tag
        assert!(decode_version(&enc.into()).is_none());
    }

    #[test]
    fn empty_version_roundtrips() {
        let v = Version {
            number: 0,
            blocks: Vec::new(),
            search_index: Arc::new(EncryptedIndex::default()),
        };
        let dec = decode_version(&encode_version(&v).into()).unwrap();
        assert_eq!(dec.blocks.len(), 0);
        assert_eq!(dec.number, 0);
    }
}
