//! Object-level fragmentation: bytes ⇄ equal-sized shards.
//!
//! "Erasure coding is a process that treats input data as a series of
//! fragments (say n) and transforms these fragments into a greater number
//! of fragments (say 2n or 4n)" (§4.5). This module handles the framing —
//! length prefix and padding — so the codecs in [`crate::rs`] and
//! [`crate::tornado`] can work on equal-length shards, and exposes a
//! unified [`ObjectCodec`] for the archival layer.
//!
//! A framed object is one buffer: the 8-byte little-endian length, the
//! object, then zero padding to `k` shards of [`shard_len`] bytes. Its `k`
//! equal slices are the data shards. [`ObjectCodec::encode_framed`] takes
//! one and gives the parity in one buffer; [`ObjectCodec::decode_framed`]
//! gives one back from surviving shards. That is the one way an object is
//! encoded and rebuilt: [`ObjectCodec::encode_object`] and
//! [`ObjectCodec::decode_object`] are conveniences over it for a caller
//! that holds the object itself and wants one buffer per fragment.

use std::ops::Range;

use crate::rs::{CodeError, ReedSolomon};
use crate::tornado::Tornado;

/// Length of the prefix that frames an object: its length, 8 bytes
/// little-endian.
const PREFIX: usize = 8;

/// Bytes per shard when an object of `len` bytes is framed into `k`
/// shards: the prefix and the object, rounded up to whole shards of at
/// least one byte.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn shard_len(len: usize, k: usize) -> usize {
    assert!(k > 0, "need at least one shard");
    (PREFIX + len).div_ceil(k).max(1)
}

/// Frames an object of `len` bytes that `write` appends to the buffer it
/// is handed: the prefix, what `write` appends, then zero padding to `k`
/// shards of [`shard_len`] bytes. The buffer is allocated once, at its
/// final size, and each byte is written once.
///
/// # Panics
///
/// Panics if `k == 0`, or if `write` appends other than `len` bytes.
pub fn framed(len: usize, k: usize, write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let total = k * shard_len(len, k);
    let mut buf = Vec::with_capacity(total);
    buf.extend_from_slice(&(len as u64).to_le_bytes());
    write(&mut buf);
    assert_eq!(buf.len(), PREFIX + len, "the object is the length it was framed for");
    buf.resize(total, 0);
    buf
}

/// `data` framed into `k` shards ([`framed`]).
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn frame(data: &[u8], k: usize) -> Vec<u8> {
    framed(data.len(), k, |buf| buf.extend_from_slice(data))
}

/// Where the object sits in a framed buffer: after the prefix, as long as
/// the prefix says.
///
/// # Errors
///
/// [`CodeError::CorruptObject`] if the buffer is shorter than the prefix
/// or than the object it names.
fn framed_object(framed: &[u8]) -> Result<Range<usize>, CodeError> {
    let prefix = framed.get(..PREFIX).ok_or(CodeError::CorruptObject)?;
    let len = u64::from_le_bytes(prefix.try_into().expect("8 bytes"));
    match usize::try_from(len) {
        Ok(len) if len <= framed.len() - PREFIX => Ok(PREFIX..PREFIX + len),
        _ => Err(CodeError::CorruptObject),
    }
}

/// Which erasure code an archival object uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeKind {
    /// Systematic Reed-Solomon: any `k` of `n` fragments suffice.
    ReedSolomon,
    /// Tornado-style peeling code: fast XOR, needs slightly more than `k`.
    Tornado,
}

/// A whole-object erasure codec: `encode` bytes to `n` fragments,
/// `decode` any sufficient subset back to bytes.
#[derive(Debug, Clone)]
pub enum ObjectCodec {
    /// Reed-Solomon-backed codec.
    Rs(ReedSolomon),
    /// Tornado-backed codec.
    Tornado(Tornado),
}

impl ObjectCodec {
    /// Creates a codec of the requested kind. The `seed` only matters for
    /// [`CodeKind::Tornado`] (it fixes the check graph).
    ///
    /// # Errors
    ///
    /// Propagates parameter validation from the underlying codec.
    pub fn new(kind: CodeKind, k: usize, n: usize, seed: u64) -> Result<Self, CodeError> {
        Ok(match kind {
            CodeKind::ReedSolomon => ObjectCodec::Rs(ReedSolomon::new(k, n)?),
            CodeKind::Tornado => ObjectCodec::Tornado(Tornado::new(k, n, seed)?),
        })
    }

    /// Data fragment count `k`.
    pub fn data_shards(&self) -> usize {
        match self {
            ObjectCodec::Rs(c) => c.data_shards(),
            ObjectCodec::Tornado(c) => c.data_shards(),
        }
    }

    /// Total fragment count `n`.
    pub fn total_shards(&self) -> usize {
        match self {
            ObjectCodec::Rs(c) => c.total_shards(),
            ObjectCodec::Tornado(c) => c.total_shards(),
        }
    }

    /// Encodes an object into `n` fragments, one buffer each: the `k`
    /// shards of the framed object ([`frame`]), then the parity
    /// ([`ObjectCodec::encode_framed`]).
    ///
    /// # Errors
    ///
    /// Propagates shard-shape errors from the underlying codec (cannot
    /// occur for input produced by this function's own framing).
    pub fn encode_object(&self, data: &[u8]) -> Result<Vec<Vec<u8>>, CodeError> {
        let framed = frame(data, self.data_shards());
        let parity = self.encode_framed(&framed)?;
        let len = framed.len() / self.data_shards();
        Ok(framed.chunks_exact(len).chain(parity.chunks_exact(len)).map(<[u8]>::to_vec).collect())
    }

    /// The `n - k` parity fragments of a framed object ([`framed`]), laid
    /// end to end in one buffer: fragment `k + i` is its `i`-th
    /// `framed.len() / k` bytes, and fragment `i < k` is the framed
    /// object's.
    ///
    /// # Errors
    ///
    /// [`CodeError::ShardSizeMismatch`] unless `framed` is `k` shards of
    /// one or more bytes.
    pub fn encode_framed(&self, framed: &[u8]) -> Result<Vec<u8>, CodeError> {
        match self {
            ObjectCodec::Rs(c) => c.parity_joined(framed),
            ObjectCodec::Tornado(c) => {
                let k = c.data_shards();
                if framed.is_empty() || !framed.len().is_multiple_of(k) {
                    return Err(CodeError::ShardSizeMismatch);
                }
                let shards: Vec<&[u8]> = framed.chunks_exact(framed.len() / k).collect();
                Ok(c.encode(&shards)?[k..].concat())
            }
        }
    }

    /// The framed object ([`framed`]) back from surviving fragments
    /// (`None` = lost), and where the object sits in it: the `k` data
    /// fragments end to end in one buffer. For Reed-Solomon those present
    /// are copied in and the missing rebuilt in place, from survivors read
    /// where they are.
    ///
    /// # Errors
    ///
    /// * [`CodeError::NotEnoughShards`] / [`CodeError::DecodingStalled`]
    ///   when the survivors don't suffice;
    /// * [`CodeError::ShardSizeMismatch`] for a wrong fragment count or
    ///   fragments of unequal lengths;
    /// * [`CodeError::CorruptObject`] if framing fails after reconstruction.
    pub fn decode_framed<T: AsRef<[u8]>>(
        &self,
        fragments: &[Option<T>],
    ) -> Result<(Vec<u8>, Range<usize>), CodeError> {
        let joined = match self {
            ObjectCodec::Rs(c) => c.reconstruct_joined(fragments)?,
            ObjectCodec::Tornado(c) => {
                // The peeling decoder works on owned shards.
                let mut owned: Vec<Option<Vec<u8>>> =
                    fragments.iter().map(|f| f.as_ref().map(|s| s.as_ref().to_vec())).collect();
                c.reconstruct(&mut owned)?;
                owned.into_iter().take(c.data_shards()).flatten().collect::<Vec<_>>().concat()
            }
        };
        let object = framed_object(&joined)?;
        Ok((joined, object))
    }

    /// Decodes an object from surviving fragments (`None` = lost): the
    /// object's range of [`ObjectCodec::decode_framed`]. The fragments are
    /// only read, so they may be views of buffers the caller shares; the
    /// slice is `&mut` so that callers holding their fragments mutably
    /// keep passing them as they do.
    ///
    /// # Errors
    ///
    /// As [`ObjectCodec::decode_framed`].
    pub fn decode_object<T: AsRef<[u8]>>(
        &self,
        fragments: &mut [Option<T>],
    ) -> Result<Vec<u8>, CodeError> {
        let (mut joined, object) = self.decode_framed(fragments)?;
        joined.truncate(object.end);
        joined.drain(..object.start);
        Ok(joined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A framed object is the 8-byte little-endian length, the object
    /// and zero padding, `k` equal shards in all, and the object is where
    /// the prefix says.
    #[test]
    fn a_framed_object_is_prefix_object_padding() {
        for len in [0usize, 1, 7, 8, 9, 100, 1000] {
            for k in [1usize, 2, 3, 16] {
                let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                let framed = frame(&data, k);
                assert_eq!(framed.len(), k * shard_len(len, k), "len={len} k={k}");
                assert_eq!(framed[..8], (len as u64).to_le_bytes());
                assert_eq!(framed[8..8 + len], data[..]);
                assert!(framed[8 + len..].iter().all(|&b| b == 0), "len={len} k={k}");
                assert_eq!(&framed[framed_object(&framed).unwrap()], &data[..]);
            }
        }
    }

    #[test]
    fn framed_object_rejects_truncation() {
        let framed = frame(b"hello world, this is an object", 4);
        let shard = framed.len() / 4;
        assert_eq!(framed_object(&framed[..shard]), Err(CodeError::CorruptObject));
    }

    #[test]
    fn framed_object_rejects_bad_prefixes() {
        assert_eq!(framed_object(&[0; 7]), Err(CodeError::CorruptObject));
        let mut framed = frame(b"abc", 2);
        framed[0] = 0xff; // claim a longer object than the buffer holds
        assert_eq!(framed_object(&framed), Err(CodeError::CorruptObject));
        framed[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(framed_object(&framed), Err(CodeError::CorruptObject));
    }

    #[test]
    #[should_panic(expected = "the length it was framed for")]
    fn framed_holds_the_writer_to_its_length() {
        framed(4, 2, |buf| buf.extend_from_slice(b"abc"));
    }

    #[test]
    fn rs_object_roundtrip_with_losses() {
        let codec = ObjectCodec::new(CodeKind::ReedSolomon, 8, 16, 0).unwrap();
        let data: Vec<u8> = (0..5000u32).map(|i| (i * 13 % 256) as u8).collect();
        let frags = codec.encode_object(&data).unwrap();
        assert_eq!(frags.len(), 16);
        let mut have: Vec<Option<Vec<u8>>> = frags.into_iter().map(Some).collect();
        // Lose any 8 (here: every even index).
        for i in (0..16).step_by(2) {
            have[i] = None;
        }
        assert_eq!(codec.decode_object(&mut have).unwrap(), data);
    }

    #[test]
    fn tornado_object_roundtrip() {
        let codec = ObjectCodec::new(CodeKind::Tornado, 8, 24, 9).unwrap();
        let data = vec![0xabu8; 3000];
        let frags = codec.encode_object(&data).unwrap();
        let mut have: Vec<Option<Vec<u8>>> = frags.into_iter().map(Some).collect();
        have[1] = None;
        have[6] = None;
        assert_eq!(codec.decode_object(&mut have).unwrap(), data);
    }

    #[test]
    fn empty_object_roundtrip() {
        let codec = ObjectCodec::new(CodeKind::ReedSolomon, 4, 8, 0).unwrap();
        let frags = codec.encode_object(b"").unwrap();
        let mut have: Vec<Option<Vec<u8>>> = frags.into_iter().map(Some).collect();
        have[0] = None;
        assert_eq!(codec.decode_object(&mut have).unwrap(), Vec::<u8>::new());
    }
}
