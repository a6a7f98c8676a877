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
//! gives one back from surviving shards. [`ObjectCodec::encode_object`]
//! and [`ObjectCodec::decode_object`] do the same over one buffer per
//! shard.

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

/// Splits `data` into exactly `k` equal-length shards, prefixed with the
/// original length (8 bytes little-endian) and zero-padded. Each byte is
/// copied once, straight into its shard.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn split_into_shards(data: &[u8], k: usize) -> Vec<Vec<u8>> {
    let shard_len = shard_len(data.len(), k);
    let prefix = (data.len() as u64).to_le_bytes();
    // What is left to place of the prefix, then of the data.
    let (mut prefix, mut data) = (&prefix[..], data);
    (0..k)
        .map(|_| {
            let mut shard = Vec::with_capacity(shard_len);
            for rest in [&mut prefix, &mut data] {
                let (now, later) = rest.split_at(rest.len().min(shard_len - shard.len()));
                shard.extend_from_slice(now);
                *rest = later;
            }
            shard.resize(shard_len, 0);
            shard
        })
        .collect()
}

/// Reassembles the original bytes from the `k` data shards produced by
/// [`split_into_shards`], copying each byte once.
///
/// # Errors
///
/// [`CodeError::CorruptObject`] if the length prefix is inconsistent with
/// the shard sizes.
pub fn join_shards<T: AsRef<[u8]>>(shards: &[T]) -> Result<Vec<u8>, CodeError> {
    let total: usize = shards.iter().map(|s| s.as_ref().len()).sum();
    let mut prefix = [0u8; 8];
    if total < prefix.len() {
        return Err(CodeError::CorruptObject);
    }
    for (to, from) in prefix.iter_mut().zip(shards.iter().flat_map(|s| s.as_ref())) {
        *to = *from;
    }
    let len = u64::from_le_bytes(prefix) as usize;
    if total - prefix.len() < len {
        return Err(CodeError::CorruptObject);
    }
    let mut out = Vec::with_capacity(len);
    let mut skip = prefix.len();
    for shard in shards {
        let shard = shard.as_ref();
        let from = skip.min(shard.len());
        skip -= from;
        let take = (len - out.len()).min(shard.len() - from);
        out.extend_from_slice(&shard[from..from + take]);
    }
    Ok(out)
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

    /// Encodes an object into `n` fragments: the `k` framed data shards,
    /// then the parity.
    ///
    /// # Errors
    ///
    /// Propagates shard-shape errors from the underlying codec (cannot
    /// occur for input produced by this function's own framing).
    pub fn encode_object(&self, data: &[u8]) -> Result<Vec<Vec<u8>>, CodeError> {
        let mut shards = split_into_shards(data, self.data_shards());
        match self {
            ObjectCodec::Rs(c) => {
                let parity = c.parity(&shards)?;
                shards.extend(parity);
                Ok(shards)
            }
            ObjectCodec::Tornado(c) => c.encode(&shards),
        }
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
    /// As [`ObjectCodec::decode_object`].
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

    /// Decodes an object from surviving fragments (`None` = lost). The
    /// data fragments missing are rebuilt in place; for Reed-Solomon that
    /// is all that is rebuilt, and the fragments present are read where
    /// they are, so they may be views of buffers the caller shares.
    ///
    /// # Errors
    ///
    /// * [`CodeError::NotEnoughShards`] / [`CodeError::DecodingStalled`]
    ///   when the survivors don't suffice;
    /// * [`CodeError::CorruptObject`] if framing fails after reconstruction.
    pub fn decode_object<T>(&self, fragments: &mut [Option<T>]) -> Result<Vec<u8>, CodeError>
    where
        T: AsRef<[u8]> + From<Vec<u8>>,
    {
        match self {
            ObjectCodec::Rs(c) => c.reconstruct(fragments)?,
            ObjectCodec::Tornado(c) => {
                // The peeling decoder works on owned shards.
                let mut owned: Vec<Option<Vec<u8>>> = fragments
                    .iter()
                    .map(|f| f.as_ref().map(|s| s.as_ref().to_vec()))
                    .collect();
                c.reconstruct(&mut owned)?;
                for (slot, shard) in fragments.iter_mut().zip(owned) {
                    if slot.is_none() {
                        *slot = shard.map(T::from);
                    }
                }
            }
        }
        let data: Vec<&[u8]> = fragments[..self.data_shards()]
            .iter()
            .map(|f| f.as_ref().expect("reconstruct fills the data fragments").as_ref())
            .collect();
        join_shards(&data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_join_roundtrip() {
        for len in [0usize, 1, 7, 8, 9, 100, 1000] {
            for k in [1usize, 2, 3, 16] {
                let data: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
                let shards = split_into_shards(&data, k);
                assert_eq!(shards.len(), k);
                let l0 = shards[0].len();
                assert!(shards.iter().all(|s| s.len() == l0));
                assert_eq!(join_shards(&shards).unwrap(), data, "len={len} k={k}");
            }
        }
    }

    #[test]
    fn join_rejects_truncation() {
        let shards = split_into_shards(b"hello world, this is an object", 4);
        assert_eq!(join_shards(&shards[..1]), Err(CodeError::CorruptObject));
    }

    #[test]
    fn join_rejects_bad_length_prefix() {
        let mut shards = split_into_shards(b"abc", 1);
        shards[0][0] = 0xff; // claim a huge length
        assert_eq!(join_shards(&shards), Err(CodeError::CorruptObject));
    }

    #[test]
    fn a_framed_object_is_its_shards_end_to_end() {
        for len in [0usize, 1, 7, 8, 9, 100, 1000] {
            for k in [1usize, 2, 3, 16] {
                let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                let framed = frame(&data, k);
                assert_eq!(framed.len(), k * shard_len(len, k));
                assert_eq!(framed, split_into_shards(&data, k).concat(), "len={len} k={k}");
                assert_eq!(&framed[framed_object(&framed).unwrap()], &data[..]);
            }
        }
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
