//! Systematic Reed-Solomon erasure code (§4.5, "interleaved Read-Solomon
//! codes \[39\]").
//!
//! Encoding treats an object as `k` data shards and produces `n - k` parity
//! shards; *any* `k` of the `n` shards reconstruct the original — the
//! "essential property" the paper's deep-archival argument rests on.
//!
//! The encoding matrix is a Vandermonde matrix normalized so its top `k`
//! rows are the identity (systematic: data shards appear verbatim among the
//! fragments, which makes the common no-loss read path a straight copy).
//!
//! The code works on one buffer each way: the `k` data shards laid end to
//! end (a framed object, [`crate::object::framed`]) in, the `n - k` parity
//! shards end to end out; surviving shards in, the data shards end to end
//! out. [`crate::object::ObjectCodec`] is the way in from outside the
//! crate. [`ReedSolomon::encode_ref`] and [`ReedSolomon::reconstruct_ref`]
//! are the byte-at-a-time oracles the tests hold that path to.

use std::fmt;

use crate::gf256::{dot_on, Kernel};
use crate::matrix::Matrix;

/// Errors from erasure encode/decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeError {
    /// The `(k, n)` parameters are unusable.
    InvalidParams {
        /// Data shard count requested.
        k: usize,
        /// Total shard count requested.
        n: usize,
        /// Why the combination is rejected.
        reason: &'static str,
    },
    /// Shards passed to encode/decode had inconsistent lengths.
    ShardSizeMismatch,
    /// Fewer than `k` shards survive.
    NotEnoughShards {
        /// Shards available.
        have: usize,
        /// Shards required (`k`).
        need: usize,
    },
    /// A peeling decoder (Tornado) had enough fragments in principle but
    /// stalled on this particular subset; fetch more fragments and retry.
    DecodingStalled,
    /// Object-level framing was corrupt (bad length prefix).
    CorruptObject,
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::InvalidParams { k, n, reason } => {
                write!(f, "invalid erasure parameters k={k}, n={n}: {reason}")
            }
            CodeError::ShardSizeMismatch => write!(f, "shards have inconsistent lengths"),
            CodeError::NotEnoughShards { have, need } => {
                write!(f, "only {have} shards available, need {need}")
            }
            CodeError::DecodingStalled => {
                write!(f, "peeling decoder stalled; more fragments are needed")
            }
            CodeError::CorruptObject => write!(f, "object framing is corrupt"),
        }
    }
}

impl std::error::Error for CodeError {}

/// A `(k, n)` systematic Reed-Solomon codec: `k` data shards, `n` total.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    k: usize,
    n: usize,
    /// `n × k` encoding matrix; top `k` rows are the identity.
    enc: Matrix,
}

impl ReedSolomon {
    /// Creates a codec.
    ///
    /// # Errors
    ///
    /// Rejects `k == 0`, `n <= k`, and `n > 256` (GF(256) limit).
    pub fn new(k: usize, n: usize) -> Result<Self, CodeError> {
        if k == 0 {
            return Err(CodeError::InvalidParams { k, n, reason: "k must be positive" });
        }
        if n <= k {
            return Err(CodeError::InvalidParams { k, n, reason: "n must exceed k" });
        }
        if n > 256 {
            return Err(CodeError::InvalidParams { k, n, reason: "n must be at most 256" });
        }
        let v = Matrix::vandermonde(n, k);
        let top = v.select_rows(&(0..k).collect::<Vec<_>>());
        let top_inv = top.inverse().expect("Vandermonde top block is invertible");
        let enc = v.mul(&top_inv);
        Ok(ReedSolomon { k, n, enc })
    }

    /// Data shard count.
    pub fn data_shards(&self) -> usize {
        self.k
    }

    /// Total shard count.
    pub fn total_shards(&self) -> usize {
        self.n
    }

    /// The `n - k` parity shards of the `k` equal data shards laid end to
    /// end in `data`, laid end to end in one buffer: a framed object
    /// ([`crate::object::framed`]) in, its parity out, and no shard copied
    /// on either side.
    ///
    /// # Errors
    ///
    /// [`CodeError::ShardSizeMismatch`] unless `data` is `k` shards of
    /// one or more bytes.
    pub(crate) fn parity_joined(&self, data: &[u8]) -> Result<Vec<u8>, CodeError> {
        if data.is_empty() || !data.len().is_multiple_of(self.k) {
            return Err(CodeError::ShardSizeMismatch);
        }
        let len = data.len() / self.k;
        let mut parity = vec![0u8; (self.n - self.k) * len];
        let mut outs: Vec<&mut [u8]> = parity.chunks_exact_mut(len).collect();
        self.parity_on(Kernel::best(), &data.chunks_exact(len).collect::<Vec<_>>(), &mut outs);
        Ok(parity)
    }

    /// Writes the parity of `data` into `outs` on `kernel`: the code
    /// matrix's parity rows times the data shards.
    fn parity_on(&self, kernel: Kernel, data: &[&[u8]], outs: &mut [&mut [u8]]) {
        let coeffs: Vec<u8> = (self.k..self.n).flat_map(|r| self.enc.row(r)).copied().collect();
        dot_on(kernel, outs, &coeffs, data, false);
    }

    /// The plain encode: zero-filled parity rows accumulated one
    /// `mul_acc_slice_ref` column at a time. The oracle tests pin the fast
    /// path's output against; not part of the public contract.
    #[doc(hidden)]
    pub fn encode_ref<T: AsRef<[u8]>>(&self, data: &[T]) -> Result<Vec<Vec<u8>>, CodeError> {
        if data.len() != self.k {
            return Err(CodeError::ShardSizeMismatch);
        }
        let len = data[0].as_ref().len();
        if data.iter().any(|s| s.as_ref().len() != len) {
            return Err(CodeError::ShardSizeMismatch);
        }
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(self.n);
        for r in 0..self.n {
            if r < self.k {
                out.push(data[r].as_ref().to_vec());
                continue;
            }
            let mut shard = vec![0u8; len];
            for (c, d) in data.iter().enumerate() {
                crate::gf256::mul_acc_slice_ref(&mut shard, d.as_ref(), self.enc.get(r, c));
            }
            out.push(shard);
        }
        Ok(out)
    }

    /// The `k` data shards laid end to end in one buffer: those present
    /// copied in, the missing rebuilt in place from the survivors, which
    /// are read where they are. For a framed object
    /// ([`crate::object::framed`]) that buffer is the framed object.
    /// Parity is only read: a lost parity shard stays lost (re-derive it
    /// from the data with [`ReedSolomon::parity_joined`]).
    ///
    /// # Errors
    ///
    /// As [`ReedSolomon::shard_len`].
    pub(crate) fn reconstruct_joined<T: AsRef<[u8]>>(
        &self,
        shards: &[Option<T>],
    ) -> Result<Vec<u8>, CodeError> {
        self.reconstruct_joined_on(Kernel::best(), shards)
    }

    fn reconstruct_joined_on<T: AsRef<[u8]>>(
        &self,
        kernel: Kernel,
        shards: &[Option<T>],
    ) -> Result<Vec<u8>, CodeError> {
        let len = self.shard_len(shards)?;
        let mut joined = vec![0u8; self.k * len];
        if len == 0 {
            return Ok(joined);
        }
        let mut lost = Vec::new();
        let mut outs = Vec::new();
        for (i, row) in joined.chunks_exact_mut(len).enumerate() {
            match &shards[i] {
                Some(shard) => row.copy_from_slice(shard.as_ref()),
                None => {
                    lost.push(i);
                    outs.push(row);
                }
            }
        }
        if !lost.is_empty() {
            self.rebuild_on(kernel, shards, &lost, &mut outs);
        }
        Ok(joined)
    }

    /// The length every surviving shard shares; `shards[i]` is `Some` if
    /// shard `i` survives.
    ///
    /// # Errors
    ///
    /// [`CodeError::NotEnoughShards`] with fewer than `k` survivors;
    /// [`CodeError::ShardSizeMismatch`] for inconsistent lengths or a wrong
    /// slice length.
    fn shard_len<T: AsRef<[u8]>>(&self, shards: &[Option<T>]) -> Result<usize, CodeError> {
        if shards.len() != self.n {
            return Err(CodeError::ShardSizeMismatch);
        }
        let mut present = shards.iter().flatten().map(AsRef::as_ref);
        let have = present.clone().count();
        if have < self.k {
            return Err(CodeError::NotEnoughShards { have, need: self.k });
        }
        let len = present.next().expect("k ≥ 1 survivors").len();
        if present.any(|s| s.len() != len) {
            return Err(CodeError::ShardSizeMismatch);
        }
        Ok(len)
    }

    /// Writes data shards `lost` into `outs` on `kernel`, from the first
    /// `k` shards present (the data shards present come first): the rows
    /// `lost` of the inverse of the code matrix's rows for those shards,
    /// times the shards.
    fn rebuild_on<T: AsRef<[u8]>>(
        &self,
        kernel: Kernel,
        shards: &[Option<T>],
        lost: &[usize],
        outs: &mut [&mut [u8]],
    ) {
        let use_rows: Vec<usize> =
            (0..self.n).filter(|&i| shards[i].is_some()).take(self.k).collect();
        let dec = self
            .enc
            .select_rows(&use_rows)
            .inverse()
            .expect("any k rows of the RS matrix are invertible");
        let survivors: Vec<&[u8]> =
            use_rows.iter().map(|&i| shards[i].as_ref().expect("present").as_ref()).collect();
        let coeffs: Vec<u8> = lost.iter().flat_map(|&c| dec.row(c)).copied().collect();
        dot_on(kernel, outs, &coeffs, &survivors, false);
    }

    /// The plain reconstruct (zero-filled destination rows, one
    /// `mul_acc_slice_ref` source at a time), which rebuilds every lost
    /// shard, parity too. A test oracle for
    /// [`ReedSolomon::reconstruct_joined`]; not part of the public contract.
    #[doc(hidden)]
    pub fn reconstruct_ref(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), CodeError> {
        if shards.len() != self.n {
            return Err(CodeError::ShardSizeMismatch);
        }
        let present: Vec<usize> = (0..self.n).filter(|&i| shards[i].is_some()).collect();
        if present.len() < self.k {
            return Err(CodeError::NotEnoughShards { have: present.len(), need: self.k });
        }
        let len = shards[present[0]].as_ref().expect("present").len();
        if present.iter().any(|&i| shards[i].as_ref().expect("present").len() != len) {
            return Err(CodeError::ShardSizeMismatch);
        }
        if present.len() == self.n {
            return Ok(());
        }
        let use_rows = &present[..self.k];
        let sub = self.enc.select_rows(use_rows);
        let dec = sub.inverse().expect("any k rows of the RS matrix are invertible");
        let mut data: Vec<Vec<u8>> = Vec::with_capacity(self.k);
        for c in 0..self.k {
            let mut d = vec![0u8; len];
            for (j, &row) in use_rows.iter().enumerate() {
                let shard = shards[row].as_ref().expect("present");
                crate::gf256::mul_acc_slice_ref(&mut d, shard, dec.get(c, j));
            }
            data.push(d);
        }
        for i in 0..self.n {
            if shards[i].is_none() {
                if i < self.k {
                    shards[i] = Some(data[i].clone());
                } else {
                    let mut s = vec![0u8; len];
                    for (c, d) in data.iter().enumerate() {
                        crate::gf256::mul_acc_slice_ref(&mut s, d, self.enc.get(i, c));
                    }
                    shards[i] = Some(s);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shards(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|j| ((i * 131 + j * 7) % 256) as u8).collect())
            .collect()
    }

    /// Every shard of `data` coded by the oracle, `lost` ones `None`.
    fn survivors(rs: &ReedSolomon, data: &[Vec<u8>], lost: &[usize]) -> Vec<Option<Vec<u8>>> {
        let coded = rs.encode_ref(data).unwrap();
        coded.into_iter().enumerate().map(|(i, s)| (!lost.contains(&i)).then_some(s)).collect()
    }

    #[test]
    fn encode_is_systematic() {
        // The oracle's first k shards are the data; the joined parity is
        // the rest.
        let rs = ReedSolomon::new(4, 8).unwrap();
        let data = shards(4, 64);
        let coded = rs.encode_ref(&data).unwrap();
        assert_eq!(coded.len(), 8);
        assert_eq!(&coded[..4], &data[..]);
        assert_eq!(rs.parity_joined(&data.concat()).unwrap(), coded[4..].concat());
    }

    #[test]
    fn any_k_of_n_reconstructs() {
        // The paper's essential property, exhaustively for (3, 6):
        // all C(6,3)=20 erasure patterns of 3 losses.
        let rs = ReedSolomon::new(3, 6).unwrap();
        let data = shards(3, 40);
        let parity = rs.parity_joined(&data.concat()).unwrap();
        for a in 0..6 {
            for b in (a + 1)..6 {
                for c in (b + 1)..6 {
                    let have = survivors(&rs, &data, &[a, b, c]);
                    let before = have.clone();
                    let joined = rs.reconstruct_joined(&have).unwrap();
                    assert_eq!(joined, data.concat(), "lost {a},{b},{c}");
                    // The parity re-derived from the rebuilt data is the
                    // original parity; the survivors are only read, so a
                    // lost parity slot stays empty.
                    assert_eq!(rs.parity_joined(&joined).unwrap(), parity, "lost {a},{b},{c}");
                    assert_eq!(have, before, "lost {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn fast_encode_matches_reference_path() {
        // The dot-product encode must be bit-identical to the
        // column-at-a-time reference, including on word-unaligned shard
        // lengths that exercise the tails and lengths under one register.
        // A framed object is never empty, so the empty shards are refused.
        for (k, n) in [(1, 2), (2, 4), (3, 6), (8, 16), (16, 32)] {
            for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 611] {
                let rs = ReedSolomon::new(k, n).unwrap();
                let data = shards(k, len);
                let parity = rs.parity_joined(&data.concat());
                if len == 0 {
                    assert_eq!(parity, Err(CodeError::ShardSizeMismatch));
                    continue;
                }
                let coded = rs.encode_ref(&data).unwrap();
                assert_eq!(parity.unwrap(), coded[k..].concat(), "k={k} n={n} len={len}");
            }
        }
    }

    #[test]
    fn fast_reconstruct_matches_reference_path() {
        // Mixed data + parity losses, word-unaligned length.
        let rs = ReedSolomon::new(4, 8).unwrap();
        let data = shards(4, 611);
        let fast = survivors(&rs, &data, &[0, 2, 5, 7]);
        let mut slow = fast.clone();
        let joined = rs.reconstruct_joined(&fast).unwrap();
        rs.reconstruct_ref(&mut slow).unwrap();
        let slow: Vec<Vec<u8>> = slow.into_iter().map(|s| s.expect("all rebuilt")).collect();
        assert_eq!(joined, slow[..4].concat());
        // The reference rebuilds parity too: re-derive it from the fast
        // path's data and compare.
        assert_eq!(rs.parity_joined(&joined).unwrap(), slow[4..].concat());
        assert_eq!((fast[5].is_none(), fast[7].is_none()), (true, true), "lost parity stays lost");
    }

    /// Every kernel this CPU runs, held to the byte-at-a-time oracles:
    /// `mul_acc_slice_ref` over all 256 coefficients, `encode_ref` and
    /// `reconstruct_ref` at four shapes, at lengths 0–200 (every tail past
    /// a 32- and a 64-byte register) and 65 544 (a `bulk_archive` shard).
    /// Prints which kernels ran, so a machine without GFNI shows.
    #[test]
    fn kernels_agree() {
        let kernels = Kernel::available();
        eprintln!("kernels_agree: {kernels:?}");
        let lengths: Vec<usize> = (0..=200).chain([65_544]).collect();
        let bytes = |len: usize, salt: usize| -> Vec<u8> {
            (0..len).map(|i| ((i * 167 + salt * 89) >> 3 ^ i >> 8) as u8).collect()
        };
        let src = bytes(65_544, 1);
        let init = bytes(65_544, 2);
        for c in 0..=255u8 {
            for &len in &lengths {
                let mut expect = init[..len].to_vec();
                crate::gf256::mul_acc_slice_ref(&mut expect, &src[..len], c);
                for &kernel in &kernels {
                    let mut got = init[..len].to_vec();
                    dot_on(kernel, &mut [&mut got], &[c], &[&src[..len]], true);
                    assert!(got == expect, "{kernel:?} mul_acc c={c} len={len}");
                }
            }
        }
        for (k, n) in [(1, 2), (3, 6), (16, 32), (8, 255)] {
            let rs = ReedSolomon::new(k, n).unwrap();
            // (8, 255) at 65 544 bytes would be 130 M reference multiplies,
            // 8 s of a debug build; its 247 rows tile the same at any length.
            let lengths = if n == 255 { &lengths[..201] } else { &lengths[..] };
            for &len in lengths {
                let data: Vec<Vec<u8>> = (0..k).map(|i| bytes(len, i)).collect();
                let coded = rs.encode_ref(&data).unwrap();
                // Lose the first min(k, n − k) shards, all of them data
                // shards, so every rebuilt row reads parity.
                let mut have: Vec<Option<Vec<u8>>> = coded.iter().cloned().map(Some).collect();
                have[..k.min(n - k)].fill(None);
                let mut oracle = have.clone();
                rs.reconstruct_ref(&mut oracle).unwrap();
                let rows: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
                let expect: Vec<u8> = oracle[..k].iter().flatten().flatten().copied().collect();
                for &kernel in &kernels {
                    let mut parity: Vec<Vec<u8>> = (k..n).map(|_| vec![0xa5; len]).collect();
                    let mut outs: Vec<&mut [u8]> =
                        parity.iter_mut().map(Vec::as_mut_slice).collect();
                    rs.parity_on(kernel, &rows, &mut outs);
                    assert!(parity == coded[k..], "{kernel:?} encode ({k}, {n}) len={len}");
                    let joined = rs.reconstruct_joined_on(kernel, &have).unwrap();
                    assert!(joined == expect, "{kernel:?} reconstruct ({k}, {n}) len={len}");
                }
            }
        }
    }

    #[test]
    fn too_few_shards_fails() {
        let rs = ReedSolomon::new(4, 8).unwrap();
        let have = survivors(&rs, &shards(4, 16), &[0, 1, 2, 3, 4]);
        assert_eq!(
            rs.reconstruct_joined(&have),
            Err(CodeError::NotEnoughShards { have: 3, need: 4 })
        );
    }

    #[test]
    fn rate_half_paper_configs() {
        // The paper's example encodings: rate-1/2 into 16 and 32 fragments.
        for (k, n) in [(8, 16), (16, 32)] {
            let rs = ReedSolomon::new(k, n).unwrap();
            let data = shards(k, 128);
            // Lose the entire first half (all data shards).
            let lost: Vec<usize> = (0..k).collect();
            let have = survivors(&rs, &data, &lost);
            assert_eq!(rs.reconstruct_joined(&have).unwrap(), data.concat());
        }
    }

    #[test]
    fn no_loss_is_a_copy() {
        let rs = ReedSolomon::new(2, 4).unwrap();
        let data = shards(2, 8);
        assert_eq!(rs.reconstruct_joined(&survivors(&rs, &data, &[])).unwrap(), data.concat());
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(ReedSolomon::new(0, 4).is_err());
        assert!(ReedSolomon::new(4, 4).is_err());
        assert!(ReedSolomon::new(4, 3).is_err());
        assert!(ReedSolomon::new(128, 257).is_err());
        assert!(ReedSolomon::new(128, 256).is_ok());
    }

    #[test]
    fn mismatched_shard_lengths_rejected() {
        let rs = ReedSolomon::new(2, 4).unwrap();
        // 17 bytes are no 2 equal shards.
        assert_eq!(rs.parity_joined(&[0u8; 17]), Err(CodeError::ShardSizeMismatch));
        let mut have = survivors(&rs, &shards(2, 8), &[0]);
        have[1].as_mut().expect("kept").push(0);
        assert_eq!(rs.reconstruct_joined(&have), Err(CodeError::ShardSizeMismatch));
    }

    #[test]
    fn wrong_shard_count_rejected() {
        let rs = ReedSolomon::new(3, 5).unwrap();
        assert_eq!(rs.parity_joined(&shards(2, 8).concat()), Err(CodeError::ShardSizeMismatch));
        let wrong = vec![Some(vec![0u8; 4]); 4];
        assert_eq!(rs.reconstruct_joined(&wrong), Err(CodeError::ShardSizeMismatch));
    }

    #[test]
    fn empty_shards_roundtrip() {
        let rs = ReedSolomon::new(2, 4).unwrap();
        assert_eq!(rs.parity_joined(&[]), Err(CodeError::ShardSizeMismatch));
        let have = vec![None, Some(Vec::new()), None, Some(Vec::new())];
        assert_eq!(rs.reconstruct_joined(&have).unwrap(), Vec::<u8>::new());
    }
}
