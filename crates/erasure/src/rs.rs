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

use std::fmt;

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

    /// Encodes `k` equal-length data shards into `n` shards (the first `k`
    /// are the data shards themselves).
    ///
    /// # Errors
    ///
    /// [`CodeError::ShardSizeMismatch`] if the input shard count or lengths
    /// are inconsistent.
    pub fn encode<T: AsRef<[u8]>>(&self, data: &[T]) -> Result<Vec<Vec<u8>>, CodeError> {
        if data.len() != self.k {
            return Err(CodeError::ShardSizeMismatch);
        }
        let cols: Vec<&[u8]> = data.iter().map(|s| s.as_ref()).collect();
        let len = cols[0].len();
        if cols.iter().any(|s| s.len() != len) {
            return Err(CodeError::ShardSizeMismatch);
        }
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(self.n);
        for col in &cols {
            out.push(col.to_vec());
        }
        let parity_coeffs: Vec<Vec<u8>> = (self.k..self.n)
            .map(|r| (0..self.k).map(|c| self.enc.get(r, c)).collect())
            .collect();
        out.extend(Self::parity_rows(&cols, &parity_coeffs, len));
        Ok(out)
    }

    /// Computes parity rows: `row[r][i] = Σ_c coeffs[r][c] · cols[c][i]`.
    ///
    /// Each row starts at zero and every column accumulates into all rows
    /// in one pass through [`crate::gf256::mul_acc_multi`].
    fn parity_rows(cols: &[&[u8]], coeffs: &[Vec<u8>], len: usize) -> Vec<Vec<u8>> {
        let mut rows = vec![vec![0u8; len]; coeffs.len()];
        for (c, col) in cols.iter().enumerate() {
            let mut fused: Vec<(&mut [u8], u8)> = rows
                .iter_mut()
                .zip(coeffs)
                .map(|(row, cs)| (row.as_mut_slice(), cs[c]))
                .collect();
            crate::gf256::mul_acc_multi(&mut fused, col);
        }
        rows
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

    /// Reconstructs every missing shard in place. `shards[i]` is `Some` if
    /// shard `i` survives. On success all `n` entries are `Some`.
    ///
    /// # Errors
    ///
    /// [`CodeError::NotEnoughShards`] with fewer than `k` survivors;
    /// [`CodeError::ShardSizeMismatch`] for inconsistent lengths or a wrong
    /// slice length.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), CodeError> {
        if shards.len() != self.n {
            return Err(CodeError::ShardSizeMismatch);
        }
        let present: Vec<usize> =
            (0..self.n).filter(|&i| shards[i].is_some()).collect();
        if present.len() < self.k {
            return Err(CodeError::NotEnoughShards { have: present.len(), need: self.k });
        }
        let len = shards[present[0]].as_ref().expect("present").len();
        if present.iter().any(|&i| shards[i].as_ref().expect("present").len() != len) {
            return Err(CodeError::ShardSizeMismatch);
        }
        if present.len() == self.n {
            return Ok(()); // nothing missing
        }
        // Use the first k surviving shards to recover the data shards.
        let use_rows = &present[..self.k];
        let sub = self.enc.select_rows(use_rows);
        let dec = sub.inverse().expect("any k rows of the RS matrix are invertible");
        // data[c] = sum_j dec[c][j] * shards[use_rows[j]], computed source-major:
        // each surviving shard streams through all k output rows in one pass.
        let survivors: Vec<&[u8]> = use_rows
            .iter()
            .map(|&row| shards[row].as_ref().expect("present").as_slice())
            .collect();
        let dec_coeffs: Vec<Vec<u8>> = (0..self.k)
            .map(|c| (0..self.k).map(|j| dec.get(c, j)).collect())
            .collect();
        let data = Self::parity_rows(&survivors, &dec_coeffs, len);
        // Re-derive every missing shard from the recovered data.
        let missing: Vec<usize> = (self.k..self.n).filter(|&i| shards[i].is_none()).collect();
        if !missing.is_empty() {
            let cols: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let coeffs: Vec<Vec<u8>> = missing
                .iter()
                .map(|&i| (0..self.k).map(|c| self.enc.get(i, c)).collect())
                .collect();
            let rebuilt = Self::parity_rows(&cols, &coeffs, len);
            for (&i, s) in missing.iter().zip(rebuilt) {
                shards[i] = Some(s);
            }
        }
        for (i, d) in data.into_iter().enumerate() {
            if shards[i].is_none() {
                shards[i] = Some(d);
            }
        }
        Ok(())
    }

    /// The plain reconstruct (zero-filled destination rows, one
    /// `mul_acc_slice_ref` source at a time). A test oracle for
    /// [`ReedSolomon::reconstruct`]; not part of the public contract.
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

    #[test]
    fn encode_is_systematic() {
        let rs = ReedSolomon::new(4, 8).unwrap();
        let data = shards(4, 64);
        let coded = rs.encode(&data).unwrap();
        assert_eq!(coded.len(), 8);
        assert_eq!(&coded[..4], &data[..]);
    }

    #[test]
    fn any_k_of_n_reconstructs() {
        // The paper's essential property, exhaustively for (3, 6):
        // all C(6,3)=20 erasure patterns of 3 losses.
        let rs = ReedSolomon::new(3, 6).unwrap();
        let data = shards(3, 40);
        let coded = rs.encode(&data).unwrap();
        for a in 0..6 {
            for b in (a + 1)..6 {
                for c in (b + 1)..6 {
                    let mut have: Vec<Option<Vec<u8>>> =
                        coded.iter().cloned().map(Some).collect();
                    have[a] = None;
                    have[b] = None;
                    have[c] = None;
                    rs.reconstruct(&mut have).unwrap();
                    for (i, s) in have.iter().enumerate() {
                        assert_eq!(s.as_ref().unwrap(), &coded[i], "lost {a},{b},{c} shard {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn fast_encode_matches_reference_path() {
        // The fused-kernel encode (mul_acc_multi per column into every
        // row) must be bit-identical to the column-at-a-time reference,
        // including on word-unaligned shard lengths that exercise the
        // nibble-table tails and lengths under the 32-byte SIMD block.
        for (k, n) in [(1, 2), (2, 4), (3, 6), (8, 16), (16, 32)] {
            for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 611] {
                let rs = ReedSolomon::new(k, n).unwrap();
                let data = shards(k, len);
                assert_eq!(
                    rs.encode(&data).unwrap(),
                    rs.encode_ref(&data).unwrap(),
                    "k={k} n={n} len={len}"
                );
            }
        }
    }

    #[test]
    fn fast_reconstruct_matches_reference_path() {
        // Mixed data + parity losses, word-unaligned length.
        let rs = ReedSolomon::new(4, 8).unwrap();
        let coded = rs.encode(&shards(4, 611)).unwrap();
        let mut fast: Vec<Option<Vec<u8>>> = coded.iter().cloned().map(Some).collect();
        for i in [0, 2, 5, 7] {
            fast[i] = None;
        }
        let mut slow = fast.clone();
        rs.reconstruct(&mut fast).unwrap();
        rs.reconstruct_ref(&mut slow).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn too_few_shards_fails() {
        let rs = ReedSolomon::new(4, 8).unwrap();
        let coded = rs.encode(&shards(4, 16)).unwrap();
        let mut have: Vec<Option<Vec<u8>>> = coded.into_iter().map(Some).collect();
        for h in have.iter_mut().take(5) {
            *h = None;
        }
        assert_eq!(
            rs.reconstruct(&mut have),
            Err(CodeError::NotEnoughShards { have: 3, need: 4 })
        );
    }

    #[test]
    fn rate_half_paper_configs() {
        // The paper's example encodings: rate-1/2 into 16 and 32 fragments.
        for (k, n) in [(8, 16), (16, 32)] {
            let rs = ReedSolomon::new(k, n).unwrap();
            let data = shards(k, 128);
            let coded = rs.encode(&data).unwrap();
            // Lose the entire first half (all data shards).
            let mut have: Vec<Option<Vec<u8>>> = coded.iter().cloned().map(Some).collect();
            for slot in have.iter_mut().take(k) {
                *slot = None;
            }
            rs.reconstruct(&mut have).unwrap();
            for i in 0..k {
                assert_eq!(have[i].as_ref().unwrap(), &data[i]);
            }
        }
    }

    #[test]
    fn no_loss_is_a_noop() {
        let rs = ReedSolomon::new(2, 4).unwrap();
        let coded = rs.encode(&shards(2, 8)).unwrap();
        let mut have: Vec<Option<Vec<u8>>> = coded.iter().cloned().map(Some).collect();
        rs.reconstruct(&mut have).unwrap();
        for (h, c) in have.iter().zip(&coded) {
            assert_eq!(h.as_ref().unwrap(), c);
        }
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
        let bad = vec![vec![0u8; 8], vec![0u8; 9]];
        assert_eq!(rs.encode(&bad), Err(CodeError::ShardSizeMismatch));
    }

    #[test]
    fn wrong_shard_count_rejected() {
        let rs = ReedSolomon::new(3, 5).unwrap();
        assert_eq!(rs.encode(&shards(2, 8)), Err(CodeError::ShardSizeMismatch));
        let mut wrong = vec![Some(vec![0u8; 4]); 4];
        assert_eq!(rs.reconstruct(&mut wrong), Err(CodeError::ShardSizeMismatch));
    }

    #[test]
    fn empty_shards_roundtrip() {
        let rs = ReedSolomon::new(2, 4).unwrap();
        let data = vec![Vec::new(), Vec::new()];
        let coded = rs.encode(&data).unwrap();
        assert!(coded.iter().all(Vec::is_empty));
    }
}
