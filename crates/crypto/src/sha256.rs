//! SHA-256 implemented from scratch (FIPS 180-2).
//!
//! Provided alongside [`crate::sha1`] for places where a 256-bit digest is
//! preferable (e.g. Merkle trees over archival fragments, where we want the
//! extra margin). Test vectors from FIPS 180-2.
//!
//! Two compression backends produce bit-identical digests:
//!
//! * a scalar software backend (`compress_soft`), the original portable
//!   implementation, and
//! * an x86-64 backend using the SHA-NI extensions (`ni::compress`),
//!   selected at runtime when the CPU advertises them.
//!
//! Hashing dominates the Schnorr verify hot path (the challenge is one
//! digest but the modular arithmetic around it is only ~100ns with the
//! fixed-base tables), so the backend choice is what decides signature
//! throughput. The `*_ref` constructors pin the scalar backend *and* the
//! byte-at-a-time padding loop: the oracle the unit tests compare the
//! SHA-NI backend and the fast padding with.

/// Number of bytes in a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// A 256-bit SHA-256 digest.
pub type Digest = [u8; DIGEST_LEN];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 compression via the x86-64 SHA extensions.
///
/// Same state transform as the scalar backend; digests are bit-identical
/// (asserted by `backends_agree` below). The message schedule is computed
/// with `sha256msg1`/`sha256msg2` four lanes at a time and the 64 rounds run
/// through `sha256rnds2`, two rounds per issue.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // CPU intrinsics; the sole unsafe surface in the crate
mod ni {
    use super::K;
    use core::arch::x86_64::*;

    /// True when the running CPU supports every instruction `compress`
    /// was compiled with. `is_x86_feature_detected!` caches the cpuid
    /// result in an atomic, so calling this per-block is cheap.
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse4.1")
            && std::arch::is_x86_feature_detected!("ssse3")
    }

    /// Runs every block of `blocks` through the state in turn, which stays
    /// in registers from the first block to the last.
    ///
    /// # Safety
    ///
    /// Caller must ensure [`available`] returned true on this CPU. Every
    /// load and store below stays inside `state` and one block of
    /// `blocks`, whose lengths their types fix.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub unsafe fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // Round-constant quad t (K[4t..4t+4]) packed for `sha256rnds2`.
        #[inline]
        unsafe fn k4(t: usize) -> __m128i {
            _mm_set_epi64x(
                (((K[4 * t + 3] as u64) << 32) | K[4 * t + 2] as u64) as i64,
                (((K[4 * t + 1] as u64) << 32) | K[4 * t] as u64) as i64,
            )
        }

        // Four rounds: `sha256rnds2` consumes two W+K words per issue, the
        // low pair updating CDGH and (after the lane swap) the high pair
        // updating ABEF.
        macro_rules! rounds4 {
            ($abef:ident, $cdgh:ident, $wk:expr) => {{
                let wk = $wk;
                $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
                let wk_hi = _mm_shuffle_epi32(wk, 0x0E);
                $abef = _mm_sha256rnds2_epu32($abef, $cdgh, wk_hi);
            }};
        }

        // Byte shuffle turning four big-endian message words into lane order.
        let be_shuffle =
            _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203u64 as i64);

        // Repack [a,b,c,d|e,f,g,h] into the ABEF/CDGH layout the SHA
        // instructions operate on.
        let abcd = _mm_loadu_si128(state.as_ptr().cast());
        let efgh = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let badc = _mm_shuffle_epi32(abcd, 0xB1);
        let hgfe = _mm_shuffle_epi32(efgh, 0x1B);
        let mut abef = _mm_alignr_epi8(badc, hgfe, 8);
        let mut cdgh = _mm_blend_epi16(hgfe, badc, 0xF0);

        for block in blocks {
            let abef_save = abef;
            let cdgh_save = cdgh;

            // First 16 message words straight from the block.
            let mut m = [_mm_setzero_si128(); 4];
            for (t, lane) in m.iter_mut().enumerate() {
                let raw = _mm_loadu_si128(block.as_ptr().add(16 * t).cast());
                *lane = _mm_shuffle_epi8(raw, be_shuffle);
            }
            for (t, &lane) in m.iter().enumerate() {
                rounds4!(abef, cdgh, _mm_add_epi32(lane, k4(t)));
            }

            // Rounds 16..64: extend the schedule one lane quad at a time.
            // W[i] = W[i-16] + s0(W[i-15]) + W[i-7] + s1(W[i-2]); `sha256msg1`
            // covers the s0 term, `alignr` supplies W[i-7..i-4], `sha256msg2`
            // folds in the serially-dependent s1 term.
            for t in 4..16 {
                let mut w = _mm_sha256msg1_epu32(m[0], m[1]);
                w = _mm_add_epi32(w, _mm_alignr_epi8(m[3], m[2], 4));
                w = _mm_sha256msg2_epu32(w, m[3]);
                rounds4!(abef, cdgh, _mm_add_epi32(w, k4(t)));
                m = [m[1], m[2], m[3], w];
            }

            abef = _mm_add_epi32(abef, abef_save);
            cdgh = _mm_add_epi32(cdgh, cdgh_save);
        }

        // Invert the initial repack and store.
        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let abcd_out = _mm_blend_epi16(feba, dchg, 0xF0);
        let efgh_out = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state.as_mut_ptr().cast(), abcd_out);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), efgh_out);
    }
}

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
    /// Pin the scalar backend and the byte-at-a-time padding loop.
    /// Digests are identical either way; only the cost differs. Set by
    /// the `*_ref` test-oracle paths.
    soft_only: bool,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 { state: H0, len: 0, buf: [0; 64], buf_len: 0, soft_only: false }
    }

    /// Creates a hasher pinned to the scalar backend and the original
    /// byte-at-a-time padding, regardless of CPU features.
    pub(crate) fn new_ref() -> Self {
        Sha256 { soft_only: true, ..Self::new() }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                self.compress(&[self.buf]);
                self.buf_len = 0;
            }
        }
        let (blocks, tail) = rest.as_chunks::<64>();
        if !blocks.is_empty() {
            self.compress(blocks);
        }
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// Finishes the hash, returning the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        if self.soft_only {
            // Original padding loop, kept verbatim as the frozen reference
            // cost (one `update` call per pad byte).
            self.update(&[0x80]);
            while self.buf_len != 56 {
                self.update(&[0]);
            }
        } else {
            let n = self.buf_len;
            self.buf[n] = 0x80;
            if n + 1 > 56 {
                self.buf[n + 1..].fill(0);
                self.compress(&[self.buf]);
                self.buf = [0; 64];
            } else {
                self.buf[n + 1..56].fill(0);
            }
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&[self.buf]);
        digest_bytes(&self.state)
    }

    /// Runs `blocks` through the state in order: one backend check per
    /// run, not per block.
    #[allow(unsafe_code)] // dispatch into the feature-gated SHA-NI backend
    fn compress(&mut self, blocks: &[[u8; 64]]) {
        #[cfg(target_arch = "x86_64")]
        if !self.soft_only && ni::available() {
            // SAFETY: `ni::available` confirmed the CPU supports every
            // feature `ni::compress` is compiled with.
            unsafe { ni::compress(&mut self.state, blocks) };
            return;
        }
        for block in blocks {
            self.compress_soft(block);
        }
    }

    fn compress_soft(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("chunks_exact(4)"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

fn digest_bytes(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// One-shot fast path for inputs that fit a single padded block (≤ 55
/// bytes): assemble the block directly and compress once, skipping the
/// incremental hasher's buffering. `total` must equal the sum of part
/// lengths and be ≤ 55.
fn sha256_small(parts: &[&[u8]], total: usize) -> Digest {
    let mut block = [0u8; 64];
    let mut off = 0;
    for p in parts {
        block[off..off + p.len()].copy_from_slice(p);
        off += p.len();
    }
    block[off] = 0x80;
    block[56..64].copy_from_slice(&(total as u64 * 8).to_be_bytes());
    let mut h = Sha256::new();
    h.compress(&[block]);
    digest_bytes(&h.state)
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    if data.len() <= 55 {
        return sha256_small(&[data], data.len());
    }
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 over the concatenation of several byte slices.
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    if total <= 55 {
        return sha256_small(parts, total);
    }
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// One-shot SHA-256 over concatenated parts, pinned to the scalar
/// backend. Identical digest to [`sha256_concat`]; a test oracle.
pub(crate) fn sha256_concat_ref(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new_ref();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..777u32).map(|i| (i * 7 % 256) as u8).collect();
        for chunk in [1usize, 5, 64, 100] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk}");
        }
    }

    /// The hardware-dispatched path and the frozen scalar path must agree
    /// on every input length around the padding boundaries. On machines
    /// without SHA-NI both sides run the scalar backend and this still
    /// exercises fast padding vs the original padding loop.
    #[test]
    fn backends_agree() {
        let data: Vec<u8> = (0..300u32).map(|i| (i.wrapping_mul(31) ^ (i >> 3)) as u8).collect();
        for len in 0..=data.len() {
            let fast = sha256(&data[..len]);
            let slow = sha256_concat_ref(&[&data[..len]]);
            assert_eq!(fast, slow, "length {len}");
        }
        // Multi-part concatenation through the single-block fast path.
        for split in 0..=55usize {
            let parts: [&[u8]; 2] = [&data[..split], &data[split..55]];
            assert_eq!(sha256_concat(&parts), sha256_concat_ref(&parts), "split {split}");
        }
    }
}
