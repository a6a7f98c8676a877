//! SHA-1 implemented from scratch (FIPS 180-1).
//!
//! The OceanStore paper (§4.1, footnote 3) uses SHA-1 as its secure hash for
//! GUIDs, server identities, and archival-fragment verification. We implement
//! it here rather than pulling a dependency; test vectors come from FIPS
//! 180-1 / RFC 3174.
//!
//! SHA-1 is cryptographically broken for collision resistance today; this
//! reproduction keeps it because the paper specifies it and because none of
//! the experiments depend on collision resistance against an adaptive
//! adversary. [`crate::sha256`] is available where a stronger hash is wanted.
//!
//! Like [`crate::sha256`], two compression backends produce bit-identical
//! digests: the scalar loop (`compress_soft`) and an x86-64 SHA-NI backend
//! (`ni::compress`) chosen per run of whole blocks when the CPU advertises
//! the extension. Every GUID, CID and commit-record digest is a SHA-1, so
//! this is the kernel each committed byte passes through on every replica.
//! The scalar loop is the fallback elsewhere and the oracle
//! `backends_agree` compares the dispatched hash against.
//!
//! [`sha1_concat_x8`] hashes eight messages of one length at once. On a
//! CPU with AVX2 each message takes one 32-bit lane of the registers
//! (`lanes::digests`); SHA-NI runs one message at a time and is bound by
//! its own throughput, so eight independent messages go faster side by
//! side than through it. Elsewhere the eight go through [`sha1_concat`]
//! one at a time.

/// Number of bytes in a SHA-1 digest (160 bits).
pub const DIGEST_LEN: usize = 20;

/// A 160-bit SHA-1 digest.
pub type Digest = [u8; DIGEST_LEN];

const H0: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// SHA-1 compression via the x86-64 SHA extensions.
///
/// Same state transform as `compress_soft`; digests are bit-identical
/// (asserted by `backends_agree` below). The message schedule is computed
/// with `sha1msg1`/`sha1msg2` four words at a time and the 80 rounds run
/// through `sha1rnds4`, four rounds per issue, with `sha1nexte` deriving
/// each quad's `e` input from the state four rounds back.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // CPU intrinsics, as in `sha256::ni`
mod ni {
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
    /// Caller must ensure [`available`] returned true on this CPU. Nothing
    /// else is asked of it: every load and store below stays inside
    /// `state` and one block of `blocks`, whose lengths their types fix.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub unsafe fn compress(state: &mut [u32; 5], blocks: &[[u8; 64]]) {
        // Four rounds of quad `$i` (rounds 4i..4i+4). The immediate of
        // `sha1rnds4` picks the round function and constant, so it changes
        // every five quads. `$e` enters holding the state's `e` input with
        // the quad's message words already added and leaves holding `abcd`
        // as it was before the quad: rotated by `sha1nexte`, its top lane
        // is the `e` input of the next quad.
        macro_rules! rounds4 {
            ($abcd:ident, $e:ident, $i:literal) => {{
                let before = $abcd;
                $abcd = _mm_sha1rnds4_epu32::<{ $i / 5 }>($abcd, $e);
                $e = before;
            }};
        }
        // Quad `$i` for 4 <= i < 20: extend the schedule by four words
        // (W[t] = rol1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16])), then run
        // the rounds. `$m` is a ring of the last four word quads, the
        // oldest at `$i % 4`: `sha1msg1` supplies the t-14 and t-16
        // terms, the xor the t-8 term, `sha1msg2` the serially dependent
        // t-3 term and the rotate.
        macro_rules! quad {
            ($abcd:ident, $e:ident, $m:ident, $i:literal) => {{
                $m[$i % 4] = _mm_sha1msg2_epu32(
                    _mm_xor_si128(
                        _mm_sha1msg1_epu32($m[$i % 4], $m[($i + 1) % 4]),
                        $m[($i + 2) % 4],
                    ),
                    $m[($i + 3) % 4],
                );
                $e = _mm_sha1nexte_epu32($e, $m[$i % 4]);
                rounds4!($abcd, $e, $i);
            }};
        }

        // Full byte reversal: big-endian message words land with W[4i] in
        // the top lane, the order the SHA instructions expect.
        let reverse =
            _mm_set_epi64x(0x0001_0203_0405_0607u64 as i64, 0x0809_0a0b_0c0d_0e0fu64 as i64);

        // `a` in the top lane down to `d` in the bottom one; `e` alone in
        // the top lane of its register.
        let mut abcd = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().cast()), 0x1B);
        let mut e = _mm_set_epi32(state[4] as i32, 0, 0, 0);
        for block in blocks {
            let abcd_save = abcd;
            let e_save = e;

            // First 16 message words straight from the block.
            let mut m = [_mm_setzero_si128(); 4];
            for (t, lane) in m.iter_mut().enumerate() {
                let raw = _mm_loadu_si128(block.as_ptr().add(16 * t).cast());
                *lane = _mm_shuffle_epi8(raw, reverse);
            }
            // Quad 0 adds its words to `e` itself; from quad 1 on the
            // previous `abcd` supplies `e` through `sha1nexte`.
            e = _mm_add_epi32(e, m[0]);
            rounds4!(abcd, e, 0);
            e = _mm_sha1nexte_epu32(e, m[1]);
            rounds4!(abcd, e, 1);
            e = _mm_sha1nexte_epu32(e, m[2]);
            rounds4!(abcd, e, 2);
            e = _mm_sha1nexte_epu32(e, m[3]);
            rounds4!(abcd, e, 3);
            quad!(abcd, e, m, 4);
            quad!(abcd, e, m, 5);
            quad!(abcd, e, m, 6);
            quad!(abcd, e, m, 7);
            quad!(abcd, e, m, 8);
            quad!(abcd, e, m, 9);
            quad!(abcd, e, m, 10);
            quad!(abcd, e, m, 11);
            quad!(abcd, e, m, 12);
            quad!(abcd, e, m, 13);
            quad!(abcd, e, m, 14);
            quad!(abcd, e, m, 15);
            quad!(abcd, e, m, 16);
            quad!(abcd, e, m, 17);
            quad!(abcd, e, m, 18);
            quad!(abcd, e, m, 19);

            // `e` holds `abcd` from before the last quad: its rotated top
            // lane is the final `e`, which `sha1nexte` adds to the saved one.
            e = _mm_sha1nexte_epu32(e, e_save);
            abcd = _mm_add_epi32(abcd, abcd_save);
        }
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_shuffle_epi32(abcd, 0x1B));
        state[4] = _mm_extract_epi32(e, 3) as u32;
    }
}

/// Eight SHA-1 computations in the 32-bit lanes of AVX2 registers.
///
/// Lane `i` of every register belongs to message `i`: each of the five
/// state words and of the sixteen schedule words is one `__m256i`, and
/// each round is the scalar round of `compress_soft` applied lane-wise.
/// AVX2 has no 32-bit rotate, so a rotation is two shifts and an or.
/// Digests are bit-identical to [`super::sha1_concat`] of each message
/// (asserted by `lanes_match_one_at_a_time` below).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // CPU intrinsics, as in `ni`
mod lanes {
    use super::{last_block, padded_block, H0, LANES};
    use core::arch::x86_64::*;

    /// True when the running CPU supports AVX2, the one extension
    /// `digests` is compiled with. `is_x86_feature_detected!` caches the
    /// cpuid result in an atomic, so calling this per batch is cheap.
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// The final state of SHA-1 over `prefix ‖ msgs[i]` in each lane `i`,
    /// word-major: `[j][i]` is word `j` of lane `i`. The messages share
    /// one length, so every lane takes the same number of blocks.
    ///
    /// # Safety
    ///
    /// Caller must ensure [`available`] returned true on this CPU. Nothing
    /// else is asked of it. Every load reads one 64-byte block that
    /// [`padded_block`] hands out: a window inside its lane's message, or
    /// that lane's stack buffer. So every load stays inside its message or
    /// its buffer, and the only stores write the returned words.
    #[target_feature(enable = "avx2")]
    pub unsafe fn digests(prefix: &[u8], msgs: [&[u8]; LANES]) -> [[u32; LANES]; 5] {
        macro_rules! rol {
            ($x:expr, $n:literal) => {
                _mm256_or_si256(_mm256_slli_epi32::<$n>($x), _mm256_srli_epi32::<{ 32 - $n }>($x))
            };
        }
        macro_rules! ch {
            ($b:ident, $c:ident, $d:ident) => {
                _mm256_xor_si256($d, _mm256_and_si256($b, _mm256_xor_si256($c, $d)))
            };
        }
        macro_rules! parity {
            ($b:ident, $c:ident, $d:ident) => {
                _mm256_xor_si256(_mm256_xor_si256($b, $c), $d)
            };
        }
        macro_rules! maj {
            ($b:ident, $c:ident, $d:ident) => {
                _mm256_or_si256(
                    _mm256_and_si256($b, $c),
                    _mm256_and_si256($d, _mm256_or_si256($b, $c)),
                )
            };
        }

        // Byte reversal inside each 32-bit word: message words are
        // big-endian.
        let swap = _mm256_set_epi8(
            12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3, //
            12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3,
        );
        let k0 = _mm256_set1_epi32(0x5A827999);
        let k1 = _mm256_set1_epi32(0x6ED9EBA1);
        let k2 = _mm256_set1_epi32(0x8F1BBCDCu32 as i32);
        let k3 = _mm256_set1_epi32(0xCA62C1D6u32 as i32);
        let mut h = [_mm256_setzero_si256(); 5];
        for (hj, &init) in h.iter_mut().zip(&H0) {
            *hj = _mm256_set1_epi32(init as i32);
        }

        let mut bufs = [[0u8; 64]; LANES];
        for k in 0..=last_block(prefix.len() + msgs[0].len()) {
            let mut spare = bufs.iter_mut();
            let blocks =
                msgs.map(|m| padded_block(prefix, m, k, spare.next().expect("a buffer per lane")));

            // Each 32-byte half of the eight blocks is an 8×8 matrix of
            // words, one block per row: transpose it, so that lane `i` of
            // `w[t]` is word `t` of block `i`.
            let mut w = [_mm256_setzero_si256(); 16];
            for half in 0..2 {
                let mut r = [_mm256_setzero_si256(); LANES];
                for (row, block) in r.iter_mut().zip(&blocks) {
                    let raw = _mm256_loadu_si256(block.as_ptr().add(32 * half).cast());
                    *row = _mm256_shuffle_epi8(raw, swap);
                }
                // Pairs of rows interleaved by word, then by word pair:
                // `u[j]` holds word j of rows 0–3 in its low 128 bits and
                // word j + 4 in its high ones, `u[4 + j]` the same of rows
                // 4–7.
                let mut u = [_mm256_setzero_si256(); LANES];
                for q in 0..2 {
                    let r = &r[4 * q..];
                    let lo01 = _mm256_unpacklo_epi32(r[0], r[1]);
                    let hi01 = _mm256_unpackhi_epi32(r[0], r[1]);
                    let lo23 = _mm256_unpacklo_epi32(r[2], r[3]);
                    let hi23 = _mm256_unpackhi_epi32(r[2], r[3]);
                    u[4 * q] = _mm256_unpacklo_epi64(lo01, lo23);
                    u[4 * q + 1] = _mm256_unpackhi_epi64(lo01, lo23);
                    u[4 * q + 2] = _mm256_unpacklo_epi64(hi01, hi23);
                    u[4 * q + 3] = _mm256_unpackhi_epi64(hi01, hi23);
                }
                for j in 0..4 {
                    w[8 * half + j] = _mm256_permute2x128_si256::<0x20>(u[j], u[4 + j]);
                    w[8 * half + j + 4] = _mm256_permute2x128_si256::<0x31>(u[j], u[4 + j]);
                }
            }

            let [mut a, mut b, mut c, mut d, mut e] = h;
            // Schedule word `t`: the first sixteen are the block's, each
            // later one replaces the word sixteen back in the ring `w`.
            // W[t] = rol1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]).
            macro_rules! word {
                ($t:expr) => {{
                    let t: usize = $t;
                    if t >= 16 {
                        let x = _mm256_xor_si256(
                            _mm256_xor_si256(w[(t + 13) % 16], w[(t + 8) % 16]),
                            _mm256_xor_si256(w[(t + 2) % 16], w[t % 16]),
                        );
                        w[t % 16] = rol!(x, 1);
                    }
                    w[t % 16]
                }};
            }
            // Round `t`: `$e` takes the new `a` and `$b` becomes the new
            // `c`. The caller renames the registers instead of moving the
            // other three.
            macro_rules! round {
                ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $k:ident, $t:expr) => {
                    let wk = _mm256_add_epi32(word!($t), $k);
                    $e = _mm256_add_epi32(
                        _mm256_add_epi32($e, wk),
                        _mm256_add_epi32(rol!($a, 5), $f!($b, $c, $d)),
                    );
                    $b = rol!($b, 30);
                };
            }
            // Rounds `t..t + 5`, after which every register holds the
            // value its name says again.
            macro_rules! five {
                ($f:ident, $k:ident, $t:expr) => {
                    round!(a, b, c, d, e, $f, $k, $t);
                    round!(e, a, b, c, d, $f, $k, $t + 1);
                    round!(d, e, a, b, c, $f, $k, $t + 2);
                    round!(c, d, e, a, b, $f, $k, $t + 3);
                    round!(b, c, d, e, a, $f, $k, $t + 4);
                };
            }
            five!(ch, k0, 0);
            five!(ch, k0, 5);
            five!(ch, k0, 10);
            five!(ch, k0, 15);
            five!(parity, k1, 20);
            five!(parity, k1, 25);
            five!(parity, k1, 30);
            five!(parity, k1, 35);
            five!(maj, k2, 40);
            five!(maj, k2, 45);
            five!(maj, k2, 50);
            five!(maj, k2, 55);
            five!(parity, k3, 60);
            five!(parity, k3, 65);
            five!(parity, k3, 70);
            five!(parity, k3, 75);
            for (hj, v) in h.iter_mut().zip([a, b, c, d, e]) {
                *hj = _mm256_add_epi32(*hj, v);
            }
        }

        let mut words = [[0u32; LANES]; 5];
        for (out, hj) in words.iter_mut().zip(h) {
            _mm256_storeu_si256(out.as_mut_ptr().cast(), hj);
        }
        words
    }
}

/// Incremental SHA-1 hasher.
///
/// # Examples
///
/// ```
/// use oceanstore_crypto::sha1::Sha1;
/// let mut h = Sha1::new();
/// h.update(b"abc");
/// assert_eq!(hex(&h.finalize()), "a9993e364706816aba3e25717850c26c9cd0d89d");
/// # fn hex(d: &[u8]) -> String { d.iter().map(|b| format!("{b:02x}")).collect() }
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes so far.
    len: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha1 { state: H0, len: 0, buf: [0; 64], buf_len: 0 }
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
        // Padding: 0x80, zeros, then 64-bit big-endian bit length, written
        // into the block buffer directly (`update` keeps `buf_len < 64`).
        let n = self.buf_len;
        self.buf[n] = 0x80;
        if n + 1 > 56 {
            // No room for the length: it goes in a block of its own.
            self.buf[n + 1..].fill(0);
            self.compress(&[self.buf]);
            self.buf = [0; 64];
        } else {
            self.buf[n + 1..56].fill(0);
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
        if ni::available() {
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
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("chunks_exact(4)"));
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = self.state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A827999),
                20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
    }
}

/// One-shot SHA-1 of `data`.
pub fn sha1(data: &[u8]) -> Digest {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-1 over the concatenation of several byte slices.
///
/// Equivalent to hashing the slices back-to-back; avoids an intermediate
/// allocation at call sites that hash composite values (e.g. key ‖ name).
pub fn sha1_concat(parts: &[&[u8]]) -> Digest {
    let mut h = Sha1::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// Number of messages [`sha1_concat_x8`] hashes at once.
pub const LANES: usize = 8;

/// SHA-1 of `prefix ‖ msg` for each of eight messages of one length: what
/// `sha1_concat(&[prefix, msg])` returns for each, in order. On a CPU with
/// AVX2 the eight are hashed side by side, one per register lane;
/// elsewhere [`sha1_concat`] hashes them one at a time.
///
/// # Panics
///
/// If the messages differ in length.
pub fn sha1_concat_x8(prefix: &[u8], msgs: [&[u8]; LANES]) -> [Digest; LANES] {
    assert!(msgs.iter().all(|m| m.len() == msgs[0].len()), "messages of unequal length");
    concat_lanes(prefix, msgs).unwrap_or_else(|| msgs.map(|m| sha1_concat(&[prefix, m])))
}

/// [`sha1_concat_x8`] in AVX2 lanes, or `None` when the running CPU lacks
/// AVX2.
#[allow(unsafe_code)] // dispatch into the feature-gated lanes
fn concat_lanes(prefix: &[u8], msgs: [&[u8]; LANES]) -> Option<[Digest; LANES]> {
    #[cfg(target_arch = "x86_64")]
    if lanes::available() {
        // SAFETY: `lanes::available` confirmed the CPU supports AVX2, the
        // one feature `lanes::digests` is compiled with.
        let words = unsafe { lanes::digests(prefix, msgs) };
        return Some(std::array::from_fn(|i| digest_bytes(&words.map(|w| w[i]))));
    }
    let _ = (prefix, msgs); // unused off x86_64
    None
}

/// Block `k` of the padded message `prefix ‖ msg`: a window of `msg` where
/// the block lies inside it, else the block laid out in `buf`. Only the
/// blocks the prefix or the padding reach into take the copy.
fn padded_block<'a>(prefix: &[u8], msg: &'a [u8], k: usize, buf: &'a mut [u8; 64]) -> &'a [u8; 64] {
    let (p, total) = (prefix.len(), prefix.len() + msg.len());
    let (start, end) = (64 * k, 64 * k + 64);
    if start >= p && end <= total {
        return msg[start - p..end - p].try_into().expect("a 64-byte window");
    }
    buf.fill(0);
    if start < p {
        let n = p.min(end) - start;
        buf[..n].copy_from_slice(&prefix[start..start + n]);
    }
    let (lo, hi) = (start.max(p), end.min(total));
    if lo < hi {
        buf[lo - start..hi - start].copy_from_slice(&msg[lo - p..hi - p]);
    }
    if (start..end).contains(&total) {
        buf[total - start] = 0x80;
    }
    if k == last_block(total) {
        buf[56..].copy_from_slice(&(total as u64).wrapping_mul(8).to_be_bytes());
    }
    buf
}

/// Index of the last block of a `len`-byte message once padded: the 0x80
/// byte and the 8-byte bit length follow the message.
fn last_block(len: usize) -> usize {
    (len + 8) / 64
}

/// The digest whose big-endian words are `state`.
fn digest_bytes(state: &[u32; 5]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(hex(&sha1(b"abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex(&sha1(&data)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        // Feed in irregular chunk sizes crossing block boundaries.
        for chunk in [1usize, 3, 63, 64, 65, 127] {
            let mut h = Sha1::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), sha1(&data), "chunk size {chunk}");
        }
    }

    /// The padding as it was first written: one `update` call per pad
    /// byte. Kept as the reference for the direct write in `finalize`.
    fn finalize_byte_at_a_time(mut h: Sha1) -> Digest {
        let bit_len = h.len.wrapping_mul(8);
        h.update(&[0x80]);
        while h.buf_len != 56 {
            h.update(&[0]);
        }
        h.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        h.compress(&[h.buf]);
        digest_bytes(&h.state)
    }

    #[test]
    fn padding_matches_reference_at_every_length() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..=300 {
            let mut h = Sha1::new();
            h.update(&data[..len]);
            assert_eq!(h.clone().finalize(), finalize_byte_at_a_time(h), "length {len}");
        }
    }

    /// SHA-1 with the padding laid out by hand and every block fed to the
    /// scalar loop: what the digest is on a CPU without SHA-NI.
    fn sha1_soft(data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut h = Sha1::new();
        for block in padded.chunks_exact(64) {
            h.compress_soft(block.try_into().expect("chunks_exact(64)"));
        }
        digest_bytes(&h.state)
    }

    /// The dispatched hash and the scalar loop must agree at every length
    /// around the padding boundaries (55/56, 63/64 and their multiples)
    /// and on multi-block inputs. On a machine without SHA-NI both sides
    /// run the scalar loop and this still checks `update`/`finalize`
    /// against hand-laid padding.
    #[test]
    fn backends_agree() {
        let data: Vec<u8> = (0..4999u32).map(|i| (i.wrapping_mul(31) ^ (i >> 3)) as u8).collect();
        for len in (0..=300).chain([1000, 4096, 4999]) {
            assert_eq!(sha1(&data[..len]), sha1_soft(&data[..len]), "length {len}");
        }
        assert_eq!(hex(&sha1_soft(b"abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    /// Eight messages of `len` bytes, each unlike the other seven, so that
    /// two lanes swapped, or one lane's block fed to another, changes a
    /// digest.
    fn lane_messages(len: usize) -> [Vec<u8>; LANES] {
        std::array::from_fn(|i| (0..len).map(|j| (j * 31 + i * 101 + (j >> 7)) as u8).collect())
    }

    /// The AVX2 lanes and one message at a time agree: with the content-ID
    /// prefix at every length around the padding boundaries and on
    /// multi-block messages, and with prefixes that end inside, at the end
    /// of and past the first block. Batches of those lengths follow one
    /// another, odd lengths between even ones. On a CPU without AVX2 only
    /// the public entry point's fallback is compared.
    #[test]
    fn lanes_match_one_at_a_time() {
        let long: Vec<u8> = (0..100u8).map(|i| i ^ 0x5c).collect();
        let cases = (0..=300).chain([4096, 4097, 8192]).map(|len| (&b"content"[..], len)).chain(
            [&[][..], &long[..63], &long[..64], &long]
                .into_iter()
                .flat_map(|prefix| (0..=130).map(move |len| (prefix, len))),
        );
        let mut lanes_ran = false;
        for (prefix, len) in cases {
            let owned = lane_messages(len);
            let msgs = owned.each_ref().map(Vec::as_slice);
            let each = msgs.map(|m| sha1_concat(&[prefix, m]));
            let at = format!("prefix {} bytes, length {len}", prefix.len());
            assert_eq!(sha1_concat_x8(prefix, msgs), each, "{at}");
            if let Some(lanes) = concat_lanes(prefix, msgs) {
                assert_eq!(lanes, each, "{at}");
                lanes_ran = true;
            }
        }
        #[cfg(target_arch = "x86_64")]
        assert_eq!(lanes_ran, lanes::available());
    }

    #[test]
    #[should_panic(expected = "unequal length")]
    fn lanes_refuse_unequal_lengths() {
        let mut msgs: [&[u8]; LANES] = [b"four"; LANES];
        msgs[5] = b"five!";
        sha1_concat_x8(b"content", msgs);
    }

    #[test]
    fn concat_matches_joined() {
        assert_eq!(sha1_concat(&[b"foo", b"bar"]), sha1(b"foobar"));
        assert_eq!(sha1_concat(&[]), sha1(b""));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha1(b"foo/bar"), sha1(b"foo-bar"));
        // Length-extension shape: (a, bc) vs (ab, c) concatenations are equal,
        // but the framing used by callers must differ — spot-check raw behaviour.
        assert_eq!(sha1_concat(&[b"a", b"bc"]), sha1_concat(&[b"ab", b"c"]));
    }
}
