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
//! [`sha1_concat_run`] hashes a run of messages of one length, many at
//! once: on a CPU with AVX-512 sixteen side by side, one per 32-bit lane
//! of the registers, and on one with AVX2 eight (`lanes`). SHA-NI runs one
//! message at a time and is bound by its own throughput, so independent
//! messages go faster side by side than through it. What no width takes
//! goes through [`sha1_concat`] one at a time.

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

/// SHA-1 of equal-length messages side by side, one message per 32-bit
/// lane of a SIMD register, in two widths from one kernel body:
///
/// * `zmm`: sixteen messages in AVX-512 registers (AVX-512F and BW);
/// * `ymm`: eight messages in AVX2 registers.
///
/// Lane `i` of every register belongs to message `i`: each of the five
/// state words and of the sixteen schedule words is one register, and
/// each round is the scalar round of `compress_soft` applied lane-wise.
/// The body ([`digests`]) holds the one copy of the 80 rounds, the
/// schedule and block selection; a width supplies only the [`Lanes`]
/// primitives. Digests are bit-identical to [`super::sha1_concat`] of each
/// message (asserted by `ymm_matches_one_at_a_time` and
/// `zmm_matches_one_at_a_time` below).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // CPU intrinsics, as in `ni`
mod lanes {
    use super::{digest_bytes, last_block, pad_block, Digest, H0};
    use core::arch::x86_64::*;

    /// Sixteen messages in zmm lanes, or `None` without AVX-512F and
    /// AVX-512BW. `is_x86_feature_detected!` caches the cpuid result in an
    /// atomic, so asking per run is cheap.
    pub fn zmm(prefix: &[u8], msgs: &[&[u8]; 16]) -> Option<[Digest; 16]> {
        if !(std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw"))
        {
            return None;
        }
        // SAFETY: every feature `digests_zmm` enables was just confirmed.
        Some(unsafe { digests_zmm(prefix, msgs) })
    }

    /// Eight messages in ymm lanes, or `None` without AVX2.
    pub fn ymm(prefix: &[u8], msgs: &[&[u8]; 8]) -> Option<[Digest; 8]> {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return None;
        }
        // SAFETY: AVX2, the one feature `digests_ymm` enables, was just
        // confirmed.
        Some(unsafe { digests_ymm(prefix, msgs) })
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU has every feature enabled here.
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn digests_zmm(prefix: &[u8], msgs: &[&[u8]; 16]) -> [Digest; 16] {
        digests::<__m512i, 16>(prefix, msgs)
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU has AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn digests_ymm(prefix: &[u8], msgs: &[&[u8]; 8]) -> [Digest; 8] {
        digests::<__m256i, 8>(prefix, msgs)
    }

    /// A SIMD register of `LANES` 32-bit words, one per message, with the
    /// operations the kernel body needs.
    ///
    /// Every method is `#[inline(always)]` so that it lands in the
    /// `#[target_feature]` function that instantiates [`digests`], where
    /// the intrinsics inline too.
    trait Lanes: Copy {
        /// Messages per register.
        const LANES: usize;

        /// `x` in every lane.
        unsafe fn splat(x: u32) -> Self;
        unsafe fn add(self, b: Self) -> Self;
        unsafe fn xor(self, b: Self) -> Self;
        /// Each lane rotated left by `N` bits.
        unsafe fn rol<const N: i32>(self) -> Self;
        /// `b ^ c ^ d`: the Parity function, and three of the schedule's
        /// four terms.
        unsafe fn xor3(b: Self, c: Self, d: Self) -> Self;
        /// The Ch function: `c` where `b` has a one, `d` where it has a
        /// zero.
        unsafe fn ch(b: Self, c: Self, d: Self) -> Self;
        /// The Maj function: each bit as at least two of `b`, `c`, `d`.
        unsafe fn maj(b: Self, c: Self, d: Self) -> Self;
        /// The sixteen big-endian words of `LANES` blocks, transposed:
        /// lane `i` of word `t` is word `t` of `blocks[i]`. Every load
        /// stays inside one of the blocks.
        unsafe fn words(blocks: &[&[u8; 64]]) -> [Self; 16];
        /// The lanes into the first `LANES` words of `out`.
        unsafe fn store(self, out: &mut [u32; 16]);
    }

    /// Byte reversal inside each 32-bit word, per 128 bits: message words
    /// are big-endian.
    #[inline(always)]
    unsafe fn swap_bytes() -> __m128i {
        _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3)
    }

    impl Lanes for __m512i {
        const LANES: usize = 16;

        #[inline(always)]
        unsafe fn splat(x: u32) -> Self {
            _mm512_set1_epi32(x as i32)
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            _mm512_add_epi32(self, b)
        }
        #[inline(always)]
        unsafe fn xor(self, b: Self) -> Self {
            _mm512_xor_si512(self, b)
        }
        #[inline(always)]
        unsafe fn rol<const N: i32>(self) -> Self {
            _mm512_rol_epi32::<N>(self)
        }
        // Each function is one `vpternlogd`: bit `4b + 2c + d` of the
        // immediate is the output for those three input bits.
        #[inline(always)]
        unsafe fn xor3(b: Self, c: Self, d: Self) -> Self {
            _mm512_ternarylogic_epi32::<0x96>(b, c, d)
        }
        #[inline(always)]
        unsafe fn ch(b: Self, c: Self, d: Self) -> Self {
            _mm512_ternarylogic_epi32::<0xCA>(b, c, d)
        }
        #[inline(always)]
        unsafe fn maj(b: Self, c: Self, d: Self) -> Self {
            _mm512_ternarylogic_epi32::<0xE8>(b, c, d)
        }
        /// A block is one register, so the sixteen blocks are a 16×16
        /// matrix of words, one block per row.
        #[inline(always)]
        unsafe fn words(blocks: &[&[u8; 64]]) -> [Self; 16] {
            assert_eq!(blocks.len(), Self::LANES, "a block per lane");
            let swap = _mm512_broadcast_i32x4(swap_bytes());
            let mut r = [_mm512_setzero_si512(); 16];
            for (row, block) in r.iter_mut().zip(blocks) {
                *row = _mm512_shuffle_epi8(_mm512_loadu_si512(block.as_ptr().cast()), swap);
            }
            // Pairs of rows interleaved by word, then by word pair: in
            // each 128-bit quarter `q`, `u[4i + j]` holds word 4q + j of
            // rows 4i..4i + 4.
            let mut t = [_mm512_setzero_si512(); 16];
            for i in 0..8 {
                t[2 * i] = _mm512_unpacklo_epi32(r[2 * i], r[2 * i + 1]);
                t[2 * i + 1] = _mm512_unpackhi_epi32(r[2 * i], r[2 * i + 1]);
            }
            let mut u = [_mm512_setzero_si512(); 16];
            for i in 0..4 {
                u[4 * i] = _mm512_unpacklo_epi64(t[4 * i], t[4 * i + 2]);
                u[4 * i + 1] = _mm512_unpackhi_epi64(t[4 * i], t[4 * i + 2]);
                u[4 * i + 2] = _mm512_unpacklo_epi64(t[4 * i + 1], t[4 * i + 3]);
                u[4 * i + 3] = _mm512_unpackhi_epi64(t[4 * i + 1], t[4 * i + 3]);
            }
            // Then the quarters: word 4q + j gathers quarter `q` of
            // `u[j]`, `u[4 + j]`, `u[8 + j]` and `u[12 + j]`, in two rounds
            // of 128-bit shuffles.
            let mut w = [_mm512_setzero_si512(); 16];
            for j in 0..4 {
                let v0 = _mm512_shuffle_i32x4::<0x44>(u[j], u[4 + j]);
                let v1 = _mm512_shuffle_i32x4::<0xEE>(u[j], u[4 + j]);
                let v2 = _mm512_shuffle_i32x4::<0x44>(u[8 + j], u[12 + j]);
                let v3 = _mm512_shuffle_i32x4::<0xEE>(u[8 + j], u[12 + j]);
                w[j] = _mm512_shuffle_i32x4::<0x88>(v0, v2);
                w[4 + j] = _mm512_shuffle_i32x4::<0xDD>(v0, v2);
                w[8 + j] = _mm512_shuffle_i32x4::<0x88>(v1, v3);
                w[12 + j] = _mm512_shuffle_i32x4::<0xDD>(v1, v3);
            }
            w
        }
        #[inline(always)]
        unsafe fn store(self, out: &mut [u32; 16]) {
            _mm512_storeu_si512(out.as_mut_ptr().cast(), self)
        }
    }

    impl Lanes for __m256i {
        const LANES: usize = 8;

        #[inline(always)]
        unsafe fn splat(x: u32) -> Self {
            _mm256_set1_epi32(x as i32)
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            _mm256_add_epi32(self, b)
        }
        #[inline(always)]
        unsafe fn xor(self, b: Self) -> Self {
            _mm256_xor_si256(self, b)
        }
        /// AVX2 has no 32-bit rotate: two shifts and an or. The right
        /// shift's count is a register, which the constant `N` folds into
        /// an immediate shift.
        #[inline(always)]
        unsafe fn rol<const N: i32>(self) -> Self {
            let right = _mm_cvtsi32_si128(32 - N);
            _mm256_or_si256(_mm256_slli_epi32::<N>(self), _mm256_srl_epi32(self, right))
        }
        #[inline(always)]
        unsafe fn xor3(b: Self, c: Self, d: Self) -> Self {
            _mm256_xor_si256(_mm256_xor_si256(b, c), d)
        }
        #[inline(always)]
        unsafe fn ch(b: Self, c: Self, d: Self) -> Self {
            _mm256_xor_si256(d, _mm256_and_si256(b, _mm256_xor_si256(c, d)))
        }
        #[inline(always)]
        unsafe fn maj(b: Self, c: Self, d: Self) -> Self {
            _mm256_or_si256(_mm256_and_si256(b, c), _mm256_and_si256(d, _mm256_or_si256(b, c)))
        }
        /// Each 32-byte half of the eight blocks is an 8×8 matrix of
        /// words, one block per row: transpose each.
        #[inline(always)]
        unsafe fn words(blocks: &[&[u8; 64]]) -> [Self; 16] {
            assert_eq!(blocks.len(), Self::LANES, "a block per lane");
            let swap = _mm256_broadcastsi128_si256(swap_bytes());
            let mut w = [_mm256_setzero_si256(); 16];
            for half in 0..2 {
                let mut r = [_mm256_setzero_si256(); 8];
                for (row, block) in r.iter_mut().zip(blocks) {
                    let raw = _mm256_loadu_si256(block.as_ptr().add(32 * half).cast());
                    *row = _mm256_shuffle_epi8(raw, swap);
                }
                // Pairs of rows interleaved by word, then by word pair:
                // `u[j]` holds word j of rows 0–3 in its low 128 bits and
                // word j + 4 in its high ones, `u[4 + j]` the same of rows
                // 4–7.
                let mut u = [_mm256_setzero_si256(); 8];
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
            w
        }
        #[inline(always)]
        unsafe fn store(self, out: &mut [u32; 16]) {
            _mm256_storeu_si256(out.as_mut_ptr().cast(), self)
        }
    }

    /// SHA-1 over `prefix ‖ msgs[i]` in each lane `i` of `R`. The messages
    /// share one length, so every lane takes the same number of blocks, and
    /// whether block `k` lies inside the message is one answer for all of
    /// them: such a block is loaded from each message at one offset. Only
    /// the blocks the prefix or the padding reach into are laid out in the
    /// lanes' stack buffers ([`pad_block`]).
    ///
    /// # Safety
    ///
    /// Inlined only into [`digests_zmm`] and [`digests_ymm`], whose callers
    /// confirm the features `R`'s intrinsics need. `N` is `R::LANES`, and
    /// the loads stay inside 64-byte blocks that [`Lanes::words`] is handed:
    /// windows of the messages or the stack buffers. The only stores write
    /// the returned words.
    #[inline(always)]
    unsafe fn digests<R: Lanes, const N: usize>(prefix: &[u8], msgs: &[&[u8]; N]) -> [Digest; N] {
        const { assert!(N == R::LANES) };
        assert!(msgs.iter().all(|m| m.len() == msgs[0].len()), "messages of unequal length");
        let k0 = R::splat(0x5A827999);
        let k1 = R::splat(0x6ED9EBA1);
        let k2 = R::splat(0x8F1BBCDC);
        let k3 = R::splat(0xCA62C1D6);
        let mut h = H0.map(|x| R::splat(x));

        let (p, total) = (prefix.len(), prefix.len() + msgs[0].len());
        let mut bufs = [[0u8; 64]; N];
        for k in 0..=last_block(total) {
            let start = 64 * k;
            let mut w = if start >= p && start + 64 <= total {
                let at = start - p;
                let mut rows = [&bufs[0]; N];
                for (row, m) in rows.iter_mut().zip(msgs) {
                    *row = m[at..at + 64].try_into().expect("a 64-byte window");
                }
                R::words(&rows)
            } else {
                for (buf, m) in bufs.iter_mut().zip(msgs) {
                    pad_block(prefix, m, k, buf);
                }
                R::words(&bufs.each_ref())
            };

            let [mut a, mut b, mut c, mut d, mut e] = h;
            // Schedule word `t`: the first sixteen are the block's, each
            // later one replaces the word sixteen back in the ring `w`.
            // W[t] = rol1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]).
            macro_rules! word {
                ($t:expr) => {{
                    let t: usize = $t;
                    if t >= 16 {
                        let x = R::xor3(w[(t + 13) % 16], w[(t + 8) % 16], w[(t + 2) % 16]);
                        w[t % 16] = x.xor(w[t % 16]).rol::<1>();
                    }
                    w[t % 16]
                }};
            }
            // Round `t`: `$e` takes the new `a` and `$b` becomes the new
            // `c`. The caller renames the registers instead of moving the
            // other three.
            macro_rules! round {
                ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $k:ident, $t:expr) => {
                    let wk = word!($t).add($k);
                    $e = $e.add(wk).add($a.rol::<5>().add(R::$f($b, $c, $d)));
                    $b = $b.rol::<30>();
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
            five!(xor3, k1, 20);
            five!(xor3, k1, 25);
            five!(xor3, k1, 30);
            five!(xor3, k1, 35);
            five!(maj, k2, 40);
            five!(maj, k2, 45);
            five!(maj, k2, 50);
            five!(maj, k2, 55);
            five!(xor3, k3, 60);
            five!(xor3, k3, 65);
            five!(xor3, k3, 70);
            five!(xor3, k3, 75);
            for (hj, v) in h.iter_mut().zip([a, b, c, d, e]) {
                *hj = hj.add(v);
            }
        }

        let mut words = [[0u32; 16]; 5];
        for (out, hj) in words.iter_mut().zip(h) {
            hj.store(out);
        }
        std::array::from_fn(|i| digest_bytes(&words.map(|w| w[i])))
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

/// The fewest messages of one length [`sha1_concat_run`] hashes side by
/// side: the narrower of its two widths.
pub const RUN: usize = 8;

/// SHA-1 of `prefix ‖ msg` for each message of a run of one length, in
/// order: `each` receives what `sha1_concat(&[prefix, msg])` returns for
/// each. On a CPU with AVX-512F and AVX-512BW the run is hashed sixteen
/// messages at a time, one per register lane; then, on a CPU with AVX2,
/// eight at a time; the rest go through [`sha1_concat`] one at a time.
///
/// # Panics
///
/// If the messages differ in length.
pub fn sha1_concat_run(prefix: &[u8], msgs: &[&[u8]], mut each: impl FnMut(Digest)) {
    let len = msgs.first().map_or(0, |m| m.len());
    assert!(msgs.iter().all(|m| m.len() == len), "messages of unequal length");
    #[cfg(target_arch = "x86_64")]
    let msgs = {
        let rest = side_by_side(prefix, msgs, &mut each, lanes::zmm);
        side_by_side(prefix, rest, &mut each, lanes::ymm)
    };
    for m in msgs {
        each(sha1_concat(&[prefix, m]));
    }
}

/// One width of `lanes`: SHA-1 of `prefix ‖ msgs[i]` in each of `N` lanes,
/// or `None` when the running CPU lacks the width's features.
#[cfg(target_arch = "x86_64")]
type Width<const N: usize> = fn(&[u8], &[&[u8]; N]) -> Option<[Digest; N]>;

/// Hashes `N` messages at a time from the front of `msgs` through `width`
/// while it has a build for this CPU, and returns the messages left.
#[cfg(target_arch = "x86_64")]
fn side_by_side<'m, const N: usize>(
    prefix: &[u8],
    mut msgs: &'m [&'m [u8]],
    each: &mut impl FnMut(Digest),
    width: Width<N>,
) -> &'m [&'m [u8]] {
    while let Some((run, rest)) = msgs.split_first_chunk::<N>() {
        let Some(digests) = width(prefix, run) else { break };
        digests.into_iter().for_each(&mut *each);
        msgs = rest;
    }
    msgs
}

/// Lays out in `buf` block `k` of the padded message `prefix ‖ msg`: the
/// prefix's bytes in it, the message's, the 0x80 byte after them and, in
/// the last block, the bit length.
fn pad_block(prefix: &[u8], msg: &[u8], k: usize, buf: &mut [u8; 64]) {
    let (p, total) = (prefix.len(), prefix.len() + msg.len());
    let (start, end) = (64 * k, 64 * k + 64);
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

    /// Sixteen messages of `len` bytes, each unlike the other fifteen, so
    /// that two lanes swapped, or one lane's block fed to another, changes
    /// a digest.
    fn lane_messages(len: usize) -> [Vec<u8>; 16] {
        std::array::from_fn(|i| (0..len).map(|j| (j * 31 + i * 101 + (j >> 7)) as u8).collect())
    }

    /// Every (prefix, length) a width is checked at: the content-ID prefix
    /// at every length around the padding boundaries and on multi-block
    /// messages, and prefixes that end inside, at the end of and past the
    /// first block. Runs of those lengths follow one another, odd lengths
    /// between even ones.
    fn width_cases(long: &[u8]) -> impl Iterator<Item = (&[u8], usize)> {
        let content = (0..=300).chain([4096, 4097, 8192]).map(|len| (&b"content"[..], len));
        let others = [&[][..], &long[..63], &long[..64], long]
            .into_iter()
            .flat_map(|prefix| (0..=300).chain([4096, 4097, 8192]).map(move |len| (prefix, len)));
        content.chain(others)
    }

    /// Calls one width directly on the first `N` of each case's messages
    /// and holds it to one message at a time. Returns false, having said
    /// so, when the CPU lacks the width.
    #[cfg(target_arch = "x86_64")]
    fn width_matches_one_at_a_time<const N: usize>(name: &str, width: Width<N>) -> bool {
        let long: Vec<u8> = (0..100u8).map(|i| i ^ 0x5c).collect();
        for (prefix, len) in width_cases(&long) {
            let owned = lane_messages(len);
            let msgs: [&[u8]; N] = std::array::from_fn(|i| owned[i].as_slice());
            let Some(digests) = width(prefix, &msgs) else {
                eprintln!("{name}: skipped, this CPU lacks the width's features");
                return false;
            };
            let each = msgs.map(|m| sha1_concat(&[prefix, m]));
            assert_eq!(digests, each, "{name}, prefix {} bytes, length {len}", prefix.len());
        }
        true
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn ymm_matches_one_at_a_time() {
        let ran = width_matches_one_at_a_time("ymm", lanes::ymm);
        assert_eq!(ran, std::arch::is_x86_feature_detected!("avx2"));
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn zmm_matches_one_at_a_time() {
        let ran = width_matches_one_at_a_time("zmm", lanes::zmm);
        let has = std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw");
        assert_eq!(ran, has);
    }

    /// The public entry point, whatever widths this CPU has, on runs that
    /// split into sixteens, eights and singles: 0–40 messages at a few
    /// lengths and prefixes.
    #[test]
    fn runs_match_one_at_a_time() {
        let long: Vec<u8> = (0..100u8).map(|i| i ^ 0x5c).collect();
        for (prefix, len) in [(&b"content"[..], 0), (b"content", 55), (b"content", 4096), (&long, 130)] {
            let owned: Vec<Vec<u8>> = (0..40)
                .map(|i| (0..len).map(|j| (j * 7 + i * 53 + (j >> 6)) as u8).collect())
                .collect();
            let msgs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
            for n in 0..=msgs.len() {
                let mut got = Vec::new();
                sha1_concat_run(prefix, &msgs[..n], |d| got.push(d));
                let each: Vec<Digest> = msgs[..n].iter().map(|m| sha1_concat(&[prefix, m])).collect();
                assert_eq!(got, each, "prefix {} bytes, length {len}, {n} messages", prefix.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "unequal length")]
    fn runs_refuse_unequal_lengths() {
        let mut msgs: [&[u8]; 16] = [b"four"; 16];
        msgs[5] = b"five!";
        sha1_concat_run(b"content", &msgs, |_| ());
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
