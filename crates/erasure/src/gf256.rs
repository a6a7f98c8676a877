//! Arithmetic in GF(2^8), the field underlying the Reed-Solomon code.
//!
//! Uses the AES polynomial `x^8 + x^4 + x^3 + x + 1` (0x11d with the
//! generator convention below) and exp/log tables built once at startup.
//! Addition is XOR; multiplication/division go through the tables.

use std::sync::OnceLock;

/// The reduction polynomial (0x11d) with generator 2.
const POLY: u16 = 0x11d;

struct Tables {
    exp: [u8; 512], // doubled so mul can skip a modulo
    log: [u8; 256],
}

fn tables() -> &'static Tables {
    static T: OnceLock<Tables> = OnceLock::new();
    T.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// Field addition (== subtraction): XOR.
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field multiplication.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

/// Field division.
///
/// # Panics
///
/// Panics on division by zero.
pub fn div(a: u8, b: u8) -> u8 {
    assert_ne!(b, 0, "division by zero in GF(256)");
    if a == 0 {
        return 0;
    }
    let t = tables();
    t.exp[(t.log[a as usize] as usize + 255 - t.log[b as usize] as usize) % 255]
}

/// Multiplicative inverse.
///
/// # Panics
///
/// Panics on zero.
pub fn inv(a: u8) -> u8 {
    div(1, a)
}

/// `a` raised to the `e`-th power.
pub fn pow(a: u8, e: usize) -> u8 {
    if a == 0 {
        return if e == 0 { 1 } else { 0 };
    }
    let t = tables();
    let l = t.log[a as usize] as usize * (e % 255);
    t.exp[l % 255]
}

/// The field generator raised to `e` (i.e. `2^e`), handy for Vandermonde
/// rows.
pub fn exp(e: usize) -> u8 {
    tables().exp[e % 255]
}

// ---------------------------------------------------------------------------
// Bulk kernels.
//
// The encoder's hot loop is `dst[i] ^= c * src[i]` over shard-sized slices.
// The fast path works on 8-byte words: each of the 8 bit-planes of the
// constant `c` contributes `x^b · src` (computed lane-wise with the SWAR
// `xtimes8` step), selected by an all-ones/all-zeros mask. That is ~25
// bitwise ops per 8 bytes with no branches and no table lookups, which the
// compiler autovectorizes to full-width SIMD. The ≤7-byte tail goes through
// two 16-entry split-nibble tables (`c·x` for the low and high nibble).
// ---------------------------------------------------------------------------

/// Multiplies every byte lane of `w` by `x` (the generator, 2) in GF(2^8):
/// shift left, then reduce lanes that overflowed with the polynomial 0x1d.
/// The reduction mask is built from shifts of the overflow bits rather than
/// a 64-bit multiply: `0x1d` has bits 0/2/3/4, so shifting the lane-top
/// overflow bit (0x80) right by 7/5/4/3 lands exactly on them. Shift/XOR
/// keeps the whole kernel inside the SSE2 baseline instruction set, so LLVM
/// autovectorizes it; a `wrapping_mul` here would force scalar code (there
/// is no packed 64-bit multiply before AVX-512DQ).
#[inline(always)]
fn xtimes8(w: u64) -> u64 {
    let hi = w & 0x8080_8080_8080_8080;
    ((w ^ hi) << 1) ^ (hi >> 7) ^ (hi >> 5) ^ (hi >> 4) ^ (hi >> 3)
}

/// Per-bit-plane masks for `c`: all-ones where bit `b` of `c` is set.
#[inline(always)]
fn bit_masks(c: u8) -> [u64; 8] {
    let mut m = [0u64; 8];
    for (b, mask) in m.iter_mut().enumerate() {
        *mask = (((c >> b) & 1) as u64).wrapping_neg();
    }
    m
}

/// `c * w` lane-wise, with the bit-plane masks of `c` precomputed.
#[inline(always)]
fn mul_word(w: u64, masks: &[u64; 8]) -> u64 {
    let mut acc = 0u64;
    let mut cur = w;
    acc ^= cur & masks[0];
    for &mask in &masks[1..] {
        cur = xtimes8(cur);
        acc ^= cur & mask;
    }
    acc
}

/// Split-nibble tables for `c`: `lo[x] = c·x`, `hi[x] = c·(x << 4)`, so
/// `c·s = lo[s & 15] ^ hi[s >> 4]`. Used for sub-word tails.
#[inline]
fn nibble_tables(c: u8) -> ([u8; 16], [u8; 16]) {
    let mut lo = [0u8; 16];
    let mut hi = [0u8; 16];
    for i in 0..16u8 {
        lo[i as usize] = mul(c, i);
        hi[i as usize] = mul(c, i << 4);
    }
    (lo, hi)
}

/// The SIMD fast path: split-nibble table lookups via `PSHUFB`
/// (`_mm256_shuffle_epi8`), the standard technique for GF(2^8) bulk
/// multiply. `c·s = lo[s & 15] ^ hi[s >> 4]`, so one 32-byte block costs two
/// shuffles, two ANDs, a shift, and two XORs. This is the only unsafe code
/// in the crate (see `lib.rs`); everything is runtime-gated on AVX2 and
/// falls back to the SWAR word kernel, with bit-identical results either
/// way (the tables come from the same field arithmetic).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use std::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_loadu_si256, _mm256_set1_epi8, _mm256_shuffle_epi8,
        _mm256_srli_epi16, _mm256_storeu_si256, _mm256_xor_si256,
    };

    /// Both 16-entry nibble tables for `c`, doubled across the two 128-bit
    /// lanes (`PSHUFB` indexes within each lane independently).
    #[inline]
    fn tables_2x16(c: u8) -> ([u8; 32], [u8; 32]) {
        let (lo, hi) = super::nibble_tables(c);
        let mut l = [0u8; 32];
        let mut h = [0u8; 32];
        l[..16].copy_from_slice(&lo);
        l[16..].copy_from_slice(&lo);
        h[..16].copy_from_slice(&hi);
        h[16..].copy_from_slice(&hi);
        (l, h)
    }

    /// Tries the AVX2 path; `false` means the caller must run the portable
    /// kernel (feature missing or slice too short to be worth it).
    pub(super) fn try_mul_acc_slice(dst: &mut [u8], src: &[u8], c: u8) -> bool {
        if dst.len() < 32 || !is_x86_feature_detected!("avx2") {
            return false;
        }
        // SAFETY: AVX2 support was just confirmed at runtime, and the
        // kernel only ever loads/stores through unaligned intrinsics inside
        // the slices' bounds.
        unsafe { mul_acc_slice_avx2(dst, src, c) };
        true
    }

    /// Like [`try_mul_acc_slice`] for the fused multi-row accumulate.
    pub(super) fn try_mul_acc_multi(dsts: &mut [(&mut [u8], u8)], src: &[u8]) -> bool {
        if src.len() < 32 || !is_x86_feature_detected!("avx2") {
            return false;
        }
        // SAFETY: as in `try_mul_acc_slice`; row lengths equal `src.len()`
        // (asserted by the caller).
        unsafe { mul_acc_multi_avx2(dsts, src) };
        true
    }

    #[target_feature(enable = "avx2")]
    unsafe fn mul_acc_slice_avx2(dst: &mut [u8], src: &[u8], c: u8) {
        let (lo, hi) = tables_2x16(c);
        let tlo = _mm256_loadu_si256(lo.as_ptr().cast::<__m256i>());
        let thi = _mm256_loadu_si256(hi.as_ptr().cast::<__m256i>());
        let mask = _mm256_set1_epi8(0x0f);
        let blocks = dst.len() / 32;
        for i in 0..blocks {
            let o = i * 32;
            let s = _mm256_loadu_si256(src.as_ptr().add(o).cast::<__m256i>());
            let d = _mm256_loadu_si256(dst.as_ptr().add(o).cast::<__m256i>());
            let nl = _mm256_and_si256(s, mask);
            let nh = _mm256_and_si256(_mm256_srli_epi16(s, 4), mask);
            let prod =
                _mm256_xor_si256(_mm256_shuffle_epi8(tlo, nl), _mm256_shuffle_epi8(thi, nh));
            _mm256_storeu_si256(dst.as_mut_ptr().add(o).cast::<__m256i>(), _mm256_xor_si256(d, prod));
        }
        let tail = blocks * 32;
        let (tlo, thi) = super::nibble_tables(c);
        for (db, sb) in dst[tail..].iter_mut().zip(&src[tail..]) {
            *db ^= tlo[(sb & 0x0f) as usize] ^ thi[(sb >> 4) as usize];
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn mul_acc_multi_avx2(dsts: &mut [(&mut [u8], u8)], src: &[u8]) {
        let tabs: Vec<(__m256i, __m256i)> = dsts
            .iter()
            .map(|&(_, c)| {
                let (lo, hi) = tables_2x16(c);
                (
                    _mm256_loadu_si256(lo.as_ptr().cast::<__m256i>()),
                    _mm256_loadu_si256(hi.as_ptr().cast::<__m256i>()),
                )
            })
            .collect();
        let mask = _mm256_set1_epi8(0x0f);
        let blocks = src.len() / 32;
        for i in 0..blocks {
            let o = i * 32;
            // The source block and its nibble split are computed once and
            // shared by every destination row.
            let s = _mm256_loadu_si256(src.as_ptr().add(o).cast::<__m256i>());
            let nl = _mm256_and_si256(s, mask);
            let nh = _mm256_and_si256(_mm256_srli_epi16(s, 4), mask);
            for ((d, c), &(tlo, thi)) in dsts.iter_mut().zip(&tabs) {
                if *c == 0 {
                    continue;
                }
                let dv = _mm256_loadu_si256(d.as_ptr().add(o).cast::<__m256i>());
                let prod =
                    _mm256_xor_si256(_mm256_shuffle_epi8(tlo, nl), _mm256_shuffle_epi8(thi, nh));
                _mm256_storeu_si256(d.as_mut_ptr().add(o).cast::<__m256i>(), _mm256_xor_si256(dv, prod));
            }
        }
        let tail = blocks * 32;
        for (d, c) in dsts.iter_mut() {
            if *c == 0 {
                continue;
            }
            let (lo, hi) = super::nibble_tables(*c);
            for (db, sb) in d[tail..].iter_mut().zip(&src[tail..]) {
                *db ^= lo[(sb & 0x0f) as usize] ^ hi[(sb >> 4) as usize];
            }
        }
    }
}

/// Portable stand-in on non-x86_64 targets: never handles the call, so the
/// SWAR kernels run everywhere else.
#[cfg(not(target_arch = "x86_64"))]
mod x86 {
    pub(super) fn try_mul_acc_slice(_dst: &mut [u8], _src: &[u8], _c: u8) -> bool {
        false
    }
    pub(super) fn try_mul_acc_multi(_dsts: &mut [(&mut [u8], u8)], _src: &[u8]) -> bool {
        false
    }
}

/// XORs `src` into `dst` word-at-a-time: `dst[i] ^= src[i]`.
///
/// # Panics
///
/// Panics if slices have different lengths.
pub fn xor_slice(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dw, sw) in (&mut d).zip(&mut s) {
        let w = u64::from_le_bytes(dw.try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(sw.try_into().expect("8-byte chunk"));
        dw.copy_from_slice(&w.to_le_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= sb;
    }
}

/// Multiply-accumulate a slice: `dst[i] ^= c * src[i]`.
///
/// This is the encoder's hot loop; see the module comment on the kernel.
///
/// # Panics
///
/// Panics if slices have different lengths.
pub fn mul_acc_slice(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    if c == 0 {
        return;
    }
    if c == 1 {
        xor_slice(dst, src);
        return;
    }
    if x86::try_mul_acc_slice(dst, src, c) {
        return;
    }
    let masks = bit_masks(c);
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dw, sw) in (&mut d).zip(&mut s) {
        let w = u64::from_le_bytes(sw.try_into().expect("8-byte chunk"));
        let acc = u64::from_le_bytes(dw.try_into().expect("8-byte chunk")) ^ mul_word(w, &masks);
        dw.copy_from_slice(&acc.to_le_bytes());
    }
    let (lo, hi) = nibble_tables(c);
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= lo[(sb & 0x0f) as usize] ^ hi[(sb >> 4) as usize];
    }
}

/// Multiplies a slice in place by `c`: `dst[i] = c * dst[i]`.
///
/// With `c = 0` this zeroes the slice (as field arithmetic demands).
pub fn mul_slice_in_place(dst: &mut [u8], c: u8) {
    match c {
        0 => dst.fill(0),
        1 => {}
        _ => {
            let masks = bit_masks(c);
            let mut d = dst.chunks_exact_mut(8);
            for dw in &mut d {
                let w = u64::from_le_bytes(dw.try_into().expect("8-byte chunk"));
                dw.copy_from_slice(&mul_word(w, &masks).to_le_bytes());
            }
            let (lo, hi) = nibble_tables(c);
            for db in d.into_remainder() {
                *db = lo[(*db & 0x0f) as usize] ^ hi[(*db >> 4) as usize];
            }
        }
    }
}

/// Applies one source slice to several destination rows in a single pass:
/// `dsts[r].0[i] ^= dsts[r].1 * src[i]` for every row `r`.
///
/// Matrix encodes accumulate the same data shard into every parity row;
/// fusing the rows amortizes both the source loads and the eight SWAR
/// `xtimes` steps (the `x^b · src` bit-planes are shared — each row only
/// pays mask-and-XOR), roughly halving memory traffic versus repeated
/// [`mul_acc_slice`] calls.
///
/// # Panics
///
/// Panics if any destination length differs from `src`.
pub fn mul_acc_multi(dsts: &mut [(&mut [u8], u8)], src: &[u8]) {
    for (d, _) in dsts.iter() {
        assert_eq!(d.len(), src.len(), "slice length mismatch");
    }
    if x86::try_mul_acc_multi(dsts, src) {
        return;
    }
    let masks: Vec<[u64; 8]> = dsts.iter().map(|&(_, c)| bit_masks(c)).collect();
    let words = src.len() / 8;
    for i in 0..words {
        let o = i * 8;
        let w = u64::from_le_bytes(src[o..o + 8].try_into().expect("8-byte chunk"));
        let mut planes = [0u64; 8];
        planes[0] = w;
        for b in 1..8 {
            planes[b] = xtimes8(planes[b - 1]);
        }
        for ((d, c), m) in dsts.iter_mut().zip(&masks) {
            if *c == 0 {
                continue;
            }
            let mut acc = 0u64;
            for b in 0..8 {
                acc ^= planes[b] & m[b];
            }
            let cur = u64::from_le_bytes(d[o..o + 8].try_into().expect("8-byte chunk"));
            d[o..o + 8].copy_from_slice(&(cur ^ acc).to_le_bytes());
        }
    }
    let tail = words * 8;
    for (d, c) in dsts.iter_mut() {
        if *c == 0 {
            continue;
        }
        let (lo, hi) = nibble_tables(*c);
        for (db, sb) in d[tail..].iter_mut().zip(&src[tail..]) {
            *db ^= lo[(sb & 0x0f) as usize] ^ hi[(sb >> 4) as usize];
        }
    }
}

/// Byte-at-a-time log/exp `mul_acc_slice`: the oracle that unit tests and
/// proptests hold the table and SIMD kernels to. Not part of the public
/// contract.
///
/// # Panics
///
/// Panics if slices have different lengths.
#[doc(hidden)]
pub fn mul_acc_slice_ref(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    if c == 0 {
        return;
    }
    if c == 1 {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
        return;
    }
    let t = tables();
    let lc = t.log[c as usize] as usize;
    for (d, s) in dst.iter_mut().zip(src) {
        if *s != 0 {
            *d ^= t.exp[lc + t.log[*s as usize] as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(add(a, a), 0);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a={a}");
        }
    }

    #[test]
    fn mul_is_commutative_and_associative() {
        // Spot-check over a deterministic subset (full triple loop is 16M).
        for a in (1..=255u8).step_by(7) {
            for b in (1..=255u8).step_by(11) {
                assert_eq!(mul(a, b), mul(b, a));
                for c in (1..=255u8).step_by(31) {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn distributive() {
        for a in (0..=255u8).step_by(5) {
            for b in (0..=255u8).step_by(9) {
                for c in (0..=255u8).step_by(13) {
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let mut acc = 1u8;
        for e in 0..520usize {
            assert_eq!(pow(3, e), acc, "e={e}");
            acc = mul(acc, 3);
        }
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(0, 5), 0);
    }

    #[test]
    fn exp_is_generator_powers() {
        assert_eq!(exp(0), 1);
        assert_eq!(exp(1), 2);
        assert_eq!(exp(255), 1); // order of the multiplicative group
    }

    #[test]
    fn div_matches_mul_inv() {
        for a in (0..=255u8).step_by(3) {
            for b in (1..=255u8).step_by(5) {
                assert_eq!(div(a, b), mul(a, inv(b)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        div(3, 0);
    }

    #[test]
    fn mul_acc_slice_matches_scalar() {
        let src: Vec<u8> = (0..=255).collect();
        for c in [0u8, 1, 2, 0x53, 0xff] {
            let mut dst = vec![0x5au8; 256];
            let mut expect = dst.clone();
            mul_acc_slice(&mut dst, &src, c);
            for (e, s) in expect.iter_mut().zip(&src) {
                *e ^= mul(c, *s);
            }
            assert_eq!(dst, expect, "c={c}");
        }
    }

    #[test]
    fn xtimes8_matches_lanewise_mul_by_two() {
        for s in 0..=255u8 {
            let w = u64::from_le_bytes([s, s ^ 0x11, 0, 1, 0x80, 0x7f, 0xfe, s.wrapping_add(3)]);
            let out = xtimes8(w).to_le_bytes();
            for (lane, &b) in w.to_le_bytes().iter().enumerate() {
                assert_eq!(out[lane], mul(b, 2), "s={s} lane={lane}");
            }
        }
    }

    /// Every c × every unaligned length: the word kernel, the nibble tail,
    /// and the reference loop must agree bit for bit.
    #[test]
    fn fast_kernel_matches_reference_all_coefficients() {
        let src: Vec<u8> = (0..611u32).map(|i| (i.wrapping_mul(167) >> 3) as u8).collect();
        let init: Vec<u8> = (0..611u32).map(|i| (i.wrapping_mul(89) >> 2) as u8).collect();
        for c in 0..=255u8 {
            for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 611] {
                let mut fast = init[..len].to_vec();
                let mut reference = init[..len].to_vec();
                mul_acc_slice(&mut fast, &src[..len], c);
                mul_acc_slice_ref(&mut reference, &src[..len], c);
                assert_eq!(fast, reference, "c={c} len={len}");
            }
        }
    }

    #[test]
    fn mul_slice_in_place_matches_scalar() {
        let init: Vec<u8> = (0..131u32).map(|i| (i * 3 + 1) as u8).collect();
        for c in [0u8, 1, 2, 0x1c, 0x80, 0xff] {
            let mut fast = init.clone();
            mul_slice_in_place(&mut fast, c);
            let expect: Vec<u8> = init.iter().map(|&b| mul(c, b)).collect();
            assert_eq!(fast, expect, "c={c}");
        }
    }

    #[test]
    fn xor_slice_matches_bytewise() {
        let a: Vec<u8> = (0..77u32).map(|i| (i * 11) as u8).collect();
        let b: Vec<u8> = (0..77u32).map(|i| (i * 29 + 5) as u8).collect();
        let mut fast = a.clone();
        xor_slice(&mut fast, &b);
        let expect: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        assert_eq!(fast, expect);
    }

    #[test]
    fn mul_acc_multi_matches_row_by_row() {
        let src: Vec<u8> = (0..203u32).map(|i| (i.wrapping_mul(251)) as u8).collect();
        let coeffs = [0u8, 1, 2, 0x35, 0xd4, 0xff];
        let init: Vec<Vec<u8>> = (0..coeffs.len())
            .map(|r| (0..203u32).map(|i| ((i + r as u32) * 17) as u8).collect())
            .collect();

        let mut fused = init.clone();
        {
            let mut rows: Vec<(&mut [u8], u8)> = fused
                .iter_mut()
                .zip(coeffs)
                .map(|(d, c)| (d.as_mut_slice(), c))
                .collect();
            mul_acc_multi(&mut rows, &src);
        }

        let mut separate = init;
        for (d, c) in separate.iter_mut().zip(coeffs) {
            mul_acc_slice_ref(d, &src, c);
        }
        assert_eq!(fused, separate);
    }
}
