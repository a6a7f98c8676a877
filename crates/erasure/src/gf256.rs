//! Arithmetic in GF(2^8), the field underlying the Reed-Solomon code.
//!
//! The field is GF(2)\[x\] modulo `x^8 + x^4 + x^3 + x^2 + 1` (0x11d), the
//! polynomial of the classic Reed-Solomon codes, with generator 2 (`x`) and
//! exp/log tables built on first use. Addition is XOR; multiplication and
//! division go through the tables.
//!
//! It is not the AES field, `x^8 + x^4 + x^3 + x + 1` (0x11b), and that is
//! why GFNI's `gf2p8mulb`, which multiplies modulo 0x11b, does not apply
//! here: it computes another field's product (`0x80 · 2` is 0x1b there and
//! 0x1d here). Multiplication by a constant is linear over GF(2) in either
//! field, so the GFNI kernel instead hands `gf2p8affineqb` the 8×8 bit
//! matrix of each coefficient (`affine`).

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
// Every bulk operation is one dot product: `outs[r] = Σ_j c[r][j] · srcs[j]`
// over rows of one length, a coefficient matrix times a column of source
// rows. An encode is the parity rows of the code matrix times the data
// rows; a decode is the lost rows of an inverse times k survivors. Each
// kernel keeps a tile of output rows in registers while the k sources
// stream past once, and stores each output row once. The x86 kernels work
// down the rows a column of 2 KiB at a time, so the tiles after the first
// read the sources from the L1 cache.
//
// * `Gfni` (x86-64 with GFNI, AVX-512F and AVX-512BW): 64 bytes per
//   `gf2p8affineqb`, one 8×8 bit matrix per coefficient (`affine`),
//   eight rows per tile, byte-masked loads and stores for the tail.
// * `Pshufb` (x86-64 with AVX2): split-nibble tables, `c·s = lo[s & 15] ^
//   hi[s >> 4]`, two `PSHUFB`s per 32 bytes, four rows per tile.
// * `Swar` (everywhere): 8-byte words; each of the 8 bit-planes of `c`
//   contributes `x^b · src` (the SWAR `xtimes8` step, shared by every row
//   of a tile), selected by an all-ones/all-zeros mask.
//
// The CPU picks once per process ([`Kernel::best`]); every kernel gives the
// same bytes, which `kernels_agree` checks against the byte-at-a-time
// reference. Matrices and tables are derived per call from the
// coefficients, a few dozen nanoseconds each: nothing is built at set-up.
// ---------------------------------------------------------------------------

/// A bulk kernel this build carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// `gf2p8affineqb` on 64-byte registers.
    #[cfg(target_arch = "x86_64")]
    Gfni,
    /// Split-nibble `PSHUFB` on 32-byte registers.
    #[cfg(target_arch = "x86_64")]
    Pshufb,
    /// Bit-plane masks on 64-bit words: portable Rust.
    Swar,
}

impl Kernel {
    /// Every kernel the running CPU can run, fastest first.
    pub(crate) fn available() -> Vec<Kernel> {
        let mut all = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if x86::has_gfni() {
                all.push(Kernel::Gfni);
            }
            if x86::has_pshufb() {
                all.push(Kernel::Pshufb);
            }
        }
        all.push(Kernel::Swar);
        all
    }

    /// The fastest kernel the running CPU can run, chosen by cpuid once per
    /// process.
    pub(crate) fn best() -> Kernel {
        static BEST: OnceLock<Kernel> = OnceLock::new();
        *BEST.get_or_init(|| Kernel::available()[0])
    }
}

/// The dot product of a coefficient matrix and a column of source rows,
/// on `kernel`: `outs[r][i] = Σ_j coeffs[r·k + j] · srcs[j][i]` with
/// `k = srcs.len()`. Each output row is written once; with `accumulate`
/// the sum is XORed into what the row held, else it replaces it.
///
/// # Panics
///
/// Panics unless `coeffs` has one coefficient per output row and source
/// and every row, source or output, has one length; and if `kernel` is
/// not one this CPU runs.
pub(crate) fn dot_on(
    kernel: Kernel,
    outs: &mut [&mut [u8]],
    coeffs: &[u8],
    srcs: &[&[u8]],
    accumulate: bool,
) {
    let len = shape(outs, coeffs, srcs);
    if srcs.is_empty() && !accumulate {
        outs.iter_mut().for_each(|o| o.fill(0));
    }
    if srcs.is_empty() || outs.is_empty() || len == 0 {
        return;
    }
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Gfni => x86::gfni(outs, coeffs, srcs, accumulate),
        #[cfg(target_arch = "x86_64")]
        Kernel::Pshufb => x86::pshufb(outs, coeffs, srcs, accumulate),
        Kernel::Swar => swar(outs, coeffs, srcs, len, accumulate),
    }
}

/// The length every row of a dot product shares.
///
/// # Panics
///
/// Panics unless there is one coefficient per output row and source, and
/// every row has the length of the first.
fn shape(outs: &[&mut [u8]], coeffs: &[u8], srcs: &[&[u8]]) -> usize {
    assert_eq!(coeffs.len(), outs.len() * srcs.len(), "one coefficient per output row and source");
    let len = srcs.first().map(|s| s.len()).or(outs.first().map(|o| o.len())).unwrap_or(0);
    assert!(
        srcs.iter().all(|s| s.len() == len) && outs.iter().all(|o| o.len() == len),
        "slice length mismatch"
    );
    len
}

/// Rows in the next tile when `left` rows remain and a tile holds at most
/// `widest` (a power of two): the widest power of two that fits.
fn tile_rows(left: usize, widest: usize) -> usize {
    widest.min(1 << left.ilog2())
}

/// The per-coefficient values `per` derives from a row-major `rows × k`
/// coefficient matrix, regrouped tile by tile (tiles as [`tile_rows`] cuts
/// them) and, inside a tile, source by source: a kernel reads one tile's
/// values for source `j` as the `R` entries from `j·R`.
fn tile_major<T>(coeffs: &[u8], k: usize, widest: usize, per: impl Fn(u8) -> T) -> Vec<T> {
    let rows = coeffs.len() / k;
    let mut out = Vec::with_capacity(coeffs.len());
    let mut r0 = 0;
    while r0 < rows {
        let tile = tile_rows(rows - r0, widest);
        for j in 0..k {
            out.extend((r0..r0 + tile).map(|r| per(coeffs[r * k + j])));
        }
        r0 += tile;
    }
    out
}

/// The 8×8 matrix over GF(2) of multiplication by `c`, laid out as
/// `gf2p8affineqb` reads its matrix operand: bit `i` of the product is the
/// parity of the input byte ANDed with byte `7 − i` of the matrix, so bit
/// `j` of byte `7 − i` is bit `i` of `c · x^j`.
fn affine(c: u8) -> u64 {
    let mut m = 0u64;
    let mut column = c; // c · x^j: where input bit j lands
    for j in 0..8 {
        for i in 0..8 {
            m |= u64::from(column >> i & 1) << (8 * (7 - i) + j);
        }
        column = (column << 1) ^ if column & 0x80 != 0 { POLY as u8 } else { 0 };
    }
    m
}

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
    std::array::from_fn(|b| u64::from((c >> b) & 1).wrapping_neg())
}

/// Split-nibble tables for `c`: `lo[x] = c·x`, `hi[x] = c·(x << 4)`, so
/// `c·s = lo[s & 15] ^ hi[s >> 4]`.
fn nibble_tables(c: u8) -> ([u8; 16], [u8; 16]) {
    (std::array::from_fn(|x| mul(c, x as u8)), std::array::from_fn(|x| mul(c, (x as u8) << 4)))
}

/// The portable kernel: eight rows per tile, one 8-byte word of every row
/// at a time (a short last word is padded with zeros in registers). A
/// source word's eight bit-planes are derived once per tile and shared by
/// its rows, which each pay a mask and an XOR per plane.
fn swar(outs: &mut [&mut [u8]], coeffs: &[u8], srcs: &[&[u8]], len: usize, accumulate: bool) {
    const WIDEST: usize = 8;
    let k = srcs.len();
    let masks = tile_major(coeffs, k, WIDEST, bit_masks);
    let word = |row: &[u8], off: usize| {
        let mut w = [0u8; 8];
        let n = (row.len() - off).min(8);
        w[..n].copy_from_slice(&row[off..off + n]);
        u64::from_le_bytes(w)
    };
    let (mut rows, mut masks) = (outs, masks.as_slice());
    while !rows.is_empty() {
        let tile = tile_rows(rows.len(), WIDEST);
        let (these, rest) = rows.split_at_mut(tile);
        let (mine, others) = masks.split_at(tile * k);
        for off in (0..len).step_by(8) {
            let mut acc = [0u64; WIDEST];
            if accumulate {
                for (a, row) in acc.iter_mut().zip(these.iter()) {
                    *a = word(row, off);
                }
            }
            for (src, m) in srcs.iter().zip(mine.chunks_exact(tile)) {
                let mut plane = word(src, off);
                let mut planes = [0u64; 8];
                for p in &mut planes {
                    *p = plane;
                    plane = xtimes8(plane);
                }
                for (a, m) in acc.iter_mut().zip(m) {
                    for (p, bit) in planes.iter().zip(m) {
                        *a ^= p & bit;
                    }
                }
            }
            let n = (len - off).min(8);
            for (a, row) in acc.iter().zip(these.iter_mut()) {
                row[off..off + n].copy_from_slice(&a.to_le_bytes()[..n]);
            }
        }
        (rows, masks) = (rest, others);
    }
}

/// The x86-64 kernels. The only unsafe code in the crate (see `lib.rs`):
/// each safe entry point checks the CPU features its kernel enables and
/// the shape of its rows, then runs the kernel, which loads and stores
/// only inside those rows.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use std::arch::x86_64::{
        __m256i, __m512i, _mm256_and_si256, _mm256_loadu_si256, _mm256_set1_epi8,
        _mm256_setr_m128i, _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_srli_epi16,
        _mm256_storeu_si256, _mm256_xor_si256, _mm512_gf2p8affine_epi64_epi8,
        _mm512_mask_storeu_epi8, _mm512_maskz_loadu_epi8, _mm512_set1_epi64,
        _mm512_setzero_si512, _mm512_xor_si512, _mm_loadu_si128,
    };

    use std::ops::Range;

    use super::{affine, nibble_tables, shape, tile_major, tile_rows};

    /// Bytes of every row a kernel finishes, tile by tile, before it moves
    /// on: the k sources' share of them (32 KiB at k = 16) stays in the L1
    /// cache while each tile of output rows reads it.
    const COLUMN: usize = 2048;

    /// Whether the CPU runs [`gfni`]: GFNI for the multiply, AVX-512F for
    /// 64-byte registers, AVX-512BW for byte-masked loads and stores.
    /// `is_x86_feature_detected!` caches cpuid in an atomic.
    pub(super) fn has_gfni() -> bool {
        is_x86_feature_detected!("gfni")
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
    }

    /// Whether the CPU runs [`pshufb`].
    pub(super) fn has_pshufb() -> bool {
        is_x86_feature_detected!("avx2")
    }

    /// [`super::dot_on`] through `gf2p8affineqb`.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks GFNI, AVX-512F or AVX-512BW, or as
    /// [`super::dot_on`] on a misshapen product.
    pub(super) fn gfni(outs: &mut [&mut [u8]], coeffs: &[u8], srcs: &[&[u8]], accumulate: bool) {
        assert!(has_gfni(), "the GFNI kernel needs GFNI, AVX-512F and AVX-512BW");
        let len = shape(outs, coeffs, srcs);
        let mats = tile_major(coeffs, srcs.len(), 8, affine);
        // SAFETY: the CPU has every feature `gfni_dot` enables (asserted
        // above), and every row is `len` bytes long (`shape`).
        unsafe { gfni_dot(outs, &mats, srcs, len, accumulate) }
    }

    /// # Safety
    ///
    /// The CPU must have GFNI, AVX-512F and AVX-512BW, every row of
    /// `outs` and `srcs` must be `len` bytes long, and `mats` must hold
    /// `outs.len() · srcs.len()` matrices in [`tile_major`] order.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    unsafe fn gfni_dot(
        outs: &mut [&mut [u8]],
        mats: &[u64],
        srcs: &[&[u8]],
        len: usize,
        accumulate: bool,
    ) {
        for start in (0..len).step_by(COLUMN) {
            let end = len.min(start + COLUMN);
            let (mut rows, mut mats) = (&mut *outs, mats);
            while !rows.is_empty() {
                let tile = tile_rows(rows.len(), 8);
                let (these, rest) = rows.split_at_mut(tile);
                let (mine, others) = mats.split_at(tile * srcs.len());
                let at = start..end;
                match tile {
                    8 => gfni_tile::<8>(these, mine, srcs, at, accumulate),
                    4 => gfni_tile::<4>(these, mine, srcs, at, accumulate),
                    2 => gfni_tile::<2>(these, mine, srcs, at, accumulate),
                    _ => gfni_tile::<1>(these, mine, srcs, at, accumulate),
                }
                (rows, mats) = (rest, others);
            }
        }
    }

    /// Bytes `at` of `R` output rows, 64 at a time, the rows' accumulators
    /// in registers while every source passes once.
    ///
    /// # Safety
    ///
    /// As [`gfni_dot`], with `R` rows in `rows`, `R · srcs.len()` matrices
    /// in `mats`, and `at` inside every row.
    #[inline(always)]
    unsafe fn gfni_tile<const R: usize>(
        rows: &mut [&mut [u8]],
        mats: &[u64],
        srcs: &[&[u8]],
        at: Range<usize>,
        accumulate: bool,
    ) {
        for off in at.clone().step_by(64) {
            // The block's bytes: all 64, or the tail's. The masked loads
            // and stores touch only those; AVX-512 suppresses faults on
            // the rest.
            let mask = u64::MAX >> (64 - (at.end - off).min(64));
            let mut acc = [_mm512_setzero_si512(); R];
            if accumulate {
                for (a, row) in acc.iter_mut().zip(rows.iter()) {
                    *a = _mm512_maskz_loadu_epi8(mask, row.as_ptr().add(off).cast());
                }
            }
            for (src, m) in srcs.iter().zip(mats.chunks_exact(R)) {
                let s: __m512i = _mm512_maskz_loadu_epi8(mask, src.as_ptr().add(off).cast());
                for (a, &m) in acc.iter_mut().zip(m) {
                    let m = _mm512_set1_epi64(m as i64);
                    *a = _mm512_xor_si512(*a, _mm512_gf2p8affine_epi64_epi8::<0>(s, m));
                }
            }
            for (a, row) in acc.iter().zip(rows.iter_mut()) {
                _mm512_mask_storeu_epi8(row.as_mut_ptr().add(off).cast(), mask, *a);
            }
        }
    }

    /// [`super::dot_on`] through split-nibble `PSHUFB`.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks AVX2, or as [`super::dot_on`] on a misshapen
    /// product.
    pub(super) fn pshufb(outs: &mut [&mut [u8]], coeffs: &[u8], srcs: &[&[u8]], accumulate: bool) {
        assert!(has_pshufb(), "the PSHUFB kernel needs AVX2");
        let len = shape(outs, coeffs, srcs);
        let tables = tile_major(coeffs, srcs.len(), 4, nibble_tables);
        // SAFETY: the CPU has AVX2 (asserted above), and every row is
        // `len` bytes long (`shape`).
        unsafe { pshufb_dot(outs, &tables, srcs, len, accumulate) }
    }

    /// # Safety
    ///
    /// The CPU must have AVX2, every row of `outs` and `srcs` must be
    /// `len` bytes long, and `tables` must hold `outs.len() · srcs.len()`
    /// table pairs in [`tile_major`] order.
    #[target_feature(enable = "avx2")]
    unsafe fn pshufb_dot(
        outs: &mut [&mut [u8]],
        tables: &[([u8; 16], [u8; 16])],
        srcs: &[&[u8]],
        len: usize,
        accumulate: bool,
    ) {
        // Each 16-entry table in both 128-bit lanes: `PSHUFB` looks up
        // within a lane.
        let mut lanes: Vec<[__m256i; 2]> = Vec::with_capacity(tables.len());
        for (lo, hi) in tables {
            let lo = _mm_loadu_si128(lo.as_ptr().cast());
            let hi = _mm_loadu_si128(hi.as_ptr().cast());
            lanes.push([_mm256_setr_m128i(lo, lo), _mm256_setr_m128i(hi, hi)]);
        }
        for start in (0..len).step_by(COLUMN) {
            let end = len.min(start + COLUMN);
            let (mut rows, mut tabs) = (&mut *outs, lanes.as_slice());
            while !rows.is_empty() {
                let tile = tile_rows(rows.len(), 4);
                let (these, rest) = rows.split_at_mut(tile);
                let (mine, others) = tabs.split_at(tile * srcs.len());
                let at = start..end;
                match tile {
                    4 => pshufb_tile::<4>(these, mine, srcs, at, accumulate),
                    2 => pshufb_tile::<2>(these, mine, srcs, at, accumulate),
                    _ => pshufb_tile::<1>(these, mine, srcs, at, accumulate),
                }
                (rows, tabs) = (rest, others);
            }
        }
    }

    /// Bytes `at` of `R` output rows, 32 at a time.
    ///
    /// # Safety
    ///
    /// As [`pshufb_dot`], with `R` rows in `rows`, `R · srcs.len()` table
    /// pairs in `tables`, and `at` inside every row.
    #[inline(always)]
    unsafe fn pshufb_tile<const R: usize>(
        rows: &mut [&mut [u8]],
        tables: &[[__m256i; 2]],
        srcs: &[&[u8]],
        at: Range<usize>,
        accumulate: bool,
    ) {
        let nibble = _mm256_set1_epi8(0x0f);
        for off in at.clone().step_by(32) {
            let n = (at.end - off).min(32);
            let mut acc = [_mm256_setzero_si256(); R];
            if accumulate {
                for (a, row) in acc.iter_mut().zip(rows.iter()) {
                    *a = load(row, off, n);
                }
            }
            for (src, t) in srcs.iter().zip(tables.chunks_exact(R)) {
                let s = load(src, off, n);
                let lo = _mm256_and_si256(s, nibble);
                let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(s), nibble);
                for (a, [tlo, thi]) in acc.iter_mut().zip(t) {
                    let product =
                        _mm256_xor_si256(_mm256_shuffle_epi8(*tlo, lo), _mm256_shuffle_epi8(*thi, hi));
                    *a = _mm256_xor_si256(*a, product);
                }
            }
            for (a, row) in acc.iter().zip(rows.iter_mut()) {
                store(row, off, n, *a);
            }
        }
    }

    /// Bytes `off..off + n` of `row`, zero-padded to 32.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX.
    #[inline(always)]
    unsafe fn load(row: &[u8], off: usize, n: usize) -> __m256i {
        let bytes = &row[off..off + n];
        if n == 32 {
            _mm256_loadu_si256(bytes.as_ptr().cast())
        } else {
            let mut padded = [0u8; 32];
            padded[..n].copy_from_slice(bytes);
            _mm256_loadu_si256(padded.as_ptr().cast())
        }
    }

    /// Stores the first `n` bytes of `v` at `off` in `row`.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX.
    #[inline(always)]
    unsafe fn store(row: &mut [u8], off: usize, n: usize, v: __m256i) {
        let bytes = &mut row[off..off + n];
        if n == 32 {
            _mm256_storeu_si256(bytes.as_mut_ptr().cast(), v);
        } else {
            let mut padded = [0u8; 32];
            _mm256_storeu_si256(padded.as_mut_ptr().cast(), v);
            bytes.copy_from_slice(&padded[..n]);
        }
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

/// Multiply-accumulate a slice: `dst[i] ^= c * src[i]`, a one-row,
/// one-source dot product that adds to what `dst` held.
///
/// # Panics
///
/// Panics if slices have different lengths.
pub fn mul_acc_slice(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    if c != 0 {
        dot_on(Kernel::best(), &mut [dst], &[c], &[src], true);
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

    #[test]
    fn xor_slice_matches_bytewise() {
        let a: Vec<u8> = (0..77u32).map(|i| (i * 11) as u8).collect();
        let b: Vec<u8> = (0..77u32).map(|i| (i * 29 + 5) as u8).collect();
        let mut fast = a.clone();
        xor_slice(&mut fast, &b);
        let expect: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        assert_eq!(fast, expect);
    }

    /// The reduction polynomial is 0x11d: `x^7 · x` reduces to
    /// `x^4 + x^3 + x^2 + 1`. Under AES's 0x11b it would be 0x1b.
    #[test]
    fn the_field_is_0x11d() {
        assert_eq!(mul(0x80, 2), 0x1d);
        assert_eq!(exp(8), 0x1d);
    }

    /// `affine(c)` applied the way `gf2p8affineqb` applies its matrix
    /// operand (bit `i` of the result is the parity of the input ANDed
    /// with byte `7 − i`) is multiplication by `c`, for every `c` and `x`.
    #[test]
    fn affine_matrices_multiply() {
        for c in 0..=255u8 {
            let m = affine(c).to_le_bytes();
            for x in 0..=255u8 {
                let bit = |i: usize| ((m[7 - i] & x).count_ones() as u8 & 1) << i;
                let product = (0..8).fold(0u8, |p, i| p | bit(i));
                assert_eq!(product, mul(c, x), "c={c:#04x} x={x:#04x}");
            }
        }
    }

    #[test]
    fn tiles_are_the_widest_power_of_two_that_fits() {
        let cut = |mut left: usize, widest: usize| {
            let mut tiles = Vec::new();
            while left > 0 {
                tiles.push(tile_rows(left, widest));
                left -= tiles[tiles.len() - 1];
            }
            tiles
        };
        assert_eq!(cut(16, 8), [8, 8]);
        assert_eq!(cut(15, 8), [8, 4, 2, 1]);
        assert_eq!(cut(247, 8).iter().sum::<usize>(), 247);
        assert_eq!(cut(7, 4), [4, 2, 1]);
    }
}
