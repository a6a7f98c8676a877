//! Position-dependent block cipher (§4.4.2): AES-128 in XEX mode, built
//! from scratch.
//!
//! The paper's ciphertext-side update operations (`compare-block`,
//! `replace-block`, `append`) are "easy if the encryption technology is a
//! position-dependent block cipher: the client simply computes a hash of the
//! encrypted block and submits it along with the block number for
//! comparison". The required property is: *the same plaintext encrypted at
//! the same block position under the same key yields the same ciphertext*,
//! while the same plaintext at a *different* position yields different
//! ciphertext.
//!
//! [`BlockCipherKey::encrypt_block`] provides exactly that. One object
//! block is one data unit of two-key XEX (Rogaway, "Efficient
//! Instantiations of Tweakable Blockciphers", ASIACRYPT 2004), which is
//! the XTS mode of IEEE 1619 without ciphertext stealing. With K1 the data
//! key and K2 the tweak key:
//!
//! * the block splits into 16-byte cells;
//! * cell `j` of the block at `position` is masked with
//!   Δ_j = AES_K2(position as a little-endian 128-bit block) · x^j, the
//!   product taken in GF(2^128) mod x^128 + x^7 + x^2 + x + 1 (XTS
//!   doubling: the mask, read as a little-endian integer, shifts left by
//!   one, and a carry out of bit 127 XORs 0x87 into the low byte);
//! * C_j = AES_K1(P_j ⊕ Δ_j) ⊕ Δ_j;
//! * a trailing partial cell of `r` < 16 bytes is XORed with the first `r`
//!   bytes of AES_K1(AES_K2(S)), where S is the little-endian 128-bit block
//!   whose low 64 bits are the position and whose high 64 bits are all
//!   ones. It depends on the key and the position only, so ciphertext
//!   length equals plaintext length. (Cell masks start from a block whose
//!   high 64 bits are zero, so S is never a mask's input.)
//!
//! Three builds give bit-identical output, and every call takes the
//! widest the CPU has: `ni::vaes`, sixteen cells per VAES round;
//! `ni::aes_ni`, eight cells per AES-NI round; and the portable
//! byte-oriented FIPS-197 AES below, the only path off x86-64 and the
//! oracle the tests hold the others to.

use crate::hmac::hmac_sha256;

/// Bytes per cell: one AES block.
const CELL: usize = 16;

/// An AES-128 key schedule: the eleven round keys, in FIPS-197 byte order.
type Schedule = [[u8; CELL]; 11];

/// Key for the position-dependent cipher: an AES-128 data key plus an
/// independent tweak key. `Debug` prints no key material.
#[derive(Clone, PartialEq, Eq)]
pub struct BlockCipherKey {
    /// K1's encryption round keys.
    data: Schedule,
    /// K1's round keys for the equivalent inverse cipher (FIPS-197
    /// §5.3.5): rounds 1–9 through InvMixColumns, the form `aesdec` takes.
    data_inv: Schedule,
    /// K2's encryption round keys.
    tweak: Schedule,
}

impl std::fmt::Debug for BlockCipherKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCipherKey").finish_non_exhaustive()
    }
}

impl BlockCipherKey {
    /// Derives a key deterministically from a seed (the object owner's read
    /// key material in the full system).
    pub fn from_seed(seed: &[u8]) -> Self {
        let d = hmac_sha256(b"oceanstore-block-cipher", seed);
        Self::from_keys(
            d[..CELL].try_into().expect("16 bytes"),
            d[CELL..].try_into().expect("16 bytes"),
        )
    }

    /// The key with data key `k1` and tweak key `k2`, every schedule
    /// expanded once here to serve every cell of every block.
    fn from_keys(k1: [u8; CELL], k2: [u8; CELL]) -> Self {
        let data = expand_key(k1);
        let mut data_inv = data;
        for k in &mut data_inv[1..10] {
            *k = mix_columns(*k, true);
        }
        BlockCipherKey {
            data,
            data_inv,
            tweak: expand_key(k2),
        }
    }

    /// Encrypts `plaintext` as the object block at `position`.
    ///
    /// Deterministic: identical `(key, position, plaintext)` always yields
    /// identical ciphertext — the property `compare-block` relies on.
    /// Output length equals input length.
    pub fn encrypt_block(&self, position: u64, plaintext: &[u8]) -> Vec<u8> {
        self.apply(position, plaintext, true)
    }

    /// Decrypts a block previously produced by
    /// [`BlockCipherKey::encrypt_block`] at the same `position`.
    pub fn decrypt_block(&self, position: u64, ciphertext: &[u8]) -> Vec<u8> {
        self.apply(position, ciphertext, false)
    }

    /// The VAES build when the CPU has it, else the AES-NI build, else the
    /// portable one.
    fn apply(&self, position: u64, data: &[u8], encrypt: bool) -> Vec<u8> {
        #[cfg(target_arch = "x86_64")]
        if let Some(out) = ni::apply(self, position, data, encrypt) {
            return out;
        }
        self.apply_portable(position, data, encrypt)
    }

    /// The mode over the portable AES, one cell at a time.
    fn apply_portable(&self, position: u64, data: &[u8], encrypt: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len());
        let mut delta = u128::from_le_bytes(encipher(&self.tweak, mask_block(position)));
        let mut cells = data.chunks_exact(CELL);
        for cell in cells.by_ref() {
            let mask = delta.to_le_bytes();
            let x = xor(cell.try_into().expect("16 bytes"), mask);
            let y = if encrypt {
                encipher(&self.data, x)
            } else {
                decipher(&self.data_inv, x)
            };
            out.extend_from_slice(&xor(y, mask));
            delta = (delta << 1) ^ ((delta >> 127) * 0x87);
        }
        let tail = cells.remainder();
        if !tail.is_empty() {
            let ks = encipher(&self.data, encipher(&self.tweak, tail_block(position)));
            out.extend(tail.iter().zip(ks).map(|(b, k)| b ^ k));
        }
        out
    }
}

/// The block AES_K2 turns into cell 0's mask.
fn mask_block(position: u64) -> [u8; CELL] {
    u128::from(position).to_le_bytes()
}

/// The block S whose double encipherment is the partial cell's keystream.
fn tail_block(position: u64) -> [u8; CELL] {
    (u128::from(position) | (u128::from(u64::MAX) << 64)).to_le_bytes()
}

fn xor(a: [u8; CELL], b: [u8; CELL]) -> [u8; CELL] {
    std::array::from_fn(|i| a[i] ^ b[i])
}

// ---- Portable AES-128, byte-oriented, as FIPS-197 states it ----------
//
// A state is 16 bytes in input order: byte `r + 4c` is row `r` of column
// `c`. The S-box is computed at compile time from its definition (the
// inverse in GF(2^8) mod x^8 + x^4 + x^3 + x + 1, then the affine map).

/// Multiplication by x in GF(2^8).
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ ((b >> 7) * 0x1b)
}

const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

static SBOX: [u8; 256] = {
    let mut s = [0u8; 256];
    let mut x = 0;
    while x < 256 {
        // x^254 = x^-1 (and 0 for 0): the product of x^2, x^4, …, x^128.
        let (mut sq, mut inv) = (x as u8, 1u8);
        let mut i = 1;
        while i < 8 {
            sq = gf_mul(sq, sq);
            inv = gf_mul(inv, sq);
            i += 1;
        }
        s[x] = inv
            ^ inv.rotate_left(1)
            ^ inv.rotate_left(2)
            ^ inv.rotate_left(3)
            ^ inv.rotate_left(4)
            ^ 0x63;
        x += 1;
    }
    s
};

static INV_SBOX: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut x = 0;
    while x < 256 {
        t[SBOX[x] as usize] = x as u8;
        x += 1;
    }
    t
};

/// FIPS-197 §5.2 for a 128-bit key.
fn expand_key(key: [u8; CELL]) -> Schedule {
    let mut rk = [key; 11];
    let mut rcon = 1u8;
    for r in 1..11 {
        let prev = rk[r - 1];
        // SubWord(RotWord(w[4r - 1])) ^ Rcon, then each word of the round
        // key is the one before it XOR the word four back.
        let mut w = [
            SBOX[prev[13] as usize] ^ rcon,
            SBOX[prev[14] as usize],
            SBOX[prev[15] as usize],
            SBOX[prev[12] as usize],
        ];
        for (i, b) in rk[r].iter_mut().enumerate() {
            w[i % 4] ^= prev[i];
            *b = w[i % 4];
        }
        rcon = xtime(rcon);
    }
    rk
}

/// SubBytes then ShiftRows, or their inverses (each pair commutes). Row
/// `r` rotates left by `r`, so byte `i = r + 4c` comes from byte
/// `5i mod 16`; rotating right, from byte `13i mod 16`.
fn sub_shift(s: [u8; CELL], inverse: bool) -> [u8; CELL] {
    let (sbox, step) = if inverse { (&INV_SBOX, 13) } else { (&SBOX, 5) };
    std::array::from_fn(|i| sbox[s[i * step % CELL] as usize])
}

/// MixColumns, or InvMixColumns: the inverse is MixColumns after folding
/// 4·(a0 ^ a2) into rows 0 and 2 and 4·(a1 ^ a3) into rows 1 and 3, since
/// {0e 0b 0d 09} = {02 03 01 01} · {05 00 04 00}.
fn mix_columns(mut s: [u8; CELL], inverse: bool) -> [u8; CELL] {
    for col in s.chunks_exact_mut(4) {
        let [mut a0, mut a1, mut a2, mut a3] = [col[0], col[1], col[2], col[3]];
        if inverse {
            let (u, v) = (xtime(xtime(a0 ^ a2)), xtime(xtime(a1 ^ a3)));
            (a0, a1, a2, a3) = (a0 ^ u, a1 ^ v, a2 ^ u, a3 ^ v);
        }
        let all = a0 ^ a1 ^ a2 ^ a3;
        col.copy_from_slice(&[
            a0 ^ all ^ xtime(a0 ^ a1),
            a1 ^ all ^ xtime(a1 ^ a2),
            a2 ^ all ^ xtime(a2 ^ a3),
            a3 ^ all ^ xtime(a3 ^ a0),
        ]);
    }
    s
}

/// AES-128 encryption of one block under the schedule `rk`.
fn encipher(rk: &Schedule, block: [u8; CELL]) -> [u8; CELL] {
    let mut s = xor(block, rk[0]);
    for (r, k) in rk.iter().enumerate().skip(1) {
        s = sub_shift(s, false);
        if r < 10 {
            s = mix_columns(s, false);
        }
        s = xor(s, *k);
    }
    s
}

/// AES-128 decryption of one block by the equivalent inverse cipher
/// (FIPS-197 §5.3.5), under `BlockCipherKey::data_inv`-style round keys.
fn decipher(dk: &Schedule, block: [u8; CELL]) -> [u8; CELL] {
    let mut s = xor(block, dk[10]);
    for r in (0..10).rev() {
        s = sub_shift(s, true);
        if r > 0 {
            s = mix_columns(s, true);
        }
        s = xor(s, dk[r]);
    }
    s
}

/// The mode on AES-NI, bit-identical to
/// [`BlockCipherKey::apply_portable`] (asserted against a byte-wise XEX
/// reference by the tests below), in two widths from one group body:
///
/// * `vaes`: sixteen cells per round, two in each of eight ymm registers
///   (VAES, VPCLMULQDQ and AVX2: AMD Zen 3, Intel Ice Lake and later);
/// * `aes_ni`: eight cells per round, one in each of eight xmm registers
///   (AES-NI and PCLMULQDQ: every x86-64 CPU since Westmere).
///
/// `aesenc` issues every cycle but takes several to finish, so eight
/// independent registers keep the unit busy. Each register keeps its own
/// mask and advances it by x^W once per W-cell group (one byte shift and
/// one carry-less multiply, [`Lanes::advance`]), so no mask waits on the
/// one before it: XEX allows Δ_{j+W} = Δ_j · x^W for any W.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // CPU intrinsics, as in `sha1::ni`
mod ni {
    use super::{mask_block, tail_block, BlockCipherKey, Schedule, CELL};
    use core::arch::x86_64::*;

    /// Registers per group: enough independent work to cover `aesenc`'s
    /// latency.
    const REGS: usize = 8;

    /// The mode over `data` with the widest build the running CPU has, or
    /// `None` when it has neither. `is_x86_feature_detected!` caches the
    /// cpuid result in an atomic, so asking per call is cheap.
    pub fn apply(
        key: &BlockCipherKey,
        position: u64,
        data: &[u8],
        encrypt: bool,
    ) -> Option<Vec<u8>> {
        vaes(key, position, data, encrypt).or_else(|| aes_ni(key, position, data, encrypt))
    }

    /// Sixteen cells per round, or `None` without VAES, VPCLMULQDQ and AVX2.
    pub fn vaes(
        key: &BlockCipherKey,
        position: u64,
        data: &[u8],
        encrypt: bool,
    ) -> Option<Vec<u8>> {
        if !(std::arch::is_x86_feature_detected!("vaes")
            && std::arch::is_x86_feature_detected!("vpclmulqdq")
            && std::arch::is_x86_feature_detected!("avx2")
            && has_aes_ni())
        {
            return None;
        }
        let mut out = vec![0u8; data.len()];
        // SAFETY: every feature `xex_vaes` enables was just confirmed.
        unsafe { xex_vaes(key, position, data, &mut out, encrypt) };
        Some(out)
    }

    /// Eight cells per round, or `None` without AES-NI and PCLMULQDQ.
    pub fn aes_ni(
        key: &BlockCipherKey,
        position: u64,
        data: &[u8],
        encrypt: bool,
    ) -> Option<Vec<u8>> {
        if !has_aes_ni() {
            return None;
        }
        let mut out = vec![0u8; data.len()];
        // SAFETY: every feature `xex_aes_ni` enables was just confirmed.
        unsafe { xex_aes_ni(key, position, data, &mut out, encrypt) };
        Some(out)
    }

    fn has_aes_ni() -> bool {
        std::arch::is_x86_feature_detected!("aes")
            && std::arch::is_x86_feature_detected!("pclmulqdq")
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU has every feature enabled here.
    #[target_feature(enable = "vaes,vpclmulqdq,avx2,aes,pclmulqdq")]
    unsafe fn xex_vaes(
        key: &BlockCipherKey,
        position: u64,
        data: &[u8],
        out: &mut [u8],
        encrypt: bool,
    ) {
        xex::<__m256i>(key, position, data, out, encrypt);
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU has every feature enabled here.
    #[target_feature(enable = "aes,pclmulqdq")]
    unsafe fn xex_aes_ni(
        key: &BlockCipherKey,
        position: u64,
        data: &[u8],
        out: &mut [u8],
        encrypt: bool,
    ) {
        xex::<__m128i>(key, position, data, out, encrypt);
    }

    /// A SIMD register of `CELLS` cells side by side, each in its own
    /// 128-bit lane, with the operations the group body needs.
    ///
    /// Every method is `#[inline(always)]` so that it lands in the
    /// `#[target_feature]` function that instantiates [`xex`], where the
    /// intrinsics inline too.
    trait Lanes: Copy {
        /// Cells per register.
        const CELLS: usize;
        /// Bytes per register.
        const BYTES: usize = Self::CELLS * CELL;

        /// The register whose cells take the masks `first`, `first · x`,
        /// …, and the mask of the cell after them.
        unsafe fn spread(first: __m128i) -> (Self, __m128i);
        /// One round key in every lane.
        unsafe fn splat(k: __m128i) -> Self;
        /// `BYTES` bytes from `p`, unaligned.
        unsafe fn load(p: *const u8) -> Self;
        /// `BYTES` bytes to `p`, unaligned.
        unsafe fn store(self, p: *mut u8);
        unsafe fn xor(self, b: Self) -> Self;
        unsafe fn enc(self, k: Self) -> Self;
        unsafe fn enc_last(self, k: Self) -> Self;
        unsafe fn dec(self, k: Self) -> Self;
        unsafe fn dec_last(self, k: Self) -> Self;
        /// Each lane's mask times x^W, W = `REGS · CELLS` the cells in a
        /// group: the lane shifts left by W/8 bytes, and the W bits
        /// shifted out of bit 127 come back multiplied by 0x87 (x^128 =
        /// x^7 + x^2 + x + 1), a product of at most 23 bits that the
        /// low 64-bit carry-less multiply holds whole.
        unsafe fn advance(self) -> Self;
    }

    impl Lanes for __m128i {
        const CELLS: usize = 1;

        #[inline(always)]
        unsafe fn spread(first: __m128i) -> (Self, __m128i) {
            (first, double(first))
        }
        #[inline(always)]
        unsafe fn splat(k: __m128i) -> Self {
            k
        }
        #[inline(always)]
        unsafe fn load(p: *const u8) -> Self {
            _mm_loadu_si128(p.cast())
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut u8) {
            _mm_storeu_si128(p.cast(), self)
        }
        #[inline(always)]
        unsafe fn xor(self, b: Self) -> Self {
            _mm_xor_si128(self, b)
        }
        #[inline(always)]
        unsafe fn enc(self, k: Self) -> Self {
            _mm_aesenc_si128(self, k)
        }
        #[inline(always)]
        unsafe fn enc_last(self, k: Self) -> Self {
            _mm_aesenclast_si128(self, k)
        }
        #[inline(always)]
        unsafe fn dec(self, k: Self) -> Self {
            _mm_aesdec_si128(self, k)
        }
        #[inline(always)]
        unsafe fn dec_last(self, k: Self) -> Self {
            _mm_aesdeclast_si128(self, k)
        }
        #[inline(always)]
        unsafe fn advance(self) -> Self {
            let out = _mm_srli_si128::<15>(self);
            let fold = _mm_clmulepi64_si128::<0x00>(out, _mm_cvtsi32_si128(0x87));
            _mm_xor_si128(_mm_slli_si128::<1>(self), fold)
        }
    }

    impl Lanes for __m256i {
        const CELLS: usize = 2;

        #[inline(always)]
        unsafe fn spread(first: __m128i) -> (Self, __m128i) {
            let second = double(first);
            (_mm256_set_m128i(second, first), double(second))
        }
        #[inline(always)]
        unsafe fn splat(k: __m128i) -> Self {
            _mm256_broadcastsi128_si256(k)
        }
        #[inline(always)]
        unsafe fn load(p: *const u8) -> Self {
            _mm256_loadu_si256(p.cast())
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut u8) {
            _mm256_storeu_si256(p.cast(), self)
        }
        #[inline(always)]
        unsafe fn xor(self, b: Self) -> Self {
            _mm256_xor_si256(self, b)
        }
        #[inline(always)]
        unsafe fn enc(self, k: Self) -> Self {
            _mm256_aesenc_epi128(self, k)
        }
        #[inline(always)]
        unsafe fn enc_last(self, k: Self) -> Self {
            _mm256_aesenclast_epi128(self, k)
        }
        #[inline(always)]
        unsafe fn dec(self, k: Self) -> Self {
            _mm256_aesdec_epi128(self, k)
        }
        #[inline(always)]
        unsafe fn dec_last(self, k: Self) -> Self {
            _mm256_aesdeclast_epi128(self, k)
        }
        #[inline(always)]
        unsafe fn advance(self) -> Self {
            let out = _mm256_bsrli_epi128::<14>(self);
            let fold = _mm256_clmulepi64_epi128::<0x00>(out, _mm256_set1_epi64x(0x87));
            _mm256_xor_si256(_mm256_bslli_epi128::<2>(self), fold)
        }
    }

    /// The mode with the whole cells in groups of `REGS` registers of `R`.
    ///
    /// # Safety
    ///
    /// Inlined only into [`xex_vaes`] and [`xex_aes_ni`], whose callers
    /// confirm the features `R`'s intrinsics need. The loads and stores
    /// stay inside `data` and `out`: [`group`] checks the lengths it is
    /// handed.
    #[inline(always)]
    unsafe fn xex<R: Lanes>(
        key: &BlockCipherKey,
        position: u64,
        data: &[u8],
        out: &mut [u8],
        encrypt: bool,
    ) {
        let whole = data.len() / CELL * CELL;
        let (cells, tail) = data.split_at(whole);
        let (out_cells, out_tail) = out.split_at_mut(whole);
        let tweak = schedule(&key.tweak);
        if !cells.is_empty() {
            groups::<R>(key, &tweak, position, cells, out_cells, encrypt);
        }
        if !tail.is_empty() {
            let data_keys = schedule(&key.data);
            let ks = encipher(&data_keys, encipher(&tweak, load(&tail_block(position))));
            let mut bytes = [0u8; CELL];
            _mm_storeu_si128(bytes.as_mut_ptr().cast(), ks);
            for ((o, b), k) in out_tail.iter_mut().zip(tail).zip(bytes) {
                *o = b ^ k;
            }
        }
    }

    /// The whole cells of `src` into `dst`. Everything per call (round
    /// keys in every lane, the first group's masks) is set up before the
    /// group loop; the loop only runs groups and advances masks.
    ///
    /// # Safety
    ///
    /// As for [`xex`].
    #[inline(always)]
    unsafe fn groups<R: Lanes>(
        key: &BlockCipherKey,
        tweak: &[__m128i; 11],
        position: u64,
        src: &[u8],
        dst: &mut [u8],
        encrypt: bool,
    ) {
        let keys = schedule(if encrypt { &key.data } else { &key.data_inv });
        let rk: [R; 11] = std::array::from_fn(|r| R::splat(keys[r]));
        let mut next = encipher(tweak, load(&mask_block(position)));
        let mut masks = [R::splat(next); REGS];
        for m in &mut masks {
            (*m, next) = R::spread(next);
        }

        let mut src = src.chunks_exact(REGS * R::BYTES);
        let mut dst = dst.chunks_exact_mut(REGS * R::BYTES);
        for (s, d) in src.by_ref().zip(dst.by_ref()) {
            group(&rk, &masks, s, d, encrypt);
            for m in &mut masks {
                *m = m.advance();
            }
        }
        // Fewer whole cells than a group: one more group over a padded
        // copy (sized for the widest register), its masks the ones the
        // loop left.
        let rest = src.remainder();
        if !rest.is_empty() {
            let mut buf = [[0u8; REGS * 2 * CELL]; 2];
            let n = REGS * R::BYTES;
            buf[0][..rest.len()].copy_from_slice(rest);
            let [pad_in, pad_out] = &mut buf;
            group(&rk, &masks, &pad_in[..n], &mut pad_out[..n], encrypt);
            dst.into_remainder().copy_from_slice(&pad_out[..rest.len()]);
        }
    }

    /// One group: the `REGS · R::CELLS` cells of `src` into `dst`, cell
    /// `j` masked with lane `j` of `masks`.
    ///
    /// # Safety
    ///
    /// As for [`xex`]. The assert keeps every load inside `src` and every
    /// store inside `dst`.
    #[inline(always)]
    unsafe fn group<R: Lanes>(
        rk: &[R; 11],
        masks: &[R; REGS],
        src: &[u8],
        dst: &mut [u8],
        encrypt: bool,
    ) {
        assert!(
            src.len() == REGS * R::BYTES && dst.len() == REGS * R::BYTES,
            "one group"
        );
        let mut s: [R; REGS] =
            std::array::from_fn(|i| R::load(src.as_ptr().add(i * R::BYTES)).xor(masks[i]));
        if encrypt {
            for x in &mut s {
                *x = x.xor(rk[0]);
            }
            for &k in &rk[1..10] {
                for x in &mut s {
                    *x = x.enc(k);
                }
            }
            for x in &mut s {
                *x = x.enc_last(rk[10]);
            }
        } else {
            for x in &mut s {
                *x = x.xor(rk[10]);
            }
            for &k in rk[1..10].iter().rev() {
                for x in &mut s {
                    *x = x.dec(k);
                }
            }
            for x in &mut s {
                *x = x.dec_last(rk[0]);
            }
        }
        for (i, (x, m)) in s.iter().zip(masks).enumerate() {
            x.xor(*m).store(dst.as_mut_ptr().add(i * R::BYTES));
        }
    }

    /// AES-128 encryption of one block.
    #[inline(always)]
    unsafe fn encipher(rk: &[__m128i; 11], block: __m128i) -> __m128i {
        let mut s = _mm_xor_si128(block, rk[0]);
        for &k in &rk[1..10] {
            s = _mm_aesenc_si128(s, k);
        }
        _mm_aesenclast_si128(s, rk[10])
    }

    /// The mask times x, for the first group's masks only: each 64-bit
    /// half shifts left by one, bit 63 carries into bit 64, and bit 127
    /// comes back as 0x87 in the low byte. The shuffle puts words 3 and 1
    /// (the halves' top bits) under words 0 and 2, and the arithmetic
    /// shift spreads each top bit across its word.
    #[inline(always)]
    unsafe fn double(d: __m128i) -> __m128i {
        let carries = _mm_srai_epi32::<31>(_mm_shuffle_epi32::<0x13>(d));
        _mm_xor_si128(
            _mm_add_epi64(d, d),
            _mm_and_si128(carries, _mm_set_epi32(0, 1, 0, 0x87)),
        )
    }

    #[inline(always)]
    unsafe fn load(block: &[u8; CELL]) -> __m128i {
        _mm_loadu_si128(block.as_ptr().cast())
    }

    #[inline(always)]
    unsafe fn schedule(keys: &Schedule) -> [__m128i; 11] {
        keys.map(|k| load(&k))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// One mask advance in each SIMD width equals 8 (xmm) or 16 (ymm)
        /// doublings of every lane, on masks with and without their top bits
        /// set: the bits shifted out must come back reduced.
        #[test]
        fn mask_advance_equals_doublings() {
            use std::arch::is_x86_feature_detected as has;

            fn doubled(mut d: u128, times: u32) -> u128 {
                for _ in 0..times {
                    d = (d << 1) ^ ((d >> 127) * 0x87);
                }
                d
            }
            let masks = [
                0,
                1,
                0x87,
                1 << 127,
                u128::MAX,
                0xFFFF << 112,
                0xA5 << 120 | 0x0123_4567_89AB_CDEF,
                0x8000_0000_0000_0001_8000_0000_0000_0001,
                0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210,
            ];
            let lanes = |bytes: &[u8]| -> Vec<u128> {
                bytes
                    .chunks_exact(CELL)
                    .map(|c| u128::from_le_bytes(c.try_into().expect("one lane")))
                    .collect()
            };
            if has!("pclmulqdq") {
                for d in masks {
                    let mut out = [0u8; CELL];
                    // SAFETY: SSE2 and PCLMULQDQ are present; 16 bytes each way.
                    unsafe {
                        __m128i::load(d.to_le_bytes().as_ptr())
                            .advance()
                            .store(out.as_mut_ptr())
                    };
                    assert_eq!(lanes(&out), [doubled(d, 8)], "x^8 on {d:#x}");
                }
            }
            if has!("vpclmulqdq") && has!("avx2") {
                for (lo, hi) in masks.iter().zip(masks.iter().rev()) {
                    let mut two = [0u8; 2 * CELL];
                    two[..CELL].copy_from_slice(&lo.to_le_bytes());
                    two[CELL..].copy_from_slice(&hi.to_le_bytes());
                    let mut out = [0u8; 2 * CELL];
                    // SAFETY: AVX2 and VPCLMULQDQ are present; 32 bytes each way.
                    unsafe {
                        __m256i::load(two.as_ptr())
                            .advance()
                            .store(out.as_mut_ptr())
                    };
                    assert_eq!(
                        lanes(&out),
                        [doubled(*lo, 16), doubled(*hi, 16)],
                        "x^16 on {lo:#x}, {hi:#x}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(hex: &str) -> [u8; CELL] {
        std::array::from_fn(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex"))
    }

    /// FIPS-197 Appendix C.1 and Appendix B: (key, plaintext, ciphertext).
    const FIPS_197: [(&str, &str, &str); 2] = [
        (
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        ),
        (
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        ),
    ];

    #[test]
    fn portable_aes_known_answers() {
        for (k, p, c) in FIPS_197 {
            let key = BlockCipherKey::from_keys(block(k), [0; CELL]);
            assert_eq!(encipher(&key.data, block(p)), block(c), "encrypt under {k}");
            assert_eq!(
                decipher(&key.data_inv, block(c)),
                block(p),
                "decrypt under {k}"
            );
        }
    }

    /// A build of the mode, called directly; `None` when the CPU lacks it.
    type Build = fn(&BlockCipherKey, u64, &[u8], bool) -> Option<Vec<u8>>;

    /// The SIMD builds by name: the public API only ever reaches one.
    #[cfg(target_arch = "x86_64")]
    const SIMD_BUILDS: [(&str, Build); 2] = [("aes-ni", ni::aes_ni), ("vaes", ni::vaes)];

    /// Bare AES through each SIMD build: one cell at position 0, masked
    /// going in and unmasked coming out with the mask the portable AES
    /// computes.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn ni_aes_known_answers() {
        for (name, build) in SIMD_BUILDS {
            for (k, p, c) in FIPS_197 {
                let key = BlockCipherKey::from_keys(block(k), [0; CELL]);
                let mask = encipher(&key.tweak, mask_block(0));
                let through = |x: [u8; CELL], encrypt: bool| {
                    let y = build(&key, 0, &xor(x, mask), encrypt)?;
                    Some(xor(y.try_into().expect("one cell"), mask))
                };
                let Some(ct) = through(block(p), true) else {
                    break;
                }; // no such build here
                assert_eq!(ct, block(c), "{name}: encrypt under {k}");
                assert_eq!(
                    through(block(c), false),
                    Some(block(p)),
                    "{name}: decrypt under {k}"
                );
            }
        }
    }

    /// XTS-AES-128 vectors 1 and 2 of IEEE 1619: two whole cells, so the
    /// mode is XTS exactly.
    #[test]
    fn ieee_1619_vectors() {
        let cases = [
            (
                [0u8; CELL],
                [0u8; CELL],
                0u64,
                [0u8; 32],
                "917cf69ebd68b2ec9b9fe9a3eadda692cd43d2f59598ed858c02c2652fbf922e",
            ),
            (
                [0x11; CELL],
                [0x22; CELL],
                0x33_3333_3333,
                [0x44; 32],
                "c454185e6a16936e39334038acef838bfb186fff7480adc4289382ecd6d394f0",
            ),
        ];
        for (k1, k2, position, pt, ct) in cases {
            let key = BlockCipherKey::from_keys(k1, k2);
            assert_eq!(crate::hex(&key.encrypt_block(position, &pt)), ct);
            assert_eq!(crate::hex(&key.apply_portable(position, &pt, true)), ct);
        }
    }

    /// The mode one cell at a time with the portable AES, the mask
    /// multiplied by x byte by byte as IEEE 1619 words it. The reference
    /// both builds are held to.
    fn per_cell(key: &BlockCipherKey, position: u64, data: &[u8], encrypt: bool) -> Vec<u8> {
        let mut start = [0u8; CELL];
        start[..8].copy_from_slice(&position.to_le_bytes());
        let mut t = encipher(&key.tweak, start);
        let mut out = Vec::with_capacity(data.len());
        let mut cells = data.chunks_exact(CELL);
        for cell in cells.by_ref() {
            let x = xor(cell.try_into().expect("16 bytes"), t);
            let y = if encrypt {
                encipher(&key.data, x)
            } else {
                decipher(&key.data_inv, x)
            };
            out.extend_from_slice(&xor(y, t));
            let mut carry = 0;
            for b in &mut t {
                (*b, carry) = (*b << 1 | carry, *b >> 7);
            }
            t[0] ^= 0x87 * carry;
        }
        start[8..].fill(0xFF);
        let ks = encipher(&key.data, encipher(&key.tweak, start));
        out.extend(cells.remainder().iter().zip(ks).map(|(b, k)| b ^ k));
        out
    }

    /// Every remainder around one and two groups of eight or sixteen
    /// cells (lengths 0–520, which hold the edge at 255–257), 1 KiB, and
    /// every length from 4 080 to 4 112 (a 4 KiB block give or take a
    /// cell, 4 099 among them), at positions that use the position's high
    /// half.
    fn for_each_case(mut check: impl FnMut(u64, &[u8])) {
        let data: Vec<u8> = (0..4112u32)
            .map(|i| (i.wrapping_mul(73) ^ (i >> 5)) as u8)
            .collect();
        for position in [0u64, 7, 1 << 40] {
            for len in (0..=520).chain([1024]).chain(4080..=4112) {
                check(position, &data[..len]);
            }
        }
    }

    /// `build` against the per-cell reference in both directions, and
    /// back again; nothing to check when the CPU lacks the build.
    fn matches_per_cell_reference(name: &str, build: Build) {
        let key = BlockCipherKey::from_seed(b"object-key");
        for_each_case(|position, pt| {
            let at = format!("{name}, {} bytes at {position}", pt.len());
            let Some(ct) = build(&key, position, pt, true) else {
                return;
            };
            assert_eq!(ct, per_cell(&key, position, pt, true), "encrypt, {at}");
            let back = build(&key, position, pt, false);
            assert_eq!(
                back,
                Some(per_cell(&key, position, pt, false)),
                "decrypt, {at}"
            );
            assert_eq!(
                build(&key, position, &ct, false).as_deref(),
                Some(pt),
                "round trip, {at}"
            );
        });
    }

    #[test]
    fn portable_matches_per_cell_reference() {
        matches_per_cell_reference("portable", |key, position, data, encrypt| {
            Some(key.apply_portable(position, data, encrypt))
        });
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn aes_ni_matches_per_cell_reference() {
        matches_per_cell_reference("aes-ni", ni::aes_ni);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vaes_matches_per_cell_reference() {
        matches_per_cell_reference("vaes", ni::vaes);
    }

    /// The format, pinned: a change to the mode or the key derivation
    /// must edit this line.
    #[test]
    fn pinned_vector() {
        let key = BlockCipherKey::from_seed(b"object-key");
        let pt: Vec<u8> = (0..40).collect();
        assert_eq!(
            crate::hex(&key.encrypt_block(42, &pt)),
            "cbda6e52aa0ff2a5f9a78e56b4034bdd8f8e6c1812f68c8e7e8a7465cbfc29ce845b895172822b58"
        );
    }

    #[test]
    fn block_roundtrip_various_lengths() {
        let key = BlockCipherKey::from_seed(b"object-key");
        for len in [0usize, 1, 15, 16, 17, 100, 1024, 1025] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            let ct = key.encrypt_block(42, &pt);
            assert_eq!(ct.len(), pt.len(), "length preserved at len={len}");
            assert_eq!(key.decrypt_block(42, &ct), pt, "roundtrip at len={len}");
        }
    }

    #[test]
    fn debug_prints_no_key_material() {
        let key = BlockCipherKey::from_seed(b"object-key");
        assert_eq!(format!("{key:?}"), "BlockCipherKey { .. }");
    }

    #[test]
    fn position_dependence() {
        // Same plaintext, same key, different position => different ciphertext.
        let key = BlockCipherKey::from_seed(b"object-key");
        let pt = vec![0xAAu8; 64];
        assert_ne!(key.encrypt_block(1, &pt), key.encrypt_block(2, &pt));
    }

    #[test]
    fn positions_above_2_32_encipher_differently() {
        // Positions equal in the XOR of their 32-bit halves: whole cells
        // and a partial cell alike must still depend on all 64 bits.
        let key = BlockCipherKey::from_seed(b"object-key");
        for pt in [vec![0xAAu8; 64], vec![0xAAu8; 5]] {
            for (a, b) in [(0u64, (1 << 32) + 1), (7, 7 << 32)] {
                assert_ne!(
                    key.encrypt_block(a, &pt),
                    key.encrypt_block(b, &pt),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn determinism_enables_compare_block() {
        // Same (key, position, plaintext) => same ciphertext; this is what
        // makes the compare-block predicate work on ciphertext (§4.4.2).
        let key = BlockCipherKey::from_seed(b"object-key");
        let pt = b"shared calendar entry".to_vec();
        assert_eq!(key.encrypt_block(7, &pt), key.encrypt_block(7, &pt));
    }

    #[test]
    fn wrong_position_garbles() {
        let key = BlockCipherKey::from_seed(b"object-key");
        let ct = key.encrypt_block(3, b"some plaintext bytes!");
        assert_ne!(key.decrypt_block(4, &ct), b"some plaintext bytes!".to_vec());
    }

    #[test]
    fn key_separation() {
        let k1 = BlockCipherKey::from_seed(b"a");
        let k2 = BlockCipherKey::from_seed(b"b");
        let pt = vec![7u8; 32];
        assert_ne!(k1.encrypt_block(0, &pt), k2.encrypt_block(0, &pt));
    }

    #[test]
    fn identical_cells_at_different_offsets_differ() {
        // Within one block, two identical cells must encrypt differently
        // (each cell's mask is a different power of x).
        let key = BlockCipherKey::from_seed(b"k");
        let pt = vec![0x55u8; 2 * CELL];
        let ct = key.encrypt_block(0, &pt);
        assert_ne!(&ct[..CELL], &ct[CELL..]);
    }
}
