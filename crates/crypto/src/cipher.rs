//! Position-dependent block cipher (§4.4.2), built on XTEA from scratch.
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
//! [`BlockCipherKey::encrypt_block`] provides exactly that: data is split
//! into 8-byte cells, each enciphered with XTEA in an XEX-style tweaked mode
//! where the tweak binds `(object position, cell index)`; a trailing partial
//! cell is masked with a position-bound keystream so ciphertext length
//! equals plaintext length.
//!
//! XTEA here is a stand-in for a production cipher — 64 Feistel rounds, well
//! past the published attacks, but with a 64-bit block; acceptable because
//! no experiment depends on real confidentiality margins (see DESIGN.md,
//! *Substitutions*).

use crate::hmac::hmac_sha256;

const ROUNDS: u32 = 32; // 32 cycles = 64 Feistel rounds
const DELTA: u32 = 0x9E3779B9;

/// XTEA encryption of one 8-byte block.
pub fn xtea_encrypt(key: &[u32; 4], block: [u8; 8]) -> [u8; 8] {
    let mut v0 = u32::from_be_bytes(block[..4].try_into().expect("4 bytes"));
    let mut v1 = u32::from_be_bytes(block[4..].try_into().expect("4 bytes"));
    let mut sum = 0u32;
    for _ in 0..ROUNDS {
        v0 = v0.wrapping_add(
            (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1)) ^ (sum.wrapping_add(key[(sum & 3) as usize])),
        );
        sum = sum.wrapping_add(DELTA);
        v1 = v1.wrapping_add(
            (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                ^ (sum.wrapping_add(key[((sum >> 11) & 3) as usize])),
        );
    }
    let mut out = [0u8; 8];
    out[..4].copy_from_slice(&v0.to_be_bytes());
    out[4..].copy_from_slice(&v1.to_be_bytes());
    out
}

/// XTEA decryption of one 8-byte block.
pub fn xtea_decrypt(key: &[u32; 4], block: [u8; 8]) -> [u8; 8] {
    let mut v0 = u32::from_be_bytes(block[..4].try_into().expect("4 bytes"));
    let mut v1 = u32::from_be_bytes(block[4..].try_into().expect("4 bytes"));
    let mut sum = DELTA.wrapping_mul(ROUNDS);
    for _ in 0..ROUNDS {
        v1 = v1.wrapping_sub(
            (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                ^ (sum.wrapping_add(key[((sum >> 11) & 3) as usize])),
        );
        sum = sum.wrapping_sub(DELTA);
        v0 = v0.wrapping_sub(
            (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1)) ^ (sum.wrapping_add(key[(sum & 3) as usize])),
        );
    }
    let mut out = [0u8; 8];
    out[..4].copy_from_slice(&v0.to_be_bytes());
    out[4..].copy_from_slice(&v1.to_be_bytes());
    out
}

/// Key for the position-dependent cipher: an XTEA data key plus an
/// independent tweak key, XEX-style. `Debug` prints no key material.
#[derive(Clone, PartialEq, Eq)]
pub struct BlockCipherKey {
    data_key: [u32; 4],
    tweak_key: [u32; 4],
    /// The two keys' round subkeys. They depend on the key alone, so they
    /// are expanded once here and serve every cell of every block.
    data_rounds: RoundKeys,
    tweak_rounds: RoundKeys,
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
        let mut words = [0u32; 8];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u32::from_be_bytes(d[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        let data_key = words[..4].try_into().expect("4 words");
        let tweak_key = words[4..].try_into().expect("4 words");
        BlockCipherKey {
            data_key,
            tweak_key,
            data_rounds: round_keys(&data_key),
            tweak_rounds: round_keys(&tweak_key),
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

    fn tweak(&self, position: u64, cell: u64) -> [u8; 8] {
        let mut t = [0u8; 8];
        t[..4].copy_from_slice(&fold(position).to_be_bytes());
        t[4..].copy_from_slice(&fold(cell).to_be_bytes());
        xtea_encrypt(&self.tweak_key, t)
    }

    /// Enciphers (or deciphers) the `L` whole cells of `src`, the first of
    /// which is cell number `first`, into `dst`: tweak XTEA, XOR, data
    /// XTEA, XOR, each step on all `L` cells at once.
    #[inline(always)]
    fn xex_cells<const L: usize>(
        &self,
        position: u32,
        first: u64,
        src: &[u8],
        dst: &mut [u8],
        encrypt: bool,
    ) {
        let word = |b: &[u8]| u32::from_be_bytes(b.try_into().expect("4 bytes"));
        let mut t0 = [position; L];
        let mut t1: [u32; L] = std::array::from_fn(|l| fold(first + l as u64));
        xtea_lanes(&self.tweak_rounds, &mut t0, &mut t1, true);
        let (mut v0, mut v1) = ([0u32; L], [0u32; L]);
        for (l, cell) in src.chunks_exact(8).enumerate() {
            v0[l] = word(&cell[..4]) ^ t0[l];
            v1[l] = word(&cell[4..]) ^ t1[l];
        }
        xtea_lanes(&self.data_rounds, &mut v0, &mut v1, encrypt);
        for (l, cell) in dst.chunks_exact_mut(8).enumerate() {
            cell[..4].copy_from_slice(&(v0[l] ^ t0[l]).to_be_bytes());
            cell[4..].copy_from_slice(&(v1[l] ^ t1[l]).to_be_bytes());
        }
    }

    /// The widest build of [`BlockCipherKey::apply_lanes`] this CPU runs:
    /// the AVX2 one, else the portable one (the body as the crate's
    /// target compiles it).
    fn apply(&self, position: u64, data: &[u8], encrypt: bool) -> Vec<u8> {
        self.apply_avx2(position, data, encrypt)
            .unwrap_or_else(|| self.apply_lanes(position, data, encrypt))
    }

    /// [`BlockCipherKey::apply_lanes`] built with AVX2 enabled, or `None`
    /// when the running CPU lacks it. `is_x86_feature_detected!` caches the
    /// cpuid result in an atomic, so asking per call is cheap.
    #[allow(unsafe_code)] // dispatch into the feature-gated build
    fn apply_avx2(&self, position: u64, data: &[u8], encrypt: bool) -> Option<Vec<u8>> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just confirmed at runtime, and
            // `apply_lanes_avx2` is safe code apart from that requirement.
            return Some(unsafe { self.apply_lanes_avx2(position, data, encrypt) });
        }
        let _ = (position, data, encrypt); // unused off x86_64
        None
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn apply_lanes_avx2(&self, position: u64, data: &[u8], encrypt: bool) -> Vec<u8> {
        self.apply_lanes(position, data, encrypt)
    }

    /// The cipher's one body. `#[inline(always)]` down to the Feistel
    /// rounds, so `apply` and `apply_lanes_avx2` each get their own copy,
    /// vectorised for the instruction set that build enables.
    #[inline(always)]
    fn apply_lanes(&self, position: u64, data: &[u8], encrypt: bool) -> Vec<u8> {
        let folded = fold(position);
        let mut out = vec![0u8; data.len()];
        // Whole groups of `LANES` cells, then the remaining whole cells,
        // then a partial trailing cell.
        let group = 8 * LANES;
        let (groups, rest) = data.split_at(data.len() - data.len() % group);
        let (out_groups, out_rest) = out.split_at_mut(groups.len());
        let mut cell = 0u64;
        for (src, dst) in groups.chunks_exact(group).zip(out_groups.chunks_exact_mut(group)) {
            self.xex_cells::<LANES>(folded, cell, src, dst, encrypt);
            cell += LANES as u64;
        }
        let (cells, tail) = rest.split_at(rest.len() / 8 * 8);
        let (out_cells, out_tail) = out_rest.split_at_mut(cells.len());
        if cells.len() < 8 * FEW_CELLS {
            for (src, dst) in cells.chunks_exact(8).zip(out_cells.chunks_exact_mut(8)) {
                self.xex_cells::<1>(folded, cell, src, dst, encrypt);
                cell += 1;
            }
        } else {
            // One group zero-padded to `LANES` cells. Lanes are
            // independent, so the padding's output is simply dropped.
            let (mut src, mut dst) = ([0u8; 8 * LANES], [0u8; 8 * LANES]);
            src[..cells.len()].copy_from_slice(cells);
            self.xex_cells::<LANES>(folded, cell, &src, &mut dst, encrypt);
            out_cells.copy_from_slice(&dst[..cells.len()]);
        }
        if !tail.is_empty() {
            // Partial trailing cell: XOR with a position-bound keystream
            // (encryption of the tweak for a sentinel cell index).
            let ks = xtea_encrypt(&self.data_key, self.tweak(position, u64::MAX));
            for ((o, b), k) in out_tail.iter_mut().zip(tail).zip(ks) {
                *o = b ^ k;
            }
        }
        out
    }
}

/// Cells enciphered side by side. XEX cells are independent, so the 64
/// Feistel rounds of `LANES` of them advance as one loop over `[u32; LANES]`
/// arrays, which the compiler turns into vector instructions; a single
/// cell is one serial dependency chain 128 operations long. 32 lanes are
/// four 256-bit registers per array under AVX2 (eight 128-bit ones in the
/// portable build): enough independent work to hide each round's latency.
/// Narrower groups leave the AVX2 build slower than 8 lanes without it
/// (EXPERIMENTS.md, PR 25).
const LANES: usize = 32;

/// Fewer whole cells than this after the last full group go one at a
/// time (about 0.25 µs a cell); from this many on, one padded group of
/// `LANES` costs no more (about 0.5 µs under AVX2, 0.9 µs portable). An
/// 8-byte append is one cell.
const FEW_CELLS: usize = 4;

/// An XTEA key schedule: the two subkeys of each of the 32 cycles.
type RoundKeys = [[u32; 2]; ROUNDS as usize];

fn round_keys(key: &[u32; 4]) -> RoundKeys {
    let mut sum = 0u32;
    std::array::from_fn(|_| {
        let k0 = sum.wrapping_add(key[(sum & 3) as usize]);
        sum = sum.wrapping_add(DELTA);
        [k0, sum.wrapping_add(key[((sum >> 11) & 3) as usize])]
    })
}

/// Folds a 64-bit position or cell index into one tweak word.
fn fold(x: u64) -> u32 {
    x as u32 ^ (x >> 32) as u32
}

/// XTEA over `L` cells in lock-step: the same rounds as [`xtea_encrypt`] /
/// [`xtea_decrypt`], with cell `l` held in `(v0[l], v1[l])`.
#[inline(always)]
fn xtea_lanes<const L: usize>(
    keys: &RoundKeys,
    v0: &mut [u32; L],
    v1: &mut [u32; L],
    encrypt: bool,
) {
    // One Feistel half-round's contribution: mix(src) ^ subkey.
    let f = |src: u32, k: u32| (((src << 4) ^ (src >> 5)).wrapping_add(src)) ^ k;
    if encrypt {
        for &[k0, k1] in keys {
            for l in 0..L {
                v0[l] = v0[l].wrapping_add(f(v1[l], k0));
            }
            for l in 0..L {
                v1[l] = v1[l].wrapping_add(f(v0[l], k1));
            }
        }
    } else {
        for &[k0, k1] in keys.iter().rev() {
            for l in 0..L {
                v1[l] = v1[l].wrapping_sub(f(v0[l], k1));
            }
            for l in 0..L {
                v0[l] = v0[l].wrapping_sub(f(v1[l], k0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xtea_roundtrip() {
        let key = [0x01020304, 0x05060708, 0x090a0b0c, 0x0d0e0f10];
        let pt = *b"ABCDEFGH";
        let ct = xtea_encrypt(&key, pt);
        assert_ne!(ct, pt);
        assert_eq!(xtea_decrypt(&key, ct), pt);
    }

    #[test]
    fn xtea_key_sensitivity() {
        let k1 = [1, 2, 3, 4];
        let k2 = [1, 2, 3, 5];
        assert_ne!(xtea_encrypt(&k1, *b"ABCDEFGH"), xtea_encrypt(&k2, *b"ABCDEFGH"));
    }

    #[test]
    fn block_roundtrip_various_lengths() {
        let key = BlockCipherKey::from_seed(b"object-key");
        for len in [0usize, 1, 7, 8, 9, 16, 100, 1024, 1025] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            let ct = key.encrypt_block(42, &pt);
            assert_eq!(ct.len(), pt.len(), "length preserved at len={len}");
            assert_eq!(key.decrypt_block(42, &ct), pt, "roundtrip at len={len}");
        }
    }

    /// The cipher as first written: one cell at a time through the public
    /// single-cell XTEA. The reference for the lock-step lanes.
    fn per_cell(key: &BlockCipherKey, position: u64, data: &[u8], encrypt: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len());
        let mut cells = data.chunks_exact(8);
        for (i, cell) in cells.by_ref().enumerate() {
            let t = key.tweak(position, i as u64);
            let mut b: [u8; 8] = cell.try_into().expect("8 bytes");
            for (x, y) in b.iter_mut().zip(&t) {
                *x ^= y;
            }
            let mut c = if encrypt {
                xtea_encrypt(&key.data_key, b)
            } else {
                xtea_decrypt(&key.data_key, b)
            };
            for (x, y) in c.iter_mut().zip(&t) {
                *x ^= y;
            }
            out.extend_from_slice(&c);
        }
        let ks = xtea_encrypt(&key.data_key, key.tweak(position, u64::MAX));
        out.extend(cells.remainder().iter().zip(ks).map(|(b, k)| b ^ k));
        out
    }

    /// Every lane, the single-cell remainder and the partial-cell
    /// keystream against the per-cell reference, at positions that
    /// exercise the `position >> 32` fold. Both builds are called
    /// directly (the AVX2 one when this CPU has it): the public API only
    /// ever reaches one of them. Lengths 0–520 take in every remainder
    /// around one and two 256-byte groups.
    #[test]
    fn lanes_match_per_cell_reference() {
        let key = BlockCipherKey::from_seed(b"object-key");
        let data: Vec<u8> = (0..4099u32).map(|i| (i.wrapping_mul(73) ^ (i >> 5)) as u8).collect();
        let apply = |build: &str, position: u64, data: &[u8], encrypt: bool| match build {
            "portable" => Some(key.apply_lanes(position, data, encrypt)),
            _ => key.apply_avx2(position, data, encrypt),
        };
        for build in ["portable", "avx2"] {
            for position in [0u64, 7, 1 << 40] {
                for len in (0..=520).chain([1024, 4096, 4099]) {
                    let pt = &data[..len];
                    let Some(ct) = apply(build, position, pt, true) else { continue };
                    let at = format!("{build}, {len} bytes at {position}");
                    assert_eq!(ct, per_cell(&key, position, pt, true), "encrypt, {at}");
                    assert_eq!(
                        apply(build, position, pt, false),
                        Some(per_cell(&key, position, pt, false)),
                        "decrypt, {at}"
                    );
                    assert_eq!(key.decrypt_block(position, &ct), pt, "round trip, {at}");
                }
            }
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
        // Within one block, two identical 8-byte cells must encrypt
        // differently (the XEX tweak includes the cell index).
        let key = BlockCipherKey::from_seed(b"k");
        let pt = vec![0x55u8; 16];
        let ct = key.encrypt_block(0, &pt);
        assert_ne!(&ct[..8], &ct[8..16]);
    }
}
