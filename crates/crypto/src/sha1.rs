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

/// Number of bytes in a SHA-1 digest (160 bits).
pub const DIGEST_LEN: usize = 20;

/// A 160-bit SHA-1 digest.
pub type Digest = [u8; DIGEST_LEN];

const H0: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

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
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            self.compress(block.try_into().expect("split_at(64) yields 64 bytes"));
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
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
            let block = self.buf;
            self.compress(&block);
            self.buf = [0; 64];
        } else {
            self.buf[n + 1..56].fill(0);
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        self.digest_bytes()
    }

    fn digest_bytes(&self) -> Digest {
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
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
        let block = h.buf;
        h.compress(&block);
        h.digest_bytes()
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
