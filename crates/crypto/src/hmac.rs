//! HMAC (RFC 2104) over the in-crate SHA-1 and SHA-256.
//!
//! Used by the searchable-encryption scheme ([`crate::swp`]) as the
//! pseudo-random function, and for deriving deterministic nonces in
//! [`crate::schnorr`] (RFC 6979-style, so signing needs no RNG and the whole
//! simulation stays deterministic).

use crate::sha1::{self, Sha1};
use crate::sha256::{self, Sha256};

const BLOCK: usize = 64;

/// The inner and outer pads of `key`: the key as one block, zero-padded
/// (hashed first only when it is longer than a block), XORed with 0x36
/// and with 0x5c.
fn pads<D: AsRef<[u8]>>(key: &[u8], hash: fn(&[u8]) -> D) -> ([u8; BLOCK], [u8; BLOCK]) {
    let mut k = [0u8; BLOCK];
    if key.len() > BLOCK {
        let hashed = hash(key);
        k[..hashed.as_ref().len()].copy_from_slice(hashed.as_ref());
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    (k.map(|b| b ^ 0x36), k.map(|b| b ^ 0x5c))
}

/// HMAC-SHA1 of `msg` under `key`.
pub fn hmac_sha1(key: &[u8], msg: &[u8]) -> sha1::Digest {
    let (ipad, opad) = pads(key, sha1::sha1);
    let mut inner = Sha1::new();
    inner.update(&ipad);
    inner.update(msg);
    let inner_digest = inner.finalize();
    let mut outer = Sha1::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// HMAC-SHA256 of `msg` under `key`.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> sha256::Digest {
    let (ipad, opad) = pads(key, sha256::sha256);
    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(msg);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 2202 test case 1.
    #[test]
    fn rfc2202_sha1_case1() {
        let key = [0x0b; 20];
        assert_eq!(
            hex(&hmac_sha1(&key, b"Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
    }

    // RFC 2202 test case 2: key "Jefe".
    #[test]
    fn rfc2202_sha1_case2() {
        assert_eq!(
            hex(&hmac_sha1(b"Jefe", b"what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
    }

    // RFC 2202 test case 6: 80-byte key (longer than block size).
    #[test]
    fn rfc2202_sha1_long_key() {
        let key = [0xaa; 80];
        assert_eq!(
            hex(&hmac_sha1(&key, b"Test Using Larger Than Block-Size Key - Hash Key First")),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112"
        );
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_sha256_case1() {
        let key = [0x0b; 20];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2.
    #[test]
    fn rfc4231_sha256_case2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }
}
