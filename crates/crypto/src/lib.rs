//! Cryptographic substrate for the OceanStore reproduction.
//!
//! Everything here is implemented from scratch (no external crypto crates):
//!
//! * [`sha1`] / [`sha256`] — the paper's secure hashes (§4.1 uses SHA-1).
//! * [`hmac`] — RFC 2104 MACs, used as PRFs throughout.
//! * [`merkle`] — the hierarchical fragment-hash trees of §4.5 that make
//!   archival fragments self-verifying.
//! * [`schnorr`] — signature scheme standing in for DSA/RSA (toy-security
//!   61-bit group, production-shaped interface; see DESIGN.md).
//! * [`threshold`] — k-of-n serialization certificates (§4.4.3's proactive
//!   signature slot).
//! * [`cipher`] — the position-dependent block cipher §4.4.2 requires for
//!   `compare-block`/`replace-block` over ciphertext.
//! * [`swp`] — Song–Wagner–Perrig-style searchable encryption for the
//!   `search` predicate.
//!
//! # Examples
//!
//! Hash-then-sign, as every OceanStore update is handled:
//!
//! ```
//! use oceanstore_crypto::{schnorr::{KeyPair, verify}, sha1::sha1};
//!
//! let kp = KeyPair::from_seed(b"client-7");
//! let digest = sha1(b"update payload");
//! let sig = kp.sign(&digest);
//! assert!(verify(kp.public(), &digest, &sig));
//! ```

// `deny` rather than `forbid`: the SHA-NI backends in `sha1` and `sha256`
// each need a scoped `allow(unsafe_code)` for their CPU intrinsics,
// `cipher::ni`, the AES-NI and VAES builds of the block cipher (one group
// body over xmm or ymm registers), a third, and `sha1::lanes`, SHA-1 in
// sixteen AVX-512 or eight AVX2 lanes (one kernel body over zmm or ymm
// registers), a fourth. Everything else in the crate stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cipher;
pub mod hmac;
pub mod merkle;
pub mod schnorr;
pub mod sha1;
pub mod sha256;
pub mod swp;
pub mod threshold;

/// Renders a digest (or any byte string) as lowercase hex.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn hex_renders() {
        assert_eq!(super::hex(&[0x00, 0xff, 0x10]), "00ff10");
        assert_eq!(super::hex(&[]), "");
    }
}
