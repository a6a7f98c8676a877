//! Erasure codes for OceanStore's deep archival storage (§4.5).
//!
//! Two codecs, matching the paper:
//!
//! * [`rs::ReedSolomon`] — systematic Reed-Solomon over GF(2^8): any `k` of
//!   `n` fragments reconstruct the object exactly.
//! * [`tornado::Tornado`] — a Tornado-style XOR peeling code: much cheaper
//!   arithmetic, needs slightly more than `k` fragments (footnote 12).
//!
//! [`object`] frames an arbitrary byte object into one buffer of `k`
//! equal-length shards and offers the [`object::ObjectCodec`] the archival
//! layer consumes. Both codes run one path: the framed buffer in, the
//! parity out in one buffer ([`object::ObjectCodec::encode_framed`]), and
//! the framed buffer back from any sufficient set of fragments
//! ([`object::ObjectCodec::decode_framed`]).
//!
//! # Examples
//!
//! ```
//! use oceanstore_erasure::object::{frame, CodeKind, ObjectCodec};
//!
//! # fn main() -> Result<(), oceanstore_erasure::rs::CodeError> {
//! let codec = ObjectCodec::new(CodeKind::ReedSolomon, 4, 8, 0)?;
//! let framed = frame(b"archival me", 4);
//! let parity = codec.encode_framed(&framed)?;
//! let len = framed.len() / 4;
//! let mut have: Vec<_> = framed.chunks(len).chain(parity.chunks(len)).map(Some).collect();
//! // Any 4 of the 8 fragments suffice:
//! have[0] = None; have[2] = None; have[5] = None; have[7] = None;
//! let (joined, object) = codec.decode_framed(&have)?;
//! assert_eq!(&joined[object], b"archival me");
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the one sanctioned exception is `gf256::x86`,
// the module of the runtime-dispatched x86-64 dot-product kernels (GFNI on
// AVX-512, split-nibble `PSHUFB` on AVX2), which carries its own
// `#[allow(unsafe_code)]`: its safe entry points check the CPU features and
// the row shapes, each `unsafe` block under a SAFETY comment. Everything
// else in the crate stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod gf256;
pub mod matrix;
pub mod object;
pub mod rs;
pub mod tornado;

pub use object::{CodeKind, ObjectCodec};
pub use rs::{CodeError, ReedSolomon};
pub use tornado::Tornado;
