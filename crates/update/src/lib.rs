//! The OceanStore update model (§4.4.1, §4.4.2) and session guarantees.
//!
//! * [`object`] — versioned server-side objects made of ciphertext blocks
//!   and index blocks (the Figure 4 machinery).
//! * [`update`] — predicate/action updates with Bayou-style conflict
//!   resolution semantics, evaluated entirely over ciphertext.
//! * [`ops`] — the client-side toolbox: position-dependent encryption,
//!   Figure 4 insert/delete, compare-block guards, read-back.
//! * [`session`] — Bayou session guarantees (read-your-writes, monotonic
//!   reads, writes-follow-reads, monotonic writes).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod object;
pub mod ops;
pub mod session;
pub mod update;

pub use codec::{
    decode_update, decode_view, encode_after, encode_update, update_digest, DecodeError,
    UpdateDigest,
};
pub use object::{Block, DataObject, Version};
pub use ops::{ObjectKeys, ReadError};
pub use session::{Guarantee, GuaranteeSet, SessionState};
pub use update::{apply, apply_owned, apply_placing, Action, Clause, Outcome, Predicate, Update};
