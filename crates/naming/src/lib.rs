//! Naming and access control for OceanStore (§4.1, §4.2).
//!
//! * [`guid`] — 160-bit self-certifying GUIDs for objects, servers, and
//!   archival fragments, with the digit-extraction helpers the Plaxton
//!   location mesh routes by, and the keyed hash tables ([`IdMap`],
//!   [`IdSet`]) for identifier keys.
//! * [`bytes`] — [`Bytes`], an immutable view of a shared buffer: the
//!   one type servers hold content-named ciphertext in.
//! * [`directory`] — directory objects mapping human-readable names to
//!   GUIDs, with client-chosen roots ("the system as a whole has no one
//!   root").
//! * [`acl`] — reader restriction (key distribution + revocation
//!   generations) and writer restriction (signed ACL certificates checked
//!   by servers).
//!
//! # Examples
//!
//! ```
//! use oceanstore_crypto::schnorr::KeyPair;
//! use oceanstore_naming::guid::Guid;
//!
//! let owner = KeyPair::from_seed(b"alice");
//! let guid = Guid::for_object(owner.public(), "calendar");
//! // Any server can check ownership from the GUID alone:
//! assert!(guid.certifies(owner.public(), "calendar"));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acl;
pub mod bytes;
pub mod directory;
pub mod guid;

pub use acl::{Acl, AclCertificate, AclChoice, Privilege};
pub use bytes::Bytes;
pub use directory::{DirEntry, Directory};
pub use guid::{Guid, IdMap, IdSet};
