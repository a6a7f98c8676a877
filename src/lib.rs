//! # OceanStore — a Rust reproduction
//!
//! A from-scratch implementation of *OceanStore: An Architecture for
//! Global-Scale Persistent Storage* (Kubiatowicz et al., ASPLOS 2000):
//! a global-scale persistent storage utility built on untrusted servers,
//! with promiscuous caching, Byzantine update serialization, erasure-coded
//! deep archival storage, a two-tier data location system, and
//! introspective optimization — all running over a deterministic
//! discrete-event network simulator.
//!
//! This crate re-exports the workspace:
//!
//! | module | contents |
//! |--------|----------|
//! | [`sim`] | discrete-event WAN simulator |
//! | [`crypto`] | SHA-1/SHA-256, HMAC, Merkle trees, Schnorr signatures, position-dependent cipher, searchable encryption |
//! | [`naming`] | self-certifying GUIDs, directories, ACLs |
//! | [`erasure`] | Reed-Solomon + Tornado-style codes |
//! | [`bloom`] | attenuated Bloom filters, probabilistic location |
//! | [`plaxton`] | the global location mesh |
//! | [`consensus`] | PBFT-style Byzantine agreement |
//! | [`update`] | predicate/action updates over ciphertext, sessions |
//! | [`replica`] | primary + secondary tiers, dissemination trees |
//! | [`archival`] | deep archival storage and its reliability math |
//! | [`introspect`] | event handlers, clustering, prefetching, migration |
//! | [`core`] | the assembled system + legacy facades |
//!
//! # Quickstart
//!
//! ```
//! use oceanstore::core::system::{OceanStore, UpdateOutcome};
//! use oceanstore::update::ops;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ocean = OceanStore::builder().build();
//! let obj = ocean.create_object(0, "hello");
//! let update = ops::initial_write(&obj.keys, b"hello", &[b"ocean"], &[]);
//! assert_eq!(ocean.update(0, &obj, &update)?, UpdateOutcome::Committed { version: 1 });
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use oceanstore_archival as archival;
pub use oceanstore_bloom as bloom;
pub use oceanstore_consensus as consensus;
pub use oceanstore_core as core;
pub use oceanstore_crypto as crypto;
pub use oceanstore_erasure as erasure;
pub use oceanstore_introspect as introspect;
pub use oceanstore_naming as naming;
pub use oceanstore_plaxton as plaxton;
pub use oceanstore_replica as replica;
pub use oceanstore_sim as sim;
pub use oceanstore_update as update;
