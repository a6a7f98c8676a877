//! Attenuated Bloom filters and the probabilistic data-location algorithm
//! of OceanStore (§4.3.2, Figure 2).
//!
//! This is the *fast, probabilistic* half of OceanStore's two-tier location
//! mechanism: it finds objects in the local vicinity quickly; a miss hands
//! the query to the slower, deterministic global algorithm (the Plaxton
//! mesh in `oceanstore-plaxton`).
//!
//! * [`filter`] — plain and attenuated Bloom filters.
//! * [`routing`] — the hill-climbing query protocol with soft-state filter
//!   advertisement and per-neighbour reliability penalties.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod filter;
pub mod routing;

pub use filter::{AttenuatedBloom, BloomFilter};
pub use routing::{BloomConfig, BloomMsg, BloomNode, BloomTimer, QueryOutcome};
