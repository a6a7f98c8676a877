//! Introspection: OceanStore's observation/optimization layer (§4.7).
//!
//! "Introspection augments a system's normal operation (computation) with
//! observation and optimization" (Figure 7). The modules here are the
//! concrete optimization subsystems the paper describes:
//!
//! * [`event`] — the loop-free event-handler DSL, the local soft-state
//!   summary database, and hierarchical roll-ups (Figure 8).
//! * [`cluster`] — cluster recognition over a semantic-distance graph.
//! * [`replica_mgmt`] — load-driven creation/elimination of floating
//!   replicas with hysteresis.
//! * [`prefetch`] — the order-k access predictor whose noise robustness
//!   §5 reports.
//! * [`migration`] — day/night usage-cycle detection and prefetch plans.
//!
//! The health of the replicas and their stores is not mirrored here:
//! `ReplicaHealth` (consensus) and `StoreHealth` (replica) are the one
//! record of it, read directly by the chaos oracles and the benchmark.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod event;
pub mod migration;
pub mod prefetch;
pub mod replica_mgmt;

pub use cluster::ClusterRecognizer;
pub use event::{Aggregate, Event, Expr, Handler, RollUp, Summary, SummaryDb};
pub use migration::MigrationDetector;
pub use prefetch::{hit_rate, Prefetcher};
pub use replica_mgmt::{ReplicaAction, ReplicaManager};
