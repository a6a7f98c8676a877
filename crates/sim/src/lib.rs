//! Deterministic discrete-event network simulator — the substrate on which
//! every OceanStore protocol in this reproduction runs.
//!
//! The original paper assumed a planetary deployment of "millions of
//! servers" it did not yet have; its quantitative claims are all
//! protocol-level (bytes per update, hops per query, message phases per
//! commit). This crate substitutes a simulated wide area with:
//!
//! * [`topology`] — latency-weighted graphs (full WAN meshes, rings, grids,
//!   random geometric graphs) with shortest-path "IP routing" underneath
//!   overlay protocols;
//! * [`engine`] — an event queue driving sans-io [`Protocol`] state
//!   machines, with deterministic per-node randomness;
//! * [`stats`] — per-message byte accounting (Figure 6 of the paper is a
//!   byte-count experiment);
//! * failure injection — crashes, partitions, and random message drops.
//!
//! # Examples
//!
//! A two-node ping-pong:
//!
//! ```
//! use oceanstore_sim::{Context, Message, NodeId, Protocol, SimDuration, Simulator, Topology};
//!
//! #[derive(Clone)]
//! struct Ping;
//! impl Message for Ping {
//!     fn wire_size(&self) -> usize { 8 }
//! }
//!
//! struct Node { got: bool }
//! impl Protocol for Node {
//!     type Msg = Ping;
//!     fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
//!         if ctx.node() == NodeId(0) { ctx.send(NodeId(1), Ping); }
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_, Ping>, _from: NodeId, _msg: Ping) {
//!         self.got = true;
//!     }
//! }
//!
//! let topo = Topology::full_mesh(2, SimDuration::from_millis(100));
//! let mut sim = Simulator::new(topo, vec![Node { got: false }, Node { got: false }], 42);
//! sim.start();
//! sim.run_to_quiescence(100);
//! assert!(sim.node(NodeId(1)).got);
//! assert_eq!(sim.now().as_millis(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod engine;
pub mod stats;
pub mod time;
pub mod topology;

pub use cluster::ClusterSpec;
pub use engine::{Context, Message, ParCoverage, Protocol, Simulator};
pub use stats::{ClassStats, DropCause, NetStats};
pub use time::{SimDuration, SimTime};
pub use topology::{NodeId, Topology, TopologyBuilder};
