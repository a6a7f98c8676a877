//! Configuration of the secondary tier and dissemination trees.

use oceanstore_sim::{NodeId, SimDuration};

/// Fault behavior of a secondary replica (the tier is built from
/// "untrusted infrastructure", so the chaos suite needs servers that lie,
/// not just servers that stop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SecondaryFault {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Byzantine: inflates its anti-entropy summaries to bait pulls, then
    /// serves forged, uncertified commit records on the pull path. Honest
    /// peers must reject every byte of it (certificates are checked on
    /// *all* ingest paths).
    ForgeOnServe,
}

/// How a dissemination-tree parent feeds one child.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildMode {
    /// Stream full certified commit records.
    Push,
    /// Send only invalidations; the child pulls on demand ("such a
    /// transformation is exploited at the leaves of the network where
    /// bandwidth is limited", §4.4.3).
    Invalidate,
}

/// Configuration of one secondary replica.
#[derive(Debug, Clone)]
pub struct SecondaryConfig {
    /// Dissemination-tree parent (a primary's disseminator reaches the
    /// root secondaries directly).
    pub parent: Option<NodeId>,
    /// Children this node feeds, with their modes.
    pub children: Vec<(NodeId, ChildMode)>,
    /// Epidemic gossip partners (other secondaries).
    pub peers: Vec<NodeId>,
    /// Anti-entropy exchange period.
    pub anti_entropy_interval: SimDuration,
    /// Tree metadata: the parent's parent, first candidate when the
    /// parent dies and this node must re-attach.
    pub grandparent: Option<NodeId>,
    /// Tree metadata: same-parent nodes, next re-parenting candidates
    /// after the grandparent.
    pub siblings: Vec<NodeId>,
    /// Last-resort attach points (the primary ring): always reachable
    /// re-join targets when the whole neighborhood is gone.
    pub fallback_parents: Vec<NodeId>,
    /// Parent liveness probe period.
    pub heartbeat_interval: SimDuration,
    /// Silence from the parent longer than this declares it dead.
    pub parent_timeout: SimDuration,
    /// Fault behavior of this replica (Byzantine chaos scenarios).
    pub fault: SecondaryFault,
}

impl Default for SecondaryConfig {
    fn default() -> Self {
        SecondaryConfig {
            parent: None,
            children: Vec::new(),
            peers: Vec::new(),
            anti_entropy_interval: SimDuration::from_millis(500),
            grandparent: None,
            siblings: Vec::new(),
            fallback_parents: Vec::new(),
            heartbeat_interval: SimDuration::from_millis(200),
            parent_timeout: SimDuration::from_millis(1000),
            fault: SecondaryFault::Honest,
        }
    }
}
