//! Configuration of the secondary tier and dissemination trees.

use oceanstore_sim::{NodeId, SimDuration};

/// Disseminator-failover knobs for the primary tier.
///
/// A record's serialization certificate is assembled by one rotating
/// member; if that member is crashed the signature shares go nowhere and
/// the record never reaches the dissemination tree. With failover enabled
/// every signer re-broadcasts its share to the next member in rotation
/// order (`(base + attempt) % n`) whenever no certificate materializes
/// within the deadline, so any `f + 1` consecutive rotation slots contain
/// at least one live disseminator.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Whether share re-broadcast runs at all. Disable to demonstrate the
    /// single-disseminator liveness hole (chaos `disseminator_crash`).
    pub enabled: bool,
    /// How long a signer waits for the certificate before re-routing its
    /// share to the next fallback disseminator.
    pub share_retry_timeout: SimDuration,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig { enabled: true, share_retry_timeout: SimDuration::from_millis(500) }
    }
}

/// Acked re-push knobs for the tier→tree edge.
///
/// The disseminator pushes each certified record to its `Push` children
/// exactly once; if that single `Commit` is lost, recovery used to wait
/// for a full anti-entropy period. With re-push enabled the disseminator
/// keeps every certified record on a bounded retry schedule until each
/// `Push` child acks it (`CommitAck`), backing off exponentially; and any
/// *other* primary that learns of the cert (`CertFormed`) arms a delayed
/// watchdog, so a crashed or islanded disseminator is covered too. The
/// retry budget is capped: once exhausted, the record degrades gracefully
/// to the existing anti-entropy repair path.
#[derive(Debug, Clone)]
pub struct RepushConfig {
    /// Whether acked re-push runs at all (default `true`). With `false`
    /// a lost tier→tree push is repaired by anti-entropy alone; the chaos
    /// suites run that degraded mode through [`crate::DeploymentOpts::repush`].
    pub enabled: bool,
    /// How long the disseminator waits for a child's ack before
    /// re-pushing. Must exceed one push+ack round trip or healthy records
    /// double-send.
    pub ack_timeout: SimDuration,
    /// Deadline multiplier per retry (exponential backoff).
    pub backoff: u32,
    /// Re-pushes per record before giving up and leaving the record to
    /// anti-entropy.
    pub max_retries: u32,
    /// Observer primaries (who saw `CertFormed` but are not the
    /// disseminator) arm their first watchdog at `ack_timeout *
    /// observer_grace`, giving the disseminator first crack and keeping
    /// the healthy path free of duplicate pushes.
    pub observer_grace: u32,
}

impl Default for RepushConfig {
    fn default() -> Self {
        RepushConfig {
            enabled: true,
            ack_timeout: SimDuration::from_millis(60),
            backoff: 2,
            max_retries: 4,
            observer_grace: 2,
        }
    }
}

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
    /// How many peers a fresh tentative update is rumored to.
    pub gossip_fanout: usize,
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
    /// Whether an orphaned node seeks a new parent. Disable to study the
    /// failure mode (orphaned subtrees stop converging through the tree).
    pub reparent_enabled: bool,
    /// After this many FetchCommits pulls with no Commits response, pull
    /// from a random gossip peer instead of the (possibly dead) parent.
    pub max_unanswered_pulls: u32,
    /// Fault behavior of this replica (Byzantine chaos scenarios).
    pub fault: SecondaryFault,
}

impl Default for SecondaryConfig {
    fn default() -> Self {
        SecondaryConfig {
            parent: None,
            children: Vec::new(),
            peers: Vec::new(),
            gossip_fanout: 2,
            anti_entropy_interval: SimDuration::from_millis(500),
            grandparent: None,
            siblings: Vec::new(),
            fallback_parents: Vec::new(),
            heartbeat_interval: SimDuration::from_millis(200),
            parent_timeout: SimDuration::from_millis(1000),
            reparent_enabled: true,
            max_unanswered_pulls: 3,
            fault: SecondaryFault::Honest,
        }
    }
}
