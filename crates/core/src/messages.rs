//! The unified OceanStore wire protocol: every server speaks the
//! replication, location, and archival dialects over one envelope.

use oceanstore_archival::{ArchMsg, ArchTimer};
use oceanstore_plaxton::{PlaxtonMsg, PlaxtonTimer};
use oceanstore_replica::messages::ReplicaTimer;
use oceanstore_replica::ReplicaMsg;
use oceanstore_sim::Message;

/// Top-level message envelope.
#[derive(Debug, Clone)]
pub enum OceanMsg {
    /// Two-tier replication traffic (incl. embedded Byzantine agreement).
    Replica(ReplicaMsg),
    /// Global data-location traffic (the Plaxton mesh).
    Plaxton(PlaxtonMsg),
    /// Deep-archival traffic (fragments, repair sweep).
    Arch(ArchMsg),
}

/// Top-level timer envelope: each layer's deadlines, wrapped like its messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OceanTimer {
    /// A replication role's deadline.
    Replica(ReplicaTimer),
    /// A location-mesh deadline.
    Plaxton(PlaxtonTimer),
    /// An archival deadline.
    Arch(ArchTimer),
}

impl Message for OceanMsg {
    type Timer = OceanTimer;

    fn wire_size(&self) -> usize {
        // One envelope byte plus the inner message.
        1 + match self {
            OceanMsg::Replica(m) => m.wire_size(),
            OceanMsg::Plaxton(m) => m.wire_size(),
            OceanMsg::Arch(m) => m.wire_size(),
        }
    }

    fn class(&self) -> &'static str {
        match self {
            OceanMsg::Replica(m) => m.class(),
            OceanMsg::Plaxton(m) => m.class(),
            OceanMsg::Arch(m) => m.class(),
        }
    }
}
