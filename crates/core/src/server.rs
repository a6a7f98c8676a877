//! The composite OceanStore server (Figure 1): every node in a pool hosts
//! the replication role (primary or secondary), a slot in the global
//! location mesh, and an archival fragment store — all multiplexed over
//! one wire protocol.

use oceanstore_archival::ArchNode;
use oceanstore_plaxton::PlaxtonNode;
use oceanstore_replica::{OceanNode, ReplicaMsg, RoleHost};
use oceanstore_sim::{Context, NodeId, Protocol};

use crate::messages::{OceanMsg, OceanTimer};

/// One OceanStore node: server (primary/secondary) or client.
pub struct OceanServer {
    /// The replication role (primary, secondary, client, or idle).
    pub replica: OceanNode,
    /// The location-mesh participant (servers only).
    pub plaxton: Option<PlaxtonNode>,
    /// The archival fragment store.
    pub arch: ArchNode,
}

impl std::fmt::Debug for OceanServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OceanServer")
            .field("replica", &self.replica)
            .field("has_plaxton", &self.plaxton.is_some())
            .field("stored_fragments", &self.arch.stored_fragments())
            .finish()
    }
}

impl OceanServer {
    /// Builds a node from its parts.
    pub fn new(replica: OceanNode, plaxton: Option<PlaxtonNode>) -> Self {
        OceanServer { replica, plaxton, arch: ArchNode::new() }
    }

    /// Runs a closure against the location-mesh participant.
    ///
    /// # Panics
    ///
    /// Panics if this node has no Plaxton role (clients).
    pub fn with_plaxton<R>(
        &mut self,
        ctx: &mut Context<'_, OceanMsg>,
        f: impl FnOnce(&mut PlaxtonNode, &mut Context<'_, oceanstore_plaxton::PlaxtonMsg>) -> R,
    ) -> R {
        let plaxton = self.plaxton.as_mut().expect("node has no location role");
        ctx.with_inner(OceanMsg::Plaxton, OceanTimer::Plaxton, |ictx| f(plaxton, ictx))
    }

    /// Runs a closure against the archival store.
    pub fn with_arch<R>(
        &mut self,
        ctx: &mut Context<'_, OceanMsg>,
        f: impl FnOnce(&mut ArchNode, &mut Context<'_, oceanstore_archival::ArchMsg>) -> R,
    ) -> R {
        let arch = &mut self.arch;
        ctx.with_inner(OceanMsg::Arch, OceanTimer::Arch, |ictx| f(arch, ictx))
    }
}

/// The replication role, reached through a context that wraps its messages
/// and timers.
impl RoleHost for OceanServer {
    fn role(&self) -> &OceanNode {
        &self.replica
    }

    fn with_role<R>(
        &mut self,
        ctx: &mut Context<'_, OceanMsg>,
        f: impl FnOnce(&mut OceanNode, &mut Context<'_, ReplicaMsg>) -> R,
    ) -> R {
        let replica = &mut self.replica;
        ctx.with_inner(OceanMsg::Replica, OceanTimer::Replica, |ictx| f(replica, ictx))
    }
}

impl Protocol for OceanServer {
    type Msg = OceanMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, OceanMsg>) {
        self.with_role(ctx, |r, ictx| r.on_start(ictx));
        if self.plaxton.is_some() {
            self.with_plaxton(ctx, |p, ictx| p.on_start(ictx));
        }
        self.with_arch(ctx, |a, ictx| a.on_start(ictx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, OceanMsg>, from: NodeId, msg: OceanMsg) {
        match msg {
            OceanMsg::Replica(m) => self.with_role(ctx, |r, ictx| r.on_message(ictx, from, m)),
            OceanMsg::Plaxton(m) => {
                if self.plaxton.is_some() {
                    self.with_plaxton(ctx, |p, ictx| p.on_message(ictx, from, m));
                }
            }
            OceanMsg::Arch(m) => self.with_arch(ctx, |a, ictx| a.on_message(ictx, from, m)),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, OceanMsg>, timer: OceanTimer) {
        match timer {
            OceanTimer::Replica(t) => self.with_role(ctx, |r, ictx| r.on_timer(ictx, t)),
            OceanTimer::Plaxton(t) => {
                if self.plaxton.is_some() {
                    self.with_plaxton(ctx, |p, ictx| p.on_timer(ictx, t));
                }
            }
            OceanTimer::Arch(t) => self.with_arch(ctx, |a, ictx| a.on_timer(ictx, t)),
        }
    }
}
