//! Composite simulation node for the replication layer.

use oceanstore_sim::{Context, NodeId, Protocol};

use crate::client::UpdateClient;
use crate::messages::{ReplicaMsg, ReplicaTimer};
use crate::primary::Primary;
use crate::secondary::Secondary;

/// A node in a two-tier replication deployment.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum OceanNode {
    /// Primary-tier server (agreement + dissemination).
    Primary(Primary),
    /// Secondary-tier server (epidemic + tree).
    Secondary(Secondary),
    /// An update-submitting client.
    Client(UpdateClient),
    /// Bystander.
    Idle,
}

impl OceanNode {
    /// Primary accessor.
    pub fn as_primary(&self) -> Option<&Primary> {
        match self {
            OceanNode::Primary(p) => Some(p),
            _ => None,
        }
    }

    /// Secondary accessor.
    pub fn as_secondary(&self) -> Option<&Secondary> {
        match self {
            OceanNode::Secondary(s) => Some(s),
            _ => None,
        }
    }

    /// Mutable primary accessor.
    pub fn as_primary_mut(&mut self) -> Option<&mut Primary> {
        match self {
            OceanNode::Primary(p) => Some(p),
            _ => None,
        }
    }

    /// Mutable secondary accessor.
    pub fn as_secondary_mut(&mut self) -> Option<&mut Secondary> {
        match self {
            OceanNode::Secondary(s) => Some(s),
            _ => None,
        }
    }

    /// Client accessor.
    pub fn as_client(&self) -> Option<&UpdateClient> {
        match self {
            OceanNode::Client(c) => Some(c),
            _ => None,
        }
    }

    /// Mutable client accessor.
    pub fn as_client_mut(&mut self) -> Option<&mut UpdateClient> {
        match self {
            OceanNode::Client(c) => Some(c),
            _ => None,
        }
    }
}

impl Protocol for OceanNode {
    type Msg = ReplicaMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ReplicaMsg>) {
        match self {
            OceanNode::Primary(p) => p.on_start(ctx),
            OceanNode::Secondary(s) => s.on_start(ctx),
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ReplicaMsg>, from: NodeId, msg: ReplicaMsg) {
        match self {
            OceanNode::Primary(p) => match msg {
                ReplicaMsg::Pbft(inner) => p.on_pbft(ctx, from, inner),
                ReplicaMsg::ResultShare { object, index, update_digest, version, replica, sig }
                | ReplicaMsg::ShareRebroadcast {
                    object,
                    index,
                    update_digest,
                    version,
                    replica,
                    sig,
                    ..
                } => {
                    p.on_result_share(ctx, object, index, update_digest, version, replica, sig);
                }
                ReplicaMsg::CertFormed { object, index, cert } => {
                    p.on_cert_formed(ctx, object, index, cert);
                }
                ReplicaMsg::CommitAck { object, index } => {
                    p.on_commit_ack(ctx, from, object, index);
                }
                ReplicaMsg::FetchCommits { object, from_index } => {
                    p.on_fetch(ctx, from, object, from_index);
                }
                ReplicaMsg::Commits { records } => p.on_commits(ctx, records),
                ReplicaMsg::AntiEntropyDigest { digest } => p.on_digest(ctx, from, digest),
                ReplicaMsg::AntiEntropySummary { entries } => p.on_summary(ctx, from, entries),
                ReplicaMsg::Ping => ctx.send(from, ReplicaMsg::Pong),
                ReplicaMsg::Attach => p.on_attach(ctx, from),
                _ => {}
            },
            OceanNode::Secondary(s) => {
                // Anything the parent sends proves it alive.
                s.note_traffic(from, ctx.now());
                match msg {
                    ReplicaMsg::Tentative { object, update, timestamp, id } => {
                        s.on_tentative(ctx, object, update, timestamp, id);
                    }
                    ReplicaMsg::Commit(record) => {
                        s.on_commit(ctx, from, record);
                    }
                    ReplicaMsg::Commits { records } => s.on_commits(ctx, from, records),
                    ReplicaMsg::Invalidate { object, index, .. } => {
                        s.on_invalidate(ctx, object, index)
                    }
                    ReplicaMsg::FetchCommits { object, from_index } => {
                        s.on_fetch(ctx, from, object, from_index);
                    }
                    ReplicaMsg::AntiEntropyDigest { digest } => s.on_digest(ctx, from, digest),
                    ReplicaMsg::AntiEntropySummary { entries } => s.on_summary(ctx, from, entries),
                    ReplicaMsg::Ping => s.on_ping(ctx, from),
                    ReplicaMsg::Pong => {}
                    ReplicaMsg::Attach => s.on_attach(ctx, from),
                    ReplicaMsg::AttachOk { grandparent } => s.on_attach_ok(ctx, from, grandparent),
                    _ => {}
                }
            }
            OceanNode::Client(c) => c.on_message(ctx, from, msg),
            OceanNode::Idle => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ReplicaMsg>, timer: ReplicaTimer) {
        match (self, timer) {
            (OceanNode::Primary(p), ReplicaTimer::Primary(t)) => p.on_timer(ctx, t),
            (OceanNode::Secondary(s), ReplicaTimer::Secondary(t)) => s.on_timer(ctx, t),
            (OceanNode::Client(c), ReplicaTimer::Client(t)) => c.on_timer(ctx, t),
            // Armed by a role this node no longer plays: nothing to guard.
            _ => {}
        }
    }
}
