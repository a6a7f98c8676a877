//! Simulation node roles for agreement experiments: a network node is
//! either a tier replica, a client, or idle (pure router).

use oceanstore_sim::{Context, NodeId, Protocol};

use crate::client::Client;
use crate::messages::{PbftMsg, PbftTimer};
use crate::replica::Replica;

/// A node in an agreement simulation.
///
/// The `Replica` variant is much larger than the others, but nodes live in
/// one flat `Vec` built at setup and every message dispatch goes through
/// this enum — boxing the replica would put a pointer chase on the
/// simulator's hottest path to save memory only on idle nodes.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum PbftNode {
    /// A primary-tier replica.
    Replica(Replica),
    /// An update-submitting client.
    Client(Client),
    /// A bystander (participates in the topology only).
    Idle,
}

impl PbftNode {
    /// The replica inside, if any.
    pub fn as_replica(&self) -> Option<&Replica> {
        match self {
            PbftNode::Replica(r) => Some(r),
            _ => None,
        }
    }

    /// Mutable replica access.
    pub fn as_replica_mut(&mut self) -> Option<&mut Replica> {
        match self {
            PbftNode::Replica(r) => Some(r),
            _ => None,
        }
    }

    /// The client inside, if any.
    pub fn as_client(&self) -> Option<&Client> {
        match self {
            PbftNode::Client(c) => Some(c),
            _ => None,
        }
    }

    /// Mutable client access.
    pub fn as_client_mut(&mut self) -> Option<&mut Client> {
        match self {
            PbftNode::Client(c) => Some(c),
            _ => None,
        }
    }
}

impl Protocol for PbftNode {
    type Msg = PbftMsg;

    fn on_message(&mut self, ctx: &mut Context<'_, PbftMsg>, from: NodeId, msg: PbftMsg) {
        match self {
            PbftNode::Replica(r) => r.on_message(ctx, from, msg),
            PbftNode::Client(c) => c.on_message(ctx, from, msg),
            PbftNode::Idle => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, PbftMsg>, timer: PbftTimer) {
        match self {
            PbftNode::Replica(r) => r.on_timer(ctx, timer),
            PbftNode::Client(c) => c.on_timer(ctx, timer),
            PbftNode::Idle => {}
        }
    }
}
