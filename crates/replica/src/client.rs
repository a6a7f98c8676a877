//! The client side of the full update path (Figure 5a): "a client sends it
//! directly to the object's primary tier, as well as to several other
//! random replicas for that object."
//!
//! With sharded consensus the "object's primary tier" is no longer *the*
//! tier: the client carries a [`ShardRouter`] plus one PBFT client per
//! ring and routes each update to the ring that owns its AGUID. Client
//! sequence numbers are allocated from one counter across all rings, so a
//! `RequestId` (and the `TentativeId` derived from it) stays unique
//! per-client no matter which ring served it.

use oceanstore_consensus::client::{Client as PbftClient, ClientOutcome};
use oceanstore_consensus::messages::{Payload, PbftTimer, RequestId};
use oceanstore_consensus::replica::TierConfig;
use oceanstore_crypto::schnorr::KeyPair;
use oceanstore_naming::guid::Guid;
use oceanstore_sim::{Context, NodeId, SimDuration};
use oceanstore_update::Update;
use rand::seq::SliceRandom;

use crate::messages::{ReplicaMsg, ReplicaTimer, TentativeId};
use crate::primary::{encode_payload, UpdateNamer, PAYLOAD_UPDATE_AT};
use crate::shard::ShardRouter;

/// An update-submitting client.
#[derive(Debug)]
pub struct UpdateClient {
    /// One PBFT client per ring, tier order.
    rings: Vec<PbftClient<UpdateNamer>>,
    router: ShardRouter,
    /// Next client sequence, shared across rings: a request id names
    /// one ring's request, so only that ring acts on its replies and
    /// deadlines.
    next_seq: u64,
    /// Known secondary replicas to seed the epidemic path, reordered in
    /// place by each draw of the tentative targets.
    secondaries: Vec<NodeId>,
    /// How many random secondaries receive the tentative copy.
    tentative_fanout: usize,
}

impl UpdateClient {
    /// Creates a client of `cfgs.len()` rings routed by `router`, seeding
    /// tentative updates to `secondaries`.
    ///
    /// # Panics
    ///
    /// Panics if the ring count disagrees with the router.
    pub fn new(
        cfgs: Vec<TierConfig>,
        router: ShardRouter,
        keypair: KeyPair,
        secondaries: Vec<NodeId>,
    ) -> Self {
        assert_eq!(cfgs.len(), router.rings(), "one tier config per routed ring");
        UpdateClient {
            rings: cfgs
                .into_iter()
                .map(|cfg| PbftClient::new(cfg, keypair.clone(), UpdateNamer))
                .collect(),
            router,
            next_seq: 0,
            secondaries,
            tentative_fanout: 3,
        }
    }

    /// Enables retransmission of unanswered serialize requests
    /// (disconnected operation: "modifications are automatically
    /// disseminated upon reconnection", §3).
    pub fn enable_retransmit(&mut self, interval: SimDuration) {
        for ring in &mut self.rings {
            ring.enable_retransmit(interval);
        }
    }

    /// Sets the tentative fan-out.
    pub fn set_tentative_fanout(&mut self, k: usize) {
        self.tentative_fanout = k;
    }

    /// Submits an update along both paths of Figure 5a, to the ring that
    /// owns `object`. Returns the request id for [`UpdateClient::outcome`].
    ///
    /// The update is encoded once, into the agreement payload; the
    /// tentative copies are views of that payload's update bytes.
    pub fn submit(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        object: Guid,
        update: &Update,
    ) -> RequestId {
        let ring = self.router.ring_of(&object);
        let seq = self.next_seq;
        self.next_seq += 1;
        let payload = Payload::from_bytes(encode_payload(&object, update));
        let whole = &payload.bytes;
        let encoded = whole.slice(PAYLOAD_UPDATE_AT..whole.len());
        let timestamp = ctx.now().as_micros();
        let id = ctx.with_inner(ReplicaMsg::Pbft, ReplicaTimer::Client, |ictx| {
            self.rings[ring].submit_at(ictx, payload, seq)
        });
        // Tentative copies to random secondaries.
        let tid = TentativeId { client: id.client, counter: id.seq };
        let (targets, _) = self.secondaries.partial_shuffle(ctx.rng(), self.tentative_fanout);
        for &s in targets.iter() {
            ctx.send(
                s,
                ReplicaMsg::Tentative { object, update: encoded.clone(), timestamp, id: tid },
            );
        }
        id
    }

    /// The committed outcome, once `m + 1` matching replies arrived.
    pub fn outcome(&self, id: RequestId) -> Option<&ClientOutcome> {
        self.rings.iter().find_map(|ring| ring.outcome(id))
    }

    /// Requests still awaiting commitment, across all rings.
    pub fn pending_count(&self) -> usize {
        self.rings.iter().map(PbftClient::pending_count).sum()
    }

    /// Message dispatch: a reply is offered to every ring, and the one
    /// that holds its request pending takes it.
    pub fn on_message(&mut self, ctx: &mut Context<'_, ReplicaMsg>, from: NodeId, msg: ReplicaMsg) {
        if let ReplicaMsg::Pbft(inner) = msg {
            ctx.with_inner(ReplicaMsg::Pbft, ReplicaTimer::Client, |ictx| {
                for ring in &mut self.rings {
                    ring.on_message(ictx, from, &inner);
                }
            });
        }
    }

    /// Timer dispatch (retransmissions): a deadline is offered to every
    /// ring, like a reply.
    pub fn on_timer(&mut self, ctx: &mut Context<'_, ReplicaMsg>, timer: PbftTimer) {
        ctx.with_inner(ReplicaMsg::Pbft, ReplicaTimer::Client, |ictx| {
            for ring in &mut self.rings {
                ring.on_timer(ictx, timer);
            }
        });
    }
}
