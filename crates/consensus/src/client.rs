//! The client side of Byzantine agreement: submit updates to the whole
//! primary tier, await `m + 1` matching replies (§4.4.4, Figure 5a).

use std::collections::HashMap;

use oceanstore_crypto::schnorr::{verify, KeyPair};
use oceanstore_crypto::sha1::Digest;
use oceanstore_sim::{Context, NodeId, SimDuration, SimTime};

use crate::messages::{
    request_signing_bytes, signing_bytes, Namer, Opaque, Payload, PbftMsg, PbftTimer, RequestId,
};
use crate::replica::TierConfig;

/// The completed outcome of one submitted update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientOutcome {
    /// Final serialization sequence chosen by the tier.
    pub seq: u64,
    /// Digest the tier committed.
    pub digest: Digest,
    /// When the request was sent.
    pub sent_at: SimTime,
    /// When `m + 1` matching replies had arrived.
    pub committed_at: SimTime,
}

#[derive(Debug)]
struct PendingRequest {
    sent_at: SimTime,
    /// The signed request, kept for retransmission.
    msg: PbftMsg,
    /// replica index → (seq, digest)
    replies: HashMap<usize, (u64, Digest)>,
    /// Retransmissions so far; drives exponential backoff.
    retries: u32,
}

/// A client of the primary tier, naming payloads with `N`.
#[derive(Debug)]
pub struct Client<N = Opaque> {
    cfg: TierConfig,
    keypair: KeyPair,
    /// Names each payload for the request signature (the tier's namer).
    namer: N,
    next_seq: u64,
    pending: HashMap<RequestId, PendingRequest>,
    completed: HashMap<RequestId, ClientOutcome>,
    /// When set, unanswered requests are re-sent on this period (needed
    /// for disconnected operation: a request issued during a partition
    /// commits on reconnection).
    retransmit: Option<SimDuration>,
}

impl<N: Namer> Client<N> {
    /// Creates a client talking to the tier described by `cfg`, signing
    /// each request over its payload's name under `namer` (the namer the
    /// tier's replicas check it with).
    pub fn new(cfg: TierConfig, keypair: KeyPair, namer: N) -> Self {
        Client {
            cfg,
            keypair,
            namer,
            next_seq: 0,
            pending: HashMap::new(),
            completed: HashMap::new(),
            retransmit: None,
        }
    }

    /// Enables periodic retransmission of unanswered requests.
    pub fn enable_retransmit(&mut self, interval: SimDuration) {
        self.retransmit = Some(interval);
    }

    /// Timer dispatch: retransmit an unanswered request.
    pub fn on_timer(&mut self, ctx: &mut Context<'_, PbftMsg>, timer: PbftTimer) {
        let PbftTimer::Retransmit(seq) = timer else { return };
        let id = RequestId { client: ctx.node(), seq };
        let Some(interval) = self.retransmit else { return };
        if let Some(p) = self.pending.get_mut(&id) {
            let msg = p.msg.clone();
            p.retries = p.retries.saturating_add(1);
            // Exponential backoff, capped at 8x the base interval, so a
            // long outage doesn't keep hammering the tier.
            let factor = 1u32 << p.retries.min(3);
            ctx.broadcast(self.cfg.members.iter().copied(), msg);
            ctx.set_timer(interval.mul_f64(factor as f64), timer);
        }
    }

    /// Submits `payload` for serialization; returns the request id to poll
    /// via [`Client::outcome`]. The paper's optimistic timestamp is taken
    /// from the current simulated time.
    pub fn submit(&mut self, ctx: &mut Context<'_, PbftMsg>, payload: Payload) -> RequestId {
        self.submit_at(ctx, payload, self.next_seq)
    }

    /// Like [`Client::submit`], with a caller-chosen client sequence — a
    /// client sharded over several tiers allocates sequences from one
    /// counter so request ids stay unique across rings.
    pub fn submit_at(
        &mut self,
        ctx: &mut Context<'_, PbftMsg>,
        payload: Payload,
        seq: u64,
    ) -> RequestId {
        let id = RequestId { client: ctx.node(), seq };
        self.next_seq = self.next_seq.max(seq + 1);
        let timestamp = ctx.now().as_micros();
        let (name, _) = self.namer.name(&payload);
        let sig = self.keypair.sign(&request_signing_bytes(id, timestamp, &name));
        let msg = PbftMsg::Request { id, timestamp, payload, sig };
        ctx.broadcast(self.cfg.members.iter().copied(), msg.clone());
        self.pending.insert(
            id,
            PendingRequest { sent_at: ctx.now(), msg, replies: HashMap::new(), retries: 0 },
        );
        if let Some(interval) = self.retransmit {
            ctx.set_timer(interval, PbftTimer::Retransmit(id.seq));
        }
        id
    }

    /// The committed outcome of `id`, if enough replies arrived.
    pub fn outcome(&self, id: RequestId) -> Option<&ClientOutcome> {
        self.completed.get(&id)
    }

    /// Number of requests still awaiting a reply quorum.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Handles a reply from a replica. A reply to a request this client
    /// does not hold pending (answered already, or another tier's) costs
    /// a lookup, not a signature check.
    pub fn on_message(&mut self, ctx: &mut Context<'_, PbftMsg>, _from: NodeId, msg: &PbftMsg) {
        let PbftMsg::Reply { id, seq, digest, replica, sig } = msg else { return };
        let Some(pending) = self.pending.get_mut(id) else { return };
        let Some(key) = self.cfg.replica_keys.get(*replica) else { return };
        if !verify(*key, &signing_bytes(msg), sig) {
            return;
        }
        pending.replies.insert(*replica, (*seq, *digest));
        // m + 1 matching (seq, digest) pairs guarantee at least one honest
        // replica vouches for the result.
        let mut counts: HashMap<(u64, Digest), usize> = HashMap::new();
        for v in pending.replies.values() {
            *counts.entry(*v).or_default() += 1;
        }
        if let Some(((seq, digest), _)) =
            counts.into_iter().find(|(_, c)| *c > self.cfg.m)
        {
            let outcome = ClientOutcome {
                seq,
                digest,
                sent_at: pending.sent_at,
                committed_at: ctx.now(),
            };
            self.pending.remove(id);
            self.completed.insert(*id, outcome);
        }
    }
}
