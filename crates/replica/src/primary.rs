//! Primary-tier replica: Byzantine serialization + certified dissemination
//! (§4.4.3, §4.4.4).
//!
//! Each primary embeds a PBFT replica (from `oceanstore-consensus`). When
//! agreement executes an update, the primary deterministically applies it
//! to its object store, signs the resulting commit record, and sends its
//! signature share to the record's *disseminator* (a tier member chosen by
//! rotation). The disseminator assembles an `m + 1`-of-`n` serialization
//! certificate — the offline-verifiable artifact of §4.4.3 — and pushes the
//! certified record into the dissemination tree.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use oceanstore_consensus::messages::{Namer, Payload, PbftMsg, PbftTimer};
use oceanstore_consensus::replica::{Replica, TierConfig};
use oceanstore_crypto::schnorr::{verify, KeyPair, Signature};
use oceanstore_crypto::sha1::{sha1_concat, Digest};
use oceanstore_crypto::threshold::SerializationCert;
use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::{Guid, IdMap, IdSet};
use oceanstore_sim::{Context, NodeId};
use oceanstore_update::{decode_view, encode_after, update_digest, Update, UpdateDigest};
use rand::Rng;

use crate::config::ChildMode;
use crate::messages::{CommitRecord, ReplicaMsg, ReplicaTimer, SummaryEntry, TentativeId};
use crate::store::ObjectStore;

/// A primary's deadlines, handed back when they fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimaryTimer {
    /// The embedded agreement replica's own deadline.
    Pbft(PbftTimer),
    /// This signer's failover deadline for its share of record
    /// `(object, index)`: re-route the share past a silent disseminator.
    ShareRetry((Guid, u64)),
    /// A re-push deadline of record `(object, index)`, carrying the arm
    /// number of the watch that set it: a later watch of the same record
    /// has another.
    PushRetry((Guid, u64), u64),
    /// The tier-internal anti-entropy tick.
    TierAntiEntropy,
}
/// Wraps the embedded agreement replica's deadlines as this role's.
fn pbft_timer(timer: PbftTimer) -> ReplicaTimer {
    ReplicaTimer::Primary(PrimaryTimer::Pbft(timer))
}

/// Re-push deadline multiplier per retry (exponential backoff).
const REPUSH_BACKOFF: u64 = 2;
/// Re-pushes per record before it is left to anti-entropy.
const REPUSH_MAX_RETRIES: u32 = 4;
/// Observer primaries (who saw `CertFormed` but are not the
/// disseminator) arm their first re-push deadline at this many ack
/// deadlines, giving the disseminator first crack and keeping the healthy
/// path free of duplicate pushes.
const OBSERVER_GRACE: u64 = 2;

/// Which tier member disseminates record `index` of `object` on failover
/// `attempt` (0 = the original rotation choice). Consecutive attempts walk
/// consecutive members mod `n`, so attempts `0..=f` cover `f + 1` distinct
/// members — with at most `f` crashed, at least one is live.
pub fn disseminator_for(n: usize, object: &Guid, index: u64, attempt: u64) -> usize {
    (object.low_u64().wrapping_add(index).wrapping_add(attempt) % n as u64) as usize
}

/// One certified record still waiting for `CommitAck`s from `Push`
/// children on the tier→tree edge.
#[derive(Debug)]
struct PendingPush {
    /// Children that have not acked `(object, index)` yet.
    unacked: Vec<NodeId>,
    /// Re-pushes sent so far (0 = only the disseminator's original push,
    /// or — on observer primaries — nothing yet).
    attempt: u32,
    /// The arm number that opened this watch, carried by its timers: a
    /// timer of an earlier watch of the same record carries another and
    /// stands down.
    arm: u64,
}

/// Where an agreement payload's update encoding starts: after the object
/// GUID.
pub const PAYLOAD_UPDATE_AT: usize = Guid::WIRE_SIZE;

/// Encodes an agreement payload: object GUID followed by the encoded
/// update, in one buffer.
pub fn encode_payload(object: &Guid, update: &Update) -> Vec<u8> {
    encode_after(object.as_bytes(), update)
}

/// Splits an agreement payload back into GUID and update bytes, the latter
/// a view of the payload's buffer.
pub fn decode_payload(payload: &Bytes) -> Option<(Guid, Bytes)> {
    let guid = payload.get(..PAYLOAD_UPDATE_AT)?;
    let guid = Guid::from_bytes(guid.try_into().expect("a GUID's bytes"));
    Some((guid, payload.slice(PAYLOAD_UPDATE_AT..payload.len())))
}

/// Domain tag of the name of a payload that decodes as an update.
const UPDATE_NAME: &[u8] = b"name/update";
/// Domain tag of the name of a payload that does not.
const BYTES_NAME: &[u8] = b"name/bytes!";

/// The primary tier's namer, which clients sign with and agreement
/// replicas check with. A payload that decodes as an update is named by
/// SHA-1 over a domain tag, its `padded_size`, the object GUID and the
/// update's [`update_digest`] — the digest the serialization certificate
/// signs, which covers every block through its CID — and that update
/// digest is its note. The decoding is canonical (it refuses trailing
/// bytes), so the name binds every byte. Any other payload is named by one
/// pass over its bytes under a tag of its own, and notes nothing.
#[derive(Debug, Clone, Copy)]
pub struct UpdateNamer;

impl Namer for UpdateNamer {
    type Note = Option<UpdateDigest>;

    fn name(&self, payload: &Payload) -> (Digest, Option<UpdateDigest>) {
        let padded = (payload.padded_size as u64).to_be_bytes();
        if let Some((object, encoded)) = decode_payload(&payload.bytes) {
            if let Ok(update) = decode_view(&encoded) {
                let named = update_digest(&update);
                let name = sha1_concat(&[UPDATE_NAME, &padded, object.as_bytes(), &named.digest]);
                return (name, Some(named));
            }
        }
        (sha1_concat(&[BYTES_NAME, &padded, &payload.bytes]), None)
    }
}

/// A primary-tier server.
#[derive(Debug)]
pub struct Primary {
    /// The embedded agreement machine.
    pbft: Replica<UpdateNamer>,
    cfg: TierConfig,
    index: usize,
    keypair: KeyPair,
    /// Committed object state (primaries hold the active form too).
    pub store: ObjectStore,
    /// Dissemination-tree children fed by this primary when it
    /// disseminates.
    children: Vec<(NodeId, ChildMode)>,
    /// Executed agreement entries already turned into records (absolute
    /// output index — stable across the agreement log's checkpoint GC).
    drained: u64,
    /// Certificate assembly: (object, index) → the cert so far. The record
    /// it certifies is the one in the store's log.
    assembling: IdMap<(Guid, u64), SerializationCert>,
    /// How long a signer waits for the certificate before re-routing its
    /// share to the next disseminator in rotation. Any `m + 1`
    /// consecutive rotation slots hold a live member, so the walk ends at
    /// one.
    share_retry_timeout: oceanstore_sim::SimDuration,
    /// Shares we signed that still lack a certificate, keyed by record:
    /// our signature over its signing bytes, and the failover attempts
    /// made so far (0 = only the original send).
    pending: IdMap<(Guid, u64), (Signature, u64)>,
    /// Certificates observed via `CertFormed` before we executed the
    /// record ourselves (verified and attached at execution time).
    early_certs: IdMap<(Guid, u64), SerializationCert>,
    /// Total share re-broadcasts sent (failover engagement accounting).
    share_retries: u64,
    /// How long the disseminator waits for a child's ack before
    /// re-pushing (doubling per retry, `REPUSH_MAX_RETRIES` retries).
    /// Must exceed one push+ack round trip or healthy records
    /// double-send.
    ack_timeout: oceanstore_sim::SimDuration,
    /// Certified records not yet acked by every `Push` child.
    pending_push: IdMap<(Guid, u64), PendingPush>,
    /// Re-push watches opened so far: the next one's arm number.
    push_arms: u64,
    /// Children known (via `CommitAck`) to hold each record of an object,
    /// by index — consulted when arming so an ack that raced ahead of
    /// `CertFormed` still cancels the watchdog. Only records at or above
    /// the store's log floor keep theirs.
    push_acked: IdMap<Guid, BTreeMap<u64, IdSet<NodeId>>>,
    /// Total `Commit` re-pushes sent (re-push engagement accounting).
    repush_resends: u64,
    /// Period of the tier-internal anti-entropy tick. Certified records
    /// are self-certifying, so primaries can exchange them directly — the
    /// catch-up path for a primary that missed commits (crash recovery,
    /// quorum-loss islanding) and whose embedded agreement replica cannot
    /// rejoin on its own. Without it, a behind primary serving as a tree
    /// parent starves its whole subtree.
    tier_anti_entropy: oceanstore_sim::SimDuration,
    /// This primary's place in the sharded layout: the object → ring
    /// router plus the ring this tier serves. Objects of other rings are
    /// ignored at every ingress (shares, certs, fetches, summaries), so a
    /// shared secondary substrate can't make ring A pull — and reject —
    /// ring B's records forever.
    router: crate::shard::ShardRouter,
    ring: usize,
}

impl Primary {
    /// Creates primary `index` of the tier that serves `ring` under
    /// `router`, with its embedded PBFT replica, the deadline after which
    /// a signer re-routes its share past a silent disseminator, the
    /// deadline after which a certified record is re-pushed to a child
    /// that has not acked it, and the period of the tier anti-entropy
    /// tick.
    ///
    /// # Panics
    ///
    /// Panics if `router` has no ring `ring`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: TierConfig,
        index: usize,
        keypair: KeyPair,
        fault: oceanstore_consensus::replica::FaultMode,
        children: Vec<(NodeId, ChildMode)>,
        router: crate::shard::ShardRouter,
        ring: usize,
        share_retry_timeout: oceanstore_sim::SimDuration,
        ack_timeout: oceanstore_sim::SimDuration,
        tier_anti_entropy: oceanstore_sim::SimDuration,
    ) -> Self {
        assert!(ring < router.rings(), "ring {ring} out of range");
        let pbft = Replica::new(cfg.clone(), index, keypair.clone(), fault, UpdateNamer);
        let mut store = ObjectStore::new();
        store.keep_record_digests();
        Primary {
            pbft,
            cfg,
            index,
            keypair,
            store,
            children,
            drained: 0,
            assembling: IdMap::default(),
            share_retry_timeout,
            pending: IdMap::default(),
            early_certs: IdMap::default(),
            share_retries: 0,
            ack_timeout,
            pending_push: IdMap::default(),
            push_arms: 0,
            push_acked: IdMap::default(),
            repush_resends: 0,
            tier_anti_entropy,
            router,
            ring,
        }
    }

    /// Whether this primary's ring owns `object`.
    fn owns(&self, object: &Guid) -> bool {
        self.router.ring_of(object) == self.ring
    }

    /// Arms the tier anti-entropy tick.
    pub fn on_start(&mut self, ctx: &mut Context<'_, ReplicaMsg>) {
        ctx.set_timer(self.tier_anti_entropy, ReplicaTimer::Primary(PrimaryTimer::TierAntiEntropy));
    }

    /// Tier index of this primary.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The embedded agreement replica (tests / inspection).
    pub fn pbft(&self) -> &Replica<UpdateNamer> {
        &self.pbft
    }

    /// Which tier member disseminates record `index` of `object` on
    /// failover `attempt` (rotation keyed by object and index so one
    /// faulty member only stalls a slice of traffic).
    pub fn disseminator(&self, object: &Guid, index: u64, attempt: u64) -> usize {
        disseminator_for(self.cfg.n(), object, index, attempt)
    }

    /// Total share re-broadcasts this primary has sent (failover
    /// engagement accounting for the chaos suite).
    pub fn share_retry_count(&self) -> u64 {
        self.share_retries
    }

    /// Total `Commit` re-pushes this primary has sent (re-push engagement
    /// accounting for the chaos suite).
    pub fn repush_resend_count(&self) -> u64 {
        self.repush_resends
    }

    /// Certified records still waiting for `Push`-child acks.
    pub fn pending_push_count(&self) -> usize {
        self.pending_push.len()
    }

    /// Whether a valid certificate for `(object, index)` is stored here.
    pub fn has_cert(&self, object: &Guid, index: u64) -> bool {
        self.store.record(object, index).is_some_and(|r| !r.cert.is_empty())
    }

    /// Handles an embedded agreement message, then turns any newly
    /// executed updates into signed commit records.
    pub fn on_pbft(&mut self, ctx: &mut Context<'_, ReplicaMsg>, from: NodeId, msg: PbftMsg) {
        let pbft = &mut self.pbft;
        ctx.with_inner(ReplicaMsg::Pbft, pbft_timer, |ictx| pbft.on_message(ictx, from, msg));
        self.drain_executed(ctx);
    }

    /// Timer dispatch.
    pub fn on_timer(&mut self, ctx: &mut Context<'_, ReplicaMsg>, timer: PrimaryTimer) {
        match timer {
            PrimaryTimer::Pbft(t) => {
                ctx.with_inner(ReplicaMsg::Pbft, pbft_timer, |ictx| self.pbft.on_timer(ictx, t));
                self.drain_executed(ctx);
            }
            PrimaryTimer::ShareRetry(key) => self.on_share_retry(ctx, key),
            PrimaryTimer::PushRetry(key, arm) => self.on_push_retry(ctx, key, arm),
            PrimaryTimer::TierAntiEntropy => self.on_tier_ae_tick(ctx),
        }
    }

    fn drain_executed(&mut self, ctx: &mut Context<'_, ReplicaMsg>) {
        while self.drained < self.pbft.executed_seen() {
            // An entry below the agreement log's low-water mark can be
            // truncated before we drain it only when a state-transfer jump
            // skipped the slot entirely; the object state arrives through
            // tier anti-entropy instead.
            let Some(entry) = self.pbft.executed_entry(self.drained) else {
                self.drained += 1;
                continue;
            };
            self.drained += 1;
            // The agreed payload is the buffer the client encoded; the
            // record and every block the update stores are views of it.
            let payload = &entry.payload.bytes;
            // The digest every signature below covers, and the CIDs the
            // store files its blocks under: what the agreement replica's
            // namer derived from these bytes, when it admitted the request
            // or installed the slot. A payload that is no update has none.
            let (Some((object, encoded)), Some(name)) = (decode_payload(payload), &entry.note)
            else {
                continue; // malformed payload agreed on; logged nowhere to go
            };
            let Ok(update) = decode_view(&encoded) else { continue };
            let id = TentativeId { client: entry.request.client, counter: entry.request.seq };
            // Tier anti-entropy may have adopted this record (certified)
            // before our own agreement replica caught up to it; appending
            // a second copy would fork the per-object index sequence.
            if self.store.holds_record(&object, entry.timestamp, id) {
                continue;
            }
            let digest = name.digest;
            let record = self.store.serialize_update(
                object,
                update,
                name.clone(),
                encoded,
                entry.timestamp,
                id,
            );
            let key = (object, record.index);
            let msg = record.signing_bytes(&digest);
            // A certificate may have been observed (via `CertFormed`)
            // before we executed this far; attach it and skip the share
            // routing — the record is already certified tier-wide.
            if let Some(cert) = self.early_certs.remove(&key) {
                if cert.verify_threshold(&msg, &self.cfg.replica_keys, self.cfg.m + 1) {
                    self.store.set_cert(&object, record.index, cert);
                    // Same observer watchdog as `on_cert_formed` — the
                    // cert beat our own execution here, so the arming
                    // there never ran.
                    let grace = self.observer_grace();
                    self.arm_repush(ctx, object, record.index, grace);
                    continue;
                }
            }
            // Sign and route the share to the disseminator.
            let sig = self.keypair.sign(&msg);
            let diss = self.disseminator(&object, record.index, 0);
            let share = ReplicaMsg::ResultShare {
                object,
                index: record.index,
                update_digest: digest,
                version: record.version,
                replica: self.index,
                sig,
                attempt: 0,
            };
            // Arm the failover deadline before routing: if no certificate
            // materializes, the share walks the fallback rotation.
            self.pending.insert(key, (sig, 0));
            let retry = ReplicaTimer::Primary(PrimaryTimer::ShareRetry(key));
            ctx.set_timer(self.share_retry_timeout, retry);
            if diss == self.index {
                self.accept_share(ctx, object, record.index, self.index, sig, false);
            } else {
                ctx.send(self.cfg.members[diss], share);
            }
        }
    }

    /// A retry deadline expired: if the record is still uncertified,
    /// re-broadcast our share to the next fallback disseminator in
    /// rotation order and re-arm the deadline.
    fn on_share_retry(&mut self, ctx: &mut Context<'_, ReplicaMsg>, key: (Guid, u64)) {
        let (object, index) = key;
        let Some((sig, attempt)) = self.pending.get_mut(&key) else {
            return; // certificate formed; the timer is stale
        };
        *attempt += 1;
        let (sig, attempt) = (*sig, *attempt);
        let Some((record, &update_digest)) = self.store.record_with_digest(&object, index) else {
            return;
        };
        self.share_retries += 1;
        let target = self.disseminator(&object, index, attempt);
        if target == self.index {
            self.accept_share(ctx, object, index, self.index, sig, false);
        } else {
            ctx.send(
                self.cfg.members[target],
                ReplicaMsg::ResultShare {
                    object,
                    index,
                    update_digest,
                    version: record.version,
                    replica: self.index,
                    sig,
                    attempt,
                },
            );
        }
        // Still uncertified (accept_share clears the entry when the cert
        // assembles locally): keep walking the rotation.
        if self.pending.contains_key(&key) {
            let retry = ReplicaTimer::Primary(PrimaryTimer::ShareRetry(key));
            ctx.set_timer(self.share_retry_timeout, retry);
        }
    }

    /// Re-push deadline for retry number `attempt` (exponential backoff,
    /// exponent clamped so the arithmetic can't overflow).
    fn repush_deadline(&self, attempt: u32) -> oceanstore_sim::SimDuration {
        let factor = REPUSH_BACKOFF.pow(attempt.min(16));
        oceanstore_sim::SimDuration::from_micros(self.ack_timeout.as_micros().saturating_mul(factor))
    }

    /// An observer primary's first re-push deadline.
    fn observer_grace(&self) -> oceanstore_sim::SimDuration {
        oceanstore_sim::SimDuration::from_micros(self.ack_timeout.as_micros() * OBSERVER_GRACE)
    }

    /// How long after certification the last primary still re-pushes an
    /// unacked record: an observer's grace, then one deadline per retry.
    /// After that only anti-entropy repairs the push.
    pub fn repush_span(&self) -> oceanstore_sim::SimDuration {
        (1..=REPUSH_MAX_RETRIES).fold(self.observer_grace(), |t, k| t + self.repush_deadline(k))
    }

    /// Puts `(object, index)` under ack surveillance: every `Push` child
    /// that has not already acked must do so before `initial_delay` (then
    /// exponentially later deadlines) or the record is re-pushed to it.
    /// The disseminator arms this at certificate assembly; observer
    /// primaries arm it with the longer `observer_grace` deadline when
    /// `CertFormed` arrives, covering a disseminator that died with the
    /// push on the wire.
    fn arm_repush(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        object: Guid,
        index: u64,
        initial_delay: oceanstore_sim::SimDuration,
    ) {
        let key = (object, index);
        if self.pending_push.contains_key(&key) {
            return;
        }
        let acked = self.push_acked.get(&object).and_then(|acked| acked.get(&index));
        let unacked: Vec<NodeId> = self
            .children
            .iter()
            .filter(|(c, mode)| {
                *mode == ChildMode::Push && acked.is_none_or(|s| !s.contains(c))
            })
            .map(|(c, _)| *c)
            .collect();
        if unacked.is_empty() {
            return;
        }
        let arm = self.push_arms;
        self.push_arms += 1;
        self.pending_push.insert(key, PendingPush { unacked, attempt: 0, arm });
        ctx.set_timer(initial_delay, ReplicaTimer::Primary(PrimaryTimer::PushRetry(key, arm)));
    }

    /// A re-push deadline expired: if any `Push` child still hasn't acked
    /// the record, re-send the certified `Commit` to exactly those
    /// children and re-arm with a doubled deadline — until the retry
    /// budget runs out and the record degrades to anti-entropy repair.
    fn on_push_retry(&mut self, ctx: &mut Context<'_, ReplicaMsg>, key: (Guid, u64), arm: u64) {
        let (object, index) = key;
        let Some(entry) = self.pending_push.get_mut(&key).filter(|entry| entry.arm == arm) else {
            return; // this watch ended (acked, or out of retries): the timer is stale
        };
        if entry.attempt >= REPUSH_MAX_RETRIES {
            // Budget exhausted: stop pushing, leave repair to the
            // anti-entropy path (which is correct, just slower).
            self.pending_push.remove(&key);
            ctx.count("repush/exhausted");
            return;
        }
        entry.attempt += 1;
        let (unacked, attempt) = (entry.unacked.clone(), entry.attempt);
        let retry = ReplicaTimer::Primary(PrimaryTimer::PushRetry(key, arm));
        let record = self.store.record(&object, index).filter(|r| !r.cert.is_empty());
        let Some(record) = record else {
            // Certified elsewhere but not locally attached yet; try again
            // at the next deadline.
            ctx.set_timer(self.repush_deadline(attempt), retry);
            return;
        };
        self.repush_resends += unacked.len() as u64;
        for _ in 0..unacked.len() {
            ctx.count("repush/resend");
        }
        ctx.broadcast(unacked, ReplicaMsg::Commit { record: Arc::clone(record), frontier: None });
        ctx.set_timer(self.repush_deadline(attempt), retry);
    }

    /// A `Push` child confirmed it holds `(object, index)` certified.
    /// Acks are broadcast to the whole ring, so this also stands down
    /// observer watchdogs on primaries that never pushed anything.
    pub fn on_commit_ack(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        from: NodeId,
        object: Guid,
        index: u64,
    ) {
        if !self.owns(&object) {
            return;
        }
        // A record below the store's log floor is truncated and never
        // armed again: its ack is not kept, and neither are older ones.
        let floor = self.store.get(&object).map_or(0, |st| st.first_index);
        if index >= floor {
            let acked = self.push_acked.entry(object).or_default();
            while acked.first_key_value().is_some_and(|(&i, _)| i < floor) {
                acked.pop_first();
            }
            acked.entry(index).or_default().insert(from);
        }
        let key = (object, index);
        if let Some(entry) = self.pending_push.get_mut(&key) {
            entry.unacked.retain(|&c| c != from);
            if entry.unacked.is_empty() {
                if entry.attempt > 0 {
                    // At least one re-push was needed before the ack came
                    // back: the retry schedule did real recovery work.
                    ctx.count("repush/recovered");
                }
                self.pending_push.remove(&key);
            }
        }
    }

    /// Handles a tier member's announcement that `(object, index)` is
    /// certified: verify, persist the cert, and stop retrying.
    pub fn on_cert_formed(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        object: Guid,
        index: u64,
        cert: SerializationCert,
    ) {
        if !self.owns(&object) {
            return;
        }
        let key = (object, index);
        match self.store.record_with_digest(&object, index) {
            Some((record, digest)) => {
                let msg = record.signing_bytes(digest);
                if !cert.verify_threshold(&msg, &self.cfg.replica_keys, self.cfg.m + 1) {
                    return; // forged or partial certificate
                }
                self.store.set_cert(&object, index, cert);
                self.assembling.remove(&key);
                self.pending.remove(&key);
                // Observer watchdog: the disseminator pushed this record
                // to the tree, but if it (or the push) dies, somebody has
                // to notice. The grace period gives the disseminator's
                // own schedule first crack.
                let grace = self.observer_grace();
                self.arm_repush(ctx, object, index, grace);
            }
            // Certified and truncated long ago: a late announcement that
            // `drain_executed` would never come back to collect.
            None if self.store.get(&object).is_some_and(|st| index < st.first_index) => {}
            None => {
                // Not executed this far yet; verified once the record
                // exists (drain_executed).
                self.early_certs.insert(key, cert);
            }
        }
    }

    /// Handles a signature share (we are the disseminator for it), sent on
    /// failover `attempt` (0 = the first send).
    #[allow(clippy::too_many_arguments)]
    pub fn on_result_share(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        object: Guid,
        index: u64,
        update_digest: [u8; 20],
        version: Option<u64>,
        replica: usize,
        sig: Signature,
        attempt: u64,
    ) {
        if !self.owns(&object) {
            return;
        }
        // Only meaningful once we executed the same record ourselves.
        let Some((record, digest)) = self.store.record_with_digest(&object, index) else {
            // We haven't executed this far yet; shares from faster peers
            // will be re-derived when we do (they also resend via fetch).
            return;
        };
        if *digest != update_digest || record.version != version {
            return; // share disagrees with our deterministic result
        }
        let Some(key) = self.cfg.replica_keys.get(replica) else { return };
        if !verify(*key, &record.signing_bytes(digest), &sig) {
            return;
        }
        self.accept_share(ctx, object, index, replica, sig, attempt > 0);
    }

    fn accept_share(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        object: Guid,
        index: u64,
        replica: usize,
        sig: Signature,
        retried: bool,
    ) {
        // Every caller found the record in the store before coming here.
        let Some((record, digest)) = self.store.record_with_digest(&object, index) else { return };
        if !record.cert.is_empty() {
            // The cert already exists, so a late share must not trigger a
            // second dissemination. A re-broadcast share comes from a
            // signer (possibly a crash-recovered straggler) that waited a
            // whole retry deadline without seeing the cert: answer with
            // it so its retry loop stops. A first share that merely lost
            // the race to the cert gets the ring's broadcast anyway.
            if replica != self.index && retried {
                let cert = record.cert.clone();
                ctx.send(self.cfg.members[replica], ReplicaMsg::CertFormed { object, index, cert });
            }
            return;
        }
        // Every share in the pool was verified where it arrived
        // (`on_result_share`) or is our own, signed once when the pool
        // opens; the pool is keyed by signer, so its size is the count of
        // valid shares.
        let pool = match self.assembling.entry((object, index)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                let mut cert = SerializationCert::new();
                cert.add(self.keypair.public(), self.keypair.sign(&record.signing_bytes(digest)));
                v.insert(cert)
            }
        };
        pool.add(self.cfg.replica_keys[replica], sig);
        if pool.len() > self.cfg.m {
            let cert = self.assembling.remove(&(object, index)).expect("entry just touched");
            // Persist the cert so fetch responses serve verifiable records;
            // the record that carries it is the one pushed.
            let record = self
                .store
                .set_cert(&object, index, cert.clone())
                .expect("an uncertified record is retained");
            self.pending.remove(&(object, index));
            // Tell the rest of the tier: signers stop their failover
            // retries, and every member becomes able to serve the
            // certified record on the pull path.
            let my = self.index;
            let peers = self
                .cfg
                .members
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != my)
                .map(|(_, &m)| m);
            ctx.broadcast(peers, ReplicaMsg::CertFormed { object, index, cert: cert.clone() });
            for (child, mode) in self.children.clone() {
                match mode {
                    ChildMode::Push => {
                        let push =
                            ReplicaMsg::Commit { record: Arc::clone(&record), frontier: None };
                        ctx.send(child, push)
                    }
                    ChildMode::Invalidate => ctx.send(
                        child,
                        ReplicaMsg::Invalidate {
                            object,
                            index: record.index,
                            version: record.version,
                        },
                    ),
                }
            }
            // The push above is fire-and-forget; keep the record on the
            // re-push schedule until every Push child acks it.
            let deadline = self.repush_deadline(0);
            self.arm_repush(ctx, object, index, deadline);
        }
    }

    /// Adopts an orphaned secondary as a dissemination child (the
    /// last-resort rejoin path: the primary ring is always attachable).
    pub fn on_attach(&mut self, ctx: &mut Context<'_, ReplicaMsg>, from: NodeId) {
        if !self.children.iter().any(|(c, _)| *c == from) {
            self.children.push((from, ChildMode::Push));
        }
        ctx.send(from, ReplicaMsg::AttachOk { grandparent: None });
    }

    /// Tier-internal anti-entropy tick: send our store's digest to one
    /// random peer primary. A peer that holds something else answers with its
    /// summary, and handling that pushes the certified suffix it lacks
    /// and pulls the one we lack. This is the tier's only catch-up path
    /// for a primary whose embedded agreement replica missed commits and
    /// cannot rejoin (crash recovery with lost state, quorum-loss
    /// islanding) — certified records are offline-verifiable, so no
    /// agreement round is needed to adopt them.
    fn on_tier_ae_tick(&mut self, ctx: &mut Context<'_, ReplicaMsg>) {
        let others = self.cfg.members.len() - 1;
        if others > 0 {
            // Uniform over the members but ourselves.
            let k = ctx.rng().gen_range(0..others);
            let peer = self.cfg.members[k + usize::from(k >= self.index)];
            ctx.send(peer, ReplicaMsg::AntiEntropyDigest { digest: self.store.committed_digest() });
        }
        ctx.set_timer(self.tier_anti_entropy, ReplicaTimer::Primary(PrimaryTimer::TierAntiEntropy));
    }

    /// Handles an anti-entropy digest from a child secondary or a peer
    /// primary: silence if it is our store's (a secondary that holds no
    /// tentative and no other ring's object has the same), otherwise a
    /// summary of the objects this ring owns, in GUID order.
    pub fn on_digest(&mut self, ctx: &mut Context<'_, ReplicaMsg>, from: NodeId, digest: u64) {
        if digest == self.store.committed_digest() {
            return;
        }
        let mut entries: Vec<SummaryEntry> = self
            .store
            .iter()
            .filter(|(g, _)| self.owns(g))
            .map(|(g, s)| SummaryEntry {
                object: *g,
                committed_index: s.next_index,
                tentative_ids: Vec::new(),
            })
            .collect();
        entries.sort_unstable_by_key(|e| e.object);
        ctx.send(from, ReplicaMsg::AntiEntropySummary { entries });
    }

    /// Handles a summary from a peer primary (or a forging secondary's
    /// bait), entry by entry: a sender behind this primary's certified
    /// frontier gets the suffix pushed, a sender *ahead* of us is asked
    /// for the suffix we lack — how a behind primary catches up through
    /// the tier anti-entropy tick.
    pub fn on_summary(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        from: NodeId,
        entries: Vec<SummaryEntry>,
    ) {
        for SummaryEntry { object, committed_index, .. } in entries {
            if !self.owns(&object) {
                continue;
            }
            self.on_fetch(ctx, from, object, committed_index);
            let ours = self.store.get(&object).map_or(0, |s| s.next_index);
            if committed_index > ours {
                ctx.send(from, ReplicaMsg::FetchCommits { object, from_index: ours });
            }
        }
    }

    /// Handles a batch of fetched certified records (tier anti-entropy
    /// pull response). Each record's certificate is verified before the
    /// record is applied — the sender may be Byzantine, or a forging
    /// secondary that baited the pull with an inflated summary.
    pub fn on_commits(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        records: Vec<Arc<CommitRecord>>,
    ) {
        for record in records {
            if !self.owns(&record.object) {
                continue; // another ring's object on the shared substrate
            }
            let Some((update, name)) = record.verified(&self.cfg.replica_keys, self.cfg.m + 1)
            else {
                continue; // forged or partial certificate
            };
            let key = (record.object, record.index);
            // A primary keeps no rumors to forget when its log truncates.
            if !self.store.apply_record(record, update, name, |_| {}) {
                continue; // gap: the prefix arrives first or not at all
            }
            ctx.count("tier-ae/adopt");
            // The record arrived certified: the share/assembly machinery
            // for it (if any was armed) is moot.
            self.assembling.remove(&key);
            self.early_certs.remove(&key);
            self.pending.remove(&key);
        }
    }

    /// Serves the pull path for children and stale secondaries.
    pub fn on_fetch(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        from: NodeId,
        object: Guid,
        from_index: u64,
    ) {
        if !self.owns(&object) {
            return;
        }
        // Serve the *dense* certified prefix and stop at the first record
        // whose certificate has not assembled yet: a record without a
        // cert is unverifiable for the requester, and skipping past it
        // would hand back a gapped batch — which the requester cannot
        // apply beyond the hole and would answer with another fetch for
        // the same prefix, looping until the cert assembles. Records past
        // the hole reach the requester on a later pull, after the
        // share/failover machinery closes it.
        let records: Vec<_> = self
            .store
            .records_from(&object, from_index)
            .into_iter()
            .take_while(|r| !r.cert.is_empty())
            .collect();
        if !records.is_empty() {
            ctx.send(from, ReplicaMsg::Commits { records });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All crash sets of size exactly `k` over members `0..n`.
    fn crash_sets(n: usize, k: usize) -> Vec<Vec<usize>> {
        if k == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for first in 0..n {
            for mut rest in crash_sets(n, k - 1) {
                if rest.iter().all(|&r| r > first) {
                    let mut set = vec![first];
                    set.append(&mut rest);
                    out.push(set);
                }
            }
        }
        out
    }

    #[test]
    fn fallback_ordering_walks_consecutive_members() {
        for label in ["a", "b", "rotation", "walk"] {
            let object = Guid::from_label(label);
            for n in [4usize, 7, 10] {
                for index in 0..5u64 {
                    let base = disseminator_for(n, &object, index, 0);
                    for attempt in 0..(2 * n as u64) {
                        assert_eq!(
                            disseminator_for(n, &object, index, attempt),
                            (base + attempt as usize) % n,
                            "attempt {attempt} must be (base + attempt) % n"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn f_plus_one_attempts_cover_f_plus_one_distinct_members() {
        for m in 1..=3usize {
            let n = 3 * m + 1;
            for k in 0..40u64 {
                let object = Guid::from_label(&format!("cover-{k}"));
                for index in 0..4u64 {
                    let members: IdSet<usize> = (0..=m as u64)
                        .map(|attempt| disseminator_for(n, &object, index, attempt))
                        .collect();
                    assert_eq!(members.len(), m + 1, "f+1 attempts must be distinct members");
                }
            }
        }
    }

    #[test]
    fn every_record_reaches_a_live_member_within_f_plus_one_attempts() {
        for m in 1..=2usize {
            let n = 3 * m + 1;
            for crashed in crash_sets(n, m) {
                for k in 0..20u64 {
                    let object = Guid::from_label(&format!("live-{k}"));
                    for index in 0..4u64 {
                        let reached_live = (0..=m as u64).any(|attempt| {
                            !crashed.contains(&disseminator_for(n, &object, index, attempt))
                        });
                        assert!(
                            reached_live,
                            "n={n} crashed={crashed:?} object={k} index={index}: \
                             no live disseminator within f+1 attempts"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cert_for_truncated_history_is_not_parked() {
        use crate::harness::{build_deployment, DeploymentOpts};
        use oceanstore_sim::SimDuration;
        use oceanstore_update::update::{Action, Predicate};
        use oceanstore_update::Update;

        let mut dep = build_deployment(&DeploymentOpts::default());
        let (p0, p1) = (dep.primaries()[0], dep.primaries()[1]);
        let role = dep.sim.node_mut(p0).as_primary_mut().expect("node is a primary");
        role.store.set_record_retention(2);
        let object = Guid::from_label("late-cert");
        for i in 0..6u8 {
            let update = Update::default()
                .with_clause(Predicate::True, vec![Action::Append { ciphertext: vec![i] }]);
            dep.submit(dep.clients[0], object, &update);
            dep.sim.run_for(SimDuration::from_secs(2));
        }
        assert_eq!(dep.primary(p0).store.get(&object).expect("executed").first_index, 4);
        assert!(dep.primary(p0).early_certs.is_empty());
        // A peer that kept its whole log re-announces the first record —
        // the answer a straggler's late share gets.
        let cert = dep.primary(p1).store.record(&object, 0).expect("retained").cert.clone();
        assert!(!cert.is_empty());
        dep.sim.with_node_ctx(p0, |node, ctx| {
            node.as_primary_mut().expect("node is a primary").on_cert_formed(ctx, object, 0, cert)
        });
        assert!(dep.primary(p0).early_certs.is_empty(), "parked a cert nothing will collect");
    }

    #[test]
    fn a_rearmed_repush_watch_fires_once() {
        // An observer primary opens a re-push watch on a settled record,
        // the watch clears, and a second watch opens for the same record
        // at the same instant: a child attached in between, and a failover
        // disseminator's duplicate `CertFormed` arrived. Both watches'
        // deadlines fall due together, and only the open watch re-pushes.
        use crate::harness::{build_deployment, DeploymentOpts};
        use oceanstore_sim::SimDuration;
        use oceanstore_update::update::{Action, Predicate};
        use oceanstore_update::Update;

        let mut dep = build_deployment(&DeploymentOpts::default());
        let object = Guid::from_label("re-armed");
        let update = Update::default()
            .with_clause(Predicate::True, vec![Action::Append { ciphertext: vec![1] }]);
        dep.submit(dep.clients[0], object, &update);
        dep.sim.run_for(SimDuration::from_secs(4));
        let primaries = dep.primaries().to_vec();
        let observer = |p: &NodeId| {
            let role = dep.primary(*p);
            role.disseminator(&object, 0, 0) != role.index()
        };
        let p = *primaries.iter().find(|p| observer(p)).expect("an observer primary");
        // Two nodes that are not its children and never ack: peer
        // primaries ignore `AttachOk` and `Commit` alike.
        let mut peers = primaries.iter().copied().filter(|&q| q != p);
        let (a, b) = (peers.next().expect("a peer"), peers.next().expect("a second peer"));
        let role = dep.primary(p);
        assert!(role.has_cert(&object, 0), "the record settled");
        assert_eq!(role.pending_push_count(), 0, "every push of the record was acked");
        let cert = role.store.record(&object, 0).expect("retained").cert.clone();
        let (grace, resends) = (role.observer_grace(), role.repush_resend_count());
        dep.sim.with_node_ctx(p, |node, ctx| {
            let role = node.as_primary_mut().expect("node is a primary");
            role.on_attach(ctx, a);
            role.on_cert_formed(ctx, object, 0, cert.clone());
            assert_eq!(role.pending_push_count(), 1, "a watch for the new child");
            role.on_commit_ack(ctx, a, object, 0);
            assert_eq!(role.pending_push_count(), 0, "the child acked");
            role.on_attach(ctx, b);
            role.on_cert_formed(ctx, object, 0, cert);
            assert_eq!(role.pending_push_count(), 1, "a second watch, for the silent child");
        });
        dep.sim.run_for(grace);
        assert_eq!(
            dep.primary(p).repush_resend_count() - resends,
            1,
            "one re-push to the silent child at the shared deadline"
        );
    }

    #[test]
    fn push_acks_do_not_outlive_the_record_log() {
        // With a short record log, the acks kept for arming re-push
        // watches stay within the records the store still holds.
        use crate::harness::{build_deployment, DeploymentOpts};
        use oceanstore_sim::SimDuration;
        use oceanstore_update::update::{Action, Predicate};
        use oceanstore_update::Update;

        let mut dep = build_deployment(&DeploymentOpts::default());
        let primaries = dep.primaries().to_vec();
        for &p in &primaries {
            let role = dep.sim.node_mut(p).as_primary_mut().expect("node is a primary");
            role.store.set_record_retention(4);
        }
        let object = Guid::from_label("bounded-acks");
        for i in 0..60u8 {
            let update = Update::default()
                .with_clause(Predicate::True, vec![Action::Append { ciphertext: vec![i] }]);
            dep.submit(dep.clients[0], object, &update);
            dep.sim.run_for(SimDuration::from_millis(500));
        }
        dep.sim.run_for(SimDuration::from_secs(4));
        for &p in &primaries {
            let role = dep.primary(p);
            let st = role.store.get(&object).expect("executed");
            assert_eq!((st.first_index, st.retained_records()), (56, 4));
            let acked: usize = role.push_acked.values().map(BTreeMap::len).sum();
            assert!(acked <= 4, "{acked} records keep acks, the log holds 4");
        }
    }

    #[test]
    fn rotation_spreads_load_across_the_tier() {
        // Not a single hot member: over many objects, every member is the
        // base disseminator for some record.
        let n = 4;
        let mut hit = vec![false; n];
        for k in 0..64u64 {
            let object = Guid::from_label(&format!("spread-{k}"));
            hit[disseminator_for(n, &object, 0, 0)] = true;
        }
        assert!(hit.iter().all(|&h| h), "rotation never chose some member: {hit:?}");
    }
}
