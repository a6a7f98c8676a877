//! Secondary-tier replicas (§4.4.3): epidemic tentative propagation plus
//! the committed stream from the dissemination tree.
//!
//! "Secondary replicas contain both tentative and committed data. They
//! employ an epidemic-style communication pattern to quickly spread
//! tentative commits among themselves and to pick a tentative
//! serialization order ... Secondary replicas order tentative updates in
//! timestamp order."

use std::collections::BTreeMap;

use oceanstore_crypto::schnorr::PublicKey;
use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::{Guid, IdMap, IdSet};
use oceanstore_sim::{Context, NodeId, SimTime};
use oceanstore_update::object::DataObject;
use oceanstore_update::update::apply_owned;
use oceanstore_update::decode_view;
use rand::seq::SliceRandom;

use crate::config::{ChildMode, SecondaryConfig, SecondaryFault};
use crate::messages::{
    frontier_digest, CommitRecord, ReplicaMsg, ReplicaTimer, SummaryEntry, TentativeId,
};
use crate::shard::ShardRouter;
use crate::store::ObjectStore;
use SecondaryTimer::{AntiEntropy, Heartbeat};

/// A secondary's deadlines, handed back when they fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecondaryTimer {
    /// The periodic anti-entropy exchange.
    AntiEntropy,
    /// The parent-liveness heartbeat.
    Heartbeat,
}

/// How many peers a fresh tentative update is rumored to.
const GOSSIP_FANOUT: usize = 2;

/// Tentative updates for one object in (timestamp, id) order — the
/// tentative serialization order.
type TentativeLog = BTreeMap<(u64, TentativeId), Bytes>;

/// What became of one certified record offered to the store.
#[derive(Debug, Clone, Copy)]
enum Apply {
    /// Applied (or a duplicate of something already applied).
    Applied,
    /// Forged or partial certificate; dropped.
    Rejected,
    /// Ahead of our frontier; the prefix is missing.
    Gap,
}

/// What a secondary knows of one primary ring whose objects it carries.
#[derive(Debug, Clone)]
pub struct RingView {
    /// The ring's member nodes: who a tier→tree push of its records comes
    /// from, and who the ack goes back to.
    pub members: Vec<NodeId>,
    /// The members' public keys, in tier order.
    pub keys: Vec<PublicKey>,
    /// The ring's fault bound; a certificate needs `m + 1` signatures.
    pub m: usize,
}

/// A secondary replica.
#[derive(Debug)]
pub struct Secondary {
    cfg: SecondaryConfig,
    /// Committed state + record log.
    pub store: ObjectStore,
    /// Tentative updates per object, in (timestamp, id) order — the
    /// tentative serialization order.
    tentative: IdMap<Guid, TentativeLog>,
    /// Updates already seen (dedup for the rumor mill). An entry leaves
    /// with its record's truncation from the log: the stale-rumor rule
    /// refuses every later rumor of it before this set is consulted.
    seen: IdSet<(Guid, TentativeId)>,
    /// The primary rings, indexed by [`ShardRouter::ring_of`]. The
    /// secondary substrate is shared by every ring, so a record is checked
    /// against the keys of the tier that actually serialized its object,
    /// and a push is acked to that tier.
    rings: Vec<RingView>,
    router: ShardRouter,
    /// Last time the current parent gave any sign of life.
    parent_last_seen: SimTime,
    /// Outstanding adoption request: (candidate, when asked).
    pending_attach: Option<(NodeId, SimTime)>,
    /// Rotates through re-parenting candidates across attempts.
    candidate_cursor: usize,
    /// How many times this node successfully re-attached.
    reparented: u64,
    /// Records rejected because their certificate failed verification
    /// (forged, tampered, or partial).
    rejected: u64,
    /// Reused copy of the gossip peers, shuffled to pick each rumor's
    /// targets.
    rumor_peers: Vec<NodeId>,
}

impl Secondary {
    /// Creates a secondary shared by `rings.len()` rings: records of an
    /// object are verified against the keys of the ring `router` assigns
    /// it to, and pushes of them acked to that ring's members.
    ///
    /// # Panics
    ///
    /// Panics if the ring count disagrees with the router.
    pub fn new(cfg: SecondaryConfig, rings: Vec<RingView>, router: ShardRouter) -> Self {
        assert_eq!(rings.len(), router.rings(), "one view per routed ring");
        Secondary {
            cfg,
            store: ObjectStore::new(),
            tentative: IdMap::default(),
            seen: IdSet::default(),
            rings,
            router,
            parent_last_seen: SimTime::ZERO,
            pending_attach: None,
            candidate_cursor: 0,
            reparented: 0,
            rejected: 0,
            rumor_peers: Vec::new(),
        }
    }

    /// This replica's configuration.
    pub fn config(&self) -> &SecondaryConfig {
        &self.cfg
    }

    /// The current dissemination-tree parent.
    pub fn parent(&self) -> Option<NodeId> {
        self.cfg.parent
    }

    /// How many times this node re-attached after losing a parent.
    pub fn reparent_count(&self) -> u64 {
        self.reparented
    }

    /// Records rejected for failing certificate verification.
    pub fn rejected_count(&self) -> u64 {
        self.rejected
    }

    /// This node's current dissemination children.
    pub fn children(&self) -> &[(NodeId, ChildMode)] {
        &self.cfg.children
    }

    /// The committed view of an object, if replicated here.
    pub fn committed_view(&self, object: &Guid) -> Option<&DataObject> {
        self.store.get(object).map(|s| &s.data)
    }

    /// The tentative view: committed state plus tentative updates applied
    /// in timestamp order (what an optimistic reader sees, e.g. for
    /// disconnected operation). Starts from an empty object if this
    /// replica has only tentative data for it (fully disconnected write).
    pub fn tentative_view_or_empty(&self, object: &Guid) -> DataObject {
        let mut data = self
            .store
            .get(object)
            .map(|s| s.data.fork())
            .unwrap_or_default();
        if let Some(pending) = self.tentative.get(object) {
            for enc in pending.values() {
                if let Ok(u) = decode_view(enc) {
                    let _ = apply_owned(&mut data, u);
                }
            }
        }
        data
    }

    /// Number of tentative updates held for `object`.
    pub fn tentative_count(&self, object: &Guid) -> usize {
        self.tentative.get(object).map_or(0, BTreeMap::len)
    }

    /// Rumors this replica remembers having seen, across all objects.
    pub fn rumors_seen(&self) -> usize {
        self.seen.len()
    }

    /// Whether this replica knows it is behind on `object`.
    pub fn is_stale(&self, object: &Guid) -> bool {
        self.store.get(object).is_some_and(|s| s.known_index > s.next_index)
    }

    /// Starts the periodic anti-entropy and heartbeat timers.
    pub fn on_start(&mut self, ctx: &mut Context<'_, ReplicaMsg>) {
        self.parent_last_seen = ctx.now();
        ctx.set_timer(self.cfg.anti_entropy_interval, ReplicaTimer::Secondary(AntiEntropy));
        if self.cfg.parent.is_some() {
            ctx.set_timer(self.cfg.heartbeat_interval, ReplicaTimer::Secondary(Heartbeat));
        }
    }

    /// Timer dispatch.
    pub fn on_timer(&mut self, ctx: &mut Context<'_, ReplicaMsg>, timer: SecondaryTimer) {
        match timer {
            AntiEntropy => self.on_anti_entropy_tick(ctx),
            Heartbeat => self.on_heartbeat_tick(ctx),
        }
    }

    /// Our [`frontier_digest`]: the store's running half plus one pass
    /// over the tentative updates in flight.
    fn digest(&self) -> u64 {
        let tentative =
            self.tentative.iter().flat_map(|(g, log)| log.keys().map(move |(_, id)| (g, id)));
        self.store.committed_digest().wrapping_add(frontier_digest(std::iter::empty(), tentative))
    }

    /// Objects we hold nothing committed of, only tentative updates.
    fn tentative_only(&self) -> impl Iterator<Item = &Guid> {
        self.tentative.keys().filter(|g| self.store.get(g).is_none())
    }

    /// Everything we hold, object by object, in GUID order (hash-map
    /// iteration is not deterministic, and the receiver answers entry by
    /// entry). A Byzantine replica claims commits that do not exist so
    /// peers pull from it and receive forgeries.
    fn summary(&self) -> Vec<SummaryEntry> {
        let bait = if self.cfg.fault == SecondaryFault::ForgeOnServe { 3 } else { 0 };
        let entry = |object: &Guid, next_index: u64| SummaryEntry {
            object: *object,
            committed_index: next_index + bait,
            tentative_ids: self
                .tentative
                .get(object)
                .map(|log| log.keys().map(|(_, id)| *id).collect())
                .unwrap_or_default(),
        };
        let mut entries: Vec<SummaryEntry> = self
            .store
            .iter()
            .map(|(g, s)| entry(g, s.next_index))
            .chain(self.tentative_only().map(|g| entry(g, 0)))
            .collect();
        entries.sort_unstable_by_key(|e| e.object);
        entries
    }

    /// The primary at the parent's seat in every ring but the parent's
    /// own, when the parent is a primary: a primary answers only for the
    /// objects its ring owns, so the tree root asks one member of each
    /// ring or a lost push from any ring but the parent's is never
    /// repaired.
    fn parent_seat_in_other_rings(&self) -> impl Iterator<Item = NodeId> + '_ {
        let parent = self.cfg.parent;
        let seat = parent.and_then(|p| {
            self.rings.iter().find_map(|r| r.members.iter().position(|&m| m == p))
        });
        let same_seat = self.rings.iter().filter_map(move |r| r.members.get(seat?).copied());
        same_seat.filter(move |&m| Some(m) != parent)
    }

    /// Opens this tick's exchanges: our digest to one random peer — and to
    /// the tree parent, so a commit push dropped on the tier→tree edge is
    /// repaired top-down (a record no secondary ever received cannot be
    /// healed epidemically: nobody holds it). Whoever holds something
    /// else answers with its summary. A secondary that holds nothing —
    /// digest 0 — stays silent, as it always did: a tier nobody has
    /// written to has no background traffic, and what an empty secondary
    /// lacks reaches it by the tree, or by a peer's digest, which its
    /// empty summary answers.
    fn send_digest(&self, ctx: &mut Context<'_, ReplicaMsg>, peer: Option<NodeId>) {
        let targets =
            peer.into_iter().chain(self.cfg.parent).chain(self.parent_seat_in_other_rings());
        if self.cfg.fault == SecondaryFault::ForgeOnServe {
            // Byzantine bait needs no invitation.
            let entries = self.summary();
            ctx.broadcast(targets, ReplicaMsg::AntiEntropySummary { entries });
            return;
        }
        let digest = self.digest();
        if digest != 0 {
            for target in targets {
                ctx.send(target, ReplicaMsg::AntiEntropyDigest { digest });
            }
        }
    }

    fn on_anti_entropy_tick(&mut self, ctx: &mut Context<'_, ReplicaMsg>) {
        let peer = self.cfg.peers[..].choose(ctx.rng()).copied();
        self.send_digest(ctx, peer);
        // Re-pull anything stale from the parent: this is how an
        // invalidated leaf pulls (§4.4.3). A parent that stopped answering
        // is the heartbeat's to replace.
        if let Some(parent) = self.cfg.parent {
            let mut stale: Vec<(Guid, u64)> = self
                .store
                .iter()
                .filter(|(_, s)| s.is_stale())
                .map(|(g, s)| (*g, s.next_index))
                .collect();
            stale.sort();
            for (object, from_index) in stale {
                ctx.send(parent, ReplicaMsg::FetchCommits { object, from_index });
            }
        }
        ctx.set_timer(self.cfg.anti_entropy_interval, ReplicaTimer::Secondary(AntiEntropy));
    }

    fn on_heartbeat_tick(&mut self, ctx: &mut Context<'_, ReplicaMsg>) {
        let now = ctx.now();
        if let Some(parent) = self.cfg.parent {
            match self.pending_attach {
                Some((_candidate, asked_at)) => {
                    // An adoption request is in flight; give the candidate
                    // one timeout's worth of patience, then move on.
                    if now.saturating_since(asked_at) > self.cfg.parent_timeout {
                        self.try_next_candidate(ctx);
                    }
                }
                None => {
                    if now.saturating_since(self.parent_last_seen) > self.cfg.parent_timeout {
                        // Parent is dead to us: seek a new one.
                        self.try_next_candidate(ctx);
                    } else {
                        ctx.send(parent, ReplicaMsg::Ping);
                    }
                }
            }
        }
        ctx.set_timer(self.cfg.heartbeat_interval, ReplicaTimer::Secondary(Heartbeat));
    }

    /// Re-parenting candidates in preference order: grandparent, then
    /// siblings, then the primary ring.
    fn candidates(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        if let Some(g) = self.cfg.grandparent {
            out.push(g);
        }
        out.extend(self.cfg.siblings.iter().copied());
        out.extend(self.cfg.fallback_parents.iter().copied());
        out.retain(|&c| Some(c) != self.cfg.parent);
        out.dedup();
        out
    }

    fn try_next_candidate(&mut self, ctx: &mut Context<'_, ReplicaMsg>) {
        let candidates = self.candidates();
        if candidates.is_empty() {
            self.pending_attach = None;
            return;
        }
        let candidate = candidates[self.candidate_cursor % candidates.len()];
        self.candidate_cursor += 1;
        self.pending_attach = Some((candidate, ctx.now()));
        ctx.send(candidate, ReplicaMsg::Attach);
    }

    /// Any message from the current parent proves it alive.
    pub fn note_traffic(&mut self, from: NodeId, now: SimTime) {
        if Some(from) == self.cfg.parent {
            self.parent_last_seen = now;
        }
    }

    /// Handles a liveness probe from a child.
    pub fn on_ping(&mut self, ctx: &mut Context<'_, ReplicaMsg>, from: NodeId) {
        ctx.send(from, ReplicaMsg::Pong);
    }

    /// Handles an adoption request from an orphaned node.
    pub fn on_attach(&mut self, ctx: &mut Context<'_, ReplicaMsg>, from: NodeId) {
        // Refuse adoptions that would loop the tree (our own parent asking
        // us) and adoptions while we are orphaned ourselves — the requester
        // will retry elsewhere.
        if Some(from) == self.cfg.parent || self.pending_attach.is_some() {
            return;
        }
        if !self.cfg.children.iter().any(|(c, _)| *c == from) {
            self.cfg.children.push((from, ChildMode::Push));
        }
        // A new child is no longer a same-level sibling candidate.
        self.cfg.siblings.retain(|&s| s != from);
        ctx.send(from, ReplicaMsg::AttachOk { grandparent: self.cfg.parent });
    }

    /// Handles adoption confirmation from the candidate we asked.
    pub fn on_attach_ok(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        from: NodeId,
        grandparent: Option<NodeId>,
    ) {
        if !matches!(self.pending_attach, Some((candidate, _)) if candidate == from) {
            return; // stale grant from an earlier attempt
        }
        // The old parent must stop being anyone's child/candidate state.
        let old_parent = self.cfg.parent;
        self.cfg.parent = Some(from);
        self.cfg.grandparent = grandparent.filter(|&g| g != ctx.node());
        if let Some(old) = old_parent {
            self.cfg.children.retain(|(c, _)| *c != old);
        }
        self.pending_attach = None;
        self.candidate_cursor = 0;
        self.parent_last_seen = ctx.now();
        self.reparented += 1;
        // Catch up through the new parent at once, not at the next tick:
        // one digest, and its summary names what we missed while orphaned.
        self.send_digest(ctx, None);
    }

    /// Accepts a tentative update (from a client or a gossiping peer) and
    /// rumors it onward.
    pub fn on_tentative(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        object: Guid,
        update: Bytes,
        timestamp: u64,
        id: TentativeId,
    ) {
        if self.store.is_stale_rumor(&object, timestamp) {
            return; // older than history this node already truncated
        }
        if !self.seen.insert((object, id)) {
            return; // already rumored
        }
        // Skip updates that are already committed.
        if !self.store.holds_record(&object, timestamp, id) {
            self.tentative
                .entry(object)
                .or_default()
                .insert((timestamp, id), update.clone());
        }
        // Rumor mongering to a few random peers.
        self.rumor_peers.clone_from(&self.cfg.peers);
        self.rumor_peers.shuffle(ctx.rng());
        for &peer in self.rumor_peers.iter().take(GOSSIP_FANOUT) {
            ctx.send(peer, ReplicaMsg::Tentative { object, update: update.clone(), timestamp, id });
        }
    }

    /// Acks a tier→tree push back to the ring that owns `object` when the
    /// sender was one of its primaries and we now hold the record
    /// certified. The ack goes to *every* member of that ring (it is
    /// tiny), so observer primaries whose watchdogs armed via `CertFormed`
    /// stand down without ever pushing a duplicate. Deep tree edges
    /// (secondary sender) are never acked — secondary parents repair
    /// through anti-entropy, not retry state.
    fn ack_primary_push(&self, ctx: &mut Context<'_, ReplicaMsg>, from: NodeId, object: Guid, index: u64) {
        let members = &self.rings[self.router.ring_of(&object)].members;
        if !members.contains(&from) {
            return;
        }
        for &primary in members {
            ctx.send(primary, ReplicaMsg::CommitAck { object, index });
        }
    }

    /// Handles a certified commit record (tree push or fetch response).
    /// Returns whether it was applied.
    pub fn on_commit(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        from: NodeId,
        record: CommitRecord,
    ) -> bool {
        let object = record.object;
        match self.apply_certified(ctx, from, record) {
            Apply::Applied => true,
            Apply::Rejected => false,
            Apply::Gap => {
                // Pull the missing prefix from the parent, while
                // remembering how far the world has moved.
                let from_index = self.store.get(&object).map_or(0, |s| s.next_index);
                if let Some(parent) = self.cfg.parent {
                    ctx.send(parent, ReplicaMsg::FetchCommits { object, from_index });
                }
                false
            }
        }
    }

    /// Core of the certified-record path, shared by the single-record tree
    /// push and the batched fetch response. Issues no catch-up fetch
    /// itself: only a gapped push fetches.
    fn apply_certified(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        from: NodeId,
        record: CommitRecord,
    ) -> Apply {
        // Decode, name, then verify: the digest the certificate is checked
        // against is this node's own, and so are the CIDs the store files
        // the blocks under.
        let ring = &self.rings[self.router.ring_of(&record.object)];
        let Some((update, name)) = record.verified(&ring.keys, ring.m + 1) else {
            self.rejected += 1;
            return Apply::Rejected; // forged or partial certificate
        };
        // Duplicate suppression: a record below our committed frontier was
        // already applied *and* already streamed to our children — two
        // disseminators racing after a failover must not re-flood the
        // subtree. Duplicates are still acked: a late re-pusher must stop
        // retrying even though the first copy won.
        if self.store.get(&record.object).is_some_and(|s| record.index < s.next_index) {
            self.ack_primary_push(ctx, from, record.object, record.index);
            return Apply::Applied;
        }
        let seen = &mut self.seen;
        let forget = |dropped: &CommitRecord| {
            seen.remove(&(dropped.object, dropped.id));
        };
        let (object, index, id) = (record.object, record.index, record.id);
        if !self.store.apply_record(record, update, name, forget) {
            return Apply::Gap;
        }
        self.ack_primary_push(ctx, from, object, index);
        // Reconcile the optimistic path: this update is now final.
        if let Some(pending) = self.tentative.get_mut(&object) {
            pending.retain(|(_, tentative), _| *tentative != id);
            if pending.is_empty() {
                self.tentative.remove(&object);
            }
        }
        // Stream onward per child mode: the copies pushed are the log's.
        let record = self.store.record(&object, index).expect("the newest record is logged");
        for &(child, mode) in &self.cfg.children {
            match mode {
                ChildMode::Push => ctx.send(child, ReplicaMsg::Commit(record.clone())),
                ChildMode::Invalidate => ctx.send(
                    child,
                    ReplicaMsg::Invalidate { object, index, version: record.version },
                ),
            }
        }
        Apply::Applied
    }

    /// Handles an invalidation: mark stale; the pull happens on the next
    /// anti-entropy tick or explicit read-repair.
    pub fn on_invalidate(&mut self, ctx: &mut Context<'_, ReplicaMsg>, object: Guid, index: u64) {
        let st = self.store.entry(object);
        st.known_index = st.known_index.max(index + 1);
        // Propagate the invalidation to invalidate-mode children so the
        // whole bandwidth-limited subtree learns it is stale.
        for &(child, mode) in &self.cfg.children {
            if mode == ChildMode::Invalidate {
                ctx.send(
                    child,
                    ReplicaMsg::Invalidate { object, index, version: None },
                );
            }
        }
    }

    /// A forged, uncertified record a Byzantine replica serves in place of
    /// real data. Its certificate is empty, so honest receivers must
    /// reject it on the pull path.
    fn forged_record(&self, object: Guid, index: u64) -> CommitRecord {
        CommitRecord {
            object,
            index,
            update: vec![0xEE; 8].into(),
            version: Some(9_999),
            timestamp: 0,
            id: TentativeId { client: NodeId(0), counter: u64::MAX },
            cert: Default::default(),
        }
    }

    /// Serves the pull path for our own children/peers.
    pub fn on_fetch(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        from: NodeId,
        object: Guid,
        from_index: u64,
    ) {
        if self.cfg.fault == SecondaryFault::ForgeOnServe {
            // Byzantine: answer the pull with fabricated state.
            let records = vec![self.forged_record(object, from_index)];
            ctx.send(from, ReplicaMsg::Commits { records });
            return;
        }
        let records = self.store.records_from(&object, from_index);
        if !records.is_empty() {
            ctx.send(from, ReplicaMsg::Commits { records });
        }
    }

    /// Handles a batch of fetched records. A batch that still leaves a
    /// gap (its server's log has a hole) fetches nothing more: asking the
    /// same server again would return the same batch, and the next
    /// anti-entropy exchange finds a peer that holds the prefix.
    pub fn on_commits(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        from: NodeId,
        records: Vec<CommitRecord>,
    ) {
        for r in records {
            self.apply_certified(ctx, from, r);
        }
    }

    /// Handles an anti-entropy digest: silence if we hold the same,
    /// otherwise our summary, for the sender to act on.
    pub fn on_digest(&mut self, ctx: &mut Context<'_, ReplicaMsg>, from: NodeId, digest: u64) {
        if digest != self.digest() || self.cfg.fault == SecondaryFault::ForgeOnServe {
            ctx.send(from, ReplicaMsg::AntiEntropySummary { entries: self.summary() });
        }
    }

    /// Handles a summary: entry by entry, then — a secondary lists all it
    /// holds, a primary only what its ring owns — everything we hold that
    /// a secondary did not list, as if listed at index 0.
    pub fn on_summary(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        from: NodeId,
        entries: Vec<SummaryEntry>,
    ) {
        let mut unlisted: Vec<Guid> = Vec::new();
        if !self.rings.iter().any(|r| r.members.contains(&from)) {
            let listed: IdSet<Guid> = entries.iter().map(|e| e.object).collect();
            let held = self.store.guids().chain(self.tentative_only());
            unlisted.extend(held.filter(|g| !listed.contains(g)));
            unlisted.sort_unstable();
        }
        for e in entries {
            self.on_anti_entropy(ctx, from, e.object, e.committed_index, &e.tentative_ids);
        }
        for object in unlisted {
            self.on_anti_entropy(ctx, from, object, 0, &[]);
        }
    }

    /// One object of a peer's summary: send the tentatives and push the
    /// commits the peer lacks, fetch the commits we lack.
    fn on_anti_entropy(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        from: NodeId,
        object: Guid,
        committed_index: u64,
        tentative_ids: &[TentativeId],
    ) {
        if let Some(ours) = self.tentative.get(&object).filter(|ours| !ours.is_empty()) {
            let their: IdSet<&TentativeId> = tentative_ids.iter().collect();
            for ((timestamp, id), update) in ours {
                if !their.contains(id) {
                    ctx.send(
                        from,
                        ReplicaMsg::Tentative {
                            object,
                            update: update.clone(),
                            timestamp: *timestamp,
                            id: *id,
                        },
                    );
                }
            }
        }
        let ours_committed = self.store.get(&object).map_or(0, |s| s.next_index);
        if committed_index < ours_committed {
            // Push the suffix they lack (a Byzantine replica pushes
            // forgeries instead — honest receivers reject them).
            let records = if self.cfg.fault == SecondaryFault::ForgeOnServe {
                vec![self.forged_record(object, committed_index)]
            } else {
                self.store.records_from(&object, committed_index)
            };
            if !records.is_empty() {
                ctx.send(from, ReplicaMsg::Commits { records });
            }
        } else if committed_index > ours_committed {
            // Pull what we lack.
            ctx.send(from, ReplicaMsg::FetchCommits { object, from_index: ours_committed });
        }
    }
}
