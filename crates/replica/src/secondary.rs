//! Secondary-tier replicas (§4.4.3): epidemic tentative propagation plus
//! the committed stream from the dissemination tree.
//!
//! "Secondary replicas contain both tentative and committed data. They
//! employ an epidemic-style communication pattern to quickly spread
//! tentative commits among themselves and to pick a tentative
//! serialization order ... Secondary replicas order tentative updates in
//! timestamp order."
//!
//! A certified record that arrives above the frontier waits in the
//! hold-back until the gap below it fills, then applies in index order;
//! a record pushed by name whose bytes are still asked for waits there
//! too. What a secondary lacks it asks for once, through its want table.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use oceanstore_crypto::schnorr::PublicKey;
use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::{Guid, IdMap, IdSet};
use oceanstore_sim::{Context, NodeId, SimDuration, SimTime};
use oceanstore_update::object::DataObject;
use oceanstore_update::update::apply_owned;
use oceanstore_update::{decode_view, Update, UpdateDigest};
use rand::seq::SliceRandom;

use crate::config::{ChildMode, SecondaryConfig, SecondaryFault};
use crate::messages::{
    frontier_digest, CommitRecord, ReplicaMsg, ReplicaTimer, SummaryEntry, TentativeId,
};
use crate::shard::ShardRouter;
use crate::store::{ObjectState, ObjectStore, RECORD_RETENTION};
use Lack::{Prefix, Pull, Record};
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

/// One object's rumors: its tentative updates, and the id of every rumor
/// of it this node has seen (dedup for the rumor mill): those it holds the
/// bytes of, tentative or committed, and those it heard by name and asked
/// the bytes of. An id leaves with its record's truncation from the log:
/// the stale-rumor rule refuses every later rumor of it before the set is
/// consulted. An entry whose log is empty is no tentative state: it stays
/// only while it holds ids, and nothing that lists tentative updates sees
/// it.
#[derive(Debug, Default)]
struct Rumors {
    log: TentativeLog,
    seen: IdSet<TentativeId>,
}

/// Whether one of these asks for `object` in `wants` still counts: it went
/// out less than `window` before `now`.
fn asking(
    wants: &BTreeMap<(Guid, Lack), SimTime>,
    window: SimDuration,
    object: Guid,
    now: SimTime,
    asks: &[Lack],
) -> bool {
    let live = |at: SimTime| now.saturating_since(at) < window;
    asks.iter().any(|&lack| wants.get(&(object, lack)).is_some_and(|&at| live(at)))
}

/// What one ask in a secondary's want table is for, of one object. The
/// first three ask for the object's records from the first one at or
/// above the frontier that the hold-back lacks
/// ([`ReplicaMsg::FetchCommits`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Lack {
    /// A gap's prefix, asked of the parent whose push found it.
    Prefix,
    /// A record named without bytes we hold that pass the check, asked
    /// of the parent that pushed it or the peer that offered it.
    Record,
    /// What an anti-entropy summary showed a peer holds, asked of it.
    Pull,
    /// One tentative update's bytes, asked of whoever named them
    /// ([`ReplicaMsg::Want`]).
    Update(TentativeId),
}

/// A record in the hold-back: who sent it, and the update and name its
/// check decoded — `None` for a record pushed by name whose bytes we
/// lack, held while our ask for them stands.
type Held = (NodeId, Arc<CommitRecord>, Option<(Update<Bytes>, UpdateDigest)>);

/// The held record of `held` that waits for the bytes of `id`.
fn waiting(held: &BTreeMap<u64, Held>, id: TentativeId) -> Option<&Held> {
    held.values().find(|(_, record, checked)| checked.is_none() && record.id == id)
}

/// What became of one certified record offered to the store: whether it
/// applied (or duplicates one that did) — not if it was forged, or waits
/// in the hold-back for the bytes it lacks — or what is to be asked for
/// before it can: [`Lack::Prefix`] for a gap ahead of our frontier (the
/// record itself is held), [`Lack::Record`] for a record named without
/// bytes we hold that pass the check.
type Offer = Result<bool, Lack>;

/// Copies of large updates that reached a node already holding them:
/// how many, and how many update bytes they carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Copies {
    /// Copies that arrived.
    pub copies: u64,
    /// Their update bytes.
    pub bytes: u64,
}

impl Copies {
    fn add(&mut self, update: &Bytes) {
        self.copies += 1;
        self.bytes += update.len() as u64;
    }
}

/// A secondary's [`Copies`] by the way they came. A large update is one
/// its path offers by name: a rumor [`ReplicaMsg::rumor`] names, a record
/// [`CommitRecord::by_name`] names. A whole rumor is held if the node
/// holds its rumor or its record; a record, if the node logged it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopyLedger {
    /// `replica.dup_bytes.tentative_asked`: whole rumors answering our
    /// [`ReplicaMsg::Want`].
    pub tentative_asked: Copies,
    /// `replica.dup_bytes.tentative_unasked`: every other whole rumor.
    pub tentative_unasked: Copies,
    /// `replica.dup_bytes.commits_fetched`: records of a batch that ends
    /// our fetch of their object.
    pub commits_fetched: Copies,
    /// `replica.dup_bytes.commits_pushed`: records of every other batch
    /// (anti-entropy's push, and the answer to its pull).
    pub commits_pushed: Copies,
    /// `replica.dup_bytes.commit`: whole records pushed down the tree.
    pub commit: Copies,
}

impl CopyLedger {
    /// Every class together.
    pub fn total(&self) -> Copies {
        let classes = [
            self.tentative_asked,
            self.tentative_unasked,
            self.commits_fetched,
            self.commits_pushed,
            self.commit,
        ];
        let (copies, bytes) = classes.iter().fold((0, 0), |(n, b), c| (n + c.copies, b + c.bytes));
        Copies { copies, bytes }
    }
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
    /// Each object's rumors: its tentative updates and the ids seen, one
    /// entry, so one probe finds both.
    tentative: IdMap<Guid, Rumors>,
    /// The want table: when each ask this node has out went, by object
    /// and what it lacks. An ask counts for one `heartbeat_interval`:
    /// while it counts, nothing asks for the same bytes again. A fetch's
    /// or a pull's ask leaves when a batch that carries bytes of the
    /// object's records arrives, or at the first heartbeat tick after it
    /// lapses; an update's when its bytes arrive or its record leaves the
    /// log.
    wants: BTreeMap<(Guid, Lack), SimTime>,
    /// The hold-back: each object's certified records above its frontier
    /// (and a record at it still waiting for its bytes), by index, only
    /// below `next_index + RECORD_RETENTION`. At most 128 records an
    /// object, each the record as it arrived plus its decoding (a vector
    /// of views and one CID per stored block), so about the wire bytes of
    /// 128 records; an object with nothing held has no entry.
    held: IdMap<Guid, BTreeMap<u64, Held>>,
    /// The primary rings, indexed by [`ShardRouter::ring_of`]. The
    /// secondary substrate is shared by every ring, so a record is checked
    /// against the keys of the tier that actually serialized its object,
    /// and a push is acked to that tier.
    rings: Vec<RingView>,
    router: ShardRouter,
    /// Last time the current parent gave any sign of life.
    parent_last_seen: SimTime,
    /// When the current parent last pushed a commit. While it pushes, the
    /// stream is this node's heartbeat and its loss detector: no digest,
    /// no ping.
    parent_pushed_at: Option<SimTime>,
    /// When a push last found our committed frontier off the parent's and
    /// we asked the parent; cleared by a push that matches.
    frontier_asked_at: Option<SimTime>,
    /// Outstanding adoption request: (candidate, when asked).
    pending_attach: Option<(NodeId, SimTime)>,
    /// Rotates through re-parenting candidates across attempts.
    candidate_cursor: usize,
    /// How many times this node successfully re-attached.
    reparented: u64,
    /// Records rejected because their certificate failed verification
    /// (forged, tampered, or partial).
    rejected: u64,
    /// Copies of large updates that reached this node already held.
    ledger: CopyLedger,
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
            wants: BTreeMap::new(),
            held: IdMap::default(),
            rings,
            router,
            parent_last_seen: SimTime::ZERO,
            parent_pushed_at: None,
            frontier_asked_at: None,
            pending_attach: None,
            candidate_cursor: 0,
            reparented: 0,
            rejected: 0,
            ledger: CopyLedger::default(),
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

    /// Copies of large updates that reached this node already held.
    pub fn copy_ledger(&self) -> &CopyLedger {
        &self.ledger
    }

    /// Whether `r` is a copy of a large update whose record we logged.
    fn logged_copy(&self, r: &CommitRecord) -> bool {
        r.is_large() && self.store.holds_record(&r.object, r.timestamp, r.id)
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
            for enc in pending.log.values() {
                if let Ok(u) = decode_view(enc) {
                    let _ = apply_owned(&mut data, u);
                }
            }
        }
        data
    }

    /// Number of tentative updates held for `object`.
    pub fn tentative_count(&self, object: &Guid) -> usize {
        self.tentative.get(object).map_or(0, |r| r.log.len())
    }

    /// Rumors this replica remembers having seen, across all objects:
    /// those it holds the bytes of, tentative or committed, and those it
    /// heard by name and asked the bytes of, until they arrive.
    pub fn rumors_seen(&self) -> usize {
        self.tentative.values().map(|r| r.seen.len()).sum()
    }

    /// Whether this replica knows it is behind on `object`.
    pub fn is_stale(&self, object: &Guid) -> bool {
        self.store.get(object).is_some_and(ObjectState::is_stale)
    }

    /// Records of `object` in the hold-back, waiting for the gap below
    /// them to fill or for their bytes.
    pub fn held_count(&self, object: &Guid) -> usize {
        self.held.get(object).map_or(0, BTreeMap::len)
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
            self.tentative.iter().flat_map(|(g, r)| r.log.keys().map(move |(_, id)| (g, id)));
        self.store.committed_digest().wrapping_add(frontier_digest(std::iter::empty(), tentative))
    }

    /// Objects we hold nothing committed of, only tentative updates.
    fn tentative_only(&self) -> impl Iterator<Item = &Guid> {
        let pending = self.tentative.iter().filter(|(_, r)| !r.log.is_empty());
        pending.map(|(g, _)| g).filter(|g| self.store.get(g).is_none())
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
                .map(|r| r.log.keys().map(|(_, id)| *id).collect())
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
    /// else answers with its summary, and a secondary behind its parent
    /// fetches what the summary shows it lacks: this is also how an
    /// invalidated leaf pulls (§4.4.3). A secondary that holds nothing —
    /// digest 0 — stays silent unless an invalidation told it it is
    /// stale: a tier nobody has written to has no background traffic, and
    /// what an empty secondary lacks reaches it by the tree, or by a
    /// peer's digest, which its empty summary answers.
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
        if digest != 0 || self.store.iter().any(|(_, s)| s.is_stale()) {
            for target in targets {
                ctx.send(target, ReplicaMsg::AntiEntropyDigest { digest });
            }
        }
    }

    /// Whether the current parent gave a sign of life within its timeout.
    fn attached(&self, now: SimTime) -> bool {
        now.saturating_since(self.parent_last_seen) <= self.cfg.parent_timeout
    }

    /// Whether the current parent pushed a commit within the last `window`.
    fn parent_pushed_within(&self, now: SimTime, window: SimDuration) -> bool {
        self.parent_pushed_at.is_some_and(|at| now.saturating_since(at) < window)
    }

    /// Digests go out only once the tree is quiet: while the parent
    /// pushes, the stream finds what this node lacks (a secondary
    /// parent's frontier, a primary's ack and re-push). A node that knows
    /// it is stale (an invalidated leaf) and the Byzantine bait send every
    /// tick regardless.
    fn on_anti_entropy_tick(&mut self, ctx: &mut Context<'_, ReplicaMsg>) {
        let streaming = self.parent_pushed_within(ctx.now(), self.cfg.anti_entropy_interval);
        if !streaming
            || self.cfg.fault == SecondaryFault::ForgeOnServe
            || self.store.iter().any(|(_, s)| s.is_stale())
        {
            let peer = self.cfg.peers[..].choose(ctx.rng()).copied();
            self.send_digest(ctx, peer);
        }
        ctx.set_timer(self.cfg.anti_entropy_interval, ReplicaTimer::Secondary(AntiEntropy));
    }

    fn on_heartbeat_tick(&mut self, ctx: &mut Context<'_, ReplicaMsg>) {
        let now = ctx.now();
        // A lapsed ask for the bytes of a held record asks its pusher,
        // which holds the record it pushed. A lapsed fetch or pull counts
        // for nothing and leaves; an update's ask stays to recognise its
        // answer.
        let held = &self.held;
        self.wants.retain(|&(object, lack), at| {
            let lapsed = now.saturating_since(*at) >= self.cfg.heartbeat_interval;
            if let (Lack::Update(id), true) = (lack, lapsed) {
                if let Some((pusher, record, _)) = held.get(&object).and_then(|h| waiting(h, id)) {
                    ctx.send(*pusher, ReplicaMsg::Want { object, timestamp: record.timestamp, id });
                    *at = now;
                }
            }
            !lapsed || matches!(lack, Lack::Update(_))
        });
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
                    if !self.attached(now) {
                        // Parent is dead to us: seek a new one.
                        self.try_next_candidate(ctx);
                    } else if !self.parent_pushed_within(now, self.cfg.heartbeat_interval) {
                        // A parent that pushed this interval needs no probe.
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
        self.parent_pushed_at = None;
        self.frontier_asked_at = None;
        self.reparented += 1;
        // Catch up through the new parent at once, not at the next tick:
        // one digest, and its summary names what we missed while orphaned.
        self.send_digest(ctx, None);
    }

    /// Accepts a tentative update (from a client, a gossiping peer, or
    /// the peer we asked for its bytes) and rumors it onward: a large one
    /// by name ([`ReplicaMsg::rumor`]). A held record that waited for
    /// these bytes is offered again now.
    pub fn on_tentative(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        object: Guid,
        update: Bytes,
        timestamp: u64,
        id: TentativeId,
    ) {
        let asked = self.wants.remove(&(object, Lack::Update(id)));
        let held = |store: &ObjectStore| store.holds_record(&object, timestamp, id);
        let key = (timestamp, id);
        let copy = |l: &mut CopyLedger, held: bool| {
            if held && update.len() > ReplicaMsg::NAME_SIZE {
                let class =
                    if asked.is_some() { &mut l.tentative_asked } else { &mut l.tentative_unasked };
                class.add(&update);
            }
        };
        // A stale rumor is refused and leaves no entry behind; any other
        // is seen, in its object's entry.
        if self.store.is_stale_rumor(&object, timestamp) {
            let logged = self.tentative.get(&object).is_some_and(|r| r.log.contains_key(&key));
            copy(&mut self.ledger, logged || held(&self.store));
            return;
        }
        let rumors = self.tentative.entry(object).or_default();
        copy(&mut self.ledger, rumors.log.contains_key(&key) || held(&self.store));
        // `seen` admits one copy of each rumor, and the answer to our ask
        // unless the record came first.
        if !rumors.seen.insert(id) && (asked.is_none() || held(&self.store)) {
            return;
        }
        if !held(&self.store) {
            rumors.log.insert(key, update.clone());
        }
        self.gossip(ctx, ReplicaMsg::rumor(object, update, timestamp, id));
        let unheld = asked.and(self.held.get_mut(&object)).and_then(|held| {
            let index = waiting(held, id)?.1.index;
            held.remove(&index)
        });
        if let Some((from, record, _)) = unheld {
            let applied = self.offer(ctx, from, record);
            self.settle(ctx, object, applied);
        }
    }

    /// Rumor mongering to a few random peers.
    fn gossip(&mut self, ctx: &mut Context<'_, ReplicaMsg>, rumor: ReplicaMsg) {
        let (targets, _) = self.cfg.peers.partial_shuffle(ctx.rng(), GOSSIP_FANOUT);
        for &peer in targets.iter() {
            ctx.send(peer, rumor.clone());
        }
    }

    /// Handles a rumor by name from `from`. A replica that holds the
    /// record committed passes the name on, as it passes on a whole
    /// rumor; one that has not seen the update asks `from` for its bytes,
    /// once, and rumors it when they come. A name heard while a fetch of
    /// the object counts draws nothing: the fetched records are likely to
    /// hold it. Nor does a name heard by the tree root while its primary
    /// parent is alive: the primaries push it every record whole. An ask
    /// that lapsed unanswered (the ask or its answer was lost, or the
    /// announcer holds nothing) asks again, of whoever names the update
    /// next.
    pub fn on_heard(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        from: NodeId,
        object: Guid,
        timestamp: u64,
        id: TentativeId,
    ) {
        if self.store.is_stale_rumor(&object, timestamp) {
            return;
        }
        let (now, heartbeat) = (ctx.now(), self.cfg.heartbeat_interval);
        let held = self.store.holds_record(&object, timestamp, id);
        let primary = |p| self.rings.iter().any(|r| r.members.contains(&p));
        let root = self.attached(now) && self.cfg.parent.is_some_and(primary);
        let fetching =
            |wants: &_| root || asking(wants, heartbeat, object, now, &[Prefix, Record, Pull]);
        // An object with no entry has seen no rumor; one is made only if
        // this one is to be seen.
        let rumors = match self.tentative.entry(object) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) if held || !fetching(&self.wants) => {
                entry.insert(Rumors::default())
            }
            Entry::Vacant(_) => return,
        };
        if rumors.seen.contains(&id) {
            let ask = self.wants.get_mut(&(object, Lack::Update(id))).filter(|_| !held);
            if let Some(at) = ask.filter(|at| now.saturating_since(**at) >= heartbeat) {
                *at = now;
                ctx.send(from, ReplicaMsg::Want { object, timestamp, id });
            }
            return;
        }
        if held {
            rumors.seen.insert(id);
            self.gossip(ctx, ReplicaMsg::Heard { object, timestamp, id });
        } else if !fetching(&self.wants) {
            rumors.seen.insert(id);
            self.wants.insert((object, Lack::Update(id)), now);
            ctx.send(from, ReplicaMsg::Want { object, timestamp, id });
        }
    }

    /// Answers a [`ReplicaMsg::Want`] with the whole rumor, from the
    /// tentative log or from the logged record with that id; a replica
    /// that holds neither stays silent.
    pub fn on_want(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        from: NodeId,
        object: Guid,
        timestamp: u64,
        id: TentativeId,
    ) {
        let rumor = self.tentative.get(&object).and_then(|r| r.log.get(&(timestamp, id)));
        let logged = || self.store.record_of(&object, timestamp, id).map(|r| &r.update);
        if let Some(update) = rumor.or_else(logged) {
            ctx.send(from, ReplicaMsg::Tentative { object, update: update.clone(), timestamp, id });
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

    /// Handles a certified commit record pushed down the tree, with the
    /// pushing parent's committed `frontier` if it is a secondary. A
    /// secondary parent pushes a large update by name
    /// ([`CommitRecord::by_name`]). Returns whether the record was applied.
    pub fn on_commit(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        from: NodeId,
        record: Arc<CommitRecord>,
        frontier: Option<u64>,
    ) -> bool {
        let from_parent = Some(from) == self.cfg.parent;
        if from_parent {
            self.parent_pushed_at = Some(ctx.now());
        }
        if self.logged_copy(&record) {
            self.ledger.commit.add(&record.update);
        }
        let object = record.object;
        let applied = self.offer(ctx, from, record);
        if let (Ok(true), Some(frontier), true) = (applied, frontier, from_parent) {
            self.compare_frontier(ctx, from, frontier);
        }
        self.settle(ctx, object, applied)
    }

    /// Offers a record to the store: with the bytes it carries, or, named
    /// without them, as a record of our own with the bytes we hold under
    /// its name — the rumor logged under its `(timestamp, id)`, else our
    /// own record at its index — checked as bytes that came with it are.
    /// A rumor is unauthenticated, so held bytes that fail are no forgery
    /// of the sender's: nothing is rejected, and the record is asked for.
    /// A record whose bytes we hold none of waits in the hold-back while
    /// our ask for them stands, else is asked for.
    fn offer(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        from: NodeId,
        mut record: Arc<CommitRecord>,
    ) -> Offer {
        let carried = !record.update.is_empty();
        if !carried {
            let (object, key) = (record.object, (record.timestamp, record.id));
            let rumor = self.tentative.get(&object).and_then(|r| r.log.get(&key));
            let logged = || self.store.record(&object, record.index).map(|r| &r.update);
            let Some(update) = rumor.or_else(logged).cloned() else {
                if !self.wants.contains_key(&(object, Lack::Update(record.id))) {
                    return Err(Record);
                }
                self.hold((from, record, None));
                return Ok(false);
            };
            record = Arc::new(record.with_update(update));
        }
        let ring = &self.rings[self.router.ring_of(&record.object)];
        match record.verified(&ring.keys, ring.m + 1) {
            Some((update, name)) => self.apply_verified(ctx, from, record, update, name),
            None if carried => {
                self.rejected += 1;
                Ok(false) // forged or partial certificate
            }
            None => Err(Record),
        }
    }

    /// Whether a pushed record applied; what it lacks is asked of the
    /// parent, and the hold-back drains.
    fn settle(&mut self, ctx: &mut Context<'_, ReplicaMsg>, object: Guid, applied: Offer) -> bool {
        if let (Err(lack), Some(parent)) = (applied, self.cfg.parent) {
            self.fetch(ctx, parent, object, lack);
        }
        self.drain(ctx, object);
        applied == Ok(true)
    }

    /// Holds `entry`'s record (its check `None` while it waits for its
    /// bytes) if its index is below the bound; a record that passed its
    /// check replaces one held at its index that has not, never the
    /// reverse. Every caller drains the object next, which drops what the
    /// frontier passed and an emptied entry.
    fn hold(&mut self, entry: Held) {
        let (object, index) = (entry.1.object, entry.1.index);
        let bound = self.store.get(&object).map_or(0, |s| s.next_index) + RECORD_RETENTION;
        let held = self.held.entry(object).or_default();
        if index < bound && !matches!(held.get(&index), Some((.., Some(_)))) {
            held.insert(index, entry);
        }
    }

    /// Applies the held records the frontier has reached, in index order,
    /// each streamed and acked as a push is, and drops those it passed.
    fn drain(&mut self, ctx: &mut Context<'_, ReplicaMsg>, object: Guid) {
        while let Some(mut held) = self.held.remove(&object) {
            let next = self.store.get(&object).map_or(0, |s| s.next_index);
            held.retain(|&index, _| index >= next);
            let due = held.first_entry().filter(|e| *e.key() == next && e.get().2.is_some());
            let due = due.map(|e| e.remove());
            if !held.is_empty() {
                self.held.insert(object, held);
            }
            let Some((from, record, Some((update, name)))) = due else { return };
            let _ = self.apply_verified(ctx, from, record, update, name);
        }
    }

    /// Asks `holder` for `object`'s records, as `lack`, from the first one
    /// at or above the frontier that the hold-back lacks, unless an ask
    /// whose answer would bring the same records still counts: a gap's
    /// fetch waits on a fetch, a record's also on a pull, and a pull on a
    /// record's fetch. A gap's fetch and a pull, the paths whole records
    /// take, never wait on each other.
    fn fetch(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        holder: NodeId,
        object: Guid,
        lack: Lack,
    ) {
        let redundant: &[Lack] = match lack {
            Prefix => &[Prefix, Record],
            Record => &[Prefix, Record, Pull],
            _ => &[Record],
        };
        if asking(&self.wants, self.cfg.heartbeat_interval, object, ctx.now(), redundant) {
            return;
        }
        let held = self.held.get(&object);
        let next = self.store.get(&object).map_or(0, |s| s.next_index);
        let from_index = (next..).find(|i| !held.is_some_and(|h| h.contains_key(i)));
        let from_index = from_index.unwrap_or(next);
        self.wants.insert((object, lack), ctx.now());
        ctx.send(holder, ReplicaMsg::FetchCommits { object, from_index });
    }

    /// A parent's push carries its committed frontier after applying the
    /// record, and links are FIFO, so ours matches unless one of us missed
    /// a push or took a record some other way. On a mismatch we send the
    /// parent our digest: its summary names the gap both ways, and the
    /// usual fetch or push closes it. We ask at most once per heartbeat
    /// interval until a push matches.
    fn compare_frontier(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        parent: NodeId,
        frontier: u64,
    ) {
        if frontier == self.store.committed_digest() {
            self.frontier_asked_at = None;
            return;
        }
        let now = ctx.now();
        let asked_lately = self
            .frontier_asked_at
            .is_some_and(|at| now.saturating_since(at) < self.cfg.heartbeat_interval);
        if !asked_lately {
            self.frontier_asked_at = Some(now);
            ctx.send(parent, ReplicaMsg::AntiEntropyDigest { digest: self.digest() });
        }
    }

    /// Applies a record that passed the check, with the update and name
    /// the check derived: the digest the certificate was checked against
    /// is this node's own, and so are the CIDs the store files the blocks
    /// under. A record above the frontier is held, and its gap's prefix
    /// is what we lack.
    fn apply_verified(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        from: NodeId,
        record: Arc<CommitRecord>,
        update: Update<Bytes>,
        name: UpdateDigest,
    ) -> Offer {
        // Duplicate suppression: a record below our committed frontier was
        // already applied *and* already streamed to our children — two
        // disseminators racing after a failover must not re-flood the
        // subtree. Duplicates are still acked: a late re-pusher must stop
        // retrying even though the first copy won.
        let next = self.store.get(&record.object).map_or(0, |s| s.next_index);
        if record.index < next {
            self.ack_primary_push(ctx, from, record.object, record.index);
            return Ok(true);
        }
        if record.index > next {
            let st = self.store.entry(record.object);
            st.known_index = st.known_index.max(record.index + 1);
            self.hold((from, record, Some((update, name))));
            return Err(Prefix);
        }
        let (tentative, wants) = (&mut self.tentative, &mut self.wants);
        let forget = |dropped: &CommitRecord| {
            if let Entry::Occupied(mut entry) = tentative.entry(dropped.object) {
                let rumors = entry.get_mut();
                rumors.seen.remove(&dropped.id);
                if rumors.seen.is_empty() && rumors.log.is_empty() {
                    entry.remove();
                }
            }
            wants.remove(&(dropped.object, Lack::Update(dropped.id)));
        };
        let (object, index, id) = (record.object, record.index, record.id);
        let timestamp = record.timestamp;
        // The record is the next index, so the store applies it.
        self.store.apply_record(record, update, name, forget);
        self.ack_primary_push(ctx, from, object, index);
        // Reconcile the optimistic path: this update is now final. `seen`
        // admits one rumor per id, and an honest one is logged under the
        // record's own key; scan for the id only when that key is absent.
        // The entry stays while it holds ids, and an emptied log goes:
        // a `BTreeMap` keeps the node of its last entry.
        if let Entry::Occupied(mut entry) = self.tentative.entry(object) {
            let Rumors { log, seen } = entry.get_mut();
            if log.remove(&(timestamp, id)).is_none() {
                log.retain(|(_, tentative), _| *tentative != id);
            }
            match (log.is_empty(), seen.is_empty()) {
                (true, true) => drop(entry.remove()),
                (true, false) => *log = TentativeLog::new(),
                _ => {}
            }
        }
        // Stream onward per child mode: the record pushed is the log's,
        // with our frontier now that the record is applied, and a large
        // update goes by name.
        let record = self.store.record(&object, index).expect("the newest record is logged");
        let frontier = self.store.committed_digest();
        let mut push = None;
        for &(child, mode) in &self.cfg.children {
            match mode {
                ChildMode::Push => {
                    let push = push.get_or_insert_with(|| ReplicaMsg::Commit {
                        record: Arc::clone(record).by_name(),
                        frontier: Some(frontier),
                    });
                    ctx.send(child, push.clone())
                }
                ChildMode::Invalidate => ctx.send(
                    child,
                    ReplicaMsg::Invalidate { object, index, version: record.version },
                ),
            }
        }
        Ok(true)
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
    fn forged_record(&self, object: Guid, index: u64) -> Arc<CommitRecord> {
        Arc::new(CommitRecord {
            object,
            index,
            update: vec![0xEE; 8].into(),
            version: Some(9_999),
            timestamp: 0,
            id: TentativeId { client: NodeId(0), counter: u64::MAX },
            cert: Default::default(),
        })
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

    /// Handles a batch of records, fetched or offered, in order, and then
    /// drains the hold-back of its objects. A batch that still leaves a
    /// gap (its server's log has a hole) asks for nothing more: asking the
    /// same server again would return the same batch, and the next
    /// anti-entropy exchange finds a peer that holds the prefix. A record
    /// offered by name whose bytes we lack is asked of the sender. The
    /// batch ends the fetch of its objects.
    pub fn on_commits(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        from: NodeId,
        records: Vec<Arc<CommitRecord>>,
    ) {
        let mut fetched = false;
        let mut objects: Vec<Guid> = records.iter().map(|r| r.object).collect();
        objects.dedup();
        for r in records {
            if !r.update.is_empty() {
                for lack in [Prefix, Record, Pull] {
                    fetched |= self.wants.remove(&(r.object, lack)).is_some_and(|_| lack != Pull);
                }
            }
            if self.logged_copy(&r) {
                let l = &mut self.ledger;
                let class = if fetched { &mut l.commits_fetched } else { &mut l.commits_pushed };
                class.add(&r.update);
            }
            let object = r.object;
            if let Err(Record) = self.offer(ctx, from, r) {
                self.fetch(ctx, from, object, Record);
            }
        }
        for object in objects {
            self.drain(ctx, object);
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
        let secondary = !self.rings.iter().any(|r| r.members.contains(&from));
        if secondary {
            let listed: IdSet<Guid> = entries.iter().map(|e| e.object).collect();
            let held = self.store.guids().chain(self.tentative_only());
            unlisted.extend(held.filter(|g| !listed.contains(g)));
            unlisted.sort_unstable();
        }
        for e in entries {
            let (index, ids) = (e.committed_index, &e.tentative_ids);
            self.on_anti_entropy(ctx, from, secondary, e.object, index, ids);
        }
        for object in unlisted {
            self.on_anti_entropy(ctx, from, secondary, object, 0, &[]);
        }
    }

    /// One object of a peer's summary: offer the tentatives and push the
    /// commits the peer lacks, fetch the commits we lack. A large update
    /// goes by name, to be asked for if the peer lacks its bytes: its
    /// summary lists only its tentative log, so it may hold the record. A
    /// primary keeps no rumors, so records go to it whole.
    fn on_anti_entropy(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        from: NodeId,
        secondary: bool,
        object: Guid,
        committed_index: u64,
        tentative_ids: &[TentativeId],
    ) {
        if let Some(Rumors { log: ours, .. }) = self.tentative.get(&object) {
            let their: IdSet<&TentativeId> = tentative_ids.iter().collect();
            for (&(timestamp, id), update) in ours.iter().filter(|(k, _)| !their.contains(&k.1)) {
                ctx.send(from, ReplicaMsg::rumor(object, update.clone(), timestamp, id));
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
            let records: Vec<_> =
                records.into_iter().map(|r| if secondary { r.by_name() } else { r }).collect();
            if !records.is_empty() {
                ctx.send(from, ReplicaMsg::Commits { records });
            }
        } else if committed_index > ours_committed {
            // Pull what we lack, but not from a peer while the parent is
            // alive and we hold a large rumor of the object: the tree
            // brings its record by name, likely in this very instant, and
            // the pull would bring the bytes again. The parent's own
            // summary, behind its push on a FIFO link, still draws a pull.
            let rumors = self.tentative.get(&object).map(|r| &r.log);
            let large = rumors.is_some_and(|l| l.values().any(|u| u.len() > ReplicaMsg::NAME_SIZE));
            if !large || Some(from) == self.cfg.parent || !self.attached(ctx.now()) {
                self.fetch(ctx, from, object, Pull);
            }
        }
    }
}
