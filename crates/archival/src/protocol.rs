//! Archival storage over the network: dissemination, reconstruction with
//! extra requests, and the repair sweep (§4.5).
//!
//! "We can make use of excess capacity to insulate ourselves from slow
//! servers by requesting more fragments than we absolutely need and
//! reconstructing the data as soon as we have enough fragments."
//!
//! "OceanStore contains processes that slowly sweep through all existing
//! archival data, repairing or increasing the level of replication to
//! further increase durability."

use std::collections::{HashMap, HashSet};

use oceanstore_erasure::object::ObjectCodec;
use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::Guid;
use oceanstore_sim::{Context, Message, NodeId, Protocol, SimDuration, SimTime};

use crate::fragment::{archive_object, reconstruct_verified, Fragment};
use crate::store::{FragStore, FragStoreHealth};

/// The archival layer's one deadline, handed back when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchTimer {
    /// Evaluate the previous sweep round and start a new one.
    Sweep,
}

/// Messages of the archival layer.
#[derive(Debug, Clone)]
pub enum ArchMsg {
    /// Store this fragment.
    Store(Fragment),
    /// Please send your fragment of `archive`.
    Request {
        /// Fetch id at the origin.
        id: u64,
        /// The archival object.
        archive: Guid,
        /// Who to answer.
        origin: NodeId,
    },
    /// A fragment answering fetch `id`.
    Response {
        /// Fetch id.
        id: u64,
        /// The fragment.
        fragment: Fragment,
    },
    /// Liveness probe from the sweeper.
    Ping,
    /// Liveness answer.
    Pong,
}

impl Message for ArchMsg {
    type Timer = ArchTimer;

    fn wire_size(&self) -> usize {
        match self {
            ArchMsg::Store(f) => 8 + f.wire_size(),
            ArchMsg::Request { .. } => 16 + Guid::WIRE_SIZE + 8,
            ArchMsg::Response { fragment, .. } => 16 + fragment.wire_size(),
            ArchMsg::Ping | ArchMsg::Pong => 8,
        }
    }

    fn class(&self) -> &'static str {
        match self {
            ArchMsg::Store(_) => "arch/store",
            ArchMsg::Request { .. } => "arch/request",
            ArchMsg::Response { .. } => "arch/response",
            ArchMsg::Ping => "arch/ping",
            ArchMsg::Pong => "arch/pong",
        }
    }
}

/// Result of a completed fetch.
#[derive(Debug, Clone)]
pub struct FetchOutcome {
    /// The reconstructed bytes; a reader takes a view, not a copy.
    pub data: Bytes,
    /// When reconstruction succeeded.
    pub completed_at: SimTime,
    /// Fragments received before success.
    pub fragments_used: usize,
}

#[derive(Debug)]
enum FetchPurpose {
    Read,
    Repair { archive: Guid },
}

#[derive(Debug)]
struct PendingFetch {
    codec: ObjectCodec,
    received: Vec<Fragment>,
    purpose: FetchPurpose,
}

/// One archival object the sweeper watches over.
#[derive(Debug, Clone)]
pub struct TrackedArchive {
    /// The archival object GUID.
    pub archive: Guid,
    /// Its codec parameters.
    pub codec: ObjectCodec,
    /// Current believed holders (one per fragment index, duplicates OK).
    pub holders: Vec<NodeId>,
    /// Redundancy floor: repair when live holders drop below this.
    pub repair_threshold: usize,
}

/// A node of the archival layer: fragment server, requester, and
/// (optionally) repair sweeper.
#[derive(Debug)]
pub struct ArchNode {
    /// Fragments stored here: metadata index over a content-addressed
    /// blob store holding the payloads.
    store: FragStore,
    /// Outstanding fetches from this node.
    pending: HashMap<u64, PendingFetch>,
    /// Completed fetches.
    outcomes: HashMap<u64, FetchOutcome>,
    /// Archives this node sweeps (empty for ordinary servers).
    tracked: Vec<TrackedArchive>,
    /// Pong responses accumulating in the current sweep round.
    pongs: HashSet<NodeId>,
    /// Pong responses from the last *completed* round (what repair
    /// decisions and re-dissemination use).
    pongs_last: HashSet<NodeId>,
    /// Completed liveness rounds (no repair decisions before round 1).
    sweep_rounds: u32,
    /// Sweep period (None = not a sweeper).
    sweep_interval: Option<SimDuration>,
    /// Candidate sites for re-dissemination during repair.
    repair_universe: Vec<NodeId>,
    /// Fetch ids for internal (repair) fetches count down from here.
    next_internal_fetch: u64,
}

impl Default for ArchNode {
    fn default() -> Self {
        Self::new()
    }
}

impl ArchNode {
    /// An ordinary fragment server / requester.
    pub fn new() -> Self {
        ArchNode {
            store: FragStore::new(),
            pending: HashMap::new(),
            outcomes: HashMap::new(),
            tracked: Vec::new(),
            pongs: HashSet::new(),
            pongs_last: HashSet::new(),
            sweep_rounds: 0,
            sweep_interval: None,
            repair_universe: Vec::new(),
            next_internal_fetch: u64::MAX,
        }
    }

    /// Turns this node into a repair sweeper over `universe`.
    pub fn enable_sweeper(&mut self, interval: SimDuration, universe: Vec<NodeId>) {
        self.sweep_interval = Some(interval);
        self.repair_universe = universe;
    }

    /// Registers an archive for sweeping.
    pub fn track(&mut self, archive: TrackedArchive) {
        self.tracked.push(archive);
    }

    /// Number of fragments stored locally.
    pub fn stored_fragments(&self) -> usize {
        self.store.len()
    }

    /// Whether a fragment of `archive` is stored here.
    pub fn holds(&self, archive: &Guid) -> bool {
        self.store.holds(archive)
    }

    /// Store-health counters of this node's fragment holdings.
    pub fn store_health(&self) -> FragStoreHealth {
        self.store.health()
    }

    /// Swaps the fragment store's blob backend (chaos scenarios wire
    /// provider composites in; held payloads are re-homed).
    pub fn set_blob_store(&mut self, backend: Box<dyn oceanstore_store::BlobStore>) {
        self.store.set_blob_store(backend);
    }

    /// Holders currently believed for a tracked archive (sweeper view).
    pub fn tracked_holders(&self, archive: &Guid) -> Option<&[NodeId]> {
        self.tracked.iter().find(|t| t.archive == *archive).map(|t| t.holders.as_slice())
    }

    /// The outcome of fetch `id`, if complete.
    pub fn outcome(&self, id: u64) -> Option<&FetchOutcome> {
        self.outcomes.get(&id)
    }

    /// Stores a fragment locally (out-of-band seeding for tests/benches).
    pub fn seed_fragment(&mut self, fragment: Fragment) {
        self.store.insert(fragment);
    }

    /// Issues a fetch: requests fragments from `k + extra` of the
    /// `holders`, reconstructing as soon as enough verified fragments
    /// arrive. Drive through `Simulator::with_node_ctx`.
    pub fn fetch(
        &mut self,
        ctx: &mut Context<'_, ArchMsg>,
        id: u64,
        archive: Guid,
        codec: ObjectCodec,
        holders: &[NodeId],
        extra: usize,
    ) {
        let want = (codec.data_shards() + extra).min(holders.len());
        self.pending.insert(
            id,
            PendingFetch { codec, received: Vec::new(), purpose: FetchPurpose::Read },
        );
        let origin = ctx.node();
        for &h in holders.iter().take(want) {
            if h == origin {
                // Serve ourselves synchronously.
                for f in self.store.of_archive(&archive) {
                    self.accept_fragment(ctx, id, f);
                }
            } else {
                ctx.send(h, ArchMsg::Request { id, archive, origin });
            }
        }
    }

    fn accept_fragment(&mut self, ctx: &mut Context<'_, ArchMsg>, id: u64, fragment: Fragment) {
        let Some(p) = self.pending.get_mut(&id) else { return };
        if !fragment.verify() {
            return; // self-verifying fragments: discard corruption
        }
        if p.received.iter().any(|f| f.index == fragment.index) {
            return;
        }
        p.received.push(fragment);
        if p.received.len() < p.codec.data_shards() {
            return;
        }
        // Enough fragments may have arrived: try to reconstruct from the
        // received ones, each verified once, above.
        if let Ok(data) = reconstruct_verified(&p.codec, &p.received) {
            let p = self.pending.remove(&id).expect("present");
            match p.purpose {
                FetchPurpose::Read => {
                    self.outcomes.insert(
                        id,
                        FetchOutcome {
                            data: data.into(),
                            completed_at: ctx.now(),
                            fragments_used: p.received.len(),
                        },
                    );
                }
                FetchPurpose::Repair { archive } => {
                    self.finish_repair(ctx, archive, &data);
                }
            }
        }
    }

    /// Re-encode and re-disseminate a repaired archive to live sites.
    fn finish_repair(&mut self, ctx: &mut Context<'_, ArchMsg>, archive: Guid, data: &[u8]) {
        let Some(t) = self.tracked.iter_mut().find(|t| t.archive == archive) else { return };
        let arch = match archive_object(&t.codec, data) {
            Ok(a) => a,
            Err(_) => return,
        };
        debug_assert_eq!(arch.guid, archive, "content-addressed identity is stable");
        // Choose live sites: last completed round's pong responders (plus
        // ourselves), topped up from the rest of the universe only if the
        // live set is too small.
        let me = ctx.node();
        let mut sites: Vec<NodeId> = self
            .repair_universe
            .iter()
            .copied()
            .filter(|n| self.pongs_last.contains(n) || *n == me)
            .collect();
        if sites.is_empty() {
            sites = self.repair_universe.clone();
        }
        let mut holders = Vec::with_capacity(arch.fragments.len());
        for (i, fragment) in arch.fragments.into_iter().enumerate() {
            let site = sites[i % sites.len()];
            holders.push(site);
            if site == ctx.node() {
                self.store.insert(fragment);
            } else {
                ctx.send(site, ArchMsg::Store(fragment));
            }
        }
        t.holders = holders;
    }
}

impl Protocol for ArchNode {
    type Msg = ArchMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ArchMsg>) {
        if let Some(interval) = self.sweep_interval {
            ctx.set_timer(interval, ArchTimer::Sweep);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ArchMsg>, ArchTimer::Sweep: ArchTimer) {
        // Close the measurement round.
        self.pongs_last = std::mem::take(&mut self.pongs);
        self.sweep_rounds += 1;
        // Evaluate: any tracked archive whose live holders have fallen
        // below threshold gets repaired. The very first tick has no
        // liveness data yet, so it only measures.
        let mut repairs = Vec::new();
        if self.sweep_rounds > 1 {
            for t in &self.tracked {
                let live = t
                    .holders
                    .iter()
                    .filter(|h| self.pongs_last.contains(h) || **h == ctx.node())
                    .collect::<HashSet<_>>()
                    .len();
                if live < t.repair_threshold {
                    repairs.push((t.archive, t.codec.clone(), t.holders.clone()));
                }
            }
        }
        for (archive, codec, holders) in repairs {
            // Fetch from everyone still believed to hold fragments.
            let id = self.next_internal_fetch;
            self.next_internal_fetch -= 1;
            self.pending.insert(
                id,
                PendingFetch { codec, received: Vec::new(), purpose: FetchPurpose::Repair { archive } },
            );
            let origin = ctx.node();
            let unique: HashSet<NodeId> = holders.into_iter().collect();
            for h in unique {
                if h == origin {
                    for f in self.store.of_archive(&archive) {
                        self.accept_fragment(ctx, id, f);
                    }
                } else {
                    ctx.send(h, ArchMsg::Request { id, archive, origin });
                }
            }
        }
        // Start the next liveness round.
        let mut targets: HashSet<NodeId> = HashSet::new();
        for t in &self.tracked {
            targets.extend(t.holders.iter().copied());
        }
        for h in targets {
            if h != ctx.node() {
                ctx.send(h, ArchMsg::Ping);
            }
        }
        if let Some(interval) = self.sweep_interval {
            ctx.set_timer(interval, ArchTimer::Sweep);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ArchMsg>, from: NodeId, msg: ArchMsg) {
        match msg {
            ArchMsg::Store(fragment) => {
                if fragment.verify() {
                    self.store.insert(fragment);
                }
            }
            ArchMsg::Request { id, archive, origin } => {
                for fragment in self.store.of_archive(&archive) {
                    ctx.send(origin, ArchMsg::Response { id, fragment });
                }
            }
            ArchMsg::Response { id, fragment } => {
                self.accept_fragment(ctx, id, fragment);
            }
            ArchMsg::Ping => ctx.send(from, ArchMsg::Pong),
            ArchMsg::Pong => {
                self.pongs.insert(from);
            }
        }
    }
}

/// Disseminates an archive's fragments to `sites` (round-robin), returning
/// the holder list parallel to the fragment indices. Drive through
/// `Simulator::with_node_ctx` on the disseminating node.
pub fn disseminate(
    ctx: &mut Context<'_, ArchMsg>,
    node: &mut ArchNode,
    fragments: Vec<Fragment>,
    sites: &[NodeId],
) -> Vec<NodeId> {
    let mut holders = Vec::with_capacity(fragments.len());
    for (i, fragment) in fragments.into_iter().enumerate() {
        let site = sites[i % sites.len()];
        holders.push(site);
        if site == ctx.node() {
            node.seed_fragment(fragment);
        } else {
            ctx.send(site, ArchMsg::Store(fragment));
        }
    }
    holders
}
