//! The OceanStore system: pools of servers, clients, and the high-level
//! object API (§2, §4.6).
//!
//! [`OceanStore`] owns a deterministic simulation of a whole deployment —
//! primary tier, secondary tier with a dissemination tree, the Plaxton
//! location mesh, and archival fragment stores — and exposes the
//! operations an application writer sees: create objects, submit updates,
//! read with session guarantees, locate replicas, archive versions, and
//! recover from deep archival storage.

use std::collections::HashMap;
use std::sync::Arc;

use oceanstore_archival::{archive_framed, Archive, TrackedArchive};
use oceanstore_consensus::messages::RequestId;
use oceanstore_consensus::replica::TierConfig;
use oceanstore_crypto::schnorr::KeyPair;
use oceanstore_erasure::object::{self, CodeKind, ObjectCodec};
use oceanstore_erasure::rs::CodeError;
use oceanstore_naming::guid::Guid;
use oceanstore_plaxton::{build_network, PlaxtonConfig};
pub use oceanstore_replica::TentativeId;
use oceanstore_replica::{build_deployment_with, Deployment, DeploymentOpts};
use oceanstore_sim::{NodeId, Protocol as _, SimDuration, Simulator};
use oceanstore_update::ops::ObjectKeys;
use oceanstore_update::session::{GuaranteeSet, SessionState};
use oceanstore_update::{ops, Update};

use crate::server::OceanServer;
use crate::version_codec;

/// Errors surfaced by the high-level API.
#[derive(Debug)]
pub enum CoreError {
    /// The operation did not complete within the settle budget.
    Timeout,
    /// No replica satisfied the session guarantees.
    NoSuitableReplica,
    /// Archival reconstruction failed.
    Archival(CodeError),
    /// Version bytes failed to decode.
    CorruptArchive,
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Timeout => write!(f, "operation timed out in simulated time"),
            CoreError::NoSuitableReplica => {
                write!(f, "no reachable replica satisfies the session guarantees")
            }
            CoreError::Archival(e) => write!(f, "archival reconstruction failed: {e}"),
            CoreError::CorruptArchive => write!(f, "archived version bytes are corrupt"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<CodeError> for CoreError {
    fn from(e: CodeError) -> Self {
        CoreError::Archival(e)
    }
}

/// Outcome of a serialized update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The update committed, producing this version.
    Committed {
        /// New version number.
        version: u64,
    },
    /// The update was serialized but its predicates all failed.
    Aborted,
}

/// A handle to an OceanStore object, held by a client.
#[derive(Debug, Clone)]
pub struct ObjectRef {
    /// Self-certifying GUID.
    pub guid: Guid,
    /// Human-readable name (certifiable against the GUID + owner key).
    pub name: String,
    /// The client-side key material (read key + search key).
    pub keys: ObjectKeys,
    /// The owner's signing key pair.
    pub owner: KeyPair,
}

/// Reference to an archived (immutable) version in deep archival storage.
#[derive(Debug, Clone)]
pub struct ArchiveRef {
    /// Content-derived archival GUID.
    pub guid: Guid,
    /// The archived version number.
    pub version: u64,
    /// Erasure parameters.
    pub codec: ObjectCodec,
    /// Fragment holders (parallel to fragment indices).
    pub holders: Vec<NodeId>,
}

/// Deployment parameters: the replication layout plus the archival code.
#[derive(Debug, Clone)]
pub struct OceanStoreBuilder {
    opts: DeploymentOpts,
    archival_k: usize,
    archival_n: usize,
}

impl Default for OceanStoreBuilder {
    fn default() -> Self {
        OceanStoreBuilder {
            opts: DeploymentOpts { clients: 2, ..DeploymentOpts::default() },
            archival_k: 8,
            archival_n: 16,
        }
    }
}

impl OceanStoreBuilder {
    /// Byzantine faults tolerated by the primary tier (n = 3m + 1).
    pub fn faults_tolerated(&mut self, m: usize) -> &mut Self {
        self.opts.m = m;
        self
    }

    /// Number of secondary replicas.
    pub fn secondaries(&mut self, s: usize) -> &mut Self {
        self.opts.secondaries = s;
        self
    }

    /// Number of clients.
    pub fn clients(&mut self, c: usize) -> &mut Self {
        self.opts.clients = c;
        self
    }

    /// Uniform one-way WAN latency.
    pub fn latency(&mut self, l: SimDuration) -> &mut Self {
        self.opts.latency = l;
        self
    }

    /// Deterministic seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.opts.seed = seed;
        self
    }

    /// Erasure-code shape for deep archival storage (`any k of n`).
    pub fn archival_code(&mut self, k: usize, n: usize) -> &mut Self {
        self.archival_k = k;
        self.archival_n = n;
        self
    }

    /// Marks secondary indices as bandwidth-limited (invalidation-fed).
    pub fn invalidate_leaves(&mut self, leaves: Vec<usize>) -> &mut Self {
        self.opts.invalidate_leaves = leaves;
        self
    }

    /// Constructs and starts the deployment.
    pub fn build(&self) -> OceanStore {
        OceanStore::over(assemble(&self.opts), self.archival_k, self.archival_n)
    }
}

/// Assembles and starts the whole system for `opts`: the replication
/// roles come from [`build_deployment_with`], and every node gets a slot
/// in the location mesh (clients are addressable entities too, §4.3.1)
/// and a fragment store around its role.
pub fn assemble(opts: &DeploymentOpts) -> Deployment<OceanServer> {
    let topo = Arc::new(opts.spec().mesh(opts.latency));
    let (plaxton, _guids) = build_network(&topo, &PlaxtonConfig::default(), opts.seed);
    let mut plaxton = plaxton.into_iter();
    build_deployment_with(opts, |_, role| OceanServer::new(role, plaxton.next()))
}

/// A full OceanStore deployment under deterministic simulation.
pub struct OceanStore {
    dep: Deployment<OceanServer>,
    archival_k: usize,
    archival_n: usize,
    next_locate_id: u64,
    next_fetch_id: u64,
    /// Per object, the record index [`OceanStore::poll_commits`] reports
    /// from next.
    reported: HashMap<Guid, u64>,
    settle_budget: SimDuration,
}

/// Runs `dep` in steps of `period` until `probe` yields or `budget` of
/// simulated time has passed; the probe runs before every step.
fn poll<T>(
    dep: &mut Deployment<OceanServer>,
    budget: SimDuration,
    period: SimDuration,
    mut probe: impl FnMut(&Deployment<OceanServer>) -> Option<T>,
) -> Option<T> {
    let deadline = dep.sim.now() + budget;
    loop {
        if let Some(found) = probe(dep) {
            return Some(found);
        }
        if dep.sim.now() >= deadline {
            return None;
        }
        dep.sim.run_for(period);
    }
}

/// The outcome a serialized record's version stands for: `None` when its
/// predicates all failed.
fn outcome_of(version: Option<u64>) -> UpdateOutcome {
    version.map_or(UpdateOutcome::Aborted, |version| UpdateOutcome::Committed { version })
}

impl OceanStore {
    /// A builder with laptop-scale defaults.
    pub fn builder() -> OceanStoreBuilder {
        OceanStoreBuilder::default()
    }

    /// A client API over an already assembled deployment (see
    /// [`assemble`]), archiving with an `any k of n` code.
    pub fn over(dep: Deployment<OceanServer>, archival_k: usize, archival_n: usize) -> Self {
        OceanStore {
            dep,
            archival_k,
            archival_n,
            next_locate_id: 1,
            next_fetch_id: 1,
            reported: HashMap::new(),
            settle_budget: SimDuration::from_secs(30),
        }
    }

    /// The deployment underneath, for checkers that take one.
    pub fn deployment(&self) -> &Deployment<OceanServer> {
        &self.dep
    }

    /// The underlying simulator (power users: failure injection, stats).
    pub fn sim(&mut self) -> &mut Simulator<OceanServer> {
        &mut self.dep.sim
    }

    /// Primary-tier node ids.
    pub fn primaries(&self) -> &[NodeId] {
        self.dep.primaries()
    }

    /// Secondary-tier node ids.
    pub fn secondaries(&self) -> &[NodeId] {
        &self.dep.secondaries
    }

    /// Client node ids.
    pub fn clients(&self) -> &[NodeId] {
        &self.dep.clients
    }

    /// Tier configuration.
    pub fn tier(&self) -> &TierConfig {
        self.dep.cfg()
    }

    /// Every server of the pool (primaries, then secondaries): each one is
    /// a fragment storage site.
    fn servers(&self) -> Vec<NodeId> {
        self.dep.all_primaries().chain(self.dep.secondaries.iter().copied()).collect()
    }

    /// Lets simulated time pass.
    pub fn settle(&mut self, d: SimDuration) {
        self.dep.sim.run_for(d);
    }

    /// Creates a client-held object handle: self-certifying GUID from the
    /// client's owner key and `name`, with derived read/search keys. The
    /// object materializes on servers with its first update.
    pub fn create_object(&mut self, client_idx: usize, name: &str) -> ObjectRef {
        let owner = self.dep.client_keys[client_idx].clone();
        let guid = Guid::for_object(owner.public(), name);
        let keys = ObjectKeys::from_seed(
            format!("object-keys-{}-{name}", oceanstore_crypto::hex(&owner.public().to_bytes()))
                .as_bytes(),
        );
        ObjectRef { guid, name: name.to_string(), keys, owner }
    }

    /// Submits an update from `client_idx` and waits for serialization.
    ///
    /// # Errors
    ///
    /// [`CoreError::Timeout`] if the tier does not answer within the
    /// settle budget.
    pub fn update(
        &mut self,
        client_idx: usize,
        object: &ObjectRef,
        update: &Update,
    ) -> Result<UpdateOutcome, CoreError> {
        let id = self.submit(client_idx, object, update);
        self.wait_for(id, object)
    }

    /// Fire-and-forget submission (for concurrency experiments); pair with
    /// [`OceanStore::wait_for`].
    pub fn submit(&mut self, client_idx: usize, object: &ObjectRef, update: &Update) -> RequestId {
        self.dep.submit(self.dep.clients[client_idx], object.guid, update)
    }

    /// Waits for a previously submitted update to serialize.
    ///
    /// # Errors
    ///
    /// [`CoreError::Timeout`] when the settle budget expires first.
    pub fn wait_for(&mut self, id: RequestId, object: &ObjectRef) -> Result<UpdateOutcome, CoreError> {
        poll(&mut self.dep, self.settle_budget, SimDuration::from_millis(10), |dep| {
            dep.outcome(id).map(|_| ())
        })
        .ok_or(CoreError::Timeout)?;
        // Commit-vs-abort is in the owning ring's serialized record.
        let tid = TentativeId { client: id.client, counter: id.seq };
        self.dep
            .ring_for(&object.guid)
            .primaries
            .iter()
            .filter_map(|&p| self.dep.primary(p).store.get(&object.guid))
            .find_map(|st| st.records.iter().find(|r| r.id == tid))
            .map(|rec| outcome_of(rec.version))
            .ok_or(CoreError::Timeout)
    }

    /// Reads the committed content of `object` from a secondary that
    /// satisfies the session's guarantees, closest-first. Updates the
    /// session's read watermark.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoSuitableReplica`] when no live secondary satisfies
    /// the guarantees.
    pub fn read(
        &mut self,
        _client_idx: usize,
        object: &ObjectRef,
        session: &mut SessionState,
        guarantees: &GuaranteeSet,
    ) -> Result<Vec<Vec<u8>>, CoreError> {
        // Closest-first: the uniform mesh makes all equal; keep a
        // deterministic order. Dissemination may simply not have reached
        // anyone yet, so between scans the tree and anti-entropy run
        // (read-repair).
        poll(&mut self.dep, self.settle_budget, SimDuration::from_millis(50), |dep| {
            let mut any_live = false;
            for &s in dep.secondaries.iter().filter(|&&s| !dep.sim.is_down(s)) {
                any_live = true;
                let view = dep.secondary(s).committed_view(&object.guid);
                let version = view.map_or(0, |d| d.version_number());
                if !session.read_permitted(guarantees, &object.guid, version) {
                    continue;
                }
                // Unknown here but the guarantees allow version 0: the
                // empty object.
                let content = view.map_or(Ok(Vec::new()), |data| {
                    ops::read_object(&object.keys, data.current())
                        .map_err(|_| CoreError::NoSuitableReplica)
                });
                if content.is_ok() {
                    session.note_read(object.guid, version);
                }
                return Some(content);
            }
            (!any_live).then_some(Err(CoreError::NoSuitableReplica))
        })
        .unwrap_or(Err(CoreError::NoSuitableReplica))
    }

    /// Reads the *tentative* view (optimistic data, §4.4.3) from a given
    /// secondary — what a disconnected or latency-sensitive reader sees.
    pub fn read_tentative(
        &mut self,
        secondary: NodeId,
        object: &ObjectRef,
    ) -> Result<Vec<Vec<u8>>, CoreError> {
        let view = self.dep.secondary(secondary).tentative_view_or_empty(&object.guid);
        ops::read_object(&object.keys, view.current()).map_err(|_| CoreError::NoSuitableReplica)
    }

    /// Publishes `object`'s replica locations into the location mesh from
    /// the given secondaries (or all, if empty).
    pub fn publish_location(&mut self, object: &ObjectRef, holders: &[NodeId]) {
        let holders: Vec<NodeId> =
            if holders.is_empty() { self.dep.secondaries.clone() } else { holders.to_vec() };
        let guid = object.guid;
        for h in holders {
            self.dep.sim.with_node_ctx(h, |server, ctx| {
                server.with_plaxton(ctx, |p, ictx| p.publish(ictx, guid));
            });
        }
        self.settle(SimDuration::from_secs(2));
    }

    /// Locates a replica of `object` through the global mesh, from
    /// `from`'s position.
    ///
    /// # Errors
    ///
    /// [`CoreError::Timeout`] when no answer arrives in the budget.
    pub fn locate(&mut self, from: NodeId, object: &ObjectRef) -> Result<Option<NodeId>, CoreError> {
        let id = self.next_locate_id;
        self.next_locate_id += 1;
        let guid = object.guid;
        self.dep.sim.with_node_ctx(from, |server, ctx| {
            server.with_plaxton(ctx, |p, ictx| p.locate(ictx, id, guid));
        });
        poll(&mut self.dep, self.settle_budget, SimDuration::from_millis(50), |dep| {
            let mesh = dep.sim.node(from).plaxton.as_ref().expect("location role");
            mesh.outcome(id).map(|o| o.holder)
        })
        .ok_or(CoreError::Timeout)
    }

    /// Archives the current committed version of `object` (§4.4.4: "the
    /// archival mechanisms are tightly coupled with update activity"):
    /// erasure-codes the version bytes and disseminates the fragments to
    /// the server pool.
    ///
    /// # Errors
    ///
    /// Archival encoding errors, or [`CoreError::NoSuitableReplica`] if no
    /// secondary holds the object.
    pub fn archive(&mut self, object: &ObjectRef) -> Result<ArchiveRef, CoreError> {
        let dep = &self.dep;
        let mut live = dep.secondaries.iter().filter(|&&s| !dep.sim.is_down(s));
        let (source, data) = live
            .find_map(|&s| Some((s, dep.secondary(s).committed_view(&object.guid)?)))
            .ok_or(CoreError::NoSuitableReplica)?;
        let version_no = data.version_number();
        let codec = ObjectCodec::new(CodeKind::ReedSolomon, self.archival_k, self.archival_n, 0)?;
        // The version is written once, straight into the framed object
        // whose k slices are the data fragments.
        let version = data.current();
        let framed = object::framed(version_codec::encoded_len(version), self.archival_k, |buf| {
            version_codec::write_version(version, buf)
        });
        let arch = archive_framed(&codec, framed)?;
        // Disseminate round-robin over the server pool.
        let sites = self.servers();
        let Archive { guid, fragments, .. } = arch;
        let holders = self.dep.sim.with_node_ctx(source, |server, ctx| {
            server.with_arch(ctx, |a, ictx| {
                oceanstore_archival::disseminate(ictx, a, fragments, &sites)
            })
        });
        self.settle(SimDuration::from_secs(1));
        Ok(ArchiveRef { guid, version: version_no, codec, holders })
    }

    /// Recovers an archived version's cleartext blocks — even after every
    /// active replica is gone — by fetching `k + extra` fragments.
    ///
    /// # Errors
    ///
    /// [`CoreError::Timeout`] if reconstruction never completes,
    /// [`CoreError::CorruptArchive`] on undecodable version bytes.
    pub fn recover_from_archive(
        &mut self,
        requester: NodeId,
        archive: &ArchiveRef,
        keys: &ObjectKeys,
        extra: usize,
    ) -> Result<Vec<Vec<u8>>, CoreError> {
        let id = self.next_fetch_id;
        self.next_fetch_id += 1;
        let guid = archive.guid;
        let codec = archive.codec.clone();
        let holders = archive.holders.clone();
        self.dep.sim.with_node_ctx(requester, |server, ctx| {
            server.with_arch(ctx, |a, ictx| a.fetch(ictx, id, guid, codec, &holders, extra));
        });
        let period = SimDuration::from_millis(50);
        // A view of the outcome's bytes: the outcome stays for the caller
        // to read (`completed_at`), and nothing is copied.
        let bytes = poll(&mut self.dep, self.settle_budget, period, |dep| {
            dep.sim.node(requester).arch.outcome(id).map(|o| o.data.clone())
        })
        .ok_or(CoreError::Timeout)?;
        let version = version_codec::decode_version(&bytes).ok_or(CoreError::CorruptArchive)?;
        ops::read_object(keys, &version).map_err(|_| CoreError::CorruptArchive)
    }

    /// Installs a repair sweeper for an archive on `sweeper`.
    pub fn enable_archive_sweeper(
        &mut self,
        sweeper: NodeId,
        archive: &ArchiveRef,
        interval: SimDuration,
        repair_threshold: usize,
    ) {
        let universe = self.servers();
        let node = self.dep.sim.node_mut(sweeper);
        node.arch.enable_sweeper(interval, universe);
        node.arch.track(TrackedArchive {
            archive: archive.guid,
            codec: archive.codec.clone(),
            holders: archive.holders.clone(),
            repair_threshold,
        });
        // Restart so the sweep timer arms (enable after start).
        let s = sweeper;
        self.dep.sim.with_node_ctx(s, |server, ctx| {
            server.with_arch(ctx, |a, ictx| a.on_start(ictx));
        });
    }

    /// Callback-style notification drain: newly committed/aborted records
    /// for `object` observed at the root secondary since the last call.
    /// (The paper's API "provides a callback feature to notify
    /// applications of relevant events" — poll-based here because the
    /// whole world is a simulation.)
    pub fn poll_commits(&mut self, object: &ObjectRef) -> Vec<(TentativeId, UpdateOutcome)> {
        let root = self.dep.secondary(self.dep.secondaries[0]);
        let next = self.reported.entry(object.guid).or_insert(0);
        let mut out = Vec::new();
        if let Some(st) = root.store.get(&object.guid) {
            for r in st.records.iter().filter(|r| r.index >= *next) {
                out.push((r.id, outcome_of(r.version)));
            }
            *next = (*next).max(st.next_index);
        }
        out
    }
}
