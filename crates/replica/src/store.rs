//! Per-server object store: committed state, a *bounded* commit-record
//! log, and the content-addressed blob layer underneath.
//!
//! Two changes over the original in-memory-only store:
//!
//! * **Block state routes through a [`BlobStore`]** (§4.5's
//!   content-addressed storage made real): every data block of an
//!   object's committed version is mirrored into a pluggable blob store
//!   under its CID, with refcounted dedup. The in-memory `DataObject`
//!   stays authoritative for deterministic re-execution — the blob layer
//!   is the storage backend, and reads that miss it (a dead provider, a
//!   corrupt disk blob) fall back to the replica, which is exactly the
//!   paper's durability argument: any server can hold a replica, so no
//!   single provider's death loses committed data.
//! * **The record log is bounded.** `records` used to grow by one
//!   `CommitRecord` per commit forever — O(total commits) memory even
//!   after PR 6 bounded the consensus log. The log is now dense from
//!   [`ObjectState::first_index`] and truncated below
//!   `certified frontier − retention`: anti-entropy and fetch serving
//!   come from the retained (certified) suffix only, and history the
//!   whole tier has certified is dropped.

use std::sync::Arc;

use oceanstore_crypto::sha1::Digest;
use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::{Guid, IdMap};
use oceanstore_store::{cid_of, BlobStore, DedupStore};
use oceanstore_update::object::{Block, DataObject};
use oceanstore_update::update::{apply_placing, Outcome};
use oceanstore_update::{Update, UpdateDigest};

use crate::messages::{committed_term, CommitRecord, TentativeId};

/// Commit records retained *below* the certified frontier. Matches the
/// consensus admission window (PR 6), so a peer the agreement protocol
/// still talks to can always be served record-by-record; anything
/// further behind recovers via the state-transfer / frontier paths. The
/// pinned short-run suites never certify this many records per object,
/// so the default changes no golden trace.
pub const RECORD_RETENTION: u64 = 128;

/// One slot a commit wrote, and the CID its update named the ciphertext
/// stored there by: `None` for an index block or a tombstone, and for a
/// block nobody named yet.
type Write = (usize, Option<Guid>);

/// One object's replicated state on a server.
#[derive(Debug, Default)]
pub struct ObjectState {
    /// The committed object (active form).
    pub data: DataObject,
    /// Commit records in index order, dense from `first_index`.
    pub records: Vec<CommitRecord>,
    /// Log floor: records below this index have been certified tier-wide
    /// and truncated.
    pub first_index: u64,
    /// Next expected serialization index.
    pub next_index: u64,
    /// For invalidation-mode children: highest index known to exist (may
    /// exceed `next_index` when stale).
    pub known_index: u64,
    /// All indices below this carry a serialization certificate.
    certified_upto: u64,
    /// Newest timestamp of any record applied (0 before the first).
    newest_timestamp: u64,
    /// One past the newest timestamp of any record truncated from the log
    /// (0 while none is): a rumor older than this is refused.
    rumor_floor: u64,
    /// The CID each block slot of the current version is filed under in
    /// the blob store (`None` for index blocks and refused puts).
    slots: Vec<Option<Guid>>,
    /// Data slots whose put the backend refused, ascending, with the CID
    /// to retry them under on the next commit.
    refused: Vec<(usize, Guid)>,
}

impl ObjectState {
    /// Whether this replica knows it is missing commits.
    pub fn is_stale(&self) -> bool {
        self.known_index > self.next_index
    }

    /// Records currently retained for this object.
    pub fn retained_records(&self) -> u64 {
        self.records.len() as u64
    }

    /// Position of record `index` in `records` (the log is dense from
    /// `first_index`); `None` below the floor, possibly out of range above.
    fn position(&self, index: u64) -> Option<usize> {
        usize::try_from(index.checked_sub(self.first_index)?).ok()
    }
}

/// Aggregate store-health counters: the one record of a store's health,
/// read directly by whoever watches it (the chaos store-memory oracle
/// bounds `peak_retained_records`; the benchmark reports the blob and
/// record counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreHealth {
    /// Objects resident.
    pub objects: u64,
    /// Commit records currently retained across all objects.
    pub retained_records: u64,
    /// Peak of `retained_records` over the store's lifetime.
    pub peak_retained_records: u64,
    /// Records ever applied (monotonic; the O(total commits) quantity the
    /// retained count must stay decoupled from).
    pub total_records_applied: u64,
    /// Records dropped below the certified low-water mark.
    pub records_dropped: u64,
    /// Blobs held by the backend.
    pub blob_count: u64,
    /// Logical bytes held by the backend.
    pub blob_bytes: u64,
    /// Dedup hits (puts elided by refcounting).
    pub dedup_hits: u64,
    /// Bytes those elided puts saved.
    pub dedup_bytes_saved: u64,
    /// Block reads the blob layer missed and the in-memory replica
    /// served instead (dead provider, corrupt blob).
    pub fallback_reads: u64,
    /// Block puts the backend refused (retried on the next commit).
    pub blob_put_failures: u64,
}

/// A server's store of replicated objects.
#[derive(Debug)]
pub struct ObjectStore {
    objects: IdMap<Guid, ObjectState>,
    /// The pluggable content-addressed backend, dedup-wrapped.
    blobs: DedupStore,
    /// Records kept below the certified frontier.
    retention: u64,
    /// On a store that keeps them, each object's retained records'
    /// update digests, parallel to its `records`. Kept out of
    /// [`ObjectState`], which every secondary holds once per object.
    digests: Option<IdMap<Guid, Vec<Digest>>>,
    /// [`crate::frontier_digest`] of every object's `next_index` (kept
    /// incrementally).
    committed_digest: u64,
    /// Σ `records.len()` across objects (kept incrementally).
    retained_total: u64,
    peak_retained: u64,
    total_applied: u64,
    dropped: u64,
    fallback_reads: u64,
    blob_put_failures: u64,
}

impl Default for ObjectStore {
    fn default() -> Self {
        ObjectStore::new()
    }
}

impl ObjectStore {
    /// An empty store over the environment-selected blob backend
    /// (`OCEANSTORE_STORE_BACKEND`; in-memory by default).
    pub fn new() -> Self {
        Self::with_backend(oceanstore_store::default_store())
    }

    /// An empty store over a specific blob backend.
    pub fn with_backend(backend: Box<dyn BlobStore>) -> Self {
        ObjectStore {
            objects: IdMap::default(),
            blobs: DedupStore::new(backend),
            retention: RECORD_RETENTION,
            digests: None,
            committed_digest: 0,
            retained_total: 0,
            peak_retained: 0,
            total_applied: 0,
            dropped: 0,
            fallback_reads: 0,
            blob_put_failures: 0,
        }
    }

    /// Swaps the blob backend (chaos scenarios wire provider composites
    /// in before traffic starts). Existing objects re-sync their block
    /// state into the new backend immediately.
    pub fn set_blob_store(&mut self, backend: Box<dyn BlobStore>) {
        self.blobs = DedupStore::new(backend);
        for st in self.objects.values_mut() {
            st.slots.clear();
            st.refused.clear();
            // The one whole-version walk: every slot, as if just written.
            let every = (0..st.data.current().blocks.len()).map(|slot| (slot, None)).collect();
            self.blob_put_failures += sync_blocks(&mut self.blobs, st, every);
        }
    }

    /// Overrides the record-log retention window (tests use this;
    /// deployments keep [`RECORD_RETENTION`]).
    ///
    /// # Panics
    ///
    /// Panics on a window of 0: the newest record must stay in the log,
    /// which is where a secondary streams it onward from.
    pub fn set_record_retention(&mut self, retention: u64) {
        assert!(retention >= 1, "the newest record stays in the log");
        self.retention = retention;
    }

    /// Keeps each retained record's update digest beside it, for
    /// [`ObjectStore::record_with_digest`]: a primary signs, checks shares
    /// and checks certificates against it for as long as the record is
    /// retained. A secondary checks each record once, on arrival, and
    /// keeps none.
    pub fn keep_record_digests(&mut self) {
        self.digests.get_or_insert_with(IdMap::default);
    }

    /// State for `object`, creating an empty one on first touch.
    pub fn entry(&mut self, object: Guid) -> &mut ObjectState {
        self.objects.entry(object).or_default()
    }

    /// Read-only lookup.
    pub fn get(&self, object: &Guid) -> Option<&ObjectState> {
        self.objects.get(object)
    }

    /// Whether `object`'s retained log holds the record of request `id`,
    /// which an honest sender names with the `timestamp` it was certified
    /// with ([`CommitRecord::signing_bytes`] covers both). A timestamp
    /// newer than every record applied here belongs to none of them, so
    /// only an older one costs a scan of the log.
    pub fn holds_record(&self, object: &Guid, timestamp: u64, id: TentativeId) -> bool {
        self.objects.get(object).is_some_and(|st| {
            timestamp <= st.newest_timestamp && st.records.iter().any(|r| r.id == id)
        })
    }

    /// Whether a rumor of an `object` update stamped `timestamp` is stale:
    /// at or below the newest timestamp truncated from the object's log.
    /// Its record, if it has one, may have left the log, so no
    /// [`ObjectStore::holds_record`] would find it.
    pub fn is_stale_rumor(&self, object: &Guid, timestamp: u64) -> bool {
        self.objects.get(object).is_some_and(|st| timestamp < st.rumor_floor)
    }

    /// All object GUIDs present.
    pub fn guids(&self) -> impl Iterator<Item = &Guid> {
        self.objects.keys()
    }

    /// Every object present with its state, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&Guid, &ObjectState)> {
        self.objects.iter()
    }

    /// [`crate::frontier_digest`] over every object's `next_index`, with
    /// no tentatives: what an anti-entropy digest says of this store.
    /// [`ObjectStore::apply_record`] and [`ObjectStore::serialize_update`]
    /// keep it in step as they move an index.
    pub fn committed_digest(&self) -> u64 {
        self.committed_digest
    }

    /// Number of objects stored.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The refcounting blob layer, read-only.
    pub fn blob_store(&self) -> &DedupStore {
        &self.blobs
    }

    /// Point-in-time store-health counters.
    pub fn health(&self) -> StoreHealth {
        let blob = self.blobs.stats();
        let dedup = self.blobs.dedup_stats();
        StoreHealth {
            objects: self.objects.len() as u64,
            retained_records: self.retained_total,
            peak_retained_records: self.peak_retained,
            total_records_applied: self.total_applied,
            records_dropped: self.dropped,
            blob_count: blob.blobs,
            blob_bytes: blob.bytes,
            dedup_hits: dedup.hits,
            dedup_bytes_saved: dedup.bytes_saved,
            fallback_reads: self.fallback_reads,
            blob_put_failures: self.blob_put_failures,
        }
    }

    /// Applies `record` if it is the next expected index, logging it as
    /// handed over. Returns `true` if applied (or already applied), `false`
    /// if a gap remains. A record applied by this call is the newest in
    /// the log ([`ObjectStore::record`]) when it returns.
    /// `update` and `name` are the caller's own decoding and naming of
    /// `record.update` ([`CommitRecord::verified`]); the blocks the update
    /// stores are filed under `name.cids`, not hashed again. Each record
    /// the log then truncates is handed to `dropped`, oldest first.
    ///
    /// The record's embedded outcome is **recomputed locally** — a correct
    /// replica never trusts the claimed version without the deterministic
    /// re-execution matching (the cert's job is authenticating the
    /// *serialization order*, determinism does the rest).
    pub fn apply_record<C: Into<Bytes>>(
        &mut self,
        record: CommitRecord,
        update: Update<C>,
        name: UpdateDigest,
        dropped: impl FnMut(&CommitRecord),
    ) -> bool {
        let st = self.objects.entry(record.object).or_default();
        st.known_index = st.known_index.max(record.index + 1);
        if record.index < st.next_index {
            return true; // duplicate
        }
        if record.index > st.next_index {
            return false; // gap
        }
        let (outcome, failures) = execute(&mut self.blobs, st, update, &name.cids);
        debug_assert_eq!(
            match &outcome {
                Outcome::Committed { version } => Some(*version),
                Outcome::Aborted(_) => None,
            },
            record.version,
            "deterministic replay must match the tier's outcome"
        );
        st.newest_timestamp = st.newest_timestamp.max(record.timestamp);
        let object = record.object;
        st.records.push(record);
        if let Some(digests) = &mut self.digests {
            digests.entry(object).or_default().push(name.digest);
        }
        advance(&mut self.committed_digest, &object, st);
        self.retained_total += 1;
        self.total_applied += 1;
        self.peak_retained = self.peak_retained.max(self.retained_total);
        self.blob_put_failures += failures;
        self.note_certs(object, dropped);
        true
    }

    /// Attaches an assembled serialization certificate to a stored record
    /// (primary-tier path: records are created before their cert exists).
    /// An index below the log floor is already certified and truncated —
    /// a no-op.
    pub fn set_cert(
        &mut self,
        object: &Guid,
        index: u64,
        cert: oceanstore_crypto::threshold::SerializationCert,
    ) {
        if let Some(st) = self.objects.get_mut(object) {
            if let Some(r) = st.position(index).and_then(|at| st.records.get_mut(at)) {
                r.cert = cert;
            }
        }
        self.note_certs(*object, |_| {});
    }

    /// Advances the certified frontier past every dense leading cert and
    /// truncates history below `frontier − retention`, handing each record
    /// dropped to `dropped`. Serving stays on the retained suffix;
    /// everything dropped was certified tier-wide.
    fn note_certs(&mut self, object: Guid, mut dropped: impl FnMut(&CommitRecord)) {
        let Some(st) = self.objects.get_mut(&object) else { return };
        if st.certified_upto < st.first_index {
            // A fresh entry starts at 0; certification is only tracked
            // from the log floor up.
            st.certified_upto = st.first_index;
        }
        while let Some(r) = st.records.get((st.certified_upto - st.first_index) as usize) {
            if r.cert.is_empty() {
                break;
            }
            st.certified_upto += 1;
        }
        let low_water = st.certified_upto.saturating_sub(self.retention);
        if low_water > st.first_index {
            let drop = (low_water - st.first_index) as usize;
            for r in st.records.drain(..drop) {
                st.rumor_floor = st.rumor_floor.max(r.timestamp.saturating_add(1));
                dropped(&r);
            }
            if let Some(kept) = self.digests.as_mut().and_then(|d| d.get_mut(&object)) {
                kept.drain(..drop);
            }
            st.first_index = low_water;
            self.retained_total -= drop as u64;
            self.dropped += drop as u64;
        }
    }

    /// The retained record at `index`: `None` below the log floor or past
    /// the end.
    pub fn record(&self, object: &Guid, index: u64) -> Option<&CommitRecord> {
        let st = self.objects.get(object)?;
        st.records.get(st.position(index)?)
    }

    /// The retained record at `index` with its update digest, on a store
    /// that keeps them ([`ObjectStore::keep_record_digests`]).
    pub fn record_with_digest(
        &self,
        object: &Guid,
        index: u64,
    ) -> Option<(&CommitRecord, &Digest)> {
        let st = self.objects.get(object)?;
        let at = st.position(index)?;
        let digest = self.digests.as_ref()?.get(object)?.get(at)?;
        Some((st.records.get(at)?, digest))
    }

    /// The CID the blob layer holds `slot` of `object`'s committed
    /// version under: `None` for an index block, or a block whose put the
    /// backend refused.
    pub fn slot_cid(&self, object: &Guid, slot: usize) -> Option<Guid> {
        *self.objects.get(object)?.slots.get(slot)?
    }

    /// Serialized-but-unapplied catch-up: retained commit records from
    /// `from_index` up. History below the log floor is gone — callers
    /// that far behind recover through the frontier/state-transfer
    /// paths, not record replay.
    pub fn records_from(&self, object: &Guid, from_index: u64) -> Vec<CommitRecord> {
        let Some(st) = self.objects.get(object) else { return Vec::new() };
        // The log is dense from `first_index`, so the suffix is a slice.
        let skip = usize::try_from(from_index.saturating_sub(st.first_index)).unwrap_or(usize::MAX);
        st.records.get(skip..).unwrap_or_default().to_vec()
    }

    /// Serializes and applies `update` directly (primary-tier path, where
    /// the order is already decided). Returns the new record (without
    /// cert). `update` is the caller's decoding of `encoded` and `name`
    /// its naming; its ciphertext moves into the object, filed under
    /// `name.cids`, and `encoded` becomes the record's update.
    pub fn serialize_update<C: Into<Bytes>>(
        &mut self,
        object: Guid,
        update: Update<C>,
        name: UpdateDigest,
        encoded: Bytes,
        timestamp: u64,
        id: crate::messages::TentativeId,
    ) -> CommitRecord {
        let st = self.objects.entry(object).or_default();
        let (outcome, failures) = execute(&mut self.blobs, st, update, &name.cids);
        let version = match outcome {
            Outcome::Committed { version } => Some(version),
            Outcome::Aborted(_) => None,
        };
        let record = CommitRecord {
            object,
            index: st.next_index,
            update: encoded,
            version,
            timestamp,
            id,
            cert: Default::default(),
        };
        st.newest_timestamp = st.newest_timestamp.max(timestamp);
        st.records.push(record.clone());
        if let Some(digests) = &mut self.digests {
            digests.entry(object).or_default().push(name.digest);
        }
        advance(&mut self.committed_digest, &record.object, st);
        st.known_index = st.known_index.max(st.next_index);
        self.retained_total += 1;
        self.total_applied += 1;
        self.peak_retained = self.peak_retained.max(self.retained_total);
        self.blob_put_failures += failures;
        record
    }

    /// Reads one data-block slot of `object`'s committed version through
    /// the blob layer, falling back to the in-memory replica when the
    /// backend misses (dead provider, corrupt blob) — committed data
    /// survives any single store's death because the replica *is* a
    /// store of it.
    pub fn read_block(&mut self, object: &Guid, slot: usize) -> Option<Vec<u8>> {
        let st = self.objects.get(object)?;
        let version = Arc::clone(st.data.current());
        let Block::Data(mem) = version.blocks.get(slot)? else { return None };
        let mem = mem.clone();
        if let Some(cid) = st.slots.get(slot).copied().flatten() {
            if let Ok(Some(bytes)) = self.blobs.get(&cid) {
                return Some(bytes);
            }
        }
        self.fallback_reads += 1;
        Some(mem.to_vec())
    }

    /// Reads `object`'s full committed byte sequence (logical block
    /// order) through the blob layer with replica fallback.
    pub fn read_object_bytes(&mut self, object: &Guid) -> Option<Vec<u8>> {
        let version = Arc::clone(self.objects.get(object)?.data.current());
        let mut out = Vec::new();
        for slot in version.logical_order() {
            out.extend_from_slice(&self.read_block(object, slot)?);
        }
        Some(out)
    }
}

/// Moves `object`'s state one index on and swaps its old term in the
/// store's digest for its new one.
fn advance(committed_digest: &mut u64, object: &Guid, st: &mut ObjectState) {
    *committed_digest = committed_digest
        .wrapping_sub(committed_term(object, st.next_index))
        .wrapping_add(committed_term(object, st.next_index + 1));
    st.next_index += 1;
}

/// Applies `update` to `st`'s object and mirrors the result into
/// `blobs`, each stored ciphertext under its CID in `cids` (encoding
/// order). Returns the outcome and the number of refused puts.
fn execute<C: Into<Bytes>>(
    blobs: &mut DedupStore,
    st: &mut ObjectState,
    update: Update<C>,
    cids: &[Guid],
) -> (Outcome, u64) {
    let mut written = Vec::new();
    let outcome = apply_placing(&mut st.data, update, |k, slot| {
        written.push((slot, k.and_then(|k| cids.get(k).copied())));
    });
    (outcome, sync_blocks(blobs, st, written))
}

/// Mirrors into the blob store the slots of the current version that
/// `visit` names — in any order, a slot written twice last by what it
/// holds — and every slot whose put the backend refused before, in
/// ascending slot order: each drops the reference to what it held, and a
/// data block is put (dedup-refcounted). A block is named once: by its
/// update (a refused one keeps that name until it is put), else hashed
/// here. It is handed down as the object's own view, so an in-RAM backend
/// holds the allocation the object holds. Returns the number of refused
/// puts.
fn sync_blocks(blobs: &mut DedupStore, st: &mut ObjectState, mut visit: Vec<Write>) -> u64 {
    let blocks = &st.data.current().blocks;
    debug_assert!(st.slots.len() <= blocks.len(), "a version never loses slots");
    st.slots.resize(blocks.len(), None);
    // Refused slots go first, so the stable sort leaves this commit's last
    // write to a slot last among its entries.
    visit.splice(0..0, st.refused.drain(..).map(|(slot, cid)| (slot, Some(cid))));
    visit.sort_by_key(|&(slot, _)| slot);
    let mut failures = 0;
    for (at, &(slot, named)) in visit.iter().enumerate() {
        if visit.get(at + 1).is_some_and(|&(next, _)| next == slot) {
            continue; // superseded
        }
        if let Some(old) = st.slots[slot].take() {
            let _ = blobs.delete(&old);
        }
        if let Block::Data(d) = &blocks[slot] {
            let cid = named.unwrap_or_else(|| cid_of(d));
            match blobs.put_shared(cid, d) {
                Ok(cid) => st.slots[slot] = Some(cid),
                Err(_) => {
                    failures += 1;
                    st.refused.push((slot, cid)); // retried on the next commit
                }
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::TentativeId;
    use oceanstore_crypto::threshold::SerializationCert;
    use oceanstore_sim::NodeId;
    use oceanstore_update::update::Action;
    use oceanstore_update::{decode_view, encode_update, update_digest};

    fn update(tag: u8) -> (Update<Bytes>, UpdateDigest, Bytes) {
        served(&Update::unconditional(vec![Action::Append { ciphertext: vec![tag; 4] }]))
    }

    /// `u` as a server holds it: decoded from a view of its encoding and
    /// named, with that encoding.
    fn served(u: &Update) -> (Update<Bytes>, UpdateDigest, Bytes) {
        let enc = Bytes::from(encode_update(u));
        let update = decode_view(&enc).expect("decodes");
        let name = update_digest(&update);
        (update, name, enc)
    }

    /// Replays `record` the way a secondary does, minus the certificate
    /// check: decode, name, apply.
    fn replay(store: &mut ObjectStore, record: &CommitRecord) -> bool {
        let update = decode_view(&record.update).expect("decodes");
        let name = update_digest(&update);
        store.apply_record(record.clone(), update, name, |_| {})
    }

    fn tid(c: u64) -> TentativeId {
        TentativeId { client: NodeId(99), counter: c }
    }

    /// A cert that counts as "present" for frontier tracking (store-level
    /// tests don't verify signatures; ingest paths do that upstream).
    fn fake_cert() -> SerializationCert {
        let kp = oceanstore_crypto::schnorr::KeyPair::from_seed(b"store-test-signer");
        let mut cert = SerializationCert::new();
        cert.add(kp.public(), kp.sign(b"store-test"));
        cert
    }

    #[test]
    fn serialize_then_replay_elsewhere() {
        let obj = Guid::from_label("o");
        let mut primary = ObjectStore::new();
        let mut secondary = ObjectStore::new();
        for (i, tag) in [1u8, 2, 3].iter().enumerate() {
            let (u, name, enc) = update(*tag);
            let rec = primary.serialize_update(obj, u, name, enc, i as u64, tid(i as u64));
            assert!(replay(&mut secondary, &rec));
        }
        let p = primary.get(&obj).unwrap();
        let s = secondary.get(&obj).unwrap();
        assert_eq!(p.data.current().blocks, s.data.current().blocks);
        assert_eq!(s.next_index, 3);
    }

    #[test]
    fn gap_detected_and_catchup_works() {
        let obj = Guid::from_label("o");
        let mut primary = ObjectStore::new();
        let mut secondary = ObjectStore::new();
        let mut recs = Vec::new();
        for i in 0..4u8 {
            let (u, name, enc) = update(i);
            recs.push(primary.serialize_update(obj, u, name, enc, i as u64, tid(i as u64)));
        }
        // Deliver out of order: record 2 first.
        assert!(!replay(&mut secondary, &recs[2]));
        assert!(secondary.entry(obj).is_stale());
        // Catch up from the primary's log.
        for r in primary.records_from(&obj, 0) {
            assert!(replay(&mut secondary, &r));
        }
        assert_eq!(secondary.get(&obj).unwrap().next_index, 4);
        assert!(!secondary.entry(obj).is_stale());
    }

    #[test]
    fn duplicates_are_idempotent() {
        let obj = Guid::from_label("o");
        let mut primary = ObjectStore::new();
        let mut secondary = ObjectStore::new();
        let (u, name, enc) = update(1);
        let rec = primary.serialize_update(obj, u, name, enc, 0, tid(0));
        assert!(replay(&mut secondary, &rec));
        assert!(replay(&mut secondary, &rec));
        assert_eq!(secondary.get(&obj).unwrap().next_index, 1);
        assert_eq!(secondary.get(&obj).unwrap().data.version_number(), 1);
    }

    #[test]
    fn aborted_updates_advance_index_not_version() {
        use oceanstore_update::update::Predicate;
        let obj = Guid::from_label("o");
        let mut primary = ObjectStore::new();
        let u = Update::default().with_clause(Predicate::CompareVersion(42), vec![]);
        let (u, name, enc) = served(&u);
        let rec = primary.serialize_update(obj, u, name, enc, 0, tid(0));
        assert_eq!(rec.version, None);
        let st = primary.get(&obj).unwrap();
        assert_eq!(st.next_index, 1);
        assert_eq!(st.data.version_number(), 0);
    }

    #[test]
    fn committed_blocks_route_through_the_blob_store() {
        let obj = Guid::from_label("blobs");
        let mut store = ObjectStore::new();
        for i in 0..3u8 {
            let (u, name, enc) = update(i);
            store.serialize_update(obj, u, name, enc, i as u64, tid(i as u64));
        }
        let health = store.health();
        assert_eq!(health.blob_count, 3, "one blob per distinct appended block");
        assert_eq!(health.blob_bytes, 12);
        // The blob layer serves each block under its CID.
        for (slot, tag) in [(0usize, 0u8), (1, 1), (2, 2)] {
            assert_eq!(store.read_block(&obj, slot).unwrap(), vec![tag; 4]);
        }
        assert_eq!(store.health().fallback_reads, 0, "healthy backend, no fallback");
        assert_eq!(
            store.read_object_bytes(&obj).unwrap(),
            [vec![0u8; 4], vec![1u8; 4], vec![2u8; 4]].concat()
        );
    }

    #[test]
    fn every_committed_block_is_a_view_of_its_records_buffer() {
        use oceanstore_store::MemoryStore;
        let obj = Guid::from_label("one-copy");
        // The in-RAM backend by name: a disk backend holds no view.
        let mut store = ObjectStore::with_backend(Box::new(MemoryStore::new()));
        let blocks: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 100 + i as usize]).collect();
        let actions = blocks.iter().map(|b| Action::Append { ciphertext: b.clone() }).collect();
        let record = CommitRecord {
            object: obj,
            index: 0,
            update: encode_update(&Update::unconditional(actions)).into(),
            version: Some(1),
            timestamp: 0,
            id: tid(0),
            cert: Default::default(),
        };
        assert!(replay(&mut store, &record));
        let version = Arc::clone(store.get(&obj).unwrap().data.current());
        assert_eq!(version.blocks.len(), blocks.len());
        let buffer = record.update.buffer();
        for (slot, block) in version.blocks.iter().enumerate() {
            let Block::Data(bytes) = block else { panic!("appends store data blocks") };
            assert!(Arc::ptr_eq(bytes.buffer(), buffer), "slot {slot}: a copy of the record");
            assert_eq!(store.read_block(&obj, slot).unwrap(), blocks[slot]);
        }
        // The record here and in the log, and each block twice: in the
        // object and in the blob backend.
        assert_eq!(Arc::strong_count(buffer), 2 + 2 * blocks.len());
        // The accounting does not notice the sharing.
        let health = store.health();
        assert_eq!(health.blob_count, 5);
        assert_eq!(health.blob_bytes, blocks.iter().map(|b| b.len() as u64).sum::<u64>());
        assert_eq!(health.fallback_reads, 0);
    }

    #[test]
    fn each_stored_block_is_filed_under_the_name_its_update_gave_it() {
        use oceanstore_store::MemoryStore;
        use oceanstore_update::update::Predicate;
        let obj = Guid::from_label("named");
        let mut store = ObjectStore::with_backend(Box::new(MemoryStore::new()));
        let (u, name, enc) = update(1);
        store.serialize_update(obj, u, name, enc, 0, tid(0));
        // A skipped clause's ciphertext comes first in encoding order; the
        // chosen clause writes slot 0 twice, then appends.
        let block = |tag: u8| vec![tag; 4];
        let skipped = vec![Action::Append { ciphertext: block(9) }];
        let u = Update::default()
            .with_clause(Predicate::CompareVersion(7), skipped)
            .with_clause(
                Predicate::True,
                vec![
                    Action::ReplaceBlock { position: 0, ciphertext: block(2) },
                    Action::ReplaceBlock { position: 0, ciphertext: block(3) },
                    Action::Append { ciphertext: block(4) },
                ],
            );
        let (u, name, enc) = served(&u);
        assert_eq!(name.cids.len(), 4);
        store.serialize_update(obj, u, name, enc, 1, tid(1));
        assert_eq!(store.slot_cid(&obj, 0), Some(cid_of(&block(3))), "the later write names it");
        assert_eq!(store.slot_cid(&obj, 1), Some(cid_of(&block(4))));
        assert_eq!(store.health().blob_count, 2, "only what the object holds is stored");
        assert_eq!(store.read_block(&obj, 0), Some(block(3)));
    }

    #[test]
    fn identical_blocks_dedup_across_objects() {
        let mut store = ObjectStore::new();
        for label in ["a", "b", "c"] {
            let (u, name, enc) = update(7); // same block bytes everywhere
            store.serialize_update(Guid::from_label(label), u, name, enc, 0, tid(0));
        }
        let health = store.health();
        assert_eq!(health.blob_count, 1, "identical content stored once");
        assert_eq!(health.dedup_hits, 2);
        assert_eq!(health.dedup_bytes_saved, 8);
    }

    #[test]
    fn dead_backend_reads_fall_back_to_the_replica() {
        use oceanstore_store::{SharedStore, SimRemoteStore};
        let provider = SharedStore::new(SimRemoteStore::new(1, 0, 0.0));
        let mut store = ObjectStore::with_backend(Box::new(provider.clone()));
        let obj = Guid::from_label("fallback");
        let (u, name, enc) = update(9);
        store.serialize_update(obj, u, name, enc, 0, tid(0));
        assert_eq!(store.read_block(&obj, 0).unwrap(), vec![9u8; 4]);
        assert_eq!(store.health().fallback_reads, 0);
        provider.with(|p| p.set_down(true));
        // The provider is dead; the committed bytes still read.
        assert_eq!(store.read_block(&obj, 0).unwrap(), vec![9u8; 4]);
        assert_eq!(store.health().fallback_reads, 1);
        assert_eq!(
            store.read_object_bytes(&obj).unwrap(),
            vec![9u8; 4],
            "object reads survive provider death via the replica"
        );
    }

    #[test]
    fn writes_to_a_dead_backend_do_not_lose_commits() {
        use oceanstore_store::{SharedStore, SimRemoteStore};
        let provider = SharedStore::new(SimRemoteStore::new(2, 0, 0.0));
        provider.with(|p| p.set_down(true));
        let mut store = ObjectStore::with_backend(Box::new(provider.clone()));
        let obj = Guid::from_label("dead-writes");
        let (u, name, enc) = update(4);
        store.serialize_update(obj, u, name, enc, 0, tid(0));
        assert!(store.health().blob_put_failures > 0);
        assert_eq!(store.read_block(&obj, 0).unwrap(), vec![4u8; 4], "replica serves");
        // Provider revives: the next commit re-syncs everything pending.
        provider.with(|p| p.set_down(false));
        let (u, name, enc) = update(5);
        store.serialize_update(obj, u, name, enc, 1, tid(1));
        assert_eq!(store.health().blob_count, 2, "missed block re-synced on next commit");
        assert!(provider.clone().has(&cid_of(&[4u8; 4])));
    }

    #[test]
    fn record_log_is_bounded_by_certified_frontier() {
        let obj = Guid::from_label("bounded");
        let mut store = ObjectStore::new();
        store.set_record_retention(16);
        let total = 200u64;
        for i in 0..total {
            let (u, name, enc) = update((i % 251) as u8);
            store.serialize_update(obj, u, name, enc, i, tid(i));
            store.set_cert(&obj, i, fake_cert());
        }
        let st = store.get(&obj).unwrap();
        assert_eq!(st.next_index, total);
        assert_eq!(st.retained_records(), 16, "only the retention window survives");
        assert_eq!(st.first_index, total - 16);
        let health = store.health();
        assert_eq!(health.total_records_applied, total);
        assert_eq!(health.records_dropped, total - 16);
        assert!(
            health.peak_retained_records <= 17,
            "peak {} must track the window, not total commits",
            health.peak_retained_records
        );
        // Serving comes from the retained certified suffix only.
        let served = store.records_from(&obj, 0);
        assert_eq!(served.len(), 16);
        assert_eq!(served[0].index, total - 16);
        assert!(served.iter().all(|r| !r.cert.is_empty()));
        // From the middle of the retained window, and from beyond it.
        let tail = store.records_from(&obj, total - 4);
        assert_eq!(tail.iter().map(|r| r.index).collect::<Vec<_>>(), (total - 4..total).collect::<Vec<_>>());
        assert!(store.records_from(&obj, total + 5).is_empty());
    }

    #[test]
    fn replayed_appends_share_every_unchanged_block() {
        let obj = Guid::from_label("shared-blocks");
        let mut primary = ObjectStore::new();
        let mut secondary = ObjectStore::new();
        for i in 0..1000u64 {
            let (u, name, enc) = update((i % 251) as u8);
            let rec = primary.serialize_update(obj, u, name, enc, i, tid(i));
            assert!(replay(&mut secondary, &rec));
        }
        let data = &secondary.get(&obj).unwrap().data;
        let (v1, v1000) = (data.version(1).unwrap(), data.current());
        assert_eq!((v1.number, v1000.number), (1, 1000));
        assert_eq!((v1.slot_count(), v1000.slot_count()), (1, 1000));
        let (Block::Data(old), Block::Data(new)) = (&v1.blocks[0], &v1000.blocks[0]) else {
            panic!("appends store data blocks");
        };
        assert!(Arc::ptr_eq(old.buffer(), new.buffer()), "999 later commits never copied block 0");
    }

    #[test]
    fn uncertified_tail_is_never_truncated() {
        let obj = Guid::from_label("uncertified");
        let mut store = ObjectStore::new();
        store.set_record_retention(4);
        // 50 commits, none certified: the frontier never advances, so
        // nothing may be dropped (certs are the proof the tier has the
        // history; without them every record is still needed).
        for i in 0..50u64 {
            let (u, name, enc) = update(i as u8);
            store.serialize_update(obj, u, name, enc, i, tid(i));
        }
        assert_eq!(store.get(&obj).unwrap().retained_records(), 50);
        // Certifying up to 40 allows truncation below 40 − retention.
        for i in 0..40u64 {
            store.set_cert(&obj, i, fake_cert());
        }
        let st = store.get(&obj).unwrap();
        assert_eq!(st.first_index, 36);
        assert_eq!(st.retained_records(), 14, "4 certified + 10 uncertified tail");
    }

    #[test]
    fn truncated_history_set_cert_is_a_noop() {
        let obj = Guid::from_label("late-cert");
        let mut store = ObjectStore::new();
        store.set_record_retention(2);
        for i in 0..10u64 {
            let (u, name, enc) = update(i as u8);
            store.serialize_update(obj, u, name, enc, i, tid(i));
            store.set_cert(&obj, i, fake_cert());
        }
        assert_eq!(store.get(&obj).unwrap().first_index, 8);
        // A duplicate cert for dropped history must not panic or resurrect.
        store.set_cert(&obj, 1, fake_cert());
        assert_eq!(store.get(&obj).unwrap().first_index, 8);
        assert_eq!(store.get(&obj).unwrap().retained_records(), 2);
    }

    #[test]
    fn record_lookup_covers_exactly_the_retained_window() {
        let obj = Guid::from_label("lookup");
        let mut store = ObjectStore::new();
        store.set_record_retention(2);
        for i in 0..10u64 {
            let (u, name, enc) = update(i as u8);
            store.serialize_update(obj, u, name, enc, i, tid(i));
            store.set_cert(&obj, i, fake_cert());
        }
        assert_eq!(store.get(&obj).unwrap().first_index, 8);
        assert!(store.record(&obj, 7).is_none(), "below the floor");
        assert_eq!(store.record(&obj, 8).map(|r| r.index), Some(8), "at the floor");
        assert_eq!(store.record(&obj, 9).map(|r| r.index), Some(9), "last");
        assert!(store.record(&obj, 10).is_none(), "one past the end");
        assert!(store.record(&Guid::from_label("absent"), 0).is_none());
    }

    #[test]
    fn default_retention_never_truncates_short_runs() {
        let obj = Guid::from_label("short-run");
        let mut store = ObjectStore::new();
        for i in 0..100u64 {
            let (u, name, enc) = update(i as u8);
            store.serialize_update(obj, u, name, enc, i, tid(i));
            store.set_cert(&obj, i, fake_cert());
        }
        // 100 < RECORD_RETENTION: the full log is retained, so every
        // pinned short-run schedule is byte-identical to the unbounded
        // behaviour.
        assert_eq!(store.get(&obj).unwrap().first_index, 0);
        assert_eq!(store.health().records_dropped, 0);
    }
}
