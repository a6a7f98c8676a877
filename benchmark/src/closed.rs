//! The three closed-loop workloads, driven through `core::OceanStore`.
//!
//! One driver issues the next unit of work only after the previous one
//! completed. Every call into the system is a child span of the unit's
//! root span; every answer is checked against a model the driver keeps
//! (bytes written, versions committed, session watermarks).

use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use oceanstore_core::system::{ArchiveRef, ObjectRef, OceanStore, UpdateOutcome};
use oceanstore_plaxton::{build_network, PlaxtonConfig};
use oceanstore_sim::{NetStats, NodeId, SimDuration, Topology};
use oceanstore_update::ops;
use oceanstore_update::session::{GuaranteeSet, SessionState};
use oceanstore_update::update::Predicate;
use oceanstore_update::Update;
use oceanstore_workload::zipf::Zipf;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::layers::{self, snap, Estimates, Fleet, RunFacts};
use crate::replay::Shape;
use crate::stats::{median, percentile, ratio, Calibrator, Metrics};
use crate::trace::{Span, Tracer};
use crate::{Outcome, RunArgs, Traced};

/// Which closed-loop workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The north-star path, one object per unit.
    Lifecycle,
    /// Reads dominate, one op per unit.
    ReadMostly,
    /// Large objects through archive and recovery, one object per unit.
    BulkArchive,
}

/// Sizes of one closed-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Secondary replicas (archival code is RS(16, 32) throughout).
    pub secondaries: usize,
    /// Blocks per object.
    pub blocks: usize,
    /// Cleartext bytes per block.
    pub block_len: usize,
    /// Objects written during set-up (`read_mostly` only).
    pub preload: usize,
    /// Units of a `RUN_SECONDS` run (see `RunArgs::units`).
    pub units: u64,
    /// Percentile reported as the tail of unit, update and read times:
    /// the highest with at least ten samples beyond it in a full run.
    pub tail_q: f64,
}

impl Spec {
    /// Cleartext bytes of one object.
    fn object_len(&self) -> usize {
        self.blocks * self.block_len
    }
}

const ARCHIVE_K: usize = 16;
const ARCHIVE_N: usize = 32;
/// Fragment holders taken down before recovery in `bulk_archive`.
const HOLDERS_DOWN: usize = 14;
/// Extra fragments requested beyond `k` on every recovery.
const RECOVER_EXTRA: usize = 2;
/// Bytes of seeded random payload the object contents are cut from.
const POOL_LEN: usize = 4 << 20;

/// The driver's model of one object: its handle, the cleartext of every
/// committed version, and where its location was published.
struct Model {
    obj: ObjectRef,
    versions: Vec<Vec<Rc<Vec<u8>>>>,
    holder: NodeId,
}

impl Model {
    /// Records a committed one-block replace as the next version.
    fn replace_block(&mut self, position: usize, block: Rc<Vec<u8>>) {
        let mut next = self.versions.last().expect("at least one version").clone();
        next[position] = block;
        self.versions.push(next);
    }
}

/// What the driver observed, beyond the span log.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    user_bytes: u64,
    ciphertext_bytes: u64,
    commit_sim_ms: Vec<f64>,
    aborts: u64,
    locate_sim_ms: Vec<f64>,
    locate_hops: Vec<f64>,
    locate_misses: u64,
    locate_by_root: u64,
    locates: u64,
    archives: u64,
    recovers: u64,
    recover_sim_ms: Vec<f64>,
    fragments_requested: u64,
    archived_user_bytes: u64,
}

struct Driver {
    spec: Spec,
    ocean: OceanStore,
    tr: Tracer,
    rng: ChaCha8Rng,
    pool: Vec<u8>,
    sessions: [SessionState; 2],
    t: Tally,
    /// `read_mostly`'s preloaded objects, Zipf rank order.
    models: Vec<Option<Model>>,
    zipf: Zipf,
}

/// Runs `$body` inside a child span of kind `$kind`. The optional
/// `$ok` closure reads the body's value to decide whether the call
/// succeeded.
macro_rules! span {
    ($d:ident, $kind:expr, $body:expr) => {
        span!($d, $kind, $body, |_| true)
    };
    ($d:ident, $kind:expr, $body:expr, $ok:expr) => {{
        let id = $d.tr.begin($kind, || snap($d.ocean.sim()));
        let r = $body;
        let ok: bool = ($ok)(&r);
        $d.tr.end(id, ok, || snap($d.ocean.sim()));
        r
    }};
}

fn build_ocean(spec: &Spec, seed: u64) -> OceanStore {
    OceanStore::builder()
        .faults_tolerated(1)
        .secondaries(spec.secondaries)
        .clients(2)
        .latency(SimDuration::from_millis(20))
        .archival_code(ARCHIVE_K, ARCHIVE_N)
        .seed(seed)
        .build()
}

impl Driver {
    /// Builds and starts the deployment and preloads what the workload
    /// reads: everything `setup_s` pays for.
    fn set_up(spec: Spec, args: &RunArgs) -> Driver {
        let mut rng = ChaCha8Rng::seed_from_u64(args.seed ^ 0x6f63_6561_6e62_656e);
        let mut pool = vec![0u8; POOL_LEN];
        rng.fill_bytes(&mut pool);
        let mut d = Driver {
            spec,
            ocean: build_ocean(&spec, args.seed),
            tr: Tracer::new(false),
            rng,
            pool,
            sessions: [SessionState::new(), SessionState::new()],
            t: Tally::default(),
            models: Vec::new(),
            zipf: Zipf::new(spec.preload.max(1), 0.9),
        };
        for i in 0..spec.preload {
            let model = d.preload_object(i);
            d.models.push(Some(model));
        }
        // Starting the deployment is part of setting it up: first
        // heartbeats, beacons and tree attaches, the lazily built route
        // and key tables — and, for the preload, every publish above and
        // the tree push of the last writes.
        d.ocean.settle(SimDuration::from_secs(2));
        d
    }

    fn preload_object(&mut self, i: usize) -> Model {
        let name = format!("rm-{i}");
        let obj = self.ocean.create_object(0, &name);
        let content = self.payload(i as u64);
        let update = ops::initial_write(&obj.keys, name.as_bytes(), &as_slices(&content), &[]);
        let out = self.ocean.update(0, &obj, &update).expect("preload write");
        assert_eq!(
            out,
            UpdateOutcome::Committed { version: 1 },
            "preload must commit"
        );
        self.sessions[0].note_write(obj.guid, 1);
        let holder = self.ocean.secondaries()[i % self.spec.secondaries];
        let guid = obj.guid;
        self.ocean.sim().with_node_ctx(holder, |server, ctx| {
            server.with_plaxton(ctx, |p, ictx| p.publish(ictx, guid));
        });
        Model {
            obj,
            versions: vec![content],
            holder,
        }
    }

    /// Seeded object content: `blocks` blocks cut from the pool at a
    /// random offset, each stamped with `(unit, block)` so no two blocks
    /// of a run are equal (accidental dedup would flatter the store).
    fn payload(&mut self, unit: u64) -> Vec<Rc<Vec<u8>>> {
        let len = self.spec.block_len;
        (0..self.spec.blocks)
            .map(|b| self.block(unit, b as u64, len))
            .collect()
    }

    fn block(&mut self, unit: u64, index: u64, len: usize) -> Rc<Vec<u8>> {
        let at = self.rng.gen_range(0..POOL_LEN - len);
        let mut block = self.pool[at..at + len].to_vec();
        block[..8].copy_from_slice(&unit.to_le_bytes());
        block[8..16].copy_from_slice(&index.to_le_bytes());
        Rc::new(block)
    }

    fn violation(&mut self, what: String) {
        if self.t.violations.len() < 8 {
            self.t.violations.push(what);
        }
    }

    /// Submits `update` from `client` and waits for serialization. A
    /// timeout is a failed op; a commit feeds the commit-latency sample
    /// and the client's session.
    fn write(&mut self, client: usize, obj: &ObjectRef, update: &Update) -> Option<UpdateOutcome> {
        self.t.attempted += 1;
        self.t.ciphertext_bytes += update.wire_size() as u64;
        let (req, res) = span!(
            self,
            "core.update",
            {
                let req = self.ocean.submit(client, obj, update);
                (req, self.ocean.wait_for(req, obj))
            },
            |r: &(_, Result<_, _>)| r.1.is_ok()
        );
        let Ok(out) = res else {
            self.t.failed += 1;
            return None;
        };
        let node = self.ocean.clients()[client];
        let done = self
            .ocean
            .sim()
            .node(node)
            .replica
            .as_client()
            .and_then(|c| c.outcome(req).copied());
        if let Some(o) = done {
            let us = o.committed_at.saturating_since(o.sent_at).as_micros();
            self.t.commit_sim_ms.push(us as f64 / 1e3);
        }
        if let UpdateOutcome::Committed { version } = out {
            self.sessions[client].note_write(obj.guid, version);
        }
        Some(out)
    }

    /// Session read by `client` under every guarantee, checked against
    /// the model: the bytes must be exactly those of the version the
    /// session now records, and that version must respect read-your-writes
    /// and monotonic reads.
    fn read_checked(&mut self, client: usize, obj: &ObjectRef, versions: &[Vec<Rc<Vec<u8>>>]) {
        self.t.attempted += 1;
        let before = self.sessions[client].read_watermark(&obj.guid);
        let written = self.sessions[client].write_watermark(&obj.guid);
        let res = span!(
            self,
            "core.read",
            self.ocean.read(
                client,
                obj,
                &mut self.sessions[client],
                &GuaranteeSet::all()
            ),
            Result::is_ok
        );
        let Ok(content) = res else {
            self.t.failed += 1;
            return;
        };
        let got = self.sessions[client].read_watermark(&obj.guid);
        if got < written {
            self.violation(format!(
                "{}: read v{got} after writing v{written}",
                obj.name
            ));
        }
        if got < before {
            self.violation(format!("{}: read v{got} after reading v{before}", obj.name));
        }
        match versions.get((got as usize).wrapping_sub(1)) {
            Some(expect) if same_bytes(&content, expect) => {}
            _ => self.violation(format!(
                "{}: bytes read at v{got} differ from bytes written",
                obj.name
            )),
        }
    }

    /// Locates `obj` from client 1's position. A timeout is a failed op;
    /// `None` for a published object with a live holder is a completed op
    /// that missed (counted, not successful); any holder but the one
    /// published is a wrong answer.
    fn locate_checked(&mut self, obj: &ObjectRef, holder: NodeId) {
        self.t.attempted += 1;
        self.t.locates += 1;
        let from = self.ocean.clients()[1];
        let start = self.ocean.sim().now();
        let res = span!(
            self,
            "plaxton.locate",
            self.ocean.locate(from, obj),
            Result::is_ok
        );
        match res {
            Ok(Some(found)) if found == holder => {}
            Ok(Some(found)) => {
                self.violation(format!(
                    "{}: located at {found:?}, published at {holder:?}",
                    obj.name
                ));
            }
            Ok(None) => self.t.locate_misses += 1,
            Err(_) => self.t.failed += 1,
        }
        // `OceanStore` numbers its locate queries from 1, one per call.
        let query = self.t.locates;
        let server = self.ocean.sim().node(from);
        if let Some(o) = server.plaxton.as_ref().and_then(|p| p.outcome(query)) {
            // To the recorded completion; the call itself returns at its
            // next 50 ms poll.
            self.t
                .locate_sim_ms
                .push(o.completed_at.saturating_since(start).as_micros() as f64 / 1e3);
            self.t.locate_hops.push(f64::from(o.hops));
            self.t.locate_by_root += u64::from(o.answered_by_root);
        }
    }

    fn unit(&mut self, u: u64) {
        match self.spec.kind {
            Kind::Lifecycle => self.lifecycle_unit(u),
            Kind::ReadMostly => self.read_mostly_unit(u),
            Kind::BulkArchive => self.bulk_archive_unit(u),
        }
    }

    fn write_object(&mut self, prefix: &str, u: u64) -> Option<Model> {
        let name = format!("{prefix}-{u}");
        let obj = self.ocean.create_object(0, &name);
        let content = self.payload(u);
        let update = span!(
            self,
            "update.build",
            ops::initial_write(&obj.keys, name.as_bytes(), &as_slices(&content), &[])
        );
        let out = self.write(0, &obj, &update)?;
        if out != (UpdateOutcome::Committed { version: 1 }) {
            self.violation(format!("{name}: first write answered {out:?}"));
            return None;
        }
        self.t.user_bytes += self.spec.object_len() as u64;
        let holder = self.ocean.secondaries()[u as usize % self.spec.secondaries];
        Some(Model {
            obj,
            versions: vec![content],
            holder,
        })
    }

    fn settle(&mut self, d: SimDuration) {
        span!(self, "core.settle", self.ocean.settle(d));
    }

    fn archive(&mut self, obj: &ObjectRef) -> Option<ArchiveRef> {
        self.t.attempted += 1;
        self.t.archives += 1;
        let res = span!(
            self,
            "archival.archive",
            self.ocean.archive(obj),
            Result::is_ok
        );
        match res {
            Ok(_) => self.t.archived_user_bytes += self.spec.object_len() as u64,
            Err(_) => self.t.failed += 1,
        }
        res.ok()
    }

    /// Recovers `archive` and checks the bytes against `expect`.
    fn recover_checked(&mut self, obj: &ObjectRef, archive: &ArchiveRef, expect: &[Rc<Vec<u8>>]) {
        self.t.attempted += 1;
        self.t.recovers += 1;
        self.t.fragments_requested += (ARCHIVE_K + RECOVER_EXTRA).min(archive.holders.len()) as u64;
        let requester = self.ocean.clients()[1];
        let start = self.ocean.sim().now();
        let res = span!(
            self,
            "archival.recover",
            self.ocean
                .recover_from_archive(requester, archive, &obj.keys, RECOVER_EXTRA),
            Result::is_ok
        );
        let Ok(content) = res else {
            self.t.failed += 1;
            return;
        };
        if !same_bytes(&content, expect) {
            self.violation(format!(
                "{}: bytes recovered differ from bytes written",
                obj.name
            ));
        }
        // `OceanStore` numbers its fetches from 1, one per call.
        let fetch = self.t.recovers;
        if let Some(o) = self.ocean.sim().node(requester).arch.outcome(fetch) {
            self.t
                .recover_sim_ms
                .push(o.completed_at.saturating_since(start).as_micros() as f64 / 1e3);
        }
    }

    /// write → settle → session read → (every 4th: guarded replace that
    /// commits, stale-guarded one that must abort, writer reads its own
    /// write) → publish → locate → archive → recover.
    fn lifecycle_unit(&mut self, u: u64) {
        let Some(mut model) = self.write_object("lc", u) else {
            return;
        };
        self.settle(SimDuration::from_secs(1));
        self.read_checked(1, &model.obj, &model.versions);
        if u % 4 == 3 {
            self.guarded_replace(&mut model, u);
        }
        span!(
            self,
            "plaxton.publish",
            self.ocean.publish_location(&model.obj, &[model.holder])
        );
        self.locate_checked(&model.obj, model.holder);
        let Some(archive) = self.archive(&model.obj) else {
            return;
        };
        let current = model.versions.last().expect("at least one version").clone();
        self.recover_checked(&model.obj, &archive, &current);
    }

    fn guarded_replace(&mut self, model: &mut Model, u: u64) {
        let len = self.spec.block_len;
        let position = (u as usize / 4) % self.spec.blocks;
        let block = self.block(u, u64::MAX, len);
        let actions = ops::replace_op_at_slot(&model.obj.keys, position, position, &block);
        let fresh = Update::default().with_clause(Predicate::CompareVersion(1), actions.clone());
        match self.write(0, &model.obj, &fresh) {
            Some(UpdateOutcome::Committed { version: 2 }) => {
                model.replace_block(position, block);
                self.t.user_bytes += len as u64;
            }
            Some(other) => self.violation(format!(
                "{}: guarded replace answered {other:?}",
                model.obj.name
            )),
            None => return,
        }
        let stale = Update::default().with_clause(Predicate::CompareVersion(1), actions);
        match self.write(0, &model.obj, &stale) {
            Some(UpdateOutcome::Aborted) => self.t.aborts += 1,
            Some(other) => self.violation(format!(
                "{}: stale predicate answered {other:?}",
                model.obj.name
            )),
            None => return,
        }
        self.settle(SimDuration::from_secs(1));
        self.read_checked(0, &model.obj, &model.versions);
    }

    /// One op. Of every 20, one is a locate, one a one-block write by
    /// client 0 followed by that session reading its own write, and 18 are
    /// session reads: a fixed pattern, so the mix itself adds no sampling
    /// noise to per-op costs. Objects are drawn Zipf(0.9), clients evenly.
    fn read_mostly_unit(&mut self, u: u64) {
        let rank = self.zipf.sample(&mut self.rng);
        let client = usize::from(self.rng.gen_range(0.0..1.0) < 0.5);
        let slot = u % 20;
        let mut model = self.models[rank]
            .take()
            .expect("model is put back after every op");
        if slot == 7 {
            self.locate_checked(&model.obj, model.holder);
        } else if slot != 13 {
            self.read_checked(client, &model.obj, &model.versions);
        } else {
            let len = self.spec.block_len;
            let position = (u / 20) as usize % self.spec.blocks;
            let block = self.block(u, u64::MAX, len);
            let actions = ops::replace_op_at_slot(&model.obj.keys, position, position, &block);
            let expected = model.versions.len() as u64 + 1;
            match self.write(0, &model.obj, &Update::unconditional(actions)) {
                Some(UpdateOutcome::Committed { version }) if version == expected => {
                    model.replace_block(position, block);
                    self.t.user_bytes += len as u64;
                    self.read_checked(0, &model.obj, &model.versions);
                }
                Some(other) => {
                    self.violation(format!("{}: replace answered {other:?}", model.obj.name))
                }
                None => {}
            }
        }
        self.models[rank] = Some(model);
    }

    /// write → settle → archive → 14 fragment holders down → recover from
    /// the 18 still up → holders up → session read.
    fn bulk_archive_unit(&mut self, u: u64) {
        let Some(model) = self.write_object("ba", u) else {
            return;
        };
        self.settle(SimDuration::from_secs(1));
        let Some(mut archive) = self.archive(&model.obj) else {
            return;
        };
        // Fragments go round-robin over primaries then secondaries, so
        // holders[4..18] are secondaries holding 12 data and 2 parity
        // shards. With them down the fetch must decode, not copy; a caller
        // that knows who is down asks the 18 live holders.
        let primaries = self.ocean.primaries().len();
        let down: Vec<NodeId> = archive.holders[primaries..primaries + HOLDERS_DOWN].to_vec();
        for &h in &down {
            self.ocean.sim().set_down(h, true);
        }
        archive.holders.retain(|h| !down.contains(h));
        self.recover_checked(&model.obj, &archive, &model.versions[0]);
        for &h in &down {
            self.ocean.sim().set_down(h, false);
        }
        self.read_checked(1, &model.obj, &model.versions);
    }
}

fn as_slices(content: &[Rc<Vec<u8>>]) -> Vec<&[u8]> {
    content.iter().map(|b| b.as_slice()).collect()
}

fn same_bytes(got: &[Vec<u8>], expect: &[Rc<Vec<u8>>]) -> bool {
    got.len() == expect.len() && got.iter().zip(expect).all(|(g, e)| g == &**e)
}

/// Sets the workload up (several times, reporting each), then measures
/// `args.units(spec.units)` units of work on the last deployment built.
pub fn run(spec: Spec, args: &RunArgs) -> Outcome {
    let mut cal = Calibrator::default();
    let (mut d, setup_s) =
        crate::repeat_set_up(args.small, &mut cal, || Driver::set_up(spec, args));
    d.tr = Tracer::new(args.trace);
    d.ocean.sim().reset_stats();
    let sim_start = d.ocean.sim().now();
    let events_start = d.ocean.sim().events_processed();

    let mut unit_ms = Vec::new();
    let run_start = Instant::now();
    let spin_start_s = cal.total_spin_s();
    for u in 0..args.units(spec.units) {
        let t = Instant::now();
        let root = d.tr.begin_unit(u as u32, || snap(d.ocean.sim()));
        d.unit(u);
        d.tr.end(root, true, || snap(d.ocean.sim()));
        unit_ms.push(t.elapsed().as_secs_f64() * 1e3 / cal.factor());
    }
    let wall_s = run_start.elapsed().as_secs_f64() - (cal.total_spin_s() - spin_start_s);
    let peak_rss_mb = crate::stats::peak_rss_mib();

    let sim = d.ocean.sim();
    let mut fleet = Fleet::default();
    for node in sim.nodes() {
        fleet.add_replica(&node.replica);
        fleet.add_arch(&node.arch);
    }
    let stats = sim.stats().clone();
    let facts = RunFacts {
        wall_s,
        sim_s: sim.now().saturating_since(sim_start).as_secs_f64(),
        commits: d.t.commit_sim_ms.len() as u64,
        pending: 0,
        events: sim.events_processed() - events_start,
        locates: d.t.locates,
        archives: d.t.archives,
    };
    let object_len = spec.object_len();
    let mut out = Outcome {
        setup_s,
        wall_s,
        cal_wall_s: unit_ms.iter().sum::<f64>() / 1e3,
        unit_ms,
        calib_spin_ms: cal.median_spin_ms(),
        commit_sim_ms: d.t.commit_sim_ms.clone(),
        tail_q: spec.tail_q,
        attempted: d.t.attempted,
        failed: d.t.failed,
        missed: d.t.locate_misses,
        violations: std::mem::take(&mut d.t.violations),
        wire_bytes: stats.total_bytes(),
        stored_bytes: fleet.stored_bytes(),
        user_bytes: d.t.user_bytes + (spec.preload * object_len) as u64,
        peak_rss_mb,
        shape: Shape {
            block_len: spec.block_len,
            blocks: spec.blocks,
            archive_len: object_len,
            k: ARCHIVE_K,
            n: ARCHIVE_N,
        },
        traced: None,
    };
    if args.trace {
        let mut m = Metrics::default();
        layers::count_metrics(&mut m, &stats, &fleet, &facts);
        layers::coverage_metrics(&mut m, &sim.par_coverage());
        m.set("sim.pending_events_at_end", sim.pending_events() as f64);
        d.layer_metrics(&mut m, &fleet);
        let estimates = d.estimates(&stats, &fleet);
        // Host cost of one simulated second with no client op, on the
        // deployment as the run left it.
        let idle = Instant::now();
        d.ocean.settle(SimDuration::from_secs(2));
        m.set(
            "sim.idle_wall_ms_per_sim_s",
            idle.elapsed().as_secs_f64() * 1e3 / 2.0,
        );
        // The location mesh alone, for the same node count.
        let nodes = d.ocean.sim().len();
        let topo = Arc::new(Topology::full_mesh(nodes, SimDuration::from_millis(20)));
        let mesh = Instant::now();
        std::hint::black_box(build_network(&topo, &PlaxtonConfig::default(), args.seed));
        m.set("plaxton.setup_s", mesh.elapsed().as_secs_f64());
        out.traced = Some(Traced {
            layers: m,
            estimates,
            counted_wall_s: wall_s,
            tracer: d.tr,
        });
    }
    out
}

impl Driver {
    /// Per-layer metrics that come from spans and from the driver's tally.
    fn layer_metrics(&self, m: &mut Metrics, fleet: &Fleet) {
        let t = &self.t;
        let q = self.spec.tail_q;
        let update_ms = self.tr.wall_ms("core.update");
        let read_ms = self.tr.wall_ms("core.read");
        m.set("core.update_wall_ms_p50", median(&update_ms));
        m.set("core.update_wall_ms_tail", percentile(&update_ms, q));
        m.set("core.read_wall_ms_p50", median(&read_ms));
        m.set("core.read_wall_ms_tail", percentile(&read_ms, q));
        let (settle_ms, settle_sim_ms) = self
            .tr
            .of_kind("core.settle")
            .fold((0.0, 0.0), |(w, s), sp| (w + sp.wall_ms(), s + sp.sim_ms()));
        m.set(
            "core.settle_wall_ms_per_sim_s",
            ratio(settle_ms, settle_sim_ms / 1e3),
        );
        let read_wait: Vec<f64> = self.tr.of_kind("core.read").map(Span::sim_ms).collect();
        m.set("core.read_wait_sim_ms_p50", median(&read_wait));
        m.set("core.aborts", t.aborts as f64);
        m.set(
            "core.failed_ops_ratio",
            ratio((t.failed + t.locate_misses) as f64, t.attempted as f64),
        );
        m.set(
            "update.ciphertext_bytes_per_user_byte",
            ratio(t.ciphertext_bytes as f64, t.user_bytes as f64),
        );

        let meets = percentile(&t.commit_sim_ms, q) <= crate::LATENCY_LIMIT_MS && t.failed == 0;
        m.set("consensus.meets_latency_limit", f64::from(u8::from(meets)));
        m.set("consensus.peak_log_len", fleet.log_len as f64);

        m.set(
            "archival.archive_wall_ms_p50",
            median(&self.tr.wall_ms("archival.archive")),
        );
        m.set(
            "archival.recover_wall_ms_p50",
            median(&self.tr.wall_ms("archival.recover")),
        );
        m.set("archival.recover_sim_ms_p50", median(&t.recover_sim_ms));
        m.set(
            "archival.fragments_requested_per_recover",
            ratio(t.fragments_requested as f64, t.recovers as f64),
        );
        m.set(
            "archival.fragment_bytes_per_user_byte",
            ratio(fleet.frag_bytes as f64, t.archived_user_bytes as f64),
        );

        m.set(
            "plaxton.publish_wall_ms_p50",
            median(&self.tr.wall_ms("plaxton.publish")),
        );
        m.set(
            "plaxton.locate_wall_us_p50",
            median(&self.tr.wall_ms("plaxton.locate")) * 1e3,
        );
        m.set("plaxton.locate_sim_ms_p50", median(&t.locate_sim_ms));
        m.set(
            "plaxton.locate_sim_ms_tail",
            percentile(&t.locate_sim_ms, q),
        );
        m.set("plaxton.locate_hops_p50", median(&t.locate_hops));
        m.set(
            "plaxton.locate_miss_ratio",
            ratio(t.locate_misses as f64, t.locates as f64),
        );
        m.set(
            "plaxton.locate_root_answer_ratio",
            ratio(t.locate_by_root as f64, t.locates as f64),
        );
    }

    /// The counts the kernel replay prices, as far as they show from
    /// outside: bytes through the cipher on the driver's own calls, blobs
    /// and fragments the stores hold, objects through the erasure code.
    fn estimates(&self, stats: &NetStats, fleet: &Fleet) -> Estimates {
        let ring = self.ocean.primaries().len() as u64;
        let (signs, verifies) = layers::est_sig_ops(stats, ring, ring);
        let object_mb = self.spec.object_len() as f64 / 1e6;
        let reads = self.tr.of_kind("core.read").filter(|s| s.ok).count() as f64;
        let recovers = self.t.recover_sim_ms.len() as f64;
        let archives = self.t.archives as f64;
        Estimates {
            signs,
            verifies,
            cipher_mb: self.t.user_bytes as f64 / 1e6 + (reads + recovers) * object_mb,
            puts_4k: fleet.stored_bytes() as f64 / 4096.0,
            gets_4k: stats.class("arch/response").bytes as f64 / 4096.0,
            encoded_mb: archives * object_mb,
            decoded_mb: recovers * object_mb,
            merkle_leaves: archives * ARCHIVE_N as f64,
        }
    }
}
