//! The three open-loop workloads, driven through
//! `replica::build_deployment` and its `UpdateClient`s.
//!
//! Arrivals are generated before the run — a Poisson process conditioned
//! on its count, so every seed offers exactly `rate × duration` requests —
//! and injected at their exact simulated instants whether or not earlier
//! requests finished, so the generator is never late by construction (and
//! the run checks it). The unit of work is one 100 ms slice of simulated
//! time.

use std::collections::HashSet;
use std::time::Instant;

use oceanstore_consensus::messages::RequestId;
use oceanstore_naming::guid::Guid;
use oceanstore_replica::{build_deployment, Deployment, DeploymentOpts};
use oceanstore_sim::{NodeId, SimDuration, SimTime};
use oceanstore_update::object::Block;
use oceanstore_update::update::Action;
use oceanstore_update::Update;
use oceanstore_workload::zipf::Zipf;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::layers::{self, snap, Estimates, Fleet, RunFacts};
use crate::replay::Shape;
use crate::stats::{percentile, ratio, Calibrator, Metrics};
use crate::trace::Tracer;
use crate::{Outcome, RunArgs, Traced};

/// Sizes of one open-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Secondary replicas under the two rings.
    pub secondaries: usize,
    /// Arrivals per simulated second.
    pub rate: f64,
    /// Simulator worker threads asked for (capped at the host's CPUs).
    pub threads: usize,
    /// Whether fault windows open during the run.
    pub faults: bool,
    /// Simulated seconds run after the last arrival.
    pub drain_s: u64,
    /// Arrival slices of a `RUN_SECONDS` run (see `RunArgs::units`).
    pub units: u64,
    /// Percentile reported as the tail of slice times and commit latency.
    pub tail_q: f64,
}

const RINGS: usize = 2;
const CLIENTS: usize = 4;
const OBJECTS: usize = 32;
/// Every fifth arrival is a read, the rest are writes: a fixed pattern,
/// so every seed offers the same mix.
const READ_EVERY: usize = 5;
/// Every write appends one block of this many bytes.
const MARKER_LEN: usize = 8;
/// Simulated time every set-up runs before the first arrival; arrival
/// and fault instants count from its end.
const WARM_UP: SimDuration = SimDuration::from_secs(1);
/// One unit of work: this much simulated time.
const SLICE: SimDuration = SimDuration::from_millis(100);
/// The fault schedule repeats with this period.
const FAULT_PERIOD_US: u64 = 10_000_000;
/// Toggles inside every period, in time order: the dissemination links
/// are lossy during `[2 s, 4 s)`, and the root's first child is down
/// during `[6 s, 8 s)`. The two windows are kept apart because together
/// they make the run depend on hash-map iteration order somewhere in the
/// re-parenting path (two outcomes alternate for one seed); apart, every
/// simulated-clock metric repeats exactly.
const FAULT_TOGGLES: [(u64, Fault); 4] = [
    (2_000_000, Fault::Links(true)),
    (4_000_000, Fault::Links(false)),
    (6_000_000, Fault::Down(true)),
    (8_000_000, Fault::Down(false)),
];
/// Drop probability on root and tree links while they are lossy.
const FAULT_LINK_DROP: f64 = 0.05;

#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Primary → tree root and tree edges lossy (or clean again).
    Links(bool),
    /// The root's first child down (or up again), so that its subtree
    /// must re-parent.
    Down(bool),
}

struct Write {
    client: NodeId,
    id: RequestId,
    object: usize,
}

struct Driver {
    spec: Spec,
    dep: Deployment,
    tr: Tracer,
    rng: ChaCha8Rng,
    zipf: Zipf,
    guids: Vec<Guid>,
    /// Arrival instants, microseconds after the warm-up, ascending.
    arrivals: Vec<u64>,
    /// Arrivals injected so far.
    injected: usize,
    writes: Vec<Write>,
    reads: u64,
    stale_reads: u64,
    lateness_us_max: u64,
    violations: Vec<String>,
    /// Links whose drop probability a fault window raises.
    lossy_links: Vec<(NodeId, NodeId)>,
    /// Whether the fault schedule is running (arrival slices of a
    /// workload with faults).
    toggling: bool,
    peak_log_len: u64,
}

macro_rules! span {
    ($d:ident, $kind:expr, $body:expr) => {{
        let id = $d.tr.begin($kind, || snap(&$d.dep.sim));
        let r = $body;
        $d.tr.end(id, true, || snap(&$d.dep.sim));
        r
    }};
}

fn threads_for(spec: &Spec) -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    spec.threads.min(cpus).max(1)
}

/// `rate × duration` arrival instants, uniform over `[from_us, from_us +
/// duration)` and sorted: a Poisson process given its count.
fn schedule(rng: &mut ChaCha8Rng, rate: f64, from_us: u64, slices: u64) -> Vec<u64> {
    let duration_us = slices * SLICE.as_micros();
    let count = (rate * duration_us as f64 / 1e6).round() as usize;
    let mut at: Vec<u64> = (0..count)
        .map(|_| from_us + rng.gen_range(0..duration_us))
        .collect();
    at.sort_unstable();
    at
}

impl Driver {
    fn set_up(spec: Spec, seed: u64, threads: usize, slices: u64) -> Driver {
        let mut dep = build_deployment(&DeploymentOpts {
            rings: RINGS,
            m: 1,
            secondaries: spec.secondaries,
            clients: CLIENTS,
            latency: SimDuration::from_millis(20),
            seed,
            ..DeploymentOpts::default()
        });
        dep.sim.set_threads(threads);
        // Starting the deployment is part of setting it up: first
        // heartbeats and tree attaches, the lazily built route and key
        // tables.
        dep.sim.run_for(WARM_UP);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6f70_656e_6c6f_6f70);
        let guids = (0..OBJECTS)
            .map(|i| Guid::from_label(&format!("bench-{seed}-obj-{i}")))
            .collect();
        let arrivals = schedule(&mut rng, spec.rate, 0, slices);
        // Primary → tree root, and every tree edge. The commit path stays
        // clean in the measured phase: at this commit any loss between
        // clients and primaries, or any primary held down, leaves writes
        // pending for good (see `commit_path_probe`).
        let mut lossy_links = Vec::new();
        if spec.faults {
            let root = dep.secondaries[0];
            lossy_links.extend(dep.all_primaries().map(|p| (p, root)));
            for (j, &child) in dep.secondaries.iter().enumerate().skip(1) {
                lossy_links.push((dep.secondaries[(j - 1) / 2], child));
            }
        }
        Driver {
            spec,
            dep,
            tr: Tracer::new(false),
            rng,
            zipf: Zipf::new(OBJECTS, 0.9),
            guids,
            arrivals,
            injected: 0,
            writes: Vec::new(),
            reads: 0,
            stale_reads: 0,
            lateness_us_max: 0,
            violations: Vec::new(),
            lossy_links,
            toggling: spec.faults,
            peak_log_len: 0,
        }
    }

    fn set_fault(&mut self, fault: Fault) {
        match fault {
            Fault::Links(on) => {
                let p = if on { FAULT_LINK_DROP } else { 0.0 };
                for &(a, b) in &self.lossy_links {
                    self.dep.sim.set_link_drop(a, b, p);
                }
            }
            Fault::Down(on) => self.dep.sim.set_down(self.dep.secondaries[1], on),
        }
    }

    /// Ends the fault schedule and clears whatever fault is on.
    fn stop_faults(&mut self) {
        if self.toggling {
            self.toggling = false;
            self.set_fault(Fault::Links(false));
            self.set_fault(Fault::Down(false));
        }
    }

    /// The first fault toggle strictly after `now_us` (one at `now_us`
    /// itself has been applied already), as microseconds after the warm-up.
    fn next_toggle(now_us: u64) -> (u64, Fault) {
        let period_start = now_us - now_us % FAULT_PERIOD_US;
        let (first_at, first) = FAULT_TOGGLES[0];
        FAULT_TOGGLES
            .iter()
            .map(|&(at, fault)| (period_start + at, fault))
            .find(|&(at, _)| at > now_us)
            .unwrap_or((period_start + FAULT_PERIOD_US + first_at, first))
    }

    /// Advances the simulation to `to`, applying the fault toggles due on
    /// the way at their exact instants.
    fn advance_to(&mut self, to: SimTime) {
        while self.toggling {
            let now_us = self.dep.sim.now().saturating_since(at_us(0)).as_micros();
            let (at, fault) = Self::next_toggle(now_us);
            if at_us(at) > to {
                break;
            }
            span!(self, "sim.advance", self.dep.sim.run_until(at_us(at)));
            self.set_fault(fault);
        }
        span!(self, "sim.advance", self.dep.sim.run_until(to));
    }

    fn arrival(&mut self) {
        let object = self.zipf.sample(&mut self.rng);
        let guid = self.guids[object];
        if self.injected % READ_EVERY != READ_EVERY - 1 {
            let client = self.dep.clients[self.writes.len() % CLIENTS];
            let marker = self.writes.len() as u64;
            let update = Update::unconditional(vec![Action::Append {
                ciphertext: marker.to_le_bytes().to_vec(),
            }]);
            let id = span!(
                self,
                "replica.submit",
                self.dep.sim.with_node_ctx(client, |node, ctx| {
                    node.as_client_mut()
                        .expect("client node")
                        .submit(ctx, guid, &update)
                })
            );
            self.writes.push(Write { client, id, object });
        } else {
            let secondary = self.dep.secondaries[self.rng.gen_range(0..self.spec.secondaries)];
            span!(self, "replica.read", self.read_checked(secondary, object));
        }
    }

    /// Reads `object`'s committed view at `secondary`: every block must
    /// be the marker of a write made to that object, none twice.
    fn read_checked(&mut self, secondary: NodeId, object: usize) {
        let guid = self.guids[object];
        self.reads += 1;
        let node = self
            .dep
            .sim
            .node(secondary)
            .as_secondary()
            .expect("secondary node");
        let have = node.store.get(&guid).map_or(0, |st| st.next_index);
        if have < ring_frontier(&self.dep, &guid) {
            self.stale_reads += 1;
        }
        let Some(view) = node.committed_view(&guid) else {
            return;
        };
        let mut seen = HashSet::new();
        for block in &view.current().blocks {
            let marker = match block {
                Block::Data(ct) => <[u8; 8]>::try_from(ct.as_slice())
                    .ok()
                    .map(u64::from_le_bytes),
                Block::Index(_) => None,
            };
            let known = marker
                .and_then(|m| self.writes.get(m as usize))
                .is_some_and(|w| w.object == object);
            if !known || !seen.insert(marker) {
                if self.violations.len() < 8 {
                    self.violations.push(format!("object {object}: committed view holds {marker:?}, not a write made to it exactly once"));
                }
                return;
            }
        }
    }

    /// Runs one slice: injects the arrivals due in it, then advances to
    /// its end.
    fn slice(&mut self, index: u64) {
        let end = at_us((index + 1) * SLICE.as_micros());
        while let Some(&due) = self.arrivals.get(self.injected) {
            if at_us(due) >= end {
                break;
            }
            self.advance_to(at_us(due));
            let late = self.dep.sim.now().saturating_since(at_us(due)).as_micros();
            self.lateness_us_max = self.lateness_us_max.max(late);
            self.arrival();
            self.injected += 1;
        }
        self.advance_to(end);
        if self.tr.is_on() {
            let log_len = self
                .dep
                .all_primaries()
                .filter_map(|p| self.dep.sim.node(p).as_primary())
                .map(|p| p.pbft().health().log_len)
                .max()
                .unwrap_or(0);
            self.peak_log_len = self.peak_log_len.max(log_len);
        }
    }

    /// Runs slices `from..to`, each a unit of work with its root span;
    /// returns the calibrated host milliseconds of each.
    fn slices(&mut self, from: u64, to: u64, cal: &mut Calibrator) -> Vec<f64> {
        (from..to)
            .map(|k| {
                let t = Instant::now();
                let root = self.tr.begin_unit(k as u32, || snap(&self.dep.sim));
                self.slice(k);
                self.tr.end(root, true, || snap(&self.dep.sim));
                t.elapsed().as_secs_f64() * 1e3 / cal.factor()
            })
            .collect()
    }

    /// `(commit latencies in simulated ms, writes still pending)` over the
    /// writes submitted from index `from` on.
    fn outcomes(&self, from: usize) -> (Vec<f64>, u64) {
        let mut commit_sim_ms = Vec::new();
        let mut pending = 0;
        for w in &self.writes[from..] {
            let outcome = self.dep.sim.node(w.client).as_client();
            match outcome.and_then(|c| c.outcome(w.id)) {
                Some(o) => commit_sim_ms
                    .push(o.committed_at.saturating_since(o.sent_at).as_micros() as f64 / 1e3),
                None => pending += 1,
            }
        }
        (commit_sim_ms, pending)
    }

    /// No-loss oracle: committed writes a client saw that have no
    /// serialization slot on the owning ring.
    fn lost(&self) -> u64 {
        let mut committed = vec![0u64; OBJECTS];
        for w in &self.writes {
            let outcome = self.dep.sim.node(w.client).as_client();
            if outcome.and_then(|c| c.outcome(w.id)).is_some() {
                committed[w.object] += 1;
            }
        }
        committed
            .iter()
            .zip(&self.guids)
            .map(|(&n, guid)| n.saturating_sub(ring_frontier(&self.dep, guid)))
            .sum()
    }
}

/// The simulated instant `us` microseconds after the warm-up.
fn at_us(us: u64) -> SimTime {
    SimTime::ZERO + WARM_UP + SimDuration::from_micros(us)
}

/// Highest serialization index for `object` on its ring's primaries.
fn ring_frontier(dep: &Deployment, object: &Guid) -> u64 {
    dep.ring_for(object)
        .primaries
        .iter()
        .filter_map(|&p| dep.sim.node(p).as_primary())
        .filter_map(|p| p.store.get(object).map(|st| st.next_index))
        .max()
        .unwrap_or(0)
}

/// What one pass over the arrival slices and the drain measured.
struct Pass {
    driver: Driver,
    wall_s: f64,
    cal_wall_s: f64,
    unit_ms: Vec<f64>,
    /// Slices run so far, drain included.
    slices_run: u64,
    commit_sim_ms: Vec<f64>,
    pending: u64,
    peak_rss_mb: f64,
}

/// Runs `slices` arrival slices, then drains, then collects outcomes.
fn pass(mut d: Driver, slices: u64, cal: &mut Calibrator) -> Pass {
    d.dep.sim.reset_stats();
    let run_start = Instant::now();
    let spin_start_s = cal.total_spin_s();
    let unit_ms = d.slices(0, slices, cal);
    d.stop_faults();
    let slices_run = slices + d.spec.drain_s * 1_000_000 / SLICE.as_micros();
    let drain_ms = d.slices(slices, slices_run, cal);
    let wall_s = run_start.elapsed().as_secs_f64() - (cal.total_spin_s() - spin_start_s);
    let cal_wall_s = unit_ms.iter().chain(&drain_ms).sum::<f64>() / 1e3;
    let peak_rss_mb = crate::stats::peak_rss_mib();
    let (commit_sim_ms, pending) = d.outcomes(0);
    Pass {
        driver: d,
        wall_s,
        cal_wall_s,
        unit_ms,
        slices_run,
        commit_sim_ms,
        pending,
        peak_rss_mb,
    }
}

/// The commit-path probe: this many simulated seconds with `PROBE_DROP`
/// on every link, then this many more of arrivals on clean links.
const PROBE_LOSS_S: u64 = 5;
const PROBE_AFTER_S: u64 = 10;
const PROBE_DROP: f64 = 0.05;

/// The loss window ISSUE 11 gave `lossy_open_loop`: every link — the
/// commit path too — drops 5 % of its messages for five simulated seconds
/// while arrivals continue, arrivals go on for ten more, then comes the
/// workload's drain. At this commit writes caught behind the window never
/// commit, and the harness runs only workloads on which no operation
/// fails, so the window is not part of the measured phase: it runs after
/// it, on the traced pass only, and its writes are not in `attempted` /
/// `failed`. What it leaves behind — writes pending, share retries, view
/// changes — shows in the per-layer counts collected afterwards. Adds its
/// host time to `p.wall_s`, which those counts are then set against, and
/// returns the commit latencies of its writes and how many are still
/// pending.
fn commit_path_probe(p: &mut Pass, cal: &mut Calibrator) -> (Vec<f64>, u64) {
    let probe_start = Instant::now();
    let spin_start_s = cal.total_spin_s();
    let per_s = 1_000_000 / SLICE.as_micros();
    let d = &mut p.driver;
    let first_write = d.writes.len();
    let from = p.slices_run;
    let clean = from + PROBE_LOSS_S * per_s;
    let drain = clean + PROBE_AFTER_S * per_s;
    let more = schedule(
        &mut d.rng,
        d.spec.rate,
        from * SLICE.as_micros(),
        drain - from,
    );
    d.arrivals.extend(more);
    d.dep.sim.set_drop_prob(PROBE_DROP);
    d.slices(from, clean, cal);
    d.dep.sim.set_drop_prob(0.0);
    p.slices_run = drain + d.spec.drain_s * per_s;
    d.slices(clean, p.slices_run, cal);
    p.wall_s += probe_start.elapsed().as_secs_f64() - (cal.total_spin_s() - spin_start_s);
    d.outcomes(first_write)
}

/// Sets the workload up (several times, reporting each), then measures
/// `args.units(spec.units)` arrival slices and the drain on the last
/// deployment built.
pub fn run(spec: Spec, args: &RunArgs) -> Outcome {
    let threads = threads_for(&spec);
    let slices = args.units(spec.units);
    let mut cal = Calibrator::default();
    let (mut d, setup_s) = crate::repeat_set_up(args.small, &mut cal, || {
        Driver::set_up(spec, args.seed, threads, slices)
    });
    d.tr = Tracer::new(args.trace);
    let mut p = pass(d, slices, &mut cal);

    let mut violations = std::mem::take(&mut p.driver.violations);
    let lost = p.driver.lost();
    if lost > 0 {
        violations.push(format!(
            "{lost} committed writes have no serialization slot"
        ));
    }
    if p.driver.lateness_us_max > 0 {
        violations.push(format!(
            "generator ran {} sim-us late",
            p.driver.lateness_us_max
        ));
    }

    let fleet_of = |d: &Driver| {
        let mut fleet = Fleet::default();
        for node in d.dep.sim.nodes() {
            fleet.add_replica(node);
        }
        fleet
    };
    let fleet = fleet_of(&p.driver);
    let stats = p.driver.dep.sim.stats().clone();
    let commits = p.commit_sim_ms.len() as u64;
    let attempted = p.driver.writes.len() as u64 + p.driver.reads;
    let mut out = Outcome {
        setup_s,
        wall_s: p.wall_s,
        cal_wall_s: p.cal_wall_s,
        unit_ms: std::mem::take(&mut p.unit_ms),
        calib_spin_ms: cal.median_spin_ms(),
        commit_sim_ms: p.commit_sim_ms.clone(),
        tail_q: spec.tail_q,
        attempted,
        failed: p.pending,
        missed: 0,
        violations,
        wire_bytes: stats.total_bytes(),
        stored_bytes: fleet.stored_bytes(),
        user_bytes: commits * MARKER_LEN as u64,
        peak_rss_mb: p.peak_rss_mb,
        // The bytes layers are off this path; their kernels replay on a
        // nominal 64 KiB object.
        shape: Shape {
            block_len: MARKER_LEN,
            blocks: 1,
            archive_len: 65_536,
            k: 16,
            n: 32,
        },
        traced: None,
    };
    if !args.trace {
        return out;
    }
    let tracer = std::mem::replace(&mut p.driver.tr, Tracer::new(false));

    // With faults, the traced pass ends with the commit-path loss window;
    // the counts below then cover the measured phase and the window.
    let (probe_commit_sim_ms, probe_pending) = if spec.faults {
        commit_path_probe(&mut p, &mut cal)
    } else {
        (Vec::new(), 0)
    };
    let probe_commits = probe_commit_sim_ms.len() as u64;
    let sim = &p.driver.dep.sim;
    let fleet = fleet_of(&p.driver);
    let stats = sim.stats().clone();
    let facts = RunFacts {
        wall_s: p.wall_s,
        sim_s: sim.now().saturating_since(at_us(0)).as_secs_f64(),
        commits: commits + probe_commits,
        pending: p.pending + probe_pending,
        events: sim.events_processed(),
        locates: 0,
        archives: 0,
    };
    let mut m = Metrics::default();
    layers::count_metrics(&mut m, &stats, &fleet, &facts);
    layers::coverage_metrics(&mut m, &sim.par_coverage());
    m.set("sim.pending_events_at_end", sim.pending_events() as f64);
    m.set(
        "core.failed_ops_ratio",
        ratio(
            facts.pending as f64,
            (attempted + probe_commits + probe_pending) as f64,
        ),
    );
    let all_commits = [p.commit_sim_ms.as_slice(), &probe_commit_sim_ms].concat();
    let tail = percentile(&all_commits, spec.tail_q);
    let meets = tail <= crate::LATENCY_LIMIT_MS && facts.pending == 0;
    m.set("consensus.meets_latency_limit", f64::from(u8::from(meets)));
    m.set("consensus.peak_log_len", p.driver.peak_log_len as f64);
    m.set(
        "replica.stale_read_ratio",
        ratio(p.driver.stale_reads as f64, p.driver.reads as f64),
    );
    m.set(
        "bench.gen_lateness_sim_us_max",
        p.driver.lateness_us_max as f64,
    );
    let ring = p.driver.dep.rings[0].primaries.len() as u64;
    let (signs, verifies) = layers::est_sig_ops(&stats, ring, ring);
    let estimates = Estimates {
        signs,
        verifies,
        puts_4k: fleet.blob_bytes as f64 / 4096.0,
        ..Estimates::default()
    };

    // Host cost of one idle simulated second on the deployment as the run
    // left it.
    let idle = Instant::now();
    p.driver.dep.sim.run_for(SimDuration::from_secs(1));
    m.set(
        "sim.idle_wall_ms_per_sim_s",
        idle.elapsed().as_secs_f64() * 1e3,
    );

    // On the windowed scheduler, the same slices again on one thread: the
    // simulated schedule must not change, only the wall time.
    if threads > 1 {
        let stale_reads = p.driver.stale_reads;
        drop(p.driver);
        let rerun = pass(Driver::set_up(spec, args.seed, 1, slices), slices, &mut cal);
        m.set("sim.par_speedup_t2", ratio(rerun.wall_s, p.wall_s));
        let rerun_stats = rerun.driver.dep.sim.stats();
        let same = rerun.commit_sim_ms == p.commit_sim_ms
            && rerun.pending == p.pending
            && rerun.driver.stale_reads == stale_reads
            && rerun_stats.total_bytes() == stats.total_bytes()
            && rerun_stats.total_messages() == stats.total_messages();
        if !same {
            out.violations
                .push("the threads = 1 rerun changed the simulated schedule".into());
        }
    }
    out.traced = Some(Traced {
        layers: m,
        estimates,
        counted_wall_s: p.wall_s,
        tracer,
    });
    out
}
