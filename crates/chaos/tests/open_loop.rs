//! Open-loop load over `Deployment::submit`: arrivals come on a schedule
//! drawn up front and are injected whether or not earlier writes have
//! committed, so a saturated tier shows as committed < offered instead of
//! a slowed generator. Everything is simulated time from a seed, so the
//! committed counts below are exact.
//!
//! Oracles: no committed write is lost (per object, committed outcomes
//! never exceed the owning ring's frontier), every write is committed or
//! still pending, the replica record log stays inside its retention
//! window and so does each secondary's memory of rumors, a run is
//! identical at every simulator thread count, a fault-free loaded ring
//! never leaves view 0, and a loss burst on the commit path leaves no
//! write pending and every primary at one frontier.

use oceanstore_chaos::invariants::check_frontiers_agree;
use oceanstore_naming::guid::Guid;
use oceanstore_replica::{
    build_deployment, Deployment, DeploymentOpts, StoreHealth, RECORD_RETENTION,
};
use oceanstore_sim::{ParCoverage, SimDuration, SimTime};
use oceanstore_update::update::Action;
use oceanstore_update::Update;
use oceanstore_workload::zipf::Zipf;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One open-loop run: the deployment, the offered load and its window.
#[derive(Clone)]
struct Load {
    rings: usize,
    secondaries: usize,
    clients: usize,
    objects: usize,
    zipf_s: f64,
    write_fraction: f64,
    /// Arrivals per simulated second.
    rate: f64,
    /// Arrivals fall in `[0, duration)`.
    duration: SimDuration,
    /// Settle time after the window. Finite on purpose: a saturated tier
    /// does not get to drain its backlog.
    drain: SimDuration,
    seed: u64,
    threads: usize,
    /// A random-drop burst: `(start, end, probability)`.
    burst: Option<(SimDuration, SimDuration, f64)>,
}

impl Default for Load {
    fn default() -> Self {
        Load {
            rings: 1,
            secondaries: 16,
            clients: 2,
            objects: 32,
            zipf_s: 0.9,
            write_fraction: 0.8,
            rate: 20.0,
            duration: SimDuration::from_secs(10),
            drain: SimDuration::from_secs(4),
            seed: 1,
            threads: 1,
            burst: None,
        }
    }
}

enum Op {
    Write { object: usize },
    Read { object: usize, secondary: usize },
}

/// Poisson arrivals at `load.rate`, each on a Zipf-popular object and a
/// write with probability `write_fraction`, else a read of a random
/// secondary. Per arrival the draws are: the exponential gap, the object,
/// the read/write coin (drawn even when every arrival is a write), then
/// for a read the secondary.
fn poisson(load: &Load) -> Vec<(SimTime, Op)> {
    let zipf = Zipf::new(load.objects, load.zipf_s);
    let mut rng = ChaCha8Rng::seed_from_u64(load.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let horizon = load.duration.as_micros() as f64 / 1e6;
    let mut schedule = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / load.rate;
        if t >= horizon {
            return schedule;
        }
        let object = zipf.sample(&mut rng);
        let op = if rng.gen_range(0.0..1.0) < load.write_fraction {
            Op::Write { object }
        } else {
            Op::Read { object, secondary: rng.gen_range(0..load.secondaries) }
        };
        schedule.push((SimTime::ZERO + SimDuration::from_micros((t * 1e6) as u64), op));
    }
}

fn object_guid(i: usize) -> Guid {
    Guid::from_label(&format!("wl-obj-{i}"))
}

/// What a run observed. Everything here is simulated-time state, so it is
/// equal at every thread count.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per write, in submission order: commit latency in µs, or `None`
    /// if it had no outcome when the drain ended.
    writes: Vec<Option<u64>>,
    /// Requests the clients still wait on, from their own books.
    pending: u64,
    /// Committed outcomes no serialization slot on the owning ring backs.
    lost: u64,
    reads: u64,
    /// Reads whose secondary held fewer records than the ring's frontier.
    stale_reads: u64,
    /// Every live store's health, primaries first.
    stores: Vec<StoreHealth>,
}

impl Observed {
    fn offered(&self) -> u64 {
        self.writes.len() as u64
    }

    fn committed(&self) -> u64 {
        self.writes.iter().flatten().count() as u64
    }
}

/// Injects `schedule` into a fresh deployment (writes round-robin over
/// the clients, each an 8-byte little-endian marker appended), drains,
/// and collects the outcomes.
fn run(load: &Load, schedule: Vec<(SimTime, Op)>) -> (Deployment, Observed) {
    let mut dep = build_deployment(&DeploymentOpts {
        rings: load.rings,
        secondaries: load.secondaries,
        clients: load.clients,
        seed: load.seed,
        ..DeploymentOpts::default()
    });
    dep.sim.set_threads(load.threads);
    // The burst toggles at exact instants, not at the nearest arrival, so
    // its window is the same at every thread count.
    let mut toggles = load
        .burst
        .map_or_else(Vec::new, |(start, end, p)| {
            vec![(SimTime::ZERO + start, p), (SimTime::ZERO + end, 0.0)]
        })
        .into_iter()
        .peekable();
    let mut advance = |dep: &mut Deployment, to: SimTime| {
        while let Some((at, p)) = toggles.next_if(|&(at, _)| at <= to) {
            dep.sim.run_until(at);
            dep.sim.set_drop_prob(p);
        }
        dep.sim.run_until(to);
    };
    let mut submitted = Vec::new();
    let (mut reads, mut stale_reads) = (0, 0);
    for (at, op) in schedule {
        advance(&mut dep, at);
        match op {
            Op::Write { object } => {
                let client = dep.clients[submitted.len() % dep.clients.len()];
                let marker = (submitted.len() as u64).to_le_bytes().to_vec();
                let update = Update::unconditional(vec![Action::Append { ciphertext: marker }]);
                submitted.push((dep.submit(client, object_guid(object), &update), object));
            }
            Op::Read { object, secondary } => {
                let guid = object_guid(object);
                let store = &dep.secondary(dep.secondaries[secondary]).store;
                let have = store.get(&guid).map_or(0, |st| st.next_index);
                reads += 1;
                stale_reads += u64::from(have < dep.frontier(&guid));
            }
        }
    }
    advance(&mut dep, SimTime::ZERO + load.duration + load.drain);

    let mut per_object = vec![0u64; load.objects];
    let writes = submitted
        .iter()
        .map(|&(id, object)| {
            let o = dep.outcome(id)?;
            per_object[object] += 1;
            Some(o.committed_at.saturating_since(o.sent_at).as_micros())
        })
        .collect();
    let pending = dep.clients.iter().map(|&c| dep.client(c).pending_count() as u64).sum();
    let lost = (0..load.objects)
        .map(|i| per_object[i].saturating_sub(dep.frontier(&object_guid(i))))
        .sum();
    let stores = dep.store_health().map(|(_, h)| h).collect();
    (dep, Observed { writes, pending, lost, reads, stale_reads, stores })
}

/// 6000 writes/s is far past one ring's service rate, so what commits
/// inside the bounded drain is what the ring count can serve; 4 and 16
/// rings both absorb the whole offer. The window is kept to 250 ms: a
/// debug build spends seconds per thousand commits.
#[test]
fn saturated_shard_sweep_scales_with_rings() {
    let sweep = |rings| {
        let load = Load {
            rings,
            secondaries: 8,
            clients: 4,
            objects: 64,
            write_fraction: 1.0,
            rate: 6000.0,
            duration: SimDuration::from_millis(250),
            drain: SimDuration::from_millis(500),
            seed: 7,
            ..Load::default()
        };
        let (_, seen) = run(&load, poisson(&load));
        assert_eq!(seen.lost, 0, "rings={rings}: committed updates lost");
        assert_eq!(
            seen.committed() + seen.pending,
            seen.offered(),
            "rings={rings}: outcomes unaccounted"
        );
        (seen.offered(), seen.committed())
    };
    let ((o1, r1), (o4, r4), (o16, r16)) = (sweep(1), sweep(4), sweep(16));
    assert_eq!((o1, o4, o16), (1493, 1493, 1493), "the schedule moved");
    // One ring saturates: the backlog is visible as pending writes, and
    // none of them is lost.
    assert!(r1 < o1, "an open-loop overload must saturate one ring");
    assert!(r1 < r4 && r4 <= r16, "no scaling: rings 1/4/16 committed {r1}/{r4}/{r16}");
    assert_eq!((r1, r4, r16), (1024, 1493, 1493), "pinned committed counts moved");
}

/// Two objects hammered with writes long enough that each certifies
/// several retention windows' worth of commits: the record log must
/// truncate while committed data stays lossless, and a secondary forgets
/// the rumors of what it truncated. The one open-loop test of the replica
/// store's retention window.
#[test]
fn long_horizon_record_log_stays_bounded() {
    let load = Load {
        secondaries: 8,
        objects: 2,
        zipf_s: 0.0,
        write_fraction: 1.0,
        rate: 40.0,
        duration: SimDuration::from_secs(20),
        ..Load::default()
    };
    let (dep, seen) = run(&load, poisson(&load));
    assert!(seen.offered() > 600, "20 s at 40/s must offer real load");
    assert_eq!(seen.lost, 0, "truncation must never lose committed updates");
    let applied: u64 = seen.stores.iter().map(|h| h.total_records_applied).sum();
    let dropped: u64 = seen.stores.iter().map(|h| h.records_dropped).sum();
    let peak = seen.stores.iter().map(|h| h.peak_retained_records).max().unwrap_or(0);
    assert!(
        applied > seen.offered() * 4,
        "every commit lands on 4 primaries and 8 secondaries; the fleet total \
         must dwarf the offered count"
    );
    assert!(dropped > 0, "a long run must actually truncate");
    // The retention window plus the uncertified in-flight tail, per object.
    assert!(
        peak <= load.objects as u64 * (RECORD_RETENTION + 64),
        "replica memory unbounded: peak {peak} retained records"
    );
    assert!(seen.stores.iter().all(|h| h.fallback_reads == 0), "healthy backend serves all blocks");
    // A rumor is remembered while its record is retained, or while it is
    // still in flight: tentative, its record not applied here yet.
    for &s in &dep.secondaries {
        let secondary = dep.secondary(s);
        let held: usize = (0..load.objects)
            .map(object_guid)
            .map(|g| {
                let retained = secondary.store.get(&g).map_or(0, |st| st.retained_records());
                retained as usize + secondary.tentative_count(&g)
            })
            .sum();
        assert!(
            secondary.rumors_seen() <= held,
            "secondary {s:?} remembers {} rumors, holds {held} records and tentatives",
            secondary.rumors_seen()
        );
    }
}

/// A run with a mid-run 10 % drop burst is identical at 1, 2 and 8
/// simulator threads (drop verdicts are counter-mode hashes of each
/// routing attempt), and the burst does not knock the scheduler off its
/// parallel path.
#[test]
fn drop_burst_run_is_identical_at_any_thread_count() {
    let load = |threads| Load {
        secondaries: 8,
        objects: 8,
        rate: 10.0,
        duration: SimDuration::from_secs(5),
        drain: SimDuration::from_secs(3),
        threads,
        burst: Some((SimDuration::from_secs(1), SimDuration::from_secs(3), 0.1)),
        ..Load::default()
    };
    let (dep, sequential) = run(&load(1), poisson(&load(1)));
    assert_eq!(dep.sim.par_coverage(), ParCoverage::default(), "threads=1 must never shard");
    assert!(sequential.offered() > 20 && sequential.reads > 5, "5 s at 10/s must offer real load");
    assert_eq!(sequential.lost, 0, "the burst must not lose committed updates");
    for threads in [2, 8] {
        let (dep, parallel) = run(&load(threads), poisson(&load(threads)));
        assert_eq!(parallel, sequential, "threads={threads} changed the run");
        let cov = dep.sim.par_coverage();
        assert!(
            cov.windows_parallel + cov.windows_inline > 0,
            "threads={threads}: no parallel windows scheduled"
        );
        assert_eq!(cov.fallback_entries, 0, "threads={threads}: the burst forced a fallback");
    }
}

/// A loaded ring with no fault never needs a new leader: one 8-byte
/// append every 10 ms, round-robin over 8 objects, for 4 s, then a 10 s
/// drain. Every write commits, and no primary votes a view change.
#[test]
fn fault_free_loaded_ring_stays_in_view_zero() {
    let load = Load {
        secondaries: 8,
        objects: 8,
        duration: SimDuration::from_secs(4),
        drain: SimDuration::from_secs(10),
        seed: 3,
        ..Load::default()
    };
    let schedule = (0..400u64)
        .map(|i| {
            let at = SimTime::ZERO + SimDuration::from_millis(10 * i);
            (at, Op::Write { object: i as usize % 8 })
        })
        .collect();
    let (dep, seen) = run(&load, schedule);
    assert_eq!(seen.committed(), 400, "every write commits");
    for &p in dep.primaries() {
        let pbft = dep.primary(p).pbft();
        assert_eq!(
            (pbft.view(), pbft.view_changes_sent()),
            (0, 0),
            "primary {p:?} left view 0 on a fault-free ring"
        );
    }
}

/// 5 % loss on every link for 5 simulated seconds, in the middle of an
/// open loop of one ring and 16 secondaries at 20 arrivals/s (4 in 5 of
/// them writes) for 15 s: once the loss clears and 30 s of drain pass,
/// no client still waits on a write. Each write is committed or aborted,
/// and every primary has executed up to the same slot and holds the same
/// stable checkpoint (`check_frontiers_agree`): a zero pending count
/// alone is the weaker oracle, since a laggard primary can hold back the
/// tier while the client already has its `m + 1` replies.
///
/// It guards catch-up from protocol state. A backup that loses a
/// client's `Request` to the drop still prepares and commits the slot,
/// but cannot execute it without the bytes, and the client, answered by
/// `m + 1` others, stops retransmitting. The stuck backup's view-change
/// vote carries its `last_exec`; a peer ahead of it answers with state,
/// which ships the payload with its commit proof. Two stuck backups
/// would otherwise leave the next checkpoint a vote short and fill the
/// 128-slot window for good.
#[test]
fn commit_path_loss_leaves_no_write_pending() {
    let stranded: Vec<_> = [1, 2, 3, 11]
        .into_iter()
        .filter_map(|seed| {
            let load = Load {
                duration: SimDuration::from_secs(15),
                drain: SimDuration::from_secs(30),
                seed,
                burst: Some((SimDuration::from_secs(5), SimDuration::from_secs(10), 0.05)),
                ..Load::default()
            };
            let (dep, seen) = run(&load, poisson(&load));
            assert_eq!(seen.lost, 0, "seed {seed}: committed updates lost");
            let frontiers = check_frontiers_agree(&dep);
            (seen.pending > 0 || !frontiers.passed()).then(|| {
                format!(
                    "seed {seed}: {} of {} writes pending, {} committed; {:?}",
                    seen.pending,
                    seen.offered(),
                    seen.committed(),
                    frontiers.failures
                )
            })
        })
        .collect();
    assert!(
        stranded.is_empty(),
        "writes stranded, or primaries apart, after the loss cleared:\n{}",
        stranded.join("\n")
    );
}
