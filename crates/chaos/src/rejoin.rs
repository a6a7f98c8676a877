//! Consensus-level rejoin chaos: crash a tier replica, run thousands of
//! agreement slots while it is down, bring it back, and demand that it
//! catches up through the stable-checkpoint state-transfer path — while
//! every replica's retained consensus state stays bounded.
//!
//! This module drives a bare PBFT tier (no dissemination tree), because
//! the property under test lives entirely inside the agreement layer:
//! without checkpoints a rejoiner could only recover via tier
//! anti-entropy at the replica layer, and the consensus log would grow
//! without bound. The deployment-level fuzzer in [`crate::fuzz`] keeps
//! its outage windows short; here the outage is the point.

use oceanstore_consensus::harness::{build_tier_custom, run_updates_batched, TierSim};
use oceanstore_consensus::{CheckpointConfig, FaultMode, Opaque, PbftNode, Replica};
use oceanstore_crypto::schnorr::KeyPair;
use oceanstore_sim::{NodeId, SimDuration};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::invariants::InvariantReport;
use crate::runner::{stats_fingerprint, TraceEntry};
use crate::scenarios::ScenarioOutcome;

/// Knobs of one rejoin fuzzing run.
#[derive(Debug, Clone)]
pub struct RejoinFuzzOpts {
    /// Tier fault tolerance (`n = 3m + 1`).
    pub m: usize,
    /// Checkpoint interval (slots between `Checkpoint` votes).
    pub interval: u64,
    /// Admission window above the low-water mark.
    pub window: u64,
    /// Updates committed while the victim is down, drawn from this range.
    pub outage: std::ops::RangeInclusive<usize>,
}

impl Default for RejoinFuzzOpts {
    fn default() -> Self {
        RejoinFuzzOpts { m: 1, interval: 16, window: 32, outage: 256..=768 }
    }
}

/// Everything one rejoin fuzzing run produces.
#[derive(Debug, Clone)]
pub struct RejoinOutcome {
    /// The seed that reproduces this run.
    pub seed: u64,
    /// The replica that was crashed and rejoined.
    pub victim: NodeId,
    /// Whether the victim came back with its state wiped.
    pub wiped: bool,
    /// Updates committed while the victim was down.
    pub outage_updates: usize,
    /// Applied crash/recover events.
    pub trace: Vec<TraceEntry>,
    /// Network-counter fingerprint of the final traffic segment
    /// (determinism checks; the batched driver resets counters per call).
    pub fingerprint: String,
    /// Largest retained-slot count any replica ever showed a sampler.
    pub peak_log: u64,
    /// The oracle verdict.
    pub report: InvariantReport,
}

fn replica(ts: &TierSim, i: usize) -> &Replica {
    ts.sim.node(NodeId(i)).as_replica().expect("replica node")
}

/// One replica's sampled agreement-log length: the samples taken, those
/// over the retained-slot bound, and the largest length seen.
#[derive(Debug, Clone, Copy, Default)]
struct LogSamples {
    samples: u64,
    over: u64,
    peak: u64,
}

/// Samples every live replica's retained-slot count against `bound`.
fn sample(ts: &TierSim, bound: u64, logs: &mut [LogSamples]) {
    for (i, log) in logs.iter_mut().enumerate() {
        if !ts.sim.is_down(NodeId(i)) {
            let len = replica(ts, i).health().log_len;
            log.samples += 1;
            log.over += u64::from(len > bound);
            log.peak = log.peak.max(len);
        }
    }
}

/// The retained-slot bound the memory oracle enforces: the admission
/// window plus the slots that can execute before the next certificate
/// forms and truncates.
pub fn retained_bound(ckpt: &CheckpointConfig) -> u64 {
    ckpt.window + ckpt.interval
}

/// Post-rejoin oracles shared by the fuzzer and the canned scenario.
///
/// * the victim caught up to the live frontier, and did it through
///   consensus-level state transfer (at least one verified install);
/// * every replica pair agrees on the rolling state digest;
/// * no sampled replica ever exceeded the retained-slot bound.
fn check_rejoin(
    ts: &TierSim,
    n: usize,
    victim: NodeId,
    logs: &[LogSamples],
    bound: u64,
) -> InvariantReport {
    let mut report = InvariantReport::default();
    let frontier = (0..n).map(|i| replica(ts, i).next_exec()).max().unwrap_or(0);
    let v = replica(ts, victim.0);
    if v.next_exec() != frontier {
        report.failures.push(format!(
            "rejoin: victim {victim:?} stuck at slot {}/{frontier}",
            v.next_exec()
        ));
    }
    if v.health().state_installs == 0 {
        report.failures.push(format!(
            "rejoin: victim {victim:?} caught up without state transfer (installs = 0)"
        ));
    }
    for i in 0..n {
        let r = replica(ts, i);
        if r.next_exec() == frontier && r.state_digest() != replica(ts, victim.0).state_digest() {
            report
                .failures
                .push(format!("rejoin: replica {i} state digest diverges from the victim's"));
        }
    }
    for (i, log) in logs.iter().enumerate() {
        if log.samples == 0 || log.over > 0 {
            report.failures.push(format!(
                "memory: replica {i} exceeded {bound} retained slots in {}/{} samples (peak {})",
                log.over, log.samples, log.peak
            ));
        }
    }
    report
}

/// Runs one seeded rejoin fuzz iteration. The victim (never the view-0
/// leader — view catch-up is a different protocol path), the crash point,
/// the outage length, and wiped-versus-intact recovery are all drawn from
/// the seed; the same seed reproduces the same run bit for bit.
pub fn run_rejoin_fuzz(seed: u64, opts: &RejoinFuzzOpts) -> RejoinOutcome {
    let ckpt = CheckpointConfig { interval: opts.interval, window: opts.window };
    let bound = retained_bound(&ckpt);
    let n = 3 * opts.m + 1;
    let mut ts = build_tier_custom(opts.m, SimDuration::from_millis(20), seed, &[], ckpt);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7E30_1A5E_D0DD_BA11);
    let victim = NodeId(rng.gen_range(1..n));
    let wiped = rng.gen_bool(0.5);
    let warmup = rng.gen_range(opts.interval..3 * opts.interval) as usize;
    let outage_updates = rng.gen_range(opts.outage.clone());
    let mut logs = vec![LogSamples::default(); n];
    let mut trace = Vec::new();

    run_updates_batched(&mut ts, 64, warmup, 8);
    sample(&ts, bound, &mut logs);
    trace.push(TraceEntry {
        at_micros: ts.sim.now().as_micros(),
        description: format!("Crash({victim:?}) after {warmup} updates"),
    });
    ts.sim.crash_node(victim);

    // The outage, in sampled batches: memory must stay bounded on every
    // live replica the whole way down.
    let mut left = outage_updates;
    while left > 0 {
        let chunk = left.min(128);
        run_updates_batched(&mut ts, 64, chunk, 8);
        sample(&ts, bound, &mut logs);
        left -= chunk;
    }

    trace.push(TraceEntry {
        at_micros: ts.sim.now().as_micros(),
        description: format!("Recover({victim:?}) wiped={wiped} after {outage_updates} updates"),
    });
    if wiped {
        let key = KeyPair::from_seed(format!("tier-{seed}-replica-{}", victim.0).as_bytes());
        let fresh = Replica::new(ts.cfg.clone(), victim.0, key, FaultMode::Honest, Opaque);
        ts.sim.recover_node_wiped(victim, PbftNode::Replica(fresh));
    } else {
        ts.sim.recover_node(victim);
    }

    // Post-rejoin traffic: the victim holds requests it cannot order, so
    // its view alarm fires and its view-change vote, carrying its
    // `last_exec`, draws state from every peer ahead of it; the live
    // tail then executes as usual.
    run_updates_batched(&mut ts, 64, 3 * opts.interval as usize, 8);
    run_updates_batched(&mut ts, 64, 8, 1);
    sample(&ts, bound, &mut logs);

    let report = check_rejoin(&ts, n, victim, &logs, bound);
    let peak_log = logs.iter().map(|log| log.peak).max().unwrap_or(0);
    RejoinOutcome {
        seed,
        victim,
        wiped,
        outage_updates,
        trace,
        fingerprint: stats_fingerprint(&ts.sim),
        peak_log,
        report,
    }
}

/// The canned long-horizon scenario: replica 3 goes dark, the tier
/// commits five thousand more slots, and the straggler must rejoin,
/// catch up via state transfer, and agree — with every replica's
/// retained consensus state bounded by `window + interval` throughout.
pub fn late_rejoin(seed: u64) -> ScenarioOutcome {
    let ckpt = CheckpointConfig { interval: 32, window: 64 };
    let bound = retained_bound(&ckpt);
    let n = 4;
    let victim = NodeId(3);
    let mut ts = build_tier_custom(1, SimDuration::from_millis(20), seed, &[], ckpt);
    let mut logs = vec![LogSamples::default(); n];
    let mut trace = Vec::new();

    run_updates_batched(&mut ts, 64, 64, 8);
    sample(&ts, bound, &mut logs);
    trace.push(TraceEntry {
        at_micros: ts.sim.now().as_micros(),
        description: format!("Crash({victim:?})"),
    });
    ts.sim.crash_node(victim);
    // 5,120 slots while the victim is down — 40× its admission window.
    for _ in 0..10 {
        run_updates_batched(&mut ts, 64, 512, 8);
        sample(&ts, bound, &mut logs);
    }
    trace.push(TraceEntry {
        at_micros: ts.sim.now().as_micros(),
        description: format!("Recover({victim:?})"),
    });
    ts.sim.recover_node(victim);
    run_updates_batched(&mut ts, 64, 96, 8);
    run_updates_batched(&mut ts, 64, 8, 1);
    sample(&ts, bound, &mut logs);

    let mut report = check_rejoin(&ts, n, victim, &logs, bound);
    // The whole point of the horizon: the frontier is thousands of slots
    // past anything an unbounded log could have been truncated to by
    // accident, yet the peak retained log stayed at the bound.
    let frontier = replica(&ts, 0).next_exec();
    if frontier < 5_000 {
        report.failures.push(format!("horizon: only {frontier} slots committed"));
    }
    ScenarioOutcome { trace, fingerprint: stats_fingerprint(&ts.sim), report }
}
