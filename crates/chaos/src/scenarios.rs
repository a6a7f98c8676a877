//! Canned chaos scenarios.
//!
//! Each scenario builds a deployment, replays a fault schedule against it
//! with update traffic in flight, and returns the event trace, a stats
//! fingerprint (for determinism checks), and the invariant verdict. The
//! same seed always yields the same outcome.

use std::sync::Arc;

use oceanstore_naming::guid::Guid;
use oceanstore_plaxton::build::{build_network, find_root};
use oceanstore_plaxton::protocol::{PlaxtonConfig, PlaxtonNode};
use oceanstore_replica::{build_deployment, disseminator_for, Deployment, DeploymentOpts};
use oceanstore_sim::{DropCause, NodeId, SimDuration, SimTime, Simulator, Topology};
use oceanstore_update::update::Action;
use oceanstore_update::Update;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::invariants::{
    check_clients_settled, check_convergence, check_every_commit_certifies,
    check_frontier_stalled, check_no_committed_loss, check_no_uncertified_records,
    check_store_memory, InvariantReport,
};
use crate::runner::{run_schedule, stats_fingerprint, ScheduleCursor, TraceEntry};
use crate::schedule::{FaultAction, Schedule};

/// Everything a chaos scenario produces.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Replayable trace of the fault events actually applied.
    pub trace: Vec<TraceEntry>,
    /// Stable fingerprint of the network counters at the end of the run.
    pub fingerprint: String,
    /// The invariant verdict.
    pub report: InvariantReport,
}

pub(crate) fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// The traffic every scenario and fuzz schedule submits: one
/// unconditional append of `payload`.
pub fn append(payload: &[u8]) -> Update {
    Update::unconditional(vec![Action::Append { ciphertext: payload.to_vec() }])
}

/// Crashes an interior dissemination-tree node (secondary 1, which feeds
/// secondaries 3 and 4) while a committed-update stream is in flight.
///
/// The orphaned subtree must re-attach (to the grandparent, a sibling, or
/// the primary ring) and converge, and each orphan must have re-parented
/// off the dead node. The epidemic anti-entropy period is stretched far
/// past the run horizon so the dissemination tree is the only timely
/// repair path.
pub fn interior_crash(seed: u64) -> ScenarioOutcome {
    let mut dep = build_deployment(&DeploymentOpts {
        m: 1,
        secondaries: 6,
        clients: 1,
        latency: SimDuration::from_millis(20),
        anti_entropy: Some(SimDuration::from_secs(60)),
        seed,
        ..DeploymentOpts::default()
    });
    let object = Guid::from_label("chaos-interior");
    let victim = dep.secondaries[1];
    let orphans = [dep.secondaries[3], dep.secondaries[4]];

    // First update flows through the intact tree.
    dep.submit(dep.clients[0], object, &append(b"before-crash"));
    let mut trace = run_schedule(&mut dep.sim, &Schedule::new(), t(3_000));
    // Second update enters the pipeline; the interior node dies while the
    // commit stream is mid-flight.
    dep.submit(dep.clients[0], object, &append(b"mid-stream"));
    let sched = Schedule::new().at(t(3_050), FaultAction::Crash(victim));
    trace.extend(run_schedule(&mut dep.sim, &sched, t(10_000)));
    // Third update exercises the (re-wired) tree end to end.
    dep.submit(dep.clients[0], object, &append(b"after-rewire"));
    trace.extend(run_schedule(&mut dep.sim, &Schedule::new(), t(14_000)));

    let mut report = check_convergence(&dep, &[object])
        .merge(check_no_committed_loss(&dep, &object, 3))
        .merge(check_clients_settled(&dep));
    for &o in &orphans {
        let sec = dep.secondary(o);
        if sec.reparent_count() == 0 {
            report.failures.push(format!("orphan {o:?} never re-parented"));
        }
        if sec.parent() == Some(victim) {
            report.failures.push(format!("orphan {o:?} still attached to dead {victim:?}"));
        }
    }
    ScenarioOutcome { trace, fingerprint: stats_fingerprint(&dep.sim), report }
}

/// Partitions a whole subtree (secondary 2 and its child secondary 5)
/// away from the rest of the network, commits an update on the majority
/// side, then heals. The islanded subtree must catch up afterwards.
pub fn partition_and_heal(seed: u64) -> ScenarioOutcome {
    let mut dep = build_deployment(&DeploymentOpts {
        latency: SimDuration::from_millis(20),
        seed,
        ..DeploymentOpts::default()
    });
    let object = Guid::from_label("chaos-partition");
    let total = dep.sim.len();
    let mut groups = vec![0u32; total];
    groups[dep.secondaries[2].0] = 1;
    groups[dep.secondaries[5].0] = 1;

    dep.submit(dep.clients[0], object, &append(b"pre-partition"));
    let sched = Schedule::new()
        .at(t(2_000), FaultAction::Partition(groups))
        .at(t(6_000), FaultAction::Heal);
    let mut trace = run_schedule(&mut dep.sim, &sched, t(2_500));
    // Committed while the island is unreachable.
    dep.submit(dep.clients[0], object, &append(b"during-partition"));
    trace.extend(run_schedule(&mut dep.sim, &sched, t(14_000)));

    let report = check_convergence(&dep, &[object])
        .merge(check_no_committed_loss(&dep, &object, 2))
        .merge(check_clients_settled(&dep));
    ScenarioOutcome { trace, fingerprint: stats_fingerprint(&dep.sim), report }
}

/// A lossy, slow network burst: 15% random drop plus doubled latency
/// while two updates are in flight, then conditions normalize. Client
/// retransmission (with backoff), agreement retransmissions, and pull
/// repair must still deliver everything everywhere.
pub fn drop_burst(seed: u64) -> ScenarioOutcome {
    let mut dep = build_deployment(&DeploymentOpts {
        latency: SimDuration::from_millis(20),
        seed,
        ..DeploymentOpts::default()
    });
    let object = Guid::from_label("chaos-drops");
    let sched = Schedule::new()
        .at(t(1_000), FaultAction::DropProb(0.15))
        .at(t(1_000), FaultAction::LatencyFactor(2.0))
        .at(t(6_000), FaultAction::DropProb(0.0))
        .at(t(6_000), FaultAction::LatencyFactor(1.0));
    let mut trace = run_schedule(&mut dep.sim, &sched, t(1_500));
    dep.submit(dep.clients[0], object, &append(b"through-the-storm"));
    trace.extend(run_schedule(&mut dep.sim, &sched, t(3_000)));
    dep.submit(dep.clients[0], object, &append(b"still-storming"));
    trace.extend(run_schedule(&mut dep.sim, &sched, t(20_000)));

    let report = check_convergence(&dep, &[object])
        .merge(check_no_committed_loss(&dep, &object, 2))
        .merge(check_clients_settled(&dep));
    ScenarioOutcome { trace, fingerprint: stats_fingerprint(&dep.sim), report }
}

/// Both dissemination faults at once, under steady traffic: for two
/// seconds every tier→root and tree edge drops 5% of its messages while
/// interior secondary 1 is down, so its subtree re-parents over lossy
/// links. A write lands every 50 ms, round-robin over 32 objects on two
/// rings. Drop verdicts go by position on a link, so any send order that
/// is not a function of the seed shows up in the counters.
pub fn lossy_tree_interior_down(seed: u64) -> ScenarioOutcome {
    let mut dep = build_deployment(&DeploymentOpts {
        rings: 2,
        secondaries: 48,
        seed,
        ..DeploymentOpts::default()
    });
    let objects: Vec<Guid> =
        (0..32).map(|i| Guid::from_label(&format!("chaos-lossy-tree-{i}"))).collect();
    let victim = dep.secondaries[1];
    let root = dep.secondaries[0];
    let tree_edges = (1..dep.secondaries.len())
        .map(|j| (dep.secondaries[(j - 1) / 2], dep.secondaries[j]));
    let links: Vec<(NodeId, NodeId)> =
        dep.all_primaries().map(|p| (p, root)).chain(tree_edges).collect();
    let sched = links.iter().fold(
        Schedule::new()
            .at(t(3_000), FaultAction::Crash(victim))
            .at(t(5_000), FaultAction::Recover(victim)),
        |s, &(a, b)| {
            s.at(t(3_000), FaultAction::LinkDrop(a, b, 0.05))
                .at(t(5_000), FaultAction::LinkDrop(a, b, 0.0))
        },
    );
    let mut cursor = ScheduleCursor::new(sched);
    let mut trace = Vec::new();

    for n in 0..200u64 {
        trace.extend(cursor.run_to(&mut dep.sim, t(1_000 + 50 * n)));
        let object = objects[n as usize % objects.len()];
        dep.submit(dep.clients[0], object, &append(&n.to_le_bytes()));
    }
    trace.extend(cursor.run_to(&mut dep.sim, t(20_000)));

    let report = check_convergence(&dep, &objects).merge(check_clients_settled(&dep));
    ScenarioOutcome { trace, fingerprint: stats_fingerprint(&dep.sim), report }
}

/// Crashes the agreement leader (primary 0) before any traffic: the tier
/// must view-change to a new leader, the tree root (whose parent was the
/// dead leader) must re-attach to a live primary, and all updates must
/// commit and disseminate.
pub fn leader_crash_view_change(seed: u64) -> ScenarioOutcome {
    let mut dep = build_deployment(&DeploymentOpts {
        latency: SimDuration::from_millis(20),
        seed,
        ..DeploymentOpts::default()
    });
    // Deliberately pick an object whose disseminator rotation maps record
    // 0 onto the crashed leader: share failover must re-route the
    // certificate assembly past the dead member. (An earlier version of
    // this scenario dodged member 0 for every record, which masked the
    // single-disseminator liveness hole this now exercises.)
    let n = dep.primaries().len();
    let object = (0..)
        .map(|k| Guid::from_label(&format!("chaos-view-{k}")))
        .find(|g| disseminator_for(n, g, 0, 0) == 0)
        .expect("some label lands on member 0");
    let leader = dep.primaries()[0];
    let root = dep.secondaries[0];

    let sched = Schedule::new().at(t(500), FaultAction::Crash(leader));
    let mut trace = run_schedule(&mut dep.sim, &sched, t(1_000));
    for (at, payload) in [(4_000, b"first".as_slice()), (7_000, b"second"), (10_000, b"third")] {
        dep.submit(dep.clients[0], object, &append(payload));
        trace.extend(run_schedule(&mut dep.sim, &Schedule::new(), t(at)));
    }
    trace.extend(run_schedule(&mut dep.sim, &Schedule::new(), t(20_000)));

    let mut report = check_convergence(&dep, &[object])
        .merge(check_no_committed_loss(&dep, &object, 3))
        .merge(check_clients_settled(&dep));
    let sec = dep.secondary(root);
    if sec.parent() == Some(leader) {
        report.failures.push(format!("tree root {root:?} still parented to dead leader"));
    }
    ScenarioOutcome { trace, fingerprint: stats_fingerprint(&dep.sim), report }
}

/// Crashes the one primary whose rotation slot makes it the disseminator
/// of the next record, then submits an update.
///
/// The signature shares for record 0 all target the dead member; every
/// signer's retry deadline re-routes its share to the next rotation
/// slot, the certificate assembles on a live member, and the record
/// reaches the tree. The report also fails unless live signers — and
/// only they — re-routed shares.
pub fn disseminator_crash(seed: u64) -> ScenarioOutcome {
    let mut dep = build_deployment(&DeploymentOpts {
        latency: SimDuration::from_millis(20),
        seed,
        ..DeploymentOpts::default()
    });
    let n = dep.primaries().len();
    // Record 0's disseminator must not be member 0: crashing the PBFT
    // leader would entangle this scenario with view changes, which
    // `leader_crash_view_change` covers.
    let object = (0..)
        .map(|k| Guid::from_label(&format!("chaos-dissem-{k}")))
        .find(|g| disseminator_for(n, g, 0, 0) != 0)
        .expect("some label dodges member 0");
    let victim_idx = disseminator_for(n, &object, 0, 0);
    let victim = dep.primaries()[victim_idx];

    let sched = Schedule::new().at(t(500), FaultAction::Crash(victim));
    let mut trace = run_schedule(&mut dep.sim, &sched, t(1_000));
    dep.submit(dep.clients[0], object, &append(b"orphaned-shares"));
    trace.extend(run_schedule(&mut dep.sim, &Schedule::new(), t(15_000)));

    let mut report = check_convergence(&dep, &[object])
        .merge(check_no_committed_loss(&dep, &object, 1))
        .merge(check_clients_settled(&dep))
        .merge(check_every_commit_certifies(&dep, &[object]));
    // The failover path must actually have engaged, and only live
    // signers can have engaged it.
    let stats = dep.sim.stats();
    if stats.class("replica/sharerebroadcast").messages == 0 {
        report.failures.push("no share was ever re-routed".into());
    }
    if stats.class_sent_by(victim, "replica/sharerebroadcast").messages > 0 {
        report.failures.push(format!("crashed disseminator {victim:?} sent retries"));
    }
    let live_retries: u64 = dep
        .primaries()
        .iter()
        .filter(|&&p| p != victim)
        .map(|&p| stats.class_sent_by(p, "replica/sharerebroadcast").messages)
        .sum();
    if live_retries == 0 {
        report.failures.push("no live signer re-routed its share".into());
    }
    ScenarioOutcome { trace, fingerprint: stats_fingerprint(&dep.sim), report }
}

/// Islands `m + 1` primaries behind a partition, leaving *neither* side
/// with a `2m + 1` agreement quorum, while an update is submitted into
/// the cut.
///
/// During the cut the tier must freeze: the committed frontier cannot
/// advance (no quorum anywhere), and the view cannot change either — a
/// view change needs the same quorum — so the majority side's
/// view-change votes pile up without effect. After the heal the
/// accumulated votes complete, a new leader re-proposes the stranded
/// request, and everything commits, certifies, and disseminates.
pub fn quorum_loss(seed: u64) -> ScenarioOutcome {
    let mut dep = build_deployment(&DeploymentOpts {
        latency: SimDuration::from_millis(20),
        seed,
        ..DeploymentOpts::default()
    });
    let object = Guid::from_label("chaos-quorum-loss");
    let total = dep.sim.len();
    let islanded: Vec<NodeId> = dep.primaries()[..dep.cfg().m + 1].to_vec();

    // One update commits on the intact tier.
    dep.submit(dep.clients[0], object, &append(b"pre-cut"));
    let mut cursor =
        ScheduleCursor::new(Schedule::new().island(total, &islanded, t(3_050), t(9_000)));
    let mut trace = cursor.run_to(&mut dep.sim, t(3_500));
    // This one lands inside the cut: only 2m primaries hear it.
    dep.submit(dep.clients[0], object, &append(b"into-the-cut"));
    trace.extend(cursor.run_to(&mut dep.sim, t(4_000)));
    let frontier_before = dep.frontier(&object);
    let tier_state = |dep: &Deployment| {
        let mut views = Vec::new();
        let mut vc_sent = 0u64;
        for &p in dep.primaries() {
            let pbft = dep.primary(p).pbft();
            views.push(pbft.view());
            vc_sent += pbft.view_changes_sent();
        }
        (views, vc_sent)
    };
    let (views_before, vc_before) = tier_state(&dep);
    // Just before the heal: the cut has been quorumless for ~5 s.
    trace.extend(cursor.run_to(&mut dep.sim, t(8_900)));
    let frontier_after = dep.frontier(&object);
    let (views_after, vc_after) = tier_state(&dep);
    // Heal and settle: the stranded update must commit end to end.
    trace.extend(cursor.run_to(&mut dep.sim, t(20_000)));

    let mut report = check_convergence(&dep, &[object])
        .merge(check_no_committed_loss(&dep, &object, 2))
        .merge(check_clients_settled(&dep))
        .merge(check_every_commit_certifies(&dep, &[object]))
        .merge(check_frontier_stalled(
            "quorum cut [3050ms, 9000ms)",
            frontier_before,
            frontier_after,
        ));
    if views_after != views_before {
        report.failures.push(format!(
            "quorum-loss: view changed {views_before:?} -> {views_after:?} without a 2m+1 quorum"
        ));
    }
    if vc_after <= vc_before {
        report.failures.push(format!(
            "quorum-loss: no view-change churn during the cut (votes {vc_before} -> {vc_after})"
        ));
    }
    ScenarioOutcome { trace, fingerprint: stats_fingerprint(&dep.sim), report }
}

/// One secondary turns Byzantine: it inflates its anti-entropy summaries
/// (sent unasked every tick, and in answer to every digest) to bait peers
/// into pulling, then serves forged, uncertified commit records. Honest
/// nodes must reject every forgery (certificates are verified on all
/// ingest paths), keep converging on the genuine stream, and store
/// nothing uncertified.
pub fn byzantine_secondary(seed: u64) -> ScenarioOutcome {
    byzantine_secondary_with(seed, 0)
}

/// [`byzantine_secondary`] with each update padded to `payload_len`
/// bytes. At 1 KiB the tree and anti-entropy offer the records by name,
/// so the liar's bait and forged batches meet names, asks and answers.
pub fn byzantine_secondary_with(seed: u64, payload_len: usize) -> ScenarioOutcome {
    let payload = |label: &[u8]| {
        let mut bytes = label.to_vec();
        bytes.resize(bytes.len().max(payload_len), 0);
        append(&bytes)
    };
    let liar_idx = 5;
    let mut dep = build_deployment(&DeploymentOpts {
        latency: SimDuration::from_millis(20),
        byzantine_secondaries: vec![liar_idx],
        seed,
        ..DeploymentOpts::default()
    });
    let object = Guid::from_label("chaos-byzantine");
    let liar = dep.secondaries[liar_idx];

    dep.submit(dep.clients[0], object, &payload(b"genuine-1"));
    let mut trace = run_schedule(&mut dep.sim, &Schedule::new(), t(4_000));
    dep.submit(dep.clients[0], object, &payload(b"genuine-2"));
    // Long tail so several anti-entropy rounds spread the liar's bait.
    trace.extend(run_schedule(&mut dep.sim, &Schedule::new(), t(15_000)));

    let mut report = check_convergence(&dep, &[object])
        .merge(check_no_committed_loss(&dep, &object, 2))
        .merge(check_clients_settled(&dep))
        .merge(check_no_uncertified_records(&dep))
        .merge(check_every_commit_certifies(&dep, &[object]));
    let honest_rejects: u64 = dep
        .secondaries
        .iter()
        .filter(|&&s| s != liar)
        .map(|&s| dep.secondary(s).rejected_count())
        .sum();
    if honest_rejects == 0 {
        report.failures.push("no honest node ever saw (and rejected) a forgery".into());
    }
    ScenarioOutcome { trace, fingerprint: stats_fingerprint(&dep.sim), report }
}

/// A correlated failure: one whole "rack" — an interior tree node and
/// both of its children — loses power at the same instant, an update
/// commits during the outage, and the rack later comes back with state
/// intact. The revived nodes must catch up on everything they missed.
pub fn rack_failure(seed: u64) -> ScenarioOutcome {
    let mut dep = build_deployment(&DeploymentOpts {
        latency: SimDuration::from_millis(20),
        seed,
        ..DeploymentOpts::default()
    });
    let object = Guid::from_label("chaos-rack");
    let rack = [dep.secondaries[1], dep.secondaries[3], dep.secondaries[4]];

    dep.submit(dep.clients[0], object, &append(b"before-outage"));
    let sched =
        Schedule::new().crash_rack(t(2_050), &rack).recover_rack(t(8_000), &rack);
    let mut trace = run_schedule(&mut dep.sim, &sched, t(3_000));
    dep.submit(dep.clients[0], object, &append(b"during-outage"));
    trace.extend(run_schedule(&mut dep.sim, &sched, t(12_000)));
    dep.submit(dep.clients[0], object, &append(b"after-recovery"));
    trace.extend(run_schedule(&mut dep.sim, &Schedule::new(), t(18_000)));

    let report = check_convergence(&dep, &[object])
        .merge(check_no_committed_loss(&dep, &object, 3))
        .merge(check_clients_settled(&dep))
        .merge(check_every_commit_certifies(&dep, &[object]));
    ScenarioOutcome { trace, fingerprint: stats_fingerprint(&dep.sim), report }
}

/// Flaps the link between primary 0 and the tree root: full loss and
/// normal service alternate every 400 ms for almost five seconds. The
/// object is chosen so the mid-flap record is disseminated by primary 0
/// across exactly that link. Heartbeat churn, re-parenting, and gap-pull
/// repair must still deliver every record everywhere once the link calms.
pub fn link_flap(seed: u64) -> ScenarioOutcome {
    let mut dep = build_deployment(&DeploymentOpts {
        latency: SimDuration::from_millis(20),
        seed,
        ..DeploymentOpts::default()
    });
    let n = dep.primaries().len();
    // Record 1 (the one submitted mid-flap) must be disseminated by
    // member 0, whose link to the root is the one flapping.
    let object = (0..)
        .map(|k| Guid::from_label(&format!("chaos-flap-{k}")))
        .find(|g| disseminator_for(n, g, 1, 0) == 0)
        .expect("some label lands record 1 on member 0");
    let p0 = dep.primaries()[0];
    let root = dep.secondaries[0];

    dep.submit(dep.clients[0], object, &append(b"calm-before"));
    let sched = Schedule::new().flapping_link(
        p0,
        root,
        1.0,
        SimDuration::from_millis(400),
        t(2_100),
        t(6_900),
    );
    let mut trace = run_schedule(&mut dep.sim, &sched, t(2_500));
    dep.submit(dep.clients[0], object, &append(b"through-the-flap"));
    trace.extend(run_schedule(&mut dep.sim, &sched, t(8_000)));
    dep.submit(dep.clients[0], object, &append(b"calm-after"));
    trace.extend(run_schedule(&mut dep.sim, &Schedule::new(), t(16_000)));

    let mut report = check_convergence(&dep, &[object])
        .merge(check_no_committed_loss(&dep, &object, 3))
        .merge(check_clients_settled(&dep))
        .merge(check_every_commit_certifies(&dep, &[object]));
    if dep.sim.stats().dropped_by_cause(DropCause::LinkFlap) == 0 {
        report.failures.push("flap schedule never actually dropped a message".into());
    }
    ScenarioOutcome { trace, fingerprint: stats_fingerprint(&dep.sim), report }
}

/// Kills one hash-range blob provider mid-run.
///
/// Every replica's block store is rewired onto a two-shard provider pair
/// (CIDs `00-7f` → provider A, `80-ff` → provider B, shared by all
/// nodes). Updates commit before and after provider A dies. The tier
/// must lose nothing: commits keep flowing (the blob layer is storage,
/// not the replication path), and every committed byte still *reads* on
/// every secondary — blocks whose CID lands in the dead range are served
/// by the in-memory replica fallback, which is the paper's durability
/// argument for untrusted infrastructure.
pub fn provider_loss(seed: u64) -> ScenarioOutcome {
    use oceanstore_store::{shard_of, BlobStore, ShardedStore, SharedStore, SimRemoteStore};

    let mut dep = build_deployment(&DeploymentOpts {
        latency: SimDuration::from_millis(20),
        seed,
        ..DeploymentOpts::default()
    });
    let object = Guid::from_label("chaos-provider-loss");
    // The shared provider pair. Latency is accounted (not scheduled), so
    // rewiring storage cannot perturb the pinned message schedule.
    let provider_a = SharedStore::new(SimRemoteStore::new(seed, 200, 0.0));
    let provider_b = SharedStore::new(SimRemoteStore::new(seed ^ 1, 200, 0.0));
    let two_shard = || -> Box<dyn BlobStore> {
        Box::new(ShardedStore::new(vec![
            Box::new(provider_a.clone()),
            Box::new(provider_b.clone()),
        ]))
    };
    let nodes: Vec<NodeId> = dep
        .primaries()
        .to_vec()
        .into_iter()
        .chain(dep.secondaries.iter().copied())
        .collect();
    for &n in &nodes {
        let node = dep.sim.node_mut(n);
        if let Some(p) = node.as_primary_mut() {
            p.store.set_blob_store(two_shard());
        } else if let Some(s) = node.as_secondary_mut() {
            s.store.set_blob_store(two_shard());
        }
    }
    // Payloads picked so the committed blocks provably span both hash
    // ranges: two land on provider A (the one that will die), one on B.
    // Each is padded past the cut below which a block is kept in its
    // version and never reaches a provider.
    let width = 2 * oceanstore_replica::TINY_BLOCK;
    let pick = |want_shard: usize, tag: &str| -> Vec<u8> {
        (0..)
            .map(|k| format!("{:-<width$}", format!("chaos-provider-{tag}-{k}")).into_bytes())
            .find(|p| shard_of(&oceanstore_store::cid_of(p), 2) == want_shard)
            .expect("some payload hashes into the range")
    };
    let (on_a, on_a2, on_b) = (pick(0, "a1"), pick(0, "a2"), pick(1, "b"));

    dep.submit(dep.clients[0], object, &append(&on_a));
    let mut trace = run_schedule(&mut dep.sim, &Schedule::new(), t(3_000));
    dep.submit(dep.clients[0], object, &append(&on_b));
    trace.extend(run_schedule(&mut dep.sim, &Schedule::new(), t(6_000)));
    // Provider A dies with two committed blocks in its range…
    provider_a.with(|p| p.set_down(true));
    // …and the tier keeps committing straight through the outage.
    dep.submit(dep.clients[0], object, &append(&on_a2));
    trace.extend(run_schedule(&mut dep.sim, &Schedule::new(), t(12_000)));

    let mut report = check_convergence(&dep, &[object])
        .merge(check_no_committed_loss(&dep, &object, 3))
        .merge(check_clients_settled(&dep))
        .merge(check_every_commit_certifies(&dep, &[object]))
        // One object in play: every store's record log must sit inside a
        // single retention window (plus in-flight slack).
        .merge(check_store_memory(&dep, oceanstore_replica::RECORD_RETENTION + 16));
    // Both ranges were genuinely populated before the kill.
    if provider_a.with(|p| p.stats().blobs) == 0 {
        report.failures.push("range 00-7f (provider A) never stored a block".into());
    }
    if provider_b.with(|p| p.stats().blobs) == 0 {
        report.failures.push("range 80-ff (provider B) never stored a block".into());
    }
    // Every committed byte still reads on every secondary, dead provider
    // and all: blob-path reads must match the replica's committed state.
    let expected: Vec<u8> = [on_a.as_slice(), &on_b, &on_a2].concat();
    let mut fallbacks = 0u64;
    for &s in &dep.secondaries.clone() {
        let sec = dep.sim.node_mut(s).as_secondary_mut().expect("secondary");
        match sec.store.read_object_bytes(&object) {
            Some(bytes) if bytes == expected => {}
            Some(_) => report.failures.push(format!("secondary {s:?} read wrong bytes")),
            None => report.failures.push(format!("secondary {s:?} could not read the object")),
        }
        fallbacks += sec.store.health().fallback_reads;
    }
    if fallbacks == 0 {
        report
            .failures
            .push("no read ever fell back to the replica — the dead range went unexercised".into());
    }
    if provider_a.with(|p| p.stats().denied) == 0 {
        report.failures.push("dead provider A never denied an operation".into());
    }
    ScenarioOutcome { trace, fingerprint: stats_fingerprint(&dep.sim), report }
}

/// Location under churn: publish an object into a 32-node Tapestry-style
/// mesh, crash the salt-0 root, run a 15% drop burst, and locate from
/// five scattered origins. Salted multi-root retry plus origin-side
/// restart must keep the success rate at 1.
pub fn locate_under_churn(seed: u64) -> ScenarioOutcome {
    let n = 32;
    let mk_topo = || {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Topology::random_geometric(n, 0.3, SimDuration::from_millis(40), &mut rng)
    };
    let topo = Arc::new(mk_topo());
    // Paranoid locate settings: under churn a full salted sweep can miss
    // spuriously, so never declare the object absent inside the run.
    let cfg = PlaxtonConfig {
        min_notfound_sweeps: 50,
        max_locate_retries: 50,
        ..PlaxtonConfig::default()
    };
    let (nodes, _guids) = build_network(&topo, &cfg, seed);
    let holder = NodeId(7);
    let object = Guid::from_label("chaos-located");
    // The salt-0 root is the scenario's crash target (computed offline
    // from the founding tables).
    let root0 = find_root(&nodes, &object.salted(0), NodeId(0));
    let mut sim: Simulator<PlaxtonNode> = Simulator::new(mk_topo(), nodes, seed);
    sim.start();
    sim.with_node_ctx(holder, |node, ctx| node.publish(ctx, object));

    let sched = Schedule::new()
        .at(t(2_000), FaultAction::Crash(root0))
        .at(t(2_000), FaultAction::DropProb(0.15))
        .at(t(12_000), FaultAction::DropProb(0.0));
    let mut trace = run_schedule(&mut sim, &sched, t(3_000));
    let origins: Vec<NodeId> = [0usize, 5, 13, 22, 31]
        .into_iter()
        .map(NodeId)
        .filter(|&o| o != holder && o != root0)
        .collect();
    for (qid, &origin) in origins.iter().enumerate() {
        sim.with_node_ctx(origin, |node, ctx| node.locate(ctx, qid as u64, object));
    }
    trace.extend(run_schedule(&mut sim, &sched, t(40_000)));

    let mut report = InvariantReport::default();
    let mut found = 0usize;
    for (qid, &origin) in origins.iter().enumerate() {
        match sim.node(origin).outcome(qid as u64) {
            Some(out) if out.holder == Some(holder) => found += 1,
            Some(out) => report
                .failures
                .push(format!("locate {qid} from {origin:?} answered {:?}", out.holder)),
            None => report.failures.push(format!("locate {qid} from {origin:?} never completed")),
        }
    }
    let rate = found as f64 / origins.len() as f64;
    if rate < 1.0 {
        report.failures.push(format!("locate success rate {rate:.2} < 1.00"));
    }
    ScenarioOutcome { trace, fingerprint: stats_fingerprint(&sim), report }
}
