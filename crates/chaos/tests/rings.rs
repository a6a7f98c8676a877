//! Ring-isolation chaos: sharded consensus means one ring's total outage
//! is *that ring's* outage. Crashing an entire primary tier mid-run must
//! not stall the other rings — their objects keep committing and
//! disseminating through the shared secondary substrate — and the whole
//! multi-ring schedule replays bit-identically from a fixed seed.

use oceanstore_chaos::invariants::{
    check_clients_settled, check_convergence, check_every_commit_certifies,
    check_no_uncertified_records,
};
use oceanstore_chaos::runner::{stats_fingerprint, ScheduleCursor, TraceEntry};
use oceanstore_chaos::scenarios::append;
use oceanstore_chaos::schedule::Schedule;
use oceanstore_naming::guid::Guid;
use oceanstore_replica::{build_deployment, Deployment, DeploymentOpts};
use oceanstore_sim::{SimDuration, SimTime};

const RINGS: usize = 4;
/// The ring whose entire primary tier goes dark.
const VICTIM_RING: usize = 2;

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// The first labeled object the router assigns to `ring`.
fn object_for_ring(dep: &Deployment, ring: usize) -> Guid {
    (0..)
        .map(|i| Guid::from_label(&format!("ring-obj-{i}")))
        .find(|g| dep.ring_of(g) == ring)
        .expect("router is balanced; every ring owns some object")
}

/// One full ring-outage scenario: commit a round everywhere, kill
/// `VICTIM_RING`'s whole tier, commit a second round (which can only land
/// on the live rings), recover, settle. Returns the applied fault trace
/// and the final network fingerprint for determinism checks.
fn run_ring_outage(seed: u64) -> (Vec<TraceEntry>, String) {
    let mut dep = build_deployment(&DeploymentOpts {
        rings: RINGS,
        secondaries: 7,
        seed,
        ..DeploymentOpts::default()
    });
    let objects: Vec<Guid> = (0..RINGS).map(|r| object_for_ring(&dep, r)).collect();
    let victims = dep.rings[VICTIM_RING].primaries.clone();
    let schedule = victims
        .iter()
        .fold(Schedule::new(), |s, &v| s.crash_rack(t(3_000), &[v]))
        .recover_rack(t(11_000), &victims);
    let mut cursor = ScheduleCursor::new(schedule);
    let mut trace = Vec::new();

    // Round 1: every ring commits and disseminates one update. Sample
    // the frontiers just before the crash instant — the victim ring has
    // no live primary afterwards.
    for &obj in &objects {
        dep.submit(dep.clients[0], obj, &append(&[1]));
    }
    trace.extend(cursor.run_to(&mut dep.sim, t(2_900)));
    for (r, obj) in objects.iter().enumerate() {
        assert_eq!(dep.frontier(obj), 1, "ring {r} round-1 commit");
    }
    trace.extend(cursor.run_to(&mut dep.sim, t(3_000)));

    // Ring 2 is now entirely dark. Round 2 reaches only the live rings.
    for &obj in &objects {
        dep.submit(dep.clients[0], obj, &append(&[2]));
    }
    trace.extend(cursor.run_to(&mut dep.sim, t(10_000)));
    for (r, obj) in objects.iter().enumerate() {
        if r == VICTIM_RING {
            continue;
        }
        assert_eq!(
            dep.frontier(obj),
            2,
            "live ring {r} stalled during ring {VICTIM_RING}'s outage"
        );
    }
    // The victim ring's object cannot have advanced: every live secondary
    // still holds exactly the round-1 record, and the client's round-2
    // request is still pending.
    for &s in &dep.secondaries {
        assert!(
            dep.secondary(s).store.records_from(&objects[VICTIM_RING], 0).len() <= 1,
            "a committed record appeared while the owning ring was down"
        );
    }
    let pending = dep.client(dep.clients[0]).pending_count();
    assert!(pending >= 1, "the dark ring's request must still be pending");

    // Recovery: the tier comes back with state intact; the client's
    // retransmission pushes the stalled request through.
    trace.extend(cursor.run_to(&mut dep.sim, t(30_000)));
    assert!(cursor.done(), "recovery events must have been applied");
    for (r, obj) in objects.iter().enumerate() {
        assert_eq!(dep.frontier(obj), 2, "ring {r} final frontier");
    }
    let report = check_convergence(&dep, &objects)
        .merge(check_every_commit_certifies(&dep, &objects))
        .merge(check_no_uncertified_records(&dep))
        .merge(check_clients_settled(&dep));
    assert!(report.passed(), "invariants broken: {:#?}", report.failures);
    (trace, stats_fingerprint(&dep.sim))
}

#[test]
fn ring_outage_isolates_to_owned_objects() {
    run_ring_outage(1);
}

/// The multi-ring schedule is deterministic: two runs from the same seed
/// produce identical fault traces and identical network fingerprints.
#[test]
fn multi_ring_schedule_is_deterministic() {
    let (trace_a, fp_a) = run_ring_outage(5);
    let (trace_b, fp_b) = run_ring_outage(5);
    assert_eq!(trace_a, trace_b, "fault trace diverged across replays");
    assert_eq!(fp_a, fp_b, "network fingerprint diverged across replays");
}

/// Rings = 1 must keep today's exact behavior: the single-ring default
/// routes everything to ring 0 and the deployment geometry is unchanged.
#[test]
fn single_ring_default_owns_everything() {
    let dep = build_deployment(&DeploymentOpts::default());
    assert_eq!(dep.rings.len(), 1);
    for i in 0..64 {
        assert_eq!(dep.ring_of(&Guid::from_label(&format!("obj-{i}"))), 0);
    }
    assert_eq!(dep.primaries(), &dep.rings[0].primaries[..]);
    assert_eq!(dep.cfg().members, dep.rings[0].primaries);
}

/// Every ring of a multi-ring deployment can commit: no ring is
/// misconfigured, mis-keyed, or shadowed by another (each tier signs with
/// its own keys and secondaries verify against the owning ring's).
#[test]
fn all_rings_commit_and_converge() {
    let mut dep = build_deployment(&DeploymentOpts {
        rings: RINGS,
        secondaries: 7,
        ..DeploymentOpts::default()
    });
    let objects: Vec<Guid> = (0..RINGS).map(|r| object_for_ring(&dep, r)).collect();
    for &obj in &objects {
        dep.submit(dep.clients[0], obj, &append(&[9]));
    }
    dep.sim.run_for(SimDuration::from_secs(8));
    let report = check_convergence(&dep, &objects)
        .merge(check_every_commit_certifies(&dep, &objects))
        .merge(check_no_uncertified_records(&dep))
        .merge(check_clients_settled(&dep));
    assert!(report.passed(), "invariants broken: {:#?}", report.failures);
    for (r, obj) in objects.iter().enumerate() {
        assert_eq!(dep.frontier(obj), 1, "ring {r} never committed");
        // Only the owning ring's primaries hold the object.
        for (r2, ring) in dep.rings.iter().enumerate() {
            for &p in &ring.primaries {
                let holds = dep.primary(p).store.get(obj).is_some();
                assert_eq!(
                    holds,
                    r2 == r,
                    "object of ring {r} {} on ring {r2}'s primary {p:?}",
                    if holds { "leaked onto" } else { "missing from" },
                );
            }
        }
    }
}

/// Pinned network fingerprint of the seed-1 ring-outage schedule: the
/// multi-ring deployment path is frozen — any change to layout, key
/// derivation, routing, or message flow shows up here first. Every ring's
/// pushes are acked (`replica/commitack` = 4 rings × 2 records × 4
/// members), so no `ev[repush/*]` event appears.
///
/// Re-frozen when a secondary whose parent is pushing stopped sending
/// digests and pings, each push from a secondary parent began carrying
/// its committed frontier, and rumors and client fan-out began drawing k
/// peers instead of shuffling them all: `replica/antientropy` 2 136 →
/// 2 100 messages, `replica/heartbeat` 4 193 → 4 157, `replica/commit`
/// 10 976 → 11 360 bytes (48 secondary pushes × 8) at the same 56
/// messages, `replica/tentative` 130 → 131 with the draws; messages
/// 6 879 → 6 808, bytes 132 506 → 132 093. No other count moved.
///
/// Re-frozen when a late signature share drew the certificate back only
/// if it was re-broadcast (DESIGN.md §13): `replica/certformed` 40 → 24
/// messages, the ring-wide broadcasts alone (4 rings × 2 records × 3
/// peers) without the 16 replies to first shares; messages 6 808 →
/// 6 792, bytes 132 093 → 129 725. No other count moved.
#[test]
fn ring_outage_fingerprint_pinned() {
    let (_, fp) = run_ring_outage(1);
    assert_eq!(
        fp,
        "now=30000000 msgs=6792 bytes=129725 drop[NodeDown]=32 drop[Partition]=0 \
         drop[Random]=0 drop[Unreachable]=0 drop[LinkFlap]=0 pbft/commit=96/10368 \
         pbft/prepare=72/7776 pbft/preprepare=24/2592 pbft/reply=32/3456 \
         pbft/request=44/5412 replica/antientropy=2100/39760 \
         replica/certformed=24/3552 replica/commit=56/11360 \
         replica/commitack=32/896 replica/heartbeat=4157/33256 \
         replica/resultshare=24/2520 replica/tentative=131/8777"
    );
}
