//! Property-based safety test for Byzantine agreement: for arbitrary
//! fault assignments within the `m`-fault budget and arbitrary update
//! batches, honest replicas never execute conflicting orders.

use oceanstore_consensus::harness::{build_tier_with_faults, run_updates};
use oceanstore_consensus::messages::Payload;
use oceanstore_consensus::replica::FaultMode;
use oceanstore_sim::{NodeId, SimDuration};
use proptest::prelude::*;

fn fault_mode(tag: u8) -> FaultMode {
    match tag % 4 {
        0 => FaultMode::Honest,
        1 => FaultMode::Silent,
        2 => FaultMode::Equivocate,
        _ => FaultMode::ForgeSigs,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Safety with up to m arbitrary faults: every pair of honest replicas
    /// agrees on the common prefix of their executed orders; with faulty
    /// non-leaders, all updates still commit.
    #[test]
    fn honest_replicas_never_diverge(
        m in 1usize..3,
        fault_positions in proptest::collection::vec(any::<(u8, u8)>(), 0..3),
        update_count in 1usize..4,
        update_size in 16usize..4096,
        seed in any::<u64>(),
    ) {
        let n = 3 * m + 1;
        // Assign at most m faults (dedup by replica index).
        let mut faults: Vec<(usize, FaultMode)> = Vec::new();
        for (idx, mode) in &fault_positions {
            let idx = (*idx as usize) % n;
            if faults.len() < m && !faults.iter().any(|(i, _)| *i == idx) {
                let mode = fault_mode(*mode);
                if mode != FaultMode::Honest {
                    faults.push((idx, mode));
                }
            }
        }
        let mut ts = build_tier_with_faults(m, SimDuration::from_millis(100), seed, &faults);
        // Submit updates; drive the sim manually because a faulty leader
        // can legitimately stall liveness (we only check safety).
        let client = ts.client;
        for _ in 0..update_count {
            let payload = Payload::simulated(update_size);
            ts.sim.with_node_ctx(client, |node, ctx| {
                node.as_client_mut().expect("client").submit(ctx, payload)
            });
            ts.sim.run_for(SimDuration::from_secs(10));
        }
        ts.sim.run_for(SimDuration::from_secs(30));
        // Collect honest replicas' executed digests.
        let honest: Vec<usize> =
            (0..n).filter(|i| !faults.iter().any(|(f, _)| f == i)).collect();
        let orders: Vec<Vec<[u8; 20]>> = honest
            .iter()
            .map(|&i| ts.sim.node(NodeId(i)).as_replica().expect("replica").executed_digests())
            .collect();
        for pair in orders.windows(2) {
            let common = pair[0].len().min(pair[1].len());
            prop_assert_eq!(&pair[0][..common], &pair[1][..common], "diverging honest prefixes");
        }
        // If the leader chain was honest, liveness must hold too.
        let leader_faulty = faults.iter().any(|(i, _)| *i == 0);
        if !leader_faulty {
            for (h, o) in honest.iter().zip(&orders) {
                prop_assert_eq!(o.len(), update_count, "honest replica {} missing commits", h);
            }
        }
    }

    /// Replicas that sign every message with the wrong key are the most
    /// direct adversary for the per-vote signature check. Their votes must
    /// never enter any honest quorum set — not on any slot, not in either
    /// phase — while the honest 2m+1 still drive every update to commit.
    #[test]
    fn forged_signatures_never_counted(
        m in 1usize..3,
        forger_picks in proptest::collection::vec(any::<u8>(), 1..3),
        update_count in 1usize..4,
        update_size in 16usize..1024,
        seed in any::<u64>(),
    ) {
        let n = 3 * m + 1;
        // Up to m distinct non-leader forgers (a forging leader stalls
        // liveness, which run_updates treats as fatal; leader faults are
        // covered by the divergence property above).
        let mut forgers: Vec<usize> = Vec::new();
        for pick in forger_picks {
            let idx = 1 + (pick as usize) % (n - 1);
            if forgers.len() < m && !forgers.contains(&idx) {
                forgers.push(idx);
            }
        }
        let faults: Vec<(usize, FaultMode)> =
            forgers.iter().map(|&i| (i, FaultMode::ForgeSigs)).collect();
        let mut ts = build_tier_with_faults(m, SimDuration::from_millis(50), seed, &faults);
        let run = run_updates(&mut ts, update_size, update_count);
        prop_assert_eq!(run.latencies.len(), update_count);
        for i in (0..n).filter(|i| !forgers.contains(i)) {
            let replica = ts.sim.node(NodeId(i)).as_replica().expect("replica");
            prop_assert_eq!(replica.executed_digests().len(), update_count);
            for (seq, prepares, commits) in replica.counted_vote_senders() {
                for f in &forgers {
                    prop_assert!(
                        !prepares.contains(f),
                        "replica {}: forged prepare from {} counted at seq {}", i, f, seq,
                    );
                    prop_assert!(
                        !commits.contains(f),
                        "replica {}: forged commit from {} counted at seq {}", i, f, seq,
                    );
                }
            }
        }
    }
}

/// Deterministic sanity companion: an all-honest tier with batched updates
/// commits them all, identically, at every replica.
#[test]
fn batch_of_updates_all_commit() {
    let mut ts = oceanstore_consensus::harness::build_tier(1, SimDuration::from_millis(50), 3);
    let run = run_updates(&mut ts, 256, 6);
    assert_eq!(run.latencies.len(), 6);
    let reference = ts.sim.node(NodeId(0)).as_replica().unwrap().executed_digests();
    assert_eq!(reference.len(), 6);
    for i in 1..4 {
        assert_eq!(
            ts.sim.node(NodeId(i)).as_replica().unwrap().executed_digests(),
            reference
        );
    }
}
