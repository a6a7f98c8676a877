//! Byzantine agreement for the OceanStore primary tier (§4.4.3–§4.4.5).
//!
//! A PBFT-style (Castro–Liskov \[10\]) protocol: `n = 3m + 1` replicas choose
//! the final commit order for updates, tolerating up to `m` arbitrary
//! faults. Clients send updates to the whole tier and wait for `m + 1`
//! matching replies. The module also carries the paper's analytic cost
//! model (`b = c1·n² + (u + c2)·n + c3`, Figure 6) and a measurement
//! harness that reproduces it from actual wire bytes.
//!
//! * [`messages`] — signed wire messages with honest byte accounting.
//! * [`replica`] — the replica state machine with fault injection
//!   (silent / equivocating) and a simplified view change.
//! * [`client`] — submit + reply-quorum collection.
//! * [`harness`] — tier construction and the Figure 6 measurement kernel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod harness;
pub mod messages;
pub mod node;
pub mod replica;

pub use client::{Client, ClientOutcome};
pub use harness::{
    build_tier, build_tier_custom, build_tier_with_faults, run_updates, run_updates_batched,
    CostModel, TierSim,
};
pub use messages::{Namer, Opaque, Payload, PbftMsg, RequestId, StableCert, StateEntry};
pub use node::PbftNode;
pub use replica::{CheckpointConfig, Committed, FaultMode, Replica, ReplicaHealth, TierConfig};

#[cfg(test)]
mod tests {
    use oceanstore_sim::{NodeId, SimDuration};

    use crate::harness::{build_tier, build_tier_with_faults, run_updates};
    use crate::messages::Payload;
    use crate::replica::FaultMode;

    const WAN: SimDuration = SimDuration::from_millis(100);

    fn executed_digests(ts: &crate::TierSim, idx: usize) -> Vec<[u8; 20]> {
        ts.sim
            .node(NodeId(idx))
            .as_replica()
            .expect("replica")
            .executed_digests()
    }

    #[test]
    fn single_update_commits_everywhere() {
        let mut ts = build_tier(1, WAN, 1);
        let run = run_updates(&mut ts, 1024, 1);
        assert_eq!(run.latencies.len(), 1);
        for i in 0..4 {
            assert_eq!(
                ts.sim.node(NodeId(i)).as_replica().unwrap().executed().len(),
                1,
                "replica {i}"
            );
        }
    }

    #[test]
    fn commit_latency_is_a_few_wan_rtts() {
        // §4.4.5: "six phases of messages ... approximate latency per
        // update of less than a second" at 100 ms per message. Our path is
        // request → pre-prepare → prepare → commit → reply = 5 phases
        // (the client talks to the tier directly), i.e. 500 ms.
        let mut ts = build_tier(1, WAN, 2);
        let run = run_updates(&mut ts, 4096, 3);
        for lat in &run.latencies {
            assert_eq!(lat.as_millis(), 500, "got {lat}");
            assert!(lat.as_millis() < 1000, "under a second as the paper estimates");
        }
    }

    #[test]
    fn replicas_agree_on_order() {
        let mut ts = build_tier(1, WAN, 3);
        let _ = run_updates(&mut ts, 100, 5);
        let reference = executed_digests(&ts, 0);
        assert_eq!(reference.len(), 5);
        for i in 1..4 {
            assert_eq!(executed_digests(&ts, i), reference, "replica {i}");
        }
    }

    #[test]
    fn tolerates_m_silent_replicas() {
        let mut ts = build_tier_with_faults(1, WAN, 4, &[(2, FaultMode::Silent)]);
        let run = run_updates(&mut ts, 2048, 2);
        assert_eq!(run.latencies.len(), 2);
        // Honest replicas still agree.
        let reference = executed_digests(&ts, 0);
        assert_eq!(reference.len(), 2);
        for i in [1usize, 3] {
            assert_eq!(executed_digests(&ts, i), reference, "replica {i}");
        }
    }

    #[test]
    fn tolerates_equivocating_replica() {
        // A non-leader equivocator lies about digests; honest replicas
        // still commit identically.
        let mut ts = build_tier_with_faults(1, WAN, 5, &[(3, FaultMode::Equivocate)]);
        let _ = run_updates(&mut ts, 512, 3);
        let reference = executed_digests(&ts, 0);
        assert_eq!(reference.len(), 3);
        for i in [1usize, 2] {
            assert_eq!(executed_digests(&ts, i), reference, "replica {i}");
        }
    }

    #[test]
    fn silent_leader_triggers_view_change() {
        // Replica 0 leads view 0 and is silent: the tier must rotate to a
        // new view and still commit the client's update.
        let mut ts = build_tier_with_faults(1, WAN, 6, &[(0, FaultMode::Silent)]);
        let client = ts.client;
        let id = ts.sim.with_node_ctx(client, |node, ctx| {
            node.as_client_mut().unwrap().submit(ctx, Payload::simulated(256))
        });
        ts.sim.run_to_quiescence(1_000_000);
        let outcome = ts.sim.node(client).as_client().unwrap().outcome(id).copied();
        let outcome = outcome.expect("update must commit despite the dead leader");
        assert!(outcome.seq == 0);
        // Honest replicas moved past view 0 and agree.
        let views: Vec<u64> = (1..4)
            .map(|i| ts.sim.node(NodeId(i)).as_replica().unwrap().view())
            .collect();
        assert!(views.iter().all(|&v| v >= 1), "views: {views:?}");
        let reference = executed_digests(&ts, 1);
        assert_eq!(reference.len(), 1);
        for i in [2usize, 3] {
            assert_eq!(executed_digests(&ts, i), reference);
        }
    }

    #[test]
    fn view_change_catches_up_a_replica_that_missed_commits() {
        // Replica 3 is cut off from the tier (but still hears client
        // broadcasts) while the first update commits, so it holds the
        // request payload and an empty log. The next view change must
        // repair it: view-change votes carry each voter's execution
        // frontier plus its certifiable slots, and the new leader re-runs
        // agreement from the lowest frontier in its quorum — re-seeding
        // executed slots at their original sequences so a straggler
        // re-commits them (idempotent for everyone else). Before this, a
        // replica that missed a commit stayed behind forever, and
        // re-proposal at fresh sequences could even fork the order.
        let mut ts = build_tier(1, WAN, 8);
        let client = ts.client;
        for i in 0..3u64 {
            ts.sim.set_link_drop(NodeId(i as usize), NodeId(3), 1.0);
            ts.sim.set_link_drop(NodeId(3), NodeId(i as usize), 1.0);
        }
        ts.sim.with_node_ctx(client, |node, ctx| {
            node.as_client_mut().unwrap().submit(ctx, Payload::simulated(128))
        });
        // Bounded run, not quiescence: the isolated straggler re-arms its
        // view alarm indefinitely while its votes die on the dead links.
        ts.sim.run_until(oceanstore_sim::SimTime::ZERO + SimDuration::from_secs(10));
        assert_eq!(executed_digests(&ts, 0).len(), 1, "first update must commit without 3");
        assert_eq!(executed_digests(&ts, 3).len(), 0, "replica 3 must have missed it");
        for i in 0..3u64 {
            ts.sim.set_link_drop(NodeId(i as usize), NodeId(3), 0.0);
            ts.sim.set_link_drop(NodeId(3), NodeId(i as usize), 0.0);
        }
        // Silence the leader of view 0: the second update forces a view
        // change whose vote quorum includes the straggler.
        ts.sim.with_node_ctx(NodeId(0), |node, _ctx| {
            node.as_replica_mut().unwrap().set_fault(FaultMode::Silent)
        });
        ts.sim.with_node_ctx(client, |node, ctx| {
            node.as_client_mut().unwrap().submit(ctx, Payload::simulated(128))
        });
        ts.sim.run_to_quiescence(1_000_000);
        let reference = executed_digests(&ts, 1);
        assert_eq!(reference.len(), 2, "both updates must commit after the view change");
        assert_eq!(executed_digests(&ts, 2), reference);
        assert_eq!(executed_digests(&ts, 3), reference, "replica 3 must have caught up");
    }

    #[test]
    fn equivocating_leader_cannot_split_honest_replicas() {
        // Leader 0 equivocates. Honest replicas may or may not commit
        // (liveness can require a view change), but they must never commit
        // *different* orders — Byzantine safety.
        let mut ts = build_tier_with_faults(1, WAN, 7, &[(0, FaultMode::Equivocate)]);
        let client = ts.client;
        ts.sim.with_node_ctx(client, |node, ctx| {
            node.as_client_mut().unwrap().submit(ctx, Payload::simulated(64))
        });
        ts.sim.run_to_quiescence(1_000_000);
        let orders: Vec<Vec<[u8; 20]>> = (1..4).map(|i| executed_digests(&ts, i)).collect();
        for pair in orders.windows(2) {
            let common = pair[0].len().min(pair[1].len());
            assert_eq!(&pair[0][..common], &pair[1][..common], "diverging committed orders");
        }
    }

    #[test]
    fn forged_signatures_never_counted() {
        // One forger plus one silent replica at m = 1 leaves only two
        // honest replicas: the prepare quorum (3) is unreachable unless a
        // forged signature slips through the check on receipt, and a view
        // change (3 votes) can never complete either. Nothing may commit.
        let mut ts =
            build_tier_with_faults(1, WAN, 12, &[(1, FaultMode::ForgeSigs), (2, FaultMode::Silent)]);
        let client = ts.client;
        let id = ts.sim.with_node_ctx(client, |node, ctx| {
            node.as_client_mut().unwrap().submit(ctx, Payload::simulated(256))
        });
        // Bounded run, not quiescence: the stuck tier re-arms view alarms
        // and votes forever without ever completing a view change.
        ts.sim.run_until(oceanstore_sim::SimTime::ZERO + SimDuration::from_secs(60));
        assert!(
            ts.sim.node(client).as_client().unwrap().outcome(id).is_none(),
            "a commit here means a forged signature was accepted"
        );
        for i in [0usize, 3] {
            assert!(executed_digests(&ts, i).is_empty(), "honest replica {i} executed");
        }
    }

    #[test]
    fn forger_alone_is_tolerated_as_the_single_fault() {
        // With the forger as the only fault (m = 1), the three honest
        // replicas form every quorum by themselves; its rejected
        // signatures cost nothing but liveness margin.
        let mut ts = build_tier_with_faults(1, WAN, 13, &[(3, FaultMode::ForgeSigs)]);
        let run = run_updates(&mut ts, 1024, 2);
        assert_eq!(run.latencies.len(), 2);
        let reference = executed_digests(&ts, 0);
        assert_eq!(reference.len(), 2);
        for i in [1usize, 2] {
            assert_eq!(executed_digests(&ts, i), reference, "replica {i}");
        }
    }

    #[test]
    fn byte_cost_matches_analytic_model_shape() {
        // Measured bytes should scale like c1·n² + (u + c2)·n: doubling the
        // update size adds ~n·Δu bytes.
        let mut ts = build_tier(2, WAN, 8); // n = 7
        let small = run_updates(&mut ts, 1_000, 1).total_bytes;
        let mut ts2 = build_tier(2, WAN, 8);
        let large = run_updates(&mut ts2, 11_000, 1).total_bytes;
        let delta = large - small;
        // Δ = n × Δu = 7 × 10_000.
        assert_eq!(delta, 70_000, "payload bytes scale with n");
    }

    #[test]
    fn normalized_cost_approaches_one_for_large_updates() {
        // Figure 6's shape: the normalized cost → 1 as u grows, and is
        // large for small updates.
        let mut ts = build_tier(4, WAN, 9); // n = 13, the paper's worst curve
        let tiny = run_updates(&mut ts, 100, 1);
        let tiny_norm = tiny.total_bytes as f64 / (100.0 * 13.0);
        let mut ts2 = build_tier(4, WAN, 9);
        let big = run_updates(&mut ts2, 1_000_000, 1);
        let big_norm = big.total_bytes as f64 / (1_000_000.0 * 13.0);
        assert!(tiny_norm > 10.0, "tiny updates dominated by overhead: {tiny_norm}");
        assert!(big_norm < 1.1, "large updates near the floor: {big_norm}");
    }

    #[test]
    fn cost_model_default_constants_track_measurement() {
        use crate::harness::CostModel;
        let model = CostModel::default();
        for (m, u) in [(1usize, 4096usize), (2, 4096), (4, 100_000)] {
            let n = 3 * m + 1;
            let mut ts = build_tier(m, WAN, 10 + m as u64);
            let measured = run_updates(&mut ts, u, 1).total_bytes as f64;
            let predicted = model.bytes(n, u);
            let ratio = measured / predicted;
            assert!(
                (0.7..1.3).contains(&ratio),
                "m={m} u={u}: measured {measured}, predicted {predicted}"
            );
        }
    }

    #[test]
    fn duplicate_request_not_executed_twice() {
        let mut ts = build_tier(1, WAN, 11);
        let client = ts.client;
        let payload = Payload::simulated(128);
        let id = ts.sim.with_node_ctx(client, |node, ctx| {
            node.as_client_mut().unwrap().submit(ctx, payload.clone())
        });
        ts.sim.run_to_quiescence(1_000_000);
        // Replay the same signed request directly at every replica.
        let outcome = ts.sim.node(client).as_client().unwrap().outcome(id).copied().unwrap();
        let _ = outcome;
        for i in 0..4 {
            let node = NodeId(i);
            let replayed = {
                let r = ts.sim.node(node).as_replica().unwrap();
                r.executed().len()
            };
            assert_eq!(replayed, 1, "replica {i} executed once");
        }
    }
}
