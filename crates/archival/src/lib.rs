//! Deep archival storage for OceanStore (§4.5).
//!
//! * [`fragment`] — erasure-coded, Merkle-verified, self-certifying
//!   fragments; archive GUIDs are content hashes of the fragment-tree root.
//! * [`reliability`] — the paper's availability formula (hypergeometric),
//!   reproducing the "five nines from rate-1/2, 16 fragments" example
//!   exactly.
//! * [`protocol`] — networked storage/fetch with extra-fragment requests
//!   and the background repair sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fragment;
pub mod protocol;
pub mod reliability;
pub mod store;

pub use fragment::{
    archive_framed, archive_guid, archive_object, reconstruct_object, Archive, Fragment,
};
pub use protocol::{disseminate, ArchMsg, ArchNode, ArchTimer, FetchOutcome, TrackedArchive};
pub use store::{FragStore, FragStoreHealth};
pub use reliability::{availability, erasure_availability, nines, replication_availability};

#[cfg(test)]
mod tests {
    use oceanstore_erasure::object::{CodeKind, ObjectCodec};
    use oceanstore_sim::{NodeId, SimDuration, Simulator, Topology};

    use crate::fragment::{archive_object, flipped, Fragment};
    use crate::protocol::{disseminate, ArchMsg, ArchNode, TrackedArchive};

    const K: usize = 8;
    const N: usize = 16;

    fn codec() -> ObjectCodec {
        ObjectCodec::new(CodeKind::ReedSolomon, K, N, 0).unwrap()
    }

    fn payload() -> Vec<u8> {
        (0..5000u32).map(|i| (i * 31 % 253) as u8).collect()
    }

    /// 20 storage nodes + node 20 as the requester/sweeper.
    fn build(seed: u64) -> Simulator<ArchNode> {
        let topo = Topology::full_mesh(21, SimDuration::from_millis(30));
        let nodes = (0..21).map(|_| ArchNode::new()).collect();
        Simulator::new(topo, nodes, seed)
    }

    fn disseminated(sim: &mut Simulator<ArchNode>) -> (oceanstore_naming::guid::Guid, Vec<NodeId>) {
        let arch = archive_object(&codec(), &payload()).unwrap();
        let guid = arch.guid;
        let sites: Vec<NodeId> = (0..N).map(NodeId).collect();
        let holders = sim.with_node_ctx(NodeId(20), |node, ctx| {
            disseminate(ctx, node, arch.fragments.clone(), &sites)
        });
        // run_for rather than run_to_quiescence: a sweeper's periodic
        // timer keeps the queue non-empty forever.
        sim.run_for(SimDuration::from_secs(1));
        (guid, holders)
    }

    #[test]
    fn store_and_fetch() {
        let mut sim = build(1);
        sim.start();
        let (guid, holders) = disseminated(&mut sim);
        for &h in &holders {
            assert!(sim.node(h).holds(&guid), "holder {h}");
        }
        let start = sim.now();
        sim.with_node_ctx(NodeId(20), |node, ctx| {
            node.fetch(ctx, 1, guid, codec(), &holders, 0);
        });
        sim.run_to_quiescence(10_000);
        let out = sim.node(NodeId(20)).outcome(1).expect("fetch completed");
        assert_eq!(out.data.as_slice(), payload());
        assert_eq!(
            out.completed_at.saturating_since(start).as_millis(),
            60,
            "one RTT at 30 ms"
        );
    }

    #[test]
    fn survives_losing_all_parity_holders() {
        let mut sim = build(2);
        sim.start();
        let (guid, holders) = disseminated(&mut sim);
        // Kill the last n-k holders.
        for &h in &holders[K..] {
            sim.set_down(h, true);
        }
        sim.with_node_ctx(NodeId(20), |node, ctx| {
            node.fetch(ctx, 2, guid, codec(), &holders, N - K);
        });
        sim.run_to_quiescence(10_000);
        let out = sim.node(NodeId(20)).outcome(2).expect("reconstruction");
        assert_eq!(out.data.as_slice(), payload());
    }

    #[test]
    fn extra_requests_beat_drops() {
        // With 20% message drops and no extras, a fetch of exactly k often
        // stalls; with the full n requested it usually completes. (§5:
        // "issuing requests for extra fragments proved beneficial due to
        // dropped requests".)
        let trials = 12;
        let mut no_extra_ok = 0;
        let mut extra_ok = 0;
        for t in 0..trials {
            for (extra, counter) in [(0usize, &mut no_extra_ok), (N - K, &mut extra_ok)] {
                let mut sim = build(100 + t);
                sim.start();
                let (guid, holders) = disseminated(&mut sim);
                sim.set_drop_prob(0.2);
                sim.with_node_ctx(NodeId(20), |node, ctx| {
                    node.fetch(ctx, 7, guid, codec(), &holders, extra);
                });
                sim.run_to_quiescence(100_000);
                if sim.node(NodeId(20)).outcome(7).is_some() {
                    *counter += 1;
                }
            }
        }
        assert!(extra_ok > no_extra_ok, "extra={extra_ok} vs none={no_extra_ok}");
        assert!(extra_ok >= 7, "extras should usually succeed: {extra_ok}/{trials}");
    }

    #[test]
    fn repair_sweep_restores_redundancy() {
        let mut sim = build(3);
        // Node 20 sweeps every 2 s over all storage nodes.
        sim.node_mut(NodeId(20)).enable_sweeper(
            SimDuration::from_secs(2),
            (0..20).map(NodeId).collect(),
        );
        sim.start();
        let (guid, holders) = disseminated(&mut sim);
        sim.node_mut(NodeId(20)).track(TrackedArchive {
            archive: guid,
            codec: codec(),
            holders: holders.clone(),
            repair_threshold: N - 2,
        });
        // Kill 4 holders: live (12) < threshold (14) ⇒ repair must fire.
        for &h in &holders[..4] {
            sim.set_down(h, true);
        }
        // Several sweep rounds: measure liveness, then repair.
        sim.run_for(SimDuration::from_secs(12));
        let new_holders = sim
            .node(NodeId(20))
            .tracked_holders(&guid)
            .expect("tracked")
            .to_vec();
        let live_new: Vec<NodeId> =
            new_holders.iter().copied().filter(|h| !sim.is_down(*h)).collect();
        assert!(
            live_new.len() >= N - 2,
            "repair must restore redundancy: {} live holders",
            live_new.len()
        );
        // And the data is fetchable from the new holders alone.
        sim.with_node_ctx(NodeId(20), |node, ctx| {
            node.fetch(ctx, 9, guid, codec(), &live_new, 4);
        });
        // run_for, not run_to_quiescence: the sweeper timer never drains.
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.node(NodeId(20)).outcome(9).expect("fetch").data.as_slice(), payload());
    }

    #[test]
    fn corrupted_responses_are_discarded() {
        // A malicious holder serves garbage; reconstruction still succeeds
        // from honest fragments and is bit-correct.
        let mut sim = build(4);
        sim.start();
        let (guid, holders) = disseminated(&mut sim);
        // Corrupt node 0's stored fragment in place.
        let corrupt_holder = holders[0];
        let arch = archive_object(&codec(), &payload()).unwrap();
        let bogus = flipped(&arch.fragments[0], 0, 0x5a);
        sim.node_mut(corrupt_holder).seed_fragment(bogus);
        sim.with_node_ctx(NodeId(20), |node, ctx| {
            node.fetch(ctx, 11, guid, codec(), &holders, 4);
        });
        sim.run_to_quiescence(10_000);
        let out = sim.node(NodeId(20)).outcome(11).expect("completed");
        assert_eq!(out.data.as_slice(), payload());
    }

    /// A fragment whose bytes are another buffer — same archive, index,
    /// proof and length, one byte flipped — is hashed for real: a holder
    /// refuses to store it, and a reader served it recovers the exact
    /// bytes from the honest fragments.
    #[test]
    fn forged_bytes_are_refused_by_holder_and_reader() {
        let mut sim = build(5);
        sim.start();
        let (guid, holders) = disseminated(&mut sim);
        let arch = archive_object(&codec(), &payload()).unwrap();
        let forged = flipped(&arch.fragments[3], 17, 0x01);
        assert_eq!(forged.data.len(), arch.fragments[3].data.len());
        // Node 17 holds nothing: offered the forgery, it keeps nothing.
        let bystander = NodeId(17);
        sim.with_node_ctx(NodeId(20), |_, ctx| ctx.send(bystander, ArchMsg::Store(forged.clone())));
        sim.run_for(SimDuration::from_secs(1));
        assert!(!sim.node(bystander).holds(&guid), "a holder refuses forged bytes");
        assert_eq!(sim.node(bystander).stored_fragments(), 0);
        // Fragment 3's holder serves the forgery instead of its fragment.
        sim.node_mut(holders[3]).seed_fragment(forged);
        sim.with_node_ctx(NodeId(20), |node, ctx| {
            node.fetch(ctx, 12, guid, codec(), &holders, N - K);
        });
        sim.run_to_quiescence(10_000);
        let out = sim.node(NodeId(20)).outcome(12).expect("completed");
        assert_eq!(out.data.as_slice(), payload());
    }

    /// A holder that answers with another fragment's bytes and proof under
    /// its own index is not believed: the reader still recovers the exact
    /// bytes. The relabeled fragment is asked for first, so a reader that
    /// took it would decode from it.
    #[test]
    fn a_relabeled_response_does_not_corrupt_a_recovery() {
        let mut sim = build(6);
        sim.start();
        let (guid, holders) = disseminated(&mut sim);
        let arch = archive_object(&codec(), &payload()).unwrap();
        let relabeled = Fragment { index: 1, ..arch.fragments[9].clone() };
        sim.node_mut(holders[1]).seed_fragment(relabeled);
        let mut order = holders.clone();
        order.swap(0, 1);
        sim.with_node_ctx(NodeId(20), |node, ctx| {
            node.fetch(ctx, 13, guid, codec(), &order, N - K);
        });
        sim.run_to_quiescence(10_000);
        let out = sim.node(NodeId(20)).outcome(13).expect("completed");
        assert_eq!(out.data.as_slice(), payload());
    }
}
