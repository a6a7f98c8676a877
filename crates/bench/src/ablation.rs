//! Ablations of two design choices the paper calls out.
//!
//! * **Salted replicated roots** (§4.3.3): "it hashes each GUID with a
//!   small number of different salt values ... thus gaining redundancy".
//!   We knock out the primary root and measure locate success as a
//!   function of the salt count.
//! * **Invalidation at the leaves** (§4.4.3): "dissemination trees
//!   transform updates into invalidations ... at the leaves of the network
//!   where bandwidth is limited". We measure the bytes a leaf receives
//!   when pushed full updates vs invalidations (paying a pull only on
//!   read).

use std::sync::Arc;

use oceanstore_naming::guid::Guid;
use oceanstore_plaxton::build::{build_network, find_root};
use oceanstore_plaxton::protocol::PlaxtonConfig;
use oceanstore_replica::harness::{build_deployment, DeploymentOpts};
use oceanstore_sim::{NodeId, SimDuration, Simulator, Topology};
use oceanstore_update::update::Action;
use oceanstore_update::Update;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Result of the salted-roots ablation.
#[derive(Debug, Clone)]
pub struct SaltRow {
    /// Salt count (1 = the single-root strawman).
    pub salts: u32,
    /// Locate attempts after the primary root died.
    pub queries: usize,
    /// Attempts that still found the replica.
    pub successes: usize,
}

/// Kills each object's primary (salt-0) root, then measures locate
/// success for varying salt counts.
pub fn salted_roots(salt_counts: &[u32], nodes: usize, queries: usize, seed: u64) -> Vec<SaltRow> {
    let mut out = Vec::new();
    for &salts in salt_counts {
        let cfg = PlaxtonConfig { salts, ..PlaxtonConfig::default() };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let topo = Arc::new(Topology::random_geometric(
            nodes,
            0.25,
            SimDuration::from_millis(20),
            &mut rng,
        ));
        let (net, _) = build_network(&topo, &cfg, seed);
        let object = Guid::from_label("salt-ablation-object");
        let primary_root = find_root(&net, &object.salted(0), NodeId(0));
        let mut rng2 = ChaCha8Rng::seed_from_u64(seed);
        let topo2 =
            Topology::random_geometric(nodes, 0.25, SimDuration::from_millis(20), &mut rng2);
        let mut sim = Simulator::new(topo2, net, seed);
        sim.start();
        let holder = if primary_root == NodeId(3) { NodeId(4) } else { NodeId(3) };
        sim.with_node_ctx(holder, |n, ctx| n.publish(ctx, object));
        sim.run_for(SimDuration::from_secs(2));
        // Kill the primary root and let failure detection settle.
        sim.set_down(primary_root, true);
        sim.run_for(SimDuration::from_secs(16));
        let mut successes = 0;
        let mut issued = 0;
        let mut qid = 0u64;
        for _ in 0..queries {
            let origin = NodeId(rng.gen_range(0..nodes));
            if origin == primary_root || origin == holder {
                continue;
            }
            issued += 1;
            qid += 1;
            sim.with_node_ctx(origin, |n, ctx| n.locate(ctx, qid, object));
            sim.run_for(SimDuration::from_secs(4));
            if sim
                .node(origin)
                .outcome(qid)
                .is_some_and(|o| o.holder == Some(holder))
            {
                successes += 1;
            }
        }
        out.push(SaltRow { salts, queries: issued, successes });
    }
    out
}

/// Result of the invalidation ablation.
#[derive(Debug, Clone)]
pub struct InvalidationRow {
    /// Whether the leaf was fed invalidations instead of full pushes.
    pub invalidate_mode: bool,
    /// Update payload size.
    pub update_size: usize,
    /// Bytes the leaf received during the quiet (no-read) phase.
    pub leaf_bytes_no_read: u64,
}

/// Pushes one large update through the tree with the leaf in each mode
/// and meters the leaf's inbound bytes before any read forces a pull.
pub fn invalidation_bandwidth(update_size: usize, seed: u64) -> Vec<InvalidationRow> {
    let mut out = Vec::new();
    for invalidate in [false, true] {
        let mut dep = build_deployment(&DeploymentOpts {
            secondaries: 6,
            invalidate_leaves: if invalidate { vec![5] } else { vec![] },
            seed,
            ..DeploymentOpts::default()
        });
        let leaf = dep.secondaries[5];
        let object = Guid::from_label("invalidation-ablation");
        let update = Update::unconditional(vec![Action::Append {
            ciphertext: vec![0xAB; update_size],
        }]);
        let client = dep.clients[0];
        // Isolate the dissemination tree: no tentative copies, so every
        // byte the leaf sees comes from its tree feed.
        dep.sim
            .node_mut(client)
            .as_client_mut()
            .expect("client")
            .set_tentative_fanout(0);
        dep.sim.reset_stats();
        dep.submit(client, object, &update);
        // Let the commit + tree push land, but stop before the leaf's
        // periodic anti-entropy pull (500 ms tick) fires.
        dep.sim.run_for(SimDuration::from_millis(420));
        out.push(InvalidationRow {
            invalidate_mode: invalidate,
            update_size,
            leaf_bytes_no_read: dep.sim.stats().received_by(leaf),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_salts_survive_root_death() {
        let rows = salted_roots(&[1, 3], 40, 12, 9);
        let single = rows.iter().find(|r| r.salts == 1).unwrap();
        let triple = rows.iter().find(|r| r.salts == 3).unwrap();
        assert!(
            triple.successes > single.successes,
            "salted roots must add resilience: {rows:?}"
        );
        assert!(
            triple.successes as f64 >= 0.8 * triple.queries as f64,
            "three salts should almost always survive one dead root: {rows:?}"
        );
    }

    #[test]
    fn invalidation_saves_leaf_bandwidth() {
        let rows = invalidation_bandwidth(20_000, 5);
        let push = rows.iter().find(|r| !r.invalidate_mode).unwrap();
        let inval = rows.iter().find(|r| r.invalidate_mode).unwrap();
        assert!(
            inval.leaf_bytes_no_read * 10 < push.leaf_bytes_no_read,
            "invalidations must be far cheaper than a 20kB push: {rows:?}"
        );
    }
}
