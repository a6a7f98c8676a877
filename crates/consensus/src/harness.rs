//! Ready-made tier setup for tests and the Figure 6 experiment.

use std::collections::HashMap;

use oceanstore_crypto::schnorr::KeyPair;
use oceanstore_sim::{NodeId, SimDuration, Simulator, Topology};

use crate::client::Client;
use crate::messages::{Opaque, Payload, RequestId};
use crate::node::PbftNode;
use crate::replica::{CheckpointConfig, FaultMode, Replica, TierConfig};

/// The analytic cost model of §4.4.5:
/// `b = c1·n² + (u + c2)·n + c3` bytes per update.
///
/// `c1`, `c2`, `c3` are measured constants of the implementation; the
/// defaults below are derived from our actual message sizes and reproduce
/// the measured curves (see `EXPERIMENTS.md`).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Per-pair small-message constant (bytes).
    pub c1: f64,
    /// Per-replica constant overhead (bytes).
    pub c2: f64,
    /// Fixed constant (bytes).
    pub c3: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Two all-to-all phases of ~108-byte messages → c1 ≈ 216;
        // request + pre-prepare + reply per replica → c2 ≈ 3 × ~110.
        CostModel { c1: 216.0, c2: 330.0, c3: 0.0 }
    }
}

impl CostModel {
    /// Predicted bytes for an update of `u` bytes over `n` replicas.
    pub fn bytes(&self, n: usize, u: usize) -> f64 {
        let n = n as f64;
        self.c1 * n * n + (u as f64 + self.c2) * n + self.c3
    }

    /// Predicted cost normalized to the minimum (`u · n`), the y-axis of
    /// Figure 6.
    pub fn normalized(&self, n: usize, u: usize) -> f64 {
        self.bytes(n, u) / (u as f64 * n as f64)
    }
}

/// A constructed tier simulation: replicas at nodes `0..n`, the client at
/// node `n`.
pub struct TierSim {
    /// The driving simulator.
    pub sim: Simulator<PbftNode>,
    /// Tier configuration (membership, keys, quorums).
    pub cfg: TierConfig,
    /// The client's node id.
    pub client: NodeId,
}

/// Builds a `3m + 1`-replica tier plus one client on a uniform-latency WAN
/// mesh (§4.4.5 assumes "each message takes 100ms").
pub fn build_tier(m: usize, wan_latency: SimDuration, seed: u64) -> TierSim {
    build_tier_with_faults(m, wan_latency, seed, &[])
}

/// Like [`build_tier`], with fault modes applied to specific replica
/// indices.
pub fn build_tier_with_faults(
    m: usize,
    wan_latency: SimDuration,
    seed: u64,
    faults: &[(usize, FaultMode)],
) -> TierSim {
    build_tier_custom(m, wan_latency, seed, faults, CheckpointConfig::default())
}

/// Like [`build_tier_with_faults`], with explicit checkpoint/GC knobs
/// (long-horizon and rejoin tests shrink the interval so stable
/// checkpoints form within a reasonable number of slots).
pub fn build_tier_custom(
    m: usize,
    wan_latency: SimDuration,
    seed: u64,
    faults: &[(usize, FaultMode)],
    checkpoint: CheckpointConfig,
) -> TierSim {
    let n = 3 * m + 1;
    let client_node = NodeId(n);
    let topo = Topology::full_mesh(n + 1, wan_latency);
    let replica_keys: Vec<KeyPair> =
        (0..n).map(|i| KeyPair::from_seed(format!("tier-{seed}-replica-{i}").as_bytes())).collect();
    let client_key = KeyPair::from_seed(format!("tier-{seed}-client").as_bytes());
    let cfg = TierConfig {
        m,
        members: (0..n).map(NodeId).collect(),
        replica_keys: replica_keys.iter().map(KeyPair::public).collect(),
        client_keys: HashMap::from([(client_node, client_key.public())]),
        view_timeout: SimDuration::from_micros(wan_latency.as_micros() * 20),
        checkpoint,
    };
    let mut nodes: Vec<PbftNode> = replica_keys
        .into_iter()
        .enumerate()
        .map(|(i, kp)| {
            let fault = faults
                .iter()
                .find(|(idx, _)| *idx == i)
                .map(|(_, f)| *f)
                .unwrap_or_default();
            PbftNode::Replica(Replica::new(cfg.clone(), i, kp, fault, Opaque))
        })
        .collect();
    nodes.push(PbftNode::Client(Client::new(cfg.clone(), client_key, Opaque)));
    let mut sim = Simulator::new(topo, nodes, seed);
    sim.start();
    TierSim { sim, cfg, client: client_node }
}

/// Result of running updates through a tier.
#[derive(Debug, Clone)]
pub struct UpdateRun {
    /// Total bytes across the network for the run.
    pub total_bytes: u64,
    /// Commit latency of each update (client-observed), in order.
    pub latencies: Vec<SimDuration>,
    /// Request ids, in submission order.
    pub ids: Vec<RequestId>,
}

/// Submits `count` updates of `update_size` bytes sequentially and returns
/// byte/latency measurements. This is the Figure 6 measurement kernel.
///
/// # Panics
///
/// Panics if any update fails to commit (cannot happen with honest
/// replicas).
pub fn run_updates(ts: &mut TierSim, update_size: usize, count: usize) -> UpdateRun {
    ts.sim.reset_stats();
    let mut ids = Vec::with_capacity(count);
    let mut latencies = Vec::with_capacity(count);
    for _ in 0..count {
        let payload = Payload::simulated(update_size);
        let client = ts.client;
        let id = ts.sim.with_node_ctx(client, |node, ctx| {
            node.as_client_mut().expect("client node").submit(ctx, payload)
        });
        ts.sim.run_to_quiescence(1_000_000);
        let outcome = ts
            .sim
            .node(client)
            .as_client()
            .expect("client node")
            .outcome(id)
            .copied()
            .unwrap_or_else(|| panic!("update {id:?} did not commit"));
        latencies.push(outcome.committed_at.saturating_since(outcome.sent_at));
        ids.push(id);
    }
    UpdateRun { total_bytes: ts.sim.stats().total_bytes(), latencies, ids }
}

/// Submits `count` updates in batches of `batch`, letting each batch run
/// to quiescence before the next. The long-horizon kernel: thousands of
/// slots commit without per-update round-trip accounting, which is what
/// checkpoint/GC behaviour is measured against.
///
/// # Panics
///
/// Panics if any update fails to commit.
pub fn run_updates_batched(
    ts: &mut TierSim,
    update_size: usize,
    count: usize,
    batch: usize,
) -> UpdateRun {
    assert!(batch > 0, "batch must be positive");
    ts.sim.reset_stats();
    let mut ids = Vec::with_capacity(count);
    let mut latencies = Vec::with_capacity(count);
    let client = ts.client;
    let mut submitted = 0;
    while submitted < count {
        let round = batch.min(count - submitted);
        let mut round_ids = Vec::with_capacity(round);
        for _ in 0..round {
            let payload = Payload::simulated(update_size);
            let id = ts.sim.with_node_ctx(client, |node, ctx| {
                node.as_client_mut().expect("client node").submit(ctx, payload)
            });
            round_ids.push(id);
        }
        ts.sim.run_to_quiescence(10_000_000);
        for id in round_ids {
            let outcome = ts
                .sim
                .node(client)
                .as_client()
                .expect("client node")
                .outcome(id)
                .copied()
                .unwrap_or_else(|| panic!("update {id:?} did not commit"));
            latencies.push(outcome.committed_at.saturating_since(outcome.sent_at));
            ids.push(id);
        }
        submitted += round;
    }
    UpdateRun { total_bytes: ts.sim.stats().total_bytes(), latencies, ids }
}
