//! The one place a two-tier deployment is assembled: tests, benches,
//! chaos and `core::OceanStore` (which wraps location and archival
//! around every role, [`build_deployment_with`]) all get their
//! primaries, secondaries and clients from here.
//!
//! One deployment is `rings` independent consensus rings (each a full PBFT
//! tier of `3m + 1` primaries) sharing a single secondary-tier substrate:
//! one binary dissemination tree, one epidemic peer set, one client
//! population. Objects are partitioned over the rings by a
//! [`ShardRouter`]; with `rings = 1` (the default) the layout, key seeds,
//! and schedule are bit-identical to the historical single-ring harness
//! that the pinned golden traces and chaos fingerprints depend on.

use std::collections::HashMap;

use oceanstore_consensus::client::ClientOutcome;
use oceanstore_consensus::messages::RequestId;
use oceanstore_consensus::replica::{CheckpointConfig, FaultMode, TierConfig};
use oceanstore_crypto::schnorr::KeyPair;
use oceanstore_naming::guid::{Guid, IdSet};
use oceanstore_sim::cluster::{tree_children, tree_grandparent, tree_parent, tree_sibling};
use oceanstore_sim::{ClusterSpec, Context, NodeId, Protocol, SimDuration, Simulator};
use oceanstore_update::Update;

use crate::client::UpdateClient;
use crate::config::{ChildMode, SecondaryConfig, SecondaryFault};
use crate::messages::ReplicaMsg;
use crate::node::OceanNode;
use crate::primary::Primary;
use crate::secondary::{RingView, Secondary};
use crate::shard::{mix, ShardRouter};
use crate::store::StoreHealth;

/// Deployment parameters: sizes, the mesh latency every deadline is
/// scaled from, and which secondaries are Byzantine. Every deployment
/// runs the same protocol — share failover, acked re-push, re-parenting
/// and checkpoints included; a crash, a partition or a lossy link comes
/// from a fault schedule or a link control on the built simulator.
#[derive(Debug, Clone)]
pub struct DeploymentOpts {
    /// Number of independent consensus rings sharing the secondary tier.
    pub rings: usize,
    /// Faults tolerated by each ring (ring size = 3m + 1 primaries).
    pub m: usize,
    /// Number of secondary replicas.
    pub secondaries: usize,
    /// Number of clients.
    pub clients: usize,
    /// Uniform one-way latency of the mesh.
    pub latency: SimDuration,
    /// Secondary indices fed by invalidation instead of full pushes.
    pub invalidate_leaves: Vec<usize>,
    /// Override for the secondaries' anti-entropy period (`None` keeps the
    /// [`SecondaryConfig`] default). Chaos scenarios stretch this to
    /// isolate the dissemination tree from the epidemic repair path.
    pub anti_entropy: Option<SimDuration>,
    /// Secondary indices that run [`SecondaryFault::ForgeOnServe`].
    pub byzantine_secondaries: Vec<usize>,
    /// Checkpoint/GC knobs of the primary tiers (long-horizon chaos
    /// scenarios shrink the interval).
    pub checkpoint: CheckpointConfig,
    /// RNG/key seed.
    pub seed: u64,
}

impl Default for DeploymentOpts {
    fn default() -> Self {
        DeploymentOpts {
            rings: 1,
            m: 1,
            secondaries: 6,
            clients: 1,
            latency: SimDuration::from_millis(20),
            invalidate_leaves: Vec::new(),
            anti_entropy: None,
            byzantine_secondaries: Vec::new(),
            checkpoint: CheckpointConfig::default(),
            seed: 1,
        }
    }
}

impl DeploymentOpts {
    /// The node-id layout these options build.
    pub fn spec(&self) -> ClusterSpec {
        ClusterSpec {
            rings: self.rings,
            ring_size: 3 * self.m + 1,
            secondaries: self.secondaries,
            clients: self.clients,
        }
    }
}

/// One consensus ring of a deployment.
pub struct Ring {
    /// Tier configuration of this ring.
    pub cfg: TierConfig,
    /// Node ids of this ring's primaries (tier order).
    pub primaries: Vec<NodeId>,
}

/// A constructed deployment of nodes `N`: the bare replication roles by
/// default, or whatever [`build_deployment_with`] wrapped around them.
pub struct Deployment<N: Protocol = OceanNode> {
    /// The driving simulator.
    pub sim: Simulator<N>,
    /// The consensus rings (ring 0 is the historical single ring).
    pub rings: Vec<Ring>,
    /// Object → ring assignment shared by clients, primaries, and
    /// secondaries.
    pub router: ShardRouter,
    /// Node ids of the secondaries (tree order: 0 is the root).
    pub secondaries: Vec<NodeId>,
    /// Node ids of the clients.
    pub clients: Vec<NodeId>,
    /// The clients' signing key pairs (parallel to `clients`).
    pub client_keys: Vec<KeyPair>,
}

impl<N: Protocol> Deployment<N> {
    /// Ring 0's tier configuration (the only ring in single-ring
    /// deployments, which is every test written before sharding).
    pub fn cfg(&self) -> &TierConfig {
        &self.rings[0].cfg
    }

    /// Ring 0's primaries (tier order).
    pub fn primaries(&self) -> &[NodeId] {
        &self.rings[0].primaries
    }

    /// Every primary of every ring, ring-major.
    pub fn all_primaries(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.rings.iter().flat_map(|r| r.primaries.iter().copied())
    }

    /// The ring index that owns `object`.
    pub fn ring_of(&self, object: &Guid) -> usize {
        self.router.ring_of(object)
    }

    /// The ring that owns `object`.
    pub fn ring_for(&self, object: &Guid) -> &Ring {
        &self.rings[self.ring_of(object)]
    }
}

/// A simulation node that hosts one replication role: the bare
/// [`OceanNode`], or a composite server that multiplexes other protocols
/// beside it. What the [`Deployment`] driver methods need to reach the
/// role inside whatever [`build_deployment_with`] wrapped around it.
pub trait RoleHost: Protocol {
    /// The hosted replication role.
    fn role(&self) -> &OceanNode;

    /// Runs `f` against the role with a context that sends
    /// [`ReplicaMsg`]s and arms the role's timers through the host.
    fn with_role<R>(
        &mut self,
        ctx: &mut Context<'_, Self::Msg>,
        f: impl FnOnce(&mut OceanNode, &mut Context<'_, ReplicaMsg>) -> R,
    ) -> R;
}

impl RoleHost for OceanNode {
    fn role(&self) -> &OceanNode {
        self
    }

    fn with_role<R>(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        f: impl FnOnce(&mut OceanNode, &mut Context<'_, ReplicaMsg>) -> R,
    ) -> R {
        f(self, ctx)
    }
}

/// The one driver surface: tests, chaos, the benchmark and
/// `core::OceanStore` submit, read outcomes, look roles up and sample
/// frontiers through these, whatever the node type.
impl<N: RoleHost> Deployment<N> {
    /// The primary at `id`; panics, like the two lookups below, if `id`
    /// hosts another role.
    pub fn primary(&self, id: NodeId) -> &Primary {
        self.sim.node(id).role().as_primary().expect("node is not a primary")
    }

    /// The secondary at `id`.
    pub fn secondary(&self, id: NodeId) -> &Secondary {
        self.sim.node(id).role().as_secondary().expect("node is not a secondary")
    }

    /// The client at `id`.
    pub fn client(&self, id: NodeId) -> &UpdateClient {
        self.sim.node(id).role().as_client().expect("node is not a client")
    }

    /// Submits `update` to `object` from the client at node `client`,
    /// along both paths of Figure 5a.
    pub fn submit(&mut self, client: NodeId, object: Guid, update: &Update) -> RequestId {
        self.sim.with_node_ctx(client, |node, ctx| {
            node.with_role(ctx, |role, ictx| {
                role.as_client_mut().expect("node is not a client").submit(ictx, object, update)
            })
        })
    }

    /// The committed outcome of a submitted request, once its client saw
    /// `m + 1` matching replies.
    pub fn outcome(&self, id: RequestId) -> Option<&ClientOutcome> {
        self.client(id.client).outcome(id)
    }

    /// Highest serialization index any *live* primary of the owning ring
    /// reached for `object` — the tier's authoritative frontier.
    pub fn frontier(&self, object: &Guid) -> u64 {
        let live = self.ring_for(object).primaries.iter().filter(|&&p| !self.sim.is_down(p));
        live.map(|&p| self.primary(p).store.get(object).map_or(0, |st| st.next_index))
            .max()
            .unwrap_or(0)
    }

    /// Replica-store health of every live primary (ring-major), then
    /// every live secondary.
    pub fn store_health(&self) -> impl Iterator<Item = (NodeId, StoreHealth)> + '_ {
        let primaries = self.all_primaries().map(|p| (p, &self.primary(p).store));
        let secondaries = self.secondaries.iter().map(|&s| (s, &self.secondary(s).store));
        primaries
            .chain(secondaries)
            .filter(|&(n, _)| !self.sim.is_down(n))
            .map(|(n, store)| (n, store.health()))
    }
}

/// Above this many secondaries the epidemic peer list is a deterministic
/// sample instead of "everyone else" — all-to-all peer lists are O(s²)
/// memory, which matters at the 2 000-node scale the benchmark drives.
/// Below the cap the historical full list is kept bit-identical.
const PEER_FULL_LIMIT: usize = 128;
/// Sampled peer-set size above [`PEER_FULL_LIMIT`].
const PEER_SAMPLE: usize = 16;

/// The epidemic peer set of secondary `j` out of `s`: everyone else when
/// the tier is small, otherwise a deterministic `PEER_SAMPLE`-sized sample
/// (seeded by the deployment seed, so schedules stay reproducible).
fn peer_set(secondaries: &[NodeId], j: usize, seed: u64) -> Vec<NodeId> {
    let s = secondaries.len();
    if s <= PEER_FULL_LIMIT {
        return secondaries.iter().copied().filter(|&p| p != secondaries[j]).collect();
    }
    let mut peers = Vec::with_capacity(PEER_SAMPLE);
    let mut chosen = IdSet::with_capacity_and_hasher(PEER_SAMPLE, Default::default());
    let mut k = 0u64;
    while peers.len() < PEER_SAMPLE.min(s - 1) {
        let cand = (mix(seed ^ ((j as u64) << 32) ^ k) % s as u64) as usize;
        k += 1;
        if cand != j && chosen.insert(cand) {
            peers.push(secondaries[cand]);
        }
    }
    peers
}

/// Builds a deployment: ring `r`'s primaries at nodes
/// `[r·(3m+1), (r+1)·(3m+1))`, secondaries next (in a binary dissemination
/// tree rooted at secondary 0, which all primaries feed), then clients.
pub fn build_deployment(opts: &DeploymentOpts) -> Deployment {
    build_deployment_with(opts, |_, role| role)
}

/// [`build_deployment`] with every finished role handed to `wrap` (in
/// node-id order) before the simulator starts — how a caller layers more
/// per-node protocols around the replication role without assembling the
/// roles itself.
pub fn build_deployment_with<N: Protocol>(
    opts: &DeploymentOpts,
    mut wrap: impl FnMut(NodeId, OceanNode) -> N,
) -> Deployment<N> {
    assert!(opts.rings >= 1, "need at least one ring");
    let spec = opts.spec();
    let n = spec.ring_size;
    let s = opts.secondaries;
    assert!(s >= 1, "need at least one secondary for the tree root");
    let total = spec.total();
    let topo = spec.mesh(opts.latency);
    let router = ShardRouter::new(opts.rings);

    let secondaries = spec.secondaries();
    let clients = spec.clients();

    // Ring 0 keeps the historical key seeds (pinned traces depend on
    // them); further rings get their own namespace.
    let ring_keys: Vec<Vec<KeyPair>> = (0..opts.rings)
        .map(|r| {
            (0..n)
                .map(|i| {
                    let label = if r == 0 {
                        format!("dep-{}-primary-{i}", opts.seed)
                    } else {
                        format!("dep-{}-ring{r}-primary-{i}", opts.seed)
                    };
                    KeyPair::from_seed(label.as_bytes())
                })
                .collect()
        })
        .collect();
    let client_keys: Vec<KeyPair> = (0..opts.clients)
        .map(|i| KeyPair::from_seed(format!("dep-{}-client-{i}", opts.seed).as_bytes()))
        .collect();
    // The agreement layer's own type, keyed as it chooses.
    let client_key_map: HashMap<NodeId, _> = clients
        .iter()
        .zip(&client_keys)
        .map(|(node, kp)| (*node, kp.public()))
        .collect();
    let rings: Vec<Ring> = (0..opts.rings)
        .map(|r| Ring {
            cfg: TierConfig {
                m: opts.m,
                members: spec.ring(r),
                replica_keys: ring_keys[r].iter().map(KeyPair::public).collect(),
                client_keys: client_key_map.clone(),
                view_timeout: SimDuration::from_micros(opts.latency.as_micros() * 30),
                checkpoint: opts.checkpoint.clone(),
            },
            primaries: spec.ring(r),
        })
        .collect();
    // What the shared secondary tier knows of each ring: whose keys certify
    // its records and whom a push of them is acked to.
    let ring_views: Vec<RingView> = rings
        .iter()
        .map(|r| RingView {
            members: r.primaries.clone(),
            keys: r.cfg.replica_keys.clone(),
            m: opts.m,
        })
        .collect();

    // Binary tree over the secondaries (heap indexing).
    let child_mode = |j: usize| {
        if opts.invalidate_leaves.contains(&j) {
            ChildMode::Invalidate
        } else {
            ChildMode::Push
        }
    };
    let mut nodes: Vec<OceanNode> = Vec::with_capacity(total);
    // The share retry deadline must outlast a disseminator's normal
    // assembly round-trip (share in, commit out) or healthy records
    // double-send.
    let share_retry_timeout = SimDuration::from_micros(opts.latency.as_micros() * 25);
    // The ack deadline must exceed one push+ack round trip (2 × latency)
    // or healthy records double-send; 3 × latency gives one-way slack
    // while keeping dropped-push recovery at roughly one RTT + backoff
    // step instead of one anti-entropy period.
    let ack_timeout = SimDuration::from_micros(opts.latency.as_micros() * 3);
    let anti_entropy = opts.anti_entropy.unwrap_or(SecondaryConfig::default().anti_entropy_interval);
    for (r, keys) in ring_keys.into_iter().enumerate() {
        for (i, kp) in keys.into_iter().enumerate() {
            // Primaries gossip certified records among themselves on the
            // same cadence as the tree's epidemic layer — the catch-up
            // path for a member whose agreement replica missed commits
            // for good.
            nodes.push(OceanNode::Primary(Primary::new(
                rings[r].cfg.clone(),
                i,
                kp,
                FaultMode::Honest,
                vec![(secondaries[0], child_mode(0))],
                router,
                r,
                share_retry_timeout,
                ack_timeout,
                anti_entropy,
            )));
        }
    }
    for j in 0..s {
        let parent = match tree_parent(j) {
            None => rings[0].primaries[0],
            Some(p) => secondaries[p],
        };
        // Grandparent in the heap tree: the parent's parent; the root's
        // parent is a primary, so its children fall straight through to
        // the primary ring.
        let grandparent = tree_parent(j).map(|p| match tree_grandparent(j) {
            None if p == 0 => rings[0].primaries[0],
            None => secondaries[0],
            Some(g) => secondaries[g],
        });
        // The other child of the same parent, if it exists.
        let siblings: Vec<NodeId> =
            tree_sibling(j, s).map(|sib| secondaries[sib]).into_iter().collect();
        let children: Vec<(NodeId, ChildMode)> =
            tree_children(j, s).map(|c| (secondaries[c], child_mode(c))).collect();
        let peers = peer_set(&secondaries, j, opts.seed);
        let scfg = SecondaryConfig {
            parent: Some(parent),
            children,
            peers,
            anti_entropy_interval: anti_entropy,
            grandparent,
            siblings,
            fallback_parents: rings[0].primaries.clone(),
            heartbeat_interval: SimDuration::from_micros(opts.latency.as_micros() * 5),
            parent_timeout: SimDuration::from_micros(opts.latency.as_micros() * 25),
            fault: if opts.byzantine_secondaries.contains(&j) {
                SecondaryFault::ForgeOnServe
            } else {
                SecondaryFault::Honest
            },
        };
        nodes.push(OceanNode::Secondary(Secondary::new(scfg, ring_views.clone(), router)));
    }
    for kp in &client_keys {
        let mut c = UpdateClient::new(
            rings.iter().map(|r| r.cfg.clone()).collect(),
            router,
            kp.clone(),
            secondaries.clone(),
        );
        c.enable_retransmit(SimDuration::from_micros(opts.latency.as_micros() * 60));
        nodes.push(OceanNode::Client(c));
    }

    let nodes = nodes.into_iter().enumerate().map(|(i, role)| wrap(NodeId(i), role)).collect();
    let mut sim = Simulator::new(topo, nodes, opts.seed);
    sim.start();
    Deployment { sim, rings, router, secondaries, clients, client_keys }
}
