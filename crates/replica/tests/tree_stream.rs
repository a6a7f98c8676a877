//! A streaming dissemination tree is its own heartbeat and loss detector.
//!
//! While a secondary's parent pushes, the child sends it no anti-entropy
//! digest and no ping. Each push from a secondary parent carries the
//! parent's committed frontier after it applied the record, so a child
//! that missed a push, or holds a record its parent lacks, finds out at
//! the next push and asks its parent with one digest. Once the tree goes
//! quiet, the periodic exchange runs as before.
//!
//! The deployments are six secondaries in a heap-ordered binary tree:
//! secondary 1 is the parent of secondaries 3 and 4, and 0 (the root) is
//! the parent of 1. Every node's replication role sits in a [`Tap`] that
//! logs the digests and pings it hears.

use std::sync::Arc;

use oceanstore_naming::guid::Guid;
use oceanstore_replica::{
    build_deployment, build_deployment_with, CommitRecord, Deployment, DeploymentOpts, OceanNode,
    ReplicaMsg, RoleHost,
};
use oceanstore_replica::messages::ReplicaTimer;
use oceanstore_sim::{Context, NodeId, Protocol, SimDuration, SimTime};
use oceanstore_update::update::Action;
use oceanstore_update::Update;

/// A probe one node sent another, as the receiver logged it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    Digest,
    Ping,
}

/// The replication role, with a log of the probes it hears.
struct Tap {
    role: OceanNode,
    heard: Vec<(SimTime, NodeId, Probe)>,
}

impl Protocol for Tap {
    type Msg = ReplicaMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ReplicaMsg>) {
        self.role.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ReplicaMsg>, from: NodeId, msg: ReplicaMsg) {
        let probe = match msg {
            ReplicaMsg::AntiEntropyDigest { .. } => Some(Probe::Digest),
            ReplicaMsg::Ping => Some(Probe::Ping),
            _ => None,
        };
        if let Some(probe) = probe {
            self.heard.push((ctx.now(), from, probe));
        }
        self.role.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ReplicaMsg>, timer: ReplicaTimer) {
        self.role.on_timer(ctx, timer);
    }
}

impl RoleHost for Tap {
    fn role(&self) -> &OceanNode {
        &self.role
    }

    fn with_role<R>(
        &mut self,
        ctx: &mut Context<'_, ReplicaMsg>,
        f: impl FnOnce(&mut OceanNode, &mut Context<'_, ReplicaMsg>) -> R,
    ) -> R {
        f(&mut self.role, ctx)
    }
}

type Dep = Deployment<Tap>;

fn tapped(opts: &DeploymentOpts) -> Dep {
    build_deployment_with(opts, |_, role| Tap { role, heard: Vec::new() })
}

/// Anti-entropy stretched past every horizon below, so only the stream
/// and the asks it triggers can repair anything.
fn no_periodic_exchange() -> DeploymentOpts {
    DeploymentOpts { anti_entropy: Some(SimDuration::from_secs(120)), ..DeploymentOpts::default() }
}

fn append(byte: u8) -> Update {
    Update::unconditional(vec![Action::Append { ciphertext: vec![byte] }])
}

/// How many records of `object` the node at `id` has applied.
fn held<N: RoleHost>(dep: &Deployment<N>, id: NodeId, object: &Guid) -> u64 {
    dep.secondary(id).store.get(object).map_or(0, |st| st.next_index)
}

/// Runs in 1 ms steps until `done` holds, and returns the time it did.
///
/// # Panics
///
/// Panics if it does not hold within 5 simulated seconds.
fn run_until<N: RoleHost + Send>(
    dep: &mut Deployment<N>,
    done: impl Fn(&Deployment<N>) -> bool,
) -> SimTime {
    for _ in 0..5_000 {
        if done(dep) {
            return dep.sim.now();
        }
        dep.sim.run_for(SimDuration::from_millis(1));
    }
    panic!("condition never held");
}

/// Commits `update` to `object` while the `parent`→`child` link drops
/// everything, and heals the link once the parent's push has gone.
fn commit_dropping_push<N: RoleHost + Send>(
    dep: &mut Deployment<N>,
    parent: NodeId,
    child: NodeId,
    object: Guid,
    update: &Update,
) {
    let before = held(dep, parent, &object);
    dep.sim.set_link_drop(parent, child, 1.0);
    dep.submit(dep.clients[0], object, update);
    run_until(dep, |d| held(d, parent, &object) > before);
    dep.sim.run_for(SimDuration::from_millis(2));
    dep.sim.set_link_drop(parent, child, 0.0);
    assert_eq!(held(dep, child, &object), before, "the push to the child was dropped");
}

/// Digest (request) → summary → fetch → records: two round trips.
fn two_round_trips(opts: &DeploymentOpts) -> SimDuration {
    SimDuration::from_micros(opts.latency.as_micros() * 4 + 1_000)
}

#[test]
fn a_push_lost_mid_stream_is_found_by_the_next_push() {
    let opts = no_periodic_exchange();
    let mut dep = tapped(&opts);
    let (parent, child) = (dep.secondaries[1], dep.secondaries[3]);
    let (first, lost, next) =
        (Guid::from_label("first"), Guid::from_label("lost"), Guid::from_label("next"));
    dep.submit(dep.clients[0], first, &append(1));
    dep.sim.run_for(SimDuration::from_secs(2));
    assert_eq!(held(&dep, child, &first), 1);

    // The push of `lost` dies on the parent→child edge. It is the only
    // record of its object, so no later push of the object shows a gap.
    commit_dropping_push(&mut dep, parent, child, lost, &append(2));
    dep.sim.run_for(SimDuration::from_millis(300));
    assert_eq!(held(&dep, child, &lost), 0, "nothing repairs the loss before the next push");

    // The next push, of another object, carries the parent's frontier.
    dep.submit(dep.clients[0], next, &append(3));
    let pushed = run_until(&mut dep, |d| held(d, child, &next) == 1);
    let repaired = run_until(&mut dep, |d| held(d, child, &lost) == 1);
    assert!(
        repaired.saturating_since(pushed) <= two_round_trips(&opts),
        "repaired {:?} after the next push",
        repaired.saturating_since(pushed)
    );
    let heard = &dep.sim.node(parent).heard;
    let asks = heard.iter().filter(|h| h.1 == child && h.2 == Probe::Digest && h.0 >= pushed);
    assert_eq!(asks.count(), 1, "one ask");
}

#[test]
fn a_streaming_child_sends_no_digest_and_no_ping_until_the_tree_goes_quiet() {
    let opts = DeploymentOpts::default();
    let mut dep = tapped(&opts);
    let object = Guid::from_label("stream");
    // One append every 40 ms for 3 s: pushes arrive more often than the
    // 100 ms heartbeat interval at 20 ms links.
    let mut sent = 0u8;
    for _ in 0..75 {
        dep.submit(dep.clients[0], object, &append(sent));
        sent += 1;
        dep.sim.run_for(SimDuration::from_millis(40));
    }
    let (child, parent) = (dep.secondaries[3], dep.secondaries[1]);
    let last = run_until(&mut dep, |d| held(d, child, &object) == u64::from(sent));
    dep.sim.run_for(SimDuration::from_secs(2));

    // Every secondary below the root has a secondary parent that pushed
    // all along. Between 1 s and the last push none of them sent a probe
    // to anyone.
    let children = &dep.secondaries[1..];
    let streaming = SimTime::ZERO + SimDuration::from_secs(1);
    for &node in &dep.secondaries {
        for &(at, from, probe) in &dep.sim.node(node).heard {
            assert!(
                !(children.contains(&from) && at > streaming && at < last),
                "{from:?} sent {probe:?} to {node:?} at {at:?} mid-stream"
            );
        }
    }
    // Once the parent stops, the next tick of each timer probes it again:
    // a ping within two heartbeat intervals of the last push, a digest
    // within two anti-entropy intervals.
    let first_after = |probe: Probe| {
        let heard = &dep.sim.node(parent).heard;
        heard.iter().find(|h| h.0 > last && h.1 == child && h.2 == probe).map(|h| h.0)
    };
    let ping = first_after(Probe::Ping).expect("the child pings a quiet parent");
    let digest = first_after(Probe::Digest).expect("the child digests a quiet parent");
    let cfg = dep.secondary(child).config().clone();
    let two = |interval: SimDuration| interval + interval + opts.latency;
    assert!(ping.saturating_since(last) <= two(cfg.heartbeat_interval), "{ping:?}");
    assert!(digest.saturating_since(last) <= two(cfg.anti_entropy_interval), "{digest:?}");
}

#[test]
fn a_child_ahead_of_its_parent_converges_both_ways() {
    let opts = no_periodic_exchange();
    // A twin of the deployment (same seed, same keys) certifies a record
    // this one's tier never saw: the record a peer handed the child.
    let foreign = Guid::from_label("from-a-peer");
    let record: Arc<CommitRecord> = {
        let mut twin = build_deployment(&DeploymentOpts { clients: 2, ..opts.clone() });
        twin.submit(twin.clients[1], foreign, &append(9));
        twin.sim.run_for(SimDuration::from_secs(2));
        let root = twin.secondaries[0];
        twin.secondary(root).store.records_from(&foreign, 0).pop().expect("twin committed")
    };

    let mut dep = tapped(&DeploymentOpts { clients: 2, ..opts.clone() });
    let (parent, child, sibling) = (dep.secondaries[1], dep.secondaries[3], dep.secondaries[4]);
    let (missed, next) = (Guid::from_label("missed"), Guid::from_label("next"));
    // The child misses one push of its parent's …
    commit_dropping_push(&mut dep, parent, child, missed, &append(1));
    dep.sim.run_for(SimDuration::from_millis(300));
    // … and takes a record its parent lacks from a peer.
    dep.sim.with_node_ctx(child, |node, ctx| {
        let sec = node.role.as_secondary_mut().expect("secondary");
        sec.on_commits(ctx, sibling, vec![record]);
    });
    assert_eq!((held(&dep, child, &foreign), held(&dep, parent, &foreign)), (1, 0));

    dep.submit(dep.clients[0], next, &append(2));
    let pushed = run_until(&mut dep, |d| held(d, child, &next) == 1);
    dep.sim.run_for(two_round_trips(&opts));
    for (node, name) in [(child, "child"), (parent, "parent"), (sibling, "sibling")] {
        for (object, what) in [(missed, "the missed push"), (foreign, "the peer's record")] {
            assert_eq!(held(&dep, node, &object), 1, "{name} lacks {what}");
        }
    }
    let frontier = |id| dep.secondary(id).store.committed_digest();
    assert_eq!(frontier(child), frontier(parent));
    let heard = &dep.sim.node(parent).heard;
    let asks = heard.iter().filter(|h| h.1 == child && h.2 == Probe::Digest && h.0 >= pushed);
    assert_eq!(asks.count(), 1, "one ask");
}
