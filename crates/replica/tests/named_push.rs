//! The tree carries the order, the rumor carries the bytes.
//!
//! A secondary parent pushes a record whose update outweighs the rest of
//! it to its push-mode children by name: a [`ReplicaMsg::Commit`] whose
//! record has no update bytes ([`CommitRecord::by_name`]). A child takes
//! them from the rumor it logged, checks them as it checks bytes that
//! came with a record, and fetches the whole record from its parent when
//! it holds none that pass. A small update still travels whole.
//!
//! The deployments are six secondaries in a heap-ordered binary tree:
//! the primaries push to secondary 0 (the root), which feeds 1 and 2;
//! secondary 1 feeds 3 and 4. Every node's replication role sits in a
//! [`Tap`] that logs the tree pushes and fetches it hears.

use std::sync::Arc;

use oceanstore_naming::guid::Guid;
use oceanstore_replica::messages::ReplicaTimer;
use oceanstore_replica::{
    build_deployment_with, CommitRecord, Deployment, DeploymentOpts, OceanNode, ReplicaMsg,
    RoleHost, TentativeId,
};
use oceanstore_sim::{Context, Message, NodeId, Protocol, SimDuration, SimTime};
use oceanstore_update::object::Block;
use oceanstore_update::update::Action;
use oceanstore_update::{encode_update, Update};

/// A tree message one node heard, as the receiver logged it.
#[derive(Debug, Clone)]
struct Heard {
    at: SimTime,
    from: NodeId,
    what: Kind,
    wire_size: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Kind {
    /// A whole record pushed down the tree, with its update's length.
    Commit(usize),
    /// A record pushed by name: a `Commit` without its update bytes.
    Named,
    /// A request for records.
    Fetch,
}

/// The replication role, with a log of the tree traffic it hears.
struct Tap {
    role: OceanNode,
    heard: Vec<Heard>,
}

impl Protocol for Tap {
    type Msg = ReplicaMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ReplicaMsg>) {
        self.role.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ReplicaMsg>, from: NodeId, msg: ReplicaMsg) {
        let what = match &msg {
            ReplicaMsg::Commit { record, .. } if record.update.is_empty() => Some(Kind::Named),
            ReplicaMsg::Commit { record, .. } => Some(Kind::Commit(record.update.len())),
            ReplicaMsg::FetchCommits { .. } => Some(Kind::Fetch),
            _ => None,
        };
        if let Some(what) = what {
            self.heard.push(Heard { at: ctx.now(), from, what, wire_size: msg.wire_size() });
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

/// A deployment whose client rumors each update to `fanout` secondaries,
/// with anti-entropy stretched past every horizon below, so only the
/// tree and the fetches it triggers deliver records.
fn tapped(fanout: usize) -> Dep {
    let opts = DeploymentOpts {
        anti_entropy: Some(SimDuration::from_secs(120)),
        ..DeploymentOpts::default()
    };
    let mut dep = build_deployment_with(&opts, |_, role| Tap { role, heard: Vec::new() });
    let client = dep.clients[0];
    dep.sim.node_mut(client).role.as_client_mut().expect("client").set_tentative_fanout(fanout);
    dep
}

fn append(byte: u8, len: usize) -> Update {
    Update::unconditional(vec![Action::Append { ciphertext: vec![byte; len] }])
}

/// How many records of `object` the node at `id` has applied.
fn held(dep: &Dep, id: NodeId, object: &Guid) -> u64 {
    dep.secondary(id).store.get(object).map_or(0, |st| st.next_index)
}

/// What `to` heard from `from`, of one kind.
fn heard<'a>(dep: &'a Dep, to: NodeId, from: NodeId, what: &'a Kind) -> Vec<&'a Heard> {
    dep.sim.node(to).heard.iter().filter(|h| h.from == from && &h.what == what).collect()
}

/// The tree edges of the six-secondary heap: (parent, child).
fn edges(dep: &Dep) -> Vec<(NodeId, NodeId)> {
    let s = &dep.secondaries;
    vec![(s[0], s[1]), (s[0], s[2]), (s[1], s[3]), (s[1], s[4]), (s[2], s[5])]
}

fn no_rejects(dep: &Dep) {
    for &s in &dep.secondaries {
        assert_eq!(dep.secondary(s).rejected_count(), 0, "{s:?} rejected a record");
    }
}

#[test]
fn a_child_that_holds_the_rumor_applies_a_named_push_without_fetching() {
    // Every secondary hears the rumor from the client itself, one link
    // latency after the submit: long before agreement ends.
    let mut dep = tapped(6);
    let object = Guid::from_label("rumored");
    dep.submit(dep.clients[0], object, &append(7, 1024));
    dep.sim.run_for(SimDuration::from_secs(2));
    for (parent, child) in edges(&dep) {
        assert_eq!(held(&dep, child, &object), 1, "{child:?} lacks the record");
        assert_eq!(heard(&dep, child, parent, &Kind::Named).len(), 1, "one push by name");
        let whole = dep.sim.node(child).heard.iter().filter(|h| h.from == parent);
        assert_eq!(whole.filter(|h| matches!(h.what, Kind::Commit(_))).count(), 0, "no bytes");
    }
    for &s in &dep.secondaries {
        let fetches = dep.sim.node(s).heard.iter().filter(|h| h.what == Kind::Fetch).count();
        assert_eq!(fetches, 0, "{s:?} was asked for records");
    }
    // The blocks every child holds are the rumor's bytes, and so the
    // client's: they verified against the certificate.
    for &s in &dep.secondaries {
        let version = dep.secondary(s).committed_view(&object).expect("replicated").current();
        let Block::Data(bytes) = &version.blocks[0] else { panic!("an append stores data") };
        assert_eq!(bytes.as_slice(), &[7; 1024][..]);
    }
    no_rejects(&dep);
}

#[test]
fn a_child_the_rumor_never_reached_fetches_once_and_streams_onward() {
    // No secondary hears the rumor: the root takes the record whole from
    // the primaries, and every push below it goes by name.
    let mut dep = tapped(0);
    let object = Guid::from_label("unrumored");
    dep.submit(dep.clients[0], object, &append(8, 1024));
    dep.sim.run_for(SimDuration::from_secs(2));
    let (root, child) = (dep.secondaries[0], dep.secondaries[1]);
    assert_eq!(heard(&dep, child, root, &Kind::Named).len(), 1, "the root pushes by name");
    assert_eq!(heard(&dep, root, child, &Kind::Fetch).len(), 1, "the child fetches once");
    assert_eq!(held(&dep, child, &object), 1);
    // The child applied the fetched record and streamed it onward, by
    // name again; its own children fetch from it in turn.
    for grandchild in [dep.secondaries[3], dep.secondaries[4]] {
        assert_eq!(heard(&dep, grandchild, child, &Kind::Named).len(), 1, "streamed onward");
        assert_eq!(heard(&dep, child, grandchild, &Kind::Fetch).len(), 1, "one fetch each");
        assert_eq!(held(&dep, grandchild, &object), 1, "{grandchild:?} lacks the record");
    }
    no_rejects(&dep);
}

#[test]
fn a_planted_rumor_under_the_records_id_is_fetched_over_not_rejected() {
    // No honest rumor: the only tentative copy anyone holds is the one
    // planted at secondary 1, under the record's own (timestamp, id).
    let mut dep = tapped(0);
    let object = Guid::from_label("planted");
    let timestamp = dep.sim.now().as_micros();
    let id = dep.submit(dep.clients[0], object, &append(9, 1024));
    let (root, child) = (dep.secondaries[0], dep.secondaries[1]);
    let planted = ReplicaMsg::Tentative {
        object,
        update: encode_update(&append(0xEE, 1024)).into(),
        timestamp,
        id: TentativeId { client: id.client, counter: id.seq },
    };
    dep.sim.inject(dep.secondaries[5], child, planted);
    dep.sim.run_for(SimDuration::from_millis(50));
    assert_eq!(dep.secondary(child).tentative_count(&object), 1, "the plant took");

    // Run until the root's push by name reaches the child.
    let pushed = loop {
        if let Some(h) = heard(&dep, child, root, &Kind::Named).first() {
            break h.at;
        }
        assert!(dep.sim.now() < SimTime::ZERO + SimDuration::from_secs(5), "no push came");
        dep.sim.run_for(SimDuration::from_millis(1));
    };
    // One round trip later the child holds the certified record: the
    // held bytes failed the check, so it fetched instead of dropping.
    let latency = DeploymentOpts::default().latency;
    let round_trip = pushed + latency + latency + SimDuration::from_millis(1);
    dep.sim.run_for(round_trip.saturating_since(dep.sim.now()));
    assert_eq!(held(&dep, child, &object), 1, "the child lacks the record a round trip on");
    assert_eq!(heard(&dep, root, child, &Kind::Fetch).len(), 1, "one fetch");
    let version = dep.secondary(child).committed_view(&object).expect("replicated").current();
    let Block::Data(bytes) = &version.blocks[0] else { panic!("an append stores data") };
    assert_eq!(bytes.as_slice(), &[9; 1024][..], "the certified bytes, not the plant");
    assert_eq!(dep.secondary(child).tentative_count(&object), 0, "the plant is reconciled");
    no_rejects(&dep);
}

#[test]
fn a_small_update_travels_with_its_bytes() {
    let mut dep = tapped(6);
    let (small, large) = (Guid::from_label("small"), Guid::from_label("large"));
    dep.submit(dep.clients[0], small, &append(1, 8));
    dep.submit(dep.clients[0], large, &append(2, 1024));
    dep.sim.run_for(SimDuration::from_secs(2));
    let (root, child) = (dep.secondaries[0], dep.secondaries[1]);
    let logged = |object: &Guid| -> Arc<CommitRecord> {
        dep.secondary(root).store.record(object, 0).expect("the root logged it").clone()
    };
    let (small_record, large_record) = (logged(&small), logged(&large));
    // An 8-byte append encodes to 22 bytes, under the 181 the rest of an
    // m = 1 record takes: it goes whole, at the size a push had before
    // names existed (the record and the 8-byte frontier).
    assert_eq!(small_record.update.len(), 22);
    assert_eq!(small_record.wire_size() - small_record.update.len(), 181);
    assert!(!small_record.is_large());
    let pushes = heard(&dep, child, root, &Kind::Commit(22));
    assert_eq!(pushes.len(), 1, "the small update's push carries its bytes");
    assert_eq!(pushes[0].wire_size, small_record.wire_size() + 8);
    assert_eq!(pushes[0].wire_size, 211);
    // The 1 KiB append goes by name: everything but its bytes.
    let named = heard(&dep, child, root, &Kind::Named);
    assert_eq!(named.len(), 1);
    assert_eq!(named[0].wire_size, large_record.wire_size() - large_record.update.len() + 8);
    assert_eq!(named[0].wire_size, 189);
    no_rejects(&dep);
}

#[test]
fn two_named_pushes_without_bytes_draw_one_fetch() {
    // Two updates of one object agreed together: the root pushes both by
    // name to a child that holds neither. The first push fetches from
    // the parent; the second, a gap while that fetch is in flight,
    // waits for its answer, which brings both records.
    let mut dep = tapped(0);
    let object = Guid::from_label("twice");
    dep.submit(dep.clients[0], object, &append(3, 1024));
    dep.submit(dep.clients[0], object, &append(4, 1024));
    dep.sim.run_for(SimDuration::from_secs(2));
    let (root, child) = (dep.secondaries[0], dep.secondaries[1]);
    let named = heard(&dep, child, root, &Kind::Named);
    assert_eq!(named.len(), 2, "both records pushed by name");
    let latency = DeploymentOpts::default().latency;
    assert!(named[1].at < named[0].at + latency + latency, "the second push beats the answer");
    assert_eq!(heard(&dep, root, child, &Kind::Fetch).len(), 1, "one fetch for both");
    assert_eq!(held(&dep, child, &object), 2, "the child lacks a record");
    no_rejects(&dep);
}
