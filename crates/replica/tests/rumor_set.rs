//! The rumor mill's memory. A secondary remembers the id of every rumor it
//! has seen, with its object's tentative log, so it stores and gossips
//! each rumor once; an id is forgotten when its record leaves the log,
//! and the stale-rumor rule refuses that rumor from then on. An id alone
//! is no tentative state: an object a secondary has only heard of by name
//! is in no summary it sends and adds no term to its digest.

use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::Guid;
use oceanstore_replica::{build_deployment, Deployment, DeploymentOpts, TentativeId};
use oceanstore_sim::{ClassStats, NodeId, SimDuration};
use oceanstore_update::update::Action;
use oceanstore_update::{encode_update, Update};

fn append(tag: u8) -> Update {
    Update::unconditional(vec![Action::Append { ciphertext: vec![tag; 8] }])
}

/// What `node` has sent of message class `class` so far.
fn sent(dep: &Deployment, node: NodeId, class: &str) -> ClassStats {
    dep.sim.stats().class_sent_by(node, class)
}

/// Hands `node` the whole rumor of an update, as a peer would.
fn rumor(dep: &mut Deployment, node: NodeId, object: Guid, update: Bytes, at: u64, id: TentativeId) {
    dep.sim.with_node_ctx(node, |n, ctx| {
        let role = n.as_secondary_mut().expect("node is a secondary");
        role.on_tentative(ctx, object, update, at, id);
    });
}

/// Hands `node` a peer's anti-entropy digest.
fn digest(dep: &mut Deployment, node: NodeId, from: NodeId, digest: u64) {
    dep.sim.with_node_ctx(node, |n, ctx| {
        n.as_secondary_mut().expect("node is a secondary").on_digest(ctx, from, digest);
    });
}

/// A rumor whose record has not committed is stored and gossiped the
/// first time it arrives, and refused every time after.
#[test]
fn a_duplicate_rumor_is_refused_before_its_record_commits() {
    let mut dep = build_deployment(&DeploymentOpts::default());
    let node = dep.secondaries[4];
    let object = Guid::from_label("uncommitted");
    let update = Bytes::from(encode_update(&append(1)));
    let id = TentativeId { client: NodeId(0), counter: 77 };
    let gossiped = |dep: &Deployment| sent(dep, node, "replica/tentative").messages;
    let before = gossiped(&dep);
    rumor(&mut dep, node, object, update.clone(), 5, id);
    let first = gossiped(&dep) - before;
    assert!(first > 0, "a fresh rumor is gossiped");
    assert_eq!(dep.secondary(node).tentative_count(&object), 1);
    for _ in 0..3 {
        rumor(&mut dep, node, object, update.clone(), 5, id);
    }
    assert_eq!(gossiped(&dep) - before, first, "a duplicate was gossiped again");
    assert_eq!(dep.secondary(node).tentative_count(&object), 1, "a duplicate was logged");
    assert_eq!(dep.secondary(node).rumors_seen(), 1);
}

/// A secondary that keeps two records below the certified frontier saw
/// every rumor of six commits; the ids of the records truncated are
/// forgotten, and a rumor of one of those records is refused: neither
/// logged nor gossiped.
#[test]
fn a_rumor_is_refused_after_its_record_is_truncated() {
    let mut dep = build_deployment(&DeploymentOpts::default());
    let (node, peer) = (dep.secondaries[4], dep.secondaries[0]);
    let role = dep.sim.node_mut(node).as_secondary_mut().expect("node is a secondary");
    role.store.set_record_retention(2);
    let object = Guid::from_label("truncated");
    for i in 0..6 {
        let id = dep.submit(dep.clients[0], object, &append(i));
        // Every rumor reaches `node`, whichever secondaries the client
        // and the gossip chose.
        let mut waited = 0;
        let record = loop {
            dep.sim.run_for(SimDuration::from_millis(50));
            waited += 1;
            assert!(waited < 100, "update {i} never committed");
            if let Some(r) = dep.secondary(peer).store.record(&object, u64::from(i)) {
                break r.clone();
            }
        };
        assert_eq!((record.id.client, record.id.counter), (id.client, id.seq));
        rumor(&mut dep, node, object, record.update.clone(), record.timestamp, record.id);
        dep.sim.run_for(SimDuration::from_millis(500));
    }
    dep.sim.run_for(SimDuration::from_secs(3));
    let st = dep.secondary(node).store.get(&object).expect("replicated");
    assert_eq!(st.next_index, 6);
    assert!(st.first_index > 0, "no record truncated");
    let retained = st.retained_records() as usize;
    assert_eq!(dep.secondary(node).rumors_seen(), retained, "a truncated record's id is kept");

    let record = dep.secondary(peer).store.record(&object, 0).expect("retained").clone();
    let before = sent(&dep, node, "replica/tentative").messages;
    rumor(&mut dep, node, object, record.update.clone(), record.timestamp, record.id);
    assert_eq!(sent(&dep, node, "replica/tentative").messages, before, "a stale rumor was gossiped");
    assert_eq!(dep.secondary(node).tentative_count(&object), 0, "a stale rumor was logged");
    assert_eq!(dep.secondary(node).rumors_seen(), retained, "a stale rumor was remembered");
}

/// An object heard of by name, whose bytes are asked for and not come, is
/// an id without a log: the summary the secondary sends does not list it,
/// and its digest — its committed frontier alone — draws no summary.
#[test]
fn an_id_without_a_log_is_no_tentative_state() {
    let mut dep = build_deployment(&DeploymentOpts::default());
    let (node, peer) = (dep.secondaries[4], dep.secondaries[0]);
    dep.submit(dep.clients[0], Guid::from_label("committed"), &append(1));
    dep.sim.run_for(SimDuration::from_secs(2));
    assert_eq!(dep.secondary(node).tentative_count(&Guid::from_label("committed")), 0);
    let summary = |dep: &mut Deployment| {
        let before = sent(dep, node, "replica/antientropy");
        digest(dep, node, peer, 0);
        let after = sent(dep, node, "replica/antientropy");
        assert_eq!(after.messages, before.messages + 1, "no summary");
        after.bytes - before.bytes
    };
    let silent = |dep: &mut Deployment| {
        let before = sent(dep, node, "replica/antientropy").messages;
        let ours = dep.secondary(node).store.committed_digest();
        digest(dep, node, peer, ours);
        sent(dep, node, "replica/antientropy").messages == before
    };
    let (listed, seen) = (summary(&mut dep), dep.secondary(node).rumors_seen());
    assert!(silent(&mut dep), "the digest holds a term besides the committed frontier");

    let heard = Guid::from_label("heard-of");
    let id = TentativeId { client: NodeId(0), counter: 99 };
    let wants = sent(&dep, node, "replica/want").messages;
    dep.sim.with_node_ctx(node, |n, ctx| {
        let role = n.as_secondary_mut().expect("node is a secondary");
        role.on_heard(ctx, peer, heard, 1, id);
    });
    assert_eq!(sent(&dep, node, "replica/want").messages, wants + 1, "the bytes are asked for");
    let role = dep.secondary(node);
    assert_eq!(role.rumors_seen(), seen + 1, "the id is remembered");
    assert_eq!(role.tentative_count(&heard), 0);
    assert_eq!(summary(&mut dep), listed, "the summary lists an object heard of by name");
    assert!(silent(&mut dep), "an id without a log adds a term to the digest");
}
