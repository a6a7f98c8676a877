//! The rumor carries the name, a peer pulls the bytes once.
//!
//! A secondary rumors a large tentative update to its gossip peers by
//! name ([`ReplicaMsg::Heard`]). A peer that has not seen it asks the
//! announcer for the bytes once ([`ReplicaMsg::Want`]) and is answered
//! with the whole [`ReplicaMsg::Tentative`]. A push by name that finds no
//! bytes while such a request is outstanding is held until the answer
//! comes instead of fetching, and asks its pusher once the request
//! lapses; a gap fetch starts after the record that waits, and a batch
//! that lands above it is held too. A small update's rumor still travels
//! whole.
//!
//! The deployments are six secondaries in a heap-ordered binary tree:
//! the primaries push to secondary 0 (the root), which feeds 1 and 2;
//! secondary 1 feeds 3 and 4. Every node's replication role sits in a
//! [`Tap`] that logs what it hears and can hold back the whole rumors it
//! is sent until a number of pushes by name have been handled.

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

/// One message a node heard, as the receiver logged it.
#[derive(Debug, Clone)]
struct Heard {
    at: SimTime,
    from: NodeId,
    what: Kind,
    wire_size: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A whole rumor, with its update's length.
    Tentative(usize),
    /// A rumor by name.
    Name,
    /// A request for a named rumor's bytes.
    Want,
    /// A record pushed by name: a `Commit` without its update bytes.
    Named,
    /// A request for records.
    Fetch,
    /// A batch of records.
    Commits,
    /// Anything else.
    Other,
}

impl Kind {
    fn of(msg: &ReplicaMsg) -> Kind {
        match msg {
            ReplicaMsg::Tentative { update, .. } => Kind::Tentative(update.len()),
            ReplicaMsg::Heard { .. } => Kind::Name,
            ReplicaMsg::Want { .. } => Kind::Want,
            ReplicaMsg::Commit { record, .. } if record.update.is_empty() => Kind::Named,
            ReplicaMsg::FetchCommits { .. } => Kind::Fetch,
            ReplicaMsg::Commits { .. } => Kind::Commits,
            _ => Kind::Other,
        }
    }
}

/// The replication role, with a log of what it hears. While `hold` is
/// above zero, whole rumors wait in `held` until that many pushes by name
/// have been handled, then arrive in order.
struct Tap {
    role: OceanNode,
    heard: Vec<Heard>,
    hold: usize,
    held: Vec<(NodeId, ReplicaMsg)>,
    /// When the role handled the push by name that released `held`.
    released_at: Option<SimTime>,
    /// Records that arrived in a batch below the role's frontier: bytes
    /// it had applied already.
    stale_records: usize,
}

impl Protocol for Tap {
    type Msg = ReplicaMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ReplicaMsg>) {
        self.role.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ReplicaMsg>, from: NodeId, msg: ReplicaMsg) {
        let what = Kind::of(&msg);
        self.heard.push(Heard { at: ctx.now(), from, what, wire_size: msg.wire_size() });
        if self.hold > 0 && matches!(what, Kind::Tentative(_)) {
            self.held.push((from, msg));
            return;
        }
        if let (ReplicaMsg::Commits { records }, Some(s)) = (&msg, self.role.as_secondary()) {
            let next = |r: &CommitRecord| s.store.get(&r.object).map_or(0, |st| st.next_index);
            self.stale_records += records.iter().filter(|r| r.index < next(r)).count();
        }
        self.role.on_message(ctx, from, msg);
        if self.hold > 0 && what == Kind::Named {
            self.hold -= 1;
        }
        if self.hold == 0 && !self.held.is_empty() {
            self.released_at = Some(ctx.now());
            for (from, msg) in std::mem::take(&mut self.held) {
                self.role.on_message(ctx, from, msg);
            }
        }
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

/// A deployment whose client rumors each update to `fanout` secondaries.
fn tapped(opts: &DeploymentOpts, fanout: usize) -> Dep {
    let mut dep = build_deployment_with(opts, |_, role| Tap {
        role,
        heard: Vec::new(),
        hold: 0,
        held: Vec::new(),
        released_at: None,
        stale_records: 0,
    });
    let client = dep.clients[0];
    dep.sim.node_mut(client).role.as_client_mut().expect("client").set_tentative_fanout(fanout);
    dep
}

/// Anti-entropy stretched past every horizon below, so only rumors, the
/// tree and the fetches it triggers deliver bytes.
fn quiet() -> DeploymentOpts {
    DeploymentOpts { anti_entropy: Some(SimDuration::from_secs(120)), ..DeploymentOpts::default() }
}

fn append(byte: u8, len: usize) -> Update {
    Update::unconditional(vec![Action::Append { ciphertext: vec![byte; len] }])
}

/// What `to` heard, of one kind, from anyone.
fn heard(dep: &Dep, to: NodeId, what: Kind) -> Vec<&Heard> {
    dep.sim.node(to).heard.iter().filter(|h| h.what == what).collect()
}

/// The first block of `object` as the node at `id` committed it.
fn committed_block(dep: &Dep, id: NodeId, object: &Guid) -> Vec<u8> {
    let version = dep.secondary(id).committed_view(object).expect("replicated").current();
    let Block::Data(bytes) = &version.blocks[0] else { panic!("an append stores data") };
    bytes.as_slice().to_vec()
}

fn no_rejects(dep: &Dep) {
    for &s in &dep.secondaries {
        assert_eq!(dep.secondary(s).rejected_count(), 0, "{s:?} rejected a record");
    }
}

/// The rumor as the client sends it, for a test to plant at a peer.
fn rumor(object: Guid, update: &Update, timestamp: u64, id: TentativeId) -> ReplicaMsg {
    ReplicaMsg::Tentative { object, update: encode_update(update).into(), timestamp, id }
}

/// Submits `update` and returns its rumor's `(timestamp, id)`.
fn submit(dep: &mut Dep, object: Guid, update: &Update) -> (u64, TentativeId) {
    let timestamp = dep.sim.now().as_micros();
    let id = dep.submit(dep.clients[0], object, update);
    (timestamp, TentativeId { client: id.client, counter: id.seq })
}

#[test]
fn every_secondary_that_hears_the_name_receives_the_bytes_once() {
    let mut dep = tapped(&DeploymentOpts::default(), 3);
    let object = Guid::from_label("once");
    let update = append(4, 4096);
    let encoded = encode_update(&update).len();
    submit(&mut dep, object, &update);
    dep.sim.run_for(SimDuration::from_secs(3));
    let root = dep.secondaries[0];
    let mut named = 0;
    for &s in &dep.secondaries {
        if heard(&dep, s, Kind::Name).is_empty() {
            continue;
        }
        named += 1;
        assert_eq!(committed_block(&dep, s, &object), vec![4; 4096], "{s:?} lacks the bytes");
        // The bytes reach a secondary as a whole rumor (the client's, or
        // the answer to its one `Want`) or in a fetched batch; the root
        // also has them from the primaries' whole push.
        let log = &dep.sim.node(s).heard;
        let carried = log.iter().filter(|h| matches!(h.what, Kind::Tentative(_) | Kind::Commits));
        let bytes: usize = carried.map(|h| h.wire_size).sum();
        assert!(bytes < 2 * encoded, "{s:?} received the bytes twice: {bytes} B");
        if s != root {
            assert!(bytes >= encoded, "{s:?} got the bytes some other way: {bytes} B");
        }
        assert!(heard(&dep, s, Kind::Tentative(encoded)).len() <= 1, "{s:?}: two whole rumors");
        assert_eq!(dep.secondary(s).tentative_count(&object), 0, "{s:?} kept the rumor");
    }
    assert!(named >= 3, "only {named} secondaries heard the name");
    no_rejects(&dep);
}

#[test]
fn a_push_parked_on_a_want_applies_when_the_bytes_come() {
    // Nobody is seeded: the bytes are planted at secondary 5, which
    // names them to its peers, and secondary 1 is told the name. Its
    // answer is held back until the root's push by name has been
    // handled, so the push finds the request outstanding and waits.
    let mut dep = tapped(&quiet(), 0);
    let object = Guid::from_label("parked");
    let update = append(5, 1024);
    let (timestamp, id) = submit(&mut dep, object, &update);
    let (root, child, holder) = (dep.secondaries[0], dep.secondaries[1], dep.secondaries[5]);
    dep.sim.node_mut(child).hold = 1;
    dep.sim.inject(dep.clients[0], holder, rumor(object, &update, timestamp, id));
    dep.sim.inject(holder, child, ReplicaMsg::Heard { object, timestamp, id });
    dep.sim.run_for(SimDuration::from_secs(2));
    let named = heard(&dep, child, Kind::Named);
    assert_eq!(named.len(), 1, "one push by name");
    assert_eq!(dep.sim.node(child).released_at, Some(named[0].at), "the answer was held");
    let asked = heard(&dep, holder, Kind::Want).into_iter().filter(|h| h.from == child).count();
    assert_eq!(asked, 1, "one request");
    assert_eq!(committed_block(&dep, child, &object), vec![5; 1024]);
    assert!(heard(&dep, root, Kind::Fetch).iter().all(|h| h.from != child), "the child fetched");
    assert_eq!(dep.secondary(child).tentative_count(&object), 0, "the rumor is reconciled");
    no_rejects(&dep);
}

#[test]
fn a_gap_fetch_skips_a_record_parked_on_an_ask() {
    // Two updates of one object, rumored to nobody: secondary 1 asks
    // secondary 5 for the first one's bytes, and the answer is held back
    // until the root's pushes by name of both records have been handled.
    // The first push is held while the ask stands; the second lacks its
    // bytes and fetches, but from the record after the held one: once the
    // answer applies the first, the batch brings nothing the child holds.
    let mut dep = tapped(&quiet(), 0);
    let object = Guid::from_label("gap-after-ask");
    let first = append(8, 1024);
    let (timestamp, id) = submit(&mut dep, object, &first);
    submit(&mut dep, object, &append(9, 1024));
    let (root, child, holder) = (dep.secondaries[0], dep.secondaries[1], dep.secondaries[5]);
    dep.sim.node_mut(child).hold = 2;
    dep.sim.inject(dep.clients[0], holder, rumor(object, &first, timestamp, id));
    dep.sim.inject(holder, child, ReplicaMsg::Heard { object, timestamp, id });
    dep.sim.run_for(SimDuration::from_secs(2));
    let named = heard(&dep, child, Kind::Named);
    assert_eq!(named.len(), 2, "both records pushed by name");
    assert_eq!(dep.sim.node(child).released_at, Some(named[1].at), "the answer was held");
    let fetches: Vec<_> = heard(&dep, root, Kind::Fetch).into_iter().filter(|h| h.from == child).collect();
    assert_eq!(fetches.len(), 1, "one fetch");
    let batch = heard(&dep, child, Kind::Commits);
    assert_eq!(batch.len(), 1, "one batch");
    assert!(batch[0].at > named[1].at, "the answer landed before the batch");
    assert_eq!(dep.sim.node(child).stale_records, 0, "a batch re-sent a record the child held");
    assert_eq!(dep.secondary(child).store.get(&object).map(|s| s.next_index), Some(2));
    assert_eq!(committed_block(&dep, child, &object), vec![8; 1024]);
    no_rejects(&dep);
}

#[test]
fn a_want_to_a_peer_that_holds_nothing_draws_nothing() {
    // Secondary 5 names an update it never held. Secondary 1 asks it,
    // hears nothing back, and holds the root's push by name while the
    // ask stands. Once it lapses (one heartbeat interval), the held push
    // asks the root, which pushed the record and so holds its bytes.
    let mut dep = tapped(&DeploymentOpts::default(), 0);
    let object = Guid::from_label("empty");
    let (timestamp, id) = submit(&mut dep, object, &append(6, 1024));
    let (root, child, empty) = (dep.secondaries[0], dep.secondaries[1], dep.secondaries[5]);
    dep.sim.inject(empty, child, ReplicaMsg::Heard { object, timestamp, id });
    // Run until the root's push by name reaches the child, and one round
    // trip on: the push is held, so nothing was fetched.
    let pushed = loop {
        if let Some(h) = heard(&dep, child, Kind::Named).first() {
            break h.at;
        }
        assert!(dep.sim.now() < SimTime::ZERO + SimDuration::from_secs(5), "no push came");
        dep.sim.run_for(SimDuration::from_millis(1));
    };
    let latency = DeploymentOpts::default().latency;
    let round_trip = pushed + latency + latency + SimDuration::from_millis(1);
    dep.sim.run_for(round_trip.saturating_since(dep.sim.now()));
    assert!(dep.secondary(child).store.get(&object).is_none(), "the push did not wait");
    // The record is there by push time + one heartbeat interval (the ask
    // lapses) + two round trips.
    let heartbeat = dep.secondary(child).config().heartbeat_interval;
    let deadline = pushed + heartbeat + (latency + latency) + (latency + latency);
    dep.sim.run_for(deadline.saturating_since(dep.sim.now()));
    assert_eq!(committed_block(&dep, child, &object), vec![6; 1024], "the certified record");
    dep.sim.run_for(SimDuration::from_secs(3));
    let wants = heard(&dep, empty, Kind::Want);
    assert_eq!(wants.len(), 1, "one request");
    assert_eq!(wants[0].from, child);
    let answers = dep.sim.node(child).heard.iter().filter(|h| h.from == empty);
    assert_eq!(answers.filter(|h| matches!(h.what, Kind::Tentative(_))).count(), 0);
    assert_eq!(heard(&dep, child, Kind::Named).len(), 1, "one push by name");
    // The held push asked its pusher once, by name, and the bytes came
    // back once; nothing was fetched.
    let asked = heard(&dep, root, Kind::Want).into_iter().filter(|h| h.from == child).count();
    assert_eq!(asked, 1, "one ask of the pusher");
    let from_root = dep.sim.node(child).heard.iter().filter(|h| h.from == root);
    assert_eq!(from_root.filter(|h| matches!(h.what, Kind::Tentative(_))).count(), 1);
    assert!(heard(&dep, root, Kind::Fetch).iter().all(|h| h.from != child), "the push fetched");
    assert_eq!(dep.secondary(child).store.get(&object).map(|s| s.next_index), Some(1));
    no_rejects(&dep);
}

#[test]
fn records_after_a_push_parked_on_a_silent_announcer_follow_it() {
    // Two updates of one object, rumored to nobody. Secondary 5 names the
    // first to secondary 1 but holds nothing, so the root's push by name
    // of the first record waits in the hold-back on an ask that is never
    // answered. The second record lacks its bytes too and is fetched from
    // the record after the waiting one; that batch lands while the first
    // record is still missing, and is held. Once the ask lapses, the
    // waiting push asks the root for its bytes, and when they come both
    // records apply: by the second push + one heartbeat interval + two
    // round trips, each missing record having reached the child once.
    let mut dep = tapped(&quiet(), 0);
    let object = Guid::from_label("after-a-silent-announcer");
    let (timestamp, id) = submit(&mut dep, object, &append(10, 1024));
    submit(&mut dep, object, &append(11, 1024));
    let (root, child, empty) = (dep.secondaries[0], dep.secondaries[1], dep.secondaries[5]);
    dep.sim.inject(empty, child, ReplicaMsg::Heard { object, timestamp, id });
    let pushed = loop {
        if let [_, second] = heard(&dep, child, Kind::Named)[..] {
            break second.at;
        }
        assert!(dep.sim.now() < SimTime::ZERO + SimDuration::from_secs(5), "no pushes came");
        dep.sim.run_for(SimDuration::from_millis(1));
    };
    let batch = loop {
        if let Some(h) = heard(&dep, child, Kind::Commits).first() {
            break h.at;
        }
        assert!(dep.sim.now() < pushed + SimDuration::from_secs(1), "no batch came");
        dep.sim.run_for(SimDuration::from_millis(1));
    };
    let sec = dep.secondary(child);
    assert_eq!(sec.store.get(&object).map_or(0, |s| s.next_index), 0, "applied above a gap");
    assert_eq!(sec.held_count(&object), 2, "the push and the batch's record are held");
    let latency = DeploymentOpts::default().latency;
    let heartbeat = dep.secondary(child).config().heartbeat_interval;
    let deadline = pushed + heartbeat + (latency + latency) + (latency + latency);
    dep.sim.run_for(deadline.saturating_since(dep.sim.now()));
    let log = &dep.sim.node(child).heard;
    let answers: Vec<_> =
        log.iter().filter(|h| h.from == root && matches!(h.what, Kind::Tentative(_))).collect();
    assert_eq!(answers.len(), 1, "the root answered once");
    assert!(batch < answers[0].at, "the batch came after the bytes");
    assert_eq!(dep.secondary(child).store.get(&object).map(|s| s.next_index), Some(2));
    assert_eq!(dep.secondary(child).held_count(&object), 0);
    assert_eq!(committed_block(&dep, child, &object), vec![10; 1024]);
    dep.sim.run_for(SimDuration::from_secs(2));
    // Each missing record crossed the wire once: the first as the root's
    // answer, the second in the one batch, which the child asked for once.
    assert_eq!(heard(&dep, child, Kind::Commits).len(), 1, "a record was fetched again");
    let fetches = heard(&dep, root, Kind::Fetch).into_iter().filter(|h| h.from == child).count();
    assert_eq!(fetches, 1, "one fetch");
    assert_eq!(dep.sim.node(child).stale_records, 0, "a batch re-sent a record the child held");
    assert!(heard(&dep, empty, Kind::Want).iter().all(|h| h.from == child), "one asker");
    no_rejects(&dep);
}

#[test]
fn a_planted_answer_is_fetched_over_not_rejected() {
    // Secondary 5 holds other bytes under the update's own key and
    // answers secondary 1's request with them: the root's push by name
    // fails the check on those bytes, so the child fetches the record.
    let mut dep = tapped(&quiet(), 0);
    let object = Guid::from_label("planted-answer");
    let (timestamp, id) = submit(&mut dep, object, &append(7, 1024));
    let (root, child, planter) = (dep.secondaries[0], dep.secondaries[1], dep.secondaries[5]);
    dep.sim.inject(dep.clients[0], planter, rumor(object, &append(0xEE, 1024), timestamp, id));
    dep.sim.inject(planter, child, ReplicaMsg::Heard { object, timestamp, id });
    dep.sim.run_for(SimDuration::from_millis(100));
    let plant = encode_update(&append(0xEE, 1024)).len();
    assert_eq!(heard(&dep, child, Kind::Tentative(plant)).len(), 1, "the plant was answered");
    dep.sim.run_for(SimDuration::from_secs(2));
    assert_eq!(committed_block(&dep, child, &object), vec![7; 1024], "the certified bytes");
    let fetches = heard(&dep, root, Kind::Fetch);
    assert_eq!(fetches.iter().filter(|h| h.from == child).count(), 1, "one fetch");
    assert_eq!(dep.secondary(child).tentative_count(&object), 0, "the plant is reconciled");
    no_rejects(&dep);
}

#[test]
fn a_small_update_is_rumored_whole() {
    let mut dep = tapped(&quiet(), 3);
    let (small, large) = (Guid::from_label("small"), Guid::from_label("large"));
    let (_, small_id) = submit(&mut dep, small, &append(1, 8));
    dep.sim.run_for(SimDuration::from_secs(1));
    // An 8-byte append encodes to 22 bytes, under the 52 the rest of a
    // rumor takes: every rumor of it carries them, at the size a rumor
    // had before names existed.
    let whole = ReplicaMsg::rumor(small, encode_update(&append(1, 8)).into(), 0, small_id);
    assert!(matches!(whole, ReplicaMsg::Tentative { .. }));
    assert_eq!(whole.wire_size(), 74);
    let mut rumors = 0;
    for &s in &dep.secondaries {
        assert!(heard(&dep, s, Kind::Name).is_empty(), "{s:?} heard a name");
        assert!(heard(&dep, s, Kind::Want).is_empty(), "{s:?} was asked for bytes");
        for h in heard(&dep, s, Kind::Tentative(22)) {
            assert_eq!(h.wire_size, 74);
            rumors += 1;
        }
    }
    assert!(rumors > 3, "peers rumored it onward");
    // A 1 KiB append's rumor between peers is its name: 52 B.
    submit(&mut dep, large, &append(2, 1024));
    dep.sim.run_for(SimDuration::from_secs(1));
    let names: Vec<_> = dep.secondaries.iter().flat_map(|&s| heard(&dep, s, Kind::Name)).collect();
    assert!(!names.is_empty());
    assert!(names.iter().all(|h| h.wire_size == 52));
    no_rejects(&dep);
}
