//! One want table: a secondary offers a large update by name unless
//! someone asked for it, a node that lacks a name records one ask and
//! sends it to one holder, and the answer carries the bytes.
//!
//! The copy ledger ([`Secondary::copy_ledger`]) counts the copies of a
//! large update that still reach a secondary already holding it. The
//! tests below bound it over a run whose updates meet anti-entropy
//! exchanges mid-flight, and pin the anti-entropy offer that used to send
//! a whole rumor to a peer holding the record, and the ask that goes
//! again when its answer never came.

use oceanstore_naming::guid::Guid;
use oceanstore_replica::{
    build_deployment, frontier_digest, Copies, DeploymentOpts, ReplicaMsg, Secondary, TentativeId,
};
use oceanstore_sim::{SimDuration, SimTime};
use oceanstore_update::object::Block;
use oceanstore_update::update::Action;
use oceanstore_update::{encode_update, Update};

fn append(byte: u8, len: usize) -> Update {
    Update::unconditional(vec![Action::Append { ciphertext: vec![byte; len] }])
}

/// Every class of every secondary's ledger, summed.
fn copies<'a>(secondaries: impl Iterator<Item = &'a Secondary>) -> Copies {
    secondaries.map(|s| s.copy_ledger().total()).fold(Copies::default(), |a, c| Copies {
        copies: a.copies + c.copies,
        bytes: a.bytes + c.bytes,
    })
}

#[test]
fn few_copies_reach_a_secondary_that_holds_them() {
    // 24 appends of 1 KiB over three objects, one a second, each 300 to
    // 460 ms past a second: anti-entropy ticks every 500 ms, so every
    // exchange of the run meets an update that some secondaries hold
    // tentatively and others committed. Rumors, pushes by name, asks and
    // anti-entropy offers carry each update's bytes to the sixteen
    // secondaries; at most one copy per update reaches a secondary that
    // held it already (11 in all; 140 when anti-entropy sent whole
    // rumors and records and fetches re-sent what a node held).
    let mut dep = build_deployment(&DeploymentOpts { secondaries: 16, ..Default::default() });
    let objects: Vec<Guid> = (0..3).map(|i| Guid::from_label(&format!("ledger-{i}"))).collect();
    let updates = 24;
    for u in 0..updates {
        let past = [300, 340, 380, 420, 460][u % 5];
        let at = SimTime::ZERO + SimDuration::from_millis(1_000 * u as u64 + past);
        dep.sim.run_for(at.saturating_since(dep.sim.now()));
        dep.submit(dep.clients[0], objects[u % 3], &append(u as u8, 1024));
    }
    dep.sim.run_for(SimDuration::from_secs(3));
    for object in &objects {
        for &s in &dep.secondaries {
            let held = dep.secondary(s).store.get(object).map(|st| st.next_index);
            assert_eq!(held, Some(8), "{s:?} lacks records of {object:?}");
        }
    }
    // `--nocapture` prints each secondary's ledger that counted a copy.
    for &s in &dep.secondaries {
        let ledger = dep.secondary(s).copy_ledger();
        if ledger.total().copies > 0 {
            eprintln!("{s:?}: {ledger:?}");
        }
    }
    let held = copies(dep.secondaries.iter().map(|&s| dep.secondary(s)));
    assert!(held.copies <= updates as u64, "{} copies of {updates} updates held", held.copies);
    assert!(held.bytes <= held.copies * 1038, "a copy larger than one update");
}

#[test]
fn anti_entropy_offers_a_peer_the_name_of_an_update_it_holds_committed() {
    // Secondary 4 sits out a 1 KiB commit in a partition of its own, and
    // secondary 2 is cut off once the rumor reached it, before the record
    // could. Healed, secondary 4 takes the record by fetch and never sees
    // the rumor. Then the two exchange a digest and a summary: secondary
    // 4's summary does not list the rumor secondary 2 holds, because it
    // holds the record instead, and secondary 2 sends its name, not its
    // bytes.
    let mut dep = build_deployment(&DeploymentOpts::default());
    let (holder, victim) = (dep.secondaries[2], dep.secondaries[4]);
    let client = dep.clients[0];
    dep.sim.node_mut(client).as_client_mut().expect("client").set_tentative_fanout(0);
    let group = |dep: &oceanstore_replica::Deployment, cut: &[(oceanstore_sim::NodeId, u32)]| {
        let of = |i: usize| cut.iter().find(|(n, _)| n.0 == i).map_or(0, |&(_, g)| g);
        (0..dep.sim.len()).map(of).collect::<Vec<u32>>()
    };
    let groups = group(&dep, &[(victim, 1)]);
    dep.sim.set_partitions(Some(groups));
    let object = Guid::from_label("offered-by-name");
    let update = append(3, 1024);
    let timestamp = dep.sim.now().as_micros();
    let request = dep.submit(client, object, &update);
    let id = TentativeId { client: request.client, counter: request.seq };
    let rumor = ReplicaMsg::Tentative { object, update: encode_update(&update).into(), timestamp, id };
    dep.sim.inject(client, holder, rumor);
    dep.sim.run_for(SimDuration::from_millis(30));
    let groups = group(&dep, &[(victim, 1), (holder, 2)]);
    dep.sim.set_partitions(Some(groups));
    dep.sim.run_for(SimDuration::from_secs(2));
    assert_eq!(dep.secondary(holder).tentative_count(&object), 1, "the holder has the rumor");
    assert!(dep.secondary(holder).store.get(&object).is_none(), "the record reached the holder");

    let groups = group(&dep, &[(holder, 2)]);
    dep.sim.set_partitions(Some(groups));
    dep.sim.run_for(SimDuration::from_secs(2));
    let taken = dep.secondary(victim);
    assert_eq!(taken.store.get(&object).map(|st| st.next_index), Some(1), "the victim lacks the record");
    assert_eq!(taken.rumors_seen(), 0, "the rumor reached the victim");

    // One exchange: the holder's digest to the victim, whose summary
    // comes back.
    let groups = group(&dep, &[(holder, 2), (victim, 2)]);
    dep.sim.set_partitions(Some(groups));
    let held = dep.secondary(holder);
    let tentative = [(&object, &id)];
    let digest = held.store.committed_digest().wrapping_add(frontier_digest(
        std::iter::empty(),
        tentative.iter().map(|&(g, i)| (g, i)),
    ));
    let sent = |dep: &oceanstore_replica::Deployment, class| {
        dep.sim.stats().class_sent_by(holder, class)
    };
    let (whole, named) = (sent(&dep, "replica/tentative"), sent(&dep, "replica/heard"));
    dep.sim.inject(holder, victim, ReplicaMsg::AntiEntropyDigest { digest });
    let latency = DeploymentOpts::default().latency;
    let round_trip = latency + latency + SimDuration::from_millis(1);
    dep.sim.run_for(round_trip);
    assert_eq!(sent(&dep, "replica/tentative").bytes, whole.bytes, "the holder sent the bytes");
    assert!(sent(&dep, "replica/heard").messages > named.messages, "the holder sent no name");
    // The holder pulls the record it lacks from the victim, once.
    dep.sim.run_for(round_trip);
    assert_eq!(dep.secondary(holder).store.get(&object).map(|st| st.next_index), Some(1));
    assert_eq!(dep.secondary(holder).tentative_count(&object), 0);
}

#[test]
fn an_ask_that_went_unanswered_goes_again_when_the_name_comes_again() {
    // The primary tier is cut off, so the 4 KiB update never commits and
    // only the secondaries can spread it. Secondary 5 names it to every
    // other secondary but holds nothing: each asks it for the bytes, and
    // no answer comes, as if the ask were lost or the announcer crashed.
    // Then secondary 0 is handed the rumor. The names its gossip and its
    // anti-entropy offers carry reach nodes that asked once already; each
    // asks again, of the node that named it, once its first ask lapsed,
    // and every secondary's tentative view shows the write.
    let mut dep = build_deployment(&DeploymentOpts::default());
    let total = dep.sim.len();
    let primaries: Vec<usize> = dep.all_primaries().map(|p| p.0).collect();
    let groups: Vec<u32> = (0..total).map(|i| u32::from(primaries.contains(&i))).collect();
    dep.sim.set_partitions(Some(groups));
    let client = dep.clients[0];
    dep.sim.node_mut(client).as_client_mut().expect("client").set_tentative_fanout(0);
    let object = Guid::from_label("asked-again");
    let update = append(9, 4096);
    let timestamp = dep.sim.now().as_micros();
    let request = dep.submit(client, object, &update);
    let id = TentativeId { client: request.client, counter: request.seq };
    let (holder, silent) = (dep.secondaries[0], dep.secondaries[5]);
    for &s in &dep.secondaries[1..5] {
        dep.sim.inject(silent, s, ReplicaMsg::Heard { object, timestamp, id });
    }
    dep.sim.run_for(SimDuration::from_millis(50));
    let rumor = ReplicaMsg::Tentative { object, update: encode_update(&update).into(), timestamp, id };
    dep.sim.inject(client, holder, rumor);
    // A few anti-entropy rounds (500 ms each).
    dep.sim.run_for(SimDuration::from_secs(3));
    assert!(dep.outcome(request).is_none(), "no commit while the tier is cut off");
    for &s in &dep.secondaries {
        let view = dep.secondary(s).tentative_view_or_empty(&object);
        assert_eq!(view.version_number(), 1, "{s:?} does not show the write");
        let Block::Data(bytes) = &view.current().blocks[0] else { panic!("data block") };
        assert_eq!(bytes.as_slice(), &[9; 4096][..]);
    }
}
