//! ROADMAP item 4's oracle: an object with a live published holder is
//! located from every node that takes part in the location mesh, however
//! long the mesh has run, and after the root of one salt has crashed.
//!
//! The deployment has `lifecycle`'s shape (m = 1, 16 secondaries, 2
//! clients, 20 ms links). Each object is published from one secondary,
//! then the mesh runs on its own for 90 simulated seconds, the span after
//! which `lifecycle` used to miss. Then every live origin locates every
//! object. This guards the round-trip liveness of the mesh: when a table
//! peer was judged alive on whatever it happened to send, tables lost
//! entries and publisher and locator reached different roots (35 of 176
//! locates missed).

use std::collections::BTreeMap;

use oceanstore::core::system::{ObjectRef, OceanStore};
use oceanstore::plaxton::RouteStep;
use oceanstore::sim::{NodeId, SimDuration};

/// A `lifecycle`-shaped deployment with 8 objects, each published from
/// one secondary, after 90 sim-s of mesh upkeep.
fn settled(seed: u64) -> (OceanStore, Vec<(ObjectRef, NodeId)>) {
    let mut ocean = OceanStore::builder()
        .faults_tolerated(1)
        .secondaries(16)
        .clients(2)
        .latency(SimDuration::from_millis(20))
        .seed(seed)
        .build();
    let secondaries = ocean.secondaries().to_vec();
    let published = (0..8)
        .map(|i| {
            let object = ocean.create_object(0, &format!("located-{i}"));
            let holder = secondaries[(3 * i) % secondaries.len()];
            ocean.publish_location(&object, &[holder]);
            (object, holder)
        })
        .collect();
    ocean.settle(SimDuration::from_secs(90));
    (ocean, published)
}

/// The node a salt-0 locate for `object` ends at, walked from `from` over
/// the nodes' current tables.
fn salt0_root(ocean: &OceanStore, object: &ObjectRef, from: NodeId) -> NodeId {
    let dep = ocean.deployment();
    let target = object.guid.salted(0);
    let (mut at, mut level) = (from, 0);
    for _ in 0..dep.sim.len() {
        let mesh = dep.sim.node(at).plaxton.as_ref().expect("location role");
        match mesh.table().route_step(at, &target, level, None) {
            RouteStep::Forward { next, level: l } => (at, level) = (next, l),
            RouteStep::Root => return at,
        }
    }
    panic!("routing toward {} did not terminate", object.name);
}

/// Every live mesh node locates every object; panics listing the misses.
fn assert_every_node_locates(ocean: &mut OceanStore, published: &[(ObjectRef, NodeId)], what: &str) {
    let from = ocean.sim().now();
    let dep = ocean.deployment();
    let origins: Vec<NodeId> = (0..dep.sim.len())
        .map(NodeId)
        .filter(|&n| !dep.sim.is_down(n) && dep.sim.node(n).plaxton.is_some())
        .collect();
    // Per origin, the objects it failed to locate and what it got.
    let mut misses: BTreeMap<NodeId, Vec<String>> = BTreeMap::new();
    for &origin in &origins {
        for (object, holder) in published {
            let miss = match ocean.locate(origin, object) {
                Ok(Some(found)) if found == *holder => continue,
                Ok(Some(found)) => {
                    panic!("{} located at {found:?}, published at {holder:?}", object.name)
                }
                Ok(None) => object.name.clone(),
                Err(e) => format!("{} ({e:?})", object.name),
            };
            misses.entry(origin).or_default().push(miss);
        }
    }
    let missed: usize = misses.values().map(Vec::len).sum();
    let per_origin: Vec<String> = misses
        .iter()
        .map(|(origin, names)| format!("{origin:?} missed {}: {}", names.len(), names.join(", ")))
        .collect();
    assert!(
        missed == 0,
        "{what}: {missed} of {} locates from {} origins missed a live published holder \
         (locates from sim time {from} to {}):\n{}",
        origins.len() * published.len(),
        origins.len(),
        ocean.sim().now(),
        per_origin.join("\n"),
    );
}

#[test]
fn published_objects_are_located_from_every_node() {
    let (mut ocean, published) = settled(11);
    assert_every_node_locates(&mut ocean, &published, "seed 11");
}

/// The second half: crash a salt-0 root that holds no published object,
/// then locate at once (a hop that misses its ack is evicted and the
/// locate re-routes), after 5 s, and after 30 s (beacons have evicted it
/// everywhere and a republish has reached the new surrogate).
#[test]
fn published_objects_are_located_after_a_salt0_root_crashes() {
    for seed in 11..=14 {
        for wait in [0, 5, 30] {
            let (mut ocean, published) = settled(seed);
            let holders: Vec<NodeId> = published.iter().map(|&(_, h)| h).collect();
            let root = published
                .iter()
                .map(|(object, holder)| salt0_root(&ocean, object, *holder))
                .find(|root| !holders.contains(root))
                .expect("some salt-0 root holds no published object");
            ocean.sim().set_down(root, true);
            ocean.settle(SimDuration::from_secs(wait));
            let what = format!("seed {seed}, {root:?} crashed {wait} s before");
            assert_every_node_locates(&mut ocean, &published, &what);
        }
    }
}
