//! ROADMAP item 4's oracle: on a fault-free mesh, an object with a live
//! published holder is located from every node that takes part in the
//! location mesh, however long the mesh has run.
//!
//! The deployment has `lifecycle`'s shape (m = 1, 16 secondaries, 2
//! clients, 20 ms links). Each object is published from one secondary,
//! then the mesh runs on its own for 90 simulated seconds, the span after
//! which `lifecycle`'s first misses appear. Then every live origin
//! locates every object. It fails today: liveness in the mesh is one-way,
//! so tables lose entries and publisher and locator reach different roots.

use std::collections::BTreeMap;

use oceanstore::core::system::OceanStore;
use oceanstore::sim::{NodeId, SimDuration};

#[test]
#[ignore = "ROADMAP item 4"]
fn published_objects_are_located_from_every_node() {
    let mut ocean = OceanStore::builder()
        .faults_tolerated(1)
        .secondaries(16)
        .clients(2)
        .latency(SimDuration::from_millis(20))
        .seed(11)
        .build();
    let secondaries = ocean.secondaries().to_vec();
    let published: Vec<_> = (0..8)
        .map(|i| {
            let object = ocean.create_object(0, &format!("located-{i}"));
            let holder = secondaries[(3 * i) % secondaries.len()];
            ocean.publish_location(&object, &[holder]);
            (object, holder)
        })
        .collect();
    ocean.settle(SimDuration::from_secs(90));
    let settled = ocean.sim().now();

    let dep = ocean.deployment();
    let origins: Vec<NodeId> = (0..dep.sim.len())
        .map(NodeId)
        .filter(|&n| !dep.sim.is_down(n) && dep.sim.node(n).plaxton.is_some())
        .collect();
    // Per origin, the objects it failed to locate and what it got.
    let mut misses: BTreeMap<NodeId, Vec<String>> = BTreeMap::new();
    for &origin in &origins {
        for (object, holder) in &published {
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
        "{missed} of {} locates from {} origins missed a live published holder \
         (locates from sim time {settled} to {}):\n{}",
        origins.len() * published.len(),
        origins.len(),
        ocean.sim().now(),
        per_origin.join("\n"),
    );
}
