//! Figure 5 of the paper, reenacted over the full system: "(a) After
//! generating an update, a client sends it directly to the object's
//! primary tier, as well as to several other random replicas for that
//! object. (b) While the primary tier performs a Byzantine agreement
//! protocol to commit the update, the secondary replicas propagate the
//! update among themselves epidemically. (c) Once the primary tier has
//! finished its agreement protocol, the result of the update is multicast
//! down the dissemination tree to all of the secondary replicas."

use oceanstore::core::system::{OceanStore, UpdateOutcome};
use oceanstore::sim::SimDuration;
use oceanstore::update::ops;

#[test]
fn figure5_all_three_phases_observable() {
    let mut ocean = OceanStore::builder().secondaries(8).seed(55).build();
    let obj = ocean.create_object(0, "figure5-object");
    let update = ops::initial_write(&obj.keys, b"figure5-object", &[b"payload"], &[]);

    ocean.sim().reset_stats();
    let id = ocean.submit(0, &obj, &update);

    // Phase (a): the request reaches the whole primary tier and the
    // tentative copies fan out to random secondaries. One network step.
    ocean.settle(SimDuration::from_millis(25));
    {
        let n = ocean.tier().n() as u64;
        let stats = ocean.sim().stats();
        assert!(
            stats.class("pbft/request").messages >= n,
            "the update goes directly to all {n} primaries"
        );
        assert!(
            stats.class("replica/tentative").messages >= 1,
            "and to several random secondaries"
        );
    }

    // Phase (b): before agreement finishes, some secondary already holds
    // the tentative update (the epidemic is ahead of the commit).
    let dep = ocean.deployment();
    let tentative_holders = dep
        .secondaries
        .iter()
        .filter(|&&s| dep.secondary(s).tentative_count(&obj.guid) > 0)
        .count();
    assert!(tentative_holders >= 1, "tentative data spreading epidemically");

    // The Byzantine agreement itself: prepares and commits are quadratic
    // traffic among the tier.
    let outcome = ocean.wait_for(id, &obj).expect("commits");
    assert_eq!(outcome, UpdateOutcome::Committed { version: 1 });
    {
        let n = ocean.tier().n() as u64;
        let stats = ocean.sim().stats();
        assert!(stats.class("pbft/prepare").messages >= n * (n - 1) / 2);
        assert!(stats.class("pbft/commit").messages >= n * (n - 1) / 2);
    }

    // Phase (c): the certified result multicasts down the dissemination
    // tree until every secondary has it, and the tentative state drains.
    ocean.settle(SimDuration::from_secs(5));
    let dep = ocean.deployment();
    for &s in &dep.secondaries {
        let sec = dep.secondary(s);
        let sec_version = sec.committed_view(&obj.guid).map(|d| d.version_number());
        assert_eq!(sec_version, Some(1), "secondary {s} converged");
        let pending = sec.tentative_count(&obj.guid);
        assert_eq!(pending, 0, "secondary {s} reconciled its tentative copy");
    }
    let commits = ocean.sim().stats().class("replica/commit").messages;
    assert!(commits >= 7, "dissemination-tree pushes: got {commits}");
}
