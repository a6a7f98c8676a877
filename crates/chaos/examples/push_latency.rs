//! Dropped-push recovery latency on the tier→tree edge.
//!
//! The disseminator's push of a freshly certified record to the tree
//! root is dropped (dead link at send time); the link heals immediately
//! after the certificate forms. Measures how long the root then waits
//! for the record: the disseminator's ack watchdog fires one
//! `ack_timeout` (3 × link latency) after the push went unacked and
//! resends, so recovery ≈ `ack_timeout + latency` ≈ 2 × RTT, well inside
//! the root's 500 ms anti-entropy period.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release -p oceanstore-chaos --example push_latency
//! ```

use oceanstore_chaos::scenarios::append;
use oceanstore_naming::guid::Guid;
use oceanstore_replica::{build_deployment, disseminator_for, Deployment, DeploymentOpts};
use oceanstore_sim::{SimDuration, SimTime};

fn run_until_ms(dep: &mut Deployment, ms: u64) {
    dep.sim.run_until(SimTime::ZERO + SimDuration::from_millis(ms));
}

/// Steps in 5 ms increments until `probe` returns true; returns the time
/// in ms.
fn ms_until(dep: &mut Deployment, mut probe: impl FnMut(&Deployment) -> bool) -> u64 {
    let mut now = dep.sim.now().as_micros() / 1_000;
    while !probe(dep) {
        now += 5;
        run_until_ms(dep, now);
        assert!(now < 10_000, "probe never satisfied");
    }
    now
}

fn measure(latency_ms: u64) -> (u64, u64, u64) {
    let mut dep = build_deployment(&DeploymentOpts {
        latency: SimDuration::from_millis(latency_ms),
        seed: 1,
        ..DeploymentOpts::default()
    });
    let n = dep.primaries().len();
    // Keep the disseminator off primary 0, the root's anti-entropy
    // parent, so the root's anti-entropy path stays intact.
    let object = (0..)
        .map(|k| Guid::from_label(&format!("push-latency-{k}")))
        .find(|g| disseminator_for(n, g, 0, 0) != 0)
        .expect("some label dodges primary 0");
    let dissem = dep.primaries()[disseminator_for(n, &object, 0, 0)];
    let root = dep.secondaries[0];
    // Seed every secondary with the tentative copy, as a wide-area
    // client would.
    let clients = dep.clients.clone();
    let fanout = dep.secondaries.len();
    for c in clients {
        dep.sim.node_mut(c).as_client_mut().expect("client").set_tentative_fanout(fanout);
    }
    // Dead link while the push is sent (drops decide at send time)...
    dep.sim.set_link_drop(dissem, root, 1.0);
    dep.submit(dep.clients[0], object, &append(b"measured"));
    let t_cert =
        ms_until(&mut dep, |d| d.primaries().iter().any(|&p| d.primary(p).has_cert(&object, 0)));
    // ...healed the instant the certificate exists: the initial push is
    // already lost, and the clock on recovery starts now.
    dep.sim.set_link_drop(dissem, root, 0.0);
    let t_root = ms_until(&mut dep, |d| {
        d.secondary(root).store.get(&object).is_some_and(|st| st.next_index >= 1)
    });
    (t_cert, t_root, dep.sim.stats().event("repush/resend"))
}

fn main() {
    let latency_ms = 20u64;
    println!("dropped-push recovery latency on the tier->tree edge");
    println!(
        "(m = 1, link latency {latency_ms} ms => RTT {} ms, ack timeout {} ms, \
         anti-entropy period 500 ms)",
        2 * latency_ms,
        3 * latency_ms
    );
    println!();
    println!("| cert at (ms) | root holds record (ms) | recovery (ms) | resends |");
    println!("|---|---|---|---|");
    let (t_cert, t_root, resends) = measure(latency_ms);
    println!("| {t_cert} | {t_root} | {} | {resends} |", t_root - t_cert);
    println!();
    println!("re-push recovers in ~2 RTT (one ack timeout + one delivery).");
}
