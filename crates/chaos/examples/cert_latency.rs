//! Certificate-formation latency under crashed disseminators.
//!
//! Measures how long a committed record takes to certify (first valid
//! serialization certificate on any live primary) when the first 0, 1,
//! or 2 rotation slots of its disseminator sequence are crashed. Each
//! crashed slot costs one share-retry deadline before the signers
//! re-route, so latency should climb by roughly `share_retry_timeout`
//! per crashed slot. Run with:
//!
//! ```sh
//! cargo run --release -p oceanstore-chaos --example cert_latency
//! ```

use oceanstore_chaos::runner::run_schedule;
use oceanstore_chaos::scenarios::append;
use oceanstore_chaos::schedule::{FaultAction, Schedule};
use oceanstore_naming::guid::Guid;
use oceanstore_replica::{build_deployment, disseminator_for, DeploymentOpts};
use oceanstore_sim::{SimDuration, SimTime};

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

fn main() {
    // m = 2 (n = 7): with two primaries crashed the agreement quorum
    // (2m + 1 = 5) and the certificate threshold (m + 1 = 3) both
    // survive, so the measurement isolates disseminator failover.
    let m = 2;
    let latency_ms = 20u64;
    println!("certificate-formation latency vs crashed disseminators");
    println!("(m = {m}, n = {}, link latency {latency_ms} ms, share retry {} ms)", 3 * m + 1, latency_ms * 25);
    println!();
    println!("| crashed disseminators | cert latency (ms) | share re-broadcasts |");
    println!("|---|---|---|");
    for crashed in 0..=2usize {
        for seed in [1u64] {
            let mut dep = build_deployment(&DeploymentOpts {
                m,
                secondaries: 3,
                clients: 1,
                latency: SimDuration::from_millis(latency_ms),
                seed,
                ..DeploymentOpts::default()
            });
            let n = dep.primaries().len();
            // The first `crashed` rotation slots of record 0 must avoid
            // member 0 (crashing the agreement leader would measure view
            // changes, not failover).
            let object = (0..)
                .map(|k| Guid::from_label(&format!("cert-latency-{k}")))
                .find(|g| (0..=crashed as u64).all(|a| disseminator_for(n, g, 0, a) != 0))
                .expect("some label avoids the leader slot");
            let victims: Vec<_> = (0..crashed as u64)
                .map(|a| dep.primaries()[disseminator_for(n, &object, 0, a)])
                .collect();
            let sched = victims
                .iter()
                .fold(Schedule::new(), |s, &v| s.at(t(100), FaultAction::Crash(v)));
            run_schedule(&mut dep.sim, &sched, t(500));

            let submit_at = dep.sim.now();
            dep.submit(dep.clients[0], object, &append(b"timed"));
            let deadline = t(20_000);
            let certified_at = loop {
                let done = dep
                    .primaries()
                    .iter()
                    .filter(|&&p| !dep.sim.is_down(p))
                    .any(|&p| dep.primary(p).has_cert(&object, 0));
                if done {
                    break Some(dep.sim.now());
                }
                if dep.sim.now() > deadline || !dep.sim.step() {
                    break None;
                }
            };
            let retries: u64 = dep
                .primaries()
                .iter()
                .map(|&p| dep.sim.stats().class_sent_by(p, "replica/sharerebroadcast").messages)
                .sum();
            match certified_at {
                Some(at) => {
                    let ms = (at.as_micros() - submit_at.as_micros()) as f64 / 1_000.0;
                    println!("| {crashed} | {ms:.1} | {retries} |");
                }
                None => println!("| {crashed} | never (> 20 s) | {retries} |"),
            }
        }
    }
}
