//! One-off probe: re-measures the late_rejoin catch-up numbers quoted in
//! EXPERIMENTS.md (post-rejoin slots to the frontier, installs, the
//! victim's view-change votes its peers answered with state, bytes).

use oceanstore_consensus::harness::{build_tier_custom, run_updates_batched};
use oceanstore_consensus::replica::CheckpointConfig;
use oceanstore_sim::{NodeId, SimDuration};

fn main() {
    let seed = 7;
    let ckpt = CheckpointConfig { interval: 32, window: 64 };
    let victim = NodeId(3);
    let mut ts = build_tier_custom(1, SimDuration::from_millis(20), seed, &[], ckpt);
    run_updates_batched(&mut ts, 64, 64, 8);
    ts.sim.crash_node(victim);
    for _ in 0..10 {
        run_updates_batched(&mut ts, 64, 512, 8);
    }
    ts.sim.recover_node(victim);
    let t0 = ts.sim.now().as_micros();
    let mut caught_at = None;
    for step in 1..=104 {
        run_updates_batched(&mut ts, 64, 1, 1);
        let frontier = ts.sim.node(NodeId(0)).as_replica().unwrap().next_exec();
        let v = ts.sim.node(victim).as_replica().unwrap();
        if caught_at.is_none() && v.next_exec() == frontier {
            caught_at = Some((step, ts.sim.now().as_micros() - t0));
        }
    }
    let v = ts.sim.node(victim).as_replica().unwrap();
    let h = v.health();
    let peers: Vec<_> =
        (0..3).map(|i| ts.sim.node(NodeId(i)).as_replica().unwrap().health()).collect();
    let served: u64 = peers.iter().map(|p| p.state_bytes_served).sum();
    let answered: u64 = peers.iter().map(|p| p.state_fetches).sum();
    match caught_at {
        Some((slots, us)) => println!(
            "caught up within {slots} post-rejoin slots (~{:.1} sim-s)",
            us as f64 / 1e6
        ),
        None => println!("did not catch up within 104 slots"),
    }
    println!(
        "installs={} answered_votes={} installed_bytes={} served_bytes={} retained_log={}",
        h.state_installs,
        answered,
        h.state_bytes_installed,
        served,
        h.log_len
    );
}
