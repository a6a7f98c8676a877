//! The schedule fuzzer against the assembled system — CI runs this in
//! the `chaos-fuzz` job beside `crates/chaos/tests/fuzz.rs`.
//!
//! Same generator, same schedules, same oracle as the bare-role sweeps,
//! but every node is a `core::OceanServer`: the Plaxton mesh beacons and
//! the fragment stores share the links the faults hit. A failing seed is
//! a finding about the assembled system — name it in ROADMAP item 7 and
//! pin the passing range; do not loosen a checker. `CHAOS_FUZZ_SEEDS`
//! widens the range (default 20; CI sets 1 000).

use oceanstore::core::system::assemble;
use oceanstore::core::OceanServer;
use oceanstore::replica::{Deployment, DeploymentOpts};
use oceanstore_chaos::fuzz::{fuzz_deployment, FuzzOpts, FuzzOutcome};

fn sweep_seeds() -> u64 {
    std::env::var("CHAOS_FUZZ_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(20)
}

fn fuzz_assembled(seed: u64, opts: &FuzzOpts) -> (FuzzOutcome, Deployment<OceanServer>) {
    fuzz_deployment(seed, opts, assemble(&DeploymentOpts { seed, ..opts.deployment.clone() }))
}

#[test]
fn assembled_system_holds_the_fuzz_oracle() {
    let opts = FuzzOpts::default();
    for seed in 0..sweep_seeds() {
        let (out, dep) = fuzz_assembled(seed, &opts);
        assert!(
            out.report.passed(),
            "assembled seed {seed} broke invariants: {:#?}\nquorum cuts: {:?}; \
             schedule was: {:#?}",
            out.report.failures,
            out.quorum_cuts,
            out.schedule,
        );
        let stats = dep.sim.stats();
        let mesh: u64 = stats
            .classes()
            .filter(|(class, _)| class.starts_with("plaxton/"))
            .map(|(_, c)| c.messages)
            .sum();
        assert!(mesh > 0, "assembled seed {seed}: the location mesh stayed silent");
        let (again, _) = fuzz_assembled(seed, &opts);
        assert_eq!(again.trace, out.trace, "assembled seed {seed}: trace diverged");
        assert_eq!(again.fingerprint, out.fingerprint, "assembled seed {seed}: stats diverged");
    }
}

/// Regression for ROADMAP item 3(e): seed 225 stalled in a view change
/// on the assembled system. After a 16 % drop window the primaries sat in
/// views 1/1/2/0 with nothing executed, 15 s after the last fault healed.
/// All four had voted for view 3, but its leader, primary 3, held only the
/// votes of 2 and 3: the one-time view-3 votes of 0 and 1 were lost. Their
/// alarms re-voted `view + 1` = 2, which primary 2, already in view 2,
/// dropped as stale. The view alarm now also re-sends a higher vote its
/// replica has cast. The bare `run_fuzz(225, ..)` passes either way (the
/// Plaxton traffic shifts which messages the per-link drop coins take);
/// `seed_1516_view_change_stall_regression` in `crates/chaos/tests/fuzz.rs`
/// is the reproduction without the mesh.
#[test]
fn assembled_seed_225_view_change_stall() {
    let (out, _) = fuzz_assembled(225, &FuzzOpts::default());
    assert!(
        out.report.passed(),
        "assembled seed 225 broke invariants: {:#?}\nquorum cuts: {:?}; schedule was: {:#?}",
        out.report.failures,
        out.quorum_cuts,
        out.schedule,
    );
}
