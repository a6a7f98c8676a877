//! The schedule fuzzer against the assembled system — CI runs this in
//! the `chaos-fuzz` job beside `crates/chaos/tests/fuzz.rs`.
//!
//! Same generator, same schedules, same oracle as the bare-role sweeps,
//! but every node is a `core::OceanServer`: the Plaxton mesh beacons and
//! the fragment stores share the links the faults hit. A failing seed is
//! a finding about the assembled system — name it in ROADMAP item 7 and
//! pin the passing range; do not loosen a checker. `CHAOS_FUZZ_SEEDS`
//! widens the range (default 20; CI sets 120).

use oceanstore::core::system::assemble;
use oceanstore::core::OceanServer;
use oceanstore::replica::{Deployment, DeploymentOpts};
use oceanstore_chaos::fuzz::{fuzz_deployment, modes, FuzzOpts, FuzzOutcome};

fn sweep_seeds() -> u64 {
    std::env::var("CHAOS_FUZZ_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(20)
}

fn fuzz_assembled(seed: u64, opts: &FuzzOpts) -> (FuzzOutcome, Deployment<OceanServer>) {
    fuzz_deployment(seed, opts, assemble(&DeploymentOpts { seed, ..opts.deployment.clone() }))
}

#[test]
fn assembled_system_holds_the_fuzz_oracle_in_every_mode() {
    for (mode, deployment) in modes() {
        let opts = FuzzOpts { deployment, ..FuzzOpts::default() };
        for seed in 0..sweep_seeds() {
            let (out, dep) = fuzz_assembled(seed, &opts);
            assert!(
                out.report.passed(),
                "assembled[{mode}] seed {seed} broke invariants: {:#?}\nquorum cuts: {:?}; \
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
            assert!(mesh > 0, "assembled[{mode}] seed {seed}: the location mesh stayed silent");
            let (again, _) = fuzz_assembled(seed, &opts);
            assert_eq!(again.trace, out.trace, "assembled[{mode}] seed {seed}: trace diverged");
            assert_eq!(
                again.fingerprint, out.fingerprint,
                "assembled[{mode}] seed {seed}: stats diverged"
            );
        }
    }
}
