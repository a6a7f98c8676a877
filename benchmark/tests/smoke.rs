//! Smoke test of the whole benchmark on the `--small` preset: every
//! workload runs twice with one seed, and everything that is a function
//! of the seed — simulated-clock metrics and counts — must repeat
//! bit-exactly. Also pins the naming contract and `BENCHMARK.json`.

use oceanstore_benchmark::registry::{self, Clock, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use oceanstore_benchmark::stats::Metrics;
use oceanstore_benchmark::{run, RunArgs, RunResult};

fn small(workload: &str) -> RunResult {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: 11,
        seconds: 1.0,
        trace: true,
        small: true,
    };
    run(&args).expect("known workload")
}

fn assert_repeats(workload: &str, table: &'static [MetricDef], a: &Metrics, b: &Metrics) {
    for ((d, va), (_, vb)) in a.table(table).zip(b.table(table)) {
        if d.clock != Clock::Wall {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{workload}: {} changed between two runs of one seed",
                d.name
            );
        }
    }
}

fn check_workload(workload: &str) {
    let a = small(workload);
    let b = small(workload);
    for r in [&a, &b] {
        assert!(r.correct, "{workload}: wrong answers {:?}", r.violations);
        assert_eq!(
            r.failed, 0,
            "{workload}: the small preset must not fail an op"
        );
        assert!(r.attempted >= 1);
        for (d, v) in r.end_to_end.table(END_TO_END) {
            assert!(v > 0.0, "{workload}: end-to-end metric {} is {v}", d.name);
        }
        // Every on-path layer reports at least one count and one time.
        let layers = r.per_layer.as_ref().expect("traced run");
        for name in [
            "sim.events",
            "sim.events_per_wall_s",
            "consensus.messages_per_commit",
            "replica.messages_per_commit",
        ] {
            assert!(
                layers.get(name).unwrap_or(0.0) > 0.0,
                "{workload}: {name} is empty"
            );
        }
    }
    assert_eq!(
        (a.attempted, a.units),
        (b.attempted, b.units),
        "{workload}: op count changed"
    );
    assert_repeats(workload, END_TO_END, &a.end_to_end, &b.end_to_end);
    let layers = |r: &RunResult| r.per_layer.clone().expect("traced run");
    assert_repeats(workload, PER_LAYER, &layers(&a), &layers(&b));
}

#[test]
fn lifecycle_repeats() {
    check_workload("lifecycle");
}

#[test]
fn read_mostly_repeats() {
    check_workload("read_mostly");
}

#[test]
fn bulk_archive_repeats() {
    check_workload("bulk_archive");
}

#[test]
fn tier_open_loop_repeats() {
    check_workload("tier_open_loop");
}

#[test]
fn scaleout_t2_repeats() {
    check_workload("scaleout_t2");
}

#[test]
fn lossy_open_loop_repeats() {
    check_workload("lossy_open_loop");
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn names_units_and_counts_meet_the_contract() {
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((2..=8).contains(&WORKLOADS.len()));
    let mut seen = std::collections::HashSet::new();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(is_name(d.name), "bad metric name {:?}", d.name);
        assert!(is_unit(d.unit), "bad unit {:?} on {}", d.unit, d.name);
        assert!(d.better == "lower" || d.better == "higher", "{}", d.name);
        assert!(seen.insert(d.name), "{} is used twice", d.name);
    }
    for d in END_TO_END {
        assert!(
            d.bound > 0.0 && d.bound <= 0.25,
            "{} needs a bound in (0, 0.25]",
            d.name
        );
    }
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    for (name, why) in WORKLOADS {
        assert!(
            is_name(name) && seen.insert(name),
            "bad or reused workload name {name:?}"
        );
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why must be one line of at most 200 characters"
        );
    }
}

#[test]
fn checked_in_manifest_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        registry::manifest(),
        "regenerate with `cargo run --release -- manifest > ../BENCHMARK.json`"
    );
    assert!(on_disk.len() <= 64 * 1024);
}
