//! Runs the interior-crash chaos scenario and prints the fault trace,
//! the deterministic stats fingerprint, and the invariant verdict.
//!
//! ```bash
//! cargo run --release -p oceanstore-chaos --example chaos_demo [seed]
//! ```

use oceanstore_chaos::scenarios;

fn main() {
    let seed = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let out = scenarios::interior_crash(seed);
    println!("== interior_crash seed={seed}");
    for e in &out.trace {
        println!("   t={:>9}us  {}", e.at_micros, e.description);
    }
    println!("   fingerprint: {}", out.fingerprint);
    if out.report.passed() {
        println!("   invariants:  PASS");
    } else {
        println!("   invariants:  FAIL");
        for f in &out.report.failures {
            println!("     - {f}");
        }
    }
}
