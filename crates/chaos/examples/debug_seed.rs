//! Scratch debug driver: replay one fuzz seed and dump tier state.

use oceanstore_chaos::fuzz::{run_fuzz_with_deployment, FuzzOpts};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(13);
    let opts = FuzzOpts::default();
    let (out, dep) = run_fuzz_with_deployment(seed, &opts);
    println!("seed {seed}: passed={} cuts={:?}", out.report.passed(), out.quorum_cuts);
    for f in &out.report.failures {
        println!("  FAIL {f}");
    }
    for e in &out.trace {
        println!("  trace {:>9}us {}", e.at_micros, e.description);
    }
    for &p in dep.primaries() {
        let prim = dep.primary(p);
        println!(
            "  primary {:?}: view={} vc_sent={} next_exec={} down={} pending_push={}",
            p,
            prim.pbft().view(),
            prim.pbft().view_changes_sent(),
            prim.pbft().executed().len(),
            dep.sim.is_down(p),
            prim.pending_push_count(),
        );
    }
    let c = dep.clients[0];
    let client = dep.client(c);
    println!("  client {:?}: pending={}", c, client.pending_count());
    let object = oceanstore_naming::guid::Guid::from_label(&format!("fuzz-{seed}"));
    for &p in dep.primaries() {
        let prim = dep.primary(p);
        let records: Vec<String> = prim
            .store
            .records_from(&object, 0)
            .iter()
            .map(|r| {
                let mut h: u32 = 0;
                for b in r.update.iter() {
                    h = h.wrapping_mul(31).wrapping_add(u32::from(*b));
                }
                format!("{}:{h:08x}{}", r.index, if r.cert.is_empty() { " UNCERT" } else { "" })
            })
            .collect();
        println!(
            "  primary {:?}: store next_index={} records={records:?}",
            p,
            prim.store.get(&object).map_or(0, |st| st.next_index)
        );
    }
    for &s in &dep.secondaries {
        let sec = dep.secondary(s);
        let records: Vec<u64> =
            sec.store.records_from(&object, 0).iter().map(|r| r.index).collect();
        println!(
            "  secondary {:?}: next_index={} parent={:?} records={records:?}",
            s,
            sec.store.get(&object).map_or(0, |st| st.next_index),
            sec.parent()
        );
    }
}
