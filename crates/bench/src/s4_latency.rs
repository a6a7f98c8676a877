//! S4: the §4.4.5 latency estimate — "there are six phases of messages in
//! the protocol we have described. Assuming latency of messages over the
//! wide area dominates computation time and that each message takes 100ms,
//! we have an approximate latency per update of less than a second."
//!
//! We measure end-to-end client-observed commit latency over a simulated
//! 100 ms-per-message WAN, across the paper's tier sizes. Our path has
//! five phases (request → pre-prepare → prepare → commit → reply) because
//! clients talk to the whole tier directly; the dissemination phase to
//! secondaries is the sixth, measured separately.

use oceanstore_consensus::harness::{build_tier, run_updates};
use oceanstore_replica::harness::{build_deployment, DeploymentOpts};
use oceanstore_sim::SimDuration;
use oceanstore_update::update::Action;
use oceanstore_update::Update;

/// One latency measurement.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Faults tolerated.
    pub m: usize,
    /// Tier size.
    pub n: usize,
    /// Mean client-observed commit latency (ms).
    pub commit_ms: f64,
    /// Mean latency until the root secondary has the certified update
    /// (adds the dissemination phase — the full "six phases").
    pub disseminated_ms: f64,
}

/// Runs the latency measurement with `updates` per tier size.
pub fn run(ms: &[usize], updates: usize, seed: u64) -> Vec<LatencyRow> {
    let wan = SimDuration::from_millis(100);
    let mut out = Vec::new();
    for &m in ms {
        // Client-observed commit latency from the pure consensus harness.
        let mut tier = build_tier(m, wan, seed);
        let run = run_updates(&mut tier, 4096, updates);
        let commit_ms = run.latencies.iter().map(|l| l.as_millis() as f64).sum::<f64>()
            / run.latencies.len() as f64;

        // Dissemination latency from the full two-tier deployment.
        let mut dep = build_deployment(&DeploymentOpts {
            m,
            secondaries: 3,
            clients: 1,
            latency: wan,
            ..DeploymentOpts::default()
        });
        let object = oceanstore_naming::guid::Guid::from_label(&format!("s4-{m}"));
        let update = Update::unconditional(vec![Action::Append { ciphertext: vec![0; 64] }]);
        let start = dep.sim.now();
        dep.submit(dep.clients[0], object, &update);
        let root = dep.secondaries[0];
        let mut disseminated_ms = f64::NAN;
        for _ in 0..200 {
            dep.sim.run_for(SimDuration::from_millis(50));
            let view = dep.secondary(root).committed_view(&object);
            if view.is_some_and(|d| d.version_number() >= 1) {
                disseminated_ms =
                    dep.sim.now().saturating_since(start).as_millis() as f64;
                break;
            }
        }
        out.push(LatencyRow { m, n: 3 * m + 1, commit_ms, disseminated_ms });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_a_second_as_the_paper_estimates() {
        let rows = run(&[2, 4], 2, 21);
        for r in &rows {
            assert_eq!(r.commit_ms, 500.0, "five 100ms phases: {r:?}");
            assert!(r.disseminated_ms < 1000.0, "six-ish phases < 1s: {r:?}");
            assert!(r.disseminated_ms >= r.commit_ms, "{r:?}");
        }
    }
}
