//! Post-scenario invariant checkers over two-tier deployments.
//!
//! A chaos run is only meaningful with a verdict: after the faults have
//! played out and a settling window has elapsed, these checkers inspect
//! the deployment and report every broken promise as a human-readable
//! failure line.

use oceanstore_naming::guid::Guid;
use oceanstore_replica::{Deployment, RoleHost};

/// Outcome of a set of invariant checks.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    /// One line per broken invariant; empty means all checks passed.
    pub failures: Vec<String>,
}

impl InvariantReport {
    /// Whether every checked invariant held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Folds another report's failures into this one.
    pub fn merge(mut self, other: InvariantReport) -> Self {
        self.failures.extend(other.failures);
        self
    }
}

/// Eventual convergence: every live secondary holds the full committed
/// prefix of every listed object.
pub fn check_convergence<N: RoleHost>(dep: &Deployment<N>, objects: &[Guid]) -> InvariantReport {
    let mut report = InvariantReport::default();
    for object in objects {
        let frontier = dep.frontier(object);
        for &s in &dep.secondaries {
            if dep.sim.is_down(s) {
                continue;
            }
            let sec = dep.secondary(s);
            let have = sec.store.get(object).map_or(0, |st| st.next_index);
            if have < frontier {
                report.failures.push(format!(
                    "convergence: secondary {s:?} has {have}/{frontier} commits of {object:?}"
                ));
            }
        }
    }
    report
}

/// No committed-update loss: the tier committed at least `expected`
/// records for `object`, and every live secondary can replay all of them
/// (dense record log up to the frontier).
pub fn check_no_committed_loss<N: RoleHost>(
    dep: &Deployment<N>,
    object: &Guid,
    expected: u64,
) -> InvariantReport {
    let mut report = InvariantReport::default();
    let frontier = dep.frontier(object);
    if frontier < expected {
        report.failures.push(format!(
            "loss: tier committed only {frontier}/{expected} updates of {object:?}"
        ));
    }
    for &s in &dep.secondaries {
        if dep.sim.is_down(s) {
            continue;
        }
        let sec = dep.secondary(s);
        let records = sec.store.records_from(object, 0).len() as u64;
        if records < expected {
            report.failures.push(format!(
                "loss: secondary {s:?} holds {records}/{expected} committed records of {object:?}"
            ));
        }
    }
    report
}

/// Every committed record is certified: for each index below the
/// committed frontier, at least one *live* primary holds the record with
/// a valid `m + 1`-of-`n` serialization certificate. This is the
/// disseminator-failover liveness property — a crashed disseminator must
/// not leave a committed update stuck uncertified in the tier.
pub fn check_every_commit_certifies<N: RoleHost>(
    dep: &Deployment<N>,
    objects: &[Guid],
) -> InvariantReport {
    let mut report = InvariantReport::default();
    for object in objects {
        let ring = dep.ring_for(object);
        let threshold = ring.cfg.m + 1;
        let frontier = dep.frontier(object);
        for index in 0..frontier {
            let mut live = ring.primaries.iter().filter(|&&p| !dep.sim.is_down(p));
            let certified = live.any(|&p| {
                dep.primary(p).store.records_from(object, index).iter().any(|r| {
                    r.index == index && r.verified(&ring.cfg.replica_keys, threshold).is_some()
                })
            });
            if !certified {
                report.failures.push(format!(
                    "certify: no live primary holds a valid cert for {object:?}[{index}]"
                ));
            }
        }
    }
    report
}

/// No uncertified record anywhere: every commit record held by every live
/// honest secondary carries a valid `m + 1`-of-`n` certificate. A
/// Byzantine peer serving forged records must not get a single byte past
/// the ingest checks.
pub fn check_no_uncertified_records<N: RoleHost>(dep: &Deployment<N>) -> InvariantReport {
    let mut report = InvariantReport::default();
    for &s in &dep.secondaries {
        if dep.sim.is_down(s) {
            continue;
        }
        let sec = dep.secondary(s);
        if sec.config().fault != oceanstore_replica::SecondaryFault::Honest {
            continue; // the liar's own store is not part of the promise
        }
        let objects: Vec<Guid> = sec.store.guids().copied().collect();
        for object in objects {
            // Certificates are signed by the object's owning ring.
            let ring = dep.ring_for(&object);
            let threshold = ring.cfg.m + 1;
            for r in sec.store.records_from(&object, 0) {
                if r.verified(&ring.cfg.replica_keys, threshold).is_none() {
                    report.failures.push(format!(
                        "uncertified: secondary {s:?} stored {object:?}[{}] without a valid cert",
                        r.index
                    ));
                }
            }
        }
    }
    report
}

/// Quorum-loss safety: while a partition leaves *no* side with a
/// `2m + 1` agreement quorum, the committed frontier must not advance.
/// `before` and `after` are frontier samples taken inside the cut (after
/// in-flight pre-cut traffic has settled, and just before the heal);
/// `label` names the cut window in the failure line.
pub fn check_frontier_stalled(label: &str, before: u64, after: u64) -> InvariantReport {
    let mut report = InvariantReport::default();
    if after != before {
        report.failures.push(format!(
            "quorum-loss: frontier advanced {before} -> {after} during {label} \
             (commits certified without a 2m+1 quorum)"
        ));
    }
    report
}

/// Bounded replica-store memory: no live primary's or secondary's record
/// log may ever have retained more than `max_retained_records` commit
/// records (the consensus log's bound, extended to the replica store's
/// record log). Each store's own peak is checked, which bounds its current
/// count too; a deployment with no live store fails the check.
pub fn check_store_memory<N: RoleHost>(
    dep: &Deployment<N>,
    max_retained_records: u64,
) -> InvariantReport {
    let mut report = InvariantReport::default();
    let mut sampled = 0;
    for (n, health) in dep.store_health() {
        sampled += 1;
        if health.peak_retained_records > max_retained_records {
            report.failures.push(format!(
                "store-mem: node {n:?} peaked at {} retained records (bound {})",
                health.peak_retained_records, max_retained_records
            ));
        }
    }
    if sampled == 0 {
        report.failures.push("store-mem: no live store to sample".to_string());
    }
    report
}

/// Replica frontiers agree: in each ring, every live primary has executed
/// up to one `next_exec` and holds one stable checkpoint. Checked once the
/// last fault has cleared and a drain has passed, it catches a primary
/// that stopped for good even when no client write is left pending
/// (ROADMAP item 3(c): a committed slot whose request payload never
/// arrived).
pub fn check_frontiers_agree<N: RoleHost>(dep: &Deployment<N>) -> InvariantReport {
    let mut report = InvariantReport::default();
    for (r, ring) in dep.rings.iter().enumerate() {
        let marks: Vec<_> = ring
            .primaries
            .iter()
            .filter(|&&p| !dep.sim.is_down(p))
            .map(|&p| {
                let health = dep.primary(p).pbft().health();
                (p, health.next_exec, health.checkpoint_seq)
            })
            .collect();
        if marks.windows(2).any(|w| (w[0].1, w[0].2) != (w[1].1, w[1].2)) {
            report.failures.push(format!(
                "frontiers: ring {r}'s live primaries apart, \
                 (primary, next_exec, stable checkpoint) {marks:?}"
            ));
        }
    }
    report
}

/// All clients saw their submissions commit (`m + 1` matching replies).
pub fn check_clients_settled<N: RoleHost>(dep: &Deployment<N>) -> InvariantReport {
    let mut report = InvariantReport::default();
    for &c in &dep.clients {
        if dep.sim.is_down(c) {
            continue;
        }
        let pending = dep.client(c).pending_count();
        if pending > 0 {
            report
                .failures
                .push(format!("client {c:?} still has {pending} uncommitted requests"));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use oceanstore_replica::{build_deployment, DeploymentOpts};

    #[test]
    fn fresh_deployment_passes_vacuously() {
        let dep = build_deployment(&DeploymentOpts::default());
        let object = Guid::from_label("untouched");
        assert_eq!(dep.frontier(&object), 0);
        let report = check_convergence(&dep, &[object])
            .merge(check_no_committed_loss(&dep, &object, 0))
            .merge(check_clients_settled(&dep))
            .merge(check_frontiers_agree(&dep));
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn missing_commits_are_reported() {
        let dep = build_deployment(&DeploymentOpts::default());
        let object = Guid::from_label("never-committed");
        let report = check_no_committed_loss(&dep, &object, 2);
        assert!(!report.passed());
        assert!(report.failures.iter().any(|f| f.contains("tier committed only 0/2")));
    }
}
