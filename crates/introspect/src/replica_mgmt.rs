//! Introspective replica management (§4.7.2).
//!
//! "Replica management adjusts the number and location of floating
//! replicas in order to service access requests more efficiently. Event
//! handlers monitor client requests and system load, noting when access to
//! a specific replica exceeds its resource allotment. When access requests
//! overwhelm a replica, it forwards a request for assistance to its parent
//! node. ... Conversely, replica management eliminates floating replicas
//! that have fallen into disuse."

use std::collections::HashMap;

use oceanstore_naming::guid::Guid;

/// A recommended adjustment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaAction {
    /// Load exceeds the allotment: ask the parent to create a replica
    /// nearby.
    Create {
        /// The hot object.
        object: Guid,
    },
    /// The replica has fallen into disuse: retire it.
    Eliminate {
        /// The cold object.
        object: Guid,
    },
}

/// Per-object load tracking with hysteresis.
#[derive(Debug)]
pub struct ReplicaManager {
    /// Requests/tick above which a replica is overwhelmed.
    high_watermark: f64,
    /// Requests/tick below which a replica is idle.
    low_watermark: f64,
    /// EWMA smoothing factor.
    alpha: f64,
    /// Ticks an object must stay idle before elimination (hysteresis
    /// against "harmful changes and feedback cycles").
    idle_ticks_required: u32,
    rates: HashMap<Guid, Load>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Load {
    ewma: f64,
    this_tick: f64,
    idle_ticks: u32,
    /// Replicas we already asked to create (don't spam while hot).
    boosted: bool,
}

impl ReplicaManager {
    /// Creates a manager.
    ///
    /// # Panics
    ///
    /// Panics unless `low < high` and `0 < alpha <= 1`.
    pub fn new(high_watermark: f64, low_watermark: f64, alpha: f64, idle_ticks_required: u32) -> Self {
        assert!(low_watermark < high_watermark, "hysteresis needs low < high");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of range");
        ReplicaManager {
            high_watermark,
            low_watermark,
            alpha,
            idle_ticks_required,
            rates: HashMap::new(),
        }
    }

    /// Records one access to a locally held replica.
    pub fn record_access(&mut self, object: Guid) {
        self.rates.entry(object).or_default().this_tick += 1.0;
    }

    /// Registers a replica so disuse can be detected even with zero
    /// traffic.
    pub fn track(&mut self, object: Guid) {
        self.rates.entry(object).or_default();
    }

    /// Smoothed request rate for an object.
    pub fn rate(&self, object: &Guid) -> f64 {
        self.rates.get(object).map_or(0.0, |l| l.ewma)
    }

    /// Closes one observation tick and returns recommended actions.
    pub fn tick(&mut self) -> Vec<ReplicaAction> {
        let mut actions = Vec::new();
        let mut keys: Vec<Guid> = self.rates.keys().copied().collect();
        keys.sort(); // determinism
        for object in keys {
            let l = self.rates.get_mut(&object).expect("listed");
            l.ewma = self.alpha * l.this_tick + (1.0 - self.alpha) * l.ewma;
            l.this_tick = 0.0;
            if l.ewma > self.high_watermark {
                l.idle_ticks = 0;
                if !l.boosted {
                    l.boosted = true;
                    actions.push(ReplicaAction::Create { object });
                }
            } else if l.ewma < self.low_watermark {
                l.boosted = false;
                l.idle_ticks += 1;
                if l.idle_ticks >= self.idle_ticks_required {
                    l.idle_ticks = 0;
                    actions.push(ReplicaAction::Eliminate { object });
                }
            } else {
                // In the hysteresis band: no action, reset idle counting.
                l.idle_ticks = 0;
                l.boosted = false;
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(i: usize) -> Guid {
        Guid::from_label(&format!("rm-{i}"))
    }

    fn mgr() -> ReplicaManager {
        ReplicaManager::new(10.0, 1.0, 0.5, 3)
    }

    #[test]
    fn hot_object_requests_assistance_once() {
        let mut m = mgr();
        let mut creates = 0;
        for _ in 0..6 {
            for _ in 0..40 {
                m.record_access(g(1));
            }
            for a in m.tick() {
                if a == (ReplicaAction::Create { object: g(1) }) {
                    creates += 1;
                }
            }
        }
        assert_eq!(creates, 1, "assistance requested exactly once while hot");
        assert!(m.rate(&g(1)) > 10.0);
    }

    #[test]
    fn cooled_then_reheated_object_requests_again() {
        let mut m = mgr();
        for _ in 0..30 {
            m.record_access(g(1));
        }
        assert_eq!(m.tick(), vec![ReplicaAction::Create { object: g(1) }]);
        // Cool down into the idle zone and stay.
        let mut eliminated = false;
        for _ in 0..10 {
            for a in m.tick() {
                if a == (ReplicaAction::Eliminate { object: g(1) }) {
                    eliminated = true;
                }
            }
        }
        assert!(eliminated);
        // Heat up again: a fresh Create is allowed.
        for _ in 0..3 {
            for _ in 0..40 {
                m.record_access(g(1));
            }
            if m.tick().contains(&ReplicaAction::Create { object: g(1) }) {
                return;
            }
        }
        panic!("reheated object never asked for assistance");
    }

    #[test]
    fn idle_replica_eliminated_only_after_hysteresis() {
        let mut m = mgr();
        m.track(g(2));
        assert!(m.tick().is_empty(), "tick 1: idle but below threshold count");
        assert!(m.tick().is_empty(), "tick 2");
        assert_eq!(m.tick(), vec![ReplicaAction::Eliminate { object: g(2) }], "tick 3");
    }

    #[test]
    fn moderate_load_is_left_alone() {
        let mut m = mgr();
        for _ in 0..20 {
            for _ in 0..5 {
                m.record_access(g(3)); // between low (1) and high (10)
            }
            assert!(m.tick().is_empty());
        }
    }

    #[test]
    fn objects_are_independent() {
        let mut m = mgr();
        m.track(g(9)); // idle
        for _ in 0..50 {
            m.record_access(g(8)); // hot
        }
        let a1 = m.tick();
        assert!(a1.contains(&ReplicaAction::Create { object: g(8) }));
        assert!(!a1.iter().any(|a| matches!(a, ReplicaAction::Eliminate { object } if *object == g(8))));
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn bad_watermarks_rejected() {
        let _ = ReplicaManager::new(1.0, 10.0, 0.5, 3);
    }
}
