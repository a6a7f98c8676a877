//! Predictive prefetching (§4.7.2, §5).
//!
//! "We have implemented the introspective prefetching mechanism for a
//! local file system. Testing showed that the method correctly captured
//! high-order correlations, even in the presence of noise."
//!
//! The predictor is an order-`k` context model in the style of the
//! file-access predictors the paper cites (Kroeger & Long; Griffioen &
//! Appleton): for every context of the last `j ≤ k` accesses it counts
//! which object followed, and predicts by blending the longest matching
//! contexts first.

use std::collections::{HashMap, VecDeque};

use oceanstore_naming::guid::Guid;

/// An order-`k` access predictor.
#[derive(Debug)]
pub struct Prefetcher {
    k: usize,
    /// context (1..=k most recent accesses, most recent last) → successor
    /// counts.
    table: HashMap<Vec<Guid>, HashMap<Guid, u32>>,
    recent: VecDeque<Guid>,
}

impl Prefetcher {
    /// Creates an order-`k` predictor.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "order must be positive");
        Prefetcher { k, table: HashMap::new(), recent: VecDeque::new() }
    }

    /// Records an access and updates every context order.
    pub fn observe(&mut self, object: Guid) {
        for j in 1..=self.recent.len().min(self.k) {
            let ctx: Vec<Guid> = self.recent.iter().skip(self.recent.len() - j).copied().collect();
            *self.table.entry(ctx).or_default().entry(object).or_insert(0) += 1;
        }
        self.recent.push_back(object);
        if self.recent.len() > self.k {
            self.recent.pop_front();
        }
    }

    /// Predicts the most likely next objects (up to `n`), longest matching
    /// context first; ties break deterministically by GUID.
    pub fn predict(&self, n: usize) -> Vec<Guid> {
        let mut out: Vec<Guid> = Vec::new();
        for j in (1..=self.recent.len().min(self.k)).rev() {
            let ctx: Vec<Guid> = self.recent.iter().skip(self.recent.len() - j).copied().collect();
            if let Some(successors) = self.table.get(&ctx) {
                let mut ranked: Vec<(&Guid, &u32)> = successors.iter().collect();
                ranked.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
                for (g, _) in ranked {
                    if !out.contains(g) {
                        out.push(*g);
                        if out.len() == n {
                            return out;
                        }
                    }
                }
            }
        }
        out
    }
}

/// Replays `trace` through a fresh order-`k` prefetcher predicting `n`
/// objects each step, returning the hit rate over the second half of the
/// trace (the first half trains). This is the S5 measurement kernel.
pub fn hit_rate(trace: &[Guid], k: usize, n: usize) -> f64 {
    let mut p = Prefetcher::new(k);
    let half = trace.len() / 2;
    for g in &trace[..half] {
        p.observe(*g);
    }
    let mut hits = 0usize;
    let mut total = 0usize;
    for g in &trace[half..] {
        let predicted = p.predict(n);
        if predicted.contains(g) {
            hits += 1;
        }
        total += 1;
        p.observe(*g);
    }
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn g(i: usize) -> Guid {
        Guid::from_label(&format!("pf-{i}"))
    }

    #[test]
    fn learns_first_order_chain() {
        let mut p = Prefetcher::new(2);
        for _ in 0..10 {
            p.observe(g(1));
            p.observe(g(2));
            p.observe(g(3));
        }
        p.observe(g(1));
        assert_eq!(p.predict(1), vec![g(2)]);
    }

    #[test]
    fn higher_order_beats_first_order() {
        // Sequence where the successor of B depends on what preceded it:
        // A B C ... D B E ... — order-1 prediction after B is ambiguous,
        // order-2 resolves it.
        let mut p = Prefetcher::new(3);
        for _ in 0..20 {
            p.observe(g(1)); // A
            p.observe(g(2)); // B
            p.observe(g(3)); // C
            p.observe(g(4)); // D
            p.observe(g(2)); // B
            p.observe(g(5)); // E
        }
        // Context ... D B → E.
        p.observe(g(4));
        p.observe(g(2));
        assert_eq!(p.predict(1), vec![g(5)]);
        // Context ... A B → C.
        p.observe(g(3)); // keep stream sane
        p.observe(g(1));
        p.observe(g(2));
        assert_eq!(p.predict(1), vec![g(3)]);
    }

    #[test]
    fn captures_correlations_despite_noise() {
        // The §5 claim: a strong k-order pattern plus random noise events;
        // the predictor should still beat the noise floor decisively.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let mut trace = Vec::new();
        for _ in 0..400 {
            for i in [1usize, 2, 3, 4] {
                trace.push(g(i));
                // 20% chance of an interleaved noise access.
                if rng.gen::<f64>() < 0.2 {
                    trace.push(g(100 + rng.gen_range(0..20)));
                }
            }
        }
        let rate = hit_rate(&trace, 3, 2);
        assert!(rate > 0.6, "hit rate {rate}");
        // And the same trace with a random predictor baseline (predicting
        // a fixed pair) would sit near 2/24; make sure we're far above.
        assert!(rate > 3.0 * (2.0 / 24.0));
    }

    #[test]
    fn random_trace_yields_low_hit_rate() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let trace: Vec<Guid> = (0..2000).map(|_| g(rng.gen_range(0..50))).collect();
        let rate = hit_rate(&trace, 2, 1);
        assert!(rate < 0.15, "hit rate {rate} on noise");
    }

    #[test]
    fn predict_without_history_is_empty() {
        let p = Prefetcher::new(2);
        assert!(p.predict(3).is_empty());
    }

    #[test]
    fn predict_dedups_across_orders() {
        let mut p = Prefetcher::new(2);
        for _ in 0..5 {
            p.observe(g(1));
            p.observe(g(2));
        }
        p.observe(g(1));
        let out = p.predict(5);
        let mut dedup = out.clone();
        dedup.dedup();
        assert_eq!(out, dedup);
    }
}
