//! Tornado-style erasure code (§4.5, "Tornado codes \[32\]").
//!
//! The paper's footnote 12 captures the trade-off that matters: "Tornado
//! codes, which are faster to encode and decode, require slightly more than
//! n fragments to reconstruct the information." We reproduce that trade-off
//! with an irregular-degree XOR code decoded by *peeling*, in the style of
//! the Luby-et-al. constructions the paper cites: each check fragment is
//! the XOR of a pseudo-random subset of data fragments, with degrees drawn
//! from a robust-soliton distribution; decoding repeatedly resolves any
//! check with exactly one unknown neighbour.
//!
//! Compared to [`crate::rs::ReedSolomon`]:
//!
//! * encode/decode cost is XOR-only — no field multiplications;
//! * decoding needs `(1 + ε)k` fragments rather than exactly `k`, and can
//!   stall on unlucky subsets (reported as [`CodeError::DecodingStalled`]).

use crate::rs::CodeError;

/// Deterministic 64-bit mixer (splitmix64) used to derive check-fragment
/// neighbourhoods; keeping it local avoids an RNG dependency and guarantees
/// the code layout is a pure function of `(k, n, seed)`.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A `(k, n)` Tornado-style codec: `k` data fragments, `n - k` XOR check
/// fragments.
#[derive(Debug, Clone)]
pub struct Tornado {
    k: usize,
    n: usize,
    /// Data-fragment neighbours of each check fragment.
    checks: Vec<Vec<usize>>,
}

impl Tornado {
    /// Creates a codec whose check-fragment graph is derived from `seed`.
    ///
    /// # Errors
    ///
    /// Rejects `k == 0` and `n <= k`.
    pub fn new(k: usize, n: usize, seed: u64) -> Result<Self, CodeError> {
        if k == 0 {
            return Err(CodeError::InvalidParams { k, n, reason: "k must be positive" });
        }
        if n <= k {
            return Err(CodeError::InvalidParams { k, n, reason: "n must exceed k" });
        }
        // Degree structure: a mix of soliton-style sparse checks (cheap,
        // peelable) and denser checks that keep the residual GF(2) system
        // close to full rank so decoding needs only slightly more than k
        // fragments. Every fourth check is sparse; the rest include each
        // data fragment independently with probability ~2·ln(k)/k.
        let cdf = robust_soliton_cdf(k);
        // At least one data fragment per check on average, at most half
        // (`k = 1` asks for both, and gets a half).
        let p_dense = (2.0 * (k as f64).ln() / k as f64).max(1.0 / k as f64).min(0.5);
        let p_bits = (p_dense * (1u64 << 32) as f64) as u64;
        let mut checks = Vec::with_capacity(n - k);
        for c in 0..(n - k) {
            let mut st = seed ^ (c as u64).wrapping_mul(0xA24B_AED4_963E_E407);
            let mut chosen: Vec<usize>;
            if c % 4 == 0 {
                // Sparse soliton check.
                let u = (splitmix64(&mut st) >> 11) as f64 / (1u64 << 53) as f64;
                let degree = (cdf.partition_point(|&p| p < u) + 1).clamp(1, k);
                // Sample `degree` distinct data indices (Floyd's algorithm).
                chosen = Vec::with_capacity(degree);
                for j in (k - degree)..k {
                    let t = (splitmix64(&mut st) % (j as u64 + 1)) as usize;
                    if chosen.contains(&t) {
                        chosen.push(j);
                    } else {
                        chosen.push(t);
                    }
                }
                chosen.sort_unstable();
            } else {
                // Dense Bernoulli check.
                chosen = (0..k)
                    .filter(|_| splitmix64(&mut st) & 0xFFFF_FFFF < p_bits)
                    .collect();
                if chosen.is_empty() {
                    chosen.push((splitmix64(&mut st) % k as u64) as usize);
                }
            }
            checks.push(chosen);
        }
        Ok(Tornado { k, n, checks })
    }

    /// Data fragment count.
    pub fn data_shards(&self) -> usize {
        self.k
    }

    /// Total fragment count.
    pub fn total_shards(&self) -> usize {
        self.n
    }

    /// Encodes `k` equal-length data fragments into `n` fragments (first
    /// `k` are the data verbatim).
    ///
    /// # Errors
    ///
    /// [`CodeError::ShardSizeMismatch`] on inconsistent input.
    pub fn encode<T: AsRef<[u8]>>(&self, data: &[T]) -> Result<Vec<Vec<u8>>, CodeError> {
        if data.len() != self.k {
            return Err(CodeError::ShardSizeMismatch);
        }
        let len = data[0].as_ref().len();
        if data.iter().any(|s| s.as_ref().len() != len) {
            return Err(CodeError::ShardSizeMismatch);
        }
        let mut out: Vec<Vec<u8>> =
            data.iter().map(|s| s.as_ref().to_vec()).collect();
        for nbrs in &self.checks {
            let mut shard = vec![0u8; len];
            for &j in nbrs {
                crate::gf256::xor_slice(&mut shard, data[j].as_ref());
            }
            out.push(shard);
        }
        Ok(out)
    }

    /// Reconstructs missing fragments in place by peeling.
    ///
    /// # Errors
    ///
    /// * [`CodeError::NotEnoughShards`] — fewer than `k` fragments survive
    ///   (information-theoretically hopeless);
    /// * [`CodeError::DecodingStalled`] — enough fragments survive but the
    ///   peeling process stalled; callers should fetch more fragments and
    ///   retry (the paper's "slightly more than n" caveat).
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), CodeError> {
        if shards.len() != self.n {
            return Err(CodeError::ShardSizeMismatch);
        }
        let have = shards.iter().filter(|s| s.is_some()).count();
        if have < self.k {
            return Err(CodeError::NotEnoughShards { have, need: self.k });
        }
        let len = shards
            .iter()
            .flatten()
            .map(Vec::len)
            .next()
            .expect("at least k fragments present");
        if shards.iter().flatten().any(|s| s.len() != len) {
            return Err(CodeError::ShardSizeMismatch);
        }
        // Working copy of check equations that survive: value = check XOR
        // already-known data neighbours; unknowns = the rest.
        let mut known: Vec<Option<Vec<u8>>> =
            shards[..self.k].to_vec();
        struct Eq {
            value: Vec<u8>,
            unknowns: Vec<usize>,
        }
        let mut eqs: Vec<Eq> = Vec::new();
        for (c, nbrs) in self.checks.iter().enumerate() {
            let Some(val) = &shards[self.k + c] else { continue };
            let mut value = val.clone();
            let mut unknowns = Vec::new();
            for &j in nbrs {
                match &known[j] {
                    Some(d) => crate::gf256::xor_slice(&mut value, d),
                    None => unknowns.push(j),
                }
            }
            eqs.push(Eq { value, unknowns });
        }
        // Peel: resolve any equation with exactly one unknown.
        while let Some(pos) = eqs.iter().position(|e| e.unknowns.len() == 1) {
            let eq = eqs.swap_remove(pos);
            let j = eq.unknowns[0];
            if known[j].is_none() {
                known[j] = Some(eq.value.clone());
                for other in &mut eqs {
                    if let Some(idx) = other.unknowns.iter().position(|&u| u == j) {
                        other.unknowns.swap_remove(idx);
                        crate::gf256::xor_slice(&mut other.value, &eq.value);
                    }
                }
            }
            // Drop satisfied equations.
            eqs.retain(|e| !e.unknowns.is_empty());
        }
        // Inactivation fallback: if peeling stalled, solve the residual
        // system by Gaussian elimination over GF(2). This is what practical
        // Tornado/LT decoders do, and it recovers whenever the surviving
        // equations span the missing fragments.
        if known.iter().any(Option::is_none) && !eqs.is_empty() {
            let unknown_ids: Vec<usize> =
                (0..self.k).filter(|&j| known[j].is_none()).collect();
            let col_of: std::collections::HashMap<usize, usize> =
                unknown_ids.iter().enumerate().map(|(c, &j)| (j, c)).collect();
            let width = unknown_ids.len();
            let words = width.div_ceil(64);
            // Each row: bitmask over unknowns + RHS value.
            let mut rows: Vec<(Vec<u64>, Vec<u8>)> = eqs
                .iter()
                .map(|e| {
                    let mut mask = vec![0u64; words];
                    for &u in &e.unknowns {
                        let c = col_of[&u];
                        mask[c / 64] |= 1 << (c % 64);
                    }
                    (mask, e.value.clone())
                })
                .collect();
            let mut pivot_row_of_col: Vec<Option<usize>> = vec![None; width];
            let mut next_row = 0usize;
            for (col, pivot_slot) in pivot_row_of_col.iter_mut().enumerate() {
                let Some(r) = (next_row..rows.len()).find(|&r| {
                    rows[r].0[col / 64] >> (col % 64) & 1 == 1
                }) else {
                    continue;
                };
                rows.swap(next_row, r);
                for other in 0..rows.len() {
                    if other != next_row && rows[other].0[col / 64] >> (col % 64) & 1 == 1 {
                        let (pivot_mask, pivot_val) = rows[next_row].clone();
                        let (m, v) = &mut rows[other];
                        for (a, b) in m.iter_mut().zip(&pivot_mask) {
                            *a ^= b;
                        }
                        crate::gf256::xor_slice(v, &pivot_val);
                    }
                }
                *pivot_slot = Some(next_row);
                next_row += 1;
            }
            if pivot_row_of_col.iter().all(Option::is_some) {
                for (col, &j) in unknown_ids.iter().enumerate() {
                    let r = pivot_row_of_col[col].expect("all pivots found");
                    known[j] = Some(rows[r].1.clone());
                }
            }
        }
        if known.iter().any(Option::is_none) {
            return Err(CodeError::DecodingStalled);
        }
        // All data recovered: rebuild every missing fragment.
        for (j, d) in known.iter().enumerate() {
            if shards[j].is_none() {
                shards[j] = d.clone();
            }
        }
        for (c, nbrs) in self.checks.iter().enumerate() {
            if shards[self.k + c].is_none() {
                let mut v = vec![0u8; len];
                for &j in nbrs {
                    let d = known[j].as_ref().expect("all data known");
                    crate::gf256::xor_slice(&mut v, d);
                }
                shards[self.k + c] = Some(v);
            }
        }
        Ok(())
    }
}

/// Cumulative robust-soliton distribution over degrees `1..=k`
/// (c = 0.1, δ = 0.5), returned as a CDF vector where entry `d-1` is
/// `P(degree <= d)`.
fn robust_soliton_cdf(k: usize) -> Vec<f64> {
    let kf = k as f64;
    let c = 0.1f64;
    let delta = 0.5f64;
    let r = (c * (kf / delta).ln() * kf.sqrt()).max(1.0);
    let spike = (kf / r).round().max(1.0) as usize;
    let mut rho = vec![0.0; k];
    rho[0] = 1.0 / kf;
    for d in 2..=k {
        rho[d - 1] = 1.0 / (d as f64 * (d as f64 - 1.0));
    }
    let mut tau = vec![0.0; k];
    for d in 1..=k {
        if d < spike {
            tau[d - 1] = r / (d as f64 * kf);
        } else if d == spike {
            tau[d - 1] = r * (r / delta).ln() / kf;
        }
    }
    let total: f64 = rho.iter().sum::<f64>() + tau.iter().sum::<f64>();
    let mut cdf = Vec::with_capacity(k);
    let mut acc = 0.0;
    for d in 0..k {
        acc += (rho[d] + tau[d]) / total;
        cdf.push(acc);
    }
    cdf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|j| ((i * 37 + j * 11 + 3) % 256) as u8).collect())
            .collect()
    }

    #[test]
    fn encode_is_systematic_and_xor_only() {
        let t = Tornado::new(8, 16, 1).unwrap();
        let d = data(8, 32);
        let coded = t.encode(&d).unwrap();
        assert_eq!(coded.len(), 16);
        assert_eq!(&coded[..8], &d[..]);
        // Each check equals the XOR of its neighbours.
        for (c, nbrs) in t.checks.iter().enumerate() {
            let mut expect = vec![0u8; 32];
            for &j in nbrs {
                for (e, x) in expect.iter_mut().zip(&d[j]) {
                    *e ^= x;
                }
            }
            assert_eq!(coded[8 + c], expect, "check {c}");
        }
    }

    #[test]
    fn full_set_reconstructs_trivially() {
        let t = Tornado::new(4, 8, 2).unwrap();
        let d = data(4, 16);
        let coded = t.encode(&d).unwrap();
        let mut have: Vec<Option<Vec<u8>>> = coded.iter().cloned().map(Some).collect();
        t.reconstruct(&mut have).unwrap();
        for (h, c) in have.iter().zip(&coded) {
            assert_eq!(h.as_ref().unwrap(), c);
        }
    }

    #[test]
    fn recovers_lost_data_fragments_with_overhead() {
        // Lose 4 of 16 data fragments; 28 of 32 total remain — well above
        // the (1+ε)k threshold, peeling should succeed.
        let t = Tornado::new(16, 32, 3).unwrap();
        let d = data(16, 64);
        let coded = t.encode(&d).unwrap();
        let mut have: Vec<Option<Vec<u8>>> = coded.iter().cloned().map(Some).collect();
        for i in [0usize, 5, 9, 15] {
            have[i] = None;
        }
        t.reconstruct(&mut have).unwrap();
        for i in 0..16 {
            assert_eq!(have[i].as_ref().unwrap(), &d[i], "data fragment {i}");
        }
    }

    #[test]
    fn below_k_is_hopeless() {
        let t = Tornado::new(8, 16, 4).unwrap();
        let coded = t.encode(&data(8, 8)).unwrap();
        let mut have: Vec<Option<Vec<u8>>> = coded.into_iter().map(Some).collect();
        for slot in have.iter_mut().take(9) {
            *slot = None;
        }
        assert_eq!(
            t.reconstruct(&mut have),
            Err(CodeError::NotEnoughShards { have: 7, need: 8 })
        );
    }

    #[test]
    fn needs_slightly_more_than_k() {
        // The paper's footnote-12 property, measured: decoding from exactly
        // k random fragments usually fails, while k + 50% succeeds almost
        // always. Deterministic over 40 trials.
        let k = 16;
        let n = 48;
        let t = Tornado::new(k, n, 7).unwrap();
        let d = data(k, 16);
        let coded = t.encode(&d).unwrap();
        let mut exact_successes = 0;
        let mut padded_successes = 0;
        let mut st = 99u64;
        for _ in 0..40 {
            // Random survivor sets via splitmix-driven shuffle.
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = (splitmix64(&mut st) % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            for (budget, counter) in
                [(k, &mut exact_successes), (k + k / 2, &mut padded_successes)]
            {
                let mut have: Vec<Option<Vec<u8>>> = vec![None; n];
                for &i in order.iter().take(budget) {
                    have[i] = Some(coded[i].clone());
                }
                if t.reconstruct(&mut have).is_ok() {
                    *counter += 1;
                }
            }
        }
        assert!(
            padded_successes > exact_successes,
            "overhead should help: exact={exact_successes}, padded={padded_successes}"
        );
        assert!(padded_successes >= 32, "padded={padded_successes}");
    }

    #[test]
    fn correct_whenever_decode_succeeds() {
        // Whatever the survivor subset, a successful decode must return the
        // true data — never fabricated bytes.
        let k = 8;
        let n = 24;
        let t = Tornado::new(k, n, 13).unwrap();
        let d = data(k, 12);
        let coded = t.encode(&d).unwrap();
        let mut st = 5u64;
        for _ in 0..200 {
            let mut have: Vec<Option<Vec<u8>>> = vec![None; n];
            let mut cnt = 0;
            for (i, slot) in have.iter_mut().enumerate() {
                if splitmix64(&mut st).is_multiple_of(2) {
                    *slot = Some(coded[i].clone());
                    cnt += 1;
                }
            }
            if cnt < k {
                continue;
            }
            if t.reconstruct(&mut have).is_ok() {
                for i in 0..n {
                    assert_eq!(have[i].as_ref().unwrap(), &coded[i], "fragment {i}");
                }
            }
        }
    }

    #[test]
    fn stall_is_reported_not_wrong() {
        // With only check fragments of degree >= 2 surviving, decode must
        // stall — and must say so rather than fabricate data.
        let k = 4;
        let t = Tornado::new(k, 12, 5).unwrap();
        let d = data(k, 8);
        let coded = t.encode(&d).unwrap();
        // Keep only check fragments with degree >= 2 (no data fragments).
        let mut have: Vec<Option<Vec<u8>>> = vec![None; 12];
        let mut kept = 0;
        for (c, nbrs) in t.checks.iter().enumerate() {
            if nbrs.len() >= 2 && kept < k {
                have[k + c] = Some(coded[k + c].clone());
                kept += 1;
            }
        }
        if kept == k {
            match t.reconstruct(&mut have) {
                Ok(()) => {
                    for i in 0..k {
                        assert_eq!(have[i].as_ref().unwrap(), &d[i]);
                    }
                }
                Err(e) => assert_eq!(e, CodeError::DecodingStalled),
            }
        }
    }

    #[test]
    fn layout_is_deterministic_in_seed() {
        let a = Tornado::new(8, 20, 42).unwrap();
        let b = Tornado::new(8, 20, 42).unwrap();
        let c = Tornado::new(8, 20, 43).unwrap();
        assert_eq!(a.checks, b.checks);
        assert_ne!(a.checks, c.checks);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(Tornado::new(0, 4, 0).is_err());
        assert!(Tornado::new(4, 4, 0).is_err());
    }

    #[test]
    fn degrees_are_valid() {
        let t = Tornado::new(32, 96, 11).unwrap();
        for nbrs in &t.checks {
            assert!(!nbrs.is_empty() && nbrs.len() <= 32);
            // Distinct and sorted.
            for w in nbrs.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }
}
