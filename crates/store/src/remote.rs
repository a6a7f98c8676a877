//! The simulated remote backend: an untrusted storage *provider*.
//!
//! OceanStore's "utility model" assumes data lives with providers you do
//! not control — they fail, they throttle, and sometimes they disappear
//! entirely; the design survives because "any server may create a local
//! replica of any data object" and archival fragments cover the rest.
//! [`SimRemoteStore`] models a provider deterministically: every
//! operation draws from a seeded RNG to decide whether the provider
//! drops it, accounts a fixed per-operation service latency, and a
//! chaos schedule can flip the whole provider dead mid-run with
//! [`SimRemoteStore::set_down`].
//!
//! Latency is *accounted, not scheduled*: the sim's discrete-event clock
//! ticks only on messages and timers, and blob operations are node-local
//! state, so injecting real delays would perturb every pinned schedule.
//! Instead the store accumulates `injected_latency_us` deterministically,
//! which benches and oracles read as the provider's service-time bill.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::Guid;

use crate::{BlobStore, MemoryStore, StoreError, StoreStats};

/// A provider-style store with seeded failure injection.
#[derive(Debug)]
pub struct SimRemoteStore {
    inner: MemoryStore,
    rng: ChaCha8Rng,
    /// Per-operation service latency, microseconds (accounted).
    latency_us: u64,
    /// Probability an operation is dropped while the provider is up.
    fail_prob: f64,
    /// The provider has been killed outright.
    down: bool,
    /// Operations refused (injection or outage).
    denied: u64,
    /// Accounted service latency, microseconds.
    injected_latency_us: u64,
}

impl SimRemoteStore {
    /// A provider seeded with `seed`, charging `latency_us` per operation
    /// and dropping each operation with probability `fail_prob`.
    pub fn new(seed: u64, latency_us: u64, fail_prob: f64) -> Self {
        SimRemoteStore {
            inner: MemoryStore::new(),
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x6f63_6561_6e5f_7374), // "ocean_st"
            latency_us,
            fail_prob,
            down: false,
            denied: 0,
            injected_latency_us: 0,
        }
    }

    /// Kills or revives the provider. While down, every operation
    /// returns [`StoreError::Unavailable`] (and counts as denied); the
    /// stored blobs survive a revival, like a provider outage rather
    /// than data loss.
    pub fn set_down(&mut self, down: bool) {
        self.down = down;
    }

    /// Whether the provider is currently down.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Charges latency and draws the failure coin for one operation.
    fn admit(&mut self) -> Result<(), StoreError> {
        if self.down {
            self.denied += 1;
            return Err(StoreError::Unavailable);
        }
        // Deterministic draw even when fail_prob is 0 (keeps the RNG
        // stream independent of the configured probability).
        let coin: f64 = self.rng.gen_range(0.0..1.0);
        self.injected_latency_us += self.latency_us;
        if coin < self.fail_prob {
            self.denied += 1;
            return Err(StoreError::Unavailable);
        }
        Ok(())
    }
}

impl BlobStore for SimRemoteStore {
    fn put(&mut self, data: &[u8]) -> Result<Guid, StoreError> {
        self.admit()?;
        self.inner.put(data)
    }

    fn get(&mut self, cid: &Guid) -> Result<Option<Bytes>, StoreError> {
        self.admit()?;
        self.inner.get(cid)
    }

    fn has(&mut self, cid: &Guid) -> bool {
        if self.down {
            return false;
        }
        self.inner.has(cid)
    }

    fn delete(&mut self, cid: &Guid) -> Result<bool, StoreError> {
        self.admit()?;
        self.inner.delete(cid)
    }

    fn stats(&self) -> StoreStats {
        let mut st = self.inner.stats();
        st.denied += self.denied;
        st.injected_latency_us += self.injected_latency_us;
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cid_of;

    #[test]
    fn down_provider_denies_everything_but_keeps_data() {
        let mut s = SimRemoteStore::new(1, 250, 0.0);
        let cid = s.put(b"survives outage").unwrap();
        s.set_down(true);
        assert_eq!(s.get(&cid), Err(StoreError::Unavailable));
        assert_eq!(s.put(b"new"), Err(StoreError::Unavailable));
        assert!(!s.has(&cid));
        assert!(s.stats().denied >= 2);
        s.set_down(false);
        assert_eq!(s.get(&cid).unwrap().as_deref(), Some(b"survives outage".as_ref()));
    }

    #[test]
    fn latency_is_accounted_per_operation() {
        let mut s = SimRemoteStore::new(2, 300, 0.0);
        let cid = s.put(b"x").unwrap();
        s.get(&cid).unwrap();
        s.get(&cid).unwrap();
        assert_eq!(s.stats().injected_latency_us, 900);
    }

    #[test]
    fn failure_injection_is_seeded_and_deterministic() {
        let run = |seed: u64| {
            let mut s = SimRemoteStore::new(seed, 0, 0.3);
            let mut outcomes = Vec::new();
            for i in 0..64u32 {
                outcomes.push(s.put(&i.to_le_bytes()).is_ok());
            }
            outcomes
        };
        assert_eq!(run(7), run(7), "same seed, same failure pattern");
        assert_ne!(run(7), run(8), "different seeds diverge");
        let denied = run(7).iter().filter(|ok| !**ok).count();
        assert!(denied > 5 && denied < 40, "~30% injected failures, got {denied}/64");
    }

    #[test]
    fn failed_put_is_retryable() {
        let mut s = SimRemoteStore::new(3, 0, 0.5);
        let data = b"eventually stored";
        let cid = cid_of(data);
        let mut attempts = 0;
        loop {
            attempts += 1;
            if s.put(data).is_ok() {
                break;
            }
            assert!(attempts < 100, "seeded coin must eventually land");
        }
        assert!(s.has(&cid));
    }
}
