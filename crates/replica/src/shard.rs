//! Deterministic object → consensus-ring assignment.
//!
//! OceanStore's scale story (§4.4, "the inner ring for each object")
//! assigns every object its *own* primary tier; this reproduction shards
//! the object space over `N` independent rings the same way Walrus shards
//! storage committees: `hash(AGUID) mod N`. The router is a pure function
//! of the GUID and the ring count — no membership tables, no epochs — so
//! any two parties that agree on `N` agree on every assignment, and a
//! reconfiguration that preserves the ring count moves no objects at all.

use oceanstore_naming::guid::Guid;

/// Finalizing mix of splitmix64. GUIDs are already SHA-1 output, but the
/// low 64 bits feed other modular decisions (disseminator choice is
/// `guid.low_u64() % n`); mixing decorrelates the ring choice from those.
/// Also the peer sampler's stateless RNG and the anti-entropy digest's
/// per-term hash.
pub(crate) fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps every AGUID to one of `rings` independent primary tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    rings: u64,
}

impl ShardRouter {
    /// Router over `rings` tiers.
    ///
    /// # Panics
    ///
    /// Panics if `rings` is zero.
    pub fn new(rings: usize) -> Self {
        assert!(rings >= 1, "need at least one ring");
        ShardRouter { rings: rings as u64 }
    }

    /// Number of rings routed over.
    pub fn rings(&self) -> usize {
        self.rings as usize
    }

    /// The ring that owns `object`. Total (defined for every GUID),
    /// stable (a pure function of the GUID and the ring count), and
    /// balanced (uniform up to hash noise).
    pub fn ring_of(&self, object: &Guid) -> usize {
        if self.rings == 1 {
            return 0;
        }
        (mix(object.low_u64()) % self.rings) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_ring_routes_everything_to_zero() {
        let router = ShardRouter::new(1);
        for i in 0..100 {
            assert_eq!(router.ring_of(&Guid::from_label(&format!("obj-{i}"))), 0);
        }
    }

    #[test]
    fn assignment_is_a_pure_function() {
        let a = ShardRouter::new(16);
        let b = ShardRouter::new(16);
        for i in 0..100 {
            let g = Guid::from_label(&format!("obj-{i}"));
            assert_eq!(a.ring_of(&g), b.ring_of(&g));
        }
    }

    #[test]
    fn every_ring_gets_objects() {
        let router = ShardRouter::new(4);
        let mut seen = [false; 4];
        for i in 0..64 {
            seen[router.ring_of(&Guid::from_label(&format!("obj-{i}")))] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }
}
