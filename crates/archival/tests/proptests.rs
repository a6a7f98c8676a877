//! Property-based tests for archival fragments and the availability math.

use oceanstore_archival::fragment::{archive_object, reconstruct_object};
use oceanstore_archival::reliability::availability;
use oceanstore_erasure::object::{CodeKind, ObjectCodec};
use oceanstore_naming::bytes::Bytes;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Self-verifying fragments: arbitrary corruption of any fragment is
    /// always detected, and reconstruction from any k honest fragments is
    /// exact.
    #[test]
    fn fragments_self_verify(
        data in proptest::collection::vec(any::<u8>(), 1..2000),
        corrupt_idx in any::<usize>(),
        corrupt_byte in any::<usize>(),
        mask in 1u8..=255,
        keep_mask in any::<u16>(),
    ) {
        let codec = ObjectCodec::new(CodeKind::ReedSolomon, 4, 10, 0).expect("valid");
        let arch = archive_object(&codec, &data).expect("archives");
        // Corruption detection.
        let mut frag = arch.fragments[corrupt_idx % 10].clone();
        if !frag.data.is_empty() {
            // A view's bytes never change: flip one in a copy of them.
            let mut bytes = frag.data.to_vec();
            let b = corrupt_byte % bytes.len();
            bytes[b] ^= mask;
            frag.data = Bytes::from(bytes);
            prop_assert!(!frag.verify());
        }
        // Reconstruction from an arbitrary ≥k subset.
        let kept: Vec<_> = arch
            .fragments
            .iter()
            .enumerate()
            .filter(|(i, _)| keep_mask >> i & 1 == 1)
            .map(|(_, f)| f.clone())
            .collect();
        let result = reconstruct_object(&codec, &kept);
        if kept.len() >= 4 {
            prop_assert_eq!(result.expect("enough fragments"), data);
        } else {
            prop_assert!(result.is_err());
        }
    }

    /// The availability formula is a probability, monotone in the
    /// tolerated failures and antitone in the number of dead machines.
    #[test]
    fn availability_sane(
        n in 10u64..5000,
        m_frac in 0.0f64..1.0,
        f in 1u64..40,
        rf in 0u64..40,
    ) {
        let m = ((n as f64) * m_frac) as u64;
        let f = f.min(n);
        let p = availability(n, m, f, rf);
        prop_assert!((0.0..=1.0).contains(&p), "p={p}");
        // More tolerance never hurts.
        if rf < f {
            prop_assert!(availability(n, m, f, rf + 1) >= p - 1e-9);
        }
        // More dead machines never help.
        if m < n {
            prop_assert!(availability(n, m + 1, f, rf) <= p + 1e-9);
        }
    }
}
