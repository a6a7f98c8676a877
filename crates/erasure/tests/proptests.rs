//! Property-based tests for the erasure codes: the invariants the deep
//! archival argument rests on must hold for *arbitrary* data and erasure
//! patterns, not just hand-picked cases. The framed path is held to the
//! byte-at-a-time oracles `ReedSolomon::{encode_ref, reconstruct_ref}`.

use oceanstore_erasure::object::{frame, CodeKind, ObjectCodec};
use oceanstore_erasure::tornado::Tornado;
use proptest::prelude::*;

/// `framed`'s `k` data shards, then its parity by the reference encode.
fn coded_ref(codec: &ObjectCodec, framed: &[u8]) -> Vec<Vec<u8>> {
    let ObjectCodec::Rs(rs) = codec else { unreachable!("a Reed-Solomon codec") };
    let shards: Vec<&[u8]> = framed.chunks_exact(framed.len() / rs.data_shards()).collect();
    rs.encode_ref(&shards).expect("encodes")
}

proptest! {
    /// Reed-Solomon: any k-subset of shards rebuilds the framed object
    /// exactly, for arbitrary data and arbitrary k-subsets; the parity
    /// re-derived from it is the original parity, and the survivors are
    /// only read, so a lost parity shard stays lost.
    #[test]
    fn rs_any_k_subset_reconstructs(
        data in proptest::collection::vec(any::<u8>(), 1..2000),
        k in 2usize..8,
        extra in 1usize..8,
        subset_seed in any::<u64>(),
    ) {
        let n = k + extra;
        let codec = ObjectCodec::new(CodeKind::ReedSolomon, k, n, 0).expect("valid");
        let framed = frame(&data, k);
        let coded = coded_ref(&codec, &framed);
        // Choose a pseudo-random k-subset to survive.
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = subset_seed;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let mut have: Vec<Option<&[u8]>> = vec![None; n];
        for &i in order.iter().take(k) {
            have[i] = Some(&coded[i]);
        }
        let before = have.clone();
        let (joined, object) = codec.decode_framed(&have).expect("any k suffice");
        prop_assert_eq!(&joined, &framed);
        prop_assert_eq!(codec.encode_framed(&joined).expect("encodes"), coded[k..].concat());
        prop_assert_eq!(have, before);
        // And the object reassembles bit-exactly.
        prop_assert_eq!(&joined[object], &data[..]);
    }

    /// Tornado: whenever decoding succeeds, the result is exactly right —
    /// never silently wrong — for arbitrary survivor sets.
    #[test]
    fn tornado_never_wrong(
        data in proptest::collection::vec(any::<u8>(), 1..1500),
        k in 2usize..8,
        seed in any::<u64>(),
        survivors in proptest::collection::vec(any::<bool>(), 24),
    ) {
        let n = 3 * k;
        let t = Tornado::new(k, n, seed).expect("valid");
        let framed = frame(&data, k);
        let shards: Vec<&[u8]> = framed.chunks_exact(framed.len() / k).collect();
        let coded = t.encode(&shards).expect("encodes");
        let mut have: Vec<Option<Vec<u8>>> = coded
            .iter()
            .enumerate()
            .map(|(i, c)| survivors.get(i).copied().unwrap_or(false).then(|| c.clone()))
            .collect();
        if t.reconstruct(&mut have).is_ok() {
            for (i, c) in coded.iter().enumerate() {
                prop_assert_eq!(have[i].as_ref().expect("filled"), c);
            }
        }
    }

    /// Object framing: a framed object is `k` equal shards, and decoding
    /// it from its own data shards (no parity) gives it back, with the
    /// object where the prefix says, for every (data, k).
    #[test]
    fn framing_roundtrip(
        data in proptest::collection::vec(any::<u8>(), 0..4000),
        k in 1usize..20,
    ) {
        let framed = frame(&data, k);
        prop_assert!(!framed.is_empty() && framed.len().is_multiple_of(k));
        let codec = ObjectCodec::new(CodeKind::ReedSolomon, k, k + 1, 0).expect("valid");
        let have: Vec<Option<&[u8]>> =
            framed.chunks_exact(framed.len() / k).map(Some).chain([None]).collect();
        let (joined, object) = codec.decode_framed(&have).expect("decodes");
        prop_assert_eq!(&joined[object], &data[..]);
        prop_assert_eq!(joined, framed);
    }

    /// Whole-object codec: encode → lose a random non-fatal subset →
    /// decode is the identity (Reed-Solomon flavor).
    #[test]
    fn object_codec_roundtrip(
        data in proptest::collection::vec(any::<u8>(), 0..3000),
        loss_mask in any::<u16>(),
    ) {
        let codec = ObjectCodec::new(CodeKind::ReedSolomon, 8, 16, 0).expect("valid");
        let frags = codec.encode_object(&data).expect("encodes");
        let mut have: Vec<Option<Vec<u8>>> = frags
            .iter()
            .enumerate()
            .map(|(i, f)| (loss_mask >> i & 1 == 0).then(|| f.clone()))
            .collect();
        let survivors = have.iter().filter(|s| s.is_some()).count();
        let result = codec.decode_object(&mut have);
        if survivors >= 8 {
            prop_assert_eq!(result.expect("enough survivors"), data);
        } else {
            prop_assert!(result.is_err());
        }
    }

    /// `decode_framed` answers what the reference reconstruct answers, for
    /// survivor sets of three kinds: every data fragment present (nothing
    /// to rebuild), parity only (every data fragment rebuilt) and a random
    /// mix, enough or not. Parity is read, never rebuilt.
    #[test]
    fn decode_framed_matches_reconstruct_ref(
        data in proptest::collection::vec(any::<u8>(), 0..2000),
        k in 1usize..9,
        extra in 1usize..12,
        kind in 0u8..3,
        seed in any::<u64>(),
    ) {
        let n = k + extra;
        let codec = ObjectCodec::new(CodeKind::ReedSolomon, k, n, 0).expect("valid");
        let ObjectCodec::Rs(rs) = &codec else { unreachable!("a Reed-Solomon codec") };
        let coded = coded_ref(&codec, &frame(&data, k));
        let mut bits = seed;
        let mut coin = || {
            bits = bits.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            bits >> 63 == 1
        };
        let keep: Vec<bool> = (0..n)
            .map(|i| match kind {
                0 => i < k || coin(),
                1 => i >= k,
                _ => coin(),
            })
            .collect();
        let have: Vec<Option<Vec<u8>>> =
            coded.iter().zip(&keep).map(|(f, &kept)| kept.then(|| f.clone())).collect();
        let mut oracle = have.clone();
        let decoded = codec.decode_framed(&have);
        let expected = rs
            .reconstruct_ref(&mut oracle)
            .map(|()| oracle[..k].iter().flatten().flatten().copied().collect::<Vec<u8>>());
        prop_assert_eq!(decoded.as_ref().map(|(joined, _)| joined), expected.as_ref());
        if let Ok((joined, object)) = decoded {
            prop_assert_eq!(&joined[object], &data[..]);
            for (slot, kept) in have.iter().zip(&keep) {
                prop_assert_eq!(slot.is_some(), *kept);
            }
        }
    }

    /// The framed encode gives the reference encode's parity for both
    /// codes, and `encode_object` hands out the framed object's shards
    /// and that parity, one buffer each.
    #[test]
    fn encode_framed_matches_encode_ref(
        data in proptest::collection::vec(any::<u8>(), 0..2000),
        k in 1usize..9,
        extra in 1usize..12,
        tornado in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = k + extra;
        let framed = frame(&data, k);
        let len = framed.len() / k;
        let shards: Vec<&[u8]> = framed.chunks_exact(len).collect();
        let (codec, coded) = if tornado {
            let t = Tornado::new(k, n, seed).expect("valid");
            let coded = t.encode(&shards).expect("encodes");
            (ObjectCodec::Tornado(t), coded)
        } else {
            let codec = ObjectCodec::new(CodeKind::ReedSolomon, k, n, 0).expect("valid");
            let coded = coded_ref(&codec, &framed);
            (codec, coded)
        };
        let parity = codec.encode_framed(&framed).expect("encodes");
        prop_assert_eq!(&parity, &coded[k..].concat());
        prop_assert_eq!(codec.encode_object(&data).expect("encodes"), coded);
    }
}
