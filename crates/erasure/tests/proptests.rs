//! Property-based tests for the erasure codes: the invariants the deep
//! archival argument rests on must hold for *arbitrary* data and erasure
//! patterns, not just hand-picked cases.

use oceanstore_erasure::object::{frame, join_shards, split_into_shards, CodeKind, ObjectCodec};
use oceanstore_erasure::rs::ReedSolomon;
use oceanstore_erasure::tornado::Tornado;
use proptest::prelude::*;

proptest! {
    /// Reed-Solomon: any k-subset of shards reconstructs every data shard
    /// exactly, for arbitrary data and arbitrary k-subsets, and the parity
    /// re-derived from them is the original parity.
    #[test]
    fn rs_any_k_subset_reconstructs(
        data in proptest::collection::vec(any::<u8>(), 1..2000),
        k in 2usize..8,
        extra in 1usize..8,
        subset_seed in any::<u64>(),
    ) {
        let n = k + extra;
        let rs = ReedSolomon::new(k, n).expect("valid");
        let shards = split_into_shards(&data, k);
        let coded = rs.encode(&shards).expect("encodes");
        // Choose a pseudo-random k-subset to survive.
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = subset_seed;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let mut have: Vec<Option<Vec<u8>>> = vec![None; n];
        for &i in order.iter().take(k) {
            have[i] = Some(coded[i].clone());
        }
        rs.reconstruct(&mut have).expect("any k suffice");
        let rebuilt: Vec<Vec<u8>> =
            have[..k].iter().map(|x| x.clone().expect("data shard")).collect();
        prop_assert_eq!(&rs.encode(&rebuilt).expect("encodes"), &coded);
        // Only data is rebuilt: a parity slot is as it was.
        for (i, slot) in have.iter().enumerate().skip(k) {
            prop_assert_eq!(slot.is_some(), order[..k].contains(&i));
        }
        // And the object reassembles bit-exactly.
        prop_assert_eq!(join_shards(&rebuilt).expect("joins"), data);
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
        let shards = split_into_shards(&data, k);
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

    /// Object framing: split/join is the identity for every (data, k).
    #[test]
    fn framing_roundtrip(
        data in proptest::collection::vec(any::<u8>(), 0..4000),
        k in 1usize..20,
    ) {
        let shards = split_into_shards(&data, k);
        prop_assert_eq!(shards.len(), k);
        let l0 = shards[0].len();
        prop_assert!(shards.iter().all(|s| s.len() == l0));
        prop_assert_eq!(join_shards(&shards).expect("joins"), data);
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

    /// `decode_object` answers what the reference reconstruct answers, for
    /// survivor sets of three kinds: every data fragment present (nothing
    /// to rebuild), parity only (every data fragment rebuilt) and a random
    /// mix, enough or not.
    #[test]
    fn decode_object_matches_reconstruct_ref(
        data in proptest::collection::vec(any::<u8>(), 0..2000),
        k in 1usize..9,
        extra in 1usize..12,
        kind in 0u8..3,
        seed in any::<u64>(),
    ) {
        let n = k + extra;
        let codec = ObjectCodec::new(CodeKind::ReedSolomon, k, n, 0).expect("valid");
        let ObjectCodec::Rs(rs) = &codec else { unreachable!("a Reed-Solomon codec") };
        let frags = codec.encode_object(&data).expect("encodes");
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
        let mut have: Vec<Option<Vec<u8>>> =
            frags.iter().zip(&keep).map(|(f, &kept)| kept.then(|| f.clone())).collect();
        let mut oracle = have.clone();
        let decoded = codec.decode_object(&mut have);
        let expected = rs
            .reconstruct_ref(&mut oracle)
            .and_then(|()| join_shards(&oracle.iter().take(k).flatten().collect::<Vec<_>>()));
        prop_assert_eq!(&decoded, &expected);
        if let Ok(out) = decoded {
            prop_assert_eq!(out, data);
            prop_assert_eq!(&have[..k], &oracle[..k]);
            // Parity is read, never rebuilt.
            for (slot, kept) in have.iter().zip(&keep).skip(k) {
                prop_assert_eq!(slot.is_some(), *kept);
            }
        }
    }

    /// The one-buffer paths give the shard-per-buffer paths' bytes: the
    /// framed object is the data shards end to end, its parity the parity
    /// shards end to end, and any sufficient survivor set decodes to the
    /// framed object, with the object where the prefix says.
    #[test]
    fn framed_paths_match_the_shard_paths(
        data in proptest::collection::vec(any::<u8>(), 0..2000),
        k in 1usize..9,
        extra in 1usize..12,
        seed in any::<u64>(),
    ) {
        let n = k + extra;
        let codec = ObjectCodec::new(CodeKind::ReedSolomon, k, n, 0).expect("valid");
        let framed = frame(&data, k);
        let frags = codec.encode_object(&data).expect("encodes");
        prop_assert_eq!(&framed, &frags[..k].concat());
        prop_assert_eq!(codec.encode_framed(&framed).expect("encodes"), frags[k..].concat());
        let mut bits = seed;
        let have: Vec<Option<&[u8]>> = frags
            .iter()
            .map(|f| {
                bits = bits.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (bits >> 63 == 1).then_some(f.as_slice())
            })
            .collect();
        let decoded = codec.decode_framed(&have);
        if have.iter().flatten().count() >= k {
            let (joined, object) = decoded.expect("enough survivors");
            prop_assert_eq!(&joined[object], &data[..]);
            prop_assert_eq!(joined, framed);
        } else {
            prop_assert!(decoded.is_err());
        }
    }
}
