//! Property-based tests for the cryptographic substrate.

use oceanstore_crypto::cipher::BlockCipherKey;
use oceanstore_crypto::merkle::MerkleTree;
use oceanstore_crypto::schnorr::{verify, verify_ref, KeyPair, Signature};
use oceanstore_crypto::sha1::{sha1, Sha1};
use oceanstore_crypto::swp::SearchKey;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental hashing equals one-shot hashing for any chunking.
    #[test]
    fn sha1_chunking_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..2000),
        cuts in proptest::collection::vec(1usize..64, 0..20),
    ) {
        let mut h = Sha1::new();
        let mut rest: &[u8] = &data;
        for c in cuts {
            let take = c.min(rest.len());
            h.update(&rest[..take]);
            rest = &rest[take..];
        }
        h.update(rest);
        prop_assert_eq!(h.finalize(), sha1(&data));
    }

    /// Position-dependent cipher: decrypt(encrypt(x)) == x for every
    /// (seed, position, data), and a different position garbles.
    #[test]
    fn cipher_roundtrip_and_position_binding(
        seed in proptest::collection::vec(any::<u8>(), 1..32),
        position in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..1100),
    ) {
        let key = BlockCipherKey::from_seed(&seed);
        let ct = key.encrypt_block(position, &data);
        prop_assert_eq!(ct.len(), data.len());
        prop_assert_eq!(key.decrypt_block(position, &ct), data.clone());
        if !data.is_empty() {
            let other = position.wrapping_add(1);
            // Same plaintext at a different position: different ciphertext.
            prop_assert_ne!(key.encrypt_block(other, &data), ct);
        }
    }

    /// Merkle trees: every leaf's proof verifies against the root; a
    /// flipped byte never does.
    #[test]
    fn merkle_proofs_sound_and_complete(
        frags in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..64), 1..24),
        flip in any::<(usize, usize, u8)>(),
    ) {
        let tree = MerkleTree::build(&frags);
        let root = tree.root();
        for (i, f) in frags.iter().enumerate() {
            prop_assert!(tree.proof(i).verify(f, &root));
        }
        // Corruption is always caught (a zero flip mask is skipped).
        let (fi, bi, mask) = flip;
        if mask != 0 {
            let fi = fi % frags.len();
            let mut bad = frags[fi].clone();
            let bi = bi % bad.len();
            bad[bi] ^= mask;
            prop_assert!(!tree.proof(fi).verify(&bad, &root));
        }
    }

    /// Signatures verify for the signer and message, and for nothing else.
    #[test]
    fn schnorr_binds_signer_and_message(
        seed1 in proptest::collection::vec(any::<u8>(), 1..16),
        seed2 in proptest::collection::vec(any::<u8>(), 1..16),
        msg in proptest::collection::vec(any::<u8>(), 0..128),
        tweak in any::<u8>(),
    ) {
        let kp = KeyPair::from_seed(&seed1);
        let sig = kp.sign(&msg);
        prop_assert!(verify(kp.public(), &msg, &sig));
        // A different message fails (unless it is identical).
        let mut other = msg.clone();
        other.push(tweak);
        prop_assert!(!verify(kp.public(), &other, &sig));
        // A different key fails (unless the seeds coincide).
        if seed1 != seed2 {
            let kp2 = KeyPair::from_seed(&seed2);
            prop_assert!(!verify(kp2.public(), &msg, &sig));
        }
    }

    /// The table-driven verifier agrees with the frozen reference verifier
    /// on arbitrary mixes of valid, forged, bit-mutated, and wrong-message
    /// signatures, and accepts every honest one.
    #[test]
    fn verify_agrees_with_reference(
        specs in proptest::collection::vec(
            (0u8..4, 0usize..4, any::<(usize, u8)>()), 0..12),
        msgs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 4),
    ) {
        let keys: Vec<KeyPair> =
            (0u8..4).map(|i| KeyPair::from_seed(&[b'k', i])).collect();
        let decoy = KeyPair::from_seed(b"decoy");
        for (mode, ki, (flip_pos, flip_mask)) in specs {
            let kp = &keys[ki];
            let msg = &msgs[ki];
            let sig = match mode {
                // Honestly signed.
                0 => kp.sign(msg),
                // Forged: signed by a key that is not the claimed one.
                1 => decoy.sign(msg),
                // A valid signature with one wire bit flipped.
                2 => {
                    let mut b = kp.sign(msg).to_bytes();
                    b[flip_pos % 16] ^= if flip_mask == 0 { 1 } else { flip_mask };
                    Signature::from_bytes(b)
                }
                // A valid signature transplanted onto another message.
                _ => kp.sign(&msgs[(ki + 1) % 4]),
            };
            let ok = verify(kp.public(), msg, &sig);
            prop_assert_eq!(ok, verify_ref(kp.public(), msg, &sig));
            prop_assert!(ok || mode != 0);
        }
    }

    /// Searchable encryption: every indexed word is findable with its
    /// trapdoor; the wrong key's trapdoor finds nothing.
    #[test]
    fn swp_completeness(
        words in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..16), 1..20),
        doc_id in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let key = SearchKey::from_seed(b"prop");
        let refs: Vec<&[u8]> = words.iter().map(Vec::as_slice).collect();
        let idx = key.build_index(&doc_id, refs);
        for w in &words {
            prop_assert!(idx.search(&key.trapdoor(w)));
        }
        let other = SearchKey::from_seed(b"other");
        for w in &words {
            prop_assert!(!idx.search(&other.trapdoor(w)));
        }
    }
}
