//! Property tests for the blob-store layer: dedup refcounting never
//! loses a live blob or leaks a dead one, and hash-range routing is a
//! total, stable, balanced pure function.

use std::collections::HashMap;

use oceanstore_naming::guid::Guid;
use oceanstore_store::{
    cid_of, shard_of, BlobStore, DedupStore, MemoryStore, ShardedStore, SimRemoteStore,
};
use proptest::prelude::*;

/// A reference model: logical refcounts per distinct payload.
fn model_apply(model: &mut HashMap<Vec<u8>, u64>, payload: &[u8], put: bool) {
    if put {
        *model.entry(payload.to_vec()).or_default() += 1;
    } else if let Some(rc) = model.get_mut(payload) {
        *rc -= 1;
        if *rc == 0 {
            model.remove(payload);
        }
    }
}

proptest! {
    /// Random interleavings of put/put_shared/delete over a small payload
    /// alphabet, run against the one-table in-RAM layer and against the
    /// layer over a backend that keeps the bytes elsewhere: after every
    /// step, a blob is present iff the model says its refcount is
    /// positive, its bytes are intact, and the two layers agree on every
    /// refcount, read, and dedup and store counter.
    #[test]
    fn dedup_refcounts_match_reference_model(
        ops in proptest::collection::vec((0u8..6, any::<bool>()), 1..200)
    ) {
        let mut table = DedupStore::in_memory();
        let mut layered = DedupStore::new(Box::new(SimRemoteStore::new(5, 0, 0.0)));
        let mut model: HashMap<Vec<u8>, u64> = HashMap::new();
        for (tag, put) in ops {
            let payload = vec![tag; tag as usize + 3];
            for store in [&mut table, &mut layered] {
                if put && tag % 2 == 1 {
                    // Odd payloads arrive already named, as a view.
                    let cid = cid_of(&payload);
                    prop_assert_eq!(store.put_shared(cid, &payload.clone().into()).unwrap(), cid);
                } else if put {
                    prop_assert_eq!(store.put(&payload).unwrap(), cid_of(&payload));
                } else {
                    let want = model.get(payload.as_slice()).copied().unwrap_or(0) > 0;
                    prop_assert_eq!(store.delete(&cid_of(&payload)).unwrap(), want);
                }
            }
            model_apply(&mut model, &payload, put);
            // Full-state audit against the model and across the layers.
            for t in 0u8..6 {
                let p = vec![t; t as usize + 3];
                let cid = cid_of(&p);
                let rc = model.get(p.as_slice()).copied().unwrap_or(0);
                for store in [&mut table, &mut layered] {
                    prop_assert_eq!(store.refcount(&cid), rc);
                    prop_assert_eq!(store.has(&cid), rc > 0);
                    let got = store.get(&cid).unwrap();
                    prop_assert_eq!(got.as_deref(), (rc > 0).then_some(p.as_slice()));
                }
            }
            prop_assert_eq!(table.dedup_stats(), layered.dedup_stats());
            prop_assert_eq!(table.stats(), layered.stats());
        }
        prop_assert_eq!(table.stats().blobs as usize, model.len());
    }

    /// The router is total and stable across instances.
    #[test]
    fn shard_routing_is_total_and_stable(label in "[a-z0-9]{1,12}", n in 1usize..16) {
        let cid = Guid::from_label(&label);
        let s = shard_of(&cid, n);
        prop_assert!(s < n);
        prop_assert_eq!(s, shard_of(&cid, n), "pure function of the bytes");
    }

    /// One shard is the identity routing.
    #[test]
    fn single_shard_is_identity(label in "[a-z0-9]{1,12}") {
        prop_assert_eq!(shard_of(&Guid::from_label(&label), 1), 0);
    }
}

/// Uniform CIDs spread evenly over shards (max/min ≤ 1.5 at this sample
/// size, mirroring the ring router's balance bar).
#[test]
fn shard_balance_over_content_cids() {
    let n = 4;
    let mut counts = vec![0u64; n];
    for i in 0..20_000u32 {
        let cid = cid_of(format!("balance-{i}").as_bytes());
        counts[shard_of(&cid, n)] += 1;
    }
    let max = *counts.iter().max().unwrap() as f64;
    let min = *counts.iter().min().unwrap() as f64;
    assert!(min > 0.0, "every shard populated: {counts:?}");
    assert!(max / min <= 1.5, "imbalance {counts:?}");
}

/// A sharded store over dedup'd shards still honours the refcount
/// contract end to end (the composition used by the provider scenarios).
#[test]
fn sharded_dedup_composition_round_trips() {
    let mut store = ShardedStore::new(vec![
        Box::new(DedupStore::new(Box::new(MemoryStore::new()))),
        Box::new(DedupStore::new(Box::new(MemoryStore::new()))),
    ]);
    let mut cids = Vec::new();
    for i in 0..32u32 {
        let payload = format!("composed-{}", i % 8); // 8 distinct, 4 refs each
        cids.push(store.put(payload.as_bytes()).unwrap());
    }
    assert_eq!(store.stats().blobs, 8, "dedup collapses to distinct payloads");
    // Drop three of the four references to each: everything still there.
    for cid in &cids[..24] {
        assert!(store.delete(cid).unwrap());
    }
    for cid in &cids {
        assert!(store.has(cid), "one reference each must remain");
    }
    for cid in &cids[24..] {
        assert!(store.delete(cid).unwrap());
    }
    assert_eq!(store.stats().blobs, 0);
}
