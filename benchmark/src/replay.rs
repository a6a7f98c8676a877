//! Kernel replay: unit costs of the layers the driver cannot call
//! separately inside the simulation.
//!
//! Each public kernel is timed for a fixed budget on inputs shaped like
//! the workload's (same block size, same object size, same `k`/`n`). The
//! unit cost times a count visible from outside gives the layer's
//! estimated share of the workload's wall time.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use oceanstore_archival::{archive_object, reconstruct_object};
use oceanstore_crypto::merkle::MerkleTree;
use oceanstore_crypto::schnorr::{batch_verify, verify, KeyPair};
use oceanstore_crypto::sha256::sha256;
use oceanstore_erasure::gf256;
use oceanstore_erasure::object::{CodeKind, ObjectCodec};
use oceanstore_naming::guid::Guid;
use oceanstore_store::{BlobStore, DirStore, MemoryStore};
use oceanstore_update::object::DataObject;
use oceanstore_update::ops::{self, ObjectKeys};
use oceanstore_update::update::apply;
use oceanstore_update::{decode_update, encode_update, Update};
use rand::{RngCore, SeedableRng};

use crate::stats::Metrics;
use rand_chacha::ChaCha8Rng;

/// The input shape a workload hands the kernels.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Cleartext bytes per block.
    pub block_len: usize,
    /// Blocks per object write.
    pub blocks: usize,
    /// Bytes of the object the erasure and archival kernels work on.
    pub archive_len: usize,
    /// Archival data shards.
    pub k: usize,
    /// Archival total shards.
    pub n: usize,
}

/// Seconds per call of `f`, repeated until `budget` has passed.
fn secs_per_call(budget: Duration, f: &mut dyn FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return elapsed.as_secs_f64() / calls as f64;
        }
    }
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// Put and get cost of one 4 KiB blob on `store`, microseconds.
fn store_costs(store: &mut dyn BlobStore, budget: Duration, block: &mut [u8]) -> (f64, f64) {
    let mut cids = Vec::new();
    let mut counter = 0u64;
    let put = secs_per_call(budget, &mut || {
        // Distinct content per put: an identical blob is an idempotent no-op.
        counter += 1;
        block[..8].copy_from_slice(&counter.to_le_bytes());
        cids.push(store.put(block).expect("replay put"));
    });
    let mut next = 0usize;
    let get = secs_per_call(budget, &mut || {
        black_box(store.get(&cids[next % cids.len()]).expect("replay get"));
        next += 1;
    });
    (put * 1e6, get * 1e6)
}

/// Times every kernel on `shape`-sized seeded inputs and records each unit
/// cost under its per-layer metric name. `scratch` is a directory inside
/// the checkout for the `DirStore` replay; it is removed again before
/// returning.
pub fn replay(m: &mut Metrics, shape: &Shape, seed: u64, budget: Duration, scratch: &Path) {
    // Three ways to state a cost: per call, per megabyte, megabytes per second.
    let us = |f: &mut dyn FnMut()| secs_per_call(budget, f) * 1e6;
    let ms_per_mb = |bytes: usize, f: &mut dyn FnMut()| secs_per_call(budget, f) * 1e3 / mb(bytes);
    let mb_per_s = |bytes: usize, f: &mut dyn FnMut()| mb(bytes) / secs_per_call(budget, f);

    let keys = ObjectKeys::from_seed(b"replay-keys");
    let object_len = shape.block_len * shape.blocks;
    let mut pool = vec![0u8; object_len.max(shape.archive_len).max(65_536)];
    ChaCha8Rng::seed_from_u64(seed).fill_bytes(&mut pool);
    let blocks: Vec<&[u8]> = pool[..object_len].chunks(shape.block_len).collect();
    let block = blocks[0];

    // update
    let update: Update = ops::initial_write(&keys, b"replay", &blocks, &[]);
    let mut object = DataObject::new();
    assert!(
        apply(&mut object, &update).is_committed(),
        "replay update must apply"
    );
    let build = ms_per_mb(object_len, &mut || {
        black_box(ops::initial_write(&keys, b"replay", &blocks, &[]));
    });
    m.set("update.build_ms_per_mb", build);
    let read = ms_per_mb(object_len, &mut || {
        black_box(ops::read_object(&keys, object.current()).expect("replay read"));
    });
    m.set("update.read_object_ms_per_mb", read);
    let applied = us(&mut || {
        black_box(apply(&mut DataObject::new(), &update));
    });
    m.set("update.apply_us_per_op", applied);
    let codec = us(&mut || {
        black_box(decode_update(&encode_update(&update)).expect("replay decode"));
    });
    m.set("update.codec_us_per_op", codec);

    // crypto, naming
    let hash = mb_per_s(block.len(), &mut || {
        black_box(sha256(black_box(block)));
    });
    m.set("crypto.sha256_mb_per_s", hash);
    let cipher = mb_per_s(block.len(), &mut || {
        black_box(keys.cipher.encrypt_block(3, black_box(block)));
    });
    m.set("crypto.cipher_mb_per_s", cipher);
    let cid = mb_per_s(block.len(), &mut || {
        black_box(Guid::for_content(black_box(block)));
    });
    m.set("naming.cid_mb_per_s", cid);
    let signers: Vec<KeyPair> = (0..3)
        .map(|i| KeyPair::from_seed(format!("replay-signer-{i}").as_bytes()))
        .collect();
    let msg = &pool[..64];
    let sign = us(&mut || {
        black_box(signers[0].sign(black_box(msg)));
    });
    m.set("crypto.schnorr_sign_us", sign);
    let sigs: Vec<_> = signers
        .iter()
        .map(|kp| (kp.public(), msg, kp.sign(msg)))
        .collect();
    let verified = us(&mut || assert!(verify(sigs[0].0, msg, &sigs[0].2)));
    m.set("crypto.schnorr_verify_us", verified);
    let batch = us(&mut || assert!(batch_verify(black_box(&sigs))));
    m.set(
        "crypto.schnorr_batch_verify_us_per_sig",
        batch / sigs.len() as f64,
    );

    // erasure, archival
    let codec = ObjectCodec::new(CodeKind::ReedSolomon, shape.k, shape.n, 0).expect("replay codec");
    let lost = (shape.n - shape.k).min(shape.k);
    let data = &pool[..shape.archive_len];
    let shards = codec.encode_object(data).expect("replay encode");
    let encode = mb_per_s(data.len(), &mut || {
        black_box(codec.encode_object(black_box(data)).expect("replay encode"));
    });
    m.set("erasure.encode_mb_per_s", encode);
    let decode = mb_per_s(data.len(), &mut || {
        let mut have: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        have[..lost].fill(None);
        black_box(codec.decode_object(&mut have).expect("replay decode"));
    });
    m.set("erasure.decode_mb_per_s", decode);
    let merkle = us(&mut || {
        black_box(MerkleTree::build(black_box(&shards)));
    });
    m.set("crypto.merkle_us_per_leaf", merkle / shards.len() as f64);
    let mut dst = vec![0u8; 65_536];
    let src = &pool[..65_536];
    let gf = mb_per_s(src.len(), &mut || {
        gf256::mul_acc_slice(black_box(&mut dst), black_box(src), 0x1d);
    });
    m.set("erasure.gf256_mul_acc_mb_per_s", gf);
    let archive = archive_object(&codec, data).expect("replay archive");
    let archived = ms_per_mb(data.len(), &mut || {
        black_box(archive_object(&codec, black_box(data)).expect("replay archive"));
    });
    m.set("archival.archive_object_ms_per_mb", archived);
    let survivors = &archive.fragments[lost..];
    let reconstructed = ms_per_mb(data.len(), &mut || {
        black_box(reconstruct_object(&codec, black_box(survivors)).expect("replay reconstruct"));
    });
    m.set("archival.reconstruct_ms_per_mb", reconstructed);

    // store
    let mut blob = pool[..4096].to_vec();
    let (put, get) = store_costs(&mut MemoryStore::new(), budget, &mut blob);
    m.set("store.mem_put_us_4k", put);
    m.set("store.mem_get_us_4k", get);
    let mut dir = DirStore::open(scratch).expect("replay dir store");
    let (put, get) = store_costs(&mut dir, budget, &mut blob);
    m.set("store.dir_put_us_4k", put);
    m.set("store.dir_get_us_4k", get);
    drop(dir);
    let _ = std::fs::remove_dir_all(scratch);
}
