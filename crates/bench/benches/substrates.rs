//! Criterion microbenchmarks for the cryptographic and coding substrates.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use oceanstore_crypto::cipher::BlockCipherKey;
use oceanstore_crypto::schnorr::{verify, KeyPair};
use oceanstore_crypto::sha1::sha1;
use oceanstore_erasure::object::frame;
use oceanstore_erasure::{CodeKind, ObjectCodec};
use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::Guid;
use oceanstore_store::{cid_of, BlobStore, DedupStore};

fn bench_sha1(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha1");
    for size in [64usize, 4096, 65536] {
        let data = vec![0xA5u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("{size}B"), |b| b.iter(|| sha1(&data)));
    }
    g.finish();
}

/// Naming a 4 KiB block: the SHA-1 pass every committed block takes once
/// per process. And naming runs of one length, as `update_digest` names
/// them: eight at once in AVX2 lanes where the CPU has them. Sixteen
/// blocks (`for_contents_16x4k`, a 64 KiB `lifecycle` object) are two
/// runs of eight. Each run names views of a fresh buffer, whose memo is
/// empty; `memo_16x4k` names the same sixteen views again, every CID a
/// memo hit.
fn bench_cid(c: &mut Criterion) {
    let block = vec![0xC3u8; 4096];
    let mut g = c.benchmark_group("cid");
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("for_content_4k", |b| b.iter(|| Guid::for_content(&block)));
    let views = |n: usize| -> Vec<Bytes> {
        let whole = Bytes::from(vec![0xC3u8; n * 4096]);
        (0..n).map(|i| whole.slice(i * 4096..(i + 1) * 4096)).collect()
    };
    for n in [8, 16] {
        g.throughput(Throughput::Bytes(n as u64 * 4096));
        g.bench_function(format!("for_contents_{n}x4k"), |b| {
            b.iter_batched(|| views(n), |run| Guid::for_contents(&run), BatchSize::SmallInput)
        });
    }
    let named = views(16);
    Guid::for_contents(&named);
    g.bench_function("memo_16x4k", |b| b.iter(|| Guid::for_contents(&named)));
    g.finish();
}

/// The call `replica::store::sync_blocks` makes for a freshly committed
/// 4 KiB block: name it, then hand name and view to the dedup layer in
/// the configuration every replica uses by default, the one in-RAM table
/// of counts and views.
fn bench_blob_put(c: &mut Criterion) {
    let mut store = DedupStore::in_memory();
    let mut counter = 0u64;
    let mut g = c.benchmark_group("blob_put");
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("dedup_memory_fresh_4k", |b| {
        b.iter_batched(
            || {
                // Fresh content every time: an identical blob is a dedup hit.
                counter += 1;
                let mut block = vec![0x3Cu8; 4096];
                block[..8].copy_from_slice(&counter.to_le_bytes());
                Bytes::from(block)
            },
            |block| store.put_shared(cid_of(&block), &block).expect("memory never refuses"),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_schnorr(c: &mut Criterion) {
    let kp = KeyPair::from_seed(b"bench");
    let msg = b"a typical update digest payload";
    c.bench_function("schnorr/sign", |b| b.iter(|| kp.sign(msg)));
    let sig = kp.sign(msg);
    c.bench_function("schnorr/verify", |b| b.iter(|| verify(kp.public(), msg, &sig)));
}

fn bench_cipher(c: &mut Criterion) {
    let key = BlockCipherKey::from_seed(b"bench");
    let block = vec![0x5Au8; 4096];
    let mut g = c.benchmark_group("position_cipher");
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("encrypt_4k", |b| b.iter(|| key.encrypt_block(7, &block)));
    g.bench_function("decrypt_4k", |b| b.iter(|| key.decrypt_block(7, &block)));
    // One `read_mostly` session read: a whole 64 KiB object.
    let object = vec![0x5Au8; 64 * 1024];
    g.throughput(Throughput::Bytes(object.len() as u64));
    g.bench_function("decrypt_64k", |b| b.iter(|| key.decrypt_block(7, &object)));
    // An open-loop append: 8 bytes, no whole cell, so per-call cost only.
    let marker = [0x5Au8; 8];
    g.throughput(Throughput::Bytes(marker.len() as u64));
    g.bench_function("encrypt_8", |b| b.iter(|| key.encrypt_block(7, &marker)));
    g.finish();
}

/// The archival path's coding calls on a 64 KiB object: the parity of the
/// framed object in one buffer (`archive_framed`), and the framed object
/// back from views of the survivors with three data fragments lost
/// (`reconstruct_verified`). Framing itself is the version's
/// serialization, so it is done once, outside the timed call.
fn bench_erasure(c: &mut Criterion) {
    let data = vec![0x3Cu8; 64 * 1024];
    let mut g = c.benchmark_group("erasure_64k");
    g.throughput(Throughput::Bytes(data.len() as u64));
    for (kind, name) in [(CodeKind::ReedSolomon, "rs_8_16"), (CodeKind::Tornado, "tornado_8_16")] {
        let codec = ObjectCodec::new(kind, 8, 16, 7).expect("valid");
        let framed = frame(&data, codec.data_shards());
        g.bench_function(format!("{name}/encode"), |b| {
            b.iter(|| codec.encode_framed(&framed).expect("encodes"))
        });
        let parity = codec.encode_framed(&framed).expect("encodes");
        let len = framed.len() / codec.data_shards();
        let mut have: Vec<Option<&[u8]>> =
            framed.chunks_exact(len).chain(parity.chunks_exact(len)).map(Some).collect();
        // Tornado needs survivors beyond k; lose 3 data shards.
        for lost in [0, 3, 6] {
            have[lost] = None;
        }
        g.bench_function(format!("{name}/decode_with_losses"), |b| {
            b.iter(|| codec.decode_framed(&have).expect("decodes"))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_sha1, bench_cid, bench_blob_put, bench_schnorr, bench_cipher, bench_erasure
}
criterion_main!(benches);
