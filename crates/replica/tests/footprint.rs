//! Footprint guard: what a secondary keeps per commit. Every secondary
//! holds every object (§4.4.3), so the heap one secondary adds per
//! committed 8-byte append bounds how many secondaries and commits a host
//! can simulate. A two-ring deployment takes a few hundred such appends,
//! spread over objects the way the open-loop workloads spread them; the
//! growth of the whole process's live heap over the run, divided by
//! secondaries × commits, must stay under [`BOUND`]. The primaries' and
//! clients' growth is spread over the secondaries too, a small share with
//! this many of them. An 8-byte block is tiny
//! ([`oceanstore_replica::TINY_BLOCK`]): it is kept in its version, and
//! no secondary's blob layer takes a put for it, on whichever backend
//! `OCEANSTORE_STORE_BACKEND` selects.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use oceanstore_naming::guid::Guid;
use oceanstore_replica::{build_deployment, DeploymentOpts};
use oceanstore_sim::SimDuration;
use oceanstore_store::BlobStore;
use oceanstore_update::update::Action;
use oceanstore_update::Update;

/// The system allocator, keeping a count of the bytes live in it.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: usize) {
    LIVE.fetch_add(bytes as isize, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the count is one atomic, which never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees on `layout` pass through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees on `layout` pass through.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's guarantees on `new_size` pass through.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        moved
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const SECONDARIES: usize = 48;
const OBJECTS: usize = 32;
const APPENDS: usize = 320;

/// Live heap bytes a secondary may add per committed 8-byte append. The
/// run reads 255 B: about 170 B a secondary keeps (the record log, the
/// version slot, the undo entry and the rumor id of each commit, and each
/// object's share of per-object state) and about 85 B of the primaries'
/// and clients' growth (runs with 24 and 96 secondaries read 340 and
/// 213 B, which tell the two apart). While every node filed each block
/// in its blob table, a 48-byte entry plus the table's slack, the run
/// read 338 B, about 250 B of it per secondary; while a secondary kept
/// some facts of a commit twice (a slot CID beside the blob-table key, a
/// 40-byte undo entry, each rumor id beside a copy of its object's GUID)
/// it read 445 B. The bound leaves 21 B (8 %) of headroom.
const BOUND: usize = 276;

#[test]
fn a_secondary_keeps_a_bounded_heap_per_commit() {
    let mut dep = build_deployment(&DeploymentOpts {
        rings: 2,
        secondaries: SECONDARIES,
        clients: 2,
        seed: 11,
        ..DeploymentOpts::default()
    });
    dep.sim.run_for(SimDuration::from_secs(1));
    let objects: Vec<Guid> =
        (0..OBJECTS).map(|i| Guid::from_label(&format!("footprint-{i}"))).collect();
    let before = LIVE.load(Ordering::Relaxed);
    let mut ids = Vec::new();
    for i in 0..APPENDS {
        let append = Action::Append { ciphertext: (i as u64).to_le_bytes().to_vec() };
        let client = dep.clients[i % dep.clients.len()];
        ids.push(dep.submit(client, objects[i % OBJECTS], &Update::unconditional(vec![append])));
        dep.sim.run_for(SimDuration::from_millis(20));
    }
    dep.sim.run_for(SimDuration::from_secs(3));
    let after = LIVE.load(Ordering::Relaxed);

    assert!(ids.iter().all(|&id| dep.outcome(id).is_some()), "every append committed");
    for &s in &dep.secondaries {
        let store = &dep.secondary(s).store;
        let held: u64 = objects.iter().map(|g| store.get(g).map_or(0, |st| st.next_index)).sum();
        assert_eq!(held, APPENDS as u64, "{s:?} holds every commit");
        let (dedup, blobs) = (store.blob_store().dedup_stats(), store.blob_store().stats());
        assert_eq!((dedup.logical_bytes, blobs.puts), (0, 0), "{s:?} filed an 8-byte block");
    }
    let per = (after - before) as f64 / (SECONDARIES * APPENDS) as f64;
    println!("{per:.1} B per secondary per commit (bound {BOUND} B)");
    assert!(per <= BOUND as f64, "{per:.1} B per secondary per commit, bound {BOUND} B");
}
