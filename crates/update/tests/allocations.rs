//! What naming an update allocates. The first naming of an update's views
//! makes four allocations whatever its shape: the CIDs it returns, the
//! list of views the buffer's memo lacks, their bytes for the hash lanes,
//! and the memo. Naming the same views again reads every CID from the
//! memo and allocates only the vector it returns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use oceanstore_naming::bytes::Bytes;
use oceanstore_update::codec::{decode_view, encode_update, update_digest};
use oceanstore_update::update::Action;
use oceanstore_update::Update;

/// The system allocator, counting fresh allocations on each thread. A
/// vector's growth goes through `realloc` and is not counted.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the count touches only a const-initialised
// thread-local `Cell`, which never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's guarantees on `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Fresh allocations made on this thread while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    let after = ALLOCS.with(Cell::get);
    drop(out);
    after - before
}

fn appends(lens: impl IntoIterator<Item = usize>) -> Update {
    Update::unconditional(
        lens.into_iter().map(|len| Action::Append { ciphertext: vec![7; len] }).collect(),
    )
}

#[test]
fn naming_again_allocates_only_the_cid_vector() {
    let updates = [
        ("one 8-byte append", appends([8])),
        ("seven of one length", appends([4096; 7])),
        (
            "eight of one length, cut by another",
            appends([4096, 4096, 4096, 4096, 8, 4096, 4096, 4096, 4096]),
        ),
        ("twenty, lengths alternating", appends((0..20).map(|i| 64 + i % 2))),
        ("a run of eight", appends([4096; 8])),
    ];
    for (what, update) in &updates {
        let views = decode_view(&Bytes::from(encode_update(update))).expect("decodes");
        assert_eq!(allocations(|| update_digest(&views)), 4, "{what}: named first");
        assert_eq!(allocations(|| update_digest(&views)), 1, "{what}: only the CID vector");
    }
}
