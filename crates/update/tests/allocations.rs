//! What naming an update allocates. `update_digest` collects an update's
//! ciphertexts into a list only when they hold a run of eight of one
//! length, the runs `Guid::for_contents` hashes at once. Any other update
//! (the open loops' 8-byte appends among them) allocates one vector, the
//! CIDs it returns, as when every ciphertext was named one at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use oceanstore_update::codec::update_digest;
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
fn naming_collects_ciphertexts_only_for_a_run_of_eight() {
    let no_run = [
        ("one 8-byte append", appends([8])),
        ("seven of one length", appends([4096; 7])),
        (
            "eight of one length, cut by another",
            appends([4096, 4096, 4096, 4096, 8, 4096, 4096, 4096, 4096]),
        ),
        ("twenty, lengths alternating", appends((0..20).map(|i| 64 + i % 2))),
    ];
    for (what, update) in &no_run {
        assert_eq!(allocations(|| update_digest(update)), 1, "{what}: only the CID vector");
    }
    let run = appends([4096; 8]);
    assert_eq!(allocations(|| update_digest(&run)), 2, "a run: the CID vector and the list");
}
