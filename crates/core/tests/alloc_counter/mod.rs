//! The counting global allocator behind the allocation gates
//! (`train_step_alloc.rs`, `scoring_alloc.rs`, `snapshot_alloc.rs`): it
//! forwards to the system allocator and counts the allocations a thread
//! makes while [`allocations_during`] runs a closure on it.

#![expect(
    unsafe_code,
    reason = "a global allocator is an unsafe trait impl; it only forwards to `System`"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting allocations made on a thread
/// while its `COUNTING` flag is set.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator can run while thread-locals are torn down.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

// analyzer:unsafe(invariant): every method forwards its arguments unchanged to `System`, which upholds the GlobalAlloc contract; the counting touches only const-initialized thread-locals, which never allocate
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // analyzer:unsafe(invariant): caller's layout passed through to System unchanged
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // analyzer:unsafe(invariant): caller's layout passed through to System unchanged
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // analyzer:unsafe(invariant): ptr/layout came from this allocator, i.e. from System
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // analyzer:unsafe(invariant): ptr/layout came from this allocator, i.e. from System
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (including reallocations) `f` makes on this thread.
pub fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}
