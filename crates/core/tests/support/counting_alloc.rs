//! A counting `#[global_allocator]` for allocation-budget tests: include it
//! with `#[path = ".../support/counting_alloc.rs"] mod counting_alloc;` and
//! read [`allocs`] before and after the code under test.
//!
//! The counter is per thread: the code under test runs on the thread that
//! calls it, and the harness runs each test on its own, so tests of one
//! binary count in parallel without seeing each other or the harness.

// `GlobalAlloc` is an unsafe trait; this is the one place in the workspace
// that needs it, and the implementation only counts calls before forwarding
// verbatim to the system allocator.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made by this thread so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A `Cell<u64>` has no destructor, so the slot outlives every allocation
/// the thread makes; `try_with` all the same, an allocator must not panic.
fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect with no aliasing.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System::alloc` under the caller's contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: delegates to `System::dealloc` under the caller's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from a matching `alloc` per the
        // caller's `GlobalAlloc` obligations.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: delegates to `System::realloc` under the caller's contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr`/`layout`/`new_size` forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: delegates to `System::alloc_zeroed` under the caller's contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
