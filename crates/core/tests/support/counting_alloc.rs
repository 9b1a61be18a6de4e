//! A counting `#[global_allocator]` for allocation-budget tests: include it
//! with `#[path = ".../support/counting_alloc.rs"] mod counting_alloc;` and
//! read [`allocs`] before and after the code under test, or bracket it
//! with [`reset_high_water`] and [`high_water`] for its peak heap.
//!
//! The counters are per thread: the code under test runs on the thread that
//! calls it, and the harness runs each test on its own, so tests of one
//! binary count in parallel without seeing each other or the harness.
//! Live bytes are the sizes the thread asked for minus those it freed, so
//! they repeat exactly for one seed whatever the allocator or the machine.

// `GlobalAlloc` is an unsafe trait; this is the one place in the workspace
// that needs it, and the implementation only counts calls before forwarding
// verbatim to the system allocator.
#![allow(unsafe_code)]
// Each test binary that includes this file reads only some of the tallies.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

/// One thread's tallies. Live bytes are signed: a block freed on another
/// thread than the one that allocated it subtracts there.
struct Tally {
    allocs: Cell<u64>,
    live: Cell<i64>,
    high_water: Cell<i64>,
}

thread_local! {
    static TALLY: Tally = const {
        Tally {
            allocs: Cell::new(0),
            live: Cell::new(0),
            high_water: Cell::new(0),
        }
    };
}

/// Allocations made by this thread so far.
pub fn allocs() -> u64 {
    TALLY.with(|t| t.allocs.get())
}

/// Resets this thread's heap high-water mark to its live bytes now, and
/// returns them.
pub fn reset_high_water() -> i64 {
    TALLY.with(|t| {
        t.high_water.set(t.live.get());
        t.live.get()
    })
}

/// The most heap bytes this thread has held live since the last
/// [`reset_high_water`].
pub fn high_water() -> i64 {
    TALLY.with(|t| t.high_water.get())
}

/// Counts one allocation call (`new` of them, none for a free) that moved
/// the thread's live bytes by `delta`. The `Cell`s have no destructor, so
/// the slot outlives every allocation the thread makes; `try_with` all the
/// same, an allocator must not panic.
fn tally(new: u64, delta: i64) {
    let _ = TALLY.try_with(|t| {
        t.allocs.set(t.allocs.get() + new);
        let live = t.live.get() + delta;
        t.live.set(live);
        t.high_water.set(t.high_water.get().max(live));
    });
}

/// Byte count of a block, as a signed delta (a `Layout` is never larger
/// than `isize::MAX`, so the cast is lossless).
fn size(bytes: usize) -> i64 {
    bytes as i64
}

// The tallies count a call before forwarding it, as if it succeeds: the
// code under test treats a failed allocation as fatal.
//
// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the tallies are a side effect with no aliasing.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System::alloc` under the caller's contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(1, size(layout.size()));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: delegates to `System::dealloc` under the caller's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(0, -size(layout.size()));
        // SAFETY: `ptr`/`layout` come from a matching `alloc` per the
        // caller's `GlobalAlloc` obligations.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: delegates to `System::realloc` under the caller's contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(1, size(new_size) - size(layout.size()));
        // SAFETY: `ptr`/`layout`/`new_size` forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: delegates to `System::alloc_zeroed` under the caller's contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(1, size(layout.size()));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
