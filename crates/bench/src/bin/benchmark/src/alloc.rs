//! A counting global allocator: `allocs_per_txn` is the number of heap
//! allocations (and reallocations) the whole process makes in a timed
//! section, divided by the transactions the section measured.

// `GlobalAlloc` is an unsafe trait; this module is the one place in the
// benchmark that needs it, and the implementation only counts calls before
// forwarding verbatim to the system allocator.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAlloc;

// A statistic that publishes no other data, so `Relaxed` suffices; the
// sweep workload's worker threads bump it concurrently.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Allocations made by the process so far.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect with no aliasing.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System::alloc` under the caller's contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout`/`new_size` forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: delegates to `System::alloc_zeroed` under the caller's contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
}
