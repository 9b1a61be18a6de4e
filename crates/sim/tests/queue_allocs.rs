//! The event queue's allocations are pinned: a new queue allocates a
//! constant amount, and a queue that keeps about a thousand events pending
//! (a 100-client run's steady state, and the benchmark's `sim.queue.*`
//! pattern) recycles its nodes instead of allocating, however far ahead
//! its events fire.

#[path = "../../core/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocs;
use siteselect_sim::{EventQueue, Prng};
use siteselect_types::SimTime;

#[test]
fn a_new_queue_allocates_at_most_twice() {
    let before = allocs();
    let q: EventQueue<u64> = EventQueue::new();
    let made = allocs() - before;
    assert!(q.is_empty());
    assert!(made <= 2, "EventQueue::new allocated {made} times");
}

/// Allocations of `ops` pops, each followed by a push `floor_us` plus up to
/// `span_us` after the popped time, once 1 000 events are pending and each
/// has been popped and pushed once.
fn churn_allocs(span_us: u64, floor_us: u64, ops: u32) -> u64 {
    let mut rng = Prng::seed_from_u64(0x0EE1_A110);
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..1_000u32 {
        q.push(SimTime::from_micros(floor_us + rng.below(span_us)), i);
    }
    let mut churn = |q: &mut EventQueue<u32>, n: u32| {
        for _ in 0..n {
            let (t, e) = q.pop().expect("the queue never drains");
            q.push(
                SimTime::from_micros(t.as_micros() + floor_us + rng.below(span_us)),
                e,
            );
        }
    };
    // The first fill: every event passes through the wheel once, so the
    // node slab and the drain reach the peak this load needs.
    churn(&mut q, 1_000);
    let before = allocs();
    churn(&mut q, ops);
    let made = allocs() - before;
    assert_eq!(q.len(), 1_000);
    made
}

#[test]
fn a_churned_queue_allocates_nothing_within_a_second() {
    // The low wheel levels.
    assert_eq!(churn_allocs(1_000_000, 1, 100_000), 0);
}

#[test]
fn a_churned_queue_allocates_nothing_across_every_level() {
    // 100 s to 2 000 s ahead: every event starts on a high level and
    // cascades down through all of them before it pops.
    assert_eq!(churn_allocs(1_900_000_000, 100_000_000, 100_000), 0);
}
