//! The lock table's allocation discipline, under a counting allocator
//! (`support/counting_alloc.rs`, shared with the engine's budget tests):
//! per-object state lives in one slab per table, so a table allocates when
//! its slab grows or a list first spills, and a refill of what it had
//! allocates nothing.

#[path = "../../core/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocs;
use siteselect_locks::{LockTable, QueueDiscipline};
use siteselect_types::{ClientId, LockMode, ObjectId, SimTime};

const OBJECTS: u32 = 10_000;
const READERS: [ClientId; 3] = [ClientId(0), ClientId(1), ClientId(2)];

fn deadline() -> SimTime {
    SimTime::from_secs(10)
}

/// Three readers lock every object, so every holder list spills past its
/// two inline entries; returns the allocations that took.
fn fill(lt: &mut LockTable<ClientId>) -> u64 {
    let before = allocs();
    for object in (0..OBJECTS).map(ObjectId) {
        for reader in READERS {
            let granted = lt.request(object, reader, LockMode::Shared, deadline());
            assert!(granted.is_granted());
        }
    }
    allocs() - before
}

#[test]
fn lock_table_refill_allocates_nothing() {
    let mut lt = LockTable::new(QueueDiscipline::Fifo);
    lt.reserve_objects(OBJECTS as usize);
    let first = fill(&mut lt);
    // One spill an object. The rest: the slab's and its free list's nine
    // steps past the 1 024 reserved slots, the owner index, and each
    // reader's row of it doubling past its 16 inline entries to 10 000.
    // A box an object past the reservation would be 8 976 more.
    let spills = u64::from(OBJECTS);
    assert!(
        (spills..=spills + 64).contains(&first),
        "{first} allocations to fill the table"
    );
    let mut grants = Vec::new();
    for round in 0..2 {
        for reader in READERS {
            lt.release_all_into(reader, &mut grants);
            assert!(grants.is_empty(), "readers unblock no one");
        }
        assert_eq!(lt.active_objects(), 0);
        lt.check_invariants().unwrap();
        let refill = fill(&mut lt);
        assert_eq!(refill, 0, "refill {round} allocated");
        assert_eq!(lt.active_objects(), OBJECTS as usize);
    }
    // A crash's clear keeps it all too.
    lt.clear();
    assert_eq!(fill(&mut lt), 0, "the refill after a clear allocated");
    lt.check_invariants().unwrap();
}

/// `waiter` queues behind `holder`'s exclusive lock on each of `objects`;
/// returns the allocations that took.
fn wait_on(lt: &mut LockTable<ClientId>, holder: ClientId, waiter: ClientId, objects: u32) -> u64 {
    for object in (0..objects).map(ObjectId) {
        assert!(lt
            .request(object, holder, LockMode::Exclusive, deadline())
            .is_granted());
    }
    let before = allocs();
    for object in (0..objects).map(ObjectId) {
        let queued = lt.request(object, waiter, LockMode::Exclusive, deadline());
        assert!(!queued.is_granted());
    }
    allocs() - before
}

#[test]
fn lock_table_rewaiting_owner_reuses_its_wait_row() {
    let (holder, waiter) = (ClientId(0), ClientId(1));
    let mut lt = LockTable::new(QueueDiscipline::Fifo);
    let mut grants = Vec::new();
    // Six waits spill the waiter's row past its four inline entries.
    let first = wait_on(&mut lt, holder, waiter, 6);
    assert!(first >= 1, "the row spilled");
    // The waiter gives up: its row empties all at once.
    lt.release_all_into(waiter, &mut grants);
    assert!(grants.is_empty());
    lt.release_all_into(holder, &mut grants);
    assert!(grants.is_empty());
    assert_eq!(wait_on(&mut lt, holder, waiter, 6), 0, "after a release");
    // The waiter is granted each object in turn: its row empties one
    // entry at a time.
    lt.release_all_into(holder, &mut grants);
    assert_eq!(grants.len(), 6);
    lt.release_all_into(waiter, &mut grants);
    assert_eq!(wait_on(&mut lt, holder, waiter, 6), 0, "after its grants");
    // A crash's clear keeps the row as well.
    lt.clear();
    assert_eq!(wait_on(&mut lt, holder, waiter, 6), 0, "after a clear");
    lt.check_invariants().unwrap();
}
