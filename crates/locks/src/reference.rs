//! The pre-optimization `HashMap`-based lock table, kept verbatim as a
//! test-only reference oracle.
//!
//! [`crate::table::LockTable`], in both its layouts (the server's dense
//! slab and a client's compact map), must be behaviorally
//! indistinguishable from this implementation — identical grant orders,
//! observable state and, for a blocked request, the first owner of the
//! reference's conflict report, for every operation sequence. The
//! property test at the bottom of this module drives both tables with
//! long random acquire/release/upgrade/downgrade/cancel sequences, on
//! each layout, and asserts they never diverge.

use std::collections::HashMap;

use siteselect_types::{LockMode, ObjectId, SimTime};

use crate::table::{LockOwner, QueueDiscipline};

/// [`crate::table::Acquire`] as the reference reports it: the original
/// returned every conflicting holder (or every waiter ahead) in a `Vec`,
/// of which the table names the first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefAcquire<O> {
    Granted,
    AlreadyHeld,
    Upgraded,
    Blocked { conflicts: Vec<O> },
}

/// A blocked request in the reference table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefWaiter<O> {
    pub owner: O,
    pub mode: LockMode,
    pub deadline: SimTime,
    seq: u64,
}

#[derive(Debug)]
struct ObjectLocks<O> {
    holders: Vec<(O, LockMode)>,
    waiters: Vec<RefWaiter<O>>,
}

impl<O> Default for ObjectLocks<O> {
    fn default() -> Self {
        ObjectLocks {
            holders: Vec::new(),
            waiters: Vec::new(),
        }
    }
}

impl<O: LockOwner> ObjectLocks<O> {
    fn holder_mode(&self, owner: O) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|(o, _)| *o == owner)
            .map(|&(_, m)| m)
    }

    fn conflicts_with(&self, owner: O, mode: LockMode) -> Vec<O> {
        self.holders
            .iter()
            .filter(|(o, m)| *o != owner && !m.compatible_with(mode))
            .map(|&(o, _)| o)
            .collect()
    }

    fn is_unused(&self) -> bool {
        self.holders.is_empty() && self.waiters.is_empty()
    }
}

/// The original `HashMap`-keyed strict-2PL lock table.
#[derive(Debug)]
pub struct RefLockTable<O> {
    discipline: QueueDiscipline,
    objects: HashMap<ObjectId, ObjectLocks<O>>,
    held_by: HashMap<O, Vec<ObjectId>>,
    next_seq: u64,
}

impl<O: LockOwner> RefLockTable<O> {
    #[must_use]
    pub fn new(discipline: QueueDiscipline) -> Self {
        RefLockTable {
            discipline,
            objects: HashMap::new(),
            held_by: HashMap::new(),
            next_seq: 0,
        }
    }

    pub fn request(
        &mut self,
        object: ObjectId,
        owner: O,
        mode: LockMode,
        deadline: SimTime,
    ) -> RefAcquire<O> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = self.objects.entry(object).or_default();

        if let Some(held) = entry.holder_mode(owner) {
            if held.covers(mode) {
                return RefAcquire::AlreadyHeld;
            }
            let others: Vec<O> = entry
                .holders
                .iter()
                .filter(|(o, _)| *o != owner)
                .map(|&(o, _)| o)
                .collect();
            if others.is_empty() {
                for h in &mut entry.holders {
                    if h.0 == owner {
                        h.1 = LockMode::Exclusive;
                    }
                }
                return RefAcquire::Upgraded;
            }
            let waiter = RefWaiter {
                owner,
                mode,
                deadline,
                seq,
            };
            Self::insert_waiter(&mut entry.waiters, waiter, self.discipline, true);
            return RefAcquire::Blocked { conflicts: others };
        }

        let conflicts = entry.conflicts_with(owner, mode);
        if conflicts.is_empty() && entry.waiters.is_empty() {
            entry.holders.push((owner, mode));
            self.held_by.entry(owner).or_default().push(object);
            return RefAcquire::Granted;
        }
        let blockers = if conflicts.is_empty() {
            entry.waiters.iter().map(|w| w.owner).collect()
        } else {
            conflicts
        };
        let waiter = RefWaiter {
            owner,
            mode,
            deadline,
            seq,
        };
        Self::insert_waiter(&mut entry.waiters, waiter, self.discipline, false);
        RefAcquire::Blocked { conflicts: blockers }
    }

    fn insert_waiter(
        waiters: &mut Vec<RefWaiter<O>>,
        w: RefWaiter<O>,
        discipline: QueueDiscipline,
        upgrade_priority: bool,
    ) {
        if upgrade_priority {
            waiters.insert(0, w);
            return;
        }
        match discipline {
            QueueDiscipline::Fifo => waiters.push(w),
            QueueDiscipline::Deadline => {
                let pos = waiters
                    .iter()
                    .position(|x| (x.deadline, x.seq) > (w.deadline, w.seq))
                    .unwrap_or(waiters.len());
                waiters.insert(pos, w);
            }
        }
    }

    pub fn release(&mut self, object: ObjectId, owner: O) -> Vec<RefWaiter<O>> {
        let Some(entry) = self.objects.get_mut(&object) else {
            return Vec::new();
        };
        let before = entry.holders.len();
        entry.holders.retain(|(o, _)| *o != owner);
        if entry.holders.len() != before {
            if let Some(v) = self.held_by.get_mut(&owner) {
                v.retain(|&o| o != object);
            }
        }
        entry.waiters.retain(|w| w.owner != owner);
        self.promote(object)
    }

    pub fn release_all(&mut self, owner: O) -> Vec<(ObjectId, Vec<RefWaiter<O>>)> {
        let mut held = self.held_by.remove(&owner).unwrap_or_default();
        held.sort_unstable();
        held.dedup();
        let mut queued: Vec<ObjectId> = self
            // detlint: allow(D2) — `queued.sort_unstable()` below, before the release loop
            .objects
            .iter()
            .filter(|(_, e)| e.waiters.iter().any(|w| w.owner == owner))
            .map(|(&o, _)| o)
            .collect();
        queued.sort_unstable();
        let mut out = Vec::new();
        for obj in held.into_iter().chain(queued) {
            if let Some(entry) = self.objects.get_mut(&obj) {
                entry.holders.retain(|(o, _)| *o != owner);
                entry.waiters.retain(|w| w.owner != owner);
            }
            let granted = self.promote(obj);
            if !granted.is_empty() {
                out.push((obj, granted));
            }
        }
        out
    }

    pub fn downgrade(&mut self, object: ObjectId, owner: O) -> Vec<RefWaiter<O>> {
        let Some(entry) = self.objects.get_mut(&object) else {
            return Vec::new();
        };
        let mut changed = false;
        for h in &mut entry.holders {
            if h.0 == owner && h.1 == LockMode::Exclusive {
                h.1 = LockMode::Shared;
                changed = true;
            }
        }
        if changed {
            self.promote(object)
        } else {
            Vec::new()
        }
    }

    pub fn cancel_wait(&mut self, object: ObjectId, owner: O) -> (bool, Vec<RefWaiter<O>>) {
        let Some(entry) = self.objects.get_mut(&object) else {
            return (false, Vec::new());
        };
        let before = entry.waiters.len();
        entry.waiters.retain(|w| w.owner != owner);
        let removed = entry.waiters.len() != before;
        let granted = if removed { self.promote(object) } else { Vec::new() };
        (removed, granted)
    }

    // The nested tuple return is the pair `LockTable::cancel_expired_into`
    // fills, so the property tests can diff the two implementations verbatim.
    #[allow(clippy::type_complexity)]
    pub fn cancel_expired(
        &mut self,
        now: SimTime,
    ) -> (
        Vec<(ObjectId, RefWaiter<O>)>,
        Vec<(ObjectId, Vec<RefWaiter<O>>)>,
    ) {
        let mut expired = Vec::new();
        // detlint: allow(D2) — `objs.sort_unstable()` on the next line, before the expiry sweep
        let mut objs: Vec<ObjectId> = self.objects.keys().copied().collect();
        objs.sort_unstable();
        for obj in &objs {
            let entry = self.objects.get_mut(obj).expect("key just listed");
            let mut kept = Vec::with_capacity(entry.waiters.len());
            for w in entry.waiters.drain(..) {
                if w.deadline < now {
                    expired.push((*obj, w));
                } else {
                    kept.push(w);
                }
            }
            entry.waiters = kept;
        }
        let mut grants = Vec::new();
        for obj in objs {
            let g = self.promote(obj);
            if !g.is_empty() {
                grants.push((obj, g));
            }
        }
        (expired, grants)
    }

    fn promote(&mut self, object: ObjectId) -> Vec<RefWaiter<O>> {
        let Some(entry) = self.objects.get_mut(&object) else {
            return Vec::new();
        };
        let mut granted = Vec::new();
        while let Some(head) = entry.waiters.first().copied() {
            if let Some(held) = entry.holder_mode(head.owner) {
                let sole = entry.holders.iter().all(|(o, _)| *o == head.owner);
                if sole && held == LockMode::Shared && head.mode == LockMode::Exclusive {
                    for h in &mut entry.holders {
                        if h.0 == head.owner {
                            h.1 = LockMode::Exclusive;
                        }
                    }
                    entry.waiters.remove(0);
                    granted.push(head);
                    continue;
                }
                break;
            }
            if entry.conflicts_with(head.owner, head.mode).is_empty() {
                entry.holders.push((head.owner, head.mode));
                self.held_by.entry(head.owner).or_default().push(object);
                entry.waiters.remove(0);
                granted.push(head);
            } else {
                break;
            }
        }
        if entry.is_unused() {
            self.objects.remove(&object);
        }
        granted
    }

    /// What `LockTable::conflicting_holders` must list, in the same order.
    #[must_use]
    pub fn conflicting_holders(&self, object: ObjectId, owner: O, mode: LockMode) -> Vec<O> {
        self.objects
            .get(&object)
            .map(|e| e.conflicts_with(owner, mode))
            .unwrap_or_default()
    }

    #[must_use]
    pub fn holders(&self, object: ObjectId) -> Vec<(O, LockMode)> {
        self.objects
            .get(&object)
            .map(|e| e.holders.clone())
            .unwrap_or_default()
    }

    #[must_use]
    pub fn waiters(&self, object: ObjectId) -> Vec<RefWaiter<O>> {
        self.objects
            .get(&object)
            .map(|e| e.waiters.clone())
            .unwrap_or_default()
    }

    #[must_use]
    pub fn locks_of(&self, owner: O) -> Vec<ObjectId> {
        let mut v = self.held_by.get(&owner).cloned().unwrap_or_default();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[must_use]
    pub fn active_objects(&self) -> usize {
        self.objects.len()
    }

    /// What `LockTable::would_deadlock` must answer, by brute force: the
    /// wait-for edges are rebuilt from every object's queue (each waiter
    /// waits for the holders its request conflicts with), and a search
    /// from `holders` asks whether it reaches `waiter`.
    #[must_use]
    pub fn would_deadlock(&self, waiter: O, holders: &[O]) -> bool {
        let mut edges = Vec::new();
        // detlint: allow(D2) — builds an edge list; the search's yes/no is order-free
        for e in self.objects.values() {
            for w in &e.waiters {
                let holders = e.conflicts_with(w.owner, w.mode);
                edges.extend(holders.into_iter().map(|h| (w.owner, h)));
            }
        }
        let mut reached = holders.to_vec();
        let mut next = 0;
        while let Some(&owner) = reached.get(next) {
            if owner == waiter {
                return true;
            }
            // detlint: allow(D2) — a membership search; the yes/no is order-free
            for &(from, to) in &edges {
                if from == owner && !reached.contains(&to) {
                    reached.push(to);
                }
            }
            next += 1;
        }
        false
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::table::{Acquire, LockTable, Waiter};
    use siteselect_types::ClientId;

    /// `(object, owner, mode, deadline)` — the observable identity of a
    /// grant, comparable across the two `Waiter` types.
    type Grant = (ObjectId, ClientId, LockMode, SimTime);

    fn grants_new<'a>(
        obj: ObjectId,
        ws: impl IntoIterator<Item = &'a Waiter<ClientId>>,
    ) -> Vec<Grant> {
        ws.into_iter()
            .map(|w| (obj, w.owner, w.mode, w.deadline))
            .collect()
    }

    /// True if the table's answer is the reference's: a blocked request
    /// names the first owner of the reference's conflict list.
    fn same_acquire(a: &Acquire<ClientId>, b: &RefAcquire<ClientId>) -> bool {
        match (a, b) {
            (Acquire::Blocked { behind }, RefAcquire::Blocked { conflicts }) => {
                conflicts.first() == Some(behind)
            }
            (Acquire::Granted, RefAcquire::Granted)
            | (Acquire::AlreadyHeld, RefAcquire::AlreadyHeld)
            | (Acquire::Upgraded, RefAcquire::Upgraded) => true,
            _ => false,
        }
    }

    fn grants_ref(obj: ObjectId, ws: &[RefWaiter<ClientId>]) -> Vec<Grant> {
        ws.iter().map(|w| (obj, w.owner, w.mode, w.deadline)).collect()
    }

    struct Xorshift(u64);

    impl Xorshift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    /// The table a run checks: its layout and how its objects are numbered.
    #[derive(Debug, Clone, Copy)]
    enum Table {
        /// Compact (no `reserve_objects`), objects `0..n`: a client's table.
        Unreserved,
        /// Dense, reserved for the first half of the objects and grown on
        /// demand past them: the server's table.
        Reserved,
        /// Compact, objects spread evenly over the whole `u32` range.
        Spread,
    }

    impl Table {
        /// Gap between neighbouring ids of a [`Table::Spread`] run: at most
        /// 1 200 objects, the largest under `u32::MAX`.
        const SPREAD: u32 = u32::MAX / 1_200;

        fn build(self, discipline: QueueDiscipline, objects: u32) -> LockTable<ClientId> {
            let mut table = LockTable::new(discipline);
            match self {
                Table::Reserved => table.reserve_objects(objects as usize / 2),
                Table::Unreserved => {}
                Table::Spread => assert!(objects <= 1_200, "spread ids must stay under u32::MAX"),
            }
            table
        }

        /// The id of the run's `i`th object.
        fn id(self, i: u32) -> ObjectId {
            match self {
                Table::Spread => ObjectId(i * Self::SPREAD),
                Table::Unreserved | Table::Reserved => ObjectId(i),
            }
        }
    }

    /// Asserts the full observable state of both tables agrees.
    fn assert_same_state(
        lt: &LockTable<ClientId>,
        oracle: &RefLockTable<ClientId>,
        (table, objects, owners): (Table, u32, u16),
        step: usize,
    ) {
        for id in 0..objects {
            let obj = table.id(id);
            let holders = oracle.holders(obj);
            assert!(
                lt.holders(obj).eq(holders.iter().copied()),
                "holders diverge on {obj} at step {step}"
            );
            // The borrowed conflict view, for every requester and mode
            // (the hoard beyond the hot objects has one holder and no
            // contention).
            for owner in (0..owners).map(ClientId).filter(|_| id < HOT) {
                for mode in [LockMode::Shared, LockMode::Exclusive] {
                    assert!(
                        lt.conflicting_holders(obj, owner, mode)
                            .eq(oracle.conflicting_holders(obj, owner, mode)),
                        "conflicts of {owner:?}/{mode} diverge on {obj} at step {step}"
                    );
                }
            }
            let dw: Vec<Grant> = grants_new(obj, &lt.waiters(obj));
            let ow: Vec<Grant> = grants_ref(obj, &oracle.waiters(obj));
            assert_eq!(dw, ow, "waiters diverge on {obj} at step {step}");
        }
        for c in 0..owners {
            let owner = ClientId(c);
            assert_eq!(
                lt.locks_of(owner),
                oracle.locks_of(owner),
                "locks_of diverge for {owner:?} at step {step}"
            );
        }
        assert_eq!(
            lt.active_objects(),
            oracle.active_objects(),
            "active_objects diverge at step {step}"
        );
        lt.check_invariants().unwrap();
    }

    /// The objects everyone fights over; a run with more has owner 0 hoard
    /// the rest, as a client caches locks across transactions.
    const HOT: u32 = 8;

    /// The table's deadlock walk against the brute-force search, for a
    /// random owner about to wait behind the holders of a random object (or
    /// behind one random owner). Returns the verdict.
    fn same_deadlock_verdict(
        lt: &LockTable<ClientId>,
        oracle: &RefLockTable<ClientId>,
        probe: &mut Xorshift,
        (table, objects, owners): (Table, u32, u16),
        step: usize,
    ) -> bool {
        let waiter = ClientId(probe.below(u64::from(owners)) as u16);
        let holders: Vec<ClientId> = if probe.below(4) == 0 {
            vec![ClientId(probe.below(u64::from(owners)) as u16)]
        } else {
            let obj = table.id(probe.below(u64::from(objects.min(HOT))) as u32);
            lt.conflicting_holders(obj, waiter, LockMode::Exclusive)
                .collect()
        };
        let verdict = lt.would_deadlock(waiter, holders.iter().copied());
        assert_eq!(
            verdict,
            oracle.would_deadlock(waiter, &holders),
            "deadlock verdicts diverge for {waiter:?} behind {holders:?} at step {step}"
        );
        verdict
    }

    fn run_property(seed: u64, discipline: QueueDiscipline, objects: u32) {
        run_property_with(seed, discipline, objects, 5);
    }

    /// One run against the oracle on each layout.
    fn run_property_with(seed: u64, discipline: QueueDiscipline, objects: u32, owners: u16) {
        for table in [Table::Unreserved, Table::Reserved] {
            run_property_on(table, seed, discipline, objects, owners, RARE_CLEARS);
        }
    }

    /// Odds against a `clear` on a quiet step (one that draws no lock
    /// operation): a run clears its table a few times.
    const RARE_CLEARS: u64 = 100;

    /// One run of `STEPS` random operations against the oracle. A `clear`
    /// (one in `clear_odds` of the quiet steps) must leave the table equal
    /// to a fresh oracle, which the run then carries on against. Returns
    /// how many clears it drew.
    fn run_property_on(
        table: Table,
        seed: u64,
        discipline: QueueDiscipline,
        objects: u32,
        owners: u16,
        clear_odds: u64,
    ) -> usize {
        const STEPS: usize = 4000;
        let shape = (table, objects, owners);
        let hoarder = ClientId(0);
        // Deadlock probes draw from their own stream, so the operation
        // sequence is the same with or without them.
        let mut probe = Xorshift(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut cycles = [0usize; 2];
        let mut clears = 0;

        let mut rng = Xorshift(seed);
        let mut lt = table.build(discipline, objects);
        let mut oracle: RefLockTable<ClientId> = RefLockTable::new(discipline);
        // Kept from call to call, as the engine keeps them: each call must
        // clear what the last one left.
        let (mut granted, mut expired) = (Vec::new(), Vec::new());

        for step in 0..STEPS {
            // Top the hoard up now and then: releases and `release_all_into`
            // eat into it, and the owner index must be exercised at depth.
            if objects > HOT && step % 256 == 0 {
                for obj in (HOT..objects).map(|i| table.id(i)) {
                    let a = lt.request(obj, hoarder, LockMode::Shared, SimTime::from_secs(100));
                    let b = oracle.request(obj, hoarder, LockMode::Shared, SimTime::from_secs(100));
                    let same = same_acquire(&a, &b);
                    assert!(same, "hoarding {obj} diverges at step {step}: {a:?} {b:?}");
                }
                let hoard = lt.locks_of(hoarder).len() as u32;
                assert!(hoard > (objects - HOT) / 2 && (step > 0 || hoard == objects - HOT));
            }
            let obj = if rng.below(2) == 0 { HOT } else { objects };
            let obj = table.id(rng.below(u64::from(obj)) as u32);
            let owner = ClientId(rng.below(u64::from(owners)) as u16);
            let mode = if rng.below(2) == 0 {
                LockMode::Shared
            } else {
                LockMode::Exclusive
            };
            let deadline = SimTime::from_secs(rng.below(200));
            match rng.below(10) {
                0..=3 => {
                    let a = lt.request(obj, owner, mode, deadline);
                    let b = oracle.request(obj, owner, mode, deadline);
                    let same = same_acquire(&a, &b);
                    assert!(same, "request result diverges at step {step}: {a:?} {b:?}");
                }
                4..=5 => {
                    let a = grants_new(obj, &lt.release(obj, owner));
                    let b = grants_ref(obj, &oracle.release(obj, owner));
                    assert_eq!(a, b, "release grants diverge at step {step}");
                }
                6 => {
                    lt.release_all_into(owner, &mut granted);
                    let a: Vec<Grant> = granted
                        .iter()
                        .flat_map(|(o, ws)| grants_new(*o, ws))
                        .collect();
                    let b: Vec<Grant> = oracle
                        .release_all(owner)
                        .into_iter()
                        .flat_map(|(o, ws)| grants_ref(o, &ws))
                        .collect();
                    assert_eq!(a, b, "release_all grants diverge at step {step}");
                }
                7 => {
                    let a = grants_new(obj, &lt.downgrade(obj, owner));
                    let b = grants_ref(obj, &oracle.downgrade(obj, owner));
                    assert_eq!(a, b, "downgrade grants diverge at step {step}");
                }
                8 => {
                    let (ra, ga) = lt.cancel_wait(obj, owner);
                    let (rb, gb) = oracle.cancel_wait(obj, owner);
                    assert_eq!(ra, rb, "cancel_wait removal diverges at step {step}");
                    assert_eq!(
                        grants_new(obj, &ga),
                        grants_ref(obj, &gb),
                        "cancel_wait grants diverge at step {step}"
                    );
                }
                // As a crash does: every lock and waiter goes at once.
                9 if rng.below(clear_odds) == 0 => {
                    lt.clear();
                    oracle = RefLockTable::new(discipline);
                    assert_eq!(lt.active_objects(), 0, "clear left objects at step {step}");
                    assert!(!lt.has_waiters(), "clear left waiters at step {step}");
                    assert_same_state(&lt, &oracle, shape, step);
                    clears += 1;
                }
                // Waiters expire now and then; the other steps change nothing.
                _ if rng.below(4) == 0 => {
                    let now = SimTime::from_secs(rng.below(200));
                    lt.cancel_expired_into(now, &mut expired, &mut granted);
                    let (eb, gb) = oracle.cancel_expired(now);
                    let ea: Vec<Grant> = expired
                        .iter()
                        .map(|&(o, w)| (o, w.owner, w.mode, w.deadline))
                        .collect();
                    let eb: Vec<Grant> = eb
                        .into_iter()
                        .map(|(o, w)| (o, w.owner, w.mode, w.deadline))
                        .collect();
                    assert_eq!(ea, eb, "cancel_expired pruning diverges at step {step}");
                    let ga: Vec<Grant> = granted
                        .iter()
                        .flat_map(|(o, ws)| grants_new(*o, ws))
                        .collect();
                    let gb: Vec<Grant> = gb
                        .into_iter()
                        .flat_map(|(o, ws)| grants_ref(o, &ws))
                        .collect();
                    assert_eq!(ga, gb, "cancel_expired grants diverge at step {step}");
                }
                _ => {}
            }
            // The full comparison walks every object; with a large hoard
            // a debug build affords it on a sample of the steps only.
            if objects <= 64 || !cfg!(debug_assertions) || step % 16 == 0 {
                assert_same_state(&lt, &oracle, shape, step);
            } else {
                lt.check_invariants().unwrap();
            }
            if probe.below(4) == 0 {
                let verdict = same_deadlock_verdict(&lt, &oracle, &mut probe, shape, step);
                cycles[usize::from(verdict)] += 1;
            }
        }
        // Both verdicts came up, so neither answer is hard-wired.
        assert!(
            cycles[0] > 0 && cycles[1] > 0,
            "{table:?}: verdicts {cycles:?}"
        );
        clears
    }

    #[test]
    fn table_matches_hashmap_oracle_fifo() {
        for seed in [0x5173_5e1e, 0xdead_beef, 42] {
            run_property(seed, QueueDiscipline::Fifo, HOT);
        }
    }

    #[test]
    fn table_matches_hashmap_oracle_deadline() {
        for seed in [0x5173_5e1e, 0xcafe_f00d, 7] {
            run_property(seed, QueueDiscipline::Deadline, HOT);
        }
    }

    /// More owners than the other runs, for longer wait chains.
    #[test]
    fn deadlock_walk_matches_brute_force_reference() {
        for seed in [0x5173_5e1e, 0xdead_beef, 0xcafe_f00d, 42] {
            run_property_with(seed, QueueDiscipline::Fifo, HOT, 12);
            run_property_with(seed ^ 7, QueueDiscipline::Deadline, HOT, 12);
        }
    }

    /// One owner holds more objects than `held_by`'s inline row (16) takes,
    /// then more than a thousand, as the server's clients do.
    #[test]
    fn table_matches_hashmap_oracle_with_a_hoarding_owner() {
        for (seed, objects) in [(0x5173_5e1e, 40), (0xdead_beef, 1_200)] {
            run_property(seed, QueueDiscipline::Fifo, objects);
            run_property(seed ^ 7, QueueDiscipline::Deadline, objects);
        }
    }

    /// A compact table keyed by ids spread over the whole `u32` range, as
    /// a client's may be: its memory follows what it locks, so no slab
    /// reaches for the top id. The hoard spills the index past its first
    /// sizes.
    #[test]
    fn table_matches_hashmap_oracle_with_ids_spread_over_u32() {
        for (seed, objects) in [(0x5173_5e1e, HOT), (0xdead_beef, 1_200)] {
            for (seed, discipline) in [
                (seed, QueueDiscipline::Fifo),
                (seed ^ 7, QueueDiscipline::Deadline),
            ] {
                run_property_on(Table::Spread, seed, discipline, objects, 5, RARE_CLEARS);
            }
        }
    }

    /// A crash clears the table every forty-odd operations, on every
    /// layout, with and without a hoard: after each clear the table
    /// answers as a fresh one, and it keeps matching the oracle as it
    /// refills from its recycled boxes.
    #[test]
    fn cleared_table_matches_a_fresh_oracle() {
        for table in [Table::Unreserved, Table::Reserved, Table::Spread] {
            for (seed, objects) in [(0x5173_5e1e, HOT), (0xdead_beef, 1_200)] {
                for (seed, discipline) in [
                    (seed, QueueDiscipline::Fifo),
                    (seed ^ 7, QueueDiscipline::Deadline),
                ] {
                    let clears = run_property_on(table, seed, discipline, objects, 5, 4);
                    assert!(clears > 20, "{table:?}: only {clears} clears drawn");
                }
            }
        }
    }
}
