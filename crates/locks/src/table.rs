//! A strict-2PL lock table with shared/exclusive modes, upgrades, downgrades
//! and configurable waiter ordering.
//!
//! Per-object state lives by value in one slab of slots per table, and the
//! two layouts differ only in how an object finds its slot:
//!
//! * **Dense**, an index by `ObjectId` (4 bytes an object), for the
//!   server's table, which sees every object of the paper's 10 000-object
//!   database sooner or later: a bounds-checked vector index replaces a
//!   hash and probe on every request, release and promotion.
//! * **Compact**, a [`SlotIndex`] of the objects with lock state only, for
//!   a client's local table, which locks a few objects of that database at
//!   a time: its memory follows what the client has locked, not the
//!   largest id it ever touched.
//!
//! A table starts compact; [`LockTable::reserve_objects`], which the server
//! calls with the database size, is the one place that selects the dense
//! layout. In both, an object whose state empties out frees its slot, and
//! the next object to gain state takes the last slot freed, so the slab
//! tracks the *concurrently* locked set and a table allocates only when
//! its slab grows. Holder and waiter lists use [`InlineVec`] so the common
//! one- or two-entry case never touches the heap, and a freed slot keeps
//! their spills for its next object. A crash forgets the whole table
//! through [`LockTable::clear`], which frees every slot and keeps the
//! slab, the spills and the index, so a restarted site refills the table
//! without allocating.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt::Debug;
use std::hash::Hash;

use siteselect_types::{FixedState, InlineVec, LockMode, ObjectId, SimTime, SlotIndex};

/// Trait alias for lock-owner identifiers (clients at the server's global
/// table, transactions at a site's local table).
pub trait LockOwner: Copy + Eq + Hash + Ord + Debug {}
impl<T: Copy + Eq + Hash + Ord + Debug> LockOwner for T {}

/// Ordering of blocked requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueDiscipline {
    /// First-come first-served (the non-real-time baseline, §3.3).
    #[default]
    Fifo,
    /// Earliest-deadline-first: waiters are served in deadline order, the
    /// real-time ordering used by the LS system's object request scheduling.
    Deadline,
}

/// A blocked lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiter<O> {
    /// Who is waiting.
    pub owner: O,
    /// Requested mode.
    pub mode: LockMode,
    /// Deadline of the requesting transaction (drives [`QueueDiscipline::Deadline`]).
    pub deadline: SimTime,
    /// Set on a *granted* waiter whose grant converted the owner's held
    /// shared lock in place. Undoing such a grant must downgrade back to
    /// shared rather than release the entry outright.
    pub upgrade: bool,
    seq: u64,
}

/// Result of a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Acquire<O> {
    /// The lock was granted immediately.
    Granted,
    /// The owner already held a covering lock.
    AlreadyHeld,
    /// A held shared lock was upgraded to exclusive immediately.
    Upgraded,
    /// The request conflicts and was queued.
    Blocked {
        /// The first holder in grant order whose lock conflicts with the
        /// request, or, when none does, the request queued first ahead of
        /// it.
        behind: O,
    },
}

/// The waiters one release, downgrade or cancellation granted, in grant
/// order: one writer or a short run of readers.
pub type Grants<O> = InlineVec<Waiter<O>, 2>;

impl<O> Acquire<O> {
    /// True if the request holds the lock after this call.
    #[must_use]
    pub fn is_granted(&self) -> bool {
        matches!(
            self,
            Acquire::Granted | Acquire::AlreadyHeld | Acquire::Upgraded
        )
    }
}

/// One granted lock.
#[derive(Debug, Clone, Copy)]
struct Holder<O> {
    owner: O,
    mode: LockMode,
    /// Where the object sits in `held_by[owner]`: a release finds the
    /// owner's index entry without scanning the owner's other locks.
    slot: u32,
}

#[derive(Debug)]
struct ObjectLocks<O> {
    /// Two inline. At the server nearly every object is cached at three or
    /// more clients at some point, so most slots spill once, and keep the
    /// spill from object to object; six inline would save most of those
    /// allocations but cost every slot 32 bytes.
    holders: InlineVec<Holder<O>, 2>,
    waiters: InlineVec<Waiter<O>, 2>,
}

impl<O> Default for ObjectLocks<O> {
    fn default() -> Self {
        ObjectLocks {
            holders: InlineVec::new(),
            waiters: InlineVec::new(),
        }
    }
}

impl<O: LockOwner> ObjectLocks<O> {
    fn holder_mode(&self, owner: O) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|h| h.owner == owner)
            .map(|h| h.mode)
    }

    fn sole_holder(&self, owner: O) -> bool {
        self.holders.iter().all(|h| h.owner == owner)
    }

    /// Converts `owner`'s held lock to `mode` in place.
    fn set_mode(&mut self, owner: O, mode: LockMode) {
        for h in self.holders.iter_mut() {
            if h.owner == owner {
                h.mode = mode;
            }
        }
    }

    /// Allocation-free conflict probe: the granted fast path only needs to
    /// know *whether* a conflicting holder exists, not who they are.
    fn has_conflict(&self, owner: O, mode: LockMode) -> bool {
        self.holders
            .iter()
            .any(|h| h.owner != owner && !h.mode.compatible_with(mode))
    }

    fn conflicts_with(&self, owner: O, mode: LockMode) -> impl Iterator<Item = O> + '_ {
        self.holders
            .iter()
            .filter(move |h| h.owner != owner && !h.mode.compatible_with(mode))
            .map(|h| h.owner)
    }

    fn is_unused(&self) -> bool {
        self.holders.is_empty() && self.waiters.is_empty()
    }

    /// Forgets every holder and waiter, keeping both lists' spills.
    fn clear(&mut self) {
        self.holders.clear();
        self.waiters.clear();
    }
}

/// Slots a table's slab takes in one step: [`LockTable::reserve_objects`]
/// reserves at most this many up front, and a slab this large or larger
/// grows by this many at a time (a smaller one doubles). The slab only has
/// to cover objects with lock state at once, but at the server, where
/// clients cache their locks, that is most of the paper's 10 000-object
/// database: steps of this size keep its spare capacity under one step
/// without an allocation per object.
const FREE_POOL_SEED: usize = 1024;

/// A dense index entry with no slot: the object has no lock state.
const NO_SLOT: u32 = u32::MAX;

/// Where a table finds an object's slot, in the layout
/// [`LockTable::reserve_objects`] selects.
#[derive(Debug)]
enum Index {
    /// Indexed by object id: [`NO_SLOT`] where an object has no state.
    Dense(Vec<u32>),
    /// The objects with state only.
    Compact(SlotIndex),
}

/// A table's per-object state: one slab of slots, by value, and the index
/// that finds an object's slot.
#[derive(Debug)]
struct Entries<O> {
    index: Index,
    slots: Vec<ObjectLocks<O>>,
    /// The slots no object uses, the last freed on top. A freed slot keeps
    /// its holder and waiter spills, so the next object to take it refills
    /// them without allocating.
    free: Vec<u32>,
}

impl<O: LockOwner> Entries<O> {
    fn slot(&self, object: ObjectId) -> Option<usize> {
        let at = match &self.index {
            Index::Dense(by_id) => *by_id.get(object.index() as usize)?,
            Index::Compact(index) => index.get(object)?,
        };
        (at != NO_SLOT).then_some(at as usize)
    }

    fn get(&self, object: ObjectId) -> Option<&ObjectLocks<O>> {
        self.slots.get(self.slot(object)?)
    }

    fn get_mut(&mut self, object: ObjectId) -> Option<&mut ObjectLocks<O>> {
        let at = self.slot(object)?;
        self.slots.get_mut(at)
    }

    /// `object`'s state, in the last freed slot if it has none (a dense
    /// index grows on demand).
    fn get_or_insert(&mut self, object: ObjectId) -> &mut ObjectLocks<O> {
        // Lossless: a slab of `u32::MAX` slots would take hundreds of GB.
        let next = self.free.last().copied().unwrap_or(self.slots.len() as u32);
        let found = match &mut self.index {
            Index::Dense(by_id) => {
                let idx = object.index() as usize;
                if idx >= by_id.len() {
                    by_id.resize(idx + 1, NO_SLOT);
                }
                // detlint: allow(D9) — resized above to cover `idx`
                let at = &mut by_id[idx];
                if *at == NO_SLOT {
                    *at = next;
                    None
                } else {
                    Some(*at)
                }
            }
            Index::Compact(index) => index.get_or_insert(object, next),
        };
        let at = found.unwrap_or_else(|| self.take_slot()) as usize;
        // detlint: allow(D9) — indexed slots and `take_slot`'s are in the slab
        &mut self.slots[at]
    }

    /// Takes the last freed slot, or a new one at the end of the slab,
    /// growing the slab (and the free list with it) by at most one step.
    fn take_slot(&mut self) -> u32 {
        if let Some(at) = self.free.pop() {
            return at;
        }
        let cap = self.slots.capacity();
        if self.slots.len() == cap && cap >= FREE_POOL_SEED {
            self.slots.reserve_exact(FREE_POOL_SEED);
        }
        self.slots.push(ObjectLocks::default());
        // The free list never holds more than the slab: it grows with it,
        // so a release never allocates.
        self.free.reserve_exact(self.slots.capacity());
        // Lossless: see `get_or_insert`.
        (self.slots.len() - 1) as u32
    }

    /// Frees `object`'s slot if it has one and no holder or waiter is left
    /// in it.
    fn reclaim(&mut self, object: ObjectId) {
        let Some(at) = self.slot(object) else {
            return;
        };
        if !self.slots.get(at).is_some_and(ObjectLocks::is_unused) {
            return;
        }
        match &mut self.index {
            Index::Dense(by_id) => {
                if let Some(entry) = by_id.get_mut(object.index() as usize) {
                    *entry = NO_SLOT;
                }
            }
            Index::Compact(index) => {
                index.remove(object);
            }
        }
        // Lossless: see `get_or_insert`.
        self.free.push(at as u32);
    }

    /// Every object with state and its slot, in no particular order.
    fn indexed(&self) -> impl Iterator<Item = (ObjectId, usize)> + '_ {
        let (dense, compact) = match &self.index {
            Index::Dense(by_id) => (Some(by_id), None),
            Index::Compact(index) => (None, Some(index)),
        };
        let dense = dense.into_iter().flat_map(|by_id| {
            by_id
                .iter()
                .enumerate()
                .filter(|&(_, &at)| at != NO_SLOT)
                .map(|(i, &at)| (ObjectId(i as u32), at))
        });
        let compact = compact.into_iter().flat_map(SlotIndex::iter);
        dense.chain(compact).map(|(id, at)| (id, at as usize))
    }

    /// Every object with state and its state, in no particular order.
    fn iter(&self) -> impl Iterator<Item = (ObjectId, &ObjectLocks<O>)> {
        self.indexed()
            .filter_map(|(id, at)| Some((id, self.slots.get(at)?)))
    }

    /// Frees every slot, keeping the slab, each slot's spills, and the
    /// capacity of the index and the free list.
    fn clear(&mut self) {
        match &mut self.index {
            Index::Dense(by_id) => by_id.fill(NO_SLOT),
            Index::Compact(index) => index.clear(),
        }
        self.slots.iter_mut().for_each(ObjectLocks::clear);
        self.free.clear();
        // Lossless: see `get_or_insert`. Reversed, so slot 0 is taken first.
        self.free.extend((0..self.slots.len() as u32).rev());
    }
}

/// The objects each owner holds, in no particular order: every holder
/// entry carries its object's position here.
type HeldBy<O> = HashMap<O, HeldRow, FixedState>;
/// One owner's row of [`HeldBy`].
type HeldRow = InlineVec<ObjectId, 16>;
/// The objects each owner waits on, one entry per queued request.
type WaitsOf<O> = HashMap<O, WaitRow, FixedState>;
/// One owner's row of [`WaitsOf`].
type WaitRow = InlineVec<ObjectId, 4>;

/// Scratch of [`LockTable::would_deadlock`], cleared but never shrunk: the
/// owners expanded so far and those still to visit.
#[derive(Debug)]
struct Walk<O> {
    seen: HashSet<O, FixedState>,
    stack: Vec<O>,
}

/// Waiters cancelled by [`LockTable::cancel_expired_into`], tagged by object.
pub type ExpiredWaiters<O> = Vec<(ObjectId, Waiter<O>)>;
/// Grants unblocked by a pruning pass, grouped by object.
pub type UnblockedGrants<O> = Vec<(ObjectId, Grants<O>)>;

/// A strict-2PL lock table.
///
/// See the [crate-level example](crate) for typical use. Grants are
/// conservative: a new request is granted only when it is compatible with
/// every current holder *and* no request is already queued (preventing
/// starvation of queued writers); otherwise it waits in FIFO or deadline
/// order. Releases promote the longest prefix of now-grantable waiters.
///
/// Object state lives in one slab of slots, found through the compact
/// layout's index of the objects with lock state until
/// [`reserve_objects`](Self::reserve_objects) selects the dense one, an
/// index by object id (see the [module docs](self)). Either way an emptied
/// object's slot is recycled through a free list. A table never locks
/// `ObjectId(u32::MAX)`: the compact layout's index reserves it.
#[derive(Debug)]
pub struct LockTable<O> {
    discipline: QueueDiscipline,
    objects: Entries<O>,
    // Both owner maps hash with `FixedState`: owners are program-generated
    // ids, and a process-random hasher would move the maps' rehash points
    // (and so the engine's allocation counts) from run to run.
    held_by: HeldBy<O>,
    // Emptied rows of `held_by` that had spilled to the heap. A crash's
    // `clear` and `release_all_into` hand them back and `hold` draws on
    // them, so a table refilled after a restart regrows no row; the rows of
    // owners that are gone are not kept in the index to get this.
    spare_rows: Vec<HeldRow>,
    // Reverse index of queued waiters (multiset: one entry per queued
    // waiter), so release_all_into never has to scan the whole slab for an
    // owner's pending requests.
    waits_of: WaitsOf<O>,
    // Emptied rows of `waits_of` that had spilled, kept as `spare_rows`
    // keeps `held_by`'s: an owner that waits on more objects than a row
    // holds inline, again and again, regrows no row.
    spare_waits: Vec<WaitRow>,
    // Recycled between release_all_into / cancel_expired_into calls so the
    // per-transaction cleanup path stays allocation-free at steady state.
    scratch: Vec<ObjectId>,
    // `would_deadlock` takes `&self`, so a caller can hand it holders
    // straight off this table; its scratch is the one interior-mutable part.
    walk: RefCell<Walk<O>>,
    next_seq: u64,
    /// Holder entries inspected by releases; the shape tests read it.
    #[cfg(test)]
    visits: std::cell::Cell<u64>,
}

impl<O: LockOwner> LockTable<O> {
    /// Creates an empty table with the given waiter ordering.
    #[must_use]
    pub fn new(discipline: QueueDiscipline) -> Self {
        LockTable {
            discipline,
            objects: Entries {
                index: Index::Compact(SlotIndex::new()),
                slots: Vec::new(),
                free: Vec::new(),
            },
            held_by: HashMap::default(),
            spare_rows: Vec::new(),
            waits_of: HashMap::default(),
            spare_waits: Vec::new(),
            scratch: Vec::new(),
            walk: RefCell::new(Walk { seen: HashSet::default(), stack: Vec::new() }),
            next_seq: 0,
            #[cfg(test)]
            visits: std::cell::Cell::new(0),
        }
    }

    /// Removes one instance of `object` from `owner`'s waiting index.
    fn forget_wait_one(
        (waits_of, spare_waits): (&mut WaitsOf<O>, &mut Vec<WaitRow>),
        owner: O,
        object: ObjectId,
    ) {
        if let Some(v) = waits_of.get_mut(&owner) {
            let pos = v.iter().position(|&o| o == object);
            if let Some(pos) = pos {
                v.remove(pos);
            }
            if v.is_empty() {
                Self::spare(spare_waits, waits_of.remove(&owner));
            }
        }
    }

    /// Removes every instance of `object` from `owner`'s waiting index
    /// (the counterpart of a `retain` that drops all of the owner's
    /// waiters on that object).
    fn forget_wait_all(
        (waits_of, spare_waits): (&mut WaitsOf<O>, &mut Vec<WaitRow>),
        owner: O,
        object: ObjectId,
    ) {
        if let Some(v) = waits_of.get_mut(&owner) {
            v.retain(|&o| o != object);
            if v.is_empty() {
                Self::spare(spare_waits, waits_of.remove(&owner));
            }
        }
    }

    /// Selects the dense layout, its index pre-sized for object ids
    /// `0..n`, and reserves the first `min(n, 1 024)` slots of the slab in
    /// one allocation, so first-touch lock requests mid-run neither grow
    /// the index nor allocate per-object state until that many objects
    /// hold state at once. The server, whose table sees the whole
    /// database, calls this at setup; a table that never calls it stays
    /// compact, sized to what it has locked. Past `n` the index grows on
    /// demand, and past the reservation the slab grows by at most 1 024
    /// slots a step.
    ///
    /// # Panics
    ///
    /// If the table is compact and already holds lock state: the layout is
    /// chosen before the first request.
    pub fn reserve_objects(&mut self, n: usize) {
        let entries = &mut self.objects;
        if let Index::Compact(index) = &entries.index {
            assert!(
                index.is_empty(),
                "reserve_objects comes before the first request"
            );
            entries.index = Index::Dense(Vec::new());
        }
        if let Index::Dense(by_id) = &mut entries.index {
            if by_id.len() < n {
                by_id.resize(n, NO_SLOT);
            }
        }
        let reserve = n.min(FREE_POOL_SEED).saturating_sub(entries.slots.len());
        entries.slots.reserve_exact(reserve);
        entries
            .free
            .reserve_exact(entries.slots.capacity() - entries.free.len());
    }

    /// Forgets every lock and waiter, as a crash does, but keeps what the
    /// table allocated: every slot is freed with its holder and waiter
    /// spills, and the slab, the layout's index, the owner indexes' hash
    /// tables and the scratch keep their capacity (each owner's spilled row
    /// of an owner index goes to that index's spares). The table then
    /// answers as a new one with the same layout, and refilling it to its
    /// old size allocates nothing.
    pub fn clear(&mut self) {
        self.objects.clear();
        // detlint: allow(D2) — the order only picks which spare a later owner draws; `FixedState` fixes it
        for (_, row) in self.held_by.drain() {
            Self::spare(&mut self.spare_rows, Some(row));
        }
        // detlint: allow(D2) — as above
        for (_, row) in self.waits_of.drain() {
            Self::spare(&mut self.spare_waits, Some(row));
        }
        self.next_seq = 0;
    }

    fn entry(&self, object: ObjectId) -> Option<&ObjectLocks<O>> {
        self.objects.get(object)
    }

    /// Grants `mode` on `entry`'s object to `owner`: one entry in each
    /// index, the holder's recording where the owner's went.
    fn hold(
        (held_by, spare_rows): (&mut HeldBy<O>, &mut Vec<HeldRow>),
        entry: &mut ObjectLocks<O>,
        object: ObjectId,
        owner: O,
        mode: LockMode,
    ) {
        let held = held_by
            .entry(owner)
            .or_insert_with(|| spare_rows.pop().unwrap_or_default());
        // Lossless: an owner holds an object once and object ids are `u32`.
        let slot = held.len() as u32;
        held.push(object);
        entry.holders.push(Holder { owner, mode, slot });
    }

    /// Keeps an emptied owner row, if any, for reuse if it owns heap
    /// capacity.
    fn spare<const N: usize>(
        spares: &mut Vec<InlineVec<ObjectId, N>>,
        row: Option<InlineVec<ObjectId, N>>,
    ) {
        if let Some(mut row) = row.filter(InlineVec::spilled) {
            row.clear();
            spares.push(row);
        }
    }

    /// Takes `owner` off `object`'s holders and `object` out of the owner's
    /// index, looking only at that object's holders and at those of the
    /// one object whose index entry moves into the vacated slot.
    fn unhold(&mut self, object: ObjectId, owner: O) {
        let Some(entry) = self.objects.get_mut(object) else {
            return;
        };
        let Some(pos) = entry.holders.iter().position(|h| h.owner == owner) else {
            return;
        };
        let slot = entry.holders.remove(pos).slot;
        self.note_visits(pos + 1);
        let Some(held) = self.held_by.get_mut(&owner) else {
            return;
        };
        held.swap_remove(slot as usize);
        let Some(&moved) = held.get(slot as usize) else {
            return;
        };
        if let Some(entry) = self.objects.get_mut(moved) {
            let seen = entry.holders.len();
            for h in entry.holders.iter_mut().filter(|h| h.owner == owner) {
                h.slot = slot;
            }
            self.note_visits(seen);
        }
    }

    #[inline]
    fn note_visits(&self, _n: usize) {
        #[cfg(test)]
        self.visits.set(self.visits.get() + _n as u64);
    }

    /// Requests `mode` on `object` for `owner`.
    ///
    /// `deadline` orders the wait queue under
    /// [`QueueDiscipline::Deadline`]; it is remembered either way so
    /// callers can prune expired waiters with
    /// [`cancel_expired_into`](Self::cancel_expired_into).
    pub fn request(
        &mut self,
        object: ObjectId,
        owner: O,
        mode: LockMode,
        deadline: SimTime,
    ) -> Acquire<O> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let discipline = self.discipline;
        // Borrows the entries alone, so the owner indexes can be updated
        // with the entry in hand. A fresh object takes a freed slot: inside
        // the slab's capacity it costs no allocation.
        let entry = self.objects.get_or_insert(object);

        let holds = entry.holder_mode(owner);
        if let Some(held) = holds {
            if held.covers(mode) {
                return Acquire::AlreadyHeld;
            }
            // Upgrade SL -> EL: immediate only as the sole holder.
            if entry.sole_holder(owner) {
                entry.set_mode(owner, LockMode::Exclusive);
                return Acquire::Upgraded;
            }
        } else if !entry.has_conflict(owner, mode) && entry.waiters.is_empty() {
            let index = (&mut self.held_by, &mut self.spare_rows);
            Self::hold(index, entry, object, owner, mode);
            return Acquire::Granted;
        }
        // An upgrade is blocked by another holder, every one of whom
        // conflicts with it; a newcomer by a holder or a queued request.
        let ahead = entry.waiters.iter().map(|w| w.owner);
        let Some(behind) = entry.conflicts_with(owner, mode).chain(ahead).next() else {
            unreachable!("a request that is not granted is blocked by someone");
        };
        let waiter = Waiter {
            owner,
            mode,
            deadline,
            upgrade: false,
            seq,
        };
        // Upgrades go to the front of their discipline class so the
        // upgrading holder cannot deadlock behind newcomers it blocks.
        Self::insert_waiter(&mut entry.waiters, waiter, discipline, holds.is_some());
        let spare_waits = &mut self.spare_waits;
        self.waits_of
            .entry(owner)
            .or_insert_with(|| spare_waits.pop().unwrap_or_default())
            .push(object);
        Acquire::Blocked { behind }
    }

    fn insert_waiter(
        waiters: &mut InlineVec<Waiter<O>, 2>,
        w: Waiter<O>,
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

    /// Releases `owner`'s lock on `object` (and removes any queued request
    /// by the same owner). Returns the waiters granted as a result, in grant
    /// order.
    pub fn release(&mut self, object: ObjectId, owner: O) -> Grants<O> {
        self.unhold(object, owner);
        let Some(entry) = self.objects.get_mut(object) else {
            return Grants::new();
        };
        let waiting = entry.waiters.len();
        entry.waiters.retain(|w| w.owner != owner);
        if entry.waiters.len() != waiting {
            let waits = (&mut self.waits_of, &mut self.spare_waits);
            Self::forget_wait_all(waits, owner, object);
        }
        let granted = self.promote(object);
        self.objects.reclaim(object);
        granted
    }

    /// Releases every lock `owner` holds or awaits; puts, per object, the
    /// newly granted waiters into `out`, which it clears first: a caller
    /// that keeps `out` from call to call allocates nothing once it has
    /// grown.
    pub fn release_all_into(&mut self, owner: O, out: &mut UnblockedGrants<O>) {
        out.clear();
        // Held objects first (ascending), then awaited objects (ascending),
        // matching the order of the original held-then-slab-scan walk; an
        // object appearing in both lists is processed twice, which is a
        // harmless no-op the second time. The work list is a recycled
        // scratch buffer so the common commit path never allocates.
        let mut work = std::mem::take(&mut self.scratch);
        work.clear();
        let held = self.held_by.remove(&owner);
        work.extend(held.iter().flat_map(InlineVec::iter));
        Self::spare(&mut self.spare_rows, held);
        work.sort_unstable();
        work.dedup();
        let split = work.len();
        let queued = self.waits_of.remove(&owner);
        work.extend(queued.iter().flat_map(InlineVec::iter));
        Self::spare(&mut self.spare_waits, queued);
        work[split..].sort_unstable();
        for &obj in &work {
            if let Some(entry) = self.objects.get_mut(obj) {
                entry.holders.retain(|h| h.owner != owner);
                entry.waiters.retain(|w| w.owner != owner);
            }
            let granted = self.promote(obj);
            self.objects.reclaim(obj);
            if !granted.is_empty() {
                out.push((obj, granted));
            }
        }
        work.clear();
        self.scratch = work;
    }

    /// Downgrades `owner`'s exclusive lock on `object` to shared (the
    /// callback optimization of §2). Returns newly granted waiters. No-op
    /// if the owner does not hold an EL.
    pub fn downgrade(&mut self, object: ObjectId, owner: O) -> Grants<O> {
        let Some(entry) = self.objects.get_mut(object) else {
            return Grants::new();
        };
        let changed = entry.holder_mode(owner) == Some(LockMode::Exclusive);
        if changed {
            entry.set_mode(owner, LockMode::Shared);
            self.promote(object)
        } else {
            Grants::new()
        }
    }

    /// Removes a queued (not yet granted) request. Returns `true` if one was
    /// removed; promotes followers that may now be grantable.
    pub fn cancel_wait(&mut self, object: ObjectId, owner: O) -> (bool, Grants<O>) {
        let Some(entry) = self.objects.get_mut(object) else {
            return (false, Grants::new());
        };
        let before = entry.waiters.len();
        entry.waiters.retain(|w| w.owner != owner);
        let removed = entry.waiters.len() != before;
        if removed {
            let waits = (&mut self.waits_of, &mut self.spare_waits);
            Self::forget_wait_all(waits, owner, object);
        }
        let granted = if removed { self.promote(object) } else { Grants::new() };
        self.objects.reclaim(object);
        (removed, granted)
    }

    /// Drops every queued waiter whose deadline precedes `now`; puts the
    /// cancelled waiters into `expired` and any grants unblocked by the
    /// pruning into `grants`, which it clears first: a caller that keeps
    /// them from sweep to sweep allocates nothing once they have grown.
    pub fn cancel_expired_into(
        &mut self,
        now: SimTime,
        expired: &mut ExpiredWaiters<O>,
        grants: &mut UnblockedGrants<O>,
    ) {
        expired.clear();
        grants.clear();
        if self.waits_of.is_empty() {
            // Nothing is blocked anywhere: the sweep is free. This is the
            // common case, and it must not walk the object slab.
            return;
        }
        // Visit only objects with queued waiters, straight from the
        // reverse index; pruning and promotion are no-ops elsewhere.
        let mut touched = std::mem::take(&mut self.scratch);
        touched.clear();
        // detlint: allow(D2) — only fills `touched`, which is sorted and deduped below
        for objs in self.waits_of.values() {
            touched.extend(objs.iter().copied());
        }
        touched.sort_unstable();
        touched.dedup();
        for &obj in &touched {
            let Some(entry) = self.objects.get_mut(obj) else {
                continue;
            };
            for w in entry.waiters.iter() {
                if w.deadline < now {
                    expired.push((obj, *w));
                }
            }
            entry.waiters.retain(|w| w.deadline >= now);
        }
        for &(obj, w) in expired.iter() {
            let waits = (&mut self.waits_of, &mut self.spare_waits);
            Self::forget_wait_one(waits, w.owner, obj);
        }
        for &obj in &touched {
            let g = self.promote(obj);
            self.objects.reclaim(obj);
            if !g.is_empty() {
                grants.push((obj, g));
            }
        }
        touched.clear();
        self.scratch = touched;
    }

    /// Promotes the longest grantable prefix of the wait queue.
    fn promote(&mut self, object: ObjectId) -> Grants<O> {
        let Some(entry) = self.objects.get_mut(object) else {
            return Grants::new();
        };
        let mut granted = Grants::new();
        while let Some(head) = entry.waiters.first().copied() {
            // Upgrade waiter: grantable when it is the sole holder.
            if let Some(held) = entry.holder_mode(head.owner) {
                let sole = entry.sole_holder(head.owner);
                if sole && held == LockMode::Shared && head.mode == LockMode::Exclusive {
                    entry.set_mode(head.owner, LockMode::Exclusive);
                    entry.waiters.remove(0);
                    let waits = (&mut self.waits_of, &mut self.spare_waits);
                    Self::forget_wait_one(waits, head.owner, object);
                    granted.push(Waiter {
                        upgrade: true,
                        ..head
                    });
                    continue;
                }
                break;
            }
            if !entry.has_conflict(head.owner, head.mode) {
                let index = (&mut self.held_by, &mut self.spare_rows);
                Self::hold(index, entry, object, head.owner, head.mode);
                entry.waiters.remove(0);
                let waits = (&mut self.waits_of, &mut self.spare_waits);
                Self::forget_wait_one(waits, head.owner, object);
                granted.push(head);
            } else {
                break;
            }
        }
        granted
    }

    /// Current holders of `object` with their modes, in grant order.
    pub fn holders(&self, object: ObjectId) -> impl Iterator<Item = (O, LockMode)> + '_ {
        self.entry(object)
            .into_iter()
            .flat_map(|e| e.holders.iter().map(|h| (h.owner, h.mode)))
    }

    /// The mode `owner` holds on `object`, if any.
    #[must_use]
    pub fn held_mode(&self, object: ObjectId, owner: O) -> Option<LockMode> {
        self.entry(object).and_then(|e| e.holder_mode(owner))
    }

    /// Holders whose locks conflict with a hypothetical request, in grant
    /// order: the holders a caller hands [`would_deadlock`](Self::would_deadlock)
    /// before it queues the request (CE's and a client's deadlock checks).
    pub fn conflicting_holders(
        &self,
        object: ObjectId,
        owner: O,
        mode: LockMode,
    ) -> impl Iterator<Item = O> + '_ {
        self.entry(object)
            .into_iter()
            .flat_map(move |e| e.conflicts_with(owner, mode))
    }

    /// True if queueing `waiter` behind `holders` would close a wait-for
    /// cycle: some holder (or `waiter` itself) reaches `waiter` along the
    /// waits this table records. An owner waits for the holders that
    /// conflict with each request it has queued, so the relation is read
    /// off the queues as they stand rather than kept beside them. Only
    /// holders count: a request queued ahead is not a wait, so a deadlock
    /// through queue order alone is left to the deadline sweep.
    #[must_use]
    pub fn would_deadlock(&self, waiter: O, holders: impl IntoIterator<Item = O>) -> bool {
        let mut walk = self.walk.borrow_mut();
        let Walk { seen, stack } = &mut *walk;
        seen.clear();
        stack.clear();
        stack.extend(holders);
        // A path that ends at `waiter` ends with a request queued on an
        // object `waiter` holds. When it holds fewer objects than there
        // are waiting owners to walk (a transaction being submitted, behind
        // a backlog), looking at those objects rules a cycle out cheaper.
        let held = self.held_by.get(&waiter);
        if held.map_or(0, InlineVec::len) <= self.waits_of.len() {
            let mut held = held.into_iter().flat_map(InlineVec::iter);
            if !held.any(|&o| self.entry(o).is_some_and(|e| !e.waiters.is_empty())) {
                return stack.contains(&waiter);
            }
        }
        while let Some(owner) = stack.pop() {
            if owner == waiter {
                return true;
            }
            let Some(queued) = self.waits_of.get(&owner) else {
                continue; // waits for nobody
            };
            if !seen.insert(owner) {
                continue;
            }
            for entry in queued.iter().filter_map(|&object| self.entry(object)) {
                for w in entry.waiters.iter().filter(|w| w.owner == owner) {
                    stack.extend(entry.conflicts_with(owner, w.mode));
                }
            }
        }
        false
    }

    /// True if a request is queued anywhere in the table.
    #[must_use]
    pub fn has_waiters(&self) -> bool {
        !self.waits_of.is_empty()
    }

    /// The request at the head of `object`'s wait queue, if any.
    #[must_use]
    pub fn first_waiter(&self, object: ObjectId) -> Option<Waiter<O>> {
        self.entry(object).and_then(|e| e.waiters.first().copied())
    }

    /// Queued waiters on `object`, in service order.
    #[must_use]
    pub fn waiters(&self, object: ObjectId) -> Vec<Waiter<O>> {
        self.entry(object)
            .map(|e| e.waiters.to_vec())
            .unwrap_or_default()
    }

    /// Objects currently locked by `owner`.
    #[must_use]
    pub fn locks_of(&self, owner: O) -> Vec<ObjectId> {
        let mut v = self
            .held_by
            .get(&owner)
            .map(InlineVec::to_vec)
            .unwrap_or_default();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Number of objects with any lock state.
    #[must_use]
    pub fn active_objects(&self) -> usize {
        self.objects.iter().filter(|(_, e)| !e.is_unused()).count()
    }

    /// Internal consistency check (tests / debug builds): no conflicting
    /// holders coexist and the reverse index matches.
    pub fn check_invariants(&self) -> Result<(), String> {
        // The indexed objects and the free slots account for the slab.
        let Entries { slots, free, .. } = &self.objects;
        let mut indexed = 0;
        for (obj, at) in self.objects.indexed() {
            if at >= slots.len() {
                return Err(format!("{obj}: slot {at} of a slab of {}", slots.len()));
            }
            indexed += 1;
        }
        for &at in free {
            if !slots.get(at as usize).is_some_and(ObjectLocks::is_unused) {
                return Err(format!("free slot {at} is out of the slab or in use"));
            }
        }
        if indexed + free.len() != slots.len() {
            let (free, slots) = (free.len(), slots.len());
            return Err(format!(
                "{indexed} indexed objects and {free} free slots in a slab of {slots}"
            ));
        }
        let mut held = 0;
        for (obj, e) in self.objects.iter() {
            // Borrowed: debug runs check this inside their allocation budgets.
            for (i, x) in e.holders.iter().enumerate() {
                for y in e.holders.iter().skip(i + 1) {
                    if x.owner == y.owner {
                        return Err(format!("{obj}: duplicate holder {:?}", x.owner));
                    }
                    if !x.mode.compatible_with(y.mode) {
                        return Err(format!(
                            "{obj}: conflicting holders {:?}:{} and {:?}:{}",
                            x.owner, x.mode, y.owner, y.mode
                        ));
                    }
                }
            }
            for h in e.holders.iter() {
                let indexed = self
                    .held_by
                    .get(&h.owner)
                    .and_then(|v| v.get(h.slot as usize));
                if indexed != Some(&obj) {
                    return Err(format!(
                        "{obj}: holder {:?} says slot {} of the owner index, which has {indexed:?}",
                        h.owner, h.slot
                    ));
                }
            }
            held += e.holders.len();
            for w in e.waiters.iter() {
                let indexed = self
                    .waits_of
                    .get(&w.owner)
                    .map_or(0, |v| v.iter().filter(|&&x| x == obj).count());
                let queued = e.waiters.iter().filter(|x| x.owner == w.owner).count();
                if indexed != queued {
                    return Err(format!(
                        "{obj}: waiter {:?} indexed {indexed}x but queued {queued}x",
                        w.owner
                    ));
                }
            }
        }
        // No stale entries: every holder vouched for one distinct entry of
        // the owner index above, so equal counts leave none over.
        // detlint: allow(D2) — `.sum()` of lengths is an order-free fold
        let indexed: usize = self.held_by.values().map(InlineVec::len).sum();
        if indexed != held {
            return Err(format!("{indexed} owner index entries for {held} holders"));
        }
        // Likewise everything in the waiting index must point at a live
        // waiter.
        // detlint: allow(D2) — validation sweep; any violation fails the
        // check regardless of visit order
        for (o, objs) in &self.waits_of {
            if objs.is_empty() {
                return Err(format!("empty waits_of entry for {o:?}"));
            }
            for &obj in objs.iter() {
                let live = self
                    .entry(obj)
                    .is_some_and(|e| e.waiters.iter().any(|w| w.owner == *o));
                if !live {
                    return Err(format!("stale waits_of entry {o:?} -> {obj}"));
                }
            }
        }
        Ok(())
    }
}

impl<O: LockOwner> Default for LockTable<O> {
    fn default() -> Self {
        LockTable::new(QueueDiscipline::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_types::ClientId;
    use LockMode::{Exclusive, Shared};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn table() -> LockTable<ClientId> {
        LockTable::new(QueueDiscipline::Fifo)
    }

    const A: ClientId = ClientId(0);
    const B: ClientId = ClientId(1);
    const C: ClientId = ClientId(2);
    const OBJ: ObjectId = ObjectId(7);

    #[test]
    fn shared_locks_coexist() {
        let mut lt = table();
        assert!(lt.request(OBJ, A, Shared, t(10)).is_granted());
        assert!(lt.request(OBJ, B, Shared, t(10)).is_granted());
        assert_eq!(lt.holders(OBJ).count(), 2);
        lt.check_invariants().unwrap();
    }

    #[test]
    fn exclusive_blocks_everyone() {
        let mut lt = table();
        assert!(lt.request(OBJ, A, Exclusive, t(10)).is_granted());
        let r = lt.request(OBJ, B, Shared, t(10));
        assert_eq!(r, Acquire::Blocked { behind: A });
        let r = lt.request(OBJ, C, Exclusive, t(10));
        assert!(matches!(r, Acquire::Blocked { .. }));
        lt.check_invariants().unwrap();
    }

    #[test]
    fn already_held_and_covering() {
        let mut lt = table();
        lt.request(OBJ, A, Exclusive, t(10));
        assert_eq!(lt.request(OBJ, A, Shared, t(10)), Acquire::AlreadyHeld);
        assert_eq!(lt.request(OBJ, A, Exclusive, t(10)), Acquire::AlreadyHeld);
    }

    #[test]
    fn sole_holder_upgrade_is_immediate() {
        let mut lt = table();
        lt.request(OBJ, A, Shared, t(10));
        assert_eq!(lt.request(OBJ, A, Exclusive, t(10)), Acquire::Upgraded);
        assert_eq!(lt.held_mode(OBJ, A), Some(Exclusive));
    }

    #[test]
    fn contended_upgrade_waits_then_wins() {
        let mut lt = table();
        lt.request(OBJ, A, Shared, t(10));
        lt.request(OBJ, B, Shared, t(10));
        let r = lt.request(OBJ, A, Exclusive, t(10));
        assert_eq!(r, Acquire::Blocked { behind: B });
        let granted = lt.release(OBJ, B);
        assert_eq!(granted.len(), 1);
        assert_eq!(granted.get_copy(0).owner, A);
        assert_eq!(lt.held_mode(OBJ, A), Some(Exclusive));
        lt.check_invariants().unwrap();
    }

    #[test]
    fn release_promotes_fifo_order() {
        let mut lt = table();
        lt.request(OBJ, A, Exclusive, t(10));
        lt.request(OBJ, B, Exclusive, t(10));
        lt.request(OBJ, C, Exclusive, t(5));
        let granted = lt.release(OBJ, A);
        // FIFO: B first even though C has an earlier deadline.
        assert_eq!(granted.len(), 1);
        assert_eq!(granted.get_copy(0).owner, B);
    }

    #[test]
    fn deadline_discipline_orders_by_deadline() {
        let mut lt: LockTable<ClientId> = LockTable::new(QueueDiscipline::Deadline);
        lt.request(OBJ, A, Exclusive, t(10));
        lt.request(OBJ, B, Exclusive, t(20));
        lt.request(OBJ, C, Exclusive, t(5));
        let granted = lt.release(OBJ, A);
        assert_eq!(granted.get_copy(0).owner, C);
    }

    #[test]
    fn release_grants_batch_of_readers() {
        let mut lt = table();
        lt.request(OBJ, A, Exclusive, t(10));
        lt.request(OBJ, B, Shared, t(10));
        lt.request(OBJ, C, Shared, t(10));
        let granted = lt.release(OBJ, A);
        assert_eq!(granted.len(), 2);
        assert_eq!(lt.holders(OBJ).count(), 2);
        lt.check_invariants().unwrap();
    }

    #[test]
    fn new_reader_does_not_starve_queued_writer() {
        let mut lt = table();
        lt.request(OBJ, A, Shared, t(10));
        lt.request(OBJ, B, Exclusive, t(10)); // queued
        let r = lt.request(OBJ, C, Shared, t(10));
        assert!(
            matches!(r, Acquire::Blocked { .. }),
            "reader must queue behind writer"
        );
        let g = lt.release(OBJ, A);
        assert_eq!(g.get_copy(0).owner, B);
        let g = lt.release(OBJ, B);
        assert_eq!(g.get_copy(0).owner, C);
    }

    #[test]
    fn downgrade_unblocks_readers() {
        let mut lt = table();
        lt.request(OBJ, A, Exclusive, t(10));
        lt.request(OBJ, B, Shared, t(10));
        let granted = lt.downgrade(OBJ, A);
        assert_eq!(granted.len(), 1);
        assert_eq!(granted.get_copy(0).owner, B);
        assert_eq!(lt.held_mode(OBJ, A), Some(Shared));
        assert_eq!(lt.held_mode(OBJ, B), Some(Shared));
        lt.check_invariants().unwrap();
    }

    #[test]
    fn downgrade_of_shared_is_noop() {
        let mut lt = table();
        lt.request(OBJ, A, Shared, t(10));
        assert!(lt.downgrade(OBJ, A).is_empty());
        assert_eq!(lt.held_mode(OBJ, A), Some(Shared));
    }

    #[test]
    fn cancel_wait_removes_and_promotes() {
        let mut lt = table();
        lt.request(OBJ, A, Shared, t(10));
        lt.request(OBJ, B, Exclusive, t(10));
        lt.request(OBJ, C, Shared, t(10));
        let (removed, granted) = lt.cancel_wait(OBJ, B);
        assert!(removed);
        // C is now compatible with holder A.
        assert_eq!(granted.len(), 1);
        assert_eq!(granted.get_copy(0).owner, C);
        let (removed, _) = lt.cancel_wait(OBJ, B);
        assert!(!removed);
    }

    #[test]
    fn cancel_expired_prunes_old_deadlines() {
        let mut lt = table();
        lt.request(OBJ, A, Exclusive, t(100));
        lt.request(OBJ, B, Exclusive, t(5));
        lt.request(OBJ, C, Exclusive, t(50));
        let (mut expired, mut grants) = (Vec::new(), Vec::new());
        lt.cancel_expired_into(t(10), &mut expired, &mut grants);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].1.owner, B);
        assert_eq!(lt.waiters(OBJ).len(), 1);
    }

    #[test]
    fn release_all_frees_every_object() {
        let mut lt = table();
        let o1 = ObjectId(1);
        let o2 = ObjectId(2);
        lt.request(o1, A, Exclusive, t(10));
        lt.request(o2, A, Shared, t(10));
        lt.request(o1, B, Shared, t(10));
        lt.request(o2, B, Exclusive, t(10));
        let mut grants = Vec::new();
        lt.release_all_into(A, &mut grants);
        assert_eq!(grants.len(), 2);
        assert_eq!(lt.locks_of(A), Vec::<ObjectId>::new());
        assert_eq!(lt.held_mode(o1, B), Some(Shared));
        assert_eq!(lt.held_mode(o2, B), Some(Exclusive));
        lt.check_invariants().unwrap();
    }

    #[test]
    fn conflicting_holders_reports_for_h2() {
        let mut lt = table();
        lt.request(OBJ, A, Shared, t(10));
        lt.request(OBJ, B, Shared, t(10));
        assert!(lt.conflicting_holders(OBJ, C, Exclusive).eq([A, B]));
        assert_eq!(lt.conflicting_holders(OBJ, C, Shared).next(), None);
        // A requesting EL conflicts only with B.
        assert!(lt.conflicting_holders(OBJ, A, Exclusive).eq([B]));
    }

    #[test]
    fn locks_of_tracks_holdings() {
        let mut lt = table();
        lt.request(ObjectId(3), A, Shared, t(10));
        lt.request(ObjectId(1), A, Exclusive, t(10));
        assert_eq!(lt.locks_of(A), vec![ObjectId(1), ObjectId(3)]);
        lt.release(ObjectId(1), A);
        assert_eq!(lt.locks_of(A), vec![ObjectId(3)]);
    }

    #[test]
    fn empty_object_state_is_garbage_collected() {
        let mut lt = table();
        lt.request(OBJ, A, Exclusive, t(10));
        assert_eq!(lt.active_objects(), 1);
        lt.release(OBJ, A);
        assert_eq!(lt.active_objects(), 0);
    }

    #[test]
    #[should_panic(expected = "before the first request")]
    fn the_layout_is_chosen_before_the_first_request() {
        let mut lt = table();
        lt.request(OBJ, A, Shared, t(10));
        lt.reserve_objects(16);
    }

    #[test]
    fn a_cleared_dense_table_refills_from_its_pool() {
        let mut lt = table();
        lt.reserve_objects(64);
        let slab = |lt: &LockTable<ClientId>| (lt.objects.slots.len(), lt.objects.free.len());
        assert_eq!(
            lt.objects.slots.capacity(),
            64,
            "the first 64 slots are reserved"
        );
        assert_eq!(slab(&lt), (0, 0));
        // Two readers hold each object and a writer waits on it.
        let fill = |lt: &mut LockTable<ClientId>| {
            for obj in (0..200).map(ObjectId) {
                assert!(lt.request(obj, A, Shared, t(10)).is_granted());
                assert!(lt.request(obj, B, Shared, t(10)).is_granted());
                assert!(!lt.request(obj, C, Exclusive, t(10)).is_granted());
            }
        };
        fill(&mut lt);
        assert_eq!(slab(&lt), (200, 0), "one slot an object, none free");
        // Doubled from 64 to 128, then to 256: under a step, it doubles.
        assert_eq!(lt.objects.slots.capacity(), 256);
        let owners = lt.held_by.capacity();
        lt.clear();
        assert_eq!(slab(&lt), (200, 200), "every slot was freed");
        assert_eq!((lt.active_objects(), lt.has_waiters()), (0, false));
        assert_eq!(lt.locks_of(A), Vec::<ObjectId>::new());
        assert!(
            lt.held_by.capacity() >= owners,
            "the owner index kept its capacity"
        );
        assert!(
            matches!(lt.objects.index, Index::Dense(_)),
            "the layout stays dense"
        );
        lt.check_invariants().unwrap();
        fill(&mut lt);
        assert_eq!(slab(&lt), (200, 0), "the refill took every freed slot");
        assert_eq!(lt.waiters(ObjectId(0)).len(), 1);
        lt.check_invariants().unwrap();
    }

    #[test]
    fn a_large_slab_grows_a_step_at_a_time() {
        let mut lt = table();
        lt.reserve_objects(10_000);
        assert_eq!(lt.objects.slots.capacity(), FREE_POOL_SEED);
        for obj in (0..2_500).map(ObjectId) {
            assert!(lt.request(obj, A, Shared, t(10)).is_granted());
        }
        assert_eq!(lt.objects.slots.capacity(), 3 * FREE_POOL_SEED);
        assert!(lt.objects.free.capacity() >= lt.objects.slots.capacity());
        lt.check_invariants().unwrap();
    }

    #[test]
    fn release_of_unknown_is_safe() {
        let mut lt = table();
        assert!(lt.release(OBJ, A).is_empty());
        assert!(lt.downgrade(OBJ, A).is_empty());
        let mut grants = Vec::new();
        lt.release_all_into(A, &mut grants);
        assert!(grants.is_empty());
    }

    #[test]
    fn release_by_a_hoarding_owner_inspects_only_that_objects_holders() {
        let mut lt = table();
        for i in 0..1_000 {
            assert!(lt.request(ObjectId(i), A, Shared, t(10)).is_granted());
        }
        // Two more holders on the object released, one more on the object
        // whose index entry takes over the vacated slot (the last granted).
        assert!(lt.request(ObjectId(500), B, Shared, t(10)).is_granted());
        assert!(lt.request(ObjectId(500), C, Shared, t(10)).is_granted());
        assert!(lt.request(ObjectId(999), B, Shared, t(10)).is_granted());
        assert_eq!(lt.visits.get(), 0, "granting inspects no index");
        lt.release(ObjectId(500), A);
        assert_eq!(
            lt.visits.get(),
            1 + 2,
            "A came first of 500's three holders"
        );
        lt.release(ObjectId(500), C);
        assert_eq!(
            lt.visits.get(),
            3 + 2,
            "C held nothing else: no entry moved"
        );
        assert_eq!(lt.locks_of(A).len(), 999);
        // Releasing the last-indexed object moves nothing either.
        lt.release(ObjectId(998), A);
        assert_eq!(lt.visits.get(), 5 + 1);
        lt.check_invariants().unwrap();
    }
}
