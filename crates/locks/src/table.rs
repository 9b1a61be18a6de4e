//! A strict-2PL lock table with shared/exclusive modes, upgrades, downgrades
//! and configurable waiter ordering.
//!
//! Per-object state is boxed, and the boxes live in one of two layouts:
//!
//! * **Dense**, a slab indexed by `ObjectId`, for the server's table, which
//!   sees every object of the paper's 10 000-object database sooner or
//!   later: a bounds-checked vector index replaces a hash and probe on
//!   every request, release and promotion.
//! * **Compact**, the objects with lock state only, found through a
//!   [`SlotIndex`], for a client's local table, which locks a few objects
//!   of that database at a time: its memory follows what the client has
//!   locked, not the largest id it ever touched.
//!
//! A table starts compact; [`LockTable::reserve_objects`], which the server
//! calls with the database size, is the one place that selects the dense
//! layout. In both, an object whose state empties out returns its box to a
//! recycling pool, so live boxes track the *concurrently* locked set and
//! steady-state first-touch requests pop a warm box instead of allocating.
//! Holder and waiter lists use [`InlineVec`] so the common one- or
//! two-entry case never touches the heap. A crash forgets the whole table
//! through [`LockTable::clear`], which sends every box back to the pool
//! with its lists' spills and keeps the layout, so a restarted site
//! refills the table from the pool instead of allocating a box an object.

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
    /// The request conflicts and was queued behind the listed holders.
    Blocked {
        /// Current holders whose locks conflict with the request.
        conflicts: Conflicts<O>,
    },
}

/// The owners a blocked request waits behind: almost always one exclusive
/// holder or a couple of readers, so the list lives inline.
pub type Conflicts<O> = InlineVec<O, 4>;
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

/// Upper bound on how many per-object boxes [`LockTable::reserve_objects`]
/// pre-loads into the recycling pool. The pool only has to cover objects
/// locked *concurrently* — bounded by in-flight transactions times accesses
/// per transaction, far below the database size — so seeding is capped well
/// under the paper's 10 000-object database.
const FREE_POOL_SEED: usize = 1024;

/// A table's per-object state, in the layout
/// [`LockTable::reserve_objects`] selects.
#[derive(Debug)]
enum Entries<O> {
    /// Indexed by object id: `None` where an object has no state.
    Dense(Vec<Option<Box<ObjectLocks<O>>>>),
    /// The objects with state, in no particular order, and where each sits.
    Compact {
        index: SlotIndex,
        live: Vec<(ObjectId, Box<ObjectLocks<O>>)>,
    },
}

impl<O: LockOwner> Entries<O> {
    fn get(&self, object: ObjectId) -> Option<&ObjectLocks<O>> {
        match self {
            Entries::Dense(slab) => slab.get(object.index() as usize)?.as_deref(),
            Entries::Compact { index, live } => Some(&*live.get(index.get(object)? as usize)?.1),
        }
    }

    fn get_mut(&mut self, object: ObjectId) -> Option<&mut ObjectLocks<O>> {
        match self {
            Entries::Dense(slab) => slab.get_mut(object.index() as usize)?.as_deref_mut(),
            Entries::Compact { index, live } => {
                Some(&mut *live.get_mut(index.get(object)? as usize)?.1)
            }
        }
    }

    /// `object`'s state, filled from the recycling pool if it has none (a
    /// dense slab grows on demand).
    fn get_or_insert(
        &mut self,
        object: ObjectId,
        free: &mut Vec<Box<ObjectLocks<O>>>,
    ) -> &mut ObjectLocks<O> {
        match self {
            Entries::Dense(slab) => {
                let idx = object.index() as usize;
                if idx >= slab.len() {
                    slab.resize_with(idx + 1, || None);
                }
                slab[idx].get_or_insert_with(|| free.pop().unwrap_or_default())
            }
            Entries::Compact { index, live } => {
                // Lossless: at most one entry per `u32` object id.
                let at = match index.get_or_insert(object, live.len() as u32) {
                    Some(at) => at as usize,
                    None => {
                        live.push((object, free.pop().unwrap_or_default()));
                        live.len() - 1
                    }
                };
                // detlint: allow(D9) — the index holds positions in `live`, and a new one was just pushed
                &mut live[at].1
            }
        }
    }

    /// Takes out `object`'s state if it has some and no holder or waiter
    /// is left in it.
    fn take_unused(&mut self, object: ObjectId) -> Option<Box<ObjectLocks<O>>> {
        match self {
            Entries::Dense(slab) => {
                let slot = slab.get_mut(object.index() as usize)?;
                if slot.as_deref().is_some_and(ObjectLocks::is_unused) {
                    slot.take()
                } else {
                    None
                }
            }
            Entries::Compact { index, live } => {
                let at = index.get(object)? as usize;
                if !live.get(at)?.1.is_unused() {
                    return None;
                }
                index.remove(object);
                let (_, boxed) = live.swap_remove(at);
                if let Some(&(moved, _)) = live.get(at) {
                    index.insert(moved, at as u32);
                }
                Some(boxed)
            }
        }
    }

    /// Every object with state and its state, in no particular order.
    fn iter(&self) -> impl Iterator<Item = (ObjectId, &ObjectLocks<O>)> {
        let (dense, compact) = match self {
            Entries::Dense(slab) => (Some(slab), None),
            Entries::Compact { live, .. } => (None, Some(live)),
        };
        let dense = dense.into_iter().flat_map(|slab| {
            slab.iter()
                .enumerate()
                .filter_map(|(i, e)| Some((ObjectId(i as u32), e.as_deref()?)))
        });
        let compact = compact
            .into_iter()
            .flat_map(|live| live.iter().map(|(id, e)| (*id, &**e)));
        dense.chain(compact)
    }
}

/// The objects each owner holds, in no particular order: every holder
/// entry carries its object's position here.
type HeldBy<O> = HashMap<O, HeldRow, FixedState>;
/// One owner's row of [`HeldBy`].
type HeldRow = InlineVec<ObjectId, 16>;

/// Scratch of [`LockTable::would_deadlock`], cleared but never shrunk: the
/// owners expanded so far and those still to visit.
#[derive(Debug)]
struct Walk<O> {
    seen: HashSet<O, FixedState>,
    stack: Vec<O>,
}

/// Waiters cancelled by [`LockTable::cancel_expired`], tagged by object.
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
/// Object state lives in the compact layout, which holds the objects with
/// lock state only, until [`reserve_objects`](Self::reserve_objects)
/// selects the dense one, a slab indexed by object id (see the
/// [module docs](self)). Either way an emptied object's box is recycled
/// through a free pool. A table never locks `ObjectId(u32::MAX)`: the
/// compact layout's index reserves it.
#[derive(Debug)]
pub struct LockTable<O> {
    discipline: QueueDiscipline,
    objects: Entries<O>,
    // Retired per-object state, recycled by the next first-touch request.
    // An object whose holders and waiters both empty out returns its box
    // here, so live boxes stay proportional to the *concurrently* locked
    // set (not every object ever touched) and steady-state requests never
    // allocate: they pop a warm box instead.
    free: Vec<Box<ObjectLocks<O>>>,
    // Both owner maps hash with `FixedState`: owners are program-generated
    // ids, and a process-random hasher would move the maps' rehash points
    // (and so the engine's allocation counts) from run to run.
    held_by: HeldBy<O>,
    // Emptied rows of `held_by` that had spilled to the heap. A crash's
    // `clear` and `release_all` hand them back and `hold` draws on them,
    // so a table refilled after a restart regrows no row; the rows of
    // owners that are gone are not kept in the index to get this.
    spare_rows: Vec<HeldRow>,
    // Reverse index of queued waiters (multiset: one entry per queued
    // waiter), so release_all never has to scan the whole slab for an
    // owner's pending requests.
    waits_of: HashMap<O, InlineVec<ObjectId, 4>, FixedState>,
    // Recycled between release_all / cancel_expired calls so the per-
    // transaction cleanup path stays allocation-free at steady state.
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
            objects: Entries::Compact {
                index: SlotIndex::new(),
                live: Vec::new(),
            },
            free: Vec::new(),
            held_by: HashMap::default(),
            spare_rows: Vec::new(),
            waits_of: HashMap::default(),
            scratch: Vec::new(),
            walk: RefCell::new(Walk { seen: HashSet::default(), stack: Vec::new() }),
            next_seq: 0,
            #[cfg(test)]
            visits: std::cell::Cell::new(0),
        }
    }

    /// Removes one instance of `object` from `owner`'s waiting index.
    fn forget_wait_one(
        waits_of: &mut HashMap<O, InlineVec<ObjectId, 4>, FixedState>,
        owner: O,
        object: ObjectId,
    ) {
        if let Some(v) = waits_of.get_mut(&owner) {
            let pos = v.iter().position(|&o| o == object);
            if let Some(pos) = pos {
                v.remove(pos);
            }
            if v.is_empty() {
                waits_of.remove(&owner);
            }
        }
    }

    /// Removes every instance of `object` from `owner`'s waiting index
    /// (the counterpart of a `retain` that drops all of the owner's
    /// waiters on that object).
    fn forget_wait_all(
        waits_of: &mut HashMap<O, InlineVec<ObjectId, 4>, FixedState>,
        owner: O,
        object: ObjectId,
    ) {
        if let Some(v) = waits_of.get_mut(&owner) {
            v.retain(|&o| o != object);
            if v.is_empty() {
                waits_of.remove(&owner);
            }
        }
    }

    /// Selects the dense layout, pre-sized for object ids `0..n`, and
    /// seeds the recycling pool, so first-touch lock requests mid-run
    /// neither grow the slab nor allocate per-object state. The server,
    /// whose table sees the whole database, calls this at setup; a table
    /// that never calls it stays compact, sized to what it has locked. The
    /// slab still grows on demand past `n`, and the pool is capacity rather
    /// than a limit — a workload that pins more objects at once than the
    /// seed simply allocates the excess on demand.
    ///
    /// # Panics
    ///
    /// If the table is compact and already holds lock state: the layout is
    /// chosen before the first request.
    pub fn reserve_objects(&mut self, n: usize) {
        if let Entries::Compact { live, .. } = &self.objects {
            assert!(
                live.is_empty(),
                "reserve_objects comes before the first request"
            );
            self.objects = Entries::Dense(Vec::new());
        }
        if let Entries::Dense(slab) = &mut self.objects {
            if slab.len() < n {
                slab.resize_with(n, || None);
            }
        }
        let seed = n.min(FREE_POOL_SEED);
        while self.free.len() < seed {
            self.free.push(Box::default());
        }
    }

    /// Forgets every lock and waiter, as a crash does, but keeps what the
    /// table allocated: each object's box goes back to the recycling pool
    /// with its holder and waiter spills, and the layout's slab or
    /// [`SlotIndex`], the owner indexes' hash tables and the scratch keep
    /// their capacity (each owner's row of the index goes). The table then
    /// answers as a new one with the same layout, and refilling it to its
    /// old size takes every box from the pool.
    pub fn clear(&mut self) {
        let free = &mut self.free;
        let mut recycle = |mut boxed: Box<ObjectLocks<O>>| {
            boxed.clear();
            free.push(boxed);
        };
        match &mut self.objects {
            Entries::Dense(slab) => slab.iter_mut().filter_map(Option::take).for_each(recycle),
            Entries::Compact { index, live } => {
                index.clear();
                live.drain(..).for_each(|(_, boxed)| recycle(boxed));
            }
        }
        // detlint: allow(D2) — the order only picks which spare a later owner draws; `FixedState` fixes it
        for (_, row) in self.held_by.drain() {
            Self::spare(&mut self.spare_rows, row);
        }
        self.waits_of.clear();
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

    /// Keeps an emptied owner row for reuse if it owns heap capacity.
    fn spare(spare_rows: &mut Vec<HeldRow>, mut row: HeldRow) {
        if row.spilled() {
            row.clear();
            spare_rows.push(row);
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

    /// Returns an emptied object's box to the recycling pool.
    fn reclaim(&mut self, object: ObjectId) {
        if let Some(boxed) = self.objects.take_unused(object) {
            self.free.push(boxed);
        }
    }

    /// Requests `mode` on `object` for `owner`.
    ///
    /// `deadline` orders the wait queue under
    /// [`QueueDiscipline::Deadline`]; it is remembered either way so
    /// callers can prune expired waiters with
    /// [`cancel_expired`](Self::cancel_expired).
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
        // Borrows the entries and the pool alone, so the owner indexes can
        // be updated with the entry in hand. A fresh object's state comes
        // from the pool: inside a pre-seeded table it costs no allocation.
        let entry = self.objects.get_or_insert(object, &mut self.free);

        if let Some(held) = entry.holder_mode(owner) {
            if held.covers(mode) {
                return Acquire::AlreadyHeld;
            }
            // Upgrade SL -> EL: immediate only as the sole holder.
            if entry.sole_holder(owner) {
                entry.set_mode(owner, LockMode::Exclusive);
                return Acquire::Upgraded;
            }
            let others: Conflicts<O> = entry
                .holders
                .iter()
                .filter(|h| h.owner != owner)
                .map(|h| h.owner)
                .collect();
            let waiter = Waiter {
                owner,
                mode,
                deadline,
                upgrade: false,
                seq,
            };
            // Upgrades go to the front of their discipline class so the
            // upgrading holder cannot deadlock behind newcomers it blocks.
            Self::insert_waiter(&mut entry.waiters, waiter, discipline, true);
            self.waits_of.entry(owner).or_default().push(object);
            return Acquire::Blocked { conflicts: others };
        }

        if !entry.has_conflict(owner, mode) && entry.waiters.is_empty() {
            let index = (&mut self.held_by, &mut self.spare_rows);
            Self::hold(index, entry, object, owner, mode);
            return Acquire::Granted;
        }
        let mut blockers: Conflicts<O> = entry.conflicts_with(owner, mode).collect();
        if blockers.is_empty() {
            // Blocked behind queued waiters rather than holders.
            blockers.extend(entry.waiters.iter().map(|w| w.owner));
        }
        let waiter = Waiter {
            owner,
            mode,
            deadline,
            upgrade: false,
            seq,
        };
        Self::insert_waiter(&mut entry.waiters, waiter, discipline, false);
        self.waits_of.entry(owner).or_default().push(object);
        Acquire::Blocked { conflicts: blockers }
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
            Self::forget_wait_all(&mut self.waits_of, owner, object);
        }
        let granted = self.promote(object);
        self.reclaim(object);
        granted
    }

    /// Releases every lock `owner` holds or awaits; returns, per object, the
    /// newly granted waiters.
    pub fn release_all(&mut self, owner: O) -> UnblockedGrants<O> {
        // Held objects first (ascending), then awaited objects (ascending),
        // matching the order of the original held-then-slab-scan walk; an
        // object appearing in both lists is processed twice, which is a
        // harmless no-op the second time. The work list is a recycled
        // scratch buffer so the common commit path never allocates.
        let mut work = std::mem::take(&mut self.scratch);
        work.clear();
        if let Some(held) = self.held_by.remove(&owner) {
            work.extend(held.iter().copied());
            Self::spare(&mut self.spare_rows, held);
        }
        work.sort_unstable();
        work.dedup();
        let split = work.len();
        if let Some(queued) = self.waits_of.remove(&owner) {
            work.extend(queued.iter().copied());
        }
        work[split..].sort_unstable();
        let mut out = Vec::new();
        for &obj in &work {
            if let Some(entry) = self.objects.get_mut(obj) {
                entry.holders.retain(|h| h.owner != owner);
                entry.waiters.retain(|w| w.owner != owner);
            }
            let granted = self.promote(obj);
            self.reclaim(obj);
            if !granted.is_empty() {
                out.push((obj, granted));
            }
        }
        work.clear();
        self.scratch = work;
        out
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
            Self::forget_wait_all(&mut self.waits_of, owner, object);
        }
        let granted = if removed { self.promote(object) } else { Grants::new() };
        self.reclaim(object);
        (removed, granted)
    }

    /// Drops every queued waiter whose deadline precedes `now`; returns the
    /// cancelled waiters and any grants unblocked by the pruning.
    pub fn cancel_expired(&mut self, now: SimTime) -> (ExpiredWaiters<O>, UnblockedGrants<O>) {
        let mut expired = Vec::new();
        if self.waits_of.is_empty() {
            // Nothing is blocked anywhere: the sweep is free. This is the
            // common case, and it must not walk the object slab.
            return (expired, Vec::new());
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
        for &(obj, w) in &expired {
            Self::forget_wait_one(&mut self.waits_of, w.owner, obj);
        }
        let mut grants = Vec::new();
        for &obj in &touched {
            let g = self.promote(obj);
            self.reclaim(obj);
            if !g.is_empty() {
                grants.push((obj, g));
            }
        }
        touched.clear();
        self.scratch = touched;
        (expired, grants)
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
                    Self::forget_wait_one(&mut self.waits_of, head.owner, object);
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
                Self::forget_wait_one(&mut self.waits_of, head.owner, object);
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
    /// order — the input to the paper's H2 site-selection heuristic.
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
        if let Entries::Compact { index, live } = &self.objects {
            for (at, &(obj, _)) in live.iter().enumerate() {
                let indexed = index.get(obj);
                if indexed != Some(at as u32) {
                    return Err(format!(
                        "{obj}: entry {at} of the compact layout, indexed {indexed:?}"
                    ));
                }
            }
            if index.len() != live.len() {
                let (indexed, entries) = (index.len(), live.len());
                return Err(format!("{indexed} indexed objects for {entries} entries"));
            }
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
        assert_eq!(r, Acquire::Blocked { conflicts: [A].into_iter().collect() });
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
        assert_eq!(r, Acquire::Blocked { conflicts: [B].into_iter().collect() });
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
        let (expired, _grants) = lt.cancel_expired(t(10));
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
        let grants = lt.release_all(A);
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
        assert_eq!(lt.free.len(), 64, "the pool is seeded");
        // Two readers hold each object and a writer waits on it.
        let fill = |lt: &mut LockTable<ClientId>| {
            for obj in (0..200).map(ObjectId) {
                assert!(lt.request(obj, A, Shared, t(10)).is_granted());
                assert!(lt.request(obj, B, Shared, t(10)).is_granted());
                assert!(!lt.request(obj, C, Exclusive, t(10)).is_granted());
            }
        };
        fill(&mut lt);
        assert!(
            lt.free.is_empty(),
            "64 seeded boxes and 136 new ones in use"
        );
        let owners = lt.held_by.capacity();
        lt.clear();
        assert_eq!(lt.free.len(), 200, "every box went back to the pool");
        assert_eq!((lt.active_objects(), lt.has_waiters()), (0, false));
        assert_eq!(lt.locks_of(A), Vec::<ObjectId>::new());
        assert!(
            lt.held_by.capacity() >= owners,
            "the owner index kept its capacity"
        );
        assert!(
            matches!(lt.objects, Entries::Dense(_)),
            "the layout stays dense"
        );
        lt.check_invariants().unwrap();
        fill(&mut lt);
        assert!(
            lt.free.is_empty(),
            "the refill took every box from the pool"
        );
        assert_eq!(lt.waiters(ObjectId(0)).len(), 1);
        lt.check_invariants().unwrap();
    }

    #[test]
    fn release_of_unknown_is_safe() {
        let mut lt = table();
        assert!(lt.release(OBJ, A).is_empty());
        assert!(lt.downgrade(OBJ, A).is_empty());
        assert!(lt.release_all(A).is_empty());
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
