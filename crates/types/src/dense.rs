//! Object-indexed containers for simulator hot paths.
//!
//! The paper's database is a flat array of objects numbered `0..10_000`
//! (Table 1), so per-object state in the engines is keyed by small dense
//! integers. Hashing those ids through a `HashMap` costs a SipHash round
//! plus a probe per access. Two shapes replace it here:
//!
//! * [`ObjectMap`] and [`ObjectSet`] index a `Vec` directly, growing on
//!   demand to the largest id touched. Iteration is in ascending id order,
//!   which keeps every consumer deterministic without the sort-the-keys
//!   dance `HashMap` forces. Their memory follows the largest id, so they
//!   suit state that covers the whole database (the server's) or that is
//!   one byte an id.
//! * [`SlotIndex`] maps an id to a small slot number by open addressing.
//!   Its memory follows how many ids it holds, so a client, which holds a
//!   thousand objects of a database ten times that size, keeps its
//!   per-object state in slot-numbered slabs found through one.

use crate::ids::ObjectId;

/// A map from [`ObjectId`] to `V`, stored as a dense slot vector.
///
/// Lookups are a bounds check and an index. Memory is proportional to the
/// largest id inserted, not to the number of live entries: it suits state
/// that sees every id of the database sooner or later. State that only
/// ever covers a few objects keys a slab through a [`SlotIndex`] instead.
///
/// # Example
///
/// ```
/// use siteselect_types::{ObjectId, ObjectMap};
///
/// let mut m: ObjectMap<&str> = ObjectMap::new();
/// m.insert(ObjectId(3), "three");
/// assert_eq!(m.get(ObjectId(3)), Some(&"three"));
/// assert_eq!(m.get(ObjectId(4)), None);
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMap<V> {
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V> ObjectMap<V> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        ObjectMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Creates an empty map with slots pre-allocated for ids `0..capacity`.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(capacity, || None);
        ObjectMap { slots, len: 0 }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entry is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn slot(&self, id: ObjectId) -> Option<&Option<V>> {
        self.slots.get(id.index() as usize)
    }

    fn grow_to(&mut self, id: ObjectId) -> &mut Option<V> {
        let idx = id.index() as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        &mut self.slots[idx]
    }

    /// Inserts `value` at `id`, returning the previous value if any.
    pub fn insert(&mut self, id: ObjectId, value: V) -> Option<V> {
        let slot = self.grow_to(id);
        let old = slot.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the entry at `id`.
    pub fn remove(&mut self, id: ObjectId) -> Option<V> {
        let old = self
            .slots
            .get_mut(id.index() as usize)
            .and_then(Option::take);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The entry at `id`, if live.
    #[must_use]
    pub fn get(&self, id: ObjectId) -> Option<&V> {
        self.slot(id).and_then(Option::as_ref)
    }

    /// Mutable access to the entry at `id`, if live.
    pub fn get_mut(&mut self, id: ObjectId) -> Option<&mut V> {
        self.slots
            .get_mut(id.index() as usize)
            .and_then(Option::as_mut)
    }

    /// Mutable access to the entry at `id`, inserting `V::default()` first
    /// if the slot is empty (the `entry(..).or_default()` idiom).
    pub fn get_or_default(&mut self, id: ObjectId) -> &mut V
    where
        V: Default,
    {
        let idx = id.index() as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        if self.slots[idx].is_none() {
            self.slots[idx] = Some(V::default());
            self.len += 1;
        }
        self.slots[idx].as_mut().expect("slot just filled")
    }

    /// True if `id` has a live entry.
    #[must_use]
    pub fn contains(&self, id: ObjectId) -> bool {
        self.get(id).is_some()
    }

    /// Iterates live entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (ObjectId(i as u32), v)))
    }

    /// Live ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Keeps only the entries for which `keep` returns true.
    pub fn retain(&mut self, mut keep: impl FnMut(ObjectId, &mut V) -> bool) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(v) = slot {
                if !keep(ObjectId(i as u32), v) {
                    *slot = None;
                    self.len -= 1;
                }
            }
        }
    }

    /// Drops every entry (slot storage is kept for reuse).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.len = 0;
    }
}

impl<V> Default for ObjectMap<V> {
    fn default() -> Self {
        ObjectMap::new()
    }
}

/// A set of [`ObjectId`]s, stored as a dense bit-per-object vector.
///
/// # Example
///
/// ```
/// use siteselect_types::{ObjectId, ObjectSet};
///
/// let mut s = ObjectSet::new();
/// assert!(s.insert(ObjectId(7)));
/// assert!(!s.insert(ObjectId(7)));
/// assert!(s.contains(ObjectId(7)));
/// assert!(s.remove(ObjectId(7)));
/// assert!(s.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjectSet {
    bits: Vec<bool>,
    len: usize,
}

impl ObjectSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        ObjectSet::default()
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the set has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `id` is a member.
    #[must_use]
    pub fn contains(&self, id: ObjectId) -> bool {
        self.bits.get(id.index() as usize).copied().unwrap_or(false)
    }

    /// Adds `id`; returns true if it was newly inserted.
    pub fn insert(&mut self, id: ObjectId) -> bool {
        let idx = id.index() as usize;
        if idx >= self.bits.len() {
            self.bits.resize(idx + 1, false);
        }
        let fresh = !self.bits[idx];
        self.bits[idx] = true;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `id`; returns true if it was a member.
    pub fn remove(&mut self, id: ObjectId) -> bool {
        match self.bits.get_mut(id.index() as usize) {
            Some(b) if *b => {
                *b = false;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(ObjectId(i as u32)))
    }

    /// Removes every member (bit storage is kept for reuse).
    pub fn clear(&mut self) {
        self.bits.fill(false);
        self.len = 0;
    }
}

/// Key of an empty [`SlotIndex`] bucket. No object has this id: ids are
/// `u32` and a database holds at most `u32::MAX` objects, numbered from 0.
const VACANT: u32 = u32::MAX;

/// 2^64 divided by the golden ratio: multiplying by it spreads consecutive
/// ids over the whole word (Fibonacci hashing).
const FIBONACCI: u64 = 0x9e37_79b9_7f4a_7c15;

/// Fewest buckets a non-empty index has.
const MIN_BUCKETS: usize = 8;

/// A map from [`ObjectId`] to a `u32` slot number, by open addressing.
///
/// Buckets hold `(id, slot)` pairs and are probed linearly from the id's
/// Fibonacci hash; a removal shifts the rest of its probe run back, so no
/// tombstones build up. The table stays at most half full, doubling when
/// an insert would pass that: the database's ids are consecutive, and
/// Fibonacci hashing spreads a run of consecutive ids over a table twice
/// its size with few collisions, so most lookups read one bucket. An index made by
/// [`with_capacity(n)`](Self::with_capacity) holds `n` ids without
/// growing, so a slab of `n` slots found through it never touches the
/// allocator after construction. Memory is proportional to the number of
/// ids held, whatever their values.
///
/// `ObjectId(u32::MAX)` marks an empty bucket and cannot be inserted.
///
/// # Example
///
/// ```
/// use siteselect_types::{ObjectId, SlotIndex};
///
/// let mut index = SlotIndex::with_capacity(2);
/// assert_eq!(index.insert(ObjectId(9_999), 0), None);
/// assert_eq!(index.insert(ObjectId(3), 1), None);
/// assert_eq!(index.get(ObjectId(9_999)), Some(0));
/// assert_eq!(index.remove(ObjectId(9_999)), Some(0));
/// assert_eq!(index.get(ObjectId(9_999)), None);
/// assert_eq!(index.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SlotIndex {
    /// `(id, slot)` pairs, `VACANT` ids marking empty buckets; none, or a
    /// power of two of them.
    buckets: Vec<(u32, u32)>,
    /// `64 - log2(buckets.len())`: a hash's top bits pick its home bucket.
    shift: u32,
    len: usize,
}

impl SlotIndex {
    /// Creates an empty index. It allocates on its first insert.
    #[must_use]
    pub fn new() -> Self {
        SlotIndex::default()
    }

    /// Creates an empty index that holds `n` ids without growing.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        let mut index = SlotIndex::new();
        if n > 0 {
            index.rebuild(n.saturating_mul(2).next_power_of_two().max(MIN_BUCKETS));
        }
        index
    }

    /// Number of ids held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no id is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    /// The bucket `id`'s probe run starts at.
    #[inline]
    fn home(&self, id: u32) -> usize {
        // Lossless: the shift leaves at most log2(buckets.len()) bits.
        (u64::from(id).wrapping_mul(FIBONACCI) >> self.shift) as usize
    }

    /// The bucket holding `id`, or else the empty bucket that ends its
    /// probe run. The table must have buckets.
    #[inline]
    fn probe(&self, id: u32) -> Result<usize, usize> {
        let mask = self.mask();
        let mut at = self.home(id);
        loop {
            // Vacant first: a lookup of `VACANT` itself must miss.
            match self.buckets[at].0 {
                VACANT => return Err(at),
                key if key == id => return Ok(at),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// The bucket holding `id`, if any.
    #[inline]
    fn find(&self, id: ObjectId) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        self.probe(id.index()).ok()
    }

    /// The slot recorded for `id`, if any.
    #[must_use]
    #[inline]
    pub fn get(&self, id: ObjectId) -> Option<u32> {
        self.find(id).map(|at| self.buckets[at].1)
    }

    /// Records `slot` for `id`, returning the slot it replaced.
    ///
    /// # Panics
    ///
    /// If `id` is `ObjectId(u32::MAX)`, the empty-bucket marker.
    #[inline]
    pub fn insert(&mut self, id: ObjectId, slot: u32) -> Option<u32> {
        match self.search(id) {
            Ok(at) => Some(std::mem::replace(&mut self.buckets[at].1, slot)),
            Err(vacant) => {
                self.fill(vacant, id.index(), slot);
                None
            }
        }
    }

    /// The slot recorded for `id`; if there is none, records `slot` and
    /// returns `None`. One probe run either way, where a
    /// [`get`](Self::get) then an [`insert`](Self::insert) take two.
    ///
    /// # Panics
    ///
    /// If `id` is `ObjectId(u32::MAX)`, the empty-bucket marker.
    #[inline]
    pub fn get_or_insert(&mut self, id: ObjectId, slot: u32) -> Option<u32> {
        match self.search(id) {
            Ok(at) => Some(self.buckets[at].1),
            Err(vacant) => {
                self.fill(vacant, id.index(), slot);
                None
            }
        }
    }

    /// [`probe`](Self::probe) for an id about to be recorded.
    #[inline]
    fn search(&mut self, id: ObjectId) -> Result<usize, usize> {
        let id = id.index();
        assert_ne!(id, VACANT, "ObjectId(u32::MAX) cannot be indexed");
        if self.buckets.is_empty() {
            self.rebuild(MIN_BUCKETS);
        }
        self.probe(id)
    }

    /// Records a new id in `vacant`, the empty bucket its search ended at,
    /// or, if that would fill the table past half, in a table of twice the
    /// size.
    #[inline]
    fn fill(&mut self, vacant: usize, id: u32, slot: u32) {
        self.len += 1;
        if self.len * 2 > self.buckets.len() {
            self.rebuild(self.buckets.len() * 2);
            self.place(id, slot);
        } else {
            self.buckets[vacant] = (id, slot);
        }
    }

    /// Puts an id that is not in the table at the end of its probe run.
    fn place(&mut self, id: u32, slot: u32) {
        if let Err(vacant) = self.probe(id) {
            self.buckets[vacant] = (id, slot);
        }
    }

    /// Moves every id into a table of `buckets` buckets.
    fn rebuild(&mut self, buckets: usize) {
        let old = std::mem::replace(&mut self.buckets, vec![(VACANT, 0); buckets]);
        self.shift = 64 - buckets.trailing_zeros();
        for (id, slot) in old.into_iter().filter(|&(id, _)| id != VACANT) {
            self.place(id, slot);
        }
    }

    /// Forgets every id, keeping the buckets: refilling the index to its
    /// old size allocates nothing.
    pub fn clear(&mut self) {
        self.buckets.fill((VACANT, 0));
        self.len = 0;
    }

    /// Forgets `id`, returning its slot.
    #[inline]
    pub fn remove(&mut self, id: ObjectId) -> Option<u32> {
        let mut hole = self.find(id)?;
        let slot = self.buckets[hole].1;
        self.len -= 1;
        // Backward-shift delete: every later member of the probe run that
        // may sit at the hole (its home is not between the hole and it)
        // moves into it, and leaves its own bucket as the next hole.
        let mask = self.mask();
        let mut at = (hole + 1) & mask;
        loop {
            let key = self.buckets[at].0;
            if key == VACANT {
                break;
            }
            let probed = at.wrapping_sub(self.home(key)) & mask;
            if probed >= at.wrapping_sub(hole) & mask {
                self.buckets[hole] = self.buckets[at];
                hole = at;
            }
            at = (at + 1) & mask;
        }
        self.buckets[hole] = (VACANT, 0);
        Some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_insert_get_remove_roundtrip() {
        let mut m = ObjectMap::new();
        assert_eq!(m.insert(ObjectId(5), 50), None);
        assert_eq!(m.insert(ObjectId(5), 55), Some(50));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(ObjectId(5)), Some(&55));
        assert_eq!(m.remove(ObjectId(5)), Some(55));
        assert_eq!(m.remove(ObjectId(5)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn map_out_of_range_reads_are_safe() {
        let m: ObjectMap<u8> = ObjectMap::with_capacity(4);
        assert_eq!(m.get(ObjectId(1_000_000)), None);
        assert!(!m.contains(ObjectId(9)));
    }

    #[test]
    fn map_iterates_in_id_order() {
        let mut m = ObjectMap::new();
        for id in [9, 2, 7, 0] {
            m.insert(ObjectId(id), id);
        }
        let keys: Vec<u32> = m.keys().map(|k| k.0).collect();
        assert_eq!(keys, vec![0, 2, 7, 9]);
    }

    #[test]
    fn map_get_or_default_inserts_once() {
        let mut m: ObjectMap<Vec<u8>> = ObjectMap::new();
        m.get_or_default(ObjectId(3)).push(1);
        m.get_or_default(ObjectId(3)).push(2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(ObjectId(3)), Some(&vec![1, 2]));
    }

    #[test]
    fn map_retain_and_clear_track_len() {
        let mut m = ObjectMap::new();
        for id in 0..6u32 {
            m.insert(ObjectId(id), id);
        }
        m.retain(|_, v| *v % 2 == 0);
        assert_eq!(m.len(), 3);
        assert_eq!(m.keys().count(), 3);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn set_semantics() {
        let mut s = ObjectSet::new();
        assert!(s.insert(ObjectId(3)));
        assert!(s.insert(ObjectId(1)));
        assert!(!s.insert(ObjectId(3)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![ObjectId(1), ObjectId(3)]);
        assert!(s.remove(ObjectId(1)));
        assert!(!s.remove(ObjectId(1)));
        assert!(!s.remove(ObjectId(99)));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn slot_index_delete_inside_a_run_that_wraps_the_table() {
        let mut index = SlotIndex::with_capacity(4);
        let buckets = index.buckets.len();
        // Ids whose home is the last bucket: their probe run wraps to the
        // front of the table.
        let last: Vec<u32> = (0..u32::MAX)
            .filter(|&id| index.home(id) == buckets - 1)
            .take(3)
            .collect();
        let front = (0..u32::MAX).find(|&id| index.home(id) == 0).unwrap();
        for (slot, &id) in last.iter().enumerate() {
            index.insert(ObjectId(id), slot as u32);
        }
        index.insert(ObjectId(front), 9);
        // Buckets: [last[1], last[2], front, .., last[0]].
        assert_eq!(index.find(ObjectId(last[1])), Some(0));
        assert_eq!(index.find(ObjectId(front)), Some(2));
        assert_eq!(index.remove(ObjectId(last[0])), Some(0));
        // The wrapped members moved back across the end; `front` moved to
        // its home bucket.
        assert_eq!(index.find(ObjectId(last[1])), Some(buckets - 1));
        assert_eq!(index.find(ObjectId(last[2])), Some(0));
        assert_eq!(index.find(ObjectId(front)), Some(1));
        assert_eq!(index.get(ObjectId(last[0])), None);
        assert_eq!(index.get(ObjectId(last[2])), Some(2));
        assert_eq!(index.get(ObjectId(front)), Some(9));
        assert_eq!(index.remove(ObjectId(last[1])), Some(1));
        assert_eq!(index.get(ObjectId(last[2])), Some(2));
        assert_eq!(index.get(ObjectId(front)), Some(9));
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn slot_index_keeps_every_id_across_growth() {
        let mut index = SlotIndex::new();
        assert!(index.buckets.is_empty(), "an empty index allocates nothing");
        let ids = |n: u32| (0..n).map(|i| i.wrapping_mul(2_654_435_761) % (u32::MAX - 1));
        for (slot, id) in ids(1_000).enumerate() {
            assert_eq!(index.insert(ObjectId(id), slot as u32), None);
            assert_eq!(index.len(), slot + 1);
        }
        assert!(index.buckets.len() >= 2_000);
        for (slot, id) in ids(1_000).enumerate() {
            assert_eq!(index.get(ObjectId(id)), Some(slot as u32));
        }
        // A presized index holds its capacity without a rebuild.
        let mut fixed = SlotIndex::with_capacity(1_000);
        let buckets = fixed.buckets.len();
        for (slot, id) in ids(1_000).enumerate() {
            fixed.insert(ObjectId(id), slot as u32);
        }
        assert_eq!(fixed.buckets.len(), buckets);
        assert_eq!(
            fixed.insert(ObjectId(0), 7),
            Some(0),
            "a re-insert replaces"
        );
        assert_eq!(
            fixed.get_or_insert(ObjectId(0), 8),
            Some(7),
            "a present id keeps its slot"
        );
        assert_eq!(fixed.len(), 1_000);
        // A cleared index forgets every id and refills without a rebuild.
        fixed.clear();
        assert!(fixed.is_empty());
        assert_eq!(fixed.get(ObjectId(0)), None);
        assert_eq!(fixed.buckets.len(), buckets);
        for (slot, id) in ids(1_000).enumerate() {
            assert_eq!(fixed.insert(ObjectId(id), slot as u32), None);
        }
        assert_eq!((fixed.buckets.len(), fixed.len()), (buckets, 1_000));
    }

    #[test]
    #[should_panic(expected = "cannot be indexed")]
    fn slot_index_rejects_the_vacant_id() {
        let mut index = SlotIndex::with_capacity(1);
        assert_eq!(index.get(ObjectId(u32::MAX)), None);
        index.insert(ObjectId(u32::MAX), 0);
    }

    #[test]
    fn slot_index_matches_a_hashmap() {
        use std::collections::HashMap;
        let mut index = SlotIndex::new();
        let mut oracle = HashMap::new();
        let mut x = 0x5173_5e1e_u64;
        for step in 0..20_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // A few dozen ids, some near the top of the range.
            let id = match x % 3 {
                0 => (x >> 8) as u32 % 40,
                1 => u32::MAX - 1 - (x >> 8) as u32 % 40,
                _ => (x >> 8) as u32 % 40 * 0x0100_0000,
            };
            match x >> 40 & 3 {
                0 => assert_eq!(index.insert(ObjectId(id), step), oracle.insert(id, step)),
                1 => {
                    let had = oracle.get(&id).copied();
                    oracle.entry(id).or_insert(step);
                    assert_eq!(index.get_or_insert(ObjectId(id), step), had);
                }
                _ => assert_eq!(index.remove(ObjectId(id)), oracle.remove(&id)),
            }
            assert_eq!(index.len(), oracle.len());
        }
        // detlint: allow(D2) — each entry is checked alone
        for (&id, &slot) in &oracle {
            assert_eq!(index.get(ObjectId(id)), Some(slot));
        }
    }
}
