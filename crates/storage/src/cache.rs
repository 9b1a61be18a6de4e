//! The client's two-tier object cache (Table 1: 500 objects of memory cache
//! plus 500 objects of disk cache).
//!
//! The client–server models treat the set of locally cached objects as the
//! client's "local dataspace" (paper §2). Objects enter the memory tier;
//! the memory tier's LRU victim is demoted to the disk tier; the disk tier's
//! LRU victim leaves the cache entirely. A reference to a disk-tier object
//! promotes it back to memory (costing a local disk access in the simulator).
//!
//! A client caches about a thousand objects of a ten-times larger database,
//! so the cache's memory is set by its capacity alone: its nodes are
//! numbered by slot, not by object id, and a [`SlotIndex`] finds an object's
//! slot. The server keeps its buffer pool's residency in one too, with a
//! zero-capacity disk tier.

use siteselect_types::{ObjectId, SlotIndex};

/// Which tier a probe found the object in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheTier {
    /// Found in the memory cache: free access.
    Memory,
    /// Found in the disk cache: access costs a local disk I/O.
    Disk,
}

/// Link sentinel: "no neighbour".
const NIL: u32 = u32::MAX;

/// One cached object: its id, the tier it sits in and its neighbours in
/// that tier's recency list. A free node's `next` links the free list.
#[derive(Debug, Clone, Copy)]
struct Node {
    id: ObjectId,
    prev: u32,
    next: u32,
    tier: CacheTier,
}

/// One tier: a recency list from LRU (head) to MRU (tail), threaded
/// through the cache's node slab, and its capacity.
#[derive(Debug, Clone)]
struct Tier {
    capacity: usize,
    head: u32,
    tail: u32,
    len: usize,
}

impl Tier {
    fn new(capacity: usize) -> Self {
        Tier {
            capacity,
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }
}

/// The two-tier client object cache.
///
/// Both tiers are LRU lists threaded through one slab of nodes, numbered
/// by slot; a [`SlotIndex`] finds an object's slot. The slab holds one node
/// per object the two tiers can hold, plus one for the object an insert
/// brings in before the demotion it causes has evicted anything, and both
/// it and the index are sized in [`new`](Self::new). So a cache's memory
/// follows its capacity, not the ids it sees, and no operation touches the
/// allocator: a lookup is an index probe, a touch, demotion or eviction a
/// few slot writes.
///
/// # Example
///
/// ```
/// use siteselect_storage::{CacheTier, ClientCache};
/// use siteselect_types::ObjectId;
///
/// let mut cache = ClientCache::new(2, 2);
/// cache.insert(ObjectId(1));
/// cache.insert(ObjectId(2));
/// cache.insert(ObjectId(3)); // demotes 1 to the disk tier
/// assert_eq!(cache.probe(ObjectId(1)), Some(CacheTier::Disk));
/// assert_eq!(cache.probe(ObjectId(9)), None);
/// ```
#[derive(Debug, Clone)]
pub struct ClientCache {
    nodes: Vec<Node>,
    index: SlotIndex,
    /// Head of the free-node list, threaded through `next`.
    free: u32,
    memory: Tier,
    disk: Tier,
}

impl ClientCache {
    /// Creates a cache with the given per-tier capacities (objects).
    ///
    /// # Panics
    ///
    /// If the two tiers together hold `u32::MAX` objects or more.
    #[must_use]
    pub fn new(memory_objects: usize, disk_objects: usize) -> Self {
        let slots = memory_objects
            .saturating_add(disk_objects)
            .saturating_add(1);
        assert!(
            slots < NIL as usize,
            "a cache holds fewer than u32::MAX objects"
        );
        ClientCache {
            nodes: Vec::with_capacity(slots),
            index: SlotIndex::with_capacity(slots),
            free: NIL,
            memory: Tier::new(memory_objects),
            disk: Tier::new(disk_objects),
        }
    }

    /// Does nothing: the cache is sized by its capacity in
    /// [`new`](Self::new), whatever ids it sees. Kept for callers written
    /// when the slab was indexed by object id.
    pub fn reserve_ids(&mut self, _n: usize) {}

    fn tier_mut(&mut self, tier: CacheTier) -> &mut Tier {
        match tier {
            CacheTier::Memory => &mut self.memory,
            CacheTier::Disk => &mut self.disk,
        }
    }

    /// The slot the next uncached object takes: the head of the free
    /// list, or else the slab's next unused node.
    fn spare(&self) -> u32 {
        match self.free {
            // Lossless: `new` keeps the slab under `u32::MAX` nodes.
            NIL => self.nodes.len() as u32,
            slot => slot,
        }
    }

    /// Fills the [`spare`](Self::spare) slot with an unlinked node for `id`.
    fn occupy(&mut self, id: ObjectId) {
        let node = Node {
            id,
            prev: NIL,
            next: NIL,
            tier: CacheTier::Memory,
        };
        match self.free {
            NIL => self.nodes.push(node),
            slot => {
                let spare = &mut self.nodes[slot as usize];
                self.free = spare.next;
                *spare = node;
            }
        }
    }

    /// Returns an unlinked node to the free list; its object leaves.
    fn release(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        self.index.remove(node.id);
        node.next = self.free;
        self.free = slot;
    }

    /// Takes a cached object's node out of its tier.
    fn unlink(&mut self, slot: u32) {
        let Node {
            prev, next, tier, ..
        } = self.nodes[slot as usize];
        let list = self.tier_mut(tier);
        list.len -= 1;
        match prev {
            NIL => list.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tier_mut(tier).tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Puts an unlinked node at the MRU end of `tier`, unlinking that
    /// tier's LRU node first if it is full. Returns the node it displaced;
    /// a zero-capacity tier displaces `slot` itself.
    fn link_tail(&mut self, tier: CacheTier, slot: u32) -> Option<u32> {
        let list = self.tier_mut(tier);
        if list.capacity == 0 {
            return Some(slot);
        }
        let victim = (list.len >= list.capacity).then_some(list.head);
        if let Some(lru) = victim {
            self.unlink(lru);
        }
        let list = self.tier_mut(tier);
        let tail = std::mem::replace(&mut list.tail, slot);
        list.len += 1;
        match tail {
            NIL => list.head = slot,
            t => self.nodes[t as usize].next = slot,
        }
        let node = &mut self.nodes[slot as usize];
        node.prev = tail;
        node.next = NIL;
        node.tier = tier;
        victim
    }

    /// Looks up `id` without promoting it.
    #[must_use]
    pub fn peek(&self, id: ObjectId) -> Option<CacheTier> {
        let slot = self.index.get(id)?;
        self.nodes.get(slot as usize).map(|node| node.tier)
    }

    /// Looks up `id` as a reference: a memory-tier hit becomes most
    /// recently used, and a disk-tier hit is promoted to the memory tier
    /// (the caller should charge one local disk access).
    pub fn probe(&mut self, id: ObjectId) -> Option<CacheTier> {
        let slot = self.index.get(id)?;
        let tier = self.nodes.get(slot as usize)?.tier;
        self.touch(slot);
        Some(tier)
    }

    /// Inserts a newly fetched object into the memory tier, demoting /
    /// evicting as needed.
    pub fn insert(&mut self, id: ObjectId) {
        let spare = self.spare();
        match self.index.get_or_insert(id, spare) {
            Some(slot) => self.touch(slot),
            None => {
                self.occupy(id);
                self.admit(spare);
            }
        }
    }

    /// Makes a cached object the memory tier's most recently used.
    fn touch(&mut self, slot: u32) {
        if self.memory.tail != slot {
            self.unlink(slot);
            self.admit(slot);
        }
    }

    /// Links an unlinked node at the memory tier's MRU end: the tier's LRU
    /// object moves to the disk tier, whose LRU object leaves.
    fn admit(&mut self, slot: u32) {
        if let Some(demoted) = self.link_tail(CacheTier::Memory, slot) {
            if let Some(evicted) = self.link_tail(CacheTier::Disk, demoted) {
                self.release(evicted);
            }
        }
    }

    /// Drops `id` from both tiers (used when a callback revokes the object).
    /// Returns `true` if the object was present.
    pub fn invalidate(&mut self, id: ObjectId) -> bool {
        let Some(slot) = self.index.get(id) else {
            return false;
        };
        self.unlink(slot);
        self.release(slot);
        true
    }

    /// True if the object is cached in either tier.
    #[must_use]
    pub fn contains(&self, id: ObjectId) -> bool {
        self.index.get(id).is_some()
    }

    /// Total cached objects across both tiers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.memory.len + self.disk.len
    }

    /// True if nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Members of one tier from LRU to MRU.
    fn members(&self, tier: &Tier) -> impl Iterator<Item = ObjectId> + '_ {
        let mut cur = tier.head;
        std::iter::from_fn(move || {
            let node = self.nodes.get(cur as usize)?;
            cur = node.next;
            Some(node.id)
        })
    }

    /// Iterates over all cached ids, memory tier first (LRU to MRU order
    /// within each tier).
    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.members(&self.memory).chain(self.members(&self.disk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_probe_hits_memory() {
        let mut c = ClientCache::new(2, 2);
        c.insert(ObjectId(1));
        c.insert(ObjectId(2));
        assert_eq!(c.probe(ObjectId(1)), Some(CacheTier::Memory));
        // The hit made 1 most recently used, so 2 is the one demoted.
        c.insert(ObjectId(3));
        assert_eq!(c.peek(ObjectId(1)), Some(CacheTier::Memory));
        assert_eq!(c.peek(ObjectId(2)), Some(CacheTier::Disk));
    }

    #[test]
    fn overflow_demotes_then_evicts() {
        let mut c = ClientCache::new(2, 2);
        for i in 1..=4 {
            c.insert(ObjectId(i));
        }
        // memory: {3,4}, disk: {1,2}
        assert_eq!(c.peek(ObjectId(4)), Some(CacheTier::Memory));
        assert_eq!(c.peek(ObjectId(1)), Some(CacheTier::Disk));
        assert_eq!(c.len(), 4);
        c.insert(ObjectId(5)); // demote 3, evict 1
        assert_eq!(c.peek(ObjectId(1)), None);
        assert_eq!(c.peek(ObjectId(2)), Some(CacheTier::Disk));
        assert_eq!(c.peek(ObjectId(3)), Some(CacheTier::Disk));
        assert_eq!(c.peek(ObjectId(5)), Some(CacheTier::Memory));
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn disk_hit_promotes_to_memory() {
        let mut c = ClientCache::new(2, 2);
        for i in 1..=3 {
            c.insert(ObjectId(i));
        }
        assert_eq!(c.peek(ObjectId(1)), Some(CacheTier::Disk));
        assert_eq!(c.probe(ObjectId(1)), Some(CacheTier::Disk));
        assert_eq!(c.peek(ObjectId(1)), Some(CacheTier::Memory));
        // The promotion demoted memory's LRU object in its place.
        assert_eq!(c.peek(ObjectId(2)), Some(CacheTier::Disk));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn invalidate_removes_from_both_tiers() {
        let mut c = ClientCache::new(1, 1);
        c.insert(ObjectId(1));
        c.insert(ObjectId(2)); // 1 demoted to disk
        assert!(c.invalidate(ObjectId(1)));
        assert!(c.invalidate(ObjectId(2)));
        assert!(!c.invalidate(ObjectId(3)));
        assert!(c.is_empty());
        assert_eq!(c.probe(ObjectId(1)), None);
    }

    #[test]
    fn miss_caches_nothing() {
        let mut c = ClientCache::new(2, 2);
        c.insert(ObjectId(1));
        assert_eq!(c.probe(ObjectId(9)), None);
        assert!(!c.contains(ObjectId(9)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let mut c = ClientCache::new(2, 0);
        c.insert(ObjectId(1));
        c.insert(ObjectId(2));
        c.insert(ObjectId(1)); // refresh
        c.insert(ObjectId(3)); // evicts 2 (LRU), not 1
        assert!(c.contains(ObjectId(1)));
        assert!(!c.contains(ObjectId(2)));
    }

    #[test]
    fn zero_capacity_disk_tier() {
        let mut c = ClientCache::new(1, 0);
        c.insert(ObjectId(1));
        c.insert(ObjectId(2)); // 1 demoted into a zero-capacity tier => evicted
        assert!(!c.contains(ObjectId(1)));
        assert!(c.contains(ObjectId(2)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = ClientCache::new(3, 5);
        for i in 0..100 {
            c.insert(ObjectId(i));
        }
        assert!(c.len() <= 8);
        assert_eq!(c.iter().count(), c.len());
    }

    #[test]
    fn probes_report_their_tier() {
        let mut c = ClientCache::new(1, 1);
        c.insert(ObjectId(1));
        c.insert(ObjectId(2));
        assert_eq!(c.probe(ObjectId(2)), Some(CacheTier::Memory));
        assert_eq!(c.probe(ObjectId(1)), Some(CacheTier::Disk));
        assert_eq!(c.probe(ObjectId(3)), None);
    }
}
