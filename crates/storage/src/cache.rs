//! The client's two-tier object cache (Table 1: 500 objects of memory cache
//! plus 500 objects of disk cache).
//!
//! The client–server models treat the set of locally cached objects as the
//! client's "local dataspace" (paper §2). Objects enter the memory tier;
//! the memory tier's LRU victim is demoted to the disk tier; the disk tier's
//! LRU victim leaves the cache entirely. A reference to a disk-tier object
//! promotes it back to memory (costing a local disk access in the simulator).

use siteselect_types::ObjectId;

/// Which tier a probe found the object in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheTier {
    /// Found in the memory cache: free access.
    Memory,
    /// Found in the disk cache: access costs a local disk I/O.
    Disk,
}

/// Link sentinel: "no neighbour" / "not a member".
const NIL: u32 = u32::MAX;

/// One intrusive list node, indexed by object id.
#[derive(Debug, Clone, Copy)]
struct Node {
    prev: u32,
    next: u32,
    live: bool,
}

impl Default for Node {
    fn default() -> Self {
        Node {
            prev: NIL,
            next: NIL,
            live: false,
        }
    }
}

/// A deterministic LRU set with O(1) operations: an intrusive doubly-
/// linked recency list threaded through a dense id-indexed slot vector.
/// The list runs LRU (head) to MRU (tail); a touch unlinks the node and
/// re-links it at the tail, all by index arithmetic — no tree rebalance,
/// no per-operation allocation. (The previous `BTreeMap` stamp index paid
/// a node-churning remove+insert on every probe, which made the cache the
/// hottest line of the client–server engines.)
#[derive(Debug, Default, Clone)]
struct LruSet {
    capacity: usize,
    nodes: Vec<Node>,
    head: u32,
    tail: u32,
    len: usize,
}

impl LruSet {
    fn new(capacity: usize) -> Self {
        LruSet {
            capacity,
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn contains(&self, id: ObjectId) -> bool {
        self.nodes
            .get(id.index() as usize)
            .is_some_and(|n| n.live)
    }

    /// Detaches a live node from the recency list (leaves `live` set).
    fn unlink(&mut self, idx: u32) {
        let Node { prev, next, .. } = self.nodes[idx as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Attaches a node at the MRU tail.
    fn link_tail(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        node.live = true;
        node.next = NIL;
        node.prev = self.tail;
        match self.tail {
            NIL => self.head = idx,
            t => self.nodes[t as usize].next = idx,
        }
        self.tail = idx;
    }

    fn touch(&mut self, id: ObjectId) -> bool {
        let idx = id.index();
        if !self.contains(id) {
            return false;
        }
        if self.tail != idx {
            self.unlink(idx);
            self.link_tail(idx);
        }
        true
    }

    /// Inserts `id` as most-recently-used; returns the evicted LRU element
    /// if the set was full.
    fn insert(&mut self, id: ObjectId) -> Option<ObjectId> {
        if self.capacity == 0 {
            return Some(id);
        }
        if self.touch(id) {
            return None;
        }
        let victim = if self.len >= self.capacity {
            let lru = self.head;
            self.unlink(lru);
            self.nodes[lru as usize].live = false;
            self.len -= 1;
            Some(ObjectId(lru))
        } else {
            None
        };
        let idx = id.index() as usize;
        if idx >= self.nodes.len() {
            self.nodes.resize(idx + 1, Node::default());
        }
        self.link_tail(id.index());
        self.len += 1;
        victim
    }

    /// Pre-sizes the node slab for ids `0..n` so later inserts never grow
    /// it (keeps first-touch insertions off the allocator).
    fn reserve_ids(&mut self, n: usize) {
        if self.nodes.len() < n {
            self.nodes.resize(n, Node::default());
        }
    }

    fn remove(&mut self, id: ObjectId) -> bool {
        if !self.contains(id) {
            return false;
        }
        let idx = id.index();
        self.unlink(idx);
        self.nodes[idx as usize].live = false;
        self.len -= 1;
        true
    }

    /// Members from LRU to MRU.
    fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let id = cur;
            cur = self.nodes[cur as usize].next;
            Some(ObjectId(id))
        })
    }
}

/// The two-tier client object cache.
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
    memory: LruSet,
    disk: LruSet,
}

impl ClientCache {
    /// Creates a cache with the given per-tier capacities (objects).
    #[must_use]
    pub fn new(memory_objects: usize, disk_objects: usize) -> Self {
        ClientCache {
            memory: LruSet::new(memory_objects),
            disk: LruSet::new(disk_objects),
        }
    }

    /// Pre-sizes both tiers' node slabs for ids `0..n`, so steady-state
    /// inserts never touch the allocator. Worth it only where one cache
    /// sees the whole database (e.g. a server buffer) — per-client caches
    /// would pay `n` slots each for ids they mostly never see.
    pub fn reserve_ids(&mut self, n: usize) {
        self.memory.reserve_ids(n);
        self.disk.reserve_ids(n);
    }

    /// Looks up `id` without promoting it.
    #[must_use]
    pub fn peek(&self, id: ObjectId) -> Option<CacheTier> {
        if self.memory.contains(id) {
            Some(CacheTier::Memory)
        } else if self.disk.contains(id) {
            Some(CacheTier::Disk)
        } else {
            None
        }
    }

    /// Looks up `id` as a reference: a memory-tier hit becomes most
    /// recently used, and a disk-tier hit is promoted to the memory tier
    /// (the caller should charge one local disk access).
    pub fn probe(&mut self, id: ObjectId) -> Option<CacheTier> {
        if self.memory.touch(id) {
            return Some(CacheTier::Memory);
        }
        if self.disk.remove(id) {
            self.insert_into_memory(id);
            return Some(CacheTier::Disk);
        }
        None
    }

    /// Inserts a newly fetched object into the memory tier, demoting /
    /// evicting as needed.
    pub fn insert(&mut self, id: ObjectId) {
        if !self.memory.touch(id) {
            self.disk.remove(id);
            self.insert_into_memory(id);
        }
    }

    fn insert_into_memory(&mut self, id: ObjectId) {
        if let Some(demoted) = self.memory.insert(id) {
            let evicted = self.disk.insert(demoted);
            debug_assert_ne!(evicted, Some(id));
        }
    }

    /// Drops `id` from both tiers (used when a callback revokes the object).
    /// Returns `true` if the object was present.
    pub fn invalidate(&mut self, id: ObjectId) -> bool {
        self.memory.remove(id) || self.disk.remove(id)
    }

    /// True if the object is cached in either tier.
    #[must_use]
    pub fn contains(&self, id: ObjectId) -> bool {
        self.peek(id).is_some()
    }

    /// Total cached objects across both tiers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.memory.len() + self.disk.len()
    }

    /// True if nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all cached ids, memory tier first (LRU to MRU order
    /// within each tier).
    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.memory.iter().chain(self.disk.iter())
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
