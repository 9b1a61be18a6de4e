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

/// Link sentinel: "no neighbour".
const NIL: u32 = u32::MAX;

/// One object's place in the cache: the tier it sits in, if any, and its
/// neighbours in that tier's recency list.
#[derive(Debug, Clone, Copy)]
struct Node {
    prev: u32,
    next: u32,
    tier: Option<CacheTier>,
}

const ABSENT: Node = Node {
    prev: NIL,
    next: NIL,
    tier: None,
};

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
/// Both tiers are LRU lists threaded through one dense slab of nodes
/// indexed by object id: an object is in at most one tier and its node
/// records which, so a lookup is one read and a touch, demotion or
/// eviction is a few index writes with no per-operation allocation.
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
    memory: Tier,
    disk: Tier,
}

impl ClientCache {
    /// Creates a cache with the given per-tier capacities (objects).
    #[must_use]
    pub fn new(memory_objects: usize, disk_objects: usize) -> Self {
        ClientCache {
            nodes: Vec::new(),
            memory: Tier::new(memory_objects),
            disk: Tier::new(disk_objects),
        }
    }

    /// Pre-sizes the node slab for ids `0..n`, so steady-state inserts
    /// never touch the allocator. Worth it only where one cache sees the
    /// whole database (e.g. a server buffer); a client cache grows its slab
    /// to the highest id it has held instead.
    pub fn reserve_ids(&mut self, n: usize) {
        if self.nodes.len() < n {
            self.nodes.resize(n, ABSENT);
        }
    }

    fn tier_mut(&mut self, tier: CacheTier) -> &mut Tier {
        match tier {
            CacheTier::Memory => &mut self.memory,
            CacheTier::Disk => &mut self.disk,
        }
    }

    /// Takes a cached object out of its tier.
    fn unlink(&mut self, idx: u32) {
        let Node { prev, next, tier } = self.nodes[idx as usize];
        let tier = tier.expect("only cached objects are unlinked");
        self.nodes[idx as usize] = ABSENT;
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

    /// Puts an uncached object at the MRU end of `tier`, evicting that
    /// tier's LRU object first if it is full. Returns the evicted object;
    /// a zero-capacity tier evicts `idx` itself.
    fn link_tail(&mut self, tier: CacheTier, idx: u32) -> Option<ObjectId> {
        let list = self.tier_mut(tier);
        if list.capacity == 0 {
            return Some(ObjectId(idx));
        }
        let victim = (list.len >= list.capacity).then_some(list.head);
        if let Some(lru) = victim {
            self.unlink(lru);
        }
        if idx as usize >= self.nodes.len() {
            self.nodes.resize(idx as usize + 1, ABSENT);
        }
        let list = self.tier_mut(tier);
        let tail = std::mem::replace(&mut list.tail, idx);
        list.len += 1;
        match tail {
            NIL => list.head = idx,
            t => self.nodes[t as usize].next = idx,
        }
        self.nodes[idx as usize] = Node {
            prev: tail,
            next: NIL,
            tier: Some(tier),
        };
        victim.map(ObjectId)
    }

    /// Looks up `id` without promoting it.
    #[must_use]
    pub fn peek(&self, id: ObjectId) -> Option<CacheTier> {
        self.nodes.get(id.index() as usize).and_then(|n| n.tier)
    }

    /// Looks up `id` as a reference: a memory-tier hit becomes most
    /// recently used, and a disk-tier hit is promoted to the memory tier
    /// (the caller should charge one local disk access).
    pub fn probe(&mut self, id: ObjectId) -> Option<CacheTier> {
        let tier = self.peek(id)?;
        self.insert(id);
        Some(tier)
    }

    /// Inserts a newly fetched object into the memory tier, demoting /
    /// evicting as needed.
    pub fn insert(&mut self, id: ObjectId) {
        let idx = id.index();
        match self.peek(id) {
            Some(CacheTier::Memory) if self.memory.tail == idx => return,
            Some(_) => self.unlink(idx),
            None => {}
        }
        if let Some(demoted) = self.link_tail(CacheTier::Memory, idx) {
            self.link_tail(CacheTier::Disk, demoted.index());
        }
    }

    /// Drops `id` from both tiers (used when a callback revokes the object).
    /// Returns `true` if the object was present.
    pub fn invalidate(&mut self, id: ObjectId) -> bool {
        let cached = self.contains(id);
        if cached {
            self.unlink(id.index());
        }
        cached
    }

    /// True if the object is cached in either tier.
    #[must_use]
    pub fn contains(&self, id: ObjectId) -> bool {
        self.peek(id).is_some()
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
            if cur == NIL {
                return None;
            }
            let id = cur;
            cur = self.nodes[cur as usize].next;
            Some(ObjectId(id))
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
