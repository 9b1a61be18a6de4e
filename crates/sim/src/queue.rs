//! A deterministic, time-ordered event queue.
//!
//! Implemented as a hierarchical bucketed timer wheel rather than a binary
//! heap: eleven levels of 64 buckets each cover the full 64-bit microsecond
//! range, so a push is a couple of bit operations and a pop is an `O(1)`
//! take from the sorted drain of the earliest bucket, with the occasional
//! lazy cascade of a higher-level bucket as simulated time advances. A
//! `BinaryHeap` pays a `log n` sift plus an entry memmove chain on every
//! operation; the wheel pays neither on the hot path, which is what the
//! million-events per-second engines need.
//!
//! Every event waiting in the wheel lives in one slab of nodes. A bucket is
//! the index of its first node and each node links to the next, so a
//! cascade relinks nodes and moves no event. Settling a level-0 bucket
//! moves its events into the drain and puts their nodes on a free list,
//! which the next push draws from. A queue therefore allocates a constant
//! amount when it is built, and afterwards only when the slab or the drain
//! reaches a new peak.

use siteselect_types::SimTime;

/// One event in the drain: fire time plus an insertion sequence number
/// used to break ties FIFO.
struct Entry<E> {
    at: u64,
    seq: u64,
    event: E,
}

/// One slab slot. A linked node holds an event waiting in the wheel and
/// links to the next node of its bucket; a free node holds none and links
/// to the next free node.
struct Node<E> {
    at: u64,
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// The end of a bucket's list and of the free list.
const NIL: u32 = u32::MAX;

/// Bits of time consumed per wheel level.
const SLOT_BITS: u32 = 6;
/// Buckets per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels needed to span a full 64-bit tick range (`11 * 6 = 66 >= 64`).
const LEVELS: usize = 11;

/// One wheel level: the first node of each of its 64 buckets plus an
/// occupancy bitmask, so the earliest non-empty bucket is a single
/// `trailing_zeros`.
struct Level {
    occupied: u64,
    heads: [u32; SLOTS],
}

/// A future-event list for discrete-event simulation.
///
/// Events scheduled for the same instant are delivered in insertion order,
/// which makes runs bit-reproducible: the simulator never depends on hash
/// ordering or allocation addresses.
///
/// # Example
///
/// ```
/// use siteselect_sim::EventQueue;
/// use siteselect_types::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(5), 'x');
/// assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(5), 'x')));
/// assert!(q.is_empty());
/// ```
pub struct EventQueue<E> {
    levels: Box<[Level; LEVELS]>,
    /// Every node of the wheel, linked or free.
    nodes: Vec<Node<E>>,
    /// The first free node, `NIL` when every node is linked.
    free: u32,
    /// The wheel origin: the bucket time of the current drain, and a lower
    /// bound on every linked node's time. Events pushed into the past
    /// (allowed, like a heap) bypass the wheel and merge into the drain.
    cursor: u64,
    /// The earliest bucket, moved out of the wheel and sorted descending by
    /// `(at, seq)` so `pop` is a `Vec::pop` and `peek_time` reads the
    /// tail. Invariant: non-empty whenever `len > 0`.
    drain: Vec<Entry<E>>,
    len: usize,
    /// Doubles as the total-pushed counter: every push takes one number.
    next_seq: u64,
}

/// Level index for a time that differs from the cursor in `xor` (non-zero).
fn level_of(xor: u64) -> usize {
    ((63 - xor.leading_zeros()) / SLOT_BITS) as usize
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` pending events, in the
    /// wheel or in the drain, before it allocates again.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            levels: Box::new(std::array::from_fn(|_| Level {
                occupied: 0,
                heads: [NIL; SLOTS],
            })),
            nodes: Vec::with_capacity(cap),
            free: NIL,
            cursor: 0,
            drain: Vec::with_capacity(cap),
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let t = at.as_micros();
        if self.len == 0 {
            // Re-basing on the first push keeps the common drain-then-
            // refill pattern entirely inside the drain fast path.
            self.cursor = t;
            self.drain.push(Entry { at: t, seq, event });
        } else if t < self.cursor {
            // A push into the past (relative to the wheel origin). The
            // drain is sorted descending by (at, seq); splice the entry in
            // so it pops in heap order. A fresh sequence number is
            // globally largest, so the entry is the queue's new minimum
            // exactly when its time is strictly earliest: tail append.
            // Equal-or-later times binary-search.
            let entry = Entry { at: t, seq, event };
            match self.drain.last() {
                Some(tail) if t < tail.at => self.drain.push(entry),
                _ => {
                    let pos = self.drain.partition_point(|e| (e.at, e.seq) > (t, seq));
                    self.drain.insert(pos, entry);
                }
            }
        } else {
            let node = Node {
                at: t,
                seq,
                next: NIL,
                event: Some(event),
            };
            let i = if self.free == NIL {
                // Every node is linked, so the slab holds exactly the
                // events that are in the queue but not in the drain.
                debug_assert_eq!(self.nodes.len(), self.len - self.drain.len());
                // Lossless: a slab of `u32::MAX` nodes would take hundreds
                // of GB.
                let i = self.nodes.len() as u32;
                self.nodes.push(node);
                i
            } else {
                let i = self.free;
                self.free = std::mem::replace(self.node(i), node).next;
                i
            };
            self.link(i, t);
        }
        self.len += 1;
    }

    /// The node at `i`.
    fn node(&mut self, i: u32) -> &mut Node<E> {
        // detlint: allow(D9) — every index in a bucket or the free list was handed out by `push` as a position in `nodes`, which never shrinks
        &mut self.nodes[i as usize]
    }

    /// Links node `i`, firing at `at >= self.cursor`, into the head of its
    /// level/bucket.
    fn link(&mut self, i: u32, at: u64) {
        let xor = at ^ self.cursor;
        let lvl = if xor == 0 { 0 } else { level_of(xor) };
        let slot = ((at >> (SLOT_BITS * lvl as u32)) & (SLOTS as u64 - 1)) as usize;
        // detlint: allow(D9) — level_of(x) <= 63/SLOT_BITS = 10 < LEVELS
        let level = &mut self.levels[lvl];
        level.occupied |= 1 << slot;
        // detlint: allow(D9) — slot is masked to SLOTS-1
        let next = std::mem::replace(&mut level.heads[slot], i);
        self.node(i).next = next;
    }

    /// Unlinks every node of bucket `slot` of level `lvl`, an occupied one,
    /// and returns the first.
    fn take_bucket(&mut self, lvl: usize, slot: usize) -> u32 {
        // detlint: allow(D9) — callers pass a level below LEVELS with `slot` set in its mask
        let level = &mut self.levels[lvl];
        level.occupied &= !(1u64 << slot);
        // detlint: allow(D9) — a mask bit is below 64 = SLOTS
        std::mem::replace(&mut level.heads[slot], NIL)
    }

    /// Restores the drain invariant: advances the cursor to the earliest
    /// occupied bucket, cascading higher-level buckets down as needed, and
    /// moves that bucket's events into the (empty) drain, sorted for FIFO
    /// pops.
    #[cold]
    fn settle(&mut self) {
        debug_assert!(self.drain.is_empty() && self.len > 0);
        loop {
            let (lvl, slot) = self
                .levels
                .iter()
                .enumerate()
                .find_map(|(l, level)| {
                    (level.occupied != 0).then(|| (l, level.occupied.trailing_zeros() as usize))
                })
                // detlint: allow(D9) — len > 0 and the drain is empty, so some bucket is occupied
                .expect("len > 0 but every level is empty");
            if lvl == 0 {
                let bucket = (self.cursor & !(SLOTS as u64 - 1)) | slot as u64;
                debug_assert!(bucket >= self.cursor);
                self.cursor = bucket;
                let mut i = self.take_bucket(0, slot);
                while i != NIL {
                    let freed = Node {
                        at: 0,
                        seq: 0,
                        next: self.free,
                        event: None,
                    };
                    let Node {
                        at,
                        seq,
                        next,
                        event,
                    } = std::mem::replace(self.node(i), freed);
                    self.free = i;
                    if let Some(event) = event {
                        self.drain.push(Entry { at, seq, event });
                    }
                    i = next;
                }
                // A level-0 bucket is one exact tick, but its list is in
                // no particular order; one in-place sort restores FIFO.
                self.drain
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
                return;
            }
            let shift = SLOT_BITS * lvl as u32;
            // Bits strictly above this level; empty at the top level, where
            // the plain shift would overflow.
            let above = u64::MAX.checked_shl(shift + SLOT_BITS).unwrap_or(0);
            let base = (self.cursor & above) | ((slot as u64) << shift);
            debug_assert!(base > self.cursor);
            self.cursor = base;
            let mut i = self.take_bucket(lvl, slot);
            while i != NIL {
                let node = self.node(i);
                let (at, next) = (node.at, node.next);
                debug_assert!(at >= self.cursor);
                self.link(i, at);
                i = next;
            }
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.drain.pop()?;
        self.len -= 1;
        if self.drain.is_empty() && self.len > 0 {
            self.settle();
        }
        Some((SimTime::from_micros(e.at), e.event))
    }

    /// The fire time of the earliest queued event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.drain.last().map(|e| SimTime::from_micros(e.at))
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `deadline`; leaves the queue untouched otherwise.
    ///
    /// This is the bounded-drain primitive: callers that would otherwise
    /// write `if q.peek_time() <= Some(t) { q.pop() }` get the check and
    /// the removal in one call, with the entry moved out of its bucket only
    /// when it actually fires.
    ///
    /// ```
    /// use siteselect_sim::EventQueue;
    /// use siteselect_types::SimTime;
    ///
    /// let mut q = EventQueue::new();
    /// q.push(SimTime::from_secs(5), 'x');
    /// assert_eq!(q.pop_before(SimTime::from_secs(4)), None);
    /// assert_eq!(q.pop_before(SimTime::from_secs(5)), Some((SimTime::from_secs(5), 'x')));
    /// ```
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.drain.last() {
            Some(e) if e.at <= deadline.as_micros() => self.pop(),
            _ => None,
        }
    }

    /// Number of queued events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("next_time", &self.peek_time())
            .field("pushed", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 3);
        q.push(SimTime::from_secs(1), 1);
        q.push(SimTime::from_secs(2), 2);
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), 'c');
        q.push(SimTime::from_secs(1), 'a');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.push(SimTime::from_secs(5), 'b');
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.pop().unwrap().1, 'c');
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn len_counts_queued_events() {
        let mut q = EventQueue::with_capacity(8);
        assert!(q.is_empty());
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(7), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_before_respects_deadline_and_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), 'b');
        q.push(SimTime::from_secs(1), 'a');
        q.push(SimTime::from_secs(9), 'z');
        let mut drained = Vec::new();
        while let Some((_, e)) = q.pop_before(SimTime::from_secs(5)) {
            drained.push(e);
        }
        assert_eq!(drained, vec!['a', 'b']);
        assert_eq!(q.len(), 1);
        // The deadline is inclusive.
        assert_eq!(q.pop_before(SimTime::from_secs(9)).unwrap().1, 'z');
        // Empty queue: no event, no panic.
        assert_eq!(q.pop_before(SimTime::from_secs(100)), None);
        assert!(q.is_empty());
    }

    #[test]
    fn debug_output_is_nonempty() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(format!("{q:?}").contains("EventQueue"));
    }

    #[test]
    fn push_into_the_past_pops_first() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(100), 'b');
        assert_eq!(q.pop().unwrap().1, 'b');
        // The wheel origin sits at t=100; a heap would still accept and
        // order earlier times.
        q.push(SimTime::from_micros(7), 'a');
        q.push(SimTime::from_micros(100), 'c');
        q.push(SimTime::from_micros(7), 'z');
        assert_eq!(q.pop(), Some((SimTime::from_micros(7), 'a')));
        assert_eq!(q.pop(), Some((SimTime::from_micros(7), 'z')));
        assert_eq!(q.pop(), Some((SimTime::from_micros(100), 'c')));
    }

    #[test]
    fn far_future_times_cross_every_level() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(u64::MAX), 'w');
        q.push(SimTime::from_micros(u64::MAX / 2), 'v');
        q.push(SimTime::from_micros(3), 'a');
        assert_eq!(q.pop().unwrap().1, 'a');
        assert_eq!(q.pop().unwrap().1, 'v');
        assert_eq!(q.pop().unwrap().1, 'w');
        assert!(q.is_empty());
    }

    #[test]
    fn cascaded_equal_times_stay_fifo() {
        // Two entries at one far instant, pushed from different wheel
        // origins so they reach the shared level-0 bucket by different
        // cascade paths; the drain sort must restore sequence order.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(1 << 13);
        q.push(t, 'a');
        q.push(SimTime::from_micros(10), 'x');
        q.pop(); // advances the cursor to 10
        q.push(t, 'b');
        assert_eq!(q.pop(), Some((t, 'a')));
        assert_eq!(q.pop(), Some((t, 'b')));
    }
}
