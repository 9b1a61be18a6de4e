//! Wait-for-graph deadlock detection.
//!
//! The paper's servers check every incoming object request against a
//! wait-for graph and enqueue it "only if it does not cause a deadlock cycle"
//! (§5.1). [`WaitForGraph::would_deadlock`] performs exactly that tentative
//! check; [`WaitForGraph::add_waits`] commits the edges once the request is
//! queued.
//!
//! Nodes are interned: one `N -> slot` map turns an owner into a small
//! index, and each slot lists both whom it waits for and who waits for it.
//! A check, and the removal of a node or of its waits, then costs what that
//! node touches, not the size of the graph (DESIGN.md §15).

use std::borrow::Borrow;
#[cfg(test)]
use std::cell::Cell;
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

use siteselect_types::FixedState;

/// One interned node. Live while it has an edge in either direction; an
/// idle slot goes back on the free list with its vectors' capacity intact.
#[derive(Debug, Clone)]
struct Slot<N> {
    node: N,
    /// Slots this node waits for.
    out: Vec<u32>,
    /// Slots waiting for this node.
    inn: Vec<u32>,
}

impl<N> Slot<N> {
    fn is_idle(&self) -> bool {
        self.out.is_empty() && self.inn.is_empty()
    }
}

/// Scratch of the cycle walk. `marks[s] == epoch` means slot `s` was
/// reached by the walk in progress; bumping the epoch unmarks everything.
/// `marks` is as long as the slot vector and `stack` has room for every
/// slot (each is pushed at most once), so a walk never allocates.
#[derive(Debug, Clone, Default)]
struct Walk {
    epoch: u32,
    marks: Vec<u32>,
    stack: Vec<u32>,
}

impl Walk {
    fn begin(&mut self) {
        self.stack.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stamps from 2^32 walks ago would read as fresh.
            self.marks.fill(0);
            self.epoch = 1;
        }
    }

    /// Queues `s` unless this walk already reached it.
    fn reach(&mut self, s: u32) {
        if let Some(mark) = self.marks.get_mut(s as usize) {
            if *mark != self.epoch {
                *mark = self.epoch;
                self.stack.push(s);
            }
        }
    }
}

/// A directed graph of "waits-for" edges between lock owners.
///
/// # Example
///
/// ```
/// use siteselect_locks::WaitForGraph;
///
/// let mut g: WaitForGraph<u32> = WaitForGraph::new();
/// g.add_waits(1, [2]);
/// g.add_waits(2, [3]);
/// assert!(g.would_deadlock(3, &[1])); // 3 -> 1 -> 2 -> 3 closes a cycle
/// assert!(!g.would_deadlock(3, &[4]));
/// ```
#[derive(Debug, Clone)]
pub struct WaitForGraph<N> {
    index: HashMap<N, u32, FixedState>,
    slots: Vec<Slot<N>>,
    free: Vec<u32>,
    /// Slots with at least one out-edge.
    waiting: usize,
    edges: usize,
    /// `would_deadlock` takes `&self`; its scratch is the one interior-
    /// mutable part.
    walk: RefCell<Walk>,
    /// Nodes visited by cycle walks and neighbours visited by unlinking;
    /// the shape tests read it.
    #[cfg(test)]
    visits: Cell<u64>,
}

/// Removes `x` from an adjacency list (they hold no duplicates).
fn unlink(list: &mut Vec<u32>, x: u32) {
    if let Some(pos) = list.iter().position(|&e| e == x) {
        list.swap_remove(pos);
    }
}

impl<N: Copy + Eq + Hash + Debug> WaitForGraph<N> {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        WaitForGraph {
            index: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            waiting: 0,
            edges: 0,
            walk: RefCell::default(),
            #[cfg(test)]
            visits: Cell::new(0),
        }
    }

    #[inline]
    fn note_visit(&self) {
        #[cfg(test)]
        self.visits.set(self.visits.get() + 1);
    }

    fn slot(&self, s: u32) -> &Slot<N> {
        // detlint: allow(D9) — slot ids come from `index` and the adjacency lists, which hold only ids handed out by `intern` (< slots.len())
        &self.slots[s as usize]
    }

    fn slot_mut(&mut self, s: u32) -> &mut Slot<N> {
        // detlint: allow(D9) — same invariant as `slot`
        &mut self.slots[s as usize]
    }

    /// The slot of `node`, created (from the free list when possible) if
    /// the node has none. The caller must give it an edge.
    fn intern(&mut self, node: N) -> u32 {
        match self.index.entry(node) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let s = if let Some(s) = self.free.pop() {
                    // detlint: allow(D9) — the free list holds ids handed out below
                    self.slots[s as usize].node = node;
                    s
                } else {
                    // detlint: allow(D9) — one slot per concurrently waiting owner; 2^32 of them do not fit in memory
                    let s = u32::try_from(self.slots.len()).expect("under 2^32 live owners");
                    let (out, inn) = (Vec::new(), Vec::new());
                    self.slots.push(Slot { node, out, inn });
                    let walk = self.walk.get_mut();
                    walk.marks.push(0);
                    walk.stack.clear();
                    walk.stack.reserve(self.slots.len());
                    s
                };
                *e.insert(s)
            }
        }
    }

    /// Retires `s` if its last edge just went.
    fn release_if_idle(&mut self, s: u32) {
        let slot = self.slot(s);
        if slot.is_idle() {
            let node = slot.node;
            self.index.remove(&node);
            self.free.push(s);
        }
    }

    /// True if adding edges `waiter -> h` for each `h` in `holders` would
    /// close a cycle — i.e. some holder already (transitively) waits for
    /// `waiter`. `holders` is walked once, so a borrowed view (a slice, a
    /// lock table's conflict iterator) does as well as an owned list.
    #[must_use]
    pub fn would_deadlock(
        &self,
        waiter: N,
        holders: impl IntoIterator<Item = impl Borrow<N>>,
    ) -> bool {
        let target = match self.index.get(&waiter) {
            Some(&t) if !self.slot(t).inn.is_empty() => t,
            // Nobody waits for `waiter`, so no path ends at it: only a
            // literal self-wait counts.
            _ => return holders.into_iter().any(|h| *h.borrow() == waiter),
        };
        // One walk shared by all holders, over slot indices only.
        let mut walk = self.walk.borrow_mut();
        walk.begin();
        for h in holders {
            let h = *h.borrow();
            if h == waiter {
                return true;
            }
            if let Some(&s) = self.index.get(&h) {
                walk.reach(s);
            }
        }
        while let Some(s) = walk.stack.pop() {
            self.note_visit();
            for &next in &self.slot(s).out {
                if next == target {
                    return true;
                }
                walk.reach(next);
            }
        }
        false
    }

    /// Records that `waiter` now waits for each of `holders`.
    pub fn add_waits(&mut self, waiter: N, holders: impl IntoIterator<Item = N>) {
        // The waiter is interned only once a holder other than itself shows
        // up, so no slot is ever left without an edge.
        let mut from = None;
        for h in holders.into_iter().filter(|&h| h != waiter) {
            let w = *from.get_or_insert_with(|| self.intern(waiter));
            let to = self.intern(h);
            let out = &mut self.slot_mut(w).out;
            if out.contains(&to) {
                continue;
            }
            out.push(to);
            self.waiting += usize::from(out.len() == 1);
            self.slot_mut(to).inn.push(w);
            self.edges += 1;
        }
    }

    /// Drops every out-edge of slot `s`, then retires it if nothing waits
    /// for it either.
    fn clear_out(&mut self, s: u32) {
        let mut out = std::mem::take(&mut self.slot_mut(s).out);
        self.waiting -= usize::from(!out.is_empty());
        self.edges -= out.len();
        for to in out.drain(..) {
            self.note_visit();
            unlink(&mut self.slot_mut(to).inn, s);
            self.release_if_idle(to);
        }
        self.slot_mut(s).out = out;
        self.release_if_idle(s);
    }

    /// Removes every outgoing edge of `waiter` (it stopped waiting).
    pub fn clear_waits(&mut self, waiter: N) {
        if let Some(&s) = self.index.get(&waiter) {
            self.clear_out(s);
        }
    }

    /// Removes one specific wait edge.
    pub fn remove_edge(&mut self, waiter: N, holder: N) {
        let (Some(&w), Some(&h)) = (self.index.get(&waiter), self.index.get(&holder)) else {
            return;
        };
        let out = &mut self.slot_mut(w).out;
        let before = out.len();
        unlink(out, h);
        if out.len() == before {
            return;
        }
        self.waiting -= usize::from(out.is_empty());
        self.edges -= 1;
        self.note_visit();
        unlink(&mut self.slot_mut(h).inn, w);
        self.release_if_idle(h);
        self.release_if_idle(w);
    }

    /// Removes a node entirely: its outgoing edges and every edge pointing
    /// at it (the owner released everything).
    pub fn remove_node(&mut self, node: N) {
        let Some(&s) = self.index.get(&node) else {
            return;
        };
        let mut inn = std::mem::take(&mut self.slot_mut(s).inn);
        self.edges -= inn.len();
        for from in inn.drain(..) {
            self.note_visit();
            let out = &mut self.slot_mut(from).out;
            unlink(out, s);
            if out.is_empty() {
                self.waiting -= 1;
                self.release_if_idle(from);
            }
        }
        self.slot_mut(s).inn = inn;
        self.clear_out(s);
    }

    /// Number of nodes with outgoing edges.
    #[must_use]
    pub fn waiting_nodes(&self) -> usize {
        self.waiting
    }

    /// Total number of wait edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Exhaustive cycle check (O(V·E)); used by tests to validate that the
    /// incremental `would_deadlock` gate keeps the graph acyclic.
    #[must_use]
    pub fn has_cycle(&self) -> bool {
        // A node is on a cycle exactly when something it waits for waits,
        // transitively, for it.
        self.slots.iter().any(|slot| {
            let holders: Vec<N> = slot.out.iter().map(|&to| self.slot(to).node).collect();
            self.would_deadlock(slot.node, &holders)
        })
    }

    /// Internal consistency check (tests / debug builds): the forward and
    /// reverse indexes describe the same edges, the counters match them,
    /// every live slot has an edge and the interner knows exactly the live
    /// slots.
    pub fn check_invariants(&self) -> Result<(), String> {
        let (mut live, mut waiting, mut outs, mut ins) = (0, 0, 0, 0);
        for (slot, s) in self.slots.iter().zip(0u32..) {
            let node = slot.node;
            if slot.is_idle() {
                if self.free.iter().filter(|&&f| f == s).count() != 1 {
                    return Err(format!("idle slot {s} is not on the free list once"));
                }
                continue;
            }
            live += 1;
            waiting += usize::from(!slot.out.is_empty());
            outs += slot.out.len();
            ins += slot.inn.len();
            if self.index.get(&node) != Some(&s) || self.free.contains(&s) {
                return Err(format!("live slot {s} ({node:?}) not interned, or free"));
            }
            // No list repeats an entry and every out-edge has its mirror;
            // with equal totals (below) the two indexes then hold the same
            // edge set.
            for list in [&slot.out, &slot.inn] {
                let repeats = |(k, &e)| e == s || list.iter().skip(k + 1).any(|&x| x == e);
                if list.iter().enumerate().any(repeats) {
                    return Err(format!("{node:?}: self or repeated edge in {list:?}"));
                }
            }
            let mirrored = |&to| (self.slots.get(to as usize)).is_some_and(|p| p.inn.contains(&s));
            if !slot.out.iter().all(mirrored) {
                return Err(format!(
                    "{node:?}: an out-edge of {:?} has no mirror",
                    slot.out
                ));
            }
        }
        let marks = self.walk.borrow().marks.len();
        let free = self.free.len();
        let found = (self.index.len(), free, self.waiting, self.edges, ins, marks);
        let all = self.slots.len();
        let expected = (live, all - live, waiting, outs, outs, all);
        if found == expected {
            Ok(())
        } else {
            Err(format!(
                "(interned, free, waiting, edges, in-edges, marks) = {found:?}, expected {expected:?}"
            ))
        }
    }

    /// Nodes visited so far by cycle walks and by edge unlinking.
    #[cfg(test)]
    pub(crate) fn visits(&self) -> u64 {
        self.visits.get()
    }
}

impl<N: Copy + Eq + Hash + Debug> Default for WaitForGraph<N> {
    fn default() -> Self {
        WaitForGraph::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_cycle_detected() {
        let mut g = WaitForGraph::new();
        g.add_waits(1, [2]);
        assert!(g.would_deadlock(2, [1]));
        assert!(!g.would_deadlock(2, [3]));
    }

    #[test]
    fn transitive_cycle_detected() {
        let mut g = WaitForGraph::new();
        g.add_waits(1, [2]);
        g.add_waits(2, [3]);
        g.add_waits(3, [4]);
        assert!(g.would_deadlock(4, [1]));
        assert!(g.would_deadlock(4, [2]));
        assert!(!g.would_deadlock(4, [5]));
    }

    #[test]
    fn self_wait_counts_as_deadlock() {
        let g: WaitForGraph<u32> = WaitForGraph::new();
        assert!(g.would_deadlock(1, [1]));
    }

    #[test]
    fn clear_waits_breaks_cycle_risk() {
        let mut g = WaitForGraph::new();
        g.add_waits(1, [2]);
        g.clear_waits(1);
        assert!(!g.would_deadlock(2, [1]));
        assert_eq!(g.waiting_nodes(), 0);
    }

    #[test]
    fn remove_edge_is_precise() {
        let mut g = WaitForGraph::new();
        g.add_waits(1, [2, 3]);
        g.remove_edge(1, 2);
        assert!(!g.would_deadlock(2, [1]));
        assert!(g.would_deadlock(3, [1]));
        g.remove_edge(1, 3);
        assert_eq!(g.waiting_nodes(), 0);
    }

    #[test]
    fn remove_node_removes_incoming_edges() {
        let mut g = WaitForGraph::new();
        g.add_waits(1, [2]);
        g.add_waits(3, [2]);
        g.remove_node(2);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.would_deadlock(2, [1]));
    }

    #[test]
    fn self_edges_are_ignored_on_insert() {
        let mut g = WaitForGraph::new();
        g.add_waits(1, [1]);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn gate_keeps_graph_acyclic() {
        let mut g = WaitForGraph::new();
        // Build a random-ish wait pattern, only committing edges that the
        // gate approves; the graph must stay acyclic throughout.
        let mut x = 0x12345u64;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let waiter = (x % 20) as u32;
            let holder = ((x >> 8) % 20) as u32;
            if waiter != holder && !g.would_deadlock(waiter, [holder]) {
                g.add_waits(waiter, [holder]);
            }
            assert!(!g.has_cycle());
            if x.is_multiple_of(7) {
                g.remove_node(((x >> 16) % 20) as u32);
            }
        }
    }

    /// A 1 000-node chain `0 -> 1 -> ... -> 999`.
    fn chain() -> WaitForGraph<u32> {
        let mut g = WaitForGraph::new();
        for i in 0..999 {
            g.add_waits(i, [i + 1]);
        }
        g.check_invariants().unwrap();
        g
    }

    #[test]
    fn probing_a_waiter_nobody_waits_for_visits_nothing() {
        let g = chain();
        let before = g.visits();
        // The head of the chain has only out-edges; 5 000 is not in the
        // graph at all. Neither can be on a cycle, whatever the holders.
        assert!(!g.would_deadlock(0, [500, 999]));
        assert!(!g.would_deadlock(5_000, [0, 1, 2]));
        assert!(g.would_deadlock(5_000, [0, 5_000]));
        assert_eq!(g.visits(), before);
    }

    #[test]
    fn multi_holder_probe_visits_each_node_at_most_once() {
        let g = chain();
        // Node 10 is waited for (by 9), so the walk runs; nothing
        // downstream of the holders leads back to 10, so it runs to the
        // end. The three holders' sub-chains overlap: a per-holder search
        // would visit 500 + 300 + 100 nodes, the shared one visits the 500
        // nodes 500..=999 once each.
        let before = g.visits();
        assert!(!g.would_deadlock(10, [500, 700, 900]));
        assert_eq!(g.visits() - before, 500);
        let before = g.visits();
        assert!(g.would_deadlock(990, [985, 700]));
        assert!(g.visits() - before <= 300);
    }

    #[test]
    fn removing_a_leaf_touches_only_its_neighbours() {
        let mut g = chain();
        // A hub: 600 extra waiters on node 0, which must not be visited
        // when the far end of the chain goes.
        for w in 2_000..2_600 {
            g.add_waits(w, [0]);
        }
        let before = g.visits();
        g.remove_node(999);
        assert_eq!(g.visits() - before, 1, "999's one neighbour is 998");
        let before = g.visits();
        g.clear_waits(500);
        assert_eq!(g.visits() - before, 1, "500 waited for 501 alone");
        let before = g.visits();
        g.remove_edge(2_000, 0);
        assert_eq!(g.visits() - before, 1, "one edge, one far end");
        let before = g.visits();
        g.remove_node(0);
        assert_eq!(g.visits() - before, 600, "599 waiters and the one holder");
        g.check_invariants().unwrap();
        // Left: the chain 1 -> ... -> 500 and 501 -> ... -> 998.
        assert_eq!(g.waiting_nodes(), 499 + 497);
        assert_eq!(g.edge_count(), 499 + 497);
    }

    #[test]
    fn slots_are_recycled() {
        let mut g = WaitForGraph::new();
        for round in 0..50u32 {
            for i in 0..20 {
                g.add_waits(round * 100 + i, [round * 100 + i + 1]);
            }
            for i in 0..=20 {
                g.remove_node(round * 100 + i);
            }
            g.check_invariants().unwrap();
            assert_eq!(g.waiting_nodes(), 0);
        }
        assert_eq!(g.slots.len(), 21);
    }

    #[test]
    fn multi_holder_check() {
        let mut g = WaitForGraph::new();
        g.add_waits(5, [6]);
        // Waiting on {7, 6-chain-to-5}? 6 doesn't reach 5... 5 waits for 6,
        // so 6 reaching 5 requires an edge 6->...; none exists.
        assert!(!g.would_deadlock(6, [7]));
        assert!(g.would_deadlock(6, [7, 5]));
    }
}
