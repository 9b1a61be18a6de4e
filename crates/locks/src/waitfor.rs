//! Wait-for-graph deadlock detection.
//!
//! The paper's servers check every incoming object request against a
//! wait-for graph and enqueue it "only if it does not cause a deadlock cycle"
//! (§5.1). [`WaitForGraph::would_deadlock`] performs exactly that tentative
//! check; [`WaitForGraph::add_waits`] commits the edges once the request is
//! queued.
//!
//! The engine's sites answer the same question from their lock tables
//! ([`crate::LockTable::would_deadlock`]); this graph is the plain model:
//! a map from each waiter to whom it waits for, and a depth-first search.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use siteselect_types::FixedState;

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
    /// Whom each waiter waits for, without repeats or self-edges; a node
    /// that waits for nobody has no entry.
    waits: HashMap<N, Vec<N>, FixedState>,
}

impl<N: Copy + Eq + Hash> WaitForGraph<N> {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        WaitForGraph {
            waits: HashMap::default(),
        }
    }

    /// True if adding edges `waiter -> h` for each `h` in `holders` would
    /// close a cycle — i.e. some holder is `waiter` or already
    /// (transitively) waits for it.
    #[must_use]
    pub fn would_deadlock(
        &self,
        waiter: N,
        holders: impl IntoIterator<Item = impl Borrow<N>>,
    ) -> bool {
        self.reaches(holders.into_iter().map(|h| *h.borrow()).collect(), waiter)
    }

    /// Does a walk from the nodes on `stack` (themselves included) reach
    /// `target` through wait edges?
    fn reaches(&self, mut stack: Vec<N>, target: N) -> bool {
        let mut seen: HashSet<N, FixedState> = HashSet::default();
        while let Some(n) = stack.pop() {
            if n == target {
                return true;
            }
            if seen.insert(n) {
                stack.extend(self.waits.get(&n).into_iter().flatten().copied());
            }
        }
        false
    }

    /// Records that `waiter` now waits for each of `holders`.
    pub fn add_waits(&mut self, waiter: N, holders: impl IntoIterator<Item = N>) {
        for h in holders.into_iter().filter(|&h| h != waiter) {
            let out = self.waits.entry(waiter).or_default();
            if !out.contains(&h) {
                out.push(h);
            }
        }
    }

    /// Exhaustive cycle check (O(V·E)); used by tests to validate that the
    /// incremental `would_deadlock` gate keeps the graph acyclic.
    #[must_use]
    pub fn has_cycle(&self) -> bool {
        // detlint: allow(D2) — `.any()` over a pure predicate is an order-free fold
        self.waits.iter().any(|(&n, out)| self.reaches(out.clone(), n))
    }
}

impl<N: Copy + Eq + Hash> Default for WaitForGraph<N> {
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
    fn self_edges_are_ignored_on_insert() {
        let mut g = WaitForGraph::new();
        g.add_waits(1, [1]);
        assert!(g.waits.is_empty());
        assert!(!g.has_cycle());
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
        }
    }

    #[test]
    fn multi_holder_check() {
        let mut g = WaitForGraph::new();
        g.add_waits(5, [6]);
        // 6 waiting for 7 is safe; waiting for 5 as well closes 6 -> 5 -> 6.
        assert!(!g.would_deadlock(6, [7]));
        assert!(g.would_deadlock(6, [7, 5]));
    }
}
