//! The pre-index `HashMap<N, HashSet<N>>` wait-for graph, kept verbatim as
//! a test-only reference oracle.
//!
//! [`crate::waitfor::RefWaitForGraph`] must answer every question exactly as
//! this implementation does. The property test at the bottom of this module
//! drives both with long random operation sequences and compares the
//! verdict of every probe, the counters, `has_cycle` and the all-pairs
//! `would_deadlock` matrix after every step.

use std::collections::{HashMap, HashSet};
use std::fmt::Debug;
use std::hash::Hash;

#[derive(Debug, Clone)]
pub struct RefWaitForGraph<N> {
    edges: HashMap<N, HashSet<N>>,
}

impl<N: Copy + Eq + Hash + Debug> RefWaitForGraph<N> {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        RefWaitForGraph {
            edges: HashMap::new(),
        }
    }

    /// True if adding edges `waiter -> h` for each `h` in `holders` would
    /// close a cycle — i.e. some holder already (transitively) waits for
    /// `waiter`.
    #[must_use]
    pub fn would_deadlock(&self, waiter: N, holders: &[N]) -> bool {
        holders.iter().any(|&h| h == waiter || self.reaches(h, waiter))
    }

    /// DFS reachability: does `from` reach `to` through wait edges?
    fn reaches(&self, from: N, to: N) -> bool {
        let mut stack = vec![from];
        let mut seen = HashSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = self.edges.get(&n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    /// Records that `waiter` now waits for each of `holders`.
    pub fn add_waits(&mut self, waiter: N, holders: impl IntoIterator<Item = N>) {
        let set = self.edges.entry(waiter).or_default();
        for h in holders {
            if h != waiter {
                set.insert(h);
            }
        }
        if set.is_empty() {
            self.edges.remove(&waiter);
        }
    }

    /// Removes every outgoing edge of `waiter` (it stopped waiting).
    pub fn clear_waits(&mut self, waiter: N) {
        self.edges.remove(&waiter);
    }

    /// Removes one specific wait edge.
    pub fn remove_edge(&mut self, waiter: N, holder: N) {
        if let Some(set) = self.edges.get_mut(&waiter) {
            set.remove(&holder);
            if set.is_empty() {
                self.edges.remove(&waiter);
            }
        }
    }

    /// Removes a node entirely: its outgoing edges and every edge pointing
    /// at it (the owner released everything).
    pub fn remove_node(&mut self, node: N) {
        self.edges.remove(&node);
        // detlint: allow(D2) — per-entry removal; result independent of visit order
        self.edges.retain(|_, set| {
            set.remove(&node);
            !set.is_empty()
        });
    }

    /// Number of nodes with outgoing edges.
    #[must_use]
    pub fn waiting_nodes(&self) -> usize {
        self.edges.len()
    }

    /// Total number of wait edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        // detlint: allow(D2) — `.sum()` of set sizes is an order-free fold
        self.edges.values().map(HashSet::len).sum()
    }

    /// Exhaustive cycle check (O(V·E)); used by tests to validate that the
    /// incremental `would_deadlock` gate keeps the graph acyclic.
    #[must_use]
    pub fn has_cycle(&self) -> bool {
        // detlint: allow(D2) — `.any()` over a pure predicate is an order-free fold
        self.edges.keys().any(|&n| self.reaches_via_edges(n))
    }

    fn reaches_via_edges(&self, start: N) -> bool {
        // Does `start` reach itself through at least one edge?
        let mut stack: Vec<N> = self
            .edges
            .get(&start)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let mut seen = HashSet::new();
        while let Some(n) = stack.pop() {
            if n == start {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = self.edges.get(&n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::waitfor::WaitForGraph;

    struct Xorshift(u64);

    impl Xorshift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, bound: u64) -> u16 {
            (self.next() % bound) as u16
        }
    }

    /// Asserts everything observable about the two graphs agrees.
    fn assert_same_state(
        graph: &WaitForGraph<u16>,
        oracle: &RefWaitForGraph<u16>,
        nodes: u16,
        at: &str,
    ) {
        graph.check_invariants().unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(graph.waiting_nodes(), oracle.waiting_nodes(), "waiting_nodes at {at}");
        assert_eq!(graph.edge_count(), oracle.edge_count(), "edge_count at {at}");
        assert_eq!(graph.has_cycle(), oracle.has_cycle(), "has_cycle at {at}");
        for a in 0..nodes {
            for b in 0..nodes {
                assert_eq!(
                    graph.would_deadlock(a, [b]),
                    oracle.would_deadlock(a, &[b]),
                    "would_deadlock({a}, [{b}]) at {at}"
                );
            }
        }
    }

    /// Full coverage in optimized builds (`scripts/ci.sh` runs this suite
    /// with `--release`); the all-pairs matrix against the allocating
    /// oracle after every step is what costs, so debug builds run a slice
    /// and Miri, where each interpreted case costs ~10000x, a thin one.
    const CASES: u64 = if cfg!(miri) {
        2
    } else if cfg!(debug_assertions) {
        16
    } else {
        300
    };
    const STEPS: usize = if cfg!(miri) { 60 } else { 400 };

    #[test]
    fn indexed_graph_matches_hashmap_oracle() {
        for case in 0..CASES {
            let mut rng = Xorshift(0x9E37_79B9_7F4A_7C15 ^ (case + 1));
            let nodes = 3 + rng.below(38);
            let mut graph: WaitForGraph<u16> = WaitForGraph::new();
            let mut oracle: RefWaitForGraph<u16> = RefWaitForGraph::new();
            for step in 0..STEPS {
                let a = rng.below(u64::from(nodes));
                let b = rng.below(u64::from(nodes));
                // Up to four holders, repeats and the waiter itself included.
                let holders: Vec<u16> = (0..rng.below(5))
                    .map(|_| rng.below(u64::from(nodes)))
                    .collect();
                let at = format!("case {case} step {step}");
                match rng.below(10) {
                    // Ungated: cycles are allowed to form, both graphs must
                    // agree on them too.
                    0..=2 => {
                        graph.add_waits(a, holders.iter().copied());
                        oracle.add_waits(a, holders.iter().copied());
                    }
                    // Gated, as the engines use it.
                    3..=4 => {
                        let verdict = graph.would_deadlock(a, &holders);
                        assert_eq!(verdict, oracle.would_deadlock(a, &holders), "verdict at {at}");
                        if !verdict {
                            graph.add_waits(a, holders.iter().copied());
                            oracle.add_waits(a, holders.iter().copied());
                        }
                    }
                    5 => {
                        graph.clear_waits(a);
                        oracle.clear_waits(a);
                    }
                    6..=7 => {
                        graph.remove_edge(a, b);
                        oracle.remove_edge(a, b);
                    }
                    _ => {
                        graph.remove_node(a);
                        oracle.remove_node(a);
                    }
                }
                assert_same_state(&graph, &oracle, nodes, &at);
            }
        }
    }
}
