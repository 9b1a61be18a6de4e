//! D2 negative: ordered structures iterate freely; hash maps are only
//! probed point-wise, or iterated where the annotation names the
//! order-free fold or the sort that keeps the order from escaping.
use std::collections::{BTreeMap, HashMap};

use siteselect_types::FixedState;

struct State {
    by_time: BTreeMap<u64, u32>,
    index: HashMap<u64, u32, FixedState>,
}

impl State {
    fn scan(&self) -> (u32, Option<u32>) {
        let mut total = 0;
        for (_k, v) in &self.by_time {
            total += *v; // BTreeMap: deterministic order
        }
        (total, self.index.get(&7).copied())
    }

    fn summarize(&self) -> (usize, u32, Vec<u64>) {
        // detlint: allow(D2) — `.count()` is an order-free fold
        let live = self.index.values().filter(|v| **v > 0).count();
        // detlint: allow(D2) — `.sum()` is an order-free fold
        let total: u32 = self.index.values().sum();
        // detlint: allow(D2) — `keys.sort_unstable()` on the next line
        let mut keys: Vec<u64> = self.index.keys().copied().collect();
        keys.sort_unstable();
        (live, total, keys)
    }

    fn reindex(&self) -> BTreeMap<u64, u32> {
        // detlint: allow(D2) — collected into a `BTreeMap`, which orders by key
        self.index.iter().map(|(k, v)| (*k, *v)).collect::<BTreeMap<u64, u32>>()
    }
}
