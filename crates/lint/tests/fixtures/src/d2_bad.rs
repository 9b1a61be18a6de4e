//! D2 positive: hash-ordered iteration in a deterministic crate whose
//! order escapes (returned, collected without a sort, or retained with
//! no provable fill-then-sort).
use std::collections::{HashMap, HashSet};

use siteselect_types::FixedState;

struct State {
    txns: HashMap<u64, u32, FixedState>,
}

impl State {
    fn sweep(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for (k, _v) in &self.txns {
            out.push(*k); // violation: `out` is returned unsorted
        }
        let live: HashSet<u64, FixedState> = HashSet::default();
        let _ids: Vec<u64> = live.iter().copied().collect(); // violation: collected, never sorted
        self.txns.retain(|_, v| *v > 0); // violation (closure sees hash order)
        out
    }
}
