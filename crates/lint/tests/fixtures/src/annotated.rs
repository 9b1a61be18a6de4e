//! Annotation case: deliberate violations suppressed in place, each
//! with a mandatory reason.
use std::collections::HashMap;

use siteselect_types::FixedState;

struct State {
    counts: HashMap<u64, u64, FixedState>,
}

impl State {
    fn total(&self) -> u64 {
        // detlint: allow(D2) — summing is independent of visit order
        self.counts.values().sum()
    }

    fn dead_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.counts.keys().copied().collect(); // detlint: allow(D2) — sorted on the next line
        keys.sort_unstable();
        keys
    }
}
