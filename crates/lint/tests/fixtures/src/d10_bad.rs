//! D10 positive: hash containers on std's per-process random hasher, by
//! type (no hasher argument) and by the constructors that only exist for it.
use std::collections::{HashMap, HashSet};

struct Fabric {
    down: HashSet<u32>,
    links: HashMap<(u32, u32), Vec<(u64, u64)>>,
}

fn build() -> usize {
    let seen: HashSet<u64, FixedState> = HashSet::with_capacity(8);
    seen.len()
}
