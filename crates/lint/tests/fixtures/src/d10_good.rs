//! D10 negative: every hash container names `FixedState`, nested type
//! arguments and tuples included; test code may use std's defaults.
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use siteselect_types::FixedState;

static CACHE: Mutex<HashMap<(usize, u64), Vec<f64>, FixedState>> =
    Mutex::new(HashMap::with_hasher(FixedState));

struct Fabric {
    down: HashSet<u32, FixedState>,
    links: HashMap<(u32, u32), Vec<(u64, u64)>, FixedState>,
}

impl Fabric {
    fn new() -> Self {
        Fabric {
            down: HashSet::default(),
            links: HashMap::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn tests_may_use_the_default_hasher() {
        let m: HashMap<u32, u32> = HashMap::new();
        assert!(m.is_empty());
    }
}
