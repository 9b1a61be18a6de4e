//! Support for the `repro` binary, which regenerates every table and
//! figure of the paper (`cargo run -p siteselect-bench --release --bin
//! repro -- all`).
//!
//! Performance is measured by the package under `src/bin/benchmark/`
//! (see its README.md), not here.

use siteselect_core::experiments::SweepOptions;
use siteselect_types::SimDuration;

/// Sweep options used by the `repro` binary: paper-scale by default,
/// reduced with `--quick`.
#[must_use]
pub fn repro_options(quick: bool) -> SweepOptions {
    if quick {
        SweepOptions {
            duration: SimDuration::from_secs(400),
            warmup: SimDuration::from_secs(80),
            ..SweepOptions::paper()
        }
    } else {
        SweepOptions::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_options_are_shorter() {
        let q = repro_options(true);
        let p = repro_options(false);
        assert!(q.duration < p.duration);
        assert!(q.warmup < q.duration);
    }
}
