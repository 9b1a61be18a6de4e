//! # siteselect
//!
//! A from-scratch Rust reproduction of *Kanitkar & Delis, "Site Selection
//! for Real-Time Client Request Handling" (ICDCS 1999)*: deadline-aware
//! data/transaction shipping for client-server real-time databases.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`types`] — identifiers, simulated time, lock modes, transactions and
//!   configuration (Table 1 presets);
//! * [`sim`] — the deterministic discrete-event kernel (event queue, PRNG,
//!   statistics);
//! * [`storage`] — the MiniRel-style paged-file layer and the two-tier
//!   client cache;
//! * [`locks`] — lock tables, callback locking with downgrade, wait-for
//!   graphs, forward lists and collection windows;
//! * [`workload`] — Table 1 workload generation and the Localized-RW access
//!   pattern;
//! * [`net`] — the shared-Ethernet model, message vocabulary and Table 4
//!   accounting;
//! * [`obs`] — deterministic event tracing: the [`obs::EventSink`], the
//!   structured event taxonomy (H1/H2 decisions, transaction lifecycle,
//!   faults), streaming log-linear histograms, and JSONL / Chrome-trace
//!   exporters;
//! * [`core`] — the three systems (CE-RTDBS, CS-RTDBS, LS-CS-RTDBS), the
//!   load-sharing algorithm (H1/H2, shipping, decomposition, grouped
//!   locks), and the experiment sweeps behind every figure and table;
//! * [`cluster`] — the engine's own CE, CS and LS sites on OS threads,
//!   one per site, talking over channels in scaled real time; their
//!   merged trace goes to the same oracles as a simulated run's.
//!
//! # Quickstart
//!
//! ```
//! use siteselect::core::run_experiment;
//! use siteselect::types::{ExperimentConfig, SimDuration, SystemKind};
//!
//! let mut cfg = ExperimentConfig::paper(SystemKind::LoadSharing, 8, 0.05);
//! cfg.runtime.duration = SimDuration::from_secs(200);
//! cfg.runtime.warmup = SimDuration::from_secs(40);
//! let metrics = run_experiment(&cfg)?;
//! println!("{:.1}% of transactions met their deadline", metrics.success_percent());
//! # Ok::<(), siteselect::types::ConfigError>(())
//! ```

pub use siteselect_check as check;
pub use siteselect_cluster as cluster;
pub use siteselect_core as core;
pub use siteselect_locks as locks;
pub use siteselect_net as net;
pub use siteselect_obs as obs;
pub use siteselect_sim as sim;
pub use siteselect_storage as storage;
pub use siteselect_types as types;
pub use siteselect_workload as workload;

/// Workspace version string.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }
}
