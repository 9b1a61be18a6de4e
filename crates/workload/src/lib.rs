//! Workload generation for the `siteselect` experiments.
//!
//! Reproduces the paper's Table 1 workload: per-client Poisson transaction
//! arrivals (mean inter-arrival 10 s), exponential transaction lengths
//! (mean 10 s) and deadlines (mean offset 20 s), ten objects per transaction
//! on average, a configurable per-access update probability, 10% decomposable
//! transactions, and the **Localized-RW** access pattern (75% of accesses
//! uniform within a per-client hot region, 25% Zipf over the remainder).
//!
//! # Example
//!
//! ```
//! use siteselect_sim::Prng;
//! use siteselect_types::{ClientId, SimDuration, WorkloadConfig};
//! use siteselect_workload::TransactionGenerator;
//!
//! let cfg = WorkloadConfig::default();
//! let mut gen = TransactionGenerator::new(
//!     ClientId(0),
//!     &cfg,
//!     0.1,        // CPU fraction of nominal length
//!     10_000,     // database objects
//!     20,         // clients in the cluster
//!     Prng::seed_from_u64(1),
//! );
//! let txns = gen.generate_until(SimDuration::from_secs(100));
//! assert!(!txns.is_empty());
//! assert!(txns.windows(2).all(|w| w[0].arrival <= w[1].arrival));
//! ```

pub mod access;
pub mod dist;
pub mod trace;
pub mod txngen;

pub use access::LocalizedRw;
pub use dist::Zipf;
pub use trace::Trace;
pub use txngen::TransactionGenerator;
