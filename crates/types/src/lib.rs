//! Shared vocabulary types for the `siteselect` workspace.
//!
//! This crate defines the identifiers, simulated-time arithmetic, lock modes,
//! transaction descriptions and configuration structures used by every other
//! crate in the reproduction of *Kanitkar & Delis, "Site Selection for
//! Real-Time Client Request Handling" (ICDCS 1999)*.
//!
//! The crate is dependency-light on purpose: it sits at the bottom of the
//! workspace dependency graph so that the storage, locking, workload, network
//! and system crates can all speak the same language without cycles.
//!
//! # Example
//!
//! ```
//! use siteselect_types::{ExperimentConfig, SystemKind, SimDuration};
//!
//! let cfg = ExperimentConfig::paper(SystemKind::LoadSharing, 60, 0.05);
//! assert_eq!(cfg.clients, 60);
//! assert_eq!(cfg.database.num_objects, 10_000);
//! assert_eq!(cfg.workload.mean_interarrival, SimDuration::from_secs(10));
//! cfg.validate().unwrap();
//! ```

pub mod config;
pub mod dense;
pub mod error;
pub mod hash;
pub mod ids;
pub mod inline;
pub mod lock;
pub mod time;
pub mod txn;

pub use config::{
    AccessPatternConfig, ClientConfig, CpuConfig, DatabaseConfig, DeadlinePolicy, DiskConfig,
    ExperimentConfig, FaultConfig, LanKind, LoadSharingConfig, NetworkConfig, RuntimeConfig,
    ServerConfig, SystemKind, WorkloadConfig,
};
pub use dense::{ObjectMap, ObjectSet, SlotIndex};
pub use error::ConfigError;
pub use hash::FixedState;
pub use ids::{ClientId, IdSink, IdText, ObjectId, SiteId, SubtaskId, TransactionId};
pub use inline::InlineVec;
pub use lock::LockMode;
pub use time::{SimDuration, SimTime};
pub use txn::{AbortReason, AccessSpec, TransactionSpec, TxnOutcome};
