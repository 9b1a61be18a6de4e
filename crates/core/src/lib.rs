//! The three real-time database system models of *Kanitkar & Delis, "Site
//! Selection for Real-Time Client Request Handling" (ICDCS 1999)* and the
//! paper's load-sharing algorithm, as deterministic discrete-event
//! simulations.
//!
//! * [`Simulator`] (also named [`CentralizedSim`] and [`ClientServerSim`])
//!   — one event loop over sites that exchange messages, for all three
//!   systems. CE-RTDBS ([`centralized`]): all processing at the server,
//!   clients are terminals. CS-RTDBS and LS-CS-RTDBS ([`clientserver`]):
//!   object-shipping client-server with callback locking; the LS variant
//!   adds transaction shipping (heuristics H1/H2), transaction
//!   decomposition, deadline-ordered object request scheduling and grouped
//!   locks / forward lists.
//!   [`Simulator::site`] runs one site alone, with no clock and no
//!   threads, for a driver that carries its messages to the others (the
//!   threaded `siteselect-cluster`).
//! * [`run_experiment`] — one-call driver returning [`RunMetrics`].
//! * [`experiments`] — parameter sweeps that regenerate every figure and
//!   table of the paper's evaluation.
//!
//! # Example
//!
//! ```
//! use siteselect_core::run_experiment;
//! use siteselect_types::{ExperimentConfig, SimDuration, SystemKind};
//!
//! let mut cfg = ExperimentConfig::paper(SystemKind::ClientServer, 4, 0.05);
//! cfg.runtime.duration = SimDuration::from_secs(120); // keep the doctest fast
//! cfg.runtime.warmup = SimDuration::from_secs(20);
//! let metrics = run_experiment(&cfg).unwrap();
//! assert!(metrics.measured > 0);
//! assert!(metrics.is_consistent());
//! ```

pub mod centralized;
pub mod clientserver;
pub mod cpu;
pub mod driver;
pub mod experiments;
pub mod metrics;
pub mod report;
pub mod script;
mod server_core;

/// The allocation counter the unit tests of the decision path read.
#[cfg(test)]
#[path = "../tests/support/counting_alloc.rs"]
mod counting_alloc;

pub use clientserver::{Delivered, Parcel, Simulator};
/// The [`Simulator`], by the name CE runs have always used.
pub type CentralizedSim = Simulator;
/// The [`Simulator`], by the name CS and LS runs have always used.
pub type ClientServerSim = Simulator;
pub use driver::{run_experiment, run_experiment_traced};
pub use metrics::{
    CacheReport, FailureBreakdown, FaultReport, LoadSharingReport, ResponseReport, RunMetrics,
};
