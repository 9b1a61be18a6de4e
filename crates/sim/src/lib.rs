//! Discrete-event simulation kernel for the `siteselect` workspace.
//!
//! Three building blocks, all deterministic:
//!
//! * [`EventQueue`] — a time-ordered event queue with FIFO tie-breaking, so
//!   identical inputs replay identically;
//! * [`Prng`] — an in-tree xoshiro256++ generator (seeded via SplitMix64)
//!   with the sampling helpers the simulator needs, independent of external
//!   crate version drift;
//! * [`stats`] — streaming statistics: Welford mean/variance, fixed-bucket
//!   histograms with percentile queries, ratios, time-weighted averages and
//!   labelled counters.
//!
//! # Example
//!
//! ```
//! use siteselect_sim::EventQueue;
//! use siteselect_types::SimTime;
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.push(SimTime::from_secs(2), "b");
//! q.push(SimTime::from_secs(1), "a");
//! q.push(SimTime::from_secs(2), "c"); // same instant: FIFO order preserved
//! let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
//! assert_eq!(order, vec!["a", "b", "c"]);
//! ```

pub mod queue;
pub mod rng;
pub mod stats;

pub use queue::EventQueue;
pub use rng::Prng;
pub use stats::{OnlineStats, Ratio};
