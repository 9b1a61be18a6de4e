//! Observability for the `siteselect` workspace: a deterministic,
//! zero-overhead-when-off event-tracing pipeline.
//!
//! * [`EventSink`] — the shareable handle every subsystem emits into.
//!   Disabled (the default) an emit is a single branch and the payload
//!   closure never runs; enabled it appends to a bounded ring buffer and
//!   folds the event into streaming summaries.
//! * [`Event`] — the structured taxonomy: transaction lifecycle, H1
//!   admission decisions with their `n·ATL` terms, H2 candidate scores,
//!   grouped-lock windows, callbacks, and fault events.
//! * [`LogHistogram`] — HDR-style fixed-bucket log-linear histogram (≤3%
//!   relative error, no allocation after construction).
//! * [`ObsReport`] — the per-run summary (kind counts, latency / slack /
//!   tardiness histograms, per-site timelines).
//! * [`SpanKind`] / [`Event::Span`] — causal spans (admission, decision,
//!   network, lock wait, window residency, object away, disk, commit,
//!   retry, replay)
//!   emitted when an interval ends; the payload carries the start.
//! * [`blame`] — the critical-path extractor: per-transaction blame
//!   vectors that sum *exactly* to end-to-end latency, aggregated into
//!   a [`BlameReport`] with per-cause histograms and a top-K worst-miss
//!   listing.
//! * [`export`] — JSONL and Chrome `trace_event` writers whose output is
//!   byte-identical across runs at the same seed.
//!
//! # Example
//!
//! ```
//! use siteselect_obs::{export, Event, EventSink};
//! use siteselect_types::{ClientId, SimTime, SiteId, TransactionId};
//!
//! let sink = EventSink::enabled(1024);
//! let txn = TransactionId::new(ClientId(0), 1);
//! sink.emit(SimTime::from_micros(10), SiteId::Client(ClientId(0)), || {
//!     Event::TxnSubmit { txn, deadline: SimTime::from_micros(500), accesses: 4 }
//! });
//! sink.emit(SimTime::from_micros(410), SiteId::Client(ClientId(0)), || {
//!     Event::Commit { txn, latency_us: 400, slack_us: 90 }
//! });
//! let trace = sink.finish().unwrap();
//! assert_eq!(trace.report.kind_count("commit"), 1);
//! assert!(export::jsonl(&trace.records).lines().count() == 2);
//! ```

pub mod blame;
pub mod event;
pub mod export;
#[cfg(test)]
mod export_reference;
pub mod hist;
pub mod report;
pub mod sink;
pub mod span;
mod wire;
#[cfg(test)]
mod wire_fixture;

pub use blame::{fold_root, BlameReport, CauseStats, MetricsRegistry, PathSegment, TxnBlame};
pub use event::{abort_reason_str, outcome_str, Event, H2Candidate};
pub use hist::LogHistogram;
pub use report::{ObsReport, SiteSummary};
pub use sink::{EventSink, TraceData, TraceRecord};
pub use span::SpanKind;
