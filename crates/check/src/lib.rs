//! Correctness oracles for the `siteselect` simulators, fed by the
//! deterministic event-trace pipeline (`siteselect-obs`):
//!
//! * [`serializability`] — replays [`Event::LockHeld`] / [`Event::UnitEnd`]
//!   lock episodes of committed execution units and runs cycle detection
//!   over the per-object conflict graph. Under strict 2PL the graph must be
//!   acyclic; overlapping conflicting episodes produce a 2-cycle.
//! * [`coherence`] — replays the callback-protocol cache events
//!   ([`Event::CacheInstall`] / `CacheDowngrade` / `CacheDrop` /
//!   `CacheWipe`) and enforces the invariant that an exclusive cached lock
//!   excludes every other client's cached lock on the same object.
//! * [`deadline`] — recounts [`Event::TxnSubmit`] / [`Event::Outcome`]
//!   pairs: every measured admission ends in exactly one terminal
//!   disposition, and the recount must equal the reported [`RunMetrics`].
//! * [`recovery`] — replays the WAL history ([`Event::WalWrite`] /
//!   `WalCommit` / `WalAbort`) against each post-restart state dump and
//!   asserts the durability contract: committed effects survive a
//!   crash-restart, aborted and loser effects never resurface.
//!
//! Each oracle is a state value fed one record at a time (`observe`) and
//! asked for its verdict at the end (`finish`); [`check_trace`] feeds all
//! four in one pass, and every module's `check` is the same thing for one
//! oracle alone.
//!
//! [`explore`] is the `simcheck` harness: a randomized schedule explorer
//! fanning seeds across system × update-rate × fault-profile cells, with a
//! greedy deterministic shrinker that minimizes a failing case and prints a
//! replayable `repro trace` command. [`synthetic`] builds known-bad
//! histories proving each oracle actually fires.
//!
//! [`Event::LockHeld`]: siteselect_obs::Event::LockHeld
//! [`Event::UnitEnd`]: siteselect_obs::Event::UnitEnd
//! [`Event::CacheInstall`]: siteselect_obs::Event::CacheInstall
//! [`Event::TxnSubmit`]: siteselect_obs::Event::TxnSubmit
//! [`Event::Outcome`]: siteselect_obs::Event::Outcome
//! [`Event::WalWrite`]: siteselect_obs::Event::WalWrite

use std::fmt;

use siteselect_core::{run_experiment_traced, RunMetrics};
use siteselect_obs::TraceData;
use siteselect_types::{ExperimentConfig, SimTime};

/// Builds a [`Violation`] (capturing `file:line`) and returns it as `Err`.
macro_rules! fail {
    ($oracle:expr, $($arg:tt)*) => {
        return Err($crate::Violation {
            oracle: $oracle,
            at: concat!(file!(), ":", line!()),
            detail: format!($($arg)*),
            replay: None,
        })
    };
}

pub mod coherence;
pub mod deadline;
pub mod explore;
pub mod recovery;
pub mod serializability;
pub mod synthetic;

/// Ring capacity used when the oracles attach tracing to a run. The
/// harness refuses to judge a truncated trace, so this must comfortably
/// exceed the event count of any explorer-scale run.
pub const TRACE_CAPACITY: usize = 1 << 21;

/// One oracle failure: which oracle, where in the oracle source the check
/// fired, what went wrong, and (when the harness knows it) how to replay
/// the offending run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Oracle name: `serializability`, `coherence`, `deadline`, `recovery`,
    /// or `harness` for infrastructure failures (e.g. a truncated trace).
    pub oracle: &'static str,
    /// `file:line` of the check that fired, for grep-ability.
    pub at: &'static str,
    /// Human-readable description of the violated invariant.
    pub detail: String,
    /// A shell command that reproduces the offending run, when known.
    pub replay: Option<String>,
}

impl Violation {
    /// Attaches a replay command to the violation.
    #[must_use]
    pub fn with_replay(mut self, cmd: String) -> Self {
        self.replay = Some(cmd);
        self
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} violation at {}: {}", self.oracle, self.at, self.detail)?;
        if let Some(replay) = &self.replay {
            write!(f, "\n  replay: {replay}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Violation {}

/// Runs all four oracles over a captured trace: one walk over the records
/// feeds every oracle's state, then the oracles give their verdicts in the
/// order serializability, coherence, deadline, recovery.
///
/// `warmup_end` is the instant the measurement window opened
/// (`SimTime::ZERO + cfg.runtime.warmup`); the deadline oracle uses it to
/// separate warm-up admissions from measured ones.
///
/// # Errors
///
/// Returns the first [`Violation`] any oracle detects. A trace whose ring
/// buffer dropped records is rejected outright — the oracles only judge
/// complete histories.
pub fn check_trace(
    trace: &TraceData,
    metrics: &RunMetrics,
    warmup_end: SimTime,
) -> Result<(), Violation> {
    if trace.report.dropped > 0 {
        fail!(
            "harness",
            "trace ring dropped {} of {} records; oracles need the complete \
             history — raise the sink capacity above {}",
            trace.report.dropped,
            trace.report.events,
            trace.records.len()
        );
    }
    let mut serializability = serializability::Serializability::default();
    let mut coherence = coherence::Coherence::default();
    let mut deadline = deadline::Deadline::new(metrics, warmup_end);
    let mut recovery = recovery::Recovery::default();
    for rec in &trace.records {
        serializability.observe(rec);
        coherence.observe(rec);
        deadline.observe(rec);
        recovery.observe(rec);
    }
    serializability.finish()?;
    coherence.finish()?;
    deadline.finish()?;
    recovery.finish()
}

/// Runs one traced experiment and judges it with every oracle.
///
/// # Errors
///
/// Returns a [`Violation`] if the configuration is rejected or any oracle
/// fires.
pub fn check_config(cfg: &ExperimentConfig) -> Result<RunMetrics, Violation> {
    let warmup_end = SimTime::ZERO + cfg.runtime.warmup;
    let (metrics, trace) = match run_experiment_traced(cfg, TRACE_CAPACITY) {
        Ok(pair) => pair,
        Err(e) => fail!("harness", "configuration rejected: {e}"),
    };
    check_trace(&trace, &metrics, warmup_end)?;
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_types::{SimDuration, SystemKind};

    #[test]
    fn a_clean_quick_run_passes_every_oracle() {
        let mut cfg = ExperimentConfig::paper(SystemKind::LoadSharing, 4, 0.20);
        cfg.runtime.duration = SimDuration::from_secs(200);
        cfg.runtime.warmup = SimDuration::from_secs(40);
        let metrics = check_config(&cfg).expect("oracles should pass");
        assert!(metrics.measured > 0);
    }

    #[test]
    fn truncated_traces_are_rejected() {
        let mut cfg = ExperimentConfig::paper(SystemKind::ClientServer, 4, 0.20);
        cfg.runtime.duration = SimDuration::from_secs(200);
        cfg.runtime.warmup = SimDuration::from_secs(40);
        let (metrics, trace) = run_experiment_traced(&cfg, 8).expect("run");
        let warmup_end = SimTime::ZERO + cfg.runtime.warmup;
        let v = check_trace(&trace, &metrics, warmup_end).unwrap_err();
        assert_eq!(v.oracle, "harness");
        assert!(v.detail.contains("dropped"), "{v}");
    }

    #[test]
    fn violations_render_their_location_and_replay() {
        let v = Violation {
            oracle: "deadline",
            at: "crates/check/src/deadline.rs:1",
            detail: "boom".into(),
            replay: None,
        }
        .with_replay("repro trace --seed 7".into());
        let text = v.to_string();
        assert!(text.contains("deadline violation at crates/check/src/deadline.rs:1"));
        assert!(text.contains("replay: repro trace --seed 7"));
    }
}
