//! Deadline-accounting oracle.
//!
//! Recounts the trace against the reported [`RunMetrics`]: every measured
//! admission (`TxnSubmit` at or after `warmup_end`) must reach exactly one
//! terminal disposition (`Outcome`), warm-up admissions must reach none,
//! and the per-bucket recount — in-deadline commits, late commits, expiry,
//! deadlock, subtask failure, shutdown, site crash — must equal the
//! percentages the run reported. The one tolerated asymmetry: a site-crash
//! outcome may lack a submit record, because arrivals at a crashed site and
//! shipments lost to a crash are scored without ever being admitted.

use std::collections::HashMap;

use siteselect_core::RunMetrics;
use siteselect_obs::{outcome_str, Event, TraceData, TraceRecord};
use siteselect_types::{AbortReason, FixedState, SimTime, TransactionId, TxnOutcome};

use crate::Violation;

/// What the trace says about one transaction.
#[derive(Debug, Default, Clone, Copy)]
struct Ledger {
    submitted: Option<SimTime>,
    outcome: Option<TxnOutcome>,
}

/// The deadline-accounting oracle: feed it every record with
/// [`observe`](Self::observe), then ask [`finish`](Self::finish).
#[derive(Debug)]
pub struct Deadline<'a> {
    metrics: &'a RunMetrics,
    warmup_end: SimTime,
    /// Submit and outcome of every transaction seen, by raw id.
    ledger: HashMap<u64, Ledger, FixedState>,
    /// The first objection raised while observing.
    failed: Option<Violation>,
}

impl<'a> Deadline<'a> {
    /// An oracle that will hold the trace to `metrics`, with the
    /// measurement window opening at `warmup_end`.
    #[must_use]
    pub fn new(metrics: &'a RunMetrics, warmup_end: SimTime) -> Self {
        Deadline {
            metrics,
            warmup_end,
            ledger: HashMap::default(),
            failed: None,
        }
    }

    /// Books one record's submit or outcome.
    #[inline]
    pub fn observe(&mut self, rec: &TraceRecord) {
        if self.failed.is_none() {
            self.failed = self.book(rec).err();
        }
    }

    fn book(&mut self, rec: &TraceRecord) -> Result<(), Violation> {
        match rec.event {
            Event::TxnSubmit { txn, .. } => {
                let entry = self.ledger.entry(txn.as_u64()).or_default();
                if let Some(first) = entry.submitted.replace(rec.time) {
                    fail!(
                        "deadline",
                        "{txn} was submitted twice (first at t={}us, again at t={}us)",
                        first.as_micros(),
                        rec.time.as_micros()
                    );
                }
            }
            Event::Outcome { txn, outcome } => {
                let entry = self.ledger.entry(txn.as_u64()).or_default();
                if let Some(previous) = entry.outcome.replace(outcome) {
                    fail!(
                        "deadline",
                        "{txn} was scored twice: {} and then {} at t={}us — every \
                         admitted transaction must end in exactly one bucket",
                        outcome_str(previous),
                        outcome_str(outcome),
                        rec.time.as_micros()
                    );
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Pairs submits with outcomes and compares the recount with the
    /// reported metrics.
    ///
    /// # Errors
    ///
    /// Returns a [`Violation`] for a transaction scored twice, a measured
    /// admission never scored, a warm-up admission scored, a non-crash
    /// outcome without an admission, or any recount/report bucket mismatch.
    pub fn finish(self) -> Result<(), Violation> {
        if let Some(v) = self.failed {
            return Err(v);
        }
        let (metrics, warmup_end) = (self.metrics, self.warmup_end);
        let crash = TxnOutcome::Aborted(AbortReason::SiteCrash);
        // The lowest raw id that was scored without a measured admission
        // behind it, and the lowest measured admission never scored; a
        // wrongly scored transaction is reported first.
        let mut wrongly_scored: Option<(u64, Option<SimTime>, TxnOutcome)> = None;
        let mut never_scored: Option<(u64, SimTime)> = None;
        let mut recount = RunMetrics::new(
            metrics.system,
            metrics.clients,
            metrics.update_fraction,
            metrics.seed,
        );
        // detlint: allow(D2) — order-free folds: two minima by raw id and per-bucket counts
        for (&raw, &entry) in &self.ledger {
            match (entry.submitted, entry.outcome) {
                (Some(at), Some(outcome)) if at >= warmup_end => recount.record_outcome(outcome),
                (None, Some(outcome)) if outcome == crash => recount.record_outcome(outcome),
                (submitted, Some(outcome)) => {
                    if wrongly_scored.is_none_or(|(lowest, ..)| raw < lowest) {
                        wrongly_scored = Some((raw, submitted, outcome));
                    }
                }
                (Some(at), None) => {
                    if at >= warmup_end && never_scored.is_none_or(|(lowest, _)| raw < lowest) {
                        never_scored = Some((raw, at));
                    }
                }
                (None, None) => {}
            }
        }
        if let Some((raw, submitted, outcome)) = wrongly_scored {
            let txn = TransactionId::from_raw(raw);
            match submitted {
                Some(at) => fail!(
                    "deadline",
                    "warm-up transaction {txn} (submitted at t={}us, measurement opens \
                     at t={}us) was scored {} — warm-up traffic must not be counted",
                    at.as_micros(),
                    warmup_end.as_micros(),
                    outcome_str(outcome)
                ),
                None => fail!(
                    "deadline",
                    "{txn} was scored {} but never submitted — only site-crash \
                     losses may be scored without an admission record",
                    outcome_str(outcome)
                ),
            }
        }
        if let Some((raw, at)) = never_scored {
            fail!(
                "deadline",
                "measured transaction {} (submitted at t={}us) never reached a \
                 terminal accounting state",
                TransactionId::from_raw(raw),
                at.as_micros()
            );
        }

        let buckets = [
            ("measured", recount.measured, metrics.measured),
            ("in-deadline commits", recount.in_time, metrics.in_time),
            ("late commits", recount.failures.late, metrics.failures.late),
            ("expired", recount.failures.expired, metrics.failures.expired),
            ("deadlock", recount.failures.deadlock, metrics.failures.deadlock),
            ("subtask", recount.failures.subtask, metrics.failures.subtask),
            ("shutdown", recount.failures.shutdown, metrics.failures.shutdown),
            (
                "site-crash",
                recount.failures.site_crash,
                metrics.failures.site_crash,
            ),
        ];
        for (label, counted, reported) in buckets {
            if counted != reported {
                fail!(
                    "deadline",
                    "recount mismatch in the {label} bucket: the trace accounts for \
                     {counted} but the run reported {reported} (reported success \
                     {:.2}% vs recounted {:.2}%)",
                    metrics.success_percent(),
                    recount.success_percent()
                );
            }
        }
        Ok(())
    }
}

/// Recounts submit/outcome pairs and compares them with the reported
/// metrics.
///
/// # Errors
///
/// Returns a [`Violation`] for a transaction scored twice, a measured
/// admission never scored, a warm-up admission scored, a non-crash outcome
/// without an admission, or any recount/report bucket mismatch.
pub fn check(
    trace: &TraceData,
    metrics: &RunMetrics,
    warmup_end: SimTime,
) -> Result<(), Violation> {
    let mut oracle = Deadline::new(metrics, warmup_end);
    trace.records.iter().for_each(|rec| oracle.observe(rec));
    oracle.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_obs::EventSink;
    use siteselect_types::{ClientId, SiteId, SystemKind};

    const WARMUP: SimTime = SimTime::from_micros(100);

    fn txn(seq: u64) -> TransactionId {
        TransactionId::new(ClientId(0), seq)
    }

    fn emit(sink: &EventSink, at: u64, event: Event) {
        sink.emit(SimTime::from_micros(at), SiteId::Server, move || event);
    }

    fn submit(id: TransactionId) -> Event {
        Event::TxnSubmit {
            txn: id,
            deadline: SimTime::from_micros(10_000),
            accesses: 1,
        }
    }

    fn outcome(id: TransactionId, outcome: TxnOutcome) -> Event {
        Event::Outcome { txn: id, outcome }
    }

    fn metrics_with(outcomes: &[TxnOutcome]) -> RunMetrics {
        let mut m = RunMetrics::new(SystemKind::ClientServer, 2, 0.2, 0);
        for &o in outcomes {
            m.record_outcome(o);
        }
        m
    }

    #[test]
    fn a_balanced_history_passes() {
        let sink = EventSink::enabled(64);
        emit(&sink, 50, submit(txn(1))); // warm-up: submitted, never scored
        emit(&sink, 150, submit(txn(2)));
        emit(&sink, 300, outcome(txn(2), TxnOutcome::Committed));
        emit(&sink, 200, submit(txn(3)));
        emit(&sink, 900, outcome(txn(3), TxnOutcome::CommittedLate));
        let m = metrics_with(&[TxnOutcome::Committed, TxnOutcome::CommittedLate]);
        assert!(check(&sink.finish().unwrap(), &m, WARMUP).is_ok());
    }

    #[test]
    fn a_lost_measured_transaction_is_flagged() {
        let sink = EventSink::enabled(64);
        emit(&sink, 150, submit(txn(2)));
        let m = metrics_with(&[]);
        let v = check(&sink.finish().unwrap(), &m, WARMUP).unwrap_err();
        assert_eq!(v.oracle, "deadline");
        assert!(v.detail.contains("never reached a terminal"), "{v}");
    }

    #[test]
    fn double_scoring_is_flagged() {
        let sink = EventSink::enabled(64);
        emit(&sink, 150, submit(txn(2)));
        emit(&sink, 300, outcome(txn(2), TxnOutcome::Committed));
        emit(&sink, 310, outcome(txn(2), TxnOutcome::CommittedLate));
        let m = metrics_with(&[TxnOutcome::Committed, TxnOutcome::CommittedLate]);
        let v = check(&sink.finish().unwrap(), &m, WARMUP).unwrap_err();
        assert!(v.detail.contains("scored twice"), "{v}");
    }

    #[test]
    fn scoring_warmup_traffic_is_flagged() {
        let sink = EventSink::enabled(64);
        emit(&sink, 50, submit(txn(1)));
        emit(&sink, 300, outcome(txn(1), TxnOutcome::Committed));
        let m = metrics_with(&[TxnOutcome::Committed]);
        let v = check(&sink.finish().unwrap(), &m, WARMUP).unwrap_err();
        assert!(v.detail.contains("warm-up"), "{v}");
    }

    #[test]
    fn phantom_outcomes_are_flagged_unless_site_crash() {
        let sink = EventSink::enabled(64);
        emit(&sink, 300, outcome(txn(9), TxnOutcome::Committed));
        let m = metrics_with(&[TxnOutcome::Committed]);
        let v = check(&sink.finish().unwrap(), &m, WARMUP).unwrap_err();
        assert!(v.detail.contains("never submitted"), "{v}");

        let sink = EventSink::enabled(64);
        emit(
            &sink,
            300,
            outcome(txn(9), TxnOutcome::Aborted(AbortReason::SiteCrash)),
        );
        let m = metrics_with(&[TxnOutcome::Aborted(AbortReason::SiteCrash)]);
        assert!(check(&sink.finish().unwrap(), &m, WARMUP).is_ok());
    }

    #[test]
    fn a_cooked_report_is_caught_by_the_recount() {
        let sink = EventSink::enabled(64);
        emit(&sink, 150, submit(txn(2)));
        emit(&sink, 900, outcome(txn(2), TxnOutcome::CommittedLate));
        // The report claims the late commit was in time.
        let m = metrics_with(&[TxnOutcome::Committed]);
        let v = check(&sink.finish().unwrap(), &m, WARMUP).unwrap_err();
        assert!(v.detail.contains("recount mismatch"), "{v}");
    }
}
