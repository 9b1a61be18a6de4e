//! Critical-path extraction and deadline blame attribution.
//!
//! Input: a merged [`TraceData`] containing `TxnSubmit`, `Outcome` and
//! [`Event::Span`] records. For every transaction with both a submission and
//! a terminal outcome, the extractor partitions the closed interval
//! `[submit, outcome]` into elementary segments at every span boundary and
//! charges each segment to the highest-[`priority`](SpanKind::priority)
//! span covering it; time no span covers falls through to the
//! [`SpanKind::Exec`] residual. Because the segments partition the interval
//! and every microsecond is charged to exactly one cause, the blame vector
//! sums **exactly** to the end-to-end latency — conservation by
//! construction, enforced again by a property test in `siteselect-core`.
//!
//! Derived unit ids (subtasks, which embed their index in bits 40..48 of
//! the raw transaction id) are folded onto their root transaction, so a
//! decomposed transaction's remote lock waits blame the parent. Site-scoped
//! spans (`txn: None`, e.g. a server crash-restart replay outage) apply to
//! every transaction whose interval overlaps them.
//!
//! Everything here is integer microseconds, and the transactions gathered
//! in a hash map are sorted by id before anything is attributed: two
//! extractions of byte-identical traces render byte-identical reports.

use std::collections::HashMap;
use std::fmt::Write as _;

use siteselect_types::{FixedState, SimTime, TransactionId, TxnOutcome};

use crate::event::{outcome_str, Event};
use crate::hist::LogHistogram;
use crate::metrics::MetricsRegistry;
use crate::sink::TraceData;
use crate::span::SpanKind;

/// Mask clearing the subtask-index bits (40..48) of a raw transaction id —
/// see `subtask_key` in `siteselect-core`.
const SUBTASK_MASK: u64 = !(0xFF << 40);

/// Folds a derived subtask id onto its root transaction.
#[must_use]
pub fn fold_root(txn: TransactionId) -> TransactionId {
    TransactionId::from_raw(txn.as_u64() & SUBTASK_MASK)
}

/// One step of an annotated critical path: `[start, end)` charged to `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSegment {
    /// Segment start, microseconds.
    pub start_us: u64,
    /// Segment end, microseconds.
    pub end_us: u64,
    /// The cause this segment is charged to.
    pub kind: SpanKind,
    /// The blocking holder, when the winning span was a lock wait that
    /// recorded one.
    pub blocker: Option<TransactionId>,
}

/// One transaction's blame attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnBlame {
    /// The (root) transaction.
    pub txn: TransactionId,
    /// Submission time.
    pub submit: SimTime,
    /// Terminal outcome time.
    pub end: SimTime,
    /// The firm deadline it carried.
    pub deadline: SimTime,
    /// How it ended.
    pub outcome: TxnOutcome,
    /// Microseconds charged to each cause, [`SpanKind::ALL`] order. Sums
    /// exactly to [`latency_us`](Self::latency_us).
    pub vector: [u64; SpanKind::COUNT],
    /// The annotated critical path (adjacent same-cause segments merged).
    pub path: Vec<PathSegment>,
}

impl TxnBlame {
    /// End-to-end latency, microseconds.
    #[must_use]
    pub fn latency_us(&self) -> u64 {
        self.end.as_micros() - self.submit.as_micros()
    }

    /// Sum of the blame vector — equal to [`latency_us`](Self::latency_us)
    /// by construction.
    #[must_use]
    pub fn vector_sum(&self) -> u64 {
        self.vector.iter().sum()
    }

    /// True unless the transaction committed within its deadline.
    #[must_use]
    pub fn missed(&self) -> bool {
        self.outcome != TxnOutcome::Committed
    }

    /// How far past the deadline it ended (0 when in time).
    #[must_use]
    pub fn tardiness_us(&self) -> u64 {
        self.end.as_micros().saturating_sub(self.deadline.as_micros())
    }
}

/// A span interval gathered for one transaction (or site-wide).
#[derive(Debug, Clone, Copy)]
struct Interval {
    start_us: u64,
    end_us: u64,
    kind: SpanKind,
    blocker: Option<TransactionId>,
}

#[derive(Debug, Default)]
struct TxnFacts {
    submit: Option<(SimTime, SimTime)>, // (submit, deadline)
    outcome: Option<(SimTime, TxnOutcome)>,
    spans: Vec<Interval>,
}

/// Extracts the blame vector of every transaction with both a submission
/// and a terminal outcome in `trace`, in ascending transaction-id order.
///
/// Transactions whose submit or outcome record was evicted from the ring
/// are skipped (the caller should surface `trace.report.dropped`).
#[must_use]
pub fn txn_blames(trace: &TraceData) -> Vec<TxnBlame> {
    let mut facts: HashMap<u64, TxnFacts, FixedState> = HashMap::default();
    let mut sitewide: Vec<Interval> = Vec::new();
    for rec in &trace.records {
        match &rec.event {
            Event::TxnSubmit { txn, deadline, .. } => {
                let f = facts.entry(txn.as_u64()).or_default();
                if f.submit.is_none() {
                    f.submit = Some((rec.time, *deadline));
                }
            }
            Event::Outcome { txn, outcome } => {
                let f = facts.entry(txn.as_u64()).or_default();
                if f.outcome.is_none() {
                    f.outcome = Some((rec.time, *outcome));
                }
            }
            Event::Span {
                txn,
                kind,
                start,
                blocker,
            } => {
                let iv = Interval {
                    start_us: start.as_micros(),
                    end_us: rec.time.as_micros(),
                    kind: *kind,
                    blocker: *blocker,
                };
                match txn {
                    Some(t) => facts
                        .entry(fold_root(*t).as_u64())
                        .or_default()
                        .spans
                        .push(iv),
                    None => sitewide.push(iv),
                }
            }
            _ => {}
        }
    }
    // detlint: allow(D2) — collected, then sorted by raw transaction id on the next line
    let mut by_id: Vec<(u64, TxnFacts)> = facts.into_iter().collect();
    by_id.sort_unstable_by_key(|&(raw, _)| raw);
    let mut out = Vec::new();
    for (raw, f) in &by_id {
        let (Some((submit, deadline)), Some((end, outcome))) = (f.submit, f.outcome) else {
            continue;
        };
        let (s, e) = (submit.as_micros(), end.as_micros());
        let mut intervals: Vec<Interval> = Vec::with_capacity(f.spans.len());
        for iv in f.spans.iter().chain(sitewide.iter()) {
            let cs = iv.start_us.max(s);
            let ce = iv.end_us.min(e);
            if ce > cs {
                intervals.push(Interval {
                    start_us: cs,
                    end_us: ce,
                    ..*iv
                });
            }
        }
        let (vector, path) = attribute(s, e, &intervals);
        out.push(TxnBlame {
            txn: TransactionId::from_raw(*raw),
            submit,
            end,
            deadline,
            outcome,
            vector,
            path,
        });
    }
    out
}

/// Priority-ordered elementary-segment sweep over `[s, e]`.
fn attribute(
    s: u64,
    e: u64,
    intervals: &[Interval],
) -> ([u64; SpanKind::COUNT], Vec<PathSegment>) {
    let mut vector = [0u64; SpanKind::COUNT];
    let mut path: Vec<PathSegment> = Vec::new();
    if e <= s {
        return (vector, path);
    }
    let mut bounds: Vec<u64> = Vec::with_capacity(2 + intervals.len() * 2);
    bounds.push(s);
    bounds.push(e);
    for iv in intervals {
        bounds.push(iv.start_us);
        bounds.push(iv.end_us);
    }
    bounds.sort_unstable();
    bounds.dedup();
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        // Winner: highest priority covering the whole segment; ties go to
        // the earliest interval in gather order (trace order, deterministic).
        let mut win: Option<&Interval> = None;
        for iv in intervals {
            if iv.start_us <= a && iv.end_us >= b {
                let better = win.is_none_or(|w| iv.kind.priority() > w.kind.priority());
                if better {
                    win = Some(iv);
                }
            }
        }
        let (kind, blocker) = win.map_or((SpanKind::Exec, None), |iv| (iv.kind, iv.blocker));
        vector[kind.index()] += b - a;
        match path.last_mut() {
            Some(last) if last.kind == kind && last.blocker == blocker && last.end_us == a => {
                last.end_us = b;
            }
            _ => path.push(PathSegment {
                start_us: a,
                end_us: b,
                kind,
                blocker,
            }),
        }
    }
    (vector, path)
}

/// Per-cause aggregate over one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CauseStats {
    /// The cause.
    pub kind: SpanKind,
    /// Total microseconds charged across all blamed transactions.
    pub total_us: u64,
    /// Microseconds charged within transactions that missed their deadline.
    pub missed_us: u64,
    /// Transactions with a nonzero charge for this cause.
    pub txns: u64,
    /// Distribution of nonzero per-transaction charges, microseconds.
    pub hist: LogHistogram,
}

/// The aggregated blame report of one traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameReport {
    /// Transactions blamed (submission and outcome both present).
    pub txns: u64,
    /// Of those, how many missed their deadline (late commit or abort).
    pub missed: u64,
    /// Events evicted from the trace ring (nonzero means blame may be
    /// incomplete — surface this to the user).
    pub dropped_events: u64,
    /// Per-cause aggregates, [`SpanKind::ALL`] order.
    pub causes: Vec<CauseStats>,
    /// The top-K worst deadline misses by tardiness, annotated with their
    /// critical paths.
    pub worst: Vec<TxnBlame>,
}

impl BlameReport {
    /// Builds the report from a merged trace: extracts every blame vector,
    /// aggregates per cause, and keeps the `top_k` worst misses. Pipeline
    /// tallies are folded into `registry` (pass a disabled registry to
    /// skip).
    #[must_use]
    pub fn extract(trace: &TraceData, top_k: usize, registry: &MetricsRegistry) -> BlameReport {
        let blames = txn_blames(trace);
        let mut causes: Vec<CauseStats> = SpanKind::ALL
            .iter()
            .map(|&kind| CauseStats {
                kind,
                total_us: 0,
                missed_us: 0,
                txns: 0,
                hist: LogHistogram::new(),
            })
            .collect();
        let mut missed = 0u64;
        for b in &blames {
            registry.add("blame_txns", 1);
            if b.missed() {
                missed += 1;
                registry.add("blame_txns_missed", 1);
                registry.max_gauge(
                    "blame_worst_tardiness_us",
                    i64::try_from(b.tardiness_us()).unwrap_or(i64::MAX),
                );
            }
            registry.add("blame_path_segments", b.path.len() as u64);
            for (i, &us) in b.vector.iter().enumerate() {
                if us > 0 {
                    let c = &mut causes[i];
                    c.total_us += us;
                    c.txns += 1;
                    c.hist.record(us);
                    if b.missed() {
                        c.missed_us += us;
                    }
                }
            }
        }
        let mut worst: Vec<&TxnBlame> = blames.iter().filter(|b| b.missed()).collect();
        worst.sort_by_key(|b| (std::cmp::Reverse(b.tardiness_us()), b.txn.as_u64()));
        worst.truncate(top_k);
        let worst: Vec<TxnBlame> = worst.into_iter().cloned().collect();
        registry.add("blame_worst_listed", worst.len() as u64);
        BlameReport {
            txns: blames.len() as u64,
            missed,
            dropped_events: trace.report.dropped,
            causes,
            worst,
        }
    }

    /// Total microseconds attributed across all causes.
    #[must_use]
    pub fn total_us(&self) -> u64 {
        self.causes.iter().map(|c| c.total_us).sum()
    }

    /// Machine-readable JSON (hand-rolled, integers only, deterministic).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            r#"{{"txns":{},"missed":{},"dropped_events":{},"total_us":{},"causes":["#,
            self.txns,
            self.missed,
            self.dropped_events,
            self.total_us()
        );
        for (i, c) in self.causes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                r#"{{"cause":"{}","total_us":{},"missed_us":{},"txns":{},"p50_us":{},"p99_us":{},"max_us":{}}}"#,
                c.kind.label(),
                c.total_us,
                c.missed_us,
                c.txns,
                c.hist.quantile(0.5),
                c.hist.quantile(0.99),
                c.hist.max()
            );
        }
        out.push_str(r#"],"worst":["#);
        for (i, b) in self.worst.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                r#"{{"txn":"{}","outcome":"{}","latency_us":{},"deadline_us":{},"tardiness_us":{},"blame_us":{{"#,
                b.txn,
                outcome_str(b.outcome),
                b.latency_us(),
                b.deadline.as_micros(),
                b.tardiness_us()
            );
            let mut first = true;
            for (j, &us) in b.vector.iter().enumerate() {
                if us > 0 {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(out, r#""{}":{us}"#, SpanKind::ALL[j].label());
                }
            }
            out.push_str(r#"},"path":["#);
            for (j, seg) in b.path.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    r#"{{"start_us":{},"end_us":{},"cause":"{}""#,
                    seg.start_us,
                    seg.end_us,
                    seg.kind.label()
                );
                if let Some(blk) = seg.blocker {
                    let _ = write!(out, r#","blocker":"{blk}""#);
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}\n");
        out
    }

    /// Renders the report as aligned plain text (deterministic).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "blamed transactions {:>10}   missed {:>8}",
            self.txns, self.missed
        );
        let total = self.total_us().max(1);
        let _ = writeln!(
            out,
            "{:<12}{:>14}{:>8}{:>14}{:>10}{:>12}{:>12}",
            "cause", "total_us", "%", "missed_us", "txns", "p99_us", "max_us"
        );
        for c in &self.causes {
            if c.total_us == 0 && c.kind != SpanKind::Exec {
                continue;
            }
            let pct = c.total_us * 1000 / total; // permille, rendered as x.y%
            let _ = writeln!(
                out,
                "{:<12}{:>14}{:>7}.{}{:>14}{:>10}{:>12}{:>12}",
                c.kind.label(),
                c.total_us,
                pct / 10,
                pct % 10,
                c.missed_us,
                c.txns,
                c.hist.quantile(0.99),
                c.hist.max()
            );
        }
        if !self.worst.is_empty() {
            let _ = writeln!(out, "worst missed deadlines:");
            for b in &self.worst {
                let _ = writeln!(
                    out,
                    "  {} {} latency={}us tardiness={}us",
                    b.txn,
                    outcome_str(b.outcome),
                    b.latency_us(),
                    b.tardiness_us()
                );
                for seg in &b.path {
                    let blocker = seg
                        .blocker
                        .map(|t| format!(" (blocked by {t})"))
                        .unwrap_or_default();
                    let _ = writeln!(
                        out,
                        "    {:>10} ..{:>10}  {:>8}us  {}{}",
                        seg.start_us,
                        seg.end_us,
                        seg.end_us - seg.start_us,
                        seg.kind.label(),
                        blocker
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{EventSink, TraceRecord};
    use siteselect_types::{AbortReason, ClientId, SiteId};

    fn txn(seq: u64) -> TransactionId {
        TransactionId::new(ClientId(0), seq)
    }

    fn rec(time_us: u64, event: Event) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_micros(time_us),
            seq: 0,
            site: SiteId::Server,
            event,
        }
    }

    fn span(txn_id: Option<TransactionId>, kind: SpanKind, start: u64) -> Event {
        Event::Span {
            txn: txn_id,
            kind,
            start: SimTime::from_micros(start),
            blocker: None,
        }
    }

    fn trace_of(records: Vec<TraceRecord>) -> TraceData {
        let mut report = crate::ObsReport::new();
        for r in &records {
            report.observe(r);
        }
        TraceData { records, report }
    }

    #[test]
    fn uncovered_time_is_exec_and_conservation_holds() {
        let t = txn(1);
        let trace = trace_of(vec![
            rec(100, Event::TxnSubmit { txn: t, deadline: SimTime::from_micros(900), accesses: 1 }),
            rec(400, span(Some(t), SpanKind::Net, 200)),
            rec(
                1000,
                Event::Outcome { txn: t, outcome: TxnOutcome::CommittedLate },
            ),
        ]);
        let blames = txn_blames(&trace);
        assert_eq!(blames.len(), 1);
        let b = &blames[0];
        assert_eq!(b.latency_us(), 900);
        assert_eq!(b.vector_sum(), 900);
        assert_eq!(b.vector[SpanKind::Net.index()], 200);
        assert_eq!(b.vector[SpanKind::Exec.index()], 700);
        assert!(b.missed());
        assert_eq!(b.tardiness_us(), 100);
        assert_eq!(b.path.len(), 3); // exec, net, exec
    }

    #[test]
    fn overlaps_charge_the_higher_priority_cause() {
        let t = txn(2);
        let trace = trace_of(vec![
            rec(0, Event::TxnSubmit { txn: t, deadline: SimTime::from_micros(500), accesses: 1 }),
            // Net covers 0..300; a disk batch 100..200 carves out the middle.
            rec(300, span(Some(t), SpanKind::Net, 0)),
            rec(200, span(Some(t), SpanKind::Disk, 100)),
            rec(300, Event::Outcome { txn: t, outcome: TxnOutcome::Committed }),
        ]);
        let b = &txn_blames(&trace)[0];
        assert_eq!(b.vector[SpanKind::Net.index()], 200);
        assert_eq!(b.vector[SpanKind::Disk.index()], 100);
        assert_eq!(b.vector_sum(), 300);
        assert!(!b.missed());
    }

    #[test]
    fn sitewide_replay_applies_to_overlapping_txns_and_spans_clip() {
        let a = txn(3);
        let b = txn(4);
        let trace = trace_of(vec![
            rec(0, Event::TxnSubmit { txn: a, deadline: SimTime::from_micros(90), accesses: 1 }),
            rec(150, Event::TxnSubmit { txn: b, deadline: SimTime::from_micros(400), accesses: 1 }),
            // Replay outage 50..250 overlaps the tail of a and the head of b.
            rec(250, span(None, SpanKind::Replay, 50)),
            rec(100, Event::Outcome { txn: a, outcome: TxnOutcome::Aborted(AbortReason::Expired) }),
            rec(300, Event::Outcome { txn: b, outcome: TxnOutcome::Committed }),
        ]);
        let blames = txn_blames(&trace);
        let ba = blames.iter().find(|x| x.txn == a).unwrap();
        let bb = blames.iter().find(|x| x.txn == b).unwrap();
        assert_eq!(ba.vector[SpanKind::Replay.index()], 50); // clipped to 50..100
        assert_eq!(ba.vector_sum(), 100);
        assert_eq!(bb.vector[SpanKind::Replay.index()], 100); // clipped to 150..250
        assert_eq!(bb.vector_sum(), 150);
    }

    #[test]
    fn subtask_ids_fold_onto_the_root() {
        let root = txn(5);
        let sub = TransactionId::from_raw(root.as_u64() | (1 << 40));
        assert_eq!(fold_root(sub), root);
        let trace = trace_of(vec![
            rec(0, Event::TxnSubmit { txn: root, deadline: SimTime::from_micros(500), accesses: 1 }),
            rec(80, span(Some(sub), SpanKind::LockWait, 20)),
            rec(100, Event::Outcome { txn: root, outcome: TxnOutcome::Committed }),
        ]);
        let blames = txn_blames(&trace);
        assert_eq!(blames.len(), 1);
        assert_eq!(blames[0].vector[SpanKind::LockWait.index()], 60);
    }

    #[test]
    fn report_aggregates_ranks_and_serializes() {
        let sink = EventSink::enabled(64);
        let mk = |seq: u64, submit: u64, end: u64, deadline: u64, outcome: TxnOutcome| {
            let t = txn(seq);
            sink.emit(SimTime::from_micros(submit), SiteId::Server, || Event::TxnSubmit {
                txn: t,
                deadline: SimTime::from_micros(deadline),
                accesses: 1,
            });
            sink.emit(SimTime::from_micros(end), SiteId::Server, || {
                span(Some(t), SpanKind::LockWait, submit)
            });
            sink.emit(SimTime::from_micros(end), SiteId::Server, || Event::Outcome {
                txn: t,
                outcome,
            });
        };
        mk(1, 0, 100, 500, TxnOutcome::Committed);
        mk(2, 0, 300, 200, TxnOutcome::CommittedLate); // tardiness 100
        mk(3, 0, 900, 400, TxnOutcome::Aborted(AbortReason::Expired)); // tardiness 500
        let trace = sink.finish().unwrap();
        let registry = MetricsRegistry::enabled();
        let report = BlameReport::extract(&trace, 1, &registry);
        assert_eq!(report.txns, 3);
        assert_eq!(report.missed, 2);
        assert_eq!(report.total_us(), 100 + 300 + 900);
        assert_eq!(report.worst.len(), 1);
        assert_eq!(report.worst[0].txn, txn(3)); // worst tardiness first
        let snap = registry.snapshot().unwrap();
        assert_eq!(snap.counter("blame_txns"), 3);
        assert_eq!(snap.counter("blame_txns_missed"), 2);
        assert_eq!(snap.gauge("blame_worst_tardiness_us"), Some(500));
        let json = report.to_json();
        assert!(json.contains(r#""txns":3"#));
        assert!(json.contains(r#""cause":"lock_wait""#));
        assert!(json.contains(r#""tardiness_us":500"#));
        let text = report.render();
        assert!(text.contains("worst missed deadlines"));
        assert!(text.contains("lock_wait"));
        // Determinism: extracting twice renders byte-identical output.
        let again = BlameReport::extract(&trace, 1, &MetricsRegistry::disabled());
        assert_eq!(again.to_json(), json);
        assert_eq!(again.render(), text);
    }

    #[test]
    fn txns_without_outcome_or_submit_are_skipped() {
        let t = txn(9);
        let trace = trace_of(vec![
            rec(0, Event::TxnSubmit { txn: t, deadline: SimTime::from_micros(10), accesses: 1 }),
            rec(5, Event::Outcome { txn: txn(10), outcome: TxnOutcome::Committed }),
        ]);
        assert!(txn_blames(&trace).is_empty());
    }
}
