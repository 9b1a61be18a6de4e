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
//! One pass over the trace gathers every span into a single flat arena,
//! grouped by root transaction in id order and in trace order within each
//! group, beside one small record per transaction (its submission, its
//! outcome and where its group sits). Each transaction is then attributed
//! in buffers the walk reuses and handed on at once:
//! [`BlameReport::extract`] folds it into the per-cause aggregates and
//! ranks it among the worst misses, attributing only the `top_k` winners a
//! second time for a path of their own; [`txn_blames`] keeps a copy of
//! each. Both are the same walk, and extraction allocates a constant
//! amount whatever the trace's length.
//!
//! Everything here is integer microseconds, and nothing depends on hash
//! order: two extractions of byte-identical traces render byte-identical
//! reports.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write as _;

use siteselect_types::{FixedState, SimTime, TransactionId, TxnOutcome};

use crate::event::{outcome_str, Event};
use crate::hist::LogHistogram;
use crate::sink::{TraceData, TraceRecord};
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

impl Interval {
    /// A placeholder for a slot about to be filled.
    const EMPTY: Interval = Interval {
        start_us: 0,
        end_us: 0,
        kind: SpanKind::Exec,
        blocker: None,
    };

    /// The interval of a span record, if `rec` is one.
    fn of(rec: &TraceRecord) -> Option<Interval> {
        match rec.event {
            Event::Span {
                kind,
                start,
                blocker,
                ..
            } => Some(Interval {
                start_us: start.as_micros(),
                end_us: rec.time.as_micros(),
                kind,
                blocker,
            }),
            _ => None,
        }
    }
}

/// What the gathering pass learns of one root transaction: its first
/// submission and outcome, and where its spans sit.
#[derive(Debug)]
struct TxnFacts {
    raw: u64,
    submit: Option<(SimTime, SimTime)>, // (submit, deadline)
    outcome: Option<(SimTime, TxnOutcome)>,
    /// Its position in first-seen order, which tags its spans.
    seen: u32,
    /// Its spans: `spans` of them from `start` in [`Gathered::spans`].
    start: usize,
    spans: usize,
}

/// Tags a site-scoped span in the gathering pass.
const SITEWIDE: u32 = u32::MAX;

/// Everything attribution needs from a trace, gathered in one pass: every
/// span sits in one flat arena, grouped by root transaction in ascending
/// id order and in trace order within each, so no transaction owns a
/// vector. The site-scoped spans come last.
struct Gathered {
    /// One entry per root transaction seen, in ascending id order.
    txns: Vec<TxnFacts>,
    spans: Vec<Interval>,
    /// Where the site-scoped spans start in `spans`.
    sitewide: usize,
}

impl Gathered {
    fn new(trace: &TraceData) -> Self {
        let records = trace.records.as_slice();
        // The trace's report counts every record it holds, so the arena
        // and the transaction index are sized once and the pass grows
        // nothing: whatever the trace's length the gathering allocates the
        // same (a trace whose report undercounts, or a transaction without
        // its submission, grows them on demand).
        let recorded = |kind: &str| {
            let n = trace.report.kinds.get(kind).copied().unwrap_or(0);
            usize::try_from(n).unwrap_or(usize::MAX).min(records.len())
        };
        let span_count = SpanKind::ALL.iter().map(|k| recorded(k.event_kind())).sum();
        let submits = recorded(Event::TXN_SUBMIT);
        let mut slot_of: HashMap<u64, u32, FixedState> = HashMap::default();
        slot_of.reserve(submits);
        let mut txns: Vec<TxnFacts> = Vec::with_capacity(submits);
        // Every span as (its transaction's first-seen position, its
        // record's index), in trace order: 8 bytes a span until the layout.
        let mut tagged: Vec<(u32, u32)> = Vec::with_capacity(records.len().min(span_count));
        let mut site_spans = 0;
        for (index, rec) in records.iter().enumerate() {
            // Lossless: a trace holds fewer than `u32::MAX` records.
            let index = index as u32;
            let raw = match &rec.event {
                Event::TxnSubmit { txn, .. } | Event::Outcome { txn, .. } => txn.as_u64(),
                Event::Span { txn: Some(t), .. } => fold_root(*t).as_u64(),
                Event::Span { txn: None, .. } => {
                    tagged.push((SITEWIDE, index));
                    site_spans += 1;
                    continue;
                }
                _ => continue,
            };
            let seen = *slot_of.entry(raw).or_insert_with(|| {
                // Lossless: fewer transactions than `SITEWIDE` in a trace.
                let seen = txns.len() as u32;
                txns.push(TxnFacts {
                    raw,
                    submit: None,
                    outcome: None,
                    seen,
                    start: 0,
                    spans: 0,
                });
                seen
            });
            let Some(f) = txns.get_mut(seen as usize) else {
                continue; // every position handed out was just pushed
            };
            match &rec.event {
                Event::TxnSubmit { deadline, .. } => {
                    f.submit = f.submit.or(Some((rec.time, *deadline)));
                }
                Event::Outcome { outcome, .. } => {
                    f.outcome = f.outcome.or(Some((rec.time, *outcome)));
                }
                _ => {
                    tagged.push((seen, index));
                    f.spans += 1;
                }
            }
        }
        drop(slot_of);
        // Lay the spans out by transaction in id order: each transaction's
        // run starts where the one before it ends, and the tagged spans
        // are read off their records into the runs in trace order.
        txns.sort_unstable_by_key(|f| f.raw);
        let mut next = vec![0; txns.len()];
        let mut at = 0;
        for f in &mut txns {
            f.start = at;
            if let Some(n) = next.get_mut(f.seen as usize) {
                *n = at;
            }
            at += f.spans;
        }
        let sitewide = at;
        let mut site_next = sitewide;
        let mut spans = vec![Interval::EMPTY; at + site_spans];
        for (seen, index) in tagged {
            let cursor = match next.get_mut(seen as usize) {
                Some(n) => n,
                None => &mut site_next,
            };
            let span = records.get(index as usize).and_then(Interval::of);
            if let (Some(slot), Some(span)) = (spans.get_mut(*cursor), span) {
                *slot = span;
            }
            *cursor += 1;
        }
        Gathered {
            txns,
            spans,
            sitewide,
        }
    }

    /// `f`'s spans in trace order, then the site-scoped ones.
    fn spans_of(&self, f: &TxnFacts) -> impl Iterator<Item = Interval> + '_ {
        let own = self
            .spans
            .get(f.start..f.start + f.spans)
            .unwrap_or_default();
        let site = self.spans.get(self.sitewide..).unwrap_or_default();
        own.iter().chain(site).copied()
    }

    /// Attributes `f`'s transaction into `walk.blame`, reusing the walk's
    /// buffers. False if its submission or outcome is missing.
    fn attribute(&self, f: &TxnFacts, walk: &mut Walk) -> bool {
        let (Some((submit, deadline)), Some((end, outcome))) = (f.submit, f.outcome) else {
            return false;
        };
        let (s, e) = (submit.as_micros(), end.as_micros());
        walk.intervals.clear();
        for iv in self.spans_of(f) {
            let cs = iv.start_us.max(s);
            let ce = iv.end_us.min(e);
            if ce > cs {
                walk.intervals.push(Interval {
                    start_us: cs,
                    end_us: ce,
                    ..iv
                });
            }
        }
        let b = &mut walk.blame;
        (b.txn, b.submit, b.end, b.deadline, b.outcome) = (
            TransactionId::from_raw(f.raw),
            submit,
            end,
            deadline,
            outcome,
        );
        b.vector = attribute(s, e, &walk.intervals, &mut walk.bounds, &mut b.path);
        true
    }

    /// Attributes every transaction with both a submission and an outcome,
    /// in ascending id order, handing each to `visit` with its position.
    fn walk(&self, walk: &mut Walk, mut visit: impl FnMut(usize, &TxnBlame)) {
        for (pos, f) in self.txns.iter().enumerate() {
            if self.attribute(f, walk) {
                visit(pos, &walk.blame);
            }
        }
    }
}

/// The buffers one attribution walk reuses for every transaction: the
/// clipped intervals, the segment bounds, and the transaction being
/// attributed, whose path is the reused path buffer.
struct Walk {
    intervals: Vec<Interval>,
    bounds: Vec<u64>,
    blame: TxnBlame,
}

impl Walk {
    /// Buffers sized for the most spans any transaction of `gathered`
    /// has, so no transaction grows them.
    fn new(gathered: &Gathered) -> Self {
        let longest = gathered.txns.iter().map(|f| f.spans).max().unwrap_or(0);
        let intervals = longest + (gathered.spans.len() - gathered.sitewide);
        let bounds = 2 + 2 * intervals;
        Walk {
            intervals: Vec::with_capacity(intervals),
            bounds: Vec::with_capacity(bounds),
            blame: TxnBlame {
                txn: TransactionId::from_raw(0),
                submit: SimTime::ZERO,
                end: SimTime::ZERO,
                deadline: SimTime::ZERO,
                outcome: TxnOutcome::Committed,
                vector: [0; SpanKind::COUNT],
                path: Vec::with_capacity(bounds - 1),
            },
        }
    }
}

/// Extracts the blame vector of every transaction with both a submission
/// and a terminal outcome in `trace`, in ascending transaction-id order.
///
/// Transactions whose submit or outcome record was evicted from the ring
/// are skipped (the caller should surface `trace.report.dropped`).
#[must_use]
pub fn txn_blames(trace: &TraceData) -> Vec<TxnBlame> {
    let gathered = Gathered::new(trace);
    let mut out = Vec::with_capacity(gathered.txns.len());
    gathered.walk(&mut Walk::new(&gathered), |_, b| out.push(b.clone()));
    out
}

/// Priority-ordered elementary-segment sweep over `[s, e]`, into `path`;
/// returns the blame vector. `bounds` is scratch.
fn attribute(
    s: u64,
    e: u64,
    intervals: &[Interval],
    bounds: &mut Vec<u64>,
    path: &mut Vec<PathSegment>,
) -> [u64; SpanKind::COUNT] {
    let mut vector = [0u64; SpanKind::COUNT];
    path.clear();
    if e <= s {
        return vector;
    }
    bounds.clear();
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
    vector
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
    /// Critical-path segments over every blamed transaction, not only the
    /// listed worst.
    pub path_segments: u64,
    /// The largest tardiness of any missed transaction, microseconds (0
    /// when none missed).
    pub worst_tardiness_us: u64,
}

/// The registry [`BlameReport::extract`] takes. It records nothing; the
/// pipeline counters are [`BlameReport`] fields.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry;

impl MetricsRegistry {
    /// The registry value `extract` callers pass.
    #[must_use]
    pub fn disabled() -> Self {
        MetricsRegistry
    }
}

impl BlameReport {
    /// Builds the report from a merged trace: attributes every transaction,
    /// folds each into the per-cause aggregates as it goes, and keeps the
    /// `top_k` worst misses. Only those are attributed a second time, for
    /// a path of their own, so the whole extraction allocates a constant
    /// amount however long the trace. The registry is inert; the benchmark
    /// package calls this signature.
    #[must_use]
    pub fn extract(trace: &TraceData, top_k: usize, _registry: &MetricsRegistry) -> BlameReport {
        let gathered = Gathered::new(trace);
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
        let (mut txns, mut missed, mut path_segments, mut worst_tardiness_us) =
            (0u64, 0u64, 0u64, 0u64);
        // The `top_k` worst misses so far, as (greater tardiness first, then
        // the lower id, position): ascending order is worst first, so the
        // heap's top is the least bad of them, the first to go.
        let mut ranked: BinaryHeap<(Reverse<u64>, u64, usize)> =
            BinaryHeap::with_capacity(top_k.min(gathered.txns.len()) + 1);
        let mut walk = Walk::new(&gathered);
        gathered.walk(&mut walk, |pos, b| {
            txns += 1;
            path_segments += b.path.len() as u64;
            if b.missed() {
                missed += 1;
                worst_tardiness_us = worst_tardiness_us.max(b.tardiness_us());
                if top_k > 0 {
                    ranked.push((Reverse(b.tardiness_us()), b.txn.as_u64(), pos));
                    if ranked.len() > top_k {
                        ranked.pop();
                    }
                }
            }
            for (c, &us) in causes.iter_mut().zip(&b.vector) {
                if us > 0 {
                    c.total_us += us;
                    c.txns += 1;
                    c.hist.record(us);
                    if b.missed() {
                        c.missed_us += us;
                    }
                }
            }
        });
        let ranked = ranked.into_sorted_vec();
        let mut worst = Vec::with_capacity(ranked.len());
        for &(_, _, pos) in &ranked {
            if let Some(f) = gathered.txns.get(pos) {
                if gathered.attribute(f, &mut walk) {
                    worst.push(walk.blame.clone());
                }
            }
        }
        BlameReport {
            txns,
            missed,
            dropped_events: trace.report.dropped,
            causes,
            worst,
            path_segments,
            worst_tardiness_us,
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
        let report = BlameReport::extract(&trace, 1, &MetricsRegistry::disabled());
        assert_eq!(report.txns, 3);
        assert_eq!(report.missed, 2);
        assert_eq!(report.total_us(), 100 + 300 + 900);
        assert_eq!(report.worst.len(), 1);
        assert_eq!(report.worst[0].txn, txn(3)); // worst tardiness first
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
    fn report_counts_every_path_segment_and_the_worst_tardiness() {
        let (a, b, c) = (txn(1), txn(2), txn(3));
        let trace = trace_of(vec![
            rec(0, Event::TxnSubmit { txn: a, deadline: SimTime::from_micros(500), accesses: 1 }),
            rec(0, Event::TxnSubmit { txn: b, deadline: SimTime::from_micros(200), accesses: 1 }),
            rec(0, Event::TxnSubmit { txn: c, deadline: SimTime::from_micros(400), accesses: 1 }),
            // a: exec, lock wait, exec — in time.
            rec(60, span(Some(a), SpanKind::LockWait, 20)),
            rec(100, Event::Outcome { txn: a, outcome: TxnOutcome::Committed }),
            // b: exec only, 100 us late.
            rec(300, Event::Outcome { txn: b, outcome: TxnOutcome::CommittedLate }),
            // c: exec, disk — aborted 500 us past its deadline.
            rec(900, span(Some(c), SpanKind::Disk, 100)),
            rec(900, Event::Outcome { txn: c, outcome: TxnOutcome::Aborted(AbortReason::Expired) }),
        ]);
        // Only the worst miss is listed, but both numbers cover every
        // blamed transaction.
        let report = BlameReport::extract(&trace, 1, &MetricsRegistry::disabled());
        assert_eq!(report.worst.len(), 1);
        assert_eq!(report.path_segments, 3 + 1 + 2);
        assert_eq!(report.worst_tardiness_us, 500);
        let none_missed = trace_of(trace.records[..5].to_vec());
        let report = BlameReport::extract(&none_missed, 1, &MetricsRegistry::disabled());
        assert_eq!((report.missed, report.path_segments, report.worst_tardiness_us), (0, 3, 0));
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
