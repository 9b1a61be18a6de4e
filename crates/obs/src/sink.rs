//! The ring-buffered event sink.
//!
//! [`EventSink`] is the single handle every subsystem holds. Disabled (the
//! default) it is a `None` — emitting is one branch and the event payload is
//! never even constructed, which is what makes the disabled path free.
//! Enabled it is an `Rc<RefCell<_>>`: cloning a sink shares the underlying
//! buffer, and an emit is a borrow flag and a push.
//!
//! The sink is single-threaded *by type*: the handle is neither `Send` nor
//! `Sync`, so a clone cannot cross a thread boundary and two threads can
//! never emit into one buffer. Threaded code keeps one sink per thread —
//! built inside the thread — and hands the drained [`TraceData`] (plain
//! data, `Send`) back at join for [`TraceData::merge`]. That is what the
//! cluster runtime always did; a lock around the buffer only tolerated the
//! sharing nobody wanted, and every simulator, which is one thread by
//! construction, paid an atomic exchange and release per event for it —
//! about two thirds of an emit, a million or more times a traced run.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use siteselect_types::{ClientId, SimTime, SiteId, TransactionId};

use crate::event::Event;
use crate::report::{ObsReport, SiteSummary};
use crate::span::SpanKind;

/// One captured event: when, where, in what global order, and what.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Simulation time the event was emitted at.
    pub time: SimTime,
    /// Emission sequence number within the sink (total order tie-break).
    pub seq: u64,
    /// The site the event happened at.
    pub site: SiteId,
    /// The structured payload.
    pub event: Event,
}

/// Per-kind and per-site counts as dense arrays. [`ObsReport`] publishes
/// them as two `BTreeMap`s; probing those for every record (a string
/// compare per level, a hundred-odd sites) was about half the cost of an
/// emit, so the sink counts here and fills the maps when it is drained.
#[derive(Debug)]
struct Tally {
    /// By [`Event::kind_index`].
    kinds: [u64; Event::KINDS],
    /// By [`site_ordinal`], grown to the largest site seen.
    sites: Vec<Option<SiteSummary>>,
}

/// Server, directory, then the clients in id order.
fn site_ordinal(site: SiteId) -> usize {
    match site {
        SiteId::Server => 0,
        SiteId::Directory => 1,
        SiteId::Client(c) => 2 + c.index(),
    }
}

/// Inverse of [`site_ordinal`].
fn site_at(ordinal: usize) -> SiteId {
    match ordinal {
        0 => SiteId::Server,
        1 => SiteId::Directory,
        n => SiteId::Client(ClientId((n - 2) as u16)),
    }
}

impl Tally {
    fn new() -> Self {
        Tally {
            kinds: [0; Event::KINDS],
            sites: Vec::new(),
        }
    }

    fn observe(&mut self, rec: &TraceRecord) {
        self.kinds[rec.event.kind_index()] += 1;
        let ordinal = site_ordinal(rec.site);
        if ordinal >= self.sites.len() {
            self.sites.resize(ordinal + 1, None);
        }
        self.sites[ordinal]
            .get_or_insert(SiteSummary::starting(rec.time))
            .observe(rec);
    }

    /// Writes the counts into `report`'s (empty) kind and site maps.
    fn fill(&self, report: &mut ObsReport) {
        for (index, &count) in self.kinds.iter().enumerate() {
            if count > 0 {
                report.kinds.insert(Event::kind_name(index), count);
            }
        }
        for (ordinal, summary) in self.sites.iter().enumerate() {
            if let Some(summary) = summary {
                report.per_site.insert(site_at(ordinal), *summary);
            }
        }
    }
}

#[derive(Debug)]
struct SinkInner {
    capacity: usize,
    next_seq: u64,
    ring: VecDeque<TraceRecord>,
    /// Totals, drops and histograms; its kind and site maps stay empty
    /// (see [`Tally`]).
    report: ObsReport,
    tally: Tally,
}

/// A shareable, optionally-enabled event sink.
///
/// # Example
///
/// ```
/// use siteselect_obs::{Event, EventSink};
/// use siteselect_types::{ClientId, SimTime, SiteId, TransactionId};
///
/// let off = EventSink::disabled();
/// off.emit(SimTime::from_secs(1), SiteId::Server, || unreachable!());
///
/// let on = EventSink::enabled(16);
/// on.emit(SimTime::from_secs(1), SiteId::Server, || Event::ExecStart {
///     txn: TransactionId::new(ClientId(0), 1),
/// });
/// let trace = on.finish().unwrap();
/// assert_eq!(trace.records.len(), 1);
/// assert_eq!(trace.report.events, 1);
/// ```
///
/// A clone shares the buffer but cannot leave the thread it was made on;
/// hand a thread the capacity and let it build its own sink:
///
/// ```compile_fail
/// use siteselect_obs::EventSink;
///
/// let sink = EventSink::enabled(16);
/// let clone = sink.clone();
/// std::thread::spawn(move || drop(clone)); // `Rc` is not `Send`
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventSink(Option<Rc<RefCell<SinkInner>>>);

impl EventSink {
    /// A sink that ignores everything (the zero-overhead default).
    #[must_use]
    pub fn disabled() -> Self {
        EventSink(None)
    }

    /// A live sink retaining at most `capacity` records (drop-oldest).
    /// Streaming summaries in the [`ObsReport`] still see every event.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn enabled(capacity: usize) -> Self {
        assert!(capacity > 0, "sink capacity must be positive");
        EventSink(Some(Rc::new(RefCell::new(SinkInner {
            capacity,
            next_seq: 0,
            ring: VecDeque::with_capacity(capacity.min(4096)),
            report: ObsReport::new(),
            tally: Tally::new(),
        }))))
    }

    /// True if events are being captured.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Emits an event. The closure only runs when the sink is enabled, so
    /// callers can build payloads (allocations included) without guarding.
    #[inline]
    pub fn emit(&self, time: SimTime, site: SiteId, event: impl FnOnce() -> Event) {
        if let Some(inner) = &self.0 {
            let mut g = inner.borrow_mut();
            let rec = TraceRecord {
                time,
                seq: g.next_seq,
                site,
                event: event(),
            };
            g.next_seq += 1;
            g.report.observe_totals(&rec);
            g.tally.observe(&rec);
            if g.ring.len() == g.capacity {
                g.ring.pop_front();
                g.report.dropped += 1;
            }
            g.ring.push_back(rec);
        }
    }

    /// Emits the causal span `[start, time)` of `kind` for `txn`, naming
    /// the `blocker` that held it up, if known. A zero-length span has
    /// nothing to blame and is not emitted.
    #[inline]
    pub fn span(
        &self,
        time: SimTime,
        site: SiteId,
        txn: TransactionId,
        kind: SpanKind,
        start: SimTime,
        blocker: Option<TransactionId>,
    ) {
        if start < time {
            self.emit(time, site, || Event::Span {
                txn: Some(txn),
                kind,
                start,
                blocker,
            });
        }
    }

    /// Drains the sink: returns the buffered records plus the streaming
    /// report, or `None` if the sink was disabled. The sink is empty (but
    /// still enabled) afterwards.
    #[must_use]
    pub fn finish(&self) -> Option<TraceData> {
        self.0.as_ref().map(|inner| {
            let mut g = inner.borrow_mut();
            let mut report = g.report.clone();
            g.tally.fill(&mut report);
            TraceData {
                // The ring's own buffer becomes the vector: at paper scale a
                // copy is a second million-record allocation at peak.
                records: Vec::from(std::mem::take(&mut g.ring)),
                report,
            }
        })
    }
}

/// A drained trace: the retained records and the full-run summary.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceData {
    /// Captured records in emission order (after a merge: sim-time order).
    pub records: Vec<TraceRecord>,
    /// Streaming summary covering *every* emitted event, even evicted ones.
    pub report: ObsReport,
}

impl TraceData {
    /// Merges per-site traces into one timeline ordered by
    /// `(time, site, seq)` — the deterministic shutdown merge the threaded
    /// cluster runtime uses.
    #[must_use]
    pub fn merge(parts: Vec<TraceData>) -> TraceData {
        let mut records = Vec::with_capacity(parts.iter().map(|p| p.records.len()).sum());
        let mut report = ObsReport::new();
        for part in parts {
            records.extend(part.records);
            report.merge(&part.report);
        }
        records.sort_by_key(|r| (r.time, r.site, r.seq));
        TraceData { records, report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_types::{ClientId, TransactionId};

    fn exec(seq: u64) -> Event {
        Event::ExecStart {
            txn: TransactionId::new(ClientId(0), seq),
        }
    }

    #[test]
    fn disabled_sink_never_builds_the_payload() {
        let sink = EventSink::disabled();
        sink.emit(SimTime::from_secs(0), SiteId::Server, || {
            panic!("payload built on disabled path")
        });
        assert!(sink.finish().is_none());
        assert!(!sink.is_enabled());
    }

    #[test]
    fn ring_drops_oldest_but_report_sees_all() {
        let sink = EventSink::enabled(2);
        for i in 0..5 {
            sink.emit(SimTime::from_micros(i), SiteId::Server, || exec(i));
        }
        let trace = sink.finish().unwrap();
        assert_eq!(trace.records.len(), 2);
        assert_eq!(trace.records[0].seq, 3);
        assert_eq!(trace.report.events, 5);
        assert_eq!(trace.report.dropped, 3);
        // A ring that has wrapped inside its buffer drains oldest first all
        // the same, and the drained sink is empty and still takes events.
        let sink = EventSink::enabled(5);
        for i in 0..8 {
            sink.emit(SimTime::from_micros(i), SiteId::Server, || exec(i));
        }
        let trace = sink.finish().unwrap();
        let seqs: Vec<u64> = trace.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [3, 4, 5, 6, 7]);
        assert_eq!(trace.records[4].event, exec(7));
        assert_eq!(trace.report.dropped, 3);
        assert_eq!(sink.finish().unwrap().records, []);
        sink.emit(SimTime::from_micros(9), SiteId::Server, || exec(9));
        assert_eq!(sink.finish().unwrap().records.len(), 1);
    }

    #[test]
    fn drained_report_equals_the_map_based_fold() {
        let sink = EventSink::enabled(64);
        let sites = [
            SiteId::Client(ClientId(7)),
            SiteId::Server,
            SiteId::Directory,
            SiteId::Client(ClientId(0)),
        ];
        for i in 0..40u64 {
            let site = sites[(i % 4) as usize];
            sink.emit(SimTime::from_micros(100 - i), site, || match i % 5 {
                0 => Event::Commit {
                    txn: TransactionId::new(ClientId(0), i),
                    latency_us: 10 * i,
                    slack_us: 50 - 10 * i as i64,
                },
                1 => Event::Abort {
                    txn: TransactionId::new(ClientId(0), i),
                    reason: siteselect_types::AbortReason::Expired,
                },
                2 => Event::Span {
                    txn: None,
                    kind: crate::SpanKind::ALL[(i % 10) as usize],
                    start: SimTime::ZERO,
                    blocker: None,
                },
                _ => exec(i),
            });
        }
        let trace = sink.finish().unwrap();
        let mut folded = ObsReport::new();
        for rec in &trace.records {
            folded.observe(rec);
        }
        assert_eq!(trace.report, folded);
        // Draining does not reset the summary: a second drain repeats it.
        assert_eq!(sink.finish().unwrap().report, folded);
    }

    #[test]
    fn zero_length_spans_are_elided() {
        let sink = EventSink::enabled(8);
        let txn = TransactionId::new(ClientId(0), 1);
        let (at, disk) = (SimTime::from_micros(5), crate::SpanKind::Disk);
        sink.span(at, SiteId::Server, txn, disk, at, None);
        sink.span(at, SiteId::Server, txn, disk, SimTime::ZERO, None);
        let trace = sink.finish().unwrap();
        assert_eq!(trace.records.len(), 1);
        assert_eq!(
            trace.records[0].event,
            Event::Span {
                txn: Some(txn),
                kind: crate::SpanKind::Disk,
                start: SimTime::ZERO,
                blocker: None,
            }
        );
    }

    #[test]
    fn clones_share_one_buffer() {
        let a = EventSink::enabled(8);
        let b = a.clone();
        a.emit(SimTime::from_micros(1), SiteId::Server, || exec(0));
        b.emit(SimTime::from_micros(2), SiteId::Directory, || exec(1));
        let trace = a.finish().unwrap();
        assert_eq!(trace.records.len(), 2);
        assert_eq!(trace.records[1].seq, 1);
    }

    #[test]
    fn merge_orders_by_time_site_seq() {
        let a = EventSink::enabled(8);
        let b = EventSink::enabled(8);
        a.emit(SimTime::from_micros(5), SiteId::Client(ClientId(1)), || exec(0));
        b.emit(SimTime::from_micros(2), SiteId::Client(ClientId(2)), || exec(0));
        b.emit(SimTime::from_micros(5), SiteId::Client(ClientId(0)), || exec(1));
        let merged = TraceData::merge(vec![a.finish().unwrap(), b.finish().unwrap()]);
        let times: Vec<u64> = merged.records.iter().map(|r| r.time.as_micros()).collect();
        assert_eq!(times, vec![2, 5, 5]);
        assert_eq!(merged.records[1].site, SiteId::Client(ClientId(0)));
        assert_eq!(merged.report.events, 3);
    }
}
