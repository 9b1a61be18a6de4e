//! Streaming per-run observability summary.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use siteselect_types::{SimTime, SiteId};

use crate::event::Event;
use crate::hist::LogHistogram;
use crate::sink::TraceRecord;

/// Per-site activity rollup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteSummary {
    /// Events emitted at this site.
    pub events: u64,
    /// Transactions committed here.
    pub commits: u64,
    /// Transactions aborted here.
    pub aborts: u64,
    /// Time of the first event seen at this site.
    pub first: SimTime,
    /// Time of the last event seen at this site.
    pub last: SimTime,
}

impl SiteSummary {
    /// The rollup of a site whose first event is at `time`.
    pub(crate) fn starting(time: SimTime) -> Self {
        SiteSummary {
            events: 0,
            commits: 0,
            aborts: 0,
            first: time,
            last: time,
        }
    }

    /// Folds one record emitted at this site.
    pub(crate) fn observe(&mut self, rec: &TraceRecord) {
        self.events += 1;
        self.first = self.first.min(rec.time);
        self.last = self.last.max(rec.time);
        match rec.event {
            Event::Commit { .. } => self.commits += 1,
            Event::Abort { .. } => self.aborts += 1,
            _ => {}
        }
    }
}

/// Summary of one traced run, maintained streamingly as events are emitted
/// so ring-buffer eviction never loses aggregate information.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsReport {
    /// Total events emitted (including ones evicted from the ring).
    pub events: u64,
    /// Events evicted from the ring because capacity was exceeded.
    pub dropped: u64,
    /// Event counts per kind (deterministic order).
    pub kinds: BTreeMap<&'static str, u64>,
    /// Commit response times, microseconds.
    pub latency: LogHistogram,
    /// Non-negative commit slack vs. deadline, microseconds.
    pub slack: LogHistogram,
    /// How late the late commits were, microseconds.
    pub tardiness: LogHistogram,
    /// Per-site timeline rollups (deterministic order).
    pub per_site: BTreeMap<SiteId, SiteSummary>,
}

impl Default for ObsReport {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        ObsReport {
            events: 0,
            dropped: 0,
            kinds: BTreeMap::new(),
            latency: LogHistogram::new(),
            slack: LogHistogram::new(),
            tardiness: LogHistogram::new(),
            per_site: BTreeMap::new(),
        }
    }

    /// Folds one record into the summary.
    pub fn observe(&mut self, rec: &TraceRecord) {
        *self.kinds.entry(rec.event.kind()).or_insert(0) += 1;
        self.per_site
            .entry(rec.site)
            .or_insert(SiteSummary::starting(rec.time))
            .observe(rec);
        self.observe_totals(rec);
    }

    /// The map-free part of [`observe`](Self::observe): the event total and
    /// the commit histograms. The sink calls this per record and counts
    /// kinds and sites densely, filling the two maps when it is drained.
    pub(crate) fn observe_totals(&mut self, rec: &TraceRecord) {
        self.events += 1;
        if let Event::Commit {
            latency_us,
            slack_us,
            ..
        } = rec.event
        {
            self.latency.record(latency_us);
            if slack_us >= 0 {
                self.slack.record(slack_us as u64);
            } else {
                self.tardiness.record(slack_us.unsigned_abs());
            }
        }
    }

    /// Count for one event kind (0 if never seen).
    #[must_use]
    pub fn kind_count(&self, kind: &str) -> u64 {
        self.kinds.get(kind).copied().unwrap_or(0)
    }

    /// Adds another report (e.g. another site's) into this one.
    pub fn merge(&mut self, other: &ObsReport) {
        self.events += other.events;
        self.dropped += other.dropped;
        for (k, v) in &other.kinds {
            *self.kinds.entry(k).or_insert(0) += v;
        }
        self.latency.merge(&other.latency);
        self.slack.merge(&other.slack);
        self.tardiness.merge(&other.tardiness);
        for (site, s) in &other.per_site {
            self.per_site
                .entry(*site)
                .and_modify(|mine| {
                    mine.events += s.events;
                    mine.commits += s.commits;
                    mine.aborts += s.aborts;
                    mine.first = mine.first.min(s.first);
                    mine.last = mine.last.max(s.last);
                })
                .or_insert(*s);
        }
    }

    /// Renders the report as aligned plain text (deterministic).
    #[must_use]
    pub fn render(&self) -> String {
        const SHOWN: usize = 12;
        let mut out = String::new();
        let _ = writeln!(out, "events emitted      {:>10}", self.events);
        let _ = writeln!(out, "evicted from ring   {:>10}", self.dropped);
        let _ = writeln!(out, "per kind:");
        for (k, v) in &self.kinds {
            let _ = writeln!(out, "  {k:<18}{v:>10}");
        }
        let hist_line = |name: &str, h: &LogHistogram| -> String {
            if h.is_empty() {
                format!("{name:<12} (empty)")
            } else {
                format!(
                    "{name:<12} n={:<8} mean={:<10} p50={:<10} p90={:<10} p99={:<10} max={}",
                    h.count(),
                    h.mean().round() as u64,
                    h.quantile(0.5),
                    h.quantile(0.9),
                    h.quantile(0.99),
                    h.max()
                )
            }
        };
        let _ = writeln!(out, "histograms (us):");
        let _ = writeln!(out, "  {}", hist_line("latency", &self.latency));
        let _ = writeln!(out, "  {}", hist_line("slack", &self.slack));
        let _ = writeln!(out, "  {}", hist_line("tardiness", &self.tardiness));
        let _ = writeln!(
            out,
            "per site ({} active):            events   commits    aborts   last_us",
            self.per_site.len()
        );
        for (site, s) in self.per_site.iter().take(SHOWN) {
            let _ = writeln!(
                out,
                "  {:<28}{:>10}{:>10}{:>10}{:>10}",
                site.to_string(),
                s.events,
                s.commits,
                s.aborts,
                s.last.as_micros()
            );
        }
        if self.per_site.len() > SHOWN {
            let _ = writeln!(out, "  ... {} more sites", self.per_site.len() - SHOWN);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_types::{ClientId, TransactionId};

    fn rec(time_us: u64, site: SiteId, event: Event) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_micros(time_us),
            seq: 0,
            site,
            event,
        }
    }

    #[test]
    fn observe_tracks_kinds_sites_and_latency() {
        let mut r = ObsReport::new();
        let txn = TransactionId::new(ClientId(0), 1);
        r.observe(&rec(
            10,
            SiteId::Client(ClientId(0)),
            Event::TxnSubmit {
                txn,
                deadline: SimTime::from_micros(500),
                accesses: 3,
            },
        ));
        r.observe(&rec(
            400,
            SiteId::Client(ClientId(0)),
            Event::Commit {
                txn,
                latency_us: 390,
                slack_us: 100,
            },
        ));
        assert_eq!(r.events, 2);
        assert_eq!(r.kind_count("commit"), 1);
        assert_eq!(r.latency.count(), 1);
        assert_eq!(r.slack.count(), 1);
        assert!(r.tardiness.is_empty());
        let s = r.per_site[&SiteId::Client(ClientId(0))];
        assert_eq!(s.commits, 1);
        assert_eq!(s.first, SimTime::from_micros(10));
        assert_eq!(s.last, SimTime::from_micros(400));
    }

    #[test]
    fn late_commits_land_in_tardiness() {
        let mut r = ObsReport::new();
        r.observe(&rec(
            1,
            SiteId::Server,
            Event::Commit {
                txn: TransactionId::new(ClientId(1), 1),
                latency_us: 900,
                slack_us: -250,
            },
        ));
        assert_eq!(r.tardiness.count(), 1);
        assert_eq!(r.tardiness.max(), 250);
        assert!(r.slack.is_empty());
    }

    #[test]
    fn merge_is_commutative_on_totals() {
        let mut a = ObsReport::new();
        let mut b = ObsReport::new();
        a.observe(&rec(1, SiteId::Server, Event::WindowOpen { object: siteselect_types::ObjectId(1) }));
        b.observe(&rec(2, SiteId::Server, Event::WindowOpen { object: siteselect_types::ObjectId(2) }));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.events, ba.events);
        assert_eq!(ab.kinds, ba.kinds);
        assert_eq!(ab.per_site, ba.per_site);
    }

    #[test]
    fn render_is_stable_text() {
        let r = ObsReport::new();
        let text = r.render();
        assert!(text.contains("events emitted"));
        assert!(text.contains("(empty)"));
    }
}
