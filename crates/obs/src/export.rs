//! Trace exporters: JSONL and Chrome `trace_event` format.
//!
//! This module and `Event::write_json_fields` are the wire format's one
//! definition. Both exporters append bytes through the crate's `Wire`
//! buffer — literal fragments, decimal integers, `true`/`false`, static
//! labels and identifier text shared with the ids' `Display` impls — and
//! never enter `core::fmt`, so output is byte-identical across runs at the
//! same seed and costs tens of nanoseconds a record. [`write_jsonl`] and
//! [`write_chrome_trace`] stream to any [`io::Write`]; [`jsonl`] and
//! [`chrome_trace`] collect the same bytes into a `String`.

use std::collections::HashMap;
use std::io;

use siteselect_types::{FixedState, SimTime, SiteId, TransactionId};

use crate::event::Event;
use crate::sink::TraceRecord;
use crate::wire::Wire;

/// Writes records to `w` as one JSON object per line, a chunk at a time.
///
/// # Errors
///
/// Returns the first error `w` reports.
pub fn write_jsonl<W: io::Write>(w: &mut W, records: &[TraceRecord]) -> io::Result<()> {
    let mut out = Wire::new();
    for rec in records {
        out.uint(r#"{"t":"#, rec.time.as_micros());
        out.uint(r#","seq":"#, rec.seq);
        out.id(r#","site":""#, rec.site);
        out.label(r#","kind":""#, rec.event.kind());
        rec.event.write_json_fields(&mut out);
        out.lit("}\n");
        out.drain_full(w)?;
    }
    out.drain(w)
}

/// The `String` the in-memory exporters return, as an [`io::Write`]. Each
/// chunk is checked as it arrives, while it is still in cache: 2-3 ns a
/// record, against 15 for one `String::from_utf8` pass over the finished
/// document.
struct Collect(String);

impl io::Write for Collect {
    fn write(&mut self, chunk: &[u8]) -> io::Result<usize> {
        let text = std::str::from_utf8(chunk)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        self.0.push_str(text);
        Ok(chunk.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Runs one of the streaming exporters into a `String` reserved for
/// `bytes_per_record` a record, so it is never regrown.
fn collect(
    records: &[TraceRecord],
    bytes_per_record: usize,
    write: impl FnOnce(&mut Collect, &[TraceRecord]) -> io::Result<()>,
) -> String {
    let mut out = Collect(String::with_capacity(records.len() * bytes_per_record + 64));
    write(&mut out, records).expect("the wire format is ASCII and a String takes any amount of it");
    out.0
}

/// Serializes records as one JSON object per line.
///
/// # Example
///
/// ```
/// use siteselect_obs::{export, Event, TraceRecord};
/// use siteselect_types::{ClientId, SimTime, SiteId, TransactionId};
///
/// let rec = TraceRecord {
///     time: SimTime::from_micros(42),
///     seq: 0,
///     site: SiteId::Server,
///     event: Event::ExecStart { txn: TransactionId::new(ClientId(1), 7) },
/// };
/// let line = export::jsonl(&[rec]);
/// assert_eq!(
///     line,
///     "{\"t\":42,\"seq\":0,\"site\":\"server\",\"kind\":\"exec_start\",\"txn\":\"txn#1.7\"}\n"
/// );
/// ```
#[must_use]
pub fn jsonl(records: &[TraceRecord]) -> String {
    // Paper-scale CE/CS/LS traces, clean and under restart chaos, average
    // 107-121 B a line (EXPERIMENTS.md, PR 16): reserve past the longest.
    collect(records, 128, write_jsonl)
}

/// Process id used in the Chrome trace for a site: the server is 0, the
/// directory 1, client *c* is *c + 2*.
#[must_use]
pub fn site_pid(site: SiteId) -> u32 {
    match site {
        SiteId::Server => 0,
        SiteId::Directory => 1,
        SiteId::Client(c) => u32::from(c.0) + 2,
    }
}

/// Starts the next trace event: a comma after every event but the last,
/// each event on its own line, then `{"name":"`.
fn begin(out: &mut Wire, first: &mut bool) {
    out.lit(if *first {
        "\n{\"name\":\""
    } else {
        ",\n{\"name\":\""
    });
    *first = false;
}

/// A duration (`"X"`) event from the closing quote of its name to the
/// opening brace of its `args`: `cat` ends in `"ts":`, `tid` starts at
/// `,"tid":`.
fn duration(out: &mut Wire, cat: &str, start: SimTime, end: SimTime, pid: u32, tid: &str) {
    out.uint(cat, start.as_micros());
    out.uint(r#","dur":"#, end.duration_since(start).as_micros());
    out.uint(r#","pid":"#, u64::from(pid));
    out.lit(tid);
}

/// A crash-restart phase slice on the crashed site's own track.
fn recovery(out: &mut Wire, start: SimTime, end: SimTime, site: SiteId) {
    duration(
        out,
        r#","cat":"recovery","ph":"X","ts":"#,
        start,
        end,
        site_pid(site),
        r#","tid":0,"args":{"#,
    );
}

/// Writes records to `w` in Chrome `trace_event` JSON, a chunk at a time
/// (see [`chrome_trace`] for what becomes what).
///
/// # Errors
///
/// Returns the first error `w` reports.
pub fn write_chrome_trace<W: io::Write>(w: &mut W, records: &[TraceRecord]) -> io::Result<()> {
    // Keyed by ids the engines generate, and only ever probed: no order
    // escapes, so the fixed-state hasher is safe and spares SipHash.
    let mut submits: HashMap<TransactionId, SimTime, FixedState> = HashMap::default();
    let mut crashed: HashMap<SiteId, SimTime, FixedState> = HashMap::default();
    let mut replayed: HashMap<SiteId, SimTime, FixedState> = HashMap::default();
    let mut out = Wire::new();
    out.lit("{\"traceEvents\":[");
    let mut first = true;
    for rec in records {
        let pid = site_pid(rec.site);
        match &rec.event {
            Event::TxnSubmit { txn, .. } => {
                submits.insert(*txn, rec.time);
            }
            Event::Commit { txn, .. } | Event::Abort { txn, .. } => {
                if let Some(start) = submits.remove(txn) {
                    begin(&mut out, &mut first);
                    out.id("", *txn);
                    duration(
                        &mut out,
                        r#","cat":"txn","ph":"X","ts":"#,
                        start,
                        rec.time,
                        site_pid(SiteId::Client(txn.origin())),
                        r#","tid":0,"args":{"#,
                    );
                    out.label(r#""outcome":""#, rec.event.kind());
                    out.lit("}}");
                }
            }
            Event::Span {
                txn,
                kind,
                start,
                blocker,
            } => {
                begin(&mut out, &mut first);
                out.label("", kind.label());
                duration(
                    &mut out,
                    r#","cat":"span","ph":"X","ts":"#,
                    *start,
                    rec.time,
                    pid,
                    r#","tid":2,"args":{"#,
                );
                if let Some(t) = txn {
                    out.id(r#""txn":""#, *t);
                }
                if let Some(b) = blocker {
                    // A comma only after a member: `{,"blocker":…}` is not JSON.
                    let open = if txn.is_some() {
                        r#","blocker":""#
                    } else {
                        r#""blocker":""#
                    };
                    out.id(open, *b);
                }
                out.lit("}}");
            }
            Event::SiteCrash { site } => {
                crashed.insert(*site, rec.time);
            }
            Event::RecoveryDone {
                site,
                redo,
                undone,
                losers,
                replay_ios,
            } => {
                if let Some(down) = crashed.remove(site) {
                    begin(&mut out, &mut first);
                    out.label("", "wal_replay");
                    recovery(&mut out, down, rec.time, *site);
                    out.uint(r#""redo":"#, *redo);
                    out.uint(r#","undone":"#, *undone);
                    out.uint(r#","losers":"#, u64::from(*losers));
                    out.uint(r#","replay_ios":"#, *replay_ios);
                    out.lit("}}");
                    replayed.insert(*site, rec.time);
                }
            }
            Event::SiteRecover { site } => {
                let phase = match replayed.remove(site) {
                    Some(done) => Some(("rejoin_revalidation", done)),
                    None => crashed.remove(site).map(|down| ("site_down", down)),
                };
                if let Some((name, since)) = phase {
                    begin(&mut out, &mut first);
                    out.label("", name);
                    recovery(&mut out, since, rec.time, *site);
                    out.lit("}}");
                }
            }
            _ => {}
        }
        begin(&mut out, &mut first);
        out.label("", rec.event.kind());
        let ts = rec.time.as_micros();
        out.uint(r#","cat":"ev","ph":"i","s":"t","ts":"#, ts);
        out.uint(r#","pid":"#, u64::from(pid));
        out.uint(r#","tid":1,"args":{"seq":"#, rec.seq);
        rec.event.write_json_fields(&mut out);
        out.lit("}}");
        out.drain_full(w)?;
    }
    out.lit("\n]}\n");
    out.drain(w)
}

/// Serializes records in Chrome `trace_event` JSON (open the file in
/// `chrome://tracing` or Perfetto).
///
/// Transaction lifecycles become duration (`"X"`) events spanning submit →
/// commit/abort on the originating client's track; causal spans become
/// named duration events on their site's span track; crash-restart
/// episodes become `wal_replay` (crash → replay finished) and
/// `rejoin_revalidation` (replay finished → rejoin) slices on the crashed
/// site's track (`site_down` when the site rejoins without a replay);
/// every record also appears as an instant (`"i"`) event carrying the full
/// payload.
#[must_use]
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    // The same traces average 158-212 B a record here: an instant event
    // each, and a duration slice for every span and finished transaction.
    collect(records, 224, write_chrome_trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_types::ClientId;

    fn txn() -> TransactionId {
        TransactionId::new(ClientId(2), 9)
    }

    fn records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                time: SimTime::from_micros(100),
                seq: 0,
                site: SiteId::Client(ClientId(2)),
                event: Event::TxnSubmit {
                    txn: txn(),
                    deadline: SimTime::from_micros(900),
                    accesses: 2,
                },
            },
            TraceRecord {
                time: SimTime::from_micros(700),
                seq: 1,
                site: SiteId::Client(ClientId(2)),
                event: Event::Commit {
                    txn: txn(),
                    latency_us: 600,
                    slack_us: 200,
                },
            },
        ]
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let text = jsonl(&records());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        assert!(lines[0].contains(r#""kind":"txn_submit""#));
        assert!(lines[1].contains(r#""slack_us":200"#));
    }

    #[test]
    fn chrome_trace_pairs_submit_with_commit() {
        let text = chrome_trace(&records());
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        assert!(text.contains(r#""ph":"X","ts":100,"dur":600"#));
        // Two instants + one span.
        assert_eq!(text.matches(r#""ph":"i""#).count(), 2);
        assert_eq!(text.matches(r#""ph":"X""#).count(), 1);
    }

    #[test]
    fn pids_separate_sites() {
        assert_eq!(site_pid(SiteId::Server), 0);
        assert_eq!(site_pid(SiteId::Directory), 1);
        assert_eq!(site_pid(SiteId::Client(ClientId(0))), 2);
        assert_eq!(site_pid(SiteId::Client(ClientId(5))), 7);
    }

    #[test]
    fn chrome_trace_renders_spans_as_named_slices() {
        let recs = vec![TraceRecord {
            time: SimTime::from_micros(900),
            seq: 0,
            site: SiteId::Server,
            event: Event::Span {
                txn: Some(txn()),
                kind: crate::SpanKind::LockWait,
                start: SimTime::from_micros(400),
                blocker: Some(TransactionId::new(ClientId(1), 3)),
            },
        }];
        let text = chrome_trace(&recs);
        assert!(
            text.contains(r#""name":"lock_wait","cat":"span","ph":"X","ts":400,"dur":500"#),
            "{text}"
        );
        assert!(text.contains(r#""blocker":"txn#1.3""#), "{text}");
    }

    #[test]
    fn chrome_span_args_take_a_comma_only_between_members() {
        let blocker = TransactionId::new(ClientId(1), 3);
        let args = |txn: Option<TransactionId>, blocker: Option<TransactionId>| {
            let text = chrome_trace(&[TraceRecord {
                time: SimTime::from_micros(900),
                seq: 0,
                site: SiteId::Server,
                event: Event::Span {
                    txn,
                    kind: crate::SpanKind::LockWait,
                    start: SimTime::from_micros(400),
                    blocker,
                },
            }]);
            let slice = text.lines().nth(1).expect("the span slice");
            slice[slice.find(r#""args":"#).expect("args")..].to_owned()
        };
        assert_eq!(args(None, None), r#""args":{}},"#);
        assert_eq!(args(Some(txn()), None), r#""args":{"txn":"txn#2.9"}},"#);
        assert_eq!(
            args(None, Some(blocker)),
            r#""args":{"blocker":"txn#1.3"}},"#
        );
        assert_eq!(
            args(Some(txn()), Some(blocker)),
            r#""args":{"txn":"txn#2.9","blocker":"txn#1.3"}},"#
        );
    }

    #[test]
    fn streamed_bytes_are_the_collected_bytes() {
        // Enough records to cross several chunk boundaries.
        let recs: Vec<TraceRecord> = records().into_iter().cycle().take(4000).collect();
        let mut streamed = Vec::new();
        write_jsonl(&mut streamed, &recs).unwrap();
        assert_eq!(streamed, jsonl(&recs).into_bytes());
        streamed.clear();
        write_chrome_trace(&mut streamed, &recs).unwrap();
        assert_eq!(streamed, chrome_trace(&recs).into_bytes());
    }

    #[test]
    fn chrome_trace_renders_recovery_phases() {
        let site = SiteId::Server;
        let recs = vec![
            TraceRecord {
                time: SimTime::from_micros(100),
                seq: 0,
                site,
                event: Event::SiteCrash { site },
            },
            TraceRecord {
                time: SimTime::from_micros(700),
                seq: 1,
                site,
                event: Event::RecoveryDone {
                    site,
                    redo: 4,
                    undone: 2,
                    losers: 1,
                    replay_ios: 6,
                },
            },
            TraceRecord {
                time: SimTime::from_micros(750),
                seq: 2,
                site,
                event: Event::SiteRecover { site },
            },
        ];
        let text = chrome_trace(&recs);
        assert!(
            text.contains(r#""name":"wal_replay","cat":"recovery","ph":"X","ts":100,"dur":600"#),
            "{text}"
        );
        assert!(
            text.contains(r#""redo":4,"undone":2,"losers":1,"replay_ios":6"#),
            "{text}"
        );
        assert!(
            text.contains(
                r#""name":"rejoin_revalidation","cat":"recovery","ph":"X","ts":700,"dur":50"#
            ),
            "{text}"
        );
    }

    #[test]
    fn chrome_trace_marks_replayless_rejoin_as_site_down() {
        let site = SiteId::Client(ClientId(3));
        let recs = vec![
            TraceRecord {
                time: SimTime::from_micros(10),
                seq: 0,
                site,
                event: Event::SiteCrash { site },
            },
            TraceRecord {
                time: SimTime::from_micros(90),
                seq: 1,
                site,
                event: Event::SiteRecover { site },
            },
        ];
        let text = chrome_trace(&recs);
        assert!(
            text.contains(r#""name":"site_down","cat":"recovery","ph":"X","ts":10,"dur":80"#),
            "{text}"
        );
    }

    #[test]
    fn abort_without_submit_still_renders_instant() {
        let recs = vec![TraceRecord {
            time: SimTime::from_micros(5),
            seq: 0,
            site: SiteId::Server,
            event: Event::Abort {
                txn: txn(),
                reason: siteselect_types::AbortReason::Deadlock,
            },
        }];
        let text = chrome_trace(&recs);
        assert!(!text.contains(r#""ph":"X""#));
        assert!(text.contains(r#""reason":"deadlock""#));
    }
}
