//! The `write!`-based trace exporters, kept as a test-only reference.
//!
//! [`crate::export`] and [`Event::write_json_fields`] must produce exactly
//! the bytes these produce: this is the code they replaced, unchanged but
//! for the `"blocker"` comma noted below. The property test at the bottom
//! drives both over every event kind with hostile values and compares the
//! JSONL and the Chrome document byte for byte.

use std::collections::HashMap;
use std::fmt::Write as _;

use siteselect_types::{SimTime, SiteId, TransactionId};

use crate::event::{abort_reason_str, outcome_str, Event};
use crate::export::site_pid;
use crate::sink::TraceRecord;

pub fn jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96);
    for rec in records {
        let _ = write!(
            out,
            r#"{{"t":{},"seq":{},"site":"{}","kind":"{}""#,
            rec.time.as_micros(),
            rec.seq,
            rec.site,
            rec.event.kind()
        );
        write_json_fields(&rec.event, &mut out);
        out.push_str("}\n");
    }
    out
}

pub fn chrome_trace(records: &[TraceRecord]) -> String {
    let mut submits: HashMap<TransactionId, SimTime> = HashMap::new();
    let mut crashed: HashMap<SiteId, SimTime> = HashMap::new();
    let mut replayed: HashMap<SiteId, SimTime> = HashMap::new();
    let mut out = String::with_capacity(records.len() * 160 + 64);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut push_event = |out: &mut String, body: &str| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(body);
    };
    for rec in records {
        let pid = site_pid(rec.site);
        match &rec.event {
            Event::TxnSubmit { txn, .. } => {
                submits.insert(*txn, rec.time);
            }
            Event::Commit { txn, .. } | Event::Abort { txn, .. } => {
                if let Some(start) = submits.remove(txn) {
                    let dur = rec.time.duration_since(start).as_micros();
                    let mut span = String::new();
                    let _ = write!(
                        span,
                        r#"{{"name":"{txn}","cat":"txn","ph":"X","ts":{},"dur":{dur},"pid":{},"tid":0,"args":{{"outcome":"{}"}}}}"#,
                        start.as_micros(),
                        site_pid(SiteId::Client(txn.origin())),
                        rec.event.kind()
                    );
                    push_event(&mut out, &span);
                }
            }
            Event::Span {
                txn,
                kind,
                start,
                blocker,
            } => {
                let dur = rec.time.duration_since(*start).as_micros();
                let mut span = String::new();
                let _ = write!(
                    span,
                    r#"{{"name":"{}","cat":"span","ph":"X","ts":{},"dur":{dur},"pid":{pid},"tid":2,"args":{{"#,
                    kind.label(),
                    start.as_micros()
                );
                if let Some(t) = txn {
                    let _ = write!(span, r#""txn":"{t}""#);
                }
                if let Some(b) = blocker {
                    // The one edit since: the comma was unconditional.
                    let comma = if txn.is_some() { "," } else { "" };
                    let _ = write!(span, r#"{comma}"blocker":"{b}""#);
                }
                span.push_str("}}");
                push_event(&mut out, &span);
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
                    let dur = rec.time.duration_since(down).as_micros();
                    let mut span = String::new();
                    let _ = write!(
                        span,
                        r#"{{"name":"wal_replay","cat":"recovery","ph":"X","ts":{},"dur":{dur},"pid":{},"tid":0,"args":{{"redo":{redo},"undone":{undone},"losers":{losers},"replay_ios":{replay_ios}}}}}"#,
                        down.as_micros(),
                        site_pid(*site)
                    );
                    push_event(&mut out, &span);
                    replayed.insert(*site, rec.time);
                }
            }
            Event::SiteRecover { site } => {
                if let Some(done) = replayed.remove(site) {
                    let dur = rec.time.duration_since(done).as_micros();
                    let mut span = String::new();
                    let _ = write!(
                        span,
                        r#"{{"name":"rejoin_revalidation","cat":"recovery","ph":"X","ts":{},"dur":{dur},"pid":{},"tid":0,"args":{{}}}}"#,
                        done.as_micros(),
                        site_pid(*site)
                    );
                    push_event(&mut out, &span);
                } else if let Some(down) = crashed.remove(site) {
                    let dur = rec.time.duration_since(down).as_micros();
                    let mut span = String::new();
                    let _ = write!(
                        span,
                        r#"{{"name":"site_down","cat":"recovery","ph":"X","ts":{},"dur":{dur},"pid":{},"tid":0,"args":{{}}}}"#,
                        down.as_micros(),
                        site_pid(*site)
                    );
                    push_event(&mut out, &span);
                }
            }
            _ => {}
        }
        let mut inst = String::new();
        let _ = write!(
            inst,
            r#"{{"name":"{}","cat":"ev","ph":"i","s":"t","ts":{},"pid":{pid},"tid":1,"args":{{"seq":{}"#,
            rec.event.kind(),
            rec.time.as_micros(),
            rec.seq
        );
        write_json_fields(&rec.event, &mut inst);
        inst.push_str("}}");
        push_event(&mut out, &inst);
    }
    out.push_str("\n]}\n");
    out
}

fn write_json_fields(event: &Event, out: &mut String) {
    match event {
        Event::TxnSubmit {
            txn,
            deadline,
            accesses,
        } => {
            let _ = write!(
                out,
                r#","txn":"{txn}","deadline_us":{},"accesses":{accesses}"#,
                deadline.as_micros()
            );
        }
        Event::H1Admit {
            txn,
            queue_ahead,
            atl_us,
            projected,
            deadline,
        }
        | Event::H1Reject {
            txn,
            queue_ahead,
            atl_us,
            projected,
            deadline,
        } => {
            let _ = write!(
                out,
                r#","txn":"{txn}","queue_ahead":{queue_ahead},"atl_us":{atl_us},"projected_us":{},"deadline_us":{}"#,
                projected.as_micros(),
                deadline.as_micros()
            );
        }
        Event::H2Choose {
            txn,
            origin,
            chosen,
            candidates,
        } => {
            let _ = write!(
                out,
                r#","txn":"{txn}","origin":"{origin}","chosen":"{chosen}","candidates":["#
            );
            for (i, c) in candidates.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, r#"{{"site":"{}","score":{}}}"#, c.site, c.score);
            }
            out.push(']');
        }
        Event::ExecStart { txn }
        | Event::RetrySent { txn }
        | Event::WalCommit { txn }
        | Event::WalAbort { txn } => {
            let _ = write!(out, r#","txn":"{txn}""#);
        }
        Event::LockWait { txn, object } => {
            let _ = write!(out, r#","txn":"{txn}","object":"{object}""#);
        }
        Event::CallbackIssued { object, holders } => {
            let _ = write!(out, r#","object":"{object}","holders":{holders}"#);
        }
        Event::CallbackAcked { object, from } => {
            let _ = write!(out, r#","object":"{object}","from":"{from}""#);
        }
        Event::WindowOpen { object } => {
            let _ = write!(out, r#","object":"{object}""#);
        }
        Event::WindowClose { object, batch } => {
            let _ = write!(out, r#","object":"{object}","batch":{batch}"#);
        }
        Event::ForwardHop { object, to } => {
            let _ = write!(out, r#","object":"{object}","to":"{to}""#);
        }
        Event::Shipped { txn, to } => {
            let _ = write!(out, r#","txn":"{txn}","to":"{to}""#);
        }
        Event::Decomposed { txn, subtasks } => {
            let _ = write!(out, r#","txn":"{txn}","subtasks":{subtasks}"#);
        }
        Event::Commit {
            txn,
            latency_us,
            slack_us,
        } => {
            let _ = write!(
                out,
                r#","txn":"{txn}","latency_us":{latency_us},"slack_us":{slack_us}"#
            );
        }
        Event::Abort { txn, reason } => {
            let _ = write!(
                out,
                r#","txn":"{txn}","reason":"{}""#,
                abort_reason_str(*reason)
            );
        }
        Event::ServerReject { txn, expired } => {
            let _ = write!(out, r#","txn":"{txn}","expired":{expired}"#);
        }
        Event::MsgDropped { to } => {
            let _ = write!(out, r#","to":"{to}""#);
        }
        Event::MsgDelayed { to, jitter_us } => {
            let _ = write!(out, r#","to":"{to}","jitter_us":{jitter_us}"#);
        }
        Event::SiteCrash { site } | Event::SiteRecover { site } => {
            let _ = write!(out, r#","site":"{site}""#);
        }
        Event::LeaseExpired { object, holder } => {
            let _ = write!(out, r#","object":"{object}","holder":"{holder}""#);
        }
        Event::LockHeld {
            txn,
            object,
            exclusive,
        } => {
            let _ = write!(
                out,
                r#","txn":"{txn}","object":"{object}","exclusive":{exclusive}"#
            );
        }
        Event::UnitEnd { txn, committed } => {
            let _ = write!(out, r#","txn":"{txn}","committed":{committed}"#);
        }
        Event::CacheInstall {
            client,
            object,
            exclusive,
        } => {
            let _ = write!(
                out,
                r#","client":"{client}","object":"{object}","exclusive":{exclusive}"#
            );
        }
        Event::CacheDowngrade { client, object } | Event::CacheDrop { client, object } => {
            let _ = write!(out, r#","client":"{client}","object":"{object}""#);
        }
        Event::CacheWipe { client } => {
            let _ = write!(out, r#","client":"{client}""#);
        }
        Event::Outcome { txn, outcome } => {
            let _ = write!(
                out,
                r#","txn":"{txn}","outcome":"{}""#,
                outcome_str(*outcome)
            );
        }
        Event::WalWrite { txn, page, stamp } => {
            let _ = write!(out, r#","txn":"{txn}","page":"{page}","stamp":{stamp}"#);
        }
        Event::WalCheckpoint {
            active,
            log_records,
        } => {
            let _ = write!(out, r#","active":{active},"log_records":{log_records}"#);
        }
        Event::RecoveryDone {
            site,
            redo,
            undone,
            losers,
            replay_ios,
        } => {
            let _ = write!(
                out,
                r#","site":"{site}","redo":{redo},"undone":{undone},"losers":{losers},"replay_ios":{replay_ios}"#
            );
        }
        Event::WalState { page, stamp } => {
            let _ = write!(out, r#","page":"{page}","stamp":{stamp}"#);
        }
        Event::Span {
            txn,
            kind,
            start,
            blocker,
        } => {
            if let Some(txn) = txn {
                let _ = write!(out, r#","txn":"{txn}""#);
            }
            let _ = write!(
                out,
                r#","span":"{}","start_us":{}"#,
                kind.label(),
                start.as_micros()
            );
            if let Some(blocker) = blocker {
                let _ = write!(out, r#","blocker":"{blocker}""#);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use siteselect_types::{AbortReason, ClientId, ObjectId, TxnOutcome};

    use super::*;
    use crate::event::H2Candidate;
    use crate::{export, SpanKind};

    struct Xorshift(u64);

    impl Xorshift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }

        /// Digit-count boundaries and the extremes as often as anything else.
        fn num(&mut self) -> u64 {
            const EDGES: [u64; 10] = [
                0,
                1,
                9,
                10,
                99,
                100,
                999_999,
                (1 << 48) - 1,
                1 << 63,
                u64::MAX,
            ];
            match self.below(3) {
                0 => EDGES[self.below(EDGES.len())],
                1 => self.next() >> self.below(64),
                _ => self.next() % 100_000,
            }
        }

        fn time(&mut self) -> SimTime {
            SimTime::from_micros(self.num())
        }

        fn client(&mut self) -> ClientId {
            const EDGES: [u16; 5] = [0, 1, 9, 100, u16::MAX];
            ClientId(EDGES[self.below(EDGES.len())])
        }

        /// A small pool, so submits meet their outcomes, some outcomes
        /// have no submit and some submits no outcome.
        fn txn(&mut self) -> TransactionId {
            const SEQS: [u64; 4] = [0, 7, 1 << 20, (1 << 48) - 1];
            TransactionId::new(self.client(), SEQS[self.below(SEQS.len())])
        }

        fn object(&mut self) -> ObjectId {
            ObjectId(self.num() as u32)
        }

        fn site(&mut self) -> SiteId {
            match self.below(4) {
                0 => SiteId::Server,
                1 => SiteId::Directory,
                _ => SiteId::Client(self.client()),
            }
        }

        fn flag(&mut self) -> bool {
            self.below(2) == 0
        }

        fn reason(&mut self) -> AbortReason {
            const ALL: [AbortReason; 5] = [
                AbortReason::Expired,
                AbortReason::Deadlock,
                AbortReason::SubtaskFailure,
                AbortReason::SiteCrash,
                AbortReason::Shutdown,
            ];
            ALL[self.below(ALL.len())]
        }

        /// An event of the kind numbered `kind` (`Event::kind_index`).
        fn event(&mut self, kind: usize) -> Event {
            let txn = self.txn();
            let object = self.object();
            let client = self.client();
            let site = self.site();
            match kind {
                0 => Event::TxnSubmit {
                    txn,
                    deadline: self.time(),
                    accesses: self.num() as u32,
                },
                1 => Event::H1Admit {
                    txn,
                    queue_ahead: self.num(),
                    atl_us: self.num(),
                    projected: self.time(),
                    deadline: self.time(),
                },
                2 => Event::H1Reject {
                    txn,
                    queue_ahead: self.num(),
                    atl_us: self.num(),
                    projected: self.time(),
                    deadline: self.time(),
                },
                3 => Event::H2Choose {
                    txn,
                    origin: site,
                    chosen: self.site(),
                    candidates: (0..[0, 1, 3, 100][self.below(4)])
                        .map(|_| H2Candidate {
                            site: self.site(),
                            score: self.num(),
                        })
                        .collect(),
                },
                4 => Event::ExecStart { txn },
                5 => Event::LockWait { txn, object },
                6 => Event::CallbackIssued {
                    object,
                    holders: self.num() as u32,
                },
                7 => Event::CallbackAcked {
                    object,
                    from: client,
                },
                8 => Event::WindowOpen { object },
                9 => Event::WindowClose {
                    object,
                    batch: self.num() as u32,
                },
                10 => Event::ForwardHop { object, to: client },
                11 => Event::Shipped { txn, to: site },
                12 => Event::Decomposed {
                    txn,
                    subtasks: self.num() as u32,
                },
                13 => Event::Commit {
                    txn,
                    latency_us: self.num(),
                    slack_us: [0, -1, i64::MIN, i64::MAX, self.num() as i64][self.below(5)],
                },
                14 => Event::Abort {
                    txn,
                    reason: self.reason(),
                },
                15 => Event::ServerReject {
                    txn,
                    expired: self.flag(),
                },
                16 => Event::MsgDropped { to: site },
                17 => Event::MsgDelayed {
                    to: site,
                    jitter_us: self.num(),
                },
                18 => Event::SiteCrash { site },
                19 => Event::SiteRecover { site },
                20 => Event::RetrySent { txn },
                21 => Event::LeaseExpired {
                    object,
                    holder: client,
                },
                22 => Event::LockHeld {
                    txn,
                    object,
                    exclusive: self.flag(),
                },
                23 => Event::UnitEnd {
                    txn,
                    committed: self.flag(),
                },
                24 => Event::CacheInstall {
                    client,
                    object,
                    exclusive: self.flag(),
                },
                25 => Event::CacheDowngrade { client, object },
                26 => Event::CacheDrop { client, object },
                27 => Event::CacheWipe { client },
                28 => Event::Outcome {
                    txn,
                    outcome: match self.below(3) {
                        0 => TxnOutcome::Committed,
                        1 => TxnOutcome::CommittedLate,
                        _ => TxnOutcome::Aborted(self.reason()),
                    },
                },
                29 => Event::WalWrite {
                    txn,
                    page: object,
                    stamp: self.num(),
                },
                30 => Event::WalCommit { txn },
                31 => Event::WalAbort { txn },
                32 => Event::WalCheckpoint {
                    active: self.num() as u32,
                    log_records: self.num(),
                },
                33 => Event::RecoveryDone {
                    site,
                    redo: self.num(),
                    undone: self.num(),
                    losers: self.num() as u32,
                    replay_ios: self.num(),
                },
                34 => Event::WalState {
                    page: object,
                    stamp: self.num(),
                },
                _ => Event::Span {
                    txn: self.flag().then_some(txn),
                    kind: SpanKind::ALL[kind - 35],
                    start: self.time(),
                    blocker: self.flag().then(|| self.txn()),
                },
            }
        }
    }

    /// Full coverage in optimized builds (`scripts/ci.sh` runs this test
    /// with `--release`); debug builds run a slice and Miri a thin one.
    const CASES: u64 = if cfg!(miri) {
        2
    } else if cfg!(debug_assertions) {
        40
    } else {
        2000
    };

    #[test]
    fn format_free_writer_matches_write_reference() {
        // [txn, blocker] presence of the spans seen, per span kind.
        let mut span_shapes = [[false; 4]; SpanKind::COUNT];
        let (mut slices, mut lone_outcomes, mut open_submits) = (0, 0, 0);
        for case in 0..CASES {
            let mut rng = Xorshift(0x9E37_79B9_7F4A_7C15 ^ (case + 1));
            // Every kind once in each case, then as many again at random;
            // crash/replay/rejoin kinds recur, so recovery phases pair up.
            let mut kinds: Vec<usize> = (0..Event::KINDS).collect();
            kinds.extend((0..Event::KINDS).map(|_| rng.below(Event::KINDS)));
            for i in (1..kinds.len()).rev() {
                kinds.swap(i, rng.below(i + 1));
            }
            let mut time = SimTime::from_micros(rng.num() >> 1);
            let records: Vec<TraceRecord> = kinds
                .into_iter()
                .enumerate()
                .map(|(i, kind)| {
                    // Mostly forward; a record before its span's start or
                    // its own submit must saturate the same way in both.
                    if rng.below(8) > 0 {
                        time =
                            SimTime::from_micros(time.as_micros().saturating_add(rng.num() % 5000));
                    }
                    let event = rng.event(kind);
                    assert_eq!(event.kind_index(), kind);
                    TraceRecord {
                        time,
                        seq: if i == 0 { u64::MAX } else { rng.num() },
                        site: rng.site(),
                        event,
                    }
                })
                .collect();

            assert_eq!(
                export::jsonl(&records),
                jsonl(&records),
                "jsonl, case {case}"
            );
            assert_eq!(
                export::chrome_trace(&records),
                chrome_trace(&records),
                "chrome, case {case}"
            );

            let mut submitted = std::collections::BTreeSet::new();
            for rec in &records {
                match &rec.event {
                    Event::Span {
                        txn, kind, blocker, ..
                    } => {
                        let shape = usize::from(txn.is_some()) * 2 + usize::from(blocker.is_some());
                        span_shapes[*kind as usize][shape] = true;
                    }
                    Event::TxnSubmit { txn, .. } => {
                        submitted.insert(*txn);
                    }
                    Event::Commit { txn, .. } | Event::Abort { txn, .. } => {
                        if submitted.remove(txn) {
                            slices += 1;
                        } else {
                            lone_outcomes += 1;
                        }
                    }
                    _ => {}
                }
            }
            open_submits += submitted.len();
        }
        // What the comparison covered, not just that it ran (Miri's two
        // cases are too few to promise every shape).
        if !cfg!(miri) {
            assert!(
                span_shapes
                    .iter()
                    .all(|shapes| shapes.iter().all(|&seen| seen)),
                "a span kind never took one of the four txn/blocker shapes: {span_shapes:?}"
            );
            assert!(slices > 0 && lone_outcomes > 0 && open_submits > 0);
        }
    }
}
