//! The wire format pinned to committed bytes: one hand-built record of
//! every event kind, with its expected JSONL (`fixtures/wire.jsonl`) and
//! Chrome `trace_event` text (`fixtures/wire.chrome.json`).
//!
//! The differential test in `export_reference` compares two writers with
//! each other and the CI determinism steps compare a binary with itself;
//! only this test notices a field that both lost. `siteselect-lint` parses
//! the same two files with the workspace's JSON reader
//! (`crates/lint/tests/trace_wire_json.rs`). A new event kind needs a
//! record here and a line in each file.

use siteselect_types::{
    AbortReason, ClientId, ObjectId, SimTime, SiteId, TransactionId, TxnOutcome,
};

use crate::event::{Event, H2Candidate};
use crate::sink::TraceRecord;
use crate::{export, SpanKind};

fn records() -> Vec<TraceRecord> {
    let client = ClientId(2);
    let here = SiteId::Client(client);
    let peer = ClientId(5);
    let txn = TransactionId::new(client, 9);
    let other = TransactionId::new(peer, 4);
    let object = ObjectId(12);
    let at = SimTime::from_micros;
    let events = vec![
        (
            100,
            here,
            Event::TxnSubmit {
                txn,
                deadline: at(900),
                accesses: 3,
            },
        ),
        (
            110,
            here,
            Event::H1Admit {
                txn,
                queue_ahead: 2,
                atl_us: 150,
                projected: at(410),
                deadline: at(900),
            },
        ),
        (
            120,
            here,
            Event::H1Reject {
                txn: other,
                queue_ahead: 7,
                atl_us: 150,
                projected: at(1170),
                deadline: at(800),
            },
        ),
        (
            130,
            SiteId::Directory,
            Event::H2Choose {
                txn: other,
                origin: SiteId::Client(peer),
                chosen: here,
                candidates: vec![
                    H2Candidate {
                        site: SiteId::Client(peer),
                        score: 4,
                    },
                    H2Candidate {
                        site: here,
                        score: 1,
                    },
                    H2Candidate {
                        site: SiteId::Server,
                        score: 6,
                    },
                ],
            },
        ),
        (140, here, Event::ExecStart { txn }),
        (150, SiteId::Server, Event::LockWait { txn, object }),
        (
            160,
            SiteId::Server,
            Event::CallbackIssued { object, holders: 2 },
        ),
        (
            170,
            SiteId::Server,
            Event::CallbackAcked { object, from: peer },
        ),
        (180, SiteId::Server, Event::WindowOpen { object }),
        (190, SiteId::Server, Event::WindowClose { object, batch: 3 }),
        (
            200,
            SiteId::Client(peer),
            Event::ForwardHop { object, to: client },
        ),
        (
            210,
            SiteId::Client(peer),
            Event::Shipped {
                txn: other,
                to: here,
            },
        ),
        (220, here, Event::Decomposed { txn, subtasks: 2 }),
        (
            700,
            here,
            Event::Commit {
                txn,
                latency_us: 600,
                slack_us: -25,
            },
        ),
        (
            710,
            SiteId::Client(peer),
            Event::Abort {
                txn: other,
                reason: AbortReason::Deadlock,
            },
        ),
        (
            720,
            SiteId::Server,
            Event::ServerReject {
                txn: other,
                expired: true,
            },
        ),
        (730, SiteId::Server, Event::MsgDropped { to: here }),
        (
            740,
            SiteId::Server,
            Event::MsgDelayed {
                to: SiteId::Directory,
                jitter_us: 350,
            },
        ),
        (
            750,
            SiteId::Server,
            Event::SiteCrash {
                site: SiteId::Server,
            },
        ),
        (760, here, Event::RetrySent { txn }),
        (
            770,
            SiteId::Server,
            Event::LeaseExpired {
                object,
                holder: peer,
            },
        ),
        (
            780,
            here,
            Event::LockHeld {
                txn,
                object,
                exclusive: true,
            },
        ),
        (
            790,
            here,
            Event::UnitEnd {
                txn,
                committed: false,
            },
        ),
        (
            800,
            here,
            Event::CacheInstall {
                client,
                object,
                exclusive: false,
            },
        ),
        (810, here, Event::CacheDowngrade { client, object }),
        (820, here, Event::CacheDrop { client, object }),
        (830, here, Event::CacheWipe { client }),
        (
            840,
            here,
            Event::Outcome {
                txn,
                outcome: TxnOutcome::CommittedLate,
            },
        ),
        (
            850,
            SiteId::Server,
            Event::WalWrite {
                txn,
                page: object,
                stamp: 77,
            },
        ),
        (860, SiteId::Server, Event::WalCommit { txn }),
        (870, SiteId::Server, Event::WalAbort { txn: other }),
        (
            880,
            SiteId::Server,
            Event::WalCheckpoint {
                active: 2,
                log_records: 100,
            },
        ),
        (
            1350,
            SiteId::Server,
            Event::RecoveryDone {
                site: SiteId::Server,
                redo: 5,
                undone: 2,
                losers: 1,
                replay_ios: 9,
            },
        ),
        (
            1360,
            SiteId::Server,
            Event::WalState {
                page: object,
                stamp: 77,
            },
        ),
        (
            1400,
            SiteId::Server,
            Event::SiteRecover {
                site: SiteId::Server,
            },
        ),
    ];
    // One span of every kind, cycling through the four txn/blocker shapes.
    let spans = SpanKind::ALL.into_iter().enumerate().map(|(i, kind)| {
        let span = Event::Span {
            txn: (i % 2 == 0).then_some(txn),
            kind,
            start: at(1400 + i as u64),
            blocker: (i % 4 >= 2).then_some(other),
        };
        (
            1500 + 10 * i as u64,
            if i % 2 == 0 { here } else { SiteId::Server },
            span,
        )
    });
    events
        .into_iter()
        .chain(spans)
        .enumerate()
        .map(|(seq, (time, site, event))| TraceRecord {
            time: at(time),
            seq: seq as u64,
            site,
            event,
        })
        .collect()
}

#[test]
fn fixture_holds_one_record_of_every_kind() {
    let mut seen = [0u32; Event::KINDS];
    for rec in records() {
        seen[rec.event.kind_index()] += 1;
    }
    assert_eq!(seen, [1; Event::KINDS]);
}

#[test]
fn jsonl_matches_the_committed_fixture() {
    assert_eq!(
        export::jsonl(&records()),
        include_str!("../fixtures/wire.jsonl")
    );
}

#[test]
fn chrome_trace_matches_the_committed_fixture() {
    assert_eq!(
        export::chrome_trace(&records()),
        include_str!("../fixtures/wire.chrome.json")
    );
}
