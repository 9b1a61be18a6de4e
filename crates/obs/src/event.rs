//! The structured event taxonomy emitted by the simulators.
//!
//! Every payload field is an integer (microseconds for times), a boolean, a
//! static label or a stable identifier in its `IdText` form (the text its
//! `Display` prints), so serialized traces are byte-identical across runs
//! at the same seed — no floats, no pointers, no hash-map iteration order
//! anywhere near the wire format.

use siteselect_types::{AbortReason, ClientId, ObjectId, SimTime, SiteId, TransactionId, TxnOutcome};

use crate::span::SpanKind;
use crate::wire::Wire;

/// Stable lower-case label for an abort reason, used in exports.
#[must_use]
pub fn abort_reason_str(reason: AbortReason) -> &'static str {
    match reason {
        AbortReason::Expired => "expired",
        AbortReason::Deadlock => "deadlock",
        AbortReason::SubtaskFailure => "subtask_failure",
        AbortReason::SiteCrash => "site_crash",
        AbortReason::Shutdown => "shutdown",
    }
}

/// Stable lower-case label for a final transaction outcome, used in exports
/// and by the deadline-accounting oracle (`siteselect-check`).
#[must_use]
pub fn outcome_str(outcome: TxnOutcome) -> &'static str {
    match outcome {
        TxnOutcome::Committed => "committed",
        TxnOutcome::CommittedLate => "committed_late",
        TxnOutcome::Aborted(reason) => abort_reason_str(reason),
    }
}

/// One candidate considered by the H2 site-selection heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct H2Candidate {
    /// The candidate execution site.
    pub site: SiteId,
    /// Conflicting-lock count (lower is better).
    pub score: u64,
}

/// A structured trace event. See DESIGN.md §Observability for the taxonomy.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A transaction arrived at its originating client.
    TxnSubmit {
        /// The new transaction.
        txn: TransactionId,
        /// Its firm deadline.
        deadline: SimTime,
        /// Number of object accesses it will make.
        accesses: u32,
    },
    /// H1 admitted the transaction: `now + n·ATL ≤ deadline`.
    H1Admit {
        /// The admitted transaction.
        txn: TransactionId,
        /// `n`: EDF queue length ahead of it (CPU load proxy).
        queue_ahead: u64,
        /// Running average transaction latency, microseconds.
        atl_us: u64,
        /// The projected completion instant `now + n·ATL`.
        projected: SimTime,
        /// The transaction deadline the projection was tested against.
        deadline: SimTime,
    },
    /// H1 judged local completion infeasible (`now + n·ATL > deadline`).
    H1Reject {
        /// The rejected transaction.
        txn: TransactionId,
        /// `n`: EDF queue length ahead of it.
        queue_ahead: u64,
        /// Running average transaction latency, microseconds.
        atl_us: u64,
        /// The projected completion instant that missed the deadline.
        projected: SimTime,
        /// The deadline it missed.
        deadline: SimTime,
    },
    /// H2 scored candidate sites and picked one.
    H2Choose {
        /// The transaction being placed.
        txn: TransactionId,
        /// Site the transaction originated at.
        origin: SiteId,
        /// Site H2 selected.
        chosen: SiteId,
        /// Every scored candidate, in evaluation order.
        candidates: Vec<H2Candidate>,
    },
    /// A transaction started executing on a CPU.
    ExecStart {
        /// The transaction.
        txn: TransactionId,
    },
    /// A lock request blocked behind a conflicting holder.
    LockWait {
        /// The blocked transaction.
        txn: TransactionId,
        /// The contended object.
        object: ObjectId,
    },
    /// The server issued callback recalls to the current holders.
    CallbackIssued {
        /// The recalled object.
        object: ObjectId,
        /// How many holders were asked to give the object up.
        holders: u32,
    },
    /// A holder acknowledged (or returned the object for) a callback.
    CallbackAcked {
        /// The recalled object.
        object: ObjectId,
        /// The acknowledging client.
        from: ClientId,
    },
    /// A collection window opened on an object (grouped locks, §3.4).
    WindowOpen {
        /// The object the window collects requests for.
        object: ObjectId,
    },
    /// A collection window closed and produced a forward list.
    WindowClose {
        /// The object.
        object: ObjectId,
        /// Number of requests batched into the forward list.
        batch: u32,
    },
    /// An object hopped client→client along a forward list.
    ForwardHop {
        /// The forwarded object.
        object: ObjectId,
        /// The next client on the list.
        to: ClientId,
    },
    /// A whole transaction was shipped to a better site (H2 outcome).
    Shipped {
        /// The shipped transaction.
        txn: TransactionId,
        /// Destination site.
        to: SiteId,
    },
    /// A transaction was decomposed into subtasks (§3.2).
    Decomposed {
        /// The parent transaction.
        txn: TransactionId,
        /// Number of subtasks created.
        subtasks: u32,
    },
    /// A transaction committed.
    Commit {
        /// The committed transaction.
        txn: TransactionId,
        /// Response time (submit → commit), microseconds.
        latency_us: u64,
        /// Slack vs. deadline, microseconds; negative means it was late.
        slack_us: i64,
    },
    /// A transaction aborted.
    Abort {
        /// The aborted transaction.
        txn: TransactionId,
        /// Why it aborted.
        reason: AbortReason,
    },
    /// The server refused a lock request (deadline passed or deadlock).
    ServerReject {
        /// The refused transaction.
        txn: TransactionId,
        /// True when the refusal was because the deadline had passed.
        expired: bool,
    },
    /// The fabric dropped a message (fault injection).
    MsgDropped {
        /// The destination that never received it.
        to: SiteId,
    },
    /// The fabric delayed a message beyond its modeled latency.
    MsgDelayed {
        /// The destination.
        to: SiteId,
        /// Extra delay added, microseconds.
        jitter_us: u64,
    },
    /// A site crashed (fault injection).
    SiteCrash {
        /// The crashed site.
        site: SiteId,
    },
    /// A crashed site came back up.
    SiteRecover {
        /// The recovered site.
        site: SiteId,
    },
    /// A client re-sent a fetch after a timeout.
    RetrySent {
        /// The retrying transaction.
        txn: TransactionId,
    },
    /// The server reclaimed a callback lease that was never acknowledged.
    LeaseExpired {
        /// The object whose recall went unanswered.
        object: ObjectId,
        /// The unresponsive holder.
        holder: ClientId,
    },
    /// An execution unit (transaction, shipped transaction, or subtask)
    /// started holding a lock it will keep until its terminal event —
    /// the serializability oracle's per-object ordering witness.
    LockHeld {
        /// The holding unit (root id, or a derived subtask id).
        txn: TransactionId,
        /// The locked object.
        object: ObjectId,
        /// True for an exclusive (write) lock, false for shared.
        exclusive: bool,
    },
    /// An execution unit reached its terminal state and released all locks
    /// (strict 2PL). Paired with [`Event::LockHeld`] it bounds every lock
    /// episode the serializability oracle reasons about.
    UnitEnd {
        /// The finished unit.
        txn: TransactionId,
        /// True if the unit committed; false on any abort.
        committed: bool,
    },
    /// A client installed a cached copy of an object with a cached lock.
    CacheInstall {
        /// The installing client.
        client: ClientId,
        /// The object.
        object: ObjectId,
        /// True for an exclusive cached lock, false for shared.
        exclusive: bool,
    },
    /// A client downgraded its cached exclusive lock to shared (callback
    /// answered with downgrade-to-shared).
    CacheDowngrade {
        /// The downgrading client.
        client: ClientId,
        /// The object.
        object: ObjectId,
    },
    /// A client gave up its cached lock on an object (callback revoke,
    /// forward hop hand-off, or a server-side lease fence).
    CacheDrop {
        /// The client losing the cached lock.
        client: ClientId,
        /// The object.
        object: ObjectId,
    },
    /// A client lost every cached lock at once (site crash).
    CacheWipe {
        /// The wiped client.
        client: ClientId,
    },
    /// A measured transaction's final accounting disposition was recorded —
    /// exactly one per admitted transaction, recounted by the
    /// deadline-accounting oracle against the reported metrics.
    Outcome {
        /// The transaction.
        txn: TransactionId,
        /// Its final disposition.
        outcome: TxnOutcome,
    },
    /// A durable page write was logged at the server's write-ahead log. The
    /// stamp is the unique value now stored in the page; the recovery
    /// oracle tracks it until a [`Event::WalCommit`] or [`Event::WalAbort`]
    /// resolves it.
    WalWrite {
        /// The writing transaction (or server-side pseudo-transaction).
        txn: TransactionId,
        /// The page written.
        page: ObjectId,
        /// The unique write stamp stored in the page.
        stamp: u64,
    },
    /// A transaction's commit record was forced to the durable log — from
    /// this instant its stamped writes must survive any crash-restart.
    WalCommit {
        /// The committed transaction.
        txn: TransactionId,
    },
    /// A transaction's logged updates were rolled back in place and an
    /// abort record appended — its stamps must never be seen again.
    WalAbort {
        /// The rolled-back transaction.
        txn: TransactionId,
    },
    /// A fuzzy checkpoint record was written at the server.
    WalCheckpoint {
        /// Transactions active (unresolved) at checkpoint time.
        active: u32,
        /// Total records in the log after the checkpoint.
        log_records: u64,
    },
    /// Crash-restart replay finished at a recovering site.
    RecoveryDone {
        /// The recovering site.
        site: SiteId,
        /// Update records reapplied by the redo pass.
        redo: u64,
        /// Loser updates rolled back by the undo pass.
        undone: u64,
        /// Loser transactions rolled back.
        losers: u32,
        /// Disk operations the replay was charged for.
        replay_ios: u64,
    },
    /// Post-recovery durable page state: one per page with a nonzero write
    /// stamp, emitted in ascending page order after each replay. The
    /// recovery oracle compares these against the committed history.
    WalState {
        /// The page.
        page: ObjectId,
        /// The stamp the page holds after replay.
        stamp: u64,
    },
    /// A causal interval ended: `[start, record time]` of one cause of
    /// elapsed transaction time (see [`SpanKind`]). Emitted at completion so
    /// no open/close pairing is needed; the blame extractor charges each
    /// transaction's elementary time segments to its highest-priority
    /// covering span.
    Span {
        /// The affected transaction (root or derived subtask/shipped unit
        /// id; blame folds derived ids onto the root). `None` marks a
        /// site-scoped span — e.g. a crash-restart replay outage — that
        /// applies to every transaction overlapping it.
        txn: Option<TransactionId>,
        /// The cause this interval is charged to.
        kind: SpanKind,
        /// When the interval began (the record's own time is the end).
        start: SimTime,
        /// For lock waits: the transaction that held the conflicting lock
        /// when this wait began.
        blocker: Option<TransactionId>,
    },
}

/// Declares the non-span event kinds once: their labels, a dense numbering
/// (a fieldless twin enum, so no index is written by hand) and the
/// exhaustive `Event -> index` match. Span events follow, one index per
/// [`SpanKind`].
macro_rules! plain_kinds {
    ($($variant:ident => $name:literal,)*) => {
        #[derive(Clone, Copy)]
        enum PlainKind {
            $($variant,)*
        }

        const PLAIN_KIND_NAMES: &[&str] = &[$($name,)*];

        impl Event {
            /// Dense index of this event's kind, below [`Event::KINDS`].
            #[must_use]
            pub(crate) fn kind_index(&self) -> usize {
                match self {
                    $(Event::$variant { .. } => PlainKind::$variant as usize,)*
                    Event::Span { kind, .. } => PLAIN_KIND_NAMES.len() + *kind as usize,
                }
            }
        }
    };
}

plain_kinds! {
    TxnSubmit => "txn_submit",
    H1Admit => "h1_admit",
    H1Reject => "h1_reject",
    H2Choose => "h2_choose",
    ExecStart => "exec_start",
    LockWait => "lock_wait",
    CallbackIssued => "callback_issued",
    CallbackAcked => "callback_acked",
    WindowOpen => "window_open",
    WindowClose => "window_close",
    ForwardHop => "forward_hop",
    Shipped => "shipped",
    Decomposed => "decomposed",
    Commit => "commit",
    Abort => "abort",
    ServerReject => "server_reject",
    MsgDropped => "msg_dropped",
    MsgDelayed => "msg_delayed",
    SiteCrash => "site_crash",
    SiteRecover => "site_recover",
    RetrySent => "retry_sent",
    LeaseExpired => "lease_expired",
    LockHeld => "lock_held",
    UnitEnd => "unit_end",
    CacheInstall => "cache_install",
    CacheDowngrade => "cache_downgrade",
    CacheDrop => "cache_drop",
    CacheWipe => "cache_wipe",
    Outcome => "outcome",
    WalWrite => "wal_write",
    WalCommit => "wal_commit",
    WalAbort => "wal_abort",
    WalCheckpoint => "wal_checkpoint",
    RecoveryDone => "recovery_done",
    WalState => "wal_state",
}

impl Event {
    /// Number of distinct kinds ([`kind_index`](Self::kind_index) range).
    pub(crate) const KINDS: usize = PLAIN_KIND_NAMES.len() + SpanKind::COUNT;

    /// The label of the kind numbered `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`Event::KINDS`].
    #[must_use]
    pub(crate) fn kind_name(index: usize) -> &'static str {
        match PLAIN_KIND_NAMES.get(index) {
            Some(name) => name,
            None => SpanKind::ALL[index - PLAIN_KIND_NAMES.len()].event_kind(),
        }
    }

    /// Stable snake_case label for the event kind.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        Event::kind_name(self.kind_index())
    }

    /// The transaction this event concerns, if any.
    #[must_use]
    pub fn txn(&self) -> Option<TransactionId> {
        match self {
            Event::TxnSubmit { txn, .. }
            | Event::H1Admit { txn, .. }
            | Event::H1Reject { txn, .. }
            | Event::H2Choose { txn, .. }
            | Event::ExecStart { txn }
            | Event::LockWait { txn, .. }
            | Event::Shipped { txn, .. }
            | Event::Decomposed { txn, .. }
            | Event::Commit { txn, .. }
            | Event::Abort { txn, .. }
            | Event::ServerReject { txn, .. }
            | Event::RetrySent { txn }
            | Event::LockHeld { txn, .. }
            | Event::UnitEnd { txn, .. }
            | Event::Outcome { txn, .. }
            | Event::WalWrite { txn, .. }
            | Event::WalCommit { txn }
            | Event::WalAbort { txn } => Some(*txn),
            Event::Span { txn, .. } => *txn,
            _ => None,
        }
    }

    /// Appends the event's payload as JSON object members (`,"k":v` pairs).
    pub(crate) fn write_json_fields(&self, out: &mut Wire) {
        match self {
            Event::TxnSubmit {
                txn,
                deadline,
                accesses,
            } => {
                out.id(r#","txn":""#, *txn);
                out.uint(r#","deadline_us":"#, deadline.as_micros());
                out.uint(r#","accesses":"#, u64::from(*accesses));
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
                out.id(r#","txn":""#, *txn);
                out.uint(r#","queue_ahead":"#, *queue_ahead);
                out.uint(r#","atl_us":"#, *atl_us);
                out.uint(r#","projected_us":"#, projected.as_micros());
                out.uint(r#","deadline_us":"#, deadline.as_micros());
            }
            Event::H2Choose {
                txn,
                origin,
                chosen,
                candidates,
            } => {
                out.id(r#","txn":""#, *txn);
                out.id(r#","origin":""#, *origin);
                out.id(r#","chosen":""#, *chosen);
                out.lit(r#","candidates":["#);
                let mut open = r#"{"site":""#;
                for c in candidates {
                    out.id(open, c.site);
                    out.uint(r#","score":"#, c.score);
                    out.lit("}");
                    open = r#",{"site":""#;
                }
                out.lit("]");
            }
            Event::ExecStart { txn }
            | Event::RetrySent { txn }
            | Event::WalCommit { txn }
            | Event::WalAbort { txn } => out.id(r#","txn":""#, *txn),
            Event::LockWait { txn, object } => {
                out.id(r#","txn":""#, *txn);
                out.id(r#","object":""#, *object);
            }
            Event::CallbackIssued { object, holders } => {
                out.id(r#","object":""#, *object);
                out.uint(r#","holders":"#, u64::from(*holders));
            }
            Event::CallbackAcked { object, from } => {
                out.id(r#","object":""#, *object);
                out.id(r#","from":""#, *from);
            }
            Event::WindowOpen { object } => out.id(r#","object":""#, *object),
            Event::WindowClose { object, batch } => {
                out.id(r#","object":""#, *object);
                out.uint(r#","batch":"#, u64::from(*batch));
            }
            Event::ForwardHop { object, to } => {
                out.id(r#","object":""#, *object);
                out.id(r#","to":""#, *to);
            }
            Event::Shipped { txn, to } => {
                out.id(r#","txn":""#, *txn);
                out.id(r#","to":""#, *to);
            }
            Event::Decomposed { txn, subtasks } => {
                out.id(r#","txn":""#, *txn);
                out.uint(r#","subtasks":"#, u64::from(*subtasks));
            }
            Event::Commit {
                txn,
                latency_us,
                slack_us,
            } => {
                out.id(r#","txn":""#, *txn);
                out.uint(r#","latency_us":"#, *latency_us);
                out.int(r#","slack_us":"#, *slack_us);
            }
            Event::Abort { txn, reason } => {
                out.id(r#","txn":""#, *txn);
                out.label(r#","reason":""#, abort_reason_str(*reason));
            }
            Event::ServerReject { txn, expired } => {
                out.id(r#","txn":""#, *txn);
                out.flag(r#","expired":"#, *expired);
            }
            Event::MsgDropped { to } => out.id(r#","to":""#, *to),
            Event::MsgDelayed { to, jitter_us } => {
                out.id(r#","to":""#, *to);
                out.uint(r#","jitter_us":"#, *jitter_us);
            }
            Event::SiteCrash { site } | Event::SiteRecover { site } => {
                out.id(r#","site":""#, *site);
            }
            Event::LeaseExpired { object, holder } => {
                out.id(r#","object":""#, *object);
                out.id(r#","holder":""#, *holder);
            }
            Event::LockHeld {
                txn,
                object,
                exclusive,
            } => {
                out.id(r#","txn":""#, *txn);
                out.id(r#","object":""#, *object);
                out.flag(r#","exclusive":"#, *exclusive);
            }
            Event::UnitEnd { txn, committed } => {
                out.id(r#","txn":""#, *txn);
                out.flag(r#","committed":"#, *committed);
            }
            Event::CacheInstall {
                client,
                object,
                exclusive,
            } => {
                out.id(r#","client":""#, *client);
                out.id(r#","object":""#, *object);
                out.flag(r#","exclusive":"#, *exclusive);
            }
            Event::CacheDowngrade { client, object } | Event::CacheDrop { client, object } => {
                out.id(r#","client":""#, *client);
                out.id(r#","object":""#, *object);
            }
            Event::CacheWipe { client } => out.id(r#","client":""#, *client),
            Event::Outcome { txn, outcome } => {
                out.id(r#","txn":""#, *txn);
                out.label(r#","outcome":""#, outcome_str(*outcome));
            }
            Event::WalWrite { txn, page, stamp } => {
                out.id(r#","txn":""#, *txn);
                out.id(r#","page":""#, *page);
                out.uint(r#","stamp":"#, *stamp);
            }
            Event::WalCheckpoint {
                active,
                log_records,
            } => {
                out.uint(r#","active":"#, u64::from(*active));
                out.uint(r#","log_records":"#, *log_records);
            }
            Event::RecoveryDone {
                site,
                redo,
                undone,
                losers,
                replay_ios,
            } => {
                out.id(r#","site":""#, *site);
                out.uint(r#","redo":"#, *redo);
                out.uint(r#","undone":"#, *undone);
                out.uint(r#","losers":"#, u64::from(*losers));
                out.uint(r#","replay_ios":"#, *replay_ios);
            }
            Event::WalState { page, stamp } => {
                out.id(r#","page":""#, *page);
                out.uint(r#","stamp":"#, *stamp);
            }
            Event::Span {
                txn,
                kind,
                start,
                blocker,
            } => {
                if let Some(txn) = txn {
                    out.id(r#","txn":""#, *txn);
                }
                out.label(r#","span":""#, kind.label());
                out.uint(r#","start_us":"#, start.as_micros());
                if let Some(blocker) = blocker {
                    out.id(r#","blocker":""#, *blocker);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields(e: &Event) -> String {
        let mut out = Wire::new();
        e.write_json_fields(&mut out);
        out.into_string()
    }

    #[test]
    fn kinds_are_stable_snake_case() {
        let e = Event::Commit {
            txn: TransactionId::new(ClientId(1), 2),
            latency_us: 10,
            slack_us: -5,
        };
        assert_eq!(e.kind(), "commit");
        assert_eq!(e.txn(), Some(TransactionId::new(ClientId(1), 2)));
    }

    #[test]
    fn kind_indexes_are_dense_and_name_distinct_kinds() {
        let names: std::collections::BTreeSet<&str> =
            (0..Event::KINDS).map(Event::kind_name).collect();
        assert_eq!(names.len(), Event::KINDS);
        for kind in SpanKind::ALL {
            let e = Event::Span {
                txn: None,
                kind,
                start: SimTime::ZERO,
                blocker: None,
            };
            assert_eq!(e.kind(), kind.event_kind());
            assert!(e.kind_index() < Event::KINDS);
        }
    }

    #[test]
    fn json_fields_are_valid_members() {
        let e = Event::H2Choose {
            txn: TransactionId::new(ClientId(0), 1),
            origin: SiteId::Client(ClientId(0)),
            chosen: SiteId::Client(ClientId(3)),
            candidates: vec![
                H2Candidate {
                    site: SiteId::Client(ClientId(0)),
                    score: 4,
                },
                H2Candidate {
                    site: SiteId::Client(ClientId(3)),
                    score: 1,
                },
            ],
        };
        let s = fields(&e);
        assert!(s.starts_with(','));
        assert!(s.contains(r#""chosen":"client#3""#));
        assert!(s.contains(r#""score":1"#));
    }

    #[test]
    fn events_without_a_txn_say_so() {
        let e = Event::MsgDropped { to: SiteId::Server };
        assert_eq!(e.txn(), None);
        assert_eq!(e.kind(), "msg_dropped");
    }

    #[test]
    fn oracle_events_carry_their_payloads() {
        let txn = TransactionId::new(ClientId(2), 7);
        let held = Event::LockHeld {
            txn,
            object: ObjectId(4),
            exclusive: true,
        };
        assert_eq!(held.kind(), "lock_held");
        assert_eq!(held.txn(), Some(txn));
        let s = fields(&held);
        assert!(s.contains(r#""exclusive":true"#));

        let end = Event::UnitEnd {
            txn,
            committed: false,
        };
        assert_eq!(end.kind(), "unit_end");
        let s = fields(&end);
        assert!(s.contains(r#""committed":false"#));

        let outcome = Event::Outcome {
            txn,
            outcome: TxnOutcome::Aborted(AbortReason::SiteCrash),
        };
        let s = fields(&outcome);
        assert!(s.contains(r#""outcome":"site_crash""#));

        let install = Event::CacheInstall {
            client: ClientId(2),
            object: ObjectId(4),
            exclusive: false,
        };
        assert_eq!(install.txn(), None);
        let s = fields(&install);
        assert!(s.contains(r#""client":"client#2""#));
    }

    #[test]
    fn durability_events_carry_their_payloads() {
        let txn = TransactionId::new(ClientId(1), 9);
        let write = Event::WalWrite {
            txn,
            page: ObjectId(12),
            stamp: 77,
        };
        assert_eq!(write.kind(), "wal_write");
        assert_eq!(write.txn(), Some(txn));
        let s = fields(&write);
        assert!(s.contains(r#""page":"obj#12""#));
        assert!(s.contains(r#""stamp":77"#));

        let commit = Event::WalCommit { txn };
        assert_eq!(commit.kind(), "wal_commit");
        assert_eq!(commit.txn(), Some(txn));

        let done = Event::RecoveryDone {
            site: SiteId::Server,
            redo: 5,
            undone: 2,
            losers: 1,
            replay_ios: 9,
        };
        assert_eq!(done.kind(), "recovery_done");
        assert_eq!(done.txn(), None);
        let s = fields(&done);
        assert!(s.contains(r#""site":"server""#));
        assert!(s.contains(r#""replay_ios":9"#));

        let state = Event::WalState {
            page: ObjectId(3),
            stamp: 41,
        };
        assert_eq!(state.kind(), "wal_state");
        let s = fields(&state);
        assert!(s.contains(r#""stamp":41"#));

        let ckpt = Event::WalCheckpoint {
            active: 2,
            log_records: 100,
        };
        assert_eq!(ckpt.kind(), "wal_checkpoint");
        let s = fields(&ckpt);
        assert!(s.contains(r#""log_records":100"#));
    }

    #[test]
    fn span_events_carry_kind_start_and_blocker() {
        let txn = TransactionId::new(ClientId(3), 5);
        let blocker = TransactionId::new(ClientId(1), 2);
        let e = Event::Span {
            txn: Some(txn),
            kind: SpanKind::LockWait,
            start: SimTime::from_micros(40),
            blocker: Some(blocker),
        };
        assert_eq!(e.kind(), "span_lock_wait");
        assert_eq!(e.txn(), Some(txn));
        let s = fields(&e);
        assert!(s.contains(r#""span":"lock_wait""#));
        assert!(s.contains(r#""start_us":40"#));
        assert!(s.contains(r#""blocker":"txn#1.2""#));

        let sitewide = Event::Span {
            txn: None,
            kind: SpanKind::Replay,
            start: SimTime::from_micros(9),
            blocker: None,
        };
        assert_eq!(sitewide.kind(), "span_replay");
        assert_eq!(sitewide.txn(), None);
        let s = fields(&sitewide);
        assert!(s.starts_with(r#","span":"replay""#));
        assert!(!s.contains("blocker"));
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(outcome_str(TxnOutcome::Committed), "committed");
        assert_eq!(outcome_str(TxnOutcome::CommittedLate), "committed_late");
        assert_eq!(
            outcome_str(TxnOutcome::Aborted(AbortReason::Deadlock)),
            "deadlock"
        );
    }
}
