//! The causal span taxonomy behind blame attribution.
//!
//! A [`SpanKind`] names one *cause* a transaction can spend wall-clock time
//! on between submission and its terminal outcome. Engines emit a
//! [`Event::Span`](crate::Event::Span) when a causal interval **ends**, so a
//! span needs no matching open/close bookkeeping in the sink: the record's
//! own timestamp is the end and the payload carries the start.
//!
//! The blame extractor ([`crate::blame`]) partitions each transaction's
//! `[submit, outcome]` interval into elementary segments and charges every
//! segment to the highest-[`priority`](SpanKind::priority) span covering it;
//! uncovered time falls through to the [`SpanKind::Exec`] residual
//! (execution plus EDF CPU queueing, which has no explicit span). That
//! construction is what makes blame vectors sum *exactly* to end-to-end
//! latency.

/// One cause of elapsed transaction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// H1 admission handling: the load-query round a locally-infeasible
    /// transaction waits on before it is shipped or retried locally.
    Admission,
    /// H2/decomposition decision waits: the placement-information round
    /// (grant-all conflict report or decomposition load query).
    Decision,
    /// Fabric transit and request round-trips: object fetch send→grant,
    /// the submit hop into a centralized server, ship/subtask travel.
    Net,
    /// Blocked behind a conflicting lock holder (client-local table, CE
    /// global table, or the server's client-granularity queue).
    LockWait,
    /// Grouped-lock collection-window residency: a request parked in an
    /// open window waiting for the window to close into a forward list.
    Window,
    /// Waiting for a routed or recalled object to come home: a request
    /// whose window closed while the object was away, from that first close
    /// until its forward list leaves the window manager.
    ObjectAway,
    /// Disk and WAL I/O: server fetch batches, client cache-tier
    /// promotion, CE page reads.
    Disk,
    /// Commit protocol: shipping a remote unit's result back to its
    /// origin, or the CE server's commit→result return hop.
    Commit,
    /// Retry/backoff episodes: the dead time before a lost request was
    /// retransmitted.
    Retry,
    /// Crash-restart outage: server down + WAL replay until rejoin.
    Replay,
    /// Residual: CPU execution and EDF queueing. Never emitted as a span —
    /// the extractor derives it from uncovered time.
    Exec,
}

impl SpanKind {
    /// Every kind, in declaration (= ascending priority-agnostic) order.
    pub const ALL: [SpanKind; 11] = [
        SpanKind::Admission,
        SpanKind::Decision,
        SpanKind::Net,
        SpanKind::LockWait,
        SpanKind::Window,
        SpanKind::ObjectAway,
        SpanKind::Disk,
        SpanKind::Commit,
        SpanKind::Retry,
        SpanKind::Replay,
        SpanKind::Exec,
    ];

    /// Number of kinds (blame vectors are `[u64; COUNT]`).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case label used in exports and blame reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Admission => "admission",
            SpanKind::Decision => "decision",
            SpanKind::Net => "net",
            SpanKind::LockWait => "lock_wait",
            SpanKind::Window => "window",
            SpanKind::ObjectAway => "object_away",
            SpanKind::Disk => "disk",
            SpanKind::Commit => "commit",
            SpanKind::Retry => "retry",
            SpanKind::Replay => "replay",
            SpanKind::Exec => "exec",
        }
    }

    /// Stable event-kind label (`span_*`), so [`crate::ObsReport`] kind
    /// counts stay granular per cause.
    #[must_use]
    pub fn event_kind(self) -> &'static str {
        match self {
            SpanKind::Admission => "span_admission",
            SpanKind::Decision => "span_decision",
            SpanKind::Net => "span_net",
            SpanKind::LockWait => "span_lock_wait",
            SpanKind::Window => "span_window",
            SpanKind::ObjectAway => "span_object_away",
            SpanKind::Disk => "span_disk",
            SpanKind::Commit => "span_commit",
            SpanKind::Retry => "span_retry",
            SpanKind::Replay => "span_replay",
            SpanKind::Exec => "span_exec",
        }
    }

    /// Attribution priority: when spans of different kinds overlap, the
    /// elementary segment is charged to the highest priority. Interior,
    /// more-specific causes outrank the coarse round-trip spans that
    /// contain them (a server disk batch inside a fetch round-trip is
    /// disk time, not network time); `Exec` is the priority-0 residual.
    #[must_use]
    pub fn priority(self) -> u8 {
        match self {
            SpanKind::Replay => 10,
            SpanKind::Disk => 9,
            SpanKind::Window => 8,
            SpanKind::ObjectAway => 7,
            SpanKind::Retry => 6,
            SpanKind::LockWait => 5,
            SpanKind::Commit => 4,
            SpanKind::Net => 3,
            SpanKind::Decision => 2,
            SpanKind::Admission => 1,
            SpanKind::Exec => 0,
        }
    }

    /// Index into a blame vector (`ALL` order).
    #[must_use]
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&k| k == self)
            .expect("every kind is in ALL")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_event_kinds_are_distinct_and_stable() {
        let mut labels: Vec<&str> = SpanKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), SpanKind::COUNT);
        for k in SpanKind::ALL {
            assert_eq!(k.event_kind(), format!("span_{}", k.label()));
            assert_eq!(SpanKind::ALL[k.index()], k);
        }
    }

    #[test]
    fn priorities_are_a_permutation_with_exec_lowest() {
        let mut prios: Vec<u8> = SpanKind::ALL.iter().map(|k| k.priority()).collect();
        prios.sort_unstable();
        let expected: Vec<u8> = (0..SpanKind::COUNT as u8).collect();
        assert_eq!(prios, expected);
        assert_eq!(SpanKind::Exec.priority(), 0);
        assert_eq!(SpanKind::Replay.priority(), 10);
        assert_eq!(
            SpanKind::ObjectAway.priority() + 1,
            SpanKind::Window.priority()
        );
    }
}
