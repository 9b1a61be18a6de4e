//! Run metrics: everything the paper's tables and figures report, plus
//! diagnostics.

use siteselect_net::MessageStats;
use siteselect_obs::{Event, EventSink};
use siteselect_sim::{OnlineStats, Ratio};
use siteselect_types::{SimTime, SiteId, SystemKind, TransactionId, TxnOutcome};

/// Why transactions failed, broken down (diagnostics beyond the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FailureBreakdown {
    /// Dropped because the deadline passed before/while processing.
    pub expired: u64,
    /// Rejected to avoid a wait-for cycle.
    pub deadlock: u64,
    /// A subtask of a decomposed transaction missed the deadline.
    pub subtask: u64,
    /// Committed after the deadline (still a miss in the paper's metric).
    pub late: u64,
    /// In flight when the run ended.
    pub shutdown: u64,
    /// Lost to an injected site crash (in flight at a crashing site, or
    /// arrived while its site was down).
    pub site_crash: u64,
}

impl FailureBreakdown {
    /// Total failures.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.expired + self.deadlock + self.subtask + self.late + self.shutdown + self.site_crash
    }
}

/// Fault-injection and failure-handling activity (all zero when the fault
/// subsystem is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Site crashes injected.
    pub crashes: u64,
    /// Site recoveries completed.
    pub recoveries: u64,
    /// Messages lost (random loss plus deliveries to crashed sites).
    pub messages_dropped: u64,
    /// Messages given non-zero extra delivery jitter.
    pub messages_delayed: u64,
    /// Callback leases that expired, reclaiming a presumed-dead holder's
    /// lock.
    pub leases_expired: u64,
    /// Client request retries sent after a presumed-lost control message.
    pub retries: u64,
    /// Server disk I/Os served during a slow-disk episode.
    pub slow_disk_ios: u64,
}

impl FaultReport {
    /// True if any fault activity was observed.
    #[must_use]
    pub fn any(&self) -> bool {
        *self != FaultReport::default()
    }
}

/// Client cache behaviour (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheReport {
    /// Accesses served from the memory tier.
    pub memory_hits: u64,
    /// Accesses served from the client disk tier.
    pub disk_hits: u64,
    /// Accesses that had to fetch from the server.
    pub misses: u64,
}

impl CacheReport {
    /// Overall hit percentage (both tiers), the quantity in Table 2.
    /// 0.0 (never NaN) when no access was recorded.
    #[must_use]
    pub fn hit_percent(&self) -> f64 {
        let total = self.memory_hits + self.disk_hits + self.misses;
        Ratio::of(self.memory_hits + self.disk_hits, total).percent()
    }
}

/// Object response times by requested lock mode (Table 3), in seconds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResponseReport {
    /// Request-to-receipt latency for shared-lock requests.
    pub shared: OnlineStats,
    /// Request-to-receipt latency for exclusive-lock requests.
    pub exclusive: OnlineStats,
}

/// Load-sharing activity (LS-CS-RTDBS only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadSharingReport {
    /// Transactions shipped to another site (H1 or H2 decision).
    pub shipped: u64,
    /// Transactions executed as parallel subtasks.
    pub decomposed: u64,
    /// Subtasks created in total.
    pub subtasks: u64,
    /// Object requests satisfied by a client-to-client forward (Table 4
    /// row 3).
    pub forward_satisfied: u64,
    /// Collection windows opened.
    pub windows_opened: u64,
    /// Requests H1 declared locally infeasible.
    pub h1_rejections: u64,
}

/// Complete metrics of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// System under test.
    pub system: SystemKind,
    /// Cluster size.
    pub clients: u16,
    /// Per-access update probability.
    pub update_fraction: f64,
    /// PRNG seed.
    pub seed: u64,
    /// Transactions that arrived inside the measurement window.
    pub measured: u64,
    /// Of those, committed at or before their deadline — the paper's
    /// headline count.
    pub in_time: u64,
    /// Failure breakdown for the rest.
    pub failures: FailureBreakdown,
    /// Client cache behaviour (zero for the centralized system).
    pub cache: CacheReport,
    /// Object response times by lock mode (client-server systems).
    pub response: ResponseReport,
    /// Network message counts (Table 4 categories included).
    pub messages: MessageStats,
    /// Load-sharing activity (meaningful for LS runs).
    pub load_sharing: LoadSharingReport,
    /// Fault-injection activity (meaningful when faults are enabled).
    pub faults: FaultReport,
    /// End-to-end latency of in-time transactions, seconds.
    pub latency: OnlineStats,
    /// Time transactions spent blocked waiting for objects/locks, seconds.
    pub blocking: OnlineStats,
    /// Mean client CPU utilization in `[0, 1]`.
    pub client_cpu_utilization: f64,
    /// Server CPU utilization in `[0, 1]` (centralized runs).
    pub server_cpu_utilization: f64,
    /// Server buffer hit ratio.
    pub server_buffer: Ratio,
}

impl RunMetrics {
    /// Creates zeroed metrics for a run description.
    #[must_use]
    pub fn new(system: SystemKind, clients: u16, update_fraction: f64, seed: u64) -> Self {
        RunMetrics {
            system,
            clients,
            update_fraction,
            seed,
            measured: 0,
            in_time: 0,
            failures: FailureBreakdown::default(),
            cache: CacheReport::default(),
            response: ResponseReport::default(),
            messages: MessageStats::new(),
            load_sharing: LoadSharingReport::default(),
            faults: FaultReport::default(),
            latency: OnlineStats::new(),
            blocking: OnlineStats::new(),
            client_cpu_utilization: 0.0,
            server_cpu_utilization: 0.0,
            server_buffer: Ratio::new(),
        }
    }

    /// Percentage of measured transactions that met their deadline — the
    /// y-axis of Figures 3–5. 0.0 (never NaN) when nothing was measured;
    /// every percentage helper routes through [`Ratio`] for uniform
    /// division-by-zero handling.
    #[must_use]
    pub fn success_percent(&self) -> f64 {
        Ratio::of(self.in_time, self.measured).percent()
    }

    /// Records a measured transaction outcome.
    pub fn record_outcome(&mut self, outcome: TxnOutcome) {
        use siteselect_types::AbortReason as R;
        self.measured += 1;
        match outcome {
            TxnOutcome::Committed => self.in_time += 1,
            TxnOutcome::CommittedLate => self.failures.late += 1,
            TxnOutcome::Aborted(R::Expired) => self.failures.expired += 1,
            TxnOutcome::Aborted(R::Deadlock) => self.failures.deadlock += 1,
            TxnOutcome::Aborted(R::SubtaskFailure) => self.failures.subtask += 1,
            TxnOutcome::Aborted(R::Shutdown) => self.failures.shutdown += 1,
            TxnOutcome::Aborted(R::SiteCrash) => self.failures.site_crash += 1,
        }
    }

    /// Records a measured transaction's outcome and stamps the matching
    /// `Outcome` record on the trace, so the deadline-accounting oracle can
    /// recount the report from the event stream alone.
    pub(crate) fn record(
        &mut self,
        sink: &EventSink,
        now: SimTime,
        site: SiteId,
        txn: TransactionId,
        outcome: TxnOutcome,
    ) {
        sink.emit(now, site, || Event::Outcome { txn, outcome });
        self.record_outcome(outcome);
    }

    /// Scores a measured commit that its origin learns of at `now`: in time
    /// or late against `deadline`, and an in-time one adds its end-to-end
    /// latency. Returns whether it was in time.
    pub(crate) fn record_commit(
        &mut self,
        sink: &EventSink,
        now: SimTime,
        site: SiteId,
        txn: TransactionId,
        deadline: SimTime,
        arrival: SimTime,
    ) -> bool {
        let in_time = now <= deadline;
        let outcome = if in_time {
            TxnOutcome::Committed
        } else {
            TxnOutcome::CommittedLate
        };
        self.record(sink, now, site, txn, outcome);
        if in_time {
            self.latency.push_duration(now.duration_since(arrival));
        }
        in_time
    }

    /// Adds the outcomes another site scored into these: how the metrics
    /// of one-site simulators of one run combine.
    pub fn add_outcomes(&mut self, other: &RunMetrics) {
        let (f, o) = (&mut self.failures, &other.failures);
        self.measured += other.measured;
        self.in_time += other.in_time;
        f.expired += o.expired;
        f.deadlock += o.deadlock;
        f.subtask += o.subtask;
        f.late += o.late;
        f.shutdown += o.shutdown;
        f.site_crash += o.site_crash;
    }

    /// Internal consistency: outcomes must cover every measured
    /// transaction.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.in_time + self.failures.total() == self.measured
    }
}

impl std::fmt::Display for RunMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} | {} clients | {:.0}% updates | seed {:#x}",
            self.system,
            self.clients,
            self.update_fraction * 100.0,
            self.seed
        )?;
        writeln!(
            f,
            "  deadline success: {:.2}% ({} of {})",
            self.success_percent(),
            self.in_time,
            self.measured
        )?;
        writeln!(
            f,
            "  failures: {} expired, {} deadlock, {} subtask, {} late, {} shutdown",
            self.failures.expired,
            self.failures.deadlock,
            self.failures.subtask,
            self.failures.late,
            self.failures.shutdown
        )?;
        if self.failures.site_crash > 0 || self.faults.any() {
            writeln!(
                f,
                "  faults: {} crash-lost txns | {} crashes, {} recoveries, {} msgs dropped, {} delayed, {} leases expired, {} retries, {} slow I/Os",
                self.failures.site_crash,
                self.faults.crashes,
                self.faults.recoveries,
                self.faults.messages_dropped,
                self.faults.messages_delayed,
                self.faults.leases_expired,
                self.faults.retries,
                self.faults.slow_disk_ios
            )?;
        }
        if self.cache.memory_hits + self.cache.disk_hits + self.cache.misses > 0 {
            writeln!(f, "  cache hit rate: {:.2}%", self.cache.hit_percent())?;
        }
        if self.response.shared.count() + self.response.exclusive.count() > 0 {
            writeln!(
                f,
                "  object response: SL {:.3}s (n={}), EL {:.3}s (n={})",
                self.response.shared.mean(),
                self.response.shared.count(),
                self.response.exclusive.mean(),
                self.response.exclusive.count()
            )?;
        }
        if self.load_sharing.shipped + self.load_sharing.decomposed > 0 {
            writeln!(
                f,
                "  load sharing: {} shipped, {} decomposed ({} subtasks), {} forward-satisfied",
                self.load_sharing.shipped,
                self.load_sharing.decomposed,
                self.load_sharing.subtasks,
                self.load_sharing.forward_satisfied
            )?;
        }
        writeln!(
            f,
            "  latency: mean {:.3}s | blocking: mean {:.3}s | cpu: client {:.1}%, server {:.1}%",
            self.latency.mean(),
            self.blocking.mean(),
            self.client_cpu_utilization * 100.0,
            self.server_cpu_utilization * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_types::AbortReason;

    #[test]
    fn outcomes_partition_measured() {
        let mut m = RunMetrics::new(SystemKind::ClientServer, 20, 0.01, 1);
        m.record_outcome(TxnOutcome::Committed);
        m.record_outcome(TxnOutcome::Committed);
        m.record_outcome(TxnOutcome::CommittedLate);
        m.record_outcome(TxnOutcome::Aborted(AbortReason::Expired));
        m.record_outcome(TxnOutcome::Aborted(AbortReason::Deadlock));
        m.record_outcome(TxnOutcome::Aborted(AbortReason::SubtaskFailure));
        m.record_outcome(TxnOutcome::Aborted(AbortReason::Shutdown));
        assert_eq!(m.measured, 7);
        assert_eq!(m.in_time, 2);
        assert_eq!(m.failures.total(), 5);
        assert!(m.is_consistent());
        assert!((m.success_percent() - 2.0 * 100.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_are_consistent() {
        let m = RunMetrics::new(SystemKind::Centralized, 10, 0.05, 2);
        assert!(m.is_consistent());
        assert_eq!(m.success_percent(), 0.0);
    }

    #[test]
    fn cache_hit_percent() {
        let c = CacheReport {
            memory_hits: 70,
            disk_hits: 10,
            misses: 20,
        };
        assert!((c.hit_percent() - 80.0).abs() < 1e-12);
        assert_eq!(CacheReport::default().hit_percent(), 0.0);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let mut m = RunMetrics::new(SystemKind::LoadSharing, 100, 0.20, 3);
        m.record_outcome(TxnOutcome::Committed);
        m.cache.memory_hits = 5;
        m.load_sharing.shipped = 2;
        let s = m.to_string();
        assert!(s.contains("LS-CS-RTDBS"));
        assert!(s.contains("100 clients"));
        assert!(s.contains("deadline success"));
        assert!(s.contains("cache hit rate"));
        assert!(s.contains("shipped"));
    }
}
