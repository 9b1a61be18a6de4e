//! The server state both server sites share, and what a crash does to it.
//!
//! CE locks at transaction granularity under a deadline-ordered queue, CS
//! at client granularity under FIFO; everything else about the database
//! server is the same in both: a lock table (which also answers the
//! deadlock check), a buffer pool in front of a seeded disk model, and a
//! WAL-backed [`DurableStore`]. [`ServerCore`] owns those and states once
//! what a server crash loses (lock table, buffer pool, the staged log tail
//! past a random cut) and what survives it (the forced log, the durable
//! pages, the disk's fault schedule, the crash PRNG stream). Each site
//! layers only what is its own on top: CE aborts its in-flight
//! transactions, CS resets its callback/window/routing state and
//! revalidates the clients' cached locks.

use siteselect_locks::table::LockOwner;
use siteselect_locks::{LockTable, QueueDiscipline};
use siteselect_net::Fabric;
use siteselect_obs::{Event, EventSink};
use siteselect_sim::Prng;
use siteselect_storage::{ClientCache, DiskModel, DurableStore, RecoveryOutcome};
use siteselect_types::{ExperimentConfig, SimDuration, SimTime, SiteId, TransactionId};

use crate::clientserver::Cx;
use crate::metrics::RunMetrics;

/// Length of one slow-disk episode (`FaultConfig::mean_time_to_slow_disk`
/// sets how often one starts).
const SLOW_DISK_EPISODE: SimDuration = SimDuration::from_secs(20);

/// Multiplier on the per-page service time during a slow-disk episode.
const SLOW_DISK_FACTOR: f64 = 4.0;

/// The run's fabric. With fault injection on, loss and jitter draw from a
/// dedicated PRNG stream, so they never perturb the workload's random
/// sequence.
pub(crate) fn fabric_for(cfg: &ExperimentConfig) -> Fabric {
    let mut fabric = Fabric::new(cfg.network, cfg.database.object_size_bytes);
    if cfg.faults.injects_faults() {
        let prng = Prng::seed_from_u64(cfg.runtime.seed).derive(0xFA_B1);
        fabric.enable_faults(cfg.faults, prng);
    }
    fabric
}

/// Lock table, buffer pool, disk and durable store of one
/// database server, with its crash-restart state. `O` is the lock owner:
/// a transaction key in CE, a client in CS.
pub(crate) struct ServerCore<O: LockOwner> {
    pub locks: LockTable<O>,
    pub buffer: ClientCache,
    pub disk: DiskModel,
    /// WAL-guarded durable home of the database.
    pub store: DurableStore,
    /// Crash-time draws: the torn staged-write tail kept by a crash and the
    /// reboot lag before replay starts. Its own stream, so restart draws
    /// never perturb the crash schedule; never advanced with faults off.
    crash_prng: Prng,
    /// Replay summary carried from a crash to its rejoin.
    pending_recovery: Option<RecoveryOutcome>,
    /// When the server went down (start of the site-scoped replay span the
    /// engine stamps at rejoin).
    crashed_at: Option<SimTime>,
}

impl<O: LockOwner> ServerCore<O> {
    pub(crate) fn new(cfg: &ExperimentConfig, discipline: QueueDiscipline) -> Self {
        let mut core = ServerCore {
            locks: LockTable::new(discipline),
            buffer: ClientCache::new(cfg.server.buffer_objects, 0),
            disk: DiskModel::new(cfg.server.disk.page_service_time),
            store: DurableStore::new(cfg.database.num_objects, cfg.server.buffer_objects.max(1)),
            crash_prng: Prng::seed_from_u64(cfg.runtime.seed).derive(0xFA_E5),
            pending_recovery: None,
            crashed_at: None,
        };
        core.presize(cfg);
        core
    }

    /// The server's lock table sees every object id sooner or later, so it
    /// takes the dense layout, pre-sized for the whole database: first-touch
    /// requests mid-run stay off the allocator. A new server does this
    /// once; a crash clears the table and keeps the layout.
    fn presize(&mut self, cfg: &ExperimentConfig) {
        self.locks
            .reserve_objects(cfg.database.num_objects as usize);
    }

    /// Pre-generates the slow-disk episodes from their seed-derived stream.
    pub(crate) fn schedule_slow_disk(&mut self, cfg: &ExperimentConfig) {
        let f = cfg.faults;
        if f.mean_time_to_slow_disk.is_zero() {
            return;
        }
        let end = SimTime::ZERO + cfg.runtime.duration;
        let mut prng = Prng::seed_from_u64(cfg.runtime.seed).derive(0xFA_D3);
        let mut episodes = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            t += prng.exp_duration(f.mean_time_to_slow_disk);
            if t >= end {
                break;
            }
            let until = t + SLOW_DISK_EPISODE;
            episodes.push((t, until));
            t = until;
        }
        self.disk.set_slow_episodes(episodes, SLOW_DISK_FACTOR);
    }

    /// The server crashes. The lock table and buffer pool are lost: both
    /// are cleared in place, so the restarted server forgets every lock
    /// and cached page but refills the same slab, box pool and index
    /// without allocating. Unless the crash is permanent the durable store
    /// is cut at a random point of its staged tail (which may leave a torn
    /// final record) and its surviving log replayed. The replay runs
    /// immediately in host terms, but its I/O is charged to the seeded disk
    /// model after a drawn reboot lag, so the rejoin time reflects the log
    /// length and any slow-disk episode in force.
    ///
    /// Returns when the server is ready to [`rejoin`](Self::rejoin); `None`
    /// if it was already down (nothing happens) or stays dark for good.
    pub(crate) fn crash(
        &mut self,
        now: SimTime,
        cfg: &ExperimentConfig,
        sink: &EventSink,
        fabric: &mut Fabric,
        metrics: &mut RunMetrics,
    ) -> Option<SimTime> {
        if !fabric.set_site_down(SiteId::Server) {
            return None; // scheduled crash landed while already down
        }
        self.crashed_at = Some(now);
        metrics.faults.crashes += 1;
        sink.emit(now, SiteId::Server, || Event::SiteCrash {
            site: SiteId::Server,
        });
        self.locks.clear();
        self.buffer.clear();
        if cfg.faults.mean_recovery_time.is_zero() {
            return None; // permanent crash: the site stays dark, no replay
        }
        let frames = cfg.server.buffer_objects.max(1);
        let keep = self.crash_prng.below_usize(self.store.staged_len() + 1);
        let dead = std::mem::replace(&mut self.store, DurableStore::new(1, 1));
        let (log, disk) = dead.crash(keep);
        let (recovered, outcome) = DurableStore::restart(&log, disk, frames);
        self.store = recovered;
        let back = now + self.crash_prng.exp_duration(cfg.faults.mean_recovery_time);
        let ios = u32::try_from(outcome.replay_ios()).unwrap_or(u32::MAX);
        let ready = if ios == 0 {
            back
        } else {
            self.disk.schedule_batch(back, ios)
        };
        self.pending_recovery = Some(outcome);
        Some(ready)
    }

    /// Replay finished: the server is reachable again, with only durable
    /// state. Stamps the replay summary and the post-replay page stamps
    /// (ascending page order — the recovery oracle checks them against the
    /// committed history) and returns when the outage began.
    pub(crate) fn rejoin(
        &mut self,
        now: SimTime,
        sink: &EventSink,
        fabric: &mut Fabric,
        metrics: &mut RunMetrics,
    ) -> Option<SimTime> {
        fabric.set_site_up(SiteId::Server);
        metrics.faults.recoveries += 1;
        let outcome = self.pending_recovery.take().unwrap_or_default();
        let (redo, undone) = (outcome.redo_applied, outcome.undone);
        let (losers, replay_ios) = (outcome.losers.len() as u32, outcome.replay_ios());
        sink.emit(now, SiteId::Server, || Event::RecoveryDone {
            site: SiteId::Server,
            redo,
            undone,
            losers,
            replay_ios,
        });
        if sink.is_enabled() {
            for (page, stamp) in self.store.stamps() {
                sink.emit(now, SiteId::Server, || Event::WalState { page, stamp });
            }
        }
        self.crashed_at.take()
    }

    /// Forces `txn`'s commit record (the WAL rule: before anyone hears of
    /// the commit) and stamps it, with the fuzzy checkpoint it may trigger.
    pub(crate) fn force_commit(&mut self, now: SimTime, sink: &EventSink, txn: u64) {
        let checkpoints = self.store.checkpoints();
        self.store.commit(txn);
        let id = TransactionId::from_raw(txn);
        sink.emit(now, SiteId::Server, || Event::WalCommit { txn: id });
        if self.store.checkpoints() > checkpoints {
            let active = self.store.active_txns() as u32;
            let log_records = self.store.log_records();
            sink.emit(now, SiteId::Server, || Event::WalCheckpoint {
                active,
                log_records,
            });
        }
    }

    /// Closes the message and fault counters into the run's report.
    pub(crate) fn report_faults(&self, cx: &mut Cx) {
        let (fabric, metrics) = (&cx.fabric, &mut cx.metrics);
        metrics.messages = fabric.stats().clone();
        metrics.faults.messages_dropped = fabric.dropped_messages() + cx.refused;
        metrics.faults.messages_delayed = fabric.delayed_messages();
        metrics.faults.slow_disk_ios = self.disk.slow_ios();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_types::{ClientId, FaultConfig, LockMode, ObjectId, SimDuration, SystemKind};

    fn restart_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper(SystemKind::ClientServer, 4, 0.2).with_seed(23);
        cfg.faults = FaultConfig::chaos_restart(1.0);
        cfg
    }

    /// A crash in the middle of some logged work, then the rejoin; returns
    /// what the replay did and when it was over.
    fn crash_then_rejoin<O: LockOwner>(
        discipline: QueueDiscipline,
        owner: O,
    ) -> (RecoveryOutcome, SimTime) {
        let cfg = restart_cfg();
        let mut core = ServerCore::<O>::new(&cfg, discipline);
        let mut fabric = fabric_for(&cfg);
        let mut metrics = RunMetrics::new(cfg.system, cfg.clients, 0.2, cfg.runtime.seed);
        let sink = EventSink::disabled();

        // Two committed writers and one loser in the log; a held lock and
        // a buffered page in volatile state.
        for txn in 1..=2u64 {
            core.store.write(txn, ObjectId(txn as u32));
            core.store.commit(txn);
        }
        core.store.write(3, ObjectId(7));
        core.locks
            .request(ObjectId(7), owner, LockMode::Exclusive, SimTime::MAX);
        core.buffer.insert(ObjectId(7));

        let down = SimTime::from_secs(100);
        let ready = core
            .crash(down, &cfg, &sink, &mut fabric, &mut metrics)
            .expect("a restart config schedules the rejoin");
        assert!(ready > down);
        assert!(!fabric.site_up(SiteId::Server));
        assert_eq!(core.locks.held_mode(ObjectId(7), owner), None);
        assert!(!core.buffer.contains(ObjectId(7)));
        assert_eq!(metrics.faults.crashes, 1);

        // A second crash while down changes nothing and draws nothing.
        let later = down + SimDuration::from_secs(1);
        assert_eq!(
            core.crash(later, &cfg, &sink, &mut fabric, &mut metrics),
            None
        );
        assert_eq!(metrics.faults.crashes, 1);
        assert_eq!(core.crashed_at, Some(down));

        let outcome = core.pending_recovery.clone().expect("replay ran");
        assert_eq!(
            core.rejoin(ready, &sink, &mut fabric, &mut metrics),
            Some(down)
        );
        assert!(fabric.site_up(SiteId::Server));
        assert_eq!(metrics.faults.recoveries, 1);
        assert_eq!(core.crashed_at, None);
        (outcome, ready)
    }

    #[test]
    fn crash_and_rejoin_are_the_same_for_both_owner_types() {
        let ce = crash_then_rejoin::<u64>(QueueDiscipline::Deadline, 42);
        let cs = crash_then_rejoin::<ClientId>(QueueDiscipline::Fifo, ClientId(1));
        // Same log, same crash stream: same replay, same downtime.
        assert_eq!(ce, cs);
        // The two forced commits survive whatever the cut left of the
        // staged tail; the unforced writer can only ever be a loser.
        assert!(ce.0.redo_applied >= 2, "{:?}", ce.0);
        assert!(ce.0.losers.iter().all(|&txn| txn == 3), "{:?}", ce.0);
    }

    #[test]
    fn a_permanent_crash_schedules_no_rejoin() {
        let mut cfg = restart_cfg();
        cfg.faults.mean_recovery_time = SimDuration::ZERO;
        let mut core = ServerCore::<ClientId>::new(&cfg, QueueDiscipline::Fifo);
        let mut fabric = fabric_for(&cfg);
        let mut metrics = RunMetrics::new(cfg.system, cfg.clients, 0.2, cfg.runtime.seed);
        let sink = EventSink::disabled();
        let at = SimTime::from_secs(5);
        assert_eq!(core.crash(at, &cfg, &sink, &mut fabric, &mut metrics), None);
        assert!(!fabric.site_up(SiteId::Server));
        assert!(core.pending_recovery.is_none());
    }
}
