//! Cluster assembly: spawns the server, one worker thread and one callback
//! thread per client, runs a scaled-down Table 1 workload, and gathers the
//! report.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Instant;

use siteselect_sim::Prng;
use siteselect_types::{
    AccessPatternConfig, ClientId, ConfigError, DeadlinePolicy, SimDuration, WorkloadConfig,
};
use siteselect_workload::TransactionGenerator;

use siteselect_obs::{EventSink, TraceData};

use crate::client::{run_transaction, scale_duration, ClientShared, WorkerReport};
use crate::history::HistoryLog;
use crate::report::ClusterReport;
use crate::server::SharedServer;

/// Configuration of a threaded cluster run.
///
/// Times are expressed in the workload's simulated units and scaled to real
/// time by `time_scale` (default: 1 simulated second → 1 real millisecond),
/// so the paper's 10 s transactions become ~10 ms of real work.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of client workstations (threads × 2).
    pub clients: u16,
    /// Database pages.
    pub db_objects: u32,
    /// Server buffer frames.
    pub server_buffer: usize,
    /// Per-client cache capacity (objects).
    pub client_cache: usize,
    /// Transactions generated per client.
    pub txns_per_client: u32,
    /// Workload shape (Table 1 semantics).
    pub workload: WorkloadConfig,
    /// Simulated-seconds → real-seconds factor.
    pub time_scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Chaos-injection knobs (all off by default).
    pub chaos: ClusterChaos,
    /// Capture per-site event traces, merged by simulated time into
    /// [`ClusterReport::trace`]. Off by default; real-thread scheduling
    /// makes these traces informative but not deterministic.
    pub trace: bool,
}

/// Chaos-injection knobs for the threaded cluster. Everything defaults to
/// off; the protocol must stay serializable no matter what is enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterChaos {
    /// Upper bound of a uniformly random real-time delay inserted before
    /// each lock recall is served — models slow or reordered channel
    /// delivery between the server and a client's callback thread.
    pub max_callback_delay: std::time::Duration,
    /// Probability that a client terminates mid-run: it stops submitting
    /// after a random prefix of its transactions. Its callback thread keeps
    /// answering recalls and its cache is returned by the shutdown flush
    /// (termination with a recovery agent), so the rest of the cluster can
    /// always make progress.
    pub termination_probability: f64,
}

impl Default for ClusterChaos {
    fn default() -> Self {
        ClusterChaos {
            max_callback_delay: std::time::Duration::ZERO,
            termination_probability: 0.0,
        }
    }
}

impl ClusterConfig {
    /// Checks the configuration for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.clients == 0 {
            return Err(ConfigError::new("clients", "must be at least 1"));
        }
        if self.db_objects == 0 {
            return Err(ConfigError::new("db_objects", "must be positive"));
        }
        if self.client_cache == 0 {
            return Err(ConfigError::new("client_cache", "must be positive"));
        }
        if self.server_buffer == 0 {
            return Err(ConfigError::new("server_buffer", "must be positive"));
        }
        if self.time_scale.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || !self.time_scale.is_finite()
        {
            return Err(ConfigError::new("time_scale", "must be positive and finite"));
        }
        if !(0.0..=1.0).contains(&self.workload.update_fraction) {
            return Err(ConfigError::new(
                "workload.update_fraction",
                "must be within [0, 1]",
            ));
        }
        if self.workload.mean_objects_per_txn.partial_cmp(&0.0)
            != Some(std::cmp::Ordering::Greater)
        {
            return Err(ConfigError::new(
                "workload.mean_objects_per_txn",
                "must be positive",
            ));
        }
        if self.workload.mean_interarrival.is_zero() {
            return Err(ConfigError::new(
                "workload.mean_interarrival",
                "must be positive",
            ));
        }
        if self.workload.access_pattern.hot_region_objects > self.db_objects {
            return Err(ConfigError::new(
                "workload.access_pattern.hot_region_objects",
                "hot region cannot exceed the database size",
            ));
        }
        if !(0.0..=1.0).contains(&self.chaos.termination_probability) {
            return Err(ConfigError::new(
                "chaos.termination_probability",
                "must be within [0, 1]",
            ));
        }
        Ok(())
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            clients: 4,
            db_objects: 256,
            server_buffer: 64,
            client_cache: 32,
            txns_per_client: 25,
            workload: WorkloadConfig {
                mean_interarrival: SimDuration::from_secs(5),
                mean_length: SimDuration::from_secs(2),
                deadline: DeadlinePolicy::ExponentialOffset {
                    mean: SimDuration::from_secs(20),
                },
                update_fraction: 0.2,
                mean_objects_per_txn: 4.0,
                decomposable_fraction: 0.0,
                access_pattern: AccessPatternConfig {
                    hot_region_objects: 64,
                    hot_access_fraction: 0.75,
                    zipf_theta: 0.95,
                },
            },
            time_scale: 0.001,
            seed: 0xC1u64 << 32 | 0x5e1e,
            chaos: ClusterChaos::default(),
            trace: false,
        }
    }
}

/// Errors surfaced by [`Cluster::run`].
#[derive(Debug)]
pub enum ClusterError {
    /// The configuration is inconsistent.
    Config(ConfigError),
    /// A worker thread panicked.
    WorkerPanicked,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Config(e) => write!(f, "cluster config: {e}"),
            ClusterError::WorkerPanicked => write!(f, "a cluster worker thread panicked"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Config(e) => Some(e),
            ClusterError::WorkerPanicked => None,
        }
    }
}

/// The threaded mini CS-RTDBS.
#[derive(Debug)]
pub struct Cluster;

impl Cluster {
    /// Runs the cluster to completion.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for invalid parameters;
    /// [`ClusterError::WorkerPanicked`] if a thread died.
    pub fn run(cfg: ClusterConfig) -> Result<ClusterReport, ClusterError> {
        cfg.validate().map_err(ClusterError::Config)?;

        let mut callback_tx = Vec::new();
        let mut callback_rx = Vec::new();
        for _ in 0..cfg.clients {
            let (tx, rx) = channel();
            callback_tx.push(tx);
            callback_rx.push(rx);
        }
        let server = SharedServer::new(cfg.db_objects, cfg.server_buffer, callback_tx);
        let history = Arc::new(HistoryLog::new());
        let shareds: Vec<Arc<ClientShared>> = (0..cfg.clients)
            .map(|i| ClientShared::new(ClientId(i), cfg.client_cache))
            .collect();
        let root = Prng::seed_from_u64(cfg.seed);
        let start = Instant::now();

        let (worker_reports, traces) = std::thread::scope(|scope| {
            // Callback threads.
            let chaos_delay = cfg.chaos.max_callback_delay;
            let mut cb_handles = Vec::new();
            for (i, rx) in callback_rx.into_iter().enumerate() {
                let shared = Arc::clone(&shareds[i]);
                let server = Arc::clone(&server);
                let mut rng = root.derive(0xCB_0000 + i as u64);
                cb_handles.push(scope.spawn(move || {
                    if chaos_delay.is_zero() {
                        shared.callback_loop(&rx, &server);
                    } else {
                        shared.callback_loop_jittered(&rx, &server, chaos_delay, &mut rng);
                    }
                }));
            }
            // Worker threads. A chaos-terminated client submits only a
            // random prefix of its transaction quota.
            let mut handles = Vec::new();
            for i in 0..cfg.clients {
                let shared = Arc::clone(&shareds[i as usize]);
                let server = Arc::clone(&server);
                let history = Arc::clone(&history);
                let cfg = cfg.clone();
                let rng = root.derive(u64::from(i) + 1);
                let mut chaos_rng = root.derive(0xC0A5_0000 + u64::from(i));
                let quota = if cfg.txns_per_client > 0
                    && chaos_rng.bernoulli(cfg.chaos.termination_probability)
                {
                    chaos_rng.below(u64::from(cfg.txns_per_client)) as u32
                } else {
                    cfg.txns_per_client
                };
                handles.push(scope.spawn(move || {
                    worker_main(&cfg, shared, &server, &history, rng, start, quota)
                }));
            }
            let mut reports = Vec::new();
            let mut traces = Vec::new();
            let mut panicked = false;
            for h in handles {
                match h.join() {
                    Ok((report, trace)) => {
                        reports.push(report);
                        traces.extend(trace);
                    }
                    Err(_) => panicked = true,
                }
            }
            // Flush caches so the store holds the final committed state,
            // then close the callback channels so the callback threads
            // drain and exit before the scope joins them. This must happen
            // even when a worker panicked, otherwise the callback threads
            // would block the scope forever.
            for shared in &shareds {
                shared.flush_all(&server);
            }
            server.close();
            for h in cb_handles {
                let _ = h.join();
            }
            if panicked {
                Err(ClusterError::WorkerPanicked)
            } else {
                Ok((reports, traces))
            }
        })?;
        let stats = server.stats();
        let trace = cfg.trace.then(|| TraceData::merge(traces));
        Ok(ClusterReport::aggregate(&worker_reports, stats, history, trace))
    }
}

/// Ring capacity of each worker's trace buffer: generously above any
/// realistic per-client event volume (a few events per transaction).
const TRACE_CAPACITY_PER_SITE: usize = 1 << 16;

/// One worker thread's run. The sink is built here, inside the thread (an
/// [`EventSink`] cannot cross one), and its drained site-local trace goes
/// back beside the report to be merged by simulated time at shutdown.
fn worker_main(
    cfg: &ClusterConfig,
    shared: Arc<ClientShared>,
    server: &SharedServer,
    history: &HistoryLog,
    rng: Prng,
    start: Instant,
    quota: u32,
) -> (WorkerReport, Option<TraceData>) {
    let sink = if cfg.trace {
        EventSink::enabled(TRACE_CAPACITY_PER_SITE)
    } else {
        EventSink::disabled()
    };
    let mut gen = TransactionGenerator::new(
        shared.id,
        &cfg.workload,
        1.0, // cpu demand = full nominal length (scaled down globally)
        cfg.db_objects,
        cfg.clients,
        rng,
    );
    let mut total = WorkerReport {
        terminated: u64::from(quota < cfg.txns_per_client),
        ..WorkerReport::default()
    };
    for _ in 0..quota {
        let spec = gen.next_txn();
        // Pace arrivals on the scaled clock.
        let due = start + scale_duration(spec.arrival.as_micros(), cfg.time_scale);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let r = run_transaction(&shared, server, history, &spec, start, cfg.time_scale, &sink);
        total.generated += r.generated;
        total.in_time += r.in_time;
        total.late += r.late;
        total.deadlock_aborts += r.deadlock_aborts;
        total.timeouts += r.timeouts;
        total.expired += r.expired;
    }
    (total, sink.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cluster_runs_and_is_serializable() {
        let report = Cluster::run(ClusterConfig {
            clients: 4,
            txns_per_client: 15,
            ..ClusterConfig::default()
        })
        .unwrap();
        assert_eq!(report.generated, 60);
        assert!(report.is_balanced());
        report.history.check_serializable().unwrap();
    }

    #[test]
    fn contended_cluster_stays_serializable() {
        // Tiny hot database: heavy conflicts, callbacks and downgrades.
        let mut cfg = ClusterConfig {
            clients: 6,
            db_objects: 8,
            server_buffer: 8,
            client_cache: 8,
            txns_per_client: 30,
            ..ClusterConfig::default()
        };
        cfg.workload.access_pattern.hot_region_objects = 8;
        cfg.workload.update_fraction = 0.8;
        cfg.workload.mean_objects_per_txn = 3.0;
        cfg.workload.mean_interarrival = SimDuration::from_secs(1);
        let report = Cluster::run(cfg).unwrap();
        assert!(report.is_balanced());
        assert!(
            report.server.recalls > 0,
            "six clients hammering eight objects at 80% updates must recall locks"
        );
        report.history.check_serializable().unwrap();
    }

    #[test]
    fn store_versions_match_committed_writes() {
        let report = Cluster::run(ClusterConfig {
            clients: 3,
            txns_per_client: 10,
            ..ClusterConfig::default()
        })
        .unwrap();
        report.history.check_serializable().unwrap();
        assert!(report.is_balanced());
    }

    #[test]
    fn chaotic_cluster_stays_serializable() {
        // Delayed recall delivery + mid-run client termination on a hot
        // contended database: the worst interleavings we can provoke must
        // still be conflict-serializable and fully accounted.
        let mut cfg = ClusterConfig {
            clients: 6,
            db_objects: 8,
            server_buffer: 8,
            client_cache: 8,
            txns_per_client: 25,
            chaos: ClusterChaos {
                max_callback_delay: std::time::Duration::from_millis(3),
                termination_probability: 0.5,
            },
            ..ClusterConfig::default()
        };
        cfg.workload.access_pattern.hot_region_objects = 8;
        cfg.workload.update_fraction = 0.8;
        cfg.workload.mean_objects_per_txn = 3.0;
        cfg.workload.mean_interarrival = SimDuration::from_secs(1);
        let report = Cluster::run(cfg).unwrap();
        assert!(report.is_balanced());
        // Conservation under chaos: the failure breakdown exactly covers
        // what was submitted but not committed on time — chaos must not
        // create, lose or double-count a transaction.
        assert_eq!(
            report.late + report.deadlock_aborts + report.timeouts + report.expired,
            report.generated - report.in_time,
            "failure breakdown out of balance with submissions"
        );
        // Termination draws are seed-deterministic: with p = 0.5 over six
        // clients this seed terminates at least one.
        assert!(report.terminated_clients > 0, "no client terminated");
        assert!(
            report.generated < 6 * 25,
            "terminated clients must submit fewer transactions"
        );
        report.history.check_serializable().unwrap();
    }

    #[test]
    fn chaos_outcome_counts_are_pinned() {
        // Golden parity for the fault path (same idea as
        // tests/golden_parity.rs): the termination draws and per-client
        // quotas derive purely from the seed, so the submission counts of
        // a chaotic run are exact. Wall-clock-dependent outcomes (in_time,
        // late) are deliberately not pinned. Regenerate the literals here
        // if the seed-derivation scheme changes intentionally.
        let mut cfg = ClusterConfig {
            clients: 6,
            db_objects: 8,
            server_buffer: 8,
            client_cache: 8,
            txns_per_client: 25,
            chaos: ClusterChaos {
                max_callback_delay: std::time::Duration::from_millis(1),
                termination_probability: 0.5,
            },
            ..ClusterConfig::default()
        };
        cfg.workload.access_pattern.hot_region_objects = 8;
        cfg.workload.update_fraction = 0.8;
        cfg.workload.mean_objects_per_txn = 3.0;
        cfg.workload.mean_interarrival = SimDuration::from_secs(1);
        let report = Cluster::run(cfg).unwrap();
        assert_eq!(report.terminated_clients, PINNED_TERMINATED);
        assert_eq!(report.generated, PINNED_GENERATED);
        assert!(report.is_balanced());
    }

    const PINNED_TERMINATED: u64 = 3;
    const PINNED_GENERATED: u64 = 77;

    #[test]
    fn traced_cluster_captures_merged_lifecycles() {
        let report = Cluster::run(ClusterConfig {
            clients: 3,
            txns_per_client: 10,
            trace: true,
            ..ClusterConfig::default()
        })
        .unwrap();
        assert!(report.is_balanced());
        let trace = report.trace.as_ref().expect("tracing was enabled");
        // Every generated transaction submits exactly once, and every
        // commit in the report has a matching trace event.
        assert_eq!(trace.report.kind_count("txn_submit"), report.generated);
        assert_eq!(
            trace.report.kind_count("commit"),
            report.in_time + report.late
        );
        // The merge is globally ordered by simulated time.
        assert!(trace
            .records
            .windows(2)
            .all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn untraced_cluster_reports_no_trace() {
        let report = Cluster::run(ClusterConfig {
            clients: 2,
            txns_per_client: 5,
            ..ClusterConfig::default()
        })
        .unwrap();
        assert!(report.trace.is_none());
    }

    #[test]
    fn chaos_validation_rejects_bad_probability() {
        let mut bad = ClusterConfig::default();
        bad.chaos.termination_probability = 1.5;
        assert!(matches!(Cluster::run(bad), Err(ClusterError::Config(_))));
    }

    #[test]
    fn invalid_configs_rejected() {
        let bad = ClusterConfig {
            clients: 0,
            ..ClusterConfig::default()
        };
        assert!(matches!(Cluster::run(bad), Err(ClusterError::Config(_))));
        let bad = ClusterConfig {
            time_scale: 0.0,
            ..ClusterConfig::default()
        };
        assert!(matches!(Cluster::run(bad), Err(ClusterError::Config(_))));
        let mut bad = ClusterConfig::default();
        bad.workload.access_pattern.hot_region_objects = 10_000;
        assert!(matches!(Cluster::run(bad), Err(ClusterError::Config(_))));
    }
}
