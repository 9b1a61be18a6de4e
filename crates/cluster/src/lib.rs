//! The threaded analogue of the paper's Solaris-threads prototype: the
//! engine's own sites, each on an OS thread, talking only by messages.
//!
//! Where `siteselect-core`'s [`Simulator`] runs a whole cluster in virtual
//! time on one thread, [`Cluster::run`] gives every site (the server and
//! each client) a one-site [`Simulator::site`] of its own on its own
//! thread. A site's clock is the real clock, scaled by
//! [`ClusterConfig::time_scale`]; what one site sends another crosses an
//! `mpsc` channel and is handled at its fabric delivery time, or at the
//! receiver's clock if that is later. The protocol — CE, CS or LS, exactly
//! as the simulator runs it — is the engine's: this crate adds only the
//! clock, the channels and the threads.
//!
//! Every site traces into a sink of its own; the run's report carries the
//! merged trace, which the `siteselect-check` oracles judge like any
//! simulated run's.
//!
//! # Example
//!
//! ```
//! use siteselect_cluster::{Cluster, ClusterConfig};
//!
//! let report = Cluster::run(ClusterConfig::default()).unwrap();
//! assert!(report.generated > 0);
//! assert!(report.is_balanced());
//! ```
//!
//! [`Simulator`]: siteselect_core::Simulator
//! [`Simulator::site`]: siteselect_core::Simulator::site

mod runtime;

use siteselect_core::RunMetrics;
use siteselect_obs::TraceData;
use siteselect_types::{ConfigError, ExperimentConfig, SimDuration, SystemKind};

pub use runtime::Cluster;

/// Most clients a run takes: each is an OS thread.
pub const MAX_CLIENTS: u16 = 64;

/// Configuration of a threaded cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// The run: system, clients, workload, duration and seed, as the
    /// simulator takes them. Fault injection must be off: the threads run
    /// fault-free, and [`chaos`](Self::chaos) is theirs.
    pub experiment: ExperimentConfig,
    /// Real seconds per simulated second (default 0.001: the paper's
    /// 10 s transactions take about 10 ms).
    pub time_scale: f64,
    /// Chaos-injection knobs (all off by default).
    pub chaos: ClusterChaos,
}

/// Chaos-injection knobs for the threaded cluster. Everything defaults to
/// off; every run must pass the oracles whatever is enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterChaos {
    /// Upper bound of a uniformly random real-time delay added to each lock
    /// recall the server sends. Later messages on the same link wait for a
    /// delayed recall, so every link stays FIFO.
    pub max_callback_delay: std::time::Duration,
    /// Probability that a client terminates mid-run: it submits only a
    /// random prefix of its transactions, but keeps answering the server
    /// until the run ends.
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
        self.experiment.validate()?;
        if self.experiment.clients > MAX_CLIENTS {
            let why = format!("at most {MAX_CLIENTS}: each client is a thread");
            return Err(ConfigError::new("experiment.clients", why));
        }
        if self.experiment.faults.injects_faults() {
            return Err(ConfigError::new(
                "experiment.faults",
                "the threaded cluster runs fault-free; use `chaos`",
            ));
        }
        if !(self.time_scale > 0.0 && self.time_scale.is_finite()) {
            return Err(ConfigError::new(
                "time_scale",
                "must be positive and finite",
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
    /// CS at 4 clients and 20 % updates for 200 simulated seconds, measured
    /// from the start.
    fn default() -> Self {
        let mut experiment = ExperimentConfig::paper(SystemKind::ClientServer, 4, 0.2);
        experiment.runtime.duration = SimDuration::from_secs(200);
        experiment.runtime.warmup = SimDuration::ZERO;
        ClusterConfig {
            experiment,
            time_scale: 0.001,
            chaos: ClusterChaos::default(),
        }
    }
}

/// Errors surfaced by [`Cluster::run`].
#[derive(Debug)]
pub enum ClusterError {
    /// The configuration is inconsistent.
    Config(ConfigError),
    /// A site thread panicked.
    WorkerPanicked,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Config(e) => write!(f, "cluster config: {e}"),
            ClusterError::WorkerPanicked => write!(f, "a cluster site thread panicked"),
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

/// The outcome of a [`Cluster::run`].
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Transactions submitted inside the measurement window.
    pub generated: u64,
    /// Clients that chaos terminated mid-run.
    pub terminated_clients: u64,
    /// The outcomes every site scored, summed.
    pub metrics: RunMetrics,
    /// Every site's trace, merged by `(time, site, seq)`.
    pub trace: TraceData,
    /// The most emptied message buffers any site kept for reuse when the
    /// run ended. A buffer that crosses to another thread never comes back,
    /// so each site keeps one spare of each kind, however long the run.
    pub most_spare_buffers: usize,
}

impl ClusterReport {
    /// Every submitted transaction was scored exactly once.
    #[must_use]
    pub fn is_balanced(&self) -> bool {
        self.metrics.measured == self.generated && self.metrics.is_consistent()
    }

    /// Percentage of transactions that met their deadline.
    #[must_use]
    pub fn success_percent(&self) -> f64 {
        self.metrics.success_percent()
    }

    /// Lock recalls the server issued.
    #[must_use]
    pub fn recalls(&self) -> u64 {
        self.trace.report.kind_count("callback_issued")
    }

    /// Exclusive cached locks downgraded to shared for a reader.
    #[must_use]
    pub fn downgrades(&self) -> u64 {
        self.trace.report.kind_count("cache_downgrade")
    }
}

impl std::fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (m, fails) = (&self.metrics, &self.metrics.failures);
        writeln!(
            f,
            "cluster: {}/{} in time ({:.1}%), {} late, {} deadlock, {} expired, {} subtask",
            m.in_time,
            self.generated,
            self.success_percent(),
            fails.late,
            fails.deadlock,
            fails.expired,
            fails.subtask
        )?;
        writeln!(
            f,
            "server: {} recalls, {} downgrades; trace: {} records",
            self.recalls(),
            self.downgrades(),
            self.trace.records.len()
        )?;
        if self.terminated_clients > 0 {
            writeln!(
                f,
                "chaos: {} clients terminated mid-run",
                self.terminated_clients
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_core::Simulator;
    use siteselect_types::{FaultConfig, SimTime};

    /// `system` at 8 clients for 100 simulated seconds.
    fn config(system: SystemKind) -> ClusterConfig {
        let mut cfg = ClusterConfig {
            experiment: ExperimentConfig::paper(system, 8, 0.2),
            ..ClusterConfig::default()
        };
        cfg.experiment.runtime.duration = SimDuration::from_secs(100);
        cfg.experiment.runtime.warmup = SimDuration::ZERO;
        cfg
    }

    /// Runs `cfg` and holds its merged trace to the four oracles.
    fn judged(cfg: ClusterConfig) -> ClusterReport {
        let warmup_end = SimTime::ZERO + cfg.experiment.runtime.warmup;
        let report = Cluster::run(cfg).expect("cluster runs");
        if let Err(v) = siteselect_check::check_trace(&report.trace, &report.metrics, warmup_end) {
            panic!("{v}\n{report}");
        }
        assert!(report.is_balanced(), "{report}");
        report
    }

    /// Every client fights over a 4-object database, 90 % of accesses
    /// updates: the worst case for callback locking.
    fn hot(mut cfg: ClusterConfig) -> ClusterConfig {
        let exp = &mut cfg.experiment;
        exp.database.num_objects = 4;
        exp.workload.access_pattern.hot_region_objects = 4;
        exp.workload.update_fraction = 0.9;
        exp.workload.mean_objects_per_txn = 2.0;
        cfg
    }

    fn chaotic(mut cfg: ClusterConfig) -> ClusterConfig {
        cfg.chaos = ClusterChaos {
            max_callback_delay: std::time::Duration::from_millis(3),
            termination_probability: 0.5,
        };
        cfg
    }

    const SYSTEMS: [SystemKind; 3] = [
        SystemKind::Centralized,
        SystemKind::ClientServer,
        SystemKind::LoadSharing,
    ];

    #[test]
    fn every_system_passes_the_oracles() {
        for system in SYSTEMS {
            let report = judged(config(system));
            assert!(report.generated > 0, "{system}");
            let report = judged(hot(config(system)));
            if system != SystemKind::Centralized {
                assert!(
                    report.recalls() > 0,
                    "{system} on 4 objects recalled nothing"
                );
            }
        }
    }

    #[test]
    fn every_system_passes_the_oracles_under_chaos() {
        for system in SYSTEMS {
            for cfg in [chaotic(config(system)), chaotic(hot(config(system)))] {
                let report = judged(cfg);
                assert!(report.terminated_clients > 0, "{system}: {report}");
            }
        }
    }

    /// LS at 16 clients sends conflict reports, load queries and load
    /// replies across threads on every decision; the sites that handle them
    /// keep one spare buffer of each kind, not one per message.
    #[test]
    fn ls_buffer_pools_stay_bounded_when_buffers_cross_threads() {
        let mut cfg = config(SystemKind::LoadSharing);
        cfg.experiment.clients = 16;
        let report = judged(cfg);
        let kinds = &report.trace.report;
        let (decisions, decomposed) = (
            kinds.kind_count("h2_choose"),
            kinds.kind_count("decomposed"),
        );
        assert!(decisions > 0 && decomposed > 0, "{report}");
        assert!(
            report.most_spare_buffers <= 4,
            "a site kept {} message buffers",
            report.most_spare_buffers
        );
    }

    /// The sites' load-sharing counters add up to what the merged trace
    /// records, and every site's sends are counted.
    #[test]
    fn a_threaded_ls_run_adds_up_its_sites_counters() {
        let report = judged(config(SystemKind::LoadSharing));
        let records = &report.trace.records;
        let subtasks: u64 = records
            .iter()
            .filter_map(|r| match r.event {
                siteselect_obs::Event::Decomposed { subtasks, .. } => Some(u64::from(subtasks)),
                _ => None,
            })
            .sum();
        let ls = report.metrics.load_sharing;
        assert_eq!(ls.decomposed, report.trace.report.kind_count("decomposed"), "{report}");
        assert_eq!(ls.subtasks, subtasks, "{report}");
        assert!(ls.decomposed > 0, "{report}");
        let [(_, requests), ..] = report.metrics.messages.table4_rows();
        assert!(requests > 0, "no client's sends counted: {report}");
    }

    /// A threaded run reads a CPU utilization in `(0, 1]` wherever the
    /// one-thread simulator of the same run reads one, and 0 elsewhere.
    #[test]
    fn a_threaded_run_reports_the_cpu_utilizations_the_simulator_does() {
        for system in SYSTEMS {
            let cfg = config(system);
            let alone = Simulator::new(cfg.experiment.clone()).run();
            let report = judged(cfg);
            let pairs = [
                ("client", alone.client_cpu_utilization, report.metrics.client_cpu_utilization),
                ("server", alone.server_cpu_utilization, report.metrics.server_cpu_utilization),
            ];
            for (cpu, alone, threaded) in pairs {
                if alone > 0.0 {
                    assert!(threaded > 0.0 && threaded <= 1.0, "{system} {cpu}: {threaded}");
                } else {
                    assert_eq!(threaded, 0.0, "{system} {cpu}");
                }
            }
        }
    }

    #[test]
    fn hostile_configs_are_refused_before_any_thread_starts() {
        let refused = |edit: &dyn Fn(&mut ClusterConfig), field: &str| {
            let mut cfg = ClusterConfig::default();
            edit(&mut cfg);
            match Cluster::run(cfg) {
                Err(ClusterError::Config(e)) => assert!(e.to_string().contains(field), "{e}"),
                other => panic!("{field}: {other:?}"),
            }
        };
        refused(
            &|c| c.experiment.faults = FaultConfig::chaos(0.5),
            "experiment.faults",
        );
        refused(
            &|c| c.experiment.faults.mean_time_to_crash = SimDuration::from_secs(9),
            "faults",
        );
        refused(&|c| c.experiment.clients = 0, "clients");
        refused(&|c| c.experiment.clients = MAX_CLIENTS + 1, "clients");
        for scale in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            refused(&|c| c.time_scale = scale, "time_scale");
        }
        for p in [-0.1, 1.5, f64::NAN] {
            refused(
                &|c| c.chaos.termination_probability = p,
                "termination_probability",
            );
        }
        assert!(ClusterConfig::default().validate().is_ok());
    }
}
