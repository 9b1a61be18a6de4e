//! Experiment configuration: every tunable of the three system models.
//!
//! [`ExperimentConfig::paper`] reproduces Table 1 of the paper; every knob can
//! be overridden for ablation studies. The configuration is deliberately
//! explicit about the one place where we must *calibrate* rather than copy
//! the paper: the fraction of a transaction's nominal length that is pure CPU
//! demand (see [`CpuConfig::txn_cpu_fraction`]). The paper's prototype burned
//! wall-clock CPU on 1999-era Sun ULTRAs shared by up to 25 clients per
//! machine; absolute figure values are not recoverable, so defaults are
//! chosen to reproduce the published *shapes* (documented in EXPERIMENTS.md).


use crate::error::ConfigError;
use crate::time::SimDuration;

/// Which of the three prototype systems to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// CE-RTDBS: all processing at the server; clients are terminals.
    Centralized,
    /// CS-RTDBS: object-shipping client-server with callback locking and
    /// inter-transaction caching.
    ClientServer,
    /// LS-CS-RTDBS: CS-RTDBS plus the paper's load-sharing algorithm
    /// (transaction shipping, decomposition, forward lists, deadline-ordered
    /// object request scheduling).
    LoadSharing,
}

impl SystemKind {
    /// All three systems, in the order the paper presents them.
    pub const ALL: [SystemKind; 3] = [
        SystemKind::Centralized,
        SystemKind::ClientServer,
        SystemKind::LoadSharing,
    ];

    /// The abbreviation used in the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Centralized => "CE-RTDBS",
            SystemKind::ClientServer => "CS-RTDBS",
            SystemKind::LoadSharing => "LS-CS-RTDBS",
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Static description of the shared database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatabaseConfig {
    /// Number of fixed-size objects (Table 1: 10,000).
    pub num_objects: u32,
    /// Size of one object / PF page in bytes (Table 1: 2 KB).
    pub object_size_bytes: u32,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig {
            num_objects: 10_000,
            object_size_bytes: 2_048,
        }
    }
}

/// Disk service model for one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskConfig {
    /// Service time to read or write one page (seek + rotation + transfer).
    pub page_service_time: SimDuration,
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig {
            // Late-1990s commodity disk: ~8 ms average access per 2 KB page.
            page_service_time: SimDuration::from_millis(8),
        }
    }
}

/// CPU speeds and the calibration of transaction processing demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// Relative speed of a client workstation (1.0 = baseline).
    pub client_speed: f64,
    /// Relative speed of the server machine. The prototype server ran alone
    /// on one of five identical ULTRAs while clients shared the remaining
    /// four, so the effective server:client speed ratio exceeded 1; the
    /// default of 4.0 models the four client machines' worth of headroom the
    /// centralized system enjoys before it saturates.
    pub server_speed: f64,
    /// Fraction of a transaction's nominal length that is pure CPU demand.
    ///
    /// Table 1's "average transaction length" of 10 s is a wall-clock target
    /// on saturated 1999 hardware; replaying it literally as CPU demand would
    /// saturate every configuration (each client would offer a load of 1.0).
    /// The default of 0.1 (1 s of CPU per 10 s transaction) keeps per-client
    /// offered load at 10%, which reproduces the paper's curves: the
    /// centralized server saturates near 40 clients while the client-server
    /// systems degrade gently.
    pub txn_cpu_fraction: f64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            client_speed: 1.0,
            server_speed: 4.0,
            txn_cpu_fraction: 0.1,
        }
    }
}

/// Server-side resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Objects that fit in the server's buffer pool. Table 1: 5,000 for the
    /// centralized system, 1,000 for the client-server systems.
    pub buffer_objects: usize,
    /// Maximum concurrently executing transactions at the centralized server
    /// (the prototype ran up to one hundred transaction threads).
    pub max_concurrent_txns: usize,
    /// Server disk model.
    pub disk: DiskConfig,
}

impl ServerConfig {
    /// Server configuration for the centralized system (5,000-object buffer).
    #[must_use]
    pub fn centralized() -> Self {
        ServerConfig {
            buffer_objects: 5_000,
            max_concurrent_txns: 100,
            disk: DiskConfig::default(),
        }
    }

    /// Server configuration for the client-server systems (1,000-object
    /// buffer).
    #[must_use]
    pub fn client_server() -> Self {
        ServerConfig {
            buffer_objects: 1_000,
            max_concurrent_txns: 100,
            disk: DiskConfig::default(),
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig::client_server()
    }
}

/// Client-side resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Objects that fit in the client's memory cache (Table 1: 500).
    pub memory_cache_objects: usize,
    /// Objects that fit in the client's disk cache (Table 1: 500).
    pub disk_cache_objects: usize,
    /// Client disk model (used when promoting from / demoting to the disk
    /// cache tier).
    pub disk: DiskConfig,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            memory_cache_objects: 500,
            disk_cache_objects: 500,
            disk: DiskConfig::default(),
        }
    }
}

/// LAN topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LanKind {
    /// A single shared medium (the paper's 10 Mbps Ethernet): transmissions
    /// serialize on the wire.
    SharedEthernet,
    /// An idealized switched LAN: each ordered site pair has its own link
    /// (used for ablation).
    Switched,
}

/// Network model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Topology.
    pub kind: LanKind,
    /// Raw bandwidth in bits per second (Table 1 environment: 10 Mbps).
    pub bandwidth_bps: u64,
    /// One-way propagation plus protocol-stack latency per message.
    pub latency: SimDuration,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            kind: LanKind::SharedEthernet,
            bandwidth_bps: 10_000_000,
            latency: SimDuration::from_micros(500),
        }
    }
}

/// How transaction deadlines are assigned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeadlinePolicy {
    /// `deadline = arrival + Exp(mean)` — Table 1's "average transaction
    /// deadline 20 s (exponential distribution)".
    ExponentialOffset {
        /// Mean of the exponential offset.
        mean: SimDuration,
    },
    /// `deadline = arrival + slack_factor * length` — proportional slack,
    /// used in ablations.
    ProportionalSlack {
        /// Multiplier applied to the transaction's nominal length.
        factor: f64,
    },
}

impl Default for DeadlinePolicy {
    fn default() -> Self {
        DeadlinePolicy::ExponentialOffset {
            mean: SimDuration::from_secs(20),
        }
    }
}

/// The Localized-RW access pattern (paper §5.1): 75% of each client's
/// accesses go to a per-client region of the database (uniformly), the rest
/// to the remainder of the database with Zipf skew (`ZIPF_THETA` in
/// `siteselect-workload`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessPatternConfig {
    /// Number of objects in each client's hot region.
    pub hot_region_objects: u32,
    /// Fraction of accesses that fall inside the hot region (0.75 in the
    /// paper).
    pub hot_access_fraction: f64,
}

impl Default for AccessPatternConfig {
    fn default() -> Self {
        AccessPatternConfig {
            hot_region_objects: 1_000,
            hot_access_fraction: 0.75,
        }
    }
}

/// Workload generation parameters (Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Mean transaction inter-arrival time per client (Poisson process;
    /// Table 1: 10 s).
    pub mean_interarrival: SimDuration,
    /// Mean nominal transaction length (exponential; Table 1: 10 s). The
    /// CPU demand is `length * cpu.txn_cpu_fraction`.
    pub mean_length: SimDuration,
    /// Deadline assignment policy (Table 1: exponential, mean 20 s).
    pub deadline: DeadlinePolicy,
    /// Probability that any single object access is an update (Table 1:
    /// 1%, 5% or 20%).
    pub update_fraction: f64,
    /// Mean number of distinct objects accessed per transaction (Table 1:
    /// 10).
    pub mean_objects_per_txn: f64,
    /// Fraction of transactions that are decomposable (paper §5.1: 10%).
    pub decomposable_fraction: f64,
    /// Access pattern.
    pub access_pattern: AccessPatternConfig,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            mean_interarrival: SimDuration::from_secs(10),
            mean_length: SimDuration::from_secs(10),
            deadline: DeadlinePolicy::default(),
            update_fraction: 0.05,
            mean_objects_per_txn: 10.0,
            decomposable_fraction: 0.10,
            access_pattern: AccessPatternConfig::default(),
        }
    }
}

/// Knobs of the load-sharing algorithm (only consulted when
/// [`SystemKind::LoadSharing`] runs). Each flag supports one ablation bench.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSharingConfig {
    /// Enable the H1 admission heuristic (queue feasibility via observed
    /// average transaction latency).
    pub h1_enabled: bool,
    /// Enable the H2 site-selection heuristic (fewest conflicting locks).
    pub h2_enabled: bool,
    /// Enable transaction decomposition for decomposable transactions.
    pub decomposition_enabled: bool,
    /// Length of the server's per-object lock-request collection window.
    pub collection_window: SimDuration,
    /// Enable grouped locks / forward lists. When disabled, every conflict
    /// is resolved with plain callbacks as in CS-RTDBS.
    pub forward_lists_enabled: bool,
    /// Route client-to-client shipments through the directory server
    /// (paper's setup) instead of the database server.
    pub directory_enabled: bool,
    /// Serve object requests in deadline order at the server and refuse to
    /// ship objects to expired transactions (paper §3.3).
    pub request_scheduling_enabled: bool,
}

impl Default for LoadSharingConfig {
    fn default() -> Self {
        LoadSharingConfig {
            h1_enabled: true,
            h2_enabled: true,
            decomposition_enabled: true,
            collection_window: SimDuration::from_millis(100),
            forward_lists_enabled: true,
            directory_enabled: true,
            request_scheduling_enabled: true,
        }
    }
}

/// Deterministic fault-injection knobs.
///
/// Every injection knob defaults to **off**, so a configuration that never
/// touches this struct replays bit-identically to a build without the fault
/// subsystem: no extra PRNG draws are made and no extra events are
/// scheduled unless a knob is enabled.
///
/// Fault schedules are derived from the run seed, so two runs with the same
/// seed inject the same crashes, losses and slow-disk episodes at the same
/// simulated instants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that any individual network message is silently lost.
    pub loss_probability: f64,
    /// Upper bound of the uniformly-distributed extra delay added to each
    /// message (zero = no jitter).
    pub max_delay_jitter: SimDuration,
    /// Mean up-time before a client site crashes (exponential; zero = sites
    /// never crash).
    pub mean_time_to_crash: SimDuration,
    /// Mean down-time before a crashed site recovers (exponential; zero =
    /// crashed sites stay down for the rest of the run).
    pub mean_recovery_time: SimDuration,
    /// Mean up-time before the **server** site crashes and restarts
    /// (exponential; zero = the server never crashes). Unlike client
    /// crashes, a server crash is followed by write-ahead-log replay: the
    /// site is down for `mean_recovery_time` plus however long the replay
    /// I/O takes under the (possibly slow) disk model, then rejoins with
    /// in-flight transactions aborted and lock/callback state re-derived.
    pub mean_time_to_server_crash: SimDuration,
    /// Mean up-time between slow-disk episodes at the server (exponential;
    /// zero = the disk never degrades). Episode length and slow-down are
    /// fixed in `siteselect-core`.
    pub mean_time_to_slow_disk: SimDuration,
    /// Lease on callbacks: a recall unanswered for this long presumes the
    /// holder dead, reclaims its lock and invalidates its cached copy
    /// (zero = wait forever, the pre-fault behaviour).
    pub callback_lease: SimDuration,
    /// First retry delay for unanswered control messages; doubles per
    /// attempt up to a fixed cap (`RETRY_BACKOFF_CAP` in `siteselect-core`).
    pub retry_backoff_base: SimDuration,
    /// Retries before a request is abandoned to the deadline sweep
    /// (zero = never retry).
    pub max_retries: u32,
}

impl FaultConfig {
    /// True if any injection knob is enabled. Handling machinery (leases,
    /// retries, liveness tracking) only engages when this is true, so a
    /// default config cannot perturb event ordering.
    #[must_use]
    pub fn injects_faults(&self) -> bool {
        self.loss_probability > 0.0
            || !self.max_delay_jitter.is_zero()
            || !self.mean_time_to_crash.is_zero()
            || !self.mean_time_to_server_crash.is_zero()
            || !self.mean_time_to_slow_disk.is_zero()
    }

    /// A moderately hostile preset used by the `repro faults` experiment:
    /// `intensity` in `[0, 1]` scales every injection knob from "off" to
    /// "frequent crashes, 10% loss, regular slow-disk episodes".
    #[must_use]
    pub fn chaos(intensity: f64) -> Self {
        let intensity = intensity.clamp(0.0, 1.0);
        let crash_mean = if intensity > 0.0 {
            // 1000s mean up-time at full intensity, 10,000s at 10%.
            SimDuration::from_secs_f64(1_000.0 / intensity)
        } else {
            SimDuration::ZERO
        };
        let slow_mean = if intensity > 0.0 {
            SimDuration::from_secs_f64(500.0 / intensity)
        } else {
            SimDuration::ZERO
        };
        FaultConfig {
            loss_probability: 0.10 * intensity,
            max_delay_jitter: SimDuration::from_secs_f64(0.02 * intensity),
            mean_time_to_crash: crash_mean,
            mean_recovery_time: SimDuration::from_secs(60),
            mean_time_to_slow_disk: slow_mean,
            ..FaultConfig::default()
        }
    }

    /// [`chaos`](Self::chaos) plus crash-**restart** at the server: the same
    /// client-side hostility, with the server itself crashing (mean up-time
    /// `400s / intensity`) and rejoining after write-ahead-log replay. Used
    /// by the `repro faults` restart cells and the simcheck restart matrix.
    #[must_use]
    pub fn chaos_restart(intensity: f64) -> Self {
        let intensity = intensity.clamp(0.0, 1.0);
        let server_crash_mean = if intensity > 0.0 {
            SimDuration::from_secs_f64(400.0 / intensity)
        } else {
            SimDuration::ZERO
        };
        FaultConfig {
            mean_time_to_server_crash: server_crash_mean,
            ..FaultConfig::chaos(intensity)
        }
    }

    /// Checks the fault knobs for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.loss_probability) {
            return Err(ConfigError::new(
                "faults.loss_probability",
                "must be within [0, 1]",
            ));
        }
        if self.max_retries > 0 && self.retry_backoff_base.is_zero() {
            return Err(ConfigError::new(
                "faults.retry_backoff_base",
                "retries are enabled but the backoff base is zero",
            ));
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            loss_probability: 0.0,
            max_delay_jitter: SimDuration::ZERO,
            mean_time_to_crash: SimDuration::ZERO,
            mean_time_to_server_crash: SimDuration::ZERO,
            mean_recovery_time: SimDuration::from_secs(60),
            mean_time_to_slow_disk: SimDuration::ZERO,
            callback_lease: SimDuration::from_secs(5),
            retry_backoff_base: SimDuration::from_millis(500),
            max_retries: 3,
        }
    }
}

/// Run control: duration, warm-up, seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Simulated time to generate transactions for.
    pub duration: SimDuration,
    /// Initial period excluded from all statistics (cold caches).
    pub warmup: SimDuration,
    /// Master PRNG seed; identical seeds give bit-identical runs.
    pub seed: u64,
}

impl RuntimeConfig {
    /// Checks the run-control fields for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.duration.is_zero() {
            return Err(ConfigError::new("runtime.duration", "must be positive"));
        }
        if self.warmup >= self.duration {
            return Err(ConfigError::new(
                "runtime.warmup",
                "warm-up must be shorter than the run",
            ));
        }
        Ok(())
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            duration: SimDuration::from_secs(2_000),
            warmup: SimDuration::from_secs(200),
            seed: 0x5173_5e1e_c7ed_b001,
        }
    }
}

/// The complete description of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Which system model to run.
    pub system: SystemKind,
    /// Number of client workstations.
    pub clients: u16,
    /// Database shape.
    pub database: DatabaseConfig,
    /// Server resources.
    pub server: ServerConfig,
    /// Per-client resources.
    pub client: ClientConfig,
    /// CPU calibration.
    pub cpu: CpuConfig,
    /// Network model.
    pub network: NetworkConfig,
    /// Workload generation.
    pub workload: WorkloadConfig,
    /// Load-sharing knobs.
    pub load_sharing: LoadSharingConfig,
    /// Fault injection and failure handling (off by default).
    pub faults: FaultConfig,
    /// Run control.
    pub runtime: RuntimeConfig,
}

impl ExperimentConfig {
    /// The paper's Table 1 parameterization for `system` with `clients`
    /// clients and the given per-access update probability.
    ///
    /// # Example
    ///
    /// ```
    /// use siteselect_types::{ExperimentConfig, SystemKind};
    /// let cfg = ExperimentConfig::paper(SystemKind::Centralized, 20, 0.01);
    /// assert_eq!(cfg.server.buffer_objects, 5_000);
    /// let cfg = ExperimentConfig::paper(SystemKind::ClientServer, 20, 0.01);
    /// assert_eq!(cfg.server.buffer_objects, 1_000);
    /// ```
    #[must_use]
    pub fn paper(system: SystemKind, clients: u16, update_fraction: f64) -> Self {
        let server = match system {
            SystemKind::Centralized => ServerConfig::centralized(),
            SystemKind::ClientServer | SystemKind::LoadSharing => ServerConfig::client_server(),
        };
        ExperimentConfig {
            system,
            clients,
            database: DatabaseConfig::default(),
            server,
            client: ClientConfig::default(),
            cpu: CpuConfig::default(),
            network: NetworkConfig::default(),
            workload: WorkloadConfig {
                update_fraction,
                ..WorkloadConfig::default()
            },
            load_sharing: LoadSharingConfig::default(),
            faults: FaultConfig::default(),
            runtime: RuntimeConfig::default(),
        }
    }

    /// Returns a copy with a different seed (for multi-seed replications).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.runtime.seed = seed;
        self
    }

    /// Checks every field for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found, identifying the offending
    /// field and the constraint it violates.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn fraction(field: &'static str, v: f64) -> Result<(), ConfigError> {
            if !(0.0..=1.0).contains(&v) {
                return Err(ConfigError::new(field, format!("{v} must be within [0, 1]")));
            }
            Ok(())
        }
        if self.clients == 0 {
            return Err(ConfigError::new("clients", "must be at least 1"));
        }
        if self.database.num_objects == 0 {
            return Err(ConfigError::new("database.num_objects", "must be positive"));
        }
        if self.database.object_size_bytes == 0 {
            return Err(ConfigError::new(
                "database.object_size_bytes",
                "must be positive",
            ));
        }
        if self.server.buffer_objects == 0 {
            return Err(ConfigError::new("server.buffer_objects", "must be positive"));
        }
        if self.server.max_concurrent_txns == 0 {
            return Err(ConfigError::new(
                "server.max_concurrent_txns",
                "must be positive",
            ));
        }
        if self.client.memory_cache_objects == 0 {
            return Err(ConfigError::new(
                "client.memory_cache_objects",
                "must be positive",
            ));
        }
        if self.cpu.client_speed <= 0.0 || !self.cpu.client_speed.is_finite() {
            return Err(ConfigError::new("cpu.client_speed", "must be positive"));
        }
        if self.cpu.server_speed <= 0.0 || !self.cpu.server_speed.is_finite() {
            return Err(ConfigError::new("cpu.server_speed", "must be positive"));
        }
        if !(self.cpu.txn_cpu_fraction > 0.0 && self.cpu.txn_cpu_fraction <= 1.0) {
            return Err(ConfigError::new(
                "cpu.txn_cpu_fraction",
                "must be within (0, 1]",
            ));
        }
        if self.network.bandwidth_bps == 0 {
            return Err(ConfigError::new("network.bandwidth_bps", "must be positive"));
        }
        if self.workload.mean_interarrival.is_zero() {
            return Err(ConfigError::new(
                "workload.mean_interarrival",
                "must be positive",
            ));
        }
        if self.workload.mean_length.is_zero() {
            return Err(ConfigError::new("workload.mean_length", "must be positive"));
        }
        fraction("workload.update_fraction", self.workload.update_fraction)?;
        fraction(
            "workload.decomposable_fraction",
            self.workload.decomposable_fraction,
        )?;
        let objects = self.workload.mean_objects_per_txn;
        if !(objects >= 1.0 && objects.is_finite()) {
            return Err(ConfigError::new(
                "workload.mean_objects_per_txn",
                "must be finite and at least 1",
            ));
        }
        let ap = &self.workload.access_pattern;
        fraction(
            "workload.access_pattern.hot_access_fraction",
            ap.hot_access_fraction,
        )?;
        if ap.hot_region_objects == 0 {
            return Err(ConfigError::new(
                "workload.access_pattern.hot_region_objects",
                "must be positive",
            ));
        }
        if ap.hot_region_objects > self.database.num_objects {
            return Err(ConfigError::new(
                "workload.access_pattern.hot_region_objects",
                "hot region cannot exceed the database size",
            ));
        }
        if let DeadlinePolicy::ProportionalSlack { factor } = self.workload.deadline {
            if factor <= 0.0 || !factor.is_finite() {
                return Err(ConfigError::new(
                    "workload.deadline.factor",
                    "must be positive",
                ));
            }
        }
        self.faults.validate()?;
        self.runtime.validate()
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::paper(SystemKind::ClientServer, 20, 0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_table_1() {
        let cfg = ExperimentConfig::paper(SystemKind::ClientServer, 60, 0.01);
        assert_eq!(cfg.database.num_objects, 10_000);
        assert_eq!(cfg.database.object_size_bytes, 2_048);
        assert_eq!(cfg.server.buffer_objects, 1_000);
        assert_eq!(cfg.client.memory_cache_objects, 500);
        assert_eq!(cfg.client.disk_cache_objects, 500);
        assert_eq!(cfg.workload.mean_interarrival, SimDuration::from_secs(10));
        assert_eq!(cfg.workload.mean_length, SimDuration::from_secs(10));
        assert_eq!(
            cfg.workload.deadline,
            DeadlinePolicy::ExponentialOffset {
                mean: SimDuration::from_secs(20)
            }
        );
        assert_eq!(cfg.workload.mean_objects_per_txn, 10.0);
        assert_eq!(cfg.workload.update_fraction, 0.01);
        assert_eq!(cfg.workload.decomposable_fraction, 0.10);
        cfg.validate().unwrap();
    }

    #[test]
    fn centralized_preset_gets_large_buffer() {
        let ce = ExperimentConfig::paper(SystemKind::Centralized, 20, 0.05);
        assert_eq!(ce.server.buffer_objects, 5_000);
        assert_eq!(ce.server.max_concurrent_txns, 100);
        ce.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_values() {
        let base = ExperimentConfig::default();

        let mut c = base.clone();
        c.clients = 0;
        assert_eq!(c.validate().unwrap_err().field(), "clients");

        let mut c = base.clone();
        c.workload.update_fraction = 1.5;
        assert_eq!(
            c.validate().unwrap_err().field(),
            "workload.update_fraction"
        );

        let mut c = base.clone();
        c.cpu.txn_cpu_fraction = 0.0;
        assert_eq!(c.validate().unwrap_err().field(), "cpu.txn_cpu_fraction");

        let mut c = base.clone();
        c.workload.access_pattern.hot_region_objects = 20_000;
        assert_eq!(
            c.validate().unwrap_err().field(),
            "workload.access_pattern.hot_region_objects"
        );

        let mut c = base.clone();
        c.runtime.warmup = c.runtime.duration;
        assert_eq!(c.validate().unwrap_err().field(), "runtime.warmup");

        let mut c = base.clone();
        c.workload.deadline = DeadlinePolicy::ProportionalSlack { factor: -1.0 };
        assert_eq!(c.validate().unwrap_err().field(), "workload.deadline.factor");

        let mut c = base;
        c.network.bandwidth_bps = 0;
        assert_eq!(c.validate().unwrap_err().field(), "network.bandwidth_bps");
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let a = ExperimentConfig::default();
        let b = a.clone().with_seed(42);
        assert_eq!(b.runtime.seed, 42);
        assert_eq!(a.system, b.system);
        assert_eq!(a.workload, b.workload);
    }

    #[test]
    fn system_labels_match_paper() {
        assert_eq!(SystemKind::Centralized.label(), "CE-RTDBS");
        assert_eq!(SystemKind::ClientServer.label(), "CS-RTDBS");
        assert_eq!(SystemKind::LoadSharing.label(), "LS-CS-RTDBS");
        assert_eq!(SystemKind::ALL.len(), 3);
    }

    #[test]
    fn fault_defaults_are_off_and_chaos_presets_validate() {
        let f = FaultConfig::default();
        assert!(!f.injects_faults());
        f.validate().unwrap();

        let chaos = FaultConfig::chaos(0.5);
        assert!(chaos.injects_faults());
        chaos.validate().unwrap();
        assert!(!FaultConfig::chaos(0.0).injects_faults());

        // chaos_restart is chaos plus a server-crash schedule; nothing else
        // may differ, so restart-off goldens stay comparable.
        let restart = FaultConfig::chaos_restart(0.5);
        assert!(restart.injects_faults());
        restart.validate().unwrap();
        assert!(!restart.mean_time_to_server_crash.is_zero());
        assert_eq!(
            FaultConfig {
                mean_time_to_server_crash: SimDuration::ZERO,
                ..restart
            },
            chaos
        );
        assert!(!FaultConfig::chaos_restart(0.0).injects_faults());
        // The server-crash knob alone flips injection on.
        let server_only = FaultConfig {
            mean_time_to_server_crash: SimDuration::from_secs(500),
            ..FaultConfig::default()
        };
        assert!(server_only.injects_faults());
        server_only.validate().unwrap();

        let mut c = ExperimentConfig::default();
        c.faults.loss_probability = 1.5;
        assert_eq!(c.validate().unwrap_err().field(), "faults.loss_probability");


        let mut c = ExperimentConfig::default();
        c.runtime.duration = SimDuration::ZERO;
        assert_eq!(c.validate().unwrap_err().field(), "runtime.duration");
    }

    #[test]
    fn config_is_cloneable_and_comparable() {
        fn assert_value_type<T: Clone + PartialEq + std::fmt::Debug + Send + Sync>() {}
        assert_value_type::<ExperimentConfig>();
        assert_value_type::<WorkloadConfig>();
        assert_value_type::<LoadSharingConfig>();
        assert_value_type::<SystemKind>();
    }
}
