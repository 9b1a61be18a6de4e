//! Parameter sweeps that regenerate every figure and table of the paper's
//! evaluation (§5.2).
//!
//! Every sweep cell — one `(clients, system, update-fraction)` run — is an
//! independent deterministic simulation, so the sweeps build their full
//! list of [`ExperimentConfig`]s up front and hand it to [`run_many`],
//! which fans the cells out over [`SweepOptions::jobs`] worker threads and
//! merges the results back in construction order. Output is byte-identical
//! at every job count.

use std::sync::atomic::{AtomicUsize, Ordering};

use siteselect_types::{ConfigError, ExperimentConfig, SimDuration, SystemKind};

use crate::driver::run_experiment;
use crate::metrics::RunMetrics;
use crate::report::{fnum, TextTable};

/// Run-length control for sweeps: the paper-scale defaults take minutes;
/// `quick()` keeps CI and doctests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Simulated duration per run.
    pub duration: SimDuration,
    /// Warm-up excluded from statistics.
    pub warmup: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for sweep cells; `0` means one per available core.
    /// Results are merged in cell order, so the choice never affects output.
    pub jobs: usize,
}

impl SweepOptions {
    /// Paper-scale runs (2,000 s simulated, 200 s warm-up).
    #[must_use]
    pub fn paper() -> Self {
        SweepOptions {
            duration: SimDuration::from_secs(2_000),
            warmup: SimDuration::from_secs(200),
            seed: 0x5173_5e1e,
            jobs: 0,
        }
    }

    /// Short runs for tests and smoke checks.
    #[must_use]
    pub fn quick() -> Self {
        SweepOptions {
            duration: SimDuration::from_secs(300),
            warmup: SimDuration::from_secs(50),
            seed: 0x5173_5e1e,
            jobs: 0,
        }
    }

    fn apply(self, cfg: &mut ExperimentConfig) {
        cfg.runtime.duration = self.duration;
        cfg.runtime.warmup = self.warmup;
        cfg.runtime.seed = self.seed;
    }
}

/// Resolves a `jobs` request to an actual worker count: `0` means one per
/// available core, and there is never a reason to spawn more workers than
/// cells.
#[must_use]
pub fn effective_jobs(jobs: usize, cells: usize) -> usize {
    let jobs = if jobs == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        jobs
    };
    jobs.max(1).min(cells.max(1))
}

/// Runs every configuration in `cfgs` and returns the metrics in the same
/// order, fanning the runs out over `jobs` worker threads (`0` = one per
/// available core) with [`par_map`], largest client count first: a run's
/// cost grows with its clients, and a 100-client cell started last leaves
/// the other workers idle while it finishes. Each run being a
/// self-contained seeded simulation, the output is byte-identical at every
/// job count.
///
/// # Errors
///
/// Propagates the first configuration error in `cfgs` order.
pub fn run_many(
    jobs: usize,
    cfgs: &[ExperimentConfig],
) -> Result<Vec<RunMetrics>, ConfigError> {
    par_map(jobs, cfgs, |cfg| u64::from(cfg.clients), run_experiment)
        .into_iter()
        .collect()
}

/// Applies `f` to every item on `jobs` scoped worker threads (`0` = one
/// per available core) and returns the results in `items` order.
///
/// Workers pull positions from a shared atomic counter and report
/// `(index, result)` pairs; the merge writes each result into its slot, so
/// the output is ordered by `items` whichever worker finished first. Items
/// are handed out largest `size` first (equal sizes in `items` order), so
/// the costliest work does not start last. With one worker the items run
/// inline, in order, without spawning.
pub fn par_map<T: Sync, R: Send>(
    jobs: usize,
    items: &[T],
    size: impl Fn(&T) -> u64,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = effective_jobs(jobs, items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let mut order: Vec<(usize, &T)> = items.iter().enumerate().collect();
    order.sort_by_key(|&(_, item)| std::cmp::Reverse(size(item)));
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some(&(i, item)) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("parallel-map worker panicked") {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item was claimed by a worker"))
        .collect()
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions::paper()
    }
}

/// The client counts of the paper's figures.
pub const FIGURE_CLIENTS: [u16; 5] = [20, 40, 60, 80, 100];
/// The client counts of Tables 2 and 3.
pub const TABLE_CLIENTS: [u16; 3] = [20, 60, 100];
/// The update percentages of the evaluation.
pub const UPDATE_FRACTIONS: [f64; 3] = [0.01, 0.05, 0.20];

/// One figure: deadline-success percentage per system and client count.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlineFigure {
    /// Per-access update probability of this figure (0.01 / 0.05 / 0.20).
    pub update_fraction: f64,
    /// `(clients, [CE, CS, LS] success %)` rows.
    pub rows: Vec<(u16, [f64; 3])>,
}

impl DeadlineFigure {
    /// Success series for one system, in client order.
    #[must_use]
    pub fn series(&self, system: SystemKind) -> Vec<f64> {
        let idx = SystemKind::ALL
            .iter()
            .position(|&s| s == system)
            .expect("known system");
        self.rows.iter().map(|(_, v)| v[idx]).collect()
    }

    /// Renders the figure as a text table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "clients".into(),
            "CE-RTDBS %".into(),
            "CS-RTDBS %".into(),
            "LS-CS-RTDBS %".into(),
        ]);
        for (clients, v) in &self.rows {
            t.row(vec![
                clients.to_string(),
                fnum(v[0], 2),
                fnum(v[1], 2),
                fnum(v[2], 2),
            ]);
        }
        format!(
            "Percentage of transactions completed within their deadlines ({}% updates)\n{}",
            self.update_fraction * 100.0,
            t.render()
        )
    }
}

/// Regenerates Figure 3 (1%), Figure 4 (5%) or Figure 5 (20%): the
/// deadline-success curves of the three systems.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn deadline_figure(
    update_fraction: f64,
    clients: &[u16],
    opts: SweepOptions,
) -> Result<DeadlineFigure, ConfigError> {
    let mut cfgs = Vec::with_capacity(clients.len() * SystemKind::ALL.len());
    for &n in clients {
        for system in SystemKind::ALL {
            let mut cfg = ExperimentConfig::paper(system, n, update_fraction);
            opts.apply(&mut cfg);
            cfgs.push(cfg);
        }
    }
    let metrics = run_many(opts.jobs, &cfgs)?;
    let rows = clients
        .iter()
        .zip(metrics.chunks_exact(SystemKind::ALL.len()))
        .map(|(&n, chunk)| {
            let mut vals = [0.0f64; 3];
            for (v, m) in vals.iter_mut().zip(chunk) {
                *v = m.success_percent();
            }
            (n, vals)
        })
        .collect();
    Ok(DeadlineFigure {
        update_fraction,
        rows,
    })
}

/// Table 2: average client cache hit rates, CS vs LS, by update percentage
/// and client count.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheTable {
    /// `(clients, [CS hit% at 1/5/20%], [LS hit% at 1/5/20%])`.
    pub rows: Vec<(u16, [f64; 3], [f64; 3])>,
}

impl CacheTable {
    /// Renders the table in the paper's layout.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "clients".into(),
            "CS 1%".into(),
            "CS 5%".into(),
            "CS 20%".into(),
            "LS 1%".into(),
            "LS 5%".into(),
            "LS 20%".into(),
        ]);
        for (clients, cs, ls) in &self.rows {
            t.row(vec![
                clients.to_string(),
                fnum(cs[0], 2),
                fnum(cs[1], 2),
                fnum(cs[2], 2),
                fnum(ls[0], 2),
                fnum(ls[1], 2),
                fnum(ls[2], 2),
            ]);
        }
        format!(
            "Average cache hit rates in the CS-RTDBS and LS-CS-RTDBS\n{}",
            t.render()
        )
    }
}

/// Regenerates Table 2.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn cache_table(clients: &[u16], opts: SweepOptions) -> Result<CacheTable, ConfigError> {
    let mut cfgs = Vec::with_capacity(clients.len() * UPDATE_FRACTIONS.len() * 2);
    for &n in clients {
        for &u in &UPDATE_FRACTIONS {
            for system in [SystemKind::ClientServer, SystemKind::LoadSharing] {
                let mut cfg = ExperimentConfig::paper(system, n, u);
                opts.apply(&mut cfg);
                cfgs.push(cfg);
            }
        }
    }
    let metrics = run_many(opts.jobs, &cfgs)?;
    let rows = clients
        .iter()
        .zip(metrics.chunks_exact(UPDATE_FRACTIONS.len() * 2))
        .map(|(&n, chunk)| {
            let mut cs = [0.0f64; 3];
            let mut ls = [0.0f64; 3];
            for (i, pair) in chunk.chunks_exact(2).enumerate() {
                cs[i] = pair[0].cache.hit_percent();
                ls[i] = pair[1].cache.hit_percent();
            }
            (n, cs, ls)
        })
        .collect();
    Ok(CacheTable { rows })
}

/// Table 3: average object response times (seconds) by requested lock mode
/// at 1% updates.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseTable {
    /// `(clients, CS [SL, EL], LS [SL, EL])` in seconds.
    pub rows: Vec<(u16, [f64; 2], [f64; 2])>,
}

impl ResponseTable {
    /// Renders the table in the paper's layout.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "clients".into(),
            "CS shared".into(),
            "CS exclusive".into(),
            "LS shared".into(),
            "LS exclusive".into(),
        ]);
        for (clients, cs, ls) in &self.rows {
            t.row(vec![
                clients.to_string(),
                fnum(cs[0], 3),
                fnum(cs[1], 3),
                fnum(ls[0], 3),
                fnum(ls[1], 3),
            ]);
        }
        format!(
            "Average object response times in seconds (1% updates)\n{}",
            t.render()
        )
    }
}

/// Regenerates Table 3.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn response_table(clients: &[u16], opts: SweepOptions) -> Result<ResponseTable, ConfigError> {
    let mut cfgs = Vec::with_capacity(clients.len() * 2);
    for &n in clients {
        for system in [SystemKind::ClientServer, SystemKind::LoadSharing] {
            let mut cfg = ExperimentConfig::paper(system, n, 0.01);
            opts.apply(&mut cfg);
            cfgs.push(cfg);
        }
    }
    let metrics = run_many(opts.jobs, &cfgs)?;
    let rows = clients
        .iter()
        .zip(metrics.chunks_exact(2))
        .map(|(&n, pair)| {
            let (cs, ls) = (&pair[0], &pair[1]);
            (
                n,
                [cs.response.shared.mean(), cs.response.exclusive.mean()],
                [ls.response.shared.mean(), ls.response.exclusive.mean()],
            )
        })
        .collect();
    Ok(ResponseTable { rows })
}

/// Table 4: message counts by category (100 clients, 1% updates).
#[derive(Debug, Clone, PartialEq)]
pub struct MessageTable {
    /// `(row label, CS count, LS count)` in the paper's row order.
    pub rows: Vec<(String, u64, u64)>,
}

impl MessageTable {
    /// Renders the table in the paper's layout.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "message category".into(),
            "CS-RTDBS".into(),
            "LS-CS-RTDBS".into(),
        ]);
        for (label, cs, ls) in &self.rows {
            let cs_s = if label.contains("Forward") && *cs == 0 {
                "-".to_string()
            } else {
                cs.to_string()
            };
            t.row(vec![label.clone(), cs_s, ls.to_string()]);
        }
        format!("Number of messages passed in the CS-RTDBSs\n{}", t.render())
    }
}

/// Regenerates Table 4 for `clients` clients at 1% updates.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn message_table(clients: u16, opts: SweepOptions) -> Result<MessageTable, ConfigError> {
    let mut cfgs = Vec::with_capacity(2);
    for system in [SystemKind::ClientServer, SystemKind::LoadSharing] {
        let mut cfg = ExperimentConfig::paper(system, clients, 0.01);
        opts.apply(&mut cfg);
        cfgs.push(cfg);
    }
    let metrics = run_many(opts.jobs, &cfgs)?;
    let (cs, ls) = (&metrics[0], &metrics[1]);
    let rows = cs
        .messages
        .table4_rows()
        .iter()
        .zip(ls.messages.table4_rows().iter())
        .map(|((label, c), (_, l))| ((*label).to_string(), *c, *l))
        .collect();
    Ok(MessageTable { rows })
}

/// Fault intensities swept by [`fault_table`]: off, then increasing chaos.
pub const FAULT_INTENSITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Graceful-degradation study: deadline-success of CS-RTDBS vs
/// LS-CS-RTDBS under increasing fault intensity, with the observed fault
/// activity alongside. Not part of the paper — it exercises the
/// fault-injection subsystem end to end.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTable {
    /// Client count of every run.
    pub clients: u16,
    /// Per-intensity measurements.
    pub rows: Vec<FaultRow>,
}

/// One [`FaultTable`] row: `(intensity, [CS, LS] success %, [CS, LS]
/// dropped messages, [CS, LS] site crashes)`.
pub type FaultRow = (f64, [f64; 2], [u64; 2], [u64; 2]);

impl FaultTable {
    /// Renders the degradation table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "intensity".into(),
            "CS-RTDBS %".into(),
            "LS-CS-RTDBS %".into(),
            "CS drops".into(),
            "LS drops".into(),
            "CS crashes".into(),
            "LS crashes".into(),
        ]);
        for (intensity, success, drops, crashes) in &self.rows {
            t.row(vec![
                fnum(*intensity, 2),
                fnum(success[0], 2),
                fnum(success[1], 2),
                drops[0].to_string(),
                drops[1].to_string(),
                crashes[0].to_string(),
                crashes[1].to_string(),
            ]);
        }
        format!(
            "Deadline success under increasing fault intensity ({} clients, 20% updates)\n{}",
            self.clients,
            t.render()
        )
    }
}

/// Runs the graceful-degradation sweep: CS and LS at `clients` clients and
/// 20% updates for each intensity in `intensities`
/// (see [`FaultConfig::chaos`](siteselect_types::FaultConfig::chaos)).
///
/// # Errors
///
/// Propagates configuration errors.
pub fn fault_table(
    clients: u16,
    intensities: &[f64],
    opts: SweepOptions,
) -> Result<FaultTable, ConfigError> {
    use siteselect_types::FaultConfig;
    let mut cfgs = Vec::with_capacity(intensities.len() * 2);
    for &intensity in intensities {
        for system in [SystemKind::ClientServer, SystemKind::LoadSharing] {
            let mut cfg = ExperimentConfig::paper(system, clients, 0.20);
            opts.apply(&mut cfg);
            cfg.faults = FaultConfig::chaos(intensity);
            cfgs.push(cfg);
        }
    }
    let metrics = run_many(opts.jobs, &cfgs)?;
    let rows = intensities
        .iter()
        .zip(metrics.chunks_exact(2))
        .map(|(&intensity, pair)| {
            let mut success = [0.0f64; 2];
            let mut drops = [0u64; 2];
            let mut crashes = [0u64; 2];
            for (i, m) in pair.iter().enumerate() {
                success[i] = m.success_percent();
                drops[i] = m.faults.messages_dropped;
                crashes[i] = m.faults.crashes;
            }
            (intensity, success, drops, crashes)
        })
        .collect();
    Ok(FaultTable { clients, rows })
}

/// Intensities swept by [`restart_table`]'s crash-restart cells. No zero
/// row: the study contrasts recovery against the cliff, and at zero
/// intensity the server never crashes at all.
pub const RESTART_INTENSITIES: [f64; 3] = [0.25, 0.5, 1.0];

/// Crash-restart study: deadline success of CS-RTDBS vs LS-CS-RTDBS when
/// the server itself crashes mid-run, comparing write-ahead-log
/// crash-**restart** (the server replays its log and rejoins) against the
/// same fault schedule with recovery disabled (every crashed site stays
/// dark). The gap between the two columns is what durability buys.
#[derive(Debug, Clone, PartialEq)]
pub struct RestartTable {
    /// Client count of every run.
    pub clients: u16,
    /// Per-intensity measurements.
    pub rows: Vec<RestartRow>,
}

/// One [`RestartTable`] row: `(intensity, [CS, LS] success % with
/// crash-restart recovery, [CS, LS] success % with recovery disabled,
/// [CS, LS] recoveries observed in the restart runs)`.
pub type RestartRow = (f64, [f64; 2], [f64; 2], [u64; 2]);

impl RestartTable {
    /// Renders the recovery-vs-cliff table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "intensity".into(),
            "CS restart %".into(),
            "CS dark %".into(),
            "LS restart %".into(),
            "LS dark %".into(),
            "CS recoveries".into(),
            "LS recoveries".into(),
        ]);
        for (intensity, restart, dark, recoveries) in &self.rows {
            t.row(vec![
                fnum(*intensity, 2),
                fnum(restart[0], 2),
                fnum(dark[0], 2),
                fnum(restart[1], 2),
                fnum(dark[1], 2),
                recoveries[0].to_string(),
                recoveries[1].to_string(),
            ]);
        }
        format!(
            "Server crash-restart vs permanent crash ({} clients, 20% updates)\n{}",
            self.clients,
            t.render()
        )
    }
}

/// Runs the crash-restart sweep: CS and LS at `clients` clients and 20%
/// updates for each intensity in `intensities`, once under
/// [`FaultConfig::chaos_restart`](siteselect_types::FaultConfig::chaos_restart)
/// (crashed sites replay their log and rejoin) and once with
/// `mean_recovery_time` zeroed (crashed sites stay dark for the rest of
/// the run).
///
/// # Errors
///
/// Propagates configuration errors.
pub fn restart_table(
    clients: u16,
    intensities: &[f64],
    opts: SweepOptions,
) -> Result<RestartTable, ConfigError> {
    use siteselect_types::FaultConfig;
    let mut cfgs = Vec::with_capacity(intensities.len() * 4);
    for &intensity in intensities {
        for recovers in [true, false] {
            for system in [SystemKind::ClientServer, SystemKind::LoadSharing] {
                let mut cfg = ExperimentConfig::paper(system, clients, 0.20);
                opts.apply(&mut cfg);
                cfg.faults = FaultConfig::chaos_restart(intensity);
                if !recovers {
                    cfg.faults.mean_recovery_time = SimDuration::ZERO;
                }
                cfgs.push(cfg);
            }
        }
    }
    let metrics = run_many(opts.jobs, &cfgs)?;
    let rows = intensities
        .iter()
        .zip(metrics.chunks_exact(4))
        .map(|(&intensity, quad)| {
            let restart = [quad[0].success_percent(), quad[1].success_percent()];
            let dark = [quad[2].success_percent(), quad[3].success_percent()];
            let recoveries = [quad[0].faults.recoveries, quad[1].faults.recoveries];
            (intensity, restart, dark, recoveries)
        })
        .collect();
    Ok(RestartTable { clients, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepOptions {
        SweepOptions {
            duration: SimDuration::from_secs(200),
            warmup: SimDuration::from_secs(40),
            seed: 7,
            jobs: 0,
        }
    }

    #[test]
    fn effective_jobs_resolves_auto_and_clamps() {
        assert!(effective_jobs(0, 100) >= 1);
        assert_eq!(effective_jobs(8, 3), 3);
        assert_eq!(effective_jobs(2, 100), 2);
        assert_eq!(effective_jobs(0, 0), 1);
    }

    #[test]
    fn run_many_keeps_cell_order_at_any_job_count() {
        let mut cfgs = Vec::new();
        for system in SystemKind::ALL {
            for n in [3u16, 5] {
                let mut cfg = ExperimentConfig::paper(system, n, 0.05);
                tiny().apply(&mut cfg);
                cfgs.push(cfg);
            }
        }
        let sequential = run_many(1, &cfgs).unwrap();
        let parallel = run_many(4, &cfgs).unwrap();
        assert_eq!(sequential.len(), cfgs.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(format!("{s:?}"), format!("{p:?}"));
        }
    }

    #[test]
    fn sweeps_are_identical_across_job_counts() {
        let seq = SweepOptions { jobs: 1, ..tiny() };
        let par = SweepOptions { jobs: 4, ..tiny() };
        let a = deadline_figure(0.05, &[4, 8], seq).unwrap();
        let b = deadline_figure(0.05, &[4, 8], par).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn deadline_figure_has_all_rows_and_series() {
        let f = deadline_figure(0.05, &[4, 8], tiny()).unwrap();
        assert_eq!(f.rows.len(), 2);
        assert_eq!(f.series(SystemKind::Centralized).len(), 2);
        for (_, vals) in &f.rows {
            for v in vals {
                assert!((0.0..=100.0).contains(v));
            }
        }
        let text = f.render();
        assert!(text.contains("5% updates"));
        assert!(text.contains("LS-CS-RTDBS"));
    }

    #[test]
    fn cache_table_shape() {
        let t = cache_table(&[4], tiny()).unwrap();
        assert_eq!(t.rows.len(), 1);
        let (_, cs, ls) = &t.rows[0];
        for v in cs.iter().chain(ls.iter()) {
            assert!((0.0..=100.0).contains(v));
        }
        assert!(t.render().contains("cache hit rates"));
    }

    #[test]
    fn response_table_shape() {
        let t = response_table(&[4], tiny()).unwrap();
        assert_eq!(t.rows.len(), 1);
        assert!(t.render().contains("object response times"));
    }

    #[test]
    fn fault_table_zero_intensity_matches_clean_runs() {
        let t = fault_table(4, &[0.0, 1.0], tiny()).unwrap();
        assert_eq!(t.rows.len(), 2);
        let (_, clean, clean_drops, clean_crashes) = &t.rows[0];
        assert_eq!(*clean_drops, [0, 0], "intensity 0 must inject nothing");
        assert_eq!(*clean_crashes, [0, 0]);
        for v in clean {
            assert!((0.0..=100.0).contains(v));
        }
        let (_, _, chaotic_drops, _) = &t.rows[1];
        assert!(
            chaotic_drops[0] > 0 && chaotic_drops[1] > 0,
            "full chaos must drop messages in both systems"
        );
        assert!(t.render().contains("fault intensity"));
    }

    #[test]
    fn restart_table_shape_and_sane_percentages() {
        let t = restart_table(4, &[1.0], tiny()).unwrap();
        assert_eq!(t.rows.len(), 1);
        let (intensity, restart, dark, _) = &t.rows[0];
        assert!((intensity - 1.0).abs() < f64::EPSILON);
        for v in restart.iter().chain(dark.iter()) {
            assert!((0.0..=100.0).contains(v));
        }
        assert!(t.render().contains("crash-restart vs permanent"));
    }

    #[test]
    fn message_table_has_paper_rows() {
        let t = message_table(4, tiny()).unwrap();
        assert_eq!(t.rows.len(), 5);
        assert!(t.rows[0].0.contains("Request"));
        let rendered = t.render();
        assert!(rendered.contains("LS-CS-RTDBS"));
    }
}
