//! Parameter sweeps that regenerate every figure and table of the paper's
//! evaluation (§5.2).
//!
//! Every sweep cell — one `(clients, system, update-fraction)` run — is an
//! independent deterministic simulation, so the sweeps build their full
//! list of [`ExperimentConfig`]s up front and hand it to [`run_many`],
//! which fans the cells out over [`SweepOptions::jobs`] worker threads and
//! merges the results back in construction order. Output is byte-identical
//! at every job count.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

use siteselect_types::{
    ConfigError, ExperimentConfig, FaultConfig, LanKind, SimDuration, SystemKind,
};

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

    /// Shorter runs (400 s simulated, 80 s warm-up): `repro --quick`.
    #[must_use]
    pub fn quick() -> Self {
        SweepOptions {
            duration: SimDuration::from_secs(400),
            warmup: SimDuration::from_secs(80),
            ..SweepOptions::paper()
        }
    }

    /// One sweep cell: the paper configuration of `system` at `clients`
    /// clients and `update_fraction`, with this run length and seed.
    #[must_use]
    pub fn cell(self, system: SystemKind, clients: u16, update_fraction: f64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper(system, clients, update_fraction);
        cfg.runtime.duration = self.duration;
        cfg.runtime.warmup = self.warmup;
        cfg.runtime.seed = self.seed;
        cfg
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
pub fn run_many(jobs: usize, cfgs: &[ExperimentConfig]) -> Result<Vec<RunMetrics>, ConfigError> {
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
            cfgs.push(opts.cell(system, n, update_fraction));
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

/// CS-RTDBS and LS-CS-RTDBS, in the column order of the paper's tables.
const CS_LS: [SystemKind; 2] = [SystemKind::ClientServer, SystemKind::LoadSharing];

/// Runs `N` cells per key through [`run_many`] and renders the results as
/// one text table under `title`: `rows` turns each key's metrics, in cell
/// order, into table rows.
fn sweep_table<K: Copy, const N: usize>(
    opts: SweepOptions,
    title: &str,
    headers: &[&str],
    keys: &[K],
    cells: impl Fn(K) -> [ExperimentConfig; N],
    rows: impl Fn(&mut TextTable, K, &[RunMetrics; N]),
) -> Result<String, ConfigError> {
    let cfgs: Vec<ExperimentConfig> = keys.iter().flat_map(|&k| cells(k)).collect();
    let metrics = run_many(opts.jobs, &cfgs)?;
    let mut t = TextTable::new(headers.iter().copied().map(String::from).collect());
    for (&k, m) in keys.iter().zip(metrics.as_chunks::<N>().0) {
        rows(&mut t, k, m);
    }
    Ok(format!("{title}\n{}", t.render()))
}

/// Table 2: average client cache hit rates, CS vs LS, by update percentage
/// and client count.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn cache_table(clients: &[u16], opts: SweepOptions) -> Result<String, ConfigError> {
    sweep_table(
        opts,
        "Average cache hit rates in the CS-RTDBS and LS-CS-RTDBS",
        &[
            "clients", "CS 1%", "CS 5%", "CS 20%", "LS 1%", "LS 5%", "LS 20%",
        ],
        clients,
        |n| {
            let [[c1, c5, c20], [l1, l5, l20]] =
                CS_LS.map(|system| UPDATE_FRACTIONS.map(|u| opts.cell(system, n, u)));
            [c1, c5, c20, l1, l5, l20]
        },
        |t, n, m| {
            let hits = m.iter().map(|m| fnum(m.cache.hit_percent(), 2));
            t.row(std::iter::once(n.to_string()).chain(hits).collect());
        },
    )
}

/// Table 3: average object response times (seconds) by requested lock mode
/// at 1% updates.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn response_table(clients: &[u16], opts: SweepOptions) -> Result<String, ConfigError> {
    sweep_table(
        opts,
        "Average object response times in seconds (1% updates)",
        &[
            "clients",
            "CS shared",
            "CS exclusive",
            "LS shared",
            "LS exclusive",
        ],
        clients,
        |n| CS_LS.map(|system| opts.cell(system, n, 0.01)),
        |t, n, m| {
            let mut row = vec![n.to_string()];
            for m in m {
                row.push(fnum(m.response.shared.mean(), 3));
                row.push(fnum(m.response.exclusive.mean(), 3));
            }
            t.row(row);
        },
    )
}

/// Table 4: message counts by category for `clients` clients at 1%
/// updates, in the paper's row order.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn message_table(clients: u16, opts: SweepOptions) -> Result<String, ConfigError> {
    sweep_table(
        opts,
        "Number of messages passed in the CS-RTDBSs",
        &["message category", "CS-RTDBS", "LS-CS-RTDBS"],
        &[clients],
        |n| CS_LS.map(|system| opts.cell(system, n, 0.01)),
        |t, _, [cs, ls]| {
            let (cs, ls) = (cs.messages.table4_rows(), ls.messages.table4_rows());
            for ((label, c), (_, l)) in cs.into_iter().zip(ls) {
                // CS has no forward lists: the paper prints its row as "-".
                let c = if label.contains("Forward") && c == 0 {
                    "-".to_owned()
                } else {
                    c.to_string()
                };
                t.row(vec![label.to_owned(), c, l.to_string()]);
            }
        },
    )
}

/// Fault intensities swept by [`fault_table`]: off, then increasing chaos.
pub const FAULT_INTENSITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Graceful-degradation study: deadline success of CS-RTDBS vs
/// LS-CS-RTDBS at `clients` clients and 20% updates for each of the
/// [`FAULT_INTENSITIES`] (see [`FaultConfig::chaos`]), with the observed dropped
/// messages and site crashes alongside. Not part of the paper — it
/// exercises the fault-injection subsystem end to end.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn fault_table(clients: u16, opts: SweepOptions) -> Result<String, ConfigError> {
    sweep_table(
        opts,
        &format!(
            "Deadline success under increasing fault intensity ({clients} clients, 20% updates)"
        ),
        &[
            "intensity",
            "CS-RTDBS %",
            "LS-CS-RTDBS %",
            "CS drops",
            "LS drops",
            "CS crashes",
            "LS crashes",
        ],
        &FAULT_INTENSITIES,
        |intensity| {
            CS_LS.map(|system| ExperimentConfig {
                faults: FaultConfig::chaos(intensity),
                ..opts.cell(system, clients, 0.20)
            })
        },
        |t, intensity, [cs, ls]| {
            t.row(vec![
                fnum(intensity, 2),
                fnum(cs.success_percent(), 2),
                fnum(ls.success_percent(), 2),
                cs.faults.messages_dropped.to_string(),
                ls.faults.messages_dropped.to_string(),
                cs.faults.crashes.to_string(),
                ls.faults.crashes.to_string(),
            ]);
        },
    )
}

/// Intensities swept by [`restart_table`]'s crash-restart cells. No zero
/// row: the study contrasts recovery against the cliff, and at zero
/// intensity the server never crashes at all.
pub const RESTART_INTENSITIES: [f64; 3] = [0.25, 0.5, 1.0];

/// Crash-restart study: deadline success of CS-RTDBS vs LS-CS-RTDBS at
/// `clients` clients and 20% updates when the server itself crashes
/// mid-run at each of the [`RESTART_INTENSITIES`], once under [`FaultConfig::chaos_restart`] (the server replays
/// its write-ahead log and rejoins) and once with `mean_recovery_time`
/// zeroed (every crashed site stays dark for the rest of the run), plus the
/// recoveries observed in the restart runs. The gap between the two
/// columns is what durability buys.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn restart_table(clients: u16, opts: SweepOptions) -> Result<String, ConfigError> {
    sweep_table(
        opts,
        &format!("Server crash-restart vs permanent crash ({clients} clients, 20% updates)"),
        &[
            "intensity",
            "CS restart %",
            "CS dark %",
            "LS restart %",
            "LS dark %",
            "CS recoveries",
            "LS recoveries",
        ],
        &RESTART_INTENSITIES,
        |intensity| {
            let restart = FaultConfig::chaos_restart(intensity);
            let dark = FaultConfig {
                mean_recovery_time: SimDuration::ZERO,
                ..restart
            };
            let [[cs_restart, cs_dark], [ls_restart, ls_dark]] = CS_LS.map(|system| {
                [restart, dark].map(|faults| ExperimentConfig {
                    faults,
                    ..opts.cell(system, clients, 0.20)
                })
            });
            [cs_restart, cs_dark, ls_restart, ls_dark]
        },
        |t, intensity, m| {
            let [cs_restart, _, ls_restart, _] = m;
            let mut row = vec![fnum(intensity, 2)];
            row.extend(m.iter().map(|m| fnum(m.success_percent(), 2)));
            row.push(cs_restart.faults.recoveries.to_string());
            row.push(ls_restart.faults.recoveries.to_string());
            t.row(row);
        },
    )
}

/// The design-choice ablations DESIGN.md calls out, as labelled cells:
/// full LS, then each LS feature switched off (or one knob moved) in turn,
/// at the most contended point of the evaluation (100 clients, 20%
/// updates).
#[must_use]
pub fn ablation_cells(opts: SweepOptions) -> [(&'static str, ExperimentConfig); 10] {
    let knockouts: [(_, fn(&mut ExperimentConfig)); 10] = [
        ("full LS", |_| {}),
        ("no H1 (admission)", |c| c.load_sharing.h1_enabled = false),
        ("no H2 (site selection)", |c| {
            c.load_sharing.h2_enabled = false;
        }),
        ("no decomposition", |c| {
            c.load_sharing.decomposition_enabled = false;
        }),
        ("no forward lists", |c| {
            c.load_sharing.forward_lists_enabled = false;
        }),
        ("no request scheduling", |c| {
            c.load_sharing.request_scheduling_enabled = false;
        }),
        ("no directory server", |c| {
            c.load_sharing.directory_enabled = false;
        }),
        ("switched LAN", |c| c.network.kind = LanKind::Switched),
        ("collection window 10 ms", |c| {
            c.load_sharing.collection_window = SimDuration::from_millis(10);
        }),
        ("collection window 500 ms", |c| {
            c.load_sharing.collection_window = SimDuration::from_millis(500);
        }),
    ];
    knockouts.map(|(label, knock)| {
        let mut cfg = opts.cell(SystemKind::LoadSharing, 100, 0.20);
        knock(&mut cfg);
        (label, cfg)
    })
}

/// Runs [`ablation_cells`] over `opts.jobs` workers and renders one line
/// per cell: deadline success and how often LS shipped, decomposed and
/// served from a forward list.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn ablations(opts: SweepOptions) -> Result<String, ConfigError> {
    let (labels, cfgs): (Vec<_>, Vec<_>) = ablation_cells(opts).into_iter().unzip();
    let mut out = String::new();
    for (label, m) in labels.iter().zip(run_many(opts.jobs, &cfgs)?) {
        let _ = writeln!(
            out,
            "{label:<34} success {:>6.2}%  shipped {:>6}  decomposed {:>5}  forwards {:>6}",
            m.success_percent(),
            m.load_sharing.shipped,
            m.load_sharing.decomposed,
            m.load_sharing.forward_satisfied
        );
    }
    Ok(out)
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

    /// The body rows of a rendered sweep table (title, header and rule
    /// line dropped), split into cells.
    fn body(table: &str) -> Vec<Vec<&str>> {
        let rows = table.lines().skip(3);
        rows.map(|l| l.split_whitespace().collect()).collect()
    }

    fn assert_percent(cell: &str) {
        let v: f64 = cell.parse().unwrap();
        assert!((0.0..=100.0).contains(&v), "{cell} is not a percentage");
    }

    #[test]
    fn run_many_keeps_cell_order_at_any_job_count() {
        let mut cfgs = Vec::new();
        for system in SystemKind::ALL {
            for n in [3u16, 5] {
                cfgs.push(tiny().cell(system, n, 0.05));
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
        assert_eq!(
            restart_table(4, seq).unwrap(),
            restart_table(4, par).unwrap()
        );
    }

    #[test]
    fn deadline_figure_has_all_rows() {
        let f = deadline_figure(0.05, &[4, 8], tiny()).unwrap();
        assert_eq!(f.rows.len(), 2);
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
        assert!(t.starts_with("Average cache hit rates"), "{t}");
        let rows = body(&t);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), 7);
        assert_eq!(rows[0][0], "4");
        for cell in &rows[0][1..] {
            assert_percent(cell);
        }
    }

    #[test]
    fn response_table_shape() {
        let t = response_table(&[4], tiny()).unwrap();
        assert!(t.contains("object response times"));
        let rows = body(&t);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), 5);
    }

    #[test]
    fn fault_table_zero_intensity_matches_clean_runs() {
        let t = fault_table(4, tiny()).unwrap();
        assert!(t.contains("fault intensity"));
        let rows = body(&t);
        assert_eq!(rows.len(), FAULT_INTENSITIES.len());
        let clean = &rows[0];
        assert_eq!(clean[0], "0.00");
        assert_eq!(clean[3..], ["0"; 4], "intensity 0 must inject nothing");
        assert_percent(clean[1]);
        assert_percent(clean[2]);
        let chaotic = &rows[FAULT_INTENSITIES.len() - 1];
        assert_eq!(chaotic[0], "1.00");
        assert!(
            chaotic[3] != "0" && chaotic[4] != "0",
            "full chaos must drop messages in both systems"
        );
    }

    #[test]
    fn restart_table_shape_and_sane_percentages() {
        let t = restart_table(4, tiny()).unwrap();
        assert!(t.contains("crash-restart vs permanent"));
        let rows = body(&t);
        assert_eq!(rows.len(), RESTART_INTENSITIES.len());
        assert_eq!(rows[0][0], "0.25");
        for row in &rows {
            for cell in &row[1..5] {
                assert_percent(cell);
            }
        }
    }

    #[test]
    fn message_table_has_paper_rows() {
        let t = message_table(4, tiny()).unwrap();
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3 + 5);
        assert!(lines[3].contains("Request"));
        assert!(lines[1].contains("LS-CS-RTDBS"));
    }

    #[test]
    fn ablation_cells_are_distinct_knockouts_of_full_ls() {
        let cells = ablation_cells(tiny());
        let full = tiny().cell(SystemKind::LoadSharing, 100, 0.20);
        assert_eq!(cells[0], ("full LS", full));
        for (i, (label, cfg)) in cells.iter().enumerate() {
            for (other_label, other) in &cells[i + 1..] {
                assert_ne!(label, other_label);
                assert_ne!(cfg, other, "{label} and {other_label} run the same cell");
            }
        }
    }
}
