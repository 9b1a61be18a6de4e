//! `simcheck`: randomized schedule exploration with shrinking.
//!
//! The explorer fans seeds across a fixed cell matrix — system (CE / CS /
//! LS) × update rate × fault profile — runs every case under all three
//! oracles, and on the first failure (lowest case index, so the outcome is
//! identical at every `--jobs` count) greedily shrinks the case to the
//! smallest client count, run length, and fault profile that still fails.
//! Everything is deterministic: the same seeds produce the same report
//! byte-for-byte regardless of worker count, and every reported failure
//! carries a replayable `repro trace` command.

use std::fmt;

use siteselect_core::experiments::par_map;
use siteselect_core::RunMetrics;
use siteselect_types::{ExperimentConfig, FaultConfig, SimDuration, SystemKind};

use crate::{check_config, Violation};

/// Default base seed for the explorer (`simcheck` in leetspeak-adjacent
/// hex); case `i` runs at `base_seed + i`.
pub const DEFAULT_BASE_SEED: u64 = 0x51AC_0C43;

/// One cell of the exploration matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// System under test.
    pub system: SystemKind,
    /// Per-access update probability.
    pub update_fraction: f64,
    /// `FaultConfig::chaos` intensity; `0.0` means faults off.
    pub chaos_intensity: f64,
    /// True adds the server crash-restart schedule
    /// (`FaultConfig::chaos_restart`), exercising WAL replay and the
    /// recovery oracle.
    pub restart: bool,
}

/// The fixed exploration matrix: 3 systems × 2 update rates × 3 fault
/// profiles = 18 chaos cells, plus 3 systems × 2 intensities of
/// crash-restart chaos at the write-heavy rate = 24 cells total. Case `i`
/// lands in cell `i % 24`.
#[must_use]
pub fn matrix() -> Vec<Cell> {
    let mut cells = Vec::with_capacity(24);
    for &system in &SystemKind::ALL {
        for &update_fraction in &[0.05, 0.20] {
            for &chaos_intensity in &[0.0, 0.5, 1.0] {
                cells.push(Cell {
                    system,
                    update_fraction,
                    chaos_intensity,
                    restart: false,
                });
            }
        }
    }
    // Crash-restart cells at the write-heavy rate: recovery has losers to
    // roll back only when transactions actually write.
    for &system in &SystemKind::ALL {
        for &chaos_intensity in &[0.5, 1.0] {
            cells.push(Cell {
                system,
                update_fraction: 0.20,
                chaos_intensity,
                restart: true,
            });
        }
    }
    cells
}

/// Everything needed to rebuild one explored run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseSpec {
    /// The matrix cell.
    pub cell: Cell,
    /// PRNG seed.
    pub seed: u64,
    /// Cluster size.
    pub clients: u16,
    /// Simulated run length.
    pub duration: SimDuration,
    /// Warm-up cut before measurement opens.
    pub warmup: SimDuration,
}

impl CaseSpec {
    /// The experiment configuration this case runs.
    #[must_use]
    pub fn config(&self) -> ExperimentConfig {
        let mut cfg =
            ExperimentConfig::paper(self.cell.system, self.clients, self.cell.update_fraction);
        cfg.runtime.duration = self.duration;
        cfg.runtime.warmup = self.warmup;
        cfg.runtime.seed = self.seed;
        if self.cell.restart {
            cfg.faults = FaultConfig::chaos_restart(self.cell.chaos_intensity);
        } else if self.cell.chaos_intensity > 0.0 {
            cfg.faults = FaultConfig::chaos(self.cell.chaos_intensity);
        }
        cfg
    }

    /// A shell command that replays this exact run with tracing attached
    /// and the oracles re-judging it.
    #[must_use]
    pub fn replay_command(&self) -> String {
        let mut cmd = format!(
            "cargo run -p siteselect-bench --release --bin repro -- trace \
             --system {} --clients {} --update {} --seed {} --duration {} --warmup {}",
            system_flag(self.cell.system),
            self.clients,
            self.cell.update_fraction,
            self.seed,
            self.duration.as_micros() / 1_000_000,
            self.warmup.as_micros() / 1_000_000,
        );
        if self.cell.chaos_intensity > 0.0 {
            cmd.push_str(&format!(" --chaos {}", self.cell.chaos_intensity));
        }
        if self.cell.restart {
            cmd.push_str(" --restart");
        }
        cmd
    }

    /// Runs the case under all four oracles, attaching the replay command
    /// to any violation.
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] an oracle detects.
    pub fn run(&self) -> Result<RunMetrics, Violation> {
        check_config(&self.config()).map_err(|v| v.with_replay(self.replay_command()))
    }
}

/// `SYS N clients seed S update U chaos C[ restart] duration Ds`: the case
/// as the explorer's report names it.
impl fmt::Display for CaseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} clients seed {} update {} chaos {}{} duration {}s",
            system_flag(self.cell.system),
            self.clients,
            self.seed,
            self.cell.update_fraction,
            self.cell.chaos_intensity,
            if self.cell.restart { " restart" } else { "" },
            self.duration.as_micros() / 1_000_000,
        )
    }
}

/// Short CLI label for a system (`ce` / `cs` / `ls`).
#[must_use]
pub fn system_flag(system: SystemKind) -> &'static str {
    match system {
        SystemKind::Centralized => "ce",
        SystemKind::ClientServer => "cs",
        SystemKind::LoadSharing => "ls",
    }
}

/// Parses a CLI system label (`ce` / `cs` / `ls`, case-insensitive).
#[must_use]
pub fn parse_system(label: &str) -> Option<SystemKind> {
    match label.to_ascii_lowercase().as_str() {
        "ce" | "centralized" => Some(SystemKind::Centralized),
        "cs" | "clientserver" | "client-server" => Some(SystemKind::ClientServer),
        "ls" | "loadsharing" | "load-sharing" => Some(SystemKind::LoadSharing),
        _ => None,
    }
}

/// Exploration parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExploreOptions {
    /// Number of (cell, seed) cases to run.
    pub seeds: u64,
    /// Worker threads; `0` means one per core.
    pub jobs: usize,
    /// Seed of case 0; case `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Cluster size of every explored case.
    pub clients: u16,
    /// Run length of every explored case.
    pub duration: SimDuration,
    /// Warm-up of every explored case.
    pub warmup: SimDuration,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            seeds: 72,
            jobs: 0,
            base_seed: DEFAULT_BASE_SEED,
            clients: 8,
            duration: SimDuration::from_secs(150),
            warmup: SimDuration::from_secs(30),
        }
    }
}

/// A minimized failure: the original failing case and its shrunk form.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The case the explorer first caught.
    pub original: CaseSpec,
    /// The smallest case the shrinker still saw fail.
    pub shrunk: CaseSpec,
    /// The violation the shrunk case produces.
    pub violation: Violation,
    /// Number of accepted shrink steps.
    pub shrink_steps: u32,
}

/// The explorer's result.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Cases run before stopping (all of them when everything passed).
    pub cases_run: u64,
    /// Transactions measured across all passing cases.
    pub measured_total: u64,
    /// The minimized failure, if any case failed.
    pub failure: Option<Failure>,
}

impl ExploreReport {
    /// True when every explored case passed every oracle.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }

    /// Renders the report (the `repro check` output body).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        match &self.failure {
            None => {
                let _ = writeln!(
                    out,
                    "simcheck: {} cases passed serializability, coherence, \
                     deadline-accounting and recovery oracles ({} measured \
                     transactions recounted)",
                    self.cases_run, self.measured_total
                );
            }
            Some(f) => {
                let _ = writeln!(out, "simcheck: FAILED after {} cases", self.cases_run);
                let _ = writeln!(out, "  original: {}", f.original);
                let _ = writeln!(out, "  shrunk ({} steps): {}", f.shrink_steps, f.shrunk);
                let _ = writeln!(out, "  {}", f.violation);
            }
        }
        out
    }
}

/// Runs the explorer: `opts.seeds` cases across the matrix, in parallel,
/// then shrinks the lowest-index failure (if any).
#[must_use]
pub fn explore(opts: &ExploreOptions) -> ExploreReport {
    let cells = matrix();
    let cases: Vec<CaseSpec> = (0..opts.seeds)
        .map(|i| CaseSpec {
            cell: cells[usize::try_from(i).unwrap_or(usize::MAX) % cells.len()],
            seed: opts.base_seed.wrapping_add(i),
            clients: opts.clients,
            duration: opts.duration,
            warmup: opts.warmup,
        })
        .collect();

    // Results come back in case order, so the outcome is identical at every
    // job count.
    let results = par_map(opts.jobs, &cases, |c| u64::from(c.clients), CaseSpec::run);

    let mut measured_total = 0;
    let mut failure = None;
    for (&original, result) in cases.iter().zip(results) {
        match result {
            Ok(metrics) => measured_total += metrics.measured,
            Err(violation) => {
                let (shrunk, violation, shrink_steps) = shrink(original, violation, CaseSpec::run);
                failure = Some(Failure {
                    original,
                    shrunk,
                    violation,
                    shrink_steps,
                });
                break;
            }
        }
    }
    ExploreReport {
        cases_run: opts.seeds,
        measured_total,
        failure,
    }
}

/// Greedy deterministic shrinker: repeatedly tries, in a fixed order,
/// halving the client count, dropping one client, halving the run length,
/// and weakening the fault profile — keeping any reduction that `run`
/// still fails — until no step applies. Sequential, so its result is
/// independent of the explorer's `--jobs`. Run lengths stay whole seconds,
/// the unit the replay command names them in.
fn shrink(
    case: CaseSpec,
    violation: Violation,
    run: impl Fn(&CaseSpec) -> Result<RunMetrics, Violation>,
) -> (CaseSpec, Violation, u32) {
    let mut best = case;
    let mut last = violation;
    let mut steps = 0;
    loop {
        let mut candidates: Vec<CaseSpec> = Vec::new();
        if best.clients > 1 {
            let mut c = best;
            c.clients = (best.clients / 2).max(1);
            candidates.push(c);
            let mut c = best;
            c.clients = best.clients - 1;
            candidates.push(c);
        }
        let half = SimDuration::from_secs(best.duration.as_micros() / 1_000_000 / 2);
        if half.as_micros() >= best.warmup.as_micros() * 2 {
            let mut c = best;
            c.duration = half;
            candidates.push(c);
        }
        if best.cell.restart {
            // Weakening the fault profile: first try the same chaos without
            // the server crash-restart schedule.
            let mut c = best;
            c.cell.restart = false;
            candidates.push(c);
        }
        if best.cell.chaos_intensity > 0.0 {
            let mut c = best;
            c.cell.chaos_intensity = if best.cell.chaos_intensity > 0.5 {
                0.5
            } else {
                0.0
            };
            candidates.push(c);
        }
        let failing = candidates
            .into_iter()
            .find_map(|c| run(&c).err().map(|v| (c, v)));
        let Some((candidate, v)) = failing else {
            return (best, last, steps);
        };
        best = candidate;
        last = v;
        steps += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_matrix_covers_all_systems_and_profiles() {
        let cells = matrix();
        assert_eq!(cells.len(), 24);
        for &system in &SystemKind::ALL {
            assert!(cells
                .iter()
                .any(|c| c.system == system && c.chaos_intensity > 0.0));
            assert!(cells
                .iter()
                .any(|c| c.system == system && c.chaos_intensity == 0.0));
            // Every system gets crash-restart coverage, always write-heavy
            // so replay has committed effects and losers to arbitrate.
            assert!(cells
                .iter()
                .any(|c| c.system == system && c.restart && c.update_fraction == 0.20));
        }
    }

    #[test]
    fn system_flags_round_trip() {
        for &system in &SystemKind::ALL {
            assert_eq!(parse_system(system_flag(system)), Some(system));
        }
        assert_eq!(parse_system("bogus"), None);
    }

    #[test]
    fn replay_commands_name_every_knob() {
        let case = CaseSpec {
            cell: Cell {
                system: SystemKind::LoadSharing,
                update_fraction: 0.20,
                chaos_intensity: 0.5,
                restart: false,
            },
            seed: 42,
            clients: 6,
            duration: SimDuration::from_secs(150),
            warmup: SimDuration::from_secs(30),
        };
        let cmd = case.replay_command();
        assert!(cmd.contains("--system ls"), "{cmd}");
        assert!(cmd.contains("--clients 6"), "{cmd}");
        assert!(cmd.contains("--seed 42"), "{cmd}");
        assert!(cmd.contains("--chaos 0.5"), "{cmd}");
        assert!(cmd.contains("--duration 150"), "{cmd}");
        assert!(!cmd.contains("--restart"), "{cmd}");
        let mut restart_case = case;
        restart_case.cell.restart = true;
        let cmd = restart_case.replay_command();
        assert!(cmd.contains("--chaos 0.5"), "{cmd}");
        assert!(cmd.ends_with("--restart"), "{cmd}");
    }

    #[test]
    fn a_shrunk_case_replays_the_duration_it_ran() {
        let case = CaseSpec {
            cell: matrix()[0],
            seed: 1,
            clients: 30,
            duration: SimDuration::from_secs(151),
            warmup: SimDuration::from_secs(30),
        };
        let violation = Violation {
            oracle: "serializability",
            at: "explore.rs",
            detail: "every candidate fails".into(),
            replay: None,
        };
        let (shrunk, _, _) = shrink(case, violation.clone(), |_| Err(violation.clone()));
        assert_eq!(shrunk.clients, 1);
        assert_eq!(shrunk.duration, SimDuration::from_secs(75));
        let cmd = shrunk.replay_command();
        let named: u64 = cmd
            .split_once("--duration ")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .and_then(|secs| secs.parse().ok())
            .unwrap_or_else(|| panic!("no --duration in {cmd}"));
        assert_eq!(SimDuration::from_secs(named), shrunk.duration, "{cmd}");
    }

    #[test]
    fn a_small_exploration_passes_and_is_jobs_invariant() {
        let opts = ExploreOptions {
            seeds: 6,
            jobs: 1,
            clients: 4,
            duration: SimDuration::from_secs(120),
            warmup: SimDuration::from_secs(30),
            ..ExploreOptions::default()
        };
        let sequential = explore(&opts);
        assert!(sequential.passed(), "{}", sequential.render());
        let parallel = explore(&ExploreOptions { jobs: 3, ..opts });
        assert_eq!(sequential.render(), parallel.render());
        assert_eq!(sequential.measured_total, parallel.measured_total);
    }
}
