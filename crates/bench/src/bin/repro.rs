//! Regenerates every table and figure of Kanitkar & Delis (ICDCS 1999).
//!
//! ```text
//! cargo run -p siteselect-bench --release --bin repro -- all [--quick]
//! cargo run -p siteselect-bench --release --bin repro -- figure3
//! ```
//!
//! One target per invocation (default `all`). `--help` prints the targets
//! and the flags of [`FLAGS`]; a flag outside that table, a flag given
//! twice, a second target, or a value flag without its value is a usage
//! error, not something to skip over. Every sweep is a list of cells that
//! `siteselect_core::experiments::run_many` fans out over `--jobs` workers
//! and merges in cell order, so output is byte-identical at every job
//! count. `faults`, `trace`, `blame` and `check` are described on the
//! functions that run them.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::process::ExitCode;

use siteselect_check::explore::{parse_system, system_flag, CaseSpec, Cell, ExploreOptions};
use siteselect_check::synthetic::InjectKind;
use siteselect_core::experiments::{
    ablations, cache_table, deadline_figure, fault_table, message_table, par_map, response_table,
    restart_table, SweepOptions, FIGURE_CLIENTS, TABLE_CLIENTS,
};
use siteselect_core::{run_experiment_traced, script};
use siteselect_obs::{BlameReport, MetricsRegistry};
use siteselect_types::{ConfigError, ExperimentConfig, SimDuration, SystemKind};

/// Every flag `repro` knows: its name, the placeholder of the value that
/// follows it (empty for a switch) and what it does. The one table behind
/// telling targets from flag values, rejecting the rest, and `--help`.
#[rustfmt::skip]
const FLAGS: [(&str, &str, &str); 14] = [
    ("--quick", "", "shorter simulated runs (coarser numbers, same shapes)"),
    ("--restart", "", "trace/blame: add the server crash-restart profile (needs --chaos)"),
    ("--clients", "N", "cluster size of table4, faults, trace, blame and check"),
    ("--seed", "S", "seed of a trace or blame run; base seed of check (decimal, or hex after 0x)"),
    ("--out", "PATH", "trace: output directory; blame: JSON report file"),
    ("--jobs", "N", "sweep worker threads (absent = one per core); never changes output"),
    ("--system", "ce|cs|ls", "trace/blame: the system to run"),
    ("--update", "F", "trace/blame: per-access update fraction in [0, 1]"),
    ("--chaos", "F", "trace/blame: fault-injection intensity, 0 = off"),
    ("--duration", "SECS", "trace/blame/check: simulated run length"),
    ("--warmup", "SECS", "trace/blame/check: warm-up excluded from statistics"),
    ("--seeds", "N", "check: number of randomized cases"),
    ("--top", "K", "blame: worst missed deadlines to print"),
    ("--inject-violation", "ORACLE", "check: feed serializability|coherence|deadline|recovery a known-bad history"),
];

/// Every target, as the usage text and the unknown-target error list them.
/// `all` runs the paper's, the ones before `faults`, in this order.
const TARGETS: &str = "table1 figure1 figure2 figure3 figure4 figure5 table2 table3 table4 \
                       ablations faults trace blame check all";

/// The `--help` text, generated from [`TARGETS`] and [`FLAGS`].
fn usage() -> String {
    let mut text = format!(
        "usage: repro [TARGET] [FLAGS]\n\n\
         Regenerates the tables and figures of Kanitkar & Delis (ICDCS 1999).\n\
         One target per invocation (default: all).\n\n\
         targets: {TARGETS}\n\nflags:\n"
    );
    for (name, value, about) in FLAGS {
        let flag = format!("{name} {value}");
        text.push_str(&format!("  {flag:<28}{about}\n"));
    }
    text.push_str("  --help, -h                  print this text\n");
    text
}

/// Checks the command line against [`FLAGS`] and returns its one target
/// (`all` when none is named). An unknown flag, a repeated flag, a value
/// flag without its value, or a second target is an error that names the
/// offender.
fn parse_target(args: &[String]) -> Result<&str, String> {
    let mut target = None;
    let mut seen = Vec::new();
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            if let Some(first) = target.replace(arg) {
                return Err(format!("more than one target: {first} and {arg}"));
            }
            continue;
        }
        let Some(&(_, value, _)) = FLAGS.iter().find(|(name, ..)| *name == arg) else {
            return Err(format!("unknown flag: {arg}"));
        };
        if seen.contains(&arg) {
            return Err(format!("{arg} given more than once"));
        }
        seen.push(arg);
        if !value.is_empty() && rest.next().is_none_or(|value| value.starts_with("--")) {
            return Err(format!("{arg} needs a value"));
        }
    }
    Ok(target.unwrap_or("all"))
}

/// Returns the value following `flag`, if present ([`parse_target`] has
/// already established that a present value flag has one, once).
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Strictly parses the value of `flag`: present-and-garbled is an error,
/// never a silent fallback.
fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    let Some(raw) = flag_value(args, flag) else {
        return Ok(None);
    };
    raw.parse::<T>()
        .map(Some)
        .map_err(|e| format!("invalid value for {flag}: {raw:?} ({e})"))
}

/// Strictly parses `--seed`: decimal, or hexadecimal after `0x`, the way
/// EXPERIMENTS.md writes the default seed (`0x51735e1e`).
fn seed_flag(args: &[String]) -> Result<Option<u64>, String> {
    let Some(raw) = flag_value(args, "--seed") else {
        return Ok(None);
    };
    let parsed = match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed
        .map(Some)
        .map_err(|e| format!("invalid value for --seed: {raw:?} ({e})"))
}

/// Strictly parses a count flag: present and zero is an error too.
fn count_flag<T>(args: &[String], flag: &str, hint: &str) -> Result<Option<T>, String>
where
    T: std::str::FromStr + From<u8> + PartialEq,
    T::Err: std::fmt::Display,
{
    let value = parsed_flag::<T>(args, flag)?;
    if value == Some(T::from(0)) {
        return Err(format!("{flag} must be at least 1{hint}"));
    }
    Ok(value)
}

/// A run length in whole seconds, refused when its microseconds (the
/// unit of `SimDuration`) do not fit in a `u64`.
fn seconds_flag(flag: &str, secs: Option<u64>) -> Result<Option<u64>, String> {
    const MAX_SECS: u64 = u64::MAX / 1_000_000;
    match secs {
        Some(s) if s > MAX_SECS => Err(format!(
            "{flag} must be at most {MAX_SECS} seconds, got {s}"
        )),
        _ => Ok(secs),
    }
}

/// Strictly parses a float flag that must lie in `0..=max`.
fn ranged_flag(args: &[String], flag: &str, max: f64, what: &str) -> Result<Option<f64>, String> {
    let value = parsed_flag::<f64>(args, flag)?;
    match value {
        Some(v) if !(0.0..=max).contains(&v) => Err(format!("{flag} must be {what}, got {v}")),
        _ => Ok(value),
    }
}

/// Every flag value on the command line, each checked as it is parsed.
struct Flags {
    /// Paper-scale or `--quick` runs over `--jobs` workers.
    sweep: SweepOptions,
    restart: bool,
    clients: Option<u16>,
    seed: Option<u64>,
    out: Option<String>,
    system: Option<SystemKind>,
    update: Option<f64>,
    chaos: Option<f64>,
    duration: Option<u64>,
    warmup: Option<u64>,
    seeds: Option<u64>,
    top: Option<usize>,
    inject: Option<InjectKind>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let preset = if args.iter().any(|a| a == "--quick") {
        SweepOptions::quick()
    } else {
        SweepOptions::paper()
    };
    let flags = Flags {
        clients: count_flag(args, "--clients", "")?,
        seed: seed_flag(args)?,
        sweep: SweepOptions {
            jobs: count_flag(args, "--jobs", "; omit the flag to use one worker per core")?
                .unwrap_or(0),
            ..preset
        },
        system: flag_value(args, "--system")
            .map(|raw| {
                parse_system(raw).ok_or_else(|| {
                    format!("invalid value for --system: {raw:?} (expected ce, cs or ls)")
                })
            })
            .transpose()?,
        update: ranged_flag(args, "--update", 1.0, "a fraction in [0, 1]")?,
        chaos: ranged_flag(args, "--chaos", 16.0, "a non-negative intensity")?,
        restart: args.iter().any(|a| a == "--restart"),
        duration: seconds_flag("--duration", count_flag(args, "--duration", " second")?)?,
        warmup: seconds_flag("--warmup", parsed_flag(args, "--warmup")?)?,
        seeds: count_flag(args, "--seeds", "")?,
        inject: flag_value(args, "--inject-violation")
            .map(|raw| {
                InjectKind::parse(raw).ok_or_else(|| {
                    format!(
                        "invalid value for --inject-violation: {raw:?} (expected \
                         serializability, coherence, deadline or recovery)"
                    )
                })
            })
            .transpose()?,
        top: count_flag(args, "--top", "")?,
        out: flag_value(args, "--out").map(String::from),
    };
    if flags.restart && flags.chaos.unwrap_or(0.0) <= 0.0 {
        return Err(
            "--restart needs --chaos above 0 (the server crash-restart profile scales with \
             chaos intensity)"
                .into(),
        );
    }
    if let (Some(d), Some(w)) = (flags.duration, flags.warmup) {
        if w >= d {
            return Err(format!(
                "--warmup ({w}s) must be shorter than --duration ({d}s)"
            ));
        }
    }
    Ok(flags)
}

impl Flags {
    /// The one run `trace` and `blame` describe: the flags over LS at 20
    /// clients, 20% updates and no chaos, with the sweep's run length and
    /// seed.
    fn case(&self, opts: SweepOptions) -> CaseSpec {
        CaseSpec {
            cell: Cell {
                system: self.system.unwrap_or(SystemKind::LoadSharing),
                update_fraction: self.update.unwrap_or(0.20),
                chaos_intensity: self.chaos.unwrap_or(0.0),
                restart: self.restart,
            },
            seed: self.seed.unwrap_or(opts.seed),
            clients: self.clients.unwrap_or(20),
            duration: self.duration.map_or(opts.duration, SimDuration::from_secs),
            warmup: self.warmup.map_or(opts.warmup, SimDuration::from_secs),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let (target, flags) = match parse_target(&args).and_then(|t| Ok((t, parse_flags(&args)?))) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !TARGETS.split_whitespace().any(|t| t == target) {
        eprintln!("unknown target: {target}");
        eprintln!("targets: {TARGETS}");
        return ExitCode::FAILURE;
    }
    match run(target, &flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro failed: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyError = Box<dyn std::error::Error>;

/// Runs one target of [`TARGETS`].
fn run(target: &str, flags: &Flags) -> Result<(), AnyError> {
    let opts = flags.sweep;
    match target {
        "table1" => section("Table 1: experimental parameters (active preset)", || {
            Ok(table1())
        }),
        "figure1" => section("Figure 1: the 2PL (callback caching) protocol", || {
            Ok(script::figure_listing(1))
        }),
        "figure2" => section("Figure 2: the lock grouping protocol", || {
            Ok(script::figure_listing(2))
        }),
        "figure3" => figure(3, 0.01, opts),
        "figure4" => figure(4, 0.05, opts),
        "figure5" => figure(5, 0.20, opts),
        "table2" => section("Table 2: average client cache hit rates", || {
            cache_table(&TABLE_CLIENTS, opts)
        }),
        "table3" => section(
            "Table 3: average object response times (1% updates)",
            || response_table(&TABLE_CLIENTS, opts),
        ),
        "table4" => {
            let n = flags.clients.unwrap_or(100);
            section(
                &format!("Table 4: messages passed ({n} clients, 1% updates)"),
                || message_table(n, opts),
            )
        }
        // Each LS feature switched off individually at the most contended
        // point (100 clients, 20% updates).
        "ablations" => section(
            "Ablations: LS-CS-RTDBS feature knockouts (100 clients, 20% updates)",
            || ablations(opts),
        ),
        "faults" => faults(opts, flags.clients.unwrap_or(60)),
        "trace" => trace(
            flags.case(opts),
            flags.out.as_deref().unwrap_or("target/trace"),
        ),
        "blame" => blame(flags, opts),
        "check" => check(flags, opts),
        // `all`: `main` has checked the target against TARGETS.
        _ => TARGETS
            .split_whitespace()
            .take_while(|&t| t != "faults")
            .try_for_each(|target| run(target, flags)),
    }
}

fn banner(title: &str) {
    println!("\n=== {title} ===\n");
}

/// Prints a target's banner, then the text `body` renders.
fn section(
    title: &str,
    body: impl FnOnce() -> Result<String, ConfigError>,
) -> Result<(), AnyError> {
    banner(title);
    print!("{}", body()?);
    Ok(())
}

/// Table 1: the parameters of the active preset.
fn table1() -> String {
    let cs = ExperimentConfig::paper(SystemKind::ClientServer, 100, 0.05);
    let ce = ExperimentConfig::paper(SystemKind::Centralized, 100, 0.05);
    format!(
        "Database size                     {} objects\n\
         Object / page size                {} bytes\n\
         Centralized server memory         {} objects\n\
         CS server memory                  {} objects\n\
         Client disk cache                 {} objects\n\
         Client memory cache               {} objects\n\
         Mean txn inter-arrival (Poisson)  {}\n\
         Mean txn length (exponential)     {}\n\
         Mean txn deadline (exponential)   {:?}\n\
         Updates                           1%, 5%, 20% (per access)\n\
         Mean objects per transaction      {}\n\
         CPU calibration                   txn_cpu_fraction = {} (see DESIGN.md)\n",
        cs.database.num_objects,
        cs.database.object_size_bytes,
        ce.server.buffer_objects,
        cs.server.buffer_objects,
        cs.client.disk_cache_objects,
        cs.client.memory_cache_objects,
        cs.workload.mean_interarrival,
        cs.workload.mean_length,
        cs.workload.deadline,
        cs.workload.mean_objects_per_txn,
        cs.cpu.txn_cpu_fraction,
    )
}

/// Figures 3, 4 and 5: deadline success of the three systems.
fn figure(number: u8, update_fraction: f64, opts: SweepOptions) -> Result<(), AnyError> {
    section(
        &format!(
            "Figure {number}: transactions completed within deadline ({}% updates)",
            update_fraction * 100.0
        ),
        || Ok(deadline_figure(update_fraction, &FIGURE_CLIENTS, opts)?.render()),
    )
}

/// [`fault_table`] then [`restart_table`]. Kept out of `all`: it sweeps
/// the fault-injection subsystem, not a paper figure.
fn faults(opts: SweepOptions, clients: u16) -> Result<(), AnyError> {
    section(
        &format!("Faults: deadline success under chaos ({clients} clients, 20% updates)"),
        || fault_table(clients, opts),
    )?;
    section(
        &format!("Faults: crash-restart recovery vs cliff ({clients} clients, 20% updates)"),
        || restart_table(clients, opts),
    )
}

/// `(N clients, U% updates, chaos C[ restart], seed S)`: the run a trace or
/// blame banner names.
fn run_label(case: &CaseSpec) -> String {
    format!(
        "({} clients, {}% updates, chaos {}{}, seed {})",
        case.clients,
        case.cell.update_fraction * 100.0,
        case.cell.chaos_intensity,
        if case.cell.restart { " restart" } else { "" },
        case.seed
    )
}

/// One traced run: writes the full event stream to `trace.jsonl` (one
/// event per line) and `trace.json` (Chrome `trace_event` format, for
/// chrome://tracing or Perfetto) in `--out` (default `target/trace`),
/// prints the streaming observability report, and judges the captured
/// stream with the `siteselect-check` oracles — so the replay command
/// simcheck prints reproduces the violation it found. Deterministic: same
/// seed and options give byte-identical files.
fn trace(case: CaseSpec, out_dir: &str) -> Result<(), AnyError> {
    banner(&format!(
        "Trace: {} lifecycle trace {}",
        case.cell.system,
        run_label(&case)
    ));
    let cfg = case.config();
    let (metrics, trace) = run_experiment_traced(&cfg, siteselect_check::TRACE_CAPACITY)?;
    std::fs::create_dir_all(out_dir)?;
    let jsonl_path = format!("{out_dir}/trace.jsonl");
    let chrome_path = format!("{out_dir}/trace.json");
    // Streamed: neither document is ever held in memory.
    let mut file = BufWriter::new(File::create(&jsonl_path)?);
    siteselect_obs::export::write_jsonl(&mut file, &trace.records)?;
    file.flush()?;
    let mut file = BufWriter::new(File::create(&chrome_path)?);
    siteselect_obs::export::write_chrome_trace(&mut file, &trace.records)?;
    file.flush()?;
    print!("{}", trace.report.render());
    if trace.report.dropped > 0 {
        eprintln!(
            "warning: trace ring overflowed, {} oldest events dropped — the files are \
             incomplete (shorten the run or raise the trace capacity)",
            trace.report.dropped
        );
    }
    println!(
        "\nrun: {}/{} in time ({:.2}%)",
        metrics.in_time,
        metrics.measured,
        metrics.success_percent()
    );
    println!(
        "wrote {jsonl_path} ({} records) and {chrome_path}",
        trace.records.len()
    );
    let warmup_end = siteselect_types::SimTime::ZERO + cfg.runtime.warmup;
    siteselect_check::check_trace(&trace, &metrics, warmup_end).map_err(|v| v.to_string())?;
    println!("oracles: serializability, coherence, deadline accounting and recovery all passed");
    Ok(())
}

/// One blame cell: a traced run reduced to its blame report plus the
/// numbers the summary line needs. Self-contained, so cells can fan out
/// over worker threads and still merge deterministically by index.
struct BlameCell {
    report: BlameReport,
    in_time: u64,
    measured: u64,
}

fn blame_cell(cfg: &ExperimentConfig, top: usize) -> Result<BlameCell, ConfigError> {
    let (metrics, trace) = run_experiment_traced(cfg, siteselect_check::TRACE_CAPACITY)?;
    let report = BlameReport::extract(&trace, top, &MetricsRegistry::disabled());
    Ok(BlameCell {
        report,
        in_time: metrics.in_time,
        measured: metrics.measured,
    })
}

/// The deadline blame analyzer (`repro blame`): one traced run per system
/// cell, each reduced to a causal blame report — every transaction's
/// latency attributed microsecond-by-microsecond to the cause on its
/// critical path — plus the top-K worst missed deadlines with annotated
/// paths. Cells fan out over `--jobs` scoped threads and merge in cell
/// order, so stdout and the `--out` JSON (default `target/blame.json`) are
/// byte-identical at every job count and across runs at the same seed.
fn blame(flags: &Flags, opts: SweepOptions) -> Result<(), AnyError> {
    use std::fmt::Write as _;
    let case = flags.case(opts);
    let out = flags.out.as_deref().unwrap_or("target/blame.json");
    let top = flags.top.unwrap_or(5);
    let systems = flags
        .system
        .as_ref()
        .map_or(&SystemKind::ALL[..], std::slice::from_ref);
    banner(&format!(
        "Blame: where the deadline went {}",
        run_label(&case)
    ));
    let cases: Vec<CaseSpec> = systems
        .iter()
        .map(|&system| CaseSpec {
            cell: Cell {
                system,
                ..case.cell
            },
            ..case
        })
        .collect();
    let cells = par_map(
        opts.jobs,
        &cases,
        |c| u64::from(c.clients),
        |c| blame_cell(&c.config(), top),
    );
    let mut json = String::with_capacity(1 << 14);
    let _ = write!(
        json,
        r#"{{"seed":{},"clients":{},"update":{},"chaos":{},"restart":{},"cells":["#,
        case.seed,
        case.clients,
        case.cell.update_fraction,
        case.cell.chaos_intensity,
        case.cell.restart
    );
    // Summed over the cells, except the tardiness: the worst of any cell.
    let (mut segments, mut txns, mut missed, mut listed, mut tardiness) = (0, 0, 0, 0, 0);
    for (i, (system, cell)) in systems.iter().zip(cells).enumerate() {
        let cell = cell?;
        println!("--- {system} ---\n");
        print!("{}", cell.report.render());
        println!(
            "\nrun: {}/{} in time ({:.2}%)",
            cell.in_time,
            cell.measured,
            if cell.measured == 0 {
                0.0
            } else {
                cell.in_time as f64 * 100.0 / cell.measured as f64
            }
        );
        if cell.report.dropped_events > 0 {
            eprintln!(
                "warning: {system}: trace ring overflowed, {} oldest events dropped — blame may \
                 be incomplete (shorten the run or raise the trace capacity)",
                cell.report.dropped_events
            );
        }
        println!();
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, r#"{{"system":"{}","report":"#, system_flag(*system));
        json.push_str(cell.report.to_json().trim_end());
        json.push('}');
        segments += cell.report.path_segments;
        txns += cell.report.txns;
        missed += cell.report.missed;
        listed += cell.report.worst.len();
        tardiness = tardiness.max(cell.report.worst_tardiness_us);
    }
    json.push_str("]}\n");
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(out, &json)?;
    println!("pipeline counters:");
    println!("blame_path_segments {segments}");
    println!("blame_txns {txns}");
    println!("blame_txns_missed {missed}");
    println!("blame_worst_listed {listed}");
    println!("blame_worst_tardiness_us {tardiness}");
    println!("\nwrote {out}");
    Ok(())
}

/// The simcheck explorer (`repro check`): randomized schedule exploration
/// across CE/CS/LS × update-rate × fault-profile cells (including server
/// crash-restart cells), every run judged by all four oracles, failures
/// shrunk to a minimal reproducer. With `--inject-violation`, instead
/// feeds a known-bad synthetic history to the matching oracle and fails
/// when it fires (proving it can).
fn check(flags: &Flags, opts: SweepOptions) -> Result<(), AnyError> {
    if let Some(kind) = flags.inject {
        banner(&format!(
            "Simcheck self-test: injected {} violation",
            kind.label()
        ));
        let v = siteselect_check::synthetic::prove_oracle_fires(kind)?.with_replay(format!(
            "cargo run -p siteselect-bench --release --bin repro -- check --inject-violation {}",
            kind.label()
        ));
        println!("oracle fired as it must on the known-bad history:");
        return Err(v.to_string().into());
    }
    let defaults = ExploreOptions::default();
    let explore_opts = ExploreOptions {
        seeds: flags.seeds.unwrap_or(defaults.seeds),
        jobs: opts.jobs,
        base_seed: flags.seed.unwrap_or(defaults.base_seed),
        clients: flags.clients.unwrap_or(defaults.clients),
        duration: flags
            .duration
            .map_or(defaults.duration, SimDuration::from_secs),
        warmup: flags.warmup.map_or(defaults.warmup, SimDuration::from_secs),
    };
    banner(&format!(
        "Simcheck: {} randomized cases ({} clients each) under all four oracles",
        explore_opts.seeds, explore_opts.clients
    ));
    let report = siteselect_check::explore::explore(&explore_opts);
    print!("{}", report.render());
    if report.passed() {
        Ok(())
    } else {
        Err("simcheck found an oracle violation".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_check::explore::matrix;

    /// `repro`'s own reading of a replay command: its target and the run
    /// its flags describe.
    fn replay(cmd: &str) -> Result<(String, CaseSpec), String> {
        let (_, args) = cmd.split_once(" -- ").ok_or("no ` -- ` in the command")?;
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        let target = parse_target(&args)?.to_owned();
        Ok((target, parse_flags(&args)?.case(SweepOptions::paper())))
    }

    #[test]
    fn replay_commands_rebuild_the_case_they_name() {
        for cell in matrix() {
            for (seed, clients, duration) in
                [(1, 8, 150), (0x51AC_0C43 + 17, 30, 151), (u64::MAX, 1, 75)]
            {
                let case = CaseSpec {
                    cell,
                    seed,
                    clients,
                    duration: SimDuration::from_secs(duration),
                    warmup: SimDuration::from_secs(30),
                };
                let cmd = case.replay_command();
                let (target, replayed) = replay(&cmd).unwrap_or_else(|e| panic!("{cmd}: {e}"));
                assert_eq!(target, "trace", "{cmd}");
                assert_eq!(replayed, case, "{cmd}");
                assert_eq!(replayed.config(), case.config(), "{cmd}");
            }
        }
    }

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn a_repeated_flag_is_refused() {
        for line in [
            "check --seeds 3 --seeds 0",
            "check --clients 4 --clients 0",
            "all --quick --quick",
        ] {
            let flag = line.split_whitespace().nth(1).unwrap_or_default();
            let err = parse_target(&argv(line)).expect_err(line);
            assert_eq!(err, format!("{flag} given more than once"), "{line}");
        }
    }

    /// Random command lines of known flags, targets and hostile values:
    /// both parsers answer each with `Ok` or `Err`, and never panic.
    #[test]
    fn random_command_lines_are_answered_without_a_panic() {
        const VALUES: [&str; 16] = [
            "", "0", "1", "-1", "0x", "0xzz", "0xffffffffffffffff", "18446744073709551616",
            "65536", "1e309", "NaN", "-0", "inf", "ls", "\u{0}", "héllo",
        ];
        let mut state = 0x5EED_u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let (mut ok, mut refused) = (0, 0);
        for _ in 0..20_000 {
            let args: Vec<String> = (0..next(9))
                .map(|_| match next(3) {
                    0 => FLAGS[next(FLAGS.len())].0,
                    1 => TARGETS.split_whitespace().nth(next(16)).unwrap_or("--bogus"),
                    _ => VALUES[next(VALUES.len())],
                })
                .map(String::from)
                .collect();
            match parse_target(&args).and_then(|_| parse_flags(&args)) {
                Ok(_) => ok += 1,
                Err(_) => refused += 1,
            }
        }
        assert!(ok > 0 && refused > 0, "{ok} accepted, {refused} refused");
    }
}
