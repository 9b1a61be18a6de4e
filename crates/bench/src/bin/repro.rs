//! Regenerates every table and figure of Kanitkar & Delis (ICDCS 1999).
//!
//! ```text
//! cargo run -p siteselect-bench --release --bin repro -- all [--quick]
//! cargo run -p siteselect-bench --release --bin repro -- figure3
//! ```
//!
//! Targets: `table1`, `figure1`, `figure2`, `figure3`, `figure4`,
//! `figure5`, `table2`, `table3`, `table4`, `ablations`, `faults`,
//! `trace`, `blame`, `check`, `all`. One target per invocation; a flag
//! outside the `FLAGS` table below, a second target, or a value flag
//! without its value is a usage error, not something to skip over.
//! `--help` / `-h` prints the targets and flags and exits 0.
//! `--quick` shortens the simulated runs (coarser numbers, same shapes).
//! `--clients N` overrides the Table 4 (or `faults` / `trace` / `check`)
//! cluster size.
//! `--jobs N` sets the sweep worker-thread count (absent = one per core;
//! must be at least 1 when given); results are merged in cell order, so
//! output is byte-identical at every job count.
//! `faults` is not part of `all`: it sweeps the fault-injection subsystem
//! (crash/loss/slow-disk chaos) rather than a paper figure, and follows up
//! with the crash-restart table contrasting write-ahead-log recovery
//! against permanently dark sites.
//! `trace` runs one experiment with the event-tracing pipeline attached,
//! judges the captured stream with the `siteselect-check` oracles, and
//! writes `trace.jsonl` (one event per line) plus `trace.json` (Chrome
//! `trace_event` format, loadable in chrome://tracing or Perfetto) to
//! `--out DIR` (default `target/trace`). `--system ce|cs|ls`,
//! `--update F`, `--chaos F` (with `--restart` for the server
//! crash-restart profile), `--duration SECS`, `--warmup SECS` and
//! `--seed S` select the run — the knobs a simcheck replay command passes.
//! The files are byte-identical across runs at the same seed and options.
//! `blame` is the deadline blame analyzer: one traced run per system cell
//! (all three systems, or just `--system`), each reduced to a causal blame
//! report — every transaction's end-to-end latency attributed microsecond-
//! by-microsecond to the span on its critical path (admission, decision,
//! network, lock wait, collection window, disk, commit, retry backoff,
//! crash replay, or residual execution) — plus the `--top K` worst missed
//! deadlines with their annotated critical paths. `--out FILE` (default
//! `target/blame.json`) receives the machine-readable report. Cells fan
//! out over `--jobs` threads and merge in cell order, so stdout and the
//! JSON file are byte-identical at every job count and across runs at the
//! same seed.
//! `check` is the simcheck explorer: `--seeds N` randomized cases fanned
//! across CE/CS/LS × update-rate × fault-profile cells (including server
//! crash-restart cells), every run judged by the serializability,
//! coherence, deadline-accounting and recovery oracles; a failing case is
//! shrunk to a minimal reproducer. `--inject-violation
//! serializability|coherence|deadline|recovery` instead feeds a known-bad
//! synthetic history to the matching oracle and exits non-zero when (and
//! only when) it fires — the self-test that proves the oracles are alive.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::process::ExitCode;

use siteselect_bench::repro_options;
use siteselect_check::explore::{parse_system, ExploreOptions};
use siteselect_check::synthetic::InjectKind;
use siteselect_core::experiments::{
    cache_table, deadline_figure, fault_table, message_table, par_map, response_table,
    restart_table, SweepOptions, FAULT_INTENSITIES, FIGURE_CLIENTS, RESTART_INTENSITIES,
    TABLE_CLIENTS,
};
use siteselect_core::{run_experiment, run_experiment_traced};
use siteselect_locks::protocol_costs;
use siteselect_obs::{BlameReport, MetricsRegistry, MetricsSnapshot};
use siteselect_types::{ConfigError, ExperimentConfig, FaultConfig, SimDuration, SystemKind};

/// Every flag `repro` knows: its name, the placeholder of the value that
/// follows it (empty for a switch) and what it does. The one table behind
/// telling targets from flag values, rejecting the rest, and `--help`.
const FLAGS: [(&str, &str, &str); 14] = [
    ("--quick", "", "shorter simulated runs (coarser numbers, same shapes)"),
    ("--restart", "", "trace/blame: add the server crash-restart profile (needs --chaos)"),
    ("--clients", "N", "cluster size of table4, faults, trace, blame and check"),
    ("--seed", "S", "seed of a trace or blame run; base seed of check"),
    ("--out", "PATH", "trace: output directory; blame: JSON report file"),
    ("--jobs", "N", "sweep worker threads (absent = one per core); never changes output"),
    ("--system", "ce|cs|ls", "trace/blame: the system to run"),
    ("--update", "F", "trace/blame: per-access update fraction in [0, 1]"),
    ("--chaos", "F", "trace/blame: fault-injection intensity, 0 = off"),
    ("--duration", "SECS", "trace/blame/check: simulated run length"),
    ("--warmup", "SECS", "trace/blame/check: warm-up excluded from statistics"),
    ("--seeds", "N", "check: number of randomized cases"),
    ("--top", "K", "blame: worst missed deadlines to print"),
    (
        "--inject-violation",
        "ORACLE",
        "check: feed serializability|coherence|deadline|recovery a known-bad history",
    ),
];

/// Every target, as the usage text and the unknown-target error list them.
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
/// (`all` when none is named). An unknown flag, a value flag without its
/// value, or a second target is an error that names the offender.
fn parse_target(args: &[String]) -> Result<&str, String> {
    let mut target = None;
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
        if !value.is_empty() && rest.next().is_none_or(|value| value.starts_with("--")) {
            return Err(format!("{arg} needs a value"));
        }
    }
    Ok(target.unwrap_or("all"))
}

/// Returns the value following `flag`, if present ([`parse_target`] has
/// already established that a present value flag has one).
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

/// Flags the oracle-judged runs (`trace`, `check`) accept on top of the
/// shared `--clients` / `--seed` / `--jobs` ones.
struct CheckFlags {
    system: Option<SystemKind>,
    update: Option<f64>,
    chaos: Option<f64>,
    restart: bool,
    duration: Option<u64>,
    warmup: Option<u64>,
    seeds: Option<u64>,
    inject: Option<InjectKind>,
}

fn parse_check_flags(args: &[String]) -> Result<CheckFlags, String> {
    let system = match flag_value(args, "--system") {
        None => None,
        Some(raw) => Some(
            parse_system(raw).ok_or_else(|| format!("invalid value for --system: {raw:?} (expected ce, cs or ls)"))?,
        ),
    };
    let update = parsed_flag::<f64>(args, "--update")?;
    if let Some(u) = update {
        if !(0.0..=1.0).contains(&u) {
            return Err(format!("--update must be a fraction in [0, 1], got {u}"));
        }
    }
    let chaos = parsed_flag::<f64>(args, "--chaos")?;
    if let Some(c) = chaos {
        if !(0.0..=16.0).contains(&c) {
            return Err(format!("--chaos must be a non-negative intensity, got {c}"));
        }
    }
    let restart = args.iter().any(|a| a == "--restart");
    if restart && chaos.unwrap_or(0.0) <= 0.0 {
        return Err(
            "--restart needs --chaos above 0 (the server crash-restart profile scales with \
             chaos intensity)"
                .into(),
        );
    }
    let duration = parsed_flag::<u64>(args, "--duration")?;
    if duration == Some(0) {
        return Err("--duration must be at least 1 second".into());
    }
    let warmup = parsed_flag::<u64>(args, "--warmup")?;
    if let (Some(d), Some(w)) = (duration, warmup) {
        if w >= d {
            return Err(format!("--warmup ({w}s) must be shorter than --duration ({d}s)"));
        }
    }
    let seeds = parsed_flag::<u64>(args, "--seeds")?;
    if seeds == Some(0) {
        return Err("--seeds must be at least 1".into());
    }
    let inject = match flag_value(args, "--inject-violation") {
        None => None,
        Some(raw) => Some(InjectKind::parse(raw).ok_or_else(|| {
            format!("invalid value for --inject-violation: {raw:?} (expected serializability, coherence, deadline or recovery)")
        })?),
    };
    Ok(CheckFlags {
        system,
        update,
        chaos,
        restart,
        duration,
        warmup,
        seeds,
        inject,
    })
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("repro: {message}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let target = match parse_target(&args) {
        Ok(v) => v,
        Err(e) => return usage_error(&e),
    };
    let quick = args.iter().any(|a| a == "--quick");
    let clients_override = match parsed_flag::<u16>(&args, "--clients") {
        Ok(v) => v,
        Err(e) => return usage_error(&e),
    };
    if clients_override == Some(0) {
        return usage_error("--clients must be at least 1");
    }
    let seed_override = match parsed_flag::<u64>(&args, "--seed") {
        Ok(v) => v,
        Err(e) => return usage_error(&e),
    };
    let jobs = match parsed_flag::<usize>(&args, "--jobs") {
        Ok(v) => v,
        Err(e) => return usage_error(&e),
    };
    if jobs == Some(0) {
        return usage_error("--jobs must be at least 1; omit the flag to use one worker per core");
    }
    let check_flags = match parse_check_flags(&args) {
        Ok(v) => v,
        Err(e) => return usage_error(&e),
    };
    let top = match parsed_flag::<usize>(&args, "--top") {
        Ok(v) => v,
        Err(e) => return usage_error(&e),
    };
    if top == Some(0) {
        return usage_error("--top must be at least 1");
    }
    let out_dir = flag_value(&args, "--out").unwrap_or("target/trace");
    let mut opts = repro_options(quick);
    opts.jobs = jobs.unwrap_or(0);

    let result = match target {
        "table1" => table1(),
        "figure1" => figure1(),
        "figure2" => figure2(),
        "figure3" => figure(0.01, opts),
        "figure4" => figure(0.05, opts),
        "figure5" => figure(0.20, opts),
        "table2" => table2(opts),
        "table3" => table3(opts),
        "table4" => table4(opts, clients_override.unwrap_or(100)),
        "ablations" => ablations(opts),
        "faults" => faults(opts, clients_override.unwrap_or(60)),
        "trace" => trace(
            opts,
            clients_override.unwrap_or(20),
            seed_override,
            out_dir,
            &check_flags,
        ),
        "blame" => blame(
            opts,
            clients_override.unwrap_or(20),
            seed_override,
            flag_value(&args, "--out").unwrap_or("target/blame.json"),
            jobs.unwrap_or(0),
            top.unwrap_or(5),
            &check_flags,
        ),
        "check" => check(opts, clients_override, seed_override, &check_flags),
        "all" => all(opts, clients_override.unwrap_or(100)),
        other => {
            eprintln!("unknown target: {other}");
            eprintln!("targets: {TARGETS}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro failed: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyError = Box<dyn std::error::Error>;

fn banner(title: &str) {
    println!("\n=== {title} ===\n");
}

// Infallible today, but every arm of the command dispatch returns the
// same `Result<(), AnyError>` shape.
#[allow(clippy::unnecessary_wraps)]
fn table1() -> Result<(), AnyError> {
    banner("Table 1: experimental parameters (active preset)");
    let cfg = ExperimentConfig::paper(SystemKind::ClientServer, 100, 0.05);
    println!("Database size                     {} objects", cfg.database.num_objects);
    println!("Object / page size                {} bytes", cfg.database.object_size_bytes);
    let ce = ExperimentConfig::paper(SystemKind::Centralized, 100, 0.05);
    println!("Centralized server memory         {} objects", ce.server.buffer_objects);
    println!("CS server memory                  {} objects", cfg.server.buffer_objects);
    println!("Client disk cache                 {} objects", cfg.client.disk_cache_objects);
    println!("Client memory cache               {} objects", cfg.client.memory_cache_objects);
    println!(
        "Mean txn inter-arrival (Poisson)  {}",
        cfg.workload.mean_interarrival
    );
    println!("Mean txn length (exponential)     {}", cfg.workload.mean_length);
    println!("Mean txn deadline (exponential)   {:?}", cfg.workload.deadline);
    println!("Updates                           1%, 5%, 20% (per access)");
    println!(
        "Mean objects per transaction      {}",
        cfg.workload.mean_objects_per_txn
    );
    println!(
        "CPU calibration                   txn_cpu_fraction = {} (see DESIGN.md)",
        cfg.cpu.txn_cpu_fraction
    );
    Ok(())
}

// Infallible today, but every arm of the command dispatch returns the
// same `Result<(), AnyError>` shape.
#[allow(clippy::unnecessary_wraps)]
fn figure1() -> Result<(), AnyError> {
    banner("Figure 1: the 2PL (callback caching) protocol");
    let trace = protocol_costs::figure1_trace();
    print!("{}", protocol_costs::render_trace(&trace));
    println!("total: {} messages", trace.len());
    Ok(())
}

// Infallible today, but every arm of the command dispatch returns the
// same `Result<(), AnyError>` shape.
#[allow(clippy::unnecessary_wraps)]
fn figure2() -> Result<(), AnyError> {
    banner("Figure 2: the lock grouping protocol");
    let trace = protocol_costs::figure2_trace();
    print!("{}", protocol_costs::render_trace(&trace));
    println!("total: {} messages", trace.len());
    Ok(())
}

fn figure(update_fraction: f64, opts: SweepOptions) -> Result<(), AnyError> {
    let fig_no = match update_fraction {
        x if x < 0.02 => 3,
        x if x < 0.10 => 4,
        _ => 5,
    };
    banner(&format!(
        "Figure {fig_no}: transactions completed within deadline ({}% updates)",
        update_fraction * 100.0
    ));
    let f = deadline_figure(update_fraction, &FIGURE_CLIENTS, opts)?;
    print!("{}", f.render());
    Ok(())
}

fn table2(opts: SweepOptions) -> Result<(), AnyError> {
    banner("Table 2: average client cache hit rates");
    let t = cache_table(&TABLE_CLIENTS, opts)?;
    print!("{}", t.render());
    Ok(())
}

fn table3(opts: SweepOptions) -> Result<(), AnyError> {
    banner("Table 3: average object response times (1% updates)");
    let t = response_table(&TABLE_CLIENTS, opts)?;
    print!("{}", t.render());
    Ok(())
}

fn table4(opts: SweepOptions, clients: u16) -> Result<(), AnyError> {
    banner(&format!(
        "Table 4: messages passed ({clients} clients, 1% updates)"
    ));
    let t = message_table(clients, opts)?;
    print!("{}", t.render());
    Ok(())
}

/// Ablations of the design choices DESIGN.md calls out: each LS feature
/// switched off individually at the most contended point (100 clients, 20%
/// updates).
fn ablations(opts: SweepOptions) -> Result<(), AnyError> {
    banner("Ablations: LS-CS-RTDBS feature knockouts (100 clients, 20% updates)");
    let base = |label: &str, f: &dyn Fn(&mut ExperimentConfig)| -> Result<(), AnyError> {
        let mut cfg = ExperimentConfig::paper(SystemKind::LoadSharing, 100, 0.20);
        cfg.runtime.duration = opts.duration;
        cfg.runtime.warmup = opts.warmup;
        cfg.runtime.seed = opts.seed;
        f(&mut cfg);
        let m = run_experiment(&cfg)?;
        println!(
            "{label:<34} success {:>6.2}%  shipped {:>6}  decomposed {:>5}  forwards {:>6}",
            m.success_percent(),
            m.load_sharing.shipped,
            m.load_sharing.decomposed,
            m.load_sharing.forward_satisfied
        );
        Ok(())
    };
    base("full LS", &|_| {})?;
    base("no H1 (admission)", &|c| c.load_sharing.h1_enabled = false)?;
    base("no H2 (site selection)", &|c| c.load_sharing.h2_enabled = false)?;
    base("no decomposition", &|c| {
        c.load_sharing.decomposition_enabled = false;
    })?;
    base("no forward lists", &|c| {
        c.load_sharing.forward_lists_enabled = false;
    })?;
    base("no request scheduling", &|c| {
        c.load_sharing.request_scheduling_enabled = false;
    })?;
    base("no directory server", &|c| {
        c.load_sharing.directory_enabled = false;
    })?;
    base("switched LAN", &|c| {
        c.network.kind = siteselect_types::LanKind::Switched;
    })?;
    base("collection window 10 ms", &|c| {
        c.load_sharing.collection_window = siteselect_types::SimDuration::from_millis(10);
    })?;
    base("collection window 500 ms", &|c| {
        c.load_sharing.collection_window = siteselect_types::SimDuration::from_millis(500);
    })?;
    Ok(())
}

/// Graceful-degradation sweep of the fault-injection subsystem: CS vs LS
/// deadline success as `FaultConfig::chaos` intensity rises, followed by
/// the crash-restart cells contrasting write-ahead-log recovery against
/// permanently dark sites. Kept out of `all` so the paper reproduction
/// stays byte-stable.
fn faults(opts: SweepOptions, clients: u16) -> Result<(), AnyError> {
    banner(&format!(
        "Faults: deadline success under chaos ({clients} clients, 20% updates)"
    ));
    let t = fault_table(clients, &FAULT_INTENSITIES, opts)?;
    print!("{}", t.render());
    banner(&format!(
        "Faults: crash-restart recovery vs cliff ({clients} clients, 20% updates)"
    ));
    let r = restart_table(clients, &RESTART_INTENSITIES, opts)?;
    print!("{}", r.render());
    Ok(())
}

/// One traced run: emits the full event stream as JSONL and Chrome
/// `trace_event` JSON, prints the streaming observability report, and
/// judges the captured stream with the `siteselect-check` oracles — so the
/// replay command simcheck prints reproduces the violation it found.
/// Deterministic: same seed and options give byte-identical files.
fn trace(
    opts: SweepOptions,
    clients: u16,
    seed: Option<u64>,
    out_dir: &str,
    flags: &CheckFlags,
) -> Result<(), AnyError> {
    let seed = seed.unwrap_or(opts.seed);
    let system = flags.system.unwrap_or(SystemKind::LoadSharing);
    let update = flags.update.unwrap_or(0.20);
    let chaos = flags.chaos.unwrap_or(0.0);
    let restart = if flags.restart { " restart" } else { "" };
    banner(&format!(
        "Trace: {system} lifecycle trace ({clients} clients, {}% updates, chaos {chaos}{restart}, seed {seed})",
        update * 100.0
    ));
    let mut cfg = ExperimentConfig::paper(system, clients, update);
    cfg.runtime.duration = flags
        .duration
        .map_or(opts.duration, SimDuration::from_secs);
    cfg.runtime.warmup = flags.warmup.map_or(opts.warmup, SimDuration::from_secs);
    cfg.runtime.seed = seed;
    if chaos > 0.0 {
        cfg.faults = if flags.restart {
            FaultConfig::chaos_restart(chaos)
        } else {
            FaultConfig::chaos(chaos)
        };
    }
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
    println!("wrote {jsonl_path} ({} records) and {chrome_path}", trace.records.len());
    let warmup_end = siteselect_types::SimTime::ZERO + cfg.runtime.warmup;
    match siteselect_check::check_trace(&trace, &metrics, warmup_end) {
        Ok(()) => {
            println!(
                "oracles: serializability, coherence, deadline accounting and recovery all passed"
            );
            Ok(())
        }
        Err(v) => Err(v.to_string().into()),
    }
}

/// One blame cell: a traced run reduced to its blame report plus the
/// numbers the summary line needs. Self-contained, so cells can fan out
/// over worker threads and still merge deterministically by index.
struct BlameCell {
    report: BlameReport,
    metrics: MetricsSnapshot,
    in_time: u64,
    measured: u64,
}

fn blame_cell(cfg: &ExperimentConfig, top: usize) -> Result<BlameCell, ConfigError> {
    let registry = MetricsRegistry::enabled();
    let (metrics, trace) = run_experiment_traced(cfg, siteselect_check::TRACE_CAPACITY)?;
    let report = BlameReport::extract(&trace, top, &registry);
    Ok(BlameCell {
        report,
        metrics: registry.snapshot().unwrap_or_default(),
        in_time: metrics.in_time,
        measured: metrics.measured,
    })
}

/// Short cell label for the machine-readable report.
fn system_slug(system: SystemKind) -> &'static str {
    match system {
        SystemKind::Centralized => "ce",
        SystemKind::ClientServer => "cs",
        SystemKind::LoadSharing => "ls",
    }
}

/// The deadline blame analyzer (`repro blame`): one traced run per system
/// cell, each reduced to a causal blame report — every transaction's
/// latency attributed microsecond-by-microsecond to the cause on its
/// critical path — plus the top-K worst missed deadlines with annotated
/// paths. Cells fan out over `jobs` scoped threads and merge in cell
/// order, so stdout and the `--out` JSON are byte-identical at every job
/// count and across runs at the same seed.
fn blame(
    opts: SweepOptions,
    clients: u16,
    seed: Option<u64>,
    out: &str,
    jobs: usize,
    top: usize,
    flags: &CheckFlags,
) -> Result<(), AnyError> {
    use std::fmt::Write as _;
    let seed = seed.unwrap_or(opts.seed);
    let update = flags.update.unwrap_or(0.20);
    let chaos = flags.chaos.unwrap_or(0.0);
    let restart = if flags.restart { " restart" } else { "" };
    let systems: Vec<SystemKind> = flags
        .system
        .map_or_else(|| SystemKind::ALL.to_vec(), |s| vec![s]);
    banner(&format!(
        "Blame: where the deadline went ({clients} clients, {}% updates, chaos {chaos}{restart}, seed {seed})",
        update * 100.0
    ));
    let cfgs: Vec<ExperimentConfig> = systems
        .iter()
        .map(|&system| {
            let mut cfg = ExperimentConfig::paper(system, clients, update);
            cfg.runtime.duration = flags
                .duration
                .map_or(opts.duration, SimDuration::from_secs);
            cfg.runtime.warmup = flags.warmup.map_or(opts.warmup, SimDuration::from_secs);
            cfg.runtime.seed = seed;
            if chaos > 0.0 {
                cfg.faults = if flags.restart {
                    FaultConfig::chaos_restart(chaos)
                } else {
                    FaultConfig::chaos(chaos)
                };
            }
            cfg
        })
        .collect();
    let cells = par_map(jobs, &cfgs, |cfg| u64::from(cfg.clients), |cfg| {
        blame_cell(cfg, top)
    });
    let mut json = String::with_capacity(1 << 14);
    let _ = write!(
        json,
        r#"{{"seed":{seed},"clients":{clients},"update":{update},"chaos":{chaos},"restart":{},"cells":["#,
        flags.restart
    );
    let mut merged = MetricsSnapshot::default();
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
        let _ = write!(json, r#"{{"system":"{}","report":"#, system_slug(*system));
        json.push_str(cell.report.to_json().trim_end());
        json.push('}');
        merged.merge(&cell.metrics);
    }
    json.push_str("]}\n");
    if let Some(dir) = std::path::Path::new(out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(out, &json)?;
    println!("pipeline counters:");
    print!("{}", merged.render());
    println!("\nwrote {out}");
    Ok(())
}

/// The simcheck explorer (`repro check`): randomized schedule exploration
/// across CE/CS/LS × update-rate × fault-profile cells (including server
/// crash-restart cells), every run judged by all four oracles, failures
/// shrunk to a minimal reproducer. With `--inject-violation`, instead
/// feeds a known-bad synthetic history to the matching oracle and fails
/// when it fires (proving it can).
fn check(
    opts: SweepOptions,
    clients: Option<u16>,
    base_seed: Option<u64>,
    flags: &CheckFlags,
) -> Result<(), AnyError> {
    if let Some(kind) = flags.inject {
        banner(&format!("Simcheck self-test: injected {} violation", kind.label()));
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
        base_seed: base_seed.unwrap_or(defaults.base_seed),
        clients: clients.unwrap_or(defaults.clients),
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

fn all(opts: SweepOptions, table4_clients: u16) -> Result<(), AnyError> {
    table1()?;
    figure1()?;
    figure2()?;
    figure(0.01, opts)?;
    figure(0.05, opts)?;
    figure(0.20, opts)?;
    table2(opts)?;
    table3(opts)?;
    table4(opts, table4_clients)?;
    ablations(opts)?;
    Ok(())
}
