//! The repository's benchmark: six paper-scale workloads, end-to-end
//! metrics measured with tracing off, per-layer metrics from a separate
//! traced run, and a span log. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//! benchmark [--seed N] [--seconds S]          every workload, both runs
//! benchmark --selfcheck [--seed N] [--seconds S]
//! ```

mod alloc;
mod layers;
mod manifest;
mod proc;
mod report;
mod selfcheck;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use manifest::{END_TO_END, PER_LAYER, RUN_SECONDS};
use report::{check_repeat, Totals, TracedPass};
use spans::Recorder;
use workloads::{execute, execute_all, plan, warmup, Extent, Kind};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Base seed when the caller gives none.
const DEFAULT_SEED: u64 = 0x5173_5e1e;

#[derive(Debug, PartialEq)]
struct RunArgs {
    /// `None` runs every workload in a child each.
    workload: Option<Kind>,
    seed: u64,
    seconds: u32,
    trace: bool,
    spans: Option<PathBuf>,
}

#[derive(Debug, PartialEq)]
enum Command {
    Run(RunArgs),
    SelfCheck { seed: u64, seconds: u32 },
    Help,
}

/// Strict: an unknown flag, a missing or garbled value is an error, never
/// a silent default.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut run = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        spans: None,
    };
    let (mut selfcheck, mut trace_given) = (false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let kind = Kind::ALL.into_iter().find(|k| k.name() == name);
                run.workload = Some(kind.ok_or_else(|| {
                    let known = Kind::ALL.map(Kind::name).join(", ");
                    format!("unknown workload {name:?}; known: {known}")
                })?);
            }
            "--seed" => {
                let v = value()?;
                run.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a whole number below 2^64"))?;
            }
            "--seconds" => {
                let v = value()?;
                run.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("--seconds {v:?} is not a whole number from 1 to 60"))?;
            }
            "--trace" => {
                run.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is neither 0 nor 1")),
                };
                trace_given = true;
            }
            "--spans" => run.spans = Some(PathBuf::from(value()?)),
            "--selfcheck" => selfcheck = true,
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if selfcheck {
        if run.workload.is_some() || trace_given || run.spans.is_some() {
            return Err("--selfcheck takes only --seed and --seconds".to_string());
        }
        return Ok(Command::SelfCheck {
            seed: run.seed,
            seconds: run.seconds,
        });
    }
    if run.spans.is_some() && !(run.trace && run.workload.is_some()) {
        return Err("--spans needs --workload and --trace 1".to_string());
    }
    Ok(Command::Run(run))
}

/// Prints what went wrong, and the result line; the exit code says
/// whether every hard invariant held.
fn finish(totals: &Totals, names: &[&'static str], metrics: &report::Metrics) -> ExitCode {
    let failures = &totals.failures;
    if !totals.violations.is_empty() {
        println!(
            "oracle violations: {} of {} verdicts (counted, not failed; see README)",
            totals.violations.len(),
            totals.verdicts
        );
        for v in totals.violations.iter().take(3) {
            println!("  {v}");
        }
    }
    for f in failures {
        println!("FAILED {f}");
    }
    let unfinished: Vec<_> = names.iter().filter(|n| !metrics[*n].is_finite()).collect();
    if !unfinished.is_empty() {
        println!("FAILED metrics without a value: {unfinished:?}");
    }
    let correct = failures.is_empty() && unfinished.is_empty();
    // A run of N operations that breaks an invariant has failed ones; how
    // many is at least one and at most those attempted.
    let failed = (failures.len() as u64).min(totals.attempted);
    println!(
        "{}",
        report::result_line(correct, totals.attempted.max(1), failed, names, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--trace 0`: set up several times, run the full plan with spans off,
/// report the end-to-end metrics.
fn run_end_to_end(kind: Kind, args: &RunArgs) -> ExitCode {
    let name = kind.name();
    let mut rec = Recorder::off();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let steps = plan(kind, args.seed, args.seconds, Extent::Full);
        let (step, offset) = warmup(kind, &steps);
        let warm = execute(&step, &[], &mut rec);
        setups.push(start.elapsed().as_secs_f64());
        last = Some((steps, warm, offset));
    }
    let (steps, warm, offset) = last.expect("at least one set-up");

    let done = execute_all(&steps, &mut rec);
    let mut totals = Totals::of(&steps, &done);
    totals.absorb(&warm);
    check_repeat(&warm, &done[0], offset, &mut totals.failures);

    let metrics = report::end_to_end(&totals, stats::median(&setups), proc::peak_rss_mb());
    println!(
        "workload {name}  seed {}  seconds {}  steps {}  cores {}",
        args.seed,
        args.seconds,
        steps.len(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    for def in &END_TO_END {
        println!(
            "{:<40} {:>14.4} {:<6} {} is better, may worsen by {:.0} %",
            def.name,
            metrics[def.name],
            def.unit,
            def.better.label(),
            def.bound * 100.0
        );
    }
    // The two timings as samples: every set-up, and every timed step as
    // it ran (the metric is the mean over units of the fastest of each).
    println!("{}", report::timing_row("setup_s samples", "s", &setups));
    let walls_ms: Vec<f64> = totals.step_walls.iter().map(|w| w * 1e3).collect();
    println!(
        "{}",
        report::timing_row("op_wall_ms, every step", "ms", &walls_ms)
    );
    println!(
        "measured {} transactions in {:.3} CPU s; twins {:.3} s traced over {:.3} s untraced",
        totals.measured, totals.cpu_s, totals.traced_cpu_s, totals.plain_cpu_s
    );
    let names: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
    finish(&totals, &names, &metrics)
}

/// `--trace 1`: half the plan's units, once each, spans off then on, the layer
/// drivers, and the per-layer metrics; the span log goes to `--spans`.
fn run_traced(kind: Kind, args: &RunArgs) -> ExitCode {
    let name = kind.name();
    let steps = plan(kind, args.seed, args.seconds, Extent::Traced);
    let (step, offset) = warmup(kind, &steps);
    let warm = execute(&step, &[], &mut Recorder::off());

    let plain = execute_all(&steps, &mut Recorder::off());
    let untraced = Totals::of(&steps, &plain);
    let mut rec = Recorder::on();
    let done = execute_all(&steps, &mut rec);
    let workload_spans = rec.spans().len();
    let mut spanned = Totals::of(&steps, &done);
    check_repeat(&warm, &done[0], offset, &mut spanned.failures);
    if untraced.measured != spanned.measured || untraced.in_time != spanned.in_time {
        let what = "recording spans changed what the runs measured";
        spanned.failures.push(what.to_string());
    }

    let readings = layers::run_all(&mut rec, args.seed);
    let pass = TracedPass {
        untraced: &untraced,
        spanned: &spanned,
        spans: &rec.spans()[..workload_spans],
        first_step_ce_steps: done[0].runs.iter().map(|r| r.ce_steps).sum(),
        first_traced: done.iter().find_map(|o| o.first_traced.as_ref()),
    };
    let metrics = report::per_layer(&readings, &pass);

    println!(
        "workload {name}  seed {}  seconds {}  steps {} (traced run: half the units, spans off then on)",
        args.seed,
        args.seconds,
        steps.len()
    );
    for def in &PER_LAYER {
        let spread = readings
            .iter()
            .find(|r| r.name == def.name)
            .map(|r| {
                format!(
                    "  q1 {:.4}  q3 {:.4}  n {}",
                    r.per_unit.q1, r.per_unit.q3, r.per_unit.n
                )
            })
            .unwrap_or_default();
        println!(
            "{:<40} {:>16.4} {:<6} {:<6}{spread}",
            def.name,
            metrics[def.name],
            def.unit,
            def.better.label()
        );
    }
    println!("span                          count     total ms      self ms");
    for (span, t) in spans::totals_by_name(rec.spans()) {
        println!(
            "{span:<28} {:>6} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    // Both passes and the warm-up count: their operations, and what
    // they broke.
    spanned.absorb(&warm);
    spanned.attempted += untraced.attempted;
    spanned.failures.extend(untraced.failures);
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, spans::jsonl(rec.spans(), name)) {
            let what = format!("cannot write the span log {}: {e}", path.display());
            spanned.failures.push(what);
        } else {
            println!("wrote {} spans to {}", rec.spans().len(), path.display());
        }
    }
    let names: Vec<_> = PER_LAYER.iter().map(|m| m.name).collect();
    finish(&spanned, &names, &metrics)
}

/// No `--workload`: every workload in a process of its own (so that the
/// peak resident set is per workload), untraced then traced.
fn run_every_workload(args: &RunArgs) -> ExitCode {
    let mut all_ok = true;
    for name in Kind::ALL.map(Kind::name) {
        for trace in ["0", "1"] {
            println!("==> {name} --trace {trace}");
            let ok = selfcheck::child(name, args.seed, args.seconds, trace)
                .status()
                .is_ok_and(|s| s.success());
            if !ok {
                println!("==> {name} --trace {trace} FAILED");
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

const USAGE: &str = "\
benchmark --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
benchmark [--seed N] [--seconds S]        every workload, --trace 0 then --trace 1
benchmark --selfcheck [--seed N] [--seconds S]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::Help) => {
            let known = Kind::ALL.map(Kind::name).join(", ");
            println!("{USAGE}\nworkloads: {known} (BENCHMARK.json says why each exists)");
            ExitCode::SUCCESS
        }
        Ok(Command::SelfCheck { seed, seconds }) => selfcheck::run(seed, seconds),
        Ok(Command::Run(run)) => match run.workload {
            None => run_every_workload(&run),
            Some(kind) if run.trace => run_traced(kind, &run),
            Some(kind) => run_end_to_end(kind, &run),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(&args.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let got = parse(&[
            "--workload",
            "ls_update5",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]);
        assert_eq!(
            got,
            Ok(Command::Run(RunArgs {
                workload: Some(Kind::LsUpdate5),
                seed: 42,
                seconds: 10,
                trace: true,
                spans: None,
            }))
        );
        assert_eq!(
            parse(&["--selfcheck", "--seed", "3"]),
            Ok(Command::SelfCheck {
                seed: 3,
                seconds: RUN_SECONDS,
            })
        );
        assert!(matches!(
            parse(&[]),
            Ok(Command::Run(RunArgs { workload: None, .. }))
        ));
    }

    #[test]
    fn unknown_workloads_and_garbled_values_are_rejected() {
        let err = parse(&["--workload", "tpcc"]).unwrap_err();
        assert!(
            err.contains("unknown workload") && err.contains("ce_paper"),
            "{err}"
        );
        for bad in [
            &["--seed", "12x"][..],
            &["--seed", "-1"],
            &["--seed"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--seconds", "ten"],
            &["--trace", "2"],
            &["--trace", "yes"],
            &["--workload"],
            &["--frobnicate"],
            &["ce_paper"],
            &["--selfcheck", "--reps", "3"],
            &["--selfcheck", "--workload", "ce_paper"],
            &["--spans", "x.jsonl"],
            &["--workload", "ce_paper", "--spans", "x.jsonl"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }
}
