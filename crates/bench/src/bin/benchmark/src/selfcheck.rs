//! `--selfcheck`: the acceptance procedure, run by the benchmark on
//! itself. Two sets of runs of the same build, each workload ten times
//! per set with a different seed each time, workloads interleaved; per
//! end-to-end metric the two medians, their quartiles, the spread
//! (quartile distance over median) and by how much the second median is
//! worse than the first. A spread above the metric's bound makes the
//! metric `unresolved`; a second median worse than the first by more than
//! the bound is a disagreement. Both sets use the same seeds, so whatever
//! the program counts must come out identical.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::manifest::END_TO_END;
use crate::report::{parse_result_line, ResultLine};
use crate::stats::quartiles;
use crate::workloads::Kind;

/// Runs of a workload per set, as the acceptance procedure makes.
const REPS: u64 = 10;
/// Distance between the seeds of two runs: wider than the widest range of
/// engine seeds a plan draws from its `--seed` (a thousand and some, on
/// `check_seeds`), so that no two runs of a set share an engine run.
const SEED_STRIDE: u64 = 10_007;

/// One run of this executable on one workload, in a process of its own.
pub fn child(workload: &str, seed: u64, seconds: u32, trace: &str) -> Command {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &seconds.to_string(), "--trace", trace]);
    cmd
}

fn run_child(workload: &str, seed: u64, seconds: u32, trace: &str) -> Result<ResultLine, String> {
    let what = format!("{workload} --seed {seed} --trace {trace}");
    let out = child(workload, seed, seconds, trace)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{what}: cannot start: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let result = text
        .lines()
        .last()
        .and_then(parse_result_line)
        .ok_or_else(|| format!("{what}: no result line"))?;
    if !out.status.success() || !result.correct {
        let said: Vec<_> = text.lines().filter(|l| l.starts_with("FAILED")).collect();
        return Err(format!("{what}: {} {}", out.status, said.join("; ")));
    }
    if result.failed > 0 {
        return Err(format!(
            "{what}: {} of {} operations failed",
            result.failed, result.attempted
        ));
    }
    Ok(result)
}

/// `[set][workload][metric]` → one value per repetition, in seed order.
type Samples = [Vec<BTreeMap<String, Vec<f64>>>; 2];

pub fn run(seed: u64, seconds: u32) -> ExitCode {
    let workloads = Kind::ALL.map(Kind::name);
    let mut problems: Vec<String> = Vec::new();
    let mut samples: Samples = [
        vec![BTreeMap::new(); workloads.len()],
        vec![BTreeMap::new(); workloads.len()],
    ];
    let mut counts: Samples = samples.clone();
    for set in 0..2 {
        for rep in 0..REPS {
            let seed = seed.wrapping_add(rep * SEED_STRIDE);
            for (w, workload) in workloads.iter().enumerate() {
                eprintln!(
                    "selfcheck: set {} rep {}/{REPS} {workload}",
                    set + 1,
                    rep + 1
                );
                match run_child(workload, seed, seconds, "0") {
                    Ok(result) => {
                        for (name, value, _) in result.metrics {
                            samples[set][w].entry(name).or_default().push(value);
                        }
                    }
                    Err(e) => problems.push(e),
                }
            }
        }
        for (w, workload) in workloads.iter().enumerate() {
            eprintln!("selfcheck: set {} traced {workload}", set + 1);
            match run_child(workload, seed, seconds, "1") {
                Ok(result) => {
                    for (name, value, _) in result.metrics {
                        counts[set][w].entry(name).or_default().push(value);
                    }
                }
                Err(e) => problems.push(e),
            }
        }
    }

    for (w, workload) in workloads.iter().enumerate() {
        println!("\n{workload}");
        println!(
            "  {:<22} {:>13} {:>8} {:>13} {:>8} {:>8} {:>6}  verdict",
            "metric", "median 1", "spread", "median 2", "spread", "worse", "bound"
        );
        for def in &END_TO_END {
            let (Some(a), Some(b)) = (samples[0][w].get(def.name), samples[1][w].get(def.name))
            else {
                problems.push(format!("{workload}: {} was never reported", def.name));
                continue;
            };
            let (qa, qb) = (quartiles(a), quartiles(b));
            let worse = def.better.worsening(qa.median, qb.median);
            let spread = qa.spread().max(qb.spread());
            let verdict = if worse > def.bound {
                problems.push(format!(
                    "{workload} {}: second median {:.2} % worse than the first (bound {:.0} %)",
                    def.name,
                    worse * 100.0,
                    def.bound * 100.0
                ));
                "DISAGREE"
            } else if def.name != "setup_s" && spread > def.bound {
                problems.push(format!(
                    "{workload} {}: spread {:.2} % above the bound {:.0} %",
                    def.name,
                    spread * 100.0,
                    def.bound * 100.0
                ));
                "unresolved"
            } else if def.name != "setup_s" && spread > def.bound / 3.0 {
                "ok (spread above a third of the bound)"
            } else {
                "ok"
            };
            println!(
                "  {:<22} {:>13.5} {:>7.2}% {:>13.5} {:>7.2}% {:>7.2}% {:>5.0}%  {verdict}",
                def.name,
                qa.median,
                qa.spread() * 100.0,
                qb.median,
                qb.spread() * 100.0,
                worse * 100.0,
                def.bound * 100.0
            );
            println!(
                "  {:<22} q1 {:.5} q3 {:.5} n {}   |   q1 {:.5} q3 {:.5} n {}",
                "", qa.q1, qa.q3, qa.n, qb.q1, qb.q3, qb.n
            );
        }
        // The same seeds on the same build: what the program counts must
        // repeat exactly, run for run.
        let exact = "deadline_met_pct";
        if samples[0][w].get(exact) != samples[1][w].get(exact) {
            problems.push(format!(
                "{workload} {exact}: not identical on identical seeds"
            ));
        }
        let exact_names = |m: &BTreeMap<String, Vec<f64>>| -> Vec<(String, Vec<f64>)> {
            m.iter()
                .filter(|(n, _)| n.starts_with("count.") || n.starts_with("ratio."))
                .map(|(n, v)| (n.clone(), v.clone()))
                .collect()
        };
        let (ca, cb) = (exact_names(&counts[0][w]), exact_names(&counts[1][w]));
        if ca == cb && !ca.is_empty() {
            println!("  {} exact counts identical in both sets", ca.len());
        } else {
            problems.push(format!("{workload}: exact counts differ between the sets"));
        }
    }

    if problems.is_empty() {
        println!("\nselfcheck passed: both sets agree on every end-to-end metric");
        ExitCode::SUCCESS
    } else {
        println!("\nselfcheck FAILED:");
        for p in &problems {
            println!("  {p}");
        }
        ExitCode::FAILURE
    }
}
