//! The six workloads: what each one runs, in which order, and the
//! invariants every run must hold.
//!
//! A workload is a fixed list of [`Step`]s derived from `--seed` and
//! `--seconds` alone (fixed work, closed loop: the next step starts when
//! the previous one returns), so two commits execute the same simulated
//! work and their exact metrics compare exactly; a faster engine simply
//! finishes sooner. All engine work happens on the calling thread except
//! inside [`Op::Sweep`], which hands `jobs` threads to `run_many`.

use siteselect_check::explore::{matrix, CaseSpec, Cell};
use siteselect_check::{check_trace, TRACE_CAPACITY};
use siteselect_core::experiments::{deadline_figure, DeadlineFigure, SweepOptions, FIGURE_CLIENTS};
use siteselect_core::{run_experiment_traced, CentralizedSim, ClientServerSim, RunMetrics};
use siteselect_obs::{export, BlameReport, EventSink, MetricsRegistry, ObsReport, TraceData};
use siteselect_types::{ExperimentConfig, FaultConfig, SimDuration, SimTime, SystemKind};

use std::collections::BTreeMap;

use crate::alloc;
use crate::proc::{process_cpu_seconds, Stopwatch};
use crate::spans::Recorder;

/// Ring capacity of the traced twins on the clean mixes: only the
/// streaming `ObsReport` is read, so drops are allowed and memory stays
/// small (an LS run emits more records than `TRACE_CAPACITY` holds).
const TWIN_RING: usize = 1 << 16;

/// Update share of Figure 4.
const FIG4_UPDATES: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CePaper,
    CsUpdate20,
    LsUpdate5,
    CsRestartTraced,
    Fig4Sweep,
    CheckSeeds,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::CePaper,
        Kind::CsUpdate20,
        Kind::LsUpdate5,
        Kind::CsRestartTraced,
        Kind::Fig4Sweep,
        Kind::CheckSeeds,
    ];

    /// The name `--workload` takes and `BENCHMARK.json` declares; why each
    /// workload exists is told there and in `README.md`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CePaper => "ce_paper",
            Kind::CsUpdate20 => "cs_update20",
            Kind::LsUpdate5 => "ls_update5",
            Kind::CsRestartTraced => "cs_restart_traced",
            Kind::Fig4Sweep => "fig4_sweep",
            Kind::CheckSeeds => "check_seeds",
        }
    }
}

#[derive(Debug, Clone)]
pub enum Op {
    /// Untraced engine runs, one after the other.
    Plain(Vec<ExperimentConfig>),
    /// The same runs with an event sink attached; `RunMetrics` must equal
    /// those of step `partner`, which ran them untraced. With `judge`, the
    /// first run keeps its full trace and the four oracles give a verdict
    /// on it when nothing was dropped.
    Traced {
        cfgs: Vec<ExperimentConfig>,
        partner: usize,
        judge: bool,
    },
    /// One seed of the restart mix: untraced run, then the timed pipeline
    /// of traced run, blame extraction and JSONL export, then (untimed) the
    /// oracles' verdict on the trace.
    Restart(Box<ExperimentConfig>),
    /// One regeneration of Figure 4 at `jobs` workers; the render must be
    /// byte-equal to the reference step's.
    Sweep {
        seed: u64,
        jobs: usize,
        reference: usize,
    },
    /// One round of the simcheck matrix, every case through the oracles.
    CheckRound(Vec<CaseSpec>),
}

#[derive(Debug, Clone)]
pub struct Step {
    pub op: Op,
    /// The timed unit of work this step is a repetition of: throughput,
    /// latency, deadline share and allocations come from these steps.
    /// `None`: untimed (a reference output, or a twin's half).
    pub unit: Option<usize>,
    /// The twin unit whose untraced or traced CPU time this step adds to
    /// (`trace_overhead_ratio`).
    pub twin: Option<usize>,
}

/// One engine run inside a step.
#[derive(Debug, Clone)]
pub struct RunOut {
    pub metrics: RunMetrics,
    /// CPU seconds of the calling thread.
    pub cpu_s: f64,
    /// CE only: `step()` calls, the engine's event count.
    pub ce_steps: u64,
}

/// A traced run next to its untraced twin.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Streaming summary of every record emitted, dropped ones included.
    pub report: ObsReport,
    pub metrics: RunMetrics,
    pub ce_steps: u64,
    pub plain_cpu_s: f64,
    pub traced_cpu_s: f64,
}

/// What one step did. `cpu_s`, `wall_s` and `allocs` cover the step's
/// timed region (all of it, except for [`Op::Restart`], whose untraced run
/// is the twin's reference and whose verdict comes after the pipeline).
#[derive(Debug, Clone, Default)]
pub struct StepOut {
    pub runs: Vec<RunOut>,
    pub cpu_s: f64,
    pub wall_s: f64,
    pub allocs: u64,
    pub measured: u64,
    pub in_time: u64,
    /// CPU seconds this step adds to its twin unit: of its untraced runs,
    /// of its traced runs.
    pub plain_cpu_s: f64,
    pub traced_cpu_s: f64,
    /// The step's first traced run, for the exact counts.
    pub first_traced: Option<TracedRun>,
    pub render: Option<String>,
    /// Operations the step attempted (engine runs, sweeps) and the hard
    /// invariants they broke.
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Oracle verdicts given, violations among them, and how to replay
    /// them. A tracked count, neither attempted nor failed operations.
    pub verdicts: u64,
    pub violations: Vec<String>,
}

fn paper_cfg(system: SystemKind, updates: f64, seed: u64) -> ExperimentConfig {
    ExperimentConfig::paper(system, 100, updates).with_seed(seed)
}

fn fig4_options(seed: u64, jobs: usize) -> SweepOptions {
    SweepOptions {
        seed,
        jobs,
        ..SweepOptions::paper()
    }
}

/// The cells of Figure 4 in `deadline_figure`'s order.
fn fig4_cells(seed: u64) -> Vec<ExperimentConfig> {
    let opts = fig4_options(seed, 1);
    let mut cfgs = Vec::new();
    for &n in &FIGURE_CLIENTS {
        for system in SystemKind::ALL {
            let mut cfg = ExperimentConfig::paper(system, n, FIG4_UPDATES).with_seed(seed);
            cfg.runtime.duration = opts.duration;
            cfg.runtime.warmup = opts.warmup;
            cfgs.push(cfg);
        }
    }
    cfgs
}

/// Worker threads of the sweep: never more than the cores there are.
pub fn sweep_jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(4)
}

fn check_round(seed: u64, round: u64) -> Vec<CaseSpec> {
    let cells = matrix();
    let n = cells.len() as u64;
    cells
        .into_iter()
        .enumerate()
        .map(|(i, cell)| CaseSpec {
            cell,
            seed: seed.wrapping_add(round * n + i as u64),
            clients: 8,
            duration: SimDuration::from_secs(150),
            warmup: SimDuration::from_secs(30),
        })
        .collect()
}

/// `per_twelve` units of work per twelve seconds of `--seconds` (the
/// declared run length), at least `min`.
fn scaled(per_twelve: u32, seconds: u32, min: usize) -> usize {
    ((per_twelve as usize * seconds as usize + 6) / 12).max(min)
}

/// How much of the plan a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extent {
    /// The full plan: end-to-end metrics.
    Full,
    /// Half the units, once, and one judged twin: the traced run executes
    /// this twice (spans off, spans on) next to the layer drivers.
    Traced,
}

/// Collects steps in execution order: pass by pass, so that the
/// repetitions of one unit are seconds apart.
#[derive(Default)]
struct Planner {
    steps: Vec<Step>,
    /// First untraced step of each twin unit: the partner whose
    /// `RunMetrics` the traced half must reproduce.
    plain_at: BTreeMap<usize, usize>,
}

impl Planner {
    fn push(&mut self, op: Op, unit: Option<usize>, twin: Option<usize>) {
        if let (Op::Plain(_), Some(t)) = (&op, twin) {
            self.plain_at.entry(t).or_insert(self.steps.len());
        }
        self.steps.push(Step { op, unit, twin });
    }

    /// The traced half of twin unit `t`.
    fn push_traced(&mut self, cfgs: Vec<ExperimentConfig>, t: usize, judge: bool) {
        let partner = self.plain_at[&t];
        let op = Op::Traced {
            cfgs,
            partner,
            judge,
        };
        self.push(op, None, Some(t));
    }
}

/// The steps of one run. Sizes are for the 2-core box the issue measured
/// on: about 8 s of timed steps and 3 s of twins per 12 s asked for.
///
/// How a workload spends that time between *more seeds* and *repeating
/// each seed* follows what its numbers vary with, measured on this box
/// over 40 seeds and three repetitions each. Repetitions help against the
/// box's noise, which is one-sided and comes in episodes of seconds (a
/// neighbour on the host): a repeated unit counts with its fastest
/// repetition, and repetitions are a whole pass apart. More seeds help
/// against what the seed itself decides: CE's CPU time per transaction
/// differs by a fifth from seed to seed (standard deviation; its event
/// count does not), CS's and LS's by 2 %, a restart run's deadline share
/// by a seventh.
pub fn plan(kind: Kind, seed: u64, seconds: u32, extent: Extent) -> Vec<Step> {
    let full = extent == Extent::Full;
    let reps = |n: usize| if full { n } else { 1 };
    let units = |per_twelve: u32| {
        let n = scaled(per_twelve, seconds, 1);
        if full {
            n
        } else {
            n.div_ceil(2)
        }
    };
    let twins = |per_twelve: u32, units: usize| {
        if full {
            scaled(per_twelve, seconds, 1).min(units)
        } else {
            1
        }
    };
    let mut p = Planner::default();
    // The three clean paper mixes share one shape: per pass, every seed
    // untraced, then the first `t` seeds traced. Twins may make more
    // passes than the timed seeds do; then only they run in the later ones.
    let mut clean = |per_seed: &dyn Fn(u64) -> Vec<ExperimentConfig>,
                     (n, passes): (usize, usize),
                     (t, twin_passes): (usize, usize)| {
        for pass in 0..passes.max(twin_passes) {
            for i in 0..if pass < passes { n } else { t } {
                let cfgs = per_seed(seed.wrapping_add(i as u64));
                let unit = (pass < passes).then_some(i);
                p.push(Op::Plain(cfgs), unit, (i < t).then_some(i));
            }
            for i in 0..if pass < twin_passes { t } else { 0 } {
                let cfgs = per_seed(seed.wrapping_add(i as u64));
                p.push_traced(cfgs, i, !full && pass == 0 && i == 0);
            }
        }
    };
    match kind {
        Kind::CePaper => {
            // Both update shares of one seed make one step, so that the
            // steps are alike. Thirteen seeds once, for the seed decides;
            // the twins twice, for they are two seeds either way.
            let pair = |s| {
                [0.05, 0.20]
                    .map(|u| paper_cfg(SystemKind::Centralized, u, s))
                    .to_vec()
            };
            let n = units(13);
            clean(&pair, (n, 1), (twins(2, n), reps(2)));
        }
        Kind::CsUpdate20 => {
            let one = |s| vec![paper_cfg(SystemKind::ClientServer, 0.20, s)];
            let n = units(6);
            clean(&one, (n, reps(2)), (twins(2, n), reps(2)));
        }
        Kind::LsUpdate5 => {
            let one = |s| vec![paper_cfg(SystemKind::LoadSharing, 0.05, s)];
            let n = units(7);
            clean(&one, (n, reps(2)), (twins(2, n), reps(2)));
        }
        Kind::CsRestartTraced => {
            // Every step is its own twin: untraced run, traced pipeline.
            // Seven seeds once: when the server crashes decides.
            for i in 0..units(7) {
                let mut cfg =
                    paper_cfg(SystemKind::ClientServer, 0.05, seed.wrapping_add(i as u64));
                cfg.faults = FaultConfig::chaos_restart(1.0);
                p.push(Op::Restart(Box::new(cfg)), Some(i), Some(i));
            }
        }
        Kind::Fig4Sweep => {
            // One figure, one seed: every sweep is the same work, so the
            // fastest is the figure's cost, and the render at `jobs`
            // workers can be held against the sequential cells.
            let cells = fig4_cells(seed);
            p.push(Op::Plain(cells.clone()), None, None);
            // Twins: the two heaviest cells (CS and LS at 100 clients).
            let twin = cells[cells.len() - 2..].to_vec();
            let sweeps = if full { scaled(3, seconds, 2) } else { 1 };
            for rep in 0..sweeps {
                let jobs = sweep_jobs();
                let reference = 0;
                let op = Op::Sweep {
                    seed,
                    jobs,
                    reference,
                };
                p.push(op, Some(0), None);
                if rep < reps(2) {
                    p.push(Op::Plain(twin.clone()), None, Some(0));
                    p.push_traced(twin.clone(), 0, !full);
                }
            }
        }
        Kind::CheckSeeds => {
            // The 24 cases of a round average the seeds out; three passes.
            let n = units(45);
            let t = if full {
                scaled(8, seconds, 1).min(n)
            } else {
                1
            };
            for _ in 0..reps(3) {
                for r in 0..n {
                    p.push(Op::CheckRound(check_round(seed, r as u64)), Some(r), None);
                }
                for r in 0..t {
                    let cfgs: Vec<_> = check_round(seed, r as u64)
                        .iter()
                        .map(CaseSpec::config)
                        .collect();
                    p.push(Op::Plain(cfgs.clone()), None, Some(r));
                    p.push_traced(cfgs, r, false);
                }
            }
        }
    }
    p.steps
}

/// The warm-up every set-up ends with: the first engine run the plan
/// will time (for `check_seeds` its first round), untraced, so that the
/// allocator's arenas, the binary's pages and lazy statics are warm. Its
/// `RunMetrics` double as a "same seed twice" determinism check.
///
/// Returns the step and the index of the first step's run that its first
/// run repeats.
pub fn warmup(kind: Kind, steps: &[Step]) -> (Step, usize) {
    let (op, offset) = match (&steps[0].op, kind) {
        // One cell, the heaviest (LS at 100 clients), not all fifteen.
        (Op::Plain(cfgs), Kind::Fig4Sweep) => (
            Op::Plain(vec![cfgs[cfgs.len() - 1].clone()]),
            cfgs.len() - 1,
        ),
        (Op::Plain(cfgs), _) => (Op::Plain(vec![cfgs[0].clone()]), 0),
        (Op::Restart(cfg), _) => (Op::Plain(vec![(**cfg).clone()]), 0),
        (op, _) => (op.clone(), 0),
    };
    let step = Step {
        op,
        unit: None,
        twin: None,
    };
    (step, offset)
}

fn engine_run(cfg: &ExperimentConfig, sink: Option<&EventSink>, rec: &mut Recorder) -> RunOut {
    cfg.validate().expect("benchmark configurations are valid");
    let sw = Stopwatch::start();
    let run_phase = if sink.is_some() {
        "phase.traced_run"
    } else {
        "phase.run"
    };
    let (metrics, ce_steps) = match cfg.system {
        SystemKind::Centralized => {
            let open = rec.enter("phase.new");
            let mut sim = CentralizedSim::new(cfg.clone());
            if let Some(sink) = sink {
                sim.attach_sink(sink.clone());
            }
            sim.prepare();
            rec.exit(open);
            let open = rec.enter(run_phase);
            let mut steps = 0u64;
            while sim.step() {
                steps += 1;
            }
            let metrics = sim.finalize();
            rec.exit(open);
            (metrics, steps)
        }
        SystemKind::ClientServer | SystemKind::LoadSharing => {
            let open = rec.enter("phase.new");
            let mut sim = ClientServerSim::new(cfg.clone());
            if let Some(sink) = sink {
                sim.attach_sink(sink.clone());
            }
            rec.exit(open);
            let open = rec.enter(run_phase);
            let metrics = sim.run();
            rec.exit(open);
            (metrics, 0)
        }
    };
    RunOut {
        metrics,
        cpu_s: sw.elapsed().cpu_s,
        ce_steps,
    }
}

fn traced_run(cfg: &ExperimentConfig, capacity: usize, rec: &mut Recorder) -> (RunOut, TraceData) {
    let sink = EventSink::enabled(capacity);
    let run = engine_run(cfg, Some(&sink), rec);
    let trace = sink.finish().expect("the sink was enabled");
    (run, trace)
}

fn describe(cfg: &ExperimentConfig) -> String {
    format!(
        "{} clients={} updates={} seed={}",
        cfg.system, cfg.clients, cfg.workload.update_fraction, cfg.runtime.seed
    )
}

/// The `repro trace` command that replays a paper-scale run of this
/// benchmark and judges it again. The only fault profile the plans use is
/// `chaos_restart(1.0)`.
fn replay(cfg: &ExperimentConfig) -> String {
    let faulty = cfg.faults.injects_faults();
    let cell = Cell {
        system: cfg.system,
        update_fraction: cfg.workload.update_fraction,
        chaos_intensity: if faulty { 1.0 } else { 0.0 },
        restart: faulty,
    };
    let case = CaseSpec {
        cell,
        seed: cfg.runtime.seed,
        clients: cfg.clients,
        duration: cfg.runtime.duration,
        warmup: cfg.runtime.warmup,
    };
    case.replay_command()
}

impl StepOut {
    fn push_run(&mut self, cfg: &ExperimentConfig, run: RunOut) {
        self.attempted += 1;
        if !run.metrics.is_consistent() {
            self.failures.push(format!(
                "{}: outcomes do not add up to measured",
                describe(cfg)
            ));
        }
        self.runs.push(run);
    }

    fn count_txns(&mut self) {
        self.measured = self.runs.iter().map(|r| r.metrics.measured).sum();
        self.in_time = self.runs.iter().map(|r| r.metrics.in_time).sum();
    }

    /// Gives the oracles' verdict on a complete trace.
    fn judge(&mut self, cfg: &ExperimentConfig, trace: &TraceData, metrics: &RunMetrics) {
        self.verdicts += 1;
        let warmup_end = SimTime::ZERO + cfg.runtime.warmup;
        if let Err(v) = check_trace(trace, metrics, warmup_end) {
            self.violations
                .push(format!("{}: {}", describe(cfg), v.with_replay(replay(cfg))));
        }
    }
}

fn restart(cfg: &ExperimentConfig, rec: &mut Recorder) -> StepOut {
    let mut out = StepOut::default();
    let plain = engine_run(cfg, None, rec);
    out.plain_cpu_s = plain.cpu_s;

    let allocs = alloc::count();
    let sw = Stopwatch::start();
    let (traced, trace) = traced_run(cfg, TRACE_CAPACITY, rec);
    out.traced_cpu_s = traced.cpu_s;
    if traced.metrics != plain.metrics {
        out.failures
            .push(format!("{}: tracing changed RunMetrics", describe(cfg)));
    }
    if trace.report.dropped > 0 {
        out.failures.push(format!(
            "{}: ring dropped {} of {} records",
            describe(cfg),
            trace.report.dropped,
            trace.report.events
        ));
    }
    let blame = rec.within("phase.blame", || {
        BlameReport::extract(&trace, 10, &MetricsRegistry::disabled())
    });
    let jsonl = rec.within("phase.export", || export::jsonl(&trace.records));
    // Cheap enough to sit inside the timed pipeline: no line of the export
    // is shorter than its four keys (`t`, `seq`, `site`, `kind`).
    let exported = jsonl.ends_with('\n') && jsonl.len() >= trace.records.len() * 40;
    if !exported || blame.total_us() == 0 {
        out.failures.push(format!(
            "{}: blame or export came back empty",
            describe(cfg)
        ));
    }
    drop(jsonl);
    let e = sw.elapsed();
    (out.cpu_s, out.wall_s) = (e.cpu_s, e.wall_s);
    out.allocs = alloc::count() - allocs;
    // Outside the timed pipeline: `check_trace` returns at the first oracle
    // that objects, so what a verdict costs depends on what it says.
    let open = rec.enter("phase.oracles");
    if trace.report.dropped == 0 {
        out.judge(cfg, &trace, &traced.metrics);
    }
    rec.exit(open);
    out.first_traced = Some(TracedRun {
        report: trace.report,
        metrics: traced.metrics.clone(),
        ce_steps: traced.ce_steps,
        plain_cpu_s: plain.cpu_s,
        traced_cpu_s: traced.cpu_s,
    });
    out.push_run(cfg, plain);
    out.push_run(cfg, traced);
    // Both runs are the same transactions; count them once.
    out.measured = out.runs[0].metrics.measured;
    out.in_time = out.runs[0].metrics.in_time;
    out
}

fn sweep(seed: u64, jobs: usize, reference: &StepOut, rec: &mut Recorder) -> StepOut {
    let mut out = StepOut {
        attempted: 1,
        ..StepOut::default()
    };
    let allocs = alloc::count();
    let cpu = process_cpu_seconds();
    let sw = Stopwatch::start();
    let figure = rec.within("phase.sweep", || {
        deadline_figure(FIG4_UPDATES, &FIGURE_CLIENTS, fig4_options(seed, jobs))
            .expect("the figure's configurations are valid")
    });
    out.wall_s = sw.elapsed().wall_s;
    // The workers' CPU time is the process's, not this thread's.
    out.cpu_s = process_cpu_seconds() - cpu;
    out.allocs = alloc::count() - allocs;
    // The same figure from the reference step's sequential cells.
    let rows = FIGURE_CLIENTS
        .iter()
        .zip(reference.runs.chunks_exact(SystemKind::ALL.len()))
        .map(|(&n, cells)| {
            let mut vals = [0.0f64; 3];
            for (v, cell) in vals.iter_mut().zip(cells) {
                *v = cell.metrics.success_percent();
            }
            (n, vals)
        })
        .collect();
    let sequential = DeadlineFigure {
        update_fraction: FIG4_UPDATES,
        rows,
    };
    let render = figure.render();
    if render != sequential.render() {
        out.failures.push(format!(
            "figure at jobs={jobs} differs from the sequential cells (seed {seed})"
        ));
    }
    out.render = Some(render);
    out.measured = reference.measured;
    out.in_time = reference.in_time;
    out
}

fn check_cases(cases: &[CaseSpec]) -> StepOut {
    let mut out = StepOut::default();
    for case in cases {
        let cfg = case.config();
        let sw = Stopwatch::start();
        // The two calls `check_config` makes, kept apart so that a case the
        // oracles object to still counts its run and its transactions.
        let (metrics, trace) = run_experiment_traced(&cfg, TRACE_CAPACITY)
            .expect("the explorer's configurations are valid");
        let verdict = check_trace(&trace, &metrics, SimTime::ZERO + cfg.runtime.warmup);
        let cpu_s = sw.elapsed().cpu_s;
        out.verdicts += 1;
        if let Err(v) = verdict {
            let v = v.with_replay(case.replay_command());
            out.violations.push(v.to_string());
        }
        let run = RunOut {
            metrics,
            cpu_s,
            ce_steps: 0,
        };
        out.push_run(&cfg, run);
    }
    out
}

/// Executes one step. `done` holds the outputs of the steps before it.
pub fn execute(step: &Step, done: &[StepOut], rec: &mut Recorder) -> StepOut {
    let open = rec.enter("op");
    let allocs = alloc::count();
    let sw = Stopwatch::start();
    let mut out = match &step.op {
        Op::Plain(cfgs) => {
            let mut out = StepOut::default();
            for cfg in cfgs {
                let run = engine_run(cfg, None, rec);
                out.push_run(cfg, run);
            }
            out
        }
        Op::Traced {
            cfgs,
            partner,
            judge,
        } => {
            let mut out = StepOut::default();
            let plain = &done[*partner].runs[..cfgs.len()];
            for (i, (cfg, plain)) in cfgs.iter().zip(plain).enumerate() {
                let keep_all = *judge && i == 0;
                let capacity = if keep_all { TRACE_CAPACITY } else { TWIN_RING };
                let (run, trace) = traced_run(cfg, capacity, rec);
                if run.metrics != plain.metrics {
                    out.failures
                        .push(format!("{}: tracing changed RunMetrics", describe(cfg)));
                }
                out.traced_cpu_s += run.cpu_s;
                if keep_all && trace.report.dropped == 0 {
                    let open = rec.enter("phase.oracles");
                    out.judge(cfg, &trace, &run.metrics);
                    rec.exit(open);
                }
                if i == 0 {
                    out.first_traced = Some(TracedRun {
                        report: trace.report,
                        metrics: run.metrics.clone(),
                        ce_steps: run.ce_steps,
                        plain_cpu_s: plain.cpu_s,
                        traced_cpu_s: run.cpu_s,
                    });
                }
                out.push_run(cfg, run);
            }
            out
        }
        Op::Restart(cfg) => restart(cfg, rec),
        Op::Sweep {
            seed,
            jobs,
            reference,
        } => sweep(*seed, *jobs, &done[*reference], rec),
        Op::CheckRound(cases) => rec.within("phase.oracles", || check_cases(cases)),
    };
    if let (Op::Plain(_), Some(_)) = (&step.op, step.twin) {
        out.plain_cpu_s = out.runs.iter().map(|r| r.cpu_s).sum();
    }
    // A restart step and a sweep time a region of their own; every other
    // step is timed whole.
    if !matches!(step.op, Op::Restart(_) | Op::Sweep { .. }) {
        let e = sw.elapsed();
        (out.cpu_s, out.wall_s) = (e.cpu_s, e.wall_s);
        out.allocs = alloc::count() - allocs;
        out.count_txns();
    }
    rec.exit(open);
    out
}

/// Runs the whole plan in order.
pub fn execute_all(steps: &[Step], rec: &mut Recorder) -> Vec<StepOut> {
    let mut done = Vec::with_capacity(steps.len());
    for step in steps {
        let out = execute(step, &done, rec);
        done.push(out);
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_depend_on_seed_and_seconds_only() {
        for kind in Kind::ALL {
            let a = plan(kind, 7, 10, Extent::Full);
            let b = plan(kind, 7, 10, Extent::Full);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{kind:?}");
            let other = plan(kind, 8, 10, Extent::Full);
            assert_ne!(format!("{a:?}"), format!("{other:?}"), "{kind:?}");
            let shorter = plan(kind, 7, 1, Extent::Full);
            assert!(shorter.len() < a.len() && !shorter.is_empty(), "{kind:?}");
            let traced = plan(kind, 7, 10, Extent::Traced);
            assert!(traced.len() < a.len(), "{kind:?}");
            assert!(a.iter().any(|s| s.unit.is_some()));
        }
    }

    #[test]
    fn traced_partners_point_at_earlier_untraced_runs_of_the_same_configs() {
        for kind in Kind::ALL {
            for extent in [Extent::Full, Extent::Traced] {
                let steps = plan(kind, 3, 10, extent);
                for (i, step) in steps.iter().enumerate() {
                    let Op::Traced { cfgs, partner, .. } = &step.op else {
                        continue;
                    };
                    assert!(*partner < i);
                    let Op::Plain(plain) = &steps[*partner].op else {
                        panic!("{kind:?}: partner of step {i} is not an untraced step");
                    };
                    assert_eq!(plain, cfgs);
                    assert_eq!(steps[*partner].twin, step.twin);
                }
            }
        }
    }

    #[test]
    fn fig4_cells_are_the_figures_cells() {
        let cells = fig4_cells(9);
        assert_eq!(cells.len(), 15);
        assert_eq!(
            (cells[14].system, cells[14].clients, cells[13].system),
            (SystemKind::LoadSharing, 100, SystemKind::ClientServer)
        );
        assert!(cells.iter().all(|c| c.runtime.seed == 9));
    }

    #[test]
    fn check_rounds_walk_the_matrix_with_consecutive_seeds() {
        let r0 = check_round(100, 0);
        let r1 = check_round(100, 1);
        assert_eq!(r0.len(), matrix().len());
        assert_eq!(r0[0].seed, 100);
        assert_eq!(r1[0].seed, 100 + r0.len() as u64);
        assert_eq!(r0[5].cell, matrix()[5]);
    }

    /// Whatever the oracles say, a case counts its run and its transactions.
    #[test]
    fn every_checked_case_counts_one_run_and_one_verdict() {
        let cases = &check_round(11, 0)[..6];
        let out = check_cases(cases);
        assert_eq!(out.runs.len(), cases.len());
        assert_eq!((out.attempted, out.verdicts), (6, 6));
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        for (case, run) in cases.iter().zip(&out.runs) {
            assert_eq!(run.metrics.seed, case.seed);
            assert!(run.metrics.measured > 0);
        }
    }

    /// A tiny end-to-end pass over real engines: a clean twin keeps
    /// `RunMetrics`, and a traced run is judged when asked to.
    #[test]
    fn a_small_twin_executes_and_holds_its_invariants() {
        let mut cfg = ExperimentConfig::paper(SystemKind::LoadSharing, 4, 0.20);
        cfg.runtime.duration = SimDuration::from_secs(200);
        cfg.runtime.warmup = SimDuration::from_secs(40);
        let steps = vec![
            Step {
                op: Op::Plain(vec![cfg.clone()]),
                unit: Some(0),
                twin: Some(0),
            },
            Step {
                op: Op::Traced {
                    cfgs: vec![cfg],
                    partner: 0,
                    judge: true,
                },
                unit: None,
                twin: Some(0),
            },
        ];
        let mut rec = Recorder::on();
        let done = execute_all(&steps, &mut rec);
        assert!(done.iter().all(|o| o.failures.is_empty()), "{done:?}");
        assert!(done[0].measured > 0 && done[0].measured == done[1].measured);
        assert_eq!((done[1].verdicts, done[1].violations.len()), (1, 0));
        assert!(done[1]
            .first_traced
            .as_ref()
            .is_some_and(|t| t.report.events > 0));
        assert!(done[1].traced_cpu_s > 0.0 && done[0].plain_cpu_s > 0.0);
        let names: Vec<_> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "op",
                "phase.new",
                "phase.run",
                "op",
                "phase.new",
                "phase.traced_run",
                "phase.oracles"
            ]
        );
    }
}
