//! From step outputs to named metrics, and the result line a run ends
//! with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::layers::Reading;
use crate::manifest::{END_TO_END, PER_LAYER};
use crate::spans::{totals_by_name, Span};
use crate::stats::{quartiles, tail_percentile, Quartiles};
use crate::workloads::{Step, StepOut, TracedRun};

/// One pass of a plan, summed. Steps that repeat a unit of work count
/// once, with the CPU time, wall time and allocation
/// count of the fastest repetition; see `workloads::plan` for why.
#[derive(Debug, Default)]
pub struct Totals {
    pub measured: u64,
    pub in_time: u64,
    pub cpu_s: f64,
    pub allocs: u64,
    /// Wall seconds of each timed unit (fastest repetition), and of every
    /// timed step as it ran.
    pub unit_walls: Vec<f64>,
    pub step_walls: Vec<f64>,
    /// Operations in the timed units, each unit once.
    pub main_attempted: u64,
    /// Twin units: CPU seconds untraced and traced.
    pub plain_cpu_s: f64,
    pub traced_cpu_s: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub verdicts: u64,
    pub violations: Vec<String>,
}

fn keep_min(map: &mut BTreeMap<usize, f64>, key: usize, value: f64) {
    map.entry(key)
        .and_modify(|v| *v = v.min(value))
        .or_insert(value);
}

impl Totals {
    pub fn of(steps: &[Step], done: &[StepOut]) -> Totals {
        let mut t = Totals::default();
        // Per timed unit: its first repetition and its fastest figures.
        let mut first: BTreeMap<usize, &StepOut> = BTreeMap::new();
        let (mut cpu, mut wall, mut allocs) = (BTreeMap::new(), BTreeMap::new(), BTreeMap::new());
        let (mut plain, mut traced) = (BTreeMap::new(), BTreeMap::new());
        for (step, out) in steps.iter().zip(done) {
            if let Some(unit) = step.unit {
                t.step_walls.push(out.wall_s);
                keep_min(&mut cpu, unit, out.cpu_s);
                keep_min(&mut wall, unit, out.wall_s);
                keep_min(&mut allocs, unit, out.allocs as f64);
                let first = *first.entry(unit).or_insert(out);
                let same = first.runs.len() == out.runs.len()
                    && first
                        .runs
                        .iter()
                        .zip(&out.runs)
                        .all(|(a, b)| a.metrics == b.metrics)
                    && (first.measured, first.in_time, &first.render)
                        == (out.measured, out.in_time, &out.render);
                if !same {
                    t.failures.push(format!(
                        "timed unit {unit}: a repetition of the same work gave a different result"
                    ));
                }
            }
            if let Some(twin) = step.twin {
                if out.plain_cpu_s > 0.0 {
                    keep_min(&mut plain, twin, out.plain_cpu_s);
                }
                if out.traced_cpu_s > 0.0 {
                    keep_min(&mut traced, twin, out.traced_cpu_s);
                }
            }
            t.absorb(out);
        }
        for out in first.values() {
            t.measured += out.measured;
            t.in_time += out.in_time;
            t.main_attempted += out.attempted;
        }
        t.cpu_s = cpu.values().sum();
        t.allocs = allocs.values().sum::<f64>() as u64;
        t.unit_walls = wall.into_values().collect();
        t.plain_cpu_s = plain.values().sum();
        t.traced_cpu_s = traced.values().sum();
        t
    }

    /// Counts a step's operations, failures and verdicts (and nothing of
    /// its timings): the warm-up's share.
    pub fn absorb(&mut self, out: &StepOut) {
        self.attempted += out.attempted;
        self.failures.extend(out.failures.iter().cloned());
        self.verdicts += out.verdicts;
        self.violations.extend(out.violations.iter().cloned());
    }

    pub fn wall_quartiles_ms(&self) -> Quartiles {
        let ms: Vec<f64> = self.unit_walls.iter().map(|w| w * 1e3).collect();
        quartiles(&ms)
    }
}

/// The warm-up repeats runs of the first step: the same seed twice must
/// give equal `RunMetrics`.
pub fn check_repeat(warm: &StepOut, first: &StepOut, offset: usize, failures: &mut Vec<String>) {
    let again = first.runs.iter().skip(offset);
    if warm.runs.is_empty() || warm.runs.len() > first.runs.len() - offset.min(first.runs.len()) {
        failures.push("the warm-up has no timed run to be compared with".to_string());
    }
    for (a, b) in warm.runs.iter().zip(again) {
        if a.metrics != b.metrics {
            failures.push(format!(
                "{} clients={} seed={}: the same seed gave different RunMetrics twice",
                a.metrics.system, a.metrics.clients, a.metrics.seed
            ));
        }
    }
}

pub type Metrics = BTreeMap<&'static str, f64>;

/// Every end-to-end metric of a full pass.
pub fn end_to_end(t: &Totals, setup_s: f64, peak_rss_mb: f64) -> Metrics {
    let measured = t.measured as f64;
    Metrics::from([
        ("setup_s", setup_s),
        ("txn_per_cpu_s", measured / t.cpu_s),
        (
            "op_wall_ms",
            t.unit_walls.iter().sum::<f64>() * 1e3 / t.unit_walls.len() as f64,
        ),
        ("deadline_met_pct", 100.0 * t.in_time as f64 / measured),
        ("allocs_per_txn", t.allocs as f64 / measured),
        ("peak_rss_mb", peak_rss_mb),
        ("trace_overhead_ratio", t.traced_cpu_s / t.plain_cpu_s),
    ])
}

/// What the traced run adds to the drivers' readings.
pub struct TracedPass<'a> {
    /// The pass with spans off and the same pass with spans on.
    pub untraced: &'a Totals,
    pub spanned: &'a Totals,
    pub spans: &'a [Span],
    /// `step()` calls of the CE runs in the plan's first step.
    pub first_step_ce_steps: u64,
    pub first_traced: Option<&'a TracedRun>,
}

fn reading(readings: &[Reading], name: &str) -> f64 {
    readings
        .iter()
        .find(|r| r.name == name)
        .map_or(0.0, |r| r.per_unit.median)
}

/// Every per-layer metric: the drivers' medians, the exact counts of the
/// first traced run, the estimated shares, the pass as a whole, and the
/// benchmark's own spans.
pub fn per_layer(readings: &[Reading], pass: &TracedPass<'_>) -> Metrics {
    let mut m: Metrics = readings
        .iter()
        .map(|r| (r.name, r.per_unit.median))
        .collect();
    let ns = |name: &str| reading(readings, name);

    let (mut locks, mut storage, mut net, mut obs, mut queue) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut base_cpu_s = 0.0;
    if let Some(t) = pass.first_traced {
        let kind = |k: &str| t.report.kind_count(k) as f64;
        let run = &t.metrics;
        m.insert("obs.traced_run_ratio", t.traced_cpu_s / t.plain_cpu_s);
        m.insert("count.trace_records", t.report.events as f64);
        m.insert("count.lock_held", kind("lock_held"));
        m.insert("count.lock_wait", kind("lock_wait"));
        m.insert("count.callbacks_issued", kind("callback_issued"));
        m.insert("count.cache_installs", kind("cache_install"));
        m.insert("count.messages", run.messages.total_messages() as f64);
        m.insert("count.disk_spans", kind("span_disk"));
        m.insert("count.windows_opened", kind("window_open"));
        m.insert("count.forward_hops", kind("forward_hop"));
        m.insert("ratio.cache_hit_pct", run.cache.hit_percent());
        m.insert("ratio.buffer_hit_pct", run.server_buffer.percent());

        // Estimates: how often the run asked each layer, times what one
        // such operation costs in that layer's driver.
        locks = kind("lock_held") * ns("locks.table.grant_release_ns")
            + kind("lock_wait") * ns("locks.table.contended_promote_ns")
            + kind("callback_issued") * ns("locks.callback.begin_ack_ns")
            + kind("window_open") * ns("locks.window.offer_close_ns")
            + kind("forward_hop") * ns("locks.forward.hop_ns");
        // The engines keep the server buffer's residency in a `ClientCache`
        // of ids (probe, insert on a miss); page frames are touched only
        // under a logged write, taken here as a buffer hit.
        let cache = run.cache;
        let buffer = run.server_buffer;
        let probes = cache.memory_hits + cache.disk_hits + cache.misses + buffer.total();
        let installs = kind("cache_install") + (buffer.total() - buffer.hits()) as f64;
        storage = probes as f64 * ns("storage.cache.probe_hit_ns")
            + installs * ns("storage.cache.insert_evict_ns")
            + kind("wal_write") * (ns("storage.wal.append_ns") + ns("storage.buffer.hit_ns"))
            + kind("wal_commit") * ns("storage.wal.flush_ns");
        let send = if run.faults.any() {
            ns("net.fabric.send_faulty_ns")
        } else {
            ns("net.fabric.send_ns")
        };
        net = run.messages.total_transmissions() as f64 * send;
        // Untraced, every emit is the disabled sink's branch.
        obs = t.report.events as f64 * ns("obs.sink.emit_off_ns");
        queue = t.ce_steps as f64 * ns("sim.queue.push_pop_ns");
        base_cpu_s = t.plain_cpu_s;
    }
    let share = |layer_ns: f64| {
        if base_cpu_s > 0.0 {
            layer_ns / 1e9 / base_cpu_s * 100.0
        } else {
            0.0
        }
    };
    let shares = [
        ("share.locks", share(locks)),
        ("share.storage", share(storage)),
        ("share.net", share(net)),
        ("share.obs", share(obs)),
        ("share.sim.queue", share(queue)),
    ];
    let known: f64 = shares.iter().map(|s| s.1).sum();
    m.extend(shares);
    m.insert(
        "share.other",
        if base_cpu_s > 0.0 { 100.0 - known } else { 0.0 },
    );

    m.insert("count.ce_steps", pass.first_step_ce_steps as f64);
    m.insert("count.oracle_verdicts", pass.spanned.verdicts as f64);
    m.insert(
        "count.oracle_violations",
        pass.spanned.violations.len() as f64,
    );

    let a = pass.untraced;
    let q = a.wall_quartiles_ms();
    m.insert("workload.cpu_s", a.cpu_s);
    m.insert("workload.wall_s", a.unit_walls.iter().sum());
    m.insert("workload.ops_per_cpu_s", a.main_attempted as f64 / a.cpu_s);
    m.insert("workload.op_wall_ms.q1", q.q1);
    m.insert("workload.op_wall_ms.q3", q.q3);

    let by_name = totals_by_name(pass.spans);
    for def in &PER_LAYER {
        if let Some(span) = def
            .name
            .strip_prefix("span.")
            .and_then(|n| n.strip_suffix(".self_ms"))
        {
            let self_ns = by_name.get(span).map_or(0, |t| t.self_ns);
            m.insert(def.name, self_ns as f64 / 1e6);
        }
    }
    m.insert("span.count", pass.spans.len() as f64);
    m.insert(
        "bench.trace_overhead_pct",
        (pass.spanned.cpu_s - a.cpu_s) / a.cpu_s * 100.0,
    );
    // A workload with no traced run (none today) reports zeros.
    for def in &PER_LAYER {
        m.entry(def.name).or_insert(0.0);
    }
    m
}

/// The unit a metric was declared with.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The last line of a run: one JSON object, the declared metrics in the
/// declared order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[&'static str],
    m: &Metrics,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Rust prints the shortest text that reads back as the same f64:
        // every digit measured, none invented.
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m[name],
            unit_of(name)
        );
    }
    out.push_str("}}");
    out
}

/// A result line read back (by `--selfcheck`, from its own children).
#[derive(Debug, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

fn after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.find(key).map(|i| &text[i + key.len()..])
}

fn until<'a>(text: &'a str, ends: &[char]) -> &'a str {
    text.split(ends).next().unwrap_or("").trim()
}

/// Reads a line written by [`result_line`]; `None` for anything else.
pub fn parse_result_line(line: &str) -> Option<ResultLine> {
    let correct = until(after(line, "\"correct\": ")?, &[',']).parse().ok()?;
    let attempted = until(after(line, "\"attempted\": ")?, &[','])
        .parse()
        .ok()?;
    let failed = until(after(line, "\"failed\": ")?, &[',']).parse().ok()?;
    let mut rest = after(line, "\"metrics\": {")?;
    let mut metrics = Vec::new();
    while let Some(start) = rest.find('"') {
        let name = until(&rest[start + 1..], &['"']).to_string();
        let value_text = after(rest, "{\"value\": ")?;
        let value = until(value_text, &[',']).parse().ok()?;
        let unit_text = after(value_text, "\"unit\": \"")?;
        let unit = until(unit_text, &['"']).to_string();
        rest = after(unit_text, "}")?;
        metrics.push((name, value, unit));
    }
    Some(ResultLine {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// One printed row: a timing with its quartiles, sample count and tail.
pub fn timing_row(name: &str, unit: &str, samples: &[f64]) -> String {
    let q = quartiles(samples);
    let mut row = format!(
        "{name:<40} {:>14.4} {unit:<6} q1 {:.4}  q3 {:.4}  n {}",
        q.median, q.q1, q.q3, q.n
    );
    match tail_percentile(samples) {
        Some((p, v)) => {
            let _ = write!(row, "  p{p} {v:.4}");
        }
        None => row.push_str("  (too few samples for a tail percentile)"),
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_zero(names: impl Iterator<Item = &'static str>) -> Metrics {
        names.map(|n| (n, 0.5)).collect()
    }

    #[test]
    fn result_line_prints_every_declared_metric_once_with_its_unit() {
        let names: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
        let line = result_line(true, 41, 0, &names, &all_zero(names.iter().copied()));
        let parsed = parse_result_line(&line).expect("own output parses");
        assert_eq!(
            (parsed.correct, parsed.attempted, parsed.failed),
            (true, 41, 0)
        );
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), 0.5, m.unit.to_string()))
            .collect();
        assert_eq!(parsed.metrics, want);
        assert!(!line.contains('\n'));

        let names: Vec<_> = PER_LAYER.iter().map(|m| m.name).collect();
        let line = result_line(false, 1, 1, &names, &all_zero(names.iter().copied()));
        let parsed = parse_result_line(&line).expect("own output parses");
        assert!(!parsed.correct);
        assert_eq!(parsed.metrics.len(), PER_LAYER.len());
        for (def, got) in PER_LAYER.iter().zip(&parsed.metrics) {
            assert_eq!((def.name, def.unit), (got.0.as_str(), got.2.as_str()));
        }
    }

    #[test]
    fn values_keep_all_their_digits() {
        let m = Metrics::from([("setup_s", 0.123_456_789_012_345_68)]);
        let line = result_line(true, 1, 0, &["setup_s"], &m);
        assert!(line.contains("0.12345678901234568"), "{line}");
        assert_eq!(parse_result_line(&line).unwrap().metrics[0].1, m["setup_s"]);
    }

    #[test]
    fn other_lines_do_not_parse() {
        assert_eq!(parse_result_line("setup_s   0.5 s"), None);
        assert_eq!(parse_result_line("{\"correct\": maybe}"), None);
    }

    #[test]
    fn repeated_units_count_once_with_their_fastest_repetition() {
        use crate::workloads::Op;
        let step = |unit, twin| Step {
            op: Op::Plain(Vec::new()),
            unit,
            twin,
        };
        let out = |cpu_s: f64, measured, plain_cpu_s: f64, traced_cpu_s: f64| StepOut {
            cpu_s,
            wall_s: cpu_s * 2.0,
            allocs: 10,
            measured,
            in_time: measured / 2,
            plain_cpu_s,
            traced_cpu_s,
            attempted: 1,
            ..StepOut::default()
        };
        let steps = [
            step(Some(0), Some(0)),
            step(Some(1), None),
            step(None, Some(0)),
            step(Some(0), Some(0)),
            step(Some(1), None),
            step(None, Some(0)),
        ];
        let done = [
            out(1.0, 100, 1.0, 0.0),
            out(3.0, 300, 0.0, 0.0),
            out(9.0, 100, 0.0, 1.5),
            out(0.8, 100, 0.8, 0.0),
            out(3.5, 300, 0.0, 0.0),
            out(9.0, 100, 0.0, 1.2),
        ];
        let t = Totals::of(&steps, &done);
        assert_eq!((t.measured, t.in_time, t.allocs), (400, 200, 20));
        assert!((t.cpu_s - 3.8).abs() < 1e-12);
        assert_eq!(t.unit_walls, vec![1.6, 6.0]);
        assert_eq!(t.step_walls.len(), 4);
        assert!((t.traced_cpu_s / t.plain_cpu_s - 1.5).abs() < 1e-12);
        assert_eq!((t.attempted, t.main_attempted), (6, 2));
        assert!(t.failures.is_empty());
        let m = end_to_end(&t, 0.5, 64.0);
        assert!((m["txn_per_cpu_s"] - 400.0 / 3.8).abs() < 1e-9);
        assert!((m["op_wall_ms"] - 3800.0).abs() < 1e-9);
        assert_eq!(m.len(), END_TO_END.len());

        // A repetition that measures something else is a broken invariant.
        let mut odd = done.clone();
        odd[3].measured = 101;
        assert_eq!(Totals::of(&steps, &odd).failures.len(), 1);
    }

    #[test]
    fn per_layer_fills_every_declared_name() {
        let t = Totals {
            cpu_s: 1.0,
            unit_walls: vec![0.5, 0.5],
            ..Totals::default()
        };
        let pass = TracedPass {
            untraced: &t,
            spanned: &t,
            spans: &[],
            first_step_ce_steps: 0,
            first_traced: None,
        };
        let m = per_layer(&[], &pass);
        assert_eq!(m.len(), PER_LAYER.len());
        assert!(PER_LAYER.iter().all(|d| m.contains_key(d.name)));
    }
}
