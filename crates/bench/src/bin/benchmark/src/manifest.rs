//! The benchmark's declaration: end-to-end metrics with their regression
//! bounds, and per-layer metrics (the workloads are `workloads::Kind`).
//! `BENCHMARK.json` at the root of the repository declares the same (a
//! unit test holds the two together), and every run prints exactly these
//! names.

/// Seconds one run measures when the caller does not say.
pub const RUN_SECONDS: u32 = 12;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` the value `new` is worse (negative: better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Metrics a user of the system sees; every workload reports every one.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "txn_per_cpu_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_wall_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "deadline_met_pct",
        unit: "%",
        better: Better::Higher,
        bound: 0.2,
    },
    EndToEnd {
        name: "allocs_per_txn",
        unit: "count",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "trace_overhead_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics of single layers (layer = crate.module), exact counts from a
/// traced twin run, estimated CPU shares, and the benchmark's own span
/// totals. No bounds: they explain a move in an end-to-end metric.
pub const PER_LAYER: [PerLayer; 66] = [
    // Layer drivers: a seeded op stream against the layer's public type at
    // paper size, median ns per op over batches.
    layer("sim.queue.push_pop_ns", "ns", Lower),
    layer("sim.queue.far_cascade_ns", "ns", Lower),
    layer("workload.txngen.next_ns", "ns", Lower),
    layer("types.object_map.insert_get_remove_ns", "ns", Lower),
    layer("locks.table.grant_release_ns", "ns", Lower),
    layer("locks.table.contended_promote_ns", "ns", Lower),
    layer("locks.waitfor.would_cycle_ns", "ns", Lower),
    layer("locks.callback.begin_ack_ns", "ns", Lower),
    layer("locks.window.offer_close_ns", "ns", Lower),
    layer("locks.forward.hop_ns", "ns", Lower),
    layer("storage.buffer.hit_ns", "ns", Lower),
    layer("storage.buffer.miss_evict_ns", "ns", Lower),
    layer("storage.cache.probe_hit_ns", "ns", Lower),
    layer("storage.cache.insert_evict_ns", "ns", Lower),
    layer("storage.wal.append_ns", "ns", Lower),
    layer("storage.wal.flush_ns", "ns", Lower),
    layer("storage.recovery.restart_ms_per_mb", "ms/MB", Lower),
    layer("net.fabric.send_ns", "ns", Lower),
    layer("net.fabric.send_faulty_ns", "ns", Lower),
    layer("core.cpu.ps_submit_complete_ns", "ns", Lower),
    layer("core.cpu.edf_submit_complete_ns", "ns", Lower),
    layer("core.engine.new_ms.c100", "ms", Lower),
    layer("core.engine.new_ms.c8", "ms", Lower),
    layer("core.run_many.speedup", "ratio", Higher),
    layer("core.run_many.cpu_overhead_pct", "%", Lower),
    layer("obs.sink.emit_off_ns", "ns", Lower),
    layer("obs.sink.emit_ring_ns", "ns", Lower),
    layer("obs.traced_run_ratio", "ratio", Lower),
    layer("obs.export.jsonl_ns_per_record", "ns", Lower),
    layer("obs.blame.extract_ns_per_record", "ns", Lower),
    layer("check.oracles.ns_per_record", "ns", Lower),
    // Exact counts of the workload's first seed (traced twin + RunMetrics);
    // they repeat bit for bit, so two commits compare exactly.
    layer("count.trace_records", "count", Lower),
    layer("count.lock_held", "count", Lower),
    layer("count.lock_wait", "count", Lower),
    layer("count.callbacks_issued", "count", Lower),
    layer("count.cache_installs", "count", Lower),
    layer("count.messages", "count", Lower),
    layer("count.disk_spans", "count", Lower),
    layer("count.windows_opened", "count", Lower),
    layer("count.forward_hops", "count", Lower),
    layer("count.ce_steps", "count", Lower),
    layer("count.oracle_verdicts", "count", Higher),
    layer("count.oracle_violations", "count", Lower),
    layer("ratio.cache_hit_pct", "%", Higher),
    layer("ratio.buffer_hit_pct", "%", Higher),
    // Estimated shares of the first seed's CPU: count x driver ns/op.
    // Labelled estimates, never gated.
    layer("share.locks", "%", Lower),
    layer("share.storage", "%", Lower),
    layer("share.net", "%", Lower),
    layer("share.obs", "%", Lower),
    layer("share.sim.queue", "%", Lower),
    layer("share.other", "%", Lower),
    // The workload as a whole, from the untraced pass of the traced run.
    layer("workload.cpu_s", "s", Lower),
    layer("workload.wall_s", "s", Lower),
    layer("workload.ops_per_cpu_s", "1/s", Higher),
    layer("workload.op_wall_ms.q1", "ms", Lower),
    layer("workload.op_wall_ms.q3", "ms", Lower),
    // The benchmark's own spans: self time per phase, and what recording
    // them cost.
    layer("span.op.self_ms", "ms", Lower),
    layer("span.phase.new.self_ms", "ms", Lower),
    layer("span.phase.run.self_ms", "ms", Lower),
    layer("span.phase.traced_run.self_ms", "ms", Lower),
    layer("span.phase.blame.self_ms", "ms", Lower),
    layer("span.phase.export.self_ms", "ms", Lower),
    layer("span.phase.oracles.self_ms", "ms", Lower),
    layer("span.phase.sweep.self_ms", "ms", Lower),
    layer("span.count", "count", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Kind;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn declaration_is_within_the_contract_limits() {
        let mut names = BTreeSet::new();
        for kind in Kind::ALL {
            assert!(name_ok(kind.name()), "{}", kind.name());
            assert!(names.insert(kind.name()), "duplicate {}", kind.name());
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "duplicate {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "duplicate {}", m.name);
        }
        assert!((2..=8).contains(&Kind::ALL.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is written by hand, one entry per line; it must
    /// declare exactly the names, units, directions and bounds above.
    #[test]
    fn committed_benchmark_json_declares_the_same() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let mut want: Vec<String> = Vec::new();
        for kind in Kind::ALL {
            want.push(format!("{{\"name\": \"{}\", \"why\": \"", kind.name()));
        }
        for m in &END_TO_END {
            want.push(format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            ));
        }
        for m in &PER_LAYER {
            want.push(format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            ));
        }
        want.push(format!("\"run_seconds\": {RUN_SECONDS},"));
        for entry in &want {
            assert!(committed.contains(entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = committed.matches("{\"name\": ").count();
        assert_eq!(declared, want.len() - 1, "BENCHMARK.json declares more");
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(10.0, 12.0) < 0.0);
    }
}
