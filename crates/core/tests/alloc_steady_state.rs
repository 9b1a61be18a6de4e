//! Asserts the engines' allocation discipline (DESIGN.md §15).
//!
//! A counting `#[global_allocator]` (`support/counting_alloc.rs`) wraps the
//! system allocator for this test binary only. These tests use it:
//!
//! * The centralized hot loop, after warm-up, performs **zero** heap
//!   allocations. That run uses a read-only workload (`update_fraction =
//!   0`) so the append-only WAL — which grows by design — stays quiet and
//!   the test isolates the submit→lock→I/O→commit→result path: pooled
//!   event-queue slots, inline transaction state, the slab-backed caches,
//!   and the pre-sized lock table must all recycle without touching the
//!   allocator.
//! * Whole runs of the engines the benchmark measures — construction,
//!   workload generation, warm-up and all — stay inside a budget of
//!   allocations per measured transaction, so a `Vec` that creeps back
//!   into a request handler fails here and not only as a benchmark
//!   reading. A debug build runs a slice (30 clients × 400 s); a release
//!   build (`scripts/ci.sh alloc-budget`) runs the paper's 100 clients for
//!   the full duration. CS and LS also run under `chaos_restart(1.0)`,
//!   where a crash must keep what the lost state allocated.
//! * Blame extraction allocates the same few times over a trace twice as
//!   long.
//! * Two runs of one seed allocate exactly as often: no engine state may
//!   hash with a per-process random key.
//! * Whole CE, CS and LS runs stay under a budget of peak live heap bytes,
//!   and one seed reaches the same peak twice. Live bytes count what the
//!   engine asks the allocator for, so unlike a process's resident set
//!   they repeat exactly and a memory regression shows as a diff.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs, high_water, reset_high_water};
use siteselect_core::{run_experiment, run_experiment_traced, CentralizedSim};
use siteselect_obs::{BlameReport, MetricsRegistry};
use siteselect_types::{ExperimentConfig, FaultConfig, SimDuration, SystemKind};

/// A whole run of `system`: the paper's 100 clients for `secs` in a
/// release build, 30 clients for 400 s in a debug one.
fn whole_run(system: SystemKind, update_fraction: f64, seed: u64, secs: u64) -> ExperimentConfig {
    let clients = if cfg!(debug_assertions) { 30 } else { 100 };
    let mut cfg = ExperimentConfig::paper(system, clients, update_fraction);
    if cfg!(debug_assertions) {
        cfg.runtime.duration = SimDuration::from_secs(400);
        cfg.runtime.warmup = SimDuration::from_secs(40);
    } else {
        cfg.runtime.duration = SimDuration::from_secs(secs);
    }
    cfg.runtime.seed = seed;
    cfg
}

/// Allocations of one run of `cfg`, and the transactions it measured.
fn count_allocs(cfg: &ExperimentConfig) -> (u64, u64) {
    let before = allocs();
    let metrics = run_experiment(cfg).expect("the paper's configuration is valid");
    (allocs() - before, metrics.measured)
}

/// Asserts that a full-length run of `system` stays within `budget`
/// allocations per measured transaction: `(release, debug)`, each at most
/// 5 % above the count measured when it was set.
fn assert_within_budget(system: SystemKind, update_fraction: f64, budget: (f64, f64)) {
    let cfg = whole_run(system, update_fraction, 0x5173_5e1e, 2_000);
    let (allocs, measured) = count_allocs(&cfg);
    assert!(measured > 1_000, "too few transactions measured");
    let per_txn = allocs as f64 / measured as f64;
    let budget = if cfg!(debug_assertions) {
        budget.1
    } else {
        budget.0
    };
    assert!(
        per_txn <= budget,
        "{system} at {update_fraction} updates: {per_txn:.3} allocations a transaction, budget {budget}"
    );
}

#[test]
fn client_server_run_stays_inside_its_allocation_budget() {
    // Measured 7.729 (release) and 13.415 (debug).
    assert_within_budget(SystemKind::ClientServer, 0.20, (8.1, 14.0));
}

#[test]
fn load_sharing_run_stays_inside_its_allocation_budget() {
    // Measured 13.100 (release) and 15.265 (debug).
    assert_within_budget(SystemKind::LoadSharing, 0.05, (13.7, 15.9));
}

#[test]
fn centralized_run_stays_inside_its_allocation_budget() {
    // Measured 4.882 (release) and 7.964 (debug).
    assert_within_budget(SystemKind::Centralized, 0.20, (5.12, 8.35));
}

/// `whole_run` at seed 11 and 20 % updates under `chaos_restart(1.0)`:
/// clients and the server crash and restart throughout, and the fabric
/// drops messages.
fn restart_run(system: SystemKind) -> ExperimentConfig {
    let mut cfg = whole_run(system, 0.20, 11, 900);
    cfg.faults = FaultConfig::chaos_restart(1.0);
    cfg
}

/// Asserts that a crash-restart run of `system` stays within `budget`
/// allocations per measured transaction, `(release, debug)` as for
/// [`assert_within_budget`]. A crash clears the lost state in place and a
/// dropped request's buffer goes back to its pool, so a restart costs
/// what the refill of the kept capacity costs: nothing.
fn assert_restart_within_budget(system: SystemKind, budget: (f64, f64)) {
    let (allocs, measured) = count_allocs(&restart_run(system));
    assert!(measured > 500, "too few transactions measured");
    let per_txn = allocs as f64 / measured as f64;
    let budget = if cfg!(debug_assertions) {
        budget.1
    } else {
        budget.0
    };
    assert!(
        per_txn <= budget,
        "{system} under chaos_restart(1.0): {per_txn:.3} allocations a transaction, budget {budget}"
    );
}

#[test]
fn client_server_restart_run_stays_inside_its_allocation_budget() {
    // Measured 11.506 (release) and 14.126 (debug); 11.892 / 14.297 when
    // the lock table's owner rows regrew their spills after every restart,
    // and 24.908 in release when a crash rebuilt the lock table and a
    // dropped request lost its buffer.
    assert_restart_within_budget(SystemKind::ClientServer, (12.0, 14.8));
}

#[test]
fn load_sharing_restart_run_stays_inside_its_allocation_budget() {
    // Measured 18.575 (release) and 17.645 (debug); 18.955 / 17.816 with
    // owner rows regrown after restarts, 31.160 in release before that.
    assert_restart_within_budget(SystemKind::LoadSharing, (19.5, 18.5));
}

/// Allocations of one blame extraction over a traced CS crash-restart run
/// of `secs` seconds at seed 1 (a quarter of that at 30 clients in a debug
/// build), and the records it read.
fn blame_allocs(secs: u64) -> (u64, usize) {
    let mut cfg = whole_run(SystemKind::ClientServer, 0.20, 1, secs);
    if cfg!(debug_assertions) {
        cfg.runtime.duration = SimDuration::from_secs(secs / 4);
    }
    cfg.faults = FaultConfig::chaos_restart(1.0);
    let (_, trace) =
        run_experiment_traced(&cfg, 1 << 21).expect("the paper's configuration is valid");
    assert_eq!(trace.report.dropped, 0, "the ring must hold the whole run");
    let before = allocs();
    let report = BlameReport::extract(&trace, 10, &MetricsRegistry::disabled());
    let made = allocs() - before;
    assert_eq!(report.worst.len(), 10, "fewer misses than paths asked for");
    (made, trace.records.len())
}

/// Blame extraction gathers every span into one arena sized from the
/// trace's report and attributes each transaction in reused buffers, so
/// what it allocates does not grow with the trace: twice the run, the
/// same count.
#[test]
fn blame_extraction_allocates_a_constant_amount() {
    let (short, short_records) = blame_allocs(900);
    let (long, long_records) = blame_allocs(1_800);
    assert!(long_records > short_records * 3 / 2);
    assert_eq!(short, long, "blame allocations grew with the trace");
    // Measured 33 in release (739 743 and 1 494 879 records) and debug;
    // 55 469 and 119 337 when every transaction gathered its own vectors.
    assert!(short <= 34, "{short} allocations for one extraction");
}

/// Peak live heap bytes of one run of `cfg` above what was live before it.
fn heap_high_water(cfg: &ExperimentConfig) -> i64 {
    // The workload's Zipf CDF cache is shared by the process, so the test
    // thread that fills it first holds the table: a one-second run of the
    // same workload fills it before anything is counted.
    let mut warm = cfg.clone();
    warm.runtime.duration = SimDuration::from_secs(1);
    warm.runtime.warmup = SimDuration::ZERO;
    run_experiment(&warm).expect("the paper's configuration is valid");
    let before = reset_high_water();
    run_experiment(cfg).expect("the paper's configuration is valid");
    high_water() - before
}

/// Asserts that a full-length run of `system` peaks under `budget` live
/// heap bytes: `(release, debug)`, each at most 5 % above the peak
/// measured when it was set.
fn assert_heap_within(system: SystemKind, update_fraction: f64, budget: (i64, i64)) {
    let peak = heap_high_water(&whole_run(system, update_fraction, 0x5173_5e1e, 2_000));
    let budget = if cfg!(debug_assertions) {
        budget.1
    } else {
        budget.0
    };
    assert!(
        peak <= budget,
        "{system} at {update_fraction} updates: heap peaked at {peak} bytes, budget {budget}"
    );
}

#[test]
fn client_server_run_stays_inside_its_heap_budget() {
    // Measured 17 290 644 (release) and 3 913 382 (debug) bytes: each
    // client's cache and lock table are sized to what it holds.
    assert_heap_within(SystemKind::ClientServer, 0.20, (18_100_000, 4_100_000));
}

#[test]
fn load_sharing_run_stays_inside_its_heap_budget() {
    // Measured 14 932 722 (release) and 3 768 546 (debug) bytes.
    assert_heap_within(SystemKind::LoadSharing, 0.05, (15_600_000, 3_950_000));
}

#[test]
fn centralized_run_stays_inside_its_heap_budget() {
    // Measured 12 468 584 (release) and 2 049 850 (debug) bytes.
    assert_heap_within(SystemKind::Centralized, 0.20, (12_990_000, 2_050_000));
}

#[test]
fn same_seed_reaches_the_same_heap_peak() {
    let cfg = whole_run(SystemKind::ClientServer, 0.20, 11, 900);
    assert_eq!(heap_high_water(&cfg), heap_high_water(&cfg));
}

/// Every hash container in the engine uses a fixed hasher, so where a map
/// grows, and with it every allocation, is a function of the seed alone.
#[test]
fn same_seed_allocates_the_same() {
    // The workload's Zipf CDF cache fills once per process: a warm-up run
    // pays for it before anything is compared.
    count_allocs(&restart_run(SystemKind::ClientServer));
    for system in [SystemKind::ClientServer, SystemKind::LoadSharing] {
        let cfg = restart_run(system);
        let (first, _) = count_allocs(&cfg);
        let (second, _) = count_allocs(&cfg);
        assert_eq!(first, second, "{system}: one seed, two allocation counts");
    }
}

#[test]
fn centralized_steady_state_allocates_nothing() {
    let mut cfg = ExperimentConfig::paper(SystemKind::Centralized, 6, 0.0);
    cfg.runtime.duration = SimDuration::from_secs(200);
    cfg.runtime.warmup = SimDuration::from_secs(40);
    cfg.runtime.seed = 0x5173_5e1e;
    let warmup_end = siteselect_types::SimTime::ZERO + cfg.runtime.warmup;

    let mut sim = CentralizedSim::new(cfg);
    sim.prepare();
    // Warm up: capacities (queue slots, lock-table maps, buffer slabs,
    // scratch vectors) reach their steady-state sizes here.
    while sim.now() < warmup_end {
        assert!(sim.step(), "run drained before the warm-up window ended");
    }

    let before = allocs();
    let mut measured = 0u64;
    for _ in 0..200 {
        if !sim.step() {
            break;
        }
        measured += 1;
    }
    let after = allocs();

    assert!(measured >= 100, "too few steady-state events measured: {measured}");
    assert_eq!(
        after - before,
        0,
        "steady-state event processing allocated ({} allocations over {measured} events)",
        after - before
    );
}
