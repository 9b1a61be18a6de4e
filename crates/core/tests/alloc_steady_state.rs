//! Asserts the engines' allocation discipline (DESIGN.md §15).
//!
//! A counting `#[global_allocator]` (`support/counting_alloc.rs`) wraps the
//! system allocator for this test binary only. Two kinds of test use it:
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
//!   the full duration.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocs;
use siteselect_core::{run_experiment, CentralizedSim};
use siteselect_types::{ExperimentConfig, SimDuration, SystemKind};

/// Allocations of one whole run of `system` per transaction it measured.
fn allocs_per_txn(system: SystemKind, update_fraction: f64) -> f64 {
    let clients = if cfg!(debug_assertions) { 30 } else { 100 };
    let mut cfg = ExperimentConfig::paper(system, clients, update_fraction);
    if cfg!(debug_assertions) {
        cfg.runtime.duration = SimDuration::from_secs(400);
        cfg.runtime.warmup = SimDuration::from_secs(40);
    }
    cfg.runtime.seed = 0x5173_5e1e;
    let before = allocs();
    let metrics = run_experiment(&cfg).expect("the paper's configuration is valid");
    let after = allocs();
    assert!(metrics.measured > 1_000, "too few transactions measured");
    (after - before) as f64 / metrics.measured as f64
}

#[test]
fn client_server_run_stays_inside_its_allocation_budget() {
    let per_txn = allocs_per_txn(SystemKind::ClientServer, 0.20);
    assert!(
        per_txn <= 30.0,
        "CS at 20 % updates: {per_txn:.1} allocations a transaction"
    );
}

#[test]
fn load_sharing_run_stays_inside_its_allocation_budget() {
    let per_txn = allocs_per_txn(SystemKind::LoadSharing, 0.05);
    assert!(
        per_txn <= 30.0,
        "LS at 5 % updates: {per_txn:.1} allocations a transaction"
    );
}

#[test]
fn centralized_run_stays_inside_its_allocation_budget() {
    let per_txn = allocs_per_txn(SystemKind::Centralized, 0.20);
    assert!(
        per_txn <= 10.0,
        "CE at 20 % updates: {per_txn:.1} allocations a transaction"
    );
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
