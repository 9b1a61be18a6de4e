//! A judged run — traced, then put through all four oracles — stays inside
//! an allocation budget, so a nested map that creeps back into the sink or
//! an oracle fails a test and not only the benchmark's `check_seeds`
//! reading. The runs are the explorer's: 8 clients × 150 s at 20 % updates.
//! The budgets sit at most 5 % above what the one-pass oracles over hashed
//! state measure with an event queue that builds no bucket vectors and a
//! cycle search that keeps one stack (CS 6.363, LS 7.137 in a release and
//! a debug build alike); 15.078 and 15.873 before those two, and the locked
//! sink and tree-map oracles before them measured 59.8 and 63.3.

#[path = "../../core/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocs;
use siteselect_check::{check_trace, TRACE_CAPACITY};
use siteselect_core::run_experiment_traced;
use siteselect_types::{ExperimentConfig, SimDuration, SimTime, SystemKind};

/// Allocations of one traced run of `system` plus its verdict, per
/// transaction the run measured.
fn judged_allocs_per_txn(system: SystemKind) -> f64 {
    let mut cfg = ExperimentConfig::paper(system, 8, 0.20);
    cfg.runtime.duration = SimDuration::from_secs(150);
    cfg.runtime.warmup = SimDuration::from_secs(30);
    cfg.runtime.seed = 0x5173_5e1e;
    let before = allocs();
    let (metrics, trace) =
        run_experiment_traced(&cfg, TRACE_CAPACITY).expect("the configuration is valid");
    let verdict = check_trace(&trace, &metrics, SimTime::ZERO + cfg.runtime.warmup);
    let after = allocs();
    verdict.expect("a clean 8-client run passes every oracle");
    assert!(metrics.measured > 20, "too few transactions measured");
    (after - before) as f64 / metrics.measured as f64
}

#[test]
fn judged_client_server_run_stays_inside_its_allocation_budget() {
    let per_txn = judged_allocs_per_txn(SystemKind::ClientServer);
    assert!(
        per_txn <= 6.68,
        "judged CS run: {per_txn:.1} allocations a transaction"
    );
}

#[test]
fn judged_load_sharing_run_stays_inside_its_allocation_budget() {
    let per_txn = judged_allocs_per_txn(SystemKind::LoadSharing);
    assert!(
        per_txn <= 7.49,
        "judged LS run: {per_txn:.1} allocations a transaction"
    );
}
