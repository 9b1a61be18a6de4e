//! Integration tests of the threaded cluster: the engine's own sites on OS
//! threads, judged by the same oracles as a simulated run.

use std::collections::BTreeMap;

use siteselect::check::check_trace;
use siteselect::cluster::{Cluster, ClusterConfig, ClusterReport};
use siteselect::obs::{Event, TraceData};
use siteselect::types::{ClientId, ExperimentConfig, SimDuration, SimTime, SiteId, SystemKind};

/// `system` at `clients` clients and 20 % updates for 100 simulated
/// seconds, measured from the start.
fn config(system: SystemKind, clients: u16) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        experiment: ExperimentConfig::paper(system, clients, 0.2),
        ..ClusterConfig::default()
    };
    cfg.experiment.runtime.duration = SimDuration::from_secs(100);
    cfg.experiment.runtime.warmup = SimDuration::ZERO;
    cfg
}

/// Runs `cfg` and holds its merged trace to the four oracles.
fn judged(cfg: ClusterConfig) -> ClusterReport {
    let report = Cluster::run(cfg).expect("cluster runs");
    if let Err(v) = check_trace(&report.trace, &report.metrics, SimTime::ZERO) {
        panic!("{v}\n{report}");
    }
    assert!(report.is_balanced(), "{report}");
    report
}

/// Outcomes each submitted transaction got, by raw id; every submission
/// is in the map.
fn outcomes(trace: &TraceData) -> BTreeMap<u64, u32> {
    let mut out = BTreeMap::new();
    for rec in &trace.records {
        match rec.event {
            Event::TxnSubmit { txn, .. } => {
                out.entry(txn.as_u64()).or_insert(0);
            }
            Event::Outcome { txn, .. } => *out.entry(txn.as_u64()).or_insert(0) += 1,
            _ => {}
        }
    }
    out
}

#[test]
fn default_cluster_is_serializable_and_balanced() {
    let report = judged(ClusterConfig::default());
    assert!(report.generated > 0);
    let outcomes = outcomes(&report.trace);
    assert_eq!(outcomes.len() as u64, report.generated);
    assert!(
        outcomes.values().all(|&n| n == 1),
        "a transaction with 0 or 2 outcomes"
    );
}

#[test]
fn extreme_contention_stays_serializable() {
    // Every client fights over four objects with mostly-update
    // transactions: the worst case for callback locking.
    let mut cfg = config(SystemKind::ClientServer, 8);
    let exp = &mut cfg.experiment;
    exp.database.num_objects = 4;
    exp.workload.access_pattern.hot_region_objects = 4;
    exp.workload.update_fraction = 0.9;
    exp.workload.mean_objects_per_txn = 2.0;
    let report = judged(cfg);
    assert!(report.recalls() > 0, "{report}");
}

#[test]
fn read_only_workload_never_recalls_data() {
    let mut cfg = config(SystemKind::ClientServer, 4);
    cfg.experiment.workload.update_fraction = 0.0;
    let report = judged(cfg);
    // Readers share locks: nothing is ever called back or downgraded.
    assert_eq!((report.recalls(), report.downgrades()), (0, 0), "{report}");
}

#[test]
fn final_store_versions_match_committed_writes() {
    // Writes to one object are totally ordered: no two committed units
    // hold an exclusive lock on it over overlapping spans (an overlap
    // would let one update overwrite the other unseen).
    let mut cfg = config(SystemKind::ClientServer, 6);
    cfg.experiment.workload.update_fraction = 0.5;
    cfg.experiment.database.num_objects = 32;
    cfg.experiment.workload.access_pattern.hot_region_objects = 32;
    let report = judged(cfg);
    let ends: BTreeMap<u64, SimTime> = report
        .trace
        .records
        .iter()
        .filter_map(|r| match r.event {
            Event::UnitEnd {
                txn,
                committed: true,
            } => Some((txn.as_u64(), r.time)),
            _ => None,
        })
        .collect();
    let mut writes: BTreeMap<u32, Vec<(SimTime, SimTime)>> = BTreeMap::new();
    for rec in &report.trace.records {
        if let Event::LockHeld {
            txn,
            object,
            exclusive: true,
        } = rec.event
        {
            if let Some(&end) = ends.get(&txn.as_u64()) {
                writes.entry(object.0).or_default().push((rec.time, end));
            }
        }
    }
    assert!(!writes.is_empty(), "no committed write");
    for (object, mut spans) in writes {
        spans.sort_unstable();
        for pair in spans.windows(2) {
            assert!(
                pair[0].1 <= pair[1].0,
                "obj#{object}: writes overlap: {pair:?}"
            );
        }
    }
}

#[test]
fn per_run_reports_are_reasonable() {
    let report = judged(config(SystemKind::LoadSharing, 2));
    assert!(report.success_percent() <= 100.0);
    let text = report.to_string();
    assert!(text.contains("cluster:"), "{text}");
    assert!(text.contains("server:"), "{text}");
}

#[test]
fn traced_run_merges_one_complete_sink_per_worker() {
    let clients = 4u16;
    let report = judged(config(SystemKind::ClientServer, clients));
    let trace = &report.trace;
    // The shutdown merge orders the site-local buffers by (time, site, seq).
    assert!(trace
        .records
        .windows(2)
        .all(|w| (w[0].time, w[0].site, w[0].seq) < (w[1].time, w[1].site, w[1].seq)));
    // Every site thread built its own sink and emitted only at its own
    // site, so each site's sequence numbers are exactly 0..n, and the
    // merged report counts what the sites emitted, no more and no less.
    let mut events = 0;
    let sites =
        std::iter::once(SiteId::Server).chain((0..clients).map(|i| SiteId::Client(ClientId(i))));
    for site in sites {
        let seqs: Vec<u64> = trace
            .records
            .iter()
            .filter(|r| r.site == site)
            .map(|r| r.seq)
            .collect();
        assert!(!seqs.is_empty(), "{site} emitted nothing");
        assert!(
            seqs.iter().copied().eq(0..seqs.len() as u64),
            "{site}: {seqs:?}"
        );
        assert_eq!(trace.report.per_site[&site].events, seqs.len() as u64);
        events += seqs.len() as u64;
    }
    assert_eq!(
        trace.records.len() as u64,
        events,
        "a record from an unknown site"
    );
    assert_eq!(trace.report.events, events);
    assert_eq!(trace.report.dropped, 0);
}

/// At one seed the simulator and the threads run the same transactions:
/// both submit the same ids, and each gives every one exactly one outcome.
#[test]
fn threads_and_simulator_settle_the_same_transactions() {
    for system in [
        SystemKind::Centralized,
        SystemKind::ClientServer,
        SystemKind::LoadSharing,
    ] {
        let cfg = config(system, 8);
        let (metrics, simulated) = siteselect::core::run_experiment_traced(
            &cfg.experiment,
            siteselect::check::TRACE_CAPACITY,
        )
        .expect("simulator runs");
        let threaded = judged(cfg);
        let (sim, thr) = (outcomes(&simulated), outcomes(&threaded.trace));
        assert!(
            sim.values().chain(thr.values()).all(|&n| n == 1),
            "{system}"
        );
        assert!(
            sim.keys().eq(thr.keys()),
            "{system}: different transactions"
        );
        assert_eq!(metrics.measured, threaded.metrics.measured, "{system}");
    }
}
