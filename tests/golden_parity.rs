//! Seed-parity golden tests: the exact `RunMetrics` of each system at two
//! fixed seeds, captured (as `Debug` strings, which round-trip every f64
//! field) before the dense data-structure overhaul. Any behavioural drift
//! in the engines -- a different grant order, a changed cache decision, one
//! extra message -- changes at least one field and fails the comparison.
//!
//! Regenerate the literals with the same configuration loop below if an
//! intentional behaviour change lands (document it in CHANGES.md).

use siteselect::core::run_experiment;
use siteselect::types::{ExperimentConfig, FaultConfig, SimDuration, SystemKind};

fn run(system: SystemKind, seed: u64) -> String {
    let mut cfg = ExperimentConfig::paper(system, 6, 0.20);
    cfg.runtime.duration = SimDuration::from_secs(300);
    cfg.runtime.warmup = SimDuration::from_secs(50);
    cfg.runtime.seed = seed;
    format!("{:?}", run_experiment(&cfg).unwrap())
}

#[test]
fn centralized_seed_11_matches_pre_optimization_metrics() {
    assert_eq!(
        run(SystemKind::Centralized, 11),
        r#"RunMetrics { system: Centralized, clients: 6, update_fraction: 0.2, seed: 11, measured: 136, in_time: 134, failures: FailureBreakdown { expired: 0, deadlock: 0, subtask: 0, late: 2, shutdown: 0, site_crash: 0 }, cache: CacheReport { memory_hits: 0, disk_hits: 0, misses: 0 }, response: ResponseReport { shared: OnlineStats { count: 0, mean: 0.0, m2: 0.0, min: 0.0, max: 0.0 }, exclusive: OnlineStats { count: 0, mean: 0.0, m2: 0.0, min: 0.0, max: 0.0 } }, messages: MessageStats { by_kind: [136, 136, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], bytes_by_kind: [17408, 17408, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], transmissions: 272, total_bytes: 34816 }, load_sharing: LoadSharingReport { shipped: 0, decomposed: 0, subtasks: 0, forward_satisfied: 0, windows_opened: 0, h1_rejections: 0 }, faults: FaultReport { crashes: 0, recoveries: 0, messages_dropped: 0, messages_delayed: 0, leases_expired: 0, retries: 0, slow_disk_ios: 0 }, latency: OnlineStats { count: 136, mean: 0.4101725808823529, m2: 23.526898983291108, min: 0.055017, max: 2.593879 }, blocking: OnlineStats { count: 136, mean: 0.0006636323529411767, m2: 0.00808588904161765, min: 0.0, max: 0.090254 }, client_cpu_utilization: 0.0, server_cpu_utilization: 0.15372835785953176, server_buffer: Ratio { hits: 273, total: 1361 } }"#
    );
}

#[test]
fn centralized_seed_12_matches_pre_optimization_metrics() {
    assert_eq!(
        run(SystemKind::Centralized, 12),
        r#"RunMetrics { system: Centralized, clients: 6, update_fraction: 0.2, seed: 12, measured: 163, in_time: 162, failures: FailureBreakdown { expired: 0, deadlock: 0, subtask: 0, late: 1, shutdown: 0, site_crash: 0 }, cache: CacheReport { memory_hits: 0, disk_hits: 0, misses: 0 }, response: ResponseReport { shared: OnlineStats { count: 0, mean: 0.0, m2: 0.0, min: 0.0, max: 0.0 }, exclusive: OnlineStats { count: 0, mean: 0.0, m2: 0.0, min: 0.0, max: 0.0 } }, messages: MessageStats { by_kind: [163, 163, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], bytes_by_kind: [20864, 20864, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], transmissions: 326, total_bytes: 41728 }, load_sharing: LoadSharingReport { shipped: 0, decomposed: 0, subtasks: 0, forward_satisfied: 0, windows_opened: 0, h1_rejections: 0 }, faults: FaultReport { crashes: 0, recoveries: 0, messages_dropped: 0, messages_delayed: 0, leases_expired: 0, retries: 0, slow_disk_ios: 0 }, latency: OnlineStats { count: 163, mean: 0.3691418895705522, m2: 16.495338327928014, min: 0.037466, max: 2.083028 }, blocking: OnlineStats { count: 163, mean: 0.0, m2: 0.0, min: 0.0, max: 0.0 }, client_cpu_utilization: 0.0, server_cpu_utilization: 0.1521050304054054, server_buffer: Ratio { hits: 327, total: 1662 } }"#
    );
}

#[test]
fn client_server_seed_11_matches_pre_optimization_metrics() {
    assert_eq!(
        run(SystemKind::ClientServer, 11),
        r#"RunMetrics { system: ClientServer, clients: 6, update_fraction: 0.2, seed: 11, measured: 136, in_time: 132, failures: FailureBreakdown { expired: 4, deadlock: 0, subtask: 0, late: 0, shutdown: 0, site_crash: 0 }, cache: CacheReport { memory_hits: 180, disk_hits: 0, misses: 1181 }, response: ResponseReport { shared: OnlineStats { count: 925, mean: 0.04246507783783783, m2: 0.760201225410396, min: 0.0, max: 0.163916 }, exclusive: OnlineStats { count: 290, mean: 0.03952314482758624, m2: 0.6490870288219169, min: 0.0, max: 0.647576 } }, messages: MessageStats { by_kind: [0, 0, 1215, 1181, 34, 70, 22, 48, 0, 0, 0, 0, 0, 0, 0, 0], bytes_by_kind: [0, 0, 51936, 2645440, 4352, 8960, 49280, 6144, 0, 0, 0, 0, 0, 0, 0, 0], transmissions: 1491, total_bytes: 2766112 }, load_sharing: LoadSharingReport { shipped: 0, decomposed: 0, subtasks: 0, forward_satisfied: 0, windows_opened: 0, h1_rejections: 0 }, faults: FaultReport { crashes: 0, recoveries: 0, messages_dropped: 0, messages_delayed: 0, leases_expired: 0, retries: 0, slow_disk_ios: 0 }, latency: OnlineStats { count: 132, mean: 1.1733377121212114, m2: 174.39338023411713, min: 0.067307, max: 6.065508 }, blocking: OnlineStats { count: 136, mean: 0.09069605882352937, m2: 5.03229629442553, min: 0.026946, max: 2.222168 }, client_cpu_utilization: 0.0977104595791805, server_cpu_utilization: 0.0, server_buffer: Ratio { hits: 91, total: 1181 } }"#
    );
}

#[test]
fn client_server_seed_12_matches_pre_optimization_metrics() {
    assert_eq!(
        run(SystemKind::ClientServer, 12),
        r#"RunMetrics { system: ClientServer, clients: 6, update_fraction: 0.2, seed: 12, measured: 163, in_time: 159, failures: FailureBreakdown { expired: 3, deadlock: 0, subtask: 0, late: 1, shutdown: 0, site_crash: 0 }, cache: CacheReport { memory_hits: 199, disk_hits: 0, misses: 1463 }, response: ResponseReport { shared: OnlineStats { count: 1169, mean: 0.042745070145423454, m2: 0.9428619472262478, min: 0.0, max: 0.169923 }, exclusive: OnlineStats { count: 324, mean: 0.039528530864197546, m2: 0.2889916933666918, min: 0.0, max: 0.14819 } }, messages: MessageStats { by_kind: [0, 0, 1493, 1462, 31, 84, 37, 47, 0, 0, 0, 0, 0, 0, 0, 0], bytes_by_kind: [0, 0, 63424, 3274880, 3968, 10752, 82880, 6016, 0, 0, 0, 0, 0, 0, 0, 0], transmissions: 1824, total_bytes: 3441920 }, load_sharing: LoadSharingReport { shipped: 0, decomposed: 0, subtasks: 0, forward_satisfied: 0, windows_opened: 0, h1_rejections: 0 }, faults: FaultReport { crashes: 0, recoveries: 0, messages_dropped: 0, messages_delayed: 0, leases_expired: 0, retries: 0, slow_disk_ios: 0 }, latency: OnlineStats { count: 159, mean: 1.172619257861636, m2: 192.44375443028832, min: 0.078217, max: 4.923769 }, blocking: OnlineStats { count: 163, mean: 0.07314549079754605, m2: 0.22190128391473612, min: 0.011355, max: 0.403225 }, client_cpu_utilization: 0.10010585585585587, server_cpu_utilization: 0.0, server_buffer: Ratio { hits: 121, total: 1462 } }"#
    );
}

#[test]
fn load_sharing_seed_11_matches_pre_optimization_metrics() {
    assert_eq!(
        run(SystemKind::LoadSharing, 11),
        r#"RunMetrics { system: LoadSharing, clients: 6, update_fraction: 0.2, seed: 11, measured: 136, in_time: 132, failures: FailureBreakdown { expired: 4, deadlock: 0, subtask: 0, late: 0, shutdown: 0, site_crash: 0 }, cache: CacheReport { memory_hits: 184, disk_hits: 0, misses: 1177 }, response: ResponseReport { shared: OnlineStats { count: 922, mean: 0.042620219088937074, m2: 0.7563482742597452, min: 0.0, max: 0.163916 }, exclusive: OnlineStats { count: 289, mean: 0.03743162629757787, m2: 0.27827083813764025, min: 0.0, max: 0.267 } }, messages: MessageStats { by_kind: [0, 0, 1211, 1177, 34, 66, 18, 48, 37, 0, 0, 0, 3, 3, 17, 17], bytes_by_kind: [0, 0, 51808, 2636480, 4352, 8448, 40320, 6144, 9472, 0, 0, 0, 3072, 768, 2176, 4352], transmissions: 1562, total_bytes: 2767392 }, load_sharing: LoadSharingReport { shipped: 0, decomposed: 3, subtasks: 6, forward_satisfied: 0, windows_opened: 0, h1_rejections: 0 }, faults: FaultReport { crashes: 0, recoveries: 0, messages_dropped: 0, messages_delayed: 0, leases_expired: 0, retries: 0, slow_disk_ios: 0 }, latency: OnlineStats { count: 132, mean: 1.1661884545454548, m2: 172.24920985396275, min: 0.067307, max: 6.065508 }, blocking: OnlineStats { count: 139, mean: 0.08464797841726618, m2: 4.741941533186938, min: 0.0, max: 2.222168 }, client_cpu_utilization: 0.09770973477297897, server_cpu_utilization: 0.0, server_buffer: Ratio { hits: 87, total: 1177 } }"#
    );
}

#[test]
fn load_sharing_seed_12_matches_pre_optimization_metrics() {
    assert_eq!(
        run(SystemKind::LoadSharing, 12),
        r#"RunMetrics { system: LoadSharing, clients: 6, update_fraction: 0.2, seed: 12, measured: 163, in_time: 159, failures: FailureBreakdown { expired: 3, deadlock: 0, subtask: 0, late: 1, shutdown: 0, site_crash: 0 }, cache: CacheReport { memory_hits: 199, disk_hits: 0, misses: 1463 }, response: ResponseReport { shared: OnlineStats { count: 1169, mean: 0.0427464379811805, m2: 0.9422388201277545, min: 0.0, max: 0.169923 }, exclusive: OnlineStats { count: 324, mean: 0.03952741049382717, m2: 0.28873161886440424, min: 0.0, max: 0.14819 } }, messages: MessageStats { by_kind: [0, 0, 1493, 1462, 31, 84, 37, 47, 51, 0, 0, 0, 0, 0, 15, 15], bytes_by_kind: [0, 0, 63424, 3274880, 3968, 10752, 82880, 6016, 13056, 0, 0, 0, 0, 0, 1920, 3840], transmissions: 1905, total_bytes: 3460736 }, load_sharing: LoadSharingReport { shipped: 0, decomposed: 0, subtasks: 0, forward_satisfied: 0, windows_opened: 0, h1_rejections: 0 }, faults: FaultReport { crashes: 0, recoveries: 0, messages_dropped: 0, messages_delayed: 0, leases_expired: 0, retries: 0, slow_disk_ios: 0 }, latency: OnlineStats { count: 159, mean: 1.1727286981132077, m2: 192.4428240838814, min: 0.078217, max: 4.923769 }, blocking: OnlineStats { count: 163, mean: 0.07313998773006135, m2: 0.22174177574197534, min: 0.01156, max: 0.403225 }, client_cpu_utilization: 0.10010511993243244, server_cpu_utilization: 0.0, server_buffer: Ratio { hits: 121, total: 1462 } }"#
    );
}

/// Same parity pin, but with fault injection switched on: crashes, drops,
/// delays, lease expiries and server restarts are all seed-deterministic,
/// so the fault path must replay bit-identically too — drift hiding behind
/// chaos is exactly what this catches. A `mean_time_to_server_crash`
/// profile must actually crash and rejoin the server within `secs`.
fn run_chaotic(system: SystemKind, seed: u64, faults: FaultConfig, secs: u64) -> String {
    let mut cfg = ExperimentConfig::paper(system, 6, 0.20);
    cfg.runtime.duration = SimDuration::from_secs(secs);
    cfg.runtime.warmup = SimDuration::from_secs(50);
    cfg.runtime.seed = seed;
    cfg.faults = faults;
    let m = run_experiment(&cfg).unwrap();
    if !faults.mean_time_to_server_crash.is_zero() {
        assert!(m.faults.crashes > 0, "{system}: no crash in {secs} s");
        assert!(m.faults.recoveries > 0, "{system}: no rejoin in {secs} s");
    }
    format!("{m:?}")
}

#[test]
fn load_sharing_chaos_seed_11_matches_pinned_metrics() {
    assert_eq!(
        run_chaotic(SystemKind::LoadSharing, 11, FaultConfig::chaos(0.5), 300),
        r#"RunMetrics { system: LoadSharing, clients: 6, update_fraction: 0.2, seed: 11, measured: 136, in_time: 127, failures: FailureBreakdown { expired: 7, deadlock: 0, subtask: 0, late: 1, shutdown: 0, site_crash: 1 }, cache: CacheReport { memory_hits: 161, disk_hits: 0, misses: 1187 }, response: ResponseReport { shared: OnlineStats { count: 927, mean: 0.12654815965480032, m2: 93.30972585608838, min: 0.0, max: 5.239105 }, exclusive: OnlineStats { count: 288, mean: 0.17956080555555548, m2: 106.11561605934708, min: 0.0, max: 5.960154 } }, messages: MessageStats { by_kind: [0, 0, 1397, 1250, 32, 64, 18, 43, 36, 0, 0, 0, 1, 1, 17, 16], bytes_by_kind: [0, 0, 74848, 2800000, 4096, 8192, 40320, 5504, 9216, 0, 0, 0, 1024, 256, 2176, 4096], transmissions: 1794, total_bytes: 2949728 }, load_sharing: LoadSharingReport { shipped: 0, decomposed: 1, subtasks: 2, forward_satisfied: 0, windows_opened: 355, h1_rejections: 0 }, faults: FaultReport { crashes: 1, recoveries: 1, messages_dropped: 114, messages_delayed: 2140, leases_expired: 7, retries: 225, slow_disk_ios: 0 }, latency: OnlineStats { count: 127, mean: 1.6425997559055123, m2: 313.4660849417835, min: 0.081892, max: 7.661941 }, blocking: OnlineStats { count: 133, mean: 0.5325975413533833, m2: 158.325913495469, min: 0.0, max: 5.960154 }, client_cpu_utilization: 0.09489248560354376, server_cpu_utilization: 0.0, server_buffer: Ratio { hits: 160, total: 1250 } }"#
    );
}

#[test]
fn client_server_chaos_seed_11_matches_pinned_metrics() {
    assert_eq!(
        run_chaotic(SystemKind::ClientServer, 11, FaultConfig::chaos(0.5), 300),
        r#"RunMetrics { system: ClientServer, clients: 6, update_fraction: 0.2, seed: 11, measured: 136, in_time: 130, failures: FailureBreakdown { expired: 6, deadlock: 0, subtask: 0, late: 0, shutdown: 0, site_crash: 0 }, cache: CacheReport { memory_hits: 167, disk_hits: 0, misses: 1194 }, response: ResponseReport { shared: OnlineStats { count: 933, mean: 0.0997446752411576, m2: 63.87710918929061, min: 0.0, max: 5.585716 }, exclusive: OnlineStats { count: 290, mean: 0.0970575103448276, m2: 40.49758620366449, min: 0.0, max: 5.966491 } }, messages: MessageStats { by_kind: [0, 0, 1331, 1257, 33, 66, 20, 43, 0, 0, 0, 0, 0, 0, 0, 0], bytes_by_kind: [0, 0, 65728, 2815680, 4224, 8448, 44800, 5504, 0, 0, 0, 0, 0, 0, 0, 0], transmissions: 1660, total_bytes: 2944384 }, load_sharing: LoadSharingReport { shipped: 0, decomposed: 0, subtasks: 0, forward_satisfied: 0, windows_opened: 0, h1_rejections: 0 }, faults: FaultReport { crashes: 1, recoveries: 1, messages_dropped: 104, messages_delayed: 1999, leases_expired: 6, retries: 134, slow_disk_ios: 0 }, latency: OnlineStats { count: 130, mean: 1.5309962461538456, m2: 241.29084609101218, min: 0.076762, max: 7.121994 }, blocking: OnlineStats { count: 133, mean: 0.4274222030075188, m2: 86.59217535684955, min: 0.031959, max: 5.966491 }, client_cpu_utilization: 0.0970147995570321, server_cpu_utilization: 0.0, server_buffer: Ratio { hits: 165, total: 1257 } }"#
    );
}

#[test]
fn centralized_chaos_seed_11_matches_pinned_metrics() {
    assert_eq!(
        run_chaotic(SystemKind::Centralized, 11, FaultConfig::chaos(0.5), 300),
        r#"RunMetrics { system: Centralized, clients: 6, update_fraction: 0.2, seed: 11, measured: 136, in_time: 124, failures: FailureBreakdown { expired: 0, deadlock: 0, subtask: 0, late: 2, shutdown: 0, site_crash: 10 }, cache: CacheReport { memory_hits: 0, disk_hits: 0, misses: 0 }, response: ResponseReport { shared: OnlineStats { count: 0, mean: 0.0, m2: 0.0, min: 0.0, max: 0.0 }, exclusive: OnlineStats { count: 0, mean: 0.0, m2: 0.0, min: 0.0, max: 0.0 } }, messages: MessageStats { by_kind: [136, 130, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], bytes_by_kind: [17408, 16640, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], transmissions: 266, total_bytes: 34048 }, load_sharing: LoadSharingReport { shipped: 0, decomposed: 0, subtasks: 0, forward_satisfied: 0, windows_opened: 0, h1_rejections: 0 }, faults: FaultReport { crashes: 0, recoveries: 0, messages_dropped: 17, messages_delayed: 315, leases_expired: 0, retries: 0, slow_disk_ios: 0 }, latency: OnlineStats { count: 126, mean: 0.4225929603174603, m2: 22.928023917528797, min: 0.063678, max: 2.607262 }, blocking: OnlineStats { count: 130, mean: 0.0007222307692307697, m2: 0.00874752185307692, min: 0.0, max: 0.09389 }, client_cpu_utilization: 0.0, server_cpu_utilization: 0.14828617725752508, server_buffer: Ratio { hits: 245, total: 1305 } }"#
    );
}

/// The crash-restart profile: each system's server crashes and rejoins
/// within the run, so its crash schedule, the losers it aborts and the
/// rejoin sequence are all pinned.
#[test]
fn centralized_restart_seed_11_matches_pinned_metrics() {
    assert_eq!(
        run_chaotic(
            SystemKind::Centralized,
            11,
            FaultConfig::chaos_restart(1.0),
            900
        ),
        r#"RunMetrics { system: Centralized, clients: 6, update_fraction: 0.2, seed: 11, measured: 489, in_time: 318, failures: FailureBreakdown { expired: 2, deadlock: 0, subtask: 0, late: 3, shutdown: 0, site_crash: 166 }, cache: CacheReport { memory_hits: 0, disk_hits: 0, misses: 0 }, response: ResponseReport { shared: OnlineStats { count: 0, mean: 0.0, m2: 0.0, min: 0.0, max: 0.0 }, exclusive: OnlineStats { count: 0, mean: 0.0, m2: 0.0, min: 0.0, max: 0.0 } }, messages: MessageStats { by_kind: [489, 362, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], bytes_by_kind: [62592, 46336, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], transmissions: 851, total_bytes: 108928 }, load_sharing: LoadSharingReport { shipped: 0, decomposed: 0, subtasks: 0, forward_satisfied: 0, windows_opened: 0, h1_rejections: 0 }, faults: FaultReport { crashes: 3, recoveries: 3, messages_dropped: 173, messages_delayed: 744, leases_expired: 0, retries: 0, slow_disk_ios: 0 }, latency: OnlineStats { count: 321, mean: 0.3552844267912772, m2: 23.492215696114524, min: 0.049151, max: 1.597943 }, blocking: OnlineStats { count: 361, mean: 6.17285318559557e-5, m2: 0.0004952010973961224, min: 0.0, max: 0.022284 }, client_cpu_utilization: 0.0, server_cpu_utilization: 0.10656447502774694, server_buffer: Ratio { hits: 507, total: 3605 } }"#
    );
}

#[test]
fn client_server_restart_seed_11_matches_pinned_metrics() {
    assert_eq!(
        run_chaotic(
            SystemKind::ClientServer,
            11,
            FaultConfig::chaos_restart(1.0),
            900
        ),
        r#"RunMetrics { system: ClientServer, clients: 6, update_fraction: 0.2, seed: 11, measured: 489, in_time: 339, failures: FailureBreakdown { expired: 65, deadlock: 0, subtask: 0, late: 6, shutdown: 0, site_crash: 79 }, cache: CacheReport { memory_hits: 739, disk_hits: 0, misses: 3630 }, response: ResponseReport { shared: OnlineStats { count: 2446, mean: 0.21255696811120203, m2: 488.42415227435583, min: 0.0, max: 6.262549 }, exclusive: OnlineStats { count: 762, mean: 0.30075257086614166, m2: 563.744443376385, min: 0.0, max: 6.010111 } }, messages: MessageStats { by_kind: [0, 0, 5993, 3485, 95, 211, 69, 124, 0, 0, 0, 0, 0, 0, 0, 0], bytes_by_kind: [0, 0, 450400, 7806400, 12160, 27008, 154560, 15872, 0, 0, 0, 0, 0, 0, 0, 0], transmissions: 6678, total_bytes: 8466400 }, load_sharing: LoadSharingReport { shipped: 0, decomposed: 0, subtasks: 0, forward_satisfied: 0, windows_opened: 0, h1_rejections: 0 }, faults: FaultReport { crashes: 10, recoveries: 10, messages_dropped: 1975, messages_delayed: 5221, leases_expired: 38, retries: 2263, slow_disk_ios: 0 }, latency: OnlineStats { count: 339, mean: 1.9767714955752205, m2: 989.1983354058092, min: 0.072339, max: 8.519355 }, blocking: OnlineStats { count: 355, mean: 0.9144248478873231, m2: 653.076966616265, min: 0.03074, max: 6.262549 }, client_cpu_utilization: 0.07232481284606865, server_cpu_utilization: 0.0, server_buffer: Ratio { hits: 588, total: 3489 } }"#
    );
}

#[test]
fn load_sharing_restart_seed_11_matches_pinned_metrics() {
    assert_eq!(
        run_chaotic(
            SystemKind::LoadSharing,
            11,
            FaultConfig::chaos_restart(1.0),
            900
        ),
        r#"RunMetrics { system: LoadSharing, clients: 6, update_fraction: 0.2, seed: 11, measured: 489, in_time: 340, failures: FailureBreakdown { expired: 61, deadlock: 1, subtask: 1, late: 6, shutdown: 0, site_crash: 80 }, cache: CacheReport { memory_hits: 735, disk_hits: 0, misses: 3552 }, response: ResponseReport { shared: OnlineStats { count: 2416, mean: 0.21328771440397348, m2: 585.4956953161932, min: 0.0, max: 6.003807 }, exclusive: OnlineStats { count: 747, mean: 0.3387096813922358, m2: 610.8175732667661, min: 0.0, max: 6.870292 } }, messages: MessageStats { by_kind: [0, 0, 5756, 3468, 100, 191, 63, 112, 118, 0, 0, 0, 9, 9, 51, 44], bytes_by_kind: [0, 0, 426976, 7768320, 12800, 24448, 141120, 14336, 30208, 0, 0, 0, 9216, 2304, 6528, 11264], transmissions: 6712, total_bytes: 8447520 }, load_sharing: LoadSharingReport { shipped: 0, decomposed: 8, subtasks: 17, forward_satisfied: 0, windows_opened: 0, h1_rejections: 2 }, faults: FaultReport { crashes: 10, recoveries: 10, messages_dropped: 1881, messages_delayed: 5336, leases_expired: 31, retries: 2117, slow_disk_ios: 0 }, latency: OnlineStats { count: 340, mean: 2.0148639558823533, m2: 1071.0582987479572, min: 0.089496, max: 8.640255 }, blocking: OnlineStats { count: 369, mean: 0.9457757913279136, m2: 739.4873297110789, min: 0.0, max: 6.870292 }, client_cpu_utilization: 0.07203880897009966, server_cpu_utilization: 0.0, server_buffer: Ratio { hits: 598, total: 3472 } }"#
    );
}
