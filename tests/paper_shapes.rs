//! Qualitative-shape tests: the relationships the paper's evaluation
//! reports must hold on scaled-down runs.
//!
//! The cluster sizes here are smaller than the paper's (these run in CI,
//! in debug mode); the centralized server's speed advantage is reduced
//! accordingly so that its saturation point falls inside the tested range.

use siteselect::core::{run_experiment, RunMetrics};
use siteselect::types::{ExperimentConfig, SimDuration, SystemKind};

/// A scaled-down experiment: server only 1.5x a client, so CE saturates
/// around 15 clients instead of 40.
fn scaled(system: SystemKind, clients: u16, updates: f64) -> RunMetrics {
    let mut cfg = ExperimentConfig::paper(system, clients, updates);
    cfg.cpu.server_speed = 1.5;
    cfg.runtime.duration = SimDuration::from_secs(400);
    cfg.runtime.warmup = SimDuration::from_secs(80);
    run_experiment(&cfg).expect("valid config")
}

#[test]
fn centralized_wins_small_clusters_then_collapses() {
    // Paper Figure 3: "For a small number of clients, the centralized
    // system performs better than the CS-RTDBS. [...] as the number of
    // clients increases, the performance of the CE-RTDBS deteriorates
    // rapidly."
    let ce_small = scaled(SystemKind::Centralized, 4, 0.01);
    let cs_small = scaled(SystemKind::ClientServer, 4, 0.01);
    assert!(
        ce_small.success_percent() > cs_small.success_percent(),
        "CE {:.1}% should beat CS {:.1}% on a small cluster",
        ce_small.success_percent(),
        cs_small.success_percent()
    );

    let ce_big = scaled(SystemKind::Centralized, 30, 0.01);
    assert!(
        ce_small.success_percent() - ce_big.success_percent() > 20.0,
        "CE must collapse under load: {:.1}% -> {:.1}%",
        ce_small.success_percent(),
        ce_big.success_percent()
    );
}

#[test]
fn client_server_degrades_gently() {
    // Paper: "the CS-RTDBS and LS-CS-RTDBS show very little deterioration."
    let cs_small = scaled(SystemKind::ClientServer, 4, 0.01);
    let cs_big = scaled(SystemKind::ClientServer, 30, 0.01);
    let drop = cs_small.success_percent() - cs_big.success_percent();
    assert!(
        drop < 10.0,
        "CS degraded too fast: {:.1}% -> {:.1}%",
        cs_small.success_percent(),
        cs_big.success_percent()
    );
}

#[test]
fn client_server_beats_centralized_at_scale() {
    let ce = scaled(SystemKind::Centralized, 30, 0.05);
    let cs = scaled(SystemKind::ClientServer, 30, 0.05);
    let ls = scaled(SystemKind::LoadSharing, 30, 0.05);
    assert!(cs.success_percent() > ce.success_percent());
    assert!(ls.success_percent() > ce.success_percent());
}

#[test]
fn updates_hurt_the_client_server_systems_more() {
    // Paper conclusion (iii): "An increase in the percentage of updates
    // affects the client-server systems more than the centralized one."
    let cs_low = scaled(SystemKind::ClientServer, 20, 0.01);
    let cs_high = scaled(SystemKind::ClientServer, 20, 0.20);
    let ce_low = scaled(SystemKind::Centralized, 20, 0.01);
    let ce_high = scaled(SystemKind::Centralized, 20, 0.20);
    let cs_drop = cs_low.success_percent() - cs_high.success_percent();
    let ce_drop = ce_low.success_percent() - ce_high.success_percent();
    assert!(
        cs_drop > ce_drop - 0.5,
        "updates should hurt CS (drop {cs_drop:.2}pp) at least as much as CE (drop {ce_drop:.2}pp)"
    );
}

#[test]
fn load_sharing_beats_plain_client_server_under_update_load() {
    // Paper conclusion (ii): the LS system "significantly" improves on the
    // CS system under the Localized-RW pattern with 20% updates.
    let cs = scaled(SystemKind::ClientServer, 30, 0.20);
    let ls = scaled(SystemKind::LoadSharing, 30, 0.20);
    assert!(
        ls.success_percent() >= cs.success_percent(),
        "LS {:.2}% must not lose to CS {:.2}% at 20% updates",
        ls.success_percent(),
        cs.success_percent()
    );
}

#[test]
fn exclusive_responses_slower_than_shared() {
    // Paper Table 3: exclusive requests take an order of magnitude longer
    // than shared ones (callbacks must complete first).
    let cs = scaled(SystemKind::ClientServer, 20, 0.20);
    assert!(
        cs.response.exclusive.mean() > cs.response.shared.mean(),
        "EL {:.4}s should exceed SL {:.4}s",
        cs.response.exclusive.mean(),
        cs.response.shared.mean()
    );
}

#[test]
fn cache_hit_rate_declines_with_update_fraction() {
    // Paper Table 2: hit rates fall as the update percentage rises
    // (callbacks invalidate cached copies).
    let low = scaled(SystemKind::ClientServer, 20, 0.01);
    let high = scaled(SystemKind::ClientServer, 20, 0.20);
    assert!(
        low.cache.hit_percent() > high.cache.hit_percent(),
        "hit rate must drop with updates: {:.2}% vs {:.2}%",
        low.cache.hit_percent(),
        high.cache.hit_percent()
    );
}

#[test]
fn forward_lists_reduce_server_bound_messages() {
    // Paper Table 4: requests satisfied via forward lists reduce recall
    // and return traffic relative to CS.
    use siteselect::core::{script, Simulator};
    use siteselect::net::MessageKind;
    // A chain carries a window's writers (its readers are granted
    // together), so a window of writers satisfies requests client to
    // client: Figure 2's script with three requesters...
    let (cfg, specs) = script::figure(2, 3);
    let (writers, _) = Simulator::new(cfg).run_script(specs);
    assert!(writers.messages.count(MessageKind::ObjectForward) > 0);
    // ...and over a generated run LS sends no more objects from the server
    // than CS.
    let mut cfg = ExperimentConfig::paper(SystemKind::LoadSharing, 30, 0.20);
    cfg.cpu.server_speed = 1.5;
    cfg.runtime.duration = SimDuration::from_secs(400);
    cfg.runtime.warmup = SimDuration::from_secs(80);
    let ls = run_experiment(&cfg).unwrap();
    cfg.system = SystemKind::ClientServer;
    cfg.server = siteselect::types::ServerConfig::client_server();
    let cs = run_experiment(&cfg).unwrap();
    assert!(
        ls.messages.count(MessageKind::ObjectSend)
            <= cs.messages.count(MessageKind::ObjectSend),
        "LS {} server sends vs CS {}",
        ls.messages.count(MessageKind::ObjectSend),
        cs.messages.count(MessageKind::ObjectSend)
    );
}
