//! Hand-written runs of the real sites (`Simulator::run_script`): the
//! message counts behind Figures 1 and 2, and three witnesses of the
//! server's ordering rule (a grant and a recall never cross for one object
//! and client) small enough to read by eye, each judged by the four
//! oracles; plus generated runs that show the rule on a small hot
//! database, and the two fault-path failures still open.

use siteselect_check::{check_config, check_trace, Violation, TRACE_CAPACITY};
use siteselect_core::{script, Delivered, RunMetrics, Simulator};
use siteselect_net::MessageKind;
use siteselect_obs::EventSink;
use siteselect_types::{
    AccessSpec, ClientId, ExperimentConfig, FaultConfig, ObjectId, SimDuration, SimTime, SiteId,
    SystemKind, TransactionId, TransactionSpec,
};

/// Runs `specs` traced and returns the metrics, the delivered messages and
/// the four oracles' verdict.
fn judged(
    cfg: ExperimentConfig,
    specs: Vec<TransactionSpec>,
) -> (RunMetrics, Vec<Delivered>, Result<(), Violation>) {
    let warmup_end = SimTime::ZERO + cfg.runtime.warmup;
    let sink = EventSink::enabled(TRACE_CAPACITY);
    let mut sim = Simulator::new(cfg);
    sim.attach_sink(sink.clone());
    let (metrics, delivered) = sim.run_script(specs);
    let trace = sink.finish().expect("the sink was enabled");
    let verdict = check_trace(&trace, &metrics, warmup_end);
    (metrics, delivered, verdict)
}

/// The engine's cost of moving one object through a holder and `n`
/// requesters, against PAPER.md §3.4's `4k` (callback locking, worst case)
/// and `2k+1` (grouped locks) for `k = n + 1` clients. Every run commits
/// every transaction in time and passes every oracle, and the delivered
/// messages are exactly the ones the fabric counted, kind by kind.
#[test]
fn figure_scripts_pin_their_message_counts_at_one_to_four_requesters() {
    // Figure 1 (CS): 4k − 2 — no final return, the last writer keeps its
    // copy cached. Figure 2 (LS): the first requester is served by a plain
    // recall, and every requester also gets a conflict report.
    for (figure, counts) in [(1, [6, 10, 14, 18]), (2, [7, 12, 15, 18])] {
        for (n, want) in (1..=4u16).zip(counts) {
            let (cfg, specs) = script::figure(figure, n);
            let (metrics, delivered, verdict) = judged(cfg, specs);
            let case = format!("figure {figure}, {n} requesters");
            assert_eq!(
                delivered.len(),
                want,
                "{case}:\n{}",
                script::render(&delivered)
            );
            verdict.unwrap_or_else(|v| panic!("{case}: {v}"));
            assert_eq!(metrics.in_time, u64::from(n) + 1, "{case}");
            for kind in MessageKind::ALL {
                let seen = delivered.iter().filter(|d| d.kind == kind).count();
                assert_eq!(
                    seen as u64,
                    metrics.messages.count(kind),
                    "{case}: {kind:?}"
                );
            }
        }
    }
}

/// Figure 2's printed script is the smallest with a client-to-client hop.
#[test]
fn figure_two_shows_forward_hops_from_three_requesters_on() {
    let hops = |n| {
        let (cfg, specs) = script::figure(2, n);
        let (_, delivered) = Simulator::new(cfg).run_script(specs);
        let hops = delivered
            .iter()
            .filter(|d| d.kind == MessageKind::ObjectForward);
        hops.count()
    };
    assert_eq!([1, 2, 3].map(hops), [0, 0, 2]);
    assert!(script::figure_listing(2).contains("Client B -> Client C: 13: forward object"));
}

/// Race A with two clients: A and B write one object at 1 and 2 ms. A's
/// grant waits on the server's disk until 11 894 µs, and B's request
/// arrives meanwhile. The recall it calls for is held until A's grant is on
/// the wire, so A installs the grant, uses it, and answers the recall: both
/// writers commit and every oracle passes.
#[test]
fn race_a_witness_the_recall_follows_the_grant_it_revokes() {
    let at = SimTime::from_micros;
    let a = SiteId::Client(ClientId(0));
    for system in [SystemKind::ClientServer, SystemKind::LoadSharing] {
        let specs = vec![
            script::write_at(0, at(1_000)),
            script::write_at(1, at(2_000)),
        ];
        let (metrics, delivered, verdict) = judged(script::config(system, 2), specs);
        verdict.unwrap_or_else(|v| panic!("{system}: {v}"));
        assert_eq!(metrics.in_time, 2, "{system}");
        let to_a = |kind: MessageKind| {
            let d = delivered.iter().find(|d| d.to == a && d.kind == kind);
            d.map(|d| d.at.as_micros())
        };
        assert_eq!(to_a(MessageKind::ObjectSend), Some(11_894), "{system}");
        assert_eq!(to_a(MessageKind::Recall), Some(11_996), "{system}");
    }
}

/// The hot region: CS and LS, 12 clients, 80 % updates, a 64-object
/// database whose 32-object hot region takes every access, three objects a
/// transaction, 300 s. Before the server ordered grants and recalls, LS
/// failed 29 of seeds 1–30 and CS 3, mostly with serializability cycles;
/// now every run passes all four oracles.
#[test]
fn hot_region_witness_every_seed_passes_the_oracles() {
    for system in [SystemKind::ClientServer, SystemKind::LoadSharing] {
        for seed in 1..=30 {
            let mut cfg = ExperimentConfig::paper(system, 12, 0.8);
            cfg.database.num_objects = 64;
            let hot = &mut cfg.workload.access_pattern;
            (hot.hot_region_objects, hot.hot_access_fraction) = (32, 1.0);
            cfg.workload.mean_objects_per_txn = 3.0;
            cfg.runtime.duration = SimDuration::from_secs(300);
            cfg.runtime.warmup = SimDuration::from_secs(30);
            cfg.runtime.seed = seed;
            check_config(&cfg).unwrap_or_else(|v| panic!("{system} seed {seed}: {v}"));
        }
    }
}

/// The lost recall (CS): A holds the object; B and C write it 1 ms apart.
/// The server recalls A and grants B; because C is still queued behind
/// that grant, B is recalled at once, so C commits too.
#[test]
fn lost_recall_witness_the_third_writer_commits() {
    let (cfg, specs) =
        script::one_object(SystemKind::ClientServer, 2, SimDuration::from_micros(1_000));
    let (metrics, delivered, verdict) = judged(cfg, specs);
    verdict.expect("every oracle passes");
    assert_eq!((metrics.in_time, metrics.failures.expired), (3, 0));
    let recalled = |c: u16| {
        let to = SiteId::Client(ClientId(c));
        delivered.iter().any(|d| d.to == to && d.kind == MessageKind::Recall)
    };
    assert!(recalled(0) && recalled(1), "{}", script::render(&delivered));
}

/// A one-object transaction of `client` arriving at `at`.
fn access_at(client: u16, seq: u64, at: SimTime, access: AccessSpec) -> TransactionSpec {
    TransactionSpec {
        id: TransactionId::new(ClientId(client), seq),
        accesses: vec![access],
        ..script::write_at(client, at)
    }
}

/// The upgrade shape (CS): A and B read the object and keep shared copies.
/// At 3 s B writes it, so B's upgrade queues behind A's copy and A is
/// recalled; 500 µs later C writes it, so B is recalled too. A's answer
/// would grant B's upgrade while B's own answer, which gives the lock up,
/// is already on its way. The server undoes that grant and parks B's
/// request until B's answer arrives: C is granted first, recalled for B at
/// once, and every transaction commits with every oracle passing.
#[test]
fn upgrade_witness_a_recalled_reader_upgrades_after_its_own_answer() {
    let at = SimTime::from_micros;
    let read = AccessSpec::read(ObjectId(0));
    let write = AccessSpec::write(ObjectId(0));
    let specs = vec![
        access_at(0, 0, at(1_000), read),
        access_at(1, 0, at(2_000), read),
        access_at(1, 1, at(3_000_000), write),
        access_at(2, 0, at(3_000_500), write),
    ];
    let cfg = script::config(SystemKind::ClientServer, 3);
    let (metrics, delivered, verdict) = judged(cfg, specs);
    verdict.expect("every oracle passes");
    assert_eq!(metrics.in_time, 4);
    // After 3 s, C is granted first, then B once C has written and
    // returned the object.
    let first_grant_to = |c: u16| {
        let to = SiteId::Client(ClientId(c));
        let grant = |d: &&Delivered| {
            d.to == to
                && d.at.as_micros() > 3_000_000
                && matches!(d.kind, MessageKind::ObjectSend | MessageKind::LockGrant)
        };
        delivered.iter().find(grant).map(|d| d.at.as_micros())
    };
    let (c, b) = (first_grant_to(2), first_grant_to(1));
    let listing = script::render(&delivered);
    assert_eq!((c, b), (Some(3_004_598), Some(3_019_182)), "{listing}");
}

/// The fault-path failure still open: LS, 30 clients, 20 % updates,
/// `chaos(1.0)`, case 41 of `repro check --clients 30 --seeds 240`. A
/// forward chain's member holds the object behind a local transaction while
/// every requester on the chain expires; the server then forgets the route
/// as dead and serves a new window from its own copy, and client#12 installs
/// a shared lock on obj#3 while client#5 still caches it exclusively.
///
/// This pins today's verdict: the PR that fences a forgotten chain inverts
/// it.
#[test]
fn dead_route_witness_a_forgotten_chain_leaves_a_cached_exclusive() {
    let mut cfg = ExperimentConfig::paper(SystemKind::LoadSharing, 30, 0.2);
    cfg.runtime.duration = SimDuration::from_secs(150);
    cfg.runtime.warmup = SimDuration::from_secs(30);
    cfg.runtime.seed = 1_370_229_868;
    cfg.faults = FaultConfig::chaos(1.0);
    let violation = check_config(&cfg).expect_err("the forgotten chain is incoherent");
    assert_eq!(violation.oracle, "coherence", "{violation}");
    let install = "at t=96038247us client#12 installed a shared cached lock on obj#3";
    assert!(violation.detail.starts_with(install), "{violation}");
}

/// The restart-path failure still open: CS, 100 clients, 5 % updates,
/// `chaos_restart(1.0)`, seed 11, the paper's 2 000 s with a 200 s warm-up
/// (`repro trace --system cs --clients 100 --update 0.05 --seed 11
/// --duration 2000 --warmup 200 --chaos 1 --restart`). Client#92 installs an
/// exclusive cached lock on obj#131 while client#95 still caches it shared.
/// Runs of 20, 30 and 50 clients at seeds 1–12 show nothing.
///
/// This pins today's verdict: the change that mends the race inverts it.
/// A paper-scale run (about 5 s in a debug build, under 1 s in release),
/// so plain `cargo test` skips it and `scripts/ci.sh simcheck` runs it in
/// release.
#[test]
#[ignore = "paper-scale run: scripts/ci.sh simcheck runs it in release"]
fn restart_witness_a_cached_exclusive_beside_a_shared() {
    let mut cfg = ExperimentConfig::paper(SystemKind::ClientServer, 100, 0.05);
    cfg.runtime.duration = SimDuration::from_secs(2_000);
    cfg.runtime.warmup = SimDuration::from_secs(200);
    cfg.runtime.seed = 11;
    cfg.faults = FaultConfig::chaos_restart(1.0);
    let violation = check_config(&cfg).expect_err("the restart race is incoherent");
    assert_eq!(violation.oracle, "coherence", "{violation}");
    let install = "at t=1250239812us client#92 installed an exclusive cached lock on obj#131 \
                   while client#95 still holds a shared";
    assert!(violation.detail.starts_with(install), "{violation}");
}
