//! The one-pass `check_trace` gives the verdicts the four sequential
//! oracle passes gave: the same oracle, the same detail text, and the same
//! precedence (serializability, coherence, deadline, recovery) when a
//! trace breaks more than one invariant.

use siteselect_check::explore::{matrix, CaseSpec, ExploreOptions};
use siteselect_check::synthetic::{bad_history, InjectKind};
use siteselect_check::{check_trace, coherence, deadline, recovery, serializability, TRACE_CAPACITY};
use siteselect_core::run_experiment_traced;
use siteselect_obs::TraceData;
use siteselect_types::SimTime;

/// `(oracle, detail)` of each synthetic bad history, captured from the
/// tree-map oracles this crate had before the one-pass rewrite.
const PINNED: [(&str, &str); 4] = [
    (
        "serializability",
        "committed units form a conflict cycle txn#0.1 -> txn#1.1 -> txn#0.1 (object obj#7: \
         conflicting lock episodes cannot be serialized in either order)",
    ),
    (
        "coherence",
        "at t=150us client#1 installed a shared cached lock on obj#7 while client#0 still \
         holds an exclusive — callback protocol let conflicting cached locks coexist",
    ),
    (
        "deadline",
        "measured transaction txn#0.1 (submitted at t=150us) never reached a terminal \
         accounting state",
    ),
    (
        "recovery",
        "at t=260us replay left obj#7 holding stamp 12, the effect of a rolled-back or loser \
         transaction — an aborted write resurfaced after restart (newest committed stamp \
         there is 11)",
    ),
];

#[test]
fn synthetic_bad_histories_keep_their_pinned_verdicts() {
    for (kind, (oracle, detail)) in InjectKind::ALL.into_iter().zip(PINNED) {
        let (trace, metrics, warmup_end) = bad_history(kind);
        let v = check_trace(&trace, &metrics, warmup_end).unwrap_err();
        assert_eq!((v.oracle, v.detail.as_str()), (oracle, detail));
        assert!(
            v.at.contains(&format!("crates/check/src/{oracle}.rs:")),
            "{oracle} verdict located at {}",
            v.at
        );
    }
}

/// Both bad histories in one trace, judged against `second`'s metrics (the
/// deadline history is the only one whose metrics are not empty).
fn verdict_on_both(first: InjectKind, second: InjectKind) -> &'static str {
    let (a, _, warmup_end) = bad_history(first);
    let (b, metrics, _) = bad_history(second);
    let trace = TraceData::merge(vec![a, b]);
    check_trace(&trace, &metrics, warmup_end).unwrap_err().oracle
}

#[test]
fn a_trace_breaking_two_invariants_reports_the_earlier_oracle() {
    use InjectKind::{Coherence, Deadline, Recovery, Serializability};
    assert_eq!(verdict_on_both(Coherence, Recovery), "coherence");
    assert_eq!(verdict_on_both(Recovery, Coherence), "coherence");
    for other in [Coherence, Deadline, Recovery] {
        assert_eq!(verdict_on_both(Serializability, other), "serializability");
    }
    assert_eq!(verdict_on_both(Coherence, Deadline), "coherence");
    assert_eq!(verdict_on_both(Recovery, Deadline), "deadline");
}

#[test]
fn one_pass_verdict_is_the_first_objection_of_the_four_passes() {
    let opts = ExploreOptions::default();
    let cells = matrix();
    for (i, &cell) in cells.iter().cycle().take(3 * cells.len()).enumerate() {
        let case = CaseSpec {
            cell,
            seed: opts.base_seed + i as u64,
            clients: opts.clients,
            duration: opts.duration,
            warmup: opts.warmup,
        };
        let cfg = case.config();
        let (metrics, trace) = run_experiment_traced(&cfg, TRACE_CAPACITY).expect("valid case");
        let warmup_end = SimTime::ZERO + cfg.runtime.warmup;
        let sequential = serializability::check(&trace)
            .and_then(|()| coherence::check(&trace))
            .and_then(|()| deadline::check(&trace, &metrics, warmup_end))
            .and_then(|()| recovery::check(&trace));
        assert_eq!(
            check_trace(&trace, &metrics, warmup_end),
            sequential,
            "{}",
            case.replay_command()
        );
    }
}
