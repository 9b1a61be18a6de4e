//! End-to-end tests of the `repro` command line: argument validation
//! (values, unknown flags, surplus targets), the simcheck self-test
//! (`--inject-violation`), a small green explorer run, `--jobs`
//! invariance of the printed report, and `blame`'s pipeline counters.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn zero_valued_numeric_flags_are_rejected_with_clear_errors() {
    for (args, needle) in [
        (&["check", "--jobs", "0"][..], "--jobs must be at least 1"),
        (&["check", "--seeds", "0"][..], "--seeds must be at least 1"),
        (&["check", "--clients", "0"][..], "--clients must be at least 1"),
        (&["check", "--duration", "0"][..], "--duration must be at least 1"),
        (&["faults", "--clients", "0"][..], "--clients must be at least 1"),
        (&["faults", "--jobs", "0"][..], "--jobs must be at least 1"),
        (&["trace", "--duration", "0"][..], "--duration must be at least 1"),
    ] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr_of(&out);
        assert!(err.contains(needle), "{args:?} stderr missing {needle:?}: {err}");
    }
}

#[test]
fn garbled_numeric_flags_are_rejected_not_defaulted() {
    for (args, flag) in [
        (&["check", "--clients", "bogus"][..], "--clients"),
        (&["check", "--seeds", "1e9"][..], "--seeds"),
        (&["check", "--jobs", "-2"][..], "--jobs"),
        (&["trace", "--update", "lots"][..], "--update"),
        (&["check", "--seeds"][..], "--seeds"),
        (&["faults", "--clients", "many"][..], "--clients"),
        (&["faults", "--jobs", "4.5"][..], "--jobs"),
        (&["trace", "--seed", "0x7"][..], "--seed"),
        (&["trace", "--chaos", "heavy"][..], "--chaos"),
        (&["trace", "--warmup"][..], "--warmup"),
    ] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr_of(&out);
        assert!(err.contains(flag), "{args:?} stderr missing {flag:?}: {err}");
    }
}

#[test]
fn out_of_range_fractions_are_rejected() {
    let out = repro(&["trace", "--update", "1.5"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--update must be a fraction in [0, 1]"));

    let out = repro(&["check", "--warmup", "80", "--duration", "60"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--warmup"));

    let out = repro(&["trace", "--chaos", "-0.5"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--chaos must be a non-negative intensity"));

    let out = repro(&["trace", "--system", "xx"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("invalid value for --system"));
}

#[test]
fn restart_without_chaos_is_rejected() {
    for args in [&["trace", "--restart"][..], &["trace", "--chaos", "0.0", "--restart"][..]] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr_of(&out);
        assert!(err.contains("--restart needs --chaos above 0"), "{args:?} stderr: {err}");
    }
}

#[test]
fn help_prints_every_flag_and_target_and_exits_zero() {
    for args in [&["--help"][..], &["-h"][..], &["figure3", "--quick", "--help"][..]] {
        let out = repro(args);
        assert!(out.status.success(), "{args:?} must exit 0: {}", stderr_of(&out));
        let text = stdout_of(&out);
        assert!(text.starts_with("usage: repro"), "{args:?} printed: {text}");
        for needle in [
            "--quick", "--restart", "--clients N", "--seed S", "--out PATH", "--jobs N",
            "--system ce|cs|ls", "--update F", "--chaos F", "--duration SECS", "--warmup SECS",
            "--seeds N", "--top K", "--inject-violation ORACLE", "--help, -h",
            "figure4", "blame", "check all",
        ] {
            assert!(text.contains(needle), "{args:?} usage text lacks {needle:?}: {text}");
        }
        assert!(!text.contains("==="), "{args:?} ran a target as well: {text}");
    }
}

#[test]
fn unknown_target_lists_the_valid_ones() {
    let out = repro(&["chekc"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("unknown target"), "stderr: {err}");
    assert!(err.contains("check"), "stderr: {err}");

    // The removed suite's target is unknown like any other and not offered.
    let out = repro(&["bench"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("unknown target: bench"), "stderr: {err}");
    assert!(!err.contains(" bench "), "target list still names bench: {err}");
}

#[test]
fn unrecognised_arguments_are_usage_errors_that_run_nothing() {
    for (args, offender) in [
        (&["figure3", "--quik"][..], "unknown flag: --quik"),
        (&["figure3", "--quick", "figure4"][..], "more than one target: figure3 and figure4"),
        (&["table1", "--out"][..], "--out needs a value"),
        (&["table1", "--out", "--quick"][..], "--out needs a value"),
        (&["bench", "--compare", "a.json", "b.json"][..], "unknown flag: --compare"),
    ] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr_of(&out);
        assert!(err.contains(offender), "{args:?} stderr missing {offender:?}: {err}");
        assert_eq!(stdout_of(&out), "", "{args:?} ran something before failing");
    }
}

#[test]
fn injected_violations_fail_with_diagnostic_and_replay() {
    // The detail texts are the ones the oracles printed before they became
    // one pass over hashed state; the rewrite must not reword a verdict.
    for (kind, file, detail) in [
        (
            "serializability",
            "crates/check/src/serializability.rs",
            "committed units form a conflict cycle txn#0.1 -> txn#1.1 -> txn#0.1 (object obj#7: ",
        ),
        (
            "coherence",
            "crates/check/src/coherence.rs",
            "at t=150us client#1 installed a shared cached lock on obj#7 while client#0 still holds an exclusive",
        ),
        (
            "deadline",
            "crates/check/src/deadline.rs",
            "measured transaction txn#0.1 (submitted at t=150us) never reached a terminal accounting state",
        ),
        (
            "recovery",
            "crates/check/src/recovery.rs",
            "at t=260us replay left obj#7 holding stamp 12, the effect of a rolled-back or loser transaction",
        ),
    ] {
        let out = repro(&["check", "--inject-violation", kind]);
        assert!(!out.status.success(), "--inject-violation {kind} must exit non-zero");
        let err = stderr_of(&out);
        assert!(
            err.contains(&format!("{kind} violation at {file}")),
            "{kind}: missing file:line diagnostic in: {err}"
        );
        assert!(err.contains(detail), "{kind}: verdict reworded: {err}");
        assert!(err.contains("replay:"), "{kind}: missing replay command in: {err}");
    }

    let out = repro(&["check", "--inject-violation", "nonsense"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--inject-violation"));
}

#[test]
fn small_explorer_run_is_green_and_jobs_invariant() {
    let args = |jobs: &'static str| {
        vec![
            "check", "--seeds", "2", "--clients", "2", "--duration", "60", "--warmup", "20",
            "--jobs", jobs,
        ]
    };
    let one = repro(&args("1"));
    assert!(
        one.status.success(),
        "green run failed: {}{}",
        stdout_of(&one),
        stderr_of(&one)
    );
    let report = stdout_of(&one);
    assert!(report.contains("cases passed"), "stdout: {report}");

    // The printed report must not depend on worker count.
    let three = repro(&args("3"));
    assert!(three.status.success());
    assert_eq!(stdout_of(&one), stdout_of(&three), "report differs across --jobs");
}

#[test]
fn blame_counters_sum_the_cells_but_take_the_worst_tardiness() {
    let json = concat!(env!("CARGO_TARGET_TMPDIR"), "/cli_blame.json");
    let out = repro(&["blame", "--quick", "--seed", "7", "--out", json]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let text = stdout_of(&out);
    let blamed: u64 = text
        .lines()
        .filter_map(|l| l.strip_prefix("blamed transactions")?.split_whitespace().next())
        .map(|n| n.parse::<u64>().expect("a count"))
        .sum();
    assert!(text.contains(&format!("\nblame_txns {blamed}\n")), "{text}");
    // At this seed the CS cell misses worst, so the last (LS) cell's own
    // worst is not the answer.
    let worst = text
        .split_whitespace()
        .filter_map(|w| w.strip_prefix("tardiness=")?.strip_suffix("us")?.parse::<u64>().ok())
        .max()
        .expect("worst misses are listed");
    assert!(text.contains(&format!("\nblame_worst_tardiness_us {worst}\n")), "{text}");
}
