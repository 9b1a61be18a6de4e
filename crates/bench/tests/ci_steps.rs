//! `.github/workflows/ci.yml` may only call steps of `scripts/ci.sh`: the
//! checks live in one file, so the two cannot drift apart.

use std::path::Path;
use std::process::Command;

#[test]
fn workflow_only_calls_steps_that_ci_sh_lists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let listed = Command::new("bash")
        .arg(root.join("scripts/ci.sh"))
        .arg("--list")
        .output()
        .expect("spawn scripts/ci.sh --list");
    assert!(listed.status.success(), "ci.sh --list failed");
    let listed = String::from_utf8(listed.stdout).expect("step names are ASCII");
    let steps: Vec<&str> = listed.lines().collect();

    let workflow =
        std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("read ci.yml");
    let mut calls = 0;
    for line in workflow.lines() {
        let code = line.split('#').next().unwrap_or_default();
        assert!(
            !code.contains("cargo "),
            "ci.yml restates a cargo command: {line}"
        );
        let Some((_, args)) = code.split_once("./scripts/ci.sh") else {
            continue;
        };
        for step in args.split_whitespace().filter(|&a| a != "--fast") {
            assert!(
                steps.contains(&step),
                "ci.yml calls {step:?}, which ci.sh --list does not print"
            );
            calls += 1;
        }
    }
    assert!(calls > 0, "found no ./scripts/ci.sh call in ci.yml");
}
