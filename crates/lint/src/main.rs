//! `detlint` — CLI for the determinism & safety analyzer.
//!
//! Exit codes: 0 clean, 1 violations found (or, with `--ratchet`, a
//! stale baseline), 2 usage/config/io error.

use siteselect_lint::baseline::Baseline;
use siteselect_lint::{discover_files, load_baseline, load_config, Config};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
detlint — determinism & safety analyzer for the siteselect workspace

USAGE:
    detlint check --workspace [--ratchet] [--root <dir>]
    detlint check [--ratchet] [--root <dir>] <file.rs>...
    detlint baseline [--root <dir>]
    detlint rules [--toml]

`check` runs every pass over the files it is given (`--workspace`:
every .rs file under the root): the token rules D1-D7 and D10 (D7, no
lock where sites share only channels, on the crates detlint.toml scopes
it to) and the D9 panic audit.
`baseline` regenerates detlint.baseline.json, the
ratchet that absorbs the accepted D9 surface; `--ratchet` additionally
fails when that file is stale (counts shrank without regenerating).

Violations print as `file:line: detlint[Dn]: message`. Deliberate ones
are suppressed in place with `// detlint: allow(Dn) — <reason>` on the
offending line or the line above; the reason is mandatory. Per-module
allowlists live in detlint.toml at the workspace root.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("detlint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("rules") => {
            if args.get(1).map(String::as_str) == Some("--toml") {
                print!("{}", siteselect_lint::rules::toml_rule_table());
            } else {
                print_rules();
            }
            Ok(true)
        }
        Some("check") => check(&args[1..]),
        Some("baseline") => regenerate_baseline(&args[1..]),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            Ok(true)
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

fn print_rules() {
    println!("{:<4} {:<20} summary", "id", "name");
    for rule in &siteselect_lint::rules::REGISTRY {
        let baselined = if rule.baselined { " [baselined]" } else { "" };
        println!(
            "{:<4} {:<20} {}{baselined}",
            rule.id.id(),
            rule.name,
            rule.summary
        );
    }
}

fn check(args: &[String]) -> Result<bool, String> {
    let mut root = default_root();
    let mut whole_workspace = false;
    let mut ratchet = false;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => whole_workspace = true,
            "--ratchet" => ratchet = true,
            "--root" => {
                root = PathBuf::from(
                    it.next().ok_or("--root needs a directory argument")?,
                );
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`\n\n{USAGE}"));
            }
            file => files.push(file.to_string()),
        }
    }
    if !whole_workspace && files.is_empty() {
        return Err(format!("nothing to check\n\n{USAGE}"));
    }
    let cfg = load_config(&root)?;
    if whole_workspace {
        files = workspace_files(&root, &cfg)?;
    }
    let baseline = load_baseline(&root)?;
    let report = siteselect_lint::check(&root, &files, &cfg, baseline.as_ref())?;
    let stale_fails = ratchet && !report.stale.is_empty();
    for v in &report.violations {
        println!("{v}");
    }
    for s in &report.stale {
        println!(
            "detlint: stale baseline: {} {} accepts {} finding{} but {} remain{} — run `detlint baseline`",
            s.file,
            s.rule.id(),
            s.accepted,
            if s.accepted == 1 { "" } else { "s" },
            s.actual,
            if s.actual == 1 { "s" } else { "" },
        );
    }
    if report.is_clean() && !stale_fails {
        let absorbed = if report.absorbed > 0 {
            format!(", {} baselined", report.absorbed)
        } else {
            String::new()
        };
        println!(
            "detlint: clean ({} files, {} suppression{}{absorbed})",
            report.files_checked,
            report.suppressions,
            if report.suppressions == 1 { "" } else { "s" }
        );
        Ok(true)
    } else {
        if !report.violations.is_empty() {
            println!(
                "detlint: {} violation{} in {} files",
                report.violations.len(),
                if report.violations.len() == 1 { "" } else { "s" },
                report.files_checked
            );
        }
        Ok(false)
    }
}

/// Every lintable file under `root`.
fn workspace_files(root: &Path, cfg: &Config) -> Result<Vec<String>, String> {
    discover_files(root, cfg).map_err(|e| format!("{}: {e}", root.display()))
}

/// `detlint baseline`: regenerate `detlint.baseline.json` from the
/// current findings so the accepted surface matches reality exactly.
fn regenerate_baseline(args: &[String]) -> Result<bool, String> {
    let mut root = default_root();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(
                    it.next().ok_or("--root needs a directory argument")?,
                );
            }
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }
    let cfg = load_config(&root)?;
    let report = siteselect_lint::check(&root, &workspace_files(&root, &cfg)?, &cfg, None)?;
    let baseline = Baseline::from_violations(&report.violations);
    let entries: usize = baseline.counts.values().map(|m| m.values().sum::<usize>()).sum();
    let path = root.join("detlint.baseline.json");
    std::fs::write(&path, baseline.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "detlint: baseline written to {} ({} accepted finding{} in {} file{})",
        path.display(),
        entries,
        if entries == 1 { "" } else { "s" },
        baseline.counts.len(),
        if baseline.counts.len() == 1 { "" } else { "s" },
    );
    // Non-baselined findings still fail the run so `baseline` cannot
    // be used to paper over real violations.
    let hard: Vec<_> = report
        .violations
        .iter()
        .filter(|v| !v.rule.meta().baselined)
        .collect();
    for v in &hard {
        println!("{v}");
    }
    Ok(hard.is_empty())
}

/// The workspace root: walk up from the current directory to the first
/// one containing `detlint.toml` (so the tool works from any subdir),
/// falling back to the current directory.
fn default_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.clone();
    loop {
        if dir.join("detlint.toml").is_file() {
            return dir;
        }
        if !dir.pop() {
            return cwd;
        }
    }
}
