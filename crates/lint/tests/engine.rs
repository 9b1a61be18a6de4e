//! End-to-end tests for the `detlint` engine: one positive and one
//! negative fixture per rule, the allowlist/annotation escape hatches,
//! and — the gate this crate exists for — a check that the repository
//! itself is clean.

use siteselect_lint::lexer::Token;
use siteselect_lint::workspace::SourceFile;
use siteselect_lint::{check, discover_files, load_config, Config, Report, RuleId};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

/// The contract the fixture mini-workspace runs under: everything is
/// deterministic, the panic audit is in force, and one module is
/// allowlisted for wall-clock reads.
fn fixture_cfg() -> Config {
    Config::parse(
        r#"
[deterministic]
crates = ["root"]

[rules.D1]
allow = ["src/allowed_clock.rs"]

[rules.D9]
crates = ["root"]
"#,
    )
    .expect("fixture config parses")
}

/// Every pass over every lintable file under `root`, no baseline.
fn check_tree(root: &Path, cfg: &Config) -> Report {
    let files = discover_files(root, cfg).expect("tree scans");
    check(root, &files, cfg, None).expect("files readable")
}

/// Runs the CLI with `args` plus `--root root`.
fn detlint(args: &[&str], root: &Path) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_detlint"))
        .args(args)
        .arg("--root")
        .arg(root)
        .output()
        .expect("detlint binary runs")
}

/// Lints one fixture and returns the rules that fired, in file order.
fn lint_fixture(name: &str) -> Vec<RuleId> {
    let report = check(
        &fixtures_root(),
        &[format!("src/{name}")],
        &fixture_cfg(),
        None,
    )
    .expect("fixture readable");
    report.violations.iter().map(|v| v.rule).collect()
}

#[test]
fn positive_fixtures_fire_their_rule() {
    assert_eq!(lint_fixture("d1_bad.rs"), vec![RuleId::D1, RuleId::D1]);
    assert_eq!(
        lint_fixture("d2_bad.rs"),
        vec![RuleId::D2, RuleId::D2, RuleId::D2]
    );
    assert_eq!(
        lint_fixture("d3_bad.rs"),
        vec![RuleId::D3, RuleId::D3, RuleId::D3]
    );
    assert_eq!(lint_fixture("d4_bad.rs"), vec![RuleId::D4]);
    assert_eq!(lint_fixture("d5_bad.rs"), vec![RuleId::D5]);
    assert_eq!(lint_fixture("d6_bad.rs"), vec![RuleId::D6, RuleId::D6]);
    assert_eq!(
        lint_fixture("d9_bad.rs"),
        vec![RuleId::D9, RuleId::D9, RuleId::D9]
    );
    assert_eq!(
        lint_fixture("d10_bad.rs"),
        vec![RuleId::D10, RuleId::D10, RuleId::D10]
    );
}

#[test]
fn negative_fixtures_are_clean() {
    for name in [
        "d1_good.rs",
        "d2_good.rs",
        "d3_good.rs",
        "d4_good.rs",
        "d5_good.rs",
        "d6_good.rs",
        "d9_good.rs",
        "d10_good.rs",
    ] {
        assert_eq!(lint_fixture(name), Vec::new(), "{name} should be clean");
    }
}

#[test]
fn config_allowlist_exempts_a_module() {
    assert_eq!(lint_fixture("allowed_clock.rs"), Vec::new());
    // The same file without the allowlist is a violation.
    let strict = Config::parse("[deterministic]\ncrates = [\"root\"]").expect("parses");
    let report = check(
        &fixtures_root(),
        &["src/allowed_clock.rs".to_string()],
        &strict,
        None,
    )
    .expect("readable");
    assert_eq!(
        report.violations.iter().map(|v| v.rule).collect::<Vec<_>>(),
        vec![RuleId::D1]
    );
}

#[test]
fn inline_annotations_suppress_and_are_counted() {
    let report = check(
        &fixtures_root(),
        &["src/annotated.rs".to_string()],
        &fixture_cfg(),
        None,
    )
    .expect("readable");
    assert!(report.is_clean(), "{:?}", report.violations);
    assert_eq!(report.suppressions, 2);
}

#[test]
fn diagnostics_carry_file_line_and_rule() {
    let report = check(
        &fixtures_root(),
        &["src/d1_bad.rs".to_string()],
        &fixture_cfg(),
        None,
    )
    .expect("readable");
    let first = &report.violations[0];
    assert_eq!(first.file, "src/d1_bad.rs");
    assert_eq!(first.line, 5);
    let rendered = first.to_string();
    assert!(
        rendered.starts_with("src/d1_bad.rs:5: detlint[D1]:"),
        "unexpected diagnostic shape: {rendered}"
    );
}

#[test]
fn whole_fixture_tree_discovery_finds_every_bad_file() {
    let report = check_tree(&fixtures_root(), &fixture_cfg());
    // 8 bad fixtures with 2+3+3+1+1+2+3+3 = 18 violations; good/
    // annotated/allowlisted files contribute none.
    assert_eq!(report.violations.len(), 18);
    assert_eq!(report.files_checked, 18);
}

/// D7 applies to the crates `[rules.D7]` names and nowhere else: the
/// `static Mutex` of a D10 fixture is a finding only once `root` is
/// scoped.
#[test]
fn d7_fires_only_in_the_crates_it_is_scoped_to() {
    let file = ["src/d10_good.rs".to_string()];
    let scoped = Config::parse("[rules.D7]\ncrates = [\"root\"]").expect("parses");
    let report = check(&fixtures_root(), &file, &scoped, None).expect("readable");
    let lines: Vec<(RuleId, u32)> = report.violations.iter().map(|v| (v.rule, v.line)).collect();
    assert_eq!(lines, [(RuleId::D7, 4), (RuleId::D7, 8), (RuleId::D7, 9)]);
    let report = check(&fixtures_root(), &file, &Config::default(), None).expect("readable");
    assert!(report.is_clean(), "{:?}", report.violations);
}

/// Workspace crates named anywhere in a dependency table of
/// `crates/<name>/Cargo.toml`: as a key, in a `[dependencies.<dep>]`
/// header, or as a `package =` / `path =` value. Any word that is a crate
/// directory counts, so the scan can add a dependency but never miss one.
fn manifest_deps(root: &Path, name: &str) -> BTreeSet<String> {
    let manifest = std::fs::read_to_string(root.join(format!("crates/{name}/Cargo.toml")))
        .expect("workspace crate has a manifest");
    let mut deps = BTreeSet::new();
    let mut in_deps = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line.contains("dependencies");
        }
        let words = line.split(|c: char| !(c.is_alphanumeric() || c == '-' || c == '_'));
        for word in words.filter(|_| in_deps) {
            let word = word.strip_prefix("siteselect-").unwrap_or(word);
            if word != name && root.join(format!("crates/{word}/Cargo.toml")).is_file() {
                deps.insert(word.to_string());
            }
        }
    }
    deps
}

/// What replaced the D1/D3 taint pass: the clock and entropy reads live
/// only in allowlisted files, and Cargo itself keeps deterministic code
/// from calling into them — no crate listed under `[deterministic]`
/// depends, directly or through any other workspace crate, on a crate
/// that contains a D1- or D3-allowlisted path. `root` is exempt as a
/// re-export facade: its library has no non-test `fn`.
#[test]
fn deterministic_crates_do_not_depend_on_clock_or_rng_crates() {
    let root = repo_root();
    let cfg = load_config(&root).expect("detlint.toml parses");
    let allowlisted: BTreeSet<&str> = [RuleId::D1, RuleId::D3]
        .into_iter()
        .flat_map(|rule| cfg.allowed_paths(rule))
        .filter_map(|path| path.strip_prefix("crates/")?.split('/').next())
        .collect();
    assert!(allowlisted.contains("cluster"), "{allowlisted:?}");
    for name in cfg.deterministic_crates.iter().filter(|c| *c != "root") {
        let mut reached = BTreeSet::new();
        let mut todo = vec![name.clone()];
        while let Some(krate) = todo.pop() {
            for dep in manifest_deps(&root, &krate) {
                if reached.insert(dep.clone()) {
                    todo.push(dep);
                }
            }
        }
        // Every crate but `types` itself depends on it: a scan that does
        // not see that has stopped understanding the manifests.
        assert!(
            name == "types" || reached.contains("types"),
            "`{name}`: {reached:?}"
        );
        let tainted: Vec<&String> = reached
            .iter()
            .filter(|dep| allowlisted.contains(dep.as_str()))
            .collect();
        assert!(tainted.is_empty(), "`{name}` depends on {tainted:?}");
    }
    let facade = std::fs::read_to_string(root.join("src/lib.rs")).expect("facade readable");
    let facade = SourceFile::new("src/lib.rs".into(), &facade);
    assert!(
        facade.parsed.fns.iter().all(|f| f.test_only),
        "{:?}",
        facade.parsed.fns
    );
}

/// The acceptance gate: the real repository, under its real
/// `detlint.toml`, has zero violations.
#[test]
fn repository_is_clean_under_its_own_contract() {
    let root = repo_root();
    let cfg = load_config(&root).expect("detlint.toml parses");
    assert!(
        !cfg.deterministic_crates.is_empty(),
        "repo config must name the deterministic crates"
    );
    let baseline = siteselect_lint::load_baseline(&root).expect("baseline parses");
    let files = discover_files(&root, &cfg).expect("workspace scans");
    let report = check(&root, &files, &cfg, baseline.as_ref()).expect("files readable");
    let rendered: Vec<String> =
        report.violations.iter().map(ToString::to_string).collect();
    assert!(
        report.is_clean(),
        "repository violates its determinism contract:\n{}",
        rendered.join("\n")
    );
    assert!(report.files_checked > 80, "scan looks truncated");
}

/// `detlint check --workspace` — the exact CI invocation — exits 0.
#[test]
fn cli_check_workspace_exits_zero_on_the_repo() {
    let out = detlint(&["check", "--workspace"], &repo_root());
    assert!(
        out.status.success(),
        "detlint check --workspace failed:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// Seeding fresh D1/D2 violations into a deterministic crate must flip
/// the CLI to a non-zero exit with `file:line` diagnostics.
#[test]
fn cli_flags_seeded_violations_with_file_line() {
    let dir = std::env::temp_dir().join(format!(
        "detlint_seed_{}",
        std::process::id()
    ));
    let src_dir = dir.join("crates/sim/src");
    std::fs::create_dir_all(&src_dir).expect("temp tree");
    std::fs::write(
        dir.join("detlint.toml"),
        "[deterministic]\ncrates = [\"sim\"]\n",
    )
    .expect("write config");
    std::fs::write(
        src_dir.join("bad.rs"),
        "use std::collections::HashMap;\n\
         fn f() {\n\
             let _t = std::time::Instant::now();\n\
             let m: HashMap<u32, u32> = HashMap::new();\n\
             for _ in &m {}\n\
         }\n",
    )
    .expect("write seeded violation");
    let out = detlint(&["check", "--workspace"], &dir);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(1), "seeded violations must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/sim/src/bad.rs:3: detlint[D1]"), "{stdout}");
    assert!(stdout.contains("crates/sim/src/bad.rs:5: detlint[D2]"), "{stdout}");
}

/// The rule-table comment block in detlint.toml is generated; it must
/// match `detlint rules --toml` byte-for-byte.
#[test]
fn config_rule_table_matches_the_registry() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_detlint"))
        .args(["rules", "--toml"])
        .output()
        .expect("detlint binary runs");
    assert!(out.status.success());
    let table = String::from_utf8(out.stdout).expect("rule table is utf-8");
    let config =
        std::fs::read_to_string(repo_root().join("detlint.toml")).expect("config readable");
    assert!(
        config.contains(table.trim_end()),
        "detlint.toml rule table is stale — regenerate with `detlint rules --toml`"
    );
}

/// Reads and scans every lintable file of the repository.
fn repo_sources(root: &Path, cfg: &Config) -> Vec<SourceFile> {
    let files = discover_files(root, cfg).expect("discovery");
    files
        .into_iter()
        .map(|rel| {
            let src = std::fs::read_to_string(root.join(&rel)).expect("source readable");
            SourceFile::new(rel, &src)
        })
        .collect()
}

/// The item scanner digests every file in the repository without a
/// single error: an error means D9 and D10 silently misjudge test code.
#[test]
fn whole_repository_parses_without_errors() {
    let root = repo_root();
    let cfg = load_config(&root).expect("detlint.toml parses");
    let units = repo_sources(&root, &cfg);
    assert!(units.len() > 90, "discovery looks truncated: {}", units.len());
    let mut fn_count = 0;
    let mut unlisted = Vec::new();
    for unit in &units {
        assert!(
            unit.parsed.errors.is_empty(),
            "{} has parse errors: {:?}",
            unit.path,
            unit.parsed.errors
        );
        fn_count += unit.parsed.fns.len();
        // Independent of the scanner: every `fn <name>` token pair is a
        // listed function, except in a file that defines one inside an
        // item-position `macro_rules!` body (skipped whole).
        let is_def = |w: &[Token]| w[0].ident() == Some("fn") && w[1].ident().is_some();
        if unit.code.windows(2).filter(|w| is_def(w)).count() != unit.parsed.fns.len() {
            unlisted.push(unit.path.as_str());
        }
    }
    assert!(fn_count > 1000, "suspiciously few functions parsed: {fn_count}");
    assert_eq!(
        unlisted,
        ["crates/obs/src/event.rs", "crates/types/src/ids.rs"],
        "files with a `fn` the scanner does not list"
    );
}

/// The engines' function budget: no function in `crates/core/src` outside
/// test code runs longer than 80 lines, from its `fn` line to its closing
/// brace. A handler past it has a protocol action worth folding out.
#[test]
fn engine_functions_stay_within_the_line_budget() {
    const BUDGET: u32 = 80;
    let root = repo_root();
    let cfg = load_config(&root).expect("detlint.toml parses");
    let mut over = Vec::new();
    for unit in repo_sources(&root, &cfg) {
        if !unit.path.starts_with("crates/core/src/") {
            continue;
        }
        let code = &unit.code;
        for f in unit.parsed.fns.iter().filter(|f| !f.test_only) {
            let Some((_, end)) = f.body else { continue };
            let lines = code[end].line - f.line + 1;
            if lines > BUDGET {
                over.push(format!(
                    "{}:{} `{}` is {lines} lines",
                    unit.path, f.line, f.name
                ));
            }
        }
    }
    assert!(
        over.is_empty(),
        "functions over the {BUDGET}-line budget:\n{}",
        over.join("\n")
    );
}

/// The threaded cluster is where D7 looks: a config that drops it from
/// the scope would let a shared lock back in unseen.
#[test]
fn d7_covers_the_threaded_cluster() {
    let cfg = load_config(&repo_root()).expect("detlint.toml parses");
    assert!(cfg.rule_applies_to(RuleId::D7, "crates/cluster/src/runtime.rs"));
    assert!(cfg.rule_applies_to(RuleId::D7, "crates/cluster/src/lib.rs"));
}

/// `--json` and `--no-baseline` are gone: each is a usage error that
/// names the flag, not a silently ignored word.
#[test]
fn cli_rejects_the_removed_flags_by_name() {
    for flag in ["--json", "--no-baseline"] {
        let out = detlint(&["check", "--workspace", flag], &repo_root());
        assert_eq!(out.status.code(), Some(2), "{flag} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{stderr}"
        );
    }
}

/// A source file that is not UTF-8 is an error that names the file.
#[test]
fn cli_names_the_file_that_is_not_utf8() {
    let dir = std::env::temp_dir().join(format!("detlint_utf8_{}", std::process::id()));
    let src_dir = dir.join("crates/sim/src");
    std::fs::create_dir_all(&src_dir).expect("temp tree");
    std::fs::write(src_dir.join("bad.rs"), b"\xff\xfe").expect("write non-UTF-8 file");
    let out = detlint(&["check", "--workspace"], &dir);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("detlint: crates/sim/src/bad.rs: "),
        "{stderr}"
    );
}

/// The ratchet: a baseline accepting more findings than remain is
/// *stale* — tolerated by a plain `check`, fatal under `--ratchet` —
/// and findings in files the baseline never saw always fail.
#[test]
fn cli_ratchet_flags_stale_and_unbaselined_findings() {
    let dir = std::env::temp_dir().join(format!("detlint_ratchet_{}", std::process::id()));
    let src_dir = dir.join("crates/sim/src");
    std::fs::create_dir_all(&src_dir).expect("temp tree");
    std::fs::write(
        dir.join("detlint.toml"),
        "[deterministic]\ncrates = []\n\n[rules.D9]\ncrates = [\"sim\"]\n",
    )
    .expect("write config");
    std::fs::write(
        src_dir.join("lib.rs"),
        "fn f(v: &[u8]) -> u8 {\n    *v.first().unwrap()\n}\n",
    )
    .expect("write panic site");
    // Baseline accepts two findings; only one remains → stale.
    std::fs::write(
        dir.join("detlint.baseline.json"),
        "{\"version\": 1, \"counts\": {\"crates/sim/src/lib.rs\": {\"D9\": 2}}}\n",
    )
    .expect("write baseline");
    let check = |extra: &[&str]| detlint(&[&["check", "--workspace"], extra].concat(), &dir);
    let plain = check(&[]);
    assert!(
        plain.status.success(),
        "stale baseline must not fail a plain check:\n{}",
        String::from_utf8_lossy(&plain.stdout)
    );
    let ratchet = check(&["--ratchet"]);
    assert_eq!(
        ratchet.status.code(),
        Some(1),
        "stale baseline must fail under --ratchet"
    );
    let stdout = String::from_utf8_lossy(&ratchet.stdout);
    assert!(stdout.contains("stale baseline"), "{stdout}");
    // A finding in a file the baseline never saw fails either way.
    std::fs::write(
        src_dir.join("fresh.rs"),
        "fn g(v: &[u8]) -> u8 {\n    v[0]\n}\n",
    )
    .expect("write unbaselined panic site");
    let fresh = check(&[]);
    assert_eq!(fresh.status.code(), Some(1), "unbaselined finding must fail");
    let stdout = String::from_utf8_lossy(&fresh.stdout);
    assert!(stdout.contains("crates/sim/src/fresh.rs:2: detlint[D9]"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
