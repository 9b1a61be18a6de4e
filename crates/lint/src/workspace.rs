//! File discovery and the one pass list: [`check`] reads, lexes and
//! parses each file once into a [`SourceFile`], then runs every pass
//! over that set — the token rules (D1–D7, D10; D7 on the crates
//! `detlint.toml` names for it) and the panic audit (D9) on the crates it
//! is scoped to — and applies the baseline. `detlint check --workspace`
//! and `detlint check <files>` differ only in the file list they hand it.

use crate::baseline::{Baseline, StaleEntry};
use crate::config::Config;
use crate::lexer::{lex, Token};
use crate::parse::{parse_file, ParsedFile};
use crate::rules::{
    check_file, collect_annotations, collect_symbols, crate_wide_map_names, Annotations,
    FileContext, RuleId, SymbolTable, Violation,
};
use crate::panic;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// One source file, lexed and parsed once, shared by every pass.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The code tokens (comments stripped): the view every pass walks and
    /// body spans index into.
    pub code: Vec<Token>,
    /// The comment tokens, in source order.
    pub comments: Vec<Token>,
    pub parsed: ParsedFile,
    pub annotations: Annotations,
    /// Names this file declares map-typed / non-map-typed (D2).
    pub symbols: SymbolTable,
}

impl SourceFile {
    #[must_use]
    pub fn new(path: String, src: &str) -> SourceFile {
        let tokens = lex(src);
        let annotations = collect_annotations(&tokens);
        let (code, comments): (Vec<Token>, Vec<Token>) =
            tokens.into_iter().partition(Token::is_code);
        let parsed = parse_file(&code);
        let symbols = collect_symbols(&code);
        SourceFile {
            path,
            code,
            comments,
            parsed,
            annotations,
            symbols,
        }
    }
}

/// Aggregate result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub files_checked: usize,
    pub suppressions: u32,
    /// Findings absorbed by `detlint.baseline.json`.
    pub absorbed: usize,
    /// Baseline entries whose accepted count exceeds reality (the
    /// surface shrank; `--ratchet` fails until the file is regenerated).
    pub stale: Vec<StaleEntry>,
}

impl Report {
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The crate a workspace-relative path belongs to for symbol-table
/// purposes: `crates/<name>/…` → `<name>`, everything else (`src/`,
/// `tests/`, `examples/`) → `root`.
#[must_use]
pub fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return name.to_string();
        }
    }
    "root".to_string()
}

/// A file is "library code" for D6 when it compiles into a `lib` target:
/// under some `src/` but not `src/bin/`, not `main.rs`, and not under
/// `tests/`, `examples/` or `benches/`.
#[must_use]
pub fn is_library_path(path: &str) -> bool {
    let in_src = path.starts_with("src/") || path.contains("/src/");
    in_src
        && !path.contains("/bin/")
        && !path.ends_with("/main.rs")
        && !path.starts_with("tests/")
        && !path.starts_with("examples/")
        && !path.contains("/tests/")
        && !path.contains("/examples/")
        && !path.contains("/benches/")
}

/// Recursively lists `.rs` files under `root`, skipping excluded paths.
/// Returned paths are workspace-relative with `/` separators, sorted so
/// diagnostics come out in a stable order on every platform.
pub fn discover_files(root: &Path, cfg: &Config) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let rel = relative(&path, root);
            if cfg.is_excluded(&rel) || rel.starts_with('.') {
                continue;
            }
            let ty = entry.file_type()?;
            if ty.is_dir() {
                stack.push(path);
            } else if rel.ends_with(".rs") {
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn relative(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    // Normalize to `/` so configs match on every platform.
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lints the given workspace-relative files with every pass; `baseline`
/// (usually [`load_baseline`]) absorbs accepted findings.
///
/// # Errors
///
/// `<path>: <cause>` for a file that cannot be read as UTF-8 text.
pub fn check(
    root: &Path,
    files: &[String],
    cfg: &Config,
    baseline: Option<&Baseline>,
) -> Result<Report, String> {
    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        let src = fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
        sources.push(SourceFile::new(rel.clone(), &src));
    }

    // D2 resolves map-typed names per crate, so the symbol tables of a
    // crate's files are merged before any file is checked.
    let crates: BTreeSet<String> = sources.iter().map(|f| crate_of(&f.path)).collect();
    let crate_maps: BTreeMap<String, BTreeSet<String>> = crates
        .into_iter()
        .map(|name| {
            let files = sources.iter().filter(|f| crate_of(&f.path) == name);
            let maps = crate_wide_map_names(files.map(|f| &f.symbols));
            (name, maps)
        })
        .collect();

    let mut report = Report {
        files_checked: sources.len(),
        ..Report::default()
    };
    for file in &sources {
        let rel = &file.path;
        let ctx = FileContext {
            allow_wall_clock: cfg.is_allowed(RuleId::D1, rel),
            allow_rng: cfg.is_allowed(RuleId::D3, rel),
            deterministic: cfg.is_deterministic_path(rel) && !cfg.is_allowed(RuleId::D2, rel),
            library: is_library_path(rel),
            allow_print: cfg.is_allowed(RuleId::D6, rel),
            fixed_hasher: cfg.is_deterministic_path(rel) && !cfg.is_allowed(RuleId::D10, rel),
            channels_only: cfg.rule_applies_to(RuleId::D7, rel),
            crate_map_names: &crate_maps[&crate_of(rel)],
        };
        report.suppressions += file.annotations.count;
        report.violations.extend(check_file(file, &ctx));
        // The panic audit covers engine *library* code: integration
        // tests, benches and examples may panic freely.
        if cfg.rule_applies_to(RuleId::D9, rel)
            && is_library_path(rel)
            && !cfg.is_allowed(RuleId::D9, rel)
        {
            report.violations.extend(panic::check_file(file));
        }
    }

    if let Some(b) = baseline {
        let outcome = b.apply(std::mem::take(&mut report.violations));
        report.violations = outcome.kept;
        report.absorbed = outcome.absorbed;
        report.stale = outcome.stale;
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Loads `detlint.toml` from `root`, falling back to defaults when the
/// file does not exist.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path: PathBuf = root.join("detlint.toml");
    match fs::read_to_string(&path) {
        Ok(text) => Config::parse(&text).map_err(|e| e.to_string()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Loads `detlint.baseline.json` from `root`; `Ok(None)` when absent.
pub fn load_baseline(root: &Path) -> Result<Option<Baseline>, String> {
    let path = root.join("detlint.baseline.json");
    match fs::read_to_string(&path) {
        Ok(text) => Baseline::parse(&text).map(Some).map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_grouping() {
        assert_eq!(crate_of("crates/sim/src/rng.rs"), "sim");
        assert_eq!(crate_of("src/lib.rs"), "root");
        assert_eq!(crate_of("tests/property_tests.rs"), "root");
    }

    #[test]
    fn library_classification() {
        assert!(is_library_path("crates/sim/src/rng.rs"));
        assert!(is_library_path("src/lib.rs"));
        assert!(!is_library_path("crates/bench/src/bin/repro.rs"));
        assert!(!is_library_path("crates/lint/src/main.rs"));
        assert!(!is_library_path("tests/property_tests.rs"));
        assert!(!is_library_path("examples/quickstart.rs"));
        assert!(!is_library_path("crates/bench/benches/cluster.rs"));
    }
}
