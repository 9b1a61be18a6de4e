//! `detlint.toml` — hand-parsed configuration for the determinism &
//! safety contract.
//!
//! The workspace is dependency-free, so instead of a TOML crate this
//! module parses the small subset the config actually uses: `[section]`
//! headers, `key = "string"`, and `key = [ "a", "b" ]` arrays that may
//! span lines. `#` starts a comment anywhere outside a string.
//!
//! ```toml
//! [scan]
//! exclude = ["target/", ".git/"]
//!
//! [deterministic]
//! crates = ["sim", "core"]
//!
//! [rules.D1]
//! allow = ["crates/bench/**"]
//! ```

use crate::rules::RuleId;
use std::fmt;

/// Parsed lint configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path patterns (relative to the workspace root) never scanned.
    pub exclude: Vec<String>,
    /// Crate directory names under `crates/` whose code must replay
    /// bit-identically; `root` means the workspace root package
    /// (`src/`, `tests/`, `examples/`).
    pub deterministic_crates: Vec<String>,
    /// Per-rule path allowlists: a file matching a pattern is exempt
    /// from that rule without needing an inline annotation.
    pub allow: Vec<(RuleId, Vec<String>)>,
    /// Per-rule crate scoping (`crates = [...]` under `[rules.Dn]`):
    /// the rule's pass only analyzes files belonging to these crates.
    /// Used by D7 (no shared lock, default: nothing) and D9 (panic
    /// audit over the engine crates). Rules without an entry keep
    /// their default scope (everywhere the rule applies).
    pub rule_crates: Vec<(RuleId, Vec<String>)>,
}

/// A config-file syntax error with its 1-based line.
#[derive(Debug)]
pub struct ConfigError {
    pub line: u32,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "detlint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Default for Config {
    /// The contract this repository ships with; `detlint.toml` overrides it.
    fn default() -> Self {
        Config {
            exclude: vec!["target/".into(), ".git/".into()],
            deterministic_crates: Vec::new(),
            allow: Vec::new(),
            rule_crates: Vec::new(),
        }
    }
}

impl Config {
    /// Patterns allowlisted for `rule`.
    #[must_use]
    pub fn allowed_paths(&self, rule: RuleId) -> &[String] {
        self.allow
            .iter()
            .find(|(r, _)| *r == rule)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    /// True when `path` (workspace-relative, `/`-separated) is exempt
    /// from `rule` by configuration.
    #[must_use]
    pub fn is_allowed(&self, rule: RuleId, path: &str) -> bool {
        self.allowed_paths(rule).iter().any(|p| glob_match(p, path))
    }

    /// True when `path` should not be scanned at all.
    #[must_use]
    pub fn is_excluded(&self, path: &str) -> bool {
        self.exclude.iter().any(|p| glob_match(p, path))
    }

    /// True when `path` lies inside a deterministic crate.
    #[must_use]
    pub fn is_deterministic_path(&self, path: &str) -> bool {
        Self::crate_list_covers(&self.deterministic_crates, path)
    }

    /// Crate names a rule's pass is scoped to, if configured.
    #[must_use]
    pub fn rule_crates(&self, rule: RuleId) -> Option<&[String]> {
        self.rule_crates
            .iter()
            .find(|(r, _)| *r == rule)
            .map(|(_, v)| v.as_slice())
    }

    /// True when `rule` is scoped to crates and `path` lies in one of
    /// them. Rules without a `crates = [...]` entry return false — the
    /// scoped rules (D7, D9) are opt-in per crate.
    #[must_use]
    pub fn rule_applies_to(&self, rule: RuleId, path: &str) -> bool {
        self.rule_crates(rule)
            .is_some_and(|crates| Self::crate_list_covers(crates, path))
    }

    /// Shared membership test for crate-name lists: `root` means the
    /// workspace package (`src/`, `tests/`, `examples/`), anything else
    /// the crate directory under `crates/`.
    fn crate_list_covers(crates: &[String], path: &str) -> bool {
        crates.iter().any(|c| {
            if c == "root" {
                path.starts_with("src/")
                    || path.starts_with("tests/")
                    || path.starts_with("examples/")
            } else {
                path.starts_with(&format!("crates/{c}/"))
            }
        })
    }

    /// Parses the config text. Unknown sections and keys are errors so a
    /// typo in `detlint.toml` cannot silently disable a rule.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config {
            exclude: Vec::new(),
            deterministic_crates: Vec::new(),
            allow: Vec::new(),
            rule_crates: Vec::new(),
        };
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = (idx + 1) as u32;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name.strip_suffix(']').ok_or_else(|| ConfigError {
                    line: lineno,
                    message: format!("unterminated section header `{line}`"),
                })?;
                section = name.trim().to_string();
                match section.as_str() {
                    "scan" | "deterministic" => {}
                    s if s.strip_prefix("rules.").is_some_and(|r| {
                        RuleId::parse(r).is_some()
                    }) => {}
                    other => {
                        return Err(ConfigError {
                            line: lineno,
                            message: format!("unknown section `[{other}]`"),
                        })
                    }
                }
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| ConfigError {
                line: lineno,
                message: format!("expected `key = value`, got `{line}`"),
            })?;
            let key = key.trim();
            let mut value = value.trim().to_string();
            // Arrays may span lines: keep appending until brackets balance.
            if value.starts_with('[') {
                while !value.contains(']') {
                    let (_, cont) = lines.next().ok_or_else(|| ConfigError {
                        line: lineno,
                        message: format!("unterminated array for key `{key}`"),
                    })?;
                    value.push(' ');
                    value.push_str(strip_comment(cont).trim());
                }
            }
            let values = parse_value(&value, lineno)?;
            match (section.as_str(), key) {
                ("scan", "exclude") => cfg.exclude = values,
                ("deterministic", "crates") => cfg.deterministic_crates = values,
                (s, "allow" | "crates") => {
                    let rule_name = s.strip_prefix("rules.").unwrap_or("");
                    let rule = RuleId::parse(rule_name).ok_or_else(|| ConfigError {
                        line: lineno,
                        message: format!("unknown rule `{rule_name}`"),
                    })?;
                    if key == "allow" {
                        cfg.allow.push((rule, values));
                    } else {
                        cfg.rule_crates.push((rule, values));
                    }
                }
                (s, k) => {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown key `{k}` in section `[{s}]`"),
                    })
                }
            }
        }
        if cfg.exclude.is_empty() {
            cfg.exclude = Config::default().exclude;
        }
        Ok(cfg)
    }
}

/// Splits off a `#` comment, ignoring `#` inside double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `"string"` or `[ "a", "b" ]` into a list of strings.
fn parse_value(value: &str, line: u32) -> Result<Vec<String>, ConfigError> {
    let err = |message: String| ConfigError { line, message };
    let value = value.trim();
    if let Some(inner) = value.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| err(format!("unterminated array `{value}`")))?;
        let mut out = Vec::new();
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue; // trailing comma
            }
            out.push(unquote(part).ok_or_else(|| {
                err(format!("array element `{part}` is not a quoted string"))
            })?);
        }
        Ok(out)
    } else {
        Ok(vec![unquote(value)
            .ok_or_else(|| err(format!("value `{value}` is not a quoted string")))?])
    }
}

fn unquote(s: &str) -> Option<String> {
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(String::from)
}

/// Tiny glob matcher: `*` matches any run of characters **including**
/// `/` (so `crates/bench/**` and `crates/bench/*` behave alike); every
/// other character matches itself. A pattern with no `*` matches as a
/// path prefix, so `crates/bench/` covers the whole crate.
#[must_use]
pub fn glob_match(pattern: &str, path: &str) -> bool {
    fn rec(p: &[u8], s: &[u8]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some(b'*') => {
                // Collapse consecutive stars, then try every split point.
                let rest = {
                    let mut i = 0;
                    while p.get(i) == Some(&b'*') {
                        i += 1;
                    }
                    &p[i..]
                };
                (0..=s.len()).any(|k| rec(rest, &s[k..]))
            }
            Some(&c) => s.first() == Some(&c) && rec(&p[1..], &s[1..]),
        }
    }
    if !pattern.contains('*') {
        return path.starts_with(pattern) || path == pattern.trim_end_matches('/');
    }
    rec(pattern.as_bytes(), path.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shipped_shape() {
        let cfg = Config::parse(
            r#"
# comment
[scan]
exclude = ["target/", ".git/"]

[deterministic]
crates = [
    "sim",  # trailing comment
    "core",
]

[rules.D1]
allow = ["crates/bench/**", "crates/cluster/src/runtime.rs"]
"#,
        )
        .expect("parses");
        assert_eq!(cfg.deterministic_crates, vec!["sim", "core"]);
        assert!(cfg.is_allowed(RuleId::D1, "crates/bench/src/harness.rs"));
        assert!(cfg.is_allowed(RuleId::D1, "crates/cluster/src/runtime.rs"));
        assert!(!cfg.is_allowed(RuleId::D1, "crates/sim/src/rng.rs"));
        assert!(cfg.is_excluded("target/debug/build.rs"));
        assert!(cfg.is_deterministic_path("crates/sim/src/rng.rs"));
        assert!(!cfg.is_deterministic_path("crates/cluster/src/sync.rs"));
    }

    #[test]
    fn unknown_rule_and_key_are_errors() {
        assert!(Config::parse("[rules.D12]\nallow = [\"x\"]").is_err());
        assert!(Config::parse("[scan]\ninclude = [\"x\"]").is_err());
        assert!(Config::parse("[surprise]\n").is_err());
    }

    #[test]
    fn rule_crate_scoping_parses_and_matches() {
        let cfg = Config::parse(
            "[rules.D9]\ncrates = [\"core\", \"sim\", \"root\"]\n[rules.D7]\ncrates = [\"cluster\"]\n",
        )
        .expect("parses");
        assert!(cfg.rule_applies_to(RuleId::D9, "crates/core/src/buffer.rs"));
        assert!(cfg.rule_applies_to(RuleId::D9, "tests/property_tests.rs"));
        assert!(!cfg.rule_applies_to(RuleId::D9, "crates/cluster/src/server.rs"));
        assert!(cfg.rule_applies_to(RuleId::D7, "crates/cluster/src/server.rs"));
        // Unscoped rules are opt-in: no entry means the pass skips.
        assert!(!cfg.rule_applies_to(RuleId::D10, "crates/cluster/src/server.rs"));
        assert_eq!(cfg.rule_crates(RuleId::D7).unwrap(), ["cluster"]);
    }

    #[test]
    fn glob_semantics() {
        assert!(glob_match("crates/bench/", "crates/bench/src/lib.rs"));
        assert!(glob_match("crates/*/benches/*", "crates/bench/benches/cluster.rs"));
        assert!(!glob_match("crates/bench/", "crates/cluster/src/lib.rs"));
        assert!(glob_match("examples/", "examples/quickstart.rs"));
        assert!(glob_match("tests/", "tests/property_tests.rs"));
        assert!(glob_match("src/bin/", "src/bin/tool.rs"));
    }

    #[test]
    fn root_pseudo_crate_covers_workspace_package() {
        let cfg = Config::parse("[deterministic]\ncrates = [\"root\"]").expect("ok");
        assert!(cfg.is_deterministic_path("src/lib.rs"));
        assert!(cfg.is_deterministic_path("tests/property_tests.rs"));
        assert!(!cfg.is_deterministic_path("crates/sim/src/lib.rs"));
    }
}
