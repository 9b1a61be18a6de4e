//! The determinism & safety contract: the rule registry and the
//! per-file checking pass.
//!
//! The authoritative rule list is [`REGISTRY`] (one row per rule:
//! id, mnemonic name, summary). `detlint rules`, the generated comment
//! table in `detlint.toml`, and the docs all render from it; see
//! [`toml_rule_table`].
//!
//! A deliberate violation is suppressed in place with
//! `// detlint: allow(D2) — <reason>` either trailing the offending line
//! or on the line directly above it; the reason text is mandatory.
//! D9 findings may alternatively be absorbed by the committed
//! `detlint.baseline.json` (see [`crate::baseline`]) so the existing
//! panic surface can be burned down incrementally while CI gates new
//! findings.
//!
//! This module implements the token rules D1–D7 and D10. D1/D3 flag the direct
//! read only: the clock and entropy sources live in allowlisted files of
//! crates no deterministic crate may depend on (a test over the Cargo
//! graph holds that line). D2 flags *every* hash-ordered iteration in a
//! deterministic crate; a site whose order cannot escape (an order-free
//! fold, a collect that is sorted next) says so in its annotation. D7
//! flags any lock in the threaded cluster: its sites share only channels,
//! and with no lock there is no lock-order cycle and no guard held across
//! a send or a join to analyse. The D9 audit lives in [`crate::panic`].
//!
//! The engine is token-pattern based (see [`crate::lexer`]): it has no
//! type information, so D2 relies on a per-crate symbol table of names
//! declared with `HashMap`/`HashSet` types (fields, lets, struct-literal
//! initializers). A name declared as a non-map type in the *same file*
//! shadows a map-typed declaration elsewhere in the crate, which keeps
//! `objects: Vec<…>` in `table.rs` distinct from `objects: HashMap<…>`
//! in `reference.rs`. Closure parameters and freshly returned values are
//! invisible to the table — the rule is a tripwire for the common ways
//! nondeterminism sneaks in, not a type checker.

use crate::lexer::{TokKind, Token};
use crate::workspace::SourceFile;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifier of one contract rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    D1,
    D2,
    D3,
    D4,
    D5,
    D6,
    D7,
    D9,
    D10,
}

/// One row of the rule registry. `detlint rules`, the generated comment
/// table in `detlint.toml`, the config parser, and the docs all derive
/// from this single table so they cannot drift.
pub struct RuleMeta {
    pub id: RuleId,
    pub name: &'static str,
    pub summary: &'static str,
    /// Findings may be absorbed by `detlint.baseline.json` (burn-down
    /// rules); all other rules must be fixed or inline-annotated.
    pub baselined: bool,
}

/// The registry: the one authoritative description of the contract.
pub const REGISTRY: [RuleMeta; 9] = [
    RuleMeta {
        id: RuleId::D1,
        name: "wall-clock",
        summary: "wall-clock read outside the allowlisted harness modules",
        baselined: false,
    },
    RuleMeta {
        id: RuleId::D2,
        name: "map-iter",
        summary: "hash-ordered HashMap/HashSet iteration in a deterministic crate without a stated reason",
        baselined: false,
    },
    RuleMeta {
        id: RuleId::D3,
        name: "unseeded-rng",
        summary: "ambient (unseeded) randomness source",
        baselined: false,
    },
    RuleMeta {
        id: RuleId::D4,
        name: "undocumented-unsafe",
        summary: "`unsafe` without a nearby `// SAFETY:` comment",
        baselined: false,
    },
    RuleMeta {
        id: RuleId::D5,
        name: "bare-allow",
        summary: "#[allow(...)] without a reason comment",
        baselined: false,
    },
    RuleMeta {
        id: RuleId::D6,
        name: "stray-print",
        summary: "print macro in library code (route output through obs/bench)",
        baselined: false,
    },
    RuleMeta {
        id: RuleId::D7,
        name: "shared-lock",
        summary: "Mutex/RwLock/Condvar or `.lock()` in the threaded cluster, whose sites share only channels",
        baselined: false,
    },
    RuleMeta {
        id: RuleId::D9,
        name: "panic-surface",
        summary: "unwrap/expect/slice-indexing in engine crates without a proven invariant",
        baselined: true,
    },
    RuleMeta {
        id: RuleId::D10,
        name: "random-hasher",
        summary: "HashMap/HashSet on std's per-process random hasher in deterministic library code",
        baselined: false,
    },
];

impl RuleId {
    /// This rule's registry row.
    #[must_use]
    pub fn meta(self) -> &'static RuleMeta {
        &REGISTRY[self as usize]
    }

    /// Parses `"D1"` / `"d1"` / the mnemonic name (not `FromStr`: no error type).
    #[must_use]
    pub fn parse(s: &str) -> Option<RuleId> {
        let lower = s.to_ascii_lowercase();
        REGISTRY
            .iter()
            .find(|m| lower == m.id.id().to_ascii_lowercase() || lower == m.name)
            .map(|m| m.id)
    }

    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::D4 => "D4",
            RuleId::D5 => "D5",
            RuleId::D6 => "D6",
            RuleId::D7 => "D7",
            RuleId::D9 => "D9",
            RuleId::D10 => "D10",
        }
    }
}

/// The canonical rule-table comment block embedded in `detlint.toml`
/// between the `# --- rule table` markers. `detlint rules --toml`
/// prints it; an engine test asserts the committed config matches, so
/// the config comments cannot drift from the registry.
#[must_use]
pub fn toml_rule_table() -> String {
    let mut out = String::from(
        "# --- rule table (generated: `detlint rules --toml`; do not edit by hand) ---\n",
    );
    for m in &REGISTRY {
        out.push_str(&format!(
            "#   {:<3} {:<20}{} {}\n",
            m.id.id(),
            m.name,
            if m.baselined { " [baselined]" } else { "" },
            m.summary,
        ));
    }
    out.push_str("# --- end rule table ---\n");
    out
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One diagnostic: `file:line: detlint[D2]: message`.
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub rule: RuleId,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: detlint[{}]: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Names declared map-typed / non-map-typed, collected per file and
/// merged per crate for D2 resolution.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    pub map_names: BTreeSet<String>,
    pub nonmap_names: BTreeSet<String>,
}

/// Map-typed names visible crate-wide: the union of every file's
/// declarations, minus any name some file in the crate declares as a
/// non-map type (those fall back to per-file resolution).
#[must_use]
pub fn crate_wide_map_names<'t>(tables: impl Iterator<Item = &'t SymbolTable>) -> BTreeSet<String> {
    let mut maps = BTreeSet::new();
    let mut nonmaps = BTreeSet::new();
    for t in tables {
        maps.extend(t.map_names.iter().cloned());
        nonmaps.extend(t.nonmap_names.iter());
    }
    maps.retain(|n| !nonmaps.contains(n));
    maps
}

const MAP_TYPES: [&str; 2] = ["HashMap", "HashSet"];
/// Methods whose visit order follows the hash order.
const ORDER_DEPENDENT_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "retain",
];
const PRINT_MACROS: [&str; 5] = ["println", "print", "eprintln", "eprint", "dbg"];
const LOCK_TYPES: [&str; 3] = ["Mutex", "RwLock", "Condvar"];
pub(crate) const AMBIENT_RNG_IDENTS: [&str; 6] = [
    "thread_rng",
    "from_entropy",
    "OsRng",
    "getrandom",
    "RandomState",
    "DefaultHasher",
];

/// Scans declarations in one file: struct fields (`name: HashMap<…>`),
/// let bindings (`let name: HashMap<…>`, `let name = HashMap::new()`),
/// and struct-literal initializers (`name: HashMap::new()`).
#[must_use]
pub fn collect_symbols(code: &[Token]) -> SymbolTable {
    let mut table = SymbolTable::default();
    for i in 0..code.len() {
        // `let [mut] name = <path>…` where the path mentions HashMap/HashSet.
        if code[i].ident() == Some("let") {
            let mut j = i + 1;
            if code.get(j).and_then(|t| t.ident()) == Some("mut") {
                j += 1;
            }
            let Some(name) = code.get(j).and_then(|t| t.ident()) else {
                continue;
            };
            if code.get(j + 1).is_some_and(|t| t.is_punct('=')) {
                let path = leading_path(&code[skip_ref_prefix(code, j + 2)..]);
                if path.iter().any(|s| MAP_TYPES.contains(&s.as_str())) {
                    table.map_names.insert(name.to_string());
                }
            }
            // `let name: Type` falls through to the `name :` case below.
        }
        // `name : <type-path>` — field declarations, typed lets, and
        // struct-literal initializers.
        if code.get(i + 1).is_some_and(|t| t.is_punct(':'))
            // `::` is a path separator, not an ascription.
            && !code.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && !code.get(i.wrapping_sub(1)).is_some_and(|t| t.is_punct(':'))
        {
            let Some(name) = code[i].ident() else { continue };
            if name.chars().next().is_some_and(char::is_uppercase) {
                continue; // enum variant / struct path, not a binding
            }
            let path = leading_path(&code[skip_ref_prefix(code, i + 2)..]);
            if path.iter().any(|s| MAP_TYPES.contains(&s.as_str())) {
                table.map_names.insert(name.to_string());
            } else if path
                .iter()
                .any(|s| s.chars().next().is_some_and(char::is_uppercase))
            {
                // A real type path that is not a map (e.g. `Vec`, `BTreeMap`)
                // marks the name non-map *for this file*. Lowercase-only
                // paths are struct-pattern bindings (`Foo { txns: t }`) and
                // prove nothing about the field's type.
                table.nonmap_names.insert(name.to_string());
            }
        }
    }
    table
}

/// Skips reference sigils so `m: &'a mut HashMap<…>` registers `m` the
/// same as an owned binding.
fn skip_ref_prefix(code: &[Token], mut j: usize) -> usize {
    while code.get(j).is_some_and(|t| {
        t.is_punct('&') || t.kind == TokKind::Lifetime || t.ident() == Some("mut")
    }) {
        j += 1;
    }
    j
}

/// The identifier path starting at `code[0]`: `std :: collections ::
/// HashMap` → `["std", "collections", "HashMap"]`. Stops at the first
/// token that is neither an ident nor a `::` separator; also swallows
/// one level of `<…>` so `Option<HashMap<…>>` exposes `HashMap`.
fn leading_path(code: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    let mut depth = 0u32;
    while i < code.len() {
        match &code[i].kind {
            TokKind::Ident(s) => {
                out.push(s.clone());
                i += 1;
            }
            TokKind::Punct(':')
                if code.get(i + 1).is_some_and(|t| t.is_punct(':')) =>
            {
                i += 2;
            }
            TokKind::Punct('<') if depth == 0 && !out.is_empty() => {
                depth = 1;
                i += 1;
            }
            TokKind::Punct('>') if depth == 1 => {
                depth = 0;
                i += 1;
            }
            TokKind::Punct(',') if depth == 1 => {
                i += 1;
            }
            _ if depth == 1 => {
                i += 1;
                if i > 64 {
                    break; // defensive bound on generic-argument scans
                }
            }
            _ => break,
        }
    }
    out
}

/// Inline suppressions and their reasons, by target line. Every pass
/// honors the same annotations.
#[derive(Debug, Default)]
pub struct Annotations {
    /// line → rules allowed on that line.
    allowed: BTreeMap<u32, BTreeSet<RuleId>>,
    /// Annotations missing a reason (reported as violations of the
    /// contract itself).
    bad: Vec<(u32, String)>,
    /// Total well-formed suppressions in the file.
    pub count: u32,
}

impl Annotations {
    /// True when a well-formed `allow(rule)` targets `line`.
    #[must_use]
    pub fn allows(&self, rule: RuleId, line: u32) -> bool {
        self.allowed
            .get(&line)
            .is_some_and(|rules| rules.contains(&rule))
    }
}

/// Parses `// detlint: allow(D2, D6) — reason` out of comment tokens. A
/// trailing comment applies to its own line; a standalone comment
/// applies to the next line that has code.
#[must_use]
pub fn collect_annotations(tokens: &[Token]) -> Annotations {
    let mut ann = Annotations::default();
    for (idx, tok) in tokens.iter().enumerate() {
        let (text, trailing) = match &tok.kind {
            TokKind::LineComment { text, trailing } => (text.as_str(), *trailing),
            TokKind::BlockComment { text } => (text.as_str(), true),
            _ => continue,
        };
        let Some(rest) = text.split("detlint:").nth(1) else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow") else {
            ann.bad.push((tok.line, "unrecognized detlint directive (expected `allow(...)`)".into()));
            continue;
        };
        let Some(open) = rest.find('(') else {
            ann.bad.push((tok.line, "missing `(` after `allow`".into()));
            continue;
        };
        let Some(close) = rest.find(')') else {
            ann.bad.push((tok.line, "missing `)` in allow(...)".into()));
            continue;
        };
        let mut rules = BTreeSet::new();
        let mut parse_ok = true;
        for part in rest[open + 1..close].split(',') {
            match RuleId::parse(part.trim()) {
                Some(r) => {
                    rules.insert(r);
                }
                None => {
                    ann.bad
                        .push((tok.line, format!("unknown rule `{}`", part.trim())));
                    parse_ok = false;
                }
            }
        }
        if !parse_ok {
            continue;
        }
        // A reason is mandatory: any word characters after the `)`.
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
            .trim();
        if reason.is_empty() {
            ann.bad.push((
                tok.line,
                "suppression has no reason (write `// detlint: allow(Dn) — why`)".into(),
            ));
            continue;
        }
        let target = if trailing {
            tok.line
        } else {
            // Standalone: the next line carrying code (skipping further
            // comment-only lines so annotations can sit above a doc'd item).
            tokens[idx + 1..]
                .iter()
                .find(|t| t.is_code())
                .map_or(tok.line + 1, |t| t.line)
        };
        ann.count += u32::from(!rules.is_empty());
        ann.allowed.entry(target).or_default().extend(rules);
    }
    ann
}

/// Everything the checker needs to know about the file being linted.
pub struct FileContext<'a> {
    /// D1/D3 exempt (allowlisted wall-clock / rng module).
    pub allow_wall_clock: bool,
    pub allow_rng: bool,
    /// File lies in a deterministic crate → D2 applies.
    pub deterministic: bool,
    /// File is library code → D6 applies.
    pub library: bool,
    /// D6 exempt by config even if `library`.
    pub allow_print: bool,
    /// Deterministic crate, not allowlisted → D10 applies to library code.
    pub fixed_hasher: bool,
    /// In a crate whose sites share only channels → D7 applies.
    pub channels_only: bool,
    /// Map-typed names visible crate-wide (conflict-free across files).
    pub crate_map_names: &'a BTreeSet<String>,
}

/// Runs the token rules (D1–D7, D10) over one file.
#[must_use]
pub fn check_file(file: &SourceFile, ctx: &FileContext<'_>) -> Vec<Violation> {
    let comments = &file.comments;
    let symbols = &file.symbols;
    let ann = &file.annotations;
    let mut out = Vec::new();
    for (line, msg) in &ann.bad {
        out.push(Violation {
            file: file.path.clone(),
            line: *line,
            rule: RuleId::D5,
            message: format!("malformed suppression: {msg}"),
        });
    }

    // Lines with a SAFETY: comment (the comment itself or the next code
    // line satisfy D4 if within reach).
    let safety_lines: BTreeSet<u32> = comments
        .iter()
        .filter_map(|t| match &t.kind {
            TokKind::LineComment { text, .. } | TokKind::BlockComment { text }
                if text.contains("SAFETY:") =>
            {
                Some(t.line)
            }
            _ => None,
        })
        .collect();
    // Lines carrying any comment at all (for D5's reason requirement).
    let comment_lines: BTreeSet<u32> = comments.iter().map(|t| t.line).collect();

    let mut emit = |rule: RuleId, line: u32, message: String| {
        if !ann.allows(rule, line) {
            out.push(Violation {
                file: file.path.clone(),
                line,
                rule,
                message,
            });
        }
    };

    let code = &file.code;
    for i in 0..code.len() {
        let t = &code[i];
        let Some(name) = t.ident() else {
            // D5: `#[allow(` / `#![allow(`.
            if t.is_punct('#') {
                let mut j = i + 1;
                if code.get(j).is_some_and(|t| t.is_punct('!')) {
                    j += 1;
                }
                if code.get(j).is_some_and(|t| t.is_punct('['))
                    && code.get(j + 1).and_then(|t| t.ident()) == Some("allow")
                    && code.get(j + 2).is_some_and(|t| t.is_punct('('))
                {
                    let line = t.line;
                    let has_reason = comment_lines.contains(&line)
                        || comment_lines.contains(&line.saturating_sub(1));
                    if !has_reason {
                        emit(
                            RuleId::D5,
                            line,
                            "#[allow(...)] without a reason comment on this or the previous line"
                                .to_string(),
                        );
                    }
                }
            }
            continue;
        };

        let followed_by = |j: usize, c: char| code.get(i + j).is_some_and(|t| t.is_punct(c));
        let path_call = |seg: &str| {
            followed_by(1, ':')
                && followed_by(2, ':')
                && code.get(i + 3).and_then(|t| t.ident()) == Some(seg)
        };

        // D1: wall-clock reads.
        if !ctx.allow_wall_clock {
            if name == "Instant" && path_call("now") {
                emit(
                    RuleId::D1,
                    t.line,
                    "`Instant::now()` in deterministic code — simulation time must come from the event clock".to_string(),
                );
            }
            if name == "SystemTime" && followed_by(1, ':') && followed_by(2, ':') {
                emit(
                    RuleId::D1,
                    t.line,
                    "`SystemTime` access in deterministic code".to_string(),
                );
            }
        }

        // D3: ambient randomness.
        if !ctx.allow_rng {
            if AMBIENT_RNG_IDENTS.contains(&name) {
                emit(
                    RuleId::D3,
                    t.line,
                    format!("`{name}` is an unseeded randomness source — use the seeded `Prng`"),
                );
            }
            if name == "rand" && followed_by(1, ':') && followed_by(2, ':') {
                emit(
                    RuleId::D3,
                    t.line,
                    "`rand::` path — the workspace PRNG is `siteselect_sim::Prng`".to_string(),
                );
            }
        }

        // D4: undocumented unsafe.
        if name == "unsafe" {
            let line = t.line;
            let documented = (line.saturating_sub(3)..=line)
                .any(|l| safety_lines.contains(&l));
            if !documented {
                emit(
                    RuleId::D4,
                    line,
                    "`unsafe` without a `// SAFETY:` comment on or within 3 lines above"
                        .to_string(),
                );
            }
        }

        // D6: print macros in library code.
        if ctx.library
            && !ctx.allow_print
            && PRINT_MACROS.contains(&name)
            && followed_by(1, '!')
        {
            emit(
                RuleId::D6,
                t.line,
                format!("`{name}!` in library code — emit through `obs` events or return strings"),
            );
        }

        // D7: a lock where the sites share only channels (test code may
        // bring its own).
        let lock_call =
            name == "lock" && i > 0 && code[i - 1].is_punct('.') && followed_by(1, '(');
        let locks = LOCK_TYPES.contains(&name) || lock_call;
        if ctx.channels_only && locks && !file.parsed.in_test_span(i) {
            let what = if lock_call { ".lock()" } else { name };
            emit(
                RuleId::D7,
                t.line,
                format!("`{what}` in the threaded cluster — its sites share only channels: send a message instead"),
            );
        }

        // D10: a hash container on std's per-process random hasher.
        let hashed = ctx.fixed_hasher && ctx.library && MAP_TYPES.contains(&name);
        if hashed && !file.parsed.in_test_span(i) {
            let args = if name == "HashMap" { 3 } else { 2 };
            let by_type = followed_by(1, '<') && type_args(code, i + 1) < args;
            if by_type || path_call("new") || path_call("with_capacity") {
                emit(RuleId::D10, t.line, format!("`{name}` on std's random hasher"));
            }
        }

        // D2: order-dependent iteration in deterministic crates.
        if ctx.deterministic {
            let is_map_name = |n: &str| {
                if symbols.nonmap_names.contains(n) && !symbols.map_names.contains(n) {
                    false
                } else {
                    symbols.map_names.contains(n) || ctx.crate_map_names.contains(n)
                }
            };
            // `<name> . <method> (`
            if followed_by(1, '.')
                && code.get(i + 3).is_some_and(|t| t.is_punct('('))
            {
                if let Some(method) = code.get(i + 2).and_then(|t| t.ident()) {
                    if ORDER_DEPENDENT_METHODS.contains(&method) && is_map_name(name) {
                        emit(
                            RuleId::D2,
                            t.line,
                            format!(
                                "`.{method}()` on hash-ordered `{name}` — use an ordered map, or annotate with the sort / order-free fold that closes the escape"
                            ),
                        );
                    }
                }
            }
            // `for <pat> in [&[mut]] [self.]<name> {`
            if name == "for" {
                if let Some((target, line)) = for_loop_target(&code[i..]) {
                    if is_map_name(target) {
                        emit(
                            RuleId::D2,
                            line,
                            format!(
                                "`for … in` over hash-ordered `{target}` — use an ordered map, or annotate with the sort / order-free fold that closes the escape"
                            ),
                        );
                    }
                }
            }
        }
    }
    out
}

/// How many type arguments the `<…>` opening at `code[open]` holds.
fn type_args(code: &[Token], open: usize) -> usize {
    let (mut depth, mut args) = (0, 1);
    for t in &code[open..crate::parse::generics_end(code, open)] {
        match t.kind {
            TokKind::Punct('<' | '(' | '[') => depth += 1,
            TokKind::Punct('>' | ')' | ']') => depth -= 1,
            TokKind::Punct(',') if depth == 1 => args += 1,
            _ => {}
        }
    }
    args
}

/// For `code` starting at a `for` token, returns the identifier being
/// iterated and its line when the loop has the direct shape
/// `for <pat> in [&][mut] [self .] name {` — method chains after the
/// name are handled by the method-call check instead.
fn for_loop_target(code: &[Token]) -> Option<(&str, u32)> {
    // Find `in` within a short window, stopping at tokens that cannot
    // appear in a loop pattern — `impl Display for Foo {` must not scan
    // into the impl body and pick up an unrelated `in`.
    let mut j = 1;
    loop {
        let t = code.get(j)?;
        if t.ident() == Some("in") {
            break;
        }
        if t.is_punct('{') || t.is_punct(';') || t.is_punct('}') || j > 24 {
            return None;
        }
        j += 1;
    }
    let mut k = j + 1;
    while code.get(k).is_some_and(|t| t.is_punct('&'))
        || code.get(k).and_then(|t| t.ident()) == Some("mut")
    {
        k += 1;
    }
    if code.get(k).and_then(|t| t.ident()) == Some("self")
        && code.get(k + 1).is_some_and(|t| t.is_punct('.'))
    {
        k += 2;
    }
    let name = code.get(k).and_then(|t| t.ident())?;
    if code.get(k + 1).is_some_and(|t| t.is_punct('{')) {
        return Some((name, code[k].line));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the tests below look at: the findings plus the file's
    /// well-formed suppression count.
    struct FileReport {
        violations: Vec<Violation>,
        suppressions: u32,
    }

    fn check_file(src: &str, ctx: &FileContext<'_>) -> FileReport {
        let file = SourceFile::new("crates/sim/src/test.rs".into(), src);
        FileReport {
            suppressions: file.annotations.count,
            violations: super::check_file(&file, ctx),
        }
    }

    fn ctx_det(crate_maps: &BTreeSet<String>) -> FileContext<'_> {
        FileContext {
            allow_wall_clock: false,
            allow_rng: false,
            deterministic: true,
            library: true,
            allow_print: false,
            fixed_hasher: false,
            channels_only: false,
            crate_map_names: crate_maps,
        }
    }

    fn rules_of(report: &FileReport) -> Vec<RuleId> {
        report.violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn d1_fires_and_allowlists() {
        let empty = BTreeSet::new();
        let src = "fn f() { let t = Instant::now(); }";
        let r = check_file(src, &ctx_det(&empty));
        assert_eq!(rules_of(&r), vec![RuleId::D1]);
        let mut ctx = ctx_det(&empty);
        ctx.allow_wall_clock = true;
        assert!(check_file(src, &ctx).violations.is_empty());
    }

    #[test]
    fn d2_detects_field_and_local_iteration() {
        let empty = BTreeSet::new();
        let src = r"
struct S { txns: HashMap<u32, u32> }
impl S {
    fn f(&self) {
        for (k, v) in &self.txns {}
        let local = HashMap::new();
        for x in &local {}
        let ks: Vec<_> = self.txns.keys().collect();
    }
}
";
        let r = check_file(src, &ctx_det(&empty));
        assert_eq!(rules_of(&r), vec![RuleId::D2, RuleId::D2, RuleId::D2]);
    }

    #[test]
    fn d2_respects_per_file_nonmap_shadowing() {
        // `objects` is map-typed crate-wide but Vec in this file.
        let crate_maps: BTreeSet<String> = ["objects".to_string()].into();
        let src = r"
struct T { objects: Vec<u32> }
impl T {
    fn f(&self) { for x in self.objects.iter() {} }
}
";
        let r = check_file(src, &ctx_det(&crate_maps));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        // …but a file with no local declaration trusts the crate table.
        let src2 = "fn g() { for x in &objects {} }";
        let r2 = check_file(src2, &ctx_det(&crate_maps));
        assert_eq!(rules_of(&r2), vec![RuleId::D2]);
    }

    #[test]
    fn d2_annotation_suppresses_with_reason() {
        let empty = BTreeSet::new();
        let src = r"
fn f(m: &S) {
    let mut dead: Vec<u32> = Vec::new();
    let txns: HashMap<u32, u32> = HashMap::new();
    // detlint: allow(D2) — keys are collected and sorted below
    let mut ks: Vec<_> = txns.keys().collect();
    ks.sort_unstable();
    let vs: Vec<_> = txns.values().collect(); // detlint: allow(D2) — summed, order-free
}
";
        let r = check_file(src, &ctx_det(&empty));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.suppressions, 2);
    }

    #[test]
    fn annotation_without_reason_is_a_violation() {
        let empty = BTreeSet::new();
        let src = "// detlint: allow(D2)\nfn f() {}\n";
        let r = check_file(src, &ctx_det(&empty));
        assert_eq!(rules_of(&r), vec![RuleId::D5]);
    }

    #[test]
    fn d4_wants_safety_comment() {
        let empty = BTreeSet::new();
        let bad = "fn f() { unsafe { std::hint::unreachable_unchecked() } }";
        let good = "// SAFETY: guarded by the bounds check above\nfn f() { unsafe { q() } }";
        assert_eq!(rules_of(&check_file(bad, &ctx_det(&empty))), vec![RuleId::D4]);
        assert!(check_file(good, &ctx_det(&empty)).violations.is_empty());
    }

    #[test]
    fn d5_wants_reason_comment() {
        let empty = BTreeSet::new();
        let bad = "#[allow(dead_code)]\nfn f() {}";
        let good = "// dead until the follow-up PR lands\n#[allow(dead_code)]\nfn f() {}";
        let trailing = "#[allow(dead_code)] // bench-only helper\nfn f() {}";
        assert_eq!(rules_of(&check_file(bad, &ctx_det(&empty))), vec![RuleId::D5]);
        assert!(check_file(good, &ctx_det(&empty)).violations.is_empty());
        assert!(check_file(trailing, &ctx_det(&empty)).violations.is_empty());
    }

    #[test]
    fn d6_only_in_library_files() {
        let empty = BTreeSet::new();
        let src = "fn f() { println!(\"x\"); }";
        assert_eq!(rules_of(&check_file(src, &ctx_det(&empty))), vec![RuleId::D6]);
        let mut ctx = ctx_det(&empty);
        ctx.library = false;
        assert!(check_file(src, &ctx).violations.is_empty());
    }

    #[test]
    fn d7_flags_lock_types_and_lock_calls_where_sites_share_only_channels() {
        let empty = BTreeSet::new();
        let src = "struct S { m: std::sync::Mutex<u32> }\n\
                   fn f(s: &S) -> u32 { *s.m.lock().unwrap() }\n\
                   fn g(r: &RwLock<u8>, c: &Condvar) { lock(); }\n\
                   #[cfg(test)] mod tests { fn h(m: &Mutex<u8>) { m.lock(); } }";
        let mut ctx = ctx_det(&empty);
        ctx.deterministic = false;
        assert!(check_file(src, &ctx).violations.is_empty());
        ctx.channels_only = true;
        let r = check_file(src, &ctx);
        let lines: Vec<u32> = r.violations.iter().map(|v| v.line).collect();
        assert_eq!(rules_of(&r), vec![RuleId::D7; 4]);
        assert_eq!(lines, vec![1, 2, 3, 3]);
        assert!(r.violations[1].message.contains("`.lock()`"), "{}", r.violations[1]);
        assert!(r.violations[0].message.contains("share only channels"));
    }

    #[test]
    fn doc_comment_examples_do_not_fire() {
        let empty = BTreeSet::new();
        let src = "//! println!(\"{}\", x);\n/// Instant::now() example\nfn f() {}";
        assert!(check_file(src, &ctx_det(&empty)).violations.is_empty());
    }
}
