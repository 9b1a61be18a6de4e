//! Lock-order analysis for the threaded cluster runtime: D7 (lock
//! acquisition cycles) and D8 (guards held across channel sends or
//! thread joins).
//!
//! The pass tracks guards of the workspace's own [`Mutex`] wrapper
//! (`crates/cluster/src/sync.rs`) through each function body:
//!
//! * `let g = x.lock();` — the guard lives to the end of the enclosing
//!   block, or to an earlier `drop(g)`.
//! * `x.lock().method(…);` — a temporary, dropped at the end of the
//!   statement.
//! * `if let P = x.lock()… {` / `while let` / `match` / `for … in
//!   x.lock()… {` — the scrutinee temporary lives to the end of the
//!   construct's block (the Rust 2021 rule; conservative for 2024).
//!
//! Lock identity is the dotted receiver path with `self` replaced by
//! the impl type (`SharedServer.inner`); the wrapper's own internal
//! `self.0.lock()` is ignored. While any guard is held:
//!
//! * acquiring another lock — directly or transitively through a call —
//!   adds an ordering edge `held → acquired`; a cycle in the resulting
//!   graph is a D7 violation reported at the edge that closes it.
//! * a direct `.send(…)` or zero-argument `.join()` (thread-handle
//!   shape; one-argument `join` is the `str`/`Path` method), or a call
//!   to a function that transitively sends or joins, is a D8 violation:
//!   the send can block under backpressure and the join can wait on a
//!   thread that needs the held lock.
//!
//! Calls resolve only among the files handed to [`check`] (per
//! `detlint.toml`, the `cluster` crate) and only by name: `self.m(…)` /
//! `Self::m(…)` to the enclosing impl type's `m` when it has one, any
//! other receiver or path to **every** function called `m`. There is no
//! type information, so an ambiguous name takes the union of its
//! candidates — that can add an edge, never hide one.

use crate::lexer::Token;
use crate::parse::{generics_end, FnDef};
use crate::rules::{RuleId, Violation};
use crate::workspace::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// One acquired-while-held edge, with the site that created it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock already held.
    pub from: String,
    /// Lock acquired (directly or via a call) while `from` was held.
    pub to: String,
    pub file: String,
    pub line: u32,
}

/// The acquired-while-held graph over named locks.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Deduplicated edges, first site wins, sorted by `(from, to)`.
    pub edges: Vec<LockEdge>,
}

impl LockGraph {
    /// True if the graph contains an edge `from → to`.
    #[must_use]
    pub fn has_edge(&self, from: &str, to: &str) -> bool {
        self.edges.iter().any(|e| e.from == from && e.to == to)
    }
}

/// Something a function body does that the pass cares about, in token
/// order.
enum Site {
    /// `x.lock()`: the lock's name and the guard's exclusive scope end.
    Lock { name: String, scope_end: usize },
    /// A direct `.send(…)` / `.join()`.
    Wait(SiteKind),
    /// A call to `name`, with every function it may resolve to.
    Call { name: String, callees: Vec<usize> },
}

/// One non-test function with a body: where it lives and its sites.
struct FnSites<'f> {
    file: &'f SourceFile,
    sites: Vec<(usize, u32, Site)>,
}

/// Per-function facts at fixpoint: locks acquired anywhere inside
/// (directly or transitively) and whether the function can send on a
/// channel or join a thread.
#[derive(Debug, Default, Clone)]
struct FnFacts {
    locks: BTreeSet<String>,
    sends: bool,
    joins: bool,
}

/// Runs the pass over `files` (the crates D7/D8 are scoped to). Returns
/// the lock graph and the D7/D8 violations, sorted by `(file, line,
/// rule)`.
#[must_use]
pub fn check(files: &[&SourceFile]) -> (LockGraph, Vec<Violation>) {
    let fns = collect_sites(files);
    let facts = fixpoint(&fns);

    let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    let mut out = Vec::new();
    let mut seen_d8: BTreeSet<(&str, u32)> = BTreeSet::new();
    for f in &fns {
        let path = f.file.path.as_str();
        // Active guards: (lock name, exclusive scope-end index).
        let mut held: Vec<(&str, usize)> = Vec::new();
        for (tok, line, site) in &f.sites {
            held.retain(|g| g.1 > *tok);
            let mut d8 = |message: String| {
                if !f.file.annotations.allows(RuleId::D8, *line) && seen_d8.insert((path, *line)) {
                    let file = path.to_string();
                    out.push(Violation {
                        file,
                        line: *line,
                        rule: RuleId::D8,
                        message,
                    });
                }
            };
            match site {
                Site::Lock { name, scope_end } => {
                    for (h, _) in &held {
                        edge_insert(&mut edges, h, name, path, *line);
                    }
                    held.push((name, *scope_end));
                }
                Site::Wait(what) if !held.is_empty() => d8(format!(
                    "{what} while holding `{}` — the wait can block with the lock held; \
                     release the guard first or annotate why it cannot block",
                    held_names(&held),
                )),
                Site::Call { name, callees } if !held.is_empty() => {
                    let reached = callees.iter().map(|&c| &facts[c]);
                    for to in reached.clone().flat_map(|c| &c.locks) {
                        for (h, _) in held.iter().filter(|(h, _)| h != to) {
                            edge_insert(&mut edges, h, to, path, *line);
                        }
                    }
                    let sends = reached.clone().any(|c| c.sends);
                    if sends || reached.clone().any(|c| c.joins) {
                        let what = if sends {
                            "sends on a channel"
                        } else {
                            "joins a thread"
                        };
                        d8(format!(
                            "call to `{name}` {what} while holding `{}` — the wait can block with \
                             the lock held; release the guard first or annotate why it cannot block",
                            held_names(&held),
                        ));
                    }
                }
                Site::Wait(_) | Site::Call { .. } => {}
            }
        }
    }

    let lock_graph = LockGraph {
        edges: edges
            .into_iter()
            .map(|((from, to), (file, line))| LockEdge { from, to, file, line })
            .collect(),
    };
    out.extend(cycles(&lock_graph, files));
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    (lock_graph, out)
}

fn held_names(held: &[(&str, usize)]) -> String {
    held.iter().map(|g| g.0).collect::<Vec<_>>().join("`, `")
}

fn edge_insert(
    edges: &mut BTreeMap<(String, String), (String, u32)>,
    from: &str,
    to: &str,
    file: &str,
    line: u32,
) {
    edges
        .entry((from.to_string(), to.to_string()))
        .or_insert_with(|| (file.to_string(), line));
}

/// Indexes every non-test function with a body, then scans each body
/// once for its lock, send/join and call sites.
fn collect_sites<'f>(files: &[&'f SourceFile]) -> Vec<FnSites<'f>> {
    let defs: Vec<(&SourceFile, &FnDef, (usize, usize))> = files
        .iter()
        .flat_map(|&file| file.parsed.fns.iter().map(move |def| (file, def)))
        .filter(|(_, def)| !def.test_only)
        .filter_map(|(file, def)| Some((file, def, def.body?)))
        .collect();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_ty: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (id, (_, def, _)) in defs.iter().enumerate() {
        by_name.entry(&def.name).or_default().push(id);
        if let Some(ty) = &def.self_ty {
            by_ty.entry((ty, &def.name)).or_default().push(id);
        }
    }
    defs.iter()
        .map(|&(file, def, (s, e))| {
            let code = &file.code;
            let mut sites = Vec::new();
            for i in s..e.min(code.len()) {
                if file
                    .parsed
                    .fn_containing(i)
                    .is_none_or(|f| !std::ptr::eq(f, def))
                {
                    continue; // nested fn bodies are functions of their own
                }
                let site = if let Some(name) = lock_site(code, i, def.self_ty.as_deref()) {
                    Site::Lock {
                        name,
                        scope_end: guard_scope_end(code, i, s, e),
                    }
                } else if let Some(kind) = send_or_join_site(code, i) {
                    Site::Wait(kind)
                } else if let Some((name, on_self)) = call_site(code, i) {
                    let own = def.self_ty.as_deref().filter(|_| on_self);
                    let callees = own
                        .and_then(|ty| by_ty.get(&(ty, name)))
                        .or_else(|| by_name.get(name));
                    let Some(callees) = callees else { continue };
                    Site::Call {
                        name: name.to_string(),
                        callees: callees.clone(),
                    }
                } else {
                    continue;
                };
                sites.push((i, code[i].line, site));
            }
            FnSites { file, sites }
        })
        .collect()
}

/// `name(` / `name::<T>(` at `i`, unless it is the header of a nested
/// `fn name(`. Returns the name and whether the callee is named through
/// the enclosing type (`self.name(…)` / `Self::name(…)`). Keywords,
/// constructors and macro names need no filtering: they resolve to
/// nothing because no function carries their name.
fn call_site(code: &[Token], i: usize) -> Option<(&str, bool)> {
    let name = code[i].ident()?;
    let punct = |k: usize, c: char| code.get(k).is_some_and(|t| t.is_punct(c));
    let back = |n: usize| i.checked_sub(n).map(|k| &code[k]);
    let mut j = i + 1;
    if punct(j, ':') && punct(j + 1, ':') && punct(j + 2, '<') {
        j = generics_end(code, j + 2); // turbofish
    }
    if !punct(j, '(') || back(1).is_some_and(|t| t.ident() == Some("fn")) {
        return None;
    }
    let after_dot = back(1).is_some_and(|t| t.is_punct('.'));
    let after_path = back(1).is_some_and(|t| t.is_punct(':'));
    let on_self = (after_dot
        && back(2).is_some_and(|t| t.ident() == Some("self"))
        && !back(3).is_some_and(|t| t.is_punct('.')))
        || (after_path && back(3).is_some_and(|t| t.ident() == Some("Self")));
    Some((name, on_self))
}

/// Seeds per-function facts from each function's own sites and unions
/// them along calls until stable.
fn fixpoint(fns: &[FnSites<'_>]) -> Vec<FnFacts> {
    let mut facts = vec![FnFacts::default(); fns.len()];
    for (f, own) in fns.iter().zip(&mut facts) {
        for (_, _, site) in &f.sites {
            match site {
                Site::Lock { name, .. } => {
                    own.locks.insert(name.clone());
                }
                Site::Wait(SiteKind::Send) => own.sends = true,
                Site::Wait(SiteKind::Join) => own.joins = true,
                Site::Call { .. } => {}
            }
        }
    }
    loop {
        let mut changed = false;
        for (caller, f) in fns.iter().enumerate() {
            for (_, _, site) in &f.sites {
                let Site::Call { callees, .. } = site else {
                    continue;
                };
                for &callee in callees {
                    let from = facts[callee].clone();
                    let to = &mut facts[caller];
                    let before = (to.locks.len(), to.sends, to.joins);
                    to.locks.extend(from.locks);
                    to.sends |= from.sends;
                    to.joins |= from.joins;
                    changed |= before != (to.locks.len(), to.sends, to.joins);
                }
            }
        }
        if !changed {
            return facts;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteKind {
    Send,
    Join,
}

impl std::fmt::Display for SiteKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SiteKind::Send => write!(f, "channel send"),
            SiteKind::Join => write!(f, "thread join"),
        }
    }
}

/// `.send(` at `i`, or a zero-argument `.join()` (the thread-handle
/// shape — `str::join`/`Path::join` take an argument).
fn send_or_join_site(code: &[Token], i: usize) -> Option<SiteKind> {
    let name = code[i].ident()?;
    if i == 0 || !code[i - 1].is_punct('.') {
        return None;
    }
    if !code.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    match name {
        "send" => Some(SiteKind::Send),
        "join" if code.get(i + 2).is_some_and(|t| t.is_punct(')')) => Some(SiteKind::Join),
        _ => None,
    }
}

/// Recognizes `<receiver>.lock()` at code index `i` (the `lock` ident)
/// and names the lock: the dotted receiver path with a leading `self`
/// replaced by the impl type. Returns `None` for the wrapper's own
/// `self.0.lock()` (a tuple-field receiver is the raw std mutex inside
/// `sync.rs`) and for computed receivers (`f(x).lock()`).
fn lock_site(code: &[Token], i: usize, self_ty: Option<&str>) -> Option<String> {
    if code[i].ident() != Some("lock") {
        return None;
    }
    if i < 2 || !code[i - 1].is_punct('.') {
        return None;
    }
    if !code.get(i + 1).is_some_and(|t| t.is_punct('('))
        || !code.get(i + 2).is_some_and(|t| t.is_punct(')'))
    {
        return None;
    }
    // Walk the dotted path backwards: ident (. ident)*
    let mut segs: Vec<&str> = Vec::new();
    let mut j = i - 1; // at the '.'
    while let Some(prev) = j.checked_sub(1) {
        let Some(id) = code[prev].ident() else {
            // `self.0.lock()` (a wrapper's internal mutex) or a computed
            // receiver — can't name the lock.
            return None;
        };
        segs.push(id);
        if prev >= 2 && code[prev - 1].is_punct('.') {
            j = prev - 1;
        } else {
            break;
        }
    }
    segs.reverse();
    if segs.is_empty() {
        return None;
    }
    if segs[0] == "self" {
        segs[0] = self_ty.unwrap_or("Self");
    }
    Some(segs.join("."))
}

/// Exclusive scope end for the guard produced by the `.lock()` at `i`.
fn guard_scope_end(code: &[Token], i: usize, body_s: usize, body_e: usize) -> usize {
    let body_e = body_e.min(code.len());
    let stmt_s = statement_start(code, i, body_s);
    match code[stmt_s].ident() {
        Some("let") => {
            let bind = binding_name(code, stmt_s);
            let end = enclosing_block_end(code, i, body_e);
            if let Some(name) = bind {
                if let Some(d) = drop_site(code, i, end, name) {
                    return d;
                }
            }
            end
        }
        Some("if" | "while" | "match" | "for") => construct_block_end(code, i, body_e),
        _ => temporary_end(code, i, body_e),
    }
}

/// The pattern ident of `let [mut] NAME = …`, if it is a simple one.
fn binding_name(code: &[Token], stmt_s: usize) -> Option<&str> {
    let mut k = stmt_s + 1;
    if code.get(k).and_then(|t| t.ident()) == Some("mut") {
        k += 1;
    }
    code.get(k).and_then(|t| t.ident())
}

/// First `drop(NAME)` between `i` and `end`, as the release point.
fn drop_site(code: &[Token], i: usize, end: usize, name: &str) -> Option<usize> {
    (i..end.min(code.len()).saturating_sub(3)).find(|&k| {
        code[k].ident() == Some("drop")
            && code[k + 1].is_punct('(')
            && code[k + 2].ident() == Some(name)
            && code[k + 3].is_punct(')')
    })
}

/// The `}` closing the innermost block containing `i` (exclusive end).
fn enclosing_block_end(code: &[Token], i: usize, body_e: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in code.iter().enumerate().take(body_e).skip(i) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            if depth == 0 {
                return k;
            }
            depth -= 1;
        }
    }
    body_e
}

/// For `if let` / `while let` / `match` / `for` scrutinee temporaries:
/// the end of the construct's block — the `}` matching the first `{`
/// at group depth 0 after the site.
fn construct_block_end(code: &[Token], i: usize, body_e: usize) -> usize {
    let mut gdepth = 0i32;
    let mut k = i;
    while k < body_e {
        let t = &code[k];
        if t.is_punct('(') || t.is_punct('[') {
            gdepth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            gdepth -= 1;
        } else if t.is_punct('{') && gdepth == 0 {
            return enclosing_block_end(code, k + 1, body_e);
        }
        k += 1;
    }
    body_e
}

/// A plain-statement temporary: dropped at the `;` ending the statement
/// (or at the close of the surrounding block for a tail expression).
fn temporary_end(code: &[Token], i: usize, body_e: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in code.iter().enumerate().take(body_e).skip(i) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('}') {
            if depth == 0 {
                return k; // tail expression: block close drops it
            }
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return k;
        }
    }
    body_e
}

/// Backward scan to the start of the statement containing `site`.
/// Brackets/parens are balanced; a `{`, `}`, or `;` at depth 0 is a
/// statement boundary (`}` ends a preceding block statement — braces
/// nested inside parens are ignored by the depth rule and stay inside).
fn statement_start(code: &[Token], site: usize, body_s: usize) -> usize {
    let mut depth = 0i32;
    let mut j = site;
    while j > body_s {
        let t = &code[j - 1];
        if t.is_punct(')') || t.is_punct(']') {
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) && depth == 0 {
            break;
        }
        j -= 1;
    }
    j
}

/// One D7 violation per elementary cycle of the lock graph, reported at
/// the cycle's last edge in `(file, line)` order. Each cycle is found
/// exactly once: from its smallest lock name, through larger names only.
fn cycles(graph: &LockGraph, files: &[&SourceFile]) -> Vec<Violation> {
    let mut found: Vec<Vec<&LockEdge>> = Vec::new();
    for start in graph
        .edges
        .iter()
        .map(|e| e.from.as_str())
        .collect::<BTreeSet<_>>()
    {
        close_cycles(graph, start, start, &mut Vec::new(), &mut found);
    }
    let mut out = Vec::new();
    for cycle in found {
        let Some(site) = cycle.iter().max_by_key(|e| (&e.file, e.line)) else {
            continue;
        };
        let file = files.iter().find(|f| f.path == site.file);
        if file.is_some_and(|f| f.annotations.allows(RuleId::D7, site.line)) {
            continue;
        }
        let mut names: Vec<&str> = cycle.iter().map(|e| e.from.as_str()).collect();
        names.push(names[0]);
        out.push(Violation {
            file: site.file.clone(),
            line: site.line,
            rule: RuleId::D7,
            message: format!(
                "lock order cycle: `{}` — two threads taking these locks in \
                 different orders can deadlock; pick one global order",
                names.join("` → `"),
            ),
        });
    }
    out
}

/// Depth-first walk from `node` along `path` (which began at `start`),
/// recording every way back to `start`.
fn close_cycles<'g>(
    graph: &'g LockGraph,
    start: &str,
    node: &str,
    path: &mut Vec<&'g LockEdge>,
    found: &mut Vec<Vec<&'g LockEdge>>,
) {
    for e in graph.edges.iter().filter(|e| e.from == node) {
        path.push(e);
        if e.to == start {
            found.push(path.clone());
        } else if e.to.as_str() > start && !path.iter().any(|p| p.from == e.to) {
            close_cycles(graph, start, &e.to, path, found);
        }
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> (LockGraph, Vec<Violation>) {
        check(&[&SourceFile::new("crates/cluster/src/x.rs".into(), src)])
    }

    #[test]
    fn nested_let_guards_create_an_edge() {
        let (g, v) = run(
            r"
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn f(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
        drop(gb);
        drop(ga);
    }
}
",
        );
        assert!(g.has_edge("S.a", "S.b"), "{:?}", g.edges);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn opposite_orders_form_a_cycle() {
        let (g, v) = run(
            r"
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn f(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
    }
    fn g(&self) {
        let gb = self.b.lock();
        let ga = self.a.lock();
    }
}
",
        );
        assert!(g.has_edge("S.a", "S.b") && g.has_edge("S.b", "S.a"));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::D7);
        assert!(v[0].message.contains("S.a"), "{}", v[0].message);
    }

    #[test]
    fn temporaries_expire_at_statement_end() {
        let (g, v) = run(
            r"
struct S { a: Mutex<Vec<u32>>, b: Mutex<u32> }
impl S {
    fn f(&self) {
        self.a.lock().push(1);
        let gb = self.b.lock();
    }
}
",
        );
        assert!(g.edges.is_empty(), "{:?}", g.edges);
        assert!(v.is_empty());
    }

    #[test]
    fn drop_releases_the_guard_early() {
        let (g, _) = run(
            r"
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn f(&self) {
        let ga = self.a.lock();
        drop(ga);
        let gb = self.b.lock();
    }
}
",
        );
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn send_under_if_let_scrutinee_guard_is_d8() {
        let (_, v) = run(
            r"
struct S { tx: Mutex<Vec<Option<Sender<u32>>>> }
impl S {
    fn f(&self, i: usize) {
        if let Some(tx) = self.tx.lock()[i].as_ref() {
            let _ = tx.send(7);
        }
    }
}
",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::D8);
        assert_eq!(v[0].line, 6);
        assert!(v[0].message.contains("S.tx"), "{}", v[0].message);
    }

    #[test]
    fn send_after_the_if_let_block_is_fine() {
        let (_, v) = run(
            r"
struct S { tx: Mutex<Option<Sender<u32>>> }
impl S {
    fn f(&self, out: &Sender<u32>) {
        if let Some(_tx) = self.tx.lock().as_ref() {
        }
        let _ = out.send(7);
    }
}
",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn transitive_send_through_a_call_is_d8_at_the_call_site() {
        let (_, v) = run(
            r"
struct S { m: Mutex<u32> }
impl S {
    fn notify(&self, tx: &Sender<u32>) {
        let _ = tx.send(1);
    }
    fn f(&self, tx: &Sender<u32>) {
        let g = self.m.lock();
        self.notify(tx);
    }
}
",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::D8);
        assert!(v[0].message.contains("notify"), "{}", v[0].message);
    }

    #[test]
    fn transitive_lock_through_a_call_creates_an_edge() {
        let (g, _) = run(
            r"
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn take_b(&self) -> u32 {
        *self.b.lock()
    }
    fn f(&self) {
        let ga = self.a.lock();
        let _ = self.take_b();
    }
}
",
        );
        assert!(g.has_edge("S.a", "S.b"), "{:?}", g.edges);
    }

    /// PR 15's lead: with uniqueness-gated resolution a second
    /// `return_object` anywhere made the call below resolve to nothing,
    /// and the `Client.state → Server.inner` edge silently vanished.
    #[test]
    fn ambiguous_method_name_keeps_the_edge() {
        let (g, v) = run(r"
struct Server { inner: Mutex<u32> }
impl Server {
    fn return_object(&self) {
        *self.inner.lock() += 1;
    }
}
struct Pool;
impl Pool {
    fn return_object(&self) {}
}
struct Client { state: Mutex<u32> }
impl Client {
    fn flush(&self, server: &Server) {
        let st = self.state.lock();
        server.return_object();
    }
}
");
        assert!(g.has_edge("Client.state", "Server.inner"), "{:?}", g.edges);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn str_join_with_argument_is_not_a_thread_join() {
        let (_, v) = run(
            r#"
struct S { m: Mutex<u32> }
impl S {
    fn f(&self, parts: &[String]) -> String {
        let g = self.m.lock();
        parts.join(", ")
    }
}
"#,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn zero_arg_join_under_guard_is_d8() {
        let (_, v) = run(
            r"
struct S { m: Mutex<u32> }
impl S {
    fn f(&self, h: JoinHandle<()>) {
        let g = self.m.lock();
        let _ = h.join();
    }
}
",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::D8);
    }

    #[test]
    fn wrapper_internal_numeric_receiver_is_skipped() {
        let (g, v) = run(
            r"
pub struct Mutex<T>(std::sync::Mutex<T>);
impl<T> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<T> {
        MutexGuard(Some(self.0.lock().unwrap()))
    }
}
",
        );
        assert!(g.edges.is_empty() && v.is_empty());
    }

    #[test]
    fn annotations_suppress_d8() {
        let (_, v) = run(
            r"
struct S { m: Mutex<u32> }
impl S {
    fn f(&self, tx: &Sender<u32>) {
        let g = self.m.lock();
        // detlint: allow(D8) — unbounded channel, send never blocks
        let _ = tx.send(1);
    }
}
",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn test_only_fns_are_skipped() {
        let (g, v) = run(
            r"
struct S { a: Mutex<u32>, b: Mutex<u32> }
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let ga = S.a.lock();
        let gb = S.b.lock();
    }
}
",
        );
        assert!(g.edges.is_empty() && v.is_empty());
    }
}
