//! D9 — the panic-surface audit.
//!
//! The engine crates (`core`, `sim`, `locks`, `storage`) sit under a
//! replay harness and a crash-recovery oracle; a stray panic there
//! doesn't just kill a process, it invalidates a measurement run or —
//! worse — masquerades as a crash the recovery machinery is *supposed*
//! to handle. This pass enumerates every potential panic site in
//! non-test code:
//!
//! * `.unwrap()` / `.expect(…)` (including `unwrap_err`/`expect_err`),
//! * postfix indexing `x[…]` (slice/array/map indexing and range
//!   slicing all panic on miss).
//!
//! A site is fine when it carries an inline `allow(D9)` annotation
//! stating why it cannot fire, or when it is absorbed by the committed
//! baseline (`detlint.baseline.json`) — the ratchet that lets the
//! existing surface shrink but never grow. See [`crate::baseline`].

use crate::lexer::Token;
use crate::rules::{RuleId, Violation};
use crate::workspace::SourceFile;

/// Keywords that may directly precede `[` when it opens an array
/// *literal* or pattern rather than an index expression.
const NON_INDEX_KEYWORDS: [&str; 22] = [
    "if", "else", "while", "for", "loop", "match", "return", "in", "as", "move", "mut", "let",
    "ref", "unsafe", "async", "await", "dyn", "where", "break", "continue", "box", "yield",
];

/// Scans one file for D9 panic sites. The caller (the workspace layer)
/// decides which files the rule applies to and how the baseline
/// absorbs the result; inline annotations are honored here.
#[must_use]
pub fn check_file(file: &SourceFile) -> Vec<Violation> {
    let code = &file.code;
    let mut out = Vec::new();
    for i in 0..code.len() {
        if file.parsed.in_test_span(i) {
            continue;
        }
        let Some(what) = panic_site(code, i) else { continue };
        let line = code[i].line;
        if file.annotations.allows(RuleId::D9, line) {
            continue;
        }
        out.push(Violation {
            file: file.path.clone(),
            line,
            rule: RuleId::D9,
            message: format!(
                "{what} can panic in an engine crate — return a typed error, or annotate \
                 with the invariant that makes it unreachable"
            ),
        });
    }
    out
}

/// A panic site at code index `i`, described for the message.
fn panic_site(code: &[Token], i: usize) -> Option<String> {
    if let Some(name) = code[i].ident() {
        if matches!(name, "unwrap" | "unwrap_err" | "expect" | "expect_err")
            && i > 0
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            return Some(format!("`.{name}()`"));
        }
        return None;
    }
    if code[i].is_punct('[') && i > 0 {
        let prev = &code[i - 1];
        let postfix = match prev.ident() {
            Some(id) => !NON_INDEX_KEYWORDS.contains(&id),
            None => prev.is_punct(')') || prev.is_punct(']'),
        };
        if postfix {
            return Some("indexing".to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(src: &str) -> Vec<u32> {
        let file = SourceFile::new("crates/core/src/x.rs".into(), src);
        check_file(&file).iter().map(|v| v.line).collect()
    }

    #[test]
    fn unwrap_and_expect_are_flagged() {
        let src = r#"
fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect("present");
    a + b
}
"#;
        assert_eq!(lines(src), vec![3, 4]);
    }

    #[test]
    fn unwrap_or_variants_are_not_panic_sites() {
        let src = r"
fn f(x: Option<u32>) -> u32 {
    x.unwrap_or(0) + x.unwrap_or_else(|| 1) + x.unwrap_or_default()
}
";
        assert_eq!(lines(src), Vec::<u32>::new());
    }

    #[test]
    fn postfix_indexing_is_flagged_but_literals_are_not() {
        let src = r"
fn f(v: &[u8], m: &HashMap<u32, u8>) -> u8 {
    let arr = [1u8, 2, 3];
    let _slice = &v[0..8];
    v[0] + m[&1]
}
";
        // Line 4: range slice; line 5: two index sites.
        assert_eq!(lines(src), vec![4, 5, 5]);
    }

    #[test]
    fn macros_attributes_and_types_do_not_look_like_indexing() {
        let src = r"
#[derive(Clone)]
struct S { buf: Vec<[u8; 8]> }
fn f() -> Vec<u8> {
    vec![0u8; 4]
}
fn g(v: Vec<u8>) {
    for _x in [1, 2, 3] {
        let _ = &v;
    }
}
";
        assert_eq!(lines(src), Vec::<u32>::new());
    }

    #[test]
    fn annotations_and_test_code_are_exempt() {
        let src = r#"
fn f(x: Option<u32>) -> u32 {
    // detlint: allow(D9) — caller checked is_some() on the same branch
    x.unwrap()
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v = vec![1];
        assert_eq!(v[0], Some(1).unwrap());
    }
}
"#;
        assert_eq!(lines(src), Vec::<u32>::new());
    }

    #[test]
    fn chained_call_result_indexing_is_flagged() {
        let src = r"
fn f(v: Vec<Vec<u8>>) -> u8 {
    v.clone()[0][1]
}
";
        assert_eq!(lines(src), vec![3, 3]);
    }
}
