//! Item scanner on top of [`crate::lexer`].
//!
//! This is deliberately *not* a Rust parser: it recovers exactly the
//! structure the D9 and D10 passes and the function-length budget need —
//! which functions exist (with their body token spans) and which code is
//! `#[cfg(test)]`-only — from one forward walk over a stack of open
//! braces. `fn`, `impl`, `mod` and `trait` are followed wherever they
//! stand. At item position (the file, a `mod`, an `impl` or `trait`
//! body) every other token must start an item, which is stepped over
//! whole; inside a function or block anything goes. A token
//! that starts no item, a header the scanner cannot follow or a brace
//! that does not balance is recorded as a [`ParseError`] (a smoke test
//! over the workspace asserts the count stays zero) and scanning goes on,
//! so a new syntax form degrades coverage instead of crashing the linter.
//!
//! All spans are indices into the **code token** vector (comments
//! stripped, `SourceFile::code`) — the same view the rule passes walk,
//! so a body range can be sliced directly.

use crate::lexer::{TokKind, Token};

/// One function (free `fn`, impl method, or trait default method).
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    pub line: u32,
    /// Body span in code-token indices: `(first_token_inside,
    /// closing_brace)`, i.e. `code[start..end]` is the body without its
    /// braces. `None` for bodyless trait/extern decls.
    pub body: Option<(usize, usize)>,
    /// Declared under `#[cfg(test)]` / `#[test]` — exempt from the
    /// panic audit.
    pub test_only: bool,
}

/// A construct the scanner could not follow.
#[derive(Debug, Clone)]
pub struct ParseError {
    pub line: u32,
    pub message: String,
}

/// Scan result for one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnDef>,
    /// Code-token spans of the outermost test-only bodies (`mod`, `impl`,
    /// `trait`, `fn`), for passes that skip test-only code wholesale.
    pub test_spans: Vec<(usize, usize)>,
    pub errors: Vec<ParseError>,
}

impl ParsedFile {
    /// True when code-token index `i` lies in test-only code.
    #[must_use]
    pub fn in_test_span(&self, i: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| s <= i && i < e)
    }
}

/// What an open `{` is the body of.
enum Body {
    /// A `mod`, `impl` or `trait` body: items only, like the top of the
    /// file.
    Items,
    /// The body of `fns[index]`.
    Fn(usize),
    /// Any other brace (a block, a struct or macro body): free-form code.
    Block,
}

struct Scope {
    body: Body,
    /// Code-token index of the first token inside the braces.
    start: usize,
    test_only: bool,
}

struct Scanner<'a> {
    code: &'a [Token],
    i: usize,
    open: Vec<Scope>,
    out: ParsedFile,
}

/// Scans the code-token view of one file.
#[must_use]
pub fn parse_file(code: &[Token]) -> ParsedFile {
    let mut s = Scanner {
        code,
        i: 0,
        open: Vec::new(),
        out: ParsedFile::default(),
    };
    // `#[cfg(test)]` / `#[test]` seen since the last item boundary: it
    // belongs to the next `fn` / `mod` / `impl` / `trait`.
    let mut test_attr = false;
    while let Some(t) = code.get(s.i) {
        // Inside a function, block or macro body anything goes; outside
        // one, every token has to belong to an item.
        let in_code = s
            .open
            .iter()
            .any(|scope| matches!(scope.body, Body::Fn(_) | Body::Block));
        if t.is_punct('#') {
            test_attr |= s.attribute();
        } else if t.is_punct('}') {
            s.close();
            s.i += 1;
            test_attr = false;
        } else if s.scoped_item(test_attr) {
            test_attr = false;
        } else if in_code {
            test_attr &= !(t.is_punct('{') || t.is_punct(';'));
            if t.is_punct('{') {
                s.push(Body::Block, false);
            } else {
                s.i += 1;
            }
        } else if !s.modifier() {
            s.other_item();
            test_attr = false;
        }
    }
    while !s.open.is_empty() {
        s.error("unclosed `{` at end of file".into());
        s.close();
    }
    s.out
}

/// One past the `>` matching the `<` at `code[open]`, treating `->`
/// arrows (legal inside `Fn(…) -> T` bounds) as non-closing.
#[must_use]
pub fn generics_end(code: &[Token], open: usize) -> usize {
    let punct = |k: usize, c: char| code.get(k).is_some_and(|t| t.is_punct(c));
    let mut depth = 0i32;
    let mut k = open;
    while k < code.len() {
        if punct(k, '-') && punct(k + 1, '>') {
            k += 2;
            continue;
        }
        if punct(k, '<') {
            depth += 1;
        } else if punct(k, '>') {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    k
}

impl<'a> Scanner<'a> {
    fn ident_at(&self, ahead: usize) -> Option<&'a str> {
        self.code.get(self.i + ahead).and_then(|t| t.ident())
    }

    fn punct_at(&self, ahead: usize, c: char) -> bool {
        self.code.get(self.i + ahead).is_some_and(|t| t.is_punct(c))
    }

    fn str_at(&self, ahead: usize) -> bool {
        self.code
            .get(self.i + ahead)
            .is_some_and(|t| t.kind == TokKind::Str)
    }

    fn error(&mut self, message: String) {
        let line = self
            .code
            .get(self.i)
            .or(self.code.last())
            .map_or(0, |t| t.line);
        self.out.errors.push(ParseError { line, message });
    }

    /// Opens a scope at the `{` under the cursor and steps inside.
    fn push(&mut self, body: Body, test_only: bool) {
        let inherited = self.open.last().is_some_and(|s| s.test_only);
        self.i += 1;
        self.open.push(Scope {
            body,
            start: self.i,
            test_only: test_only || inherited,
        });
    }

    /// Closes the innermost scope at the `}` under the cursor (or at end
    /// of file): a function gets its body span, and the outermost
    /// test-only body becomes a test span.
    fn close(&mut self) {
        let Some(scope) = self.open.pop() else {
            return self.error("`}` without a matching `{`".into());
        };
        let span = (scope.start, self.i.min(self.code.len()));
        if let Body::Fn(index) = scope.body {
            self.out.fns[index].body = Some(span);
        }
        let outermost = !self.open.last().is_some_and(|s| s.test_only);
        if scope.test_only && outermost {
            self.out.test_spans.push(span);
        }
    }

    /// Steps over one token — over the whole balanced group when the
    /// token opens one.
    fn step(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.code.get(self.i) {
            self.i += 1;
            match t.kind {
                TokKind::Punct('(' | '[' | '{') => depth += 1,
                TokKind::Punct(')' | ']' | '}') => depth -= 1,
                _ => {}
            }
            if depth <= 0 {
                return;
            }
        }
    }

    /// Skips the rest of an item header up to its `{` (entered as `body`)
    /// or `;`, stepping over generic, parenthesized and bracketed groups
    /// so a `{` or `;` inside a type does not end the header early. It
    /// stops short of a `}`, which belongs to the enclosing scope; that
    /// makes it the error recovery too (to the next item boundary).
    fn enter(&mut self, body: Body, test_only: bool) {
        while self.i < self.code.len() {
            if self.punct_at(0, '{') {
                return self.push(body, test_only);
            }
            if self.punct_at(0, '}') {
                return;
            }
            if self.punct_at(0, '<') {
                self.i = generics_end(self.code, self.i);
                continue;
            }
            let done = self.punct_at(0, ';');
            self.step();
            if done {
                return;
            }
        }
        self.error("item header runs to end of file".into());
    }

    /// `#[…]` / `#![…]` under the cursor: steps past it and says whether
    /// it is `#[test]` or a `#[cfg(…test…)]`.
    fn attribute(&mut self) -> bool {
        self.i += 1 + usize::from(self.punct_at(1, '!'));
        if !self.punct_at(0, '[') {
            return false; // a lone `#` (macro fragment), not an attribute
        }
        let open = self.i;
        self.step();
        let inner: Vec<&str> = self.code[open..self.i]
            .iter()
            .filter_map(|t| t.ident())
            .collect();
        inner == ["test"] || (inner.first() == Some(&"cfg") && inner.contains(&"test"))
    }

    /// A `fn` / `impl` / `mod` / `trait` under the cursor — the items the
    /// passes analyse, picked up wherever they stand. False (cursor
    /// unmoved) for anything else.
    fn scoped_item(&mut self, test_attr: bool) -> bool {
        match (self.ident_at(0), self.ident_at(1)) {
            (Some("fn"), Some(name)) => self.fn_header(name, test_attr),
            (Some("impl"), _) | (Some("mod" | "trait"), Some(_)) => {
                self.enter(Body::Items, test_attr);
            }
            _ => return false,
        }
        true
    }

    /// A visibility or qualifier in front of an item (`pub(crate)`,
    /// `unsafe`, `const fn`, `extern "C" fn`, …): steps past it.
    fn modifier(&mut self) -> bool {
        match (self.ident_at(0), self.ident_at(1)) {
            (Some("pub"), _) if self.punct_at(1, '(') => {
                self.i += 1;
                self.step();
            }
            (Some("pub" | "unsafe" | "async" | "default"), _)
            | (Some("const"), Some("fn" | "unsafe" | "async" | "extern")) => self.i += 1,
            (Some("extern"), _) if self.str_at(1) && self.ident_at(2) == Some("fn") => self.i += 2,
            _ => return false,
        }
        true
    }

    /// Every other item: stepped over whole, since no function the passes
    /// analyse lives inside one. A token that starts no item at all is an
    /// error, skipped like an item header.
    fn other_item(&mut self) {
        let mut path = 0; // tokens of the `a::b::` in front of a `name!`
        while self.punct_at(path + 1, ':') && self.punct_at(path + 2, ':') {
            path += 3;
        }
        match self.ident_at(0) {
            _ if self.punct_at(0, ';') => self.i += 1, // a leftover `;`
            Some("struct" | "enum" | "union") => self.enter(Body::Block, false),
            Some("const" | "static" | "type" | "use") => self.skip_to_semi(),
            Some("extern") if self.ident_at(1) == Some("crate") => self.skip_to_semi(),
            // An `extern "C" { … }` block of bodyless declarations.
            Some("extern") => {
                self.i += 1 + usize::from(self.str_at(1));
                self.step();
            }
            // `name!(…);`, `name! { … }`, `macro_rules! name { … }`.
            Some(_) if self.ident_at(path).is_some() && self.punct_at(path + 1, '!') => {
                self.i += path + 2;
                self.i += usize::from(self.ident_at(0).is_some());
                self.step();
            }
            _ => {
                let found = &self.code[self.i].kind;
                self.error(format!("expected an item, found `{found:?}`"));
                self.enter(Body::Block, false);
            }
        }
    }

    /// Skips to just past the `;` ending a `const` / `static` / `type` /
    /// `use` item, stepping over every group so the blocks and struct
    /// literals of an initializer do not end it early.
    fn skip_to_semi(&mut self) {
        while self.i < self.code.len() && !self.punct_at(0, ';') {
            self.step();
        }
        self.i += 1;
    }

    /// `fn name<…>(params) -> Ret where … { body }` (or `;`) under the
    /// cursor.
    fn fn_header(&mut self, name: &str, test_attr: bool) {
        let line = self.code[self.i].line;
        self.i += 2;
        if self.punct_at(0, '<') {
            self.i = generics_end(self.code, self.i);
        }
        if !self.punct_at(0, '(') {
            self.error(format!("fn `{name}` without a parameter list"));
            return self.enter(Body::Block, false);
        }
        let test_only = test_attr || self.open.last().is_some_and(|s| s.test_only);
        self.out.fns.push(FnDef {
            name: name.to_string(),
            line,
            body: None,
            test_only,
        });
        self.enter(Body::Fn(self.out.fns.len() - 1), test_only);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn code_of(src: &str) -> Vec<Token> {
        lex(src).into_iter().filter(Token::is_code).collect()
    }

    fn parse(src: &str) -> ParsedFile {
        parse_file(&code_of(src))
    }

    #[test]
    fn free_fns_impls_and_traits() {
        let p = parse(
            r"
pub fn alpha(x: u32) -> u32 { x + 1 }
struct S { v: Vec<u32> }
impl S {
    pub(crate) fn method(&self) -> usize { self.v.len() }
    fn assoc() -> S { S { v: Vec::new() } }
}
impl std::fmt::Display for S {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
}
trait T {
    fn required(&self);
    fn defaulted(&self) -> u32 { 7 }
}
",
        );
        assert!(p.errors.is_empty(), "{:?}", p.errors);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["alpha", "method", "assoc", "fmt", "required", "defaulted"]
        );
        // `required` has no body; `defaulted` does.
        assert!(p.fns[4].body.is_none());
        assert!(p.fns[5].body.is_some());
    }

    #[test]
    fn generics_where_clauses_and_const_fns() {
        let p = parse(
            r#"
pub const fn silent<T: Into<u64>>(x: T) -> u64 where T: Copy { x.into() }
fn closure_bound<F: Fn(u32) -> u32>(f: F) -> u32 { f(1) }
unsafe fn danger() {}
pub async fn later() {}
extern "C" fn c_abi() {}
"#,
        );
        assert!(p.errors.is_empty(), "{:?}", p.errors);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["silent", "closure_bound", "danger", "later", "c_abi"]);
    }

    #[test]
    fn modules_nest_and_cfg_test_marks_spans() {
        let p = parse(
            r"
mod outer {
    pub fn in_outer() {}
    mod inner {
        pub fn deep() {}
    }
}
#[cfg(test)]
mod tests {
    #[test]
    fn a_test() { helper(); }
    fn helper() {}
}
fn top() {}
",
        );
        assert!(p.errors.is_empty(), "{:?}", p.errors);
        let by_name = |n: &str| p.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("in_outer").test_only && !by_name("deep").test_only);
        assert!(by_name("a_test").test_only);
        assert!(by_name("helper").test_only, "cfg(test) mod marks all fns");
        assert!(!by_name("top").test_only);
        assert!(!p.test_spans.is_empty());
        let helper_body = by_name("helper").body.unwrap();
        assert!(p.in_test_span(helper_body.0));
        let top_body = by_name("top").body.unwrap();
        assert!(!p.in_test_span(top_body.0));
    }

    #[test]
    fn use_trees_with_groups_renames_and_globs_are_skipped() {
        let p = parse(
            r"
use std::collections::HashMap;
use crate::queue::{EventQueue, wheel::TimerWheel};
use siteselect_sim::Prng as Rng;
use super::fabric::{self, Fabric};
use std::io::*;
fn after() {}
",
        );
        assert!(p.errors.is_empty(), "{:?}", p.errors);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "after");
    }

    #[test]
    fn item_macros_consts_and_extern_blocks_are_skipped() {
        let p = parse(
            r#"
thread_local! { static TL: u32 = 0; }
const TABLE: [u8; 4] = [1, 2, 3, 4];
static NAMES: &[&str] = &["a", "b"];
type Pair = (u32, u32);
macro_rules! mk { () => {} }
extern "C" { fn puts(s: *const u8) -> i32; }
fn after() {}
"#,
        );
        assert!(p.errors.is_empty(), "{:?}", p.errors);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "after");
    }

    #[test]
    fn bodies_span_the_right_tokens() {
        let src = "fn f() { inner_call(); } fn g() {}";
        let code = code_of(src);
        let p = parse_file(&code);
        let (s, e) = p.fns[0].body.unwrap();
        let body_idents: Vec<&str> = code[s..e].iter().filter_map(|t| t.ident()).collect();
        assert_eq!(body_idents, vec!["inner_call"]);
        let (gs, ge) = p.fns[1].body.unwrap();
        assert_eq!(gs, ge, "empty body is an empty span");
    }

    #[test]
    fn unrecognized_items_error_but_do_not_derail() {
        let p = parse("fn ok() {} ??? garbage ; fn also_ok() {}");
        assert!(!p.errors.is_empty());
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"ok") && names.contains(&"also_ok"), "{names:?}");
    }
}
