//! A minimal hand-rolled Rust lexer — just enough structure for the
//! determinism rules in [`crate::rules`].
//!
//! The lexer's only job is to separate *code* from *non-code* so the rule
//! engine never fires on a `println!` inside a doc comment or an
//! `Instant::now` inside a string literal, and to keep accurate line
//! numbers for diagnostics. It handles the constructs that trip naive
//! regex scanners: nested block comments, raw strings with arbitrary
//! `#` counts, byte strings, and the char-literal/lifetime ambiguity
//! (`'a'` vs `'a`). It does **not** build an AST — the rules work on
//! token patterns plus a per-crate symbol table.

/// One lexical token with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokKind,
    pub line: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unsafe`, `for`, `HashMap`, …).
    Ident(String),
    /// Single punctuation character (`.`, `:`, `#`, `(`, …).
    Punct(char),
    /// `// …` comment (includes `///` and `//!` doc comments).
    /// `trailing` is true when code precedes it on the same line.
    LineComment { text: String, trailing: bool },
    /// `/* … */` comment, possibly nested and multi-line.
    BlockComment { text: String },
    /// String literal of any flavour; contents are irrelevant to rules.
    Str,
    /// Character or byte literal.
    CharLit,
    /// Lifetime such as `'a` (also label targets like `'outer`).
    Lifetime,
    /// Numeric literal.
    Num,
}

impl Token {
    /// True for tokens that represent executable source rather than
    /// comments (used to decide whether a line "has code").
    #[must_use]
    pub fn is_code(&self) -> bool {
        !matches!(
            self.kind,
            TokKind::LineComment { .. } | TokKind::BlockComment { .. }
        )
    }

    /// The identifier text, if this is an ident token.
    #[must_use]
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True if this token is the punctuation character `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// Lexes `src` into a token stream. Never fails: unterminated literals
/// simply consume to end-of-file, which is good enough for a linter
/// (rustc will reject the file anyway).
#[must_use]
pub fn lex(src: &str) -> Vec<Token> {
    Lexer::new(src).run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    /// Whether a code token has been emitted on the current line
    /// (distinguishes trailing comments from standalone ones).
    code_on_line: bool,
    out: Vec<Token>,
}

impl Lexer {
    fn new(src: &str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            code_on_line: false,
            out: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(ch) = c {
            self.pos += 1;
            if ch == '\n' {
                self.line += 1;
                self.code_on_line = false;
            }
        }
        c
    }

    fn push(&mut self, kind: TokKind, line: u32) {
        if !matches!(
            kind,
            TokKind::LineComment { .. } | TokKind::BlockComment { .. }
        ) {
            self.code_on_line = true;
        }
        self.out.push(Token { kind, line });
    }

    fn run(mut self) -> Vec<Token> {
        // A leading shebang (`#!/usr/bin/env …`) is the one place `#!`
        // does not start an inner attribute; treat it as a comment so
        // `#` and `!` never reach the rule engine as code. `#![…]` at
        // file top is still an attribute.
        if self.peek(0) == Some('#') && self.peek(1) == Some('!') && self.peek(2) != Some('[') {
            self.line_comment(1);
        }
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string_lit(line),
                '\'' => self.quote(line),
                'r' | 'b' | 'c' if self.raw_or_byte_prefix() => self.prefixed_lit(line),
                c if c == '_' || c.is_alphabetic() => self.ident(line),
                c if c.is_ascii_digit() => self.number(line),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct(c), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32) {
        let trailing = self.code_on_line;
        let start = self.pos;
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.bump();
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(TokKind::LineComment { text, trailing }, line);
    }

    fn block_comment(&mut self, line: u32) {
        let start = self.pos;
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(TokKind::BlockComment { text }, line);
    }

    /// Ordinary (possibly escaped) `"…"` string. Caller has seen the
    /// opening quote.
    fn string_lit(&mut self, line: u32) {
        self.bump(); // opening '"'
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokKind::Str, line);
    }

    /// `'` starts either a lifetime (`'a`), a loop label (`'outer:`) or a
    /// char literal (`'a'`, `'\n'`). Disambiguation: `'X` where `X` is an
    /// ident char is a char literal only if the char after `X` is `'`.
    fn quote(&mut self, line: u32) {
        self.bump(); // '\''
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: consume escape then to closing quote.
                self.bump();
                self.bump();
                while let Some(c) = self.peek(0) {
                    self.bump();
                    if c == '\'' {
                        break;
                    }
                }
                self.push(TokKind::CharLit, line);
            }
            Some(c) if c == '_' || c.is_alphanumeric() => {
                if self.peek(1) == Some('\'') {
                    self.bump(); // the char
                    self.bump(); // closing quote
                    self.push(TokKind::CharLit, line);
                } else {
                    while let Some(c) = self.peek(0) {
                        if c == '_' || c.is_alphanumeric() {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push(TokKind::Lifetime, line);
                }
            }
            Some(_) => {
                // Punctuation char literal like '(' or ' '.
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.push(TokKind::CharLit, line);
            }
            None => self.push(TokKind::CharLit, line),
        }
    }

    /// True when the cursor sits on `r"`, `r#"`, `b"`, `b'`, `br"`,
    /// `br#"`, or (Rust 1.77) a C-string prefix `c"` / `cr"` / `cr#"` —
    /// a raw/byte/C literal rather than an identifier. `r#ident`
    /// (raw identifier) is *not* a literal and returns false.
    fn raw_or_byte_prefix(&self) -> bool {
        let c0 = self.peek(0);
        match c0 {
            Some('b' | 'c') => match self.peek(1) {
                Some('"') => true,
                Some('\'') => c0 == Some('b'),
                Some('r') => matches!(self.peek(2), Some('"' | '#')),
                _ => false,
            },
            Some('r') => match self.peek(1) {
                Some('"') => true,
                Some('#') => {
                    // r#"…"# raw string vs r#ident raw identifier: scan the
                    // run of '#'s; a quote after them means raw string.
                    let mut i = 1;
                    while self.peek(i) == Some('#') {
                        i += 1;
                    }
                    self.peek(i) == Some('"')
                }
                _ => false,
            },
            _ => false,
        }
    }

    /// Consumes `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'`, or a
    /// C-string (`c"…"`, `cr#"…"#`) after [`Self::raw_or_byte_prefix`]
    /// returned true.
    fn prefixed_lit(&mut self, line: u32) {
        if self.peek(0) == Some('b') && self.peek(1) == Some('\'') {
            self.bump(); // 'b'
            self.quote(line);
            // quote() pushed CharLit/Lifetime; byte literals are CharLit —
            // b'x' disambiguates the same way as 'x'.
            return;
        }
        // Skip the r/b/br/c/cr prefix.
        while matches!(self.peek(0), Some('r' | 'b' | 'c')) {
            self.bump();
        }
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            self.bump();
            hashes += 1;
        }
        self.bump(); // opening '"'
        if hashes == 0 && self.chars.get(self.pos.wrapping_sub(1)) != Some(&'"') {
            // Defensive: prefix check said literal but no quote followed.
            self.push(TokKind::Str, line);
            return;
        }
        'scan: while let Some(c) = self.bump() {
            if c == '"' {
                if hashes == 0 {
                    break;
                }
                // Need `hashes` consecutive '#' to close.
                for i in 0..hashes {
                    if self.peek(i) != Some('#') {
                        continue 'scan;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            } else if c == '\\' && hashes == 0 {
                // b"…" honours escapes; raw strings do not.
                self.bump();
            }
        }
        self.push(TokKind::Str, line);
    }

    fn ident(&mut self, line: u32) {
        let start = self.pos;
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                self.bump();
            } else {
                break;
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(TokKind::Ident(text), line);
    }

    fn number(&mut self, line: u32) {
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                self.bump();
            } else if c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                // `1.5` continues the number; `1..n` and `v.iter()` do not.
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Num, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| t.ident().map(String::from))
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_code() {
        let src = r##"
// Instant::now in a comment
/* HashMap.iter() in a block /* nested */ still comment */
let s = "Instant::now()";
let r = r#"SystemTime::now"#;
let actual = foo();
"##;
        let ids = idents(src);
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"SystemTime".to_string()));
        assert!(ids.contains(&"actual".to_string()));
        assert!(ids.contains(&"foo".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        let chars = toks.iter().filter(|t| t.kind == TokKind::CharLit).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn char_escape_does_not_derail() {
        let toks = lex(r"let c = '\n'; let after = 1;");
        assert!(toks.iter().any(|t| t.ident() == Some("after")));
    }

    #[test]
    fn trailing_vs_standalone_comments() {
        let src = "let x = 1; // trailing\n// standalone\nlet y = 2;";
        let toks = lex(src);
        let flags: Vec<bool> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::LineComment { trailing, .. } => Some(*trailing),
                _ => None,
            })
            .collect();
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let a = \"x\ny\nz\";\nlet b = 1;";
        let toks = lex(src);
        let b = toks.iter().find(|t| t.ident() == Some("b")).expect("b");
        assert_eq!(b.line, 4);
    }

    #[test]
    fn raw_identifier_is_an_ident() {
        // r#type lexes as Punct? No: 'r' then '#' then ident. The rules
        // only need the final ident, so `r#type` yielding `type` is fine.
        let toks = lex("let r#type = 3;");
        assert!(toks.iter().any(|t| t.ident() == Some("type")));
    }

    #[test]
    fn c_string_literals_hide_contents() {
        // Rust 1.77 C strings: plain, raw, and escaped forms must all
        // lex as string literals, not identifiers + stray quotes.
        let src = r##"
let a = c"Instant::now()";
let b = cr#"SystemTime::now with "quotes""#;
let c = c"escaped \" quote";
let after = done();
"##;
        let ids = idents(src);
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"SystemTime".to_string()));
        assert!(!ids.contains(&"quotes".to_string()));
        assert!(ids.contains(&"after".to_string()));
        assert!(ids.contains(&"done".to_string()));
        let strs = lex(src).iter().filter(|t| t.kind == TokKind::Str).count();
        assert_eq!(strs, 3);
    }

    #[test]
    fn c_prefixed_identifiers_still_lex_as_idents() {
        // `c` / `cr` starting ordinary identifiers must not be eaten as
        // literal prefixes.
        let ids = idents("let count = crate_local + c + cr;");
        for want in ["count", "crate_local", "c", "cr"] {
            assert!(ids.contains(&want.to_string()), "missing `{want}`");
        }
    }

    #[test]
    fn shebang_line_is_a_comment() {
        let src = "#!/usr/bin/env run-cargo-script\nfn main() { f(); }";
        let toks = lex(src);
        assert!(matches!(
            toks.first().map(|t| &t.kind),
            Some(TokKind::LineComment { text, .. }) if text.starts_with("#!/usr")
        ));
        assert!(toks.iter().any(|t| t.ident() == Some("main")));
        // No stray `#` / `!` puncts from the shebang.
        assert!(!toks.iter().any(|t| t.is_punct('#')));
    }

    #[test]
    fn inner_attribute_is_not_a_shebang() {
        let toks = lex("#![allow(dead_code)]\nfn f() {}");
        assert!(toks.iter().any(|t| t.is_punct('#')));
        assert!(toks.iter().any(|t| t.ident() == Some("allow")));
    }

    #[test]
    fn numbers_do_not_swallow_ranges_or_method_calls() {
        let ids = idents("for i in 0..10 { v.iter(); } let f = 1.5e3;");
        assert!(ids.contains(&"iter".to_string()));
        let toks = lex("1.5 2");
        let nums = toks.iter().filter(|t| t.kind == TokKind::Num).count();
        assert_eq!(nums, 2);
    }
}
