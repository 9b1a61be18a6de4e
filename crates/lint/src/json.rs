//! A minimal JSON reader and string quoter — just enough for
//! `detlint.baseline.json`, keeping the crate dependency-free. It is the
//! workspace's only JSON reader, so `tests/trace_wire_json.rs` also
//! holds the trace exporters' fixtures to it. It refuses what JSON
//! forbids: numbers outside its grammar, signed or short `\u` escapes
//! and raw control characters in strings (`tests/hostile_inputs.rs`).

use std::collections::BTreeMap;

/// A parsed JSON value. Numbers are kept as `f64` — the lint formats
/// only ever store small non-negative integers.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field access.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The object map, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The number as a usize, if it is a non-negative integer below 2^53.
    /// From there on an `f64` no longer tells neighbours apart, and past
    /// `usize::MAX` the cast would saturate.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            // exact non-negative integer: the guard makes the cast lossless
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Value::Num(n) if (0.0..MAX_EXACT_INT).contains(n) && n.fract() == 0.0 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }
}

/// 2^53: every integer below it is an exact `f64`.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// Arrays and objects may nest this deep; the trace fixtures reach 4.
/// The reader recurses per level, so without a bound a hostile file
/// overflows the stack instead of failing to parse.
const MAX_DEPTH: usize = 128;

/// Escapes `s` as a JSON string literal (with quotes).
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses a JSON document.
///
/// # Errors
///
/// A message with a byte offset on malformed input.
pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser {
        src,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'s> {
    src: &'s str,
    /// Byte offset of the next unread input; always on a char boundary.
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .peek()
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// Steps over `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        let next = self.peek() == Some(b);
        self.pos += usize::from(next);
        next
    }

    /// Steps over a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let from = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - from
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nested deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`: the JSON
    /// grammar, narrower than what `f64::from_str` takes (`01`, `1.`,
    /// `.5`, `inf`).
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let bad = || format!("bad number at byte {start}");
        self.eat(b'-');
        if !self.eat(b'0') && self.digits() == 0 {
            return Err(bad());
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(bad());
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _sign = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| bad())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("control character in string at byte {}", self.pos))
                }
                Some(_) => {
                    // Plain characters up to the next quote, escape or
                    // control byte: all ASCII, so the run ends on a char
                    // boundary.
                    let rest = &self.src[self.pos..];
                    let run = rest
                        .find(|c: char| c == '"' || c == '\\' || c < ' ')
                        .unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    /// The character of the `\\u` escape whose `u` is at `self.pos`,
    /// leaving `self.pos` on its last hex digit. A high surrogate takes the
    /// `\\u` low surrogate that must follow it; a lone half is refused.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let unit = self
            .hex4(at + 1)
            .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
        self.pos += 4;
        let scalar = match unit {
            0xD800..=0xDBFF => {
                let low = Some(self.pos + 1)
                    .filter(|&p| self.src.get(p..p + 2) == Some("\\u"))
                    .and_then(|p| self.hex4(p + 2))
                    .filter(|low| (0xDC00..=0xDFFF).contains(low))
                    .ok_or_else(|| format!("lone surrogate at byte {at}"))?;
                self.pos += 6;
                0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(format!("lone surrogate at byte {at}")),
            _ => unit,
        };
        char::from_u32(scalar).ok_or_else(|| format!("bad \\u escape at byte {at}"))
    }

    /// The four hex digits at byte `at`, if that is what is there.
    fn hex4(&self, at: usize) -> Option<u32> {
        self.src
            .get(at..at + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_baseline_shape() {
        let v = parse(r#"{"version": 1, "counts": {"a.rs": {"D9": 3}}}"#).unwrap();
        assert_eq!(v.get("version").and_then(Value::as_usize), Some(1));
        let counts = v.get("counts").unwrap().as_obj().unwrap();
        assert_eq!(
            counts["a.rs"].get("D9").and_then(Value::as_usize),
            Some(3)
        );
    }

    #[test]
    fn strings_escape_and_parse_back() {
        let s = "a\"b\\c\nd\te";
        let q = quote(s);
        assert_eq!(parse(&q).unwrap(), Value::Str(s.to_string()));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("[1, 2").is_err());
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 1))
            .unwrap_err()
            .contains("nested deeper"));
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&r#"{"a":"#.repeat(200_000)).is_err());
    }

    #[test]
    fn arrays_and_literals() {
        let v = parse(r#"[true, false, null, 7, "x"]"#).unwrap();
        let Value::Arr(items) = v else { panic!() };
        assert_eq!(items.len(), 5);
        assert_eq!(items[3].as_usize(), Some(7));
    }
}
