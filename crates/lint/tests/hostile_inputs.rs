//! Hostile input for the lint's two parsers, `json::parse` (the baseline
//! file and the trace fixtures) and `Config::parse` (`detlint.toml`):
//! random bytes and mutated valid documents must come back as a value or
//! an error, never a panic; whatever the JSON writer emits parses back to
//! what it wrote; and a few hand-picked non-JSON inputs get exact
//! verdicts. Seeded, so a failing case replays.

use siteselect_lint::baseline::Baseline;
use siteselect_lint::json::{parse, quote, Value};
use siteselect_lint::{Config, RuleId};
use std::collections::BTreeMap;

const CASES: u64 = 2_000;

/// The valid documents the mutations start from.
const JSON_DOCS: [&str; 3] = [
    include_str!("../../../detlint.baseline.json"),
    include_str!("../../obs/fixtures/wire.jsonl"),
    include_str!("../../obs/fixtures/wire.chrome.json"),
];
const TOML_DOC: &str = include_str!("../../../detlint.toml");

/// splitmix64: enough randomness for a fuzz loop, no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Bytes a mutation inserts: mostly the syntax both formats care about.
const SYNTAX: &[u8] = b"{}[]\",:\\#=-+.0123456789eEu \n\t\x00\xff";

/// `doc` with a few random edits: a byte replaced or inserted, a span
/// deleted or repeated, or the tail cut off.
fn mutate(doc: &str, rng: &mut Rng) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(bytes.len() + 1);
        let b = if rng.below(4) == 0 {
            rng.next() as u8
        } else {
            SYNTAX[rng.below(SYNTAX.len())]
        };
        match rng.below(5) {
            0 if at < bytes.len() => bytes[at] = b,
            1 => bytes.insert(at, b),
            2 => {
                let end = (at + rng.below(16)).min(bytes.len());
                bytes.drain(at..end);
            }
            3 => {
                let end = (at + rng.below(32)).min(bytes.len());
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn random_bytes(rng: &mut Rng) -> String {
    let len = rng.below(64);
    let bytes: Vec<u8> = (0..len)
        .map(|_| {
            if rng.below(2) == 0 {
                SYNTAX[rng.below(SYNTAX.len())]
            } else {
                rng.next() as u8
            }
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn random_and_mutated_input_never_panics() {
    let mut rng = Rng(0xDE71_1D75);
    for _ in 0..CASES {
        let noise = random_bytes(&mut rng);
        let _ = parse(&noise);
        let _ = Config::parse(&noise);
        let json = mutate(JSON_DOCS[rng.below(JSON_DOCS.len())], &mut rng);
        let _ = parse(&json);
        // The JSONL fixture line by line, as its readers take it.
        for line in json.lines().take(4) {
            let _ = parse(line);
        }
        let toml = mutate(TOML_DOC, &mut rng);
        let _ = Config::parse(&toml);
    }
}

/// A string of random chars, weighted to the ones `quote` escapes.
fn random_string(rng: &mut Rng) -> String {
    (0..rng.below(24))
        .map(|_| match rng.below(4) {
            0 => ['"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '/'][rng.below(8)],
            1 => char::from_u32(rng.next() as u32 % 0x11_0000).unwrap_or('\u{fffd}'),
            _ => char::from(b' ' + rng.below(95) as u8),
        })
        .collect()
}

#[test]
fn what_the_writer_emits_parses_back_to_what_it_wrote() {
    let mut rng = Rng(0x5EED_0001);
    for _ in 0..CASES {
        let s = random_string(&mut rng);
        assert_eq!(parse(&quote(&s)), Ok(Value::Str(s.clone())), "{s:?}");
        // A baseline over random paths and counts renders and parses back.
        let mut counts = BTreeMap::new();
        for _ in 0..rng.below(4) {
            let n = 1 + rng.below((1 << 53) - 1);
            counts.insert(random_string(&mut rng), [(RuleId::D9, n)].into());
        }
        let baseline = Baseline { counts };
        let text = baseline.render();
        assert_eq!(Baseline::parse(&text), Ok(baseline), "{text}");
    }
}

/// Parses each `(input, error)` pair to exactly that error.
fn assert_refused(cases: &[(&str, &str)]) {
    for &(src, verdict) in cases {
        assert_eq!(parse(src), Err(verdict.to_string()), "{src:?}");
    }
}

#[test]
fn signed_escapes_and_raw_control_characters_are_refused() {
    assert_refused(&[
        (r#""\u+041""#, "bad \\u escape at byte 2"),
        (r#""\u41""#, "bad \\u escape at byte 2"),
        ("\"a\u{1}\"", "control character in string at byte 2"),
        ("[1, 2", "expected `,` or `]` at byte 5"),
    ]);
    assert_eq!(parse(r#""\u0041\u00e9""#), Ok(Value::Str("Aé".into())));
    assert_eq!(parse(r#""\b\f""#), Ok(Value::Str("\u{8}\u{c}".into())));
}

#[test]
fn surrogate_pairs_combine_and_lone_halves_are_refused() {
    assert_eq!(parse(r#""\ud83d\ude00""#), Ok(Value::Str("\u{1f600}".into())));
    assert_eq!(parse(r#""a\uD834\uDD1Eb""#), Ok(Value::Str("a\u{1d11e}b".into())));
    assert_refused(&[
        (r#""\ud83d""#, "lone surrogate at byte 2"),
        (r#""\ud83dx""#, "lone surrogate at byte 2"),
        (r#""\ud83d\u0041""#, "lone surrogate at byte 2"),
        (r#""\ud83d\ud83d""#, "lone surrogate at byte 2"),
        (r#""x\ude00\ud83d""#, "lone surrogate at byte 3"),
        (r#""\ud83d\u12""#, "lone surrogate at byte 2"),
    ]);
}

#[test]
fn numbers_outside_the_json_grammar_are_refused() {
    assert_refused(&[
        ("01", "trailing data at byte 1"),
        ("1.", "bad number at byte 0"),
        ("-.5", "bad number at byte 0"),
        ("1e", "bad number at byte 0"),
    ]);
    for (src, value) in [("-0.5e+3", -500.0), ("0", 0.0), ("10E2", 1000.0)] {
        assert_eq!(parse(src), Ok(Value::Num(value)), "{src:?}");
    }
}

#[test]
fn a_rules_d8_section_is_refused_as_unknown() {
    let err = Config::parse("[rules.D8]\ncrates = [\"cluster\"]\n").unwrap_err();
    assert_eq!(err.to_string(), "detlint.toml:1: unknown section `[rules.D8]`");
    assert!(Config::parse("[rules.D7]\ncrates = [\"cluster\"]\n").is_ok());
}
