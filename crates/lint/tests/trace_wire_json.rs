//! The trace wire format is JSON to a reader that did not write it: the
//! committed `siteselect-obs` fixture (one record of every event kind,
//! pinned to the exporters by that crate's `wire_fixture` test) parses
//! with this crate's JSON reader, line by line and as a Chrome document.

use siteselect_lint::json::{parse, Value};

const JSONL: &str = include_str!("../../obs/fixtures/wire.jsonl");
const CHROME: &str = include_str!("../../obs/fixtures/wire.chrome.json");

#[test]
fn every_jsonl_line_is_an_object_with_the_four_header_keys() {
    assert!(JSONL.ends_with('\n'));
    for line in JSONL.lines() {
        let v = parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        for key in ["t", "seq", "site", "kind"] {
            assert!(v.get(key).is_some(), "no {key:?} in {line}");
        }
    }
}

#[test]
fn the_chrome_document_is_an_array_of_complete_trace_events() {
    let doc = parse(CHROME).unwrap_or_else(|e| panic!("{e}"));
    let Some(Value::Arr(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents array");
    };
    for ev in events {
        for key in ["name", "cat", "ph", "ts", "pid", "tid"] {
            assert!(ev.get(key).is_some(), "no {key:?} in {ev:?}");
        }
        assert!(ev.get("args").and_then(Value::as_obj).is_some(), "args of {ev:?}");
    }
    // Every record is an instant event; slices come on top.
    let instants = events
        .iter()
        .filter(|ev| ev.get("ph") == Some(&Value::Str("i".to_owned())))
        .count();
    assert_eq!(instants, JSONL.lines().count());
    assert!(events.len() > instants);
}
