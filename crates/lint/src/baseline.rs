//! The finding baseline (`detlint.baseline.json`) — a ratchet for
//! rules with a pre-existing surface that is too large to burn down in
//! one change (today only D9, the panic audit; see
//! [`crate::rules::RuleMeta::baselined`]).
//!
//! The file records, per source file and rule, how many findings are
//! *accepted*. Checking then works like a ratchet:
//!
//! * count == baseline — all findings for that `(file, rule)` are
//!   absorbed silently;
//! * count  > baseline — **every** finding for the pair is reported
//!   (the new site is indistinguishable from the old ones, and the
//!   fix is either removing a site or deliberately regenerating);
//! * count  < baseline — the entry is *stale*: someone fixed sites
//!   without shrinking the baseline. `--ratchet` (CI) fails on stale
//!   entries so the accepted surface only ever shrinks.
//!
//! `detlint baseline` regenerates the file from the current findings;
//! the render is deterministic (sorted, fixed layout) so diffs are
//! reviewable.

use crate::json::{self, Value};
use crate::rules::{RuleId, Violation};
use std::collections::BTreeMap;

/// Accepted finding counts per `(file, rule)`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// `file → rule → accepted count`, both levels sorted.
    pub counts: BTreeMap<String, BTreeMap<RuleId, usize>>,
}

/// A baseline entry whose accepted count no longer matches reality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleEntry {
    pub file: String,
    pub rule: RuleId,
    /// Accepted count in the baseline file.
    pub accepted: usize,
    /// Findings actually present now (strictly fewer).
    pub actual: usize,
}

/// Result of filtering findings through a baseline.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Findings that survive (non-baselined rules, and over-budget
    /// `(file, rule)` groups in full).
    pub kept: Vec<Violation>,
    /// Findings absorbed by the baseline.
    pub absorbed: usize,
    /// Entries where the surface shrank without a baseline update.
    pub stale: Vec<StaleEntry>,
}

impl Baseline {
    /// Builds the baseline that would absorb exactly `violations`
    /// (only rules marked baselined are recorded).
    #[must_use]
    pub fn from_violations(violations: &[Violation]) -> Baseline {
        let mut counts: BTreeMap<String, BTreeMap<RuleId, usize>> = BTreeMap::new();
        for v in violations {
            if v.rule.meta().baselined {
                *counts.entry(v.file.clone()).or_default().entry(v.rule).or_default() += 1;
            }
        }
        Baseline { counts }
    }

    /// Parses the committed baseline file.
    ///
    /// # Errors
    ///
    /// A message describing the malformed construct.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = json::parse(text)?;
        if doc.get("version").and_then(Value::as_usize) != Some(1) {
            return Err("baseline: expected `\"version\": 1`".into());
        }
        let files = doc
            .get("counts")
            .and_then(Value::as_obj)
            .ok_or("baseline: missing `counts` object")?;
        let mut counts: BTreeMap<String, BTreeMap<RuleId, usize>> = BTreeMap::new();
        for (file, rules) in files {
            let rules = rules
                .as_obj()
                .ok_or_else(|| format!("baseline: `{file}` is not an object"))?;
            let mut per: BTreeMap<RuleId, usize> = BTreeMap::new();
            for (rule, n) in rules {
                let id = RuleId::parse(rule)
                    .ok_or_else(|| format!("baseline: unknown rule `{rule}`"))?;
                if !id.meta().baselined {
                    return Err(format!("baseline: rule `{rule}` is not baselineable"));
                }
                let n = n
                    .as_usize()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| {
                        format!("baseline: `{file}`/`{rule}` needs a whole count, at least 1 and below 2^53")
                    })?;
                per.insert(id, n);
            }
            if !per.is_empty() {
                counts.insert(file.clone(), per);
            }
        }
        Ok(Baseline { counts })
    }

    /// Renders the baseline deterministically (the inverse of
    /// [`parse`](Self::parse); byte-stable for identical contents).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"counts\": {");
        let mut first_file = true;
        for (file, rules) in &self.counts {
            if !first_file {
                out.push(',');
            }
            first_file = false;
            out.push_str("\n    ");
            out.push_str(&json::quote(file));
            out.push_str(": {");
            let mut first_rule = true;
            for (rule, n) in rules {
                if !first_rule {
                    out.push_str(", ");
                }
                first_rule = false;
                out.push_str(&format!("{}: {n}", json::quote(rule.id())));
            }
            out.push('}');
        }
        if !self.counts.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Filters `violations` through the baseline per the ratchet rules.
    #[must_use]
    pub fn apply(&self, violations: Vec<Violation>) -> Outcome {
        let mut actual: BTreeMap<(String, RuleId), usize> = BTreeMap::new();
        for v in &violations {
            if v.rule.meta().baselined {
                *actual.entry((v.file.clone(), v.rule)).or_default() += 1;
            }
        }
        let mut out = Outcome::default();
        for v in violations {
            if !v.rule.meta().baselined {
                out.kept.push(v);
                continue;
            }
            let accepted = self
                .counts
                .get(&v.file)
                .and_then(|m| m.get(&v.rule))
                .copied()
                .unwrap_or(0);
            let have = actual[&(v.file.clone(), v.rule)];
            if have <= accepted {
                out.absorbed += 1;
            } else {
                out.kept.push(v);
            }
        }
        for (file, rules) in &self.counts {
            for (&rule, &accepted) in rules {
                let have = actual.get(&(file.clone(), rule)).copied().unwrap_or(0);
                if have < accepted {
                    out.stale.push(StaleEntry {
                        file: file.clone(),
                        rule,
                        accepted,
                        actual: have,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(file: &str, line: u32, rule: RuleId) -> Violation {
        Violation {
            file: file.into(),
            line,
            rule,
            message: "m".into(),
        }
    }

    #[test]
    fn render_parse_round_trip_is_identity() {
        let b = Baseline::from_violations(&[
            v("b.rs", 1, RuleId::D9),
            v("a.rs", 2, RuleId::D9),
            v("a.rs", 9, RuleId::D9),
        ]);
        let text = b.render();
        let b2 = Baseline::parse(&text).unwrap();
        assert_eq!(b, b2);
        assert_eq!(text, b2.render(), "render must be byte-stable");
    }

    #[test]
    fn exact_match_absorbs_everything() {
        let vs = vec![v("a.rs", 1, RuleId::D9), v("a.rs", 2, RuleId::D9)];
        let b = Baseline::from_violations(&vs);
        let out = b.apply(vs);
        assert!(out.kept.is_empty());
        assert_eq!(out.absorbed, 2);
        assert!(out.stale.is_empty());
    }

    #[test]
    fn over_budget_reports_the_whole_group() {
        let b = Baseline::from_violations(&[v("a.rs", 1, RuleId::D9)]);
        let vs = vec![v("a.rs", 1, RuleId::D9), v("a.rs", 7, RuleId::D9)];
        let out = b.apply(vs);
        assert_eq!(out.kept.len(), 2, "both sites reported when one is new");
        assert_eq!(out.absorbed, 0);
    }

    #[test]
    fn shrinkage_is_stale() {
        let b = Baseline::from_violations(&[v("a.rs", 1, RuleId::D9), v("a.rs", 2, RuleId::D9)]);
        let out = b.apply(vec![v("a.rs", 1, RuleId::D9)]);
        assert_eq!(out.absorbed, 1);
        assert_eq!(out.stale.len(), 1);
        assert_eq!(out.stale[0].accepted, 2);
        assert_eq!(out.stale[0].actual, 1);
    }

    #[test]
    fn non_baselined_rules_pass_through() {
        let b = Baseline::default();
        let out = b.apply(vec![v("a.rs", 1, RuleId::D1)]);
        assert_eq!(out.kept.len(), 1);
    }

    #[test]
    fn parse_rejects_non_baselineable_rules_and_bad_counts() {
        assert!(Baseline::parse(r#"{"version": 1, "counts": {"a.rs": {"D1": 1}}}"#).is_err());
        for count in [
            "0",
            "-1",
            "1.5",
            "99999999999999999999999",
            "9007199254740993",
        ] {
            let text = format!(r#"{{"version": 1, "counts": {{"a.rs": {{"D9": {count}}}}}}}"#);
            assert!(Baseline::parse(&text).is_err(), "count {count} accepted");
        }
        assert!(Baseline::parse(r#"{"version": 1, "counts": {"a.rs": {"D9": 128}}}"#).is_ok());
        assert!(Baseline::parse(r#"{"version": 2, "counts": {}}"#).is_err());
    }
}
