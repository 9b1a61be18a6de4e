//! The benchmark's own span recorder: spans around the calls it makes into
//! each layer, held in memory and written as JSONL when the run ends.
//! Spans inside the engines are a later change (ROADMAP item 5).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle for an open span; hand it back to [`Recorder::exit`].
#[must_use]
pub struct Open(Option<u32>);

/// Off by default: `enter`/`exit` are then a branch each, which is what
/// lets the untraced pass and the traced pass run the same code.
pub struct Recorder {
    origin: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn off() -> Self {
        Recorder {
            origin: None,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on() -> Self {
        Recorder {
            origin: Some(Instant::now()),
            ..Recorder::off()
        }
    }

    fn now_ns(origin: Instant) -> u64 {
        u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let Some(origin) = self.origin else {
            return Open(None);
        };
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns: Self::now_ns(origin),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let (Some(origin), Some(id)) = (self.origin, open.0) else {
            return;
        };
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = Self::now_ns(origin);
    }

    /// Times `f` under a span.
    pub fn within<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// One JSON object per span, in start order.
pub fn jsonl(spans: &[Span], workload: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{workload}\",\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span(0, None, "op", 0, 100),
            span(1, Some(0), "phase.new", 10, 30),
            span(2, Some(0), "phase.run", 30, 90),
            // A grandchild shortens its parent only, not the root.
            span(3, Some(2), "inner", 40, 50),
            // A sibling overlapping phase.run is not subtracted twice.
            span(4, Some(0), "overlap", 80, 95),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 20, 50, 10, 15]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["op"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 15
            }
        );
        assert_eq!(totals["phase.run"].self_ns, 50);
    }

    #[test]
    fn recorder_nests_by_open_order_and_is_inert_when_off() {
        let mut rec = Recorder::on();
        let outer = rec.enter("outer");
        rec.within("a", || ());
        rec.within("b", || ());
        rec.exit(outer);
        let names: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, vec![("outer", None), ("a", Some(0)), ("b", Some(0))]);
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let text = jsonl(rec.spans(), "w");
        assert_eq!(text.lines().count(), 3);
        assert!(
            text.starts_with("{\"id\":0,\"parent\":null,\"name\":\"outer\",\"workload\":\"w\",")
        );

        let mut off = Recorder::off();
        let open = off.enter("x");
        off.exit(open);
        assert_eq!(off.within("y", || 7), 7);
        assert!(off.spans().is_empty());
    }
}
