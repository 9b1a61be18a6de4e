//! Executable reproductions of the paper's Figure 1 (plain callback 2PL) and
//! Figure 2 (lock grouping): build the actual message sequences and count
//! them.
//!
//! These traces are used by the `repro figure1` / `repro figure2`
//! targets and by property tests verifying the `4n-1` vs `2n+1` message
//! economics for arbitrary `n`.

use std::fmt;

/// One protocol message in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMessage {
    /// Sending site (display name).
    pub from: String,
    /// Receiving site (display name).
    pub to: String,
    /// What the message does.
    pub label: String,
}

impl TraceMessage {
    fn new(from: impl Into<String>, to: impl Into<String>, label: impl Into<String>) -> Self {
        TraceMessage {
            from: from.into(),
            to: to.into(),
            label: label.into(),
        }
    }
}

impl fmt::Display for TraceMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}: {}", self.from, self.to, self.label)
    }
}

fn client_name(i: usize) -> String {
    // A, B, C, ... then C10, C11, ...
    if i < 26 {
        char::from(b'A' + i as u8).to_string()
    } else {
        format!("C{i}")
    }
}

/// The message sequence when `n` clients successively need the same object
/// under callback 2PL with inter-transaction caching (Figure 1 generalized).
///
/// Each client sends a request and receives the object; each hand-off costs
/// a recall plus a return; the final client returns the object when it is
/// recalled or released: `4n - 1` messages in total (the paper quotes "as
/// high as 4n" counting an individual recall of the last copy too).
#[must_use]
pub fn cached_two_pl_trace(n: usize) -> Vec<TraceMessage> {
    let mut trace = Vec::new();
    for i in 0..n {
        let c = client_name(i);
        trace.push(TraceMessage::new(
            format!("Client {c}"),
            "Server",
            format!("{}: request object", trace.len() + 1),
        ));
        if i > 0 {
            let prev = client_name(i - 1);
            trace.push(TraceMessage::new(
                "Server",
                format!("Client {prev}"),
                format!("{}: recall object", trace.len() + 1),
            ));
            trace.push(TraceMessage::new(
                format!("Client {prev}"),
                "Server",
                format!("{}: return object", trace.len() + 1),
            ));
        }
        trace.push(TraceMessage::new(
            "Server",
            format!("Client {c}"),
            format!("{}: ship object", trace.len() + 1),
        ));
    }
    if n > 0 {
        let last = client_name(n - 1);
        trace.push(TraceMessage::new(
            format!("Client {last}"),
            "Server",
            format!("{}: return object", trace.len() + 1),
        ));
    }
    trace
}

/// The message sequence when the same `n` requests are served by one
/// collection window and forward list (Figure 2 generalized): `n` requests,
/// one ship with the forward list attached, `n - 1` client-to-client
/// forwards, one final return — `2n + 1` messages.
#[must_use]
pub fn grouped_trace(n: usize) -> Vec<TraceMessage> {
    let mut trace = Vec::new();
    if n == 0 {
        return trace;
    }
    for i in 0..n {
        let c = client_name(i);
        trace.push(TraceMessage::new(
            format!("Client {c}"),
            "Server",
            format!("{}: request object", trace.len() + 1),
        ));
    }
    trace.push(TraceMessage::new(
        "Server",
        "Client A",
        format!("{}: ship object + forward list", trace.len() + 1),
    ));
    for i in 1..n {
        let prev = client_name(i - 1);
        let c = client_name(i);
        trace.push(TraceMessage::new(
            format!("Client {prev}"),
            format!("Client {c}"),
            format!("{}: forward object", trace.len() + 1),
        ));
    }
    let last = client_name(n - 1);
    trace.push(TraceMessage::new(
        format!("Client {last}"),
        "Server",
        format!("{}: return object", trace.len() + 1),
    ));
    trace
}

/// Figure 1's exact scenario: the object moves from Client A to Client B via
/// the server — 7 messages.
#[must_use]
pub fn figure1_trace() -> Vec<TraceMessage> {
    cached_two_pl_trace(2)
}

/// Figure 2's exact scenario: the same movement with lock grouping — 5
/// messages.
#[must_use]
pub fn figure2_trace() -> Vec<TraceMessage> {
    grouped_trace(2)
}

/// Renders a trace as numbered lines, like the captions under Figures 1–2.
#[must_use]
pub fn render_trace(trace: &[TraceMessage]) -> String {
    let mut out = String::new();
    for m in trace {
        out.push_str(&m.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_needs_seven_messages() {
        let t = figure1_trace();
        assert_eq!(t.len(), 7);
        // Shape: A requests, gets the object; B requests; A is recalled and
        // returns; B gets the object; B returns it.
        assert!(t[0].label.contains("request"));
        assert!(t[1].label.contains("ship"));
        assert!(t[2].from.contains('B'));
        assert!(t[3].label.contains("recall"));
        assert!(t[6].label.contains("return"));
    }

    #[test]
    fn figure2_needs_five_messages() {
        let t = figure2_trace();
        assert_eq!(t.len(), 5);
        assert!(t[2].label.contains("forward list"));
        assert!(t[3].label.contains("forward object"));
        assert!(t[4].label.contains("return"));
    }

    #[test]
    fn generalized_counts_match_formulas() {
        for n in 1..50 {
            assert_eq!(cached_two_pl_trace(n).len(), 4 * n - 1);
            assert_eq!(grouped_trace(n).len(), 2 * n + 1);
        }
        assert!(grouped_trace(0).is_empty());
        // n = 0 cached: no requests, no return.
        assert!(cached_two_pl_trace(0).is_empty());
    }

    #[test]
    fn grouping_always_saves_messages_for_n_at_least_2() {
        for n in 2..100 {
            assert!(grouped_trace(n).len() < cached_two_pl_trace(n).len());
        }
    }

    #[test]
    fn render_is_numbered_and_lines_match() {
        let s = render_trace(&figure2_trace());
        assert_eq!(s.lines().count(), 5);
        assert!(s.contains("1: request object"));
        assert!(s.contains("Server -> Client A"));
    }

    #[test]
    fn client_names_extend_past_z() {
        let t = cached_two_pl_trace(30);
        assert!(t.iter().any(|m| m.from.contains("C26") || m.to.contains("C26")));
    }
}
