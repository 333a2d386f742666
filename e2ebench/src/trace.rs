//! In-memory spans for the traced run, written out when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed call: its name, the span that caused it, and its interval in
/// nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified call name (`core.run`, `routing.delta`, …).
    pub name: &'static str,
    /// Spec label for spec-level spans, empty otherwise.
    pub label: String,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end_ns: u64,
}

/// Collects spans opened and closed around calls into each layer.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        self.open_labelled(name, String::new(), parent)
    }

    /// Opens a span carrying a spec label.
    pub fn open_labelled(
        &mut self,
        name: &'static str,
        label: String,
        parent: Option<SpanId>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            label,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration.
    pub fn close(&mut self, id: SpanId) -> Duration {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        Duration::from_nanos(end_ns - span.start_ns)
    }

    /// The spans as JSON lines (`id`, `parent`, `name`, `label`,
    /// `start_ns`, `end_ns`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"label\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.label, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::new();
        let outer = t.open_labelled("core.pass", "SPMS".into(), None);
        let inner = t.open("core.run", Some(outer));
        let d_inner = t.close(inner);
        let d_outer = t.close(outer);
        assert!(d_outer >= d_inner);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\": 0, \"name\": \"core.run\""));
    }
}
