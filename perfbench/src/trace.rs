//! In-memory spans for the traced run, written out once at the end.
//!
//! A span is `(trace id, span id, parent, name, start, end)`. Spans of
//! one request share its trace id: the client-side `request` span from
//! the socket run, and the `replay` tree from re-running the same input
//! through the public calls in-process.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// The request's trace id (the `TRACE` id sent on the wire).
    pub trace: u64,
    /// Index of the span in its tracer (0 for client spans).
    pub id: u32,
    /// Index of the parent span, or `u32::MAX` for a root.
    pub parent: u32,
    /// Layer call name, e.g. `core.transform`.
    pub name: &'static str,
    /// Start instant.
    pub start: Instant,
    /// End instant.
    pub end: Instant,
}

const ROOT: u32 = u32::MAX;

impl Span {
    /// A client-side `request` span: from send (or due time) to the
    /// complete reply.
    pub fn client(trace: u64, start: Instant, end: Instant) -> Span {
        Span {
            trace,
            id: 0,
            parent: ROOT,
            name: "request",
            start,
            end,
        }
    }

    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end.duration_since(self.start).as_nanos() as u64
    }
}

/// Records the replay's span trees.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<u32>,
    trace: u64,
}

impl Tracer {
    /// Starts a new request's tree under `trace`, rooted at a span named
    /// `name`; close it with [`Tracer::end_request`].
    pub fn begin_request(&mut self, trace: u64, name: &'static str) {
        self.trace = trace;
        self.enter(name);
    }

    /// Closes the request root.
    pub fn end_request(&mut self) {
        self.exit();
        debug_assert!(self.open.is_empty(), "unbalanced spans");
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let id = self.spans.len() as u32;
        let now = Instant::now();
        self.spans.push(Span {
            trace: self.trace,
            id,
            parent: self.open.last().copied().unwrap_or(ROOT),
            name,
            start: now,
            end: now,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("a span is open");
        self.spans[id as usize].end = Instant::now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = std::hint::black_box(f());
        self.exit();
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children's intervals cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                children[s.parent as usize].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_by_key(|k| k.0);
                let mut covered = 0u64;
                let mut reach = s.start;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b.duration_since(a).as_nanos() as u64;
                        reach = b;
                    }
                }
                s.ns().saturating_sub(covered)
            })
            .collect()
    }
}

/// Renders spans as JSON lines, times in ns from `epoch`. Replay spans
/// carry their self time; client spans have no children.
pub fn to_jsonl(epoch: Instant, client: &[Span], replay: &Tracer) -> String {
    let mut out = String::new();
    let line = |out: &mut String, src: &str, s: &Span, self_ns: u64| {
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{{\"src\":\"{src}\",\"trace\":\"{:016x}\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{self_ns}}}",
            s.trace,
            s.id,
            s.name,
            s.start.saturating_duration_since(epoch).as_nanos(),
            s.ns(),
        );
    };
    for s in client {
        line(&mut out, "socket", s, s.ns());
    }
    for (s, self_ns) in replay.spans().iter().zip(replay.self_times()) {
        line(&mut out, "replay", s, self_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        t.begin_request(1, "root");
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end_request();
        let own = t.self_times();
        let total = t.spans()[0].ns();
        assert_eq!(own[0] + t.spans()[1].ns() + t.spans()[2].ns(), total);
        assert_eq!(own[1], t.spans()[1].ns());
        assert_eq!(t.spans()[1].parent, 0);
    }
}
