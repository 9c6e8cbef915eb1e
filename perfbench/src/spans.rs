//! The benchmark's own span recorder.
//!
//! Spans are opened and closed around calls into the program's public API;
//! each carries a name, start and end (ns since the recorder's epoch), its
//! parent and the op it belongs to. They stay in memory and are written as
//! JSON lines when the run ends. No span is recorded inside the program.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder with an implicit parent stack. While disabled
/// it records nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pub enabled: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            enabled: true,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (and anything opened inside it that is still open);
    /// returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        self.spans[id].secs()
    }

    /// Records `f` as one span and returns its value with its duration
    /// (0 while disabled).
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.enabled {
            return (f(), 0.0);
        }
        let id = self.open(name, op);
        let out = f();
        let secs = self.close(id);
        (out, secs)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","op":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_one() {
        let mut t = Tracer::new();
        let outer = t.open("outer", 7);
        let ((), inner) = t.time("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let total = t.close(outer);
        assert!(inner >= 0.005 && total >= inner);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
