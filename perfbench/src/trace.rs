//! In-memory span tracing from outside the program: the benchmark opens a
//! span around each call it makes into a layer's public API, keeps every
//! span in memory, and reduces them to per-layer self-times when the run
//! ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished (or open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, such as `fixpoint.solve`.
    pub name: &'static str,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder.  Spans nest by call order: [`Tracer::enter`] makes the
/// innermost open span the parent of the new one.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let span = Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.spans.push(span);
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Duration in milliseconds of the span `id`.
    pub fn duration_ms(&self, id: usize) -> f64 {
        self.spans[id].duration_ns() as f64 / 1e6
    }

    /// Self-time per span name in milliseconds: each span's duration minus
    /// the part of it its child spans cover.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = span.duration_ns().saturating_sub(children);
            *out.entry(span.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(outer);
        let times = t.self_times_ms();
        assert!(times["inner"] >= 5.0);
        assert!(times["outer"] >= 2.0 && times["outer"] < times["inner"]);
        let total: f64 = times.values().sum();
        assert!((total - t.duration_ms(outer)).abs() < 1e-6);
    }
}
