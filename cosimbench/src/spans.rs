//! In-memory span recorder for the traced run.
//!
//! Spans are taken in the benchmark's own code around its calls into
//! each layer (nothing inside the program is instrumented). They stay
//! in memory and are written out once, when the run ends, so tracing
//! adds two clock reads and a push per span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation.
    pub op: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder with an explicit nesting stack.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    on: bool,
}

impl Tracer {
    /// An empty recorder whose clock starts at `epoch` (recorders of
    /// several threads share one epoch so their spans line up).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new(), open: Vec::new(), on: true }
    }

    /// A recorder that records nothing: tracing off.
    pub fn off() -> Tracer {
        Tracer { on: false, ..Tracer::new(Instant::now()) }
    }

    /// Whether this recorder records.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in ns
    /// (0 with tracing off).
    pub fn end(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let i = self.open.pop().expect("end() without an open span");
        self.spans[i].end_ns = self.now_ns();
        self.spans[i].dur_ns()
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, op);
        let out = f();
        self.end();
        out
    }

    /// Moves another recorder's spans (same epoch) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span (its duration minus the part its child
    /// spans cover), grouped by name, in ns. Children of one parent
    /// come from one thread and never overlap, so the covered part is
    /// the sum of their durations.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            out.entry(s.name).or_default().push(s.dur_ns().saturating_sub(c) as f64);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        t.begin("op", 1);
        t.span("child", 1, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.span("child", 1, || std::thread::sleep(std::time::Duration::from_millis(2)));
        let total = t.end() as f64;
        let st = t.self_times();
        let children: f64 = st["child"].iter().sum();
        assert!(children >= 4e6);
        assert_eq!(st["op"].len(), 1);
        assert!((st["op"][0] - (total - children)).abs() < 1.0);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", 1, || 7), 7);
        t.begin("y", 1);
        assert_eq!(t.end(), 0);
        assert!(t.self_times().is_empty());
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.span("x", 1, || ());
        let mut b = Tracer::new(epoch);
        b.begin("y", 2);
        b.span("z", 2, || ());
        b.end();
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.spans[1].op, 2);
    }
}
