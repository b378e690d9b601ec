//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions (spans inside the crates are a later issue).
//!
//! One traced replay runs on one thread, so the open-span stack is the
//! causal chain: a span's parent is whatever span was open when it began.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `core.annotate`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The workload op (query, round) this span belongs to.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A disabled tracer runs the closures and records nothing, so the
    /// same replay code measures the untraced side of `trace.overhead_ratio`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Durations of every span called `name`, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Per span name: calls and total time in ns.
    pub fn by_name(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.dur_ns();
        }
        out
    }

    /// Σ of the durations of the spans directly under spans called
    /// `parent`, in ns: what the recorded layers account for of it.
    pub fn children_ns(&self, parent: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == parent))
            .map(Span::dur_ns)
            .sum()
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.op
            );
            s.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push(']');
        s
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
}
