//! In-memory spans recorded by the benchmark around its calls into each
//! layer: name, start, end, parent, and the job they belong to. Spans are
//! kept in memory and written out once, at the end of a traced run.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`graph.gen`, `runner`, ...).
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Job the span belongs to (0 for set-up and probes).
    pub job: u64,
    /// Start offset from the tracer's creation, in nanoseconds.
    pub start_ns: u64,
    /// End offset; equal to `start_ns` while the span is open.
    pub end_ns: u64,
}

/// Self time and count of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerBudget {
    /// Layer name.
    pub name: &'static str,
    /// Summed self time: span time not covered by child spans.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// Records spans when enabled; every call is a no-op otherwise.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, passed back to [`Tracer::exit`].
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts or stops recording; spans already open still close.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, job: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            job,
            start_ns: t,
            end_ns: t,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let Some(i) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(i), "spans must close innermost first");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, job);
        let out = f();
        self.exit(id);
        out
    }

    /// Per-layer self time and counts, in first-seen order. Spans come from
    /// one thread, so children never overlap and a span's self time is its
    /// duration minus its children's.
    pub fn budget(&self) -> Vec<LayerBudget> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<LayerBudget> = Vec::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            match out.iter_mut().find(|b| b.name == s.name) {
                Some(b) => {
                    b.self_ns += own;
                    b.count += 1;
                }
                None => out.push(LayerBudget {
                    name: s.name,
                    self_ns: own,
                    count: 1,
                }),
            }
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.job, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            job: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("root", None, 0, 100),
            span("job", Some(0), 10, 60),
            span("runner", Some(1), 15, 55),
            span("job", Some(0), 60, 90),
        ];
        let b = t.budget();
        let get = |n: &str| b.iter().find(|x| x.name == n).cloned().expect("layer");
        assert_eq!(get("root").self_ns, 20);
        assert_eq!(get("job").self_ns, 10 + 30);
        assert_eq!(get("job").count, 2);
        assert_eq!(get("runner").self_ns, 40);
        let total: u64 = b.iter().map(|x| x.self_ns).sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", 0, || 7);
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
        assert!(t.budget().is_empty());
    }

    #[test]
    fn nesting_and_jsonl() {
        let mut t = Tracer::new(true);
        let a = t.enter("a", 0);
        t.span("b", 3, || ());
        t.exit(a);
        assert_eq!(t.spans[1].parent, Some(0));
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"name\":\"b\",\"job\":3"));
    }
}
