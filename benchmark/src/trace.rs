//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions (outside-in: nothing inside the product is
//! instrumented).  Spans are kept in memory and written when the workload
//! ends; a layer's self time is its span minus the part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

/// Returned by [`Tracer::begin`] when tracing is off.
const NO_SPAN: SpanId = SpanId::MAX;

/// One timed call: `layer.function` name, start and end in nanoseconds since
/// the tracer was created, the span that caused it, and the operation
/// (request, batch, circuit) it belongs to — spans of one operation share
/// the id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Count, total and self time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Span recorder; every method is a cheap no-op when created disabled, so
/// the untraced run executes the same code path minus the clock reads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len() as SpanId;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        id
    }

    /// Closes the span [`Tracer::begin`] returned (spans close innermost
    /// first).
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let end_ns = self.ns(Instant::now());
        debug_assert_eq!(self.stack.last(), Some(&id), "spans close innermost first");
        self.stack.pop();
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Times `f` as one span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span whose ends were observed elsewhere (a request in
    /// flight overlaps its neighbours, so it cannot live on the stack).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.enabled {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.push_raw(name, op, start_ns, end_ns, None);
        }
    }

    fn push_raw(
        &mut self,
        name: &'static str,
        op: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() as SpanId - 1
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its child spans cover (overlapping children count once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += self_ns;
        }
        out
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Renders every span as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_sibling_children_once() {
        let mut t = Tracer::new(true);
        // root [0,100] > a [10,40] > a1 [15,25]; b [50,70]; c overlaps b
        // [60,90]; d sticks out past the root [95,120].
        let root = t.push_raw("root", 1, 0, 100, None);
        let a = t.push_raw("a", 1, 10, 40, Some(root));
        t.push_raw("a1", 1, 15, 25, Some(a));
        t.push_raw("b", 1, 50, 70, Some(root));
        t.push_raw("c", 1, 60, 90, Some(root));
        t.push_raw("d", 1, 95, 120, Some(root));
        // covered: 30 (a) + 40 (b ∪ c) + 5 (d clipped) = 75
        assert_eq!(t.self_times(), vec![25, 20, 10, 20, 30, 25]);
        let totals = t.totals();
        assert_eq!(totals["root"].self_ns, 25);
        assert_eq!(totals["a"].total_ns, 30);
        assert_eq!(totals["a"].self_ns, 20);
    }

    #[test]
    fn begin_end_nest_on_the_stack_and_share_the_operation_id() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        t.span("inner", 7, || std::hint::black_box(1 + 1));
        t.span("inner", 7, || ());
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[2].parent, Some(outer));
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(t.totals()["inner"].count, 2);
        assert!(t.to_json("w").contains("\"parent\":0"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 0);
        t.end(id);
        t.record("y", 0, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }
}
