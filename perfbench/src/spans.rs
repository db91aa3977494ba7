//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (ns since the tracer was created), a
//! parent and an optional request id (the stream id for daemon calls).
//! Spans stay in memory and are written out once, when the run ends. A
//! disabled tracer records nothing, so untraced runs pay one branch per
//! call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Handle of an open span; `None` when tracing is off (or for "no parent").
pub type SpanId = Option<usize>;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call or phase name, e.g. `client.submit`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start: u64,
    /// End, in ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id: the stream id for serve calls.
    pub req: Option<String>,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans from any number of threads.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span under `parent`; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: SpanId, req: Option<&str>) -> SpanId {
        if !self.on {
            return None;
        }
        let start = self.now();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req: req.map(str::to_owned),
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        if let Some(i) = id {
            let end = self.now();
            self.spans.lock().expect("span recorder poisoned")[i].end = end;
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// parent its own calls.
    pub fn span<R>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
        let id = self.open(name, parent, None);
        let out = f(id);
        self.close(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Children on other threads may overlap each
/// other; overlapping time counts once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration() - union_len(kids, s.start, s.end))
        .collect()
}

/// Wall clock of the container `root` (and its direct children, the
/// containers one level down) that no operation span covers, in ns, with
/// the root's duration. `root`'s grandchildren are the layer calls, so
/// this is the time a missing span would hide.
pub fn gap(spans: &[Span], self_ns: &[u64], root: usize) -> (u64, u64) {
    let uncovered = self_ns[root]
        + spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(root))
            .map(|(i, _)| self_ns[i])
            .sum::<u64>();
    (uncovered, spans[root].duration())
}

/// Per-name totals: `(count, total ns, self ns)`, in name order.
pub fn by_name(spans: &[Span], self_ns: &[u64]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(self_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration();
        e.2 += own;
    }
    out
}

/// Spans as JSON lines, one object per span, in recording order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let req = s
            .req
            .as_ref()
            .map_or("null".to_owned(), |r| format!("\"{r}\""));
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{req}}}",
            s.name, s.start, s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: None,
        }
    }

    /// pass [0, 100) ─┬─ phase [5, 95) ─┬─ submit [10, 40)   (client 0)
    ///                │                 ├─ submit [30, 60)   (client 1, overlaps)
    ///                │                 └─ submit [70, 90) ── decode [75, 85)
    ///                └─ (uncovered [0,5) and [95,100))
    fn tree() -> Vec<Span> {
        vec![
            span("pass", 0, 100, None),
            span("phase", 5, 95, Some(0)),
            span("submit", 10, 40, Some(1)),
            span("submit", 30, 60, Some(1)),
            span("submit", 70, 90, Some(1)),
            span("decode", 75, 85, Some(4)),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let own = self_times(&tree());
        // pass: 100 - 90; phase: 90 - (50 + 20); third submit: 20 - 10.
        assert_eq!(own, vec![10, 20, 30, 30, 10, 10]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span("p", 10, 20, None),
            span("c", 0, 15, Some(0)),
            span("c", 18, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn gap_is_the_containers_self_time() {
        let spans = tree();
        let own = self_times(&spans);
        assert_eq!(gap(&spans, &own, 0), (30, 100));
        let totals = by_name(&spans, &own);
        assert_eq!(totals["submit"], (3, 80, 70));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let t = Tracer::new(true);
        t.span("outer", None, |outer| t.span("inner", outer, |_| ()));
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(to_jsonl(&spans).lines().count() == 2);
    }
}
