//! The benchmark's own spans, recorded around its calls into each
//! layer's public functions.
//!
//! Spans are kept in memory and written out once, at exit. A disabled
//! tracer still times every call (the end-to-end figures need the
//! durations) but records nothing.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as a child's `parent`.
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.map`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// The span this one ran inside.
    pub parent: Option<SpanId>,
    /// Request id shared by the spans of one request (0 = none).
    pub req: u64,
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: usize,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus the union of child spans), ns.
    pub self_ns: u64,
}

/// Span recorder shared by reference across the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
    }

    /// Records a span whose interval was measured by the caller.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        req: u64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        };
        let mut spans = self.lock();
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Starts a span now; its children can name it as parent before
    /// [`Tracer::close`] ends it.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, req: u64) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, now, now, parent, req)
    }

    /// Ends a span started by [`Tracer::open`].
    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end_ns = self.ns(Instant::now());
            self.lock()[id].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span and returns its result with the elapsed
    /// seconds. `f` receives the span's id for its children.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let id = self.open(name, parent, req);
        let out = f(id);
        self.close(id);
        (out, start.elapsed().as_secs_f64())
    }

    /// A snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Per-name totals over every span recorded so far.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        totals(&self.spans())
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans()
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                    s.name, s.start_ns, s.end_ns, s.req
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Per-name count, total and self time of `spans`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered(kids, s.start_ns, s.end_ns));
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut sum = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            sum += b - a;
            reach = b;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Children overlap (1..3 and 2..5 cover 4 ns) and one child
        // runs past its parent's end; only 0..10 counts.
        let spans = vec![
            span("outer", 0, 10, None),
            span("inner", 1, 3, Some(0)),
            span("inner", 2, 5, Some(0)),
            span("inner", 7, 12, Some(0)),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["outer"],
            SpanTotals {
                count: 1,
                total_ns: 10,
                self_ns: 3
            }
        );
        assert_eq!(t["inner"].count, 3);
        assert_eq!(t["inner"].total_ns, 2 + 3 + 5);
        assert_eq!(t["inner"].self_ns, 10);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let tr = Tracer::new(false);
        let (v, secs) = tr.time("x", None, 0, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn nested_spans_name_their_parent() {
        let tr = Tracer::new(true);
        tr.time("outer", None, 3, |id| {
            tr.time("inner", id, 3, |_| ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(tr.to_json().contains("\"name\":\"inner\""));
    }
}
