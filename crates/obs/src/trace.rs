//! Structured per-request tracing.
//!
//! A [`Trace`] is a bounded, shareable buffer of finished [`SpanEvent`]s for
//! one request (or one library-level operation). [`Span`]s are RAII guards:
//! starting one stamps the clock, finishing (or dropping) it records a
//! `(name, start, dur, fields)` event with its parent link, so the events
//! reconstruct a tree. Span ids are assigned at start, which lets children
//! finish before their parents without losing the tree shape — and lets
//! worker threads record into the same trace through a cloned handle.
//!
//! `finish()` returns the measured duration *whether or not the event was
//! recorded*: timing-derived report fields (see `oociso-cluster`'s
//! `NodeReport`) read that return value, so they stay exact when a full
//! trace drops events.
//!
//! The [`TraceJournal`] is the ring buffer behind the server's recent-trace
//! and slow-query logs: pushing a finished trace clones its events out, so
//! journals never pin live request state.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sentinel parent id for root spans.
pub const NO_PARENT: u32 = u32::MAX;

/// Default per-trace event capacity.
pub const DEFAULT_TRACE_EVENTS: usize = 512;

/// One finished span: `start` is the offset from the trace's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span id (assigned at start, unique within the trace).
    pub id: u32,
    /// Parent span id, or [`NO_PARENT`] for roots.
    pub parent: u32,
    /// Static span name (see `docs/observability.md` for the naming scheme).
    pub name: &'static str,
    /// Start offset from the trace epoch.
    pub start: Duration,
    /// Measured duration.
    pub dur: Duration,
    /// Numeric key/value annotations.
    pub fields: Vec<(&'static str, u64)>,
}

#[derive(Debug)]
struct TraceInner {
    id: u64,
    t0: Instant,
    cap: usize,
    next_id: AtomicU32,
    events: Mutex<Vec<SpanEvent>>,
    dropped: AtomicU64,
}

/// A bounded per-request event buffer, cheaply cloneable across the threads
/// serving one request.
#[derive(Clone, Debug)]
pub struct Trace {
    inner: Arc<TraceInner>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new(0, DEFAULT_TRACE_EVENTS)
    }
}

impl Trace {
    /// A trace identified by `id` (the wire trace id for served requests),
    /// holding at most `cap` events — further events are counted in
    /// [`Trace::dropped_events`] instead of growing the buffer.
    pub fn new(id: u64, cap: usize) -> Trace {
        Trace {
            inner: Arc::new(TraceInner {
                id,
                t0: Instant::now(),
                cap: cap.max(1),
                next_id: AtomicU32::new(0),
                events: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// An anonymous trace (id 0) with the default capacity — what library
    /// code uses when no request trace was supplied.
    pub fn detached() -> Trace {
        Trace::default()
    }

    /// The trace id.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The trace epoch (what event `start` offsets are relative to).
    pub fn epoch(&self) -> Instant {
        self.inner.t0
    }

    /// Start a root span.
    pub fn span(&self, name: &'static str) -> Span {
        self.start_span(name, NO_PARENT)
    }

    fn start_span(&self, name: &'static str, parent: u32) -> Span {
        let start = Instant::now();
        Span {
            trace: self.clone(),
            id: self.inner.next_id.fetch_add(1, Relaxed),
            parent,
            name,
            start,
            start_off: start.saturating_duration_since(self.inner.t0),
            fields: Vec::new(),
            finished: false,
        }
    }

    /// Record a pre-measured event (a phase whose duration was accumulated
    /// out-of-band, e.g. a worker's summed busy time or a queue's total
    /// wait). `start` is the offset from the trace epoch.
    pub fn record_complete(
        &self,
        name: &'static str,
        parent: u32,
        start: Duration,
        dur: Duration,
        fields: &[(&'static str, u64)],
    ) {
        let id = self.inner.next_id.fetch_add(1, Relaxed);
        self.push(SpanEvent {
            id,
            parent,
            name,
            start,
            dur,
            fields: fields.to_vec(),
        });
    }

    fn push(&self, ev: SpanEvent) {
        let mut events = self.inner.events.lock().unwrap();
        if events.len() >= self.inner.cap {
            self.inner.dropped.fetch_add(1, Relaxed);
        } else {
            events.push(ev);
        }
    }

    /// Copy out the recorded events (finish order).
    pub fn events(&self) -> Vec<SpanEvent> {
        self.inner.events.lock().unwrap().clone()
    }

    /// Events discarded because the buffer was full.
    pub fn dropped_events(&self) -> u64 {
        self.inner.dropped.load(Relaxed)
    }

    /// Sum of durations over events named `name` — the derived-view
    /// primitive report fields are rebuilt from.
    pub fn sum(&self, name: &str) -> Duration {
        self.inner
            .events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.dur)
            .sum()
    }

    /// Render the span tree as indented text (one span per line:
    /// `name  dur  [k=v ...]`), children ordered by start time.
    pub fn render_tree(&self) -> String {
        render_events(&self.events())
    }
}

/// Render a finished event list as an indented tree.
pub fn render_events(events: &[SpanEvent]) -> String {
    let mut out = String::new();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); events.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        if e.parent == NO_PARENT {
            roots.push(i);
        } else if let Some(p) = events.iter().position(|c| c.id == e.parent) {
            children[p].push(i);
        } else {
            roots.push(i); // parent dropped from a full buffer: promote
        }
    }
    let by_start = |l: &mut Vec<usize>| l.sort_by_key(|&i| (events[i].start, events[i].id));
    by_start(&mut roots);
    for l in &mut children {
        by_start(l);
    }
    fn emit(
        out: &mut String,
        events: &[SpanEvent],
        children: &[Vec<usize>],
        i: usize,
        depth: usize,
    ) {
        let e = &events[i];
        out.push_str(&"  ".repeat(depth));
        out.push_str(e.name);
        out.push_str(&format!(" {:.3}ms", e.dur.as_secs_f64() * 1e3));
        for (k, v) in &e.fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        for &c in &children[i] {
            emit(out, events, children, c, depth + 1);
        }
    }
    for &r in &roots {
        emit(&mut out, events, &children, r, 0);
    }
    out
}

/// An in-flight span. Dropping it records the event; [`Span::finish`] does
/// the same but hands back the measured duration.
#[derive(Debug)]
pub struct Span {
    trace: Trace,
    id: u32,
    parent: u32,
    name: &'static str,
    start: Instant,
    start_off: Duration,
    fields: Vec<(&'static str, u64)>,
    finished: bool,
}

impl Span {
    /// Start a child span.
    pub fn child(&self, name: &'static str) -> Span {
        self.trace.start_span(name, self.id)
    }

    /// Attach a numeric field.
    pub fn field(&mut self, key: &'static str, value: u64) {
        self.fields.push((key, value));
    }

    /// Record a pre-measured child event under this span (for durations
    /// accumulated out-of-band). The event is back-dated so it ends "now".
    pub fn annotate(&self, name: &'static str, dur: Duration, fields: &[(&'static str, u64)]) {
        let end = Instant::now().saturating_duration_since(self.trace.inner.t0);
        self.trace
            .record_complete(name, self.id, end.saturating_sub(dur), dur, fields);
    }

    /// The span's id (parent link for [`Trace::record_complete`]).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Finish the span, recording its event, and return the measured
    /// duration. The return value is computed even when the trace buffer
    /// is full — derived timing views rely on that.
    pub fn finish(mut self) -> Duration {
        self.finish_inner()
    }

    fn finish_inner(&mut self) -> Duration {
        let dur = self.start.elapsed();
        if !self.finished {
            self.finished = true;
            self.trace.push(SpanEvent {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start: self.start_off,
                dur,
                fields: std::mem::take(&mut self.fields),
            });
        }
        dur
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.finished {
            self.finish_inner();
        }
    }
}

/// A finished trace retained by a [`TraceJournal`].
#[derive(Clone, Debug)]
pub struct FinishedTrace {
    /// The wire trace id (0 for untraced requests).
    pub id: u64,
    /// End-to-end duration the pusher attributed to the request.
    pub total: Duration,
    /// The recorded span events.
    pub events: Vec<SpanEvent>,
    /// Events lost to the per-trace cap.
    pub dropped: u64,
}

impl FinishedTrace {
    /// Render the span tree (see [`Trace::render_tree`]).
    pub fn render_tree(&self) -> String {
        render_events(&self.events)
    }
}

/// A bounded ring of recently finished traces (the newest at the back).
#[derive(Debug)]
pub struct TraceJournal {
    cap: usize,
    ring: Mutex<VecDeque<FinishedTrace>>,
}

impl TraceJournal {
    /// A journal retaining the last `cap` traces.
    pub fn new(cap: usize) -> TraceJournal {
        TraceJournal {
            cap: cap.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Retain `trace` (clone-out; the live trace is untouched).
    pub fn push(&self, trace: &Trace, total: Duration) {
        let t = FinishedTrace {
            id: trace.id(),
            total,
            events: trace.events(),
            dropped: trace.dropped_events(),
        };
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(t);
    }

    /// The most recently pushed trace.
    pub fn latest(&self) -> Option<FinishedTrace> {
        self.ring.lock().unwrap().back().cloned()
    }

    /// The most recent trace with id `id`.
    pub fn find(&self, id: u64) -> Option<FinishedTrace> {
        self.ring
            .lock()
            .unwrap()
            .iter()
            .rev()
            .find(|t| t.id == id)
            .cloned()
    }

    /// Retained trace count.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_a_tree() {
        let trace = Trace::new(7, 64);
        let mut root = trace.span("request");
        root.field("iso", 110);
        {
            let child = root.child("extract");
            let grand = child.child("execute_plan");
            drop(grand);
            child.finish();
        }
        root.annotate("triangulate", Duration::from_millis(3), &[("worker", 1)]);
        drop(root);
        let events = trace.events();
        assert_eq!(events.len(), 4);
        // finish order: leaf first, root last
        assert_eq!(events[0].name, "execute_plan");
        assert_eq!(events[3].name, "request");
        let root_ev = &events[3];
        let extract = &events[1];
        assert_eq!(extract.parent, root_ev.id);
        assert_eq!(events[0].parent, extract.id);
        assert_eq!(events[2].name, "triangulate");
        assert_eq!(events[2].dur, Duration::from_millis(3));
        assert_eq!(events[2].fields, vec![("worker", 1)]);
        assert_eq!(root_ev.fields, vec![("iso", 110)]);
        let tree = trace.render_tree();
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("request"));
        // siblings order by start time; the back-dated annotate may precede
        // "extract", but "execute_plan" always nests directly under it
        let extract = lines
            .iter()
            .position(|l| l.starts_with("  extract"))
            .unwrap();
        assert!(lines[extract + 1].starts_with("    execute_plan"));
        assert!(lines.iter().any(|l| l.starts_with("  triangulate")));
    }

    #[test]
    fn finish_returns_duration_and_bounded_buffer_drops() {
        let trace = Trace::new(1, 2);
        let d = trace.span("a").finish();
        assert!(d < Duration::from_secs(1));
        trace.span("b").finish();
        trace.span("c").finish(); // over cap: dropped, still measured
        assert_eq!(trace.events().len(), 2);
        assert_eq!(trace.dropped_events(), 1);
    }

    #[test]
    fn sum_is_per_name() {
        let trace = Trace::detached();
        let root = trace.span("r");
        root.annotate("w", Duration::from_millis(2), &[]);
        root.annotate("w", Duration::from_millis(3), &[]);
        root.annotate("x", Duration::from_millis(10), &[]);
        drop(root);
        assert_eq!(trace.sum("w"), Duration::from_millis(5));
        assert_eq!(trace.sum("x"), Duration::from_millis(10));
        assert_eq!(trace.sum("absent"), Duration::ZERO);
    }

    #[test]
    fn cross_thread_spans_land_in_one_trace() {
        let trace = Trace::new(9, 64);
        let root = trace.span("request");
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let span = root.child("triangulate");
                scope.spawn(move || {
                    let mut span = span;
                    span.field("worker", w);
                    span.finish();
                });
            }
        });
        drop(root);
        let events = trace.events();
        assert_eq!(events.len(), 5);
        assert_eq!(events.iter().filter(|e| e.name == "triangulate").count(), 4);
    }

    #[test]
    fn journal_is_a_ring_with_id_lookup() {
        let j = TraceJournal::new(2);
        for id in 1..=3u64 {
            let t = Trace::new(id, 8);
            t.span("request").finish();
            j.push(&t, Duration::from_millis(id));
        }
        assert_eq!(j.len(), 2);
        assert!(j.find(1).is_none(), "oldest trace evicted");
        assert_eq!(j.find(2).unwrap().total, Duration::from_millis(2));
        assert_eq!(j.latest().unwrap().id, 3);
        assert!(j.latest().unwrap().render_tree().starts_with("request"));
    }
}
