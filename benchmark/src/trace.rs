//! The benchmark's own spans: recorded in memory around calls into the
//! library's public functions, written out once when the run ends.

use crate::json::Json;
use std::time::{Duration, Instant};

/// One recorded span. Spans of one end-to-end operation share `request`.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    pub request: u64,
}

impl SpanRec {
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

/// Handle to an open (or finished) span; `None` inside when tracing is off.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<u32>);

/// A single-threaded span recorder. Each load-generator thread owns one
/// (same `epoch`), and the owner [`Tracer::absorb`]s them at the end.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// A recorder on the same clock and with the same on/off state.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.epoch, self.enabled)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.0,
            request,
        });
        SpanId(Some(self.spans.len() as u32 - 1))
    }

    pub fn root(&mut self, name: &'static str, request: u64) -> SpanId {
        self.begin(name, SpanId(None), request)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Record a span that just ended and took `took` (for library hooks that
    /// report a measured duration instead of letting the caller bracket it).
    pub fn closed(&mut self, name: &'static str, parent: SpanId, request: u64, took: Duration) {
        let id = self.begin(name, parent, request);
        if let Some(i) = id.0 {
            let s = &mut self.spans[i as usize];
            s.start_ns = s.end_ns.saturating_sub(took.as_nanos() as u64);
        }
    }

    /// Append another recorder's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64())
            .sum()
    }

    /// Summed duration of `name` per request id, ascending by request.
    pub fn per_request_s(&self, name: &str) -> Vec<f64> {
        let mut by_request = std::collections::BTreeMap::<u64, f64>::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_request.entry(s.request).or_default() += s.duration().as_secs_f64();
        }
        by_request.into_values().collect()
    }

    pub fn to_json(&self) -> Json {
        let own = self_times_ns(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(own)
                .map(|(s, self_ns)| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Int(s.start_ns as i64)),
                        ("end_ns", Json::Int(s.end_ns as i64)),
                        ("self_ns", Json::Int(self_ns as i64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                        ("request", Json::Int(s.request as i64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its child spans cover (children may overlap each other or overrun the
/// parent; both are clipped, neither is counted twice).
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> SpanRec {
        SpanRec {
            name: "t",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_child_cover() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),  // plain child
            span(30, 60, Some(0)),  // overlaps the first: union is 10..60
            span(90, 130, Some(0)), // overruns the parent: clipped to 90..100
            span(15, 20, Some(1)),  // grandchild only reduces its own parent
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 50 - 10, 25, 30, 40, 5]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut off = Tracer::new(epoch, false);
        let id = off.root("x", 1);
        off.end(id);
        assert!(off.spans().is_empty());

        let mut a = Tracer::new(epoch, true);
        let r = a.root("a", 1);
        a.end(r);
        let mut b = a.sibling();
        let r = b.root("b", 2);
        let c = b.begin("b.child", r, 2);
        b.end(c);
        b.end(r);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.per_request_s("b.child").len(), 1);
    }
}
