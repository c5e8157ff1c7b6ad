//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer's public function, timed from the
//! benchmark side: name, start, end, the span that caused it, and the
//! trace (request or pass) it belongs to. Spans stay in memory while the
//! workload runs and are written out once, at exit. A layer's self time
//! is its spans' durations minus the part covered by their children.
//!
//! With tracing off, [`Tracer::span`] records nothing and costs one
//! branch, so the untraced run measures the program alone.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; records itself when dropped (or [`SpanGuard::end`]ed).
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    trace: u64,
    name: &'static str,
    start_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn clock_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under `parent`, in the parent's trace;
    /// a root (`parent` is `None`) starts a new trace.
    pub fn span(&self, name: &'static str, parent: Option<&SpanGuard<'_>>) -> SpanGuard<'_> {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        SpanGuard {
            tracer: self,
            id,
            parent: parent.map(|p| p.id),
            trace: parent.map_or(id, |p| p.trace),
            name,
            start_ns: if self.enabled { self.clock_ns() } else { 0 },
        }
    }

    /// Record an already-measured span (used where the caller timed an
    /// interval itself, e.g. one request on a client thread).
    pub fn record(&self, span: Span) {
        if self.enabled {
            if let Ok(mut spans) = self.spans.lock() {
                spans.push(span);
            }
        }
    }

    /// Fresh span id (for [`record`](Self::record)).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Every recorded span, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().map(|s| s.clone()).unwrap_or_default();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Render all spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.trace, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

impl SpanGuard<'_> {
    /// Close the span now; returns its duration in nanoseconds (0 when
    /// tracing is off).
    pub fn end(self) -> u64 {
        let d = self.close();
        std::mem::forget(self);
        d
    }

    fn close(&self) -> u64 {
        if !self.tracer.enabled {
            return 0;
        }
        let end_ns = self.tracer.clock_ns();
        self.tracer.record(Span {
            id: self.id,
            parent: self.parent,
            trace: self.trace,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        });
        end_ns - self.start_ns
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

/// Self time per span: duration minus the union of its children's
/// intervals (clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = children.remove(&s.id).unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in iv {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Total self time of all spans named `name`, in nanoseconds.
pub fn self_time_of(spans: &[Span], name: &str) -> u64 {
    let selfs = self_times(spans);
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs.get(&s.id).copied().unwrap_or(0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "pass", 0, 100),
            span(2, Some(1), "exp", 10, 40),
            span(3, Some(1), "exp", 30, 50),  // overlaps span 2
            span(4, Some(1), "exp", 90, 120), // runs past the parent
            span(5, Some(2), "inner", 15, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 30 - 5);
        assert_eq!(selfs[&5], 5);
        assert_eq!(self_time_of(&spans, "exp"), 25 + 20 + 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let root = t.span("root", None);
        let child = t.span("child", Some(&root));
        assert_eq!(child.end(), 0);
        drop(root);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents_and_traces() {
        let t = Tracer::new(true);
        let root = t.span("root", None);
        let child = t.span("child", Some(&root));
        child.end();
        drop(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let (r, c) = (&spans[0], &spans[1]);
        assert_eq!(c.parent, Some(r.id));
        assert_eq!(c.trace, r.trace);
        assert!(c.start_ns >= r.start_ns && c.end_ns <= r.end_ns);
        assert!(t.to_json().contains("\"name\":\"child\""));
    }
}
