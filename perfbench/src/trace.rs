//! Bench-side spans around each call into a library layer.
//!
//! Spans are kept in memory and written out when the run ends. A span's
//! layer is its name up to the first `.`; its self time is its duration
//! minus the part of it that its child spans cover.

use crate::report::json_str;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u32,
    /// The span that made this call, if any.
    pub parent: Option<u32>,
    /// `layer.call`, e.g. `registry.acquire.build`.
    pub name: &'static str,
    /// Request (or job) the span belongs to; 0 when none.
    pub req: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// The layer this span times.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans; a disabled tracer only runs the calls.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`. `f` receives the span's id to
    /// pass as the parent of nested spans (`None` when disabled).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        f: impl FnOnce(Option<u32>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        self.push(id, parent, name, req, start, Instant::now());
        out
    }

    fn push(
        &self,
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            req,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        };
        self.spans.lock().expect("tracer lock poisoned").push(span);
    }

    /// Every span recorded so far, in id order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("tracer lock poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Durations in milliseconds of every span called `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("tracer lock poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }
}

/// Self time of every span in milliseconds, by span id.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, f64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            // Union of the children's intervals, clipped to the parent.
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns - covered) as f64 / 1e6)
        })
        .collect()
}

/// Total self time in milliseconds per layer.
#[must_use]
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer()).or_insert(0.0) += own[&s.id];
    }
    out
}

/// The spans as one JSON document.
#[must_use]
pub fn to_json(spans: &[Span]) -> String {
    let own = self_times(spans);
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\":{},\"parent\":{},\"name\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{},\"self_ms\":{}}}",
                s.id,
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                json_str(s.name),
                s.req,
                s.start_ns,
                s.end_ns,
                own[&s.id]
            )
        })
        .collect();
    format!("{{\"spans\":[\n{}\n]}}\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            req: 0,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "restart.cold", 0, 10_000_000),
            span(2, Some(1), "io.read", 1_000_000, 4_000_000),
            // Overlaps the first child: counted once.
            span(3, Some(1), "io.read", 3_000_000, 5_000_000),
            // Sticks out past the parent: clipped.
            span(4, Some(1), "serve.call", 9_000_000, 12_000_000),
        ];
        let own = self_times(&spans);
        assert!((own[&1] - 5.0).abs() < 1e-9);
        assert!((own[&2] - 3.0).abs() < 1e-9);
        let layers = self_ms_by_layer(&spans);
        assert!((layers["restart"] - 5.0).abs() < 1e-9);
        assert!((layers["io"] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("engine.walk", None, 1, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        t.span("solve.cg", None, 3, |id| {
            t.span("engine.walk", id, 3, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(to_json(&spans).contains("\"name\":\"engine.walk\""));
    }
}
