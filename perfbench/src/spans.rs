//! Spans recorded by the benchmark around its calls into each layer.
//! Spans stay in memory while the run lasts and are written out when it
//! ends; the untraced mode records nothing and only times.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::report::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The operation the span belongs to (a job, a replay, a figure).
    pub op: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { origin: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }
}

/// Per-name totals: how many spans, their summed duration, and their
/// summed self time (duration minus the part their children cover).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn record(&self, span: Span) {
        self.spans.lock().expect("a thread panicked while recording a span").push(span);
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("a thread panicked while recording a span").len()
    }

    /// Per-name totals with self time. Children run inside their
    /// parent on the parent's thread, so they never overlap each other.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let spans = self.spans.lock().expect("a thread panicked while recording a span");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                *child_ns.entry(parent).or_default() += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for span in spans.iter() {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name.clone()).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
        }
        totals
    }

    /// Every span, one JSON object each, in recording order.
    pub fn to_json(&self) -> Json {
        let spans = self.spans.lock().expect("a thread panicked while recording a span");
        Json::Arr(
            spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Num(s.id as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("op", Json::Num(s.op as f64)),
                        ("name", Json::str(s.name.as_str())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Where a timed call sits: the tracer (if tracing), its parent span
/// and the operation it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    pub tracer: Option<&'a Arc<Tracer>>,
    pub parent: Option<u64>,
    pub op: u64,
}

impl<'a> Ctx<'a> {
    pub fn root(tracer: Option<&'a Arc<Tracer>>) -> Self {
        Self { tracer, parent: None, op: 0 }
    }

    pub fn with_op(self, op: u64) -> Self {
        Self { op, ..self }
    }

    /// Runs `f`, timing it; when tracing, records it as a span named
    /// `name`. `f` receives the context its own children should use.
    pub fn time<T>(&self, name: &str, f: impl FnOnce(Ctx<'a>) -> T) -> (T, Duration) {
        let Some(tracer) = self.tracer else {
            let start = Instant::now();
            let out = f(*self);
            return (out, start.elapsed());
        };
        let id = tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = tracer.now_ns();
        let start = Instant::now();
        let out = f(Ctx { tracer: Some(tracer), parent: Some(id), op: self.op });
        let elapsed = start.elapsed();
        let end_ns = tracer.now_ns();
        tracer.record(Span {
            id,
            parent: self.parent,
            op: self.op,
            name: name.to_owned(),
            start_ns,
            end_ns,
        });
        (out, elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tracer = Arc::new(Tracer::default());
        Ctx::root(Some(&tracer)).time("parent", |ctx| {
            ctx.time("child", |_| std::thread::sleep(Duration::from_millis(20)));
        });
        let totals = tracer.totals();
        let (parent, child) = (totals["parent"], totals["child"]);
        assert_eq!(parent.total_ns - parent.self_ns, child.total_ns);
        assert!(child.self_ns >= 20_000_000);
        assert!(parent.self_ns < parent.total_ns / 2);
    }

    #[test]
    fn untraced_context_records_nothing() {
        let tracer = Tracer::default();
        let (value, _) = Ctx::root(None).time("x", |_| 7);
        assert_eq!(value, 7);
        assert_eq!(tracer.len(), 0);
    }
}
