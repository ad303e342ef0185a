//! Benchmark-side spans around the calls into each crate. No crate is
//! edited: a span opens before the benchmark calls a public function and
//! closes when it returns. Spans stay in memory until the workload ends and
//! are then written out in Chrome trace format.

use korch::telemetry::json::escape;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_us: f64,
    /// `None` while the span is open.
    end_us: Option<f64>,
    parent: Option<SpanId>,
    /// Spans of one request share this.
    request: Option<u64>,
    thread: usize,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    threads: Vec<ThreadId>,
}

/// Collects spans from any thread on one clock.
pub struct Tracer {
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The instant every span is timed from, for code that stamps on this
    /// clock without holding the tracer.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Microseconds since the tracer was made.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a thread panicked while recording a span")
    }

    fn push(
        &self,
        name: &str,
        start_us: f64,
        end_us: Option<f64>,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        let me = std::thread::current().id();
        let mut inner = self.lock();
        let thread = match inner.threads.iter().position(|t| *t == me) {
            Some(i) => i,
            None => {
                inner.threads.push(me);
                inner.threads.len() - 1
            }
        };
        inner.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us,
            parent,
            request,
            thread,
        });
        inner.spans.len() - 1
    }

    /// Records a span whose ends were stamped elsewhere (a request's wait in
    /// the server's queue is known only once the model shim saw it).
    pub fn record(
        &self,
        name: &str,
        start_us: f64,
        end_us: f64,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        self.push(name, start_us, Some(end_us), parent, request)
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent its own
    /// spans on.
    pub fn scope<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        request: Option<u64>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.push(name, self.now_us(), None, parent, request);
        let out = f(id);
        let end = self.now_us();
        self.lock().spans[id].end_us = Some(end);
        out
    }

    /// Summed duration, ms, of every closed span with this name.
    pub fn total_ms(&self, name: &str) -> f64 {
        let inner = self.lock();
        inner
            .spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| Some(s.end_us? - s.start_us))
            .sum::<f64>()
            / 1e3
    }

    /// Closed spans with this name.
    pub fn count(&self, name: &str) -> usize {
        let inner = self.lock();
        inner
            .spans
            .iter()
            .filter(|s| s.name == name && s.end_us.is_some())
            .count()
    }

    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): complete
    /// events, with the span's id, parent and request in `args`.
    pub fn chrome_json(&self) -> String {
        let inner = self.lock();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for (id, s) in inner.spans.iter().enumerate() {
            let Some(end) = s.end_us else { continue };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{id}",
                escape(&s.name),
                s.start_us,
                end - s.start_us,
                s.thread
            ));
            if let Some(p) = s.parent {
                out.push_str(&format!(",\"parent\":{p}"));
            }
            if let Some(r) = s.request {
                out.push_str(&format!(",\"request\":{r}"));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use korch::telemetry::json::parse;

    #[test]
    fn spans_nest_and_export() {
        let t = Tracer::new();
        let outer = t.scope("outer", None, Some(7), |outer| {
            t.scope("inner", Some(outer), Some(7), |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
            outer
        });
        let late = t.record("stamped \"late\"", 10.0, 30.0, Some(outer), None);
        assert_eq!((outer, late, t.len()), (0, 2, 3));
        assert!(t.total_ms("inner") >= 2.0);
        assert!(t.total_ms("outer") >= t.total_ms("inner"));
        assert_eq!((t.count("inner"), t.count("missing")), (1, 0));
        assert_eq!(t.total_ms("stamped \"late\""), 0.02);

        let json = parse(&t.chrome_json()).expect("the export is JSON");
        let events = json.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 3);
        let inner = &events[1];
        assert_eq!(inner.get("name").and_then(|n| n.as_str()), Some("inner"));
        let args = inner.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(args.get("request").and_then(|p| p.as_u64()), Some(7));
        assert_eq!(
            events[2].get("name").and_then(|n| n.as_str()),
            Some("stamped \"late\"")
        );
    }
}
