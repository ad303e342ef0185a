//! Typed trace events, the bounded ring-buffer recorder, and the
//! thread-local trace-id context.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-request trace identifier. `0` means "not tied to a request"
/// (executor warm-ups, background recalibration).
pub type TraceId = u64;

/// Which recalibration phase a [`EventKind::RecalPhase`] span covers,
/// declared in the order the phases run (the Chrome exporter ends each
/// phase where the next one starts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecalPhase {
    /// Fitting the cost-model calibration from the executor's profile.
    Fit,
    /// Re-orchestrating every partition with the fitted cost model.
    Replan,
    /// Swapping the freshly compiled executor in.
    Swap,
}

/// What a [`TraceEvent`] describes. Every variant is `Copy` so recording
/// never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A request entered the server queue (`queue_depth` includes it).
    Admitted {
        /// Queue depth immediately after admission.
        queue_depth: usize,
    },
    /// Span: admission → a request worker picked the request up.
    QueueWait,
    /// Span: the model ran this request.
    Request,
    /// Span: one untiled kernel execution (rebased `KernelInterval`).
    Kernel {
        /// Executor tag (Chrome `pid`).
        exec: u64,
        /// Run id namespacing this run's tracks.
        run: u64,
        /// Kernel index within the plan.
        kernel: usize,
        /// Stream lane that executed it.
        lane: usize,
    },
    /// Span: one tile of a split kernel (rebased `KernelInterval`).
    Tile {
        /// Executor tag (Chrome `pid`).
        exec: u64,
        /// Run id namespacing this run's tracks.
        run: u64,
        /// Kernel index within the plan.
        kernel: usize,
        /// Stream lane that executed the tile.
        lane: usize,
        /// Tile index within the kernel.
        tile: usize,
    },
    /// Arena occupancy sampled after a run settled.
    ArenaHighwater {
        /// Executor tag (Chrome `pid`).
        exec: u64,
        /// Live bytes after the run (0 when conservation holds).
        live_bytes: u64,
        /// Peak resident bytes so far.
        peak_bytes: u64,
    },
    /// Span: one phase of a recalibration, tagged with the plan generation
    /// it produced.
    RecalPhase {
        /// Which phase.
        phase: RecalPhase,
        /// Plan generation the recalibration swapped in.
        generation: u64,
    },
}

/// One recorded event: a span when `dur_us > 0` is meaningful for its
/// kind, an instant otherwise. `start_us` is a µs offset from the owning
/// recorder's origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Request trace id (`0` = not tied to a request).
    pub trace: TraceId,
    /// Start offset in µs from the recorder origin.
    pub start_us: f64,
    /// Duration in µs (`0.0` for instants).
    pub dur_us: f64,
    /// What happened.
    pub kind: EventKind,
}

/// Fixed-capacity event ring: pre-allocated, drop-oldest on overflow.
struct SpanRing {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Next overwrite position once the buffer is full.
    head: usize,
    dropped: u64,
}

impl SpanRing {
    fn new(capacity: usize) -> Self {
        SpanRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, event: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            // Overwrite the oldest event; `head` is the insertion-order
            // start of the ring.
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events in insertion order.
    fn drain_ordered(&self, out: &mut Vec<TraceEvent>) {
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
    }
}

/// Bounded span recorder: a fixed set of fixed-capacity ring buffers
/// sharing ONE monotonic clock origin.
///
/// Recording is one ring pick, one mutex lock and a `Copy` store — never
/// an allocation (each ring's buffer is pre-allocated). When full, the
/// oldest events are overwritten (drop-oldest) and counted in
/// [`TraceRecorder::dropped`]. Concurrent recorders spread over the rings:
/// layers with a natural lane index use [`TraceRecorder::record_at`];
/// everything else round-robins via [`TraceRecorder::record`].
pub struct TraceRecorder {
    origin: Instant,
    cursor: AtomicUsize,
    rings: Vec<Mutex<SpanRing>>,
}

impl TraceRecorder {
    /// A recorder with `rings` ring buffers of `capacity` events each
    /// (both clamped to at least 1), with origin = now.
    pub fn new(rings: usize, capacity: usize) -> Self {
        let rings = rings.max(1);
        let capacity = capacity.max(1);
        TraceRecorder {
            origin: Instant::now(),
            cursor: AtomicUsize::new(0),
            rings: (0..rings)
                .map(|_| Mutex::new(SpanRing::new(capacity)))
                .collect(),
        }
    }

    /// µs elapsed since the recorder's shared origin. All event offsets in
    /// one recorder are measured against this one clock.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Record one event into a round-robin-chosen ring.
    pub fn record(&self, event: TraceEvent) {
        let ring = self.cursor.fetch_add(1, Ordering::Relaxed) % self.rings.len();
        self.rings[ring].lock().unwrap().push(event);
    }

    /// Record one event into the ring for `lane` (modulo the ring count);
    /// lets per-lane emitters avoid cross-lane lock contention.
    pub fn record_at(&self, lane: usize, event: TraceEvent) {
        self.rings[lane % self.rings.len()]
            .lock()
            .unwrap()
            .push(event);
    }

    /// All currently buffered events, sorted by start offset.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for ring in &self.rings {
            ring.lock().unwrap().drain_ordered(&mut out);
        }
        out.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        out
    }

    /// Total events currently buffered.
    pub fn len(&self) -> usize {
        self.rings.iter().map(|r| r.lock().unwrap().buf.len()).sum()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten by drop-oldest since construction.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.lock().unwrap().dropped).sum()
    }

    /// Drop every buffered event (the drop counter is kept).
    pub fn clear(&self) {
        for ring in &self.rings {
            let mut ring = ring.lock().unwrap();
            ring.buf.clear();
            ring.head = 0;
        }
    }
}

thread_local! {
    static CURRENT_TRACE: Cell<TraceId> = const { Cell::new(0) };
}

/// Run `f` with `trace` as the current thread's trace id, restoring the
/// previous id afterwards (nesting-safe). The serving layer wraps each
/// request's model call in this; the executor reads the id once per run
/// via [`current_trace`].
pub fn with_trace<R>(trace: TraceId, f: impl FnOnce() -> R) -> R {
    let prev = CURRENT_TRACE.with(|c| c.replace(trace));
    // Restore on unwind too, so a panicking model run can't leak its trace
    // id into unrelated work on a reused thread.
    struct Restore(TraceId);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_TRACE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The current thread's trace id (`0` outside any [`with_trace`] scope).
pub fn current_trace() -> TraceId {
    CURRENT_TRACE.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start_us: f64) -> TraceEvent {
        TraceEvent {
            trace: 0,
            start_us,
            dur_us: 0.0,
            kind: EventKind::QueueWait,
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts_drops() {
        let rec = TraceRecorder::new(1, 4);
        for i in 0..7 {
            rec.record(ev(i as f64));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 4);
        let starts: Vec<f64> = snap.iter().map(|e| e.start_us).collect();
        assert_eq!(starts, vec![3.0, 4.0, 5.0, 6.0]);
        assert_eq!(rec.dropped(), 3);
    }

    #[test]
    fn record_never_grows_ring_allocation() {
        let rec = TraceRecorder::new(1, 8);
        for i in 0..100 {
            rec.record(ev(i as f64));
        }
        let ring = rec.rings[0].lock().unwrap();
        assert_eq!(ring.buf.capacity(), 8, "drop-oldest must never realloc");
        assert_eq!(ring.buf.len(), 8);
    }

    #[test]
    fn snapshot_is_sorted_across_rings() {
        let rec = TraceRecorder::new(3, 8);
        rec.record_at(2, ev(5.0));
        rec.record_at(0, ev(1.0));
        rec.record_at(1, ev(3.0));
        let starts: Vec<f64> = rec.snapshot().iter().map(|e| e.start_us).collect();
        assert_eq!(starts, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn now_us_is_monotone_from_one_origin() {
        let rec = TraceRecorder::new(1, 1);
        let a = rec.now_us();
        let b = rec.now_us();
        assert!(a >= 0.0 && b >= a);
    }

    #[test]
    fn trace_context_nests_and_restores() {
        assert_eq!(current_trace(), 0);
        let inner = with_trace(17, || {
            let mid = current_trace();
            let nested = with_trace(42, current_trace);
            (mid, nested, current_trace())
        });
        assert_eq!(inner, (17, 42, 17));
        assert_eq!(current_trace(), 0);
    }

    #[test]
    fn trace_context_restores_across_panic() {
        let caught = std::panic::catch_unwind(|| {
            with_trace(99, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(current_trace(), 0);
    }

    #[test]
    fn clear_empties_but_keeps_drop_count() {
        let rec = TraceRecorder::new(1, 2);
        for i in 0..3 {
            rec.record(ev(i as f64));
        }
        assert_eq!(rec.dropped(), 1);
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 1);
        rec.record(ev(9.0));
        assert_eq!(rec.len(), 1);
    }
}
