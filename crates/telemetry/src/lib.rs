//! End-to-end tracing and metrics for the Korch runtime stack.
//!
//! Every layer of the runtime — request admission, queue wait, request
//! run, kernel/tile execution, arena highwater, recalibration — can
//! record typed [`TraceEvent`]s into one shared [`TraceRecorder`] and bump
//! handles from one shared [`MetricsRegistry`]. The [`Telemetry`] bundle
//! ties the two together with the id allocators that make one request's
//! lifecycle reconstructable across threads, executors and lanes:
//!
//! - **One monotonic origin.** The recorder owns a single
//!   [`Instant`](std::time::Instant); every event timestamp is a µs
//!   offset from it. Layers that keep their own per-run clock origin (the
//!   executor's `KernelInterval`s) rebase onto the recorder origin once
//!   per run, so spans from different runs and lanes land on one
//!   comparable timeline.
//! - **Per-request [`TraceId`]s.** Allocated at admission, carried through
//!   the serving thread via [`with_trace`]/[`current_trace`] thread-locals,
//!   read once per `execute` into the run context, and stamped on every
//!   kernel/tile span the run produces.
//! - **Bounded, allocation-free recording.** The recorder is a fixed set of
//!   fixed-capacity ring buffers (drop-oldest); [`TraceEvent`] is `Copy`, so
//!   recording never allocates. Telemetry is off when a host layer holds
//!   none (`telemetry: None`): that path is one `Option` check — no
//!   timestamps, no locks, no allocation.
//! - **Exporters.** [`chrome_trace_json`] renders a snapshot as Chrome
//!   trace-event JSON (loadable in `chrome://tracing` / Perfetto), and
//!   [`validate_chrome_trace`] structurally verifies an export (balanced
//!   B/E pairs, monotone timestamps, tile spans contained in their parent
//!   kernel spans) using the bundled dependency-free [`json`] parser.
//!   [`MetricsRegistry::snapshot`] produces the [`MetricsSnapshot`] that
//!   `ServerStats` embeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
pub mod json;
mod metrics;
mod trace;

pub use chrome::{chrome_trace_json, validate_chrome_trace, TraceCheck};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use trace::{
    current_trace, with_trace, EventKind, RecalPhase, TraceEvent, TraceId, TraceRecorder,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// First [`TraceId`] ever allocated. Ids below it are reserved for fixed
/// exporter tracks (recalibration, untraced row), so a trace id can double
/// as a Chrome `tid` without colliding with them.
pub const FIRST_TRACE_ID: TraceId = 16;

/// One tracing + metrics bundle shared by every layer of a runtime stack.
///
/// Cloned as `Arc<Telemetry>` into `RuntimeConfig` / `BatchConfig`; the
/// same instance must back the server and every executor so their events
/// share the recorder's clock origin.
pub struct Telemetry {
    recorder: TraceRecorder,
    metrics: MetricsRegistry,
    next_trace: AtomicU64,
    next_exec: AtomicU64,
    next_run: AtomicU64,
}

impl Telemetry {
    /// A bundle with the default recorder shape (8 rings × 4096 events).
    pub fn new() -> Self {
        Self::with_capacity(8, 4096)
    }

    /// A bundle whose recorder has `rings` ring buffers of `capacity`
    /// events each (both clamped to at least 1).
    pub fn with_capacity(rings: usize, capacity: usize) -> Self {
        Telemetry {
            recorder: TraceRecorder::new(rings, capacity),
            metrics: MetricsRegistry::new(),
            next_trace: AtomicU64::new(FIRST_TRACE_ID),
            next_exec: AtomicU64::new(1),
            next_run: AtomicU64::new(1),
        }
    }

    /// Convenience: a shareable handle to a fresh default bundle.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// The span recorder (shared clock origin, ring buffers).
    pub fn recorder(&self) -> &TraceRecorder {
        &self.recorder
    }

    /// The metrics registry (counters / gauges / histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Allocate a fresh per-request trace id (never 0, starts at
    /// [`FIRST_TRACE_ID`]).
    pub fn next_trace_id(&self) -> TraceId {
        self.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocate a process-style tag for one executor instance (never 0;
    /// tag 0 is the serving layer in the Chrome export).
    pub fn next_exec_tag(&self) -> u64 {
        self.next_exec.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocate an id for one `execute` call, namespacing its lane/kernel
    /// tracks in the Chrome export (concurrent runs on one executor must
    /// not share tracks).
    pub fn next_run_id(&self) -> u64 {
        self.next_run.fetch_add(1, Ordering::Relaxed)
    }

    /// Render the recorder's current snapshot as Chrome trace-event JSON.
    pub fn chrome_trace(&self) -> String {
        chrome_trace_json(&self.recorder.snapshot())
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("events", &self.recorder.len())
            .field("dropped", &self.recorder.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_allocators_are_unique_and_reserved_range_is_respected() {
        let t = Telemetry::new();
        let a = t.next_trace_id();
        let b = t.next_trace_id();
        assert!(a >= FIRST_TRACE_ID);
        assert_eq!(b, a + 1);
        assert_eq!(t.next_exec_tag(), 1);
        assert_eq!(t.next_exec_tag(), 2);
        assert_eq!(t.next_run_id(), 1);
    }

    #[test]
    fn end_to_end_snapshot_exports_valid_chrome_trace() {
        let t = Telemetry::new();
        let rec = t.recorder();
        let trace = t.next_trace_id();
        let exec = t.next_exec_tag();
        let run = t.next_run_id();
        let t0 = rec.now_us();
        rec.record(TraceEvent {
            trace,
            start_us: t0,
            dur_us: 0.0,
            kind: EventKind::Admitted { queue_depth: 1 },
        });
        rec.record(TraceEvent {
            trace,
            start_us: t0,
            dur_us: 5.0,
            kind: EventKind::QueueWait,
        });
        rec.record(TraceEvent {
            trace,
            start_us: t0 + 5.0,
            dur_us: 40.0,
            kind: EventKind::Request,
        });
        for tile in 0..2usize {
            rec.record(TraceEvent {
                trace,
                start_us: t0 + 10.0 + 3.0 * tile as f64,
                dur_us: 2.0,
                kind: EventKind::Tile {
                    exec,
                    run,
                    kernel: 0,
                    lane: tile,
                    tile,
                },
            });
        }
        let json = t.chrome_trace();
        let check = validate_chrome_trace(&json).expect("structurally valid");
        assert!(check.spans >= 4, "request, queue-wait, 2 tiles + parent");
        assert!(check.tile_spans == 2);
        assert!(json.contains("traceEvents"));
    }
}
