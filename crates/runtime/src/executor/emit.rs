//! What a run leaves behind for observers: per-lane interval logs, the
//! run's clock context, and the telemetry spans and gauges emitted from
//! them once the workers have joined.

use super::lock_recover;
use crate::profiler::KernelInterval;
use korch_cost::KernelClass;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Worker-thread-local profiling buffer, folded into the run's shared
/// log ([`RunCtx::merge`]) once per worker instead of one lock per kernel.
#[derive(Default)]
pub(super) struct LaneLog {
    pub(super) samples: Vec<KernelInterval>,
    pub(super) steals: u64,
    /// Times this lane actually parked (confirmed-empty sweep followed
    /// by an unchanged epoch re-check).
    pub(super) parks: u64,
}

/// This executor's view of a shared [`korch_telemetry::Telemetry`]
/// bundle: its process-style tag in the Chrome export plus pre-registered
/// metric handles (updating a handle is a single atomic — no registry
/// lookup after construction).
pub(super) struct ExecTelemetry {
    shared: Arc<korch_telemetry::Telemetry>,
    /// Chrome `pid` for this executor instance (0 is the serving layer).
    exec: u64,
    steals: korch_telemetry::Counter,
    parks: korch_telemetry::Counter,
    tile_tasks: korch_telemetry::Counter,
    tiled_kernels: korch_telemetry::Counter,
    /// Achieved throughput per kernel class (`executor.gflops.<class>`),
    /// in milli-GFLOP/s fixed point (gauges are integers), indexed like
    /// [`KernelClass::ALL`]. Refreshed by each run from its samples; a
    /// class that has not yet executed any FLOP-counted work stays at the
    /// registration default of 0.
    gflops: Vec<korch_telemetry::Gauge>,
}

impl ExecTelemetry {
    pub(super) fn new(shared: &Arc<korch_telemetry::Telemetry>) -> Self {
        let metrics = shared.metrics();
        Self {
            shared: Arc::clone(shared),
            exec: shared.next_exec_tag(),
            steals: metrics.counter("executor.steals"),
            parks: metrics.counter("executor.parks"),
            tile_tasks: metrics.counter("executor.tile_tasks"),
            tiled_kernels: metrics.counter("executor.tiled_kernels"),
            gflops: KernelClass::ALL
                .iter()
                .map(|c| metrics.gauge(&format!("executor.gflops.{}", c.name())))
                .collect(),
        }
    }

    /// Rebase one run's kernel/tile intervals onto the recorder's shared
    /// clock origin and record them as trace spans, stamped with the
    /// run's trace id; bump the run-level counters. Called once per run
    /// after the workers joined — never on the kernel hot path.
    pub(super) fn emit_run(&self, run: &RunCtx, log: &LaneLog, classes: &[(KernelClass, f64)]) {
        let rec = self.shared.recorder();
        // Per-kernel flags, indexed like `classes`.
        let mut tiled = vec![false; classes.len()];
        let mut counted = vec![false; classes.len()];
        let mut tiles = 0u64;
        // Achieved throughput per class: a kernel's FLOPs count once (its
        // tiles each compute a slice of the same work) against the summed
        // busy time of all its samples.
        let mut class_time = [0.0f64; KernelClass::ALL.len()];
        let mut class_flops = [0.0f64; KernelClass::ALL.len()];
        for s in &log.samples {
            let (class, flops) = classes[s.kernel];
            let ci = KernelClass::ALL.iter().position(|c| *c == class).unwrap();
            class_time[ci] += (s.end_us - s.start_us).max(0.0);
            if !std::mem::replace(&mut counted[s.kernel], true) {
                class_flops[ci] += flops;
            }
            let kind = match s.tile {
                Some(tile) => {
                    tiles += 1;
                    tiled[s.kernel] = true;
                    korch_telemetry::EventKind::Tile {
                        exec: self.exec,
                        run: run.run_id,
                        kernel: s.kernel,
                        lane: s.lane,
                        tile,
                    }
                }
                None => korch_telemetry::EventKind::Kernel {
                    exec: self.exec,
                    run: run.run_id,
                    kernel: s.kernel,
                    lane: s.lane,
                },
            };
            rec.record_at(
                s.lane,
                korch_telemetry::TraceEvent {
                    trace: run.trace,
                    start_us: run.origin_offset_us + s.start_us,
                    dur_us: (s.end_us - s.start_us).max(0.0),
                    kind,
                },
            );
        }
        self.steals.add(log.steals);
        self.parks.add(log.parks);
        self.tile_tasks.add(tiles);
        self.tiled_kernels
            .add(tiled.iter().filter(|t| **t).count() as u64);
        for (ci, gauge) in self.gflops.iter().enumerate() {
            if class_time[ci] > 0.0 && class_flops[ci] > 0.0 {
                // flops/µs is exactly milli-GFLOP/s.
                gauge.set((class_flops[ci] / class_time[ci]) as i64);
            }
        }
    }

    /// Record the arena's occupancy after a run settled (live bytes
    /// return to the pinned baseline; peak is the highwater).
    pub(super) fn emit_arena(&self, stats: &crate::arena::ArenaStats) {
        let rec = self.shared.recorder();
        rec.record(korch_telemetry::TraceEvent {
            trace: 0,
            start_us: rec.now_us(),
            dur_us: 0.0,
            kind: korch_telemetry::EventKind::ArenaHighwater {
                exec: self.exec,
                live_bytes: stats.live_bytes,
                peak_bytes: stats.peak_bytes,
            },
        });
    }
}

/// One `execute` call's profiling context. Every worker measures kernel
/// intervals against the *same* `origin` `Instant` — the clock-origin
/// invariant [`KernelInterval`] documents: per-lane origins would shift
/// lanes against each other on the trace timeline.
pub(super) struct RunCtx {
    pub(super) origin: Instant,
    /// Trace id of the request this run serves (read from the calling
    /// thread's [`korch_telemetry::current_trace`] once at run start, so
    /// tile tasks on worker threads inherit it without thread-locals);
    /// 0 when untraced.
    trace: korch_telemetry::TraceId,
    /// Run id namespacing this run's lane tracks in the Chrome export.
    run_id: u64,
    /// `origin`'s offset (µs) from the telemetry recorder's shared clock
    /// origin: captured back to back with `origin`, so per-run interval
    /// offsets rebase onto the one recorder timeline (sub-µs capture skew
    /// is far below the µs event resolution).
    origin_offset_us: f64,
    pub(super) log: Mutex<LaneLog>,
}

impl RunCtx {
    pub(super) fn new(telemetry: Option<&ExecTelemetry>) -> Self {
        let (trace, run_id, origin_offset_us) = match telemetry {
            Some(et) => (
                korch_telemetry::current_trace(),
                et.shared.next_run_id(),
                et.shared.recorder().now_us(),
            ),
            None => (0, 0, 0.0),
        };
        Self {
            origin: Instant::now(),
            trace,
            run_id,
            origin_offset_us,
            log: Mutex::new(LaneLog::default()),
        }
    }

    /// Folds a worker's local log into the run's shared one (one lock per
    /// worker per run; the run merges into the profile once).
    pub(super) fn merge(&self, log: LaneLog) {
        if !log.samples.is_empty() || log.steals > 0 || log.parks > 0 {
            let mut shared = lock_recover(&self.log);
            shared.samples.extend(log.samples);
            shared.steals += log.steals;
            shared.parks += log.parks;
        }
    }
}
