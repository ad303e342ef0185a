//! Self-tuning serving end to end: compile a model onto the parallel
//! runtime, stand up the work-conserving server with four long-lived
//! request workers over the **one** compiled executor and a
//! drift-triggered recalibration policy, fire bursts of concurrent
//! clients, and watch the server re-fit its own cost model hands-free and
//! swap the executor in one atomic write — no `recalibrate()` call
//! anywhere in this file.
//!
//! The whole run is **traced**: one shared telemetry hub rides both the
//! serving layer and the executor, and at the end the example
//! exports a Chrome trace-event JSON artifact (load it in
//! `chrome://tracing` or Perfetto), validates it structurally, and
//! prints the metrics-registry snapshot embedded in the final stats.
//!
//! Run with: `cargo run --release --example serving`

use korch::core::{Korch, KorchConfig};
use korch::cost::Device;
use korch::ir::OpKind;
use korch::models::subgraphs::segformer_attention;
use korch::runtime::{BatchConfig, RecalibrationPolicy, RuntimeConfig, Server};
use korch::telemetry::{validate_chrome_trace, Telemetry};
use korch::tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Drift above this re-tunes the server; the hands-free run must end
/// below it.
const DRIFT_THRESHOLD: f64 = 0.5;

/// Request workers, all running the one executor.
const WORKERS: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Optimize + compile, bundled for self-tuning. `compile_tuned` runs
    //    the full Fig. 1 pipeline, stitches the partitions into one
    //    program, builds one parallel executor over it, and keeps the
    //    pipeline around so the model can re-orchestrate itself.
    // Segformer's efficient attention: its plan keeps several independent
    // kernels (q/k/v projections, attention, output), so more than one
    // lane has work — and its kernels are uniform enough that the
    // per-class calibration fit settles well under the drift threshold.
    let graph = segformer_attention(64, 64, 2);
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    // One telemetry hub for the whole stack: the serving layer and the
    // executor record onto the same clock origin and trace-id space. Generous ring capacity so a long hands-free run
    // keeps its most recent requests intact (rings drop oldest-first).
    let telemetry = Arc::new(Telemetry::with_capacity(8, 65536));
    let mut runtime = RuntimeConfig::with_lanes(4);
    runtime.telemetry = Some(Arc::clone(&telemetry));
    let tuned = Arc::new(korch.compile_tuned(&graph, &runtime)?);
    println!(
        "compiled: {} kernels, simulated {:.4} ms, {} partitions stitched into one program",
        tuned.model().kernel_count(),
        tuned.model().latency_ms(),
        tuned.model().stats().partitions,
    );
    let report = tuned.model().memory_report();
    println!(
        "memory:   peak {} KiB resident vs {} KiB allocate-everything ({:.0}% saved)",
        report.peak_resident_bytes / 1024,
        report.allocate_everything_bytes / 1024,
        report.savings() * 100.0,
    );

    // 2. Serve with an auto-recalibration policy: a request starts the
    //    moment one of the four request workers is free, and the worker
    //    whose completion is the 64th since the last check samples the
    //    model's drift
    //    (prediction error of the cost model the live plans were priced
    //    with, against the measured kernel profile) and re-tunes on a
    //    background thread when it exceeds the threshold. In-flight
    //    requests keep running across the atomic plan swap.
    let input_shapes: Vec<Vec<usize>> = graph
        .nodes()
        .iter()
        .filter_map(|n| match &n.kind {
            OpKind::Input { shape } => Some(shape.clone()),
            _ => None,
        })
        .collect();
    let server = Arc::new(Server::start_tuned(
        Arc::clone(&tuned),
        BatchConfig {
            recalibration: Some(RecalibrationPolicy {
                every_n_requests: 64,
                model_error_threshold: DRIFT_THRESHOLD,
            }),
            // Four requests in flight at most, all on the one executor:
            // each run arms its own run state, and every run books into
            // the one arena and the one profile the drift check reads.
            shards: WORKERS,
            telemetry: Some(Arc::clone(&telemetry)),
            ..BatchConfig::default()
        },
    ));
    let (submitted, answered) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    // Re-orchestrating under full serving load takes tens of seconds on a
    // busy single-core host, so the demo keeps traffic flowing until the
    // background recalibration lands (bounded by a generous deadline).
    let deadline = Instant::now() + Duration::from_secs(300);
    let mut bursts = 0u64;
    loop {
        bursts += 1;
        let clients: Vec<_> = (0..4)
            .map(|c| {
                let server = Arc::clone(&server);
                let shapes = input_shapes.clone();
                let (submitted, answered) = (Arc::clone(&submitted), Arc::clone(&answered));
                std::thread::spawn(move || {
                    for r in 0..8u64 {
                        let inputs: Vec<Tensor> = shapes
                            .iter()
                            .enumerate()
                            .map(|(i, s)| {
                                Tensor::random(
                                    s.clone(),
                                    bursts * 1000 + c * 100 + r * 10 + i as u64,
                                )
                            })
                            .collect();
                        submitted.fetch_add(1, Ordering::Relaxed);
                        let outputs = server.infer(inputs).expect("inference");
                        assert!(!outputs.is_empty());
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client thread");
        }
        let stats = server.stats();
        let settled = stats.recalibrations >= 1
            && stats.last_model_error.is_some_and(|e| e < DRIFT_THRESHOLD);
        if settled || Instant::now() >= deadline {
            break;
        }
    }

    // 3. One more request on the recalibrated plan — no restart needed —
    //    then stop the server. Shutdown joins the workers and any
    //    still-running background recalibration, so the final statistics
    //    below are quiescent (no retune can race the reads).
    let inputs: Vec<Tensor> = input_shapes
        .iter()
        .enumerate()
        .map(|(i, s)| Tensor::random(s.clone(), 999 + i as u64))
        .collect();
    submitted.fetch_add(1, Ordering::Relaxed);
    let outputs = server.infer(inputs)?;
    assert!(!outputs.is_empty());
    answered.fetch_add(1, Ordering::Relaxed);
    let server = Arc::try_unwrap(server).ok().expect("all clients joined");
    let stats = server.shutdown();

    // 4. Read back what the server did to itself.
    println!(
        "served:   {} requests ({} failed) over {} bursts",
        stats.requests, stats.errors, bursts,
    );
    println!(
        "latency:  p50 {:.2} ms, p95 {:.2} ms, throughput {:.1} req/s",
        stats.p50_latency_us / 1e3,
        stats.p95_latency_us / 1e3,
        stats.throughput_rps,
    );
    let steals: u64 = tuned.model().profiles().iter().map(|p| p.steals).sum();
    let calibration = tuned.model().applied_calibration();
    println!(
        "self-tuned: {} auto-recalibration(s); model error now {:.3} \
         (threshold {DRIFT_THRESHOLD}); calibration memory x{:.3e}, compute x{:.3e}",
        stats.recalibrations,
        stats.last_model_error.unwrap_or(f64::NAN),
        calibration.memory_scale,
        calibration.compute_scale,
    );
    println!("scheduler: {steals} tasks work-stolen across lanes");
    let arena = tuned.model().arena_stats();
    println!(
        "arena:    peak {} KiB resident in the one pool {WORKERS} workers share \
         ({} KiB live at the end)",
        arena.peak_bytes / 1024,
        arena.live_bytes / 1024,
    );

    // The acceptance bar for the hands-free loop: at least one automatic
    // recalibration fired and drift ended below the threshold.
    assert!(
        stats.recalibrations >= 1,
        "no automatic recalibration fired"
    );
    assert!(
        stats.last_model_error.is_some_and(|e| e < DRIFT_THRESHOLD),
        "model error did not settle below the threshold: {:?}",
        stats.last_model_error
    );
    // Conservation over the workers: every submission was answered
    // once, counted once, and none failed; every recalibration swapped
    // exactly one plan generation in; no buffer outlived its run.
    let submitted = submitted.load(Ordering::Relaxed);
    assert_eq!(answered.load(Ordering::Relaxed), submitted);
    assert_eq!(
        stats.requests, submitted,
        "every submission ran exactly once"
    );
    assert_eq!(stats.errors, 0);
    assert_eq!(
        tuned.model().plan_generation(),
        stats.recalibrations,
        "every recalibration must swap exactly one plan generation"
    );
    assert_eq!(arena.live_bytes, 0, "a run left buffers on the books");

    // 5. Export the whole run as a Chrome trace-event artifact and check
    //    it structurally: balanced span pairs, monotone timestamps, tile
    //    spans nested inside their parent kernel spans. The same
    //    validator runs in CI's release-test step.
    let trace = telemetry.chrome_trace();
    let trace_path = std::path::Path::new("target").join("serving_trace.json");
    std::fs::write(&trace_path, &trace)?;
    let check = validate_chrome_trace(&trace).map_err(|e| format!("invalid trace: {e}"))?;
    println!(
        "trace:    {} events ({} spans, {} instants, {} tile spans) across {} traced requests \
         -> {} ({} dropped oldest)",
        check.events,
        check.spans,
        check.instants,
        check.tile_spans,
        check.trace_ids.len(),
        trace_path.display(),
        telemetry.recorder().dropped(),
    );
    assert!(
        !check.trace_ids.is_empty(),
        "the trace must carry at least one reconstructable request"
    );
    let metrics = stats.metrics.as_ref().expect("telemetry was attached");
    let waits = metrics
        .histogram("serving.queue_wait_us")
        .expect("queue-wait histogram registered");
    println!(
        "metrics:  queue_wait mean {:.1} µs over {} waits; {} in flight at the end; \
         {} steals, {} tile tasks, {} retunes ok / {} failed",
        waits.mean(),
        waits.count,
        metrics.gauge("serving.in_flight").unwrap_or(0),
        metrics.counter("executor.steals").unwrap_or(0),
        metrics.counter("executor.tile_tasks").unwrap_or(0),
        metrics.counter("serving.retunes_ok").unwrap_or(0),
        metrics.counter("serving.retunes_failed").unwrap_or(0),
    );
    assert_eq!(
        waits.count, stats.requests,
        "every served request must observe one queue wait"
    );
    println!("served a final request on the self-tuned plan; all checks passed");
    Ok(())
}
