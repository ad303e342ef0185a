//! End-to-end observability acceptance: a 4-worker, 2-lane **tiled**
//! serving run with tracing enabled must export a Chrome trace-event
//! artifact in which at least one request is reconstructable end to end
//! by its `TraceId` — admission → queue wait → request → kernel → tiles
//! — verified both on the typed event stream and on the exported
//! JSON (which the structural validator must accept). With tracing
//! disabled the executor hot path must record nothing at all and keep
//! its outputs bit-identical.
//!
//! Runs on the 1-core CI container: every assertion is structural
//! (event presence, timestamp ordering on the shared clock, counters),
//! never wall-clock.

use korch::exec::execute_plan;
use korch::runtime::{BatchConfig, Model, PlanExecutor, ResponseHandle, RuntimeConfig, Server};
use korch::telemetry::{validate_chrome_trace, EventKind, Telemetry};
use std::sync::Arc;

mod common;
use common::{assert_bit_identical, independent_plan, prim_random_inputs};

/// Two lanes with a forced split threshold: the single-kernel plan below
/// always decomposes into row-range tiles, so every traced request
/// carries tile spans.
fn tiled_config(telemetry: Option<Arc<Telemetry>>) -> RuntimeConfig {
    RuntimeConfig {
        split_threshold_us: Some(0.0),
        telemetry,
        ..RuntimeConfig::with_lanes(2)
    }
}

#[test]
fn tiled_serving_exports_reconstructable_trace() {
    let (g, plan) = independent_plan(1);
    let inputs = prim_random_inputs(&g, 7);
    let reference = execute_plan(&g, &plan, &inputs).unwrap();
    let telemetry = Telemetry::shared();
    let exec = PlanExecutor::new(&g, &plan, tiled_config(Some(Arc::clone(&telemetry)))).unwrap();
    let server = Server::start(
        Arc::new(exec),
        BatchConfig {
            shards: 4,
            telemetry: Some(Arc::clone(&telemetry)),
            ..Default::default()
        },
    );
    let requests = 8u64;
    let handles: Vec<ResponseHandle> = (0..requests)
        .map(|_| server.submit(inputs.clone()))
        .collect();
    for h in handles {
        assert_bit_identical(&reference, &h.wait().expect("served response"), "traced");
    }
    let stats = server.shutdown();
    assert_eq!(stats.requests, requests);
    assert_eq!(stats.errors, 0);

    // The embedded registry snapshot spans both layers: serving
    // histograms and executor tile counters.
    let metrics = stats.metrics.as_ref().expect("telemetry was attached");
    assert_eq!(
        metrics
            .histogram("serving.queue_wait_us")
            .expect("queue-wait histogram")
            .count,
        requests,
        "every served request observes exactly one queue wait"
    );
    assert_eq!(
        metrics.gauge("serving.in_flight"),
        Some(0),
        "every request that went in flight came back out"
    );
    assert!(metrics.counter("executor.tile_tasks").unwrap_or(0) > 0);
    assert!(metrics.counter("executor.tiled_kernels").unwrap_or(0) > 0);

    // Typed-event side: at least one trace id must carry the full chain
    // admission → queue wait → request → tiles, in clock order
    // on the one shared origin. (A decomposed kernel's samples are all
    // tile-tagged; its whole-kernel span is synthesized by the exporter
    // and checked below via the validator's containment rule.)
    let events = telemetry.recorder().snapshot();
    // Four workers, one executor: every kernel and tile span carries the
    // one executor's tag.
    let mut execs: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Kernel { exec, .. } | EventKind::Tile { exec, .. } => Some(exec),
            _ => None,
        })
        .collect();
    execs.sort_unstable();
    execs.dedup();
    assert_eq!(
        execs.len(),
        1,
        "spans from more than one executor: {execs:?}"
    );
    let mut traced: Vec<u64> = events.iter().map(|e| e.trace).filter(|&t| t != 0).collect();
    traced.sort_unstable();
    traced.dedup();
    let full_chain = traced
        .iter()
        .copied()
        .find(|&t| {
            let of = |pred: &dyn Fn(&EventKind) -> bool| {
                events
                    .iter()
                    .find(|e| e.trace == t && pred(&e.kind))
                    .map(|e| e.start_us)
            };
            let Some(admitted) = of(&|k| matches!(k, EventKind::Admitted { .. })) else {
                return false;
            };
            let Some(wait) = of(&|k| matches!(k, EventKind::QueueWait)) else {
                return false;
            };
            let Some(request) = of(&|k| matches!(k, EventKind::Request)) else {
                return false;
            };
            let Some(tile) = of(&|k| matches!(k, EventKind::Tile { .. })) else {
                return false;
            };
            // Queue wait starts at admission; the model run (request
            // span) and the first tile land at or after pickup. Tile
            // offsets are rebased onto the shared origin from the
            // executor's own run clock, so allow a microsecond of
            // rebasing slack.
            admitted <= wait + 1e-9 && admitted <= request + 1e-9 && request <= tile + 1e-6
        })
        .expect("at least one request must be reconstructable end to end");

    // Exported artifact: structurally valid Chrome JSON that still
    // carries the reconstructed request, with tile spans nested inside
    // synthesized parent kernel spans (the validator enforces balance,
    // monotone timestamps and containment).
    let json = telemetry.chrome_trace();
    let check = validate_chrome_trace(&json).expect("exported trace must validate");
    assert!(check.spans > 0 && check.instants > 0);
    assert!(
        check.tile_spans > 0,
        "a tiled run must export tile spans: {check:?}"
    );
    assert!(
        check.trace_ids.contains(&full_chain),
        "the reconstructed request must survive export"
    );
}

#[test]
fn disabled_telemetry_records_nothing_and_keeps_outputs() {
    let (g, plan) = independent_plan(1);
    let inputs = prim_random_inputs(&g, 9);
    let reference = execute_plan(&g, &plan, &inputs).unwrap();

    // No hub at all: the executor carries no telemetry state.
    let exec = PlanExecutor::new(&g, &plan, tiled_config(None)).unwrap();
    assert_bit_identical(&reference, &exec.execute(&inputs).unwrap(), "untraced");

    // Hub attached but gated off: the enabled check is the only work —
    // the rings stay untouched (no events, no drops) while outputs and
    // the wall-time profile keep working.
    let telemetry = Telemetry::shared();
    telemetry.recorder().set_enabled(false);
    let gated = PlanExecutor::new(&g, &plan, tiled_config(Some(Arc::clone(&telemetry)))).unwrap();
    for _ in 0..3 {
        assert_bit_identical(&reference, &gated.execute(&inputs).unwrap(), "gated");
    }
    assert!(telemetry.recorder().is_empty());
    assert_eq!(telemetry.recorder().dropped(), 0);
    assert_eq!(gated.profile().runs, 3);

    // An untraced server reports no metrics snapshot.
    let server = Server::start(
        Arc::new(PlanExecutor::new(&g, &plan, tiled_config(None)).unwrap()) as Arc<dyn Model>,
        BatchConfig {
            shards: 2,
            ..Default::default()
        },
    );
    assert_bit_identical(
        &reference,
        &server.infer(inputs.clone()).expect("served"),
        "untraced server",
    );
    let stats = server.shutdown();
    assert!(stats.metrics.is_none());
}

/// What a multi-lane run leaves behind, now that the profile keeps no
/// interval window: one `Kernel` span per kernel per run, each on a lane
/// the caller asked for, all rebased onto the hub's one clock origin —
/// and the profile still sees one sample per kernel per run.
#[test]
fn executor_kernel_spans_cover_each_run_on_one_origin() {
    let (g, plan) = independent_plan(6);
    let inputs = prim_random_inputs(&g, 3);
    let telemetry = Telemetry::shared();
    let config = RuntimeConfig {
        telemetry: Some(Arc::clone(&telemetry)),
        ..RuntimeConfig::with_lanes(3)
    };
    let exec = PlanExecutor::new(&g, &plan, config).unwrap();
    let runs = 4u64;
    for _ in 0..runs {
        exec.execute(&inputs).unwrap();
    }
    let profile = exec.profile();
    assert_eq!(profile.runs, runs);
    assert!(profile.per_kernel.iter().all(|s| s.count == runs));
    let end_us = telemetry.recorder().now_us();
    let mut kernels_of_run: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
    for e in telemetry.recorder().snapshot() {
        if let EventKind::Kernel {
            run, kernel, lane, ..
        } = e.kind
        {
            assert!(lane < 3, "span on a lane nobody asked for: {e:?}");
            assert!(
                e.start_us >= 0.0 && e.dur_us >= 0.0 && e.start_us + e.dur_us <= end_us,
                "span off the shared timeline: {e:?}"
            );
            kernels_of_run.entry(run).or_default().push(kernel);
        }
    }
    assert_eq!(kernels_of_run.len() as u64, runs, "one span set per run");
    for (run, mut kernels) in kernels_of_run {
        kernels.sort_unstable();
        let every_kernel_once: Vec<usize> = (0..plan.kernel_count()).collect();
        assert_eq!(kernels, every_kernel_once, "run {run}");
    }
}
