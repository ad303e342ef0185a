//! Serving on request workers over one executor, locked down
//! structurally: any number of workers calling one `PlanExecutor` — bare
//! or inside a compiled model — must never change computed bytes
//! (differential vs the sequential interpreter at workers 1/2/4 ×
//! lanes 1/2), a panicking request must cost the server nothing else,
//! and a recalibration — automatic mid-serving, or racing concurrent
//! `execute` calls — must swap the one executor in one generation while
//! every run stays bit-identical. The admission queue's conservation
//! proptest runs through the benchmark's constructor, in
//! `serving_sharded.rs`.
//!
//! Every assertion is structural (bit-equality, counters, conservation
//! laws), never wall-clock or overlap timing.

use korch::core::{Korch, KorchConfig};
use korch::cost::Device;
use korch::exec::{execute_plan, ExecError};
use korch::runtime::{
    BatchConfig, Model, PlanExecutor, RecalibrationPolicy, ResponseHandle, RuntimeConfig,
    ServeError, Server,
};
use korch::tensor::Tensor;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

mod common;
use common::{
    assert_bit_identical, await_progress, independent_plan, model_graph, op_random_inputs,
    prim_random_inputs,
};

fn workers(n: usize) -> BatchConfig {
    BatchConfig {
        shards: n,
        ..Default::default()
    }
}

/// Submits every payload at once, checks each answer against its
/// reference and returns the final statistics.
fn serve_burst(
    server: Server,
    burst: &[(Vec<Tensor>, Vec<Tensor>)],
    ctx: &str,
) -> korch::runtime::ServerStats {
    let handles: Vec<ResponseHandle> = burst
        .iter()
        .map(|(inputs, _)| server.submit(inputs.clone()))
        .collect();
    for (i, (h, (_, reference))) in handles.into_iter().zip(burst).enumerate() {
        let out = h.wait().expect("served response");
        assert_bit_identical(reference, &out, &format!("{ctx} request {i}"));
    }
    server.shutdown()
}

/// Request workers over one executor are bit-identical to the sequential
/// `execute_plan` interpreter at every workers × lanes combination, over
/// a mixed burst (consecutive requests carry different inputs) — once
/// over a bare `PlanExecutor`, once over a compiled model. The one executor's profile sees every
/// run and its one arena is back at zero live bytes.
#[test]
fn serving_is_bit_identical_to_execute_plan_at_every_workers_and_lanes() {
    let (g, plan) = independent_plan(6);
    let bare: Vec<(Vec<Tensor>, Vec<Tensor>)> = (0..12)
        .map(|seed| {
            let inputs = prim_random_inputs(&g, 100 + seed);
            let reference = execute_plan(&g, &plan, &inputs).unwrap();
            (inputs, reference)
        })
        .collect();
    let model = model_graph();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    for lanes in [1usize, 2] {
        let compiled = Arc::new(
            korch
                .compile_with(&model, &RuntimeConfig::with_lanes(lanes))
                .unwrap(),
        );
        let program = &compiled.partitions()[0];
        // 8 interleaved rounds over 3 distinct payloads.
        let payloads: Vec<(Vec<Tensor>, Vec<Tensor>)> = (0..3)
            .map(|seed| {
                let inputs = op_random_inputs(&model, 40 + seed);
                let reference = execute_plan(&program.graph, &program.plan, &inputs).unwrap();
                (inputs, reference)
            })
            .collect();
        let mixed: Vec<_> = (0..24).map(|i| payloads[i % 3].clone()).collect();
        for n in [1usize, 2, 4] {
            let ctx = format!("workers={n} lanes={lanes}");
            let exec =
                Arc::new(PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes)).unwrap());
            let server = Server::start(Arc::clone(&exec) as Arc<dyn Model>, workers(n));
            let stats = serve_burst(server, &bare, &format!("bare {ctx}"));
            assert_eq!(stats.requests, bare.len() as u64);
            assert_eq!(stats.errors, 0);
            assert_eq!(exec.profile().runs, bare.len() as u64, "{ctx}");
            assert_eq!(exec.arena_stats().live_bytes, 0, "{ctx}");

            let runs_before = compiled.profiles()[0].runs;
            let server = Server::start(Arc::clone(&compiled) as Arc<dyn Model>, workers(n));
            let stats = serve_burst(server, &mixed, &format!("compiled {ctx}"));
            assert_eq!(stats.requests, mixed.len() as u64);
            assert_eq!(stats.errors, 0);
            assert_eq!(
                compiled.profiles()[0].runs - runs_before,
                mixed.len() as u64,
                "{ctx}: every request ran once, on the one executor"
            );
            assert_eq!(compiled.arena_stats().live_bytes, 0, "{ctx}");
            assert_eq!(compiled.plan_generation(), 0);
        }
    }
}

/// A compiled model that panics on a marked request — after the executor
/// has run it, i.e. with the request's buffers through the arena.
struct Touchy {
    model: korch::core::CompiledModel,
}

/// First element of a request [`Touchy`] panics on.
const POISON: f32 = -12345.0;

impl Model for Touchy {
    fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        let out = self.model.execute(inputs)?;
        assert!(inputs[0].as_slice()[0] != POISON, "poisoned request");
        Ok(out)
    }
}

/// Fault containment on the long-lived request workers: poisoned and good
/// requests interleaved from three submitters over two workers on a
/// 2-lane compiled model. Every handle resolves exactly once — the
/// poisoned ones with the typed error, the good ones bit-identically —
/// the error count is exact, a request submitted after the last panic is
/// served, and the one arena is back at zero live bytes.
#[test]
fn a_panicking_request_costs_the_server_nothing_else() {
    let g = model_graph();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let good = op_random_inputs(&g, 4);
    let reference = korch.optimize(&g).unwrap().execute(&good).unwrap();
    let mut poisoned = good.clone();
    let mut first = poisoned[0].as_slice().to_vec();
    first[0] = POISON;
    poisoned[0] = Tensor::from_vec(poisoned[0].shape().to_vec(), first).unwrap();
    let touchy = Arc::new(Touchy {
        model: korch
            .compile_with(&g, &RuntimeConfig::with_lanes(2))
            .unwrap(),
    });
    let server = Server::start(Arc::clone(&touchy) as Arc<dyn Model>, workers(2));
    let (per_submitter, submitters) = (12u64, 3u64);
    let panicked: u64 = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..submitters)
            .map(|s| {
                let (server, good, poisoned, reference) = (&server, &good, &poisoned, &reference);
                scope.spawn(move || {
                    let mut panicked = 0;
                    for i in 0..per_submitter {
                        let poison = (i + s) % 3 == 0;
                        let inputs = if poison { poisoned } else { good };
                        match server.submit(inputs.clone()).wait() {
                            Ok(out) if !poison => assert_bit_identical(reference, &out, "good"),
                            Err(ServeError::Panicked(msg)) if poison => {
                                assert!(msg.contains("poisoned request"), "{msg}");
                                panicked += 1;
                            }
                            other => panic!("submitter {s} request {i}: {other:?}"),
                        }
                    }
                    panicked
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).sum()
    });
    assert_eq!(panicked, 12);
    let after = server.infer(good.clone()).expect("served after the panics");
    assert_bit_identical(&reference, &after, "after the panics");
    let stats = server.shutdown();
    assert_eq!(stats.requests, submitters * per_submitter + 1);
    assert_eq!(stats.errors, panicked);
    assert_eq!(touchy.model.arena_stats().live_bytes, 0);
}

/// Drift-triggered auto-recalibration over four workers on one compiled
/// model: every completed recalibration is one plan generation, and
/// serving stays bit-identical across the swaps.
#[test]
fn auto_recalibration_swaps_the_executor_mid_serving() {
    let g = model_graph();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let optimized = korch.optimize(&g).unwrap();
    let inputs = op_random_inputs(&g, 4);
    let reference = optimized.execute(&inputs).unwrap();
    let tuned = Arc::new(
        korch
            .compile_with(&g, &RuntimeConfig::with_lanes(2))
            .unwrap(),
    );
    let server = Server::start_tuned(
        Arc::clone(&tuned),
        BatchConfig {
            shards: 4,
            // CPU wall times dwarf simulated GPU micros, so drift is far
            // above this threshold: the trigger fires deterministically.
            recalibration: RecalibrationPolicy {
                every_n_requests: 4,
                model_error_threshold: 0.05,
            },
            ..Default::default()
        },
    );
    assert_eq!(tuned.plan_generation(), 0);
    // Serve in waves so drift checks interleave with background swaps.
    for wave in 0..8 {
        let handles: Vec<_> = (0..8).map(|_| server.submit(inputs.clone())).collect();
        for h in handles {
            let out = h.wait().expect("served response");
            assert_bit_identical(&reference, &out, &format!("wave {wave}"));
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.requests, 64);
    assert_eq!(stats.errors, 0);
    assert!(
        stats.recalibrations >= 1,
        "drift above threshold must trigger at least one auto-recalibration: {stats:?}"
    );
    assert_eq!(tuned.plan_generation(), stats.recalibrations);
    assert_eq!(tuned.arena_stats().live_bytes, 0);
    let out = tuned.execute(&inputs).unwrap();
    assert_bit_identical(&reference, &out, "after the last swap");
}

/// `recalibrate` (fit, re-orchestrate, re-stitch, compile, swap) racing
/// two threads that call `execute` without pause: every run — on the
/// executor before a swap, during it, or after — stays bit-identical,
/// each round moves the generation by exactly one, and after every round
/// the live executor, the pricing and the generation describe one plan.
#[test]
fn recalibration_racing_concurrent_executes_keeps_one_generation() {
    let g = model_graph();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let optimized = korch.optimize(&g).unwrap();
    let inputs = op_random_inputs(&g, 4);
    let reference = optimized.execute(&inputs).unwrap();
    let compiled = korch
        .compile_with(&g, &RuntimeConfig::with_lanes(2))
        .unwrap();
    let rounds = 4u64;
    let done = AtomicBool::new(false);
    let ran = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let racers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    while !done.load(Ordering::Acquire) {
                        let out = compiled.execute(&inputs).unwrap();
                        assert_bit_identical(&reference, &out, "racing run");
                        ran.fetch_add(1, Ordering::Release);
                    }
                })
            })
            .collect();
        for round in 0..rounds {
            // Every generation is raced before it is replaced.
            await_progress(&ran, ran.load(Ordering::Acquire));
            // Profile the live generation before fitting it.
            let out = compiled.execute(&inputs).unwrap();
            assert_bit_identical(&reference, &out, &format!("round {round}"));
            let report = compiled.recalibrate().unwrap();
            assert_eq!(compiled.plan_generation(), round + 1);
            let live = compiled.partitions();
            assert_eq!(live.len(), 1);
            assert_eq!(
                live[0].plan.latency_ms(),
                report.latency_ms,
                "round {round}: the live executor is not on the recalibrated plan"
            );
            assert_eq!(compiled.latency_ms(), report.latency_ms);
        }
        done.store(true, Ordering::Release);
        for racer in racers {
            racer.join().unwrap();
        }
    });
    assert!(ran.into_inner() >= rounds, "the racers never ran");
    assert_eq!(compiled.plan_generation(), rounds);
    assert_eq!(compiled.arena_stats().live_bytes, 0);
    let out = compiled.execute(&inputs).unwrap();
    assert_bit_identical(&reference, &out, "after the last swap");
}
