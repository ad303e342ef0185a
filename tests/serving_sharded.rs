//! The shard-named serving surface the end-to-end benchmark drives —
//! `Server::start_sharded`, `BatchConfig::shards`, `ServerStats::shards`,
//! `ShardControl` and `CompiledModel::shard_snapshots` — locked down as
//! what it is: names over one executor. `start_sharded` is
//! `Server::start`, `shards` is the worker count, the stats fold the
//! server's own counters into one entry, `set_shards` does nothing and a
//! snapshot is the one live program. Serving through these names must
//! stay bit-identical to the sequential interpreter (shards 1/2/4 ×
//! lanes 1/2), conserve every request under injected failures (each
//! handle resolves exactly once, nothing is retried or adopted), and a
//! recalibration racing `set_shards` must leave one program on one
//! generation. The tests go when ROADMAP item 1 deletes the names.
//!
//! Every assertion is structural (bit-equality, counters, conservation
//! laws), never wall-clock or overlap timing.

use korch::core::{Korch, KorchConfig};
use korch::cost::Device;
use korch::exec::{execute_plan, ExecError};
use korch::runtime::{
    BatchConfig, Model, PlanExecutor, ResponseHandle, RuntimeConfig, SelfTune, ServeError, Server,
    ServerStats, ShardControl, ShardStats,
};
use korch::tensor::Tensor;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

mod common;
use common::{
    assert_bit_identical, await_progress, independent_plan, model_graph, op_random_inputs,
    prim_random_inputs,
};

fn sharded(n: usize) -> BatchConfig {
    BatchConfig {
        shards: n,
        ..Default::default()
    }
}

/// The one `ServerStats::shards` entry a server with these counters
/// reports.
fn folded(served: u64, failures: u64) -> Vec<ShardStats> {
    vec![ShardStats {
        served,
        failures,
        adopted: 0,
    }]
}

/// Submits every payload at once, checks each answer against its
/// reference and returns the final statistics.
fn serve_burst(server: Server, burst: &[(Vec<Tensor>, Vec<Tensor>)], ctx: &str) -> ServerStats {
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

/// `Server::start_sharded` over a bare `PlanExecutor` is bit-identical
/// to the sequential `execute_plan` interpreter at every shards × lanes
/// combination, over a burst in which every request carries different
/// inputs. The stats fold into one entry, every request ran once on the
/// one executor, and its arena is back at zero live bytes.
#[test]
fn sharded_serving_is_bit_identical_to_execute_plan() {
    let (g, plan) = independent_plan(6);
    let burst: Vec<(Vec<Tensor>, Vec<Tensor>)> = (0..12)
        .map(|seed| {
            let inputs = prim_random_inputs(&g, 100 + seed);
            let reference = execute_plan(&g, &plan, &inputs).unwrap();
            (inputs, reference)
        })
        .collect();
    let sent = burst.len() as u64;
    for shards in [1usize, 2, 4] {
        for lanes in [1usize, 2] {
            let ctx = format!("shards={shards} lanes={lanes}");
            let exec =
                Arc::new(PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes)).unwrap());
            let server = Server::start_sharded(Arc::clone(&exec), sharded(shards)).unwrap();
            let stats = serve_burst(server, &burst, &ctx);
            assert_eq!(stats.requests, sent, "{ctx}");
            assert_eq!(stats.errors, 0, "{ctx}");
            assert_eq!(stats.shards, folded(sent, 0), "{ctx}");
            assert_eq!(exec.profile().runs, sent, "{ctx}");
            assert_eq!(exec.arena_stats().live_bytes, 0, "{ctx}");
        }
    }
}

/// `Server::start_sharded` over a compiled model at `shards: 4`
/// provisions no replica: the four workers share the one compiled
/// executor. A mixed burst is bit-identical to the optimizer's
/// interpreter, every request runs once on that executor, the snapshot
/// the benchmark reads is the live executor itself, `shard_stats` is
/// empty, and the one arena is back at zero live bytes.
#[test]
fn start_sharded_provisions_compiled_model_replicas() {
    let g = model_graph();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let optimized = korch.optimize(&g).unwrap();
    let compiled = Arc::new(
        korch
            .compile_with(&g, &RuntimeConfig::with_lanes(2))
            .unwrap(),
    );
    let payloads: Vec<(Vec<Tensor>, Vec<Tensor>)> = (0..3)
        .map(|seed| {
            let inputs = op_random_inputs(&g, 40 + seed);
            let reference = optimized.execute(&inputs).unwrap();
            (inputs, reference)
        })
        .collect();
    // 8 interleaved rounds over the 3 distinct payloads: a mixed burst.
    let mixed: Vec<_> = (0..24).map(|i| payloads[i % 3].clone()).collect();
    let runs_before = compiled.profiles()[0].runs;
    let server = Server::start_sharded(Arc::clone(&compiled), sharded(4)).unwrap();
    let stats = serve_burst(server, &mixed, "shards=4");
    assert_eq!(stats.requests, 24);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.shards, folded(24, 0));
    let snapshots = compiled.shard_snapshots();
    assert_eq!(snapshots.len(), 1, "one program, not one per shard");
    assert_eq!(snapshots[0].len(), 1, "one stitched program");
    assert!(
        Arc::ptr_eq(
            &snapshots[0][0].executor,
            &compiled.partitions()[0].executor
        ),
        "the snapshot is the live executor, not a copy"
    );
    assert_eq!(compiled.profiles()[0].runs - runs_before, 24);
    assert!(compiled.shard_stats().is_empty());
    assert_eq!(compiled.arena_stats().live_bytes, 0);
    assert_eq!(compiled.plan_generation(), 0);
}

/// Echoes its input unless the request's index (its payload) is set in
/// the failure mask; counts every call.
struct Flaky {
    mask: u32,
    calls: AtomicU64,
}

impl Model for Flaky {
    fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let i = inputs[0].as_slice()[0] as u32;
        if self.mask & (1 << i) != 0 {
            Err(ExecError::Input(format!("injected failure {i}")))
        } else {
            Ok(inputs.to_vec())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation on the admission queue under arbitrary (shards,
    /// requests, failure mask): every handle resolves exactly once with
    /// its own request's answer or its own injected error, every request
    /// runs exactly once (nothing is retried), `requests` equals the
    /// number submitted, `errors` the number injected, and the one
    /// `ServerStats::shards` entry balances against the handles.
    #[test]
    fn random_failure_masks_conserve_requests(
        n in 1usize..5,
        requests in 1usize..33,
        mask in 0u32..u32::MAX,
    ) {
        let model = Arc::new(Flaky { mask, calls: AtomicU64::new(0) });
        let server = Server::start_sharded(Arc::clone(&model), sharded(n)).unwrap();
        let handles: Vec<ResponseHandle> = (0..requests)
            .map(|i| server.submit(vec![Tensor::full(vec![2], i as f32)]))
            .collect();
        let injected = (0..requests).filter(|i| mask & (1 << i) != 0).count() as u64;
        let (mut oks, mut errs) = (0u64, 0u64);
        for (i, h) in handles.into_iter().enumerate() {
            match h.wait() {
                Ok(out) => {
                    prop_assert!(mask & (1 << i) == 0, "request {} was injected", i);
                    prop_assert_eq!(out[0].as_slice(), &[i as f32; 2]);
                    oks += 1;
                }
                Err(ServeError::Exec(e)) => {
                    prop_assert!(e.to_string().ends_with(&format!("failure {i}")), "{}", e);
                    errs += 1;
                }
                Err(other) => prop_assert!(false, "request {}: {:?}", i, other),
            }
        }
        let stats = server.shutdown();
        prop_assert_eq!(oks + errs, requests as u64);
        prop_assert_eq!(errs, injected);
        prop_assert_eq!(stats.requests, requests as u64);
        prop_assert_eq!(stats.errors, injected);
        prop_assert_eq!(model.calls.load(Ordering::SeqCst), requests as u64);
        prop_assert_eq!(stats.shards, folded(oks, errs));
    }
}

/// Wraps a real executor and fails for good once `remaining` runs are
/// spent: a failure that starts mid-burst.
struct FailAfter {
    inner: PlanExecutor,
    remaining: AtomicI64,
    calls: AtomicU64,
}

impl Model for FailAfter {
    fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if self.remaining.fetch_sub(1, Ordering::SeqCst) <= 0 {
            return Err(ExecError::Input("died mid-burst".into()));
        }
        self.inner.run(inputs)
    }
}

/// A model that starts failing mid-burst, served through `start_sharded`
/// on four workers: every request is answered exactly once — the healthy
/// runs bit-identically to the interpreter, the rest with their own
/// error — nothing is retried or adopted, the one `ServerStats::shards`
/// entry balances against the handles, and the executor's arena is back
/// at zero live bytes.
#[test]
fn mid_burst_shard_failure_conserves_every_request() {
    let (g, plan) = independent_plan(4);
    let inputs = prim_random_inputs(&g, 7);
    let reference = execute_plan(&g, &plan, &inputs).unwrap();
    let (healthy, sent) = (5u64, 32u64);
    let model = Arc::new(FailAfter {
        inner: PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(2)).unwrap(),
        remaining: AtomicI64::new(healthy as i64),
        calls: AtomicU64::new(0),
    });
    let server = Server::start_sharded(Arc::clone(&model), sharded(4)).unwrap();
    let handles: Vec<ResponseHandle> = (0..sent).map(|_| server.submit(inputs.clone())).collect();
    let (mut oks, mut errs) = (0u64, 0u64);
    for (i, h) in handles.into_iter().enumerate() {
        match h.wait() {
            Ok(out) => {
                assert_bit_identical(&reference, &out, &format!("request {i}"));
                oks += 1;
            }
            Err(ServeError::Exec(e)) => {
                assert!(e.to_string().ends_with("died mid-burst"), "{e}");
                errs += 1;
            }
            Err(other) => panic!("request {i}: {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(oks, healthy, "exactly the healthy runs succeed");
    assert_eq!(errs, sent - healthy);
    assert_eq!(stats.requests, sent);
    assert_eq!(stats.errors, errs);
    assert_eq!(stats.shards, folded(oks, errs));
    assert_eq!(model.calls.load(Ordering::SeqCst), sent, "nothing retried");
    assert_eq!(model.inner.profile().runs, healthy);
    assert_eq!(model.inner.arena_stats().live_bytes, 0);
}

/// Raises its flag when dropped, so a racing thread stops even when an
/// assertion on the main thread unwinds.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// `ShardControl::set_shards`, called without pause from another thread,
/// racing four `recalibrate` rounds: after every round the generation
/// moved by exactly one, the snapshot is the one program on the
/// recalibrated plan, the model's pricing agrees, and serving stays
/// bit-identical.
#[test]
fn recalibration_racing_set_shards_keeps_one_generation() {
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
    let resized = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let resizer = scope.spawn(|| {
            for width in [3usize, 1, 4, 2].into_iter().cycle() {
                if done.load(Ordering::Acquire) {
                    break;
                }
                compiled.set_shards(width).unwrap();
                resized.fetch_add(1, Ordering::Release);
            }
        });
        let stop = StopOnDrop(&done);
        for round in 0..rounds {
            await_progress(&resized, resized.load(Ordering::Acquire));
            // Profile the live generation before fitting it.
            for _ in 0..2 {
                let out = compiled.execute(&inputs).unwrap();
                assert_bit_identical(&reference, &out, &format!("round {round}"));
            }
            let report = compiled.recalibrate().unwrap();
            assert_eq!(compiled.plan_generation(), round + 1);
            let snapshots = compiled.shard_snapshots();
            assert_eq!(snapshots.len(), 1, "round {round}: one program");
            assert_eq!(snapshots[0].len(), 1, "one stitched program");
            assert_eq!(
                snapshots[0][0].plan.latency_ms(),
                report.latency_ms,
                "round {round}: the snapshot is not on the recalibrated plan"
            );
            assert_eq!(compiled.latency_ms(), report.latency_ms);
            assert!(compiled.shard_stats().is_empty());
        }
        drop(stop);
        resizer.join().unwrap();
    });
    assert!(resized.into_inner() >= rounds, "the resizer never ran");
    assert_eq!(compiled.plan_generation(), rounds);
    assert_eq!(compiled.arena_stats().live_bytes, 0);
    let out = compiled.execute(&inputs).unwrap();
    assert_bit_identical(&reference, &out, "after the last swap");
}

/// The server's replan path — `SelfTune::retune` on a compiled model —
/// racing a thread that calls `set_shards` and reads a snapshot without
/// pause: no snapshot ever holds more than one program, and within each
/// the plan it reports is the plan its executor runs (never one
/// generation's plan beside another's executor). After every round the
/// generation moved by exactly one and serving stays bit-identical.
#[test]
fn replan_racing_set_shards_never_forks_generations() {
    let g = model_graph();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let optimized = korch.optimize(&g).unwrap();
    let inputs = op_random_inputs(&g, 4);
    let reference = optimized.execute(&inputs).unwrap();
    let model = korch
        .compile_with(&g, &RuntimeConfig::with_lanes(2))
        .unwrap();
    let rounds = 4u64;
    let done = AtomicBool::new(false);
    let watched = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            for width in [4usize, 1, 3, 2].into_iter().cycle() {
                if done.load(Ordering::Acquire) {
                    break;
                }
                model.set_shards(width).unwrap();
                let snapshots = model.shard_snapshots();
                assert_eq!(snapshots.len(), 1, "a snapshot forked");
                assert_eq!(snapshots[0].len(), 1, "one stitched program");
                let program = &snapshots[0][0];
                assert_eq!(
                    program.plan.latency_ms(),
                    program.executor.plan().latency_ms(),
                    "a snapshot mixed two generations"
                );
                watched.fetch_add(1, Ordering::Release);
            }
        });
        let stop = StopOnDrop(&done);
        for round in 0..rounds {
            await_progress(&watched, watched.load(Ordering::Acquire));
            let out = model.execute(&inputs).unwrap();
            assert_bit_identical(&reference, &out, &format!("round {round}"));
            let outcome = model.retune().unwrap();
            assert!(outcome.model_error_after.is_finite(), "round {round}");
            assert_eq!(model.plan_generation(), round + 1);
            let live = model.partitions();
            assert_eq!(live[0].executor.plan().latency_ms(), model.latency_ms());
        }
        drop(stop);
        watcher.join().unwrap();
    });
    assert!(watched.into_inner() >= rounds, "the watcher never ran");
    assert_eq!(model.plan_generation(), rounds);
    assert_eq!(model.arena_stats().live_bytes, 0);
    let out = model.execute(&inputs).unwrap();
    assert_bit_identical(&reference, &out, "after the last swap");
}
