//! Sharded serving, locked down structurally: replicating one plan
//! across N `PlanExecutor`s behind the least-loaded router must never
//! change computed bytes (differential vs the sequential interpreter at
//! shards 1/2/4 × lanes 1/2), must conserve every request under induced
//! shard failures (none lost, none duplicated — each request is served
//! by exactly one shard or fails exactly once), and a recalibration —
//! automatic mid-serving, or racing a `set_shards` — must swap **all**
//! shards to the new plan in one generation.
//!
//! Runs on the 1-core CI container: every assertion is structural
//! (bit-equality, counters, conservation laws), never wall-clock or
//! overlap timing.

use korch::core::{Korch, KorchConfig};
use korch::cost::{Device, Micros};
use korch::exec::{execute_plan, ExecError};
use korch::runtime::{
    BatchConfig, Model, RecalibrationPolicy, ResponseHandle, RuntimeConfig, Server, ShardControl,
    ShardSet, ShardedExecutor,
};
use korch::tensor::Tensor;
use proptest::prelude::*;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

mod common;
use common::{
    assert_bit_identical, independent_plan, model_graph, op_random_inputs, prim_random_inputs,
};

fn burst_config() -> BatchConfig {
    BatchConfig {
        max_batch: 4,
        ..Default::default()
    }
}

/// Sharded serving is bit-identical to the sequential `execute_plan`
/// interpreter at every shards × lanes combination, over a mixed burst
/// (every request carries different inputs).
#[test]
fn sharded_serving_is_bit_identical_to_execute_plan() {
    let (g, plan) = independent_plan(6);
    let bursts: Vec<(Vec<Tensor>, Vec<Tensor>)> = (0..12)
        .map(|seed| {
            let inputs = prim_random_inputs(&g, 100 + seed);
            let reference = execute_plan(&g, &plan, &inputs).unwrap();
            (inputs, reference)
        })
        .collect();
    for shards in [1usize, 2, 4] {
        for lanes in [1usize, 2] {
            let exec = Arc::new(
                ShardedExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes), shards).unwrap(),
            );
            assert_eq!(exec.shard_count(), shards);
            let server = Server::start(Arc::clone(&exec) as Arc<dyn Model>, burst_config());
            let handles: Vec<ResponseHandle> = bursts
                .iter()
                .map(|(inputs, _)| server.submit(inputs.clone()))
                .collect();
            for (h, (_, reference)) in handles.into_iter().zip(&bursts) {
                let out = h.wait().expect("served response");
                assert_bit_identical(reference, &out, &format!("shards={shards} lanes={lanes}"));
            }
            let stats = server.shutdown();
            assert_eq!(stats.requests, bursts.len() as u64);
            assert_eq!(stats.errors, 0);
            // Exactly-once serving: each request ran on exactly one shard,
            // and the aggregate (merged) profile saw every run.
            let shard_stats = exec.shard_stats();
            assert_eq!(shard_stats.len(), shards);
            assert_eq!(
                shard_stats.iter().map(|s| s.served).sum::<u64>(),
                bursts.len() as u64
            );
            assert_eq!(shard_stats.iter().map(|s| s.failures).sum::<u64>(), 0);
            assert_eq!(exec.profile().runs, bursts.len() as u64);
            if shards > 1 {
                assert!(
                    shard_stats.iter().all(|s| s.served > 0),
                    "the rotating tie-break must spread a serialized burst: {shard_stats:?}"
                );
            }
        }
    }
}

/// The `BatchConfig::shards` knob end to end over a compiled model:
/// `Server::start_sharded` provisions the replicas, serving stays
/// bit-identical to the interpreter, and `ServerStats::shards` reports
/// per-shard conservation.
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
    let bursts: Vec<(Vec<Tensor>, Vec<Tensor>)> = (0..3)
        .map(|seed| {
            let inputs = op_random_inputs(&g, 40 + seed);
            let reference = optimized.execute(&inputs).unwrap();
            (inputs, reference)
        })
        .collect();
    let server = Server::start_sharded(
        Arc::clone(&compiled),
        BatchConfig {
            shards: 4,
            ..burst_config()
        },
    )
    .expect("shard provisioning succeeds");
    assert_eq!(compiled.shard_count(), 4);
    // 8 interleaved rounds over the 3 distinct payloads: a mixed burst.
    let handles: Vec<(usize, ResponseHandle)> = (0..24)
        .map(|i| {
            (
                i % bursts.len(),
                server.submit(bursts[i % bursts.len()].0.clone()),
            )
        })
        .collect();
    for (which, h) in handles {
        let out = h.wait().expect("served response");
        assert_bit_identical(&bursts[which].1, &out, &format!("payload {which}"));
    }
    let stats = server.shutdown();
    assert_eq!(stats.requests, 24);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.shards.len(), 4, "stats must surface all shards");
    assert_eq!(stats.shards.iter().map(|s| s.served).sum::<u64>(), 24);
    assert!(
        stats.shards.iter().all(|s| s.served > 0 && s.live),
        "every shard must take traffic: {:?}",
        stats.shards
    );
}

/// Echo replica with an induced permanent failure flag.
struct Replica {
    fail: bool,
    calls: AtomicU64,
}

impl Model for Replica {
    fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if self.fail {
            Err(ExecError::Input("induced shard failure".into()))
        } else {
            Ok(inputs.to_vec())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation law under arbitrary (shard count, request count,
    /// failure mask) combinations: every request resolves exactly once,
    /// is served by exactly one shard (or fails after all were tried),
    /// responses never cross requests, and no response is lost or
    /// duplicated — even with every shard failing.
    #[test]
    fn random_failure_masks_conserve_requests(
        shards in 1usize..5,
        requests in 1usize..33,
        mask in 0u32..16,
    ) {
        let replicas: Vec<Arc<Replica>> = (0..shards)
            .map(|s| Arc::new(Replica {
                fail: mask & (1 << s) != 0,
                calls: AtomicU64::new(0),
            }))
            .collect();
        let set = Arc::new(ShardSet::new(
            replicas.iter().map(|r| Arc::clone(r) as Arc<dyn Model>).collect(),
        ));
        let server = Server::start(Arc::clone(&set) as Arc<dyn Model>, BatchConfig {
            max_batch: 4,
            ..Default::default()
        });
        let handles: Vec<ResponseHandle> = (0..requests)
            .map(|i| server.submit(vec![Tensor::full(vec![2], i as f32)]))
            .collect();
        let mut oks = 0u64;
        let mut errs = 0u64;
        for (i, h) in handles.into_iter().enumerate() {
            match h.wait() {
                Ok(out) => {
                    // The response must answer *this* request.
                    prop_assert_eq!(out[0].as_slice(), &[i as f32; 2]);
                    oks += 1;
                }
                Err(_) => errs += 1,
            }
        }
        let stats = server.shutdown();
        // Nothing lost: every submission resolved exactly once.
        prop_assert_eq!(oks + errs, requests as u64);
        let all_masked = (0..shards).all(|s| mask & (1 << s) != 0);
        if all_masked {
            prop_assert_eq!(oks, 0);
        } else {
            // At least one healthy sibling exists: retry-on-sibling must
            // rescue every request.
            prop_assert_eq!(errs, 0, "lost requests with a healthy shard present");
        }
        prop_assert_eq!(stats.requests, requests as u64);
        prop_assert_eq!(stats.errors, errs);
        // Nothing duplicated: successful servings across shards equal the
        // delivered successes, masked shards never served, and every
        // model call is on the router's books.
        let shard_stats = set.shard_stats();
        prop_assert_eq!(shard_stats.iter().map(|s| s.served).sum::<u64>(), oks);
        for (s, (replica, stat)) in replicas.iter().zip(&shard_stats).enumerate() {
            prop_assert_eq!(
                replica.calls.load(Ordering::SeqCst),
                stat.served + stat.failures,
                "shard {} ran off the books", s
            );
            if mask & (1 << s) != 0 {
                prop_assert_eq!(stat.served, 0);
            } else {
                prop_assert_eq!(stat.failures, 0);
            }
        }
    }
}

/// Wraps a real executor and fails permanently after `healthy_runs` —
/// the induced *mid-burst* shard failure.
struct FailAfter {
    inner: Arc<dyn Model>,
    remaining: AtomicI64,
}

impl Model for FailAfter {
    fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        if self.remaining.fetch_sub(1, Ordering::SeqCst) <= 0 {
            return Err(ExecError::Input("shard died mid-burst".into()));
        }
        self.inner.run(inputs)
    }
}

/// A shard dying mid-burst over real `PlanExecutor` replicas: every
/// request is still answered (adopted by a live sibling), every response
/// stays bit-identical to the interpreter, and the router's books
/// balance — failures on the dead shard equal adoptions elsewhere.
#[test]
fn mid_burst_shard_failure_conserves_every_request() {
    let (g, plan) = independent_plan(4);
    let inputs = prim_random_inputs(&g, 7);
    let reference = execute_plan(&g, &plan, &inputs).unwrap();
    let config = RuntimeConfig::with_lanes(2);
    let mut replicas: Vec<Arc<dyn Model>> = (0..3)
        .map(|_| {
            Arc::new(korch::runtime::PlanExecutor::new(&g, &plan, config.clone()).unwrap())
                as Arc<dyn Model>
        })
        .collect();
    // Shard 3 serves two runs, then dies for good.
    replicas.push(Arc::new(FailAfter {
        inner: Arc::new(korch::runtime::PlanExecutor::new(&g, &plan, config.clone()).unwrap()),
        remaining: AtomicI64::new(2),
    }));
    let set = Arc::new(ShardSet::new(replicas));
    let server = Server::start(Arc::clone(&set) as Arc<dyn Model>, burst_config());
    // The router claims the least-loaded shard, the lowest index on a
    // tie, so whether a burst is deep enough to reach shard 3 three times
    // is the host's business: burst until it has died and been claimed
    // again.
    let mut sent = 0u64;
    while set.shard_stats()[3].failures == 0 {
        assert!(sent < 32 * 200, "the dying shard was never claimed");
        let handles: Vec<ResponseHandle> = (0..32).map(|_| server.submit(inputs.clone())).collect();
        for (i, h) in handles.into_iter().enumerate() {
            let out = h
                .wait()
                .expect("every request must survive the shard death");
            assert_bit_identical(&reference, &out, &format!("request {}", sent + i as u64));
        }
        sent += 32;
    }
    let stats = server.shutdown();
    assert_eq!(stats.requests, sent);
    assert_eq!(stats.errors, 0, "failures must be absorbed by siblings");
    let shard_stats = set.shard_stats();
    assert_eq!(shard_stats.iter().map(|s| s.served).sum::<u64>(), sent);
    let dead = &shard_stats[3];
    assert_eq!(dead.served, 2, "the dying shard served its healthy runs");
    assert!(
        dead.failures > 0,
        "the dead shard must have been claimed again"
    );
    // Each failed claim was adopted by exactly one sibling.
    assert_eq!(
        shard_stats.iter().map(|s| s.adopted).sum::<u64>(),
        dead.failures,
        "router books must balance: {shard_stats:?}"
    );
}

/// Drift-triggered auto-recalibration over a 4-shard tuned server: the
/// swap must update all shards in one generation while serving stays
/// bit-identical.
#[test]
fn auto_recalibration_swaps_all_shards_mid_serving() {
    let g = model_graph();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let optimized = korch.optimize(&g).unwrap();
    let inputs = op_random_inputs(&g, 4);
    let reference = optimized.execute(&inputs).unwrap();
    let tuned = Arc::new(
        korch
            .compile_tuned(&g, &RuntimeConfig::with_lanes(2))
            .unwrap(),
    );
    let server = Server::start_tuned_sharded(
        Arc::clone(&tuned),
        BatchConfig {
            max_batch: 4,
            shards: 4,
            // CPU wall times dwarf simulated GPU micros, so drift is far
            // above this threshold: the trigger fires deterministically.
            recalibration: Some(RecalibrationPolicy {
                every_n_requests: 4,
                model_error_threshold: 0.05,
            }),
            ..Default::default()
        },
    )
    .expect("shard provisioning succeeds");
    assert_eq!(tuned.model().shard_count(), 4);
    assert_eq!(tuned.model().plan_generation(), 0);
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
    // Every completed recalibration re-planned *all* shards atomically:
    // the shard set survived the swaps at the same width, on a bumped
    // plan generation.
    assert_eq!(tuned.model().shard_count(), 4);
    assert_eq!(tuned.model().plan_generation(), stats.recalibrations);
    assert_eq!(stats.shards.len(), 4);
    assert_eq!(stats.shards.iter().map(|s| s.failures).sum::<u64>(), 0);
    // The post-swap shard set keeps serving the same bytes.
    let out = tuned.model().execute(&inputs).unwrap();
    assert_bit_identical(&reference, &out, "post-shutdown sharded run");
}

/// `ShardedExecutor::replan` racing `set_shards`, released together by a
/// barrier every round: whichever lands first, afterwards the width is
/// the one asked for, the generation moved by exactly one, and **every**
/// shard runs the re-planned program — never a set forked across
/// generations (a replica of the old plan beside the new one).
#[test]
fn replan_racing_set_shards_never_forks_generations() {
    let (g, plan) = independent_plan(3);
    let inputs = prim_random_inputs(&g, 5);
    let reference = execute_plan(&g, &plan, &inputs).unwrap();
    let config = RuntimeConfig::with_lanes(2);
    let exec = ShardedExecutor::new(&g, &plan, config.clone(), 2).unwrap();
    let widths = [4usize, 1, 3, 3, 2, 5, 1, 2];
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        let resizer = scope.spawn(|| {
            for &width in &widths {
                start.wait();
                exec.set_shards(width).unwrap();
                start.wait();
            }
        });
        for (round, &width) in widths.iter().enumerate() {
            // Each generation's program is told apart by its price tag.
            let mut repriced = plan.clone();
            repriced.total_latency = Micros(1000.0 + round as f64);
            start.wait();
            let generation = exec.replan(&g, &repriced, config.clone()).unwrap();
            start.wait();
            assert_eq!(generation, round as u64 + 1);
            assert_eq!(exec.generation(), generation);
            let shards = exec.shards();
            assert_eq!(shards.len(), width, "round {round}: width was reverted");
            for (s, shard) in shards.iter().enumerate() {
                assert_eq!(
                    shard.plan().total_latency,
                    repriced.total_latency,
                    "round {round}: shard {s} runs a superseded plan"
                );
            }
            let out = exec.run(&inputs).unwrap();
            assert_bit_identical(&reference, &out, &format!("round {round}"));
        }
        resizer.join().unwrap();
    });
    // One run per round, on the books across every swap and resize that
    // kept its shard.
    let served: u64 = exec.shard_stats().iter().map(|s| s.served).sum();
    assert!(served <= widths.len() as u64);
    assert!(exec.shard_stats().iter().all(|s| s.failures == 0));
}

/// The same race through a compiled model: `recalibrate` (fit,
/// re-orchestrate, re-stitch, `ShardedExecutor::replan`) against a
/// concurrent `set_shards`. After every round all shards are on the plan
/// generation the model's pricing describes, at the requested width, and
/// serving stays bit-identical.
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
    let widths = [3usize, 1, 4, 2];
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        let resizer = scope.spawn(|| {
            for &width in &widths {
                start.wait();
                compiled.set_shards(width).unwrap();
                start.wait();
            }
        });
        for (round, &width) in widths.iter().enumerate() {
            // Profile the live generation on every shard it has.
            for _ in 0..2 * compiled.shard_count() {
                let out = compiled.execute(&inputs).unwrap();
                assert_bit_identical(&reference, &out, &format!("round {round}"));
            }
            start.wait();
            let report = korch.recalibrate(&compiled).unwrap();
            start.wait();
            assert_eq!(compiled.plan_generation(), round as u64 + 1);
            assert_eq!(compiled.shard_count(), width, "round {round}");
            let snapshots = compiled.shard_snapshots();
            assert_eq!(snapshots.len(), width);
            for (s, shard) in snapshots.iter().enumerate() {
                assert_eq!(shard.len(), 1, "one stitched program per shard");
                assert_eq!(
                    shard[0].plan.latency_ms(),
                    report.latency_ms,
                    "round {round}: shard {s} is not on the recalibrated plan"
                );
            }
            assert_eq!(compiled.latency_ms(), report.latency_ms);
        }
        resizer.join().unwrap();
    });
    let out = compiled.execute(&inputs).unwrap();
    assert_bit_identical(&reference, &out, "after the last swap");
}

/// A compiled, sharded model that panics on a marked request — after the
/// executor has run it, i.e. with the request's buffers through an arena.
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

impl ShardControl for Touchy {
    fn set_shards(&self, n: usize) -> Result<(), ExecError> {
        self.model.set_shards(n)
    }
    fn shard_stats(&self) -> Vec<korch::runtime::ShardStats> {
        self.model.shard_stats()
    }
}

/// Fault containment on the long-lived request workers: poisoned and good
/// requests interleaved from three submitters over a 2-shard, 2-lane
/// compiled model. Every handle resolves exactly once — the poisoned ones
/// with the typed error, the good ones bit-identically — the error count
/// is exact, a request submitted after the last panic is served, and
/// every shard's arena is back at zero live bytes.
#[test]
fn a_panicking_request_costs_a_sharded_server_nothing_else() {
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
    let server = Server::start_sharded(
        Arc::clone(&touchy),
        BatchConfig {
            shards: 2,
            ..Default::default()
        },
    )
    .expect("shard provisioning succeeds");
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
                            Err(korch::runtime::ServeError::Panicked(msg)) if poison => {
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
    for shard in touchy.model.shard_snapshots() {
        for partition in shard {
            assert_eq!(partition.executor.arena_stats().live_bytes, 0);
        }
    }
}
