//! The Korch runtime: actually executes orchestrated plans, concurrently.
//!
//! The rest of the workspace *optimizes* tensor programs (fission →
//! primitive-graph transforms → BLP orchestration) and *simulates* their
//! execution. This crate converts the repo from "optimizer + simulator"
//! into "optimizer + runtime":
//!
//! - [`PlanExecutor`] — runs a [`korch_orch::Plan`] bit-identically to
//!   `korch_exec::execute_plan`, overlapping independent kernels across
//!   lanes (work-stealing, lock-free, scheduled from the dependency DAG
//!   the executor compiles and from nothing else; the caller is a lane,
//!   the others are long-lived helpers of one process-wide pool, called
//!   for surplus work only) and splitting a long-pole kernel into
//!   row-range tiles when sibling lanes would idle. The module docs of
//!   `src/executor/mod.rs` are the one description of how: kernel
//!   bodies, scheduler, hand-off, tiling, memory
//!   ([`RuntimeProfile::steals`],
//!   [`RuntimeProfile::tiled_kernels`] and [`RuntimeProfile::tile_tasks`]
//!   count what a run did);
//! - [`SlotTable`] / [`BufferArena`] — the one lifetime program
//!   `PlanExecutor::new` compiles (reader countdowns, last-reader
//!   reclamation; [`MemoryReport`] is folded from it and `korch-verify`
//!   interprets it) and the books and pool behind it: peak-resident
//!   accounting (vs. the interpreter's allocate-everything behavior) and
//!   size-classed reuse of the buffers the runtime allocates itself —
//!   staged inputs, range-body outputs, tile chunks and their assembly. A
//!   walk body's output is the buffer its last member wrote, moved into
//!   its slot and dropped when its last reader retires;
//! - [`RuntimeProfile`] — per-kernel wall times folded from each run's
//!   [`KernelInterval`]s (every lane timestamps against one shared clock
//!   origin per run), and the one fitting hook:
//!   [`RuntimeProfile::fit_calibration`] feeds measured latencies back
//!   into the `korch_cost` analytical model (a tiled kernel's tiles sum
//!   into one whole-kernel sample);
//! - [`Server`] — a work-conserving front-end over any [`Model`]: one
//!   FIFO admission queue drained by a fixed set of long-lived request
//!   workers (a request starts the moment one is free; a model that
//!   panics costs its own request only), with throughput / latency
//!   statistics. Its [`BatchConfig::shards`] workers all call one model:
//!   a `PlanExecutor` serves concurrent `execute` calls itself (a
//!   recycled run state per call, one arena, one profile), so nothing is
//!   replicated. Started over a [`SelfTune`] model it runs the whole
//!   loop hands-free. `korch-core`'s `CompiledModel` is one
//!   `PlanExecutor` over its stitched whole program behind one lock,
//!   plus the optimizer state a recalibration re-plans from.
//!
//! # The self-tuning cycle
//!
//! `korch-core`'s `CompiledModel` + `SelfTuningModel` close the loop end
//! to end — **measure → fit → re-orchestrate → swap**:
//!
//! 1. **measure** — every `execute` records per-kernel wall times;
//! 2. **fit** — `Calibration::fit` scales the analytical cost model to
//!    the measured kernel times;
//! 3. **re-orchestrate** — the orchestrator re-runs with the calibrated
//!    profiler, re-pricing kernel selection in measured host time (who
//!    runs what is not planned: the executor schedules the new plan from
//!    its dependency DAG, like the old one);
//! 4. **swap** — the new plans replace the old atomically; in-flight
//!    requests finish on the plan they started with.
//!
//! A [`Server`] started with [`Server::start_tuned`] drives the cycle
//! automatically: the request worker whose completion crosses every N-th
//! served request ([`RecalibrationPolicy`]) samples drift and triggers
//! step 2–4 on a background thread when the model error exceeds its
//! threshold.
//!
//! # Observability
//!
//! Passing one shared `korch_telemetry::Telemetry` hub to both
//! [`BatchConfig::telemetry`] and [`RuntimeConfig::telemetry`] threads
//! end-to-end request tracing through the whole stack. The trace event
//! model follows the request's life: an `Admitted` instant at
//! submission (carrying the queue depth), a `QueueWait` span from
//! admission to the moment a request worker picks it up, a `Request`
//! span around the model run, per-lane `Kernel`/`Tile` spans from the
//! executor's measured intervals, an `ArenaHighwater` instant per run,
//! and `RecalPhase` fit/replan/swap spans tagged with the swapped-in plan
//! generation.
//! Every event is tied to its request by a `TraceId` allocated at
//! admission and propagated through a thread-local
//! (`korch_telemetry::with_trace`) into the executor.
//!
//! Two invariants make the events composable:
//!
//! - **Shared clock origin** — all timestamps are microsecond offsets
//!   from the hub recorder's single `Instant` origin. The executor
//!   captures its per-run offset back-to-back with its own run clock at
//!   run start and rebases every kernel/tile interval onto the shared
//!   timeline, so serving-side and executor-side spans interleave
//!   correctly in one exported trace.
//! - **Zero-cost disabled path** — with `telemetry: None` nothing is
//!   recorded, allocated, or timed beyond what profiling already does;
//!   with a hub attached but its recorder gated off, recording is a
//!   single relaxed atomic load and the pre-allocated ring buffers stay
//!   untouched (bounded drop-oldest rings: tracing never reallocates on
//!   the hot path).
//!
//! `Telemetry::chrome_trace` exports the recorder snapshot as Chrome
//! trace-event JSON (loadable in `chrome://tracing` / Perfetto), and
//! [`ServerStats::metrics`] embeds the hub's metrics-registry snapshot
//! (queue depth, requests in flight, queue waits, steals, tile counters,
//! retune outcomes).
//!
//! ```
//! use korch_ir::{EwFn, PrimGraph, PrimKind};
//! use korch_orch::Orchestrator;
//! use korch_cost::Device;
//! use korch_runtime::{PlanExecutor, RuntimeConfig};
//! use korch_tensor::{Tensor, UnaryOp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = PrimGraph::new();
//! let x = g.add(PrimKind::Input { shape: vec![8, 8] }, vec![])?;
//! let e = g.add(PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp)), vec![x.into()])?;
//! g.mark_output(e)?;
//! let plan = Orchestrator::new(Device::v100()).orchestrate(&g)?.plan;
//! let executor = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(2))?;
//! let out = executor.execute(&[Tensor::random(vec![8, 8], 1)])?;
//! assert_eq!(out.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod deque;
mod executor;
mod profiler;
mod serving;

pub use arena::{ArenaStats, BufferArena, MemoryReport, SlotInfo, SlotTable};
pub use executor::{PlanExecutor, RuntimeConfig, TileBodyKind, TileLayout};
pub use profiler::{KernelInterval, KernelStats, RuntimeProfile};
pub use serving::{
    BatchConfig, Model, RecalibrationPolicy, ResponseHandle, SelfTune, ServeError, Server,
    ServerStats, ShardControl, ShardStats, TuneOutcome,
};

use korch_exec::ExecError;
use korch_tensor::Tensor;

/// The message of a caught panic payload (empty when it carried none).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

impl Model for PlanExecutor {
    fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        self.execute(inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use korch_cost::Device;
    use korch_exec::{execute_plan, execute_prims};
    use korch_ir::{ConstInit, EwFn, LinearFn, PortRef, PrimGraph, PrimKind};
    use korch_orch::Orchestrator;
    use korch_tensor::{BinaryOp, MatMulSpec, ReduceKind, Tensor, UnaryOp};

    /// Wide graph: `branches` independent softmax-ish chains, so plans
    /// contain many independent kernels.
    fn wide_graph(branches: usize, rows: usize, cols: usize) -> PrimGraph {
        let mut g = PrimGraph::new();
        for _ in 0..branches {
            let x = g
                .add(
                    PrimKind::Input {
                        shape: vec![rows, cols],
                    },
                    vec![],
                )
                .unwrap();
            let e = g
                .add(
                    PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp)),
                    vec![x.into()],
                )
                .unwrap();
            let r = g
                .add(
                    PrimKind::Reduce {
                        kind: ReduceKind::Sum,
                        axis: 1,
                    },
                    vec![e.into()],
                )
                .unwrap();
            let b = g
                .add(
                    PrimKind::Broadcast {
                        axis: 1,
                        size: cols,
                    },
                    vec![r.into()],
                )
                .unwrap();
            let d = g
                .add(
                    PrimKind::Elementwise(EwFn::Binary(BinaryOp::Div)),
                    vec![e.into(), b.into()],
                )
                .unwrap();
            g.mark_output(d).unwrap();
        }
        g
    }

    fn inputs_for(g: &PrimGraph, seed: u64) -> Vec<Tensor> {
        g.iter()
            .filter_map(|(_, n)| match &n.kind {
                PrimKind::Input { shape } => Some(shape.clone()),
                _ => None,
            })
            .enumerate()
            .map(|(i, shape)| Tensor::random(shape, seed + i as u64))
            .collect()
    }

    #[test]
    fn parallel_execution_is_bit_identical() {
        let g = wide_graph(4, 16, 32);
        let plan = Orchestrator::new(Device::v100())
            .orchestrate(&g)
            .unwrap()
            .plan;
        let inputs = inputs_for(&g, 7);
        let reference = execute_plan(&g, &plan, &inputs).unwrap();
        for lanes in [1, 2, 4] {
            let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes)).unwrap();
            let out = exec.execute(&inputs).unwrap();
            assert_eq!(out.len(), reference.len());
            for (a, b) in reference.iter().zip(&out) {
                assert_eq!(a.shape(), b.shape());
                assert_eq!(a.as_slice(), b.as_slice(), "lanes={lanes} diverged bitwise");
            }
        }
    }

    /// A kernel body that panics fails its run with a typed error on
    /// whichever lane — the caller's or a pooled helper's — it ran: the
    /// run settles (`live_bytes` back at 0), no helper thread is lost to
    /// the unwind, and the executor serves the next request bit for bit.
    #[test]
    fn a_panicking_kernel_fails_its_run_and_nothing_else() {
        let g = wide_graph(4, 16, 32);
        let plan = Orchestrator::new(Device::v100())
            .orchestrate(&g)
            .unwrap()
            .plan;
        let inputs = inputs_for(&g, 7);
        let reference = execute_plan(&g, &plan, &inputs).unwrap();
        for lanes in [1, 2, 4] {
            let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes)).unwrap();
            for victim in [0, plan.kernel_count() - 1] {
                exec.panic_at_kernel(victim);
                for _ in 0..3 {
                    match exec.execute(&inputs) {
                        Err(ExecError::KernelPanicked { kernel, message }) => {
                            assert_eq!(kernel, victim);
                            assert!(message.contains("injected"), "{message}");
                        }
                        other => panic!("lanes={lanes}: expected a contained panic, got {other:?}"),
                    }
                    assert_eq!(exec.arena_stats().live_bytes, 0, "lanes={lanes}");
                }
                exec.panic_at_kernel(usize::MAX);
                let out = exec.execute(&inputs).unwrap();
                for (a, b) in reference.iter().zip(&out) {
                    assert_eq!(a.as_slice(), b.as_slice(), "lanes={lanes} after the panic");
                }
                assert_eq!(exec.arena_stats().live_bytes, 0);
            }
        }
    }

    #[test]
    fn repeated_runs_reuse_buffers() {
        let g = wide_graph(3, 32, 64);
        let plan = Orchestrator::new(Device::v100())
            .orchestrate(&g)
            .unwrap()
            .plan;
        let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(2)).unwrap();
        let inputs = inputs_for(&g, 3);
        let first = exec.execute(&inputs).unwrap();
        for _ in 0..3 {
            let again = exec.execute(&inputs).unwrap();
            for (a, b) in first.iter().zip(&again) {
                assert_eq!(a.as_slice(), b.as_slice(), "runs must be deterministic");
            }
        }
        let stats = exec.arena_stats();
        let report = exec.memory_report();
        assert!(report.allocate_everything_bytes > 0);
        assert!(report.peak_resident_bytes <= report.allocate_everything_bytes);
        // Multi-kernel plans materialize intermediates; dead ones must be
        // reclaimed and (across runs) recycled.
        if report.reclaimable_buffers > 0 {
            assert!(stats.reuse_hits > 0, "no reuse across four runs: {stats:?}");
        }
    }

    /// The pool serves the buffers the runtime allocates itself and
    /// nothing else. In a walk-only plan those are the staged input
    /// copies: every warm run takes exactly that many buffers from the
    /// pool and parks them again, and the walk outputs — moved into their
    /// slots, dropped or handed to the caller when dead — never reach it,
    /// so the pool is as deep after run 1 000 as after run 2.
    #[test]
    fn walk_outputs_never_grow_the_pool() {
        let g = wide_graph(3, 8, 16);
        let plan = Orchestrator::new(Device::v100())
            .orchestrate(&g)
            .unwrap()
            .plan;
        let inputs = inputs_for(&g, 5);
        let reference = execute_plan(&g, &plan, &inputs).unwrap();
        for lanes in [1, 2] {
            let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes)).unwrap();
            let table = exec.slot_table();
            let written = table.writes.iter().flatten();
            assert!(
                written.clone().count() > 0 && written.clone().all(|&s| !table.slots[s].pooled),
                "every kernel of the plan is a walk"
            );
            let mut steady = None;
            for run in 1..=1000 {
                let before = exec.arena_stats();
                let out = exec.execute(&inputs).unwrap();
                let after = exec.arena_stats();
                assert_eq!(after.live_bytes, 0, "lanes={lanes} run={run}");
                if run == 1 {
                    continue;
                }
                assert_eq!(
                    (after.reuse_hits - before.reuse_hits) as usize,
                    inputs.len(),
                    "lanes={lanes} run={run}: one take per staged input"
                );
                assert_eq!(
                    *steady.get_or_insert(after.free_bytes),
                    after.free_bytes,
                    "lanes={lanes} run={run}: the pool grew"
                );
                if run == 1000 {
                    for (a, b) in reference.iter().zip(&out) {
                        assert_eq!(a.as_slice(), b.as_slice(), "lanes={lanes}");
                    }
                }
            }
            let input_bytes: usize = inputs.iter().map(Tensor::byte_size).sum();
            assert_eq!(steady, Some(input_bytes as u64));
        }
    }

    #[test]
    fn profiling_accumulates_and_calibrates() {
        let g = wide_graph(2, 32, 32);
        let plan = Orchestrator::new(Device::v100())
            .orchestrate(&g)
            .unwrap()
            .plan;
        let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(2)).unwrap();
        let inputs = inputs_for(&g, 11);
        for _ in 0..5 {
            exec.execute(&inputs).unwrap();
        }
        let profile = exec.profile();
        assert_eq!(profile.runs, 5);
        assert!(profile.per_kernel.iter().all(|s| s.count == 5));
        assert!(profile.sequential_us() > 0.0);
        let cost = korch_cost::Profiler::new(Device::v100());
        let samples = profile.calibration_samples(&g, &plan);
        assert_eq!(samples.len(), plan.kernel_count());
        let calibration = profile.fit_calibration(&g, &plan, &cost);
        // CPU wall times are far from simulated GPU micros; the fit must
        // still produce a finite positive scale and tighten the model.
        assert!(calibration.memory_scale.is_finite() && calibration.memory_scale > 0.0);
        let fitted = cost.clone().with_calibration(calibration);
        let err_before = profile.model_error(&g, &plan, &cost);
        let err_after = profile.model_error(&g, &plan, &fitted);
        assert!(
            err_after <= err_before + 1e-9,
            "calibration should not worsen the fit: {err_before} -> {err_after}"
        );
    }

    #[test]
    fn executor_validates_inputs_like_the_interpreter() {
        let g = wide_graph(1, 4, 8);
        let plan = Orchestrator::new(Device::v100())
            .orchestrate(&g)
            .unwrap()
            .plan;
        let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(2)).unwrap();
        assert!(exec.execute(&[]).is_err());
        assert!(exec.execute(&[Tensor::zeros(vec![3, 3])]).is_err());
        let too_many = vec![Tensor::zeros(vec![4, 8]), Tensor::zeros(vec![1])];
        assert!(exec.execute(&too_many).is_err());
    }

    #[test]
    fn compute_and_memory_kernels_overlap_without_deadlock() {
        // A matmul branch plus elementwise branches, many lanes, many runs:
        // exercises cross-lane waits under contention.
        let mut g = PrimGraph::new();
        let x = g
            .add(
                PrimKind::Input {
                    shape: vec![64, 64],
                },
                vec![],
            )
            .unwrap();
        let w = g
            .add(
                PrimKind::Constant {
                    shape: vec![64, 64],
                    init: ConstInit::Random(5),
                },
                vec![],
            )
            .unwrap();
        let mm = g
            .add(
                PrimKind::Linear(LinearFn::MatMul {
                    spec: MatMulSpec::new(),
                }),
                vec![x.into(), w.into()],
            )
            .unwrap();
        let t = g
            .add(
                PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)),
                vec![mm.into()],
            )
            .unwrap();
        g.mark_output(t).unwrap();
        let y = g
            .add(
                PrimKind::Input {
                    shape: vec![128, 128],
                },
                vec![],
            )
            .unwrap();
        let mut cur: PortRef = y.into();
        for _ in 0..4 {
            cur = g
                .add(
                    PrimKind::Elementwise(EwFn::Unary(UnaryOp::Sigmoid)),
                    vec![cur],
                )
                .unwrap()
                .into();
        }
        g.mark_output(cur.node).unwrap();
        let plan = Orchestrator::new(Device::v100())
            .orchestrate(&g)
            .unwrap()
            .plan;
        let inputs = inputs_for(&g, 21);
        let reference = execute_plan(&g, &plan, &inputs).unwrap();
        for lanes in [2, 3, 8] {
            let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes)).unwrap();
            for _ in 0..3 {
                let out = exec.execute(&inputs).unwrap();
                for (a, b) in reference.iter().zip(&out) {
                    assert_eq!(a.as_slice(), b.as_slice());
                }
            }
        }
    }

    #[test]
    fn matches_reference_prims_semantics() {
        let g = wide_graph(2, 8, 16);
        let plan = Orchestrator::new(Device::v100())
            .orchestrate(&g)
            .unwrap()
            .plan;
        let inputs = inputs_for(&g, 33);
        let reference = execute_prims(&g, &inputs).unwrap();
        let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(4)).unwrap();
        let out = exec.execute(&inputs).unwrap();
        for (a, b) in reference.iter().zip(&out) {
            assert!(a.allclose(b, 1e-5));
        }
    }

    #[test]
    fn serves_a_real_plan() {
        let g = wide_graph(2, 16, 16);
        let plan = Orchestrator::new(Device::v100())
            .orchestrate(&g)
            .unwrap()
            .plan;
        let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(2)).unwrap();
        let inputs = inputs_for(&g, 9);
        let reference = exec.execute(&inputs).unwrap();
        let server = Server::start(std::sync::Arc::new(exec), BatchConfig::default());
        let handles: Vec<_> = (0..6).map(|_| server.submit(inputs.clone())).collect();
        for h in handles {
            let out = h.wait().expect("served response");
            for (a, b) in reference.iter().zip(&out) {
                assert_eq!(a.as_slice(), b.as_slice());
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.requests, 6);
        assert_eq!(stats.errors, 0);
    }
}
