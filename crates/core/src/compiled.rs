//! Compiled models: the `Korch::compile` entry point wiring the optimizer
//! to the `korch-runtime` parallel executor.
//!
//! [`Optimized`] (the optimizer's output) interprets its plans partition
//! by partition via `korch-exec`. A [`CompiledModel`] instead runs **one
//! executable per model**: [`crate::stitch`] concatenates the partitions'
//! chosen graphs and plans into one whole-program `(graph, plan)`, and one
//! [`PlanExecutor`] is compiled over it — constants materialized once,
//! dependency edges and buffer plan precomputed — so repeated
//! inference (and the `korch_runtime::Server` front-end) pays
//! optimization cost once and each request is a single executor run.
//! Partitions exist only to bound the optimizer's search space; at run
//! time a former boundary tensor is an ordinary intermediate, reclaimed at
//! its last reader and free to overlap with kernels of the next
//! partition. [`Optimized::execute`] stays the differential oracle.
//!
//! A compiled model owns its pricing: it keeps the
//! [`Orchestrator`](korch_orch::Orchestrator) that optimized it, and
//! [`CompiledModel::recalibrate`] closes the profiling loop with it — the
//! wall times the executor accumulates fit a [`Calibration`] of that
//! orchestrator's profiler, the same orchestrator re-runs over every
//! partition with the fitted profiler, the new plans are re-stitched, and
//! the new program is swapped in atomically — in-flight requests finish
//! on the executor they started with, subsequent ones run the
//! re-orchestrated plan priced in measured host time. Through its
//! [`SelfTune`] implementation a `korch_runtime::Server::start_tuned`
//! server measures the model's drift and recalibrates it hands-free.
//!
//! # Concurrency
//!
//! Any number of threads may call [`CompiledModel::execute`] at once, and
//! every call runs the **same** executor: a `PlanExecutor` arms a recycled
//! run state per call and shares one set of books and one profile,
//! so a server's request workers need no copies of the program. The live
//! executor, the sources it was stitched from, the calibration it was
//! priced with and its plan generation sit behind one lock: `execute`
//! clones the executor's `Arc` under the read guard and runs outside it,
//! and a recalibration swaps all four in one write. A run that started
//! before the swap finishes on the executor it holds; drift and
//! calibration read the one executor's profile.

use crate::pipeline::{KorchError, Optimized, PipelineStats};
use crate::stitch::stitch;
use korch_cost::{Calibration, Profiler};
use korch_exec::ExecError;
use korch_ir::{PortRef, PrimGraph};
use korch_orch::Plan;
use korch_runtime::{
    ArenaStats, MemoryReport, Model, PlanExecutor, RuntimeConfig, RuntimeProfile, SelfTune,
    ShardControl, ShardStats, TuneOutcome,
};
use korch_tensor::Tensor;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

/// A view of the compiled program: the stitched graph and plan, the
/// program's ports, and its executor. (A compiled model is one stitched
/// program, so [`CompiledModel::partitions`] has one entry.)
pub struct CompiledPartition {
    /// The stitched whole-program primitive graph.
    pub graph: PrimGraph,
    /// The stitched plan the executor runs.
    pub plan: Plan,
    /// The program's input ports, in feed order.
    pub inputs: Vec<PortRef>,
    /// The program's output ports.
    pub outputs: Vec<PortRef>,
    /// The compiled parallel executor.
    pub executor: Arc<PlanExecutor>,
}

/// Outcome of one [`CompiledModel::recalibrate`] pass.
#[derive(Debug, Clone)]
pub struct RecalibrationReport {
    /// The fitted cost-model correction applied to the re-orchestration.
    pub calibration: Calibration,
    /// Mean relative prediction error of the *uncalibrated* cost model
    /// against the accumulated profile (`RuntimeProfile::model_error`
    /// over the whole program's kernels).
    pub model_error_before: f64,
    /// The same error under the fitted calibration — what the swapped-in
    /// plans were priced with.
    pub model_error_after: f64,
    /// Simulated latency of the re-orchestrated plans, ms. Calibrated
    /// units are measured host time, so this is not comparable to the
    /// pre-swap simulated latency.
    pub latency_ms: f64,
}

/// The live program and how it was priced, swapped as one.
struct Live {
    executor: Arc<PlanExecutor>,
    /// The per-partition sources of the live program: what `recalibrate`
    /// re-orchestrates and re-stitches, with the orchestrator that does
    /// it. Carries the plans' simulated latency.
    optimized: Optimized,
    /// Calibration the live plans were priced with (default until the
    /// first recalibration). Drift is measured against *this*, not the
    /// uncalibrated base — otherwise a freshly calibrated model would
    /// still look maximally drifted.
    calibration: Calibration,
    /// Completed recalibration swaps.
    generation: u64,
}

/// An optimized program compiled onto the parallel runtime.
pub struct CompiledModel {
    live: RwLock<Live>,
    /// Serializes [`CompiledModel::recalibrate`], so every swap fits the
    /// profile of the executor it replaces.
    recalibrating: Mutex<()>,
    stats: PipelineStats,
    runtime: RuntimeConfig,
}

impl CompiledModel {
    /// Stitches an optimizer result into one program and compiles it onto
    /// the runtime.
    ///
    /// # Errors
    ///
    /// Returns [`KorchError::Ir`] if the partitions do not plumb and
    /// [`KorchError::Exec`] if the stitched plan is not executable (either
    /// would indicate an optimizer bug).
    pub fn from_optimized(
        optimized: &Optimized,
        runtime: &RuntimeConfig,
    ) -> Result<Self, KorchError> {
        let (graph, plan) = stitch(optimized)?;
        Ok(Self {
            live: RwLock::new(Live {
                executor: Arc::new(PlanExecutor::new(&graph, &plan, runtime.clone())?),
                optimized: optimized.clone(),
                calibration: Calibration::default(),
                generation: 0,
            }),
            recalibrating: Mutex::new(()),
            stats: optimized.stats().clone(),
            runtime: runtime.clone(),
        })
    }

    fn live(&self) -> RwLockReadGuard<'_, Live> {
        self.live.read().expect("live program poisoned")
    }

    /// The live executor. Holders keep running the plan they observed
    /// across a later [`CompiledModel::recalibrate`].
    fn executor(&self) -> Arc<PlanExecutor> {
        Arc::clone(&self.live().executor)
    }

    /// Simulated end-to-end latency in milliseconds (Eq. 2). After a
    /// [`CompiledModel::recalibrate`] swap, the units are calibrated —
    /// i.e. measured host — time.
    pub fn latency_ms(&self) -> f64 {
        self.live().optimized.latency_ms()
    }

    /// Total number of kernel launches.
    pub fn kernel_count(&self) -> usize {
        self.live().executor.plan().kernel_count()
    }

    /// Optimizer statistics carried over from the pipeline.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// The view of the stitched program — always one entry. The program
    /// may be swapped by [`CompiledModel::recalibrate`]; the returned
    /// executor keeps running the plan it was observed with.
    pub fn partitions(&self) -> Vec<CompiledPartition> {
        let live = self.live();
        vec![CompiledPartition {
            graph: live.executor.graph().clone(),
            plan: live.executor.plan().clone(),
            inputs: live.optimized.input_ports().to_vec(),
            outputs: live.optimized.output_ports().to_vec(),
            executor: Arc::clone(&live.executor),
        }]
    }

    /// Statically verifies the live program: runs the `korch-verify`
    /// plan/schedule verifier and arena-lifetime abstract interpreter
    /// over the executor.
    ///
    /// # Errors
    ///
    /// Returns [`KorchError::Verify`] with every broken invariant.
    pub fn verify(&self) -> Result<(), KorchError> {
        Ok(korch_verify::check_executor(&self.executor())?)
    }

    /// [`CompiledModel::partitions`], wrapped once more: the shape the
    /// frozen benchmark reads.
    pub fn shard_snapshots(&self) -> Vec<Vec<CompiledPartition>> {
        vec![self.partitions()]
    }

    /// Completed plan swaps: 0 at compile time, +1 per successful
    /// [`CompiledModel::recalibrate`].
    pub fn plan_generation(&self) -> u64 {
        self.live().generation
    }

    /// Static memory report of the stitched program, folded from the
    /// executor's slot table. Only program inputs, constants and
    /// program outputs are pinned; tensors that cross a partition boundary
    /// are reclaimed at their last reader like any other intermediate.
    pub fn memory_report(&self) -> MemoryReport {
        self.live().executor.memory_report().clone()
    }

    /// Live counters of the executor's buffer arena — the books every
    /// concurrent run keeps.
    pub fn arena_stats(&self) -> ArenaStats {
        self.live().executor.arena_stats()
    }

    /// The wall-time profile the live executor accumulated since it was
    /// swapped in — what drift measurement and recalibration fit from.
    /// Always one entry.
    pub fn profiles(&self) -> Vec<RuntimeProfile> {
        vec![self.live().executor.profile()]
    }

    /// The [`Calibration`] the live plans were priced with: the default
    /// until the first [`CompiledModel::recalibrate`], the fitted one
    /// after (it swaps together with the plans).
    pub fn applied_calibration(&self) -> Calibration {
        self.live().calibration.clone()
    }

    /// Drift of the live model: mean relative prediction error of the
    /// cost model the current plans were priced with (`base` +
    /// [`CompiledModel::applied_calibration`]) against the profile
    /// accumulated since the plans went live. `None` while no kernel has
    /// been measured. [`SelfTune::model_error`] reads it against the
    /// profiler of the orchestrator that optimized the model.
    pub fn current_model_error(&self, base: &Profiler) -> Option<f64> {
        let (executor, calibration) = {
            let live = self.live();
            (Arc::clone(&live.executor), live.calibration.clone())
        };
        let fitted = base.clone().with_calibration(calibration);
        executor
            .profile()
            .model_error(executor.graph(), executor.plan(), &fitted)
    }

    /// Closes the calibration loop in place: fits a [`Calibration`] of
    /// the optimizing orchestrator's profiler from every kernel the live
    /// executor measured, re-runs that orchestrator over each partition's
    /// chosen graph with the fitted profiler, re-stitches the new plans
    /// into one program, compiles it, and swaps it in with one write.
    /// In-flight `execute` calls finish on the executor they hold; later
    /// calls (and `Server` requests) run the new plan. The old profile is
    /// discarded with the old executor, so a subsequent `recalibrate` fits
    /// the *new* plan's measurements. Concurrent calls run one after the
    /// other.
    ///
    /// Under the default `Tiling::Auto` the intra-kernel split threshold
    /// is re-derived along the way: the fresh executor prices it from its
    /// own plan (`total_latency / lanes`), and the re-orchestrated plan
    /// carries *calibrated* — i.e. measured-host — latencies, so which
    /// kernels are tile-eligible is re-decided in the same units the new
    /// plan is priced in.
    ///
    /// # Errors
    ///
    /// Returns [`KorchError::Exec`] when no profiled run exists yet, and
    /// propagates orchestration/compilation failures (the current plan
    /// stays in place on any error).
    pub fn recalibrate(&self) -> Result<RecalibrationReport, KorchError> {
        let _one_at_a_time = self.recalibrating.lock().expect("recalibration poisoned");
        // Phase boundary timestamps on the shared telemetry clock. The
        // spans themselves are recorded only after the successful swap —
        // the generation they are tagged with does not exist until then.
        let recal_now = || {
            self.runtime
                .telemetry
                .as_ref()
                .map_or(0.0, |t| t.recorder().now_us())
        };
        let fit_start = recal_now();
        let (program, sources) = {
            let live = self.live();
            (Arc::clone(&live.executor), live.optimized.clone())
        };
        let base = sources.orchestrator().profiler();
        // One snapshot, taken up front: serving continues while we fit,
        // so reading the profile twice would score the fit against
        // measurements it was not fitted from.
        let profile = program.profile();
        let samples = profile.calibration_samples(program.graph(), program.plan());
        if samples.is_empty() {
            return Err(KorchError::Exec(ExecError::Input(
                "recalibrate needs at least one profiled run; execute the model first".into(),
            )));
        }
        let calibration = Calibration::fit(base, &samples);
        let fitted = base.clone().with_calibration(calibration.clone());
        let drift = |cost: &Profiler| {
            profile
                .model_error(program.graph(), program.plan(), cost)
                .unwrap_or(0.0)
        };
        let model_error_before = drift(base);
        let model_error_after = drift(&fitted);
        let replan_start = recal_now();

        // Re-orchestrate every partition's chosen variant with the
        // calibrated profiler (the transform search already picked the
        // variant; kernel selection is re-priced in measured host time),
        // then stitch the new plans into one program. The partitions are
        // independent jobs on every core; the first error in partition
        // order is returned. Each partition is a group of one graph, so
        // no solve is cut off.
        let orchestrator = sources.orchestrator().clone().with_profiler(fitted);
        let groups: Vec<Vec<&PrimGraph>> = (sources.partitions().iter())
            .map(|p| vec![&p.part.graph])
            .collect();
        let plans = orchestrator
            .orchestrate_all(&groups)
            .into_iter()
            .flatten()
            .map(|o| Ok(o?.plan))
            .collect::<Result<Vec<Plan>, KorchError>>()?;
        let optimized = sources.replanned(plans);
        let (graph, plan) = stitch(&optimized)?;
        let executor = Arc::new(PlanExecutor::new(&graph, &plan, self.runtime.clone())?);
        // Debug builds statically verify the freshly compiled executor
        // before it can be swapped in: dependency edges, tile
        // decompositions and the arena lifetime program are all checked
        // on the artifact that will run. On any violation the error
        // propagates and the current plan stays in place.
        #[cfg(debug_assertions)]
        korch_verify::check_executor(&executor)?;
        let report = RecalibrationReport {
            calibration: calibration.clone(),
            model_error_before,
            model_error_after,
            latency_ms: optimized.latency_ms(),
        };
        let swap_start = recal_now();
        let generation = {
            let mut live = self.live.write().expect("live program poisoned");
            let generation = live.generation + 1;
            *live = Live {
                executor,
                optimized,
                calibration,
                generation,
            };
            generation
        };
        if let Some(t) = &self.runtime.telemetry {
            let rec = t.recorder();
            let swap_end = rec.now_us();
            use korch_telemetry::{EventKind, RecalPhase, TraceEvent};
            let phases = [
                (RecalPhase::Fit, fit_start, replan_start),
                (RecalPhase::Replan, replan_start, swap_start),
                (RecalPhase::Swap, swap_start, swap_end),
            ];
            for (phase, start_us, end_us) in phases {
                rec.record(TraceEvent {
                    trace: 0,
                    start_us,
                    dur_us: (end_us - start_us).max(0.0),
                    kind: EventKind::RecalPhase { phase, generation },
                });
            }
        }
        Ok(report)
    }

    /// Executes the compiled program. Any number of calls may run at
    /// once on the one executor.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on input mismatches (arity, shapes) or
    /// kernel failures.
    pub fn execute(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        self.executor().execute(inputs)
    }
}

impl Model for CompiledModel {
    fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        self.execute(inputs)
    }
}

impl ShardControl for CompiledModel {
    fn set_shards(&self, _: usize) -> Result<(), ExecError> {
        Ok(())
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        Vec::new()
    }
}

/// A compiled model re-tunes itself: served with
/// `korch_runtime::Server::start_tuned`, it has its drift measured and is
/// recalibrated hands-free while it keeps serving (plan swaps are atomic;
/// in-flight requests finish on the plan they started with).
impl SelfTune for CompiledModel {
    /// [`CompiledModel::current_model_error`] against the uncalibrated
    /// profiler of the orchestrator that optimized the model.
    fn model_error(&self) -> Option<f64> {
        let base = self.live().optimized.orchestrator().profiler().clone();
        self.current_model_error(&base)
    }

    fn retune(&self) -> Result<TuneOutcome, String> {
        let report = self.recalibrate().map_err(|e| e.to_string())?;
        Ok(TuneOutcome {
            model_error_before: report.model_error_before,
            model_error_after: report.model_error_after,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Korch, KorchConfig};
    use korch_cost::Device;
    use korch_ir::{OpGraph, OpKind};
    use korch_runtime::Tiling;
    use korch_tensor::UnaryOp;

    fn two_block_model() -> OpGraph {
        let mut g = OpGraph::new();
        let x = g
            .add(
                OpKind::Input {
                    shape: vec![16, 32],
                },
                vec![],
            )
            .unwrap();
        let s1 = g.add(OpKind::Softmax { axis: 1 }, vec![x.into()]).unwrap();
        let r1 = g
            .add(OpKind::Unary(UnaryOp::Relu), vec![s1.into()])
            .unwrap();
        let s2 = g.add(OpKind::Softmax { axis: 1 }, vec![r1.into()]).unwrap();
        g.mark_output(s2).unwrap();
        g
    }

    #[test]
    fn compiled_model_matches_interpreter() {
        let korch = Korch::new(Device::v100(), KorchConfig::default());
        let g = two_block_model();
        let optimized = korch.optimize(&g).unwrap();
        let compiled = korch.compile(&g).unwrap();
        let inputs = vec![Tensor::random(vec![16, 32], 4)];
        let a = optimized.execute(&inputs).unwrap();
        let b = compiled.execute(&inputs).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.as_slice(),
                y.as_slice(),
                "compiled model diverged bitwise"
            );
        }
        assert_eq!(compiled.kernel_count(), optimized.kernel_count());
        assert!((compiled.latency_ms() - optimized.latency_ms()).abs() < 1e-9);
    }

    #[test]
    fn recalibrate_lowers_model_error_and_swaps_plans() {
        let korch = Korch::new(Device::v100(), KorchConfig::default());
        let g = two_block_model();
        let compiled = korch
            .compile_with(&g, &RuntimeConfig::with_lanes(2))
            .unwrap();
        let inputs = vec![Tensor::random(vec![16, 32], 4)];
        let reference = compiled.execute(&inputs).unwrap();
        for _ in 0..4 {
            compiled.execute(&inputs).unwrap();
        }
        let report = compiled.recalibrate().unwrap();
        // CPU wall times dwarf the simulated GPU micros, so the fit
        // tightens dramatically in practice (see benches/runtime.rs for
        // the printed magnitude); the assert allows equality because
        // kernels measured below the simulated launch overhead are
        // excluded from the fit but still scored by model_error.
        assert!(
            report.model_error_after <= report.model_error_before + 1e-9,
            "calibration must not worsen the fitted model: {} -> {}",
            report.model_error_before,
            report.model_error_after
        );
        assert!(
            report.calibration.memory_scale.is_finite() && report.calibration.memory_scale > 0.0
        );
        assert!(report.latency_ms > 0.0);
        // The swapped-in plan computes the same function, bit for bit, and
        // its executors start with fresh profiles.
        let out = compiled.execute(&inputs).unwrap();
        for (a, b) in reference.iter().zip(&out) {
            assert_eq!(a.as_slice(), b.as_slice(), "recalibrated plan diverged");
        }
        assert!(
            compiled.profiles().iter().all(|p| p.runs == 1),
            "old profiles must be discarded with the old executors"
        );
    }

    /// Concurrent `execute` calls all run the one executor: every run
    /// lands in its one profile and settles its one set of books,
    /// and a recalibration swaps that executor in one generation.
    #[test]
    fn concurrent_executes_share_one_executor_across_a_recalibration() {
        let korch = Korch::new(Device::v100(), KorchConfig::default());
        let g = two_block_model();
        let compiled = korch
            .compile_with(&g, &RuntimeConfig::with_lanes(2))
            .unwrap();
        let inputs = vec![Tensor::random(vec![16, 32], 4)];
        let reference = compiled.execute(&inputs).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..4 {
                        let out = compiled.execute(&inputs).unwrap();
                        for (a, b) in reference.iter().zip(&out) {
                            assert_eq!(a.as_slice(), b.as_slice(), "concurrent run diverged");
                        }
                    }
                });
            }
        });
        assert_eq!(compiled.profiles()[0].runs, 13);
        assert_eq!(compiled.arena_stats().live_bytes, 0);
        assert_eq!(compiled.shard_snapshots().len(), 1);
        assert_eq!(compiled.plan_generation(), 0);
        let before = compiled.partitions()[0].executor.clone();
        let report = compiled.recalibrate().unwrap();
        assert!(report.model_error_after <= report.model_error_before + 1e-9);
        assert_eq!(compiled.plan_generation(), 1);
        let after = compiled.partitions()[0].executor.clone();
        assert!(
            !Arc::ptr_eq(&before, &after),
            "the swap installs a new executor"
        );
        assert_eq!(after.profile().runs, 0, "the new executor starts fresh");
        // An executor observed before the swap keeps serving its plan.
        for out in [before.execute(&inputs), compiled.execute(&inputs)] {
            for (a, b) in reference.iter().zip(&out.unwrap()) {
                assert_eq!(a.as_slice(), b.as_slice(), "post-swap run diverged");
            }
        }
    }

    /// A multi-partition program compiles to **one** stitched executor —
    /// not one per partition — and a recalibration re-orchestrates every
    /// partition, re-stitches and keeps that shape.
    #[test]
    fn multi_partition_model_runs_one_executor() {
        let config = KorchConfig {
            partition_max_prims: 5,
            ..Default::default()
        };
        let korch = Korch::new(Device::v100(), config);
        let optimized = korch.optimize(&two_block_model()).unwrap();
        assert!(optimized.partitions().len() >= 2, "want several partitions");
        let compiled =
            CompiledModel::from_optimized(&optimized, &RuntimeConfig::with_lanes(2)).unwrap();
        let inputs = vec![Tensor::random(vec![16, 32], 4)];
        let oracle = optimized.execute(&inputs).unwrap();
        for generation in 0..2 {
            let views = compiled.partitions();
            assert_eq!(views.len(), 1);
            assert_eq!(compiled.profiles().len(), 1);
            let program = &views[0];
            assert_eq!(program.plan.kernel_count(), compiled.kernel_count());
            assert_eq!(program.inputs, optimized.input_ports());
            assert_eq!(program.outputs, optimized.output_ports());
            for _ in 0..3 {
                let out = compiled.execute(&inputs).unwrap();
                for (a, b) in oracle.iter().zip(&out) {
                    assert_eq!(a.as_slice(), b.as_slice(), "generation {generation}");
                }
            }
            assert_eq!(compiled.plan_generation(), generation);
            compiled.recalibrate().unwrap();
        }
        // The sources kept for the next recalibration are the ones running.
        assert_eq!(
            compiled.kernel_count(),
            compiled.live().optimized.kernel_count()
        );
    }

    /// A model whose plan contains a tilable kernel: a pure elementwise
    /// chain fuses into one all-elementwise megakernel — exactly the
    /// shape the executor's `ElementwiseChain` tiling splits.
    fn elementwise_chain_model() -> OpGraph {
        let mut g = OpGraph::new();
        let x = g
            .add(
                OpKind::Input {
                    shape: vec![32, 32],
                },
                vec![],
            )
            .unwrap();
        let a = g.add(OpKind::Gelu, vec![x.into()]).unwrap();
        let b = g.add(OpKind::Silu, vec![a.into()]).unwrap();
        let c = g.add(OpKind::Unary(UnaryOp::Tanh), vec![b.into()]).unwrap();
        g.mark_output(c).unwrap();
        g
    }

    /// A compiled model whose executors tile their big kernels (forced
    /// here via `Tiling::Forced`) must stay bit-identical to the
    /// untiled compilation, keep serving bit-identically across a
    /// recalibration swap, and surface the decompositions through the
    /// aggregated profiles.
    #[test]
    fn tiled_compiled_model_is_bit_identical_across_recalibration() {
        let korch = Korch::new(Device::v100(), KorchConfig::default());
        let g = elementwise_chain_model();
        let reference = korch
            .compile_with(&g, &RuntimeConfig::with_lanes(1))
            .unwrap();
        let tiled_runtime = RuntimeConfig {
            tiling: Tiling::Forced { tile_rows: None },
            ..RuntimeConfig::with_lanes(2)
        };
        let compiled = korch.compile_with(&g, &tiled_runtime).unwrap();
        let inputs = vec![Tensor::random(vec![32, 32], 4)];
        let expected = reference.execute(&inputs).unwrap();
        for _ in 0..4 {
            let out = compiled.execute(&inputs).unwrap();
            for (a, b) in expected.iter().zip(&out) {
                assert_eq!(a.as_slice(), b.as_slice(), "tiled compiled model diverged");
            }
        }
        let tiled: u64 = compiled.profiles().iter().map(|p| p.tiled_kernels).sum();
        assert!(
            tiled > 0,
            "forced tiling must engage in at least one partition"
        );
        let report = compiled.recalibrate().unwrap();
        assert!(report.model_error_after <= report.model_error_before + 1e-9);
        let out = compiled.execute(&inputs).unwrap();
        for (a, b) in expected.iter().zip(&out) {
            assert_eq!(a.as_slice(), b.as_slice(), "post-swap tiled run diverged");
        }
    }

    #[test]
    fn recalibrate_without_profile_is_rejected() {
        let korch = Korch::new(Device::v100(), KorchConfig::default());
        let g = two_block_model();
        let compiled = korch
            .compile_with(&g, &RuntimeConfig::with_lanes(2))
            .unwrap();
        assert!(
            compiled.recalibrate().is_err(),
            "recalibrating an unprofiled model must fail, not swap blindly"
        );
    }

    #[test]
    fn compiled_model_profiles_and_calibrates() {
        let korch = Korch::new(Device::v100(), KorchConfig::default());
        let g = two_block_model();
        let compiled = korch
            .compile_with(&g, &RuntimeConfig::with_lanes(2))
            .unwrap();
        let inputs = vec![Tensor::random(vec![16, 32], 4)];
        for _ in 0..3 {
            compiled.execute(&inputs).unwrap();
        }
        let profiles = compiled.profiles();
        assert!(!profiles.is_empty());
        assert!(profiles.iter().all(|p| p.runs == 3));
        let program = &compiled.partitions()[0];
        let samples = profiles[0].calibration_samples(&program.graph, &program.plan);
        assert!(!samples.is_empty());
        let base = Profiler::new(Device::v100());
        let cal = Calibration::fit(&base, &samples);
        assert!(cal.memory_scale.is_finite() && cal.memory_scale > 0.0);
        assert_eq!(
            compiled.model_error(),
            compiled.current_model_error(&base),
            "self-tuning drift reads against the optimizing device's profiler"
        );
        let report = compiled.memory_report();
        assert!(report.peak_resident_bytes <= report.allocate_everything_bytes);
    }
}
