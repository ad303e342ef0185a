//! Compiled models: the `Korch::compile` entry point wiring the optimizer
//! to the `korch-runtime` parallel executor.
//!
//! [`Optimized`] (the optimizer's output) interprets its plans partition
//! by partition via `korch-exec`. A [`CompiledModel`] instead runs **one
//! executable per model**: [`crate::stitch`] concatenates the partitions'
//! chosen graphs and plans into one whole-program `(graph, plan)`, and one
//! [`PlanExecutor`] is compiled over it — constants materialized once,
//! dependency edges precomputed, one buffer arena warm — so repeated
//! inference (and the `korch_runtime::Server` batching front-end) pays
//! optimization cost once and each request is a single executor run.
//! Partitions exist only to bound the optimizer's search space; at run
//! time a former boundary tensor is an ordinary intermediate, reclaimed at
//! its last reader and free to overlap with kernels of the next
//! partition. [`Optimized::execute`] stays the differential oracle.
//!
//! [`CompiledModel::recalibrate`] closes the profiling loop: the wall
//! times the executors accumulate fit a [`Calibration`], the orchestrator
//! re-runs over every partition with the calibrated cost model, the new
//! plans are re-stitched, and the new program is swapped in atomically —
//! in-flight requests finish on the executor they started with,
//! subsequent ones run the re-orchestrated plan priced in measured host
//! time.
//!
//! # Sharding
//!
//! All execution state lives in one [`ShardedExecutor`]: N shard replicas
//! of the stitched program — each a `PlanExecutor` with its own arena —
//! behind a `korch_runtime::ShardRouter` that sends every `execute` to the
//! least-loaded live shard and retries on a sibling when a shard's run
//! fails. [`CompiledModel::set_shards`] (or
//! `korch_runtime::BatchConfig::shards` through a sharded `Server`)
//! re-provisions the width; a compiled model starts at one shard. Each
//! shard accumulates its own [`RuntimeProfile`]; drift measurement and
//! recalibration consume the *merged* profile of all shards, and a
//! recalibration ends in one [`ShardedExecutor::replan`], which replaces
//! **every** shard (and the router) in one write, so shards never run
//! different plan generations.

use crate::pipeline::{Korch, KorchError, Optimized, PipelineStats};
use crate::stitch::stitch;
use korch_cost::{Calibration, CalibrationSample, Profiler};
use korch_exec::ExecError;
use korch_ir::{PortRef, PrimGraph};
use korch_orch::{Orchestrator, Plan};
use korch_runtime::{
    MemoryReport, Model, PlanExecutor, RuntimeConfig, RuntimeProfile, SelfTune, ShardControl,
    ShardStats, ShardedExecutor, TuneOutcome,
};
use korch_tensor::Tensor;
use std::sync::{Arc, Mutex, RwLock};

/// One shard's view of the compiled program: the stitched graph and plan,
/// the program's ports, and the shard's executor. (A compiled model is one
/// stitched program, so [`CompiledModel::partitions`] has one entry.)
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

/// How the live program was priced. `recalibrate` holds the write lock
/// across the executor swap, so a reader that takes the read guard *before*
/// `exec.shards()` sees executors and the pricing they were built from.
struct Pricing {
    /// The per-partition sources of the live program: what `recalibrate`
    /// re-orchestrates and re-stitches. Carries the plans' simulated
    /// latency.
    optimized: Optimized,
    /// Calibration the live plans were priced with (default until the
    /// first recalibration). Drift is measured against *this*, not the
    /// uncalibrated base — otherwise a freshly calibrated model would
    /// still look maximally drifted.
    calibration: Calibration,
}

/// An optimized program compiled onto the parallel runtime.
pub struct CompiledModel {
    /// One `PlanExecutor` over the stitched program per shard, and the
    /// router over them.
    exec: ShardedExecutor,
    pricing: RwLock<Pricing>,
    /// Serializes [`CompiledModel::recalibrate`], so `pricing` is always
    /// written by the pass whose `replan` landed last.
    recalibrating: Mutex<()>,
    stats: PipelineStats,
    runtime: RuntimeConfig,
}

/// The aggregate of every shard's profile (each read clones the profile
/// under that executor's mutex).
fn merged_profile(shards: &[Arc<PlanExecutor>]) -> RuntimeProfile {
    let per_shard: Vec<RuntimeProfile> = shards.iter().map(|s| s.profile()).collect();
    RuntimeProfile::merged(&per_shard.iter().collect::<Vec<_>>())
}

/// Mean relative prediction error of `profiler` against `profile`; `None`
/// when nothing has been measured.
fn model_error(
    profile: &RuntimeProfile,
    program: &PlanExecutor,
    profiler: &Profiler,
) -> Option<f64> {
    profile
        .per_kernel
        .iter()
        .any(|s| s.count > 0)
        .then(|| profile.model_error(program.graph(), program.plan(), profiler))
}

impl CompiledModel {
    /// Stitches an optimizer result into one program and compiles it onto
    /// the runtime (one shard).
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
            exec: ShardedExecutor::new(&graph, &plan, runtime.clone(), 1)?,
            pricing: RwLock::new(Pricing {
                optimized: optimized.clone(),
                calibration: Calibration::default(),
            }),
            recalibrating: Mutex::new(()),
            stats: optimized.stats().clone(),
            runtime: runtime.clone(),
        })
    }

    fn pricing(&self) -> std::sync::RwLockReadGuard<'_, Pricing> {
        self.pricing.read().expect("pricing poisoned")
    }

    /// Simulated end-to-end latency in milliseconds (Eq. 2). After a
    /// [`CompiledModel::recalibrate`] swap, the units are calibrated —
    /// i.e. measured host — time.
    pub fn latency_ms(&self) -> f64 {
        self.pricing().optimized.latency_ms()
    }

    /// Total number of kernel launches.
    pub fn kernel_count(&self) -> usize {
        self.exec.shards()[0].plan().kernel_count()
    }

    /// Optimizer statistics carried over from the pipeline.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    fn view(pricing: &Pricing, executor: &Arc<PlanExecutor>) -> CompiledPartition {
        CompiledPartition {
            graph: executor.graph().clone(),
            plan: executor.plan().clone(),
            inputs: pricing.optimized.input_ports().to_vec(),
            outputs: pricing.optimized.output_ports().to_vec(),
            executor: Arc::clone(executor),
        }
    }

    /// The **primary shard's** view of the stitched program — always one
    /// entry (all shards run the same graph and plan). The program may be
    /// swapped by [`CompiledModel::recalibrate`]; the returned executor
    /// keeps running the plan it was observed with.
    pub fn partitions(&self) -> Vec<CompiledPartition> {
        let pricing = self.pricing();
        vec![Self::view(&pricing, &self.exec.shards()[0])]
    }

    /// Statically verifies the live program: runs the `korch-verify`
    /// plan/schedule verifier and arena-lifetime abstract interpreter
    /// over the primary shard's executor (all shards run the same plan).
    ///
    /// # Errors
    ///
    /// Returns [`KorchError::Verify`] with every broken invariant.
    pub fn verify(&self) -> Result<(), KorchError> {
        Ok(korch_verify::check_executor(&self.exec.shards()[0])?)
    }

    /// Every shard's view of the stitched program (index = shard id, one
    /// entry each).
    pub fn shard_snapshots(&self) -> Vec<Vec<CompiledPartition>> {
        let pricing = self.pricing();
        let shards = self.exec.shards();
        shards
            .iter()
            .map(|s| vec![Self::view(&pricing, s)])
            .collect()
    }

    /// Number of shard replicas currently provisioned.
    pub fn shard_count(&self) -> usize {
        self.exec.shard_count()
    }

    /// Completed plan swaps: 0 at compile time, +1 per successful
    /// [`CompiledModel::recalibrate`] (every swap re-plans all shards).
    pub fn plan_generation(&self) -> u64 {
        self.exec.generation()
    }

    /// Static memory report of the stitched program, folded from the
    /// primary executor's slot table, per shard (N shards provision N
    /// arenas). Only program inputs, constants and
    /// program outputs are pinned; tensors that cross a partition boundary
    /// are reclaimed at their last reader like any other intermediate.
    pub fn memory_report(&self) -> MemoryReport {
        self.exec.memory_report()
    }

    /// The wall-time profile accumulated so far — the **aggregate** view:
    /// every shard's profile of the stitched program merged into one
    /// ([`RuntimeProfile::merge`]), which is what drift measurement and
    /// recalibration fit from. Always one entry.
    pub fn profiles(&self) -> Vec<RuntimeProfile> {
        vec![self.exec.profile()]
    }

    /// Calibration samples from every profiled kernel (aggregated over
    /// shards).
    pub fn calibration_samples(&self) -> Vec<CalibrationSample> {
        let shards = self.exec.shards();
        merged_profile(&shards).calibration_samples(shards[0].graph(), shards[0].plan())
    }

    /// Fits a cost-model [`Calibration`] from everything measured so far
    /// (the profiling-feedback loop: compile → run → calibrate →
    /// re-optimize with `Profiler::with_calibration`).
    pub fn calibrate(&self, cost_profiler: &Profiler) -> Calibration {
        Calibration::fit(cost_profiler, &self.calibration_samples())
    }

    /// The [`Calibration`] the live plans were priced with: the default
    /// until the first [`CompiledModel::recalibrate`], the fitted one
    /// after (it swaps together with the plans).
    pub fn applied_calibration(&self) -> Calibration {
        self.pricing().calibration.clone()
    }

    /// Drift of the live model: mean relative prediction error of the
    /// cost model the current plans were priced with (`base` +
    /// [`CompiledModel::applied_calibration`]) against the profile
    /// accumulated since the plans went live. `None` while no kernel has
    /// been measured. This is the quantity a serving-side
    /// [`korch_runtime::RecalibrationPolicy`] thresholds.
    pub fn current_model_error(&self, base: &Profiler) -> Option<f64> {
        let pricing = self.pricing();
        let shards = self.exec.shards();
        let fitted = base.clone().with_calibration(pricing.calibration.clone());
        drop(pricing);
        model_error(&merged_profile(&shards), &shards[0], &fitted)
    }

    /// Re-provisions the model to `n` shard replicas (clamped to ≥ 1) of
    /// the live program: growing compiles fresh executors over the
    /// current plan (existing shards stay warm), shrinking drops surplus
    /// replicas (their profiles with them). The swap is atomic and also
    /// resets the router; in-flight runs finish on the shard they
    /// claimed. The plan itself — and [`CompiledModel::plan_generation`]
    /// — is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when a replica cannot be compiled; the
    /// current shard set stays untouched.
    pub fn set_shards(&self, n: usize) -> Result<(), ExecError> {
        self.exec.set_shards(n)
    }

    /// Per-shard serving counters of the live router.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.exec.shard_stats()
    }

    /// Closes the calibration loop in place: fits a [`Calibration`] from
    /// every kernel measured so far (**all shards' profiles merged**),
    /// re-runs the orchestrator over each partition's chosen graph with
    /// the calibrated cost model, re-stitches the new plans into one
    /// program and swaps it in with [`ShardedExecutor::replan`] — fresh
    /// executors for **every shard** in one write, so a swap can never
    /// leave shards running different plan generations, at whatever
    /// width a concurrent [`CompiledModel::set_shards`] left. In-flight
    /// `execute` calls finish on the executor they claimed; later calls
    /// (and `Server` requests) run the new plan. Old profiles are
    /// discarded with the old executors, so a subsequent `recalibrate`
    /// fits the *new* plan's measurements. Concurrent calls run one
    /// after the other.
    ///
    /// The intra-kernel split threshold is re-derived along the way: with
    /// the default `RuntimeConfig::split_threshold_us = None`, every
    /// fresh executor prices its threshold from its own plan
    /// (`total_latency / lanes`), and the re-orchestrated plan carries
    /// *calibrated* — i.e. measured-host — latencies, so which kernels
    /// are tile-eligible is re-decided in the same units the new plan
    /// is priced in. An explicit threshold is carried over verbatim
    /// (it is the caller's responsibility that its units match the
    /// calibrated pricing).
    ///
    /// # Errors
    ///
    /// Returns [`KorchError::Exec`] when no profiled run exists yet, and
    /// propagates orchestration/compilation failures (the current plan
    /// stays in place on any error).
    pub fn recalibrate(&self, korch: &Korch) -> Result<RecalibrationReport, KorchError> {
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
        let shards = self.exec.shards();
        let program = &shards[0];
        let base = Profiler::new(korch.device().clone());
        // One snapshot, taken up front: serving continues while we fit,
        // so reading the executors twice would score the fit against
        // measurements it was not fitted from.
        let merged = merged_profile(&shards);
        let samples = merged.calibration_samples(program.graph(), program.plan());
        if samples.is_empty() {
            return Err(KorchError::Exec(ExecError::Input(
                "recalibrate needs at least one profiled run; execute the model first".into(),
            )));
        }
        let calibration = Calibration::fit(&base, &samples);
        let fitted = base.clone().with_calibration(calibration.clone());
        let model_error_before = model_error(&merged, program, &base).unwrap_or(0.0);
        let model_error_after = model_error(&merged, program, &fitted).unwrap_or(0.0);
        let sources = self.pricing().optimized.clone();
        let replan_start = recal_now();

        // Re-orchestrate every partition's chosen variant with the
        // calibrated profiler (the transform search already picked the
        // variant; kernel selection is re-priced in measured host time),
        // then stitch the new plans into the one program every shard will
        // run.
        let orchestrator = Orchestrator::new(korch.device().clone())
            .with_config(korch.config().orchestrator.clone())
            .with_profiler(fitted);
        let plans = sources
            .partitions()
            .iter()
            .map(|p| Ok(orchestrator.orchestrate(&p.part.graph)?.plan))
            .collect::<Result<Vec<Plan>, KorchError>>()?;
        let optimized = sources.replanned(plans);
        let (graph, plan) = stitch(&optimized)?;
        // Debug builds statically verify the freshly stitched program
        // before it can be swapped in: dependency edges, tile
        // decompositions and the arena lifetime program are
        // all checked on the artifact the new executors will run (every
        // shard compiles the same one). On any violation the error
        // propagates and the current plan stays in place.
        #[cfg(debug_assertions)]
        korch_verify::check_executor(&PlanExecutor::new(&graph, &plan, self.runtime.clone())?)?;
        let report = RecalibrationReport {
            calibration: calibration.clone(),
            model_error_before,
            model_error_after,
            latency_ms: optimized.latency_ms(),
        };
        let swap_start = recal_now();
        let generation = {
            let mut pricing = self.pricing.write().expect("pricing poisoned");
            let generation = self.exec.replan(&graph, &plan, self.runtime.clone())?;
            *pricing = Pricing {
                optimized,
                calibration,
            };
            generation
        };
        if let Some(t) = &self.runtime.telemetry {
            let rec = t.recorder();
            if rec.is_enabled() {
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
        }
        Ok(report)
    }

    /// Executes the compiled program on the least-loaded live shard,
    /// retrying on a sibling shard if that shard's run fails (exactly one
    /// result is produced either way — see `korch_runtime::ShardRouter`).
    /// Malformed requests (arity, shapes) are client errors and rejected
    /// before routing, so they never count against a shard.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on input mismatches or kernel failures (a
    /// kernel failure only after every shard declined the run).
    pub fn execute(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        self.exec.run(inputs)
    }
}

impl Model for CompiledModel {
    fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        self.execute(inputs)
    }
}

impl ShardControl for CompiledModel {
    fn set_shards(&self, n: usize) -> Result<(), ExecError> {
        CompiledModel::set_shards(self, n)
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        CompiledModel::shard_stats(self)
    }
}

/// A [`CompiledModel`] bundled with the [`Korch`] pipeline that built it,
/// so it can re-tune itself: the [`SelfTune`] implementation lets
/// `korch_runtime::Server::start_tuned` measure drift and trigger
/// recalibration hands-free while the model keeps serving (plan swaps are
/// atomic; in-flight requests finish on the plan they started with).
pub struct SelfTuningModel {
    korch: Korch,
    model: CompiledModel,
}

impl SelfTuningModel {
    /// Bundles a compiled model with its pipeline.
    pub fn new(korch: Korch, model: CompiledModel) -> Self {
        Self { korch, model }
    }

    /// The compiled model being served.
    pub fn model(&self) -> &CompiledModel {
        &self.model
    }

    /// The pipeline used for re-orchestration.
    pub fn korch(&self) -> &Korch {
        &self.korch
    }
}

impl Model for SelfTuningModel {
    fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        self.model.execute(inputs)
    }
}

impl ShardControl for SelfTuningModel {
    fn set_shards(&self, n: usize) -> Result<(), ExecError> {
        self.model.set_shards(n)
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        self.model.shard_stats()
    }
}

impl SelfTune for SelfTuningModel {
    fn model_error(&self) -> Option<f64> {
        self.model
            .current_model_error(&Profiler::new(self.korch.device().clone()))
    }

    fn retune(&self) -> Result<TuneOutcome, String> {
        let report = self
            .model
            .recalibrate(&self.korch)
            .map_err(|e| e.to_string())?;
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
        let report = korch.recalibrate(&compiled).unwrap();
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

    #[test]
    fn sharded_model_routes_replans_all_shards_and_stays_bit_identical() {
        let korch = Korch::new(Device::v100(), KorchConfig::default());
        let g = two_block_model();
        let compiled = korch
            .compile_with(&g, &RuntimeConfig::with_lanes(2))
            .unwrap();
        let inputs = vec![Tensor::random(vec![16, 32], 4)];
        let reference = compiled.execute(&inputs).unwrap();
        compiled.set_shards(3).unwrap();
        assert_eq!(compiled.shard_count(), 3);
        // Routing spreads serialized traffic; every run stays bit-identical.
        for _ in 0..6 {
            let out = compiled.execute(&inputs).unwrap();
            for (a, b) in reference.iter().zip(&out) {
                assert_eq!(a.as_slice(), b.as_slice(), "sharded run diverged");
            }
        }
        let stats = compiled.shard_stats();
        assert_eq!(stats.len(), 3);
        // 7 successes total: the pre-shard run's counter is inherited by
        // the re-provisioned router (shard 0 keeps its books).
        assert_eq!(stats.iter().map(|s| s.served).sum::<u64>(), 7);
        assert!(
            stats.iter().all(|s| s.served > 0),
            "rotating tie-break must spread serialized runs: {stats:?}"
        );
        assert_eq!(stats.iter().map(|s| s.failures).sum::<u64>(), 0);
        // Profiles aggregate across shards: 1 unsharded + 6 sharded runs.
        assert_eq!(compiled.profiles().iter().map(|p| p.runs).sum::<u64>(), 7);
        // A recalibration swap re-plans *all* shards in one generation.
        assert_eq!(compiled.plan_generation(), 0);
        let report = korch.recalibrate(&compiled).unwrap();
        assert!(report.model_error_after <= report.model_error_before + 1e-9);
        assert_eq!(compiled.shard_count(), 3, "swap must keep the shard set");
        assert_eq!(compiled.plan_generation(), 1);
        let snapshots = compiled.shard_snapshots();
        for (s, shard) in snapshots.iter().enumerate() {
            assert!(
                shard.iter().all(|p| p.executor.profile().runs == 0),
                "shard {s} must run a fresh executor after the swap"
            );
        }
        // Fresh shard set serves the same bytes.
        let out = compiled.execute(&inputs).unwrap();
        for (a, b) in reference.iter().zip(&out) {
            assert_eq!(a.as_slice(), b.as_slice(), "post-swap run diverged");
        }
    }

    /// A multi-partition program compiles to **one** stitched executor per
    /// shard — `shards × 1` `PlanExecutor`s, not `shards × partitions` —
    /// and a recalibration re-orchestrates every partition, re-stitches
    /// and keeps that shape.
    #[test]
    fn multi_partition_model_runs_one_executor_per_shard() {
        let config = KorchConfig {
            partition_max_prims: 5,
            ..Default::default()
        };
        let korch = Korch::new(Device::v100(), config);
        let optimized = korch.optimize(&two_block_model()).unwrap();
        assert!(optimized.partitions().len() >= 2, "want several partitions");
        let compiled =
            CompiledModel::from_optimized(&optimized, &RuntimeConfig::with_lanes(2)).unwrap();
        compiled.set_shards(3).unwrap();
        let inputs = vec![Tensor::random(vec![16, 32], 4)];
        let oracle = optimized.execute(&inputs).unwrap();
        for generation in 0..2 {
            let snapshots = compiled.shard_snapshots();
            assert_eq!(snapshots.len(), 3);
            assert!(snapshots.iter().all(|shard| shard.len() == 1));
            assert_eq!(compiled.partitions().len(), 1);
            assert_eq!(compiled.profiles().len(), 1);
            let program = &snapshots[0][0];
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
            korch.recalibrate(&compiled).unwrap();
        }
        // The sources kept for the next recalibration are the ones running.
        assert_eq!(
            compiled.kernel_count(),
            compiled.pricing().optimized.kernel_count()
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
    /// here via a zero split threshold) must stay bit-identical to the
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
            split_threshold_us: Some(0.0),
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
            "a zero split threshold must engage tiling in at least one partition"
        );
        let report = korch.recalibrate(&compiled).unwrap();
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
            compiled.recalibrate(&korch).is_err(),
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
        assert!(!compiled.calibration_samples().is_empty());
        let cal = compiled.calibrate(&Profiler::new(Device::v100()));
        assert!(cal.memory_scale.is_finite() && cal.memory_scale > 0.0);
        let report = compiled.memory_report();
        assert!(report.peak_resident_bytes <= report.allocate_everything_bytes);
    }
}
