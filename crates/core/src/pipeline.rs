//! The end-to-end Korch pipeline (paper Fig. 1): graph partitioner →
//! operator fission → primitive-graph optimizer → kernel orchestration →
//! executable.
//!
//! Orchestration runs on every core. The partitions are independent
//! subproblems, and so are the transform variants of each: every distinct
//! variant of every distinct partition is one job of
//! [`Orchestrator::orchestrate_all`], grouped by partition. Every
//! partition and variant enters orchestration in its canonical numbering
//! ([`PrimGraph::canonical`]), so graphs equal up to node numbering are one
//! graph and plan alike; a variant equal to an earlier one of its
//! partition is dropped before orchestrating, and each variant after the
//! first is solved with a cutoff at the cheapest warm start before it, so
//! it pays only for plans that could win. The
//! results are folded sequentially in (partition, variant) order, so the
//! chosen variants, plans and [`PipelineStats`] are those of
//! orchestrating the distinct variants one after the other without
//! cutoffs.

use crate::partition::{partition, Partition};
use korch_cost::{Device, Micros};
use korch_exec::{execute_ops, execute_plan, ExecError};
use korch_fission::FissionEngine;
use korch_ir::{IrError, OpGraph, PortRef, PrimGraph, PrimKind, PrimStats};
use korch_orch::{OrchError, Orchestration, Orchestrator, OrchestratorConfig, Plan};
use korch_tensor::Tensor;
use korch_transform::{optimize_graph, SearchConfig};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

/// Error produced by the pipeline.
#[derive(Debug)]
pub enum KorchError {
    /// Graph construction / fission error.
    Ir(IrError),
    /// Orchestration error.
    Orch(OrchError),
    /// Execution error during verification.
    Exec(ExecError),
    /// A compiled artifact failed static verification.
    Verify(korch_verify::VerifyError),
}

impl fmt::Display for KorchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KorchError::Ir(e) => write!(f, "ir: {e}"),
            KorchError::Orch(e) => write!(f, "orchestration: {e}"),
            KorchError::Exec(e) => write!(f, "execution: {e}"),
            KorchError::Verify(e) => write!(f, "verification: {e}"),
        }
    }
}

impl Error for KorchError {}

impl From<IrError> for KorchError {
    fn from(e: IrError) -> Self {
        KorchError::Ir(e)
    }
}
impl From<OrchError> for KorchError {
    fn from(e: OrchError) -> Self {
        KorchError::Orch(e)
    }
}
impl From<ExecError> for KorchError {
    fn from(e: ExecError) -> Self {
        KorchError::Exec(e)
    }
}
impl From<korch_verify::VerifyError> for KorchError {
    fn from(e: korch_verify::VerifyError) -> Self {
        KorchError::Verify(e)
    }
}

/// Configuration of the end-to-end pipeline.
#[derive(Debug, Clone)]
pub struct KorchConfig {
    /// Maximum computational primitives per partition.
    pub partition_max_prims: usize,
    /// Transformation search budget per partition.
    pub transform: SearchConfig,
    /// How many of the transform search's graph variants (the original
    /// first) a partition takes. Each is put in its canonical numbering
    /// and the first of each [`PrimGraph::fingerprint`] is orchestrated,
    /// so at most this many *distinct* variants are. The cheapest plan
    /// wins.
    pub variants_to_orchestrate: usize,
    /// Orchestrator settings (state cap, identification options, solver
    /// budget).
    pub orchestrator: OrchestratorConfig,
    /// Memoize per-partition outcomes by [`PrimGraph::fingerprint`],
    /// mirroring the paper's TVM-database reuse. Partitions come in their
    /// canonical numbering, so the key is free of numbering, but it still
    /// hashes `ConstInit::Random` seeds: repeated blocks of the benchmark
    /// models carry their own weights, so the cache has 0 hits on every
    /// model (a seed-blind key would need a hit to rebind constants).
    /// Whether or not it is on, the tuning clock keeps one database per
    /// model.
    pub cache: bool,
}

impl Default for KorchConfig {
    fn default() -> Self {
        Self {
            partition_max_prims: 28,
            transform: SearchConfig::default(),
            variants_to_orchestrate: 3,
            orchestrator: OrchestratorConfig::default(),
            cache: true,
        }
    }
}

/// Aggregate statistics of one pipeline run (Table 2 columns).
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Primitive-graph node count after fission (Table 2 "# Nodes").
    pub prim_nodes: usize,
    /// Candidate kernels that survive the rejection heuristics and are
    /// profiled + fed to the BLP, across all partitions (Table 2
    /// "# Candidate Kernels"; the paper likewise counts post-rejection).
    pub candidate_kernels: usize,
    /// Simulated tuning time in seconds, the one tuning clock: one
    /// tuning database for the whole model, the union of every
    /// orchestrated graph's [`korch_orch::SolveReport::tuned`] in
    /// (partition, variant) order, each distinct `(spec, backend)`
    /// charged once. Partition-cache hits and dropped duplicate variants
    /// are orchestrated by nobody and charge nothing (Table 2 "Tuning
    /// Time").
    pub tuning_time_s: f64,
    /// Number of partitions.
    pub partitions: usize,
    /// Partition-cache hits.
    pub cache_hits: usize,
    /// Execution states across all orchestrated graphs.
    pub states: usize,
    /// Per-category primitive counts.
    pub prim_stats: PrimStats,
}

/// One optimized partition: the chosen graph variant plus its plan.
#[derive(Debug, Clone)]
pub struct OptimizedPartition {
    /// The partition plumbing; `part.graph` holds the *chosen variant*.
    pub part: Partition,
    /// The orchestrated kernel plan for that variant.
    pub plan: Plan,
}

/// The output of [`Korch::optimize`]: an executable, verifiable program.
#[derive(Debug, Clone)]
pub struct Optimized {
    parts: Vec<OptimizedPartition>,
    graph_input_ports: Vec<PortRef>,
    graph_output_ports: Vec<PortRef>,
    stats: PipelineStats,
    /// The orchestrator that planned every partition: the device, the
    /// orchestration settings and the (uncalibrated) profiler the plans
    /// are priced with.
    orchestrator: Orchestrator,
}

impl Optimized {
    /// The same program with every partition's plan replaced (`plans` in
    /// partition order) — what a recalibration's re-orchestration
    /// produces.
    pub(crate) fn replanned(mut self, plans: Vec<Plan>) -> Self {
        for (part, plan) in self.parts.iter_mut().zip(plans) {
            part.plan = plan;
        }
        self
    }

    /// The orchestrator that planned this program.
    pub(crate) fn orchestrator(&self) -> &Orchestrator {
        &self.orchestrator
    }

    /// Simulated end-to-end latency in milliseconds (paper Eq. 2: the sum
    /// of all selected kernels across all partitions).
    pub fn latency_ms(&self) -> f64 {
        let total: Micros = self.parts.iter().map(|p| p.plan.total_latency).sum();
        total.as_millis()
    }

    /// Total number of kernel launches.
    pub fn kernel_count(&self) -> usize {
        self.parts.iter().map(|p| p.plan.kernel_count()).sum()
    }

    /// Pipeline statistics (Table 2).
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// The optimized partitions in execution order.
    pub fn partitions(&self) -> &[OptimizedPartition] {
        &self.parts
    }

    /// The program's input ports, in feed order.
    pub fn input_ports(&self) -> &[PortRef] {
        &self.graph_input_ports
    }

    /// The program's output ports.
    pub fn output_ports(&self) -> &[PortRef] {
        &self.graph_output_ports
    }

    /// Executes the optimized program on the CPU reference kernels.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if inputs mismatch the program.
    pub fn execute(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        if inputs.len() != self.graph_input_ports.len() {
            return Err(ExecError::Input(format!(
                "program takes {} inputs, {} were fed",
                self.graph_input_ports.len(),
                inputs.len()
            )));
        }
        let mut env: HashMap<PortRef, Tensor> = self
            .graph_input_ports
            .iter()
            .copied()
            .zip(inputs.iter().cloned())
            .collect();
        for opt in &self.parts {
            let part_inputs: Vec<Tensor> = opt
                .part
                .inputs
                .iter()
                .map(|outer| {
                    env.get(outer).cloned().ok_or(ExecError::NotMaterialized {
                        node: outer.node.0,
                        port: outer.port,
                    })
                })
                .collect::<Result<_, _>>()?;
            let outs = execute_plan(&opt.part.graph, &opt.plan, &part_inputs)?;
            for (outer, t) in opt.part.outputs.iter().zip(outs) {
                env.insert(*outer, t);
            }
        }
        self.graph_output_ports
            .iter()
            .map(|p| {
                env.get(p).cloned().ok_or(ExecError::NotMaterialized {
                    node: p.node.0,
                    port: p.port,
                })
            })
            .collect()
    }

    /// Verifies the optimized program against the reference operator-graph
    /// semantics on the given inputs; returns the maximum absolute error.
    ///
    /// # Errors
    ///
    /// Returns [`KorchError::Exec`] on execution failures and when the
    /// program returns another number of outputs, or another shape, than
    /// the reference.
    pub fn verify(&self, op_graph: &OpGraph, inputs: &[Tensor]) -> Result<f32, KorchError> {
        let reference = execute_ops(op_graph, inputs)?;
        let optimized = self.execute(inputs)?;
        if optimized.len() != reference.len() {
            return Err(KorchError::Exec(ExecError::Input(format!(
                "program returns {} outputs, the reference {}",
                optimized.len(),
                reference.len()
            ))));
        }
        let mut max_err = 0f32;
        for (a, b) in reference.iter().zip(&optimized) {
            max_err = max_err.max(a.max_abs_diff(b).map_err(|e| {
                KorchError::Exec(ExecError::Input(format!("output shape mismatch: {e}")))
            })?);
        }
        Ok(max_err)
    }
}

/// What optimizing one partition yields — the value the fingerprint
/// cache memoizes, so a repeated block reuses the variant and plan and is
/// charged its candidates and states but no tuning time.
struct PartitionRecord {
    variant: PrimGraph,
    plan: Plan,
    candidates: usize,
    states: usize,
}

/// Folds one partition's orchestrated variants (the original partition
/// graph plus the best distinct transformed ones, in search order) with
/// their orchestration results, in that order: an infeasible or cut-off
/// variant is skipped, the first strictly cheaper plan wins, and any
/// other error is returned as it is met. The results come from jobs that
/// ran on every core; folding them in order is what keeps the choice that
/// of orchestrating the variants one after the other.
fn optimize_partition(
    variants: Vec<PrimGraph>,
    results: Vec<Result<Orchestration, OrchError>>,
) -> Result<PartitionRecord, KorchError> {
    let mut best: Option<(PrimGraph, Orchestration)> = None;
    for (variant, result) in variants.into_iter().zip(results) {
        let orch = match result {
            Ok(o) => o,
            Err(OrchError::Infeasible(_) | OrchError::Cutoff) => continue,
            Err(e) => return Err(e.into()),
        };
        let better = best
            .as_ref()
            .is_none_or(|(_, b)| orch.plan.total_latency.0 < b.plan.total_latency.0);
        if better {
            best = Some((variant, orch));
        }
    }
    let (variant, orch) = best.ok_or_else(|| {
        KorchError::Orch(OrchError::Infeasible(
            "no variant could be orchestrated".into(),
        ))
    })?;
    Ok(PartitionRecord {
        variant,
        plan: orch.plan,
        candidates: orch.report.num_candidates,
        states: orch.num_states,
    })
}

/// Folds the grouped job results of [`Orchestrator::orchestrate_all`]
/// (every distinct partition's variants) into one record per distinct
/// partition, in partition order — the first error in (partition,
/// variant) order is the one returned — and the model's tuning clock:
/// every orchestrated graph's tuning database unioned in that order, each
/// distinct `(spec, backend)` charged once.
fn fold_partitions(
    variants: Vec<Vec<PrimGraph>>,
    results: Vec<Vec<Result<Orchestration, OrchError>>>,
) -> Result<(Vec<PartitionRecord>, f64), KorchError> {
    let mut tuned = HashSet::new();
    let mut tuning_time_s = 0.0;
    for orch in results.iter().flatten().flatten() {
        for t in &orch.report.tuned {
            if tuned.insert((&t.spec, t.backend)) {
                tuning_time_s += t.tuning_s;
            }
        }
    }
    let records = (variants.into_iter().zip(results))
        .map(|(v, r)| optimize_partition(v, r))
        .collect::<Result<_, _>>()?;
    Ok((records, tuning_time_s))
}

/// The end-to-end optimizer (paper Fig. 1).
#[derive(Debug, Clone)]
pub struct Korch {
    device: Device,
    config: KorchConfig,
}

impl Korch {
    /// Creates a pipeline for a device.
    pub fn new(device: Device, config: KorchConfig) -> Self {
        Self { device, config }
    }

    /// The device this pipeline targets.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &KorchConfig {
        &self.config
    }

    /// Optimizes a tensor program (operator graph).
    ///
    /// # Errors
    ///
    /// Returns [`KorchError`] on IR or orchestration failures.
    pub fn optimize(&self, g: &OpGraph) -> Result<Optimized, KorchError> {
        let fission = FissionEngine::new().fission(g)?;
        self.optimize_prims(&fission.prim_graph)
    }

    /// Optimizes an already-fissioned primitive graph.
    ///
    /// Every distinct partition (the fingerprint cache decides which are
    /// distinct) gets its transform variants, of which the first
    /// [`KorchConfig::variants_to_orchestrate`] are taken, each in its
    /// canonical numbering, and those equal to an earlier one dropped. Each
    /// remaining (partition, variant) is one job of
    /// [`Orchestrator::orchestrate_all`], which runs them on every core,
    /// a later variant cut off at the cheapest warm start before it. The
    /// results are then folded sequentially in partition order (see
    /// `optimize_partition`), so the plans, chosen variants and
    /// [`PipelineStats`] are those of orchestrating the distinct
    /// variants one after the other without cutoffs.
    ///
    /// # Errors
    ///
    /// Returns [`KorchError`] on orchestration failures: the first one in
    /// (partition, variant) order.
    pub fn optimize_prims(&self, pg: &PrimGraph) -> Result<Optimized, KorchError> {
        let parts = partition(pg, self.config.partition_max_prims)?;
        let orchestrator =
            Orchestrator::new(self.device.clone()).with_config(self.config.orchestrator.clone());
        // `distinct[d]` is the first partition of each fingerprint and
        // `record_of[i]` the distinct partition partition `i` reuses.
        let mut distinct: Vec<&PrimGraph> = Vec::new();
        let mut record_of = Vec::with_capacity(parts.len());
        let mut first_of: HashMap<u64, usize> = HashMap::new();
        for part in &parts {
            let d = if self.config.cache {
                *first_of
                    .entry(part.graph.fingerprint())
                    .or_insert(distinct.len())
            } else {
                distinct.len()
            };
            if d == distinct.len() {
                distinct.push(&part.graph);
            }
            record_of.push(d);
        }
        let take = self.config.variants_to_orchestrate.max(1);
        let variants: Vec<Vec<PrimGraph>> = distinct
            .iter()
            .map(|g| {
                let mut seen = HashSet::with_capacity(take);
                (optimize_graph(g, &self.config.transform).iter())
                    .take(take)
                    .map(PrimGraph::canonical)
                    .filter(|v| seen.insert(v.fingerprint()))
                    .collect()
            })
            .collect();
        let groups: Vec<Vec<&PrimGraph>> = variants.iter().map(|v| v.iter().collect()).collect();
        let results = orchestrator.orchestrate_all(&groups);
        let (records, tuning_time_s) = fold_partitions(variants, results)?;

        let mut stats = PipelineStats {
            prim_nodes: pg.nodes().iter().filter(|n| !n.kind.is_source()).count(),
            partitions: parts.len(),
            tuning_time_s,
            prim_stats: PrimStats::of(pg),
            ..Default::default()
        };
        let mut optimized_parts = Vec::with_capacity(parts.len());
        let mut opened = 0;
        for (part, d) in parts.into_iter().zip(record_of) {
            let rec = &records[d];
            // Records are numbered in partition order, so a partition
            // that does not open the next one is a cache hit.
            if d < opened {
                stats.cache_hits += 1;
            } else {
                opened += 1;
            }
            stats.candidate_kernels += rec.candidates;
            stats.states += rec.states;
            optimized_parts.push(OptimizedPartition {
                part: Partition {
                    graph: rec.variant.clone(),
                    ..part
                },
                plan: rec.plan.clone(),
            });
        }
        let graph_input_ports: Vec<PortRef> = pg
            .iter()
            .filter(|(_, n)| matches!(n.kind, PrimKind::Input { .. }))
            .map(|(id, _)| id.into())
            .collect();
        Ok(Optimized {
            parts: optimized_parts,
            graph_input_ports,
            graph_output_ports: pg.outputs().to_vec(),
            stats,
            orchestrator,
        })
    }

    /// Optimizes a tensor program and compiles it onto the parallel
    /// runtime with default [`korch_runtime::RuntimeConfig`] (lanes sized
    /// to the host's cores).
    ///
    /// # Errors
    ///
    /// Returns [`KorchError`] on IR, orchestration or compilation failures.
    pub fn compile(&self, g: &OpGraph) -> Result<crate::CompiledModel, KorchError> {
        self.compile_with(g, &korch_runtime::RuntimeConfig::default())
    }

    /// [`Korch::compile`] with an explicit runtime configuration.
    ///
    /// # Errors
    ///
    /// Returns [`KorchError`] on IR, orchestration or compilation failures.
    pub fn compile_with(
        &self,
        g: &OpGraph,
        runtime: &korch_runtime::RuntimeConfig,
    ) -> Result<crate::CompiledModel, KorchError> {
        let optimized = self.optimize(g)?;
        crate::CompiledModel::from_optimized(&optimized, runtime)
    }

    /// Convenience wrapper: optimize and functionally verify against the
    /// operator-graph reference on random inputs; returns the optimized
    /// program and the maximum absolute error.
    ///
    /// # Errors
    ///
    /// Returns [`KorchError`] on any stage failure.
    pub fn optimize_verified(
        &self,
        g: &OpGraph,
        seed: u64,
    ) -> Result<(Optimized, f32), KorchError> {
        let optimized = self.optimize(g)?;
        let inputs: Vec<Tensor> = g
            .nodes()
            .iter()
            .filter_map(|n| match &n.kind {
                korch_ir::OpKind::Input { shape } => Some(shape.clone()),
                _ => None,
            })
            .enumerate()
            .map(|(i, shape)| Tensor::random(shape, seed.wrapping_add(i as u64)))
            .collect();
        let err = optimized.verify(g, &inputs)?;
        Ok((optimized, err))
    }
}

#[cfg(test)]
impl Optimized {
    /// A hand-assembled program, for tests that need partitions the
    /// pipeline would not produce.
    pub(crate) fn assemble(
        parts: Vec<OptimizedPartition>,
        graph_input_ports: Vec<PortRef>,
        graph_output_ports: Vec<PortRef>,
    ) -> Self {
        Self {
            parts,
            graph_input_ports,
            graph_output_ports,
            stats: PipelineStats::default(),
            orchestrator: Orchestrator::new(Device::v100()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use korch_ir::{ConstInit, OpKind};
    use korch_tensor::UnaryOp;

    /// Small CNN-ish block: conv -> instance norm -> relu -> softmax tail.
    fn small_model() -> OpGraph {
        let mut g = OpGraph::new();
        let x = g
            .add(
                OpKind::Input {
                    shape: vec![1, 3, 8, 8],
                },
                vec![],
            )
            .unwrap();
        let w = g
            .add(
                OpKind::Constant {
                    shape: vec![4, 3, 3, 3],
                    init: ConstInit::Random(1),
                },
                vec![],
            )
            .unwrap();
        let conv = g
            .add(
                OpKind::Conv2d {
                    stride: 1,
                    padding: 1,
                    groups: 1,
                    bias: false,
                },
                vec![x.into(), w.into()],
            )
            .unwrap();
        let s = g
            .add(
                OpKind::Constant {
                    shape: vec![4],
                    init: ConstInit::Ones,
                },
                vec![],
            )
            .unwrap();
        let b = g
            .add(
                OpKind::Constant {
                    shape: vec![4],
                    init: ConstInit::Zeros,
                },
                vec![],
            )
            .unwrap();
        let inorm = g
            .add(
                OpKind::InstanceNorm { eps: 1e-5 },
                vec![conv.into(), s.into(), b.into()],
            )
            .unwrap();
        let relu = g
            .add(OpKind::Unary(UnaryOp::Relu), vec![inorm.into()])
            .unwrap();
        let rshp = g
            .add(OpKind::Reshape { shape: vec![4, 64] }, vec![relu.into()])
            .unwrap();
        let sm = g
            .add(OpKind::Softmax { axis: 1 }, vec![rshp.into()])
            .unwrap();
        g.mark_output(sm).unwrap();
        g
    }

    #[test]
    fn pipeline_end_to_end_verifies() {
        let korch = Korch::new(Device::v100(), KorchConfig::default());
        let g = small_model();
        let (optimized, err) = korch.optimize_verified(&g, 42).unwrap();
        assert!(err < 1e-3, "verification error {err}");
        assert!(optimized.latency_ms() > 0.0);
        assert!(optimized.kernel_count() >= 1);
        assert!(optimized.kernel_count() < optimized.stats().prim_nodes);
    }

    #[test]
    fn fusion_beats_one_kernel_per_primitive() {
        let korch = Korch::new(Device::v100(), KorchConfig::default());
        let g = small_model();
        let optimized = korch.optimize(&g).unwrap();
        // Unfused floor: one kernel per primitive.
        let fission = FissionEngine::new().fission(&g).unwrap();
        let n_prims = fission
            .prim_graph
            .nodes()
            .iter()
            .filter(|n| !n.kind.is_source())
            .count();
        assert!(
            optimized.kernel_count() * 2 <= n_prims,
            "expected substantial fusion: {} kernels for {} prims",
            optimized.kernel_count(),
            n_prims
        );
    }

    #[test]
    fn cache_hits_on_repeated_blocks() {
        // Two identical softmax blocks back to back.
        let mut g = OpGraph::new();
        let x = g
            .add(
                OpKind::Input {
                    shape: vec![32, 64],
                },
                vec![],
            )
            .unwrap();
        let s1 = g.add(OpKind::Softmax { axis: 1 }, vec![x.into()]).unwrap();
        let r1 = g
            .add(OpKind::Unary(UnaryOp::Relu), vec![s1.into()])
            .unwrap();
        let s2 = g.add(OpKind::Softmax { axis: 1 }, vec![r1.into()]).unwrap();
        let r2 = g
            .add(OpKind::Unary(UnaryOp::Relu), vec![s2.into()])
            .unwrap();
        g.mark_output(r2).unwrap();
        let config = KorchConfig {
            partition_max_prims: 5,
            ..Default::default()
        };
        let korch = Korch::new(Device::v100(), config);
        let optimized = korch.optimize(&g).unwrap();
        assert!(
            optimized.stats().cache_hits >= 1,
            "stats: {:?}",
            optimized.stats()
        );
    }

    #[test]
    fn stats_are_populated() {
        let korch = Korch::new(Device::a100(), KorchConfig::default());
        let g = small_model();
        let optimized = korch.optimize(&g).unwrap();
        let s = optimized.stats();
        assert!(s.prim_nodes >= 15);
        assert!(s.candidate_kernels > s.prim_nodes);
        assert!(s.tuning_time_s > 0.0);
        assert!(s.partitions >= 1);
        assert!(s.states > 0);
    }

    #[test]
    fn verify_rejects_a_missing_output() {
        // x -> relu and x -> tanh are the reference's two outputs; the
        // program computes relu alone.
        let mut g = OpGraph::new();
        let x = g.add(OpKind::Input { shape: vec![8] }, vec![]).unwrap();
        let relu = g.add(OpKind::Unary(UnaryOp::Relu), vec![x.into()]).unwrap();
        let tanh = g.add(OpKind::Unary(UnaryOp::Tanh), vec![x.into()]).unwrap();
        g.mark_output(relu).unwrap();
        let mut part = PrimGraph::new();
        let input = part
            .add(PrimKind::Input { shape: vec![8] }, vec![])
            .unwrap();
        let ew = korch_ir::EwFn::Unary(UnaryOp::Relu);
        let y = part
            .add(PrimKind::Elementwise(ew), vec![input.into()])
            .unwrap();
        part.mark_output(y).unwrap();
        let plan = Orchestrator::new(Device::v100())
            .orchestrate(&part)
            .unwrap()
            .plan;
        let outer = |node| PortRef::from(korch_ir::NodeId(node));
        let part = Partition {
            graph: part,
            inputs: vec![outer(0)],
            outputs: vec![outer(1)],
        };
        let program = Optimized::assemble(
            vec![OptimizedPartition { part, plan }],
            vec![outer(0)],
            vec![outer(1)],
        );
        let inputs = [Tensor::random(vec![8], 3)];
        assert_eq!(program.verify(&g, &inputs).unwrap(), 0.0);
        g.mark_output(tanh).unwrap();
        assert!(matches!(
            program.verify(&g, &inputs),
            Err(KorchError::Exec(ExecError::Input(_)))
        ));
    }

    #[test]
    fn wrong_input_arity_rejected() {
        let korch = Korch::new(Device::v100(), KorchConfig::default());
        let g = small_model();
        let optimized = korch.optimize(&g).unwrap();
        assert!(optimized.execute(&[]).is_err());
    }

    /// Variant `i` of a fold test: told apart by its node count.
    fn variant(i: usize) -> PrimGraph {
        let mut g = PrimGraph::new();
        for _ in 0..=i {
            g.add(PrimKind::Input { shape: vec![1] }, vec![]).unwrap();
        }
        g
    }

    /// A tuning-database entry: a kernel of `n_prims` primitives on the
    /// generated backend, tuned in `tuning_s`.
    fn tuned(n_prims: usize, tuning_s: f64) -> korch_orch::TunedKernel {
        korch_orch::TunedKernel {
            spec: korch_cost::KernelSpec {
                n_prims,
                input_bytes: 0,
                output_bytes: 0,
                pointwise_flops: 0,
                linear: vec![],
                passes: 1,
                pattern_classes: 1,
                has_opaque: false,
            },
            backend: korch_cost::Backend::Generated,
            tuning_s,
        }
    }

    /// An orchestration whose plan costs `us` and whose tuning database
    /// is `tuned`.
    fn solved(us: f64, tuned: Vec<korch_orch::TunedKernel>) -> Result<Orchestration, OrchError> {
        Ok(Orchestration {
            plan: Plan {
                kernels: Vec::new(),
                total_latency: Micros(us),
            },
            num_states: 1,
            report: korch_orch::SolveReport {
                tuned,
                ..Default::default()
            },
        })
    }

    fn infeasible() -> Result<Orchestration, OrchError> {
        Err(OrchError::Infeasible("test".into()))
    }

    fn fold(results: Vec<Result<Orchestration, OrchError>>) -> Result<PartitionRecord, KorchError> {
        optimize_partition((0..results.len()).map(variant).collect(), results)
    }

    #[test]
    fn fold_skips_an_infeasible_or_cut_off_variant() {
        let rec = fold(vec![infeasible(), solved(7.0, vec![])]).unwrap();
        assert_eq!(rec.variant.len(), 2, "variant 1 wins");
        assert_eq!(rec.plan.total_latency.0, 7.0);
        let rec = fold(vec![solved(9.0, vec![]), Err(OrchError::Cutoff)]).unwrap();
        assert_eq!(rec.variant.len(), 1, "variant 0 wins");
    }

    #[test]
    fn fold_keeps_the_first_of_equal_plans() {
        let rec = fold(vec![
            solved(5.0, vec![]),
            solved(4.0, vec![]),
            solved(4.0, vec![]),
        ])
        .unwrap();
        assert_eq!(rec.variant.len(), 2, "strict < keeps variant 1");
    }

    #[test]
    fn fold_of_only_infeasible_variants_fails() {
        match fold(vec![infeasible(), infeasible()]) {
            Err(KorchError::Orch(OrchError::Infeasible(why))) => {
                assert_eq!(why, "no variant could be orchestrated")
            }
            other => panic!(
                "expected infeasible, got {:?}",
                other.map(|r| r.variant.len())
            ),
        }
    }

    #[test]
    fn fold_returns_the_first_error_in_partition_variant_order() {
        let variants = |n: usize| (0..n).map(variant).collect::<Vec<_>>();
        let ok = || solved(1.0, vec![]);
        // Partition 0 is feasible; partition 1's variant 1 fails before
        // its variant 2 and before partition 2 — and after a feasible
        // variant 0, which does not save the partition.
        let results = vec![
            vec![ok(), infeasible()],
            vec![
                ok(),
                Err(OrchError::SolverBudget),
                Err(OrchError::Unschedulable),
            ],
            vec![Err(OrchError::Unschedulable)],
        ];
        let err = fold_partitions(vec![variants(2), variants(3), variants(1)], results);
        assert!(
            matches!(err, Err(KorchError::Orch(OrchError::SolverBudget))),
            "{:?}",
            err.map(|(r, _)| r.len())
        );
        // An infeasible partition ahead of a failing one is the error.
        let results = vec![vec![infeasible()], vec![Err(OrchError::SolverBudget)]];
        let err = fold_partitions(vec![variants(1), variants(1)], results);
        assert!(matches!(
            err,
            Err(KorchError::Orch(OrchError::Infeasible(_)))
        ));
        // All feasible: one record per partition, in order.
        let results = vec![vec![solved(2.0, vec![]), ok()], vec![solved(3.0, vec![])]];
        let (recs, _) = fold_partitions(vec![variants(2), variants(1)], results).unwrap();
        let chosen: Vec<usize> = recs.iter().map(|r| r.variant.len()).collect();
        assert_eq!(chosen, [2, 1]);
    }

    #[test]
    fn a_spec_two_partitions_share_is_tuned_once() {
        // Partition 0's variants have specs {1, 2} and {2, 3}; partition
        // 1's one variant {1, 4}. One model-wide database tunes 1..=4 once
        // each, whichever variant won; an infeasible variant charges
        // nothing.
        let results = vec![
            vec![
                solved(2.0, vec![tuned(1, 1.0), tuned(2, 2.0)]),
                solved(1.0, vec![tuned(2, 2.0), tuned(3, 4.0)]),
            ],
            vec![
                infeasible(),
                solved(3.0, vec![tuned(1, 1.0), tuned(4, 8.0)]),
            ],
        ];
        let variants = |n: usize| (0..n).map(variant).collect::<Vec<_>>();
        let (recs, tuning_time_s) =
            fold_partitions(vec![variants(2), variants(2)], results).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(tuning_time_s, 1.0 + 2.0 + 4.0 + 8.0);
    }

    #[test]
    fn a100_is_faster_than_v100() {
        let g = small_model();
        let v = Korch::new(Device::v100(), KorchConfig::default())
            .optimize(&g)
            .unwrap();
        let a = Korch::new(Device::a100(), KorchConfig::default())
            .optimize(&g)
            .unwrap();
        assert!(a.latency_ms() < v.latency_ms());
    }
}
