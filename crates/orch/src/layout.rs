//! Layout-aware kernel orchestration — the §8 extension the paper sketches:
//! *"it is possible to take different data layouts into account in the BLP
//! problem. For each candidate kernel K, we can specify the data layout of
//! each input and output. Then the BLP solver can automatically choose the
//! optimal data layout during calculation of the computation graph."*
//!
//! Every candidate kernel is expanded into **layout variants** that read
//! each external input, and write their output, either in the canonical
//! layout or with the last two dimensions physically swapped:
//!
//! - pure-elementwise kernels are layout-agnostic: swapping *all* their
//!   tensors costs nothing, so a non-canonical layout propagates through
//!   pointwise chains for free;
//! - a singleton kernel for a last-two-dims Transpose primitive can
//!   *relabel* instead of copy: producing its output "swapped" (or
//!   consuming its input "swapped") makes the transpose a zero-byte
//!   metadata change, priced at launch overhead only;
//! - a MatMul kernel absorbs a swapped operand by toggling its BLAS
//!   transpose flag, at an efficiency factor that depends on the operand's
//!   aspect ratio ([`korch_cost::swapped_io_factor`] — near-free for square
//!   matrices, expensive for the extreme-aspect case of paper Fig. 8);
//! - any other kernel pays one extra strided access-pattern class to read
//!   or write a swapped tensor (a fused reformat).
//!
//! The binary linear program is the paper's Eqs. 2–4 with coverage lifted
//! from primitives to *(primitive, layout)* pairs: graph outputs must be
//! materialized in the canonical layout, and a kernel variant can run only
//! if each input primitive has been materialized in the layout the variant
//! expects. It is the same formulation as the standard solve with a
//! different key type: `cover.rs` builds, warm-starts, solves and orders
//! both, and this module only supplies the variants and their keys.

use crate::cover::{cap_vars, CoverProblem, CoverVar};
use crate::kernel::{backend_applicable, required_outputs, CandidateKernel, Candidates};
use crate::optimizer::{OrchError, SolveReport};
use crate::plan::{Plan, SelectedKernel};
use korch_cost::{Backend, Micros, Profiler};
use korch_ir::{LayoutFn, NodeId, PrimGraph, PrimKind};
use std::collections::HashMap;

/// Physical layout of a tensor's last two dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum TensorLayout {
    /// Row-major over the logical shape (the canonical layout).
    #[default]
    Standard,
    /// Last two dimensions stored swapped (a fused / relabeled transpose).
    Swapped,
}

/// One layout variant of a candidate kernel.
#[derive(Debug, Clone)]
pub struct LayoutVariant {
    /// Index of the base kernel in the candidate list.
    pub base: usize,
    /// External input primitives this variant reads in [`TensorLayout::Swapped`].
    pub swapped_inputs: Vec<NodeId>,
    /// Layout of every output this variant materializes.
    pub out_layout: TensorLayout,
    /// Latency of the variant.
    pub latency: Micros,
}

/// Layout annotations of one scheduled kernel (parallel to `plan.kernels`).
#[derive(Debug, Clone, Default)]
pub struct KernelLayout {
    /// The kernel writes its outputs with the last two dims swapped.
    pub out_swapped: bool,
    /// External inputs the kernel reads in swapped layout.
    pub swapped_inputs: Vec<NodeId>,
}

/// Result of the layout-aware orchestration.
#[derive(Debug, Clone)]
pub struct LayoutOutcome {
    /// The executable plan (functionally identical to a standard plan —
    /// layouts only affect cost; the interpreter's tensors are logical).
    pub plan: Plan,
    /// Per-kernel layout annotations, parallel to `plan.kernels`.
    pub layouts: Vec<KernelLayout>,
    /// Number of selected kernels touching a non-canonical layout.
    pub swapped_kernels: usize,
    /// Solver statistics.
    pub report: SolveReport,
}

/// Configuration of the layout-aware solve. On budget exhaustion the
/// solve falls back to its best incumbent.
#[derive(Debug, Clone)]
pub struct LayoutConfig {
    /// Branch-and-bound node budget.
    pub solver_max_nodes: usize,
    /// Cap on the number of BLP variables (variants). Base singletons and
    /// relabel variants are always kept.
    pub max_variants: usize,
}

impl Default for LayoutConfig {
    fn default() -> Self {
        Self {
            solver_max_nodes: 800,
            max_variants: 500,
        }
    }
}

fn rank_of_output(g: &PrimGraph, n: NodeId) -> usize {
    g.node(n).out_metas.first().map_or(0, |m| m.rank())
}

fn last_two_dims(g: &PrimGraph, n: NodeId) -> (u64, u64) {
    let meta = &g.node(n).out_metas[0];
    let s = meta.shape();
    let r = s.len();
    (s[r - 2] as u64, s[r - 1] as u64)
}

/// `perm` swaps exactly the last two dimensions.
fn is_last_two_swap(perm: &[usize]) -> bool {
    let r = perm.len();
    if r < 2 {
        return false;
    }
    perm[..r - 2].iter().enumerate().all(|(i, &p)| p == i)
        && perm[r - 2] == r - 1
        && perm[r - 1] == r - 2
}

/// Expands candidates into layout variants (see the module docs for the
/// variant families).
pub fn layout_variants(
    g: &PrimGraph,
    cands: &[CandidateKernel],
    profiler: &Profiler,
) -> Vec<LayoutVariant> {
    let launch_only = Micros(profiler.device().launch_overhead_us + profiler.dispatch_overhead_us);
    let mut variants = Vec::new();
    for (i, k) in cands.iter().enumerate() {
        // Base: everything canonical.
        variants.push(LayoutVariant {
            base: i,
            swapped_inputs: vec![],
            out_layout: TensorLayout::Standard,
            latency: k.latency,
        });
        let ext = k.external_inputs(g);
        let single_output = k.output_nodes.len() == 1;
        let out_rank_ok = k.output_nodes.iter().all(|&n| rank_of_output(g, n) >= 2);
        let has_opaque = k
            .members
            .iter()
            .any(|&m| matches!(g.node(m).kind, PrimKind::Opaque { .. }));
        if has_opaque {
            continue;
        }

        // (b) Pure-elementwise kernels are layout-agnostic: uniform swap.
        let all_elementwise = k
            .members
            .iter()
            .all(|&m| matches!(g.node(m).kind, PrimKind::Elementwise(_)));
        let ext_all_swappable =
            !ext.is_empty() && ext.iter().all(|&j| rank_of_output(g, j) >= 2) && {
                // every external *port* must be rank >= 2 too (elementwise
                // kernels have same-shape ios, so node-level rank suffices)
                true
            };
        if all_elementwise && out_rank_ok && ext_all_swappable {
            variants.push(LayoutVariant {
                base: i,
                swapped_inputs: ext.clone(),
                out_layout: TensorLayout::Swapped,
                latency: k.latency, // pointwise work is layout-blind
            });
        }

        // (c) Relabel variants for singleton last-two-dims transposes.
        if let [only] = k.members[..] {
            if let PrimKind::Layout(LayoutFn::Transpose { perm }) = &g.node(only).kind {
                if is_last_two_swap(perm) && single_output {
                    // Produce swapped: the transpose dissolves into metadata.
                    variants.push(LayoutVariant {
                        base: i,
                        swapped_inputs: vec![],
                        out_layout: TensorLayout::Swapped,
                        latency: launch_only,
                    });
                    // Consume swapped, produce canonical: same relabeling.
                    if let [j] = ext[..] {
                        variants.push(LayoutVariant {
                            base: i,
                            swapped_inputs: vec![j],
                            out_layout: TensorLayout::Standard,
                            latency: launch_only,
                        });
                    }
                }
            }
        }

        // (d) MatMul kernels absorb swapped operands via transpose flags.
        if k.spec.linear.len() == 1 && single_output {
            let mm = k.members.iter().find(|&&m| {
                matches!(
                    g.node(m).kind,
                    PrimKind::Linear(korch_ir::LinearFn::MatMul { .. })
                )
            });
            if let Some(&mm) = mm {
                let operands: Vec<NodeId> = g
                    .node(mm)
                    .inputs
                    .iter()
                    .map(|r| r.node)
                    .filter(|&j| ext.contains(&j) && rank_of_output(g, j) >= 2)
                    .collect();
                let subsets: Vec<Vec<NodeId>> = match operands.as_slice() {
                    [a] => vec![vec![*a]],
                    [a, b] if a != b => vec![vec![*a], vec![*b], vec![*a, *b]],
                    _ => vec![],
                };
                for swapped in subsets {
                    let mut eff = 1.0;
                    for &j in &swapped {
                        let (r, c) = last_two_dims(g, j);
                        eff *= korch_cost::swapped_io_factor(r, c);
                    }
                    variants.push(LayoutVariant {
                        base: i,
                        swapped_inputs: swapped,
                        out_layout: TensorLayout::Standard,
                        latency: profiler.latency_with_layout(&k.spec, k.backend, eff, 0),
                    });
                }
            }
        }

        // (e) Generic swapped *write* (fused reformat on the way out).
        if single_output
            && out_rank_ok
            && backend_applicable(g, &k.members, &k.spec, Backend::Generated)
        {
            variants.push(LayoutVariant {
                base: i,
                swapped_inputs: vec![],
                out_layout: TensorLayout::Swapped,
                latency: profiler.latency_with_layout(&k.spec, Backend::Generated, 1.0, 1),
            });
        }

        // (f) Generic swapped *read* of one input (memory kernels only; a
        //     vendor GEMM's swapped operands are handled by (d)).
        if !k.spec.is_compute_intensive() {
            for &j in ext.iter().take(4) {
                if rank_of_output(g, j) < 2 {
                    continue;
                }
                variants.push(LayoutVariant {
                    base: i,
                    swapped_inputs: vec![j],
                    out_layout: TensorLayout::Standard,
                    latency: profiler.latency_with_layout(&k.spec, k.backend, 1.0, 1),
                });
            }
        }
    }
    // Dedup (base, swaps, out): keep the cheapest.
    let mut best: HashMap<(usize, Vec<NodeId>, TensorLayout), usize> = HashMap::new();
    let mut keep = vec![false; variants.len()];
    for (idx, v) in variants.iter().enumerate() {
        let key = (v.base, v.swapped_inputs.clone(), v.out_layout);
        match best.get(&key) {
            Some(&prev) if variants[prev].latency.0 <= v.latency.0 => {}
            _ => {
                best.insert(key, idx);
            }
        }
    }
    for &idx in best.values() {
        keep[idx] = true;
    }
    variants
        .into_iter()
        .zip(keep)
        .filter_map(|(v, k)| k.then_some(v))
        .collect()
}

/// Solves the layout-aware BLP over the given candidates and returns an
/// executable plan with layout annotations: the cover problem (`cover.rs`)
/// keyed by *(primitive, layout)*, one variable per [`LayoutVariant`].
///
/// # Errors
///
/// Returns [`OrchError`] when no feasible layout-consistent cover exists or
/// the solver budget is exhausted without an incumbent.
pub fn optimize_with_layouts(
    g: &PrimGraph,
    cands: &Candidates,
    profiler: &Profiler,
    config: &LayoutConfig,
) -> Result<LayoutOutcome, OrchError> {
    let kernels = &cands.kernels;
    let all_variants = layout_variants(g, kernels, profiler);
    // Base singletons, seeds and relabels are protected from the cap.
    let relabel_us = profiler.device().launch_overhead_us + profiler.dispatch_overhead_us + 1e-9;
    let variants = cap_vars(
        &all_variants,
        config.max_variants,
        |v| {
            let k = &kernels[v.base];
            k.members.len() == 1 || k.seeded || v.latency.0 <= relabel_us
        },
        |v| v.latency.0 / kernels[v.base].members.len() as f64,
    );

    let vars = variants
        .iter()
        .map(|v| {
            let k = &kernels[v.base];
            // Each external input in the layout the variant reads it in.
            let requires = k.external_inputs(g).into_iter().map(|j| {
                if v.swapped_inputs.contains(&j) {
                    (j, TensorLayout::Swapped)
                } else {
                    (j, TensorLayout::Standard)
                }
            });
            CoverVar {
                produces: k.output_nodes.iter().map(|&o| (o, v.out_layout)).collect(),
                requires: requires.collect(),
                cost: v.latency.0,
                singleton: k.members.len() == 1 && v.swapped_inputs.is_empty(),
            }
        })
        .collect();
    // Graph outputs must be materialized in the canonical layout.
    let must = required_outputs(g)
        .map(|t| (t, TensorLayout::Standard))
        .collect();
    let solution = CoverProblem::new(vars, must)?.solve(vec![], config.solver_max_nodes)?;

    let chosen = solution.order.iter().map(|&i| variants[i]);
    let plan = Plan::from_kernels(chosen.clone().map(|v| SelectedKernel {
        latency: v.latency,
        ..kernels[v.base].selected()
    }));
    let layouts: Vec<KernelLayout> = chosen
        .map(|v| KernelLayout {
            out_swapped: v.out_layout == TensorLayout::Swapped,
            swapped_inputs: v.swapped_inputs.clone(),
        })
        .collect();
    let swapped_kernels = layouts
        .iter()
        .filter(|l| l.out_swapped || !l.swapped_inputs.is_empty())
        .count();
    Ok(LayoutOutcome {
        plan,
        layouts,
        swapped_kernels,
        report: solution.report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{identify_kernels, IdentifyConfig};
    use crate::optimizer::{optimize, OptimizeConfig};
    use crate::state::enumerate_states;
    use korch_cost::Device;
    use korch_ir::{ConstInit, EwFn, LinearFn, PortRef};
    use korch_tensor::{BinaryOp, MatMulSpec, UnaryOp};
    use std::collections::HashSet;

    fn setup(g: &PrimGraph) -> (Candidates, Profiler) {
        let profiler = Profiler::new(Device::v100());
        let space = enumerate_states(g, 10_000);
        let cands = identify_kernels(
            g,
            &space,
            &profiler,
            &IdentifyConfig::default(),
            &[Backend::Generated, Backend::Vendor],
        );
        (cands, profiler)
    }

    /// scale -> transpose(last two) -> matmul with a huge-aspect operand.
    fn transpose_into_matmul(rows: usize, cols: usize, n: usize) -> PrimGraph {
        let mut g = PrimGraph::new();
        let x = g
            .add(
                PrimKind::Input {
                    shape: vec![rows, cols],
                },
                vec![],
            )
            .unwrap();
        let s = g
            .add(
                PrimKind::Elementwise(EwFn::BinaryScalar(BinaryOp::Mul, 0.5)),
                vec![x.into()],
            )
            .unwrap();
        let t = g
            .add(
                PrimKind::Layout(LayoutFn::Transpose { perm: vec![1, 0] }),
                vec![s.into()],
            )
            .unwrap();
        let w = g
            .add(
                PrimKind::Constant {
                    shape: vec![rows, n],
                    init: ConstInit::Random(1),
                },
                vec![],
            )
            .unwrap();
        let mm = g
            .add(
                PrimKind::Linear(LinearFn::MatMul {
                    spec: MatMulSpec::new(),
                }),
                vec![t.into(), w.into()],
            )
            .unwrap();
        g.mark_output(mm).unwrap();
        g
    }

    #[test]
    fn layout_blp_never_worse_than_standard() {
        for g in [
            transpose_into_matmul(256, 256, 64),
            transpose_into_matmul(4096, 16, 32),
        ] {
            let (cands, profiler) = setup(&g);
            let (std_plan, _) = optimize(&g, &cands, None, &OptimizeConfig::default()).unwrap();
            let outcome =
                optimize_with_layouts(&g, &cands, &profiler, &LayoutConfig::default()).unwrap();
            assert!(
                outcome.plan.total_latency.0 <= std_plan.total_latency.0 * 1.02 + 1e-9,
                "layout-aware {} vs standard {}",
                outcome.plan.total_latency.0,
                std_plan.total_latency.0
            );
        }
    }

    /// Keep only candidates that treat last-two-dims transposes as
    /// dedicated reformat kernels (the TensorRT-runtime regime of paper
    /// Figs. 8a/12a, where Transpose is its own kernel).
    fn reformat_regime(g: &PrimGraph, mut cands: Candidates) -> Candidates {
        let is_t = |m: NodeId| {
            matches!(&g.node(m).kind,
                PrimKind::Layout(LayoutFn::Transpose { perm }) if is_last_two_swap(perm))
        };
        cands
            .kernels
            .retain(|k| k.members.len() == 1 || !k.members.iter().any(|&m| is_t(m)));
        cands.seed_selections.clear();
        cands
    }

    #[test]
    fn fusion_subsumes_layout_search_with_strong_codegen() {
        // Finding (documented in DESIGN.md): under the MetaSchedule-quality
        // codegen assumption — a single access-pattern class fuses for free
        // — the §8 layout freedom is already implicit in fusion with
        // redundancy, so the layout-aware BLP exactly matches the standard
        // optimum on a transpose-laden pointwise chain.
        let mut g = PrimGraph::new();
        let x = g
            .add(
                PrimKind::Input {
                    shape: vec![1024, 1024],
                },
                vec![],
            )
            .unwrap();
        let e1 = g
            .add(
                PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)),
                vec![x.into()],
            )
            .unwrap();
        let t = g
            .add(
                PrimKind::Layout(LayoutFn::Transpose { perm: vec![1, 0] }),
                vec![e1.into()],
            )
            .unwrap();
        let e2 = g
            .add(
                PrimKind::Elementwise(EwFn::Unary(UnaryOp::Sigmoid)),
                vec![t.into()],
            )
            .unwrap();
        g.mark_output(e2).unwrap();
        let (cands, profiler) = setup(&g);
        let (std_plan, _) = optimize(&g, &cands, None, &OptimizeConfig::default()).unwrap();
        let outcome =
            optimize_with_layouts(&g, &cands, &profiler, &LayoutConfig::default()).unwrap();
        assert!(
            (outcome.plan.total_latency.0 - std_plan.total_latency.0).abs()
                < std_plan.total_latency.0 * 0.02 + 1e-9,
            "expected parity: {} vs {}",
            outcome.plan.total_latency.0,
            std_plan.total_latency.0
        );
    }

    #[test]
    fn relabel_wins_in_the_reformat_kernel_regime() {
        // When transposes run as dedicated reformat kernels (TensorRT-style
        // backends; paper Fig. 8a runs Transpose as its own kernel), the
        // standard plan pays a full strided copy of the tensor. The
        // layout-aware BLP instead *relabels* the transpose (launch cost
        // only) and lets the consumer absorb the swapped layout.
        let mut g = PrimGraph::new();
        let x = g
            .add(
                PrimKind::Input {
                    shape: vec![4096, 4096],
                },
                vec![],
            )
            .unwrap();
        let e1 = g
            .add(
                PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)),
                vec![x.into()],
            )
            .unwrap();
        let t = g
            .add(
                PrimKind::Layout(LayoutFn::Transpose { perm: vec![1, 0] }),
                vec![e1.into()],
            )
            .unwrap();
        let t2 = g
            .add(
                PrimKind::Layout(LayoutFn::Transpose { perm: vec![1, 0] }),
                vec![t.into()],
            )
            .unwrap();
        let e2 = g
            .add(
                PrimKind::Elementwise(EwFn::Unary(UnaryOp::Sigmoid)),
                vec![t2.into()],
            )
            .unwrap();
        g.mark_output(e2).unwrap();
        let (cands, profiler) = setup(&g);
        let cands = reformat_regime(&g, cands);
        let (std_plan, _) = optimize(&g, &cands, None, &OptimizeConfig::default()).unwrap();
        let outcome =
            optimize_with_layouts(&g, &cands, &profiler, &LayoutConfig::default()).unwrap();
        assert!(
            outcome.plan.total_latency.0 < std_plan.total_latency.0 * 0.75,
            "relabeling should beat reformat copies: {} vs {}",
            outcome.plan.total_latency.0,
            std_plan.total_latency.0
        );
        assert!(outcome.swapped_kernels > 0, "no swapped layout chosen");
    }

    #[test]
    fn selected_layouts_are_dependency_consistent() {
        let g = transpose_into_matmul(1024, 32, 64);
        let (cands, profiler) = setup(&g);
        let outcome =
            optimize_with_layouts(&g, &cands, &profiler, &LayoutConfig::default()).unwrap();
        // Replay the plan, tracking the layout every node was produced in.
        let mut produced: HashSet<(NodeId, TensorLayout)> = HashSet::new();
        for (k, l) in outcome.plan.kernels.iter().zip(&outcome.layouts) {
            let members: HashSet<NodeId> = k.members.iter().copied().collect();
            for &m in &k.members {
                for r in &g.node(m).inputs {
                    if members.contains(&r.node) || g.node(r.node).kind.is_source() {
                        continue;
                    }
                    let want = if l.swapped_inputs.contains(&r.node) {
                        TensorLayout::Swapped
                    } else {
                        TensorLayout::Standard
                    };
                    assert!(
                        produced.contains(&(r.node, want)),
                        "kernel reads {:?} in {want:?} before it exists",
                        r.node
                    );
                }
            }
            let out_layout = if l.out_swapped {
                TensorLayout::Swapped
            } else {
                TensorLayout::Standard
            };
            for o in &k.outputs {
                produced.insert((o.node, out_layout));
            }
        }
        // Graph outputs are canonical.
        for o in g.outputs() {
            assert!(produced.contains(&(o.node, TensorLayout::Standard)));
        }
    }

    #[test]
    fn swapped_io_factor_shapes_the_tradeoff() {
        // Square: cheap to absorb; extreme aspect: expensive — the Fig. 8
        // regime where relayouting pays off.
        let square = korch_cost::swapped_io_factor(1024, 1024);
        let skinny = korch_cost::swapped_io_factor(1 << 20, 16);
        assert!(square >= 0.9);
        assert!(skinny <= 0.4);
    }

    #[test]
    fn elementwise_uniform_swap_variant_is_free() {
        let mut g = PrimGraph::new();
        let x = g
            .add(
                PrimKind::Input {
                    shape: vec![64, 64],
                },
                vec![],
            )
            .unwrap();
        let e1 = g
            .add(
                PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)),
                vec![x.into()],
            )
            .unwrap();
        let e2 = g
            .add(
                PrimKind::Elementwise(EwFn::Unary(UnaryOp::Relu)),
                vec![e1.into()],
            )
            .unwrap();
        g.mark_output(e2).unwrap();
        let (cands, profiler) = setup(&g);
        let variants = layout_variants(&g, &cands.kernels, &profiler);
        // Find the uniform-swap variant of the e2 singleton.
        let base_idx = cands
            .kernels
            .iter()
            .position(|k| k.members == vec![e2])
            .unwrap();
        let uniform = variants
            .iter()
            .find(|v| {
                v.base == base_idx
                    && v.out_layout == TensorLayout::Swapped
                    && v.swapped_inputs == vec![e1]
            })
            .expect("uniform-swap variant missing");
        assert_eq!(uniform.latency.0, cands.kernels[base_idx].latency.0);
    }

    #[test]
    fn output_must_be_canonical() {
        // A graph ending in a bare transpose: the relabel variant (swapped
        // output) may NOT satisfy the graph output constraint on its own.
        let mut g = PrimGraph::new();
        let x = g
            .add(
                PrimKind::Input {
                    shape: vec![512, 128],
                },
                vec![],
            )
            .unwrap();
        let e = g
            .add(
                PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)),
                vec![x.into()],
            )
            .unwrap();
        let t = g
            .add(
                PrimKind::Layout(LayoutFn::Transpose { perm: vec![1, 0] }),
                vec![e.into()],
            )
            .unwrap();
        g.mark_output(t).unwrap();
        let (cands, profiler) = setup(&g);
        let outcome =
            optimize_with_layouts(&g, &cands, &profiler, &LayoutConfig::default()).unwrap();
        let last_layout = outcome
            .plan
            .kernels
            .iter()
            .zip(&outcome.layouts)
            .filter(|(k, _)| k.outputs.iter().any(|o| o.node == t))
            .map(|(_, l)| l.out_swapped)
            .collect::<Vec<_>>();
        assert!(
            last_layout.contains(&false),
            "graph output was never materialized canonically"
        );
        let _ = PortRef::from(t);
    }
}
