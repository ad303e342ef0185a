//! Rule-based baseline orchestrators (paper §6.2's comparison points):
//!
//! - [`Baseline::PyTorch`] — eager execution, one kernel per operator,
//!   per-op dispatch overhead (PyTorch 2.0 in the paper's Fig. 6 "A");
//! - [`Baseline::Tvm`] — Relay-style greedy fusion of injective operators
//!   into compute anchors, all kernels generated (Fig. 6 "B");
//! - [`Baseline::TensorRt`] — pattern-based fusion (conv+BN+activation,
//!   matmul epilogues, dedicated normalization/softmax kernels) on the
//!   TensorRT runtime backend (Fig. 6 "C").
//!
//! All baselines lower through the *same* fission engine and cost model as
//! Korch, so the comparison isolates the orchestration strategy. Their
//! output is a regular [`korch_orch::Plan`]: executable by `korch-exec` and
//! priced by `korch-cost`.
//!
//! [`trt_with_fission`] implements the paper's §6.3 adaptation study: the
//! TensorRT-like *rules* applied to the post-fission primitive graph
//! instead of the operator graph (Fig. 7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grouping;

pub use grouping::{groups_to_plan, trt_with_fission};

use korch_cost::{Backend, Device, Profiler};
use korch_fission::FissionEngine;
use korch_ir::{IrError, NodeId, OpGraph, OpKind, PrimGraph};
use korch_orch::Plan;

/// Which baseline framework to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// Eager per-operator execution with dispatch overhead.
    PyTorch,
    /// Greedy injective fusion, generated kernels.
    Tvm,
    /// Pattern-based fusion, TensorRT runtime kernels.
    TensorRt,
    /// Classification-based fusion à la DNNFusion (related work \[23\]):
    /// operators are classified by their input→output element mapping,
    /// fusion *seeds* at the one-to-one operator with the smallest
    /// intermediate result and grows greedily through successors and
    /// predecessors, fusing across reorganize/shuffle operators that
    /// rule-set fusers treat as barriers.
    DnnFusion,
}

impl Baseline {
    /// Display name used in the figure harnesses.
    pub fn name(self) -> &'static str {
        match self {
            Baseline::PyTorch => "PyTorch",
            Baseline::Tvm => "TVM",
            Baseline::TensorRt => "TensorRT",
            Baseline::DnnFusion => "DNNFusion",
        }
    }

    fn dispatch_overhead_us(self) -> f64 {
        match self {
            Baseline::PyTorch => 8.0, // eager per-op dispatch
            Baseline::Tvm | Baseline::TensorRt | Baseline::DnnFusion => 0.0,
        }
    }

    fn memory_backend(self) -> Backend {
        match self {
            Baseline::PyTorch => Backend::Generated,
            Baseline::Tvm | Baseline::DnnFusion => Backend::Generated,
            Baseline::TensorRt => Backend::TrtRuntime,
        }
    }

    fn compute_backend(self) -> Backend {
        match self {
            Baseline::PyTorch => Backend::Vendor, // ATen dispatches to cuBLAS/cuDNN
            Baseline::Tvm => Backend::Generated,  // §6.2: TVM generates its GEMMs
            Baseline::TensorRt => Backend::TrtRuntime,
            Baseline::DnnFusion => Backend::Generated, // DNNFusion generates fused code
        }
    }
}

/// Orchestrates `g` with the given baseline's rules and prices the plan on
/// `device`.
///
/// # Errors
///
/// Propagates [`IrError`] from fission.
pub fn orchestrate_baseline(
    baseline: Baseline,
    g: &OpGraph,
    device: &Device,
) -> Result<Plan, IrError> {
    let fission = FissionEngine::new().fission(g)?;
    let groups = group_ops(baseline, g, &fission.prim_graph, &fission.origins);
    let mut profiler = Profiler::new(device.clone());
    profiler.dispatch_overhead_us = baseline.dispatch_overhead_us();
    Ok(grouping::groups_to_plan(
        &fission.prim_graph,
        groups,
        &profiler,
        baseline.memory_backend(),
        baseline.compute_backend(),
    ))
}

/// Operator-level fusion class used by the baseline rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    Source,
    /// Compute anchor: conv / matmul.
    Linear,
    /// Elementwise / layout / broadcast-style, fusable into producers.
    Injective,
    /// Contains an internal reduction (softmax, norms): dedicated kernel
    /// unless the framework's rules fold it.
    Norm,
    /// Windowed/axis reductions.
    Pool,
    /// Data-movement operators (TensorRT runs these as dedicated reformat
    /// kernels; TVM treats them as injective).
    Layout,
    /// Opaque custom operator.
    Opaque,
}

fn classify_op(kind: &OpKind) -> OpClass {
    match kind {
        OpKind::Input { .. } | OpKind::Constant { .. } => OpClass::Source,
        OpKind::Conv2d { .. } | OpKind::MatMul | OpKind::Gemm { .. } => OpClass::Linear,
        OpKind::Softmax { .. }
        | OpKind::LogSoftmax { .. }
        | OpKind::InstanceNorm { .. }
        | OpKind::LayerNorm { .. }
        | OpKind::GroupNorm { .. }
        | OpKind::RmsNorm { .. } => OpClass::Norm,
        // Inference-mode BatchNorm is a per-channel affine: injective.
        OpKind::BatchNorm { .. } => OpClass::Injective,
        OpKind::MaxPool(_) | OpKind::AvgPool(_) | OpKind::Reduce { .. } => OpClass::Pool,
        OpKind::Transpose { .. }
        | OpKind::Reshape { .. }
        | OpKind::Slice { .. }
        | OpKind::Concat { .. }
        | OpKind::Split { .. }
        | OpKind::Pad { .. }
        | OpKind::Resize { .. } => OpClass::Layout,
        OpKind::Custom { .. } => OpClass::Opaque,
        _ => OpClass::Injective,
    }
}

/// Groups operators per the baseline's fusion rules, then expands each
/// group to its member primitives via the fission origins.
fn group_ops(
    baseline: Baseline,
    g: &OpGraph,
    pg: &PrimGraph,
    origins: &[NodeId],
) -> Vec<Vec<NodeId>> {
    let (group_of, n_groups) = if baseline == Baseline::DnnFusion {
        dnnfusion_group_of(g)
    } else {
        rule_group_of(baseline, g)
    };

    // Expand operator groups into primitive member lists.
    let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); n_groups];
    for (prim_id, node) in pg.iter() {
        if node.kind.is_source() {
            continue;
        }
        let op = origins[prim_id.0];
        if let Some(gid) = group_of[op.0] {
            groups[gid].push(prim_id);
        }
    }
    groups.retain(|members| !members.is_empty());
    groups
}

/// The incremental per-framework grouping rules (PyTorch / TVM / TensorRT).
fn rule_group_of(baseline: Baseline, g: &OpGraph) -> (Vec<Option<usize>>, usize) {
    let n_ops = g.len();
    let reach = g.reachability();
    let mut group_of: Vec<Option<usize>> = vec![None; n_ops];
    let mut group_members: Vec<std::collections::BTreeSet<NodeId>> = Vec::new();
    let mut open: Vec<bool> = Vec::new(); // group may absorb injective ops

    for (id, node) in g.iter() {
        let class = classify_op(&node.kind);
        if class == OpClass::Source {
            continue;
        }
        let new_group =
            |open_flag: bool,
             open: &mut Vec<bool>,
             group_members: &mut Vec<std::collections::BTreeSet<NodeId>>| {
                open.push(open_flag);
                group_members.push(std::collections::BTreeSet::new());
                open.len() - 1
            };
        // Distinct groups of non-source producers.
        let mut producer_groups: Vec<usize> = node
            .inputs
            .iter()
            .filter(|r| !g.node(r.node).kind.is_source())
            .filter_map(|r| group_of[r.node.0])
            .collect();
        producer_groups.sort_unstable();
        producer_groups.dedup();
        // TVM-style fusion through fan-in: merge every open producer group
        // with this op when the union stays convex (Relay's fuse-ops merges
        // injective DAGs, not just chains).
        let tvm_fuse = |open: &mut Vec<bool>,
                        group_members: &mut Vec<std::collections::BTreeSet<NodeId>>,
                        group_of: &mut Vec<Option<usize>>|
         -> Option<usize> {
            let open_producers: Vec<usize> = producer_groups
                .iter()
                .copied()
                .filter(|&gr| open[gr])
                .collect();
            if open_producers.is_empty() || open_producers.len() != producer_groups.len() {
                return None; // some producer is closed: start fresh
            }
            let mut union: std::collections::BTreeSet<NodeId> = std::collections::BTreeSet::new();
            for &gr in &open_producers {
                union.extend(group_members[gr].iter().copied());
            }
            union.insert(id);
            if !g.is_convex(&union, &reach) {
                return None;
            }
            let target = open_producers[0];
            for &gr in &open_producers[1..] {
                let moved: Vec<NodeId> = group_members[gr].iter().copied().collect();
                for m in moved {
                    group_of[m.0] = Some(target);
                    group_members[target].insert(m);
                }
                group_members[gr].clear();
            }
            Some(target)
        };
        let gid = match (baseline, class) {
            // PyTorch: one kernel per operator, never fused.
            (Baseline::PyTorch, _) => new_group(false, &mut open, &mut group_members),
            // TVM: injective and layout ops fuse through fan-in.
            (Baseline::Tvm, OpClass::Injective | OpClass::Layout) => {
                tvm_fuse(&mut open, &mut group_members, &mut group_of)
                    .unwrap_or_else(|| new_group(true, &mut open, &mut group_members))
            }
            // TensorRT: injective ops chain into a single open producer
            // group (pointwise-network fusion), layout ops are dedicated
            // reformat kernels (Fig. 12a: Pad is its own kernel).
            (Baseline::TensorRt, OpClass::Injective) => match producer_groups.as_slice() {
                [one] if open[*one] => *one,
                _ => new_group(true, &mut open, &mut group_members),
            },
            (Baseline::TensorRt, OpClass::Layout) => {
                new_group(false, &mut open, &mut group_members)
            }
            // Compute anchors open a fresh group that absorbs epilogues.
            (_, OpClass::Linear) => new_group(true, &mut open, &mut group_members),
            // TVM fuses the whole normalization into one generated kernel
            // that stays open for epilogues; TensorRT uses a dedicated
            // closed kernel (Fig. 12a: InstanceNorm / Relu / Pad separate).
            (Baseline::Tvm, OpClass::Norm) => new_group(true, &mut open, &mut group_members),
            (Baseline::TensorRt, OpClass::Norm) => new_group(false, &mut open, &mut group_members),
            (_, OpClass::Pool) => new_group(false, &mut open, &mut group_members),
            (_, OpClass::Opaque) => new_group(false, &mut open, &mut group_members),
            (_, OpClass::Source) => unreachable!("sources skipped above"),
            (Baseline::DnnFusion, _) => unreachable!("DnnFusion uses dnnfusion_group_of"),
        };
        group_of[id.0] = Some(gid);
        group_members[gid].insert(id);
    }
    let n_groups = open.len();
    (group_of, n_groups)
}

/// DNNFusion's input→output element-mapping classification (related work
/// \[23\], Table 1 of that paper, condensed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MapClass {
    Source,
    /// Each output element depends on the input element at the same
    /// position (Add, Relu, affine BatchNorm, …).
    OneToOne,
    /// One input element fans out to several outputs (Resize, broadcasted
    /// scalars).
    OneToMany,
    /// Pure index remapping (Reshape, Transpose, Squeeze, Identity).
    Reorganize,
    /// Data movement with block structure (Slice, Concat, Split, Pad).
    Shuffle,
    /// Each output reads many inputs (conv, matmul, reductions, softmax and
    /// the normalizations, pooling).
    ManyToMany,
    /// Never fused.
    Opaque,
}

fn map_class(kind: &OpKind) -> MapClass {
    match classify_op(kind) {
        OpClass::Source => MapClass::Source,
        OpClass::Linear | OpClass::Norm | OpClass::Pool => MapClass::ManyToMany,
        OpClass::Opaque => MapClass::Opaque,
        OpClass::Layout => match kind {
            OpKind::Transpose { .. } | OpKind::Reshape { .. } => MapClass::Reorganize,
            OpKind::Resize { .. } => MapClass::OneToMany,
            _ => MapClass::Shuffle,
        },
        OpClass::Injective => match kind {
            OpKind::Squeeze { .. } | OpKind::Unsqueeze { .. } | OpKind::Identity => {
                MapClass::Reorganize
            }
            _ => MapClass::OneToOne,
        },
    }
}

/// DNNFusion-style grouping: seed at the one-to-one operator with the
/// smallest intermediate result, grow greedily through fusable successors
/// *and* predecessors (keeping the group convex and holding at most one
/// many-to-many anchor), repeat with the next unassigned seed.
fn dnnfusion_group_of(g: &OpGraph) -> (Vec<Option<usize>>, usize) {
    use std::collections::BTreeSet;
    let reach = g.reachability();
    let classes: Vec<MapClass> = g.iter().map(|(_, n)| map_class(&n.kind)).collect();
    let succ = g.successors();
    let mut group_of: Vec<Option<usize>> = vec![None; g.len()];
    let mut n_groups = 0usize;

    // Seeds ascending by output footprint ("starts fusion at the one-to-one
    // operator with the minimum intermediate result").
    let mut seeds: Vec<NodeId> = g
        .iter()
        .filter(|(_, n)| map_class(&n.kind) == MapClass::OneToOne)
        .map(|(id, _)| id)
        .collect();
    seeds.sort_by_key(|&id| {
        let numel: usize = g.node(id).out_metas.iter().map(|m| m.numel()).sum();
        (numel, id.0)
    });

    let fusable_into = |members: &BTreeSet<NodeId>, anchors: usize, cand: NodeId| -> bool {
        let class = classes[cand.0];
        match class {
            MapClass::Source | MapClass::Opaque => return false,
            MapClass::ManyToMany if anchors >= 1 => return false,
            _ => {}
        }
        let mut union = members.clone();
        union.insert(cand);
        g.is_convex(&union, &reach)
    };

    for seed in seeds {
        if group_of[seed.0].is_some() {
            continue;
        }
        let gid = n_groups;
        n_groups += 1;
        let mut members: BTreeSet<NodeId> = [seed].into();
        group_of[seed.0] = Some(gid);
        let mut anchors = 0usize;
        // Greedy closure: repeatedly absorb the fusable neighbour with the
        // smallest id (deterministic) until none qualifies.
        loop {
            let mut frontier: Vec<NodeId> = Vec::new();
            for &m in &members {
                frontier.extend(g.node(m).inputs.iter().map(|r| r.node));
                frontier.extend(succ[m.0].iter().copied());
            }
            frontier.sort_unstable();
            frontier.dedup();
            let next = frontier.into_iter().find(|&c| {
                group_of[c.0].is_none()
                    && !members.contains(&c)
                    && fusable_into(&members, anchors, c)
            });
            let Some(c) = next else { break };
            if classes[c.0] == MapClass::ManyToMany {
                anchors += 1;
            }
            members.insert(c);
            group_of[c.0] = Some(gid);
        }
    }

    // Everything not reached from a seed runs as a dedicated kernel.
    for (id, _) in g.iter() {
        if group_of[id.0].is_none() && classes[id.0] != MapClass::Source {
            group_of[id.0] = Some(n_groups);
            n_groups += 1;
        }
    }
    (group_of, n_groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use korch_ir::ConstInit;
    use korch_tensor::UnaryOp;

    fn conv_bn_relu_chain() -> OpGraph {
        let mut g = OpGraph::new();
        let x = g
            .add(
                OpKind::Input {
                    shape: vec![1, 3, 16, 16],
                },
                vec![],
            )
            .unwrap();
        let w = g
            .add(
                OpKind::Constant {
                    shape: vec![8, 3, 3, 3],
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
        let mk = |g: &mut OpGraph, init| {
            g.add(
                OpKind::Constant {
                    shape: vec![8],
                    init,
                },
                vec![],
            )
            .unwrap()
        };
        let gamma = mk(&mut g, ConstInit::Ones);
        let beta = mk(&mut g, ConstInit::Zeros);
        let mean = mk(&mut g, ConstInit::Zeros);
        let var = mk(&mut g, ConstInit::Ones);
        let bn = g
            .add(
                OpKind::BatchNorm { eps: 1e-5 },
                vec![
                    conv.into(),
                    gamma.into(),
                    beta.into(),
                    mean.into(),
                    var.into(),
                ],
            )
            .unwrap();
        let relu = g
            .add(OpKind::Unary(UnaryOp::Relu), vec![bn.into()])
            .unwrap();
        g.mark_output(relu).unwrap();
        g
    }

    #[test]
    fn pytorch_uses_one_kernel_per_op() {
        let g = conv_bn_relu_chain();
        let plan = orchestrate_baseline(Baseline::PyTorch, &g, &Device::v100()).unwrap();
        // conv, bn, relu -> 3 kernels
        assert_eq!(plan.kernel_count(), 3);
    }

    #[test]
    fn tvm_and_trt_fuse_the_chain() {
        let g = conv_bn_relu_chain();
        for b in [Baseline::Tvm, Baseline::TensorRt] {
            let plan = orchestrate_baseline(b, &g, &Device::v100()).unwrap();
            assert_eq!(plan.kernel_count(), 1, "{b:?} should fuse conv+bn+relu");
        }
    }

    #[test]
    fn framework_ordering_matches_fig6() {
        // On a fusion-friendly chain: PyTorch slowest, TensorRT fastest.
        let g = conv_bn_relu_chain();
        let pt = orchestrate_baseline(Baseline::PyTorch, &g, &Device::v100()).unwrap();
        let tvm = orchestrate_baseline(Baseline::Tvm, &g, &Device::v100()).unwrap();
        let trt = orchestrate_baseline(Baseline::TensorRt, &g, &Device::v100()).unwrap();
        assert!(pt.total_latency.0 > tvm.total_latency.0);
        assert!(trt.total_latency.0 <= tvm.total_latency.0);
    }

    #[test]
    fn trt_keeps_instance_norm_dedicated() {
        // Fig 12a: TensorRT runs InstanceNorm, Relu, Pad as 3 kernels.
        let g = korch_models::subgraphs::instance_norm_block(8, 16);
        let plan = orchestrate_baseline(Baseline::TensorRt, &g, &Device::v100()).unwrap();
        assert_eq!(plan.kernel_count(), 3);
        // TVM fuses norm + relu + pad into fewer kernels.
        let tvm = orchestrate_baseline(Baseline::Tvm, &g, &Device::v100()).unwrap();
        assert!(tvm.kernel_count() < 3);
    }

    #[test]
    fn dnnfusion_fuses_conv_chain_into_one_kernel() {
        // conv (the single many-to-many anchor) + bn + relu: one group.
        let g = conv_bn_relu_chain();
        let plan = orchestrate_baseline(Baseline::DnnFusion, &g, &Device::v100()).unwrap();
        assert_eq!(plan.kernel_count(), 1);
    }

    #[test]
    fn dnnfusion_fuses_across_reorganize_barriers() {
        // relu -> transpose -> relu: TensorRT keeps the transpose as a
        // dedicated reformat kernel; DNNFusion's mapping classification
        // fuses one-to-one + reorganize + one-to-one into a single kernel.
        let mut g = OpGraph::new();
        let x = g
            .add(
                OpKind::Input {
                    shape: vec![32, 64],
                },
                vec![],
            )
            .unwrap();
        let r1 = g.add(OpKind::Unary(UnaryOp::Relu), vec![x.into()]).unwrap();
        let t = g
            .add(OpKind::Transpose { perm: vec![1, 0] }, vec![r1.into()])
            .unwrap();
        let r2 = g
            .add(OpKind::Unary(UnaryOp::Sigmoid), vec![t.into()])
            .unwrap();
        g.mark_output(r2).unwrap();
        let dnn = orchestrate_baseline(Baseline::DnnFusion, &g, &Device::v100()).unwrap();
        assert_eq!(dnn.kernel_count(), 1, "{dnn:?}");
        let trt = orchestrate_baseline(Baseline::TensorRt, &g, &Device::v100()).unwrap();
        assert!(trt.kernel_count() > 1);
    }

    #[test]
    fn dnnfusion_limits_one_anchor_per_kernel() {
        // Two chained matmuls can never share a kernel (one many-to-many
        // anchor per group), even with a fusable op between them.
        let mut g = OpGraph::new();
        let x = g.add(OpKind::Input { shape: vec![8, 8] }, vec![]).unwrap();
        let w1 = g
            .add(
                OpKind::Constant {
                    shape: vec![8, 8],
                    init: ConstInit::Random(1),
                },
                vec![],
            )
            .unwrap();
        let w2 = g
            .add(
                OpKind::Constant {
                    shape: vec![8, 8],
                    init: ConstInit::Random(2),
                },
                vec![],
            )
            .unwrap();
        let m1 = g.add(OpKind::MatMul, vec![x.into(), w1.into()]).unwrap();
        let r = g
            .add(OpKind::Unary(UnaryOp::Relu), vec![m1.into()])
            .unwrap();
        let m2 = g.add(OpKind::MatMul, vec![r.into(), w2.into()]).unwrap();
        g.mark_output(m2).unwrap();
        let plan = orchestrate_baseline(Baseline::DnnFusion, &g, &Device::v100()).unwrap();
        assert_eq!(plan.kernel_count(), 2);
    }

    #[test]
    fn dnnfusion_opaque_stays_dedicated() {
        let mut g = OpGraph::new();
        let x = g.add(OpKind::Input { shape: vec![64] }, vec![]).unwrap();
        let r = g.add(OpKind::Unary(UnaryOp::Relu), vec![x.into()]).unwrap();
        let c = g
            .add(
                OpKind::Custom {
                    name: "topk".into(),
                    out_shapes: vec![vec![8]],
                },
                vec![r.into()],
            )
            .unwrap();
        let r2 = g.add(OpKind::Unary(UnaryOp::Relu), vec![c.into()]).unwrap();
        g.mark_output(r2).unwrap();
        let plan = orchestrate_baseline(Baseline::DnnFusion, &g, &Device::v100()).unwrap();
        assert_eq!(plan.kernel_count(), 3);
    }

    #[test]
    fn baseline_plans_execute_correctly() {
        use korch_exec::{execute_ops, execute_plan};
        use korch_tensor::Tensor;
        let g = conv_bn_relu_chain();
        let x = Tensor::random(vec![1, 3, 16, 16], 3);
        let reference = execute_ops(&g, std::slice::from_ref(&x)).unwrap();
        for b in [
            Baseline::PyTorch,
            Baseline::Tvm,
            Baseline::TensorRt,
            Baseline::DnnFusion,
        ] {
            let fission = FissionEngine::new().fission(&g).unwrap();
            let plan = orchestrate_baseline(b, &g, &Device::v100()).unwrap();
            let out = execute_plan(&fission.prim_graph, &plan, std::slice::from_ref(&x)).unwrap();
            assert!(
                reference[0].allclose(&out[0], 1e-4),
                "{b:?} plan diverged from reference"
            );
        }
    }
}
