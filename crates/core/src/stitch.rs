//! The stitcher (paper Fig. 1, last arrow): partitions exist to keep each
//! subgraph's search space tractable, and the optimized subgraphs are then
//! stitched into **one** executable. [`stitch`] is that step, at compile
//! time only: it concatenates the chosen variant graphs of an
//! [`Optimized`] into one [`PrimGraph`] and their plans into one
//! [`Plan`], so the runtime builds a single executor per model and a
//! boundary tensor is an ordinary intermediate — reclaimed at its last
//! reader, overlappable across what used to be a partition wall.
//!
//! [`Optimized::execute`] keeps interpreting partition by partition and is
//! the differential oracle: `execute_plan` on the stitched pair must equal
//! it bit for bit (same kernels, same members, same order).

use crate::partition::Partition;
use crate::pipeline::Optimized;
use korch_ir::{IrError, PortRef, PrimGraph, PrimKind};
use korch_orch::{Plan, SelectedKernel};
use std::collections::HashMap;

/// Stitches the per-partition graphs and plans of `optimized` into one
/// whole-program `(graph, plan)`.
///
/// The graph holds the program's `Input`s first, in feed order, then each
/// partition's nodes in partition order. A partition's boundary `Input`
/// node is not copied: its readers are rewired to the upstream port
/// [`Partition::inputs`] names for it — a program input, or whatever an
/// earlier partition's output resolved to (a computed port, a constant, a
/// program input passed through). Constants are carried over per
/// partition, and only the program's outputs are marked. The plan is
/// every partition's kernels in partition order with members and outputs
/// remapped, so kernel `i` of the stitched plan is the `i`-th kernel
/// [`Optimized::execute`] runs.
///
/// # Errors
///
/// Returns [`IrError`] when the partitions do not plumb: a partition
/// reads, or the program outputs, a port nothing upstream produces.
pub fn stitch(optimized: &Optimized) -> Result<(PrimGraph, Plan), IrError> {
    let parts = optimized.partitions();
    let mut g = PrimGraph::new();
    // Outer port → the stitched port that carries its value.
    let mut resolved: HashMap<PortRef, PortRef> = HashMap::new();
    for outer in optimized.input_ports() {
        let shape = parts
            .iter()
            .flat_map(|opt| boundary(&opt.part))
            .find_map(|(shape, port)| (port == outer).then(|| shape.to_vec()))
            .ok_or(dangling(outer))?;
        let id = g.add(PrimKind::Input { shape }, vec![])?;
        resolved.insert(*outer, id.into());
    }

    let mut plan = Plan::default();
    for opt in parts {
        let sub = &opt.part.graph;
        let mut fed = boundary(&opt.part);
        // Where each local node landed: a copied node's own port 0, or —
        // for a boundary `Input` — the upstream port feeding it. `at`
        // resolves a local port of either kind with one offset rule,
        // because an `Input` has port 0 only.
        let mut landed: Vec<PortRef> = Vec::with_capacity(sub.len());
        let at = |landed: &[PortRef], r: &PortRef| PortRef {
            node: landed[r.node.0].node,
            port: landed[r.node.0].port + r.port,
        };
        for node in sub.nodes() {
            landed.push(if matches!(node.kind, PrimKind::Input { .. }) {
                let (_, outer) = fed.next().ok_or_else(|| {
                    IrError::Invalid(
                        "a partition names fewer inputs than it has Input nodes".into(),
                    )
                })?;
                *resolved.get(outer).ok_or(dangling(outer))?
            } else {
                let inputs = node.inputs.iter().map(|r| at(&landed, r)).collect();
                g.add(node.kind.clone(), inputs)?.into()
            });
        }
        for (outer, local) in opt.part.outputs.iter().zip(sub.outputs()) {
            resolved.insert(*outer, at(&landed, local));
        }
        let kernels = opt.plan.kernels.iter().map(|k| SelectedKernel {
            members: k.members.iter().map(|m| landed[m.0].node).collect(),
            outputs: k.outputs.iter().map(|o| at(&landed, o)).collect(),
            ..k.clone()
        });
        plan.extend(Plan {
            kernels: kernels.collect(),
            total_latency: opt.plan.total_latency,
        });
    }
    for outer in optimized.output_ports() {
        g.mark_output(*resolved.get(outer).ok_or(dangling(outer))?)?;
    }
    Ok((g, plan))
}

/// A partition's boundary: the shape of each of its `Input` nodes with the
/// outer port feeding it, in node order.
fn boundary(part: &Partition) -> impl Iterator<Item = (&[usize], &PortRef)> {
    let shapes = part.graph.nodes().iter().filter_map(|n| match &n.kind {
        PrimKind::Input { shape } => Some(shape.as_slice()),
        _ => None,
    });
    shapes.zip(&part.inputs)
}

fn dangling(outer: &PortRef) -> IrError {
    IrError::DanglingRef {
        node: outer.node.0,
        port: outer.port,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Korch, KorchConfig, OptimizedPartition};
    use korch_cost::Device;
    use korch_exec::execute_plan;
    use korch_ir::{ConstInit, EwFn, LayoutFn, NodeId};
    use korch_orch::Orchestrator;
    use korch_tensor::{BinaryOp, Tensor, UnaryOp};

    fn input(g: &mut PrimGraph, shape: &[usize]) -> PortRef {
        let shape = shape.to_vec();
        g.add(PrimKind::Input { shape }, vec![]).unwrap().into()
    }

    fn unary(g: &mut PrimGraph, op: UnaryOp, x: PortRef) -> PortRef {
        let kind = PrimKind::Elementwise(EwFn::Unary(op));
        g.add(kind, vec![x]).unwrap().into()
    }

    fn binary(g: &mut PrimGraph, op: BinaryOp, a: PortRef, b: PortRef) -> PortRef {
        let kind = PrimKind::Elementwise(EwFn::Binary(op));
        g.add(kind, vec![a, b]).unwrap().into()
    }

    fn count(g: &PrimGraph, pred: impl Fn(&PrimKind) -> bool) -> usize {
        g.nodes().iter().filter(|n| pred(&n.kind)).count()
    }

    fn optimize(pg: &PrimGraph, partition_max_prims: usize) -> Optimized {
        let config = KorchConfig {
            partition_max_prims,
            ..Default::default()
        };
        let korch = Korch::new(Device::v100(), config);
        korch.optimize_prims(pg).unwrap()
    }

    /// Stitches `optimized` and holds the result to the oracle: the
    /// stitched pair under `execute_plan` equals the per-partition
    /// interpreter bit for bit, kernel for kernel.
    fn stitched(optimized: &Optimized) -> (PrimGraph, Plan) {
        let (g, plan) = stitch(optimized).unwrap();
        let inputs: Vec<Tensor> = g
            .nodes()
            .iter()
            .filter_map(|n| match &n.kind {
                PrimKind::Input { shape } => Some(shape.clone()),
                _ => None,
            })
            .enumerate()
            .map(|(i, shape)| Tensor::random(shape, 7 + i as u64))
            .collect();
        assert_eq!(inputs.len(), optimized.input_ports().len());
        let oracle = optimized.execute(&inputs).unwrap();
        let out = execute_plan(&g, &plan, &inputs).unwrap();
        assert_eq!(oracle.len(), out.len());
        for (a, b) in oracle.iter().zip(&out) {
            assert_eq!(a.shape(), b.shape());
            assert_eq!(a.as_slice(), b.as_slice(), "stitched program diverged");
        }
        assert_eq!(plan.kernel_count(), optimized.kernel_count());
        assert!((plan.latency_ms() - optimized.latency_ms()).abs() < 1e-12);
        (g, plan)
    }

    /// One program input read on both sides of a cut stays one `Input`
    /// node, and partition outputs that are sources — the program input
    /// and a constant, both also program outputs — resolve to the source
    /// itself instead of a kernel output.
    #[test]
    fn shared_input_and_source_outputs_resolve_to_one_node() {
        let mut pg = PrimGraph::new();
        let (shape, init) = (vec![8], ConstInit::Random(3));
        let c: PortRef = pg
            .add(PrimKind::Constant { shape, init }, vec![])
            .unwrap()
            .into();
        let x = input(&mut pg, &[8]);
        let a = unary(&mut pg, UnaryOp::Relu, x);
        let a = binary(&mut pg, BinaryOp::Add, a, c);
        let a = unary(&mut pg, UnaryOp::Tanh, a);
        let b = binary(&mut pg, BinaryOp::Add, a, x);
        let b = binary(&mut pg, BinaryOp::Mul, b, c);
        let b = unary(&mut pg, UnaryOp::Exp, b);
        for out in [b, x, c] {
            pg.mark_output(out).unwrap();
        }
        let optimized = optimize(&pg, 3);
        let parts = optimized.partitions();
        assert_eq!(parts.len(), 2);
        assert!(parts[0].part.outputs.contains(&x) && parts[0].part.outputs.contains(&c));
        assert!(parts[1].part.inputs.contains(&x), "x is read past the cut");
        let (g, _) = stitched(&optimized);
        assert_eq!(count(&g, |k| matches!(k, PrimKind::Input { .. })), 1);
        // Constants are carried over per partition, not fed across.
        assert_eq!(count(&g, |k| matches!(k, PrimKind::Constant { .. })), 2);
        assert_eq!(g.outputs()[1], PortRef::from(NodeId(0)), "x is node 0");
        assert!(g.node(g.outputs()[2].node).kind.is_source());
    }

    /// Both ports of one multi-output node cross the cut: the downstream
    /// readers are rewired to the right port of the copied node.
    #[test]
    fn multi_output_boundary_keeps_port_indices() {
        let mut pg = PrimGraph::new();
        let x = input(&mut pg, &[4, 8]);
        let e = unary(&mut pg, UnaryOp::Exp, x);
        let (axis, sizes) = (1, vec![4, 4]);
        let split = pg
            .add(PrimKind::Layout(LayoutFn::Split { axis, sizes }), vec![e])
            .unwrap();
        let lo = unary(&mut pg, UnaryOp::Relu, split.into());
        let hi = PortRef {
            node: split,
            port: 1,
        };
        let hi = unary(&mut pg, UnaryOp::Tanh, hi);
        let z = binary(&mut pg, BinaryOp::Sub, lo, hi);
        pg.mark_output(z).unwrap();
        let optimized = optimize(&pg, 2);
        let parts = optimized.partitions();
        assert_eq!(parts.len(), 3, "split | relu, tanh | sub");
        assert_eq!(parts[0].part.outputs.len(), 2, "both split ports cross");
        let (g, _) = stitched(&optimized);
        assert_eq!(count(&g, |k| matches!(k, PrimKind::Input { .. })), 1);
        let reads_port_1 = g
            .nodes()
            .iter()
            .any(|n| n.inputs.iter().any(|r| r.port == 1));
        assert!(reads_port_1, "the second split port must stay addressed");
    }

    /// A partition that only forwards its input (no node, no kernel of its
    /// own) disappears: its consumer reads the upstream kernel's output.
    #[test]
    fn pass_through_partition_is_rewired_away() {
        let outer = |node| PortRef {
            node: NodeId(node),
            port: 0,
        };
        let orchestrator = Orchestrator::new(Device::v100());
        let computing = |op, from, to| {
            let mut g = PrimGraph::new();
            let x = input(&mut g, &[8]);
            let y = unary(&mut g, op, x);
            g.mark_output(y).unwrap();
            OptimizedPartition {
                plan: orchestrator.orchestrate(&g).unwrap().plan,
                part: Partition {
                    graph: g,
                    inputs: vec![outer(from)],
                    outputs: vec![outer(to)],
                },
            }
        };
        let mut forward = PrimGraph::new();
        let x = input(&mut forward, &[8]);
        forward.mark_output(x).unwrap();
        let forwarding = OptimizedPartition {
            plan: Plan::default(),
            part: Partition {
                graph: forward,
                inputs: vec![outer(1)],
                outputs: vec![outer(2)],
            },
        };
        let assemble = |parts| Optimized::assemble(parts, vec![outer(0)], vec![outer(3), outer(2)]);
        let optimized = assemble(vec![
            computing(UnaryOp::Relu, 0, 1),
            forwarding.clone(),
            computing(UnaryOp::Tanh, 2, 3),
        ]);
        let (g, plan) = stitched(&optimized);
        assert_eq!(g.len(), 3, "input, relu, tanh — nothing for the forwarder");
        assert_eq!(plan.kernel_count(), 2);
        assert_eq!(g.outputs(), [PortRef::from(NodeId(2)), NodeId(1).into()]);

        // The same partitions out of order do not plumb: the forwarder's
        // input is produced by nothing upstream of it.
        let misordered = assemble(vec![forwarding, computing(UnaryOp::Relu, 0, 1)]);
        assert!(matches!(
            stitch(&misordered),
            Err(IrError::DanglingRef { node: 1, port: 0 })
        ));
    }
}
