//! Interpreter for primitive graphs and orchestrated kernel plans.

use crate::error::ExecError;
use korch_ir::{ConstInit, EwFn, LayoutFn, LinearFn, NodeId, PortRef, PrimGraph, PrimKind};
use korch_orch::Plan;
use korch_tensor::{Tensor, TensorError};
use std::collections::HashMap;

/// Materializes a constant tensor from its init spec.
pub fn materialize_const(shape: &[usize], init: &ConstInit) -> Tensor {
    match init {
        ConstInit::Zeros => Tensor::zeros(shape.to_vec()),
        ConstInit::Ones => Tensor::ones(shape.to_vec()),
        ConstInit::Fill(v) => Tensor::full(shape.to_vec(), *v),
        ConstInit::Random(seed) => {
            // Scaled down so deep models stay numerically tame.
            let t = Tensor::random(shape.to_vec(), *seed);
            let fan_in = shape.get(1).copied().unwrap_or(1).max(1) as f32;
            t.binary_scalar(1.0 / fan_in.sqrt(), korch_tensor::BinaryOp::Mul)
        }
    }
}

/// Evaluates one primitive on already-computed input tensors.
///
/// # Errors
///
/// Returns [`ExecError::Input`] for sources, opaque primitives and fewer
/// inputs than the primitive reads, and [`ExecError::Tensor`] when a
/// kernel rejects its inputs (which indicates a shape-inference bug, since
/// graphs are validated eagerly).
pub fn eval_prim(
    kind: &PrimKind,
    inputs: &[&Tensor],
    node: usize,
) -> Result<Vec<Tensor>, ExecError> {
    let wrap = |source| ExecError::Tensor { node, source };
    let need = |arity: usize| {
        if inputs.len() < arity {
            Err(ExecError::Input(format!(
                "node {node} expects {arity} inputs, got {}",
                inputs.len()
            )))
        } else {
            Ok(())
        }
    };
    match kind {
        PrimKind::Input { .. } => Err(ExecError::Input(format!(
            "input node {node} must be fed, not evaluated"
        ))),
        PrimKind::Constant { shape, init } => Ok(vec![materialize_const(shape, init)]),
        PrimKind::Elementwise(f) => {
            need(f.arity())?;
            let out = match f {
                EwFn::Unary(u) => inputs[0].unary(*u),
                EwFn::Binary(b) => inputs[0].binary(inputs[1], *b).map_err(wrap)?,
                EwFn::BinaryScalar(b, c) => inputs[0].binary_scalar(*c, *b),
                EwFn::BinaryScalarLhs(b, c) => inputs[0].binary_scalar_lhs(*c, *b),
            };
            Ok(vec![out])
        }
        PrimKind::Reduce { kind, axis } => {
            need(1)?;
            Ok(vec![inputs[0].reduce(*axis, *kind).map_err(wrap)?])
        }
        PrimKind::Broadcast { axis, size } => {
            need(1)?;
            Ok(vec![inputs[0].broadcast(*axis, *size).map_err(wrap)?])
        }
        PrimKind::Layout(l) => {
            need(1)?;
            match l {
                LayoutFn::Transpose { perm } => {
                    Ok(vec![inputs[0].transpose(perm).map_err(wrap)?])
                }
                LayoutFn::Reshape { shape } => {
                    Ok(vec![inputs[0].reshape(shape.clone()).map_err(wrap)?])
                }
                LayoutFn::Slice { starts, ends } => {
                    Ok(vec![inputs[0].slice(starts, ends).map_err(wrap)?])
                }
                LayoutFn::Concat { axis } => Ok(vec![Tensor::concat(inputs, *axis).map_err(wrap)?]),
                LayoutFn::Split { axis, sizes } => inputs[0].split(*axis, sizes).map_err(wrap),
                LayoutFn::Pad {
                    before,
                    after,
                    value,
                } => Ok(vec![inputs[0].pad(before, after, *value).map_err(wrap)?]),
                LayoutFn::Resize { out_h, out_w, mode } => Ok(vec![inputs[0]
                    .resize2d(*out_h, *out_w, *mode)
                    .map_err(wrap)?]),
            }
        }
        PrimKind::Linear(l) => {
            need(2)?;
            match l {
                LinearFn::MatMul { spec } => {
                    Ok(vec![inputs[0].matmul(inputs[1], *spec).map_err(wrap)?])
                }
                LinearFn::Conv2d {
                    stride,
                    padding,
                    groups,
                } => Ok(vec![inputs[0]
                    .conv2d(inputs[1], *stride, *padding, *groups)
                    .map_err(wrap)?]),
            }
        }
        PrimKind::WindowReduce { spec, kind } => {
            need(1)?;
            Ok(vec![inputs[0].pool2d(*spec, *kind).map_err(wrap)?])
        }
        PrimKind::Opaque { name, .. } => Err(ExecError::Input(format!(
            "opaque primitive '{name}' has no interpreter"
        ))),
    }
}

/// Whether [`eval_prim_into`] evaluates `kind`: the primitives whose
/// allocating `Tensor` method is an into-slice kernel over a fresh output
/// — elementwise, reduce, broadcast, transpose, reshape, matmul and conv.
/// Slice, concat, split, pad, resize and window-reduce are not.
pub fn evaluates_into(kind: &PrimKind) -> bool {
    match kind {
        PrimKind::Elementwise(_) | PrimKind::Reduce { .. } | PrimKind::Broadcast { .. } => true,
        PrimKind::Layout(l) => matches!(l, LayoutFn::Transpose { .. } | LayoutFn::Reshape { .. }),
        PrimKind::Linear(_) => true,
        _ => false,
    }
}

/// Evaluates one single-output primitive [`evaluates_into`] accepts on
/// `x` (and `y`, the second operand of a binary elementwise or linear
/// primitive) into `out`, whose shape the caller set to the primitive's
/// output shape. Runs the into-slice kernel [`eval_prim`]'s allocating
/// `Tensor` method runs, so the bits are [`eval_prim`]'s; every element
/// of `out` is written, whatever it held.
///
/// # Errors
///
/// [`eval_prim`]'s errors for the same operands: [`ExecError::Input`]
/// for a missing second operand, [`ExecError::Tensor`] when a kernel
/// rejects its operands or `out` does not have the output's shape.
///
/// # Panics
///
/// Panics on a primitive [`evaluates_into`] rejects.
pub fn eval_prim_into(
    kind: &PrimKind,
    x: &Tensor,
    y: Option<&Tensor>,
    out: &mut Tensor,
    node: usize,
) -> Result<(), ExecError> {
    use korch_tensor::{binary_scalar_lhs_tile, binary_scalar_tile, binary_tile, unary_tile};
    let wrap = |source| ExecError::Tensor { node, source };
    let second =
        || y.ok_or_else(|| ExecError::Input(format!("node {node} expects 2 inputs, got 1")));
    let mismatch = |lhs: &Tensor, rhs: &Tensor| {
        wrap(TensorError::ShapeMismatch {
            lhs: lhs.shape().to_vec(),
            rhs: rhs.shape().to_vec(),
        })
    };
    match kind {
        PrimKind::Elementwise(f) => {
            let y = match f {
                EwFn::Binary(_) => Some(second()?),
                _ => None,
            };
            if let Some(y) = y.filter(|y| y.shape() != x.shape()) {
                return Err(mismatch(x, y));
            }
            if x.shape() != out.shape() {
                return Err(mismatch(x, out));
            }
            let (x, o) = (x.as_slice(), out.as_mut_slice());
            match (f, y) {
                (EwFn::Unary(u), _) => unary_tile(*u, x, o),
                (EwFn::Binary(b), Some(y)) => binary_tile(*b, x, y.as_slice(), o),
                (EwFn::BinaryScalar(b, c), _) => binary_scalar_tile(*b, x, *c, o),
                (EwFn::BinaryScalarLhs(b, c), _) => binary_scalar_lhs_tile(*b, *c, x, o),
                (EwFn::Binary(_), None) => unreachable!("checked above"),
            }
            Ok(())
        }
        PrimKind::Reduce { kind, axis } => x
            .reduce_into(*axis, *kind, out.as_mut_slice())
            .map_err(wrap),
        PrimKind::Broadcast { axis, size } => x
            .broadcast_into(*axis, *size, out.as_mut_slice())
            .map_err(wrap),
        PrimKind::Layout(LayoutFn::Transpose { perm }) => {
            x.transpose_into(perm, out.as_mut_slice()).map_err(wrap)
        }
        PrimKind::Layout(LayoutFn::Reshape { .. }) => {
            if x.numel() != out.numel() {
                return Err(wrap(TensorError::ElementCount {
                    expected: out.numel(),
                    actual: x.numel(),
                }));
            }
            out.as_mut_slice().copy_from_slice(x.as_slice());
            Ok(())
        }
        PrimKind::Linear(LinearFn::MatMul { spec }) => {
            (x.matmul_into(second()?, *spec, out.as_mut_slice())).map_err(wrap)
        }
        PrimKind::Linear(LinearFn::Conv2d {
            stride,
            padding,
            groups,
        }) => {
            (x.conv2d_into(second()?, *stride, *padding, *groups, out.as_mut_slice())).map_err(wrap)
        }
        other => unreachable!("{other:?} has no into-slice kernel"),
    }
}

fn feed_sources(g: &PrimGraph, inputs: &[Tensor]) -> Result<HashMap<PortRef, Tensor>, ExecError> {
    let mut values: HashMap<PortRef, Tensor> = HashMap::new();
    let mut fed = 0usize;
    for (id, node) in g.iter() {
        match &node.kind {
            PrimKind::Input { shape } => {
                let t = inputs.get(fed).ok_or_else(|| {
                    ExecError::Input(format!("expected more than {fed} input tensors"))
                })?;
                if t.shape() != shape.as_slice() {
                    return Err(ExecError::Input(format!(
                        "input {fed} has shape {:?}, expected {shape:?}",
                        t.shape()
                    )));
                }
                values.insert(id.into(), t.clone());
                fed += 1;
            }
            PrimKind::Constant { shape, init } => {
                values.insert(id.into(), materialize_const(shape, init));
            }
            _ => {}
        }
    }
    if fed != inputs.len() {
        return Err(ExecError::Input(format!(
            "graph has {fed} inputs but {} tensors were fed",
            inputs.len()
        )));
    }
    Ok(values)
}

/// Executes a primitive graph directly (every primitive once, in
/// topological order) — the unoptimized reference semantics.
///
/// # Errors
///
/// Returns [`ExecError`] on input mismatches or opaque primitives.
pub fn execute_prims(g: &PrimGraph, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
    let mut values = feed_sources(g, inputs)?;
    for (id, node) in g.iter() {
        if node.kind.is_source() {
            continue;
        }
        let ins: Vec<&Tensor> = node
            .inputs
            .iter()
            .map(|r| {
                values.get(r).ok_or(ExecError::NotMaterialized {
                    node: r.node.0,
                    port: r.port,
                })
            })
            .collect::<Result<_, _>>()?;
        let outs = eval_prim(&node.kind, &ins, id.0)?;
        for (port, t) in outs.into_iter().enumerate() {
            values.insert(PortRef { node: id, port }, t);
        }
    }
    g.outputs()
        .iter()
        .map(|r| {
            values.get(r).cloned().ok_or(ExecError::NotMaterialized {
                node: r.node.0,
                port: r.port,
            })
        })
        .collect()
}

/// Executes an orchestrated kernel [`Plan`]: kernels run in order, each
/// recomputing its member primitives from materialized tensors and
/// materializing only its declared outputs — exactly the execution model
/// the BLP's cost function assumes (paper §5.3).
///
/// # Errors
///
/// Returns [`ExecError::NotMaterialized`] if the plan's dependency order is
/// broken (which would indicate an optimizer bug).
pub fn execute_plan(
    g: &PrimGraph,
    plan: &Plan,
    inputs: &[Tensor],
) -> Result<Vec<Tensor>, ExecError> {
    let mut materialized = feed_sources(g, inputs)?;
    for kernel in &plan.kernels {
        let mut local: HashMap<PortRef, Tensor> = HashMap::new();
        let mut members = kernel.members.clone();
        members.sort_unstable(); // ascending id = topological
        let member_set: std::collections::HashSet<NodeId> = members.iter().copied().collect();
        for &m in &members {
            let node = g.node(m);
            if node.kind.is_source() {
                continue;
            }
            let ins: Vec<&Tensor> = node
                .inputs
                .iter()
                .map(|r| {
                    if member_set.contains(&r.node) {
                        if let Some(t) = local.get(r) {
                            return Ok(t);
                        }
                    }
                    materialized.get(r).ok_or(ExecError::NotMaterialized {
                        node: r.node.0,
                        port: r.port,
                    })
                })
                .collect::<Result<_, _>>()?;
            let outs = eval_prim(&node.kind, &ins, m.0)?;
            for (port, t) in outs.into_iter().enumerate() {
                local.insert(PortRef { node: m, port }, t);
            }
        }
        for out in &kernel.outputs {
            let t = local.get(out).cloned().ok_or(ExecError::NotMaterialized {
                node: out.node.0,
                port: out.port,
            })?;
            materialized.insert(*out, t);
        }
    }
    g.outputs()
        .iter()
        .map(|r| {
            materialized
                .get(r)
                .cloned()
                .ok_or(ExecError::NotMaterialized {
                    node: r.node.0,
                    port: r.port,
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use korch_cost::Device;
    use korch_orch::Orchestrator;
    use korch_tensor::{BinaryOp, MatMulSpec, PoolSpec, ReduceKind, ResizeMode, UnaryOp};

    fn softmax_prims(rows: usize, cols: usize) -> PrimGraph {
        let mut g = PrimGraph::new();
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
        g
    }

    #[test]
    fn prim_execution_computes_softmax() {
        let g = softmax_prims(4, 8);
        let x = Tensor::random(vec![4, 8], 3);
        let out = execute_prims(&g, &[x]).unwrap();
        let rows = out[0].reduce_sum(1).unwrap();
        for &r in rows.as_slice() {
            assert!((r - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn plan_execution_matches_reference() {
        let g = softmax_prims(16, 32);
        let x = Tensor::random(vec![16, 32], 5);
        let reference = execute_prims(&g, std::slice::from_ref(&x)).unwrap();
        let orch = Orchestrator::new(Device::v100());
        let plan = orch.orchestrate(&g).unwrap().plan;
        let optimized = execute_plan(&g, &plan, &[x]).unwrap();
        assert!(reference[0].allclose(&optimized[0], 1e-5));
    }

    #[test]
    fn input_shape_validated() {
        let g = softmax_prims(4, 8);
        let bad = Tensor::zeros(vec![3, 3]);
        assert!(matches!(
            execute_prims(&g, &[bad]),
            Err(ExecError::Input(_))
        ));
        assert!(matches!(execute_prims(&g, &[]), Err(ExecError::Input(_))));
        let ok = Tensor::zeros(vec![4, 8]);
        let extra = Tensor::zeros(vec![1]);
        assert!(matches!(
            execute_prims(&g, &[ok, extra]),
            Err(ExecError::Input(_))
        ));
    }

    #[test]
    fn constants_are_deterministic() {
        let a = materialize_const(&[4, 4], &ConstInit::Random(9));
        let b = materialize_const(&[4, 4], &ConstInit::Random(9));
        assert_eq!(a, b);
        assert_eq!(
            materialize_const(&[2], &ConstInit::Ones).as_slice(),
            &[1.0, 1.0]
        );
        assert_eq!(
            materialize_const(&[2], &ConstInit::Fill(7.0)).as_slice(),
            &[7.0, 7.0]
        );
    }

    #[test]
    fn opaque_prims_are_rejected() {
        let mut g = PrimGraph::new();
        let x = g.add(PrimKind::Input { shape: vec![4] }, vec![]).unwrap();
        let o = g
            .add(
                PrimKind::Opaque {
                    name: "mystery".into(),
                    out_shapes: vec![vec![4]],
                },
                vec![x.into()],
            )
            .unwrap();
        g.mark_output(o).unwrap();
        let err = execute_prims(&g, &[Tensor::zeros(vec![4])]).unwrap_err();
        assert!(matches!(err, ExecError::Input(_)));
    }

    #[test]
    fn scalar_lhs_elementwise() {
        let mut g = PrimGraph::new();
        let x = g.add(PrimKind::Input { shape: vec![3] }, vec![]).unwrap();
        let inv = g
            .add(
                PrimKind::Elementwise(EwFn::BinaryScalarLhs(BinaryOp::Div, 1.0)),
                vec![x.into()],
            )
            .unwrap();
        g.mark_output(inv).unwrap();
        let x = Tensor::from_vec(vec![3], vec![1.0, 2.0, 4.0]).unwrap();
        let out = execute_prims(&g, &[x]).unwrap();
        assert_eq!(out[0].as_slice(), &[1.0, 0.5, 0.25]);
    }

    /// Asserts `eval_prim` rejects `inputs` for `kind` with a typed
    /// arity error instead of indexing past the operand list.
    fn assert_short_operands(kind: PrimKind, inputs: &[&Tensor]) {
        let err = eval_prim(&kind, inputs, 7).unwrap_err();
        assert!(
            matches!(&err, ExecError::Input(m) if m.contains("node 7 expects")),
            "{kind:?}: {err:?}"
        );
    }

    #[test]
    fn elementwise_rejects_missing_operands() {
        let x = Tensor::zeros(vec![4]);
        assert_short_operands(PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp)), &[]);
        assert_short_operands(PrimKind::Elementwise(EwFn::Binary(BinaryOp::Add)), &[&x]);
        assert_short_operands(
            PrimKind::Elementwise(EwFn::BinaryScalar(BinaryOp::Mul, 2.0)),
            &[],
        );
        assert_short_operands(
            PrimKind::Elementwise(EwFn::BinaryScalarLhs(BinaryOp::Sub, 1.0)),
            &[],
        );
    }

    #[test]
    fn reduce_rejects_missing_operands() {
        let kind = PrimKind::Reduce {
            kind: ReduceKind::Sum,
            axis: 0,
        };
        assert_short_operands(kind, &[]);
    }

    #[test]
    fn broadcast_rejects_missing_operands() {
        assert_short_operands(PrimKind::Broadcast { axis: 0, size: 2 }, &[]);
    }

    #[test]
    fn layout_rejects_missing_operands() {
        for l in [
            LayoutFn::Transpose { perm: vec![1, 0] },
            LayoutFn::Reshape { shape: vec![4] },
            LayoutFn::Slice {
                starts: vec![0],
                ends: vec![1],
            },
            LayoutFn::Concat { axis: 0 },
            LayoutFn::Split {
                axis: 0,
                sizes: vec![1, 1],
            },
            LayoutFn::Pad {
                before: vec![1],
                after: vec![1],
                value: 0.0,
            },
            LayoutFn::Resize {
                out_h: 2,
                out_w: 2,
                mode: ResizeMode::Nearest,
            },
        ] {
            assert_short_operands(PrimKind::Layout(l), &[]);
        }
    }

    #[test]
    fn linear_rejects_missing_operands() {
        let x = Tensor::zeros(vec![1, 1, 4, 4]);
        let matmul = LinearFn::MatMul {
            spec: MatMulSpec::new(),
        };
        let conv = LinearFn::Conv2d {
            stride: 1,
            padding: 0,
            groups: 1,
        };
        for l in [matmul, conv] {
            assert_short_operands(PrimKind::Linear(l.clone()), &[&x]);
            assert_short_operands(PrimKind::Linear(l), &[]);
        }
    }

    #[test]
    fn window_reduce_rejects_missing_operands() {
        let kind = PrimKind::WindowReduce {
            spec: PoolSpec::new(2, 2),
            kind: ReduceKind::Max,
        };
        assert_short_operands(kind, &[]);
    }
}
