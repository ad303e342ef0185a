//! Interpreter for primitive graphs and orchestrated kernel plans.

use crate::error::ExecError;
use korch_ir::{
    ConstInit, EwFn, IrError, LayoutFn, LinearFn, NodeId, NodeKind, PortRef, PrimGraph, PrimKind,
    TensorMeta,
};
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

/// Evaluates one primitive on already-computed input tensors: allocates
/// the outputs [`NodeKind::infer`] gives it and runs [`eval_prim_into`]
/// over them.
///
/// # Errors
///
/// Returns [`ExecError::Input`] for sources, opaque primitives and fewer
/// inputs than the primitive reads, [`ExecError::Graph`] for operands
/// whose shapes the primitive rejects, and [`ExecError::Tensor`] when a
/// kernel rejects its inputs (which indicates a shape-inference bug, since
/// graphs are validated eagerly).
pub fn eval_prim(
    kind: &PrimKind,
    inputs: &[&Tensor],
    node: usize,
) -> Result<Vec<Tensor>, ExecError> {
    let metas: Vec<TensorMeta> = (inputs.iter())
        .map(|t| TensorMeta::new(t.shape().to_vec()))
        .collect();
    let mut outs: Vec<Tensor> = match kind.infer(&metas) {
        Ok(outs) => outs
            .iter()
            .map(|m| Tensor::zeros(m.shape().to_vec()))
            .collect(),
        Err(IrError::Arity {
            expected, actual, ..
        }) => {
            return Err(ExecError::Input(format!(
                "node {node} expects {expected} inputs, got {actual}"
            )))
        }
        Err(e) => return Err(ExecError::Graph(e)),
    };
    eval_prim_into(kind, inputs, &mut outs, node)?;
    Ok(outs)
}

/// Evaluates one primitive on `inputs` into `outs`, one tensor per output
/// port, whose shapes the caller set to the primitive's output shapes —
/// the one interpreter of every primitive: [`eval_prim`] runs it over
/// fresh outputs, a runtime walk over buffers it owns, so both compute
/// the same bits. Each arm runs the into-slice kernel its allocating
/// `Tensor` method runs; every element of every output is written,
/// whatever it held.
///
/// # Errors
///
/// Returns [`ExecError::Input`] for inputs, opaque primitives and a
/// missing operand, and [`ExecError::Tensor`] when a kernel rejects its
/// operands, `outs` does not hold one tensor per output port, or an
/// output has the wrong size (the wrong shape, for an elementwise
/// primitive or a constant).
pub fn eval_prim_into(
    kind: &PrimKind,
    inputs: &[&Tensor],
    outs: &mut [Tensor],
    node: usize,
) -> Result<(), ExecError> {
    use korch_tensor::{binary_scalar_lhs_tile, binary_scalar_tile, binary_tile, unary_tile};
    let operand = |i: usize| {
        inputs.get(i).copied().ok_or_else(|| {
            ExecError::Input(format!(
                "node {node} expects {} inputs, got {}",
                i + 1,
                inputs.len()
            ))
        })
    };
    let mismatch = |lhs: &Tensor, rhs: &Tensor| {
        Err(TensorError::ShapeMismatch {
            lhs: lhs.shape().to_vec(),
            rhs: rhs.shape().to_vec(),
        })
    };
    let written = match kind {
        PrimKind::Input { .. } => {
            return Err(ExecError::Input(format!(
                "input node {node} must be fed, not evaluated"
            )))
        }
        PrimKind::Opaque { name, .. } => {
            return Err(ExecError::Input(format!(
                "opaque primitive '{name}' has no interpreter"
            )))
        }
        PrimKind::Constant { shape, init } => {
            let (c, out) = (materialize_const(shape, init), one(outs, node)?);
            if c.shape() == out.shape() {
                out.as_mut_slice().copy_from_slice(c.as_slice());
                Ok(())
            } else {
                mismatch(&c, out)
            }
        }
        PrimKind::Elementwise(f) => {
            let (x, out) = (operand(0)?, one(outs, node)?);
            let y = match f {
                EwFn::Binary(_) => operand(1)?,
                _ => x,
            };
            if y.shape() != x.shape() {
                mismatch(x, y)
            } else if x.shape() != out.shape() {
                mismatch(x, out)
            } else {
                let (x, y, o) = (x.as_slice(), y.as_slice(), out.as_mut_slice());
                match f {
                    EwFn::Unary(u) => unary_tile(*u, x, o),
                    EwFn::Binary(b) => binary_tile(*b, x, y, o),
                    EwFn::BinaryScalar(b, c) => binary_scalar_tile(*b, x, *c, o),
                    EwFn::BinaryScalarLhs(b, c) => binary_scalar_lhs_tile(*b, *c, x, o),
                }
                Ok(())
            }
        }
        PrimKind::Reduce { kind, axis } => {
            (operand(0)?).reduce_into(*axis, *kind, one(outs, node)?.as_mut_slice())
        }
        PrimKind::Broadcast { axis, size } => {
            (operand(0)?).broadcast_into(*axis, *size, one(outs, node)?.as_mut_slice())
        }
        PrimKind::Layout(LayoutFn::Transpose { perm }) => {
            (operand(0)?).transpose_into(perm, one(outs, node)?.as_mut_slice())
        }
        PrimKind::Layout(LayoutFn::Reshape { .. }) => {
            let (x, out) = (operand(0)?, one(outs, node)?.as_mut_slice());
            if x.numel() == out.len() {
                out.copy_from_slice(x.as_slice());
                Ok(())
            } else {
                Err(TensorError::ElementCount {
                    expected: out.len(),
                    actual: x.numel(),
                })
            }
        }
        PrimKind::Layout(LayoutFn::Slice { starts, ends }) => {
            (operand(0)?).slice_into(starts, ends, one(outs, node)?.as_mut_slice())
        }
        PrimKind::Layout(LayoutFn::Concat { axis }) => {
            Tensor::concat_into(inputs, *axis, one(outs, node)?.as_mut_slice())
        }
        PrimKind::Layout(LayoutFn::Split { axis, sizes }) => {
            let x = operand(0)?;
            let mut parts: Vec<&mut [f32]> = outs.iter_mut().map(Tensor::as_mut_slice).collect();
            x.split_into(*axis, sizes, &mut parts)
        }
        PrimKind::Layout(LayoutFn::Pad {
            before,
            after,
            value,
        }) => (operand(0)?).pad_into(before, after, *value, one(outs, node)?.as_mut_slice()),
        PrimKind::Layout(LayoutFn::Resize { out_h, out_w, mode }) => {
            (operand(0)?).resize2d_into(*out_h, *out_w, *mode, one(outs, node)?.as_mut_slice())
        }
        PrimKind::Linear(LinearFn::MatMul { spec }) => {
            let (x, w, o) = (operand(0)?, operand(1)?, one(outs, node)?.as_mut_slice());
            x.matmul_into(w, *spec, o)
        }
        PrimKind::Linear(LinearFn::Conv2d {
            stride,
            padding,
            groups,
        }) => {
            let (x, w, o) = (operand(0)?, operand(1)?, one(outs, node)?.as_mut_slice());
            x.conv2d_into(w, *stride, *padding, *groups, o)
        }
        PrimKind::WindowReduce { spec, kind } => {
            (operand(0)?).pool2d_into(*spec, *kind, one(outs, node)?.as_mut_slice())
        }
    };
    written.map_err(|source| ExecError::Tensor { node, source })
}

/// The output of a one-output primitive: `outs` must hold exactly one.
fn one(outs: &mut [Tensor], node: usize) -> Result<&mut Tensor, ExecError> {
    match outs {
        [out] => Ok(out),
        _ => Err(ExecError::Tensor {
            node,
            source: TensorError::InvalidArgument(format!(
                "{} outputs for a one-output primitive",
                outs.len()
            )),
        }),
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

    /// `eval_prim_into` of every layout, resize and window-reduce kind
    /// writes what `eval_prim` returns into outputs of stale values, and
    /// rejects an output of the wrong size, or the wrong number of them,
    /// with a typed error rather than a panic or a write out of bounds.
    #[test]
    fn eval_prim_into_rejects_outputs_of_the_wrong_size_or_count() {
        let x = Tensor::random(vec![1, 2, 4, 4], 5);
        let kinds = [
            LayoutFn::Slice {
                starts: vec![0, 1, 1, 0],
                ends: vec![1, 2, 3, 4],
            },
            LayoutFn::Concat { axis: 1 },
            LayoutFn::Split {
                axis: 1,
                sizes: vec![1, 1],
            },
            LayoutFn::Pad {
                before: vec![0, 0, 1, 2],
                after: vec![0, 1, 0, 2],
                value: 3.0,
            },
            LayoutFn::Resize {
                out_h: 3,
                out_w: 6,
                mode: ResizeMode::Bilinear,
            },
        ]
        .map(PrimKind::Layout);
        let pool = PrimKind::WindowReduce {
            spec: PoolSpec::new(2, 2),
            kind: ReduceKind::Max,
        };
        for kind in kinds.iter().chain([&pool]) {
            let want = eval_prim(kind, &[&x], 9).unwrap();
            let mut outs: Vec<Tensor> = (want.iter())
                .map(|t| Tensor::full(t.shape().to_vec(), f32::NAN))
                .collect();
            eval_prim_into(kind, &[&x], &mut outs, 9).unwrap();
            assert_eq!(outs, want, "{kind:?}");
            let mut wrong: Vec<Tensor> = (want.iter())
                .map(|t| Tensor::zeros(vec![t.numel() + 1]))
                .collect();
            let err = eval_prim_into(kind, &[&x], &mut wrong, 9).unwrap_err();
            assert!(
                matches!(err, ExecError::Tensor { node: 9, .. }),
                "{kind:?}: {err:?}"
            );
            let mut extra = want.clone();
            extra.push(Tensor::zeros(vec![1]));
            let err = eval_prim_into(kind, &[&x], &mut extra, 9).unwrap_err();
            assert!(
                matches!(err, ExecError::Tensor { node: 9, .. }),
                "{kind:?}: {err:?}"
            );
        }
    }
}
