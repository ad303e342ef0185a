//! Tiled primitive evaluation: the classifier that says which primitives
//! split safely across their output index space, and the range-restricted
//! evaluator `korch-runtime` uses to run one kernel's tiles on several
//! worker lanes at once.
//!
//! A primitive is *tilable* when a contiguous range of its flat output can
//! be computed from the unrestricted inputs with exactly the arithmetic
//! the full kernel would perform for those elements — no re-association,
//! no cross-range dependency — so any tile partition reproduces
//! [`crate::eval_prim`] bit for bit:
//!
//! | [`PrimKind`]                 | [`Tilability`]                    |
//! |------------------------------|-----------------------------------|
//! | `Elementwise` (all forms)    | `Pointwise` (any flat split)      |
//! | `Broadcast`                  | `Pointwise` (pure replication)    |
//! | `Reduce` (every axis)        | `Pointwise` over the *output*: each output element keeps its full sequential accumulation |
//! | `Linear::MatMul`             | `Rows { grain: n }` (output rows; full contraction per row) |
//! | `Layout`, `Conv2d`, `WindowReduce`, `Opaque`, sources | `Monolithic` |
//!
//! Layout transformations stay monolithic because their output ranges map
//! to scattered input positions (a transpose tile reads a strided gather —
//! legal but memory-bound with no win over the monolithic kernel), and a
//! fused kernel mixing reduce/broadcast members with different shapes
//! (softmax-style) has intermediate values crossing any output split — the
//! kernel-level composition in `korch-runtime` only tiles kernels whose
//! members are uniformly pointwise or a single tilable primitive.

use crate::error::ExecError;
use korch_ir::{EwFn, LinearFn, PrimKind};
use korch_tensor::{binary_scalar_lhs_tile, binary_scalar_tile, binary_tile, unary_tile, Tensor};
use std::ops::Range;

/// How a primitive's flat output index space may be partitioned into
/// tiles (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tilability {
    /// Any contiguous flat split is safe (grain 1).
    Pointwise,
    /// Safe only at multiples of `grain` flat output elements (matmul:
    /// one output row — the full contraction of a row never splits).
    Rows {
        /// Flat output elements per indivisible row.
        grain: usize,
    },
    /// No bit-stable split; evaluate via [`crate::eval_prim`] as a whole.
    Monolithic,
}

impl Tilability {
    /// The split granularity in flat output elements, when splittable.
    pub fn grain(&self) -> Option<usize> {
        match self {
            Tilability::Pointwise => Some(1),
            Tilability::Rows { grain } => Some(*grain),
            Tilability::Monolithic => None,
        }
    }

    /// Whether `range` is a legal tile of this classification: the
    /// primitive splits at all, the range is non-empty, and both
    /// endpoints align to the grain (a matmul row's contraction never
    /// splits mid-row). This is the per-range half of the disjoint-slice
    /// contract; `korch-verify` checks it over compiled tile layouts.
    pub fn accepts(&self, range: &Range<usize>) -> bool {
        match self.grain() {
            Some(g) => {
                range.start < range.end
                    && range.start.is_multiple_of(g)
                    && range.end.is_multiple_of(g)
            }
            None => false,
        }
    }
}

/// Classifies one primitive. `out_shape` is the shape of its (single)
/// output — callers get it from graph metadata; multi-output primitives
/// (`Split`) are layout transformations and always monolithic.
pub fn prim_tilability(kind: &PrimKind, out_shape: &[usize]) -> Tilability {
    match kind {
        PrimKind::Elementwise(_) | PrimKind::Broadcast { .. } | PrimKind::Reduce { .. } => {
            Tilability::Pointwise
        }
        PrimKind::Linear(LinearFn::MatMul { .. }) => Tilability::Rows {
            grain: out_shape.last().copied().unwrap_or(1).max(1),
        },
        _ => Tilability::Monolithic,
    }
}

/// Evaluates the flat output range `out_range` of one primitive into
/// `out`, bit-identically to the same elements of
/// [`crate::eval_prim`]'s output. Inputs are the **full** (unrestricted)
/// tensors; the evaluator restricts reads itself. For `Rows`-tilable
/// primitives the range must align to the grain.
///
/// # Errors
///
/// Returns [`ExecError::Input`] for monolithic primitives, fewer inputs
/// than the primitive reads, or misaligned ranges, and
/// [`ExecError::Tensor`] when a tile kernel rejects its operands
/// (shape-inference bugs, as with `eval_prim`).
pub fn eval_prim_tiled(
    kind: &PrimKind,
    inputs: &[&Tensor],
    out_range: Range<usize>,
    out: &mut [f32],
    node: usize,
) -> Result<(), ExecError> {
    let wrap = |source| ExecError::Tensor { node, source };
    let need = |arity: usize| {
        if inputs.len() < arity {
            Err(ExecError::Input(format!(
                "node {node} expects {arity} tile inputs, got {}",
                inputs.len()
            )))
        } else {
            Ok(())
        }
    };
    match kind {
        PrimKind::Elementwise(f) => {
            need(f.arity())?;
            let slice = |i: usize| {
                let t = inputs[i];
                t.as_slice().get(out_range.clone()).ok_or_else(|| {
                    ExecError::Input(format!(
                        "tile range {out_range:?} out of bounds for node {node} input \
                         of {} elements",
                        t.numel()
                    ))
                })
            };
            let x = slice(0)?;
            match f {
                EwFn::Unary(u) => unary_tile(*u, x, out),
                EwFn::Binary(b) => binary_tile(*b, x, slice(1)?, out),
                EwFn::BinaryScalar(b, c) => binary_scalar_tile(*b, x, *c, out),
                EwFn::BinaryScalarLhs(b, c) => binary_scalar_lhs_tile(*b, *c, x, out),
            }
            Ok(())
        }
        PrimKind::Reduce { kind, axis } => {
            need(1)?;
            inputs[0]
                .reduce_tile(*axis, *kind, out_range, out)
                .map_err(wrap)
        }
        PrimKind::Broadcast { axis, size } => {
            need(1)?;
            inputs[0]
                .broadcast_tile(*axis, *size, out_range, out)
                .map_err(wrap)
        }
        PrimKind::Linear(LinearFn::MatMul { spec }) => {
            need(2)?;
            let (a, b) = (inputs[0], inputs[1]);
            let n_axis = if spec.trans_b { 2 } else { 1 };
            let n = b
                .shape()
                .get(b.rank().wrapping_sub(n_axis))
                .copied()
                .unwrap_or(1)
                .max(1);
            if !out_range.start.is_multiple_of(n) || !out_range.end.is_multiple_of(n) {
                return Err(ExecError::Input(format!(
                    "matmul tile range {out_range:?} not aligned to row grain {n} (node {node})"
                )));
            }
            a.matmul_rows(b, *spec, out_range.start / n..out_range.end / n, out)
                .map_err(wrap)
        }
        _ => Err(ExecError::Input(format!(
            "primitive of node {node} is monolithic and cannot be tiled"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prims::eval_prim;
    use korch_ir::LayoutFn;
    use korch_tensor::{BinaryOp, MatMulSpec, ReduceKind, UnaryOp};

    fn ranges(total: usize, n: usize, grain: usize) -> Vec<Range<usize>> {
        let rows = total / grain;
        let per = rows.div_ceil(n.max(1)).max(1);
        (0..rows)
            .step_by(per)
            .map(|s| s * grain..((s + per).min(rows)) * grain)
            .collect()
    }

    #[test]
    fn classifier_matches_the_table() {
        assert_eq!(
            prim_tilability(&PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp)), &[4, 4]),
            Tilability::Pointwise
        );
        assert_eq!(
            prim_tilability(
                &PrimKind::Reduce {
                    kind: ReduceKind::Sum,
                    axis: 0
                },
                &[4]
            ),
            Tilability::Pointwise
        );
        assert_eq!(
            prim_tilability(&PrimKind::Broadcast { axis: 1, size: 8 }, &[4, 8]),
            Tilability::Pointwise
        );
        assert_eq!(
            prim_tilability(
                &PrimKind::Linear(LinearFn::MatMul {
                    spec: MatMulSpec::new()
                }),
                &[6, 9]
            ),
            Tilability::Rows { grain: 9 }
        );
        assert_eq!(Tilability::Rows { grain: 9 }.grain(), Some(9));
        for kind in [
            PrimKind::Layout(LayoutFn::Transpose { perm: vec![1, 0] }),
            PrimKind::Linear(LinearFn::Conv2d {
                stride: 1,
                padding: 0,
                groups: 1,
            }),
            PrimKind::Opaque {
                name: "x".into(),
                out_shapes: vec![vec![4]],
            },
            PrimKind::Input { shape: vec![4] },
        ] {
            assert_eq!(prim_tilability(&kind, &[4, 4]), Tilability::Monolithic);
            assert!(prim_tilability(&kind, &[4, 4]).grain().is_none());
        }
    }

    #[test]
    fn tiled_eval_matches_eval_prim_bitwise() {
        let x = Tensor::random(vec![6, 10], 1);
        let y = Tensor::random(vec![6, 10], 2);
        let w = Tensor::random(vec![10, 7], 3);
        let r = Tensor::random(vec![6], 4);
        let cases: Vec<(PrimKind, Vec<&Tensor>)> = vec![
            (PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)), vec![&x]),
            (
                PrimKind::Elementwise(EwFn::Binary(BinaryOp::Add)),
                vec![&x, &y],
            ),
            (
                PrimKind::Elementwise(EwFn::BinaryScalar(BinaryOp::Mul, 1.5)),
                vec![&x],
            ),
            (
                PrimKind::Elementwise(EwFn::BinaryScalarLhs(BinaryOp::Sub, 1.5)),
                vec![&x],
            ),
            (
                PrimKind::Reduce {
                    kind: ReduceKind::Max,
                    axis: 1,
                },
                vec![&x],
            ),
            (
                PrimKind::Reduce {
                    kind: ReduceKind::Sum,
                    axis: 0,
                },
                vec![&x],
            ),
            (PrimKind::Broadcast { axis: 1, size: 5 }, vec![&r]),
            (
                PrimKind::Linear(LinearFn::MatMul {
                    spec: MatMulSpec::new(),
                }),
                vec![&x, &w],
            ),
        ];
        for (kind, ins) in cases {
            let full = eval_prim(&kind, &ins, 0).unwrap().remove(0);
            let grain = prim_tilability(&kind, full.shape()).grain().unwrap();
            for tiles in [1usize, 3, full.numel() / grain] {
                let mut out = vec![f32::NAN; full.numel()];
                for rr in ranges(full.numel(), tiles, grain) {
                    let (s, e) = (rr.start, rr.end);
                    eval_prim_tiled(&kind, &ins, rr, &mut out[s..e], 0).unwrap();
                }
                assert_eq!(out, full.as_slice(), "{kind:?} × {tiles} tiles diverged");
            }
        }
    }

    #[test]
    fn tiled_eval_rejects_monolithic_and_misaligned() {
        let x = Tensor::random(vec![4, 4], 5);
        let mut out = vec![0.0; 4];
        let transpose = PrimKind::Layout(LayoutFn::Transpose { perm: vec![1, 0] });
        assert!(eval_prim_tiled(&transpose, &[&x], 0..4, &mut out, 0).is_err());
        let w = Tensor::random(vec![4, 4], 6);
        let mm = PrimKind::Linear(LinearFn::MatMul {
            spec: MatMulSpec::new(),
        });
        assert!(eval_prim_tiled(&mm, &[&x, &w], 1..5, &mut out, 0).is_err());
        let ew = PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp));
        assert!(eval_prim_tiled(&ew, &[&x], 14..18, &mut out, 0).is_err());
    }

    /// Every tilable arm answers a short operand list with the same typed
    /// error instead of indexing past it.
    #[test]
    fn tiled_eval_rejects_missing_operands() {
        let x = Tensor::random(vec![4, 4], 7);
        let mut out = vec![0.0; 4];
        for (kind, inputs) in [
            (PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp)), vec![]),
            (PrimKind::Elementwise(EwFn::Binary(BinaryOp::Add)), vec![&x]),
            (
                PrimKind::Elementwise(EwFn::BinaryScalarLhs(BinaryOp::Sub, 1.0)),
                vec![],
            ),
            (
                PrimKind::Reduce {
                    kind: ReduceKind::Sum,
                    axis: 1,
                },
                vec![],
            ),
            (PrimKind::Broadcast { axis: 0, size: 2 }, vec![]),
            (
                PrimKind::Linear(LinearFn::MatMul {
                    spec: MatMulSpec::new(),
                }),
                vec![&x],
            ),
        ] {
            let err = eval_prim_tiled(&kind, &inputs, 0..4, &mut out, 3).unwrap_err();
            assert!(
                matches!(&err, ExecError::Input(m) if m.contains("tile inputs")),
                "{kind:?}: {err:?}"
            );
        }
    }
}
