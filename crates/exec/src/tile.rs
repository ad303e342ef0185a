//! The tilability classifier: which primitives split safely across their
//! output index space, so `korch-runtime` may run one kernel's tiles on
//! several worker lanes at once (its range bodies call the range kernels
//! of `korch-tensor` — `reduce_tile`, `broadcast_tile`,
//! `matmul_rows_packed` — and [`crate::CompiledChain`] directly).
//!
//! A primitive is *tilable* when a contiguous range of its flat output can
//! be computed from the unrestricted inputs with exactly the arithmetic
//! the full kernel would perform for those elements — no re-association,
//! no cross-range dependency — so any tile partition reproduces the
//! whole-tensor evaluation, [`crate::eval_prim_into`], bit for bit:
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

use korch_ir::{LinearFn, PrimKind};
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
    /// No bit-stable split; evaluate whole, via [`crate::eval_prim_into`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use korch_ir::{EwFn, LayoutFn};
    use korch_tensor::{MatMulSpec, ReduceKind, UnaryOp};

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
}
