//! Range-restricted ("tiled") reference kernels: evaluate one contiguous
//! slice of a primitive's output index space into a caller-provided
//! buffer.
//!
//! These are the building blocks of intra-kernel data parallelism in
//! `korch-runtime`: a big kernel's output is split into row-range tiles
//! and each tile is computed by a different worker lane, writing into a
//! disjoint pre-allocated slice. Every tile kernel here performs **exactly
//! the arithmetic the full kernel performs for the same output elements,
//! in the same order** — splitting the output space never re-associates a
//! float operation — so a tiled execution is bit-identical to the
//! monolithic one for *any* tile partition:
//!
//! - elementwise tiles ([`unary_tile`], [`binary_tile`],
//!   [`binary_scalar_tile`], [`binary_scalar_lhs_tile`]) map pre-sliced
//!   input ranges pointwise. Each matches on its op once per call and
//!   runs that variant's own loop over `apply`, so the body is straight-
//!   line arithmetic the compiler vectorizes (a `match` inside the
//!   element loop is not unswitched and runs ~10× slower). They are the
//!   only elementwise loops: [`Tensor::unary`] and friends, hence
//!   `eval_prim`, walks and `CompiledChain` in `korch-exec`, all run them;
//! - [`Tensor::matmul_rows_packed`] computes a range of output rows with
//!   the full inner contraction per row on the blocked microkernel of
//!   [`crate::pack`] — the ascending-`p` accumulation (with zero-skip)
//!   per output element, just register-blocked — so tiled and monolithic
//!   products agree bit for bit ([`Tensor::matmul`] is this kernel over
//!   every row). The packed B panel is read-only and may be shared across
//!   concurrent sibling tiles;
//! - [`Tensor::reduce_tile`] computes a flat range of *output* elements,
//!   each with its complete accumulation over the reduced axis in
//!   sequential order — axis-aligned splitting, safe for every axis (the
//!   body of [`Tensor::reduce`] itself);
//! - [`Tensor::broadcast_tile`] replicates the input into a flat output
//!   range, a run at a time (the body of [`Tensor::broadcast`] itself).

use crate::elementwise::{BinaryOp, UnaryOp};
use crate::pack::{matmul_rows_blocked, PackedB};
use crate::reduce::ReduceKind;
use crate::{MatMulSpec, Tensor, TensorError};
use std::ops::Range;

/// `match`es `$op` once and evaluates `$body` in the arm of its variant
/// with `$k` a `const` of that variant: every arm is its own loop, in
/// which `$k.apply(..)` is one op's arithmetic with nothing left to
/// dispatch per element.
macro_rules! per_variant {
    ($op:expr, $Op:ident [$($v:ident),+], $k:ident => $body:expr) => {
        match $op {
            $($Op::$v => {
                const $k: $Op = $Op::$v;
                $body
            })+
        }
    };
}

/// `per_variant!` over every [`BinaryOp`], for the three binary tiles.
macro_rules! per_binary_variant {
    ($op:expr, $k:ident => $body:expr) => {
        per_variant!($op, BinaryOp[Add, Sub, Mul, Div, Max, Min, Pow], $k => $body)
    };
}

/// `out[i] = f(input[i])`; instantiated once per op, `f` fixed.
#[inline(always)]
fn each(input: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32) {
    for (o, &x) in out.iter_mut().zip(input) {
        *o = f(x);
    }
}

/// `out[i] = f(lhs[i], rhs[i])`; instantiated once per op, `f` fixed.
#[inline(always)]
fn each_pair(lhs: &[f32], rhs: &[f32], out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    for ((o, &a), &b) in out.iter_mut().zip(lhs).zip(rhs) {
        *o = f(a, b);
    }
}

/// Applies a unary op to a pre-sliced input range, writing every element
/// of `out`.
///
/// # Panics
///
/// Panics if `input.len() != out.len()`.
pub fn unary_tile(op: UnaryOp, input: &[f32], out: &mut [f32]) {
    assert_eq!(input.len(), out.len(), "unary tile length mismatch");
    per_variant!(
        op,
        UnaryOp[Exp, Ln, Relu, LeakyRelu, Sqrt, Erf, Neg, Recip, Tanh, Sigmoid, Abs, Square],
        OP => each(input, out, |x| OP.apply(x))
    )
}

/// Applies a binary op to two pre-sliced same-length input ranges.
///
/// # Panics
///
/// Panics if the three slices differ in length.
pub fn binary_tile(op: BinaryOp, lhs: &[f32], rhs: &[f32], out: &mut [f32]) {
    assert_eq!(lhs.len(), out.len(), "binary tile lhs length mismatch");
    assert_eq!(rhs.len(), out.len(), "binary tile rhs length mismatch");
    per_binary_variant!(op, OP => each_pair(lhs, rhs, out, |a, b| OP.apply(a, b)))
}

/// Applies `op(x, scalar)` to a pre-sliced input range.
///
/// # Panics
///
/// Panics if `input.len() != out.len()`.
pub fn binary_scalar_tile(op: BinaryOp, input: &[f32], scalar: f32, out: &mut [f32]) {
    assert_eq!(input.len(), out.len(), "scalar tile length mismatch");
    per_binary_variant!(op, OP => each(input, out, |x| OP.apply(x, scalar)))
}

/// Applies `op(scalar, x)` (scalar on the left) to a pre-sliced input
/// range — the tile form of [`Tensor::binary_scalar_lhs`].
///
/// # Panics
///
/// Panics if `input.len() != out.len()`.
pub fn binary_scalar_lhs_tile(op: BinaryOp, scalar: f32, input: &[f32], out: &mut [f32]) {
    assert_eq!(input.len(), out.len(), "scalar-lhs tile length mismatch");
    per_binary_variant!(op, OP => each(input, out, |x| OP.apply(scalar, x)))
}

impl Tensor {
    /// Computes output rows `rows` of `self.matmul(rhs, spec)` into `out`,
    /// where rows index the flattened `batch × m` leading output
    /// dimensions and `out` covers exactly `rows.len() * n` elements.
    /// `packed` must be `PackedB::pack(rhs, spec.trans_b)`. The panel is
    /// read-only here, so one pack may be shared across concurrent row
    /// tiles of the same product (the `korch-runtime` tile executor packs
    /// once per decomposed kernel). [`Tensor::matmul`] is this kernel over
    /// every row.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for operand shapes
    /// [`Tensor::matmul`] would reject, and
    /// [`TensorError::InvalidArgument`] when `packed` does not match
    /// `(rhs, spec)`, `rows` is out of bounds, or `out` does not cover
    /// `rows.len() * n` elements.
    pub fn matmul_rows_packed(
        &self,
        rhs: &Tensor,
        packed: &PackedB,
        spec: MatMulSpec,
        rows: Range<usize>,
        out: &mut [f32],
    ) -> Result<(), TensorError> {
        let [batch, m, k1, n] = self.matmul_dims(rhs, spec)?;
        if packed.k() != k1
            || packed.n() != n
            || packed.batch() != batch
            || packed.is_owned() != spec.trans_b
        {
            return Err(TensorError::InvalidArgument(format!(
                "packed panel ({}x{}x{}, owned {}) does not match operand ({batch}x{k1}x{n}, \
                 trans_b {})",
                packed.batch(),
                packed.k(),
                packed.n(),
                packed.is_owned(),
                spec.trans_b
            )));
        }
        if rows.end > batch * m || rows.start > rows.end {
            return Err(TensorError::InvalidArgument(format!(
                "matmul row range {rows:?} out of bounds for {} output rows",
                batch * m
            )));
        }
        if out.len() != rows.len() * n {
            return Err(TensorError::InvalidArgument(format!(
                "matmul tile output has {} elements, expected {}",
                out.len(),
                rows.len() * n
            )));
        }
        let ra = self.rank();
        let (am, ak) = (self.shape()[ra - 2], self.shape()[ra - 1]);
        matmul_rows_blocked(
            self.as_slice(),
            rhs.as_slice(),
            packed,
            spec.trans_a,
            am,
            ak,
            m,
            rows,
            out,
        );
        Ok(())
    }

    /// Computes the flat output range `out_range` of
    /// `self.reduce(axis, kind)` into `out`: every output element carries
    /// its **complete** accumulation over the reduced axis, in ascending
    /// order — the axis-aligned split that stays bit-identical for every
    /// `ReduceKind` and every axis. [`Tensor::reduce`] is this body over
    /// the range `0..total`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`, and
    /// [`TensorError::InvalidArgument`] when the range is out of bounds or
    /// `out.len() != out_range.len()`.
    pub fn reduce_tile(
        &self,
        axis: usize,
        kind: ReduceKind,
        out_range: Range<usize>,
        out: &mut [f32],
    ) -> Result<(), TensorError> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            });
        }
        let in_shape = self.shape();
        let axis_len = in_shape[axis];
        let inner: usize = in_shape[axis + 1..].iter().product();
        let outer: usize = in_shape[..axis].iter().product();
        let total = outer * inner;
        if out_range.end > total || out_range.start > out_range.end {
            return Err(TensorError::InvalidArgument(format!(
                "reduce tile range {out_range:?} out of bounds for {total} output elements"
            )));
        }
        if out.len() != out_range.len() {
            return Err(TensorError::InvalidArgument(format!(
                "reduce tile output has {} elements, expected {}",
                out.len(),
                out_range.len()
            )));
        }
        if out.is_empty() {
            return Ok(());
        }
        // Output element `(o, i)` reduces input elements `(o, k, i)` over
        // ascending `k`. Walk the range an output row at a time with a
        // running `o`: the first and last rows cut where the range starts
        // and ends mid-row. `at` steps by `inner` — an index multiplied out
        // per element is not strength-reduced here and slows the loop.
        let data = self.as_slice();
        let (mut o, mut i0) = (out_range.start / inner, out_range.start % inner);
        let mut pos = 0;
        while pos < out.len() {
            for i in i0..inner.min(i0 + out.len() - pos) {
                let mut acc = match kind {
                    ReduceKind::Sum | ReduceKind::Mean => 0.0,
                    ReduceKind::Max => f32::NEG_INFINITY,
                    ReduceKind::Min => f32::INFINITY,
                };
                let mut at = o * axis_len * inner + i;
                for _ in 0..axis_len {
                    let v = data[at];
                    at += inner;
                    acc = match kind {
                        ReduceKind::Sum | ReduceKind::Mean => acc + v,
                        ReduceKind::Max => acc.max(v),
                        ReduceKind::Min => acc.min(v),
                    };
                }
                if kind == ReduceKind::Mean {
                    acc /= axis_len as f32;
                }
                out[pos] = acc;
                pos += 1;
            }
            (o, i0) = (o + 1, 0);
        }
        Ok(())
    }

    /// Computes the flat output range `out_range` of
    /// `self.broadcast(axis, size)` into `out` (pure replication — every
    /// output element copies one input element). [`Tensor::broadcast`] is
    /// this body over the range `0..total`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis > rank`, and
    /// [`TensorError::InvalidArgument`] on range/length mismatches.
    pub fn broadcast_tile(
        &self,
        axis: usize,
        size: usize,
        out_range: Range<usize>,
        out: &mut [f32],
    ) -> Result<(), TensorError> {
        if axis > self.rank() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            });
        }
        let inner: usize = self.shape()[axis..].iter().product();
        let outer: usize = self.shape()[..axis].iter().product();
        let total = outer * size * inner;
        if out_range.end > total || out_range.start > out_range.end {
            return Err(TensorError::InvalidArgument(format!(
                "broadcast tile range {out_range:?} out of bounds for {total} output elements"
            )));
        }
        if out.len() != out_range.len() {
            return Err(TensorError::InvalidArgument(format!(
                "broadcast tile output has {} elements, expected {}",
                out.len(),
                out_range.len()
            )));
        }
        if out.is_empty() {
            return Ok(());
        }
        // Output row `(o, replica)` is input row `o`. Walk the range in
        // runs with running (input row, replica) counters: a last-axis
        // broadcast (`inner == 1`) fills `size` copies of one element,
        // every other one copies input rows, the first and last run cut
        // where the range starts and ends mid-row.
        let data = self.as_slice();
        let (run, reps) = if inner == 1 { (size, 1) } else { (inner, size) };
        let mut row = out_range.start / (run * reps);
        let mut replica = out_range.start / run % reps;
        let mut col = out_range.start % run;
        let mut rest = out;
        while !rest.is_empty() {
            let (seg, tail) = rest.split_at_mut((run - col).min(rest.len()));
            if inner == 1 {
                seg.fill(data[row]);
            } else {
                seg.copy_from_slice(&data[row * inner + col..][..seg.len()]);
            }
            (rest, col, replica) = (tail, 0, replica + 1);
            if replica == reps {
                (replica, row) = (0, row + 1);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;

    /// Splits `total` into `n` contiguous near-equal ranges.
    fn ranges(total: usize, n: usize) -> Vec<Range<usize>> {
        let per = total.div_ceil(n.max(1)).max(1);
        let mut out = Vec::new();
        for s in (0..total).step_by(per) {
            out.push(s..(s + per).min(total));
        }
        out
    }

    #[test]
    fn elementwise_tiles_match_full_kernels() {
        let x = Tensor::random(vec![7, 13], 1);
        let y = Tensor::random(vec![7, 13], 2);
        let full_u = x.unary(UnaryOp::Exp);
        let full_b = x.binary(&y, BinaryOp::Mul).unwrap();
        let full_s = x.binary_scalar(3.5, BinaryOp::Sub);
        let full_l = x.binary_scalar_lhs(3.5, BinaryOp::Div);
        let mut out_u = vec![0.0; x.numel()];
        let mut out_b = vec![0.0; x.numel()];
        let mut out_s = vec![0.0; x.numel()];
        let mut out_l = vec![0.0; x.numel()];
        for r in ranges(x.numel(), 4) {
            unary_tile(
                UnaryOp::Exp,
                &x.as_slice()[r.clone()],
                &mut out_u[r.clone()],
            );
            binary_tile(
                BinaryOp::Mul,
                &x.as_slice()[r.clone()],
                &y.as_slice()[r.clone()],
                &mut out_b[r.clone()],
            );
            binary_scalar_tile(
                BinaryOp::Sub,
                &x.as_slice()[r.clone()],
                3.5,
                &mut out_s[r.clone()],
            );
            binary_scalar_lhs_tile(
                BinaryOp::Div,
                3.5,
                &x.as_slice()[r.clone()],
                &mut out_l[r.clone()],
            );
        }
        assert_eq!(out_u, full_u.as_slice());
        assert_eq!(out_b, full_b.as_slice());
        assert_eq!(out_s, full_s.as_slice());
        assert_eq!(out_l, full_l.as_slice());
    }

    #[test]
    fn scalar_lhs_fast_path_matches_materialized_tensor() {
        let x = Tensor::random(vec![5, 9], 3);
        for op in [BinaryOp::Sub, BinaryOp::Div, BinaryOp::Pow, BinaryOp::Max] {
            let slow = Tensor::full(x.shape().to_vec(), 2.5)
                .binary(&x, op)
                .unwrap();
            let fast = x.binary_scalar_lhs(2.5, op);
            assert_eq!(slow.as_slice(), fast.as_slice(), "{op:?} diverged");
        }
    }

    #[test]
    fn matmul_rows_tiles_are_bit_identical() {
        for (spec, a_shape, b_shape) in [
            (MatMulSpec::new(), vec![2, 9, 5], vec![2, 5, 11]),
            (
                MatMulSpec {
                    trans_a: true,
                    trans_b: false,
                },
                vec![5, 9],
                vec![5, 11],
            ),
            (
                MatMulSpec {
                    trans_a: false,
                    trans_b: true,
                },
                vec![9, 5],
                vec![11, 5],
            ),
        ] {
            let a = Tensor::random(a_shape, 4);
            let b = Tensor::random(b_shape, 5);
            let full = a.matmul(&b, spec).unwrap();
            let n = *full.shape().last().unwrap();
            let rows_total = full.numel() / n;
            let packed = PackedB::pack(&b, spec.trans_b).unwrap();
            for tiles in [1usize, 3, rows_total] {
                let mut out = vec![f32::NAN; full.numel()];
                for r in ranges(rows_total, tiles) {
                    let tile = &mut out[r.start * n..r.end * n];
                    a.matmul_rows_packed(&b, &packed, spec, r, tile).unwrap();
                }
                assert_eq!(out, full.as_slice(), "{tiles} tiles diverged");
            }
        }
    }

    #[test]
    fn matmul_rows_validates_ranges() {
        let a = Tensor::random(vec![4, 3], 6);
        let b = Tensor::random(vec![3, 5], 7);
        let spec = MatMulSpec::new();
        let packed = PackedB::pack(&b, false).unwrap();
        let mut out = vec![0.0; 5];
        let mut fits = |rhs: &Tensor, packed: &PackedB, rows: Range<usize>| {
            a.matmul_rows_packed(rhs, packed, spec, rows, &mut out)
                .is_ok()
        };
        assert!(fits(&b, &packed, 0..1));
        // Rows past the end, and an output that does not cover the rows.
        assert!(!fits(&b, &packed, 4..5));
        assert!(!fits(&b, &packed, 0..2));
        // An operand whose contraction disagrees.
        let c = Tensor::random(vec![4, 4], 8);
        let packed_c = PackedB::pack(&c, false).unwrap();
        assert!(!fits(&c, &packed_c, 0..1));
        // A panel packed for another operand or orientation.
        assert!(!fits(&b, &PackedB::pack(&b, true).unwrap(), 0..1));
        assert!(!fits(&b, &packed_c, 0..1));
    }

    #[test]
    fn reduce_tiles_are_bit_identical_for_every_axis_and_kind() {
        // Every axis of shapes from the degenerate (an empty reduced or
        // kept axis) up, whole and through tiles whose ranges start and
        // end mid-row. The reference is the per-element definition:
        // output `(o, i)` folds input `(o, k, i)` over ascending `k`.
        let mut cases = 0;
        for shape in [
            vec![7],
            vec![6, 5, 4],
            vec![3, 1, 9],
            vec![2, 0, 3],
            vec![0, 4],
        ] {
            let x = Tensor::random(shape.clone(), 9);
            for axis in 0..shape.len() {
                let len = shape[axis];
                let inner: usize = shape[axis + 1..].iter().product();
                let total = shape[..axis].iter().product::<usize>() * inner;
                for kind in [
                    ReduceKind::Sum,
                    ReduceKind::Mean,
                    ReduceKind::Max,
                    ReduceKind::Min,
                ] {
                    let (init, op): (f32, fn(f32, f32) -> f32) = match kind {
                        ReduceKind::Max => (f32::NEG_INFINITY, f32::max),
                        ReduceKind::Min => (f32::INFINITY, f32::min),
                        _ => (0.0, |a, v| a + v),
                    };
                    let want = Tensor::from_fn(vec![total], |f| {
                        let (o, i) = (f / inner, f % inner);
                        let mut acc = init;
                        for k in 0..len {
                            acc = op(acc, x.as_slice()[(o * len + k) * inner + i]);
                        }
                        if kind == ReduceKind::Mean {
                            acc / len as f32
                        } else {
                            acc
                        }
                    })
                    .into_vec();
                    let full = x.reduce(axis, kind).unwrap();
                    assert!(
                        bits(full.as_slice()) == bits(&want),
                        "{shape:?} axis {axis} {kind:?} diverged"
                    );
                    for step in [1usize, 3, 7, total.max(1)] {
                        let mut out = vec![f32::NAN; total];
                        for start in (0..total).step_by(step) {
                            let r = start..(start + step).min(total);
                            x.reduce_tile(axis, kind, r.clone(), &mut out[r]).unwrap();
                        }
                        assert!(
                            bits(&out) == bits(&want),
                            "{shape:?} axis {axis} {kind:?} in tiles of {step} diverged"
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases > 40, "sweep shrank to {cases} cases");
    }

    #[test]
    fn broadcast_tiles_are_bit_identical() {
        // Every insertion axis (appending at `rank` included) and sizes
        // from the degenerate to a few cache lines, whole and through
        // tiles whose ranges start and end mid-row. The reference is the
        // per-element definition: output `(o, r, i)` is input `(o, i)`.
        let mut cases = 0;
        for shape in [vec![], vec![5], vec![3, 4], vec![2, 1, 5], vec![2, 0, 3]] {
            let x = Tensor::random(shape.clone(), 10);
            for axis in 0..=shape.len() {
                for size in [0usize, 1, 7, 64] {
                    let inner: usize = shape[axis..].iter().product();
                    let total = x.numel() * size;
                    let want = Tensor::from_fn(vec![total], |f| {
                        x.as_slice()[f / (size * inner) * inner + f % inner]
                    })
                    .into_vec();
                    let full = x.broadcast(axis, size).unwrap();
                    let mut out_shape = shape.clone();
                    out_shape.insert(axis, size);
                    assert_eq!(full.shape(), &out_shape[..]);
                    assert!(
                        bits(full.as_slice()) == bits(&want),
                        "{shape:?} axis {axis} size {size} diverged"
                    );
                    for len in [1usize, 3, 7, 50, total.max(1)] {
                        let mut out = vec![f32::NAN; total];
                        for start in (0..total).step_by(len) {
                            let r = start..(start + len).min(total);
                            x.broadcast_tile(axis, size, r.clone(), &mut out[r])
                                .unwrap();
                        }
                        assert!(
                            bits(&out) == bits(&want),
                            "{shape:?} axis {axis} size {size} in tiles of {len} diverged"
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases > 250, "sweep shrank to {cases} cases");
    }

    #[test]
    fn tile_kernels_validate_ranges() {
        let x = Tensor::random(vec![4, 4], 11);
        let mut small = vec![0.0; 2];
        assert!(x.reduce_tile(2, ReduceKind::Sum, 0..2, &mut small).is_err());
        assert!(x.reduce_tile(0, ReduceKind::Sum, 3..5, &mut small).is_err());
        assert!(x.reduce_tile(0, ReduceKind::Sum, 0..3, &mut small).is_err());
        assert!(x.broadcast_tile(3, 2, 0..2, &mut small).is_err());
        assert!(x.broadcast_tile(0, 2, 31..33, &mut small).is_err());
    }
}
