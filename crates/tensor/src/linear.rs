//! Linear transformation reference kernels (paper §3): matrix
//! multiplication (optionally batched, with transpose flags) and 2-D
//! convolution (NCHW / OIHW, strides, symmetric padding, groups).
//!
//! Both run on the kernels of [`crate::pack`] — the GEBP split of a
//! panel that is staged once and a register-blocked kernel that sweeps
//! it, and for depthwise conv a direct register-blocked loop.
//!
//! [`Tensor::matmul`]: the right operand is packed into row-major `[k][n]`
//! panels (zero-copy unless `trans_b`) and each output row is computed
//! over fixed-width register accumulator blocks. The blocking is a pure
//! loop interchange — ascending-`p` accumulation with the zero-skip is
//! preserved per output element — so results are bit-identical to the
//! historical scalar triple loop (pinned by `crate::pack`'s tests).
//!
//! [`Tensor::conv2d`]: the input is staged zero-padded and split into its
//! `s × s` stride phases, so every tap of every output row is a
//! unit-stride run of one staged phase, padding included. A depthwise
//! conv (`C/groups == 1` and `O/groups == 1`) runs a direct loop over the
//! staging: per channel and tap `(ky, kx)` ascending, one multiply-add
//! over the flattened span of output rows, in register blocks. Every
//! other conv is, per (image, group), the GEMM `W[O/g][K] · P[K][OH·OW]`
//! with `K = C/g·KH·KW`. The weight's OIHW rows are already the
//! `[O/g][K]` left operand (no pack), so output channels are the rows the
//! microkernel groups `MR` at a time. `P` is the column panel: row
//! `p = (ci, ky, kx)` — the order the historical scalar loop accumulated
//! in — holds that tap of channel `ci` at every output position, `0.0`
//! where it falls in the padding. A pointwise conv (1×1, stride 1,
//! padding 0) has `P` equal to the input planes and borrows them, the
//! zero-copy case [`PackedB`] has without `trans_b`; every other shape
//! fills one scratch panel per call by row copies out of the staging, a
//! column block of at most 96 KB at a time (a whole number of microkernel
//! column blocks), reused across blocks, groups and images —
//! cache-resident under the channel groups that sweep it, and under the
//! allocator's 128 KB mmap threshold whatever the image size. For all
//! finite operands every path is bit-identical to that scalar loop
//! (`crate::pack`: one contract for every conv path).
//!
//! # Outside the finite domain
//!
//! The scalar conv loop skipped padded taps and multiplied every other
//! tap, zero weight or not. Every conv path does what `matmul`'s left
//! operand always has: a **weight of exactly `0.0` skips its term**, so
//! `0.0 · ∞` and `0.0 · NaN` contribute nothing where the loop produced
//! `NaN`; and a **padded tap contributes `w · 0.0`** instead of being
//! skipped, so an infinite or `NaN` weight over padding yields `NaN`
//! where the loop produced a finite sum. With finite operands both terms
//! are `±0.0` and, the accumulator starting at `+0.0`, change no bit.
//! `pack`'s `conv_non_finite_contract` test pins both cases on the
//! panel, strided and depthwise paths.

use crate::pack::{conv2d_blocked, ConvGeom, PackedB};
use crate::{check_len, Tensor, TensorError};

/// Transpose flags for a (batched) matrix multiplication, mirroring BLAS
/// `transa`/`transb`. Korch folds `Transpose` primitives into these flags
/// during primitive-graph optimization (paper §6.4, Fig. 8) so the cost
/// model can price data layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MatMulSpec {
    /// Treat the last two dims of the left operand as transposed.
    pub trans_a: bool,
    /// Treat the last two dims of the right operand as transposed.
    pub trans_b: bool,
}

impl MatMulSpec {
    /// Spec with both operands in row-major orientation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Tensor {
    /// Matrix multiplication with optional batching and transpose flags:
    /// [`Tensor::matmul_rows_packed`] over every output row.
    ///
    /// Operands must have equal rank ≥ 2; leading (batch) dimensions must
    /// match elementwise. The contraction dimensions follow `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if ranks differ, rank < 2,
    /// batch dims differ, or inner dimensions disagree.
    pub fn matmul(&self, rhs: &Tensor, spec: MatMulSpec) -> Result<Tensor, TensorError> {
        let [batch, m, _, n] = self.matmul_dims(rhs, spec)?;
        let mut out = vec![0f32; batch * m * n];
        self.matmul_into(rhs, spec, &mut out)?;
        let mut out_shape = self.shape()[..self.rank() - 2].to_vec();
        out_shape.extend([m, n]);
        Tensor::from_vec(out_shape, out)
    }

    /// Writes `self.matmul(rhs, spec)` row-major into `out`, every
    /// element: `rhs` packed once ([`PackedB::pack`]), then
    /// [`Tensor::matmul_rows_packed`] over every output row.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for operands
    /// [`Tensor::matmul`] rejects and [`TensorError::InvalidArgument`] if
    /// `out` is not the output's size.
    pub fn matmul_into(
        &self,
        rhs: &Tensor,
        spec: MatMulSpec,
        out: &mut [f32],
    ) -> Result<(), TensorError> {
        let [batch, m, _, _] = self.matmul_dims(rhs, spec)?;
        let packed = PackedB::pack(rhs, spec.trans_b)?;
        self.matmul_rows_packed(rhs, &packed, spec, 0..batch * m, out)
    }

    /// `[batch, m, k, n]` of `self.matmul(rhs, spec)`: `batch` is the
    /// product of the shared leading dimensions, `m × k` and `k × n` the
    /// operands after `spec`'s transposes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if ranks differ, rank < 2,
    /// batch dims differ, or inner dimensions disagree.
    pub(crate) fn matmul_dims(
        &self,
        rhs: &Tensor,
        spec: MatMulSpec,
    ) -> Result<[usize; 4], TensorError> {
        let mismatch = || TensorError::ShapeMismatch {
            lhs: self.shape().to_vec(),
            rhs: rhs.shape().to_vec(),
        };
        let ra = self.rank();
        let rb = rhs.rank();
        if ra != rb || ra < 2 || self.shape()[..ra - 2] != rhs.shape()[..rb - 2] {
            return Err(mismatch());
        }
        let (am, ak) = (self.shape()[ra - 2], self.shape()[ra - 1]);
        let (bk, bn) = (rhs.shape()[rb - 2], rhs.shape()[rb - 1]);
        let (m, k1) = if spec.trans_a { (ak, am) } else { (am, ak) };
        let (k2, n) = if spec.trans_b { (bn, bk) } else { (bk, bn) };
        if k1 != k2 {
            return Err(mismatch());
        }
        let batch = self.shape()[..ra - 2].iter().product();
        Ok([batch, m, k1, n])
    }

    /// 2-D convolution: input `[N, C, H, W]`, weight `[O, C/groups, KH, KW]`,
    /// symmetric zero padding, square stride — [`Tensor::conv2d_into`]
    /// over a fresh output.
    ///
    /// # Errors
    ///
    /// Returns an error for rank/channel/group mismatches.
    pub fn conv2d(
        &self,
        weight: &Tensor,
        stride: usize,
        padding: usize,
        groups: usize,
    ) -> Result<Tensor, TensorError> {
        let geom = self.conv_geom(weight, stride, padding, groups)?;
        let ([n, _, _, _], [o, _, _, _], [oh, ow]) = (geom.input, geom.weight, geom.out);
        let mut out = vec![0f32; n * o * oh * ow];
        self.conv2d_into(weight, stride, padding, groups, &mut out)?;
        Tensor::from_vec(vec![n, o, oh, ow], out)
    }

    /// Writes `self.conv2d(weight, stride, padding, groups)` (`[N, O, OH,
    /// OW]`, row-major) into `out`, every element.
    ///
    /// # Errors
    ///
    /// Returns an error for rank/channel/group mismatches and
    /// [`TensorError::ElementCount`] if `out` is not the output's size.
    pub fn conv2d_into(
        &self,
        weight: &Tensor,
        stride: usize,
        padding: usize,
        groups: usize,
        out: &mut [f32],
    ) -> Result<(), TensorError> {
        let geom = self.conv_geom(weight, stride, padding, groups)?;
        let ([n, _, _, _], [o, _, _, _], [oh, ow]) = (geom.input, geom.weight, geom.out);
        check_len(out, n * o * oh * ow)?;
        conv2d_blocked(self.as_slice(), weight.as_slice(), &geom, out);
        Ok(())
    }

    /// The validated geometry of `self.conv2d(weight, stride, padding,
    /// groups)`.
    fn conv_geom(
        &self,
        weight: &Tensor,
        stride: usize,
        padding: usize,
        groups: usize,
    ) -> Result<ConvGeom, TensorError> {
        if self.rank() != 4 || weight.rank() != 4 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: weight.shape().to_vec(),
            });
        }
        if stride == 0 || groups == 0 {
            return Err(TensorError::InvalidArgument(
                "stride and groups must be positive".into(),
            ));
        }
        let (n, c, h, w) = (
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        );
        let (o, cg, kh, kw) = (
            weight.shape()[0],
            weight.shape()[1],
            weight.shape()[2],
            weight.shape()[3],
        );
        if c % groups != 0 || o % groups != 0 || cg != c / groups {
            return Err(TensorError::InvalidArgument(format!(
                "conv2d group mismatch: input channels {c}, weight {o}x{cg}, groups {groups}"
            )));
        }
        if h + 2 * padding < kh || w + 2 * padding < kw {
            return Err(TensorError::InvalidArgument(
                "kernel larger than padded input".into(),
            ));
        }
        Ok(ConvGeom {
            input: [n, c, h, w],
            weight: [o, cg, kh, kw],
            out: [
                (h + 2 * padding - kh) / stride + 1,
                (w + 2 * padding - kw) / stride + 1,
            ],
            stride,
            padding,
            groups,
        })
    }
}

/// FLOP count for a matmul of the given logical dimensions (2 flops per MAC).
pub fn matmul_flops(batch: usize, m: usize, n: usize, k: usize) -> u64 {
    2 * batch as u64 * m as u64 * n as u64 * k as u64
}

/// FLOP count for a conv2d with the given parameters.
pub fn conv2d_flops(
    n: usize,
    out_c: usize,
    out_h: usize,
    out_w: usize,
    in_c_per_group: usize,
    kh: usize,
    kw: usize,
) -> u64 {
    2 * n as u64
        * out_c as u64
        * out_h as u64
        * out_w as u64
        * in_c_per_group as u64
        * kh as u64
        * kw as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_2x3_3x2() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul(&b, MatMulSpec::new()).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_transpose_flags_match_explicit_transpose() {
        let a = Tensor::random(vec![4, 3], 1);
        let b = Tensor::random(vec![4, 5], 2);
        // aᵀ·b via flag vs via explicit transpose
        let via_flag = a
            .matmul(
                &b,
                MatMulSpec {
                    trans_a: true,
                    trans_b: false,
                },
            )
            .unwrap();
        let via_t = a
            .transpose(&[1, 0])
            .unwrap()
            .matmul(&b, MatMulSpec::new())
            .unwrap();
        assert!(via_flag.allclose(&via_t, 1e-5));

        let c = Tensor::random(vec![5, 4], 3);
        let via_flag = a
            .matmul(
                &c,
                MatMulSpec {
                    trans_a: true,
                    trans_b: true,
                },
            )
            .unwrap();
        let via_t = a
            .transpose(&[1, 0])
            .unwrap()
            .matmul(&c.transpose(&[1, 0]).unwrap(), MatMulSpec::new())
            .unwrap();
        assert!(via_flag.allclose(&via_t, 1e-5));
    }

    #[test]
    fn batched_matmul() {
        let a = Tensor::random(vec![2, 3, 4], 4);
        let b = Tensor::random(vec![2, 4, 5], 5);
        let c = a.matmul(&b, MatMulSpec::new()).unwrap();
        assert_eq!(c.shape(), &[2, 3, 5]);
        // check one element by hand
        let mut acc = 0f32;
        for k in 0..4 {
            acc += a.at(&[1, 2, k]) * b.at(&[1, k, 3]);
        }
        assert!((c.at(&[1, 2, 3]) - acc).abs() < 1e-5);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![4, 2]);
        assert!(a.matmul(&b, MatMulSpec::new()).is_err());
        let c = Tensor::zeros(vec![3]);
        assert!(a.matmul(&c, MatMulSpec::new()).is_err());
        let d = Tensor::zeros(vec![2, 3, 2]);
        assert!(a.matmul(&d, MatMulSpec::new()).is_err());
    }

    #[test]
    fn matmul_with_ones_vector_is_reduce_sum() {
        // The core TASO-style transform: ReduceSum over the last axis equals
        // matmul with a ones column vector.
        let x = Tensor::random(vec![5, 7], 6);
        let ones = Tensor::ones(vec![7, 1]);
        let via_mm = x
            .matmul(&ones, MatMulSpec::new())
            .unwrap()
            .reshape(vec![5])
            .unwrap();
        let via_rs = x.reduce_sum(1).unwrap();
        assert!(via_mm.allclose(&via_rs, 1e-5));
    }

    #[test]
    fn conv2d_identity_kernel() {
        let x = Tensor::random(vec![1, 2, 4, 4], 8);
        // 1x1 kernel selecting channel sums
        let w = Tensor::ones(vec![1, 2, 1, 1]);
        let y = x.conv2d(&w, 1, 0, 1).unwrap();
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
        let expected = x.reduce_sum(1).unwrap();
        assert!(y.reshape(vec![1, 4, 4]).unwrap().allclose(&expected, 1e-5));
    }

    #[test]
    fn conv2d_known_values() {
        // 3x3 input, 2x2 kernel of ones => sliding window sums
        let x = Tensor::from_fn(vec![1, 1, 3, 3], |i| i as f32);
        let w = Tensor::ones(vec![1, 1, 2, 2]);
        let y = x.conv2d(&w, 1, 0, 1).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[8.0, 12.0, 20.0, 24.0]);
    }

    #[test]
    fn conv2d_stride_and_padding() {
        let x = Tensor::ones(vec![1, 1, 4, 4]);
        let w = Tensor::ones(vec![1, 1, 3, 3]);
        let y = x.conv2d(&w, 2, 1, 1).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        // corners see a 2x2 window of ones with pad=1,stride=2
        assert_eq!(y.as_slice(), &[4.0, 6.0, 6.0, 9.0]);
    }

    #[test]
    fn depthwise_conv_groups() {
        let x = Tensor::random(vec![1, 3, 5, 5], 9);
        let w = Tensor::random(vec![3, 1, 3, 3], 10);
        let y = x.conv2d(&w, 1, 1, 3).unwrap();
        assert_eq!(y.shape(), &[1, 3, 5, 5]);
        // channel 1 output equals single-channel conv of channel 1
        let x1 = x.slice(&[0, 1, 0, 0], &[1, 2, 5, 5]).unwrap();
        let w1 = w.slice(&[1, 0, 0, 0], &[2, 1, 3, 3]).unwrap();
        let y1 = x1.conv2d(&w1, 1, 1, 1).unwrap();
        let got = y.slice(&[0, 1, 0, 0], &[1, 2, 5, 5]).unwrap();
        assert!(got.allclose(&y1, 1e-5));
    }

    #[test]
    fn conv2d_validates_arguments() {
        let x = Tensor::zeros(vec![1, 4, 4, 4]);
        let w = Tensor::zeros(vec![2, 3, 3, 3]); // wrong channels for groups=1
        assert!(x.conv2d(&w, 1, 1, 1).is_err());
        let w = Tensor::zeros(vec![2, 4, 3, 3]);
        assert!(x.conv2d(&w, 0, 1, 1).is_err());
    }

    #[test]
    fn flop_counters() {
        assert_eq!(matmul_flops(1, 2, 3, 4), 48);
        assert_eq!(conv2d_flops(1, 8, 4, 4, 3, 3, 3), 2 * 8 * 16 * 27);
    }

    /// `conv2d_into` over a buffer of stale values writes every element
    /// `conv2d` returns, bit for bit, on the depthwise, pointwise and panel
    /// paths (strided and grouped included), and rejects a buffer of the
    /// wrong size.
    #[test]
    fn conv2d_into_matches_conv2d_on_every_path() {
        // (input, weight, stride, padding, groups)
        let cases = [
            ([1, 6, 9, 9], [6, 1, 3, 3], 1, 1, 6),    // depthwise
            ([2, 4, 8, 8], [4, 1, 3, 3], 2, 1, 4),    // depthwise, strided
            ([1, 8, 7, 7], [16, 8, 1, 1], 1, 0, 1),   // pointwise
            ([1, 3, 16, 16], [8, 3, 3, 3], 1, 1, 1),  // panel
            ([2, 4, 9, 9], [6, 2, 3, 3], 2, 1, 2),    // panel, strided, grouped
            ([1, 3, 32, 32], [16, 3, 7, 7], 4, 3, 1), // patch embedding
        ];
        for (i, (x, w, stride, padding, groups)) in cases.into_iter().enumerate() {
            let x = Tensor::random(x.to_vec(), 2 * i as u64);
            let w = Tensor::random(w.to_vec(), 2 * i as u64 + 1);
            let want = x.conv2d(&w, stride, padding, groups).unwrap();
            let mut out = vec![f32::NAN; want.numel()];
            x.conv2d_into(&w, stride, padding, groups, &mut out)
                .unwrap();
            assert_eq!(crate::bits(&out), crate::bits(want.as_slice()), "case {i}");
            let mut short = vec![0.0; want.numel() - 1];
            assert!(x
                .conv2d_into(&w, stride, padding, groups, &mut short)
                .is_err());
        }
    }

    /// `PackedB::pack` + `matmul_rows_packed` over every row (what
    /// `matmul_into` runs) writes every element `matmul` returns, bit for
    /// bit, under every transpose combination, batched and not.
    #[test]
    fn packed_rows_over_every_row_match_matmul() {
        for (a, b) in [
            (vec![9, 13], vec![13, 35]),
            (vec![3, 5, 7], vec![3, 7, 17]),
            (vec![5, 5], vec![5, 5]),
        ] {
            let (x, y) = (Tensor::random(a, 1), Tensor::random(b, 2));
            for (trans_a, trans_b) in [(false, false), (true, false), (false, true), (true, true)] {
                let spec = MatMulSpec { trans_a, trans_b };
                let r = x.rank();
                let mut shape_a = x.shape().to_vec();
                let mut shape_b = y.shape().to_vec();
                if trans_a {
                    shape_a.swap(r - 2, r - 1);
                }
                if trans_b {
                    shape_b.swap(r - 2, r - 1);
                }
                let xa = Tensor::random(shape_a, 3);
                let yb = Tensor::random(shape_b, 4);
                let want = xa.matmul(&yb, spec).unwrap();
                let rows = want.numel() / want.shape()[r - 1];
                let packed = PackedB::pack(&yb, trans_b).unwrap();
                let mut out = vec![f32::NAN; want.numel()];
                xa.matmul_rows_packed(&yb, &packed, spec, 0..rows, &mut out)
                    .unwrap();
                assert_eq!(crate::bits(&out), crate::bits(want.as_slice()), "{spec:?}");
                let mut into = vec![f32::NAN; want.numel()];
                xa.matmul_into(&yb, spec, &mut into).unwrap();
                assert_eq!(crate::bits(&into), crate::bits(want.as_slice()), "{spec:?}");
            }
        }
    }
}
