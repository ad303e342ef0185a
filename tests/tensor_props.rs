//! Property tests on the tensor substrate, including the paper's §3
//! *definition* of linear transformation primitives: the output is linear
//! in every input (additivity + homogeneity) — verified numerically for
//! matmul and conv2d.

use korch::tensor::{MatMulSpec, ReduceKind, Tensor};
use proptest::prelude::*;

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..6, 1usize..6, 1usize..6)
}

/// The scalar definition of conv2d: one accumulator per output element,
/// taps in `(ci, ky, kx)` order, padded taps skipped.
fn conv2d_scalar(
    x: &Tensor,
    wt: &Tensor,
    stride: usize,
    padding: usize,
    groups: usize,
) -> Vec<f32> {
    let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
    let (o, cg, kh, kw) = (wt.shape()[0], wt.shape()[1], wt.shape()[2], wt.shape()[3]);
    let oh = (h + 2 * padding - kh) / stride + 1;
    let ow = (w + 2 * padding - kw) / stride + 1;
    let mut out = Vec::with_capacity(n * o * oh * ow);
    for ni in 0..n {
        for oc in 0..o {
            let c0 = oc / (o / groups) * cg;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0f32;
                    for ci in 0..cg {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let (iy, ix) = (oy * stride + ky, ox * stride + kx);
                                if iy < padding
                                    || iy - padding >= h
                                    || ix < padding
                                    || ix - padding >= w
                                {
                                    continue;
                                }
                                acc += x.at(&[ni, c0 + ci, iy - padding, ix - padding])
                                    * wt.at(&[oc, ci, ky, kx]);
                            }
                        }
                    }
                    out.push(acc);
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// MatMul is linear in its left input: (αX + Y)·W = α(X·W) + Y·W.
    #[test]
    fn matmul_is_linear_in_lhs((m, k, n) in dims(), alpha in -3.0f32..3.0, seed in 0u64..100) {
        let x = Tensor::random(vec![m, k], seed);
        let y = Tensor::random(vec![m, k], seed + 1);
        let w = Tensor::random(vec![k, n], seed + 2);
        let spec = MatMulSpec::new();
        let lhs = x
            .binary_scalar(alpha, korch::tensor::BinaryOp::Mul)
            .binary(&y, korch::tensor::BinaryOp::Add)
            .unwrap()
            .matmul(&w, spec)
            .unwrap();
        let rhs = x
            .matmul(&w, spec)
            .unwrap()
            .binary_scalar(alpha, korch::tensor::BinaryOp::Mul)
            .binary(&y.matmul(&w, spec).unwrap(), korch::tensor::BinaryOp::Add)
            .unwrap();
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }

    /// Conv2d is linear in its input feature map.
    #[test]
    fn conv2d_is_linear_in_input(alpha in -2.0f32..2.0, seed in 0u64..100) {
        let x = Tensor::random(vec![1, 2, 6, 6], seed);
        let y = Tensor::random(vec![1, 2, 6, 6], seed + 1);
        let w = Tensor::random(vec![3, 2, 3, 3], seed + 2);
        let lhs = x
            .binary_scalar(alpha, korch::tensor::BinaryOp::Mul)
            .binary(&y, korch::tensor::BinaryOp::Add)
            .unwrap()
            .conv2d(&w, 1, 1, 1)
            .unwrap();
        let rhs = x
            .conv2d(&w, 1, 1, 1)
            .unwrap()
            .binary_scalar(alpha, korch::tensor::BinaryOp::Mul)
            .binary(&y.conv2d(&w, 1, 1, 1).unwrap(), korch::tensor::BinaryOp::Add)
            .unwrap();
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }

    /// Softmax (the fission composite) is NOT linear — the reason the paper
    /// decomposes it rather than treating it as a linear primitive.
    #[test]
    fn softmax_is_not_linear(seed in 0u64..50) {
        let x = Tensor::random(vec![2, 8], seed);
        let softmax = |t: &Tensor| {
            let e = t.unary(korch::tensor::UnaryOp::Exp);
            let s = e.reduce_sum(1).unwrap().broadcast(1, 8).unwrap();
            e.binary(&s, korch::tensor::BinaryOp::Div).unwrap()
        };
        let doubled = softmax(&x.binary_scalar(2.0, korch::tensor::BinaryOp::Mul));
        let scaled = softmax(&x).binary_scalar(2.0, korch::tensor::BinaryOp::Mul);
        prop_assert!(!doubled.allclose(&scaled, 1e-3));
    }

    /// Transpose round-trips through its inverse permutation.
    #[test]
    fn transpose_roundtrip(seed in 0u64..100) {
        let t = Tensor::random(vec![2, 3, 4], seed);
        for perm in [[0usize, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let mut inv = [0usize; 3];
            for (d, &p) in perm.iter().enumerate() {
                inv[p] = d;
            }
            let back = t.transpose(&perm).unwrap().transpose(&inv).unwrap();
            prop_assert_eq!(&back, &t);
        }
    }

    /// Concat inverts split for arbitrary part sizes.
    #[test]
    fn split_concat_roundtrip(a in 1usize..5, b in 1usize..5, c in 1usize..5, seed in 0u64..100) {
        let t = Tensor::random(vec![a + b + c, 3], seed);
        let parts = t.split(0, &[a, b, c]).unwrap();
        let refs: Vec<&Tensor> = parts.iter().collect();
        let back = Tensor::concat(&refs, 0).unwrap();
        prop_assert_eq!(back, t);
    }

    /// Slicing out the interior of a padded tensor recovers the original.
    #[test]
    fn pad_slice_roundtrip(p in 0usize..3, seed in 0u64..100) {
        let t = Tensor::random(vec![3, 4], seed);
        let padded = t.pad(&[p, p], &[p, p], -1.0).unwrap();
        let back = padded.slice(&[p, p], &[p + 3, p + 4]).unwrap();
        prop_assert_eq!(back, t);
    }

    /// Reduce-sum distributes over concat along the reduced axis.
    #[test]
    fn reduce_sum_distributes_over_concat(seed in 0u64..100) {
        let a = Tensor::random(vec![3, 4], seed);
        let b = Tensor::random(vec![3, 5], seed + 1);
        let cat = Tensor::concat(&[&a, &b], 1).unwrap();
        let total = cat.reduce_sum(1).unwrap();
        let partial = a
            .reduce_sum(1)
            .unwrap()
            .binary(&b.reduce_sum(1).unwrap(), korch::tensor::BinaryOp::Add)
            .unwrap();
        prop_assert!(total.allclose(&partial, 1e-4));
    }

    /// Max-pool with stride=kernel equals blockwise reduce-max.
    #[test]
    fn pool_matches_blockwise_reduce(seed in 0u64..100) {
        let t = Tensor::random(vec![1, 1, 4, 4], seed);
        let pooled = t
            .pool2d(korch::tensor::PoolSpec::new(2, 2), ReduceKind::Max)
            .unwrap();
        for by in 0..2 {
            for bx in 0..2 {
                let mut m = f32::NEG_INFINITY;
                for dy in 0..2 {
                    for dx in 0..2 {
                        m = m.max(t.at(&[0, 0, 2 * by + dy, 2 * bx + dx]));
                    }
                }
                prop_assert_eq!(pooled.at(&[0, 0, by, bx]), m);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The microkernel lowering of conv2d is the scalar definition bit for
    /// bit, on dense and on ReLU'd (zero-heavy) inputs, for any legal
    /// geometry.
    #[test]
    fn conv2d_is_bit_identical_to_the_scalar_definition(
        (groups, cg, ocg) in (1usize..4, 1usize..4, 1usize..9),
        (kernel, stride, padding) in (1usize..6, 1usize..4, 0usize..3),
        (h, w, batch) in (1usize..14, 1usize..40, 1usize..3),
        relu in prop::bool::ANY,
        seed in 0u64..1000,
    ) {
        prop_assume!(h + 2 * padding >= kernel && w + 2 * padding >= kernel);
        let x = Tensor::random(vec![batch, groups * cg, h, w], seed);
        let x = if relu { x.unary(korch::tensor::UnaryOp::Relu) } else { x };
        let wt = Tensor::random(vec![groups * ocg, cg, kernel, kernel], seed + 1);
        let got = x.conv2d(&wt, stride, padding, groups).unwrap();
        let want = conv2d_scalar(&x, &wt, stride, padding, groups);
        prop_assert!(
            got.as_slice().iter().map(|v| v.to_bits()).eq(want.iter().map(|v| v.to_bits())),
            "conv2d diverged: x {:?} w {:?} stride {stride} padding {padding} groups {groups}",
            x.shape(),
            wt.shape()
        );
    }
}
