//! Window-reduce (pooling) reference kernels. The paper classifies MaxPool
//! under reduce-and-broadcast primitives (Table 1); Korch's IR models
//! pooling as a dedicated window-reduce primitive with reduce-like cost.

use crate::reduce::ReduceKind;
use crate::{check_len, filled, Tensor, TensorError};

/// Parameters for a 2-D pooling window over an NCHW tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolSpec {
    /// Window height and width.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Symmetric zero padding (max-pool pads with `-inf` semantics: padded
    /// cells never win; avg-pool divides by the full window size, matching
    /// `count_include_pad=true`).
    pub padding: usize,
}

impl PoolSpec {
    /// Pooling with square `kernel`, matching `stride`, and no padding.
    pub fn new(kernel: usize, stride: usize) -> Self {
        Self {
            kernel,
            stride,
            padding: 0,
        }
    }

    /// Output spatial size for an input spatial size.
    pub fn out_dim(&self, input: usize) -> usize {
        (input + 2 * self.padding - self.kernel) / self.stride + 1
    }
}

impl Tensor {
    /// 2-D max or average pooling on an NCHW tensor —
    /// [`Tensor::pool2d_into`] over a fresh output.
    ///
    /// # Errors
    ///
    /// Returns an error for non-rank-4 inputs, zero stride, or windows larger
    /// than the padded input.
    pub fn pool2d(&self, spec: PoolSpec, kind: ReduceKind) -> Result<Tensor, TensorError> {
        filled(self.pool_shape(spec)?.to_vec(), |out| {
            self.pool2d_into(spec, kind, out)
        })
    }

    /// Writes `self.pool2d(spec, kind)` row-major into `out`, every
    /// element.
    ///
    /// # Errors
    ///
    /// [`Tensor::pool2d`]'s errors, and [`TensorError::ElementCount`] if
    /// `out` is not the output's size.
    pub fn pool2d_into(
        &self,
        spec: PoolSpec,
        kind: ReduceKind,
        out: &mut [f32],
    ) -> Result<(), TensorError> {
        let [n, c, oh, ow] = self.pool_shape(spec)?;
        check_len(out, n * c * oh * ow)?;
        let (h, w) = (self.shape()[2], self.shape()[3]);
        let x = self.as_slice();
        for ni in 0..n {
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = match kind {
                            ReduceKind::Max => f32::NEG_INFINITY,
                            ReduceKind::Min => f32::INFINITY,
                            _ => 0.0,
                        };
                        for ky in 0..spec.kernel {
                            let iy = oy * spec.stride + ky;
                            if iy < spec.padding || iy - spec.padding >= h {
                                continue;
                            }
                            let iy = iy - spec.padding;
                            for kx in 0..spec.kernel {
                                let ix = ox * spec.stride + kx;
                                if ix < spec.padding || ix - spec.padding >= w {
                                    continue;
                                }
                                let ix = ix - spec.padding;
                                let v = x[((ni * c + ci) * h + iy) * w + ix];
                                acc = match kind {
                                    ReduceKind::Max => acc.max(v),
                                    ReduceKind::Min => acc.min(v),
                                    _ => acc + v,
                                };
                            }
                        }
                        if matches!(kind, ReduceKind::Mean) {
                            acc /= (spec.kernel * spec.kernel) as f32;
                        }
                        out[((ni * c + ci) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        Ok(())
    }

    fn pool_shape(&self, spec: PoolSpec) -> Result<[usize; 4], TensorError> {
        let &[n, c, h, w] = self.shape() else {
            return Err(TensorError::InvalidArgument(format!(
                "pool2d expects NCHW rank-4 input, got rank {}",
                self.rank()
            )));
        };
        if spec.stride == 0 || spec.kernel == 0 {
            return Err(TensorError::InvalidArgument(
                "pool kernel and stride must be positive".into(),
            ));
        }
        if h + 2 * spec.padding < spec.kernel || w + 2 * spec.padding < spec.kernel {
            return Err(TensorError::InvalidArgument(
                "pool window larger than padded input".into(),
            ));
        }
        Ok([n, c, spec.out_dim(h), spec.out_dim(w)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_2x2() {
        let x = Tensor::from_fn(vec![1, 1, 4, 4], |i| i as f32);
        let y = x.pool2d(PoolSpec::new(2, 2), ReduceKind::Max).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn avgpool_2x2() {
        let x = Tensor::from_fn(vec![1, 1, 2, 2], |i| i as f32);
        let y = x.pool2d(PoolSpec::new(2, 2), ReduceKind::Mean).unwrap();
        assert_eq!(y.as_slice(), &[1.5]);
    }

    #[test]
    fn maxpool_with_padding_ignores_border() {
        let x = Tensor::full(vec![1, 1, 2, 2], -5.0);
        let spec = PoolSpec {
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let y = x.pool2d(spec, ReduceKind::Max).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        // all windows see only -5 (padding is not a candidate value)
        assert!(y.as_slice().iter().all(|&v| v == -5.0));
    }

    #[test]
    fn pool_same_size_as_spp() {
        // SPP-style pooling: kernel 5, stride 1, pad 2 keeps spatial dims.
        let x = Tensor::random(vec![1, 2, 8, 8], 11);
        let spec = PoolSpec {
            kernel: 5,
            stride: 1,
            padding: 2,
        };
        let y = x.pool2d(spec, ReduceKind::Max).unwrap();
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn pool_validates_input() {
        let x = Tensor::zeros(vec![2, 2]);
        assert!(x.pool2d(PoolSpec::new(2, 2), ReduceKind::Max).is_err());
        let x = Tensor::zeros(vec![1, 1, 2, 2]);
        assert!(x.pool2d(PoolSpec::new(0, 1), ReduceKind::Max).is_err());
        assert!(x.pool2d(PoolSpec::new(4, 1), ReduceKind::Max).is_err());
    }

    /// The historical allocating pool loop, kept verbatim as the
    /// reference `pool2d_into` is held to.
    fn naive_pool2d(x: &Tensor, spec: PoolSpec, kind: ReduceKind) -> Vec<f32> {
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let oh = spec.out_dim(h);
        let ow = spec.out_dim(w);
        let mut out = vec![0f32; n * c * oh * ow];
        let x = x.as_slice();
        for ni in 0..n {
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = match kind {
                            ReduceKind::Max => f32::NEG_INFINITY,
                            ReduceKind::Min => f32::INFINITY,
                            _ => 0.0,
                        };
                        for ky in 0..spec.kernel {
                            let iy = oy * spec.stride + ky;
                            if iy < spec.padding || iy - spec.padding >= h {
                                continue;
                            }
                            let iy = iy - spec.padding;
                            for kx in 0..spec.kernel {
                                let ix = ox * spec.stride + kx;
                                if ix < spec.padding || ix - spec.padding >= w {
                                    continue;
                                }
                                let ix = ix - spec.padding;
                                let v = x[((ni * c + ci) * h + iy) * w + ix];
                                acc = match kind {
                                    ReduceKind::Max => acc.max(v),
                                    ReduceKind::Min => acc.min(v),
                                    _ => acc + v,
                                };
                            }
                        }
                        if matches!(kind, ReduceKind::Mean) {
                            acc /= (spec.kernel * spec.kernel) as f32;
                        }
                        out[((ni * c + ci) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    /// `pool2d_into` over a stale buffer writes what the historical loop
    /// did, bit for bit, for every reduce kind over padded, strided and
    /// SPP windows; a buffer of the wrong size is rejected.
    #[test]
    fn pool2d_into_matches_the_old_loop() {
        let specs = [
            PoolSpec::new(2, 2),
            PoolSpec::new(3, 1),
            PoolSpec {
                kernel: 3,
                stride: 2,
                padding: 1,
            },
            PoolSpec {
                kernel: 5,
                stride: 1,
                padding: 2,
            },
        ];
        let kinds = [
            ReduceKind::Max,
            ReduceKind::Min,
            ReduceKind::Mean,
            ReduceKind::Sum,
        ];
        for shape in [vec![1, 1, 4, 4], vec![2, 3, 7, 5], vec![1, 2, 1, 6]] {
            let x = Tensor::random(shape.clone(), 21);
            for spec in specs {
                let Ok(got) = x.pool2d(spec, ReduceKind::Max) else {
                    continue;
                };
                for kind in kinds {
                    let want = naive_pool2d(&x, spec, kind);
                    let mut stale = vec![f32::NAN; got.numel()];
                    x.pool2d_into(spec, kind, &mut stale).unwrap();
                    assert!(
                        crate::bits(&stale) == crate::bits(&want),
                        "{shape:?} {spec:?} {kind:?}"
                    );
                }
            }
        }
        let x = Tensor::random(vec![1, 1, 4, 4], 2);
        let err = x.pool2d_into(PoolSpec::new(2, 2), ReduceKind::Max, &mut [0.0; 5]);
        assert!(
            matches!(err, Err(TensorError::ElementCount { .. })),
            "{err:?}"
        );
    }
}
