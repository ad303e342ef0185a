//! Reduce and broadcast reference kernels (paper §3).
//!
//! A reduce primitive aggregates along one dimension, *removing* it (the
//! paper's formulation); a broadcast primitive is the exact inverse,
//! replicating a tensor along a new dimension inserted at a given axis.

use crate::{check_len, strides_of, Tensor, TensorError};

/// Aggregation operator for reduce primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ReduceKind {
    /// Sum of elements along the axis.
    Sum,
    /// Arithmetic mean along the axis.
    Mean,
    /// Maximum along the axis.
    Max,
    /// Minimum along the axis.
    Min,
}

impl ReduceKind {
    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ReduceKind::Sum => "sum",
            ReduceKind::Mean => "mean",
            ReduceKind::Max => "max",
            ReduceKind::Min => "min",
        }
    }
}

impl Tensor {
    /// Reduces along `axis` with the given aggregator, removing that axis:
    /// [`Tensor::reduce_into`] over a fresh output.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn reduce(&self, axis: usize, kind: ReduceKind) -> Result<Tensor, TensorError> {
        let mut out_shape = self.shape().to_vec();
        if axis < out_shape.len() {
            out_shape.remove(axis);
        }
        let mut out = vec![0f32; out_shape.iter().product()];
        self.reduce_into(axis, kind, &mut out)?;
        Tensor::from_vec(out_shape, out)
    }

    /// Writes `self.reduce(axis, kind)` into `out`, every element:
    /// [`Tensor::reduce_tile`] over the whole output.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank` and
    /// [`TensorError::ElementCount`] if `out` is not the output's size.
    pub fn reduce_into(
        &self,
        axis: usize,
        kind: ReduceKind,
        out: &mut [f32],
    ) -> Result<(), TensorError> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            });
        }
        let shape = self.shape();
        let total =
            shape[..axis].iter().product::<usize>() * shape[axis + 1..].iter().product::<usize>();
        check_len(out, total)?;
        self.reduce_tile(axis, kind, 0..total, out)
    }

    /// Convenience wrapper for [`Tensor::reduce`] with [`ReduceKind::Sum`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn reduce_sum(&self, axis: usize) -> Result<Tensor, TensorError> {
        self.reduce(axis, ReduceKind::Sum)
    }

    /// Broadcasts by inserting a new dimension of size `size` at `axis` and
    /// replicating the tensor along it. Inverse of [`Tensor::reduce`]'s
    /// shape effect.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis > rank` (inserting at
    /// `rank` appends a trailing dimension).
    pub fn broadcast(&self, axis: usize, size: usize) -> Result<Tensor, TensorError> {
        let mut out = vec![0f32; self.numel() * size];
        self.broadcast_into(axis, size, &mut out)?;
        let mut out_shape = self.shape().to_vec();
        out_shape.insert(axis, size);
        Tensor::from_vec(out_shape, out)
    }

    /// Writes `self.broadcast(axis, size)` into `out`, every element:
    /// [`Tensor::broadcast_tile`] over the whole output.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis > rank` and
    /// [`TensorError::ElementCount`] if `out` is not the output's size.
    pub fn broadcast_into(
        &self,
        axis: usize,
        size: usize,
        out: &mut [f32],
    ) -> Result<(), TensorError> {
        if axis > self.rank() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            });
        }
        let total = self.numel() * size;
        check_len(out, total)?;
        self.broadcast_tile(axis, size, 0..total, out)
    }

    /// Broadcasts this tensor to `target` shape using NumPy-style rules
    /// (align trailing dimensions; size-1 dims replicate). Used by operator
    ///-level reference semantics before fission makes broadcasts explicit.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes are not
    /// broadcast-compatible.
    pub fn broadcast_to(&self, target: &[usize]) -> Result<Tensor, TensorError> {
        if self.shape() == target {
            return Ok(self.clone());
        }
        if self.rank() > target.len() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: target.to_vec(),
            });
        }
        let pad = target.len() - self.rank();
        let mut src_shape = vec![1usize; pad];
        src_shape.extend_from_slice(self.shape());
        for (&s, &t) in src_shape.iter().zip(target) {
            if s != t && s != 1 {
                return Err(TensorError::ShapeMismatch {
                    lhs: self.shape().to_vec(),
                    rhs: target.to_vec(),
                });
            }
        }
        let src_strides = strides_of(&src_shape);
        let numel: usize = target.iter().product();
        let mut out = Vec::with_capacity(numel);
        let data = self.as_slice();
        let mut idx = vec![0usize; target.len()];
        for _ in 0..numel {
            let mut off = 0usize;
            for d in 0..target.len() {
                let coord = if src_shape[d] == 1 { 0 } else { idx[d] };
                off += coord * src_strides[d];
            }
            out.push(data[off]);
            for d in (0..target.len()).rev() {
                idx[d] += 1;
                if idx[d] < target[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Tensor::from_vec(target.to_vec(), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BinaryOp;

    #[test]
    fn reduce_sum_middle_axis() {
        // shape [2,3,2]
        let t = Tensor::from_fn(vec![2, 3, 2], |i| i as f32);
        let r = t.reduce_sum(1).unwrap();
        assert_eq!(r.shape(), &[2, 2]);
        // [ [0+2+4, 1+3+5], [6+8+10, 7+9+11] ]
        assert_eq!(r.as_slice(), &[6.0, 9.0, 24.0, 27.0]);
    }

    #[test]
    fn reduce_mean_max_min() {
        let t = Tensor::from_vec(vec![1, 4], vec![1.0, 2.0, 3.0, 6.0]).unwrap();
        assert_eq!(t.reduce(1, ReduceKind::Mean).unwrap().as_slice(), &[3.0]);
        assert_eq!(t.reduce(1, ReduceKind::Max).unwrap().as_slice(), &[6.0]);
        assert_eq!(t.reduce(1, ReduceKind::Min).unwrap().as_slice(), &[1.0]);
    }

    #[test]
    fn reduce_axis_out_of_range() {
        let t = Tensor::zeros(vec![2, 2]);
        assert!(t.reduce_sum(2).is_err());
    }

    #[test]
    fn broadcast_inserts_axis() {
        let t = Tensor::from_vec(vec![2], vec![1.0, 2.0]).unwrap();
        let b = t.broadcast(0, 3).unwrap();
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
        let b = t.broadcast(1, 3).unwrap();
        assert_eq!(b.shape(), &[2, 3]);
        assert_eq!(b.as_slice(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn broadcast_is_inverse_of_reduce_shape() {
        let t = Tensor::random(vec![2, 3, 4], 1);
        let r = t.reduce_sum(1).unwrap();
        let b = r.broadcast(1, 3).unwrap();
        assert_eq!(b.shape(), t.shape());
    }

    #[test]
    fn broadcast_to_numpy_rules() {
        let t = Tensor::from_vec(vec![3, 1], vec![1.0, 2.0, 3.0]).unwrap();
        let b = t.broadcast_to(&[2, 3, 2]).unwrap();
        assert_eq!(b.shape(), &[2, 3, 2]);
        assert_eq!(
            b.as_slice(),
            &[1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        );
    }

    #[test]
    fn broadcast_to_rejects_incompatible() {
        let t = Tensor::zeros(vec![3]);
        assert!(t.broadcast_to(&[4]).is_err());
        assert!(t.broadcast_to(&[2, 4]).is_err());
    }

    #[test]
    fn reduce_then_broadcast_softmax_denominator() {
        // The softmax fission pattern: exp -> reduce_sum -> broadcast -> div.
        let x = Tensor::random(vec![4, 8], 7);
        let e = x.map(f32::exp);
        let s = e.reduce_sum(1).unwrap();
        let b = s.broadcast(1, 8).unwrap();
        let sm = e.binary(&b, BinaryOp::Div).unwrap();
        let rows = sm.reduce_sum(1).unwrap();
        for &r in rows.as_slice() {
            assert!((r - 1.0).abs() < 1e-5);
        }
    }
}
