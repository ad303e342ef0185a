//! Dense CPU tensor substrate for the Korch reproduction.
//!
//! The paper executes candidate kernels on real GPUs; this crate provides the
//! functional half of that substitution: a row-major dense `f32` [`Tensor`]
//! with an implementation of every tensor-algebra primitive Korch's IR can
//! express (elementwise, reduce, broadcast, layout transformation, linear
//! transformation, pooling, resize). The interpreter in `korch-exec` uses
//! these kernels to verify that operator fission, primitive-graph
//! transformations and kernel orchestration are all functionally equivalent
//! to the unoptimized program — and `korch-runtime` serves every request
//! through the same kernels (a walk body calls them member by member), so
//! the ones a request spends its time in are blocked for the host:
//!
//! - **matmul / conv2d** ([`Tensor::matmul`], [`Tensor::conv2d`]): a packed
//!   panel under a register-blocked microkernel whose column sweep runs at
//!   32-, 16- and 8-wide compile-time widths. Each output element keeps
//!   its own ascending-`p` accumulation chain from `0.0` with the
//!   zero-skip; blocking only chooses which independent chains run
//!   together.
//! - **transpose / slice** ([`Tensor::transpose`], [`Tensor::slice`]): dims
//!   that stay adjacent are merged, then contiguous runs are copied, or
//!   16×16 tiles turned when the output's last dim is strided in the
//!   source. A value copy of the same elements an index-by-index gather
//!   reads.
//! - **pad / concat / split** ([`Tensor::pad`], [`Tensor::concat`],
//!   [`Tensor::split`]): one `copy_from_slice` per contiguous run, and a
//!   fill of the pad value for a border row or a row's two ends. Pure
//!   copies.
//! - **broadcast** ([`Tensor::broadcast`], [`Tensor::broadcast_tile`]): one
//!   run-based body — a fill per input element for a last-axis broadcast,
//!   row copies otherwise. Pure replication.
//! - **resize** ([`Tensor::resize2d`]): per-row and per-column source
//!   indices and weights are tabulated once per call with the per-element
//!   formula's own `f32` expressions; the inner loop is a gather or the
//!   same four-term blend, in the same order.
//! - **elementwise** ([`Tensor::unary`], [`Tensor::binary`],
//!   [`unary_tile`], …): the tile kernels match on the op once per call
//!   and run one loop per variant over [`UnaryOp::apply`] /
//!   [`BinaryOp::apply`], which the compiler vectorizes; the `Tensor`
//!   entry points are those kernels over a fresh output. `exp` (and with
//!   it `sigmoid` and `erf`) is a branch-free polynomial within 1 ulp of
//!   the correctly rounded value, flushing results below the normal range
//!   to zero — not libm's `expf`.
//!
//! Every layout method but `reshape`, and every resize, pool, reduce,
//! broadcast and linear one, is its `*_into` form (e.g.
//! [`Tensor::pad_into`]) over a fresh output: the runtime calls those
//! forms on buffers it owns.
//!
//! None of these re-associates or fuses a float operation, so every one is
//! **bit-identical** to its element-wise definition, which each module
//! keeps under `#[cfg(test)]` as the oracle its tests compare against by
//! `to_bits` (the elementwise kernels' oracle, a per-element `apply` loop,
//! is `tests/elementwise.rs`).
//!
//! # Example
//!
//! ```
//! use korch_tensor::Tensor;
//!
//! # fn main() -> Result<(), korch_tensor::TensorError> {
//! let x = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.])?;
//! let y = x.map(|v| v * 2.0);
//! let s = y.reduce_sum(1)?; // shape [2]
//! assert_eq!(s.as_slice(), &[12.0, 30.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod elementwise;
mod error;
mod layout;
mod linear;
mod pack;
mod pool;
mod reduce;
mod resize;
mod tile;

pub use elementwise::{BinaryOp, UnaryOp};
pub use error::TensorError;
pub use linear::{conv2d_flops, matmul_flops, MatMulSpec};
pub use pack::{PackedB, MR as MATMUL_MR};
pub use pool::PoolSpec;
pub use reduce::ReduceKind;
pub use resize::ResizeMode;
pub use tile::{binary_scalar_lhs_tile, binary_scalar_tile, binary_tile, unary_tile};

use std::fmt;

/// Row-major dense `f32` tensor.
///
/// Shapes are `Vec<usize>`; a scalar is represented by an empty shape and a
/// single element. Operations allocate fresh output tensors; the runtime's
/// hot paths avoid the copy where a kernel allows it — the range-restricted
/// tile kernels write into caller-provided buffers, [`PackedB`] borrows an
/// untransposed operand, and [`Tensor::into_shape`] reshapes in place.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ElementCount`] if `data.len()` does not equal
    /// the product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self, TensorError> {
        let numel: usize = shape.iter().product();
        if numel != data.len() {
            return Err(TensorError::ElementCount {
                expected: numel,
                actual: data.len(),
            });
        }
        Ok(Self { shape, data })
    }

    /// Creates a scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Self {
            shape: vec![],
            data: vec![value],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let numel = shape.iter().product();
        Self {
            shape,
            data: vec![value; numel],
        }
    }

    /// Creates a tensor of zeros.
    pub fn zeros(shape: Vec<usize>) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: Vec<usize>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor with deterministic pseudo-random values in
    /// `[-1, 1)`, seeded by `seed` (reproducible across runs).
    pub fn random(shape: Vec<usize>, seed: u64) -> Self {
        // SplitMix64: dependency-free, stable across platforms and runs.
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let numel = shape.iter().product();
        let data = (0..numel)
            .map(|_| ((next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32)
            .collect();
        Self { shape, data }
    }

    /// Creates a tensor whose flattened element `i` is `f(i)`.
    pub fn from_fn(shape: Vec<usize>, f: impl Fn(usize) -> f32) -> Self {
        let numel = shape.iter().product();
        let data = (0..numel).map(f).collect();
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Size in bytes when materialized as `f32` in device memory.
    pub fn byte_size(&self) -> usize {
        self.data.len() * 4
    }

    /// Borrow the row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Consumes the tensor, reinterpreting its storage with a new shape of
    /// equal element count — [`Tensor::reshape`] without the copy.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ElementCount`] if element counts differ.
    pub fn into_shape(self, shape: Vec<usize>) -> Result<Self, TensorError> {
        Self::from_vec(shape, self.data)
    }

    /// Gives the tensor a new shape of equal element count in place, reusing
    /// the shape's own storage — [`Tensor::into_shape`] for a buffer that
    /// stays where it is (a walk's scratch, relabelled per step).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ElementCount`] if element counts differ.
    pub fn set_shape(&mut self, shape: &[usize]) -> Result<(), TensorError> {
        let numel: usize = shape.iter().product();
        if numel != self.data.len() {
            return Err(TensorError::ElementCount {
                expected: numel,
                actual: self.data.len(),
            });
        }
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        Ok(())
    }

    /// Row-major strides for this tensor's shape.
    pub fn strides(&self) -> Vec<usize> {
        strides_of(&self.shape)
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[ravel(idx, &self.shape)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let flat = ravel(idx, &self.shape);
        self.data[flat] = value;
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Maximum absolute difference against `other`, for tolerance checks.
    /// Two NaNs, or two equal values (`inf` and `inf` too), differ by 0;
    /// any other pair whose difference is NaN — a NaN against a number —
    /// differs by `f32::INFINITY`, so no mismatch is folded away.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> Result<f32, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| match (a - b).abs() {
                d if !d.is_nan() => d,
                _ if a == b || (a.is_nan() && b.is_nan()) => 0.0,
                _ => f32::INFINITY,
            })
            .fold(0.0, f32::max))
    }

    /// `true` when every element is within `tol` of `other`'s, relative to
    /// the magnitude of the larger operand (mixed absolute/relative check).
    pub fn allclose(&self, other: &Self, tol: f32) -> bool {
        self.shape == other.shape
            && self.data.iter().zip(&other.data).all(|(&a, &b)| {
                let scale = 1.0f32.max(a.abs()).max(b.abs());
                (a - b).abs() <= tol * scale
            })
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.numel() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} elements]", self.numel())
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Self::scalar(0.0)
    }
}

/// Row-major strides for a shape.
pub fn strides_of(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

/// Flattens a multi-dimensional index into a row-major offset.
///
/// # Panics
///
/// Panics if `idx` has the wrong rank or any coordinate is out of bounds.
pub fn ravel(idx: &[usize], shape: &[usize]) -> usize {
    assert_eq!(idx.len(), shape.len(), "index rank mismatch");
    let mut flat = 0usize;
    for (d, (&i, &s)) in idx.iter().zip(shape).enumerate() {
        assert!(i < s, "index {i} out of bounds for dim {d} of size {s}");
        flat = flat * s + i;
    }
    flat
}

/// Checks that `out` holds exactly the `expected` elements an into-slice
/// kernel writes.
fn check_len(out: &[f32], expected: usize) -> Result<(), TensorError> {
    if out.len() != expected {
        return Err(TensorError::ElementCount {
            expected,
            actual: out.len(),
        });
    }
    Ok(())
}

/// A fresh tensor of `shape` that `write` fills — how each allocating
/// layout, resize and pool method runs its into-slice form.
fn filled(
    shape: Vec<usize>,
    write: impl FnOnce(&mut [f32]) -> Result<(), TensorError>,
) -> Result<Tensor, TensorError> {
    let mut out = vec![0f32; shape.iter().product()];
    write(&mut out)?;
    Tensor::from_vec(shape, out)
}

/// The bit patterns of `v`: what the kernels' tests compare against their
/// element-wise references, so `-0.0` and `0.0` (or two NaNs) never pass
/// for each other.
#[cfg(test)]
pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|e| e.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expands a flat row-major offset into a multi-dimensional index:
    /// the per-element references of the layout kernels index with it.
    pub(crate) fn unravel(mut flat: usize, shape: &[usize]) -> Vec<usize> {
        let mut idx = vec![0usize; shape.len()];
        for d in (0..shape.len()).rev() {
            idx[d] = flat % shape[d];
            flat /= shape[d];
        }
        idx
    }

    #[test]
    fn from_vec_checks_element_count() {
        let err = Tensor::from_vec(vec![2, 2], vec![1.0]).unwrap_err();
        assert!(matches!(
            err,
            TensorError::ElementCount {
                expected: 4,
                actual: 1
            }
        ));
    }

    #[test]
    fn scalar_has_empty_shape() {
        let t = Tensor::scalar(3.5);
        assert!(t.shape().is_empty());
        assert_eq!(t.numel(), 1);
        assert_eq!(t.as_slice(), &[3.5]);
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(strides_of(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides_of(&[]), Vec::<usize>::new());
    }

    #[test]
    fn ravel_unravel_roundtrip() {
        let shape = [3, 4, 5];
        for flat in 0..60 {
            let idx = unravel(flat, &shape);
            assert_eq!(ravel(&idx, &shape), flat);
        }
    }

    #[test]
    fn at_and_set() {
        let mut t = Tensor::zeros(vec![2, 3]);
        t.set(&[1, 2], 7.0);
        assert_eq!(t.at(&[1, 2]), 7.0);
        assert_eq!(t.at(&[0, 0]), 0.0);
    }

    #[test]
    fn random_is_deterministic() {
        let a = Tensor::random(vec![8], 42);
        let b = Tensor::random(vec![8], 42);
        assert_eq!(a, b);
        let c = Tensor::random(vec![8], 43);
        assert_ne!(a, c);
    }

    #[test]
    fn allclose_tolerates_small_error() {
        let a = Tensor::from_vec(vec![2], vec![1.0, 100.0]).unwrap();
        let b = Tensor::from_vec(vec![2], vec![1.0 + 1e-6, 100.0 + 1e-4]).unwrap();
        assert!(a.allclose(&b, 1e-5));
        assert!(!a.allclose(&b, 1e-9));
    }

    #[test]
    fn max_abs_diff_counts_nan_mismatches() {
        let diff = |a: f32, b: f32| {
            let t = |v| Tensor::from_vec(vec![2], vec![0.5, v]).unwrap();
            t(a).max_abs_diff(&t(b)).unwrap()
        };
        let (inf, nan) = (f32::INFINITY, f32::NAN);
        assert_eq!(diff(nan, 1.0), inf);
        assert_eq!(diff(1.0, nan), inf);
        assert_eq!(diff(nan, inf), inf);
        assert_eq!(diff(inf, -inf), inf);
        assert_eq!(diff(nan, nan), 0.0);
        assert_eq!(diff(inf, inf), 0.0);
        assert_eq!(diff(-inf, -inf), 0.0);
        assert_eq!(diff(0.0, -0.0), 0.0);
        assert_eq!(diff(1.0, 3.5), 2.5);
    }

    #[test]
    fn debug_prints_shape() {
        let t = Tensor::zeros(vec![100]);
        let s = format!("{t:?}");
        assert!(s.contains("[100]"));
    }
}
