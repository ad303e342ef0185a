//! Layout transformation reference kernels (paper §3): transpose, reshape,
//! slice, concat, split, pad. These move data without arithmetic.

use crate::{check_len, filled, strides_of, Tensor, TensorError};

/// Side of the square tile the strided copy transposes at a time: 16 rows
/// of 16 `f32` are 16 source and 16 destination cache lines, all of which
/// stay in L1 while the tile is turned.
const TILE: usize = 16;

/// Fills the contiguous row-major `out` from a strided view of `data`:
/// output dim `d` has `dims[d] = (size, source stride)` and
/// `out.len()` is the product of the sizes — the one loop behind
/// [`Tensor::transpose`] (strides permuted) and [`Tensor::slice`] (`data`
/// offset to the first element). A value copy of exactly the elements the
/// per-element odometer gathers, so bit-identical to it by construction.
///
/// Dims of size 1 are dropped and output-adjacent dims that are also
/// adjacent in the source are merged, then the two innermost loops are
/// taken out of the odometer: when the output's last dim is unit-stride
/// in the source they copy contiguous runs; otherwise they turn
/// [`TILE`]²-blocks over the last dim and the dim the source is most
/// contiguous in, so both sides are touched a cache line at a time.
fn copy_strided(data: &[f32], dims: &[(usize, usize)], out: &mut [f32]) {
    if out.is_empty() {
        return;
    }
    // (size, source stride, output stride), innermost last.
    let mut merged: Vec<(usize, usize, usize)> = Vec::with_capacity(dims.len());
    for &(size, stride) in dims.iter().filter(|d| d.0 != 1) {
        match merged.last_mut() {
            Some(prev) if prev.1 == stride * size => *prev = (prev.0 * size, stride, 0),
            _ => merged.push((size, stride, 0)),
        }
    }
    let mut span = 1;
    for d in merged.iter_mut().rev() {
        d.2 = span;
        span *= d.0;
    }
    let Some((len, len_stride, _)) = merged.pop() else {
        out[0] = data[0];
        return;
    };
    // The row dim the inner pair sweeps with the last one: the next-outer
    // dim for run copies, the source's most contiguous dim for tiles.
    let row = if len_stride == 1 {
        merged.len().checked_sub(1)
    } else {
        (0..merged.len()).min_by_key(|&d| merged[d].1)
    };
    let (rows, row_stride, row_span) = row.map_or((1, 0, 0), |d| merged.remove(d));
    let mut idx = vec![0usize; merged.len()];
    loop {
        let (src, dst) = merged
            .iter()
            .zip(&idx)
            .fold((0, 0), |(s, o), (d, &i)| (s + i * d.1, o + i * d.2));
        if len_stride == 1 {
            for r in 0..rows {
                let from = src + r * row_stride;
                out[dst + r * row_span..][..len].copy_from_slice(&data[from..from + len]);
            }
        } else {
            for r0 in (0..rows).step_by(TILE) {
                for c0 in (0..len).step_by(TILE) {
                    let cols = TILE.min(len - c0);
                    for r in r0..rows.min(r0 + TILE) {
                        let column = &data[src + r * row_stride + c0 * len_stride..];
                        let orow = &mut out[dst + r * row_span + c0..][..cols];
                        for (c, o) in orow.iter_mut().enumerate() {
                            *o = column[c * len_stride];
                        }
                    }
                }
            }
        }
        // Advance the odometer over the remaining outer dims.
        let mut d = merged.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < merged[d].0 {
                break;
            }
            idx[d] = 0;
        }
    }
}

impl Tensor {
    /// Permutes dimensions: output dim `d` is input dim `perm[d]` —
    /// [`Tensor::transpose_into`] over a fresh output.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `perm` is not a
    /// permutation of `0..rank`.
    pub fn transpose(&self, perm: &[usize]) -> Result<Tensor, TensorError> {
        let mut out = vec![0f32; self.numel()];
        self.transpose_into(perm, &mut out)?;
        let out_shape = perm.iter().map(|&p| self.shape()[p]).collect();
        Tensor::from_vec(out_shape, out)
    }

    /// Writes `self.transpose(perm)` row-major into `out`, every element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `perm` is not a
    /// permutation of `0..rank` or `out` does not hold exactly
    /// `self.numel()` elements.
    pub fn transpose_into(&self, perm: &[usize], out: &mut [f32]) -> Result<(), TensorError> {
        let rank = self.rank();
        if perm.len() != rank {
            return Err(TensorError::InvalidArgument(format!(
                "permutation {perm:?} has wrong length for rank {rank}"
            )));
        }
        let mut seen = vec![false; rank];
        for &p in perm {
            if p >= rank || seen[p] {
                return Err(TensorError::InvalidArgument(format!(
                    "{perm:?} is not a permutation of 0..{rank}"
                )));
            }
            seen[p] = true;
        }
        check_len(out, self.numel())?;
        let in_shape = self.shape();
        let in_strides = strides_of(in_shape);
        let dims: Vec<(usize, usize)> =
            perm.iter().map(|&p| (in_shape[p], in_strides[p])).collect();
        copy_strided(self.as_slice(), &dims, out);
        Ok(())
    }

    /// Reinterprets the data with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ElementCount`] if element counts differ.
    pub fn reshape(&self, shape: Vec<usize>) -> Result<Tensor, TensorError> {
        Tensor::from_vec(shape, self.as_slice().to_vec())
    }

    /// Extracts `[start, end)` ranges per dimension —
    /// [`Tensor::slice_into`] over a fresh output.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the ranges have the wrong
    /// rank or exceed bounds.
    pub fn slice(&self, starts: &[usize], ends: &[usize]) -> Result<Tensor, TensorError> {
        filled(self.slice_shape(starts, ends)?, |out| {
            self.slice_into(starts, ends, out)
        })
    }

    /// Writes `self.slice(starts, ends)` row-major into `out`, every
    /// element.
    ///
    /// # Errors
    ///
    /// [`Tensor::slice`]'s errors, and [`TensorError::ElementCount`] if
    /// `out` is not the output's size.
    pub fn slice_into(
        &self,
        starts: &[usize],
        ends: &[usize],
        out: &mut [f32],
    ) -> Result<(), TensorError> {
        let out_shape = self.slice_shape(starts, ends)?;
        check_len(out, out_shape.iter().product())?;
        let in_strides = strides_of(self.shape());
        let base: usize = starts.iter().zip(&in_strides).map(|(s, st)| s * st).sum();
        let dims: Vec<(usize, usize)> = out_shape.into_iter().zip(in_strides).collect();
        // An empty range may start at a dim's end, past the last element.
        if !out.is_empty() {
            copy_strided(&self.as_slice()[base..], &dims, out);
        }
        Ok(())
    }

    fn slice_shape(&self, starts: &[usize], ends: &[usize]) -> Result<Vec<usize>, TensorError> {
        let rank = self.rank();
        if starts.len() != rank || ends.len() != rank {
            return Err(TensorError::InvalidArgument(format!(
                "slice bounds rank {}/{} does not match tensor rank {rank}",
                starts.len(),
                ends.len()
            )));
        }
        for d in 0..rank {
            if starts[d] > ends[d] || ends[d] > self.shape()[d] {
                return Err(TensorError::InvalidArgument(format!(
                    "slice [{}, {}) out of bounds for dim {d} of size {}",
                    starts[d],
                    ends[d],
                    self.shape()[d]
                )));
            }
        }
        Ok((0..rank).map(|d| ends[d] - starts[d]).collect())
    }

    /// Concatenates tensors along `axis`. All other dimensions must match —
    /// [`Tensor::concat_into`] over a fresh output.
    ///
    /// # Errors
    ///
    /// Returns an error if `parts` is empty, `axis` is out of range, or the
    /// non-`axis` dimensions disagree.
    pub fn concat(parts: &[&Tensor], axis: usize) -> Result<Tensor, TensorError> {
        filled(Self::concat_shape(parts, axis)?, |out| {
            Self::concat_into(parts, axis, out)
        })
    }

    /// Writes `Tensor::concat(parts, axis)` row-major into `out`, every
    /// element: per index of the dims before `axis`, one contiguous copy
    /// of each part's block.
    ///
    /// # Errors
    ///
    /// [`Tensor::concat`]'s errors, and [`TensorError::ElementCount`] if
    /// `out` is not the output's size.
    pub fn concat_into(parts: &[&Tensor], axis: usize, out: &mut [f32]) -> Result<(), TensorError> {
        let out_shape = Self::concat_shape(parts, axis)?;
        check_len(out, out_shape.iter().product())?;
        let inner: usize = out_shape[axis + 1..].iter().product();
        let mut at = 0;
        for o in 0..out_shape[..axis].iter().product() {
            for p in parts {
                let chunk = p.shape()[axis] * inner;
                out[at..at + chunk].copy_from_slice(&p.as_slice()[o * chunk..(o + 1) * chunk]);
                at += chunk;
            }
        }
        Ok(())
    }

    fn concat_shape(parts: &[&Tensor], axis: usize) -> Result<Vec<usize>, TensorError> {
        let first = parts
            .first()
            .ok_or_else(|| TensorError::InvalidArgument("concat of zero tensors".into()))?;
        let rank = first.rank();
        if axis >= rank {
            return Err(TensorError::AxisOutOfRange { axis, rank });
        }
        let mut out_shape = first.shape().to_vec();
        out_shape[axis] = 0;
        for p in parts {
            let agrees = p.rank() == rank
                && (0..rank).all(|d| d == axis || p.shape()[d] == first.shape()[d]);
            if !agrees {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.shape().to_vec(),
                    rhs: p.shape().to_vec(),
                });
            }
            out_shape[axis] += p.shape()[axis];
        }
        Ok(out_shape)
    }

    /// Splits along `axis` into chunks of the given sizes —
    /// [`Tensor::split_into`] over fresh outputs.
    ///
    /// # Errors
    ///
    /// Returns an error if `axis` is out of range or sizes do not sum to the
    /// axis length.
    pub fn split(&self, axis: usize, sizes: &[usize]) -> Result<Vec<Tensor>, TensorError> {
        let shapes = self.split_shapes(axis, sizes)?;
        let mut parts: Vec<Tensor> = shapes.into_iter().map(Tensor::zeros).collect();
        let mut outs: Vec<&mut [f32]> = parts.iter_mut().map(Tensor::as_mut_slice).collect();
        self.split_into(axis, sizes, &mut outs)?;
        Ok(parts)
    }

    /// Writes the chunks of `self.split(axis, sizes)` row-major into
    /// `outs`, one per size, every element: [`Tensor::concat_into`]'s loop
    /// run backwards.
    ///
    /// # Errors
    ///
    /// [`Tensor::split`]'s errors, [`TensorError::InvalidArgument`] if
    /// `outs` does not hold one buffer per size and
    /// [`TensorError::ElementCount`] if a buffer is not its chunk's size.
    pub fn split_into(
        &self,
        axis: usize,
        sizes: &[usize],
        outs: &mut [&mut [f32]],
    ) -> Result<(), TensorError> {
        let shapes = self.split_shapes(axis, sizes)?;
        if outs.len() != shapes.len() {
            return Err(TensorError::InvalidArgument(format!(
                "{} output buffers for {} split chunks",
                outs.len(),
                shapes.len()
            )));
        }
        for (out, shape) in outs.iter().zip(&shapes) {
            check_len(out, shape.iter().product())?;
        }
        let inner: usize = self.shape()[axis + 1..].iter().product();
        let (data, mut at) = (self.as_slice(), 0);
        for o in 0..self.shape()[..axis].iter().product() {
            for (out, &s) in outs.iter_mut().zip(sizes) {
                let chunk = s * inner;
                out[o * chunk..(o + 1) * chunk].copy_from_slice(&data[at..at + chunk]);
                at += chunk;
            }
        }
        Ok(())
    }

    fn split_shapes(&self, axis: usize, sizes: &[usize]) -> Result<Vec<Vec<usize>>, TensorError> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            });
        }
        let total: usize = sizes.iter().sum();
        if total != self.shape()[axis] {
            return Err(TensorError::InvalidArgument(format!(
                "split sizes {sizes:?} do not sum to axis length {}",
                self.shape()[axis]
            )));
        }
        Ok((sizes.iter())
            .map(|&s| {
                let mut shape = self.shape().to_vec();
                shape[axis] = s;
                shape
            })
            .collect())
    }

    /// Pads each dimension with `value`: `before[d]` elements in front and
    /// `after[d]` behind — [`Tensor::pad_into`] over a fresh output.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if pad specs have the wrong
    /// rank.
    pub fn pad(
        &self,
        before: &[usize],
        after: &[usize],
        value: f32,
    ) -> Result<Tensor, TensorError> {
        filled(self.pad_shape(before, after)?, |out| {
            self.pad_into(before, after, value, out)
        })
    }

    /// Writes `self.pad(before, after, value)` row-major into `out`, every
    /// element: per output row (all dims but the last), a fill of `value`
    /// for a row in the border, else a fill of its ends around one copy of
    /// the input row.
    ///
    /// # Errors
    ///
    /// [`Tensor::pad`]'s errors, and [`TensorError::ElementCount`] if `out`
    /// is not the output's size.
    pub fn pad_into(
        &self,
        before: &[usize],
        after: &[usize],
        value: f32,
        out: &mut [f32],
    ) -> Result<(), TensorError> {
        let out_shape = self.pad_shape(before, after)?;
        check_len(out, out_shape.iter().product())?;
        let Some((&w, rows)) = self.shape().split_last() else {
            out.copy_from_slice(self.as_slice());
            return Ok(());
        };
        if out.is_empty() {
            return Ok(());
        }
        let (data, lo, mut next) = (self.as_slice(), before[rows.len()], 0);
        // The output row's coordinates over every dim but the last.
        let mut idx = vec![0usize; rows.len()];
        for orow in out.chunks_exact_mut(out_shape[rows.len()]) {
            let inside =
                (idx.iter().zip(rows).zip(before)).all(|((&i, &n), &b)| i >= b && i < b + n);
            if inside {
                let (head, rest) = orow.split_at_mut(lo);
                head.fill(value);
                rest[..w].copy_from_slice(&data[next..next + w]);
                rest[w..].fill(value);
                next += w;
            } else {
                orow.fill(value);
            }
            for d in (0..idx.len()).rev() {
                idx[d] += 1;
                if idx[d] < out_shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Ok(())
    }

    fn pad_shape(&self, before: &[usize], after: &[usize]) -> Result<Vec<usize>, TensorError> {
        let rank = self.rank();
        if before.len() != rank || after.len() != rank {
            return Err(TensorError::InvalidArgument(
                "pad spec rank does not match tensor rank".into(),
            ));
        }
        Ok((0..rank)
            .map(|d| before[d] + self.shape()[d] + after[d])
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;
    use crate::tests::unravel;

    /// The historical element-wise transpose, kept verbatim as the
    /// bit-identity reference: a rank-deep odometer over the output,
    /// one gathered element per step.
    fn naive_transpose(t: &Tensor, perm: &[usize]) -> Tensor {
        let rank = t.rank();
        let in_shape = t.shape();
        let out_shape: Vec<usize> = perm.iter().map(|&p| in_shape[p]).collect();
        let in_strides = strides_of(in_shape);
        let mut out = Vec::with_capacity(t.numel());
        let data = t.as_slice();
        let mut idx = vec![0usize; rank];
        for _ in 0..t.numel() {
            let mut off = 0usize;
            for d in 0..rank {
                off += idx[d] * in_strides[perm[d]];
            }
            out.push(data[off]);
            for d in (0..rank).rev() {
                idx[d] += 1;
                if idx[d] < out_shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Tensor::from_vec(out_shape, out).unwrap()
    }

    fn assert_transpose_bits(shape: &[usize], perm: &[usize]) {
        let t = Tensor::random(shape.to_vec(), 5);
        let got = t.transpose(perm).unwrap();
        let want = naive_transpose(&t, perm);
        assert_eq!(got.shape(), want.shape(), "{shape:?} by {perm:?}");
        assert!(
            bits(got.as_slice()) == bits(want.as_slice()),
            "{shape:?} by {perm:?} diverged"
        );
    }

    /// Every permutation of `0..rank`, in lexicographic order.
    fn permutations(rank: usize) -> Vec<Vec<usize>> {
        if rank == 0 {
            return vec![vec![]];
        }
        let mut all = Vec::new();
        for p in permutations(rank - 1) {
            for at in 0..rank {
                let mut q = p.clone();
                q.insert(at, rank - 1);
                all.push(q);
            }
        }
        all.sort();
        all
    }

    /// Dim sizes straddling the 16-wide tile, with the degenerate ones.
    const SIZES: [usize; 7] = [0, 1, 2, 15, 16, 17, 33];

    #[test]
    fn transpose_is_bit_identical_to_the_elementwise_reference() {
        let mut cases = 0;
        // Ranks 0–3: every shape over SIZES under every permutation.
        for rank in 0..=3usize {
            for combo in 0..SIZES.len().pow(rank as u32) {
                let shape: Vec<usize> = (0..rank)
                    .map(|d| SIZES[combo / SIZES.len().pow(d as u32) % SIZES.len()])
                    .collect();
                for perm in permutations(rank) {
                    assert_transpose_bits(&shape, &perm);
                    cases += 1;
                }
            }
        }
        // Rank 4: every permutation over shapes drawn from SIZES (an LCG,
        // so the sweep is the same every run), capped to keep it quick.
        let mut state = 0x2545_F491u32;
        let mut draw = || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            SIZES[(state >> 16) as usize % SIZES.len()]
        };
        for perm in permutations(4) {
            for _ in 0..12 {
                let mut shape: Vec<usize> = (0..4).map(|_| draw()).collect();
                while shape.iter().product::<usize>() > 200_000 {
                    *shape.iter_mut().max().unwrap() = 2;
                }
                assert_transpose_bits(&shape, &perm);
                cases += 1;
            }
        }
        // The NCHW <-> NHWC pair and rank 5.
        for (shape, perm) in [
            (vec![2, 17, 15, 33], vec![0, 2, 3, 1]),
            (vec![2, 15, 33, 17], vec![0, 3, 1, 2]),
            (vec![1, 64, 16, 16], vec![0, 2, 3, 1]),
            (vec![2, 3, 16, 2, 17], vec![0, 3, 1, 4, 2]),
            (vec![2, 3, 16, 2, 17], vec![4, 3, 2, 1, 0]),
            (vec![3, 1, 17, 0, 2], vec![2, 0, 4, 1, 3]),
        ] {
            assert_transpose_bits(&shape, &perm);
            cases += 1;
        }
        assert!(cases > 2400, "sweep shrank to {cases} cases");
    }

    #[test]
    fn slice_is_bit_identical_to_the_elementwise_reference() {
        // Ranges that are whole, interior, one wide and empty, on dims
        // straddling the tile; the reference reads one element at a time.
        let ranges = |n: usize| vec![(0, n), (n / 3, n - n / 4), (n / 2, n / 2 + 1), (n, n)];
        for shape in [vec![33], vec![17, 16], vec![2, 17, 33], vec![3, 2, 16, 5]] {
            let t = Tensor::random(shape.clone(), 6);
            let per_dim: Vec<_> = shape.iter().map(|&n| ranges(n)).collect();
            for pick in 0..4usize.pow(shape.len() as u32) {
                let (starts, ends): (Vec<usize>, Vec<usize>) = per_dim
                    .iter()
                    .enumerate()
                    .map(|(d, r)| r[pick / 4usize.pow(d as u32) % 4])
                    .unzip();
                let got = t.slice(&starts, &ends).unwrap();
                let mut stale = vec![f32::NAN; got.numel()];
                t.slice_into(&starts, &ends, &mut stale).unwrap();
                assert_eq!(bits(&stale), bits(got.as_slice()), "{starts:?}..{ends:?}");
                let want = Tensor::from_fn(got.shape().to_vec(), |flat| {
                    let idx = unravel(flat, got.shape());
                    let at: Vec<usize> = idx.iter().zip(&starts).map(|(i, s)| i + s).collect();
                    t.at(&at)
                });
                assert!(
                    got.shape() == want.shape() && bits(got.as_slice()) == bits(want.as_slice()),
                    "slice {starts:?}..{ends:?} of {shape:?} diverged"
                );
            }
        }
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let tt = t.transpose(&[1, 0]).unwrap();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.as_slice(), &[1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn transpose_roundtrip_4d() {
        let t = Tensor::random(vec![2, 3, 4, 5], 3);
        let p = t.transpose(&[0, 2, 3, 1]).unwrap();
        assert_eq!(p.shape(), &[2, 4, 5, 3]);
        // inverse permutation of [0,2,3,1] is [0,3,1,2]
        let back = p.transpose(&[0, 3, 1, 2]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn transpose_rejects_bad_perm() {
        let t = Tensor::zeros(vec![2, 2]);
        assert!(t.transpose(&[0, 0]).is_err());
        assert!(t.transpose(&[0]).is_err());
        assert!(t.transpose(&[0, 2]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(vec![2, 6], |i| i as f32);
        let r = t.reshape(vec![3, 4]).unwrap();
        assert_eq!(r.shape(), &[3, 4]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(vec![5]).is_err());
    }

    #[test]
    fn slice_extracts_ranges() {
        let t = Tensor::from_fn(vec![3, 4], |i| i as f32);
        let s = t.slice(&[1, 1], &[3, 3]).unwrap();
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.as_slice(), &[5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn slice_bounds_checked() {
        let t = Tensor::zeros(vec![2, 2]);
        assert!(t.slice(&[0, 0], &[3, 2]).is_err());
        assert!(t.slice(&[1], &[2]).is_err());
    }

    #[test]
    fn concat_then_split_roundtrip() {
        let a = Tensor::from_fn(vec![2, 2], |i| i as f32);
        let b = Tensor::from_fn(vec![2, 3], |i| 100.0 + i as f32);
        let c = Tensor::concat(&[&a, &b], 1).unwrap();
        assert_eq!(c.shape(), &[2, 5]);
        let parts = c.split(1, &[2, 3]).unwrap();
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn concat_axis0() {
        let a = Tensor::from_vec(vec![1, 2], vec![1., 2.]).unwrap();
        let b = Tensor::from_vec(vec![2, 2], vec![3., 4., 5., 6.]).unwrap();
        let c = Tensor::concat(&[&a, &b], 0).unwrap();
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.as_slice(), &[1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    fn concat_rejects_mismatched_dims() {
        let a = Tensor::zeros(vec![2, 2]);
        let b = Tensor::zeros(vec![3, 3]);
        assert!(Tensor::concat(&[&a, &b], 0).is_err());
        assert!(Tensor::concat(&[], 0).is_err());
    }

    #[test]
    fn split_validates_sizes() {
        let t = Tensor::zeros(vec![4, 2]);
        assert!(t.split(0, &[1, 2]).is_err());
        assert!(t.split(2, &[4]).is_err());
    }

    #[test]
    fn pad_with_value() {
        let t = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap();
        let p = t.pad(&[0, 1], &[0, 1], 9.0).unwrap();
        assert_eq!(p.shape(), &[1, 4]);
        assert_eq!(p.as_slice(), &[9.0, 1.0, 2.0, 9.0]);
    }

    #[test]
    fn pad_2d_zero_border() {
        let t = Tensor::ones(vec![2, 2]);
        let p = t.pad(&[1, 1], &[1, 1], 0.0).unwrap();
        assert_eq!(p.shape(), &[4, 4]);
        assert_eq!(
            p.reduce_sum(0).unwrap().reduce_sum(0).unwrap().as_slice(),
            &[4.0]
        );
        assert_eq!(p.at(&[0, 0]), 0.0);
        assert_eq!(p.at(&[1, 1]), 1.0);
    }

    /// `transpose_into` over a buffer of stale values writes every element
    /// `transpose` returns, bit for bit, for every permutation up to rank
    /// 4, and rejects a buffer of the wrong size.
    #[test]
    fn transpose_into_matches_transpose_over_stale_buffers() {
        for rank in 0..=4usize {
            let shape: Vec<usize> = [3, 17, 2, 16][..rank].to_vec();
            let t = Tensor::random(shape, rank as u64);
            for perm in permutations(rank) {
                let want = t.transpose(&perm).unwrap();
                let mut out = vec![f32::NAN; t.numel()];
                t.transpose_into(&perm, &mut out).unwrap();
                assert_eq!(bits(&out), bits(want.as_slice()), "perm {perm:?}");
            }
        }
        let t = Tensor::random(vec![2, 3], 9);
        assert!(t.transpose_into(&[1, 0], &mut [0.0; 5]).is_err());
        assert!(t.transpose_into(&[0, 0], &mut [0.0; 6]).is_err());
    }

    /// The historical per-element pad, kept verbatim as the bit-identity
    /// reference: every output index unravelled and tested against the
    /// border.
    fn naive_pad(t: &Tensor, before: &[usize], after: &[usize], value: f32) -> Tensor {
        let rank = t.rank();
        let out_shape: Vec<usize> = (0..rank)
            .map(|d| before[d] + t.shape()[d] + after[d])
            .collect();
        let numel: usize = out_shape.iter().product();
        let in_strides = strides_of(t.shape());
        let data = t.as_slice();
        let mut out = Vec::with_capacity(numel);
        for flat in 0..numel {
            let idx = unravel(flat, &out_shape);
            let mut off = 0usize;
            let mut inside = true;
            for d in 0..rank {
                if idx[d] < before[d] || idx[d] >= before[d] + t.shape()[d] {
                    inside = false;
                    break;
                }
                off += (idx[d] - before[d]) * in_strides[d];
            }
            out.push(if inside { data[off] } else { value });
        }
        Tensor::from_vec(out_shape, out).unwrap()
    }

    /// The historical concat loop, kept verbatim as the reference.
    fn naive_concat(parts: &[&Tensor], axis: usize) -> Vec<f32> {
        let first = parts[0];
        let outer: usize = first.shape()[..axis].iter().product();
        let inner: usize = first.shape()[axis + 1..].iter().product();
        let mut out = Vec::new();
        for o in 0..outer {
            for p in parts {
                let rows = p.shape()[axis];
                let chunk = rows * inner;
                out.extend_from_slice(&p.as_slice()[o * chunk..(o + 1) * chunk]);
            }
        }
        out
    }

    /// The historical split, kept as the reference: one slice per chunk.
    fn naive_split(t: &Tensor, axis: usize, sizes: &[usize]) -> Vec<Tensor> {
        let mut start = 0;
        (sizes.iter())
            .map(|&s| {
                let mut starts = vec![0usize; t.rank()];
                let mut ends = t.shape().to_vec();
                (starts[axis], ends[axis]) = (start, start + s);
                start += s;
                t.slice(&starts, &ends).unwrap()
            })
            .collect()
    }

    /// `pad_into` over a stale buffer writes every element the
    /// per-element reference does, bit for bit: all-zero pads (a pure
    /// copy), a pad around a dim of size 1, empty inputs and outputs,
    /// ranks 0 to 4; a buffer of the wrong size is rejected.
    #[test]
    fn pad_into_is_bit_identical_to_the_per_element_reference() {
        let cases: [(&[usize], &[usize], &[usize]); 13] = [
            (&[], &[], &[]),
            (&[5], &[0], &[0]),
            (&[5], &[2], &[3]),
            (&[0], &[1], &[2]),
            (&[1, 4], &[1, 0], &[2, 1]),
            (&[3, 1], &[0, 2], &[0, 1]),
            (&[3, 0], &[1, 0], &[0, 0]),
            (&[2, 3, 4], &[1, 0, 2], &[0, 1, 1]),
            (&[2, 0, 3], &[0, 1, 0], &[0, 1, 0]),
            (&[1, 3, 4, 5], &[0, 0, 1, 1], &[0, 0, 1, 1]),
            (&[2, 1, 3, 1], &[1, 2, 0, 3], &[0, 1, 2, 0]),
            (&[1, 2, 3, 4], &[0, 0, 0, 0], &[0, 0, 0, 0]),
            (&[2, 3, 1, 17], &[0, 1, 1, 0], &[1, 0, 1, 16]),
        ];
        for (shape, before, after) in cases {
            let t = Tensor::random(shape.to_vec(), 8);
            for value in [0.0, -0.0, 7.5] {
                let want = naive_pad(&t, before, after, value);
                let mut stale = vec![f32::NAN; want.numel()];
                t.pad_into(before, after, value, &mut stale).unwrap();
                let ctx = format!("{shape:?} by {before:?}/{after:?} with {value}");
                assert_eq!(bits(&stale), bits(want.as_slice()), "{ctx}");
                let got = t.pad(before, after, value).unwrap();
                assert_eq!(got.shape(), want.shape(), "{ctx}");
                if before.iter().chain(after).all(|&p| p == 0) {
                    assert_eq!(bits(&stale), bits(t.as_slice()), "{ctx}");
                }
            }
        }
        let t = Tensor::random(vec![2, 3], 1);
        let err = t.pad_into(&[1, 0], &[0, 1], 0.0, &mut [0.0; 11]);
        assert!(
            matches!(err, Err(TensorError::ElementCount { .. })),
            "{err:?}"
        );
        assert!(t.pad_into(&[1], &[1], 0.0, &mut [0.0; 12]).is_err());
    }

    /// `concat_into` and `split_into` over stale buffers write what the
    /// historical loops did, bit for bit — a one-part concat, a split
    /// with a zero-length chunk, ranks 1 and 4 — and reject buffers of
    /// the wrong size or number.
    #[test]
    fn concat_and_split_into_match_their_old_loops() {
        let concats: [(&[&[usize]], usize); 5] = [
            (&[&[3], &[0], &[2]], 0),
            (&[&[2, 3]], 1),
            (&[&[1, 2, 3, 4], &[1, 1, 3, 4], &[1, 3, 3, 4]], 1),
            (&[&[2, 2, 2, 1], &[2, 2, 2, 3]], 3),
            (&[&[1, 2, 3, 4], &[2, 2, 3, 4]], 0),
        ];
        for (shapes, axis) in concats {
            let parts: Vec<Tensor> = (shapes.iter().enumerate())
                .map(|(i, s)| Tensor::random(s.to_vec(), i as u64))
                .collect();
            let refs: Vec<&Tensor> = parts.iter().collect();
            let want = naive_concat(&refs, axis);
            let mut stale = vec![f32::NAN; want.len()];
            Tensor::concat_into(&refs, axis, &mut stale).unwrap();
            assert_eq!(bits(&stale), bits(&want), "{shapes:?} on {axis}");
            let err = Tensor::concat_into(&refs, axis, &mut vec![0.0; want.len() + 1]);
            assert!(
                matches!(err, Err(TensorError::ElementCount { .. })),
                "{err:?}"
            );
        }
        let splits: [(&[usize], usize, &[usize]); 5] = [
            (&[7], 0, &[3, 0, 4]),
            (&[4, 3], 0, &[4]),
            (&[2, 5, 3], 1, &[2, 0, 3]),
            (&[1, 6, 2, 2], 1, &[1, 5]),
            (&[2, 2, 3, 5], 3, &[0, 2, 3]),
        ];
        for (shape, axis, sizes) in splits {
            let t = Tensor::random(shape.to_vec(), 4);
            let want = naive_split(&t, axis, sizes);
            let mut stale: Vec<Vec<f32>> = want.iter().map(|w| vec![f32::NAN; w.numel()]).collect();
            let mut outs: Vec<&mut [f32]> = stale.iter_mut().map(Vec::as_mut_slice).collect();
            t.split_into(axis, sizes, &mut outs).unwrap();
            for (got, want) in stale.iter().zip(&want) {
                assert_eq!(bits(got), bits(want.as_slice()), "{shape:?} by {sizes:?}");
            }
            let got = t.split(axis, sizes).unwrap();
            assert_eq!(got, want, "{shape:?} by {sizes:?}");
            let mut short: Vec<&mut [f32]> =
                stale.iter_mut().skip(1).map(Vec::as_mut_slice).collect();
            assert!(t.split_into(axis, sizes, &mut short).is_err());
        }
        let t = Tensor::random(vec![4, 2], 3);
        let (mut a, mut b) = (vec![0.0; 2], vec![0.0; 5]);
        let err = t.split_into(0, &[1, 3], &mut [&mut a, &mut b]);
        assert!(
            matches!(err, Err(TensorError::ElementCount { .. })),
            "{err:?}"
        );
        assert!(t.slice_into(&[0, 0], &[2, 2], &mut [0.0; 3]).is_err());
    }
}
