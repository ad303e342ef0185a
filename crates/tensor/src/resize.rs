//! Spatial resize kernels (nearest-neighbour and bilinear), used by the
//! Segformer decoder-head subgraph (paper Fig. 11) and upsampling stages
//! in the CNN workloads. Source indices and weights depend only on the
//! output row or column, so they are tabulated once per call and every
//! plane is a gather or a four-term blend over the two tables.

use crate::{check_len, filled, Tensor, TensorError};

/// Interpolation mode for [`Tensor::resize2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResizeMode {
    /// Nearest-neighbour (floor) sampling.
    Nearest,
    /// Bilinear interpolation with half-pixel centres.
    Bilinear,
}

impl ResizeMode {
    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ResizeMode::Nearest => "nearest",
            ResizeMode::Bilinear => "bilinear",
        }
    }
}

/// Where one output coordinate samples its input axis: source indices
/// `lo`/`hi` and their weights. Nearest reads `lo` alone.
struct Tap {
    lo: usize,
    hi: usize,
    /// Weight of `lo`: `1 − d`, `d` the fractional source position.
    near: f32,
    /// Weight of `hi`: `d`.
    far: f32,
}

/// The taps of every output coordinate of an axis resized from `len` to
/// `out_len` — the per-element formula's own `f32` expressions, evaluated
/// once per call instead of once per output element of every plane.
fn taps(len: usize, out_len: usize, mode: ResizeMode) -> Vec<Tap> {
    let scale = len as f32 / out_len as f32;
    (0..out_len)
        .map(|o| match mode {
            ResizeMode::Nearest => {
                let lo = ((o as f32 * scale) as usize).min(len - 1);
                Tap {
                    lo,
                    hi: lo,
                    near: 1.0,
                    far: 0.0,
                }
            }
            ResizeMode::Bilinear => {
                let f = ((o as f32 + 0.5) * scale - 0.5).clamp(0.0, (len - 1) as f32);
                let lo = f.floor() as usize;
                let d = f - lo as f32;
                Tap {
                    lo,
                    hi: (lo + 1).min(len - 1),
                    near: 1.0 - d,
                    far: d,
                }
            }
        })
        .collect()
}

impl Tensor {
    /// Resizes the spatial dimensions of an NCHW tensor to `(out_h, out_w)`
    /// — [`Tensor::resize2d_into`] over a fresh output.
    ///
    /// # Errors
    ///
    /// Returns an error for non-rank-4 inputs, zero output sizes or an
    /// empty input plane.
    pub fn resize2d(
        &self,
        out_h: usize,
        out_w: usize,
        mode: ResizeMode,
    ) -> Result<Tensor, TensorError> {
        filled(self.resize_shape(out_h, out_w)?, |out| {
            self.resize2d_into(out_h, out_w, mode, out)
        })
    }

    /// Writes `self.resize2d(out_h, out_w, mode)` row-major into `out`,
    /// every element.
    ///
    /// # Errors
    ///
    /// [`Tensor::resize2d`]'s errors, and [`TensorError::ElementCount`] if
    /// `out` is not the output's size.
    pub fn resize2d_into(
        &self,
        out_h: usize,
        out_w: usize,
        mode: ResizeMode,
        out: &mut [f32],
    ) -> Result<(), TensorError> {
        check_len(out, self.resize_shape(out_h, out_w)?.iter().product())?;
        let (h, w) = (self.shape()[2], self.shape()[3]);
        let ys = taps(h, out_h, mode);
        let xs = taps(w, out_w, mode);
        // Nearest gathers through plain indices: a tighter loop than
        // through the taps.
        let cols: Vec<usize> = xs.iter().map(|x| x.lo).collect();
        let planes = self.as_slice().chunks_exact(h * w);
        let out_rows = out.chunks_exact_mut(out_h * out_w);
        for (plane, oplane) in planes.zip(out_rows) {
            let orows = oplane.chunks_exact_mut(out_w);
            match mode {
                ResizeMode::Nearest => {
                    for (y, orow) in ys.iter().zip(orows) {
                        let row = &plane[y.lo * w..][..w];
                        for (o, &x) in orow.iter_mut().zip(&cols) {
                            *o = row[x];
                        }
                    }
                }
                ResizeMode::Bilinear => {
                    for (y, orow) in ys.iter().zip(orows) {
                        let row0 = &plane[y.lo * w..][..w];
                        let row1 = &plane[y.hi * w..][..w];
                        for (o, x) in orow.iter_mut().zip(&xs) {
                            *o = row0[x.lo] * y.near * x.near
                                + row0[x.hi] * y.near * x.far
                                + row1[x.lo] * y.far * x.near
                                + row1[x.hi] * y.far * x.far;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn resize_shape(&self, out_h: usize, out_w: usize) -> Result<Vec<usize>, TensorError> {
        let &[n, c, h, w] = self.shape() else {
            return Err(TensorError::InvalidArgument(format!(
                "resize2d expects NCHW rank-4 input, got rank {}",
                self.rank()
            )));
        };
        if out_h == 0 || out_w == 0 {
            return Err(TensorError::InvalidArgument(
                "resize target must be positive".into(),
            ));
        }
        if h == 0 || w == 0 {
            return Err(TensorError::InvalidArgument(format!(
                "resize2d of an empty {h}x{w} plane"
            )));
        }
        Ok(vec![n, c, out_h, out_w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_doubles_each_pixel() {
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = x.resize2d(4, 4, ResizeMode::Nearest).unwrap();
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
        assert_eq!(y.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(y.at(&[0, 0, 0, 3]), 2.0);
        assert_eq!(y.at(&[0, 0, 3, 0]), 3.0);
        assert_eq!(y.at(&[0, 0, 3, 3]), 4.0);
    }

    #[test]
    fn bilinear_preserves_constant_field() {
        let x = Tensor::full(vec![1, 2, 3, 3], 5.0);
        let y = x.resize2d(7, 5, ResizeMode::Bilinear).unwrap();
        assert!(y.as_slice().iter().all(|&v| (v - 5.0).abs() < 1e-6));
    }

    #[test]
    fn bilinear_interpolates_midpoint() {
        let x = Tensor::from_vec(vec![1, 1, 1, 2], vec![0.0, 1.0]).unwrap();
        let y = x.resize2d(1, 4, ResizeMode::Bilinear).unwrap();
        // values should be monotonically increasing from 0 to 1
        let s = y.as_slice();
        assert!(s.windows(2).all(|p| p[0] <= p[1]));
        assert!(s[0] < 0.3 && s[3] > 0.7);
    }

    #[test]
    fn identity_resize_is_noop() {
        let x = Tensor::random(vec![1, 3, 5, 5], 12);
        let y = x.resize2d(5, 5, ResizeMode::Nearest).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn resize_validates_input() {
        let x = Tensor::zeros(vec![2, 2]);
        assert!(x.resize2d(4, 4, ResizeMode::Nearest).is_err());
        let x = Tensor::zeros(vec![1, 1, 2, 2]);
        assert!(x.resize2d(0, 4, ResizeMode::Nearest).is_err());
    }

    #[test]
    fn resize_rejects_an_empty_plane() {
        // `h - 1` / `w - 1` used to underflow here.
        for shape in [vec![1, 2, 0, 3], vec![1, 2, 3, 0], vec![2, 1, 0, 0]] {
            let x = Tensor::zeros(shape);
            for mode in [ResizeMode::Nearest, ResizeMode::Bilinear] {
                let err = x.resize2d(4, 4, mode).unwrap_err();
                assert!(matches!(err, TensorError::InvalidArgument(_)), "{err:?}");
            }
        }
        // No planes at all is fine: nothing is sampled.
        let y = Tensor::zeros(vec![0, 3, 2, 2]).resize2d(4, 4, ResizeMode::Bilinear);
        assert_eq!(y.unwrap().shape(), &[0, 3, 4, 4]);
    }

    /// The historical per-element kernel, kept verbatim as the
    /// bit-identity reference: index and weight math per output element.
    fn naive_resize2d(x: &Tensor, out_h: usize, out_w: usize, mode: ResizeMode) -> Vec<f32> {
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let mut out = vec![0f32; n * c * out_h * out_w];
        let x = x.as_slice();
        let sy = h as f32 / out_h as f32;
        let sx = w as f32 / out_w as f32;
        for ni in 0..n {
            for ci in 0..c {
                let plane = &x[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                for oy in 0..out_h {
                    for ox in 0..out_w {
                        let v = match mode {
                            ResizeMode::Nearest => {
                                let iy = ((oy as f32 * sy) as usize).min(h - 1);
                                let ix = ((ox as f32 * sx) as usize).min(w - 1);
                                plane[iy * w + ix]
                            }
                            ResizeMode::Bilinear => {
                                let fy = ((oy as f32 + 0.5) * sy - 0.5).clamp(0.0, (h - 1) as f32);
                                let fx = ((ox as f32 + 0.5) * sx - 0.5).clamp(0.0, (w - 1) as f32);
                                let y0 = fy.floor() as usize;
                                let x0 = fx.floor() as usize;
                                let y1 = (y0 + 1).min(h - 1);
                                let x1 = (x0 + 1).min(w - 1);
                                let dy = fy - y0 as f32;
                                let dx = fx - x0 as f32;
                                let v00 = plane[y0 * w + x0];
                                let v01 = plane[y0 * w + x1];
                                let v10 = plane[y1 * w + x0];
                                let v11 = plane[y1 * w + x1];
                                v00 * (1.0 - dy) * (1.0 - dx)
                                    + v01 * (1.0 - dy) * dx
                                    + v10 * dy * (1.0 - dx)
                                    + v11 * dy * dx
                            }
                        };
                        out[((ni * c + ci) * out_h + oy) * out_w + ox] = v;
                    }
                }
            }
        }
        out
    }

    /// `resize2d` and `resize2d_into` (over a stale buffer) against the
    /// per-element reference; a buffer of the wrong size is rejected.
    #[test]
    fn resize_is_bit_identical_to_the_per_element_reference() {
        // Up, down, identity and non-integer scales in either direction,
        // 1×1 planes on either side; the Segformer decoder's 8 → 16.
        let planes = [(1, 1), (1, 5), (2, 3), (5, 5), (8, 8), (7, 16), (17, 4)];
        for &(h, w) in &planes {
            let x = Tensor::random(vec![2, 3, h, w], 13);
            for &(out_h, out_w) in &planes {
                for mode in [ResizeMode::Nearest, ResizeMode::Bilinear] {
                    let got = x.resize2d(out_h, out_w, mode).unwrap();
                    let want = naive_resize2d(&x, out_h, out_w, mode);
                    assert_eq!(got.shape(), &[2, 3, out_h, out_w]);
                    assert!(
                        crate::bits(got.as_slice()) == crate::bits(&want),
                        "{h}x{w} -> {out_h}x{out_w} {mode:?} diverged"
                    );
                    let mut stale = vec![f32::NAN; want.len()];
                    x.resize2d_into(out_h, out_w, mode, &mut stale).unwrap();
                    assert!(
                        crate::bits(&stale) == crate::bits(&want),
                        "{h}x{w} -> {out_h}x{out_w} {mode:?} into a stale buffer"
                    );
                }
            }
        }
        let x = Tensor::random(vec![1, 2, 3, 3], 1);
        let err = x.resize2d_into(2, 2, ResizeMode::Nearest, &mut [0.0; 7]);
        assert!(
            matches!(err, Err(TensorError::ElementCount { .. })),
            "{err:?}"
        );
    }
}
