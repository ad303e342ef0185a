//! Elementwise unary and binary reference kernels.
//!
//! Elementwise primitives (paper §3) map each output element from the input
//! elements at the same position. Broadcasting is *not* implicit here — the
//! IR inserts explicit `Broadcast` primitives — so binary ops require equal
//! shapes.
//!
//! [`UnaryOp::apply`] / [`BinaryOp::apply`] state each op's arithmetic
//! once; the tile kernels of [`crate::tile`] run it over slices, and the
//! [`Tensor`] entry points here are those kernels over a fresh output.
//! `Exp`, `Sigmoid` and `Erf` use this module's branch-free `f32` exp
//! (≤ 1 ulp, flushes results below the normal range to zero), not libm's.

use crate::tile::{binary_scalar_lhs_tile, binary_scalar_tile, binary_tile, unary_tile};
use crate::{Tensor, TensorError};

/// Unary elementwise operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum UnaryOp {
    /// `e^x`
    Exp,
    /// Natural logarithm.
    Ln,
    /// `max(x, 0)`
    Relu,
    /// Leaky ReLU with slope 0.1 on the negative side.
    LeakyRelu,
    /// `sqrt(x)`
    Sqrt,
    /// Gauss error function (Abramowitz–Stegun approximation).
    Erf,
    /// `-x`
    Neg,
    /// `1 / x`
    Recip,
    /// `tanh(x)`
    Tanh,
    /// Logistic sigmoid `1 / (1 + e^-x)`.
    Sigmoid,
    /// `|x|`
    Abs,
    /// `x^2`
    Square,
}

impl UnaryOp {
    /// Applies the operation to a single value — the one statement of each
    /// op's arithmetic. The tile kernels ([`crate::unary_tile`]) match on the
    /// op once per call and call this with the variant a constant, so the
    /// `match` here folds away inside each per-variant loop; `#[inline]`
    /// lets it fold across codegen units.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            UnaryOp::Exp => exp(x),
            UnaryOp::Ln => x.ln(),
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::LeakyRelu => {
                if x >= 0.0 {
                    x
                } else {
                    0.1 * x
                }
            }
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Erf => erf(x),
            UnaryOp::Neg => -x,
            UnaryOp::Recip => 1.0 / x,
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::Sigmoid => 1.0 / (1.0 + exp(-x)),
            UnaryOp::Abs => x.abs(),
            UnaryOp::Square => x * x,
        }
    }

    /// Short lowercase name, used in kernel labels and Graphviz dumps.
    pub fn name(self) -> &'static str {
        match self {
            UnaryOp::Exp => "exp",
            UnaryOp::Ln => "ln",
            UnaryOp::Relu => "relu",
            UnaryOp::LeakyRelu => "leaky_relu",
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Erf => "erf",
            UnaryOp::Neg => "neg",
            UnaryOp::Recip => "recip",
            UnaryOp::Tanh => "tanh",
            UnaryOp::Sigmoid => "sigmoid",
            UnaryOp::Abs => "abs",
            UnaryOp::Square => "square",
        }
    }
}

/// Binary elementwise operation (equal shapes; broadcasting is explicit in
/// the IR via `Broadcast` primitives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum BinaryOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `max(a, b)`
    Max,
    /// `min(a, b)`
    Min,
    /// `a^b`
    Pow,
}

impl BinaryOp {
    /// Applies the operation to a pair of values — the one statement of
    /// each op's arithmetic, folded per variant by the tile kernels like
    /// [`UnaryOp::apply`].
    #[inline]
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::Max => a.max(b),
            BinaryOp::Min => a.min(b),
            BinaryOp::Pow => a.powf(b),
        }
    }

    /// Short lowercase name, used in kernel labels and Graphviz dumps.
    pub fn name(self) -> &'static str {
        match self {
            BinaryOp::Add => "add",
            BinaryOp::Sub => "sub",
            BinaryOp::Mul => "mul",
            BinaryOp::Div => "div",
            BinaryOp::Max => "max",
            BinaryOp::Min => "min",
            BinaryOp::Pow => "pow",
        }
    }
}

/// Abramowitz–Stegun rational approximation of the error function
/// (maximum absolute error ≈ 1.5e-7, plenty for f32 verification).
#[inline]
fn erf(x: f32) -> f32 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254_829_6
            + t * (-0.284_496_72 + t * (1.421_413_8 + t * (-1.453_152_1 + t * 1.061_405_4))));
    sign * (1.0 - poly * exp(-x * x))
}

/// `1.5 · 2²³`: adding it to a float of magnitude below 2²² rounds that
/// float to an integer, which then sits in the sum's low mantissa bits.
const ROUND_SHIFTER: f32 = 12_582_912.0;
/// `ln 2` split Cody–Waite style: the high part has 16 significant bits,
/// so `n · LN2_HI` is exact for every `|n| ≤ 128` this exp produces.
const LN2_HI: f32 = 0.693_145_75;
const LN2_LO: f32 = 1.428_606_8e-6;
/// Minimax fit of `(eʳ − 1 − r) / r²` on `|r| ≤ 1.02 · ln2 / 2` (relative
/// error of the whole polynomial 5.7e-9 with these `f32` coefficients).
const EXP_Q: [f32; 5] = [
    0.499_999_94,
    0.166_665_09,
    0.041_668_527,
    0.008_370_135,
    0.001_381_166_3,
];
/// Largest `x` whose `eˣ` is a finite `f32`.
const EXP_MAX_FINITE: f32 = 88.722_83;
/// Smallest `x` whose `eˣ` is a normal `f32`.
const EXP_MIN_NORMAL: f32 = -87.336_54;

/// `eˣ` in straight-line `f32` arithmetic, so a loop over it vectorizes:
/// Cody–Waite reduction `x = n·ln2 + r` with `|r| ≲ ln2/2`, a degree-6
/// polynomial `1 + r + r²·q(r)` for `eʳ`, and `2ⁿ` built from exponent
/// bits (as two factors, so `n = 128` needs no special case). Edge values
/// are selects, not branches.
///
/// Within 1 ulp of the correctly rounded `eˣ` for every `x` whose result
/// is a normal `f32` (exhaustively checked: 99.2 % of them exact).
/// NaN stays NaN, `x > 88.72283` gives `+inf` and `x < −87.33654` gives
/// `0`: results below the normal range are **flushed to zero** rather than
/// returned as subnormals. `e⁻⁰ = e⁰ = 1` exactly.
#[inline]
fn exp(x: f32) -> f32 {
    // Clamp so `n` stays in [-126, 128]; NaN passes through `clamp` and
    // flows to a NaN result.
    let xc = x.clamp(-87.5, 88.75);
    let shifted = xc * std::f32::consts::LOG2_E + ROUND_SHIFTER;
    let n = shifted.to_bits() as i32 - ROUND_SHIFTER.to_bits() as i32;
    let nf = shifted - ROUND_SHIFTER;
    let r = (xc - nf * LN2_HI) - nf * LN2_LO;
    let q = EXP_Q[0] + r * (EXP_Q[1] + r * (EXP_Q[2] + r * (EXP_Q[3] + r * EXP_Q[4])));
    let p = 1.0 + (r + r * r * q);
    let half = n >> 1;
    let pow2 = |e: i32| f32::from_bits(((e + 127) as u32) << 23);
    let y = p * pow2(half) * pow2(n - half);
    if x < EXP_MIN_NORMAL {
        0.0
    } else if x > EXP_MAX_FINITE {
        f32::INFINITY
    } else {
        y
    }
}

impl Tensor {
    /// Applies a unary elementwise operation: [`unary_tile`] over a fresh
    /// output.
    pub fn unary(&self, op: UnaryOp) -> Tensor {
        let mut out = Tensor::zeros(self.shape().to_vec());
        unary_tile(op, self.as_slice(), out.as_mut_slice());
        out
    }

    /// Applies a binary elementwise operation against a same-shaped tensor:
    /// [`binary_tile`] over a fresh output.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn binary(&self, other: &Tensor, op: BinaryOp) -> Result<Tensor, TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            });
        }
        let mut out = Tensor::zeros(self.shape().to_vec());
        binary_tile(op, self.as_slice(), other.as_slice(), out.as_mut_slice());
        Ok(out)
    }

    /// Applies `op(x, scalar)` per element: [`binary_scalar_tile`] over a
    /// fresh output.
    pub fn binary_scalar(&self, scalar: f32, op: BinaryOp) -> Tensor {
        let mut out = Tensor::zeros(self.shape().to_vec());
        binary_scalar_tile(op, self.as_slice(), scalar, out.as_mut_slice());
        out
    }

    /// Applies `op(scalar, x)` per element — the scalar on the **left**
    /// (`c - x`, `c / x`): [`binary_scalar_lhs_tile`] over a fresh output.
    pub fn binary_scalar_lhs(&self, scalar: f32, op: BinaryOp) -> Tensor {
        let mut out = Tensor::zeros(self.shape().to_vec());
        binary_scalar_lhs_tile(op, scalar, self.as_slice(), out.as_mut_slice());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_vec(vec![4], vec![-2.0, -0.5, 0.0, 3.0]).unwrap();
        assert_eq!(t.unary(UnaryOp::Relu).as_slice(), &[0.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        let t = Tensor::from_vec(vec![2], vec![-10.0, 10.0]).unwrap();
        let r = t.unary(UnaryOp::LeakyRelu);
        assert!((r.as_slice()[0] + 1.0).abs() < 1e-6);
        assert_eq!(r.as_slice()[1], 10.0);
    }

    #[test]
    fn erf_matches_known_values() {
        // erf(0)=0, erf(1)≈0.8427, erf(-1)≈-0.8427, erf(∞)→1
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427008).abs() < 1e-5);
        assert!((erf(-1.0) + 0.8427008).abs() < 1e-5);
        assert!((erf(4.0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn sigmoid_is_symmetric_around_half() {
        let s = UnaryOp::Sigmoid;
        assert!((s.apply(0.0) - 0.5).abs() < 1e-6);
        assert!((s.apply(2.0) + s.apply(-2.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn binary_ops_apply_pointwise() {
        let a = Tensor::from_vec(vec![3], vec![1.0, 4.0, 9.0]).unwrap();
        let b = Tensor::from_vec(vec![3], vec![2.0, 2.0, 3.0]).unwrap();
        assert_eq!(
            a.binary(&b, BinaryOp::Add).unwrap().as_slice(),
            &[3.0, 6.0, 12.0]
        );
        assert_eq!(
            a.binary(&b, BinaryOp::Div).unwrap().as_slice(),
            &[0.5, 2.0, 3.0]
        );
        assert_eq!(
            a.binary(&b, BinaryOp::Max).unwrap().as_slice(),
            &[2.0, 4.0, 9.0]
        );
        assert_eq!(
            a.binary(&b, BinaryOp::Min).unwrap().as_slice(),
            &[1.0, 2.0, 3.0]
        );
        assert_eq!(
            a.binary(&b, BinaryOp::Pow).unwrap().as_slice(),
            &[1.0, 16.0, 729.0]
        );
    }

    #[test]
    fn binary_scalar_broadcasts_constant() {
        let a = Tensor::from_vec(vec![2], vec![3.0, 5.0]).unwrap();
        assert_eq!(a.binary_scalar(2.0, BinaryOp::Mul).as_slice(), &[6.0, 10.0]);
        assert_eq!(a.binary_scalar(1.0, BinaryOp::Sub).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn square_and_abs() {
        let a = Tensor::from_vec(vec![2], vec![-3.0, 2.0]).unwrap();
        assert_eq!(a.unary(UnaryOp::Square).as_slice(), &[9.0, 4.0]);
        assert_eq!(a.unary(UnaryOp::Abs).as_slice(), &[3.0, 2.0]);
    }
}
