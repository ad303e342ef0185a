//! The operator IR: the input representation of Korch (paper §2), an
//! ONNX-style computation graph whose nodes are whole tensor operators.
//! Operator semantics here are *algebraic*; the fission engine
//! (`korch-fission`) lowers each operator to primitives.

use crate::error::IrError;
use crate::graph::{Graph, NodeKind};
use crate::meta::{broadcast_shapes, TensorMeta};
use crate::prim::ConstInit;
use korch_tensor::{PoolSpec, ReduceKind, ResizeMode, UnaryOp};
use std::hash::{Hash, Hasher};

/// A whole tensor operator (ONNX-style), before fission.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Graph input placeholder.
    Input {
        /// Shape of the fed tensor.
        shape: Vec<usize>,
    },
    /// Compile-time constant (weights/eps tables), deterministic contents.
    Constant {
        /// Shape of the constant.
        shape: Vec<usize>,
        /// Content generator.
        init: ConstInit,
    },
    /// Unary elementwise activation/function.
    Unary(UnaryOp),
    /// `x * sigmoid(x)` (SiLU / Swish), decomposable.
    Silu,
    /// `x * tanh(softplus(x))` (Mish), decomposable.
    Mish,
    /// `0.5 x (1 + erf(x/√2))` (GELU, erf form), decomposable.
    Gelu,
    /// Tanh-approximated GELU: `0.5 x (1 + tanh(√(2/π)(x + 0.044715 x³)))`,
    /// decomposable.
    GeluTanh,
    /// `x` for `x > 0`, else `α(e^x − 1)` (ELU), decomposable.
    Elu {
        /// Negative-side saturation scale.
        alpha: f32,
    },
    /// `relu(x) + slope ⊙ min(x, 0)` with a broadcastable per-channel slope
    /// tensor (PReLU): `(x, slope)`.
    PRelu,
    /// `ln(1 + e^x)` (Softplus), decomposable.
    Softplus,
    /// `clamp(x, min, max)`, decomposable into scalar max/min.
    Clip {
        /// Lower bound.
        min: f32,
        /// Upper bound.
        max: f32,
    },
    /// `clamp(x/6 + 1/2, 0, 1)` (HardSigmoid), decomposable.
    HardSigmoid,
    /// `x · hardsigmoid(x)` (HardSwish), decomposable.
    HardSwish,
    /// Binary elementwise with NumPy broadcasting.
    Add,
    /// Elementwise subtraction with broadcasting.
    Sub,
    /// Elementwise multiplication with broadcasting.
    Mul,
    /// Elementwise division with broadcasting.
    Div,
    /// `x + c` for a compile-time scalar.
    AddScalar(f32),
    /// `x * c` for a compile-time scalar.
    MulScalar(f32),
    /// Normalized exponentials along `axis`.
    Softmax {
        /// Normalization axis.
        axis: usize,
    },
    /// Instance normalization over spatial dims of NCHW, with per-channel
    /// scale and shift inputs: `(x, scale[C], bias[C])`.
    InstanceNorm {
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// Layer normalization along the last axis: `(x, scale[D], bias[D])`.
    LayerNorm {
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// Inference-mode batch normalization:
    /// `(x, gamma[C], beta[C], mean[C], var[C])` over NCHW.
    BatchNorm {
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// Group normalization over NCHW: statistics per `(sample, group)` with
    /// per-channel affine inputs `(x, scale[C], bias[C])`.
    GroupNorm {
        /// Number of channel groups (must divide `C`).
        groups: usize,
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// Root-mean-square normalization along the last axis with a learned
    /// scale: `(x, scale[D])`; `x / sqrt(mean(x²) + eps) · scale`.
    RmsNorm {
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// `log(softmax(x))` along `axis`, decomposable.
    LogSoftmax {
        /// Normalization axis.
        axis: usize,
    },
    /// Reduction along one axis.
    Reduce {
        /// Aggregator.
        kind: ReduceKind,
        /// Axis to reduce.
        axis: usize,
        /// Keep the reduced axis as size 1.
        keep_dim: bool,
    },
    /// (Batched) matrix multiplication of two inputs.
    MatMul,
    /// ONNX-style 2-D Gemm: `α · op(A) op(B) + β · C`, where `op` applies
    /// the transpose flags and `C` broadcasts to `[M, N]`.
    Gemm {
        /// Product scale.
        alpha: f32,
        /// Addend scale.
        beta: f32,
        /// Transpose `A`.
        trans_a: bool,
        /// Transpose `B`.
        trans_b: bool,
    },
    /// 2-D convolution `(x, weight[, bias])`, NCHW/OIHW.
    Conv2d {
        /// Spatial stride.
        stride: usize,
        /// Symmetric zero padding.
        padding: usize,
        /// Channel groups.
        groups: usize,
        /// Whether a third bias input `[O]` is present.
        bias: bool,
    },
    /// 2-D max pooling.
    MaxPool(PoolSpec),
    /// 2-D average pooling.
    AvgPool(PoolSpec),
    /// Global average pooling of NCHW to `[N, C, 1, 1]`, decomposable
    /// into reshape + mean-reduce + reshape.
    GlobalAvgPool,
    /// Spatial resize of NCHW.
    Resize {
        /// Output height.
        out_h: usize,
        /// Output width.
        out_w: usize,
        /// Interpolation mode.
        mode: ResizeMode,
    },
    /// Dimension permutation.
    Transpose {
        /// Output dim `d` reads input dim `perm[d]`.
        perm: Vec<usize>,
    },
    /// Shape reinterpretation.
    Reshape {
        /// Target shape.
        shape: Vec<usize>,
    },
    /// Range extraction per dimension.
    Slice {
        /// Inclusive starts.
        starts: Vec<usize>,
        /// Exclusive ends.
        ends: Vec<usize>,
    },
    /// Concatenation along an axis.
    Concat {
        /// Concatenation axis.
        axis: usize,
    },
    /// Split along an axis (multi-output).
    Split {
        /// Split axis.
        axis: usize,
        /// Part sizes.
        sizes: Vec<usize>,
    },
    /// Constant padding.
    Pad {
        /// Leading pad per dim.
        before: Vec<usize>,
        /// Trailing pad per dim.
        after: Vec<usize>,
        /// Fill value.
        value: f32,
    },
    /// Removes a size-1 dimension (a reshape with semantic intent).
    Squeeze {
        /// The axis to remove (must have size 1).
        axis: usize,
    },
    /// Inserts a size-1 dimension.
    Unsqueeze {
        /// The insertion position.
        axis: usize,
    },
    /// Identity (passes its input through; useful for graph surgery).
    Identity,
    /// An operator outside Korch's primitive algebra (paper §3): kept
    /// opaque through fission, executed as a standalone kernel.
    Custom {
        /// External kernel identifier.
        name: String,
        /// Declared output shapes.
        out_shapes: Vec<Vec<usize>>,
    },
}

impl OpKind {
    /// `true` for sources (inputs/constants).
    pub fn is_source(&self) -> bool {
        matches!(self, OpKind::Input { .. } | OpKind::Constant { .. })
    }
}

impl NodeKind for OpKind {
    fn infer(&self, inputs: &[TensorMeta]) -> Result<Vec<TensorMeta>, IrError> {
        let arity_err = |expected: &str| IrError::Arity {
            kind: self.label(),
            expected: expected.into(),
            actual: inputs.len(),
        };
        let shape_err = |detail: String| IrError::Shape {
            kind: self.label(),
            detail,
        };
        match self {
            OpKind::Input { shape } | OpKind::Constant { shape, .. } => {
                if !inputs.is_empty() {
                    return Err(arity_err("0"));
                }
                Ok(vec![TensorMeta::new(shape.clone())])
            }
            OpKind::Unary(_)
            | OpKind::Silu
            | OpKind::Mish
            | OpKind::Gelu
            | OpKind::GeluTanh
            | OpKind::Elu { .. }
            | OpKind::Softplus
            | OpKind::Clip { .. }
            | OpKind::HardSigmoid
            | OpKind::HardSwish
            | OpKind::AddScalar(_)
            | OpKind::MulScalar(_)
            | OpKind::Identity => {
                let [x] = inputs else {
                    return Err(arity_err("1"));
                };
                Ok(vec![x.clone()])
            }
            OpKind::GlobalAvgPool => {
                let [x] = inputs else {
                    return Err(arity_err("1"));
                };
                if x.rank() != 4 {
                    return Err(shape_err("global average pool expects NCHW".into()));
                }
                Ok(vec![TensorMeta::new(vec![
                    x.shape()[0],
                    x.shape()[1],
                    1,
                    1,
                ])])
            }
            OpKind::Squeeze { axis } => {
                let [x] = inputs else {
                    return Err(arity_err("1"));
                };
                if *axis >= x.rank() || x.shape()[*axis] != 1 {
                    return Err(shape_err(format!(
                        "cannot squeeze axis {axis} of {:?}",
                        x.shape()
                    )));
                }
                let mut shape = x.shape().to_vec();
                shape.remove(*axis);
                Ok(vec![TensorMeta::new(shape)])
            }
            OpKind::Unsqueeze { axis } => {
                let [x] = inputs else {
                    return Err(arity_err("1"));
                };
                if *axis > x.rank() {
                    return Err(shape_err(format!(
                        "cannot unsqueeze at axis {axis} of rank {}",
                        x.rank()
                    )));
                }
                let mut shape = x.shape().to_vec();
                shape.insert(*axis, 1);
                Ok(vec![TensorMeta::new(shape)])
            }
            OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div => {
                let [a, b] = inputs else {
                    return Err(arity_err("2"));
                };
                let shape = broadcast_shapes(a.shape(), b.shape()).ok_or_else(|| {
                    shape_err(format!(
                        "cannot broadcast {:?} with {:?}",
                        a.shape(),
                        b.shape()
                    ))
                })?;
                Ok(vec![TensorMeta::new(shape)])
            }
            OpKind::Softmax { axis } | OpKind::LogSoftmax { axis } => {
                let [x] = inputs else {
                    return Err(arity_err("1"));
                };
                if *axis >= x.rank() {
                    return Err(shape_err(format!(
                        "axis {axis} out of range for {:?}",
                        x.shape()
                    )));
                }
                Ok(vec![x.clone()])
            }
            OpKind::PRelu => {
                let [x, slope] = inputs else {
                    return Err(arity_err("2"));
                };
                let target = broadcast_shapes(x.shape(), slope.shape()).ok_or_else(|| {
                    shape_err(format!(
                        "cannot broadcast slope {:?} with {:?}",
                        slope.shape(),
                        x.shape()
                    ))
                })?;
                if target != x.shape() {
                    return Err(shape_err(format!(
                        "slope {:?} must broadcast to x {:?}, not widen it",
                        slope.shape(),
                        x.shape()
                    )));
                }
                Ok(vec![x.clone()])
            }
            OpKind::GroupNorm { groups, .. } => {
                let [x, scale, bias] = inputs else {
                    return Err(arity_err("3"));
                };
                if x.rank() != 4 {
                    return Err(shape_err("group norm expects NCHW".into()));
                }
                let c = x.shape()[1];
                if *groups == 0 || c % *groups != 0 {
                    return Err(shape_err(format!("{groups} groups do not divide C={c}")));
                }
                if scale.shape() != [c] || bias.shape() != [c] {
                    return Err(shape_err(format!(
                        "scale/bias must be [{c}], got {:?}/{:?}",
                        scale.shape(),
                        bias.shape()
                    )));
                }
                Ok(vec![x.clone()])
            }
            OpKind::RmsNorm { .. } => {
                let [x, scale] = inputs else {
                    return Err(arity_err("2"));
                };
                let d = *x.shape().last().ok_or_else(|| shape_err("rank 0".into()))?;
                if scale.shape() != [d] {
                    return Err(shape_err(format!(
                        "scale must be [{d}], got {:?}",
                        scale.shape()
                    )));
                }
                Ok(vec![x.clone()])
            }
            OpKind::InstanceNorm { .. } => {
                let [x, scale, bias] = inputs else {
                    return Err(arity_err("3"));
                };
                if x.rank() != 4 {
                    return Err(shape_err("instance norm expects NCHW".into()));
                }
                let c = x.shape()[1];
                if scale.shape() != [c] || bias.shape() != [c] {
                    return Err(shape_err(format!(
                        "scale/bias must be [{c}], got {:?}/{:?}",
                        scale.shape(),
                        bias.shape()
                    )));
                }
                Ok(vec![x.clone()])
            }
            OpKind::LayerNorm { .. } => {
                let [x, scale, bias] = inputs else {
                    return Err(arity_err("3"));
                };
                let d = *x.shape().last().ok_or_else(|| shape_err("rank 0".into()))?;
                if scale.shape() != [d] || bias.shape() != [d] {
                    return Err(shape_err(format!(
                        "scale/bias must be [{d}], got {:?}/{:?}",
                        scale.shape(),
                        bias.shape()
                    )));
                }
                Ok(vec![x.clone()])
            }
            OpKind::BatchNorm { .. } => {
                let [x, gamma, beta, mean, var] = inputs else {
                    return Err(arity_err("5"));
                };
                if x.rank() != 4 {
                    return Err(shape_err("batch norm expects NCHW".into()));
                }
                let c = x.shape()[1];
                for (name, t) in [
                    ("gamma", gamma),
                    ("beta", beta),
                    ("mean", mean),
                    ("var", var),
                ] {
                    if t.shape() != [c] {
                        return Err(shape_err(format!(
                            "{name} must be [{c}], got {:?}",
                            t.shape()
                        )));
                    }
                }
                Ok(vec![x.clone()])
            }
            OpKind::Reduce { axis, keep_dim, .. } => {
                let [x] = inputs else {
                    return Err(arity_err("1"));
                };
                if *axis >= x.rank() {
                    return Err(shape_err(format!(
                        "axis {axis} out of range for {:?}",
                        x.shape()
                    )));
                }
                let mut shape = x.shape().to_vec();
                if *keep_dim {
                    shape[*axis] = 1;
                } else {
                    shape.remove(*axis);
                }
                Ok(vec![TensorMeta::new(shape)])
            }
            OpKind::MatMul => {
                use crate::prim::LinearFn;
                use korch_tensor::MatMulSpec;
                let lf = LinearFn::MatMul {
                    spec: MatMulSpec::new(),
                };
                crate::prim::PrimKind::Linear(lf)
                    .infer(inputs)
                    .map_err(|e| match e {
                        IrError::Arity { actual, .. } => arity_err("2").clone_with_actual(actual),
                        other => other,
                    })
            }
            OpKind::Gemm {
                trans_a, trans_b, ..
            } => {
                use crate::prim::LinearFn;
                use korch_tensor::MatMulSpec;
                let [a, b, c] = inputs else {
                    return Err(arity_err("3"));
                };
                if a.rank() != 2 || b.rank() != 2 {
                    return Err(shape_err("Gemm operands must be 2-D".into()));
                }
                let lf = LinearFn::MatMul {
                    spec: MatMulSpec {
                        trans_a: *trans_a,
                        trans_b: *trans_b,
                    },
                };
                let out = crate::prim::PrimKind::Linear(lf).infer(&inputs[..2])?;
                let target = broadcast_shapes(c.shape(), out[0].shape());
                if target.as_deref() != Some(out[0].shape()) {
                    return Err(shape_err(format!(
                        "C {:?} must broadcast to {:?}",
                        c.shape(),
                        out[0].shape()
                    )));
                }
                Ok(out)
            }
            OpKind::Conv2d {
                stride,
                padding,
                groups,
                bias,
            } => {
                let expected = if *bias { 3 } else { 2 };
                if inputs.len() != expected {
                    return Err(arity_err(&expected.to_string()));
                }
                use crate::prim::LinearFn;
                let lf = LinearFn::Conv2d {
                    stride: *stride,
                    padding: *padding,
                    groups: *groups,
                };
                let out = crate::prim::PrimKind::Linear(lf).infer(&inputs[..2])?;
                if *bias {
                    let o = out[0].shape()[1];
                    if inputs[2].shape() != [o] {
                        return Err(shape_err(format!(
                            "bias must be [{o}], got {:?}",
                            inputs[2].shape()
                        )));
                    }
                }
                Ok(out)
            }
            OpKind::MaxPool(spec) | OpKind::AvgPool(spec) => {
                let kind = ReduceKind::Max; // shape only depends on spec
                crate::prim::PrimKind::WindowReduce { spec: *spec, kind }.infer(inputs)
            }
            OpKind::Resize { out_h, out_w, mode } => {
                crate::prim::PrimKind::Layout(crate::prim::LayoutFn::Resize {
                    out_h: *out_h,
                    out_w: *out_w,
                    mode: *mode,
                })
                .infer(inputs)
            }
            OpKind::Transpose { perm } => {
                crate::prim::PrimKind::Layout(crate::prim::LayoutFn::Transpose {
                    perm: perm.clone(),
                })
                .infer(inputs)
            }
            OpKind::Reshape { shape } => {
                crate::prim::PrimKind::Layout(crate::prim::LayoutFn::Reshape {
                    shape: shape.clone(),
                })
                .infer(inputs)
            }
            OpKind::Slice { starts, ends } => {
                crate::prim::PrimKind::Layout(crate::prim::LayoutFn::Slice {
                    starts: starts.clone(),
                    ends: ends.clone(),
                })
                .infer(inputs)
            }
            OpKind::Concat { axis } => {
                crate::prim::PrimKind::Layout(crate::prim::LayoutFn::Concat { axis: *axis })
                    .infer(inputs)
            }
            OpKind::Split { axis, sizes } => {
                crate::prim::PrimKind::Layout(crate::prim::LayoutFn::Split {
                    axis: *axis,
                    sizes: sizes.clone(),
                })
                .infer(inputs)
            }
            OpKind::Pad {
                before,
                after,
                value,
            } => crate::prim::PrimKind::Layout(crate::prim::LayoutFn::Pad {
                before: before.clone(),
                after: after.clone(),
                value: *value,
            })
            .infer(inputs),
            OpKind::Custom { out_shapes, .. } => {
                Ok(out_shapes.iter().cloned().map(TensorMeta::new).collect())
            }
        }
    }

    fn label(&self) -> String {
        match self {
            OpKind::Input { .. } => "Input".into(),
            OpKind::Constant { .. } => "Constant".into(),
            OpKind::Unary(u) => format!("Unary({})", u.name()),
            OpKind::Silu => "Silu".into(),
            OpKind::Mish => "Mish".into(),
            OpKind::Gelu => "Gelu".into(),
            OpKind::GeluTanh => "GeluTanh".into(),
            OpKind::Elu { alpha } => format!("Elu[{alpha}]"),
            OpKind::PRelu => "PRelu".into(),
            OpKind::Softplus => "Softplus".into(),
            OpKind::Clip { min, max } => format!("Clip[{min},{max}]"),
            OpKind::HardSigmoid => "HardSigmoid".into(),
            OpKind::HardSwish => "HardSwish".into(),
            OpKind::GlobalAvgPool => "GlobalAvgPool".into(),
            OpKind::Squeeze { axis } => format!("Squeeze({axis})"),
            OpKind::Unsqueeze { axis } => format!("Unsqueeze({axis})"),
            OpKind::Add => "Add".into(),
            OpKind::Sub => "Sub".into(),
            OpKind::Mul => "Mul".into(),
            OpKind::Div => "Div".into(),
            OpKind::AddScalar(c) => format!("AddScalar({c})"),
            OpKind::MulScalar(c) => format!("MulScalar({c})"),
            OpKind::Softmax { axis } => format!("Softmax(axis={axis})"),
            OpKind::InstanceNorm { .. } => "InstanceNorm".into(),
            OpKind::LayerNorm { .. } => "LayerNorm".into(),
            OpKind::BatchNorm { .. } => "BatchNorm".into(),
            OpKind::GroupNorm { groups, .. } => format!("GroupNorm(g={groups})"),
            OpKind::RmsNorm { .. } => "RmsNorm".into(),
            OpKind::LogSoftmax { axis } => format!("LogSoftmax(axis={axis})"),
            OpKind::Reduce { kind, axis, .. } => format!("Reduce({},{axis})", kind.name()),
            OpKind::MatMul => "MatMul".into(),
            OpKind::Gemm {
                alpha,
                beta,
                trans_a,
                trans_b,
            } => {
                format!("Gemm(a={alpha},b={beta},tA={trans_a},tB={trans_b})")
            }
            OpKind::Conv2d {
                stride,
                padding,
                groups,
                ..
            } => {
                format!("Conv2d(s={stride},p={padding},g={groups})")
            }
            OpKind::MaxPool(s) => format!("MaxPool(k={})", s.kernel),
            OpKind::AvgPool(s) => format!("AvgPool(k={})", s.kernel),
            OpKind::Resize { out_h, out_w, mode } => {
                format!("Resize({out_h}x{out_w},{})", mode.name())
            }
            OpKind::Transpose { perm } => format!("Transpose{perm:?}"),
            OpKind::Reshape { shape } => format!("Reshape{shape:?}"),
            OpKind::Slice { .. } => "Slice".into(),
            OpKind::Concat { axis } => format!("Concat(axis={axis})"),
            OpKind::Split { axis, .. } => format!("Split(axis={axis})"),
            OpKind::Pad { .. } => "Pad".into(),
            OpKind::Identity => "Identity".into(),
            OpKind::Custom { name, .. } => format!("Custom({name})"),
        }
    }

    fn is_input(&self) -> bool {
        matches!(self, OpKind::Input { .. })
    }

    fn fingerprint(&self, h: &mut dyn Hasher) {
        // Operator graphs are not deduplicated by hash in this project, so a
        // label-based fingerprint is sufficient and keeps this maintainable.
        self.label().hash(&mut &mut *h);
        if let OpKind::Input { shape } | OpKind::Constant { shape, .. } = self {
            shape.hash(&mut &mut *h);
        }
    }
}

impl IrError {
    fn clone_with_actual(self, actual: usize) -> IrError {
        match self {
            IrError::Arity { kind, expected, .. } => IrError::Arity {
                kind,
                expected,
                actual,
            },
            other => other,
        }
    }
}

/// An operator graph (the tensor program input to Korch).
pub type OpGraph = Graph<OpKind>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PortRef;

    fn meta(shape: &[usize]) -> TensorMeta {
        TensorMeta::new(shape.to_vec())
    }

    #[test]
    fn binary_ops_broadcast() {
        let out = OpKind::Add.infer(&[meta(&[2, 3]), meta(&[3])]).unwrap();
        assert_eq!(out[0].shape(), &[2, 3]);
        assert!(OpKind::Mul.infer(&[meta(&[2, 3]), meta(&[4])]).is_err());
    }

    #[test]
    fn softmax_preserves_shape() {
        let out = OpKind::Softmax { axis: 1 }
            .infer(&[meta(&[4, 16])])
            .unwrap();
        assert_eq!(out[0].shape(), &[4, 16]);
        assert!(OpKind::Softmax { axis: 2 }
            .infer(&[meta(&[4, 16])])
            .is_err());
    }

    #[test]
    fn norm_ops_validate_params() {
        let inorm = OpKind::InstanceNorm { eps: 1e-5 };
        assert!(inorm
            .infer(&[meta(&[1, 8, 4, 4]), meta(&[8]), meta(&[8])])
            .is_ok());
        assert!(inorm
            .infer(&[meta(&[1, 8, 4, 4]), meta(&[4]), meta(&[8])])
            .is_err());
        assert!(inorm
            .infer(&[meta(&[8, 4]), meta(&[4]), meta(&[4])])
            .is_err());

        let lnorm = OpKind::LayerNorm { eps: 1e-5 };
        assert!(lnorm
            .infer(&[meta(&[2, 7, 16]), meta(&[16]), meta(&[16])])
            .is_ok());
        assert!(lnorm
            .infer(&[meta(&[2, 7, 16]), meta(&[7]), meta(&[16])])
            .is_err());

        let bnorm = OpKind::BatchNorm { eps: 1e-5 };
        let c4 = meta(&[4]);
        assert!(bnorm
            .infer(&[
                meta(&[1, 4, 2, 2]),
                c4.clone(),
                c4.clone(),
                c4.clone(),
                c4.clone()
            ])
            .is_ok());
        assert!(bnorm
            .infer(&[meta(&[1, 4, 2, 2]), c4.clone(), c4.clone(), c4.clone()])
            .is_err());
    }

    #[test]
    fn conv_with_bias_checks_channels() {
        let conv = OpKind::Conv2d {
            stride: 1,
            padding: 1,
            groups: 1,
            bias: true,
        };
        let ok = conv.infer(&[meta(&[1, 3, 8, 8]), meta(&[16, 3, 3, 3]), meta(&[16])]);
        assert_eq!(ok.unwrap()[0].shape(), &[1, 16, 8, 8]);
        assert!(conv
            .infer(&[meta(&[1, 3, 8, 8]), meta(&[16, 3, 3, 3]), meta(&[8])])
            .is_err());
        assert!(conv
            .infer(&[meta(&[1, 3, 8, 8]), meta(&[16, 3, 3, 3])])
            .is_err());
    }

    #[test]
    fn reduce_keep_dim() {
        let r = OpKind::Reduce {
            kind: ReduceKind::Mean,
            axis: 1,
            keep_dim: true,
        };
        assert_eq!(r.infer(&[meta(&[2, 5, 3])]).unwrap()[0].shape(), &[2, 1, 3]);
        let r = OpKind::Reduce {
            kind: ReduceKind::Mean,
            axis: 1,
            keep_dim: false,
        };
        assert_eq!(r.infer(&[meta(&[2, 5, 3])]).unwrap()[0].shape(), &[2, 3]);
    }

    #[test]
    fn build_small_op_graph() {
        // x -> conv -> relu -> output; exercises graph plumbing end to end.
        let mut g = OpGraph::new();
        let x = g
            .add(
                OpKind::Input {
                    shape: vec![1, 3, 8, 8],
                },
                vec![],
            )
            .unwrap();
        let w = g
            .add(
                OpKind::Constant {
                    shape: vec![8, 3, 3, 3],
                    init: ConstInit::Random(1),
                },
                vec![],
            )
            .unwrap();
        let c = g
            .add(
                OpKind::Conv2d {
                    stride: 1,
                    padding: 1,
                    groups: 1,
                    bias: false,
                },
                vec![x.into(), w.into()],
            )
            .unwrap();
        let r = g.add(OpKind::Unary(UnaryOp::Relu), vec![c.into()]).unwrap();
        g.mark_output(r).unwrap();
        assert_eq!(g.meta(PortRef::from(r)).shape(), &[1, 8, 8, 8]);
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn split_multi_output_op() {
        let mut g = OpGraph::new();
        let x = g.add(OpKind::Input { shape: vec![2, 6] }, vec![]).unwrap();
        let s = g
            .add(
                OpKind::Split {
                    axis: 1,
                    sizes: vec![2, 4],
                },
                vec![x.into()],
            )
            .unwrap();
        g.mark_output(PortRef { node: s, port: 0 }).unwrap();
        g.mark_output(PortRef { node: s, port: 1 }).unwrap();
        assert_eq!(g.node(s).out_metas[1].shape(), &[2, 4]);
    }

    #[test]
    fn custom_op_is_opaque() {
        let k = OpKind::Custom {
            name: "topk".into(),
            out_shapes: vec![vec![10]],
        };
        assert_eq!(k.infer(&[meta(&[100])]).unwrap()[0].shape(), &[10]);
        assert!(!k.is_source());
    }
}
