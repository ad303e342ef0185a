//! The primitive IR (paper §3): after operator fission every node carries a
//! *basic tensor algebra primitive* with a uniform degree of parallelism and
//! data-access pattern, classified into the paper's four categories
//! (elementwise, reduce & broadcast, layout transformation, linear
//! transformation) plus `Opaque` for unsupported operators (e.g. TopK),
//! `Constant` (needed by the ReduceSum→MatMul transformation) and `Input`.

use crate::error::IrError;
use crate::graph::{Graph, NodeKind};
use crate::meta::TensorMeta;
use korch_tensor::{BinaryOp, MatMulSpec, PoolSpec, ReduceKind, ResizeMode, UnaryOp};
use std::hash::{Hash, Hasher};

/// How a constant tensor's contents are generated (deterministically).
#[derive(Debug, Clone, PartialEq)]
pub enum ConstInit {
    /// All zeros.
    Zeros,
    /// All ones (the `Cs` tensor of paper Fig. 2b).
    Ones,
    /// Every element equal to the value.
    Fill(f32),
    /// Deterministic pseudo-random values seeded by the given seed
    /// (used for model weights).
    Random(u64),
}

impl ConstInit {
    fn fingerprint(&self, h: &mut dyn Hasher) {
        match self {
            ConstInit::Zeros => 0u8.hash(&mut &mut *h),
            ConstInit::Ones => 1u8.hash(&mut &mut *h),
            ConstInit::Fill(v) => {
                2u8.hash(&mut &mut *h);
                v.to_bits().hash(&mut &mut *h);
            }
            ConstInit::Random(s) => {
                3u8.hash(&mut &mut *h);
                s.hash(&mut &mut *h);
            }
        }
    }
}

/// Elementwise computation attached to an [`PrimKind::Elementwise`] node.
#[derive(Debug, Clone, PartialEq)]
pub enum EwFn {
    /// One input, one output.
    Unary(UnaryOp),
    /// Two same-shaped inputs.
    Binary(BinaryOp),
    /// One input combined with a compile-time scalar: `op(x, c)`.
    BinaryScalar(BinaryOp, f32),
    /// Scalar on the left: `op(c, x)` (e.g. `c - x`, `c / x`).
    BinaryScalarLhs(BinaryOp, f32),
}

impl EwFn {
    /// Number of tensor inputs.
    pub fn arity(&self) -> usize {
        match self {
            EwFn::Unary(_) | EwFn::BinaryScalar(..) | EwFn::BinaryScalarLhs(..) => 1,
            EwFn::Binary(_) => 2,
        }
    }

    /// Short lowercase label.
    pub fn name(&self) -> String {
        match self {
            EwFn::Unary(u) => u.name().to_string(),
            EwFn::Binary(b) => b.name().to_string(),
            EwFn::BinaryScalar(b, c) => format!("{}[{c}]", b.name()),
            EwFn::BinaryScalarLhs(b, c) => format!("[{c}]{}", b.name()),
        }
    }

    fn fingerprint(&self, h: &mut dyn Hasher) {
        match self {
            EwFn::Unary(u) => {
                0u8.hash(&mut &mut *h);
                u.hash(&mut &mut *h);
            }
            EwFn::Binary(b) => {
                1u8.hash(&mut &mut *h);
                b.hash(&mut &mut *h);
            }
            EwFn::BinaryScalar(b, c) => {
                2u8.hash(&mut &mut *h);
                b.hash(&mut &mut *h);
                c.to_bits().hash(&mut &mut *h);
            }
            EwFn::BinaryScalarLhs(b, c) => {
                3u8.hash(&mut &mut *h);
                b.hash(&mut &mut *h);
                c.to_bits().hash(&mut &mut *h);
            }
        }
    }
}

/// Layout transformation attached to a [`PrimKind::Layout`] node:
/// a one-to-one position remapping with no arithmetic (paper §3).
#[derive(Debug, Clone, PartialEq)]
pub enum LayoutFn {
    /// Permute dimensions.
    Transpose {
        /// Output dim `d` reads input dim `perm[d]`.
        perm: Vec<usize>,
    },
    /// Reinterpret with a new shape (same element count).
    Reshape {
        /// Target shape.
        shape: Vec<usize>,
    },
    /// Extract `[start, end)` per dimension.
    Slice {
        /// Inclusive start per dim.
        starts: Vec<usize>,
        /// Exclusive end per dim.
        ends: Vec<usize>,
    },
    /// Concatenate all inputs along an axis.
    Concat {
        /// Concatenation axis.
        axis: usize,
    },
    /// Split the input along an axis into the given part sizes
    /// (multi-output primitive).
    Split {
        /// Split axis.
        axis: usize,
        /// Part sizes (must sum to the axis length).
        sizes: Vec<usize>,
    },
    /// Pad with a constant value.
    Pad {
        /// Leading pad per dim.
        before: Vec<usize>,
        /// Trailing pad per dim.
        after: Vec<usize>,
        /// Fill value.
        value: f32,
    },
    /// Spatial resize of an NCHW tensor (each output element reads a fixed
    /// input position — gather-style layout transformation).
    Resize {
        /// Output height.
        out_h: usize,
        /// Output width.
        out_w: usize,
        /// Interpolation mode.
        mode: ResizeMode,
    },
}

impl LayoutFn {
    /// Short lowercase label.
    pub fn name(&self) -> &'static str {
        match self {
            LayoutFn::Transpose { .. } => "transpose",
            LayoutFn::Reshape { .. } => "reshape",
            LayoutFn::Slice { .. } => "slice",
            LayoutFn::Concat { .. } => "concat",
            LayoutFn::Split { .. } => "split",
            LayoutFn::Pad { .. } => "pad",
            LayoutFn::Resize { .. } => "resize",
        }
    }

    fn fingerprint(&self, h: &mut dyn Hasher) {
        match self {
            LayoutFn::Transpose { perm } => {
                0u8.hash(&mut &mut *h);
                perm.hash(&mut &mut *h);
            }
            LayoutFn::Reshape { shape } => {
                1u8.hash(&mut &mut *h);
                shape.hash(&mut &mut *h);
            }
            LayoutFn::Slice { starts, ends } => {
                2u8.hash(&mut &mut *h);
                starts.hash(&mut &mut *h);
                ends.hash(&mut &mut *h);
            }
            LayoutFn::Concat { axis } => {
                3u8.hash(&mut &mut *h);
                axis.hash(&mut &mut *h);
            }
            LayoutFn::Split { axis, sizes } => {
                4u8.hash(&mut &mut *h);
                axis.hash(&mut &mut *h);
                sizes.hash(&mut &mut *h);
            }
            LayoutFn::Pad {
                before,
                after,
                value,
            } => {
                5u8.hash(&mut &mut *h);
                before.hash(&mut &mut *h);
                after.hash(&mut &mut *h);
                value.to_bits().hash(&mut &mut *h);
            }
            LayoutFn::Resize { out_h, out_w, mode } => {
                6u8.hash(&mut &mut *h);
                out_h.hash(&mut &mut *h);
                out_w.hash(&mut &mut *h);
                mode.hash(&mut &mut *h);
            }
        }
    }
}

/// Linear transformation attached to a [`PrimKind::Linear`] node: output is
/// linear in every input (paper §3) — the compute-intensive primitives.
#[derive(Debug, Clone, PartialEq)]
pub enum LinearFn {
    /// (Batched) matrix multiplication with BLAS-style transpose flags.
    MatMul {
        /// Transpose flags.
        spec: MatMulSpec,
    },
    /// 2-D convolution, NCHW input and OIHW weight.
    Conv2d {
        /// Spatial stride.
        stride: usize,
        /// Symmetric zero padding.
        padding: usize,
        /// Channel groups.
        groups: usize,
    },
}

impl LinearFn {
    /// Short lowercase label.
    pub fn name(&self) -> &'static str {
        match self {
            LinearFn::MatMul { .. } => "matmul",
            LinearFn::Conv2d { .. } => "conv2d",
        }
    }

    fn fingerprint(&self, h: &mut dyn Hasher) {
        match self {
            LinearFn::MatMul { spec } => {
                0u8.hash(&mut &mut *h);
                spec.trans_a.hash(&mut &mut *h);
                spec.trans_b.hash(&mut &mut *h);
            }
            LinearFn::Conv2d {
                stride,
                padding,
                groups,
            } => {
                1u8.hash(&mut &mut *h);
                stride.hash(&mut &mut *h);
                padding.hash(&mut &mut *h);
                groups.hash(&mut &mut *h);
            }
        }
    }
}

/// A tensor algebra primitive (paper §3, Table 1).
#[derive(Debug, Clone, PartialEq)]
pub enum PrimKind {
    /// Graph input placeholder carrying its shape.
    Input {
        /// Shape of the fed tensor.
        shape: Vec<usize>,
    },
    /// Compile-time constant (weights, the all-ones tensor, …).
    Constant {
        /// Shape of the constant.
        shape: Vec<usize>,
        /// Content generator.
        init: ConstInit,
    },
    /// Elementwise primitive.
    Elementwise(EwFn),
    /// Reduce primitive: aggregates along `axis`, removing it.
    Reduce {
        /// Aggregator.
        kind: ReduceKind,
        /// Axis to reduce (removed from the shape).
        axis: usize,
    },
    /// Broadcast primitive: inserts a dimension of `size` at `axis`,
    /// replicating the input (the inverse of `Reduce`'s shape effect).
    Broadcast {
        /// Insertion position.
        axis: usize,
        /// Replication factor.
        size: usize,
    },
    /// Layout transformation primitive.
    Layout(LayoutFn),
    /// Linear transformation primitive.
    Linear(LinearFn),
    /// Windowed reduction (pooling) over NCHW spatial dims; the paper files
    /// MaxPool under reduce-and-broadcast (Table 1).
    WindowReduce {
        /// Window geometry.
        spec: PoolSpec,
        /// Aggregator (Max or Mean).
        kind: ReduceKind,
    },
    /// Operator Korch cannot decompose (paper §3 "Supporting new
    /// operators", e.g. TopK): executed as its own kernel, never fused.
    Opaque {
        /// Identifier for the external kernel.
        name: String,
        /// Declared output shapes.
        out_shapes: Vec<Vec<usize>>,
    },
}

/// The paper's primitive taxonomy, used by the cost model and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimCategory {
    /// Graph inputs and constants (no device computation of their own).
    Source,
    /// Elementwise computation.
    Elementwise,
    /// Reduce, broadcast and windowed reductions.
    ReduceBroadcast,
    /// Pure data movement.
    Layout,
    /// Compute-intensive linear transformations.
    Linear,
    /// Unsupported/opaque operators.
    Opaque,
}

impl PrimKind {
    /// The paper category of this primitive.
    pub fn category(&self) -> PrimCategory {
        match self {
            PrimKind::Input { .. } | PrimKind::Constant { .. } => PrimCategory::Source,
            PrimKind::Elementwise(_) => PrimCategory::Elementwise,
            PrimKind::Reduce { .. }
            | PrimKind::Broadcast { .. }
            | PrimKind::WindowReduce { .. } => PrimCategory::ReduceBroadcast,
            PrimKind::Layout(_) => PrimCategory::Layout,
            PrimKind::Linear(_) => PrimCategory::Linear,
            PrimKind::Opaque { .. } => PrimCategory::Opaque,
        }
    }

    /// `true` for sources (inputs/constants), which occupy no kernel.
    pub fn is_source(&self) -> bool {
        self.category() == PrimCategory::Source
    }

    /// `true` for linear-transformation primitives (compute-intensive).
    pub fn is_linear(&self) -> bool {
        self.category() == PrimCategory::Linear
    }
}

impl NodeKind for PrimKind {
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
            PrimKind::Input { shape } | PrimKind::Constant { shape, .. } => {
                if !inputs.is_empty() {
                    return Err(arity_err("0"));
                }
                Ok(vec![TensorMeta::new(shape.clone())])
            }
            PrimKind::Elementwise(f) => {
                if inputs.len() != f.arity() {
                    return Err(arity_err(&f.arity().to_string()));
                }
                if f.arity() == 2 && inputs[0].shape() != inputs[1].shape() {
                    return Err(shape_err(format!(
                        "elementwise operands differ: {:?} vs {:?}",
                        inputs[0].shape(),
                        inputs[1].shape()
                    )));
                }
                Ok(vec![inputs[0].clone()])
            }
            PrimKind::Reduce { axis, .. } => {
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
                shape.remove(*axis);
                Ok(vec![TensorMeta::new(shape)])
            }
            PrimKind::Broadcast { axis, size } => {
                let [x] = inputs else {
                    return Err(arity_err("1"));
                };
                if *axis > x.rank() {
                    return Err(shape_err(format!(
                        "axis {axis} out of range for {:?}",
                        x.shape()
                    )));
                }
                let mut shape = x.shape().to_vec();
                shape.insert(*axis, *size);
                Ok(vec![TensorMeta::new(shape)])
            }
            PrimKind::Layout(l) => infer_layout(l, inputs, &self.label()),
            PrimKind::Linear(l) => infer_linear(l, inputs, &self.label()),
            PrimKind::WindowReduce { spec, .. } => {
                let [x] = inputs else {
                    return Err(arity_err("1"));
                };
                if x.rank() != 4 {
                    return Err(shape_err("window reduce expects NCHW".into()));
                }
                let s = x.shape();
                if s[2] + 2 * spec.padding < spec.kernel || s[3] + 2 * spec.padding < spec.kernel {
                    return Err(shape_err("window larger than padded input".into()));
                }
                Ok(vec![TensorMeta::new(vec![
                    s[0],
                    s[1],
                    spec.out_dim(s[2]),
                    spec.out_dim(s[3]),
                ])])
            }
            PrimKind::Opaque { out_shapes, .. } => {
                Ok(out_shapes.iter().cloned().map(TensorMeta::new).collect())
            }
        }
    }

    fn label(&self) -> String {
        match self {
            PrimKind::Input { .. } => "input".into(),
            PrimKind::Constant { .. } => "const".into(),
            PrimKind::Elementwise(f) => format!("ew({})", f.name()),
            PrimKind::Reduce { kind, axis } => format!("reduce({},{axis})", kind.name()),
            PrimKind::Broadcast { axis, size } => format!("bcast({axis},{size})"),
            PrimKind::Layout(l) => format!("layout({})", l.name()),
            PrimKind::Linear(l) => format!("linear({})", l.name()),
            PrimKind::WindowReduce { kind, .. } => format!("pool({})", kind.name()),
            PrimKind::Opaque { name, .. } => format!("opaque({name})"),
        }
    }

    fn is_input(&self) -> bool {
        matches!(self, PrimKind::Input { .. })
    }

    fn fingerprint(&self, h: &mut dyn Hasher) {
        match self {
            PrimKind::Input { shape } => {
                0u8.hash(&mut &mut *h);
                shape.hash(&mut &mut *h);
            }
            PrimKind::Constant { shape, init } => {
                1u8.hash(&mut &mut *h);
                shape.hash(&mut &mut *h);
                init.fingerprint(h);
            }
            PrimKind::Elementwise(f) => {
                2u8.hash(&mut &mut *h);
                f.fingerprint(h);
            }
            PrimKind::Reduce { kind, axis } => {
                3u8.hash(&mut &mut *h);
                kind.hash(&mut &mut *h);
                axis.hash(&mut &mut *h);
            }
            PrimKind::Broadcast { axis, size } => {
                4u8.hash(&mut &mut *h);
                axis.hash(&mut &mut *h);
                size.hash(&mut &mut *h);
            }
            PrimKind::Layout(l) => {
                5u8.hash(&mut &mut *h);
                l.fingerprint(h);
            }
            PrimKind::Linear(l) => {
                6u8.hash(&mut &mut *h);
                l.fingerprint(h);
            }
            PrimKind::WindowReduce { spec, kind } => {
                7u8.hash(&mut &mut *h);
                spec.kernel.hash(&mut &mut *h);
                spec.stride.hash(&mut &mut *h);
                spec.padding.hash(&mut &mut *h);
                kind.hash(&mut &mut *h);
            }
            PrimKind::Opaque { name, out_shapes } => {
                8u8.hash(&mut &mut *h);
                name.hash(&mut &mut *h);
                out_shapes.hash(&mut &mut *h);
            }
        }
    }
}

fn infer_layout(
    l: &LayoutFn,
    inputs: &[TensorMeta],
    kind: &str,
) -> Result<Vec<TensorMeta>, IrError> {
    let arity_err = |expected: &str| IrError::Arity {
        kind: kind.to_string(),
        expected: expected.into(),
        actual: inputs.len(),
    };
    let shape_err = |detail: String| IrError::Shape {
        kind: kind.to_string(),
        detail,
    };
    match l {
        LayoutFn::Transpose { perm } => {
            let [x] = inputs else {
                return Err(arity_err("1"));
            };
            if perm.len() != x.rank() {
                return Err(shape_err(format!("perm {perm:?} vs rank {}", x.rank())));
            }
            let mut seen = vec![false; perm.len()];
            for &p in perm {
                if p >= perm.len() || seen[p] {
                    return Err(shape_err(format!("{perm:?} is not a permutation")));
                }
                seen[p] = true;
            }
            Ok(vec![TensorMeta::new(
                perm.iter().map(|&p| x.shape()[p]).collect(),
            )])
        }
        LayoutFn::Reshape { shape } => {
            let [x] = inputs else {
                return Err(arity_err("1"));
            };
            if shape.iter().product::<usize>() != x.numel() {
                return Err(shape_err(format!(
                    "cannot reshape {:?} ({} elems) to {shape:?}",
                    x.shape(),
                    x.numel()
                )));
            }
            Ok(vec![TensorMeta::new(shape.clone())])
        }
        LayoutFn::Slice { starts, ends } => {
            let [x] = inputs else {
                return Err(arity_err("1"));
            };
            if starts.len() != x.rank() || ends.len() != x.rank() {
                return Err(shape_err("slice bounds rank mismatch".into()));
            }
            let mut shape = Vec::with_capacity(x.rank());
            for d in 0..x.rank() {
                if starts[d] > ends[d] || ends[d] > x.shape()[d] {
                    return Err(shape_err(format!(
                        "slice [{},{}) out of bounds for dim {d} size {}",
                        starts[d],
                        ends[d],
                        x.shape()[d]
                    )));
                }
                shape.push(ends[d] - starts[d]);
            }
            Ok(vec![TensorMeta::new(shape)])
        }
        LayoutFn::Concat { axis } => {
            let first = inputs.first().ok_or_else(|| arity_err("at least 1"))?;
            if *axis >= first.rank() {
                return Err(shape_err(format!("axis {axis} out of range")));
            }
            let mut total = 0usize;
            for x in inputs {
                if x.rank() != first.rank() {
                    return Err(shape_err("concat rank mismatch".into()));
                }
                for d in 0..first.rank() {
                    if d != *axis && x.shape()[d] != first.shape()[d] {
                        return Err(shape_err(format!(
                            "concat dim {d} mismatch: {:?} vs {:?}",
                            first.shape(),
                            x.shape()
                        )));
                    }
                }
                total += x.shape()[*axis];
            }
            let mut shape = first.shape().to_vec();
            shape[*axis] = total;
            Ok(vec![TensorMeta::new(shape)])
        }
        LayoutFn::Split { axis, sizes } => {
            let [x] = inputs else {
                return Err(arity_err("1"));
            };
            if *axis >= x.rank() {
                return Err(shape_err(format!("axis {axis} out of range")));
            }
            if sizes.iter().sum::<usize>() != x.shape()[*axis] {
                return Err(shape_err(format!(
                    "split sizes {sizes:?} do not sum to {}",
                    x.shape()[*axis]
                )));
            }
            Ok(sizes
                .iter()
                .map(|&s| {
                    let mut shape = x.shape().to_vec();
                    shape[*axis] = s;
                    TensorMeta::new(shape)
                })
                .collect())
        }
        LayoutFn::Pad { before, after, .. } => {
            let [x] = inputs else {
                return Err(arity_err("1"));
            };
            if before.len() != x.rank() || after.len() != x.rank() {
                return Err(shape_err("pad spec rank mismatch".into()));
            }
            Ok(vec![TensorMeta::new(
                (0..x.rank())
                    .map(|d| before[d] + x.shape()[d] + after[d])
                    .collect(),
            )])
        }
        LayoutFn::Resize { out_h, out_w, .. } => {
            let [x] = inputs else {
                return Err(arity_err("1"));
            };
            if x.rank() != 4 {
                return Err(shape_err("resize expects NCHW".into()));
            }
            if *out_h == 0 || *out_w == 0 {
                return Err(shape_err("resize target must be positive".into()));
            }
            Ok(vec![TensorMeta::new(vec![
                x.shape()[0],
                x.shape()[1],
                *out_h,
                *out_w,
            ])])
        }
    }
}

fn infer_linear(
    l: &LinearFn,
    inputs: &[TensorMeta],
    kind: &str,
) -> Result<Vec<TensorMeta>, IrError> {
    let arity_err = |expected: &str| IrError::Arity {
        kind: kind.to_string(),
        expected: expected.into(),
        actual: inputs.len(),
    };
    let shape_err = |detail: String| IrError::Shape {
        kind: kind.to_string(),
        detail,
    };
    match l {
        LinearFn::MatMul { spec } => {
            let [a, b] = inputs else {
                return Err(arity_err("2"));
            };
            if a.rank() != b.rank() || a.rank() < 2 {
                return Err(shape_err(format!(
                    "ranks {:?} vs {:?}",
                    a.shape(),
                    b.shape()
                )));
            }
            let ra = a.rank();
            if a.shape()[..ra - 2] != b.shape()[..ra - 2] {
                return Err(shape_err("batch dims differ".into()));
            }
            let (am, ak) = (a.shape()[ra - 2], a.shape()[ra - 1]);
            let (bk, bn) = (b.shape()[ra - 2], b.shape()[ra - 1]);
            let (m, k1) = if spec.trans_a { (ak, am) } else { (am, ak) };
            let (k2, n) = if spec.trans_b { (bn, bk) } else { (bk, bn) };
            if k1 != k2 {
                return Err(shape_err(format!(
                    "inner dims {k1} vs {k2} for {:?} x {:?}",
                    a.shape(),
                    b.shape()
                )));
            }
            let mut shape = a.shape()[..ra - 2].to_vec();
            shape.push(m);
            shape.push(n);
            Ok(vec![TensorMeta::new(shape)])
        }
        LinearFn::Conv2d {
            stride,
            padding,
            groups,
        } => {
            let [x, w] = inputs else {
                return Err(arity_err("2"));
            };
            if x.rank() != 4 || w.rank() != 4 {
                return Err(shape_err(
                    "conv2d expects NCHW input and OIHW weight".into(),
                ));
            }
            let (c, h, wdim) = (x.shape()[1], x.shape()[2], x.shape()[3]);
            let (o, cg, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
            if *groups == 0 || *stride == 0 {
                return Err(shape_err("stride and groups must be positive".into()));
            }
            if c % groups != 0 || o % groups != 0 || cg != c / groups {
                return Err(shape_err(format!(
                    "group mismatch: C={c} weight O={o} Cg={cg} groups={groups}"
                )));
            }
            if h + 2 * padding < kh || wdim + 2 * padding < kw {
                return Err(shape_err("kernel larger than padded input".into()));
            }
            Ok(vec![TensorMeta::new(vec![
                x.shape()[0],
                o,
                (h + 2 * padding - kh) / stride + 1,
                (wdim + 2 * padding - kw) / stride + 1,
            ])])
        }
    }
}

/// A primitive graph (paper §3/§4): DAG of tensor-algebra primitives.
pub type PrimGraph = Graph<PrimKind>;

/// Per-category node counts of a primitive graph, for Table 2 statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrimStats {
    /// Inputs and constants.
    pub source: usize,
    /// Elementwise primitives.
    pub elementwise: usize,
    /// Reduce / broadcast / window-reduce primitives.
    pub reduce_broadcast: usize,
    /// Layout transformations.
    pub layout: usize,
    /// Linear transformations.
    pub linear: usize,
    /// Opaque operators.
    pub opaque: usize,
}

impl PrimStats {
    /// Counts the primitives of `g` by category.
    pub fn of(g: &PrimGraph) -> Self {
        let mut s = Self::default();
        for node in g.nodes() {
            match node.kind.category() {
                PrimCategory::Source => s.source += 1,
                PrimCategory::Elementwise => s.elementwise += 1,
                PrimCategory::ReduceBroadcast => s.reduce_broadcast += 1,
                PrimCategory::Layout => s.layout += 1,
                PrimCategory::Linear => s.linear += 1,
                PrimCategory::Opaque => s.opaque += 1,
            }
        }
        s
    }

    /// Total number of *computational* primitives (everything but sources).
    pub fn computational(&self) -> usize {
        self.elementwise + self.reduce_broadcast + self.layout + self.linear + self.opaque
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(shape: &[usize]) -> TensorMeta {
        TensorMeta::new(shape.to_vec())
    }

    #[test]
    fn elementwise_inference() {
        let k = PrimKind::Elementwise(EwFn::Binary(BinaryOp::Add));
        let out = k.infer(&[meta(&[2, 3]), meta(&[2, 3])]).unwrap();
        assert_eq!(out[0].shape(), &[2, 3]);
        assert!(k.infer(&[meta(&[2, 3]), meta(&[3, 2])]).is_err());
        assert!(k.infer(&[meta(&[2, 3])]).is_err());
    }

    #[test]
    fn reduce_broadcast_shapes_are_inverse() {
        let r = PrimKind::Reduce {
            kind: ReduceKind::Sum,
            axis: 1,
        };
        let out = r.infer(&[meta(&[2, 5, 3])]).unwrap();
        assert_eq!(out[0].shape(), &[2, 3]);
        let b = PrimKind::Broadcast { axis: 1, size: 5 };
        let back = b.infer(&out).unwrap();
        assert_eq!(back[0].shape(), &[2, 5, 3]);
    }

    #[test]
    fn reduce_axis_bounds() {
        let r = PrimKind::Reduce {
            kind: ReduceKind::Sum,
            axis: 3,
        };
        assert!(r.infer(&[meta(&[2, 2])]).is_err());
    }

    #[test]
    fn matmul_inference_with_flags() {
        let k = PrimKind::Linear(LinearFn::MatMul {
            spec: MatMulSpec {
                trans_a: true,
                trans_b: false,
            },
        });
        let out = k.infer(&[meta(&[8, 4]), meta(&[8, 16])]).unwrap();
        assert_eq!(out[0].shape(), &[4, 16]);
        assert!(k.infer(&[meta(&[8, 4]), meta(&[4, 16])]).is_err());
    }

    #[test]
    fn batched_matmul_inference() {
        let k = PrimKind::Linear(LinearFn::MatMul {
            spec: MatMulSpec::new(),
        });
        let out = k.infer(&[meta(&[2, 3, 4]), meta(&[2, 4, 5])]).unwrap();
        assert_eq!(out[0].shape(), &[2, 3, 5]);
        assert!(k.infer(&[meta(&[2, 3, 4]), meta(&[3, 4, 5])]).is_err());
    }

    #[test]
    fn conv2d_inference() {
        let k = PrimKind::Linear(LinearFn::Conv2d {
            stride: 2,
            padding: 1,
            groups: 1,
        });
        let out = k
            .infer(&[meta(&[1, 3, 8, 8]), meta(&[16, 3, 3, 3])])
            .unwrap();
        assert_eq!(out[0].shape(), &[1, 16, 4, 4]);
        // group mismatch
        let k = PrimKind::Linear(LinearFn::Conv2d {
            stride: 1,
            padding: 0,
            groups: 2,
        });
        assert!(k
            .infer(&[meta(&[1, 3, 8, 8]), meta(&[4, 1, 1, 1])])
            .is_err());
    }

    #[test]
    fn split_is_multi_output() {
        let k = PrimKind::Layout(LayoutFn::Split {
            axis: 1,
            sizes: vec![2, 3, 1],
        });
        let out = k.infer(&[meta(&[4, 6])]).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].shape(), &[4, 2]);
        assert_eq!(out[2].shape(), &[4, 1]);
        let bad = PrimKind::Layout(LayoutFn::Split {
            axis: 1,
            sizes: vec![2, 2],
        });
        assert!(bad.infer(&[meta(&[4, 6])]).is_err());
    }

    #[test]
    fn concat_requires_matching_dims() {
        let k = PrimKind::Layout(LayoutFn::Concat { axis: 0 });
        let out = k.infer(&[meta(&[2, 3]), meta(&[5, 3])]).unwrap();
        assert_eq!(out[0].shape(), &[7, 3]);
        assert!(k.infer(&[meta(&[2, 3]), meta(&[5, 4])]).is_err());
        assert!(k.infer(&[]).is_err());
    }

    #[test]
    fn pad_and_slice_shapes() {
        let p = PrimKind::Layout(LayoutFn::Pad {
            before: vec![0, 1],
            after: vec![0, 2],
            value: 0.0,
        });
        assert_eq!(p.infer(&[meta(&[2, 3])]).unwrap()[0].shape(), &[2, 6]);
        let s = PrimKind::Layout(LayoutFn::Slice {
            starts: vec![0, 1],
            ends: vec![2, 3],
        });
        assert_eq!(s.infer(&[meta(&[2, 3])]).unwrap()[0].shape(), &[2, 2]);
        assert!(PrimKind::Layout(LayoutFn::Slice {
            starts: vec![0, 1],
            ends: vec![2, 9]
        })
        .infer(&[meta(&[2, 3])])
        .is_err());
    }

    #[test]
    fn resize_and_pool_shapes() {
        let r = PrimKind::Layout(LayoutFn::Resize {
            out_h: 16,
            out_w: 8,
            mode: ResizeMode::Nearest,
        });
        assert_eq!(
            r.infer(&[meta(&[1, 4, 8, 4])]).unwrap()[0].shape(),
            &[1, 4, 16, 8]
        );
        let p = PrimKind::WindowReduce {
            spec: PoolSpec::new(2, 2),
            kind: ReduceKind::Max,
        };
        assert_eq!(
            p.infer(&[meta(&[1, 4, 8, 8])]).unwrap()[0].shape(),
            &[1, 4, 4, 4]
        );
    }

    #[test]
    fn categories_match_table1() {
        assert_eq!(
            PrimKind::Elementwise(EwFn::Unary(UnaryOp::Relu)).category(),
            PrimCategory::Elementwise
        );
        assert_eq!(
            PrimKind::Reduce {
                kind: ReduceKind::Sum,
                axis: 0
            }
            .category(),
            PrimCategory::ReduceBroadcast
        );
        assert_eq!(
            PrimKind::Layout(LayoutFn::Concat { axis: 0 }).category(),
            PrimCategory::Layout
        );
        assert!(PrimKind::Linear(LinearFn::MatMul {
            spec: MatMulSpec::new()
        })
        .is_linear());
        assert!(PrimKind::Input { shape: vec![1] }.is_source());
    }

    #[test]
    fn opaque_reports_declared_shapes() {
        let k = PrimKind::Opaque {
            name: "topk".into(),
            out_shapes: vec![vec![5], vec![5]],
        };
        let out = k.infer(&[meta(&[100])]).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(k.category(), PrimCategory::Opaque);
    }

    #[test]
    fn stats_count_by_category() {
        let mut g = PrimGraph::new();
        let x = g
            .add(PrimKind::Input { shape: vec![2, 4] }, vec![])
            .unwrap();
        let e = g
            .add(
                PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp)),
                vec![x.into()],
            )
            .unwrap();
        let r = g
            .add(
                PrimKind::Reduce {
                    kind: ReduceKind::Sum,
                    axis: 1,
                },
                vec![e.into()],
            )
            .unwrap();
        g.mark_output(r).unwrap();
        let s = PrimStats::of(&g);
        assert_eq!(s.source, 1);
        assert_eq!(s.elementwise, 1);
        assert_eq!(s.reduce_broadcast, 1);
        assert_eq!(s.computational(), 2);
    }

    #[test]
    fn fingerprints_differ_for_scalar_constants() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::Hasher as _;
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        PrimKind::Elementwise(EwFn::BinaryScalar(BinaryOp::Add, 1.0)).fingerprint(&mut h1);
        PrimKind::Elementwise(EwFn::BinaryScalar(BinaryOp::Add, 2.0)).fingerprint(&mut h2);
        assert_ne!(h1.finish(), h2.finish());
    }

    /// A primitive graph from `(kind, [(node, port)])` in node order, with
    /// `outputs` marked in order.
    fn graph(nodes: Vec<(PrimKind, Vec<(usize, usize)>)>, outputs: &[(usize, usize)]) -> PrimGraph {
        let port = |(node, port)| crate::PortRef {
            node: crate::NodeId(node),
            port,
        };
        let mut g = PrimGraph::new();
        for (kind, inputs) in nodes {
            g.add(kind, inputs.into_iter().map(port).collect()).unwrap();
        }
        for &o in outputs {
            g.mark_output(port(o)).unwrap();
        }
        g
    }

    fn input() -> PrimKind {
        PrimKind::Input { shape: vec![2, 4] }
    }

    fn constant(seed: u64) -> PrimKind {
        PrimKind::Constant {
            shape: vec![2, 4],
            init: ConstInit::Random(seed),
        }
    }

    fn ew(op: BinaryOp) -> PrimKind {
        PrimKind::Elementwise(EwFn::Binary(op))
    }

    fn exp() -> PrimKind {
        PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp))
    }

    /// `x`, `c = const(seed)`, `a = x + c`, `e = exp(x)`, `a * e`.
    fn branches(seed: u64) -> PrimGraph {
        graph(
            vec![
                (input(), vec![]),
                (constant(seed), vec![]),
                (ew(BinaryOp::Add), vec![(0, 0), (1, 0)]),
                (exp(), vec![(0, 0)]),
                (ew(BinaryOp::Mul), vec![(2, 0), (3, 0)]),
            ],
            &[(4, 0)],
        )
    }

    /// The numbering-free key: the canonical copy's fingerprint.
    fn key(g: &PrimGraph) -> u64 {
        g.canonical().fingerprint()
    }

    #[test]
    fn canonical_ignores_numbering() {
        let want = key(&branches(7));
        // The constant numbered first instead of second.
        let renumbered_source = graph(
            vec![
                (constant(7), vec![]),
                (input(), vec![]),
                (ew(BinaryOp::Add), vec![(1, 0), (0, 0)]),
                (exp(), vec![(1, 0)]),
                (ew(BinaryOp::Mul), vec![(2, 0), (3, 0)]),
            ],
            &[(4, 0)],
        );
        // The two independent branches numbered the other way round.
        let swapped_branches = graph(
            vec![
                (input(), vec![]),
                (exp(), vec![(0, 0)]),
                (constant(7), vec![]),
                (ew(BinaryOp::Add), vec![(0, 0), (2, 0)]),
                (ew(BinaryOp::Mul), vec![(3, 0), (1, 0)]),
            ],
            &[(4, 0)],
        );
        assert_eq!(key(&renumbered_source), want);
        assert_eq!(key(&swapped_branches), want);
        assert_ne!(renumbered_source.fingerprint(), branches(7).fingerprint());
    }

    #[test]
    fn canonical_tells_different_graphs_apart() {
        let want = key(&branches(7));
        assert_ne!(key(&branches(8)), want, "constant seed");
        // `a * a` instead of `a * e`: one edge moved.
        let mut g = branches(7);
        let moved_edge = graph(
            vec![
                (input(), vec![]),
                (constant(7), vec![]),
                (ew(BinaryOp::Add), vec![(0, 0), (1, 0)]),
                (exp(), vec![(0, 0)]),
                (ew(BinaryOp::Mul), vec![(2, 0), (2, 0)]),
            ],
            &[(4, 0), (3, 0)],
        );
        g.mark_output(crate::NodeId(3)).unwrap();
        assert_ne!(key(&moved_edge), key(&g), "edge");

        // `x - y` against `y - x`, the inputs fed in the same order.
        let sub = |first: usize| {
            graph(
                vec![
                    (input(), vec![]),
                    (input(), vec![]),
                    (ew(BinaryOp::Sub), vec![(first, 0), (1 - first, 0)]),
                ],
                &[(2, 0)],
            )
        };
        assert_ne!(key(&sub(0)), key(&sub(1)), "inputs");

        // Which half of a split the consumer reads.
        let split = |port: usize| {
            let halves = LayoutFn::Split {
                axis: 1,
                sizes: vec![2, 2],
            };
            graph(
                vec![
                    (input(), vec![]),
                    (PrimKind::Layout(halves), vec![(0, 0)]),
                    (exp(), vec![(1, port)]),
                ],
                &[(2, 0)],
            )
        };
        assert_ne!(key(&split(0)), key(&split(1)), "port");

        // The same two outputs, listed the other way round.
        let mut ae = branches(7);
        ae.mark_output(crate::NodeId(3)).unwrap();
        let ea = graph(
            vec![
                (input(), vec![]),
                (constant(7), vec![]),
                (ew(BinaryOp::Add), vec![(0, 0), (1, 0)]),
                (exp(), vec![(0, 0)]),
                (ew(BinaryOp::Mul), vec![(2, 0), (3, 0)]),
            ],
            &[(3, 0), (4, 0)],
        );
        assert_ne!(key(&ae), key(&ea), "output order");
    }
}
