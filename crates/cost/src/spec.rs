//! Extraction of a priceable [`KernelSpec`] from a candidate subgraph of a
//! primitive graph (the "kernel generation" half of the paper's kernel
//! profiler, reduced to the features the latency model needs).
//!
//! A spec is built in two passes. The member pass ([`member_spec`]) reads
//! everything that depends only on the member set: input bytes, FLOPs,
//! GEMM shapes, passes, pattern classes and the opaque flag. The output
//! pass ([`output_bytes`]) prices one choice of materialized ports. Kernel
//! identification runs the member pass once per subgraph and the output
//! pass once per output set; [`kernel_spec`] runs both for one kernel.

use korch_ir::{LayoutFn, LinearFn, NodeId, PortRef, PrimGraph, PrimKind};
use std::collections::BTreeSet;

/// GEMM-normalized geometry of one linear-transformation primitive.
/// Convolutions are mapped to their implicit-GEMM dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Independent batch count (conv groups or leading matmul dims).
    pub batch: u64,
    /// Rows of the output tile.
    pub m: u64,
    /// Columns of the output tile.
    pub n: u64,
    /// Contraction length.
    pub k: u64,
    /// Extent of the dimension `korch-tensor`'s microkernel groups
    /// [`korch_tensor::MATMUL_MR`] rows at a time: `m` for a matmul; for
    /// a conv, whose weight is the left operand, the output channels per
    /// group (`n`). Decides the [`KernelClass`] only — no latency term
    /// reads it.
    pub mr_rows: u64,
}

impl GemmShape {
    /// Total multiply-accumulate FLOPs (2 per MAC).
    pub fn flops(&self) -> u64 {
        2 * self.batch * self.m * self.n * self.k
    }
}

/// Memory-access pattern classes of layout primitives; the more *distinct*
/// classes a generated kernel must interleave, the worse its achievable
/// bandwidth (and, past a footprint threshold, TVM-style codegen falls off
/// a cliff — paper Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PatternClass {
    /// Strided permutation reads (Transpose).
    Strided,
    /// Block copies with offset arithmetic (Slice/Concat/Split/Pad).
    Blocked,
    /// Gather-style reads (Resize).
    Gather,
}

/// Everything the latency model needs to know about a candidate kernel.
///
/// `Eq`/`Hash` make the spec usable as a tuning-database key (paper §6.5:
/// "We utilize the TVM database to avoid tuning the same candidate kernel
/// multiple times" — two candidates with identical cost features share one
/// tuned schedule).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KernelSpec {
    /// Number of primitives executed by the kernel.
    pub n_prims: usize,
    /// Bytes read from device memory: external inputs, deduplicated.
    pub input_bytes: u64,
    /// Bytes written to device memory: the kernel's declared outputs.
    pub output_bytes: u64,
    /// Total FLOPs of non-linear primitives (elementwise, reduce, pool).
    pub pointwise_flops: u64,
    /// Geometry of each linear-transformation primitive (empty ⇒ the kernel
    /// is memory-intensive, paper §5.2).
    pub linear: Vec<GemmShape>,
    /// Number of passes over the inputs: 1, plus one per reduce primitive
    /// whose result is consumed again *inside* the kernel (a fused
    /// normalization needs a second sweep), capped at 3.
    pub passes: u32,
    /// Distinct layout pattern classes interleaved in the kernel.
    pub pattern_classes: u32,
    /// Kernel contains an opaque primitive (priced pessimistically).
    pub has_opaque: bool,
}

/// Roofline class of a kernel, the granularity at which
/// [`Calibration`](crate::Calibration) learns per-class throughput
/// scales. The classes follow the microkernel structure in
/// `korch-tensor`: a GEMM whose dominant output tile has at least
/// [`korch_tensor::MATMUL_MR`] of the rows the microkernel groups
/// ([`GemmShape::mr_rows`]: a matmul's `m`, a conv's output channels per
/// group) runs the register-blocked MR×NR microkernel at full
/// throughput, while skinnier GEMMs — a depthwise conv has one row per
/// group — fall back to the row-at-a-time path and behave closer to a
/// memory-bound sweep. Memory-intensive kernels (no linear primitive)
/// are priced off the bandwidth roofline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelClass {
    /// No linear-transformation primitive: bandwidth-limited.
    Memory,
    /// Dominant GEMM tall enough (`mr_rows ≥ MATMUL_MR`) for the
    /// register-blocked microkernel.
    GemmBlocked,
    /// Dominant GEMM shorter than the MR row group: row-at-a-time
    /// fallback throughput.
    GemmSkinny,
}

impl KernelClass {
    /// Stable lowercase name, used for telemetry gauge suffixes
    /// (`executor.gflops.<class>`).
    pub fn name(self) -> &'static str {
        match self {
            KernelClass::Memory => "memory",
            KernelClass::GemmBlocked => "gemm_blocked",
            KernelClass::GemmSkinny => "gemm_skinny",
        }
    }

    /// All classes, for iteration (telemetry registration, fitting).
    pub const ALL: [KernelClass; 3] = [
        KernelClass::Memory,
        KernelClass::GemmBlocked,
        KernelClass::GemmSkinny,
    ];
}

impl KernelSpec {
    /// Whether the paper's profiler would classify this kernel as
    /// compute-intensive (contains a linear-transformation primitive).
    pub fn is_compute_intensive(&self) -> bool {
        !self.linear.is_empty()
    }

    /// The kernel's roofline class (see [`KernelClass`]): memory-bound
    /// kernels by bandwidth, compute kernels split by whether the
    /// highest-FLOP GEMM reaches the microkernel's MR row group.
    pub fn class(&self) -> KernelClass {
        match self.linear.iter().max_by_key(|g| g.flops()) {
            None => KernelClass::Memory,
            Some(dom) if dom.mr_rows >= korch_tensor::MATMUL_MR as u64 => KernelClass::GemmBlocked,
            Some(_) => KernelClass::GemmSkinny,
        }
    }

    /// Total FLOPs (linear + pointwise).
    pub fn total_flops(&self) -> u64 {
        self.pointwise_flops + self.linear.iter().map(GemmShape::flops).sum::<u64>()
    }

    /// Total bytes moved, accounting for multi-pass reads.
    pub fn bytes_moved(&self) -> u64 {
        self.input_bytes * u64::from(self.passes) + self.output_bytes
    }
}

/// Builds the [`KernelSpec`] for executing the primitives in `members`
/// while materializing exactly `outputs` to device memory: the member
/// pass ([`member_spec`]) plus the output pass ([`output_bytes`]).
///
/// # Panics
///
/// Panics if an output port does not belong to a member node.
pub fn kernel_spec(g: &PrimGraph, members: &BTreeSet<NodeId>, outputs: &[PortRef]) -> KernelSpec {
    let members: Vec<NodeId> = members.iter().copied().collect();
    KernelSpec {
        output_bytes: output_bytes(g, &members, outputs),
        ..member_spec(g, &members)
    }
}

/// The member pass: every feature of a kernel over `members` (ascending,
/// distinct) that does not depend on which ports it materializes — input
/// bytes, FLOPs, GEMM shapes, passes, pattern classes, the opaque flag.
/// `output_bytes` is left 0; one output set fills it with
/// [`output_bytes`], so a subgraph with several output choices runs this
/// pass once.
pub fn member_spec(g: &PrimGraph, members: &[NodeId]) -> KernelSpec {
    let is_member = |id: NodeId| members.binary_search(&id).is_ok();
    // A reduce some member reads has an in-kernel consumer. Walking the
    // members keeps this pass independent of the graph's size (a plan
    // prices every kernel of a whole program).
    let read_by_member =
        |id: NodeId| (members.iter()).any(|&m| g.node(m).inputs.iter().any(|r| r.node == id));
    let mut input_ports: Vec<PortRef> = Vec::new();
    let mut pointwise_flops = 0u64;
    let mut linear = Vec::new();
    let mut classes = 0u8; // one bit per `PatternClass`
    let mut has_opaque = false;
    let mut inner_reduce_reuse = 0u32;
    let mut n_prims = 0;

    for &id in members {
        let node = g.node(id);
        input_ports.extend(node.inputs.iter().filter(|r| !is_member(r.node)));
        n_prims += usize::from(!node.kind.is_source());
        let out_numel: u64 = node.out_metas.iter().map(|m| m.numel() as u64).sum();
        match &node.kind {
            PrimKind::Input { .. } | PrimKind::Constant { .. } => {}
            PrimKind::Elementwise(_) => pointwise_flops += out_numel,
            PrimKind::Reduce { .. } => {
                pointwise_flops += g.meta(node.inputs[0]).numel() as u64;
                inner_reduce_reuse += u32::from(read_by_member(id));
            }
            PrimKind::Broadcast { .. } => {}
            PrimKind::WindowReduce { spec, .. } => {
                pointwise_flops += out_numel * (spec.kernel * spec.kernel) as u64;
            }
            PrimKind::Layout(l) => {
                classes |= match l {
                    LayoutFn::Reshape { .. } => 0, // pure index arithmetic
                    LayoutFn::Transpose { .. } => 1 << PatternClass::Strided as u8,
                    LayoutFn::Slice { .. }
                    | LayoutFn::Concat { .. }
                    | LayoutFn::Split { .. }
                    | LayoutFn::Pad { .. } => 1 << PatternClass::Blocked as u8,
                    LayoutFn::Resize { .. } => 1 << PatternClass::Gather as u8,
                };
            }
            PrimKind::Linear(l) => linear.push(gemm_shape(g, id, l)),
            PrimKind::Opaque { .. } => has_opaque = true,
        }
    }
    input_ports.sort_unstable();
    input_ports.dedup();

    KernelSpec {
        n_prims,
        input_bytes: input_ports
            .iter()
            .map(|&r| g.meta(r).byte_size() as u64)
            .sum(),
        output_bytes: 0,
        pointwise_flops,
        linear,
        passes: (1 + inner_reduce_reuse).min(3),
        pattern_classes: classes.count_ones(),
        has_opaque,
    }
}

/// The output pass: bytes a kernel over `members` (ascending) writes to
/// device memory when it materializes `outputs`, each distinct port once.
///
/// # Panics
///
/// Panics if an output port does not belong to a member node.
pub fn output_bytes(g: &PrimGraph, members: &[NodeId], outputs: &[PortRef]) -> u64 {
    let distinct = (outputs.iter().enumerate()).filter(|&(i, o)| !outputs[..i].contains(o));
    distinct
        .map(|(_, &o)| {
            assert!(
                members.binary_search(&o.node).is_ok(),
                "output {o:?} not produced by a member"
            );
            g.meta(o).byte_size() as u64
        })
        .sum()
}

/// Implicit-GEMM geometry of a linear primitive node.
fn gemm_shape(g: &PrimGraph, id: NodeId, l: &LinearFn) -> GemmShape {
    let node = g.node(id);
    match l {
        LinearFn::MatMul { spec } => {
            let a = g.meta(node.inputs[0]);
            let b = g.meta(node.inputs[1]);
            let ra = a.rank();
            let batch: u64 = a.shape()[..ra - 2].iter().product::<usize>() as u64;
            let (am, ak) = (a.shape()[ra - 2] as u64, a.shape()[ra - 1] as u64);
            let (bk, bn) = (b.shape()[ra - 2] as u64, b.shape()[ra - 1] as u64);
            let (m, k) = if spec.trans_a { (ak, am) } else { (am, ak) };
            let n = if spec.trans_b { bk } else { bn };
            GemmShape {
                batch: batch.max(1),
                m,
                n,
                k,
                mr_rows: m,
            }
        }
        LinearFn::Conv2d { groups, .. } => {
            let x = g.meta(node.inputs[0]);
            let w = g.meta(node.inputs[1]);
            let out = &node.out_metas[0];
            let n_batch = x.shape()[0] as u64;
            let g_ = *groups as u64;
            let out_c_per_group = out.shape()[1] as u64 / g_;
            GemmShape {
                batch: g_,
                m: n_batch * (out.shape()[2] * out.shape()[3]) as u64,
                n: out_c_per_group,
                k: (w.shape()[1] * w.shape()[2] * w.shape()[3]) as u64,
                mr_rows: out_c_per_group,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use korch_ir::{ConstInit, EwFn, PrimKind};
    use korch_tensor::{BinaryOp, MatMulSpec, ReduceKind, UnaryOp};

    fn softmax_graph() -> (PrimGraph, Vec<NodeId>) {
        // input [4,16] -> exp -> reduce(1) -> bcast(1,16) -> div(exp, bcast)
        let mut g = PrimGraph::new();
        let x = g
            .add(PrimKind::Input { shape: vec![4, 16] }, vec![])
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
        let b = g
            .add(PrimKind::Broadcast { axis: 1, size: 16 }, vec![r.into()])
            .unwrap();
        let d = g
            .add(
                PrimKind::Elementwise(EwFn::Binary(BinaryOp::Div)),
                vec![e.into(), b.into()],
            )
            .unwrap();
        g.mark_output(d).unwrap();
        (g, vec![x, e, r, b, d])
    }

    #[test]
    fn fused_softmax_is_two_pass() {
        let (g, n) = softmax_graph();
        let members: BTreeSet<NodeId> = n[1..].iter().copied().collect();
        let spec = kernel_spec(&g, &members, &[n[4].into()]);
        assert_eq!(spec.passes, 2); // reduce result reused inside the kernel
        assert_eq!(spec.input_bytes, 4 * 16 * 4);
        assert_eq!(spec.output_bytes, 4 * 16 * 4);
        assert!(!spec.is_compute_intensive());
        assert_eq!(spec.n_prims, 4);
    }

    #[test]
    fn standalone_reduce_is_single_pass() {
        let (g, n) = softmax_graph();
        let members: BTreeSet<NodeId> = [n[2]].into_iter().collect();
        let spec = kernel_spec(&g, &members, &[n[2].into()]);
        assert_eq!(spec.passes, 1);
        assert_eq!(spec.output_bytes, 4 * 4);
    }

    /// The set-based `kernel_spec` the two passes replaced: the
    /// definition they must reproduce.
    fn reference_spec(
        g: &PrimGraph,
        members: &BTreeSet<NodeId>,
        outputs: &[PortRef],
    ) -> KernelSpec {
        use std::collections::HashSet;
        let mut input_ports: HashSet<PortRef> = HashSet::new();
        let mut pointwise_flops = 0u64;
        let mut linear = Vec::new();
        let mut classes: BTreeSet<PatternClass> = BTreeSet::new();
        let mut has_opaque = false;
        let mut inner_reduce_reuse = 0u32;
        let read_by_member: HashSet<NodeId> = members
            .iter()
            .flat_map(|&m| g.node(m).inputs.iter().map(|r| r.node))
            .collect();
        for &id in members {
            let node = g.node(id);
            for r in &node.inputs {
                if !members.contains(&r.node) {
                    input_ports.insert(*r);
                }
            }
            let out_numel: u64 = node.out_metas.iter().map(|m| m.numel() as u64).sum();
            match &node.kind {
                PrimKind::Input { .. } | PrimKind::Constant { .. } => {}
                PrimKind::Elementwise(_) => pointwise_flops += out_numel,
                PrimKind::Reduce { .. } => {
                    pointwise_flops += g.meta(node.inputs[0]).numel() as u64;
                    if read_by_member.contains(&id) {
                        inner_reduce_reuse += 1;
                    }
                }
                PrimKind::Broadcast { .. } => {}
                PrimKind::WindowReduce { spec, .. } => {
                    pointwise_flops += out_numel * (spec.kernel * spec.kernel) as u64;
                }
                PrimKind::Layout(l) => {
                    let class = match l {
                        LayoutFn::Reshape { .. } => None,
                        LayoutFn::Transpose { .. } => Some(PatternClass::Strided),
                        LayoutFn::Resize { .. } => Some(PatternClass::Gather),
                        _ => Some(PatternClass::Blocked),
                    };
                    classes.extend(class);
                }
                PrimKind::Linear(l) => linear.push(gemm_shape(g, id, l)),
                PrimKind::Opaque { .. } => has_opaque = true,
            }
        }
        let bytes = |ports: &HashSet<PortRef>| -> u64 {
            ports.iter().map(|r| g.meta(*r).byte_size() as u64).sum()
        };
        KernelSpec {
            n_prims: members
                .iter()
                .filter(|&&id| !g.node(id).kind.is_source())
                .count(),
            input_bytes: bytes(&input_ports),
            output_bytes: bytes(&outputs.iter().copied().collect()),
            pointwise_flops,
            linear,
            passes: (1 + inner_reduce_reuse).min(3),
            pattern_classes: classes.len() as u32,
            has_opaque,
        }
    }

    #[test]
    fn two_passes_match_the_set_based_spec() {
        // Every member set of a graph with each feature the passes read
        // (a GEMM, a reused reduce, three layout classes, a reshape,
        // shared inputs, a constant), every member's ports as outputs
        // with one repeated.
        let mut g = PrimGraph::new();
        let mut add = |kind, inputs: Vec<PortRef>| g.add(kind, inputs).unwrap();
        let x = add(
            PrimKind::Input {
                shape: vec![1, 2, 4, 4],
            },
            vec![],
        );
        let w = add(
            PrimKind::Constant {
                shape: vec![1, 2, 4, 4],
                init: ConstInit::Random(3),
            },
            vec![],
        );
        let t = add(
            PrimKind::Layout(LayoutFn::Transpose {
                perm: vec![0, 1, 3, 2],
            }),
            vec![x.into()],
        );
        let m = add(
            PrimKind::Linear(LinearFn::MatMul {
                spec: MatMulSpec::new(),
            }),
            vec![t.into(), w.into()],
        );
        let e = add(
            PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp)),
            vec![m.into()],
        );
        let r = add(
            PrimKind::Reduce {
                kind: ReduceKind::Sum,
                axis: 3,
            },
            vec![e.into()],
        );
        let b = add(PrimKind::Broadcast { axis: 3, size: 4 }, vec![r.into()]);
        let d = add(
            PrimKind::Elementwise(EwFn::Binary(BinaryOp::Div)),
            vec![e.into(), b.into()],
        );
        let z = add(
            PrimKind::Layout(LayoutFn::Resize {
                out_h: 8,
                out_w: 8,
                mode: korch_tensor::ResizeMode::Nearest,
            }),
            vec![d.into()],
        );
        let p = add(
            PrimKind::Layout(LayoutFn::Pad {
                before: vec![0, 0, 1, 1],
                after: vec![0, 0, 1, 1],
                value: 0.0,
            }),
            vec![z.into()],
        );
        let s = add(
            PrimKind::Layout(LayoutFn::Reshape {
                shape: vec![2, 100],
            }),
            vec![p.into()],
        );
        let nodes: Vec<NodeId> = g.iter().map(|(id, _)| id).collect();
        assert_eq!(nodes.last(), Some(&s));
        for mask in 1u32..(1 << nodes.len()) {
            let set: BTreeSet<NodeId> = (0..nodes.len())
                .filter(|i| mask & 1 << i != 0)
                .map(|i| nodes[i])
                .collect();
            let members: Vec<NodeId> = set.iter().copied().collect();
            let member = member_spec(&g, &members);
            assert_eq!(member.output_bytes, 0);
            for &o in &members {
                let outputs = [o.into(), members[0].into(), o.into()];
                let expect = reference_spec(&g, &set, &outputs);
                assert_eq!(kernel_spec(&g, &set, &outputs), expect, "{members:?}");
                let bytes = output_bytes(&g, &members, &outputs);
                assert_eq!(bytes, expect.output_bytes);
            }
        }
    }

    #[test]
    #[should_panic(expected = "not produced by a member")]
    fn output_of_a_non_member_is_refused() {
        let (g, n) = softmax_graph();
        output_bytes(&g, &[n[1], n[2]], &[n[4].into()]);
    }

    #[test]
    fn shared_input_counted_once() {
        // exp output feeds both reduce and div; when the kernel contains
        // only {broadcast, div}, exp output enters twice by port but the
        // tensor bytes of distinct ports are counted per port.
        let (g, n) = softmax_graph();
        let members: BTreeSet<NodeId> = [n[3], n[4]].into_iter().collect();
        let spec = kernel_spec(&g, &members, &[n[4].into()]);
        // inputs: exp output (64 elems) once + reduce output (4 elems)
        assert_eq!(spec.input_bytes, (64 + 4) * 4);
    }

    #[test]
    fn matmul_shape_extraction() {
        let mut g = PrimGraph::new();
        let a = g
            .add(PrimKind::Input { shape: vec![8, 32] }, vec![])
            .unwrap();
        let b = g
            .add(
                PrimKind::Constant {
                    shape: vec![32, 4],
                    init: ConstInit::Random(0),
                },
                vec![],
            )
            .unwrap();
        let mm = g
            .add(
                PrimKind::Linear(korch_ir::LinearFn::MatMul {
                    spec: MatMulSpec::new(),
                }),
                vec![a.into(), b.into()],
            )
            .unwrap();
        g.mark_output(mm).unwrap();
        let members: BTreeSet<NodeId> = [mm].into_iter().collect();
        let spec = kernel_spec(&g, &members, &[mm.into()]);
        assert!(spec.is_compute_intensive());
        assert_eq!(
            spec.linear,
            vec![GemmShape {
                batch: 1,
                m: 8,
                n: 4,
                k: 32,
                mr_rows: 8
            }]
        );
        assert_eq!(spec.linear[0].flops(), 2 * 8 * 4 * 32);
        // inputs: a (8*32) + weight (32*4)
        assert_eq!(spec.input_bytes, (256 + 128) * 4);
    }

    #[test]
    fn transpose_flags_swap_gemm_dims() {
        let mut g = PrimGraph::new();
        let a = g
            .add(PrimKind::Input { shape: vec![32, 8] }, vec![])
            .unwrap();
        let b = g
            .add(PrimKind::Input { shape: vec![32, 4] }, vec![])
            .unwrap();
        let mm = g
            .add(
                PrimKind::Linear(korch_ir::LinearFn::MatMul {
                    spec: MatMulSpec {
                        trans_a: true,
                        trans_b: false,
                    },
                }),
                vec![a.into(), b.into()],
            )
            .unwrap();
        g.mark_output(mm).unwrap();
        let members: BTreeSet<NodeId> = [mm].into_iter().collect();
        let spec = kernel_spec(&g, &members, &[mm.into()]);
        assert_eq!(
            spec.linear[0],
            GemmShape {
                batch: 1,
                m: 8,
                n: 4,
                k: 32,
                mr_rows: 8
            }
        );
    }

    /// Spec of a kernel holding one conv of `x` with a constant weight.
    fn conv_spec(x: Vec<usize>, w: Vec<usize>, padding: usize, groups: usize) -> KernelSpec {
        let mut g = PrimGraph::new();
        let x = g.add(PrimKind::Input { shape: x }, vec![]).unwrap();
        let w = g
            .add(
                PrimKind::Constant {
                    shape: w,
                    init: ConstInit::Random(0),
                },
                vec![],
            )
            .unwrap();
        let c = g
            .add(
                PrimKind::Linear(korch_ir::LinearFn::Conv2d {
                    stride: 1,
                    padding,
                    groups,
                }),
                vec![x.into(), w.into()],
            )
            .unwrap();
        g.mark_output(c).unwrap();
        kernel_spec(&g, &[c].into_iter().collect(), &[c.into()])
    }

    #[test]
    fn conv_maps_to_implicit_gemm() {
        let spec = conv_spec(vec![2, 8, 16, 16], vec![32, 8, 3, 3], 1, 1);
        assert_eq!(
            spec.linear[0],
            GemmShape {
                batch: 1,
                m: 2 * 16 * 16,
                n: 32,
                k: 8 * 9,
                mr_rows: 32
            }
        );
    }

    #[test]
    fn conv_class_follows_output_channels_per_group() {
        // The microkernel groups a conv's output channels, not its
        // N·OH·OW positions: a depthwise conv has one row per group and
        // runs row-at-a-time however large the image; the Segformer
        // decoder's 64→32 fuse conv fills MR-high groups.
        let depthwise = conv_spec(vec![1, 64, 16, 16], vec![64, 1, 3, 3], 1, 64);
        assert_eq!(depthwise.linear[0].m, 256);
        assert_eq!(depthwise.class(), KernelClass::GemmSkinny);
        let fuse = conv_spec(vec![1, 64, 16, 16], vec![32, 64, 1, 1], 0, 1);
        assert_eq!(fuse.class(), KernelClass::GemmBlocked);
    }

    #[test]
    fn pattern_classes_counted_distinctly() {
        let mut g = PrimGraph::new();
        let x = g
            .add(
                PrimKind::Input {
                    shape: vec![1, 2, 4, 4],
                },
                vec![],
            )
            .unwrap();
        let t = g
            .add(
                PrimKind::Layout(korch_ir::LayoutFn::Transpose {
                    perm: vec![0, 1, 3, 2],
                }),
                vec![x.into()],
            )
            .unwrap();
        let r = g
            .add(
                PrimKind::Layout(korch_ir::LayoutFn::Resize {
                    out_h: 8,
                    out_w: 8,
                    mode: korch_tensor::ResizeMode::Nearest,
                }),
                vec![t.into()],
            )
            .unwrap();
        let p = g
            .add(
                PrimKind::Layout(korch_ir::LayoutFn::Pad {
                    before: vec![0, 0, 1, 1],
                    after: vec![0, 0, 1, 1],
                    value: 0.0,
                }),
                vec![r.into()],
            )
            .unwrap();
        g.mark_output(p).unwrap();
        let members: BTreeSet<NodeId> = [t, r, p].into_iter().collect();
        let spec = kernel_spec(&g, &members, &[p.into()]);
        assert_eq!(spec.pattern_classes, 3);
        // reshape-only kernel has zero classes
        let members: BTreeSet<NodeId> = [t].into_iter().collect();
        let spec = kernel_spec(&g, &members, &[t.into()]);
        assert_eq!(spec.pattern_classes, 1);
    }
}
