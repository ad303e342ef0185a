//! Kernel bodies: what one kernel computes, lowered once in
//! `PlanExecutor::new` so a run only indexes vectors.

use super::{not_materialized, TileBodyKind};
use korch_exec::{eval_prim, prim_tilability, CompiledChain, ExecError};
use korch_ir::{LayoutFn, LinearFn, NodeId, PortRef, PrimGraph, PrimKind};
use korch_tensor::{MatMulSpec, PackedB, Tensor, TensorError};
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// Where a walk step's operand comes from — `execute_plan`'s rule: the
/// value of an in-kernel non-source producer is local, everything else
/// (source members included) is read from materialized memory.
enum Operand {
    /// The `i`-th entry of the kernel's reads.
    Read(usize),
    /// Output `port` of an earlier step of the same kernel.
    Local { step: usize, port: usize },
}

/// One non-source member of a walk body.
pub(super) struct Step {
    node: NodeId,
    operands: Vec<Operand>,
    /// Steps (this one included) whose outputs nothing reads after this
    /// step and the kernel does not export: the walk drops them here.
    dead_after: Vec<usize>,
}

/// The body of one kernel. `Chain` and `Prim` are the *range* bodies:
/// they export exactly one port and evaluate any grain-aligned flat range
/// of it, so a whole kernel is the range `0..total` and a decomposed
/// kernel is one range per tile — the same call either way. Their
/// `operands` index the kernel's reads in the order the body consumes
/// them.
pub(super) enum KernelBody {
    /// Every non-source member in ascending (= topological) order,
    /// evaluated whole with `eval_prim` — the interpreter's arithmetic in
    /// the interpreter's order. `exports[i]` is the `(step, port)`
    /// holding the kernel's `i`-th output. The general body: any member
    /// mix, any number of outputs, full range only. A step's outputs
    /// live until their last in-kernel reader, not until the kernel
    /// ends, so a long row-wise kernel keeps a few cache-hot blocks in
    /// flight instead of one per member.
    Walk {
        steps: Vec<Step>,
        exports: Vec<(usize, usize)>,
    },
    /// A fused elementwise chain (down to a single member) compiled to a
    /// register program that applies the interpreter's tile kernels in
    /// member order per output element.
    Chain {
        chain: CompiledChain,
        operands: Vec<usize>,
    },
    /// One tilable non-elementwise primitive (matmul, reduce, broadcast)
    /// exporting its port 0. Matmul contracts row ranges against a right
    /// operand packed once per run ([`Prepared`]) — a pure loop
    /// interchange of the naive contraction (ascending-`k` accumulation
    /// from `0.0`, same zero-skip), so still bit-identical.
    Prim { node: NodeId, operands: Vec<usize> },
}

/// A kernel's operands for one run: its reads snapshotted from the value
/// slots, plus a matmul body's spec and packed right operand (zero-copy
/// unless transposed). Built once per kernel per run and shared
/// read-only by all of a decomposed kernel's tiles.
pub(super) struct Prepared {
    reads: Vec<Arc<Tensor>>,
    packed: Option<(MatMulSpec, PackedB)>,
}

fn tensor_error(node: NodeId, source: TensorError) -> ExecError {
    ExecError::Tensor {
        node: node.0,
        source,
    }
}

fn non_source<'a>(g: &'a PrimGraph, members: &'a [NodeId]) -> impl Iterator<Item = NodeId> + 'a {
    members
        .iter()
        .copied()
        .filter(|&m| !g.node(m).kind.is_source())
}

/// The distinct ports a kernel over `members` reads from materialized
/// memory, in port order.
pub(super) fn kernel_reads(g: &PrimGraph, members: &[NodeId]) -> Vec<PortRef> {
    let local: BTreeSet<NodeId> = non_source(g, members).collect();
    let mut reads = BTreeSet::new();
    for &m in &local {
        for r in &g.node(m).inputs {
            if !local.contains(&r.node) {
                reads.insert(*r);
            }
        }
    }
    reads.into_iter().collect()
}

impl KernelBody {
    /// Lowers the kernel over `members` (ascending) exporting `outputs`.
    /// `reads` is [`kernel_reads`] of the same members.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::NotMaterialized`] for an operand or output
    /// port nothing in reach produces.
    pub(super) fn compile(
        g: &PrimGraph,
        members: &[NodeId],
        reads: &[PortRef],
        outputs: &[PortRef],
    ) -> Result<Self, ExecError> {
        let read_index = |p: &PortRef| reads.iter().position(|r| r == p).ok_or(not_materialized(p));
        if let [out] = outputs {
            if let Some((chain, ports)) = CompiledChain::compile(g, members, *out) {
                let operands = ports.iter().map(read_index).collect::<Result<_, _>>()?;
                return Ok(KernelBody::Chain { chain, operands });
            }
            let mut body = non_source(g, members);
            if let (Some(m), None) = (body.next(), body.next()) {
                let (kind, meta) = (&g.node(m).kind, g.meta(*out));
                let tilable = prim_tilability(kind, meta.shape()).grain().is_some()
                    && !matches!(kind, PrimKind::Elementwise(_));
                if tilable && *out == PortRef::from(m) && meta.numel() > 0 {
                    let inputs = &g.node(m).inputs;
                    let operands = inputs.iter().map(read_index).collect::<Result<_, _>>()?;
                    return Ok(KernelBody::Prim { node: m, operands });
                }
            }
        }
        let step_of: HashMap<NodeId, usize> = non_source(g, members)
            .enumerate()
            .map(|(i, m)| (m, i))
            .collect();
        let local = |p: &PortRef| step_of.get(&p.node).map(|&step| (step, p.port));
        let mut steps: Vec<Step> = Vec::with_capacity(step_of.len());
        // Per step, the last step that reads any of its ports.
        let mut last_reader: Vec<usize> = (0..step_of.len()).collect();
        for (i, m) in non_source(g, members).enumerate() {
            let operands = g
                .node(m)
                .inputs
                .iter()
                .map(|r| match local(r) {
                    Some((step, port)) => {
                        last_reader[step] = i;
                        Ok(Operand::Local { step, port })
                    }
                    None => read_index(r).map(Operand::Read),
                })
                .collect::<Result<_, _>>()?;
            steps.push(Step {
                node: m,
                operands,
                dead_after: Vec::new(),
            });
        }
        let exports: Vec<(usize, usize)> = outputs
            .iter()
            .map(|o| local(o).ok_or(not_materialized(o)))
            .collect::<Result<_, _>>()?;
        for (step, &last) in last_reader.iter().enumerate() {
            if !exports.iter().any(|&(e, _)| e == step) {
                steps[last].dead_after.push(step);
            }
        }
        Ok(KernelBody::Walk { steps, exports })
    }

    /// How tiles of this body evaluate their ranges, and the split grain
    /// in flat output elements; `None` for walk bodies, which never tile.
    pub(super) fn tile_kind(&self, g: &PrimGraph) -> Option<(TileBodyKind, usize)> {
        match self {
            KernelBody::Walk { .. } => None,
            KernelBody::Chain { .. } => Some((TileBodyKind::ElementwiseChain, 1)),
            KernelBody::Prim { node, .. } => {
                let shape = g.meta(PortRef::from(*node)).shape();
                let grain = prim_tilability(&g.node(*node).kind, shape).grain()?;
                Some((TileBodyKind::Single(*node), grain))
            }
        }
    }

    /// Binds this body to one run's `reads` (the kernel's reads, in
    /// order), packing a matmul's right operand.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Tensor`] when the right operand cannot pack.
    pub(super) fn prepare(
        &self,
        g: &PrimGraph,
        reads: Vec<Arc<Tensor>>,
    ) -> Result<Prepared, ExecError> {
        let packed = match self {
            KernelBody::Prim { node, operands } => match &g.node(*node).kind {
                PrimKind::Linear(LinearFn::MatMul { spec }) => {
                    let packed = PackedB::pack(&reads[operands[1]], spec.trans_b)
                        .map_err(|source| tensor_error(*node, source))?;
                    Some((*spec, packed))
                }
                _ => None,
            },
            _ => None,
        };
        Ok(Prepared { reads, packed })
    }

    /// Evaluates the flat output `range` of a range body into `out`
    /// (`out.len() == range.len()`), bit-identically to the same elements
    /// of the whole-kernel interpretation.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when a tile kernel rejects its operands.
    ///
    /// # Panics
    ///
    /// Panics on a walk body: those run through [`KernelBody::walk`].
    pub(super) fn run(
        &self,
        g: &PrimGraph,
        range: Range<usize>,
        prepared: &Prepared,
        out: &mut [f32],
    ) -> Result<(), ExecError> {
        match self {
            KernelBody::Walk { .. } => unreachable!("walk bodies are never given a range"),
            KernelBody::Chain { chain, operands } => {
                // Every chain operand has the output's shape, so `range`
                // is in bounds for all of them.
                let slices: Vec<&[f32]> = operands
                    .iter()
                    .map(|&i| &prepared.reads[i].as_slice()[range.clone()])
                    .collect();
                chain.run(&slices, out)
            }
            KernelBody::Prim { node, operands } => {
                let x = &prepared.reads[operands[0]];
                match (&g.node(*node).kind, &prepared.packed) {
                    (PrimKind::Reduce { kind, axis }, _) => x.reduce_tile(*axis, *kind, range, out),
                    (PrimKind::Broadcast { axis, size }, _) => {
                        x.broadcast_tile(*axis, *size, range, out)
                    }
                    (_, Some((spec, packed))) => {
                        let n = packed.n().max(1);
                        let rows = range.start / n..range.end / n;
                        let rhs = &prepared.reads[operands[1]];
                        x.matmul_rows_packed(rhs, packed, *spec, rows, out)
                    }
                    (kind, None) => unreachable!("{kind:?} is not a prim body"),
                }
                .map_err(|source| tensor_error(*node, source))
            }
        }
    }

    /// Evaluates a walk body whole and returns its exports, in export
    /// order — each the very buffer its step wrote, moved out (cloned only
    /// for a `(step, port)` that is exported again later). Steps drop
    /// their outputs where they die on the way; a `Reshape` of a local
    /// that dies at it takes the buffer instead of copying it (the same
    /// values either way).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when a primitive rejects its operands or has
    /// no interpreter.
    pub(super) fn walk(
        steps: &[Step],
        exports: &[(usize, usize)],
        g: &PrimGraph,
        prepared: &Prepared,
    ) -> Result<Vec<Tensor>, ExecError> {
        let mut locals: Vec<Vec<Tensor>> = Vec::with_capacity(steps.len());
        for step in steps {
            let kind = &g.node(step.node).kind;
            let outs = match (kind, step.operands.as_slice()) {
                (
                    PrimKind::Layout(LayoutFn::Reshape { shape }),
                    &[Operand::Local { step: from, port }],
                ) if step.dead_after.contains(&from) => {
                    let taken = locals[from].swap_remove(port);
                    let reshaped = taken.into_shape(shape.clone());
                    vec![reshaped.map_err(|source| tensor_error(step.node, source))?]
                }
                _ => {
                    let ins: Vec<&Tensor> = step
                        .operands
                        .iter()
                        .map(|op| match *op {
                            Operand::Read(i) => prepared.reads[i].as_ref(),
                            Operand::Local { step, port } => &locals[step][port],
                        })
                        .collect();
                    eval_prim(kind, &ins, step.node.0)?
                }
            };
            locals.push(outs);
            for &dead in &step.dead_after {
                locals[dead] = Vec::new();
            }
        }
        let export = |(i, &(step, port)): (usize, &(usize, usize))| {
            if exports[i + 1..].contains(&(step, port)) {
                locals[step][port].clone()
            } else {
                std::mem::take(&mut locals[step][port])
            }
        };
        Ok(exports.iter().enumerate().map(export).collect())
    }
}
