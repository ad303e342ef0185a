//! Kernel bodies: what one kernel computes, lowered once in
//! `PlanExecutor::new` so a run only indexes vectors.

use super::{not_materialized, TileBodyKind};
use crate::arena::Placer;
use korch_exec::{eval_prim_into, prim_tilability, CompiledChain, ExecError};
use korch_ir::{LayoutFn, LinearFn, NodeId, PortRef, PrimGraph, PrimKind};
use korch_tensor::{MatMulSpec, PackedB, Tensor, TensorError};
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// Where a walk step's operand comes from — `execute_plan`'s rule: the
/// value of an in-kernel non-source producer is local, everything else
/// (source members included) is read from materialized memory.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Operand {
    /// The `i`-th entry of the kernel's reads.
    Read(usize),
    /// The output port of an earlier step, in the walk's buffer `b`.
    Local(usize),
}

/// A walk step's port, as (step, port).
type StepPort = (usize, usize);

/// One non-source member of a walk body.
pub(super) struct Step {
    node: NodeId,
    operands: Vec<Operand>,
    /// The walk buffer each output port lives in, in port order.
    dests: Vec<usize>,
    /// The shape of each output port.
    shapes: Vec<Vec<usize>>,
    /// The step is a `Reshape` of a local that dies at it: it relabels
    /// that local's buffer (`dests[0]`) instead of copying it.
    relabels: bool,
}

/// A walk body: every non-source member in ascending (= topological)
/// order, each evaluated by [`eval_prim_into`] into buffers the run
/// already owns, one per output port. The walk's buffers are its
/// exports, one per distinct exported port, then its locals, placed at
/// compile by step: a dead local's buffer goes to the next local of its
/// size.
pub(super) struct Walk {
    steps: Vec<Step>,
    /// Per distinct exported port, in first-listing order, the kernel
    /// output that lists it first: export buffer `e` is output
    /// `firsts[e]`'s, and a port listed again is published once.
    pub(super) firsts: Vec<usize>,
    /// Element count of each local buffer, the walk's buffers after the
    /// exports.
    pub(super) locals: Vec<usize>,
}

/// The body of one kernel. `Chain` and `Prim` are the *range* bodies:
/// they export exactly one port and evaluate any grain-aligned flat range
/// of it, so a whole kernel is the range `0..total` and a decomposed
/// kernel is one range per tile — the same call either way. Their
/// `operands` index the kernel's reads in the order the body consumes
/// them.
pub(super) enum KernelBody {
    /// The general body: any member mix, any number of outputs, full
    /// range only (see [`Walk`]).
    Walk(Walk),
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
        Walk::compile(g, members, reads, outputs).map(KernelBody::Walk)
    }

    /// How tiles of this body evaluate their ranges, and the split grain
    /// in flat output elements; `None` for walk bodies, which never tile.
    pub(super) fn tile_kind(&self, g: &PrimGraph) -> Option<(TileBodyKind, usize)> {
        match self {
            KernelBody::Walk(_) => None,
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
    /// Panics on a walk body: those run through [`Walk::run`].
    pub(super) fn run(
        &self,
        g: &PrimGraph,
        range: Range<usize>,
        prepared: &Prepared,
        out: &mut [f32],
    ) -> Result<(), ExecError> {
        match self {
            KernelBody::Walk(_) => unreachable!("walk bodies are never given a range"),
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
}

impl Walk {
    fn compile(
        g: &PrimGraph,
        members: &[NodeId],
        reads: &[PortRef],
        outputs: &[PortRef],
    ) -> Result<Self, ExecError> {
        let read_index = |p: &PortRef| reads.iter().position(|r| r == p).ok_or(not_materialized(p));
        let nodes: Vec<NodeId> = non_source(g, members).collect();
        let step_of: HashMap<NodeId, usize> =
            nodes.iter().enumerate().map(|(i, &m)| (m, i)).collect();
        let local = |p: &PortRef| step_of.get(&p.node).map(|&step| (step, p.port));
        // One export buffer per distinct exported port.
        let (mut exported, mut firsts): (Vec<StepPort>, Vec<usize>) = (Vec::new(), Vec::new());
        for (i, o) in outputs.iter().enumerate() {
            let port = local(o).ok_or(not_materialized(o))?;
            if !exported.contains(&port) {
                exported.push(port);
                firsts.push(i);
            }
        }
        let export_of = |port: StepPort| exported.iter().position(|&p| p == port);
        // Per port, the last step that reads it (its own step when none
        // does): the step after it may reuse its buffer.
        let mut last_reader: HashMap<StepPort, usize> = HashMap::new();
        for (i, &m) in nodes.iter().enumerate() {
            for port in g.node(m).inputs.iter().filter_map(local) {
                last_reader.insert(port, i);
            }
        }
        let dies = |port: StepPort| last_reader.get(&port).copied().unwrap_or(port.0);
        let (mut placer, n) = (Placer::default(), exported.len());
        let mut steps: Vec<Step> = Vec::with_capacity(nodes.len());
        for (i, &m) in nodes.iter().enumerate() {
            let node = g.node(m);
            let operands: Vec<Operand> = (node.inputs.iter())
                .map(|r| match local(r) {
                    Some((step, port)) => Ok(Operand::Local(steps[step].dests[port])),
                    None => read_index(r).map(Operand::Read),
                })
                .collect::<Result<_, _>>()?;
            // The local an unexported `Reshape` takes over: its operand,
            // unexported and dying here.
            let taken = match (&node.kind, node.inputs.as_slice()) {
                (PrimKind::Layout(LayoutFn::Reshape { .. }), [r])
                    if export_of((i, 0)).is_none() =>
                {
                    local(r).filter(|&port| export_of(port).is_none() && dies(port) == i)
                }
                _ => None,
            };
            let shapes: Vec<Vec<usize>> = (node.out_metas.iter())
                .map(|t| t.shape().to_vec())
                .collect();
            let dests = match taken {
                Some((step, port)) => {
                    let b = steps[step].dests[port];
                    placer.extend(b - n, [dies((i, 0))]);
                    vec![b]
                }
                None => (shapes.iter().enumerate())
                    .map(|(port, shape)| match export_of((i, port)) {
                        Some(e) => e,
                        None => {
                            let frees = vec![dies((i, port))];
                            n + placer.place(shape.iter().product(), i, frees, |at, r| r < at)
                        }
                    })
                    .collect(),
            };
            steps.push(Step {
                node: m,
                operands,
                dests,
                shapes,
                relabels: taken.is_some(),
            });
        }
        Ok(Walk {
            steps,
            firsts,
            locals: placer.sizes,
        })
    }

    /// Runs the walk whole on one run's `prepared` reads in `bufs`, its
    /// buffers ([`Walk::firsts`], then [`Walk::locals`]), each of its size
    /// and any shape. Their contents are unspecified: every step writes
    /// all of its outputs before anything reads them, and shapes each
    /// buffer it writes. On success and on failure alike every buffer is
    /// back in its place.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when a primitive rejects its operands or has
    /// no interpreter.
    pub(super) fn run(
        &self,
        g: &PrimGraph,
        prepared: &Prepared,
        bufs: &mut [Option<Tensor>],
    ) -> Result<(), ExecError> {
        // The outputs of the step in flight, out of their places.
        let mut outs = Vec::new();
        for step in &self.steps {
            step.run(g, &prepared.reads, bufs, &mut outs)?;
        }
        Ok(())
    }
}

impl Step {
    /// Evaluates the step into its output buffers, taken out of their
    /// places into `outs` while it writes them and put back after.
    fn run(
        &self,
        g: &PrimGraph,
        reads: &[Arc<Tensor>],
        bufs: &mut [Option<Tensor>],
        outs: &mut Vec<Tensor>,
    ) -> Result<(), ExecError> {
        if self.relabels {
            let t = bufs[self.dests[0]]
                .as_mut()
                .expect("written by the step it reshapes");
            return (t.set_shape(&self.shapes[0]))
                .map_err(|source| tensor_error(self.node, source));
        }
        for (&b, shape) in self.dests.iter().zip(&self.shapes) {
            let mut t = bufs[b].take().expect("every buffer is in its place");
            t.set_shape(shape).expect("placed in a buffer of its size");
            outs.push(t);
        }
        let written = self.write(&g.node(self.node).kind, reads, bufs, outs);
        for (&b, t) in self.dests.iter().zip(outs.drain(..)) {
            bufs[b] = Some(t);
        }
        written
    }

    /// Evaluates the step's primitive on its operands into `outs`.
    fn write(
        &self,
        kind: &PrimKind,
        reads: &[Arc<Tensor>],
        bufs: &[Option<Tensor>],
        outs: &mut [Tensor],
    ) -> Result<(), ExecError> {
        let get = |op: &Operand| match *op {
            Operand::Read(i) => &*reads[i],
            Operand::Local(b) => bufs[b].as_ref().expect("written by an earlier step"),
        };
        let node = self.node.0;
        match self.operands.as_slice() {
            [x] => eval_prim_into(kind, &[get(x)], outs, node),
            [x, y] => eval_prim_into(kind, &[get(x), get(y)], outs, node),
            all => eval_prim_into(kind, &all.iter().map(get).collect::<Vec<_>>(), outs, node),
        }
    }
}
