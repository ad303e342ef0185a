//! Kernel bodies: what one kernel computes, lowered once in
//! `PlanExecutor::new` so a run only indexes vectors.

use super::{not_materialized, TileBodyKind};
use crate::arena::BufferArena;
use korch_exec::{
    eval_prim, eval_prim_into, evaluates_into, prim_tilability, CompiledChain, ExecError,
};
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
    /// Output `port` of the earlier step whose output lives at the `Dest`.
    Local(Dest, usize),
}

/// Where a walk step's output lives during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Dest {
    /// Buffer `b` of the lane's scratch: a local, written in place.
    Scratch(usize),
    /// The walk's `e`-th export buffer, taken from the arena pool.
    Export(usize),
    /// Cell `c`: the tensors `eval_prim` allocated.
    Owned(usize),
}

/// One non-source member of a walk body.
pub(super) struct Step {
    node: NodeId,
    operands: Vec<Operand>,
    dest: Dest,
    /// A `Reshape` of a local that dies at it: the step relabels that
    /// local's buffer (`dest` is the buffer or a cell of its own taking
    /// the tensor) instead of copying it.
    alias: bool,
    /// The output shape of a step that writes into a buffer.
    shape: Vec<usize>,
    /// Bytes `eval_prim` allocates for an `Owned` step (0 for an alias).
    fresh: u64,
    /// Cells whose outputs nothing reads after this step and the kernel
    /// does not export: the walk drops them here.
    dead_after: Vec<usize>,
}

/// A walk body: every non-source member in ascending (= topological)
/// order. A step with an into-slice kernel ([`evaluates_into`]) writes
/// into a buffer the run already owns — a local into the lane's scratch
/// (placed at compile by lifetime: a dead local's buffer goes to the next
/// local of its size), an export into a buffer taken from the arena
/// pool — with exactly the arithmetic of `eval_prim`. Any other step
/// calls `eval_prim` and keeps what it allocated. `exports[i]` is where
/// the kernel's `i`-th output lives, and its port.
pub(super) struct Walk {
    steps: Vec<Step>,
    exports: Vec<(Dest, usize)>,
    /// Export buffers a run takes.
    bufs: usize,
    /// Cells of `eval_prim` outputs a run fills.
    cells: usize,
}

/// Places walk locals in the lane scratch while kernels compile: `sizes`
/// are the scratch buffers (`f32` elements), `free` the ones no live
/// local of the kernel being compiled holds, by size. Every kernel starts
/// with all of them free — its locals die before it ends — so walks share
/// buffers, and a buffer is added only when one walk needs more of a size
/// alive at once than any walk before it.
#[derive(Default)]
pub(super) struct ScratchPlan {
    pub(super) sizes: Vec<usize>,
    free: HashMap<usize, Vec<usize>>,
}

impl ScratchPlan {
    /// Frees every buffer for the next kernel.
    fn start_kernel(&mut self) {
        self.free.clear();
        for (b, &n) in self.sizes.iter().enumerate().rev() {
            self.free.entry(n).or_default().push(b);
        }
    }

    fn take(&mut self, numel: usize) -> usize {
        match self.free.get_mut(&numel).and_then(Vec::pop) {
            Some(b) => b,
            None => {
                self.sizes.push(numel);
                self.sizes.len() - 1
            }
        }
    }

    fn give(&mut self, b: usize) {
        self.free.entry(self.sizes[b]).or_default().push(b);
    }
}

/// A walk's locals during one run.
struct Locals<'s> {
    scratch: &'s mut [Option<Tensor>],
    bufs: Vec<Option<Tensor>>,
    cells: Vec<Vec<Tensor>>,
}

impl Locals<'_> {
    fn get<'a>(&'a self, op: Operand, reads: &'a [Arc<Tensor>]) -> &'a Tensor {
        let written = "written by an earlier step";
        match op {
            Operand::Read(i) => &reads[i],
            Operand::Local(Dest::Scratch(b), _) => self.scratch[b].as_ref().expect(written),
            Operand::Local(Dest::Export(e), _) => self.bufs[e].as_ref().expect(written),
            Operand::Local(Dest::Owned(cell), port) => &self.cells[cell][port],
        }
    }
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
    /// `reads` is [`kernel_reads`] of the same members; a walk places its
    /// locals in `scratch`.
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
        scratch: &mut ScratchPlan,
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
        Walk::compile(g, members, reads, outputs, scratch).map(KernelBody::Walk)
    }

    /// Whether the body's `i`-th output is a buffer `eval_prim` allocated,
    /// moved into its slot rather than taken from the pool.
    pub(super) fn moves_export(&self, i: usize) -> bool {
        matches!(self, KernelBody::Walk(w) if matches!(w.exports[i].0, Dest::Owned(_)))
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
        scratch: &mut ScratchPlan,
    ) -> Result<Self, ExecError> {
        let read_index = |p: &PortRef| reads.iter().position(|r| r == p).ok_or(not_materialized(p));
        let nodes: Vec<NodeId> = non_source(g, members).collect();
        let step_of: HashMap<NodeId, usize> =
            nodes.iter().enumerate().map(|(i, &m)| (m, i)).collect();
        let local = |p: &PortRef| step_of.get(&p.node).map(|&step| (step, p.port));
        let exported: Vec<(usize, usize)> = outputs
            .iter()
            .map(|o| local(o).ok_or(not_materialized(o)))
            .collect::<Result<_, _>>()?;
        let is_export = |step: usize| exported.iter().any(|&(e, _)| e == step);
        // Per step, the last step that reads any of its ports; per step,
        // the unexported locals that die there.
        let mut last_reader: Vec<usize> = (0..nodes.len()).collect();
        for (i, &m) in nodes.iter().enumerate() {
            for r in &g.node(m).inputs {
                if let Some((step, _)) = local(r) {
                    last_reader[step] = i;
                }
            }
        }
        let mut dies_at: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (step, &last) in last_reader.iter().enumerate() {
            if !is_export(step) {
                dies_at[last].push(step);
            }
        }
        scratch.start_kernel();
        let (mut bufs, mut cells) = (0, 0);
        let mut steps: Vec<Step> = Vec::with_capacity(nodes.len());
        for (i, &m) in nodes.iter().enumerate() {
            let node = g.node(m);
            let operands: Vec<Operand> = (node.inputs.iter())
                .map(|r| match local(r) {
                    Some((step, port)) => Ok(Operand::Local(steps[step].dest, port)),
                    None => read_index(r).map(Operand::Read),
                })
                .collect::<Result<_, _>>()?;
            // The local a `Reshape` may take over: its operand, dying here.
            let dying = match (&node.kind, node.inputs.as_slice()) {
                (PrimKind::Layout(LayoutFn::Reshape { .. }), [r]) => local(r)
                    .map(|(step, _)| step)
                    .filter(|step| dies_at[i].contains(step)),
                _ => None,
            };
            let shape = g.meta(PortRef::from(m)).shape().to_vec();
            let (dest, alias) = match dying.map(|step| steps[step].dest) {
                Some(Dest::Scratch(b)) if !is_export(i) => (Dest::Scratch(b), true),
                Some(Dest::Owned(_)) => (Dest::Owned(cells), true),
                _ if evaluates_into(&node.kind) && node.out_metas.len() == 1 => {
                    if is_export(i) {
                        bufs += 1;
                        (Dest::Export(bufs - 1), false)
                    } else {
                        (Dest::Scratch(scratch.take(shape.iter().product())), false)
                    }
                }
                _ => (Dest::Owned(cells), false),
            };
            cells += usize::from(matches!(dest, Dest::Owned(_)));
            let fresh = match dest {
                Dest::Owned(_) if !alias => {
                    node.out_metas.iter().map(|t| t.byte_size() as u64).sum()
                }
                _ => 0,
            };
            steps.push(Step {
                node: m,
                operands,
                dest,
                alias,
                shape,
                fresh,
                dead_after: Vec::new(),
            });
            // The locals dying here: a cell is dropped, a buffer goes back
            // to the plan — unless this step took it over.
            for &step in dies_at[i].iter().filter(|&&s| !alias || dying != Some(s)) {
                match steps[step].dest {
                    Dest::Scratch(b) => scratch.give(b),
                    Dest::Owned(c) => steps[i].dead_after.push(c),
                    Dest::Export(_) => unreachable!("an export never dies in its walk"),
                }
            }
        }
        let exports = (exported.iter())
            .map(|&(step, port)| (steps[step].dest, port))
            .collect();
        Ok(Walk {
            steps,
            exports,
            bufs,
            cells,
        })
    }

    /// Runs the walk whole on one run's `prepared` reads, its locals in
    /// the lane's `scratch` (whose contents are unspecified: every step
    /// writes all of its output before anything reads it), and returns
    /// its exports in output order. An export a step wrote into is a pool
    /// buffer the caller books; one listed again is copied into another
    /// for the earlier listing (cloned, for an `eval_prim` output).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when a primitive rejects its operands or has
    /// no interpreter; the export buffers taken so far go back to the
    /// pool.
    pub(super) fn run(
        &self,
        g: &PrimGraph,
        prepared: &Prepared,
        scratch: &mut [Option<Tensor>],
        arena: &BufferArena,
    ) -> Result<Vec<Tensor>, ExecError> {
        let mut locals = Locals {
            scratch,
            bufs: (0..self.bufs).map(|_| None).collect(),
            cells: (0..self.cells).map(|_| Vec::new()).collect(),
        };
        for step in &self.steps {
            if let Err(e) = step.run(g, &prepared.reads, &mut locals, arena) {
                for t in locals.bufs.into_iter().flatten() {
                    arena.recycle(t.into_vec());
                }
                return Err(e);
            }
            for &c in &step.dead_after {
                locals.cells[c] = Vec::new();
            }
        }
        let mut out = Vec::with_capacity(self.exports.len());
        for (i, &(dest, port)) in self.exports.iter().enumerate() {
            let again = self.exports[i + 1..].contains(&(dest, port));
            out.push(match dest {
                Dest::Export(e) if again => {
                    let t = locals.bufs[e].as_ref().expect("written by its step");
                    let mut buf = arena.take_or_alloc(t.numel());
                    buf.copy_from_slice(t.as_slice());
                    Tensor::from_vec(t.shape().to_vec(), buf).expect("a copy of equal size")
                }
                Dest::Export(e) => locals.bufs[e].take().expect("written by its step"),
                Dest::Owned(cell) if again => {
                    let t = locals.cells[cell][port].clone();
                    arena.note_fresh(t.byte_size() as u64);
                    t
                }
                Dest::Owned(cell) => std::mem::take(&mut locals.cells[cell][port]),
                Dest::Scratch(_) => unreachable!("an exported step never writes scratch"),
            });
        }
        Ok(out)
    }
}

impl Step {
    fn run(
        &self,
        g: &PrimGraph,
        reads: &[Arc<Tensor>],
        locals: &mut Locals<'_>,
        arena: &BufferArena,
    ) -> Result<(), ExecError> {
        let kind = &g.node(self.node).kind;
        let wrap = |source| tensor_error(self.node, source);
        match (self.dest, self.alias) {
            (Dest::Scratch(b), true) => {
                let t = locals.scratch[b]
                    .as_mut()
                    .expect("written by the step it reshapes");
                t.set_shape(&self.shape).map_err(wrap)
            }
            (Dest::Owned(c), true) => {
                let (
                    &[Operand::Local(Dest::Owned(cell), port)],
                    PrimKind::Layout(LayoutFn::Reshape { shape }),
                ) = (self.operands.as_slice(), kind)
                else {
                    unreachable!("an aliasing owned step reshapes a cell");
                };
                let taken = std::mem::take(&mut locals.cells[cell]).swap_remove(port);
                locals.cells[c] = vec![taken.into_shape(shape.clone()).map_err(wrap)?];
                Ok(())
            }
            (Dest::Owned(c), false) => {
                let ins: Vec<&Tensor> = self
                    .operands
                    .iter()
                    .map(|&op| locals.get(op, reads))
                    .collect();
                let outs = eval_prim(kind, &ins, self.node.0)?;
                locals.cells[c] = outs;
                arena.note_fresh(self.fresh);
                Ok(())
            }
            (Dest::Scratch(b), false) => {
                let numel: usize = self.shape.iter().product();
                let mut out = match locals.scratch[b].take() {
                    Some(mut t) => {
                        t.set_shape(&self.shape).map_err(wrap)?;
                        t
                    }
                    // Lost to a step that panicked in an earlier run.
                    None => {
                        arena.note_fresh((numel * 4) as u64);
                        Tensor::zeros(self.shape.clone())
                    }
                };
                let written = self.write(kind, reads, locals, &mut out);
                locals.scratch[b] = Some(out);
                written
            }
            (Dest::Export(e), _) => {
                let buf = arena.take_or_alloc(self.shape.iter().product());
                let mut out =
                    Tensor::from_vec(self.shape.clone(), buf).expect("sized to the shape");
                let written = self.write(kind, reads, locals, &mut out);
                locals.bufs[e] = Some(out);
                written
            }
        }
    }

    /// Evaluates the step's into-slice kernel into `out`.
    fn write(
        &self,
        kind: &PrimKind,
        reads: &[Arc<Tensor>],
        locals: &Locals<'_>,
        out: &mut Tensor,
    ) -> Result<(), ExecError> {
        let operand = |i: usize| self.operands.get(i).map(|&op| locals.get(op, reads));
        let x = operand(0).ok_or_else(|| {
            ExecError::Input(format!("node {} expects an input, got none", self.node.0))
        })?;
        eval_prim_into(kind, x, operand(1), out, self.node.0)
    }
}
