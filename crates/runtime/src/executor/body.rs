//! Kernel bodies: what one kernel computes, lowered once in
//! `PlanExecutor::new` so a run only indexes vectors.

use super::{not_materialized, TileBodyKind};
use crate::arena::BufferArena;
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
    /// The output port of an earlier step that lives at the `Dest`.
    Local(Dest),
}

/// Where one output port of a walk step lives during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Dest {
    /// Buffer `b` of the lane's scratch: a local, written in place.
    Scratch(usize),
    /// The walk's `e`-th export buffer, taken from the arena pool.
    Export(usize),
}

impl Dest {
    /// The scratch buffer of a local that dies in its walk.
    fn scratch(self) -> usize {
        match self {
            Dest::Scratch(b) => b,
            Dest::Export(_) => unreachable!("an export never dies in its walk"),
        }
    }
}

/// A walk step's port, as (step, port).
type StepPort = (usize, usize);

/// One non-source member of a walk body.
pub(super) struct Step {
    node: NodeId,
    operands: Vec<Operand>,
    /// Where each output port lives, in port order.
    dests: Vec<Dest>,
    /// The shape of each output port.
    shapes: Vec<Vec<usize>>,
    /// The scratch buffer of a local a `Reshape` takes over because the
    /// local dies at it: the step relabels the buffer (`dests[0]`)
    /// instead of copying it.
    alias: Option<usize>,
}

/// A walk body: every non-source member in ascending (= topological)
/// order, each evaluated by [`eval_prim_into`] into buffers the run
/// already owns, one per output port — a local into the lane's scratch
/// (placed at compile by lifetime: a dead local's buffer goes to the
/// next local of its size), an export into a buffer taken from the arena
/// pool. `exports[i]` is the export buffer of the kernel's `i`-th output.
pub(super) struct Walk {
    steps: Vec<Step>,
    exports: Vec<usize>,
    /// Export buffers a run takes: one per distinct exported port.
    bufs: usize,
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
}

impl Locals<'_> {
    fn get<'a>(&'a self, op: Operand, reads: &'a [Arc<Tensor>]) -> &'a Tensor {
        let written = "written by an earlier step";
        match op {
            Operand::Read(i) => &reads[i],
            Operand::Local(Dest::Scratch(b)) => self.scratch[b].as_ref().expect(written),
            Operand::Local(Dest::Export(e)) => self.bufs[e].as_ref().expect(written),
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
        // One export buffer per distinct exported port; `exports` lists
        // each output's.
        let mut exported: Vec<StepPort> = Vec::new();
        let mut exports = Vec::with_capacity(outputs.len());
        for o in outputs {
            let port = local(o).ok_or(not_materialized(o))?;
            exports.push(match exported.iter().position(|&p| p == port) {
                Some(e) => e,
                None => {
                    exported.push(port);
                    exported.len() - 1
                }
            });
        }
        let export_of = |port: StepPort| exported.iter().position(|&p| p == port);
        // Per port, the last step that reads it (its own step when none
        // does); per step, the unexported ports that die there.
        let mut last_reader: HashMap<StepPort, usize> = HashMap::new();
        for (i, &m) in nodes.iter().enumerate() {
            for port in g.node(m).inputs.iter().filter_map(local) {
                last_reader.insert(port, i);
            }
        }
        let mut dies_at: Vec<Vec<StepPort>> = vec![Vec::new(); nodes.len()];
        for (step, &m) in nodes.iter().enumerate() {
            for port in (0..g.node(m).out_metas.len()).map(|p| (step, p)) {
                if export_of(port).is_none() {
                    dies_at[last_reader.get(&port).copied().unwrap_or(step)].push(port);
                }
            }
        }
        scratch.start_kernel();
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
            // dying here (and so in the scratch).
            let taken = match (&node.kind, node.inputs.as_slice()) {
                (PrimKind::Layout(LayoutFn::Reshape { .. }), [r])
                    if export_of((i, 0)).is_none() =>
                {
                    local(r).filter(|port| dies_at[i].contains(port))
                }
                _ => None,
            };
            let alias = taken.map(|(step, port)| steps[step].dests[port].scratch());
            let shapes: Vec<Vec<usize>> = (node.out_metas.iter())
                .map(|t| t.shape().to_vec())
                .collect();
            let dests = match alias {
                Some(b) => vec![Dest::Scratch(b)],
                None => (shapes.iter().enumerate())
                    .map(|(port, shape)| match export_of((i, port)) {
                        Some(e) => Dest::Export(e),
                        None => Dest::Scratch(scratch.take(shape.iter().product())),
                    })
                    .collect(),
            };
            steps.push(Step {
                node: m,
                operands,
                dests,
                shapes,
                alias,
            });
            // The locals dying here go back to the plan — unless this
            // step took one over.
            for &(step, port) in dies_at[i].iter().filter(|&&p| taken != Some(p)) {
                scratch.give(steps[step].dests[port].scratch());
            }
        }
        Ok(Walk {
            steps,
            exports,
            bufs: exported.len(),
        })
    }

    /// Runs the walk whole on one run's `prepared` reads, its locals in
    /// the lane's `scratch` (whose contents are unspecified: every step
    /// writes all of its outputs before anything reads them), and returns
    /// its exports in output order: pool buffers the caller books. A port
    /// listed again is copied into another pool buffer for the earlier
    /// listing.
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
        };
        // The outputs of the step in flight, out of their places.
        let mut outs = Vec::new();
        for step in &self.steps {
            if let Err(e) = step.run(g, &prepared.reads, &mut locals, &mut outs, arena) {
                for t in locals.bufs.into_iter().flatten() {
                    arena.recycle(t.into_vec());
                }
                return Err(e);
            }
        }
        let mut out = Vec::with_capacity(self.exports.len());
        for (i, &e) in self.exports.iter().enumerate() {
            out.push(if self.exports[i + 1..].contains(&e) {
                let t = locals.bufs[e].as_ref().expect("written by its step");
                let mut buf = arena.take_or_alloc(t.numel());
                buf.copy_from_slice(t.as_slice());
                Tensor::from_vec(t.shape().to_vec(), buf).expect("a copy of equal size")
            } else {
                locals.bufs[e].take().expect("written by its step")
            });
        }
        Ok(out)
    }
}

impl Step {
    /// Evaluates the step into its output buffers, taken out of their
    /// places into `outs` while it writes them and put back after.
    fn run(
        &self,
        g: &PrimGraph,
        reads: &[Arc<Tensor>],
        locals: &mut Locals<'_>,
        outs: &mut Vec<Tensor>,
        arena: &BufferArena,
    ) -> Result<(), ExecError> {
        if let Some(b) = self.alias {
            let t = locals.scratch[b]
                .as_mut()
                .expect("written by the step it reshapes");
            return (t.set_shape(&self.shapes[0]))
                .map_err(|source| tensor_error(self.node, source));
        }
        for (&dest, shape) in self.dests.iter().zip(&self.shapes) {
            outs.push(match dest {
                Dest::Scratch(b) => match locals.scratch[b].take() {
                    Some(mut t) => {
                        t.set_shape(shape).expect("placed in a buffer of its size");
                        t
                    }
                    // Lost to a step that panicked in an earlier run.
                    None => {
                        let t = Tensor::zeros(shape.clone());
                        arena.note_fresh(t.byte_size() as u64);
                        t
                    }
                },
                Dest::Export(_) => {
                    let buf = arena.take_or_alloc(shape.iter().product());
                    Tensor::from_vec(shape.clone(), buf).expect("sized to the shape")
                }
            });
        }
        let written = self.write(&g.node(self.node).kind, reads, locals, outs);
        for (&dest, t) in self.dests.iter().zip(outs.drain(..)) {
            match dest {
                Dest::Scratch(b) => locals.scratch[b] = Some(t),
                Dest::Export(e) => locals.bufs[e] = Some(t),
            }
        }
        written
    }

    /// Evaluates the step's primitive on its operands into `outs`.
    fn write(
        &self,
        kind: &PrimKind,
        reads: &[Arc<Tensor>],
        locals: &Locals<'_>,
        outs: &mut [Tensor],
    ) -> Result<(), ExecError> {
        let get = |op: &Operand| locals.get(*op, reads);
        let node = self.node.0;
        match self.operands.as_slice() {
            [x] => eval_prim_into(kind, &[get(x)], outs, node),
            [x, y] => eval_prim_into(kind, &[get(x), get(y)], outs, node),
            all => eval_prim_into(kind, &all.iter().map(get).collect::<Vec<_>>(), outs, node),
        }
    }
}
