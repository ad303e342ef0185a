//! Compiled fused elementwise chains.
//!
//! A kernel whose non-source members are all elementwise primitives with a
//! single output is a *chain*: a straight-line program over same-shaped
//! flat buffers. The interpreter walks such a kernel member by member,
//! allocating a full-size tensor per member and paying a `HashMap` lookup
//! per operand. [`CompiledChain::compile`] lowers the chain once, at
//! plan-compile time, into a register program that [`CompiledChain::run`]
//! executes over cache-sized blocks:
//!
//! - every member becomes one instruction reading operands from external
//!   inputs or virtual registers and writing one register;
//! - registers are reused once their last reader has executed, so a long
//!   chain needs a handful of 1024-element scratch blocks that stay in L1
//!   instead of N full-size intermediates streaming through memory;
//! - within each block, each instruction runs its member's tile kernel
//!   (`unary_tile`, `binary_tile`, …) — the kernels
//!   [`crate::eval_prim_into`], hence `eval_prim` and every walk step,
//!   runs over whole tensors — in member order, so every element
//!   experiences the identical sequence of `f32` operations and compiled
//!   output is bit-identical to the interpreted walk by construction. The
//!   kernel picks its op's loop once per block, not per element.
//!
//! `run` is range-agnostic: callers may evaluate the whole output or any
//! contiguous tile by slicing all external inputs with one range — every
//! input has the output's shape, so one flat range selects the same
//! elements of each. The `korch-runtime` executor runs every elementwise
//! kernel this way, a single member included.

use crate::error::ExecError;
use korch_ir::{EwFn, NodeId, PortRef, PrimGraph, PrimKind};
use korch_tensor::{binary_scalar_lhs_tile, binary_scalar_tile, binary_tile, unary_tile};
use std::collections::HashMap;

/// Block size (elements) for the register program: small enough that all
/// live registers fit in L1/L2, large enough to amortize dispatch.
const BLOCK: usize = 1024;

/// Where an instruction operand comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    /// External input `i` (position in the port list `compile` returns).
    Input(usize),
    /// Virtual register written by an earlier instruction.
    Reg(usize),
}

/// One chain member lowered to a register instruction.
#[derive(Debug, Clone)]
struct Instr {
    /// The elementwise function (cloned from the member's `PrimKind`).
    f: EwFn,
    /// Operands; the second is meaningful only for `EwFn::Binary`.
    srcs: [Operand; 2],
    /// Destination register. Never aliases this instruction's sources.
    dst: usize,
}

/// A fused elementwise chain compiled to a block-dispatched register
/// program (see the module docs for the bit-identity argument).
#[derive(Debug, Clone)]
pub struct CompiledChain {
    instrs: Vec<Instr>,
    n_inputs: usize,
    n_regs: usize,
    out_reg: usize,
}

impl CompiledChain {
    /// Compiles the chain formed by `members` of `g` producing `out_port`.
    ///
    /// Returns the program plus the external input ports, in the positional
    /// order `run` expects: the caller resolves each port to a tensor and
    /// slices all of them with one flat range. Source members (inputs and
    /// constants listed inside the kernel) count as external inputs — the
    /// executor materializes them like any other operand.
    ///
    /// Returns `None` when the kernel is not a compilable chain: some
    /// non-source member is not a single-output elementwise primitive, the
    /// members do not share one output shape, or `out_port` is not an
    /// elementwise member's port 0.
    pub fn compile(
        g: &PrimGraph,
        members: &[NodeId],
        out_port: PortRef,
    ) -> Option<(Self, Vec<PortRef>)> {
        let mut body: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|&m| !g.node(m).kind.is_source())
            .collect();
        body.sort_unstable();
        if body.is_empty() || out_port.port != 0 || !body.contains(&out_port.node) {
            return None;
        }
        let out_shape = g.meta(out_port).shape().to_vec();
        for &m in &body {
            let node = g.node(m);
            let PrimKind::Elementwise(_) = node.kind else {
                return None;
            };
            if node.out_metas.len() != 1 || node.out_metas[0].shape() != out_shape.as_slice() {
                return None;
            }
        }

        // Lower members (already topological: node ids ascend) into
        // instructions over virtual operands, collecting external inputs.
        let position: HashMap<NodeId, usize> =
            body.iter().enumerate().map(|(i, &m)| (m, i)).collect();
        let mut inputs: Vec<PortRef> = Vec::new();
        let mut input_idx: HashMap<PortRef, usize> = HashMap::new();
        // last_use[i] = index of the last instruction reading member i's value.
        let mut last_use: Vec<usize> = vec![usize::MAX; body.len()];
        let mut virt: Vec<(EwFn, [Operand; 2])> = Vec::with_capacity(body.len());
        // First pass: operands as member positions / input slots.
        #[derive(Clone, Copy)]
        enum Virt {
            Member(usize),
            Input(usize),
        }
        let mut virt_srcs: Vec<[Virt; 2]> = Vec::with_capacity(body.len());
        for (i, &m) in body.iter().enumerate() {
            let node = g.node(m);
            let PrimKind::Elementwise(f) = &node.kind else {
                unreachable!("checked above");
            };
            if node.inputs.len() != f.arity() {
                return None;
            }
            let mut srcs = [Virt::Input(0); 2];
            for (s, &port) in node.inputs.iter().enumerate() {
                srcs[s] = match position.get(&port.node) {
                    Some(&p) if port.port == 0 => {
                        last_use[p] = i;
                        Virt::Member(p)
                    }
                    _ => {
                        let next = inputs.len();
                        let idx = *input_idx.entry(port).or_insert_with(|| {
                            inputs.push(port);
                            next
                        });
                        Virt::Input(idx)
                    }
                };
            }
            virt_srcs.push(srcs);
            virt.push((f.clone(), [Operand::Input(0); 2]));
        }
        // The chain's result must stay live to the end.
        last_use[position[&out_port.node]] = usize::MAX;

        // Second pass: assign registers, reusing ones whose value died.
        // The destination is allocated *before* this instruction's dead
        // sources are freed, so `dst` never aliases a source of the same
        // instruction and in-place hazards are impossible.
        let mut reg_of: Vec<usize> = vec![usize::MAX; body.len()];
        let mut free: Vec<usize> = Vec::new();
        let mut n_regs = 0usize;
        let mut instrs: Vec<Instr> = Vec::with_capacity(body.len());
        for (i, (f, _)) in virt.into_iter().enumerate() {
            let arity = f.arity();
            let mut srcs = [Operand::Input(0); 2];
            for s in 0..arity {
                srcs[s] = match virt_srcs[i][s] {
                    Virt::Member(p) => Operand::Reg(reg_of[p]),
                    Virt::Input(idx) => Operand::Input(idx),
                };
            }
            let dst = free.pop().unwrap_or_else(|| {
                n_regs += 1;
                n_regs - 1
            });
            reg_of[i] = dst;
            for &src in virt_srcs[i].iter().take(arity) {
                if let Virt::Member(p) = src {
                    if last_use[p] == i && reg_of[p] != usize::MAX {
                        free.push(reg_of[p]);
                        // Guard against double-free when one member feeds
                        // both operands (e.g. `x * x`).
                        reg_of[p] = usize::MAX;
                    }
                }
            }
            instrs.push(Instr { f, srcs, dst });
        }
        let out_reg = reg_of[position[&out_port.node]];
        Some((
            Self {
                instrs,
                n_inputs: inputs.len(),
                n_regs,
                out_reg,
            },
            inputs,
        ))
    }

    /// Executes the chain over `inputs`, writing every element of `out`.
    ///
    /// All slices must share `out.len()`; inputs are the external ports
    /// returned by [`CompiledChain::compile`], pre-sliced with one flat
    /// range (whole output or any tile).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Input`] when the input count or a length
    /// disagrees with the program.
    pub fn run(&self, inputs: &[&[f32]], out: &mut [f32]) -> Result<(), ExecError> {
        if inputs.len() != self.n_inputs {
            return Err(ExecError::Input(format!(
                "compiled chain expects {} inputs, got {}",
                self.n_inputs,
                inputs.len()
            )));
        }
        for (i, input) in inputs.iter().enumerate() {
            if input.len() != out.len() {
                return Err(ExecError::Input(format!(
                    "compiled chain input {i} has {} elements, output range has {}",
                    input.len(),
                    out.len()
                )));
            }
        }
        let mut regs: Vec<Vec<f32>> = (0..self.n_regs).map(|_| vec![0.0; BLOCK]).collect();
        // Note on final-store elision (measured, rejected): dispatching
        // the instruction that produces `out_reg` straight into
        // `out[start..]` — skipping the copy below — benched ~20% *slower*
        // on the 6-op 768² chain, even with a dedicated call site keeping
        // `d`'s provenance unique. The op loop then streams its stores to
        // the cold output (write-allocate stalls inside the compute
        // loop), whereas writing the L1-hot register block and bulk-
        // copying it out overlaps better. The copy stays.
        let total = out.len();
        let mut start = 0;
        while start < total {
            let len = BLOCK.min(total - start);
            for instr in &self.instrs {
                // Take the destination out of the register file so sources
                // (always other registers — compile guarantees dst never
                // aliases a source) can be borrowed immutably alongside.
                let mut dbuf = std::mem::take(&mut regs[instr.dst]);
                Self::dispatch(instr, inputs, &regs, start, len, &mut dbuf[..len]);
                regs[instr.dst] = dbuf;
            }
            out[start..start + len].copy_from_slice(&regs[self.out_reg][..len]);
            start += len;
        }
        Ok(())
    }

    /// Evaluates one instruction over a `[start, start + len)` block,
    /// writing into the register block `d`.
    #[inline]
    fn dispatch(
        instr: &Instr,
        inputs: &[&[f32]],
        regs: &[Vec<f32>],
        start: usize,
        len: usize,
        d: &mut [f32],
    ) {
        let src = |op: Operand| -> &[f32] {
            match op {
                Operand::Input(i) => &inputs[i][start..start + len],
                Operand::Reg(r) => &regs[r][..len],
            }
        };
        match &instr.f {
            EwFn::Unary(u) => unary_tile(*u, src(instr.srcs[0]), d),
            EwFn::Binary(b) => binary_tile(*b, src(instr.srcs[0]), src(instr.srcs[1]), d),
            EwFn::BinaryScalar(b, c) => binary_scalar_tile(*b, src(instr.srcs[0]), *c, d),
            EwFn::BinaryScalarLhs(b, c) => binary_scalar_lhs_tile(*b, *c, src(instr.srcs[0]), d),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prims::eval_prim;
    use korch_ir::LayoutFn;
    use korch_tensor::{BinaryOp, Tensor, UnaryOp};
    use std::collections::HashMap;

    /// Interpreted reference: a member-by-member walk through
    /// `eval_prim`.
    fn interpret(
        g: &PrimGraph,
        members: &[NodeId],
        out_port: PortRef,
        feeds: &HashMap<PortRef, Tensor>,
    ) -> Vec<f32> {
        let mut vals: HashMap<PortRef, Tensor> = feeds.clone();
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        for &m in &sorted {
            let node = g.node(m);
            if node.kind.is_source() {
                continue;
            }
            let ins: Vec<&Tensor> = node.inputs.iter().map(|p| &vals[p]).collect();
            let outs = eval_prim(&node.kind, &ins, m.0).unwrap();
            for (port, t) in outs.into_iter().enumerate() {
                vals.insert(PortRef { node: m, port }, t);
            }
        }
        vals[&out_port].as_slice().to_vec()
    }

    fn ew(g: &mut PrimGraph, f: EwFn, inputs: Vec<PortRef>) -> NodeId {
        g.add(PrimKind::Elementwise(f), inputs).unwrap()
    }

    #[test]
    fn compiled_chain_matches_interpreter_bitwise() {
        // Diamond with a value read twice, scalar forms, and a binary join;
        // 3000 elements exercises full blocks plus a remainder block.
        let mut g = PrimGraph::new();
        let x = g
            .add(PrimKind::Input { shape: vec![3000] }, vec![])
            .unwrap();
        let y = g
            .add(PrimKind::Input { shape: vec![3000] }, vec![])
            .unwrap();
        let a = ew(&mut g, EwFn::Unary(UnaryOp::Tanh), vec![x.into()]);
        let b = ew(
            &mut g,
            EwFn::BinaryScalar(BinaryOp::Mul, 1.5),
            vec![a.into()],
        );
        let c = ew(
            &mut g,
            EwFn::Binary(BinaryOp::Add),
            vec![b.into(), a.into()],
        );
        let d = ew(
            &mut g,
            EwFn::Binary(BinaryOp::Mul),
            vec![c.into(), y.into()],
        );
        let e = ew(
            &mut g,
            EwFn::BinaryScalarLhs(BinaryOp::Sub, 2.0),
            vec![d.into()],
        );
        g.mark_output(e).unwrap();

        let members = vec![a, b, c, d, e];
        let (chain, ports) = CompiledChain::compile(&g, &members, e.into()).unwrap();
        assert_eq!(ports, vec![PortRef::from(x), PortRef::from(y)]);
        assert_eq!(chain.n_inputs, 2);
        assert_eq!(chain.instrs.len(), 5);

        let xs = Tensor::random(vec![3000], 1);
        let ys = Tensor::random(vec![3000], 2);
        let feeds: HashMap<PortRef, Tensor> =
            [(x.into(), xs.clone()), (y.into(), ys.clone())].into();
        let reference = interpret(&g, &members, e.into(), &feeds);

        let mut out = vec![f32::NAN; 3000];
        chain
            .run(&[xs.as_slice(), ys.as_slice()], &mut out)
            .unwrap();
        assert_eq!(out, reference);

        // Any tile partition reproduces the same bits (pointwise chain).
        for tile in [1usize, 7, 1024, 2999] {
            let mut tiled = vec![f32::NAN; 3000];
            let mut s = 0;
            while s < 3000 {
                let e2 = (s + tile).min(3000);
                chain
                    .run(
                        &[&xs.as_slice()[s..e2], &ys.as_slice()[s..e2]],
                        &mut tiled[s..e2],
                    )
                    .unwrap();
                s = e2;
            }
            assert_eq!(tiled, reference, "tile size {tile} diverged");
        }
    }

    #[test]
    fn self_referencing_binary_never_aliases_registers() {
        // x -> square via Mul(x', x') where x' is a chain member read twice:
        // dst must not alias the shared source register.
        let mut g = PrimGraph::new();
        let x = g.add(PrimKind::Input { shape: vec![10] }, vec![]).unwrap();
        let a = ew(
            &mut g,
            EwFn::BinaryScalar(BinaryOp::Add, 1.0),
            vec![x.into()],
        );
        let b = ew(
            &mut g,
            EwFn::Binary(BinaryOp::Mul),
            vec![a.into(), a.into()],
        );
        g.mark_output(b).unwrap();
        let (chain, ports) = CompiledChain::compile(&g, &[a, b], b.into()).unwrap();
        assert_eq!(ports, vec![PortRef::from(x)]);
        let xs = Tensor::random(vec![10], 3);
        let mut out = vec![0.0; 10];
        chain.run(&[xs.as_slice()], &mut out).unwrap();
        let expected: Vec<f32> = xs
            .as_slice()
            .iter()
            .map(|&v| (v + 1.0) * (v + 1.0))
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn registers_are_reused_along_a_linear_chain() {
        let mut g = PrimGraph::new();
        let x = g.add(PrimKind::Input { shape: vec![8] }, vec![]).unwrap();
        let mut cur: PortRef = x.into();
        let mut members = Vec::new();
        for _ in 0..8 {
            let n = ew(&mut g, EwFn::Unary(UnaryOp::Abs), vec![cur]);
            members.push(n);
            cur = n.into();
        }
        g.mark_output(cur.node).unwrap();
        let (chain, _) = CompiledChain::compile(&g, &members, cur).unwrap();
        assert_eq!(chain.instrs.len(), 8);
        assert!(
            chain.n_regs <= 2,
            "linear chain should ping-pong two registers, used {}",
            chain.n_regs
        );
    }

    #[test]
    fn source_members_become_external_inputs() {
        // A constant listed as a kernel member is an external operand.
        let mut g = PrimGraph::new();
        let x = g.add(PrimKind::Input { shape: vec![4] }, vec![]).unwrap();
        let c = g
            .add(
                PrimKind::Constant {
                    shape: vec![4],
                    init: korch_ir::ConstInit::Ones,
                },
                vec![],
            )
            .unwrap();
        let s = ew(
            &mut g,
            EwFn::Binary(BinaryOp::Add),
            vec![x.into(), c.into()],
        );
        g.mark_output(s).unwrap();
        let (chain, ports) = CompiledChain::compile(&g, &[c, s], s.into()).unwrap();
        assert_eq!(ports, vec![PortRef::from(x), PortRef::from(c)]);
        assert_eq!(chain.n_inputs, 2);
    }

    #[test]
    fn rejects_non_chain_kernels() {
        let mut g = PrimGraph::new();
        let x = g
            .add(PrimKind::Input { shape: vec![2, 2] }, vec![])
            .unwrap();
        let t = g
            .add(
                PrimKind::Layout(LayoutFn::Transpose { perm: vec![1, 0] }),
                vec![x.into()],
            )
            .unwrap();
        let e = ew(&mut g, EwFn::Unary(UnaryOp::Exp), vec![t.into()]);
        g.mark_output(e).unwrap();
        // Non-elementwise member.
        assert!(CompiledChain::compile(&g, &[t, e], e.into()).is_none());
        // Out port not among the members.
        assert!(CompiledChain::compile(&g, &[e], t.into()).is_none());
        // Only source members.
        assert!(CompiledChain::compile(&g, &[x], x.into()).is_none());

        // A dead member with a different shape breaks flat uniformity.
        let mut g2 = PrimGraph::new();
        let a = g2.add(PrimKind::Input { shape: vec![4] }, vec![]).unwrap();
        let b = g2.add(PrimKind::Input { shape: vec![6] }, vec![]).unwrap();
        let u = ew(&mut g2, EwFn::Unary(UnaryOp::Exp), vec![a.into()]);
        let dead = ew(&mut g2, EwFn::Unary(UnaryOp::Exp), vec![b.into()]);
        g2.mark_output(u).unwrap();
        assert!(CompiledChain::compile(&g2, &[u, dead], u.into()).is_none());
    }

    #[test]
    fn run_validates_operands() {
        let mut g = PrimGraph::new();
        let x = g.add(PrimKind::Input { shape: vec![4] }, vec![]).unwrap();
        let u = ew(&mut g, EwFn::Unary(UnaryOp::Exp), vec![x.into()]);
        g.mark_output(u).unwrap();
        let (chain, _) = CompiledChain::compile(&g, &[u], u.into()).unwrap();
        let mut out = vec![0.0; 4];
        assert!(chain.run(&[], &mut out).is_err());
        let short = [0.0f32; 2];
        assert!(chain.run(&[&short], &mut out).is_err());
    }
}
