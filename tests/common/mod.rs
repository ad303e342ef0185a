//! Shared fixtures for the integration tests: graph builders (theorem 1's
//! random DAGs among them), plan constructors, random-input generators and
//! the differential bit-identity comparison every runtime test suite leans
//! on.
//!
//! Each integration-test binary compiles this module independently via
//! `mod common;` and uses its own subset of the helpers, hence the
//! file-wide `dead_code` allowance.
#![allow(dead_code)]

use korch::cost::{kernel_spec, Backend, Device, Profiler};
use korch::ir::{EwFn, NodeId, OpGraph, OpKind, PortRef, PrimGraph, PrimKind};
use korch::orch::{Plan, SelectedKernel};
use korch::tensor::{BinaryOp, Tensor, UnaryOp};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One random tensor per `Input` node of an operator graph, seeded
/// deterministically so failures reproduce.
pub fn op_random_inputs(g: &OpGraph, seed: u64) -> Vec<Tensor> {
    g.nodes()
        .iter()
        .filter_map(|n| match &n.kind {
            OpKind::Input { shape } => Some(shape.clone()),
            _ => None,
        })
        .enumerate()
        .map(|(i, shape)| Tensor::random(shape, seed + i as u64))
        .collect()
}

/// One random tensor per `Input` node of a primitive graph.
pub fn prim_random_inputs(g: &PrimGraph, seed: u64) -> Vec<Tensor> {
    g.iter()
        .filter_map(|(_, n)| match &n.kind {
            PrimKind::Input { shape } => Some(shape.clone()),
            _ => None,
        })
        .enumerate()
        .map(|(i, shape)| Tensor::random(shape, seed + i as u64))
        .collect()
}

/// `n` random tensors of one shape (for graphs whose inputs all agree).
pub fn same_shape_inputs(n: usize, shape: &[usize], seed: u64) -> Vec<Tensor> {
    (0..n)
        .map(|i| Tensor::random(shape.to_vec(), seed + i as u64))
        .collect()
}

/// Shape of the first `Input` node of a primitive graph.
pub fn first_input_shape(g: &PrimGraph) -> Vec<usize> {
    g.iter()
        .find_map(|(_, n)| match &n.kind {
            PrimKind::Input { shape } => Some(shape.clone()),
            _ => None,
        })
        .expect("graph has an input")
}

/// The differential check all runtime suites share: `out` must match
/// `reference` in arity, shape and **bytes** (`ctx` names the failing
/// configuration).
pub fn assert_bit_identical(reference: &[Tensor], out: &[Tensor], ctx: &str) {
    assert_eq!(reference.len(), out.len(), "{ctx}: output arity");
    for (i, (a, b)) in reference.iter().zip(out).enumerate() {
        assert_eq!(a.shape(), b.shape(), "{ctx}: output {i} shape");
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "{ctx}: output {i} not bit-identical"
        );
    }
}

/// Waits until a racing thread has bumped `counter` past `seen`, so the
/// race a test asserts on really interleaves: a caller that never yields
/// can otherwise finish every round before a freshly spawned thread is
/// scheduled once. Panics after 30 s, when the racer has stopped (died).
pub fn await_progress(counter: &AtomicU64, seen: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while counter.load(Ordering::Acquire) == seen {
        assert!(Instant::now() < deadline, "the racing thread stalled");
        std::thread::yield_now();
    }
}

/// A [`SelectedKernel`] over `members` producing `outputs`, priced by the
/// analytical profiler (the standard way tests hand-build plan kernels).
pub fn kernel_of(g: &PrimGraph, members: Vec<NodeId>, outputs: Vec<PortRef>) -> SelectedKernel {
    let profiler = Profiler::new(Device::v100());
    let set: BTreeSet<NodeId> = members.iter().copied().collect();
    let spec = kernel_spec(g, &set, &outputs);
    SelectedKernel {
        members,
        outputs,
        latency: profiler.latency(&spec, Backend::Generated),
        backend: Backend::Generated,
    }
}

/// A [`Plan`] over hand-built kernels, with the total latency summed the
/// way the orchestrator would.
pub fn plan_of(kernels: Vec<SelectedKernel>) -> Plan {
    let total = kernels.iter().map(|k| k.latency).sum();
    Plan {
        kernels,
        total_latency: total,
    }
}

/// Two chained softmax blocks: enough kernels to overlap lanes, one
/// partition — the standard self-tuning test model.
pub fn model_graph() -> OpGraph {
    let mut g = OpGraph::new();
    let x = g
        .add(
            OpKind::Input {
                shape: vec![16, 32],
            },
            vec![],
        )
        .unwrap();
    let s1 = g.add(OpKind::Softmax { axis: 1 }, vec![x.into()]).unwrap();
    let r1 = g
        .add(OpKind::Unary(UnaryOp::Relu), vec![s1.into()])
        .unwrap();
    let s2 = g.add(OpKind::Softmax { axis: 1 }, vec![r1.into()]).unwrap();
    g.mark_output(s2).unwrap();
    g
}

/// `branches` independent one-node memory-bound kernels (nothing fuses,
/// nothing depends): every kernel is a root, so the run's whole shape is
/// decided by how the roots are dealt over the lanes.
pub fn independent_plan(branches: usize) -> (PrimGraph, Plan) {
    let mut g = PrimGraph::new();
    let mut kernels = Vec::with_capacity(branches);
    for _ in 0..branches {
        let x = g
            .add(
                PrimKind::Input {
                    shape: vec![64, 64],
                },
                vec![],
            )
            .unwrap();
        let e = g
            .add(
                PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)),
                vec![x.into()],
            )
            .unwrap();
        g.mark_output(e).unwrap();
        kernels.push((vec![e], vec![PortRef::from(e)]));
    }
    let kernels = kernels
        .into_iter()
        .map(|(members, outputs)| kernel_of(&g, members, outputs))
        .collect();
    let plan = plan_of(kernels);
    (g, plan)
}

/// A random DAG of unary/binary elementwise primitives over one input.
pub fn arb_dag() -> impl Strategy<Value = PrimGraph> {
    // Each entry: (use_binary, src1 offset, src2 offset)
    prop::collection::vec((prop::bool::ANY, 1usize..5, 1usize..5), 2..10).prop_map(|nodes| {
        let mut g = PrimGraph::new();
        let x = g.add(PrimKind::Input { shape: vec![4] }, vec![]).unwrap();
        let mut ids: Vec<NodeId> = vec![x];
        for (binary, o1, o2) in nodes {
            let s1 = ids[ids.len() - o1.min(ids.len())];
            let s2 = ids[ids.len() - o2.min(ids.len())];
            let id = if binary {
                g.add(
                    PrimKind::Elementwise(EwFn::Binary(BinaryOp::Add)),
                    vec![s1.into(), s2.into()],
                )
                .unwrap()
            } else {
                g.add(
                    PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)),
                    vec![s1.into()],
                )
                .unwrap()
            };
            ids.push(id);
        }
        g.mark_output(*ids.last().unwrap()).unwrap();
        g
    })
}
