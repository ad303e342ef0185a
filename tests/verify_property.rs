//! Property test for the static verifier: every artifact the toolchain
//! can compile — orchestrator plans and random chunked DAG plans, at
//! every lane count, tiling on and off, before and after a recalibrate
//! swap — must be accepted. The verifier's job is rejecting corrupted
//! artifacts (see `verify_static.rs`); this suite pins the complement:
//! zero false positives over the reachable plan space.

use korch::core::{Korch, KorchConfig};
use korch::cost::Device;
use korch::ir::{EwFn, NodeId, PortRef, PrimGraph, PrimKind};
use korch::orch::Plan;
use korch::runtime::{PlanExecutor, RuntimeConfig, Tiling};
use korch::tensor::{BinaryOp, Tensor, UnaryOp};
use korch::verify::verify_executor;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};

mod common;
use common::{kernel_of, plan_of};

/// A random DAG of same-shape elementwise nodes (the shape of generator
/// `runtime_workstealing.rs` uses) plus a chunking recipe for grouping
/// nodes into kernels.
fn arb_dag() -> impl Strategy<Value = (PrimGraph, Vec<usize>)> {
    let dims = (2usize..8, 2usize..12);
    let n_inputs = 1usize..4;
    let ops = prop::collection::vec((0u8..8, 0u64..1_000_000, 0u64..1_000_000), 3..20);
    let chunks = prop::collection::vec(1usize..4, 1..6);
    (dims, n_inputs, ops, chunks).prop_map(|((rows, cols), n_inputs, ops, chunks)| {
        let shape = vec![rows, cols];
        let mut g = PrimGraph::new();
        let mut pool: Vec<NodeId> = Vec::new();
        for _ in 0..n_inputs {
            pool.push(
                g.add(
                    PrimKind::Input {
                        shape: shape.clone(),
                    },
                    vec![],
                )
                .unwrap(),
            );
        }
        let mut consumed: HashSet<NodeId> = HashSet::new();
        for (code, ra, rb) in ops {
            let a = pool[(ra % pool.len() as u64) as usize];
            let b = pool[(rb % pool.len() as u64) as usize];
            let kind = match code {
                0 => PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)),
                1 => PrimKind::Elementwise(EwFn::Unary(UnaryOp::Sigmoid)),
                2 => PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp)),
                3 => PrimKind::Elementwise(EwFn::Unary(UnaryOp::Relu)),
                4 => PrimKind::Elementwise(EwFn::Binary(BinaryOp::Add)),
                5 => PrimKind::Elementwise(EwFn::Binary(BinaryOp::Mul)),
                6 => PrimKind::Elementwise(EwFn::Binary(BinaryOp::Max)),
                _ => PrimKind::Elementwise(EwFn::Binary(BinaryOp::Sub)),
            };
            let inputs: Vec<PortRef> = if code < 4 {
                vec![a.into()]
            } else {
                vec![a.into(), b.into()]
            };
            for r in &inputs {
                consumed.insert(r.node);
            }
            pool.push(g.add(kind, inputs).unwrap());
        }
        for &id in &pool {
            if !consumed.contains(&id) && !g.node(id).kind.is_source() {
                g.mark_output(id).unwrap();
            }
        }
        if g.outputs().is_empty() {
            g.mark_output(*pool.last().unwrap()).unwrap();
        }
        (g, chunks)
    })
}

/// Groups non-source nodes into contiguous kernels sized by cycling
/// through `chunks` (the materialization rule `execute_plan` expects).
fn chunked_plan(g: &PrimGraph, chunks: &[usize]) -> Plan {
    let comp: Vec<NodeId> = g
        .iter()
        .filter(|(_, n)| !n.kind.is_source())
        .map(|(id, _)| id)
        .collect();
    let graph_outputs: HashSet<PortRef> = g.outputs().iter().copied().collect();
    let mut kernels = Vec::new();
    let mut chunk_iter = chunks.iter().cycle();
    let mut idx = 0usize;
    while idx < comp.len() {
        let take = chunk_iter.next().copied().unwrap_or(1).clamp(1, 3);
        let members: Vec<NodeId> = comp[idx..(idx + take).min(comp.len())].to_vec();
        idx += members.len();
        let mset: BTreeSet<NodeId> = members.iter().copied().collect();
        let mut outs: BTreeSet<PortRef> = BTreeSet::new();
        for (id, node) in g.iter() {
            if mset.contains(&id) {
                continue;
            }
            for r in &node.inputs {
                if mset.contains(&r.node) {
                    outs.insert(*r);
                }
            }
        }
        for o in &graph_outputs {
            if mset.contains(&o.node) {
                outs.insert(*o);
            }
        }
        kernels.push(kernel_of(g, members, outs.into_iter().collect()));
    }
    plan_of(kernels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every compilable artifact over random DAG plans is accepted, at
    /// every lane count, with tiling off and on, with forced tiny tiles.
    #[test]
    fn random_dag_artifacts_verify((g, chunks) in arb_dag()) {
        let plan = chunked_plan(&g, &chunks);
        for lanes in [1usize, 2, 4] {
            for tiling in [false, true] {
                let config = RuntimeConfig {
                    // Force aggressive decomposition so tiled artifacts
                    // actually occur at tiny scales.
                    tiling: if tiling {
                        Tiling::Forced { tile_rows: Some(1) }
                    } else {
                        Tiling::Off
                    },
                    ..RuntimeConfig::with_lanes(lanes)
                };
                let exec = PlanExecutor::new(&g, &plan, config).unwrap();
                let violations = verify_executor(&exec);
                prop_assert!(
                    violations.is_empty(),
                    "lanes {} tiling {}: {:?}",
                    lanes, tiling, violations
                );
            }
        }
    }

    /// Orchestrator plans over random DAGs verify too — and keep
    /// verifying after a recalibrate swap replaces them with re-priced
    /// plans and fresh executors.
    #[test]
    fn orchestrated_and_recalibrated_plans_verify((g, _) in arb_dag(), seed in 0u64..1000) {
        let korch = Korch::new(Device::v100(), KorchConfig::default());
        let optimized = korch.optimize_prims(&g).expect("pipeline");
        let compiled =
            korch::core::CompiledModel::from_optimized(&optimized, &RuntimeConfig::with_lanes(2))
                .expect("compile");
        compiled.verify().expect("compile-time plans verify");
        let inputs: Vec<Tensor> = g
            .iter()
            .filter_map(|(_, n)| match &n.kind {
                PrimKind::Input { shape } => Some(shape.clone()),
                _ => None,
            })
            .enumerate()
            .map(|(i, shape)| Tensor::random(shape, seed + i as u64))
            .collect();
        compiled.execute(&inputs).expect("plan executes");
        compiled.recalibrate().expect("recalibrate succeeds");
        compiled.verify().expect("swapped plans verify");
    }
}
