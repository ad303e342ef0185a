//! Edge cases and failure-injection across the pipeline: degenerate
//! graphs, pass-through partitions, exotic configs.

use korch::core::{stitch, CompiledModel, Korch, KorchConfig};
use korch::cost::{Backend, Device, Profiler};
use korch::exec::execute_plan;
use korch::fission::fission;
use korch::ir::{ConstInit, EwFn, LayoutFn, OpGraph, OpKind, PortRef, PrimGraph, PrimKind};
use korch::orch::{
    enumerate_states, identify_kernels, optimize, IdentifyConfig, OptimizeConfig,
    DEFAULT_MAX_STATES,
};
use korch::runtime::RuntimeConfig;
use korch::tensor::{BinaryOp, Tensor, UnaryOp};

#[test]
fn single_op_graph() {
    let mut g = OpGraph::new();
    let x = g.add(OpKind::Input { shape: vec![8] }, vec![]).unwrap();
    let r = g.add(OpKind::Unary(UnaryOp::Relu), vec![x.into()]).unwrap();
    g.mark_output(r).unwrap();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let (optimized, err) = korch.optimize_verified(&g, 1).unwrap();
    assert_eq!(optimized.kernel_count(), 1);
    assert_eq!(err, 0.0);
}

#[test]
fn input_is_output_passthrough() {
    // A graph whose output is also consumed raw: relu(x) and x itself.
    let mut g = OpGraph::new();
    let x = g.add(OpKind::Input { shape: vec![4] }, vec![]).unwrap();
    let r = g.add(OpKind::Unary(UnaryOp::Relu), vec![x.into()]).unwrap();
    g.mark_output(r).unwrap();
    g.mark_output(x).unwrap();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let optimized = korch.optimize(&g).unwrap();
    let input = Tensor::random(vec![4], 5);
    let out = optimized.execute(std::slice::from_ref(&input)).unwrap();
    assert_eq!(out[1], input);
}

#[test]
fn constant_only_graph() {
    // No inputs at all: the program produces a transformed constant.
    let mut g = OpGraph::new();
    let c = g
        .add(
            OpKind::Constant {
                shape: vec![6],
                init: ConstInit::Fill(2.0),
            },
            vec![],
        )
        .unwrap();
    let sq = g
        .add(OpKind::Unary(UnaryOp::Square), vec![c.into()])
        .unwrap();
    g.mark_output(sq).unwrap();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let optimized = korch.optimize(&g).unwrap();
    let out = optimized.execute(&[]).unwrap();
    assert_eq!(out[0].as_slice(), &[4.0; 6]);
}

#[test]
fn duplicate_outputs_allowed() {
    let mut g = OpGraph::new();
    let x = g.add(OpKind::Input { shape: vec![4] }, vec![]).unwrap();
    let r = g.add(OpKind::Unary(UnaryOp::Tanh), vec![x.into()]).unwrap();
    g.mark_output(r).unwrap();
    g.mark_output(r).unwrap();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let optimized = korch.optimize(&g).unwrap();
    let out = optimized.execute(&[Tensor::random(vec![4], 2)]).unwrap();
    assert_eq!(out.len(), 2);
    assert_eq!(out[0], out[1]);
}

#[test]
fn deep_chain_partitions_and_verifies() {
    // 60 unary ops: forces many partitions; every boundary must plumb.
    let mut g = OpGraph::new();
    let x = g.add(OpKind::Input { shape: vec![16] }, vec![]).unwrap();
    let mut cur = korch::ir::PortRef::from(x);
    for i in 0..60 {
        let op = if i % 2 == 0 {
            UnaryOp::Tanh
        } else {
            UnaryOp::Abs
        };
        cur = g.add(OpKind::Unary(op), vec![cur]).unwrap().into();
    }
    g.mark_output(cur).unwrap();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let (optimized, err) = korch.optimize_verified(&g, 3).unwrap();
    assert!(err < 1e-5);
    assert!(optimized.stats().partitions >= 2);
}

#[test]
fn trt_backend_orchestrator() {
    // Orchestrating with the TensorRT-runtime backend list must also work:
    // the orchestration steps composed with another backend list.
    let g = korch::models::subgraphs::softmax_attention(64, 32);
    let pg = fission(&g).unwrap().prim_graph;
    let space = enumerate_states(&pg, DEFAULT_MAX_STATES);
    let cands = identify_kernels(
        &pg,
        &space,
        &Profiler::new(Device::a100()),
        &IdentifyConfig::default(),
        &[Backend::TrtRuntime, Backend::Vendor],
    );
    let (plan, _) = optimize(&pg, &cands, Some(&space), &OptimizeConfig::default()).unwrap();
    assert!(plan.kernel_count() >= 1);
    assert!(plan.total_latency.0 > 0.0);
}

#[test]
fn no_applicable_backend_is_infeasible_not_panic() {
    // Vendor alone cannot serve memory-intensive kernels; with only that
    // backend an all-elementwise graph has no candidates.
    let mut pg = PrimGraph::new();
    let x = pg.add(PrimKind::Input { shape: vec![8] }, vec![]).unwrap();
    let e = pg
        .add(
            PrimKind::Elementwise(korch::ir::EwFn::Unary(UnaryOp::Exp)),
            vec![x.into()],
        )
        .unwrap();
    pg.mark_output(e).unwrap();
    let space = enumerate_states(&pg, 100);
    let cands = identify_kernels(
        &pg,
        &space,
        &Profiler::new(Device::v100()),
        &IdentifyConfig::default(),
        &[Backend::Vendor],
    );
    assert!(cands.kernels.is_empty());
}

#[test]
fn zero_sized_dims_rejected_gracefully() {
    // A shape with a zero dim builds but reduces to empty tensors; the
    // pipeline must not panic.
    let mut g = OpGraph::new();
    let x = g.add(OpKind::Input { shape: vec![0, 4] }, vec![]).unwrap();
    let r = g.add(OpKind::Unary(UnaryOp::Relu), vec![x.into()]).unwrap();
    g.mark_output(r).unwrap();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let optimized = korch.optimize(&g).unwrap();
    let out = optimized.execute(&[Tensor::zeros(vec![0, 4])]).unwrap();
    assert_eq!(out[0].numel(), 0);
}

#[test]
fn multiple_inputs_fed_in_declaration_order() {
    let mut g = OpGraph::new();
    let a = g.add(OpKind::Input { shape: vec![3] }, vec![]).unwrap();
    let b = g.add(OpKind::Input { shape: vec![3] }, vec![]).unwrap();
    let diff = g.add(OpKind::Sub, vec![a.into(), b.into()]).unwrap();
    g.mark_output(diff).unwrap();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let optimized = korch.optimize(&g).unwrap();
    let ta = Tensor::from_vec(vec![3], vec![5.0, 5.0, 5.0]).unwrap();
    let tb = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]).unwrap();
    let out = optimized.execute(&[ta, tb]).unwrap();
    assert_eq!(out[0].as_slice(), &[4.0, 3.0, 2.0]); // a - b, not b - a
}

/// Cuts `pg` into partitions of at most `max_prims` primitives and holds
/// the stitched whole program to the per-partition interpreter
/// (`Optimized::execute`), bit for bit: under `execute_plan` and as the
/// compiled model at 1 and 2 lanes. Returns the partition count.
fn stitched_program_matches_partitions(pg: &PrimGraph, max_prims: usize) -> usize {
    let config = KorchConfig {
        partition_max_prims: max_prims,
        ..Default::default()
    };
    let optimized = Korch::new(Device::v100(), config)
        .optimize_prims(pg)
        .unwrap();
    let inputs: Vec<Tensor> = pg
        .nodes()
        .iter()
        .filter_map(|n| match &n.kind {
            PrimKind::Input { shape } => Some(shape.clone()),
            _ => None,
        })
        .enumerate()
        .map(|(i, shape)| Tensor::random(shape, 31 + i as u64))
        .collect();
    let oracle = optimized.execute(&inputs).unwrap();
    let (graph, plan) = stitch(&optimized).unwrap();
    assert_eq!(execute_plan(&graph, &plan, &inputs).unwrap(), oracle);
    for lanes in [1, 2] {
        let compiled =
            CompiledModel::from_optimized(&optimized, &RuntimeConfig::with_lanes(lanes)).unwrap();
        assert_eq!(compiled.execute(&inputs).unwrap(), oracle, "lanes={lanes}");
        compiled.verify().unwrap();
    }
    optimized.partitions().len()
}

fn prim_unary(pg: &mut PrimGraph, op: UnaryOp, x: PortRef) -> PortRef {
    pg.add(PrimKind::Elementwise(EwFn::Unary(op)), vec![x])
        .unwrap()
        .into()
}

fn prim_binary(pg: &mut PrimGraph, op: BinaryOp, a: PortRef, b: PortRef) -> PortRef {
    pg.add(PrimKind::Elementwise(EwFn::Binary(op)), vec![a, b])
        .unwrap()
        .into()
}

#[test]
fn stitch_pass_through_partition() {
    // The trailing program input is an output and lands alone in the last
    // partition: a partition with no primitive and no kernel.
    let mut pg = PrimGraph::new();
    let x = pg.add(PrimKind::Input { shape: vec![8] }, vec![]).unwrap();
    let mut cur = PortRef::from(x);
    for _ in 0..4 {
        cur = prim_unary(&mut pg, UnaryOp::Relu, cur);
    }
    let y = pg.add(PrimKind::Input { shape: vec![8] }, vec![]).unwrap();
    pg.mark_output(cur).unwrap();
    pg.mark_output(y).unwrap();
    assert_eq!(stitched_program_matches_partitions(&pg, 4), 2);
}

#[test]
fn stitch_partition_outputs_that_are_sources() {
    // The first partition hands on a constant and the program input
    // untouched; both are also program outputs.
    let mut pg = PrimGraph::new();
    let (shape, init) = (vec![8], ConstInit::Random(9));
    let c: PortRef = pg
        .add(PrimKind::Constant { shape, init }, vec![])
        .unwrap()
        .into();
    let x: PortRef = pg
        .add(PrimKind::Input { shape: vec![8] }, vec![])
        .unwrap()
        .into();
    let a = prim_binary(&mut pg, BinaryOp::Add, x, c);
    let a = prim_unary(&mut pg, UnaryOp::Tanh, a);
    let b = prim_binary(&mut pg, BinaryOp::Mul, a, c);
    let b = prim_unary(&mut pg, UnaryOp::Exp, b);
    for out in [b, c, x] {
        pg.mark_output(out).unwrap();
    }
    assert_eq!(stitched_program_matches_partitions(&pg, 2), 2);
}

#[test]
fn stitch_program_input_read_by_two_partitions() {
    let mut pg = PrimGraph::new();
    let x: PortRef = pg
        .add(PrimKind::Input { shape: vec![4, 4] }, vec![])
        .unwrap()
        .into();
    let a = prim_unary(&mut pg, UnaryOp::Exp, x);
    let a = prim_unary(&mut pg, UnaryOp::Sigmoid, a);
    let b = prim_binary(&mut pg, BinaryOp::Sub, a, x);
    let b = prim_unary(&mut pg, UnaryOp::Relu, b);
    pg.mark_output(b).unwrap();
    assert_eq!(stitched_program_matches_partitions(&pg, 2), 2);
}

#[test]
fn stitch_multi_output_boundary() {
    // Both ports of the split cross the first cut.
    let mut pg = PrimGraph::new();
    let x: PortRef = pg
        .add(PrimKind::Input { shape: vec![4, 8] }, vec![])
        .unwrap()
        .into();
    let e = prim_unary(&mut pg, UnaryOp::Exp, x);
    let (axis, sizes) = (1, vec![4, 4]);
    let split = pg
        .add(PrimKind::Layout(LayoutFn::Split { axis, sizes }), vec![e])
        .unwrap();
    let lo = prim_unary(&mut pg, UnaryOp::Relu, split.into());
    let hi = PortRef {
        node: split,
        port: 1,
    };
    let hi = prim_unary(&mut pg, UnaryOp::Tanh, hi);
    let z = prim_binary(&mut pg, BinaryOp::Sub, lo, hi);
    pg.mark_output(z).unwrap();
    assert_eq!(stitched_program_matches_partitions(&pg, 2), 3);
}
