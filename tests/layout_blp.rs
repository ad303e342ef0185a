//! Integration tests for the layout-aware BLP (paper §8 future work):
//! functional execution of layout plans and parity/win behaviour against
//! the standard orchestrator on realistic subgraphs.

use korch::cost::{Backend, Device, Profiler};
use korch::exec::{execute_plan, execute_prims};
use korch::fission::fission;
use korch::ir::{EwFn, LayoutFn, LinearFn, OpKind, PrimGraph, PrimKind};
use korch::orch::{
    enumerate_states, identify_kernels, layout_variants, optimize, optimize_with_layouts,
    Candidates, IdentifyConfig, LayoutConfig, OptimizeConfig, TensorLayout,
};
use korch::tensor::{BinaryOp, MatMulSpec, ReduceKind, Tensor, UnaryOp};

fn setup(g: &PrimGraph) -> (Candidates, Profiler) {
    let profiler = Profiler::new(Device::v100());
    let space = enumerate_states(g, 10_000);
    let cands = identify_kernels(
        g,
        &space,
        &profiler,
        &IdentifyConfig::default(),
        &[Backend::Generated, Backend::Vendor],
    );
    (cands, profiler)
}

#[test]
fn layout_plan_executes_functionally() {
    // scale -> transpose -> matmul: the layout plan (whatever it selects)
    // must compute exactly what the primitive graph computes.
    let mut g = PrimGraph::new();
    let x = g
        .add(
            PrimKind::Input {
                shape: vec![128, 64],
            },
            vec![],
        )
        .unwrap();
    let s = g
        .add(
            PrimKind::Elementwise(EwFn::BinaryScalar(BinaryOp::Mul, 0.5)),
            vec![x.into()],
        )
        .unwrap();
    let t = g
        .add(
            PrimKind::Layout(LayoutFn::Transpose { perm: vec![1, 0] }),
            vec![s.into()],
        )
        .unwrap();
    let w = g
        .add(
            PrimKind::Constant {
                shape: vec![128, 32],
                init: korch::ir::ConstInit::Random(1),
            },
            vec![],
        )
        .unwrap();
    let mm = g
        .add(
            PrimKind::Linear(LinearFn::MatMul {
                spec: MatMulSpec::new(),
            }),
            vec![t.into(), w.into()],
        )
        .unwrap();
    g.mark_output(mm).unwrap();
    let (cands, profiler) = setup(&g);
    let outcome = optimize_with_layouts(&g, &cands, &profiler, &LayoutConfig::default()).unwrap();
    let x = Tensor::random(vec![128, 64], 17);
    let reference = execute_prims(&g, std::slice::from_ref(&x)).unwrap();
    let out = execute_plan(&g, &outcome.plan, &[x]).unwrap();
    assert!(reference[0].allclose(&out[0], 1e-4));
}

#[test]
fn layout_blp_parity_on_attention_prims() {
    // The softmax-attention subgraph after fission: layout search must not
    // lose to the standard BLP (all-standard variants embed it), and the
    // resulting plan must stay executable.
    let op_graph = korch::models::subgraphs::softmax_attention(64, 32);
    let f = fission(&op_graph).unwrap();
    let (cands, profiler) = setup(&f.prim_graph);
    let (std_plan, _) = optimize(&f.prim_graph, &cands, None, &OptimizeConfig::default()).unwrap();
    let outcome =
        optimize_with_layouts(&f.prim_graph, &cands, &profiler, &LayoutConfig::default()).unwrap();
    assert!(
        outcome.plan.total_latency.0 <= std_plan.total_latency.0 * 1.02 + 1e-9,
        "layout-aware lost: {} vs {}",
        outcome.plan.total_latency.0,
        std_plan.total_latency.0
    );
    let x = Tensor::random(vec![64, 32], 3);
    let reference = execute_prims(&f.prim_graph, std::slice::from_ref(&x)).unwrap();
    let out = execute_plan(&f.prim_graph, &outcome.plan, &[x]).unwrap();
    assert!(reference[0].allclose(&out[0], 1e-3));
}

#[test]
fn uniform_swap_chain_survives_execution() {
    // Force the reformat regime so relabels are actually selected, then
    // execute: relabeled transposes are represented as ordinary plan
    // kernels (the interpreter is layout-blind), so results must agree.
    let mut g = PrimGraph::new();
    let x = g
        .add(
            PrimKind::Input {
                shape: vec![256, 256],
            },
            vec![],
        )
        .unwrap();
    let e1 = g
        .add(
            PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)),
            vec![x.into()],
        )
        .unwrap();
    let t = g
        .add(
            PrimKind::Layout(LayoutFn::Transpose { perm: vec![1, 0] }),
            vec![e1.into()],
        )
        .unwrap();
    let t2 = g
        .add(
            PrimKind::Layout(LayoutFn::Transpose { perm: vec![1, 0] }),
            vec![t.into()],
        )
        .unwrap();
    let e2 = g
        .add(
            PrimKind::Elementwise(EwFn::Unary(UnaryOp::Sigmoid)),
            vec![t2.into()],
        )
        .unwrap();
    g.mark_output(e2).unwrap();
    let (mut cands, profiler) = setup(&g);
    cands.kernels.retain(|k| {
        k.members.len() == 1
            || !k.members.iter().any(|&m| {
                matches!(
                    &g.node(m).kind,
                    PrimKind::Layout(LayoutFn::Transpose { .. })
                )
            })
    });
    cands.seed_selections.clear();
    let outcome = optimize_with_layouts(&g, &cands, &profiler, &LayoutConfig::default()).unwrap();
    assert!(outcome.swapped_kernels > 0);
    let x = Tensor::random(vec![256, 256], 9);
    let reference = execute_prims(&g, std::slice::from_ref(&x)).unwrap();
    let out = execute_plan(&g, &outcome.plan, &[x]).unwrap();
    assert!(reference[0].allclose(&out[0], 1e-5));
}

#[test]
fn layout_blp_on_fissioned_op_graph_with_gemm() {
    // Gemm with transposed operands coming out of fission keeps its flags;
    // the layout BLP must coexist with IR-level transpose flags.
    let mut g = korch::ir::OpGraph::new();
    let a = g
        .add(
            OpKind::Input {
                shape: vec![96, 48],
            },
            vec![],
        )
        .unwrap();
    let b = g
        .add(
            OpKind::Input {
                shape: vec![24, 96],
            },
            vec![],
        )
        .unwrap();
    let c = g.add(OpKind::Input { shape: vec![24] }, vec![]).unwrap();
    let gm = g
        .add(
            OpKind::Gemm {
                alpha: 0.5,
                beta: 1.0,
                trans_a: true,
                trans_b: true,
            },
            vec![a.into(), b.into(), c.into()],
        )
        .unwrap();
    g.mark_output(gm).unwrap();
    let f = fission(&g).unwrap();
    let (cands, profiler) = setup(&f.prim_graph);
    let outcome =
        optimize_with_layouts(&f.prim_graph, &cands, &profiler, &LayoutConfig::default()).unwrap();
    let inputs = vec![
        Tensor::random(vec![96, 48], 1),
        Tensor::random(vec![24, 96], 2),
        Tensor::random(vec![24], 3),
    ];
    let reference = execute_prims(&f.prim_graph, &inputs).unwrap();
    let out = execute_plan(&f.prim_graph, &outcome.plan, &inputs).unwrap();
    assert!(reference[0].allclose(&out[0], 1e-4));
}

#[test]
fn rank_one_graph_has_one_formulation() {
    // A vector softmax with a second branch: no tensor has two dimensions
    // to swap, so every layout variant is the canonical one and the
    // layout-aware BLP *is* the standard BLP — same variables, same rows.
    // Differential check of the builder the two solves share: the standard
    // solve, stripped of the warm starts only it has (chain DP, seeds),
    // must pick the same kernels.
    let mut g = PrimGraph::new();
    let n = 4096;
    let x = g.add(PrimKind::Input { shape: vec![n] }, vec![]).unwrap();
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
                axis: 0,
            },
            vec![e.into()],
        )
        .unwrap();
    let b = g
        .add(PrimKind::Broadcast { axis: 0, size: n }, vec![r.into()])
        .unwrap();
    let d = g
        .add(
            PrimKind::Elementwise(EwFn::Binary(BinaryOp::Div)),
            vec![e.into(), b.into()],
        )
        .unwrap();
    let t = g
        .add(
            PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)),
            vec![x.into()],
        )
        .unwrap();
    let y = g
        .add(
            PrimKind::Elementwise(EwFn::Binary(BinaryOp::Add)),
            vec![d.into(), t.into()],
        )
        .unwrap();
    g.mark_output(y).unwrap();

    let (mut cands, profiler) = setup(&g);
    let variants = layout_variants(&g, &cands.kernels, &profiler);
    assert_eq!(variants.len(), cands.kernels.len());
    assert!(variants
        .iter()
        .all(|v| v.swapped_inputs.is_empty() && v.out_layout == TensorLayout::Standard));

    cands.seed_selections.clear();
    let (std_plan, std_report) = optimize(&g, &cands, None, &OptimizeConfig::default()).unwrap();
    let outcome = optimize_with_layouts(&g, &cands, &profiler, &LayoutConfig::default()).unwrap();
    assert_eq!(outcome.swapped_kernels, 0);
    assert_eq!(outcome.report.num_constraints, std_report.num_constraints);
    let members =
        |p: &korch::orch::Plan| -> Vec<_> { p.kernels.iter().map(|k| k.members.clone()).collect() };
    assert_eq!(members(&outcome.plan), members(&std_plan));
    let (layout_us, std_us) = (outcome.plan.total_latency.0, std_plan.total_latency.0);
    assert!(
        (layout_us - std_us).abs() <= 0.02 * std_us,
        "layout-aware {layout_us} vs standard {std_us}"
    );

    let x = Tensor::random(vec![n], 5);
    let reference = execute_prims(&g, std::slice::from_ref(&x)).unwrap();
    let out = execute_plan(&g, &outcome.plan, &[x]).unwrap();
    assert!(reference[0].allclose(&out[0], 1e-5));
}
