//! Coverage for the extended operator set (Clip, HardSigmoid, HardSwish,
//! GlobalAvgPool, Squeeze, Unsqueeze): fission vs reference semantics, and
//! end-to-end orchestration.

use korch::core::{Korch, KorchConfig};
use korch::cost::Device;
use korch::exec::{execute_ops, execute_prims};
use korch::fission::fission;
use korch::ir::{OpGraph, OpKind, PortRef};
use korch::tensor::Tensor;

fn unary_graph(shape: Vec<usize>, op: OpKind) -> OpGraph {
    let mut g = OpGraph::new();
    let x = g.add(OpKind::Input { shape }, vec![]).unwrap();
    let y = g.add(op, vec![x.into()]).unwrap();
    g.mark_output(y).unwrap();
    g
}

fn check_fission_equivalence(g: &OpGraph, input: Tensor) {
    let reference = execute_ops(g, std::slice::from_ref(&input)).unwrap();
    let f = fission(g).unwrap();
    let out = execute_prims(&f.prim_graph, &[input]).unwrap();
    for (r, o) in reference.iter().zip(&out) {
        assert!(r.allclose(o, 1e-5), "fission diverged");
    }
}

#[test]
fn clip_matches_reference() {
    let g = unary_graph(
        vec![4, 8],
        OpKind::Clip {
            min: -0.5,
            max: 0.5,
        },
    );
    let x = Tensor::random(vec![4, 8], 1);
    check_fission_equivalence(&g, x.clone());
    let out = execute_ops(&g, &[x]).unwrap();
    assert!(out[0].as_slice().iter().all(|&v| (-0.5..=0.5).contains(&v)));
}

#[test]
fn hard_sigmoid_matches_reference() {
    let g = unary_graph(vec![16], OpKind::HardSigmoid);
    let x = Tensor::from_vec(vec![16], (0..16).map(|i| i as f32 - 8.0).collect()).unwrap();
    check_fission_equivalence(&g, x.clone());
    let out = execute_ops(&g, &[x]).unwrap();
    let s = out[0].as_slice();
    assert_eq!(s[0], 0.0); // -8 clamps to 0
    assert_eq!(s[15], 1.0); // +7 clamps to 1
    assert!((s[8] - 0.5).abs() < 1e-6); // x = 0 -> 1/2
}

#[test]
fn hard_swish_matches_reference() {
    let g = unary_graph(vec![32], OpKind::HardSwish);
    check_fission_equivalence(&g, Tensor::random(vec![32], 2));
}

#[test]
fn global_avg_pool_matches_reference() {
    let g = unary_graph(vec![2, 3, 4, 4], OpKind::GlobalAvgPool);
    let x = Tensor::random(vec![2, 3, 4, 4], 3);
    check_fission_equivalence(&g, x.clone());
    let out = execute_ops(&g, std::slice::from_ref(&x)).unwrap();
    assert_eq!(out[0].shape(), &[2, 3, 1, 1]);
    // hand-check one channel mean
    let ch = x.slice(&[1, 2, 0, 0], &[2, 3, 4, 4]).unwrap();
    let mean: f32 = ch.as_slice().iter().sum::<f32>() / 16.0;
    assert!((out[0].at(&[1, 2, 0, 0]) - mean).abs() < 1e-5);
}

#[test]
fn squeeze_unsqueeze_roundtrip() {
    let mut g = OpGraph::new();
    let x = g
        .add(
            OpKind::Input {
                shape: vec![2, 1, 5],
            },
            vec![],
        )
        .unwrap();
    let s = g.add(OpKind::Squeeze { axis: 1 }, vec![x.into()]).unwrap();
    let u = g
        .add(OpKind::Unsqueeze { axis: 0 }, vec![s.into()])
        .unwrap();
    g.mark_output(u).unwrap();
    assert_eq!(g.meta(PortRef::from(u)).shape(), &[1, 2, 5]);
    check_fission_equivalence(&g, Tensor::random(vec![2, 1, 5], 4));
}

#[test]
fn squeeze_rejects_non_unit_axis() {
    let mut g = OpGraph::new();
    let x = g.add(OpKind::Input { shape: vec![2, 3] }, vec![]).unwrap();
    assert!(g.add(OpKind::Squeeze { axis: 1 }, vec![x.into()]).is_err());
    assert!(g.add(OpKind::Squeeze { axis: 5 }, vec![x.into()]).is_err());
}

#[test]
fn mobilenet_style_block_optimizes_end_to_end() {
    // A MobileNetV3-flavoured block: conv -> hardswish -> depthwise ->
    // squeeze-excite-ish (global pool + clip) -> residual.
    let mut g = OpGraph::new();
    let x = g
        .add(
            OpKind::Input {
                shape: vec![1, 8, 8, 8],
            },
            vec![],
        )
        .unwrap();
    let w1 = g
        .add(
            OpKind::Constant {
                shape: vec![8, 8, 1, 1],
                init: korch::ir::ConstInit::Random(1),
            },
            vec![],
        )
        .unwrap();
    let c1 = g
        .add(
            OpKind::Conv2d {
                stride: 1,
                padding: 0,
                groups: 1,
                bias: false,
            },
            vec![x.into(), w1.into()],
        )
        .unwrap();
    let hs = g.add(OpKind::HardSwish, vec![c1.into()]).unwrap();
    let gap = g.add(OpKind::GlobalAvgPool, vec![hs.into()]).unwrap();
    let gate = g.add(OpKind::HardSigmoid, vec![gap.into()]).unwrap();
    let scaled = g.add(OpKind::Mul, vec![hs.into(), gate.into()]).unwrap();
    let out = g.add(OpKind::Add, vec![scaled.into(), x.into()]).unwrap();
    g.mark_output(out).unwrap();

    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let (optimized, err) = korch.optimize_verified(&g, 7).unwrap();
    assert!(err < 1e-4, "block diverged: {err}");
    assert!(
        optimized.kernel_count() < 8,
        "expected fusion, got {}",
        optimized.kernel_count()
    );
}

// --- second-wave operators: GeluTanh, Elu, PRelu, LogSoftmax, GroupNorm,
// --- RmsNorm, Gemm ---

#[test]
fn gelu_tanh_matches_reference() {
    let g = unary_graph(vec![64], OpKind::GeluTanh);
    let x = Tensor::random(vec![64], 11);
    check_fission_equivalence(&g, x.clone());
    // The tanh approximation tracks the erf form to ~1e-3 on small inputs.
    let erf_g = unary_graph(vec![64], OpKind::Gelu);
    let approx = execute_ops(&g, std::slice::from_ref(&x)).unwrap();
    let exact = execute_ops(&erf_g, &[x]).unwrap();
    assert!(approx[0].allclose(&exact[0], 5e-3), "approximation drifted");
}

#[test]
fn elu_matches_reference() {
    for alpha in [0.5, 1.0, 2.0] {
        let g = unary_graph(vec![64], OpKind::Elu { alpha });
        let x =
            Tensor::from_vec(vec![64], (0..64).map(|i| (i as f32 - 32.0) / 8.0).collect()).unwrap();
        check_fission_equivalence(&g, x.clone());
        let out = execute_ops(&g, &[x]).unwrap();
        let s = out[0].as_slice();
        assert!((s[0] - alpha * ((-4.0f32).exp() - 1.0)).abs() < 1e-6);
        assert_eq!(s[40], 1.0); // positive side is identity
    }
}

#[test]
fn prelu_matches_reference_with_channel_slopes() {
    // slope is per-channel [1, C, 1, 1] broadcast over NCHW.
    let mut g = OpGraph::new();
    let x = g
        .add(
            OpKind::Input {
                shape: vec![2, 3, 4, 4],
            },
            vec![],
        )
        .unwrap();
    let slope = g
        .add(
            OpKind::Input {
                shape: vec![1, 3, 1, 1],
            },
            vec![],
        )
        .unwrap();
    let p = g.add(OpKind::PRelu, vec![x.into(), slope.into()]).unwrap();
    g.mark_output(p).unwrap();
    let xv = Tensor::random(vec![2, 3, 4, 4], 5);
    let sv = Tensor::from_vec(vec![1, 3, 1, 1], vec![0.1, 0.2, 0.3]).unwrap();
    let reference = execute_ops(&g, &[xv.clone(), sv.clone()]).unwrap();
    let f = fission(&g).unwrap();
    let out = execute_prims(&f.prim_graph, &[xv.clone(), sv]).unwrap();
    assert!(reference[0].allclose(&out[0], 1e-5));
    // spot check: negative entry in channel 1 is scaled by 0.2
    let v = xv.at(&[0, 1, 0, 0]);
    let expect = if v > 0.0 { v } else { 0.2 * v };
    assert!((reference[0].at(&[0, 1, 0, 0]) - expect).abs() < 1e-6);
}

#[test]
fn prelu_rejects_widening_slope() {
    let mut g = OpGraph::new();
    let x = g.add(OpKind::Input { shape: vec![3, 1] }, vec![]).unwrap();
    let slope = g.add(OpKind::Input { shape: vec![3, 4] }, vec![]).unwrap();
    assert!(g.add(OpKind::PRelu, vec![x.into(), slope.into()]).is_err());
}

#[test]
fn log_softmax_matches_reference() {
    let g = unary_graph(vec![4, 16], OpKind::LogSoftmax { axis: 1 });
    let x = Tensor::random(vec![4, 16], 6);
    check_fission_equivalence(&g, x.clone());
    // exp(log_softmax) sums to one per row.
    let out = execute_ops(&g, &[x]).unwrap();
    for row in 0..4 {
        let sum: f32 = (0..16).map(|c| out[0].at(&[row, c]).exp()).sum();
        assert!((sum - 1.0).abs() < 1e-5, "row {row} sums to {sum}");
    }
}

#[test]
fn group_norm_matches_reference() {
    for groups in [1, 2, 4] {
        let mut g = OpGraph::new();
        let x = g
            .add(
                OpKind::Input {
                    shape: vec![2, 4, 3, 3],
                },
                vec![],
            )
            .unwrap();
        let s = g
            .add(
                OpKind::Constant {
                    shape: vec![4],
                    init: korch::ir::ConstInit::Fill(1.5),
                },
                vec![],
            )
            .unwrap();
        let b = g
            .add(
                OpKind::Constant {
                    shape: vec![4],
                    init: korch::ir::ConstInit::Fill(-0.25),
                },
                vec![],
            )
            .unwrap();
        let gn = g
            .add(
                OpKind::GroupNorm { groups, eps: 1e-5 },
                vec![x.into(), s.into(), b.into()],
            )
            .unwrap();
        g.mark_output(gn).unwrap();
        check_fission_equivalence(&g, Tensor::random(vec![2, 4, 3, 3], 7));
    }
}

#[test]
fn group_norm_with_one_group_equals_flattened_layer_stats() {
    // groups == C: per-channel statistics — must agree with InstanceNorm.
    let mk = |kind: OpKind| {
        let mut g = OpGraph::new();
        let x = g
            .add(
                OpKind::Input {
                    shape: vec![1, 4, 5, 5],
                },
                vec![],
            )
            .unwrap();
        let s = g
            .add(
                OpKind::Constant {
                    shape: vec![4],
                    init: korch::ir::ConstInit::Ones,
                },
                vec![],
            )
            .unwrap();
        let b = g
            .add(
                OpKind::Constant {
                    shape: vec![4],
                    init: korch::ir::ConstInit::Zeros,
                },
                vec![],
            )
            .unwrap();
        let n = g.add(kind, vec![x.into(), s.into(), b.into()]).unwrap();
        g.mark_output(n).unwrap();
        g
    };
    let x = Tensor::random(vec![1, 4, 5, 5], 8);
    let gn = execute_ops(
        &mk(OpKind::GroupNorm {
            groups: 4,
            eps: 1e-5,
        }),
        std::slice::from_ref(&x),
    )
    .unwrap();
    let inorm = execute_ops(&mk(OpKind::InstanceNorm { eps: 1e-5 }), &[x]).unwrap();
    assert!(gn[0].allclose(&inorm[0], 1e-5));
}

#[test]
fn group_norm_validates_divisibility() {
    let mut g = OpGraph::new();
    let x = g
        .add(
            OpKind::Input {
                shape: vec![1, 6, 2, 2],
            },
            vec![],
        )
        .unwrap();
    let s = g.add(OpKind::Input { shape: vec![6] }, vec![]).unwrap();
    let b = g.add(OpKind::Input { shape: vec![6] }, vec![]).unwrap();
    assert!(g
        .add(
            OpKind::GroupNorm {
                groups: 4,
                eps: 1e-5
            },
            vec![x.into(), s.into(), b.into()]
        )
        .is_err());
    assert!(g
        .add(
            OpKind::GroupNorm {
                groups: 0,
                eps: 1e-5
            },
            vec![x.into(), s.into(), b.into()]
        )
        .is_err());
}

#[test]
fn rms_norm_matches_reference() {
    let mut g = OpGraph::new();
    let x = g
        .add(
            OpKind::Input {
                shape: vec![3, 7, 16],
            },
            vec![],
        )
        .unwrap();
    let s = g.add(OpKind::Input { shape: vec![16] }, vec![]).unwrap();
    let n = g
        .add(OpKind::RmsNorm { eps: 1e-6 }, vec![x.into(), s.into()])
        .unwrap();
    g.mark_output(n).unwrap();
    let xv = Tensor::random(vec![3, 7, 16], 9);
    let sv = Tensor::random(vec![16], 10);
    let reference = execute_ops(&g, &[xv.clone(), sv.clone()]).unwrap();
    let f = fission(&g).unwrap();
    let out = execute_prims(&f.prim_graph, &[xv.clone(), sv.clone()]).unwrap();
    assert!(reference[0].allclose(&out[0], 1e-5));
    // hand-check one row against the definition
    let row: Vec<f32> = (0..16).map(|d| xv.at(&[1, 2, d])).collect();
    let ms: f32 = row.iter().map(|v| v * v).sum::<f32>() / 16.0;
    let expect = row[3] / (ms + 1e-6).sqrt() * sv.at(&[3]);
    assert!((reference[0].at(&[1, 2, 3]) - expect).abs() < 1e-5);
}

#[test]
fn gemm_matches_reference() {
    for (ta, tb, alpha, beta) in [
        (false, false, 1.0, 1.0),
        (true, false, 0.5, 2.0),
        (false, true, 2.0, 0.0),
    ] {
        let mut g = OpGraph::new();
        let a_shape = if ta { vec![8, 4] } else { vec![4, 8] };
        let b_shape = if tb { vec![6, 8] } else { vec![8, 6] };
        let a = g
            .add(
                OpKind::Input {
                    shape: a_shape.clone(),
                },
                vec![],
            )
            .unwrap();
        let b = g
            .add(
                OpKind::Input {
                    shape: b_shape.clone(),
                },
                vec![],
            )
            .unwrap();
        let c = g.add(OpKind::Input { shape: vec![6] }, vec![]).unwrap();
        let gm = g
            .add(
                OpKind::Gemm {
                    alpha,
                    beta,
                    trans_a: ta,
                    trans_b: tb,
                },
                vec![a.into(), b.into(), c.into()],
            )
            .unwrap();
        g.mark_output(gm).unwrap();
        assert_eq!(g.meta(PortRef::from(gm)).shape(), &[4, 6]);
        let av = Tensor::random(a_shape, 20);
        let bv = Tensor::random(b_shape, 21);
        let cv = Tensor::random(vec![6], 22);
        let reference = execute_ops(&g, &[av.clone(), bv.clone(), cv.clone()]).unwrap();
        let f = fission(&g).unwrap();
        let out = execute_prims(&f.prim_graph, &[av, bv, cv]).unwrap();
        assert!(
            reference[0].allclose(&out[0], 1e-4),
            "gemm ta={ta} tb={tb} a={alpha} b={beta} diverged"
        );
    }
}

#[test]
fn new_ops_orchestrate_end_to_end() {
    // RMSNorm -> GeluTanh -> Gemm: a Llama-flavoured block tail.
    let mut g = OpGraph::new();
    let x = g
        .add(
            OpKind::Input {
                shape: vec![16, 32],
            },
            vec![],
        )
        .unwrap();
    let s = g
        .add(
            OpKind::Constant {
                shape: vec![32],
                init: korch::ir::ConstInit::Ones,
            },
            vec![],
        )
        .unwrap();
    let n = g
        .add(OpKind::RmsNorm { eps: 1e-6 }, vec![x.into(), s.into()])
        .unwrap();
    let act = g.add(OpKind::GeluTanh, vec![n.into()]).unwrap();
    let w = g
        .add(
            OpKind::Constant {
                shape: vec![32, 8],
                init: korch::ir::ConstInit::Random(3),
            },
            vec![],
        )
        .unwrap();
    let cbias = g
        .add(
            OpKind::Constant {
                shape: vec![8],
                init: korch::ir::ConstInit::Random(4),
            },
            vec![],
        )
        .unwrap();
    let out = g
        .add(
            OpKind::Gemm {
                alpha: 1.0,
                beta: 1.0,
                trans_a: false,
                trans_b: false,
            },
            vec![act.into(), w.into(), cbias.into()],
        )
        .unwrap();
    g.mark_output(out).unwrap();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let (optimized, err) = korch.optimize_verified(&g, 13).unwrap();
    assert!(err < 1e-4, "diverged: {err}");
    // The norm + activation should fuse rather than run one-per-primitive.
    assert!(
        optimized.kernel_count() <= 6,
        "got {} kernels",
        optimized.kernel_count()
    );
}
