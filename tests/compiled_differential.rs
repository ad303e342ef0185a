//! Differential suite for the compiled kernel bodies (PR 8): specialized
//! fused-chain closures and the packed/blocked matmul microkernel must be
//! **bit-identical** to the sequential `execute_plan` interpreter —
//! whole-kernel and tiled, across random chain shapes and op mixes,
//! every matmul transpose variant, tile sizes straddling the register
//! block ({1, MR−1, MR, MR+1, all rows}, MR = `MATMUL_MR`) × lanes
//! {1, 2, 4}, and across a `recalibrate` plan swap.
//!
//! Everything here asserts bytes and conservation laws, never wall-clock:
//! CI runners are 1-core, where lanes time-slice instead of overlapping.

use korch::core::{Korch, KorchConfig};
use korch::cost::Device;
use korch::exec::execute_plan;
use korch::ir::{EwFn, NodeId, OpGraph, OpKind, PortRef, PrimGraph, PrimKind};
use korch::orch::Plan;
use korch::runtime::{PlanExecutor, RuntimeConfig, Tiling};
use korch::tensor::{BinaryOp, MatMulSpec, Tensor, UnaryOp};
use proptest::prelude::*;

mod common;
use common::{assert_bit_identical, kernel_of, op_random_inputs, plan_of, prim_random_inputs};

/// Forces whole-kernel execution: every kernel runs the untiled path
/// (which dispatches chains through their compiled closure).
fn whole_config(lanes: usize) -> RuntimeConfig {
    RuntimeConfig {
        tiling: Tiling::Off,
        ..RuntimeConfig::with_lanes(lanes)
    }
}

/// Tile-row sweep straddling the register-blocked microkernel's row
/// group: {1, MR−1, MR, MR+1} hit the remainder path on both sides of a
/// full MR-row group, `1 << 20` collapses to one tile, `None` derives one
/// tile per lane. Keeping the sizes MR-relative means the sweep keeps
/// straddling the group boundary if MR is retuned.
fn tile_row_sweep() -> [Option<usize>; 6] {
    const MR: usize = korch::tensor::MATMUL_MR;
    [
        Some(1),
        Some(MR - 1),
        Some(MR),
        Some(MR + 1),
        Some(1 << 20),
        None,
    ]
}

/// Forces tiled execution with an explicit tile size in grain rows
/// (`None` = one tile per lane).
fn tiled_config(lanes: usize, tile_rows: Option<usize>) -> RuntimeConfig {
    RuntimeConfig {
        tiling: Tiling::Forced { tile_rows },
        ..RuntimeConfig::with_lanes(lanes)
    }
}

/// Builds a single-kernel fused elementwise chain from op codes, shaped to
/// exercise every `CompiledChain` register pattern: unary, scalar forms,
/// binary against an earlier member (`cur, prev`), squaring (`cur, cur` —
/// the same source port twice), and binary against a second external
/// input (`cur, ext`).
fn chain_plan(ops: &[u8], rows: usize, cols: usize) -> (PrimGraph, Plan) {
    let mut g = PrimGraph::new();
    let shape = vec![rows, cols];
    let x = g
        .add(
            PrimKind::Input {
                shape: shape.clone(),
            },
            vec![],
        )
        .unwrap();
    let ext = g.add(PrimKind::Input { shape }, vec![]).unwrap();
    let mut members: Vec<NodeId> = Vec::new();
    let mut cur: PortRef = x.into();
    let mut prev: PortRef = x.into();
    for &code in ops {
        let (kind, inputs) = match code % 8 {
            0 => (PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)), vec![cur]),
            1 => (PrimKind::Elementwise(EwFn::Unary(UnaryOp::Abs)), vec![cur]),
            2 => (PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp)), vec![cur]),
            3 => (
                PrimKind::Elementwise(EwFn::BinaryScalar(BinaryOp::Mul, 1.25)),
                vec![cur],
            ),
            4 => (
                PrimKind::Elementwise(EwFn::BinaryScalarLhs(BinaryOp::Sub, 0.75)),
                vec![cur],
            ),
            5 => (
                PrimKind::Elementwise(EwFn::Binary(BinaryOp::Add)),
                vec![cur, prev],
            ),
            6 => (
                PrimKind::Elementwise(EwFn::Binary(BinaryOp::Mul)),
                vec![cur, cur],
            ),
            _ => (
                PrimKind::Elementwise(EwFn::Binary(BinaryOp::Sub)),
                vec![cur, ext.into()],
            ),
        };
        let n = g.add(kind, inputs).unwrap();
        members.push(n);
        prev = cur;
        cur = n.into();
    }
    g.mark_output(cur.node).unwrap();
    let kernel = kernel_of(&g, members, vec![cur]);
    (g, plan_of(vec![kernel]))
}

/// A single-kernel matmul plan with the given transpose flags; `rows` ×
/// `inner` output of `rows` rows (`inner` ≠ multiple of the microkernel's
/// column block exercises the remainder path).
fn matmul_plan(trans_a: bool, trans_b: bool, rows: usize, inner: usize) -> (PrimGraph, Plan) {
    let mut g = PrimGraph::new();
    let spec = MatMulSpec { trans_a, trans_b };
    let a_shape = if trans_a {
        vec![inner, rows]
    } else {
        vec![rows, inner]
    };
    let b_shape = if trans_b {
        vec![rows, inner]
    } else {
        vec![inner, rows]
    };
    let a = g.add(PrimKind::Input { shape: a_shape }, vec![]).unwrap();
    let b = g.add(PrimKind::Input { shape: b_shape }, vec![]).unwrap();
    let mm = g
        .add(
            PrimKind::Linear(korch::ir::LinearFn::MatMul { spec }),
            vec![a.into(), b.into()],
        )
        .unwrap();
    g.mark_output(mm).unwrap();
    let kernel = kernel_of(&g, vec![mm], vec![mm.into()]);
    (g, plan_of(vec![kernel]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random fused chains: the compiled closure must reproduce the
    /// interpreter's bytes whole-kernel (untiled fast path) and under
    /// every tile size × lane combination, and the arena must settle.
    #[test]
    fn compiled_chains_match_the_interpreter(
        ops in prop::collection::vec(0u8..8, 1..7),
        rows in 3usize..20,
        cols in 3usize..20,
        seed in 0u64..1_000_000,
    ) {
        let (g, plan) = chain_plan(&ops, rows, cols);
        let inputs = prim_random_inputs(&g, seed);
        let reference = execute_plan(&g, &plan, &inputs).unwrap();
        for lanes in [1usize, 2, 4] {
            let whole = PlanExecutor::new(&g, &plan, whole_config(lanes)).unwrap();
            prop_assert_eq!(whole.tileable_kernels(), 0);
            let out = whole.execute(&inputs).unwrap();
            assert_bit_identical(&reference, &out, &format!("whole lanes={lanes} ops={ops:?}"));
            prop_assert_eq!(whole.arena_stats().live_bytes, 0);
            for tile_rows in tile_row_sweep() {
                let exec =
                    PlanExecutor::new(&g, &plan, tiled_config(lanes, tile_rows)).unwrap();
                let out = exec.execute(&inputs).unwrap();
                assert_bit_identical(
                    &reference,
                    &out,
                    &format!("tiled lanes={lanes} tile_rows={tile_rows:?} ops={ops:?}"),
                );
                prop_assert_eq!(exec.arena_stats().live_bytes, 0);
            }
        }
    }
}

/// Every matmul transpose variant through the packed/blocked microkernel:
/// whole-kernel (pack feeds `Tensor::matmul`) and row-tiled (one shared
/// `PackedB` across tiles), bit-identical to the interpreter. 40×24 with
/// inner dim 24: not a multiple of the 32-column block, so the remainder
/// path runs too.
#[test]
fn packed_matmul_matches_the_interpreter_under_transposes() {
    for (trans_a, trans_b) in [(false, false), (true, false), (false, true), (true, true)] {
        let (g, plan) = matmul_plan(trans_a, trans_b, 40, 24);
        let inputs = prim_random_inputs(&g, 31);
        let reference = execute_plan(&g, &plan, &inputs).unwrap();
        for lanes in [1usize, 2, 4] {
            let whole = PlanExecutor::new(&g, &plan, whole_config(lanes)).unwrap();
            let out = whole.execute(&inputs).unwrap();
            assert_bit_identical(
                &reference,
                &out,
                &format!("whole matmul ta={trans_a} tb={trans_b} lanes={lanes}"),
            );
            for tile_rows in tile_row_sweep() {
                let exec = PlanExecutor::new(&g, &plan, tiled_config(lanes, tile_rows)).unwrap();
                let out = exec.execute(&inputs).unwrap();
                assert_bit_identical(
                    &reference,
                    &out,
                    &format!(
                        "tiled matmul ta={trans_a} tb={trans_b} \
                         lanes={lanes} tile_rows={tile_rows:?}"
                    ),
                );
                assert_eq!(exec.arena_stats().live_bytes, 0);
            }
        }
    }
}

/// A mixed plan — compiled chain, packed matmul, and a monolithic
/// transpose control — stays bit-identical when everything eligible is
/// forced to split and runs interleaved across lanes.
#[test]
fn mixed_compiled_plan_is_bit_identical() {
    let mut g = PrimGraph::new();
    let mut kernels = Vec::new();
    // Chain kernel.
    let x = g
        .add(
            PrimKind::Input {
                shape: vec![33, 17],
            },
            vec![],
        )
        .unwrap();
    let e = g
        .add(
            PrimKind::Elementwise(EwFn::BinaryScalar(BinaryOp::Mul, 1.5)),
            vec![x.into()],
        )
        .unwrap();
    let sq = g
        .add(
            PrimKind::Elementwise(EwFn::Binary(BinaryOp::Mul)),
            vec![e.into(), e.into()],
        )
        .unwrap();
    g.mark_output(sq).unwrap();
    kernels.push(kernel_of(&g, vec![e, sq], vec![sq.into()]));
    // Matmul kernel.
    let a = g
        .add(
            PrimKind::Input {
                shape: vec![33, 19],
            },
            vec![],
        )
        .unwrap();
    let b = g
        .add(
            PrimKind::Input {
                shape: vec![19, 21],
            },
            vec![],
        )
        .unwrap();
    let mm = g
        .add(
            PrimKind::Linear(korch::ir::LinearFn::MatMul {
                spec: MatMulSpec::new(),
            }),
            vec![a.into(), b.into()],
        )
        .unwrap();
    g.mark_output(mm).unwrap();
    kernels.push(kernel_of(&g, vec![mm], vec![mm.into()]));
    // Monolithic control.
    let t = g
        .add(
            PrimKind::Layout(korch::ir::LayoutFn::Transpose { perm: vec![1, 0] }),
            vec![x.into()],
        )
        .unwrap();
    g.mark_output(t).unwrap();
    kernels.push(kernel_of(&g, vec![t], vec![t.into()]));
    let plan = plan_of(kernels);
    let inputs = prim_random_inputs(&g, 5);
    let reference = execute_plan(&g, &plan, &inputs).unwrap();
    for lanes in [2usize, 4] {
        for tile_rows in [
            Some(1usize),
            Some(korch::tensor::MATMUL_MR - 1),
            Some(korch::tensor::MATMUL_MR + 1),
            None,
        ] {
            let exec = PlanExecutor::new(&g, &plan, tiled_config(lanes, tile_rows)).unwrap();
            assert_eq!(
                exec.tileable_kernels(),
                2,
                "chain + matmul split; transpose stays"
            );
            for run in 0..2 {
                let out = exec.execute(&inputs).unwrap();
                assert_bit_identical(
                    &reference,
                    &out,
                    &format!("mixed lanes={lanes} tile_rows={tile_rows:?} run={run}"),
                );
                assert_eq!(exec.arena_stats().live_bytes, 0);
            }
        }
    }
}

/// The compiled paths survive a `recalibrate` plan swap: a model with a
/// matmul and a fused activation chain keeps producing the same bytes
/// before and after the orchestrator re-plans from fitted costs — as one
/// partition and cut into one partition per primitive, where the swap
/// re-orchestrates each partition and re-stitches the program.
#[test]
fn recalibrated_plans_stay_bit_identical() {
    let mut g = OpGraph::new();
    let x = g
        .add(
            OpKind::Input {
                shape: vec![48, 48],
            },
            vec![],
        )
        .unwrap();
    let w = g
        .add(
            OpKind::Input {
                shape: vec![48, 48],
            },
            vec![],
        )
        .unwrap();
    let mm = g.add(OpKind::MatMul, vec![x.into(), w.into()]).unwrap();
    let r = g
        .add(OpKind::Unary(UnaryOp::Relu), vec![mm.into()])
        .unwrap();
    let t = g.add(OpKind::Unary(UnaryOp::Tanh), vec![r.into()]).unwrap();
    g.mark_output(t).unwrap();
    let inputs = op_random_inputs(&g, 13);
    for (partition_max_prims, partitions) in [(28, 1), (1, 3)] {
        let config = KorchConfig {
            partition_max_prims,
            ..Default::default()
        };
        let korch = Korch::new(Device::v100(), config);
        let optimized = korch.optimize(&g).unwrap();
        assert_eq!(optimized.stats().partitions, partitions);
        let reference = optimized.execute(&inputs).unwrap();
        for lanes in [1usize, 2, 4, 8] {
            let ctx = format!("{partitions} partition(s), lanes={lanes}");
            let compiled = korch
                .compile_with(&g, &RuntimeConfig::with_lanes(lanes))
                .unwrap();
            for _ in 0..3 {
                let out = compiled.execute(&inputs).unwrap();
                assert_bit_identical(&reference, &out, &format!("{ctx} pre-swap"));
            }
            let report = compiled.recalibrate().unwrap();
            // The fit is only asserted to help on the whole-model cut: one
            // primitive per partition leaves tiny memory-bound kernels whose
            // wall times `Calibration::fit` does not reliably tighten.
            if partitions == 1 {
                assert!(report.model_error_after <= report.model_error_before + 1e-9);
            }
            for _ in 0..3 {
                let out = compiled.execute(&inputs).unwrap();
                assert_bit_identical(&reference, &out, &format!("{ctx} post-swap"));
            }
        }
    }
}

/// `Tensor::matmul` itself (the whole-kernel entry the untiled executor
/// and interpreter share) agrees with a verbatim naive contraction on an
/// awkward shape — the integration-level restatement of the microkernel's
/// bit-identity contract.
#[test]
fn whole_matmul_matches_naive_contraction() {
    let (m, k, n) = (13usize, 37, 41);
    let a = Tensor::random(vec![m, k], 101);
    let b = Tensor::random(vec![k, n], 102);
    let out = a.matmul(&b, MatMulSpec::new()).unwrap();
    let mut naive = vec![0.0f32; m * n];
    let (av, bv) = (a.as_slice(), b.as_slice());
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                let x = av[i * k + p];
                if x == 0.0 {
                    continue;
                }
                acc += x * bv[p * n + j];
            }
            naive[i * n + j] = acc;
        }
    }
    assert_eq!(
        out.as_slice(),
        &naive[..],
        "blocked matmul diverged from naive order"
    );
}
