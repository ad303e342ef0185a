//! Intra-kernel tiling tests: decomposed kernels must execute
//! bit-identically to the sequential `execute_plan` interpreter across a
//! differential matrix of random tilable plans × tile sizes × lane
//! counts, the classifier must keep monolithic shapes whole, the tiling
//! mode must gate decomposition, and the buffer arena must conserve
//! (`live_bytes == 0`) after tiled runs — including runs a kernel failure
//! aborts while sibling tiles are in flight.
//!
//! Everything here asserts **structure** (bit-equality, tile counts,
//! conservation laws), never wall-clock speedup: CI runners are 1-core,
//! where lanes time-slice instead of overlapping.

use korch::cost::Micros;
use korch::exec::execute_plan;
use korch::ir::{EwFn, NodeId, PortRef, PrimGraph, PrimKind};
use korch::orch::Plan;
use korch::runtime::{PlanExecutor, RuntimeConfig, Tiling};
use korch::tensor::{BinaryOp, MatMulSpec, ReduceKind, UnaryOp};
use proptest::prelude::*;

mod common;
use common::{assert_bit_identical, kernel_of, plan_of, prim_random_inputs};

/// Forces every tile-eligible kernel to split regardless of its cost
/// estimate (`Tiling::Forced`), with an explicit tile size in grain rows
/// (`None` = one tile per lane).
fn tiling_config(lanes: usize, tile_rows: Option<usize>) -> RuntimeConfig {
    RuntimeConfig {
        tiling: Tiling::Forced { tile_rows },
        ..RuntimeConfig::with_lanes(lanes)
    }
}

/// One branch of a random tilable plan: a graph fragment compiled into a
/// single hand-built kernel of the given shape class.
#[derive(Debug, Clone)]
enum Branch {
    /// 2–4 member fused elementwise chain.
    Chain { ops: Vec<u8> },
    /// Single matmul member, optional transpose flags.
    MatMul { trans_a: bool, trans_b: bool },
    /// Single reduce member.
    Reduce { axis: usize, kind: u8 },
    /// Single broadcast member.
    Broadcast { axis: usize },
    /// Control: a monolithic transpose kernel mixed into the plan.
    Transpose,
}

fn arb_branch() -> impl Strategy<Value = Branch> {
    (
        (0u8..5, prop::collection::vec(0u8..6, 2..5)),
        (prop::bool::ANY, prop::bool::ANY, 0usize..3, 0u8..4),
    )
        .prop_map(
            |((selector, ops), (trans_a, trans_b, axis, kind))| match selector {
                0 => Branch::Chain { ops },
                1 => Branch::MatMul { trans_a, trans_b },
                2 => Branch::Reduce {
                    axis: axis % 2,
                    kind,
                },
                3 => Branch::Broadcast { axis },
                _ => Branch::Transpose,
            },
        )
}

fn ew_kind(code: u8) -> PrimKind {
    PrimKind::Elementwise(match code {
        0 => EwFn::Unary(UnaryOp::Tanh),
        1 => EwFn::Unary(UnaryOp::Sigmoid),
        2 => EwFn::Unary(UnaryOp::Exp),
        3 => EwFn::BinaryScalar(BinaryOp::Mul, 1.25),
        4 => EwFn::BinaryScalarLhs(BinaryOp::Sub, 0.75),
        _ => EwFn::Binary(BinaryOp::Add),
    })
}

fn reduce_kind(code: u8) -> ReduceKind {
    match code {
        0 => ReduceKind::Sum,
        1 => ReduceKind::Mean,
        2 => ReduceKind::Max,
        _ => ReduceKind::Min,
    }
}

/// Builds a multi-branch graph + plan where every branch is one kernel of
/// its class (independent branches: the plan shape where idle siblings
/// make splitting attractive).
fn build_plan(branches: &[Branch], rows: usize, cols: usize) -> (PrimGraph, Plan) {
    let mut g = PrimGraph::new();
    let mut kernels = Vec::new();
    for b in branches {
        match b {
            Branch::Chain { ops } => {
                let x = g
                    .add(
                        PrimKind::Input {
                            shape: vec![rows, cols],
                        },
                        vec![],
                    )
                    .unwrap();
                let mut members: Vec<NodeId> = Vec::new();
                let mut cur: PortRef = x.into();
                let mut prev: PortRef = x.into();
                for &code in ops {
                    let kind = ew_kind(code);
                    let inputs = if matches!(kind, PrimKind::Elementwise(EwFn::Binary(_))) {
                        vec![cur, prev]
                    } else {
                        vec![cur]
                    };
                    let n = g.add(kind, inputs).unwrap();
                    members.push(n);
                    prev = cur;
                    cur = n.into();
                }
                g.mark_output(cur.node).unwrap();
                kernels.push(kernel_of(&g, members, vec![cur]));
            }
            Branch::MatMul { trans_a, trans_b } => {
                let spec = MatMulSpec {
                    trans_a: *trans_a,
                    trans_b: *trans_b,
                };
                let a_shape = if *trans_a {
                    vec![cols, rows]
                } else {
                    vec![rows, cols]
                };
                let b_shape = if *trans_b {
                    vec![rows, cols]
                } else {
                    vec![cols, rows]
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
                kernels.push(kernel_of(&g, vec![mm], vec![mm.into()]));
            }
            Branch::Reduce { axis, kind } => {
                let x = g
                    .add(
                        PrimKind::Input {
                            shape: vec![rows, cols],
                        },
                        vec![],
                    )
                    .unwrap();
                let r = g
                    .add(
                        PrimKind::Reduce {
                            kind: reduce_kind(*kind),
                            axis: *axis,
                        },
                        vec![x.into()],
                    )
                    .unwrap();
                g.mark_output(r).unwrap();
                kernels.push(kernel_of(&g, vec![r], vec![r.into()]));
            }
            Branch::Broadcast { axis } => {
                let x = g
                    .add(
                        PrimKind::Input {
                            shape: vec![rows, cols],
                        },
                        vec![],
                    )
                    .unwrap();
                let b = g
                    .add(
                        PrimKind::Broadcast {
                            axis: *axis,
                            size: 3,
                        },
                        vec![x.into()],
                    )
                    .unwrap();
                g.mark_output(b).unwrap();
                kernels.push(kernel_of(&g, vec![b], vec![b.into()]));
            }
            Branch::Transpose => {
                let x = g
                    .add(
                        PrimKind::Input {
                            shape: vec![rows, cols],
                        },
                        vec![],
                    )
                    .unwrap();
                let t = g
                    .add(
                        PrimKind::Layout(korch::ir::LayoutFn::Transpose { perm: vec![1, 0] }),
                        vec![x.into()],
                    )
                    .unwrap();
                g.mark_output(t).unwrap();
                kernels.push(kernel_of(&g, vec![t], vec![t.into()]));
            }
        }
    }
    (g, plan_of(kernels))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance matrix: random tilable plans × tile sizes
    /// {1, 7, rows (single tile)} × lanes {1, 2, 4}, every combination
    /// bit-identical to `execute_plan` and arena-conserving.
    #[test]
    fn tiled_plans_are_bit_identical(
        branches in prop::collection::vec(arb_branch(), 1..4),
        rows in 4usize..24,
        cols in 4usize..24,
        seed in 0u64..1_000_000,
    ) {
        let (g, plan) = build_plan(&branches, rows, cols);
        let inputs = prim_random_inputs(&g, seed);
        let reference = execute_plan(&g, &plan, &inputs).unwrap();
        for lanes in [1usize, 2, 4] {
            for tile_rows in [Some(1usize), Some(7), Some(1 << 20), None] {
                let exec =
                    PlanExecutor::new(&g, &plan, tiling_config(lanes, tile_rows)).unwrap();
                for run in 0..2 {
                    let out = exec.execute(&inputs).unwrap();
                    assert_bit_identical(
                        &reference,
                        &out,
                        &format!("lanes={lanes} tile_rows={tile_rows:?} run={run}"),
                    );
                    prop_assert_eq!(
                        exec.arena_stats().live_bytes,
                        0,
                        "arena must settle after a tiled run (lanes={}, tile_rows={:?})",
                        lanes,
                        tile_rows
                    );
                }
            }
        }
    }
}

/// A single big compute-bound kernel — the exact long-pole shape tiling
/// exists for — must decompose into one tile per lane, keep its results
/// bit-identical, and report the decomposition through the profile.
/// Tile eligibility is a function of the plan and the config — the
/// requested lanes, not the host's cores — so this holds on any host.
#[test]
fn single_kernel_plan_splits_into_lane_tiles() {
    // 320×320 matmul: row-grain compute whose per-tile body clears the
    // per-tile overhead floor the derived threshold enforces (memory-bound
    // elementwise bodies no longer do — the assembly pass re-streams their
    // full output, see `default_threshold_keeps_large_elementwise_whole`).
    let (g, plan) = build_plan(
        &[Branch::MatMul {
            trans_a: false,
            trans_b: false,
        }],
        320,
        320,
    );
    let inputs = prim_random_inputs(&g, 11);
    let reference = execute_plan(&g, &plan, &inputs).unwrap();
    for lanes in [2usize, 4] {
        // Default (`Auto`) tiling: a single-kernel plan always exceeds its
        // lane share, so tiling engages without any explicit config.
        let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes)).unwrap();
        assert_eq!(exec.tileable_kernels(), 1);
        let runs = 3u64;
        for _ in 0..runs {
            let out = exec.execute(&inputs).unwrap();
            assert_bit_identical(&reference, &out, &format!("lanes={lanes}"));
            assert_eq!(exec.arena_stats().live_bytes, 0);
        }
        let profile = exec.profile();
        assert_eq!(
            profile.tiled_kernels, runs,
            "the kernel must decompose once per run at {lanes} lanes"
        );
        assert_eq!(
            profile.tile_tasks,
            runs * lanes as u64,
            "auto partition is one tile per lane at {lanes} lanes"
        );
        // Per-kernel stats see ONE whole-kernel sample per run (tile
        // durations summed), not one per tile.
        assert_eq!(profile.per_kernel[0].count, runs);
    }
}

/// Monolithic shapes must never split: layout kernels, softmax-style
/// fused kernels (mixed member kinds), and multi-output kernels all stay
/// whole even under forced tiling.
#[test]
fn monolithic_kernels_stay_whole() {
    let mut g = PrimGraph::new();
    let x = g
        .add(
            PrimKind::Input {
                shape: vec![32, 16],
            },
            vec![],
        )
        .unwrap();
    // Softmax-style fused kernel: elementwise + reduce + broadcast mix.
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
                axis: 1,
            },
            vec![e.into()],
        )
        .unwrap();
    let b = g
        .add(PrimKind::Broadcast { axis: 1, size: 16 }, vec![r.into()])
        .unwrap();
    let d = g
        .add(
            PrimKind::Elementwise(EwFn::Binary(BinaryOp::Div)),
            vec![e.into(), b.into()],
        )
        .unwrap();
    g.mark_output(d).unwrap();
    // Layout kernel.
    let t = g
        .add(
            PrimKind::Layout(korch::ir::LayoutFn::Transpose { perm: vec![1, 0] }),
            vec![d.into()],
        )
        .unwrap();
    g.mark_output(t).unwrap();
    // Multi-output elementwise kernel: chain-shaped but exports two
    // ports, so tiles cannot write one disjoint buffer.
    let u = g
        .add(
            PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)),
            vec![x.into()],
        )
        .unwrap();
    let v = g
        .add(
            PrimKind::Elementwise(EwFn::Unary(UnaryOp::Sigmoid)),
            vec![u.into()],
        )
        .unwrap();
    g.mark_output(u).unwrap();
    g.mark_output(v).unwrap();
    let kernels = vec![
        kernel_of(&g, vec![e, r, b, d], vec![d.into()]),
        kernel_of(&g, vec![t], vec![t.into()]),
        kernel_of(&g, vec![u, v], vec![u.into(), v.into()]),
    ];
    let plan = plan_of(kernels);
    let inputs = prim_random_inputs(&g, 7);
    let reference = execute_plan(&g, &plan, &inputs).unwrap();
    let exec = PlanExecutor::new(&g, &plan, tiling_config(4, None)).unwrap();
    assert_eq!(
        exec.tileable_kernels(),
        0,
        "no kernel in this plan splits safely"
    );
    let out = exec.execute(&inputs).unwrap();
    assert_bit_identical(&reference, &out, "monolithic plan");
    let profile = exec.profile();
    assert_eq!(profile.tiled_kernels, 0);
    assert_eq!(profile.tile_tasks, 0);
}

/// The tiling mode gates decomposition: `Off` keeps everything whole,
/// `Forced` (or `Auto` on a long-pole kernel) splits.
#[test]
fn split_threshold_and_switch_gate_tiling() {
    let (g, plan) = build_plan(&[Branch::Chain { ops: vec![0, 1] }], 48, 48);
    let never = RuntimeConfig {
        tiling: Tiling::Off,
        ..RuntimeConfig::with_lanes(4)
    };
    assert_eq!(
        PlanExecutor::new(&g, &plan, never)
            .unwrap()
            .tileable_kernels(),
        0
    );
    let forced = PlanExecutor::new(&g, &plan, tiling_config(4, None)).unwrap();
    assert_eq!(forced.tileable_kernels(), 1);
    // Single-lane configs never tile (nothing to overlap with).
    let single = PlanExecutor::new(&g, &plan, tiling_config(1, None)).unwrap();
    assert_eq!(single.tileable_kernels(), 0);
}

/// With plenty of independent whole kernels ready, inter-kernel
/// parallelism already fills the lanes and eligible kernels must NOT
/// split — the "sibling lanes idle" run-time condition.
#[test]
fn splitting_defers_to_inter_kernel_parallelism() {
    let branches: Vec<Branch> = (0..8).map(|_| Branch::Chain { ops: vec![0, 2] }).collect();
    let (g, plan) = build_plan(&branches, 32, 32);
    let inputs = prim_random_inputs(&g, 23);
    let reference = execute_plan(&g, &plan, &inputs).unwrap();
    let exec = PlanExecutor::new(&g, &plan, tiling_config(2, None)).unwrap();
    assert_eq!(
        exec.tileable_kernels(),
        8,
        "every kernel is eligible under a zero threshold"
    );
    let out = exec.execute(&inputs).unwrap();
    assert_bit_identical(&reference, &out, "wide plan");
    let profile = exec.profile();
    assert!(
        profile.tiled_kernels < 8,
        "8 seeded kernels on 2 lanes must mostly run whole, got {} decompositions",
        profile.tiled_kernels
    );
}

/// A kernel failure racing in-flight tiles must unwind every lane and
/// leave the arena settled: the tiled kernel's finished chunks (parked
/// but never assembled) are drained by the run's settlement.
#[test]
fn kernel_failure_mid_tiling_conserves_arena() {
    let mut g = PrimGraph::new();
    let shape = vec![48usize, 48];
    let x = g
        .add(
            PrimKind::Input {
                shape: shape.clone(),
            },
            vec![],
        )
        .unwrap();
    let big = g
        .add(
            PrimKind::Elementwise(EwFn::Unary(UnaryOp::Sigmoid)),
            vec![x.into()],
        )
        .unwrap();
    g.mark_output(big).unwrap();
    let opaque = g
        .add(
            PrimKind::Opaque {
                name: "external".into(),
                out_shapes: vec![shape.clone()],
            },
            vec![x.into()],
        )
        .unwrap();
    g.mark_output(opaque).unwrap();
    let kernels = vec![
        kernel_of(&g, vec![big], vec![big.into()]),
        kernel_of(&g, vec![opaque], vec![PortRef::from(opaque)]),
    ];
    let plan = plan_of(kernels);
    let inputs = prim_random_inputs(&g, 3);
    for lanes in [2usize, 4] {
        for tile_rows in [Some(1usize), Some(7), None] {
            let exec = PlanExecutor::new(&g, &plan, tiling_config(lanes, tile_rows)).unwrap();
            assert_eq!(exec.tileable_kernels(), 1, "the sigmoid kernel is eligible");
            for run in 0..5 {
                let err = exec.execute(&inputs);
                assert!(err.is_err(), "opaque kernel must fail (run {run})");
                assert_eq!(
                    exec.arena_stats().live_bytes,
                    0,
                    "failed tiled runs must settle the arena \
                     (lanes={lanes}, tile_rows={tile_rows:?}, run={run})"
                );
            }
        }
    }
}

/// Matmul tiles split only at output-row boundaries; single-row tiles are
/// the finest legal partition and must stay bit-identical, including
/// under transpose flags.
#[test]
fn matmul_row_tiles_are_bit_identical() {
    for (trans_a, trans_b) in [(false, false), (true, false), (false, true), (true, true)] {
        let (g, plan) = build_plan(&[Branch::MatMul { trans_a, trans_b }], 40, 24);
        let inputs = prim_random_inputs(&g, 31);
        let reference = execute_plan(&g, &plan, &inputs).unwrap();
        for lanes in [2usize, 4] {
            let exec = PlanExecutor::new(&g, &plan, tiling_config(lanes, Some(1))).unwrap();
            let out = exec.execute(&inputs).unwrap();
            assert_bit_identical(
                &reference,
                &out,
                &format!("matmul ta={trans_a} tb={trans_b} lanes={lanes}"),
            );
            let profile = exec.profile();
            assert_eq!(
                profile.tile_tasks, 40,
                "one tile per output row (ta={trans_a} tb={trans_b})"
            );
            assert_eq!(exec.arena_stats().live_bytes, 0);
        }
    }
}

/// Reduce kernels tile over their *output* space for every axis and
/// kind — each output element keeps its full sequential accumulation, so
/// even the reduced axis itself never re-associates.
#[test]
fn reduce_tiles_are_bit_identical_for_both_axes() {
    for axis in [0usize, 1] {
        for kind in 0u8..4 {
            let (g, plan) = build_plan(&[Branch::Reduce { axis, kind }], 20, 18);
            let inputs = prim_random_inputs(&g, 41);
            let reference = execute_plan(&g, &plan, &inputs).unwrap();
            let exec = PlanExecutor::new(&g, &plan, tiling_config(4, Some(3))).unwrap();
            let out = exec.execute(&inputs).unwrap();
            assert_bit_identical(&reference, &out, &format!("reduce axis={axis} kind={kind}"));
            assert!(exec.profile().tile_tasks > 1);
        }
    }
}

/// The threshold prices from the plan's cost estimates: of two kernels
/// in one plan, only the one whose estimate exceeds the per-lane share
/// is eligible under the derived default.
#[test]
fn derived_threshold_prices_kernels_against_lane_share() {
    let mut g = PrimGraph::new();
    // Big kernel: 320×320 matmul (clears both the lane share and the
    // per-tile overhead floor). Small kernel: 8×8 elementwise.
    let a = g
        .add(
            PrimKind::Input {
                shape: vec![320, 320],
            },
            vec![],
        )
        .unwrap();
    let b = g
        .add(
            PrimKind::Input {
                shape: vec![320, 320],
            },
            vec![],
        )
        .unwrap();
    let big = g
        .add(
            PrimKind::Linear(korch::ir::LinearFn::MatMul {
                spec: MatMulSpec::new(),
            }),
            vec![a.into(), b.into()],
        )
        .unwrap();
    g.mark_output(big).unwrap();
    let y = g
        .add(PrimKind::Input { shape: vec![8, 8] }, vec![])
        .unwrap();
    let small = g
        .add(
            PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)),
            vec![y.into()],
        )
        .unwrap();
    g.mark_output(small).unwrap();
    let kernels = vec![
        kernel_of(&g, vec![big], vec![big.into()]),
        kernel_of(&g, vec![small], vec![small.into()]),
    ];
    let plan = plan_of(kernels);
    let big_latency = plan.kernels[0].latency;
    let small_latency: Micros = plan.kernels[1].latency;
    assert!(big_latency.0 > small_latency.0);
    let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(2)).unwrap();
    // Share = total/2; the big kernel dominates the total, so only it
    // clears the bar.
    assert_eq!(
        exec.tileable_kernels(),
        1,
        "only the dominant kernel may exceed its lane share"
    );
    // Forced tiling bypasses the lane share and the floor: both tile.
    let forced = PlanExecutor::new(&g, &plan, tiling_config(2, None)).unwrap();
    assert_eq!(forced.tileable_kernels(), 2, "zero threshold tiles both");
}

/// Regression pin for the PR-8 slowdown: a 192×192 matmul — the
/// benchmark shape that ran 0.91× when split — must stay whole under the
/// derived default threshold. Its per-tile body time does not clear the
/// per-tile overhead floor, so splitting could only add dispatch cost.
/// Forced tiling still splits it (the differential suites rely on that),
/// so only the *default* policy is pinned here.
/// Regression pin for the elementwise mispricing: a single 768×768
/// fused elementwise chain — the benchmark shape that ran 0.96× when
/// split — must stay whole under the derived default. Its body is
/// memory-bound, so the assembly pass re-streams the full output through
/// the same saturated bus and the floor now charges every byte of it;
/// the compiled whole-kernel closure wins. Forced tiling still splits it
/// (the differential suites rely on that).
#[test]
fn default_threshold_keeps_large_elementwise_whole() {
    let (g, plan) = build_plan(&[Branch::Chain { ops: vec![2, 0] }], 768, 768);
    let inputs = prim_random_inputs(&g, 13);
    let reference = execute_plan(&g, &plan, &inputs).unwrap();
    let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(4)).unwrap();
    assert_eq!(
        exec.tileable_kernels(),
        0,
        "768² elementwise chain must not split at the default threshold: \
         assembly re-streams its full memory-bound output"
    );
    let out = exec.execute(&inputs).unwrap();
    assert_bit_identical(&reference, &out, "whole-kernel elementwise 768");
    assert_eq!(exec.profile().tile_tasks, 0);
    // The machinery still splits it when told to.
    let forced = PlanExecutor::new(&g, &plan, tiling_config(4, None)).unwrap();
    assert_eq!(forced.tileable_kernels(), 1);
}

#[test]
fn default_threshold_keeps_small_matmul_whole() {
    let (g, plan) = build_plan(
        &[Branch::MatMul {
            trans_a: false,
            trans_b: false,
        }],
        192,
        192,
    );
    let inputs = prim_random_inputs(&g, 17);
    let reference = execute_plan(&g, &plan, &inputs).unwrap();
    let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(4)).unwrap();
    assert_eq!(
        exec.tileable_kernels(),
        0,
        "dim-192 matmul must not split at the default threshold: \
         per-tile body below the overhead floor"
    );
    let out = exec.execute(&inputs).unwrap();
    assert_bit_identical(&reference, &out, "whole-kernel matmul 192");
    assert_eq!(exec.profile().tile_tasks, 0);
}
