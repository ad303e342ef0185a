//! Differential suite for the compiled kernel bodies (PR 8): specialized
//! fused-chain closures and the packed/blocked matmul microkernel must be
//! **bit-identical** to the sequential `execute_plan` interpreter —
//! whole-kernel and tiled, across random chain shapes and op mixes,
//! every matmul transpose variant, tile sizes straddling the register
//! block ({1, MR−1, MR, MR+1, all rows}, MR = `MATMUL_MR`) × lanes
//! {1, 2, 4}, and across a `recalibrate` plan swap. The weight-only
//! members `PlanExecutor::new` folds into constants are held to the same
//! law: a folded bias under a chain, an exported or graph-output
//! weight-only port, `Opaque` over a constant, a folded node two kernels
//! share, and the stitched Segformer-tiny program.
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

/// A `[64, 32]` graph input and `bcast(c)`, the `[32]` constant `c`
/// stretched over 64 rows: a per-channel bias as fission leaves it.
fn input_and_bias(g: &mut PrimGraph) -> (NodeId, NodeId, NodeId) {
    let x = g
        .add(
            PrimKind::Input {
                shape: vec![64, 32],
            },
            vec![],
        )
        .unwrap();
    let c = g
        .add(
            PrimKind::Constant {
                shape: vec![32],
                init: korch::ir::ConstInit::Random(7),
            },
            vec![],
        )
        .unwrap();
    let b = g
        .add(PrimKind::Broadcast { axis: 0, size: 64 }, vec![c.into()])
        .unwrap();
    (x, c, b)
}

fn binary(g: &mut PrimGraph, op: BinaryOp, a: NodeId, b: NodeId) -> NodeId {
    g.add(
        PrimKind::Elementwise(EwFn::Binary(op)),
        vec![a.into(), b.into()],
    )
    .unwrap()
}

/// Runs `plan` at 1 and 2 lanes whole and at 2 lanes force-tiled (8
/// rows and one tile per lane), twice each: bit-identical to
/// `execute_plan` — or failing where it fails — with the arena back at
/// zero live bytes after every run. Returns the executors.
fn folded_runs(g: &PrimGraph, plan: &Plan) -> Vec<PlanExecutor> {
    let inputs = prim_random_inputs(g, 3);
    let reference = execute_plan(g, plan, &inputs);
    let configs = [
        whole_config(1),
        whole_config(2),
        tiled_config(2, Some(8)),
        tiled_config(2, None),
    ];
    configs
        .into_iter()
        .map(|config| {
            let ctx = format!("lanes {} tiling {:?}", config.lanes, config.tiling);
            let exec = PlanExecutor::new(g, plan, config).unwrap();
            for run in 0..2 {
                match (&reference, exec.execute(&inputs)) {
                    (Ok(want), Ok(got)) => {
                        assert_bit_identical(want, &got, &format!("{ctx} run {run}"))
                    }
                    (Err(_), Err(_)) => {}
                    (want, got) => panic!("{ctx} run {run}: {want:?} but {got:?}"),
                }
                assert_eq!(exec.arena_stats().live_bytes, 0, "{ctx} run {run}");
            }
            exec
        })
        .collect()
}

/// The slot of `node`'s port 0, if the executor gave it one.
fn slot_of(exec: &PlanExecutor, node: NodeId) -> Option<&korch::runtime::SlotInfo> {
    let port = PortRef::from(node);
    exec.slot_table().slots.iter().find(|s| s.port == port)
}

/// `x + bcast(c)` in one kernel: the broadcast is folded, its port is a
/// pinned source slot with no planned buffer, `c` — read by the fold alone — has no
/// slot, and what runs is a one-member chain that tiles.
#[test]
fn a_folded_bias_leaves_a_chain_that_tiles() {
    let mut g = PrimGraph::new();
    let (x, c, b) = input_and_bias(&mut g);
    let y = binary(&mut g, BinaryOp::Add, x, b);
    g.mark_output(y).unwrap();
    let plan = plan_of(vec![kernel_of(&g, vec![b, y], vec![y.into()])]);
    for exec in folded_runs(&g, &plan) {
        assert_eq!(exec.folded(), [b]);
        assert!(slot_of(&exec, c).is_none(), "only the fold reads c");
        let bias = slot_of(&exec, b).expect("the kernel reads the folded port");
        assert!(
            bias.source && bias.pinned && bias.buffer.is_none(),
            "{bias:?}"
        );
        assert_eq!(bias.readers, 1);
        if exec.lane_count() == 2 {
            assert_eq!(exec.tileable_kernels(), 1, "the chain tiles");
        }
    }
}

/// A weight-only port one kernel exports and another reads is not folded
/// — the exporter still computes it every run, from the folded broadcast
/// under it — and the reader keeps its dependency edge.
#[test]
fn an_exported_weight_only_port_still_runs() {
    let mut g = PrimGraph::new();
    let (x, _, b) = input_and_bias(&mut g);
    let s = g
        .add(
            PrimKind::Elementwise(EwFn::BinaryScalar(BinaryOp::Mul, 1.5)),
            vec![b.into()],
        )
        .unwrap();
    let y = binary(&mut g, BinaryOp::Add, x, s);
    g.mark_output(y).unwrap();
    let plan = plan_of(vec![
        kernel_of(&g, vec![b, s], vec![s.into()]),
        kernel_of(&g, vec![y], vec![y.into()]),
    ]);
    for exec in folded_runs(&g, &plan) {
        assert_eq!(exec.folded(), [b]);
        assert_eq!(exec.kernel_dependencies(), [vec![], vec![0]]);
        assert!(!slot_of(&exec, s).unwrap().source);
    }
}

/// A weight-only graph output is computed by its kernel every run and
/// handed out like any other output; the broadcast under it folds.
#[test]
fn a_weight_only_graph_output_is_not_folded() {
    let mut g = PrimGraph::new();
    let (x, _, b) = input_and_bias(&mut g);
    let e = g
        .add(
            PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp)),
            vec![b.into()],
        )
        .unwrap();
    let y = binary(&mut g, BinaryOp::Mul, x, e);
    g.mark_output(e).unwrap();
    g.mark_output(y).unwrap();
    let plan = plan_of(vec![kernel_of(&g, vec![b, e, y], vec![e.into(), y.into()])]);
    for exec in folded_runs(&g, &plan) {
        assert_eq!(exec.folded(), [b]);
        assert!(slot_of(&exec, e).unwrap().pinned);
    }
}

/// `Opaque` over a constant is not folded: compile succeeds and every run
/// fails where `execute_plan` fails, settling the arena.
#[test]
fn opaque_over_a_constant_still_fails_at_run_time() {
    let mut g = PrimGraph::new();
    let (x, _, b) = input_and_bias(&mut g);
    let o = g
        .add(
            PrimKind::Opaque {
                name: "external".into(),
                out_shapes: vec![vec![64, 32]],
            },
            vec![b.into()],
        )
        .unwrap();
    let y = binary(&mut g, BinaryOp::Add, x, o);
    g.mark_output(y).unwrap();
    let plan = plan_of(vec![kernel_of(&g, vec![b, o, y], vec![y.into()])]);
    let inputs = prim_random_inputs(&g, 3);
    assert!(execute_plan(&g, &plan, &inputs).is_err());
    for exec in folded_runs(&g, &plan) {
        assert_eq!(exec.folded(), [b], "the broadcast under it still folds");
        assert!(exec.execute(&inputs).is_err());
    }
}

/// One weight-only node two kernels share is folded once: both read its
/// one slot.
#[test]
fn a_weight_only_node_two_kernels_share_is_folded_once() {
    let mut g = PrimGraph::new();
    let (x, _, b) = input_and_bias(&mut g);
    let y1 = binary(&mut g, BinaryOp::Add, x, b);
    let y2 = binary(&mut g, BinaryOp::Mul, x, b);
    g.mark_output(y1).unwrap();
    g.mark_output(y2).unwrap();
    let plan = plan_of(vec![
        kernel_of(&g, vec![b, y1], vec![y1.into()]),
        kernel_of(&g, vec![b, y2], vec![y2.into()]),
    ]);
    for exec in folded_runs(&g, &plan) {
        assert_eq!(exec.folded(), [b]);
        assert_eq!(slot_of(&exec, b).unwrap().readers, 2);
    }
}

/// The stitched Segformer-tiny executor folds: some source slots hold
/// non-source nodes (each folded, pinned, with no planned buffer), and
/// no slot is left
/// for a constant only folded members read.
#[test]
fn segformer_tiny_folds_its_weight_only_members() {
    let graph = korch::models::segformer(korch::models::SegformerConfig::tiny());
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let compiled = korch.compile(&graph).unwrap();
    let exec = &compiled.partitions()[0].executor;
    let g = exec.graph();
    let folded = exec.folded();
    let table = exec.slot_table();
    let mut folded_slots = 0;
    for slot in table.slots.iter().filter(|s| s.source) {
        if !g.node(slot.port.node).kind.is_source() {
            assert!(folded.contains(&slot.port.node), "{slot:?}");
            assert!(slot.pinned && slot.buffer.is_none(), "{slot:?}");
            folded_slots += 1;
        }
    }
    assert!(folded_slots > 0, "no folded port has a slot");
    let mut fold_only = 0;
    for (c, node) in g.iter() {
        if !matches!(node.kind, PrimKind::Constant { .. }) {
            continue;
        }
        let mut readers = g
            .iter()
            .filter(|(_, n)| n.inputs.iter().any(|r| r.node == c))
            .peekable();
        if readers.peek().is_some() && readers.all(|(r, _)| folded.contains(&r)) {
            assert!(slot_of(exec, c).is_none(), "constant {} keeps a slot", c.0);
            fold_only += 1;
        }
    }
    assert!(fold_only > 0, "no constant is read by folded members alone");
    let inputs = op_random_inputs(&graph, 9);
    let reference = compiled.execute(&inputs).unwrap();
    let interpreted = execute_plan(g, exec.plan(), &inputs).unwrap();
    assert_bit_identical(&interpreted, &reference, "segformer-tiny");
}

/// What each run of `exec` allocates by design, in bytes: the graph
/// outputs the run hands the caller, which its state cannot have back
/// (a source output is a constant or the caller's own input). Every
/// other buffer a warm run writes is a planned buffer of its state.
fn fresh_by_design(exec: &PlanExecutor) -> u64 {
    let table = exec.slot_table();
    (exec.graph().outputs().iter())
        .filter_map(|o| table.slots.iter().find(|s| s.port == *o))
        .filter(|s| !s.source)
        .map(|s| s.bytes())
        .sum()
}

/// Runs `exec` five times, then twenty more that must each be
/// bit-identical to `reference`, settle the arena and allocate exactly
/// `fresh` bytes. Everything a run books but the outputs it hands out
/// comes from its state's plan, placed at compile for every schedule
/// the executor can pick, so a warm run misses nothing at any lane
/// count: the bytes the state holds stay what its first run made them.
fn assert_warm_fresh(
    exec: &PlanExecutor,
    inputs: &[Tensor],
    reference: &[Tensor],
    fresh: u64,
    ctx: &str,
) {
    for _ in 0..5 {
        exec.execute(inputs).unwrap();
    }
    for run in 0..20 {
        let before = exec.arena_stats();
        let out = exec.execute(inputs).unwrap();
        let after = exec.arena_stats();
        assert_bit_identical(reference, &out, &format!("{ctx} run {run}"));
        assert_eq!(after.live_bytes, 0, "{ctx} run {run}");
        let allocated = after.fresh_bytes - before.fresh_bytes;
        assert_eq!(allocated, fresh, "{ctx} run {run}");
    }
}

/// The stitched Segformers and Candy at one and two lanes: a warm run
/// allocates the outputs it hands the caller and nothing else — every
/// walk step, pad, resize and concat included, writes into a planned
/// buffer of its state.
#[test]
fn warm_runs_allocate_only_handed_outputs() {
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let segformer64 = korch::models::SegformerConfig {
        resolution: 64,
        batch: 1,
        dims: vec![16, 32],
        blocks: 1,
        sr_ratios: vec![2, 1],
        decoder_dim: 32,
    };
    let candy32 = korch::models::CandyConfig {
        resolution: 32,
        width: 8,
        residual_blocks: 0,
    };
    for (name, graph) in [
        (
            "segformer32",
            korch::models::segformer(korch::models::SegformerConfig::tiny()),
        ),
        ("segformer64", korch::models::segformer(segformer64)),
        ("candy32", korch::models::candy(candy32)),
    ] {
        let compiled = korch.compile(&graph).unwrap();
        let stitched = &compiled.partitions()[0].executor;
        let (g, plan) = (stitched.graph(), stitched.plan());
        let inputs = op_random_inputs(&graph, 4);
        let reference = execute_plan(g, plan, &inputs).unwrap();
        let out_bytes: usize = reference.iter().map(Tensor::byte_size).sum();
        for lanes in [1, 2] {
            let exec = PlanExecutor::new(g, plan, RuntimeConfig::with_lanes(lanes)).unwrap();
            let handed = fresh_by_design(&exec);
            assert_eq!(handed, out_bytes as u64, "{name}");
            assert!(exec.memory_report().state_bytes > 0, "{name}");
            let ctx = format!("{name} lanes {lanes}");
            assert_warm_fresh(&exec, &inputs, &reference, handed, &ctx);
        }
    }
}

/// One walk kernel of every kind of step — a conv, a copying and an
/// aliasing reshape, a transpose, a matmul, a reduce, a broadcast,
/// elementwise members, a pad, a pool, a resize, a slice, a three-part
/// concat and a split whose first chunk is read in the walk and whose
/// second is exported — exporting five ports, one of them twice. With
/// `opaque`, an `Opaque` member follows them, so the walk fails mid-way
/// after its first export buffers were written.
fn converted_walk(opaque: bool) -> (PrimGraph, Plan) {
    use korch::ir::LayoutFn;
    let mut g = PrimGraph::new();
    let mut add = |kind: PrimKind, inputs: &[PortRef]| g.add(kind, inputs.to_vec()).unwrap();
    let x = add(
        PrimKind::Input {
            shape: vec![2, 4, 6, 6],
        },
        &[],
    );
    let w = add(
        PrimKind::Constant {
            shape: vec![8, 4, 3, 3],
            init: korch::ir::ConstInit::Random(3),
        },
        &[],
    );
    let conv = korch::ir::LinearFn::Conv2d {
        stride: 1,
        padding: 1,
        groups: 1,
    };
    let c = add(PrimKind::Linear(conv), &[x.into(), w.into()]);
    let reshape = |shape: Vec<usize>| PrimKind::Layout(LayoutFn::Reshape { shape });
    let r = add(reshape(vec![2, 8, 36]), &[c.into()]);
    let t = add(
        PrimKind::Layout(LayoutFn::Transpose {
            perm: vec![0, 2, 1],
        }),
        &[r.into()],
    );
    let spec = MatMulSpec::new();
    let m = add(
        PrimKind::Linear(korch::ir::LinearFn::MatMul { spec }),
        &[t.into(), r.into()],
    );
    let sum = korch::tensor::ReduceKind::Sum;
    let red = add(PrimKind::Reduce { kind: sum, axis: 2 }, &[m.into()]);
    let b = add(PrimKind::Broadcast { axis: 2, size: 36 }, &[red.into()]);
    let div = PrimKind::Elementwise(EwFn::Binary(BinaryOp::Div));
    let d = add(div, &[m.into(), b.into()]);
    let q = add(reshape(vec![2, 1296]), &[b.into()]);
    let tanh = PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh));
    let mut last = add(tanh, &[q.into()]);
    let pad = LayoutFn::Pad {
        before: vec![0, 0, 1, 1],
        after: vec![0, 0, 1, 1],
        value: -0.5,
    };
    let p = add(PrimKind::Layout(pad), &[c.into()]);
    let pool = PrimKind::WindowReduce {
        spec: korch::tensor::PoolSpec::new(2, 2),
        kind: korch::tensor::ReduceKind::Max,
    };
    let pl = add(pool, &[p.into()]);
    let resize = LayoutFn::Resize {
        out_h: 6,
        out_w: 6,
        mode: korch::tensor::ResizeMode::Bilinear,
    };
    let rs = add(PrimKind::Layout(resize), &[pl.into()]);
    let slice = LayoutFn::Slice {
        starts: vec![0, 0, 1, 1],
        ends: vec![2, 8, 7, 7],
    };
    let sl = add(PrimKind::Layout(slice), &[p.into()]);
    let concat = PrimKind::Layout(LayoutFn::Concat { axis: 1 });
    let cc = add(concat, &[rs.into(), sl.into(), c.into()]);
    let split = LayoutFn::Split {
        axis: 1,
        sizes: vec![16, 8],
    };
    let sp = add(PrimKind::Layout(split), &[cc.into()]);
    let neg = PrimKind::Elementwise(EwFn::Unary(UnaryOp::Neg));
    let z = add(neg, &[PortRef { node: sp, port: 0 }]);
    let mut members = vec![c, r, t, m, red, b, d, q, last, p, pl, rs, sl, cc, sp, z];
    if opaque {
        let o = PrimKind::Opaque {
            name: "external".into(),
            out_shapes: vec![vec![2, 1296]],
        };
        last = add(o, &[last.into()]);
        members.push(last);
    }
    let chunk = PortRef { node: sp, port: 1 };
    for port in [d.into(), last.into(), chunk, z.into()] {
        g.mark_output(port).unwrap();
    }
    // `m` is exported but no graph output: its buffer is planned.
    let outputs = vec![d.into(), last.into(), chunk, z.into(), d.into(), m.into()];
    let kernel = kernel_of(&g, members, outputs);
    (g, plan_of(vec![kernel]))
}

/// A walk of every kind of step allocates nothing by design but the
/// outputs it hands the caller, at one and two lanes, bit-identically.
#[test]
fn a_walk_of_converted_steps_allocates_only_what_it_hands_out() {
    let (g, plan) = converted_walk(false);
    let inputs = prim_random_inputs(&g, 6);
    let reference = execute_plan(&g, &plan, &inputs).unwrap();
    for lanes in [1, 2] {
        let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes)).unwrap();
        let handed = fresh_by_design(&exec);
        let out_bytes: usize = reference.iter().map(Tensor::byte_size).sum();
        assert_eq!(handed, out_bytes as u64);
        let ctx = format!("converted walk lanes {lanes}");
        assert_warm_fresh(&exec, &inputs, &reference, handed, &ctx);
    }
}

/// A walk that fails mid-way fails every run where `execute_plan`
/// fails, settles the books, and gives every buffer it took back to its
/// state's plan: the export `m`, which no run hands out, to its planned
/// place, and each graph output to a place of its own that a successful
/// run would have emptied. The first failing run allocates the state and
/// those outputs; from the second on, a failing run takes every booking
/// from the plan again and allocates nothing.
#[test]
fn a_walk_failing_mid_way_returns_its_export_buffers() {
    let (g, plan) = converted_walk(true);
    let inputs = prim_random_inputs(&g, 6);
    assert!(execute_plan(&g, &plan, &inputs).is_err());
    for lanes in [1, 2] {
        let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes)).unwrap();
        let table = exec.slot_table();
        let m = table.write_bufs[0][5].expect("m's buffer is planned");
        assert!(
            !table.handed_out()[m],
            "lanes {lanes}: m is no graph output"
        );
        let state = exec.memory_report().state_bytes;
        assert!(state >= table.buffers[m] as u64 * 4, "lanes {lanes}");
        // The staged input and the five distinct exports.
        let bookings = 1 + 5;
        for run in 0..6 {
            let before = exec.arena_stats();
            assert!(exec.execute(&inputs).is_err(), "lanes {lanes} run {run}");
            let after = exec.arena_stats();
            assert_eq!(after.live_bytes, 0, "lanes {lanes} run {run}");
            let fresh = after.fresh_bytes - before.fresh_bytes;
            let hits = after.reuse_hits - before.reuse_hits;
            if run == 0 {
                assert_eq!(fresh, state + fresh_by_design(&exec), "lanes {lanes}");
                assert_eq!(hits, 2, "lanes {lanes}: the input and m");
            } else {
                assert_eq!(fresh, 0, "lanes {lanes} run {run}");
                assert_eq!(hits, bookings, "lanes {lanes} run {run}");
            }
        }
    }
}

/// Two threads calling `execute` on one executor at once, 200 runs
/// each: every run is bit-identical to `execute_plan` — the concurrent
/// runs take turns over the recycled states, each with its own buffers —
/// and the books settle.
#[test]
fn two_callers_share_one_executor_bit_identically() {
    let (g, plan) = converted_walk(false);
    let inputs = prim_random_inputs(&g, 8);
    let reference = execute_plan(&g, &plan, &inputs).unwrap();
    for lanes in [1, 2] {
        let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes)).unwrap();
        std::thread::scope(|scope| {
            for caller in 0..2 {
                let (exec, inputs, reference) = (&exec, &inputs, &reference);
                scope.spawn(move || {
                    for run in 0..200 {
                        let out = exec.execute(inputs).unwrap();
                        let ctx = format!("lanes {lanes} caller {caller} run {run}");
                        assert_bit_identical(reference, &out, &ctx);
                    }
                });
            }
        });
        assert_eq!(exec.arena_stats().live_bytes, 0, "lanes {lanes}");
    }
}
