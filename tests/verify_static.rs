//! Static-verifier integration tests: the verifier accepts every
//! artifact the toolchain compiles, rejects programmatically corrupted
//! artifacts with violations naming the offending kernel/buffer, proves
//! the atomic-protocol models exhaustively, and gates `recalibrate`'s
//! plan swap in debug builds.

use korch::core::{Korch, KorchConfig};
use korch::cost::Device;
use korch::ir::{ConstInit, EwFn, NodeId, PortRef, PrimGraph, PrimKind};
use korch::models::subgraphs::{instance_norm_block, softmax_attention};
use korch::orch::Plan;
use korch::runtime::{PlanExecutor, RuntimeConfig, TileBodyKind, TileLayout, Tiling};
use korch::tensor::{BinaryOp, Tensor, UnaryOp};
use korch::verify::{
    models::verify_protocols, verify_executor, verify_lifetimes, verify_plan, LifetimeProgram,
    PlanArtifact, Rule,
};

mod common;
use common::{assert_bit_identical, kernel_of, model_graph, plan_of};

/// `input → a(relu) → b(exp) → c(a+b)`, one kernel per node: the small
/// diamond every mutation test corrupts.
fn diamond() -> (PrimGraph, Plan, [NodeId; 3]) {
    let mut g = PrimGraph::new();
    let x = g
        .add(PrimKind::Input { shape: vec![4, 8] }, vec![])
        .unwrap();
    let a = g
        .add(
            PrimKind::Elementwise(EwFn::Unary(UnaryOp::Relu)),
            vec![x.into()],
        )
        .unwrap();
    let b = g
        .add(
            PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp)),
            vec![a.into()],
        )
        .unwrap();
    let c = g
        .add(
            PrimKind::Elementwise(EwFn::Binary(BinaryOp::Add)),
            vec![a.into(), b.into()],
        )
        .unwrap();
    g.mark_output(c).unwrap();
    let plan = plan_of(vec![
        kernel_of(&g, vec![a], vec![a.into()]),
        kernel_of(&g, vec![b], vec![b.into()]),
        kernel_of(&g, vec![c], vec![c.into()]),
    ]);
    (g, plan, [a, b, c])
}

fn compiled_artifact(g: &PrimGraph, plan: &Plan, lanes: usize) -> PlanArtifact {
    let exec = PlanExecutor::new(g, plan, RuntimeConfig::with_lanes(lanes)).unwrap();
    PlanArtifact::from_executor(&exec)
}

/// The diamond's lifetime program as the executor compiled it, and the
/// index of buffer `a` in it.
fn compiled_program(g: &PrimGraph, plan: &Plan, a: NodeId) -> (LifetimeProgram, usize) {
    let program = LifetimeProgram::from_slots(&compiled_artifact(g, plan, 2).slots);
    let a_port = PortRef::from(a);
    let idx = program.ports.iter().position(|p| p.port == a_port);
    (program, idx.expect("buffer a is tracked"))
}

#[test]
fn compiled_artifacts_are_accepted() {
    for graph in [
        softmax_attention(32, 32),
        instance_norm_block(2, 8),
        model_graph(),
    ] {
        let korch = Korch::new(Device::v100(), KorchConfig::default());
        let optimized = korch.optimize(&graph).unwrap();
        for part in optimized.partitions() {
            for lanes in [1, 2, 4] {
                for tiling in [false, true] {
                    let config = RuntimeConfig {
                        tiling: if tiling { Tiling::Auto } else { Tiling::Off },
                        ..RuntimeConfig::with_lanes(lanes)
                    };
                    let exec = PlanExecutor::new(&part.part.graph, &part.plan, config).unwrap();
                    let violations = verify_executor(&exec);
                    assert!(
                        violations.is_empty(),
                        "lanes {lanes} tiling {tiling}: {violations:?}"
                    );
                }
            }
        }
    }
}

/// Mutation: dropping a dependency edge from the compiled artifact must
/// be rejected as a missing dependency naming the reader kernel.
#[test]
fn dropped_dep_edge_is_rejected() {
    let (g, plan, _) = diamond();
    let mut art = compiled_artifact(&g, &plan, 2);
    assert!(verify_plan(&g, &plan, &art).is_empty(), "baseline accepts");
    assert!(art.deps[2].contains(&1), "kernel 2 depends on kernel 1");
    art.deps[2].retain(|&d| d != 1);
    let violations = verify_plan(&g, &plan, &art);
    let v = violations
        .iter()
        .find(|v| v.rule == Rule::MissingDependency)
        .expect("missing-dependency violation");
    assert_eq!(v.kernel, Some(2), "blames the reader kernel");
    assert!(v.detail.contains("kernel 1"), "{}", v.detail);
}

/// Mutation: overlapping two tile ranges must break the partition
/// exactness check, naming the tiled kernel and its output buffer.
#[test]
fn overlapping_tile_ranges_are_rejected() {
    let (g, plan, [_, b, _]) = diamond();
    let mut art = compiled_artifact(&g, &plan, 2);
    art.tiles[1] = Some(TileLayout {
        body: TileBodyKind::Single(b),
        tiles: vec![0..20, 16..32],
        out_shape: vec![4, 8],
        grain: 1,
    });
    let violations = verify_plan(&g, &plan, &art);
    let v = violations
        .iter()
        .find(|v| v.rule == Rule::TilePartitionBroken)
        .expect("tile-partition-broken violation");
    assert_eq!(v.kernel, Some(1));
    assert_eq!(v.buffer.as_deref(), Some(format!("{}:0", b.0).as_str()));
    // The same corrupted layout with a disjoint-and-covering partition is
    // accepted: it is the overlap that was caught, not the layout per se.
    art.tiles[1] = Some(TileLayout {
        body: TileBodyKind::Single(b),
        tiles: vec![0..20, 20..32],
        out_shape: vec![4, 8],
        grain: 1,
    });
    assert!(verify_plan(&g, &plan, &art).is_empty());
}

/// Mutation: marking a multi-output kernel tile-eligible must be
/// rejected as unsound eligibility.
#[test]
fn multi_output_kernel_cannot_be_tile_eligible() {
    let (g, _, [a, b, c]) = diamond();
    // One kernel computes {a, b} and exports both ports; c reads them.
    let plan = plan_of(vec![
        kernel_of(&g, vec![a, b], vec![a.into(), b.into()]),
        kernel_of(&g, vec![c], vec![c.into()]),
    ]);
    let mut art = compiled_artifact(&g, &plan, 2);
    assert!(verify_plan(&g, &plan, &art).is_empty(), "baseline accepts");
    art.tiles[0] = Some(TileLayout {
        body: TileBodyKind::ElementwiseChain,
        tiles: vec![0..16, 16..32],
        out_shape: vec![4, 8],
        grain: 1,
    });
    let violations = verify_plan(&g, &plan, &art);
    let v = violations
        .iter()
        .find(|v| v.rule == Rule::TileEligibilityUnsound)
        .expect("tile-eligibility-unsound violation");
    assert_eq!(v.kernel, Some(0));
    assert!(v.detail.contains("2 outputs"), "{}", v.detail);
}

/// `x[64, 32] + bcast(c[32])` in one kernel, force-tiled at 8 rows over 2
/// lanes: the executor folds the broadcast and tiles the one-member chain
/// left, and runs it bit-identically. The verifier reads the folded set
/// off the artifact and accepts; an artifact that drops it is rejected,
/// naming the broadcast as a non-elementwise member.
#[test]
fn a_chain_over_a_folded_broadcast_verifies() {
    let mut g = PrimGraph::new();
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
                init: ConstInit::Random(7),
            },
            vec![],
        )
        .unwrap();
    let b = g
        .add(PrimKind::Broadcast { axis: 0, size: 64 }, vec![c.into()])
        .unwrap();
    let y = g
        .add(
            PrimKind::Elementwise(EwFn::Binary(BinaryOp::Add)),
            vec![x.into(), b.into()],
        )
        .unwrap();
    g.mark_output(y).unwrap();
    let plan = plan_of(vec![kernel_of(&g, vec![b, y], vec![y.into()])]);
    let config = RuntimeConfig {
        tiling: Tiling::Forced { tile_rows: Some(8) },
        ..RuntimeConfig::with_lanes(2)
    };
    let exec = PlanExecutor::new(&g, &plan, config).unwrap();
    assert_eq!(exec.folded(), [b]);
    assert_eq!(exec.tileable_kernels(), 1);
    let inputs = vec![Tensor::random(vec![64, 32], 5)];
    let reference = korch::exec::execute_plan(&g, &plan, &inputs).unwrap();
    assert_bit_identical(&reference, &exec.execute(&inputs).unwrap(), "folded chain");
    assert_eq!(exec.arena_stats().live_bytes, 0);
    assert!(
        verify_executor(&exec).is_empty(),
        "{:?}",
        verify_executor(&exec)
    );

    let mut art = PlanArtifact::from_executor(&exec);
    assert_eq!(art.folded, [b]);
    art.folded.clear();
    let violations = verify_plan(&g, &plan, &art);
    let v = violations
        .iter()
        .find(|v| v.rule == Rule::TileEligibilityUnsound)
        .expect("tile-eligibility-unsound violation");
    assert!(
        v.detail.contains(&format!("member node {}", b.0)),
        "{}",
        v.detail
    );
}

/// Mutation: releasing a buffer before its last reader must surface as a
/// use-after-release naming the buffer and the reading kernel.
#[test]
fn early_release_is_rejected() {
    let (g, plan, [a, _, _]) = diamond();
    let (mut program, idx) = compiled_program(&g, &plan, a);
    assert!(verify_lifetimes(&program).is_empty(), "baseline accepts");
    assert!(
        program.steps[2].releases.contains(&idx),
        "a's last reader is kernel 2"
    );
    program.steps[2].releases.retain(|&r| r != idx);
    program.steps[0].releases.push(idx);
    let violations = verify_lifetimes(&program);
    let v = violations
        .iter()
        .find(|v| v.rule == Rule::UseAfterRelease)
        .expect("use-after-release violation");
    assert_eq!(v.buffer.as_deref(), Some(format!("{}:0", a.0).as_str()));
    assert!(v.kernel == Some(1) || v.kernel == Some(2), "{violations:?}");
}

/// Mutation: leaking a buffer (dropping its release entirely) must fail
/// conservation on the success path.
#[test]
fn dropped_release_is_a_leak() {
    let (g, plan, [a, _, _]) = diamond();
    let (mut program, idx) = compiled_program(&g, &plan, a);
    for step in &mut program.steps {
        step.releases.retain(|&r| r != idx);
    }
    // Settle frees whatever is still live, so dropping a release alone
    // conserves; pretending the buffer is pinned too models a buffer the
    // arena would hand back to nobody.
    let violations = verify_lifetimes(&program);
    assert!(
        violations.is_empty(),
        "settle covers a dropped release: {violations:?}"
    );
    // A release of a never-materialized buffer, though, is a hard error.
    program.steps[0].releases.push(idx);
    program.steps[0].writes.retain(|&w| w != idx);
    let violations = verify_lifetimes(&program);
    assert!(
        violations.iter().any(|v| v.rule == Rule::DoubleRelease),
        "{violations:?}"
    );
}

/// Mutation: a reader count one short in the executor's slot table makes
/// the scheduler's countdown release the buffer under its last reader —
/// a corruption no re-derivation of the count from the plan could see.
#[test]
fn short_reader_count_is_a_use_after_release() {
    let (g, plan, [a, _, _]) = diamond();
    let mut art = compiled_artifact(&g, &plan, 2);
    let a_port = PortRef::from(a);
    let slot = art.slots.slots.iter().position(|s| s.port == a_port);
    let slot = slot.expect("buffer a has a slot");
    assert_eq!(art.slots.slots[slot].readers, 2, "kernels 1 and 2 read a");
    assert!(verify_lifetimes(&LifetimeProgram::from_slots(&art.slots)).is_empty());
    art.slots.slots[slot].readers = 1;
    let violations = verify_lifetimes(&LifetimeProgram::from_slots(&art.slots));
    let v = violations
        .iter()
        .find(|v| v.rule == Rule::UseAfterRelease)
        .expect("use-after-release violation");
    assert_eq!(v.kernel, Some(2), "the last reader reads a freed buffer");
    assert_eq!(v.buffer.as_deref(), Some(format!("{}:0", a.0).as_str()));
}

/// The exhaustive exploration suite over the scheduler's atomic protocol
/// models passes at the ≤3-thread, ≤4-op bound.
#[test]
fn exploration_suite_is_exhaustive_and_green() {
    let results = verify_protocols().expect("all protocols verify");
    assert!(results.len() >= 15, "suite covers all four protocols");
    for (name, stats) in &results {
        assert!(stats.states > 0 && stats.terminals > 0, "{name}: {stats:?}");
    }
}

/// `recalibrate` verifies each freshly orchestrated plan before the
/// atomic swap (debug builds — which tests are), and the verification
/// does not change what the swapped plan computes.
#[test]
fn recalibrate_swap_is_verified_and_bit_stable() {
    let g = model_graph();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let compiled = korch
        .compile_with(&g, &RuntimeConfig::with_lanes(2))
        .unwrap();
    compiled.verify().expect("compile-time plans verify");
    let inputs = vec![Tensor::random(vec![16, 32], 11)];
    let reference = compiled.execute(&inputs).unwrap();
    for _ in 0..3 {
        compiled.execute(&inputs).unwrap();
    }
    let generation = compiled.plan_generation();
    // cfg(debug_assertions) holds in the default test profile, so this
    // recalibrate runs check_executor over every fresh partition before
    // swapping; in release test runs the same call exercises the
    // hook-free path.
    compiled.recalibrate().expect("verified swap succeeds");
    assert_eq!(compiled.plan_generation(), generation + 1);
    compiled.verify().expect("swapped plans verify");
    let out = compiled.execute(&inputs).unwrap();
    assert_bit_identical(&reference, &out, "post-recalibrate outputs");
}
