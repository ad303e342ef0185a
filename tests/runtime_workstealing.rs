//! Work-stealing executor tests: random DAG plans must execute
//! bit-identically to the sequential `execute_plan` interpreter at every
//! lane count, failures must unwind every lane mid-run — including lanes
//! *parked* on the lock-free scheduler's epoch handshake — whether a run
//! is scheduled at all must follow from the plan's DAG (a chain is not, a
//! fork and independent roots are), a fork's dependents must be
//! rebalanced by stealing, the shutdown-while-parked race must terminate
//! without a lost wakeup, and redundant-producer plans must conserve the
//! buffer arena's pool.

use korch::exec::execute_plan;
use korch::ir::{EwFn, NodeId, PortRef, PrimGraph, PrimKind};
use korch::orch::{Plan, SelectedKernel};
use korch::runtime::{PlanExecutor, RuntimeConfig, Tiling};
use korch::tensor::{BinaryOp, UnaryOp};
use proptest::prelude::*;
use std::collections::HashSet;

mod common;
use common::{assert_bit_identical, first_input_shape, kernel_of, plan_of, same_shape_inputs};

/// Groups the non-source nodes of `g` (insertion order = topological
/// order) into contiguous kernels sized by cycling through `chunks`, with
/// each kernel outputting every member port read outside it plus the
/// graph outputs it covers — exactly the materialization rule
/// `execute_plan` expects.
fn chunked_plan(g: &PrimGraph, chunks: &[usize]) -> Plan {
    use std::collections::BTreeSet;
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

/// A random DAG of same-shape elementwise nodes over `n_inputs` inputs:
/// each op reads one or two uniformly chosen earlier nodes, so the graph
/// mixes long chains, diamonds and independent branches. Every sink is
/// marked as an output.
fn arb_dag() -> impl Strategy<Value = (PrimGraph, Vec<usize>, usize)> {
    let dims = (2usize..8, 2usize..12);
    let n_inputs = 1usize..4;
    let ops = prop::collection::vec((0u8..8, 0u64..1_000_000, 0u64..1_000_000), 3..24);
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
        // Degenerate case: every computational node was consumed (cycle of
        // reads is impossible, so the last node is always unconsumed — but
        // guard anyway for graphs that are all inputs).
        if g.outputs().is_empty() {
            let last = *pool.last().unwrap();
            g.mark_output(last).unwrap();
        }
        (g, chunks, n_inputs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random DAG plans: the work-stealing executor is bit-identical to
    /// `execute_plan` at 1, 2, 4 and 8 lanes, including on repeated runs
    /// over a warm arena.
    #[test]
    fn random_dag_plans_are_bit_identical((g, chunks, n_inputs) in arb_dag(), seed in 0u64..1000) {
        let plan = chunked_plan(&g, &chunks);
        let shape = first_input_shape(&g);
        let inputs = same_shape_inputs(n_inputs, &shape, seed);
        let reference = execute_plan(&g, &plan, &inputs).unwrap();
        for lanes in [1usize, 2, 4, 8] {
            let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes)).unwrap();
            for run in 0..2 {
                let out = exec.execute(&inputs).unwrap();
                prop_assert_eq!(out.len(), reference.len());
                for (a, b) in reference.iter().zip(&out) {
                    prop_assert_eq!(a.shape(), b.shape());
                    prop_assert!(
                        a.as_slice() == b.as_slice(),
                        "lanes={} run={} diverged bitwise", lanes, run
                    );
                }
            }
            // Every adopted buffer must be settled once the run is over.
            prop_assert_eq!(exec.arena_stats().live_bytes, 0);
        }
    }
}

/// One root kernel whose retirement releases `fan` dependent kernels at
/// once — every one of them lands on the retiring lane's own deque.
fn fork_plan(fan: usize, shape: &[usize]) -> (PrimGraph, Plan) {
    let mut g = PrimGraph::new();
    let x = g
        .add(
            PrimKind::Input {
                shape: shape.to_vec(),
            },
            vec![],
        )
        .unwrap();
    let (mut kernels, root) = chain_kernels(&mut g, x.into(), 1);
    for _ in 0..fan {
        let (branch, end) = chain_kernels(&mut g, root.into(), 1);
        g.mark_output(end).unwrap();
        kernels.extend(branch);
    }
    (g, plan_of(kernels))
}

/// A chain can never have two tasks ready at once, so it is not
/// scheduled however many lanes were asked for: it runs in plan order on
/// the calling thread — no deque, no helper, nothing to steal, nobody to
/// park.
#[test]
fn chain_plan_runs_inline_at_any_lane_count() {
    let mut g = PrimGraph::new();
    let shape = vec![16usize, 16];
    let x = g
        .add(
            PrimKind::Input {
                shape: shape.clone(),
            },
            vec![],
        )
        .unwrap();
    let (kernels, end) = chain_kernels(&mut g, x.into(), 8);
    g.mark_output(end).unwrap();
    let plan = plan_of(kernels);
    let inputs = same_shape_inputs(1, &shape, 3);
    let reference = execute_plan(&g, &plan, &inputs).unwrap();
    let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(4)).unwrap();
    assert_eq!(exec.lane_count(), 1, "a chain is not scheduled");
    for run in 0..50 {
        let out = exec.execute(&inputs).unwrap();
        assert_bit_identical(&reference, &out, &format!("chain run {run}"));
    }
    let profile = exec.profile();
    assert_eq!(profile.runs, 50);
    assert_eq!((profile.parks, profile.steals), (0, 0), "{profile:?}");
}

/// Three independent roots at two lanes: the run is scheduled (the roots
/// are dealt 0, 1, 0 over the lanes — pinned on the deques themselves in
/// `korch-runtime`'s `roots_are_dealt_round_robin_in_kernel_order`) and
/// whichever lane ends up running what, every run equals `execute_plan`
/// bit for bit and settles the arena.
#[test]
fn independent_roots_are_scheduled_and_bit_identical() {
    let (g, plan) = common::independent_plan(3);
    let inputs = same_shape_inputs(3, &[64, 64], 5);
    let reference = execute_plan(&g, &plan, &inputs).unwrap();
    let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(2)).unwrap();
    assert_eq!(exec.lane_count(), 2);
    for run in 0..200 {
        let out = exec.execute(&inputs).unwrap();
        assert_bit_identical(&reference, &out, &format!("roots run {run}"));
        assert_eq!(exec.arena_stats().live_bytes, 0, "run {run}");
    }
    assert_eq!(exec.profile().runs, 200);
}

/// A single root with three dependents has one task ready at the start
/// and three after the root retires, so it is scheduled, not run inline.
/// The dependents all land on the retiring lane's deque: the other lane
/// can only get work by stealing it. (Whether the pooled helper arrives
/// in time on any one run is the host's business — loop until observed.)
#[test]
fn single_root_fork_is_scheduled_and_rebalanced_by_stealing() {
    let shape = vec![96usize, 96];
    let (g, plan) = fork_plan(3, &shape);
    let inputs = same_shape_inputs(1, &shape, 11);
    let reference = execute_plan(&g, &plan, &inputs).unwrap();
    let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(2)).unwrap();
    assert_eq!(exec.lane_count(), 2, "a fork is scheduled over both lanes");
    for run in 0..20_000 {
        if run >= 6 && exec.profile().steals > 0 {
            break;
        }
        let out = exec.execute(&inputs).unwrap();
        assert_bit_identical(&reference, &out, &format!("fork run {run}"));
        assert_eq!(exec.arena_stats().live_bytes, 0, "run {run}");
    }
    let profile = exec.profile();
    assert!(
        profile.steals > 0,
        "the second lane must steal from the forking one, profile: {profile:?}"
    );
}

/// `PlanExecutor::new` is a pure function of `(graph, plan, config)`:
/// the same inputs compile to the same dependency edges, the same tile
/// layouts and the same lane decision — no host read, no clock.
#[test]
fn compile_is_a_pure_function_of_its_inputs() {
    let (g, plan) = fork_plan(3, &[96, 96]);
    let config = RuntimeConfig {
        tiling: Tiling::Forced { tile_rows: None },
        ..RuntimeConfig::with_lanes(4)
    };
    let a = PlanExecutor::new(&g, &plan, config.clone()).unwrap();
    let b = PlanExecutor::new(&g, &plan, config).unwrap();
    assert_eq!(
        a.kernel_dependencies(),
        vec![vec![], vec![0], vec![0], vec![0]]
    );
    assert_eq!(
        a.tileable_kernels(),
        4,
        "every kernel here is one tilable chain"
    );
    assert_eq!(a.kernel_dependencies(), b.kernel_dependencies());
    assert_eq!(a.tile_layouts(), b.tile_layouts());
    assert_eq!(a.lane_count(), b.lane_count());
}

/// A walk body drops a member's output at its last in-kernel reader and
/// lets a `Reshape` take a dying operand's buffer. One kernel, three
/// outputs (so it is a walk): `a` is read by two later steps — the
/// second, `c`, exported — `r` reshapes the exported `c` (which must
/// survive it) and `s` reshapes `u`, which dies there (and is taken).
/// Every output must equal `execute_plan`'s, which keeps every local to
/// the kernel's end, and the arena must settle.
#[test]
fn walk_liveness_keeps_diamonds_and_exported_reshapes_bit_identical() {
    use korch::ir::LayoutFn;
    let mut g = PrimGraph::new();
    let x = g
        .add(PrimKind::Input { shape: vec![8, 6] }, vec![])
        .unwrap();
    let unary = |g: &mut PrimGraph, op, of: NodeId| {
        g.add(PrimKind::Elementwise(EwFn::Unary(op)), vec![of.into()])
            .unwrap()
    };
    let reshape = |g: &mut PrimGraph, shape: Vec<usize>, of: NodeId| {
        let kind = PrimKind::Layout(LayoutFn::Reshape { shape });
        g.add(kind, vec![of.into()]).unwrap()
    };
    let a = unary(&mut g, UnaryOp::Exp, x);
    let b = unary(&mut g, UnaryOp::Relu, a);
    let add = PrimKind::Elementwise(EwFn::Binary(BinaryOp::Add));
    let c = g.add(add, vec![a.into(), b.into()]).unwrap();
    let r = reshape(&mut g, vec![48], c);
    let u = unary(&mut g, UnaryOp::Tanh, c);
    let s = reshape(&mut g, vec![6, 8], u);
    let outputs: Vec<PortRef> = vec![c.into(), r.into(), s.into()];
    for o in &outputs {
        g.mark_output(*o).unwrap();
    }
    let plan = plan_of(vec![kernel_of(&g, vec![a, b, c, r, u, s], outputs)]);
    let inputs = same_shape_inputs(1, &[8, 6], 9);
    let reference = execute_plan(&g, &plan, &inputs).unwrap();
    assert_eq!(reference[1].as_slice(), reference[0].as_slice());
    for lanes in [1, 2] {
        let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes)).unwrap();
        for run in 0..20 {
            let out = exec.execute(&inputs).unwrap();
            assert_bit_identical(&reference, &out, &format!("{lanes} lanes, run {run}"));
            assert_eq!(exec.arena_stats().live_bytes, 0, "run {run}");
        }
    }
}

/// A failing kernel (opaque primitive, no CPU interpreter) must unwind
/// every lane mid-run — parallel branches included — and leave the arena
/// settled, run after run.
#[test]
fn failure_unwinds_all_lanes_mid_run() {
    let mut g = PrimGraph::new();
    let shape = vec![32usize, 32];
    let x = g
        .add(
            PrimKind::Input {
                shape: shape.clone(),
            },
            vec![],
        )
        .unwrap();
    let mut members: Vec<NodeId> = Vec::new();
    // Several healthy parallel branches...
    for _ in 0..4 {
        let mut cur: PortRef = x.into();
        for _ in 0..3 {
            let n = g
                .add(
                    PrimKind::Elementwise(EwFn::Unary(UnaryOp::Sigmoid)),
                    vec![cur],
                )
                .unwrap();
            members.push(n);
            cur = n.into();
        }
        g.mark_output(cur.node).unwrap();
    }
    // ...and one opaque node that has no interpreter.
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
    members.push(opaque);
    let kernels: Vec<SelectedKernel> = members
        .into_iter()
        .map(|m| kernel_of(&g, vec![m], vec![PortRef::from(m)]))
        .collect();
    let plan = plan_of(kernels);
    for lanes in [2usize, 4, 8] {
        let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes)).unwrap();
        let inputs = same_shape_inputs(1, &shape, 3);
        for _ in 0..5 {
            let err = exec.execute(&inputs);
            assert!(err.is_err(), "opaque kernel must fail at {lanes} lanes");
            assert_eq!(
                exec.arena_stats().live_bytes,
                0,
                "failed runs must settle the arena at {lanes} lanes"
            );
        }
    }
}

/// A serial chain of single-node tanh kernels rooted at `x`, returned as
/// (kernels, last node). Each link depends on the previous one, so at
/// most one of its tasks is ever ready — the plan shape that forces the
/// *other* lanes through the confirmed-empty sweep and into parking.
fn chain_kernels(g: &mut PrimGraph, x: PortRef, len: usize) -> (Vec<SelectedKernel>, NodeId) {
    let mut cur = x;
    let mut kernels = Vec::with_capacity(len);
    for _ in 0..len {
        let n = g
            .add(PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)), vec![cur])
            .unwrap();
        kernels.push(kernel_of(g, vec![n], vec![n.into()]));
        cur = n.into();
    }
    (kernels, cur.node)
}

/// A kernel failure must unwind lanes that are *parked* when it happens:
/// one lane runs a long serial chain that ends in an unexecutable opaque
/// kernel, the other lane's short chain finishes early and parks (its
/// sweep finds every deque empty — the long chain's next link is in
/// flight, never queued). The `fail` wake-all must unpark it; a lost
/// wakeup here hangs the scoped-thread join forever, so termination is
/// the assertion, repeated to hammer the park-vs-fail interleaving.
#[test]
fn failure_unwinds_lanes_parked_mid_run() {
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
    // Long chain ending in an opaque node with no CPU interpreter.
    let (mut kernels, long_end) = chain_kernels(&mut g, x.into(), 24);
    let opaque = g
        .add(
            PrimKind::Opaque {
                name: "external".into(),
                out_shapes: vec![shape.clone()],
            },
            vec![long_end.into()],
        )
        .unwrap();
    g.mark_output(opaque).unwrap();
    kernels.push(kernel_of(&g, vec![opaque], vec![PortRef::from(opaque)]));
    // Short chain: its lane runs dry long before the opaque kernel fails.
    let (short, short_end) = chain_kernels(&mut g, x.into(), 2);
    g.mark_output(short_end).unwrap();
    kernels.extend(short);
    let plan = plan_of(kernels);
    let inputs = same_shape_inputs(1, &shape, 7);
    for lanes in [2usize, 4, 8] {
        let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes)).unwrap();
        for run in 0..8 {
            let err = exec.execute(&inputs);
            assert!(
                err.is_err(),
                "opaque kernel must fail at {lanes} lanes (run {run})"
            );
            assert_eq!(
                exec.arena_stats().live_bytes,
                0,
                "failed run {run} must settle the arena at {lanes} lanes"
            );
        }
    }
}

/// The shutdown-while-parked race: the last retirement's wake-all races
/// lanes mid-way through the park handshake (flag published, epoch
/// re-check in flight). A serial chain keeps exactly one task in flight,
/// so every other lane spends the run parking and re-parking; each of
/// many repeated runs must still terminate — a lost wakeup deadlocks the
/// join and times the test out — with bit-identical outputs and a
/// settled arena. Multi-core hosts additionally keep running until the
/// park counter registers (structural-only on 1-core hosts, where a lane
/// can finish its whole sweep without ever losing the CPU race that
/// forces a park): the second lane is a pooled helper called for the
/// second root kernel, and whether it gets there before the caller has
/// run both chains is the pool's and the host's business on any one run.
#[test]
fn shutdown_while_parked_terminates() {
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
    let (mut kernels, long_end) = chain_kernels(&mut g, x.into(), 24);
    g.mark_output(long_end).unwrap();
    let (short, short_end) = chain_kernels(&mut g, x.into(), 2);
    g.mark_output(short_end).unwrap();
    kernels.extend(short);
    let plan = plan_of(kernels);
    let inputs = same_shape_inputs(1, &shape, 29);
    let reference = execute_plan(&g, &plan, &inputs).unwrap();
    let multi_core = std::thread::available_parallelism()
        .map(|n| n.get() > 1)
        .unwrap_or(false);
    for lanes in [2usize, 4, 8] {
        let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes)).unwrap();
        for run in 0..2000 {
            if run >= 15 && (!multi_core || exec.profile().parks > 0) {
                break;
            }
            let out = exec.execute(&inputs).unwrap();
            assert_bit_identical(&reference, &out, &format!("lanes={lanes} run={run}"));
            assert_eq!(
                exec.arena_stats().live_bytes,
                0,
                "run {run} must settle the arena at {lanes} lanes"
            );
        }
        if multi_core {
            let profile = exec.profile();
            assert!(
                profile.parks > 0,
                "a lane starved by a serial chain must park at {lanes} lanes, \
                 profile: {profile:?}"
            );
        }
    }
}

/// Regression for the redundant-producer arena leak, on a walk/range
/// pair: kernel 0 (a chain — a range body) and kernel 1 (a walk) both
/// materialize `e`, and whichever loses must have its copy reclaimed with
/// `live_bytes` back at zero. Pinned on the arena's books, run by run: a
/// run books five equal buffers (the input copy, `e` twice, `r`, `s`) and
/// hands two (`r`, `s`) to the caller. The other three each have a
/// planned buffer of their own — the two writers of `e` are both alive
/// until `s`'s kernel reads `e` — so every warm run takes exactly those
/// three from its state's plan and allocates exactly the two outputs,
/// however many runs have passed: the state is as large after run 8 as
/// its first run made it.
#[test]
fn redundant_producer_conserves_the_buffer_plan() {
    let mut g = PrimGraph::new();
    let shape = vec![32usize, 32];
    let x = g
        .add(
            PrimKind::Input {
                shape: shape.clone(),
            },
            vec![],
        )
        .unwrap();
    let e = g
        .add(
            PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp)),
            vec![x.into()],
        )
        .unwrap();
    let r = g
        .add(
            PrimKind::Elementwise(EwFn::Unary(UnaryOp::Relu)),
            vec![e.into()],
        )
        .unwrap();
    let s = g
        .add(
            PrimKind::Elementwise(EwFn::Unary(UnaryOp::Sigmoid)),
            vec![e.into()],
        )
        .unwrap();
    g.mark_output(r).unwrap();
    g.mark_output(s).unwrap();
    // Kernel 1 recomputes `e` in-kernel *and* re-materializes it: its
    // staged copy of `e` always loses to (or beats) kernel 0's.
    let kernels = vec![
        kernel_of(&g, vec![e], vec![e.into()]),
        kernel_of(&g, vec![e, r], vec![r.into(), e.into()]),
        kernel_of(&g, vec![s], vec![s.into()]),
    ];
    let plan = plan_of(kernels);
    for lanes in [1usize, 2, 4] {
        let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes)).unwrap();
        let inputs = same_shape_inputs(1, &shape, 17);
        let reference = execute_plan(&g, &plan, &inputs).unwrap();
        let buffer = (shape.iter().product::<usize>() * 4) as u64;
        let table = exec.slot_table();
        let (e0, e1) = (table.write_bufs[0][0], table.write_bufs[1][1]);
        assert!(e0.is_some() && e1.is_some() && e0 != e1, "{table:?}");
        let state = exec.memory_report().state_bytes;
        if lanes == 1 {
            assert_eq!(state, 3 * buffer, "the input copy and both copies of `e`");
        }
        for run in 0..8 {
            let before = exec.arena_stats();
            let out = exec.execute(&inputs).unwrap();
            assert_bit_identical(&reference, &out, &format!("lanes={lanes} run={run}"));
            let after = exec.arena_stats();
            assert_eq!(
                after.live_bytes, 0,
                "live bytes must settle after run {run} at {lanes} lanes"
            );
            assert_eq!(after.total_allocs - before.total_allocs, 5);
            assert_eq!(
                after.reuse_hits - before.reuse_hits,
                3,
                "run {run} at {lanes} lanes: the input copy and both copies of `e`, \
                 and nothing else, come from the plan ({before:?} -> {after:?})"
            );
            let held = if run == 0 { state } else { 0 };
            assert_eq!(
                after.fresh_bytes - before.fresh_bytes,
                held + 2 * buffer,
                "run {run} at {lanes} lanes: the state once, `r` and `s` every run"
            );
        }
    }
}

/// A kernel that lists one port twice among its outputs exports one
/// buffer and publishes it into the slot once. Outputs stay
/// bit-identical to `execute_plan` and the books balance on every run.
#[test]
fn a_port_exported_twice_is_published_once() {
    let mut g = PrimGraph::new();
    let shape = vec![8usize, 16];
    let x = g
        .add(
            PrimKind::Input {
                shape: shape.clone(),
            },
            vec![],
        )
        .unwrap();
    let e = g
        .add(
            PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp)),
            vec![x.into()],
        )
        .unwrap();
    let r = g
        .add(
            PrimKind::Elementwise(EwFn::Unary(UnaryOp::Relu)),
            vec![e.into()],
        )
        .unwrap();
    let s = g
        .add(
            PrimKind::Elementwise(EwFn::Binary(BinaryOp::Add)),
            vec![e.into(), r.into()],
        )
        .unwrap();
    g.mark_output(s).unwrap();
    g.mark_output(e).unwrap();
    let plan = plan_of(vec![
        kernel_of(&g, vec![e, r], vec![e.into(), r.into(), e.into()]),
        kernel_of(&g, vec![s], vec![s.into()]),
    ]);
    let inputs = same_shape_inputs(1, &shape, 23);
    let reference = execute_plan(&g, &plan, &inputs).unwrap();
    for lanes in [1usize, 2, 4] {
        let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes)).unwrap();
        let e_slot = exec.slot_table().writes[0][0];
        assert_eq!(exec.slot_table().writes[0], [e_slot, e_slot + 1, e_slot]);
        for run in 0..4 {
            let before = exec.arena_stats();
            let out = exec.execute(&inputs).unwrap();
            assert_bit_identical(&reference, &out, &format!("lanes={lanes} run={run}"));
            let after = exec.arena_stats();
            assert_eq!(after.live_bytes, 0, "lanes={lanes} run={run}");
            // The input copy, `e`, `r` and `s`; all but the two outputs
            // (`e` and `s`) from the plan.
            assert_eq!(after.total_allocs - before.total_allocs, 4);
            assert_eq!(after.reuse_hits - before.reuse_hits, 2);
        }
    }
}
