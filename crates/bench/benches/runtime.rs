//! Parallel-runtime benchmark: the `korch-runtime` executor against the
//! sequential `execute_plan` interpreter on a plan with many independent
//! kernels (the acceptance workload: ≥ 8 independent kernels, 4 lanes).
//!
//! On a multi-core host the 4-lane executor overlaps the eight branch
//! kernels and wins well beyond 1.5×; on a single core it degrades to the
//! interpreter plus scheduling noise. The `tiled_single_kernel` group is
//! the *intra*-kernel counterpart: one big elementwise/matmul kernel that
//! inter-kernel overlap cannot touch, split into row-range tiles across 4
//! lanes (structural asserts — tile count > 1, bit-identity — hold on any
//! host; the speedup only shows on multi-core). The `serving` group
//! times a 16-request burst through the serving front-end of an
//! already running server; the `recalibration` group runs the closed
//! calibration loop (profile → fit → re-orchestrate → swap) and prints
//! how far the fitted model tightens against the measured kernels. The
//! runtime and tiled medians also land in `BENCH_runtime.json` at the
//! workspace root — the machine-readable perf record tracked across PRs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use korch_bench::report::{spread_ns, write_bench_json, BenchRecord};
use korch_core::{Korch, KorchConfig};
use korch_cost::{kernel_spec, Backend, Device, Micros, Profiler};
use korch_exec::execute_plan;
use korch_ir::{EwFn, LinearFn, NodeId, PortRef, PrimGraph, PrimKind};
use korch_models::subgraphs::softmax_attention;
use korch_orch::{Plan, SelectedKernel};
use korch_runtime::{BatchConfig, Model, PlanExecutor, RuntimeConfig, Server};
use korch_tensor::{BinaryOp, MatMulSpec, ReduceKind, Tensor, UnaryOp};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// `branches` independent softmax chains with one kernel per branch, so
/// the plan has exactly `branches` independent kernels.
fn independent_kernel_plan(branches: usize, rows: usize, cols: usize) -> (PrimGraph, Plan) {
    let mut g = PrimGraph::new();
    let mut branch_nodes: Vec<Vec<NodeId>> = Vec::new();
    for _ in 0..branches {
        let x = g
            .add(
                PrimKind::Input {
                    shape: vec![rows, cols],
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
                PrimKind::Reduce {
                    kind: ReduceKind::Sum,
                    axis: 1,
                },
                vec![e.into()],
            )
            .unwrap();
        let b = g
            .add(
                PrimKind::Broadcast {
                    axis: 1,
                    size: cols,
                },
                vec![r.into()],
            )
            .unwrap();
        let d = g
            .add(
                PrimKind::Elementwise(EwFn::Binary(BinaryOp::Div)),
                vec![e.into(), b.into()],
            )
            .unwrap();
        g.mark_output(d).unwrap();
        branch_nodes.push(vec![e, r, b, d]);
    }
    let profiler = Profiler::new(Device::v100());
    let kernels: Vec<SelectedKernel> = branch_nodes
        .into_iter()
        .map(|members| {
            let out = *members.last().unwrap();
            let set: BTreeSet<NodeId> = members.iter().copied().collect();
            let spec = kernel_spec(&g, &set, &[out.into()]);
            SelectedKernel {
                members,
                outputs: vec![out.into()],
                latency: profiler.latency(&spec, Backend::Generated),
                backend: Backend::Generated,
            }
        })
        .collect();
    let total = kernels.iter().map(|k| k.latency).sum();
    (
        g,
        Plan {
            kernels,
            total_latency: total,
        },
    )
}

/// `branches` independent tanh chains whose cost hints are deliberately
/// wrong: kernel 0 claims to cost a second, the rest a microsecond, so
/// the list scheduler stacks kernels `1..branches` behind one lane and
/// every other lane can only feed itself by stealing — the worst case for
/// the Chase–Lev deques' top CAS.
fn steal_storm_plan(branches: usize, dim: usize) -> (PrimGraph, Plan) {
    let mut g = PrimGraph::new();
    let shape = vec![dim, dim];
    let mut branch_nodes: Vec<Vec<NodeId>> = Vec::new();
    for _ in 0..branches {
        let x = g
            .add(
                PrimKind::Input {
                    shape: shape.clone(),
                },
                vec![],
            )
            .unwrap();
        let mut members = Vec::new();
        let mut cur: PortRef = x.into();
        for _ in 0..4 {
            let n = g
                .add(PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)), vec![cur])
                .unwrap();
            members.push(n);
            cur = n.into();
        }
        g.mark_output(cur.node).unwrap();
        branch_nodes.push(members);
    }
    let kernels: Vec<SelectedKernel> = branch_nodes
        .into_iter()
        .enumerate()
        .map(|(i, members)| {
            let out = *members.last().unwrap();
            SelectedKernel {
                members,
                outputs: vec![out.into()],
                latency: Micros(if i == 0 { 1e6 } else { 1.0 }),
                backend: Backend::Generated,
            }
        })
        .collect();
    let total = kernels.iter().map(|k| k.latency).sum();
    (
        g,
        Plan {
            kernels,
            total_latency: total,
        },
    )
}

fn bench_inputs(g: &PrimGraph) -> Vec<Tensor> {
    g.iter()
        .filter_map(|(_, n)| match &n.kind {
            PrimKind::Input { shape } => Some(shape.clone()),
            _ => None,
        })
        .enumerate()
        .map(|(i, shape)| Tensor::random(shape, 100 + i as u64))
        .collect()
}

fn bench_runtime(c: &mut Criterion) {
    let (g, plan) = independent_kernel_plan(8, 256, 256);
    assert!(
        plan.kernel_count() >= 8,
        "acceptance workload needs >= 8 kernels"
    );
    let inputs = bench_inputs(&g);
    let mut group = c.benchmark_group("runtime");

    group.bench_function("sequential_interpreter", |b| {
        b.iter(|| execute_plan(black_box(&g), black_box(&plan), black_box(&inputs)).unwrap())
    });
    for lanes in [1usize, 2, 4] {
        let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes)).unwrap();
        group.bench_with_input(
            BenchmarkId::new("parallel_executor", lanes),
            &exec,
            |b, exec| b.iter(|| exec.execute(black_box(&inputs)).unwrap()),
        );
    }
    group.finish();

    // One-shot speedup report (criterion compares groups; this prints the
    // headline number directly).
    let mean = |f: &mut dyn FnMut()| {
        f(); // warm-up
        let n = 10;
        let start = std::time::Instant::now();
        for _ in 0..n {
            f();
        }
        start.elapsed().as_secs_f64() / n as f64
    };
    let seq = mean(&mut || {
        black_box(execute_plan(&g, &plan, &inputs).unwrap());
    });
    let exec4 = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(4)).unwrap();
    let par = mean(&mut || {
        black_box(exec4.execute(&inputs).unwrap());
    });
    println!(
        "runtime/speedup_4_lanes: {:.2}x (sequential {:.3} ms, parallel {:.3} ms, {} cores)",
        seq / par,
        seq * 1e3,
        par * 1e3,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
}

/// A plan with exactly ONE big kernel — the intra-kernel parallelism
/// acceptance workload: inter-kernel overlap has nothing to overlap, so
/// only tile decomposition can engage the other lanes.
fn single_kernel_plan(matmul: bool, dim: usize) -> (PrimGraph, Plan) {
    let mut g = PrimGraph::new();
    let members;
    let out;
    if matmul {
        let a = g
            .add(
                PrimKind::Input {
                    shape: vec![dim, dim],
                },
                vec![],
            )
            .unwrap();
        let b = g
            .add(
                PrimKind::Input {
                    shape: vec![dim, dim],
                },
                vec![],
            )
            .unwrap();
        let mm = g
            .add(
                PrimKind::Linear(LinearFn::MatMul {
                    spec: MatMulSpec::new(),
                }),
                vec![a.into(), b.into()],
            )
            .unwrap();
        g.mark_output(mm).unwrap();
        members = vec![mm];
        out = mm;
    } else {
        let x = g
            .add(
                PrimKind::Input {
                    shape: vec![dim, dim],
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
        let t = g
            .add(
                PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)),
                vec![e.into()],
            )
            .unwrap();
        g.mark_output(t).unwrap();
        members = vec![e, t];
        out = t;
    }
    let profiler = Profiler::new(Device::v100());
    let set: BTreeSet<NodeId> = members.iter().copied().collect();
    let spec = kernel_spec(&g, &set, &[out.into()]);
    let kernel = SelectedKernel {
        members,
        outputs: vec![out.into()],
        latency: profiler.latency(&spec, Backend::Generated),
        backend: Backend::Generated,
    };
    let total = kernel.latency;
    (
        g,
        Plan {
            kernels: vec![kernel],
            total_latency: total,
        },
    )
}

/// A single-kernel plan holding a 6-op cheap elementwise chain
/// (mul / add / abs twice over) at `dim`×`dim` — the compiled fused-chain
/// workload: every op is a fraction of a memory pass, so the member-walk
/// interpreter's per-op tensor materialization dominates and the compiled
/// register program's advantage is visible on any host.
fn chain_kernel_plan(dim: usize) -> (PrimGraph, Plan) {
    let mut g = PrimGraph::new();
    let x = g
        .add(
            PrimKind::Input {
                shape: vec![dim, dim],
            },
            vec![],
        )
        .unwrap();
    let mut members = Vec::new();
    let mut cur = x;
    for i in 0..6 {
        let f = match i % 3 {
            0 => EwFn::BinaryScalar(BinaryOp::Mul, 1.25),
            1 => EwFn::BinaryScalar(BinaryOp::Add, 0.5),
            _ => EwFn::Unary(UnaryOp::Abs),
        };
        cur = g.add(PrimKind::Elementwise(f), vec![cur.into()]).unwrap();
        members.push(cur);
    }
    g.mark_output(cur).unwrap();
    let profiler = Profiler::new(Device::v100());
    let set: BTreeSet<NodeId> = members.iter().copied().collect();
    let spec = kernel_spec(&g, &set, &[cur.into()]);
    let kernel = SelectedKernel {
        members,
        outputs: vec![cur.into()],
        latency: profiler.latency(&spec, Backend::Generated),
        backend: Backend::Generated,
    };
    let total = kernel.latency;
    (
        g,
        Plan {
            kernels: vec![kernel],
            total_latency: total,
        },
    )
}

/// `(p10, median, p90)` seconds per call over `n` timed iterations
/// (after one warm-up) — the spread triple the JSON perf record carries.
fn measure(n: usize, mut f: impl FnMut()) -> (f64, f64, f64) {
    f();
    let mut samples: Vec<f64> = (0..n)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    let (p10, median, p90) = spread_ns(&mut samples);
    (p10 / 1e9, median / 1e9, p90 / 1e9)
}

/// The tiled-execution acceptance bench: a single large
/// elementwise/matmul kernel, sequential interpreter vs the tiled
/// 4-lane executor. Structural asserts (which kernels are tile-eligible,
/// the tiled path engaging with tile count > 1, bit-identically) are a
/// function of the plan and the config and hold on any host; the speedup
/// is only reported — with fewer cores than lanes the tiles time-slice
/// and the ratio is noise.
fn bench_tiled(c: &mut Criterion) {
    let mut group = c.benchmark_group("tiled_single_kernel");
    let mut records: Vec<BenchRecord> = Vec::new();
    // `expect_tiled`: at 4 lanes the 320² matmul's row-grain compute
    // clears the per-tile overhead floor and splits. The 768²
    // elementwise chain does NOT — its body is memory-bound, so the
    // assembly pass re-streams the full output through the same bus and
    // the floor charges every byte (the fix for the 0.96× tiled-
    // elementwise regression: the compiled whole kernel wins). The 192²
    // matmul stays whole too — its per-tile body sits under the floor
    // (the PR-8 fix: splitting it was 0.91×).
    for (name, matmul, dim, expect_tiled) in [
        ("elementwise", false, 768, false),
        ("matmul", true, 192, false),
        ("matmul_320", true, 320, true),
    ] {
        let (g, plan) = single_kernel_plan(matmul, dim);
        assert_eq!(plan.kernel_count(), 1, "acceptance workload is one kernel");
        let inputs = bench_inputs(&g);
        let reference = execute_plan(&g, &plan, &inputs).unwrap();
        let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(4)).unwrap();
        assert_eq!(
            exec.tileable_kernels(),
            usize::from(expect_tiled),
            "derived-threshold policy changed for {name}"
        );
        let out = exec.execute(&inputs).unwrap();
        for (a, b) in reference.iter().zip(&out) {
            assert_eq!(a.as_slice(), b.as_slice(), "{name} diverged bitwise");
        }
        let profile = exec.profile();
        if expect_tiled {
            assert!(
                profile.tiled_kernels >= 1 && profile.tile_tasks > 1,
                "tiled path must engage with >1 tile on {name}: {profile:?}"
            );
        } else {
            assert_eq!(
                profile.tile_tasks, 0,
                "{name} must run whole under the per-tile floor: {profile:?}"
            );
        }
        group.bench_function(BenchmarkId::new("sequential", name), |b| {
            b.iter(|| execute_plan(black_box(&g), black_box(&plan), black_box(&inputs)).unwrap())
        });
        let exec_bench = if expect_tiled {
            "tiled_4_lanes"
        } else {
            "default_4_lanes"
        };
        group.bench_function(BenchmarkId::new(exec_bench, name), |b| {
            b.iter(|| exec.execute(black_box(&inputs)).unwrap())
        });
        // One-shot medians for the headline + the JSON perf record.
        let (seq_p10, seq, seq_p90) = measure(10, || {
            black_box(execute_plan(&g, &plan, &inputs).unwrap());
        });
        let (tiled_p10, tiled, tiled_p90) = measure(10, || {
            black_box(exec.execute(&inputs).unwrap());
        });
        let profile = exec.profile();
        let tiles_per_run = profile.tile_tasks as f64 / profile.tiled_kernels.max(1) as f64;
        println!(
            "tiled_single_kernel/{name}: {:.2}x vs sequential ({:.3} ms -> {:.3} ms, \
             {tiles_per_run:.0} tiles/run, {} cores)",
            seq / tiled,
            seq * 1e3,
            tiled * 1e3,
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        );
        records.push(BenchRecord {
            name: format!("tiled_single_kernel/sequential/{name}"),
            median_ns: seq * 1e9,
            p10_ns: seq_p10 * 1e9,
            p90_ns: seq_p90 * 1e9,
            speedup_vs_sequential: None,
            note: format!("dim {dim}"),
        });
        records.push(BenchRecord {
            name: format!("tiled_single_kernel/{exec_bench}/{name}"),
            median_ns: tiled * 1e9,
            p10_ns: tiled_p10 * 1e9,
            p90_ns: tiled_p90 * 1e9,
            speedup_vs_sequential: Some(seq / tiled),
            note: if expect_tiled {
                format!("dim {dim}, {tiles_per_run:.0} tiles/run")
            } else {
                format!("dim {dim}, stays whole (per-tile overhead floor)")
            },
        });
    }

    // The compiled fused-chain headline: a 6-op mul/add/abs chain at 768²
    // where the interpreter walked members one tile kernel at a time and
    // the compiled closure runs the whole register program per block.
    // `whole` isolates the closure (no tiling). The derived floor keeps
    // this memory-bound chain whole by default, so the tiled leg forces
    // the split with an explicit zero threshold — it tracks the
    // closure-under-tiling machinery, not the default policy.
    let (g, plan) = chain_kernel_plan(768);
    let inputs = bench_inputs(&g);
    let reference = execute_plan(&g, &plan, &inputs).unwrap();
    let whole = PlanExecutor::new(
        &g,
        &plan,
        RuntimeConfig {
            split_threshold_us: Some(f64::INFINITY),
            ..RuntimeConfig::with_lanes(1)
        },
    )
    .unwrap();
    let tiled4 = PlanExecutor::new(
        &g,
        &plan,
        RuntimeConfig {
            split_threshold_us: Some(0.0),
            ..RuntimeConfig::with_lanes(4)
        },
    )
    .unwrap();
    for exec in [&whole, &tiled4] {
        let out = exec.execute(&inputs).unwrap();
        for (a, b) in reference.iter().zip(&out) {
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "compiled chain diverged bitwise"
            );
        }
    }
    group.bench_function(BenchmarkId::new("sequential", "chain6"), |b| {
        b.iter(|| execute_plan(black_box(&g), black_box(&plan), black_box(&inputs)).unwrap())
    });
    group.bench_function(BenchmarkId::new("compiled_whole", "chain6"), |b| {
        b.iter(|| whole.execute(black_box(&inputs)).unwrap())
    });
    let (cseq_p10, cseq, cseq_p90) = measure(10, || {
        black_box(execute_plan(&g, &plan, &inputs).unwrap());
    });
    let (cw_p10, cw, cw_p90) = measure(10, || {
        black_box(whole.execute(&inputs).unwrap());
    });
    let (ct_p10, ct, ct_p90) = measure(10, || {
        black_box(tiled4.execute(&inputs).unwrap());
    });
    println!(
        "tiled_single_kernel/compiled_chain: whole {:.2}x, tiled(4 lanes) {:.2}x vs \
         member-walk interpreter ({:.3} ms -> {:.3} / {:.3} ms)",
        cseq / cw,
        cseq / ct,
        cseq * 1e3,
        cw * 1e3,
        ct * 1e3,
    );
    records.push(BenchRecord {
        name: "tiled_single_kernel/sequential/chain6".into(),
        median_ns: cseq * 1e9,
        p10_ns: cseq_p10 * 1e9,
        p90_ns: cseq_p90 * 1e9,
        speedup_vs_sequential: None,
        note: "6-op mul/add/abs fused chain, 768x768, member-walk interpreter".into(),
    });
    records.push(BenchRecord {
        name: "tiled_single_kernel/compiled_whole/chain6".into(),
        median_ns: cw * 1e9,
        p10_ns: cw_p10 * 1e9,
        p90_ns: cw_p90 * 1e9,
        speedup_vs_sequential: Some(cseq / cw),
        note: "compiled chain closure, whole kernel, 1 lane".into(),
    });
    records.push(BenchRecord {
        name: "tiled_single_kernel/compiled_tiled_4_lanes/chain6".into(),
        median_ns: ct * 1e9,
        p10_ns: ct_p10 * 1e9,
        p90_ns: ct_p90 * 1e9,
        speedup_vs_sequential: Some(cseq / ct),
        note: "compiled chain closure under forced lane tiling, 4 lanes".into(),
    });
    group.finish();

    // The inter-kernel workload alongside, so the JSON record tracks both
    // parallelism levers across PRs.
    let (g, plan) = independent_kernel_plan(8, 256, 256);
    let inputs = bench_inputs(&g);
    let (seq_p10, seq, seq_p90) = measure(10, || {
        black_box(execute_plan(&g, &plan, &inputs).unwrap());
    });
    records.push(BenchRecord {
        name: "runtime/sequential_interpreter".into(),
        median_ns: seq * 1e9,
        p10_ns: seq_p10 * 1e9,
        p90_ns: seq_p90 * 1e9,
        speedup_vs_sequential: None,
        note: "8 independent kernels, 256x256".into(),
    });
    for lanes in [2usize, 4] {
        let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes)).unwrap();
        let (par_p10, par, par_p90) = measure(10, || {
            black_box(exec.execute(&inputs).unwrap());
        });
        records.push(BenchRecord {
            name: format!("runtime/parallel_executor/{lanes}"),
            median_ns: par * 1e9,
            p10_ns: par_p10 * 1e9,
            p90_ns: par_p90 * 1e9,
            speedup_vs_sequential: Some(seq / par),
            note: format!("{lanes} lanes, steals {}", exec.profile().steals),
        });
    }

    // Dispatch-overhead workload: 32 tiny independent kernels where
    // per-kernel scheduling cost, not arithmetic, dominates — the record
    // that catches a regression in task-dispatch bookkeeping (e.g. the
    // compiled-path lookup on the hot path).
    let (sg, splan) = independent_kernel_plan(32, 32, 32);
    let sinputs = bench_inputs(&sg);
    let (ss_p10, ss, ss_p90) = measure(10, || {
        black_box(execute_plan(&sg, &splan, &sinputs).unwrap());
    });
    records.push(BenchRecord {
        name: "runtime/many_small_kernels/sequential".into(),
        median_ns: ss * 1e9,
        p10_ns: ss_p10 * 1e9,
        p90_ns: ss_p90 * 1e9,
        speedup_vs_sequential: None,
        note: "32 independent 32x32 softmax kernels, dispatch-bound".into(),
    });
    let sexec = PlanExecutor::new(&sg, &splan, RuntimeConfig::with_lanes(4)).unwrap();
    let (sp_p10, sp, sp_p90) = measure(10, || {
        black_box(sexec.execute(&sinputs).unwrap());
    });
    records.push(BenchRecord {
        name: "runtime/many_small_kernels/parallel_4".into(),
        median_ns: sp * 1e9,
        p10_ns: sp_p10 * 1e9,
        p90_ns: sp_p90 * 1e9,
        speedup_vs_sequential: Some(ss / sp),
        note: format!("4 lanes, steals {}", sexec.profile().steals),
    });
    println!(
        "runtime/many_small_kernels: {:.2}x vs sequential ({:.3} ms -> {:.3} ms)",
        ss / sp,
        ss * 1e3,
        sp * 1e3
    );

    // Steal-storm stress: a deliberately mis-scheduled plan — the cost
    // hints make kernel 0 look enormous, so the list scheduler seeds all
    // other kernels on one lane and every sibling lane must feed itself
    // by stealing. This hammers the Chase–Lev top CAS (thieves racing the
    // owner and each other) far harder than an honest schedule would.
    // Structural asserts (bit-identity, steals actually recorded) hold on
    // any host; the speedup is only meaningful on multi-core.
    let (wg, wplan) = steal_storm_plan(24, 96);
    let winputs = bench_inputs(&wg);
    let wref = execute_plan(&wg, &wplan, &winputs).unwrap();
    let wexec = PlanExecutor::new(&wg, &wplan, RuntimeConfig::with_lanes(4)).unwrap();
    let wout = wexec.execute(&winputs).unwrap();
    for (a, b) in wref.iter().zip(&wout) {
        assert_eq!(a.as_slice(), b.as_slice(), "steal storm diverged bitwise");
    }
    let (ws_p10, ws, ws_p90) = measure(10, || {
        black_box(execute_plan(&wg, &wplan, &winputs).unwrap());
    });
    let (wp_p10, wp, wp_p90) = measure(10, || {
        black_box(wexec.execute(&winputs).unwrap());
    });
    let wprofile = wexec.profile();
    assert!(
        wprofile.steals > 0,
        "a mis-scheduled plan must be rebalanced by stealing: {wprofile:?}"
    );
    records.push(BenchRecord {
        name: "runtime/steal_storm/sequential".into(),
        median_ns: ws * 1e9,
        p10_ns: ws_p10 * 1e9,
        p90_ns: ws_p90 * 1e9,
        speedup_vs_sequential: None,
        note: "24 independent 96x96 tanh kernels, mis-scheduled onto one lane".into(),
    });
    records.push(BenchRecord {
        name: "runtime/steal_storm/parallel_4".into(),
        median_ns: wp * 1e9,
        p10_ns: wp_p10 * 1e9,
        p90_ns: wp_p90 * 1e9,
        speedup_vs_sequential: Some(ws / wp),
        note: format!(
            "4 lanes fed almost entirely by steals: {} steals, {} parks recorded",
            wprofile.steals, wprofile.parks
        ),
    });
    println!(
        "runtime/steal_storm: {:.2}x vs sequential ({:.3} ms -> {:.3} ms, {} steals)",
        ws / wp,
        ws * 1e3,
        wp * 1e3,
        wprofile.steals
    );

    // Tracing-overhead headline: the same inter-kernel workload on one
    // executor with a telemetry hub attached (recording every kernel
    // span) vs the zero-cost disabled path (`telemetry: None`). The
    // ratio is the number BENCH tracks across PRs; outputs must stay
    // bit-identical either way.
    let plain = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(4)).unwrap();
    let hub = Arc::new(korch_telemetry::Telemetry::with_capacity(8, 4096));
    let traced = PlanExecutor::new(
        &g,
        &plan,
        RuntimeConfig {
            telemetry: Some(Arc::clone(&hub)),
            ..RuntimeConfig::with_lanes(4)
        },
    )
    .unwrap();
    let reference = plain.execute(&inputs).unwrap();
    let traced_out = traced.execute(&inputs).unwrap();
    for (a, b) in reference.iter().zip(&traced_out) {
        assert_eq!(a.as_slice(), b.as_slice(), "tracing changed computed bytes");
    }
    let (_, off, _) = measure(10, || {
        black_box(plain.execute(&inputs).unwrap());
    });
    let (on_p10, on, on_p90) = measure(10, || {
        black_box(traced.execute(&inputs).unwrap());
    });
    assert!(
        !hub.recorder().is_empty(),
        "the traced executor must have recorded kernel spans"
    );
    println!(
        "runtime/tracing_overhead: {:.3}x (telemetry on {:.3} ms vs off {:.3} ms, {} events)",
        on / off,
        on * 1e3,
        off * 1e3,
        hub.recorder().len(),
    );
    records.push(BenchRecord {
        name: "runtime/tracing_overhead".into(),
        median_ns: on * 1e9,
        p10_ns: on_p10 * 1e9,
        p90_ns: on_p90 * 1e9,
        speedup_vs_sequential: Some(off / on),
        note: format!(
            "telemetry enabled vs disabled: {:.3} ms on / {:.3} ms off (ratio {:.3}); \
             speedup field = off/on",
            on * 1e3,
            off * 1e3,
            on / off
        ),
    });
    // Static verification headline: the full `verify_executor` pass
    // (plan/schedule verifier + arena-lifetime abstract interpreter) over
    // an orchestrated attention plan compiled at 4 lanes with tiling on —
    // the cost `recalibrate`'s debug gate pays per partition.
    let vgraph = softmax_attention(64, 64);
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let optimized = korch.optimize(&vgraph).expect("attention optimizes");
    let vpart = &optimized.partitions()[0];
    let vexec = PlanExecutor::new(&vpart.part.graph, &vpart.plan, RuntimeConfig::with_lanes(4))
        .expect("attention plan compiles");
    assert!(
        korch_verify::verify_executor(&vexec).is_empty(),
        "the benchmarked artifact must verify"
    );
    let (v_p10, v_med, v_p90) = measure(10, || {
        black_box(korch_verify::verify_executor(black_box(&vexec)));
    });
    println!(
        "verify/plan_verify: {:.3} ms over a {}-kernel attention plan",
        v_med * 1e3,
        vpart.plan.kernel_count()
    );
    records.push(BenchRecord {
        name: "verify/plan_verify".into(),
        median_ns: v_med * 1e9,
        p10_ns: v_p10 * 1e9,
        p90_ns: v_p90 * 1e9,
        speedup_vs_sequential: None,
        note: format!(
            "full static verification (plan/schedule + lifetime interpreter) of a \
             {}-kernel softmax-attention plan at 4 lanes, tiling on",
            vpart.plan.kernel_count()
        ),
    });
    // Microkernel headlines: the register-blocked MR×NB matmul timed
    // straight through `Tensor::matmul` (no planner, no executor), the
    // same kernel under `Tensor::conv2d`, and the compiled 6-op chain
    // closure driven block-by-block with `CompiledChain::run`. These
    // absolute medians are what the perf-record differ gates with a hard
    // floor on same-core-count hosts — they isolate the kernels this PR
    // series tunes from every scheduling layer above them.
    let mm_dim = 320usize;
    let ma = Tensor::random(vec![mm_dim, mm_dim], 11);
    let mb = Tensor::random(vec![mm_dim, mm_dim], 13);
    let (mm_p10, mm, mm_p90) = measure(10, || {
        black_box(ma.matmul(&mb, MatMulSpec::default()).unwrap());
    });
    let gflops = 2.0 * (mm_dim as f64).powi(3) / mm / 1e9;
    println!(
        "microkernel/matmul_gflops: {gflops:.2} GFLOP/s ({:.3} ms at {mm_dim}^3, MR={})",
        mm * 1e3,
        korch_tensor::MATMUL_MR
    );
    records.push(BenchRecord {
        name: "microkernel/matmul_gflops".into(),
        median_ns: mm * 1e9,
        p10_ns: mm_p10 * 1e9,
        p90_ns: mm_p90 * 1e9,
        speedup_vs_sequential: None,
        note: format!(
            "{gflops:.2} GFLOP/s: {mm_dim}x{mm_dim} Tensor::matmul through the \
             MR={} x NB register-blocked kernel, no executor",
            korch_tensor::MATMUL_MR
        ),
    });
    // The members a Segformer-64 walk spends its non-matmul time in, at
    // the shapes it runs them: a narrow product whose `n = 16` is all
    // column tail (the 16-wide instantiation of the block body), a 2-D
    // tile transpose and a last-axis fill broadcast. Each sample times
    // `REPS` calls — one call is a few microseconds.
    const REPS: usize = 64;
    let mut small = |name: &str, work: f64, unit: &str, what: &str, f: &dyn Fn() -> Tensor| {
        let (p10, median, p90) = measure(10, || {
            for _ in 0..REPS {
                black_box(f());
            }
        });
        let per_call = |t: f64| t / REPS as f64 * 1e9;
        let rate = work / per_call(median);
        println!(
            "{name}: {rate:.2} {unit} ({:.2} us, {what})",
            per_call(median) / 1e3
        );
        records.push(BenchRecord {
            name: name.into(),
            median_ns: per_call(median),
            p10_ns: per_call(p10),
            p90_ns: per_call(p90),
            speedup_vs_sequential: None,
            note: format!("{rate:.2} {unit}: {what}, no executor"),
        });
    };
    let (na, nb) = (
        Tensor::random(vec![256, 64], 23),
        Tensor::random(vec![64, 16], 29),
    );
    small(
        "microkernel/matmul_n16_gflops",
        korch_tensor::matmul_flops(1, 256, 16, 64) as f64,
        "GFLOP/s",
        "[256,64]x[64,16] Tensor::matmul, every column in the 16-wide tail block",
        &|| na.matmul(&nb, MatMulSpec::default()).unwrap(),
    );
    let tr = Tensor::random(vec![1, 64, 256], 31);
    small(
        "microkernel/transpose_gbps",
        2.0 * tr.byte_size() as f64,
        "GB/s",
        "[1,64,256] Tensor::transpose by [0,2,1], 16x16 tiles (bytes read + written)",
        &|| tr.transpose(&[0, 2, 1]).unwrap(),
    );
    let br = Tensor::random(vec![1, 64, 16], 37);
    small(
        "microkernel/broadcast_gbps",
        17.0 * br.byte_size() as f64,
        "GB/s",
        "[1,64,16] -> [1,64,16,16] last-axis Tensor::broadcast, one fill per input element \
         (bytes read + written)",
        &|| br.broadcast(3, 16).unwrap(),
    );
    // The elementwise members through the entry points a walk calls. The
    // op goes through `black_box` because a walk reads it from the graph:
    // a literal op lets the compiler fold the kernel's per-op `match` at
    // the call site and time a loop no walk runs.
    let (ea, eb) = (
        Tensor::random(vec![1 << 16], 41),
        Tensor::random(vec![1 << 16], 43),
    );
    small(
        "microkernel/ew_binary_gbps",
        3.0 * ea.byte_size() as f64,
        "GB/s",
        "64K-element Tensor::binary(Add), op through black_box (bytes read + written)",
        &|| ea.binary(&eb, black_box(BinaryOp::Add)).unwrap(),
    );
    let ex = Tensor::random(vec![1 << 16], 47).binary_scalar(10.0, BinaryOp::Mul);
    small(
        "microkernel/exp_gbps",
        2.0 * ex.byte_size() as f64,
        "GB/s",
        "64K-element Tensor::unary(Exp) over [-10, 10), op through black_box \
         (bytes read + written)",
        &|| ex.unary(black_box(UnaryOp::Exp)),
    );
    // The two conv paths of the Segformer traffic besides the dense panel
    // below, at their model shapes: the direct depthwise loop, and the
    // strided patch embed, whose column panel is filled from a
    // four-phase staging of the input.
    let (dw_x, dw_w) = (
        Tensor::random(vec![1, 64, 16, 16], 53),
        Tensor::random(vec![64, 1, 3, 3], 59),
    );
    small(
        "microkernel/conv_depthwise_gflops",
        korch_tensor::conv2d_flops(1, 64, 16, 16, 1, 3, 3) as f64,
        "GFLOP/s",
        "64-channel depthwise 3x3 pad 1 Tensor::conv2d on 16x16, the direct loop",
        &|| dw_x.conv2d(&dw_w, 1, 1, 64).unwrap(),
    );
    let (pe_x, pe_w) = (
        Tensor::random(vec![1, 3, 64, 64], 61),
        Tensor::random(vec![16, 3, 7, 7], 67),
    );
    small(
        "microkernel/conv_patch_embed_gflops",
        korch_tensor::conv2d_flops(1, 16, 16, 16, 3, 7, 7) as f64,
        "GFLOP/s",
        "3->16 7x7 stride 4 pad 3 Tensor::conv2d on 64x64, a column panel filled from the \
         four-phase staging",
        &|| pe_x.conv2d(&pe_w, 4, 3, 1).unwrap(),
    );
    // The same microkernel under `Tensor::conv2d`: the 16→32 3×3 conv on
    // 32×32 that e2e-bench's `tensor.conv2d_gflops` times (a column panel
    // filled from the staged input in several blocks) is the gated median;
    // the note adds the borrowed-panel pointwise case.
    let conv_gflops = |x: [usize; 4], w: [usize; 4], padding: usize| {
        let image = Tensor::random(x.to_vec(), 17);
        let weight = Tensor::random(w.to_vec(), 19);
        let (p10, median, p90) = measure(10, || {
            black_box(image.conv2d(&weight, 1, padding, 1).unwrap());
        });
        let flops = korch_tensor::conv2d_flops(x[0], w[0], x[2], x[3], w[1], w[2], w[3]);
        (flops as f64 / median / 1e9, p10, median, p90)
    };
    let (conv_gf, conv_p10, conv, conv_p90) = conv_gflops([1, 16, 32, 32], [32, 16, 3, 3], 1);
    let (pointwise_gf, ..) = conv_gflops([1, 64, 16, 16], [32, 64, 1, 1], 0);
    println!(
        "microkernel/conv2d_gflops: {conv_gf:.2} GFLOP/s ({:.3} ms, 16->32 3x3 on 32x32); \
         pointwise 64->32 on 16x16 {pointwise_gf:.2}",
        conv * 1e3
    );
    records.push(BenchRecord {
        name: "microkernel/conv2d_gflops".into(),
        median_ns: conv * 1e9,
        p10_ns: conv_p10 * 1e9,
        p90_ns: conv_p90 * 1e9,
        speedup_vs_sequential: None,
        note: format!(
            "{conv_gf:.2} GFLOP/s: 16->32 3x3 pad 1 Tensor::conv2d on 32x32 through a column \
             panel filled from the staged input and the MR={} x NB kernel, no executor; \
             pointwise 64->32 on 16x16 {pointwise_gf:.2} GFLOP/s",
            korch_tensor::MATMUL_MR
        ),
    });
    let (cg, cplan) = chain_kernel_plan(768);
    let ck = &cplan.kernels[0];
    let (chain, chain_inputs) = korch_exec::CompiledChain::compile(&cg, &ck.members, ck.outputs[0])
        .expect("6-op elementwise chain compiles");
    let cinputs = bench_inputs(&cg);
    assert_eq!(chain_inputs.len(), cinputs.len(), "one external input");
    let refs: Vec<&[f32]> = cinputs.iter().map(|t| t.as_slice()).collect();
    let mut cout = vec![0.0f32; 768 * 768];
    let (cb_p10, cb, cb_p90) = measure(10, || {
        chain.run(&refs, &mut cout).unwrap();
        black_box(&cout);
    });
    println!(
        "microkernel/chain6_blocked: {:.3} ms (6-op closure over cache blocks, 768^2)",
        cb * 1e3
    );
    records.push(BenchRecord {
        name: "microkernel/chain6_blocked".into(),
        median_ns: cb * 1e9,
        p10_ns: cb_p10 * 1e9,
        p90_ns: cb_p90 * 1e9,
        speedup_vs_sequential: None,
        note: "CompiledChain::run alone: 6-op mul/add/abs register program over \
               cache blocks, 768x768"
            .into(),
    });

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_runtime.json");
    write_bench_json(&path, &records).expect("perf record written");
    println!(
        "perf record: {} benches -> {}",
        records.len(),
        path.display()
    );
}

fn bench_serving(c: &mut Criterion) {
    let (g, plan) = independent_kernel_plan(4, 128, 128);
    let inputs = bench_inputs(&g);
    let mut group = c.benchmark_group("serving");
    // Servers are built before and shut down after the timed closure, so
    // each sample times the 16-request burst and nothing else.
    let burst = |server: &Server| {
        let handles: Vec<_> = (0..16).map(|_| server.submit(inputs.clone())).collect();
        for h in handles {
            black_box(h.wait().unwrap());
        }
    };
    let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(2)).unwrap();
    let server = Server::start(Arc::new(exec), BatchConfig::default());
    group.bench_function("batched_burst_16", |b| b.iter(|| burst(&server)));
    server.shutdown();
    // The same burst over one executor at 2 and 4 request workers: every
    // worker runs the one executor, each run on its own recycled run
    // state, all of them booking into one arena.
    let exec = Arc::new(PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(2)).unwrap());
    let workers = |n: usize| BatchConfig {
        shards: n,
        ..BatchConfig::default()
    };
    for n in [2usize, 4] {
        let server = Server::start(Arc::clone(&exec) as Arc<dyn Model>, workers(n));
        group.bench_with_input(BenchmarkId::new("burst_16/workers", n), &n, |b, _| {
            b.iter(|| burst(&server))
        });
        server.shutdown();
    }
    group.finish();

    // One-shot conservation check: 32 requests over 4 workers, every one
    // answered once, run once on the one executor, and its buffers back.
    exec.reset_profile();
    let server = Server::start(Arc::clone(&exec) as Arc<dyn Model>, workers(4));
    let handles: Vec<_> = (0..32).map(|_| server.submit(inputs.clone())).collect();
    for h in handles {
        black_box(h.wait().unwrap());
    }
    let stats = server.shutdown();
    println!(
        "serving/conservation: {} requests over 4 workers, {} errors, executor runs {}, \
         arena live bytes {}",
        stats.requests,
        stats.errors,
        exec.profile().runs,
        exec.arena_stats().live_bytes,
    );
    assert_eq!((stats.requests, stats.errors), (32, 0));
    assert_eq!(exec.profile().runs, 32);
    assert_eq!(exec.arena_stats().live_bytes, 0);
}

/// The closed calibration loop on a real model: compile, profile a few
/// runs, then fit + re-orchestrate + swap. Prints the model-error
/// tightening (the acceptance headline) alongside the loop's cost.
fn bench_recalibration(c: &mut Criterion) {
    let graph = softmax_attention(64, 32);
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let inputs: Vec<Tensor> = vec![Tensor::random(vec![64, 32], 7)];
    let mut group = c.benchmark_group("recalibration");
    group.bench_function("profile_fit_replan_swap", |b| {
        b.iter(|| {
            let compiled = korch
                .compile_with(&graph, &RuntimeConfig::with_lanes(2))
                .unwrap();
            for _ in 0..3 {
                compiled.execute(&inputs).unwrap();
            }
            black_box(korch.recalibrate(&compiled).unwrap())
        })
    });
    group.finish();

    // One-shot headline: the fitted calibration must tighten the cost
    // model against the measured kernels.
    let compiled = korch
        .compile_with(&graph, &RuntimeConfig::with_lanes(4))
        .unwrap();
    for _ in 0..5 {
        compiled.execute(&inputs).unwrap();
    }
    let steals: u64 = compiled.profiles().iter().map(|p| p.steals).sum();
    let report = korch.recalibrate(&compiled).unwrap();
    println!(
        "recalibration/model_error: {:.3} -> {:.3} ({:.1}x tighter), \
         memory x{:.3e}, compute x{:.3e}, {} steals during profiling",
        report.model_error_before,
        report.model_error_after,
        report.model_error_before / report.model_error_after.max(1e-12),
        report.calibration.memory_scale,
        report.calibration.compute_scale,
        steals,
    );
    // Tolerance matches the core unit test: kernels measured below the
    // simulated launch overhead are excluded from the fit but still
    // scored by model_error, so equality is legitimate.
    assert!(
        report.model_error_after <= report.model_error_before + 1e-9,
        "calibration worsened the model: {} -> {}",
        report.model_error_before,
        report.model_error_after
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_runtime, bench_tiled, bench_serving, bench_recalibration
}
criterion_main!(benches);
