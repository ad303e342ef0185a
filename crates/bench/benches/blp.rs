//! Solver benchmarks: the from-scratch branch & bound (the paper's
//! PuLP/CBC substitute) against Balas implicit enumeration on
//! covering-style instances shaped like Korch's orchestration BLPs, the
//! one real orchestration solve that is most of a Segformer-64 compile,
//! and the LP engine alone — cold, and re-solved after one bound moved.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use korch_blp::{BalasSolver, BlpProblem, BranchAndBound, Constraint, Lp, LpOutcome, Solver};
use korch_core::{partition, KorchConfig};
use korch_cost::{Backend, Device, Profiler};
use korch_fission::fission;
use korch_orch::{enumerate_states, identify_kernels, optimize, DEFAULT_MAX_STATES};
use korch_transform::optimize_graph;
use std::hint::black_box;

/// Deterministic pseudo-random covering instance with dependency rows.
fn instance(n_vars: usize, n_cover: usize, seed: u64) -> BlpProblem {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let costs: Vec<f64> = (0..n_vars).map(|_| 1.0 + (next() % 64) as f64).collect();
    let mut p = BlpProblem::minimize(costs);
    for _ in 0..n_cover {
        let mut coeffs = Vec::new();
        for j in 0..n_vars {
            if next() % 4 == 0 {
                coeffs.push((j, 1.0));
            }
        }
        if coeffs.is_empty() {
            coeffs.push(((next() % n_vars as u64) as usize, 1.0));
        }
        p.add(Constraint::ge(coeffs, 1.0));
    }
    // dependency-shaped rows: u_a covers what u_b needs
    for _ in 0..n_cover / 2 {
        let a = (next() % n_vars as u64) as usize;
        let b = (next() % n_vars as u64) as usize;
        if a != b {
            p.add(Constraint::ge(vec![(a, 1.0), (b, -1.0)], 0.0));
        }
    }
    p
}

/// The (partition, variant) of e2e-bench's Segformer-64 (`exec_compute`)
/// whose BLP — 220 variables × 416 rows — is two thirds of the model's
/// solve time (`probe blp segformer64` prints the table).
const HARD_PARTITION: (usize, usize) = (6, 1);

/// The orchestration solve as `Korch::optimize` runs it on that variant:
/// cover rows, warm starts, branch & bound, kernel order.
fn bench_orchestration(c: &mut Criterion) {
    let config = KorchConfig::default();
    let prims = fission(&korch_bench::segformer64()).unwrap().prim_graph;
    let parts = partition(&prims, config.partition_max_prims).unwrap();
    let part = &parts[HARD_PARTITION.0].graph;
    let g = &optimize_graph(part, &config.transform)[HARD_PARTITION.1];
    let space = enumerate_states(
        g,
        config.orchestrator.max_states.unwrap_or(DEFAULT_MAX_STATES),
    );
    let cands = identify_kernels(
        g,
        &space,
        &Profiler::new(Device::v100()),
        &config.orchestrator.identify,
        &[Backend::Generated, Backend::Vendor],
    );
    let solve = || optimize(g, &cands, Some(&space), &config.orchestrator.optimize).unwrap();
    let (_, report) = solve();
    assert_eq!(
        (report.num_candidates, report.num_constraints),
        (220, 416),
        "the hard partition moved: pick it again from `probe blp segformer64`"
    );
    let mut group = c.benchmark_group("blp_solvers");
    group.bench_function("orchestration_segformer64", |b| b.iter(solve));
    group.finish();
}

/// The LP relaxation alone on a bench-shape instance of the hard
/// partition's size: built and solved from the slack basis, and re-solved
/// on a copy of the solved dictionary after the most fractional variable
/// is pinned to 0 — what a branch-and-bound child costs (the copy is
/// ~5 % of it).
fn bench_lp(c: &mut Criterion) {
    let p = instance(220, 208, 7);
    let free = vec![None; p.num_vars()];
    let mut group = c.benchmark_group("lp");
    group.bench_function("solve", |b| b.iter(|| Lp::new(black_box(&p)).solve(&free)));
    let mut solved = Lp::new(&p);
    let LpOutcome::Optimal { x, pivots, .. } = solved.solve(&free) else {
        panic!("bench instance is feasible");
    };
    let half = |j: &usize| (x[*j] - 0.5).abs();
    let j = (0..x.len())
        .min_by(|a, b| half(a).total_cmp(&half(b)))
        .unwrap();
    let mut pinned = free.clone();
    pinned[j] = Some(0.0);
    let LpOutcome::Optimal { pivots: warm, .. } = solved.clone().solve(&pinned) else {
        panic!("bench instance stays feasible without variable {j}");
    };
    assert!(warm < pivots, "the re-solve is no longer a warm start");
    group.bench_function("resolve_one_bound", |b| {
        b.iter(|| black_box(&solved).clone().solve(&pinned))
    });
    group.finish();
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("blp_solvers");
    for &(n, rows) in &[(12usize, 8usize), (24, 14), (48, 24)] {
        let p = instance(n, rows, 7);
        group.bench_with_input(BenchmarkId::new("branch_and_bound", n), &p, |b, p| {
            b.iter(|| BranchAndBound::default().solve(black_box(p)).unwrap())
        });
        if n <= 24 {
            group.bench_with_input(BenchmarkId::new("balas", n), &p, |b, p| {
                b.iter(|| BalasSolver::default().solve(black_box(p)).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_solvers, bench_orchestration, bench_lp
}
criterion_main!(benches);
