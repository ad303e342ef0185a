//! Criterion benches for the beyond-paper extensions: the layout-aware BLP
//! (§8) and quick-prune identification (§8 tuning-time acceleration). Each
//! bench first prints the plan-quality numbers once, then measures the
//! optimizer-side runtime of the extension itself (the thing a compiler
//! engineer would profile).

use criterion::{criterion_group, criterion_main, Criterion};
use korch_cost::{Backend, Device, Profiler};
use korch_fission::fission;
use korch_ir::PrimGraph;
use korch_models::subgraphs::softmax_attention;
use korch_orch::{
    enumerate_states, identify_kernels, optimize, optimize_with_layouts, Candidates,
    IdentifyConfig, LayoutConfig, OptimizeConfig,
};
use std::hint::black_box;

fn attention_prims() -> PrimGraph {
    fission(&softmax_attention(256, 64)).unwrap().prim_graph
}

fn candidates(g: &PrimGraph, config: &IdentifyConfig) -> Candidates {
    let space = enumerate_states(g, 10_000);
    identify_kernels(
        g,
        &space,
        &Profiler::new(Device::v100()),
        config,
        &[Backend::Generated, Backend::Vendor],
    )
}

fn bench_layout_blp(c: &mut Criterion) {
    let g = attention_prims();
    let cands = candidates(&g, &IdentifyConfig::default());
    let profiler = Profiler::new(Device::v100());
    let (std_plan, _) = optimize(&g, &cands, None, &OptimizeConfig::default()).unwrap();
    let outcome = optimize_with_layouts(&g, &cands, &profiler, &LayoutConfig::default()).unwrap();
    println!(
        "layout BLP on attention: standard {:.2} µs vs layout-aware {:.2} µs ({} variants)",
        std_plan.total_latency.0, outcome.plan.total_latency.0, outcome.report.num_candidates,
    );
    c.bench_function("layout_blp/attention_256x64", |b| {
        b.iter(|| {
            let o = optimize_with_layouts(
                black_box(&g),
                black_box(&cands),
                &profiler,
                &LayoutConfig::default(),
            )
            .unwrap();
            black_box(o.plan.total_latency)
        })
    });
}

fn bench_quick_prune(c: &mut Criterion) {
    let g = attention_prims();
    let full = candidates(&g, &IdentifyConfig::default());
    let pruned = candidates(
        &g,
        &IdentifyConfig {
            quick_prune: Some(1.0),
            ..Default::default()
        },
    );
    println!(
        "identification: {} candidates / {:.1} s tuning (full) vs {} / {:.1} s (quick-pruned, {} skipped)",
        full.kernels.len(),
        full.tuning_time_s,
        pruned.kernels.len(),
        pruned.tuning_time_s,
        pruned.quick_pruned,
    );
    let mut group = c.benchmark_group("identify");
    for (name, cfg) in [
        ("full", IdentifyConfig::default()),
        (
            "quick_prune",
            IdentifyConfig {
                quick_prune: Some(1.0),
                ..Default::default()
            },
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(candidates(black_box(&g), &cfg).kernels.len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_layout_blp, bench_quick_prune);
criterion_main!(benches);
