//! Criterion bench for the beyond-paper quick-prune identification (§8
//! tuning-time acceleration): prints the candidate and tuning-time numbers
//! once, then measures the optimizer-side runtime of identification with
//! and without the prune (the thing a compiler engineer would profile).

use criterion::{criterion_group, criterion_main, Criterion};
use korch_cost::{Backend, Device, Profiler};
use korch_fission::fission;
use korch_ir::PrimGraph;
use korch_models::subgraphs::softmax_attention;
use korch_orch::{enumerate_states, identify_kernels, Candidates, IdentifyConfig};
use std::hint::black_box;

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

fn bench_quick_prune(c: &mut Criterion) {
    let g = fission(&softmax_attention(256, 64)).unwrap().prim_graph;
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
        full.admitted,
        full.tuning_time_s,
        pruned.admitted,
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
            b.iter(|| black_box(candidates(black_box(&g), &cfg).admitted))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_quick_prune);
criterion_main!(benches);
