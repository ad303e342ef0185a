//! Component micro-benchmarks: how long each pipeline stage takes on the
//! softmax-attention subgraph (fission, state enumeration, kernel
//! identification, transformation search, full orchestration).

use criterion::{criterion_group, criterion_main, Criterion};
use korch_cost::{Backend, Device, Profiler};
use korch_fission::fission;
use korch_models::subgraphs::softmax_attention;
use korch_orch::{
    enumerate_states, identify_kernels, IdentifyConfig, Orchestrator, DEFAULT_MAX_STATES,
};
use korch_transform::{optimize_graph, SearchConfig};
use std::hint::black_box;

fn bench_components(c: &mut Criterion) {
    let g = softmax_attention(256, 64);
    let f = fission(&g).expect("fission");
    let pg = f.prim_graph;
    let profiler = Profiler::new(Device::v100());

    c.bench_function("fission/softmax_attention", |b| {
        b.iter(|| fission(black_box(&g)).unwrap())
    });

    c.bench_function("enumerate_states/softmax_attention", |b| {
        b.iter(|| enumerate_states(black_box(&pg), DEFAULT_MAX_STATES))
    });

    let space = enumerate_states(&pg, DEFAULT_MAX_STATES);
    c.bench_function("identify_kernels/softmax_attention", |b| {
        b.iter(|| {
            identify_kernels(
                black_box(&pg),
                &space,
                &profiler,
                &IdentifyConfig::default(),
                &[Backend::Generated, Backend::Vendor],
            )
        })
    });

    c.bench_function("transform_search/softmax_attention", |b| {
        b.iter(|| optimize_graph(black_box(&pg), &SearchConfig::default()))
    });

    let orch = Orchestrator::new(Device::v100());
    c.bench_function("orchestrate/softmax_attention", |b| {
        b.iter(|| orch.orchestrate(black_box(&pg)).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_components
}
criterion_main!(benches);
