//! Ablation benches for the optimizer's design choices: redundant
//! computation (the §4.2 relaxation) on/off, multi-output kernels on/off,
//! and the transformation search on/off. Each prints the plan quality
//! (simulated latency) once, then benchmarks the optimizer configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use korch_core::{Korch, KorchConfig};
use korch_cost::Device;
use korch_ir::{ConstInit, OpGraph, OpKind};
use korch_models::subgraphs::{segformer_decoder, softmax_attention};
use korch_orch::{OptimizeConfig, OrchestratorConfig};
use korch_transform::SearchConfig;
use std::hint::black_box;

/// The Fig. 4c-shaped graph where redundant computation pays off: a big
/// transpose feeding three matmuls (linear prims cannot share a kernel).
fn transpose_fanout() -> OpGraph {
    let mut g = OpGraph::new();
    let x = g
        .add(
            OpKind::Input {
                shape: vec![512, 512],
            },
            vec![],
        )
        .unwrap();
    let t = g
        .add(OpKind::Transpose { perm: vec![1, 0] }, vec![x.into()])
        .unwrap();
    for seed in 0..3u64 {
        let w = g
            .add(
                OpKind::Constant {
                    shape: vec![512, 64],
                    init: ConstInit::Random(seed),
                },
                vec![],
            )
            .unwrap();
        let mm = g.add(OpKind::MatMul, vec![t.into(), w.into()]).unwrap();
        g.mark_output(mm).unwrap();
    }
    g
}

fn config_with(allow_redundancy: bool, multi_output: bool, transform_depth: usize) -> KorchConfig {
    let mut orchestrator = OrchestratorConfig {
        optimize: OptimizeConfig {
            allow_redundancy,
            ..Default::default()
        },
        ..Default::default()
    };
    orchestrator.identify.multi_output = multi_output;
    KorchConfig {
        orchestrator,
        transform: SearchConfig {
            max_depth: transform_depth,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn bench_ablations(c: &mut Criterion) {
    let graphs = [
        ("softmax_attention", softmax_attention(1024, 64)),
        ("transpose_fanout", transpose_fanout()),
        ("decoder_bs16", segformer_decoder(16)),
    ];
    println!("\nAblation plan quality (simulated latency, V100):");
    for (name, g) in &graphs {
        let base = Korch::new(Device::v100(), config_with(true, false, 4))
            .optimize(g)
            .unwrap();
        let no_redundancy = Korch::new(Device::v100(), config_with(false, false, 4))
            .optimize(g)
            .unwrap();
        let multi_out = Korch::new(Device::v100(), config_with(true, true, 4))
            .optimize(g)
            .unwrap();
        let no_transform = Korch::new(Device::v100(), config_with(true, false, 0))
            .optimize(g)
            .unwrap();
        println!(
            "  {name}: full {:.4} ms | -redundancy {:.4} ms | +multi-output {:.4} ms | -transforms {:.4} ms",
            base.latency_ms(),
            no_redundancy.latency_ms(),
            multi_out.latency_ms(),
            no_transform.latency_ms(),
        );
    }

    let g = softmax_attention(256, 64);
    for (label, config) in [
        ("full", config_with(true, false, 4)),
        ("no_redundancy", config_with(false, false, 4)),
        ("no_transforms", config_with(true, false, 0)),
    ] {
        c.bench_function(&format!("ablation/{label}"), |b| {
            let korch = Korch::new(Device::v100(), config.clone());
            b.iter(|| korch.optimize(black_box(&g)).unwrap())
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ablations
}
criterion_main!(benches);
