//! Differential tests for the parallel runtime: every `korch::models`
//! case-study subgraph runs through the sequential interpreter
//! (`execute_plan`, via `Optimized::execute`) and the `korch-runtime`
//! work-stealing executor at 1, 2, 4 and 8 lanes, then again at 2 and 4
//! lanes with the split threshold forced to zero so the models' range
//! kernels run as tiles; outputs must be **bit-identical** and no
//! configuration may deadlock.

use korch::core::{CompiledModel, Korch, KorchConfig};
use korch::cost::Device;
use korch::ir::{OpGraph, OpKind};
use korch::models::subgraphs::{
    efficientvit_attention, instance_norm_block, segformer_attention, segformer_decoder_sized,
    softmax_attention, with_opaque_topk,
};
use korch::runtime::RuntimeConfig;

mod common;
use common::{assert_bit_identical, op_random_inputs};

/// Optimizes `g` once, then checks the parallel executor against the
/// sequential interpreter at several lane counts, whole and force-tiled.
fn assert_parallel_matches_sequential(name: &str, g: &OpGraph, seed: u64) {
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let optimized = korch
        .optimize(g)
        .unwrap_or_else(|e| panic!("{name}: optimize failed: {e}"));
    let inputs = op_random_inputs(g, seed);
    let reference = optimized
        .execute(&inputs)
        .unwrap_or_else(|e| panic!("{name}: sequential execution failed: {e}"));
    let whole = [1usize, 2, 4, 8].map(RuntimeConfig::with_lanes);
    let tiled = [2usize, 4].map(|lanes| RuntimeConfig {
        split_threshold_us: Some(0.0),
        ..RuntimeConfig::with_lanes(lanes)
    });
    for config in whole.iter().chain(&tiled) {
        let ctx = format!(
            "{name} at {} lanes, split threshold {:?}",
            config.lanes, config.split_threshold_us
        );
        let compiled = CompiledModel::from_optimized(&optimized, config)
            .unwrap_or_else(|e| panic!("{ctx}: compile failed: {e}"));
        let out = compiled
            .execute(&inputs)
            .unwrap_or_else(|e| panic!("{ctx}: parallel execution failed: {e}"));
        assert_bit_identical(&reference, &out, &ctx);
    }
}

#[test]
fn softmax_attention_parallel_parity() {
    assert_parallel_matches_sequential("softmax_attention", &softmax_attention(32, 16), 1);
}

#[test]
fn segformer_attention_parallel_parity() {
    assert_parallel_matches_sequential("segformer_attention", &segformer_attention(16, 8, 2), 2);
}

#[test]
fn efficientvit_attention_parallel_parity() {
    assert_parallel_matches_sequential("efficientvit_attention", &efficientvit_attention(16, 4), 3);
}

#[test]
fn segformer_decoder_parallel_parity() {
    assert_parallel_matches_sequential(
        "segformer_decoder",
        &segformer_decoder_sized(1, &[8, 4], 8, 8),
        4,
    );
}

#[test]
fn instance_norm_block_parallel_parity() {
    assert_parallel_matches_sequential("instance_norm_block", &instance_norm_block(4, 8), 5);
}

#[test]
fn opaque_subgraph_fails_identically_in_both_runtimes() {
    // The opaque escape hatch optimizes but cannot execute on CPU; the
    // parallel runtime must report the same failure as the interpreter
    // rather than hanging or succeeding.
    let g = with_opaque_topk(16, 4);
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let optimized = korch.optimize(&g).expect("opaque graphs still optimize");
    let inputs = op_random_inputs(&g, 6);
    let sequential = optimized.execute(&inputs);
    assert!(sequential.is_err(), "opaque primitive should not interpret");
    for lanes in [1usize, 2, 4, 8] {
        let compiled = CompiledModel::from_optimized(&optimized, &RuntimeConfig::with_lanes(lanes))
            .expect("compilation does not evaluate opaque kernels");
        let parallel = compiled.execute(&inputs);
        assert!(
            parallel.is_err(),
            "parallel runtime must also reject opaque kernels"
        );
    }
}

#[test]
fn deep_partitioned_model_parallel_parity() {
    // Multi-partition coverage: chained softmax blocks force several
    // partitions, so the compiled model stitches multiple executors.
    let mut g = OpGraph::new();
    let x = g
        .add(
            OpKind::Input {
                shape: vec![24, 48],
            },
            vec![],
        )
        .unwrap();
    let mut cur = korch::ir::PortRef::from(x);
    for _ in 0..4 {
        let s = g.add(OpKind::Softmax { axis: 1 }, vec![cur]).unwrap();
        let r = g
            .add(OpKind::Unary(korch::tensor::UnaryOp::Relu), vec![s.into()])
            .unwrap();
        cur = r.into();
    }
    g.mark_output(cur).unwrap();
    let config = KorchConfig {
        partition_max_prims: 6,
        ..Default::default()
    };
    let korch = Korch::new(Device::v100(), config);
    let optimized = korch.optimize(&g).unwrap();
    assert!(
        optimized.stats().partitions >= 2,
        "want a multi-partition program"
    );
    let inputs = op_random_inputs(&g, 7);
    let reference = optimized.execute(&inputs).unwrap();
    for lanes in [1usize, 2, 4, 8] {
        let compiled =
            CompiledModel::from_optimized(&optimized, &RuntimeConfig::with_lanes(lanes)).unwrap();
        let out = compiled.execute(&inputs).unwrap();
        assert_bit_identical(
            &reference,
            &out,
            &format!("deep partitioned at {lanes} lanes"),
        );
    }
}
