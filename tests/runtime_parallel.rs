//! Differential tests for the parallel runtime: every `korch::models`
//! case-study subgraph, as one partition and cut into several, runs
//! through the sequential per-partition interpreter (`execute_plan`, via
//! `Optimized::execute` — the oracle), through `execute_plan` on the
//! stitched whole program, and through the `korch-runtime` work-stealing
//! executor over that program at 1, 2, 4 and 8 lanes, then again at 2 and
//! 4 lanes with tiling forced so the models' range kernels run as tiles;
//! outputs must be **bit-identical** and no configuration may deadlock.

use korch::core::{stitch, CompiledModel, Korch, KorchConfig, Optimized};
use korch::cost::Device;
use korch::exec::execute_plan;
use korch::ir::{OpGraph, OpKind, PrimKind};
use korch::models::subgraphs::{
    efficientvit_attention, instance_norm_block, segformer_attention, segformer_decoder_sized,
    softmax_attention, with_opaque_topk,
};
use korch::runtime::{PlanExecutor, RuntimeConfig, Tiling};

mod common;
use common::{assert_bit_identical, op_random_inputs};

/// Optimizes `g` twice — at the default partition size and cut into
/// small partitions — and holds every compiled form to the sequential
/// per-partition interpreter: the stitched `(graph, plan)` under
/// `execute_plan`, then the one stitched executor at several lane counts,
/// whole and force-tiled.
fn assert_parallel_matches_sequential(name: &str, g: &OpGraph, seed: u64) {
    let default = Korch::new(Device::v100(), KorchConfig::default());
    for (cut, korch) in [("default", default), ("small", small_partition_korch())] {
        let optimized = korch
            .optimize(g)
            .unwrap_or_else(|e| panic!("{name}: optimize failed: {e}"));
        if cut == "small" {
            let partitions = optimized.stats().partitions;
            assert!(partitions >= 2, "{name}: {partitions} partition(s)");
        }
        assert_compiled_matches_oracle(&format!("{name}, {cut} partitions"), &optimized, g, seed);
    }
}

/// A pipeline that cuts programs into partitions of at most 6 primitives,
/// so even the small test models compile from several.
fn small_partition_korch() -> Korch {
    let config = KorchConfig {
        partition_max_prims: 6,
        ..Default::default()
    };
    Korch::new(Device::v100(), config)
}

/// `Optimized::execute` is the oracle; the stitched program must equal it
/// bit for bit under `execute_plan` and under `CompiledModel::execute` at
/// lanes 1/2/4/8 (and 2/4 with every range kernel run as tiles).
fn assert_compiled_matches_oracle(name: &str, optimized: &Optimized, g: &OpGraph, seed: u64) {
    let inputs = op_random_inputs(g, seed);
    let reference = optimized
        .execute(&inputs)
        .unwrap_or_else(|e| panic!("{name}: sequential execution failed: {e}"));
    let (graph, plan) = stitch(optimized).unwrap_or_else(|e| panic!("{name}: stitch failed: {e}"));
    let interpreted = execute_plan(&graph, &plan, &inputs)
        .unwrap_or_else(|e| panic!("{name}: stitched plan failed to interpret: {e}"));
    assert_bit_identical(&reference, &interpreted, &format!("{name}, stitched"));
    let whole = [1usize, 2, 4, 8].map(RuntimeConfig::with_lanes);
    let tiled = [2usize, 4].map(|lanes| RuntimeConfig {
        tiling: Tiling::Forced { tile_rows: None },
        ..RuntimeConfig::with_lanes(lanes)
    });
    for config in whole.iter().chain(&tiled) {
        let ctx = format!(
            "{name} at {} lanes, tiling {:?}",
            config.lanes, config.tiling
        );
        let compiled = CompiledModel::from_optimized(optimized, config)
            .unwrap_or_else(|e| panic!("{ctx}: compile failed: {e}"));
        assert_eq!(
            compiled.partitions().len(),
            1,
            "{ctx}: one stitched program"
        );
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
    // partitions, which the compiled model stitches into one program.
    let g = softmax_chain(4);
    let korch = small_partition_korch();
    let optimized = korch.optimize(&g).unwrap();
    assert!(
        optimized.stats().partitions >= 2,
        "want a multi-partition program"
    );
    assert_compiled_matches_oracle("deep partitioned", &optimized, &g, 7);
}

/// `blocks` chained softmax + relu blocks over one `[24, 48]` input.
fn softmax_chain(blocks: usize) -> OpGraph {
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
    for _ in 0..blocks {
        let s = g.add(OpKind::Softmax { axis: 1 }, vec![cur]).unwrap();
        let r = g
            .add(OpKind::Unary(korch::tensor::UnaryOp::Relu), vec![s.into()])
            .unwrap();
        cur = r.into();
    }
    g.mark_output(cur).unwrap();
    g
}

/// A failure in the *last* partition's kernel: by then the one executor
/// holds everything the earlier partitions left alive, and its single
/// `settle` has to unwind all of it — `live_bytes` returns to zero at
/// every lane count, with two callers failing on the one executor at
/// once.
#[test]
fn late_opaque_failure_settles_the_single_arena() {
    let mut g = softmax_chain(3);
    let tail = *g.outputs().first().unwrap();
    let topk = g
        .add(
            OpKind::Custom {
                name: "topk".into(),
                out_shapes: vec![vec![24, 4]],
            },
            vec![tail],
        )
        .unwrap();
    g.mark_output(topk).unwrap();
    let korch = small_partition_korch();
    let optimized = korch.optimize(&g).expect("opaque graphs still optimize");
    let parts = optimized.partitions();
    assert!(
        parts.len() >= 3,
        "want several partitions before the failure"
    );
    let is_opaque = |n: &korch::ir::Node<PrimKind>| matches!(n.kind, PrimKind::Opaque { .. });
    for (i, part) in parts.iter().enumerate() {
        let holds_opaque = part.part.graph.nodes().iter().any(is_opaque);
        assert_eq!(holds_opaque, i == parts.len() - 1, "partition {i}");
    }
    let inputs = op_random_inputs(&g, 8);
    assert!(optimized.execute(&inputs).is_err());
    for lanes in [1usize, 2, 4] {
        let compiled =
            CompiledModel::from_optimized(&optimized, &RuntimeConfig::with_lanes(lanes)).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..3 {
                        assert!(compiled.execute(&inputs).is_err(), "lanes={lanes}");
                    }
                });
            }
        });
        let arena = compiled.arena_stats();
        assert!(arena.total_allocs > 0, "lanes={lanes} never ran");
        assert_eq!(arena.live_bytes, 0, "lanes={lanes} leaked");
    }
}

/// Only program inputs, constants and program outputs are pinned in the
/// stitched program: tensors crossing a partition boundary — pinned twice
/// each (producer's output, consumer's input) when every partition had
/// its own executor — are ordinary reclaimable intermediates.
#[test]
fn boundary_tensors_are_not_pinned() {
    let g = softmax_chain(4);
    let korch = small_partition_korch();
    let optimized = korch.optimize(&g).unwrap();
    assert!(optimized.stats().partitions >= 2);
    let compiled =
        CompiledModel::from_optimized(&optimized, &RuntimeConfig::with_lanes(2)).unwrap();
    let report = compiled.memory_report();
    let program = &compiled.partitions()[0].graph;
    let sources = program.iter().filter(|(_, n)| n.kind.is_source());
    let source_bytes: usize = sources.map(|(id, _)| program.meta(id).byte_size()).sum();
    let output_bytes = 24 * 48 * 4;
    assert_eq!(report.pinned_bytes, (source_bytes + output_bytes) as u64);
    let per_partition: u64 = optimized
        .partitions()
        .iter()
        .map(|p| {
            let exec = PlanExecutor::new(&p.part.graph, &p.plan, RuntimeConfig::with_lanes(1));
            exec.unwrap().memory_report().pinned_bytes
        })
        .sum();
    assert!(report.pinned_bytes < per_partition);
    assert!(report.reclaimable_buffers >= optimized.stats().partitions - 1);
    assert!(report.peak_resident_bytes <= report.allocate_everything_bytes);
}
