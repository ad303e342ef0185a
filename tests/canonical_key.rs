//! `Graph::canonical` is the one numbering every partition and transform
//! variant enters orchestration in, and its `fingerprint` is the
//! numbering-free key `Korch::optimize_prims` drops duplicate variants
//! by. A graph and any topological renumbering of it that keeps the graph
//! inputs in their positional order must get one canonical graph, twins
//! included: equal constants and same-kind readers of one tensor. The
//! copy must be a drop-in (idempotent, inputs and outputs in place, the
//! same values to the bit), and on the registered models the transform
//! search's known duplicates must collide while each partition's original
//! graph must not collide with its first rewrite.

use korch::core::{partition, KorchConfig};
use korch::cost::Device;
use korch::exec::execute_prims;
use korch::fission::fission;
use korch::ir::{ConstInit, EwFn, NodeId, OpGraph, PortRef, PrimGraph, PrimKind};
use korch::models::{
    candy, efficientvit, segformer, subgraphs, yolov4, yolox_nano, CandyConfig, EfficientVitConfig,
    SegformerConfig, YoloConfig,
};
use korch::orch::Orchestrator;
use korch::tensor::{BinaryOp, UnaryOp};
use korch::transform::optimize_graph;
use proptest::prelude::*;

mod common;
use common::prim_random_inputs;

/// Every partition's first `variants_to_orchestrate` variants, in their
/// canonical numbering, in partition order.
fn canonical_variants(model: &OpGraph) -> Vec<Vec<PrimGraph>> {
    let config = KorchConfig::default();
    let prims = fission(model).unwrap().prim_graph;
    let parts = partition(&prims, config.partition_max_prims).unwrap();
    (parts.iter())
        .map(|p| {
            let variants = optimize_graph(&p.graph, &config.transform);
            (variants.iter())
                .take(config.variants_to_orchestrate)
                .map(PrimGraph::canonical)
                .collect()
        })
        .collect()
}

#[test]
fn registered_duplicate_variants_share_a_key() {
    let keys = |model: &OpGraph| -> Vec<Vec<u64>> {
        (canonical_variants(model).iter())
            .map(|v| v.iter().map(PrimGraph::fingerprint).collect())
            .collect()
    };
    let segformer32 = keys(&segformer(SegformerConfig::tiny()));
    let effvit64 = keys(&subgraphs::efficientvit_attention(64, 16));
    // Variants 1 and 2 of these partitions are one graph numbered two
    // ways (on segformer32's partition 6 only a `ones` constant moves).
    for (model, keys, p) in [
        ("segformer32", &segformer32, 2),
        ("segformer32", &segformer32, 6),
        ("effvit64", &effvit64, 0),
    ] {
        assert_eq!(keys[p].len(), 3, "{model} partition {p}");
        assert_eq!(keys[p][1], keys[p][2], "{model} partition {p}");
    }
    for (model, keys) in [("segformer32", &segformer32), ("effvit64", &effvit64)] {
        for (p, keys) in keys.iter().enumerate().filter(|(_, k)| k.len() > 1) {
            assert_ne!(keys[0], keys[1], "{model} partition {p}");
        }
    }
}

/// One node of a random graph: a kind and the earlier nodes it reads,
/// each as an offset back from the new node.
type Spec = (u8, usize, usize);

/// A random DAG over `inputs` graph inputs of shape `[4]`: constants of
/// three seeds, unary and binary elementwise nodes. Nothing stops a node
/// from repeating an earlier one, so twins are common: equal constants,
/// and readers of one tensor of one kind. `outputs` picks the outputs, in
/// order, by offset back from the last node.
fn dag(inputs: usize, specs: &[Spec], outputs: &[usize]) -> PrimGraph {
    let mut g = PrimGraph::new();
    for _ in 0..inputs {
        g.add(PrimKind::Input { shape: vec![4] }, vec![]).unwrap();
    }
    for &(kind, a, b) in specs {
        let n = g.len();
        let (a, b) = (NodeId(n - 1 - a % n), NodeId(n - 1 - b % n));
        let (kind, reads) = match kind % 6 {
            0 => (
                PrimKind::Constant {
                    shape: vec![4],
                    init: ConstInit::Random(a.0 as u64 % 3),
                },
                vec![],
            ),
            1 => (PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp)), vec![a]),
            2 => (PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)), vec![a]),
            3 => (
                PrimKind::Elementwise(EwFn::Binary(BinaryOp::Add)),
                vec![a, b],
            ),
            4 => (
                PrimKind::Elementwise(EwFn::Binary(BinaryOp::Sub)),
                vec![a, b],
            ),
            _ => (
                PrimKind::Elementwise(EwFn::Binary(BinaryOp::Mul)),
                vec![a, b],
            ),
        };
        g.add(kind, reads.into_iter().map(PortRef::from).collect())
            .unwrap();
    }
    for &o in outputs {
        g.mark_output(NodeId(g.len() - 1 - o % g.len())).unwrap();
    }
    g
}

/// `g` renumbered in a topological order `picks` chooses among the ready
/// nodes, the graph inputs kept in their positional order.
fn renumbered(g: &PrimGraph, picks: &[usize]) -> PrimGraph {
    let n = g.len();
    let is_input = |i: usize| matches!(g.node(NodeId(i)).kind, PrimKind::Input { .. });
    let mut new_id = vec![None; n];
    let mut out = PrimGraph::new();
    let mut next_input = (0..n).filter(|&i| is_input(i));
    let mut input = next_input.next();
    for step in 0..n {
        let ready: Vec<usize> = (0..n)
            .filter(|&i| new_id[i].is_none() && (!is_input(i) || Some(i) == input))
            .filter(|&i| {
                g.node(NodeId(i))
                    .inputs
                    .iter()
                    .all(|r| new_id[r.node.0].is_some())
            })
            .collect();
        let i = ready[picks.get(step).copied().unwrap_or(0) % ready.len()];
        if Some(i) == input {
            input = next_input.next();
        }
        let node = g.node(NodeId(i));
        let reads = (node.inputs.iter())
            .map(|r| PortRef {
                node: new_id[r.node.0].unwrap(),
                port: r.port,
            })
            .collect();
        new_id[i] = Some(out.add(node.kind.clone(), reads).unwrap());
    }
    for o in g.outputs() {
        out.mark_output(PortRef {
            node: new_id[o.node.0].unwrap(),
            port: o.port,
        })
        .unwrap();
    }
    out
}

/// `g` renumbered in the topological order a seeded splitmix64 stream
/// picks.
fn renumbered_seeded(g: &PrimGraph, seed: u64) -> PrimGraph {
    let mut state = seed;
    let picks: Vec<usize> = (0..g.len())
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize
        })
        .collect();
    renumbered(g, &picks)
}

/// The node kinds, edges and outputs, for comparing two graphs node for
/// node.
fn structure(g: &PrimGraph) -> String {
    let nodes: Vec<_> = g.nodes().iter().map(|n| (&n.kind, &n.inputs)).collect();
    format!("{nodes:?} -> {:?}", g.outputs())
}

/// The graph inputs' shapes in positional order.
fn input_shapes(g: &PrimGraph) -> Vec<Vec<usize>> {
    (g.nodes().iter())
        .filter_map(|n| match &n.kind {
            PrimKind::Input { shape } => Some(shape.clone()),
            _ => None,
        })
        .collect()
}

/// `g.canonical()` is a fixed point and a drop-in for `g`: the inputs
/// come first in their order, the outputs keep their order and metadata,
/// and it computes `g`'s values to the bit.
fn assert_drop_in(g: &PrimGraph, ctx: &str) {
    let c = g.canonical();
    assert_eq!(
        structure(&c.canonical()),
        structure(&c),
        "{ctx}: idempotent"
    );
    let inputs = input_shapes(g).len();
    assert_eq!(input_shapes(&c), input_shapes(g), "{ctx}: inputs");
    assert!(
        (c.nodes().iter().take(inputs)).all(|n| matches!(n.kind, PrimKind::Input { .. })),
        "{ctx}: inputs first"
    );
    assert_eq!(c.outputs().len(), g.outputs().len(), "{ctx}: outputs");
    for (a, b) in c.outputs().iter().zip(g.outputs()) {
        assert_eq!(c.meta(*a), g.meta(*b), "{ctx}: output metadata");
    }
    // By bits: a partition fed random values computes NaNs.
    let bits = |g: &PrimGraph| -> Vec<Vec<u32>> {
        let outputs = execute_prims(g, &prim_random_inputs(g, 5)).unwrap();
        (outputs.iter())
            .map(|t| t.as_slice().iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    assert_eq!(bits(&c), bits(g), "{ctx}: values");
}

/// The five tiny models, the e2e-bench's two Segformers and the two
/// `compile_suite` compiles.
fn sweep_models() -> Vec<(&'static str, OpGraph)> {
    let segformer64 = SegformerConfig {
        resolution: 64,
        batch: 1,
        dims: vec![16, 32],
        blocks: 1,
        sr_ratios: vec![2, 1],
        decoder_dim: 32,
    };
    let candy32 = CandyConfig {
        resolution: 32,
        width: 8,
        residual_blocks: 0,
    };
    vec![
        ("candy-tiny", candy(CandyConfig::tiny())),
        ("yolox-tiny", yolox_nano(YoloConfig::tiny())),
        ("yolov4-tiny", yolov4(YoloConfig::tiny())),
        (
            "efficientvit-tiny",
            efficientvit(EfficientVitConfig::tiny()),
        ),
        ("segformer32", segformer(SegformerConfig::tiny())),
        ("segformer64", segformer(segformer64)),
        ("candy32", candy(candy32)),
        ("effvit64", subgraphs::efficientvit_attention(64, 16)),
    ]
}

/// Ten seeded renumberings of every partition and every variant the
/// pipeline orchestrates give one canonical graph, and the canonical copy
/// of each is a drop-in.
#[test]
fn renumbered_partitions_and_variants_canonicalize_alike() {
    for (model, g) in sweep_models() {
        for (p, variants) in canonical_variants(&g).iter().enumerate() {
            for (v, variant) in variants.iter().enumerate() {
                let ctx = format!("{model} partition {p} variant {v}");
                let want = structure(variant);
                for seed in 0..10 {
                    let h = renumbered_seeded(variant, seed);
                    assert_eq!(structure(&h.canonical()), want, "{ctx} seed {seed}");
                }
                if v == 0 {
                    assert_drop_in(variant, &ctx);
                }
            }
        }
    }
}

/// segformer32's partitions, each renumbered and put back in canonical
/// numbering, orchestrate to the partition's plan, bit for bit.
#[test]
fn renumbered_segformer32_partitions_plan_alike() {
    let config = KorchConfig::default();
    let prims = fission(&segformer(SegformerConfig::tiny()))
        .unwrap()
        .prim_graph;
    let orchestrator = Orchestrator::new(Device::v100()).with_config(config.orchestrator);
    let plan_bits = |g: &PrimGraph| {
        let plan = orchestrator.orchestrate(g).unwrap().plan;
        let kernels: Vec<_> = (plan.kernels.iter())
            .map(|k| (&k.members, &k.outputs, k.backend, k.latency.0.to_bits()))
            .collect();
        format!("{kernels:?} total {}", plan.total_latency.0.to_bits())
    };
    for (p, part) in (partition(&prims, config.partition_max_prims).unwrap())
        .iter()
        .enumerate()
    {
        let renumbered = renumbered_seeded(&part.graph, p as u64).canonical();
        assert_eq!(
            plan_bits(&renumbered),
            plan_bits(&part.graph),
            "partition {p}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a_renumbered_graph_keeps_its_key(
        inputs in 1usize..4,
        specs in prop::collection::vec((0u8..6, 0usize..6, 0usize..6), 1..14),
        outputs in prop::collection::vec(0usize..6, 1..4),
        picks in prop::collection::vec(0usize..16, 0..20),
    ) {
        let g = dag(inputs, &specs, &outputs);
        let h = renumbered(&g, &picks);
        prop_assert_eq!(h.len(), g.len());
        prop_assert_eq!(g.canonical().fingerprint(), h.canonical().fingerprint());
    }

    #[test]
    fn canonical_is_an_idempotent_drop_in(
        inputs in 1usize..4,
        specs in prop::collection::vec((0u8..6, 0usize..6, 0usize..6), 1..14),
        outputs in prop::collection::vec(0usize..6, 1..4),
    ) {
        assert_drop_in(&dag(inputs, &specs, &outputs), "random dag");
    }
}
