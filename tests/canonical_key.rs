//! `Graph::canonical_key` is the numbering-independent key
//! `Korch::optimize_prims` drops duplicate transform variants by. A graph
//! and any topological renumbering of it that keeps the graph inputs in
//! their positional order must get one key; on the registered models the
//! transform search's known duplicates must collide, and each partition's
//! original graph must not collide with its first rewrite.

use korch::core::{partition, KorchConfig};
use korch::fission::fission;
use korch::ir::{ConstInit, EwFn, NodeId, OpGraph, PortRef, PrimGraph, PrimKind};
use korch::models::{segformer, subgraphs, SegformerConfig};
use korch::tensor::{BinaryOp, UnaryOp};
use korch::transform::optimize_graph;
use proptest::prelude::*;
use std::collections::HashSet;

/// Every partition's first `variants_to_orchestrate` variants' keys, in
/// partition order.
fn variant_keys(model: &OpGraph) -> Vec<Vec<u64>> {
    let config = KorchConfig::default();
    let prims = fission(model).unwrap().prim_graph;
    let parts = partition(&prims, config.partition_max_prims).unwrap();
    (parts.iter())
        .map(|p| {
            let variants = optimize_graph(&p.graph, &config.transform);
            (variants.iter())
                .take(config.variants_to_orchestrate)
                .map(PrimGraph::canonical_key)
                .collect()
        })
        .collect()
}

#[test]
fn registered_duplicate_variants_share_a_key() {
    let segformer32 = variant_keys(&segformer(SegformerConfig::tiny()));
    let effvit64 = variant_keys(&subgraphs::efficientvit_attention(64, 16));
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

/// A random DAG over `inputs` graph inputs of shape `[4]`: seeded
/// constants, unary and binary elementwise nodes. A node structurally
/// equal to an earlier one (same kind, same inputs) is skipped, since
/// the key may tell two renumberings of such twins apart; `outputs` picks
/// the outputs, in order, by offset back from the last node.
fn dag(inputs: usize, specs: &[Spec], outputs: &[usize]) -> PrimGraph {
    let mut g = PrimGraph::new();
    for _ in 0..inputs {
        g.add(PrimKind::Input { shape: vec![4] }, vec![]).unwrap();
    }
    let mut seen = HashSet::new();
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
        if seen.insert(format!("{kind:?} {reads:?}")) {
            g.add(kind, reads.into_iter().map(PortRef::from).collect())
                .unwrap();
        }
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
        prop_assert_eq!(g.canonical_key(), h.canonical_key());
    }
}
