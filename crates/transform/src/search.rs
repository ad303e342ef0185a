//! Bounded superoptimization search over the rewrite rules — the primitive
//! graph optimizer of paper Fig. 1, adopting TASO's backtracking-search
//! approach (§3 "Korch's primitive graph optimizer adopts the
//! superoptimization techniques introduced in prior work").
//!
//! Breadth-first over rule applications with fingerprint deduplication and
//! a beam keyed by a cheap structural heuristic. The *real* selection
//! happens downstream: `korch-core` orchestrates the top variants and keeps
//! the plan with the lowest profiled latency.

use crate::rules::default_rules;
use korch_ir::{PrimGraph, PrimKind};
use std::collections::HashSet;

/// Search budget.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Maximum rule-application depth.
    pub max_depth: usize,
    /// Variants kept per depth level (beam width).
    pub beam: usize,
    /// Maximum number of variants returned (including the original).
    pub max_variants: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            max_depth: 4,
            beam: 8,
            max_variants: 12,
        }
    }
}

/// Cheap structural proxy used only to order the beam: bytes flowing out of
/// every primitive plus a launch-equivalent per primitive. Smaller graphs
/// that replaced reduces by matmuls score better when they shrink traffic.
pub fn heuristic_cost(g: &PrimGraph) -> f64 {
    let mut cost = 0.0;
    for node in g.nodes() {
        if node.kind.is_source() {
            continue;
        }
        let out_bytes: usize = node.out_metas.iter().map(|m| m.byte_size()).sum();
        cost += out_bytes as f64;
        cost += 2048.0; // launch-equivalent per primitive
        if let PrimKind::Reduce { .. } = node.kind {
            cost += 4096.0; // reduces fuse poorly; bias toward removing them
        }
    }
    cost
}

/// Runs the bounded search, returning deduplicated variants (original
/// first), ordered by [`heuristic_cost`].
pub fn optimize_graph(g: &PrimGraph, config: &SearchConfig) -> Vec<PrimGraph> {
    let rules = default_rules();
    let mut seen: HashSet<u64> = HashSet::new();
    seen.insert(g.fingerprint());
    let mut all: Vec<PrimGraph> = vec![g.clone()];
    let mut frontier: Vec<PrimGraph> = vec![g.clone()];
    for _ in 0..config.max_depth {
        let mut next: Vec<PrimGraph> = Vec::new();
        for graph in &frontier {
            for rule in &rules {
                for variant in rule.apply_all(graph) {
                    if seen.insert(variant.fingerprint()) {
                        next.push(variant);
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        next.sort_by(|a, b| {
            heuristic_cost(a)
                .partial_cmp(&heuristic_cost(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        next.truncate(config.beam);
        all.extend(next.iter().cloned());
        frontier = next;
    }
    // Original first, then variants by heuristic.
    let original = all.remove(0);
    all.sort_by(|a, b| {
        heuristic_cost(a)
            .partial_cmp(&heuristic_cost(b))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    all.truncate(config.max_variants.saturating_sub(1));
    let mut out = vec![original];
    out.extend(all);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use korch_exec::execute_prims;
    use korch_ir::{ConstInit, EwFn, LinearFn, PrimKind};
    use korch_tensor::{BinaryOp, MatMulSpec, ReduceKind, Tensor, UnaryOp};

    fn softmax_matmul(m: usize, n: usize, p: usize) -> PrimGraph {
        let mut g = PrimGraph::new();
        let x = g
            .add(PrimKind::Input { shape: vec![m, n] }, vec![])
            .unwrap();
        let w = g
            .add(
                PrimKind::Constant {
                    shape: vec![n, p],
                    init: ConstInit::Random(7),
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
            .add(PrimKind::Broadcast { axis: 1, size: n }, vec![r.into()])
            .unwrap();
        let d = g
            .add(
                PrimKind::Elementwise(EwFn::Binary(BinaryOp::Div)),
                vec![e.into(), b.into()],
            )
            .unwrap();
        let mm = g
            .add(
                PrimKind::Linear(LinearFn::MatMul {
                    spec: MatMulSpec::new(),
                }),
                vec![d.into(), w.into()],
            )
            .unwrap();
        g.mark_output(mm).unwrap();
        g
    }

    #[test]
    fn search_discovers_fig2_variant() {
        // Somewhere in the search space there must be a variant with a
        // single matmul and no reduce (the Fig. 2b endpoint).
        let g = softmax_matmul(8, 16, 4);
        let variants = optimize_graph(&g, &SearchConfig::default());
        assert!(variants.len() > 1);
        let fig2 = variants.iter().any(|v| {
            let mm = v
                .nodes()
                .iter()
                .filter(|n| matches!(n.kind, PrimKind::Linear(_)))
                .count();
            let red = v
                .nodes()
                .iter()
                .filter(|n| matches!(n.kind, PrimKind::Reduce { .. }))
                .count();
            mm == 1 && red == 0
        });
        assert!(
            fig2,
            "Fig. 2b endpoint not found among {} variants",
            variants.len()
        );
    }

    #[test]
    fn all_variants_are_equivalent() {
        let g = softmax_matmul(4, 8, 3);
        let x = Tensor::random(vec![4, 8], 5);
        let reference = execute_prims(&g, std::slice::from_ref(&x)).unwrap();
        for v in optimize_graph(&g, &SearchConfig::default()) {
            let out = execute_prims(&v, std::slice::from_ref(&x)).unwrap();
            assert!(reference[0].allclose(&out[0], 1e-4), "variant diverged");
        }
    }

    #[test]
    fn original_always_first() {
        let g = softmax_matmul(4, 8, 3);
        let variants = optimize_graph(&g, &SearchConfig::default());
        assert_eq!(variants[0].fingerprint(), g.fingerprint());
    }

    #[test]
    fn zero_depth_returns_original_only() {
        let g = softmax_matmul(4, 8, 3);
        let variants = optimize_graph(
            &g,
            &SearchConfig {
                max_depth: 0,
                ..Default::default()
            },
        );
        assert_eq!(variants.len(), 1);
    }

    #[test]
    fn variant_cap_respected() {
        let g = softmax_matmul(8, 16, 4);
        let variants = optimize_graph(
            &g,
            &SearchConfig {
                max_variants: 3,
                ..Default::default()
            },
        );
        assert!(variants.len() <= 3);
    }

    #[test]
    fn heuristic_prefers_fewer_reduces() {
        let g = softmax_matmul(8, 16, 4);
        let variants = optimize_graph(&g, &SearchConfig::default());
        let reduce_count = |v: &PrimGraph| {
            v.nodes()
                .iter()
                .filter(|n| matches!(n.kind, PrimKind::Reduce { .. }))
                .count()
        };
        // The best-ranked non-original variant has at most as many reduces
        // as the original.
        if variants.len() > 1 {
            assert!(reduce_count(&variants[1]) <= reduce_count(&g));
        }
    }
}
