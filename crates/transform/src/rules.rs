//! The rewrite rules (paper §3, Figs. 2b and 9):
//!
//! 1. **ReduceSum → MatMul** with an all-ones vector (enables merging the
//!    softmax denominator into a neighbouring MatMul);
//! 2. **Div/MatMul reorder**: `(A ÷ bcast(s)) · W → (A · W) ÷ bcast(s)`
//!    (the TASO transformation used in Fig. 2b step 2);
//! 3. **Shared-input MatMul merge**: two MatMuls sharing their left operand
//!    fuse into one MatMul over concatenated weights plus a Split (Fig. 2b
//!    step 3 and Fig. 9b; the paper realizes the concat with Pad);
//! 4. **Transpose folding**: a Transpose that swaps the two contraction
//!    dims of a MatMul operand folds into the BLAS transpose flag (the
//!    layout optimization of Fig. 8).

use crate::rewrite::Rewrite;
use korch_ir::{ConstInit, EwFn, LayoutFn, LinearFn, NodeId, PortRef, PrimGraph, PrimKind};
use korch_tensor::{BinaryOp, MatMulSpec, ReduceKind};

/// A rewrite rule: finds match sites and produces rewritten graphs.
pub trait Rule {
    /// Stable rule name (for reports and tests).
    fn name(&self) -> &'static str;
    /// All rewritten variants of `g` produced by applying this rule once.
    fn apply_all(&self, g: &PrimGraph) -> Vec<PrimGraph>;
}

/// The built-in rule set.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(ReduceToMatMul),
        Box::new(DivMatMulReorder),
        Box::new(MergeSharedMatMuls),
        Box::new(FoldTransposeIntoMatMul),
        Box::new(crate::rules_extra::ComposeTransposes),
        Box::new(crate::rules_extra::ComposeReshapes),
        Box::new(crate::rules_extra::MergeSharedRhsMatMuls),
    ]
}

fn matmul_spec(g: &PrimGraph, id: NodeId) -> Option<MatMulSpec> {
    match &g.node(id).kind {
        PrimKind::Linear(LinearFn::MatMul { spec }) => Some(*spec),
        _ => None,
    }
}

/// Rule 1: `ReduceSum(axis = last)` on a rank ≥ 2 tensor equals `MatMul`
/// with a ones column vector followed by a reshape that drops the
/// trailing 1 (paper Fig. 2b step 1, footnote 2).
pub struct ReduceToMatMul;

impl Rule for ReduceToMatMul {
    fn name(&self) -> &'static str {
        "reduce-sum-to-matmul"
    }

    fn apply_all(&self, g: &PrimGraph) -> Vec<PrimGraph> {
        let mut out = Vec::new();
        for (id, node) in g.iter() {
            let PrimKind::Reduce {
                kind: ReduceKind::Sum,
                axis,
            } = node.kind
            else {
                continue;
            };
            let in_shape = g.meta(node.inputs[0]).shape().to_vec();
            if in_shape.len() < 2 || axis != in_shape.len() - 1 {
                continue;
            }
            let n = in_shape[axis];
            let mut rw = Rewrite::new();
            // ones: [.., n, 1] with the same batch dims as the input
            let mut full_ones = in_shape.clone();
            full_ones[in_shape.len() - 1] = 1;
            full_ones[in_shape.len() - 2] = n;
            let ones = rw.add_node(
                g.len(),
                PrimKind::Constant {
                    shape: full_ones,
                    init: ConstInit::Ones,
                },
                vec![],
            );
            let mm = rw.add_node(
                g.len(),
                PrimKind::Linear(LinearFn::MatMul {
                    spec: MatMulSpec::new(),
                }),
                vec![node.inputs[0], ones.into()],
            );
            let mut out_shape = in_shape.clone();
            out_shape.remove(axis);
            let reshape = rw.add_node(
                g.len(),
                PrimKind::Layout(LayoutFn::Reshape { shape: out_shape }),
                vec![mm.into()],
            );
            rw.substitute(id.into(), reshape.into());
            if let Ok(new_g) = rw.apply(g) {
                out.push(new_g);
            }
        }
        out
    }
}

/// Rule 2: `MatMul(Div(A, Broadcast(s, last)), W)` →
/// `Div(MatMul(A, W), Broadcast(s, last))`. Sound because row scaling
/// commutes with right multiplication.
pub struct DivMatMulReorder;

impl Rule for DivMatMulReorder {
    fn name(&self) -> &'static str {
        "div-matmul-reorder"
    }

    fn apply_all(&self, g: &PrimGraph) -> Vec<PrimGraph> {
        let mut out = Vec::new();
        for (mm_id, mm_node) in g.iter() {
            let Some(spec) = matmul_spec(g, mm_id) else {
                continue;
            };
            if spec.trans_a {
                continue; // row scaling no longer aligns with the last axis
            }
            let div_port = mm_node.inputs[0];
            let PrimKind::Elementwise(EwFn::Binary(BinaryOp::Div)) = g.node(div_port.node).kind
            else {
                continue;
            };
            let div_node = g.node(div_port.node);
            let bcast_port = div_node.inputs[1];
            let PrimKind::Broadcast { axis, .. } = g.node(bcast_port.node).kind else {
                continue;
            };
            let a_rank = g.meta(div_node.inputs[0]).rank();
            if axis != a_rank - 1 {
                continue;
            }
            let s_port = g.node(bcast_port.node).inputs[0];
            let mut rw = Rewrite::new();
            let mm2 = rw.add_node(
                g.len(),
                PrimKind::Linear(LinearFn::MatMul { spec }),
                vec![div_node.inputs[0], mm_node.inputs[1]],
            );
            let out_cols = g.node(mm_id).out_metas[0]
                .shape()
                .last()
                .copied()
                .unwrap_or(1);
            let bcast2 = rw.add_node(
                g.len(),
                PrimKind::Broadcast {
                    axis: a_rank - 1,
                    size: out_cols,
                },
                vec![s_port],
            );
            let div2 = rw.add_node(
                g.len(),
                PrimKind::Elementwise(EwFn::Binary(BinaryOp::Div)),
                vec![mm2.into(), bcast2.into()],
            );
            rw.substitute(mm_id.into(), div2.into());
            if let Ok(new_g) = rw.apply(g) {
                out.push(new_g);
            }
        }
        out
    }
}

/// Rule 3: two MatMuls with the same left operand and identical specs merge
/// into one MatMul over `Concat(W1, W2)` followed by a `Split`.
pub struct MergeSharedMatMuls;

impl Rule for MergeSharedMatMuls {
    fn name(&self) -> &'static str {
        "merge-shared-lhs-matmuls"
    }

    fn apply_all(&self, g: &PrimGraph) -> Vec<PrimGraph> {
        let mut out = Vec::new();
        let reach = g.reachability();
        let mms: Vec<NodeId> = g
            .iter()
            .filter(|(id, _)| matmul_spec(g, *id).is_some())
            .map(|(id, _)| id)
            .collect();
        for (i, &m1) in mms.iter().enumerate() {
            for &m2 in mms.iter().skip(i + 1) {
                let (s1, s2) = (matmul_spec(g, m1).unwrap(), matmul_spec(g, m2).unwrap());
                if s1 != s2 || s1.trans_b {
                    continue;
                }
                let (n1, n2) = (g.node(m1), g.node(m2));
                if n1.inputs[0] != n2.inputs[0] {
                    continue;
                }
                // Weights must not depend on either matmul (cycle guard).
                if reach.path(m1, n2.inputs[1].node) || reach.path(m2, n1.inputs[1].node) {
                    continue;
                }
                let w1_meta = g.meta(n1.inputs[1]).shape().to_vec();
                let w2_meta = g.meta(n2.inputs[1]).shape().to_vec();
                let rank = w1_meta.len();
                if w1_meta[..rank - 1] != w2_meta[..rank - 1] {
                    continue;
                }
                let (c1, c2) = (w1_meta[rank - 1], w2_meta[rank - 1]);
                let mut rw = Rewrite::new();
                let cat = rw.add_node(
                    g.len(),
                    PrimKind::Layout(LayoutFn::Concat { axis: rank - 1 }),
                    vec![n1.inputs[1], n2.inputs[1]],
                );
                let mm = rw.add_node(
                    g.len(),
                    PrimKind::Linear(LinearFn::MatMul { spec: s1 }),
                    vec![n1.inputs[0], cat.into()],
                );
                let split = rw.add_node(
                    g.len(),
                    PrimKind::Layout(LayoutFn::Split {
                        axis: rank - 1,
                        sizes: vec![c1, c2],
                    }),
                    vec![mm.into()],
                );
                rw.substitute(
                    m1.into(),
                    PortRef {
                        node: split,
                        port: 0,
                    },
                );
                rw.substitute(
                    m2.into(),
                    PortRef {
                        node: split,
                        port: 1,
                    },
                );
                if let Ok(new_g) = rw.apply(g) {
                    out.push(new_g);
                }
            }
        }
        out
    }
}

/// Rule 4: a Transpose swapping the two trailing dims of a MatMul operand
/// folds into the corresponding BLAS transpose flag.
pub struct FoldTransposeIntoMatMul;

impl Rule for FoldTransposeIntoMatMul {
    fn name(&self) -> &'static str {
        "fold-transpose-into-matmul"
    }

    fn apply_all(&self, g: &PrimGraph) -> Vec<PrimGraph> {
        let mut out = Vec::new();
        for (mm_id, mm_node) in g.iter() {
            let Some(spec) = matmul_spec(g, mm_id) else {
                continue;
            };
            for operand in 0..2 {
                let t_port = mm_node.inputs[operand];
                let PrimKind::Layout(LayoutFn::Transpose { perm }) = &g.node(t_port.node).kind
                else {
                    continue;
                };
                let rank = perm.len();
                if rank < 2 {
                    continue;
                }
                // perm must be identity on batch dims and swap the last two.
                let swaps_tail = perm[rank - 1] == rank - 2 && perm[rank - 2] == rank - 1;
                let id_batch = perm[..rank - 2].iter().enumerate().all(|(d, &p)| p == d);
                if !swaps_tail || !id_batch {
                    continue;
                }
                let src = g.node(t_port.node).inputs[0];
                let mut new_spec = spec;
                if operand == 0 {
                    new_spec.trans_a = !new_spec.trans_a;
                } else {
                    new_spec.trans_b = !new_spec.trans_b;
                }
                let mut inputs = mm_node.inputs.clone();
                inputs[operand] = src;
                let mut rw = Rewrite::new();
                let mm2 = rw.add_node(
                    g.len(),
                    PrimKind::Linear(LinearFn::MatMul { spec: new_spec }),
                    inputs,
                );
                rw.substitute(mm_id.into(), mm2.into());
                if let Ok(new_g) = rw.apply(g) {
                    out.push(new_g);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use korch_exec::execute_prims;
    use korch_tensor::{Tensor, UnaryOp};

    /// The rule machinery must never change a graph's output arity or
    /// output shapes.
    fn assert_outputs_preserved(original: &PrimGraph, rewritten: &PrimGraph) {
        let metas =
            |g: &PrimGraph| -> Vec<_> { g.outputs().iter().map(|&o| g.meta(o).clone()).collect() };
        assert_eq!(metas(original), metas(rewritten));
    }

    /// Softmax(x) @ W — the Fig. 2 running example.
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

    fn check_equivalent(a: &PrimGraph, b: &PrimGraph, input: Tensor) {
        let ra = execute_prims(a, std::slice::from_ref(&input)).unwrap();
        let rb = execute_prims(b, &[input]).unwrap();
        assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(&rb) {
            assert!(x.allclose(y, 1e-4), "rule changed semantics");
        }
    }

    #[test]
    fn reduce_to_matmul_preserves_semantics() {
        let g = softmax_matmul(8, 16, 4);
        let variants = ReduceToMatMul.apply_all(&g);
        assert_eq!(variants.len(), 1);
        assert_outputs_preserved(&g, &variants[0]);
        check_equivalent(&g, &variants[0], Tensor::random(vec![8, 16], 1));
        // The reduce is gone; a second matmul appeared.
        let has_reduce = variants[0]
            .nodes()
            .iter()
            .any(|n| matches!(n.kind, PrimKind::Reduce { .. }));
        assert!(!has_reduce);
    }

    #[test]
    fn div_matmul_reorder_preserves_semantics() {
        let g = softmax_matmul(8, 16, 4);
        let variants = DivMatMulReorder.apply_all(&g);
        assert_eq!(variants.len(), 1);
        check_equivalent(&g, &variants[0], Tensor::random(vec![8, 16], 2));
        // The div now consumes the matmul output.
        let v = &variants[0];
        let mm_id = v
            .iter()
            .find(|(_, n)| matches!(n.kind, PrimKind::Linear(_)))
            .map(|(id, _)| id)
            .unwrap();
        let div_consumes_mm = v.nodes().iter().any(|n| {
            matches!(n.kind, PrimKind::Elementwise(EwFn::Binary(BinaryOp::Div)))
                && n.inputs.first().is_some_and(|r| r.node == mm_id)
        });
        assert!(div_consumes_mm);
    }

    #[test]
    fn fig2_pipeline_reduce_then_reorder_then_merge() {
        // The full Fig. 2b sequence: after rules 1 and 2, the graph has two
        // matmuls sharing X'; rule 3 merges them.
        let g = softmax_matmul(8, 16, 4);
        let g1 = &ReduceToMatMul.apply_all(&g)[0];
        let g2s = DivMatMulReorder.apply_all(g1);
        assert!(!g2s.is_empty(), "reorder should still match after rule 1");
        let g2 = &g2s[0];
        let g3s = MergeSharedMatMuls.apply_all(g2);
        assert!(!g3s.is_empty(), "the exp-fed matmuls share their LHS");
        let g3 = &g3s[0];
        check_equivalent(&g, g3, Tensor::random(vec![8, 16], 3));
        // Exactly one matmul remains (Fig. 2b final graph).
        let mm_count = g3
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, PrimKind::Linear(_)))
            .count();
        assert_eq!(mm_count, 1);
    }

    #[test]
    fn merge_requires_same_lhs() {
        let mut g = PrimGraph::new();
        let x1 = g
            .add(PrimKind::Input { shape: vec![4, 8] }, vec![])
            .unwrap();
        let x2 = g
            .add(PrimKind::Input { shape: vec![4, 8] }, vec![])
            .unwrap();
        let w = g
            .add(
                PrimKind::Constant {
                    shape: vec![8, 3],
                    init: ConstInit::Random(1),
                },
                vec![],
            )
            .unwrap();
        let m1 = g
            .add(
                PrimKind::Linear(LinearFn::MatMul {
                    spec: MatMulSpec::new(),
                }),
                vec![x1.into(), w.into()],
            )
            .unwrap();
        let m2 = g
            .add(
                PrimKind::Linear(LinearFn::MatMul {
                    spec: MatMulSpec::new(),
                }),
                vec![x2.into(), w.into()],
            )
            .unwrap();
        g.mark_output(m1).unwrap();
        g.mark_output(m2).unwrap();
        assert!(MergeSharedMatMuls.apply_all(&g).is_empty());
    }

    #[test]
    fn transpose_folds_into_flag() {
        let mut g = PrimGraph::new();
        let x = g
            .add(PrimKind::Input { shape: vec![8, 4] }, vec![])
            .unwrap();
        let w = g
            .add(
                PrimKind::Constant {
                    shape: vec![8, 3],
                    init: ConstInit::Random(2),
                },
                vec![],
            )
            .unwrap();
        let t = g
            .add(
                PrimKind::Layout(LayoutFn::Transpose { perm: vec![1, 0] }),
                vec![x.into()],
            )
            .unwrap();
        let mm = g
            .add(
                PrimKind::Linear(LinearFn::MatMul {
                    spec: MatMulSpec::new(),
                }),
                vec![t.into(), w.into()],
            )
            .unwrap();
        g.mark_output(mm).unwrap();
        let variants = FoldTransposeIntoMatMul.apply_all(&g);
        assert_eq!(variants.len(), 1);
        let v = &variants[0];
        check_equivalent(&g, v, Tensor::random(vec![8, 4], 4));
        // Transpose gone, flag set.
        assert!(!v
            .nodes()
            .iter()
            .any(|n| matches!(n.kind, PrimKind::Layout(LayoutFn::Transpose { .. }))));
        let spec = v
            .nodes()
            .iter()
            .find_map(|n| match &n.kind {
                PrimKind::Linear(LinearFn::MatMul { spec }) => Some(*spec),
                _ => None,
            })
            .unwrap();
        assert!(spec.trans_a);
    }

    #[test]
    fn batch_transpose_on_batch_dims_not_folded() {
        // perm [1,0,2] permutes batch dims, not the contraction tail, so it
        // must not fold into a BLAS flag.
        let mut g = PrimGraph::new();
        let x = g
            .add(
                PrimKind::Input {
                    shape: vec![2, 2, 4, 8],
                },
                vec![],
            )
            .unwrap();
        let w = g
            .add(
                PrimKind::Input {
                    shape: vec![2, 2, 8, 3],
                },
                vec![],
            )
            .unwrap();
        let t = g
            .add(
                PrimKind::Layout(LayoutFn::Transpose {
                    perm: vec![1, 0, 2, 3],
                }),
                vec![w.into()],
            )
            .unwrap();
        let mm = g
            .add(
                PrimKind::Linear(LinearFn::MatMul {
                    spec: MatMulSpec::new(),
                }),
                vec![x.into(), t.into()],
            )
            .unwrap();
        g.mark_output(mm).unwrap();
        assert!(FoldTransposeIntoMatMul.apply_all(&g).is_empty());
    }
}
