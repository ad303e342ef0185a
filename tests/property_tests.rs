//! Property-based tests over randomly generated programs: fission,
//! transformation search and orchestration must preserve semantics, and the
//! BLP solvers must agree with each other.

use korch::blp::{BalasSolver, BlpProblem, BranchAndBound, Constraint, Lp, LpOutcome, Solver};
use korch::core::{Korch, KorchConfig};
use korch::cost::Device;
use korch::exec::{execute_ops, execute_prims};
use korch::fission::fission;
use korch::ir::{OpGraph, OpKind};
use korch::tensor::{Tensor, UnaryOp};
use korch::transform::{optimize_graph, SearchConfig};
use proptest::prelude::*;

/// A random small operator graph: a chain of safe unary/softmax/norm ops
/// over a 2-D tensor, with occasional residual adds.
fn arb_op_graph() -> impl Strategy<Value = (OpGraph, Vec<usize>)> {
    let dims = (2usize..6, 2usize..10);
    let ops = prop::collection::vec(0u8..9, 1..8);
    (dims, ops).prop_map(|((rows, cols), opcodes)| {
        let shape = vec![rows, cols];
        let mut g = OpGraph::new();
        let x = g
            .add(
                OpKind::Input {
                    shape: shape.clone(),
                },
                vec![],
            )
            .unwrap();
        let mut cur = korch::ir::PortRef::from(x);
        let mut prev = cur;
        for code in opcodes {
            let next = match code {
                0 => g
                    .add(OpKind::Unary(UnaryOp::Tanh), vec![cur])
                    .unwrap()
                    .into(),
                1 => g
                    .add(OpKind::Unary(UnaryOp::Sigmoid), vec![cur])
                    .unwrap()
                    .into(),
                2 => g
                    .add(OpKind::Softmax { axis: 1 }, vec![cur])
                    .unwrap()
                    .into(),
                3 => g.add(OpKind::AddScalar(0.5), vec![cur]).unwrap().into(),
                4 => g.add(OpKind::Add, vec![cur, prev]).unwrap().into(),
                5 => g.add(OpKind::Gelu, vec![cur]).unwrap().into(),
                6 => g.add(OpKind::GeluTanh, vec![cur]).unwrap().into(),
                7 => g.add(OpKind::Elu { alpha: 0.5 }, vec![cur]).unwrap().into(),
                _ => g
                    .add(OpKind::LogSoftmax { axis: 1 }, vec![cur])
                    .unwrap()
                    .into(),
            };
            prev = cur;
            cur = next;
        }
        g.mark_output(cur).unwrap();
        (g, shape)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fission preserves semantics on arbitrary op chains.
    #[test]
    fn fission_preserves_semantics((g, shape) in arb_op_graph(), seed in 0u64..1000) {
        let x = Tensor::random(shape, seed);
        let reference = execute_ops(&g, std::slice::from_ref(&x)).unwrap();
        let f = fission(&g).unwrap();
        let out = execute_prims(&f.prim_graph, &[x]).unwrap();
        prop_assert!(reference[0].allclose(&out[0], 1e-3));
    }

    /// Every transformation variant computes the same function.
    #[test]
    fn transforms_preserve_semantics((g, shape) in arb_op_graph(), seed in 0u64..1000) {
        let x = Tensor::random(shape, seed);
        let f = fission(&g).unwrap();
        let reference = execute_prims(&f.prim_graph, std::slice::from_ref(&x)).unwrap();
        let config = SearchConfig { max_depth: 2, beam: 4, max_variants: 5 };
        for v in optimize_graph(&f.prim_graph, &config) {
            let out = execute_prims(&v, std::slice::from_ref(&x)).unwrap();
            prop_assert!(reference[0].allclose(&out[0], 1e-3), "variant diverged");
        }
    }

    /// The full pipeline's executable equals the reference semantics.
    #[test]
    fn pipeline_preserves_semantics((g, _shape) in arb_op_graph(), seed in 0u64..1000) {
        let korch = Korch::new(Device::v100(), KorchConfig::default());
        let (_, err) = korch.optimize_verified(&g, seed).unwrap();
        prop_assert!(err < 1e-3, "pipeline diverged: {err}");
    }
}

/// Random covering-style BLP instances.
fn arb_blp() -> impl Strategy<Value = BlpProblem> {
    let n = 3usize..9;
    n.prop_flat_map(|n| {
        let costs = prop::collection::vec(1.0f64..10.0, n);
        let rows = prop::collection::vec(prop::collection::vec(prop::bool::ANY, n), 1..6);
        (costs, rows).prop_map(|(costs, rows)| {
            let mut p = BlpProblem::minimize(costs);
            for row in rows {
                let coeffs: Vec<(usize, f64)> = row
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b)
                    .map(|(j, _)| (j, 1.0))
                    .collect();
                if !coeffs.is_empty() {
                    p.add(Constraint::ge(coeffs, 1.0));
                }
            }
            p
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Branch & bound and Balas implicit enumeration agree on the optimum,
    /// and so does branch & bound started from the all-selected incumbent
    /// whenever that one is feasible: a caller's incumbent is the only
    /// one the search starts from.
    #[test]
    fn solvers_agree(p in arb_blp()) {
        let exact = BranchAndBound { rel_gap: 0.0, ..Default::default() };
        let a = exact.solve(&p).unwrap();
        let b = BalasSolver::default().solve(&p).unwrap();
        prop_assert!((a.objective - b.objective).abs() < 1e-6,
            "bnb {} vs balas {}", a.objective, b.objective);
        prop_assert!(p.feasible(&a.values));
        prop_assert!(p.feasible(&b.values));
        let all = vec![true; p.num_vars()];
        if p.feasible(&all) {
            let warm = BranchAndBound { incumbent: Some(all), ..exact };
            let w = warm.solve(&p).unwrap();
            prop_assert!((w.objective - b.objective).abs() < 1e-6,
                "warm-started bnb {} vs balas {}", w.objective, b.objective);
            prop_assert!(p.feasible(&w.values));
        }
    }

    /// The LP relaxation lower-bounds the integer optimum.
    #[test]
    fn lp_bound_is_valid(p in arb_blp()) {
        let sol = BalasSolver::default().solve(&p).unwrap();
        match Lp::new(&p).solve(&vec![None; p.num_vars()]) {
            LpOutcome::Optimal { objective, .. } => {
                prop_assert!(objective <= sol.objective + 1e-6,
                    "LP bound {} above optimum {}", objective, sol.objective);
            }
            LpOutcome::Infeasible => prop_assert!(false, "LP infeasible but IP feasible"),
        }
    }
}
