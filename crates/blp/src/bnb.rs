//! Best-first branch & bound over the simplex LP relaxation — the exact 0/1
//! solver Korch uses in place of PuLP/CBC. One [`Lp`] is built per solve;
//! the root and every child re-bound and re-solve it. The search starts
//! from the caller's incumbent alone (the orchestrator passes the best of
//! its warm starts) and improves it only at integral nodes: it runs no
//! incumbent heuristic of its own. A caller that only needs solutions
//! below some objective (the orchestrator, once an earlier graph variant
//! has a plan) passes it as a cutoff, and the search ends at the first
//! node whose bound reaches it.

use crate::problem::{BlpError, BlpProblem, BlpSolution, SolveStats};
use crate::simplex::{Lp, LpOutcome};
use crate::Solver;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Values within this distance of 0/1 are considered integral.
const INT_TOL: f64 = 1e-6;

/// Exact 0/1 solver: LP-relaxation branch & bound with best-first search
/// and most-fractional branching.
#[derive(Debug, Clone)]
pub struct BranchAndBound {
    /// Maximum number of branch-and-bound nodes. A search that runs out
    /// returns the best incumbent it has (the caller's or a better one),
    /// and [`BlpError::Limit`] when it has none.
    pub max_nodes: usize,
    /// Warm-start incumbent: a feasible assignment whose objective becomes
    /// the initial upper bound, and the only one the search starts from.
    /// Ignored when its length is wrong or it violates a constraint.
    pub incumbent: Option<Vec<bool>>,
    /// Relative optimality gap: a node is pruned when its LP bound is
    /// within `rel_gap · |incumbent|` of the incumbent. The default 1e-4
    /// proves optimality to 0.01% — far below the cost model's fidelity —
    /// while cutting the search by orders of magnitude.
    pub rel_gap: f64,
    /// An objective a solution must beat to matter — not a solution: a
    /// node is pruned when its LP bound is `>=` the cutoff, with no gap,
    /// so no solution below the cutoff is lost. The search returns its
    /// best real solution (the incumbent when nothing lies below the
    /// cutoff), and [`BlpError::Cutoff`] when it has none. Nodes are
    /// pushed as without a cutoff and it is tested as they pop, so a cut
    /// search is a prefix of the uncut one: equal bounds pop in the same
    /// order.
    pub cutoff: Option<f64>,
}

impl Default for BranchAndBound {
    fn default() -> Self {
        Self {
            max_nodes: 200_000,
            incumbent: None,
            rel_gap: 1e-4,
            cutoff: None,
        }
    }
}

impl BranchAndBound {
    fn gap(&self, ub: f64) -> f64 {
        (self.rel_gap * ub.abs()).max(1e-9)
    }
}

struct Node {
    bound: f64,
    fixed: Vec<Option<f64>>,
    /// The LP-relaxation solution at this node (computed once, on push).
    x: Vec<f64>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the lowest bound first.
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
    }
}

impl Solver for BranchAndBound {
    fn solve(&self, problem: &BlpProblem) -> Result<BlpSolution, BlpError> {
        let n = problem.num_vars();
        let mut nodes = 0;
        let mut lp = Lp::new(problem);
        let stats = |lp: &Lp, nodes| SolveStats {
            nodes,
            pivots: lp.pivots,
            lp_solves: lp.solves,
        };
        let mut best: Option<(Vec<bool>, f64)> = self
            .incumbent
            .as_ref()
            .filter(|v| v.len() == n && problem.feasible(v))
            .map(|v| (v.clone(), problem.objective_of(v)));

        let cutoff = self.cutoff.unwrap_or(f64::INFINITY);
        // Whether the cutoff pruned a node: a search that found nothing is
        // then cut off, not infeasible.
        let mut cut = false;
        let mut heap = BinaryHeap::new();
        let root_fixed = vec![None; n];
        match lp.solve(&root_fixed) {
            LpOutcome::Infeasible => {
                return best
                    .map(|(values, objective)| BlpSolution {
                        values,
                        objective,
                        stats: stats(&lp, nodes),
                    })
                    .ok_or(BlpError::Infeasible)
            }
            LpOutcome::Optimal { objective, x, .. } => heap.push(Node {
                bound: objective,
                fixed: root_fixed,
                x,
            }),
        }

        while let Some(Node { bound, fixed, x }) = heap.pop() {
            if bound >= cutoff {
                cut = true;
                break; // and every node after it: best-first
            }
            if nodes >= self.max_nodes {
                if best.is_some() {
                    break;
                }
                return Err(BlpError::Limit);
            }
            nodes += 1;
            if let Some((_, ub)) = &best {
                if bound >= *ub - self.gap(*ub) {
                    continue; // pruned by bound (and everything after: best-first)
                }
            }
            // Find the most fractional variable.
            let mut branch: Option<(usize, f64)> = None;
            for (j, &v) in x.iter().enumerate() {
                let frac = (v - v.round()).abs();
                if frac > INT_TOL {
                    let dist_half = (v.fract() - 0.5).abs();
                    if branch.is_none_or(|(_, d)| dist_half < d) {
                        branch = Some((j, dist_half));
                    }
                }
            }
            match branch {
                None => {
                    // Integral: new incumbent.
                    let values: Vec<bool> = x.iter().map(|&v| v > 0.5).collect();
                    debug_assert!(problem.feasible(&values));
                    let obj = problem.objective_of(&values);
                    if best.as_ref().is_none_or(|(_, ub)| obj < *ub - 1e-9) {
                        best = Some((values, obj));
                    }
                }
                Some((j, _)) => {
                    for v in [0.0, 1.0] {
                        let mut f = fixed.clone();
                        f[j] = Some(v);
                        match lp.solve(&f) {
                            LpOutcome::Optimal {
                                objective: child_bound,
                                x: cx,
                                ..
                            } => {
                                let prune = best
                                    .as_ref()
                                    .is_some_and(|(_, ub)| child_bound >= *ub - self.gap(*ub));
                                if !prune {
                                    heap.push(Node {
                                        bound: child_bound,
                                        fixed: f,
                                        x: cx,
                                    });
                                }
                            }
                            LpOutcome::Infeasible => {}
                        }
                    }
                }
            }
        }

        best.map(|(values, objective)| BlpSolution {
            values,
            objective,
            stats: stats(&lp, nodes),
        })
        .ok_or(if cut {
            BlpError::Cutoff
        } else {
            BlpError::Infeasible
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Constraint;

    /// The odd-cycle cover, whose LP optimum (1.5, all halves) is
    /// fractional while the integer optimum is 2.
    fn odd_cycle() -> BlpProblem {
        let mut p = BlpProblem::minimize(vec![1.0, 1.0, 1.0]);
        p.add(Constraint::ge(vec![(0, 1.0), (1, 1.0)], 1.0));
        p.add(Constraint::ge(vec![(1, 1.0), (2, 1.0)], 1.0));
        p.add(Constraint::ge(vec![(2, 1.0), (0, 1.0)], 1.0));
        p
    }

    #[test]
    fn integral_gap_instance() {
        // B&B must close the gap to the integer optimum.
        let p = odd_cycle();
        let sol = BranchAndBound::default().solve(&p).unwrap();
        assert_eq!(sol.objective, 2.0);
        assert_eq!(sol.values.iter().filter(|&&v| v).count(), 2);
        assert!(sol.stats.nodes >= 1);
    }

    #[test]
    fn warm_start_incumbent_used() {
        let mut p = BlpProblem::minimize(vec![1.0, 1.0, 1.0]);
        p.add(Constraint::ge(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 1.0));
        let sol = BranchAndBound {
            incumbent: Some(vec![true, true, true]),
            ..Default::default()
        }
        .solve(&p)
        .unwrap();
        // The optimum (1.0) beats the warm start (3.0).
        assert_eq!(sol.objective, 1.0);
    }

    #[test]
    fn infeasible_warm_start_ignored() {
        let mut p = BlpProblem::minimize(vec![1.0]);
        p.add(Constraint::ge(vec![(0, 1.0)], 1.0));
        let sol = BranchAndBound {
            incumbent: Some(vec![false]), // violates the constraint
            ..Default::default()
        }
        .solve(&p)
        .unwrap();
        assert_eq!(sol.values, vec![true]);
    }

    #[test]
    fn node_limit_errors() {
        let mut p = BlpProblem::minimize(vec![1.0; 9]);
        // Many overlapping parity-style rows to force branching.
        for i in 0..8 {
            p.add(Constraint::ge(vec![(i, 1.0), (i + 1, 1.0)], 1.0));
        }
        p.add(Constraint::ge(vec![(0, 1.0), (8, 1.0)], 1.0));
        let solver = BranchAndBound {
            max_nodes: 0,
            ..Default::default()
        };
        assert!(matches!(solver.solve(&p), Err(BlpError::Limit)));
    }

    #[test]
    fn budget_fallback_returns_the_callers_incumbent_or_limit() {
        // With no node to spend, the solve returns the caller's incumbent
        // untouched: the solver adds none of its own.
        let p = odd_cycle();
        let spent = |incumbent| {
            BranchAndBound {
                max_nodes: 0,
                incumbent,
                ..Default::default()
            }
            .solve(&p)
        };
        let sol = spent(Some(vec![true; 3])).unwrap();
        assert_eq!(sol.values, vec![true; 3]);
        assert_eq!(sol.objective, 3.0);
        // Without one, running out of budget is not infeasibility.
        assert!(matches!(spent(None), Err(BlpError::Limit)));
    }

    #[test]
    fn zero_variables() {
        let p = BlpProblem::minimize(vec![]);
        let sol = BranchAndBound::default().solve(&p).unwrap();
        assert!(sol.values.is_empty());
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn nothing_below_the_cutoff_returns_the_incumbent_or_cutoff() {
        // The odd cycle's optimum is 2: a cutoff at 2 leaves nothing to
        // find, at 2.5 the optimum is found.
        let p = odd_cycle();
        let solve = |cutoff, incumbent| {
            BranchAndBound {
                cutoff: Some(cutoff),
                incumbent,
                ..Default::default()
            }
            .solve(&p)
        };
        assert_eq!(solve(2.0, None), Err(BlpError::Cutoff));
        let sol = solve(2.0, Some(vec![true; 3])).unwrap();
        assert_eq!((sol.values, sol.objective), (vec![true; 3], 3.0));
        assert_eq!(solve(2.5, None).unwrap().objective, 2.0);
        // A cutoff below the root bound: not infeasible, cut off.
        assert_eq!(solve(1.0, None), Err(BlpError::Cutoff));
        assert_eq!(
            solve(1.0, None).unwrap_err().to_string(),
            "no solution below the cutoff"
        );
        // An infeasible problem stays infeasible under any cutoff.
        let mut q = BlpProblem::minimize(vec![1.0]);
        q.add(Constraint::ge(vec![(0, 1.0)], 1.0));
        q.add(Constraint::le(vec![(0, 1.0)], 0.0));
        let cut = BranchAndBound {
            cutoff: Some(10.0),
            ..Default::default()
        };
        assert_eq!(cut.solve(&q), Err(BlpError::Infeasible));
    }

    use crate::BalasSolver;
    use proptest::prelude::*;

    /// An orchestration-shaped instance from a seed: 1–12 variables with
    /// small integer costs (ties included), cover rows (`≥ 1`),
    /// dependency rows (`producers − consumer ≥ 0`) and the odd packing
    /// row (`≤ 1`).
    fn instance(seed: u64) -> BlpProblem {
        let mut state = seed | 1;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as usize % n
        };
        let n = 1 + below(12);
        let mut p = BlpProblem::minimize((0..n).map(|_| 1.0 + below(6) as f64).collect());
        for _ in 0..1 + below(2 * n) {
            let mut row: Vec<(usize, f64)> = (0..1 + below(3)).map(|_| (below(n), 1.0)).collect();
            row.sort_by_key(|&(j, _)| j);
            row.dedup_by_key(|&mut (j, _)| j);
            p.add(match below(6) {
                0..=2 => Constraint::ge(row, 1.0),
                3 | 4 => {
                    let consumer = below(n);
                    row.retain(|&(j, _)| j != consumer);
                    row.push((consumer, -1.0));
                    Constraint::ge(row, 0.0)
                }
                _ => Constraint::le(row, 1.0),
            });
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Against Balas' optimum and the uncut search: below the
        /// cutoff, the search finds what the uncut search finds, within
        /// the gap of the optimum (the incumbent, when it lies within the
        /// gap, is already good enough); with nothing below the cutoff it
        /// returns the incumbent or [`BlpError::Cutoff`], never a value
        /// below the optimum.
        #[test]
        fn a_cutoff_loses_no_solution_below_it(
            seed in 0u64..u64::MAX,
            offset in 0usize..7,
            with_incumbent in prop::bool::ANY,
        ) {
            let p = instance(seed);
            let ones = vec![true; p.num_vars()];
            let incumbent = (with_incumbent && p.feasible(&ones)).then_some(ones);
            let optimum = BalasSolver::default().solve(&p).map(|s| s.objective);
            let offset = [-3.0, -1.0, -0.5, -0.01, 0.0, 0.5, 2.0][offset];
            let cutoff = optimum.clone().unwrap_or(10.0) + offset;
            let solver = |cutoff| BranchAndBound {
                rel_gap: 2e-2,
                incumbent: incumbent.clone(),
                cutoff,
                ..Default::default()
            };
            let cut = solver(Some(cutoff)).solve(&p);
            let uncut = solver(None).solve(&p);
            match (&optimum, &cut) {
                (Ok(opt), Ok(sol)) if *opt < cutoff => {
                    prop_assert!(p.feasible(&sol.values));
                    prop_assert!(sol.objective <= opt + 2e-2 * sol.objective + 1e-9);
                    prop_assert!(sol.objective < cutoff || incumbent.as_ref() == Some(&sol.values));
                    let uncut = uncut.unwrap();
                    if uncut.objective < cutoff {
                        prop_assert_eq!(&sol.values, &uncut.values);
                    }
                }
                (Ok(opt), result) if *opt < cutoff => {
                    prop_assert!(false, "optimum {} below cutoff {}, got {:?}", opt, cutoff, result);
                }
                (_, Ok(sol)) => {
                    prop_assert_eq!(Some(&sol.values), incumbent.as_ref());
                    if let Ok(opt) = optimum {
                        prop_assert!(sol.objective >= opt - 1e-9);
                    }
                }
                (Ok(_), Err(e)) => prop_assert_eq!(e, &BlpError::Cutoff),
                (Err(_), Err(e)) => prop_assert!(matches!(e, BlpError::Cutoff | BlpError::Infeasible)),
            }
        }
    }
}
