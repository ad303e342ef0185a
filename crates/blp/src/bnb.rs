//! Best-first branch & bound over the simplex LP relaxation — the exact 0/1
//! solver Korch uses in place of PuLP/CBC. One [`Lp`] is built per solve;
//! the root and every child re-bound and re-solve it. The search starts
//! from the caller's incumbent alone (the orchestrator passes the best of
//! its warm starts) and improves it only at integral nodes: it runs no
//! incumbent heuristic of its own.

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
    /// Maximum number of branch-and-bound nodes before giving up.
    pub max_nodes: usize,
    /// Warm-start incumbent: a feasible assignment whose objective becomes
    /// the initial upper bound, and the only one the search starts from.
    /// Ignored when its length is wrong or it violates a constraint.
    pub incumbent: Option<Vec<bool>>,
    /// When the node budget is exhausted, return the best incumbent found
    /// so far (best-effort mode) instead of [`BlpError::Limit`]. Without
    /// one the solve still ends in [`BlpError::Limit`].
    pub best_on_limit: bool,
    /// Relative optimality gap: a node is pruned when its LP bound is
    /// within `rel_gap · |incumbent|` of the incumbent. The default 1e-4
    /// proves optimality to 0.01% — far below the cost model's fidelity —
    /// while cutting the search by orders of magnitude.
    pub rel_gap: f64,
}

impl Default for BranchAndBound {
    fn default() -> Self {
        Self {
            max_nodes: 200_000,
            incumbent: None,
            best_on_limit: false,
            rel_gap: 1e-4,
        }
    }
}

impl BranchAndBound {
    /// Creates a solver with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

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
            if nodes >= self.max_nodes {
                if self.best_on_limit && best.is_some() {
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
        .ok_or(BlpError::Infeasible)
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
        // With no node to spend, best-effort mode returns the caller's
        // incumbent untouched: the solver adds none of its own.
        let p = odd_cycle();
        let spent = |incumbent| {
            BranchAndBound {
                max_nodes: 0,
                best_on_limit: true,
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
}
