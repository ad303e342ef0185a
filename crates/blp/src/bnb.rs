//! Best-first branch & bound over the simplex LP relaxation — the exact 0/1
//! solver Korch uses in place of PuLP/CBC. One [`Lp`] is built per solve;
//! the root, the dive and every child re-bound and re-solve it.

use crate::problem::{BlpError, BlpProblem, BlpSolution, SolveStats};
use crate::simplex::{Lp, LpOutcome};
use crate::Solver;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Exact 0/1 solver: LP-relaxation branch & bound with best-first search
/// and most-fractional branching.
#[derive(Debug, Clone)]
pub struct BranchAndBound {
    /// Maximum number of branch-and-bound nodes before giving up.
    pub max_nodes: usize,
    /// Values within this distance of 0/1 are considered integral.
    pub int_tol: f64,
    /// Optional warm-start incumbent (e.g. from a greedy heuristic): a
    /// feasible assignment whose objective becomes the initial upper bound.
    pub incumbent: Option<Vec<bool>>,
    /// When the node budget is exhausted, return the best incumbent found
    /// so far (best-effort mode) instead of [`BlpError::Limit`].
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
            int_tol: 1e-6,
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

    /// Supplies a warm-start incumbent (must be feasible; checked at solve
    /// time and ignored otherwise).
    pub fn with_incumbent(mut self, values: Vec<bool>) -> Self {
        self.incumbent = Some(values);
        self
    }

    fn gap(&self, ub: f64) -> f64 {
        (self.rel_gap * ub.abs()).max(1e-9)
    }
}

/// Depth-first LP dive: repeatedly fix the fractional variable of largest
/// value (the kernel the relaxation selects most) to 1 — to 0 first when
/// that value is below 0.3 — and re-solve, trying the other value when the
/// first is infeasible; yields an integral, feasible incumbent in a handful
/// of LP solves when the instance is covering-shaped.
fn dive(
    problem: &BlpProblem,
    lp: &mut Lp,
    root_x: &[f64],
    root_fixed: &[Option<f64>],
    int_tol: f64,
) -> Option<(Vec<bool>, f64)> {
    let mut fixed = root_fixed.to_vec();
    let mut x = root_x.to_vec();
    for _ in 0..problem.num_vars() {
        let frac = x
            .iter()
            .enumerate()
            .filter(|&(_, &v)| (v - v.round()).abs() > int_tol)
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal));
        let Some((j, &vj)) = frac else {
            let vals: Vec<bool> = x.iter().map(|&v| v > 0.5).collect();
            if problem.feasible(&vals) {
                let obj = problem.objective_of(&vals);
                return Some((vals, obj));
            }
            return None;
        };
        // Prefer rounding *up* (selecting the kernel) — feasibility-safe for
        // covering rows; fall back to 0 if that branch is infeasible.
        let first = if vj >= 0.3 { 1.0 } else { 0.0 };
        let mut done = false;
        for v in [first, 1.0 - first] {
            fixed[j] = Some(v);
            match lp.solve(&fixed) {
                LpOutcome::Optimal { x: nx, .. } => {
                    x = nx;
                    done = true;
                    break;
                }
                LpOutcome::Infeasible => {}
            }
        }
        if !done {
            return None;
        }
    }
    None
}

/// LP-guided rounding with greedy repair: round the relaxation, then fix
/// violated constraints one variable at a time (preferring variables the LP
/// liked). Produces the strong early incumbent that makes gap pruning bite
/// on covering-style instances, whose LP bound sits well below the integer
/// optimum.
fn round_and_repair(problem: &BlpProblem, x: &[f64]) -> Option<Vec<bool>> {
    let mut vals: Vec<bool> = x.iter().map(|&v| v > 0.5).collect();
    for _ in 0..=2 * problem.num_vars() {
        let Some(c) = problem.constraints.iter().find(|c| !c.satisfied(&vals)) else {
            return Some(vals);
        };
        let lhs = c.lhs(&vals);
        let need_more = match c.sense {
            crate::Sense::Ge => true,
            crate::Sense::Le => false,
            crate::Sense::Eq => lhs < c.rhs,
        };
        let candidate = if need_more {
            c.coeffs
                .iter()
                .filter(|&&(j, a)| a > 0.0 && !vals[j])
                .max_by(|&&(j1, _), &&(j2, _)| {
                    x[j1]
                        .partial_cmp(&x[j2])
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|&(j, _)| (j, true))
        } else {
            c.coeffs
                .iter()
                .filter(|&&(j, a)| a > 0.0 && vals[j])
                .min_by(|&&(j1, _), &&(j2, _)| {
                    x[j1]
                        .partial_cmp(&x[j2])
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|&(j, _)| (j, false))
        };
        let (j, v) = candidate?;
        vals[j] = v;
    }
    None
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
            LpOutcome::Optimal { objective, x, .. } => {
                // LP-guided incumbents: rounding repair plus a single dive.
                // Both are cheap and make gap pruning effective immediately.
                if let Some(r) = round_and_repair(problem, &x) {
                    if problem.feasible(&r) {
                        let obj = problem.objective_of(&r);
                        if best.as_ref().is_none_or(|(_, ub)| obj < *ub) {
                            best = Some((r, obj));
                        }
                    }
                }
                if let Some((r, obj)) = dive(problem, &mut lp, &x, &root_fixed, self.int_tol) {
                    if best.as_ref().is_none_or(|(_, ub)| obj < *ub) {
                        best = Some((r, obj));
                    }
                }
                heap.push(Node {
                    bound: objective,
                    fixed: root_fixed,
                    x,
                });
            }
        }

        while let Some(Node { bound, fixed, x }) = heap.pop() {
            if nodes >= self.max_nodes {
                if self.best_on_limit {
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
                if frac > self.int_tol {
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

    #[test]
    fn integral_gap_instance() {
        // The odd-cycle cover whose LP optimum (1.5) is fractional:
        // B&B must close the gap to the integer optimum 2.
        let mut p = BlpProblem::minimize(vec![1.0, 1.0, 1.0]);
        p.add(Constraint::ge(vec![(0, 1.0), (1, 1.0)], 1.0));
        p.add(Constraint::ge(vec![(1, 1.0), (2, 1.0)], 1.0));
        p.add(Constraint::ge(vec![(2, 1.0), (0, 1.0)], 1.0));
        let sol = BranchAndBound::default().solve(&p).unwrap();
        assert_eq!(sol.objective, 2.0);
        assert_eq!(sol.values.iter().filter(|&&v| v).count(), 2);
        assert!(sol.stats.nodes >= 1);
    }

    #[test]
    fn warm_start_incumbent_used() {
        let mut p = BlpProblem::minimize(vec![1.0, 1.0, 1.0]);
        p.add(Constraint::ge(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 1.0));
        let sol = BranchAndBound::default()
            .with_incumbent(vec![true, true, true])
            .solve(&p)
            .unwrap();
        // The optimum (1.0) beats the warm start (3.0).
        assert_eq!(sol.objective, 1.0);
    }

    #[test]
    fn infeasible_warm_start_ignored() {
        let mut p = BlpProblem::minimize(vec![1.0]);
        p.add(Constraint::ge(vec![(0, 1.0)], 1.0));
        let sol = BranchAndBound::default()
            .with_incumbent(vec![false]) // violates the constraint
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
    fn zero_variables() {
        let p = BlpProblem::minimize(vec![]);
        let sol = BranchAndBound::default().solve(&p).unwrap();
        assert!(sol.values.is_empty());
        assert_eq!(sol.objective, 0.0);
    }
}
