//! Balas' implicit (additive) enumeration: an LP-free exact 0/1 solver.
//!
//! Variables are explored in order of increasing cost; a partial assignment
//! is pruned when (a) its cost already exceeds the incumbent, or (b) some
//! constraint cannot be satisfied even with the most favourable completion
//! of the free variables. Serves as an independent oracle against the
//! simplex-based branch & bound.

use crate::problem::{BlpError, BlpProblem, BlpSolution, Sense, SolveStats};
use crate::Solver;

/// Exact 0/1 solver via Balas-style implicit enumeration.
#[derive(Debug, Clone)]
pub struct BalasSolver {
    /// Maximum number of enumeration nodes before giving up.
    pub max_nodes: usize,
}

impl Default for BalasSolver {
    fn default() -> Self {
        Self {
            max_nodes: 5_000_000,
        }
    }
}

impl BalasSolver {
    /// Creates a solver with the default node budget.
    pub fn new() -> Self {
        Self::default()
    }
}

struct Search<'a> {
    problem: &'a BlpProblem,
    /// Variable order: indices sorted by ascending cost.
    order: Vec<usize>,
    /// Current assignment (by original index).
    assign: Vec<bool>,
    best: Option<(Vec<bool>, f64)>,
    nodes: usize,
    max_nodes: usize,
    /// For each constraint: current lhs of assigned vars, plus the maximum
    /// achievable increase/decrease from free variables.
    lhs: Vec<f64>,
    /// Positive-coefficient mass of free variables per constraint.
    free_pos: Vec<f64>,
    /// Negative-coefficient mass of free variables per constraint.
    free_neg: Vec<f64>,
    /// coeff[j] -> list of (constraint, a).
    var_rows: Vec<Vec<(usize, f64)>>,
    budget_hit: bool,
}

impl<'a> Search<'a> {
    fn new(problem: &'a BlpProblem, max_nodes: usize) -> Self {
        let n = problem.num_vars();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            problem.objective[a]
                .partial_cmp(&problem.objective[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let m = problem.constraints.len();
        let mut var_rows = vec![Vec::new(); n];
        let mut free_pos = vec![0.0; m];
        let mut free_neg = vec![0.0; m];
        for (i, c) in problem.constraints.iter().enumerate() {
            for &(j, a) in &c.coeffs {
                var_rows[j].push((i, a));
                if a > 0.0 {
                    free_pos[i] += a;
                } else {
                    free_neg[i] += a;
                }
            }
        }
        Self {
            problem,
            order,
            assign: vec![false; n],
            best: None,
            nodes: 0,
            max_nodes,
            lhs: vec![0.0; m],
            free_pos,
            free_neg,
            var_rows,
            budget_hit: false,
        }
    }

    /// Can every constraint still be satisfied by some completion?
    fn still_feasible(&self) -> bool {
        for (i, c) in self.problem.constraints.iter().enumerate() {
            let hi = self.lhs[i] + self.free_pos[i];
            let lo = self.lhs[i] + self.free_neg[i];
            let ok = match c.sense {
                Sense::Ge => hi >= c.rhs - 1e-9,
                Sense::Le => lo <= c.rhs + 1e-9,
                Sense::Eq => lo <= c.rhs + 1e-9 && hi >= c.rhs - 1e-9,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    fn set_var(&mut self, j: usize, value: bool) {
        self.assign[j] = value;
        for &(i, a) in &self.var_rows[j] {
            if value {
                self.lhs[i] += a;
            }
            if a > 0.0 {
                self.free_pos[i] -= a;
            } else {
                self.free_neg[i] -= a;
            }
        }
    }

    fn unset_var(&mut self, j: usize, value: bool) {
        self.assign[j] = false;
        for &(i, a) in &self.var_rows[j] {
            if value {
                self.lhs[i] -= a;
            }
            if a > 0.0 {
                self.free_pos[i] += a;
            } else {
                self.free_neg[i] += a;
            }
        }
    }

    fn dfs(&mut self, depth: usize, cost: f64) {
        if self.budget_hit {
            return;
        }
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            self.budget_hit = true;
            return;
        }
        if let Some((_, ub)) = &self.best {
            // All remaining costs are non-negative in Korch instances, but
            // handle negative costs correctly: add the sum of remaining
            // negative costs as an optimistic bound.
            let optimistic: f64 = self.order[depth..]
                .iter()
                .map(|&j| self.problem.objective[j].min(0.0))
                .sum();
            if cost + optimistic >= *ub - 1e-9 {
                return;
            }
        }
        if !self.still_feasible() {
            return;
        }
        if depth == self.order.len() {
            if self.problem.feasible(&self.assign) {
                let obj = self.problem.objective_of(&self.assign);
                if self.best.as_ref().is_none_or(|(_, ub)| obj < *ub - 1e-9) {
                    self.best = Some((self.assign.clone(), obj));
                }
            }
            return;
        }
        let j = self.order[depth];
        let c = self.problem.objective[j];
        // Explore the cheaper branch first.
        let branches = if c >= 0.0 {
            [false, true]
        } else {
            [true, false]
        };
        for value in branches {
            self.set_var(j, value);
            let add = if value { c } else { 0.0 };
            self.dfs(depth + 1, cost + add);
            self.unset_var(j, value);
        }
    }
}

impl Solver for BalasSolver {
    fn solve(&self, problem: &BlpProblem) -> Result<BlpSolution, BlpError> {
        let mut s = Search::new(problem, self.max_nodes);
        s.dfs(0, 0.0);
        if s.budget_hit {
            return Err(BlpError::Limit);
        }
        let nodes = s.nodes;
        s.best
            .map(|(values, objective)| BlpSolution {
                values,
                objective,
                stats: SolveStats {
                    nodes,
                    pivots: 0,
                    lp_solves: 0,
                },
            })
            .ok_or(BlpError::Infeasible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Constraint;

    #[test]
    fn solves_knapsack_style_cover() {
        let mut p = BlpProblem::minimize(vec![4.0, 3.0, 2.0, 10.0]);
        p.add(Constraint::ge(vec![(0, 1.0), (1, 1.0)], 1.0));
        p.add(Constraint::ge(vec![(1, 1.0), (2, 1.0)], 1.0));
        p.add(Constraint::ge(vec![(0, 1.0), (2, 1.0), (3, 1.0)], 1.0));
        let sol = BalasSolver::default().solve(&p).unwrap();
        // {1, 2} covers everything for 5.0
        assert_eq!(sol.objective, 5.0);
    }

    #[test]
    fn handles_le_constraints() {
        // Pick at most one of {0,1}, must pick >= 1 of {1,2}; costs 1,2,3.
        let mut p = BlpProblem::minimize(vec![1.0, 2.0, 3.0]);
        p.add(Constraint::le(vec![(0, 1.0), (1, 1.0)], 1.0));
        p.add(Constraint::ge(vec![(1, 1.0), (2, 1.0)], 1.0));
        let sol = BalasSolver::default().solve(&p).unwrap();
        assert_eq!(sol.objective, 2.0); // pick var 1 only
    }

    #[test]
    fn empty_problem_is_trivial() {
        let p = BlpProblem::minimize(vec![]);
        let sol = BalasSolver::default().solve(&p).unwrap();
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn node_budget_respected() {
        let mut p = BlpProblem::minimize(vec![1.0; 20]);
        for i in 0..19 {
            p.add(Constraint::ge(vec![(i, 1.0), (i + 1, 1.0)], 1.0));
        }
        let solver = BalasSolver { max_nodes: 3 };
        assert!(matches!(solver.solve(&p), Err(BlpError::Limit)));
    }

    #[test]
    fn negative_costs_prefer_inclusion() {
        let p = BlpProblem::minimize(vec![-2.0, 1.0]);
        let sol = BalasSolver::default().solve(&p).unwrap();
        assert_eq!(sol.values, vec![true, false]);
        assert_eq!(sol.objective, -2.0);
    }
}
