//! Problem, solution and error types shared by all solvers.

use std::error::Error;
use std::fmt;

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// `a·x ≥ b`
    Ge,
    /// `a·x ≤ b`
    Le,
    /// `a·x = b`
    Eq,
}

/// A sparse linear constraint over the problem's binary variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs; unspecified variables are 0.
    pub coeffs: Vec<(usize, f64)>,
    /// The constraint direction.
    pub sense: Sense,
    /// The right-hand side.
    pub rhs: f64,
}

impl Constraint {
    /// A `≥` constraint.
    pub fn ge(coeffs: Vec<(usize, f64)>, rhs: f64) -> Self {
        Self {
            coeffs,
            sense: Sense::Ge,
            rhs,
        }
    }

    /// A `≤` constraint.
    pub fn le(coeffs: Vec<(usize, f64)>, rhs: f64) -> Self {
        Self {
            coeffs,
            sense: Sense::Le,
            rhs,
        }
    }

    /// An `=` constraint.
    pub fn eq(coeffs: Vec<(usize, f64)>, rhs: f64) -> Self {
        Self {
            coeffs,
            sense: Sense::Eq,
            rhs,
        }
    }

    /// Evaluates the left-hand side under a 0/1 assignment.
    pub fn lhs(&self, values: &[bool]) -> f64 {
        self.coeffs
            .iter()
            .map(|&(j, a)| if values[j] { a } else { 0.0 })
            .sum()
    }

    /// Whether a 0/1 assignment satisfies this constraint (with tolerance).
    pub fn satisfied(&self, values: &[bool]) -> bool {
        let lhs = self.lhs(values);
        match self.sense {
            Sense::Ge => lhs >= self.rhs - 1e-9,
            Sense::Le => lhs <= self.rhs + 1e-9,
            Sense::Eq => (lhs - self.rhs).abs() <= 1e-9,
        }
    }
}

/// A 0/1 minimization problem: `min c·x` subject to linear constraints.
#[derive(Debug, Clone, Default)]
pub struct BlpProblem {
    /// Objective coefficients, one per variable.
    pub objective: Vec<f64>,
    /// The constraints.
    pub constraints: Vec<Constraint>,
}

impl BlpProblem {
    /// Creates a minimization problem with the given objective.
    pub fn minimize(objective: Vec<f64>) -> Self {
        Self {
            objective,
            constraints: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Adds a constraint.
    ///
    /// # Panics
    ///
    /// Panics if the constraint references a variable out of range.
    pub fn add(&mut self, c: Constraint) {
        for &(j, _) in &c.coeffs {
            assert!(
                j < self.num_vars(),
                "constraint references variable {j} of {}",
                self.num_vars()
            );
        }
        self.constraints.push(c);
    }

    /// Objective value of a 0/1 assignment.
    pub fn objective_of(&self, values: &[bool]) -> f64 {
        self.objective
            .iter()
            .zip(values)
            .map(|(&c, &v)| if v { c } else { 0.0 })
            .sum()
    }

    /// Whether a 0/1 assignment satisfies all constraints.
    pub fn feasible(&self, values: &[bool]) -> bool {
        self.constraints.iter().all(|c| c.satisfied(values))
    }
}

/// Counters reported by the exact solvers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Branch-and-bound nodes (or Balas enumeration nodes) explored.
    pub nodes: usize,
    /// Total simplex pivots across all LP solves (0 for Balas).
    pub pivots: usize,
    /// LP relaxations solved across the root and every child (0 for Balas).
    pub lp_solves: usize,
}

/// An optimal 0/1 solution.
#[derive(Debug, Clone, PartialEq)]
pub struct BlpSolution {
    /// The optimal assignment.
    pub values: Vec<bool>,
    /// Its objective value.
    pub objective: f64,
    /// Search statistics.
    pub stats: SolveStats,
}

/// Error produced by the solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlpError {
    /// No 0/1 assignment satisfies the constraints.
    Infeasible,
    /// The node/iteration budget was exhausted before proving optimality.
    Limit,
}

impl fmt::Display for BlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlpError::Infeasible => write!(f, "problem is infeasible"),
            BlpError::Limit => write!(f, "solver budget exhausted before optimality"),
        }
    }
}

impl Error for BlpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_evaluation() {
        let c = Constraint::ge(vec![(0, 1.0), (2, -2.0)], 0.0);
        assert!(c.satisfied(&[true, false, false]));
        assert!(!c.satisfied(&[false, false, true]));
        assert!(c.satisfied(&[true, true, false]));
    }

    #[test]
    fn objective_and_feasibility() {
        let mut p = BlpProblem::minimize(vec![1.0, 2.0]);
        p.add(Constraint::ge(vec![(0, 1.0), (1, 1.0)], 1.0));
        assert_eq!(p.objective_of(&[true, true]), 3.0);
        assert!(p.feasible(&[false, true]));
        assert!(!p.feasible(&[false, false]));
    }

    #[test]
    #[should_panic(expected = "references variable")]
    fn out_of_range_variable_panics() {
        let mut p = BlpProblem::minimize(vec![1.0]);
        p.add(Constraint::ge(vec![(3, 1.0)], 1.0));
    }

    #[test]
    fn equality_tolerance() {
        let c = Constraint::eq(vec![(0, 1.0), (1, 1.0)], 1.0);
        assert!(c.satisfied(&[true, false]));
        assert!(!c.satisfied(&[true, true]));
        assert!(!c.satisfied(&[false, false]));
    }
}
