//! Binary linear programming substrate for the Korch reproduction.
//!
//! The paper solves kernel orchestration (Eq. 2 subject to Eqs. 3–4) with
//! PuLP + CBC; neither is available offline, so this crate implements the
//! required machinery from scratch:
//!
//! - a **bounded-variable dual simplex** in dictionary form for the LP
//!   relaxation ([`Lp`], built once and re-solved under any fixing):
//!   `0 ≤ x ≤ 1`, fixings and right-hand sides are bounds, not rows, so
//!   the one matrix is basic rows × nonbasic columns and the slack basis
//!   is dual feasible for any cost vector (a nonbasic with negative
//!   reduced cost sits at its upper bound — no phase 1) and under any
//!   fixing: a re-solve re-bounds the same dictionary, rewritten from the
//!   rows every 256 pivots to bound rounding error;
//! - an exact **best-first branch & bound** 0/1 solver
//!   ([`BranchAndBound`]) over one such [`Lp`] per solve, starting from the
//!   caller's incumbent alone;
//! - **Balas' implicit enumeration** ([`BalasSolver`]) as an independent
//!   exact solver used to cross-check branch & bound in tests and in the
//!   solver ablation bench.
//!
//! ```
//! use korch_blp::{BlpProblem, BranchAndBound, Constraint, Solver};
//!
//! # fn main() -> Result<(), korch_blp::BlpError> {
//! // min 3a + 2b + 4c  s.t.  a + b >= 1,  b + c >= 1
//! let mut p = BlpProblem::minimize(vec![3.0, 2.0, 4.0]);
//! p.add(Constraint::ge(vec![(0, 1.0), (1, 1.0)], 1.0));
//! p.add(Constraint::ge(vec![(1, 1.0), (2, 1.0)], 1.0));
//! let sol = BranchAndBound::default().solve(&p)?;
//! assert_eq!(sol.values, vec![false, true, false]);
//! assert_eq!(sol.objective, 2.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod balas;
mod bnb;
mod problem;
mod simplex;
#[cfg(test)]
mod two_phase;

pub use balas::BalasSolver;
pub use bnb::BranchAndBound;
pub use problem::{BlpError, BlpProblem, BlpSolution, Constraint, Sense, SolveStats};
pub use simplex::{Lp, LpOutcome};

/// Common interface of the exact 0/1 solvers.
pub trait Solver {
    /// Solves the problem to proven optimality.
    ///
    /// # Errors
    ///
    /// Returns [`BlpError::Infeasible`] when no 0/1 assignment satisfies the
    /// constraints, or [`BlpError::Limit`] when the configured node/iteration
    /// budget is exhausted before optimality is proven ([`BranchAndBound`]
    /// returns its incumbent instead when it has one).
    fn solve(&self, problem: &BlpProblem) -> Result<BlpSolution, BlpError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small weighted set-cover instance solved by both exact solvers.
    fn cover_problem() -> BlpProblem {
        // Elements {0,1,2,3}; sets: A={0,1} c=5, B={1,2} c=4, C={2,3} c=5,
        // D={0,3} c=3, E={0,1,2,3} c=9.
        let mut p = BlpProblem::minimize(vec![5.0, 4.0, 5.0, 3.0, 9.0]);
        p.add(Constraint::ge(vec![(0, 1.0), (3, 1.0), (4, 1.0)], 1.0)); // elem 0
        p.add(Constraint::ge(vec![(0, 1.0), (1, 1.0), (4, 1.0)], 1.0)); // elem 1
        p.add(Constraint::ge(vec![(1, 1.0), (2, 1.0), (4, 1.0)], 1.0)); // elem 2
        p.add(Constraint::ge(vec![(2, 1.0), (3, 1.0), (4, 1.0)], 1.0)); // elem 3
        p
    }

    #[test]
    fn both_solvers_agree_on_cover() {
        let p = cover_problem();
        let a = BranchAndBound::default().solve(&p).unwrap();
        let b = BalasSolver::default().solve(&p).unwrap();
        // optimum: B + D = 4 + 3 = 7
        assert_eq!(a.objective, 7.0);
        assert_eq!(b.objective, 7.0);
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn infeasible_is_reported() {
        // x0 >= 1 and x0 <= 0 simultaneously.
        let mut p = BlpProblem::minimize(vec![1.0]);
        p.add(Constraint::ge(vec![(0, 1.0)], 1.0));
        p.add(Constraint::le(vec![(0, 1.0)], 0.0));
        assert!(matches!(
            BranchAndBound::default().solve(&p),
            Err(BlpError::Infeasible)
        ));
        assert!(matches!(
            BalasSolver::default().solve(&p),
            Err(BlpError::Infeasible)
        ));
    }

    #[test]
    fn negative_coefficients_dependency_style() {
        // Korch dependency constraint shape: u_a - u_b >= 0 (b needs a),
        // output: u_b >= 1. Optimum must pick both.
        let mut p = BlpProblem::minimize(vec![2.0, 1.0]);
        p.add(Constraint::ge(vec![(0, 1.0), (1, -1.0)], 0.0));
        p.add(Constraint::ge(vec![(1, 1.0)], 1.0));
        for sol in [
            BranchAndBound::default().solve(&p).unwrap(),
            BalasSolver::default().solve(&p).unwrap(),
        ] {
            assert_eq!(sol.values, vec![true, true]);
            assert_eq!(sol.objective, 3.0);
        }
    }

    #[test]
    fn equality_constraints() {
        // exactly one of three, costs 3,1,2
        let mut p = BlpProblem::minimize(vec![3.0, 1.0, 2.0]);
        p.add(Constraint::eq(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 1.0));
        let sol = BranchAndBound::default().solve(&p).unwrap();
        assert_eq!(sol.values, vec![false, true, false]);
    }

    #[test]
    fn random_instances_cross_check() {
        // Deterministic pseudo-random covering instances; both exact
        // solvers must agree on the optimal objective.
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..12 {
            let n = 6 + (next() % 5) as usize; // 6..10 vars
            let rows = 4 + (next() % 5) as usize;
            let costs: Vec<f64> = (0..n).map(|_| 1.0 + (next() % 9) as f64).collect();
            let mut p = BlpProblem::minimize(costs);
            for _ in 0..rows {
                let mut coeffs = Vec::new();
                for j in 0..n {
                    if next() % 3 == 0 {
                        coeffs.push((j, 1.0));
                    }
                }
                if coeffs.is_empty() {
                    coeffs.push((0, 1.0));
                }
                p.add(Constraint::ge(coeffs, 1.0));
            }
            let a = BranchAndBound::default().solve(&p).unwrap();
            let b = BalasSolver::default().solve(&p).unwrap();
            assert!(
                (a.objective - b.objective).abs() < 1e-6,
                "solver mismatch: bnb={} balas={}",
                a.objective,
                b.objective
            );
        }
    }
}
