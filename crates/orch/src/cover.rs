//! The orchestration BLP (paper Eqs. 2–4), written once.
//!
//! Kernel orchestration is a covering problem over *keys*: every variable
//! (a candidate kernel) produces some keys, requires others, and has a
//! cost; a selection is valid when every must-produce key is produced
//! (Eq. 3) and every key a selected variable requires is produced by some
//! selected variable (Eq. 4); the cheapest valid selection wins (Eq. 2).
//! [`optimize`](crate::optimize) instantiates the key as a primitive
//! (`NodeId`); the unit tests use small integers.
//!
//! Everything here is a function of the variables in the order given:
//! rows are emitted for the must-produce keys in key order, then per
//! variable for its requirements in key order, and every map is ordered.
//! No hash iteration reaches the solver, so the same problem takes the
//! same pivots every time it is solved.

use crate::optimizer::{OrchError, SolveReport};
use korch_blp::{BlpError, BlpProblem, BranchAndBound, Constraint, Solver};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

/// One BLP variable: a candidate kernel seen through its keys.
pub(crate) struct CoverVar<K> {
    /// Keys the kernel materializes.
    pub produces: Vec<K>,
    /// Keys that must be materialized before the kernel can run.
    pub requires: Vec<K>,
    /// Objective coefficient (latency, µs).
    pub cost: f64,
    /// The kernel executes one primitive: it may stand in for its key in
    /// the warm start and in deadlock repair.
    pub singleton: bool,
}

/// The BLP over a list of [`CoverVar`]s.
pub(crate) struct CoverProblem<K> {
    vars: Vec<CoverVar<K>>,
    must: Vec<K>,
    /// Cheapest singleton variable per produced key.
    singleton: BTreeMap<K, usize>,
    problem: BlpProblem,
}

/// A solved [`CoverProblem`].
pub(crate) struct CoverSolution {
    /// Variables to run, in a dependency-respecting order (a repaired
    /// deadlock can add singletons the solver did not select).
    pub order: Vec<usize>,
    /// Solver statistics (`tuning_time_s` left at 0).
    pub report: SolveReport,
}

impl<K: Ord + Copy + Debug> CoverProblem<K> {
    /// Builds the Eq. 3 rows for `must` and the Eq. 4 rows for every
    /// variable's requirements.
    ///
    /// # Errors
    ///
    /// [`OrchError::Infeasible`] when no variable produces a key that
    /// `must` or some variable needs.
    pub fn new(mut vars: Vec<CoverVar<K>>, mut must: Vec<K>) -> Result<Self, OrchError> {
        must.sort_unstable();
        must.dedup();
        for v in &mut vars {
            v.requires.sort_unstable();
            v.requires.dedup();
        }
        let mut producers: BTreeMap<K, Vec<usize>> = BTreeMap::new();
        let mut singleton: BTreeMap<K, usize> = BTreeMap::new();
        for (i, v) in vars.iter().enumerate() {
            for &k in &v.produces {
                producers.entry(k).or_default().push(i);
                if v.singleton {
                    let best = singleton.entry(k).or_insert(i);
                    if v.cost < vars[*best].cost {
                        *best = i;
                    }
                }
            }
        }
        let producers_of = |k: &K| {
            producers.get(k).ok_or_else(|| {
                OrchError::Infeasible(format!("{k:?} is needed but no candidate materializes it"))
            })
        };

        let mut problem = BlpProblem::minimize(vars.iter().map(|v| v.cost).collect());
        // Output constraints (Eq. 3): every must-produce key is materialized
        // by at least one selected kernel.
        for k in &must {
            let row = producers_of(k)?.iter().map(|&p| (p, 1.0)).collect();
            problem.add(Constraint::ge(row, 1.0));
        }
        // Dependency constraints (Eq. 4): a kernel can run only if each key
        // it requires is materialized by some selected kernel.
        for (i, v) in vars.iter().enumerate() {
            for k in &v.requires {
                let ps = producers_of(k)?;
                if ps.contains(&i) {
                    continue; // the kernel covers the key itself: vacuous
                }
                let mut row: Vec<(usize, f64)> = ps.iter().map(|&p| (p, 1.0)).collect();
                row.push((i, -1.0));
                problem.add(Constraint::ge(row, 0.0));
            }
        }
        Ok(Self {
            vars,
            must,
            singleton,
            problem,
        })
    }

    /// Adds a side constraint over the same variables.
    pub fn add(&mut self, row: Constraint) {
        self.problem.add(row);
    }

    /// Solves the BLP by branch and bound, warm-started by the cheapest
    /// feasible of the greedy per-key incumbent and `warm_starts` (the only
    /// incumbent the search starts from), and orders the selection. A
    /// solve that exhausts `max_nodes` returns its best incumbent, or
    /// [`OrchError::SolverBudget`] when it has none.
    ///
    /// # Errors
    ///
    /// See [`OrchError`].
    pub fn solve(
        &self,
        warm_starts: Vec<Vec<bool>>,
        max_nodes: usize,
    ) -> Result<CoverSolution, OrchError> {
        let problem = &self.problem;
        let incumbent = self
            .greedy()
            .into_iter()
            .chain(warm_starts)
            .filter(|v| problem.feasible(v))
            .min_by(|a, b| problem.objective_of(a).total_cmp(&problem.objective_of(b)));
        let warm_objective_us = incumbent
            .as_ref()
            .map_or(f64::NAN, |v| problem.objective_of(v));
        let solver = BranchAndBound {
            max_nodes,
            best_on_limit: true,
            rel_gap: 2e-2, // 2%: below the cost model's own fidelity
            incumbent,
        };
        let solution = solver.solve(problem).map_err(|e| match e {
            BlpError::Infeasible => OrchError::Infeasible("BLP has no 0/1 solution".into()),
            BlpError::Limit => OrchError::SolverBudget,
        })?;
        let selected: Vec<usize> = (0..self.vars.len())
            .filter(|&i| solution.values[i])
            .collect();
        Ok(CoverSolution {
            order: self.order(&selected)?,
            report: SolveReport {
                num_candidates: self.vars.len(),
                tuning_time_s: 0.0,
                num_constraints: problem.constraints.len(),
                solver_nodes: solution.stats.nodes,
                solver_pivots: solution.stats.pivots,
                solver_lp_solves: solution.stats.lp_solves,
                warm_objective_us,
            },
        })
    }

    /// Makes `key` available through its cheapest singleton, after the
    /// singletons that one's own requirements need. Terminates because
    /// singleton requirements follow the primitive graph's topological
    /// order.
    fn cover(
        &self,
        key: K,
        available: &mut BTreeSet<K>,
        ordered: &mut Vec<usize>,
    ) -> Result<(), OrchError> {
        if available.contains(&key) {
            return Ok(());
        }
        let &i = self.singleton.get(&key).ok_or(OrchError::Unschedulable)?;
        for &r in &self.vars[i].requires {
            self.cover(r, available, ordered)?;
        }
        ordered.push(i);
        available.extend(&self.vars[i].produces);
        Ok(())
    }

    /// The "one kernel per primitive" warm start: every must-produce key
    /// and everything it transitively needs, each by its cheapest
    /// singleton. Feasible whenever the singletons exist.
    fn greedy(&self) -> Option<Vec<bool>> {
        let (mut available, mut chosen) = (BTreeSet::new(), Vec::new());
        for &k in &self.must {
            self.cover(k, &mut available, &mut chosen).ok()?;
        }
        let mut values = vec![false; self.vars.len()];
        for i in chosen {
            values[i] = true;
        }
        Some(values)
    }

    /// Orders the selected kernels so each runs after the kernels that
    /// materialize what it requires (paper §5.3: sequential execution),
    /// wave by wave.
    ///
    /// Eqs. 3–4 do not rule out *mutual* waits between interleaved convex
    /// kernels (A outputs what B needs while B outputs what A needs). Such
    /// deadlocks are rare; they are repaired by running singletons for the
    /// unmet keys of the kernel with the fewest of them.
    fn order(&self, selected: &[usize]) -> Result<Vec<usize>, OrchError> {
        let mut available: BTreeSet<K> = BTreeSet::new();
        let mut remaining = selected.to_vec();
        let mut ordered = Vec::with_capacity(selected.len());
        let unmet = |i: usize, available: &BTreeSet<K>| -> Vec<K> {
            let needs = self.vars[i].requires.iter();
            needs.filter(|k| !available.contains(k)).copied().collect()
        };
        while !remaining.is_empty() {
            let wave_start = ordered.len();
            remaining.retain(|&i| {
                let ready = unmet(i, &available).is_empty();
                if ready {
                    ordered.push(i);
                }
                !ready
            });
            if ordered.len() > wave_start {
                for &i in &ordered[wave_start..] {
                    available.extend(&self.vars[i].produces);
                }
            } else {
                let blocked = remaining.iter().map(|&i| unmet(i, &available));
                let fewest = blocked
                    .min_by_key(Vec::len)
                    .ok_or(OrchError::Unschedulable)?;
                for k in fewest {
                    self.cover(k, &mut available, &mut ordered)?;
                }
            }
        }
        Ok(ordered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(produces: &[u8], requires: &[u8], cost: f64, singleton: bool) -> CoverVar<u8> {
        CoverVar {
            produces: produces.to_vec(),
            requires: requires.to_vec(),
            cost,
            singleton,
        }
    }

    #[test]
    fn rows_follow_must_keys_then_variable_order() {
        // 1 -> 2 -> 3 as singletons plus one fusion of {2, 3}.
        let vars = vec![
            var(&[3], &[2], 1.0, true),
            var(&[1], &[], 1.0, true),
            var(&[2], &[1], 1.0, true),
            var(&[3], &[1], 1.5, false),
        ];
        let p = CoverProblem::new(vars, vec![3]).unwrap();
        let rows: Vec<_> = p.problem.constraints.iter().map(|c| &c.coeffs).collect();
        assert_eq!(
            rows,
            [
                &vec![(0, 1.0), (3, 1.0)],  // Eq. 3: key 3
                &vec![(2, 1.0), (0, -1.0)], // Eq. 4: var 0 needs key 2
                &vec![(1, 1.0), (2, -1.0)], // var 2 needs key 1
                &vec![(1, 1.0), (3, -1.0)], // var 3 needs key 1
            ]
        );
        // The warm start the search begins from is the cheaper of the
        // greedy singletons (3.0) and the one given (1 + 1.5).
        let s = p.solve(vec![vec![false, true, false, true]], 100).unwrap();
        assert_eq!(s.order, [1, 3]);
        assert_eq!(s.report.warm_objective_us, 2.5);
        assert_eq!(s.report.num_constraints, 4);
    }

    #[test]
    fn mutual_wait_is_repaired_with_singletons() {
        // Kernels 0 and 1 each output what the other reads; singletons 2, 3
        // (needing nothing) break the cycle.
        let vars = vec![
            var(&[10], &[11], 1.0, false),
            var(&[11], &[10], 1.0, false),
            var(&[10], &[], 5.0, true),
            var(&[11], &[], 4.0, true),
        ];
        let p = CoverProblem::new(vars, vec![10, 11]).unwrap();
        assert_eq!(p.order(&[0, 1]).unwrap(), [3, 0, 1]);
        // Without singletons the pair cannot be ordered at all.
        let vars = vec![var(&[10], &[11], 1.0, false), var(&[11], &[10], 1.0, false)];
        let p = CoverProblem::new(vars, vec![10]).unwrap();
        assert_eq!(p.order(&[0, 1]).unwrap_err(), OrchError::Unschedulable);
    }

    #[test]
    fn unproduced_keys_are_infeasible() {
        let missing_output = CoverProblem::new(vec![var(&[1], &[], 1.0, true)], vec![2]);
        assert!(matches!(missing_output, Err(OrchError::Infeasible(_))));
        let missing_input = CoverProblem::new(vec![var(&[1], &[7], 1.0, true)], vec![1]);
        assert!(matches!(missing_input, Err(OrchError::Infeasible(_))));
    }
}
