//! Bounded-variable dual simplex in dictionary form: the LP relaxation
//! branch & bound re-solves at every node. See [`Lp`].

use crate::problem::{BlpProblem, Sense};

/// The one magnitude that counts as zero: a basic variable this far
/// outside its bounds is feasible, and a smaller dictionary entry or
/// reduced cost is cancellation residue, stored as `0.0`.
const EPS: f64 = 1e-9;
/// Dual ratios closer than this tie (and a dual step below it is a stall).
const TIE_TOL: f64 = 1e-12;
/// Consecutive stalled pivots before the least-index rule takes over.
const STALL_LIMIT: usize = 64;
/// Pivots after which the next solve rewrites the dictionary from the rows.
const REBUILD_PIVOTS: usize = 256;

/// Result of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// Optimal solution found: values and objective.
    Optimal {
        /// Optimal (fractional) assignment.
        x: Vec<f64>,
        /// Objective value.
        objective: f64,
        /// Pivot count (for statistics).
        pivots: usize,
    },
    /// The constraints are inconsistent.
    Infeasible,
}

/// Solves the LP relaxation of `problem` with additional variable fixings
/// (`fixed[j] = Some(v)` pins variable `j` to `v ∈ {0.0, 1.0}`): builds an
/// [`Lp`] and solves it once.
pub fn solve_lp(problem: &BlpProblem, fixed: &[Option<f64>]) -> LpOutcome {
    Lp::new(problem).solve(fixed)
}

/// The LP relaxation of one [`BlpProblem`] — `min c·x` over its rows and
/// `0 ≤ x ≤ 1` — re-solvable under any fixing.
///
/// **Dictionary.** Bounds are data, not rows: structural `j` lives in
/// `[0, 1]` (`lo == hi` when pinned) and a row `a·x {≥,≤,=} b` is a *row
/// activity* `r = a·x` living in `[b, ∞)`, `(−∞, b]` or `[b, b]`. The one
/// matrix is `T`, the `m` basic variables in terms of the `n` nonbasic
/// ones (`x_B = T·x_N`, each nonbasic on one of its bounds), beside the
/// reduced costs `d` (`c·x = d·x_N`): no slack columns, bound rows or
/// artificials. Variable `v < n` is structural `v`, `n + i` is row `i`.
///
/// **No phase 1.** A dictionary is dual feasible when `d ≥ 0` at a lower
/// bound and `d ≤ 0` at an upper one (anything for a pinned variable). In
/// the slack basis (`T = A`, `d = c`) every nonbasic is a boxed
/// structural, so putting each on the bound its sign asks for is dual
/// feasible for *any* cost vector. The dual ratio test keeps it so while
/// pivots restore primal feasibility: a basic variable moves onto the
/// bound it violates and the nonbasic that pays least per unit enters;
/// if none can move the row, the row proves the bounds inconsistent.
///
/// **Re-bounding.** A bound never enters a reduced cost, so dual
/// feasibility survives any pattern of fixings: [`Lp::solve`] sets the
/// bounds, puts each nonbasic structural on the bound its sign asks for,
/// recomputes the basic values (one mat-vec) and pivots from whatever
/// basis the last solve left.
///
/// **Rebuild rule.** Every pivot rewrites `T`, and its rounding error
/// grows about tenfold per 300 pivots; once 256 have run since `T` was
/// written from the rows, the next solve starts over from the slack
/// basis — a rule of the pivot count only, so a problem's pivots repeat.
///
/// **Residue.** An entry that cancels in exact arithmetic leaves a pivot
/// as `1e-17` and later pivots multiply it: on the orchestration BLPs
/// three quarters of `T` was such residue, up to `1e-8`, every pivot
/// dense and `x` fractional at integral vertices. Anything below `1e-9`
/// is stored as zero; a pivot skips the rows it then finds empty.
///
/// **Termination.** The most violated row leaves and ratio ties go to the
/// larger pivot element; after 64 consecutive pivots that do not move
/// the dual objective the rule is least index (Bland) until one does,
/// which cannot cycle. No iteration cap: giving up is never "infeasible".
#[derive(Debug, Clone)]
pub struct Lp<'p> {
    problem: &'p BlpProblem,
    /// Structural variables (dictionary columns) and rows.
    n: usize,
    m: usize,
    /// The dictionary, row-major `m × n`.
    t: Vec<f64>,
    /// Reduced cost of each column's nonbasic variable.
    d: Vec<f64>,
    /// Variable that is basic in each row.
    basic: Vec<usize>,
    /// Variable that is nonbasic in each column.
    nonbasic: Vec<usize>,
    /// Bounds per variable; `±∞` on the open side of a row activity.
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Value of each row's basic variable.
    xb: Vec<f64>,
    /// Value of each column's nonbasic variable: one of its finite bounds.
    xn: Vec<f64>,
    /// Scratch: the pivot row as it reads after the pivot.
    prow: Vec<f64>,
    /// Pivots taken and solves run so far, infeasible ones included.
    pub(crate) pivots: usize,
    pub(crate) solves: usize,
    /// `pivots` when the dictionary was last written from the rows.
    rebuilt_at: usize,
    /// Stalled pivots tolerated before least-index pricing.
    stall_limit: usize,
}

impl<'p> Lp<'p> {
    /// The relaxation of `problem`, at its slack basis.
    pub fn new(problem: &'p BlpProblem) -> Self {
        let (n, m) = (problem.num_vars(), problem.constraints.len());
        let (mut lo, mut hi) = (vec![0.0; n + m], vec![1.0; n + m]);
        for (i, c) in problem.constraints.iter().enumerate() {
            (lo[n + i], hi[n + i]) = match c.sense {
                Sense::Ge => (c.rhs, f64::INFINITY),
                Sense::Le => (f64::NEG_INFINITY, c.rhs),
                Sense::Eq => (c.rhs, c.rhs),
            };
        }
        let mut lp = Self {
            problem,
            n,
            m,
            t: vec![0.0; m * n],
            d: vec![0.0; n],
            basic: vec![0; m],
            nonbasic: vec![0; n],
            lo,
            hi,
            xb: vec![0.0; m],
            xn: vec![0.0; n],
            prow: vec![0.0; n],
            pivots: 0,
            solves: 0,
            rebuilt_at: 0,
            stall_limit: STALL_LIMIT,
        };
        lp.rebuild();
        lp
    }

    /// Writes the slack-basis dictionary: `T = A`, `d = c`, every row
    /// activity basic.
    fn rebuild(&mut self) {
        let n = self.n;
        self.t.fill(0.0);
        for (i, c) in self.problem.constraints.iter().enumerate() {
            for &(j, a) in &c.coeffs {
                self.t[i * n + j] += a;
            }
        }
        self.d.copy_from_slice(&self.problem.objective);
        self.basic.iter_mut().zip(n..).for_each(|(b, v)| *b = v);
        self.nonbasic.iter_mut().zip(0..).for_each(|(b, v)| *b = v);
        self.rebuilt_at = self.pivots;
    }

    /// Solves under `fixed` (`Some(v)` pins a structural to `v`), starting
    /// from the basis the previous solve ended on.
    pub fn solve(&mut self, fixed: &[Option<f64>]) -> LpOutcome {
        let (n, m) = (self.n, self.m);
        assert_eq!(fixed.len(), n, "one fixing per variable");
        self.solves += 1;
        if self.pivots - self.rebuilt_at >= REBUILD_PIVOTS {
            self.rebuild();
        }
        for (j, f) in fixed.iter().enumerate() {
            (self.lo[j], self.hi[j]) = f.map_or((0.0, 1.0), |v| (v, v));
        }
        // Nonbasic structurals go to the bound their reduced cost asks for;
        // nonbasic row activities stay on the bound they left the basis at.
        for (k, &v) in self.nonbasic.iter().enumerate() {
            if v < n {
                let bound = if self.d[k] < 0.0 { &self.hi } else { &self.lo };
                self.xn[k] = bound[v];
            }
        }
        for i in 0..m {
            let row = &self.t[i * n..(i + 1) * n];
            self.xb[i] = row.iter().zip(&self.xn).map(|(a, x)| a * x).sum();
        }

        let before = self.pivots;
        let mut stall = 0usize;
        loop {
            let least_index = stall >= self.stall_limit;
            let Some(r) = self.leaving_row(least_index) else {
                break;
            };
            let Some((k, ratio)) = self.entering_column(r, least_index) else {
                return LpOutcome::Infeasible;
            };
            stall = if ratio > TIE_TOL { 0 } else { stall + 1 };
            self.pivot(r, k);
        }

        let mut x = vec![0.0; n];
        for (&v, &val) in self.placed() {
            if v < n {
                x[v] = val.clamp(self.lo[v], self.hi[v]);
            }
        }
        debug_assert!(self.drift() < 1e-7, "dictionary drifted from the rows");
        let costs = &self.problem.objective;
        let objective = x.iter().zip(costs).map(|(v, c)| v * c).sum();
        LpOutcome::Optimal {
            x,
            objective,
            pivots: self.pivots - before,
        }
    }

    /// Every variable with its current value.
    fn placed(&self) -> impl Iterator<Item = (&usize, &f64)> {
        let nonbasic = self.nonbasic.iter().zip(&self.xn);
        nonbasic.chain(self.basic.iter().zip(&self.xb))
    }

    /// Largest distance between a row's activity as the dictionary has it
    /// and as the row computes it: the rounding error since the rebuild.
    fn drift(&self) -> f64 {
        let mut value = vec![0.0; self.n + self.m];
        self.placed().for_each(|(&v, &x)| value[v] = x);
        let rows = self.problem.constraints.iter().zip(&value[self.n..]);
        rows.map(|(c, r)| (c.coeffs.iter().map(|&(j, a)| a * value[j]).sum::<f64>() - r).abs())
            .fold(0.0, f64::max)
    }

    /// The row whose basic variable is furthest outside its bounds (of
    /// lowest variable index under `least_index`); `None` at a primal
    /// feasible, hence optimal, dictionary.
    fn leaving_row(&self, least_index: bool) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, (&v, &x)) in self.basic.iter().zip(&self.xb).enumerate() {
            let violation = (self.lo[v] - x).max(x - self.hi[v]);
            if violation > EPS
                && best.is_none_or(|(r, worst)| {
                    if least_index {
                        v < self.basic[r]
                    } else {
                        violation > worst
                    }
                })
            {
                best = Some((i, violation));
            }
        }
        best.map(|(r, _)| r)
    }

    /// The dual ratio test on row `r`: among the nonbasics whose move off
    /// their bound pushes the row's basic variable toward the bound it
    /// violates, the one with the least reduced cost per unit of push, and
    /// that ratio. Ties go to the larger pivot element, or to the lowest
    /// variable index under `least_index`. `None` proves infeasibility:
    /// every nonbasic already sits where it helps the row most.
    fn entering_column(&self, r: usize, least_index: bool) -> Option<(usize, f64)> {
        let n = self.n;
        let lv = self.basic[r];
        let raise = self.xb[r] < self.lo[lv];
        let row = &self.t[r * n..(r + 1) * n];
        let mut best: Option<(usize, f64, f64)> = None;
        for (k, (&v, &a)) in self.nonbasic.iter().zip(row).enumerate() {
            if self.lo[v] == self.hi[v] {
                continue; // pinned: cannot move
            }
            let push = if raise { a } else { -a };
            // At its upper bound a variable can only decrease.
            let (push, cost) = if self.xn[k] == self.hi[v] {
                (-push, -self.d[k])
            } else {
                (push, self.d[k])
            };
            if push <= EPS {
                continue;
            }
            let ratio = cost.max(0.0) / push;
            let better = best.is_none_or(|(bk, best_ratio, best_push)| {
                if ratio < best_ratio - TIE_TOL {
                    true
                } else if ratio > best_ratio + TIE_TOL {
                    false
                } else if least_index {
                    v < self.nonbasic[bk]
                } else {
                    push > best_push
                }
            });
            if better {
                best = Some((k, ratio, push));
            }
        }
        best.map(|(k, ratio, _)| (k, ratio))
    }

    /// Exchanges row `r`'s basic variable, which moves onto the bound it
    /// violates, with column `k`'s nonbasic one.
    fn pivot(&mut self, r: usize, k: usize) {
        let n = self.n;
        let lv = self.basic[r];
        let target = self.xb[r].clamp(self.lo[lv], self.hi[lv]);
        let p = self.t[r * n + k];
        let step = (target - self.xb[r]) / p;

        // Row r solved for the entering variable.
        let row = &self.t[r * n..(r + 1) * n];
        for (new, &old) in self.prow.iter_mut().zip(row) {
            *new = flush(-old / p);
        }
        self.prow[k] = 1.0 / p;
        // Substitute it into every other row and into the costs.
        for (i, row) in self.t.chunks_exact_mut(n).enumerate() {
            let f = row[k];
            if i == r || f == 0.0 {
                continue;
            }
            self.xb[i] += f * step;
            row[k] = 0.0;
            for (a, &pr) in row.iter_mut().zip(&self.prow) {
                *a = flush(*a + f * pr);
            }
        }
        self.t[r * n..(r + 1) * n].copy_from_slice(&self.prow);
        let f = std::mem::take(&mut self.d[k]);
        for (dj, &pr) in self.d.iter_mut().zip(&self.prow) {
            *dj = flush(*dj + f * pr);
        }

        self.xb[r] = self.xn[k] + step;
        self.xn[k] = target;
        std::mem::swap(&mut self.basic[r], &mut self.nonbasic[k]);
        self.pivots += 1;
    }
}

/// `v`, or zero when it is the rounding residue of an entry that cancelled.
#[inline]
fn flush(v: f64) -> f64 {
    if v.abs() < EPS {
        0.0
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Constraint;

    fn lp(p: &BlpProblem) -> (Vec<f64>, f64) {
        match solve_lp(p, &vec![None; p.num_vars()]) {
            LpOutcome::Optimal { x, objective, .. } => (x, objective),
            LpOutcome::Infeasible => panic!("unexpected infeasible"),
        }
    }

    #[test]
    fn simple_cover_relaxation_is_integral() {
        let mut p = BlpProblem::minimize(vec![3.0, 2.0, 4.0]);
        p.add(Constraint::ge(vec![(0, 1.0), (1, 1.0)], 1.0));
        p.add(Constraint::ge(vec![(1, 1.0), (2, 1.0)], 1.0));
        let (x, obj) = lp(&p);
        assert!((obj - 2.0).abs() < 1e-6);
        assert!((x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fractional_relaxation() {
        // Odd-cycle cover: x_i + x_{i+1} >= 1 for a 3-cycle has LP optimum
        // 1.5 (all halves) while the integer optimum is 2.
        let mut p = BlpProblem::minimize(vec![1.0, 1.0, 1.0]);
        p.add(Constraint::ge(vec![(0, 1.0), (1, 1.0)], 1.0));
        p.add(Constraint::ge(vec![(1, 1.0), (2, 1.0)], 1.0));
        p.add(Constraint::ge(vec![(2, 1.0), (0, 1.0)], 1.0));
        let (x, obj) = lp(&p);
        assert!((obj - 1.5).abs() < 1e-6, "obj = {obj}, x = {x:?}");
    }

    #[test]
    fn upper_bounds_enforced() {
        // Maximize coverage ⇒ wants x > 1, but bound holds: min -x s.t. x<=1.
        let p = BlpProblem::minimize(vec![-5.0]);
        let (x, obj) = lp(&p);
        assert!((x[0] - 1.0).abs() < 1e-6);
        assert!((obj + 5.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = BlpProblem::minimize(vec![1.0]);
        p.add(Constraint::ge(vec![(0, 1.0)], 2.0)); // x >= 2 impossible with x <= 1
        assert_eq!(solve_lp(&p, &[None]), LpOutcome::Infeasible);
    }

    #[test]
    fn equality_rows() {
        let mut p = BlpProblem::minimize(vec![1.0, 3.0]);
        p.add(Constraint::eq(vec![(0, 1.0), (1, 1.0)], 1.0));
        let (x, obj) = lp(&p);
        assert!((x[0] - 1.0).abs() < 1e-6);
        assert!((obj - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fixed_variables_substituted() {
        let mut p = BlpProblem::minimize(vec![1.0, 1.0]);
        p.add(Constraint::ge(vec![(0, 1.0), (1, 1.0)], 1.0));
        // Fix the cheap option to 0 -> other must be 1.
        match solve_lp(&p, &[Some(0.0), None]) {
            LpOutcome::Optimal { x, objective, .. } => {
                assert!((x[1] - 1.0).abs() < 1e-6);
                assert!((objective - 1.0).abs() < 1e-6);
            }
            LpOutcome::Infeasible => panic!(),
        }
        // Fixing both to 0 is infeasible.
        assert_eq!(solve_lp(&p, &[Some(0.0), Some(0.0)]), LpOutcome::Infeasible);
    }

    #[test]
    fn negative_rhs_rows_normalized() {
        // -x0 - x1 >= -1  ==  x0 + x1 <= 1
        let mut p = BlpProblem::minimize(vec![-2.0, -1.0]);
        p.add(Constraint::ge(vec![(0, -1.0), (1, -1.0)], -1.0));
        let (x, obj) = lp(&p);
        assert!((obj + 2.0).abs() < 1e-6, "should pick only x0: {x:?}");
    }

    #[test]
    fn dependency_shape_relaxation() {
        // u0 - u1 >= 0, u1 >= 1 -> both 1.
        let mut p = BlpProblem::minimize(vec![2.0, 1.0]);
        p.add(Constraint::ge(vec![(0, 1.0), (1, -1.0)], 0.0));
        p.add(Constraint::ge(vec![(1, 1.0)], 1.0));
        let (x, obj) = lp(&p);
        assert!((x[0] - 1.0).abs() < 1e-6);
        assert!((x[1] - 1.0).abs() < 1e-6);
        assert!((obj - 3.0).abs() < 1e-6);
    }

    // ---- differential tests against the two-phase reference ----

    use crate::two_phase;
    use proptest::prelude::*;

    /// xorshift64*, so one proptest seed yields a whole instance.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as usize % n
        }
    }

    /// An orchestration-shaped LP: 1–40 variables with few distinct costs
    /// (negative, zero and tied ones included), cover rows (`≥ 1`),
    /// dependency rows (`producers − consumer ≥ 0`), packing rows written
    /// both as `≤ b` and as `−a·x ≥ −b`, and the odd equality.
    fn cover_shaped(seed: u64) -> BlpProblem {
        let mut r = Rng(seed | 1);
        let n = 1 + r.below(40);
        let costs = (0..n).map(|_| r.below(7) as f64 - 1.0).collect();
        let mut p = BlpProblem::minimize(costs);
        for _ in 0..r.below(2 * n + 1) {
            let width = 1 + r.below(n.min(6));
            let mut row: Vec<(usize, f64)> = (0..width).map(|_| (r.below(n), 1.0)).collect();
            row.sort_by_key(|&(j, _)| j);
            row.dedup_by_key(|&mut (j, _)| j);
            p.add(match r.below(8) {
                0..=2 => Constraint::ge(row, 1.0),
                3..=4 => {
                    row.push((r.below(n), -1.0));
                    Constraint::ge(row, 0.0)
                }
                5 => Constraint::le(row, 1.0 + r.below(2) as f64),
                6 => {
                    let flipped = row.into_iter().map(|(j, a)| (j, -a)).collect();
                    Constraint::ge(flipped, -1.0)
                }
                _ => Constraint::eq(row, 1.0),
            });
        }
        p
    }

    fn random_fixing(r: &mut Rng, n: usize) -> Vec<Option<f64>> {
        let pin = |k| [None, None, None, Some(0.0), Some(1.0)][k];
        (0..n).map(|_| pin(r.below(5))).collect()
    }

    /// `got` is the reference's answer to `p` under `fixed`: same status,
    /// same objective, and an `x` inside every bound, fixing and row.
    fn assert_agrees(p: &BlpProblem, fixed: &[Option<f64>], got: &LpOutcome, what: &str) {
        let want = two_phase::solve_lp(p, fixed);
        match (got, &want) {
            (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
            (
                LpOutcome::Optimal { x, objective, .. },
                LpOutcome::Optimal {
                    objective: want, ..
                },
            ) => {
                assert!(
                    (objective - want).abs() <= 1e-7 * want.abs().max(1.0),
                    "{what}: objective {objective} vs reference {want}"
                );
                for (j, &v) in x.iter().enumerate() {
                    let (lo, hi) = fixed[j].map_or((0.0, 1.0), |f| (f, f));
                    assert!((lo..=hi).contains(&v), "{what}: x[{j}] = {v}");
                }
                for c in &p.constraints {
                    let lhs: f64 = c.coeffs.iter().map(|&(j, a)| a * x[j]).sum();
                    let ok = match c.sense {
                        Sense::Ge => lhs >= c.rhs - 1e-7,
                        Sense::Le => lhs <= c.rhs + 1e-7,
                        Sense::Eq => (lhs - c.rhs).abs() <= 1e-7,
                    };
                    assert!(ok, "{what}: row {c:?} has activity {lhs}");
                }
            }
            _ => panic!("{what}: {got:?} vs reference {want:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Build-and-solve-once agrees with the reference under any fixing,
        /// under both pricing rules.
        #[test]
        fn cold_solves_match_the_reference(seed in 0u64..u64::MAX) {
            let p = cover_shaped(seed);
            let fixed = random_fixing(&mut Rng(!seed | 1), p.num_vars());
            assert_agrees(&p, &fixed, &solve_lp(&p, &fixed), "cold");
            let mut least_index = Lp::new(&p);
            least_index.stall_limit = 0;
            assert_agrees(&p, &fixed, &least_index.solve(&fixed), "cold, least index");
        }

        /// One dictionary under a sequence of fixings — pin, release, flip,
        /// everything pinned, nothing pinned, an infeasible fixing and then
        /// a feasible one — answers each step as a fresh build does, and
        /// rebuilding it mid-sequence changes no answer.
        #[test]
        fn a_roaming_dictionary_matches_fresh_builds(seed in 0u64..u64::MAX) {
            let p = cover_shaped(seed);
            let n = p.num_vars();
            let mut r = Rng(!seed | 1);
            let mut steps: Vec<Vec<Option<f64>>> = (0..6).map(|_| random_fixing(&mut r, n)).collect();
            let flipped = steps[5].iter().map(|f| f.map(|v| 1.0 - v)).collect();
            steps.push(flipped);
            steps.push((0..n).map(|_| Some(r.below(2) as f64)).collect());
            steps.push(vec![None; n]);
            // Emptying a cover row is infeasible; releasing it again is not.
            if let Some(c) = p.constraints.iter().find(|c| c.sense == Sense::Ge && c.rhs > 0.0) {
                let mut empty = vec![None; n];
                c.coeffs.iter().for_each(|&(j, _)| empty[j] = Some(0.0));
                steps.push(empty);
                steps.push(vec![None; n]);
            }
            steps.push(random_fixing(&mut r, n));

            let mut lp = Lp::new(&p);
            for (i, fixed) in steps.iter().enumerate() {
                let mut rebuilt = lp.clone();
                rebuilt.rebuild();
                assert_agrees(&p, fixed, &lp.solve(fixed), &format!("step {i}"));
                assert_agrees(&p, fixed, &rebuilt.solve(fixed), &format!("step {i}, rebuilt"));
            }
        }
    }

    /// Equal costs and duplicated rows tie every dual ratio, and with all
    /// costs zero every pivot is a stall. The default rule and the
    /// least-index rule it falls back to (at once, after two stalls, after
    /// [`STALL_LIMIT`]) all end, at the optimum, with the search's fixings
    /// applied — the reference's iteration cap read such an instance as
    /// infeasible when it gave up.
    #[test]
    fn dual_degenerate_instances_terminate_under_both_rules() {
        let n = 24;
        for cost in [1.0, 0.0] {
            let mut p = BlpProblem::minimize(vec![cost; n]);
            for _copy in 0..3 {
                for i in 0..n {
                    p.add(Constraint::ge(vec![(i, 1.0), ((i + 1) % n, 1.0)], 1.0));
                    if i % 2 == 0 {
                        p.add(Constraint::ge(vec![(i, 1.0), ((i + 5) % n, -1.0)], 0.0));
                    }
                }
            }
            let mut r = Rng(7);
            for limit in [STALL_LIMIT, 2, 0] {
                let mut lp = Lp::new(&p);
                lp.stall_limit = limit;
                for step in 0..40 {
                    let fixed = if step == 0 {
                        vec![None; n]
                    } else {
                        random_fixing(&mut r, n)
                    };
                    let what = format!("cost {cost}, stall limit {limit}, step {step}");
                    assert_agrees(&p, &fixed, &lp.solve(&fixed), &what);
                }
            }
        }
    }
}
