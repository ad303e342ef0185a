//! The dense two-phase primal simplex this crate shipped before the dual
//! simplex of `simplex.rs`, kept as the reference the differential tests
//! solve every LP against. Upper bounds are explicit rows, every fixing is
//! substituted out, and each call builds its own tableau.

use crate::problem::{BlpProblem, Constraint, Sense};
use crate::simplex::LpOutcome;

const EPS: f64 = 1e-9;

/// Solves the LP relaxation of `problem` with additional variable fixings:
/// `fixed[j] = Some(v)` pins variable `j` to `v ∈ {0.0, 1.0}`.
///
/// Upper bounds `x ≤ 1` are added internally for all unfixed variables.
pub fn solve_lp(problem: &BlpProblem, fixed: &[Option<f64>]) -> LpOutcome {
    let n = problem.num_vars();
    debug_assert_eq!(fixed.len(), n);

    // Substitute fixed variables into the constraints: they contribute a
    // constant to each row and drop out of the column set.
    let free: Vec<usize> = (0..n).filter(|&j| fixed[j].is_none()).collect();
    let col_of: Vec<Option<usize>> = {
        let mut m = vec![None; n];
        for (c, &j) in free.iter().enumerate() {
            m[j] = Some(c);
        }
        m
    };
    let nf = free.len();

    let mut rows: Vec<(Vec<f64>, Sense, f64)> = Vec::new();
    for Constraint { coeffs, sense, rhs } in &problem.constraints {
        let mut row = vec![0.0; nf];
        let mut b = *rhs;
        let mut nonzero = false;
        for &(j, a) in coeffs {
            match fixed[j] {
                Some(v) => b -= a * v,
                None => {
                    row[col_of[j].expect("free var")] += a;
                    nonzero = true;
                }
            }
        }
        if !nonzero {
            // Constant row: check consistency directly.
            let ok = match sense {
                Sense::Ge => 0.0 >= b - EPS,
                Sense::Le => 0.0 <= b + EPS,
                Sense::Eq => b.abs() <= EPS,
            };
            if !ok {
                return LpOutcome::Infeasible;
            }
            continue;
        }
        rows.push((row, *sense, b));
    }
    // Upper bounds for the free variables.
    for c in 0..nf {
        let mut row = vec![0.0; nf];
        row[c] = 1.0;
        rows.push((row, Sense::Le, 1.0));
    }

    let objective: Vec<f64> = free.iter().map(|&j| problem.objective[j]).collect();
    let base_obj: f64 = (0..n)
        .map(|j| fixed[j].map_or(0.0, |v| problem.objective[j] * v))
        .sum();

    match simplex_standard(&objective, &rows) {
        StandardOutcome::Optimal {
            x,
            objective: obj,
            pivots,
        } => {
            let mut full = vec![0.0; n];
            for (c, &j) in free.iter().enumerate() {
                full[j] = x[c];
            }
            for j in 0..n {
                if let Some(v) = fixed[j] {
                    full[j] = v;
                }
            }
            LpOutcome::Optimal {
                x: full,
                objective: obj + base_obj,
                pivots,
            }
        }
        StandardOutcome::Infeasible => LpOutcome::Infeasible,
    }
}

enum StandardOutcome {
    Optimal {
        x: Vec<f64>,
        objective: f64,
        pivots: usize,
    },
    Infeasible,
}

/// Two-phase simplex on `min c·x, rows, x ≥ 0` (upper bounds arrive as
/// explicit rows from the caller).
fn simplex_standard(c: &[f64], rows: &[(Vec<f64>, Sense, f64)]) -> StandardOutcome {
    let n = c.len();
    let m = rows.len();
    if n == 0 {
        // Nothing free: feasibility was checked by the caller.
        return StandardOutcome::Optimal {
            x: vec![],
            objective: 0.0,
            pivots: 0,
        };
    }

    // Normalize rows to b >= 0 and count extra columns.
    // Column layout: [0..n) structural, then one slack/surplus per row that
    // needs one, then artificials.
    let mut norm: Vec<(Vec<f64>, Sense, f64)> = Vec::with_capacity(m);
    for (row, sense, b) in rows {
        // Prefer representations with a feasible slack basis (no artificial
        // variable): `a·x ≥ b` with `b ≤ 0` becomes `-a·x ≤ -b`. Korch's
        // dependency constraints (Eq. 4, rhs 0) all take this fast path.
        let negate = match sense {
            Sense::Ge => *b <= 0.0,
            Sense::Le => *b < 0.0,
            Sense::Eq => *b < 0.0,
        };
        if negate {
            let flipped: Vec<f64> = row.iter().map(|v| -v).collect();
            let s = match sense {
                Sense::Ge => Sense::Le,
                Sense::Le => Sense::Ge,
                Sense::Eq => Sense::Eq,
            };
            norm.push((flipped, s, -b));
        } else {
            norm.push((row.clone(), *sense, *b));
        }
    }

    let mut num_slack = 0usize;
    let mut num_art = 0usize;
    for (_, sense, _) in &norm {
        match sense {
            Sense::Le => num_slack += 1,
            Sense::Ge => {
                num_slack += 1;
                num_art += 1;
            }
            Sense::Eq => num_art += 1,
        }
    }
    let total = n + num_slack + num_art;
    let art_start = n + num_slack;

    // Build tableau: m rows of `total + 1` (last column = rhs).
    let mut t = vec![vec![0.0f64; total + 1]; m];
    let mut basis = vec![0usize; m];
    let mut si = n;
    let mut ai = art_start;
    for (i, (row, sense, b)) in norm.iter().enumerate() {
        t[i][..n].copy_from_slice(row);
        t[i][total] = *b;
        match sense {
            Sense::Le => {
                t[i][si] = 1.0;
                basis[i] = si;
                si += 1;
            }
            Sense::Ge => {
                t[i][si] = -1.0;
                si += 1;
                t[i][ai] = 1.0;
                basis[i] = ai;
                ai += 1;
            }
            Sense::Eq => {
                t[i][ai] = 1.0;
                basis[i] = ai;
                ai += 1;
            }
        }
    }

    let mut pivots = 0usize;

    // Phase 1: minimize the sum of artificials.
    if num_art > 0 {
        let mut z = vec![0.0f64; total + 1];
        for zc in &mut z[art_start..total] {
            *zc = 1.0;
        }
        // Make reduced costs consistent with the starting basis.
        for i in 0..m {
            if basis[i] >= art_start {
                for col in 0..=total {
                    z[col] -= t[i][col];
                }
            }
        }
        if !run_simplex(&mut t, &mut z, &mut basis, total, &mut pivots) {
            return StandardOutcome::Infeasible; // unbounded phase 1: impossible
        }
        if -z[total] > 1e-7 {
            return StandardOutcome::Infeasible;
        }
        // Drive any artificial still basic (at zero) out of the basis.
        for i in 0..m {
            if basis[i] >= art_start {
                if let Some(col) = (0..art_start).find(|&c| t[i][c].abs() > EPS) {
                    pivot(&mut t, &mut z, &mut basis, i, col, total);
                    pivots += 1;
                }
            }
        }
    }

    // Phase 2: minimize the real objective.
    let mut z = vec![0.0f64; total + 1];
    z[..n].copy_from_slice(c);
    for i in 0..m {
        let bcol = basis[i];
        if bcol >= art_start {
            continue; // degenerate artificial stuck in basis at zero
        }
        let cb = if bcol < n { c[bcol] } else { 0.0 };
        if cb != 0.0 {
            for col in 0..=total {
                z[col] -= cb * t[i][col];
            }
        }
    }
    // Forbid artificials from re-entering by giving them +inf reduced cost.
    for zc in &mut z[art_start..total] {
        *zc = f64::INFINITY;
    }
    if !run_simplex(&mut t, &mut z, &mut basis, total, &mut pivots) {
        // Unbounded cannot happen with 0 ≤ x ≤ 1 rows present; treat as
        // infeasible to be safe.
        return StandardOutcome::Infeasible;
    }

    let mut x = vec![0.0f64; n];
    for i in 0..m {
        if basis[i] < n {
            x[basis[i]] = t[i][total];
        }
    }
    let objective: f64 = x.iter().zip(c).map(|(&v, &cc)| v * cc).sum();
    StandardOutcome::Optimal {
        x,
        objective,
        pivots,
    }
}

/// Runs simplex iterations until optimal; returns false on unboundedness.
fn run_simplex(
    t: &mut [Vec<f64>],
    z: &mut [f64],
    basis: &mut [usize],
    total: usize,
    pivots: &mut usize,
) -> bool {
    let m = t.len();
    let mut iter = 0usize;
    // After this many Dantzig iterations, switch to Bland's rule to break
    // potential cycles.
    let bland_after = 50 * (m + total);
    loop {
        iter += 1;
        // An oracle that gives up must not be read as "infeasible".
        assert!(iter <= 200_000, "reference simplex did not converge");
        let use_bland = iter > bland_after;
        // Entering column: most negative reduced cost (Dantzig) or first
        // negative (Bland).
        let mut enter: Option<usize> = None;
        let mut best = -1e-9;
        for (col, &rc) in z.iter().enumerate().take(total) {
            if rc.is_infinite() {
                continue;
            }
            if rc < best {
                enter = Some(col);
                if use_bland {
                    break;
                }
                best = rc;
            }
        }
        let Some(enter) = enter else { return true };
        // Ratio test (Bland tie-break on basis index).
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            let a = t[i][enter];
            if a > EPS {
                let ratio = t[i][total] / a;
                if ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS && leave.is_some_and(|l| basis[i] < basis[l]))
                {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(leave) = leave else { return false };
        pivot(t, z, basis, leave, enter, total);
        *pivots += 1;
    }
}

fn pivot(
    t: &mut [Vec<f64>],
    z: &mut [f64],
    basis: &mut [usize],
    row: usize,
    col: usize,
    total: usize,
) {
    let p = t[row][col];
    debug_assert!(p.abs() > EPS);
    for v in t[row].iter_mut() {
        *v /= p;
    }
    let pivot_row = t[row].clone();
    for (i, r) in t.iter_mut().enumerate() {
        if i == row {
            continue;
        }
        let f = r[col];
        if f.abs() > EPS {
            for (v, pv) in r.iter_mut().zip(&pivot_row) {
                *v -= f * pv;
            }
        }
    }
    let f = z[col];
    if f.abs() > EPS && f.is_finite() {
        for (v, pv) in z.iter_mut().zip(&pivot_row).take(total + 1) {
            if v.is_finite() {
                *v -= f * pv;
            }
        }
    }
    basis[row] = col;
}
