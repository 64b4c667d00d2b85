//! A two-phase primal simplex solver for [`LinearProgram`]s.
//!
//! The solver densifies the constraint matrix, converts general bounds to
//! shifted non-negative variables (splitting free variables into a positive
//! and a negative part), turns every finite upper bound into an explicit
//! `<=` row, adds slack/surplus/artificial columns, and runs a textbook
//! two-phase tableau simplex with Dantzig pricing and a Bland fallback that
//! guarantees termination. A pivot updates only the columns where the pivot
//! row is nonzero.
//!
//! Phase 1 depends only on the constraints and bounds, so [`solve_each`]
//! runs it once and then runs phase 2 once per objective, each on its own
//! copy of the phase-1 tableau. The `iterations` of every solution count the
//! shared phase-1 pivots plus that objective's phase-2 pivots, which is what
//! a solve of that objective alone reports: [`solve`] is [`solve_each`] with
//! the program's own objective.
//!
//! Flux balance analysis in `pathway-fba` solves models with a few hundred
//! reactions this way, which the dense tableau handles comfortably.

use std::mem;

use crate::lp::{Constraint, Relation};
use crate::{LinalgError, LinearProgram, LpSolution, LpStatus, Objective};

/// Tuning options for the simplex solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimplexOptions {
    /// Hard cap on the total number of pivots across both phases.
    pub max_iterations: usize,
    /// Numerical tolerance used for pricing, ratio tests and feasibility.
    pub tolerance: f64,
    /// Number of Dantzig pivots after which the solver switches to Bland's
    /// rule to guarantee termination in the presence of degeneracy.
    pub bland_threshold: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iterations: 50_000,
            tolerance: 1e-9,
            bland_threshold: 5_000,
        }
    }
}

/// How each original variable maps onto the non-negative solver variables.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = offset + y[col]`
    Shifted { col: usize, offset: f64 },
    /// `x = offset - y[col]` (used when only an upper bound is finite)
    Mirrored { col: usize, offset: f64 },
    /// `x = y[pos] - y[neg]` (free variable)
    Split { pos: usize, neg: usize },
    /// `x = value` (fixed variable, eliminated from the tableau)
    Fixed { value: f64 },
}

#[derive(Clone, Default)]
struct Tableau {
    /// Constraint rows, canonical with respect to the current basis.
    rows: Vec<Vec<f64>>,
    /// Right-hand side of each row (always kept non-negative at start).
    rhs: Vec<f64>,
    /// Basic variable (column index) of each row. After phase 1 a redundant
    /// row may keep an artificial basic variable whose column is gone.
    basis: Vec<usize>,
    /// Total number of columns.
    ncols: usize,
    /// First artificial column; the artificials are the trailing block.
    first_artificial: usize,
}

/// A program after phase 1: the feasible basis every objective starts from.
struct FeasibleStart {
    var_map: Vec<VarMap>,
    /// Number of structural (`y`) columns.
    num_y: usize,
    /// Phase-1 tableau without its artificial columns.
    tableau: Tableau,
    /// Phase-1 pivots.
    iterations: usize,
}

/// Solves a [`LinearProgram`] with default [`SimplexOptions`].
///
/// # Errors
///
/// * [`LinalgError::Infeasible`] if no feasible point exists.
/// * [`LinalgError::Unbounded`] if the objective is unbounded.
/// * [`LinalgError::IterationLimit`] if the pivot cap is exceeded.
pub fn solve(lp: &LinearProgram) -> crate::Result<LpSolution> {
    solve_with_options(lp, &SimplexOptions::default())
}

/// Solves a [`LinearProgram`] with explicit [`SimplexOptions`].
///
/// # Errors
///
/// Same as [`solve`].
pub fn solve_with_options(
    lp: &LinearProgram,
    options: &SimplexOptions,
) -> crate::Result<LpSolution> {
    let objective = (lp.objective(), lp.objective_coefficients());
    solve_each(lp, &[objective], options)
        .pop()
        .expect("one result per objective")
}

/// Solves the constraints and bounds of `lp` once per objective, with one
/// shared phase 1. Each objective is a direction plus one coefficient per
/// variable; the program's own objective is ignored.
///
/// Result `k` is bit for bit what [`solve_with_options`] returns for `lp`
/// with objective `k`, `iterations` included. A phase-1 failure
/// ([`LinalgError::Infeasible`], [`LinalgError::IterationLimit`] or an
/// invalid tolerance) is reported for every objective, and an objective
/// with the wrong number of coefficients gets
/// [`LinalgError::DimensionMismatch`].
pub fn solve_each<C: AsRef<[f64]>>(
    lp: &LinearProgram,
    objectives: &[(Objective, C)],
    options: &SimplexOptions,
) -> Vec<crate::Result<LpSolution>> {
    if objectives.is_empty() {
        return Vec::new();
    }
    let mut start = match feasible_start(lp, options) {
        Ok(start) => start,
        Err(err) => return vec![Err(err); objectives.len()],
    };
    let last = objectives.len() - 1;
    objectives
        .iter()
        .enumerate()
        .map(|(k, (sense, coefficients))| {
            let coefficients = coefficients.as_ref();
            if coefficients.len() != lp.num_vars() {
                return Err(LinalgError::DimensionMismatch {
                    expected: format!("len {}", lp.num_vars()),
                    found: format!("len {}", coefficients.len()),
                });
            }
            // Every objective but the last pivots on a copy.
            let tableau = if k == last {
                mem::take(&mut start.tableau)
            } else {
                start.tableau.clone()
            };
            start.optimize(tableau, *sense, coefficients, options)
        })
        .collect()
}

/// Maps the variables, builds the tableau and runs phase 1.
fn feasible_start(lp: &LinearProgram, options: &SimplexOptions) -> crate::Result<FeasibleStart> {
    let tol = options.tolerance;
    if tol <= 0.0 || tol.is_nan() {
        return Err(LinalgError::InvalidArgument(
            "tolerance must be positive".into(),
        ));
    }

    // ---- 1. Map original variables to non-negative solver variables. ----
    let mut var_map = Vec::with_capacity(lp.num_vars());
    let mut num_y = 0usize;
    // (column, width) pairs that need an explicit upper-bound row `y <= width`.
    let mut upper_rows: Vec<(usize, f64)> = Vec::new();
    for bound in lp.bounds() {
        let l = bound.lower;
        let u = bound.upper;
        if l.is_finite() && u.is_finite() && (u - l).abs() <= tol {
            var_map.push(VarMap::Fixed { value: l });
        } else if l.is_finite() {
            let col = num_y;
            num_y += 1;
            if u.is_finite() {
                upper_rows.push((col, u - l));
            }
            var_map.push(VarMap::Shifted { col, offset: l });
        } else if u.is_finite() {
            let col = num_y;
            num_y += 1;
            var_map.push(VarMap::Mirrored { col, offset: u });
        } else {
            let pos = num_y;
            let neg = num_y + 1;
            num_y += 2;
            var_map.push(VarMap::Split { pos, neg });
        }
    }

    // ---- 2. Transform constraints into rows over the y variables. ----
    // Each row: (dense coefficients over y, relation, rhs)
    let mut raw_rows: Vec<(Vec<f64>, Relation, f64)> = Vec::new();
    for Constraint {
        coefficients,
        relation,
        rhs,
    } in lp.constraints()
    {
        let mut row = vec![0.0; num_y];
        let mut b = *rhs;
        for &(var, coeff) in coefficients {
            match var_map[var] {
                VarMap::Shifted { col, offset } => {
                    row[col] += coeff;
                    b -= coeff * offset;
                }
                VarMap::Mirrored { col, offset } => {
                    row[col] -= coeff;
                    b -= coeff * offset;
                }
                VarMap::Split { pos, neg } => {
                    row[pos] += coeff;
                    row[neg] -= coeff;
                }
                VarMap::Fixed { value } => {
                    b -= coeff * value;
                }
            }
        }
        raw_rows.push((row, *relation, b));
    }
    for (col, width) in upper_rows {
        let mut row = vec![0.0; num_y];
        row[col] = 1.0;
        raw_rows.push((row, Relation::LessEq, width));
    }

    // ---- 3. Build the standard-form tableau and run phase 1, which ----
    // ---- minimizes the sum of the artificial variables.            ----
    let mut tableau = build_tableau(raw_rows, num_y, tol);
    let mut iterations = 0usize;
    if tableau.first_artificial < tableau.ncols {
        let phase1_cost: Vec<f64> = (0..tableau.ncols)
            .map(|j| {
                if j >= tableau.first_artificial {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let phase1_value = run_phase(&mut tableau, &phase1_cost, options, &mut iterations)?;
        if phase1_value > 1e-6 {
            return Err(LinalgError::Infeasible);
        }
        drive_out_artificials(&mut tableau, tol);
        // Artificial columns must never re-enter the basis, so phase 2 has no
        // use for them. They are the trailing block: no other column moves.
        for row in &mut tableau.rows {
            row.truncate(tableau.first_artificial);
            row.shrink_to_fit();
        }
        tableau.ncols = tableau.first_artificial;
    }
    Ok(FeasibleStart {
        var_map,
        num_y,
        tableau,
        iterations,
    })
}

impl FeasibleStart {
    /// Runs phase 2 for one objective on `tableau`, this start's tableau or
    /// a copy of it, and reads the solution back.
    fn optimize(
        &self,
        mut tableau: Tableau,
        sense: Objective,
        coefficients: &[f64],
        options: &SimplexOptions,
    ) -> crate::Result<LpSolution> {
        let sense = match sense {
            Objective::Minimize => 1.0,
            Objective::Maximize => -1.0,
        };
        let mut cost = vec![0.0; tableau.ncols];
        for (var, &c) in coefficients.iter().enumerate() {
            if c == 0.0 {
                continue;
            }
            let c = c * sense;
            match self.var_map[var] {
                VarMap::Shifted { col, .. } => cost[col] += c,
                VarMap::Mirrored { col, .. } => cost[col] -= c,
                VarMap::Split { pos, neg } => {
                    cost[pos] += c;
                    cost[neg] -= c;
                }
                VarMap::Fixed { .. } => {}
            }
        }
        let mut iterations = self.iterations;
        run_phase(&mut tableau, &cost, options, &mut iterations)?;

        let mut y = vec![0.0; self.num_y];
        for (&b, &value) in tableau.basis.iter().zip(&tableau.rhs) {
            if b < self.num_y {
                y[b] = value;
            }
        }
        let variables: Vec<f64> = self
            .var_map
            .iter()
            .map(|map| match *map {
                VarMap::Shifted { col, offset } => offset + y[col],
                VarMap::Mirrored { col, offset } => offset - y[col],
                VarMap::Split { pos, neg } => y[pos] - y[neg],
                VarMap::Fixed { value } => value,
            })
            .collect();
        let objective_value: f64 = coefficients
            .iter()
            .zip(variables.iter())
            .map(|(c, v)| c * v)
            .sum();
        Ok(LpSolution {
            status: LpStatus::Optimal,
            objective_value,
            variables,
            iterations,
        })
    }
}

/// Turns the rows over the `y` variables into the phase-1 tableau, in place:
/// each row gains its slack/surplus and artificial columns. A row with a
/// negative rhs is negated first, which swaps `<=` and `>=`.
fn build_tableau(raw_rows: Vec<(Vec<f64>, Relation, f64)>, num_y: usize, tol: f64) -> Tableau {
    let normalized = |rel: Relation, b: f64| match rel {
        Relation::LessEq if b < 0.0 => Relation::GreaterEq,
        Relation::GreaterEq if b < 0.0 => Relation::LessEq,
        rel => rel,
    };
    let num_slack = raw_rows
        .iter()
        .filter(|(_, rel, _)| *rel != Relation::Equal)
        .count();
    let num_art = raw_rows
        .iter()
        .filter(|&&(_, rel, b)| normalized(rel, b) != Relation::LessEq)
        .count();
    let first_artificial = num_y + num_slack;
    let ncols = first_artificial + num_art;

    let m = raw_rows.len();
    let mut tableau = Tableau {
        rows: Vec::with_capacity(m),
        rhs: Vec::with_capacity(m),
        basis: Vec::with_capacity(m),
        ncols,
        first_artificial,
    };
    let mut slack_cursor = num_y;
    let mut art_cursor = first_artificial;
    for (mut row, rel, b) in raw_rows {
        let rel = normalized(rel, b);
        let b = if b < 0.0 {
            for value in &mut row {
                *value = -*value;
            }
            -b
        } else {
            b
        };
        row.resize(ncols, 0.0);
        let basic = match rel {
            Relation::LessEq => {
                row[slack_cursor] = 1.0;
                slack_cursor += 1;
                slack_cursor - 1
            }
            Relation::GreaterEq => {
                row[slack_cursor] = -1.0;
                slack_cursor += 1;
                row[art_cursor] = 1.0;
                art_cursor += 1;
                art_cursor - 1
            }
            Relation::Equal => {
                row[art_cursor] = 1.0;
                art_cursor += 1;
                art_cursor - 1
            }
        };
        tableau.rows.push(row);
        tableau.basis.push(basic);
        // Guard against rows that are numerically zero but have tiny rhs noise.
        tableau.rhs.push(if b < tol { b.max(0.0) } else { b });
    }
    tableau
}

/// Runs simplex iterations minimizing `cost` over the current tableau, and
/// returns the achieved objective value (in the minimized sense). A basic
/// variable without a cost entry (a leftover artificial) costs 0.
fn run_phase(
    tableau: &mut Tableau,
    cost: &[f64],
    options: &SimplexOptions,
    iterations: &mut usize,
) -> crate::Result<f64> {
    let tol = options.tolerance;
    let m = tableau.rows.len();

    // Reduced cost row: z_j = cost_j - sum_i cost[basis_i] * T[i][j]
    let mut reduced = cost.to_vec();
    let mut objective = 0.0;
    for i in 0..m {
        let cb = cost.get(tableau.basis[i]).copied().unwrap_or(0.0);
        if cb != 0.0 {
            for (r, &t_ij) in reduced.iter_mut().zip(&tableau.rows[i]) {
                *r -= cb * t_ij;
            }
            objective += cb * tableau.rhs[i];
        }
    }

    let mut local_iter = 0usize;
    loop {
        if *iterations >= options.max_iterations {
            return Err(LinalgError::IterationLimit {
                iterations: *iterations,
            });
        }
        // --- entering variable ---
        let entering = if local_iter > options.bland_threshold {
            reduced.iter().position(|&rc| rc < -tol)
        } else {
            let mut entering = None;
            let mut best = -tol;
            for (j, &rc) in reduced.iter().enumerate() {
                if rc < best {
                    best = rc;
                    entering = Some(j);
                }
            }
            entering
        };
        let Some(enter) = entering else {
            return Ok(objective);
        };

        // --- ratio test (leaving variable) ---
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            let a = tableau.rows[i][enter];
            if a > tol {
                let ratio = tableau.rhs[i] / a;
                let better = ratio < best_ratio - tol
                    || ((ratio - best_ratio).abs() <= tol
                        && leave
                            .map(|l| tableau.basis[i] < tableau.basis[l])
                            .unwrap_or(true));
                if better {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(leave) = leave else {
            return Err(LinalgError::Unbounded);
        };

        // --- pivot, then eliminate the entering column from the reduced costs ---
        pivot(tableau, leave, enter);
        let factor = reduced[enter];
        if factor != 0.0 {
            for (r, &t_pj) in reduced.iter_mut().zip(&tableau.rows[leave]) {
                *r -= factor * t_pj;
            }
            // The phase objective changes by (reduced cost of the entering
            // column) times the step length, which is the normalized
            // pivot-row rhs.
            objective += factor * tableau.rhs[leave];
        }
        *iterations += 1;
        local_iter += 1;
    }
}

/// Scales the pivot row to a unit pivot and eliminates the pivot column from
/// every other row. Only the columns where the scaled pivot row is nonzero
/// are updated: elsewhere `x - f·0` is `x`, up to the sign of a zero, which
/// nothing reads.
fn pivot(tableau: &mut Tableau, pivot_row: usize, pivot_col: usize) {
    let mut row = mem::take(&mut tableau.rows[pivot_row]);
    let pivot_val = row[pivot_col];
    for value in &mut row {
        *value /= pivot_val;
    }
    tableau.rhs[pivot_row] /= pivot_val;
    let pivot_rhs = tableau.rhs[pivot_row];
    let nonzeros: Vec<(usize, f64)> = row
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, value)| value != 0.0)
        .collect();

    for (i, (target, rhs)) in tableau.rows.iter_mut().zip(&mut tableau.rhs).enumerate() {
        if i == pivot_row {
            continue;
        }
        let factor = target[pivot_col];
        if factor != 0.0 {
            for &(j, value) in &nonzeros {
                target[j] -= factor * value;
            }
            *rhs -= factor * pivot_rhs;
            if rhs.abs() < 1e-12 {
                *rhs = 0.0;
            }
        }
    }
    tableau.rows[pivot_row] = row;
    tableau.basis[pivot_row] = pivot_col;
}

/// After phase 1, pivot any artificial variable that is still basic (at value
/// zero) out of the basis if possible. Rows where that is impossible are
/// redundant and are left in place with the artificial pinned at zero.
fn drive_out_artificials(tableau: &mut Tableau, tol: f64) {
    let first_artificial = tableau.first_artificial;
    for i in 0..tableau.rows.len() {
        if tableau.basis[i] < first_artificial {
            continue;
        }
        // Find a non-artificial column with a nonzero coefficient in this row.
        if let Some(j) = tableau.rows[i][..first_artificial]
            .iter()
            .position(|v| v.abs() > tol)
        {
            pivot(tableau, i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bound;

    fn max_lp(obj: &[f64]) -> LinearProgram {
        let mut lp = LinearProgram::new(obj.len(), Objective::Maximize);
        for (i, &c) in obj.iter().enumerate() {
            lp.set_objective_coefficient(i, c).unwrap();
        }
        lp
    }

    #[test]
    fn textbook_maximization() {
        // maximize 3x + 2y  s.t.  x + y <= 4, x + 3y <= 6
        let mut lp = max_lp(&[3.0, 2.0]);
        lp.add_less_eq(&[(0, 1.0), (1, 1.0)], 4.0).unwrap();
        lp.add_less_eq(&[(0, 1.0), (1, 3.0)], 6.0).unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.objective_value - 12.0).abs() < 1e-8);
        assert!((sol.variables[0] - 4.0).abs() < 1e-8);
        assert!(sol.variables[1].abs() < 1e-8);
    }

    #[test]
    fn minimization_with_greater_eq() {
        // minimize 2x + 3y  s.t.  x + y >= 10, x >= 2, y >= 3
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        lp.set_objective_coefficient(0, 2.0).unwrap();
        lp.set_objective_coefficient(1, 3.0).unwrap();
        lp.add_greater_eq(&[(0, 1.0), (1, 1.0)], 10.0).unwrap();
        lp.set_bound(0, Bound::interval(2.0, f64::INFINITY))
            .unwrap();
        lp.set_bound(1, Bound::interval(3.0, f64::INFINITY))
            .unwrap();
        let sol = solve(&lp).unwrap();
        // Optimal: push the cheap variable x as high as needed: x = 7, y = 3.
        assert!((sol.objective_value - 23.0).abs() < 1e-8);
        assert!((sol.variables[0] - 7.0).abs() < 1e-8);
        assert!((sol.variables[1] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn equality_constraints() {
        // maximize x + y  s.t.  x + y = 5,  x - y = 1
        let mut lp = max_lp(&[1.0, 1.0]);
        lp.add_equal(&[(0, 1.0), (1, 1.0)], 5.0).unwrap();
        lp.add_equal(&[(0, 1.0), (1, -1.0)], 1.0).unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.variables[0] - 3.0).abs() < 1e-8);
        assert!((sol.variables[1] - 2.0).abs() < 1e-8);
        assert!((sol.objective_value - 5.0).abs() < 1e-8);
    }

    #[test]
    fn infeasible_program_is_detected() {
        let mut lp = max_lp(&[1.0]);
        lp.add_less_eq(&[(0, 1.0)], 1.0).unwrap();
        lp.add_greater_eq(&[(0, 1.0)], 2.0).unwrap();
        assert!(matches!(solve(&lp), Err(LinalgError::Infeasible)));
    }

    #[test]
    fn unbounded_program_is_detected() {
        let mut lp = max_lp(&[1.0]);
        lp.add_greater_eq(&[(0, 1.0)], 1.0).unwrap();
        assert!(matches!(solve(&lp), Err(LinalgError::Unbounded)));
    }

    #[test]
    fn negative_lower_bounds_are_handled() {
        // minimize x subject to x >= -5 (bound), x <= 3
        let mut lp = LinearProgram::new(1, Objective::Minimize);
        lp.set_objective_coefficient(0, 1.0).unwrap();
        lp.set_bound(0, Bound::interval(-5.0, 3.0)).unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.variables[0] + 5.0).abs() < 1e-8);
    }

    #[test]
    fn free_variables_are_split() {
        // minimize x + y with x free, y >= 0 and x + y >= 2, x >= -3 via constraint
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        lp.set_objective_coefficient(0, 1.0).unwrap();
        lp.set_objective_coefficient(1, 1.0).unwrap();
        lp.set_bound(0, Bound::free()).unwrap();
        lp.add_greater_eq(&[(0, 1.0), (1, 1.0)], 2.0).unwrap();
        lp.add_greater_eq(&[(0, 1.0)], -3.0).unwrap();
        let sol = solve(&lp).unwrap();
        // The optimum is any point on x + y = 2 with x >= -3; the objective is 2.
        assert!((sol.objective_value - 2.0).abs() < 1e-7);
        assert!(sol.variables[0] + sol.variables[1] >= 2.0 - 1e-7);
        assert!(sol.variables[0] >= -3.0 - 1e-7);
        assert!(sol.variables[1] >= -1e-9);
    }

    #[test]
    fn fixed_variables_are_respected() {
        // ATP-maintenance style pinned flux.
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.set_objective_coefficient(1, 1.0).unwrap();
        lp.set_bound(0, Bound::fixed(0.45)).unwrap();
        lp.set_bound(1, Bound::interval(0.0, 10.0)).unwrap();
        lp.add_less_eq(&[(0, 1.0), (1, 1.0)], 5.0).unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.variables[0] - 0.45).abs() < 1e-9);
        assert!((sol.variables[1] - 4.55).abs() < 1e-7);
    }

    #[test]
    fn upper_bounds_limit_the_solution() {
        let mut lp = max_lp(&[1.0, 1.0]);
        lp.set_bound(0, Bound::interval(0.0, 2.0)).unwrap();
        lp.set_bound(1, Bound::interval(0.0, 3.0)).unwrap();
        lp.add_less_eq(&[(0, 1.0), (1, 1.0)], 100.0).unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.objective_value - 5.0).abs() < 1e-8);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple redundant constraints through the same vertex.
        let mut lp = max_lp(&[1.0, 1.0]);
        lp.add_less_eq(&[(0, 1.0)], 1.0).unwrap();
        lp.add_less_eq(&[(1, 1.0)], 1.0).unwrap();
        lp.add_less_eq(&[(0, 1.0), (1, 1.0)], 2.0).unwrap();
        lp.add_less_eq(&[(0, 2.0), (1, 2.0)], 4.0).unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.objective_value - 2.0).abs() < 1e-8);
    }

    #[test]
    fn iteration_limit_is_enforced() {
        let mut lp = max_lp(&[3.0, 2.0]);
        lp.add_less_eq(&[(0, 1.0), (1, 1.0)], 4.0).unwrap();
        let options = SimplexOptions {
            max_iterations: 0,
            ..Default::default()
        };
        assert!(matches!(
            solve_with_options(&lp, &options),
            Err(LinalgError::IterationLimit { .. })
        ));
    }

    #[test]
    fn invalid_tolerance_is_rejected() {
        let lp = max_lp(&[1.0]);
        let options = SimplexOptions {
            tolerance: -1.0,
            ..Default::default()
        };
        assert!(matches!(
            solve_with_options(&lp, &options),
            Err(LinalgError::InvalidArgument(_))
        ));
    }

    #[test]
    fn mirrored_variable_only_upper_bound() {
        // minimize -x with x <= 7 and no lower bound, but a constraint x >= 1.
        let mut lp = LinearProgram::new(1, Objective::Minimize);
        lp.set_objective_coefficient(0, -1.0).unwrap();
        lp.set_bound(
            0,
            Bound {
                lower: f64::NEG_INFINITY,
                upper: 7.0,
            },
        )
        .unwrap();
        lp.add_greater_eq(&[(0, 1.0)], 1.0).unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.variables[0] - 7.0).abs() < 1e-8);
    }

    #[test]
    fn larger_random_feasible_problem_is_solved() {
        // A transportation-like LP with 12 variables; checks that the solver
        // copes with a few dozen rows without hitting the iteration cap.
        let supplies = [20.0, 30.0, 25.0];
        let demands = [15.0, 25.0, 20.0, 15.0];
        let costs = [
            4.0, 8.0, 8.0, 6.0, //
            6.0, 2.0, 4.0, 7.0, //
            5.0, 3.0, 6.0, 2.0,
        ];
        let n = supplies.len() * demands.len();
        let mut lp = LinearProgram::new(n, Objective::Minimize);
        for (k, &c) in costs.iter().enumerate() {
            lp.set_objective_coefficient(k, c).unwrap();
        }
        for (i, &s) in supplies.iter().enumerate() {
            let row: Vec<(usize, f64)> = (0..demands.len())
                .map(|j| (i * demands.len() + j, 1.0))
                .collect();
            lp.add_less_eq(&row, s).unwrap();
        }
        for (j, &d) in demands.iter().enumerate() {
            let col: Vec<(usize, f64)> = (0..supplies.len())
                .map(|i| (i * demands.len() + j, 1.0))
                .collect();
            lp.add_greater_eq(&col, d).unwrap();
        }
        let sol = solve(&lp).unwrap();
        // Feasibility of the reported plan.
        for (i, &s) in supplies.iter().enumerate() {
            let shipped: f64 = (0..demands.len())
                .map(|j| sol.variables[i * demands.len() + j])
                .sum();
            assert!(shipped <= s + 1e-6);
        }
        for (j, &d) in demands.iter().enumerate() {
            let received: f64 = (0..supplies.len())
                .map(|i| sol.variables[i * demands.len() + j])
                .sum();
            assert!(received >= d - 1e-6);
        }
        // Known optimum of this classic instance.
        assert!(sol.objective_value <= 275.0 + 1e-6);
    }
}
