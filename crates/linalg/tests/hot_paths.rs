//! Black-box tests for the `pathway-linalg` hot paths: the simplex LP solver
//! against small programs with known optima and, for several objectives over
//! one program, against standalone solves; the LU round-trip
//! `P·A = L·U`, and dense/sparse mat-vec agreement.

use pathway_linalg::{
    simplex, Bound, CsrMatrix, LinalgError, LinearProgram, LpStatus, LuDecomposition, Matrix,
    Objective, Relation, Vector,
};
use proptest::prelude::*;

/// Deterministic stream of f64 in [-1, 1) for a named seed, reusing the
/// vendored proptest generator rather than hand-rolling another PRNG.
fn pseudo_stream(seed: u64, tag: &str) -> proptest::TestRng {
    proptest::TestRng::deterministic(&format!("hot_paths/{tag}/{seed}"))
}

fn next_signed(rng: &mut proptest::TestRng) -> f64 {
    rng.next_f64() * 2.0 - 1.0
}

/// A diagonally dominant (hence nonsingular) n-by-n matrix from a seed.
fn well_conditioned_matrix(n: usize, seed: u64) -> Matrix {
    let mut rng = pseudo_stream(seed, "matrix");
    let mut data = Vec::with_capacity(n * n);
    for r in 0..n {
        for c in 0..n {
            let base = next_signed(&mut rng);
            data.push(if r == c { base + 4.0 } else { base });
        }
    }
    Matrix::from_flat(n, n, data).expect("shape matches data length")
}

// ---------------------------------------------------------------- simplex --

#[test]
fn simplex_solves_the_classic_production_lp() {
    // max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18, x, y >= 0.
    // Known optimum: 36 at (2, 6).
    let mut lp = LinearProgram::new(2, Objective::Maximize);
    lp.set_objective_coefficient(0, 3.0).unwrap();
    lp.set_objective_coefficient(1, 5.0).unwrap();
    lp.add_less_eq(&[(0, 1.0)], 4.0).unwrap();
    lp.add_less_eq(&[(1, 2.0)], 12.0).unwrap();
    lp.add_less_eq(&[(0, 3.0), (1, 2.0)], 18.0).unwrap();

    let solution = simplex::solve(&lp).expect("program is feasible and bounded");
    assert_eq!(solution.status, LpStatus::Optimal);
    assert!((solution.objective_value - 36.0).abs() < 1e-9);
    assert!((solution.variables[0] - 2.0).abs() < 1e-9);
    assert!((solution.variables[1] - 6.0).abs() < 1e-9);
}

#[test]
fn simplex_solves_a_minimization_with_upper_bounds() {
    // min 2x + 3y  s.t.  x + y >= 10, 0 <= x <= 8, y >= 0.
    // Cheapest to saturate x: optimum 22 at (8, 2).
    let mut lp = LinearProgram::new(2, Objective::Minimize);
    lp.set_objective_coefficient(0, 2.0).unwrap();
    lp.set_objective_coefficient(1, 3.0).unwrap();
    lp.set_bound(0, Bound::interval(0.0, 8.0)).unwrap();
    lp.add_greater_eq(&[(0, 1.0), (1, 1.0)], 10.0).unwrap();

    let solution = simplex::solve(&lp).expect("program is feasible and bounded");
    assert!((solution.objective_value - 22.0).abs() < 1e-9);
    assert!((solution.variables[0] - 8.0).abs() < 1e-9);
    assert!((solution.variables[1] - 2.0).abs() < 1e-9);
}

#[test]
fn simplex_handles_equality_constraints_and_free_variables() {
    // min x - z  s.t.  x + y + z = 4, z <= 1, x >= 0, y >= 0, z free.
    // Optimum: x = 0, z = 1 (its upper bound), objective -1.
    let mut lp = LinearProgram::new(3, Objective::Minimize);
    lp.set_objective_coefficient(0, 1.0).unwrap();
    lp.set_objective_coefficient(2, -1.0).unwrap();
    lp.set_bound(2, Bound::interval(f64::NEG_INFINITY, 1.0))
        .unwrap();
    lp.add_equal(&[(0, 1.0), (1, 1.0), (2, 1.0)], 4.0).unwrap();

    let solution = simplex::solve(&lp).expect("program is feasible and bounded");
    assert!((solution.objective_value - (-1.0)).abs() < 1e-9);
    assert!(solution.variables[0].abs() < 1e-9);
    assert!((solution.variables[2] - 1.0).abs() < 1e-9);
    // The equality constraint holds at the optimum.
    let total: f64 = solution.variables.iter().sum();
    assert!((total - 4.0).abs() < 1e-9);
}

#[test]
fn simplex_reports_infeasible_and_unbounded_programs() {
    // x >= 0 and x <= -1 cannot both hold.
    let mut infeasible = LinearProgram::new(1, Objective::Maximize);
    infeasible.set_objective_coefficient(0, 1.0).unwrap();
    infeasible.add_less_eq(&[(0, 1.0)], -1.0).unwrap();
    assert!(matches!(
        simplex::solve(&infeasible),
        Err(LinalgError::Infeasible)
    ));

    // max x with x unconstrained from above.
    let mut unbounded = LinearProgram::new(1, Objective::Maximize);
    unbounded.set_objective_coefficient(0, 1.0).unwrap();
    assert!(matches!(
        simplex::solve(&unbounded),
        Err(LinalgError::Unbounded)
    ));
}

#[test]
fn simplex_respects_fixed_variables() {
    // max x + y with y fixed at 2 and x <= 3: optimum 5 at (3, 2).
    let mut lp = LinearProgram::new(2, Objective::Maximize);
    lp.set_objective_coefficient(0, 1.0).unwrap();
    lp.set_objective_coefficient(1, 1.0).unwrap();
    lp.set_bound(0, Bound::interval(0.0, 3.0)).unwrap();
    lp.set_bound(1, Bound::fixed(2.0)).unwrap();

    let solution = simplex::solve(&lp).expect("program is feasible and bounded");
    assert!((solution.objective_value - 5.0).abs() < 1e-9);
    assert!((solution.variables[1] - 2.0).abs() < 1e-12);
}

// ------------------------------------------------- shared phase 1 parity --

/// `lp` with its objective replaced by `sense` and `coefficients`.
fn with_objective(lp: &LinearProgram, sense: Objective, coefficients: &[f64]) -> LinearProgram {
    let mut single = LinearProgram::new(lp.num_vars(), sense);
    for (var, &bound) in lp.bounds().iter().enumerate() {
        single.set_bound(var, bound).unwrap();
    }
    for constraint in lp.constraints() {
        single
            .add_constraint(
                &constraint.coefficients,
                constraint.relation,
                constraint.rhs,
            )
            .unwrap();
    }
    for (var, &c) in coefficients.iter().enumerate() {
        single.set_objective_coefficient(var, c).unwrap();
    }
    single
}

/// Asserts that [`simplex::solve_each`] gives, for every objective, exactly
/// what a standalone [`simplex::solve`] of that objective gives.
fn assert_solve_each_matches_solve(lp: &LinearProgram, objectives: &[(Objective, Vec<f64>)]) {
    let shared = simplex::solve_each(lp, objectives, &simplex::SimplexOptions::default());
    assert_eq!(shared.len(), objectives.len());
    for ((sense, coefficients), shared) in objectives.iter().zip(shared) {
        let alone = simplex::solve(&with_objective(lp, *sense, coefficients));
        match (shared, alone) {
            (Ok(shared), Ok(alone)) => {
                let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&shared.variables), bits(&alone.variables));
                assert_eq!(
                    shared.objective_value.to_bits(),
                    alone.objective_value.to_bits()
                );
                assert_eq!(shared.iterations, alone.iterations);
                assert_eq!(shared.status, alone.status);
            }
            (shared, alone) => assert_eq!(shared.err(), alone.err()),
        }
    }
}

/// A small LP that is feasible by construction: every row holds at a point
/// `x0` inside the bounds. Variables cycle through every bound kind (shifted
/// with and without an upper bound, mirrored, free, fixed) and rows through
/// `<=`, `>=` and `=`; every other row is negated, so negative right-hand
/// sides occur.
fn feasible_lp(n: usize, m: usize, seed: u64) -> LinearProgram {
    let mut rng = pseudo_stream(seed, "lp");
    let mut small_int = |scale: f64| (next_signed(&mut rng) * scale).round();
    let mut lp = LinearProgram::new(n, Objective::Minimize);
    let mut x0 = Vec::with_capacity(n);
    for var in 0..n {
        let value = small_int(3.0);
        let bound = match var % 5 {
            0 => Bound::interval(
                value - small_int(2.0).abs(),
                value + small_int(2.0).abs() + 1.0,
            ),
            1 => Bound::interval(value - small_int(2.0).abs(), f64::INFINITY),
            2 => Bound {
                lower: f64::NEG_INFINITY,
                upper: value + small_int(2.0).abs(),
            },
            3 => Bound::free(),
            _ => Bound::fixed(value),
        };
        lp.set_bound(var, bound).unwrap();
        x0.push(value);
    }
    for row in 0..m {
        let coefficients: Vec<(usize, f64)> = (0..n)
            .map(|var| (var, small_int(3.0)))
            .filter(|&(_, c)| c != 0.0)
            .collect();
        let activity: f64 = coefficients.iter().map(|&(var, c)| c * x0[var]).sum();
        let slack = small_int(2.0).abs();
        let (relation, rhs) = match row % 3 {
            0 => (Relation::LessEq, activity + slack),
            1 => (Relation::GreaterEq, activity - slack),
            _ => (Relation::Equal, activity),
        };
        if row % 2 == 1 {
            let negated: Vec<(usize, f64)> =
                coefficients.iter().map(|&(var, c)| (var, -c)).collect();
            let flipped = match relation {
                Relation::LessEq => Relation::GreaterEq,
                Relation::GreaterEq => Relation::LessEq,
                Relation::Equal => Relation::Equal,
            };
            lp.add_constraint(&negated, flipped, -rhs).unwrap();
        } else {
            lp.add_constraint(&coefficients, relation, rhs).unwrap();
        }
    }
    lp
}

fn random_objectives(n: usize, count: usize, seed: u64) -> Vec<(Objective, Vec<f64>)> {
    let mut rng = pseudo_stream(seed, "objectives");
    (0..count)
        .map(|k| {
            let sense = if k % 2 == 0 {
                Objective::Minimize
            } else {
                Objective::Maximize
            };
            let coefficients = (0..n)
                .map(|_| (next_signed(&mut rng) * 2.0).round())
                .collect();
            (sense, coefficients)
        })
        .collect()
}

proptest! {
    #[test]
    fn prop_solve_each_matches_standalone_solves(
        n in 1usize..9,
        m in 0usize..7,
        count in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let lp = feasible_lp(n, m, seed);
        assert_solve_each_matches_solve(&lp, &random_objectives(n, count, seed));
    }
}

#[test]
fn solve_each_reports_infeasible_for_every_objective() {
    let mut lp = LinearProgram::new(2, Objective::Minimize);
    lp.add_less_eq(&[(0, 1.0), (1, 1.0)], 1.0).unwrap();
    lp.add_greater_eq(&[(0, 1.0)], 2.0).unwrap();
    let objectives = [
        (Objective::Maximize, vec![1.0, 0.0]),
        (Objective::Minimize, vec![0.0, 1.0]),
    ];
    assert_solve_each_matches_solve(&lp, &objectives);
    for result in simplex::solve_each(&lp, &objectives, &simplex::SimplexOptions::default()) {
        assert_eq!(result, Err(LinalgError::Infeasible));
    }
}

#[test]
fn solve_each_reports_unbounded_only_for_the_unbounded_objective() {
    // x >= 1 (a phase-1 row), y in [0, 2]: max y is 2, max x is unbounded.
    let mut lp = LinearProgram::new(2, Objective::Minimize);
    lp.add_greater_eq(&[(0, 1.0)], 1.0).unwrap();
    lp.set_bound(1, Bound::interval(0.0, 2.0)).unwrap();
    let objectives = [
        (Objective::Maximize, vec![0.0, 1.0]),
        (Objective::Maximize, vec![1.0, 0.0]),
        (Objective::Minimize, vec![1.0, 1.0]),
    ];
    assert_solve_each_matches_solve(&lp, &objectives);
    let results = simplex::solve_each(&lp, &objectives, &simplex::SimplexOptions::default());
    assert_eq!(results[0].as_ref().unwrap().objective_value, 2.0);
    assert_eq!(results[1], Err(LinalgError::Unbounded));
    assert_eq!(results[2].as_ref().unwrap().objective_value, 1.0);
}

// --------------------------------------------------------------------- LU --

/// Applies the row permutation of an LU factorization to `a`, forming `P·A`.
fn permute_rows(a: &Matrix, perm: &[usize]) -> Matrix {
    let rows: Vec<Vec<f64>> = perm.iter().map(|&src| a.row(src).to_vec()).collect();
    Matrix::from_rows(&rows).expect("permuted rows keep the original shape")
}

fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn lu_round_trip_on_a_known_matrix() {
    let a = Matrix::from_rows(&[
        vec![2.0, 1.0, 1.0],
        vec![4.0, -6.0, 0.0],
        vec![-2.0, 7.0, 2.0],
    ])
    .unwrap();
    let lu = LuDecomposition::new(&a).expect("matrix is nonsingular");

    let pa = permute_rows(&a, lu.permutation());
    let reconstructed = lu.l().mat_mul(&lu.u()).unwrap();
    assert!(max_abs_diff(&pa, &reconstructed) < 1e-12);

    // The factors have the advertised triangular structure.
    let (l, u) = (lu.l(), lu.u());
    for r in 0..3 {
        assert!((l[(r, r)] - 1.0).abs() < 1e-15, "L has a unit diagonal");
        for c in (r + 1)..3 {
            assert_eq!(l[(r, c)], 0.0, "L is lower triangular");
        }
        for c in 0..r {
            assert_eq!(u[(r, c)], 0.0, "U is upper triangular");
        }
    }
}

#[test]
fn lu_rejects_singular_and_non_square_inputs() {
    let singular = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
    assert!(matches!(
        LuDecomposition::new(&singular),
        Err(LinalgError::SingularMatrix { .. })
    ));
    let rect = Matrix::zeros(2, 3);
    assert!(matches!(
        LuDecomposition::new(&rect),
        Err(LinalgError::DimensionMismatch { .. })
    ));
}

proptest! {
    #[test]
    fn prop_lu_round_trip_reconstructs_pa(n in 1usize..8, seed in 0u64..300) {
        let a = well_conditioned_matrix(n, seed);
        let lu = LuDecomposition::new(&a).expect("diagonally dominant matrices are nonsingular");
        let pa = permute_rows(&a, lu.permutation());
        let reconstructed = lu.l().mat_mul(&lu.u()).unwrap();
        prop_assert!(max_abs_diff(&pa, &reconstructed) < 1e-10);
    }

    #[test]
    fn prop_lu_solve_then_multiply_recovers_rhs(n in 1usize..8, seed in 0u64..300) {
        let a = well_conditioned_matrix(n, seed);
        let mut rng = pseudo_stream(seed, "rhs");
        let b: Vector = (0..n).map(|_| next_signed(&mut rng)).collect();
        let x = a.lu().unwrap().solve(&b).unwrap();
        let residual = (a.mat_vec(&x).unwrap() - b).norm2();
        prop_assert!(residual < 1e-9);
    }
}

// ------------------------------------------------------- dense vs. sparse --

proptest! {
    #[test]
    fn prop_dense_and_sparse_matvec_agree(
        rows in 1usize..10,
        cols in 1usize..10,
        seed in 0u64..500,
    ) {
        // Roughly half the entries are structural zeros.
        let mut rng = pseudo_stream(seed, "entries");
        let mut triplets = Vec::new();
        let mut dense = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let value = next_signed(&mut rng);
                if value > 0.0 {
                    triplets.push((r, c, value));
                    dense[(r, c)] = value;
                }
            }
        }
        let sparse = CsrMatrix::from_triplets(rows, cols, &triplets).unwrap();
        let mut vec_rng = pseudo_stream(seed, "vector");
        let v: Vector = (0..cols).map(|_| next_signed(&mut vec_rng)).collect();

        let from_dense = dense.mat_vec(&v).unwrap();
        let from_sparse = sparse.mat_vec(&v).unwrap();
        prop_assert!((from_dense - from_sparse).norm_inf() < 1e-12);

        // Round-tripping through to_dense preserves every entry.
        prop_assert!(max_abs_diff(&sparse.to_dense(), &dense) == 0.0);
    }
}
