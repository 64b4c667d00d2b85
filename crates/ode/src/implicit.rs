use pathway_linalg::{LuDecomposition, Matrix, Vector};

use crate::system::validate_inputs;
use crate::{IntegrationResult, IntegrationStats, OdeError, OdeSystem};

/// Newton convergence tolerance, relative to `1 + |y|`.
const NEWTON_TOLERANCE: f64 = 1e-10;
/// Newton iterations allowed per step before the step fails.
const MAX_NEWTON_ITERATIONS: usize = 25;
/// Relative perturbation of the finite-difference Jacobian.
const JACOBIAN_EPSILON: f64 = 1e-7;

/// A backward-Euler integrator with a damped Newton corrector.
///
/// Backward Euler is only first-order accurate, but it is L-stable: on stiff
/// kinetic systems it can march to steady state with step sizes thousands of
/// times larger than an explicit method would tolerate. The Jacobian is
/// approximated by forward finite differences.
///
/// The Newton loop is allocation-free after the first step: the Jacobian,
/// Newton matrix, residual and update share one workspace across all steps,
/// solves go through [`LuDecomposition::solve_into`], and the first Newton
/// iteration of each step runs a full partial-pivoting refactorization whose
/// pivot order later iterations of the same step *reuse*
/// ([`LuDecomposition::refactor_reusing_pivots`]) — the Newton matrix drifts
/// only slightly between iterations, so the old pivot order stays valid and
/// the pivot search and row swaps are skipped (with an automatic fall back
/// to a full refactorization if it does not).
///
/// # Example
///
/// ```
/// use pathway_ode::{OdeSystem, BackwardEuler};
/// use pathway_linalg::Vector;
///
/// /// A stiff decay: dy/dt = -1000 (y - cos(t)).
/// struct StiffRelaxation;
/// impl OdeSystem for StiffRelaxation {
///     fn dim(&self) -> usize { 1 }
///     fn rhs(&self, t: f64, y: &Vector, dydt: &mut Vector) {
///         dydt[0] = -1000.0 * (y[0] - t.cos());
///     }
/// }
///
/// # fn main() -> Result<(), pathway_ode::OdeError> {
/// let solver = BackwardEuler::new(0.05);
/// let result = solver.integrate(&StiffRelaxation, 0.0, Vector::from(vec![0.0]), 2.0)?;
/// // The solution relaxes onto cos(t) despite the large step.
/// assert!((result.state[0] - 2.0f64.cos()).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackwardEuler {
    step: f64,
}

impl BackwardEuler {
    /// Creates a solver with the given step size. The Newton corrector
    /// converges to a residual of `1e-10 · (1 + |y|)` within at most 25
    /// iterations per step.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not strictly positive and finite.
    pub fn new(step: f64) -> Self {
        assert!(
            step.is_finite() && step > 0.0,
            "step size must be positive and finite"
        );
        BackwardEuler { step }
    }

    /// The configured step size.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Finite-difference Jacobian of the right-hand side at `(t, y)`,
    /// written into the workspace's `jac` (no allocation).
    fn numerical_jacobian_into<S: OdeSystem>(
        &self,
        system: &S,
        t: f64,
        y: &Vector,
        f0: &Vector,
        ws: &mut NewtonWorkspace,
        stats: &mut IntegrationStats,
    ) {
        let dim = system.dim();
        ws.perturbed.as_mut_slice().copy_from_slice(y.as_slice());
        for j in 0..dim {
            let h = JACOBIAN_EPSILON * (1.0 + y[j].abs());
            ws.perturbed[j] = y[j] + h;
            system.rhs(t, &ws.perturbed, &mut ws.f1);
            stats.rhs_evaluations += 1;
            let jac = ws.jac.as_mut_slice();
            for i in 0..dim {
                jac[i * dim + j] = (ws.f1[i] - f0[i]) / h;
            }
            ws.perturbed[j] = y[j];
        }
        stats.jacobian_evaluations += 1;
    }
}

/// Buffers reused across every Newton iteration of every step.
struct NewtonWorkspace {
    jac: Matrix,
    newton_matrix: Matrix,
    residual: Vector,
    delta: Vector,
    candidate: Vector,
    perturbed: Vector,
    f1: Vector,
    /// The LU storage (and, within a step, the pivot order) carried from
    /// solve to solve; `None` until the first factorization.
    lu: Option<LuDecomposition>,
}

impl NewtonWorkspace {
    fn new(dim: usize) -> Self {
        NewtonWorkspace {
            jac: Matrix::zeros(dim, dim),
            newton_matrix: Matrix::zeros(dim, dim),
            residual: Vector::zeros(dim),
            delta: Vector::zeros(dim),
            candidate: Vector::zeros(dim),
            perturbed: Vector::zeros(dim),
            f1: Vector::zeros(dim),
            lu: None,
        }
    }
}

impl BackwardEuler {
    /// Integrates `system` from `t0` with initial state `y0` until `t_end`.
    /// The last step is shortened so the span ends exactly at `t_end`, and
    /// [`OdeSystem::project`] is applied after every step.
    ///
    /// # Errors
    ///
    /// * [`OdeError::DimensionMismatch`] if `y0.len() != system.dim()`.
    /// * [`OdeError::InvalidParameter`] if the span is not finite or runs
    ///   backwards.
    /// * [`OdeError::NewtonDivergence`] if a step's corrector does not
    ///   converge within its iteration budget, its Newton matrix is
    ///   singular, or its update cannot be damped to a finite state.
    /// * [`OdeError::NonFiniteState`] if `y0` or a converged step is not
    ///   finite.
    pub fn integrate<S: OdeSystem>(
        &self,
        system: &S,
        t0: f64,
        y0: Vector,
        t_end: f64,
    ) -> crate::Result<IntegrationResult> {
        validate_inputs(system, &y0, t0, t_end)?;
        let dim = system.dim();
        let mut stats = IntegrationStats::new();
        let mut t = t0;
        let mut y = y0;
        let mut f = Vector::zeros(dim);
        let mut ws = NewtonWorkspace::new(dim);

        while t < t_end {
            let h = self.step.min(t_end - t);
            let t_new = t + h;

            // Newton iteration for y_new solving: G(y_new) = y_new - y - h f(t_new, y_new) = 0.
            let mut y_new = y.clone();
            // Predictor: explicit Euler.
            system.rhs(t, &y, &mut f);
            stats.rhs_evaluations += 1;
            y_new
                .axpy_mut(h, &f)
                .expect("dimensions match by construction");

            let mut converged = false;
            for iteration in 0..MAX_NEWTON_ITERATIONS {
                system.rhs(t_new, &y_new, &mut f);
                stats.rhs_evaluations += 1;
                stats.newton_iterations += 1;

                // Residual G = y_new - y - h f.
                for i in 0..dim {
                    ws.residual[i] = y_new[i] - y[i] - h * f[i];
                }
                if ws.residual.norm_inf() <= NEWTON_TOLERANCE * (1.0 + y_new.norm_inf()) {
                    // `norm_inf` skips NaN, so a NaN derivative would
                    // otherwise pass for convergence at a finite iterate.
                    if !ws.residual.is_finite() {
                        return Err(OdeError::NonFiniteState { time: t_new });
                    }
                    converged = true;
                    break;
                }

                // Jacobian of G: I - h J, built in place.
                self.numerical_jacobian_into(system, t_new, &y_new, &f, &mut ws, &mut stats);
                let nm = ws.newton_matrix.as_mut_slice();
                for (dst, &src) in nm.iter_mut().zip(ws.jac.as_slice()) {
                    *dst = -h * src;
                }
                for i in 0..dim {
                    nm[i * dim + i] += 1.0;
                }
                // Factor: full pivoting on the first iteration of the step,
                // pivot reuse afterwards (the Newton matrix drifts slowly
                // within a step), full refactorization as the fallback.
                let factored = match &mut ws.lu {
                    None => LuDecomposition::new(&ws.newton_matrix).map(|lu| ws.lu = Some(lu)),
                    Some(lu) if iteration == 0 => lu.refactor(&ws.newton_matrix),
                    Some(lu) => lu
                        .refactor_reusing_pivots(&ws.newton_matrix)
                        .or_else(|_| lu.refactor(&ws.newton_matrix)),
                };
                let solved = factored.and_then(|()| {
                    ws.lu
                        .as_ref()
                        .expect("factorization success stores the decomposition")
                        .solve_into(&ws.residual, &mut ws.delta)
                });
                if solved.is_err() {
                    return Err(OdeError::NewtonDivergence {
                        time: t_new,
                        iterations: stats.newton_iterations,
                    });
                }
                // Damped update: full step unless it would blow up.
                let mut damping = 1.0;
                loop {
                    ws.candidate
                        .as_mut_slice()
                        .copy_from_slice(y_new.as_slice());
                    ws.candidate
                        .axpy_mut(-damping, &ws.delta)
                        .expect("dimensions match");
                    if ws.candidate.is_finite() {
                        std::mem::swap(&mut y_new, &mut ws.candidate);
                        break;
                    }
                    damping *= 0.5;
                    if damping < 1e-4 {
                        return Err(OdeError::NewtonDivergence {
                            time: t_new,
                            iterations: stats.newton_iterations,
                        });
                    }
                }
            }

            if !converged {
                return Err(OdeError::NewtonDivergence {
                    time: t_new,
                    iterations: stats.newton_iterations,
                });
            }
            if !y_new.is_finite() {
                return Err(OdeError::NonFiniteState { time: t_new });
            }

            y = y_new;
            t = t_new;
            system.project(t, &mut y);
            stats.steps_accepted += 1;
        }

        Ok(IntegrationResult {
            time: t_end,
            state: y,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::test_systems::{Decay, Logistic, StiffLinear};
    use crate::{SteadyStateDriver, SteadyStateOptions};

    #[test]
    fn decay_converges_to_analytic_solution_with_small_steps() {
        let result = BackwardEuler::new(1e-3)
            .integrate(&Decay { k: 1.0 }, 0.0, Vector::from(vec![1.0]), 1.0)
            .unwrap();
        assert!((result.state[0] - (-1.0f64).exp()).abs() < 1e-3);
    }

    #[test]
    fn stiff_system_is_stable_with_large_steps() {
        // Explicit RK4 with h = 0.01 would blow up (eigenvalue -1000).
        let result = BackwardEuler::new(0.01)
            .integrate(&StiffLinear, 0.0, Vector::from(vec![1.0, 1.0]), 10.0)
            .unwrap();
        assert!(result.state[0].abs() < 1e-2);
        assert!((result.state[1] - (-5.0f64).exp()).abs() < 1e-2);
    }

    #[test]
    fn newton_counters_are_populated() {
        let result = BackwardEuler::new(0.1)
            .integrate(&Decay { k: 1.0 }, 0.0, Vector::from(vec![1.0]), 1.0)
            .unwrap();
        assert!(result.stats.newton_iterations >= result.stats.steps_accepted);
        assert!(result.stats.jacobian_evaluations > 0);
    }

    #[test]
    fn final_time_is_hit_exactly_even_with_non_divisible_step() {
        let result = BackwardEuler::new(0.3)
            .integrate(&Decay { k: 1.0 }, 0.0, Vector::from(vec![1.0]), 1.0)
            .unwrap();
        assert_eq!(result.time, 1.0);
        // Three full steps and a closing step of 0.1, each dividing the
        // state by 1 + h.
        assert_eq!(result.stats.steps_accepted, 4);
        let expected = 1.0 / (1.3f64.powi(3) * 1.1);
        assert!((result.state[0] - expected).abs() < 1e-9);
    }

    #[test]
    fn zero_length_span_returns_initial_state() {
        let y0 = Vector::from(vec![3.0]);
        let result = BackwardEuler::new(0.1)
            .integrate(&Decay { k: 1.0 }, 2.0, y0.clone(), 2.0)
            .unwrap();
        assert_eq!(result.state, y0);
        assert_eq!(result.stats.steps_accepted, 0);
    }

    #[test]
    fn projection_is_applied_after_each_step() {
        let result = BackwardEuler::new(0.5)
            .integrate(&Logistic { r: 10.0 }, 0.0, Vector::from(vec![0.5]), 5.0)
            .unwrap();
        assert!(result.state[0] <= 1.0 && result.state[0] >= 0.0);
        // From above the carrying capacity backward Euler approaches 1 from
        // above (the first step lands at (sqrt(13) - 1) / 2); only the
        // projection brings the state down onto it.
        let result = BackwardEuler::new(0.05)
            .integrate(&Logistic { r: 10.0 }, 0.0, Vector::from(vec![1.5]), 5.0)
            .unwrap();
        assert_eq!(result.state[0], 1.0);
    }

    #[test]
    fn stats_count_rhs_evaluations() {
        let result = BackwardEuler::new(0.1)
            .integrate(&Decay { k: 1.0 }, 0.0, Vector::from(vec![1.0]), 1.0)
            .unwrap();
        let stats = result.stats;
        // 10 full steps, plus possibly one tiny closing step caused by
        // floating-point accumulation of 0.1.
        assert!(stats.steps_accepted >= 10 && stats.steps_accepted <= 11);
        // Every Newton iteration but the converging last one of each step
        // builds a Jacobian.
        assert_eq!(
            stats.jacobian_evaluations,
            stats.newton_iterations - stats.steps_accepted
        );
        // One predictor call per step, one call per Newton iteration, and
        // one call per state component per Jacobian.
        assert_eq!(
            stats.rhs_evaluations,
            stats.steps_accepted + stats.newton_iterations + stats.jacobian_evaluations
        );
    }

    /// A relay: `dy/dt = -1` above zero and `+1` at or below it. Away from
    /// the switch the finite-difference Jacobian is zero, so each Newton
    /// update sets `y_new = y + h f(y_new)`, which flips sign on every
    /// iteration and never settles.
    struct Relay;

    impl OdeSystem for Relay {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&self, _t: f64, y: &Vector, dydt: &mut Vector) {
            dydt[0] = if y[0] > 0.0 { -1.0 } else { 1.0 };
        }
    }

    #[test]
    fn newton_divergence_is_reported_by_integrate_and_the_driver() {
        let solver = BackwardEuler::new(0.1);
        let diverged = OdeError::NewtonDivergence {
            time: 0.1,
            iterations: MAX_NEWTON_ITERATIONS,
        };
        let err = solver
            .integrate(&Relay, 0.0, Vector::from(vec![0.05]), 1.0)
            .unwrap_err();
        assert_eq!(err, diverged);
        let err = SteadyStateDriver::new(solver, SteadyStateOptions::default())
            .run(&Relay, Vector::from(vec![0.05]))
            .unwrap_err();
        assert_eq!(err, diverged);
    }

    /// `dy/dt = -y`, except NaN wherever the predicate on `(t, y)` holds.
    struct NanWhere(fn(f64, f64) -> bool);

    impl OdeSystem for NanWhere {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&self, t: f64, y: &Vector, dydt: &mut Vector) {
            dydt[0] = if (self.0)(t, y[0]) { f64::NAN } else { -y[0] };
        }
    }

    #[test]
    fn nan_rhs_is_an_error_never_a_panic_or_a_non_finite_state() {
        let solver = BackwardEuler::new(0.1);
        let cases = [
            // NaN everywhere: the predictor itself is NaN.
            (NanWhere(|_, _| true), 1.0),
            // NaN once time passes 0.25: the third step fails.
            (NanWhere(|t, _| t > 0.25), 1.0),
            // One step whose predictor is finite but whose Newton residual
            // is NaN while the iterate stays finite.
            (NanWhere(|t, _| t > 0.05), 0.1),
        ];
        for (system, t_end) in &cases {
            let err = solver
                .integrate(system, 0.0, Vector::from(vec![1.0]), *t_end)
                .unwrap_err();
            assert!(
                matches!(err, OdeError::NonFiniteState { .. }),
                "unexpected {err:?}"
            );
            let err = SteadyStateDriver::new(solver, SteadyStateOptions::default())
                .run(system, Vector::from(vec![1.0]))
                .unwrap_err();
            assert!(
                matches!(err, OdeError::NonFiniteState { .. }),
                "unexpected {err:?}"
            );
        }
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let err = BackwardEuler::new(0.1)
            .integrate(&StiffLinear, 0.0, Vector::from(vec![1.0]), 1.0)
            .unwrap_err();
        assert!(matches!(err, OdeError::DimensionMismatch { .. }));
    }

    #[test]
    #[should_panic(expected = "step size must be positive")]
    fn non_positive_step_panics() {
        let _ = BackwardEuler::new(-0.5);
    }
}
